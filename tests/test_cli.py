import json
import re
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from sandmon import cli, ktheory, monoid, realize, rewrite
from sandmon.cli import build_parser, main
from sandmon.graph import SandpileGraph, loop_sink_graph

from reference import graph_to_text, random_sandpile_corpus

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "src" / "sandmon" / "report.schema.json")
    .read_text(encoding="utf-8")
)
GRAPHS = Path(__file__).resolve().parent.parent / "graphs"


def run(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *args):
    rc, out, err = run(capsys, *args, "--json")
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return rc, payload, err


def graph_path(name):
    return str(GRAPHS / name)


def diverging_graph_file(tmp_path):
    """Two vertices of weight two with loops; u=2 never stabilises."""
    f = tmp_path / "diverging.sg"
    f.write_text(
        "vertex u\nvertex v\n"
        "edge u u w=2\nedge u v w=2\nedge u v w=2\n"
        "edge v u w=2\nedge v v w=2\n"
    )
    return f


def test_check_text_output(capsys):
    rc, out, _ = run(capsys, "check", graph_path("g_2_3.sg"))
    assert rc == 0
    assert out.strip() == "valid sandpile graph; sink=s; reduced=yes"


def test_check_json(capsys):
    rc, payload, _ = run_json(capsys, "check", graph_path("g_2_3.sg"))
    assert rc == 0
    assert payload == {"report": "check", "valid": True, "sink": "s", "reduced": True}


def test_check_domain_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "two_sinks.sg"
    bad.write_text("vertex a\nvertex b\n")
    rc, out, err = run(capsys, "check", str(bad))
    assert rc == 1
    assert "error[MultipleSinks]" in err


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.sg"
    bad.write_text("vertex a\nedge a nowhere\n")
    rc, _, err = run(capsys, "check", str(bad))
    assert rc == 2
    assert "error[GraphFormatError]" in err


def test_missing_file_exit_code(capsys):
    rc, _, err = run(capsys, "check", "no_such_file.sg")
    assert rc == 2
    assert "error[io]" in err


def test_unknown_verb_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_stabilize_json(capsys):
    rc, payload, _ = run_json(
        capsys, "stabilize", graph_path("g_2_3.sg"), "--config", "x=5"
    )
    assert rc == 0
    assert payload["result"] == "x=2"
    assert payload["odometer"] == {"x": 1}
    assert payload["steps"] == 1
    assert payload["mode"] == "sink-absorbing"


def test_stabilize_free_mode(capsys):
    rc, payload, _ = run_json(
        capsys, "stabilize", graph_path("g_2_3.sg"), "--config", "x=5",
        "--mode", "free",
    )
    assert rc == 0
    assert payload["result"] == "x=2,s=3"


def test_stabilize_sp_mode_needs_a_sandpile_graph(capsys, tmp_path):
    rose = graph_path("rose_1_4.sg")
    rc, out, err = run(capsys, "stabilize", rose, "--config", "v=3",
                       "--mode", "sp", "--json")
    assert (rc, out) == (1, "")
    assert err.startswith("error[NoSink]")
    # sp is the default mode
    rc, out, err = run(capsys, "stabilize", rose, "--config", "v=3")
    assert (rc, out) == (1, "")
    assert err.startswith("error[NoSink]")
    f = diverging_graph_file(tmp_path)
    rc, out, err = run(capsys, "stabilize", str(f), "--config", "u=2",
                       "--mode", "sp")
    assert (rc, out) == (1, "")
    assert err.startswith("error[NoSink]")
    # free mode still falls back to weighted firing
    rc, payload, _ = run_json(capsys, "stabilize", rose, "--config", "v=3",
                              "--mode", "free")
    assert rc == 0
    assert payload["mode"] == "free" and payload["result"] == "v=3"


def weighted_sandpile_file(tmp_path, weight):
    """x with a loop and an edge to the sink s, both of the given weight: a
    valid sandpile graph, balanced exactly when the weight is 2."""
    f = tmp_path / f"weighted_{weight}.sg"
    f.write_text(f"vertex x\nvertex s\nedge x s w={weight}\nedge x x w={weight}\n")
    return str(f)


def test_free_mode_fires_with_the_file_weights(capsys, tmp_path):
    heavy = weighted_sandpile_file(tmp_path, 3)
    # stable under the file's weight 3, though x has out-degree 2
    rc, payload, _ = run_json(capsys, "stabilize", heavy, "--config", "x=2",
                              "--mode", "free")
    assert rc == 0
    assert (payload["result"], payload["steps"]) == ("x=2", 0)
    rc, payload, _ = run_json(capsys, "stabilize", heavy, "--config", "x=7",
                              "--mode", "free")
    assert (payload["result"], payload["odometer"]) == ("x=1,s=3", {"x": 3})
    # wmonoid reads the same weight: 3x = x + s, s = 0 gives 0, x, 2x
    assert run_json(capsys, "wmonoid", heavy)[1]["size"] == 3
    # under the step budget, where the sandpile path needs none
    rc, _, err = run(capsys, "stabilize", heavy, "--config", "x=7",
                     "--mode", "free", "--budget", "2")
    assert rc == 1 and "within 2 steps" in err
    # weights that are the out-degrees, or all one, fire budget-free
    for path, config, result in [
        (weighted_sandpile_file(tmp_path, 2), "x=4", "x=1,s=3"),
        (graph_path("g_2_3.sg"), "x=5", "x=2,s=3"),
    ]:
        rc, payload, _ = run_json(capsys, "stabilize", path, "--config", config,
                                  "--mode", "free", "--budget", "0")
        assert (rc, payload["result"]) == (0, result)
    # weights that are not the out-degrees must agree at each vertex
    mixed = tmp_path / "mixed.sg"
    mixed.write_text("vertex x\nvertex s\nedge x s w=3\nedge x x w=2\n")
    rc, out, err = run(capsys, "stabilize", str(mixed), "--config", "x=2",
                       "--mode", "free")
    assert (rc, out) == (1, "")
    assert err == "error[BadParameters]: graph is not vertex weighted\n"


def test_a_vertex_named_twice_in_a_configuration_is_refused(capsys):
    for config in ("x=5,x=3", "x=5,s=1,x=5"):
        for mode in ("sp", "free"):
            rc, out, err = run(capsys, "stabilize", graph_path("g_2_3.sg"),
                               "--config", config, "--mode", mode)
            assert (rc, out) == (1, "")
            assert err == "error[BadParameters]: two counts for vertex 'x'\n"


LOOSE_INTEGERS = ("1_2", "+12", "\u0661\u0662", "\uff11\uff12", "\u00b2")


@pytest.mark.parametrize("count", LOOSE_INTEGERS)
def test_a_count_int_would_take_loosely_is_refused(capsys, count):
    """int() takes "1_2", "+12" and non-ASCII digits; a count is ASCII
    digits after an optional minus sign."""
    config, weights = f"x={count}", f"{count},1"
    rc, out, err = run(capsys, "stabilize", graph_path("g_2_3.sg"), "--config", config)
    assert (rc, out) == (1, "")
    assert err == f"error[BadParameters]: bad count in {config!r}\n"
    rc, out, err = run(capsys, "cycle-suite", weights)
    assert (rc, out) == (1, "")
    assert err == f"error[BadParameters]: bad weights list {weights!r}\n"


def test_negative_counts_and_blanks_read_as_before(capsys):
    rc, out, err = run(capsys, "stabilize", graph_path("g_2_3.sg"),
                       "--config", "x=-1")
    assert (rc, out, err) == (1, "", "error[BadParameters]: negative count for 'x'\n")
    rc, out, err = run(capsys, "cycle-suite", "2,-1")
    assert (rc, out) == (1, "")
    assert err == ("error[BadParameters]: weights must be a nonempty list of"
                   " positive integers\n")
    rc, payload, _ = run_json(capsys, "stabilize", graph_path("g_2_3.sg"),
                              "--config", " x = 12 ")
    assert (rc, payload["result"]) == (0, "x=3")
    rc, payload, _ = run_json(capsys, "cycle-suite", " 2, 3 ")
    assert (rc, payload["weights"]) == (0, [2, 3])


@pytest.mark.parametrize("weights", ["-2,1", "2,-1", "-2", "-1,-1"])
def test_a_negative_weight_is_a_domain_error_wherever_it_stands(capsys, weights):
    # a list that starts with a minus sign is the weights, not an option
    for argv in (["cycle-suite", weights], ["cycle-suite", weights, "--json"],
                 ["cycle-suite", "--json", weights]):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (1, ""), argv
        assert err == ("error[BadParameters]: weights must be a nonempty list of"
                       " positive integers\n"), argv


def test_stabilize_budget_exhaustion(capsys, tmp_path):
    f = diverging_graph_file(tmp_path)
    rc, _, err = run(capsys, "stabilize", str(f), "--config", "u=2",
                     "--mode", "free", "--budget", "50")
    assert rc == 1
    assert "error[BudgetExhausted]" in err


def test_monoid_report(capsys):
    rc, payload, _ = run_json(capsys, "monoid", graph_path("t.sg"))
    assert rc == 0
    assert payload["size"] == 27
    assert payload["conical"] is True
    assert payload["invariant_factors"] == [8]
    assert payload["smallest_ideal_size"] == 8


def test_wmonoid_variants(capsys, tmp_path):
    balanced = tmp_path / "g_2_3_balanced.sg"
    balanced.write_text(
        "vertex x\nvertex s\n"
        "edge x x w=5\nedge x x w=5\n"
        "edge x s w=5\nedge x s w=5\nedge x s w=5\n"
    )
    rc, payload, _ = run_json(capsys, "wmonoid", str(balanced),
                              "--variant", "with-sinks")
    assert rc == 0
    assert payload["size"] == 5 and payload["inconclusive"] is False

    rc, payload, _ = run_json(capsys, "wmonoid", str(balanced),
                              "--variant", "no-sinks", "--cap", "40")
    assert rc == 1
    assert payload["inconclusive"] is True
    assert payload["partial_count"] == 40
    assert "free rank" in (payload["note"] or "")


def test_wmonoid_rose(capsys):
    rc, payload, _ = run_json(capsys, "wmonoid", graph_path("rose_1_4.sg"),
                              "--variant", "no-sinks")
    assert rc == 0
    assert payload["size"] == 4
    assert payload["cyclic_sum"] == [4]


def test_group_report(capsys):
    rc, payload, _ = run_json(capsys, "group", graph_path("t.sg"))
    assert rc == 0
    assert payload["size"] == 8
    assert payload["invariant_factors"] == [8]
    assert payload["monoid_size"] == 27
    # group enumerates nothing, so it takes no cap
    with pytest.raises(SystemExit) as info:
        main(["group", graph_path("t.sg"), "--cap", "20"])
    assert info.value.code == 2


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("command", ["monoid", "wmonoid"])
def test_cap_below_one_is_bad_parameters(capsys, command, cap):
    # 0 used to fall back to the default cap, and -1 reached the cap check
    rc, out, err = run(capsys, command, graph_path("t.sg"), "--cap", cap)
    assert rc == 1
    assert out == ""
    assert err == f"error[BadParameters]: cap must be >= 1, got {cap}\n"


def over_cap_file(tmp_path):
    """A 3-vertex graph that is not a union of cycles (18^3 = 5832
    elements), past the default cap of 4096."""
    edges = []
    for v, nxt in (("x", "y"), ("y", "z"), ("z", "s")):
        edges += [(v, v, 1)] * 2 + [(v, nxt, 1)] + [(v, "s", 1)] * 15
    path = tmp_path / "three.sg"
    path.write_text(graph_to_text(SandpileGraph(["x", "y", "z", "s"], edges, "s")),
                    encoding="utf-8")
    return str(path)


def test_only_monoid_names_the_cap_flag(capsys, tmp_path):
    three = over_cap_file(tmp_path)
    rc, out, err = run(capsys, "monoid", three)
    assert (rc, out) == (1, "")
    assert err == ("error[SizeOverBudget]: sandpile monoid has 5832 elements,"
                   " cap is 4096 (raise it with --cap)\n")
    # classify and realize have no --cap flag, so they do not name it
    for command in ("classify", "realize"):
        rc, out, err = run(capsys, command, three)
        assert (rc, out) == (1, "")
        assert err == ("error[SizeOverBudget]: sandpile monoid has 5832 elements,"
                       " cap is 4096\n")
    with pytest.raises(SystemExit) as info:
        main(["classify", three, "--cap", "20000"])
    assert info.value.code == 2


def test_k0_reports(capsys):
    rc, payload, _ = run_json(capsys, "k0", graph_path("rose_1_4.sg"))
    assert rc == 0
    assert payload["matrix"] == [[-3]]
    assert payload["invariant_factors"] == [3]

    rc, payload, _ = run_json(capsys, "k0", graph_path("t.sg"),
                              "--sandpile-group")
    assert rc == 0
    assert payload["invariant_factors"] == [8]
    assert payload["mode"] == "sandpile-group"


def test_k0_runs_one_smith_normal_form(capsys, monkeypatch):
    calls = []
    cokernel = ktheory.cokernel

    def counted(matrix):
        calls.append(matrix)
        return cokernel(matrix)

    def unused(matrix):
        raise AssertionError("k0 builds no unimodular transforms")

    monkeypatch.setattr(ktheory, "cokernel", counted)
    monkeypatch.setattr(ktheory, "smith_normal_form", unused)
    rc, payload, _ = run_json(capsys, "k0", graph_path("t.sg"), "--sandpile-group")
    assert rc == 0
    assert calls == [payload["matrix"]]
    assert payload["snf_diagonal"] == [1, 1, 8]
    assert payload["free_rank"] == 0


def test_json_mode_renders_no_text_lines(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("rendered the text report under --json")

    monkeypatch.setattr(ktheory, "matrix_to_lines", refuse)
    monkeypatch.setattr(cli, "_monoid_lines", refuse)
    monkeypatch.setattr(cli, "_realize_lines", refuse)
    for argv, code in ((["k0", graph_path("t.sg"), "--sandpile-group"], 0),
                       (["k0", graph_path("t.sg")], 0),
                       (["monoid", graph_path("t.sg")], 0),
                       (["wmonoid", graph_path("g_2_3.sg")], 0),
                       (["wmonoid", graph_path("t.sg")], 1),  # inconclusive
                       (["realize", graph_path("t.sg")], 0)):
        rc, _, _ = run_json(capsys, *argv)
        assert rc == code


# keys and strings with quotes, backslashes, control and non-ASCII characters
JSON_TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001d11e'), st.characters()))
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2 ** 64),
    st.integers(max_value=-2 ** 64), st.floats(), JSON_TEXT,
)
# lists of ints, and lists where bools and None sit among the ints
INT_LISTS = st.one_of(st.lists(st.integers()),
                      st.lists(st.one_of(st.integers(), st.booleans(), st.none())))
JSON_PAYLOADS = st.recursive(
    st.one_of(JSON_LEAVES, INT_LISTS, INT_LISTS.map(tuple)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(JSON_TEXT, inner, max_size=4),
        st.dictionaries(st.integers(), inner, max_size=2),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(JSON_PAYLOADS)
def test_render_json_is_json_dumps_byte_for_byte(payload):
    assert cli.render_json(payload) == json.dumps(payload, indent=2, sort_keys=True)


def test_stabilize_renders_the_result_once(capsys, monkeypatch):
    calls = []
    config_to_str = rewrite.config_to_str

    def counted(g, c):
        calls.append(c)
        return config_to_str(g, c)

    monkeypatch.setattr(rewrite, "config_to_str", counted)
    for json_flag in ([], ["--json"]):
        calls.clear()
        rc, out, _ = run(capsys, "stabilize", graph_path("g_2_3.sg"),
                         "--config", "x=12", *json_flag)
        assert rc == 0 and "x=3" in out
        assert len(calls) == 1


def test_check_decides_reduced_once(capsys, monkeypatch):
    calls = []
    is_reduced = SandpileGraph.is_reduced

    def counted(g):
        calls.append(g)
        return is_reduced(g)

    monkeypatch.setattr(SandpileGraph, "is_reduced", counted)
    for json_flag in ([], ["--json"]):
        calls.clear()
        assert run(capsys, "check", graph_path("t.sg"), *json_flag)[0] == 0
        assert len(calls) == 1


def test_realize_report(capsys):
    rc, payload, _ = run_json(capsys, "realize", graph_path("g_2_3.sg"))
    assert rc == 0
    assert payload["ok"] is True
    assert payload["sp_size"] == 5
    assert payload["k0"]["invariant_factors"] == [3]
    rc, out, _ = run(capsys, "realize", graph_path("g_2_3.sg"))
    assert rc == 0
    assert "overall: OK" in out


def test_realize_needs_a_graph_file(tmp_path):
    for argv in (["realize"], ["realize", "--golden", str(tmp_path)]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_classify_report(capsys):
    rc, payload, _ = run_json(capsys, "classify", graph_path("cycle_2_2_1.sg"))
    assert rc == 0
    assert payload["refinement"] is True
    assert payload["class_orders"] == [4]
    assert payload["cyclic_sum"] == [4]

    rc, payload, _ = run_json(capsys, "classify", graph_path("g_2_3.sg"))
    assert rc == 0
    assert payload["refinement"] is False
    assert payload["witness"] is not None


def count_sandpile_enumerations(monkeypatch):
    """Count enumerate_sandpile_monoid calls from the CLI and realize."""
    calls = []
    real = monoid.enumerate_sandpile_monoid

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(monoid, "enumerate_sandpile_monoid", counted)
    monkeypatch.setattr(realize, "enumerate_sandpile_monoid", counted)
    return calls


def test_classify_enumerates_the_monoid_once(capsys, monkeypatch, tmp_path):
    """A union of cycles is classified from the graph alone; any other
    graph is enumerated and searched once, for the witness."""
    calls = count_sandpile_enumerations(monkeypatch)
    searches = []
    real_search = realize.is_refinement
    monkeypatch.setattr(realize, "is_refinement",
                        lambda M: searches.append(M) or real_search(M))
    paths = [graph_path(name) for name in ("cycle_2_2_1.sg", "g_2_3.sg", "t.sg",
                                           "prime_z5.sg")]
    for i, g in enumerate(random_sandpile_corpus(count=30)):
        path = tmp_path / f"corpus_{i}.sg"
        path.write_text(graph_to_text(g), encoding="utf-8")
        paths.append(str(path))
    outcomes = []
    for path in paths:
        del calls[:], searches[:]
        rc, out, err = run(capsys, "classify", path, "--json")
        outcomes.append(rc)
        if rc == 0:
            refinement = json.loads(out)["refinement"]
            outcomes[-1] = refinement
            assert len(calls) == len(searches) == (0 if refinement else 1), path
        else:
            # NotReduced and NotConical come before any enumeration
            assert err.startswith(("error[NotConical]", "error[NotReduced]")), err
            assert calls == searches == [], path
    assert outcomes[:4] == [True, False, False, 1]
    assert outcomes.count(True) >= 3 and outcomes.count(False) >= 10


def test_prime_report(capsys, tmp_path):
    rc, payload, _ = run_json(capsys, "prime", graph_path("prime_z5.sg"))
    assert rc == 0
    assert payload["case"] == "cyclic_group" and payload["size"] == 5

    rc, payload, _ = run_json(capsys, "prime", graph_path("g_2_3.sg"))
    assert rc == 0
    assert payload["case"] == "monogenic"
    assert payload["loops"] == 2 and payload["sink_edges"] == 3

    # past the sandpile cap of 4096: prime has no cap
    path = tmp_path / "prime_5003.sg"
    path.write_text(graph_to_text(loop_sink_graph(1, 5002)), encoding="utf-8")
    rc, payload, _ = run_json(capsys, "prime", str(path))
    assert rc == 0
    assert payload == {"report": "prime", "case": "monogenic", "size": 5003,
                       "loops": 1, "sink_edges": 5002}


def test_cycle_suite_report(capsys):
    rc, payload, _ = run_json(capsys, "cycle-suite", "2,2,1")
    assert rc == 0
    assert payload["ok"] is True and payload["order"] == 4

    rc, _, err = run(capsys, "cycle-suite", "1,1")
    assert rc == 1
    assert "error[BadParameters]" in err

    # C_10000, past every enumeration cap: cycle-suite has no cap
    rc, payload, _ = run_json(capsys, "cycle-suite", "100,100")
    assert rc == 0
    assert payload["ok"] is True and payload["order"] == 10000
    assert set(payload["sizes"].values()) == {10000}


def test_export_dot(capsys):
    rc, out, _ = run(capsys, "export-dot", graph_path("g_2_3.sg"))
    assert rc == 0
    assert out.startswith("digraph")
    assert '"s" [peripheries=2];' in out


DOT_ID = r'"(?:[^"\\]|\\.)*"'


def test_export_dot_escapes_the_vertex_names(capsys, tmp_path):
    names = ['a"b', "c\\d", 'e\\"f\\', '"', "s"]
    path = tmp_path / "quoted.sg"
    path.write_text("".join(f"vertex {name}\n" for name in names)
                    + "".join(f"edge {name} s\n" for name in names[:-1]),
                    encoding="utf-8")
    rc, out, _ = run(capsys, "export-dot", str(path))
    assert rc == 0
    lines = out.splitlines()
    assert (lines[0], lines[-1]) == ("digraph G {", "}")
    vertices = [re.fullmatch(rf"  ({DOT_ID})( \[peripheries=2\])?;", line)
                for line in lines[1:6]]
    edges = [re.fullmatch(rf"  ({DOT_ID}) -> ({DOT_ID});", line) for line in lines[6:-1]]
    assert all(vertices) and all(edges) and len(edges) == 4

    def unescape(token):
        return re.sub(r"\\(.)", r"\1", token[1:-1])

    assert [unescape(m[1]) for m in vertices] == names
    assert [bool(m[2]) for m in vertices] == [False] * 4 + [True]
    assert [(unescape(m[1]), unescape(m[2])) for m in edges] == [
        (name, "s") for name in names[:-1]]


def test_export_dot_draws_the_file_weights(capsys, tmp_path):
    rc, out, _ = run(capsys, "export-dot", weighted_sandpile_file(tmp_path, 3))
    assert rc == 0
    assert out == (
        'digraph G {\n  "x";\n  "s" [peripheries=2];\n'
        '  "x" -> "s" [label="w=3"];\n  "x" -> "x" [label="w=3"];\n}\n'
    )
    # unit edges stay unlabelled; a graph with no sink has no double border
    rc, out, _ = run(capsys, "export-dot", graph_path("g_2_3.sg"))
    assert "label" not in out and out.count(" -> ") == 5
    rc, out, _ = run(capsys, "export-dot", graph_path("rose_1_4.sg"))
    assert rc == 0 and "peripheries" not in out and '[label="w=4"]' in out


def test_bad_budgets_are_rejected(capsys, tmp_path):
    f = diverging_graph_file(tmp_path)
    rc, _, err = run(capsys, "stabilize", str(f), "--config", "u=2",
                     "--mode", "free", "--budget", "3")
    assert rc == 1
    assert "within 3 steps" in err
    rc, out, err = run(capsys, "stabilize", str(f), "--config", "u=2",
                       "--mode", "free", "--budget", "-2")
    assert (rc, out) == (1, "")
    assert err.startswith("error[BadParameters]")


def test_the_budget_environment_variable_is_not_read(capsys, monkeypatch):
    argvs = [["stabilize", graph_path("g_2_3.sg"), "--config", "x=5"],
             ["stabilize", graph_path("rose_1_4.sg"), "--config", "v=9",
              "--mode", "free"]]
    monkeypatch.delenv("SANDMON_BUDGET", raising=False)
    expected = [run(capsys, *argv) for argv in argvs]
    assert [rc for rc, _, _ in expected] == [0, 0]
    for env in ("lots", "1"):
        monkeypatch.setenv("SANDMON_BUDGET", env)
        assert [run(capsys, *argv) for argv in argvs] == expected


def test_seed_option_is_gone(capsys):
    for argv in (["check", graph_path("g_2_3.sg")], ["cycle-suite", "2,2,1"],
                 ["realize", graph_path("g_2_3.sg")]):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--seed", "1"])
        assert info.value.code == 2


def test_byte_identical_reruns(capsys):
    first = run_json(capsys, "realize", graph_path("t.sg"))
    second = run_json(capsys, "realize", graph_path("t.sg"))
    assert first == second
    a = run(capsys, "monoid", graph_path("cycle_2_2_1.sg"), "--json")
    b = run(capsys, "monoid", graph_path("cycle_2_2_1.sg"), "--json")
    assert a == b


def test_parser_is_built_once():
    assert build_parser() is build_parser()
    # --help comes from the shared parser and matches a fresh build
    assert build_parser().format_help() == build_parser.__wrapped__().format_help()


def recorded_calls(monkeypatch, *names):
    """Replace cmd_<name> with a recorder of its parsed arguments."""
    calls = []
    for name in names:
        def record(args, name=name):
            calls.append((name, dict(vars(args))))
            return 0
        monkeypatch.setattr(cli, f"cmd_{name}", record)
    return calls


def test_parser_keeps_no_state_between_calls(monkeypatch):
    calls = recorded_calls(monkeypatch, "wmonoid", "stabilize")
    path = graph_path("rose_1_4.sg")
    main(["wmonoid", path, "--variant", "no-sinks", "--cap", "7", "--json"])
    main(["stabilize", path, "--config", "v=3", "--mode", "free", "--budget", "2"])
    main(["wmonoid", path])
    main(["stabilize", path, "--config", "v=1"])
    assert calls == [
        ("wmonoid", {"command": "wmonoid", "graph": path, "variant": "no-sinks",
                     "cap": 7, "json": True}),
        ("stabilize", {"command": "stabilize", "graph": path, "config": "v=3",
                       "mode": "free", "budget": 2, "json": False}),
        ("wmonoid", {"command": "wmonoid", "graph": path, "variant": "with-sinks",
                     "cap": None, "json": False}),
        ("stabilize", {"command": "stabilize", "graph": path, "config": "v=1",
                       "mode": "sp", "budget": None, "json": False}),
    ]


def test_main_calls_the_current_command_functions(capsys, monkeypatch):
    # build the parser first, so that it exists before the rebinding
    assert run(capsys, "check", graph_path("g_2_3.sg"))[0] == 0
    calls = recorded_calls(monkeypatch, "check", "cycle_suite", "export_dot")
    assert main(["check", graph_path("g_2_3.sg")]) == 0
    assert main(["cycle-suite", "2,2,1"]) == 0
    assert main(["export-dot", graph_path("g_2_3.sg")]) == 0
    assert [name for name, _ in calls] == ["check", "cycle_suite", "export_dot"]
    assert capsys.readouterr().out == ""
