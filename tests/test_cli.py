import json
from pathlib import Path

import jsonschema
import pytest

from sandmon import cli, ktheory, monoid, realize, rewrite
from sandmon.cli import build_parser, main
from sandmon.graph import SandpileGraph, graph_to_text
from sandmon.realize import named_examples, random_sandpile_corpus, realization

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "src" / "sandmon" / "report.schema.json")
    .read_text(encoding="utf-8")
)
GRAPHS = Path(__file__).resolve().parent.parent / "graphs"
GOLDEN = Path(__file__).resolve().parent / "golden"


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


def test_realize_golden_round_trip(capsys, tmp_path):
    golden = tmp_path / "golden"
    rc, out, _ = run(capsys, "realize", "--golden", str(golden))
    assert rc == 0
    assert out.count("wrote") == 5
    rc, out, _ = run(capsys, "realize", "--golden", str(golden))
    assert rc == 0
    assert out.count("ok") == 5
    # corrupt one stored report and expect a mismatch
    victim = golden / "t.json"
    data = json.loads(victim.read_text())
    data["sp_size"] = 1
    victim.write_text(json.dumps(data))
    rc, out, _ = run(capsys, "realize", "--golden", str(golden))
    assert rc == 1
    assert "mismatch t" in out


def test_realize_reports_match_the_committed_golden_files(capsys):
    names = sorted(named_examples())
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == names
    rc, out, _ = run(capsys, "realize", "--golden", str(GOLDEN))
    assert rc == 0
    assert out.splitlines() == [f"ok {name}" for name in names]
    # byte for byte, not only as parsed JSON
    for name, g in named_examples().items():
        report = realization(g, name=name).to_json()
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert (GOLDEN / f"{name}.json").read_text(encoding="utf-8") == text, name


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
    calls = count_sandpile_enumerations(monkeypatch)
    paths = [graph_path(name) for name in ("cycle_2_2_1.sg", "g_2_3.sg", "t.sg",
                                           "prime_z5.sg")]
    for i, g in enumerate(random_sandpile_corpus(count=30)):
        path = tmp_path / f"corpus_{i}.sg"
        path.write_text(graph_to_text(g), encoding="utf-8")
        paths.append(str(path))
    outcomes = []
    for path in paths:
        del calls[:]
        rc, _, err = run(capsys, "classify", path, "--json")
        outcomes.append(rc)
        if rc == 0:
            assert len(calls) == 1, path
        else:
            # NotReduced and NotConical come before any enumeration
            assert err.startswith(("error[NotConical]", "error[NotReduced]")), err
            assert calls == [], path
    assert outcomes[3] == 1 and outcomes.count(0) >= 10


def test_prime_report(capsys):
    rc, payload, _ = run_json(capsys, "prime", graph_path("prime_z5.sg"))
    assert rc == 0
    assert payload["case"] == "cyclic_group" and payload["size"] == 5

    rc, payload, _ = run_json(capsys, "prime", graph_path("g_2_3.sg"))
    assert rc == 0
    assert payload["case"] == "monogenic"
    assert payload["loops"] == 2 and payload["sink_edges"] == 3


def test_cycle_suite_report(capsys):
    rc, payload, _ = run_json(capsys, "cycle-suite", "2,2,1")
    assert rc == 0
    assert payload["ok"] is True and payload["order"] == 4

    rc, _, err = run(capsys, "cycle-suite", "1,1")
    assert rc == 1
    assert "error[BadParameters]" in err


def test_export_dot(capsys):
    rc, out, _ = run(capsys, "export-dot", graph_path("g_2_3.sg"))
    assert rc == 0
    assert out.startswith("digraph")
    assert '"s" [peripheries=2];' in out


def test_budget_env_override(capsys, monkeypatch, tmp_path):
    f = diverging_graph_file(tmp_path)
    monkeypatch.setenv("SANDMON_BUDGET", "7")
    rc, _, err = run(capsys, "stabilize", str(f), "--config", "u=2",
                     "--mode", "free")
    assert rc == 1
    assert "within 7 steps" in err


def test_bad_budgets_are_rejected(capsys, monkeypatch, tmp_path):
    f = diverging_graph_file(tmp_path)
    for env in ("lots", "1e3", "-1"):
        monkeypatch.setenv("SANDMON_BUDGET", env)
        rc, out, err = run(capsys, "stabilize", str(f), "--config", "u=2",
                           "--mode", "free")
        assert (rc, out) == (1, "")
        assert err.startswith("error[BadParameters]"), env
        # on a sandpile graph the budget is unused, but still checked
        rc, out, err = run(capsys, "stabilize", graph_path("g_2_3.sg"),
                           "--config", "x=5")
        assert (rc, out) == (1, "")
        assert err.startswith("error[BadParameters]"), env
    # --budget wins over the environment, and is checked the same way
    rc, _, err = run(capsys, "stabilize", str(f), "--config", "u=2",
                     "--mode", "free", "--budget", "3")
    assert rc == 1
    assert "within 3 steps" in err
    monkeypatch.delenv("SANDMON_BUDGET")
    rc, out, err = run(capsys, "stabilize", str(f), "--config", "u=2",
                       "--mode", "free", "--budget", "-2")
    assert (rc, out) == (1, "")
    assert err.startswith("error[BadParameters]")


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
