import os
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest

from sandmon import errors, ktheory, monoid, realize
from sandmon.cli import main
from sandmon.graph import (
    WeightedDigraph,
    loop_sink_graph,
    non_cycle_vertices,
    quotient_graph,
    reduce_graph,
    validate_sandpile,
)
from sandmon.ktheory import sandpile_k0_matrix
from sandmon.monoid import (
    AbelianGroupInvariants,
    _induced_map,
    classify_cyclic_sum,
    enumerate_sandpile_monoid,
    enumerate_weighted_monoid,
    is_refinement,
    quotient_by_submonoid,
    units,
)
from sandmon.realize import (
    RefinementStructure,
    conicality_report,
    cycle_suite,
    prime_order_case,
    realization,
    refinement_structure,
)

from reference import (
    cyclic_group_monoid,
    graph_to_text,
    make_t_graph,
    multi_cycle_sandpile,
    named_examples,
    random_sandpile_corpus,
)


TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
GRAPHS = Path(__file__).resolve().parent.parent / "graphs"


def zp_graph(p):
    return validate_sandpile(WeightedDigraph(["x", "s"], [("x", "s", 1)] * p))


def test_conicality_report():
    ok, witnesses = conicality_report(loop_sink_graph(2, 3))
    assert ok and witnesses == []
    ok, witnesses = conicality_report(zp_graph(5))
    assert not ok and witnesses == ["x"]
    # acyclic chain: every vertex drains through a single edge
    chain = validate_sandpile(WeightedDigraph(
        ["a", "b", "s"], [("a", "b", 1), ("b", "s", 1)]
    ))
    ok, witnesses = conicality_report(chain)
    assert ok and witnesses == []


def test_realization_loop_sink():
    report = realization(loop_sink_graph(2, 3), name="g_2_3")
    assert report.ok
    assert report.conical
    assert report.sp_size == 5 and report.v_monoid_size == 5
    assert report.compared == "sandpile_monoid"
    assert report.isomorphism is not None
    assert report.k0 == AbelianGroupInvariants((3,), 0)
    assert report.sandpile_group == AbelianGroupInvariants((3,), 0)
    payload = report.to_json()
    assert payload["ok"] is True
    assert payload["verdicts"]["k0_matches_sandpile_group"] is True


def test_realization_t_graph():
    report = realization(make_t_graph())
    assert report.ok
    assert report.sp_size == 27 and report.v_monoid_size == 27
    assert report.k0 == report.sandpile_group == AbelianGroupInvariants((8,), 0)


def test_realization_non_conical():
    report = realization(zp_graph(5))
    assert not report.conical
    assert report.compared == "sandpile_monoid_mod_units"
    # the whole monoid is a group, so the quotient and the empty-graph
    # presentation are both trivial
    assert report.v_monoid_size == 1
    assert report.ok
    assert "k0_matches_sandpile_group" not in report.verdicts


def test_realization_sink_only():
    report = realization(validate_sandpile(WeightedDigraph(["s"], [])))
    assert report.ok
    assert report.sp_size == 1 and report.v_monoid_size == 1


def realization_sides(g):
    """The two tables that ``realization`` compares: the sandpile monoid
    (modulo its units when g is not conical) and the presentation monoid of
    the quotient by the no-cycle set."""
    sp = enumerate_sandpile_monoid(g)
    if conicality_report(g)[0]:
        left = sp
    else:
        left = quotient_by_submonoid(sp, units(sp))
    q = quotient_graph(g, non_cycle_vertices(g))
    return left, enumerate_weighted_monoid(q, sink_relations=False)


def test_realization_map_is_an_isomorphism_and_so_is_the_generator_map():
    graphs = random_sandpile_corpus() + list(named_examples().values())
    for g in graphs:
        report = realization(g)
        assert report.ok, g.names
        left, vm = realization_sides(g)
        iso = report.isomorphism
        # a bijection between the two element sets
        assert sorted(iso) == sorted(left.labels)
        assert sorted(iso.values()) == sorted(vm.labels)
        # that respects addition
        image = [vm.labels.index(iso[label]) for label in left.labels]
        for x in range(len(left)):
            for y in range(len(left)):
                assert image[left.add[x][y]] == vm.add[image[x]][image[y]]
        # the paper's map, v -> v off the no-cycle set and v -> 0 on it,
        # is an isomorphism as well
        pairs = [(x, vm.generators.get(name, vm.zero))
                 for name, x in left.generators.items()]
        phi = _induced_map(left, vm, pairs)
        assert phi is not None and len(phi) == len(left) == len(vm), g.names


def test_a_non_isomorphic_presentation_table_fails_the_realization(monkeypatch, capsys):
    def cyclic_group(q, **kwargs):
        # a cyclic group of the same size: no sandpile side here is a group
        vm = enumerate_weighted_monoid(q, **kwargs)
        return cyclic_group_monoid(len(vm))

    monkeypatch.setattr(realize, "enumerate_weighted_monoid", cyclic_group)
    for name in ("g_2_3", "t"):
        report = realization(named_examples()[name])
        assert report.verdicts["realization_isomorphism"] is False, name
        assert report.isomorphism is None and not report.ok
    assert main(["realize", str(GRAPHS / "g_2_3.sg")]) == 1
    out = capsys.readouterr().out
    assert "verdict realization_isomorphism: FAILED" in out
    assert out.endswith("overall: FAILED\n")


def test_the_reduced_laplacian_route_can_fail(monkeypatch, capsys):
    monkeypatch.setattr(realize, "reduced_laplacian", lambda g: [[7]])
    for name, g in named_examples().items():
        report = realization(g, name=name)
        assert report.verdicts["completion_matches_smallest_ideal"] is False, name
        assert report.verdicts["realization_isomorphism"] is True
    assert main(["realize", str(GRAPHS / "t.sg")]) == 1
    out = capsys.readouterr().out
    assert "verdict completion_matches_smallest_ideal: FAILED" in out


def test_refinement_structure_cycle_companion():
    from sandmon.graph import cycle_companion_sandpile

    g = cycle_companion_sandpile([2, 2, 1])
    # weight one at v3 leaves it irrelevant; the partition is only extracted
    # from reduced graphs
    with pytest.raises(errors.NotReduced):
        refinement_structure(g)
    r = reduce_graph(g)
    structure, witness = refinement_structure(r)
    assert witness is None
    assert structure is not None
    assert structure.classes == [["v1", "v2"]]
    assert structure.orders == [4]
    assert classify_cyclic_sum(enumerate_sandpile_monoid(g)) == [4]
    assert classify_cyclic_sum(enumerate_sandpile_monoid(r)) == [4]


def test_refinement_structure_failure_witness():
    structure, witness = refinement_structure(loop_sink_graph(2, 3))
    assert structure is None
    assert witness is not None and len(witness) == 4


def test_refinement_structure_multi_cycle_round_trip():
    g = multi_cycle_sandpile([[2, 2], [3, 2, 2]])
    structure, witness = refinement_structure(g)
    assert witness is None
    assert [sorted(cls) for cls in structure.classes] == [
        ["c0v1", "c0v2"], ["c1v1", "c1v2", "c1v3"]
    ]
    assert sorted(structure.orders) == [4, 12]
    assert classify_cyclic_sum(enumerate_sandpile_monoid(g)) == [4, 12]


def test_refinement_structure_preconditions():
    chain = validate_sandpile(WeightedDigraph(
        ["a", "b", "s"], [("a", "b", 1), ("b", "s", 1)]
    ))
    with pytest.raises(errors.NotReduced):
        refinement_structure(chain)
    with pytest.raises(errors.NotConical):
        refinement_structure(zp_graph(3))


def test_refinement_structure_preconditions_come_before_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated")

    monkeypatch.setattr(realize, "enumerate_sandpile_monoid", refuse)
    chain = validate_sandpile(WeightedDigraph(
        ["a", "b", "s"], [("a", "b", 1), ("b", "s", 1)]
    ))
    with pytest.raises(errors.NotReduced):
        refinement_structure(chain)
    with pytest.raises(errors.NotConical):
        refinement_structure(zp_graph(3))


def reference_classification(g):
    """The table route ``classify`` took before it read the cycles off the
    graph: enumerate SP(G), decide refinement by the exhaustive search, read
    the cycle classes off a refinement graph, and classify the table as a
    sum of cyclic monoids.  Returns (structure, witness, cyclic sum)."""
    sp = enumerate_sandpile_monoid(g)
    ok, witness = is_refinement(sp)
    cyclic = classify_cyclic_sum(sp)
    if not ok:
        return None, tuple(sp.labels[w] for w in witness), cyclic
    successor = {}
    for v in g.non_sink_vertices():
        (successor[v],) = [t for t in g.out_targets[v] if t != g.sink]
    assert sorted(successor.values()) == sorted(successor)
    classes = []
    seen = set()
    for v in sorted(successor):
        if v in seen:
            continue
        cycle = [v]
        seen.add(v)
        u = successor[v]
        while u != v:
            cycle.append(u)
            seen.add(u)
            u = successor[u]
        classes.append(cycle)
    structure = RefinementStructure(
        classes=[[g.names[v] for v in cycle] for cycle in classes],
        orders=[prod(g.out_degree(v) for v in cycle) for cycle in classes],
    )
    return structure, None, cyclic


# unions of cycles up to 1024 elements, the largest the table route took 4 s on
CYCLE_UNIONS = ([[2]], [[3], [2]], [[2, 2], [3, 2, 2]], [[4, 4], [2, 4], [3]],
                [[2, 2, 2], [4, 2, 2]], [[8], [2, 2, 2, 2]], [[4, 4, 4], [4, 4]])


def classify_inputs():
    """Reduced conical graphs: two seeded corpora, the cycle unions and the
    named examples."""
    graphs = [*random_sandpile_corpus(count=120, seed=53),
              *random_sandpile_corpus(count=120, seed=2),
              *map(multi_cycle_sandpile, CYCLE_UNIONS),
              *named_examples().values()]
    for g in graphs:
        r = reduce_graph(g)
        if conicality_report(r)[0]:
            yield r


def test_refinement_structure_matches_the_table_route():
    verdicts = []
    for g in classify_inputs():
        structure, witness = refinement_structure(g)
        ref_structure, ref_witness, ref_cyclic = reference_classification(g)
        assert structure == ref_structure, g.names
        assert witness == ref_witness, g.names
        assert (sorted(structure.orders) if structure else None) == ref_cyclic
        verdicts.append(structure is not None)
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20


def test_classify_reports_a_cycle_union_past_the_cap(capsys, tmp_path):
    g = multi_cycle_sandpile([[5] * 8, [3] * 7])
    # the table route stops at the cap: 5**8 * 3**7, about 8.5 * 10**8 elements
    with pytest.raises(errors.SizeOverBudget):
        enumerate_sandpile_monoid(g)
    path = tmp_path / "union.sg"
    path.write_text(graph_to_text(g), encoding="utf-8")
    assert main(["classify", str(path)]) == 0
    assert capsys.readouterr().out == (
        "refinement: True\n"
        "class {c0v1, c0v2, c0v3, c0v4, c0v5, c0v6, c0v7, c0v8} -> C390625\n"
        "class {c1v1, c1v2, c1v3, c1v4, c1v5, c1v6, c1v7} -> C2187\n"
        "cyclic sum: C2187 + C390625\n"
    )


def test_the_cycle_union_certificate_can_fail(monkeypatch, capsys):
    monkeypatch.setattr(realize, "cokernel", lambda A: AbelianGroupInvariants((7,)))
    for classes in CYCLE_UNIONS:
        with pytest.raises(errors.CertificateFailed, match="reduced Laplacian"):
            refinement_structure(multi_cycle_sandpile(classes))
    assert main(["classify", str(GRAPHS / "cycle_2_2_1.sg")]) == 1
    assert capsys.readouterr().err.startswith("error[CertificateFailed]")
    # graphs that are no union of cycles do not read the cokernel
    assert refinement_structure(loop_sink_graph(2, 3))[0] is None


def test_the_cycle_union_certificate_runs_without_asserts():
    code = (
        "from sandmon import errors, realize\n"
        "from sandmon.monoid import AbelianGroupInvariants\n"
        "from reference import multi_cycle_sandpile\n"
        "realize.cokernel = lambda A: AbelianGroupInvariants((7,))\n"
        "try:\n"
        "    realize.refinement_structure(multi_cycle_sandpile([[2, 2], [3]]))\n"
        "except errors.CertificateFailed as exc:\n"
        "    print(exc)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), str(TESTS),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), check=True, timeout=120,
    )
    assert out.stdout == (
        "the reduced Laplacian's cokernel is Z/7, not Z/6 as the cycle orders"
        " [4, 3] give\n"
    )


# Graphs whose monoid is not refinement, so that the cycle structure checks
# are reached only with is_refinement stubbed to say it is: the t graph sends
# two edges from u away from the sink; in the other graph a and b both send
# their one edge away from the sink to b, which is no permutation.
STRUCTURE_FAILURES = {
    "t": ("make_t_graph()", "sends 2 edges from u away from the sink"),
    "merge": (
        "validate_sandpile(WeightedDigraph(['a', 'b', 's'], [('a', 'b', 1),"
        " ('a', 's', 1), ('b', 'b', 1), ('b', 's', 1)]))",
        "do not permute the non-sink vertices",
    ),
}


@pytest.mark.parametrize("name", sorted(STRUCTURE_FAILURES))
def test_refinement_structure_checks_run_without_asserts(name):
    graph, message = STRUCTURE_FAILURES[name]
    code = (
        "from sandmon import errors, realize\n"
        "from sandmon.graph import WeightedDigraph, validate_sandpile\n"
        "from reference import make_t_graph\n"
        "realize.is_refinement = lambda M: (True, None)\n"
        f"g = {graph}\n"
        "try:\n"
        "    realize.refinement_structure(g)\n"
        "except errors.CertificateFailed as exc:\n"
        "    print(exc)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), str(TESTS),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), check=True, timeout=120,
    )
    assert message in out.stdout


def test_prime_order_case_grid():
    for p in (2, 3, 5, 7):
        case = prime_order_case(zp_graph(p))
        assert case.kind == "cyclic_group"
        assert case.size == p and case.loops == 0 and case.sink_edges == p
        for l in range(1, p):
            case = prime_order_case(loop_sink_graph(p - l, l))
            assert case.kind == "monogenic"
            assert case.size == p
            assert case.loops == p - l and case.sink_edges == l


def test_prime_order_case_composite_and_unreduced():
    case = prime_order_case(loop_sink_graph(2, 2))
    assert case.kind == "not_prime" and case.size == 4
    # irrelevant vertex in front of a prime core gets reduced away first
    g = validate_sandpile(WeightedDigraph(
        ["w", "x", "s"],
        [("w", "x", 1), ("x", "x", 1), ("x", "x", 1), ("x", "s", 1)],
    ))
    case = prime_order_case(g)
    assert case.kind == "monogenic" and case.size == 3 and case.loops == 2


def refuse_tables(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a monoid table was built")

    monkeypatch.setattr(monoid, "_closure_monoid", refuse)


def test_prime_order_case_builds_no_table_at_any_p(monkeypatch):
    """The relation p x = l x is read off the graph and checked by one
    stabilisation, also past the enumeration cap of 4096."""
    refuse_tables(monkeypatch)
    for p in (4099, 5003):
        case = prime_order_case(zp_graph(p))
        assert (case.kind, case.size, case.loops, case.sink_edges) == (
            "cyclic_group", p, 0, p)
        case = prime_order_case(loop_sink_graph(1, p - 1))
        assert (case.kind, case.size, case.loops, case.sink_edges) == (
            "monogenic", p, 1, p - 1)


def test_cycle_suite_weights_221():
    report = cycle_suite([2, 2, 1])
    assert report.ok
    assert report.order == 4
    assert set(report.sizes.values()) == {4}


def test_cycle_suite_other_weights():
    report = cycle_suite([3, 2])
    assert report.ok and report.order == 6
    report = cycle_suite([4])
    assert report.ok and report.order == 4


def test_cycle_suite_refuses_non_integer_weights():
    for weights in ([2.9, 2], [2, 2.0], ["2", 2]):
        with pytest.raises(errors.BadParameters) as info:
            cycle_suite(weights)
        assert "weight must be an integer" in str(info.value)


def test_cycle_suite_rejects_all_ones():
    with pytest.raises(errors.BadParameters):
        cycle_suite([1, 1, 1])
    with pytest.raises(errors.BadParameters):
        cycle_suite([])


def test_cycle_suite_builds_no_table(monkeypatch):
    refuse_tables(monkeypatch)
    for weights in ([2, 2, 1], [8, 8, 8, 8], [100, 100]):
        report = cycle_suite(weights)
        assert report.ok and report.order == prod(weights)
        assert set(report.sizes.values()) == {prod(weights)}


def corrupt_cokernel(monkeypatch, k):
    """Make the k-th call of ``realize.cokernel`` answer a group that no
    cycle suite expects; returns the list of calls made."""
    calls = []

    def cokernel(matrix):
        calls.append(matrix)
        if len(calls) - 1 == k:
            return AbelianGroupInvariants((7,), free_rank=1)
        return ktheory.cokernel(matrix)

    monkeypatch.setattr(realize, "cokernel", cokernel)
    return calls


def test_each_cycle_suite_cokernel_is_a_check_that_can_fail(monkeypatch, capsys):
    """On the k0 matrices of the weighted cycle and the unweighted companion
    a wrong cokernel turns that verdict false and the CLI exits 1; on the
    sandpile companion's reduced Laplacian the cycle certificate raises
    CertificateFailed."""
    calls = corrupt_cokernel(monkeypatch, None)
    assert cycle_suite([2, 2, 1]).ok
    falsified = []
    for k in range(len(calls)):
        corrupt_cokernel(monkeypatch, k)
        try:
            report = cycle_suite([2, 2, 1])
        except errors.CertificateFailed:
            falsified.append("laplacian")
            continue
        falsified += [key for key, ok in report.isomorphic.items() if not ok]
        corrupt_cokernel(monkeypatch, k)
        assert main(["cycle-suite", "2,2,1"]) == 1
        assert capsys.readouterr().out.endswith("all isomorphic to C4: False\n")
    assert sorted(falsified) == ["laplacian", "unweighted_companion", "weighted_cycle"]


CYCLE_SUITE_CORRUPTION = (
    "from sandmon import realize\n"
    "from sandmon.monoid import AbelianGroupInvariants\n"
    "realize.cokernel = lambda matrix: AbelianGroupInvariants((7,))\n"
    "realize.refinement_structure = (\n"
    "    lambda g: (realize.RefinementStructure([['v1', 'v2']], [5]), None))\n"
    "print(realize.cycle_suite([2, 2, 1]).isomorphic)\n"
)


def test_cycle_suite_verdicts_can_fail_without_asserts():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", CYCLE_SUITE_CORRUPTION], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=path), check=True, timeout=120,
    )
    assert out.stdout == ("{'weighted_cycle': False, 'unweighted_companion': False,"
                          " 'sandpile_companion': False}\n")


def test_prime_conical_iff_loops():
    for p in (3, 5):
        sp = enumerate_sandpile_monoid(zp_graph(p))
        assert units(sp) == list(range(p))
        ok, _ = conicality_report(zp_graph(p))
        assert not ok


def test_k0_route_on_conical_corpus_members():
    for g in random_sandpile_corpus(count=25, seed=17):
        conical, _ = conicality_report(g)
        if not conical:
            with pytest.raises(errors.NotConical):
                sandpile_k0_matrix(g)
            continue
        report = realization(reduce_graph(g))
        assert report.ok


def test_corpus_group_iff_acyclic():
    from sandmon.graph import non_cycle_vertices

    for g in random_sandpile_corpus(count=60, seed=31):
        sp = enumerate_sandpile_monoid(g)
        is_group = units(sp) == list(range(len(sp)))
        acyclic = len(non_cycle_vertices(g)) == g.n_vertices
        assert is_group == acyclic


def test_corpus_refinement_structure_matches_cyclic_sum():
    seen_some = 0
    for g in random_sandpile_corpus(count=80, seed=53):
        r = reduce_graph(g)
        conical, _ = conicality_report(r)
        if not conical or len(r.names) == 1:
            continue
        structure, witness = refinement_structure(r)
        classified = classify_cyclic_sum(enumerate_sandpile_monoid(r))
        if structure is None:
            assert classified is None
        else:
            assert witness is None
            assert classified == sorted(structure.orders)
            seen_some += 1
    assert seen_some >= 1


def test_corpus_single_feeder_for_decomposable_vertices():
    """On a reduced conical graph, any vertex whose class decomposes must be
    fed by some vertex sending one edge to it and all others to the sink."""
    from sandmon.monoid import atoms as monoid_atoms
    from sandmon.rewrite import _stable_form

    checked = 0
    for g in random_sandpile_corpus(count=80, seed=71):
        r = reduce_graph(g)
        conical, _ = conicality_report(r)
        if not conical or len(r.names) == 1:
            continue
        sp = enumerate_sandpile_monoid(r)
        atom_set = set(monoid_atoms(sp))
        for v in r.non_sink_vertices():
            e_v = tuple(1 if u == v else 0 for u in range(r.n_vertices))
            cls = sp.reps.index(_stable_form(r, e_v, sink_absorbing=True))
            if cls in atom_set:
                continue
            feeders = [
                u for u in r.non_sink_vertices()
                if sorted(r.out_targets[u]) == sorted(
                    [v] + [r.sink] * (r.out_degree(u) - 1)
                )
            ]
            assert feeders, (r.names[v], r.names)
            checked += 1
    assert checked >= 1


def test_named_examples_cover_known_shapes():
    examples = named_examples()
    assert set(examples) == {
        "g_2_3", "g_1_3", "t", "cycle_2_2_1", "prime_z5"
    }
    assert realization(examples["g_2_3"]).k0 == AbelianGroupInvariants((3,), 0)
