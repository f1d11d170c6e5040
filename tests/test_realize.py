import os
import subprocess
import sys
from pathlib import Path

import pytest

from sandmon import errors, realize
from sandmon.graph import (
    WeightedDigraph,
    loop_sink_graph,
    multi_cycle_sandpile,
    reduce_graph,
    validate_sandpile,
)
from sandmon.ktheory import sandpile_group_via_k0
from sandmon.monoid import (
    AbelianGroupInvariants,
    classify_cyclic_sum,
    enumerate_sandpile_monoid,
    units,
)
from sandmon.realize import (
    classify_sandpile,
    conicality_report,
    cycle_suite,
    make_t_graph,
    named_examples,
    prime_order_case,
    random_sandpile_corpus,
    realization,
    refinement_structure,
)


SRC = Path(__file__).resolve().parent.parent / "src"


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
        classify_sandpile(chain)
    with pytest.raises(errors.NotConical):
        classify_sandpile(zp_graph(3))


def test_classify_sandpile_returns_the_monoid_it_checked():
    g = multi_cycle_sandpile([[2, 2], [3, 2, 2]])
    structure, witness, sp = classify_sandpile(g)
    assert (structure, witness) == refinement_structure(g)
    assert len(sp) == 48 and sp.labels == enumerate_sandpile_monoid(g).labels


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
        "from sandmon.realize import make_t_graph\n"
        "realize.is_refinement = lambda M: (True, None)\n"
        f"g = {graph}\n"
        "try:\n"
        "    realize.refinement_structure(g)\n"
        "except errors.CertificateFailed as exc:\n"
        "    print(exc)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
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


def test_cycle_suite_rejects_all_ones():
    with pytest.raises(errors.BadParameters):
        cycle_suite([1, 1, 1])
    with pytest.raises(errors.BadParameters):
        cycle_suite([])


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
                sandpile_group_via_k0(g)
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
        "g_2_3", "g_1_3", "t", "cycle_2_2_1", "prime_z5", "prime_m_2_5"
    }
    assert realization(examples["g_2_3"]).k0 == AbelianGroupInvariants((3,), 0)
