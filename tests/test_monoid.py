import dataclasses
import itertools
import os
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from sandmon import cli, errors, monoid, rewrite
from sandmon.graph import (
    WeightedDigraph,
    cycle_companion_sandpile,
    cycle_companion_unweighted,
    loop_sink_graph,
    non_cycle_vertices,
    quotient_graph,
    reduce_graph,
    validate_sandpile,
    weighted_cycle_graph,
)
from sandmon.monoid import (
    DEFAULT_SANDPILE_CAP,
    DEFAULT_WEIGHTED_CAP,
    AbelianGroupInvariants,
    FiniteCommMonoid,
    abelian_invariants,
    atoms,
    classify_cyclic_sum,
    enumerate_sandpile_monoid,
    enumerate_weighted_monoid,
    group_completion,
    is_refinement,
    monoid_isomorphic,
    quotient_by_submonoid,
    smallest_ideal,
    units,
)
from sandmon.rewrite import (
    _stable_form,
    format_element,
    graph_relations,
    reduction_system,
)

from reference import (
    complete_graph,
    complete_triangle,
    cyclic_group_monoid,
    cyclic_monoid,
    direct_sum,
    direct_sum_of_cyclic,
    diverging_graph,
    grid_graph,
    is_atom_cancellative,
    make_t_graph,
    monogenic_monoid,
    named_examples,
    random_sandpile_corpus,
    reference_reduction_system,
    refine_equation,
    rose_graph,
    small_sandpile_graphs,
    trivial_monoid,
    two_cycle_unions,
    verify_monoid,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def test_monogenic_monoid_tables():
    c4 = monogenic_monoid(1, 3)
    verify_monoid(c4)
    assert len(c4) == 4
    assert c4.labels == ["0", "x", "2x", "3x"]
    # 4x = x, so 3x + 3x = 6x = 3x
    assert c4.add[3][3] == 3
    assert c4.add[1][3] == 1

    m25 = monogenic_monoid(2, 3)
    verify_monoid(m25)
    assert m25.add[4][4] == 2  # 8x = 2x under 5x = 2x

    z5 = monogenic_monoid(0, 5)
    verify_monoid(z5)
    assert all(z5.add[i][j] == (i + j) % 5 for i in range(5) for j in range(5))


def test_cyclic_and_group_constructors():
    c2 = cyclic_monoid(2)
    assert len(c2) == 2 and c2.add[1][1] == 1
    with pytest.raises(errors.BadParameters):
        cyclic_monoid(1)
    z1 = cyclic_group_monoid(1)
    assert len(z1) == 1
    with pytest.raises(errors.BadParameters):
        monogenic_monoid(-1, 2)


def test_direct_sum():
    m = direct_sum(cyclic_monoid(2), cyclic_monoid(3))
    verify_monoid(m)
    assert len(m) == 6
    assert direct_sum_of_cyclic([]).labels == ["0"]


def test_units_and_conical():
    for n, k in [(1, 1), (2, 3), (3, 2)]:
        m = monogenic_monoid(n, k)
        assert units(m) == [m.zero]
    z5 = cyclic_group_monoid(5)
    assert units(z5) == list(range(5))
    assert units(trivial_monoid()) == [0]


def test_units_of_parallel_edge_sandpile():
    # single vertex firing straight into the sink: the monoid is a group
    g = validate_sandpile(WeightedDigraph(["a", "s"], [("a", "s", 1)] * 4))
    sp = enumerate_sandpile_monoid(g)
    assert units(sp) == list(range(4))
    assert monoid_isomorphic(sp, cyclic_group_monoid(4)) is not None


def test_atoms_of_monogenic():
    # x is the only candidate: every higher multiple splits as a sum of two
    # nonzero elements, and with index one even x decomposes
    assert atoms(monogenic_monoid(1, 3)) == []
    assert atoms(monogenic_monoid(1, 5)) == []
    for index, period in [(2, 3), (3, 2), (4, 2)]:
        m = monogenic_monoid(index, period)
        assert atoms(m) == [1]


def test_refinement_of_monogenic():
    m13 = monogenic_monoid(1, 3)
    ok, witness = is_refinement(m13)
    assert ok and witness is None
    for index, period in [(2, 3), (3, 1), (2, 1)]:
        m = monogenic_monoid(index, period)
        ok, witness = is_refinement(m)
        assert not ok
        a, b, c, d = witness
        assert m.add[a][b] == m.add[c][d]
        assert refine_equation(m, a, b, c, d) is None


def test_refine_equation_requires_equal_sums():
    m = monogenic_monoid(1, 3)
    with pytest.raises(errors.BadParameters):
        refine_equation(m, 0, 1, 0, 2)


def test_atom_cancellative():
    ok, _ = is_atom_cancellative(monogenic_monoid(1, 5))
    assert ok  # no atoms at all
    ok, witness = is_atom_cancellative(monogenic_monoid(2, 3))
    assert not ok
    a, m1, m2 = witness
    assert a in atoms(monogenic_monoid(2, 3))


def test_diverging_graph_monoid():
    M = enumerate_weighted_monoid(diverging_graph(), sink_relations=True)
    verify_monoid(M)
    assert sorted(M.labels) == ["0", "2u", "2v", "u", "v"]
    assert units(M) == [M.zero]
    assert sorted(M.labels[a] for a in atoms(M)) == ["u", "v"]
    ok, witness = is_refinement(M)
    assert not ok and witness is not None
    ok, _ = is_atom_cancellative(M)
    assert not ok
    # the defining failure: u + u equals u + 2v yet has no refinement
    u = M.generators["u"]
    two_v = M.labels.index("2v")
    assert M.add[u][u] == M.add[u][two_v]
    assert refine_equation(M, u, u, u, two_v) is None


def test_smallest_ideal_monogenic():
    for index, period in [(1, 3), (2, 3), (3, 4)]:
        m = monogenic_monoid(index, period)
        ideal = smallest_ideal(m)
        assert ideal.elements == list(range(index, index + period))
        # identity is the unique multiple of the period in the ideal range
        t = next(
            x for x in range(index, index + period) if x % period == 0
        )
        assert ideal.identity == t
        inv = abelian_invariants(ideal.group)
        expected = AbelianGroupInvariants((period,), 0) if period > 1 else AbelianGroupInvariants((), 0)
        assert inv == expected


def test_smallest_ideal_of_group_is_everything():
    z6 = cyclic_group_monoid(6)
    ideal = smallest_ideal(z6)
    assert ideal.elements == list(range(6))
    assert ideal.identity == 0


def test_group_completion_examples():
    assert group_completion(monogenic_monoid(1, 3)) == AbelianGroupInvariants((3,), 0)
    assert group_completion(trivial_monoid()) == AbelianGroupInvariants((), 0)
    MF = enumerate_weighted_monoid(complete_triangle(), sink_relations=False)
    assert len(MF) == 5
    assert group_completion(MF) == AbelianGroupInvariants((2, 2), 0)


def test_abelian_invariants_oracle():
    """Construct groups of known shape and recover their invariant factors."""
    cases = [
        ([4], AbelianGroupInvariants((4,), 0)),
        ([2, 2], AbelianGroupInvariants((2, 2), 0)),
        ([2, 3], AbelianGroupInvariants((6,), 0)),
        ([2, 4], AbelianGroupInvariants((2, 4), 0)),
        ([2, 2, 2], AbelianGroupInvariants((2, 2, 2), 0)),
        ([6, 4], AbelianGroupInvariants((2, 12), 0)),
        ([5], AbelianGroupInvariants((5,), 0)),
    ]
    from functools import reduce

    for orders, expected in cases:
        g = reduce(direct_sum, (cyclic_group_monoid(n) for n in orders))
        assert abelian_invariants(g) == expected


def test_abelian_invariants_rejects_a_table_that_is_no_group():
    # Z/6 with x + x = 0: 0, x and 2x are killed by 2, three elements
    with pytest.raises(errors.CertificateFailed):
        abelian_invariants(corrupted_copy(cyclic_group_monoid(6), 1, 1, 0))


@pytest.mark.parametrize("torsion, free_rank", [
    ((), -1), ((1,), 0), ((0, 2), 1), ((4, 6), 0), ((6, 2), 0),
])
def test_group_invariants_reject_a_non_canonical_form(torsion, free_rank):
    with pytest.raises(errors.BadParameters):
        AbelianGroupInvariants(torsion, free_rank)


def test_quotient_by_submonoid():
    m = monogenic_monoid(2, 3)
    same = quotient_by_submonoid(m, [m.zero])
    assert monoid_isomorphic(m, same) is not None
    collapsed = quotient_by_submonoid(m, list(range(len(m))))
    assert len(collapsed) == 1
    with pytest.raises(errors.NotSubmonoid):
        quotient_by_submonoid(m, [1])  # does not contain zero
    with pytest.raises(errors.NotSubmonoid):
        quotient_by_submonoid(cyclic_group_monoid(5), [0, 1])  # not closed


def test_quotient_by_submonoid_names_the_class_of_each_generator():
    assert quotient_by_submonoid(cyclic_monoid(3), [0]).generators == {"x": 1}
    assert quotient_by_submonoid(trivial_monoid(), [0]).generators == {}
    assert quotient_by_submonoid(direct_sum(cyclic_monoid(2), cyclic_monoid(2)),
                                 [0]).generators is None
    g = validate_sandpile(WeightedDigraph(
        ["a", "b", "s"],
        [("a", "a", 1), ("a", "b", 1), ("b", "s", 1), ("b", "s", 1)],
    ))
    sp = enumerate_sandpile_monoid(g)
    U = units(sp)
    q = quotient_by_submonoid(sp, U)

    def least_of_class(x):
        # a class keeps the label of its least element
        return min(y for y in range(len(sp))
                   if any(sp.add[x][u] == sp.add[y][w] for u in U for w in U))

    assert q.generators == {
        name: q.labels.index(sp.labels[least_of_class(x)])
        for name, x in sp.generators.items()
    }
    assert q.generators["s"] == q.generators["b"] == q.zero != q.generators["a"]


def test_quotient_by_units_matches_quotient_graph_presentation():
    for g in [
        validate_sandpile(WeightedDigraph(["a", "s"], [("a", "s", 1)] * 4)),
        validate_sandpile(WeightedDigraph(
            ["a", "b", "s"],
            [("a", "a", 1), ("a", "b", 1), ("b", "s", 1), ("b", "s", 1)],
        )),
    ]:
        sp = enumerate_sandpile_monoid(g)
        quotient_monoid = quotient_by_submonoid(sp, units(sp))
        q = quotient_graph(g, non_cycle_vertices(g))
        presented = enumerate_weighted_monoid(q, sink_relations=False)
        assert monoid_isomorphic(quotient_monoid, presented) is not None


def test_monoid_isomorphic_examples():
    sp = enumerate_sandpile_monoid(loop_sink_graph(2, 3))
    assert monoid_isomorphic(sp, monogenic_monoid(2, 3)) is not None
    # cyclic monoid of order 4 versus the cyclic group of order 4
    assert monoid_isomorphic(cyclic_monoid(4), cyclic_group_monoid(4)) is None
    m = monogenic_monoid(3, 2)
    mapping = monoid_isomorphic(m, m)
    assert mapping == list(range(len(m)))
    # same size, both conical, different ideals
    assert monoid_isomorphic(
        direct_sum_of_cyclic([2, 2]), cyclic_monoid(4)
    ) is None


def test_monoid_isomorphic_verifies_structure():
    m1 = direct_sum_of_cyclic([2, 3])
    m2 = direct_sum_of_cyclic([3, 2])
    mapping = monoid_isomorphic(m1, m2)
    assert mapping is not None
    assert sorted(mapping) == list(range(len(m1)))
    for a in range(len(m1)):
        for b in range(len(m1)):
            assert mapping[m1.add[a][b]] == m2.add[mapping[a]][mapping[b]]


def test_classify_cyclic_sum():
    assert classify_cyclic_sum(trivial_monoid()) == []
    assert classify_cyclic_sum(direct_sum_of_cyclic([2, 3])) == [2, 3]
    assert classify_cyclic_sum(cyclic_monoid(6)) == [6]
    assert classify_cyclic_sum(monogenic_monoid(2, 3)) is None
    assert classify_cyclic_sum(cyclic_group_monoid(5)) is None
    MF = enumerate_weighted_monoid(complete_triangle(), sink_relations=False)
    assert classify_cyclic_sum(MF) is None


def test_enumerate_sandpile_monoid_sizes():
    for n, k in [(1, 1), (2, 3), (3, 2), (5, 5)]:
        g = loop_sink_graph(n, k)
        sp = enumerate_sandpile_monoid(g)
        assert len(sp) == n + k
        assert monoid_isomorphic(sp, monogenic_monoid(n, k)) is not None
    t = make_t_graph()
    assert len(enumerate_sandpile_monoid(t)) == 27
    single = validate_sandpile(WeightedDigraph(["s"], []))
    assert len(enumerate_sandpile_monoid(single)) == 1
    with pytest.raises(errors.SizeOverBudget):
        enumerate_sandpile_monoid(t, cap=26)


def test_enumerate_weighted_monoid_roses():
    for petals, weight in [(1, 4), (2, 5), (3, 4)]:
        rose = rose_graph(petals, weight)
        M = enumerate_weighted_monoid(rose, sink_relations=False)
        # one vertex with the relation weight*v = petals*v
        assert monoid_isomorphic(
            M, monogenic_monoid(petals, weight - petals)
        ) is not None


def test_enumerate_weighted_monoid_variants():
    g = loop_sink_graph(2, 3)
    with_sinks = enumerate_weighted_monoid(g, sink_relations=True)
    assert len(with_sinks) == 5
    assert monoid_isomorphic(with_sinks, monogenic_monoid(2, 3)) is not None
    # without the sink relation the sink generates a free direction
    with pytest.raises(errors.Inconclusive):
        enumerate_weighted_monoid(g, sink_relations=False, cap=50)


def test_enumerate_weighted_monoid_inconclusive_cases():
    # unweighted two-cycle-with-loops triangle: the monoid is infinite
    tri = WeightedDigraph(
        ["u", "v", "z"],
        [("u", "v", 1), ("u", "z", 1),
         ("v", "u", 1), ("v", "v", 1),
         ("z", "u", 1), ("z", "z", 1)],
    )
    with pytest.raises(errors.Inconclusive) as info:
        enumerate_weighted_monoid(tri, sink_relations=False, cap=100)
    assert len(info.value.partial_labels) == 100

    one_loop = rose_graph(1, 1)
    with pytest.raises(errors.Inconclusive):
        enumerate_weighted_monoid(one_loop, cap=30)


def test_enumerate_weighted_monoid_rejects_uneven_weights():
    g = WeightedDigraph(["a", "b"], [("a", "b", 1), ("a", "b", 2)])
    with pytest.raises(errors.BadParameters):
        enumerate_weighted_monoid(g)


def test_verify_monoid_catches_bad_tables():
    broken = monogenic_monoid(1, 3)
    broken.add[1][2] = 0
    with pytest.raises(ValueError):
        verify_monoid(broken)


def test_monoid_tables_verify_on_examples():
    for M in [
        enumerate_sandpile_monoid(make_t_graph()),
        enumerate_weighted_monoid(diverging_graph()),
        enumerate_weighted_monoid(complete_triangle(), sink_relations=False),
        direct_sum_of_cyclic([2, 4]),
    ]:
        verify_monoid(M)


# ------------------------------------------- sandpile tables and their ideals


def reference_sandpile_table(g):
    """Oracle for enumerate_sandpile_monoid: add every unordered pair of
    stable configurations and stabilise the sum.  Returns the table, the
    representatives, the labels and the generator map."""
    non_sink = g.non_sink_vertices()
    radices = [g.out_degree(v) for v in non_sink]
    size = prod(radices)
    places = [prod(radices[i + 1:]) for i in range(len(non_sink))]

    def encode(config):
        return sum(config[v] * places[i] for i, v in enumerate(non_sink))

    reps = []
    for code in range(size):
        config = [0] * g.n_vertices
        for i, v in enumerate(non_sink):
            config[v] = code // places[i] % radices[i]
        reps.append(tuple(config))
    table = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            total = tuple(a + b for a, b in zip(reps[i], reps[j]))
            table[i][j] = table[j][i] = encode(_stable_form(g, total))
    labels = [format_element(g.names, rep) for rep in reps]
    gens = {
        name: encode(_stable_form(g, tuple(int(u == v) for u in range(g.n_vertices))))
        for v, name in enumerate(g.names)
    }
    return table, reps, labels, gens


def assert_table_matches_reference(g):
    M = enumerate_sandpile_monoid(g)
    table, reps, labels, gens = reference_sandpile_table(g)
    assert M.add == table
    assert M.reps == reps
    assert M.labels == labels
    assert M.generators == gens
    assert M.zero == 0


def test_sandpile_table_matches_pairwise_reference():
    graphs = random_sandpile_corpus(count=40) + [
        grid_graph(2, 2), grid_graph(1, 5), complete_graph(5),
    ]
    assert [len(enumerate_sandpile_monoid(g)) for g in graphs[-3:]] == [256, 1024, 256]
    for g in graphs:
        assert_table_matches_reference(g)


@settings(max_examples=40, deadline=None)
@given(small_sandpile_graphs())
def test_sandpile_table_matches_reference_on_generated_graphs(g):
    assert_table_matches_reference(g)


def test_default_sandpile_cap(monkeypatch):
    assert DEFAULT_SANDPILE_CAP == 4096

    class BuildStarted(Exception):
        pass

    def refuse(*args, **kwargs):
        raise BuildStarted

    monkeypatch.setattr(monoid, "_stable_form", refuse)
    # 4^6 = 4096 elements: within the cap, so the build starts
    with pytest.raises(BuildStarted):
        enumerate_sandpile_monoid(grid_graph(2, 3))
    # 4^7 elements: refused before any stabilisation; only the monoid
    # command, which has the flag, names --cap
    with pytest.raises(errors.SizeOverBudget,
                       match=r"^sandpile monoid has 16384 elements, cap is 4096$"):
        enumerate_sandpile_monoid(grid_graph(1, 7))


def test_sandpile_enumeration_stabilises_only_a_grain_that_tops_a_digit(monkeypatch):
    """A grain that leaves v below its out-degree d_v needs no firing, so
    the enumeration stabilises once for each configuration with d_v - 1
    grains on v: |M| / d_v times for each non-sink v.  A vertex whose grain
    stabilises to zero acts as the identity and is stabilised from zero
    alone.  The pairwise reference sees the table, not what it cost."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return _stable_form(*args, **kwargs)

    monkeypatch.setattr(monoid, "_stable_form", counted)
    identities = 0
    for g in [grid_graph(2, 2), complete_graph(5)] + random_sandpile_corpus(count=20):
        calls.clear()
        M = enumerate_sandpile_monoid(g)
        idle = [M.generators[g.names[v]] == M.zero for v in g.non_sink_vertices()]
        assert len(calls) == sum(1 if i else len(M) // g.out_degree(v)
                                 for v, i in zip(g.non_sink_vertices(), idle))
        identities += sum(idle)
    assert identities >= 3


def test_smallest_ideal_is_cached():
    for M in [enumerate_sandpile_monoid(make_t_graph()), monogenic_monoid(2, 3)]:
        assert smallest_ideal(M) is smallest_ideal(M)


def corrupted_copy(M, a, b, value):
    """M with the single table entry a + b replaced by ``value``."""
    add = [list(row) for row in M.add]
    add[a][b] = value
    return FiniteCommMonoid(add=add, zero=M.zero, labels=list(M.labels),
                            reps=M.reps)


def test_smallest_ideal_certificate_can_fail():
    # {0, x, 2x, 3x, 4x} with 5x = 2x: the ideal {2x, 3x, 4x} is Z/3 with
    # identity 3x, and 2x + 4x = 3x is the only inverse pair for 2x in it
    sp = enumerate_sandpile_monoid(loop_sink_graph(2, 3))
    ideal = smallest_ideal(sp)
    assert (ideal.elements, ideal.identity) == ([2, 3, 4], 3)
    assert sp.add[2][4] == 3
    broken = corrupted_copy(sp, 2, 4, 2)
    with pytest.raises(errors.CertificateFailed, match="no inverse"):
        smallest_ideal(broken)
    # 3x + 3x = 4x leaves the ideal without an idempotent
    with pytest.raises(errors.CertificateFailed):
        smallest_ideal(corrupted_copy(sp, 3, 3, 4))


def test_smallest_ideal_certificate_runs_without_asserts():
    code = (
        "from sandmon import errors\n"
        "from sandmon.graph import loop_sink_graph\n"
        "from sandmon.monoid import enumerate_sandpile_monoid, smallest_ideal\n"
        "sp = enumerate_sandpile_monoid(loop_sink_graph(2, 3))\n"
        "sp.add[2][4] = 2\n"
        "try:\n"
        "    smallest_ideal(sp)\n"
        "except errors.CertificateFailed:\n"
        "    print('CertificateFailed')\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), check=True,
    )
    assert out.stdout == "CertificateFailed\n"


# ------------------------------------------------- weighted tables and caches


def reference_weighted_table(g, sink_relations, cap):
    """Oracle for enumerate_weighted_monoid: the closure search by frontiers,
    then the normal form of every unordered pair, all through the reference
    reducer.  Returns the table, the zero, the labels, the representatives
    and the generator map, or raises Inconclusive with the labels discovered
    before the cap."""
    _, normal_form = reference_reduction_system(
        g.n_vertices, graph_relations(g, sink_relations)
    )
    nv = g.n_vertices
    zero = (0,) * nv
    gens = [tuple(1 if u == v else 0 for u in range(nv)) for v in range(nv)]
    known = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for rep in frontier:
            for gvec in gens:
                cand = normal_form(tuple(a + b for a, b in zip(rep, gvec)))
                if cand not in known:
                    if len(known) >= cap:
                        raise errors.Inconclusive(
                            f"more than {cap} elements discovered",
                            partial_labels=sorted(
                                format_element(g.names, v) for v in known
                            ),
                        )
                    known.add(cand)
                    nxt.append(cand)
        frontier = nxt
    elements = sorted(known, key=lambda v: (sum(v), v))
    index = {v: i for i, v in enumerate(elements)}
    size = len(elements)
    table = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            total = tuple(a + b for a, b in zip(elements[i], elements[j]))
            table[i][j] = table[j][i] = index[normal_form(total)]
    labels = [format_element(g.names, v) for v in elements]
    gen_map = {g.names[v]: index[normal_form(gens[v])] for v in range(nv)}
    return table, index[zero], labels, elements, gen_map


def assert_weighted_matches_reference(g, sink_relations, cap=DEFAULT_WEIGHTED_CAP):
    """Compare with the oracle; returns whether the monoid stayed under the
    cap.  Above it, both must raise Inconclusive with the same labels.  The
    completed rules must equal the reference's either way."""
    expected_rules, _ = reference_reduction_system(
        g.n_vertices, graph_relations(g, sink_relations)
    )
    assert reduction_system(g, sink_relations).rules == expected_rules
    try:
        expected = reference_weighted_table(g, sink_relations, cap)
    except errors.Inconclusive as exc:
        with pytest.raises(errors.Inconclusive) as info:
            enumerate_weighted_monoid(g, sink_relations=sink_relations, cap=cap)
        assert str(info.value) == str(exc)
        assert info.value.partial_labels == exc.partial_labels
        return False
    M = enumerate_weighted_monoid(g, sink_relations=sink_relations, cap=cap)
    assert (M.add, M.zero, M.labels, M.reps, M.generators) == expected
    return True


def test_weighted_table_matches_pairwise_reference():
    corpus = random_sandpile_corpus(count=40)
    outcomes = [assert_weighted_matches_reference(g, sr, cap=300)
                for g in corpus for sr in (True, False)]
    # without the sink relation the sink is a free generator: all capped
    assert outcomes == [True, False] * 40
    for g in corpus + list(named_examples().values()):
        q = quotient_graph(g, non_cycle_vertices(g))
        assert assert_weighted_matches_reference(q, False)
    weights = [2, 2, 1]
    for g in (weighted_cycle_graph(weights), cycle_companion_unweighted(weights)):
        assert assert_weighted_matches_reference(g, False)
    g = cycle_companion_sandpile(weights)
    assert assert_weighted_matches_reference(g, True)
    assert not assert_weighted_matches_reference(g, False, cap=200)
    for petals, weight in [(1, 4), (2, 5), (3, 4), (4, 9)]:
        for sr in (True, False):
            assert assert_weighted_matches_reference(rose_graph(petals, weight), sr)
    assert not assert_weighted_matches_reference(rose_graph(1, 1), True, cap=30)


@st.composite
def small_vertex_weighted_graphs(draw):
    """A random vertex weighted graph on 1-5 vertices: each vertex has 0-4
    out-edges (none makes it a sink), all of one weight near their count."""
    n = draw(st.integers(1, 5))
    names = [f"v{i}" for i in range(n)]
    edges = []
    for v in range(n):
        targets = draw(st.lists(st.integers(0, n - 1), max_size=4))
        if targets:
            w = draw(st.integers(max(1, len(targets) - 1), len(targets) + 2))
            edges.extend((names[v], names[t], w) for t in targets)
    return WeightedDigraph(names, edges)


@settings(max_examples=40, deadline=None)
@given(small_vertex_weighted_graphs())
def test_weighted_table_matches_reference_on_generated_graphs(g):
    try:
        reference_weighted_table(g, True, 200)
    except errors.Inconclusive:
        assume(False)
    assert assert_weighted_matches_reference(g, True, cap=200)


def test_weighted_table_uses_one_normal_form_per_element_and_generator(monkeypatch):
    counts = []
    real = monoid.reduction_system

    def counting(*args):
        rs = real(*args)
        add_generator = rs.add_generator

        def counted(x, v):
            counts.append((x, v))
            return add_generator(x, v)

        rs.add_generator = counted
        return rs

    monkeypatch.setattr(monoid, "reduction_system", counting)
    g = cycle_companion_unweighted([2, 2, 2])
    M = enumerate_weighted_monoid(g, sink_relations=False)
    assert len(M) == 8
    assert len(counts) == len(M) * g.n_vertices


def test_weighted_monoid_is_the_staircase_under_the_left_hand_sides():
    """The normal forms of a complete system are the vectors above no
    left-hand side (Dickson's lemma).  So the monoid is finite exactly when
    every generator v has a pure-power left-hand side k_v e_v, and its
    elements are then the vectors of the box [0, k_v) above no left-hand
    side, counted here without the closure search."""
    outcomes = []
    for g in random_sandpile_corpus(count=24):
        for sr in (True, False):
            lhss = [lhs for lhs, _ in reduction_system(g, sr).rules]
            powers = {}
            for lhs in lhss:
                support = [v for v, k in enumerate(lhs) if k]
                if len(support) == 1:
                    v = support[0]
                    powers[v] = min(powers.get(v, lhs[v]), lhs[v])
            finite = len(powers) == g.n_vertices
            outcomes.append(finite)
            if not finite:
                with pytest.raises(errors.Inconclusive):
                    enumerate_weighted_monoid(g, sink_relations=sr, cap=300)
                continue
            box = [
                vec for vec in itertools.product(
                    *(range(powers[v]) for v in range(g.n_vertices))
                )
                if not any(all(a >= b for a, b in zip(vec, lhs)) for lhs in lhss)
            ]
            M = enumerate_weighted_monoid(g, sink_relations=sr)
            assert len(M) == len(box)
            assert sorted(M.reps) == box
    # without the sink relation the sink is a free generator
    assert outcomes == [True, False] * 24


def test_rule_budget_overflow_is_inconclusive(monkeypatch):
    for g in random_sandpile_corpus(count=12):
        for sr in (True, False):
            rules, _ = reference_reduction_system(
                g.n_vertices, graph_relations(g, sr)
            )
            budget = len(rules) - 1
            monkeypatch.setattr(rewrite, "MAX_RULES", budget)
            with pytest.raises(errors.Inconclusive) as info:
                enumerate_weighted_monoid(g, sink_relations=sr, cap=50)
            assert str(info.value) == (
                f"rule completion exceeded its budget (more than {budget} rules)"
            )
            assert info.value.partial_labels is None
            monkeypatch.setattr(rewrite, "MAX_RULES", len(rules))
            try:
                enumerate_weighted_monoid(g, sink_relations=sr, cap=50)
            except errors.Inconclusive as exc:
                assert exc.partial_labels is not None


def test_units_are_a_group_on_the_corpus():
    for g in random_sandpile_corpus(count=60):
        sp = enumerate_sandpile_monoid(g)
        unit_set = set(units(sp))
        assert sp.zero in unit_set
        for a in unit_set:
            assert {sp.add[a][b] for b in unit_set} == unit_set
        # and exactly the elements with an inverse
        assert unit_set == {a for a in range(len(sp))
                            if any(sp.add[a][b] == sp.zero for b in range(len(sp)))}


def test_units_and_atoms_are_cached_copies():
    M = enumerate_sandpile_monoid(loop_sink_graph(2, 3))
    for predicate, expected in ((units, [0]), (atoms, [1])):
        first = predicate(M)
        assert first == expected
        first.append(99)
        assert predicate(M) == expected
        assert predicate(M) is not predicate(M)
    assert M._cache["units"] == [0] and M._cache["atoms"] == [1]


def test_refinement_reads_its_tables_once(monkeypatch):
    M = enumerate_sandpile_monoid(make_t_graph())
    calls = []
    real = monoid._solutions

    def counted(M):
        calls.append(M)
        return real(M)

    monkeypatch.setattr(monoid, "_solutions", counted)
    ok, witness = is_refinement(M)
    assert (ok, witness) == (False, (1, 3, 9, 18))
    assert len(calls) == 1
    # the public search agrees on the witness and still checks its input
    assert refine_equation(M, *witness) is None
    with pytest.raises(errors.BadParameters):
        refine_equation(M, 1, 3, 1, 1)


# ------------------------------------------------------- refinement by generators


def reference_is_refinement(M):
    """Oracle for is_refinement: every equation a + b = c + d, by sum and
    then with (a, b) no later than (c, d) among the pairs of that sum, with
    e1 of a refinement searched over all elements."""
    n, add = len(M), M.add
    sol = [{} for _ in range(n)]
    for u in range(n):
        for x in range(n):
            sol[u].setdefault(add[u][x], []).append(x)
    by_sum = [[] for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            by_sum[add[a][b]].append((a, b))

    def refines(a, b, c, d):
        return any(
            add[e2][e4] == d
            for e1 in range(n)
            for e2 in sol[e1].get(a, ())
            for e3 in sol[e1].get(c, ())
            for e4 in sol[e3].get(b, ())
        )

    for pairs in by_sum:
        for i, (a, b) in enumerate(pairs):
            for c, d in pairs[i:]:
                if not refines(a, b, c, d):
                    return False, (a, b, c, d)
    return True, None


def without_generators(M):
    """M with a fresh cache and no ``generators`` map."""
    return FiniteCommMonoid(add=M.add, zero=M.zero, labels=M.labels, reps=M.reps)


def eager_decomps(M):
    """Every unordered pair (a, b), a <= b, grouped by its sum in index
    order: the table that ``_Decompositions`` builds a sum at a time."""
    by_sum = [[] for _ in range(len(M))]
    for a in range(len(M)):
        for b in range(a, len(M)):
            by_sum[M.add[a][b]].append((a, b))
    return by_sum


def assert_refinement_matches_reference(M):
    expected = reference_is_refinement(M)
    assert is_refinement(M) == expected
    # each sum the search built holds the eager table's pairs, in its order
    built = M._cache.get("decomps", {})
    by_sum = eager_decomps(M)
    assert all(pairs == by_sum[t] for t, pairs in built.items())
    # the generating set is read off the table, so the verdict and witness
    # do not depend on the generators map or on what was cached
    assert is_refinement(without_generators(M)) == expected


def test_refinement_matches_reference_on_the_corpus():
    verdicts = set()
    for g in random_sandpile_corpus():
        sp = enumerate_sandpile_monoid(g)
        assert_refinement_matches_reference(sp)
        verdicts.add(is_refinement(sp)[0])
        for q, sink_relations in [(g, True),
                                  (quotient_graph(g, non_cycle_vertices(g)), False)]:
            try:
                M = enumerate_weighted_monoid(q, sink_relations=sink_relations, cap=300)
            except errors.Inconclusive:
                continue
            assert_refinement_matches_reference(M)
    assert verdicts == {True, False}


def test_refinement_matches_reference_on_cycle_unions():
    for g in two_cycle_unions():
        M = enumerate_sandpile_monoid(g)
        assert len(M) == 128
        assert is_refinement(M) == reference_is_refinement(M) == (True, None)


def unit_group_plus_idempotent(k):
    """Z/k + C_2 by hand: (i, a) + (j, b) = (i + j mod k, max(a, b)), the
    element (i, a) at index a*k + i, so the idempotent part is the major
    index (``direct_sum`` puts the first summand there)."""
    pairs = [(i, a) for a in range(2) for i in range(k)]
    index = {p: x for x, p in enumerate(pairs)}
    table = [[index[(i + j) % k, max(a, b)] for j, b in pairs] for i, a in pairs]
    return FiniteCommMonoid(add=table, zero=0, labels=[f"{i}u+{a}e" for i, a in pairs])


def unit_and_idempotent_graph(k):
    """u with k edges to the sink, plus x with one loop and one sink edge:
    u generates Z/k and x = x + x, so the monoid is Z/k + C_2, which is not
    conical, refines, and is neither a cyclic sum nor a group."""
    return validate_sandpile(WeightedDigraph(
        ["u", "x", "s"], [("u", "s", 1)] * k + [("x", "x", 1), ("x", "s", 1)]
    ))


def test_refinement_matches_reference_on_cyclic_and_monogenic_sums():
    monoids = [direct_sum_of_cyclic(orders)
               for orders in ([2, 3], [3, 4], [2, 2, 3], [5, 6])]
    monoids += [monogenic_monoid(i, p) for i in range(4) for p in range(1, 5)]
    monoids += [direct_sum(monogenic_monoid(2, 3), cyclic_monoid(3)),
                direct_sum(cyclic_group_monoid(2), cyclic_monoid(4)),
                direct_sum(monogenic_monoid(1, 2), monogenic_monoid(3, 2))]
    # groups, which refine with no search, and refinement monoids with units
    # that are neither groups nor cyclic sums, which scan every sum
    monoids += [cyclic_group_monoid(n) for n in (5, 6, 8)]
    monoids += [direct_sum(cyclic_group_monoid(2), cyclic_group_monoid(k)) for k in (2, 3, 4)]
    monoids += [unit_group_plus_idempotent(k) for k in (1, 2, 3, 5)]
    monoids += [enumerate_sandpile_monoid(unit_and_idempotent_graph(k)) for k in (1, 2, 3, 5)]
    verdicts = set()
    for M in monoids:
        assert_refinement_matches_reference(M)
        verdicts.add(is_refinement(M)[0])
    assert verdicts == {True, False}


@settings(max_examples=40, deadline=None)
@given(small_sandpile_graphs())
def test_refinement_matches_reference_on_generated_graphs(g):
    M = enumerate_sandpile_monoid(g)
    assert is_refinement(M) == reference_is_refinement(M)


def count_refine_calls(monkeypatch):
    """The argument tuples of every ``_refine`` call from now on."""
    searches = []
    real = monoid._refine

    def counted(*args):
        searches.append(args)
        return real(*args)

    monkeypatch.setattr(monoid, "_refine", counted)
    return searches


def test_refinement_searches_only_generator_equations(monkeypatch):
    # a refinement monoid that is not a direct sum of cyclic monoids, so
    # the verdict comes from the search
    M = direct_sum(cyclic_group_monoid(2), cyclic_monoid(4))
    assert classify_cyclic_sum(M) is None
    searches = count_refine_calls(monkeypatch)
    assert is_refinement(M) == (True, None)
    decomps = monoid._decomps(M)
    # one generator of each summand: x of C_4, then x of Z/2
    gens = monoid._generating_set(M)
    assert gens == [1, 4]
    # one search per equation x + a = c + d: 80 of the 112 equations
    assert len(searches) == sum(len(decomps[t]) for x in gens for t in M.add[x]) == 80
    assert sum(len(decomps[t]) * (len(decomps[t]) + 1) // 2 for t in range(len(M))) == 112


def test_refinement_of_a_cyclic_sum_is_read_off_the_certificate(monkeypatch):
    searches = count_refine_calls(monkeypatch)
    for g in two_cycle_unions():
        M = enumerate_sandpile_monoid(g)
        assert is_refinement(M) == (True, None)
        assert classify_cyclic_sum(M) == [8, 16]
        assert "decomps" not in M._cache and "solutions" not in M._cache
    assert searches == []


def test_refinement_of_a_group_needs_no_search(monkeypatch):
    searches = count_refine_calls(monkeypatch)
    groups = [cyclic_group_monoid(256), direct_sum(cyclic_group_monoid(2), cyclic_group_monoid(64))]
    for M in groups:
        assert classify_cyclic_sum(M) is None
        assert len(units(M)) == len(M)
        assert is_refinement(M) == (True, None)
        assert "decomps" not in M._cache and "solutions" not in M._cache
    assert searches == []


def test_refinement_builds_only_the_sums_it_reads():
    # out-degrees 4, 4 and 8: 128 elements, not refinement
    g = validate_sandpile(WeightedDigraph(
        ["a", "b", "c", "s"],
        [("a", "b", 1), ("a", "s", 1), ("a", "c", 1), ("a", "a", 1),
         ("b", "a", 1), ("b", "c", 1), ("b", "s", 1), ("b", "s", 1),
         ("c", "a", 1), ("c", "b", 1)] + [("c", "s", 1)] * 6,
    ))
    M = enumerate_sandpile_monoid(g)
    assert len(M) == 128
    assert is_refinement(M) == (False, (1, 32, 8, 24))
    assert len(M._cache["decomps"]) < len(M)


def test_refinement_scan_stores_the_eager_table_once():
    # every sum is read, and the per-sum builds run out of work and leave
    # the remaining sums to one pass over all pairs
    M = direct_sum(cyclic_group_monoid(64), cyclic_monoid(2))
    n = len(M)
    assert is_refinement(M) == (True, None)
    decomps = M._cache["decomps"]
    assert decomps.tries_left >= 0
    assert sorted(decomps) == list(range(n))
    assert sum(len(pairs) for pairs in decomps.values()) == n * (n + 1) // 2
    assert [decomps[t] for t in range(n)] == eager_decomps(M)


def test_classify_cyclic_sum_is_cached_as_copies(monkeypatch):
    calls = []
    real = monoid._cyclic_sum_orders

    def counted(M):
        calls.append(M)
        return real(M)

    monkeypatch.setattr(monoid, "_cyclic_sum_orders", counted)
    M = direct_sum_of_cyclic([2, 3])
    first = classify_cyclic_sum(M)
    assert first == [2, 3]
    first.append(99)
    assert classify_cyclic_sum(M) == [2, 3]
    assert classify_cyclic_sum(M) is not classify_cyclic_sum(M)
    assert M._cache["cyclic_sum"] == [2, 3]
    # a None verdict is cached too
    F = monogenic_monoid(2, 3)
    assert classify_cyclic_sum(F) is None and classify_cyclic_sum(F) is None
    assert calls == [M, F]
    # one report on a cycle union computes the orders once, for both its
    # refinement verdict and its cyclic_sum field
    calls.clear()
    U = enumerate_sandpile_monoid(two_cycle_unions()[1])
    payload = cli._monoid_payload(U)
    assert payload["refinement"] is True and payload["cyclic_sum"] == [8, 16]
    assert calls == [U]
    assert reference_classify_cyclic_sum(U) == [8, 16]


def test_refine_equation_returns_a_refinement_exactly_when_one_exists():
    for M in [direct_sum_of_cyclic([2, 3]), monogenic_monoid(2, 3),
              enumerate_sandpile_monoid(loop_sink_graph(1, 2))]:
        n, add = len(M), M.add
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    for d in range(n):
                        if add[a][b] != add[c][d]:
                            continue
                        exists = any(
                            add[e1][e2] == a and add[e3][e4] == b
                            and add[e1][e3] == c and add[e2][e4] == d
                            for e1 in range(n) for e2 in range(n)
                            for e3 in range(n) for e4 in range(n)
                        )
                        found = refine_equation(M, a, b, c, d)
                        assert (found is not None) == exists
                        if found is not None:
                            e1, e2, e3, e4 = found
                            assert (add[e1][e2], add[e3][e4], add[e1][e3],
                                    add[e2][e4]) == (a, b, c, d)


# ----------------------------------------------- isomorphism by induced maps


def cyclic_profile(M, x):
    """Index and period of the multiples of x."""
    seen = {}
    y, k = x, 1
    while y not in seen:
        seen[y] = k
        y, k = M.add[y][x], k + 1
    return seen[y], k - seen[y]


def reference_profiles(M):
    """Each element's zero flag, cyclic profile, unit and atom flags and
    number of unordered decompositions, refined by the multiset of those of
    its translates."""
    n, add, z = len(M), M.add, M.zero
    unit_set = {a for a in range(n) if z in add[a]}
    decomposable = {add[a][b] for a in range(n) for b in range(n) if z not in (a, b)}
    splits = [0] * n
    for a in range(n):
        for b in range(a, n):
            splits[add[a][b]] += 1
    base = [(x == z, cyclic_profile(M, x), x in unit_set,
             x != z and x not in decomposable, splits[x]) for x in range(n)]
    return [(base[x], tuple(sorted(base[add[x][y]] for y in range(n))))
            for x in range(n)]


def reference_generating_set(M):
    """Elements in index order that the earlier ones do not generate."""
    gens, closed = [], {M.zero}
    for x in range(len(M)):
        if x not in closed:
            gens.append(x)
            while True:
                grown = closed | {M.add[a][b] for a in closed for b in closed | {x}}
                if grown == closed:
                    break
                closed = grown
    return gens


def loop_generating_set(M):
    """The earlier ``_generating_set``: each element the closure reaches is
    added to every element reached so far, O(|M|^2)."""
    n = len(M)
    gens = []
    closed = {M.zero}
    for x in range(n):
        if x in closed:
            continue
        gens.append(x)
        frontier = [x]
        closed.add(x)
        while frontier:
            a = frontier.pop()
            for b in list(closed):
                c = M.add[a][b]
                if c not in closed:
                    closed.add(c)
                    frontier.append(c)
    return gens


def assert_generating_set_matches_the_loop(M):
    assert monoid._generating_set(M) == loop_generating_set(M)
    assert monoid._generating_set(reversed_copy(M)) == loop_generating_set(reversed_copy(M))


def test_generating_set_matches_the_loop_on_the_corpus_and_named_examples():
    graphs = random_sandpile_corpus() + list(named_examples().values())
    for g in graphs:
        for M in realization_monoids(g):
            assert_generating_set_matches_the_loop(M)
    for orders in ([2, 3], [3, 3, 4], [2, 2, 2, 2]):
        assert_generating_set_matches_the_loop(direct_sum_of_cyclic(orders))


@settings(max_examples=40, deadline=None)
@given(small_sandpile_graphs())
def test_generating_set_matches_the_loop_on_generated_graphs(g):
    for M in realization_monoids(g):
        assert_generating_set_matches_the_loop(M)


@pytest.mark.parametrize("value", [-1, 4])
def test_generating_set_rejects_an_element_outside_the_table(value):
    M = corrupted_copy(cyclic_monoid(4), 1, 1, value)
    with pytest.raises(errors.CertificateFailed):
        monoid._generating_set(M)


def reference_monoid_isomorphic(M1, M2):
    """Oracle for monoid_isomorphic: backtracking over profile-compatible
    images of the generators, each choice closed under sums of the elements
    mapped so far, and the whole table checked at the end."""
    n = len(M1)
    if n != len(M2):
        return None
    p1, p2 = reference_profiles(M1), reference_profiles(M2)
    if sorted(p1) != sorted(p2):
        return None
    gens = reference_generating_set(M1)
    add1, add2 = M1.add, M2.add

    def close(phi, used, fresh):
        queue = list(fresh)
        while queue:
            b = queue.pop(0)
            for a in list(phi):
                c, pc = add1[a][b], add2[phi[a]][phi[b]]
                if c in phi:
                    if phi[c] != pc:
                        return False
                elif pc in used or p1[c] != p2[pc]:
                    return False
                else:
                    phi[c] = pc
                    used.add(pc)
                    queue.append(c)
        return True

    def backtrack(k, phi, used):
        if k == len(gens):
            if len(phi) == n and all(phi[add1[a][b]] == add2[phi[a]][phi[b]]
                                     for a in range(n) for b in range(n)):
                return [phi[x] for x in range(n)]
            return None
        for image in range(n):
            if image in used or p2[image] != p1[gens[k]]:
                continue
            phi2, used2 = dict(phi), used | {image}
            phi2[gens[k]] = image
            if close(phi2, used2, [gens[k]]):
                result = backtrack(k + 1, phi2, used2)
                if result is not None:
                    return result
        return None

    return backtrack(0, {M1.zero: M2.zero}, {M2.zero})


def reference_classify_cyclic_sum(M):
    """Oracle for classify_cyclic_sum: every factorisation of |M| into
    orders whose groups multiply to the size of the smallest ideal, tried
    against the table of that direct sum by the reference search."""
    n, add = len(M), M.add
    if n == 1:
        return []
    conical = [a for a in range(n) if M.zero in add[a]] == [M.zero]
    if not conical or atoms(M):
        return None
    ideal_size = len(smallest_ideal(M).elements)

    def factorizations(remaining, least):
        if remaining == 1:
            yield []
        for f in range(least, remaining + 1):
            if remaining % f == 0:
                for rest in factorizations(remaining // f, f):
                    yield [f] + rest

    for orders in factorizations(n, 2):
        if prod(o - 1 for o in orders) != ideal_size:
            continue
        if reference_monoid_isomorphic(M, direct_sum_of_cyclic(orders)) is not None:
            return orders
    return None


def assert_isomorphism_matches_reference(M1, M2):
    mapping = monoid_isomorphic(M1, M2)
    assert mapping == reference_monoid_isomorphic(M1, M2)
    if mapping is not None:
        n = len(M1)
        assert sorted(mapping) == list(range(n))
        assert all(mapping[M1.add[a][b]] == M2.add[mapping[a]][mapping[b]]
                   for a in range(n) for b in range(n))
    return mapping


def assert_cyclic_sum_matches_reference(M):
    orders = classify_cyclic_sum(M)
    assert orders == reference_classify_cyclic_sum(M)
    return orders


def realization_monoids(g):
    """The sandpile monoid, the side that ``realization`` compares (the
    monoid itself, or modulo its units when not conical), and the
    presentation monoid of the quotient graph."""
    sp = enumerate_sandpile_monoid(g)
    left = sp if units(sp) == [sp.zero] else quotient_by_submonoid(sp, units(sp))
    q = quotient_graph(g, non_cycle_vertices(g))
    return sp, left, enumerate_weighted_monoid(q, sink_relations=False)


def assert_graph_monoids_match_reference(g):
    """Both searches of ``realization`` and of sp against the reduced graph's
    sp, and the cyclic-sum verdict of every monoid involved; returns those
    verdicts."""
    sp, left, presented = realization_monoids(g)
    reduced = enumerate_sandpile_monoid(reduce_graph(g))
    assert assert_isomorphism_matches_reference(left, presented) is not None
    assert assert_isomorphism_matches_reference(sp, reduced) is not None
    return [assert_cyclic_sum_matches_reference(M)
            for M in {id(M): M for M in (sp, left, presented, reduced)}.values()]


def test_isomorphism_and_cyclic_sum_match_reference_on_the_corpus():
    verdicts = []
    for g in random_sandpile_corpus():
        verdicts += assert_graph_monoids_match_reference(g)
    assert any(v is None for v in verdicts)
    assert any(v and len(v) > 1 for v in verdicts)


def test_isomorphism_and_cyclic_sum_match_reference_on_named_examples():
    verdicts = [v for g in named_examples().values()
                for v in assert_graph_monoids_match_reference(g)]
    assert [4] in verdicts and None in verdicts


def test_isomorphism_and_cyclic_sum_match_reference_on_cycle_unions():
    for g in two_cycle_unions():
        M = enumerate_sandpile_monoid(g)
        orders = assert_cyclic_sum_matches_reference(M)
        assert prod(orders) == 128
        assert assert_isomorphism_matches_reference(
            M, direct_sum_of_cyclic(orders[::-1])) is not None


def reversed_copy(M):
    """M with its element indices in reverse order."""
    n = len(M)
    last = n - 1
    return FiniteCommMonoid(
        add=[[last - M.add[last - a][last - b] for b in range(n)] for a in range(n)],
        zero=last - M.zero, labels=M.labels[::-1],
    )


def test_atoms_and_units_do_not_depend_on_where_zero_sits():
    for M in [monogenic_monoid(2, 3), monogenic_monoid(4, 2),
              direct_sum(monogenic_monoid(2, 3), cyclic_group_monoid(2)),
              enumerate_sandpile_monoid(make_t_graph())]:
        R, last = reversed_copy(M), len(M) - 1
        assert atoms(M)
        assert atoms(R) == sorted(last - a for a in atoms(M))
        assert units(R) == sorted(last - u for u in units(M))


def test_isomorphism_and_cyclic_sum_match_reference_on_direct_sums():
    monoids = [direct_sum_of_cyclic(orders) for orders in
               ([2, 3], [3, 2], [6], [2, 2], [4], [2, 2, 3], [3, 4], [2, 6],
                [12], [5, 6], [6, 5])]
    # zero last, and the group identity first among its group's elements
    monoids += [reversed_copy(M) for M in monoids[:6]] + [reversed_copy(cyclic_monoid(5))]
    monoids += [monogenic_monoid(i, p) for i in range(4) for p in range(1, 5)]
    monoids += [direct_sum(monogenic_monoid(2, 3), cyclic_monoid(3)),
                direct_sum(cyclic_group_monoid(2), cyclic_monoid(4)),
                direct_sum(cyclic_monoid(4), cyclic_group_monoid(2)),
                direct_sum(monogenic_monoid(1, 2), monogenic_monoid(3, 2)),
                direct_sum(cyclic_group_monoid(2), cyclic_group_monoid(2)),
                trivial_monoid()]
    found = 0
    for M1 in monoids:
        assert_cyclic_sum_matches_reference(M1)
        for M2 in monoids:
            if len(M1) == len(M2):
                found += assert_isomorphism_matches_reference(M1, M2) is not None
    # every monoid is isomorphic to itself, and the sums taken in either
    # order to each other
    assert found > len(monoids)


@settings(max_examples=40, deadline=None)
@given(small_sandpile_graphs())
def test_isomorphism_and_cyclic_sum_match_reference_on_generated_graphs(g):
    sp = enumerate_sandpile_monoid(g)
    reduced = enumerate_sandpile_monoid(reduce_graph(g))
    assert assert_isomorphism_matches_reference(sp, reduced) is not None
    assert_cyclic_sum_matches_reference(sp)
    assert_cyclic_sum_matches_reference(reduced)


def test_cyclic_sum_needs_the_sum_map_to_be_bijective():
    # C2 + C3 with (a, b) and (a, 2b) made one element t, plus an element u
    # that absorbs every nonzero element: a and 2b are the minimal nonzero
    # idempotents, {a} and {b, 2b} their groups, and 2 * 3 = 6 elements, but
    # the sums 0, b, 2b, a, a + b, a + 2b miss u
    #     0  a  b 2b  t  u
    add = [[0, 1, 2, 3, 4, 5],
           [1, 1, 4, 4, 4, 5],
           [2, 4, 3, 2, 4, 5],
           [3, 4, 2, 3, 4, 5],
           [4, 4, 4, 4, 4, 5],
           [5, 5, 5, 5, 5, 5]]
    M = FiniteCommMonoid(add=add, zero=0, labels=["0", "a", "b", "2b", "t", "u"])
    verify_monoid(M)
    assert classify_cyclic_sum(M) is None
    assert reference_classify_cyclic_sum(M) is None


def test_induced_map_rejects_what_no_homomorphism_gives():
    c4, z4 = cyclic_monoid(4), cyclic_group_monoid(4)
    # 3x + x = x in C4, but 3 + 1 = 0 in Z/4
    assert monoid._induced_map(c4, z4, [(1, 1)]) is None
    # 2 and 0 both go to 0 in Z/2
    assert monoid._induced_map(z4, cyclic_group_monoid(2), [(1, 1)]) is None
    assert monoid._induced_map(z4, z4, [(1, 3)]) == {0: 0, 1: 3, 2: 2, 3: 1}
    # one summand's generator reaches only that summand
    m = direct_sum_of_cyclic([2, 3])
    phi = monoid._induced_map(m, m, [(1, 1)])
    assert sorted(phi) == [0, 1, 2] and len(m) == 6


# ------------------------------------------------- prime-order certificates


PRIME_CORRUPTION = (
    "import dataclasses\n"
    "from sandmon import errors, realize\n"
    "from sandmon.graph import loop_sink_graph\n"
    "fired = realize.stabilize\n"
    "def corrupted(g, c):\n"
    "    trace = fired(g, c)\n"
    "    result = (trace.result[0] + 1,) + trace.result[1:]\n"
    "    return dataclasses.replace(trace, result=result)\n"
    "realize.stabilize = corrupted\n"
    "try:\n"
    "    realize.prime_order_case(loop_sink_graph(2, 3))\n"
    "except errors.CertificateFailed as exc:\n"
    "    print(exc)\n"
)


def test_prime_order_certificate_can_fail(monkeypatch):
    from sandmon import realize

    fired = realize.stabilize
    cases = {}
    for g in (loop_sink_graph(2, 3), validate_sandpile(
            WeightedDigraph(["x", "s"], [("x", "s", 1)] * 5))):
        cases[realize.prime_order_case(g).kind] = g
    assert sorted(cases) == ["cyclic_group", "monogenic"]

    def corrupted(g, c):
        # one grain too many left on x
        trace = fired(g, c)
        result = (trace.result[0] + 1,) + trace.result[1:]
        return dataclasses.replace(trace, result=result)

    monkeypatch.setattr(realize, "stabilize", corrupted)
    with pytest.raises(errors.CertificateFailed,
                       match=r"^5x stabilises to 3x, not 2x$"):
        realize.prime_order_case(cases["monogenic"])
    with pytest.raises(errors.CertificateFailed,
                       match=r"^5x stabilises to x, not 0$"):
        realize.prime_order_case(cases["cyclic_group"])


def test_prime_order_certificate_runs_without_asserts():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", PRIME_CORRUPTION], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=path), check=True,
    )
    assert out.stdout == "5x stabilises to 3x, not 2x\n"


# ------------------------------------------------ quotients and table axioms


def test_quotient_by_units_matches_its_definition_on_the_corpus():
    """a ~ b iff a + i = b + j for units i, j; each class is named by its
    least element, and the quotient table adds classes."""
    checked = 0
    for g in random_sandpile_corpus():
        sp = enumerate_sandpile_monoid(g)
        unit_list = units(sp)
        if unit_list == [sp.zero]:
            continue
        Q = quotient_by_submonoid(sp, unit_list)
        n, add = len(sp), sp.add
        translates = [{add[a][i] for i in unit_list} for a in range(n)]
        least = [min(b for b in range(n) if translates[a] & translates[b])
                 for a in range(n)]
        assert len(Q) == len(set(least))
        project = [Q.labels.index(sp.labels[r]) for r in least]
        assert all(project[i] == Q.zero for i in unit_list)
        assert all(project[add[a][b]] == Q.add[project[a]][project[b]]
                   for a in range(n) for b in range(n))
        checked += 1
    assert checked >= 10


def associative(M):
    n, add = len(M), M.add
    return all(add[add[a][b]][c] == add[a][add[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def test_verify_monoid_is_exact_on_corrupted_tables():
    """Every symmetric change of one sum of nonzero elements: Light's test
    fails exactly when some triple is not associative."""
    outcomes = set()
    for M in [monogenic_monoid(2, 3), direct_sum_of_cyclic([2, 3]),
              cyclic_group_monoid(4)]:
        n = len(M)
        for a in range(n):
            for b in range(a, n):
                if M.zero in (a, b):
                    continue
                for value in range(n):
                    add = [list(row) for row in M.add]
                    add[a][b] = add[b][a] = value
                    broken = FiniteCommMonoid(add=add, zero=M.zero,
                                              labels=M.labels,
                                              generators=M.generators)
                    try:
                        verify_monoid(broken)
                        passed = True
                    except ValueError:
                        passed = False
                    assert passed == associative(broken), (M.labels, a, b, value)
                    outcomes.add(passed)
    assert outcomes == {True, False}


def test_verify_monoid_checks_large_tables_exactly():
    M = enumerate_sandpile_monoid(two_cycle_unions()[0])
    verify_monoid(M)
    # with 2x + 2x changed to x, (x + x) + 2x = x but x + (x + 2x) = 4x
    x = M.generators["c0v1"]
    two_x = M.add[x][x]
    broken = corrupted_copy(M, two_x, two_x, x)
    with pytest.raises(ValueError, match="not associative"):
        verify_monoid(broken)
