import os
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from sandmon import errors, monoid
from sandmon.graph import (
    WeightedDigraph,
    loop_sink_graph,
    non_cycle_vertices,
    quotient_graph,
    rose_graph,
    validate_sandpile,
)
from sandmon.monoid import (
    DEFAULT_SANDPILE_CAP,
    AbelianGroupInvariants,
    FiniteCommMonoid,
    abelian_invariants,
    atoms,
    classify_cyclic_sum,
    cyclic_group_monoid,
    cyclic_monoid,
    direct_sum,
    direct_sum_of_cyclic,
    enumerate_sandpile_monoid,
    enumerate_weighted_monoid,
    group_completion,
    is_atom_cancellative,
    is_conical,
    is_refinement,
    monogenic_monoid,
    monoid_isomorphic,
    quotient_by_submonoid,
    refine_equation,
    smallest_ideal,
    trivial_monoid,
    units,
    verify_monoid,
)
from sandmon.realize import make_t_graph, random_sandpile_corpus
from sandmon.rewrite import _stable_form, format_element

SRC = Path(__file__).resolve().parent.parent / "src"


def diverging_graph():
    return WeightedDigraph(
        ["u", "v"],
        [("u", "u", 2), ("u", "v", 2), ("u", "v", 2), ("v", "u", 2), ("v", "v", 2)],
    )


def complete_triangle():
    return WeightedDigraph(
        ["v1", "v2", "v3"],
        [("v1", "v2", 1), ("v1", "v3", 1),
         ("v2", "v3", 1), ("v2", "v1", 1),
         ("v3", "v1", 1), ("v3", "v2", 1)],
    )


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
        assert units(m) == [0]
        assert is_conical(m)
    z5 = cyclic_group_monoid(5)
    assert units(z5) == list(range(5))
    assert not is_conical(z5)
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
    assert is_conical(M)
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
    with pytest.raises(errors.SizeOverBudget):
        monoid_isomorphic(cyclic_monoid(5), cyclic_monoid(5), cap=3)


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


def grid_graph(rows, cols):
    """Each cell sends one grain to each of its four neighbours; boundary
    cells send the grains of their missing neighbours to the sink."""
    names = [f"r{i}c{j}" for i in range(rows) for j in range(cols)] + ["s"]
    edges = []
    for i in range(rows):
        for j in range(cols):
            for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                inside = 0 <= a < rows and 0 <= b < cols
                edges.append((f"r{i}c{j}", f"r{a}c{b}" if inside else "s", 1))
    return validate_sandpile(WeightedDigraph(names, edges))


def complete_graph(n):
    """K_n with the last vertex made the sink (its outgoing edges dropped)."""
    names = [f"v{i}" for i in range(n - 1)] + ["s"]
    edges = [(u, t, 1) for u in names[:-1] for t in names if t != u]
    return validate_sandpile(WeightedDigraph(names, edges))


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


@st.composite
def small_sandpile_graphs(draw):
    """A random sandpile graph on 2-6 vertices, the sink at a random index,
    whose monoid has at most 256 elements."""
    n = draw(st.integers(2, 6))
    perm = draw(st.permutations(range(n)))
    edges = []
    for v in range(n - 1):
        # one edge to a higher position lets every vertex reach the sink,
        # which sits at the last position
        edges.append((v, draw(st.integers(v + 1, n - 1))))
        edges.extend((v, t) for t in draw(st.lists(st.integers(0, n - 1), max_size=4)))
    g = validate_sandpile(WeightedDigraph(
        [f"v{i}" for i in range(n)], [(perm[s], perm[t], 1) for s, t in edges]
    ))
    assume(prod(g.out_degree(v) for v in g.non_sink_vertices()) <= 256)
    return g


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
    # 4^7 elements: refused before any stabilisation, naming the flag
    with pytest.raises(errors.SizeOverBudget, match="--cap"):
        enumerate_sandpile_monoid(grid_graph(1, 7))


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
