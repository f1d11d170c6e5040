"""Acceptance suite: one test per criterion, exact expected values, no
tolerances.  Each test prints a PASS line once its assertions all hold."""

import random
from math import prod

import pytest

from sandmon import errors
from sandmon.graph import (
    WeightedDigraph,
    loop_sink_graph,
    non_cycle_vertices,
    reduce_graph,
    validate_sandpile,
    weighted_cycle_graph,
)
from sandmon.ktheory import (
    cokernel,
    identity_matrix,
    sandpile_k0_matrix,
    smith_diagonal,
    smith_normal_form,
)
from sandmon.monoid import (
    AbelianGroupInvariants,
    abelian_invariants,
    atoms,
    classify_cyclic_sum,
    enumerate_sandpile_monoid,
    enumerate_weighted_monoid,
    group_completion,
    is_refinement,
    monoid_isomorphic,
    smallest_ideal,
    units,
)
from sandmon.realize import (
    conicality_report,
    cycle_suite,
    prime_order_case,
    realization,
)
from sandmon.rewrite import (
    config_from_counts,
    stabilize,
    stabilize_weighted,
)

from reference import (
    complete_triangle,
    cyclic_group_monoid,
    determinant,
    diverging_graph,
    firing_path,
    is_atom_cancellative,
    make_t_graph,
    mat_mul,
    monogenic_monoid,
    potential,
    random_sandpile_corpus,
    refine_equation,
    snf_diagonal,
)


def _announce(number, message):
    print(f"ACCEPTANCE {number}: PASS - {message}")


def _invariants(k):
    return AbelianGroupInvariants((k,), 0) if k > 1 else AbelianGroupInvariants((), 0)


def test_criterion_1_loop_sink_realization():
    for n in range(1, 6):
        for k in range(1, 6):
            g = loop_sink_graph(n, k)
            sp = enumerate_sandpile_monoid(g)
            assert len(sp) == n + k
            assert monoid_isomorphic(sp, monogenic_monoid(n, k)) is not None

            ideal = smallest_ideal(sp)
            assert len(ideal.elements) == k
            multiples = [t for t in range(n, n + k) if t % k == 0]
            assert len(multiples) == 1
            assert sp.reps[ideal.identity][0] == multiples[0]
            assert abelian_invariants(ideal.group) == _invariants(k)

            report = realization(g)
            assert report.ok
            assert report.conical
            assert report.k0 == _invariants(k)
    _announce(1, "loop-sink family realized for all 1 <= n,k <= 5")


def test_criterion_2_t_graph():
    t = make_t_graph()
    sp = enumerate_sandpile_monoid(t)
    assert len(sp) == 27

    report = realization(t)
    assert report.ok

    brute = abelian_invariants(smallest_ideal(sp).group)
    assert group_completion(sp) == brute
    assert cokernel(sandpile_k0_matrix(t)) == brute
    _announce(2, "size 27, realization verdicts OK, invariants agree on all routes")


def test_criterion_3_diverging_weighted_graph():
    g = diverging_graph()
    M = enumerate_weighted_monoid(g)
    assert sorted(M.labels) == ["0", "2u", "2v", "u", "v"]
    assert len(M) == 5
    assert units(M) == [M.zero]
    assert sorted(M.labels[a] for a in atoms(M)) == ["u", "v"]

    ok, witness = is_refinement(M)
    assert not ok and witness is not None
    u = M.generators["u"]
    two_v = M.labels.index("2v")
    assert M.add[u][u] == M.add[u][two_v]
    assert refine_equation(M, u, u, u, two_v) is None

    cancellative, _ = is_atom_cancellative(M)
    assert not cancellative

    c = config_from_counts(g, {"u": 2})
    for budget in (1, 2, 10, 100, 1000, 10000):
        with pytest.raises(errors.BudgetExhausted):
            stabilize_weighted(g, c, step_budget=budget)
    _announce(3, "weighted monoid is exactly {0, u, v, 2u, 2v}; 2u never stabilizes")


def test_criterion_4_weighted_cycle_suite():
    report = cycle_suite([2, 2, 1])
    assert report.order == 4
    assert report.sizes == {
        "weighted_cycle": 4, "unweighted_companion": 4, "sandpile_companion": 4
    }
    assert report.ok

    with pytest.raises(errors.BadParameters):
        cycle_suite([1, 1, 1])
    with pytest.raises(errors.BadParameters):
        weighted_cycle_graph([1, 1])
    _announce(4, "weights (2,2,1) give three verified C4 isomorphisms; all-ones rejected")


def test_criterion_5_unweighted_triangle_monoid():
    MF = enumerate_weighted_monoid(complete_triangle(), sink_relations=False)
    assert len(MF) == 5
    assert group_completion(MF) == AbelianGroupInvariants((2, 2), 0)
    assert classify_cyclic_sum(MF) is None

    classified = 0
    for g in random_sandpile_corpus():
        sp = enumerate_sandpile_monoid(g)
        refinement, _ = is_refinement(sp)
        result = classify_cyclic_sum(sp)
        if refinement and units(sp) == [sp.zero]:
            assert result is not None
            classified += 1
        elif not refinement:
            assert result is None
    assert classified >= 1
    _announce(5, "triangle monoid has size 5 with Z/2 x Z/2 completion and no "
                 "cyclic-sum form; corpus conical refinement monoids all classify")


def test_criterion_6_prime_classification():
    for p in (2, 3, 5, 7):
        for l in range(1, p):
            g = loop_sink_graph(p - l, l)
            case = prime_order_case(g)
            assert case.kind == "monogenic"
            assert case.size == p
            assert case.loops == p - l and case.sink_edges == l
            assert conicality_report(g)[0]
        zp = validate_sandpile(WeightedDigraph(["x", "s"], [("x", "s", 1)] * p))
        case = prime_order_case(zp)
        assert case.kind == "cyclic_group" and case.size == p
        sp = enumerate_sandpile_monoid(zp)
        assert units(sp) == list(range(p))
        assert not conicality_report(zp)[0]
        assert monoid_isomorphic(sp, cyclic_group_monoid(p)) is not None
    _announce(6, "two-vertex graphs of prime order classify and verify for "
                 "p in {2,3,5,7}")


def test_criterion_7_property_suite_on_seeded_corpus():
    corpus = random_sandpile_corpus()
    assert len(corpus) >= 200
    rng = random.Random(20260810)
    for index, g in enumerate(corpus):
        context = f"corpus[{index}]"
        n = g.n_vertices
        sink = g.sink
        non_sink = g.non_sink_vertices()
        sp = enumerate_sandpile_monoid(g)

        # (a) size formula
        assert len(sp) == prod(g.out_degree(v) for v in non_sink), context

        # random start configuration shared by (b), (c), (d)
        c = tuple(
            rng.randrange(0, 2 * g.out_degree(v)) if v != sink else 0
            for v in range(n)
        )
        reference = stabilize(g, c)

        # (b) abelian: 1000 random toppling orders, identical result and odometer
        data = [
            (g.weight(v), g.out_targets[v]) if v != sink else None
            for v in range(n)
        ]
        for _ in range(1000):
            counts = list(c)
            odometer = [0] * n
            while True:
                unstable = [
                    v for v in range(n)
                    if data[v] is not None and counts[v] >= data[v][0]
                ]
                if not unstable:
                    break
                v = rng.choice(unstable)
                w, targets = data[v]
                counts[v] -= w
                for t in targets:
                    counts[t] += 1
                counts[sink] = 0
                odometer[v] += 1
            assert tuple(counts) == reference.result, context
            assert tuple(odometer) == reference.odometer, context

        # (c) + (d) along the sink-retained trajectory that fires one vertex
        # at a time
        path = firing_path(g, c)
        assert path[-1] == stabilize(g, c, sink_absorbing=False).result, context
        for current, nxt in zip(path, path[1:]):
            assert sum(nxt) == sum(current), context
            assert potential(g, nxt) > potential(g, current), context

        # (e) units are exactly the classes of configurations supported on the
        # no-cycle vertex set
        S = non_cycle_vertices(g)
        expected_units = {
            i for i, rep in enumerate(sp.reps)
            if all(k == 0 for v, k in enumerate(rep) if v not in S)
        }
        assert set(units(sp)) == expected_units, context

        # (f) conical iff every non-sink no-cycle vertex is irrelevant
        conical_graph_side, _ = conicality_report(g)
        assert (units(sp) == [sp.zero]) == conical_graph_side, context

        # (g) refinement implies atom-cancellative; with conical and finite it
        # forbids atoms
        refinement, _ = is_refinement(sp)
        if refinement:
            cancellative, _ = is_atom_cancellative(sp)
            assert cancellative, context
            if units(sp) == [sp.zero]:
                assert atoms(sp) == [], context

        # (h) the three invariant routes agree on conical graphs
        if conical_graph_side:
            ideal = smallest_ideal(sp)
            brute = abelian_invariants(ideal.group)
            assert brute.order == len(ideal.elements), context
            assert group_completion(sp) == brute, context
            assert cokernel(sandpile_k0_matrix(g)) == brute, context
            assert brute.free_rank == 0, context

        # (i) reduction preserves the monoid
        reduced_sp = enumerate_sandpile_monoid(reduce_graph(g))
        assert monoid_isomorphic(sp, reduced_sp) is not None, context
    _announce(7, f"all property checks hold on {len(corpus)} corpus graphs")


def criterion_8_matrices():
    """The seeded random matrices of criterion 8: (trial, A, P, Q) for 1000
    trials, with random unimodular P and Q on every fifth trial and None
    otherwise."""
    rng = random.Random(48109)

    def random_unimodular(k):
        M = identity_matrix(k)
        for _ in range(3 * k):
            i, j = rng.randrange(k), rng.randrange(k)
            if i != j:
                q = rng.randint(-2, 2)
                for col in range(k):
                    M[i][col] += q * M[j][col]
        return M

    for trial in range(1000):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        if trial % 5 == 0:
            yield trial, A, random_unimodular(m), random_unimodular(n)
        else:
            yield trial, A, None, None


def test_criterion_8_snf_certificates():
    for trial, A, P, Q in criterion_8_matrices():
        m, n = len(A), len(A[0])
        U, S, V = smith_normal_form(A)
        assert mat_mul(mat_mul(U, A), V) == S, trial
        assert abs(determinant(U)) == 1, trial
        assert abs(determinant(V)) == 1, trial
        diag = snf_diagonal(S)
        assert all(d >= 0 for d in diag), trial
        nonzero = [d for d in diag if d]
        assert diag[:len(nonzero)] == nonzero, trial
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0, trial
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert S[i][j] == 0, trial
        assert smith_diagonal(A) == diag, trial

        if P is not None:
            base = cokernel(A)
            assert cokernel(mat_mul(mat_mul(P, A), Q)) == base, trial
    _announce(8, "1000 SNF certificates verified; cokernel is unimodular invariant")


def test_criterion_8_snf_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    for trial, A, _, _ in criterion_8_matrices():
        _, S, _ = smith_normal_form(A)
        expected = [int(d) for d in invariant_factors(sympy.Matrix(A), domain=sympy.ZZ)]
        assert snf_diagonal(S) == expected, trial
        assert smith_diagonal(A) == expected, trial
