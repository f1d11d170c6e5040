import os
import random
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sandmon import errors, ktheory
from sandmon.graph import (
    WeightedDigraph,
    conical_violations,
    loop_sink_graph,
    non_cycle_vertices,
    parse_graph,
    quotient_graph,
    validate_sandpile,
)
from sandmon.ktheory import (
    cokernel,
    diagonal_from_invariants,
    identity_matrix,
    k0_matrix,
    sandpile_k0_matrix,
    smith_diagonal,
    smith_normal_form,
)
from sandmon.monoid import AbelianGroupInvariants, smallest_ideal
from sandmon.monoid import enumerate_sandpile_monoid

from reference import (
    complete_graph,
    determinant,
    grid_graph,
    ideal_matches_invariants,
    make_t_graph,
    mat_mul,
    random_sandpile_corpus,
    rose_graph,
    row_laplacian,
    snf_diagonal,
)

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def triangle_weight3():
    t = make_t_graph()
    return quotient_graph(t, non_cycle_vertices(t))


def adjacency(g):
    """Reference: entry (i, j) counts edges from vertex i to vertex j;
    parallel edges count with multiplicity, edge weights are not multiplied
    in."""
    n = g.n_vertices
    N = [[0] * n for _ in range(n)]
    for s, r, _ in g.edges:
        N[s][r] += 1
    return N


def reference_k0_matrix(g):
    """Adjacency transpose minus the diagonal vertex weight matrix, with the
    columns of sink vertices dropped."""
    N = adjacency(g)
    regular = g.regular_vertices()
    return [[N[v][i] - (g.weight(v) if v == i else 0) for v in regular]
            for i in range(g.n_vertices)]


def test_adjacency_examples():
    g = loop_sink_graph(2, 3)
    assert adjacency(g) == [[2, 3], [0, 0]]
    assert adjacency(WeightedDigraph(["a", "b"], [])) == [[0, 0], [0, 0]]
    q = triangle_weight3()
    assert adjacency(q) == [[0, 1, 1], [1, 1, 0], [1, 0, 1]]


def test_k0_matrix_examples():
    assert k0_matrix(rose_graph(1, 4)) == [[-3]]
    assert k0_matrix(triangle_weight3()) == [[-3, 1, 1], [1, -2, 0], [1, 0, -2]]
    sinks_only = WeightedDigraph(["a", "b"], [])
    assert k0_matrix(sinks_only) == [[], []]
    assert cokernel(k0_matrix(sinks_only)) == AbelianGroupInvariants((), 2)


def test_k0_matrix_is_the_adjacency_transpose_minus_the_weights():
    graphs = list(random_sandpile_corpus())
    graphs += [quotient_graph(g, non_cycle_vertices(g)) for g in graphs
               if not conical_violations(g)]
    grids = [grid_graph(n, n) for n in (2, 5, 9)] + [grid_graph(2, 7)]
    graphs += grids + [quotient_graph(g, non_cycle_vertices(g)) for g in grids]
    two_sinks = parse_graph((GOLDEN_INPUTS / "weighted_sinks.sg").read_text())[0]
    graphs += [two_sinks, loop_sink_graph(2, 3), rose_graph(1, 4), triangle_weight3(),
               WeightedDigraph(["a", "b"], [])]
    for g in graphs:
        assert k0_matrix(g) == reference_k0_matrix(g)


def test_k0_matrix_requires_vertex_weighted():
    g = WeightedDigraph(["a", "b"], [("a", "b", 1), ("a", "b", 2)])
    with pytest.raises(errors.BadParameters):
        k0_matrix(g)


def _check_certificate(A):
    U, S, V = smith_normal_form(A)
    assert mat_mul(mat_mul(U, A), V) == S
    assert abs(determinant(U)) == 1
    assert abs(determinant(V)) == 1
    diag = snf_diagonal(S)
    for i in range(len(S)):
        for j in range(len(S[0]) if S else 0):
            if i != j:
                assert S[i][j] == 0
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d]
    assert diag[:len(nonzero)] == nonzero, "zeros must trail"
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert_diagonal_matches(A, diag)
    n = len(A[0]) if A else 0
    assert diagonal_from_invariants(cokernel(A), len(A), n) == diag
    return diag


def assert_diagonal_matches(A, expected=None):
    """smith_diagonal equals the diagonal of the certified SNF."""
    if expected is None:
        expected = snf_diagonal(smith_normal_form(A)[1])
    assert smith_diagonal(A) == expected


def test_snf_hand_cases():
    assert _check_certificate([[2, 0], [0, 3]]) == [1, 6]
    U, S, V = smith_normal_form(identity_matrix(3))
    assert S == identity_matrix(3)
    assert _check_certificate([[0]]) == [0]
    assert _check_certificate([[2, 4], [6, 8]]) == [2, 4]
    assert _check_certificate([]) == []
    assert _check_certificate([[0, 0], [0, 0]]) == [0, 0]
    assert _check_certificate([[1, 2, 3]]) == [1]
    assert _check_certificate([[60]]) == [60]


def test_snf_random_matrices():
    rng = random.Random(2024)
    for _ in range(150):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        _check_certificate(A)


def test_determinant_bareiss():
    assert determinant([[2, 0], [0, 3]]) == 6
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([]) == 1
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 4)
        A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        # cofactor expansion as the independent oracle
        def cofactor_det(M):
            if len(M) == 1:
                return M[0][0]
            total = 0
            for j in range(len(M)):
                minor = [row[:j] + row[j + 1:] for row in M[1:]]
                total += (-1) ** j * M[0][j] * cofactor_det(minor)
            return total
        assert determinant(A) == cofactor_det(A)


def _random_unimodular(rng, n):
    M = identity_matrix(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-2, 2)
        for k in range(n):
            M[i][k] += q * M[j][k]
    return M


def test_cokernel_invariance():
    rng = random.Random(99)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        base = cokernel(A)
        P = _random_unimodular(rng, m)
        Q = _random_unimodular(rng, n)
        assert cokernel(mat_mul(mat_mul(P, A), Q)) == base
        rows = list(range(m))
        cols = list(range(n))
        rng.shuffle(rows)
        rng.shuffle(cols)
        permuted = [[A[i][j] for j in cols] for i in rows]
        assert cokernel(permuted) == base


def test_cokernel_examples():
    for n in range(2, 7):
        inv = cokernel([[1 - n]])
        expected = AbelianGroupInvariants((n - 1,), 0) if n > 2 else AbelianGroupInvariants((), 0)
        assert inv == expected
    assert cokernel([[0]]) == AbelianGroupInvariants((), 1)


def test_k0_of_rose_matches_cyclic_group():
    for n in range(2, 7):
        inv = cokernel(k0_matrix(rose_graph(1, n)))
        if n == 2:
            assert inv == AbelianGroupInvariants((), 0)
        else:
            assert inv == AbelianGroupInvariants((n - 1,), 0)


def test_sandpile_group_via_k0_loop_sink():
    for n in range(1, 5):
        for k in range(1, 5):
            inv = cokernel(sandpile_k0_matrix(loop_sink_graph(n, k)))
            expected = AbelianGroupInvariants((k,), 0) if k > 1 else AbelianGroupInvariants((), 0)
            assert inv == expected


def test_sandpile_group_via_k0_t_matches_brute_force():
    t = make_t_graph()
    via_k0 = cokernel(sandpile_k0_matrix(t))
    sp = enumerate_sandpile_monoid(t)
    assert ideal_matches_invariants(sp, smallest_ideal(sp), via_k0)
    assert via_k0.free_rank == 0


def test_sandpile_group_via_k0_rejects_non_conical():
    zp = validate_sandpile(WeightedDigraph(["x", "s"], [("x", "s", 1)] * 5))
    with pytest.raises(errors.NotConical) as info:
        cokernel(sandpile_k0_matrix(zp))
    assert info.value.witnesses == ["x"]


# ------------------------------------------------- the SNF diagonal alone


def test_non_integer_entries_are_rejected():
    # None and '' test false, like 0, but are no integers either
    for matrix in ([[2.5]], [[2, 0], [0, 3.0]], [["3"]], [[1, 0.5]], [[1, None]],
                   [[2, None], [None, 3]], [["", 1]]):
        for f in (smith_diagonal, smith_normal_form, cokernel):
            with pytest.raises(errors.BadParameters) as info:
                f(matrix)
            assert str(info.value) == "matrix entries must be integers"
    # entries equal to 0 read as 0
    assert smith_diagonal([[0, 0.0], [False, 3]]) == [3, 0]


def test_ragged_matrices_are_rejected():
    ragged = [[1, 2], [3]]
    for f in (smith_diagonal, smith_normal_form, cokernel, determinant):
        with pytest.raises(errors.BadParameters):
            f(ragged)
    with pytest.raises(errors.BadParameters):
        determinant([[1, 2]])
    with pytest.raises(errors.BadParameters):
        mat_mul([[1, 2]], [[1, 2]])
    with pytest.raises(errors.BadParameters):
        mat_mul(identity_matrix(2), ragged)


@st.composite
def integer_matrices(draw):
    """Matrices up to 6x6, empty ones included, with small and large entries;
    some have a zero row or a row that is a multiple of another, so many are
    singular."""
    m = draw(st.integers(0, 6))
    n = draw(st.integers(0, 6))
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-10 ** 6, 10 ** 6))
    A = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if m >= 2 and draw(st.booleans()):
        k = draw(st.integers(-3, 3))
        A[1] = [k * x for x in A[0]]
    if m and draw(st.booleans()):
        A[draw(st.integers(0, m - 1))] = [0] * n
    return A


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_smith_diagonal_matches_the_certified_snf_on_generated_matrices(A):
    assert_diagonal_matches(A)


@st.composite
def sparse_pattern_matrices(draw):
    """Square blocks up to 12x12 on the pattern of a path, a cycle or a grid,
    with +-1 off the diagonal in each direction (sometimes 0 or +-2) and
    small diagonal entries, under a relabelling of the indices; half have
    up to three more rows than columns, as a k0 matrix of a graph with sinks
    has.  The BFS front of smith_diagonal finds its pivots on such
    matrices."""
    kind = draw(st.sampled_from(["path", "cycle", "grid"]))
    if kind == "grid":
        r, c = draw(st.integers(1, 3)), draw(st.integers(1, 4))
        n = r * c
        edges = [(i * c + j, i * c + j + 1) for i in range(r) for j in range(c - 1)]
        edges += [(i * c + j, (i + 1) * c + j) for i in range(r - 1) for j in range(c)]
    else:
        n = draw(st.integers(1, 12))
        edges = [(i, i + 1) for i in range(n - 1)]
        if kind == "cycle" and n > 2:
            edges.append((n - 1, 0))
    label = draw(st.permutations(range(n)))
    extra = draw(st.one_of(st.just(0), st.integers(1, 3)))
    A = [[0] * n for _ in range(n + extra)]
    unit = st.sampled_from([-1, -1, 1, 1, 0, 2, -2])
    for i in range(n):
        A[label[i]][label[i]] = draw(st.integers(-5, 5))
    for a, b in edges:
        A[label[a]][label[b]] = draw(unit)
        A[label[b]][label[a]] = draw(unit)
    for i in range(n, n + extra):
        for j in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            A[i][j] += 1
    return A


@settings(max_examples=150, deadline=None)
@given(sparse_pattern_matrices())
def test_smith_diagonal_matches_on_sparse_pattern_matrices(A):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    expected = snf_diagonal(smith_normal_form(A)[1])
    assert smith_diagonal(A) == expected
    assert [int(d) for d in invariant_factors(sympy.Matrix(A), domain=sympy.ZZ)] == expected


def quotient_k0_matrix_unchecked(g):
    """The k0 matrix of the quotient by the no-cycle vertices, without the
    conical check of ``sandpile_k0_matrix``."""
    return k0_matrix(quotient_graph(g, non_cycle_vertices(g)))


def test_smith_diagonal_matches_on_the_corpus_k0_matrices():
    for g in random_sandpile_corpus():
        assert_diagonal_matches(k0_matrix(g))
        if not conical_violations(g):
            assert_diagonal_matches(quotient_k0_matrix_unchecked(g))


def test_smith_diagonal_matches_on_grids_and_complete_graphs():
    graphs = [grid_graph(n, n) for n in range(6, 15)]
    graphs += [complete_graph(n) for n in range(20, 101, 10)]
    for g in graphs:
        A = quotient_k0_matrix_unchecked(g)
        expected = snf_diagonal(smith_normal_form(A)[1])
        assert smith_diagonal(A) == expected
        # the reduced Laplacian, which ``group`` uses, has the same cokernel
        # and shape, so the same diagonal
        assert smith_diagonal(ktheory.reduced_laplacian(g)) == expected


def test_smith_diagonal_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    matrices = [k0_matrix(g) for g in random_sandpile_corpus(count=60)]
    matrices += [quotient_k0_matrix_unchecked(grid_graph(n, n + 1)) for n in range(2, 6)]
    for A in matrices:
        expected = [int(d) for d in invariant_factors(sympy.Matrix(A), domain=sympy.ZZ)]
        assert smith_diagonal(A) == expected


def test_sandpile_group_order_is_the_number_of_spanning_trees():
    # matrix-tree theorem: |SP(G)| = det of the reduced Laplacian
    for n in (15, 16):
        g = grid_graph(n, n)
        inv = cokernel(sandpile_k0_matrix(g))
        assert inv.free_rank == 0
        assert prod(inv.torsion) == determinant(row_laplacian(g))


SHAPE_CHECK_WITHOUT_ASSERTS = """
from sandmon import errors, ktheory
try:
    ktheory.smith_diagonal([[1, 2], [3]])
except errors.BadParameters:
    print('BadParameters')
"""


def test_shape_check_runs_without_asserts():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", SHAPE_CHECK_WITHOUT_ASSERTS], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=path), check=True,
    )
    assert out.stdout == "BadParameters\n"
