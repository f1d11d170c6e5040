"""Exact integer linear algebra for graph invariants.

Matrices are dense lists of lists of Python ints, so every computation here
is exact; no floating point is used anywhere in this module.  The Smith
normal form returns the unimodular transforms so that the factorisation can
be certified by multiplying back.
"""

from __future__ import annotations

from . import errors
from .graph import (
    SandpileGraph,
    WeightedDigraph,
    conical_violations,
    non_cycle_vertices,
    quotient_graph,
)
from .monoid import AbelianGroupInvariants

Matrix = list


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    if not A or not B:
        return [[0] * (len(B[0]) if B else 0) for _ in A]
    rows, inner, cols = len(A), len(B), len(B[0])
    assert all(len(r) == inner for r in A)
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        Ai = A[i]
        Oi = out[i]
        for k in range(inner):
            a = Ai[k]
            if a:
                Bk = B[k]
                for j in range(cols):
                    Oi[j] += a * Bk[j]
    return out


def determinant(A: Matrix) -> int:
    """Bareiss fraction-free determinant (exact)."""
    n = len(A)
    assert all(len(row) == n for row in A)
    if n == 0:
        return 1
    M = [list(map(int, row)) for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def is_unimodular(A: Matrix) -> bool:
    return abs(determinant(A)) == 1


def matrix_to_lines(A: Matrix) -> list:
    return [" ".join(str(x) for x in row) for row in A]


def smith_normal_form(A: Matrix):
    """Diagonalise A over the integers: returns (U, S, V) with U*A*V = S,
    U and V unimodular, S diagonal with non-negative entries forming a
    divisibility chain d1 | d2 | ... (zeros trailing).

    Pivoting picks the smallest nonzero absolute value in the remaining
    block, which keeps intermediate entries modest.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    assert all(len(row) == n for row in A)
    S = [list(map(int, row)) for row in A]
    U = identity_matrix(m)
    V = identity_matrix(n)

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def row_add(i, j, q):
        # row i += q * row j
        Si, Sj = S[i], S[j]
        for k in range(n):
            Si[k] += q * Sj[k]
        Ui, Uj = U[i], U[j]
        for k in range(m):
            Ui[k] += q * Uj[k]

    def col_add(i, j, q):
        # col i += q * col j
        for row in S:
            row[i] += q * row[j]
        for row in V:
            row[i] += q * row[j]

    def negate_row(i):
        S[i] = [-x for x in S[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    limit = min(m, n)
    while t < limit:
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = S[i][j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot != (t, t):
            if pivot[0] != t:
                swap_rows(t, pivot[0])
            if pivot[1] != t:
                swap_cols(t, pivot[1])

        while True:
            changed = False
            for i in range(t + 1, m):
                if S[i][t]:
                    q = S[i][t] // S[t][t]
                    if q:
                        row_add(i, t, -q)
                    if S[i][t]:
                        swap_rows(t, i)
                        changed = True
                        break
            if changed:
                continue
            for j in range(t + 1, n):
                if S[t][j]:
                    q = S[t][j] // S[t][t]
                    if q:
                        col_add(j, t, -q)
                    if S[t][j]:
                        swap_cols(t, j)
                        changed = True
                        break
            if changed:
                continue
            # force the pivot to divide the remaining block
            offender = None
            p = S[t][t]
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if S[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(t, offender, 1)
        if S[t][t] < 0:
            negate_row(t)
        t += 1
    return U, S, V


def snf_diagonal(S: Matrix) -> list:
    return [S[i][i] for i in range(min(len(S), len(S[0]) if S else 0))]


def invariants_from_diagonal(diag, rows: int) -> AbelianGroupInvariants:
    """Invariant factors and free rank of Z^rows / image(A), read off the
    SNF diagonal of A."""
    torsion = tuple(d for d in diag if d > 1)
    nonzero = sum(1 for d in diag if d)
    return AbelianGroupInvariants(torsion=torsion, free_rank=rows - nonzero)


def cokernel(A: Matrix) -> AbelianGroupInvariants:
    """Invariant factors and free rank of Z^rows / image(A)."""
    _, S, _ = smith_normal_form(A)
    return invariants_from_diagonal(snf_diagonal(S), len(A))


# --------------------------------------------------------------- graph matrices


def adjacency(g: WeightedDigraph) -> Matrix:
    """Entry (i, j) counts edges from vertex i to vertex j; parallel edges
    count with multiplicity, edge weights are not multiplied in."""
    n = g.n_vertices
    N = [[0] * n for _ in range(n)]
    for s, r, _ in g.edges:
        N[s][r] += 1
    return N


def k0_matrix(g: WeightedDigraph) -> Matrix:
    """Transpose of the adjacency matrix minus the diagonal vertex weight
    matrix, with the columns of sink vertices removed."""
    if not g.is_vertex_weighted():
        raise errors.BadParameters("graph is not vertex weighted")
    N = adjacency(g)
    regular = g.regular_vertices()
    n = g.n_vertices
    out = [[0] * len(regular) for _ in range(n)]
    for col, v in enumerate(regular):
        w = g.weight(v)
        for i in range(n):
            out[i][col] = N[v][i] - (w if v == i else 0)
    return out


def k0_of_weighted_graph(g: WeightedDigraph) -> AbelianGroupInvariants:
    return cokernel(k0_matrix(g))


def sandpile_group_via_k0(g: SandpileGraph) -> AbelianGroupInvariants:
    """Invariant factors of the sandpile group computed through the quotient
    by the no-cycle vertex set and the cokernel of its weight matrix.
    Requires a conical sandpile graph."""
    bad = conical_violations(g)
    if bad:
        raise errors.NotConical([g.names[v] for v in bad])
    S = non_cycle_vertices(g)
    q = quotient_graph(g, S)
    return cokernel(k0_matrix(q))
