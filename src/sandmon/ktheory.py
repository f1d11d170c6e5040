"""Exact integer linear algebra for graph invariants.

Matrices are dense lists of lists of Python ints, so every computation here
is exact; no floating point is used anywhere in this module.  The Smith
normal form returns the unimodular transforms so that the factorisation can
be certified by multiplying back; ``smith_diagonal`` returns its diagonal
alone, which is all a cokernel needs, and is what ``cokernel`` uses.
"""

from __future__ import annotations

from itertools import compress
from math import gcd
from operator import index

from . import errors
from .graph import (
    SandpileGraph,
    WeightedDigraph,
    _require_sandpile,
    conical_violations,
    non_cycle_vertices,
    quotient_graph,
)
from .monoid import AbelianGroupInvariants

Matrix = list


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _shape(A: Matrix) -> tuple:
    """(rows, columns) of A; BadParameters when its rows differ in length."""
    m = len(A)
    n = len(A[0]) if m else 0
    if any(len(row) != n for row in A):
        raise errors.BadParameters("the rows of the matrix differ in length")
    return m, n


def matrix_to_lines(A: Matrix) -> list:
    return [" ".join(str(x) for x in row) for row in A]


def smith_normal_form(A: Matrix):
    """Diagonalise A over the integers: returns (U, S, V) with U*A*V = S,
    U and V unimodular, S diagonal with non-negative entries forming a
    divisibility chain d1 | d2 | ... (zeros trailing).

    Pivoting picks the smallest nonzero absolute value in the remaining
    block, which keeps intermediate entries modest.
    """
    m, n = _shape(A)
    try:
        S = [list(map(index, row)) for row in A]
    except TypeError:
        raise errors.BadParameters("matrix entries must be integers") from None
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


def smith_diagonal(A: Matrix) -> list:
    """The diagonal of the Smith normal form of A, exactly and without the
    transforms: ones, then the invariant factors above one in divisibility
    order, then min(rows, columns) - rank zeros.  A non-integer entry, None
    among them, is BadParameters, and 0.0 reads as 0.

    The matrix is eliminated in sparse form, one pivot at a time, and each
    pivot adds one diagonal entry.  A +-1 pivot leaves a Schur complement
    with the same cokernel and adds a 1.  The elimination runs in two
    phases:

    - A front phase takes the columns in the order of a breadth-first level
      structure of the symmetric sparsity pattern, index i standing for
      both row i and column i (Cuthill and McKee 1969), so the active front
      stays narrow.  Column j is eliminated on a +-1 entry in a row whose
      level is strictly deeper than j's, the deepest and then the shortest
      such row; a column with no such entry is skipped.  On a dense matrix
      almost every index shares one level, so the phase does next to
      nothing and the second phase does the work.
    - What is left is eliminated on an entry of least absolute value, in a
      shortest row and then a shortest column (Markowitz's rule against
      fill-in), so every +-1 entry goes first.  A larger pivot is cleared
      from its column by row operations and from its row by column
      operations, and a nonzero remainder becomes the next pivot.

    No row is ever added to force divisibility: the entries are put into
    divisibility order by gcd and lcm at the end.

    The elimination is exact throughout.  Working modulo the determinant
    (Domich, Kannan and Trotter 1987) would bound the entries; without it
    they grow, on the 32x32 grid's reduced Laplacian to 146 bits by the end
    of the front phase and to 1,046 bits in the block after it, against a
    Hadamard bound of about 2,200 bits.
    """
    m, n = _shape(A)
    rows = {}
    cols = {}
    for i, row in enumerate(A):
        try:
            entries = {j: index(row[j]) for j in compress(range(n), row)}
        except TypeError:
            entries = None
        # the entries that test false are not read, so they must equal 0
        if entries is None or len(entries) + row.count(0) < n:
            raise errors.BadParameters("matrix entries must be integers")
        if entries:
            rows[i] = entries
            for j in entries:
                cols.setdefault(j, set()).add(i)
    factors = []
    level, front = _front(rows, cols, max(m, n))
    for j in front:
        # the deepest, then shortest, row below j with a +-1 in column j
        pivot = min(((-level[i], len(rows[i]), i) for i in cols.get(j, ())
                     if level[i] > level[j] and abs(rows[i][j]) == 1), default=None)
        if pivot:
            factors.append(abs(_eliminate(rows, cols, pivot[2], j)))
    while rows:
        i, j = _pivot(rows, cols)
        factors.append(abs(_eliminate(rows, cols, i, j)))
    rank = len(factors)
    chain = _divisibility_chain([d for d in factors if d > 1])
    return [1] * (rank - len(chain)) + chain + [0] * (min(m, n) - rank)


def _front(rows: dict, cols: dict, size: int) -> tuple:
    """Breadth-first levels of the indices 0..size-1, index i adjacent to j
    when entry (i, j) or (j, i) is nonzero, with a new search from each
    index not yet reached.  Returns the levels and, in search order, the
    indices that have a deeper level in their search: only those can find
    a pivot in a deeper row."""
    level = [None] * size
    order = []
    front = []
    for root in range(size):
        if level[root] is not None:
            continue
        level[root] = 0
        start = k = len(order)
        order.append(root)
        # the search stops once every index has a level
        while k < len(order) < size:
            x = order[k]
            k += 1
            depth = level[x] + 1
            for y in (*rows.get(x, ()), *cols.get(x, ())):
                if level[y] is None:
                    level[y] = depth
                    order.append(y)
        deepest = level[order[-1]]
        front += [x for x in order[start:] if level[x] < deepest]
    return level, front


def _pivot(rows: dict, cols: dict) -> tuple:
    """(row, column) of an entry of least absolute value, in a shortest row
    among those holding one, then in a shortest column."""
    best = None
    for i, r in rows.items():
        key = (min(map(abs, r.values())), len(r))
        if best is None or key < best:
            best, at = key, i
    least = best[0]
    r = rows[at]
    return at, min((j for j, v in r.items() if abs(v) == least), key=lambda j: len(cols[j]))


def _eliminate(rows: dict, cols: dict, i: int, j: int) -> int:
    """Clear the column and then the row of the pivot at (i, j), taking a
    nonzero remainder as the next pivot; returns the last pivot, whose row
    and column leave the matrix."""
    while True:
        pivot_row = rows[i]
        p = pivot_row[j]
        for k in [k for k in cols[j] if k != i]:
            _axpy(rows, cols, k, pivot_row, rows[k][j] // p)
        if len(cols[j]) > 1:
            i = min((k for k in cols[j] if k != i), key=lambda k: abs(rows[k][j]))
            continue
        # Column j is now clear outside row i, so a column operation on the
        # pivot's row changes no other row.
        if abs(p) > 1:
            for l, v in list(pivot_row.items()):
                r = v % p
                if r:
                    pivot_row[l] = r
                elif l != j:
                    del pivot_row[l]
                    _discard(cols, l, i)
            if len(pivot_row) > 1:
                j = min((l for l in pivot_row if l != j), key=lambda l: abs(pivot_row[l]))
                continue
        del rows[i]
        for l in pivot_row:
            _discard(cols, l, i)
        return p


def _axpy(rows: dict, cols: dict, k: int, src: dict, q: int) -> None:
    """Row k -= q * src."""
    if not q:
        return
    row = rows[k]
    for c, x in src.items():
        y = row.get(c, 0) - q * x
        if y:
            if c not in row:
                cols[c].add(k)
            row[c] = y
        elif c in row:
            del row[c]
            _discard(cols, c, k)
    if not row:
        del rows[k]


def _discard(cols: dict, c: int, k: int) -> None:
    members = cols[c]
    members.discard(k)
    if not members:
        del cols[c]


def _divisibility_chain(factors: list) -> list:
    """The invariant factors above one of a diagonal matrix with these
    entries: repeatedly replace a pair by its gcd and lcm."""
    chain = list(factors)
    for a in range(len(chain)):
        for b in range(a + 1, len(chain)):
            x, y = chain[a], chain[b]
            if y % x:
                g = gcd(x, y)
                chain[a], chain[b] = g, x // g * y
    return [d for d in chain if d > 1]


def invariants_from_diagonal(diag, rows: int) -> AbelianGroupInvariants:
    """Invariant factors and free rank of Z^rows / image(A), read off the
    SNF diagonal of A."""
    torsion = tuple(d for d in diag if d > 1)
    nonzero = sum(1 for d in diag if d)
    return AbelianGroupInvariants(torsion=torsion, free_rank=rows - nonzero)


def diagonal_from_invariants(invariants: AbelianGroupInvariants, rows: int,
                             cols: int) -> list:
    """The SNF diagonal of a rows x cols matrix with this cokernel, which is
    unique: ones, then the invariant factors, then min(rows, cols) - rank
    zeros."""
    rank = rows - invariants.free_rank
    torsion = list(invariants.torsion)
    return [1] * (rank - len(torsion)) + torsion + [0] * (min(rows, cols) - rank)


def cokernel(A: Matrix) -> AbelianGroupInvariants:
    """Invariant factors and free rank of Z^rows / image(A)."""
    return invariants_from_diagonal(smith_diagonal(A), len(A))


# --------------------------------------------------------------- graph matrices


def k0_matrix(g: WeightedDigraph) -> Matrix:
    """Transpose of the adjacency matrix minus the diagonal vertex weight
    matrix, with the columns of sink vertices removed: column ``col`` of
    regular vertex v holds -w(v) at v and one more for each edge v -> t
    at t (parallel edges count with multiplicity, edge weights are not
    multiplied in)."""
    if not g.is_vertex_weighted():
        raise errors.BadParameters("graph is not vertex weighted")
    regular = g.regular_vertices()
    out = [[0] * len(regular) for _ in range(g.n_vertices)]
    for col, v in enumerate(regular):
        out[v][col] -= g.weight(v)
        for t in g.out_targets[v]:
            out[t][col] += 1
    return out


def reduced_laplacian(g: SandpileGraph) -> Matrix:
    """Rows and columns indexed by the non-sink vertices; column v is the
    grains v loses when it fires: its out-degree at v, less one per edge
    from v to each non-sink vertex (so loops cancel).  Its cokernel is the
    sandpile group (Dhar 1990; Speer 1993 for directed graphs)."""
    _require_sandpile(g, "reduced_laplacian")
    where = {v: i for i, v in enumerate(g.non_sink_vertices())}
    L = [[0] * len(where) for _ in where]
    for s, r, _ in g.edges:
        j = where[s]
        L[j][j] += 1
        if r in where:
            L[where[r]][j] -= 1
    return L


def sandpile_k0_matrix(g: SandpileGraph) -> Matrix:
    """The k0 matrix of the quotient of ``g`` by its no-cycle vertex set,
    whose cokernel is the sandpile group.  Raises NotConical, naming the
    witnessing vertices, unless ``g`` is conical."""
    _require_sandpile(g, "sandpile_k0_matrix")
    bad = conical_violations(g)
    if bad:
        raise errors.NotConical([g.names[v] for v in bad])
    return k0_matrix(quotient_graph(g, non_cycle_vertices(g)))
