"""References and fixtures that the tests compare the library against.

Nothing in ``sandmon`` calls these: one-step firing and the potential that
certifies termination, the plain rule completion, small monoid tables built
by hand, dense matrix helpers that check Smith normal forms, graph families,
the worked examples that ``graphs/`` holds as files, the seeded corpus of
random sandpile graphs and a strategy that draws small sandpile graphs.
"""

from __future__ import annotations

import random
from collections import deque
from functools import reduce
from math import prod

from hypothesis import assume, strategies as st

from sandmon import errors
from sandmon.graph import (
    SandpileGraph,
    WeightedDigraph,
    _sink_distances,
    cycle_companion_sandpile,
    loop_sink_graph,
    validate_sandpile,
)
from sandmon.ktheory import _shape
from sandmon.monoid import (
    FiniteCommMonoid,
    _decomps,
    _generating_set,
    _refine,
    _solutions,
    atoms,
)
from sandmon.rewrite import CompletionOverflow

# ---------------------------------------------------------------------- firing


def topple_once(g: WeightedDigraph, c, v) -> tuple:
    """Fire the regular vertex v once: remove weight(v) grains, deliver one
    along each outgoing edge.  Sink grains are retained.  ValueError when v
    is a sink or holds fewer grains than its weight."""
    v = g._resolve(v)
    if not g.out_edge_ids[v]:
        raise ValueError(f"{g.names[v]!r} is a sink")
    w = g.weight(v)
    if c[v] < w:
        raise ValueError(f"{g.names[v]!r} holds {c[v]} grains, needs {w} to fire")
    out = list(c)
    out[v] -= w
    for t in g.out_targets[v]:
        out[t] += 1
    return tuple(out)


def firing_path(g: SandpileGraph, c) -> list:
    """The configurations from c to its stable form with sink grains
    retained, firing the lowest-index unstable vertex one at a time with
    ``topple_once``."""
    path = [tuple(c)]
    while True:
        current = path[-1]
        unstable = [v for v in g.non_sink_vertices() if current[v] >= g.weight(v)]
        if not unstable:
            return path
        path.append(topple_once(g, current, unstable[0]))


def shortest_sink_distances(g: SandpileGraph) -> list[int]:
    """BFS distance from each vertex to the sink along directed paths."""
    return _sink_distances(g, g.sink)


def potential(g: SandpileGraph, c) -> int:
    """Exact certificate value that strictly increases under every topple
    with sink grains retained: sum of count(v) * D**(n - dist(v)) where D is
    the largest vertex weight (at least 2) and dist is the shortest path
    length to the sink."""
    D = max([2] + [g.weight(v) for v in g.non_sink_vertices()])
    n = g.n_vertices
    dist = shortest_sink_distances(g)
    return sum(k * D ** (n - dist[v]) for v, k in enumerate(c) if k)


# ------------------------------------------------------------ rule completion


def reference_reduction_system(n_gens, relations, max_rules=4000):
    """Oracle for ReductionSystem: critical-pair completion that reduces by
    the first applicable rule in list order, one application at a time,
    rescanning the rules from the start after each.  Returns the rules and
    that reducer, which gives the normal forms once completion is done;
    raises CompletionOverflow past ``max_rules`` rules."""
    rules = []
    pending = deque()

    def reduce(vec):
        vec = tuple(vec)
        changed = True
        while changed:
            changed = False
            for lhs, rhs in rules:
                if all(a >= b for a, b in zip(vec, lhs)):
                    vec = tuple(a - b + c for a, b, c in zip(vec, lhs, rhs))
                    changed = True
                    break
        return vec

    def add_rule(x, y):
        x, y = reduce(x), reduce(y)
        if x == y:
            return
        if (sum(x), x) < (sum(y), y):
            x, y = y, x
        if len(rules) >= max_rules:
            raise CompletionOverflow(f"more than {max_rules} rules")
        rules.append((x, y))
        for j in range(len(rules) - 1):
            pending.append((len(rules) - 1, j))

    for x, y in relations:
        add_rule(tuple(x), tuple(y))
    while pending:
        i, j = pending.popleft()
        li, ri = rules[i]
        lj, rj = rules[j]
        if all(a == 0 or b == 0 for a, b in zip(li, lj)):
            continue
        overlap = tuple(max(a, b) for a, b in zip(li, lj))
        add_rule(tuple(o - a + b for o, a, b in zip(overlap, li, ri)),
                 tuple(o - a + b for o, a, b in zip(overlap, lj, rj)))
    return rules, reduce


# --------------------------------------------------------------------- monoids


def verify_monoid(M: FiniteCommMonoid):
    """Check the table axioms exactly: identity, commutativity and
    associativity.  Associativity uses Light's test: (x + g) + y equals
    x + (g + y) for every generator g and all x, y.  The elements b that
    pass for all x, y are closed under addition, so passing on a generating
    set means passing everywhere."""
    n = len(M)
    add = M.add
    z = M.zero
    for x in range(n):
        if add[z][x] != x or add[x][z] != x:
            raise ValueError(f"zero fails at element {x}")
    for a in range(n):
        for b in range(a + 1, n):
            if add[a][b] != add[b][a]:
                raise ValueError(f"not commutative at ({a}, {b})")
    for g in _generating_set(M):
        row_g = add[g]
        for x in range(n):
            row_xg, row_x = add[add[x][g]], add[x]
            if row_xg != [row_x[t] for t in row_g]:
                y = next(y for y in range(n) if row_xg[y] != row_x[row_g[y]])
                raise ValueError(f"not associative at ({x}, {g}, {y})")


def refine_equation(M: FiniteCommMonoid, a: int, b: int, c: int, d: int):
    """Search a 2x2 refinement of a + b = c + d: elements e1..e4 with
    a = e1+e2, b = e3+e4, c = e1+e3, d = e2+e4.  Returns the quadruple or
    None (exhaustive search, so None is a proof)."""
    if M.add[a][b] != M.add[c][d]:
        raise errors.BadParameters("sides of the equation differ")
    return _refine(M.add, _solutions(M), _decomps(M)[a], b, c, d)


def is_atom_cancellative(M: FiniteCommMonoid):
    """Check a + m = a + m' forces m = m' for every atom a.  Returns
    (True, None) or (False, (atom, m, m'))."""
    n = len(M)
    for a in atoms(M):
        seen = {}
        row = M.add[a]
        for m in range(n):
            t = row[m]
            if t in seen:
                return False, (a, seen[t], m)
            seen[t] = m
    return True, None


def monogenic_monoid(index: int, period: int) -> FiniteCommMonoid:
    """One generator x with (index + period) x = index x.

    Index 0 gives the cyclic group of the given order; index 1 gives the
    sandpile cycle monoid.
    """
    if index < 0 or period < 1 or index + period < 1:
        raise errors.BadParameters("need index >= 0 and period >= 1")
    n = index + period

    def reduce_exp(s):
        return s if s < n else index + (s - index) % period

    table = [[reduce_exp(i + j) for j in range(n)] for i in range(n)]
    labels = ["0"] + ["x"] + [f"{i}x" for i in range(2, n)]
    labels = labels[:n]
    return FiniteCommMonoid(
        add=table, zero=0, labels=labels,
        generators={"x": 1} if n > 1 else {},
    )


def cyclic_monoid(n: int) -> FiniteCommMonoid:
    """The monoid {0, x, ..., (n-1)x} with n x = x; conical, refinement."""
    if n < 2:
        raise errors.BadParameters("cyclic monoid needs n >= 2")
    return monogenic_monoid(1, n - 1)


def cyclic_group_monoid(n: int) -> FiniteCommMonoid:
    if n < 1:
        raise errors.BadParameters("cyclic group needs n >= 1")
    return monogenic_monoid(0, n)


def trivial_monoid() -> FiniteCommMonoid:
    return monogenic_monoid(0, 1)


def direct_sum(M1: FiniteCommMonoid, M2: FiniteCommMonoid) -> FiniteCommMonoid:
    n1, n2 = len(M1), len(M2)

    def idx(i, j):
        return i * n2 + j

    table = [
        [idx(M1.add[i1][j1], M2.add[i2][j2]) for j1 in range(n1) for j2 in range(n2)]
        for i1 in range(n1) for i2 in range(n2)
    ]
    labels = [
        f"({M1.labels[i]},{M2.labels[j]})" for i in range(n1) for j in range(n2)
    ]
    return FiniteCommMonoid(add=table, zero=idx(M1.zero, M2.zero), labels=labels)


def direct_sum_of_cyclic(orders) -> FiniteCommMonoid:
    """The direct sum of cyclic monoids with the given orders (each >= 2)."""
    orders = list(orders)
    if not orders:
        return trivial_monoid()
    return reduce(direct_sum, (cyclic_monoid(n) for n in orders))


# -------------------------------------------------------------------- matrices


def mat_mul(A, B):
    rows, inner = _shape(A)
    _, cols = _shape(B)
    if len(B) != inner:
        raise errors.BadParameters(
            f"cannot multiply a {rows}x{inner} matrix by one with {len(B)} rows"
        )
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


def determinant(A) -> int:
    """Bareiss fraction-free determinant (exact)."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise errors.BadParameters("the determinant needs a square matrix")
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


def snf_diagonal(S) -> list:
    return [S[i][i] for i in range(min(len(S), len(S[0]) if S else 0))]


def row_laplacian(g):
    """Out-degree on the diagonal minus the edge counts, over the non-sink
    vertices."""
    keep = g.non_sink_vertices()
    where = {v: i for i, v in enumerate(keep)}
    L = [[0] * len(keep) for _ in keep]
    for s, r, _ in g.edges:
        if s in where:
            L[where[s]][where[s]] += 1
            if r in where:
                L[where[s]][where[r]] -= 1
    return L


# ---------------------------------------------------------------------- graphs


def graph_to_text(g: WeightedDigraph, sink=None) -> str:
    """The graph in the line-based text format that ``parse_graph`` reads."""
    lines = [f"vertex {name}" for name in g.names]
    for s, r, w in g.edges:
        suffix = f" w={w}" if w != 1 else ""
        lines.append(f"edge {g.names[s]} {g.names[r]}{suffix}")
    if sink is None and isinstance(g, SandpileGraph):
        sink = g.sink
    if sink is not None:
        lines.append(f"sink {g.names[g._resolve(sink)]}")
    return "\n".join(lines) + "\n"


def is_balanced(g: WeightedDigraph) -> bool:
    """Every regular vertex's edges all weigh its out-degree."""
    return g.is_vertex_weighted() and all(
        g.weight(v) == g.out_degree(v) for v in g.regular_vertices()
    )


def diverging_graph():
    """Two mutually connected vertices with loops, all weights two; firing u
    adds a grain, so some elements never stabilize."""
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


def chain_graph():
    return validate_sandpile(WeightedDigraph(
        ["a", "b", "s"], [("a", "b", 1), ("b", "s", 1)]
    ))


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


def rose_graph(petals: int, weight: int) -> WeightedDigraph:
    """One vertex with ``petals`` loops, each of the given weight."""
    if petals < 1 or weight < 1:
        raise errors.BadParameters("petal count and weight must be >= 1")
    return WeightedDigraph(["v"], [("v", "v", weight)] * petals)


def multi_cycle_sandpile(classes) -> SandpileGraph:
    """Disjoint cycles sharing one sink; vertex i of a class emits one edge
    along its cycle and degree-minus-one edges to the sink.

    ``classes`` is a list of out-degree lists, one list per cycle.  Each class
    needs some out-degree >= 2, otherwise its cycle cannot reach the sink.
    """
    if not classes:
        raise errors.BadParameters("need at least one class")
    names = []
    edges = []
    for ci, degrees in enumerate(classes):
        degrees = [int(d) for d in degrees]
        if not degrees or any(d < 1 for d in degrees):
            raise errors.BadParameters("out-degrees must be positive")
        if all(d == 1 for d in degrees):
            raise errors.BadParameters(
                f"class {ci} has no out-degree >= 2, its cycle cannot drain"
            )
        members = [f"c{ci}v{i + 1}" for i in range(len(degrees))]
        names.extend(members)
        for i, d in enumerate(degrees):
            edges.append((members[i], members[(i + 1) % len(members)], 1))
            edges.extend([(members[i], "s", 1)] * (d - 1))
    names.append("s")
    return validate_sandpile(WeightedDigraph(names, edges))


def two_cycle_unions():
    """Unions of two cycles whose sandpile monoids have 128 elements."""
    return [multi_cycle_sandpile(classes) for classes in
            ([[2, 2, 2], [4, 2, 2]], [[2, 4], [4, 4]], [[8], [2, 2, 2, 2]])]


def make_t_graph() -> SandpileGraph:
    """Three mutually connected vertices (two with loops) all draining into
    one sink; the quotient by the sink is the triangle with weight 3."""
    return validate_sandpile(WeightedDigraph(
        ["u", "v", "z", "s"],
        [("u", "v", 1), ("u", "z", 1), ("u", "s", 1),
         ("v", "u", 1), ("v", "v", 1), ("v", "s", 1),
         ("z", "u", 1), ("z", "z", 1), ("z", "s", 1)],
    ))


def named_examples() -> dict:
    """The worked examples used by the golden reports."""
    return {
        "g_2_3": loop_sink_graph(2, 3),
        "g_1_3": loop_sink_graph(1, 3),
        "t": make_t_graph(),
        "cycle_2_2_1": cycle_companion_sandpile([2, 2, 1]),
        "prime_z5": validate_sandpile(
            WeightedDigraph(["x", "s"], [("x", "s", 1)] * 5)
        ),
    }


def random_sandpile_corpus(count: int = 220, seed: int = 20260810) -> list:
    """Deterministic seeded corpus of valid sandpile graphs.

    Every graph has at most 6 non-sink vertices and out-degrees at most 4;
    graphs whose monoid would exceed 64 elements are rejected so the
    exhaustive table predicates stay fast.
    """
    max_non_sink, max_out_degree, max_monoid_size = 6, 4, 64
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        m = rng.randint(1, max_non_sink)
        degrees = [rng.randint(1, max_out_degree) for _ in range(m)]
        if prod(degrees) > max_monoid_size:
            continue
        names = [f"v{i}" for i in range(m)] + ["s"]
        edges = []
        for i in range(m):
            for _ in range(degrees[i]):
                edges.append((names[i], names[rng.randrange(m + 1)], 1))
        try:
            graphs.append(validate_sandpile(WeightedDigraph(names, edges)))
        except errors.SandmonError:
            continue
    return graphs


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
