"""Finite commutative monoids as explicit Cayley tables.

Elements are dense indices into an addition table; labels keep the human
readable formal-sum names.  All structural predicates (units, atoms,
refinement, smallest ideal, isomorphism) work directly on the table and are
exhaustive, so a negative answer at this scale is a proof.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from math import prod

from . import errors
from .graph import SandpileGraph, WeightedDigraph
from .rewrite import (
    CompletionOverflow,
    _stable_form,
    format_element,
    reduction_system,
)

DEFAULT_SANDPILE_CAP = 4096
DEFAULT_WEIGHTED_CAP = 10 ** 4


@dataclass(frozen=True)
class AbelianGroupInvariants:
    """Canonical form of a finitely generated abelian group: invariant
    factors d1 | d2 | ... (each at least 2) plus the free rank."""

    torsion: tuple = ()
    free_rank: int = 0

    def __post_init__(self):
        assert self.free_rank >= 0
        for d in self.torsion:
            assert d >= 2
        for a, b in zip(self.torsion, self.torsion[1:]):
            assert b % a == 0

    @property
    def order(self):
        """Group order, or None when the free rank is positive."""
        return prod(self.torsion) if self.free_rank == 0 else None

    def describe(self) -> str:
        parts = [f"Z/{d}" for d in self.torsion] + ["Z"] * self.free_rank
        return " x ".join(parts) if parts else "0"


@dataclass(eq=False)
class FiniteCommMonoid:
    add: list
    zero: int
    labels: list
    reps: list | None = None
    generators: dict | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    def __len__(self):
        return len(self.add)

    def describe(self) -> str:
        return "{" + ", ".join(self.labels) + "}"


def verify_monoid(M: FiniteCommMonoid, exhaustive_limit: int = 64, samples: int = 2000,
                  rng=None):
    """Spot-check the table axioms: identity, commutativity, associativity
    (exhaustive up to the limit, randomized above)."""
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
    if n <= exhaustive_limit:
        for a in range(n):
            for b in range(n):
                ab = add[a][b]
                row_a = add[a]
                for c in range(n):
                    if add[ab][c] != row_a[add[b][c]]:
                        raise ValueError(f"not associative at ({a}, {b}, {c})")
    else:
        import random

        rng = rng or random.Random(0)
        for _ in range(samples):
            a, b, c = (rng.randrange(n) for _ in range(3))
            if add[add[a][b]][c] != add[a][add[b][c]]:
                raise ValueError(f"not associative at ({a}, {b}, {c})")


# ----------------------------------------------------------------- predicates


def units(M: FiniteCommMonoid) -> list:
    """Elements with an additive inverse; they always form an abelian group."""
    z = M.zero
    n = len(M)
    out = [a for a in range(n) if any(M.add[a][b] == z for b in range(n))]
    unit_set = set(out)
    for a in out:
        for b in out:
            assert M.add[a][b] in unit_set
    return out


def is_conical(M: FiniteCommMonoid) -> bool:
    return units(M) == [M.zero]


def atoms(M: FiniteCommMonoid) -> list:
    """Nonzero elements with no decomposition into two nonzero parts."""
    n = len(M)
    z = M.zero
    decomposable = set()
    for a in range(n):
        if a == z:
            continue
        row = M.add[a]
        for b in range(n):
            if b != z:
                decomposable.add(row[b])
    return [x for x in range(n) if x != z and x not in decomposable]


def _decomps(M: FiniteCommMonoid):
    """Unordered pair decompositions grouped by sum."""
    if "decomps" not in M._cache:
        n = len(M)
        table = [[] for _ in range(n)]
        for a in range(n):
            row = M.add[a]
            for b in range(a, n):
                table[row[b]].append((a, b))
        M._cache["decomps"] = table
    return M._cache["decomps"]


def _solutions(M: FiniteCommMonoid):
    """solutions[u][t] lists all x with u + x = t."""
    if "solutions" not in M._cache:
        n = len(M)
        sol = [dict() for _ in range(n)]
        for u in range(n):
            row = M.add[u]
            d = sol[u]
            for x in range(n):
                d.setdefault(row[x], []).append(x)
        M._cache["solutions"] = sol
    return M._cache["solutions"]


def refine_equation(M: FiniteCommMonoid, a: int, b: int, c: int, d: int):
    """Search a 2x2 refinement of a + b = c + d: elements e1..e4 with
    a = e1+e2, b = e3+e4, c = e1+e3, d = e2+e4.  Returns the quadruple or
    None (exhaustive search, so None is a proof)."""
    if M.add[a][b] != M.add[c][d]:
        raise errors.BadParameters("sides of the equation differ")
    sol = _solutions(M)
    for e1 in range(len(M)):
        e2s = sol[e1].get(a, ())
        if not e2s:
            continue
        for e3 in sol[e1].get(c, ()):
            e4s = sol[e3].get(b, ())
            if not e4s:
                continue
            for e2 in e2s:
                row = M.add[e2]
                for e4 in e4s:
                    if row[e4] == d:
                        return (e1, e2, e3, e4)
    return None


def is_refinement(M: FiniteCommMonoid):
    """Exhaustive refinement check.  Returns (True, None) or
    (False, (a, b, c, d)) with a witnessing equation."""
    for pairs in _decomps(M):
        for i, (a, b) in enumerate(pairs):
            for c, d in pairs[i:]:
                if refine_equation(M, a, b, c, d) is None:
                    return False, (a, b, c, d)
    return True, None


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


# -------------------------------------------------------------- group structure


@dataclass
class SmallestIdeal:
    elements: list
    identity: int
    group: FiniteCommMonoid


def smallest_ideal(M: FiniteCommMonoid) -> SmallestIdeal:
    """Intersection of all translates a + M: the unique smallest ideal, which
    is a group (for sandpile monoids, the recurrent elements).  Cached on M.

    With s the sum of all elements, s + M lies inside every a + M, so the
    intersection is the single translate s + M.  The result is certified:
    its idempotent e satisfies e + M = s + M, and every ideal element has an
    inverse with respect to e.  Then e + M is a group, so it lies inside
    every ideal.  A table that fails the check raises CertificateFailed.
    """
    cached = M._cache.get("smallest_ideal")
    if cached is not None:
        return cached
    add = M.add
    s = M.zero
    for a in range(len(M)):
        s = add[s][a]
    ideal = set(add[s])
    elements = sorted(ideal)
    e = next((x for x in elements if add[x][x] == x), None)
    if e is None or set(add[e]) != ideal:
        raise errors.CertificateFailed(
            "the intersection of all translates is not e + M for an idempotent e"
        )
    pos = {x: i for i, x in enumerate(elements)}
    try:
        table = [[pos[add[x][y]] for y in elements] for x in elements]
    except KeyError:
        raise errors.CertificateFailed("the smallest ideal is not closed") from None
    zero = pos[e]
    if not all(zero in row for row in table):
        raise errors.CertificateFailed(
            f"an element of the smallest ideal has no inverse for {M.labels[e]}"
        )
    group = FiniteCommMonoid(
        add=table,
        zero=zero,
        labels=[M.labels[x] for x in elements],
        reps=[M.reps[x] for x in elements] if M.reps else None,
    )
    result = SmallestIdeal(elements=elements, identity=e, group=group)
    M._cache["smallest_ideal"] = result
    return result


def _prime_factors(n: int) -> list:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def abelian_invariants(group: FiniteCommMonoid) -> AbelianGroupInvariants:
    """Invariant factors of a finite abelian group given by its table,
    recovered from the kernel sizes of multiplication by prime powers."""
    n = len(group)
    if n == 1:
        return AbelianGroupInvariants((), 0)
    add = group.add
    z = group.zero
    exponents = {}
    for p in _prime_factors(n):
        times_p = []
        for y in range(n):
            acc = z
            for _ in range(p):
                acc = add[acc][y]
            times_p.append(acc)
        counts = [0]
        current = list(range(n))
        while True:
            current = [times_p[x] for x in current]
            kernel = sum(1 for x in current if x == z)
            c = 0
            k = kernel
            while k > 1:
                assert k % p == 0
                k //= p
                c += 1
            if c == counts[-1]:
                break
            counts.append(c)
        per_p = []
        for k in range(1, len(counts)):
            geq_k = counts[k] - counts[k - 1]
            geq_next = counts[k + 1] - counts[k] if k + 1 < len(counts) else 0
            per_p.extend([k] * (geq_k - geq_next))
        exponents[p] = sorted(per_p, reverse=True)
    t = max(len(v) for v in exponents.values())
    factors = []
    for j in range(t):
        d = 1
        for p, exps in exponents.items():
            if j < len(exps):
                d *= p ** exps[j]
        factors.append(d)
    return AbelianGroupInvariants(torsion=tuple(reversed(factors)), free_rank=0)


def group_completion(M: FiniteCommMonoid) -> AbelianGroupInvariants:
    """Invariant factors of the group completion, read off the smallest
    ideal (they coincide for finite commutative monoids)."""
    return abelian_invariants(smallest_ideal(M).group)


def quotient_by_submonoid(M: FiniteCommMonoid, I) -> FiniteCommMonoid:
    """Quotient by the congruence a ~ b iff a + i = b + j for some i, j in
    the submonoid I.  All of I collapses onto the zero class."""
    n = len(M)
    I = sorted({i if isinstance(i, int) else M.labels.index(i) for i in I})
    if M.zero not in I:
        raise errors.NotSubmonoid("submonoid must contain zero")
    iset = set(I)
    for a in I:
        for b in I:
            if M.add[a][b] not in iset:
                raise errors.NotSubmonoid("subset is not closed under addition")

    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        x, y = find(x), find(y)
        if x != y:
            if x > y:
                x, y = y, x
            parent[y] = x

    for a in range(n):
        row = M.add[a]
        for i in I:
            union(a, row[i])

    members = {}
    for x in range(n):
        members.setdefault(find(x), []).append(x)
    class_reps = sorted(members)
    class_of = {x: class_reps.index(find(x)) for x in range(n)}
    zero_class = class_of[M.zero]
    for i in I:
        assert class_of[i] == zero_class
    table = [[0] * len(class_reps) for _ in class_reps]
    for ci, rep_i in enumerate(class_reps):
        for cj, rep_j in enumerate(class_reps):
            table[ci][cj] = class_of[M.add[rep_i][rep_j]]
    for a in range(n):
        for b in range(n):
            assert class_of[M.add[a][b]] == table[class_of[a]][class_of[b]]
    return FiniteCommMonoid(
        add=table,
        zero=zero_class,
        labels=[M.labels[r] for r in class_reps],
        reps=[M.reps[r] for r in class_reps] if M.reps else None,
    )


# ----------------------------------------------------------------- isomorphism


def _order_profile(M: FiniteCommMonoid, x: int):
    """Index and period of the cyclic submonoid generated by x."""
    seen = {x: 1}
    y = x
    steps = 1
    while True:
        y = M.add[y][x]
        steps += 1
        if y in seen:
            return (seen[y], steps - seen[y])
        seen[y] = steps


def _profiles(M: FiniteCommMonoid):
    if "profiles" not in M._cache:
        n = len(M)
        unit_set = set(units(M))
        atom_set = set(atoms(M))
        decomps = _decomps(M)
        base = []
        for x in range(n):
            base.append((
                x == M.zero,
                _order_profile(M, x),
                x in unit_set,
                x in atom_set,
                len(decomps[x]),
            ))
        refined = []
        for x in range(n):
            row = M.add[x]
            refined.append((base[x], tuple(sorted(base[row[y]] for y in range(n)))))
        M._cache["profiles"] = refined
    return M._cache["profiles"]


def _generating_set(M: FiniteCommMonoid) -> list:
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
                for c in (M.add[a][b],):
                    if c not in closed:
                        closed.add(c)
                        frontier.append(c)
    assert len(closed) == n
    return gens


def monoid_isomorphic(M1: FiniteCommMonoid, M2: FiniteCommMonoid,
                      cap: int = 10 ** 4):
    """Search for an isomorphism; returns the element mapping (list indexed
    by M1) or None.  The backtracking is exhaustive over profile-compatible
    generator images, so None is a proof at this scale."""
    n = len(M1)
    if n != len(M2):
        return None
    if n > cap:
        raise errors.SizeOverBudget(f"isomorphism search capped at {cap} elements")
    p1 = _profiles(M1)
    p2 = _profiles(M2)
    if sorted(p1) != sorted(p2):
        return None
    gens = _generating_set(M1)
    add1, add2 = M1.add, M2.add

    def close(phi, used, fresh):
        queue = deque(fresh)
        while queue:
            b = queue.popleft()
            for a in list(phi):
                c = add1[a][b]
                pc = add2[phi[a]][phi[b]]
                if c in phi:
                    if phi[c] != pc:
                        return False
                else:
                    if pc in used or p1[c] != p2[pc]:
                        return False
                    phi[c] = pc
                    used.add(pc)
                    queue.append(c)
        return True

    def backtrack(k, phi, used):
        if k == len(gens):
            if len(phi) != n:
                return None
            for a in range(n):
                for b in range(n):
                    if phi[add1[a][b]] != add2[phi[a]][phi[b]]:
                        return None
            return [phi[x] for x in range(n)]
        g = gens[k]
        for image in range(n):
            if image in used or p2[image] != p1[g]:
                continue
            phi2 = dict(phi)
            used2 = set(used)
            phi2[g] = image
            used2.add(image)
            if close(phi2, used2, [g]):
                result = backtrack(k + 1, phi2, used2)
                if result is not None:
                    return result
        return None

    return backtrack(0, {M1.zero: M2.zero}, {M2.zero})


# --------------------------------------------------------------- constructions


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


def classify_cyclic_sum(M: FiniteCommMonoid):
    """If M is isomorphic to a direct sum of cyclic monoids C_{n_i} with all
    n_i >= 2, return the sorted list of orders; otherwise None.  The trivial
    monoid returns the empty list."""
    n = len(M)
    if n == 1:
        return []
    if not is_conical(M) or atoms(M):
        return None
    ideal_size = len(smallest_ideal(M).elements)

    def factorizations(remaining, min_factor):
        if remaining == 1:
            yield []
            return
        f = min_factor
        while f * f <= remaining:
            if remaining % f == 0:
                for rest in factorizations(remaining // f, f):
                    yield [f] + rest
            f += 1
        if remaining >= min_factor:
            yield [remaining]

    for orders in factorizations(n, 2):
        if prod(o - 1 for o in orders) != ideal_size:
            continue
        candidate = direct_sum_of_cyclic(orders)
        if monoid_isomorphic(M, candidate) is not None:
            return sorted(orders)
    return None


# ---------------------------------------------------------------- enumerations


def enumerate_sandpile_monoid(g: SandpileGraph,
                              cap: int = DEFAULT_SANDPILE_CAP) -> FiniteCommMonoid:
    """All stable configurations under add-then-stabilise with the sink
    absorbing.  The size is exactly the product of the non-sink out-degrees.

    Element x is the configuration whose mixed-radix digits (one per non-sink
    vertex, out-degree as radix) spell x.  The table comes from the action
    act[i][x] = stab(x + e_v) of each non-sink vertex v = non_sink[i]: row 0
    is the identity, and x = x' + e_v with x' one grain less at the last
    nonzero digit of x, so by the abelian property (Dhar 1990) row x is
    act[i] applied to row x'.  That is |M|*n stabilisations, not |M|^2 / 2.
    """
    non_sink = g.non_sink_vertices()
    radices = [g.out_degree(v) for v in non_sink]
    size = prod(radices)
    if size > cap:
        raise errors.SizeOverBudget(
            f"sandpile monoid has {size} elements, cap is {cap}"
            " (raise it with --cap)"
        )
    nv = g.n_vertices
    places = [0] * len(non_sink)
    acc = 1
    for i in range(len(non_sink) - 1, -1, -1):
        places[i] = acc
        acc *= radices[i]

    def encode(config):
        return sum(config[v] * places[i] for i, v in enumerate(non_sink))

    reps = []
    for code in range(size):
        config = [0] * nv
        rem = code
        for i, v in enumerate(non_sink):
            config[v] = rem // places[i]
            rem %= places[i]
        reps.append(tuple(config))

    # a grain that leaves digit i below its radix needs no firing
    act = []
    for i, v in enumerate(non_sink):
        top = radices[i] - 1
        row = []
        for x, rep in enumerate(reps):
            if rep[v] < top:
                row.append(x + places[i])
            else:
                config = list(rep)
                config[v] += 1
                row.append(encode(_stable_form(g, config, sink_absorbing=True)))
        act.append(row)

    table = [list(range(size))]
    last = len(non_sink) - 1
    for x in range(1, size):
        i = last
        while not reps[x][non_sink[i]]:
            i -= 1
        step = act[i]
        table.append([step[z] for z in table[x - places[i]]])
    labels = [format_element(g.names, rep) for rep in reps]
    # a grain on the sink is absorbed: that generator is zero
    first = {v: row[0] for v, row in zip(non_sink, act)}
    gens = {name: first.get(v, 0) for v, name in enumerate(g.names)}
    return FiniteCommMonoid(add=table, zero=0, labels=labels, reps=reps,
                            generators=gens)


def enumerate_weighted_monoid(g: WeightedDigraph, sink_relations: bool = True,
                              cap: int = DEFAULT_WEIGHTED_CAP,
                              max_rules: int = 4000) -> FiniteCommMonoid:
    """Closure of the vertex generators under addition, with congruence
    decided through the completed firing rules.

    ``sink_relations`` selects whether each sink is identified with zero.
    Raises Inconclusive (never "infinite") when the rule completion or the
    element count exceeds its cap; the partial element list is attached.
    """
    if not g.is_vertex_weighted():
        raise errors.BadParameters("graph is not vertex weighted")
    try:
        rs = reduction_system(g, sink_relations, max_rules)
    except CompletionOverflow as exc:
        raise errors.Inconclusive(
            f"rule completion exceeded its budget ({exc})", partial_labels=None
        ) from None
    nv = g.n_vertices
    zero = (0,) * nv
    gens = [tuple(1 if u == v else 0 for u in range(nv)) for v in range(nv)]
    known = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for rep in frontier:
            for gvec in gens:
                cand = rs.normal_form(tuple(a + b for a, b in zip(rep, gvec)))
                if cand not in known:
                    if len(known) >= cap:
                        labels = sorted(
                            format_element(g.names, v)
                            for v in known
                        )
                        raise errors.Inconclusive(
                            f"more than {cap} elements discovered",
                            partial_labels=labels,
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
            nf = rs.normal_form(
                tuple(a + b for a, b in zip(elements[i], elements[j]))
            )
            idx = index[nf]
            table[i][j] = idx
            table[j][i] = idx
    labels = [format_element(g.names, v) for v in elements]
    gen_map = {
        g.names[v]: index[rs.normal_form(gens[v])] for v in range(nv)
    }
    return FiniteCommMonoid(add=table, zero=index[zero], labels=labels,
                            reps=elements, generators=gen_map)
