"""Finite commutative monoids as explicit Cayley tables.

Elements are dense indices into an addition table; labels keep the human
readable formal-sum names.  All structural predicates (units, atoms,
refinement, smallest ideal, isomorphism) work directly on the table and are
exhaustive, so a negative answer at this scale is a proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
        if self.free_rank < 0:
            raise errors.BadParameters(f"negative free rank {self.free_rank}")
        if any(d < 2 for d in self.torsion):
            raise errors.BadParameters(f"invariant factors below 2: {list(self.torsion)}")
        if any(b % a for a, b in zip(self.torsion, self.torsion[1:])):
            raise errors.BadParameters(
                f"invariant factors out of divisibility order: {list(self.torsion)}"
            )

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


# ----------------------------------------------------------------- predicates


def units(M: FiniteCommMonoid) -> list:
    """Elements with an additive inverse.  In a commutative monoid they are
    closed under addition ((a + b) + (a' + b') = 0), so they form an abelian
    group.  Cached on M; the caller gets a fresh list."""
    cached = M._cache.get("units")
    if cached is None:
        z = M.zero
        cached = M._cache["units"] = [a for a, row in enumerate(M.add) if z in row]
    return list(cached)


def atoms(M: FiniteCommMonoid) -> list:
    """Nonzero elements with no decomposition into two nonzero parts.
    Cached on M; the caller gets a fresh list."""
    cached = M._cache.get("atoms")
    if cached is None:
        n = len(M)
        z = M.zero
        decomposable = set()
        for a, row in enumerate(M.add):
            if a != z:
                decomposable.update(row[:z], row[z + 1:])
        cached = M._cache["atoms"] = [
            x for x in range(n) if x != z and x not in decomposable
        ]
    return list(cached)


class _Decompositions(dict):
    """decomps[t] lists the unordered pairs (a, b), a <= b, with a + b = t,
    in increasing order.  Sum t is built when it is first read, as a search
    reads only some sums.

    Both parts of a pair divide t, and the divisors of t are the closure of
    {t} under taking a generator off: the elements x with x + g = y for g
    in the generating set ``gens`` and a divisor y, read off ``below``.
    Only pairs of divisors are tried.  A build that would take the pairs
    tried past n(n+1)/2, the size of the full table, fills the remaining
    sums in one pass over all pairs instead, so no table costs more than
    twice that pass: a group, whose every element divides every sum, would
    otherwise try n^3 / 2 pairs."""

    def __init__(self, add, gens):
        super().__init__()
        self.add = add
        self.gens = gens
        n = len(add)
        self.below = below = [[] for _ in range(n)]
        for g in gens:
            for x, y in enumerate(add[g]):
                below[y].append(x)
        self.tries_left = n * (n + 1) // 2

    def __missing__(self, t):
        below = self.below
        divisors = {t}
        frontier = [t]
        while frontier:
            for x in below[frontier.pop()]:
                if x not in divisors:
                    divisors.add(x)
                    frontier.append(x)
        k = len(divisors)
        if k * (k + 1) // 2 > self.tries_left:
            self._fill()
            return self[t]
        self.tries_left -= k * (k + 1) // 2
        ordered = sorted(divisors)
        add = self.add
        pairs = self[t] = []
        for i, a in enumerate(ordered):
            row = add[a]
            pairs += [(a, b) for b in ordered[i:] if row[b] == t]
        return pairs

    def _fill(self):
        n = len(self.add)
        table = [[] for _ in range(n)]
        for a, row in enumerate(self.add):
            for b in range(a, n):
                table[row[b]].append((a, b))
        for t, pairs in enumerate(table):
            self.setdefault(t, pairs)


def _decomps(M: FiniteCommMonoid):
    """The decompositions of M (see ``_Decompositions``) over
    ``_generating_set(M)``, cached on M."""
    if "decomps" not in M._cache:
        M._cache["decomps"] = _Decompositions(M.add, _generating_set(M))
    return M._cache["decomps"]


class _SolutionRows(dict):
    """solutions[u][t] lists all x with u + x = t, in increasing order.  Row
    u is built when it is first read, as a search reads only some rows."""

    def __init__(self, add):
        super().__init__()
        self.add = add

    def __missing__(self, u):
        row = self[u] = {}
        for x, t in enumerate(self.add[u]):
            if t in row:
                row[t].append(x)
            else:
                row[t] = [x]
        return row


def _solutions(M: FiniteCommMonoid):
    """The solution rows of M (see ``_SolutionRows``), cached on M."""
    if "solutions" not in M._cache:
        M._cache["solutions"] = _SolutionRows(M.add)
    return M._cache["solutions"]


def _refine(add, sol, splits, b: int, c: int, d: int):
    """A 2x2 refinement of a + b = c + d: elements e1..e4 with a = e1+e2,
    b = e3+e4, c = e1+e3, d = e2+e4, or None (the search is exhaustive, so
    None is a proof).  ``splits`` lists the unordered decompositions (p, q)
    of a.  Swapping c and d transposes a refinement, so each split is tried
    both ways round as (e1, e2)."""
    for p, q in splits:
        for e1, e2 in ((p, q), (q, p)) if p != q else ((p, q),):
            e3s = sol[e1].get(c)
            if not e3s:
                continue
            e4s = sol[e2].get(d)
            if not e4s:
                continue
            for e3 in e3s:
                row = add[e3]
                for e4 in e4s:
                    if row[e4] == b:
                        return e1, e2, e3, e4
    return None


def is_refinement(M: FiniteCommMonoid):
    """Exact refinement check.  Returns (True, None) or
    (False, (a, b, c, d)) with a witnessing equation: the first equation
    with no refinement when the sums c + d, then the pairs of
    ``_decomps(M)[c + d]``, are taken in index order.

    A direct sum of cyclic monoids, as ``classify_cyclic_sum`` certifies it
    on the table, refines with no search: C_n is {0} with a cyclic group G,
    an equation a + b = c + d in G refines as [[c, a - c], [0, b]], one
    with a term 0 refines trivially, and refinement passes to direct sums.
    A group, a table whose every element is a unit, refines the same way.

    Any other monoid is searched.  It suffices that every x + y = c + d
    with x in a generating set X refines.  By induction on the length of
    a1 as a sum of generators: write a1 = x + a1', refine
    x + (a1' + a2) = b1 + b2 into x = p + q,
    a1' + a2 = r + s, b1 = p + r, b2 = q + s, and refine a1' + a2 = r + s
    into t11, t12, t21, t22; then [[p + t11, q + t12], [t21, t22]] refines
    a1 + a2 = b1 + b2.  Those equations are checked in order of their sum.
    Only when one of them fails are all equations scanned for the first
    witness, and only up to that sum, where the failing equation itself
    lies (up to swapping sides).  Only the sums that the search reads are
    decomposed (see ``_Decompositions``).
    """
    if classify_cyclic_sum(M) is not None or len(units(M)) == len(M):
        return True, None
    add, sol, decomps = M.add, _solutions(M), _decomps(M)
    gens = decomps.gens
    for t in range(len(M)):
        pairs = decomps[t]
        for x in gens:
            for y in sol[x].get(t, ()):
                splits = decomps[x]
                for c, d in pairs:
                    if _refine(add, sol, splits, y, c, d) is None:
                        return False, _first_witness(add, sol, decomps, set(gens), t)
    return True, None


def _first_witness(add, sol, decomps, gens, last: int):
    """The first equation a + b = c + d, with (a, b) before or equal to
    (c, d) in ``decomps[a + b]`` and a + b at most ``last``, that has no
    refinement.  Below ``last`` the equations that contain a generator
    refine, as the generator pass has checked them, so they are skipped."""
    for t in range(last + 1):
        pairs = decomps[t]
        checked = gens if t < last else ()
        for i, (a, b) in enumerate(pairs):
            if a in checked or b in checked:
                continue
            splits = decomps[a]
            for c, d in pairs[i:]:
                if c in checked or d in checked:
                    continue
                if _refine(add, sol, splits, b, c, d) is None:
                    return a, b, c, d
    raise errors.CertificateFailed(
        "a generator equation has no refinement, but every equation up to"
        " its sum refines"
    )


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
                if k % p:
                    raise errors.CertificateFailed(
                        f"a power of {p} kills {kernel} elements, not a power of "
                        f"{p}: this is not the table of a group"
                    )
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
    the submonoid I, given by element indices.  All of I collapses onto the
    zero class, and each generator of M names its class."""
    n = len(M)
    I = set(I)
    if M.zero not in I:
        raise errors.NotSubmonoid("submonoid must contain zero")
    for a in I:
        for b in I:
            if M.add[a][b] not in I:
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

    class_reps = sorted({find(x) for x in range(n)})
    class_index = {r: c for c, r in enumerate(class_reps)}
    class_of = [class_index[find(x)] for x in range(n)]
    table = [[class_of[M.add[rep_i][rep_j]] for rep_j in class_reps]
             for rep_i in class_reps]
    return FiniteCommMonoid(
        add=table,
        zero=class_of[M.zero],
        labels=[M.labels[r] for r in class_reps],
        reps=[M.reps[r] for r in class_reps] if M.reps else None,
        generators=(
            {name: class_of[x] for name, x in M.generators.items()}
            if M.generators is not None
            else None
        ),
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


def _generating_set(M: FiniteCommMonoid) -> list:
    """The elements, in index order, that the earlier ones do not generate.
    A new generator x is added to every element generated so far, and each
    element reached is added to every generator, so each element costs one
    step per generator."""
    n, add = len(M), M.add
    gens = []
    closed = {M.zero}
    for x in range(n):
        if x in closed:
            continue
        gens.append(x)
        frontier = [add[a][x] for a in closed]
        while frontier:
            a = frontier.pop()
            if a not in closed:
                if not 0 <= a < n:
                    raise errors.CertificateFailed(
                        f"a sum of {gens} is {a!r}, which names no element"
                    )
                closed.add(a)
                row = add[a]
                frontier.extend(row[g] for g in gens)
    return gens


def _induced_map(M1: FiniteCommMonoid, M2: FiniteCommMonoid, pairs):
    """The map phi with phi(0) = 0 and phi(x + g1) = phi(x) + g2 for each
    pair (g1, g2), on the elements of M1 that adding the g1 to zero again
    and again reaches.  Returns it as a dict, or None when two ways give an
    element two images or two elements share an image.

    For monoid tables, a map that covers M1 is an injective homomorphism:
    by induction on the number of generators in y, phi(x + y + g1) = phi(x + y) + g2 =
    phi(x) + phi(y) + g2 = phi(x) + phi(y + g1).  So when |M1| = |M2| it is
    an isomorphism.
    """
    add1, add2 = M1.add, M2.add
    phi = {M1.zero: M2.zero}
    used = {M2.zero}
    order = [M1.zero]
    for x in order:
        row1, row2 = add1[x], add2[phi[x]]
        for g1, g2 in pairs:
            y, image = row1[g1], row2[g2]
            known = phi.get(y)
            if known is None:
                if image in used:
                    return None
                phi[y] = image
                used.add(image)
                order.append(y)
            elif known != image:
                return None
    return phi


def monoid_isomorphic(M1: FiniteCommMonoid, M2: FiniteCommMonoid):
    """Search for an isomorphism; returns the element mapping (list indexed
    by M1) or None.

    The search backtracks over the images of ``_generating_set(M1)``, in
    index order, among the elements of M2 with the same index and period,
    and extends each partial choice with ``_induced_map``.  Every prune holds
    for every isomorphism, so the result comes from the lexicographically
    first tuple of generator images that extends, and None is a proof.
    """
    n = len(M1)
    if n != len(M2):
        return None
    profiles1 = [_order_profile(M1, x) for x in range(n)]
    profiles2 = [_order_profile(M2, y) for y in range(n)]
    if sorted(profiles1) != sorted(profiles2):
        return None
    gens = _generating_set(M1)
    candidates = [[y for y in range(n) if profiles2[y] == profiles1[g]]
                  for g in gens]

    def backtrack(pairs, phi):
        k = len(pairs)
        if k == len(gens):
            return [phi[x] for x in range(n)] if len(phi) == n else None
        for image in candidates[k]:
            extended = pairs + [(gens[k], image)]
            phi2 = _induced_map(M1, M2, extended)
            if phi2 is not None:
                result = backtrack(extended, phi2)
                if result is not None:
                    return result
        return None

    return backtrack([], {M1.zero: M2.zero})


def classify_cyclic_sum(M: FiniteCommMonoid):
    """If M is isomorphic to a direct sum of cyclic monoids C_{n_i} with all
    n_i >= 2, return the sorted list of orders; otherwise None.  The trivial
    monoid returns the empty list.  Cached on M; the caller gets a fresh
    list.  A list is the certificate on which ``is_refinement`` returns
    True with no search."""
    if "cyclic_sum" not in M._cache:
        M._cache["cyclic_sum"] = _cyclic_sum_orders(M)
    cached = M._cache["cyclic_sum"]
    return None if cached is None else list(cached)


def _cyclic_sum_orders(M: FiniteCommMonoid):
    """The uncached ``classify_cyclic_sum``.

    The summands are read off the structure.  In a sum of C_{n_i} the
    minimal nonzero idempotents e_i are the identities of the summands'
    groups, and the elements a with a + e = a for e = e_i alone form the
    group at e_i, of order n_i - 1.  A generator g_i of that group has
    n_i g_i = g_i, so (k_i) -> sum k_i g_i is a homomorphism from the sum
    of C_{n_i}.  M is that sum exactly when the map, over 0 <= k_i < n_i,
    hits every element once.
    """
    n, add = len(M), M.add
    if n == 1:
        return []
    idempotents = [e for e in range(n) if e != M.zero and add[e][e] == e]
    minimal = [e for e in idempotents
               if not any(f != e and add[f][e] == e for f in idempotents)]
    # every summand has at least two elements
    if 2 ** len(minimal) > n:
        return None
    groups = {e: [] for e in minimal}
    for a, row in enumerate(add):
        above = [e for e in minimal if row[e] == a]
        if len(above) == 1:
            groups[above[0]].append(a)
    orders = [len(groups[e]) + 1 for e in minimal]
    if prod(orders) != n:
        return None
    reached = [M.zero]
    for e, order in zip(minimal, orders):
        g = next((a for a in groups[e] if _order_profile(M, a) == (1, order - 1)),
                 None)
        if g is None:
            return None
        sums = []
        for x in reached:
            for _ in range(order):
                sums.append(x)
                x = add[x][g]
        reached = sums
    return sorted(orders) if len(set(reached)) == n else None


# ---------------------------------------------------------------- enumerations


def _check_cap(cap: int) -> int:
    """``cap``, or BadParameters when it is below 1."""
    if cap < 1:
        raise errors.BadParameters(f"cap must be >= 1, got {cap}")
    return cap


def _closure_monoid(names, step, key, cap: int) -> FiniteCommMonoid:
    """The monoid of the normal forms that ``step(x, v)``, the normal form
    of x + e_v, reaches from zero, sorted by ``key`` (None sorts the tuples
    themselves).  Past ``cap`` elements it raises Inconclusive with the
    labels found so far.

    The closure search records act[v][x] = step(x, v).  The normal forms are
    canonical and form a down-set, so for x nonzero and v its last nonzero
    coordinate, x - e_v is an element, which ``key`` must put before x.
    Row 0 is the identity, and row x is act[v] applied to row x - e_v, as
    nf(x + y) = nf(nf(x - e_v + y) + e_v).  That is at most |M|*n steps,
    not |M|^2 / 2: a generator with step(0, v) = 0 acts as the identity, so
    only zero is stepped with it.
    """
    zero = (0,) * len(names)
    # the loop also visits the elements it appends
    found = [zero]
    index = {zero: 0}
    act = [[] for _ in names]
    moving = list(enumerate(act))
    for rep in found:
        for v, row in moving:
            y = step(rep, v)
            x = index.get(y)
            if x is None:
                if len(found) >= cap:
                    raise errors.Inconclusive(
                        f"more than {cap} elements discovered",
                        partial_labels=sorted(format_element(names, u) for u in found),
                    )
                x = index[y] = len(found)
                found.append(y)
            row.append(x)
        if rep is zero:
            # a generator with nf(e_v) = 0 acts as the identity
            moving = [(v, row) for v, row in moving if row[0]]
    elements = sorted(found, key=key)
    order = [index[rep] for rep in elements]
    pos = {x: i for i, x in enumerate(order)}
    # act in sorted indices, on both sides; an identity row holds only its
    # step from zero, which is zero
    act = [[pos[row[x]] for x in order] if row[0] else list(range(len(order)))
           for row in act]
    table = [list(range(len(elements)))]
    for rep in elements[1:]:
        v = len(rep) - 1
        while not rep[v]:
            v -= 1
        below = index[rep[:v] + (rep[v] - 1,) + rep[v + 1:]]
        row = act[v]
        table.append([row[z] for z in table[pos[below]]])
    return FiniteCommMonoid(
        add=table, zero=0, labels=[format_element(names, rep) for rep in elements],
        reps=elements, generators={name: row[0] for name, row in zip(names, act)},
    )


def enumerate_sandpile_monoid(g: SandpileGraph,
                              cap: int = DEFAULT_SANDPILE_CAP) -> FiniteCommMonoid:
    """All stable configurations under add-then-stabilise with the sink
    absorbing, in lexicographic order: mixed radix, the non-sink out-degrees
    d_v as radices.  Their number, the product of the d_v, is checked
    against ``cap`` before any step.

    By the abelian property (Dhar 1990) the stable form of x + e_v is the
    normal form.  A grain that leaves v below d_v needs no firing, so only
    |M| / d_v steps for each non-sink v stabilise.
    """
    size = prod(g.out_degree(v) for v in g.non_sink_vertices())
    if size > _check_cap(cap):
        raise errors.SizeOverBudget(
            f"sandpile monoid has {size} elements, cap is {cap}"
        )
    tops = [g.out_degree(v) - 1 for v in range(g.n_vertices)]
    sink = g.sink

    def step(x, v):
        if x[v] < tops[v]:
            return x[:v] + (x[v] + 1,) + x[v + 1:]
        if v == sink:
            # a grain on the sink is absorbed
            return x
        config = list(x)
        config[v] += 1
        return _stable_form(g, config, sink_absorbing=True)

    return _closure_monoid(g.names, step, None, size)


def enumerate_weighted_monoid(g: WeightedDigraph, sink_relations: bool = True,
                              cap: int = DEFAULT_WEIGHTED_CAP) -> FiniteCommMonoid:
    """Closure of the vertex generators under addition, with congruence
    decided through the completed firing rules, in graded order (number of
    grains, then lexicographic).  The normal forms are the vectors above no
    left-hand side of the rules, a down-set.

    ``sink_relations`` selects whether each sink is identified with zero.
    Raises Inconclusive (never "infinite") when the rule completion or the
    element count exceeds its cap; the partial element list is attached.
    """
    if not g.is_vertex_weighted():
        raise errors.BadParameters("graph is not vertex weighted")
    _check_cap(cap)
    try:
        rs = reduction_system(g, sink_relations)
    except CompletionOverflow as exc:
        raise errors.Inconclusive(
            f"rule completion exceeded its budget ({exc})", partial_labels=None
        ) from None
    return _closure_monoid(g.names, rs.add_generator,
                           lambda rep: (sum(rep), rep), cap)
