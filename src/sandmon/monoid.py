"""Finite commutative monoids as explicit Cayley tables.

Elements are dense indices into an addition table; labels keep the human
readable formal-sum names.  All structural predicates (units, atoms,
refinement, smallest ideal, isomorphism) work directly on the table and are
exhaustive, so a negative answer at this scale is a proof.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import product
from math import gcd, prod
from operator import eq, itemgetter

from . import errors
from .graph import SandpileGraph, WeightedDigraph, _require_sandpile
from .rewrite import CompletionOverflow, format_element, reduction_system

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
    """A Cayley table: ``add[x][y]`` is the index of x + y.  ``labels[x]``
    names element x; the enumerators give a ``_Labels`` sequence, which
    formats a label when it is first read, as a report names only a few
    elements.  ``reps`` holds the normal-form vectors, when known."""

    add: list
    zero: int
    labels: Sequence
    reps: list | None = None
    generators: dict | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    def __len__(self):
        return len(self.add)


class _Labels(Sequence):
    """The read-only labels ``format_element(names, reps[x])``, each
    formatted when element x is first read and then kept.  Indexing,
    slicing, ``index``, iteration and ``len`` work as on a list, and the
    sequence equals the list of the same labels."""

    def __init__(self, names, reps):
        self._names = names
        self._reps = reps
        self._formatted = [None] * len(reps)

    def __len__(self):
        return len(self._reps)

    def __getitem__(self, x):
        if isinstance(x, slice):
            return [self[i] for i in range(*x.indices(len(self)))]
        label = self._formatted[x]
        if label is None:
            label = self._formatted[x] = format_element(self._names, self._reps[x])
        return label

    def __eq__(self, other):
        if isinstance(other, (list, _Labels)):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    def __repr__(self):
        return f"_Labels({list(self)!r})"


# ----------------------------------------------------------------- predicates


def units(M: FiniteCommMonoid) -> list:
    """Elements with an additive inverse.  In a commutative monoid they are
    closed under addition ((a + b) + (a' + b') = 0), so they form an abelian
    group.  Cached on M; the caller gets a fresh list.

    A sum is a unit exactly when each summand is: a + b + c = 0 gives a the
    inverse b + c.  So the units are the sums of the unit generators in
    ``_generating_set(M)``, the g with 0 in g's row.  They are closed from
    zero, one step per unit and unit generator, after one scan of each
    generator's row: O(n |M|) for n generators, not a scan of every row."""
    cached = M._cache.get("units")
    if cached is None:
        add, z = M.add, M.zero
        unit_gens = [g for g in _generating_set(M) if z in add[g]]
        closed = {z}
        order = [z]
        for a in order:
            row = add[a]
            for g in unit_gens:
                b = row[g]
                if b not in closed:
                    closed.add(b)
                    order.append(b)
        cached = M._cache["units"] = sorted(closed)
    return list(cached)


def atoms(M: FiniteCommMonoid) -> list:
    """Nonzero elements with no decomposition into two nonzero parts.
    Cached on M; the caller gets a fresh list.

    Every atom is in ``_generating_set(M)``: write any other nonzero x as a
    shortest sum g + a of generators, g one of them; a is nonzero, or
    x = g would be a generator.  A generator g decomposes exactly when
    g = h + c for a generator h and a nonzero c, read off the rows of the
    generators, or when a unit b other than 0 and g exists, as
    g = (g - b) + b.  Conversely, if g = a + b with a and b nonzero, write
    a = h + a' with h a generator: g = h + (a' + b), and a' + b = 0 makes b
    a unit, other than g as a + g = g would give a = 0.  Such a b exists
    for every g when M has three or more units, so then there is no atom.
    With two units 0 and u, each generator g other than u is u + (g + u),
    which u's row shows.  O(n |M|) for n generators, not a scan of the
    whole table."""
    cached = M._cache.get("atoms")
    if cached is None:
        add, z = M.add, M.zero
        cached = []
        if len(units(M)) <= 2:
            gens = _generating_set(M)
            sums = set()
            for h in gens:
                row = add[h]
                sums.update(row[:z], row[z + 1:])
            cached = [g for g in gens if g not in sums]
        M._cache["atoms"] = cached
    return list(cached)


class _Decompositions(dict):
    """decomps[t] lists the unordered pairs (a, b), a <= b, with a + b = t,
    in increasing order.  Sum t is built when it is first read, as a search
    reads only some sums.

    Both parts of a pair divide t, and the divisors of t are the closure of
    {t} under taking a generator off: the elements x with g + x = y for g
    in the generating set ``gens`` and a divisor y, read off the solution
    rows ``sol[g][y]`` (see ``_SolutionRows``).  Only pairs of divisors are
    tried.  A build that would take the pairs tried past n(n+1)/2, the size
    of the full table, fills the remaining sums in one pass over all pairs
    instead, so no table costs more than twice that pass.  That serves the
    unit-heavy tables that no certificate of ``is_refinement`` covers: in
    Z/k with an absorbing element adjoined, every unit divides every sum,
    and the per-sum builds would try about k^3 / 2 pairs."""

    def __init__(self, add, sol, gens):
        super().__init__()
        self.add = add
        self.sol = sol
        self.gens = gens
        n = len(add)
        self.tries_left = n * (n + 1) // 2

    def __missing__(self, t):
        rows = [self.sol[g] for g in self.gens]
        divisors = {t}
        frontier = [t]
        while frontier:
            y = frontier.pop()
            for row in rows:
                for x in row.get(y, ()):
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
    ``_generating_set(M)``, read off ``_solutions(M)``, cached on M."""
    if "decomps" not in M._cache:
        M._cache["decomps"] = _Decompositions(M.add, _solutions(M), _generating_set(M))
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

    Three certificates give True with no search.  A direct sum of cyclic
    monoids, as ``classify_cyclic_sum`` certifies it on the table, refines:
    C_n is {0} with a cyclic group G, an equation a + b = c + d in G
    refines as [[c, a - c], [0, b]], one with a term 0 refines trivially,
    and refinement passes to direct sums.  A group, a table whose every
    element is a unit, refines the same way.

    Third, M refines when its unit group U acts freely and M/U is a cyclic
    sum.  The classes of ``quotient_by_submonoid(M, U)`` are the orbits
    x + U, so U acts freely (x + u = x only for u = 0) exactly when
    |M| = |U| |M/U|.  Lift a refinement of [a] + [b] = [c] + [d] to
    a = f1 + f2 + u1, b = f3 + f4 + u2, c = f1 + f3 + u3, d = f2 + f4 + u4
    with units u1..u4.  Freeness gives u1 + u2 = u3 + u4.  Then
    e1 = f1 + u1, e2 = f2, e3 = f3 + u3 - u1 and e4 = f4 + u4 refine
    a + b = c + d.

    Any other monoid is scanned in the witness order until an equation has
    no refinement; a scan that finds none is the proof.  Only the sums that
    the scan reads are decomposed (see ``_Decompositions``).
    """
    if classify_cyclic_sum(M) is not None:
        return True, None
    unit_list = units(M)
    if len(unit_list) == len(M):
        return True, None
    if len(unit_list) > 1:
        quotient = quotient_by_submonoid(M, unit_list)
        if (len(M) == len(unit_list) * len(quotient)
                and classify_cyclic_sum(quotient) is not None):
            return True, None
    add, decomps = M.add, _decomps(M)
    sol = decomps.sol
    for t in range(len(M)):
        pairs = decomps[t]
        for i, (a, b) in enumerate(pairs):
            splits = decomps[a]
            for c, d in pairs[i:]:
                if _refine(add, sol, splits, b, c, d) is None:
                    return False, (a, b, c, d)
    return True, None


# -------------------------------------------------------------- group structure


@dataclass(frozen=True)
class SmallestIdeal:
    elements: tuple
    identity: int


def smallest_ideal(M: FiniteCommMonoid) -> SmallestIdeal:
    """Intersection of all translates a + M: the unique smallest ideal, which
    is a group (for sandpile monoids, the recurrent elements).  Cached on M.

    With s the sum of all elements, s + M lies inside every a + M, so the
    intersection is the single translate s + M.  The result is certified on
    M's own table, with no table of the ideal: its idempotent e satisfies
    e + M = s + M, every sum of two ideal elements lies in the ideal, and
    every ideal element reaches e inside the ideal.  Then e + M is a group,
    so it lies inside every ideal.  A table that fails the check raises
    CertificateFailed.
    """
    cached = M._cache.get("smallest_ideal")
    if cached is not None:
        return cached
    add = M.add
    s = M.zero
    for a in range(len(M)):
        s = add[s][a]
    ideal = set(add[s])
    elements = tuple(sorted(ideal))
    e = next((x for x in elements if add[x][x] == x), None)
    if e is None or set(add[e]) != ideal:
        raise errors.CertificateFailed(
            "the intersection of all translates is not e + M for an idempotent e"
        )
    within = itemgetter(e, *elements)
    for x in elements:
        sums = within(add[x])
        if not ideal.issuperset(sums):
            raise errors.CertificateFailed("the smallest ideal is not closed")
        if e not in sums:
            raise errors.CertificateFailed(
                f"an element of the smallest ideal has no inverse for {M.labels[e]}"
            )
    result = SmallestIdeal(elements, e)
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
    """Invariant factors of a finite abelian group given by its table."""
    return _invariants(group.add, range(len(group)), group.zero)


def _invariants(add, elements, z: int) -> AbelianGroupInvariants:
    """Invariant factors of the finite abelian group on ``elements``, with
    identity z, under the table ``add``, recovered from the kernel sizes of
    multiplication by prime powers.  A kernel size that is not a power of
    its prime raises CertificateFailed."""
    exponents = {}
    for p in _prime_factors(len(elements)):
        times_p = {}
        for y in elements:
            acc = z
            for _ in range(p):
                acc = add[acc][y]
            times_p[y] = acc
        counts = [0]
        current = elements
        while True:
            current = [times_p[x] for x in current]
            kernel = current.count(z)
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
    t = max((len(v) for v in exponents.values()), default=0)
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
    ideal on M's table (they coincide for finite commutative monoids)."""
    ideal = smallest_ideal(M)
    return _invariants(M.add, ideal.elements, ideal.identity)


def quotient_by_submonoid(M: FiniteCommMonoid, I) -> FiniteCommMonoid:
    """Quotient by the congruence a ~ b iff a + i = b + j for some i, j in
    the submonoid I, given by element indices.  All of I collapses onto the
    zero class, and each generator of M names its class.

    I is closed exactly when the submonoid that a generating set of I
    generates stays inside I, and a ~ a + i for every i in I follows from
    a ~ a + g for the generators g, so both run over that set alone."""
    n = len(M)
    I = set(I)
    if M.zero not in I:
        raise errors.NotSubmonoid("submonoid must contain zero")
    gens = _generators(
        M.add, M.zero, sorted(I), I,
        lambda *_: errors.NotSubmonoid("subset is not closed under addition"),
    )

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
        for g in gens:
            union(a, row[g])

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


def _order_profiles(M: FiniteCommMonoid) -> list:
    """``_order_profile(M, x)`` for every x, walking only the elements that
    no earlier walk reached.  The walk of x, of index i and period p,
    passes k x for k < i + p, and k x has index ceil(i / k) and period
    p / gcd(p, k)."""
    add = M.add
    profiles = [None] * len(M)
    for x, known in enumerate(profiles):
        if known is not None:
            continue
        seen = {x: 1}
        y = add[x][x]
        while y not in seen:
            seen[y] = len(seen) + 1
            y = add[y][x]
        i = seen[y]
        p = len(seen) + 1 - i
        for y, k in seen.items():
            if profiles[y] is None:
                profiles[y] = (-(-i // k), p // gcd(p, k))
    return profiles


def _generators(add, zero: int, elements, inside, refuse) -> list:
    """The elements, in the order given, that the earlier ones do not
    generate in the table ``add``.  A new generator x is added to every
    element generated so far, and each element reached is added to every
    generator, so each element costs one step per generator.  Raises
    ``refuse(gens, a)`` for the first sum a found outside ``inside``."""
    gens = []
    closed = {zero}
    for x in elements:
        if x in closed:
            continue
        gens.append(x)
        # x twice, so that one generator still gives a tuple
        plus_gens = itemgetter(x, *gens)
        frontier = [add[a][x] for a in closed]
        while frontier:
            a = frontier.pop()
            if a not in closed:
                if a not in inside:
                    raise refuse(gens, a)
                closed.add(a)
                frontier += plus_gens(add[a])
    return gens


def _generating_set(M: FiniteCommMonoid) -> list:
    """The elements, in index order, that the earlier ones do not generate
    (``_generators``).  Cached on M; the caller gets a fresh list."""
    cached = M._cache.get("generating_set")
    if cached is None:
        elements = range(len(M))
        cached = M._cache["generating_set"] = _generators(
            M.add, M.zero, elements, elements,
            lambda gens, a: errors.CertificateFailed(
                f"a sum of {gens} is {a!r}, which names no element"
            ),
        )
    return list(cached)


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
    profiles1 = _order_profiles(M1)
    profiles2 = _order_profiles(M2)
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


def _closure_monoid(names, step, cap: int) -> FiniteCommMonoid:
    """The monoid of the normal forms that ``step(x, v)``, the normal form
    of x + e_v, reaches from zero, in graded order: number of grains, then
    lexicographic.  Past ``cap`` elements it raises Inconclusive with the
    labels found so far.

    The closure search records act[v][x] = step(x, v), and for each element
    x the step x = step(y, v) that first found it.  Row 0 is the identity,
    and row x is row y gathered at the entries of act[v], as the normal
    forms are canonical: nf(x + z) = nf(y + nf(z + e_v)).  Each row is one
    ``itemgetter`` call over act[v], remapped to the sorted indices.  The
    rows are built in the order found, so row y is built before row x, and
    the normal forms need not form a down-set.  That is at most |M|*n
    steps, not |M|^2 / 2: a generator with step(0, v) = 0 acts as the
    identity, so only zero is stepped with it.  A table of one element has
    no moving generator, so every gather takes two or more entries and
    returns a tuple.  The labels are formatted when read (``_Labels``).
    """
    zero = (0,) * len(names)
    # the loop also visits the elements it appends
    found = [zero]
    index = {zero: 0}
    parents = [None]
    act = [[] for _ in names]
    moving = list(enumerate(act))
    for y, rep in enumerate(found):
        for v, row in moving:
            z = step(rep, v)
            x = index.get(z)
            if x is None:
                if len(found) >= cap:
                    raise errors.Inconclusive(
                        f"more than {cap} elements discovered",
                        partial_labels=sorted(format_element(names, u) for u in found),
                    )
                x = index[z] = len(found)
                found.append(z)
                parents.append((y, v))
            row.append(x)
        if rep is zero:
            # a generator with nf(e_v) = 0 acts as the identity
            moving = [(v, row) for v, row in moving if row[0]]
    elements = sorted(found, key=lambda rep: (sum(rep), rep))
    order = [index[rep] for rep in elements]
    pos = {x: i for i, x in enumerate(order)}
    generators = {name: pos[row[0]] for name, row in zip(names, act)}
    # each row in found order, gathered through the moving generators' steps
    # in sorted indices on both sides
    gather = {v: itemgetter(*[pos[row[x]] for x in order]) for v, row in moving}
    rows = [list(range(len(order)))]
    for y, v in parents[1:]:
        rows.append(list(gather[v](rows[y])))
    return FiniteCommMonoid(
        add=[rows[x] for x in order], zero=0,
        labels=_Labels(names, elements), reps=elements, generators=generators,
    )


def _sandpile_action(g: SandpileGraph, places: list, index: list) -> list:
    """act[v][x], the index of stab(x + e_v), for each non-sink v and each
    stable configuration x, indexed in mixed radix with place value
    ``places[v]`` for v's digit x_v; None for the sink.  The entries are
    the int objects of ``index``, ``range(|M|)`` as a list, so that a table
    built from them holds one int object per element.

    Below the top digit, x + e_v is stable: act[v][x] = x + places[v].  At
    x_v = d_v - 1, x + e_v fires v once, which leaves x - (d_v - 1) e_v
    plus a grain on each non-sink out-target t of v, loops and parallel
    edges counted with multiplicity.  Those grains are added one at a time
    through act[t], as stab(a + e_t + e_u) = stab(stab(a + e_t) + e_u).  An
    entry that is not known yet is resolved first, on an explicit stack.
    Every pending entry is one topple of a legal firing sequence of x + e_v,
    and on a sandpile graph every such sequence is finite (its reduced
    Laplacian is nonsingular), so no entry waits on itself.
    """
    sink, size = g.sink, len(index)
    tops = [g.out_degree(v) - 1 for v in range(g.n_vertices)]
    fired = [[t for t in targets if t != sink] for targets in g.out_targets]
    act = [None] * g.n_vertices
    for v, place in enumerate(places):
        if v != sink:
            # x + place, or past the end where x_v is top anyway
            row = act[v] = index[place:] + [None] * place
            hole = [None] * place
            for x in range(tops[v] * place, size, (tops[v] + 1) * place):
                row[x:x + place] = hole
    for v, row in enumerate(act):
        if row is None:
            continue
        for x in range(size):
            if row[x] is not None:
                continue
            stack = [(v, x, x - tops[v] * places[v], 0)]
            while stack:
                u, y, z, i = stack.pop()
                targets = fired[u]
                for i in range(i, len(targets)):
                    t = targets[i]
                    w = act[t][z]
                    if w is None:
                        # resolve (t, z) first, then resume at target i
                        stack.append((u, y, z, i))
                        stack.append((t, z, z - tops[t] * places[t], 0))
                        break
                    z = w
                else:
                    act[u][y] = index[z]
    return act


def enumerate_sandpile_monoid(g: SandpileGraph,
                              cap: int = DEFAULT_SANDPILE_CAP) -> FiniteCommMonoid:
    """All stable configurations under add-then-stabilise with the sink
    absorbing, in lexicographic order: mixed radix, the non-sink out-degrees
    d_v as radices.  Their number, the product of the d_v, is checked
    against ``cap`` before any table work.

    By the abelian property (Dhar 1990; Bjorner, Lovasz and Shor 1991) the
    elements and their order are known before any step: element x is its
    mixed-radix index, and the sum of x and y is the stable form of their
    configurations' sum.  The action table ``_sandpile_action`` gives the
    index of x + e_v for each non-sink v; no configuration is stabilised.
    Row 0 is the identity.  The rows are built by block doubling, from the
    least significant digit to the most: before vertex v, with place value
    R_v and out-degree d_v, the rows 0 ... R_v - 1 are built, and d_v - 1
    times the last R_v rows are extended by themselves gathered at the
    entries of act[v], one ``itemgetter`` call per row.  Row x is then row
    x - R_v gathered through act[v], as (x - R_v) + (z + e_v) = x + z.  A
    vertex of out-degree 1 has digit 0 throughout and adds no block, so a
    table of one element builds no gather, and every gather takes two or
    more entries and returns a tuple.  The sink's generator is zero, as
    the sink absorbs.  The labels are formatted when read (``_Labels``).
    """
    _require_sandpile(g, "enumerate_sandpile_monoid")
    size = prod(g.out_degree(v) for v in g.non_sink_vertices())
    if size > _check_cap(cap):
        raise errors.SizeOverBudget(
            f"sandpile monoid has {size} elements, cap is {cap}"
        )
    sink = g.sink
    radices = [1 if v == sink else g.out_degree(v) for v in range(g.n_vertices)]
    places = [0] * g.n_vertices
    place = 1
    for v in reversed(range(g.n_vertices)):
        if v != sink:
            places[v] = place
            place *= radices[v]
    index = list(range(size))
    act = _sandpile_action(g, places, index)
    rows = [index]
    # least significant first; a digit that is always zero adds no block
    for v in reversed(range(g.n_vertices)):
        if radices[v] > 1:
            add_v, place = itemgetter(*act[v]), places[v]
            for _ in range(radices[v] - 1):
                rows += map(list, map(add_v, rows[-place:]))
    reps = list(product(*(range(d) for d in radices)))
    return FiniteCommMonoid(
        add=rows, zero=0, labels=_Labels(g.names, reps), reps=reps,
        generators={name: 0 if row is None else row[0]
                    for name, row in zip(g.names, act)},
    )


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
    return _closure_monoid(g.names, rs.add_generator, cap)
