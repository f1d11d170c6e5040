"""Finite commutative monoids as explicit Cayley tables.

Elements are dense indices into an addition table; labels keep the human
readable formal-sum names.  All structural predicates (units, atoms,
refinement, smallest ideal, isomorphism) work directly on the table and are
exhaustive, so a negative answer at this scale is a proof.
"""

from __future__ import annotations

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

    def describe(self) -> str:
        return "{" + ", ".join(self.labels) + "}"


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
    for g in _generator_indices(M):
        row_g = add[g]
        for x in range(n):
            row_xg, row_x = add[add[x][g]], add[x]
            if row_xg != [row_x[t] for t in row_g]:
                y = next(y for y in range(n) if row_xg[y] != row_x[row_g[y]])
                raise ValueError(f"not associative at ({x}, {g}, {y})")


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


def is_conical(M: FiniteCommMonoid) -> bool:
    return units(M) == [M.zero]


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


def refine_equation(M: FiniteCommMonoid, a: int, b: int, c: int, d: int):
    """Search a 2x2 refinement of a + b = c + d: elements e1..e4 with
    a = e1+e2, b = e3+e4, c = e1+e3, d = e2+e4.  Returns the quadruple or
    None (exhaustive search, so None is a proof)."""
    if M.add[a][b] != M.add[c][d]:
        raise errors.BadParameters("sides of the equation differ")
    return _refine(M.add, _solutions(M), _decomps(M)[a], b, c, d)


def _refine(add, sol, splits, b: int, c: int, d: int):
    """The search of refine_equation for a + b = c + d, where ``splits``
    lists the unordered decompositions (p, q) of a.  Swapping c and d
    transposes a refinement, so each split is tried both ways round as
    (e1, e2) with a = e1 + e2, and the search needs b = e3 + e4 with
    c = e1 + e3 and d = e2 + e4."""
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


def _smaller_split(decomps, a: int, b: int):
    """(the decompositions of a, b), or of b and a when b has fewer: the
    split that a search of a + b = c + d tries."""
    if len(decomps[b]) < len(decomps[a]):
        return decomps[b], a
    return decomps[a], b


def _generator_indices(M: FiniteCommMonoid) -> list:
    """The nonzero values of ``M.generators`` when adding them to zero again
    and again reaches every element, else ``_generating_set(M)``."""
    n, add = len(M), M.add
    gens = sorted({g for g in (M.generators or {}).values()
                   if isinstance(g, int) and 0 <= g < n} - {M.zero})
    reached = {M.zero}
    frontier = [M.zero]
    while frontier:
        row = add[frontier.pop()]
        for g in gens:
            y = row[g]
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return gens if len(reached) == n else _generating_set(M)


def is_refinement(M: FiniteCommMonoid):
    """Exhaustive refinement check.  Returns (True, None) or
    (False, (a, b, c, d)) with a witnessing equation: the first equation
    with no refinement when the sums c + d, then the pairs of
    ``_decomps(M)[c + d]``, are taken in index order.

    It suffices that every x + y = c + d with x in a generating set X
    refines.  By induction on the length of a1 as a sum of generators:
    write a1 = x + a1', refine x + (a1' + a2) = b1 + b2 into x = p + q,
    a1' + a2 = r + s, b1 = p + r, b2 = q + s, and refine a1' + a2 = r + s
    into t11, t12, t21, t22; then [[p + t11, q + t12], [t21, t22]] refines
    a1 + a2 = b1 + b2.  Those equations are checked in order of their sum.
    Only when one of them fails are all equations scanned for the first
    witness, and only up to that sum, where the failing equation itself
    lies (up to swapping sides).
    """
    add, sol, decomps = M.add, _solutions(M), _decomps(M)
    gens = _generator_indices(M)
    for t, pairs in enumerate(decomps):
        for x in gens:
            for y in sol[x].get(t, ()):
                splits, other = _smaller_split(decomps, x, y)
                for c, d in pairs:
                    if _refine(add, sol, splits, other, c, d) is None:
                        return False, _first_witness(add, sol, decomps, set(gens), t)
    return True, None


def _first_witness(add, sol, decomps, gens, last: int):
    """The first equation a + b = c + d, with (a, b) before or equal to
    (c, d) in ``decomps[a + b]`` and a + b at most ``last``, that has no
    refinement.  Below ``last`` the equations that contain a generator
    refine, as the generator pass has checked them, so they are skipped."""
    for t, pairs in enumerate(decomps[:last + 1]):
        checked = gens if t < last else ()
        for i, (a, b) in enumerate(pairs):
            if a in checked or b in checked:
                continue
            splits, other = _smaller_split(decomps, a, b)
            for c, d in pairs[i:]:
                if c in checked or d in checked:
                    continue
                if _refine(add, sol, splits, other, c, d) is None:
                    return a, b, c, d
    raise errors.CertificateFailed(
        "a generator equation has no refinement, but every equation up to"
        " its sum refines"
    )


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


def monoid_isomorphic(M1: FiniteCommMonoid, M2: FiniteCommMonoid,
                      cap: int = 10 ** 4):
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
    if n > cap:
        raise errors.SizeOverBudget(f"isomorphism search capped at {cap} elements")
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
    monoid returns the empty list.

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


def _sandpile_monoid_size(g: SandpileGraph, cap: int) -> int:
    """The number of stable configurations, the product of the non-sink
    out-degrees; SizeOverBudget when it exceeds ``cap``."""
    _check_cap(cap)
    size = prod(g.out_degree(v) for v in g.non_sink_vertices())
    if size > cap:
        raise errors.SizeOverBudget(
            f"sandpile monoid has {size} elements, cap is {cap}"
            " (raise it with --cap)"
        )
    return size


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
    size = _sandpile_monoid_size(g, cap)
    non_sink = g.non_sink_vertices()
    radices = [g.out_degree(v) for v in non_sink]
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

    The closure search visits the elements in discovery order and records
    the action act[v][x] = nf(x + e_v) of every generator, plus the parent
    (x', v) through which each new element x = nf(x' + e_v) was found.  Row
    0 is the identity, and row x is act[v] applied to row x': normal forms
    are canonical for the congruence, so nf(x + y) = nf(nf(x' + y) + e_v).
    That is |M|*n normal forms, not |M|^2 / 2.

    ``sink_relations`` selects whether each sink is identified with zero.
    Raises Inconclusive (never "infinite") when the rule completion or the
    element count exceeds its cap; the partial element list is attached.
    """
    if not g.is_vertex_weighted():
        raise errors.BadParameters("graph is not vertex weighted")
    _check_cap(cap)
    try:
        rs = reduction_system(g, sink_relations, max_rules)
    except CompletionOverflow as exc:
        raise errors.Inconclusive(
            f"rule completion exceeded its budget ({exc})", partial_labels=None
        ) from None
    nv = g.n_vertices
    zero = (0,) * nv
    # elements in discovery order, with the parent each was first reached
    # from; the loop below also visits the elements it appends
    found = [zero]
    index = {zero: 0}
    parent = [0]
    parent_gen = [0]
    act = [[] for _ in range(nv)]
    add_generator = rs.add_generator
    for x, rep in enumerate(found):
        for v in range(nv):
            cand = add_generator(rep, v)
            y = index.get(cand)
            if y is None:
                if len(found) >= cap:
                    labels = sorted(format_element(g.names, u) for u in found)
                    raise errors.Inconclusive(
                        f"more than {cap} elements discovered",
                        partial_labels=labels,
                    )
                y = index[cand] = len(found)
                found.append(cand)
                parent.append(x)
                parent_gen.append(v)
            act[v].append(y)
    size = len(found)
    order = sorted(range(size), key=lambda x: (sum(found[x]), found[x]))
    pos = [0] * size
    for i, x in enumerate(order):
        pos[x] = i
    # act in final indices, on both sides
    act = [[pos[step[x]] for x in order] for step in act]
    table = [None] * size
    table[pos[0]] = list(range(size))
    for x in range(1, size):
        step = act[parent_gen[x]]
        table[pos[x]] = [step[z] for z in table[pos[parent[x]]]]
    elements = [found[x] for x in order]
    labels = [format_element(g.names, v) for v in elements]
    gen_map = {g.names[v]: act[v][pos[0]] for v in range(nv)}
    return FiniteCommMonoid(add=table, zero=pos[0], labels=labels,
                            reps=elements, generators=gen_map)
