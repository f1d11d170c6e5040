"""The sandpile group without a Cayley table.

The smallest ideal I of the sandpile monoid M is the group of recurrent
configurations (Dhar 1990; Speer 1993 for directed graphs with a global
sink).  With s the sum of all elements of M, s + M lies inside every
translate a + M, so I = s + M: the closure of s under adding one grain at a
time.  Its identity is |I| * s, and its invariants are those of the
cokernel of the reduced Laplacian.  That is about |I| * n stabilisations
and no table of |M|^2 or |I|^2 entries.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import errors
from .graph import SandpileGraph
from .ktheory import cokernel, reduced_laplacian
from .monoid import (
    DEFAULT_SANDPILE_CAP,
    AbelianGroupInvariants,
    _sandpile_monoid_size,
)
from .rewrite import _stable_form, format_element


@dataclass(frozen=True)
class SandpileGroup:
    """The smallest ideal of a sandpile monoid: its elements (configurations
    with the sink empty, in discovery order from s), its identity and its
    invariant factors."""

    monoid_size: int
    elements: list
    identity: tuple
    identity_label: str
    invariants: AbelianGroupInvariants

    @property
    def size(self) -> int:
        return len(self.elements)


def _multiple(add, x, k: int):
    """k * x for k >= 1 by double-and-add over the bits of k, highest
    first: at most 2 * floor(log2 k) calls of ``add``."""
    result = x
    for bit in bin(k)[3:]:
        result = add(result, result)
        if bit == "1":
            result = add(result, x)
    return result


def sandpile_group(g: SandpileGraph, cap: int = DEFAULT_SANDPILE_CAP) -> SandpileGroup:
    """The group of recurrent configurations of ``g``, certified.

    s is the stable form of the sum of all stable configurations, which
    holds |M| * (d_v - 1) / 2 grains at each non-sink vertex v of
    out-degree d_v.  I = s + M is found as the closure of s under
    x -> stab(x + e_v); adding a grain below the top digit d_v - 1 leaves x
    stable, so only the top digit is stabilised.  The identity is
    e = |I| * s, by Lagrange's theorem in the group I.

    CertificateFailed is raised, also under ``python -O``, unless e + e = e,
    e lies in I, adding grains to e reaches all of I (so e + M = s + M and
    e is the identity of the smallest ideal, which is a group), and the
    cokernel of the reduced Laplacian is finite of order |I|.  The last
    check counts an enumeration against an independent Smith normal form,
    and the invariants reported are that cokernel's.

    SizeOverBudget when |M| exceeds ``cap``; BadParameters when the cap is
    below 1.
    """
    monoid_size = _sandpile_monoid_size(g, cap)
    gens = [(v, g.out_degree(v) - 1) for v in g.non_sink_vertices()]
    total = [0] * g.n_vertices
    for v, top in gens:
        total[v] = monoid_size * top // 2
    s = _stable_form(g, total)

    index = {s: 0}
    elements = [s]
    act = [[] for _ in gens]
    # the loop also visits the elements it appends
    for x in elements:
        for step, (v, top) in zip(act, gens):
            if x[v] < top:
                y = x[:v] + (x[v] + 1,) + x[v + 1:]
            else:
                config = list(x)
                config[v] += 1
                y = _stable_form(g, config)
            k = index.get(y)
            if k is None:
                k = index[y] = len(elements)
                elements.append(y)
            step.append(k)
    order = len(elements)

    def add(a, b):
        return _stable_form(g, [p + q for p, q in zip(a, b)])

    e = _multiple(add, s, order)
    label = format_element(g.names, e)
    if add(e, e) != e:
        raise errors.CertificateFailed(f"|I| * s = {label} is not idempotent")
    start = index.get(e)
    if start is None:
        raise errors.CertificateFailed(f"|I| * s = {label} does not lie in s + M")
    reached = {start}
    frontier = [start]
    while frontier:
        x = frontier.pop()
        for step in act:
            y = step[x]
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    if len(reached) != order:
        raise errors.CertificateFailed(
            f"{label} + M has {len(reached)} elements, s + M has {order}"
        )
    invariants = cokernel(reduced_laplacian(g))
    if invariants.order != order:
        raise errors.CertificateFailed(
            f"the reduced Laplacian's cokernel is {invariants.describe()},"
            f" but s + M has {order} elements"
        )
    return SandpileGroup(monoid_size=monoid_size, elements=elements, identity=e,
                         identity_label=label, invariants=invariants)
