"""The sandpile group by Dhar's construction of its identity.

The smallest ideal I of the sandpile monoid M is the group of recurrent
configurations, and it is isomorphic to the cokernel of the reduced
Laplacian L (Dhar 1990; Speer 1993 for directed graphs with a global sink).
Its identity is the one recurrent configuration in the toppling lattice,
and it has a closed form: with c_max the largest stable configuration,
z = 2 * c_max - stab(2 * c_max) and e = stab(z).  That is three
stabilisations and one Smith normal form, whatever the size of M.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from . import errors
from .graph import SandpileGraph, _require_sandpile
from .ktheory import cokernel, reduced_laplacian
from .monoid import AbelianGroupInvariants
from .rewrite import format_element, stabilize


@dataclass(frozen=True)
class SandpileGroup:
    """The smallest ideal of a sandpile monoid: its identity (a
    configuration with the sink empty) and its invariant factors."""

    monoid_size: int
    identity: tuple
    identity_label: str
    invariants: AbelianGroupInvariants

    @property
    def size(self) -> int:
        return self.invariants.order


def sandpile_group(g: SandpileGraph) -> SandpileGroup:
    """The group of recurrent configurations of ``g``, certified.

    c_max holds d_v - 1 grains at each non-sink vertex v of out-degree d_v.
    Stabilising 2 * c_max fires each vertex o1[v] times; z = 2 * c_max -
    stab(2 * c_max) is then L * o1, L the reduced Laplacian, and e =
    stab(z), firing o2, is the identity.  CertificateFailed is raised, also under ``python -O``, unless

    (a) z >= c_max, so e lies in c_max + M, inside I: e is recurrent;
    (b) e = L * (o1 - o2), so e lies in the toppling lattice;
    (c) e + e stabilises to e;
    (d) the cokernel of L has free rank 0.

    A recurrent configuration in the toppling lattice is the identity of I,
    and |I| is the cokernel's order, whose invariants are reported.
    """
    _require_sandpile(g, "sandpile_group")
    non_sink = g.non_sink_vertices()
    c_max = [0] * g.n_vertices
    for v in non_sink:
        c_max[v] = g.out_degree(v) - 1
    first = stabilize(g, [2 * k for k in c_max])
    z = [2 * k - r for k, r in zip(c_max, first.result)]
    if any(z[v] < c_max[v] for v in non_sink):
        raise errors.CertificateFailed(
            f"2 * c_max - stab(2 * c_max) = {format_element(g.names, z)}"
            " is not above c_max"
        )
    second = stabilize(g, z)
    e = second.result
    label = format_element(g.names, e)
    L = reduced_laplacian(g)
    fired = [first.odometer[v] - second.odometer[v] for v in non_sink]
    if any(e[v] != sum(a * k for a, k in zip(row, fired))
           for v, row in zip(non_sink, L)):
        raise errors.CertificateFailed(
            f"{label} is not L times the difference of the odometers"
        )
    if stabilize(g, [2 * k for k in e]).result != e:
        raise errors.CertificateFailed(f"{label} is not idempotent")
    invariants = cokernel(L)
    if invariants.free_rank:
        raise errors.CertificateFailed(
            f"the reduced Laplacian's cokernel is {invariants.describe()}, not finite"
        )
    return SandpileGroup(
        monoid_size=prod(g.out_degree(v) for v in non_sink),
        identity=e, identity_label=label, invariants=invariants,
    )
