"""End-to-end certification: quotient realization of sandpile monoids,
refinement structure read off the cycle presentation, prime-order
classification and the weighted cycle suite."""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from . import errors
from .graph import (
    SandpileGraph,
    _check_cycle_weights,
    conical_violations,
    cycle_companion_sandpile,
    cycle_companion_unweighted,
    non_cycle_vertices,
    quotient_graph,
    reduce_graph,
    weighted_cycle_graph,
)
from .ktheory import _divisibility_chain, cokernel, k0_matrix, reduced_laplacian
from .monoid import (
    AbelianGroupInvariants,
    _prime_factors,
    abelian_invariants,
    enumerate_sandpile_monoid,
    enumerate_weighted_monoid,
    group_completion,
    is_refinement,
    monoid_isomorphic,
    quotient_by_submonoid,
    smallest_ideal,
    units,
)
from .rewrite import format_element, stabilize


def conicality_report(g: SandpileGraph):
    """(conical, witnesses): witnesses are the non-sink vertices in the
    no-cycle set whose out-degree is not one."""
    bad = conical_violations(g)
    return (not bad, [g.names[v] for v in bad])


def _invariants_json(inv: AbelianGroupInvariants) -> dict:
    return {
        "invariant_factors": list(inv.torsion),
        "free_rank": inv.free_rank,
        "group": inv.describe(),
    }


@dataclass
class RealizationReport:
    name: str | None
    s_vertices: list
    conical: bool
    conical_witnesses: list
    sp_size: int
    v_monoid_size: int
    compared: str
    isomorphism: dict | None
    sandpile_group: AbelianGroupInvariants
    v_monoid_completion: AbelianGroupInvariants
    k0: AbelianGroupInvariants
    verdicts: dict

    @property
    def ok(self) -> bool:
        return all(self.verdicts.values())

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "s_vertices": self.s_vertices,
            "conical": self.conical,
            "conical_witnesses": self.conical_witnesses,
            "sp_size": self.sp_size,
            "v_monoid_size": self.v_monoid_size,
            "compared": self.compared,
            "isomorphism": self.isomorphism,
            "sandpile_group": _invariants_json(self.sandpile_group),
            "v_monoid_completion": _invariants_json(self.v_monoid_completion),
            "k0": _invariants_json(self.k0),
            "verdicts": dict(self.verdicts),
            "ok": self.ok,
        }


def realization(g: SandpileGraph, name=None) -> RealizationReport:
    """Certify the realization of the sandpile monoid by the quotient graph.

    Enumerates both sides and produces an explicit isomorphism between the
    sandpile monoid and the presentation monoid of the quotient by the
    no-cycle set S when G is conical, or between the sandpile monoid modulo
    its units and that monoid otherwise.  The group invariants are compared
    along independent routes: the smallest ideal of each table, the
    cokernel of the reduced Laplacian and the cokernel of the quotient's k0
    matrix.
    """
    S = non_cycle_vertices(g)
    q = quotient_graph(g, S)
    sp = enumerate_sandpile_monoid(g)
    vm = enumerate_weighted_monoid(q, sink_relations=False)
    conical, witnesses = conicality_report(g)
    ideal_invariants = abelian_invariants(smallest_ideal(sp).group)
    vm_completion = group_completion(vm)
    laplacian_invariants = cokernel(reduced_laplacian(g))
    k0_invariants = cokernel(k0_matrix(q))

    if conical:
        compared = "sandpile_monoid"
        left = sp
    else:
        compared = "sandpile_monoid_mod_units"
        left = quotient_by_submonoid(sp, units(sp))
    mapping = monoid_isomorphic(left, vm)
    iso_json = (
        {left.labels[i]: vm.labels[m] for i, m in enumerate(mapping)}
        if mapping is not None
        else None
    )

    verdicts = {
        "realization_isomorphism": mapping is not None,
        "k0_matches_v_monoid_completion": k0_invariants == vm_completion,
        "completion_matches_smallest_ideal": laplacian_invariants == ideal_invariants,
    }
    if conical:
        verdicts["k0_matches_sandpile_group"] = k0_invariants == ideal_invariants

    return RealizationReport(
        name=name,
        s_vertices=[g.names[v] for v in sorted(S)],
        conical=conical,
        conical_witnesses=witnesses,
        sp_size=len(sp),
        v_monoid_size=len(vm),
        compared=compared,
        isomorphism=iso_json,
        sandpile_group=ideal_invariants,
        v_monoid_completion=vm_completion,
        k0=k0_invariants,
        verdicts=verdicts,
    )


# ---------------------------------------------------------- refinement structure


@dataclass
class RefinementStructure:
    classes: list
    orders: list


def _cycle_classes(g: SandpileGraph):
    """(classes, None) when every non-sink vertex sends exactly one edge away
    from the sink and those edges permute the non-sink vertices, each class
    one cycle of the permutation; else (None, the reason it fails)."""
    successor = {}
    for v in g.non_sink_vertices():
        away = [t for t in g.out_targets[v] if t != g.sink]
        if len(away) != 1:
            return None, (f"sends {len(away)} edges from {g.names[v]} away from"
                          " the sink, not exactly one")
        successor[v] = away[0]
    if sorted(successor.values()) != sorted(successor):
        return None, ("has edges away from the sink that do not permute the"
                      " non-sink vertices")
    classes = []
    seen = set()
    for v in sorted(successor):
        cycle = []
        while v not in seen:
            seen.add(v)
            cycle.append(v)
            v = successor[v]
        if cycle:
            classes.append(cycle)
    return classes, None


def refinement_structure(g: SandpileGraph):
    """For a reduced conical sandpile graph, SP(G) is refinement exactly
    when the non-sink vertices form disjoint cycles draining into the sink.
    Returns (RefinementStructure, None) with the cycles and their orders,
    or (None, witness) with a refinement counterexample.

    NotReduced and NotConical come first.  On a union of cycles nothing is
    enumerated: the presentation gives d_i v_i = v_{i+1} around a cycle of
    out-degrees d_i, which Tietze moves reduce to n v_1 = v_1 with n the
    product of the d_i, so the class is C_n.  The reduced Laplacian's
    cokernel must then be the sum of the Z/(n - 1), the groups of the C_n;
    otherwise CertificateFailed, also under ``python -O``.  Any other graph
    is enumerated only to find the witness, and a refinement verdict there
    raises CertificateFailed naming where the cycle structure fails.
    """
    if not g.is_reduced():
        raise errors.NotReduced("graph has irrelevant vertices; reduce it first")
    conical, witnesses = conicality_report(g)
    if not conical:
        raise errors.NotConical(witnesses)
    classes, reason = _cycle_classes(g)
    if classes is None:
        sp = enumerate_sandpile_monoid(g)
        ok, witness = is_refinement(sp)
        if ok:
            raise errors.CertificateFailed(f"refinement sandpile graph {reason}")
        return None, tuple(sp.labels[w] for w in witness)
    orders = [prod(g.out_degree(v) for v in cycle) for cycle in classes]
    laplacian = cokernel(reduced_laplacian(g))
    chain = _divisibility_chain([n - 1 for n in orders])
    expected = AbelianGroupInvariants(tuple(chain))
    if laplacian != expected:
        raise errors.CertificateFailed(
            f"the reduced Laplacian's cokernel is {laplacian.describe()}, not"
            f" {expected.describe()} as the cycle orders {orders} give"
        )
    return RefinementStructure(
        classes=[[g.names[v] for v in cycle] for cycle in classes],
        orders=orders,
    ), None


# ----------------------------------------------------------------- prime order


@dataclass
class PrimeCase:
    kind: str  # "cyclic_group", "monogenic" or "not_prime"
    size: int
    loops: int | None = None
    sink_edges: int | None = None

    def to_json(self) -> dict:
        return {
            "case": self.kind,
            "size": self.size,
            "loops": self.loops,
            "sink_edges": self.sink_edges,
        }


def prime_order_case(g: SandpileGraph) -> PrimeCase:
    """Classify sandpile monoids of prime order p.  The reduced graph has a
    single non-sink vertex x of out-degree p, and with l loops at x its only
    relation is p x = l x: the cyclic group of order p when every edge hits
    the sink (l = 0, not conical), else the monogenic monoid of index l and
    period p - l.  Nothing is enumerated, whatever p is: stabilising p x
    once must give l x, else CertificateFailed, also under ``python -O``."""
    g = reduce_graph(g)
    size = prod(g.out_degree(v) for v in g.non_sink_vertices())
    if _prime_factors(size) != [size]:
        return PrimeCase("not_prime", size)
    # a prime product of out-degrees leaves one vertex besides the sink, as
    # a reduced graph has none of out-degree one
    (x,) = g.non_sink_vertices()
    loops = sum(1 for t in g.out_targets[x] if t == x)
    fired, kept = [0] * g.n_vertices, [0] * g.n_vertices
    fired[x], kept[x] = size, loops
    result = stabilize(g, fired).result
    if result != tuple(kept):
        raise errors.CertificateFailed(
            f"{format_element(g.names, fired)} stabilises to"
            f" {format_element(g.names, result)}, not {format_element(g.names, kept)}"
        )
    if loops == 0:
        return PrimeCase("cyclic_group", size, loops=0, sink_edges=size)
    return PrimeCase("monogenic", size, loops=loops, sink_edges=size - loops)


# ----------------------------------------------------------------- cycle suite


@dataclass
class CycleSuiteReport:
    weights: list
    order: int
    sizes: dict
    isomorphic: dict

    @property
    def ok(self) -> bool:
        return all(self.isomorphic.values())

    def to_json(self) -> dict:
        return {
            "weights": list(self.weights),
            "order": self.order,
            "sizes": dict(self.sizes),
            "isomorphic": dict(self.isomorphic),
            "ok": self.ok,
        }


def cycle_suite(weights) -> CycleSuiteReport:
    """Certify that the weighted cycle, its unweighted companion (weights
    expanded to parallel edges, all edges reversed) and the sandpile
    companion each give the cyclic monoid C_n, n the product of the weights.

    Tietze moves reduce each presentation to n v_1 = v_1, so every size is
    n and nothing is enumerated.  The sandpile companion is a single cycle
    for ``refinement_structure``, which checks the reduced Laplacian and
    must find the orders [n]; the other two are C_n exactly when the
    cokernel of their k0 matrix is Z/(n - 1), the group of C_n."""
    weights = _check_cycle_weights(weights)
    E = weighted_cycle_graph(weights)
    F = cycle_companion_unweighted(weights)
    G = cycle_companion_sandpile(weights)
    order = prod(weights)
    group = AbelianGroupInvariants(tuple(_divisibility_chain([order - 1])))
    structure, _ = refinement_structure(reduce_graph(G))
    isomorphic = {
        "weighted_cycle": cokernel(k0_matrix(E)) == group,
        "unweighted_companion": cokernel(k0_matrix(F)) == group,
        "sandpile_companion": structure is not None and structure.orders == [order],
    }
    return CycleSuiteReport(
        weights=weights, order=order,
        sizes=dict.fromkeys(isomorphic, order), isomorphic=isomorphic,
    )
