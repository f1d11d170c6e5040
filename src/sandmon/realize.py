"""End-to-end certification: quotient realization of sandpile monoids,
refinement structure, prime-order classification, and the weighted cycle
suite, together with the seeded graph corpus used by the property tests."""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import prod

from . import errors
from .graph import (
    SandpileGraph,
    WeightedDigraph,
    conical_violations,
    cycle_companion_sandpile,
    cycle_companion_unweighted,
    loop_sink_graph,
    non_cycle_vertices,
    quotient_graph,
    reduce_graph,
    validate_sandpile,
    weighted_cycle_graph,
)
from .ktheory import cokernel, k0_matrix
from .monoid import (
    AbelianGroupInvariants,
    abelian_invariants,
    cyclic_group_monoid,
    cyclic_monoid,
    enumerate_sandpile_monoid,
    enumerate_weighted_monoid,
    group_completion,
    is_refinement,
    monogenic_monoid,
    monoid_isomorphic,
    quotient_by_submonoid,
    smallest_ideal,
    units,
)


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

    Enumerates both sides, produces an explicit isomorphism (between the
    sandpile monoid and the quotient presentation monoid when conical, or
    between the sandpile monoid modulo its units and that monoid otherwise)
    and cross-checks the three group invariant routes.
    """
    S = non_cycle_vertices(g)
    q = quotient_graph(g, S)
    sp = enumerate_sandpile_monoid(g)
    vm = enumerate_weighted_monoid(q, sink_relations=False)
    conical, witnesses = conicality_report(g)
    ideal_invariants = abelian_invariants(smallest_ideal(sp).group)
    completion_invariants = group_completion(sp)
    vm_completion = group_completion(vm)
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
        "completion_matches_smallest_ideal": completion_invariants == ideal_invariants,
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


def refinement_structure(g: SandpileGraph):
    """For a reduced conical sandpile graph whose monoid is refinement,
    return the partition of the non-sink vertices into oriented cycles
    (each vertex sends exactly one edge along its cycle, all remaining edges
    to the sink), with the cyclic order contributed by each class.

    Returns (RefinementStructure, None) on success, (None, witness) with a
    refinement counterexample otherwise.
    """
    structure, witness, _ = classify_sandpile(g)
    return structure, witness


def classify_sandpile(g: SandpileGraph):
    """``refinement_structure(g)`` together with the sandpile monoid it
    enumerated: (structure, witness, monoid).  NotReduced and NotConical
    are raised before the enumeration.  A refinement verdict on a graph
    that is not a disjoint union of cycles draining into the sink raises
    CertificateFailed."""
    if not g.is_reduced():
        raise errors.NotReduced("graph has irrelevant vertices; reduce it first")
    conical, witnesses = conicality_report(g)
    if not conical:
        raise errors.NotConical(witnesses)
    sp = enumerate_sandpile_monoid(g)
    ok, witness = is_refinement(sp)
    if not ok:
        return None, tuple(sp.labels[w] for w in witness), sp
    successor = {}
    for v in g.non_sink_vertices():
        away = [t for t in g.out_targets[v] if t != g.sink]
        if len(away) != 1:
            raise errors.CertificateFailed(
                f"refinement sandpile graph sends {len(away)} edges from"
                f" {g.names[v]} away from the sink, not exactly one"
            )
        successor[v] = away[0]
    if sorted(successor.values()) != sorted(successor):
        raise errors.CertificateFailed(
            "refinement sandpile graph: the edges away from the sink do not"
            " permute the non-sink vertices"
        )
    classes = []
    seen = set()
    for v in sorted(successor):
        if v in seen:
            continue
        cycle = [v]
        seen.add(v)
        u = successor[v]
        while u != v:
            cycle.append(u)
            seen.add(u)
            u = successor[u]
        classes.append(cycle)
    orders = [prod(g.out_degree(v) for v in cycle) for cycle in classes]
    structure = RefinementStructure(
        classes=[[g.names[v] for v in cycle] for cycle in classes],
        orders=orders,
    )
    return structure, None, sp


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


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_order_case(g: SandpileGraph) -> PrimeCase:
    """Classify sandpile monoids of prime order: with a single non-sink
    vertex x of out-degree p, either every edge hits the sink (the monoid is
    the cyclic group of order p, not conical) or x keeps some loops (the
    monoid is monogenic with index the loop count).  Verdicts are verified
    against the constructed model by isomorphism search."""
    g = reduce_graph(g)
    size = prod(g.out_degree(v) for v in g.non_sink_vertices())
    if not _is_prime(size):
        return PrimeCase("not_prime", size)
    non_sink = g.non_sink_vertices()
    assert len(non_sink) == 1
    x = non_sink[0]
    loops = sum(1 for t in g.out_targets[x] if t == x)
    sink_edges = g.out_degree(x) - loops
    sp = enumerate_sandpile_monoid(g)
    if loops == 0:
        assert monoid_isomorphic(sp, cyclic_group_monoid(size)) is not None
        return PrimeCase("cyclic_group", size, loops=0, sink_edges=size)
    assert monoid_isomorphic(sp, monogenic_monoid(loops, sink_edges)) is not None
    return PrimeCase("monogenic", size, loops=loops, sink_edges=sink_edges)


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
    """Build the weighted cycle, its unweighted companion (weights expanded
    to parallel edges, all edges reversed) and the sandpile companion, and
    verify all three monoids are the cyclic monoid of order equal to the
    product of the weights."""
    E = weighted_cycle_graph(weights)
    F = cycle_companion_unweighted(weights)
    G = cycle_companion_sandpile(weights)
    order = prod(int(w) for w in weights)
    target = cyclic_monoid(order)
    m_cycle = enumerate_weighted_monoid(E, sink_relations=False)
    m_companion = enumerate_weighted_monoid(F, sink_relations=False)
    m_sandpile = enumerate_sandpile_monoid(G)
    sizes = {
        "weighted_cycle": len(m_cycle),
        "unweighted_companion": len(m_companion),
        "sandpile_companion": len(m_sandpile),
    }
    isomorphic = {
        key: monoid_isomorphic(m, target) is not None
        for key, m in [
            ("weighted_cycle", m_cycle),
            ("unweighted_companion", m_companion),
            ("sandpile_companion", m_sandpile),
        ]
    }
    return CycleSuiteReport(
        weights=[int(w) for w in weights], order=order,
        sizes=sizes, isomorphic=isomorphic,
    )


# ---------------------------------------------------------------------- corpus


def random_sandpile_corpus(count: int = 220, seed: int = 20260810,
                           max_non_sink: int = 6, max_out_degree: int = 4,
                           max_monoid_size: int = 64) -> list:
    """Deterministic seeded corpus of valid sandpile graphs.

    Every graph has at most ``max_non_sink`` non-sink vertices and out-degrees
    at most ``max_out_degree``; graphs whose monoid would exceed
    ``max_monoid_size`` elements are rejected so the exhaustive table
    predicates stay fast.
    """
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
        "prime_m_2_5": loop_sink_graph(2, 3),
    }
