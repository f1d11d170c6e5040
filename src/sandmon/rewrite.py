"""Configurations on a graph and the one-step firing relation.

A configuration is a tuple of non-negative grain counts indexed by vertex.
Firing a vertex v holding at least weight(v) grains removes weight(v) grains
from v and adds one grain at the target of each outgoing edge (loops return
grains to v in the same step).  Sinks may additionally fire away single
grains when sink relations are switched on; that is the congruence used by
graph monoids, while the potential certificate and plain stabilisation work
with sink grains retained.

Deciding whether two configurations are congruent is done in three layers:
stable-form comparison on sandpile graphs, an exact check through a
confluent completion of the firing rules, and a budgeted breadth-first
search for a common reduct as a fallback.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass

from . import errors
from .graph import SandpileGraph, WeightedDigraph, shortest_sink_distances

DEFAULT_STEP_BUDGET = 100_000
MAX_RULES = 4000  # a completion with more rules raises CompletionOverflow

# ------------------------------------------------------------- configurations


def config_from_counts(g: WeightedDigraph, counts) -> tuple:
    """Build a configuration from a mapping, or a list of pairs, of vertex
    (name or index) to count.  Naming one vertex twice is BadParameters."""
    out = [0] * g.n_vertices
    named = set()
    for v, k in (counts.items() if isinstance(counts, Mapping) else counts):
        k = int(k)
        if k < 0:
            raise errors.BadParameters(f"negative count for {v!r}")
        v = g._resolve(v)
        if v in named:
            raise errors.BadParameters(f"two counts for vertex {g.names[v]!r}")
        named.add(v)
        out[v] = k
    return tuple(out)


def parse_config(g: WeightedDigraph, text: str) -> tuple:
    """Parse ``v1=3,s=1``; omitted vertices hold zero grains."""
    counts = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise errors.BadParameters(f"bad configuration entry {chunk!r}")
        name, _, value = chunk.partition("=")
        try:
            counts.append((name.strip(), int(value)))
        except ValueError:
            raise errors.BadParameters(f"bad count in {chunk!r}") from None
    return config_from_counts(g, counts)


def config_to_str(g: WeightedDigraph, c) -> str:
    return ",".join(f"{g.names[v]}={k}" for v, k in enumerate(c) if k)


def format_element(names, vec) -> str:
    """Formal-sum rendering of a count vector, e.g. ``2x+s`` or ``0``."""
    parts = []
    for v, k in enumerate(vec):
        if k == 1:
            parts.append(names[v])
        elif k > 1:
            parts.append(f"{k}{names[v]}")
    return "+".join(parts) if parts else "0"


def _check_config(g: WeightedDigraph, c) -> tuple:
    c = tuple(int(k) for k in c)
    if len(c) != g.n_vertices:
        raise errors.BadParameters(
            f"configuration has {len(c)} entries for {g.n_vertices} vertices"
        )
    if any(k < 0 for k in c):
        raise errors.BadParameters("configuration counts must be non-negative")
    return c


# ------------------------------------------------------------------- transforms


def r_transform(g: WeightedDigraph, v) -> tuple:
    """The grains received when v fires: one per outgoing edge, at its target."""
    v = g._resolve(v)
    if not g.out_edge_ids[v]:
        raise errors.SinkHasNoTransform(f"{g.names[v]!r} emits no edges")
    out = [0] * g.n_vertices
    for t in g.out_targets[v]:
        out[t] += 1
    return tuple(out)


def _firing_rules(g: WeightedDigraph) -> tuple:
    """(by_vertex, sweep), cached on the (immutable) graph: by_vertex[v] is
    (weight, targets) for a regular v and None for a sink, and sweep lists
    (v, weight, targets) for the regular vertices in index order."""
    rules = g.__dict__.get("_firing_rules")
    if rules is None:
        by_vertex = tuple(
            (g.weight(v), g.out_targets[v]) if g.out_edge_ids[v] else None
            for v in range(g.n_vertices)
        )
        sweep = tuple((v, *r) for v, r in enumerate(by_vertex) if r is not None)
        rules = g._firing_rules = (by_vertex, sweep)
    return rules


def _fire_once(g: WeightedDigraph, c: tuple, v: int, sink_rule: bool):
    """c after one firing of v, or None when v cannot fire.  A regular v
    needs weight(v) grains: it loses them and sends one grain along each
    outgoing edge.  A sink fires only under ``sink_rule``, and then it
    fires one grain away."""
    rule = _firing_rules(g)[0][v]
    if rule is None:
        if not sink_rule:
            return None
        w, targets = 1, ()
    else:
        w, targets = rule
    if c[v] < w:
        return None
    out = list(c)
    out[v] -= w
    for t in targets:
        out[t] += 1
    return tuple(out)


def topple_once(g: WeightedDigraph, c, v) -> tuple:
    """Fire the regular vertex v once: remove weight(v) grains, deliver one
    along each outgoing edge.  Sink grains are retained."""
    c = _check_config(g, c)
    v = g._resolve(v)
    if not g.out_edge_ids[v]:
        raise errors.SinkCannotTopple(f"{g.names[v]!r} is a sink")
    out = _fire_once(g, c, v, sink_rule=False)
    if out is None:
        raise errors.VertexStable(
            f"{g.names[v]!r} holds {c[v]} grains, needs {g.weight(v)} to fire"
        )
    return out


@dataclass(frozen=True)
class StabilizationTrace:
    result: tuple
    odometer: tuple
    steps: int
    fired: tuple | None = None

    def to_json(self, g: WeightedDigraph) -> dict:
        return {
            "result": config_to_str(g, self.result),
            "odometer": {
                g.names[v]: k for v, k in enumerate(self.odometer) if k
            },
            "steps": self.steps,
        }


def _fire(g: WeightedDigraph, counts: list, odometer=None, fired=None,
          budget=None):
    """The firing kernel: topple ``counts`` (a list) in place until no
    regular vertex holds its weight; returns (steps, exhausted).

    Each sweep visits the regular vertices in index order and fires an
    unstable v k = counts[v] // weight(v) times at once; sweeps repeat until
    one fires nothing.  Sinks never fire.  ``odometer`` gains k at v;
    ``fired`` gains k copies of v, which replay one at a time since v held
    k * weight(v) grains and loops only return grains.  A ``budget`` cuts
    the batch that would pass it short: steps == budget, exhausted is True.
    """
    data = _firing_rules(g)[1]
    steps = 0
    swept = True
    while swept:
        swept = False
        for v, w, targets in data:
            c = counts[v]
            if c >= w:
                k = c // w
                exhausted = budget is not None and k > budget - steps
                if exhausted:
                    k = budget - steps
                counts[v] = c - k * w
                for t in targets:
                    counts[t] += k
                steps += k
                if odometer is not None:
                    odometer[v] += k
                if fired is not None:
                    fired.extend([v] * k)
                if exhausted:
                    return steps, True
                swept = True
    return steps, False


def stabilize(g: SandpileGraph, c, sink_absorbing: bool = True,
              record: bool = False) -> StabilizationTrace:
    """Topple to the unique stable configuration in batched sweeps over the
    vertices in index order (``_fire``).  By the abelian property (Dhar
    1990; Bjorner, Lovasz and Shor 1991) the result, the odometer and the
    step count are those of every complete firing order.

    With ``sink_absorbing`` the sink is emptied (sandpile monoid semantics);
    otherwise sink grains accumulate.  Termination is guaranteed on sandpile
    graphs, so no budget applies.  ``record`` keeps a firing sequence that
    ``topple_once`` replays from ``c``.
    """
    if not isinstance(g, SandpileGraph):
        raise errors.BadParameters("stabilize needs a validated sandpile graph")
    counts = list(_check_config(g, c))
    odometer = [0] * g.n_vertices
    fired = [] if record else None
    steps, _ = _fire(g, counts, odometer, fired)
    if sink_absorbing:
        counts[g.sink] = 0
    return StabilizationTrace(
        tuple(counts), tuple(odometer), steps,
        tuple(fired) if record else None,
    )


def _stable_form(g: SandpileGraph, counts, sink_absorbing=True) -> tuple:
    """Fast stabilisation without trace bookkeeping."""
    counts = list(counts)
    _fire(g, counts)
    if sink_absorbing:
        counts[g.sink] = 0
    return tuple(counts)


def stabilize_weighted(g: WeightedDigraph, c,
                       step_budget: int = DEFAULT_STEP_BUDGET) -> StabilizationTrace:
    """Stabilise on a vertex weighted graph, which may not terminate.

    Raises BudgetExhausted (carrying the partial trace, whose steps equal
    the budget) once the step budget runs out; that says nothing about
    divergence, only that the budget ended.
    """
    if not g.is_vertex_weighted():
        raise errors.BadParameters("graph is not vertex weighted")
    if step_budget < 0:
        raise errors.BadParameters(f"step budget must be >= 0, got {step_budget}")
    counts = list(_check_config(g, c))
    odometer = [0] * g.n_vertices
    steps, exhausted = _fire(g, counts, odometer, budget=step_budget)
    trace = StabilizationTrace(tuple(counts), tuple(odometer), steps)
    if exhausted:
        raise errors.BudgetExhausted(
            f"no stable form within {step_budget} steps", partial=trace
        )
    return trace


def potential(g: SandpileGraph, c) -> int:
    """Exact certificate value that strictly increases under every topple
    with sink grains retained: sum of count(v) * D**(n - dist(v)) where D is
    the largest vertex weight (at least 2) and dist is the shortest path
    length to the sink."""
    c = _check_config(g, c)
    non_sink = [v for v in range(g.n_vertices) if v != g.sink]
    D = max([2] + [g.weight(v) for v in non_sink])
    n = g.n_vertices
    dist = shortest_sink_distances(g)
    return sum(k * D ** (n - dist[v]) for v, k in enumerate(c) if k)


# ------------------------------------------------------------ congruence search


def _successor_moves(g: WeightedDigraph, sink_rule: bool, c):
    """All one-step firings from c: (vertex, successor) pairs."""
    moves = []
    for v in range(len(c)):
        nxt = _fire_once(g, c, v, sink_rule)
        if nxt is not None:
            moves.append((v, nxt))
    return moves


@dataclass(frozen=True)
class CommonReduct:
    config: tuple
    steps_from_a: tuple
    steps_from_b: tuple


def apply_steps(g: WeightedDigraph, c, steps, include_sink_relations=True) -> tuple:
    """Replay a firing sequence; used to verify common reducts."""
    c = _check_config(g, c)
    for v in steps:
        nxt = _fire_once(g, c, v, include_sink_relations)
        if nxt is None:
            kind = "firing" if g.out_edge_ids[v] else "sink firing"
            raise errors.VertexStable(f"cannot replay {kind} of {g.names[v]!r}")
        c = nxt
    return c


def _closure_search(g, a, b, budget, include_sink_relations):
    """Level-by-level forward closures from a and b, intersected.

    Returns (CommonReduct or None, status) with status one of ``found``,
    ``disjoint`` (both closures fully enumerated, no intersection) and
    ``budget``.
    """
    parents = ({a: None}, {b: None})
    frontiers = ([a], [b])

    def intersection():
        small, large = sorted(parents, key=len)
        hits = [c for c in small if c in large]
        return min(hits, key=lambda c: (sum(c), c)) if hits else None

    def path(side, c):
        steps = []
        while parents[side][c] is not None:
            prev, v = parents[side][c]
            steps.append(v)
            c = prev
        return tuple(reversed(steps))

    hit = intersection()
    remaining = budget
    exhausted = False
    while hit is None and not exhausted and (frontiers[0] or frontiers[1]):
        for side in (0, 1):
            frontier = frontiers[side]
            seen = parents[side]
            nxt = []
            for c in frontier:
                if exhausted:
                    break
                for v, succ in _successor_moves(g, include_sink_relations, c):
                    if remaining <= 0:
                        exhausted = True
                        break
                    remaining -= 1
                    if succ not in seen:
                        seen[succ] = (c, v)
                        nxt.append(succ)
            frontiers[side][:] = nxt
            hit = intersection()
            if hit is not None:
                break
    if hit is not None:
        return CommonReduct(hit, path(0, hit), path(1, hit)), "found"
    if not exhausted and not frontiers[0] and not frontiers[1]:
        return None, "disjoint"
    return None, "budget"


def common_reduct(g: WeightedDigraph, a, b, budget: int = DEFAULT_STEP_BUDGET,
                  include_sink_relations: bool = True):
    """Search for a configuration both a and b fire down to.

    On sandpile graphs the answer is exact: the common reduct is the shared
    stable form (with the sink fired down to zero when sink relations are
    on), or None when the stable forms differ.  Elsewhere a level-by-level
    search runs under the step budget; None is then not a proof that a and b
    are incongruent.

    Returns a CommonReduct whose step lists replay from a and b.
    """
    a = _check_config(g, a)
    b = _check_config(g, b)
    if isinstance(g, SandpileGraph):
        traces = [stabilize(g, c, sink_absorbing=False, record=True) for c in (a, b)]
        steps = []
        results = []
        for trace in traces:
            fired = list(trace.fired)
            result = trace.result
            if include_sink_relations:
                fired.extend([g.sink] * result[g.sink])
                result = tuple(
                    0 if v == g.sink else k for v, k in enumerate(result)
                )
            steps.append(tuple(fired))
            results.append(result)
        if results[0] != results[1]:
            return None
        return CommonReduct(results[0], steps[0], steps[1])
    result, _ = _closure_search(g, a, b, budget, include_sink_relations)
    return result


def equivalent(g: WeightedDigraph, a, b, budget: int = DEFAULT_STEP_BUDGET,
               include_sink_relations: bool = True):
    """Decide congruence of two configurations.

    Sandpile graphs are decided exactly by comparing stable forms.  Other
    vertex weighted graphs are decided exactly through the completed firing
    rules whenever completion fits its budget; otherwise a breadth-first
    common-reduct search answers True, False (both closures finite, fully
    enumerated and disjoint) or None for undecided.
    """
    a = _check_config(g, a)
    b = _check_config(g, b)
    if isinstance(g, SandpileGraph):
        return (
            _stable_form(g, a, sink_absorbing=include_sink_relations)
            == _stable_form(g, b, sink_absorbing=include_sink_relations)
        )
    try:
        rs = reduction_system(g, include_sink_relations)
    except CompletionOverflow:
        rs = None
    if rs is not None:
        return rs.normal_form(a) == rs.normal_form(b)
    result, status = _closure_search(g, a, b, budget, include_sink_relations)
    if status == "found":
        return True
    if status == "disjoint":
        return False
    return None


# ------------------------------------------------------- completed presentations


class CompletionOverflow(Exception):
    """Internal: critical-pair completion exceeded its rule budget."""


def _deglex_key(vec):
    return (sum(vec), vec)


def _sparse_rule(lhs, rhs):
    """A rule as (checks, moves, grown): the (i, lhs[i]) with lhs[i] > 0 it
    needs, the (i, rhs[i] - lhs[i]) it adds, and the coordinates it grows."""
    checks = tuple((i, k) for i, k in enumerate(lhs) if k)
    moves = tuple((i, b - a) for i, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
    return checks, moves, tuple(i for i, d in moves if d > 0)


class ReductionSystem:
    """A confluent, terminating rewriting system on count vectors.

    Built from congruence pairs by orienting them along the graded
    lexicographic order and resolving all critical pairs.  Normal forms are
    then canonical: two vectors are congruent exactly when their normal
    forms coincide, and the normal form is the graded-lex least element of
    its congruence class.

    Completion reduces by the first applicable rule in list order, one
    application at a time, so ``rules`` (and where ``CompletionOverflow``
    fires) is fixed by the relations and ``MAX_RULES`` alone.  Afterwards
    the normal forms are the vectors above no left-hand side (Dickson's
    lemma), so a smaller working set gives the same ones: the rules whose
    left-hand side is minimal, with every right-hand side in normal form.
    ``_by_gen[v]`` lists the working rules whose left-hand side uses v.  A
    reduction keeps a worklist of the coordinates that grew, since only a
    rule using one of them can have become applicable;
    ``add_generator(x, v)`` starts it at {v} for an x already in normal
    form.
    """

    def __init__(self, n_gens: int, relations):
        self.n_gens = n_gens
        self.rules = []
        sparse = []  # (checks, moves) of each rule, in list order
        supports = []  # bit mask of the coordinates each left-hand side uses
        pending = deque()

        def reduce(vec):
            vec = list(vec)
            while True:
                for checks, moves in sparse:
                    for i, k in checks:
                        if vec[i] < k:
                            break
                    else:
                        for i, d in moves:
                            vec[i] += d
                        break
                else:
                    return tuple(vec)

        def add_rule(x, y):
            x, y = reduce(x), reduce(y)
            if x == y:
                return
            if _deglex_key(x) < _deglex_key(y):
                x, y = y, x
            if len(self.rules) >= MAX_RULES:
                raise CompletionOverflow(f"more than {MAX_RULES} rules")
            new_index = len(self.rules)
            self.rules.append((x, y))
            sparse.append(_sparse_rule(x, y)[:2])
            supports.append(sum(1 << i for i, k in enumerate(x) if k))
            for j in range(new_index):
                pending.append((new_index, j))

        for x, y in relations:
            add_rule(tuple(x), tuple(y))

        while pending:
            i, j = pending.popleft()
            if not supports[i] & supports[j]:
                # disjoint left-hand sides never create an unresolved overlap
                continue
            via_i = list(map(max, self.rules[i][0], self.rules[j][0]))
            via_j = via_i[:]
            for k, d in sparse[i][1]:
                via_i[k] += d
            for k, d in sparse[j][1]:
                via_j[k] += d
            add_rule(via_i, via_j)

        # The working set.  A left-hand side above another one has a larger
        # degree, so in graded order one that is not minimal already reduces
        # by the rules indexed before it.  The completed list reduces each
        # right-hand side to its normal form.
        self._by_gen = [[] for _ in range(n_gens)]
        for lhs, rhs in sorted(self.rules, key=lambda rule: _deglex_key(rule[0])):
            if self.normal_form(lhs) == lhs:
                rule = _sparse_rule(lhs, reduce(rhs))
                for i, _ in rule[0]:
                    self._by_gen[i].append(rule)

    def _settle(self, vec: list, grown: set) -> tuple:
        """Rewrite the list vec to its normal form.  Every rule applicable
        to vec must use a coordinate in ``grown``, the worklist."""
        by_gen = self._by_gen
        while grown:
            for checks, moves, up in by_gen[grown.pop()]:
                # vec may hold the left-hand side several times over, and
                # only a grown coordinate is queued again: apply the rule
                # until it no longer applies
                while True:
                    for i, k in checks:
                        if vec[i] < k:
                            break
                    else:
                        for i, d in moves:
                            vec[i] += d
                        grown.update(up)
                        continue
                    break
        return tuple(vec)

    def normal_form(self, vec) -> tuple:
        vec = list(vec)
        return self._settle(vec, {i for i, k in enumerate(vec) if k})

    def add_generator(self, x: tuple, v: int) -> tuple:
        """The normal form of x + e_v, for x already in normal form: only a
        rule using v can apply to it."""
        vec = list(x)
        vec[v] += 1
        return self._settle(vec, {v})


def graph_relations(g: WeightedDigraph, include_sink_relations: bool = True):
    """Firing rules of the graph monoid presentation: weight(v) grains at a
    regular v rewrite to its received grains; with sink relations, one grain
    at a sink rewrites to nothing."""
    n = g.n_vertices
    rels = []
    for v in range(n):
        if g.out_edge_ids[v]:
            lhs = [0] * n
            lhs[v] = g.weight(v)
            rels.append((tuple(lhs), r_transform(g, v)))
        elif include_sink_relations:
            lhs = [0] * n
            lhs[v] = 1
            rels.append((tuple(lhs), (0,) * n))
    return rels


def reduction_system(g: WeightedDigraph,
                     include_sink_relations: bool = True) -> ReductionSystem:
    """Completed rewriting system for the graph, cached per graph instance
    and ``MAX_RULES``.  A completion that overflowed is cached as a failure
    and re-raised, so callers retrying do not pay for it twice."""
    cache = g.__dict__.setdefault("_reduction_cache", {})
    key = (include_sink_relations, MAX_RULES)
    if key not in cache:
        try:
            cache[key] = ReductionSystem(
                g.n_vertices, graph_relations(g, include_sink_relations)
            )
        except CompletionOverflow as exc:
            cache[key] = exc
    cached = cache[key]
    if isinstance(cached, CompletionOverflow):
        raise cached
    return cached
