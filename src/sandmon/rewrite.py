"""Configurations on a graph and the one-step firing relation.

A configuration is a tuple of non-negative grain counts indexed by vertex.
Firing a vertex v holding at least weight(v) grains removes weight(v) grains
from v and adds one grain at the target of each outgoing edge (loops return
grains to v in the same step).  Sinks may additionally fire away single
grains when sink relations are switched on; that is the congruence used by
graph monoids, while stabilisation can retain sink grains or absorb them.

Deciding whether two configurations are congruent is done in two exact
layers: stable-form comparison on sandpile graphs, and normal forms of a
confluent completion of the firing rules elsewhere.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass

from . import errors
from .graph import SandpileGraph, WeightedDigraph, _decimal, _integer

DEFAULT_STEP_BUDGET = 100_000
MAX_RULES = 4000  # a completion with more rules raises CompletionOverflow

# ------------------------------------------------------------- configurations


def config_from_counts(g: WeightedDigraph, counts) -> tuple:
    """Build a configuration from a mapping, or a list of pairs, of vertex
    (name or index) to count.  Naming one vertex twice is BadParameters."""
    out = [0] * g.n_vertices
    named = set()
    for v, k in (counts.items() if isinstance(counts, Mapping) else counts):
        k = _integer(k, errors.BadParameters, f"count for {v!r}")
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
        count = _decimal(value.strip())
        if count is None:
            raise errors.BadParameters(f"bad count in {chunk!r}")
        counts.append((name.strip(), count))
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
    c = tuple(_integer(k, errors.BadParameters, "configuration count") for k in c)
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
    """(v, weight, targets) for the regular vertices in index order, cached
    on the (immutable) graph."""
    rules = g.__dict__.get("_firing_rules")
    if rules is None:
        rules = g._firing_rules = tuple(
            (v, g.weight(v), g.out_targets[v]) for v in g.regular_vertices()
        )
    return rules


@dataclass(frozen=True)
class StabilizationTrace:
    result: tuple
    odometer: tuple
    steps: int

    def to_json(self, g: WeightedDigraph) -> dict:
        return {
            "result": config_to_str(g, self.result),
            "odometer": {
                g.names[v]: k for v, k in enumerate(self.odometer) if k
            },
            "steps": self.steps,
        }


def _fire(g: WeightedDigraph, counts: list, odometer=None, budget=None):
    """The firing kernel: topple ``counts`` (a list) in place until no
    regular vertex holds its weight; returns (steps, exhausted).

    Each sweep visits the regular vertices in index order and fires an
    unstable v k = counts[v] // weight(v) times at once; sweeps repeat until
    one fires nothing.  Sinks never fire.  ``odometer`` gains k at v.  A
    ``budget`` cuts the batch that would pass it short: steps == budget,
    exhausted is True.
    """
    data = _firing_rules(g)
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
                if exhausted:
                    return steps, True
                swept = True
    return steps, False


def stabilize(g: SandpileGraph, c, sink_absorbing: bool = True) -> StabilizationTrace:
    """Topple to the unique stable configuration in batched sweeps over the
    vertices in index order (``_fire``).  By the abelian property (Dhar
    1990; Bjorner, Lovasz and Shor 1991) the result, the odometer and the
    step count are those of every complete firing order.

    With ``sink_absorbing`` the sink is emptied (sandpile monoid semantics);
    otherwise sink grains accumulate.  Termination is guaranteed on sandpile
    graphs, so no budget applies.
    """
    if not isinstance(g, SandpileGraph):
        raise errors.BadParameters("stabilize needs a validated sandpile graph")
    counts = list(_check_config(g, c))
    odometer = [0] * g.n_vertices
    steps, _ = _fire(g, counts, odometer)
    if sink_absorbing:
        counts[g.sink] = 0
    return StabilizationTrace(tuple(counts), tuple(odometer), steps)


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


# ------------------------------------------------------------------ congruence


def equivalent(g: WeightedDigraph, a, b,
               include_sink_relations: bool = True) -> bool:
    """Decide congruence of two configurations exactly.

    Sandpile graphs compare stable forms.  Other vertex weighted graphs
    compare normal forms of the completed firing rules; a completion past
    ``MAX_RULES`` raises Inconclusive, which is not a verdict either way.
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
    except CompletionOverflow as exc:
        raise errors.Inconclusive(
            f"rule completion exceeded its budget ({exc})"
        ) from None
    return rs.normal_form(a) == rs.normal_form(b)


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
