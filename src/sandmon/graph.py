"""Finite directed multigraphs with positive integer edge weights.

Vertices are identified by unique names and carry a dense index fixed at
construction.  Edges are first-class (parallel edges and loops allowed) and
live in a flat list; the edge id is its position in that list.

A graph may additionally carry explicit per-vertex weights.  Quotient graphs
use this to remember the out-degree a vertex had in the parent graph after
some of its edges were dropped.
"""

from __future__ import annotations

from . import errors


class WeightedDigraph:
    """Immutable directed multigraph with weighted edges.

    ``edges`` entries are (source, target, weight) triples; source/target may
    be given as vertex names or indices.  ``carried_weights`` maps a vertex
    (name or index) to an explicit weight that overrides the weight derived
    from its outgoing edges.
    """

    def __init__(self, names, edges, carried_weights=None):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise errors.BadParameters("vertex names must be unique")
        for name in names:
            if not name or any(ch.isspace() for ch in name):
                raise errors.BadParameters(f"bad vertex name: {name!r}")
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}

        resolved = []
        for src, dst, weight in edges:
            s = self._resolve(src)
            r = self._resolve(dst)
            weight = int(weight)
            if weight < 1:
                raise errors.BadParameters(f"edge weight must be >= 1, got {weight}")
            resolved.append((s, r, weight))
        self.edges = tuple(resolved)

        self.carried_weights = {}
        if carried_weights:
            for v, w in dict(carried_weights).items():
                w = int(w)
                if w < 1:
                    raise errors.BadParameters(f"vertex weight must be >= 1, got {w}")
                self.carried_weights[self._resolve(v)] = w

        out = [[] for _ in names]
        incoming = [[] for _ in names]
        for eid, (s, r, _) in enumerate(self.edges):
            out[s].append(eid)
            incoming[r].append(eid)
        self.out_edge_ids = tuple(tuple(lst) for lst in out)
        self.in_edge_ids = tuple(tuple(lst) for lst in incoming)
        # toppling targets, one entry per outgoing edge
        self.out_targets = tuple(
            tuple(self.edges[eid][1] for eid in self.out_edge_ids[v])
            for v in range(len(names))
        )

    def _resolve(self, v) -> int:
        if isinstance(v, str):
            try:
                return self.index[v]
            except KeyError:
                raise errors.UnknownVertex(f"unknown vertex {v!r}") from None
        v = int(v)
        if not 0 <= v < len(self.names):
            raise errors.UnknownVertex(f"vertex index {v} out of range")
        return v

    # ------------------------------------------------------------- inspection

    @property
    def n_vertices(self) -> int:
        return len(self.names)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def out_degree(self, v) -> int:
        return len(self.out_edge_ids[self._resolve(v)])

    def is_sink(self, v) -> bool:
        return self.out_degree(v) == 0

    def sinks(self) -> list[int]:
        return [v for v in range(self.n_vertices) if not self.out_edge_ids[v]]

    def regular_vertices(self) -> list[int]:
        return [v for v in range(self.n_vertices) if self.out_edge_ids[v]]

    def weight(self, v) -> int:
        """Vertex weight: the carried weight if recorded, else the maximum
        weight over outgoing edges.  Undefined (raises) for bare sinks."""
        v = self._resolve(v)
        if v in self.carried_weights:
            return self.carried_weights[v]
        eids = self.out_edge_ids[v]
        if not eids:
            raise ValueError(f"vertex {self.names[v]!r} is a sink and carries no weight")
        return max(self.edges[e][2] for e in eids)

    def is_vertex_weighted(self) -> bool:
        """True when all edges leaving any one vertex share a single weight
        (which must agree with the carried weight, if one is recorded)."""
        for v in self.regular_vertices():
            weights = {self.edges[e][2] for e in self.out_edge_ids[v]}
            if len(weights) != 1:
                return False
            if v in self.carried_weights and self.carried_weights[v] != weights.pop():
                return False
        return True

    def is_balanced(self) -> bool:
        return self.is_vertex_weighted() and all(
            self.weight(v) == self.out_degree(v) for v in self.regular_vertices()
        )

    def __eq__(self, other):
        if not isinstance(other, WeightedDigraph):
            return NotImplemented
        return (
            self.names == other.names
            and sorted(self.edges) == sorted(other.edges)
            and self.carried_weights == other.carried_weights
        )

    def __hash__(self):
        return hash((self.names, tuple(sorted(self.edges))))

    def __repr__(self):
        return f"<WeightedDigraph {self.n_vertices} vertices, {self.n_edges} edges>"


class SandpileGraph(WeightedDigraph):
    """A validated sandpile graph: unique sink, reachable from every vertex,
    with the balanced weighting (edge weight = out-degree of the source)
    imposed on all non-sink vertices."""

    def __init__(self, names, edges, sink):
        super().__init__(names, edges)
        self.sink = self._resolve(sink)

    @classmethod
    def _balanced(cls, g: WeightedDigraph, sink: int) -> SandpileGraph:
        """``g`` with each edge weighted by its source's out-degree and no
        carried weights, sharing g's resolved names and adjacency."""
        sp = cls.__new__(cls)
        sp.names = g.names
        sp.index = g.index
        sp.edges = tuple((s, r, len(g.out_edge_ids[s])) for s, r, _ in g.edges)
        sp.carried_weights = {}
        sp.out_edge_ids = g.out_edge_ids
        sp.in_edge_ids = g.in_edge_ids
        sp.out_targets = g.out_targets
        sp.sink = sink
        return sp

    @property
    def sink_name(self) -> str:
        return self.names[self.sink]

    def non_sink_vertices(self) -> list[int]:
        return [v for v in range(self.n_vertices) if v != self.sink]

    def is_reduced(self) -> bool:
        return all(self.out_degree(v) != 1 for v in range(self.n_vertices))

    def __repr__(self):
        return (
            f"<SandpileGraph {self.n_vertices} vertices, {self.n_edges} edges,"
            f" sink={self.sink_name!r}>"
        )


# ------------------------------------------------------------------ validation

def validate_sandpile(g: WeightedDigraph, sink_hint=None) -> SandpileGraph:
    """Check the sandpile axioms and return the balanced-weighted graph.

    Exactly one vertex may have out-degree zero (the sink), every vertex must
    reach it by a directed path, and each edge gets the out-degree of its
    source as weight.  ``sink_hint`` only cross-checks the structural sink.
    """
    sinks = g.sinks()
    if not sinks:
        raise errors.NoSink("graph has no sink (every vertex emits an edge)")
    if len(sinks) > 1:
        raise errors.MultipleSinks([g.names[v] for v in sinks])
    sink = sinks[0]
    if sink_hint is not None and g._resolve(sink_hint) != sink:
        raise errors.BadParameters(
            f"sink hint {sink_hint!r} does not match structural sink {g.names[sink]!r}"
        )

    reaches = {sink}
    frontier = [sink]
    while frontier:
        v = frontier.pop()
        for eid in g.in_edge_ids[v]:
            src = g.edges[eid][0]
            if src not in reaches:
                reaches.add(src)
                frontier.append(src)
    stranded = [g.names[v] for v in range(g.n_vertices) if v not in reaches]
    if stranded:
        raise errors.UnreachableSink(stranded)

    return SandpileGraph._balanced(g, sink)


def reduce_graph(g: SandpileGraph) -> SandpileGraph:
    """Contract irrelevant vertices (out-degree exactly one) to a fixed point.

    The single edge v -> u is removed, incoming edges of v are redirected to
    u, and v disappears.  Contractions run in ascending vertex index order;
    the sandpile monoid is preserved up to isomorphism.
    """
    names = list(g.names)
    edges = [(g.names[s], g.names[r], w) for (s, r, w) in g.edges]
    while True:
        out_count = {n: 0 for n in names}
        target = {}
        for s, r, _ in edges:
            out_count[s] += 1
            target[s] = r
        irrelevant = [n for n in names if out_count[n] == 1]
        if not irrelevant:
            break
        name = irrelevant[0]
        u = target[name]
        edges = [(s, u if r == name else r, w) for (s, r, w) in edges if s != name]
        names.remove(name)
    return validate_sandpile(WeightedDigraph(names, edges))


# ------------------------------------------------------- structural vertex sets

def non_cycle_vertices(g: WeightedDigraph) -> frozenset[int]:
    """Vertices from which no cycle (self-loops included) is reachable.

    These are peeled off from the sinks: a vertex joins once the targets of
    all its out-edges, parallel edges counted, have joined.  The result is
    hereditary and saturated; for a sandpile graph it always contains the
    sink.  Cached on the (immutable) graph.
    """
    cached = g.__dict__.get("_non_cycle_vertices")
    if cached is not None:
        return cached
    pending = [len(targets) for targets in g.out_targets]
    joined = [v for v, k in enumerate(pending) if not k]
    for u in joined:
        for eid in g.in_edge_ids[u]:
            s = g.edges[eid][0]
            pending[s] -= 1
            if not pending[s]:
                joined.append(s)
    result = frozenset(joined)
    g._non_cycle_vertices = result
    return result


def is_hereditary_saturated(g: WeightedDigraph, subset) -> bool:
    """Check both closure conditions: edges leaving the subset stay inside it,
    and any regular vertex all of whose targets lie inside belongs to it."""
    H = {g._resolve(v) for v in subset}
    for s, r, _ in g.edges:
        if s in H and r not in H:
            return False
    for v in g.regular_vertices():
        if v not in H and all(t in H for t in g.out_targets[v]):
            return False
    return True


def quotient_graph(g: WeightedDigraph, subset) -> WeightedDigraph:
    """Quotient by a hereditary and saturated vertex set.

    Surviving vertices are those outside the set; an edge survives only when
    both endpoints survive.  Every surviving vertex that was regular in ``g``
    records its original vertex weight, so dropped edges still count toward
    the weight.
    """
    H = {g._resolve(v) for v in subset}
    if not is_hereditary_saturated(g, H):
        raise errors.NotHereditarySaturated(
            "subset is not hereditary and saturated"
        )
    keep = [v for v in range(g.n_vertices) if v not in H]
    names = [g.names[v] for v in keep]
    edges = [
        (g.names[s], g.names[r], w)
        for (s, r, w) in g.edges
        if s not in H and r not in H
    ]
    # record the parent vertex weight only where the surviving edges alone
    # would derive a different value
    carried = {}
    for v in keep:
        if not g.out_edge_ids[v]:
            continue
        parent_weight = g.weight(v)
        survivors = [
            g.edges[e][2] for e in g.out_edge_ids[v] if g.edges[e][1] not in H
        ]
        if not survivors or max(survivors) != parent_weight:
            carried[g.names[v]] = parent_weight
    return WeightedDigraph(names, edges, carried)


def shortest_sink_distances(g: SandpileGraph) -> list[int]:
    """BFS distance from each vertex to the sink along directed paths."""
    dist = [None] * g.n_vertices
    dist[g.sink] = 0
    frontier = [g.sink]
    while frontier:
        nxt = []
        for v in frontier:
            for eid in g.in_edge_ids[v]:
                src = g.edges[eid][0]
                if dist[src] is None:
                    dist[src] = dist[v] + 1
                    nxt.append(src)
        frontier = nxt
    stranded = [g.names[v] for v, d in enumerate(dist) if d is None]
    if stranded:
        raise errors.UnreachableSink(stranded)
    return dist


def conical_violations(g: SandpileGraph) -> list[int]:
    """Non-sink vertices in the no-cycle set with out-degree other than one.

    Empty exactly when the sandpile monoid of ``g`` is conical.
    """
    S = non_cycle_vertices(g)
    return [v for v in sorted(S) if v != g.sink and g.out_degree(v) != 1]


# ------------------------------------------------------------------- families

def loop_sink_graph(n_loops: int, n_sink_edges: int) -> SandpileGraph:
    """One non-sink vertex x carrying ``n_loops`` loops and ``n_sink_edges``
    parallel edges to the sink s."""
    if n_loops < 1 or n_sink_edges < 1:
        raise errors.BadParameters("loop and sink edge counts must be >= 1")
    edges = [("x", "x", 1)] * n_loops + [("x", "s", 1)] * n_sink_edges
    return validate_sandpile(WeightedDigraph(["x", "s"], edges))


def rose_graph(petals: int, weight: int) -> WeightedDigraph:
    """One vertex with ``petals`` loops, each of the given weight."""
    if petals < 1 or weight < 1:
        raise errors.BadParameters("petal count and weight must be >= 1")
    return WeightedDigraph(["v"], [("v", "v", weight)] * petals)


def _check_cycle_weights(weights) -> list[int]:
    weights = [int(w) for w in weights]
    if not weights or any(w < 1 for w in weights):
        raise errors.BadParameters("weights must be a nonempty list of positive integers")
    if all(w == 1 for w in weights):
        raise errors.BadParameters("at least one weight must be >= 2")
    return weights


def weighted_cycle_graph(weights) -> WeightedDigraph:
    """Directed cycle v1 -> v2 -> ... -> vm -> v1 with one weighted edge per
    vertex.  Requires some weight >= 2."""
    weights = _check_cycle_weights(weights)
    m = len(weights)
    names = [f"v{i + 1}" for i in range(m)]
    edges = [(names[i], names[(i + 1) % m], weights[i]) for i in range(m)]
    return WeightedDigraph(names, edges)


def cycle_companion_unweighted(weights) -> WeightedDigraph:
    """Replace each weight-w cycle edge by w parallel unweighted edges, then
    reverse every edge."""
    weights = _check_cycle_weights(weights)
    m = len(weights)
    names = [f"v{i + 1}" for i in range(m)]
    edges = []
    for i in range(m):
        edges.extend([(names[(i + 1) % m], names[i], 1)] * weights[i])
    return WeightedDigraph(names, edges)


def cycle_companion_sandpile(weights) -> SandpileGraph:
    """The cycle plus, at each vertex, weight-minus-one parallel edges to a
    fresh sink."""
    weights = _check_cycle_weights(weights)
    m = len(weights)
    names = [f"v{i + 1}" for i in range(m)] + ["s"]
    edges = []
    for i in range(m):
        edges.append((names[i], names[(i + 1) % m], 1))
        edges.extend([(names[i], "s", 1)] * (weights[i] - 1))
    return validate_sandpile(WeightedDigraph(names, edges))


def multi_cycle_sandpile(classes) -> SandpileGraph:
    """Disjoint cycles sharing one sink; vertex i of a class emits one edge
    along its cycle and degree-minus-one edges to the sink.

    ``classes`` is a list of out-degree lists, one list per cycle.  Each class
    needs some out-degree >= 2, otherwise its cycle cannot reach the sink.
    """
    if not classes:
        raise errors.BadParameters("need at least one class")
    names = []
    edges = []
    for ci, degrees in enumerate(classes):
        degrees = [int(d) for d in degrees]
        if not degrees or any(d < 1 for d in degrees):
            raise errors.BadParameters("out-degrees must be positive")
        if all(d == 1 for d in degrees):
            raise errors.BadParameters(
                f"class {ci} has no out-degree >= 2, its cycle cannot drain"
            )
        members = [f"c{ci}v{i + 1}" for i in range(len(degrees))]
        names.extend(members)
        for i, d in enumerate(degrees):
            edges.append((members[i], members[(i + 1) % len(members)], 1))
            edges.extend([(members[i], "s", 1)] * (d - 1))
    names.append("s")
    return validate_sandpile(WeightedDigraph(names, edges))


# ------------------------------------------------------------------ text format

def parse_graph(text: str):
    """Parse the line-based graph format.

    Lines: ``vertex <name>``, ``edge <src> <dst> [w=<int>]``, optional
    ``sink <name>`` hint; ``#`` starts a comment.  Returns the graph and the
    sink hint (or None).
    """
    names = []
    declared = set()
    edges = []
    sink_hint = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "vertex":
            if len(parts) != 2:
                raise errors.GraphFormatError(f"line {lineno}: vertex takes one name")
            if parts[1] in declared:
                raise errors.GraphFormatError(f"line {lineno}: duplicate vertex {parts[1]!r}")
            names.append(parts[1])
            declared.add(parts[1])
        elif kind == "edge":
            if len(parts) not in (3, 4):
                raise errors.GraphFormatError(
                    f"line {lineno}: edge takes source, target and optional w=<int>"
                )
            weight = 1
            if len(parts) == 4:
                if not parts[3].startswith("w="):
                    raise errors.GraphFormatError(f"line {lineno}: expected w=<int>")
                try:
                    weight = int(parts[3][2:])
                except ValueError:
                    raise errors.GraphFormatError(f"line {lineno}: bad weight") from None
                if weight < 1:
                    raise errors.GraphFormatError(f"line {lineno}: weight must be >= 1")
            for endpoint in (parts[1], parts[2]):
                if endpoint not in declared:
                    raise errors.GraphFormatError(
                        f"line {lineno}: undeclared vertex {endpoint!r}"
                    )
            edges.append((parts[1], parts[2], weight))
        elif kind == "sink":
            if len(parts) != 2:
                raise errors.GraphFormatError(f"line {lineno}: sink takes one name")
            if parts[1] not in declared:
                raise errors.GraphFormatError(f"line {lineno}: undeclared vertex {parts[1]!r}")
            sink_hint = parts[1]
        else:
            raise errors.GraphFormatError(f"line {lineno}: unknown directive {kind!r}")
    return WeightedDigraph(names, edges), sink_hint


def graph_to_text(g: WeightedDigraph, sink=None) -> str:
    lines = [f"vertex {name}" for name in g.names]
    for s, r, w in g.edges:
        suffix = f" w={w}" if w != 1 else ""
        lines.append(f"edge {g.names[s]} {g.names[r]}{suffix}")
    if sink is None and isinstance(g, SandpileGraph):
        sink = g.sink
    if sink is not None:
        lines.append(f"sink {g.names[g._resolve(sink)]}")
    return "\n".join(lines) + "\n"


def graph_to_dot(g: WeightedDigraph, name: str = "G") -> str:
    """DOT export: one arrow per parallel edge, weight labels when above one,
    the sink drawn with a doubled border."""
    sink = g.sink if isinstance(g, SandpileGraph) else None
    lines = [f"digraph {name} {{"]
    for v, vname in enumerate(g.names):
        attrs = ' [peripheries=2]' if v == sink else ""
        lines.append(f'  "{vname}"{attrs};')
    for s, r, w in g.edges:
        label = f' [label="w={w}"]' if w > 1 else ""
        lines.append(f'  "{g.names[s]}" -> "{g.names[r]}"{label};')
    lines.append("}")
    return "\n".join(lines) + "\n"
