"""Finite directed multigraphs with positive integer edge weights.

Vertices are identified by unique names and carry a dense index fixed at
construction.  Edges are first-class (parallel edges and loops allowed) and
live in a flat list; the edge id is its position in that list.

A graph may additionally carry explicit per-vertex weights.  Quotient graphs
use this to remember the out-degree a vertex had in the parent graph after
some of its edges were dropped.
"""

from __future__ import annotations

import operator

from . import errors


def _integer(value, error, what: str) -> int:
    """``value`` as an int, raising ``error`` unless it is an integer (a
    float or a numeric string is refused rather than truncated)."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None


def _decimal(text: str, signed: bool = True) -> int | None:
    """``text`` as an int when it is ASCII digits, after one ``-`` if
    ``signed``; else None.  int() also takes "3_0", "+3", "\u0663" and
    surrounding blanks."""
    digits = text[1:] if signed and text.startswith("-") else text
    return int(text) if digits.isascii() and digits.isdigit() else None


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
            weight = _integer(weight, errors.BadParameters, "edge weight")
            if weight < 1:
                raise errors.BadParameters(f"edge weight must be >= 1, got {weight}")
            resolved.append((s, r, weight))

        carried = {}
        if carried_weights:
            for v, w in dict(carried_weights).items():
                w = _integer(w, errors.BadParameters, "vertex weight")
                if w < 1:
                    raise errors.BadParameters(f"vertex weight must be >= 1, got {w}")
                v = self._resolve(v)
                if v in carried:
                    raise errors.BadParameters(
                        f"two carried weights for vertex {names[v]!r}"
                    )
                carried[v] = w
        self._set_edges(tuple(resolved), carried)

    @classmethod
    def _from_parts(cls, names: tuple, index: dict, edges: tuple,
                    carried_weights: dict) -> WeightedDigraph:
        """A graph from parts that are already checked: unique names, their
        index map, (source, target, weight) index triples with positive
        integer weights, and carried weights keyed by index."""
        g = cls.__new__(cls)
        g.names = names
        g.index = index
        g._set_edges(edges, carried_weights)
        return g

    def _set_edges(self, edges: tuple, carried_weights: dict) -> None:
        """Store the edges and carried weights and build the adjacency."""
        self.edges = edges
        self.carried_weights = carried_weights
        out = [[] for _ in self.names]
        incoming = [[] for _ in self.names]
        # toppling targets, one entry per outgoing edge
        targets = [[] for _ in self.names]
        for eid, (s, r, _) in enumerate(edges):
            out[s].append(eid)
            targets[s].append(r)
            incoming[r].append(eid)
        self.out_edge_ids = tuple(map(tuple, out))
        self.in_edge_ids = tuple(map(tuple, incoming))
        self.out_targets = tuple(map(tuple, targets))

    def _resolve(self, v) -> int:
        if isinstance(v, str):
            try:
                return self.index[v]
            except KeyError:
                raise errors.UnknownVertex(f"unknown vertex {v!r}") from None
        v = _integer(v, errors.UnknownVertex, "vertex index")
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
            raise errors.SinkHasNoWeight(
                f"vertex {self.names[v]!r} is a sink and carries no weight"
            )
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
    """A sandpile graph: unique sink, reachable from every vertex, with the
    balanced weighting (edge weight = out-degree of the source) imposed on
    all non-sink vertices.  The constructor checks the axioms as
    ``validate_sandpile`` does, with ``sink`` as the hint, since
    stabilisation relies on them to terminate."""

    def __init__(self, names, edges, sink):
        super().__init__(names, edges)
        self.edges = _out_degree_weighted(self)
        self.sink = _checked_sink(self, sink)

    @classmethod
    def _balanced(cls, g: WeightedDigraph, sink: int) -> SandpileGraph:
        """``g`` with each edge weighted by its source's out-degree and no
        carried weights, sharing g's resolved names and adjacency, and its
        edges too where they already carry those weights.  The axioms are
        not checked."""
        sp = cls.__new__(cls)
        sp.names = g.names
        sp.index = g.index
        sp.edges = _out_degree_weighted(g)
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
        return all(len(eids) != 1 for eids in self.out_edge_ids)

    def __repr__(self):
        return (
            f"<SandpileGraph {self.n_vertices} vertices, {self.n_edges} edges,"
            f" sink={self.sink_name!r}>"
        )


# ------------------------------------------------------------------ validation

def _out_degree_weighted(g: WeightedDigraph) -> tuple:
    """g's edges, each weighted by its source's out-degree: ``g.edges``
    itself when every weight already is."""
    degree = [len(eids) for eids in g.out_edge_ids]
    if all(w == degree[s] for s, _, w in g.edges):
        return g.edges
    return tuple([(s, r, degree[s]) for s, r, _ in g.edges])


def validate_sandpile(g: WeightedDigraph, sink_hint=None) -> SandpileGraph:
    """Check the sandpile axioms and return the balanced-weighted graph.

    Exactly one vertex may have out-degree zero (the sink), every vertex must
    reach it by a directed path, and each edge gets the out-degree of its
    source as weight.  ``sink_hint`` only cross-checks the structural sink.
    """
    return SandpileGraph._balanced(g, _checked_sink(g, sink_hint))


def _checked_sink(g: WeightedDigraph, sink_hint=None) -> int:
    """The index of g's one vertex of out-degree zero, once every vertex is
    known to reach it; ``sink_hint``, if given, must name it."""
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
    _sink_distances(g, sink)
    return sink


def _sink_distances(g: WeightedDigraph, sink: int) -> list[int]:
    """BFS distance from each vertex to ``sink`` along directed paths, by a
    walk over in-edges from the sink.  Raises UnreachableSink naming the
    vertices with no path, in index order."""
    dist = [None] * g.n_vertices
    dist[sink] = 0
    found = [sink]
    for v in found:
        for eid in g.in_edge_ids[v]:
            src = g.edges[eid][0]
            if dist[src] is None:
                dist[src] = dist[v] + 1
                found.append(src)
    if len(found) < g.n_vertices:
        raise errors.UnreachableSink(
            [g.names[v] for v, d in enumerate(dist) if d is None]
        )
    return dist


def _renumber(g: WeightedDigraph, kept) -> tuple:
    """(new, names, index) for the vertices v of ``g`` with ``kept[v]``
    true: new[v] is v's index among them (-1 for a dropped vertex), then
    their names in order and the name index."""
    new = [-1] * g.n_vertices
    names = []
    for v, keep in enumerate(kept):
        if keep:
            new[v] = len(names)
            names.append(g.names[v])
    names = tuple(names)
    return new, names, {name: i for i, name in enumerate(names)}


def reduce_graph(g: SandpileGraph) -> SandpileGraph:
    """Contract irrelevant vertices (out-degree exactly one) to a fixed point.

    The single edge v -> u is removed, incoming edges of v are redirected to
    u, and v disappears; the sandpile monoid is preserved up to isomorphism.
    A contraction changes no other vertex's out-degree, so the irrelevant
    vertices are those of ``g``, and an edge into one ends at the end of its
    out-degree-one chain: one O(V + E) pass, which keeps the names, edge
    order and sink of contracting one vertex at a time.
    """
    targets = g.out_targets
    n = g.n_vertices
    # end[v]: the vertex an edge into v is redirected to; None until known,
    # -1 while v is on the chain being followed
    end = [v if len(t) != 1 else None for v, t in enumerate(targets)]
    for v in range(n):
        chain = []
        u = v
        while end[u] is None:
            end[u] = -1
            chain.append(u)
            u = targets[u][0]
        if end[u] == -1:
            cycle = chain[chain.index(u):]
            raise errors.UnreachableSink([g.names[c] for c in cycle])
        for c in chain:
            end[c] = end[u]
    new, names, index = _renumber(g, [end[v] == v for v in range(n)])
    edges = tuple((new[s], new[end[r]], w) for s, r, w in g.edges if new[s] >= 0)
    return validate_sandpile(WeightedDigraph._from_parts(names, index, edges, {}))


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
    new, names, index = _renumber(g, [v not in H for v in range(g.n_vertices)])
    edges = []
    heaviest = [0] * g.n_vertices  # heaviest surviving out-edge, 0 for none
    for s, r, w in g.edges:
        if new[s] >= 0 and new[r] >= 0:
            edges.append((new[s], new[r], w))
            if w > heaviest[s]:
                heaviest[s] = w
    # record the parent vertex weight only where the surviving edges alone
    # would derive a different value
    carried = {}
    for v, nv in enumerate(new):
        if nv >= 0 and g.out_edge_ids[v]:
            parent_weight = g.weight(v)
            if heaviest[v] != parent_weight:
                carried[nv] = parent_weight
    return WeightedDigraph._from_parts(names, index, tuple(edges), carried)


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
    n_loops = _integer(n_loops, errors.BadParameters, "loop count")
    n_sink_edges = _integer(n_sink_edges, errors.BadParameters, "sink edge count")
    if n_loops < 1 or n_sink_edges < 1:
        raise errors.BadParameters("loop and sink edge counts must be >= 1")
    edges = [("x", "x", 1)] * n_loops + [("x", "s", 1)] * n_sink_edges
    return validate_sandpile(WeightedDigraph(["x", "s"], edges))


def _check_cycle_weights(weights) -> list[int]:
    weights = [_integer(w, errors.BadParameters, "weight") for w in weights]
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


# ------------------------------------------------------------------ text format

def parse_graph(text: str):
    """Parse the line-based graph format.

    Lines: ``vertex <name>``, ``edge <src> <dst> [w=<int>]``, optional
    ``sink <name>`` hint; ``#`` starts a comment.  Returns the graph and the
    sink hint (or None).  Each name is resolved to its index once, as the
    line is read.

    Lines end at ``\n``, ``\r\n`` or ``\r``, the universal newlines that
    reading a file in text mode applies, so error line numbers count the
    lines of the file; other line separators such as ``\x0c`` or U+2028
    are whitespace inside a line.
    """
    names = []
    index = {}
    edges = []
    weight_of = {}
    sink_hint = None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        parts = line.split()
        if not parts:
            continue
        kind = parts[0]
        if kind == "edge":
            if len(parts) == 4:
                _, src, dst, token = parts
                # the weight of each distinct w= token is checked once
                weight = weight_of.get(token)
                if weight is None:
                    if not token.startswith("w="):
                        raise errors.GraphFormatError(f"line {lineno}: expected w=<int>")
                    weight = _decimal(token[2:], signed=False)
                    if weight is None:
                        raise errors.GraphFormatError(f"line {lineno}: bad weight")
                    if weight < 1:
                        raise errors.GraphFormatError(f"line {lineno}: weight must be >= 1")
                    weight_of[token] = weight
            elif len(parts) == 3:
                _, src, dst = parts
                weight = 1
            else:
                raise errors.GraphFormatError(
                    f"line {lineno}: edge takes source, target and optional w=<int>"
                )
            try:
                edges.append((index[src], index[dst], weight))
            except KeyError:
                undeclared = src if src not in index else dst
                raise errors.GraphFormatError(
                    f"line {lineno}: undeclared vertex {undeclared!r}"
                ) from None
        elif kind == "vertex":
            if len(parts) != 2:
                raise errors.GraphFormatError(f"line {lineno}: vertex takes one name")
            if parts[1] in index:
                raise errors.GraphFormatError(f"line {lineno}: duplicate vertex {parts[1]!r}")
            index[parts[1]] = len(names)
            names.append(parts[1])
        elif kind == "sink":
            if len(parts) != 2:
                raise errors.GraphFormatError(f"line {lineno}: sink takes one name")
            if parts[1] not in index:
                raise errors.GraphFormatError(f"line {lineno}: undeclared vertex {parts[1]!r}")
            sink_hint = parts[1]
        else:
            raise errors.GraphFormatError(f"line {lineno}: unknown directive {kind!r}")
    return WeightedDigraph._from_parts(tuple(names), index, tuple(edges), {}), sink_hint


def graph_to_dot(g: WeightedDigraph, sink: int | None = None) -> str:
    """DOT export: one arrow per parallel edge, weight labels when above one,
    the sink (an index, by default a sandpile graph's own) drawn with a
    doubled border.  Vertex names become quoted IDs, with each backslash
    and double quote escaped by a backslash."""
    if sink is None and isinstance(g, SandpileGraph):
        sink = g.sink
    ids = ['"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'
           for name in g.names]
    lines = ["digraph G {"]
    for v, vid in enumerate(ids):
        attrs = ' [peripheries=2]' if v == sink else ""
        lines.append(f"  {vid}{attrs};")
    for s, r, w in g.edges:
        label = f' [label="w={w}"]' if w > 1 else ""
        lines.append(f"  {ids[s]} -> {ids[r]}{label};")
    lines.append("}")
    return "\n".join(lines) + "\n"
