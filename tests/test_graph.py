import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sandmon import errors
from sandmon.graph import (
    SandpileGraph,
    WeightedDigraph,
    cycle_companion_sandpile,
    cycle_companion_unweighted,
    graph_to_dot,
    is_hereditary_saturated,
    loop_sink_graph,
    non_cycle_vertices,
    parse_graph,
    quotient_graph,
    reduce_graph,
    validate_sandpile,
    weighted_cycle_graph,
)
from sandmon.monoid import enumerate_sandpile_monoid, monoid_isomorphic
from sandmon.realize import make_t_graph
from sandmon.rewrite import stabilize

from reference import (
    chain_graph,
    graph_to_text,
    is_balanced,
    multi_cycle_sandpile,
    random_sandpile_corpus,
    rose_graph,
    shortest_sink_distances,
)

GRAPHS = Path(__file__).resolve().parent.parent / "graphs"


def test_validate_loop_sink_graph():
    g = loop_sink_graph(2, 3)
    assert isinstance(g, SandpileGraph)
    assert g.sink_name == "s"
    assert g.out_degree("x") == 5
    assert is_balanced(g)
    assert all(w == 5 for (_, _, w) in g.edges)


def test_validate_single_vertex_sink():
    g = validate_sandpile(WeightedDigraph(["s"], []))
    assert g.sink_name == "s"
    assert g.n_edges == 0


def test_validate_two_isolated_vertices():
    with pytest.raises(errors.MultipleSinks) as info:
        validate_sandpile(WeightedDigraph(["a", "b"], []))
    assert sorted(info.value.sinks) == ["a", "b"]


def test_validate_no_sink():
    with pytest.raises(errors.NoSink):
        validate_sandpile(WeightedDigraph(["v"], [("v", "v", 1)]))


def test_validate_unreachable_sink():
    g = WeightedDigraph(["a", "b", "s"], [("a", "a", 1), ("b", "s", 1)])
    with pytest.raises(errors.UnreachableSink) as info:
        validate_sandpile(g)
    assert info.value.vertices == ["a"]


def test_sink_hint_cross_check():
    g = WeightedDigraph(["x", "s"], [("x", "s", 1)])
    assert validate_sandpile(g, sink_hint="s").sink_name == "s"
    with pytest.raises(errors.BadParameters):
        validate_sandpile(g, sink_hint="x")


def test_reduce_contracts_chain():
    g = validate_sandpile(WeightedDigraph(
        ["a", "b", "s"], [("a", "b", 1), ("a", "s", 1), ("b", "s", 1)]
    ))
    r = reduce_graph(g)
    assert r.names == ("a", "s")
    assert sorted((r.names[s], r.names[t]) for s, t, _ in r.edges) == [
        ("a", "s"), ("a", "s")
    ]
    # monoid preserved: compare Cayley tables by exhaustive isomorphism search
    assert monoid_isomorphic(
        enumerate_sandpile_monoid(g), enumerate_sandpile_monoid(r)
    ) is not None


def test_reduce_fixed_points():
    g = loop_sink_graph(3, 2)
    assert reduce_graph(g) == g
    path = validate_sandpile(WeightedDigraph(["v", "s"], [("v", "s", 1)]))
    assert reduce_graph(path).names == ("s",)
    r = reduce_graph(chain_graph())
    assert reduce_graph(r) == r


def test_non_cycle_vertices_t_graph():
    t = make_t_graph()
    S = non_cycle_vertices(t)
    assert [t.names[v] for v in sorted(S)] == ["s"]


def test_non_cycle_vertices_acyclic():
    g = chain_graph()
    assert non_cycle_vertices(g) == frozenset(range(3))


def test_non_cycle_vertices_loop():
    g = WeightedDigraph(["v"], [("v", "v", 1)])
    assert non_cycle_vertices(g) == frozenset()


def reference_non_cycle_vertices(g):
    """Oracle for non_cycle_vertices: a depth-first search from every vertex
    finds the vertices on a cycle, then the vertices that reach one are
    added until nothing changes; the rest is the answer."""
    on_cycle = set()
    for v in range(g.n_vertices):
        seen = set()
        frontier = list(g.out_targets[v])
        while frontier:
            u = frontier.pop()
            if u == v:
                on_cycle.add(v)
                break
            if u not in seen:
                seen.add(u)
                frontier.extend(g.out_targets[u])
    reaches_cycle = set(on_cycle)
    changed = True
    while changed:
        changed = False
        for s, r, _ in g.edges:
            if r in reaches_cycle and s not in reaches_cycle:
                reaches_cycle.add(s)
                changed = True
    return frozenset(range(g.n_vertices)) - reaches_cycle


def assert_non_cycle_vertices_match_reference(g):
    S = non_cycle_vertices(g)
    assert S == reference_non_cycle_vertices(g)
    assert is_hereditary_saturated(g, S)


def test_non_cycle_vertices_match_reference_on_the_corpus():
    kinds = set()
    for g in random_sandpile_corpus():
        assert_non_cycle_vertices_match_reference(g)
        S = non_cycle_vertices(g)
        kinds.add("empty" if S == {g.sink} else "all" if len(S) == g.n_vertices
                  else "some")
        q = quotient_graph(g, S)
        assert_non_cycle_vertices_match_reference(q)
        assert non_cycle_vertices(q) == frozenset()
    assert kinds == {"empty", "some", "all"}


@st.composite
def small_digraphs(draw):
    """A random multigraph on 1-6 vertices, each with 0-4 out-edges (loops
    and parallel edges allowed)."""
    n = draw(st.integers(1, 6))
    edges = [(v, t, 1) for v in range(n)
             for t in draw(st.lists(st.integers(0, n - 1), max_size=4))]
    return WeightedDigraph([f"v{i}" for i in range(n)], edges)


@settings(max_examples=100, deadline=None)
@given(small_digraphs())
def test_non_cycle_vertices_match_reference_on_generated_graphs(g):
    assert_non_cycle_vertices_match_reference(g)


def test_hereditary_saturated_checks():
    g = loop_sink_graph(2, 3)
    assert is_hereditary_saturated(g, non_cycle_vertices(g))
    # x emits an edge to s outside of {x}, so {x} is not hereditary
    assert not is_hereditary_saturated(g, {"x"})
    assert is_hereditary_saturated(g, set())
    with pytest.raises(errors.UnknownVertex):
        is_hereditary_saturated(g, {"nope"})


def test_quotient_loop_sink_graph():
    for n, k in [(1, 1), (2, 3), (4, 2)]:
        g = loop_sink_graph(n, k)
        q = quotient_graph(g, non_cycle_vertices(g))
        assert q.names == ("x",)
        assert q.n_edges == n
        assert all(s == r == 0 for (s, r, _) in q.edges)
        assert q.weight("x") == n + k


def test_quotient_t_graph():
    t = make_t_graph()
    q = quotient_graph(t, non_cycle_vertices(t))
    assert q.names == ("u", "v", "z")
    assert q.sinks() == []
    assert all(q.weight(v) == 3 for v in range(3))
    edge_multiset = sorted((q.names[s], q.names[r]) for s, r, _ in q.edges)
    assert edge_multiset == [
        ("u", "v"), ("u", "z"), ("v", "u"), ("v", "v"), ("z", "u"), ("z", "z")
    ]


def test_quotient_by_empty_set_is_identity():
    g = loop_sink_graph(2, 3)
    assert quotient_graph(g, set()) == g


def test_quotient_rejects_bad_subset():
    g = loop_sink_graph(2, 3)
    with pytest.raises(errors.NotHereditarySaturated):
        quotient_graph(g, {"x"})


def test_quotient_by_no_cycle_set_has_no_sinks():
    for g in random_sandpile_corpus(count=40, seed=7):
        S = non_cycle_vertices(g)
        if len(S) == g.n_vertices:
            continue  # acyclic graph, quotient is empty
        q = quotient_graph(g, S)
        assert q.sinks() == []


def test_shortest_sink_distances():
    g = loop_sink_graph(2, 3)
    assert shortest_sink_distances(g) == [1, 0]
    t = make_t_graph()
    assert shortest_sink_distances(t) == [1, 1, 1, 0]
    assert shortest_sink_distances(chain_graph()) == [2, 1, 0]


def test_shortest_sink_distances_name_the_stranded_vertices():
    # built by _balanced, so a is never checked to reach s
    g = SandpileGraph._balanced(
        WeightedDigraph(["a", "b", "s"], [("a", "a", 1), ("b", "s", 1)]), 2)
    with pytest.raises(errors.UnreachableSink) as info:
        shortest_sink_distances(g)
    assert info.value.vertices == ["a"]
    # every walk from the sink names the stranded vertices in index order
    names = ["c", "b", "a", "s"]
    edges = [("c", "a", 1), ("a", "c", 1), ("b", "s", 1)]
    unchecked = SandpileGraph._balanced(WeightedDigraph(names, edges), 3)
    for walk in (lambda: shortest_sink_distances(unchecked),
                 lambda: validate_sandpile(WeightedDigraph(names, edges)),
                 lambda: SandpileGraph(names, edges, "s")):
        with pytest.raises(errors.UnreachableSink) as info:
            walk()
        assert info.value.vertices == ["c", "a"]


def test_constructor_shapes():
    g = loop_sink_graph(2, 3)
    loops = sum(1 for s, r, _ in g.edges if s == r)
    assert loops == 2 and g.n_edges == 5

    e = weighted_cycle_graph([2, 2, 1])
    assert e.names == ("v1", "v2", "v3")
    assert [(e.names[s], e.names[r], w) for s, r, w in e.edges] == [
        ("v1", "v2", 2), ("v2", "v3", 2), ("v3", "v1", 1)
    ]
    assert e.is_vertex_weighted() and not is_balanced(e)

    f = cycle_companion_unweighted([2, 2, 1])
    assert sorted((f.names[s], f.names[r]) for s, r, _ in f.edges) == [
        ("v1", "v3"), ("v2", "v1"), ("v2", "v1"), ("v3", "v2"), ("v3", "v2")
    ]
    assert all(w == 1 for (_, _, w) in f.edges)

    gc = cycle_companion_sandpile([2, 2, 1])
    assert [gc.out_degree(v) for v in gc.non_sink_vertices()] == [2, 2, 1]

    rose = rose_graph(2, 5)
    assert rose.n_edges == 2 and rose.weight("v") == 5

    mc = multi_cycle_sandpile([[2, 2], [3, 1, 2]])
    assert len(mc.non_sink_vertices()) == 5
    assert is_balanced(mc)


def test_constructor_bad_parameters():
    with pytest.raises(errors.BadParameters):
        weighted_cycle_graph([1, 1, 1])
    with pytest.raises(errors.BadParameters):
        cycle_companion_sandpile([1])
    with pytest.raises(errors.BadParameters):
        rose_graph(0, 3)
    with pytest.raises(errors.BadParameters):
        loop_sink_graph(1, 0)
    with pytest.raises(errors.BadParameters):
        multi_cycle_sandpile([[1, 1]])


def test_text_format_round_trip():
    g = make_t_graph()
    parsed, hint = parse_graph(graph_to_text(g))
    assert hint == "s"
    assert parsed.names == g.names
    assert sorted(parsed.edges) == sorted(g.edges)
    again = validate_sandpile(parsed, sink_hint=hint)
    assert again == g


def test_parse_comments_and_defaults():
    g, hint = parse_graph(
        "# header\nvertex a\nvertex s\nedge a s  # trailing\nedge a s w=2\nsink s\n"
    )
    assert g.names == ("a", "s")
    assert [w for (_, _, w) in g.edges] == [1, 2]
    assert hint == "s"


@pytest.mark.parametrize("text", [
    "vertex a\nvertex a\n",
    "vertex a\nedge a b\n",
    "vertex a\nedge a a w=zero\n",
    "vertex a\nedge a a w=0\n",
    "flurb a\n",
    "vertex a\nsink b\n",
    "vertex a\nedge a\n",
])
def test_parse_errors(text):
    with pytest.raises(errors.GraphFormatError):
        parse_graph(text)


@pytest.mark.parametrize("text, message", [
    ("vertex a\nvertex s\n# note\nvertex a\n", "line 4: duplicate vertex 'a'"),
    ("vertex a\n\nedge b a\n", "line 3: undeclared vertex 'b'"),
    ("vertex a\nedge a a\nedge a b w=2\n", "line 3: undeclared vertex 'b'"),
    ("vertex a\nedge c d\n", "line 2: undeclared vertex 'c'"),
    ("vertex a\nvertex s\nsink t  # hint\n", "line 3: undeclared vertex 't'"),
    ("edge a a\nvertex a\n", "line 1: undeclared vertex 'a'"),
    ("sink s\nvertex s\n", "line 1: undeclared vertex 's'"),
    # precedence on one line: arity, then the w= form, then the weight value,
    # then the undeclared endpoint, source first
    ("vertex a\nedge a b w=x\n", "line 2: bad weight"),
    ("vertex a\nedge b c w=1.5\n", "line 2: bad weight"),
    ("vertex a\nedge a b q=2\n", "line 2: expected w=<int>"),
    ("vertex a\nedge a b w=0\n", "line 2: weight must be >= 1"),
    # a weight is ASCII digits only, though int() takes more
    ("vertex a\nedge a a w=3_0\n", "line 2: bad weight"),
    ("vertex a\nedge a a w=+3\n", "line 2: bad weight"),
    ("vertex a\nedge a a w=-3\n", "line 2: bad weight"),
    ("vertex a\nedge a a w=\u0663\n", "line 2: bad weight"),
    ("vertex a\nedge a a w=\uff13\n", "line 2: bad weight"),
    ("vertex a\nedge a a w=\u00b3\n", "line 2: bad weight"),
    ("vertex a\nedge a a w=\n", "line 2: bad weight"),
    ("vertex a\nedge b\n",
     "line 2: edge takes source, target and optional w=<int>"),
    ("vertex a\nedge b c w=1 extra\n",
     "line 2: edge takes source, target and optional w=<int>"),
    ("edge c d w=2\nvertex c\n", "line 1: undeclared vertex 'c'"),
    # '#' in the middle of an edge line cuts it there
    ("vertex a\nvertex b\nedge a#b\n",
     "line 3: edge takes source, target and optional w=<int>"),
    ("vertex a\nvertex b\nedge a c# b\n", "line 3: undeclared vertex 'c'"),
    ("vertex a\nvertex b\nedge a b w=#3\n", "line 3: bad weight"),
    ("vertex a\nvertex b\nedge a b w=3 # c d\nedge b z\n",
     "line 4: undeclared vertex 'z'"),
    # tab separators and CRLF line endings
    ("vertex\ta\r\nvertex b\r\nedge\ta\tz\r\n", "line 3: undeclared vertex 'z'"),
    ("vertex a\r\nvertex a\r\n", "line 2: duplicate vertex 'a'"),
    ("vertex a\r\n\r\nedge a a\tw=\t2\r\n",
     "line 3: edge takes source, target and optional w=<int>"),
    # only \n, \r\n and \r end a line; other separators are whitespace
    ("vertex a\n\x0cvertex s\x0bedge a s\u2028sink s", "line 2: vertex takes one name"),
    # a sink line before its vertex
    ("vertex a\nsink b\nvertex b\n", "line 2: undeclared vertex 'b'"),
    ("vertex a\nsink b c\n", "line 2: sink takes one name"),
    ("vertex a\nvertex a b\n", "line 2: vertex takes one name"),
    ("vertex a\n  # only a comment\n\tflurb a\n", "line 3: unknown directive 'flurb'"),
])
def test_parse_error_messages_name_the_line_and_vertex(text, message):
    with pytest.raises(errors.GraphFormatError) as info:
        parse_graph(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text, names, edges, hint", [
    ("vertex a\nvertex b\nedge a b#w=3\nedge a b w=2#x\nedge a b #\n",
     ("a", "b"), ((0, 1, 1), (0, 1, 2), (0, 1, 1)), None),
    ("vertex\ta\r\nvertex b\r\nedge\ta\tb\tw=3\r\nsink\tb\r\n",
     ("a", "b"), ((0, 1, 3),), "b"),
    ("vertex\x0ca\rvertex s\u2028\nedge a\x0bs\r\nsink s",
     ("a", "s"), ((0, 1, 1),), "s"),
])
def test_parse_separators_and_mid_line_comments(text, names, edges, hint):
    g, got_hint = parse_graph(text)
    assert (g.names, g.edges, got_hint) == (names, edges, hint)


def test_dot_export():
    dot = graph_to_dot(loop_sink_graph(1, 2))
    assert '"s" [peripheries=2];' in dot
    assert dot.count('"x" -> "x"') == 1
    assert dot.count('"x" -> "s"') == 2
    # weight labels only above one
    plain = graph_to_dot(WeightedDigraph(["a", "b"], [("a", "b", 1)]))
    assert "label" not in plain and "peripheries" not in plain
    # a sink given by its index, on a graph that keeps its own weights
    dot = graph_to_dot(WeightedDigraph(["x", "s"], [("x", "s", 3), ("x", "x", 3)]), 1)
    assert '"s" [peripheries=2];' in dot and '"x";' in dot
    assert dot.count('[label="w=3"]') == 2


def test_sandpile_constructor_imposes_the_balanced_weighting():
    g = SandpileGraph(["x", "s"], [("x", "s", 1)] * 3, "s")
    assert g.edges == ((0, 1, 3),) * 3 and g.weight("x") == 3
    assert stabilize(g, (1, 0), sink_absorbing=False).result == (1, 0)
    assert stabilize(g, (4, 0), sink_absorbing=False).result == (1, 3)
    assert g == validate_sandpile(WeightedDigraph(["x", "s"], [("x", "s", 1)] * 3))
    # weights of any size give way
    g = SandpileGraph(["a", "b", "s"], [("a", "s", 5), ("b", "s", 2), ("b", "a", 7)], "s")
    assert g.edges == ((0, 2, 1), (1, 2, 2), (1, 0, 2))
    # and the axioms are checked: a only feeds itself
    with pytest.raises(errors.UnreachableSink) as info:
        SandpileGraph(["a", "b", "s"], [("a", "a", 5), ("b", "s", 2), ("b", "a", 7)], "s")
    assert info.value.vertices == ["a"]


@pytest.mark.parametrize("names, edges, sink, error, message", [
    (["a", "s"], [("a", "a", 1)], "s", errors.UnreachableSink,
     "vertices with no path to the sink: a"),
    (["a", "b"], [("a", "b", 1), ("b", "a", 1)], "a", errors.NoSink,
     "graph has no sink (every vertex emits an edge)"),
    (["a", "b", "s"], [("a", "s", 1)], "s", errors.MultipleSinks,
     "multiple sinks: b, s"),
    (["a", "s"], [("a", "s", 1)], "a", errors.BadParameters,
     "sink hint 'a' does not match structural sink 's'"),
], ids=["unreachable", "no-sink", "two-sinks", "wrong-sink"])
def test_sandpile_constructor_checks_the_axioms(names, edges, sink, error, message):
    # the checks of validate_sandpile, which stabilize relies on to stop
    with pytest.raises(error) as info:
        SandpileGraph(names, edges, sink)
    assert str(info.value) == message
    with pytest.raises(error) as info:
        validate_sandpile(WeightedDigraph(names, edges), sink_hint=sink)
    assert str(info.value) == message


def test_corpus_graphs_are_balanced_and_in_bounds():
    corpus = random_sandpile_corpus(count=60, seed=3)
    assert len(corpus) == 60
    for g in corpus:
        assert is_balanced(g)
        assert len(g.non_sink_vertices()) <= 6
        assert all(g.out_degree(v) <= 4 for v in g.non_sink_vertices())
    # determinism
    again = random_sandpile_corpus(count=60, seed=3)
    assert all(a == b for a, b in zip(corpus, again))


def rebuilt_sandpile(g, sink):
    """The construction validate_sandpile used to make: a fresh graph from
    names and balanced edges, which resolves every edge again."""
    balanced = [(s, r, len(g.out_edge_ids[s])) for (s, r, _) in g.edges]
    return SandpileGraph(g.names, balanced, sink)


def assert_same_sandpile(a, b):
    for attr in ("names", "edges", "out_edge_ids", "in_edge_ids", "out_targets",
                 "sink", "carried_weights"):
        assert getattr(a, attr) == getattr(b, attr), attr
    assert isinstance(a, SandpileGraph) and a == b


def test_validate_sandpile_reuses_the_parsed_graph(monkeypatch):
    rng = random.Random(5)
    raw = []
    not_sandpiles = []
    for path in sorted(GRAPHS.glob("*.sg")):
        g, hint = parse_graph(path.read_text(encoding="utf-8"))
        try:
            validate_sandpile(g, sink_hint=hint)
        except errors.NoSink:
            not_sandpiles.append(path.name)
            continue
        raw.append(g)
    assert not_sandpiles == ["rose_1_4.sg"] and len(raw) == 4
    for sp in random_sandpile_corpus(count=40):
        # arbitrary weights and a carried weight, all replaced by validation
        edges = [(s, r, rng.randint(1, 3)) for s, r, _ in sp.edges]
        raw.append(WeightedDigraph(sp.names, edges, {0: rng.randint(1, 5)}))
    validated = [validate_sandpile(g) for g in raw]
    for g, sp in zip(raw, validated):
        assert_same_sandpile(sp, rebuilt_sandpile(g, sp.sink))
        assert is_balanced(sp)

    def refuse(*args, **kwargs):
        raise AssertionError("validation constructed a graph")

    monkeypatch.setattr(WeightedDigraph, "__init__", refuse)
    for g, sp in zip(raw, validated):
        assert validate_sandpile(g).edges == sp.edges


# ------------------------------------------- name-based reference constructions
#
# The parser, quotient and reduction build their graphs from index triples.
# These references are the earlier name-based versions, which hand vertex
# names to the public constructor; each new graph must match its reference
# attribute for attribute.

GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def reference_parse_graph(text):
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


def reference_quotient_graph(g, subset):
    H = {g._resolve(v) for v in subset}
    if not is_hereditary_saturated(g, H):
        raise errors.NotHereditarySaturated("subset is not hereditary and saturated")
    keep = [v for v in range(g.n_vertices) if v not in H]
    names = [g.names[v] for v in keep]
    edges = [
        (g.names[s], g.names[r], w)
        for (s, r, w) in g.edges
        if s not in H and r not in H
    ]
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


def reference_reduce_graph(g):
    """Contract the first out-degree-one vertex, recount, repeat."""
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


GRAPH_ATTRIBUTES = ("names", "index", "edges", "out_edge_ids", "in_edge_ids",
                    "out_targets", "carried_weights")


def assert_same_graph(a, b):
    assert type(a) is type(b)
    for attr in GRAPH_ATTRIBUTES + (("sink",) if isinstance(a, SandpileGraph) else ()):
        assert getattr(a, attr) == getattr(b, attr), attr
        if attr == "index":
            assert list(a.index) == list(b.index), attr


def assert_graph_layer_matches_reference(text):
    """parse, and for a sandpile graph quotient and reduce, against the
    references; returns the validated graph or None."""
    parsed, hint = parse_graph(text)
    expected, expected_hint = reference_parse_graph(text)
    assert_same_graph(parsed, expected)
    assert hint == expected_hint
    # the parsed weights, unlike the balanced ones, let a dropped edge be
    # the heaviest, so the quotient must carry the parent weight
    S = non_cycle_vertices(parsed)
    assert_same_graph(quotient_graph(parsed, S), reference_quotient_graph(parsed, S))
    try:
        g = validate_sandpile(parsed, sink_hint=hint)
    except errors.SandmonError:
        return None
    S = non_cycle_vertices(g)
    assert_same_graph(quotient_graph(g, S), reference_quotient_graph(g, S))
    assert_same_graph(reduce_graph(g), reference_reduce_graph(g))
    return g


def grid_sandpile(rows, cols):
    """The rows x cols grid: each cell has four neighbours, a missing one
    replaced by an edge to the sink."""
    names = [f"c{i}_{j}" for i in range(rows) for j in range(cols)] + ["s"]
    edges = []
    for i in range(rows):
        for j in range(cols):
            for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                a, b = i + di, j + dj
                inside = 0 <= a < rows and 0 <= b < cols
                edges.append((f"c{i}_{j}", f"c{a}_{b}" if inside else "s", 1))
    return validate_sandpile(WeightedDigraph(names, edges))


def complete_sandpile(n):
    """K_n with its last vertex as the sink."""
    names = [f"k{i}" for i in range(n)]
    edges = [(a, b, 1) for a in names[:-1] for b in names if a != b]
    return validate_sandpile(WeightedDigraph(names, edges))


def chain_sandpile(lengths):
    """One hub x with a loop and one out-degree-one chain per entry of
    ``lengths``, each ending at the sink; every chain vertex also receives
    an edge from x, so contractions redirect edges along whole chains."""
    names = ["x", "s"]
    edges = [("x", "x", 1)]
    for c, length in enumerate(lengths):
        chain = [f"p{c}_{i}" for i in range(length)]
        names[1:1] = chain
        for a, b in zip(chain, chain[1:] + ["s"]):
            edges.append((a, b, 1))
        edges.extend(("x", v, 1) for v in chain)
    return validate_sandpile(WeightedDigraph(names, edges))


def test_graph_layer_matches_reference_on_the_graph_files():
    paths = sorted(GRAPHS.glob("*.sg")) + sorted(GOLDEN_INPUTS.glob("*.sg"))
    assert len(paths) == 8
    validated = [assert_graph_layer_matches_reference(p.read_text(encoding="utf-8"))
                 for p in paths]
    # rose_1_4 has no sink and weighted_sinks two
    assert sum(g is not None for g in validated) == 6


def test_graph_layer_matches_reference_on_the_corpus_and_examples():
    from sandmon.realize import named_examples
    graphs = random_sandpile_corpus() + list(named_examples().values())
    reducible = 0
    for g in graphs:
        assert_graph_layer_matches_reference(graph_to_text(g))
        reducible += not g.is_reduced()
    assert reducible > 0


def test_graph_layer_matches_reference_on_grids_complete_graphs_and_chains():
    graphs = [grid_sandpile(r, c) for r, c in ((1, 1), (1, 5), (3, 4), (6, 6))]
    graphs += [complete_sandpile(n) for n in (2, 3, 7, 20)]
    graphs += [chain_sandpile(lengths) for lengths in ([1], [3], [2, 4, 1])]
    graphs.append(chain_graph())
    for g in graphs:
        assert_graph_layer_matches_reference(graph_to_text(g))
    assert reduce_graph(chain_sandpile([2, 4, 1])).names == ("x", "s")


@st.composite
def sandpile_texts(draw):
    """Graph text of a random sandpile graph on 1-7 vertices: vertex i > 0
    has one edge to a lower vertex, so all reach the sink v0, plus 0-3
    further edges (loops and parallel edges allowed) and random weights."""
    n = draw(st.integers(1, 7))
    lines = [f"vertex v{i}" for i in draw(st.permutations(range(n)))]
    for v in range(1, n):
        targets = [draw(st.integers(0, v - 1))]
        targets += draw(st.lists(st.integers(0, n - 1), max_size=3))
        for t in draw(st.permutations(targets)):
            w = draw(st.integers(1, 3))
            lines.append(f"edge v{v} v{t}" + (f" w={w}" if w > 1 else ""))
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(sandpile_texts())
def test_graph_layer_matches_reference_on_generated_graphs(text):
    assert assert_graph_layer_matches_reference(text) is not None


def test_parse_quotient_and_reduce_build_no_graph_through_init(monkeypatch):
    texts = [p.read_text(encoding="utf-8") for p in sorted(GRAPHS.glob("*.sg"))]
    texts += [graph_to_text(g) for g in (grid_sandpile(3, 3), chain_sandpile([2, 3]),
                                         make_t_graph())]

    def refuse(*args, **kwargs):
        raise AssertionError("built a graph through WeightedDigraph.__init__")

    monkeypatch.setattr(WeightedDigraph, "__init__", refuse)
    reductions = quotients = 0
    for text in texts:
        g, hint = parse_graph(text)
        try:
            g = validate_sandpile(g, sink_hint=hint)
        except errors.NoSink:
            continue
        quotients += quotient_graph(g, non_cycle_vertices(g)).n_vertices > 0
        reductions += reduce_graph(g).n_vertices < g.n_vertices
    assert quotients >= 4 and reductions >= 2


def test_reduce_rejects_an_out_degree_one_cycle():
    # built by _balanced, which checks no axiom: a and b only feed each other
    g = SandpileGraph._balanced(WeightedDigraph(
        ["a", "b", "c", "s"], [("c", "a", 1), ("c", "s", 1), ("a", "b", 1), ("b", "a", 1)]), 3)
    with pytest.raises(errors.UnreachableSink) as info:
        reduce_graph(g)
    assert info.value.vertices == ["a", "b"]
    loop = SandpileGraph._balanced(WeightedDigraph(["a", "s"], [("a", "a", 1)]), 1)
    with pytest.raises(errors.UnreachableSink) as info:
        reduce_graph(loop)
    assert info.value.vertices == ["a"]


def test_is_reduced():
    assert not chain_graph().is_reduced()
    assert reduce_graph(chain_graph()).is_reduced()
    assert loop_sink_graph(2, 3).is_reduced()
    assert not chain_sandpile([1]).is_reduced()


# --------------------------------------------- the public constructor's checks

@pytest.mark.parametrize("edges, carried, error, message", [
    ([("a", "b", 2.5)], None, errors.BadParameters,
     "edge weight must be an integer, got 2.5"),
    ([("a", "b", "x")], None, errors.BadParameters,
     "edge weight must be an integer, got 'x'"),
    ([("a", "b", "2")], None, errors.BadParameters,
     "edge weight must be an integer, got '2'"),
    ([("a", "b", 0)], None, errors.BadParameters, "edge weight must be >= 1, got 0"),
    ([("a", "b", 1)], {"a": 3.7}, errors.BadParameters,
     "vertex weight must be an integer, got 3.7"),
    ([("a", "b", 1)], {"a": 0}, errors.BadParameters, "vertex weight must be >= 1, got 0"),
    ([(0.9, "b", 1)], None, errors.UnknownVertex,
     "vertex index must be an integer, got 0.9"),
    ([("a", 1.0, 1)], None, errors.UnknownVertex,
     "vertex index must be an integer, got 1.0"),
    ([("a", 2, 1)], None, errors.UnknownVertex, "vertex index 2 out of range"),
    ([("a", "c", 1)], None, errors.UnknownVertex, "unknown vertex 'c'"),
    ([("a", "b", 1)], {0.5: 2}, errors.UnknownVertex,
     "vertex index must be an integer, got 0.5"),
    ([("a", "b", 1)], {"a": 3, 0: 4}, errors.BadParameters,
     "two carried weights for vertex 'a'"),
])
def test_constructor_refuses_rather_than_truncates(edges, carried, error, message):
    with pytest.raises(error) as info:
        WeightedDigraph(["a", "b"], edges, carried)
    assert str(info.value) == message


def test_constructor_keeps_integer_weights_and_indices():
    g = WeightedDigraph(["a", "b"], [("a", "b", 2), (0, 1, True)], {"a": 3, 1: 4})
    assert g.edges == ((0, 1, 2), (0, 1, 1))
    assert g.carried_weights == {0: 3, 1: 4}


def test_weight_of_a_sink_is_a_typed_error():
    g = WeightedDigraph(["a", "b"], [("a", "b", 2)])
    assert g.weight("a") == 2
    with pytest.raises(errors.SinkHasNoWeight) as info:
        g.weight("b")
    assert str(info.value) == "vertex 'b' is a sink and carries no weight"
    # a carried weight is the weight, sink or not
    assert WeightedDigraph(["a", "b"], [], {"b": 3}).weight("b") == 3
