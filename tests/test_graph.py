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
    graph_to_text,
    is_hereditary_saturated,
    loop_sink_graph,
    multi_cycle_sandpile,
    non_cycle_vertices,
    parse_graph,
    quotient_graph,
    reduce_graph,
    rose_graph,
    shortest_sink_distances,
    validate_sandpile,
    weighted_cycle_graph,
)
from sandmon.monoid import enumerate_sandpile_monoid, monoid_isomorphic
from sandmon.realize import make_t_graph, random_sandpile_corpus

GRAPHS = Path(__file__).resolve().parent.parent / "graphs"


def chain_graph():
    return validate_sandpile(WeightedDigraph(
        ["a", "b", "s"], [("a", "b", 1), ("b", "s", 1)]
    ))


def test_validate_loop_sink_graph():
    g = loop_sink_graph(2, 3)
    assert isinstance(g, SandpileGraph)
    assert g.sink_name == "s"
    assert g.out_degree("x") == 5
    assert g.is_balanced()
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
    # built without validate_sandpile, so a is never checked to reach s
    g = SandpileGraph(["a", "b", "s"], [("a", "a", 1), ("b", "s", 1)], "s")
    with pytest.raises(errors.UnreachableSink) as info:
        shortest_sink_distances(g)
    assert info.value.vertices == ["a"]


def test_constructor_shapes():
    g = loop_sink_graph(2, 3)
    loops = sum(1 for s, r, _ in g.edges if s == r)
    assert loops == 2 and g.n_edges == 5

    e = weighted_cycle_graph([2, 2, 1])
    assert e.names == ("v1", "v2", "v3")
    assert [(e.names[s], e.names[r], w) for s, r, w in e.edges] == [
        ("v1", "v2", 2), ("v2", "v3", 2), ("v3", "v1", 1)
    ]
    assert e.is_vertex_weighted() and not e.is_balanced()

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
    assert mc.is_balanced()


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
])
def test_parse_error_messages_name_the_line_and_vertex(text, message):
    with pytest.raises(errors.GraphFormatError) as info:
        parse_graph(text)
    assert str(info.value) == message


def test_dot_export():
    dot = graph_to_dot(loop_sink_graph(1, 2))
    assert '"s" [peripheries=2];' in dot
    assert dot.count('"x" -> "x"') == 1
    assert dot.count('"x" -> "s"') == 2
    # weight labels only above one
    plain = graph_to_dot(WeightedDigraph(["a", "b"], [("a", "b", 1)]))
    assert "label" not in plain and "peripheries" not in plain


def test_corpus_graphs_are_balanced_and_in_bounds():
    corpus = random_sandpile_corpus(count=60, seed=3)
    assert len(corpus) == 60
    for g in corpus:
        assert g.is_balanced()
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
        assert sp.is_balanced()

    def refuse(*args, **kwargs):
        raise AssertionError("validation constructed a graph")

    monkeypatch.setattr(WeightedDigraph, "__init__", refuse)
    for g, sp in zip(raw, validated):
        assert validate_sandpile(g).edges == sp.edges
