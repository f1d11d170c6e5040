import random

import pytest
from hypothesis import given, settings, strategies as st

from sandmon import errors, rewrite
from sandmon.graph import (
    WeightedDigraph,
    loop_sink_graph,
    non_cycle_vertices,
    quotient_graph,
    validate_sandpile,
)
from sandmon.rewrite import (
    ReductionSystem,
    StabilizationTrace,
    _stable_form,
    config_from_counts,
    config_to_str,
    equivalent,
    format_element,
    graph_relations,
    parse_config,
    r_transform,
    reduction_system,
    stabilize,
    stabilize_weighted,
)
from sandmon.realize import make_t_graph, named_examples

from reference import (
    chain_graph,
    diverging_graph,
    firing_path,
    grid_graph,
    potential,
    random_sandpile_corpus,
    reference_reduction_system,
    rose_graph,
    topple_once,
)

G23 = loop_sink_graph(2, 3)
T = make_t_graph()


def reference_stabilize(g, c, sink_absorbing=False, budget=None):
    """Oracle for the firing kernel: fire one vertex at a time, always the
    lowest-index unstable one, emptying the sinks after every step when
    ``sink_absorbing``.  Returns None when a vertex is still unstable after
    ``budget`` steps."""
    counts = list(c)
    sinks = g.sinks()
    weights = [(v, g.weight(v)) for v in g.regular_vertices()]
    odometer = [0] * g.n_vertices
    steps = 0
    while True:
        if sink_absorbing:
            for s in sinks:
                counts[s] = 0
        for v, w in weights:
            if counts[v] >= w:
                break
        else:
            return StabilizationTrace(tuple(counts), tuple(odometer), steps)
        if budget is not None and steps >= budget:
            return None
        counts[v] -= w
        for t in g.out_targets[v]:
            counts[t] += 1
        odometer[v] += 1
        steps += 1


def assert_kernel_matches_reference(g, c):
    """stabilize, _stable_form and the reference agree in both sink modes,
    and so does firing one vertex at a time through topple_once."""
    path = firing_path(g, c)
    for sink_absorbing in (True, False):
        trace = stabilize(g, c, sink_absorbing=sink_absorbing)
        expected = reference_stabilize(g, c, sink_absorbing)
        assert trace.result == expected.result
        assert trace.odometer == expected.odometer
        assert trace.steps == expected.steps == len(path) - 1
        assert _stable_form(g, c, sink_absorbing) == trace.result
        replayed = path[-1]
        if sink_absorbing:
            replayed = tuple(0 if v == g.sink else k for v, k in enumerate(replayed))
        assert replayed == trace.result


def assert_partial_trace(g, c, budget, partial):
    """A budget-exhausted trace spent exactly its budget, and its result is
    the start plus the net effect of its odometer."""
    assert partial.steps == budget == sum(partial.odometer)
    expected = list(c)
    for v, k in enumerate(partial.odometer):
        if k:
            expected[v] -= k * g.weight(v)
            for t in g.out_targets[v]:
                expected[t] += k
    assert partial.result == tuple(expected)


@st.composite
def sandpile_cases(draw):
    """A random sandpile graph on 2-7 vertices with the sink at a random
    index, and a configuration on it."""
    n = draw(st.integers(2, 7))
    perm = draw(st.permutations(range(n)))
    edges = []
    for v in range(n - 1):
        # one edge to a higher position lets every vertex reach the sink,
        # which sits at the last position
        edges.append((v, draw(st.integers(v + 1, n - 1))))
        edges.extend((v, t) for t in draw(st.lists(st.integers(0, n - 1), max_size=3)))
    g = validate_sandpile(WeightedDigraph(
        [f"v{i}" for i in range(n)], [(perm[s], perm[t], 1) for s, t in edges]
    ))
    c = tuple(draw(st.lists(st.integers(0, 15), min_size=n, max_size=n)))
    return g, c


@st.composite
def weighted_cases(draw):
    """A random vertex weighted graph on 1-4 vertices (sinks, loops and
    diverging firings allowed), a configuration and a step budget."""
    n = draw(st.integers(1, 4))
    edges = []
    for v in range(n):
        w = draw(st.integers(1, 3))
        edges.extend((v, t, w) for t in draw(st.lists(st.integers(0, n - 1), max_size=4)))
    g = WeightedDigraph([f"v{i}" for i in range(n)], edges)
    c = tuple(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)))
    return g, c, draw(st.integers(0, 80))


def test_config_serialization():
    c = parse_config(G23, "x=5, s=1")
    assert c == (5, 1)
    assert config_to_str(G23, c) == "x=5,s=1"
    assert parse_config(G23, "") == (0, 0)
    assert config_from_counts(G23, {"x": 3}) == (3, 0)
    with pytest.raises(errors.BadParameters):
        parse_config(G23, "x=oops")
    with pytest.raises(errors.UnknownVertex):
        config_from_counts(G23, {"nope": 1})
    # one vertex named twice, by name or by name and index
    for named_twice in (lambda: parse_config(G23, "x=5,x=3"),
                        lambda: parse_config(G23, "s=1, x=5 ,x =3"),
                        lambda: config_from_counts(G23, {"x": 1, 0: 2})):
        with pytest.raises(errors.BadParameters) as info:
            named_twice()
        assert str(info.value) == "two counts for vertex 'x'"
    assert config_from_counts(G23, [("s", 2), (0, 1)]) == (1, 2)
    assert format_element(G23.names, (2, 1)) == "2x+s"
    assert format_element(G23.names, (0, 0)) == "0"


def test_r_transform_examples():
    assert r_transform(G23, "x") == (2, 3)
    assert r_transform(T, "u") == config_from_counts(T, {"v": 1, "z": 1, "s": 1})
    assert r_transform(rose_graph(1, 4), "v") == (1,)
    with pytest.raises(errors.SinkHasNoTransform):
        r_transform(G23, "s")


def test_topple_once_examples():
    assert topple_once(G23, (5, 0), "x") == (2, 3)
    chain = chain_graph()
    assert topple_once(chain, (1, 0, 0), "a") == (0, 1, 0)
    # no-loop vertex drops to zero when it holds exactly its weight
    assert topple_once(chain, (0, 1, 0), "b") == (0, 0, 1)
    with pytest.raises(ValueError) as info:
        topple_once(G23, (4, 0), "x")
    assert str(info.value) == "'x' holds 4 grains, needs 5 to fire"
    with pytest.raises(ValueError) as info:
        topple_once(G23, (0, 3), "s")
    assert str(info.value) == "'s' is a sink"


def reference_successors(g, c):
    """One-step firings of the regular vertices from c, written out from
    the definition: a dict of vertex to successor."""
    moves = {}
    for v in range(g.n_vertices):
        if not g.out_edge_ids[v] or c[v] < g.weight(v):
            continue
        nxt = list(c)
        nxt[v] -= g.weight(v)
        for s, r, _ in g.edges:
            if s == v:
                nxt[r] += 1
        moves[v] = tuple(nxt)
    return moves


def test_one_step_firings_match_the_definition():
    rng = random.Random(29)
    graphs = random_sandpile_corpus(count=30, seed=13) + [
        T, diverging_graph(), rose_graph(2, 3),
    ]
    for g in graphs:
        for _ in range(20):
            c = tuple(rng.randrange(0, 6) for _ in range(g.n_vertices))
            moves = reference_successors(g, c)
            for v in range(g.n_vertices):
                if v in moves:
                    assert topple_once(g, c, v) == moves[v]
                elif g.out_edge_ids[v]:
                    with pytest.raises(ValueError):
                        topple_once(g, c, v)


def test_topple_conserves_grains_on_balanced_graphs():
    rng = random.Random(11)
    for g in random_sandpile_corpus(count=15, seed=5):
        c = tuple(rng.randrange(0, 8) for _ in range(g.n_vertices))
        for v in g.non_sink_vertices():
            if c[v] >= g.weight(v):
                after = topple_once(g, c, v)
                assert sum(after) == sum(c)


def test_stabilize_examples():
    trace = stabilize(G23, (5, 0))
    assert trace.result == (2, 0)
    assert trace.steps == 1
    assert trace.odometer == (1, 0)

    stable = stabilize(G23, (2, 0))
    assert stable.result == (2, 0) and stable.steps == 0

    t = stabilize(T, config_from_counts(T, {"u": 3}))
    assert t.result == config_from_counts(T, {"v": 1, "z": 1})
    assert t.odometer == config_from_counts(T, {"u": 1})


def test_stabilize_retains_sink_in_free_mode():
    trace = stabilize(G23, (5, 0), sink_absorbing=False)
    assert trace.result == (2, 3)


def test_stabilize_trace_json():
    trace = stabilize(T, config_from_counts(T, {"u": 3}))
    payload = trace.to_json(T)
    assert payload == {"result": "v=1,z=1", "odometer": {"u": 1}, "steps": 1}


def test_stabilize_weighted_divergence():
    g = diverging_graph()
    c = config_from_counts(g, {"u": 2})
    for budget in (0, 1, 2, 7, 100, 5000):
        with pytest.raises(errors.BudgetExhausted) as info:
            stabilize_weighted(g, c, step_budget=budget)
        assert info.value.partial.steps == budget
        assert_partial_trace(g, c, budget, info.value.partial)


def test_stabilize_weighted_rejects_negative_budget():
    with pytest.raises(errors.BadParameters):
        stabilize_weighted(diverging_graph(), (2, 0), step_budget=-1)
    with pytest.raises(errors.BadParameters):
        stabilize_weighted(rose_graph(1, 2), (0,), step_budget=-1)


def test_stabilize_weighted_budget_is_exact():
    """A configuration that needs exactly n steps stabilises with budget n
    and exhausts budget n - 1."""
    rose = rose_graph(1, 2)
    assert stabilize_weighted(rose, (3,), step_budget=2).steps == 2
    with pytest.raises(errors.BudgetExhausted) as info:
        stabilize_weighted(rose, (3,), step_budget=1)
    assert_partial_trace(rose, (3,), 1, info.value.partial)


def test_kernel_matches_reference_on_corpus():
    rng = random.Random(52)
    for g in random_sandpile_corpus(count=40, seed=17):
        for _ in range(3):
            c = tuple(rng.randrange(0, 3 * g.n_vertices) for _ in range(g.n_vertices))
            assert_kernel_matches_reference(g, c)


def test_kernel_matches_reference_on_grids():
    for rows, cols in [(1, 1), (1, 4), (2, 3), (3, 3), (4, 5), (6, 6), (7, 9),
                       (10, 11), (12, 12)]:
        g = grid_graph(rows, cols)
        centre = g.index[f"r{rows // 2}c{cols // 2}"]
        c = tuple(4 * rows * cols if v == centre else 0 for v in range(g.n_vertices))
        assert_kernel_matches_reference(g, c)


@settings(max_examples=150, deadline=None)
@given(sandpile_cases())
def test_kernel_matches_reference_on_generated_sandpiles(case):
    assert_kernel_matches_reference(*case)


@settings(max_examples=150, deadline=None)
@given(weighted_cases())
def test_weighted_kernel_matches_reference_on_generated_graphs(case):
    g, c, budget = case
    expected = reference_stabilize(g, c, budget=budget)
    try:
        trace = stabilize_weighted(g, c, step_budget=budget)
    except errors.BudgetExhausted as exc:
        assert expected is None
        assert_partial_trace(g, c, budget, exc.partial)
    else:
        assert expected is not None
        assert (trace.result, trace.odometer, trace.steps) == (
            expected.result, expected.odometer, expected.steps
        )


def test_stabilize_weighted_terminating_cases():
    rose = rose_graph(1, 2)
    trace = stabilize_weighted(rose, (3,))
    assert trace.result == (1,) and trace.steps == 2

    chain = WeightedDigraph(["a", "b", "s"], [("a", "b", 1), ("b", "s", 1)])
    trace = stabilize_weighted(chain, (1, 0, 0))
    assert trace.result == (0, 0, 1)


def test_potential_values():
    # loop-sink graph: D = 5, n = 2, distances (1, 0)
    assert potential(G23, (1, 0)) == 5
    assert potential(G23, (0, 1)) == 25
    assert potential(G23, (0, 0)) == 0
    # T: D = 3, n = 4, distances (1, 1, 1, 0)
    before = config_from_counts(T, {"u": 3})
    after = topple_once(T, before, "u")
    assert potential(T, before) == 3 * 3 ** 3 == 81
    assert potential(T, after) == 3 ** 3 + 3 ** 3 + 3 ** 4 == 135


def test_potential_strictly_increases_and_is_bounded():
    rng = random.Random(23)
    for g in random_sandpile_corpus(count=12, seed=9):
        c = tuple(rng.randrange(0, 6) for _ in range(g.n_vertices))
        path = firing_path(g, c)
        non_sink = [v for v in range(g.n_vertices) if v != g.sink]
        D = max([2] + [g.weight(v) for v in non_sink])
        bound = sum(c) * D ** g.n_vertices
        p = potential(g, c)
        assert p <= bound
        for current in path[1:]:
            p_next = potential(g, current)
            assert p_next > p
            assert p_next <= bound
            p = p_next
        assert path[-1] == stabilize(g, c, sink_absorbing=False).result


def test_abelianness_sample():
    rng = random.Random(40)
    for g in random_sandpile_corpus(count=8, seed=13):
        c = tuple(rng.randrange(0, 7) for _ in range(g.n_vertices))
        reference = stabilize(g, c)
        data = [
            (g.weight(v), g.out_targets[v]) if v != g.sink else None
            for v in range(g.n_vertices)
        ]
        for _ in range(50):
            counts = list(c)
            counts[g.sink] = 0
            odometer = [0] * g.n_vertices
            while True:
                unstable = [
                    v for v in range(g.n_vertices)
                    if data[v] is not None and counts[v] >= data[v][0]
                ]
                if not unstable:
                    break
                v = rng.choice(unstable)
                w, targets = data[v]
                counts[v] -= w
                for t in targets:
                    counts[t] += 1
                counts[g.sink] = 0
                odometer[v] += 1
            assert tuple(counts) == reference.result
            assert tuple(odometer) == reference.odometer


def test_equivalent_examples():
    assert equivalent(G23, (5, 0), (2, 0)) is True
    assert equivalent(G23, (1, 0), (2, 0)) is False
    g = diverging_graph()
    assert equivalent(g, (2, 0), (2, 1)) is True
    assert equivalent(g, (2, 0), (1, 2)) is True
    assert equivalent(g, (2, 0), (1, 0)) is False
    assert equivalent(g, (2, 0), (0, 0)) is False
    assert equivalent(g, (1, 1), (0, 2)) is True


def test_completed_system_normal_forms():
    g = diverging_graph()
    rs = reduction_system(g)
    normal_forms = {rs.normal_form((a, b)) for a in range(4) for b in range(4)}
    assert normal_forms == {(0, 0), (1, 0), (0, 1), (2, 0), (0, 2)}


def test_completion_agrees_with_bounded_symmetric_search():
    """Every pair the completed system declares congruent must be reachable
    by an explicit bidirectional firing search; the search is the oracle."""
    g = diverging_graph()
    rs = reduction_system(g)
    deltas = []
    for v in range(g.n_vertices):
        lhs = [0] * g.n_vertices
        lhs[v] = g.weight(v)
        delta = tuple(r - l for l, r in zip(lhs, r_transform(g, v)))
        deltas.append((tuple(lhs), delta))

    def symmetric_reachable(a, b, max_total=10, max_nodes=20000):
        seen = {a}
        frontier = [a]
        while frontier:
            nxt = []
            for c in frontier:
                for lhs, delta in deltas:
                    if all(x >= l for x, l in zip(c, lhs)):
                        fwd = tuple(x + d for x, d in zip(c, delta))
                        if sum(fwd) <= max_total and fwd not in seen:
                            seen.add(fwd)
                            nxt.append(fwd)
                    back = tuple(x - d for x, d in zip(c, delta))
                    if all(x >= 0 for x in back) and sum(back) <= max_total:
                        if all(x >= l for x, l in zip(back, lhs)) and back not in seen:
                            seen.add(back)
                            nxt.append(back)
                if len(seen) > max_nodes:
                    return None
            frontier = nxt
        return b in seen

    small = [(a, b) for a in range(4) for b in range(4) if a + b <= 4]
    for i, x in enumerate(small):
        for y in small[i + 1:]:
            if rs.normal_form(x) == rs.normal_form(y):
                assert symmetric_reachable(x, y), (x, y)


def test_completion_agrees_with_stable_forms_on_sandpile_graphs():
    """Two independent canonical forms of the same congruence: deglex normal
    forms from the completed rules and stable forms from toppling must induce
    exactly the same partition of configurations."""
    rng = random.Random(77)
    for g in random_sandpile_corpus(count=10, seed=21):
        rs = reduction_system(g, include_sink_relations=True)
        configs = [
            tuple(rng.randrange(0, 6) for _ in range(g.n_vertices))
            for _ in range(12)
        ]
        for c in configs:
            assert (
                _stable_form(g, rs.normal_form(c), sink_absorbing=True)
                == _stable_form(g, c, sink_absorbing=True)
            )
        for x in configs:
            for y in configs:
                nf_equal = rs.normal_form(x) == rs.normal_form(y)
                stable_equal = (
                    _stable_form(g, x, sink_absorbing=True)
                    == _stable_form(g, y, sink_absorbing=True)
                )
                assert nf_equal == stable_equal


def test_completion_never_contradicts_explicit_paths():
    """Soundness guard on random weighted graphs: whenever a bidirectional
    firing path connects two configurations, the completed system must say
    they are congruent."""
    rng = random.Random(424)
    for _ in range(25):
        n = rng.randint(2, 3)
        names = [f"v{i}" for i in range(n)]
        edges = []
        for i in range(n):
            weight = rng.randint(1, 3)
            for _ in range(rng.randint(1, 3)):
                edges.append((names[i], names[rng.randrange(n)], weight))
        g = WeightedDigraph(names, edges)
        try:
            rs = reduction_system(g, include_sink_relations=True)
        except Exception:
            continue
        deltas = []
        for v in range(n):
            if not g.out_edge_ids[v]:
                lhs = tuple(1 if u == v else 0 for u in range(n))
                deltas.append((lhs, tuple(-x for x in lhs)))
                continue
            lhs = tuple(g.weight(v) if u == v else 0 for u in range(n))
            deltas.append(
                (lhs, tuple(r - l for l, r in zip(lhs, r_transform(g, v))))
            )
        start = tuple(rng.randint(0, 2) for _ in range(n))
        seen = {start}
        frontier = [start]
        for _ in range(4):
            nxt = []
            for c in frontier:
                for lhs, delta in deltas:
                    if all(x >= l for x, l in zip(c, lhs)):
                        fwd = tuple(x + d for x, d in zip(c, delta))
                        if fwd not in seen and sum(fwd) <= 12:
                            seen.add(fwd)
                            nxt.append(fwd)
                    back = tuple(x - d for x, d in zip(c, delta))
                    if (all(x >= 0 for x in back) and sum(back) <= 12
                            and all(x >= l for x, l in zip(back, lhs))
                            and back not in seen):
                        seen.add(back)
                        nxt.append(back)
            frontier = nxt
        nf_start = rs.normal_form(start)
        for c in seen:
            assert rs.normal_form(c) == nf_start, (g.names, start, c)


def test_reduction_system_direct():
    # single generator with relation 5x -> 2x gives five normal forms
    rs = ReductionSystem(1, [((5,), (2,))])
    assert [rs.normal_form((k,)) for k in range(12)] == [
        (0,), (1,), (2,), (3,), (4,), (2,), (3,), (4,), (2,), (3,), (4,), (2,)
    ]


def completion_inputs():
    """(graph, sink relations) pairs: a corpus in both variants, the named
    examples in both, and the no-cycle quotients the realization enumerates."""
    graphs = random_sandpile_corpus(count=30) + list(named_examples().values())
    cases = [(g, sr) for g in graphs for sr in (True, False)]
    cases += [(quotient_graph(g, non_cycle_vertices(g)), False) for g in graphs]
    return cases + [(diverging_graph(), True), (rose_graph(2, 5), False)]


def test_completion_and_normal_forms_match_the_reference():
    rng = random.Random(8)
    for g, sr in completion_inputs():
        rules, reduce = reference_reduction_system(
            g.n_vertices, graph_relations(g, sr)
        )
        rs = reduction_system(g, sr)
        assert rs.rules == rules
        n = g.n_vertices
        # the working set: the minimal left-hand sides, with normal forms
        # on the right
        lhss = [lhs for lhs, _ in rules]
        minimal = {lhs for lhs in lhss if not any(
            other != lhs and all(a <= b for a, b in zip(other, lhs))
            for other in lhss
        )}
        working = {rule for rules_v in rs._by_gen for rule in rules_v}
        lhs_of = {tuple(dict(checks).get(i, 0) for i in range(n)): moves
                  for checks, moves, _ in working}
        assert set(lhs_of) == minimal
        for lhs, moves in lhs_of.items():
            rhs = list(lhs)
            for i, d in moves:
                rhs[i] += d
            assert reduce(rhs) == tuple(rhs)
        for _ in range(20):
            vec = tuple(rng.randrange(7) for _ in range(n))
            nf = rs.normal_form(vec)
            assert nf == reduce(vec), (g.names, sr, vec)
            for v in range(n):
                plus = tuple(k + (u == v) for u, k in enumerate(nf))
                assert rs.add_generator(nf, v) == reduce(plus)


def test_equivalent_is_inconclusive_when_completion_overflows(monkeypatch):
    g = diverging_graph()
    assert equivalent(g, (2, 0), (1, 0)) is False
    monkeypatch.setattr(rewrite, "MAX_RULES", 1)
    with pytest.raises(errors.Inconclusive,
                       match=r"rule completion exceeded its budget \(more than 1 rules\)"):
        equivalent(g, (2, 0), (1, 0))


def test_equivalent_without_sink_relations():
    """Sink grains count: sandpile graphs compare stable forms that keep
    them, other graphs compare normal forms of the rules without a sink
    rule."""
    assert equivalent(G23, (5, 0), (2, 0)) is True
    assert equivalent(G23, (5, 0), (2, 0), include_sink_relations=False) is False
    assert equivalent(G23, (5, 0), (2, 3), include_sink_relations=False) is True
    rng = random.Random(41)
    for g in random_sandpile_corpus(count=20, seed=17) + [G23, T]:
        for _ in range(10):
            a, b = (tuple(rng.randrange(0, 6) for _ in range(g.n_vertices))
                    for _ in range(2))
            b = a if rng.random() < 0.3 else b
            assert equivalent(g, a, b, include_sink_relations=False) is (
                _stable_form(g, a, sink_absorbing=False)
                == _stable_form(g, b, sink_absorbing=False)
            )
    loop_sink = WeightedDigraph(
        ["x", "s"],
        [("x", "x", 5), ("x", "x", 5), ("x", "s", 5), ("x", "s", 5), ("x", "s", 5)],
    )
    assert equivalent(loop_sink, (0, 1), (0, 0)) is True
    assert equivalent(loop_sink, (0, 1), (0, 0), include_sink_relations=False) is False
    for g in (diverging_graph(), loop_sink):
        nf = reduction_system(g, False).normal_form
        for a in range(4):
            for b in range(4):
                for pair in (((a, b), (b, a)), ((a, b), (a + 2, b))):
                    assert equivalent(g, *pair, include_sink_relations=False) is (
                        nf(pair[0]) == nf(pair[1])
                    )
