"""The sandpile group from the closure of s + M, against the Cayley-table
route and with each of its certificates made to fail."""

import itertools
import os
import subprocess
import sys
from math import ceil, log2
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings

from sandmon import cli, errors, group, monoid
from sandmon.graph import (
    WeightedDigraph,
    graph_to_text,
    multi_cycle_sandpile,
    validate_sandpile,
)
from sandmon.group import sandpile_group
from sandmon.ktheory import reduced_laplacian
from sandmon.monoid import (
    AbelianGroupInvariants,
    abelian_invariants,
    enumerate_sandpile_monoid,
    smallest_ideal,
)
from sandmon.realize import make_t_graph, named_examples, random_sandpile_corpus
from sandmon.rewrite import config_from_counts
from test_ktheory import reduced_laplacian as row_laplacian
from test_monoid import complete_graph, grid_graph, small_sandpile_graphs, two_cycle_unions

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
REAL_STABLE_FORM = group._stable_form


def assert_group_matches_reference(g):
    """Equal size, ideal, identity and invariants to the Cayley-table route."""
    M = enumerate_sandpile_monoid(g)
    ideal = smallest_ideal(M)
    G = sandpile_group(g)
    assert G.monoid_size == len(M)
    assert G.size == len(ideal.elements)
    assert G.identity_label == M.labels[ideal.identity]
    assert G.identity == M.reps[ideal.identity]
    assert G.invariants == abelian_invariants(ideal.group)
    assert sorted(G.elements) == sorted(M.reps[x] for x in ideal.elements)


def cycle_unions():
    """Unions of two cycles with 128 to 512 elements."""
    shapes = [([3, 4], [4, 6]), ([4, 4], [4, 6]), ([4, 4, 4], [2, 4]),
              ([2, 2], [2, 2, 2, 2, 2, 2, 2]), ([8, 8], [8]), ([2, 3], [5, 6]),
              ([6, 2], [3, 2, 4]), ([1, 4, 1], [2, 2, 2, 2, 2]), ([5, 5], [5, 4])]
    return two_cycle_unions() + [multi_cycle_sandpile(c) for c in shapes]


def sink_only_graph():
    return validate_sandpile(WeightedDigraph(["s"], []))


def out_degree_one_graph():
    """x sends its one grain to y, which has a loop and two sink edges."""
    return validate_sandpile(WeightedDigraph(
        ["x", "y", "s"],
        [("x", "y", 1), ("y", "y", 1), ("y", "s", 1), ("y", "s", 1)],
    ))


def test_group_matches_reference_on_the_corpus_and_named_examples():
    for g in random_sandpile_corpus() + list(named_examples().values()):
        assert_group_matches_reference(g)


def test_group_matches_reference_on_cycle_unions_grids_and_k5():
    graphs = cycle_unions() + [grid_graph(2, 2), grid_graph(1, 5), complete_graph(5)]
    assert max(len(enumerate_sandpile_monoid(g)) for g in graphs) == 1024
    assert max(len(enumerate_sandpile_monoid(g)) for g in graphs[:-3]) == 512
    for g in graphs:
        assert_group_matches_reference(g)


def test_group_of_a_sink_only_graph_and_an_out_degree_one_vertex():
    G = sandpile_group(sink_only_graph())
    assert (G.monoid_size, G.size, G.identity_label) == (1, 1, "0")
    assert G.invariants == AbelianGroupInvariants()
    assert_group_matches_reference(sink_only_graph())
    G = sandpile_group(out_degree_one_graph())
    assert (G.monoid_size, G.size, G.identity_label) == (3, 2, "2y")
    assert G.invariants == AbelianGroupInvariants((2,))
    assert_group_matches_reference(out_degree_one_graph())


@settings(max_examples=40, deadline=None)
@given(small_sandpile_graphs())
def test_group_matches_reference_on_generated_graphs(g):
    assert_group_matches_reference(g)


def test_reduced_laplacian_counts_edges_to_non_sink_vertices():
    # column v is what v loses when it fires: x's loop cancels, and its
    # grain to the sink leaves the matrix
    assert reduced_laplacian(out_degree_one_graph()) == [[1, 0], [-1, 2]]
    assert reduced_laplacian(sink_only_graph()) == []
    # the transpose of the row-per-vertex reference in test_ktheory
    for g in random_sandpile_corpus(count=30) + [grid_graph(3, 4)]:
        assert reduced_laplacian(g) == [list(col) for col in zip(*row_laplacian(g))]


# ------------------------------------------------------------ no table built


def test_group_command_builds_no_table(monkeypatch, capsys, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("the group command built a table")

    for name in ("enumerate_sandpile_monoid", "smallest_ideal", "abelian_invariants"):
        monkeypatch.setattr(monoid, name, refuse)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return REAL_STABLE_FORM(*args, **kwargs)

    monkeypatch.setattr(group, "_stable_form", counting)
    g = grid_graph(1, 5)
    path = tmp_path / "grid_1x5.sg"
    path.write_text(graph_to_text(g), encoding="utf-8")
    assert cli.main(["group", str(path), "--json"]) == 0
    out = capsys.readouterr().out
    assert '"monoid_size": 1024' in out
    size = sandpile_group(g).size
    n = len(g.non_sink_vertices())
    assert len(calls) <= size * n + 2 * ceil(log2(size)) + 3


def test_double_and_add_is_logarithmic():
    sums = []

    def add(a, b):
        sums.append((a, b))
        return a + b

    for k in range(1, 300):
        sums.clear()
        assert group._multiple(add, 1, k) == k
        assert len(sums) <= 2 * int(log2(k))


# ------------------------------------------------------------ certificates


def stable_form_calls(g):
    """(input, output) of every _stable_form call sandpile_group(g) makes."""
    calls = []

    def recording(graph, counts, sink_absorbing=True):
        out = REAL_STABLE_FORM(graph, counts, sink_absorbing)
        calls.append((tuple(counts), out))
        return out

    with mock.patch.object(group, "_stable_form", recording):
        sandpile_group(g)
    return calls


def replacing_call(index, value):
    """A _stable_form whose call number ``index`` returns ``value``."""
    counter = itertools.count()

    def fake(graph, counts, sink_absorbing=True):
        out = REAL_STABLE_FORM(graph, counts, sink_absorbing)
        return value if next(counter) == index else out

    return fake


def certificate_failures() -> dict:
    """Certificate -> the CertificateFailed message sandpile_group raises on
    the t graph when that certificate is made to fail."""
    g = make_t_graph()
    M = enumerate_sandpile_monoid(g)
    ideal = smallest_ideal(M)
    e = M.reps[ideal.identity]
    calls = stable_form_calls(g)
    # the last call adds e to itself; the one before yields e
    assert calls[-1] == (tuple(2 * k for k in e), e) and calls[-2][1] == e
    # in a group only the identity is idempotent
    other = next(M.reps[x] for x in ideal.elements if x != ideal.identity)
    zero = config_from_counts(g, {})
    assert zero not in {M.reps[x] for x in ideal.elements}
    # a transient x whose translate x + M has k elements with k * x = e:
    # taken for s, it passes the first two checks and fails the third
    for x in range(len(M)):
        k = len(set(M.add[x]))
        kx = x
        for _ in range(k - 1):
            kx = M.add[kx][x]
        if x not in ideal.elements and kx == ideal.identity:
            transient = M.reps[x]
            break
    fakes = {
        "idempotent": ("_stable_form", replacing_call(len(calls) - 2, other)),
        "in_ideal": ("_stable_form", replacing_call(len(calls) - 2, zero)),
        "closure": ("_stable_form", replacing_call(0, transient)),
        "wrong_factor": ("cokernel", lambda A: AbelianGroupInvariants((16,))),
        "free_rank": ("cokernel", lambda A: AbelianGroupInvariants((8,), 1)),
    }
    messages = {}
    for name, (attr, fake) in fakes.items():
        with mock.patch.object(group, attr, fake):
            try:
                sandpile_group(g)
            except errors.CertificateFailed as exc:
                messages[name] = str(exc)
    return messages


EXPECTED_FAILURES = {
    "idempotent": "is not idempotent",
    "in_ideal": "does not lie in s + M",
    "closure": "+ M has 8 elements, s + M has 12",
    "wrong_factor": "cokernel is Z/16, but s + M has 8 elements",
    "free_rank": "cokernel is Z/8 x Z, but s + M has 8 elements",
}


def test_every_certificate_can_fail():
    messages = certificate_failures()
    assert sorted(messages) == sorted(EXPECTED_FAILURES)
    for name, part in EXPECTED_FAILURES.items():
        assert part in messages[name], name


def test_certificates_run_without_asserts():
    code = (
        "import test_group\n"
        "for name, message in sorted(test_group.certificate_failures().items()):\n"
        "    print(name, message, sep=': ')\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), str(TESTS),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), check=True, timeout=120,
    )
    lines = out.stdout.splitlines()
    assert [line.split(": ")[0] for line in lines] == sorted(EXPECTED_FAILURES)
    for line, name in zip(lines, sorted(EXPECTED_FAILURES)):
        assert EXPECTED_FAILURES[name] in line


# ------------------------------------------------------------------- caps


@pytest.mark.parametrize("cap", [0, -1])
def test_caps_below_one_are_bad_parameters(cap):
    g = make_t_graph()
    for build in (sandpile_group, enumerate_sandpile_monoid,
                  monoid.enumerate_weighted_monoid):
        with pytest.raises(errors.BadParameters, match=f"cap must be >= 1, got {cap}"):
            build(g, cap=cap)
