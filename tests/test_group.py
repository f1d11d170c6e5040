"""The sandpile group from Dhar's identity and the cokernel of the reduced
Laplacian, against the closure of s + M and the Cayley-table route, past
the size at which those can run, and with each of its certificates made
to fail."""

import dataclasses
import itertools
import json
import os
import subprocess
import sys
from math import prod
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings

from sandmon import cli, errors, group, monoid
from sandmon.graph import (
    WeightedDigraph,
    conical_violations,
    validate_sandpile,
)
from sandmon.group import sandpile_group
from sandmon.ktheory import reduced_laplacian
from sandmon.monoid import (
    AbelianGroupInvariants,
    enumerate_sandpile_monoid,
    smallest_ideal,
)
from sandmon.rewrite import _stable_form, stabilize

from reference import (
    complete_graph,
    graph_to_text,
    grid_graph,
    ideal_matches_invariants,
    make_t_graph,
    multi_cycle_sandpile,
    named_examples,
    random_sandpile_corpus,
    row_laplacian,
    small_sandpile_graphs,
    two_cycle_unions,
)

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src"
GOLDEN = TESTS / "golden" / "cli"
REAL_STABILIZE = group.stabilize


def reference_sandpile_group(g):
    """(elements, identity) of I = s + M by enumeration: the elements in
    discovery order from s, and the identity |I| * s.

    s is the stable form of the sum of all stable configurations, which
    holds |M| * (d_v - 1) / 2 grains at each non-sink vertex v, and s + M
    lies inside every translate a + M, so I = s + M is the closure of s
    under x -> stab(x + e_v).  The identity is |I| * s by Lagrange's
    theorem, found by double-and-add; e + M must then reach all of I.
    """
    gens = [(v, g.out_degree(v) - 1) for v in g.non_sink_vertices()]
    monoid_size = prod(top + 1 for _, top in gens)
    total = [0] * g.n_vertices
    for v, top in gens:
        total[v] = monoid_size * top // 2
    s = _stable_form(g, total)
    index = {s: 0}
    elements = [s]
    act = [[] for _ in gens]
    # the loop also visits the elements it appends
    for x in elements:
        for step, (v, top) in zip(act, gens):
            config = list(x)
            config[v] += 1
            y = tuple(config) if x[v] < top else _stable_form(g, config)
            k = index.get(y)
            if k is None:
                k = index[y] = len(elements)
                elements.append(y)
            step.append(k)

    def add(a, b):
        return _stable_form(g, [p + q for p, q in zip(a, b)])

    e = s
    for bit in bin(len(elements))[3:]:
        e = add(e, e)
        if bit == "1":
            e = add(e, s)
    assert add(e, e) == e
    reached = {index[e]}
    frontier = [index[e]]
    while frontier:
        x = frontier.pop()
        for step in act:
            if step[x] not in reached:
                reached.add(step[x])
                frontier.append(step[x])
    assert len(reached) == len(elements)
    return elements, e


def assert_group_matches_reference(g):
    """Equal size, identity and invariants to the closure of s + M and to
    the Cayley-table route, and |s + M| equal to the cokernel's order."""
    M = enumerate_sandpile_monoid(g)
    ideal = smallest_ideal(M)
    elements, identity = reference_sandpile_group(g)
    G = sandpile_group(g)
    assert G.monoid_size == len(M)
    assert G.size == len(elements) == len(ideal.elements)
    assert sorted(elements) == sorted(M.reps[x] for x in ideal.elements)
    assert G.identity == identity == M.reps[ideal.identity]
    assert G.identity_label == M.labels[ideal.identity]
    assert ideal_matches_invariants(M, ideal, G.invariants)


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
    assert max(sandpile_group(g).monoid_size for g in graphs) == 1024
    assert max(sandpile_group(g).monoid_size for g in graphs[:-3]) == 512
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


# ------------------------------------------------------ past the old cap


@pytest.mark.parametrize("g", [grid_graph(4, 4), grid_graph(8, 8), complete_graph(12)],
                         ids=["grid_4x4", "grid_8x8", "complete_12"])
def test_identity_passes_the_burning_test(g):
    # Dhar's burning test on these undirected graphs: a stable c is
    # recurrent iff adding beta, one grain per edge to the sink, topples
    # every non-sink vertex exactly once and returns c
    G = sandpile_group(g)
    assert G.monoid_size > 4096
    beta = [0] * g.n_vertices
    for v in g.non_sink_vertices():
        beta[v] = g.out_targets[v].count(g.sink)
    burnt = stabilize(g, [a + b for a, b in zip(G.identity, beta)])
    assert burnt.result == G.identity
    assert all(burnt.odometer[v] == 1 for v in g.non_sink_vertices())


def test_group_agrees_with_the_k0_pin_on_conical_graphs(capsys):
    compared = []
    for path in sorted([*(ROOT / "graphs").glob("*.sg"),
                        *(TESTS / "golden" / "inputs").glob("*.sg")]):
        try:
            g = cli._load_sandpile(str(path))
        except errors.SandmonError:
            continue
        if conical_violations(g):
            continue
        pin = (GOLDEN / f"{path.stem}.k0-sandpile-group.txt").read_text(encoding="utf-8")
        head, _, rest = pin.partition("--- stdout\n")
        assert head.endswith("exit 0\n"), path.stem
        pinned = json.loads(rest.partition("--- stderr\n")[0])
        assert cli.main(["group", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["invariant_factors"] == pinned["invariant_factors"], path.stem
        assert report["free_rank"] == pinned["free_rank"] == 0
        compared.append(path.stem)
    assert sorted(compared) == ["complete_12", "cycle_2_2_1", "g_1_3", "g_2_3", "grid_4x4",
                                "t"]


# ------------------------------------------------------------ no table built


def test_group_command_builds_no_table(monkeypatch, capsys, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("the group command built a table")

    for name in ("enumerate_sandpile_monoid", "smallest_ideal", "abelian_invariants"):
        monkeypatch.setattr(monoid, name, refuse)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return REAL_STABILIZE(*args, **kwargs)

    monkeypatch.setattr(group, "stabilize", counting)
    for g, size in ((grid_graph(1, 5), 1024), (grid_graph(4, 4), 4 ** 16)):
        calls.clear()
        path = tmp_path / "grid.sg"
        path.write_text(graph_to_text(g), encoding="utf-8")
        assert cli.main(["group", str(path), "--json"]) == 0
        assert f'"monoid_size": {size}' in capsys.readouterr().out
        assert len(calls) == 3


# ------------------------------------------------------------ certificates


def replacing_call(index, **changes):
    """A stabilize whose call number ``index`` returns its trace with
    ``changes`` made."""
    counter = itertools.count()

    def fake(*args, **kwargs):
        trace = REAL_STABILIZE(*args, **kwargs)
        if next(counter) == index:
            trace = dataclasses.replace(trace, **changes)
        return trace

    return fake


def certificate_failures() -> dict:
    """Certificate -> the CertificateFailed message sandpile_group raises on
    the t graph when that certificate is made to fail."""
    g = make_t_graph()
    elements, e = reference_sandpile_group(g)
    # in a group only the identity is idempotent
    other = next(x for x in elements if x != e)
    c_max = tuple(g.out_degree(v) - 1 if v != g.sink else 0
                  for v in range(g.n_vertices))
    fakes = {
        # 2 * c_max left as it is: z = 0
        "above_c_max": ("stabilize", replacing_call(
            0, result=tuple(2 * k for k in c_max), odometer=(0,) * g.n_vertices)),
        # a recurrent configuration outside the toppling lattice
        "lattice": ("stabilize", replacing_call(1, result=other)),
        "idempotent": ("stabilize", replacing_call(2, result=other)),
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
    "above_c_max": "2 * c_max - stab(2 * c_max) = 0 is not above c_max",
    "lattice": "is not L times the difference of the odometers",
    "idempotent": "2u+2v+2z is not idempotent",
    "free_rank": "cokernel is Z/8 x Z, not finite",
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
    for build in (enumerate_sandpile_monoid, monoid.enumerate_weighted_monoid):
        with pytest.raises(errors.BadParameters, match=f"cap must be >= 1, got {cap}"):
            build(g, cap=cap)
