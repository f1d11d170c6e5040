"""Checks on job outputs that do not rely on the layer under test.

Every check works from the benchmark's own graph description: out-degrees,
the reduced Laplacian, the benchmark's own no-cycle set.  ``Oracle.check``
runs the checks that need no more than that and returns the claims about
group invariants that need an exact determinant or Smith normal form;
``Oracle.settle`` decides those with sympy once the timed work is over, so
that importing sympy neither delays a job nor raises the measured memory.
"""

from __future__ import annotations

import json
from math import prod

from workloads import Graph, Job, is_conical

# Largest reduced Laplacian whose invariant factors are also compared with
# sympy's Smith normal form; above it sympy takes minutes, and the product
# and divisibility checks remain.
SYMPY_SNF_ROWS = 32


class Oracle:
    def __init__(self):
        self._settled = {}

    # ------------------------------------------------------------ immediate

    def check(self, job: Job, rc: int, out: str, err: str):
        """Return (ok, claims).  A claim (graph, factors) says ``factors`` are
        the invariant factors of the sandpile group of ``graph``."""
        if job.expect_error:
            ok = rc == 1 and not out and f"error[{job.expect_error}]" in err
            return ok, []
        if rc != 0:
            return False, []
        try:
            report = json.loads(out)
            return _CHECKS[job.command](job, report)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError):
            return False, []

    # ------------------------------------------------------------- deferred

    def settle(self, claim) -> bool:
        if claim not in self._settled:
            self._settled[claim] = _group_matches(*claim)
        return self._settled[claim]


def _group_matches(graph: Graph, factors: tuple) -> bool:
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import invariant_factors

    if any(d < 2 for d in factors):
        return False
    if any(b % a for a, b in zip(factors, factors[1:])):
        return False
    lap = DomainMatrix.from_list(reduced_laplacian(graph), ZZ)
    if prod(factors) != abs(lap.det()):
        return False
    if len(graph.names) - 1 <= SYMPY_SNF_ROWS:
        expected = (abs(int(d)) for d in invariant_factors(lap))
        return factors == tuple(d for d in expected if d > 1)
    return True


def reduced_laplacian(graph: Graph) -> list:
    """Out-degree on the diagonal minus the edge counts, over the non-sink
    vertices.  Its cokernel is the sandpile group."""
    n = len(graph.names) - 1
    lap = [[0] * n for _ in range(n)]
    for s, t in graph.edges:
        lap[s][s] += 1
        if t < n:
            lap[s][t] -= 1
    return lap


# ------------------------------------------------------------ per command


def _parse_config(graph: Graph, text: str) -> list:
    index = {name: v for v, name in enumerate(graph.names)}
    counts = [0] * len(graph.names)
    for chunk in filter(None, text.split(",")):
        name, _, value = chunk.partition("=")
        counts[index[name]] = int(value)
    return counts


def _check_stabilize(job: Job, report: dict):
    """The result is stable and equals the initial configuration plus the
    net effect of the reported odometer; in sp mode sink grains vanish."""
    g = job.graph
    sp = "sp" in job.options
    deg = g.degrees()
    expected = [0] * len(g.names)
    for v, k in job.config:
        expected[v] += k
    index = {name: v for v, name in enumerate(g.names)}
    odometer = {index[name]: k for name, k in report["odometer"].items()}
    for v, k in odometer.items():
        expected[v] -= k * deg[v]
    for s, t in g.edges:
        expected[t] += odometer.get(s, 0)
    if sp:
        expected[g.sink] = 0
    result = _parse_config(g, report["result"])
    ok = (
        report["mode"] == ("sink-absorbing" if sp else "free")
        and result == expected
        and all(result[v] < deg[v] for v in range(len(g.names)) if v != g.sink)
        and report["steps"] == sum(odometer.values())
        and all(k > 0 for k in odometer.values())
    )
    return ok, []


def _check_check(job: Job, report: dict):
    g = job.graph
    reduced = all(d != 1 for d in g.degrees())
    ok = (report["valid"] is True and report["sink"] == g.names[g.sink]
          and report["reduced"] == reduced)
    return ok, []


def _factors(report: dict) -> tuple:
    return tuple(int(d) for d in report["invariant_factors"])


def _check_k0(job: Job, report: dict):
    factors = _factors(report)
    diag = report["snf_diagonal"]
    ok = (
        report["mode"] == "sandpile-group"
        and report["free_rank"] == 0
        and all(d != 0 for d in diag)
        and tuple(d for d in diag if d > 1) == factors
    )
    return ok, [(job.graph, factors)]


def _check_group(job: Job, report: dict):
    factors = _factors(report)
    ok = (
        report["monoid_size"] == job.graph.monoid_size()
        and report["size"] == prod(factors)
        and report["free_rank"] == 0
    )
    return ok, [(job.graph, factors)]


def _check_monoid(job: Job, report: dict):
    """Also serves ``wmonoid --variant with-sinks``: on the balanced graph
    file the weighted monoid with sink relations is the sandpile monoid."""
    g = job.graph
    factors = _factors(report)
    conical = is_conical(g)
    ok = (
        report["size"] == g.monoid_size()
        and report["smallest_ideal_size"] == prod(factors)
        and report["free_rank"] == 0
        and report["conical"] == conical
        and (report["units"] == [report["zero"]]) == conical
        and report.get("inconclusive", False) is False
    )
    return ok, [(g, factors)]


def _check_realize(job: Job, report: dict):
    g = job.graph
    conical = is_conical(g)
    group = tuple(report["sandpile_group"]["invariant_factors"])
    ok = (
        report["ok"] is True
        and all(report["verdicts"].values())
        and report["conical"] == conical
        and report["sp_size"] == g.monoid_size()
        and report["sandpile_group"]["free_rank"] == 0
    )
    if conical:
        ok = ok and (
            report["v_monoid_size"] == report["sp_size"]
            and tuple(report["k0"]["invariant_factors"]) == group
            and report["k0"]["free_rank"] == 0
        )
    return ok, [(g, group)]


def _check_classify(job: Job, report: dict):
    """Reduction only contracts out-degree-one vertices, so the reduced
    graph keeps every other non-sink vertex with its out-degree."""
    g = job.graph
    deg = g.degrees()
    kept = {g.names[v]: deg[v] for v in range(len(g.names))
            if v != g.sink and deg[v] != 1}
    size = prod(kept.values())
    cyclic = report["cyclic_sum"]
    ok = cyclic is None or prod(cyclic) == size
    if report["refinement"]:
        classes = report["classes"]
        members = sorted(name for cls in classes for name in cls)
        ok = ok and (
            members == sorted(kept)
            and report["class_orders"]
            == [prod(kept[name] for name in cls) for cls in classes]
            and report["witness"] is None
        )
    else:
        ok = ok and report["classes"] is None and len(report["witness"]) == 4
    return ok, []


_CHECKS = {
    "stabilize": _check_stabilize,
    "check": _check_check,
    "k0": _check_k0,
    "group": _check_group,
    "monoid": _check_monoid,
    "wmonoid": _check_monoid,
    "realize": _check_realize,
    "classify": _check_classify,
}


# ------------------------------------------------------------- self-test


def corrupt(job: Job, rc: int, out: str, err: str):
    """Alter one checked field of a job's output, the way a wrong answer
    would, so that the self-test can show each check failing."""
    if job.expect_error:
        return 0, "{}", ""
    report = json.loads(out)
    command = job.command
    if command == "stabilize":
        name = next(iter(report["odometer"]), job.graph.names[0])
        report["odometer"][name] = report["odometer"].get(name, 0) + 1
    elif command == "check":
        report["sink"] += "_"
    elif command in ("k0", "group"):
        report["invariant_factors"].append(2)
    elif command in ("monoid", "wmonoid"):
        report["size"] += 1
    elif command == "realize":
        report["sp_size"] += 1
    elif command == "classify":
        report["refinement"] = not report["refinement"]
    return rc, json.dumps(report), err
