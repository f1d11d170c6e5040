"""Spans around the public functions of each ``sandmon`` layer.

The wrappers are installed from the benchmark's own files, at every binding
of a wrapped function in every loaded ``sandmon`` module, so calls between
modules are caught as well as calls from the CLI.  Spans stay in memory as
(layer, start, end, parent, job) tuples; a layer's self time is the time
its spans cover minus the time their child spans cover.  A job's root span
is named ``job``, and its self time is the traced time no layer covers.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# layer -> (module, public functions whose calls are the layer's spans)
LAYERS = {
    "graph.load": ("graph", ("parse_graph", "validate_sandpile", "reduce_graph")),
    "graph.structure": ("graph", ("non_cycle_vertices", "quotient_graph",
                                  "conical_violations")),
    "rewrite.stabilize": ("rewrite", ("stabilize", "stabilize_weighted")),
    "rewrite.completion": ("rewrite", ("reduction_system",)),
    "monoid.enum_sandpile": ("monoid", ("enumerate_sandpile_monoid",)),
    "monoid.enum_weighted": ("monoid", ("enumerate_weighted_monoid",)),
    "monoid.predicates": ("monoid", ("units", "atoms", "is_refinement",
                                     "smallest_ideal", "abelian_invariants",
                                     "group_completion", "quotient_by_submonoid")),
    "monoid.isomorphism": ("monoid", ("monoid_isomorphic", "classify_cyclic_sum")),
    "realize.realization": ("realize", ("realization",)),
    "ktheory.snf": ("ktheory", ("smith_normal_form", "cokernel")),
}
ROOT = "job"


def _cli_functions(cli) -> tuple:
    return ("main",) + tuple(sorted(n for n in vars(cli) if n.startswith("cmd_")))


# Work counts read off return values: layer -> function(counts, args, result).

def _count_stabilize(counts, args, result):
    counts["topples"] += result.steps


def _count_completion(counts, args, result):
    counts["rules"] += len(result.rules)


def _count_enum_sandpile(counts, args, result):
    n = len(result)
    counts["elements"] += n
    counts["entries"] += n * (n + 1) // 2


def _count_enum_weighted(counts, args, result):
    counts["elements"] += len(result)


def _count_snf(counts, args, result):
    if isinstance(result, tuple):  # smith_normal_form, not cokernel
        _, S, _ = result
        counts["rows"] += len(args[0])
        diag = [abs(S[i][i]) for i in range(min(len(S), len(S[0]) if S else 0))]
        counts["max_factor_digits"] = max(
            [counts["max_factor_digits"]] + [len(str(d)) for d in diag]
        )


COUNTERS = {
    "rewrite.stabilize": _count_stabilize,
    "rewrite.completion": _count_completion,
    "monoid.enum_sandpile": _count_enum_sandpile,
    "monoid.enum_weighted": _count_enum_weighted,
    "ktheory.snf": _count_snf,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = [None]
        self.job = None
        self.counts = defaultdict(lambda: defaultdict(int))

    def install(self):
        """Replace every binding of a wrapped function in the loaded
        ``sandmon`` modules with its wrapper."""
        cli = sys.modules["sandmon.cli"]
        targets = {}
        for layer, (module, names) in LAYERS.items():
            mod = sys.modules[f"sandmon.{module}"]
            for name in names:
                targets[getattr(mod, name)] = layer
        for name in _cli_functions(cli):
            targets[getattr(cli, name)] = "cli"
        wrappers = {fn: self._wrap(fn, layer) for fn, layer in targets.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "sandmon" and not modname.startswith("sandmon."):
                continue
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])

    def _wrap(self, fn, layer):
        count = COUNTERS.get(layer)
        spans, stack = self.spans, self.stack
        counts = self.counts[layer]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.job)
            if count is not None:
                count(counts, args, result)
            return result

        return wrapper

    def run_job(self, job_id, call):
        """Run ``call`` under a root span for one job."""
        self.job = job_id
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        start = perf_counter()
        try:
            return call()
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[index] = (ROOT, start, end, None, job_id)

    def self_times(self) -> dict:
        """Self seconds per layer, with the root's under ``job``."""
        covered = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = {}
        for (layer, start, end, _, _), child in zip(self.spans, covered):
            out[layer] = out.get(layer, 0.0) + (end - start - child)
        return out

    def calls(self, layer: str) -> int:
        return sum(1 for span in self.spans if span[0] == layer)

    def job_seconds(self) -> float:
        return sum(end - start for layer, start, end, _, _ in self.spans if layer == ROOT)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
