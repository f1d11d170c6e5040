"""End-to-end and per-layer benchmark of the ``sandmon`` CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0

One client runs a closed loop: a job is one ``sandmon`` command, called
in-process through ``sandmon.cli.main(argv)`` with its output captured, and
the next job starts when the previous one has returned.  Each output is
checked by ``oracle.py`` between jobs, outside the timed intervals.

``--trace 0`` cycles through the workload's jobs for ``--seconds`` of job
time and reports the end-to-end metrics.  Their times are at reference
speed (``speed.py``): scaled by a block of fixed work timed between jobs,
so that the drift of a shared machine's speed cancels out; the summary and
the run record also give them in wall time.  ``--trace 1`` runs one pass over
the jobs without tracing, then the same jobs again with spans around every
layer (``tracing.py``), and reports the per-layer metrics.  Both print a
summary, then one JSON line: {"correct", "attempted", "failed", "metrics"}.
Run records and spans go to ``.perfbench/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
OUT = CHECKOUT / ".perfbench"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import speed  # noqa: E402
from tracing import LAYERS, ROOT, Tracer  # noqa: E402
from workloads import WORKLOADS, graphs_of, grid_graph  # noqa: E402

SETUP_REPEATS = 11
# Reference blocks timed after each set-up, for its speed estimate.
SETUP_BLOCKS = 5
# Every workload's coverage jobs use this graph, so the warm-up job costs the
# same for every workload and seed.
WARM_UP = grid_graph(1, 2)


def import_sandmon():
    """Import the CLI afresh from the checkout's ``src``."""
    for name in [n for n in sys.modules if n == "sandmon" or n.startswith("sandmon.")]:
        del sys.modules[name]
    src = str(CHECKOUT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    return importlib.import_module("sandmon.cli")


def call_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def set_up(name: str, seed: int, scale: float, workdir: Path):
    """Import sandmon, generate and write the graph files, run one job.
    Returns the seconds taken and what the timed loop needs."""
    start = perf_counter()
    cli = import_sandmon()
    jobs = WORKLOADS[name](seed, scale)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    digest = hashlib.sha256()
    paths = {}
    for g in sorted(graphs_of(jobs), key=lambda g: g.key):
        text = g.text()
        path = workdir / f"{g.key}.sg"
        path.write_text(text, encoding="utf-8")
        paths[g.key] = str(path)
        digest.update(f"{g.key}.sg\n{text}".encode())
    rc, _, err = call_cli(cli, ["check", paths[WARM_UP.key], "--json"])
    if rc != 0:
        raise RuntimeError(f"warm-up job failed: {err.strip()}")
    return perf_counter() - start, cli, jobs, paths, digest.hexdigest()


class Loop:
    """A closed loop with one client over a fixed job sequence."""

    def __init__(self, cli, jobs, paths, corrupt_every=0):
        self.cli, self.jobs, self.paths = cli, jobs, paths
        self.oracle = oracle.Oracle()
        self.corrupt_every = corrupt_every
        self.latencies = []
        self.speed = speed.Speed()
        self.failed = set()
        self.claims = []

    def run(self, seconds=None, count=None, tracer=None):
        """Run jobs until their summed time reaches ``seconds`` (after at
        least two jobs) or ``count`` jobs have run, whichever comes first."""
        busy = 0.0
        since_block = 0.0
        n = 0
        if not self.speed.seconds:
            self.speed.sample(0)
        while ((count is None or n < count)
               and (seconds is None or busy < seconds or n < 2)):
            job = self.jobs[n % len(self.jobs)]
            argv = job.argv(self.paths[job.graph.key])
            cli = self.cli
            start = perf_counter()
            if tracer is None:
                rc, out, err = call_cli(cli, argv)
            else:
                rc, out, err = tracer.run_job(n, lambda: call_cli(cli, argv))
            elapsed = perf_counter() - start
            busy += elapsed
            self._record(len(self.latencies), job, rc, out, err)
            self.latencies.append(elapsed)
            n += 1
            since_block += elapsed
            if since_block >= speed.EVERY_S:
                self.speed.sample(len(self.latencies))
                since_block = 0.0
        return n, busy

    def _record(self, index, job, rc, out, err):
        if self.corrupt_every and index % self.corrupt_every == 0:
            rc, out, err = oracle.corrupt(job, rc, out, err)
        ok, claims = self.oracle.check(job, rc, out, err)
        if not ok:
            self.failed.add(index)
        self.claims.extend((index, claim) for claim in claims)

    def settle(self):
        for index, claim in self.claims:
            if not self.oracle.settle(claim):
                self.failed.add(index)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def metric(value, unit):
    return {"value": value, "unit": unit}


def timings(latencies: list, setup_times: list) -> dict:
    return {
        "jobs_per_s": metric(len(latencies) / sum(latencies), "jobs/s"),
        "job_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
        "job_p90_ms": metric(statistics.quantiles(latencies, n=10)[-1] * 1e3, "ms"),
        "setup_s": metric(statistics.median(setup_times), "s"),
    }


def end_to_end(loop: Loop, setup: list, rss: float) -> tuple:
    """The metrics, with times at reference speed, and the same times in
    wall time.  ``setup`` holds (wall seconds, scale) per set-up."""
    lat = loop.latencies
    scales = loop.speed.scales(len(lat))
    at_reference = timings([t * k for t, k in zip(lat, scales)],
                           [t * k for t, k in setup])
    wall = timings(lat, [t for t, _ in setup])
    metrics = {
        **at_reference,
        "peak_rss_mb": metric(rss, "MB"),
        "success_rate": metric((len(lat) - len(loop.failed)) / len(lat), "fraction"),
    }
    return metrics, wall


def per_layer(tracer: Tracer, untraced: tuple, traced: tuple) -> dict:
    self_s = tracer.self_times()
    counts = tracer.counts
    enum_self = self_s.get("monoid.enum_sandpile", 0.0)
    stab_self = self_s.get("rewrite.stabilize", 0.0)
    untraced_rate = untraced[0] / untraced[1]
    traced_rate = traced[0] / traced[1]
    m = {}
    for layer in list(LAYERS) + ["cli"]:
        m[f"{layer}.self_s"] = metric(self_s.get(layer, 0.0), "s")
    m["other.self_s"] = metric(self_s.get(ROOT, 0.0), "s")
    m["rewrite.stabilize.calls"] = metric(tracer.calls("rewrite.stabilize"), "count")
    m["rewrite.stabilize.topples"] = metric(counts["rewrite.stabilize"]["topples"], "count")
    m["rewrite.stabilize.topples_per_s"] = metric(
        counts["rewrite.stabilize"]["topples"] / stab_self if stab_self else 0.0, "1/s")
    m["rewrite.completion.rules"] = metric(counts["rewrite.completion"]["rules"], "count")
    m["monoid.enum_sandpile.elements"] = metric(
        counts["monoid.enum_sandpile"]["elements"], "count")
    m["monoid.enum_sandpile.entries_per_s"] = metric(
        counts["monoid.enum_sandpile"]["entries"] / enum_self if enum_self else 0.0, "1/s")
    m["monoid.enum_weighted.elements"] = metric(
        counts["monoid.enum_weighted"]["elements"], "count")
    m["monoid.isomorphism.calls"] = metric(tracer.calls("monoid.isomorphism"), "count")
    m["ktheory.snf.calls"] = metric(tracer.calls("ktheory.snf"), "count")
    m["ktheory.snf.rows"] = metric(counts["ktheory.snf"]["rows"], "count")
    m["ktheory.snf.max_factor_digits"] = metric(
        counts["ktheory.snf"]["max_factor_digits"], "digits")
    m["trace.jobs"] = metric(traced[0], "count")
    m["trace.job_s"] = metric(tracer.job_seconds(), "s")
    m["trace.untraced_jobs_per_s"] = metric(untraced_rate, "jobs/s")
    m["trace.traced_jobs_per_s"] = metric(traced_rate, "jobs/s")
    m["trace.overhead_ratio"] = metric(traced_rate / untraced_rate, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; the self-test runs tiny inputs")
    parser.add_argument("--corrupt-every", type=int, default=0, metavar="K",
                        help="self-test only: corrupt every K-th job output")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0 or args.corrupt_every < 0:
        parser.error("--seconds and --scale must be positive, --corrupt-every >= 0")

    if not (CHECKOUT / "src" / "sandmon" / "cli.py").is_file():
        sys.exit(f"error: {CHECKOUT / 'src' / 'sandmon'} not found; run from a sandmon checkout")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"graphs-{tag}"
    setup = []
    for _ in range(SETUP_REPEATS):
        seconds, cli, jobs, paths, input_hash = set_up(
            args.workload, args.seed, args.scale, workdir)
        block = statistics.median(speed.time_block() for _ in range(SETUP_BLOCKS))
        setup.append((seconds, speed.REFERENCE_MS / 1e3 / block))

    loop = Loop(cli, jobs, paths, args.corrupt_every)
    if args.trace == 0:
        n, busy = loop.run(seconds=args.seconds)
        rss = peak_rss_mb()
        loop.settle()
        metrics, wall = end_to_end(loop, setup, rss)
        extra = {"samples": n, "job_seconds": busy, "wall": wall,
                 "block_ms": loop.speed.median_ms(), "blocks": len(loop.speed.seconds),
                 "latencies": loop.latencies}
    else:
        # One pass over the jobs, or as much of it as fits in --seconds,
        # untraced and then traced, so the overhead ratio compares equal work.
        untraced = loop.run(seconds=args.seconds, count=len(jobs))
        n = untraced[0]
        tracer = Tracer()
        tracer.install()
        traced = loop.run(count=n, tracer=tracer)
        loop.settle()
        metrics = per_layer(tracer, untraced, traced)
        tracer.write(OUT / f"spans-{tag}.jsonl")
        extra = {"samples": n, "untraced": untraced, "traced": traced}
    shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(loop.latencies)
    failed = len(loop.failed)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, "input_sha256": input_hash,
              "jobs_in_sequence": len(jobs), **extra,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / f"run-{tag}.json").write_text(json.dumps(record) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  input sha256 {input_hash}")
    print(f"jobs {attempted}  failed {failed}  error_rate {failed / attempted:.6f}"
          f"  (latency samples {extra['samples']})")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    if args.trace == 0:
        print(f"wall time (reference block median {extra['block_ms']:.3f} ms"
              f" over {extra['blocks']} blocks, at reference speed {speed.REFERENCE_MS} ms):")
        for name, m in wall.items():
            print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
