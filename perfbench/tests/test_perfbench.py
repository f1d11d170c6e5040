"""Self-test of the benchmark on tiny inputs.

Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
CHECKOUT = BENCH.parent
SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402


def run(workload, trace=0, seconds=1, *extra, cwd=CHECKOUT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace), "--scale", "0.2", *extra],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return lines, result


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_all_printed(workload):
    lines, result = result_of(run(workload))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in units(result):
        assert any(line.split()[:1] == [name] for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_account_for_the_traced_time(workload):
    _, result = result_of(run(workload, trace=1, seconds=60))
    assert result["correct"] is True
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    self_times = {k: v for k, v in values.items() if k.endswith(".self_s")}
    assert all(v > 0 for v in self_times.values()), self_times
    assert sum(self_times.values()) == pytest.approx(values["trace.job_s"], rel=1e-9)
    assert values["trace.overhead_ratio"] == pytest.approx(
        values["trace.traced_jobs_per_s"] / values["trace.untraced_jobs_per_s"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_corrupted_output_is_caught(workload):
    _, result = result_of(run(workload, 0, 1, "--corrupt-every", "1"))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["success_rate"]["value"] == 0


def test_latencies_are_scaled_by_the_nearest_blocks():
    measured = speed.Speed()
    # Forty jobs: the machine runs at half speed for the first twenty.
    for jobs_done in range(0, 40, 2):
        ms = 2 * speed.REFERENCE_MS if jobs_done < 20 else speed.REFERENCE_MS
        measured.positions.append(jobs_done)
        measured.seconds.append(ms / 1e3)
    scales = measured.scales(40)
    assert scales[0] == pytest.approx(0.5) and scales[39] == pytest.approx(1.0)
    assert all(0.5 <= k <= 1.0 for k in scales)
    assert sorted(scales) == scales


def test_same_seed_same_inputs():
    first = result_of(run("corpus"))[0][0]
    second = result_of(run("corpus"))[0][0]
    assert "input sha256" in first and first == second


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("grid", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
