"""The benchmark's own test.

    python3 -m pytest perfbench/selftest.py

Two traced runs of a short slice per workload give identical work counts,
transversal-scan never refines or checks boundedness, and every run prints
exactly the metrics BENCHMARK.json declares, with its units.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SECONDS = "4"  # sizes the traced slice: 10 johnson-deep trials, 88 scan trials, 4 planar nets


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seconds", SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.fixture(scope="module")
def traced_twice():
    return {w: (bench(w, 1), bench(w, 1)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(traced_twice, workload):
    first, second = traced_twice[workload]
    units = declared("per_layer")
    assert {n: m["unit"] for n, m in first.items()} == units
    counts = [n for n, unit in units.items() if unit not in ("s", "ms") and n != "trace.overhead_ratio"]
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    assert first["lp.solves"]["value"] > 0


def test_transversal_scan_bypasses_refine_and_bounded(traced_twice):
    metrics, _ = traced_twice["transversal-scan"]
    bypassed = {n: m["value"] for n, m in metrics.items() if n.startswith(("refine.", "bounded."))}
    assert len(bypassed) == 7 and not any(bypassed.values()), bypassed


def test_untraced_run_prints_end_to_end_metrics():
    metrics = bench("transversal-scan", 0)
    assert {n: m["unit"] for n, m in metrics.items()} == declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())
