"""Every per-layer count repeats exactly between two traced runs of one seed.

    python3 -m pytest perfbench/test_trace_counts.py

Each case runs the traced benchmark twice on the shortest run (one untraced
and one traced round), about three minutes for all three workloads.
Timings (names ending in _s, and the tracing overhead) are left out; every
other per-layer metric is a count or a ratio of counts and must be equal.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


def traced_metrics(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["cells_ndim", "classify_mixed", "cli_cold"])
def test_per_layer_counts_repeat(workload):
    first, second = traced_metrics(workload, 7), traced_metrics(workload, 7)
    counts = sorted(k for k in first if not k.endswith("_s") and k != "trace.overhead_frac")
    assert "surface.LocalChart.height.evals_per_lane" in counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
