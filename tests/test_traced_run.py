"""A traced benchmark run of route B stays whole: every per-layer metric of
BENCHMARK.json is present, and the per-width solve spans are all there."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_traced_routeb_run_reports_every_layer():
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "routeb",
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in declared if m["name"] not in metrics] == []
    # seven sweeps of five widths a pass, each one span per width
    assert metrics["regularized.smooth_solves"]["value"] == 35
    assert metrics["regularized.segments"]["value"] == 19_600
