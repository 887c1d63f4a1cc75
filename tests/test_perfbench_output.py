"""A traced perfbench run of each workload ends in one strict-JSON result
line that carries every per-layer metric BENCHMARK.json declares, each a
finite number.

The test only runs perfbench/run.py and reads BENCHMARK.json and the run's
result file; it changes neither.
"""
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _no_constant(name):
    raise ValueError(f"non-finite number {name} in the result line")


@pytest.mark.parametrize("workload", ["corpus", "wide", "cli-expected"])
def test_traced_run_ends_in_a_complete_result_line(workload):
    started = time.time()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_no_constant)
    assert result["correct"] is True and result["failed"] == 0

    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(declared)
    for name, metric in metrics.items():
        value = metric["value"]
        assert type(value) in (int, float) and math.isfinite(value), name

    # the default seed is 0, so this run wrote <workload>-seed0-trace1.json
    record_path = ROOT / ".perfbench-out" / f"{workload}-seed0-trace1.json"
    assert record_path.stat().st_mtime >= started - 1
    record = json.loads(record_path.read_text())
    assert record["missing_bindings"] == []
