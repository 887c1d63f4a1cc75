"""Smoke test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at a tiny budget, untraced and
traced, and checks that each metric BENCHMARK.json names is printed with its
unit. Then checks that the output check counts broken repairs as failures,
among them a Repaired circuit with one gate dropped.
"""
from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMOKE_SECONDS = "1"


def _run(workload: str, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", SMOKE_SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, (workload, trace, proc.stdout[-2000:], proc.stderr[-2000:])
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
    return result, lines[:-1]


def check_metrics_printed(spec: dict) -> None:
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, text = _run(wl["name"], trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: v["unit"] for name, v in result["metrics"].items()}
            assert got == want, (wl["name"], key, set(want) ^ set(got))
            for name, unit in want.items():
                assert isinstance(result["metrics"][name]["value"], (int, float)), name
                assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in text), name
            print(f"ok {wl['name']} trace={trace}: {len(want)} metrics")
    # on corpus the layers' self times account for the traced wall time
    record = json.loads((ROOT / ".perfbench-out" / "corpus-seed3-trace1.json").read_text())
    share = record["layer_self_sum_s"] / record["traced_wall_s"]
    assert 0.98 <= share <= 1.02, share
    print(f"ok corpus layer self times sum to {share:.1%} of traced wall time")


def check_broken_repairs_fail() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from qrep import cli, engine, qasm
    from qrep.circuit import remove_gate
    from workloads import WORKLOADS, Outcome, check

    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench-out") as tmp:
        mutants, _ = WORKLOADS["corpus"].setup(Path(tmp))
    m = next(m for m in mutants if m.name == "ghz3/add")
    budget = 20
    rep = engine.repair(m.circuit, m.suite, engine.RepairConfig(budget_evals=budget, iterations=4))
    assert rep.status == engine.STATUS_REPAIRED, rep.status
    good = Outcome(rep.status, rep.evals_used, rep.repaired_qasm)
    assert check(good, m, budget) is None

    dropped = qasm.emit_qasm(remove_gate(qasm.parse_qasm(rep.repaired_qasm), 0))
    broken = [
        Outcome(rep.status, rep.evals_used, dropped),
        Outcome(rep.status, budget + 1, rep.repaired_qasm),
        Outcome(rep.status, rep.evals_used, rep.repaired_qasm, exit_code=cli.EXIT_ERROR),
        Outcome("error", 0, error="RuntimeError: raised"),
    ]
    for outcome in broken:
        assert check(outcome, m, budget) is not None, outcome
    print(f"ok output check flags {len(broken)} broken repairs")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / ".perfbench-out").mkdir(exist_ok=True)
    check_broken_repairs_fail()
    check_metrics_printed(spec)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
