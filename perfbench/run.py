"""qrep's benchmark: end-to-end repair metrics, or per-layer metrics from a
traced run.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout: qrep is imported from ``src/`` there.
The per-mutant evaluation budget is ``--seconds`` times the workload's
evaluations per second, so a run does a fixed amount of work that lasts
about ``--seconds`` on a 2-CPU machine; the work, and so every count,
depends only on ``--seconds`` and the code. ``--seed`` orders the closed
loop (see workloads.py for why it does not draw the mutants).

Setup runs SETUP_REPEATS times and reports its median. The mutants are then
repaired in PASSES passes of the closed loop, plus further passes over the
mutants whose repair spends fewer than MIN_EVALS evaluations in all; the
repeat counts follow from evaluation counts, so they are part of the fixed
work. A mutant's time is its median over its repeats. With ``--trace 1``
pass PASSES - 1 is traced and the passes before it give the untraced time
that tracing overhead is measured against.

Times are scaled to a reference host speed. On a shared machine the speed
of the host drifts by tens of percent over seconds to minutes, and CPU time
drifts with wall time. A fixed calibration loop runs before setup, between
repairs and after each pass; a repair's time is multiplied by
CALIBRATION_REF_S over the mean of the calibrations on either side of it.
The loop runs on as many threads as the workload's repairs do, because a
thread pool that hands the interpreter lock between CPUs slows down more
than one thread when other tenants load the host: for repairs through the
CLI's 2-thread pool, a one-thread loop left a spread of 16% in the sum of
18 scaled repairs, and a 2-thread loop 4-10%. On a 2-CPU VM the scaling
cut the spread of ``wall_s`` over runs from 11-35% to 2-8%. Raw times are
kept in the result file. The scaling assumes qrep leaves nothing running
between repair calls.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The per-mutant rows,
the machine record and the run's settings go to
``.perfbench-out/<workload>-seed<seed>-trace<t>.json``, and the spans of a
traced run to a ``.spans.jsonl`` file beside it. Rows of every run are kept
per source digest, and a run whose rows differ from an earlier run of the
same code fails.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 3
PASSES = 2
# a repair that spends fewer evaluations is repeated until its repeats have
# spent this many, so the median of a short repair rests on enough work
MIN_EVALS = 40
CALIBRATION_STEPS = 1000
# steps per task when the loop runs on a pool, about one simulator call's
CALIBRATION_CHUNK = 25
# the calibration loop's time on the 2-CPU machine the budgets were sized on
CALIBRATION_REF_S = 0.025

END_TO_END_UNITS = {
    "wall_s": "s",
    "evals_per_s": "1/s",
    "time_to_repair_s": "s",
    "repaired": "count",
    "evals": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


def _import_qrep():
    """Import qrep from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import qrep
    except ImportError as e:
        sys.exit(f"perfbench: cannot import qrep from {SRC}: {e}")
    if Path(qrep.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: qrep was imported from {qrep.__file__}, not from {SRC}")


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    if name == "simulator.ns_per_gate_app":
        return "ns"
    return "count"


def _commit() -> str | None:
    """HEAD's commit hash when the checkout is a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qrep").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def machine_record() -> dict:
    import scipy

    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def _steps(n: int) -> None:
    a = np.ones(64, dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    for i in range(n):
        t = np.moveaxis(a.reshape([2] * 6), i % 6, -1) @ x.T
        a = np.moveaxis(t, -1, i % 6).reshape(-1)


def calibrate(threads: int) -> float:
    """Seconds taken by a fixed loop of the small-tensor numpy calls and
    Python overhead that qrep's simulator spends its time in, split over a
    pool of ``threads`` when that is more than one. It lives here, so no
    change to qrep moves it."""
    t0 = time.perf_counter()
    if threads == 1:
        _steps(CALIBRATION_STEPS)
    else:
        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(_steps, [CALIBRATION_CHUNK] * (CALIBRATION_STEPS // CALIBRATION_CHUNK)))
    return time.perf_counter() - t0


def _speed(before: float, threads: int) -> tuple[float, float]:
    """Calibrate again; return that time and the factor that scales a time
    measured since ``before`` to the reference host speed."""
    after = calibrate(threads)
    return after, CALIBRATION_REF_S / ((before + after) / 2)


def _check_rows_repeat(rows: list[dict], key: str) -> str | None:
    """Compare rows with those an earlier run of the same code stored."""
    path = OUT_DIR / f"rows-{key}.json"
    text = json.dumps(sorted(rows, key=lambda r: r["mutant"]), sort_keys=True)
    if path.exists():
        if path.read_text() != text:
            return f"rows differ from an earlier run of the same code ({path.name})"
        return None
    tmp = path.with_suffix(".tmp")
    tmp.write_text(text)
    tmp.replace(path)
    return None


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS, check

    wl = WORKLOADS[workload]
    budget = wl.budget(seconds)
    machine = machine_record()
    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer() if trace else None
    failures: list[str] = []
    failed_mutants: set[str] = set()

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workdir = Path(tmp)
        setup_times, parts, mutants = [], [], None
        cal = calibrate(1)
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            built, times = wl.setup(workdir)
            wall = time.perf_counter() - t0
            cal, speed = _speed(cal, 1)
            setup_times.append(wall * speed)
            parts.append(times)
            if mutants is not None and [(m.name, m.circuit) for m in built] != [
                (m.name, m.circuit) for m in mutants
            ]:
                raise AssertionError("setup built different mutants on a repeat")
            mutants = built

        order = list(mutants)
        random.Random(seed).shuffle(order)
        walls: dict[str, list[float]] = {m.name: [] for m in mutants}
        raw_walls: dict[str, list[float]] = {m.name: [] for m in mutants}
        repeats = {m.name: PASSES for m in mutants}
        cals: list[list[float]] = []
        pass_rows: list[list[dict]] = []
        traced_pass = PASSES - 1 if trace else None
        p = 0
        while todo := [m for m in order if repeats[m.name] > p]:
            outcomes = []
            # setup or the last pass's checks ran since the last calibration
            cal = calibrate(wl.threads)
            cals.append([cal])
            if p == traced_pass:
                tracer.install()
            try:
                for m in todo:
                    if p == traced_pass:
                        tracer.repair_id = m.name
                    outcome, wall = wl.repair(m, budget, workdir, tracer if p == traced_pass else None)
                    cal, speed = _speed(cal, wl.threads)
                    cals[-1].append(cal)
                    outcomes.append((m, outcome))
                    walls[m.name].append(wall * speed)
                    raw_walls[m.name].append(wall)
            finally:
                if p == traced_pass:
                    tracer.uninstall()
            rows = []
            for m, outcome in sorted(outcomes, key=lambda mo: mo[0].name):
                why = check(outcome, m, budget)
                if why is not None:
                    failures.append(f"pass {p} {m.name}: {why}")
                    failed_mutants.add(m.name)
                rows.append({"workload": workload, "mutant": m.name,
                             "status": outcome.status, "evals_used": outcome.evals_used})
                if p == 0:
                    repeats[m.name] = max(PASSES, math.ceil(MIN_EVALS / max(1, outcome.evals_used)))
            pass_rows.append(rows)
            p += 1

    rows = pass_rows[0]
    by_mutant = {r["mutant"]: r for r in rows}
    deterministic = all(r == by_mutant[r["mutant"]] for later in pass_rows[1:] for r in later)
    if not deterministic:
        failures.append("repetitions disagree on the per-mutant rows")
    repeat_error = _check_rows_repeat(rows, f"{workload}-b{budget}-{machine['source_sha256'][:16]}")
    if repeat_error:
        failures.append(repeat_error)
        deterministic = False

    failed = len(failed_mutants)
    med = {name: statistics.median(ws) for name, ws in walls.items()}
    repaired = [r for r in rows if r["status"] == "Repaired"]
    evals = sum(r["evals_used"] for r in rows)
    wall_s = sum(med.values())

    if trace:
        raw_traced = sum(raw_walls[m.name][traced_pass] for m in mutants)
        # median over mutants of traced time over untraced time, which a
        # burst of host load during one repair does not move
        ratio = statistics.median(
            walls[m.name][traced_pass] / statistics.mean(walls[m.name][:traced_pass]) for m in mutants)
        values, accounted = layer_metrics(
            tracer.spans, tracer.missing,
            {"suite_build_s": statistics.median(t.suite_build_s for t in parts),
             "inject_s": statistics.median(t.inject_s for t in parts)})
        values["engine.evals_to_repair"] = (
            statistics.mean(r["evals_used"] for r in repaired) if repaired else 0.0)
        values["trace.overhead_pct"] = (ratio - 1.0) * 100.0
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in values.items()}
        extra = {"missing_bindings": tracer.missing,
                 "traced_wall_s": raw_traced,
                 "layer_self_sum_s": accounted}
    else:
        values = {
            "wall_s": wall_s,
            "evals_per_s": evals / wall_s,
            "time_to_repair_s": sum(med[r["mutant"]] for r in repaired),
            "repaired": len(repaired),
            "evals": evals,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": (len(rows) - failed) / len(rows),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        extra = {}

    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "budget_evals": budget,
        "passes": PASSES, "setup_repeats": SETUP_REPEATS, "machine": machine,
        "rows": rows, "repeats": repeats, "setup_s": setup_times,
        "mutant_walls_s": walls, "raw_mutant_walls_s": raw_walls, "calibrations_s": cals,
        "order": [m.name for m in order], "failures": failures, "metrics": metrics, **extra,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if trace:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl")
    return {
        "correct": deterministic and failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": metrics,
        "rows": rows,
        "failures": failures,
        "machine": machine,
        "budget": budget,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("corpus", "wide", "cli-expected"))
    ap.add_argument("--seed", type=int, default=0, help="orders the closed loop")
    ap.add_argument("--seconds", type=float, required=True, help="sets the per-mutant evaluation budget")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    _import_qrep()

    res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    m = res["machine"]
    print(f"# {args.workload} seed={args.seed} budget={res['budget']} cpus={m['cpus']} "
          f"python={m['python']} numpy={m['numpy']} scipy={m['scipy']} commit={m['commit']}")
    for r in res["rows"]:
        print(f"row {r['workload']} {r['mutant']} {r['status']} {r['evals_used']}")
    for f in res["failures"]:
        print(f"FAILED {f}")
    for name, v in res["metrics"].items():
        print(f"{name} {v['value']:.6g} {v['unit']}")
    if not args.trace:
        print(f"error_rate {res['failed'] / res['attempted']:.6g} ratio")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
