"""Run the desk-scale repair benchmark and print a per-mutant results table.

Generates 3 mutants per algorithm (one per mutation-operator group) for the
six benchmark families of perfbench's ``corpus`` workload, at its injection
seeds, repairs each with the guided engine, and optionally runs the
evaluation-matched random-search baseline on the same corpus.

    python scripts/run_benchmark.py --budget-evals 5000 --iterations 4 --rs
    PYTHONPATH=<other checkout>/src python scripts/run_benchmark.py --rs

qrep is imported from ``PYTHONPATH`` when it names a checkout, else from
this one, so the same script runs two commits' corpora.
"""
import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "src"))
sys.path.append(str(ROOT / "perfbench"))

from workloads import CORPUS, INJECTION_SEEDS

from qrep.benchmarks import build_benchmark
from qrep.engine import STATUS_REPAIRED, RepairConfig, random_search, repair
from qrep.patcher import inject_faults
from qrep.testkit import generate_suite


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--budget-evals", type=int, default=5000)
    ap.add_argument("--iterations", type=int, default=4)
    ap.add_argument("--seed", type=int, default=None, help="override every per-algorithm seed")
    ap.add_argument("--rs", action="store_true", help="also run the random-search baseline")
    ap.add_argument("--out", default=None, help="write the rows as JSON")
    return ap.parse_args(argv)


def run_one(engine_fn, rec, ts, cfg):
    t0 = time.monotonic()
    rep = engine_fn(rec.mutant, ts, cfg, fault_gate=rec.fault_gate)
    return rep, time.monotonic() - t0


def main(argv=None):
    args = parse_args(argv)
    rows = []
    qrep_s = 0.0
    print(f"{'mutant':<28} {'qrep':>9} {'evals':>6} {'impr%':>6} {'fault%':>6}"
          + ("   rs" if args.rs else ""))
    for name, n in CORPUS:
        seed = args.seed if args.seed is not None else INJECTION_SEEDS[name]
        ref = build_benchmark(name, n)
        ts = generate_suite(ref)
        for rec in inject_faults(ref, seed=seed, per_group=1, suite=ts):
            cfg = RepairConfig(budget_evals=args.budget_evals, iterations=args.iterations, seed=seed)
            qr, secs = run_one(repair, rec, ts, cfg)
            qrep_s += secs
            row = {
                "mutant": f"{name}{n}/{rec.group}",
                "description": rec.description,
                "status": qr.status,
                "evals": qr.evals_used,
                "improvement_pct": qr.improvement_pct,
                "fault_percentile": qr.fault_percentile,
                "seconds": round(secs, 2),
            }
            line = (f"{row['mutant']:<28} {qr.status:>9} {qr.evals_used:>6} "
                    f"{qr.improvement_pct:>6.1f} "
                    f"{'-' if qr.fault_percentile is None else format(qr.fault_percentile, '.1f'):>6}")
            if args.rs:
                rs, _ = run_one(random_search, rec, ts, cfg)
                row["rs_status"] = rs.status
                row["rs_evals"] = rs.evals_used
                line += f"   {rs.status}@{rs.evals_used}"
            print(line, flush=True)
            rows.append(row)

    fixed = sum(r["status"] == STATUS_REPAIRED for r in rows)
    print(f"\nrepaired {fixed}/{len(rows)} ({100 * fixed / len(rows):.0f}%)")
    print(f"qrep total: {qrep_s:.1f} s wall, {sum(r['evals'] for r in rows)} evaluations")
    if args.rs:
        rs_fixed = sum(r.get("rs_status") == STATUS_REPAIRED for r in rows)
        print(f"random search {rs_fixed}/{len(rows)} ({100 * rs_fixed / len(rows):.0f}%)")
    nf = [r for r in rows if r["status"] != STATUS_REPAIRED and r["fault_percentile"] is not None]
    if nf:
        hits = sum(r["fault_percentile"] <= 65.0 for r in nf)
        print(f"not fixed: {hits}/{len(nf)} true faults ranked in the top 65%")
    if args.out:
        Path(args.out).write_text(json.dumps(rows, indent=2) + "\n")
        print(f"rows written to {args.out}")


if __name__ == "__main__":
    main()
