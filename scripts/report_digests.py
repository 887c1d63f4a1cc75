"""Print one sha256 per repair and localize report, wall time masked, to compare two commits.

    python scripts/report_digests.py > change.txt
    PYTHONPATH=<other checkout>/src python scripts/report_digests.py > parent.txt
    diff parent.txt change.txt

The reports are those of ``repair`` and ``random_search`` on the 27 mutants
of perfbench's ``corpus`` and ``wide`` workloads (their families and
injection seeds) under 15 configurations: count budgets of 1, 7, 20, 55 and
300 evaluations at 1 and 4 iterations, a sampled-mode oracle (60
evaluations, oracle seed 3), the fixed kinds of ``DEFAULT_PATCH_CATALOG``
(80 evaluations), ``iterations=10**6`` and ``iterations=2**70`` (55
evaluations each; the second's count is beyond a C long) and the catalog
``u,cx`` (300 evaluations), the only one that tries ``u`` patches. Each line
names the configuration, the search and the mutant, then the digest of the
report's JSON less ``wall_seconds``, or the error the run ended in. Then
each mutant's ``qrep localize`` report, run through ``cli.main`` against
its reference in exact and in sampled mode (oracle seed 3), is digested
less ``wall_seconds``, the manifest's timestamp and its input paths, or
its exit code and error line. qrep is imported from ``PYTHONPATH`` when it
names a checkout, else from this one.
"""
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "src"))
sys.path.append(str(ROOT / "perfbench"))

from workloads import CORPUS, INJECTION_SEEDS, WIDE

from qrep import cli
from qrep.benchmarks import build_benchmark
from qrep.circuit import GATE_BY_NAME
from qrep.engine import RepairConfig, random_search, repair
from qrep.errors import QRepError
from qrep.patcher import DEFAULT_PATCH_CATALOG, inject_faults
from qrep.qasm import emit_qasm
from qrep.testkit import OracleConfig, generate_suite

FIXED_KINDS = tuple(name for name in DEFAULT_PATCH_CATALOG if not GATE_BY_NAME[name].param_count)


def configs() -> dict[str, RepairConfig]:
    out = {
        f"evals={n},iterations={it}": RepairConfig(budget_evals=n, iterations=it)
        for n in (1, 7, 20, 55, 300)
        for it in (1, 4)
    }
    out["sampled,evals=60"] = RepairConfig(budget_evals=60, oracle=OracleConfig(mode="sampled", seed=3))
    out["fixed_kinds,evals=80"] = RepairConfig(budget_evals=80, patch_catalog=FIXED_KINDS)
    out["iterations=10**6,evals=55"] = RepairConfig(budget_evals=55, iterations=10**6)
    out["iterations=2**70,evals=55"] = RepairConfig(budget_evals=55, iterations=2**70)
    out["catalog=u,cx,evals=300"] = RepairConfig(budget_evals=300, patch_catalog=("u", "cx"))
    return out


def digest(search, mutant, suite, cfg) -> str:
    try:
        report = search(mutant, suite, cfg).to_dict()
    except QRepError as e:
        return f"{type(e).__name__}: {e}"
    report.pop("wall_seconds")
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def localize_digest(mutant, ref, flags: list[str], tmp: Path) -> str:
    (tmp / "mutant.qasm").write_text(emit_qasm(mutant))
    (tmp / "ref.qasm").write_text(emit_qasm(ref))
    out = tmp / "report.json"
    argv = ["localize", "--circuit", str(tmp / "mutant.qasm"), "--reference", str(tmp / "ref.qasm"), "--out", str(out)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv + flags)
    if code != cli.EXIT_OK:
        return f"exit {code}: {err.getvalue().strip()}"
    report = json.loads(out.read_text())
    del report["wall_seconds"], report["manifest"]["timestamp"], report["manifest"]["inputs"]
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def main() -> None:
    mutants = []
    for fam, n in CORPUS + WIDE:
        ref = build_benchmark(fam, n)
        suite = generate_suite(ref)
        for rec in inject_faults(ref, seed=INJECTION_SEEDS[fam], per_group=1, suite=suite):
            mutants.append((f"{fam}{n}/{rec.group}", rec.mutant, suite, ref))
    for name, cfg in configs().items():
        for search in (repair, random_search):
            for tag, mutant, suite, _ in mutants:
                print(f"{name} {search.__name__} {tag} {digest(search, mutant, suite, cfg)}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, flags in (("exact", []), ("sampled,oracle_seed=3", ["--shots-mode", "sampled", "--seed", "3"])):
            for tag, mutant, _, ref in mutants:
                print(f"{name} localize {tag} {localize_digest(mutant, ref, flags, Path(tmp))}", flush=True)


if __name__ == "__main__":
    main()
