"""Write the ten standard reference circuits as OpenQASM files.

Handy for driving the CLI by hand:

    python scripts/export_references.py --out-dir refs/
    qrep mutate --circuit refs/ghz5.qasm --per-group 1 --seed 0 --out-dir mutants/
    qrep repair --circuit mutants/mutant_add_0.qasm --reference refs/ghz5.qasm --budget-evals 5000

qrep is imported from ``PYTHONPATH`` when it names a checkout, else from
this one.
"""
import argparse
import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from qrep.benchmarks import standard_catalog
from qrep.qasm import emit_qasm


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out-dir", default="refs")
    args = ap.parse_args(argv)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, circuit in standard_catalog().items():
        path = out / f"{name}.qasm"
        path.write_text(emit_qasm(circuit))
        print(f"{path}  ({circuit.num_qubits} qubits, {len(circuit.gates)} gates)")


if __name__ == "__main__":
    main()
