"""Smoke test for scripts/bench.py: every timed layer still runs."""
import importlib.util
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"


def test_every_bench_layer_runs_once():
    spec = importlib.util.spec_from_file_location("qrep_bench_script", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    layers = bench.layers()
    assert {
        "gate_1q_q4", "gate_1q_q6", "run_all_bases_qft8", "localize_dj6",
        "edit_grover3", "edit_dj6", "inject_grover3", "inject_dj6", "parse_grover3", "report_grover3",
        "suite_dj6", "suite_table_qft4", "suite_table_dj6", "suite_table_qft6",
    } <= set(layers)
    for name, (fn, facts) in layers.items():
        fn()
        assert isinstance(facts, dict), name
    # the timed gate acts on the simulator's own 6-qubit state of 64 inputs
    fn, _ = layers["gate_1q_q6"]
    assert np.isclose(np.linalg.norm(fn()), 8.0)
