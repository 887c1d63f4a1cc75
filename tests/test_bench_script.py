"""Tests for the scripts under scripts/: every timed layer of bench.py runs
and times the work its facts name, and run_benchmark.py imports qrep from
``PYTHONPATH``."""
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("qrep_bench_script", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench.layers()


def test_every_bench_layer_runs_once(layers):
    assert {
        "gate_1q_q4", "gate_1q_q6", "run_all_bases_qft8", "measure_qft4", "measure_qft4_z", "measure_qft6",
        "localize_grover3", "localize_qft4", "localize_dj6", "sweep_run_dj6", "run_fixed_dj4",
        "start_grover3_add", "start_qft4_replace",
        "edit_grover3", "edit_dj6", "inject_grover3", "inject_dj6", "inject_qft4_z",
        "parse_grover3", "report_grover3",
        "suite_dj6", "suite_table_qft4", "suite_table_dj6", "suite_table_qft6", "trial_ry_wstate4",
        "trial_u_dj4", "repair_fixed_qft4", "probe_ry_wstate4", "probe_qft10_8in",
    } <= set(layers)
    for name, (fn, facts) in layers.items():
        fn()
        assert isinstance(facts, dict), name
    assert layers["run_all_bases_qft8"][1]["qft10_peak_mib"] > 0
    assert layers["run_all_bases_qft8"][1]["minor_faults_per_call_resumed"] >= 0
    assert layers["probe_ry_wstate4"][1]["lone_peak_mib_qft10"] > 0
    # the timed gate acts on the simulator's own 6-qubit state of 64 inputs
    fn, _ = layers["gate_1q_q6"]
    assert np.isclose(np.linalg.norm(fn()), 8.0)


def test_bench_layers_time_the_work_their_facts_name(layers):
    """Each layer, run again after every layer was built, does the work its
    own facts were taken from: no later layer rebinds what it reads."""
    # a cache that keeps the state after every gate, written when the layer
    # was built, resumes from the whole circuit, so the measure_* layers
    # time the measurement alone
    for name in ("measure_qft4", "measure_qft4_z", "measure_qft6"):
        _, facts = layers[name]
        assert facts["stride"] == 1 and facts["states"] == facts["gates"] > 0, name
    # each call builds a run and draws its baseline and sweep afresh: the
    # grover3 sweep stops at the added gate, the qft4 sweep removes every gate
    for name, full in (("start_grover3_add", False), ("start_qft4_replace", True)):
        fn, facts = layers[name]
        loc = fn()
        ranking = hashlib.sha256(json.dumps(loc.table.records()).encode()).hexdigest()
        assert (1 + len(loc.removal_fitness), ranking) == (facts["evals"], facts["ranking_sha256"]), name
        assert (facts["evals"] == 1 + facts["gates"]) == full == (facts["repaired_by_removing"] is None), name
    for name in ("trial_ry_wstate4", "trial_u_dj4"):
        fn, facts = layers[name]
        assert fn() == (facts["best"], facts["probes"], facts["repaired"]), name
    for name in ("repair_fixed_qft4", "random_search_fixed_qft4"):
        fn, facts = layers[name]
        rep = fn()
        rows = hashlib.sha256(json.dumps([rep.best_patches, rep.ranking], sort_keys=True).encode()).hexdigest()
        assert (rep.status, rep.evals_used, rows) == (facts["status"], facts["evals"], facts["rows_sha256"]), name
    for name in ("probe_ry_wstate4", "probe_qft10_8in"):
        fn, facts = layers[name]
        assert fn().value == facts["value"], name
    assert layers["probe_qft10_8in"][1]["inputs"] == 8
    # each call draws the whole sweep again from the run built once
    fn, facts = layers["sweep_run_dj6"]
    values = fn()
    assert len(values) == facts["evals"] == facts["gates"]
    assert hashlib.sha256(repr(values).encode()).hexdigest() == facts["values_sha256"]
    # one stacked chunk of fixed patches, drawn again from the run built once
    fn, facts = layers["run_fixed_dj4"]
    values = fn()
    assert len(values) == facts["edits"] == 13
    assert hashlib.sha256(repr(values).encode()).hexdigest() == facts["values_sha256"]
    fn, facts = layers["report_grover3"]
    report = json.loads(fn())
    assert (report["status"], report["evals_used"], len(report["ranking"])) == (
        facts["status"], facts["evals"], facts["ranking_rows"]
    )


@pytest.mark.parametrize("name", ["run_benchmark.py", "export_references.py"])
def test_script_imports_qrep_from_pythonpath(tmp_path, name):
    """PYTHONPATH naming another checkout's src wins over this checkout's."""
    shutil.copytree(ROOT / "src" / "qrep", tmp_path / "qrep", ignore=shutil.ignore_patterns("__pycache__"))
    script = ROOT / "scripts" / name
    code = f"import runpy, sys; runpy.run_path({str(script)!r}, run_name='x'); print(sys.modules['qrep'].__file__)"
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    assert Path(out.stdout.strip()).resolve().is_relative_to(tmp_path.resolve())
