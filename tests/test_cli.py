"""CLI behavior: exit codes, report JSON shape, side files, determinism."""
import json

import pytest

from qrep.circuit import GateApp, GateKind, build_circuit, insert_gate, replace_gate
from qrep.cli import EXIT_ERROR, EXIT_NOT_FIXED, EXIT_OK, main
from qrep.qasm import emit_qasm


@pytest.fixture()
def circuits(tmp_path, bell):
    """bell reference, a removal-repairable mutant, and a hard mutant."""
    ref = tmp_path / "ref.qasm"
    ref.write_text(emit_qasm(bell))
    easy = tmp_path / "easy.qasm"
    easy.write_text(emit_qasm(insert_gate(bell, 2, GateApp(GateKind.Z, (1,)))))
    hard = tmp_path / "hard.qasm"
    hard.write_text(emit_qasm(replace_gate(bell, 0, GateApp(GateKind.X, (0,)))))
    return {"ref": str(ref), "easy": str(easy), "hard": str(hard), "dir": tmp_path}


def run(argv):
    return main(argv)


# -------------------------------------------------------------- exit codes

def test_repair_success_exit_zero(circuits, tmp_path):
    out = tmp_path / "report.json"
    code = run([
        "repair", "--circuit", circuits["easy"], "--reference", circuits["ref"],
        "--budget-evals", "100", "--out", str(out),
    ])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["status"] == "Repaired"
    side = tmp_path / "report.repaired.qasm"
    assert side.exists()
    assert report["repaired_qasm"] == side.read_text()


def test_repair_not_fixed_exit_two(circuits, tmp_path):
    out = tmp_path / "report.json"
    code = run([
        "repair", "--circuit", circuits["hard"], "--reference", circuits["ref"],
        "--budget-evals", "4", "--out", str(out),
    ])
    assert code == EXIT_NOT_FIXED
    report = json.loads(out.read_text())
    assert report["status"] == "NotFixed"
    assert not (tmp_path / "report.repaired.qasm").exists()


def test_usage_error_exit_one(circuits):
    # --iterations 0 violates the >= 1 contract
    code = run([
        "repair", "--circuit", circuits["easy"], "--reference", circuits["ref"],
        "--budget-evals", "10", "--iterations", "0",
    ])
    assert code == EXIT_ERROR


def test_missing_budget_exit_one(circuits):
    code = run(["repair", "--circuit", circuits["easy"], "--reference", circuits["ref"]])
    assert code == EXIT_ERROR


def test_both_budgets_exit_one(circuits):
    code = run([
        "repair", "--circuit", circuits["easy"], "--reference", circuits["ref"],
        "--budget-evals", "10", "--budget-seconds", "5",
    ])
    assert code == EXIT_ERROR


def test_parse_error_exit_one(tmp_path, circuits, capsys):
    bad = tmp_path / "bad.qasm"
    bad.write_text("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nbogus q[0];\n")
    code = run([
        "repair", "--circuit", str(bad), "--reference", circuits["ref"],
        "--budget-evals", "10",
    ])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert "line 4" in err


def test_missing_file_exit_one(circuits):
    code = run([
        "repair", "--circuit", "/nonexistent.qasm", "--reference", circuits["ref"],
        "--budget-evals", "10",
    ])
    assert code == EXIT_ERROR


def test_passing_circuit_exit_one(circuits, capsys):
    # nothing to repair: engine refuses rather than reporting a sham fix
    code = run([
        "repair", "--circuit", circuits["ref"], "--reference", circuits["ref"],
        "--budget-evals", "10",
    ])
    assert code == EXIT_ERROR
    assert "nothing to repair" in capsys.readouterr().err


# ------------------------------------------------------------ report shape

def test_report_manifest_and_keys(circuits, tmp_path):
    out = tmp_path / "report.json"
    run([
        "repair", "--circuit", circuits["easy"], "--reference", circuits["ref"],
        "--budget-evals", "50", "--seed", "3", "--out", str(out),
    ])
    report = json.loads(out.read_text())
    assert list(report)[:1] == ["manifest"]
    man = report["manifest"]
    assert man["subcommand"] == "repair"
    assert man["seed"] == 3
    assert man["inputs"]["circuit"] == circuits["easy"]
    assert man["config"]["budget_evals"] == 50
    assert "timestamp" in man and "tool_version" in man
    for key in ("status", "best_patches", "ranking", "improvement_pct",
                "fault_percentile", "evals_used", "wall_seconds", "config"):
        assert key in report


def test_report_to_stdout_when_no_out(circuits, capsys):
    code = run([
        "repair", "--circuit", circuits["easy"], "--reference", circuits["ref"],
        "--budget-evals", "50",
    ])
    assert code == EXIT_OK
    printed = json.loads(capsys.readouterr().out)
    assert printed["status"] == "Repaired"


def test_expected_json_suite(circuits, tmp_path, capsys):
    # hand-written expectations replace the reference circuit
    expected = {
        "Z:00": {"00": 0.5, "11": 0.5},
        "X:00": {"00": 0.5, "11": 0.5},
    }
    exp_path = tmp_path / "expected.json"
    exp_path.write_text(json.dumps(expected))
    code = run([
        "repair", "--circuit", circuits["easy"], "--expected", str(exp_path),
        "--budget-evals", "100",
    ])
    assert code in (EXIT_OK, EXIT_NOT_FIXED)
    json.loads(capsys.readouterr().out)


def test_fault_gate_flag_yields_percentile(circuits, tmp_path):
    out = tmp_path / "report.json"
    run([
        "repair", "--circuit", circuits["hard"], "--reference", circuits["ref"],
        "--budget-evals", "4", "--fault-gate", "0:x:0", "--out", str(out),
    ])
    report = json.loads(out.read_text())
    assert report["fault_percentile"] is not None
    assert 0.0 <= report["fault_percentile"] <= 100.0


def test_bad_fault_gate_flag(circuits):
    code = run([
        "repair", "--circuit", circuits["hard"], "--reference", circuits["ref"],
        "--budget-evals", "4", "--fault-gate", "zero-x",
    ])
    assert code == EXIT_ERROR


# ---------------------------------------------------------------- localize

def test_localize_ranking(circuits, capsys):
    code = run(["localize", "--circuit", circuits["hard"], "--reference", circuits["ref"]])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["manifest"]["subcommand"] == "localize"
    assert payload["baseline_fitness"] > 0
    assert len(payload["ranking"]) == 2  # x and cx
    assert payload["evals_used"] == 3  # baseline + one removal each
    percs = [r["percentile"] for r in payload["ranking"]]
    assert percs == [0.0, 100.0]


def test_localize_short_circuit_emits_fix(circuits, tmp_path):
    out = tmp_path / "loc.json"
    code = run([
        "localize", "--circuit", circuits["easy"], "--reference", circuits["ref"],
        "--out", str(out),
    ])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["repaired_by_removing"] == "2:z:1"
    assert (tmp_path / "loc.repaired.qasm").exists()


def test_localize_zero_gate_repair_emits_fix(tmp_path):
    ref = tmp_path / "empty.qasm"
    ref.write_text(emit_qasm(build_circuit(1, [])))
    broken = tmp_path / "x.qasm"
    broken.write_text(emit_qasm(build_circuit(1, [("x", (0,))])))
    out = tmp_path / "loc.json"
    code = run(["localize", "--circuit", str(broken), "--reference", str(ref), "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["repaired_by_removing"] == "0:x:0"
    assert payload["repaired_qasm"] == ref.read_text()
    assert (tmp_path / "loc.repaired.qasm").read_text() == ref.read_text()


# ------------------------------------------------------------------ mutate

def test_mutate_corpus_and_manifest(circuits, tmp_path):
    out_dir = tmp_path / "mutants"
    code = run([
        "mutate", "--circuit", circuits["ref"], "--per-group", "2",
        "--seed", "7", "--out-dir", str(out_dir),
    ])
    assert code == EXIT_OK
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["manifest"]["subcommand"] == "mutate"
    entries = manifest["mutants"]
    assert [e["group"] for e in entries] == ["add", "add", "remove", "remove", "replace", "replace"]
    for e in entries:
        assert (out_dir / e["file"]).exists()
        assert e["failed_count"] >= 1


def test_mutate_deterministic(circuits, tmp_path):
    d1, d2 = tmp_path / "m1", tmp_path / "m2"
    for d in (d1, d2):
        run(["mutate", "--circuit", circuits["ref"], "--per-group", "2",
             "--seed", "5", "--out-dir", str(d)])
    m1 = json.loads((d1 / "manifest.json").read_text())["mutants"]
    m2 = json.loads((d2 / "manifest.json").read_text())["mutants"]
    assert m1 == m2
    for e in m1:
        assert (d1 / e["file"]).read_text() == (d2 / e["file"]).read_text()


# ------------------------------------------------------------- baseline-rs

def test_baseline_rs_mirrors_repair(circuits, tmp_path):
    out = tmp_path / "rs.json"
    code = run([
        "baseline-rs", "--circuit", circuits["hard"], "--reference", circuits["ref"],
        "--budget-evals", "2000", "--seed", "0", "--out", str(out),
    ])
    report = json.loads(out.read_text())
    assert report["manifest"]["subcommand"] == "baseline-rs"
    assert report["status"] in ("Repaired", "NotFixed")
    assert code == (EXIT_OK if report["status"] == "Repaired" else EXIT_NOT_FIXED)
    assert report["evals_used"] <= 2000


def test_no_subcommand_exit_one():
    assert run([]) == EXIT_ERROR


# -------------------------------------------------------------- bad inputs

def _one_error_line(err: str) -> bool:
    lines = [ln for ln in err.splitlines() if "error:" in ln]
    return len(lines) == 1 and "Traceback" not in err


@pytest.mark.parametrize("sub", ["repair", "baseline-rs", "mutate"])
@pytest.mark.parametrize("catalog", ["foo", "measure", "h,barrier", ","])
def test_bad_catalog_rejected_at_parse_time(circuits, tmp_path, capsys, sub, catalog):
    if sub == "mutate":
        argv = ["mutate", "--circuit", circuits["ref"], "--per-group", "1",
                "--out-dir", str(tmp_path / "m")]
    else:
        argv = [sub, "--circuit", circuits["hard"], "--reference", circuits["ref"],
                "--budget-evals", "4"]
    code = run([*argv, "--catalog", catalog])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert _one_error_line(err)
    assert "--catalog" in err


@pytest.mark.parametrize(
    "table,names",
    [
        ([{"Z:00": {"00": 1.0}}], None),
        ({}, None),
        ({"Z:0a": {"00": 1.0}}, "Z:0a"),
        ({"Z:00": {"00": "half", "11": 0.5}}, "Z:00"),
        ({"Z:00": {"00": None}}, "Z:00"),
        ({"Z:00": {"00": True}}, "Z:00"),
        ({"Z:00": {"00": float("nan")}}, "Z:00"),
        ({"Z:00": [1.0, 0.0, 0.0, 0.0]}, "Z:00"),
        ({"Z:00": {"00": 0.5, "11": 0.499}}, "Z:00"),
        ({"Z:00": {"00": 1.5, "11": -0.5}}, "Z:00"),
        ({"Z:00": {"0x": 1.0}}, "Z:00"),
        ({"Z:" + "0" * 40: {"0" * 40: 1.0}}, "Z:" + "0" * 40),
    ],
)
def test_bad_expected_table_is_one_line_error(circuits, tmp_path, capsys, table, names):
    exp_path = tmp_path / "expected.json"
    exp_path.write_text(json.dumps(table))
    code = run([
        "repair", "--circuit", circuits["easy"], "--expected", str(exp_path),
        "--budget-evals", "10",
    ])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert _one_error_line(err)
    assert err.startswith("qrep: error:")
    if names is not None:
        assert repr(names) in err



@pytest.mark.parametrize("flag", ["--tau-fail", "--eps-zero", "--budget-seconds", "--opt-tol"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_float_flag_rejected(circuits, capsys, flag, value):
    budget = [] if flag == "--budget-seconds" else ["--budget-evals", "10"]
    code = run([
        "repair", "--circuit", circuits["easy"], "--reference", circuits["ref"],
        *budget, flag, value,
    ])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert _one_error_line(err)
    assert flag in err and "finite" in err


@pytest.mark.parametrize("flag", ["--circuit", "--reference", "--expected"])
def test_non_utf8_input_file_is_one_line_error(circuits, tmp_path, capsys, flag):
    binary = tmp_path / "binary.dat"
    binary.write_bytes(b"OPENQASM 2.0;\n\xff\xfe\x00\x81")
    files = {"--circuit": circuits["easy"], "--reference": circuits["ref"], flag: str(binary)}
    if flag == "--expected":
        del files["--reference"]
    argv = ["repair", "--budget-evals", "10"]
    for name, path in files.items():
        argv += [name, path]
    code = run(argv)
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert _one_error_line(err)
    assert err.startswith("qrep: error:")
    assert str(binary) in err and "UTF-8" in err


@pytest.mark.parametrize(
    "flag,text",
    [
        ("--circuit", 'OPENQASM 2.0;\nqreg q[2];\nrx(' + "(" * 3000 + "1" + ")" * 3000 + ") q[0];\n"),
        ("--circuit", 'OPENQASM 2.0;\nqreg q[2];\nrx(' + "-" * 3000 + "1) q[0];\n"),
        ("--reference", 'OPENQASM 2.0;\nqreg q[2];\nrz(' + "+-(" * 1000 + "1" + ")" * 1000 + ") q[1];\n"),
        ("--expected", "[" * 100000),
    ],
)
def test_deeply_nested_input_is_one_line_error(circuits, tmp_path, capsys, flag, text):
    deep = tmp_path / "deep.txt"
    deep.write_text(text)
    files = {"--circuit": circuits["easy"], "--reference": circuits["ref"], flag: str(deep)}
    if flag == "--expected":
        del files["--reference"]
    argv = ["repair", "--budget-evals", "10"]
    for name, path in files.items():
        argv += [name, path]
    code = run(argv)
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert _one_error_line(err)
    assert err.startswith("qrep: error:")
    assert "nested" in err
