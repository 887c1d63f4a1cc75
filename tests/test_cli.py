"""CLI behavior: exit codes, report JSON shape, side files, determinism."""
import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from qrep.benchmarks import build_benchmark
from qrep.circuit import GateApp, GateKind, build_circuit, insert_gate, replace_gate
from qrep.cli import EXIT_ERROR, EXIT_NOT_FIXED, EXIT_OK, _config_from_args, _oracle_from_args, build_parser, main
from qrep import testkit
from qrep.engine import RepairConfig
from qrep.localizer import localize, removals
from qrep.patcher import catalog_kinds, inject_faults
from qrep.qasm import emit_qasm
from qrep.testkit import OracleConfig, edit_fitness, fitness, generate_suite


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


_OVERFLOWING_U = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nu(0.5,1e308,1e308) q[0];\ncx q[0],q[1];\n'


@pytest.mark.parametrize("role", ["--circuit", "--reference"])
def test_a_u_whose_phi_plus_lambda_overflows_is_one_line_error(tmp_path, circuits, capsys, role):
    """Each angle of ``u(0.5,1e308,1e308)`` is finite, but phi + lambda is
    not, and it would simulate to NaN rows that fail no case: as the
    circuit it would pass the whole suite, and as the reference every
    circuit would. Either way it is refused where it is parsed."""
    bad = tmp_path / "overflow.qasm"
    bad.write_text(_OVERFLOWING_U)
    other = "--reference" if role == "--circuit" else "--circuit"
    code = run(["repair", role, str(bad), other, circuits["hard"], "--budget-evals", "10"])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err == "qrep: error: line 4, column 1: non-finite phi + lambda inf on u\n"


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


@pytest.mark.parametrize("sub", ["repair", "baseline-rs", "localize"])
@pytest.mark.parametrize("out", ["missing/r.json", "."])
def test_an_out_that_cannot_be_written_is_refused_before_the_search(circuits, tmp_path, capsys, monkeypatch, sub, out):
    """An ``--out`` whose directory does not exist, or that is a directory,
    is one error line and exit 1 before the suite is loaded: no subcommand
    calls the engine, and nothing is created."""
    def searched(*args, **kwargs):
        raise AssertionError("the search ran")

    for name in ("repair", "random_search", "localize", "_load_suite"):
        monkeypatch.setattr(f"qrep.cli.{name}", searched)
    argv = [sub, "--circuit", circuits["hard"], "--reference", circuits["ref"], "--out", str(tmp_path / out)]
    argv += [] if sub == "localize" else ["--budget-evals", "10"]
    before = sorted(tmp_path.rglob("*"))
    assert run(argv) == EXIT_ERROR
    err = capsys.readouterr().err
    assert _one_error_line(err) and err.startswith("qrep: error: argument --out: ")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("sub", ["repair", "baseline-rs", "localize"])
def test_a_run_that_fails_after_its_out_is_checked_leaves_no_report(circuits, tmp_path, sub):
    # the --out check creates nothing, so a passing circuit refused later leaves no empty report
    out = tmp_path / "report.json"
    argv = [sub, "--circuit", circuits["ref"], "--reference", circuits["ref"], "--out", str(out)]
    argv += [] if sub == "localize" else ["--budget-evals", "10"]
    assert run(argv) == EXIT_ERROR
    assert not out.exists()


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


@pytest.mark.parametrize("sub", ["repair", "baseline-rs"])
@pytest.mark.parametrize("fault", ["0:h:0", "99:h:0"])
def test_fault_gate_naming_no_gate_is_one_line_error(circuits, tmp_path, capsys, sub, fault):
    out = tmp_path / "report.json"
    code = run([
        sub, "--circuit", circuits["hard"], "--reference", circuits["ref"],  # gates x, cx
        "--budget-evals", "4", "--fault-gate", fault, "--out", str(out),
    ])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert _one_error_line(err)
    assert err == f"qrep: error: fault gate {fault} names no gate of the circuit\n"
    assert not out.exists()


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


@pytest.mark.parametrize("family,n,seed,group", [("grover", 3, 3, "add"), ("qft", 4, 5, "replace")])
def test_localize_draws_its_baseline_with_the_first_removals(tmp_path, monkeypatch, family, n, seed, group):
    """``qrep localize`` scores its baseline as the first score of one
    ``edit_fitness`` stream, simulated in one chunk with the first
    removals, and reports what scoring the baseline alone before the sweep
    gives: for a mutant the sweep repairs midway (grover3's added gate)
    and one it ranks in full (qft4's replaced gate)."""
    ref = build_benchmark(family, n)
    ts = generate_suite(ref)
    mutant = inject_faults(ref, seed=seed, per_group=1, groups=(group,), suite=ts)[0].mutant
    (tmp_path / "ref.qasm").write_text(emit_qasm(ref))
    (tmp_path / "mutant.qasm").write_text(emit_qasm(mutant))
    blocks, observed = [], testkit._observed

    def counted(c, ts, prefixes, edits=None, out=None):
        blocks.append(1 if edits is None else len(edits))
        return observed(c, ts, prefixes, edits, out)

    monkeypatch.setattr(testkit, "_observed", counted)
    out = tmp_path / "loc.json"
    code = run(["localize", "--circuit", str(tmp_path / "mutant.qasm"), "--reference", str(tmp_path / "ref.qasm"), "--out", str(out)])
    monkeypatch.undo()
    payload = json.loads(out.read_text())
    baseline = fitness(mutant, ts)
    want = localize(mutant, baseline, edit_fitness(mutant, ts, removals(mutant)))
    assert code == EXIT_OK and blocks[0] == min(1 + len(mutant.gates), ts.prefixes(mutant).chunk) > 1
    assert payload["baseline_fitness"] == baseline.value
    assert payload["ranking"] == want.table.records()
    removed = want.repaired_by_removing
    assert payload["repaired_by_removing"] == (None if removed is None else str(removed))
    assert (removed is None) == (group == "replace")
    assert payload["evals_used"] == len(want.removal_fitness) + 1
    if removed is None:  # the full sweep: every simulated circuit is charged
        assert sum(blocks) == payload["evals_used"]


# --------------------------------------------------------- report encoding

def test_every_report_keeps_json_indent_2_bytes(circuits, tmp_path, capsys):
    ref = build_benchmark("grover", 3)
    rec = inject_faults(ref, seed=3, per_group=1, suite=generate_suite(ref))[0]
    circuits["grover"] = str(tmp_path / "grover.qasm")
    (tmp_path / "grover.qasm").write_text(emit_qasm(rec.mutant))
    (tmp_path / "grover_ref.qasm").write_text(emit_qasm(ref))
    table = tmp_path / "bell.expected.json"
    table.write_text(json.dumps({"Z:00": {"00": 0.5, "11": 0.5}, "X:00": {"00": 0.5, "11": 0.5}}))
    bell_suites = [("--reference", circuits["ref"]), ("--expected", str(table))]
    inputs = {
        "easy": ("2:z:1", bell_suites),
        "hard": ("0:x:0", bell_suites),
        "grover": (str(rec.fault_gate), [("--reference", str(tmp_path / "grover_ref.qasm"))]),
    }
    texts = []
    for name, (fault, suites) in inputs.items():
        for flag, path in suites:
            args = ["--circuit", circuits[name], flag, path]
            for sub in ("repair", "baseline-rs"):
                out = tmp_path / f"{name}-{sub}.json"
                run([sub, *args, "--budget-evals", "60", "--fault-gate", fault, "--out", str(out)])
                texts.append(out.read_text())
            run(["localize", *args, "--out", str(tmp_path / "loc.json")])
            texts.append((tmp_path / "loc.json").read_text())
        run(["mutate", "--circuit", circuits[name], "--per-group", "1", "--out-dir", str(tmp_path / name)])
        texts.append((tmp_path / name / "manifest.json").read_text())
    run(["localize", "--circuit", circuits["easy"], "--reference", circuits["ref"]])
    texts.append(capsys.readouterr().out)
    assert len(texts) == 19  # 3 reports for each of 5 inputs, 3 manifests, stdout
    for text in texts:
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


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


@pytest.mark.parametrize(
    "sub, zeros",
    [("repair", 30), ("baseline-rs", 30), ("repair", 400), ("baseline-rs", 400)],
    ids=["repair", "baseline-rs", "repair-10**400", "baseline-rs-10**400"],
)
def test_count_budget_beyond_sys_maxsize_ends_in_a_report(circuits, tmp_path, sub, zeros):
    # both budgets are above sys.maxsize, which no islice or slice can take as a
    # bound, and 10**400 is above the largest float too
    out = tmp_path / "report.json"
    code = run([
        sub, "--circuit", circuits["hard"], "--reference", circuits["ref"],
        "--budget-evals", "1" + "0" * zeros, "--out", str(out),
    ])
    report = json.loads(out.read_text())
    assert report["manifest"]["config"]["budget_evals"] == 10**zeros
    assert code == (EXIT_OK if report["status"] == "Repaired" else EXIT_NOT_FIXED)


@pytest.mark.parametrize("sub", ["repair", "baseline-rs"])
def test_seconds_budget_spent_before_the_baseline_ends_in_a_report(circuits, tmp_path, slow_prefix_build, sub):
    # building the prefix cache spends the one-second budget before the baseline
    out = tmp_path / "report.json"
    code = run([
        sub, "--circuit", circuits["hard"], "--reference", circuits["ref"],
        "--budget-seconds", "1", "--out", str(out),
    ])
    report = json.loads(out.read_text())
    assert (code, report["status"], report["evals_used"]) == (EXIT_NOT_FIXED, "NotFixed", 1)


@pytest.mark.parametrize("sub", ["repair", "baseline-rs"])
def test_duplicated_catalog_gate_is_tried_once(circuits, tmp_path, sub):
    reports = []
    for catalog in ("x,x,h", "x,h"):
        out = tmp_path / f"{catalog}.json"
        run([
            sub, "--circuit", circuits["hard"], "--reference", circuits["ref"],
            "--budget-evals", "200", "--catalog", catalog, "--out", str(out),
        ])
        reports.append(json.loads(out.read_text()))
    assert reports[0]["status"] == reports[1]["status"] == "Repaired"
    assert reports[0]["evals_used"] == reports[1]["evals_used"]


def test_no_subcommand_exit_one():
    assert run([]) == EXIT_ERROR


def test_usage_error_is_exactly_one_line(circuits, capsys):
    code = run([
        "repair", "--circuit", circuits["easy"], "--reference", circuits["ref"],
        "--budget-evals", "0",
    ])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == "qrep: error: argument --budget-evals: budget_evals must be >= 1, got 0\n"


def test_missing_subcommand_is_exactly_one_line(capsys):
    assert run([]) == EXIT_ERROR
    assert capsys.readouterr().err == "qrep: error: the following arguments are required: command\n"


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_bare_flags_parse_to_the_config_defaults():
    inputs = ["--circuit", "bad.qasm", "--reference", "good.qasm"]
    for sub in ("repair", "baseline-rs"):
        args = build_parser().parse_args([sub, *inputs, "--budget-evals", "7"])
        assert _config_from_args(args) == RepairConfig(budget_evals=7)
    assert _oracle_from_args(build_parser().parse_args(["localize", *inputs])) == OracleConfig()


@pytest.mark.parametrize("flag,printed", [("--version", "qrep "), ("--help", "usage: qrep")])
def test_help_and_version_still_print(capsys, flag, printed):
    assert run([flag]) == EXIT_OK
    out = capsys.readouterr()
    assert out.out.startswith(printed) and out.err == ""


# -------------------------------------------------------------- bad inputs

def _one_error_line(err: str) -> bool:
    lines = [ln for ln in err.splitlines() if "error:" in ln]
    return len(lines) == 1 and "Traceback" not in err


@pytest.mark.parametrize("sub", ["repair", "localize", "mutate"])
def test_out_of_memory_is_one_line_error(circuits, tmp_path, capsys, monkeypatch, sub):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 64.0 GiB for an array")

    # repair and localize build the suite in the CLI, mutate in inject_faults
    monkeypatch.setattr("qrep.cli.generate_suite", no_memory)
    monkeypatch.setattr("qrep.patcher.generate_suite", no_memory)
    if sub == "mutate":
        argv = ["mutate", "--circuit", circuits["ref"], "--per-group", "1", "--out-dir", str(tmp_path / "m")]
    else:
        argv = [sub, "--circuit", circuits["easy"], "--reference", circuits["ref"]]
        argv += ["--budget-evals", "10"] if sub == "repair" else []
    assert run(argv) == EXIT_ERROR
    err = capsys.readouterr().err
    assert _one_error_line(err)
    assert err == "qrep: error: out of memory: Unable to allocate 64.0 GiB for an array\n"


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


def _catalog_names(text: str) -> tuple[str, ...]:
    # --catalog's text: comma-separated names, blanks around and between dropped
    return tuple(n.strip() for n in text.split(",") if n.strip())


# each (subcommand, flag) that fills a config field, or inject_faults'
# catalog or count, with the conversion of its text
_FILLING_FLAGS = {
    ("repair", "--budget-evals"): int,
    ("repair", "--budget-seconds"): float,
    ("repair", "--iterations"): int,
    ("repair", "--top-k"): int,
    ("repair", "--opt-max-evals"): int,
    ("repair", "--opt-tol"): float,
    ("repair", "--shots"): int,
    ("repair", "--tau-fail"): float,
    ("repair", "--eps-zero"): float,
    ("repair", "--seed"): int,
    ("repair", "--catalog"): _catalog_names,
    ("mutate", "--catalog"): _catalog_names,
    ("mutate", "--per-group"): int,
}
_FLAG_TEXT = st.one_of(
    st.sampled_from(["0", "-1", str(2**63), str(2**63 - 1), "nan", "inf", "-inf", "1e-300", "1e400", "2.5", "",
                     " 7 ", ",", "foo", "h,,x", "h, cx", "x,measure", "u"]),
    st.integers().map(str),
    st.floats().map(repr),
    # not "--": argparse reads "--seed=--" as a missing value
    st.text(alphabet="hxcu,-.0123456789e ", max_size=6).filter(lambda t: t != "--"),
)


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _refusal(sub: str, flag: str, value) -> str | None:
    """The message with which what the flag fills refuses ``value``, every
    other flag at its default; None when it takes the value."""
    try:
        if flag == "--per-group":
            inject_faults(build_circuit(1, [("h", 0)]), 0, value, groups=())
        elif sub == "mutate":
            catalog_kinds(value)
        else:
            args = build_parser().parse_args(["repair", "--circuit", "c", "--reference", "r", "--budget-evals", "1"])
            if flag == "--budget-seconds":
                args.budget_evals = None
            setattr(args, _dest(flag), value)
            _config_from_args(args)
    except ValueError as e:
        return str(e)
    return None


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(_FILLING_FLAGS)), _FLAG_TEXT)
def test_each_flag_is_refused_exactly_when_its_config_refuses_it(sub_flag, text):
    """A flag is held to the rule of what it fills, kept once: parsing
    refuses a value exactly when that config (or catalog_kinds, or
    inject_faults for --per-group) refuses the converted value, as one
    line giving the config's own message."""
    sub, flag = sub_flag
    argv = [sub, "--circuit", "c.qasm"]
    if sub == "mutate":
        argv += ["--out-dir", "m"] + ([] if flag == "--per-group" else ["--per-group", "1"])
    else:
        argv += ["--reference", "r.qasm"]
        argv += [] if flag in ("--budget-evals", "--budget-seconds") else ["--budget-evals", "1"]
    argv.append(f"{flag}={text}")
    convert = _FILLING_FLAGS[sub_flag]
    try:
        value = convert(text)
    except ValueError as e:  # Python's own message, such as "invalid literal for int()"
        expected = str(e)
    else:
        expected = _refusal(sub, flag, value)
    if expected is None:
        assert getattr(build_parser().parse_args(argv), _dest(flag)) == value
        return
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exited:
        build_parser().parse_args(argv)
    assert exited.value.code == EXIT_ERROR
    assert err.getvalue() == f"qrep: error: argument {flag}: {expected}\n"


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


@pytest.mark.parametrize("sub", ["repair", "localize", "mutate"])
def test_dashdash_as_flag_value_is_one_line_error(circuits, tmp_path, capsys, sub):
    # argparse before 3.12 drops the value of "--seed=--" and hands on []
    if sub == "mutate":
        argv = ["mutate", "--circuit", circuits["ref"], "--per-group", "1", "--out-dir", str(tmp_path / "m")]
    else:
        argv = [sub, "--circuit", circuits["hard"], "--reference", circuits["ref"]]
        argv += ["--budget-evals", "4"] if sub == "repair" else []
    code = run([*argv, "--seed=--"])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert _one_error_line(err)
    assert "--seed" in err


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


@pytest.mark.parametrize(
    "flag,text",
    [
        ("--circuit", "OPENQASM 2.0;\nqreg q[" + "1" * 5000 + "];\n"),
        ("--circuit", "OPENQASM 2.0;\nqreg q[2];\nh q[" + "1" * 5000 + "];\n"),
        ("--reference", "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[" + "0" * 5000 + "];\n"),
        ("--expected", '{"Z:00": {"00": 1' + "0" * 5000 + "}}"),
    ],
    ids=["qreg-size", "qubit-index", "reference-index", "expected-number"],
)
def test_overlong_integer_is_one_line_error(circuits, tmp_path, capsys, flag, text):
    long = tmp_path / "long.txt"
    long.write_text(text)
    files = {"--circuit": circuits["easy"], "--reference": circuits["ref"], flag: str(long)}
    if flag == "--expected":
        del files["--reference"]
    argv = ["localize"]
    for name, path in files.items():
        argv += [name, path]
    code = run(argv)
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert _one_error_line(err)
    assert err.startswith("qrep: error:")
    assert "digits" in err


@pytest.mark.parametrize("sub", ["repair", "localize"])
@pytest.mark.parametrize("value", ["1" + "0" * 400, "-1" + "0" * 400], ids=["huge", "huge-negative"])
def test_probability_beyond_float_range_is_one_line_error(circuits, tmp_path, capsys, sub, value):
    exp_path = tmp_path / "expected.json"
    exp_path.write_text('{"Z:00": {"00": ' + value + "}}")
    budget = ["--budget-evals", "10"] if sub == "repair" else []
    code = run([sub, "--circuit", circuits["easy"], "--expected", str(exp_path), *budget])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert _one_error_line(err)
    assert err.startswith("qrep: error:")
    assert repr("Z:00") in err


@pytest.mark.parametrize("sub", ["repair", "baseline-rs", "localize"])
def test_shots_beyond_sampler_range_rejected_at_flag(circuits, capsys, sub):
    budget = [] if sub == "localize" else ["--budget-evals", "10"]
    code = run([
        sub, "--circuit", circuits["easy"], "--reference", circuits["ref"], *budget,
        "--shots-mode", "sampled", "--shots", str(2**63),
    ])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert _one_error_line(err)
    assert "--shots" in err and str(2**63 - 1) in err


def test_tolerance_below_the_floor_ends_as_a_report_not_a_traceback(tmp_path, capsys):
    # this mutant's one-angle trials once shrank a simplex at --opt-tol 1e-200
    # until its inverse was singular, and the repair ended in a traceback
    ref = build_benchmark("wstate", 4)
    mutant = inject_faults(ref, seed=0, per_group=1, groups=("replace",), suite=generate_suite(ref))[0]
    paths = {name: tmp_path / f"{name}.qasm" for name in ("ref", "bad")}
    paths["ref"].write_text(emit_qasm(ref))
    paths["bad"].write_text(emit_qasm(mutant.mutant))
    out = tmp_path / "report.json"
    code = run([
        "repair", "--circuit", str(paths["bad"]), "--reference", str(paths["ref"]), "--budget-evals", "3000",
        "--opt-tol", "1e-200", "--opt-max-evals", "1000", "--out", str(out),
    ])
    err = capsys.readouterr().err
    if code == EXIT_ERROR:
        assert _one_error_line(err) and err.startswith("qrep: error: ")
    else:
        report = json.loads(out.read_text())
        assert code in (EXIT_OK, EXIT_NOT_FIXED) and err == ""
        assert report["config"]["opt_tolerance"] == 1e-200  # echoed as given
