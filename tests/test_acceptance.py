"""Acceptance suite: ten end-to-end criteria, one test each.

Criterion 5's mutant corpus (18 faulty circuits, three per algorithm) is
expensive, so it runs once in a session fixture shared by the repair-rate,
baseline-dominance, and ranking-metric tests. Per-algorithm injection seeds
are fixed; see notes in the corpus fixture.
"""
import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import CORPUS, exact_localize, random_circuit
from oracles import dense_probs, hellinger, revert_patch, run_exact
from qrep.benchmarks import build_benchmark, standard_catalog
from qrep.circuit import GateKind, build_circuit
from qrep.cli import main
from qrep.engine import STATUS_NOT_FIXED, STATUS_REPAIRED, RepairConfig, _Run, random_search, repair
from qrep.patcher import apply_patch, generate_patches, inject_faults
from qrep.qasm import emit_qasm
from qrep.simulator import MeasBasis
from qrep.testkit import fitness, generate_suite, suite_from_expected

# the benchmark corpus (conftest.CORPUS): its injection seeds give both
# outcomes (14 repaired, 4 honestly unrepairable under the default catalog)
CORPUS_BUDGET = 5000
CORPUS_ITERATIONS = 4

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="session")
def corpus_runs():
    """18 mutants -> (record, QRep report, RS report) rows plus wall time."""
    rows = []
    qrep_wall = 0.0
    for name, n, seed in CORPUS:
        ref = build_benchmark(name, n)
        ts = generate_suite(ref)
        for rec in inject_faults(ref, seed=seed, per_group=1):
            cfg = RepairConfig(budget_evals=CORPUS_BUDGET, iterations=CORPUS_ITERATIONS, seed=seed)
            t0 = time.monotonic()
            qr = repair(rec.mutant, ts, cfg, fault_gate=rec.fault_gate)
            qrep_wall += time.monotonic() - t0
            rs = random_search(rec.mutant, ts, cfg, fault_gate=rec.fault_gate)
            rows.append((f"{name}{n}", rec, qr, rs))
    return {"rows": rows, "qrep_wall": qrep_wall}


# 1 ------------------------------------------------------------------------

def test_criterion_1_simulator_matches_dense_oracle():
    start = time.monotonic()

    # every catalog gate appears in at least one directly checked circuit
    rng = np.random.default_rng(1905)
    for kind in GateKind:
        q = max(2, kind.num_qubits)
        ops = [("h", (i,)) for i in range(q)]
        params = tuple(rng.uniform(0, 2 * math.pi, kind.param_count))
        ops.append((kind.gate_name, tuple(range(kind.num_qubits)), params))
        c = build_circuit(q, ops)
        for basis in MeasBasis:
            got = run_exact(c, 1, basis=basis)
            want = dense_probs(c, 1, basis=basis.value)
            assert np.max(np.abs(got.probs - want)) < 1e-10, kind

    # 200 random circuits up to 3 qubits, all bases, all basis inputs
    for i in range(200):
        q = int(rng.integers(1, 4))
        c = random_circuit(rng, q, int(rng.integers(1, 13)))
        input_state = int(rng.integers(0, 2**q))
        basis = (MeasBasis.X, MeasBasis.Y, MeasBasis.Z)[i % 3]
        got = run_exact(c, input_state, basis=basis)
        want = dense_probs(c, input_state, basis=basis.value)
        assert np.max(np.abs(got.probs - want)) < 1e-10

    assert time.monotonic() - start < 10.0


# 2 ------------------------------------------------------------------------

def test_criterion_2_hellinger_unit_values():
    from qrep.simulator import Distribution

    p_half = Distribution(1, (0.5, 0.5))
    p_zero = Distribution(1, (1.0, 0.0))
    p_one = Distribution(1, (0.0, 1.0))
    assert hellinger(p_half, p_half) == 0.0
    assert hellinger(p_zero, p_one) == 1.0
    assert hellinger(p_half, p_zero) == pytest.approx(0.5411961, abs=1e-6)

    # the same three values through fitness, the path every evaluation runs:
    # a circuit whose Z output is the first distribution, scored on a one-case
    # suite expecting the second
    h, empty = build_circuit(1, [("h", 0)]), build_circuit(1, [])

    def distance(c, expected):
        return fitness(c, suite_from_expected({"Z:0": expected})).hellinger_sum

    assert distance(h, {"0": 0.5, "1": 0.5}) == 0.0
    assert distance(empty, {"1": 1.0}) == 1.0
    assert distance(h, {"0": 1.0}) == pytest.approx(0.5411961, abs=1e-6)
    assert distance(h, {"0": 1.0}) == hellinger(p_half, p_zero)


# 3 ------------------------------------------------------------------------

def test_criterion_3_fitness_zero_on_references():
    catalog = standard_catalog()
    assert len(catalog) == 10
    for name, ref in catalog.items():
        assert 2 <= ref.num_qubits <= 6, name
        ts = generate_suite(ref)
        assert len(ts) == 3 * 2**ref.num_qubits, name
        score = fitness(ref, ts)
        assert score.value == 0.0, name
        assert score.failed_count == 0 and score.hellinger_sum == 0.0, name


# 4 ------------------------------------------------------------------------

def test_criterion_4_localisation_short_circuits_add_faults():
    refs = [
        ("ghz", 2), ("ghz", 5), ("dj", 4), ("graphstate", 4),
        ("wstate", 3), ("wstate", 5), ("qft", 4), ("grover", 3),
    ]
    checked = 0
    for name, n in refs:
        ref = build_benchmark(name, n)
        ts = generate_suite(ref)
        mutants = inject_faults(ref, seed=31, per_group=3, groups=("add",), suite=ts)
        for rec in mutants:
            if checked == 20:
                break
            t0 = time.monotonic()
            baseline = fitness(rec.mutant, ts)
            res = exact_localize(rec.mutant, ts, baseline)
            elapsed = time.monotonic() - t0
            assert res.repaired is not None, rec.description
            assert fitness(res.repaired, ts).all_passed()
            assert elapsed < 2.0, (rec.description, elapsed)
            checked += 1
    assert checked == 20


# 5 ------------------------------------------------------------------------

def test_criterion_5_corpus_repair_rate(corpus_runs):
    rows = corpus_runs["rows"]
    assert len(rows) == 18
    repaired = sum(1 for _, _, qr, _ in rows if qr.status == STATUS_REPAIRED)
    assert repaired / len(rows) >= 0.60, f"only {repaired}/18 repaired"
    assert corpus_runs["qrep_wall"] < 15 * 60
    for _, _, qr, _ in rows:
        assert qr.evals_used <= CORPUS_BUDGET
        if qr.status == STATUS_REPAIRED:
            assert qr.repaired_qasm is not None


# 6 ------------------------------------------------------------------------

def test_criterion_6_qrep_dominates_random_search(corpus_runs):
    rows = corpus_runs["rows"]
    qrep_fixed = sum(1 for _, _, qr, _ in rows if qr.status == STATUS_REPAIRED)
    rs_fixed = sum(1 for _, _, _, rs in rows if rs.status == STATUS_REPAIRED)
    assert qrep_fixed >= rs_fixed, f"QRep {qrep_fixed} vs RS {rs_fixed}"
    for _, _, _, rs in rows:
        assert rs.evals_used <= CORPUS_BUDGET


# 7 ------------------------------------------------------------------------

def test_criterion_7_rq2_metrics_well_formed(corpus_runs):
    rows = corpus_runs["rows"]
    not_fixed = [(key, rec, qr) for key, rec, qr, _ in rows if qr.status == STATUS_NOT_FIXED]
    assert not_fixed, "corpus produced no NotFixed case; criterion would be vacuous"
    in_top = 0
    for key, rec, qr in not_fixed:
        assert 0.0 <= qr.improvement_pct <= 100.0, key
        assert qr.fault_percentile is not None, key
        assert 0.0 <= qr.fault_percentile <= 100.0, key
        percs = [r["percentile"] for r in qr.ranking]
        assert percs[0] == 0.0 and percs[-1] == 100.0  # top -> 0, bottom -> 100
        assert percs == sorted(percs)
        if qr.fault_percentile <= 65.0:
            in_top += 1
    assert in_top / len(not_fixed) >= 0.70, f"{in_top}/{len(not_fixed)} faults in top 65%"


# 8 ------------------------------------------------------------------------

def _masked(path: Path) -> list[str]:
    # timestamp is declared nondeterministic; wall_seconds is measured time
    # and can't be byte-stable, so both lines are masked before comparison
    keep = []
    for line in path.read_text().splitlines():
        if '"timestamp"' in line or '"wall_seconds"' in line:
            continue
        keep.append(line)
    return keep


def test_criterion_8_byte_determinism(tmp_path):
    bell = build_circuit(2, [("h", 0), ("cx", (0, 1))])
    ref = tmp_path / "ref.qasm"
    ref.write_text(emit_qasm(bell))
    from qrep.circuit import GateApp, replace_gate

    broken = replace_gate(bell, 0, GateApp(GateKind.X, (0,)))
    bad = tmp_path / "bad.qasm"
    bad.write_text(emit_qasm(broken))

    base = ["--circuit", str(bad), "--reference", str(ref),
            "--budget-evals", "120", "--seed", "7"]
    for sub in ("repair", "baseline-rs"):
        out_a = tmp_path / f"{sub}_a.json"
        out_b = tmp_path / f"{sub}_b.json"
        main([sub, *base, "--out", str(out_a)])
        main([sub, *base, "--out", str(out_b)])
        assert _masked(out_a) == _masked(out_b), sub

    loc_a, loc_b = tmp_path / "loc_a.json", tmp_path / "loc_b.json"
    main(["localize", "--circuit", str(bad), "--reference", str(ref), "--out", str(loc_a)])
    main(["localize", "--circuit", str(bad), "--reference", str(ref), "--out", str(loc_b)])
    assert _masked(loc_a) == _masked(loc_b)

    mut_a, mut_b = tmp_path / "mut_a", tmp_path / "mut_b"
    for d in (mut_a, mut_b):
        main(["mutate", "--circuit", str(ref), "--per-group", "2", "--seed", "3",
              "--out-dir", str(d)])
    assert _masked(mut_a / "manifest.json") == _masked(mut_b / "manifest.json")
    for f in sorted(mut_a.glob("*.qasm")):
        assert f.read_bytes() == (mut_b / f.name).read_bytes()


# 9 ------------------------------------------------------------------------

def test_criterion_9_budget_exactness(monkeypatch):
    import qrep.testkit as testkit_mod

    bell = build_circuit(2, [("h", 0), ("cx", (0, 1))])
    from qrep.circuit import GateApp, replace_gate

    broken = replace_gate(bell, 0, GateApp(GateKind.X, (0,)))
    ts = generate_suite(bell)

    real, recalled, traced, build = testkit_mod._observed, _Run.recalled, _Run.traced, testkit_mod.AngleCurve.__init__
    calls = {"n": 0, "curves": 0, "curve_blocks": 0, "building": False}

    def probe(c, suite, prefixes, edits=None, out=None):
        # the removal sweep and a run of fixed patches stack their circuits,
        # one block per edit, in one call; a one-angle trial's curve is
        # simulated, not charged
        blocks = 1 if edits is None else len(edits)
        if calls["building"]:
            calls["curve_blocks"] += blocks
        else:
            calls["last_blocks"] = blocks
            calls["n"] += blocks
        assert sorted(suite.inputs) == list(range(2**bell.num_qubits))
        return real(c, suite, prefixes, edits, out)

    def built(self, *args):
        calls["curves"] += 1
        calls["building"] = True
        try:
            build(self, *args)
        finally:
            calls["building"] = False

    def answered(method):
        # a zero-angle probe the run holds the score of, or a probe the
        # trial's curve fails, is charged, not simulated
        def counted(self, edit):
            score = method(self, edit)
            calls["n"] += score is not None
            return score

        return counted

    monkeypatch.setattr(testkit_mod, "_observed", probe)
    monkeypatch.setattr(testkit_mod.AngleCurve, "__init__", built)
    monkeypatch.setattr(_Run, "recalled", answered(recalled))
    monkeypatch.setattr(_Run, "traced", answered(traced))
    for n in (1, 2, 3, 7, 25, 60):
        calls["n"] = 0
        rep = repair(broken, ts, RepairConfig(budget_evals=n, iterations=4))
        assert rep.evals_used <= n
        # each counted evaluation is one circuit simulated on all 2^q inputs,
        # or one probe answered from a score the run holds or from a curve;
        # a repair inside a stacked chunk leaves that chunk's later circuits
        # simulated but not charged
        if rep.status == STATUS_NOT_FIXED:
            assert calls["n"] == rep.evals_used
        else:
            assert rep.evals_used <= calls["n"] <= rep.evals_used + calls["last_blocks"] - 1
        # three uncharged circuits per curve, counted over the budgets so far
        assert calls["curve_blocks"] == 3 * calls["curves"]
        if rep.status == STATUS_NOT_FIXED and not rep.partial_localisation:
            assert rep.evals_used == n  # exhausted budgets are spent exactly
    assert calls["curves"] > 0  # some budget reaches a one-angle trial past its recalled probe


# 10 -----------------------------------------------------------------------

def test_criterion_10_patch_reversibility():
    circuits = [
        build_circuit(1, [("h", 0)]),
        build_circuit(2, [("h", 0), ("cx", (0, 1))]),
        build_circuit(2, [("rx", 0, (0.7,)), ("cz", (0, 1))]),
        build_benchmark("ghz", 3),
        build_benchmark("wstate", 3),
    ]
    total = 0
    for c in circuits:
        for p in generate_patches(c):
            params = (0.5,) * p.gate.param_count if p.is_parametric else None
            edited = apply_patch(c, p, params)
            restored = revert_patch(edited, p, c)
            assert restored.gates == c.gates
            assert restored.num_qubits == c.num_qubits
            total += 1
    assert total > 1000  # genuinely exhaustive, not a token sample
