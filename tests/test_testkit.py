"""Suite generation, Hellinger distance, the two-rule oracle, and fitness."""
import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import CORPUS, exact_localize, out_of_range_edits, own_workspace_pool, random_circuit, random_suite
from oracles import (
    hellinger,
    hellinger_ref,
    judge,
    kernel_run_all_bases,
    load_outcome,
    looped_suite_from_expected,
    per_case_generate_suite,
    per_case_suite_from_expected,
    run_exact,
    sample,
    stacked_run_all_bases,
)
from qrep import cli, simulator, testkit
from qrep.benchmarks import build_benchmark
from qrep.circuit import GateApp, GateKind, build_circuit, insert_gate, remove_gate, replace_gate
from qrep.engine import RepairConfig, random_search, repair
from qrep.errors import ExpectedTableError, NoFailingTestError, QubitIndexError, SuiteTooWideError, WidthMismatchError
from qrep.patcher import inject_faults
from qrep.qasm import emit_qasm
from qrep.simulator import BASIS_ORDER, Distribution, MeasBasis, run_all_bases
from qrep.testkit import (
    MAX_SHOTS,
    OracleConfig,
    _case_seed,
    _case_seeds,
    case_id,
    edit_fitness,
    fitness,
    generate_suite,
    parse_case_id,
    require_failing,
    suite_from_expected,
)


def dist(*probs):
    return Distribution(num_qubits=int(math.log2(len(probs))), probs=probs)


# ---------------------------------------------------------------- hellinger

def test_hellinger_identical_is_zero():
    p = dist(0.5, 0.5)
    assert hellinger(p, p) == 0.0


def test_hellinger_disjoint_is_one():
    assert hellinger(dist(1.0, 0.0), dist(0.0, 1.0)) == pytest.approx(1.0, abs=1e-15)


def test_hellinger_uniform_vs_point():
    # closed form: sqrt(1 - sqrt(1/2)) = 0.5411961...
    h = hellinger(dist(0.5, 0.5), dist(1.0, 0.0))
    assert h == pytest.approx(0.5411961, abs=1e-6)
    assert h == pytest.approx(math.sqrt(1.0 - math.sqrt(0.5)), abs=1e-12)


def test_hellinger_symmetric_and_bounded():
    p, q = dist(0.25, 0.75), dist(0.9, 0.1)
    assert hellinger(p, q) == pytest.approx(hellinger(q, p), abs=1e-15)
    assert 0.0 <= hellinger(p, q) <= 1.0


@given(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
       st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
def test_hellinger_matches_bhattacharyya_form(ws_p, ws_q):
    p = dist(*[w / sum(ws_p) for w in ws_p])
    q = dist(*[w / sum(ws_q) for w in ws_q])
    # compare squared distances: sqrt amplifies float noise near h = 0
    assert hellinger(p, q) ** 2 == pytest.approx(hellinger_ref(p.probs, q.probs) ** 2, abs=1e-12)


def test_hellinger_width_mismatch():
    with pytest.raises(WidthMismatchError):
        hellinger(dist(1.0, 0.0), dist(1.0, 0.0, 0.0, 0.0))


# ----------------------------------------------------------- suite building

def test_suite_shape_and_ids(bell):
    ts = generate_suite(bell)
    assert len(ts) == 3 * 2**2
    assert ts.num_qubits == 2
    ids = [tc.id for tc in ts.cases]
    assert len(set(ids)) == len(ids)
    assert ids[:3] == ["X:00", "Y:00", "Z:00"]  # bases cycle within each input
    assert {tc.basis for tc in ts.cases} == {MeasBasis.X, MeasBasis.Y, MeasBasis.Z}


def test_suite_expected_matches_simulator(bell):
    ts = generate_suite(bell)
    for tc in ts.cases:
        want = run_exact(bell, tc.input_state, basis=tc.basis)
        assert np.array_equal(tc.expected.probs, want.probs)


def test_case_id_roundtrip():
    cid = case_id(MeasBasis.Y, 5, 4)
    assert cid == "Y:0101"
    assert parse_case_id(cid) == (MeasBasis.Y, 5, 4)


def test_parse_case_id_rejects_garbage():
    for bad in ("Z", "Q:01", "Z:01x", "Z:"):
        with pytest.raises(ValueError):
            parse_case_id(bad)


def test_suite_width_guard():
    # rejected before any state is allocated: a 17-qubit suite would hold 3 * 2**34 probabilities
    wide = build_circuit(17, [("h", 0)])
    with pytest.raises(SuiteTooWideError):
        generate_suite(wide)


def test_suite_from_expected_map():
    ts = suite_from_expected({"Z:0": {"0": 1.0}, "X:0": {"0": 0.5, "1": 0.5}})
    assert ts.num_qubits == 1
    assert len(ts) == 2


def test_suite_from_expected_rejects_mixed_width():
    with pytest.raises(WidthMismatchError):
        suite_from_expected({"Z:0": {"0": 1.0}, "Z:01": {"01": 1.0}})
    with pytest.raises(ValueError):
        suite_from_expected({})


@pytest.mark.parametrize("p", [10**400, -(10**400), 2**1024], ids=["huge", "huge-negative", "2**1024"])
def test_suite_from_expected_rejects_integer_beyond_float_range(p):
    with pytest.raises(ExpectedTableError, match="'Z:0'"):
        suite_from_expected({"Z:0": {"0": p}})


def test_sum_beyond_float_range_is_an_error_without_a_warning():
    # a numpy overflow warning would print a second line beside the CLI's error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ExpectedTableError, match="'Z:0': probabilities sum to inf, not 1"):
            suite_from_expected({"Z:0": {"0": 1e308, "1": 1e308}})


# ------------------------------------------------------------------- oracle

def test_judge_rule_one_unexpected_outcome():
    tc = suite_from_expected({"Z:0": {"0": 1.0}}).cases[0]
    v = judge(dist(0.9999, 0.0001), tc)
    assert v.wrong_output and not v.passed
    # the distance alone is tiny, so rule one is what failed it
    assert v.hellinger < 0.01


def test_judge_rule_two_distance_threshold():
    tc = suite_from_expected({"Z:0": {"0": 0.5, "1": 0.5}}).cases[0]
    near = judge(dist(0.55, 0.45), tc)
    assert near.passed and not near.wrong_output
    far = judge(dist(0.999, 0.001), tc)
    assert not far.passed and not far.wrong_output
    assert far.hellinger > 0.1


def test_judge_eps_zero_tolerance():
    tc = suite_from_expected({"Z:0": {"0": 1.0}}).cases[0]
    assert judge(dist(1.0 - 1e-12, 1e-12), tc).passed  # below eps_zero: noise, not evidence


# ------------------------------------------------------------------ fitness

def test_fitness_zero_on_reference(bell):
    ts = generate_suite(bell)
    score = fitness(bell, ts)
    assert score.value == 0.0
    assert score.failed_count == 0
    assert score.hellinger_sum == 0.0


def test_fitness_counts_and_sums(bell):
    ts = generate_suite(bell)
    broken = remove_gate(bell, 1)  # drop the cx
    score = fitness(broken, ts)
    assert score.failed_count >= 1
    assert score.value == pytest.approx(score.failed_count + score.hellinger_sum)
    assert not score.all_passed()
    assert score.value > 0


def test_fitness_width_mismatch(bell):
    ts = generate_suite(bell)
    with pytest.raises(WidthMismatchError):
        fitness(build_circuit(3, [("h", 0)]), ts)


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(mode="approximate")


def test_oracle_config_thresholds_are_finite_and_positive():
    """--tau-fail and --eps-zero's rule, kept by the config: under
    tau_fail=-1 even the reference would fail every case."""
    for name in ("tau_fail", "eps_zero"):
        for bad in (0.0, -1.0, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got {bad}$"):
                OracleConfig(**{name: bad})
        assert getattr(OracleConfig(**{name: 1e-300}), name) == 1e-300


def test_oracle_config_shots_and_seed_are_integers():
    """shots=2.5 used to sample a count numpy truncated while the failure
    threshold widened by 2/sqrt(2.5)."""
    for name in ("shots", "seed"):
        for bad in (2.5, 3.0, True):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad}$"):
                OracleConfig(mode="sampled", **{name: bad})
        assert getattr(OracleConfig(mode="sampled", **{name: np.int64(3)}), name) == 3


def test_oracle_config_shots_are_in_the_samplers_range():
    """--shots' rule, kept by the config rather than met at the first
    sampled evaluation; the largest count is one numpy's sampler draws."""
    for bad in (0, -1, MAX_SHOTS + 1, 10**400):
        with pytest.raises(ValueError, match=f"^shots must be in 1..{MAX_SHOTS}, got {bad}$"):
            OracleConfig(mode="sampled", shots=bad)
    assert OracleConfig(shots=1).shots == 1 and OracleConfig(shots=MAX_SHOTS).shots == MAX_SHOTS
    c = build_circuit(1, [("h", 0)])
    ts = suite_from_expected({"Z:0": {"0": 0.5, "1": 0.5}})
    score = fitness(c, ts, OracleConfig(mode="sampled", shots=MAX_SHOTS, seed=1))
    assert score.all_passed() and score.hellinger_sum == pytest.approx(0.0, abs=1e-6)


def test_default_shots_formula():
    assert OracleConfig().resolve_shots(3) == 16  # 2^q * 2
    assert OracleConfig().resolve_shots(5) == 64


def test_sampled_tau_widens():
    cfg = OracleConfig(mode="sampled", shots=400)
    assert cfg.resolve_tau(2) == pytest.approx(0.1 + 2.0 / 20.0)
    exact = OracleConfig()
    assert exact.resolve_tau(2) == pytest.approx(0.1)
    pinned = OracleConfig(mode="sampled", shots=400, tau_fail=0.3)
    assert pinned.resolve_tau(2) == 0.3


def test_sampled_fitness_deterministic(bell):
    ts = generate_suite(bell)
    cfg = OracleConfig(mode="sampled", shots=64, seed=11)
    a = fitness(bell, ts, cfg)
    b = fitness(bell, ts, cfg)
    assert a == b
    other = fitness(bell, ts, OracleConfig(mode="sampled", shots=64, seed=12))
    assert isinstance(other.value, float)  # different seed still runs to completion


@pytest.mark.parametrize("master,n", [(0, 1), (11, 12), (2**64 + 5, 48), (-3, 192)])
def test_cached_case_seeds_match_per_case_seeds(master, n):
    seeds = _case_seeds(master, n)
    assert seeds == tuple(_case_seed(master, i) for i in range(n))
    assert _case_seeds(master, n) is seeds  # built once per (seed, size)


def test_sampled_reference_still_passes(bell):
    ts = generate_suite(bell)
    score = fitness(bell, ts, OracleConfig(mode="sampled", seed=3))
    assert score.all_passed()  # widened tau absorbs shot noise


def test_require_failing(bell):
    ts = generate_suite(bell)
    with pytest.raises(NoFailingTestError):
        require_failing(fitness(bell, ts))
    require_failing(fitness(remove_gate(bell, 0), ts))  # no raise


# ------------------------------------------- fitness vs the per-case oracle

def _judge_loop(c, ts, cfg):
    """Reference fitness: one simulation per input, a Distribution and a
    judge() verdict per case, summed in suite order."""
    tau = cfg.resolve_tau(ts.num_qubits)
    failed, h_sum = 0, 0.0
    for i, tc in enumerate(ts.cases):
        row = run_all_bases(c, [tc.input_state])[BASIS_ORDER.index(tc.basis), 0]
        observed = Distribution(ts.num_qubits, row)
        if cfg.mode == "sampled":
            observed = sample(observed, cfg.resolve_shots(ts.num_qubits), _case_seed(cfg.seed, i))
        v = judge(observed, tc, tau_fail=tau, eps_zero=cfg.eps_zero)
        failed += not v.passed
        h_sum += v.hellinger
    return failed, h_sum


def test_fitness_matches_per_case_judge_loop():
    rng = np.random.default_rng(77)
    configs = [OracleConfig(), OracleConfig(mode="sampled", seed=5), OracleConfig(mode="sampled", shots=9)]
    partial_fail = 0
    for trial in range(40):
        q = int(rng.integers(1, 4))
        ref = random_circuit(rng, q, int(rng.integers(1, 10)))
        full = generate_suite(ref)
        z_only = suite_from_expected(
            {tc.id: tc.expected.as_dict() for tc in full.cases if tc.basis is MeasBasis.Z}
        )
        candidates = [ref, random_circuit(rng, q, int(rng.integers(0, 10)))]
        candidates += [remove_gate(ref, k) for k in range(len(ref.gates))]
        for ts in (full, z_only):
            for c in candidates:
                for cfg in configs:
                    score = fitness(c, ts, cfg)
                    failed, h_sum = _judge_loop(c, ts, cfg)
                    assert score.failed_count == failed
                    assert abs(score.hellinger_sum - h_sum) <= 1e-12
                    partial_fail += 0 < failed < len(ts)
    assert partial_fail > 50  # the comparison covers mixed pass/fail suites


# ------------------------------------------- measured bases and prefixes


def _all_bases(ts):
    """``ts`` measured in every basis, as a suite did before it kept only
    the bases its cases use."""
    full = suite_from_expected({tc.id: tc.expected.as_dict() for tc in ts.cases})
    object.__setattr__(full, "bases", BASIS_ORDER)
    rows = np.array([BASIS_ORDER.index(tc.basis) for tc in full.cases], dtype=np.intp)
    object.__setattr__(full, "case_rows", (rows, full.case_rows[1]))
    return full


def test_suite_measures_only_its_bases():
    rng = np.random.default_rng(91)
    checked = 0
    for trial in range(30):
        q = int(rng.integers(1, 5))
        ref = random_circuit(rng, q, int(rng.integers(1, 10)))
        full = generate_suite(ref)
        assert full.bases == BASIS_ORDER
        for keep in ({MeasBasis.Z}, {MeasBasis.X, MeasBasis.Z}, {MeasBasis.Y}):
            sub = suite_from_expected(
                {tc.id: tc.expected.as_dict() for tc in full.cases if tc.basis in keep}
            )
            assert sub.bases == tuple(b for b in BASIS_ORDER if b in keep)
            wide = _all_bases(sub)
            for c in (ref, random_circuit(rng, q, 6), *(remove_gate(ref, k) for k in range(len(ref.gates)))):
                for cfg in (OracleConfig(), OracleConfig(mode="sampled", seed=3)):
                    assert fitness(c, sub, cfg) == fitness(c, wide, cfg)
                    checked += 1
    assert checked > 500


def test_fitness_with_prefixes_equals_fitness_without(bell):
    ts = generate_suite(bell)
    cache = ts.prefixes(bell)
    assert fitness(bell, ts, prefixes=cache) == fitness(bell, ts)
    # the removals of bell are its edits: scored from the cache, given or built
    alone = [fitness(remove_gate(bell, p), ts) for p in range(len(bell.gates))]
    removals = [(p, None, True) for p in range(len(bell.gates))]
    assert list(edit_fitness(bell, ts, removals, prefixes=cache)) == alone
    assert list(edit_fitness(bell, ts, removals)) == alone
    with pytest.raises(WidthMismatchError):
        ts.prefixes(build_circuit(3, [("h", 0)]))


# ------------------------------------ one matrix vs one object per case


def _assert_same_suite(ts, old):
    assert ts.num_qubits == old.num_qubits and len(ts) == len(old)
    assert ts.expected.tobytes() == old.expected.tobytes()
    assert ts.sqrt_expected.tobytes() == old.sqrt_expected.tobytes()
    assert ts.inputs == old.inputs and all(type(s) is int for s in ts.inputs)
    assert ts.bases == old.bases
    for mine, theirs in zip(ts.case_rows, old.case_rows, strict=True):
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
    assert len(ts.cases) == len(old.cases)
    for a, b in zip(ts.cases, old.cases):
        assert (a.id, a.input_state, a.basis) == (b.id, b.input_state, b.basis)
        assert type(a.input_state) is int
        assert a.expected.probs.tobytes() == b.expected.probs.tobytes()


def test_suite_matrix_matches_per_case_construction():
    rng = np.random.default_rng(113)
    configs = (OracleConfig(), OracleConfig(mode="sampled", seed=7))
    checked = 0
    for q in (1, 2, 3, 4, 5, 6) * 4:
        ref = random_circuit(rng, q, int(rng.integers(1, 12)))
        ts, old = generate_suite(ref), per_case_generate_suite(ref)
        _assert_same_suite(ts, old)
        full = {tc.id: tc.expected.as_dict() for tc in old.cases}
        ids = list(full)
        basis = str(rng.choice(["X", "Y", "Z"]))
        picks = (
            [cid for cid in ids if cid.startswith(basis)],  # a single basis
            [cid for cid in ids if rng.random() < 0.2] or ids[-1:],  # sparse
            [ids[int(rng.integers(len(ids)))]],  # a single case
        )
        pairs = [(ts, old)]
        for pick in picks:
            table = {cid: full[cid] for cid in rng.permutation(pick)}
            pairs.append((suite_from_expected(table), per_case_suite_from_expected(table)))
            _assert_same_suite(*pairs[-1])
        for c in (ref, random_circuit(rng, q, 6)):
            for new, frozen in pairs:
                for cfg in configs:
                    assert fitness(c, new, cfg) == fitness(c, frozen, cfg)
                    checked += 1
    assert checked == 24 * 4 * 2 * 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_edit_fitness_keeps_the_circuits_qubit_rule(n):
    """An edit whose gate names a qubit the circuit lacks is not scored: it
    raises the QubitIndexError that insert_gate raises for it."""
    c = build_circuit(n, [("h", q) for q in range(n)])
    ts = generate_suite(build_circuit(n, [("x", 0)]))
    cache = ts.prefixes(c)
    for e in out_of_range_edits(c):
        for prefixes in (cache, None):
            with pytest.raises(QubitIndexError, match=f"out of range for {n}-qubit circuit$"):
                next(edit_fitness(c, ts, [e], prefixes=prefixes))


def test_full_table_repairs_like_its_reference():
    """A table of every case of a reference is the reference's own suite,
    in the same case order, so it sums fitness and repairs the same."""
    for family, n, seed in CORPUS:
        ref = build_benchmark(family, n)
        ts = generate_suite(ref)
        table = suite_from_expected(json.loads(json.dumps({tc.id: tc.expected.as_dict() for tc in ts.cases})))
        assert table.expected.tobytes() == ts.expected.tobytes()
        assert table.sqrt_expected.tobytes() == ts.sqrt_expected.tobytes()
        for got, want in zip(table.case_rows, ts.case_rows):
            assert got.tobytes() == want.tobytes()
        cfg = RepairConfig(budget_evals=300, seed=seed)
        for rec in inject_faults(ref, seed=seed, per_group=1, suite=ts):
            got = repair(rec.mutant, table, cfg, fault_gate=rec.fault_gate).to_dict()
            want = repair(rec.mutant, ts, cfg, fault_gate=rec.fault_gate).to_dict()
            got.pop("wall_seconds"), want.pop("wall_seconds")
            assert got == want, rec.description


def test_cli_full_table_reports_like_its_reference(tmp_path):
    ref = build_benchmark("dj", 4)
    ts = generate_suite(ref)
    mutant = next(r.mutant for r in inject_faults(ref, seed=1, per_group=1, suite=ts) if r.group == "remove")
    (tmp_path / "mutant.qasm").write_text(emit_qasm(mutant))
    (tmp_path / "ref.qasm").write_text(emit_qasm(ref))
    (tmp_path / "table.json").write_text(json.dumps({tc.id: tc.expected.as_dict() for tc in ts.cases}))
    reports = []
    for flag, path in (("--reference", "ref.qasm"), ("--expected", "table.json")):
        out = tmp_path / f"{path}.report.json"
        argv = ["repair", "--circuit", str(tmp_path / "mutant.qasm"), flag, str(tmp_path / path)]
        cli.main([*argv, "--budget-evals", "300", "--out", str(out)])
        report = json.loads(out.read_text())
        del report["manifest"], report["wall_seconds"]
        reports.append(report)
    assert reports[0] == reports[1]


def test_evaluation_path_never_builds_the_case_view(monkeypatch, tmp_path):
    ref = build_benchmark("grover", 3)
    ts = generate_suite(ref)
    mutant = inject_faults(ref, seed=3, per_group=1, suite=ts)[0].mutant
    table = tmp_path / "expected.json"
    table.write_text(json.dumps({tc.id: tc.expected.as_dict() for tc in ts.cases if tc.basis is MeasBasis.Z}))
    circuit = tmp_path / "mutant.qasm"
    circuit.write_text(emit_qasm(mutant))

    def refuse(self):
        raise AssertionError("TestSuite.cases was built")

    monkeypatch.setattr(testkit.TestSuite, "cases", property(refuse))
    with pytest.raises(AssertionError, match="was built"):
        ts.cases
    cfg = RepairConfig(budget_evals=200, seed=3)
    repair(mutant, ts, cfg)
    random_search(mutant, ts, cfg)
    exact_localize(mutant, ts, fitness(mutant, ts))
    inject_faults(ref, seed=3, per_group=1, suite=ts)
    argv = ["repair", "--circuit", str(circuit), "--expected", str(table), "--budget-evals", "200"]
    assert cli.main([*argv, "--out", str(tmp_path / "report.json")]) in (cli.EXIT_OK, cli.EXIT_NOT_FIXED)


# ------------------------------------ an expected table in bulk vs per case


def _well_formed_tables(rng, ts):
    """Full, Z-only and sparse tables of ``ts``, zero entries omitted and
    written out, exact 0 and 1 as integers, keys and cases shuffled."""
    q = ts.num_qubits
    full = {}
    for tc in ts.cases:
        probs = {tc.expected.bitstring(i): float(p) for i, p in enumerate(tc.expected.probs)}
        full[tc.id] = {b: int(p) if p in (0.0, 1.0) else p for b, p in probs.items()}
    ids = list(full)
    picks = (ids, [cid for cid in ids if cid.startswith("Z")], [cid for cid in ids if rng.random() < 0.3] or ids[:1])
    for pick in picks:
        for omit_zeros in (True, False):
            table = {}
            for cid in rng.permutation(pick):
                row = {b: p for b, p in full[cid].items() if p or not omit_zeros}
                table[str(cid)] = {b: row[b] for b in rng.permutation(list(row))}
            yield table
    # one-hot integer rows, some with an integer zero beside the 1
    table = {}
    for cid in rng.permutation(ids)[: max(1, len(ids) // 4)]:
        hot, zero = (format(k, f"0{q}b") for k in rng.permutation(2**q)[:2].tolist())
        table[str(cid)] = {zero: 0, hot: 1} if rng.random() < 0.5 else {hot: 1}
    yield table


def test_bulk_table_loads_like_the_case_by_case_loop():
    rng = np.random.default_rng(131)
    loaded = 0
    for q in (1, 2, 3, 4, 5, 6) * 2:
        ts = generate_suite(random_circuit(rng, q, int(rng.integers(1, 12))))
        for table in _well_formed_tables(rng, ts):
            want = load_outcome(looped_suite_from_expected, table)
            assert load_outcome(suite_from_expected, table) == want
            assert want[0] == q, want  # a suite, not an error
            json_table = json.loads(json.dumps(table))
            assert load_outcome(suite_from_expected, json_table) == want
            loaded += 1
    assert loaded == 12 * 7


_ID17 = "Z:" + "0" * 17


@pytest.mark.parametrize(
    "table",
    [
        {"Z:00": {"00": 0.9}, "Z:01": {"0x": 1.0}},  # a row rule before a bad bitstring
        {"Z:00": {"00": 1.0}, "Z:01": {"0x": 1.0}, "Z:10": {"10": 0.9}},
        {"Z:00": {"00": 1.0}, "Z:01": {"01": 1.0, "1": 0.0}},
        {"Z:0": {"٠": 1}},  # a digit int() reads, but not a 0 or a 1
        {"Z:0": {"0": 10**400}},
        {"Z:0": {"0": 1.0}, "Z:1": {"1": int("1" * 401)}},
        {"Z:0": {"0": 0.5}, "Z:1": {"1": -int("9" * 401)}},
        {"Z:0": {"0": 10**300}},
        {"Z:0": {"0": 1e308, "1": 1e308}},
        {"Z:0": {"0": math.nan}},
        {"Z:0": {"0": 1.0, "1": math.nan}},
        {"Z:0": {"0": 0.9}, "Z:1": {"1": math.nan}},
        {"Z:0": {"0": True}},
        {"Z:0": {"0": np.float64(0.5), "1": 0.5}},  # a float subclass
        {"Z:0": {"0": int(sys.float_info.max) + 1}},  # rounds to a finite float, but is out of range
        {"Z:0": {"0": 2**70}},
        {"Z:0": {"0": 0.5, "1": 0.5}, "Z:1": {"1": None}},
        {"Z:0": {"0": 0.9}, "Z:1": {1: 1.0}},  # a row rule before a key that is not a string
        {"Z:0": {"0": 1.5, "1": -0.5}},
        {"Z:0": {"0": 1.5, "1": -0.5, "x": 1}},
        {"Z:0": {"0": 1.0, "1": -1e-13}},  # rounding: clipped to 0
        {"Z:0": {"0": 1.0 + 2e-9}},
        {"Z:0": {}},
        {"Z:0": [1.0]},
        {"Z:0": {"0": 1}, "Z:00": {"00": 1}},
        {"X:0": {"0": 1}, "Z:00": {"00": 0.5}},
        {_ID17: {"0" * 17: 1}},
        {"X:0": {"0": 0.5}, _ID17: {"0" * 17: 1}},
        {"Q:1": {"1": 1}, "Z:0": {"0": 0.9}},
        {"Z:0": {"0": 0.9}, "Z:0a": {"0": 1}},
        {},
        [],
        "Z:0",
    ],
)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the frozen loop's 1e308 + 1e308
def test_malformed_table_fails_like_the_case_by_case_loop(table):
    assert load_outcome(suite_from_expected, table) == load_outcome(looped_suite_from_expected, table)


@pytest.mark.parametrize(
    "table, message",
    [
        ({"Z:0": {0: 1.0}}, "case 'Z:0': bad outcome bitstring 0 for 1 qubits"),
        ({"Z:0": {"0": 0.5, ("1",): 0.5}}, "case 'Z:0': bad outcome bitstring ('1',) for 1 qubits"),
        ({"Z:1": {"1": 1.0}, "Z:0": {"1": 0.5, None: 0.5}}, "case 'Z:0': bad outcome bitstring None for 1 qubits"),
        ({0: {"0": 1.0}}, "bad test-case id 0; expected like 'Z:0010'"),
        ({"Z:0": {"0": 1.0}, 5: {"1": 1.0}}, "bad test-case id 5; expected like 'Z:0010'"),
        ({"Z:0": {"0": 0.9}, ("Z:1",): {"1": 1.0}}, "bad test-case id ('Z:1',); expected like 'Z:0010'"),
    ],
)
def test_non_string_keys_are_table_errors_naming_the_case(table, message):
    with pytest.raises(ExpectedTableError) as e:
        suite_from_expected(table)
    assert str(e.value) == message


# ------------------------------------------- the ruled-out mask


def test_ruled_out_mask_is_expected_at_or_below_eps():
    rng = np.random.default_rng(31)
    for q in (1, 2, 3, 4):
        ts = generate_suite(random_circuit(rng, q, 8))
        z_only = suite_from_expected({tc.id: tc.expected.as_dict() for tc in ts.cases if tc.basis is MeasBasis.Z})
        for suite in (ts, z_only):
            for eps in (0.0, 1e-9, 0.1, 0.5, 1e-9):
                mask = suite.ruled_out(eps)
                assert mask.dtype == bool and np.array_equal(mask, suite.expected <= eps)
                assert not mask.flags.writeable
                assert suite.ruled_out(eps) is mask  # kept for the next evaluation


def test_one_suite_scored_under_two_eps_gives_each_its_own_verdicts():
    # with tau_fail at 1 only the ruled-out rule fails a case, so eps decides
    rng = np.random.default_rng(37)
    differ = 0
    for trial in range(12):
        q = 1 + trial % 3
        ref = random_circuit(rng, q, int(rng.integers(2, 9)))
        ts = generate_suite(ref)
        cand = random_circuit(rng, q, int(rng.integers(1, 9)))
        counts = {}
        for eps in (1e-9, 0.2, 1e-9, 0.2):  # alternated on one suite
            cfg = OracleConfig(eps_zero=eps, tau_fail=1.0)
            score = fitness(cand, ts, cfg)
            assert score == fitness(cand, generate_suite(ref), cfg)  # a suite scored for the first time
            assert score.failed_count == _judge_loop(cand, ts, cfg)[0]
            removals = range(len(ref.gates))
            assert list(edit_fitness(ref, ts, [(p, None, True) for p in removals], cfg, ts.prefixes(ref))) == [
                fitness(remove_gate(ref, p), ts, cfg) for p in removals
            ]
            assert counts.setdefault(eps, score.failed_count) == score.failed_count
        differ += counts[1e-9] != counts[0.2]
    assert differ > 0


# (mutant, eps_zero, shots, failed count, Hellinger sum) of qft3's mutants
# (injection seed 1) in sampled mode with oracle seed 5, as scored before
# the suite kept its ruled-out mask; eps 0.2 rules out shot-noise outcomes
_SAMPLED_QFT3 = [
    ("add cx (1, 0) @5", 1e-09, None, 9, "0x1.3e061d1cbe705p+3"),
    ("add cx (1, 0) @5", 1e-09, 9, 8, "0x1.7acce56473ab6p+3"),
    ("add cx (1, 0) @5", 0.2, None, 16, "0x1.3e061d1cbe705p+3"),
    ("add cx (1, 0) @5", 0.2, 9, 21, "0x1.7acce56473ab6p+3"),
    ("remove swap @6", 1e-09, None, 9, "0x1.6eaf26026fbccp+3"),
    ("remove swap @6", 1e-09, 9, 8, "0x1.a7caada977fefp+3"),
    ("remove swap @6", 0.2, None, 18, "0x1.6eaf26026fbccp+3"),
    ("remove swap @6", 0.2, 9, 21, "0x1.a7caada977fefp+3"),
    ("replace cp @1 -> s (0,)", 1e-09, None, 3, "0x1.b5b2b4fb566e7p+2"),
    ("replace cp @1 -> s (0,)", 1e-09, 9, 2, "0x1.16e105db2aa8bp+3"),
    ("replace cp @1 -> s (0,)", 0.2, None, 11, "0x1.b5b2b4fb566e7p+2"),
    ("replace cp @1 -> s (0,)", 0.2, 9, 15, "0x1.16e105db2aa8bp+3"),
]


def test_sampled_scores_are_unchanged():
    ref = build_benchmark("qft", 3)
    ts = generate_suite(ref)
    mutants = {m.description: m.mutant for m in inject_faults(ref, seed=1, per_group=1, suite=ts)}
    for description, eps, shots, failed, h_sum in _SAMPLED_QFT3:
        cfg = OracleConfig(mode="sampled", seed=5, shots=shots, eps_zero=eps)
        score = fitness(mutants[description], ts, cfg)
        assert (score.failed_count, score.hellinger_sum.hex()) == (failed, h_sum), description


def _hex(score):
    return score.failed_count, score.hellinger_sum.hex()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    q=st.integers(2, 8),
    suite_kind=st.sampled_from(["full", "z", "sparse"]),
    sampled=st.booleans(),
    checkpoints=st.booleans(),
)
def test_lone_edits_match_the_stacked_path_bit_for_bit(seed, q, suite_kind, sampled, checkpoints):
    """A lone edit, simulated as a staircase of one block in its prefix
    cache's workspace, observes the same rows, byte for byte, and scores
    the same ``FitnessScore``, to the bit, as the same edit stacked beside
    another in one simulation: random circuits of 2-8 qubits over
    ``RANDOM_KINDS``, an add of a random gate at every position, a replace
    of every gate and every removal, full, Z-only and sparse suites, both
    oracles (sampled with oracle seed 3), and caches that keep every state
    or only every few. Caches of one shape share one workspace exactly when
    its three tensors fit ``PREFIX_CACHE_BYTES`` (never with checkpoints,
    whose cap holds two states)."""
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, q, int(rng.integers(1, 7 if q < 7 else 4)))
    ts = random_suite(random_circuit(rng, q, int(rng.integers(0, 4))), suite_kind, rng)
    cfg = OracleConfig(mode="sampled", seed=3) if sampled else OracleConfig()
    m = len(c.gates)
    edits = [(p, None, True) for p in range(m)]
    edits += [(p, random_circuit(rng, q, 1).gates[0], False) for p in range(m + 1)]
    edits += [(p, random_circuit(rng, q, 1).gates[0], True) for p in range(m)]
    beside = (m, random_circuit(rng, q, 1).gates[0], False)
    with pytest.MonkeyPatch.context() as mp:
        state_bytes = ts.prefixes(c).state_bytes
        mp.setattr(simulator, "SWEEP_CHUNK_BYTES", 2 * state_bytes)
        if checkpoints:
            mp.setattr(simulator, "PREFIX_CACHE_BYTES", 2 * state_bytes)
        cache = ts.prefixes(c)
        ws = cache.workspace(1)
        fits = 3 * simulator._most(cache.chunk, state_bytes) * state_bytes <= simulator.PREFIX_CACHE_BYTES
        assert (ws is cache.workspace(cache.chunk) is ts.prefixes(c).workspace(1)) == fits
        for e in edits:
            lone = testkit._observed(c, ts, cache, [e]).tobytes()
            assert lone == testkit._observed(c, ts, cache, [e, beside])[: len(ts)].tobytes(), e
            stacked = next(edit_fitness(c, ts, [e, beside], cfg, cache))
            assert _hex(next(edit_fitness(c, ts, [e], cfg, cache))) == _hex(stacked)
    if checkpoints and m > 2:
        assert cache.stride > 1



def _basis_suite(ref, kind, rng):
    """``ref``'s suite of ``kind``: :func:`random_suite`'s kinds, or its
    X and Z cases ("xz") or its Y cases ("y") as an expected table."""
    if kind not in ("xz", "y"):
        return random_suite(ref, kind, rng)
    keep = {"xz": (MeasBasis.X, MeasBasis.Z), "y": (MeasBasis.Y,)}[kind]
    return suite_from_expected({tc.id: tc.expected.as_dict() for tc in generate_suite(ref).cases if tc.basis in keep})


@pytest.mark.parametrize("kind", ["full", "z", "xz", "y", "sparse"])
@pytest.mark.parametrize("q", range(1, 9))
def test_rows_in_suite_order_equal_the_gathered_rows(q, kind):
    """The rows a suite reads in suite order (a reshape of the simulation's
    ``[edit, input, basis, outcome]`` buffer when the suite holds every
    (basis, input) pair once, else picked by ``case_rows``) equal, byte for
    byte, ``run_all_bases`` of each circuit alone gathered by ``case_rows``:
    of the circuit, and of every removal, an add and a replace, each edit
    lone and stacked beside
    another; and each such edit scores, to the bit in exact and in sampled
    mode (seed 3), as its gathered rows and its circuit alone do. Full,
    Z-only, X+Z, Y-only and sparse suites at 1-8 qubits; a full suite's
    bases are measured one a pass at 7 qubits, and at 8 a chunk cap of one
    state measures the lone edits in one pass and the pairs one basis a
    pass. Every cache here keeps one workspace for its lone edits and its
    chunks."""
    rng = np.random.default_rng([q, len(kind)])
    ts = _basis_suite(random_circuit(rng, q, 3), kind, rng)
    c = random_circuit(rng, q, 4 if q < 7 else 2)
    m = len(c.gates)
    edits = [(p, None, True) for p in range(m)]
    edits += [(int(rng.integers(m + 1)), random_circuit(rng, q, 1).gates[0], False)]
    edits += [(int(rng.integers(m)), random_circuit(rng, q, 1).gates[0], True)]
    beside = (m, random_circuit(rng, q, 1).gates[0], False)
    rectangular = len(ts) == len(ts.bases) * len(ts.inputs)
    assert rectangular == (kind != "sparse" or len(ts) == 3 * 2**q)
    with pytest.MonkeyPatch.context() as mp:
        state_bytes = ts.prefixes(c).state_bytes
        if q == 8:
            own_workspace_pool(mp)
            mp.setattr(simulator, "SWEEP_CHUNK_BYTES", state_bytes)
            # a lone edit has room to stack X and Y, a pair does not
            assert (simulator._most(1, state_bytes), simulator._most(2, state_bytes)) == (2, 2)
        elif q == 7 and kind == "full":
            assert state_bytes > simulator.SWEEP_CHUNK_BYTES
        cache = ts.prefixes(c)
        assert cache.workspace(1) is cache.workspace(cache.chunk)

        def gathered(circuit):
            return run_all_bases(circuit, ts.inputs, bases=ts.bases)[ts.case_rows]

        assert testkit._observed(c, ts, cache).tobytes() == gathered(c).tobytes()
        for e in edits:
            position, gate, replaces = e
            if gate is None:
                alone = remove_gate(c, position)
            else:
                alone = (replace_gate if replaces else insert_gate)(c, position, gate)
            want = gathered(alone)
            assert testkit._observed(c, ts, cache, [e]).tobytes() == want.tobytes(), e
            assert testkit._observed(c, ts, cache, [e, beside])[: len(ts)].tobytes() == want.tobytes(), e
            for cfg in (OracleConfig(), OracleConfig(mode="sampled", seed=3)):
                scores = (next(edit_fitness(c, ts, [e], cfg, cache)), testkit._scores(want, ts, cfg)[0], fitness(alone, ts, cfg))
                assert len({_hex(s) for s in scores}) == 1, (e, cfg.mode)


def _edited(c, e):
    position, gate, replaces = e
    if gate is None:
        return remove_gate(c, position)
    return (replace_gate if replaces else insert_gate)(c, position, gate)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    q=st.integers(1, 8),
    suite_kind=st.sampled_from(["full", "z", "sparse"]),
    sampled=st.booleans(),
    checkpoints=st.booleans(),
)
def test_the_one_path_matches_the_allocating_kernels_bit_for_bit(seed, q, suite_kind, sampled, checkpoints):
    """Every simulation runs in a prefix cache's workspace. Its rows equal,
    byte for byte, those of each edited circuit alone under the frozen
    allocating kernels (``kernel_run_all_bases``) and under the stacked
    oracle (``stacked_run_all_bases``), and its scores equal, to the bit,
    those rows' scores: random circuits of 1-8 qubits, 1 to ``chunk``
    edits stacked (a chunk holds at least three at any width here), some
    joining at one step and others at different ones, in the order drawn;
    caches with stride 1 and above 1; full, Z-only and sparse suites; the
    exact oracle and the sampled one with oracle seed 3. The circuit
    itself, and a lone edit, match too."""
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, q, int(rng.integers(1, 9 if q < 7 else 4)))
    ts = random_suite(random_circuit(rng, q, 2), suite_kind, rng)
    cfg = OracleConfig(mode="sampled", seed=3) if sampled else OracleConfig()
    m = len(c.gates)
    with pytest.MonkeyPatch.context() as mp:
        state_bytes = ts.prefixes(c).state_bytes
        mp.setattr(simulator, "SWEEP_CHUNK_BYTES", max(simulator.SWEEP_CHUNK_BYTES, 3 * state_bytes))
        if checkpoints:
            mp.setattr(simulator, "PREFIX_CACHE_BYTES", 2 * state_bytes)
        cache = ts.prefixes(c)
        assert cache.stride == 1 or checkpoints
        count = int(rng.integers(1, min(cache.chunk, 12) + 1))
        shared = int(rng.integers(m + 1))  # a step several edits join at
        edits = []
        for _ in range(count):
            position = shared if rng.random() < 0.4 else int(rng.integers(m + 1))
            kind = rng.choice(["add", "replace", "remove"]) if position < m else "add"
            gate = None if kind == "remove" else random_circuit(rng, q, 1).gates[0]
            edits.append((position, gate, kind != "add"))
        bases = [BASIS_ORDER.index(b) for b in ts.bases]

        def frozen(circuit):
            want = kernel_run_all_bases(circuit, ts.inputs, ts.bases)
            assert want.tobytes() == stacked_run_all_bases(circuit, ts.inputs)[bases].tobytes()
            return want

        assert run_all_bases(c, ts.inputs, ts.bases, cache).tobytes() == frozen(c).tobytes()
        got = run_all_bases(c, ts.inputs, ts.bases, cache, edits)
        scores = list(edit_fitness(c, ts, edits, cfg, cache))
        for e, rows, score in zip(edits, got, scores):
            want = frozen(_edited(c, e))
            assert rows.tobytes() == want.tobytes(), e
            assert _hex(score) == _hex(testkit._scores(want[ts.case_rows], ts, cfg)[0]), e
        assert _hex(next(edit_fitness(c, ts, edits[:1], cfg, cache))) == _hex(scores[0])
    if checkpoints and m > 2:
        assert cache.stride > 1


def test_rows_a_caller_keeps_are_never_written_again():
    """``run_all_bases`` without a buffer returns a fresh array: later
    simulations on the same cache, of the circuit, of edits and of lone
    edits, and scores drawn through the suite's buffers, leave it as it
    was. ``generate_suite`` keeps such an array as its expected rows."""
    ref = build_benchmark("qft", 3)
    ts = generate_suite(ref)
    cache = ts.prefixes(ref)
    first = run_all_bases(ref, ts.inputs, prefixes=cache)
    kept, copy = first.copy(), ts.expected.copy()
    edits = [(p, None, True) for p in range(len(ref.gates))]
    lone = run_all_bases(ref, ts.inputs, prefixes=cache, edits=edits[:1])
    kept_lone = lone.copy()
    run_all_bases(ref, ts.inputs, prefixes=cache)
    run_all_bases(ref, ts.inputs, prefixes=cache, edits=edits)
    run_all_bases(ref, ts.inputs, prefixes=cache, edits=[(0, GateApp(GateKind.H, (1,)), False)])
    list(edit_fitness(ref, ts, edits, prefixes=cache))
    next(edit_fitness(ref, ts, edits[1:2], prefixes=cache))
    assert first.tobytes() == kept.tobytes() and lone.tobytes() == kept_lone.tobytes()
    assert ts.expected.tobytes() == copy.tobytes()
    assert not np.shares_memory(first, lone)


def test_each_simulation_takes_the_suite_buffers_once(monkeypatch):
    """A simulation and its scores take the suite's rows buffer and scoring
    temporaries in one ``TestSuite.buffers`` call, sized for the cache's
    chunk: the circuit with and without a cache, a lone edit and each
    chunk of edits."""
    ref = build_benchmark("qft", 3)
    ts = generate_suite(ref)
    cache = ts.prefixes(ref)
    edits = [(p, None, True) for p in range(len(ref.gates))] * (cache.chunk // len(ref.gates) + 1)
    calls, buffers = [], type(ts).buffers
    monkeypatch.setattr(type(ts), "buffers", lambda self, *args: calls.append(args) or buffers(self, *args))
    fitness(ref, ts)
    fitness(ref, ts, prefixes=cache)
    next(edit_fitness(ref, ts, edits[:1], prefixes=cache))
    list(edit_fitness(ref, ts, edits, prefixes=cache))
    chunks = [cache.chunk, len(edits) - cache.chunk]
    assert calls == [(1, cache.chunk)] * 3 + [(b, cache.chunk) for b in chunks]
