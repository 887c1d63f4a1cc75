"""Repair-engine orchestration: budgets, pruning, reports, RS baseline."""
import dataclasses
import json
import math
import re
import time
from collections import deque
from functools import partial
from itertools import islice

import numpy as np
import pytest
from conftest import CORPUS, random_circuit, random_suite
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st
from oracles import (
    eager_order_uniform,
    looped_evaluate,
    looped_guided_search,
    looped_random_search,
    looped_try,
    scipy_minimize_params,
)

import qrep.engine
from qrep import simulator, testkit
from qrep.benchmarks import build_benchmark
from qrep.circuit import GateApp, GateKind, build_circuit, insert_gate, remove_gate, replace_gate
from qrep.engine import (
    STATUS_NOT_FIXED,
    STATUS_REPAIRED,
    Budget,
    RepairConfig,
    _Run,
    random_search,
    repair,
)
from qrep.errors import NoFailingTestError, UnknownGateError
from qrep.localizer import BudgetExhaustedError, GateId, gate_id, removals
from qrep.optimizer import OptBudget
from qrep.patcher import Patch, _qubit_choices, apply_patch, generate_patches, inject_faults
from qrep.qasm import emit_qasm, parse_qasm
from qrep.testkit import FitnessScore, OracleConfig, edit_fitness, fitness, generate_suite
from workloads import INJECTION_SEEDS, WIDE

# the hint of an unknown catalog name's error, written out
_ALL_GATES = "id,x,y,z,h,s,sdg,t,tdg,rx,ry,rz,p,u,cx,cz,cp,crz,swap,ccx"


@pytest.fixture()
def bell_suite(bell):
    return generate_suite(bell)


def cfg_evals(n, **kw):
    kw.setdefault("iterations", 4)
    return RepairConfig(budget_evals=n, **kw)


# ------------------------------------------------------------------ config

def test_config_requires_exactly_one_budget():
    with pytest.raises(ValueError):
        RepairConfig()
    with pytest.raises(ValueError):
        RepairConfig(budget_evals=10, budget_seconds=1.0)
    RepairConfig(budget_evals=10)
    RepairConfig(budget_seconds=1.0)


def test_config_validation_ranges():
    for bad in (
        dict(budget_evals=0),
        dict(budget_seconds=0.0),
        dict(budget_seconds=math.nan),  # a deadline never reached
        dict(budget_evals=10, iterations=0),
        dict(budget_evals=10, top_k=0),
    ):
        with pytest.raises(ValueError):
            RepairConfig(**bad)


def test_config_counts_and_seed_are_integers_at_construction():
    """top_k=2.5 used to spend the whole run and then fail slicing the
    ranking, budget_evals=30.5 after the baseline: a float or a bool is
    refused when the config is built, and a numpy integer is an integer."""
    for name in ("budget_evals", "iterations", "top_k", "seed"):
        for bad in (2.5, 3.0, True, np.float64(2.0)):
            with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {re.escape(repr(bad))}$"):
                RepairConfig(**{"budget_evals": 30, name: bad})
        assert getattr(RepairConfig(**{"budget_evals": 30, name: np.int64(3)}), name) == 3
    for name in ("budget_evals", "iterations", "top_k"):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got 0$"):
            RepairConfig(**{"budget_evals": 30, name: 0})


def test_config_budget_seconds_is_finite_and_positive():
    """--budget-seconds' rule: an infinite deadline never ends a search on time."""
    for bad in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match=f"^budget_seconds must be finite and > 0, got {bad}$"):
            RepairConfig(budget_seconds=bad)
    assert RepairConfig(budget_seconds=1e-300).budget_seconds == 1e-300


def test_config_catalog_names_gates_at_construction():
    """--catalog's rule, kept by the config before any evaluation is
    charged: an unknown name, or no name at all."""
    with pytest.raises(ValueError, match=f"^'foo' is not a gate; choose from {_ALL_GATES}$"):
        RepairConfig(budget_evals=10, patch_catalog=("x", "foo"))
    with pytest.raises(ValueError, match="^catalog must name at least one gate$"):
        RepairConfig(budget_evals=10, patch_catalog=())
    assert RepairConfig(budget_evals=10, patch_catalog=("x", "x")).patch_catalog == ("x", "x")


def test_budget_ledger_semantics():
    b = Budget(max_evals=2)
    b.precheck(); b.charge()
    b.precheck(); b.charge()
    with pytest.raises(BudgetExhaustedError):
        b.precheck()
    assert b.evals_used == 2


# --------------------------------------------------- repair: example cases

def test_spurious_z_repaired_by_removal(bell, bell_suite):
    broken = insert_gate(bell, 2, GateApp(GateKind.Z, (1,)))
    rep = repair(broken, bell_suite, cfg_evals(200))
    assert rep.status == STATUS_REPAIRED
    assert rep.improvement_pct == 100.0
    # the winning edit is the localisation-phase removal, reported as delete
    assert rep.best_patches[0]["kind"] == "delete"
    assert rep.best_patches[0]["position"] == 2
    assert rep.best_patches[0]["gate"] == "z"
    assert rep.evals_used <= 1 + 3  # baseline plus at most one sweep


def test_h_to_x_repaired_by_replace(bell, bell_suite):
    broken = replace_gate(bell, 0, GateApp(GateKind.X, (0,)))
    rep = repair(broken, bell_suite, cfg_evals(2000))
    assert rep.status == STATUS_REPAIRED
    best = rep.best_patches[0]
    assert (best["kind"], best["position"], best["gate"], best["qubits"]) == ("replace", 0, "h", [0])
    assert best["fitness"] == 0.0


def test_repaired_circuit_reverifies(bell, bell_suite):
    broken = replace_gate(bell, 0, GateApp(GateKind.X, (0,)))
    rep = repair(broken, bell_suite, cfg_evals(2000))
    assert rep.repaired_qasm is not None
    fixed = parse_qasm(rep.repaired_qasm)
    assert fitness(fixed, bell_suite).all_passed()


def test_ghz_cx_swap_small_budget_invariants():
    ref = build_benchmark("ghz", 3)
    ts = generate_suite(ref)
    broken = replace_gate(ref, 1, GateApp(GateKind.CX, (1, 0)))
    fault = gate_id(1, broken.gates[1])
    rep = repair(broken, ts, cfg_evals(50), fault_gate=fault)
    assert rep.status in (STATUS_REPAIRED, STATUS_NOT_FIXED)
    assert 0.0 <= rep.improvement_pct <= 100.0
    assert len(rep.ranking) == len(broken.gates)
    assert rep.fault_percentile is not None
    assert 0.0 <= rep.fault_percentile <= 100.0
    assert rep.evals_used <= 50


def test_not_fixed_report_shape(bell, bell_suite):
    # budget 4 = baseline + 2-gate sweep + one patch: too small to fix
    broken = replace_gate(bell, 0, GateApp(GateKind.X, (0,)))
    rep = repair(broken, bell_suite, cfg_evals(4))
    assert rep.status == STATUS_NOT_FIXED
    assert rep.repaired_qasm is None
    assert rep.evals_used == 4  # exhausted exactly
    base = fitness(broken, bell_suite).value
    fits = [p["fitness"] for p in rep.best_patches]
    assert fits == sorted(fits)
    assert all(f <= base for f in fits)


def _spy_scored(monkeypatch):
    """Count the calls of ``_Run.scored`` (a removal sweep is one call, and
    so is each angle probe, a stream of one edit) and log every edit they
    draw: an edit is drawn only once its chunk has passed the budget
    check."""
    calls, drawn = [], []
    real = _Run.scored

    def scored(self, edits):
        calls.append(None)
        return real(self, (drawn.append(e) or e for e in edits))

    monkeypatch.setattr(_Run, "scored", scored)
    return calls, drawn


def _probes(c, drawn):
    """(angles, edited circuit) of each angle probe among the ``drawn`` edits of ``c``."""
    return [
        (g.params, (replace_gate if replaces else insert_gate)(c, pos, g))
        for pos, g, replaces in drawn
        if g is not None and g.params
    ]


def test_budget_spent_inside_cobyla_trial_records_its_best(bell, bell_suite, monkeypatch):
    # baseline + 2-gate sweep = 3 evaluations; the first rx trial gets the
    # remaining 5 of its 20 and is cut by the budget on its 6th probe
    broken = replace_gate(bell, 0, GateApp(GateKind.X, (0,)))
    calls, drawn = _spy_scored(monkeypatch)
    values = []  # the value of each score drawn, in draw order, simulated or recalled
    spied = _Run.scored

    def scored_spy(self, edits):
        for score in spied(self, edits):
            values.append(score.value)
            yield score

    monkeypatch.setattr(_Run, "scored", scored_spy)
    rep = repair(broken, bell_suite, cfg_evals(8, iterations=1, patch_catalog=("rx",)))
    assert rep.status == STATUS_NOT_FIXED
    assert rep.evals_used == 8
    probes = [params for params, _ in _probes(broken, drawn)]
    assert len(calls) == 1 + 6 and len(probes) == 5  # the 6th probe was refused before its edit was drawn
    trial = list(zip(probes, values[len(drawn) - len(probes):]))  # the sweep's 2 scores come first
    assert len(trial) == 5
    best_params, best_value = min(trial, key=lambda pv: pv[1])
    patches = [p for p in rep.best_patches if p["kind"] != "delete"]
    assert len(patches) == 1
    assert patches[0]["gate"] == "rx"
    assert patches[0]["fitness"] == best_value
    assert tuple(patches[0]["params"]) == best_params


def _script_trials(monkeypatch, scores):
    """Make the engine's evaluations, the removal sweep's included, return
    ``scores`` in order; count the calls of ``_Run.scored`` and log the
    edits they draw (see :func:`_spy_scored`).
    Scripted scores need not keep the rule the run's memory of scores
    rests on (a zero-angle add scores as the baseline), so no probe is
    recalled: each takes the next scripted score."""
    scripted = iter(scores)
    monkeypatch.setattr(qrep.engine, "fitness", lambda *args: next(scripted))
    monkeypatch.setattr(_Run, "recalled", lambda self, edit: None)
    monkeypatch.setattr(qrep.engine, "edit_fitness", lambda c, ts, edits, *args: (next(scripted) for _ in edits))
    return _spy_scored(monkeypatch)


def test_passing_probe_is_recorded_even_when_an_earlier_probe_scored_lower(bell, bell_suite, monkeypatch):
    # baseline, then the 2-gate removal sweep, all failing; the first rx
    # trial's first probe fails at 1.0, and its second passes at 1.5
    broken = replace_gate(bell, 0, GateApp(GateKind.X, (0,)))
    failing = [FitnessScore(3, 0.0), FitnessScore(2, 0.5), FitnessScore(2, 0.5)]
    _, drawn = _script_trials(monkeypatch, failing + [FitnessScore(1, 0.0), FitnessScore(0, 1.5)])
    rep = repair(broken, bell_suite, cfg_evals(50, iterations=1, patch_catalog=("rx",)))
    assert rep.status == STATUS_REPAIRED
    probes = _probes(broken, drawn)
    assert len(probes) == 2
    params, repaired = probes[1]
    assert rep.repaired_qasm == emit_qasm(repaired)
    trials = [p for p in rep.best_patches if p["kind"] != "delete"]
    assert len(trials) == 1
    assert trials[0]["gate"] == "rx"
    assert trials[0]["fitness"] == 1.5
    assert tuple(trials[0]["params"]) == params


def test_random_search_trial_cut_by_budget_records_its_best_draw_once(bell, bell_suite, monkeypatch):
    # the baseline, then 5 failing draws of the first rx trial before the
    # budget refuses its 6th
    broken = replace_gate(bell, 0, GateApp(GateKind.X, (0,)))
    draws = [FitnessScore(1, h) for h in (1.0, 0.25, 0.75, 1.5, 0.5)]
    calls, drawn = _script_trials(monkeypatch, [FitnessScore(3, 0.0)] + draws)
    rep = random_search(broken, bell_suite, cfg_evals(6, patch_catalog=("rx",)))
    assert rep.status == STATUS_NOT_FIXED
    assert rep.evals_used == 6
    probes = _probes(broken, drawn)
    assert len(calls) == 6 and len(probes) == 5  # the 6th draw was refused before its edit was drawn
    assert len(rep.best_patches) == 1
    row = rep.best_patches[0]
    assert row["gate"] == "rx"
    assert row["fitness"] == 1.25
    assert tuple(row["params"]) == probes[1][0]


def test_one_gate_mutant_of_empty_reference_repaired_to_zero_gates():
    ref = build_circuit(1, [])
    broken = build_circuit(1, [("x", (0,))])
    rep = repair(broken, generate_suite(ref), cfg_evals(10))
    assert rep.status == STATUS_REPAIRED
    assert rep.evals_used == 2  # baseline + the removal
    fixed = parse_qasm(rep.repaired_qasm)
    assert len(fixed.gates) == 0


def test_requires_failing_input(bell, bell_suite):
    with pytest.raises(NoFailingTestError):
        repair(bell, bell_suite, cfg_evals(100))


def test_budget_one_flags_partial_localisation(bell, bell_suite):
    broken = replace_gate(bell, 0, GateApp(GateKind.X, (0,)))
    rep = repair(broken, bell_suite, cfg_evals(1))
    assert rep.status == STATUS_NOT_FIXED
    assert rep.partial_localisation
    assert rep.evals_used == 1
    assert rep.best_patches == []
    assert rep.improvement_pct == 0.0


def test_budget_exactness_sweep(bell, bell_suite):
    broken = replace_gate(bell, 0, GateApp(GateKind.X, (0,)))
    for n in (1, 2, 3, 5, 17, 40):
        rep = repair(broken, bell_suite, cfg_evals(n))
        assert rep.evals_used <= n


@pytest.mark.parametrize("search", [repair, random_search])
@pytest.mark.parametrize("budget", [2**63 + 1, 10**30, 10**400], ids=["2**63+1", "10**30", "10**400"])
def test_count_budget_beyond_sys_maxsize_runs_as_the_largest_index_does(bell, bell_suite, search, budget):
    # every budget is above sys.maxsize, which no islice or slice can take as a
    # bound, and 10**400 is above the largest float too
    broken = replace_gate(bell, 0, GateApp(GateKind.X, (0,)))
    want = search(broken, bell_suite, cfg_evals(2**63 - 1)).to_dict()
    got = search(broken, bell_suite, cfg_evals(budget)).to_dict()
    for rep in (want, got):
        rep.pop("wall_seconds")
        rep["config"].pop("budget_evals")
    assert got == want
    assert got["status"] == STATUS_REPAIRED


def test_each_patch_tried_at_most_once(bell, bell_suite):
    # fixed-gate catalog: every candidate row is one queue entry; no repeats
    broken = replace_gate(bell, 0, GateApp(GateKind.X, (0,)))
    rep = repair(broken, bell_suite, cfg_evals(5000, patch_catalog=("x", "y", "z", "h", "s", "t")))
    tried = [
        (p["kind"], p["position"], p["gate"], tuple(p["qubits"]))
        for p in rep.best_patches
        if p["kind"] != "delete"
    ]
    assert len(tried) == len(set(tried))


def test_report_key_order(bell, bell_suite):
    broken = replace_gate(bell, 0, GateApp(GateKind.X, (0,)))
    rep = repair(broken, bell_suite, cfg_evals(20))
    assert list(rep.to_dict().keys()) == [
        "status",
        "repaired_qasm",
        "best_patches",
        "ranking",
        "improvement_pct",
        "fault_percentile",
        "evals_used",
        "wall_seconds",
        "partial_localisation",
        "config",
    ]
    entry = rep.to_dict()["ranking"][0]
    assert set(entry) == {"gate_id", "score", "percentile"}


@pytest.mark.parametrize("budget,status", [(2000, STATUS_REPAIRED), (4, STATUS_NOT_FIXED)])
def test_report_dict_writes_the_json_of_a_deep_copy(bell, bell_suite, budget, status):
    broken = replace_gate(bell, 0, GateApp(GateKind.X, (0,)))
    rep = repair(broken, bell_suite, cfg_evals(budget))
    assert rep.status == status and rep.best_patches and rep.ranking
    assert json.dumps(rep.to_dict(), indent=2) == json.dumps(dataclasses.asdict(rep), indent=2)


@pytest.mark.parametrize("search", [repair, random_search])
@pytest.mark.parametrize("fault", [GateId(0, "h", (0,)), GateId(99, "h", (0,)), GateId(1, "cx", (1, 0))])
def test_fault_gate_naming_no_gate_is_rejected(bell, bell_suite, search, fault):
    broken = replace_gate(bell, 0, GateApp(GateKind.X, (0,)))  # gate 0 is x, gate 1 cx(0, 1)
    with pytest.raises(UnknownGateError, match=f"fault gate {fault} names no gate of the circuit"):
        search(broken, bell_suite, cfg_evals(10), fault_gate=fault)


def test_fault_percentile_absent_without_ground_truth(bell, bell_suite):
    broken = replace_gate(bell, 0, GateApp(GateKind.X, (0,)))
    rep = repair(broken, bell_suite, cfg_evals(10))
    assert rep.fault_percentile is None


def test_repair_deterministic(bell, bell_suite):
    broken = replace_gate(bell, 0, GateApp(GateKind.X, (0,)))
    a = repair(broken, bell_suite, cfg_evals(60, seed=4)).to_dict()
    b = repair(broken, bell_suite, cfg_evals(60, seed=4)).to_dict()
    a.pop("wall_seconds"); b.pop("wall_seconds")
    assert a == b


def test_seconds_budget_mode_smoke(bell, bell_suite):
    broken = insert_gate(bell, 2, GateApp(GateKind.Z, (1,)))
    rep = repair(broken, bell_suite, RepairConfig(budget_seconds=30.0))
    assert rep.status == STATUS_REPAIRED  # removal sweep finds it immediately
    assert rep.wall_seconds < 30.0


def _ticking_simulations(mp) -> list[int]:
    """A clock that stands still but for one second per simulation, read
    as ``time.monotonic``, and the circuits each simulation stacks."""
    clock = [0.0]
    blocks = _simulated_blocks(mp)
    counted = testkit._observed

    def ticking(c, ts, prefixes, edits=None, out=None):
        clock[0] += 1.0
        return counted(c, ts, prefixes, edits, out)

    mp.setattr(testkit, "_observed", ticking)
    mp.setattr(time, "monotonic", lambda: clock[0])
    return blocks


def test_seconds_budget_checks_each_edit_before_its_chunk_and_charges_every_chunk_it_starts(monkeypatch):
    """Under a seconds budget the budget is checked before each chunk is drawn:
    a chunk whose simulation ends past the deadline is charged in full,
    and no chunk starts once a check has failed, in a sweep (two removals
    to a chunk) and in the runs of fixed patches (one patch to a run)."""
    ghz = build_benchmark("ghz", 3)
    ts = generate_suite(ghz)
    broken = insert_gate(insert_gate(ghz, 1, GateApp(GateKind.X, (2,))), 3, GateApp(GateKind.Y, (0,)))
    baseline = fitness(broken, ts)
    monkeypatch.setattr(simulator, "SWEEP_CHUNK_BYTES", 2 * ts.prefixes(broken).state_bytes)
    with pytest.MonkeyPatch.context() as mp:
        blocks = _ticking_simulations(mp)
        run = _Run(broken, ts, RepairConfig(budget_seconds=1.5), None)
        run.budget.started = 0.0
        loc = qrep.engine.localize(broken, baseline, run.scored(qrep.engine.removals(broken)))
    # the second chunk starts at 1 s and ends at 2 s, past the deadline
    assert blocks == [2, 2]
    assert loc.partial and len(loc.removal_fitness) == run.budget.evals_used == 4
    # the baseline ends at 1 s and each run of one fixed patch a second later
    with pytest.MonkeyPatch.context() as mp:
        blocks = _ticking_simulations(mp)
        run = _Run(broken, ts, RepairConfig(budget_seconds=2.5, patch_catalog=("z",)), None)
        run.budget.started = 0.0
        rep = run.drive(run.random_search)
    assert rep.status == STATUS_NOT_FIXED
    assert blocks == [1, 1, 1] and rep.evals_used == 3
    assert len(run.candidates) == 2


@pytest.mark.parametrize("seconds, evals, simulated, end", [(6.5, 15, 14, 7.0), (9.5, 18, 17, 10.0), (12.5, 21, 20, 13.0)])
def test_seconds_budget_starts_no_angle_probe_after_its_deadline(seconds, evals, simulated, end):
    """Under a seconds budget an angle probe, a stream of one edit, is
    checked before it is drawn: on a clock that ticks once per simulation,
    the baseline, the sweep's one chunk, a zero-angle probe answered from
    the baseline and the ry probes simulated one at a time end with the
    last probe that started before the deadline, charged in full."""
    ref = build_benchmark("wstate", 3)
    broken = remove_gate(ref, 2)
    with pytest.MonkeyPatch.context() as mp:
        blocks = _ticking_simulations(mp)
        recalled, remembered = [], _Run.recalled
        mp.setattr(_Run, "recalled", lambda self, edit: recalled.append(score := remembered(self, edit)) or score)
        run = _Run(broken, generate_suite(ref), RepairConfig(budget_seconds=seconds, patch_catalog=("ry",)), None)
        run.budget.started = 0.0
        rep = run.drive(run.guided_search)
        assert time.monotonic() == end
    held = sum(score is not None for score in recalled)
    assert (rep.status, rep.evals_used, sum(blocks) - held, held) == (STATUS_NOT_FIXED, evals, simulated, 1)


@pytest.mark.parametrize("search", [repair, random_search])
def test_seconds_budget_spent_before_the_baseline_ends_in_a_report(monkeypatch, slow_prefix_build, search):
    """A one-second budget that building the prefix cache spends (ten
    seconds on the clock): the baseline is still evaluated and charged,
    the search stops at its first check, and the run ends NotFixed with a
    report, the guided search's sweep partial."""
    ghz = build_benchmark("ghz", 3)
    ts = generate_suite(ghz)
    broken = insert_gate(ghz, 1, GateApp(GateKind.X, (2,)))
    blocks = _simulated_blocks(monkeypatch)
    rep = search(broken, ts, RepairConfig(budget_seconds=1.0))
    assert (rep.status, rep.evals_used, blocks) == (STATUS_NOT_FIXED, 1, [1])
    assert rep.partial_localisation is (search is repair)
    assert rep.best_patches == [] and rep.wall_seconds >= 1.0


def test_optimizer_evals_are_charged(bell, bell_suite):
    # parametric-only catalog: every trial spends optimizer evaluations
    broken = replace_gate(bell, 0, GateApp(GateKind.X, (0,)))
    n = 30
    rep = repair(broken, bell_suite, cfg_evals(n, patch_catalog=("rx", "ry", "rz")))
    assert rep.evals_used <= n
    if rep.status == STATUS_NOT_FIXED:
        assert rep.evals_used == n


@pytest.mark.parametrize("family,n,seed", [("wstate", 4, 0), ("qft", 4, 5)])
def test_one_angle_port_repairs_as_scipy_does(monkeypatch, family, n, seed):
    # the replace mutants run rx/ry/rz trials (converged and not) within 300 evaluations
    ref = build_benchmark(family, n)
    ts = generate_suite(ref)
    rec = next(r for r in inject_faults(ref, seed=seed, per_group=1) if r.group == "replace")
    cfg = RepairConfig(budget_evals=300, iterations=4, seed=seed)
    reports = []
    for minimize in (qrep.engine.minimize_params, scipy_minimize_params):
        monkeypatch.setattr(qrep.engine, "minimize_params", minimize)
        d = repair(rec.mutant, ts, cfg, fault_gate=rec.fault_gate).to_dict()
        d.pop("wall_seconds")
        reports.append(d)
    assert any(p["params"] for p in reports[0]["best_patches"])
    assert reports[0] == reports[1]


# ------------------------------------------------------------ random search

def test_rs_deterministic_same_seed(bell, bell_suite):
    broken = replace_gate(bell, 0, GateApp(GateKind.X, (0,)))
    a = random_search(broken, bell_suite, cfg_evals(80, seed=9)).to_dict()
    b = random_search(broken, bell_suite, cfg_evals(80, seed=9)).to_dict()
    a.pop("wall_seconds"); b.pop("wall_seconds")
    assert a == b


def test_rs_eventually_repairs_h_to_x(bell, bell_suite):
    broken = replace_gate(bell, 0, GateApp(GateKind.X, (0,)))
    rep = random_search(broken, bell_suite, cfg_evals(5000, seed=0))
    assert rep.status == STATUS_REPAIRED
    fixed = parse_qasm(rep.repaired_qasm)
    assert fitness(fixed, bell_suite).all_passed()


def test_rs_zero_remaining_budget(bell, bell_suite):
    broken = replace_gate(bell, 0, GateApp(GateKind.X, (0,)))
    rep = random_search(broken, bell_suite, cfg_evals(1))
    assert rep.status == STATUS_NOT_FIXED
    assert rep.evals_used == 1  # the baseline consumed everything
    assert rep.best_patches == []


def test_rs_budget_exact_on_exhaustion(bell, bell_suite):
    broken = replace_gate(bell, 0, GateApp(GateKind.X, (0,)))
    rep = random_search(broken, bell_suite, cfg_evals(25, seed=1))
    assert rep.evals_used <= 25
    if rep.status == STATUS_NOT_FIXED:
        assert rep.evals_used == 25


def test_rs_different_seeds_differ(bell, bell_suite):
    broken = replace_gate(bell, 0, GateApp(GateKind.X, (0,)))
    a = random_search(broken, bell_suite, cfg_evals(40, seed=0))
    b = random_search(broken, bell_suite, cfg_evals(40, seed=123))
    assert a.best_patches != b.best_patches or a.status != b.status


# ------------------------------------------------------- sampled-mode smoke

def test_sampled_oracle_end_to_end(bell, bell_suite):
    broken = insert_gate(bell, 2, GateApp(GateKind.Z, (1,)))
    ts = generate_suite(bell)
    cfg = RepairConfig(budget_evals=300, oracle=OracleConfig(mode="sampled", seed=5))
    rep = repair(broken, ts, cfg)
    assert rep.status in (STATUS_REPAIRED, STATUS_NOT_FIXED)
    assert rep.evals_used <= 300


# ------------------------------------------- lazy queue against the eager one

@pytest.mark.parametrize("family,n,seed", CORPUS)
def test_guided_search_matches_eager_queue_on_corpus(family, n, seed, monkeypatch):
    """Every report field but the wall time equals a run whose queue is the
    eager pool ordered up front and pruned by filtering it."""
    ref = build_benchmark(family, n)
    ts = generate_suite(ref)
    for rec in inject_faults(ref, seed=seed, per_group=1):
        for budget in (60, 250):
            cfg = cfg_evals(budget, seed=seed)
            got = repair(rec.mutant, ts, cfg, fault_gate=rec.fault_gate).to_dict()
            with monkeypatch.context() as m:
                m.setattr(qrep.engine, "order_uniform",
                          lambda c, catalog: deque(eager_order_uniform(generate_patches(c, catalog), c)))
                m.setattr(qrep.engine, "prune_to_gates", lambda q, keep: deque(p for p in q if p.anchor in keep))
                want = repair(rec.mutant, ts, cfg, fault_gate=rec.fault_gate).to_dict()
            got.pop("wall_seconds"), want.pop("wall_seconds")
            assert got == want, (rec.description, budget)


def test_guided_search_stops_when_budget_spent(bell, bell_suite):
    """No single edit repairs this circuit, so the search runs to the end
    of its budget; iterations left after it cost nothing."""
    broken = build_circuit(2, [("x", 0), ("y", 1), ("cx", (0, 1))])
    for iterations in (10**18, 2**70):
        start = time.monotonic()
        rep = repair(broken, bell_suite, cfg_evals(30, iterations=iterations))
        assert time.monotonic() - start < 1.0
        assert rep.status == STATUS_NOT_FIXED and rep.evals_used == 30


def test_seconds_budget_over_many_iterations_tries_patches(bell, bell_suite):
    """Each turn of the search tries a patch, even when the spend has passed
    many iterations' end marks by the time it starts."""
    broken = build_circuit(2, [("x", 0), ("y", 1), ("cx", (0, 1))])
    rep = repair(broken, bell_suite, RepairConfig(budget_seconds=0.5, iterations=10**7))
    assert {row["kind"] for row in rep.best_patches} - {"delete"}, rep.best_patches


@pytest.mark.parametrize("family,n,seed", CORPUS)
def test_skipped_iterations_match_every_iteration_loop_on_corpus(family, n, seed, monkeypatch):
    """Skipping the iterations whose end mark is passed, with one prune for
    them, gives the report of the loop that runs every iteration."""
    ref = build_benchmark(family, n)
    ts = generate_suite(ref)
    for rec in inject_faults(ref, seed=seed, per_group=1):
        for iterations in range(1, 13):
            cfg = cfg_evals(40, seed=seed, iterations=iterations)
            got = repair(rec.mutant, ts, cfg, fault_gate=rec.fault_gate).to_dict()
            with monkeypatch.context() as m:
                m.setattr(qrep.engine._Run, "guided_search", looped_guided_search)
                want = repair(rec.mutant, ts, cfg, fault_gate=rec.fault_gate).to_dict()
            got.pop("wall_seconds"), want.pop("wall_seconds")
            assert got == want, (rec.description, iterations)


# ------------------------------- stacked edits and runs against one by one


def _random_edits(rng, c, count):
    """``count`` random single-gate edits of ``c``, adds, replaces and
    removals of gates of every kind, several at each of a few positions,
    and the circuit each one makes."""
    m = len(c.gates)
    positions = rng.integers(0, m + 1, size=max(1, count // 2))
    edits, circuits = [], []
    for _ in range(count):
        pos = int(rng.choice(positions))
        op = "add" if pos == m else rng.choice(["add", "replace", "remove"])
        g = random_circuit(rng, c.num_qubits, 1).gates[0]
        if op == "add":
            edits.append((pos, g, False)), circuits.append(insert_gate(c, pos, g))
        elif op == "replace":
            edits.append((pos, g, True)), circuits.append(replace_gate(c, pos, g))
        else:
            edits.append((pos, None, True)), circuits.append(remove_gate(c, pos))
    return edits, circuits


def _hex(scores):
    return [(s.failed_count, s.hellinger_sum.hex()) for s in scores]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    q=st.integers(1, 7),
    suite_kind=st.sampled_from(["full", "z", "sparse"]),
    sampled=st.booleans(),
    chunk=st.integers(1, 9),
)
def test_stacked_edits_match_each_edited_circuit_alone(seed, q, suite_kind, sampled, chunk):
    """Every ``edit_fitness`` score equals, to the bit, ``fitness`` of its
    edited circuit alone: random references of 1-7 qubits (edited as they
    are or with a stray gate, whose removal may pass), add, replace and
    remove edits of every gate kind, several at one position, in any
    order, full, Z-only and sparse suites, both oracles, and the edits
    drawn from a generator in chunks as the chunk bound, patched to 1-9
    states, cuts them. A caller that stops after k scores has drawn no edit past the
    chunk holding score k, and each chunk is one simulation; the cache is
    built once when none is given."""
    rng = np.random.default_rng(seed)
    ref = random_circuit(rng, q, int(rng.integers(0, 8 if q < 6 else 5)))
    c = ref
    if rng.random() < 0.5:
        c = insert_gate(ref, int(rng.integers(len(ref.gates) + 1)), random_circuit(rng, q, 1).gates[0])
    ts = random_suite(ref, suite_kind, rng)
    cfg = OracleConfig(mode="sampled", seed=seed) if sampled else OracleConfig()
    prefixes = ts.prefixes(c)
    edits, circuits = _random_edits(rng, c, int(rng.integers(1, 3 * chunk + 1)))
    take = int(rng.integers(1, len(edits) + 1))
    drawn, built = [], []

    def stream():
        for e in edits:
            drawn.append(e)
            yield e

    with pytest.MonkeyPatch.context() as mp:
        bound = chunk * prefixes.state_bytes + int(rng.integers(prefixes.state_bytes))
        mp.setattr(simulator, "SWEEP_CHUNK_BYTES", bound)
        blocks = _simulated_blocks(mp)
        given_cache = rng.random() < 0.5
        if not given_cache:
            mp.setattr(ts, "prefixes", lambda c: built.append(c) or prefixes)
        scores = edit_fitness(c, ts, stream(), cfg, prefixes if given_cache else None)
        got = list(islice(scores, take))
        assert len(drawn) == min(len(edits), -(-take // chunk) * chunk)
        assert blocks == [min(chunk, len(edits) - lo) for lo in range(0, take, chunk)]
        got += scores
    assert blocks == [min(chunk, len(edits) - lo) for lo in range(0, len(edits), chunk)]
    assert len(built) == (0 if given_cache else 1)
    assert _hex(got) == _hex(fitness(cand, ts, cfg) for cand in circuits)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    q=st.integers(1, 6),
    suite_kind=st.sampled_from(["full", "z", "sparse"]),
    sampled=st.booleans(),
    checkpoints=st.booleans(),
)
def test_angle_probes_score_as_their_patched_circuits_alone(seed, q, suite_kind, sampled, checkpoints):
    """Every angle probe ``try_patch`` draws through ``_Run.scored``, a stream
    of one edit, scores to the bit as a fresh ``fitness`` of
    ``apply_patch``'s circuit with no prefix cache: random circuits of
    1-6 qubits, every parametric kind, an add at every position (the
    append included) and a replace of every gate, angles from COBYLA and
    from random draws, prefix caches that keep every state or only
    checkpoints, full, Z-only and sparse suites, and both oracles."""
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, q, int(rng.integers(0, 9 if q < 5 else 6)))
    ts = random_suite(c, suite_kind, rng)
    oracle = OracleConfig(mode="sampled", seed=seed) if sampled else OracleConfig()
    kinds = [k for k in GateKind if k.param_count and k.num_qubits <= q]
    slots = [("add", pos) for pos in range(len(c.gates) + 1)] + [("replace", pos) for pos in range(len(c.gates))]
    patches = [
        Patch(kind, pos, k, tuple(int(b) for b in rng.permutation(q)[: k.num_qubits]))
        for kind, pos in slots
        for k in kinds
    ]
    cfg = cfg_evals(10**6, oracle=oracle, opt=OptBudget(max_evals=3))
    log = []
    with pytest.MonkeyPatch.context() as mp:
        if checkpoints:
            mp.setattr(simulator, "PREFIX_CACHE_BYTES", 2 * ts.prefixes(c).state_bytes)
        real = _Run.scored

        def logged(self, edits):
            (edit,) = edits  # a probe is drawn alone
            for score in real(self, (edit,)):
                log.append((edit, score))
                yield score

        mp.setattr(_Run, "scored", logged)
        run = _Run(c, ts, cfg, None)
        for i, patch in enumerate(patches):
            start = len(log)
            try:
                run.try_patch(patch, np.random.default_rng(i) if i % 2 else None)
            except qrep.engine._FullPass:
                pass
            assert len(log) > start
            for (pos, g, replaces), score in log[start:]:
                assert (pos, replaces) == (patch.position, patch.kind == "replace")
                assert (g.kind, g.qubits) == (patch.gate, patch.qubits)
                assert _hex([score]) == _hex([fitness(apply_patch(c, patch, g.params), ts, oracle)]), (patch, g.params)
    if checkpoints and len(c.gates) > 2:
        assert run.prefixes.stride > 1


def _simulated_blocks(mp) -> list[int]:
    """The number of circuits each simulation from now on stacks (a lone
    edit is one), and a 1 for each angle probe a run answers from the
    scores it holds (``_Run.recalled``), which is charged but not
    simulated: the list sums to the evaluations scored."""
    blocks = []
    real, recalled = testkit._observed, _Run.recalled

    def counted(c, ts, prefixes, edits=None, out=None):
        blocks.append(1 if edits is None else len(edits))
        return real(c, ts, prefixes, edits, out)

    def remembered(self, edit):
        score = recalled(self, edit)
        if score is not None:
            blocks.append(1)
        return score

    mp.setattr(testkit, "_observed", counted)
    mp.setattr(_Run, "recalled", remembered)
    return blocks


def _searched(c, ts, cfg, search, chunk):
    """The report (less its wall time) and every trial row of one search
    (a _Run method, or a function of the run), with the circuits each
    simulation stacked; the spends below the budget at which the queue was
    pruned, each once (the one-at-a-time search also prunes before the
    iterations it skips and once the budget is spent); and how often a run
    of fixed patches was split: simulated short of ``chunk`` edits, then
    followed by more fixed patches with no prune between (an angle probe,
    one edit that has angles, is not a run)."""
    with pytest.MonkeyPatch.context() as mp:
        blocks = _simulated_blocks(mp)
        run, trail = _Run(c, ts, cfg, None), []
        prune, simulate = qrep.engine.prune_to_gates, testkit._observed

        def pruned(*args):
            trail.append(("prune", run.budget.evals_used))
            return prune(*args)

        def simulated(c, ts, prefixes, edits=None, out=None):
            # a run of fixed patches is the only simulation of gates without angles
            trail.append(("sim", 0 if edits is None or edits[0][1] is None or edits[0][1].params else len(edits)))
            return simulate(c, ts, prefixes, edits, out)

        mp.setattr(qrep.engine, "prune_to_gates", pruned)
        mp.setattr(testkit, "_observed", simulated)
        rep = run.drive(getattr(run, search) if isinstance(search, str) else partial(search, run)).to_dict()
    rep.pop("wall_seconds")
    prunes = [v for v in dict.fromkeys(v for k, v in trail if k == "prune") if v < cfg.budget_evals]
    split = sum(a[0] == b[0] == "sim" and 0 < a[1] < chunk and b[1] > 0 for a, b in zip(trail, trail[1:]))
    return rep, run.candidates, blocks, prunes, split


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@example(seed=6, q=1, chunk=2, budget=34, iterations=3)  # runs that cross fractional marks
@given(
    seed=st.integers(0, 2**32 - 1),
    q=st.integers(1, 4),
    chunk=st.integers(1, 9),
    budget=st.integers(1, 80),
    iterations=st.integers(1, 5),
)
def test_stacked_runs_match_one_patch_at_a_time(seed, q, chunk, budget, iterations):
    """The guided and random searches, which stack their runs of fixed
    patches, give the report and trial rows of the searches that try each
    patch alone: random circuits with one or two stray gates, catalogs
    mixing fixed and parametric kinds, chunks of 1-9 patches and count
    budgets that cut runs, and they prune their queues at the same spends.
    A run of fixed patches is simulated in whole chunks but for its last,
    no simulation stacks more than a chunk, none goes past the budget, and
    only a repair leaves blocks uncharged: the ones after it in its chunk."""
    rng = np.random.default_rng(seed)
    ref = random_circuit(rng, q, int(rng.integers(1, 6)))
    c = ref
    for _ in range(int(rng.integers(1, 3))):
        c = insert_gate(c, int(rng.integers(len(c.gates) + 1)), random_circuit(rng, q, 1).gates[0])
    ts = generate_suite(ref)
    assume(not fitness(c, ts).all_passed())
    names = [k.gate_name for k in GateKind if k.num_qubits <= q]
    catalog = tuple(rng.choice(names, size=int(rng.integers(1, 6)), replace=False).tolist())
    cfg = cfg_evals(budget, iterations=iterations, seed=seed, patch_catalog=catalog, opt=OptBudget(max_evals=3))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "SWEEP_CHUNK_BYTES", chunk * ts.prefixes(c).state_bytes)
        for search, looped in (("guided_search", looped_guided_search), ("random_search", looped_random_search)):
            got, got_rows, blocks, got_prunes, split = _searched(c, ts, cfg, search, chunk)
            want, want_rows, _, want_prunes, _ = _searched(c, ts, cfg, looped, chunk)
            assert (got, got_rows, got_prunes, split) == (want, want_rows, want_prunes, 0), search
            assert all(1 <= n <= chunk for n in blocks) and sum(blocks) <= budget
            if got["status"] == STATUS_NOT_FIXED:
                assert sum(blocks) == got["evals_used"]
            else:
                assert got["evals_used"] <= sum(blocks) <= got["evals_used"] + blocks[-1] - 1


def test_a_fixed_patch_repairing_mid_chunk_drops_the_rest_of_its_chunk(bell, bell_suite, monkeypatch):
    """Five fixed patches stacked in one chunk, the third of which puts
    back the h: the run charges, records and credits the first two, records
    the third and raises with its circuit, and leaves the last two
    simulated but neither charged, recorded nor credited."""
    broken = replace_gate(bell, 0, GateApp(GateKind.X, (0,)))
    patches = [
        Patch("add", 0, GateKind.Z, (0,), gate_id(0, broken.gates[0])),
        Patch("add", 1, GateKind.Y, (1,), gate_id(1, broken.gates[1])),
        Patch("replace", 0, GateKind.H, (0,), gate_id(0, broken.gates[0])),
        Patch("add", 2, GateKind.X, (1,), gate_id(1, broken.gates[1])),
        Patch("replace", 1, GateKind.CZ, (0, 1), gate_id(1, broken.gates[1])),
    ]
    monkeypatch.setattr(simulator, "SWEEP_CHUNK_BYTES", 8 * bell_suite.prefixes(broken).state_bytes)
    blocks = _simulated_blocks(monkeypatch)
    run = _Run(broken, bell_suite, cfg_evals(50), None)
    run.baseline = looped_evaluate(run, broken)
    with pytest.raises(qrep.engine._FullPass) as raised:
        run.try_run(patches[0], deque(patches[1:]), run.budget.limit)
    assert blocks == [1, 5]  # the baseline, then the whole run in one chunk
    assert raised.value.circuit == apply_patch(broken, patches[2])
    assert run.budget.evals_used == 1 + 3
    assert [(r["kind"], r["position"], r["gate"]) for r in run.candidates] == [
        ("add", 0, "z"), ("add", 1, "y"), ("replace", 0, "h")
    ]
    # the same first two patches tried alone credit the table as the run did
    alone = _Run(broken, bell_suite, cfg_evals(50), None)
    alone.baseline = looped_evaluate(alone, broken)
    for p in patches[:2]:
        looped_try(alone, p)
    assert run.table.scores == alone.table.scores
    assert run.candidates[:2] == alone.candidates


def test_a_run_ends_at_the_first_whole_evaluation_past_a_fractional_mark(bell, bell_suite, monkeypatch):
    """13 evaluations over four iterations, after the baseline and a sweep
    of two removals, put the end marks at 5.5, 8, 10.5 and 13: each run of
    fixed patches holds ``ceil(mark) - evals_used`` of them (3, 2, 3, 2),
    and the queue is pruned before the patch after the run is tried."""
    broken = replace_gate(bell, 0, GateApp(GateKind.X, (0,)))
    events = _simulated_blocks(monkeypatch)
    prune = qrep.engine.prune_to_gates

    def logged_prune(queue, keep):
        events.append("prune")
        return prune(queue, keep)

    monkeypatch.setattr(qrep.engine, "prune_to_gates", logged_prune)
    rep = repair(broken, bell_suite, cfg_evals(13, patch_catalog=("x", "y", "z", "s", "t")))
    assert rep.status == STATUS_NOT_FIXED and rep.evals_used == 13
    assert events == [1, 2, 3, "prune", 2, "prune", 3, "prune", 2]


def _benchmark_mutants():
    """The 27 mutants of perfbench's ``corpus`` and ``wide`` workloads, each
    with its reference's suite."""
    for family, n, seed in CORPUS + [(family, n, INJECTION_SEEDS[family]) for family, n in WIDE]:
        ts = generate_suite(build_benchmark(family, n))
        for record in inject_faults(build_benchmark(family, n), seed=seed, per_group=1, suite=ts):
            yield f"{family}{n}/{record.group}", record.mutant, ts


def test_zero_angle_edits_score_as_the_circuit_or_its_removal():
    """On the 27 benchmark mutants, every parametric kind at all-zero
    angles, on every qubit tuple, added at every position and simulated
    alone as a probe is, scores bit for bit as the mutant (the baseline),
    and put in place of any gate as that gate's removal scored by the
    sweep: the rule ``_Run.recalled`` rests on, checked on 39,624 edits."""
    kinds = [k for k in GateKind if k.param_count]
    checked = 0
    for name, c, ts in _benchmark_mutants():
        cache = ts.prefixes(c)
        baseline = _hex([fitness(c, ts, prefixes=cache)])
        removed = [_hex([s]) for s in edit_fitness(c, ts, removals(c), prefixes=cache)]
        for kind in (k for k in kinds if k.num_qubits <= c.num_qubits):
            for qubits in _qubit_choices(kind, c.num_qubits):
                g = GateApp(kind, qubits, (0.0,) * kind.param_count)
                for p in range(len(c.gates) + 1):
                    assert _hex(edit_fitness(c, ts, [(p, g, False)], prefixes=cache)) == baseline, (name, g, p)
                for p in range(len(c.gates)):
                    assert _hex(edit_fitness(c, ts, [(p, g, True)], prefixes=cache)) == removed[p], (name, g, p)
                checked += 2 * len(c.gates) + 1
    assert checked == 39624


def test_a_recalled_probe_gives_the_report_of_a_simulated_one():
    """A guided repair of each of the 27 benchmark mutants at perfbench's
    ``corpus`` budget gives the same report, less its wall time, whether
    the zero-angle probes the run holds the score of are recalled or
    simulated; and some are recalled."""
    recalled = []
    real = _Run.recalled

    def counted(self, edit):
        score = real(self, edit)
        recalled.append(score is not None)
        return score

    cfg = cfg_evals(55)
    for name, c, ts in _benchmark_mutants():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Run, "recalled", counted)
            got = repair(c, ts, cfg).to_dict()
            mp.setattr(_Run, "recalled", lambda self, edit: None)
            want = repair(c, ts, cfg).to_dict()
        got.pop("wall_seconds"), want.pop("wall_seconds")
        assert got == want, name
    assert sum(recalled) >= 27



@pytest.mark.parametrize("oracle", [OracleConfig(), OracleConfig(mode="sampled", seed=3)], ids=["exact", "sampled"])
def test_a_wide_repair_reports_alike_with_one_or_two_edits_to_a_chunk(oracle):
    """A 6-qubit state fills ``SWEEP_CHUNK_BYTES``, so a repair simulates
    every edit (removals, fixed patches and angle probes) alone, a
    staircase of one block in its prefix cache's workspace; with room for
    two states, its removals and runs of fixed patches stack two blocks.
    Each of perfbench's ``wide`` mutants gives the same report, less its
    wall time, either way, at the workload's 20-evaluation budget and at
    150."""
    blocks = []
    simulate = testkit.run_all_bases

    def simulated(*args, edits=None, **kwargs):
        blocks.append(0 if edits is None else len(edits))
        return simulate(*args, edits=edits, **kwargs)

    for family, n in WIDE:
        ref = build_benchmark(family, n)
        ts = generate_suite(ref)
        for record in inject_faults(ref, seed=INJECTION_SEEDS[family], per_group=1, suite=ts):
            for budget in (20, 150):
                cfg = cfg_evals(budget, oracle=oracle)
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(testkit, "run_all_bases", simulated)
                    del blocks[:]
                    got = repair(record.mutant, ts, cfg).to_dict()
                    assert blocks[0] == 0 and set(blocks[1:]) == {1}  # the baseline, then every edit alone
                    mp.setattr(simulator, "SWEEP_CHUNK_BYTES", 2 * simulator.SWEEP_CHUNK_BYTES)
                    del blocks[:]
                    want = repair(record.mutant, ts, cfg).to_dict()
                    assert 2 in blocks
                got.pop("wall_seconds"), want.pop("wall_seconds")
                assert got == want, (record.description, budget)
