"""Gate-removal localisation: scores, short-circuit, percentiles, budget
cuts, and the stacked sweep against the one-by-one sweep."""
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from conftest import exact_localize, random_circuit, random_suite
from oracles import gate_names, looped_evaluate, looped_localize
from qrep import simulator, testkit
from qrep.benchmarks import build_benchmark
from qrep.circuit import GateApp, GateKind, build_circuit, insert_gate, remove_gate
from qrep.engine import RepairConfig, _Run
from qrep.errors import NoFailingTestError, UnknownGateError
from qrep.localizer import (
    BudgetExhaustedError,
    GateId,
    SuspiciousnessTable,
    gate_id,
    localize,
    removals,
)
from qrep.testkit import OracleConfig, edit_fitness, fitness, generate_suite


def test_gate_id_format(bell):
    gid = gate_id(1, bell.gates[1])
    assert gid == GateId(position=1, gate="cx", qubits=(0, 1))
    assert str(gid) == "1:cx:0-1"


def test_localize_requires_failing_baseline(bell):
    ts = generate_suite(bell)
    with pytest.raises(NoFailingTestError):
        exact_localize(bell, ts, fitness(bell, ts))


def test_short_circuit_on_spurious_gate(bell):
    # bell + stray Z: removing the Z restores the reference exactly
    ts = generate_suite(bell)
    broken = insert_gate(bell, 2, GateApp(GateKind.Z, (1,)))
    baseline = fitness(broken, ts)
    res = exact_localize(broken, ts, baseline)
    assert res.repaired is not None
    assert res.repaired_by_removing == GateId(2, "z", (1,))
    assert gate_names(res.repaired) == ["h", "cx"]
    assert fitness(res.repaired, ts).all_passed()
    assert len(res.removal_fitness) == 3  # swept h, cx, z then stopped
    assert not res.partial


def test_scores_accumulate_baseline_minus_removal(bell):
    ts = generate_suite(bell)
    broken = remove_gate(bell, 1)  # H-only circuit fails the suite
    baseline = fitness(broken, ts)
    res = exact_localize(broken, ts, baseline)
    assert res.repaired is None
    gid = gate_id(0, broken.gates[0])
    assert res.table.scores[gid] == pytest.approx(baseline.value - res.removal_fitness[gid])
    assert len(res.removal_fitness) == 1


def test_negative_score_for_helpful_gate():
    # x(0) wrong vs empty reference: removing x fixes everything short of it,
    # but removing a gate the circuit needs scores negative
    ref = build_circuit(1, [("h", 0)])
    ts = generate_suite(ref)
    broken = build_circuit(1, [("h", 0), ("t", 0)])
    baseline = fitness(broken, ts)
    res = exact_localize(broken, ts, baseline)
    if res.repaired is None:
        h_id = gate_id(0, broken.gates[0])
        assert res.table.scores[h_id] < 0  # removing the needed H makes it worse
    else:
        assert res.repaired_by_removing == gate_id(1, broken.gates[1])


def test_ranking_order_and_tiebreak():
    t = SuspiciousnessTable(scores={
        GateId(0, "h", (0,)): 0.5,
        GateId(1, "x", (0,)): 2.0,
        GateId(2, "z", (0,)): 0.5,
        GateId(3, "s", (0,)): -1.0,
    })
    names = [g.position for g in t.ranking()]
    assert names == [1, 0, 2, 3]  # score desc, position asc on ties


def test_rank_percentile_endpoints():
    t = SuspiciousnessTable(scores={
        GateId(0, "h", (0,)): 3.0,
        GateId(1, "x", (0,)): 2.0,
        GateId(2, "z", (0,)): 1.0,
    })
    assert t.rank_percentile(GateId(0, "h", (0,))) == 0.0
    assert t.rank_percentile(GateId(1, "x", (0,))) == 50.0
    assert t.rank_percentile(GateId(2, "z", (0,))) == 100.0


def test_rank_percentile_single_gate_is_top():
    t = SuspiciousnessTable(scores={GateId(0, "h", (0,)): 0.0})
    assert t.rank_percentile(GateId(0, "h", (0,))) == 0.0


@pytest.mark.parametrize("scores", [[0.0], [0.5, 2.0, 0.5, -1.0], [float(s % 7) for s in range(40)]])
def test_records_sort_once_and_match_rank_percentile(monkeypatch, scores):
    t = SuspiciousnessTable(scores={GateId(i, "h", (0,)): s for i, s in enumerate(scores)})
    expected = [(str(g), t.scores[g], t.rank_percentile(g)) for g in t.ranking()]
    sorts = []
    ranking = SuspiciousnessTable.ranking
    monkeypatch.setattr(SuspiciousnessTable, "ranking", lambda self: sorts.append(1) or ranking(self))
    rows = t.records()
    assert len(sorts) == 1
    assert [(r["gate_id"], r["score"], r["percentile"]) for r in rows] == expected


def test_table_rejects_unknown_gate(bell):
    t = SuspiciousnessTable.for_circuit(bell)
    with pytest.raises(UnknownGateError):
        t.add(GateId(9, "h", (0,)), 1.0)
    with pytest.raises(UnknownGateError):
        t.rank_percentile(GateId(9, "h", (0,)))


def test_partial_sweep_on_budget(bell):
    ts = generate_suite(bell)
    broken = insert_gate(bell, 2, GateApp(GateKind.Z, (1,)))
    baseline = fitness(broken, ts)

    allowance = [2]

    def scores():
        for pos in range(len(broken.gates)):
            if allowance[0] <= 0:
                raise BudgetExhaustedError("out of evals")
            allowance[0] -= 1
            yield fitness(remove_gate(broken, pos), ts)

    res = localize(broken, baseline, scores())
    assert res.partial
    assert res.repaired is None
    assert len(res.removal_fitness) == 2  # only the gates actually swept


def test_sweep_visits_gates_in_position_order():
    broken = build_circuit(1, [("h", 0), ("s", 0), ("t", 0)])
    ref = build_circuit(1, [("h", 0)])
    ts = generate_suite(ref)
    baseline = fitness(broken, ts)
    seen = []

    def scores():
        for pos in range(len(broken.gates)):
            c = remove_gate(broken, pos)
            seen.append(len(c.gates))
            yield fitness(c, ts)

    res = localize(broken, baseline, scores())
    assert all(n == 2 for n in seen)  # each candidate removes exactly one gate
    assert len(res.removal_fitness) == len(seen)
    # the exact removal edits score the same removals, in position order
    edited = exact_localize(broken, ts, baseline)
    assert [g.position for g in edited.removal_fitness] == list(range(len(edited.removal_fitness)))
    assert edited.removal_fitness == res.removal_fitness


# ------------------------------------------- the stacked sweep vs one by one


def _fields(res) -> dict:
    """Every field of a LocalizeResult, dicts in order."""
    out = dict(vars(res))
    out["scores"] = list(res.table.scores.items())
    out["removal_fitness"] = list(res.removal_fitness.items())
    return out


def _count_blocks(mp) -> list[int]:
    """The number of blocks of each stacked removal simulation run from
    now on, through ``testkit``'s kernel call."""
    blocks = []
    run_all_bases = testkit.run_all_bases

    def counted(*args, **kwargs):
        out = run_all_bases(*args, **kwargs)
        if out.ndim == 4:  # [removal, basis, input, outcome]
            blocks.append(len(out))
        return out

    mp.setattr(testkit, "run_all_bases", counted)
    return blocks


def _stacked_sweep(c, ts, baseline, cfg, budget):
    """The stacked sweep, with the blocks of every simulation it ran, and
    the evaluations its budget charged (None without a budget)."""
    with pytest.MonkeyPatch.context() as mp:
        blocks = _count_blocks(mp)
        if budget is None:
            return localize(c, baseline, edit_fitness(c, ts, removals(c), cfg)), blocks, None
        run = _Run(c, ts, RepairConfig(budget_evals=budget, oracle=cfg), None)
        return localize(c, baseline, run.scored(removals(c))), blocks, run.budget.evals_used


def _looped_sweep(c, ts, baseline, cfg, budget):
    if budget is None:
        if cfg == OracleConfig():
            return looped_localize(c, ts, baseline), None
        return looped_localize(c, ts, baseline, lambda cand: fitness(cand, ts, cfg)), None
    run = _Run(c, ts, RepairConfig(budget_evals=budget, oracle=cfg), None)
    return looped_localize(c, ts, baseline, partial(looped_evaluate, run)), run.budget.evals_used


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(
    seed=st.integers(0, 2**32 - 1),
    q=st.integers(1, 7),
    suite_kind=st.sampled_from(["full", "z", "sparse"]),
    sampled=st.booleans(),
    chunk=st.integers(1, 9),
    cache_slots=st.sampled_from([None, 0, 1, 2, 3]),
    budget=st.none() | st.integers(1, 12),
)
def test_stacked_sweep_matches_per_candidate_sweep(seed, q, suite_kind, sampled, chunk, cache_slots, budget):
    """The chunked, stacked sweep gives every field of the one-by-one sweep:
    random circuits over every gate kind, a stray gate inserted into the
    reference (its removal passes, often mid-chunk), full, Z-only and
    sparse suites, both oracles, chunks of 1-9 removals, prefix caches
    that keep every state, every few, or none, and count budgets that cut
    a chunk. No chunk holds more than the bound or runs past the budget."""
    rng = np.random.default_rng(seed)
    ref = random_circuit(rng, q, int(rng.integers(0, 8 if q < 6 else 5)))
    stray = random_circuit(rng, q, 1).gates[0]
    c = insert_gate(ref, int(rng.integers(0, len(ref.gates) + 1)), stray)
    if rng.random() < 0.3:  # a second stray: usually no removal passes
        c = insert_gate(c, int(rng.integers(0, len(c.gates) + 1)), random_circuit(rng, q, 1).gates[0])
    ts = random_suite(ref, suite_kind, rng)
    cfg = OracleConfig(mode="sampled", seed=seed) if sampled else OracleConfig()
    baseline = fitness(c, ts, cfg)
    assume(not baseline.all_passed())
    state_bytes = ts.prefixes(c).state_bytes
    with pytest.MonkeyPatch.context() as mp:
        bound = chunk * state_bytes + int(rng.integers(0, state_bytes))
        mp.setattr(simulator, "SWEEP_CHUNK_BYTES", bound)
        if cache_slots is not None:
            mp.setattr(simulator, "PREFIX_CACHE_BYTES", cache_slots * state_bytes)
        want, want_charged = _looped_sweep(c, ts, baseline, cfg, budget)
        got, blocks, got_charged = _stacked_sweep(c, ts, baseline, cfg, budget)
    assert _fields(got) == _fields(want)
    assert got_charged == want_charged
    assert all(1 <= n <= chunk for n in blocks)
    assert sum(blocks) <= (len(c.gates) if budget is None else min(budget, len(c.gates)))


def test_sweep_chunks_stop_at_budget_and_score_a_mid_chunk_repair(monkeypatch):
    """ghz3 with a stray z at position 2, four removals to a chunk: the
    repair is the third score of the first chunk, and a budget of two
    simulates two removals only."""
    ref = build_benchmark("ghz", 3)
    ts = generate_suite(ref)
    broken = insert_gate(ref, 2, GateApp(GateKind.Z, (1,)))
    baseline = fitness(broken, ts)
    monkeypatch.setattr(simulator, "SWEEP_CHUNK_BYTES", 4 * ts.prefixes(broken).state_bytes)
    blocks = _count_blocks(monkeypatch)
    res = exact_localize(broken, ts, baseline)
    assert blocks == [4]
    assert res.repaired_by_removing == GateId(2, "z", (1,)) and len(res.removal_fitness) == 3
    assert _fields(res) == _fields(looped_localize(broken, ts, baseline))
    blocks.clear()
    run = _Run(broken, ts, RepairConfig(budget_evals=2), None)
    res = localize(broken, baseline, run.scored(removals(broken)))
    assert blocks == [2]
    assert res.partial and len(res.removal_fitness) == 2 and run.budget.evals_used == 2
