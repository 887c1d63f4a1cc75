"""Gate-removal localisation: scores, short-circuit, percentiles, budget cuts."""
import pytest

from oracles import gate_names
from qrep.circuit import GateApp, GateKind, build_circuit, insert_gate, remove_gate
from qrep.errors import NoFailingTestError, UnknownGateError
from qrep.localizer import (
    BudgetExhaustedError,
    GateId,
    SuspiciousnessTable,
    gate_id,
    localize,
)
from qrep.testkit import fitness, generate_suite


def test_gate_id_format(bell):
    gid = gate_id(1, bell.gates[1])
    assert gid == GateId(position=1, gate="cx", qubits=(0, 1))
    assert str(gid) == "1:cx:0-1"


def test_localize_requires_failing_baseline(bell):
    ts = generate_suite(bell)
    with pytest.raises(NoFailingTestError):
        localize(bell, ts, fitness(bell, ts))


def test_short_circuit_on_spurious_gate(bell):
    # bell + stray Z: removing the Z restores the reference exactly
    ts = generate_suite(bell)
    broken = insert_gate(bell, 2, GateApp(GateKind.Z, (1,)))
    baseline = fitness(broken, ts)
    res = localize(broken, ts, baseline)
    assert res.repaired is not None
    assert res.repaired_by_removing == GateId(2, "z", (1,))
    assert gate_names(res.repaired) == ["h", "cx"]
    assert fitness(res.repaired, ts).all_passed()
    assert res.evals_used == 3  # swept h, cx, z then stopped
    assert not res.partial


def test_scores_accumulate_baseline_minus_removal(bell):
    ts = generate_suite(bell)
    broken = remove_gate(bell, 1)  # H-only circuit fails the suite
    baseline = fitness(broken, ts)
    res = localize(broken, ts, baseline)
    assert res.repaired is None
    gid = gate_id(0, broken.gates[0])
    assert res.table.scores[gid] == pytest.approx(baseline.value - res.removal_fitness[gid])
    assert res.evals_used == 1


def test_negative_score_for_helpful_gate():
    # x(0) wrong vs empty reference: removing x fixes everything short of it,
    # but removing a gate the circuit needs scores negative
    ref = build_circuit(1, [("h", 0)])
    ts = generate_suite(ref)
    broken = build_circuit(1, [("h", 0), ("t", 0)])
    baseline = fitness(broken, ts)
    res = localize(broken, ts, baseline)
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

    def evaluate(c):
        if allowance[0] <= 0:
            raise BudgetExhaustedError("out of evals")
        allowance[0] -= 1
        return fitness(c, ts)

    res = localize(broken, ts, baseline, evaluate=evaluate)
    assert res.partial
    assert res.repaired is None
    assert res.evals_used == 2
    assert len(res.removal_fitness) == 2  # only the gates actually swept


def test_sweep_visits_gates_in_position_order(bell):
    ts = generate_suite(bell)
    broken = remove_gate(bell, 1)
    broken = build_circuit(1, [("h", 0), ("s", 0), ("t", 0)])
    ref = build_circuit(1, [("h", 0)])
    ts = generate_suite(ref)
    baseline = fitness(broken, ts)
    seen = []

    def evaluate(c):
        seen.append(len(c.gates))
        return fitness(c, ts)

    res = localize(broken, ts, baseline, evaluate=evaluate)
    assert all(n == 2 for n in seen)  # each candidate removes exactly one gate
    assert res.evals_used == len(seen)
