"""Fault localisation: a gate-removal sweep accumulating suspiciousness.

Each repairable gate is removed in turn; if the pruned circuit passes the
whole suite the sweep short-circuits and returns it as a complete repair.
Otherwise the gate's score grows by (baseline fitness - pruned fitness), so
gates whose removal helps accumulate positive scores and gates whose removal
hurts go negative.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from .circuit import Circuit, GateApp, remove_gate
from .errors import QRepError, UnknownGateError
from .testkit import FitnessScore, TestSuite, fitness, require_failing


class BudgetExhaustedError(QRepError):
    """Raised by a budgeted evaluator when no allowance remains."""


@dataclass(frozen=True, order=True)
class GateId:
    """Identity of a gate in the original circuit, stable across edits."""

    position: int
    gate: str
    qubits: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.position}:{self.gate}:{'-'.join(map(str, self.qubits))}"


def gate_id(g: GateApp) -> GateId:
    return GateId(position=g.position, gate=g.kind.gate_name, qubits=g.qubits)


@dataclass
class SuspiciousnessTable:
    """Per-gate accumulated fitness deltas; every repairable gate has an entry."""

    scores: dict[GateId, float] = field(default_factory=dict)

    @classmethod
    def for_circuit(cls, c: Circuit) -> "SuspiciousnessTable":
        return cls(scores={gate_id(g): 0.0 for g in c.gates})

    def add(self, gate: GateId, delta: float) -> None:
        if gate not in self.scores:
            raise UnknownGateError(str(gate))
        self.scores[gate] += delta

    def ranking(self) -> list[GateId]:
        """Most suspicious first; ties broken by ascending original position."""
        return sorted(self.scores, key=lambda g: (-self.scores[g], g.position))

    def rank_percentile(self, gate: GateId) -> float:
        """0 = top of the ranking, 100 = bottom; single-gate tables rank 0."""
        if gate not in self.scores:
            raise UnknownGateError(str(gate))
        ranking = self.ranking()
        return _percentile(ranking.index(gate), len(ranking))

    def records(self) -> list[dict]:
        """Report rows, most suspicious first."""
        ranking = self.ranking()
        return [
            {"gate_id": str(g), "score": float(self.scores[g]), "percentile": _percentile(i, len(ranking))}
            for i, g in enumerate(ranking)
        ]


def _percentile(index: int, n: int) -> float:
    return index / (n - 1) * 100.0 if n > 1 else 0.0


@dataclass
class LocalizeResult:
    table: SuspiciousnessTable
    repaired: Circuit | None = None
    repaired_by_removing: GateId | None = None
    removal_fitness: dict[GateId, float] = field(default_factory=dict)
    evals_used: int = 0
    wall_seconds: float = 0.0
    partial: bool = False  # budget ran out before the sweep finished


def localize(
    c_init: Circuit,
    ts: TestSuite,
    baseline: FitnessScore,
    evaluate: Callable[[Circuit], FitnessScore] | None = None,
) -> LocalizeResult:
    """Gate-removal sweep over ``c_init`` (ascending position order).

    ``evaluate`` defaults to plain exact-mode fitness; the repair engine
    passes its budget-counting evaluator instead. A sweep cut short by
    budget exhaustion returns the partial table, flagged.
    """
    require_failing(baseline)
    if evaluate is None:
        evaluate = lambda c: fitness(c, ts)

    start = time.monotonic()
    result = LocalizeResult(table=SuspiciousnessTable.for_circuit(c_init))
    for g in c_init.gates:
        gid = gate_id(g)
        candidate = remove_gate(c_init, g.position)
        try:
            score = evaluate(candidate)
        except BudgetExhaustedError:
            result.partial = True
            break
        result.evals_used += 1
        result.removal_fitness[gid] = score.value
        if score.all_passed():
            result.repaired = candidate
            result.repaired_by_removing = gid
            break
        result.table.add(gid, baseline.value - score.value)
    result.wall_seconds = time.monotonic() - start
    return result
