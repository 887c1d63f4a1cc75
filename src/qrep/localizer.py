"""Fault localisation: a gate-removal sweep accumulating suspiciousness.

Each repairable gate is removed in turn; if the pruned circuit passes the
whole suite the sweep short-circuits and returns it as a complete repair.
Otherwise the gate's score grows by (baseline fitness - pruned fitness), so
gates whose removal helps accumulate positive scores and gates whose removal
hurts go negative. The sweep ranks the scores its caller draws: the
fitness of each removal edit (:func:`removals`), as
:func:`~qrep.testkit.edit_fitness` gives it under the caller's oracle, or
the repair engine's budget-charging stream of the same scores.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .circuit import Circuit, GateApp, remove_gate
from .errors import QRepError, UnknownGateError
from .testkit import FitnessScore, require_failing


class BudgetExhaustedError(QRepError):
    """Raised by a budgeted evaluator once its budget is spent (no evaluations left, or past the deadline)."""


@dataclass(frozen=True, order=True)
class GateId:
    """Identity of a gate in the original circuit, stable across edits."""

    position: int
    gate: str
    qubits: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.position}:{self.gate}:{'-'.join(map(str, self.qubits))}"


def gate_id(position: int, g: GateApp) -> GateId:
    """Identity of ``g`` at index ``position`` of a circuit's gates."""
    return GateId(position=position, gate=g.kind.gate_name, qubits=g.qubits)


@dataclass
class SuspiciousnessTable:
    """Per-gate accumulated fitness deltas; every repairable gate has an entry."""

    scores: dict[GateId, float] = field(default_factory=dict)

    @classmethod
    def for_circuit(cls, c: Circuit) -> "SuspiciousnessTable":
        return cls(scores={gate_id(i, g): 0.0 for i, g in enumerate(c.gates)})

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
    removal_fitness: dict[GateId, float] = field(default_factory=dict)  # one entry per score drawn
    partial: bool = False  # budget ran out before the sweep finished


def removals(c: Circuit) -> Iterator[tuple[int, None, bool]]:
    """The edits that remove each gate of ``c`` alone, in position order,
    for :func:`~qrep.testkit.edit_fitness`."""
    return ((p, None, True) for p in range(len(c.gates)))


def localize(
    c_init: Circuit, baseline: FitnessScore, scores: Iterable[FitnessScore], table: SuspiciousnessTable | None = None
) -> LocalizeResult:
    """Gate-removal sweep over ``c_init`` (ascending position order).

    ``scores`` yields the fitness of ``c_init`` without each gate, in
    position order, under the oracle that scored ``baseline``. The sweep
    draws one score per gate and stops drawing at a passing removal; an
    iterator that raises :class:`BudgetExhaustedError` cuts it short, and
    the partial table is returned, flagged. The deltas accumulate in
    ``table`` (a repair run's own), a table of ``c_init``'s gates, else in
    a fresh one.
    """
    require_failing(baseline)
    result = LocalizeResult(table=SuspiciousnessTable.for_circuit(c_init) if table is None else table)
    try:
        for gid, score in zip(result.table.scores, scores):
            result.removal_fitness[gid] = score.value
            if score.all_passed():
                result.repaired = remove_gate(c_init, gid.position)
                result.repaired_by_removing = gid
                break
            result.table.add(gid, baseline.value - score.value)
    except BudgetExhaustedError:
        result.partial = True
    return result
