"""Fault localisation: a gate-removal sweep accumulating suspiciousness.

Each repairable gate is removed in turn; if the pruned circuit passes the
whole suite the sweep short-circuits and returns it as a complete repair.
Otherwise the gate's score grows by (baseline fitness - pruned fitness), so
gates whose removal helps accumulate positive scores and gates whose removal
hurts go negative. The pruned circuits are simulated a chunk at a time,
as removal edits of one staircase on one state tensor
(:func:`removal_scores`), and scored one by one.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from . import simulator
from .circuit import Circuit, GateApp, remove_gate
from .errors import QRepError, UnknownGateError
from .simulator import PrefixCache
from .testkit import FitnessScore, OracleConfig, TestSuite, edit_fitness, require_failing


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
    removal_fitness: dict[GateId, float] = field(default_factory=dict)
    evals_used: int = 0
    wall_seconds: float = 0.0
    partial: bool = False  # budget ran out before the sweep finished


def removal_scores(
    c: Circuit,
    ts: TestSuite,
    cfg: OracleConfig = OracleConfig(),
    prefixes: PrefixCache | None = None,
    allowance: Callable[[], int | None] = lambda: None,
) -> Iterator[FitnessScore]:
    """The fitness of ``c`` without each of its gates, in position order.

    The removals are simulated in chunks of as many as fit
    :data:`~qrep.simulator.SWEEP_CHUNK_BYTES` of stacked states, at least
    one (see :func:`~qrep.testkit.edit_fitness`). ``allowance`` is called
    before each chunk; it returns how many more removals may be simulated
    (at least one), or None for no count limit, and may raise
    :class:`BudgetExhaustedError`. ``prefixes`` must be built for ``c``.
    """
    if prefixes is None:
        prefixes = ts.prefixes(c)
    size = max(1, simulator.SWEEP_CHUNK_BYTES // prefixes.state_bytes)
    m, a = len(c.gates), 0
    while a < m:
        left = allowance()
        b = min(m, a + (size if left is None else max(1, min(size, left))))
        yield from edit_fitness(c, ts, [(p, None, True) for p in range(a, b)], cfg, prefixes)
        a = b


def localize(
    c_init: Circuit,
    ts: TestSuite,
    baseline: FitnessScore,
    scores: Iterable[FitnessScore] | None = None,
) -> LocalizeResult:
    """Gate-removal sweep over ``c_init`` (ascending position order).

    ``scores`` yields the fitness of ``c_init`` without each gate, in
    position order; it defaults to :func:`removal_scores` in exact mode.
    The repair engine passes its budget-charging iterator instead. The
    sweep draws one score per gate and stops drawing at a passing removal;
    an iterator that raises :class:`BudgetExhaustedError` cuts it short,
    and the partial table is returned, flagged.
    """
    require_failing(baseline)
    if scores is None:
        scores = removal_scores(c_init, ts)

    start = time.monotonic()
    result = LocalizeResult(table=SuspiciousnessTable.for_circuit(c_init))
    try:
        for pos, (g, score) in enumerate(zip(c_init.gates, scores)):
            gid = gate_id(pos, g)
            result.evals_used += 1
            result.removal_fitness[gid] = score.value
            if score.all_passed():
                result.repaired = remove_gate(c_init, pos)
                result.repaired_by_removing = gid
                break
            result.table.add(gid, baseline.value - score.value)
    except BudgetExhaustedError:
        result.partial = True
    result.wall_seconds = time.monotonic() - start
    return result
