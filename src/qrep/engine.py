"""Repair orchestration: budgeted search over single-gate edits.

The run charges every fitness evaluation (baseline, localisation sweep,
patch trials, angle probes) to one budget, expressed either as a
maximum evaluation count or as wall-clock seconds. After localisation the
remainder is split evenly across the configured iterations. Each turn of
the search counts the iterations whose cumulative mark the spend has
reached, prunes the queue once to patches anchored on the currently most
suspicious gates, and consumes ordered patches up to the next mark. Every
turn tries at least one patch, so a seconds budget split into more
iterations than it has time for still tries patches, and the search ends
with the budget whatever the iteration count. A random-search baseline
shares the evaluator, stopping rules, and report format: it runs the same
patch-trial loop (:meth:`_Run.consume`) as one iteration up to the
budget's limit, over the patches in seeded random order, with no
localisation or pruning.

Every candidate is a single-gate edit of the faulty circuit: a removal of
the sweep, a fixed patch of a run (those taken between two parametric
patches) or an angle probe. One generator (:meth:`_Run.scored`) gates,
charges and scores them all, sweeps and runs as streams of stacked chunks
and a probe as a stream of one edit: each chunk is checked against the
budget before it is drawn, and each score charged as it is drawn. A probe
at all-zero angles is charged but not simulated when the run holds its
score (:meth:`_Run.recalled`): every parametric kind is then the identity,
so an add scores as the baseline and a replace as the sweep's removal of
the gate, bit for bit. Each score is recorded and credited as a trial of
that edit alone would be, so the reports are those of trying every edit
alone, bit for bit.
"""
from __future__ import annotations

import math
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
from typing import Callable, Iterable, Iterator

import numpy as np

from .circuit import Circuit, GateApp
from .errors import UnknownGateError, check_integer
from .localizer import (
    BudgetExhaustedError,
    GateId,
    SuspiciousnessTable,
    localize,
    removals,
)
from .optimizer import OptBudget, minimize_params
from .patcher import (
    DEFAULT_PATCH_CATALOG,
    Patch,
    PatchQueue,
    apply_patch,
    catalog_kinds,
    generate_patches,
    order_uniform,
    prune_to_gates,
)
from .qasm import emit_qasm
from .testkit import FitnessScore, OracleConfig, TestSuite, edit_fitness, fitness, require_failing

STATUS_REPAIRED = "Repaired"
STATUS_NOT_FIXED = "NotFixed"


@dataclass(frozen=True)
class RepairConfig:
    budget_evals: int | None = None
    budget_seconds: float | None = None
    iterations: int = 4
    opt: OptBudget = OptBudget()
    oracle: OracleConfig = OracleConfig()
    seed: int = 0
    top_k: int = 10
    patch_catalog: tuple[str, ...] = DEFAULT_PATCH_CATALOG
    threads: int = 1  # unused; perfbench/workloads.py passes it and changes only with the benchmark

    def __post_init__(self) -> None:
        if (self.budget_evals is None) == (self.budget_seconds is None):
            raise ValueError("set exactly one of budget_evals / budget_seconds")
        if self.budget_evals is not None:
            check_integer("budget_evals", self.budget_evals, 1)
        if self.budget_seconds is not None and not 0 < self.budget_seconds < math.inf:  # NaN fails too
            raise ValueError(f"budget_seconds must be finite and > 0, got {self.budget_seconds}")
        check_integer("iterations", self.iterations, 1)
        check_integer("top_k", self.top_k, 1)
        check_integer("seed", self.seed)
        catalog_kinds(self.patch_catalog)  # refuses an empty catalog or a name that is not a gate

    def to_dict(self) -> dict:
        return {
            "budget_evals": self.budget_evals,
            "budget_seconds": self.budget_seconds,
            "iterations": self.iterations,
            "opt_max_evals": self.opt.max_evals,
            "opt_tolerance": self.opt.tolerance,
            "oracle_mode": self.oracle.mode,
            "tau_fail": self.oracle.tau_fail,
            "eps_zero": self.oracle.eps_zero,
            "shots": self.oracle.shots,
            "oracle_seed": self.oracle.seed,
            "seed": self.seed,
            "top_k": self.top_k,
            "patch_catalog": list(self.patch_catalog),
        }


@dataclass
class Budget:
    """Single-currency spend ledger; raises before an evaluation would
    exceed the cap, so evaluation-count budgets are exact."""

    max_evals: int | None = None
    max_seconds: float | None = None
    evals_used: int = 0
    started: float = field(default_factory=time.monotonic)

    @property
    def limit(self) -> float:
        if self.max_evals is None:
            return float(self.max_seconds)
        # a count too big for a float spends as the largest float does
        return float(min(self.max_evals, sys.float_info.max))

    @property
    def spent(self) -> float:
        if self.max_evals is not None:
            return float(self.evals_used)
        return time.monotonic() - self.started

    def precheck(self) -> None:
        if self.spent >= self.limit:
            raise BudgetExhaustedError(
                f"budget spent ({self.spent:g} of {self.limit:g})"
            )

    def charge(self) -> None:
        self.evals_used += 1


@dataclass
class RepairReport:
    status: str
    repaired_qasm: str | None
    best_patches: list[dict]
    ranking: list[dict]
    improvement_pct: float
    fault_percentile: float | None
    evals_used: int
    wall_seconds: float
    partial_localisation: bool
    config: dict

    def to_dict(self) -> dict:
        """The fields by name; nested rows are shared, not copied."""
        return dict(vars(self))


class _FullPass(Exception):
    """Internal: a candidate passed the whole suite; unwind and report."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit


class _Run:
    def __init__(
        self,
        c_init: Circuit,
        ts: TestSuite,
        cfg: RepairConfig,
        fault_gate: GateId | None,
    ):
        self.c_init = c_init
        self.ts = ts
        self.cfg = cfg
        self.fault_gate = fault_gate
        self.budget = Budget(cfg.budget_evals, cfg.budget_seconds)
        self.table = SuspiciousnessTable.for_circuit(c_init)
        if fault_gate is not None and fault_gate not in self.table.scores:
            raise UnknownGateError(f"fault gate {fault_gate} names no gate of the circuit")
        # every candidate is c_init or a single-gate edit of it
        self.prefixes = ts.prefixes(c_init)
        self.candidates: list[dict] = []  # one report row per trial or removal
        self.baseline: FitnessScore | None = None
        self.removed: dict[int, FitnessScore] = {}  # the sweep's score of each removal, by position
        self.partial_localisation = False

    def scored(self, edits: Iterable[tuple[int, GateApp | None, bool]]) -> Iterator[FitnessScore]:
        """The scores of ``c_init`` with each of ``edits`` made alone, each
        charged as one evaluation when it is drawn. The budget is checked once
        before each chunk (:attr:`PrefixCache.chunk` edits) is drawn: a count
        budget draws no more edits than it has evaluations left, and a seconds
        budget starts no chunk after its deadline (one started before it is
        charged); drawing past either raises BudgetExhaustedError. A probe is
        always drawn alone, a stream of one edit. A lone edit the run holds the
        score of (:meth:`recalled`) is charged but not simulated; every other
        chunk is scored by :func:`edit_fitness`."""
        b, edits = self.budget, iter(edits)
        while True:
            b.precheck()
            left = math.inf if b.max_evals is None else b.max_evals - b.evals_used
            if not (chunk := list(islice(edits, min(self.prefixes.chunk, left)))):
                return
            held = self.recalled(chunk[0]) if len(chunk) == 1 else None
            for score in [held] if held else edit_fitness(self.c_init, self.ts, chunk, self.cfg.oracle, self.prefixes):
                b.charge()
                yield score

    def recalled(self, edit: tuple[int, GateApp | None, bool]) -> FitnessScore | None:
        """The score the run already holds for the parametric ``edit`` when
        its angles are all zero, where every parametric kind is the
        identity: an add scores as ``c_init`` (the baseline), and a replace
        as the removal of the gate it replaces (the sweep's score, once the
        sweep has drawn it). None for any other edit."""
        position, gate, replaces = edit
        if gate is None or not gate.params or any(gate.params):
            return None
        return self.removed.get(position) if replaces else self.baseline

    def record(self, kind: str, position: int, gate: str, qubits, params, value: float) -> None:
        self.candidates.append({
            "kind": kind,  # "add" | "replace" | "delete"
            "position": position,
            "gate": gate,
            "qubits": list(qubits),
            "params": [float(p) for p in params],
            "fitness": value,
        })

    # -- patch trials ------------------------------------------------------

    def settle(self, patch: Patch, params: tuple[float, ...], score: FitnessScore) -> float:
        """End the trial of ``patch``, whose best probe (the passing one,
        on a repair) took ``params`` and scored ``score``: record it once,
        then raise _FullPass with ``c_init`` patched (:func:`apply_patch`)
        if it passed, else credit the gain over the baseline to the anchor."""
        self.record(patch.kind, patch.position, patch.gate.gate_name, patch.qubits, params, score.value)
        if score.all_passed():
            raise _FullPass(apply_patch(self.c_init, patch, params))
        if patch.anchor in self.table.scores:
            self.table.add(patch.anchor, self.baseline.value - score.value)
        return score.value

    def try_patch(self, patch: Patch, rng: np.random.Generator | None = None) -> float:
        """Best fitness achieved by the parametric ``patch``, settled as
        :meth:`settle` says, and a passing probe as it is scored; each probe
        is :meth:`Patch.edit` of ``c_init`` at its angles, drawn through :meth:`scored`.

        Raises _FullPass on a repair, and BudgetExhaustedError when the
        budget runs out mid-trial; both propagate through the solver. A
        trial cut short records its best probe, if any. The angles come
        from COBYLA, or, given ``rng`` (random search), from ``max_evals``
        uniform draws."""
        best: tuple[tuple[float, ...], FitnessScore] | None = None

        def objective(params: tuple[float, ...]) -> float:
            nonlocal best
            score = next(self.scored((patch.edit(params),)))
            if score.all_passed():
                self.settle(patch, params, score)
            if best is None or score.value < best[1].value:
                best = params, score
            return score.value

        try:
            if rng is None:
                minimize_params(objective, patch.gate.param_count, self.cfg.opt)
            else:
                for _ in range(self.cfg.opt.max_evals):
                    objective(tuple(rng.uniform(0.0, 2.0 * math.pi, patch.gate.param_count).tolist()))
        except BudgetExhaustedError:
            if best is not None:
                self.record(patch.kind, patch.position, patch.gate.gate_name, patch.qubits, best[0], best[1].value)
            raise
        return self.settle(patch, *best)

    def try_run(self, first: Patch, queue: PatchQueue | deque[Patch], mark: float) -> Patch | None:
        """Score the fixed patch ``first`` and the fixed patches popped
        from ``queue`` after it, each as :meth:`try_patch` would alone,
        from stacked simulations of their edits (:meth:`scored`).

        Under a count budget a run holds as many patches as it takes to
        spend up to ``mark`` (``ceil(mark) - evals_used``), and one under a
        seconds budget; it ends before the first parametric patch popped,
        which is returned untried. Each score is charged and settled in run
        order. A pass raises _FullPass with the repaired circuit, built
        only then; the later scores of its chunk are dropped, neither
        charged, recorded nor credited."""
        b = self.budget
        run, cap, nxt = [first], 1 if b.max_evals is None else math.ceil(mark) - b.evals_used, None
        while nxt is None and len(run) < cap and queue:
            p = queue.popleft()
            if p.is_parametric:
                nxt = p
            else:
                run.append(p)
        for patch, score in zip(run, self.scored(p.edit() for p in run)):
            self.settle(patch, (), score)
        return nxt

    def consume(self, queue: PatchQueue | deque[Patch], mark: float, rng: np.random.Generator | None = None) -> None:
        """Pop patches from ``queue`` and try them until it is empty or,
        after a trial, the spend has reached ``mark``: the one patch-trial
        loop of both searches. The first patch is tried whatever the spend,
        so every call tries at least one (or ends the run when the budget is
        spent). A fixed patch starts a run (:meth:`try_run`); a parametric
        one, or the one a run hands back, is tried alone
        (:meth:`try_patch`, with ``rng``)."""
        while queue:
            patch = queue.popleft()
            if not patch.is_parametric:
                patch = self.try_run(patch, queue, mark)
            if patch is not None:
                self.try_patch(patch, rng)
            if self.budget.spent >= mark:
                return

    # -- report ------------------------------------------------------------

    def finalize(self, status: str, repaired: Circuit | None) -> RepairReport:
        assert self.baseline is not None
        base = self.baseline.value
        eligible = sorted((r for r in self.candidates if r["fitness"] <= base), key=itemgetter("fitness"))
        if status == STATUS_REPAIRED:
            improvement = 100.0
        elif eligible:
            improvement = (base - eligible[0]["fitness"]) / base * 100.0
            improvement = min(100.0, max(0.0, improvement))
        else:
            improvement = 0.0
        fault_pct = None
        if self.fault_gate is not None:
            fault_pct = self.table.rank_percentile(self.fault_gate)
        return RepairReport(
            status=status,
            repaired_qasm=emit_qasm(repaired) if repaired is not None else None,
            best_patches=eligible[: self.cfg.top_k],
            ranking=self.table.records(),
            improvement_pct=improvement,
            fault_percentile=fault_pct,
            evals_used=self.budget.evals_used,
            wall_seconds=time.monotonic() - self.budget.started,
            partial_localisation=self.partial_localisation,
            config=self.cfg.to_dict(),
        )

    # -- searches ----------------------------------------------------------

    def drive(self, search: Callable[[], None]) -> RepairReport:
        """Baseline, then ``search``; it ends the run by returning (not
        fixed), by raising _FullPass, or by running out of budget."""
        # unchecked: a seconds budget spent by now ends the search, not the run
        self.budget.charge()
        self.baseline = fitness(self.c_init, self.ts, self.cfg.oracle, self.prefixes)
        require_failing(self.baseline)
        try:
            search()
        except _FullPass as fp:
            return self.finalize(STATUS_REPAIRED, fp.circuit)
        except BudgetExhaustedError:
            pass
        return self.finalize(STATUS_NOT_FIXED, None)

    def guided_search(self) -> None:
        # the sweep's scores, kept by position for the probes that recall them
        swept = enumerate(self.scored(removals(self.c_init)))
        loc = localize(self.c_init, self.baseline, (self.removed.setdefault(p, score) for p, score in swept))
        self.table = loc.table
        for gid, value in loc.removal_fitness.items():
            self.record("delete", gid.position, gid.gate, gid.qubits, (), value)
        if loc.repaired is not None:
            raise _FullPass(loc.repaired)
        if loc.partial:
            self.partial_localisation = True
            return

        queue = order_uniform(self.c_init, self.cfg.patch_catalog)
        spent0 = self.budget.spent
        b_r = self.budget.limit - spent0
        total = self.cfg.iterations

        def end_mark(i: int) -> float:
            return spent0 + b_r * (i / total)

        while queue:
            # done: the end marks the spend has reached (end_mark(0) has)
            spent, done, hi = self.budget.spent, 0, total
            while done < hi:
                mid = (done + hi + 1) // 2
                done, hi = (mid, hi) if end_mark(mid) <= spent else (done, mid - 1)
            if done == total:
                return
            if done and self.table.scores:
                keep_n = max(1, math.ceil((1.0 - done / total) * len(self.table.scores)))
                queue = prune_to_gates(queue, set(self.table.ranking()[:keep_n]))
            self.consume(queue, end_mark(done + 1))

    def random_search(self) -> None:
        pool = generate_patches(self.c_init, self.cfg.patch_catalog)
        rng = np.random.default_rng([self.cfg.seed & (2**63 - 1), 17])
        self.consume(deque(pool[i] for i in rng.permutation(len(pool)).tolist()), self.budget.limit, rng)


def repair(
    c_init: Circuit,
    ts: TestSuite,
    cfg: RepairConfig,
    fault_gate: GateId | None = None,
) -> RepairReport:
    """Full pipeline: baseline, removal sweep, iterated patch search."""
    run = _Run(c_init, ts, cfg, fault_gate)
    return run.drive(run.guided_search)


def random_search(
    c_init: Circuit,
    ts: TestSuite,
    cfg: RepairConfig,
    fault_gate: GateId | None = None,
) -> RepairReport:
    """Evaluation-matched baseline: unordered seeded patch draws, random
    angles for parametric patches, no localisation or pruning."""
    run = _Run(c_init, ts, cfg, fault_gate)
    return run.drive(run.random_search)
