"""Repair orchestration: budgeted search over single-gate edits.

The run charges every fitness evaluation (baseline, localisation sweep,
patch trials, angle probes) to one budget, expressed either as a
maximum evaluation count or as wall-clock seconds. After localisation the
remainder is split evenly across the configured iterations; each iteration
consumes ordered patches until its cumulative mark, then prunes the queue
to patches anchored on the currently most suspicious gates. Iterations
whose mark the spend has already passed are skipped, so the search ends
with the budget whatever the iteration count. A random-search baseline
shares the evaluator, stopping rules, and report format: it runs the same
patch-trial loop (:meth:`_Run.consume`) as one iteration up to the
budget's limit, over the patches in seeded random order, with no
localisation or pruning.

Every candidate is a single-gate edit of the faulty circuit: a removal of
the sweep, a fixed patch of a run (those taken between two parametric
patches) or an angle probe. All are scored by
:func:`~qrep.testkit.edit_fitness`, sweeps and runs in stacked chunks and a
probe as a chunk of one, and charged through one generator
(:meth:`_Run.scored`), the one place that caps them at a count budget: the
budget is checked as each edit is drawn and each score is charged as it is
drawn. Each score is recorded and credited as a trial of that edit alone
would be, so the reports are those of trying every edit alone, bit for bit.
"""
from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import count
from operator import itemgetter
from typing import Callable, Iterable, Iterator

import numpy as np

from .circuit import Circuit, GateApp
from .errors import UnknownGateError
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
        if self.budget_evals is not None and self.budget_evals < 1:
            raise ValueError("budget_evals must be >= 1")
        if self.budget_seconds is not None and self.budget_seconds <= 0:
            raise ValueError("budget_seconds must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")

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

    def __post_init__(self) -> None:
        if (self.max_evals is None) == (self.max_seconds is None):
            raise ValueError("set exactly one of max_evals / max_seconds")

    @property
    def limit(self) -> float:
        return float(self.max_evals if self.max_evals is not None else self.max_seconds)

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


def pruning_keep_fraction(i: int, total: int) -> float:
    """Fraction of the suspiciousness ranking retained after iteration i."""
    if not 1 <= i <= total:
        raise ValueError(f"iteration {i} outside 1..{total}")
    return 1.0 - i / total


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
        self.partial_localisation = False

    def scored(self, edits: Iterable[tuple[int, GateApp | None, bool]]) -> Iterator[FitnessScore]:
        """The scores of ``c_init`` with each of ``edits`` made alone
        (:func:`edit_fitness`), each charged as one evaluation when it is
        drawn. This is the one place that caps stacked edits at a count
        budget: no more edits are drawn than it has evaluations left. The
        budget is also checked as each edit is drawn, before its chunk is
        simulated, so no chunk starts after the deadline of a seconds budget
        (one that started before it is charged). Drawing past the cap raises
        BudgetExhaustedError."""

        def checked() -> Iterator[tuple[int, GateApp | None, bool]]:
            b = self.budget
            for _, e in zip(count() if b.max_evals is None else range(b.max_evals - b.evals_used), edits):
                b.precheck()
                yield e

        for score in edit_fitness(self.c_init, self.ts, checked(), self.cfg.oracle, self.prefixes):
            self.budget.charge()
            yield score
        self.budget.precheck()

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

    def settle(self, patch: Patch, params: tuple[float, ...], value: float, repaired: Circuit | None) -> float:
        """End the trial of ``patch``, whose best probe (the passing one,
        on a repair) took ``params`` and scored ``value``: record it once,
        then raise _FullPass with ``repaired`` when a probe passed, else
        credit the fitness gained over the baseline to the anchor gate."""
        self.record(patch.kind, patch.position, patch.gate.gate_name, patch.qubits, params, value)
        if repaired is not None:
            raise _FullPass(repaired)
        if patch.anchor in self.table.scores:
            self.table.add(patch.anchor, self.baseline.value - value)
        return value

    def try_patch(self, patch: Patch, rng: np.random.Generator | None = None) -> float:
        """Best fitness achieved by the parametric ``patch``, settled as
        :meth:`settle` says; each probe is the patch's edit of ``c_init``
        with the probe's angles, drawn through :meth:`scored`.

        Raises _FullPass on a repair, and BudgetExhaustedError when the
        budget runs out mid-trial; both propagate through the solver. A
        trial cut short records its best probe, if any. The angles come
        from COBYLA, or, given ``rng`` (random search), from ``max_evals``
        uniform draws."""
        best_value = math.inf
        best_params: tuple[float, ...] = ()
        repaired = None

        def objective(params: tuple[float, ...]) -> float:
            nonlocal best_value, best_params
            edit = (patch.position, GateApp(patch.gate, patch.qubits, params), patch.kind == "replace")
            score = next(self.scored([edit]))
            passed = score.all_passed()
            if passed or score.value < best_value:
                best_value, best_params = score.value, params
            if passed:
                raise _FullPass(apply_patch(self.c_init, patch, params))
            return score.value

        try:
            if rng is None:
                minimize_params(objective, patch.gate.param_count, self.cfg.opt)
            else:
                for _ in range(self.cfg.opt.max_evals):
                    objective(tuple(rng.uniform(0.0, 2.0 * math.pi, patch.gate.param_count).tolist()))
        except _FullPass as fp:
            repaired = fp.circuit
        except BudgetExhaustedError:
            if best_value < math.inf:
                self.record(patch.kind, patch.position, patch.gate.gate_name, patch.qubits, best_params, best_value)
            raise
        return self.settle(patch, best_params, best_value, repaired)

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
        edits = ((p.position, GateApp(p.gate, p.qubits), p.kind == "replace") for p in run)
        for patch, score in zip(run, self.scored(edits)):
            repaired = apply_patch(self.c_init, patch) if score.all_passed() else None
            self.settle(patch, (), score.value, repaired)
        return nxt

    def consume(self, queue: PatchQueue | deque[Patch], mark: float, rng: np.random.Generator | None = None) -> None:
        """Pop patches from ``queue`` and try them until it is empty or the
        spend reaches ``mark``: the one patch-trial loop of both searches.
        A fixed patch starts a run (:meth:`try_run`); a parametric one, or
        the one a run hands back, is tried alone (:meth:`try_patch`, with
        ``rng``)."""
        while queue and self.budget.spent < mark:
            patch = queue.popleft()
            if not patch.is_parametric:
                patch = self.try_run(patch, queue, mark)
            if patch is not None:
                self.try_patch(patch, rng)

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
        loc = localize(self.c_init, self.ts, self.baseline, self.scored(removals(self.c_init)))
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

        i = 1
        while i <= total:
            self.consume(queue, end_mark(i))
            if not queue:
                return
            # skip to the next iteration whose end mark is above the spend:
            # the ones between would try nothing, and with the table
            # unchanged their nested prunes equal one at the last fraction
            spent, nxt, hi = self.budget.spent, i + 1, total + 1
            while nxt < hi:
                mid = (nxt + hi) // 2
                nxt, hi = (nxt, mid) if end_mark(mid) > spent else (mid + 1, hi)
            if nxt <= total and self.table.scores:
                frac = pruning_keep_fraction(nxt - 1, total)
                keep_n = max(1, math.ceil(frac * len(self.table.scores)))
                queue = prune_to_gates(queue, set(self.table.ranking()[:keep_n]))
            i = nxt

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
