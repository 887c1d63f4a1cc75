"""The benchmark's three workloads and the checks on their outputs.

Each workload is a closed loop: one caller, and the next repair starts when
the previous one returns. Setup builds the references, suites, expected
tables, QASM files and mutants; a repair call is the timed unit.

The mutant set is fixed: every family uses the injection seed of
``scripts/run_benchmark.py``, so evaluation counts and repaired counts
repeat exactly from run to run and two commits can be compared mutant by
mutant. Drawing new mutants per run seed moved the repaired count of the
9-mutant ``wide`` workload from 3 to 4 (a third) between two seeds, far
beyond any usable bound. The run seed orders the closed loop instead.
"""
from __future__ import annotations

import json
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from qrep import cli, engine, qasm, testkit
from qrep.benchmarks import build_benchmark
from qrep.patcher import inject_faults
from qrep.simulator import MeasBasis

CORPUS = (("ghz", 3), ("dj", 4), ("graphstate", 4), ("wstate", 4), ("qft", 4), ("grover", 3))
# the 6-qubit references of benchmarks.standard_catalog
WIDE = (("ghz", 6), ("dj", 6), ("graphstate", 6))
INJECTION_SEEDS = {"ghz": 2, "dj": 1, "graphstate": 4, "wstate": 0, "qft": 5, "grover": 3}
ITERATIONS = 4


@dataclass
class Mutant:
    name: str  # "<family><qubits>/<group>"
    circuit: object
    suite: object
    qasm_path: Path | None = None
    table_path: Path | None = None


@dataclass
class Outcome:
    status: str  # engine status, or "error"
    evals_used: int
    repaired_qasm: str | None = None
    exit_code: int | None = None
    error: str | None = None


@dataclass
class SetupTimes:
    suite_build_s: float = 0.0
    inject_s: float = 0.0


def check(outcome: Outcome, m: Mutant, budget: int) -> str | None:
    """Why the repair counts as failed, or None when its output is correct."""
    if outcome.error is not None:
        return outcome.error
    if outcome.exit_code is not None:
        if outcome.exit_code not in (cli.EXIT_OK, cli.EXIT_NOT_FIXED):
            return f"exit code {outcome.exit_code}"
        if (outcome.exit_code == cli.EXIT_OK) != (outcome.status == engine.STATUS_REPAIRED):
            return f"exit code {outcome.exit_code} with status {outcome.status}"
    if outcome.evals_used > budget:
        return f"evals_used {outcome.evals_used} exceeds budget {budget}"
    if outcome.status == engine.STATUS_REPAIRED:
        if not outcome.repaired_qasm:
            return "Repaired report without repaired_qasm"
        fixed = qasm.parse_qasm(outcome.repaired_qasm)
        score = testkit.fitness(fixed, m.suite)
        if score.failed_count:
            return f"repaired circuit fails {score.failed_count} of {len(m.suite)} cases"
    elif outcome.status != engine.STATUS_NOT_FIXED:
        return f"unknown status {outcome.status!r}"
    return None


def _assert_reference_passes(ref, suite, name: str) -> None:
    score = testkit.fitness(ref, suite)
    if score.value != 0.0:
        raise AssertionError(f"reference {name} scores {score.value!r}, not 0.0, on its own suite")


class EngineWorkload:
    """``engine.repair`` in exact mode, one thread, on every add, remove and
    replace mutant of the given families."""

    def __init__(self, name: str, families, evals_per_s: float):
        self.name = name
        self.families = families
        self.evals_per_s = evals_per_s
        # threads a repair runs on
        self.threads = 1

    def budget(self, seconds: float) -> int:
        """Per-mutant evaluation budget for a run of ``seconds``; the rate is
        sized so that the repairs of a run take about that long on a 2-CPU
        machine."""
        return max(1, round(self.evals_per_s * seconds))

    def setup(self, workdir: Path) -> tuple[list[Mutant], SetupTimes]:
        times = SetupTimes()
        mutants = []
        for fam, n in self.families:
            tag = f"{fam}{n}"
            ref = build_benchmark(fam, n)
            t0 = time.perf_counter()
            suite, table_path = self.suite(ref, workdir / f"{tag}.expected.json")
            times.suite_build_s += time.perf_counter() - t0
            _assert_reference_passes(ref, suite, tag)
            t0 = time.perf_counter()
            recs = inject_faults(ref, seed=INJECTION_SEEDS[fam], per_group=1, suite=suite)
            times.inject_s += time.perf_counter() - t0
            for r in recs:
                m = Mutant(f"{tag}/{r.group}", r.mutant, suite, table_path=table_path)
                self.store(m, workdir / f"{tag}_{r.group}.qasm")
                mutants.append(m)
        return mutants, times

    def suite(self, ref, table_path: Path):
        """The suite the mutants are judged by, and the file holding it."""
        return testkit.generate_suite(ref), None

    def store(self, m: Mutant, path: Path) -> None:
        """Write what a repair reads besides the suite."""

    def repair(self, m: Mutant, budget: int, workdir: Path, tracer) -> tuple[Outcome, float]:
        cfg = engine.RepairConfig(budget_evals=budget, iterations=ITERATIONS, threads=self.threads)
        t0 = time.perf_counter()
        try:
            with tracer.span("engine.repair") if tracer else nullcontext():
                rep = engine.repair(m.circuit, m.suite, cfg)
        except Exception as e:  # a repair that raises is a failed repair
            return Outcome("error", 0, error=f"{type(e).__name__}: {e}"), time.perf_counter() - t0
        wall = time.perf_counter() - t0
        return Outcome(rep.status, rep.evals_used, rep.repaired_qasm), wall


class CliExpectedWorkload(EngineWorkload):
    """``qrep repair --expected <table>.json`` through ``cli.main``, where the
    table holds only the reference's Z-basis rows. The CLI's default thread
    count is used, set through QREP_THREADS to the CPUs available."""

    def __init__(self, name: str, families, evals_per_s: float):
        super().__init__(name, families, evals_per_s)
        self.threads = len(os.sched_getaffinity(0))

    def suite(self, ref, table_path: Path):
        full = testkit.generate_suite(ref)
        table = {tc.id: tc.expected.as_dict() for tc in full.cases if tc.basis is MeasBasis.Z}
        table_path.write_text(json.dumps(table, sort_keys=True))
        return testkit.suite_from_expected(json.loads(table_path.read_text())), table_path

    def store(self, m: Mutant, path: Path) -> None:
        path.write_text(qasm.emit_qasm(m.circuit))
        m.qasm_path = path

    def repair(self, m: Mutant, budget: int, workdir: Path, tracer) -> tuple[Outcome, float]:
        out = workdir / (m.qasm_path.stem + ".report.json")
        argv = ["repair", "--circuit", str(m.qasm_path), "--expected", str(m.table_path),
                "--budget-evals", str(budget), "--iterations", str(ITERATIONS), "--out", str(out)]
        os.environ["QREP_THREADS"] = str(self.threads)
        t0 = time.perf_counter()
        try:
            with tracer.span("cli.main") if tracer else nullcontext():
                code = cli.main(argv)
        except Exception as e:  # a repair that raises is a failed repair
            return Outcome("error", 0, error=f"{type(e).__name__}: {e}"), time.perf_counter() - t0
        wall = time.perf_counter() - t0
        try:
            report = json.loads(out.read_text())
        except (OSError, ValueError) as e:
            return Outcome("error", 0, exit_code=code, error=f"no report: {e}"), wall
        finally:
            out.unlink(missing_ok=True)
            out.with_suffix(".repaired.qasm").unlink(missing_ok=True)
        return Outcome(report.get("status", "missing"), report.get("evals_used", 0),
                       report.get("repaired_qasm"), code), wall


WORKLOADS = {
    "corpus": EngineWorkload("corpus", CORPUS, evals_per_s=2.75),
    "wide": EngineWorkload("wide", WIDE, evals_per_s=1.0),
    "cli-expected": CliExpectedWorkload("cli-expected", CORPUS, evals_per_s=2.5),
}
