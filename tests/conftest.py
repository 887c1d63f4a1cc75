import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
sys.path.append(str(Path(__file__).parents[1] / "perfbench"))  # for workloads.py

from qrep.circuit import GATE_BY_NAME, Circuit, GateApp, build_circuit
from qrep.localizer import LocalizeResult, localize, removals
from qrep.simulator import MeasBasis
from qrep.testkit import FitnessScore, TestSuite, edit_fitness, generate_suite, suite_from_expected
from workloads import CORPUS as _BENCHMARK_CORPUS, INJECTION_SEEDS

# (family, qubits, injection seed) of the benchmark corpus: the 18 mutants
# of perfbench's corpus workload and of scripts/run_benchmark.py
CORPUS = [(family, n, INJECTION_SEEDS[family]) for family, n in _BENCHMARK_CORPUS]

# kinds eligible for random circuits in property tests
RANDOM_KINDS = [
    "id", "x", "y", "z", "h", "s", "sdg", "t", "tdg",
    "rx", "ry", "rz", "p", "u", "cx", "cz", "cp", "crz", "swap", "ccx",
]


def random_circuit(rng: np.random.Generator, num_qubits: int, num_gates: int) -> Circuit:
    """Random circuit over the full catalog, angles in [-2pi, 2pi)."""
    gates = []
    kinds = [GATE_BY_NAME[k] for k in RANDOM_KINDS if GATE_BY_NAME[k].num_qubits <= num_qubits]
    for _ in range(num_gates):
        kind = kinds[int(rng.integers(len(kinds)))]
        qubits = tuple(int(q) for q in rng.choice(num_qubits, size=kind.num_qubits, replace=False))
        params = tuple(float(a) for a in rng.uniform(-2 * math.pi, 2 * math.pi, kind.param_count))
        gates.append(GateApp(kind, qubits, params))
    return Circuit(num_qubits=num_qubits, gates=tuple(gates))


def out_of_range_edits(c: Circuit):
    """Adds at every position and replaces of every gate of ``c`` whose gate
    (an ``x``, ``rz``, ``cx`` or ``ccx``) names a qubit that ``c`` lacks: -1
    or the first index past both the register and the kind's own qubits, in
    each of the kind's qubit slots in turn."""
    n, m = c.num_qubits, len(c.gates)
    for name in ("x", "rz", "cx", "ccx"):
        kind = GATE_BY_NAME[name]
        k = kind.num_qubits
        for bad in (max(n, k), -1):
            for slot in range(k):
                g = GateApp(kind, tuple(bad if i == slot else i for i in range(k)), (0.5,) * kind.param_count)
                yield from ((pos, g, False) for pos in range(m + 1))
                yield from ((pos, g, True) for pos in range(m))


def exact_localize(c: Circuit, ts: TestSuite, baseline: FitnessScore) -> LocalizeResult:
    """``localize`` of ``c`` over its exact-mode removal scores on ``ts``."""
    return localize(c, baseline, edit_fitness(c, ts, removals(c)))


def random_suite(ref: Circuit, kind: str, rng: np.random.Generator):
    """``ref``'s full suite, its Z-basis cases, or a random ~30% of its
    cases ("full", "z", "sparse"), the last two as expected tables."""
    ts = generate_suite(ref)
    if kind == "full":
        return ts
    cases = [tc for tc in ts.cases if tc.basis is MeasBasis.Z or kind == "sparse"]
    if kind == "sparse":
        cases = [tc for tc in cases if rng.random() < 0.3] or cases[-1:]
    return suite_from_expected({tc.id: tc.expected.as_dict() for tc in cases})


@pytest.fixture
def bell() -> Circuit:
    return build_circuit(2, [("h", (0,)), ("cx", (0, 1))])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def slow_prefix_build(monkeypatch) -> None:
    """A clock, read as ``time.monotonic``, that stands still but for ten
    seconds each time a suite builds a prefix cache, as a run does before
    its baseline."""
    clock, build = [time.monotonic()], TestSuite.prefixes

    def slow_build(self, c):
        clock[0] += 10.0
        return build(self, c)

    monkeypatch.setattr(TestSuite, "prefixes", slow_build)
    monkeypatch.setattr(time, "monotonic", lambda: clock[0])
