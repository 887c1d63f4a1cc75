"""Automated repair of small quantum circuits by budgeted patch search."""

from .benchmarks import build_benchmark
from .circuit import Circuit, GateApp, GateKind, build_circuit
from .engine import RepairConfig, RepairReport, random_search, repair
from .localizer import GateId, SuspiciousnessTable, localize
from .optimizer import OptBudget
from .patcher import Patch, generate_patches, inject_faults, order_uniform
from .qasm import emit_qasm, parse_qasm
from .simulator import Distribution, MeasBasis, run_all_bases
from .testkit import OracleConfig, TestSuite, fitness, generate_suite

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "GateApp",
    "GateKind",
    "GateId",
    "Distribution",
    "MeasBasis",
    "OptBudget",
    "OracleConfig",
    "Patch",
    "RepairConfig",
    "RepairReport",
    "SuspiciousnessTable",
    "TestSuite",
    "build_benchmark",
    "build_circuit",
    "emit_qasm",
    "fitness",
    "generate_patches",
    "generate_suite",
    "inject_faults",
    "localize",
    "order_uniform",
    "parse_qasm",
    "random_search",
    "repair",
    "run_all_bases",
    "__version__",
]
