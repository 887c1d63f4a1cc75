"""Circuit intermediate representation and pure gate-level edits.

A circuit is an ordered tuple of unitary gate applications over one quantum
register, plus a qubit -> classical-bit measurement map. Measurements and
barriers never appear in the gate tuple, so a gate's position, its index
there, counts exactly the repairable gates. All values are immutable; an
edit slices the gate tuple around the gate it adds or replaces into a new
``Circuit``, which checks the qubits of its gates (:func:`check_qubits`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

from .errors import GateIndexError, QubitIndexError


class GateKind(Enum):
    """The unitary gates. Value = (qasm name, qubit count, param count)."""

    ID = ("id", 1, 0)
    X = ("x", 1, 0)
    Y = ("y", 1, 0)
    Z = ("z", 1, 0)
    H = ("h", 1, 0)
    S = ("s", 1, 0)
    SDG = ("sdg", 1, 0)
    T = ("t", 1, 0)
    TDG = ("tdg", 1, 0)
    RX = ("rx", 1, 1)
    RY = ("ry", 1, 1)
    RZ = ("rz", 1, 1)
    P = ("p", 1, 1)
    U = ("u", 1, 3)
    CX = ("cx", 2, 0)
    CZ = ("cz", 2, 0)
    CP = ("cp", 2, 1)
    CRZ = ("crz", 2, 1)
    SWAP = ("swap", 2, 0)
    CCX = ("ccx", 3, 0)

    def __init__(self, gate_name: str, num_qubits: int, param_count: int):
        # plain attributes, not properties: a repair reads them thousands of times
        self.gate_name = gate_name
        self.num_qubits = num_qubits
        self.param_count = param_count

    # a member is its own key: Enum hashes its name in a Python frame per call
    __hash__ = object.__hash__


GATE_BY_NAME: dict[str, GateKind] = {k.gate_name: k for k in GateKind}


@dataclass(frozen=True)
class GateApp:
    """One gate application; its position is its index in ``Circuit.gates``."""

    kind: GateKind
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.qubits) != self.kind.num_qubits:
            raise QubitIndexError(
                f"{self.kind.gate_name} expects {self.kind.num_qubits} qubits, got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise QubitIndexError(f"{self.kind.gate_name} qubits must be distinct: {self.qubits}")
        if len(self.params) != self.kind.param_count:
            raise ValueError(
                f"{self.kind.gate_name} expects {self.kind.param_count} params, got {len(self.params)}"
            )
        for p in self.params:
            if not math.isfinite(p):
                raise ValueError(f"non-finite angle {p} on {self.kind.gate_name}")
        if self.kind is GateKind.U and not math.isfinite(self.params[1] + self.params[2]):
            # u's matrix takes exp(i(phi + lambda)): an infinite sum makes every amplitude NaN
            raise ValueError(f"non-finite phi + lambda {self.params[1] + self.params[2]} on u")


@dataclass(frozen=True)
class Circuit:
    """Gate list over ``num_qubits`` qubits plus a measurement map.

    ``gates[i]`` is the gate at position ``i``; edits slice the tuple.
    """

    num_qubits: int
    num_clbits: int = 0
    gates: tuple[GateApp, ...] = ()
    measurements: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        if self.num_clbits < 0:
            raise ValueError("negative classical register size")
        for g in self.gates:
            check_qubits(g, self.num_qubits)
        for q, c in self.measurements.items():
            if not 0 <= q < self.num_qubits:
                raise QubitIndexError(f"measured qubit {q} does not exist")
            if not 0 <= c < self.num_clbits:
                raise ValueError(f"classical bit {c} out of range")

    def __len__(self) -> int:
        return len(self.gates)


def check_qubits(g: GateApp, num_qubits: int) -> None:
    """The rule of every gate of a circuit: each qubit it names is one of ``num_qubits``."""
    for q in g.qubits:
        if not 0 <= q < num_qubits:
            raise QubitIndexError(f"qubit {q} out of range for {num_qubits}-qubit circuit")


def remove_gate(c: Circuit, pos: int) -> Circuit:
    """Copy of ``c`` without the gate at ``pos``; later positions shift down."""
    if not 0 <= pos < len(c.gates):
        raise GateIndexError(f"position {pos} out of range for {len(c.gates)} gates")
    return replace(c, gates=c.gates[:pos] + c.gates[pos + 1 :])


def insert_gate(c: Circuit, pos: int, g: GateApp) -> Circuit:
    """Copy of ``c`` with ``g`` inserted before position ``pos`` (append at len)."""
    if not 0 <= pos <= len(c.gates):
        raise GateIndexError(f"insert position {pos} out of range for {len(c.gates)} gates")
    return replace(c, gates=c.gates[:pos] + (g,) + c.gates[pos:])


def replace_gate(c: Circuit, pos: int, g: GateApp) -> Circuit:
    """Copy of ``c`` with the gate at ``pos`` swapped for ``g``."""
    if not 0 <= pos < len(c.gates):
        raise GateIndexError(f"position {pos} out of range for {len(c.gates)} gates")
    return replace(c, gates=c.gates[:pos] + (g,) + c.gates[pos + 1 :])


def build_circuit(
    num_qubits: int,
    ops: list[tuple] | None = None,
    measure_all: bool = True,
) -> Circuit:
    """Convenience constructor: ops as (name, qubits, [params]) tuples."""
    gates = []
    for op in ops or []:
        name, qubits = op[0], op[1]
        params = tuple(op[2]) if len(op) > 2 else ()
        if isinstance(qubits, int):
            qubits = (qubits,)
        gates.append(GateApp(GATE_BY_NAME[name], tuple(qubits), params))
    meas = {q: q for q in range(num_qubits)} if measure_all else {}
    return Circuit(
        num_qubits=num_qubits,
        num_clbits=num_qubits if measure_all else 0,
        gates=tuple(gates),
        measurements=meas,
    )
