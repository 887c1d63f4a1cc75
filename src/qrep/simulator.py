"""Exact statevector execution with X/Y/Z measurement bases.

Conventions: little-endian amplitude ordering (qubit 0 is the least
significant bit of the state index) and outcome bitstrings with qubit 0
rightmost, so index i maps to ``format(i, f"0{q}b")``. Gates are applied as
amplitude kernels on one [B, 1, 2, ..., 2] tensor that holds a batch of B
inputs; qubit k lives on axis q+1-k. No full 2^q x 2^q matrix is ever built
here; the dense-matrix product lives in the test suite as an independent
oracle.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .circuit import Circuit, GateApp, GateKind
from .errors import WidthMismatchError

_NORM_ATOL = 1e-9


class MeasBasis(Enum):
    """Measurement basis applied uniformly to the whole register."""

    X = "X"
    Y = "Y"
    Z = "Z"


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probabilities over all 2^q outcomes, indexed little-endian."""

    num_qubits: int
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.shape != (2**self.num_qubits,):
            raise WidthMismatchError(
                f"expected {2**self.num_qubits} probabilities, got {p.shape}"
            )
        if not np.all(np.isfinite(p)):
            raise ValueError("non-finite probability")
        if np.any(p < -1e-12):
            raise ValueError("negative probability")
        if abs(float(p.sum()) - 1.0) > _NORM_ATOL:
            raise ValueError(f"probabilities sum to {p.sum()}, not 1")
        p = np.clip(p, 0.0, None)
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    def bitstring(self, index: int) -> str:
        return format(index, f"0{self.num_qubits}b")

    def as_dict(self, min_prob: float = 0.0) -> dict[str, float]:
        return {
            self.bitstring(i): float(p)
            for i, p in enumerate(self.probs)
            if p > min_prob
        }

    @classmethod
    def from_dict(cls, num_qubits: int, probs: dict[str, float]) -> "Distribution":
        arr = np.zeros(2**num_qubits)
        for bits, p in probs.items():
            if len(bits) != num_qubits or set(bits) - {"0", "1"}:
                raise WidthMismatchError(f"bad outcome bitstring {bits!r} for {num_qubits} qubits")
            arr[int(bits, 2)] = p
        return cls(num_qubits, arr)

    def allclose(self, other: "Distribution", atol: float = 1e-10) -> bool:
        return self.num_qubits == other.num_qubits and bool(
            np.allclose(self.probs, other.probs, atol=atol, rtol=0.0)
        )


_SQRT1_2 = 1.0 / math.sqrt(2.0)


def _matrix_1q(kind: GateKind, params: tuple[float, ...]) -> np.ndarray:
    if kind is GateKind.ID:
        return np.eye(2, dtype=complex)
    if kind is GateKind.X:
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if kind is GateKind.Y:
        return np.array([[0, -1j], [1j, 0]], dtype=complex)
    if kind is GateKind.Z:
        return np.array([[1, 0], [0, -1]], dtype=complex)
    if kind is GateKind.H:
        return np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT1_2
    if kind is GateKind.S:
        return np.array([[1, 0], [0, 1j]], dtype=complex)
    if kind is GateKind.SDG:
        return np.array([[1, 0], [0, -1j]], dtype=complex)
    if kind is GateKind.T:
        return np.array([[1, 0], [0, cmath.exp(0.25j * math.pi)]], dtype=complex)
    if kind is GateKind.TDG:
        return np.array([[1, 0], [0, cmath.exp(-0.25j * math.pi)]], dtype=complex)
    if kind is GateKind.RX:
        t = params[0] / 2.0
        return np.array(
            [[math.cos(t), -1j * math.sin(t)], [-1j * math.sin(t), math.cos(t)]], dtype=complex
        )
    if kind is GateKind.RY:
        t = params[0] / 2.0
        return np.array(
            [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]], dtype=complex
        )
    if kind is GateKind.RZ:
        t = params[0] / 2.0
        return np.array([[cmath.exp(-1j * t), 0], [0, cmath.exp(1j * t)]], dtype=complex)
    if kind is GateKind.P:
        return np.array([[1, 0], [0, cmath.exp(1j * params[0])]], dtype=complex)
    if kind is GateKind.U:
        theta, phi, lam = params
        return np.array(
            [
                [math.cos(theta / 2), -cmath.exp(1j * lam) * math.sin(theta / 2)],
                [
                    cmath.exp(1j * phi) * math.sin(theta / 2),
                    cmath.exp(1j * (phi + lam)) * math.cos(theta / 2),
                ],
            ],
            dtype=complex,
        )
    raise ValueError(f"{kind.gate_name} is not a single-qubit gate")


def _apply_1q(t: np.ndarray, m: np.ndarray, qubit: int, n: int) -> np.ndarray:
    axis = n + 1 - qubit
    return np.moveaxis(np.moveaxis(t, axis, -1) @ m.T, -1, axis)


def _slices(n: int, assignments: dict[int, int]) -> tuple:
    # index of the amplitudes whose qubits hold the assigned bits, in every row
    idx: list = [slice(None)] * (n + 2)
    for qubit, bit in assignments.items():
        idx[n + 1 - qubit] = bit
    return tuple(idx)


def _apply_gate(t: np.ndarray, g: GateApp, n: int) -> np.ndarray:
    """Apply ``g`` to the batched tensor ``t``, which belongs to the running
    simulation and may be updated in place.

    Phases are multiplied out of place with the array first
    (``t[s] = t[s] * z``): numpy picks its complex-multiply loop by length
    and operand order, and the in-place and scalar-first forms made a row's
    rounding depend on how many inputs shared the batch.
    """
    kind = g.kind
    if kind.num_qubits == 1:
        return _apply_1q(t, _matrix_1q(kind, g.params), g.qubits[0], n)

    if kind is GateKind.CX:
        c, x = g.qubits
        a, b = _slices(n, {c: 1, x: 0}), _slices(n, {c: 1, x: 1})
        t[a], t[b] = t[b].copy(), t[a].copy()
    elif kind is GateKind.CZ:
        s = _slices(n, {g.qubits[0]: 1, g.qubits[1]: 1})
        t[s] = -t[s]
    elif kind is GateKind.CP:
        s = _slices(n, {g.qubits[0]: 1, g.qubits[1]: 1})
        t[s] = t[s] * cmath.exp(1j * g.params[0])
    elif kind is GateKind.CRZ:
        c, x = g.qubits
        half = g.params[0] / 2.0
        a, b = _slices(n, {c: 1, x: 0}), _slices(n, {c: 1, x: 1})
        t[a] = t[a] * cmath.exp(-1j * half)
        t[b] = t[b] * cmath.exp(1j * half)
    elif kind is GateKind.SWAP:
        a, b = g.qubits
        lo, hi = _slices(n, {a: 0, b: 1}), _slices(n, {a: 1, b: 0})
        t[lo], t[hi] = t[hi].copy(), t[lo].copy()
    elif kind is GateKind.CCX:
        c1, c2, x = g.qubits
        a = _slices(n, {c1: 1, c2: 1, x: 0})
        b = _slices(n, {c1: 1, c2: 1, x: 1})
        t[a], t[b] = t[b].copy(), t[a].copy()
    else:
        raise ValueError(f"no kernel for {kind.gate_name}")
    return t


BASIS_ORDER = (MeasBasis.X, MeasBasis.Y, MeasBasis.Z)

_BASIS_ROTATIONS: dict[MeasBasis, tuple[GateKind, ...]] = {
    MeasBasis.X: (GateKind.H,),
    MeasBasis.Y: (GateKind.SDG, GateKind.H),
    MeasBasis.Z: (),
}


def run_all_bases(c: Circuit, inputs) -> np.ndarray:
    """Born-rule probabilities of every input in every basis, as an array
    indexed ``[basis, k, outcome]``: bases in :data:`BASIS_ORDER`, ``k`` the
    position of the input in ``inputs``.

    All inputs pass through the gate list together as one [B, 1, 2, ..., 2]
    tensor. The unit axis keeps the core of every single-qubit matmul a
    2x2 block, whatever B and q are, so a row does not depend on the batch it
    is computed in and :func:`run_exact` agrees bit for bit with a suite.
    """
    n = c.num_qubits
    idx = np.asarray(inputs, dtype=np.intp).reshape(-1)
    bad = idx[(idx < 0) | (idx >= 2**n)]
    if bad.size:
        raise WidthMismatchError(f"input {bad[0]} out of range for {n} qubits")
    batch = len(idx)
    state = np.zeros((batch, 2**n), dtype=complex)
    state[np.arange(batch), idx] = 1.0
    t = state.reshape((batch, 1) + (2,) * n)
    for g in c.gates:
        t = _apply_gate(t, g, n)
    out = np.empty((len(BASIS_ORDER), batch, 2**n))
    for k, basis in enumerate(BASIS_ORDER):
        s = t
        for rot in _BASIS_ROTATIONS[basis]:
            m = _matrix_1q(rot, ())
            for q in range(n):
                s = _apply_1q(s, m, q, n)
        probs = np.abs(s.reshape(batch, -1)) ** 2
        norms = probs.sum(axis=1)
        drift = np.abs(norms - 1.0)
        if np.any(drift > _NORM_ATOL):
            raise AssertionError(f"final norm {norms[drift.argmax()]} drifted beyond tolerance")
        out[k] = probs / norms[:, None]
    return out


def run_exact(c: Circuit, input_state: int, basis: MeasBasis = MeasBasis.Z) -> Distribution:
    """Born-rule outcome probabilities for |input_state> under ``c`` in ``basis``."""
    return Distribution(c.num_qubits, run_all_bases(c, [input_state])[BASIS_ORDER.index(basis), 0])


def sample_frequencies(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Empirical frequencies from ``shots`` independent draws; seed-deterministic."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    return np.random.default_rng(seed).multinomial(shots, probs) / shots


def sample(d: Distribution, shots: int, seed: int) -> Distribution:
    """:func:`sample_frequencies` of a :class:`Distribution`."""
    return Distribution(d.num_qubits, sample_frequencies(d.probs, shots, seed))


def default_shots(q: int) -> int:
    """Shot count proportional to register size: 2^q * 2."""
    if q < 1:
        raise ValueError("qubit count must be >= 1")
    return 2**q * 2
