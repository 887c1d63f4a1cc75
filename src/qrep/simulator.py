"""Exact statevector execution with X/Y/Z measurement bases.

Conventions: little-endian amplitude ordering (qubit 0 is the least
significant bit of the state index) and outcome bitstrings with qubit 0
rightmost, so index i maps to ``format(i, f"0{q}b")``. Gates are applied as
amplitude kernels on one (2,) * q + (B,) tensor that holds a batch of B
inputs, one per column, batch last; qubit k lives on axis q-1-k. A real
one-qubit matrix then multiplies the tensor as it is laid out, with no
transpose or copy. A :class:`PrefixCache` keeps the tensor
after the leading gates of one circuit, so its single-gate edits are
simulated from the edit on. No full 2^q x 2^q matrix is ever built here; the
dense-matrix product lives in the test suite as an independent oracle.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .circuit import Circuit, GateApp, GateKind
from .errors import WidthMismatchError

_NORM_ATOL = 1e-9
_NEG_ATOL = 1e-12  # a probability at most this far below zero is rounding, and clips to 0


class MeasBasis(Enum):
    """Measurement basis applied uniformly to the whole register."""

    X = "X"
    Y = "Y"
    Z = "Z"


def check_probability_rows(rows: np.ndarray) -> tuple[int, str] | None:
    """The rules every row of a ``[n, 2^q]`` probability matrix keeps:
    finite entries, none below ``-1e-12``, and a sum within ``1e-9`` of 1.
    Returns the first row that breaks one, with the reason; otherwise clips
    the rounding negatives to 0 in place and returns None."""
    negative = (rows < -_NEG_ATOL).any(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # a sum past the float range reads inf
        sums = rows.sum(axis=1)
    # a NaN or infinite entry makes its row's sum NaN or infinite, which fails too
    bad = negative | ~(np.abs(sums - 1.0) <= _NORM_ATOL)
    if bad.any():
        i = int(bad.argmax())
        if not np.isfinite(rows[i]).all():
            return i, "non-finite probability"
        if negative[i]:
            return i, "negative probability"
        return i, f"probabilities sum to {sums[i]}, not 1"
    np.maximum(rows, 0.0, out=rows)
    return None


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probabilities over all 2^q outcomes, indexed little-endian."""

    num_qubits: int
    probs: np.ndarray

    def __post_init__(self):
        p = np.array(self.probs, dtype=np.float64)
        if p.shape != (2**self.num_qubits,):
            raise WidthMismatchError(
                f"expected {2**self.num_qubits} probabilities, got {p.shape}"
            )
        bad = check_probability_rows(p[None])
        if bad is not None:
            raise ValueError(bad[1])
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


def _narrowed(m: np.ndarray) -> np.ndarray:
    """``m`` read-only, and real (float64) when every imaginary part is zero:
    the dtype is the flag :func:`_apply_1q` picks its product by."""
    if not m.imag.any():
        m = m.real.copy()
    m.setflags(write=False)
    return m


# the matrices of the gate kinds without parameters, built once
_FIXED_1Q = {
    kind: _narrowed(_matrix_1q(kind, ()))
    for kind in GateKind
    if kind.is_unitary and kind.num_qubits == 1 and not kind.param_count
}


def _gate_1q(kind: GateKind, params: tuple[float, ...]) -> np.ndarray:
    m = _FIXED_1Q.get(kind)
    return _narrowed(_matrix_1q(kind, params)) if m is None else m


def _apply_1q(t: np.ndarray, m: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """``m`` on every amplitude pair of ``qubit`` of the C-contiguous state
    tensor ``t``, as a new C-contiguous tensor.

    ``t`` is viewed as (2^(n-1-qubit), 2, 2^qubit * B). A real ``m``
    multiplies the view from the left, read as float64: no transpose, no
    copy. A complex ``m`` multiplies the transposed view from the right,
    as amplitude rows, and the result is copied back; from the left it
    would round ``rx``, ``t`` and ``u`` differently. A batch of one input
    is padded to two columns (see :class:`PrefixCache`), because a
    one-column product rounds differently from a wider one, and a row must
    not depend on its batch. On one qubit the batch is multiplied as
    stacked (B, 1, 2) cores of one amplitude row each.
    """
    if n == 1:
        cores = np.ascontiguousarray(t.T).reshape(-1, 1, 2)
        return np.ascontiguousarray((cores @ m.T).reshape(-1, 2).T)
    view = t.reshape(2 ** (n - 1 - qubit), 2, -1)
    if m.dtype == np.float64:
        return np.matmul(m, view.view(np.float64)).view(complex).reshape(t.shape)
    rows = view.transpose(0, 2, 1) @ m.T
    return np.ascontiguousarray(rows.transpose(0, 2, 1)).reshape(t.shape)


def _slices(n: int, assignments: dict[int, int]) -> tuple:
    # index of the amplitudes whose qubits hold the assigned bits, in every column
    idx: list = [slice(None)] * n
    for qubit, bit in assignments.items():
        idx[n - 1 - qubit] = bit
    return tuple(idx)


def _apply_gate(t: np.ndarray, g: GateApp, n: int) -> np.ndarray:
    """Apply ``g`` to the batched tensor ``t``, which belongs to the running
    simulation and may be updated in place. A one-qubit gate returns a new
    tensor; the others update the amplitudes whose qubits hold given bits,
    in every column at once.

    Phases are multiplied out of place with the array first
    (``t[s] = t[s] * z``): numpy picks its complex-multiply loop by length
    and operand order, and the in-place and scalar-first forms made a row's
    rounding depend on how many inputs shared the batch.
    """
    kind = g.kind
    if kind.num_qubits == 1:
        return _apply_1q(t, _gate_1q(kind, g.params), g.qubits[0], n)

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

_H = _FIXED_1Q[GateKind.H]

# bytes of prefix states one PrefixCache keeps; above it, only checkpoints.
# A 6-qubit suite keeps every prefix of up to 128 gates; from 8 qubits on a
# repair's peak memory is 90 MB or more, so the cache adds under a tenth
PREFIX_CACHE_BYTES = 8 * 2**20


@functools.cache
def _y_phases(n: int) -> np.ndarray:
    """(-i)^popcount(index) over the 2^n amplitudes: ``sdg`` on every qubit,
    shaped to broadcast over the columns of a state tensor.

    Every factor is 0 or +-1 in each part, so multiplying by it is exact.
    """
    popcount = np.array([bin(i).count("1") for i in range(2**n)])
    table = np.array([1, -1j, -1, 1j])[popcount % 4].reshape((2,) * n + (1,))
    table.setflags(write=False)
    return table


class PrefixCache:
    """States of a fixed batch of inputs after the leading gates of one
    circuit, so that a circuit sharing those gates (a single-gate edit, say)
    is simulated only from where it departs from them.

    The states after every prefix are kept when they fit in
    :data:`PREFIX_CACHE_BYTES`; otherwise only every ``stride``-th, and none
    when a single state does not fit. Each is a layout-preserving copy of
    the running tensor, so resuming from one rounds exactly as simulating
    from the inputs does. The empty prefix is the inputs themselves, built
    afresh on each resume rather than stored.

    A state is a (2,) * n + (B,) tensor: column b holds the amplitudes of
    ``columns[b]``, qubit k on axis n-1-k, so its 2^n x B reshape has one
    row per basis state. ``columns`` is ``inputs``, except that a single
    input fills two identical columns: no product then has a dimension of 1.
    """

    def __init__(self, c: Circuit, inputs):
        n = c.num_qubits
        idx = np.asarray(inputs, dtype=np.intp).reshape(-1)
        if not idx.size:
            raise ValueError("no inputs to simulate")
        bad = idx[(idx < 0) | (idx >= 2**n)]
        if bad.size:
            raise WidthMismatchError(f"input {bad[0]} out of range for {n} qubits")
        self.num_qubits = n
        self.inputs = idx
        self.columns = np.repeat(idx, 2) if len(idx) == 1 else idx
        self.gates = c.gates
        slots = PREFIX_CACHE_BYTES // (len(self.columns) * 2**n * np.dtype(complex).itemsize)
        self.stride = max(1, -(-len(c.gates) // slots)) if slots else len(c.gates) + 1
        self.states: dict[int, np.ndarray] = {}
        last = len(c.gates) - len(c.gates) % self.stride
        t = self._start() if last else None
        for k, g in enumerate(c.gates[:last], 1):
            t = _apply_gate(t, g, n)
            if k % self.stride == 0:
                self.states[k] = np.copy(t)

    def _start(self) -> np.ndarray:
        # the one-hot (2,) * n + (B,) tensor of the input columns
        n, cols = self.num_qubits, len(self.columns)
        t = np.zeros((2**n, cols), dtype=complex)
        t[self.columns, np.arange(cols)] = 1.0
        return t.reshape((2,) * n + (cols,))

    def resume(self, c: Circuit) -> tuple[int, np.ndarray]:
        """(k, a fresh copy of the state after ``c.gates[:k]``) for the
        longest cached prefix whose gates equal those of ``c``."""
        if c.num_qubits != self.num_qubits:
            raise WidthMismatchError(f"circuit has {c.num_qubits} qubits, cache {self.num_qubits}")
        shared = 0
        for a, b in zip(c.gates, self.gates):
            if a != b:
                break
            shared += 1
        k = shared - shared % self.stride
        return k, np.copy(self.states[k]) if k else self._start()


def run_all_bases(
    c: Circuit,
    inputs,
    bases: tuple[MeasBasis, ...] = BASIS_ORDER,
    prefixes: PrefixCache | None = None,
) -> np.ndarray:
    """Born-rule probabilities of every input in each of ``bases``, as an
    array indexed ``[basis, k, outcome]``: ``k`` the position of the input
    in ``inputs``.

    All inputs pass through the gate list together as one (2,) * n + (B,)
    tensor (see :class:`PrefixCache`), from the longest prefix of ``c``
    that ``prefixes`` holds (given one built for the same inputs), else
    from the inputs themselves. A row does not depend on the batch it is
    computed in, so :func:`run_exact` agrees bit for bit with a suite. The
    X basis is ``h`` on every qubit, the Y basis a phase table (``sdg`` on
    every qubit) and then ``h``, each basis in turn from the final state.
    Squared amplitudes are turned back to one contiguous row per input
    before the row sums, so a row sums in the same order in any batch.
    """
    if prefixes is None:
        prefixes = PrefixCache(Circuit(c.num_qubits), inputs)
    elif not np.array_equal(prefixes.inputs, np.asarray(inputs).reshape(-1)):
        raise ValueError("prefix cache was built for other inputs")
    n = c.num_qubits
    k, t = prefixes.resume(c)
    for g in c.gates[k:]:
        t = _apply_gate(t, g, n)
    batch = len(prefixes.inputs)
    out = np.empty((len(bases), batch, 2**n))
    for b, basis in enumerate(bases):
        s = t * _y_phases(n) if basis is MeasBasis.Y else t
        if basis is not MeasBasis.Z:
            for q in range(n):
                s = _apply_1q(s, _H, q, n)
        probs = np.ascontiguousarray((np.abs(s.reshape(2**n, -1)) ** 2).T[:batch])
        norms = probs.sum(axis=1)
        drift = np.abs(norms - 1.0)
        if np.any(drift > _NORM_ATOL):
            raise AssertionError(f"final norm {norms[drift.argmax()]} drifted beyond tolerance")
        out[b] = probs / norms[:, None]
    return out


def run_exact(c: Circuit, input_state: int, basis: MeasBasis = MeasBasis.Z) -> Distribution:
    """Born-rule outcome probabilities for |input_state> under ``c`` in ``basis``."""
    return Distribution(c.num_qubits, run_all_bases(c, [input_state], bases=(basis,))[0, 0])


# the largest draw count numpy's multinomial takes (a C long)
MAX_SHOTS = 2**63 - 1


def sample_frequencies(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Empirical frequencies from ``shots`` independent draws; seed-deterministic."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if shots > MAX_SHOTS:
        raise ValueError(f"shots must be <= {MAX_SHOTS}")
    return np.random.default_rng(seed).multinomial(shots, probs) / shots


def default_shots(q: int) -> int:
    """Shot count proportional to register size: 2^q * 2."""
    if q < 1:
        raise ValueError("qubit count must be >= 1")
    return 2**q * 2
