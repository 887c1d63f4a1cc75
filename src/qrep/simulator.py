"""Exact statevector execution with X/Y/Z measurement bases.

Conventions: little-endian amplitude ordering (qubit 0 is the least
significant bit of the state index) and outcome bitstrings with qubit 0
rightmost, so index i maps to ``format(i, f"0{q}b")``. Gates are applied as
amplitude kernels on one (2,) * q + (B,) tensor that holds a batch of B
inputs, one per column, batch last; qubit k lives on axis q-1-k. A real
one-qubit matrix then multiplies the tensor as it is laid out, with no
transpose or copy. A gate's kernel (:func:`_kernel`) is built once, with
its matrix or its amplitude slices and phases worked out, and applied as
often as the gate is. The tensor may carry leading block axes, one block
per circuit or per basis: the kernels index qubits from the right, so
every block is updated by the same call and rounds as it would alone. A
run of single-gate edits of one circuit (a removal sweep's, or a patch
search's run of fixed patches) is stacked this way, as a staircase of
edited circuits, and the measurement stacks the X and Y bases of the
final states (see :func:`run_all_bases`). A :class:`PrefixCache` keeps the
tensor after the leading gates of one circuit, and a kernel per gate. Every
simulation is one staircase over those kernels (:func:`_staircase`), and
every candidate is an edit: the cached circuit joins it after its last
gate, and each single-gate edit at the edit, so it is simulated from the
edit on. Once a caller has built it (an angle probe, or a repair whose
chunks hold one edit), a lone edit, one simulated with no other, runs in
the cache's plan instead (:meth:`PrefixCache.plan` and
:meth:`PrefixCache.lone`): two state tensors, a rotation stack and its
twin, and moduli, all sized once from the cache's shape and
:data:`BASIS_STACK_BYTES`, with every per-qubit view and a step per
cached gate made once, so its one-qubit gates and measurement write into
buffers and round as the staircase does. Both paths measure the rows into
one buffer laid out ``[edit, input, basis, outcome]``, the order a suite
reads its cases in; the plan's buffer is the caller's. No full 2^q x 2^q
matrix is ever built here; the dense-matrix product lives in the test
suite as an independent oracle. Every probability returned here is exact: a
sampled-mode oracle draws its shots from them in :mod:`qrep.testkit`.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import groupby
from typing import Callable, Sequence

import numpy as np

from .circuit import Circuit, GateApp, GateKind, check_qubits
from .errors import QRepError, WidthMismatchError

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
    if not np.count_nonzero(m.imag):
        m = m.real.copy()
    m.setflags(write=False)
    return m


# the matrices of the gate kinds without parameters, built once
_FIXED_1Q = {
    kind: _narrowed(_matrix_1q(kind, ()))
    for kind in GateKind
    if kind.num_qubits == 1 and not kind.param_count
}


def _param_1q(kind: GateKind, params: tuple[float, ...]) -> np.ndarray:
    """``_narrowed(_matrix_1q(kind, params))`` of a parametric kind, built
    from its four entries, computed as :func:`_matrix_1q` computes them:
    the real parts in a float64 matrix when every imaginary part is zero,
    with no complex matrix built and copied out first (``ry``'s entries are
    floats, so it is always real)."""
    if kind is GateKind.RX:
        t = params[0] / 2.0
        a, b = math.cos(t), -1j * math.sin(t)
        c, d = b, a
    elif kind is GateKind.RY:
        t = params[0] / 2.0
        a, b, c, d = math.cos(t), -math.sin(t), math.sin(t), math.cos(t)
    elif kind is GateKind.RZ:
        t = params[0] / 2.0
        a, b, c, d = cmath.exp(-1j * t), 0, 0, cmath.exp(1j * t)
    elif kind is GateKind.P:
        a, b, c, d = 1, 0, 0, cmath.exp(1j * params[0])
    elif kind is GateKind.U:
        theta, phi, lam = params
        a, b = math.cos(theta / 2), -cmath.exp(1j * lam) * math.sin(theta / 2)
        c, d = cmath.exp(1j * phi) * math.sin(theta / 2), cmath.exp(1j * (phi + lam)) * math.cos(theta / 2)
    else:
        raise ValueError(f"{kind.gate_name} is not a parametric single-qubit gate")
    if a.imag or b.imag or c.imag or d.imag:
        m = np.array([[a, b], [c, d]], dtype=complex)
    else:
        m = np.array([[a.real, b.real], [c.real, d.real]], dtype=np.float64)
    m.setflags(write=False)
    return m


def _gate_1q(kind: GateKind, params: tuple[float, ...]) -> np.ndarray:
    m = _FIXED_1Q.get(kind)
    return _param_1q(kind, params) if m is None else m


def _apply_1q(t: np.ndarray, m: np.ndarray, width: int, n: int) -> np.ndarray:
    """``m`` on every amplitude pair of the qubit ``log2(width)`` of the
    C-contiguous state tensor ``t``, as a new C-contiguous tensor.

    ``t`` is viewed as (-1, 2, width * B): the qubits above the gate's and
    any block axis merge into the leading dimension. A real ``m``
    multiplies the view from the left, read as float64: no transpose, no
    copy. A complex ``m`` multiplies the transposed view from the right,
    as amplitude rows, and the result is copied back; from the left it
    would round ``rx``, ``t`` and ``u`` differently. A batch of one input
    is padded to two columns (see :class:`PrefixCache`), because a
    one-column product rounds differently from a wider one, and a row must
    not depend on its batch. On one qubit each block's batch is multiplied
    as stacked (B, 1, 2) cores of one amplitude row each.
    """
    if n == 1:
        blocks = t.reshape(-1, 2, t.shape[-1])
        cores = np.ascontiguousarray(blocks.transpose(0, 2, 1)).reshape(-1, 1, 2)
        rows = (cores @ m.T).reshape(len(blocks), -1, 2)
        return np.ascontiguousarray(rows.transpose(0, 2, 1)).reshape(t.shape)
    view = t.reshape(-1, 2, width * t.shape[-1])
    if m.dtype == np.float64:
        return np.matmul(m, view.view(np.float64)).view(complex).reshape(t.shape)
    rows = view.transpose(0, 2, 1) @ m.T
    return np.ascontiguousarray(rows.transpose(0, 2, 1)).reshape(t.shape)


@functools.cache
def _slices(n: int, *assignments: int) -> tuple:
    # index of the amplitudes whose qubits hold the assigned bits, given as
    # qubit, bit, qubit, bit, ..., in every column of every block: the
    # qubit axes are counted from the batch axis
    idx: list = [slice(None)] * n
    for qubit, bit in zip(assignments[::2], assignments[1::2]):
        idx[n - 1 - qubit] = bit
    return (Ellipsis, *idx, slice(None))


def _kernel(g: GateApp, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """``g`` as a kernel on the batched ``n``-qubit tensor: a call takes a
    tensor that belongs to the running simulation, which it may update in
    place, and returns the result. Everything a call needs is worked out
    here, once. A one-qubit kernel holds its narrowed matrix and view width
    and returns a new tensor; the others hold the amplitudes whose qubits
    hold given bits, in every column at once, and their phases, and update
    them in place.

    Phases are multiplied out of place with the array first
    (``t[s] = t[s] * z``): numpy picks its complex-multiply loop by length
    and operand order, and the in-place and scalar-first forms made a row's
    rounding depend on how many inputs shared the batch.
    """
    check_qubits(g, n)  # a qubit outside the tensor would index another axis
    kind, qs = g.kind, g.qubits
    if kind.num_qubits == 1:
        m, width = _gate_1q(kind, g.params), 2 ** qs[0]
        return lambda t: _apply_1q(t, m, width, n)
    if kind is GateKind.CZ:
        s = _slices(n, qs[0], 1, qs[1], 1)

        def negate(t: np.ndarray) -> np.ndarray:
            t[s] = -t[s]
            return t

        return negate
    if kind is GateKind.CP:
        phases = ((_slices(n, qs[0], 1, qs[1], 1), cmath.exp(1j * g.params[0])),)
    elif kind is GateKind.CRZ:
        half = g.params[0] / 2.0
        phases = (
            (_slices(n, qs[0], 1, qs[1], 0), cmath.exp(-1j * half)),
            (_slices(n, qs[0], 1, qs[1], 1), cmath.exp(1j * half)),
        )
    else:
        if kind is GateKind.CX:
            a, b = _slices(n, qs[0], 1, qs[1], 0), _slices(n, qs[0], 1, qs[1], 1)
        elif kind is GateKind.SWAP:
            a, b = _slices(n, qs[0], 0, qs[1], 1), _slices(n, qs[0], 1, qs[1], 0)
        elif kind is GateKind.CCX:
            a, b = _slices(n, qs[0], 1, qs[1], 1, qs[2], 0), _slices(n, qs[0], 1, qs[1], 1, qs[2], 1)
        else:
            raise ValueError(f"no kernel for {kind.gate_name}")

        def exchange(t: np.ndarray) -> np.ndarray:
            t[a], t[b] = t[b].copy(), t[a].copy()
            return t

        return exchange

    def phase(t: np.ndarray) -> np.ndarray:
        for s, z in phases:
            t[s] = t[s] * z
        return t

    return phase


BASIS_ORDER = (MeasBasis.X, MeasBasis.Y, MeasBasis.Z)

_H = _FIXED_1Q[GateKind.H]

# bytes of prefix states one PrefixCache keeps; above it, only checkpoints.
# A 6-qubit suite keeps every prefix of up to 128 gates; from 8 qubits on a
# repair's peak memory is 90 MB or more, so the cache adds under a tenth
PREFIX_CACHE_BYTES = 8 * 2**20

# bytes of stacked states one chunk of edits holds, a removal sweep's or a
# run of fixed patches': a full suite's edits go 64 to a chunk at 3 qubits
# and 16 at 4, and a 6-qubit state fills a chunk alone. Stacking two
# 6-qubit states made a dj6 sweep slower, not faster (scripts/bench.py's
# localize_* layers measure this)
SWEEP_CHUNK_BYTES = 64 * 2**10

# bytes of basis-rotated states one measurement pass stacks: a full suite's
# X and Y states go through one h layer together up to 6 qubits (64 KiB a
# state), and so do a chunk of edits'. From 7 qubits on each basis is
# rotated alone, so a wide measurement holds one stack of one state: with
# no cap, generate_suite plus one fitness of qft11 peaked at 655 MB RSS
# against 495 MB. SWEEP_CHUNK_BYTES, a quarter of this, would rotate a
# 6-qubit suite one basis at a time (scripts/bench.py's measure_* layers
# time the measurement alone)
BASIS_STACK_BYTES = 256 * 2**10

# freeing one mapped 1 MiB block raises glibc's mmap and trim thresholds
# (mallopt(3)), so a measurement's temporaries stay in the heap instead of
# faulting their pages in afresh on every call; other allocators ignore it
np.empty(2**17)


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


def _integers(inputs) -> np.ndarray:
    """``inputs`` as given, in a flat object array: not rounded, parsed or
    widened to floats. The first that is not an integer (a bool is not) is
    named in a :class:`QRepError`."""
    idx = np.asarray(inputs, dtype=object).reshape(-1)
    wrong = [x for x in idx.tolist() if not isinstance(x, (int, np.integer)) or isinstance(x, bool)]
    if wrong:
        raise QRepError(f"input {wrong[0]!r} is not an integer")
    return idx


class PrefixCache:
    """States of a fixed batch of inputs after the leading gates of one
    circuit, so that each single-gate edit of it is simulated only from the
    edit on.

    The states after every prefix are kept when they fit in
    :data:`PREFIX_CACHE_BYTES`; otherwise only every ``stride``-th, and none
    when a single state does not fit or ``keep`` is false. Each is a
    layout-preserving copy of the running tensor, so going on from one
    rounds exactly as simulating from the inputs does. The empty prefix is
    the inputs themselves, built afresh on each use rather than stored.

    A state is a (2,) * n + (B,) tensor: column b holds the amplitudes of
    ``columns[b]``, qubit k on axis n-1-k, so its 2^n x B reshape has one
    row per basis state. ``columns`` is ``inputs``, except that a single
    input fills two identical columns: no product then has a dimension of 1.
    """

    def __init__(self, c: Circuit, inputs, keep: bool = True):
        n = c.num_qubits
        idx = _integers(inputs)
        if not idx.size:
            raise ValueError("no inputs to simulate")
        bad = idx[(idx < 0) | (idx >= 2**n)]
        if bad.size:
            raise WidthMismatchError(f"input {bad[0]} out of range for {n} qubits")
        self.num_qubits = n
        self.inputs = idx = idx.astype(np.intp)
        self.given = inputs if isinstance(inputs, (tuple, range)) else None  # immutable, so checked once
        self.columns = np.repeat(idx, 2) if len(idx) == 1 else idx
        self.gates = c.gates
        self.kernels = [_kernel(g, n) for g in c.gates]
        self.state_bytes = len(self.columns) * 2**n * np.dtype(complex).itemsize
        slots = PREFIX_CACHE_BYTES // self.state_bytes if keep else 0
        self.stride = max(1, -(-len(c.gates) // slots)) if slots else len(c.gates) + 1
        self.states: dict[int, np.ndarray] = {}
        self._plan: _LonePlan | None = None
        last = len(c.gates) - len(c.gates) % self.stride
        t = self._start() if last else None
        for k, kernel in enumerate(self.kernels[:last], 1):
            t = kernel(t)
            if k % self.stride == 0:
                self.states[k] = np.copy(t)

    def _start(self) -> np.ndarray:
        # the one-hot (2,) * n + (B,) tensor of the input columns
        n, cols = self.num_qubits, len(self.columns)
        t = np.zeros((2**n, cols), dtype=complex)
        t[self.columns, np.arange(cols)] = 1.0
        return t.reshape((2,) * n + (cols,))

    def after(self, k: int) -> np.ndarray:
        """A fresh copy of the state after the cached circuit's first ``k``
        gates, simulated on from the last stored state at or before it."""
        start = k - k % self.stride
        t = np.copy(self.states[start]) if start else self._start()
        for kernel in self.kernels[start:k]:
            t = kernel(t)
        return t

    def check(self, c: Circuit, inputs) -> None:
        """Raise unless the cache was built for ``c`` and ``inputs``, which
        are held to its integer rule; the inputs it was built from pass at
        once."""
        if inputs is not self.given and not np.array_equal(self.inputs, _integers(inputs)):
            raise ValueError("prefix cache was built for other inputs")
        if c.num_qubits != self.num_qubits:
            raise WidthMismatchError(f"circuit has {c.num_qubits} qubits, cache {self.num_qubits}")
        if self.gates is not c.gates and self.gates != c.gates:
            raise ValueError("prefix cache was built for another circuit")

    def joins_at(self, e: tuple[int, GateApp | None, bool]) -> int:
        """The step at which the cached circuit with the single-gate edit
        ``e`` = (position, gate, replaces) made joins the cached gates for
        good: ``gate`` put before gate ``position``, or in its place when
        ``replaces``; a gate of None with ``replaces`` removes gate
        ``position``. An add joins at step ``position``, a replace or
        removal one step later. Raises ValueError for an edit the circuit
        cannot take."""
        position, gate, replaces = e
        m = len(self.gates)
        if not 0 <= position < m + (not replaces) or (gate is None and not replaces):
            raise ValueError(f"no edit ({position}, {gate}, {replaces}) of a circuit of {m} gates")
        return position + bool(replaces)

    def edit(self, e: tuple[int, GateApp | None, bool]) -> tuple[int, np.ndarray]:
        """(step, state): :meth:`joins_at` of the edit ``e``, and a fresh
        state of the edited circuit up to there: the cached state after
        ``position`` gates with the edit's own gate (if any) applied."""
        step, (position, gate, _) = self.joins_at(e), e
        t = self.after(position)
        return step, t if gate is None else _kernel(gate, self.num_qubits)(t)

    @property
    def chunk(self) -> int:
        """Edits per stacked simulation: as many as fit
        :data:`SWEEP_CHUNK_BYTES` of states, and at least one."""
        return max(1, SWEEP_CHUNK_BYTES // self.state_bytes)

    def plan(self) -> bool:
        """Build the cache's plan for lone edits (:class:`_LonePlan`) unless
        it has one, and say whether it has one. A caller about to simulate
        many lone edits builds it: an angle probe, or a repair whose chunks
        hold one edit (a 6-qubit state fills :data:`SWEEP_CHUNK_BYTES`).
        A mutant injection's few chunks of one would not pay for the
        buffers, and build none. There is no plan on one qubit, whose
        products keep :func:`_apply_1q`'s core form, or when a state is
        wider than :data:`BASIS_STACK_BYTES`: the plan keeps six to nine
        states, so its buffers stay under 1.5 MiB, and at such widths the
        arithmetic, not the calls around it, is the cost."""
        if self._plan is None and self.num_qubits > 1 and self.state_bytes <= BASIS_STACK_BYTES:
            self._plan = _LonePlan(self)
        return self._plan is not None

    @property
    def planned(self) -> bool:
        """Whether the cache has its plan for lone edits (see :meth:`plan`)."""
        return self._plan is not None

    def lone(
        self, c: Circuit, inputs, e: tuple[int, GateApp | None, bool], bases: tuple[MeasBasis, ...], out: np.ndarray
    ):
        """:func:`run_all_bases` of ``c`` with the edits ``[e]``, indexed
        ``[0, basis, k, outcome]``, simulated in the cache's plan and
        measured into ``out``, a ``[1, k, basis, outcome]`` buffer of the
        caller's, of which it is a transposed view; ``c`` and ``inputs``
        are held to :meth:`check`. None, with nothing simulated, when the
        cache has no plan (see :meth:`plan`)."""
        if self._plan is None:
            return None
        self.check(c, inputs)
        self._plan.run(self, e, bases, out)
        return out.transpose(0, 2, 1, 3)


def _real_views(t: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Per qubit q, the float64 (-1, 2, 2 * 2^q * B) view of the C-contiguous
    state tensor ``t`` (any block axes merged into the first dimension)
    that a real one-qubit product reads and writes (see :func:`_apply_1q`)."""
    return tuple(t.reshape(-1, 2, 2**q * t.shape[-1]).view(np.float64) for q in range(n))


def _complex_1q(m_t: np.ndarray, cols: np.ndarray, scratch: np.ndarray) -> None:
    # the amplitude rows times m.T into a contiguous scratch, then copied
    # back through the transposed view: _apply_1q's complex product
    np.matmul(cols, m_t, out=scratch)
    np.copyto(cols, scratch)


class _LonePlan:
    """Buffers, views and steps that simulate a :class:`PrefixCache`'s
    circuit with one single-gate edit made, one edit per call, with no block
    axis (:meth:`PrefixCache.lone`). It keeps no reference to the cache, so
    a cache is freed as soon as its run drops it. Everything that depends
    only on the cache is made once, here: two state tensors and each one's
    views per qubit, one step per cached gate and per tensor holding the
    state (built the first time it runs), the rotated-basis stack and its
    twin, sized for the bases one measurement pass holds (one at a time
    where :data:`BASIS_STACK_BYTES` requires it), and the moduli. The rows
    are measured into a buffer the caller passes in.

    A real one-qubit step is ``np.matmul(m, src, out=dst)`` from one state
    tensor into the other. A complex one multiplies the amplitude rows into
    the other tensor, used as scratch, and copies them back through the
    transposed view. Both round as :func:`_apply_1q` does, and the phase and
    exchange kernels update the state in place, as they do in a staircase,
    so a call's rows equal, bit for bit, those of the edit simulated alone by
    :func:`run_all_bases`.
    """

    def __init__(self, cache: PrefixCache):
        n, cols = cache.num_qubits, len(cache.columns)
        shape = (2,) * n + (cols,)
        self.n = n
        self.states = (np.empty(shape, dtype=complex), np.empty(shape, dtype=complex))
        self.real = [_real_views(t, n) for t in self.states]
        self.cols = [tuple(t.reshape(-1, 2, 2**q * cols).transpose(0, 2, 1) for q in range(n)) for t in self.states]
        self.scratch = [tuple(t.reshape(-1, 2**q * cols, 2) for q in range(n)) for t in self.states]
        self.start = self.states[0].reshape(2**n, cols), (cache.columns, np.arange(cols))
        self.steps: list[tuple | None] = [None] * len(cache.gates)  # built on first use
        self.per_pass = max(1, BASIS_STACK_BYTES // cache.state_bytes)
        # the stack and its twin, and the views of their first r states
        stack = [np.empty((min(self.per_pass, 2),) + shape, dtype=complex) for _ in (0, 1)]
        self.stacks = {
            r: ([s[:r] for s in stack], [_real_views(s[:r], n) for s in stack]) for r in range(1, len(stack[0]) + 1)
        }
        self.moduli = _spaced(min(self.per_pass, len(BASIS_ORDER)), shape)

    def _step(self, g: GateApp, i: int, kernel: Callable | None = None) -> tuple[Callable[[], object], int]:
        """``g`` as a step on the state in tensor ``i``: the call, and the
        tensor that holds the state after it. ``kernel`` is ``g``'s
        :func:`_kernel` when the cache has built it."""
        if g.kind.num_qubits > 1:
            return partial(kernel or _kernel(g, self.n), self.states[i]), i
        check_qubits(g, self.n)
        m, q = _gate_1q(g.kind, g.params), g.qubits[0]
        if m.dtype == np.float64:
            return partial(np.matmul, m, self.real[i][q], out=self.real[1 - i][q]), 1 - i
        return partial(_complex_1q, m.T, self.cols[i][q], self.scratch[1 - i][q]), i

    def _cached_gates(self, cache: PrefixCache, lo: int, hi: int, i: int) -> int:
        # cached gates lo..hi-1 on the state in tensor i; returns the tensor
        # that holds it after them
        for k in range(lo, hi):
            steps = self.steps[k]
            if steps is None:
                g, kernel = cache.gates[k], cache.kernels[k]
                steps = self.steps[k] = (self._step(g, 0, kernel), self._step(g, 1, kernel))
            call, i = steps[i]
            call()
        return i

    def rotated(self, t: np.ndarray, rotated: list[MeasBasis]) -> np.ndarray:
        """:func:`_rotated` in the plan's stack and twin."""
        (s, twin), views = self.stacks[len(rotated)]
        _fill(s, t, rotated, self.n)
        i = 0
        for q in range(self.n):
            np.matmul(_H, views[i][q], out=views[1 - i][q])
            i = 1 - i
        return (s, twin)[i]

    def run(
        self, cache: PrefixCache, e: tuple[int, GateApp | None, bool], bases: tuple[MeasBasis, ...], out: np.ndarray
    ) -> None:
        """The rows of ``cache``'s circuit with the edit ``e`` made, measured
        into ``out``, indexed ``[0, k, basis, outcome]``, in as many passes
        as :data:`BASIS_STACK_BYTES` requires."""
        join = cache.joins_at(e)
        position, gate, _ = e
        start = position - position % cache.stride
        if start:
            np.copyto(self.states[0], cache.states[start])
        else:  # the one-hot inputs, as PrefixCache._start builds them
            flat, ones = self.start
            flat.fill(0)
            flat[ones] = 1.0
        i = self._cached_gates(cache, start, position, 0)
        if gate is not None:
            call, i = self._step(gate, i)
            call()
        i = self._cached_gates(cache, join, len(self.steps), i)
        step = self.per_pass
        for lo in range(0, len(bases), step):
            _measure(self.states[i], bases[lo : lo + step], self.n, out[:, :, lo : lo + step], self)


def _staircase(prefixes: PrefixCache, joins: Sequence[tuple[int, np.ndarray]]) -> np.ndarray:
    """The final states of the circuits that ``joins`` (the cached circuit
    after its last gate, or :meth:`PrefixCache.edit`) start, stacked one
    block per join in the order given. Each state joins the stack at its
    step, and every later gate is applied once to all the blocks that have
    joined, by the kernel the cache built for it. States that join at one
    step are stacked in the order given. One join is simulated with no
    block axis: its state, then the cache's kernels from its step."""
    if not joins:
        raise ValueError("no edit to simulate")
    order = sorted(range(len(joins)), key=lambda i: joins[i][0])
    step, t = joins[order[0]]
    if len(joins) > 1:
        t = None
        for at, group in groupby(order, key=lambda i: joins[i][0]):
            for kernel in prefixes.kernels[step:at]:
                t = kernel(t)
            blocks = [joins[i][1][None] for i in group]
            t, step = np.concatenate(blocks if t is None else [t, *blocks]), at
    for kernel in prefixes.kernels[step:]:
        t = kernel(t)
    return t if order == sorted(order) else t[np.argsort(order)]


def _fill(s: np.ndarray, t: np.ndarray, rotated: list[MeasBasis], n: int) -> None:
    # block j of the stack s: the final states t, times the phase table
    # (sdg on every qubit) for Y
    for j, basis in enumerate(rotated):
        if basis is MeasBasis.Y:
            np.multiply(t, _y_phases(n), out=s[j])
        else:
            s[j] = t


def _rotated(t: np.ndarray, rotated: list[MeasBasis], n: int) -> np.ndarray:
    """The final ``n``-qubit states ``t`` rotated into each of ``rotated``
    (X or Y), stacked on a leading axis and put through one ``h`` layer."""
    if len(rotated) == 1:  # no stack to build
        s = (t * _y_phases(n) if rotated[0] is MeasBasis.Y else t)[None]
    else:
        s = np.empty((len(rotated),) + t.shape, dtype=complex)
        _fill(s, t, rotated, n)
    for q in range(n):
        s = _apply_1q(s, _H, 2**q, n)
    return s


def _spaced(count: int, shape: tuple[int, ...]) -> np.ndarray:
    """``np.empty((count,) + shape)`` with each block one cache line (8
    floats) past the end of the one before: blocks of a power-of-two size
    share cache sets, and :func:`_measure`'s square, which reads one
    column of every block in turn through its transpose, then ran 50%
    slower (3 blocks of 64 x 64 moduli)."""
    size = math.prod(shape)
    return np.empty((count, size + 8))[:, :size].reshape((count,) + shape)


def _measure(
    t: np.ndarray, bases: tuple[MeasBasis, ...], n: int, out: np.ndarray, plan: _LonePlan | None = None
) -> None:
    """The probabilities of the final ``n``-qubit states ``t`` in each of
    ``bases``, written into ``out``, indexed ``[block, input, basis,
    outcome]``: the order a suite reads its cases in. The X and Y states
    are stacked on a leading axis and rotated by one ``h`` layer
    (:func:`_rotated`, or in ``plan``'s buffers); Z reads ``t`` as it is.
    The moduli are taken in the states' own layout, where numpy's complex
    ``abs`` runs its contiguous loop, and squared into ``out`` through a
    transpose, so each row is contiguous when it is summed and sums in the
    same order in any batch. One row sum, one drift check (an error names
    the norm of the row that drifts most, the first such in ``[basis,
    block, input]`` order) and one in-place divide follow while the rows
    are in cache. Without a plan the stack is freed on return, before the
    next chunk's is built."""
    rotated = [b for b in bases if b is not MeasBasis.Z]
    stack = iter(())
    if rotated:
        stack = iter(_rotated(t, rotated, n) if plan is None else plan.rotated(t, rotated))
    moduli = _spaced(len(bases), t.shape) if plan is None else plan.moduli[: len(bases)]
    for i, basis in enumerate(bases):
        np.abs(t if basis is MeasBasis.Z else next(stack), out=moduli[i])
    blocks, batch = out.shape[0], out.shape[1]
    np.square(moduli.reshape(len(bases), blocks, 2**n, -1).transpose(1, 3, 0, 2)[:, :batch], out=out)
    norms = np.add.reduce(out, axis=3)
    drift = np.abs(norms - 1.0)
    if (drift > _NORM_ATOL).any():
        first = drift.transpose(2, 0, 1).argmax()
        raise AssertionError(f"final norm {norms.transpose(2, 0, 1).flat[first]} drifted beyond tolerance")
    np.divide(out, norms[..., None], out=out)


def run_all_bases(
    c: Circuit,
    inputs,
    bases: tuple[MeasBasis, ...] = BASIS_ORDER,
    prefixes: PrefixCache | None = None,
    edits: Sequence[tuple[int, GateApp | None, bool]] | None = None,
) -> np.ndarray:
    """Born-rule probabilities of every input in each of ``bases``, as an
    array indexed ``[basis, k, outcome]``: ``k`` the position of the input
    in ``inputs``. Given ``edits``, a sequence of single-gate edits of
    ``c`` (see :meth:`PrefixCache.edit`), the array is indexed ``[i, basis,
    k, outcome]`` instead, for ``c`` with ``edits[i]`` made, and
    ``prefixes`` must be built for ``c``.

    All inputs pass through the gate list together as one (2,) * n + (B,)
    tensor (see :class:`PrefixCache`). A given cache must be built for
    ``c`` and ``inputs``, which are held to its integer rule; with none,
    ``c`` runs through its own kernels and no prefix state is kept. The
    state comes from one path, :func:`_staircase` over the
    cache's kernels: ``c`` alone joins it after its last gate, and each
    edit at its own step. A row does not depend on the batch or the block
    it is computed in, so one input run alone agrees bit for bit with a
    suite, and a circuit's edits stacked on a block axis with each edited
    circuit alone.

    The bases are measured as blocks of one tensor (see :func:`_measure`):
    consecutive bases, as many as fit :data:`BASIS_STACK_BYTES`, go
    through one ``h`` layer together, X as the final states and Y as the
    states times a phase table (``sdg`` on every qubit), and Z is the final
    states unrotated; each such chunk is squared, summed, checked for norm
    drift and normalised in one pass over its rows. The output is a view,
    through a transpose, of one buffer laid out ``[i, k, basis, outcome]``,
    the order a suite reads its cases in (see :mod:`qrep.testkit`).
    """
    if prefixes is None:
        prefixes = PrefixCache(c, inputs, keep=False)
    else:
        prefixes.check(c, inputs)
    joins = [(len(c.gates), prefixes.after(len(c.gates)))] if edits is None else [prefixes.edit(e) for e in edits]
    n, t = c.num_qubits, _staircase(prefixes, joins)
    blocks, batch = t.size // (2**n * t.shape[-1]), len(prefixes.inputs)
    out = np.empty((blocks, batch, len(bases), 2**n))
    step = max(1, BASIS_STACK_BYTES // t.nbytes)
    for lo in range(0, len(bases), step):
        _measure(t, bases[lo : lo + step], n, out[:, :, lo : lo + step])
    rows = out.transpose(0, 2, 1, 3)
    return rows[0] if edits is None else rows
