"""Exact statevector execution with X/Y/Z measurement bases.

Conventions: little-endian amplitude ordering (qubit 0 is the least
significant bit of the state index) and outcome bitstrings with qubit 0
rightmost, so index i maps to ``format(i, f"0{q}b")``. Gates are applied
to one (2,) * q + (B,) tensor that holds a batch of B inputs, one per
column, batch last; qubit k lives on axis q-1-k. A real one-qubit matrix
then multiplies the tensor as it is laid out, with no transpose. The
tensor may carry a leading block axis, one block per circuit or per
basis: every step indexes qubits from the right, so every block is
updated by the same call and rounds as it would alone.

There is one simulation path, :func:`run_all_bases`. A
:class:`PrefixCache` keeps the tensor after the leading gates of one
circuit, and every candidate is an edit of it: the cached circuit enters
after its last gate, and each single-gate edit at the edit, so it is
simulated from the edit on. A run of edits (a removal sweep's, or a patch
search's run of fixed patches) is stacked on the block axis as a
staircase, each edit entering at its step, and a lone edit (an angle
probe) is a staircase of one. The first staircase to carry the cached
circuit writes the cache's states: the circuit enters it at step 0, and
its block is copied as it passes each kept step, so an edit stacked
behind it enters from a state written moments before. Everything runs in
a workspace that the caches of one shape share (:class:`_Workspace`): state tensors sized once
for a chunk of edits, views and steps made on first use, so no one-qubit
gate and no measurement allocates its result. A gate on more qubits is a
phase on slices of the tensor or an exchange of two. Each measurement runs
the calls of one plan, bound once: it stacks the X and Y bases where
:data:`SWEEP_CHUNK_BYTES` leaves room, else takes one basis a pass, and
writes the rows into one buffer laid out ``[edit, input, basis,
outcome]``, the order a suite reads its cases in: the suite's own, or a
fresh array. No full 2^q x 2^q matrix is ever built
here; the dense-matrix product lives in the test suite as an independent
oracle. Every probability returned here is exact: a sampled-mode oracle
draws its shots from them in :mod:`qrep.testkit`.
"""
from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
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


def _matrix_1q(kind: GateKind, params: tuple[float, ...] = ()) -> np.ndarray:
    """The matrix of a one-qubit gate, read-only, built from its four
    entries: float64 when every imaginary part is zero (``ry`` always),
    else complex. The dtype is the flag a one-qubit step picks its product
    by."""
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
    elif kind is GateKind.ID:
        a, b, c, d = 1, 0, 0, 1
    elif kind is GateKind.X:
        a, b, c, d = 0, 1, 1, 0
    elif kind is GateKind.Y:
        a, b, c, d = 0, -1j, 1j, 0
    elif kind is GateKind.Z:
        a, b, c, d = 1, 0, 0, -1
    elif kind is GateKind.H:
        a, b, c, d = _SQRT1_2, _SQRT1_2, _SQRT1_2, -_SQRT1_2
    elif kind is GateKind.S:
        a, b, c, d = 1, 0, 0, 1j
    elif kind is GateKind.SDG:
        a, b, c, d = 1, 0, 0, -1j
    elif kind is GateKind.T:
        a, b, c, d = 1, 0, 0, cmath.exp(0.25j * math.pi)
    elif kind is GateKind.TDG:
        a, b, c, d = 1, 0, 0, cmath.exp(-0.25j * math.pi)
    else:
        raise ValueError(f"{kind.gate_name} is not a single-qubit gate")
    if a.imag or b.imag or c.imag or d.imag:
        m = np.array([[a, b], [c, d]], dtype=complex)
    else:
        m = np.array([[a.real, b.real], [c.real, d.real]], dtype=np.float64)
    m.setflags(write=False)
    return m


# the matrices of the gate kinds without parameters, built once
_FIXED_1Q = {kind: _matrix_1q(kind) for kind in GateKind if kind.num_qubits == 1 and not kind.param_count}


@functools.cache
def _slices(n: int, *assignments: int) -> tuple:
    # index of the amplitudes whose qubits hold the assigned bits, given as
    # qubit, bit, qubit, bit, ..., in every column of every block: the
    # qubit axes are counted from the batch axis
    idx: list = [slice(None)] * n
    for qubit, bit in zip(assignments[::2], assignments[1::2]):
        idx[n - 1 - qubit] = bit
    return (Ellipsis, *idx, slice(None))


def _kernel(g: GateApp, n: int) -> Callable[[np.ndarray], None]:
    """``g``, a gate on two or three qubits, as an in-place update of the
    batched ``n``-qubit tensor (with any leading block axes), worked out
    here, once, of one of two kinds: ``phase`` multiplies the amplitudes
    whose qubits hold given bits, in every column at once, by a phase
    (``cz``'s -1, ``cp``'s and ``crz``'s from their angles), and
    ``exchange`` swaps two such slices (``cx``, ``swap``, ``ccx``).

    Phases are multiplied out of place with the array first
    (``t[s] = t[s] * z``): numpy picks its complex-multiply loop by length
    and operand order, and the in-place and scalar-first forms made a row's
    rounding depend on how many inputs shared the batch. Times ``-1 + 0j``,
    an amplitude differs from its negation only in the sign of a zero part,
    which no later step turns into a difference in a non-zero and ``abs``
    erases.
    """
    check_qubits(g, n)  # a qubit outside the tensor would index another axis
    kind, qs = g.kind, g.qubits
    if kind is GateKind.CZ:
        phases = ((_slices(n, qs[0], 1, qs[1], 1), -1 + 0j),)
    elif kind is GateKind.CP:
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

        def exchange(t: np.ndarray) -> None:
            t[a], t[b] = t[b].copy(), t[a].copy()

        return exchange

    def phase(t: np.ndarray) -> None:
        for s, z in phases:
            t[s] = t[s] * z

    return phase


def _op(g: GateApp, n: int) -> np.ndarray | Callable[[np.ndarray], None]:
    """What simulating ``g`` takes, worked out once: its matrix on one
    qubit (real where it can be, :func:`_matrix_1q`), else its kernel."""
    if g.kind.num_qubits > 1:
        return _kernel(g, n)
    m = _FIXED_1Q.get(g.kind)
    return _matrix_1q(g.kind, g.params) if m is None else m


def _complex_1q(m_t: np.ndarray, cols: np.ndarray, rows: np.ndarray) -> None:
    # the amplitude rows times m.T into contiguous rows, then copied back
    # through the transposed view; from the left, or into a transposed
    # out=, the product rounds rx, t and u differently
    np.matmul(cols, m_t, out=rows)
    np.copyto(cols, rows)


def _cores_1q(m_t: np.ndarray, state: np.ndarray, cores: np.ndarray, rows: np.ndarray, back: np.ndarray) -> None:
    # one qubit: each column's amplitude row copied out as a (1, 2) core,
    # the cores times m.T into rows, and the rows copied back transposed.
    # A (B, 2) product would round a row by its batch's size
    np.copyto(cores, state)
    np.matmul(cores.reshape(-1, 1, 2), m_t, out=rows.reshape(-1, 1, 2))
    np.copyto(back, rows)


BASIS_ORDER = (MeasBasis.X, MeasBasis.Y, MeasBasis.Z)

_H = _FIXED_1Q[GateKind.H]

# bytes of prefix states one PrefixCache keeps; above it, only checkpoints.
# A 6-qubit suite keeps every prefix of up to 128 gates; from 8 qubits on a
# repair's peak memory is 90 MB or more, so the cache adds under a tenth.
# A cache keeps its workspace too while the workspace fits in it
PREFIX_CACHE_BYTES = 8 * 2**20

# bytes of stacked states one chunk of edits holds, a removal sweep's or a
# run of fixed patches': a full suite's edits go 64 to a chunk at 3 qubits
# and 16 at 4, and a 6-qubit state fills a chunk alone. Stacking two
# 6-qubit states made a dj6 sweep slower, not faster (scripts/bench.py's
# localize_* layers measure this). It sets a measurement's passes too: a
# workspace whose blocks fit in it stacks the X and Y states of every block
# and measures all bases in one pass (a full suite up to 6 qubits, and any
# chunk of smaller states); a wider one measures one basis per pass, so it
# holds one extra state, not three: measured in one pass, generate_suite
# plus one fitness of qft11 peaked at 655 MB RSS against 495 MB
# (scripts/bench.py's measure_* layers time the measurement alone)
SWEEP_CHUNK_BYTES = 64 * 2**10

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


_tokens = itertools.count()


class PrefixCache:
    """States of a fixed batch of inputs after the leading gates of one
    circuit, so that each single-gate edit of it is simulated only from the
    edit on, and the workspace it and its edits are simulated in.

    The states after every prefix are kept when they fit in
    :data:`PREFIX_CACHE_BYTES`; otherwise only every ``stride``-th, and none
    when a single state does not fit or ``keep`` is false. They are written
    by the first simulation that carries the circuit itself
    (:meth:`_Workspace.run`), not here: each is a layout-preserving copy of
    its block of the running tensor, so going on from one rounds exactly as
    simulating from the inputs does. Until then (:attr:`pending`) the
    circuit joins a simulation at step 0. The empty prefix is the inputs
    themselves, built afresh on each use rather than stored.

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
        self.ones = self.columns, np.arange(len(self.columns))  # where the one-hot inputs hold their 1s
        self.gates = c.gates
        self.state_bytes = len(self.columns) * 2**n * np.dtype(complex).itemsize
        slots = PREFIX_CACHE_BYTES // self.state_bytes if keep else 0
        self.stride = max(1, -(-len(c.gates) // slots)) if slots else len(c.gates) + 1
        self.last = len(c.gates) - len(c.gates) % self.stride  # the last step a state is kept after; 0: none
        self.states: dict[int, np.ndarray] = {}
        self.token = next(_tokens)  # names the cache to the workspace its steps are bound in

    @property
    def pending(self) -> bool:
        """Whether states are kept but not yet written (the last is written last)."""
        return self.last > 0 and self.last not in self.states

    def workspace(self, blocks: int) -> _Workspace:
        """The workspace a simulation of ``blocks`` blocks runs in, claimed
        for this cache's steps: the one every cache of this shape shares,
        sized for :attr:`chunk` blocks, while it fits in
        :data:`PREFIX_CACHE_BYTES` and holds them (see :func:`_shared`),
        else one made for the call."""
        ws = _shared(self.num_qubits, len(self.columns), self.chunk, PREFIX_CACHE_BYTES)
        if ws is None or blocks > ws.blocks:
            ws = _Workspace(self.num_qubits, len(self.columns), blocks)
        ws.claim(self.token)
        return ws

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

    def joins_at(self, e: tuple[int, GateApp | None, bool] | None) -> int:
        """The step at which the cached circuit with the single-gate edit
        ``e`` = (position, gate, replaces) made joins the cached gates for
        good: ``gate`` put before gate ``position``, or in its place when
        ``replaces``; a gate of None with ``replaces`` removes gate
        ``position``. An add joins at step ``position``, a replace or
        removal one step later. ``e`` of None is the cached circuit itself:
        it joins at step 0 while the states are :attr:`pending`, so that
        its simulation writes them, and after its last gate afterwards.
        Raises ValueError for an edit the circuit cannot take, and
        QubitIndexError for a gate on a qubit it lacks."""
        m = len(self.gates)
        if e is None:
            return 0 if self.pending else m
        position, gate, replaces = e
        if not 0 <= position < m + (not replaces) or (gate is None and not replaces):
            raise ValueError(f"no edit ({position}, {gate}, {replaces}) of a circuit of {m} gates")
        if gate is not None:
            check_qubits(gate, self.num_qubits)
        return position + bool(replaces)

    @property
    def chunk(self) -> int:
        """Edits per stacked simulation: as many as fit
        :data:`SWEEP_CHUNK_BYTES` of states, and at least one."""
        return max(1, SWEEP_CHUNK_BYTES // self.state_bytes)


def _most(blocks: int, state_bytes: int) -> int:
    """The states each tensor of a workspace of ``blocks`` blocks holds:
    two to a block, the room to stack the X and Y states of every block,
    when the blocks fit in :data:`SWEEP_CHUNK_BYTES`, else one."""
    return 2 * blocks if blocks * state_bytes <= SWEEP_CHUNK_BYTES else blocks


class _Blocks:
    """Blocks lo..hi-1 of a workspace's two running state tensors (``t``),
    with their views, steps and measurement plans, each made on first use."""

    __slots__ = ("lo", "hi", "t", "views", "steps", "measured")

    def __init__(self, bufs: tuple[np.ndarray, ...], lo: int, hi: int):
        self.lo, self.hi = lo, hi
        self.t = (bufs[0][lo:hi], bufs[1][lo:hi])
        self.views: dict[tuple[str, int, int], np.ndarray] = {}
        self.steps: dict[int, tuple] = {}  # by 2 * gate + the tensor it starts from
        self.measured: dict[tuple, tuple] = {}  # by (tensor, bases, batch)


class _Workspace:
    """The buffers every simulation of a :class:`PrefixCache`'s circuit and
    its single-gate edits runs in, up to ``blocks`` circuits at once, one
    per block of a leading axis: three state tensors of :func:`_most`
    blocks each, sized once. Views of a block range (:class:`_Blocks`) and
    steps of a cached gate on one are made on first use; it keeps no
    reference to a cache.

    Tensors 0 and 1 hold the running states: a real one-qubit step is
    ``np.matmul(m, src, out=dst)`` on the float view, from one into the
    other; a complex one multiplies the amplitude rows into the other,
    used as scratch, and copies them back through the transposed view; on
    one qubit, the amplitude rows go through the other as (1, 2) cores;
    the phase and exchange kernels update the state in place. A
    measurement's plan, made once per tensor, bases and batch, stacks the
    rotated bases in the spent one of the two, puts them through the ``h``
    layer between it and tensor 2, its twin, and takes the moduli into the
    one of those the result is not in. A row's bits do not depend on the
    block it is computed in, on how many blocks share a step, or on the
    batch.
    """

    def __init__(self, n: int, cols: int, blocks: int):
        self.n, self.cols, self.blocks = n, cols, blocks
        self.shape = (2,) * n + (cols,)
        self.size = _most(blocks, cols * 2**n * np.dtype(complex).itemsize)  # blocks a tensor holds
        # the twin is made when the first measurement needs it, so a wide
        # simulation holds two states, as an allocating kernel's did
        self.bufs = [np.empty((self.size,) + self.shape, dtype=complex) for _ in range(2)] + [None]
        self.ranges: dict[tuple[int, int], _Blocks] = {}
        self.owner: int | None = None  # the token of the cache whose steps are bound

    def tensor(self, j: int) -> np.ndarray:
        """State tensor ``j``, the twin (2) made the first time it is asked for."""
        if self.bufs[j] is None:
            self.bufs[j] = np.empty((self.size,) + self.shape, dtype=complex)
        return self.bufs[j]

    def claim(self, token: int) -> None:
        """Bind steps for the cache named ``token`` from now on, dropping
        those of any other."""
        if self.owner != token:
            for blocks in self.ranges.values():
                blocks.steps.clear()
            self.owner = token

    def at(self, lo: int, hi: int) -> _Blocks:
        """Blocks lo..hi-1, made the first time they are asked for."""
        blocks = self.ranges.get((lo, hi))
        if blocks is None:
            blocks = self.ranges[lo, hi] = _Blocks(self.bufs, lo, hi)
        return blocks

    def _view(self, kind: str, j: int, q: int, blocks: _Blocks) -> np.ndarray:
        """A view of tensor ``j`` of ``blocks`` for a step on qubit ``q``,
        made on first use: "real", the float64 (-1, 2, 2 * 2^q * B) view a
        real product reads and writes; "cols", the amplitude rows, its
        (-1, 2^q * B, 2) transpose; "rows", the same rows laid out
        contiguously."""
        view = blocks.views.get((kind, j, q))
        if view is None:
            t, w = self.tensor(j)[blocks.lo : blocks.hi], 2**q * self.cols
            if kind == "rows":
                view = t.reshape(-1, w, 2)
            else:
                view = t.reshape(-1, 2, w)
                view = view.view(np.float64) if kind == "real" else view.transpose(0, 2, 1)
            blocks.views[kind, j, q] = view
        return view

    def _bind(self, op, q: int, blocks: _Blocks, j: int, d: int) -> tuple[Callable[[], object], int]:
        """``op`` (see :func:`_op`), on qubit ``q`` when it is a matrix, as
        a call on tensor ``j`` of ``blocks``, with tensor ``d`` for its
        result or scratch, and the tensor that holds the state after it."""
        if not isinstance(op, np.ndarray):
            return partial(op, blocks.t[j]), j
        view = self._view
        if self.n == 1:
            state, rows = view("cols", j, 0, blocks), view("rows", j, 0, blocks)
            return partial(_cores_1q, op.T, state, view("rows", d, 0, blocks), rows, view("cols", d, 0, blocks)), d
        if op.dtype == np.float64:
            return partial(np.matmul, op, view("real", j, q, blocks), out=view("real", d, q, blocks)), d
        return partial(_complex_1q, op.T, view("cols", j, q, blocks), view("rows", d, q, blocks)), j

    def gates(self, cache: PrefixCache, blocks: _Blocks, start: int, stop: int, i: int) -> int:
        """The cached gates start..stop-1 on tensor ``i`` (0 or 1) of
        ``blocks``, one step each, built the first time it runs; returns
        the tensor that holds the states after them."""
        steps = blocks.steps
        for k in range(start, stop):
            step = steps.get(2 * k + i)
            if step is None:
                g = cache.gates[k]
                step = steps[2 * k + i] = self._bind(_op(g, self.n), g.qubits[0], blocks, i, 1 - i)
            call, i = step
            call()
        return i

    def load(self, cache: PrefixCache, start: int, t: np.ndarray) -> None:
        """``t``, one block: the cached state after ``start`` gates, or the
        one-hot inputs when ``start`` is 0."""
        if start:
            np.copyto(t, cache.states[start])
        else:
            flat = t.reshape(2**self.n, self.cols)
            flat.fill(0)
            flat[cache.ones] = 1.0

    def _enter(self, cache: PrefixCache, position: int, gate: GateApp | None, slot: int, i: int | None) -> int:
        """Block ``slot`` of tensor ``i``, or of either when ``i`` is None
        (the first block to enter): the state after the cached circuit's
        first ``position`` gates, simulated on from the last state stored at
        or before it, with ``gate`` applied when given; started in the
        tensor that makes ``gate``'s step end in ``i``, and copied there if
        the gates before it flipped it. Returns the tensor it is in."""
        start = position - position % cache.stride
        blocks = self.at(slot, slot + 1)
        op = None if gate is None else _op(gate, self.n)
        j = (i or 0) ^ (isinstance(op, np.ndarray) and (self.n == 1 or op.dtype == np.float64))
        self.load(cache, start, blocks.t[j])
        if start < position:
            j = self.gates(cache, blocks, start, position, j)
        if op is not None:
            call, j = self._bind(op, gate.qubits[0], blocks, j, 1 - j)
            call()
        if i is None:
            return j
        if j != i:
            np.copyto(blocks.t[i], blocks.t[j])
        return i

    def _carry(self, cache: PrefixCache, blocks: _Blocks, start: int, stop: int, i: int, writer: int | None) -> int:
        """:meth:`gates` start..stop-1; with ``writer``, the block of
        ``blocks`` that holds the cached circuit carried from step 0, a copy
        of that block is kept in the cache as it passes each kept step."""
        if writer is not None:
            s = cache.stride
            for k in range(start - start % s + s, min(stop, cache.last) + 1, s):
                i = self.gates(cache, blocks, start, k, i)
                cache.states[k] = blocks.t[i][writer].copy()
                start = k
        return self.gates(cache, blocks, start, stop, i)

    def run(self, cache: PrefixCache, joins: Sequence[tuple[int, int, GateApp | None]], bases, out: np.ndarray) -> None:
        """The rows of the circuits ``joins`` start, in each of ``bases``,
        measured into ``out``, indexed ``[join, input, basis, outcome]``.
        A join (step, position, gate) is the cached circuit with ``gate``
        (if any) after its first ``position`` gates, and its gates from
        ``step`` on. Each enters the stack of blocks at its step (joins of
        one step in the order given), and every later cached gate is
        applied once to all the blocks that have entered; the blocks are
        put back in the order given before they are measured. The cached
        circuit carried from step 0, the join (0, 0, None), writes the
        cache's states as it passes each kept step; a cache whose states
        are :attr:`~PrefixCache.pending` without that join first carries
        the circuit alone, measuring nothing."""
        if cache.pending and (0, 0, None) not in joins:
            self._carry(cache, self.at(0, 1), 0, len(cache.gates), self._enter(cache, 0, None, 0, None), 0)
        order = sorted(range(len(joins)), key=lambda j: joins[j][0]) if len(joins) > 1 else [0]
        b = i = step = 0
        writer = None
        for j in order:
            at, position, gate = joins[j]
            if b and at > step:
                i = self._carry(cache, self.at(0, b), step, at, i, writer)
            if gate is None and not at and writer is None:  # the cached circuit from step 0
                writer = b
            i = self._enter(cache, position, gate, b, i if b else None)
            b, step = b + 1, at
        blocks = self.at(0, b)
        i = self._carry(cache, blocks, step, len(cache.gates), i, writer)
        if b > 1 and order != list(range(b)):
            np.take(blocks.t[i], np.argsort(order), axis=0, out=blocks.t[1 - i], mode="clip")
            i = 1 - i
        if 2 * b <= self.size:  # room to stack X and Y: one pass
            return self._measure(blocks, i, bases, out)
        for k in range(len(bases)):
            self._measure(blocks, i, bases[k : k + 1], out[:, :, k : k + 1])

    def _measure(self, blocks: _Blocks, i: int, bases: tuple[MeasBasis, ...], out: np.ndarray) -> None:
        """The probabilities of the final states, tensor ``i`` of
        ``blocks``, in each of ``bases``, written into ``out``, indexed
        ``[block, input, basis, outcome]``, by one plan per ``(i, bases,
        batch)``, its calls bound on first use. X and Y are rotated by one
        ``h`` layer (Y after ``sdg`` on every qubit), Z read as it is. The
        moduli are taken in the states' own layout, where numpy's complex
        ``abs`` runs its contiguous loop, and squared into ``out`` through a
        transpose, so each row sums contiguously, in the same order in any
        batch. One drift check follows (an error names the norm of the row
        that drifts most, the first such in ``[basis, block, input]`` order;
        a norm that is not finite drifts too), and one in-place divide."""
        t, batch = blocks.t[i], out.shape[1]
        plan = blocks.measured.get((i, bases, batch))
        if plan is None:
            ys = [basis is MeasBasis.Y for basis in bases if basis is not MeasBasis.Z]
            r, shape = len(ys) * len(t), (len(ys), len(t)) + self.shape
            calls = [
                partial(np.multiply, t, _y_phases(self.n), out=slot) if y else partial(np.copyto, slot, t)
                for slot, y in zip(self.tensor(1 - i)[:r].reshape(shape), ys)
            ]
            src, free = 1 - i, 2 if ys else 1 - i
            for q in range(self.n if ys else 0):
                call, res = self._bind(_H, q, self.at(0, r), src, free)
                calls.append(call)
                if res != src:
                    src, free = free, src
            rotated = iter(self.tensor(src)[:r].reshape(shape))
            # in the float view of the tensor the states are not in, each
            # basis one cache line (8 floats) past the last's end: blocks of
            # a power-of-two size share cache sets, and the square, which
            # reads one column of every basis in turn through its transpose,
            # then ran 50% slower (3 bases of 64 x 64 moduli)
            count, size, room = len(bases), t.size, self.tensor(free).reshape(-1).view(np.float64)
            pad = 8 if count * (size + 8) <= room.size else 0  # a few tiny states leave no room
            moduli = room[: count * (size + pad)].reshape(count, size + pad)[:, :size].reshape((count,) + t.shape)
            calls += [partial(np.abs, t if b is MeasBasis.Z else next(rotated), out=m) for b, m in zip(bases, moduli)]
            squared = moduli.reshape(count, len(t), 2**self.n, -1).transpose(1, 3, 0, 2)[:, :batch]
            plan = blocks.measured[i, bases, batch] = calls, squared
        calls, squared = plan
        for call in calls:
            call()
        np.square(squared, out=out)
        norms = np.add.reduce(out, axis=3)
        drift = np.abs(norms - 1.0)
        if not (drift <= _NORM_ATOL).all():
            first = drift.transpose(2, 0, 1).argmax()
            raise AssertionError(f"final norm {norms.transpose(2, 0, 1).flat[first]} drifted beyond tolerance")
        np.divide(out, norms[..., None], out=out)


@functools.lru_cache(maxsize=4)
def _shared(n: int, cols: int, blocks: int, cap: int) -> _Workspace | None:
    """The workspace every :class:`PrefixCache` of ``n`` qubits and ``cols``
    columns shares, of ``blocks`` blocks, or None when it would not fit in
    ``cap`` (:data:`PREFIX_CACHE_BYTES`): a suite's build, a run and the
    checks of its repairs reuse its buffers, views and measurement steps.
    A cache claims it before it simulates, so its gates' steps are bound
    afresh after another's."""
    state_bytes = cols * 2**n * np.dtype(complex).itemsize
    return None if 3 * _most(blocks, state_bytes) * state_bytes > cap else _Workspace(n, cols, blocks)


def run_all_bases(
    c: Circuit,
    inputs,
    bases: tuple[MeasBasis, ...] = BASIS_ORDER,
    prefixes: PrefixCache | None = None,
    edits: Sequence[tuple[int, GateApp | None, bool]] | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Born-rule probabilities of every input in each of ``bases``, distinct
    :class:`MeasBasis`, as an array indexed ``[basis, k, outcome]``: ``k``
    the position of the input in ``inputs``. Given ``edits``, a sequence of
    single-gate edits of ``c`` (see :meth:`PrefixCache.joins_at`), each of
    which may be None, ``c`` itself, the array is indexed ``[i, basis, k,
    outcome]`` instead, for ``c`` with ``edits[i]`` made, and ``prefixes``
    must be built for ``c``.

    This is the one simulation call: all inputs pass through the gates
    together as one (2,) * n + (B,) tensor (see :class:`PrefixCache`), in
    a workspace of ``prefixes`` (:meth:`PrefixCache.workspace`), which
    must be built for ``c`` and ``inputs`` (held to its integer rule); with
    none, one that keeps no prefix state is built. ``c`` enters the
    staircase after its last gate (at step 0 while the cache's states are
    pending, writing them), and each edit at its own step. A row does not
    depend on the batch or the block it is computed in. The rows
    are measured (see :meth:`_Workspace._measure`; in one pass when the
    workspace has room to stack X and Y, see :func:`_most`, else one basis
    a pass) into a buffer laid out ``[i, k, basis, outcome]``, the order a
    suite reads its cases in: ``out``, with room for ``len(edits)`` blocks
    (one without edits), or else a fresh array no later call writes into.
    The result is a transposed view of it.
    """
    bases = tuple(bases)  # the measurement plans' key
    for k, basis in enumerate(bases):
        if not isinstance(basis, MeasBasis):
            raise ValueError(f"basis {basis!r} is not a MeasBasis")
        if basis in bases[:k]:  # a third stacked basis would not fit the workspace
            raise ValueError(f"basis {basis!r} is given twice")
    if not bases:
        raise ValueError("no basis to measure")
    if prefixes is None:
        prefixes = PrefixCache(c, inputs, keep=False)
    else:
        prefixes.check(c, inputs)
    joins = []
    for e in [None] if edits is None else edits:
        at = prefixes.joins_at(e)
        joins.append((at, at, None) if e is None else (at, e[0], e[1]))
    if not joins:
        raise ValueError("no edit to simulate")
    b = len(joins)
    rows = np.empty((b, len(prefixes.inputs), len(bases), 2**c.num_qubits)) if out is None else out[:b]
    prefixes.workspace(b).run(prefixes, joins, bases, rows)
    rows = rows.transpose(0, 2, 1, 3)
    return rows[0] if edits is None else rows
