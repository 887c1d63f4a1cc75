"""Independent brute-force oracles for the test suite.

Everything here recomputes expected values from first principles with a
different algorithm than the package: full 2^n x 2^n unitaries built by
index arithmetic rather than in-place axis kernels. Gate matrices are
hardcoded from their textbook definitions.
"""
from __future__ import annotations

import cmath
import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from qrep.circuit import GATE_BY_NAME, Circuit, GateApp, GateKind, remove_gate, replace_gate
from qrep.errors import (
    ExpectedTableError,
    QasmSyntaxError,
    SuiteTooWideError,
    UnsupportedFeatureError,
    UnsupportedGateError,
    WidthMismatchError,
)
from qrep.qasm import _MAX_EXPR_DEPTH, _RESERVED_FEATURES
from qrep.simulator import BASIS_ORDER, Distribution, MeasBasis, run_all_bases
from qrep.testkit import (
    DEFAULT_EPS_ZERO,
    MAX_SUITE_QUBITS,
    DEFAULT_TAU_FAIL,
    TestCase,
    TestSuite,
    case_id,
    parse_case_id,
)

_SQ2 = 1.0 / math.sqrt(2.0)


def gate_matrix(name: str, params: tuple[float, ...] = ()) -> np.ndarray:
    """Textbook matrix; multi-qubit operands little-endian (operand 0 = LSB)."""
    i = 1j
    if name == "id":
        return np.eye(2, dtype=complex)
    if name == "x":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if name == "y":
        return np.array([[0, -i], [i, 0]], dtype=complex)
    if name == "z":
        return np.diag([1, -1]).astype(complex)
    if name == "h":
        return _SQ2 * np.array([[1, 1], [1, -1]], dtype=complex)
    if name == "s":
        return np.diag([1, i]).astype(complex)
    if name == "sdg":
        return np.diag([1, -i]).astype(complex)
    if name == "t":
        return np.diag([1, cmath.exp(i * math.pi / 4)]).astype(complex)
    if name == "tdg":
        return np.diag([1, cmath.exp(-i * math.pi / 4)]).astype(complex)
    if name == "rx":
        (th,) = params
        c, s = math.cos(th / 2), math.sin(th / 2)
        return np.array([[c, -i * s], [-i * s, c]], dtype=complex)
    if name == "ry":
        (th,) = params
        c, s = math.cos(th / 2), math.sin(th / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "rz":
        (th,) = params
        return np.diag([cmath.exp(-i * th / 2), cmath.exp(i * th / 2)]).astype(complex)
    if name == "p":
        (lam,) = params
        return np.diag([1, cmath.exp(i * lam)]).astype(complex)
    if name == "u":
        th, phi, lam = params
        c, s = math.cos(th / 2), math.sin(th / 2)
        return np.array(
            [
                [c, -cmath.exp(i * lam) * s],
                [cmath.exp(i * phi) * s, cmath.exp(i * (phi + lam)) * c],
            ],
            dtype=complex,
        )
    if name == "cx":
        # operand 0 = control (sub bit 0), operand 1 = target (sub bit 1)
        m = np.eye(4, dtype=complex)
        m[[1, 3]] = m[[3, 1]]
        return m
    if name == "cz":
        return np.diag([1, 1, 1, -1]).astype(complex)
    if name == "cp":
        (lam,) = params
        return np.diag([1, 1, 1, cmath.exp(i * lam)]).astype(complex)
    if name == "crz":
        (lam,) = params
        return np.diag([1, cmath.exp(-i * lam / 2), 1, cmath.exp(i * lam / 2)]).astype(complex)
    if name == "swap":
        m = np.eye(4, dtype=complex)
        m[[1, 2]] = m[[2, 1]]
        return m
    if name == "ccx":
        # operands 0,1 = controls, operand 2 = target
        m = np.eye(8, dtype=complex)
        m[[3, 7]] = m[[7, 3]]
        return m
    raise KeyError(name)


def embed(m: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Lift a k-qubit matrix onto qubits of an n-qubit register."""
    k = len(qubits)
    assert m.shape == (2**k, 2**k)
    dim = 2**n
    full = np.zeros((dim, dim), dtype=complex)
    mask = 0
    for q in qubits:
        mask |= 1 << q
    for col in range(dim):
        sub_col = 0
        for b, q in enumerate(qubits):
            sub_col |= ((col >> q) & 1) << b
        rest = col & ~mask
        for sub_row in range(2**k):
            row = rest
            for b, q in enumerate(qubits):
                row |= ((sub_row >> b) & 1) << q
            full[row, col] = m[sub_row, sub_col]
    return full


def dense_unitary(circuit) -> np.ndarray:
    """Product of the embedded gate matrices, in application order."""
    n = circuit.num_qubits
    u = np.eye(2**n, dtype=complex)
    for g in circuit.gates:
        u = embed(gate_matrix(g.kind.gate_name, g.params), g.qubits, n) @ u
    return u


def dense_probs(circuit, input_state: int, basis: str = "Z") -> np.ndarray:
    """Measurement probabilities computed wholly through dense algebra."""
    n = circuit.num_qubits
    psi = np.zeros(2**n, dtype=complex)
    psi[input_state] = 1.0
    psi = dense_unitary(circuit) @ psi
    if basis == "X":
        rot = gate_matrix("h")
    elif basis == "Y":
        rot = gate_matrix("h") @ gate_matrix("sdg")
    elif basis == "Z":
        rot = None
    else:
        raise ValueError(basis)
    if rot is not None:
        for q in range(n):
            psi = embed(rot, (q,), n) @ psi
    return np.abs(psi) ** 2


def dense_probs_all(circuit) -> np.ndarray:
    """[3, 2^n, 2^n] probabilities of every input in X, Y, Z order, indexed
    ``[basis, input, outcome]``: one dense unitary, rotated per basis."""
    n = circuit.num_qubits
    u = dense_unitary(circuit)
    out = np.empty((3, 2**n, 2**n))
    for k, rot in enumerate((gate_matrix("h"), gate_matrix("h") @ gate_matrix("sdg"), np.eye(2))):
        r = np.eye(2**n, dtype=complex)
        for q in range(n):
            r = embed(rot, (q,), n) @ r
        out[k] = (np.abs(r @ u) ** 2).T
    return out


def hellinger_ref(p: np.ndarray, q: np.ndarray) -> float:
    """Closed-form Hellinger: sqrt(1 - sum(sqrt(p_i q_i)))."""
    bc = float(np.sum(np.sqrt(np.asarray(p) * np.asarray(q))))
    return math.sqrt(max(0.0, 1.0 - bc))


# ------------------------------------------------------ the per-case oracle
#
# The two rules judged one case at a time, on Distributions: the reference
# that testkit's array scoring of every case at once is tested against.

def hellinger(p: Distribution, q: Distribution) -> float:
    """(1/sqrt(2)) * ||sqrt(p) - sqrt(q)||_2, clamped to [0, 1]."""
    if p.num_qubits != q.num_qubits:
        raise WidthMismatchError(f"{p.num_qubits} vs {q.num_qubits} qubits")
    diff = np.sqrt(p.probs) - np.sqrt(q.probs)
    h = math.sqrt(float(np.dot(diff, diff))) / math.sqrt(2.0)
    return min(max(h, 0.0), 1.0)


@dataclass(frozen=True)
class Verdict:
    passed: bool
    hellinger: float
    wrong_output: bool


def judge(
    observed: Distribution,
    tc: TestCase,
    tau_fail: float = DEFAULT_TAU_FAIL,
    eps_zero: float = DEFAULT_EPS_ZERO,
) -> Verdict:
    """Two-rule oracle: no unexpected outcomes, and distance within tau_fail."""
    if observed.num_qubits != tc.expected.num_qubits:
        raise WidthMismatchError(f"{observed.num_qubits} vs {tc.expected.num_qubits} qubits")
    wrong = bool(np.any((observed.probs > eps_zero) & (tc.expected.probs <= eps_zero)))
    h = hellinger(observed, tc.expected)
    return Verdict(passed=not wrong and h <= tau_fail, hellinger=h, wrong_output=wrong)


# ------------------------------------------- patcher reference implementations
#
# The eager mutant injector and the cursor-based uniform ordering, as they
# stood before the injector drew from the repair edit space and the ordering
# became a round-robin merge. The differential tests in test_patcher.py hold
# the package to these results exactly.

_MUTANT_ANGLES = (math.pi / 4, math.pi / 2, math.pi)


def _structural_key(c) -> tuple:
    return tuple(
        (g.kind.gate_name, g.qubits, tuple(round(p / 1e-9) for p in g.params)) for g in c.gates
    )


def _mutant_gate_apps(kind) -> list[tuple[tuple[float, ...], str]]:
    if kind.param_count == 0:
        return [((), "")]
    out = []
    for angle in _MUTANT_ANGLES:
        params = (angle,) * kind.param_count
        out.append((params, f"({','.join(f'{a:.6g}' for a in params)})"))
    return out


def _enumerate_group(c, group: str, kinds: list) -> list[tuple]:
    """(mutant, description, fault position in mutant coordinates) tuples."""
    from qrep.circuit import GateApp, insert_gate, remove_gate, replace_gate
    from qrep.patcher import _qubit_choices

    out = []
    if group == "remove":
        for pos, g in enumerate(c.gates):
            m = remove_gate(c, pos)
            out.append((m, f"remove {g.kind.gate_name} @{pos}", min(pos, len(m.gates) - 1)))
        return out
    if group == "add":
        for pos in range(len(c.gates) + 1):
            for kind in kinds:
                for qs in _qubit_choices(kind, c.num_qubits):
                    for params, ptxt in _mutant_gate_apps(kind):
                        g = GateApp(kind, qs, params)
                        m = insert_gate(c, pos, g)
                        out.append((m, f"add {kind.gate_name}{ptxt} {qs} @{pos}", pos))
        return out
    if group == "replace":
        for pos, old in enumerate(c.gates):
            for kind in kinds:
                for qs in _qubit_choices(kind, c.num_qubits):
                    for params, ptxt in _mutant_gate_apps(kind):
                        if kind is old.kind and qs == old.qubits and params == old.params:
                            continue
                        g = GateApp(kind, qs, params)
                        m = replace_gate(c, pos, g)
                        desc = f"replace {old.kind.gate_name} @{pos} -> {kind.gate_name}{ptxt} {qs}"
                        out.append((m, desc, pos))
        return out
    raise ValueError(f"unknown mutation group {group!r}")


def eager_inject_faults(c, seed, per_group, catalog, groups=("add", "remove", "replace"), suite=None):
    """Build every candidate mutant, de-duplicate on the built circuit's
    gate sequence, then draw per group in a seeded permutation."""
    from qrep.circuit import GATE_BY_NAME
    from qrep.errors import NoNonEquivalentMutantError
    from qrep.localizer import gate_id
    from qrep.patcher import MutantRecord
    from qrep.testkit import fitness, generate_suite

    if suite is None:
        suite = generate_suite(c)
    kinds = [GATE_BY_NAME[name] for name in catalog if GATE_BY_NAME[name].num_qubits <= c.num_qubits]
    records = []
    seen = {_structural_key(c)}
    any_candidates = False
    for gi, group in enumerate(groups):
        candidates = []
        for m, desc, fault_pos in _enumerate_group(c, group, kinds):
            key = _structural_key(m)
            if key in seen:
                continue
            seen.add(key)
            candidates.append((m, desc, fault_pos))
        any_candidates = any_candidates or bool(candidates)
        rng = np.random.default_rng([seed & (2**63 - 1), gi])
        found = 0
        for idx in rng.permutation(len(candidates)):
            if found >= per_group:
                break
            m, desc, fault_pos = candidates[idx]
            score = fitness(m, suite)
            if score.failed_count == 0:
                continue
            fault = gate_id(fault_pos, m.gates[fault_pos]) if m.gates else None
            records.append(MutantRecord(m, group, desc, fault, score.value, score.failed_count))
            found += 1
    if per_group > 0 and any_candidates and not records:
        raise NoNonEquivalentMutantError("every candidate mutant passes the reference suite")
    return records


def eager_order_uniform(patches, c) -> list:
    """The package's ordering before the lazy queue: every slot's patches
    built up front, then the round-robin over positions run to the end."""
    from collections import deque
    from itertools import zip_longest

    from qrep.circuit import GateKind

    other = {"add": "replace", "replace": "add"}
    catalog_order = {k.gate_name: i for i, k in enumerate(GateKind)}
    kind_names = sorted({p.gate.gate_name for p in patches}, key=catalog_order.__getitem__)
    fifos: dict = {}
    for p in patches:
        fifos.setdefault((p.position, p.kind), {}).setdefault(p.gate.gate_name, []).append(p)
    slots = {}
    for (pos, typ), by_kind in fifos.items():
        start = pos % len(kind_names)
        rotated = [by_kind.get(name, ()) for name in kind_names[start:] + kind_names[:start]]
        slots[(pos, typ)] = deque(p for row in zip_longest(*rotated) for p in row if p is not None)

    ordered = []
    want = "add"
    progressed = True
    while progressed:
        progressed = False
        for pos in range(len(c.gates) + 1):
            for typ in (want, other[want]):
                if slot := slots.get((pos, typ)):
                    ordered.append(slot.popleft())
                    want, progressed = other[typ], True
                    break
    return ordered


def cursor_order_uniform(patches, c) -> list:
    """Round-robin over positions, alternating add/replace, with a rotating
    per-(position, kind) cursor over gate kinds in catalog order."""
    from qrep.circuit import GateKind

    if not patches:
        return []
    catalog_order = {k.gate_name: i for i, k in enumerate(GateKind)}
    kind_names = sorted({p.gate.gate_name for p in patches}, key=catalog_order.__getitem__)
    n_kinds = len(kind_names)
    buckets: dict = {}
    for p in patches:
        slot = buckets.setdefault((p.position, p.kind), {k: [] for k in kind_names})
        slot[p.gate.gate_name].append(p)
    for slot in buckets.values():
        for fifo in slot.values():
            fifo.reverse()
    cursors = {key: key[0] % n_kinds for key in buckets}

    def take(pos, typ):
        slot = buckets.get((pos, typ))
        if not slot:
            return None
        cur = cursors[(pos, typ)]
        for step in range(n_kinds):
            name = kind_names[(cur + step) % n_kinds]
            if slot[name]:
                cursors[(pos, typ)] = (cur + step + 1) % n_kinds
                return slot[name].pop()
        return None

    ordered = []
    want = "add"
    while len(ordered) < len(patches):
        progressed = False
        for pos in range(len(c.gates) + 1):
            for typ in (want, "replace" if want == "add" else "add"):
                p = take(pos, typ)
                if p is not None:
                    ordered.append(p)
                    want = "replace" if typ == "add" else "add"
                    progressed = True
                    break
        if not progressed:
            break
    return ordered


# ------------------------------------------- simulator reference kernel
#
# The kernels and the basis rotations as they stood before the one-qubit
# kernel became one flattened product per gate, the Y basis a phase table,
# the measured bases a per-suite subset, and the state tensor batch-last: a
# [B, 1, 2, ..., 2] tensor with qubit k on axis n+1-k, a stacked matmul of
# 2 x 2 (or, on one qubit, 1 x 2) cores, the multi-qubit gates as indexed
# updates of that tensor, and the rotation gates applied qubit by qubit.
# test_simulator.py holds the package to these bit for bit.

_BASIS_ROTATIONS = {"X": ("h",), "Y": ("sdg", "h"), "Z": ()}


def complex_matrix_1q(kind: GateKind, params: tuple[float, ...] = ()) -> np.ndarray:
    """A one-qubit gate's matrix, always complex, written out per kind: the
    reference ``simulator._matrix_1q`` is held to, through
    :func:`narrowed`."""
    if kind is GateKind.ID:
        return np.eye(2, dtype=complex)
    if kind is GateKind.X:
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if kind is GateKind.Y:
        return np.array([[0, -1j], [1j, 0]], dtype=complex)
    if kind is GateKind.Z:
        return np.array([[1, 0], [0, -1]], dtype=complex)
    if kind is GateKind.H:
        return np.array([[1, 1], [1, -1]], dtype=complex) * _SQ2
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


def narrowed(m: np.ndarray) -> np.ndarray:
    """``m`` read-only, and real (float64) when every imaginary part is zero."""
    if not np.count_nonzero(m.imag):
        m = m.real.copy()
    m.setflags(write=False)
    return m


def stacked_apply_1q(t: np.ndarray, m: np.ndarray, qubit: int, n: int) -> np.ndarray:
    axis = n + 1 - qubit
    return np.moveaxis(np.moveaxis(t, axis, -1) @ m.T, -1, axis)


def _stacked_slices(n: int, assignments: dict) -> tuple:
    idx: list = [slice(None)] * (n + 2)
    for qubit, bit in assignments.items():
        idx[n + 1 - qubit] = bit
    return tuple(idx)


def stacked_apply_multi(t: np.ndarray, g, n: int) -> np.ndarray:
    """A gate on two or three qubits, updating ``t`` in place."""
    from qrep.circuit import GateKind

    kind = g.kind
    if kind is GateKind.CX:
        c, x = g.qubits
        a, b = _stacked_slices(n, {c: 1, x: 0}), _stacked_slices(n, {c: 1, x: 1})
        t[a], t[b] = t[b].copy(), t[a].copy()
    elif kind is GateKind.CZ:
        s = _stacked_slices(n, {g.qubits[0]: 1, g.qubits[1]: 1})
        t[s] = -t[s]
    elif kind is GateKind.CP:
        s = _stacked_slices(n, {g.qubits[0]: 1, g.qubits[1]: 1})
        t[s] = t[s] * cmath.exp(1j * g.params[0])
    elif kind is GateKind.CRZ:
        c, x = g.qubits
        half = g.params[0] / 2.0
        a, b = _stacked_slices(n, {c: 1, x: 0}), _stacked_slices(n, {c: 1, x: 1})
        t[a] = t[a] * cmath.exp(-1j * half)
        t[b] = t[b] * cmath.exp(1j * half)
    elif kind is GateKind.SWAP:
        a, b = g.qubits
        lo, hi = _stacked_slices(n, {a: 0, b: 1}), _stacked_slices(n, {a: 1, b: 0})
        t[lo], t[hi] = t[hi].copy(), t[lo].copy()
    elif kind is GateKind.CCX:
        c1, c2, x = g.qubits
        a = _stacked_slices(n, {c1: 1, c2: 1, x: 0})
        b = _stacked_slices(n, {c1: 1, c2: 1, x: 1})
        t[a], t[b] = t[b].copy(), t[a].copy()
    else:
        raise KeyError(kind.gate_name)
    return t


def stacked_run_all_bases(circuit, inputs) -> np.ndarray:
    """[3, len(inputs), 2^q] probabilities in X, Y, Z order; the complex
    gate matrices above, every kernel the stacked one above."""
    n = circuit.num_qubits
    idx = np.asarray(inputs, dtype=np.intp)
    batch = len(idx)
    state = np.zeros((batch, 2**n), dtype=complex)
    state[np.arange(batch), idx] = 1.0
    t = state.reshape((batch, 1) + (2,) * n)
    for g in circuit.gates:
        if g.kind.num_qubits == 1:
            t = stacked_apply_1q(t, complex_matrix_1q(g.kind, g.params), g.qubits[0], n)
        else:
            t = stacked_apply_multi(t, g, n)
    out = np.empty((3, batch, 2**n))
    for k, basis in enumerate("XYZ"):
        s = t
        for rot in _BASIS_ROTATIONS[basis]:
            m = complex_matrix_1q(GATE_BY_NAME[rot])
            for q in range(n):
                s = stacked_apply_1q(s, m, q, n)
        probs = np.abs(s.reshape(batch, -1)) ** 2
        out[k] = probs / probs.sum(axis=1)[:, None]
    return out


# ------------------------------------------------ the eager prefix build
#
# The prefix states as ``PrefixCache``'s constructor simulated them before
# the first staircase that carries the circuit wrote them.
# test_simulator.py holds the written states to these bit for bit.


def eager_prefix_states(cache) -> dict:
    """The prefix states of ``cache``'s circuit, eagerly: the circuit
    alone, from its inputs, in one block of the cache's workspace, its
    gates stepped a stride at a time and a copy of the block kept after
    each stride up to the last whole one. ``cache.states`` is not touched."""
    m, stride = len(cache.gates), cache.stride
    last, states = m - m % stride, {}
    if last:
        ws, i = cache.workspace(1), 0
        blocks = ws.at(0, 1)
        ws.load(cache, 0, blocks.t[0])
        for k in range(stride, last + 1, stride):
            i = ws.gates(cache, blocks, k - stride, k, i)
            states[k] = blocks.t[i][0].copy()
    return states


# ----------------------------------------------- the allocating kernels
#
# The one-qubit product and the measurement as they stood before every
# simulation ran in a prefix cache's workspace: each one-qubit gate a new
# tensor (a complex product copied back contiguous, one qubit as stacked
# (B, 1, 2) cores), and each basis pass rotated in fresh stacks, one
# circuit at a time. The multi-qubit gates are the package's in-place
# kernels, which that change left as they were, except ``cz``: it is
# negated here, as it was before the package made it a phase of -1.
# test_testkit.py holds the one path to these bit for bit.


def kernel_apply_1q(t: np.ndarray, m: np.ndarray, width: int, n: int) -> np.ndarray:
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


def kernel_run_all_bases(circuit, inputs, bases=BASIS_ORDER) -> np.ndarray:
    """``run_all_bases(circuit, inputs, bases)``, indexed [basis, k,
    outcome], by the allocating kernels: a single input fills two columns,
    and the bases go through the ``h`` layer all in one pass when a state
    fits in ``SWEEP_CHUNK_BYTES``, else one basis a pass, as a lone
    circuit's workspace measures them."""
    from qrep import simulator

    n = circuit.num_qubits
    idx = np.asarray(inputs, dtype=np.intp).reshape(-1)
    cols = np.repeat(idx, 2) if len(idx) == 1 else idx
    t = np.zeros((2**n, len(cols)), dtype=complex)
    t[cols, np.arange(len(cols))] = 1.0
    t = t.reshape((2,) * n + (len(cols),))
    for g in circuit.gates:
        if g.kind.num_qubits == 1:
            m = narrowed(complex_matrix_1q(g.kind, g.params))
            t = kernel_apply_1q(t, m, 2 ** g.qubits[0], n)
        elif g.kind is GateKind.CZ:  # negated, as cz was before it became a phase
            s = simulator._slices(n, g.qubits[0], 1, g.qubits[1], 1)
            t[s] = -t[s]
        else:
            simulator._kernel(g, n)(t)
    out = np.empty((len(idx), len(bases), 2**n))
    step = len(bases) if t.nbytes <= simulator.SWEEP_CHUNK_BYTES else 1
    for lo in range(0, len(bases), step):
        chunk = bases[lo : lo + step]
        rotated = [b for b in chunk if b is not MeasBasis.Z]
        s = np.empty((len(rotated),) + t.shape, dtype=complex)
        for j, basis in enumerate(rotated):
            s[j] = t * simulator._y_phases(n) if basis is MeasBasis.Y else t
        for q in range(n if rotated else 0):
            s = kernel_apply_1q(s, simulator._H, 2**q, n)
        stack = iter(s)
        moduli = np.stack([np.abs(t if b is MeasBasis.Z else next(stack)) for b in chunk])
        rows = out[:, lo : lo + step]
        np.square(moduli.reshape(len(chunk), 2**n, -1).transpose(2, 0, 1)[: len(idx)], out=rows)
        np.divide(rows, np.add.reduce(rows, axis=2)[..., None], out=rows)
    return out.transpose(1, 0, 2)


# ------------------------------------ the searches, one patch at a time

def looped_evaluate(run, c):
    """One evaluation of the circuit ``c`` charged to ``run``'s budget, as
    ``_Run.evaluate`` charged it before every candidate was scored as an
    edit: the budget is checked, one evaluation charged, and ``c`` scored
    by a fresh ``fitness``, with no prefix cache."""
    from qrep.testkit import fitness

    run.budget.precheck()
    run.budget.charge()
    return fitness(c, run.ts, run.cfg.oracle)


def looped_baseline(run) -> None:
    """``run``'s baseline as ``_Run.drive`` drew it before it became the
    first score of the guided search's sweep: one evaluation charged
    unchecked, and ``run``'s circuit scored alone by ``fitness``, from the
    run's prefix cache; it must fail a case."""
    from qrep.testkit import fitness, require_failing

    run.budget.charge()
    run.baseline = fitness(run.c_init, run.ts, run.cfg.oracle, run.prefixes)
    require_failing(run.baseline)


def looped_try(run, patch, rng=None) -> float:
    """``patch`` tried alone, as ``_Run.try_patch`` tried every patch before
    runs of fixed patches were stacked: a parametric patch goes to
    ``try_patch``, and a fixed one is one ``looped_evaluate`` of its circuit,
    settled by ``_Run.settle``."""
    import qrep.engine as engine

    if patch.is_parametric:
        return run.try_patch(patch, rng)
    score = looped_evaluate(run, engine.apply_patch(run.c_init, patch))
    return run.settle(patch, (), score)


def looped_guided_search(run) -> None:
    """``_Run.guided_search`` as it stood before it skipped iterations and
    stacked its runs of fixed patches: every iteration runs, each one whose
    end mark the spend has passed prunes the queue and tries nothing, and
    every patch is tried alone (:func:`looped_try`). The baseline is
    scored alone first (:func:`looped_baseline`). The run keeps the
    sweep's scores, as the guided search does, for the zero-angle probes
    that recall them (``_Run.recalled``)."""
    import qrep.engine as engine

    looped_baseline(run)
    swept = enumerate(run.scored(engine.removals(run.c_init)))
    loc = engine.localize(run.c_init, run.baseline, (run.removed.setdefault(p, score) for p, score in swept))
    run.table = loc.table
    for gid, value in loc.removal_fitness.items():
        run.record("delete", gid.position, gid.gate, gid.qubits, (), value)
    if loc.repaired is not None:
        raise engine._FullPass(loc.repaired)
    if loc.partial:
        run.partial_localisation = True
        return

    queue = engine.order_uniform(run.c_init, run.cfg.patch_catalog)
    spent0 = run.budget.spent
    b_r = run.budget.limit - spent0
    total = run.cfg.iterations
    for i in range(1, total + 1):
        end_mark = spent0 + b_r * (i / total)
        while queue and run.budget.spent < end_mark:
            looped_try(run, queue.popleft())
        if not queue:
            return
        if i < total and run.table.scores:
            keep_n = max(1, math.ceil((1.0 - i / total) * len(run.table.scores)))
            queue = engine.prune_to_gates(queue, set(run.table.ranking()[:keep_n]))


def looped_random_search(run) -> None:
    """``_Run.random_search`` as it stood before it stacked its runs of
    fixed patches: the baseline scored alone (:func:`looped_baseline`),
    then every draw tried alone (:func:`looped_try`)."""
    import qrep.engine as engine

    looped_baseline(run)
    pool = engine.generate_patches(run.c_init, run.cfg.patch_catalog)
    rng = np.random.default_rng([run.cfg.seed & (2**63 - 1), 17])
    for idx in rng.permutation(len(pool)):
        looped_try(run, pool[int(idx)], rng)


def curve_fitness(c, patch, theta: float, ts, cfg):
    """The score ``testkit.AngleCurve`` gives the one-angle ``patch`` of ``c``
    at angle ``theta``, from three fresh simulations of the patched circuits
    at π/3, π and 5π/3 (no prefix cache, no suite buffers), and the
    reconstruction written out term by term in the curve's order of
    operations, so the score agrees to the bit."""
    from qrep.engine import apply_patch
    from qrep.simulator import PrefixCache
    from qrep.testkit import _observed, _scores

    def rows(angle):
        e = apply_patch(c, patch, (angle,))
        return _observed(e, ts, PrefixCache(e, ts.inputs, keep=False)).copy()

    p1, p2, p3 = rows(math.pi / 3), rows(math.pi), rows(5 * math.pi / 3)
    b = ((p1 + p3) - p2 * 2.0) / 3.0
    s = (p1 - p3) / math.sqrt(3.0)
    r = np.minimum(np.maximum((b * (1.0 + math.cos(theta)) + p2) + s * math.sin(theta), 0.0), 1.0)
    return _scores(r, ts, cfg)[0]


# ------------------------------------------ removal sweep, one by one
#
# ``localizer.localize`` as it stood before the sweep stacked its removals:
# each removal is built with ``remove_gate`` and scored alone by
# ``evaluate``, by default a fresh exact-mode fitness. test_localizer.py
# holds the stacked sweep to it field by field.


def looped_localize(c_init, ts, baseline, evaluate=None):
    from qrep.circuit import remove_gate
    from qrep.localizer import BudgetExhaustedError, LocalizeResult, SuspiciousnessTable, gate_id
    from qrep.testkit import fitness, require_failing

    require_failing(baseline)
    if evaluate is None:
        evaluate = lambda c: fitness(c, ts)  # noqa: E731

    result = LocalizeResult(table=SuspiciousnessTable.for_circuit(c_init))
    for pos, g in enumerate(c_init.gates):
        gid = gate_id(pos, g)
        candidate = remove_gate(c_init, pos)
        try:
            score = evaluate(candidate)
        except BudgetExhaustedError:
            result.partial = True
            break
        result.removal_fitness[gid] = score.value
        if score.all_passed():
            result.repaired = candidate
            result.repaired_by_removing = gid
            break
        result.table.add(gid, baseline.value - score.value)
    return result


# ------------------------------------------------ QASM parser, token loop
#
# The parser as it stood before one regex pass built its tokens: a loop
# over every character counts lines and columns, and each token is an
# object that carries them. test_fuzz.py holds qasm.parse_qasm to its
# circuits and errors (class, message, line and column) exactly. Its NUMBER
# group still takes any Unicode decimal digit.

_TOKEN_RE = re.compile(
    r"""
      (?P<ID>     [A-Za-z_][A-Za-z0-9_]*)
    | (?P<NUMBER> (?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
    | (?P<STRING> "[^"]*")
    | (?P<ARROW>  ->)
    | (?P<SYM>    [{}\[\](),;+\-*/^=<>])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("typ", "val", "line", "col")

    def __init__(self, typ: str, val: str, line: int, col: int):
        self.typ = typ
        self.val = val
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Token]:
    src = re.sub(r"//[^\n]*", "", text)
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        m = _TOKEN_RE.match(src, i)
        if not m:
            raise QasmSyntaxError(f"unexpected character {ch!r}", line, col)
        tok = _Token(m.lastgroup, m.group(), line, col)
        tokens.append(tok)
        col += m.end() - i
        i = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # open parentheses and unary signs around the current factor

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            raise QasmSyntaxError(
                "unexpected end of input",
                last.line if last else 1,
                last.col if last else 1,
            )
        self.pos += 1
        return tok

    def expect(self, val: str) -> _Token:
        tok = self.next()
        if tok.val != val:
            raise QasmSyntaxError(f"expected {val!r}, got {tok.val!r}", tok.line, tok.col)
        return tok

    # --- angle expressions: term-level precedence with unary minus ---

    def parse_expr(self) -> float:
        val = self.parse_term()
        while self.peek() and self.peek().val in "+-":
            op = self.next().val
            rhs = self.parse_term()
            val = val + rhs if op == "+" else val - rhs
        return val

    def parse_term(self) -> float:
        val = self.parse_factor()
        while self.peek() and self.peek().val in "*/":
            op = self.next().val
            rhs = self.parse_factor()
            if op == "/":
                if rhs == 0:
                    raise QasmSyntaxError("division by zero in angle", self.tokens[self.pos - 1].line, self.tokens[self.pos - 1].col)
                val = val / rhs
            else:
                val = val * rhs
        return val

    def parse_angle(self) -> float:
        tok = self.peek()
        val = self.parse_expr()
        if not math.isfinite(val):
            raise QasmSyntaxError(f"non-finite angle {val}", tok.line, tok.col)
        return val

    def parse_factor(self) -> float:
        tok = self.next()
        if tok.val in ("-", "+", "("):
            self.depth += 1
            if self.depth > _MAX_EXPR_DEPTH:
                raise QasmSyntaxError(
                    f"angle expression nested deeper than {_MAX_EXPR_DEPTH} levels", tok.line, tok.col
                )
            if tok.val == "(":
                val = self.parse_expr()
                self.expect(")")
            else:
                val = self.parse_factor()
            self.depth -= 1
            return -val if tok.val == "-" else val
        if tok.typ == "NUMBER":
            return float(tok.val)
        if tok.typ == "ID" and tok.val == "pi":
            return math.pi
        raise QasmSyntaxError(f"bad angle expression near {tok.val!r}", tok.line, tok.col)


def _integer(tok: _Token, what: str) -> int:
    if tok.typ != "NUMBER" or not tok.val.isdigit():
        raise QasmSyntaxError(f"expected {what}", tok.line, tok.col)
    try:
        return int(tok.val)
    except ValueError:  # more digits than Python converts to an int
        raise QasmSyntaxError(f"{what} has {len(tok.val)} digits", tok.line, tok.col) from None


def token_loop_parse_qasm(text: str) -> Circuit:
    """``qasm.parse_qasm`` as it stood before tokenising became one regex pass."""
    p = _Parser(_tokenize(text))

    tok = p.next()
    if tok.val != "OPENQASM":
        raise QasmSyntaxError("file must start with OPENQASM 2.0", tok.line, tok.col)
    ver = p.next()
    if ver.val != "2.0":
        raise UnsupportedFeatureError(f"unsupported OPENQASM version {ver.val}", ver.line, ver.col)
    p.expect(";")

    qreg: tuple[str, int] | None = None
    creg: tuple[str, int] | None = None
    gates: list[GateApp] = []
    measurements: dict[int, int] = {}

    def parse_decl(keyword: str) -> tuple[str, int]:
        name = p.next()
        if name.typ != "ID":
            raise QasmSyntaxError(f"expected {keyword} name", name.line, name.col)
        p.expect("[")
        size = _integer(p.next(), f"{keyword} size")
        p.expect("]")
        p.expect(";")
        return name.val, size

    def parse_operand(reg: tuple[str, int] | None, what: str) -> tuple[int | None, _Token]:
        """Returns (index, token); index None means whole register."""
        name = p.next()
        if name.typ != "ID":
            raise QasmSyntaxError(f"expected {what} operand", name.line, name.col)
        if reg is None or name.val != reg[0]:
            raise QasmSyntaxError(f"unknown register {name.val!r}", name.line, name.col)
        if p.peek() and p.peek().val == "[":
            p.expect("[")
            idx = p.next()
            i = _integer(idx, "integer index")
            p.expect("]")
            if i >= reg[1]:
                raise QasmSyntaxError(f"index {i} out of range for {reg[0]}[{reg[1]}]", idx.line, idx.col)
            return i, name
        return None, name

    while p.peek() is not None:
        tok = p.next()
        if tok.typ != "ID":
            raise QasmSyntaxError(f"expected statement, got {tok.val!r}", tok.line, tok.col)

        if tok.val == "include":
            path = p.next()
            if path.typ != "STRING":
                raise QasmSyntaxError("expected include path string", path.line, path.col)
            if path.val.strip('"') not in ("qelib1.inc",):
                raise UnsupportedFeatureError(f"unsupported include {path.val}", path.line, path.col)
            p.expect(";")

        elif tok.val == "qreg":
            if qreg is not None:
                raise UnsupportedFeatureError("multiple quantum registers", tok.line, tok.col)
            qreg = parse_decl("qreg")
            if qreg[1] < 1:
                raise QasmSyntaxError("quantum register must have at least one qubit", tok.line, tok.col)

        elif tok.val == "creg":
            if creg is not None:
                raise UnsupportedFeatureError("multiple classical registers", tok.line, tok.col)
            creg = parse_decl("creg")

        elif tok.val in _RESERVED_FEATURES:
            raise UnsupportedFeatureError(f"{tok.val!r} statements are not supported", tok.line, tok.col)

        elif tok.val == "barrier":
            # transparent: consume operands, keep nothing
            if qreg is None:
                raise QasmSyntaxError("barrier before qreg declaration", tok.line, tok.col)
            parse_operand(qreg, "barrier")
            while p.peek() and p.peek().val == ",":
                p.expect(",")
                parse_operand(qreg, "barrier")
            p.expect(";")

        elif tok.val == "measure":
            if qreg is None:
                raise QasmSyntaxError("measure before qreg declaration", tok.line, tok.col)
            qi, _ = parse_operand(qreg, "measure")
            p.expect("->")
            if creg is None:
                raise QasmSyntaxError("measure without classical register", tok.line, tok.col)
            ci, ctok = parse_operand(creg, "measure")
            p.expect(";")
            if qi is None and ci is None:
                if qreg[1] != creg[1]:
                    raise QasmSyntaxError(
                        f"register sizes differ: {qreg[1]} qubits vs {creg[1]} bits", ctok.line, ctok.col
                    )
                for k in range(qreg[1]):
                    measurements[k] = k
            elif qi is not None and ci is not None:
                measurements[qi] = ci
            else:
                raise QasmSyntaxError("measure operands must both be indexed or both whole registers", ctok.line, ctok.col)

        else:
            # gate application
            if tok.val not in GATE_BY_NAME:
                raise UnsupportedGateError(f"unsupported gate {tok.val!r}", tok.line, tok.col)
            kind = GATE_BY_NAME[tok.val]
            if qreg is None:
                raise QasmSyntaxError("gate before qreg declaration", tok.line, tok.col)
            params: tuple[float, ...] = ()
            if p.peek() and p.peek().val == "(":
                p.expect("(")
                vals = [p.parse_angle()]
                while p.peek() and p.peek().val == ",":
                    p.expect(",")
                    vals.append(p.parse_angle())
                p.expect(")")
                params = tuple(vals)
            if len(params) != kind.param_count:
                raise QasmSyntaxError(
                    f"{kind.gate_name} expects {kind.param_count} parameter(s), got {len(params)}",
                    tok.line,
                    tok.col,
                )
            operands = [parse_operand(qreg, "gate")]
            while p.peek() and p.peek().val == ",":
                p.expect(",")
                operands.append(parse_operand(qreg, "gate"))
            p.expect(";")
            qubits = [q for q, _ in operands]
            if any(q is None for q in qubits):
                if kind.num_qubits != 1 or len(qubits) != 1:
                    raise UnsupportedFeatureError(
                        "whole-register operands only supported for single-qubit gates", tok.line, tok.col
                    )
                for q in range(qreg[1]):
                    gates.append(GateApp(kind, (q,), params))
            else:
                if len(qubits) != kind.num_qubits:
                    raise QasmSyntaxError(
                        f"{kind.gate_name} expects {kind.num_qubits} qubit(s), got {len(qubits)}",
                        tok.line,
                        tok.col,
                    )
                if len(set(qubits)) != len(qubits):
                    raise QasmSyntaxError(f"{kind.gate_name} qubits must be distinct", tok.line, tok.col)
                gates.append(GateApp(kind, tuple(qubits), params))

    if qreg is None:
        raise QasmSyntaxError("missing qreg declaration", 1, 1)
    return Circuit(
        num_qubits=qreg[1],
        num_clbits=creg[1] if creg else 0,
        gates=tuple(gates),
        measurements=measurements,
    )


# ------------------------------------------------ suites, one object per case
#
# Suite construction as it stood before a suite became one expected matrix:
# a TestCase, with its own Distribution, per (input, basis) pair, and the
# arrays fitness reads stacked from those objects. test_testkit.py holds
# generate_suite and suite_from_expected to these byte for byte.


@dataclass(frozen=True)
class PerCaseSuite:
    num_qubits: int
    cases: tuple
    inputs: tuple = field(init=False)
    bases: tuple = field(init=False)
    case_rows: tuple = field(init=False)
    expected: np.ndarray = field(init=False)
    sqrt_expected: np.ndarray = field(init=False)

    def __post_init__(self):
        inputs = sorted({tc.input_state for tc in self.cases})
        column = {s: k for k, s in enumerate(inputs)}
        bases = tuple(b for b in BASIS_ORDER if any(tc.basis is b for tc in self.cases))
        rows = (
            np.array([bases.index(tc.basis) for tc in self.cases], dtype=np.intp),
            np.array([column[tc.input_state] for tc in self.cases], dtype=np.intp),
        )
        expected = np.stack([tc.expected.probs for tc in self.cases])
        object.__setattr__(self, "inputs", tuple(inputs))
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "case_rows", rows)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "sqrt_expected", np.sqrt(expected))

    def ruled_out(self, eps_zero: float) -> np.ndarray:
        return self.expected <= eps_zero

    def buffers(self, blocks: int, room: int = 0) -> tuple:
        # TestSuite.buffers' rows and scoring temporaries, made afresh on every call
        from qrep.testkit import _scratch

        rows = np.empty((blocks, len(self.inputs), len(self.bases), 2**self.num_qubits))
        return rows, _scratch(blocks, self.expected.shape)

    def __len__(self) -> int:
        return len(self.cases)


def per_case_generate_suite(reference) -> PerCaseSuite:
    q = reference.num_qubits
    probs = run_all_bases(reference, range(2**q))
    cases = tuple(
        TestCase(
            id=case_id(basis, input_state, q),
            input_state=input_state,
            basis=basis,
            expected=Distribution(q, probs[b, input_state]),
        )
        for input_state in range(2**q)
        for b, basis in enumerate(BASIS_ORDER)
    )
    return PerCaseSuite(num_qubits=q, cases=cases)


def per_case_suite_from_expected(expected: dict) -> PerCaseSuite:
    """For well-formed tables only: the package's checks are not repeated.
    Cases run input-major with the bases in BASIS_ORDER, as in
    :func:`per_case_generate_suite`."""
    cases = []
    for cid in sorted(expected):
        basis, input_state, q = parse_case_id(cid)
        dist = distribution_from_dict(q, expected[cid])
        cases.append(TestCase(id=cid, input_state=input_state, basis=basis, expected=dist))
    cases.sort(key=lambda tc: (tc.input_state, BASIS_ORDER.index(tc.basis)))
    return PerCaseSuite(num_qubits=q, cases=tuple(cases))


# ------------------------------------------- an expected table, case by case
#
# testkit.suite_from_expected as it stood before it checked and stacked a
# table in bulk: each value screened in Python, one row built and validated
# per case by the Distribution checks of that time. test_testkit.py holds
# the package to it byte for byte on well-formed tables, and to its
# exception class and message on malformed ones.


def _is_probability(p) -> bool:
    # a comparison, unlike math.isfinite, takes an int of any size; NaN fails it
    return isinstance(p, (int, float)) and not isinstance(p, bool) and abs(p) <= sys.float_info.max


def split_case_id(cid: str) -> tuple[MeasBasis, int, int]:
    """``testkit.parse_case_id`` as it stood beside the loop below."""
    try:
        basis_s, bits = cid.split(":")
        basis = MeasBasis(basis_s)
        if set(bits) - {"0", "1"} or not bits:
            raise ValueError
    except ValueError:
        raise ExpectedTableError(f"bad test-case id {cid!r}; expected like 'Z:0010'") from None
    return basis, int(bits, 2), len(bits)


def _checked_row(num_qubits: int, probs: dict) -> np.ndarray:
    """``Distribution.from_dict(num_qubits, probs).probs`` with the
    ``Distribution`` checks as they stood beside the loop below."""
    arr = np.zeros(2**num_qubits)
    for bits, p in probs.items():
        if len(bits) != num_qubits or set(bits) - {"0", "1"}:
            raise WidthMismatchError(f"bad outcome bitstring {bits!r} for {num_qubits} qubits")
        arr[int(bits, 2)] = p
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite probability")
    if np.any(arr < -1e-12):
        raise ValueError("negative probability")
    if abs(float(arr.sum()) - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {arr.sum()}, not 1")
    return np.clip(arr, 0.0, None)


def looped_suite_from_expected(expected: dict[str, dict[str, float]]) -> TestSuite:
    if not isinstance(expected, dict):
        raise ExpectedTableError("expected-distribution table must map case ids to distributions")
    if not expected:
        raise ExpectedTableError("expected-distribution map is empty")
    bases, inputs, rows = [], [], []
    width = None
    for cid in sorted(expected):
        basis, input_state, q = split_case_id(cid)
        if q > MAX_SUITE_QUBITS:
            raise SuiteTooWideError(f"case {cid!r} has {q} qubits (max {MAX_SUITE_QUBITS})")
        if width is None:
            width = q
        elif q != width:
            raise WidthMismatchError(f"case {cid!r} width {q} != {width}")
        probs = expected[cid]
        if not isinstance(probs, dict) or not all(map(_is_probability, probs.values())):
            raise ExpectedTableError(f"case {cid!r}: expected a map from bit strings to finite numbers")
        try:
            row = _checked_row(q, probs)
        except ValueError as e:
            raise ExpectedTableError(f"case {cid!r}: {e}") from None
        bases.append(BASIS_ORDER.index(basis))
        inputs.append(input_state)
        rows.append(row)
    # checked in id order, so an error names the first bad id; stacked in
    # generate_suite's order, so a full table sums fitness like its reference
    order = np.lexsort((bases, inputs))
    return TestSuite(width, np.array(bases)[order], np.array(inputs)[order], np.stack(rows)[order])


def load_outcome(loader, table):
    """What ``loader(table)`` gives, in comparable form: the exception's
    class and message, or the suite's width and the bytes of every array
    an evaluation reads."""
    try:
        ts = loader(table)
    except Exception as e:
        return type(e), str(e)
    rows = tuple((r.dtype.str, r.tobytes()) for r in ts.case_rows)
    return ts.num_qubits, ts.expected.dtype.str, ts.expected.tobytes(), ts.bases, ts.inputs, rows


# ------------------------------------------------------ test-only helpers
#
# Used only by tests, so they live here rather than in the package.


def run_exact(c: Circuit, input_state: int, basis: MeasBasis = MeasBasis.Z) -> Distribution:
    """Born-rule outcome probabilities for |input_state> under ``c`` in ``basis``."""
    return Distribution(c.num_qubits, run_all_bases(c, [input_state], bases=(basis,))[0, 0])


def revert_patch(edited: Circuit, p, original: Circuit) -> Circuit:
    """Undo the patch ``p`` on its edited result, restoring ``original`` exactly."""
    if p.kind == "add":
        return remove_gate(edited, p.position)
    if p.kind == "replace":
        return replace_gate(edited, p.position, original.gates[p.position])
    raise ValueError(f"unknown patch kind {p.kind!r}")


def distribution_from_dict(num_qubits: int, probs: dict[str, float]) -> Distribution:
    """A ``Distribution`` from a ``{bitstring: probability}`` map; absent
    outcomes have probability 0."""
    arr = np.zeros(2**num_qubits)
    for bits, p in probs.items():
        if len(bits) != num_qubits or set(bits) - {"0", "1"}:
            raise WidthMismatchError(f"bad outcome bitstring {bits!r} for {num_qubits} qubits")
        arr[int(bits, 2)] = p
    return Distribution(num_qubits, arr)


def sample(d, shots: int, seed: int):
    """The frequencies of ``shots`` seeded multinomial draws from a
    ``Distribution``, as a ``Distribution``: the sampled oracle's draw."""
    return Distribution(d.num_qubits, np.random.default_rng(seed).multinomial(shots, d.probs) / shots)


def distributions_allclose(a, b, atol: float = 1e-10) -> bool:
    return a.num_qubits == b.num_qubits and bool(np.allclose(a.probs, b.probs, atol=atol, rtol=0.0))


def gate_names(c: Circuit) -> list[str]:
    return [g.kind.gate_name for g in c.gates]


def same_gate(a: GateApp, b: GateApp, atol: float = 1e-9) -> bool:
    """Structural equality, angles compared within ``atol``."""
    return (
        a.kind is b.kind
        and a.qubits == b.qubits
        and len(a.params) == len(b.params)
        and all(abs(x - y) <= atol for x, y in zip(a.params, b.params))
    )


# ------------------------------------------ COBYLA through scipy, angle by angle
#
# ``optimizer.minimize_params`` with scipy's own COBYLA in place of the
# plain-float port: each angle in turn is one ``scipy.optimize.minimize``
# of one variable from the best point so far, on an even share of the
# evaluations left, its first call (the start) answered with the value
# already known there. test_optimizer.py holds the port to it call by call,
# and test_engine.py monkeypatches it into the engine.


def scipy_minimize_params(objective, n_params: int, budget):
    from scipy import optimize

    from qrep.optimizer import _CAP_SENTINEL, _MAX_ITER, _RHOBEG, TOL_FLOOR, OptResult

    if n_params == 0:
        return OptResult((), float(objective(())), 1, True)
    best_x, best_v, count = (0.0,) * n_params, math.inf, 0

    def wrapped(x: tuple[float, ...]) -> float:
        nonlocal best_x, best_v, count
        if count >= budget.max_evals:
            return _CAP_SENTINEL
        count += 1
        v = float(objective(x))
        if v < best_v:
            best_v, best_x = v, x
        return v

    converged = True
    for i in range(n_params):
        if count >= budget.max_evals:
            return OptResult(best_x, best_v, count, False)
        start, known = best_x, [best_v] if i else []

        def along(t: np.ndarray, i=i, start=start, known=known) -> float:
            return known.pop() if known else wrapped(start[:i] + (float(t[0]),) + start[i + 1:])

        res = optimize.minimize(
            along,
            np.zeros(1),
            method="COBYLA",
            tol=min(max(budget.tolerance, TOL_FLOOR), _RHOBEG),
            options={"maxiter": min(max((budget.max_evals - count) // (n_params - i), 3), _MAX_ITER), "rhobeg": _RHOBEG},
        )
        converged = converged and bool(res.success)
    return OptResult(best_x, best_v, count, converged)
