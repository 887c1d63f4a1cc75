"""Independent brute-force oracles for the test suite.

Everything here recomputes expected values from first principles with a
different algorithm than the package: full 2^n x 2^n unitaries built by
index arithmetic rather than in-place axis kernels. Gate matrices are
hardcoded from their textbook definitions.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

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


def hellinger_ref(p: np.ndarray, q: np.ndarray) -> float:
    """Closed-form Hellinger: sqrt(1 - sum(sqrt(p_i q_i)))."""
    bc = float(np.sum(np.sqrt(np.asarray(p) * np.asarray(q))))
    return math.sqrt(max(0.0, 1.0 - bc))


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
                        g = GateApp(kind, qs, params, position=pos)
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
                        g = GateApp(kind, qs, params, position=pos)
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
            fault = gate_id(m.gates[fault_pos]) if m.gates else None
            records.append(MutantRecord(m, group, desc, fault, score.value, score.failed_count))
            found += 1
    if per_group > 0 and any_candidates and not records:
        raise NoNonEquivalentMutantError("every candidate mutant passes the reference suite")
    return records


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
