import math

import numpy as np
import pytest
from conftest import random_circuit
from oracles import dense_unitary, gate_names, same_gate
from hypothesis import given, settings, strategies as st

from qrep.circuit import (
    GATE_BY_NAME,
    Circuit,
    GateApp,
    GateKind,
    build_circuit,
    insert_gate,
    remove_gate,
    replace_gate,
)
from qrep.errors import GateIndexError, QubitIndexError
from qrep.qasm import emit_qasm, parse_qasm
from qrep.simulator import _kernel


def test_gate_catalog_arities():
    assert GateKind.H.num_qubits == 1
    assert GateKind.CX.num_qubits == 2
    assert GateKind.CCX.num_qubits == 3
    assert GateKind.RZ.param_count == 1
    assert GateKind.U.param_count == 3
    # measurements and barriers are QASM statements, not gates
    assert "measure" not in GATE_BY_NAME and "barrier" not in GATE_BY_NAME
    assert GATE_BY_NAME["cx"] is GateKind.CX


def test_gateapp_validation():
    with pytest.raises(QubitIndexError):
        GateApp(GateKind.CX, (0,))
    with pytest.raises(QubitIndexError):
        GateApp(GateKind.CX, (1, 1))
    with pytest.raises(ValueError):
        GateApp(GateKind.RZ, (0,), ())
    with pytest.raises(ValueError):
        GateApp(GateKind.RZ, (0,), (math.nan,))


@pytest.mark.parametrize("kind", list(GateKind), ids=lambda k: k.gate_name)
def test_every_gate_kind_builds_simulates_and_round_trips(kind):
    # operands counted down from the top qubit, so a control sits above its target
    n = 3
    g = GateApp(kind, tuple(range(n - 1, n - 1 - kind.num_qubits, -1)), (0.3, -1.1, 2.5)[: kind.param_count])
    c = Circuit(num_qubits=n, num_clbits=n, gates=(g,), measurements={q: q for q in range(n)})
    rng = np.random.default_rng(3)
    state = rng.normal(size=(2**n, 2)) + 1j * rng.normal(size=(2**n, 2))
    out = _kernel(g, n)(state.reshape((2,) * n + (2,)).copy())
    assert np.allclose(out.reshape(2**n, 2), dense_unitary(c) @ state, atol=1e-12)
    back = parse_qasm(emit_qasm(c))
    assert back.gates == c.gates and back.measurements == c.measurements


def test_same_gate_ignores_position():
    a = GateApp(GateKind.RX, (0,), (1.0,))
    b = GateApp(GateKind.RX, (0,), (1.0 + 1e-12,))
    c = GateApp(GateKind.RX, (0,), (1.1,))
    assert same_gate(a, b)
    assert not same_gate(a, c)
    # a gate is the same value at any index of any circuit
    shifted = remove_gate(Circuit(num_qubits=1, gates=(c, a)), 0)
    assert shifted.gates[0] == a and same_gate(shifted.gates[0], b)


def test_circuit_rejects_out_of_range_qubits():
    g = GateApp(GateKind.CX, (0, 3))
    with pytest.raises(QubitIndexError):
        Circuit(num_qubits=2, gates=(g,))


def test_remove_gate_shifts_positions(bell):
    out = remove_gate(bell, 0)
    assert gate_names(out) == ["cx"]
    assert out.gates[0] is bell.gates[1]
    assert gate_names(bell) == ["h", "cx"]  # original untouched


def test_remove_gate_bounds(bell):
    with pytest.raises(GateIndexError):
        remove_gate(bell, 2)
    with pytest.raises(GateIndexError):
        remove_gate(bell, -1)


def test_insert_gate_at_every_slot(bell):
    g = GateApp(GateKind.Z, (1,))
    for pos in range(len(bell.gates) + 1):
        out = insert_gate(bell, pos, g)
        assert len(out.gates) == 3
        assert out.gates[pos] is g
        assert out.gates[:pos] + out.gates[pos + 1 :] == bell.gates
    with pytest.raises(GateIndexError):
        insert_gate(bell, 3, g)


def test_insert_gate_checks_width(bell):
    for edit in (insert_gate, replace_gate):
        with pytest.raises(QubitIndexError, match="qubit 2 out of range for 2-qubit circuit"):
            edit(bell, 0, GateApp(GateKind.X, (2,)))


def test_replace_gate(bell):
    out = replace_gate(bell, 0, GateApp(GateKind.X, (0,)))
    assert gate_names(out) == ["x", "cx"]
    with pytest.raises(GateIndexError):
        replace_gate(bell, 2, GateApp(GateKind.X, (0,)))


def test_build_circuit_measure_all():
    c = build_circuit(3, [("h", 0), ("cx", (0, 1)), ("rz", (2,), (0.5,))])
    assert c.num_clbits == 3
    assert c.measurements == {0: 0, 1: 1, 2: 2}
    assert c.gates[2].params == (0.5,)
    bare = build_circuit(2, [("h", 0)], measure_all=False)
    assert bare.measurements == {}


@given(st.integers(0, 3), st.integers(0, 2))
def test_insert_then_remove_roundtrip(ins_pos, width_extra):
    base = build_circuit(2, [("h", 0), ("cx", (0, 1)), ("z", 1)])
    pos = min(ins_pos, len(base.gates))
    edited = insert_gate(base, pos, GateApp(GateKind.S, (width_extra % 2,)))
    back = remove_gate(edited, pos)
    assert gate_names(back) == gate_names(base)
    assert all(same_gate(a, b) for a, b in zip(back.gates, base.gates))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**63 - 1))
def test_edits_match_list_operations(seed):
    """remove, insert and replace agree with list pop, insert and item
    assignment, keep every other gate object, and keep the measurement map."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    c = Circuit(n, n, random_circuit(rng, n, int(rng.integers(0, 9))).gates, {q: q for q in range(n)})
    g = random_circuit(rng, n, 1).gates[0]

    def check(out, want):
        assert list(out.gates) == want and all(a is b for a, b in zip(out.gates, want))
        assert (out.num_qubits, out.num_clbits, out.measurements) == (n, n, c.measurements)

    pos = int(rng.integers(0, len(c.gates) + 1))
    want = list(c.gates)
    want.insert(pos, g)
    check(insert_gate(c, pos, g), want)
    if c.gates:
        pos = int(rng.integers(0, len(c.gates)))
        want = list(c.gates)
        want.pop(pos)
        check(remove_gate(c, pos), want)
        want = list(c.gates)
        want[pos] = g
        check(replace_gate(c, pos, g), want)
