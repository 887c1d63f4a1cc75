"""Statevector simulator tests, anchored to the dense-matrix oracle."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import dense_probs, gate_matrix
from conftest import RANDOM_KINDS, random_circuit
from qrep.circuit import GateApp, GateKind, build_circuit
from qrep.simulator import (
    BASIS_ORDER,
    Distribution,
    MeasBasis,
    default_shots,
    run_all_bases,
    run_exact,
    sample,
)


def test_bell_z_distribution(bell):
    d = run_exact(bell, 0)
    assert d.as_dict(1e-12) == {"00": pytest.approx(0.5), "11": pytest.approx(0.5)}


def test_input_state_propagates_through_cx():
    cnot = build_circuit(2, [("cx", (0, 1))])
    d = run_exact(cnot, 0b01)  # qubit 0 starts at 1, so the target flips too
    assert d.as_dict(1e-12) == {"11": pytest.approx(1.0)}


def test_x_basis_of_plus_state():
    c = build_circuit(1, [("h", 0)])
    d = run_exact(c, 0, MeasBasis.X)
    assert d.probs[0] == pytest.approx(1.0)  # |+> measured in X is deterministic


def test_y_basis_of_sqrt_y_state():
    # S|+> = (|0> + i|1>)/sqrt(2) is the +i eigenstate of Y
    c = build_circuit(1, [("h", 0), ("s", 0)])
    d = run_exact(c, 0, MeasBasis.Y)
    assert d.probs[0] == pytest.approx(1.0)


def test_little_endian_bit_order():
    c = build_circuit(3, [("x", 2)])
    d = run_exact(c, 0)
    assert d.as_dict(1e-12) == {"100": pytest.approx(1.0)}  # qubit 2 = leftmost bit


@pytest.mark.parametrize("name", ["id", "x", "y", "z", "h", "s", "sdg", "t", "tdg"])
def test_single_gates_match_oracle(name):
    c = build_circuit(2, [(name, 1)])
    for inp in range(4):
        for basis in MeasBasis:
            got = run_exact(c, inp, basis)
            want = dense_probs(c, inp, basis.value)
            assert np.allclose(got.probs, want, atol=1e-12)


@pytest.mark.parametrize("name,nq", [("cx", 2), ("cz", 2), ("swap", 2), ("ccx", 3)])
def test_fixed_multiqubit_gates_match_oracle(name, nq):
    rng = np.random.default_rng(5)
    for _ in range(6):
        qubits = tuple(int(q) for q in rng.choice(3, size=nq, replace=False))
        c = build_circuit(3, [("h", 0), ("h", 1), ("h", 2), (name, qubits)])
        for inp in (0, 5):
            got = run_exact(c, inp)
            want = dense_probs(c, inp)
            assert np.allclose(got.probs, want, atol=1e-12)


@pytest.mark.parametrize("name", ["rx", "ry", "rz", "p", "cp", "crz", "u"])
def test_parametric_gates_match_oracle(name):
    rng = np.random.default_rng(6)
    kind = GateKind[name.upper()]
    for _ in range(8):
        params = tuple(float(a) for a in rng.uniform(-2 * math.pi, 2 * math.pi, kind.param_count))
        qubits = tuple(int(q) for q in rng.choice(2, size=kind.num_qubits, replace=False))
        c = build_circuit(2, [("h", 0), ("h", 1), (name, qubits, params)])
        for basis in MeasBasis:
            got = run_exact(c, 3, basis)
            want = dense_probs(c, 3, basis.value)
            assert np.allclose(got.probs, want, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 12))
def test_random_circuits_match_oracle(seed, num_qubits, num_gates):
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, num_qubits, num_gates)
    inp = int(rng.integers(2**num_qubits))
    for basis in MeasBasis:
        got = run_exact(c, inp, basis)
        want = dense_probs(c, inp, basis.value)
        assert np.allclose(got.probs, want, atol=1e-10)


def test_run_all_bases_consistent(bell):
    probs = run_all_bases(bell, [0])
    assert probs.shape == (3, 1, 4)
    for k, basis in enumerate(BASIS_ORDER):
        assert np.array_equal(probs[k, 0], run_exact(bell, 0, basis).probs)


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution(1, np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        Distribution(1, np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        Distribution(2, np.array([1.0, 0.0]))
    for probs in ([math.nan, math.nan], [math.inf, 0.0], [math.nan, 1.0]):
        with pytest.raises(ValueError, match="non-finite"):
            Distribution(1, np.array(probs))
        with pytest.raises(ValueError, match="non-finite"):
            Distribution.from_dict(1, {"0": probs[0], "1": probs[1]})


def test_distribution_dict_roundtrip():
    d = Distribution(2, np.array([0.25, 0.0, 0.5, 0.25]))
    assert d.as_dict() == {"00": 0.25, "10": 0.5, "11": 0.25}
    back = Distribution.from_dict(2, d.as_dict())
    assert back.allclose(d)


def test_sampling_is_seeded_and_normalized():
    d = Distribution(1, np.array([0.3, 0.7]))
    s1 = sample(d, 1000, seed=42)
    s2 = sample(d, 1000, seed=42)
    s3 = sample(d, 1000, seed=43)
    assert np.array_equal(s1.probs, s2.probs)
    assert not np.array_equal(s1.probs, s3.probs)
    assert s1.probs.sum() == pytest.approx(1.0)
    assert abs(s1.probs[1] - 0.7) < 0.1


def test_default_shots_formula():
    assert default_shots(3) == 16  # 2^q * 2
    assert default_shots(5) == 64


def test_input_state_bounds(bell):
    with pytest.raises(ValueError):
        run_exact(bell, 4)
    with pytest.raises(ValueError):
        run_exact(bell, -1)


def test_norm_preserved_deep_circuit(rng):
    c = random_circuit(rng, 3, 60)
    d = run_exact(c, 0)
    assert d.probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_batched_kernel_matches_dense_oracle_and_per_input_rows():
    # every gate kind, up to 4 qubits, every input and basis of each circuit
    rng = np.random.default_rng(2603)
    seen = set()
    for _ in range(220):
        q = int(rng.integers(1, 5))
        c = random_circuit(rng, q, int(rng.integers(0, 16)))
        seen.update(g.kind.gate_name for g in c.gates)
        probs = run_all_bases(c, range(2**q))
        assert probs.shape == (3, 2**q, 2**q)
        for s in range(2**q):
            single = run_all_bases(c, [s])
            # a row does not depend on the batch it is computed in
            assert np.array_equal(single[:, 0], probs[:, s])
            for k, basis in enumerate(BASIS_ORDER):
                want = dense_probs(c, s, basis.value)
                assert np.max(np.abs(probs[k, s] - want)) < 1e-10
    assert seen == set(RANDOM_KINDS)


def test_run_all_bases_input_order_and_bounds(bell):
    probs = run_all_bases(bell, [3, 0, 3])
    assert np.array_equal(probs[:, 0], probs[:, 2])
    assert np.array_equal(probs[:, 1], run_all_bases(bell, [0])[:, 0])
    for bad in ([4], [0, -1]):
        with pytest.raises(ValueError):
            run_all_bases(bell, bad)
