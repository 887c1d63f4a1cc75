"""Statevector simulator tests, anchored to the dense-matrix oracle."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from itertools import combinations, product

from oracles import (
    complex_matrix_1q,
    dense_probs,
    dense_probs_all,
    distribution_from_dict,
    distributions_allclose,
    kernel_run_all_bases,
    narrowed,
    run_exact,
    sample,
    stacked_run_all_bases,
)
from conftest import RANDOM_KINDS, out_of_range_edits, own_workspace_pool, random_circuit
from qrep import simulator
from qrep.circuit import GateApp, GateKind, build_circuit, insert_gate, remove_gate, replace_gate
from qrep.errors import QRepError, QubitIndexError, WidthMismatchError
from qrep.simulator import (
    BASIS_ORDER,
    Distribution,
    MeasBasis,
    PrefixCache,
    run_all_bases,
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
            distribution_from_dict(1, {"0": probs[0], "1": probs[1]})


def test_probability_rows_name_the_first_bad_row_or_clip():
    rows = np.array([[1.0, 0.0], [0.6, 0.6], [math.nan, 1.0], [1.5, -0.5]])
    before = rows.copy()
    assert simulator.check_probability_rows(rows) == (1, "probabilities sum to 1.2, not 1")
    assert simulator.check_probability_rows(rows[2:]) == (0, "non-finite probability")
    assert simulator.check_probability_rows(rows[3:]) == (0, "negative probability")
    assert np.array_equal(rows, before, equal_nan=True)  # nothing clipped while a row is bad
    good = np.array([[1.0, -1e-13], [0.5, 0.5]])
    assert simulator.check_probability_rows(good) is None
    assert good.tolist() == [[1.0, 0.0], [0.5, 0.5]]


def test_distribution_dict_roundtrip():
    d = Distribution(2, np.array([0.25, 0.0, 0.5, 0.25]))
    assert d.as_dict() == {"00": 0.25, "10": 0.5, "11": 0.25}
    back = distribution_from_dict(2, d.as_dict())
    assert distributions_allclose(back, d)


def test_sampling_is_seeded_and_normalized():
    d = Distribution(1, np.array([0.3, 0.7]))
    s1 = sample(d, 1000, seed=42)
    s2 = sample(d, 1000, seed=42)
    s3 = sample(d, 1000, seed=43)
    assert np.array_equal(s1.probs, s2.probs)
    assert not np.array_equal(s1.probs, s3.probs)
    assert s1.probs.sum() == pytest.approx(1.0)
    assert abs(s1.probs[1] - 0.7) < 0.1


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
    # every gate kind, 1-7 qubits, every input and basis of each circuit
    rng = np.random.default_rng(2603)
    seen = set()
    for trial in range(140):
        q = 1 + trial % 7
        c = random_circuit(rng, q, int(rng.integers(0, 16)))
        seen.update(g.kind.gate_name for g in c.gates)
        probs = run_all_bases(c, range(2**q))
        assert probs.shape == (3, 2**q, 2**q)
        assert np.max(np.abs(probs - dense_probs_all(c))) < 1e-10
        for s in range(2**q):
            # a row does not depend on the batch it is computed in: a single
            # input, alone, measured in one basis, or resumed from a prefix
            # cache, gives the suite's row byte for byte
            single = run_all_bases(c, [s])
            cached = run_all_bases(c, [s], prefixes=PrefixCache(c, [s]))
            for k, basis in enumerate(BASIS_ORDER):
                row = probs[k, s].tobytes()
                assert single[k, 0].tobytes() == row
                assert cached[k, 0].tobytes() == row
                assert run_exact(c, s, basis).probs.tobytes() == row, (q, s, basis)
    assert seen == set(RANDOM_KINDS)


def test_run_all_bases_input_order_and_bounds(bell):
    probs = run_all_bases(bell, [3, 0, 3])
    assert np.array_equal(probs[:, 0], probs[:, 2])
    assert np.array_equal(probs[:, 1], run_all_bases(bell, [0])[:, 0])
    for bad in ([4], [0, -1], [2**63], [0, 2**64], [2**70]):  # past any index too
        with pytest.raises(WidthMismatchError, match=f"^input {bad[-1]} out of range for 2 qubits$"):
            run_all_bases(bell, bad)
    for dtype in (np.uint8, np.int32, np.uint64):  # an integer array of any width
        assert np.array_equal(run_all_bases(bell, np.array([3, 0], dtype=dtype)), probs[:, :2])


BASIS_SUBSETS = [sub for r in (1, 2, 3) for sub in combinations(BASIS_ORDER, r)]


def test_kernel_matches_stacked_reference_bit_for_bit():
    # 1-8 qubits, every gate kind, every subset of bases, random input batches
    rng = np.random.default_rng(5150)
    seen = set()
    for trial in range(160):
        q = 1 + trial % 8
        c = random_circuit(rng, q, int(rng.integers(0, 14)))
        seen.update(g.kind.gate_name for g in c.gates)
        size = int(rng.integers(1, min(2**q, 24) + 1))
        inputs = rng.choice(2**q, size=size, replace=False)
        want = stacked_run_all_bases(c, inputs)
        for bases in BASIS_SUBSETS:
            got = run_all_bases(c, inputs, bases=bases)
            rows = [BASIS_ORDER.index(b) for b in bases]
            assert np.array_equal(got, want[rows]), (q, bases)
    assert seen == set(RANDOM_KINDS)


def test_stacked_bases_match_each_basis_and_removal_alone(monkeypatch):
    # the bases measured one per pass (a 1-byte chunk cap, so no workspace
    # has room to stack) and all in one pass (1 GiB), with and without a
    # removal run, byte for byte against the stacked oracle measuring each
    # circuit alone in every basis; a pool of its own, so no workspace sized
    # under the default cap is reused
    own_workspace_pool(monkeypatch)
    rng = np.random.default_rng(4242)
    seen = set()
    for trial in range(24):
        q = 1 + trial % 8
        c = random_circuit(rng, q, int(rng.integers(1, 10)))
        seen.update(g.kind.gate_name for g in c.gates)
        g = len(c.gates)
        a = int(rng.integers(g))
        runs = (range(a, a + 1), range(a, int(rng.integers(a + 1, g + 1))), range(g))
        for size in sorted({1, 2, 3, 2**q} & set(range(1, 2**q + 1))):
            inputs = rng.choice(2**q, size=size, replace=False)
            cache = PrefixCache(c, inputs)
            plain = stacked_run_all_bases(c, inputs)
            alone = [stacked_run_all_bases(remove_gate(c, p), inputs) for p in range(g)]
            for cap, bases in product((1, 2**30), BASIS_SUBSETS):
                monkeypatch.setattr(simulator, "SWEEP_CHUNK_BYTES", cap)
                rows = [BASIS_ORDER.index(b) for b in bases]
                got = run_all_bases(c, inputs, bases=bases, prefixes=cache)
                assert got.shape == plain[rows].shape and got.tobytes() == plain[rows].tobytes(), (q, size, bases)
                for r in runs:
                    got = run_all_bases(c, inputs, bases=bases, prefixes=cache, edits=[(p, None, True) for p in r])
                    want = np.stack([alone[p][rows] for p in r])
                    assert got.shape == want.shape and got.tobytes() == want.tobytes(), (q, size, bases, r)
    assert seen == set(RANDOM_KINDS)


def _patch_h(monkeypatch, h: np.ndarray) -> None:
    """``h`` as the measurement's ``h``, in workspaces made from now on:
    the shared ones bind ``h`` the first time they measure."""
    own_workspace_pool(monkeypatch)
    monkeypatch.setattr(simulator, "_H", h)


def test_norm_drift_is_an_assertion_naming_the_drifting_row(monkeypatch):
    # h scaled by 2 makes every X row sum to about 4; the Z rows still sum to 1
    scaled = 2 * simulator._H
    _patch_h(monkeypatch, scaled)
    c = build_circuit(1, [("x", 0)])
    norm = float((np.abs(scaled @ [0.0, 1.0]) ** 2).sum())
    assert abs(norm - 4.0) < 1e-9
    with pytest.raises(AssertionError, match=f"^final norm {re.escape(repr(norm))} drifted beyond tolerance$"):
        run_all_bases(c, [0], bases=(MeasBasis.Z, MeasBasis.X))
    with pytest.raises(AssertionError, match=re.escape(repr(norm))):
        run_all_bases(c, [0], prefixes=PrefixCache(c, [0]), edits=[(0, None, True)])


def test_a_norm_that_is_not_finite_drifts(monkeypatch):
    """A NaN row fails the drift check, where a comparison with the
    tolerance alone would let it through (NaN > tol is False): h with a
    NaN entry makes every X row NaN."""
    _patch_h(monkeypatch, np.array([[np.nan, 1.0], [1.0, -1.0]]))
    c = build_circuit(2, [("h", 0), ("cx", (0, 1))])
    with pytest.raises(AssertionError, match="^final norm nan drifted beyond tolerance$"):
        run_all_bases(c, range(4))
    with pytest.raises(AssertionError, match="^final norm nan drifted beyond tolerance$"):
        run_all_bases(c, range(4), prefixes=PrefixCache(c, range(4)), edits=[(1, None, True)])


def test_norm_drift_names_the_row_that_drifts_most_in_basis_block_input_order(monkeypatch):
    """The rows are measured ``[block, input, basis]``, but a drift error
    names the norm of the row that drifts most, the first such row in
    ``[basis, block, input]`` order, as when the rows were laid out so: for
    a circuit, across blocks, and for a lone edit measured into a caller's
    buffer."""
    # h with its rows scaled by 2 and 1: |+> rotates to norm 4, |-> to 1,
    # and sdg|+> or sdg|-> to 2.5, per qubit
    _patch_h(monkeypatch, np.diag([2.0, 1.0]) @ simulator._H)
    # input 0 ends in |-->, whose X row keeps norm 1; input 1 in |-+>, whose
    # X row drifts to 4; every Y row drifts to 6.25. Row 2 is Y of input 0
    # in [basis, input] order, but X of input 1 in [input, basis] order
    c = build_circuit(2, [("x", 0), ("h", 0), ("x", 1), ("h", 1)])
    same, flipped = (4, GateApp(GateKind.ID, (0,)), False), (4, GateApp(GateKind.Z, (0,)), False)
    bases = (MeasBasis.X, MeasBasis.Y)

    def named(call) -> float:
        with pytest.raises(AssertionError, match="^final norm .* drifted beyond tolerance$") as err:
            call()
        return float(str(err.value).split()[2])

    assert abs(named(lambda: run_all_bases(c, [0, 1], bases=bases)) - 6.25) < 1e-9
    # block 1 (z on qubit 0 flips it to |+>) drifts to 4 in X, both blocks to 6.25 in Y
    cache = PrefixCache(c, [0])
    assert abs(named(lambda: run_all_bases(c, [0], bases, cache, [same, flipped])) - 6.25) < 1e-9
    cache = PrefixCache(c, [0, 1])
    out = np.empty((1, 2, len(bases), 4))
    assert abs(named(lambda: run_all_bases(c, [0, 1], bases, cache, [same], out)) - 6.25) < 1e-9


def test_one_qubit_matrices_are_built_as_the_complex_matrix_narrows():
    """``_matrix_1q`` builds every one-qubit kind's matrix (all 14) as the
    reference complex matrix narrowed (``tests/oracles.py``), dtype and
    bytes: real where every imaginary part is zero (``ry`` always), for the
    nine fixed kinds (each as ``_FIXED_1Q`` holds it) and the five
    parametric ones at angles of +-0, +-pi, +-2pi, +-4pi and random ones,
    and read-only."""
    rng = np.random.default_rng(35)
    special = [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, -2 * math.pi, 4 * math.pi, -4 * math.pi]
    kinds = [k for k in GateKind if k.num_qubits == 1]
    assert len(kinds) == 14 and set(simulator._FIXED_1Q) == {k for k in kinds if not k.param_count}
    real = checked = 0
    for kind in kinds:
        for _ in range(200 if kind.param_count else 1):
            params = tuple(
                special[int(rng.integers(len(special)))] if rng.random() < 0.7 else float(rng.uniform(-20, 20))
                for _ in range(kind.param_count)
            )
            got, want = simulator._matrix_1q(kind, params), narrowed(complex_matrix_1q(kind, params))
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), (kind, params)
            assert not got.flags.writeable and got.flags.c_contiguous
            if not kind.param_count:
                fixed = simulator._FIXED_1Q[kind]
                assert (fixed.dtype, fixed.tobytes()) == (want.dtype, want.tobytes()), kind
            real += got.dtype == np.float64
            checked += 1
    # id, x, z and h of the fixed kinds are real
    assert checked == 1009 and 204 < real < checked


def test_bases_must_be_measurement_bases():
    """A basis that is not a ``MeasBasis``, one given twice, or no basis at
    all, is refused with one line, not measured as another basis or failed
    inside numpy (a third stacked basis overran a 6-qubit suite's
    workspace). A list of bases is measured as the tuple of them."""
    c = build_circuit(1, [("x", 0)])
    for bases in ((MeasBasis.Z,), [MeasBasis.Z]):
        assert run_all_bases(c, [0], bases=bases).tolist() == [[[0.0, 1.0]]]
    for bases in (("Z",), (MeasBasis.X, "Y")):
        with pytest.raises(ValueError, match=f"^basis {re.escape(repr(bases[-1]))} is not a MeasBasis$"):
            run_all_bases(c, [0], bases=bases)
    with pytest.raises(ValueError, match="^no basis to measure$"):
        run_all_bases(c, [0], bases=())
    wide = build_circuit(6, [("h", 0)])
    for bases in ((MeasBasis.X, MeasBasis.Y, MeasBasis.X), (MeasBasis.Z, MeasBasis.Z)):
        with pytest.raises(ValueError, match=f"^basis {re.escape(repr(bases[-1]))} is given twice$"):
            run_all_bases(wide, range(64), bases=bases)
    cache = PrefixCache(c, [0])
    with pytest.raises(ValueError, match="^basis 'Z' is not a MeasBasis$"):
        run_all_bases(c, [0], bases=("Z",), prefixes=cache, edits=[(0, None, True)])


@pytest.mark.parametrize(
    "q, inputs, bases, passes",
    [(q, 2**q, BASIS_ORDER, 1) for q in range(1, 7)]
    + [(q, 2**q, BASIS_ORDER, 3) for q in (7, 8)]
    + [(8, 256, (MeasBasis.Z,), 1), (10, 8, BASIS_ORDER, 3), (9, 16, BASIS_ORDER, 3), (6, 64, (MeasBasis.X, MeasBasis.Z), 1)]
    + [(6, 64, (MeasBasis.Z, MeasBasis.X), 1), (6, 64, (MeasBasis.Y, MeasBasis.Z, MeasBasis.X), 1)]
    + [(7, 128, (MeasBasis.Z, MeasBasis.Y, MeasBasis.X), 3)],
)
def test_measurement_passes(monkeypatch, q, inputs, bases, passes):
    """How many passes a measurement makes, which sets its peak memory: a
    workspace whose blocks fit in ``SWEEP_CHUNK_BYTES`` has room to stack
    X and Y and measures every basis in one pass (a full suite at 1-6
    qubits, any one basis); a wider one measures one basis a pass (a full
    suite at 7-8 qubits, 10 qubits x 8 inputs, 9 x 16), with the bases in
    several orders. The circuit, a lone edit and a chunk of edits, with and
    without a cache; the rows equal, byte for byte, the allocating
    kernels' for the same order."""
    calls = []
    measure = simulator._Workspace._measure

    def counted(self, blocks, i, bases, out):
        calls.append(len(bases))
        return measure(self, blocks, i, bases, out)

    monkeypatch.setattr(simulator._Workspace, "_measure", counted)
    own_workspace_pool(monkeypatch)
    rng = np.random.default_rng([q, inputs])
    c = random_circuit(rng, q, 3)
    idx = sorted(rng.choice(2**q, size=inputs, replace=False).tolist())
    want = kernel_run_all_bases(c, idx, bases)
    cache = PrefixCache(c, idx)
    for prefixes in (None, cache):
        calls.clear()
        got = run_all_bases(c, idx, bases, prefixes)
        assert calls == [len(bases) // passes] * passes and got.tobytes() == want.tobytes()
    edits = [(p, None, True) for p in range(len(c.gates))][: cache.chunk]
    for chunk in (edits[:1], edits):
        calls.clear()
        got = run_all_bases(c, idx, bases, cache, chunk)
        assert calls == [len(bases) // passes] * passes
        for e, rows in zip(chunk, got):
            assert rows.tobytes() == kernel_run_all_bases(remove_gate(c, e[0]), idx, bases).tobytes()


@pytest.mark.parametrize("q", range(2, 9))
def test_cz_on_exact_zero_parts_matches_the_negating_kernel(q):
    """``cz`` is a phase of -1 on its slice; times ``-1 + 0j``, an amplitude
    differs from its negation only in the sign of a zero part. An ``x`` then
    a ``cz`` on every ordered qubit pair, over all inputs, leaves states of
    exact zero parts: their rows equal, byte for byte, those of the frozen
    kernel that negates."""
    for a, b in product(range(q), repeat=2):
        if a != b:
            c = build_circuit(q, [("x", a), ("cz", (a, b))])
            assert run_all_bases(c, range(2**q)).tobytes() == kernel_run_all_bases(c, range(2**q)).tobytes(), (a, b)


def _random_edit(rng, c):
    """One gate added, replaced or removed at a random position of ``c``:
    the edit, and the circuit it makes."""
    g = random_circuit(rng, c.num_qubits, 1).gates[0]
    op = rng.choice(["add", "replace", "remove"] if c.gates else ["add"])
    if op == "add":
        pos = int(rng.integers(len(c.gates) + 1))
        return (pos, g, False), insert_gate(c, pos, g)
    pos = int(rng.integers(len(c.gates)))
    if op == "replace":
        return (pos, g, True), replace_gate(c, pos, g)
    return (pos, None, True), remove_gate(c, pos)


@pytest.mark.parametrize("small_cap", [False, True], ids=["every-prefix", "checkpoints"])
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_prefix_cache_matches_full_simulation(small_cap, seed):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(1, 6))
    c = random_circuit(rng, q, int(rng.integers(0, 16)))
    inputs = range(2**q)
    cap = 3 * 2**q * 2**q * 16 if small_cap else simulator.PREFIX_CACHE_BYTES
    with pytest.MonkeyPatch.context() as mp:
        # with room for three states, a circuit of 4+ gates keeps checkpoints only
        mp.setattr(simulator, "PREFIX_CACHE_BYTES", cap)
        cache = PrefixCache(c, inputs)
    assert sum(t.nbytes for t in cache.states.values()) <= cap
    if small_cap and len(c.gates) >= 4:
        assert cache.stride > 1
    # the cached circuit, then its edits, each alone and all stacked, from one cache
    assert np.array_equal(run_all_bases(c, inputs, prefixes=cache), run_all_bases(c, inputs))
    edits, circuits = zip(*(_random_edit(rng, c) for _ in range(5)))
    stacked = run_all_bases(c, inputs, prefixes=cache, edits=edits)
    for e, cand, got in zip(edits, circuits, stacked):
        want = run_all_bases(cand, inputs)
        assert np.array_equal(run_all_bases(c, inputs, prefixes=cache, edits=[e])[0], want)
        assert np.array_equal(got, want)
    # any other circuit, an edited one or a stranger, is not the cache's to simulate
    for cand in (*circuits, random_circuit(rng, q, 4)):
        if cand.gates != c.gates:
            with pytest.raises(ValueError, match="another circuit"):
                run_all_bases(cand, inputs, prefixes=cache)


def test_prefix_cache_rejects_other_inputs_and_widths(bell):
    cache = PrefixCache(bell, [0, 1, 2, 3])
    with pytest.raises(ValueError, match="other inputs"):
        run_all_bases(bell, [0, 1], prefixes=cache)
    with pytest.raises(ValueError, match="qubits"):
        run_all_bases(build_circuit(3, [("h", 0)]), [0, 1, 2, 3], prefixes=cache)
    with pytest.raises(ValueError):
        PrefixCache(bell, [4])


def test_empty_input_batch_is_a_value_error(bell):
    for call in (lambda: run_all_bases(bell, []), lambda: PrefixCache(bell, [])):
        with pytest.raises(ValueError, match="no inputs"):
            call()


def test_inputs_that_are_not_integers_are_named(bell):
    """An input is an integer: a float, a string, a bool or None is named,
    not rounded, parsed or read as 0 or 1."""
    cases = (([0.5, 1.7], "0.5"), (["1"], "'1'"), (np.array([1.0, 0.0]), "1.0"), ([0, True], "True"), ([3, None], "None"))
    for inputs, first in cases:
        for call in (lambda: run_all_bases(bell, inputs), lambda: PrefixCache(bell, inputs)):
            with pytest.raises(QRepError, match=rf"^input {re.escape(first)} is not an integer$"):
                call()


def test_inputs_given_with_a_cache_keep_its_integer_rule(bell):
    """Inputs passed with a cache are held to the rule the cache was built
    by, not matched to it by value: [0.0, 1.0] equal the cache's [0, 1] but
    are not integers. Integers of any type that equal them still match."""
    cache = PrefixCache(bell, [0, 1])
    cases = (([0.0, 1.0], "0.0"), ((0.0, 1.0), "0.0"), (np.array([0.0, 1.0]), "0.0"), ([0, True], "True"), (["0", "1"], "'0'"))
    for inputs, first in cases:
        with pytest.raises(QRepError, match=rf"^input {re.escape(first)} is not an integer$"):
            run_all_bases(bell, inputs, prefixes=cache)
    want = run_all_bases(bell, [0, 1])
    for inputs in ([0, 1], (0, 1), np.array([0, 1], dtype=np.uint8)):
        assert np.array_equal(run_all_bases(bell, inputs, prefixes=cache), want)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_simulated_edits_keep_the_circuits_qubit_rule(n):
    """An add or replace whose gate names a qubit the circuit lacks raises
    the QubitIndexError that insert_gate and replace_gate raise for it,
    alone or after an edit that is fine, from a given cache or none."""
    c = build_circuit(n, [("h", q) for q in range(n)])
    cache, fine = PrefixCache(c, range(2**n)), (0, GateApp(GateKind.X, (0,)), False)
    checked = 0
    for e in out_of_range_edits(c):
        message = rf"^qubit {next(q for q in e[1].qubits if not 0 <= q < n)} out of range for {n}-qubit circuit$"
        with pytest.raises(QubitIndexError, match=message):
            (replace_gate if e[2] else insert_gate)(c, e[0], e[1])
        for edits, prefixes in (([e], cache), ([fine, e], cache), ([e], None)):
            with pytest.raises(QubitIndexError, match=message):
                run_all_bases(c, range(2**n), prefixes=prefixes, edits=edits)
        checked += 1
    assert checked == 2 * (1 + 1 + 2 + 3) * (2 * n + 1)


def test_prefix_cache_stores_and_simulates_nothing_when_one_state_is_over_the_cap(monkeypatch):
    c = build_circuit(3, [("h", 0), ("cx", (0, 1)), ("t", 2), ("cx", (1, 2))])
    applied = []
    real = simulator._Workspace.gates

    def counted(self, cache, blocks, start, stop, i):
        applied.extend(cache.gates[start:stop])
        return real(self, cache, blocks, start, stop, i)

    monkeypatch.setattr(simulator._Workspace, "gates", counted)
    monkeypatch.setattr(simulator, "PREFIX_CACHE_BYTES", 8 * 8 * 16 - 1)
    cache = PrefixCache(c, range(8))
    assert cache.states == {} and applied == []
    # every candidate then runs in full from the inputs
    ws = cache.workspace(1)
    ws.load(cache, 0, ws.bufs[0][0])
    assert np.array_equal(ws.bufs[0][0].reshape(8, 8), np.eye(8)) and applied == []
    assert np.array_equal(run_all_bases(c, range(8), prefixes=cache), run_all_bases(c, range(8)))
    assert applied == 2 * list(c.gates)


def test_edit_runs_reject_edits_the_circuit_cannot_take(bell):
    cache, h = PrefixCache(bell, range(4)), GateApp(GateKind.H, (1,))
    for edits in ([(3, h, False)], [(2, h, True)], [(-1, None, True)], [(0, None, False)], []):
        with pytest.raises(ValueError, match="no edit"):
            run_all_bases(bell, range(4), prefixes=cache, edits=edits)
        for e in edits:  # the cache names the edit it cannot make
            with pytest.raises(ValueError, match=rf"no edit \({e[0]}, .* of a circuit of 2 gates"):
                cache.joins_at(e)
    with pytest.raises(ValueError, match="another circuit"):
        run_all_bases(build_circuit(2, [("h", 0)]), range(4), prefixes=cache, edits=[(0, None, True)])
    # an append and a replace of the last gate are the edits at the ends
    got = run_all_bases(bell, range(4), prefixes=cache, edits=[(2, h, False), (1, h, True)])
    assert np.array_equal(got[0], run_all_bases(insert_gate(bell, 2, h), range(4)))
    assert np.array_equal(got[1], run_all_bases(replace_gate(bell, 1, h), range(4)))
