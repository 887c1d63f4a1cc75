"""Reference-circuit builders: structure and measured behavior."""
import pytest

from oracles import gate_names, run_exact
from qrep.benchmarks import BENCHMARKS, build_benchmark, standard_catalog


def zdist(c):
    return run_exact(c, 0).as_dict(1e-9)


def test_ghz_distribution():
    for n in (2, 3, 5):
        d = zdist(build_benchmark("ghz", n))
        assert d == {"0" * n: pytest.approx(0.5), "1" * n: pytest.approx(0.5)}


def test_ghz_structure():
    c = build_benchmark("ghz", 4)
    assert gate_names(c) == ["h", "cx", "cx", "cx"]
    assert c.measurements == {0: 0, 1: 1, 2: 2, 3: 3}


def test_dj_balanced_oracle_hits_all_ones():
    for n in (2, 4):
        d = zdist(build_benchmark("dj", n))
        assert d == {"1" * n: pytest.approx(1.0)}


def test_graphstate_uniform_z():
    # cz gates never change Z-basis probabilities of the plus-state layer
    for n in (2, 4, 5):
        d = zdist(build_benchmark("graphstate", n))
        assert all(p == pytest.approx(1 / 2**n) for p in d.values())
        assert len(d) == 2**n


def test_graphstate_ring_edges():
    c = build_benchmark("graphstate", 5)
    cz = [g.qubits for g in c.gates if g.kind.gate_name == "cz"]
    assert cz == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    assert len([g for g in build_benchmark("graphstate", 2).gates if g.kind.gate_name == "cz"]) == 1


def test_wstate_one_hot_uniform():
    for n in (2, 3, 4, 5):
        d = zdist(build_benchmark("wstate", n))
        one_hot = {format(1 << k, f"0{n}b") for k in range(n)}
        assert set(d) == one_hot
        assert all(p == pytest.approx(1.0 / n) for p in d.values())


def test_qft_of_zero_is_uniform():
    for n in (2, 4):
        d = zdist(build_benchmark("qft", n))
        assert len(d) == 2**n
        assert all(p == pytest.approx(1 / 2**n) for p in d.values())


def test_grover_peaks_on_all_ones():
    d2 = zdist(build_benchmark("grover", 2))
    assert d2["11"] == pytest.approx(1.0)  # 2-qubit grover is exact in one step
    d3 = zdist(build_benchmark("grover", 3))
    assert d3["111"] > 0.9


def test_grover_size_cap():
    with pytest.raises(ValueError):
        build_benchmark("grover", 4)


def test_min_sizes_rejected():
    for name in BENCHMARKS:
        with pytest.raises(ValueError):
            build_benchmark(name, 1)


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        build_benchmark("shor", 3)


def test_standard_catalog_shape():
    cat = standard_catalog()
    assert len(cat) == 10
    widths = {c.num_qubits for c in cat.values()}
    assert min(widths) == 2 and max(widths) == 6
    for key, c in cat.items():
        assert key.endswith(str(c.num_qubits))
        assert len(c.gates) > 0
