"""Patch enumeration, ordering, apply/revert, and the fault injector."""
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from conftest import random_circuit, random_suite
from hypothesis import given, settings, strategies as st
from oracles import _MUTANT_ANGLES, cursor_order_uniform, eager_inject_faults, eager_order_uniform

from qrep import patcher, testkit
from qrep.benchmarks import build_benchmark, standard_catalog
from qrep.circuit import GateApp, GateKind, build_circuit
from qrep.errors import NoNonEquivalentMutantError
from qrep.localizer import GateId, gate_id
from qrep.patcher import (
    DEFAULT_MUTATION_CATALOG,
    DEFAULT_PATCH_CATALOG,
    Patch,
    apply_patch,
    generate_patches,
    inject_faults,
    order_uniform,
    prune_to_gates,
    revert_patch,
)
from qrep.testkit import fitness, generate_suite


# ------------------------------------------------------------- enumeration

def test_pool_for_single_gate_tiny_catalog():
    c = build_circuit(1, [("h", 0)])
    pool = generate_patches(c, catalog=("x", "h"))
    got = {(p.kind, p.position, p.gate.gate_name) for p in pool}
    # adds at both insertion points, replaces excluding the no-op h->h
    assert got == {
        ("add", 0, "x"), ("add", 0, "h"),
        ("add", 1, "x"), ("add", 1, "h"),
        ("replace", 0, "x"),
    }
    assert len(pool) == 5


def test_pool_excludes_parametric_noop_exemption():
    # identical parametric kind is kept: new angles may differ
    c = build_circuit(1, [("rx", 0, (0.5,))])
    pool = generate_patches(c, catalog=("rx",))
    kinds = [(p.kind, p.gate.gate_name) for p in pool]
    assert ("replace", "rx") in kinds


def test_pool_qubit_choices_are_ordered_pairs():
    c = build_circuit(2, [("h", 0)])
    pool = generate_patches(c, catalog=("cx",))
    pairs = {p.qubits for p in pool if p.kind == "add" and p.position == 0}
    assert pairs == {(0, 1), (1, 0)}


def test_pool_filters_kinds_wider_than_circuit():
    c = build_circuit(1, [("h", 0)])
    pool = generate_patches(c, catalog=("x", "cx"))
    assert all(p.gate.num_qubits <= 1 for p in pool)


def test_pool_rejects_non_unitary_catalog():
    c = build_circuit(1, [("h", 0)])
    with pytest.raises(ValueError):
        generate_patches(c, catalog=("measure",))


def test_add_anchors_point_at_displaced_gate():
    c = build_circuit(1, [("h", 0), ("t", 0)])
    pool = generate_patches(c, catalog=("x",))
    by_pos = {p.position: p.anchor for p in pool if p.kind == "add"}
    assert by_pos[0] == gate_id(0, c.gates[0])
    assert by_pos[1] == gate_id(1, c.gates[1])
    assert by_pos[2] == gate_id(1, c.gates[1])  # append anchors to the last gate


def test_add_anchor_none_on_empty_circuit():
    c = build_circuit(1, [])
    pool = generate_patches(c, catalog=("x",))
    assert all(p.anchor is None for p in pool)


def test_replace_anchor_is_the_replaced_gate():
    c = build_circuit(1, [("h", 0)])
    pool = generate_patches(c, catalog=("x",))
    rep = [p for p in pool if p.kind == "replace"]
    assert rep and all(p.anchor == gate_id(0, c.gates[0]) for p in rep)


# ---------------------------------------------------------------- ordering

def test_order_uniform_is_a_permutation(bell):
    pool = generate_patches(bell)
    before = Counter((p.kind, p.position, p.gate.gate_name, p.qubits) for p in pool)
    ordered = order_uniform(bell)
    after = Counter((p.kind, p.position, p.gate.gate_name, p.qubits) for p in ordered)
    assert before == after
    assert len(ordered) == len(pool)


def test_order_uniform_spreads_positions_early(bell):
    ordered = list(order_uniform(bell))
    early = ordered[: len(bell.gates) + 1]
    # the first few draws cover distinct circuit positions, not one hot spot
    assert len({p.position for p in early}) == len(early)


def test_order_uniform_alternates_add_replace(bell):
    ordered = list(order_uniform(bell))
    kinds = [p.kind for p in ordered[:8]]
    assert "add" in kinds and "replace" in kinds


def test_order_uniform_spreads_gate_kinds():
    c = build_circuit(1, [("h", 0)])
    ordered = list(order_uniform(c, ("x", "y", "z")))
    first_three_adds = [p.gate.gate_name for p in ordered if p.kind == "add"][:3]
    assert len(set(first_three_adds)) == 3


def test_order_uniform_deterministic(bell):
    assert list(order_uniform(bell)) == list(order_uniform(bell))


def test_order_uniform_empty():
    q = order_uniform(build_circuit(1, []), ("cx",))  # no catalog gate fits one qubit
    assert len(q) == 0 and not q and list(q) == []
    with pytest.raises(IndexError):
        q.popleft()


def test_duplicated_catalog_names_count_once(bell):
    assert generate_patches(bell, ("x", "x", "h")) == generate_patches(bell, ("x", "h"))
    assert list(order_uniform(bell, ("h", "x", "h"))) == list(order_uniform(bell, ("x", "h")))


_PARAMETRIC_CATALOG = ("x", "h", "rx", "cp", "ccx", "u")


def test_order_uniform_matches_cursor_reference():
    rng = np.random.default_rng(4)
    randoms = [random_circuit(rng, int(rng.integers(1, 5)), int(rng.integers(0, 8))) for _ in range(120)]
    for c in [*standard_catalog().values(), *randoms]:
        for catalog in (DEFAULT_PATCH_CATALOG, _PARAMETRIC_CATALOG, ("cx",), ("rz", "x", "swap")):
            pool = generate_patches(c, catalog)
            want = cursor_order_uniform(pool, c)
            assert eager_order_uniform(pool, c) == want
            q = order_uniform(c, catalog)
            assert len(q) == len(want)
            assert list(q) == want
            # a random number of pops, then two prunes to different random
            # gate sets with pops in between: the reference order filtered
            for _ in range(3):
                n = int(rng.integers(0, len(want) + 1))
                assert [q.popleft() for _ in range(n)] == want[:n]
                want = want[n:]
                keep = {gate_id(i, g) for i, g in enumerate(c.gates) if rng.random() < 0.6}
                before = len(q)
                pruned = prune_to_gates(q, keep)
                assert len(q) == before and list(q) == want  # the pruned queue is left as it was
                q, want = pruned, [p for p in want if p.anchor in keep]
                assert len(q) == len(want)
                assert list(q) == want


_UNITARY_NAMES = [k.gate_name for k in GateKind if k.is_unitary]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 4))
def test_counted_queue_matches_eager_pool(seed, q):
    """The queue counts its slots rather than enumerating their qubit
    choices, and builds each position's anchor once: over random circuits
    and catalogs of every unitary kind (``id``, ``u``, ``cp``, ``crz`` and
    ``ccx`` among them), each slot's count is its patches in the pool, and
    the queue pops the eager pool order, pruned copies included."""
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, q, int(rng.integers(0, 9)))
    catalog = tuple(rng.choice(_UNITARY_NAMES, size=int(rng.integers(1, len(_UNITARY_NAMES) + 1))).tolist())
    pool = generate_patches(c, catalog)
    queue = order_uniform(c, catalog)
    assert {s: n for s, n in queue.counts.items() if n} == Counter((p.position, p.kind) for p in pool)
    want = eager_order_uniform(pool, c)
    assert len(queue) == len(want) and list(queue) == want
    keep = {gate_id(i, g) for i, g in enumerate(c.gates) if rng.random() < 0.5}
    pruned = prune_to_gates(queue, keep)
    assert pruned.anchors is queue.anchors
    assert [pruned.popleft() for _ in range(len(pruned))] == [p for p in want if p.anchor in keep]


# ------------------------------------------------------------------- queue

def test_prune_keeps_only_anchored(bell):
    queue = order_uniform(bell)
    keep = {gate_id(0, bell.gates[0])}
    pruned = prune_to_gates(queue, keep)
    assert len(pruned) > 0
    assert all(p.anchor in keep for p in pruned)
    order = [p for p in queue if p.anchor in keep]
    assert list(pruned) == order  # relative order preserved


def test_pruned_queues_pop_independently(bell):
    queue = order_uniform(bell)
    queue.popleft()
    rest = list(queue)
    pruned = prune_to_gates(queue, {gate_id(i, g) for i, g in enumerate(bell.gates)})  # every anchor kept
    assert pruned.popleft() == rest[0]
    assert list(queue) == rest and len(queue) == len(rest)


# ------------------------------------------------------------ apply/revert

def test_apply_revert_exhaustive_over_pool(bell):
    pool = generate_patches(bell)
    for p in pool:
        params = (0.3,) * p.gate.param_count if p.is_parametric else None
        edited = apply_patch(bell, p, params)
        assert len(edited.gates) == len(bell.gates) + (1 if p.kind == "add" else 0)
        restored = revert_patch(edited, p, bell)
        assert restored.gates == bell.gates


def test_apply_parametric_requires_params():
    c = build_circuit(1, [("h", 0)])
    p = Patch("add", 0, GateKind.RX, (0,))
    assert p.is_parametric
    with pytest.raises(Exception):
        apply_patch(c, p)  # no angles anywhere
    out = apply_patch(c, p, (math.pi,))
    assert out.gates[0].params == (math.pi,)


def test_apply_rejects_unknown_kind(bell):
    p = Patch("swap_out", 0, GateKind.X, (0,))
    with pytest.raises(ValueError):
        apply_patch(bell, p)
    with pytest.raises(ValueError):
        revert_patch(bell, p, bell)


# ---------------------------------------------------------- fault injection

def test_inject_faults_deterministic(bell):
    a = inject_faults(bell, seed=5, per_group=2)
    b = inject_faults(bell, seed=5, per_group=2)
    assert [r.description for r in a] == [r.description for r in b]
    assert [r.mutant.gates for r in a] == [r.mutant.gates for r in b]


def test_inject_faults_seed_changes_sample(bell):
    a = inject_faults(bell, seed=0, per_group=3)
    b = inject_faults(bell, seed=1, per_group=3)
    assert [r.description for r in a] != [r.description for r in b]


def test_inject_faults_groups_and_nonequivalence(bell):
    ts = generate_suite(bell)
    records = inject_faults(bell, seed=7, per_group=2)
    assert [r.group for r in records] == ["add", "add", "remove", "remove", "replace", "replace"]
    for r in records:
        assert r.failed_count >= 1
        score = fitness(r.mutant, ts)
        assert score.failed_count == r.failed_count
        assert score.value == pytest.approx(r.fitness_value)
        assert r.fault_gate is not None
        # the recorded fault identity exists in the mutant
        assert any(gate_id(i, g) == r.fault_gate for i, g in enumerate(r.mutant.gates))


def test_inject_faults_mutation_catalog_is_fixed_gates_only():
    for name in DEFAULT_MUTATION_CATALOG:
        assert name in DEFAULT_PATCH_CATALOG
    records = inject_faults(build_circuit(2, [("h", 0), ("cx", (0, 1))]), seed=3, per_group=4)
    for r in records:
        if r.group == "add":
            g = r.mutant.gates[r.fault_gate.position]
            assert g.kind.gate_name in DEFAULT_MUTATION_CATALOG


def test_inject_faults_remove_points_at_neighbour():
    c = build_circuit(1, [("h", 0), ("t", 0)])
    recs = [r for r in inject_faults(c, seed=0, per_group=4) if r.group == "remove"]
    for r in recs:
        assert r.fault_gate is not None
        assert 0 <= r.fault_gate.position < len(r.mutant.gates)


def test_inject_faults_skips_equivalent_mutants():
    # a lone H: swapping it for another H-like sequence may pass; whatever is
    # returned must genuinely fail the suite
    c = build_circuit(1, [("h", 0)])
    for r in inject_faults(c, seed=2, per_group=5):
        assert r.failed_count >= 1


def test_inject_faults_zero_per_group(bell):
    assert inject_faults(bell, seed=0, per_group=0) == []


def test_inject_faults_all_equivalent_raises():
    # reference with no gates: "remove" has no candidates, "add" candidates all
    # differ; use a 1-qubit empty circuit where adds exist and all fail -> ok.
    # To hit the error we need candidates that all pass: add-only group with a
    # catalog whose sole gate is a no-op on the all-basis suite doesn't exist,
    # so assert the empty-candidate path instead: no gates, remove group only.
    c = build_circuit(1, [])
    assert inject_faults(c, seed=0, per_group=2, groups=("remove",)) == []


def test_inject_faults_equivalent_only_pool_raises():
    # z on |0> is invisible in the Z basis but not in X/Y, so build a true
    # equivalent-only pool: replace rz(theta) by rz(theta') on a diagonal
    # circuit measured... simpler: global-phase-only mutants. t -> s on |0>
    # changes nothing measured anywhere? s|0>=|0>, t|0>=|0>: both invisible.
    ref = build_circuit(1, [("t", 0)])
    with pytest.raises(NoNonEquivalentMutantError):
        inject_faults(ref, seed=0, per_group=1, catalog=("s", "t"), groups=("remove",))


# ------------------------------------- injector against the eager reference

# the corpus of perfbench/workloads.py (CORPUS) and its injection seeds
_CORPUS = [("ghz", 3, 2), ("dj", 4, 1), ("graphstate", 4, 4), ("wstate", 4, 0), ("qft", 4, 5), ("grover", 3, 3)]


def _outcome(fn, *args, **kwargs):
    """Comparable result: every field of every record, or the error raised."""
    try:
        records = fn(*args, **kwargs)
    except NoNonEquivalentMutantError as e:
        return ("raises", str(e))
    return [
        (r.mutant, r.group, r.description, r.fault_gate, r.fitness_value, r.failed_count)
        for r in records
    ]


def _scored_outcome(fn, *args, **kwargs):
    """``fn``'s outcome, how many candidates it scored (the eager reference's
    ``fitness`` calls, or the edits the injector hands to ``edit_fitness``),
    and the number of edits in each of the injector's calls."""
    scored, calls = [], []
    real_fitness, real_edit_fitness = testkit.fitness, patcher.edit_fitness

    def fitness(*a, **k):
        scored.append(a[0])
        return real_fitness(*a, **k)

    def edit_fitness(c, ts, edits, *a, **k):
        edits = list(edits)
        scored.extend(edits)
        calls.append(len(edits))
        return real_edit_fitness(c, ts, edits, *a, **k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(testkit, "fitness", fitness)
        mp.setattr(patcher, "edit_fitness", edit_fitness)
        return _outcome(fn, *args, **kwargs), len(scored), calls


def _assert_injectors_agree(ref, seed, catalog, per_groups=(1, 3), suite=None, **kwargs) -> list:
    """Equal outcomes, and as many candidates scored by the injector as by
    the eager reference; per ``per_group``, the outcome and the edits in
    each of the injector's scoring calls."""
    suite = generate_suite(ref) if suite is None else suite
    outcomes = []
    for per_group in per_groups:
        args = (ref, seed, per_group, catalog)
        want, want_scored, _ = _scored_outcome(eager_inject_faults, *args, suite=suite, **kwargs)
        got, got_scored, calls = _scored_outcome(inject_faults, *args, suite=suite, **kwargs)
        assert got == want, (seed, per_group, catalog, kwargs)
        assert got_scored == want_scored, (seed, per_group, catalog, kwargs)
        outcomes.append((got, calls))
    return outcomes


@pytest.mark.parametrize("catalog", [DEFAULT_MUTATION_CATALOG, _PARAMETRIC_CATALOG])
@pytest.mark.parametrize("family,n,seed", _CORPUS)
def test_inject_faults_matches_eager_reference_on_corpus(family, n, seed, catalog):
    _assert_injectors_agree(build_benchmark(family, n), seed, catalog)


@pytest.mark.parametrize("catalog", [DEFAULT_MUTATION_CATALOG, _PARAMETRIC_CATALOG])
@pytest.mark.parametrize("kind", ["z", "sparse"])
@pytest.mark.parametrize("family,n,seed", _CORPUS)
def test_inject_faults_matches_eager_reference_on_partial_suites(family, n, seed, kind, catalog):
    """Against the Z-basis table perfbench's cli-expected workload writes, or
    a seeded sparse subset of the cases, many candidates pass the suite, so
    a group that drew an equivalent one draws again in a later round."""
    ref = build_benchmark(family, n)
    suite = random_suite(ref, kind, np.random.default_rng(seed))
    _assert_injectors_agree(ref, seed, catalog, per_groups=(1, 2, 3), suite=suite)


def test_inject_faults_scores_a_round_in_one_call():
    """Under qft4's Z-basis table the first round's draw of each of the
    three groups is scored in one call, and the groups that drew an
    equivalent candidate draw again in later rounds."""
    ref = build_benchmark("qft", 4)
    suite = random_suite(ref, "z", np.random.default_rng(0))
    [(records, calls)] = _assert_injectors_agree(ref, 5, DEFAULT_MUTATION_CATALOG, per_groups=(1,), suite=suite)
    assert len(records) == 3
    assert calls[0] == 3 and len(calls) > 1


@pytest.mark.parametrize("catalog", [DEFAULT_MUTATION_CATALOG, _PARAMETRIC_CATALOG])
@pytest.mark.parametrize("name", sorted(standard_catalog()))
def test_inject_faults_matches_eager_reference_on_standard_catalog(name, catalog):
    ref = standard_catalog()[name]
    _assert_injectors_agree(ref, 0, catalog, per_groups=(3,))
    _assert_injectors_agree(ref, 7, catalog, per_groups=(1, 2), groups=("remove",))


@pytest.mark.parametrize(
    "ops,catalog,groups,raises",
    [
        ([("t", 0)], ("s", "t"), ("remove",), True),  # removing t is invisible
        ([("id", 0)], ("id",), ("add", "remove"), True),  # every edit is an identity
        ([("h", 0), ("id", 0)], ("id",), ("add",), True),
        ([("h", 0), ("id", 0)], ("id",), ("add", "replace"), False),  # no-op replaces excluded
        ([("rx", 0, (math.pi / 2,))], ("rx",), ("replace",), False),  # rx(pi/2) -> itself excluded
        ([], ("x",), ("remove", "replace"), False),  # no candidates at all
        ([("h", 0), ("h", 0)], ("x", "z"), ("add", "add"), False),  # repeated group: all seen
        # equal neighbours: an add of their copy or a removal repeats the one before it
        ([("h", 0), ("rz", 0, (math.pi / 4,)), ("rz", 0, (math.pi / 4,)), ("h", 0)], ("rz",), ("add", "replace"),
         False),
        ([("h", 0), ("cx", (0, 1)), ("cx", (0, 1))], ("x",), ("remove",), False),
        ([("h", 0), ("t", 0)], ("x",), ("remove", "remove"), False),
        ([("h", 0), ("h", 0)], ("x", "h", "x", "cx"), ("add", "replace"), False),  # duplicate and too wide
    ],
)
def test_inject_faults_matches_eager_reference_on_edge_cases(ops, catalog, groups, raises):
    width = max((max(op[1]) if isinstance(op[1], tuple) else op[1] for op in ops), default=0) + 1
    ref = build_circuit(width, ops)
    for seed in range(3):
        outcomes = _assert_injectors_agree(ref, seed, catalog, groups=groups)
        assert all(isinstance(o, tuple) == raises for o, _ in outcomes)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([DEFAULT_MUTATION_CATALOG, ("rz", "cx"), ("x", "rx", "u", "cp")]))
def test_inject_faults_matches_eager_reference_on_repeated_gates(seed, catalog):
    """A random circuit with one gate doubled in place, its angles on the
    injector's grid or not, exercises every per-slot repeat rule."""
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, int(rng.integers(1, 4)), int(rng.integers(1, 6)))
    gates = list(c.gates)
    i = int(rng.integers(len(gates)))
    g = gates[i]
    if g.params and rng.integers(2):
        g = GateApp(g.kind, g.qubits, (float(rng.choice(_MUTANT_ANGLES)),) * len(g.params))
    gates[i : i + 1] = [g, g]
    ref = replace(c, gates=tuple(gates))
    _assert_injectors_agree(ref, int(rng.integers(8)), catalog, per_groups=(2,))


def test_inject_faults_takes_any_per_group(bell):
    """A negative ``per_group`` draws nothing, and one past ``sys.maxsize``
    draws every candidate, as the one-at-a-time draw does."""
    _assert_injectors_agree(bell, 0, DEFAULT_MUTATION_CATALOG, per_groups=(-1, 2**63))


def test_inject_faults_rejects_unknown_group_and_non_unitary_catalog(bell, monkeypatch):
    judged = []
    monkeypatch.setattr("qrep.patcher.edit_fitness", lambda *a, **k: judged.append(a))
    with pytest.raises(ValueError, match="unknown mutation group 'swap'"):
        inject_faults(bell, seed=0, per_group=1, groups=("add", "swap"))
    assert judged == []
    with pytest.raises(ValueError, match="measure cannot be a patch gate"):
        inject_faults(bell, seed=0, per_group=1, catalog=("x", "measure"), groups=("remove",))
    assert judged == []
