"""Candidate-patch enumeration, uniform ordering, and mutant injection.

A patch is a single add-or-replace gate edit, linked to an anchor gate of
the original circuit so the repair loop can prune by suspiciousness: a
replace anchors to the gate it replaces, an add to the gate it is inserted
before (the last gate when appending). Parametric patches carry no angles;
the optimizer fills them in at evaluation time.

The mutant injector draws benchmark faults from the same edit space (plus
removals), one group per mutation operator: it samples each group in a
seeded order, builds a mutant only when drawn, and skips mutants the
reference suite cannot distinguish.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .circuit import GATE_BY_NAME, Circuit, GateApp, GateKind, insert_gate, remove_gate, replace_gate
from .errors import NoNonEquivalentMutantError
from .localizer import GateId, gate_id
from .testkit import TestSuite, fitness, generate_suite

DEFAULT_PATCH_CATALOG = ("x", "y", "z", "h", "s", "t", "rx", "ry", "rz", "cx", "cz", "swap")
DEFAULT_MUTATION_CATALOG = ("x", "y", "z", "h", "s", "t", "cx", "cz", "swap")

# fixed angle grid for parametric kinds in the *mutation* catalog; candidate
# patches never fix angles up front
_MUTANT_ANGLES = (math.pi / 4, math.pi / 2, math.pi)

_CATALOG_ORDER = {k.gate_name: i for i, k in enumerate(GateKind)}
_OTHER_KIND = {"add": "replace", "replace": "add"}


@dataclass(frozen=True)
class Patch:
    kind: str  # "add" | "replace"
    position: int
    gate: GateKind
    qubits: tuple[int, ...]
    params: tuple[float, ...] | None = None  # None = to be optimized
    anchor: GateId | None = None

    @property
    def is_parametric(self) -> bool:
        return self.gate.param_count > 0 and self.params is None


def apply_patch(c: Circuit, p: Patch, params: tuple[float, ...] | None = None) -> Circuit:
    """Edited copy of ``c``; ``params`` must be given for parametric patches."""
    angles = params if params is not None else (p.params or ())
    g = GateApp(p.gate, p.qubits, tuple(angles), position=p.position)
    if p.kind == "add":
        return insert_gate(c, p.position, g)
    if p.kind == "replace":
        return replace_gate(c, p.position, g)
    raise ValueError(f"unknown patch kind {p.kind!r}")


def revert_patch(edited: Circuit, p: Patch, original: Circuit) -> Circuit:
    """Undo ``p`` on its edited result, restoring ``original`` exactly."""
    if p.kind == "add":
        return remove_gate(edited, p.position)
    if p.kind == "replace":
        g = original.gates[p.position]
        return replace_gate(edited, p.position, g)
    raise ValueError(f"unknown patch kind {p.kind!r}")


def _qubit_choices(kind: GateKind, num_qubits: int) -> list[tuple[int, ...]]:
    if kind.num_qubits == 1:
        return [(q,) for q in range(num_qubits)]
    if kind.num_qubits == 2:
        return [(a, b) for a in range(num_qubits) for b in range(num_qubits) if a != b]
    return [
        (a, b, c)
        for a in range(num_qubits)
        for b in range(num_qubits)
        for c in range(num_qubits)
        if len({a, b, c}) == 3
    ]


def _anchor_for_add(c: Circuit, pos: int) -> GateId | None:
    if not c.gates:
        return None
    return gate_id(c.gates[pos]) if pos < len(c.gates) else gate_id(c.gates[-1])


def generate_patches(c: Circuit, catalog: tuple[str, ...] = DEFAULT_PATCH_CATALOG) -> list[Patch]:
    """Unordered pool: every add at every insertion point and every replace
    at every gate position, over the catalog, excluding no-op replaces."""
    kinds = [GATE_BY_NAME[name] for name in catalog]
    for k in kinds:
        if not k.is_unitary:
            raise ValueError(f"{k.gate_name} cannot be a patch gate")
    kinds = [k for k in kinds if k.num_qubits <= c.num_qubits]
    pool: list[Patch] = []
    for pos in range(len(c.gates) + 1):
        anchor = _anchor_for_add(c, pos)
        for kind in kinds:
            for qs in _qubit_choices(kind, c.num_qubits):
                pool.append(Patch("add", pos, kind, qs, None, anchor))
    for pos, g in enumerate(c.gates):
        anchor = gate_id(g)
        for kind in kinds:
            for qs in _qubit_choices(kind, c.num_qubits):
                if kind is g.kind and qs == g.qubits and kind.param_count == 0:
                    continue  # identical fixed gate: no-op replace
                pool.append(Patch("replace", pos, kind, qs, None, anchor))
    return pool


def order_uniform(patches: list[Patch], c: Circuit) -> deque[Patch]:
    """Deterministic uniform ordering, as a queue consumed front to back:
    round-robin over circuit positions, alternating add/replace, rotating
    gate kinds at each position."""
    kind_names = sorted({p.gate.gate_name for p in patches}, key=_CATALOG_ORDER.__getitem__)
    # (position, patch kind) -> gate kind -> fifo of patches in pool order
    fifos: dict[tuple[int, str], dict[str, list[Patch]]] = {}
    for p in patches:
        fifos.setdefault((p.position, p.kind), {}).setdefault(p.gate.gate_name, []).append(p)
    # each slot round-robins its gate kinds, starting at kind (position mod #kinds)
    slots: dict[tuple[int, str], deque[Patch]] = {}
    for (pos, typ), by_kind in fifos.items():
        start = pos % len(kind_names)
        rotated = [by_kind.get(name, ()) for name in kind_names[start:] + kind_names[:start]]
        slots[(pos, typ)] = deque(p for row in zip_longest(*rotated) for p in row if p is not None)

    ordered: deque[Patch] = deque()
    want = "add"
    progressed = True
    while progressed:
        progressed = False
        for pos in range(len(c.gates) + 1):
            for typ in (want, _OTHER_KIND[want]):
                if slot := slots.get((pos, typ)):
                    ordered.append(slot.popleft())
                    want, progressed = _OTHER_KIND[typ], True
                    break
    return ordered


def prune_to_gates(q: deque[Patch], keep: set[GateId]) -> deque[Patch]:
    """Retain only patches whose anchor is in ``keep``, preserving order."""
    return deque(p for p in q if p.anchor in keep)


@dataclass(frozen=True)
class MutantRecord:
    mutant: Circuit
    group: str  # "add" | "remove" | "replace"
    description: str
    fault_gate: GateId | None  # identity in mutant coordinates
    fitness_value: float
    failed_count: int


def _gate_key(kind: GateKind, qubits: tuple[int, ...], params: tuple[float, ...]) -> tuple:
    return (kind.gate_name, qubits, tuple(round(p / 1e-9) for p in params))


def _mutant_angles(kind: GateKind) -> list[tuple[float, ...]]:
    return [(a,) * kind.param_count for a in _MUTANT_ANGLES] if kind.param_count else [()]


# one mutation: (position, patch or None for a removal, the patch's angles)
_Edit = tuple[int, Patch | None, tuple[float, ...]]


def _group_edits(c: Circuit, group: str, pool: list[Patch]) -> list[_Edit]:
    if group == "remove":
        return [(pos, None, ()) for pos in range(len(c.gates))]
    if group not in ("add", "replace"):
        raise ValueError(f"unknown mutation group {group!r}")
    return [(p.position, p, angles) for p in pool if p.kind == group for angles in _mutant_angles(p.gate)]


def _edit_key(ref_key: tuple, edit: _Edit) -> tuple:
    """Gate-sequence key of the mutant ``edit`` makes, without building it."""
    pos, patch, angles = edit
    if patch is None:
        return ref_key[:pos] + ref_key[pos + 1 :]
    tail = pos + 1 if patch.kind == "replace" else pos
    return ref_key[:pos] + (_gate_key(patch.gate, patch.qubits, angles),) + ref_key[tail:]


def _build_mutant(c: Circuit, edit: _Edit) -> tuple[Circuit, str, int]:
    """(mutant, description, fault position in mutant coordinates)."""
    pos, patch, angles = edit
    if patch is None:
        m = remove_gate(c, pos)
        return m, f"remove {c.gates[pos].kind.gate_name} @{pos}", min(pos, len(m.gates) - 1)
    ptxt = f"({','.join(f'{a:.6g}' for a in angles)})" if angles else ""
    gate = f"{patch.gate.gate_name}{ptxt} {patch.qubits}"
    if patch.kind == "add":
        desc = f"add {gate} @{pos}"
    else:
        desc = f"replace {c.gates[pos].kind.gate_name} @{pos} -> {gate}"
    return apply_patch(c, patch, angles), desc, pos


def inject_faults(
    c: Circuit,
    seed: int,
    per_group: int,
    catalog: tuple[str, ...] = DEFAULT_MUTATION_CATALOG,
    groups: tuple[str, ...] = ("add", "remove", "replace"),
    suite: TestSuite | None = None,
) -> list[MutantRecord]:
    """Seeded mutant corpus: up to ``per_group`` non-equivalent mutants per
    operator group, judged against the reference's own suite.

    The add and replace groups are the repair edit space of
    :func:`generate_patches` over ``catalog``, parametric kinds expanded over
    a fixed angle grid; the remove group drops each gate once. Edits that
    give the reference or an earlier candidate's gate sequence are dropped,
    judged on a key computed from the edit alone. Each group is shuffled by
    the seed, and a mutant is built and evaluated only when the shuffle
    reaches it, which draws a uniform without-replacement sample from the
    non-equivalent subset without paying for the whole enumeration.
    """
    if suite is None:
        suite = generate_suite(c)
    pool = generate_patches(c, catalog)
    prefixes = suite.prefixes(c)
    ref_key = tuple(_gate_key(g.kind, g.qubits, g.params) for g in c.gates)

    records: list[MutantRecord] = []
    seen: set[tuple] = {ref_key}  # a replace by an identical gate gives the reference back
    any_candidates = False
    for gi, group in enumerate(groups):
        candidates = []
        for edit in _group_edits(c, group, pool):
            key = _edit_key(ref_key, edit)
            if key not in seen:
                seen.add(key)
                candidates.append(edit)
        any_candidates = any_candidates or bool(candidates)
        rng = np.random.default_rng([seed & (2**63 - 1), gi])
        found = 0
        for idx in rng.permutation(len(candidates)):
            if found >= per_group:
                break
            m, desc, fault_pos = _build_mutant(c, candidates[idx])
            score = fitness(m, suite, prefixes=prefixes)
            if score.failed_count == 0:
                continue  # equivalent under the suite
            fault = gate_id(m.gates[fault_pos]) if m.gates else None
            records.append(
                MutantRecord(
                    mutant=m,
                    group=group,
                    description=desc,
                    fault_gate=fault,
                    fitness_value=score.value,
                    failed_count=score.failed_count,
                )
            )
            found += 1
    if per_group > 0 and any_candidates and not records:
        raise NoNonEquivalentMutantError("every candidate mutant passes the reference suite")
    return records
