"""Candidate-patch enumeration, uniform ordering, and mutant injection.

A patch is a single add-or-replace gate edit, linked to an anchor gate of
the original circuit so the repair loop can prune by suspiciousness: a
replace anchors to the gate it replaces, an add to the gate it is inserted
before (the last gate when appending). Parametric patches carry no angles;
the optimizer fills them in at evaluation time.

The mutant injector reuses the same edit space (plus removals) to make
benchmark faults: it enumerates one group per mutation operator, drops
mutants the reference suite cannot distinguish, and samples per group.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

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
    if not patches:
        return deque()
    kind_names = sorted({p.gate.gate_name for p in patches}, key=_CATALOG_ORDER.__getitem__)
    n_kinds = len(kind_names)

    # (position, patch kind) -> gate kind -> fifo of patches in pool order
    buckets: dict[tuple[int, str], dict[str, list[Patch]]] = {}
    for p in patches:
        slot = buckets.setdefault((p.position, p.kind), {k: [] for k in kind_names})
        slot[p.gate.gate_name].append(p)
    for slot in buckets.values():
        for fifo in slot.values():
            fifo.reverse()  # pop() from the tail = original order

    max_pos = len(c.gates)
    cursors = {key: key[0] % n_kinds for key in buckets}

    def take(pos: int, typ: str) -> Patch | None:
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

    ordered: list[Patch] = []
    want = "add"
    while len(ordered) < len(patches):
        progressed = False
        for pos in range(max_pos + 1):
            for typ in (want, "replace" if want == "add" else "add"):
                p = take(pos, typ)
                if p is not None:
                    ordered.append(p)
                    want = "replace" if typ == "add" else "add"
                    progressed = True
                    break
        if not progressed:
            break
    return deque(ordered)


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


def _structural_key(c: Circuit) -> tuple:
    return tuple(
        (g.kind.gate_name, g.qubits, tuple(round(p / 1e-9) for p in g.params)) for g in c.gates
    )


def _mutant_gate_apps(kind: GateKind) -> list[tuple[tuple[float, ...], str]]:
    if kind.param_count == 0:
        return [((), "")]
    out = []
    for angle in _MUTANT_ANGLES:
        params = (angle,) * kind.param_count
        out.append((params, f"({','.join(f'{a:.6g}' for a in params)})"))
    return out


def _enumerate_group(
    c: Circuit, group: str, kinds: list[GateKind]
) -> list[tuple[Circuit, str, int]]:
    """(mutant, description, fault position in mutant coordinates) tuples."""
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
                        desc = f"add {kind.gate_name}{ptxt} {qs} @{pos}"
                        out.append((m, desc, pos))
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

    Candidates are shuffled per group and evaluated lazily, which draws a
    uniform without-replacement sample from the non-equivalent subset
    without paying for fitness on the whole enumeration.
    """
    if suite is None:
        suite = generate_suite(c)
    kinds = [GATE_BY_NAME[name] for name in catalog if GATE_BY_NAME[name].num_qubits <= c.num_qubits]

    records: list[MutantRecord] = []
    seen: set[tuple] = {_structural_key(c)}
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
        order = rng.permutation(len(candidates))
        found = 0
        for idx in order:
            if found >= per_group:
                break
            m, desc, fault_pos = candidates[idx]
            score = fitness(m, suite)
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
