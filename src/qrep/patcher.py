"""Candidate-patch enumeration, the uniform patch queue, and mutant injection.

A patch is a single add-or-replace gate edit, linked to an anchor gate of
the original circuit so the repair loop can prune by suspiciousness: a
replace anchors to the gate it replaces, an add to the gate it is inserted
before (the last gate when appending). Parametric patches carry no angles;
the optimizer fills them in at evaluation time.

The repair loop pops the edit space from a lazy queue in uniform order,
building each patch only when popped: a round-robin over positions takes
the next patch of the wanted slot (add or replace), else of the other, and
then wants the other kind; each slot rotates its gate kinds, starting at
kind (position mod #kinds). A slot's patches share one anchor, so pruning
drops whole slots, which keep taking their turns: a pruned queue is the
original order filtered.

The mutant injector draws benchmark faults from the same edit space (plus
removals), one group per mutation operator. It enumerates nothing: an edit
that gives the same gate sequence as an earlier one is recognised from its
neighbouring gates (an add or removal next to an equal gate, a replace by
the gate already there), so each slot loses at most one edit and a group is
a list of per-slot counts: one closed-form total per group (every kind's
qubit choices times its angles) less that edit. The injector maps the
indices of a seeded permutation of each group to (slot, edit) and skips the
edits the reference suite cannot distinguish. It draws in rounds, each group
as many edits as it still lacks mutants, and scores a round's draws of all
groups as one stream of edits, so they share stacked simulations.
"""
from __future__ import annotations

import copy
import math
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, islice, permutations, repeat, zip_longest

import numpy as np

from .circuit import GATE_BY_NAME, Circuit, GateApp, GateKind, insert_gate, remove_gate, replace_gate
from .errors import NoNonEquivalentMutantError
from .localizer import GateId, gate_id
from .testkit import TestSuite, edit_fitness, generate_suite

DEFAULT_PATCH_CATALOG = ("x", "y", "z", "h", "s", "t", "rx", "ry", "rz", "cx", "cz", "swap")
DEFAULT_MUTATION_CATALOG = ("x", "y", "z", "h", "s", "t", "cx", "cz", "swap")

# fixed angle grid for parametric kinds in the *mutation* catalog; candidate
# patches never fix angles up front
_MUTANT_ANGLES = (math.pi / 4, math.pi / 2, math.pi)

_OTHER_KIND = {"add": "replace", "replace": "add"}


@dataclass(frozen=True)
class Patch:
    kind: str  # "add" | "replace"
    position: int
    gate: GateKind
    qubits: tuple[int, ...]
    anchor: GateId | None = None

    @property
    def is_parametric(self) -> bool:
        return self.gate.param_count > 0


def apply_patch(c: Circuit, p: Patch, params: tuple[float, ...] | None = None) -> Circuit:
    """Edited copy of ``c``; ``params`` must be given for parametric patches."""
    g = GateApp(p.gate, p.qubits, tuple(params) if params is not None else ())
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


@cache
def _qubit_choices(kind: GateKind, num_qubits: int) -> tuple[tuple[int, ...], ...]:
    return tuple(permutations(range(num_qubits), kind.num_qubits))


def _anchor(c: Circuit, pos: int) -> GateId | None:
    if pos == len(c.gates):  # an append anchors to the last gate
        pos -= 1
    return gate_id(pos, c.gates[pos]) if c.gates else None


def _patch_kinds(c: Circuit, catalog: tuple[str, ...]) -> list[GateKind]:
    """The catalog's gate kinds that fit ``c``, each once, in catalog order."""
    kinds = [GATE_BY_NAME[name] for name in dict.fromkeys(catalog)]
    if bad := [k.gate_name for k in kinds if not k.is_unitary]:
        raise ValueError(f"{bad[0]} cannot be a patch gate")
    return [k for k in kinds if k.num_qubits <= c.num_qubits]


def _slot_qubits(c: Circuit, pos: int, typ: str, kind: GateKind) -> Sequence[tuple[int, ...]]:
    """Qubit choices of ``kind`` in a slot, less the no-op replace of a fixed gate."""
    choices = _qubit_choices(kind, c.num_qubits)
    if typ == "replace" and kind is c.gates[pos].kind and kind.param_count == 0:
        return [qs for qs in choices if qs != c.gates[pos].qubits]
    return choices


def _slots(c: Circuit) -> list[tuple[int, str]]:
    return [(pos, "add") for pos in range(len(c.gates) + 1)] + [(pos, "replace") for pos in range(len(c.gates))]


def generate_patches(c: Circuit, catalog: tuple[str, ...] = DEFAULT_PATCH_CATALOG) -> list[Patch]:
    """Unordered pool: every add at every insertion point and every replace
    at every gate position, over the catalog, excluding no-op replaces."""
    kinds = _patch_kinds(c, catalog)
    pool: list[Patch] = []
    for pos, typ in _slots(c):
        anchor = _anchor(c, pos)
        pool += [Patch(typ, pos, k, qs, anchor) for k in kinds for qs in _slot_qubits(c, pos, typ, k)]
    return pool


class PatchQueue:
    """:func:`generate_patches`' pool in uniform order (module docstring), popped front first."""

    def __init__(self, c: Circuit, catalog: tuple[str, ...]):
        self.c = c
        self.kinds = sorted(_patch_kinds(c, catalog), key=list(GateKind).index)
        # a slot holds every qubit choice of every kind, less the replace of
        # a fixed gate by itself (see _slot_qubits)
        per_slot = sum(len(_qubit_choices(k, c.num_qubits)) for k in self.kinds)
        kinds = set(self.kinds)
        self.counts = {(pos, "add"): per_slot for pos in range(len(c.gates) + 1)}
        for pos, g in enumerate(c.gates):
            self.counts[pos, "replace"] = per_slot - (g.kind in kinds and not g.kind.param_count)
        # the anchor of every position's slots, shared by pruned copies
        self.anchors = [_anchor(c, pos) for pos in range(len(c.gates) + 1)]
        self.left = dict(self.counts)  # patches each slot has not yet given
        self.dropped: frozenset[tuple[int, str]] = frozenset()
        self.size = sum(self.counts.values())
        self.pos, self.want = 0, "add"
        # a slot's order depends only on its rotation and on the fixed gate a
        # replace leaves out, so slots that share both share one list; built
        # on a slot's first pop and shared by pruned copies
        self.orders: dict[tuple, list[tuple[GateKind, tuple[int, ...]]]] = {}

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Patch]:  # the remaining order, not consumed
        rest = self.without(frozenset())
        return (rest.popleft() for _ in range(len(rest)))

    def without(self, dropped: frozenset[tuple[int, str]]) -> PatchQueue:
        """Copy of the queue that also drops the slots in ``dropped``."""
        out = copy.copy(self)
        out.left, out.dropped = dict(self.left), self.dropped | dropped
        out.size = sum(n for s, n in out.left.items() if s not in out.dropped)
        return out

    def _draw(self, slot: tuple[int, str]) -> tuple[GateKind, tuple[int, ...]]:
        pos, typ = slot
        start, g = pos % len(self.kinds), self.c.gates[pos] if typ == "replace" else None
        key = (start,) if g is None or g.kind.param_count else (start, g.kind, g.qubits)
        order = self.orders.get(key)
        if order is None:
            rotated = self.kinds[start:] + self.kinds[:start]
            rows = zip_longest(*(zip(repeat(k), _slot_qubits(self.c, pos, typ, k)) for k in rotated))
            order = self.orders[key] = [kq for row in rows for kq in row if kq is not None]
        return order[self.counts[slot] - self.left[slot]]

    def popleft(self) -> Patch:
        if not self.size:
            raise IndexError("pop from an empty patch queue")
        while True:
            pos, self.pos = self.pos, (self.pos + 1) % (len(self.c.gates) + 1)
            for typ in (self.want, _OTHER_KIND[self.want]):
                slot = (pos, typ)
                if self.left.get(slot):
                    self.want = _OTHER_KIND[typ]
                    kq = None if slot in self.dropped else self._draw(slot)
                    self.left[slot] -= 1
                    if kq is not None:
                        self.size -= 1
                        return Patch(typ, pos, *kq, self.anchors[pos])
                    break


def order_uniform(c: Circuit, catalog: tuple[str, ...] = DEFAULT_PATCH_CATALOG) -> PatchQueue:
    """Queue of every candidate patch of ``c`` over ``catalog``, in uniform order."""
    return PatchQueue(c, catalog)


def prune_to_gates(q: PatchQueue, keep: set[GateId]) -> PatchQueue:
    """New queue holding only the patches whose anchor is in ``keep``, in
    their order in ``q``; ``q`` itself is unchanged."""
    return q.without(frozenset(s for s in q.left if q.anchors[s[0]] not in keep))


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


# one add or replace edit of a slot: (gate kind, qubits, angles)
_Edit = tuple[GateKind, tuple[int, ...], tuple[float, ...]]


def _grid_twin(kinds: list[GateKind], g: GateApp) -> _Edit | None:
    """The catalog edit whose gate has ``g``'s key, if ``kinds`` offer one."""
    if g.kind not in kinds:
        return None
    key = _gate_key(g.kind, g.qubits, g.params)
    twins = (a for a in _mutant_angles(g.kind) if _gate_key(g.kind, g.qubits, a) == key)
    return next(((g.kind, g.qubits, a) for a in twins), None)


def _mutation_slots(c: Circuit, group: str, kinds: list[GateKind]) -> list[tuple[int, int, _Edit | None]]:
    """(position, count of distinct edits, the one edit left out) per slot of ``group``.

    Every add or replace slot offers the same edits, each kind's qubit
    choices over its angle grid, so a slot's count is that total, computed
    once, less the edit that repeats a gate sequence: an add that copies the
    gate before it repeats the add before that gate, and a replace by the
    gate already there gives the reference back. A removal of a gate equal
    to the one before it repeats that removal.
    """
    gates = c.gates
    if group == "remove":
        keys = [_gate_key(g.kind, g.qubits, g.params) for g in gates]
        return [(pos, int(pos == 0 or keys[pos - 1] != keys[pos]), None) for pos in range(len(gates))]
    if group not in ("add", "replace"):
        raise ValueError(f"unknown mutation group {group!r}")
    twins = [_grid_twin(kinds, g) for g in gates]
    if group == "add":
        twins.insert(0, None)
    total = sum(len(_qubit_choices(k, c.num_qubits)) * len(_mutant_angles(k)) for k in kinds)
    return [(pos, total - (twin is not None), twin) for pos, twin in enumerate(twins)]


def _slot_edit(c: Circuit, kinds: list[GateKind], twin: _Edit | None, offset: int) -> _Edit:
    """The ``offset``-th distinct edit of a slot, in pool order."""
    edits = ((k, qs, a) for k in kinds for qs in _qubit_choices(k, c.num_qubits) for a in _mutant_angles(k))
    return next(islice((e for e in edits if e != twin), offset, None))


def _build_mutant(c: Circuit, group: str, pos: int, edit: _Edit | None) -> tuple[Circuit, str, int]:
    """(mutant, description, fault position in mutant coordinates)."""
    if edit is None:
        m = remove_gate(c, pos)
        return m, f"remove {c.gates[pos].kind.gate_name} @{pos}", min(pos, len(m.gates) - 1)
    kind, qubits, angles = edit
    g = GateApp(kind, qubits, angles)
    ptxt = f"({','.join(f'{a:.6g}' for a in angles)})" if angles else ""
    gate = f"{kind.gate_name}{ptxt} {qubits}"
    if group == "add":
        return insert_gate(c, pos, g), f"add {gate} @{pos}", pos
    return replace_gate(c, pos, g), f"replace {c.gates[pos].kind.gate_name} @{pos} -> {gate}", pos


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
    give the reference or an earlier candidate's gate sequence are dropped
    by a per-slot rule on neighbouring gates (see :func:`_mutation_slots`),
    so nothing is enumerated: a group is a list of per-slot counts, all
    built before anything is scored. Each group is shuffled by the seed,
    and a drawn index is mapped to its slot and edit, scored as that edit
    (:func:`edit_fitness`) and built as a mutant only if the suite tells it
    from the reference, which draws a uniform without-replacement sample
    from the non-equivalent subset. The draws go in rounds: in each, every
    group draws as many candidates as it still lacks mutants, which drawing
    one at a time would score too, and the round's draws of all groups are
    scored as one stream of edits, so they share stacked simulations.
    """
    if suite is None:
        suite = generate_suite(c)
    kinds = _patch_kinds(c, catalog)
    # a group listed again repeats only sequences already seen
    slots = [[] if group in groups[:gi] else _mutation_slots(c, group, kinds) for gi, group in enumerate(groups)]
    ends = [list(accumulate(n for _, n, _ in s)) for s in slots]
    sizes = [e[-1] if e else 0 for e in ends]
    draws = [iter(np.random.default_rng([seed & (2**63 - 1), gi]).permutation(n)) for gi, n in enumerate(sizes)]
    found: list[list[MutantRecord]] = [[] for _ in groups]
    prefixes = suite.prefixes(c)
    # each round draws what each group lacks; zip ends at the range's end before drawing from d
    while drawn := [(gi, i) for gi, d in enumerate(draws) for _, i in zip(range(per_group - len(found[gi])), d)]:
        edits = []
        for gi, idx in drawn:
            si = bisect_right(ends[gi], idx)
            pos, n, twin = slots[gi][si]
            edit = None if groups[gi] == "remove" else _slot_edit(c, kinds, twin, idx - ends[gi][si] + n)
            edits.append((gi, pos, edit))
        stream = [(pos, edit and GateApp(*edit), groups[gi] != "add") for gi, pos, edit in edits]
        for (gi, pos, edit), score in zip(edits, edit_fitness(c, suite, stream, prefixes=prefixes)):
            if score.failed_count == 0:
                continue  # equivalent under the suite
            m, desc, fault_pos = _build_mutant(c, groups[gi], pos, edit)
            fault = gate_id(fault_pos, m.gates[fault_pos]) if m.gates else None
            found[gi].append(MutantRecord(m, groups[gi], desc, fault, score.value, score.failed_count))
    records = [r for group_records in found for r in group_records]
    if per_group > 0 and any(sizes) and not records:
        raise NoNonEquivalentMutantError("every candidate mutant passes the reference suite")
    return records
