"""Test-suite generation, the pass/fail oracle, and the fitness function.

A suite holds one test case per (classical input, measurement basis) pair,
3 * 2^q cases total. It stores one expected row per case in one matrix, and
``TestSuite.cases`` is a per-case view built on demand. A case fails when
the observed output contains an outcome the expected distribution rules
out, or when its Hellinger distance from the expected distribution exceeds
the failure threshold. Fitness is the failed-case count plus the Hellinger
distances summed over every case; ``_scores`` is the one implementation,
run over buffers. :func:`fitness` scores a circuit and :func:`edit_fitness`
its single-gate edits, alone or stacked; every simulation of either is one
:func:`~qrep.simulator.run_all_bases` call in ``_observed``, measured into
a rows buffer and scored in temporaries the suite makes once for a chunk
of edits (:meth:`TestSuite.buffers`). The rows are laid out in suite
order, so a suite that holds every (basis, input) pair once reads them as
a reshape, with no gather.
The simulator gives exact probabilities; in sampled mode the oracle first
replaces each case's row by the frequencies of ``shots`` seeded multinomial
draws from it, with ``shots`` checked once, by :class:`OracleConfig`.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .circuit import Circuit, GateApp
from .errors import ExpectedTableError, NoFailingTestError, QRepError, SuiteTooWideError, WidthMismatchError
from .errors import check_integer
from .simulator import BASIS_ORDER, Distribution, MeasBasis, PrefixCache, check_probability_rows, run_all_bases

DEFAULT_TAU_FAIL = 0.1
DEFAULT_EPS_ZERO = 1e-9
MAX_SUITE_QUBITS = 16
# the largest draw count numpy's multinomial takes (a C long)
MAX_SHOTS = 2**63 - 1


@dataclass(frozen=True)
class TestCase:
    id: str
    input_state: int
    basis: MeasBasis
    expected: Distribution


class TestSuite:
    """Case ``i`` measures input ``input_states[i]`` in basis
    ``BASIS_ORDER[basis_index[i]]`` and expects row ``i`` of ``expected``.
    An evaluation is one kernel call plus array operations on what is
    derived here once: the sorted simulated inputs, the measured bases in
    BASIS_ORDER, each case's (basis, input) index into the kernel's output,
    the expected rows with their square roots, and the outcomes the rows
    rule out (see :meth:`ruled_out`).
    """

    def __init__(self, num_qubits: int, basis_index: np.ndarray, input_states: np.ndarray, expected):
        self.num_qubits = num_qubits
        self._basis_index = basis_index
        self._input_states = input_states
        expected.setflags(write=False)
        self.expected = expected
        self.sqrt_expected = np.sqrt(expected)
        used = np.flatnonzero(np.bincount(basis_index, minlength=len(BASIS_ORDER)))
        self.bases = tuple(BASIS_ORDER[b] for b in used)
        inputs = np.flatnonzero(np.bincount(input_states))
        self.inputs = tuple(inputs.tolist())
        self.case_rows = (np.searchsorted(used, basis_index), np.searchsorted(inputs, input_states))
        self._ruled_out: tuple[float, np.ndarray] | None = None
        self._held: tuple[np.ndarray, tuple[np.ndarray, ...]] | None = None
        self._views: dict[int, tuple[np.ndarray, tuple[np.ndarray, ...]]] = {}

    def buffers(self, blocks: int, room: int = 0) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """(rows, scratch) of exactly ``blocks`` blocks: the ``[block,
        input, basis, outcome]`` buffer their rows are measured into (see
        :func:`_observed`), and the temporaries :func:`_scores` judges them
        in, views of arrays made once with room for ``room`` blocks (a
        chunk of edits), and again only for more. The scores' square roots
        are taken in the rows buffer, whose rows are spent by then."""
        views = self._views.get(blocks)
        if views is None:
            if self._held is None or len(self._held[0]) < blocks:
                size, (cases, width) = max(blocks, room), self.expected.shape
                rows = np.empty((size, len(self.inputs), len(self.bases), width))
                diff = rows.reshape(size, -1)[:, : cases * width].reshape(size, cases, width)
                self._held, self._views = (rows, _scratch(size, self.expected.shape, diff)), {}
            rows, scratch = self._held
            views = self._views[blocks] = rows[:blocks], tuple(a[:blocks] for a in scratch)
        return views

    def ruled_out(self, eps_zero: float) -> np.ndarray:
        """The read-only mask ``expected <= eps_zero``: the outcomes each
        case rules out. The last ``eps_zero``'s mask is kept, so a run
        builds it once."""
        cached = self._ruled_out
        if cached is None or cached[0] != eps_zero:
            mask = self.expected <= eps_zero
            mask.setflags(write=False)
            cached = self._ruled_out = (eps_zero, mask)
        return cached[1]

    @cached_property
    def cases(self) -> tuple[TestCase, ...]:
        """One :class:`TestCase` per row, in suite order, for tests and
        tools; no evaluation reads it."""
        q = self.num_qubits
        return tuple(
            TestCase(case_id(BASIS_ORDER[b], s, q), s, BASIS_ORDER[b], Distribution(q, row))
            for b, s, row in zip(self._basis_index.tolist(), self._input_states.tolist(), self.expected)
        )

    def __len__(self) -> int:
        return len(self.expected)

    def prefixes(self, c: Circuit) -> PrefixCache:
        """Prefix states of ``c`` over the suite's inputs, for evaluating
        ``c`` and its single-gate edits (:func:`edit_fitness`)."""
        _require_width(c, self)
        return PrefixCache(c, self.inputs)


def _require_width(c: Circuit, ts: TestSuite) -> None:
    if c.num_qubits != ts.num_qubits:
        raise WidthMismatchError(f"circuit has {c.num_qubits} qubits, suite has {ts.num_qubits}")


@dataclass(frozen=True)
class FitnessScore:
    failed_count: int
    hellinger_sum: float

    @property
    def value(self) -> float:
        return self.failed_count + self.hellinger_sum

    def all_passed(self) -> bool:
        return self.failed_count == 0


@dataclass(frozen=True)
class OracleConfig:
    """Evaluation policy: exact probabilities by default, sampling opt-in.

    ``shots=None`` resolves to 2^q * 2 draws per case, and ``tau_fail=None``
    to 0.1 in exact mode and 0.1 + 2/sqrt(shots) in sampled mode (widened
    to absorb shot noise).
    """

    mode: str = "exact"  # "exact" | "sampled"
    tau_fail: float | None = None
    eps_zero: float = DEFAULT_EPS_ZERO
    shots: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exact", "sampled"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.tau_fail is not None and not 0 < self.tau_fail < math.inf:
            raise ValueError(f"tau_fail must be finite and > 0, got {self.tau_fail}")
        if not 0 < self.eps_zero < math.inf:
            raise ValueError(f"eps_zero must be finite and > 0, got {self.eps_zero}")
        if self.shots is not None:
            check_integer("shots", self.shots)
            if not 1 <= self.shots <= MAX_SHOTS:
                raise ValueError(f"shots must be in 1..{MAX_SHOTS}, got {self.shots}")
        check_integer("seed", self.seed)

    def resolve_shots(self, num_qubits: int) -> int:
        return self.shots if self.shots is not None else 2**num_qubits * 2

    def resolve_tau(self, num_qubits: int) -> float:
        if self.tau_fail is not None:
            return self.tau_fail
        if self.mode == "exact":
            return DEFAULT_TAU_FAIL
        return DEFAULT_TAU_FAIL + 2.0 / math.sqrt(self.resolve_shots(num_qubits))


def case_id(basis: MeasBasis, input_state: int, num_qubits: int) -> str:
    return f"{basis.value}:{format(input_state, f'0{num_qubits}b')}"


_BASES = {b.value: b for b in MeasBasis}


def _only_bits(s: str) -> bool:
    return s.count("0") + s.count("1") == len(s)


def parse_case_id(cid: str) -> tuple[MeasBasis, int, int]:
    """Inverse of :func:`case_id`: returns (basis, input_state, num_qubits)."""
    if isinstance(cid, str):
        basis_s, _, bits = cid.partition(":")
        basis = _BASES.get(basis_s)
        if basis is not None and bits and _only_bits(bits):
            return basis, int(bits, 2), len(bits)
    raise ExpectedTableError(f"bad test-case id {cid!r}; expected like 'Z:0010'")


def generate_suite(reference: Circuit) -> TestSuite:
    """All-inputs x all-bases suite with expected distributions from ``reference``."""
    q = reference.num_qubits
    if q > MAX_SUITE_QUBITS:
        raise SuiteTooWideError(f"{q} qubits would need {3 * 2**q} test cases (max {MAX_SUITE_QUBITS} qubits)")
    # input-major with the bases in BASIS_ORDER, the order fitness sums in
    n = len(BASIS_ORDER)
    probs = run_all_bases(reference, range(2**q)).transpose(1, 0, 2).reshape(-1, 2**q)
    return TestSuite(q, np.tile(np.arange(n), 2**q), np.repeat(np.arange(2**q), n), probs)


_FLOAT_MAX = sys.float_info.max


def _are_probabilities(values) -> bool:
    # types first, so abs() sees numbers only; a comparison, unlike
    # math.isfinite, takes an int of any size, and NaN fails it
    return all(issubclass(t, (int, float)) and t is not bool for t in set(map(type, values))) and all(
        map(_FLOAT_MAX.__ge__, map(abs, values))
    )


def _are_bitstrings(keys, q: int) -> bool:
    try:
        bits = "".join(keys)
    except TypeError:  # a key that is not a string
        return False
    return set(map(len, keys)) <= {q} and _only_bits(bits)


def _stack(tables: list[dict], q: int) -> np.ndarray:
    """One row of 2^q probabilities per checked ``{bitstring: prob}`` map:
    every bitstring decoded from its ASCII codes and every value converted
    to a float in one pass over all the maps."""
    counts = list(map(len, tables))
    values = np.fromiter(chain.from_iterable(map(dict.values, tables)), float, sum(counts))
    codes = np.frombuffer("".join(chain.from_iterable(tables)).encode("ascii"), np.uint8)
    outcomes = (codes.reshape(-1, q) - ord("0")) @ (1 << np.arange(q - 1, -1, -1))  # first bit is the highest
    rows = np.zeros((len(tables), 2**q))
    rows[np.repeat(np.arange(len(tables)), counts), outcomes] = values
    return rows


def suite_from_expected(expected: dict[str, dict[str, float]]) -> TestSuite:
    """Suite from an expected-distribution map {case_id: {bitstring: prob}}.

    Cases are ordered as :func:`generate_suite` orders them: input-major,
    bases in BASIS_ORDER. A malformed map raises :class:`ExpectedTableError`
    naming the case. A distribution must sum to 1 within 1e-9; rounded
    tables are rejected, not renormalised. The ids, value types and
    bitstrings are checked case by case; then every entry is placed in one
    matrix at once and :func:`check_probability_rows`, the rules every
    :class:`Distribution` keeps, runs on it. An error names the first bad
    case in sorted-id order.
    """
    if not isinstance(expected, dict):
        raise ExpectedTableError("expected-distribution table must map case ids to distributions")
    if not expected:
        raise ExpectedTableError("expected-distribution map is empty")
    ids = sorted(expected, key=str)  # an id that is not a string sorts by its text, then fails its parse
    bases, inputs, tables = [], [], []
    width = error = None
    try:
        for cid in ids:
            basis, input_state, q = parse_case_id(cid)
            if q > MAX_SUITE_QUBITS:
                raise SuiteTooWideError(f"case {cid!r} has {q} qubits (max {MAX_SUITE_QUBITS})")
            if width is None:
                width = q
            elif q != width:
                raise WidthMismatchError(f"case {cid!r} width {q} != {width}")
            probs = expected[cid]
            if not isinstance(probs, dict) or not _are_probabilities(probs.values()):
                raise ExpectedTableError(f"case {cid!r}: expected a map from bit strings to finite numbers")
            if not _are_bitstrings(probs, q):
                bits = next(bits for bits in probs if not _are_bitstrings((bits,), q))
                raise ExpectedTableError(f"case {cid!r}: bad outcome bitstring {bits!r} for {q} qubits")
            bases.append(BASIS_ORDER.index(basis))
            inputs.append(input_state)
            tables.append(probs)
    except QRepError as e:  # the cases before it may break a row rule
        error = e
    if tables:
        rows = _stack(tables, width)
        bad = check_probability_rows(rows)
        if bad is not None:
            raise ExpectedTableError(f"case {ids[bad[0]]!r}: {bad[1]}")
    if error is not None:
        raise error
    # stacked in generate_suite's order, so a full table sums fitness like
    # its reference
    order = np.lexsort((bases, inputs))
    return TestSuite(width, np.array(bases)[order], np.array(inputs)[order], rows[order])


def _case_seed(master: int, index: int) -> int:
    # stable per-case stream so results do not depend on evaluation order
    return int(np.random.SeedSequence([master & (2**63 - 1), index]).generate_state(1)[0])


@lru_cache(maxsize=16)
def _case_seeds(master: int, n: int) -> tuple[int, ...]:
    """:func:`_case_seed` of cases 0..n-1, built once per oracle seed and
    suite size rather than on every sampled evaluation."""
    return tuple(_case_seed(master, i) for i in range(n))


def fitness(
    c: Circuit,
    ts: TestSuite,
    cfg: OracleConfig = OracleConfig(),
    prefixes: PrefixCache | None = None,
) -> FitnessScore:
    """Evaluate every test case; value = failed count + summed Hellinger.

    One simulation runs every suite input in the suite's bases, from
    ``prefixes`` when given, which must be built for ``c``; an edit of
    ``c``, alone or stacked, is scored by :func:`edit_fitness`. A case fails
    when its row puts more than ``eps_zero`` on an outcome its expected row
    rules out, or lies farther than the failure threshold from that row in
    Hellinger distance; the distances are summed sequentially in suite
    order.
    """
    _require_width(c, ts)
    return _judged(c, ts, cfg, prefixes)[0]


def edit_fitness(
    c: Circuit,
    ts: TestSuite,
    edits: Iterable[tuple[int, GateApp | None, bool]],
    cfg: OracleConfig = OracleConfig(),
    prefixes: PrefixCache | None = None,
) -> Iterator[FitnessScore]:
    """:func:`fitness` of ``c`` with each of ``edits`` made alone (single-gate
    edits; see :func:`run_all_bases`), in order. Each score equals the one
    its circuit gets alone.

    The edits are drawn a chunk at a time (:attr:`PrefixCache.chunk` of
    them), and each chunk is one simulation (:func:`_observed`): a caller
    that stops drawing scores leaves the later edits undrawn and
    unsimulated. ``prefixes`` must be built for ``c``; it is built once
    when not given.
    """
    _require_width(c, ts)
    if prefixes is None:
        prefixes = ts.prefixes(c)
    size, edits = prefixes.chunk, iter(edits)
    while chunk := list(islice(edits, size)):
        yield from _judged(c, ts, cfg, prefixes, chunk)


def _observed(
    c: Circuit,
    ts: TestSuite,
    prefixes: PrefixCache,
    edits: Sequence[tuple[int, GateApp | None, bool]] | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The rows the suite's cases observe, in suite order: of ``c`` (no
    ``edits``) or, one block of ``len(ts)`` rows each, of ``c`` with each of
    ``edits`` made alone, ``prefixes`` being built for ``c``. This is the
    one place a suite's circuits are simulated: one :func:`run_all_bases`
    call, measured into ``out``, the suite's rows buffer for the blocks
    (:meth:`TestSuite.buffers`, made with room for a chunk of edits; taken
    here when not given), valid until the next call.

    The rows are laid out ``[edit, input, basis, outcome]``. A suite that
    holds every (basis, input) pair of its bases and inputs once, as every
    generated suite and every full one-basis table does, orders its cases
    so (input-major, bases in BASIS_ORDER) and reads the rows as a reshape;
    any other picks its cases' rows by ``case_rows``."""
    if out is None:
        out = ts.buffers(1 if edits is None else len(edits), prefixes.chunk)[0]
    rows = run_all_bases(c, ts.inputs, bases=ts.bases, prefixes=prefixes, edits=edits, out=out)
    if edits is None:
        rows = rows[None]
    if len(ts) == len(ts.bases) * len(ts.inputs):
        return rows.transpose(0, 2, 1, 3).reshape(-1, rows.shape[3])
    return rows[(slice(None), *ts.case_rows)].reshape(-1, rows.shape[3])


def _judged(
    c: Circuit, ts: TestSuite, cfg: OracleConfig, prefixes: PrefixCache | None, edits=None
) -> list[FitnessScore]:
    """:func:`_scores` of :func:`_observed` (from a cache that keeps no
    state when ``prefixes`` is None), in the suite's buffers, taken once
    (:meth:`TestSuite.buffers`)."""
    prefixes = prefixes or PrefixCache(c, ts.inputs, keep=False)
    rows, scratch = ts.buffers(1 if edits is None else len(edits), prefixes.chunk)
    return _scores(_observed(c, ts, prefixes, edits, rows), ts, cfg, scratch)


def _scratch(blocks: int, shape: tuple[int, int], diff: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """The temporaries :func:`_scores` judges ``blocks`` blocks of a suite
    whose expected matrix has ``shape`` in; ``diff``, when given, is the
    one for sqrt(observed) - sqrt(expected)."""
    cases, width = shape
    return (
        np.empty((blocks, cases, width), dtype=bool),  # rows over eps_zero where ruled out
        np.empty((blocks, cases, width)) if diff is None else diff,  # sqrt(observed) - sqrt(expected)
        np.empty((blocks, cases, 1, 1)),  # squared distances
        np.empty((blocks, cases)),  # Hellinger distances
        np.empty((blocks, cases), dtype=bool),  # failed cases
        np.empty((blocks, cases), dtype=bool),  # cases past the failure threshold
        np.empty((blocks, cases)),  # running sums of the distances
    )


def _scores(
    observed: np.ndarray, ts: TestSuite, cfg: OracleConfig, scratch: tuple[np.ndarray, ...] | None = None
) -> list[FitnessScore]:
    """One :func:`fitness` score per block of ``len(ts)`` rows of ``observed``,
    all blocks judged at once against the suite's rows by the two rules; in
    sampled mode each block's rows are first drawn with the per-case seeds.
    Every step writes into ``scratch`` (:func:`_scratch` of the blocks),
    made here when not given, so the same ufunc loops run either way."""
    blocks = len(observed) // len(ts)
    if cfg.mode == "sampled":
        shots = cfg.resolve_shots(ts.num_qubits)
        seeds = _case_seeds(cfg.seed, len(ts)) * blocks
        rows = zip(observed, seeds)
        observed = np.stack([np.random.default_rng(seed).multinomial(shots, row) / shots for row, seed in rows])
    observed = observed.reshape(blocks, *ts.expected.shape)
    over, diff, dots, h, wrong, far, sums = scratch or _scratch(blocks, ts.expected.shape)
    # the suite's rows on a leading axis of one, so that one block runs
    # numpy's same-shape loops and more blocks broadcast. Each step is its
    # ufunc called with out= (an in-place operator costs a few µs more)
    np.greater(observed, cfg.eps_zero, out=over)
    np.logical_and(over, ts.ruled_out(cfg.eps_zero)[None], out=over)
    np.logical_or.reduce(over, axis=2, out=wrong)
    np.sqrt(observed, out=diff)
    np.subtract(diff, ts.sqrt_expected[None], out=diff)
    # a stack of (1 x n) @ (n x 1) products runs numpy's dot loop, so each
    # distance is rounded exactly as one np.dot of the two rows rounds it
    np.matmul(diff[..., None, :], diff[..., :, None], out=dots)
    np.sqrt(dots[..., 0, 0], out=h)
    np.divide(h, math.sqrt(2.0), out=h)
    np.minimum(h, 1.0, out=h)
    np.greater(h, cfg.resolve_tau(ts.num_qubits), out=far)
    np.logical_or(wrong, far, out=wrong)
    failed = np.add.reduce(wrong, axis=1).tolist()
    totals = np.add.accumulate(h, axis=1, out=sums)[:, -1].tolist()  # in suite order
    return [FitnessScore(failed_count=f, hellinger_sum=v) for f, v in zip(failed, totals)]


def require_failing(score: FitnessScore, what: str = "circuit") -> None:
    if score.all_passed():
        raise NoFailingTestError(f"{what} passes the whole test suite; nothing to repair")
