"""Token-level mutation fuzz of the QASM parser and the CLI.

Each example emits a random circuit, then makes one to three token edits:
delete, duplicate, replace, insert or swap a token, or put a new number in
place of a number or an angle. Whatever the result, the parser must either
return a circuit that round-trips or raise a QRepError, it must agree with
the token-loop parser it replaced, and the CLI must end with exit code 0 or
1 instead of a traceback. A drawn expected-distribution map must load, or
fail, exactly as the case-by-case table loader it replaced.
"""
import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
from conftest import random_circuit
from hypothesis import given, settings, strategies as st
from oracles import load_outcome, looped_suite_from_expected, token_loop_parse_qasm

from qrep.cli import EXIT_ERROR, EXIT_NOT_FIXED, EXIT_OK, main
from qrep.errors import QRepError
from qrep.qasm import emit_qasm, parse_qasm
from qrep.testkit import suite_from_expected

_PIECE_RE = re.compile(r'\s+|[A-Za-z_]\w*|\d+\.?\d*(?:[eE][+-]?\d+)?|->|"[^"]*"|.')

# register sizes stay tiny or far above the suite's 16-qubit cap, so no
# mutant makes the CLI allocate a wide simulation
_NUMBERS = ["0", "1", "2", "3", "64", "0.5", "-1", "1e999", "1e-400", "2.0", "3.0", "00", "1."]
_VOCAB = _NUMBERS + [
    ";", ",", "(", ")", "[", "]", "{", "->", "-", "+", "*", "/", "^", ".", "pi", "q", "c",
    "qreg", "creg", "measure", "barrier", "include", "gate", "if", "reset", "OPENQASM",
    "h", "cx", "rx", "u", "ccx", "foo", '"qelib1.inc"', '"x.inc"', "//", "\n", "@", "\u00e9",
]


def _mutate(rng: np.random.Generator, pieces: list[str]) -> None:
    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    spots = [k for k, t in enumerate(pieces) if not t.isspace()]
    numbers = [k for k in spots if pieces[k][0].isdigit()]
    depth = np.cumsum([(t == "(") - (t == ")") for t in pieces])
    angles = [k for k in numbers if depth[k] > 0]
    i = pick(spots)
    op = pick(["delete", "duplicate", "replace", "renumber", "reangle", "insert", "swap"])
    if op == "delete":
        del pieces[i]
    elif op == "duplicate":
        pieces.insert(i, pieces[i])
    elif op == "replace":
        pieces[i] = pick(_VOCAB)
    elif op == "renumber":  # register sizes, indices and angles
        pieces[pick(numbers or spots)] = pick(_NUMBERS)
    elif op == "reangle":
        pieces[pick(angles or numbers or spots)] = pick(_NUMBERS)
    elif op == "insert":
        pieces.insert(i, pick(_VOCAB) + pick(["", " "]))
    else:
        j = pick(spots)
        pieces[i], pieces[j] = pieces[j], pieces[i]


@st.composite
def mutated_qasm(draw) -> tuple[str, str]:
    """(emitted source of a random circuit, the source with 1-3 tokens mutated).

    Hypothesis draws only the seed: its own choices lean towards the first
    entries of a list, which would starve most of the vocabulary.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**63 - 1)))
    text = emit_qasm(random_circuit(rng, int(rng.integers(1, 4)), int(rng.integers(0, 9))))
    pieces = _PIECE_RE.findall(text)
    assert "".join(pieces) == text
    for _ in range(int(rng.integers(1, 4))):
        _mutate(rng, pieces)
    return text, "".join(pieces)


@settings(max_examples=300, deadline=None)
@given(mutated_qasm())
def test_mutated_qasm_round_trips_or_raises_qrep_error(sources):
    _, text = sources
    try:
        c = parse_qasm(text)
    except QRepError:
        return
    assert parse_qasm(emit_qasm(c)) == c


def _parse_outcome(parse, text: str):
    """The circuit, or the error's class, message, line and column."""
    try:
        return parse(text)
    except QRepError as e:
        return type(e), str(e), getattr(e, "line", None), getattr(e, "col", None)


@settings(max_examples=300, deadline=None)
@given(mutated_qasm())
def test_mutated_qasm_parses_as_the_token_loop_parser(sources):
    _, text = sources
    assert _parse_outcome(parse_qasm, text) == _parse_outcome(token_loop_parse_qasm, text)


@settings(max_examples=40, deadline=None)
@given(mutated_qasm())
def test_localize_on_mutated_qasm_exits_zero_or_one(sources):
    reference, text = sources
    with tempfile.TemporaryDirectory() as d:
        ref, circ = Path(d, "ref.qasm"), Path(d, "mutant.qasm")
        ref.write_text(reference)
        circ.write_text(text, encoding="utf-8")
        code = main(["localize", "--circuit", str(circ), "--reference", str(ref),
                     "--out", str(Path(d, "report.json"))])
    assert code in (EXIT_OK, EXIT_ERROR)


# ------------------------------------------------- --expected maps and flags
#
# Each example runs the CLI in process against a Bell reference or table.
# It must end with exit 0, 1 or 2; an exit 1 prints exactly one error line
# and no traceback. Budgets stay small so valid draws finish fast.

_ERROR_LINE = re.compile(r"^qrep: error: ")


def _run_cli(argv: list[str]) -> int:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    text = err.getvalue()
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_NOT_FIXED), (code, text)
    assert "Traceback" not in text
    if code == EXIT_ERROR:
        lines = text.splitlines()
        assert len(lines) == 1 and _ERROR_LINE.match(lines[0]), text
    return code


def _two_qubit_qasm(*gates: str) -> str:
    head = ["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[2];", "creg c[2];"]
    return "\n".join([*head, *gates, "measure q[0] -> c[0];", "measure q[1] -> c[1];", ""])


_BELL = _two_qubit_qasm("h q[0];", "cx q[0],q[1];")
_BELL_Z = _two_qubit_qasm("h q[0];", "cx q[0],q[1];", "z q[1];")  # removing z repairs it
_NO_SINGLE_EDIT = _two_qubit_qasm("x q[0];", "y q[1];", "cx q[0],q[1];")  # spends the whole budget

# JSON number literals, in range or not; json.loads reads 1e400 as inf
_NUMBERS_JSON = ["0", "1", "0.5", "0.25", "-0.5", "1.5", "0.4999999", "0.50000001", "1e400", "-1e400",
                 "NaN", "Infinity", "-Infinity", "1" + "0" * 400, "-1" + "0" * 400, "1e-400", "-0.0"]
_NOT_NUMBERS_JSON = ["true", "null", '"0.5"', "[]", "{}", "[0.5]"]


@st.composite
def expected_json(draw) -> str:
    """JSON text of an expected-distribution map: most cases well formed,
    some with one flaw, or a document that is not a map at all."""
    top = draw(st.sampled_from(["map"] * 6 + ["[]", '"Z:00"', "1", "null", "{}"]))
    if top != "map":
        return top
    width = draw(st.integers(1, 2))
    items = []
    for _ in range(draw(st.integers(1, 4))):
        flaw = draw(st.sampled_from([None, None, None, "basis", "id", "width", "sum", "number", "type"]))
        q = draw(st.sampled_from([0, 3, width + 1])) if flaw == "width" else width
        basis = draw(st.sampled_from(["Q", "z", "", "XY"] if flaw == "basis" else ["X", "Y", "Z"]))
        bits = draw(st.text("01", min_size=q, max_size=q))
        cid = f"{basis}:{bits}"
        if flaw == "id":
            cid = draw(st.sampled_from([f"{basis}{bits}", f"{cid}a", f"{basis}::{bits}", f"{cid}:"]))
        a, b = (draw(st.text("01", min_size=q, max_size=q)) for _ in range(2))
        if flaw == "type":
            body = draw(st.sampled_from(_NOT_NUMBERS_JSON + _NUMBERS_JSON))
        elif flaw == "number":
            body = f'{{"{a}": {draw(st.sampled_from(_NUMBERS_JSON + _NOT_NUMBERS_JSON))}}}'
        elif flaw == "sum":  # off by more than 1e-9 (a repeated key keeps the last value)
            body = f'{{"{a}": 0.5, "{b}": {0.5 + draw(st.sampled_from([2e-9, -2e-9, 0.1]))!r}}}'
        else:
            body = f'{{"{a}": 0.5, "{b}": 0.5}}' if a != b else f'{{"{a}": 1}}'
        items.append(f"{json.dumps(cid)}: {body}")
    return "{" + ", ".join(items) + "}"


@settings(max_examples=150, deadline=None)
@given(expected_json(), st.sampled_from(["repair", "baseline-rs", "localize"]))
def test_malformed_expected_map_exits_cleanly(text, sub):
    with tempfile.TemporaryDirectory() as d:
        circ, table = Path(d, "c.qasm"), Path(d, "expected.json")
        circ.write_text(_BELL_Z)
        table.write_text(text)
        argv = [sub, "--circuit", str(circ), "--expected", str(table), "--out", str(Path(d, "r.json"))]
        if sub != "localize":
            argv += ["--budget-evals", "30"]
        _run_cli(argv)


@settings(max_examples=400, deadline=None)
@given(expected_json())
def test_expected_map_loads_like_the_case_by_case_loop(text):
    table = json.loads(text)
    assert load_outcome(suite_from_expected, table) == load_outcome(looped_suite_from_expected, table)


_HUGE = st.sampled_from([2**31, 2**63 - 1, 2**63, 2**64, 2**70])
_BAD_TEXT = st.sampled_from(["", " ", "abc", "1.5", "0x10", "1_000", "--", "-", "1e3", "nan", "inf"])
_FLOATS = st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "-0.0", "0.0", "0", "1e-300", "0.05", "2"])


def _int_values(low: int, high: int):
    # integers in [low, high] and beyond either end, written as flag text
    return st.one_of(st.integers(low, high), _HUGE, st.integers(-3, 0), st.integers(-(2**70), -1)).map(str)


def _flag_value(flag: str):
    # mostly numbers, so that several flags of one draw are often all valid
    if flag in ("--iterations", "--top-k", "--opt-max-evals", "--shots", "--per-group", "--seed"):
        return st.one_of(_int_values(1, 6), _int_values(1, 6), _BAD_TEXT)
    if flag == "--budget-evals":
        return st.one_of(st.integers(-3, 60).map(str), st.integers(1, 60).map(str), _BAD_TEXT)
    if flag == "--budget-seconds":
        # not "1e3" or "1_000": float() reads both as a valid 1000 s budget
        return st.one_of(st.sampled_from(["0.5", "0.05", "1e-300", "0", "-0.0", "nan", "inf", "1e400"]),
                         _BAD_TEXT.filter(lambda text: text not in ("1e3", "1_000")))
    if flag in ("--tau-fail", "--eps-zero", "--opt-tol"):
        return st.one_of(_FLOATS, _BAD_TEXT)
    if flag == "--shots-mode":
        return st.sampled_from(["exact", "sampled", "", "Exact", "shots"])
    if flag == "--catalog":
        return st.sampled_from(["h", "x,cx", "rx,crz,u", "", ",", "h,,x", "measure", "foo", "h x"])
    if flag == "--fault-gate":
        return st.sampled_from(["0:h:0", "1:cx:0-1", "2:z:1", "99:h:0", "", "0:h", "a:h:0", "0:h:a", "0::0", "-1:h:0"])
    raise KeyError(flag)


_FLAGS = {
    "repair": ["--budget-evals", "--budget-seconds", "--iterations", "--opt-max-evals", "--opt-tol", "--top-k",
               "--catalog", "--fault-gate", "--shots-mode", "--shots", "--tau-fail", "--eps-zero", "--seed"],
    "localize": ["--shots-mode", "--shots", "--tau-fail", "--eps-zero", "--seed"],
    "mutate": ["--per-group", "--seed", "--catalog"],
}
_FLAGS["baseline-rs"] = _FLAGS["repair"]


@st.composite
def cli_flags(draw) -> tuple[str, list[str]]:
    """(subcommand, ``--flag=value`` arguments), each flag at most once;
    the ``=`` keeps a value that starts with "-" a value."""
    sub = draw(st.sampled_from(sorted(_FLAGS)))
    flags = draw(st.lists(st.sampled_from(_FLAGS[sub]), unique=True, max_size=5))
    if sub in ("repair", "baseline-rs") and not {"--budget-evals", "--budget-seconds"} & set(flags):
        flags.append("--budget-evals")
    if sub == "mutate" and "--per-group" not in flags:
        flags.append("--per-group")
    return sub, [f"{flag}={draw(_flag_value(flag))}" for flag in flags]


@settings(max_examples=300, deadline=None)
@given(cli_flags())
def test_flag_values_exit_cleanly(drawn):
    sub, args = drawn
    with tempfile.TemporaryDirectory() as d:
        circ, ref = Path(d, "c.qasm"), Path(d, "ref.qasm")
        circ.write_text(_NO_SINGLE_EDIT)
        ref.write_text(_BELL)
        if sub == "mutate":
            argv = [sub, "--circuit", str(ref), "--out-dir", str(Path(d, "m"))]
        else:
            argv = [sub, "--circuit", str(circ), "--reference", str(ref), "--out", str(Path(d, "r.json"))]
        _run_cli(argv + args)
