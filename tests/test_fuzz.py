"""Token-level mutation fuzz of the QASM parser and the CLI.

Each example emits a random circuit, then makes one to three token edits:
delete, duplicate, replace, insert or swap a token, or put a new number in
place of a number or an angle. Whatever the result, the parser must either
return a circuit that round-trips or raise a QRepError, and the CLI must
end with exit code 0 or 1 instead of a traceback.
"""
import re
import tempfile
from pathlib import Path

import numpy as np
from conftest import random_circuit
from hypothesis import given, settings, strategies as st

from qrep.cli import EXIT_ERROR, EXIT_OK, main
from qrep.errors import QRepError
from qrep.qasm import emit_qasm, parse_qasm

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
