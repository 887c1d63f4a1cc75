import math

import pytest

from oracles import gate_names
from qrep.circuit import build_circuit
from qrep.errors import (
    QasmError,
    QasmSyntaxError,
    UnsupportedFeatureError,
    UnsupportedGateError,
)
from qrep.qasm import _MAX_EXPR_DEPTH, emit_qasm, parse_qasm

BELL = """\
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
"""


def test_parse_bell():
    c = parse_qasm(BELL)
    assert c.num_qubits == 2
    assert gate_names(c) == ["h", "cx"]
    assert c.gates[1].qubits == (0, 1)
    assert c.measurements == {0: 0, 1: 1}


def test_parse_angle_expressions():
    src = (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n'
        "rz(pi/2) q[0];\nrx(-pi/4) q[0];\np(2*pi/3) q[0];\nu(0.1,1e-2,-0.5) q[0];\n"
    )
    c = parse_qasm(src)
    assert c.gates[0].params == (math.pi / 2,)
    assert c.gates[1].params == (-math.pi / 4,)
    assert c.gates[2].params[0] == pytest.approx(2 * math.pi / 3)
    assert c.gates[3].params == (0.1, 0.01, -0.5)


def test_whole_register_broadcast():
    src = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncreg c[3];\nh q;\nmeasure q -> c;\n'
    c = parse_qasm(src)
    assert gate_names(c) == ["h", "h", "h"]
    assert [g.qubits for g in c.gates] == [(0,), (1,), (2,)]
    assert c.measurements == {0: 0, 1: 1, 2: 2}


def test_barrier_is_transparent():
    src = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\nbarrier q;\ncx q[0],q[1];\n'
    c = parse_qasm(src)
    assert gate_names(c) == ["h", "cx"]


def test_comments_ignored():
    src = 'OPENQASM 2.0; // header\ninclude "qelib1.inc";\nqreg q[1];\n// a comment\nx q[0]; // trailing\n'
    assert gate_names(parse_qasm(src)) == ["x"]


def test_error_carries_line_and_column():
    src = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nh q[1];\n'
    with pytest.raises(QasmSyntaxError) as exc:
        parse_qasm(src)
    assert exc.value.line == 4
    assert "line 4" in str(exc.value)


@pytest.mark.parametrize(
    "stmt,err",
    [
        ("gate foo a { x a; }", UnsupportedFeatureError),
        ("opaque bar a;", UnsupportedFeatureError),
        ("if (c == 1) x q[0];", UnsupportedFeatureError),
        ("reset q[0];", UnsupportedFeatureError),
        ("rzz(0.1) q[0],q[0];", UnsupportedGateError),
        ("ch q[0],q[0];", UnsupportedGateError),
    ],
)
def test_reserved_and_unknown_statements(stmt, err):
    src = f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncreg c[2];\n{stmt}\n'
    with pytest.raises(err):
        parse_qasm(src)


@pytest.mark.parametrize("angle", ["1e999", "-1e999", "1e308*10", "1e999-1e999"])
def test_non_finite_angle_rejected_with_location(angle):
    src = f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nh q[0];\nrx({angle}) q[0];\n'
    with pytest.raises(QasmSyntaxError) as exc:
        parse_qasm(src)
    assert (exc.value.line, exc.value.col) == (5, 4)
    assert "non-finite angle" in str(exc.value)


@pytest.mark.parametrize("phi,lam,total", [("1e308", "1e308", "inf"), ("-1e308", "-1.7e308", "-inf")])
def test_u_whose_phi_plus_lambda_overflows_is_rejected_with_location(phi, lam, total):
    """Each angle is finite, but u's matrix takes exp(i(phi + lambda)), which
    an infinite sum makes NaN; the statement is refused at its gate name.
    Sums that stay finite parse."""
    src = f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncx q[0],q[1];\n  u(0.5,{phi},{lam}) q[0];\n'
    with pytest.raises(QasmSyntaxError) as exc:
        parse_qasm(src)
    assert (exc.value.line, exc.value.col) == (5, 3)
    assert str(exc.value).endswith(f"non-finite phi + lambda {total} on u")
    finite = src.replace(f"u(0.5,{phi},{lam})", f"u(0.5,{phi},-{phi})")
    assert parse_qasm(finite).gates[1].params == (0.5, float(phi), -float(phi))


@pytest.mark.parametrize("opener,closer", [("(", ")"), ("-", ""), ("+", ""), ("-(", ")")])
def test_angle_nesting_depth_is_bounded_with_location(opener, closer):
    def src(depth):
        expr = opener * depth + "pi" + closer * depth
        return f'OPENQASM 2.0;\nqreg q[1];\nh q[0];\nrx({expr}) q[0];\n'

    levels = len(opener)  # "-(" opens two levels per repetition
    at_limit = parse_qasm(src(_MAX_EXPR_DEPTH // levels))
    sign = -1 if "-" in opener and (_MAX_EXPR_DEPTH // levels) % 2 else 1
    assert at_limit.gates[1].params == (sign * math.pi,)
    for depth in (_MAX_EXPR_DEPTH // levels + 1, 3000):
        with pytest.raises(QasmSyntaxError) as exc:
            parse_qasm(src(depth))
        # the token that opens level _MAX_EXPR_DEPTH + 1, after "rx("
        assert (exc.value.line, exc.value.col) == (4, 4 + _MAX_EXPR_DEPTH)
        assert "nested" in str(exc.value)


def test_version_and_header_enforced():
    with pytest.raises(QasmSyntaxError):
        parse_qasm('include "qelib1.inc";\n')
    with pytest.raises(UnsupportedFeatureError):
        parse_qasm("OPENQASM 3.0;\nqreg q[1];\n")
    with pytest.raises(UnsupportedFeatureError):
        parse_qasm('OPENQASM 2.0;\ninclude "other.inc";\n')


def test_multiple_registers_rejected():
    src = "OPENQASM 2.0;\nqreg q[1];\nqreg r[1];\n"
    with pytest.raises(UnsupportedFeatureError):
        parse_qasm(src)


def test_wrong_param_count_rejected():
    src = "OPENQASM 2.0;\nqreg q[1];\nrz q[0];\n"
    with pytest.raises(QasmError):
        parse_qasm(src)


def test_emit_then_parse_roundtrip():
    c = build_circuit(
        3,
        [
            ("h", 0),
            ("rz", (1,), (math.pi / 3,)),
            ("cp", (0, 2), (0.1234567890123,)),
            ("ccx", (0, 1, 2)),
            ("u", (2,), (0.1, -0.2, 0.3)),
        ],
    )
    back = parse_qasm(emit_qasm(c))
    assert back.num_qubits == c.num_qubits
    assert back.measurements == c.measurements
    assert len(back.gates) == len(c.gates)
    for a, b in zip(back.gates, c.gates):
        assert a.kind is b.kind and a.qubits == b.qubits
        assert a.params == b.params  # exact float round-trip via repr


def test_emit_is_deterministic(bell):
    assert emit_qasm(bell) == emit_qasm(bell)
    assert emit_qasm(bell).startswith("OPENQASM 2.0;")


LONG_INT = "1" * 5000  # past Python's 4300-digit int() conversion limit


@pytest.mark.parametrize(
    "src,where",
    [
        (f"OPENQASM 2.0;\nqreg q[{LONG_INT}];\n", (2, 8)),
        (f"OPENQASM 2.0;\nqreg q[2];\ncreg c[{LONG_INT}];\n", (3, 8)),
        (f"OPENQASM 2.0;\nqreg q[2];\nh q[{LONG_INT}];\n", (3, 5)),
        (f"OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nmeasure q[0] -> c[{LONG_INT}];\n", (4, 19)),
    ],
    ids=["qreg-size", "creg-size", "qubit-index", "clbit-index"],
)
def test_overlong_integer_is_syntax_error_with_location(src, where):
    with pytest.raises(QasmSyntaxError) as exc:
        parse_qasm(src)
    assert (exc.value.line, exc.value.col) == where
    assert "5000 digits" in str(exc.value)


@pytest.mark.parametrize(
    "src,message,where",
    [
        ("OPENQASM 2.0; // note\nqreg q[1]; @\n", "unexpected character '@'", (2, 12)),
        ("OPENQASM 2.0;\nqreg q[2];\nh q[0]", "unexpected end of input", (3, 6)),
        ("OPENQASM 2.0;\nqreg q[1];\n  ;\n", "expected statement, got ';'", (3, 3)),
        ("OPENQASM 2.0;\nqreg q[2];\ncreg c[3];\nmeasure q -> c;\n", "register sizes differ", (4, 14)),
        ("OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nmeasure q[0] -> c;\n", "both be indexed", (4, 17)),
        ("OPENQASM 2.0;\nqreg q[1];\nrx(pi/0) q[0];\n", "division by zero", (3, 7)),
        ("OPENQASM 2.0;\nqreg q[1];\nrx(pi/(1-1)) q[0];\n", "division by zero", (3, 11)),
        ("OPENQASM 2.0;\nqreg q[1];\nh r[0];\n", "unknown register 'r'", (3, 3)),
        ('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nh q[1];\n', "index 1 out of range", (4, 5)),
        # a string that spans lines moves later positions down by its newlines
        ('OPENQASM 2.0;\ninclude "a\nb";\n @\n', "unexpected character '@'", (4, 2)),
    ],
    ids=["char-after-comment", "end-of-input", "stray-semicolon", "register-sizes", "mixed-measure",
         "divide-by-zero", "divide-by-zero-group", "unknown-register", "index-out-of-range", "multiline-string"],
)
def test_syntax_error_position_is_pinned(src, message, where):
    with pytest.raises(QasmSyntaxError) as exc:
        parse_qasm(src)
    assert message in str(exc.value)
    assert (exc.value.line, exc.value.col) == where


def test_non_ascii_digits_are_unexpected_characters():
    # Arabic-Indic digits are Unicode decimal digits, but not OpenQASM ones
    src = "OPENQASM 2.0;\nqreg q[٣];\nrx(١.٥) q[٢];\n"
    with pytest.raises(QasmSyntaxError) as exc:
        parse_qasm(src)
    assert "unexpected character '٣'" in str(exc.value)
    assert (exc.value.line, exc.value.col) == (2, 8)
    with pytest.raises(QasmSyntaxError) as exc:
        parse_qasm("OPENQASM 2.0;\nqreg q[3];\nrx(١.5) q[2];\n")
    assert (exc.value.line, exc.value.col) == (3, 4)
