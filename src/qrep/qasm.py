"""OpenQASM 2.0 load/store for the supported gate catalog.

Accepts the qelib1-style subset used by the benchmark circuits: one quantum
register, at most one classical register, indexed or whole-register gate
operands, and constant angle expressions (numbers, pi, + - * /, parentheses,
unary minus). Gate definitions, opaque declarations, conditionals and resets
are rejected rather than skipped. Barriers parse but are dropped: they have
no effect on simulation and patch positions index only quantum gates.
"""
from __future__ import annotations

import math
import re

from .circuit import GATE_BY_NAME, Circuit, GateApp, GateKind
from .errors import QasmSyntaxError, UnsupportedFeatureError, UnsupportedGateError

_TOKEN_RE = re.compile(
    r"""
      (?P<ID>     [A-Za-z_][A-Za-z0-9_]*)
    | (?P<NUMBER> (?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
    | (?P<STRING> "[^"]*")
    | (?P<ARROW>  ->)
    | (?P<SYM>    [{}\[\](),;+\-*/^=<>])
    """,
    re.VERBOSE,
)

_RESERVED_FEATURES = {"gate", "opaque", "if", "reset"}

# parentheses and unary signs an angle expression may nest; the parser
# recurses once per level, so deeper input would exhaust the Python stack
_MAX_EXPR_DEPTH = 64


class _Token:
    __slots__ = ("typ", "val", "line", "col")

    def __init__(self, typ: str, val: str, line: int, col: int):
        self.typ = typ
        self.val = val
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Token]:
    src = re.sub(r"//[^\n]*", "", text)
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        m = _TOKEN_RE.match(src, i)
        if not m:
            raise QasmSyntaxError(f"unexpected character {ch!r}", line, col)
        tok = _Token(m.lastgroup, m.group(), line, col)
        tokens.append(tok)
        col += m.end() - i
        i = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # open parentheses and unary signs around the current factor

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            raise QasmSyntaxError(
                "unexpected end of input",
                last.line if last else 1,
                last.col if last else 1,
            )
        self.pos += 1
        return tok

    def expect(self, val: str) -> _Token:
        tok = self.next()
        if tok.val != val:
            raise QasmSyntaxError(f"expected {val!r}, got {tok.val!r}", tok.line, tok.col)
        return tok

    # --- angle expressions: term-level precedence with unary minus ---

    def parse_expr(self) -> float:
        val = self.parse_term()
        while self.peek() and self.peek().val in "+-":
            op = self.next().val
            rhs = self.parse_term()
            val = val + rhs if op == "+" else val - rhs
        return val

    def parse_term(self) -> float:
        val = self.parse_factor()
        while self.peek() and self.peek().val in "*/":
            op = self.next().val
            rhs = self.parse_factor()
            if op == "/":
                if rhs == 0:
                    raise QasmSyntaxError("division by zero in angle", self.tokens[self.pos - 1].line, self.tokens[self.pos - 1].col)
                val = val / rhs
            else:
                val = val * rhs
        return val

    def parse_angle(self) -> float:
        tok = self.peek()
        val = self.parse_expr()
        if not math.isfinite(val):
            raise QasmSyntaxError(f"non-finite angle {val}", tok.line, tok.col)
        return val

    def parse_factor(self) -> float:
        tok = self.next()
        if tok.val in ("-", "+", "("):
            self.depth += 1
            if self.depth > _MAX_EXPR_DEPTH:
                raise QasmSyntaxError(
                    f"angle expression nested deeper than {_MAX_EXPR_DEPTH} levels", tok.line, tok.col
                )
            if tok.val == "(":
                val = self.parse_expr()
                self.expect(")")
            else:
                val = self.parse_factor()
            self.depth -= 1
            return -val if tok.val == "-" else val
        if tok.typ == "NUMBER":
            return float(tok.val)
        if tok.typ == "ID" and tok.val == "pi":
            return math.pi
        raise QasmSyntaxError(f"bad angle expression near {tok.val!r}", tok.line, tok.col)


def _integer(tok: _Token, what: str) -> int:
    if tok.typ != "NUMBER" or not tok.val.isdigit():
        raise QasmSyntaxError(f"expected {what}", tok.line, tok.col)
    try:
        return int(tok.val)
    except ValueError:  # more digits than Python converts to an int
        raise QasmSyntaxError(f"{what} has {len(tok.val)} digits", tok.line, tok.col) from None


def parse_qasm(text: str) -> Circuit:
    """Parse OpenQASM 2.0 source into a :class:`Circuit`."""
    p = _Parser(_tokenize(text))

    tok = p.next()
    if tok.val != "OPENQASM":
        raise QasmSyntaxError("file must start with OPENQASM 2.0", tok.line, tok.col)
    ver = p.next()
    if ver.val != "2.0":
        raise UnsupportedFeatureError(f"unsupported OPENQASM version {ver.val}", ver.line, ver.col)
    p.expect(";")

    qreg: tuple[str, int] | None = None
    creg: tuple[str, int] | None = None
    gates: list[GateApp] = []
    measurements: dict[int, int] = {}

    def parse_decl(keyword: str) -> tuple[str, int]:
        name = p.next()
        if name.typ != "ID":
            raise QasmSyntaxError(f"expected {keyword} name", name.line, name.col)
        p.expect("[")
        size = _integer(p.next(), f"{keyword} size")
        p.expect("]")
        p.expect(";")
        return name.val, size

    def parse_operand(reg: tuple[str, int] | None, what: str) -> tuple[int | None, _Token]:
        """Returns (index, token); index None means whole register."""
        name = p.next()
        if name.typ != "ID":
            raise QasmSyntaxError(f"expected {what} operand", name.line, name.col)
        if reg is None or name.val != reg[0]:
            raise QasmSyntaxError(f"unknown register {name.val!r}", name.line, name.col)
        if p.peek() and p.peek().val == "[":
            p.expect("[")
            idx = p.next()
            i = _integer(idx, "integer index")
            p.expect("]")
            if i >= reg[1]:
                raise QasmSyntaxError(f"index {i} out of range for {reg[0]}[{reg[1]}]", idx.line, idx.col)
            return i, name
        return None, name

    while p.peek() is not None:
        tok = p.next()
        if tok.typ != "ID":
            raise QasmSyntaxError(f"expected statement, got {tok.val!r}", tok.line, tok.col)

        if tok.val == "include":
            path = p.next()
            if path.typ != "STRING":
                raise QasmSyntaxError("expected include path string", path.line, path.col)
            if path.val.strip('"') not in ("qelib1.inc",):
                raise UnsupportedFeatureError(f"unsupported include {path.val}", path.line, path.col)
            p.expect(";")

        elif tok.val == "qreg":
            if qreg is not None:
                raise UnsupportedFeatureError("multiple quantum registers", tok.line, tok.col)
            qreg = parse_decl("qreg")
            if qreg[1] < 1:
                raise QasmSyntaxError("quantum register must have at least one qubit", tok.line, tok.col)

        elif tok.val == "creg":
            if creg is not None:
                raise UnsupportedFeatureError("multiple classical registers", tok.line, tok.col)
            creg = parse_decl("creg")

        elif tok.val in _RESERVED_FEATURES:
            raise UnsupportedFeatureError(f"{tok.val!r} statements are not supported", tok.line, tok.col)

        elif tok.val == "barrier":
            # transparent: consume operands, keep nothing
            if qreg is None:
                raise QasmSyntaxError("barrier before qreg declaration", tok.line, tok.col)
            parse_operand(qreg, "barrier")
            while p.peek() and p.peek().val == ",":
                p.expect(",")
                parse_operand(qreg, "barrier")
            p.expect(";")

        elif tok.val == "measure":
            if qreg is None:
                raise QasmSyntaxError("measure before qreg declaration", tok.line, tok.col)
            qi, _ = parse_operand(qreg, "measure")
            p.expect("->")
            if creg is None:
                raise QasmSyntaxError("measure without classical register", tok.line, tok.col)
            ci, ctok = parse_operand(creg, "measure")
            p.expect(";")
            if qi is None and ci is None:
                if qreg[1] != creg[1]:
                    raise QasmSyntaxError(
                        f"register sizes differ: {qreg[1]} qubits vs {creg[1]} bits", ctok.line, ctok.col
                    )
                for k in range(qreg[1]):
                    measurements[k] = k
            elif qi is not None and ci is not None:
                measurements[qi] = ci
            else:
                raise QasmSyntaxError("measure operands must both be indexed or both whole registers", ctok.line, ctok.col)

        else:
            # gate application
            if tok.val not in GATE_BY_NAME or not GATE_BY_NAME[tok.val].is_unitary:
                raise UnsupportedGateError(f"unsupported gate {tok.val!r}", tok.line, tok.col)
            kind = GATE_BY_NAME[tok.val]
            if qreg is None:
                raise QasmSyntaxError("gate before qreg declaration", tok.line, tok.col)
            params: tuple[float, ...] = ()
            if p.peek() and p.peek().val == "(":
                p.expect("(")
                vals = [p.parse_angle()]
                while p.peek() and p.peek().val == ",":
                    p.expect(",")
                    vals.append(p.parse_angle())
                p.expect(")")
                params = tuple(vals)
            if len(params) != kind.param_count:
                raise QasmSyntaxError(
                    f"{kind.gate_name} expects {kind.param_count} parameter(s), got {len(params)}",
                    tok.line,
                    tok.col,
                )
            operands = [parse_operand(qreg, "gate")]
            while p.peek() and p.peek().val == ",":
                p.expect(",")
                operands.append(parse_operand(qreg, "gate"))
            p.expect(";")
            qubits = [q for q, _ in operands]
            if any(q is None for q in qubits):
                if kind.num_qubits != 1 or len(qubits) != 1:
                    raise UnsupportedFeatureError(
                        "whole-register operands only supported for single-qubit gates", tok.line, tok.col
                    )
                for q in range(qreg[1]):
                    gates.append(GateApp(kind, (q,), params))
            else:
                if len(qubits) != kind.num_qubits:
                    raise QasmSyntaxError(
                        f"{kind.gate_name} expects {kind.num_qubits} qubit(s), got {len(qubits)}",
                        tok.line,
                        tok.col,
                    )
                if len(set(qubits)) != len(qubits):
                    raise QasmSyntaxError(f"{kind.gate_name} qubits must be distinct", tok.line, tok.col)
                gates.append(GateApp(kind, tuple(qubits), params))

    if qreg is None:
        raise QasmSyntaxError("missing qreg declaration", 1, 1)
    return Circuit(
        num_qubits=qreg[1],
        num_clbits=creg[1] if creg else 0,
        gates=tuple(gates),
        measurements=measurements,
    )


def _fmt_angle(v: float) -> str:
    # repr() round-trips float64 exactly, so parse(emit(c)) preserves params
    return repr(float(v))


def emit_qasm(c: Circuit) -> str:
    """Serialize a circuit; parse_qasm(emit_qasm(c)) is gate-for-gate identical."""
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{c.num_qubits}];"]
    if c.num_clbits > 0:
        lines.append(f"creg c[{c.num_clbits}];")
    for g in c.gates:
        args = ",".join(f"q[{q}]" for q in g.qubits)
        if g.params:
            ps = ",".join(_fmt_angle(v) for v in g.params)
            lines.append(f"{g.kind.gate_name}({ps}) {args};")
        else:
            lines.append(f"{g.kind.gate_name} {args};")
    for q in sorted(c.measurements):
        lines.append(f"measure q[{q}] -> c[{c.measurements[q]}];")
    return "\n".join(lines) + "\n"
