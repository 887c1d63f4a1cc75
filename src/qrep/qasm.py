"""OpenQASM 2.0 load/store for the supported gate catalog.

Accepts the qelib1-style subset used by the benchmark circuits: one quantum
register, at most one classical register, indexed or whole-register gate
operands, and constant angle expressions (numbers, pi, + - * /, parentheses,
unary minus). Gate definitions, opaque declarations, conditionals and resets
are rejected rather than skipped. Barriers parse but are dropped: they have
no effect on simulation and patch positions index only quantum gates.

One regex pass splits the comment-free source into ``(type, text, offset)``
tokens; a line and column are worked out from an offset only for an error.
"""
from __future__ import annotations

import math
import re
from typing import Callable, TypeVar

from .circuit import GATE_BY_NAME, Circuit, GateApp
from .errors import QasmError, QasmSyntaxError, UnsupportedFeatureError, UnsupportedGateError

# numbers use ASCII digits only, as in the OpenQASM 2.0 grammar; any other
# character no group takes, a non-ASCII digit included, is BAD
_TOKEN_RE = re.compile(
    r"""
      (?P<ID>     [A-Za-z_][A-Za-z0-9_]*)
    | (?P<NUMBER> (?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?)
    | (?P<STRING> "[^"]*")
    | (?P<ARROW>  ->)
    | (?P<SYM>    [{}\[\](),;+\-*/^=<>])
    | (?P<SKIP>   \s+)
    | (?P<BAD>    .)
    """,
    re.VERBOSE,
)

_RESERVED_FEATURES = {"gate", "opaque", "if", "reset"}
_REGISTER_KINDS = {"qreg": "quantum", "creg": "classical"}

# parentheses and unary signs an angle expression may nest; the parser
# recurses once per level, so deeper input would exhaust the Python stack
_MAX_EXPR_DEPTH = 64

_T = TypeVar("_T")


class _Parser:
    """Recursive descent over the tokens of one source."""

    def __init__(self, text: str):
        # comments go before tokenising, so a "//" inside a string starts one too
        self.src = re.sub(r"//[^\n]*", "", text)
        self.tokens: list[tuple[str, str, int]] = []
        self.pos = 0
        self.depth = 0  # open parentheses and unary signs around the current factor
        for m in _TOKEN_RE.finditer(self.src):
            typ = m.lastgroup
            if typ == "BAD":  # before parsing, so it wins over an earlier syntax error
                raise self.error(f"unexpected character {m.group()!r}", m.start())
            if typ != "SKIP":
                self.tokens.append((typ, m.group(), m.start()))

    def error(self, message: str, off: int | None = None, cls: type[QasmError] = QasmSyntaxError) -> QasmError:
        """``cls`` at source offset ``off``, by default that of the last token taken."""
        if off is None:
            off = self.tokens[self.pos - 1][2] if self.pos else 0
        line = self.src.count("\n", 0, off) + 1
        return cls(message, line, off - self.src.rfind("\n", 0, off))

    def next(self) -> tuple[str, str, int]:
        if self.pos == len(self.tokens):
            raise self.error("unexpected end of input")
        self.pos += 1
        return self.tokens[self.pos - 1]

    def take(self, *texts: str) -> str | None:
        """The next token's text, taken if it is one of ``texts``; else None."""
        if self.pos < len(self.tokens) and self.tokens[self.pos][1] in texts:
            self.pos += 1
            return self.tokens[self.pos - 1][1]
        return None

    def expect(self, text: str) -> None:
        got = self.next()[1]
        if got != text:
            raise self.error(f"expected {text!r}, got {got!r}")

    def comma_list(self, item: Callable[[], _T]) -> list[_T]:
        """One or more ``item()`` results separated by commas."""
        items = [item()]
        while self.take(","):
            items.append(item())
        return items

    # --- angle expressions: term-level precedence with unary minus ---

    def parse_expr(self) -> float:
        val = self.parse_term()
        while op := self.take("+", "-"):
            rhs = self.parse_term()
            val = val + rhs if op == "+" else val - rhs
        return val

    def parse_term(self) -> float:
        val = self.parse_factor()
        while op := self.take("*", "/"):
            rhs = self.parse_factor()
            if op == "/" and rhs == 0:
                raise self.error("division by zero in angle")
            val = val * rhs if op == "*" else val / rhs
        return val

    def parse_angle(self) -> float:
        start = self.pos
        val = self.parse_expr()
        if not math.isfinite(val):
            raise self.error(f"non-finite angle {val}", self.tokens[start][2])
        return val

    def parse_factor(self) -> float:
        typ, text, _ = self.next()
        if text in ("-", "+", "("):
            self.depth += 1
            if self.depth > _MAX_EXPR_DEPTH:
                raise self.error(f"angle expression nested deeper than {_MAX_EXPR_DEPTH} levels")
            if text == "(":
                val = self.parse_expr()
                self.expect(")")
            else:
                val = self.parse_factor()
            self.depth -= 1
            return -val if text == "-" else val
        if typ == "NUMBER":
            return float(text)
        if text == "pi":
            return math.pi
        raise self.error(f"bad angle expression near {text!r}")

    def integer(self, what: str) -> int:
        typ, text, _ = self.next()
        if typ != "NUMBER" or not text.isdigit():
            raise self.error(f"expected {what}")
        try:
            return int(text)
        except ValueError:  # more digits than Python converts to an int
            raise self.error(f"{what} has {len(text)} digits") from None

    def parse_operand(self, reg: tuple[str, int] | None, what: str) -> tuple[int | None, int]:
        """(index, offset of the register name); index None means the whole register."""
        typ, name, at = self.next()
        if typ != "ID":
            raise self.error(f"expected {what} operand")
        if reg is None or name != reg[0]:
            raise self.error(f"unknown register {name!r}")
        if not self.take("["):
            return None, at
        i = self.integer("integer index")
        i_at = self.tokens[self.pos - 1][2]
        self.expect("]")
        if i >= reg[1]:
            raise self.error(f"index {i} out of range for {reg[0]}[{reg[1]}]", i_at)
        return i, at

    def parse_gate(self, name: str, at: int, qreg: tuple[str, int] | None) -> list[GateApp]:
        """The applications of one gate statement whose name is at offset ``at``."""
        kind = GATE_BY_NAME.get(name)
        if kind is None:
            raise self.error(f"unsupported gate {name!r}", cls=UnsupportedGateError)
        if qreg is None:
            raise self.error("gate before qreg declaration")
        params: tuple[float, ...] = ()
        if self.take("("):
            params = tuple(self.comma_list(self.parse_angle))
            self.expect(")")
        if len(params) != kind.param_count:
            raise self.error(f"{kind.gate_name} expects {kind.param_count} parameter(s), got {len(params)}", at)
        qubits = [q for q, _ in self.comma_list(lambda: self.parse_operand(qreg, "gate"))]
        self.expect(";")
        if None in qubits:
            if kind.num_qubits != 1 or len(qubits) != 1:
                raise self.error(
                    "whole-register operands only supported for single-qubit gates", at, UnsupportedFeatureError
                )
            return [GateApp(kind, (q,), params) for q in range(qreg[1])]
        if len(qubits) != kind.num_qubits:
            raise self.error(f"{kind.gate_name} expects {kind.num_qubits} qubit(s), got {len(qubits)}", at)
        if len(set(qubits)) != len(qubits):
            raise self.error(f"{kind.gate_name} qubits must be distinct", at)
        return [GateApp(kind, tuple(qubits), params)]

    def parse(self) -> Circuit:
        if self.next()[1] != "OPENQASM":
            raise self.error("file must start with OPENQASM 2.0")
        version = self.next()[1]
        if version != "2.0":
            raise self.error(f"unsupported OPENQASM version {version}", cls=UnsupportedFeatureError)
        self.expect(";")

        regs: dict[str, tuple[str, int] | None] = dict.fromkeys(_REGISTER_KINDS)
        gates: list[GateApp] = []
        measurements: dict[int, int] = {}
        while self.pos < len(self.tokens):
            typ, word, at = self.next()
            qreg, creg = regs["qreg"], regs["creg"]
            if typ != "ID":
                raise self.error(f"expected statement, got {word!r}")

            if word == "include":
                typ, path, _ = self.next()
                if typ != "STRING":
                    raise self.error("expected include path string")
                if path.strip('"') not in ("qelib1.inc",):
                    raise self.error(f"unsupported include {path}", cls=UnsupportedFeatureError)
                self.expect(";")

            elif word in regs:
                if regs[word] is not None:
                    raise self.error(f"multiple {_REGISTER_KINDS[word]} registers", cls=UnsupportedFeatureError)
                typ, name, _ = self.next()
                if typ != "ID":
                    raise self.error(f"expected {word} name")
                self.expect("[")
                regs[word] = name, self.integer(f"{word} size")
                self.expect("]")
                self.expect(";")
                if word == "qreg" and regs[word][1] < 1:
                    raise self.error("quantum register must have at least one qubit", at)

            elif word in _RESERVED_FEATURES:
                raise self.error(f"{word!r} statements are not supported", cls=UnsupportedFeatureError)

            elif word == "barrier":
                # transparent: consume operands, keep nothing
                if qreg is None:
                    raise self.error("barrier before qreg declaration")
                self.comma_list(lambda: self.parse_operand(qreg, "barrier"))
                self.expect(";")

            elif word == "measure":
                if qreg is None:
                    raise self.error("measure before qreg declaration")
                qi, _ = self.parse_operand(qreg, "measure")
                self.expect("->")
                if creg is None:
                    raise self.error("measure without classical register", at)
                ci, c_at = self.parse_operand(creg, "measure")
                self.expect(";")
                if qi is None and ci is None:
                    if qreg[1] != creg[1]:
                        raise self.error(f"register sizes differ: {qreg[1]} qubits vs {creg[1]} bits", c_at)
                    measurements.update((k, k) for k in range(qreg[1]))
                elif qi is not None and ci is not None:
                    measurements[qi] = ci
                else:
                    raise self.error("measure operands must both be indexed or both whole registers", c_at)

            else:
                gates += self.parse_gate(word, at, qreg)

        qreg, creg = regs["qreg"], regs["creg"]
        if qreg is None:
            raise self.error("missing qreg declaration", 0)
        return Circuit(qreg[1], creg[1] if creg else 0, tuple(gates), measurements)


def parse_qasm(text: str) -> Circuit:
    """Parse OpenQASM 2.0 source into a :class:`Circuit`."""
    return _Parser(text).parse()


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
