"""Recursive-descent parser and evaluator for coordinate expressions.

The language covers the closed forms used to define connection coefficients,
metric components and force terms: decimal literals, named variables, the
functions sin, cos, tan, exp, ln, sqrt and abs, the binary operators
``+ - * / ^`` and unary minus.  ``^`` is right-associative and binds tighter
than unary minus; there is no implicit multiplication.  The full grammar is
spelled out in the README.

Evaluation is generic over the scalar type: plain numbers or jets (module
:mod:`ehresmann.jets`), so one expression yields values or exact derivatives
depending on the environment it is evaluated in.  ``^`` with an integer
literal exponent uses the integer power rule (any base); every other exponent
is evaluated as exp(b*ln(a)) and needs a positive base.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Mapping, Union

from . import jets
from .jets import JetDomainError

FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "abs")

_FUNC_IMPL: dict[str, Callable] = {
    "sin": jets.sin,
    "cos": jets.cos,
    "tan": jets.tan,
    "exp": jets.exp,
    "ln": jets.ln,
    "sqrt": jets.sqrt,
    "abs": abs,
}


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Const, Var, Neg, BinOp, Call]


class ParseError(Exception):
    """Syntax error carrying the byte offset and what was expected/found."""

    def __init__(self, offset: int, expected: str, found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(
            f"parse error at offset {offset}: expected {expected}, found {found}")


class EvalError(Exception):
    """Base class for evaluation failures."""


class UnboundVariableError(EvalError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound variable {name!r}")


class EvalDomainError(EvalError):
    def __init__(self, operation: str, subexpression: str, detail: str = ""):
        self.operation = operation
        self.subexpression = subexpression
        message = f"domain error in {operation!r} at {subexpression!r}"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>[+\-*/^()])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(pos, "a number, name or operator", repr(text[pos]))
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def _peek(self):
        return self.tokens[self.i]

    def _take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _found(self) -> str:
        kind, text, _ = self._peek()
        return "end of input" if kind == "end" else repr(text)

    def _expect(self, op: str):
        kind, text, off = self._peek()
        if kind == "op" and text == op:
            return self._take()
        raise ParseError(off, repr(op), self._found())

    def parse(self) -> Expr:
        node = self.expr()
        kind, _, off = self._peek()
        if kind != "end":
            raise ParseError(off, "end of input", self._found())
        return node

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, text, _ = self._peek()
            if kind == "op" and text in "+-":
                self._take()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, text, _ = self._peek()
            if kind == "op" and text in "*/":
                self._take()
                node = BinOp(text, node, self.unary())
            else:
                return node

    def unary(self) -> Expr:
        kind, text, _ = self._peek()
        if kind == "op" and text == "-":
            self._take()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, _ = self._peek()
        if kind == "op" and text == "^":
            self._take()
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        kind, text, off = self._peek()
        if kind == "num":
            self._take()
            return Const(float(text))
        if kind == "name":
            self._take()
            nk, nt, _ = self._peek()
            if nk == "op" and nt == "(":
                if text not in FUNCTIONS:
                    raise ParseError(
                        off, "one of " + ", ".join(FUNCTIONS), repr(text))
                self._take()
                arg = self.expr()
                self._expect(")")
                return Call(text, arg)
            return Var(text)
        if kind == "op" and text == "(":
            self._take()
            node = self.expr()
            self._expect(")")
            return node
        raise ParseError(off, "a number, name or '('", self._found())


def parse(text: str) -> Expr:
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise ParseError(0, "an expression nested less deeply",
                         "nesting beyond the recursion limit") from None


def _int_literal(node: Expr):
    """The exponent as an int when it is written as an integer literal."""
    if isinstance(node, Const) and float(node.value).is_integer():
        return int(node.value)
    if isinstance(node, Neg):
        inner = _int_literal(node.operand)
        if inner is not None:
            return -inner
    return None


def evaluate(node: Expr, env: Mapping[str, object]):
    """Evaluate over any scalar field (plain numbers or jets)."""
    kind = type(node)
    if kind is Const:
        return node.value
    if kind is Var:
        try:
            return env[node.name]
        except KeyError:
            raise UnboundVariableError(node.name) from None
    if kind is Neg:
        return -evaluate(node.operand, env)
    if kind is BinOp:
        left = evaluate(node.left, env)
        if node.op == "^":
            n = _int_literal(node.right)
            try:
                if n is not None:
                    return jets.ipow(left, n)
                right = evaluate(node.right, env)
                return jets.pow_general(left, right)
            except JetDomainError as exc:
                raise EvalDomainError(exc.operation, to_string(node),
                                      exc.detail) from None
            except ZeroDivisionError:
                raise EvalDomainError("^", to_string(node),
                                      "zero base with negative exponent") from None
            except OverflowError:
                raise EvalDomainError("^", to_string(node),
                                      "result out of range") from None
        right = evaluate(node.right, env)
        try:
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            if node.op == "/":
                return left / right
        except ZeroDivisionError:
            raise EvalDomainError("/", to_string(node),
                                  "division by zero") from None
        except JetDomainError as exc:
            raise EvalDomainError(exc.operation, to_string(node),
                                  exc.detail) from None
        raise ValueError(f"unknown operator {node.op!r}")
    if kind is Call:
        arg = evaluate(node.arg, env)
        try:
            return _FUNC_IMPL[node.func](arg)
        except JetDomainError as exc:
            raise EvalDomainError(exc.operation, to_string(node),
                                  exc.detail) from None
        except (ValueError, OverflowError) as exc:
            raise EvalDomainError(node.func, to_string(node), str(exc)) from None
    raise TypeError(f"not an expression node: {node!r}")


def free_vars(node: Expr) -> list[str]:
    """Variable names in first-appearance order."""
    seen: dict[str, None] = {}

    def walk(n):
        t = type(n)
        if t is Var:
            seen.setdefault(n.name)
        elif t is Neg:
            walk(n.operand)
        elif t is BinOp:
            walk(n.left)
            walk(n.right)
        elif t is Call:
            walk(n.arg)

    walk(node)
    return list(seen)


_BIN_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _prec(node: Expr) -> int:
    t = type(node)
    if t is BinOp:
        return _BIN_PREC[node.op]
    if t is Neg:
        return 3
    if t is Const and node.value < 0:
        return 3  # prints with a leading minus
    return 5


def _fmt(node: Expr, context: int) -> str:
    t = type(node)
    if t is Const:
        s = repr(node.value) if isinstance(node.value, float) else str(node.value)
    elif t is Var:
        s = node.name
    elif t is Call:
        s = f"{node.func}({_fmt(node.arg, 0)})"
    elif t is Neg:
        s = "-" + _fmt(node.operand, 3)
    else:
        p = _BIN_PREC[node.op]
        if node.op == "^":
            # grammar: power := atom '^' unary
            s = _fmt(node.left, 5) + "^" + _fmt(node.right, 3)
        else:
            s = _fmt(node.left, p) + node.op + _fmt(node.right, p + 1)
    return "(" + s + ")" if _prec(node) < context else s


def to_string(node: Expr) -> str:
    """Print with minimal parentheses; parse(to_string(e)) returns e."""
    return _fmt(node, 0)
