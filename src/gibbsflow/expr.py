"""Tiny closed-form expression language for map branches, roofs and potentials.

Grammar (precedence climbing):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | atom ("^" INT)?
    atom   := NUMBER | VAR | "pi" | FUNC "(" expr ")" | "(" expr ")"
    FUNC   := "sin" | "cos" | "exp" | "log"

Expressions are immutable trees with structural equality, an exact
symbolic derivative, and numpy-vectorised evaluation.  No simplification
pass beyond folding of multiplicative/additive identities produced by
differentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr", "Num", "Pi", "Var", "Add", "Sub", "Mul", "Div", "Pow", "Neg",
    "Call", "ParseError", "UnknownIdentifierError", "DomainError",
    "parse", "differentiate", "compile_expr", "is_constant",
]


class ParseError(ValueError):
    """Syntax error; ``offset`` is the 1-based character position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    pass


class DomainError(ValueError):
    """Evaluation left the real domain (log of a non-positive number)."""


@dataclass(frozen=True)
class Expr:
    """An expression node."""


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Pi(Expr):
    pass


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr


_FUNCS = ("sin", "cos", "exp", "log")


class _Parser:
    def __init__(self, src: str, variables: tuple[str, ...]):
        self.src = src
        self.pos = 0
        self.variables = variables

    def error(self, msg: str, pos: int | None = None) -> ParseError:
        where = self.pos if pos is None else pos
        return ParseError(msg, where + 1)

    def skip_ws(self) -> None:
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected '{ch}'")
        self.pos += 1

    def parse(self) -> Expr:
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.src):
            raise self.error("unexpected trailing input")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            c = self.peek()
            if c == "+":
                self.pos += 1
                e = Add(e, self.term())
            elif c == "-":
                self.pos += 1
                e = Sub(e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            c = self.peek()
            if c == "*":
                self.pos += 1
                e = Mul(e, self.factor())
            elif c == "/":
                self.pos += 1
                e = Div(e, self.factor())
            else:
                return e

    def factor(self) -> Expr:
        if self.peek() == "-":
            self.pos += 1
            return Neg(self.factor())
        e = self.atom()
        if self.peek() == "^":
            self.pos += 1
            e = Pow(e, self.integer())
        return e

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while self.pos < len(self.src) and self.src[self.pos].isdigit():
            self.pos += 1
        tok = self.src[start:self.pos]
        if not tok or tok == "-":
            raise self.error("expected integer exponent", start)
        return int(tok)

    def atom(self) -> Expr:
        c = self.peek()
        if c == "":
            raise self.error("expected expression")
        if c == "(":
            self.pos += 1
            e = self.expr()
            self.expect(")")
            return e
        if c.isdigit() or c == ".":
            return self.number()
        if c.isalpha():
            return self.identifier()
        raise self.error(f"unexpected character '{c}'")

    def number(self) -> Num:
        start = self.pos
        s = self.src
        while self.pos < len(s) and s[self.pos].isdigit():
            self.pos += 1
        if self.pos < len(s) and s[self.pos] == ".":
            self.pos += 1
            while self.pos < len(s) and s[self.pos].isdigit():
                self.pos += 1
        if self.pos < len(s) and s[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(s) and s[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(s) and s[self.pos].isdigit():
                while self.pos < len(s) and s[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # bare 'e' belongs to the next token, reject later
        tok = s[start:self.pos]
        try:
            return Num(float(tok))
        except ValueError:
            raise self.error("malformed number", start) from None

    def identifier(self) -> Expr:
        start = self.pos
        s = self.src
        while self.pos < len(s) and (s[self.pos].isalnum() or s[self.pos] == "_"):
            self.pos += 1
        name = s[start:self.pos]
        if name == "pi":
            return Pi()
        if name in self.variables:
            return Var(name)
        if name in _FUNCS:
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return Call(name, arg)
        raise UnknownIdentifierError(f"unknown identifier '{name}'", start + 1)


def parse(src: str, variables: tuple[str, ...] = ("x",)) -> Expr:
    """Parse ``src`` into an expression tree.

    Raises ParseError (with 1-based ``offset``) on malformed input and
    UnknownIdentifierError for names outside ``variables`` + {pi, funcs}.
    """
    return _Parser(src, variables).parse()


def _emit(e: Expr, consts: list) -> str:
    """Python source for ``e``; operands are emitted in the evaluation order
    of the expression tree, so values match a node-by-node evaluation."""
    if isinstance(e, Num):
        consts.append(e.value)
        return f"_c{len(consts) - 1}"
    if isinstance(e, Pi):
        return "_pi"
    if isinstance(e, Var):
        return f"env[{e.name!r}]"
    if isinstance(e, (Add, Sub, Mul)):
        op = {Add: "+", Sub: "-", Mul: "*"}[type(e)]
        return f"({_emit(e.left, consts)} {op} {_emit(e.right, consts)})"
    if isinstance(e, Div):
        return f"_divide({_emit(e.left, consts)}, {_emit(e.right, consts)})"
    if isinstance(e, Pow):
        return f"_power({_emit(e.base, consts)}, {float(e.exponent)!r})"
    if isinstance(e, Neg):
        return f"(-{_emit(e.operand, consts)})"
    if isinstance(e, Call):
        return f"_{e.func}({_emit(e.arg, consts)})"
    raise TypeError(f"not an Expr: {e!r}")


def _log(a):
    if np.any(np.asarray(a) <= 0):
        raise DomainError("log of a non-positive value")
    return np.log(a)


_NAMESPACE = {"_pi": math.pi, "_divide": np.divide, "_power": np.power,
              "_sin": np.sin, "_cos": np.cos, "_exp": np.exp, "_log": _log,
              "_errstate": np.errstate}


def compile_expr(e: Expr):
    """Compile to one generated numpy function ``f(**env)`` accepting floats
    or numpy arrays.

    Division and integer powers follow numpy for scalars as for arrays: a
    zero divisor gives inf or nan, without a warning.
    """
    consts: list[float] = []
    body = _emit(e, consts)
    if "_divide(" in body or "_power(" in body:
        body = ("with _errstate(divide='ignore', invalid='ignore'):\n"
                f"        return {body}")
    else:
        body = f"return {body}"
    namespace = dict(_NAMESPACE)
    namespace.update((f"_c{k}", v) for k, v in enumerate(consts))
    exec(f"def compiled(**env):\n    {body}\n", namespace)
    return namespace["compiled"]


def is_constant(e: Expr) -> bool:
    """Whether e names no variable, so its compiled function gives one number."""
    return not isinstance(e, Var) and all(
        is_constant(v) for v in vars(e).values() if isinstance(v, Expr))


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Num) and e.value == 0.0


def _is_one(e: Expr) -> bool:
    return isinstance(e, Num) and e.value == 1.0


def _add(a: Expr, b: Expr) -> Expr:
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_zero(b):
        return a
    if _is_zero(a):
        return Neg(b)
    return Sub(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_zero(a) or _is_zero(b):
        return Num(0.0)
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return Mul(a, b)


def differentiate(e: Expr) -> Expr:
    """Exact symbolic derivative with respect to x."""
    if isinstance(e, (Num, Pi)):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0) if e.name == "x" else Num(0.0)
    if isinstance(e, Add):
        return _add(differentiate(e.left), differentiate(e.right))
    if isinstance(e, Sub):
        return _sub(differentiate(e.left), differentiate(e.right))
    if isinstance(e, Mul):
        return _add(_mul(differentiate(e.left), e.right),
                    _mul(e.left, differentiate(e.right)))
    if isinstance(e, Div):
        num = _sub(_mul(differentiate(e.left), e.right),
                   _mul(e.left, differentiate(e.right)))
        if _is_zero(num):
            return Num(0.0)
        return Div(num, Pow(e.right, 2))
    if isinstance(e, Pow):
        db = differentiate(e.base)
        if e.exponent == 0 or _is_zero(db):
            return Num(0.0)
        if e.exponent == 1:
            return db
        inner = e.base if e.exponent == 2 else Pow(e.base, e.exponent - 1)
        return _mul(Num(float(e.exponent)), _mul(inner, db))
    if isinstance(e, Neg):
        d = differentiate(e.operand)
        return Num(0.0) if _is_zero(d) else Neg(d)
    if isinstance(e, Call):
        d = differentiate(e.arg)
        if _is_zero(d):
            return Num(0.0)
        if e.func == "sin":
            return _mul(Call("cos", e.arg), d)
        if e.func == "cos":
            return Neg(_mul(Call("sin", e.arg), d))
        if e.func == "exp":
            return _mul(Call("exp", e.arg), d)
        if e.func == "log":
            return Div(d, e.arg)
    raise TypeError(f"not an Expr: {e!r}")
