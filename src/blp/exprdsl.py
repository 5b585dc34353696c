"""A small expression language for univariate parameter functions.

Solution families are parameterized by arbitrary smooth functions of one
variable (functions of ``t`` or of ``y``, occasionally of ``x``).  Users
supply them as text, e.g. ``"2*t + sin(t)^2"``.  Parsed expressions
evaluate over plain floats or over :class:`blp.jets.Jet3` values, and
support exact symbolic differentiation, which the Lie-algebra layer needs
for commutators.

Grammar: ``+ - * / ^`` with standard precedence (``^`` right-associative,
binding tighter than unary minus), parentheses, single-argument function
calls (exp, ln, sin, cos, tan, sinh, cosh, sqrt, abs) and the named
constants ``pi`` and ``e``.  No implicit multiplication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import jets
from .jets import DomainError, Jet3, Point

__all__ = ["Expr", "ParseError", "parse", "eval_jet",
           "Num", "Var", "Bin", "Neg", "Call"]

_FUNCTIONS = ("exp", "ln", "sin", "cos", "tan", "sinh", "cosh", "sqrt", "abs")
_CONSTANTS = {"pi": math.pi, "e": math.e}


class ParseError(ValueError):
    def __init__(self, position: int, message: str):
        super().__init__(f"parse error at offset {position}: {message}")
        self.position = position
        self.message = message


# ----------------------------------------------------------------------
# expression tree
# ----------------------------------------------------------------------

class Expr:
    """Base class; concrete nodes below.  Immutable and hashable-free."""

    var_name: str

    def __call__(self, value):
        return _eval(self, value)

    def diff(self) -> "Expr":
        return _diff(self)

    def subst(self, replacement: "Expr") -> "Expr":
        """Replace the bound variable by another expression tree."""
        return _subst(self, replacement)

    def pretty(self) -> str:
        return _pretty(self, 0)

    def __repr__(self):
        return f"Expr({self.pretty()!r}, var={self.var_name!r})"


@dataclass(frozen=True, repr=False)
class Num(Expr):
    value: float
    var_name: str = ""


@dataclass(frozen=True, repr=False)
class Var(Expr):
    var_name: str


@dataclass(frozen=True, repr=False)
class Bin(Expr):
    op: str
    left: Expr
    right: Expr
    var_name: str


@dataclass(frozen=True, repr=False)
class Neg(Expr):
    arg: Expr
    var_name: str


@dataclass(frozen=True, repr=False)
class Call(Expr):
    fn: str
    arg: Expr
    var_name: str


# ----------------------------------------------------------------------
# tokenizer / recursive-descent parser
# ----------------------------------------------------------------------

@dataclass
class _Tok:
    kind: str  # num, ident, op, lparen, rparen, end
    text: str
    pos: int


def _tokenize(src: str) -> list[_Tok]:
    toks = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (src[j].isdigit() or (src[j] == "." and not seen_dot)):
                if src[j] == ".":
                    seen_dot = True
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            toks.append(_Tok("num", src[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(_Tok("ident", src[i:j], i))
            i = j
            continue
        if c in "+-*/^":
            toks.append(_Tok("op", c, i))
            i += 1
            continue
        if c == "(":
            toks.append(_Tok("lparen", c, i))
            i += 1
            continue
        if c == ")":
            toks.append(_Tok("rparen", c, i))
            i += 1
            continue
        raise ParseError(i, f"unexpected character {c!r}")
    toks.append(_Tok("end", "", n))
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok], var_name: str):
        self.toks = toks
        self.k = 0
        self.var = var_name

    def peek(self) -> _Tok:
        return self.toks[self.k]

    def next(self) -> _Tok:
        tok = self.toks[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str, what: str) -> _Tok:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(tok.pos, f"expected {what}")
        return tok

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            node = Bin(op, node, self.term(), self.var)
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            node = Bin(op, node, self.unary(), self.var)
        return node

    def unary(self) -> Expr:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.next()
            inner = self.unary()
            if isinstance(inner, Num):
                # normal form: negated literals fold into the constant
                return Num(-inner.value, self.var)
            return Neg(inner, self.var)
        if self.peek().kind == "op" and self.peek().text == "+":
            self.next()
            return self.unary()
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.next()
            return Bin("^", node, self.unary(), self.var)
        return node

    def atom(self) -> Expr:
        tok = self.next()
        if tok.kind == "num":
            return Num(float(tok.text), self.var)
        if tok.kind == "lparen":
            node = self.expr()
            self.expect("rparen", "')'")
            return node
        if tok.kind == "ident":
            if self.peek().kind == "lparen":
                if tok.text not in _FUNCTIONS:
                    raise ParseError(tok.pos, f"unknown function {tok.text!r}")
                self.next()
                arg = self.expr()
                self.expect("rparen", "')'")
                return Call(tok.text, arg, self.var)
            if tok.text == self.var:
                return Var(self.var)
            if tok.text in _CONSTANTS:
                return Num(_CONSTANTS[tok.text], self.var)
            raise ParseError(tok.pos, f"unknown identifier {tok.text!r}")
        raise ParseError(tok.pos, "expected a number, identifier or '('")


def parse(src: str, var_name: str) -> Expr:
    """Parse ``src`` with exactly one free variable named ``var_name``."""
    if not src or not src.strip():
        raise ParseError(0, "empty expression")
    p = _Parser(_tokenize(src), var_name)
    node = p.expr()
    tok = p.peek()
    if tok.kind != "end":
        raise ParseError(tok.pos, f"unexpected trailing input {tok.text!r}")
    return node


# ----------------------------------------------------------------------
# evaluation (floats and jets), printing, differentiation
# ----------------------------------------------------------------------

_CALL_JET = {
    "exp": "exp", "ln": "ln", "sin": "sin", "cos": "cos", "tan": "tan",
    "sinh": "sinh", "cosh": "cosh", "sqrt": "sqrt", "abs": "abs_signed",
}

_CALL_FLOAT = {
    "exp": math.exp, "sin": math.sin, "cos": math.cos,
    "sinh": math.sinh, "cosh": math.cosh,
}


def _eval(e: Expr, x):
    if isinstance(e, Num):
        if isinstance(x, Jet3):
            return Jet3.constant(e.value, x.base, x.order)
        return e.value
    if isinstance(e, Var):
        return x
    if isinstance(e, Neg):
        return -_eval(e.arg, x)
    if isinstance(e, Bin):
        lv = _eval(e.left, x)
        rv = _eval(e.right, x)
        if e.op == "+":
            return lv + rv
        if e.op == "-":
            return lv - rv
        if e.op == "*":
            return lv * rv
        if e.op == "/":
            if isinstance(rv, Jet3) or isinstance(lv, Jet3):
                return lv / rv
            if abs(rv) < jets.GUARD * (1.0 + abs(lv)):
                raise DomainError("division by (near-)zero value")
            return lv / rv
        if e.op == "^":
            return jets.power(lv, rv)
        raise AssertionError(e.op)
    if isinstance(e, Call):
        av = _eval(e.arg, x)
        if isinstance(av, Jet3):
            return jets.apply_unary(_CALL_JET[e.fn], av)
        if e.fn == "ln":
            return jets.ln(av)
        if e.fn == "tan":
            return jets.tan(av)
        if e.fn == "sqrt":
            return jets.sqrt(av)
        if e.fn == "abs":
            return jets.abs_signed(av)
        return _CALL_FLOAT[e.fn](av)
    raise AssertionError(type(e))


def eval_jet(e: Expr, which: str, at: Point, order: int) -> Jet3:
    """Jet of the univariate function, constant in the other two variables."""
    return _eval(e, jets.lift_variable(which, at, order))


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _pretty(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Num):
        s = repr(e.value)
        if s.startswith("-"):
            # negative literal (including -0.0) acts like a unary-minus node
            return f"({s})" if parent_prec > _PREC["neg"] else s
        return s
    if isinstance(e, Var):
        return e.var_name
    if isinstance(e, Neg):
        inner = _pretty(e.arg, _PREC["neg"])
        s = f"-{inner}"
        return f"({s})" if parent_prec > _PREC["neg"] else s
    if isinstance(e, Call):
        return f"{e.fn}({_pretty(e.arg, 0)})"
    if isinstance(e, Bin):
        prec = _PREC[e.op]
        if e.op == "^":
            # right-associative; left operand needs strict parenthesization
            ls = _pretty(e.left, prec + 1)
            rs = _pretty(e.right, prec)
        else:
            ls = _pretty(e.left, prec)
            rs = _pretty(e.right, prec + 1)
        s = f"{ls} {e.op} {rs}" if e.op in "+-" else f"{ls}{e.op}{rs}"
        return f"({s})" if parent_prec > prec else s
    raise AssertionError(type(e))


def _subst(e: Expr, repl: Expr) -> Expr:
    if isinstance(e, Num):
        return Num(e.value, repl.var_name)
    if isinstance(e, Var):
        return repl
    if isinstance(e, Neg):
        return Neg(_subst(e.arg, repl), repl.var_name)
    if isinstance(e, Bin):
        return Bin(e.op, _subst(e.left, repl), _subst(e.right, repl),
                   repl.var_name)
    if isinstance(e, Call):
        return Call(e.fn, _subst(e.arg, repl), repl.var_name)
    raise AssertionError(type(e))


def _mk(op, l, r, v):
    return Bin(op, l, r, v)


def _diff(e: Expr) -> Expr:
    v = e.var_name
    zero, one = Num(0.0, v), Num(1.0, v)
    if isinstance(e, Num):
        return zero
    if isinstance(e, Var):
        return one
    if isinstance(e, Neg):
        return Neg(_diff(e.arg), v)
    if isinstance(e, Bin):
        f, g = e.left, e.right
        df, dg = _diff(f), _diff(g)
        if e.op == "+":
            return _mk("+", df, dg, v)
        if e.op == "-":
            return _mk("-", df, dg, v)
        if e.op == "*":
            return _mk("+", _mk("*", df, g, v), _mk("*", f, dg, v), v)
        if e.op == "/":
            num = _mk("-", _mk("*", df, g, v), _mk("*", f, dg, v), v)
            return _mk("/", num, _mk("^", g, Num(2.0, v), v), v)
        if e.op == "^":
            if isinstance(g, Num):
                # r * f^(r-1) * f'
                return _mk("*", _mk("*", g, _mk("^", f, Num(g.value - 1, v), v), v), df, v)
            # f^g * (g' ln f + g f'/f)
            t1 = _mk("*", dg, Call("ln", f, v), v)
            t2 = _mk("/", _mk("*", g, df, v), f, v)
            return _mk("*", e, _mk("+", t1, t2, v), v)
        raise AssertionError(e.op)
    if isinstance(e, Call):
        u, du = e.arg, _diff(e.arg)
        if e.fn == "exp":
            return _mk("*", e, du, v)
        if e.fn == "ln":
            return _mk("/", du, u, v)
        if e.fn == "sin":
            return _mk("*", Call("cos", u, v), du, v)
        if e.fn == "cos":
            return Neg(_mk("*", Call("sin", u, v), du, v), v)
        if e.fn == "tan":
            sec2 = _mk("+", one, _mk("^", Call("tan", u, v), Num(2.0, v), v), v)
            return _mk("*", sec2, du, v)
        if e.fn == "sinh":
            return _mk("*", Call("cosh", u, v), du, v)
        if e.fn == "cosh":
            return _mk("*", Call("sinh", u, v), du, v)
        if e.fn == "sqrt":
            return _mk("/", du, _mk("*", Num(2.0, v), e, v), v)
        if e.fn == "abs":
            return _mk("*", _mk("/", u, e, v), du, v)
        raise AssertionError(e.fn)
    raise AssertionError(type(e))
