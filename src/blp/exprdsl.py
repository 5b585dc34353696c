"""A small expression language for univariate parameter functions.

Solution families are parameterized by arbitrary smooth functions of one
variable (functions of ``t`` or of ``y``, occasionally of ``x``).  Users
supply them as text, e.g. ``"2*t + sin(t)^2"``.  Parsed expressions
evaluate on plain floats (calling one, or :func:`sample` at many points in
one walk of the tree) and on univariate Taylor series (:mod:`blp.series`):
:func:`compose_series` of a series, :func:`eval_series` at a coordinate
value and :func:`eval_jet`, which places that series on the axis of the
variable that each node of the tree names.  They support exact symbolic
differentiation, which the Lie-algebra layer needs for commutators: each
node builds its derivative once and keeps it, so nested brackets share
f', f'', ... as the same trees, and :func:`parse` keeps its last 256
trees, so one text is parsed once.
Derivatives, brackets and compositions are built by one folding
constructor, :func:`_mk`, so the nodes they add hold no zero term and no
power 1 or 0.
Every form reads the float form and the guard of each function from
``jets._ELEMENTARY``.

Grammar: finite numbers written in decimal digits (``2``, ``.5``,
``1.5e-3``), ``+ - * / ^`` with standard precedence (``^``
right-associative, binding tighter than unary minus), parentheses,
single-argument function calls (exp, ln, sin, cos, tan, sinh, cosh, sqrt,
abs) and the named constants ``pi`` and ``e``.  No implicit
multiplication.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import jets, series
from .jets import BadInput, Jet3, Point

__all__ = ["Expr", "ParseError", "parse", "as_expr", "sample", "eval_jet",
           "eval_series", "compose_series", "Num", "Var", "Bin", "Neg",
           "Call"]

#: each function of the language, and the name of the :mod:`blp.jets`
#: function that evaluates it
_CALL_JET = {
    "exp": "exp", "ln": "ln", "sin": "sin", "cos": "cos", "tan": "tan",
    "sinh": "sinh", "cosh": "cosh", "sqrt": "sqrt", "abs": "abs_signed",
}
_CONSTANTS = {"pi": math.pi, "e": math.e}


class ParseError(BadInput):
    def __init__(self, position: int, message: str):
        super().__init__(f"parse error at offset {position}: {message}")
        self.position = position
        self.message = message


# ----------------------------------------------------------------------
# expression tree
# ----------------------------------------------------------------------

class Expr:
    """Base class; concrete nodes below.

    Calling an expression evaluates it on a float; :func:`compose_series`,
    :func:`eval_series` and :func:`eval_jet` evaluate it on univariate
    series, never on jets.  Nodes are frozen dataclasses, so equality and
    hashing walk the whole tree; code that looks trees up at run time keys
    them by identity.  Beside its fields a node keeps two memos: its
    derivative, built by the first :meth:`diff`, and, once
    :func:`eval_series` or :func:`eval_jet` evaluates it, a bounded memo
    of its series.  Neither changes equality, hashing or printing, and
    since :func:`parse` returns one tree per text, every caller of that
    text shares them.
    """

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
    var_name: str


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


#: whitespace, then one token: a decimal number (an exponent only where
#: digits follow), an identifier, an operator or a parenthesis; or the end,
#: or the first character that no token reads
_TOKEN = re.compile(r"""\s*(?:
    (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
    | (?P<ident>[^\W\d]\w*) | (?P<op>[-+*/^]) | (?P<lparen>\() | (?P<rparen>\))
    | (?P<end>\Z) | (?P<bad>.))""", re.VERBOSE | re.DOTALL)


def _tokenize(src: str) -> list[_Tok]:
    toks = []
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(m.start(kind),
                             f"unexpected character {m[kind]!r}")
        toks.append(_Tok(kind, m[kind], m.start(kind)))
        if kind == "end":
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
            # normal form: negated literals fold into the constant
            return _neg(self.unary())
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
            value = float(tok.text)
            if not math.isfinite(value):
                raise ParseError(tok.pos, f"non-finite number {tok.text!r}")
            return Num(value, self.var)
        if tok.kind == "lparen":
            node = self.expr()
            self.expect("rparen", "')'")
            return node
        if tok.kind == "ident":
            if self.peek().kind == "lparen":
                if tok.text not in _CALL_JET:
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


#: trees kept by :func:`parse`
PARSE_CACHE_SIZE = 256


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse(src: str, var_name: str) -> Expr:
    """Parse ``src`` with exactly one free variable named ``var_name``.

    The last :data:`PARSE_CACHE_SIZE` trees are kept by (``src``,
    ``var_name``), so one text gives one tree, with its memos, wherever
    it is parsed; a :class:`ParseError` is never kept."""
    if not src or not src.strip():
        raise ParseError(0, "empty expression")
    p = _Parser(_tokenize(src), var_name)
    node = p.expr()
    tok = p.peek()
    if tok.kind != "end":
        raise ParseError(tok.pos, f"unexpected trailing input {tok.text!r}")
    return node


def as_expr(value, var_name: str) -> Expr:
    """``value`` as an expression of ``var_name``: an Expr of that variable
    as it is, text parsed, a finite number (not a bool) as a constant;
    anything else, a tree of another variable too, raises BadInput."""
    if isinstance(value, Expr) and value.var_name == var_name:
        return value
    if isinstance(value, str):
        return parse(value, var_name)
    if isinstance(value, (int, float)) and not isinstance(value, bool) \
            and math.isfinite(value):
        return Num(float(value), var_name)
    raise BadInput(f"expected an expression of {var_name}, got {value!r}")


# ----------------------------------------------------------------------
# evaluation (floats and series), printing, differentiation
# ----------------------------------------------------------------------

def _divide(a: float, b: float) -> float:
    jets.check_denominator(b, a, "division by (near-)zero value")
    return a / b


#: the float form of each binary operator, guards included
_FLOAT_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": _divide, "^": jets.power}


def _eval(e: Expr, x: float) -> float:
    kind = type(e)
    if kind is Bin:
        return _FLOAT_OPS[e.op](_eval(e.left, x), _eval(e.right, x))
    if kind is Var:
        return x
    if kind is Num:
        return e.value
    if kind is Call:
        return jets.call(_CALL_JET[e.fn], _eval(e.arg, x))
    if kind is Neg:
        return -_eval(e.arg, x)
    raise AssertionError(kind)


def _eval_many(e: Expr, xs: list, seen: dict) -> list:
    """The values of ``e`` at each of ``xs``, by the operations of
    :func:`_eval`; ``seen`` holds each subtree already walked, by identity."""
    out = seen.get(id(e))
    if out is not None:
        return out
    kind = type(e)
    if kind is Bin:
        out = list(map(_FLOAT_OPS[e.op], _eval_many(e.left, xs, seen),
                       _eval_many(e.right, xs, seen)))
    elif kind is Var:
        out = xs
    elif kind is Num:
        out = [e.value] * len(xs)
    elif kind is Call:
        out = list(map(partial(jets.call, _CALL_JET[e.fn]),
                       _eval_many(e.arg, xs, seen)))
    elif kind is Neg:
        out = list(map(operator.neg, _eval_many(e.arg, xs, seen)))
    else:
        raise AssertionError(kind)
    seen[id(e)] = out
    return out


def sample(e: Expr, xs, seen: dict | None = None) -> list[float]:
    """``[e(x) for x in xs]``, in one walk of the tree: each subtree that
    occurs more than once (the same object) is evaluated once, and so is
    each subtree kept in ``seen`` (:func:`_eval_many`) by an earlier walk
    of the same points.

    Values are those of calling ``e`` on each float.  Where a point
    raises, the points are taken one at a time, so the error is the one
    that calling ``e`` on them in turn raises first.
    """
    xs = [float(x) for x in xs]
    try:
        return list(_eval_many(e, xs, {} if seen is None else seen))
    except (ArithmeticError, ValueError):
        return [_eval(e, x) for x in xs]


def _as_series(v, lay: series.Layout) -> np.ndarray:
    if isinstance(v, np.ndarray):
        return v
    c = np.zeros(lay.size)
    c[0] = v
    return c


def _eval_series(e: Expr, x: np.ndarray, lay: series.Layout):
    """``e`` of the univariate series ``x`` (or of each row of a batch): a
    float where the subtree is a number, else a coefficient array, one
    series where the subtree does not read ``x``.  Guards and errors as
    for jets."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return x
    if isinstance(e, Neg):
        return -_eval_series(e.arg, x, lay)
    if isinstance(e, Call):
        av = _as_series(_eval_series(e.arg, x, lay), lay)
        return jets.elementary(_CALL_JET[e.fn], av, lay)
    if isinstance(e, Bin):
        lv = _eval_series(e.left, x, lay)
        rv = _eval_series(e.right, x, lay)
        if e.op == "*" and not (isinstance(lv, np.ndarray)
                                and isinstance(rv, np.ndarray)):
            return lv * rv  # a number scales every coefficient
        lv, rv = _as_series(lv, lay), _as_series(rv, lay)
        if e.op == "+":
            return lv + rv
        if e.op == "-":
            return lv - rv
        if e.op == "*":
            return lay.mul(lv, rv)
        if e.op == "/":
            return jets.quotient(lv, rv, lay)
        if e.op == "^":
            # as jets.power: a constant exponent is a power, else exp(r ln x)
            if not (np.any(rv[..., 1:]) or np.any(rv[..., 0] != rv.flat[0])):
                return jets.elementary(("pow", float(rv.flat[0])), lv, lay)
            return jets.elementary(
                "exp", lay.mul(rv, jets.elementary("ln", lv, lay)), lay)
        raise AssertionError(e.op)
    raise AssertionError(type(e))


def compose_series(e: Expr, g: np.ndarray) -> np.ndarray:
    """Taylor coefficients of ``e`` composed with the univariate series
    ``g``, to the order of ``g``; ``g`` may be a batch, one series per
    row.  The result is ``g`` itself where ``e`` is its variable, so
    neither is written afterwards."""
    lay = series.univariate(g.shape[-1] - 1)
    out = _as_series(_eval_series(e, g, lay), lay)
    return np.broadcast_to(out, g.shape) if out.ndim < g.ndim else out


def _variable(at, order: int) -> np.ndarray:
    """The series of the variable itself at ``at`` (a float, or one per
    row of a batch) to ``order``; a negative order raises the
    ``ValueError`` of :func:`series.univariate`."""
    x = np.zeros(np.shape(at) + (series.univariate(order).size,))
    x[..., 0] = at
    x[..., 1:2] = 1.0
    return x


#: series kept in the memo of one expression
MEMO_SIZE = 256


def _memo_series(e: Expr, at: float, order: int) -> np.ndarray:
    """The series of ``e`` at ``at`` to ``order``, from the memo of ``e``
    (at most :data:`MEMO_SIZE` entries, the oldest dropped first); an
    error is never kept.  The array is the memo's own: callers copy it."""
    memo = e.__dict__.setdefault("_memo", {})
    # -0.0 == 0.0, but the series at -0.0 starts with -0.0
    key = (at, order) if at else (at, order, math.copysign(1.0, at))
    ser = memo.get(key)
    if ser is None:
        ser = compose_series(e, _variable(at, order))
        if len(memo) >= MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[key] = ser
    return ser


def eval_series(e: Expr, at: float, order: int) -> np.ndarray:
    """Taylor coefficients 0..``order`` of the univariate function at
    ``at``, as a new array."""
    return _memo_series(e, at, order).copy()


def eval_jet(e: Expr, at: Point, order: int) -> Jet3:
    """Jet of the univariate function, constant in the other two variables:
    its series on the axis of its variable, t, x or y (else BadInput).

    At a batched point whose coordinate on that axis is one float, the one
    memoised series serves every lane; where it varies over the lanes, one
    batched :func:`compose_series` gives a series per lane.  ``order`` is
    a truncation key (:mod:`blp.jets`): the series runs to its order, and
    the jet keeps the monomials of the key."""
    which = e.var_name
    if which not in jets._AXES:
        raise BadInput(f"an expression of {which!r} has no axis of a jet")
    n = int(order)
    at_var = getattr(at, which)
    if not isinstance(at_var, np.ndarray):
        return jets.axis_jet(_memo_series(e, at_var, n), which, at, order)
    return jets.axis_jet(compose_series(e, _variable(at_var, n)),
                         which, at, order)


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


def _neg(e: Expr) -> Expr:
    """``-e``: a number negated, any other tree under a :class:`Neg`."""
    v = e.var_name
    return Num(-e.value, v) if isinstance(e, Num) else Neg(e, v)


def _is_zero_num(e: Expr) -> bool:
    return isinstance(e, Num) and e.value == 0.0


def _mk(op, l, r):
    """``Bin(op, l, r, l.var_name)`` folded, the one constructor that folds
    (only :func:`parse` and :meth:`Expr.subst` build plain nodes): two
    numbers fold into one where their value is finite and raises no error,
    a product with an exact zero is zero, a factor 1.0 is dropped, a left
    factor -1.0 is a negation, an added or subtracted zero is dropped,
    ``f^1.0`` is ``f`` and ``f^0.0`` is 1.0.  Its value is the plain
    ``Bin``'s up to the sign of a zero (or of a NaN), wherever every
    dropped factor is finite."""
    v = l.var_name
    if isinstance(l, Num) and isinstance(r, Num):
        try:
            value = _FLOAT_OPS[op](l.value, r.value)
        except ArithmeticError:
            return Bin(op, l, r, v)
        if math.isfinite(value):
            return Num(value, v)
    elif op == "*":
        if _is_zero_num(l) or _is_zero_num(r):
            return Num(0.0, v)
        if isinstance(l, Num) and l.value == 1.0:
            return r
        if isinstance(r, Num) and r.value == 1.0:
            return l
        if isinstance(l, Num) and l.value == -1.0:
            return _neg(r)
    elif op in "+-":
        if _is_zero_num(r):
            return l
        if _is_zero_num(l):
            return r if op == "+" else _neg(r)
    elif op == "^" and isinstance(r, Num) and r.value in (0.0, 1.0):
        return l if r.value else Num(1.0, v)
    return Bin(op, l, r, v)


def _diff(e: Expr) -> Expr:
    """The derivative of ``e``, built once and kept on the node, so every
    call returns the same tree and a tree that contains ``e`` shares it.
    The derivative of exp, sqrt, abs and a non-constant power contains
    ``e`` itself; the cyclic garbage collector frees that cycle."""
    d = e.__dict__.get("_derivative")
    if d is None:
        d = e.__dict__["_derivative"] = _derive(e)
    return d


def _derive(e: Expr) -> Expr:
    v = e.var_name
    zero, one = Num(0.0, v), Num(1.0, v)
    if isinstance(e, Num):
        return zero
    if isinstance(e, Var):
        return one
    if isinstance(e, Neg):
        return _neg(_diff(e.arg))
    if isinstance(e, Bin):
        f, g = e.left, e.right
        df, dg = _diff(f), _diff(g)
        if e.op == "+":
            return _mk("+", df, dg)
        if e.op == "-":
            return _mk("-", df, dg)
        if e.op == "*":
            return _mk("+", _mk("*", df, g), _mk("*", f, dg))
        if e.op == "/":
            num = _mk("-", _mk("*", df, g), _mk("*", f, dg))
            return _mk("/", num, _mk("^", g, Num(2.0, v)))
        if e.op == "^":
            if isinstance(g, Num):
                # r * f^(r-1) * f'
                return _mk("*", _mk("*", g, _mk("^", f, Num(g.value - 1, v))), df)
            # f^g * (g' ln f + g f'/f)
            t1 = _mk("*", dg, Call("ln", f, v))
            t2 = _mk("/", _mk("*", g, df), f)
            return _mk("*", e, _mk("+", t1, t2))
        raise AssertionError(e.op)
    if isinstance(e, Call):
        u, du = e.arg, _diff(e.arg)
        if e.fn == "exp":
            return _mk("*", e, du)
        if e.fn == "ln":
            return _mk("/", du, u)
        if e.fn == "sin":
            return _mk("*", Call("cos", u, v), du)
        if e.fn == "cos":
            return _neg(_mk("*", Call("sin", u, v), du))
        if e.fn == "tan":
            sec2 = _mk("+", one, _mk("^", Call("tan", u, v), Num(2.0, v)))
            return _mk("*", sec2, du)
        if e.fn == "sinh":
            return _mk("*", Call("cosh", u, v), du)
        if e.fn == "cosh":
            return _mk("*", Call("sinh", u, v), du)
        if e.fn == "sqrt":
            return _mk("/", du, _mk("*", Num(2.0, v), e))
        if e.fn == "abs":
            return _mk("*", _mk("/", u, e), du)
        raise AssertionError(e.fn)
    raise AssertionError(type(e))
