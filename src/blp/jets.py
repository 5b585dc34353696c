"""Truncated trivariate Taylor jets in (t, x, y).

A :class:`Jet3` stores the Taylor coefficients ``c[i,j,k]`` of a scalar
field around a base point, for all ``i+j+k <= order``, in graded
lexicographic layout.  The represented germ is

    sum_{i+j+k<=N} c[i,j,k] (t-t0)^i (x-x0)^j (y-y0)^k.

Coefficients are Taylor coefficients (partial derivative divided by
``i! j! k!``), which keeps truncated products cheap; true partials are
recovered by :func:`extract_partial`.

All operations are pure and jets are immutable.  A map wrapped by
:func:`last_point`, as every field component is, remembers its last
point and is not for concurrent use.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "UndefinedHere",
    "DomainError",
    "BadInput",
    "Point",
    "Jet3",
    "lift_variable",
    "constant_jet",
    "mul",
    "apply_unary",
    "apply_taylor",
    "extract_partial",
    "derive",
    "compose3",
    "coordinate_jets",
    "restrict",
    "axis_series",
    "last_point",
    "exp", "ln", "sin", "cos", "tan", "sinh", "cosh", "sqrt", "recip",
    "abs_signed", "power",
]

#: relative guard band used before dividing / composing near a singularity
GUARD = 1e-12


class UndefinedHere(ArithmeticError):
    """The field is not defined at this point: a grid check skips it."""


class DomainError(UndefinedHere):
    """A jet operation hit (or came too close to) a singular point."""


class BadInput(ValueError):
    """A binding, expression, specification or setting that is rejected."""


class Point(NamedTuple):
    t: float
    x: float
    y: float

    def replace(self, **kw) -> "Point":
        return self._replace(**kw)


_AXES = {"t": 0, "x": 1, "y": 2}


def _check_point(p: Point) -> None:
    if not all(math.isfinite(c) for c in p):
        raise ValueError(f"non-finite point {p}")


# ----------------------------------------------------------------------
# index tables, cached per order
# ----------------------------------------------------------------------

class _Tables:
    """Monomial bookkeeping for one truncation order."""

    def __init__(self, order: int):
        exps = []
        for d in range(order + 1):
            for i in range(d, -1, -1):
                for j in range(d - i, -1, -1):
                    exps.append((i, j, d - i - j))
        self.order = order
        self.exps = exps
        self.size = len(exps)
        self.index = {e: m for m, e in enumerate(exps)}
        # truncated Cauchy product: out[io] += a[ia] * b[ib]
        ia, ib, io = [], [], []
        for ma, (i1, j1, k1) in enumerate(exps):
            da = i1 + j1 + k1
            for mb, (i2, j2, k2) in enumerate(exps):
                if da + i2 + j2 + k2 > order:
                    continue
                ia.append(ma)
                ib.append(mb)
                io.append(self.index[(i1 + i2, j1 + j2, k1 + k2)])
        self.mul_a = np.asarray(ia, dtype=np.intp)
        self.mul_b = np.asarray(ib, dtype=np.intp)
        self.mul_out = np.asarray(io, dtype=np.intp)
        # factorial rescaling for extract_partial
        self.fact = np.asarray(
            [math.factorial(i) * math.factorial(j) * math.factorial(k)
             for (i, j, k) in exps],
            dtype=float,
        )
        # per axis: monomials carrying a power of it, and its pure powers
        self.with_axis = [
            np.asarray([m for m, e in enumerate(exps) if e[a]], dtype=np.intp)
            for a in range(3)]
        self.axis_powers = [
            np.asarray([self.index[tuple(d if b == a else 0 for b in range(3))]
                        for d in range(order + 1)], dtype=np.intp)
            for a in range(3)]


_TABLES: dict[int, _Tables] = {}


def _tables(order: int) -> _Tables:
    tab = _TABLES.get(order)
    if tab is None:
        tab = _TABLES[order] = _Tables(order)
    return tab


def jet_size(order: int) -> int:
    return (order + 1) * (order + 2) * (order + 3) // 6


# ----------------------------------------------------------------------
# the jet itself
# ----------------------------------------------------------------------

class Jet3:
    __slots__ = ("base", "order", "coeffs")

    def __init__(self, base: Point, order: int, coeffs: np.ndarray):
        if order < 0:
            raise ValueError("order must be >= 0")
        if len(coeffs) != jet_size(order):
            raise ValueError("coefficient array has wrong length")
        self.base = base
        self.order = order
        self.coeffs = coeffs

    # -- constructors ---------------------------------------------------

    @staticmethod
    def constant(value: float, base: Point, order: int) -> "Jet3":
        c = np.zeros(jet_size(order))
        c[0] = value
        return Jet3(base, order, c)

    @staticmethod
    def variable(which: str, base: Point, order: int) -> "Jet3":
        _check_point(base)
        axis = _AXES[which]
        c = np.zeros(jet_size(order))
        c[0] = base[axis]
        if order >= 1:
            e = [0, 0, 0]
            e[axis] = 1
            c[_tables(order).index[tuple(e)]] = 1.0
        return Jet3(base, order, c)

    # -- basics ----------------------------------------------------------

    @property
    def value(self) -> float:
        return float(self.coeffs[0])

    def copy_with(self, coeffs: np.ndarray) -> "Jet3":
        return Jet3(self.base, self.order, coeffs)

    def truncate(self, order: int) -> "Jet3":
        if order > self.order:
            raise ValueError("cannot raise jet order by truncation")
        if order == self.order:
            return self
        return Jet3(self.base, order, self.coeffs[: jet_size(order)].copy())

    def _coerce(self, other) -> "Jet3 | None":
        if isinstance(other, Jet3):
            if other.base != self.base or other.order != self.order:
                raise ValueError(
                    "jets are combinable only with matching base and order"
                )
            return other
        if isinstance(other, (int, float, np.floating)):
            return None
        return NotImplemented  # type: ignore[return-value]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            c = self.coeffs.copy()
            c[0] += float(other)
            return self.copy_with(c)
        return self.copy_with(self.coeffs + o.coeffs)

    __radd__ = __add__

    def __neg__(self):
        return self.copy_with(-self.coeffs)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            c = self.coeffs.copy()
            c[0] -= float(other)
            return self.copy_with(c)
        return self.copy_with(self.coeffs - o.coeffs)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            return self.copy_with(self.coeffs * float(other))
        tab = _tables(self.order)
        prod = self.coeffs[tab.mul_a] * o.coeffs[tab.mul_b]
        out = np.bincount(tab.mul_out, weights=prod, minlength=tab.size)
        return self.copy_with(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            d = float(other)
            if abs(d) < GUARD * (1.0 + abs(self.value)):
                raise DomainError("division by (near-)zero scalar")
            return self.copy_with(self.coeffs / d)
        if abs(o.value) < GUARD * (1.0 + abs(self.value)):
            raise DomainError(
                f"jet division: denominator value {o.value} inside guard band"
            )
        return self * apply_unary("recip", o)

    def __rtruediv__(self, other):
        return float(other) * apply_unary("recip", self)

    def __pow__(self, r):
        return power(self, r)

    def __repr__(self):
        return f"Jet3(base={self.base}, order={self.order}, value={self.value})"

    # -- calculus ----------------------------------------------------------

    def derive(self, which: str) -> "Jet3":
        """Jet of the partial derivative; drops one order."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        axis = _AXES[which]
        src = _tables(self.order)
        dst = _tables(self.order - 1)
        out = np.zeros(dst.size)
        for m, e in enumerate(src.exps):
            if e[axis] == 0:
                continue
            e2 = list(e)
            e2[axis] -= 1
            out[dst.index[tuple(e2)]] = e[axis] * self.coeffs[m]
        return Jet3(self.base, self.order - 1, out)

    def extract(self, multi_index) -> float:
        i, j, k = multi_index
        if i + j + k > self.order:
            raise ValueError("multi-index exceeds jet order")
        tab = _tables(self.order)
        m = tab.index[(i, j, k)]
        return float(self.coeffs[m] * tab.fact[m])


# ----------------------------------------------------------------------
# module-level operation surface
# ----------------------------------------------------------------------

def lift_variable(which: str, at: Point, order: int) -> Jet3:
    """Jet of one of the coordinate functions t, x, y."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return Jet3.variable(which, at, order)


def constant_jet(value: float, at: Point, order: int) -> Jet3:
    return Jet3.constant(value, at, order)


def mul(a: Jet3, b: Jet3) -> Jet3:
    return a * b


def extract_partial(a: Jet3, multi_index) -> float:
    return a.extract(multi_index)


def derive(a: Jet3, which: str) -> Jet3:
    return a.derive(which)


def coordinate_jets(p: Point, order: int) -> tuple[Jet3, Jet3, Jet3]:
    return (lift_variable("t", p, order),
            lift_variable("x", p, order),
            lift_variable("y", p, order))


def restrict(a: Jet3, axis: str, at: Point) -> Jet3:
    """Jet at ``at`` of ``a`` restricted to the plane ``axis`` = const.

    Dropping every coefficient that carries a power of ``axis`` leaves a
    germ that no longer depends on ``axis``, so it is also the jet at any
    ``at`` that differs from the base only in that coordinate.
    """
    out = a.coeffs.copy()
    out[_tables(a.order).with_axis[_AXES[axis]]] = 0.0
    return Jet3(at, a.order, out)


def axis_series(a: Jet3, axis: str) -> np.ndarray:
    """Univariate Taylor coefficients of ``a`` along ``axis`` alone, as a
    new array."""
    return a.coeffs[_tables(a.order).axis_powers[_AXES[axis]]]


# ----------------------------------------------------------------------
# univariate Taylor seeds for the supported elementary functions
# ----------------------------------------------------------------------

def _series_exp(v, n):
    out = np.empty(n + 1)
    out[0] = math.exp(v)
    for k in range(1, n + 1):
        out[k] = out[k - 1] / k
    return out


def _series_ln(v, n):
    if v < GUARD:
        raise DomainError(f"ln of non-positive value {v}")
    out = np.empty(n + 1)
    out[0] = math.log(v)
    for k in range(1, n + 1):
        out[k] = (-1.0) ** (k - 1) / (k * v ** k)
    return out


def _series_trig(v, n, hyper: bool):
    # returns (sin-like, cos-like) pair of coefficient arrays
    s = np.empty(n + 1)
    c = np.empty(n + 1)
    s0 = math.sinh(v) if hyper else math.sin(v)
    c0 = math.cosh(v) if hyper else math.cos(v)
    sgn = 1.0 if hyper else -1.0
    s[0], c[0] = s0, c0
    for k in range(1, n + 1):
        s[k] = c[k - 1] / k
        c[k] = sgn * s[k - 1] / k
    return s, c


def _series_tan(v, n):
    if abs(math.cos(v)) < GUARD:
        raise DomainError(f"tan evaluated at (near-)pole {v}")
    out = np.empty(n + 1)
    out[0] = math.tan(v)
    for k in range(n):
        # s' = 1 + s^2, coefficientwise
        conv = float(np.dot(out[: k + 1], out[k::-1]))
        out[k + 1] = ((1.0 if k == 0 else 0.0) + conv) / (k + 1)
    return out


def _series_pow(v, r, n):
    if float(r).is_integer():
        ri = int(round(r))
        if ri >= 0:
            out = np.zeros(n + 1)
            for k in range(min(ri, n) + 1):
                out[k] = math.comb(ri, k) * v ** (ri - k)
            return out
        if abs(v) < GUARD:
            raise DomainError("negative integer power of (near-)zero value")
    elif v < GUARD:
        raise DomainError(f"non-integer power of non-positive value {v}")
    out = np.empty(n + 1)
    out[0] = v ** r
    for k in range(1, n + 1):
        out[k] = out[k - 1] * (r - (k - 1)) / (k * v)
    return out


def _series_recip(v, n):
    if abs(v) < GUARD:
        raise DomainError(f"reciprocal of (near-)zero value {v}")
    out = np.empty(n + 1)
    out[0] = 1.0 / v
    for k in range(1, n + 1):
        out[k] = -out[k - 1] / v
    return out


def _series_sqrt(v, n):
    if v < GUARD:
        raise DomainError(f"sqrt of non-positive value {v}")
    return _series_pow(v, 0.5, n)


def apply_taylor(coeffs: np.ndarray, a: Jet3) -> Jet3:
    """Compose a univariate Taylor series (around ``a.value``) with ``a``.

    ``coeffs[k]`` is the k-th Taylor coefficient f^(k)(a.value)/k!.
    """
    n = a.order
    shifted = a - a.value
    out = Jet3.constant(float(coeffs[min(n, len(coeffs) - 1)]), a.base, n)
    for k in range(min(n, len(coeffs) - 1) - 1, -1, -1):
        out = out * shifted + float(coeffs[k])
    return out


def apply_unary(f, a: Jet3) -> Jet3:
    """Jet of ``f(a)`` for a supported elementary function.

    ``f`` is one of the names ``exp, ln, sin, cos, tan, sinh, cosh, sqrt,
    recip, abs_signed`` or a tuple ``("pow", r)``.
    """
    v, n = a.value, a.order
    if isinstance(f, tuple) and f[0] == "pow":
        return apply_taylor(_series_pow(v, float(f[1]), n), a)
    if f == "exp":
        return apply_taylor(_series_exp(v, n), a)
    if f == "ln":
        return apply_taylor(_series_ln(v, n), a)
    if f == "sin":
        return apply_taylor(_series_trig(v, n, False)[0], a)
    if f == "cos":
        return apply_taylor(_series_trig(v, n, False)[1], a)
    if f == "tan":
        return apply_taylor(_series_tan(v, n), a)
    if f == "sinh":
        return apply_taylor(_series_trig(v, n, True)[0], a)
    if f == "cosh":
        return apply_taylor(_series_trig(v, n, True)[1], a)
    if f == "sqrt":
        return apply_taylor(_series_sqrt(v, n), a)
    if f == "recip":
        return apply_taylor(_series_recip(v, n), a)
    if f == "abs_signed":
        if abs(v) < GUARD:
            raise DomainError("abs_signed is undefined at (near-)zero value")
        return a if v > 0 else -a
    raise ValueError(f"unsupported unary function {f!r}")


# generic float/jet dispatch, convenient for writing closed-form fields

def _dispatch(name, x, fj, ff):
    if isinstance(x, Jet3):
        return fj(x)
    return ff(x)


def exp(x):
    return _dispatch("exp", x, lambda a: apply_unary("exp", a), math.exp)


def ln(x):
    if isinstance(x, Jet3):
        return apply_unary("ln", x)
    if x < GUARD:
        raise DomainError(f"ln of non-positive value {x}")
    return math.log(x)


def sin(x):
    return _dispatch("sin", x, lambda a: apply_unary("sin", a), math.sin)


def cos(x):
    return _dispatch("cos", x, lambda a: apply_unary("cos", a), math.cos)


def tan(x):
    if isinstance(x, Jet3):
        return apply_unary("tan", x)
    if abs(math.cos(x)) < GUARD:
        raise DomainError("tan at (near-)pole")
    return math.tan(x)


def sinh(x):
    return _dispatch("sinh", x, lambda a: apply_unary("sinh", a), math.sinh)


def cosh(x):
    return _dispatch("cosh", x, lambda a: apply_unary("cosh", a), math.cosh)


def sqrt(x):
    if isinstance(x, Jet3):
        return apply_unary("sqrt", x)
    if x < GUARD:
        raise DomainError(f"sqrt of non-positive value {x}")
    return math.sqrt(x)


def recip(x):
    if isinstance(x, Jet3):
        return apply_unary("recip", x)
    if abs(x) < GUARD:
        raise DomainError("reciprocal of (near-)zero value")
    return 1.0 / x


def abs_signed(x):
    if isinstance(x, Jet3):
        return apply_unary("abs_signed", x)
    if abs(x) < GUARD:
        raise DomainError("abs_signed undefined at (near-)zero value")
    return abs(x)


def power(x, r):
    if isinstance(r, Jet3) and not np.any(r.coeffs[1:]):
        r = r.value
    if isinstance(x, Jet3):
        if isinstance(r, Jet3):
            return exp(r * ln(x))
        return apply_unary(("pow", float(r)), x)
    if isinstance(r, Jet3):
        return exp(r * ln(float(x)))
    if float(r).is_integer():
        if x == 0 and r < 0:
            raise DomainError("negative power of zero")
        return float(x) ** int(r)
    if x < GUARD:
        raise DomainError("non-integer power of non-positive value")
    return float(x) ** float(r)


def compose3(field_coeffs: np.ndarray, order: int,
             jt: Jet3, jx: Jet3, jy: Jet3) -> Jet3:
    """Compose a trivariate Taylor polynomial with three inner jets.

    ``field_coeffs`` are the graded-lex Taylor coefficients of a field F
    around ``(jt.value, jx.value, jy.value)``; the result is the jet of
    ``F(jt, jx, jy)`` in the inner jets' own variables.
    """
    n = jt.order
    dt, dx, dy = jt - jt.value, jx - jx.value, jy - jy.value
    one = Jet3.constant(1.0, jt.base, n)
    pt = [one]
    px = [one]
    py = [one]
    for _ in range(n):
        pt.append(pt[-1] * dt)
        px.append(px[-1] * dx)
        py.append(py[-1] * dy)
    out = Jet3.constant(0.0, jt.base, n)
    for m, (i, j, k) in enumerate(_tables(order).exps):
        c = field_coeffs[m]
        if c == 0.0 or i + j + k > n:
            continue
        out = out + c * (pt[i] * px[j] * py[k])
    return out


JetMap = Callable[[Point, int], Jet3]


def last_point(fn: JetMap) -> JetMap:
    """``fn``, remembering its jet at the last point it was asked about.

    The jet is kept at the highest order asked at that point, and a lower
    order there is answered by truncation.  A new point replaces it; an
    error is never remembered.  Wrapping a wrapped map returns it as is;
    ``inspect.unwrap`` returns ``fn``.
    """
    if getattr(fn, "remembers_last_point", False):
        return fn
    last_p = last_jet = None

    def remembered(p: Point, order: int) -> Jet3:
        nonlocal last_p, last_jet
        if last_p == p and last_jet.order >= order:
            return last_jet.truncate(order)
        jet = fn(p, order)
        last_p, last_jet = p, jet
        return jet

    remembered.remembers_last_point = True
    remembered.__wrapped__ = fn
    return remembered
