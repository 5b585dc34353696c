"""Truncated trivariate Taylor jets in (t, x, y).

A :class:`Jet3` stores the Taylor coefficients ``c[i,j,k]`` of a scalar
field around a base point, for all ``i+j+k <= order``, in graded
lexicographic layout.  The represented germ is

    sum_{i+j+k<=N} c[i,j,k] (t-t0)^i (x-x0)^j (y-y0)^k.

Coefficients are Taylor coefficients (partial derivative divided by
``i! j! k!``), which keeps truncated products cheap; true partials are
recovered by :meth:`Jet3.extract`.

Elementary functions of a jet (:func:`apply_unary`) and the quotient of
two jets are computed degree by degree: each homogeneous-degree part of
the result follows from the lower ones by a Taylor recurrence derived
from the Euler operator (Neidinger, "Computing multivariable Taylor
series to arbitrary order", APL Quote Quad 25, 1995), written once in
:mod:`blp.series` for jets and univariate series alike.  Nonnegative
integer powers are products.  :func:`apply_taylor` composes a univariate
series that a caller supplies by Horner's rule, and :func:`compose3`
gives the matrix that composes a jet with a triangular map of jets.

The guard rules of jets, expressions and transformations live here.
One table gives each elementary function its float form, its series
form and its value guard, so :func:`call` on a float and
:func:`elementary` on a series or jet raise :class:`DomainError` at the
same values.  A denominator is undefined when |den| < band (1 + |scale|)
(:func:`inside_band`), and :func:`check_denominator` raises that with a
caller's band and error class.  The bands: :data:`GUARD` = 1e-12 for
elementary functions and division of floats, series and jets;
``transforms.GUARD`` = 1e-10 for the denominators of the Laplace and
Darboux maps (``UndefinedTransform``); 1e-8 for the heat witness that
``transforms.uq_seed`` divides by.  Other callers pass a band of their
own to the same rules: series reversion of a point map (1e-14), the
chart guards of the catalog (``catalog.MARGIN`` = 0.15 or a fraction of
it) and the positivity of chi_t in F_UXX_BERNOULLI (1e-10,
:func:`below_band`).

All operations are pure and jets are immutable.  A map wrapped by
:func:`last_point`, as every field component is, remembers its last
point and is not for concurrent use.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from . import series

__all__ = [
    "BLPError",
    "UndefinedHere",
    "DomainError",
    "BadInput",
    "Point",
    "Jet3",
    "lift_variable",
    "apply_unary",
    "apply_taylor",
    "elementary",
    "quotient",
    "call",
    "inside_band",
    "below_band",
    "check_denominator",
    "compose3",
    "coordinate_jets",
    "restrict",
    "axis_series",
    "axis_jet",
    "last_point",
    "exp", "ln", "sin", "cos", "tan", "sinh", "cosh", "sqrt", "recip",
    "abs_signed", "power",
]

#: guard band of the jet layer: elementary functions and division
GUARD = 1e-12


class BLPError(Exception):
    """Root of the toolkit's own errors.

    Each subclass also keeps a builtin base (``ArithmeticError``,
    ``ValueError``, ``RuntimeError``) that says what kind of failure it is.
    """


class UndefinedHere(BLPError, ArithmeticError):
    """The field is not defined at this point: a grid check skips it."""


class DomainError(UndefinedHere):
    """A jet operation hit (or came too close to) a singular point."""


class BadInput(BLPError, ValueError):
    """A binding, expression, specification or setting that is rejected."""


class Point(NamedTuple):
    t: float
    x: float
    y: float


_AXES = {"t": 0, "x": 1, "y": 2}


def _check_point(p: Point) -> None:
    if not all(math.isfinite(c) for c in p):
        raise ValueError(f"non-finite point {p}")


# ----------------------------------------------------------------------
# index tables, cached per order
# ----------------------------------------------------------------------

class _Tables(series.Layout):
    """Monomial bookkeeping for one truncation order."""

    def __init__(self, order: int):
        exps = []
        for d in range(order + 1):
            for i in range(d, -1, -1):
                for j in range(d - i, -1, -1):
                    exps.append((i, j, d - i - j))
        super().__init__(exps)
        # factorial rescaling for Jet3.extract
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
        # per axis, the derivative as a gather and a scale: its entry m
        # (one order lower) is entry derive_src[a][m] times derive_scale[a][m]
        lower = exps[:jet_size(order - 1)]
        self.derive_src = [
            np.asarray([self.index[tuple(c + (b == a)
                                         for b, c in enumerate(e))]
                        for e in lower], dtype=np.intp)
            for a in range(3)]
        self.derive_scale = [
            np.asarray([e[a] + 1 for e in lower], dtype=float)
            for a in range(3)]
        # the jets of t, x and y less their values: entries 1, 2, 3 are
        # the monomials t, x, y
        self.coordinate_rows = np.eye(3, self.size, 1)


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
        return _jet(base, order, c)

    # -- basics ----------------------------------------------------------

    @property
    def value(self) -> float:
        return float(self.coeffs[0])

    def copy_with(self, coeffs: np.ndarray) -> "Jet3":
        """A jet of the same base and order; ``coeffs`` has its length."""
        return _jet(self.base, self.order, coeffs)

    def truncate(self, order: int) -> "Jet3":
        if order > self.order:
            raise ValueError("cannot raise jet order by truncation")
        if order == self.order:
            return self
        return _jet(self.base, order, self.coeffs[: jet_size(order)].copy())

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
        return self.copy_with(_tables(self.order).mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            d = float(other)
            check_denominator(d, self.value, "division by (near-)zero scalar")
            return self.copy_with(self.coeffs / d)
        return self.copy_with(
            quotient(self.coeffs, o.coeffs, _tables(self.order)))

    def __rtruediv__(self, other):
        check_denominator(self.value, other,
                          "jet division: denominator value {} inside guard band")
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
        tab = _tables(self.order)
        return _jet(self.base, self.order - 1,
                    self.coeffs[tab.derive_src[axis]] * tab.derive_scale[axis])

    def extract(self, multi_index) -> float:
        i, j, k = multi_index
        if i + j + k > self.order:
            raise ValueError("multi-index exceeds jet order")
        tab = _tables(self.order)
        m = tab.index[(i, j, k)]
        return float(self.coeffs[m] * tab.fact[m])


def _jet(base: Point, order: int, coeffs: np.ndarray) -> Jet3:
    """A jet built inside this module, whose ``coeffs`` is known to have
    the length of ``order``: the public constructor's check is skipped."""
    jet = object.__new__(Jet3)
    jet.base, jet.order, jet.coeffs = base, order, coeffs
    return jet


# ----------------------------------------------------------------------
# module-level operation surface
# ----------------------------------------------------------------------

def lift_variable(which: str, at: Point, order: int) -> Jet3:
    """Jet of one of the coordinate functions t, x, y."""
    if order < 0:
        raise ValueError("order must be >= 0")
    _check_point(at)
    axis = _AXES[which]
    c = _tables(order).coordinate_rows[axis].copy()
    c[0] = at[axis]
    return _jet(at, order, c)


def coordinate_jets(p: Point, order: int) -> tuple[Jet3, Jet3, Jet3]:
    """The jets of t, x and y at ``p``, with one check of the point."""
    if order < 0:
        raise ValueError("order must be >= 0")
    _check_point(p)
    rows = _tables(order).coordinate_rows.copy()
    rows[:, 0] = p
    return _jet(p, order, rows[0]), _jet(p, order, rows[1]), \
        _jet(p, order, rows[2])


def restrict(a: Jet3, axis: str, at: Point) -> Jet3:
    """Jet at ``at`` of ``a`` restricted to the plane ``axis`` = const.

    Dropping every coefficient that carries a power of ``axis`` leaves a
    germ that no longer depends on ``axis``, so it is also the jet at any
    ``at`` that differs from the base only in that coordinate.
    """
    out = a.coeffs.copy()
    out[_tables(a.order).with_axis[_AXES[axis]]] = 0.0
    return _jet(at, a.order, out)


def axis_series(a: Jet3, axis: str) -> np.ndarray:
    """Univariate Taylor coefficients of ``a`` along ``axis`` alone, as a
    new array."""
    return a.coeffs[_tables(a.order).axis_powers[_AXES[axis]]]


def axis_jet(ser: np.ndarray, axis: str, at: Point) -> Jet3:
    """Jet at ``at`` of the univariate series ``ser`` along ``axis``,
    constant in the other two variables: the inverse of :func:`axis_series`."""
    _check_point(at)
    order = len(ser) - 1
    c = np.zeros(jet_size(order))
    c[_tables(order).axis_powers[_AXES[axis]]] = ser
    return Jet3(at, order, c)


def apply_taylor(coeffs: np.ndarray, a: Jet3) -> Jet3:
    """Compose a univariate Taylor series (around ``a.value``) with ``a``.

    ``coeffs[k]`` is the k-th Taylor coefficient f^(k)(a.value)/k!.  Horner
    costs one product per order; it serves series that a caller builds
    itself, and the elementary functions use :func:`elementary` instead.
    """
    n = a.order
    shifted = a - a.value
    out = Jet3.constant(float(coeffs[min(n, len(coeffs) - 1)]), a.base, n)
    for k in range(min(n, len(coeffs) - 1) - 1, -1, -1):
        out = out * shifted + float(coeffs[k])
    return out


# ----------------------------------------------------------------------
# the guards, and elementary functions and division in any degree layout
# ----------------------------------------------------------------------

def inside_band(den: float, scale: float = 0.0, band: float = GUARD) -> bool:
    """The denominator rule: ``den`` is undefined when
    |den| < band (1 + |scale|)."""
    return abs(den) < band * (1.0 + abs(scale))


def below_band(value: float, band: float = GUARD) -> bool:
    """The positivity rule: ``value`` is undefined when value < band."""
    return value < band


def check_denominator(den: float, scale: float, message: str,
                      band: float = GUARD, error=DomainError) -> None:
    """Raise ``error(message)`` where :func:`inside_band` holds; ``{}`` in
    ``message`` shows ``den``."""
    if inside_band(den, scale, band):
        raise error(message.format(den))


class _Elementary(NamedTuple):
    real: Callable        # the float form
    series: Callable      # (coefficients, layout) -> coefficients
    undefined: Callable | None = None   # value guard
    message: str = ""


def _recip_series(c: np.ndarray, lay) -> np.ndarray:
    one = np.zeros(lay.size)
    one[0] = 1.0
    return series.div(one, c, lay)


_ELEMENTARY = {
    "exp": _Elementary(math.exp, series.exp),
    "ln": _Elementary(math.log, series.ln, below_band,
                      "ln of non-positive value {}"),
    "sin": _Elementary(math.sin, lambda c, lay: series.sin_cos(c, lay)[0]),
    "cos": _Elementary(math.cos, lambda c, lay: series.sin_cos(c, lay)[1]),
    "sinh": _Elementary(
        math.sinh, lambda c, lay: series.sin_cos(c, lay, hyper=True)[0]),
    "cosh": _Elementary(
        math.cosh, lambda c, lay: series.sin_cos(c, lay, hyper=True)[1]),
    "tan": _Elementary(math.tan, series.tan,
                       lambda v: inside_band(math.cos(v)),
                       "tan evaluated at (near-)pole {}"),
    "sqrt": _Elementary(math.sqrt, lambda c, lay: series.power(c, 0.5, lay),
                        below_band, "sqrt of non-positive value {}"),
    "recip": _Elementary(lambda v: 1.0 / v, _recip_series, inside_band,
                         "reciprocal of (near-)zero value {}"),
    "abs_signed": _Elementary(abs, lambda c, lay: c if c[0] > 0 else -c,
                              inside_band,
                              "abs_signed is undefined at (near-)zero value"),
}


# cached: float expressions raise to the same few exponents at every
# evaluation, and building the forms costs more than the power itself
@functools.lru_cache(maxsize=64)
def _power(f) -> _Elementary:
    """``("pow", r)``: ``x ** r``; nonnegative integer powers are products."""
    if not (isinstance(f, tuple) and f[0] == "pow"):
        raise ValueError(f"unsupported unary function {f!r}")
    r = float(f[1])
    if r.is_integer() and r >= 0:
        return _Elementary(lambda v: float(v) ** r,
                           lambda c, lay: series.int_power(c, int(r), lay))
    if r.is_integer():
        guard, message = inside_band, \
            "negative integer power of (near-)zero value"
    else:
        guard, message = below_band, \
            "non-integer power of non-positive value {}"
    return _Elementary(lambda v: float(v) ** r,
                       lambda c, lay: series.power(c, r, lay), guard, message)


def _checked(f, v: float) -> _Elementary:
    """The forms of ``f`` once its value guard has passed at ``v``."""
    form = _ELEMENTARY.get(f) or _power(f)
    if form.undefined is not None and form.undefined(v):
        raise DomainError(form.message.format(v))
    return form


def elementary(f, c: np.ndarray, lay) -> np.ndarray:
    """Coefficients of ``f`` of the series ``c`` in the degree layout ``lay``
    (:mod:`blp.series`); the guard reads the value ``c[0]``.

    ``f`` is one of the names ``exp, ln, sin, cos, tan, sinh, cosh, sqrt,
    recip, abs_signed`` or a tuple ``("pow", r)``.
    """
    return _checked(f, float(c[0])).series(c, lay)


def quotient(a: np.ndarray, b: np.ndarray, lay) -> np.ndarray:
    """Coefficients of ``a / b`` in the degree layout ``lay``, guarded by
    the values."""
    check_denominator(float(b[0]), a[0],
                      "jet division: denominator value {} inside guard band")
    return series.div(a, b, lay)


def apply_unary(f, a: Jet3) -> Jet3:
    """Jet of ``f(a)`` for a supported elementary function (see
    :func:`elementary`)."""
    return a.copy_with(elementary(f, a.coeffs, _tables(a.order)))


def call(f, x):
    """``f(x)`` for a float or a jet ``x``, under the same guard: the
    float/jet dispatcher for writing closed-form fields."""
    if isinstance(x, Jet3):
        return apply_unary(f, x)
    return _checked(f, x).real(x)


exp = functools.partial(call, "exp")
ln = functools.partial(call, "ln")
sin = functools.partial(call, "sin")
cos = functools.partial(call, "cos")
tan = functools.partial(call, "tan")
sinh = functools.partial(call, "sinh")
cosh = functools.partial(call, "cosh")
sqrt = functools.partial(call, "sqrt")
recip = functools.partial(call, "recip")
abs_signed = functools.partial(call, "abs_signed")


def power(x, r):
    """``x ** r``; a jet exponent that is not constant gives exp(r ln x)."""
    if isinstance(r, Jet3):
        if np.any(r.coeffs[1:]):
            return exp(r * ln(x))
        r = r.value
    return call(("pow", float(r)), x)


def compose3(pt: np.ndarray, alpha: np.ndarray, beta: np.ndarray,
             py: np.ndarray) -> np.ndarray:
    """Composition matrix of a triangular inner map.

    The map sends the offsets (s, r, w) of a point from a new base to the
    offsets (g(s), alpha(s) + beta(s) r, h(w)) from an old base; ``pt``
    and ``py`` are the power tables of g and h (row i holds the
    coefficients of the i-th power), ``alpha`` and ``beta`` univariate
    series with ``alpha[0] = 0``, all to one order N.  Column m of the
    result is the jet at the new base of the m-th monomial of the old
    offsets, so ``M @ c`` is the jet of the field with Taylor coefficients
    ``c`` at the old base composed with the map.  Each column is a power
    of g times a power of alpha + beta r, lower-triangular Toeplitz
    products in (s, r), times a power of h (Brent & Kung, JACM 1978).
    """
    n = len(alpha) - 1
    # xi[j, a, b]: coefficient of s^a r^b in (alpha + beta r)^j
    xi = np.zeros((n + 1, n + 1, n + 1))
    xi[0, 0, 0] = 1.0
    ta, tb = series.toeplitz(alpha), series.toeplitz(beta)
    for j in range(1, n + 1):
        xi[j] = ta @ xi[j - 1]
        xi[j, :, 1:] += tb @ xi[j - 1, :, :-1]
    # txi[i, j, a, b]: coefficient of s^a r^b in g^i (alpha + beta r)^j
    txi = series.toeplitz(pt)[:, None] @ xi
    at_txi, at_py = _compose_index(n)
    return np.take(txi, at_txi) * np.take(py, at_py)


@functools.lru_cache(maxsize=None)
def _compose_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into txi and py of :func:`compose3` at order ``n``:
    row r and column m of the matrix read entry (i, j, a, b) of txi and
    (k, c) of py, where (a, b, c) are the exponents of monomial r and
    (i, j, k) those of monomial m."""
    e = np.asarray(_tables(n).exps, dtype=np.intp).T
    i, j, k = e[:, None, :]
    a, b, c = e[:, :, None]
    return ((i * (n + 1) + j) * (n + 1) + a) * (n + 1) + b, k * (n + 1) + c


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
