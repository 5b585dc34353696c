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

A jet may carry a batch of points, its lanes: the coordinates of a
:class:`Point` are floats or 1-D arrays of one common length B, and
``Jet3.coeffs`` has shape ``(size,)``, or ``(B, size)`` for one jet per
lane.  A jet of shape ``(size,)`` at a batched point is the same jet in
every lane (a coordinate the batch does not vary, a constant).  The ring
operations, :meth:`Jet3.derive`, :meth:`Jet3.truncate`,
:meth:`Jet3.extract`, :func:`restrict`, :func:`coordinate_jets`,
:func:`lift_variable`, :func:`axis_jet`, :func:`apply_unary`,
:func:`power` and :func:`quotient` act lane by lane, with the recurrences
of :mod:`blp.series` run once over the batch; ``value`` is a float for
one point and an array over the lanes for a batch.  Every jet map
(:data:`JetMap`) accepts a batched point.  One rule says how a batch
fails (:func:`raise_where`): it is undefined where any lane is, and it
raises at the first check that fails, with the class and message of
that check's first failing lane, naming every lane that fails that
check (:attr:`BLPError.lanes`); a caller that needs each lane's own
error asks that lane alone.  A layer that asks another batch than its
caller's maps the lanes an error names back (:func:`name_lanes`): a
lockstep quadrature (:func:`blp.quadrature.adaptive_quadrature`) from
the abscissae of its round, or the lane whose refinement failed, and
the scalar code of a symmetry image, wrapped by :func:`per_lane`, from
each lane's point asked alone (:func:`each_lane`).  The reduced-profile
fields take their lanes at once, and are wrapped by :func:`as_batch`,
which asks a single point as a batch of one lane, so a lane's bits do
not depend on the batch it comes in.  A grid report
(:func:`blp.system.residual_report`) asks its whole grid as one batch,
and again without the lanes each error names, and then each dropped
point alone, so a point is skipped or named by its own evaluation, and
its row has that evaluation's bits however the grid was split.

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
    "lanes",
    "lane",
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
    "raise_where",
    "name_lanes",
    "each_lane",
    "compose3",
    "coordinate_jets",
    "restrict",
    "axis_series",
    "axis_jet",
    "last_point",
    "as_batch",
    "per_lane",
    "exp", "ln", "sin", "cos", "tan", "sinh", "cosh", "sqrt", "recip",
    "abs_signed", "power",
]

#: guard band of the jet layer: elementary functions and division
GUARD = 1e-12


class BLPError(Exception):
    """Root of the toolkit's own errors.

    Each subclass also keeps a builtin base (``ArithmeticError``,
    ``ValueError``, ``RuntimeError``) that says what kind of failure it is.
    An error raised on a batch names its failing lanes in ``lanes``, a
    boolean mask over the lanes of that batch, each of which raises an
    error of the same class asked alone; ``None`` names no lane.
    """
    lanes = None


class UndefinedHere(BLPError, ArithmeticError):
    """The field is not defined at this point: a grid check skips it."""


class DomainError(UndefinedHere):
    """A jet operation hit (or came too close to) a singular point."""


class BadInput(BLPError, ValueError):
    """A binding, expression, specification or setting that is rejected."""


class Point(NamedTuple):
    """A point, or a batch of points: each coordinate is a float or a 1-D
    array, all arrays of one length, the number of lanes."""
    t: float
    x: float
    y: float


_AXES = {"t": 0, "x": 1, "y": 2}


def lanes(p: Point) -> int | None:
    """The number of lanes of a batched point; None for a single point."""
    for c in p:
        if isinstance(c, np.ndarray):
            return len(c)
    return None


def lane(p: Point, i: int) -> Point:
    """The single point of lane ``i`` of a batched point."""
    return Point(*(float(c[i]) if isinstance(c, np.ndarray) else c
                   for c in p))


def _same_point(a: Point, b: Point) -> bool:
    """Whether two points, single or batched, are the same, without the
    truth value of an array."""
    if a is b:
        return True
    try:
        if not a == b:
            return False
    except ValueError:  # lanes compared elementwise
        pass
    if np.ndarray not in map(type, a) and np.ndarray not in map(type, b):
        return True
    return all(map(np.array_equal, a, b))


def _check_point(p: Point) -> int | None:
    """Check that ``p`` is finite and its lanes are of one length; returns
    :func:`lanes` of ``p``."""
    try:
        finite = all(map(math.isfinite, p))
        count = None
    except TypeError:  # array coordinates
        finite, count = True, None
        for c in p:
            if not isinstance(c, np.ndarray):
                finite = finite and math.isfinite(c)
                continue
            if c.ndim != 1 or count not in (None, len(c)):
                raise ValueError(f"lanes of unequal length in {p}") from None
            count = len(c)
            finite = finite and bool(np.isfinite(c).all())
    if not finite:
        raise ValueError(f"non-finite point {p}")
    return count


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
    """The jet of a field at ``base``, or of one field per lane of a
    batched ``base``; ``coeffs`` has shape (size,) or (lanes, size)."""
    __slots__ = ("base", "order", "coeffs")
    #: an array operand defers to the jet's own (reflected) operation
    __array_ufunc__ = None

    def __init__(self, base: Point, order: int, coeffs: np.ndarray):
        if order < 0:
            raise ValueError("order must be >= 0")
        if coeffs.shape[-1] != jet_size(order):
            raise ValueError("coefficient array has wrong length")
        self.base = base
        self.order = order
        self.coeffs = coeffs

    # -- constructors ---------------------------------------------------

    @staticmethod
    def constant(value, base: Point, order: int) -> "Jet3":
        """The constant jet of ``value``, a float or one per lane."""
        if isinstance(value, np.ndarray):
            c = np.zeros((len(value), jet_size(order)))
            c[:, 0] = value
        else:
            c = np.zeros(jet_size(order))
            c[0] = value
        return _jet(base, order, c)

    # -- basics ----------------------------------------------------------

    @property
    def value(self):
        """The value: a float, or an array over the lanes of a batch."""
        c = self.coeffs
        return float(c[0]) if c.ndim == 1 else c[:, 0]

    def copy_with(self, coeffs: np.ndarray) -> "Jet3":
        """A jet of the same base and order; ``coeffs`` has its length."""
        jet = object.__new__(Jet3)
        jet.base, jet.order, jet.coeffs = self.base, self.order, coeffs
        return jet

    def truncate(self, order: int) -> "Jet3":
        if order > self.order:
            raise ValueError("cannot raise jet order by truncation")
        if order == self.order:
            return self
        return _jet(self.base, order,
                    self.coeffs[..., : jet_size(order)].copy())

    def _coerce(self, other) -> "Jet3 | None":
        """``other`` as a jet, or None for a number or an array of one
        number per lane."""
        if isinstance(other, Jet3):
            if other.order != self.order or (
                    other.base is not self.base
                    and not _same_point(other.base, self.base)):
                raise ValueError(
                    "jets are combinable only with matching base and order"
                )
            return other
        if isinstance(other, (int, float, np.floating, np.ndarray)):
            return None
        return NotImplemented  # type: ignore[return-value]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            c = self.coeffs
            if c.ndim == 1 and not isinstance(other, np.ndarray):
                c = c.copy()
                c[0] += float(other)
                return self.copy_with(c)
            return self.copy_with(_shifted(c, other))
        return self.copy_with(self.coeffs + o.coeffs)

    __radd__ = __add__

    def __neg__(self):
        return self.copy_with(-self.coeffs)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            c = self.coeffs
            if c.ndim == 1 and not isinstance(other, np.ndarray):
                c = c.copy()
                c[0] -= float(other)
                return self.copy_with(c)
            return self.copy_with(_shifted(c, -other))
        return self.copy_with(self.coeffs - o.coeffs)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            return self.copy_with(self.coeffs * (
                float(other) if not isinstance(other, np.ndarray)
                else other[:, None]))
        return self.copy_with(_tables(self.order).mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            check_denominator(other, self.value,
                              "division by (near-)zero scalar")
            return self.copy_with(self.coeffs / (
                float(other) if not isinstance(other, np.ndarray)
                else other[:, None]))
        return self.copy_with(
            quotient(self.coeffs, o.coeffs, _tables(self.order)))

    def __rtruediv__(self, other):
        check_denominator(self.value, other,
                          "jet division: denominator value {} inside guard band")
        return apply_unary("recip", self) * other

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
                    _gather(self.coeffs, tab.derive_src[axis])
                    * tab.derive_scale[axis])

    def extract(self, multi_index):
        """The partial derivative of ``multi_index`` at the base: a float,
        or an array over the lanes of a batch."""
        i, j, k = multi_index
        if i + j + k > self.order:
            raise ValueError("multi-index exceeds jet order")
        tab = _tables(self.order)
        m = tab.index[(i, j, k)]
        if self.coeffs.ndim == 1:
            return float(self.coeffs[m] * tab.fact[m])
        return self.coeffs[:, m] * tab.fact[m]


def _jet(base: Point, order: int, coeffs: np.ndarray) -> Jet3:
    """A jet built inside this module, whose ``coeffs`` is known to have
    the length of ``order``: the public constructor's check is skipped."""
    jet = object.__new__(Jet3)
    jet.base, jet.order, jet.coeffs = base, order, coeffs
    return jet


def _gather(c: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The coefficients ``index`` of one jet or of each lane."""
    return c[index] if c.ndim == 1 else c.take(index, axis=1)


def _shifted(c: np.ndarray, k) -> np.ndarray:
    """A copy of the lanes' coefficients ``c`` with ``k`` (a number, or
    one per lane) added to the constant term."""
    c = np.array(np.broadcast_to(c, (len(k), c.shape[-1]))) \
        if isinstance(k, np.ndarray) else c.copy()
    c[:, 0] += k
    return c


def _coordinate(value, row: np.ndarray) -> np.ndarray:
    """The coefficients of a coordinate's jet: ``row`` with ``value`` (a
    float, or one per lane) as its constant term."""
    if isinstance(value, np.ndarray):
        c = np.empty((len(value), len(row)))
        c[:] = row
        c[:, 0] = value
        return c
    c = row.copy()
    c[0] = value
    return c


# ----------------------------------------------------------------------
# module-level operation surface
# ----------------------------------------------------------------------

def lift_variable(which: str, at: Point, order: int) -> Jet3:
    """Jet of one of the coordinate functions t, x, y."""
    if order < 0:
        raise ValueError("order must be >= 0")
    _check_point(at)
    axis = _AXES[which]
    return _jet(at, order,
                _coordinate(at[axis], _tables(order).coordinate_rows[axis]))


def coordinate_jets(p: Point, order: int) -> tuple[Jet3, Jet3, Jet3]:
    """The jets of t, x and y at ``p``, with one check of the point."""
    if order < 0:
        raise ValueError("order must be >= 0")
    rows = _tables(order).coordinate_rows
    if _check_point(p) is not None:
        t, x, y = (_jet(p, order, _coordinate(c, row))
                   for c, row in zip(p, rows))
        return t, x, y
    rows = rows.copy()
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
    index = _tables(a.order).with_axis[_AXES[axis]]
    if out.ndim == 1:
        out[index] = 0.0
    else:
        out[:, index] = 0.0
    return _jet(at, a.order, out)


def axis_series(a: Jet3, axis: str) -> np.ndarray:
    """Univariate Taylor coefficients of ``a`` along ``axis`` alone, as a
    new array."""
    return _gather(a.coeffs, _tables(a.order).axis_powers[_AXES[axis]])


def axis_jet(ser: np.ndarray, axis: str, at: Point) -> Jet3:
    """Jet at ``at`` of the univariate series ``ser`` along ``axis``,
    constant in the other two variables: the inverse of :func:`axis_series`.
    ``ser`` is one series, or one per lane."""
    _check_point(at)
    order = ser.shape[-1] - 1
    powers = _tables(order).axis_powers[_AXES[axis]]
    if ser.ndim == 1:
        c = np.zeros(jet_size(order))
        c[powers] = ser
    else:
        c = np.zeros((len(ser), jet_size(order)))
        c[:, powers] = ser
    return Jet3(at, order, c)


def apply_taylor(coeffs: np.ndarray, a: Jet3) -> Jet3:
    """Compose a univariate Taylor series (around ``a.value``) with ``a``.

    ``coeffs[..., k]`` is the k-th Taylor coefficient f^(k)(a.value)/k!:
    one series, or one per lane of a batched ``a`` in the lane-first
    layout of :func:`axis_series`.  Horner costs one product per order;
    it serves series that a caller builds itself, and the elementary
    functions use :func:`elementary` instead.
    """
    n = a.order
    top = min(n, coeffs.shape[-1] - 1)
    c = coeffs.tolist() if coeffs.ndim == 1 else list(coeffs.T)
    shifted = a - a.value
    out = Jet3.constant(c[top], a.base, n)
    for k in range(top - 1, -1, -1):
        out = out * shifted + c[k]
    return out


# ----------------------------------------------------------------------
# the guards, and elementary functions and division in any degree layout
# ----------------------------------------------------------------------

def inside_band(den: float, scale: float = 0.0, band: float = GUARD) -> bool:
    """The denominator rule: ``den`` is undefined when
    |den| < band (1 + |scale|); over lanes, an array of the verdicts."""
    return abs(den) < band * (1.0 + abs(scale))


def below_band(value: float, band: float = GUARD) -> bool:
    """The positivity rule: ``value`` is undefined when value < band."""
    return value < band


def raise_where(undefined, value, message: str, error=DomainError) -> None:
    """Raise ``error(message)`` where ``undefined`` holds; ``{}`` in
    ``message`` shows ``value``.

    For a batch, ``undefined`` is an array over the lanes, the error's
    ``lanes``, and the message is that of its first lane that is
    undefined, showing that lane's value."""
    batch = isinstance(undefined, np.ndarray)
    if batch:
        if not undefined.any():
            return
        if isinstance(value, np.ndarray):
            value = float(value[int(undefined.argmax())])
    elif not undefined:
        return
    exc = error(message.format(value))
    exc.lanes = undefined if batch else None
    raise exc


def name_lanes(exc: BLPError, owner, ids) -> None:
    """Name in ``exc``, raised on another batch, the lanes of its caller's
    batch: each caller lane has an entry in ``ids``, and ``owner`` gives
    each lane of the failing batch the entry of the lane it was asked for
    (an int, for a point asked alone)."""
    named, exc.lanes = exc.lanes, None
    if isinstance(owner, int):
        exc.lanes = np.asarray(ids) == owner
    elif named is not None and named.shape == np.shape(owner):
        exc.lanes = np.isin(ids, np.asarray(owner)[named])


def each_lane(fn: Callable, count: int) -> list:
    """``[fn(0), ..., fn(count - 1)]``: the lane loop of scalar code,
    whose error names the lane that raised it."""
    out = []
    try:
        for i in range(count):
            out.append(fn(i))
    except BLPError as exc:
        name_lanes(exc, i, np.arange(count))
        raise
    return out


def check_denominator(den: float, scale: float, message: str,
                      band: float = GUARD, error=DomainError) -> None:
    """Raise ``error(message)`` where :func:`inside_band` holds; ``{}`` in
    ``message`` shows ``den``."""
    raise_where(inside_band(den, scale, band), den, message, error)


class _Elementary(NamedTuple):
    real: Callable        # the float form
    series: Callable      # (coefficients, layout) -> coefficients
    undefined: Callable | None = None   # value guard
    message: str = ""


def _recip_series(c: np.ndarray, lay) -> np.ndarray:
    one = np.zeros(lay.size)
    one[0] = 1.0
    return series.div(one, c, lay)


def _abs_signed_series(c: np.ndarray, lay) -> np.ndarray:
    if c.ndim == 1:
        return c if c[0] > 0 else -c
    return np.where(c[:, :1] > 0, c, -c)


def _cos(v):
    return np.cos(v) if isinstance(v, np.ndarray) else math.cos(v)


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
                       lambda v: inside_band(_cos(v)),
                       "tan evaluated at (near-)pole {}"),
    "sqrt": _Elementary(math.sqrt, lambda c, lay: series.power(c, 0.5, lay),
                        below_band, "sqrt of non-positive value {}"),
    "recip": _Elementary(lambda v: 1.0 / v, _recip_series, inside_band,
                         "reciprocal of (near-)zero value {}"),
    "abs_signed": _Elementary(abs, _abs_signed_series, inside_band,
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


def _checked(f, v) -> _Elementary:
    """The forms of ``f`` once its value guard has passed at ``v`` (a
    float, or one per lane)."""
    form = _ELEMENTARY.get(f) or _power(f)
    if form.undefined is not None:
        raise_where(form.undefined(v), v, form.message)
    return form


def _values(c: np.ndarray):
    """The constant terms of one series (a float) or of a batch."""
    return float(c[0]) if c.ndim == 1 else c[:, 0]


def elementary(f, c: np.ndarray, lay) -> np.ndarray:
    """Coefficients of ``f`` of the series ``c`` (or of each series of a
    batch) in the degree layout ``lay`` (:mod:`blp.series`); the guard
    reads the value ``c[0]``.

    ``f`` is one of the names ``exp, ln, sin, cos, tan, sinh, cosh, sqrt,
    recip, abs_signed`` or a tuple ``("pow", r)``.
    """
    return _checked(f, float(c[0]) if c.ndim == 1 else c[:, 0]).series(c, lay)


def quotient(a: np.ndarray, b: np.ndarray, lay) -> np.ndarray:
    """Coefficients of ``a / b`` in the degree layout ``lay``, guarded by
    the values; either may be a batch."""
    check_denominator(_values(b), _values(a),
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
    """``x ** r``; a jet exponent that is not constant (or not the same
    in every lane) gives exp(r ln x)."""
    if isinstance(r, Jet3):
        c = r.coeffs
        if np.any(c[..., 1:]) or np.any(c[..., 0] != c.flat[0]):
            return exp(r * ln(x))
        r = c.flat[0]
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
        try:  # two single points compare exactly, and cheaply
            same = last_p is p or (last_p == p and _same_point(last_p, p))
        except ValueError:  # lanes compared elementwise
            same = _same_point(last_p, p)
        if same and last_jet.order >= order:
            return last_jet.truncate(order)
        jet = fn(p, order)
        last_p, last_jet = p, jet
        return jet

    remembered.remembers_last_point = True
    remembered.__wrapped__ = fn
    return remembered


def as_batch(fn: JetMap) -> JetMap:
    """``fn`` asked at every point as a batch: a single point as a batch of
    one lane, and a coordinate that a batch does not vary spread over its
    lanes, so that a lane's jet has the same bits in every batch it comes
    in.  ``inspect.unwrap`` returns ``fn``."""
    def batched(p: Point, order: int) -> Jet3:
        count = lanes(p)
        c = fn(Point(*(c if isinstance(c, np.ndarray)
                       else np.full(count or 1, c, dtype=float) for c in p)),
               order).coeffs
        return _jet(p, order, c[0] if count is None and c.ndim == 2 else c)

    batched.__wrapped__ = fn
    return batched


def per_lane(fn: JetMap) -> JetMap:
    """``fn`` for a map whose code is scalar: a batched point is answered
    by asking ``fn`` at each lane's point, in lane order, and stacking the
    jets (:func:`each_lane`), so it raises as ``fn`` does at the first
    lane that raises, and names that lane.  ``inspect.unwrap`` returns
    ``fn``."""
    def lanewise(p: Point, order: int) -> Jet3:
        count = lanes(p)
        if count is None:
            return fn(p, order)
        return _jet(p, order, np.stack(each_lane(
            lambda i: fn(lane(p, i), order).coeffs, count)))

    lanewise.__wrapped__ = fn
    return lanewise
