"""Truncated trivariate Taylor jets in (t, x, y).

A :class:`Jet3` stores the Taylor coefficients ``c[i,j,k]`` of a scalar
field around a base point, for all ``i+j+k <= order``, in graded
lexicographic layout.  The represented germ is

    sum_{i+j+k<=N} c[i,j,k] (t-t0)^i (x-x0)^j (y-y0)^k.

Coefficients are Taylor coefficients (partial derivative divided by
``i! j! k!``), which keeps truncated products cheap; true partials are
recovered by :meth:`Jet3.extract`.

The order of a jet, and the order argument of a jet map, is a truncation
key: an int is the full jet of that order, and a :class:`Key` (made by
:func:`cap`) also caps the power of each axis, so that the jet keeps the
monomials inside the caps, in the same graded order.  The dropped
monomials form an ideal of the truncated Taylor ring, so every ring
operation, elementary function and composition with a univariate series
is exact on the quotient, and a kept coefficient sums the same terms in
the same order as in the full jet: it has the full jet's bits (a single
series computes its recurrences in the full layout, :func:`elementary`).
:func:`up` is the one rule that raises a key, by one order in one axis,
for a map that then differentiates only along it; ``key + k`` is the
int order k above, the full jet, which covers every key of that order.
:meth:`Jet3.derive` lowers the cap of its axis, and an axis capped at 0
cannot be differentiated.  Two jets of one order combine on the meet of
their keys, and a number (an int, a float or a NumPy scalar) as a float,
or an array as one number per lane; a reader truncates what a map
returns to the key it asked, and a remembered jet (:func:`last_point`)
answers only the keys it covers.  Tables are built per key, up to
:data:`MAX_ORDER`; a higher order raises :class:`OrderTooHigh`, and a
negative one a ``ValueError``.

Elementary functions of a jet (:func:`apply_unary`) and the quotient of
two jets are computed degree by degree: each homogeneous-degree part of
the result follows from the lower ones by a Taylor recurrence derived
from the Euler operator (Neidinger, "Computing multivariable Taylor
series to arbitrary order", APL Quote Quad 25, 1995), written once in
:mod:`blp.series` for jets and univariate series alike.  Nonnegative
integer powers are products.  :func:`apply_taylor` composes a univariate
series that a caller supplies by the one Horner rule of :mod:`blp.series`,
and :func:`compose3` gives the matrix that composes a jet with a
triangular map of jets.

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
scalar code run lane by lane (:func:`each_lane`) names the lane that
raised.  The reduced-profile fields and symmetry images take their lanes
at once, and are wrapped by :func:`as_batch`, which asks a single point
as a batch of one lane, so a lane's bits do not depend on the batch it
comes in.  A grid report
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
    "OrderTooHigh",
    "MAX_ORDER",
    "Key",
    "cap",
    "uncap",
    "up",
    "narrow",
    "widen",
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
# truncation keys, and index tables cached per key
# ----------------------------------------------------------------------

#: the highest jet order: a table of a higher order is never built.  A
#: forward (u,v) Laplace chain asks two orders more per level; at 15 it
#: stops at depth 6, which already takes seconds and hundreds of MB on a
#: grid of 64 points, both doubling per level (README)
MAX_ORDER = 15


class OrderTooHigh(BadInput):
    """A jet asked at an order above :data:`MAX_ORDER`."""

    def __init__(self, order: int):
        super().__init__(f"jet order {order} exceeds the maximum "
                         f"{MAX_ORDER}")
        self.order = order


class Key(int):
    """A truncation key: a jet order, the int, with a cap on the power of
    each axis, ``caps`` (t, x, y), at least one of them below the order.
    A plain int is the key of the full jet of that order.

    Keys are interned (:func:`cap`, :func:`up`), so one key is one
    object; :func:`up` raises a key, and ``key + k`` is the plain int,
    the full jet of the order k above.  Comparisons
    order keys by their monomials: ``a >= b`` when every monomial of
    ``b`` is one of ``a``, which for two ints is the order of ints.
    """

    caps: tuple

    def __eq__(self, other):
        return self is other

    def __ne__(self, other):
        return self is not other

    __hash__ = object.__hash__

    def __ge__(self, other):
        return int(self) >= int(other) and all(
            map(int.__ge__, self.caps, _caps(other)))

    def __le__(self, other):
        return int(self) <= int(other) and all(
            map(int.__le__, self.caps, _caps(other)))

    def __gt__(self, other):
        return self is not other and self >= other

    def __lt__(self, other):
        return self is not other and self <= other

    def __repr__(self):
        caps = ", ".join(f"{a}={c}" for a, c in zip("txy", self.caps)
                         if c < int(self))
        return f"Key({int(self)}, {caps})"


_KEYS: dict = {}


def _caps(order) -> tuple:
    """The caps (t, x, y) of a key; an int caps each axis at its order."""
    return order.caps if type(order) is Key else (order,) * 3


def _key(order: int, caps) -> int:
    """The interned key of ``order`` with ``caps``, each at most the
    order; the int ``order`` where no cap is below it."""
    order = int(order)
    caps = tuple(min(int(c), order) for c in caps)
    if min(caps) == order:
        return order
    k = _KEYS.get((order, caps))
    if k is None:
        k = _KEYS[(order, caps)] = Key(order)
        k.caps = caps
    return k


@functools.lru_cache(maxsize=1024)
def cap(order, axis: str, at_most: int) -> int:
    """The key of ``order`` with the power of ``axis`` at most ``at_most``
    as well."""
    a = _AXES[axis]
    return _key(order, [min(c, at_most) if b == a else c
                        for b, c in enumerate(_caps(order))])


@functools.lru_cache(maxsize=1024)
def uncap(order, axis: str) -> int:
    """The key of ``order`` without the cap of ``axis``."""
    if type(order) is int:
        return order
    a = _AXES[axis]
    return _key(order, [int(order) if b == a else c
                        for b, c in enumerate(_caps(order))])


@functools.lru_cache(maxsize=1024)
def up(order, axis: str) -> int:
    """The key one order up in ``axis`` alone, for a map that then
    differentiates only along ``axis``: the order and the cap of ``axis``
    rise by one, and a capped axis keeps its cap.  An int rises by one."""
    if type(order) is int:
        return order + 1
    a = _AXES[axis]
    n = int(order)
    return _key(n + 1, [c + 1 if b == a or c == n else c
                        for b, c in enumerate(order.caps)])


class _Tables(series.Layout):
    """Monomial bookkeeping for one truncation key: the monomials of its
    order, in graded lexicographic order, that its caps keep."""

    def __init__(self, order: int):
        n = int(order)
        ct, cx, cy = _caps(order)
        exps = []
        for d in range(n + 1):
            for i in range(min(d, ct), -1, -1):
                for j in range(min(d - i, cx), -1, -1):
                    if d - i - j <= cy:
                        exps.append((i, j, d - i - j))
        super().__init__(exps)
        self.key = order
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
            np.asarray([self.index[e] for e in (
                tuple(d if b == a else 0 for b in range(3))
                for d in range(n + 1)) if e in self.index],
                dtype=np.intp)
            for a in range(3)]
        # the jets of t, x and y less their values: entries 1, 2, 3 are
        # the monomials t, x, y of a full jet
        self.coordinate_rows = np.eye(3, self.size, 1)
        self._positions: dict = {}
        #: per axis, the derivative (:meth:`derive`), built when first asked
        self.derivatives = [None] * 3
        if type(order) is not int:
            #: the full tables of the order, and where the kept monomials
            #: lie in them: a single series is computed there (see
            #: :func:`elementary`)
            self.full = _tables(n)
            self.in_full = np.asarray([self.full.index[e] for e in exps],
                                      dtype=np.intp)
            self.coordinate_rows = self.full.coordinate_rows[:, self.in_full]

    def positions(self, order) -> np.ndarray:
        """The index here of each monomial of the key ``order``; a
        ``ValueError`` where these tables do not cover it."""
        index = self._positions.get(order)
        if index is None:
            if not self.key >= order:
                raise ValueError(f"cannot truncate a jet of key "
                                 f"{self.key!r} to {order!r}")
            index = self._positions[order] = np.asarray(
                [self.index[e] for e in _tables(order).exps], dtype=np.intp)
        return index

    def derive(self, a: int) -> tuple:
        """The derivative along axis ``a``: (its key, gather, scale), whose
        entry m is entry gather[m] of a jet of this key times scale[m].
        The key loses an order and a power of the axis, and an axis
        capped at 0 raises."""
        caps = list(_caps(self.key))
        if caps[a] == 0:
            raise ValueError(f"cannot differentiate along {'txy'[a]}, "
                             f"capped at 0 in {self.key!r}")
        caps[a] -= 1
        gather, scale = [], []
        for e in self.exps:
            m = self.index.get(tuple(c + (b == a) for b, c in enumerate(e)))
            if m is not None:
                gather.append(m)
                scale.append(e[a] + 1)
        self.derivatives[a] = (_key(int(self.key) - 1, caps),
                               np.asarray(gather, dtype=np.intp),
                               np.asarray(scale, dtype=float))
        return self.derivatives[a]


_TABLES: dict[int, _Tables] = {}


def _tables(order: int) -> _Tables:
    tab = _TABLES.get(order)
    if tab is None:
        if int(order) > MAX_ORDER:
            raise OrderTooHigh(int(order))
        if int(order) < 0:
            raise ValueError("order must be >= 0")
        tab = _TABLES[order] = _Tables(order)
    return tab


def jet_size(order: int) -> int:
    """The number of coefficients of the full jet of ``order``, an int."""
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
        if coeffs.shape[-1] != _tables(order).size:
            raise ValueError("coefficient array has wrong length")
        self.base = base
        self.order = order
        self.coeffs = coeffs

    # -- constructors ---------------------------------------------------

    @staticmethod
    def constant(value, base: Point, order: int) -> "Jet3":
        """The constant jet of ``value``, a float or one per lane."""
        return _jet(base, order,
                    _coordinate(value, np.zeros(_tables(order).size)))

    # -- basics ----------------------------------------------------------

    @property
    def value(self):
        """The value: a float, or an array over the lanes of a batch."""
        return _values(self.coeffs)

    def copy_with(self, coeffs: np.ndarray) -> "Jet3":
        """A jet of the same base and order; ``coeffs`` has its length."""
        jet = object.__new__(Jet3)
        jet.base, jet.order, jet.coeffs = self.base, self.order, coeffs
        return jet

    def truncate(self, order: int) -> "Jet3":
        """The jet of the key ``order``, which this jet's key covers."""
        have = self.order
        if order == have:
            return self
        return _jet(self.base, order, narrow(self.coeffs, have, order))

    def _operands(self, other) -> tuple:
        """The operands of a binary operation of this jet with ``other``:
        for a jet of this base and order, both jets truncated to the meet
        of their keys; for a number (an int, a float, a NumPy scalar or a
        0-d array), this jet and the number as a float, and for any other
        array, this jet and the array, one number per lane; else
        ``other`` is NotImplemented."""
        if isinstance(other, Jet3):
            if other.order is self.order and other.base is self.base:
                return self, other
            if int(other.order) != int(self.order) \
                    or not _same_point(other.base, self.base):
                raise ValueError(_UNMATCHED)
            meet = _key(self.order, map(min, _caps(self.order),
                                        _caps(other.order)))
            return self.truncate(meet), other.truncate(meet)
        if isinstance(other, np.ndarray) and other.ndim:
            return self, other
        if isinstance(other, (int, float, np.integer, np.floating,
                              np.ndarray)):
            return self, float(other)
        return self, NotImplemented

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        a, b = self._operands(other)
        if b is NotImplemented:
            return b
        return a.copy_with(a.coeffs + b.coeffs if isinstance(b, Jet3)
                           else _shifted(a.coeffs, b))

    __radd__ = __add__

    def __neg__(self):
        return self.copy_with(-self.coeffs)

    def __sub__(self, other):
        a, b = self._operands(other)
        if b is NotImplemented:
            return b
        return a.copy_with(a.coeffs - b.coeffs if isinstance(b, Jet3)
                           else _shifted(a.coeffs, -b))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._operands(other)
        if b is NotImplemented:
            return b
        if isinstance(b, Jet3):
            return a.copy_with(_tables(a.order).mul(a.coeffs, b.coeffs))
        return a.copy_with(a.coeffs * _per_lane(b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self._operands(other)
        if b is NotImplemented:
            return b
        if isinstance(b, Jet3):
            return a.copy_with(
                quotient(a.coeffs, b.coeffs, _tables(a.order)))
        check_denominator(b, a.value, "division by (near-)zero scalar")
        return a.copy_with(a.coeffs / _per_lane(b))

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
        """Jet of the partial derivative; drops one order, and one power
        of ``which`` from its cap.  An axis capped at 0 raises."""
        if not self.order:
            raise ValueError("cannot differentiate an order-0 jet")
        tab, a = _tables(self.order), _AXES[which]
        order, src, scale = tab.derivatives[a] or tab.derive(a)
        return _jet(self.base, order, _gather(self.coeffs, src) * scale)

    def extract(self, multi_index):
        """The partial derivative of ``multi_index`` at the base: a float,
        or an array over the lanes of a batch."""
        tab = _tables(self.order)
        m = tab.index.get(tuple(multi_index))
        if m is None:
            raise ValueError(f"multi-index {tuple(multi_index)} is not in "
                             f"a jet of key {self.order!r}")
        if self.coeffs.ndim == 1:
            return float(self.coeffs[m] * tab.fact[m])
        return self.coeffs[:, m] * tab.fact[m]


_UNMATCHED = "jets are combinable only with matching base and order"


def _jet(base: Point, order: int, coeffs: np.ndarray) -> Jet3:
    """A jet built inside this module, whose ``coeffs`` is known to have
    the length of ``order``: the public constructor's check is skipped."""
    jet = object.__new__(Jet3)
    jet.base, jet.order, jet.coeffs = base, order, coeffs
    return jet


def narrow(c: np.ndarray, have: int, want: int) -> np.ndarray:
    """A copy of the coefficients of the key ``want`` in the coefficients
    ``c`` of the key ``have``; a ``ValueError`` where ``have`` does not
    cover ``want``."""
    if type(want) is int is type(have) and want <= have:
        return c[..., :jet_size(want)].copy()
    return _gather(c, _tables(have).positions(want))


def widen(c: np.ndarray, order: int) -> np.ndarray:
    """The coefficients ``c`` of the key ``order`` in the full layout of
    its order, zero at each monomial that the key drops."""
    if type(order) is int:
        return c
    tab = _tables(order)
    out = np.zeros(c.shape[:-1] + (tab.full.size,))
    out[..., tab.in_full] = c
    return out


def _gather(c: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The coefficients ``index`` of one jet or of each lane."""
    return c[index] if c.ndim == 1 else c.take(index, axis=1)


def _shifted(c: np.ndarray, k) -> np.ndarray:
    """A copy of the coefficients ``c`` of one jet or of each lane with
    ``k`` (a float, or one per lane) added to the constant term."""
    c = np.array(np.broadcast_to(c, (len(k), c.shape[-1]))) \
        if isinstance(k, np.ndarray) else c.copy()
    # c.T[0] is the constant term of one jet, or of each lane; c[..., 0]
    # of one jet would add into a 0-d array, several times slower
    c.T[0] += k
    return c


def _per_lane(k):
    """A factor ``k`` (a float, or one per lane) that scales the
    coefficients of one jet or of each lane."""
    return k[:, None] if isinstance(k, np.ndarray) else k


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
    _check_point(at)
    axis = _AXES[which]
    return _jet(at, order,
                _coordinate(at[axis], _tables(order).coordinate_rows[axis]))


def coordinate_jets(p: Point, order: int) -> tuple[Jet3, Jet3, Jet3]:
    """The jets of t, x and y at ``p``, with one check of the point."""
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
    out.T[_tables(a.order).with_axis[_AXES[axis]]] = 0.0  # as in _shifted
    return _jet(at, a.order, out)


def axis_series(a: Jet3, axis: str) -> np.ndarray:
    """Univariate Taylor coefficients of ``a`` along ``axis`` alone, as a
    new array."""
    return _gather(a.coeffs, _tables(a.order).axis_powers[_AXES[axis]])


def axis_jet(ser: np.ndarray, axis: str, at: Point, order=None) -> Jet3:
    """Jet at ``at`` of the univariate series ``ser`` along ``axis``,
    constant in the other two variables: the inverse of :func:`axis_series`.
    ``ser`` is one series, or one per lane; the jet has the key ``order``,
    whose order is at most the series', by default the series' order."""
    _check_point(at)
    if order is None:
        order = ser.shape[-1] - 1
    tab = _tables(order)
    powers = tab.axis_powers[_AXES[axis]]
    c = np.zeros(ser.shape[:-1] + (tab.size,))
    c[..., powers] = ser[..., :len(powers)]
    return _jet(at, order, c)


def apply_taylor(coeffs: np.ndarray, a: Jet3) -> Jet3:
    """Compose a univariate Taylor series (around ``a.value``) with ``a``.

    ``coeffs[..., k]`` is the k-th Taylor coefficient f^(k)(a.value)/k!:
    one series, or one per lane of a batched ``a`` in the lane-first
    layout of :func:`axis_series`.  :func:`series.horner` sums it from
    the top coefficient, whose step is a scaling, so degree d costs d - 1
    jet products; it serves series that a caller builds itself, and the
    elementary functions use :func:`elementary` instead.
    """
    n = a.order
    c = coeffs.tolist() if coeffs.ndim == 1 else list(coeffs.T)
    out = series.horner(c[: min(int(n), len(c) - 1) + 1], a - a.value)
    return out if isinstance(out, Jet3) else Jet3.constant(out, a.base, n)


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
    form = _checked(f, _values(c))
    if c.ndim == 1 and lay.full is not None:
        return _in_full(form.series, lay, c)
    return form.series(c, lay)


def quotient(a: np.ndarray, b: np.ndarray, lay) -> np.ndarray:
    """Coefficients of ``a / b`` in the degree layout ``lay``, guarded by
    the values; either may be a batch."""
    check_denominator(_values(b), _values(a),
                      "jet division: denominator value {} inside guard band")
    if a.ndim == b.ndim == 1 and lay.full is not None:
        return _in_full(series.div, lay, a, b)
    return series.div(a, b, lay)


def _in_full(op, lay, *cs: np.ndarray) -> np.ndarray:
    """``op(*cs, lay)`` for single series of a capped layout, computed in
    its full layout with the dropped coefficients zero: a single series
    sums each degree's terms with a dense product, whose bits depend on
    the shape of its matrix, so a kept coefficient has the bits of the
    full jet's.  A batch sums only the pairs of each coefficient, the
    same in every layout that keeps it."""
    return op(*(widen(c, lay.key) for c in cs), lay.full)[lay.in_full]


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

    The jet is kept at the largest key asked at that point, and a key
    that it covers (``>=``) is answered by truncation; a key that it does
    not cover is asked of ``fn`` and replaces it.  A new point replaces
    it; an error is never remembered.  Wrapping a wrapped map returns it
    as is; ``inspect.unwrap`` returns ``fn``.
    """
    if getattr(fn, "remembers_last_point", False):
        return fn
    last_p = last_jet = None

    def remembered(p: Point, order: int) -> Jet3:
        nonlocal last_p, last_jet
        if _same_point(last_p, p) and last_jet.order >= order:
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
               order).truncate(order).coeffs
        return _jet(p, order, c[0] if count is None and c.ndim == 2 else c)

    batched.__wrapped__ = fn
    return batched
