"""Adaptive Gauss-Kronrod quadrature and jet-valued line integrals.

One shared engine backs every quadrature in the package: the coordinate
conversions, the (u,v) Laplace transformation, and the solution families
whose closed forms contain an antiderivative.  Integrands may be scalar-
or vector-valued; the error estimate is the usual |K15 - G7| panel bound.
An integrand is called once per panel, on the array of its 15 abscissae
(QUADPACK's ``qk15``), and returns one value per abscissa along its
leading axis.  Refinement is a plain list scan: the panel with the
largest estimate is split until the error total meets the tolerance,
within a budget of ``MAX_PANELS`` panels.

:func:`integrate_field_along` lifts an axis-parallel line integral of a
jet-evaluable field to a jet: the coefficients that carry powers of the
integration axis follow from the fundamental theorem of calculus, and the
remaining slice is integrated coefficient-wise, each panel one jet of the
field at a point whose integration coordinate holds the panel's
abscissae (a batch of lanes, see :mod:`blp.jets`).  :func:`line_integral`
caches such integrals, one jet per grid line for an integrand constant
along that line, and keeps a bounded number of lines.  :func:`xt_path`,
built once per field, is the two-leg path integral of a potential whose
x- and t-derivatives are known; its t-leg is a line integral.

Refinement stops early when it no longer pays: the roundoff detection of
QUADPACK (Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner, *QUADPACK*,
Springer 1983, routine ``dqage``, counter ``iroff2``) counts the splits
whose two halves carry more error than their parent, and gives up with
a "stall" once that has happened often enough.  An integrand whose noise
floor lies above the tolerance fails in tens of panels, not at the end of
the panel budget.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .jets import (BLPError, Jet3, JetMap, Point, jet_size, lane, lanes,
                   per_lane, restrict, _tables)

__all__ = ["QuadratureError", "gauss_kronrod_15", "adaptive_quadrature",
           "integrate_field_along", "line_integral", "xt_path"]


class QuadratureError(BLPError, ArithmeticError):
    """Adaptive subdivision failed to reach the requested tolerance.

    ``reason`` names the failure: ``"budget"`` (the panel budget ran
    out), ``"width"`` (a panel shrank below floating-point resolution) or
    ``"stall"`` (refinement stopped reducing the error).
    """

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


TOL = 1e-10  # the tolerance of every jet-valued line integral
MAX_PANELS = 2000  # the panel budget of every adaptive quadrature
#: splits that are never counted as raising the error (QUADPACK's
#: ``last > 10``), and the count of later ones that ends refinement
_STALL_GRACE = 10
_STALL_LIMIT = 20


# 15-point Kronrod nodes and weights with the embedded 7-point Gauss rule
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])


def gauss_kronrod_15(f, a: float, b: float):
    """One GK15 panel: returns (K15 value, |K15 - G7| error estimate).

    ``f`` is called once, on the abscissae c, c - h x_j, c + h x_j for
    j = 0..6 in that order, and returns one value (or vector) per
    abscissa; the sums run in the order of the abscissae."""
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    x = h * _XGK[:7]
    nodes = np.empty(15)
    nodes[0] = c
    nodes[1::2] = c - x
    nodes[2::2] = c + x
    fx = np.asarray(f(nodes), dtype=float)
    resk = _WGK[7] * fx[0]
    resg = _WG[3] * fx[0]
    for j in range(7):
        pair = fx[2 * j + 1] + fx[2 * j + 2]
        resk = resk + _WGK[j] * pair
        if j % 2 == 1:
            resg = resg + _WG[j // 2] * pair
    err = np.max(np.abs(resk - resg)) * abs(h)
    return resk * h, err


def adaptive_quadrature(f, a: float, b: float, tol: float = TOL):
    """Integrate ``f`` (scalar- or vector-valued) from a to b; ``f`` takes
    an array of abscissae, one call per panel (:func:`gauss_kronrod_15`).

    While the error total, summed in creation order, is above ``tol``,
    the panel with the largest error estimate is split, the older one on
    ties.  The panel values are summed in creation order.

    Stall rule (QUADPACK ``dqage``, counter ``iroff2``): from the split
    after the ``_STALL_GRACE``-th on, a split whose two halves have a
    larger error sum than their parent is counted; once ``_STALL_LIMIT``
    such splits are counted and the error total is still above ``tol``,
    refinement has hit the integrand's roundoff or noise floor and gives
    up.

    Raises :class:`QuadratureError` when ``MAX_PANELS`` panels are not
    enough (reason ``"budget"``), a panel shrinks below floating-point
    resolution (``"width"``, the usual symptom of an integrand pole
    inside the interval) or refinement stalls (``"stall"``, naming the
    panel with the largest error estimate).
    """
    if a == b:
        probe = np.asarray(f(np.array([a])), dtype=float)
        return probe[0] * 0.0
    val, err = gauss_kronrod_15(f, a, b)
    panels = [(err, a, b, val)]  # in creation order
    width_floor = 1e-14 * (1.0 + abs(a) + abs(b))
    splits = stalls = 0
    while (total := sum(p[0] for p in panels)) > tol:
        if len(panels) >= MAX_PANELS:
            raise QuadratureError("panel budget exhausted", "budget")
        worst = max(range(len(panels)), key=lambda i: panels[i][0])
        if stalls == _STALL_LIMIT:
            _, lo, hi, _ = panels[worst]
            raise QuadratureError(
                f"refinement stalled at error {total:g} after {splits} "
                f"splits, worst panel [{lo}, {hi}]", "stall")
        err, lo, hi, _ = panels.pop(worst)
        if abs(hi - lo) < width_floor:
            raise QuadratureError(
                f"panel [{lo}, {hi}] below width floor with error {err:g}",
                "width")
        mid = 0.5 * (lo + hi)
        for left, right in ((lo, mid), (mid, hi)):
            v, e = gauss_kronrod_15(f, left, right)
            panels.append((e, left, right, v))
        splits += 1
        if splits > _STALL_GRACE and panels[-2][0] + panels[-1][0] > err:
            stalls += 1
    result = panels[0][3] * 0.0
    for p in panels:
        result = result + p[3]
    return result


_AXIS_NUM = {"t": 0, "x": 1, "y": 2}


def integrate_field_along(field: JetMap, axis: str, lower: float,
                          p: Point, order: int) -> Jet3:
    """Jet of ``F(p) = integral of field along one axis from lower to p.axis``.

    The integrand is a jet-evaluable field g; the result F satisfies
    dF/d(axis) = g, so coefficients with a positive power of the axis come
    from g's jet at ``p``, while the axis-free slice is a vector quadrature
    of g's jets along the integration segment: one jet of g per panel, at
    the point whose ``axis`` holds the panel's abscissae.  Where
    ``lower == p.axis`` the slice is zero and no abscissa is asked.  At
    a batched ``p`` each lane is one integral (:func:`jets.per_lane`).
    """
    if lanes(p) is not None:
        return per_lane(lambda q, n: integrate_field_along(
            field, axis, lower, q, n))(p, order)
    ax = _AXIS_NUM[axis]
    upper = p[ax]
    tab = _tables(order)
    g_at_p = field(p, order)
    out = np.zeros(jet_size(order))
    free = _free_of(order, ax)

    def slice_values(s: np.ndarray) -> np.ndarray:
        q = Point(*(s if i == ax else p[i] for i in range(3)))
        c = field(q, order).coeffs.take(free, axis=-1)
        return np.broadcast_to(c, (len(s), len(free)))

    if lower != upper:
        out[free] = adaptive_quadrature(slice_values, lower, upper)
    # F's monomial e + axis is g's monomial e divided by its new power
    out[tab.derive_src[ax]] = \
        g_at_p.coeffs[:jet_size(order - 1)] / tab.derive_scale[ax]
    return Jet3(p, order, out)


@lru_cache(maxsize=None)
def _free_of(order: int, ax: int) -> np.ndarray:
    """The monomials of ``order`` with no power of axis ``ax``."""
    return np.delete(np.arange(jet_size(order)), _tables(order).with_axis[ax])


#: grid lines whose integral one :func:`line_integral` keeps
_LINES_KEPT = 4096


def line_integral(integrand: JetMap, axis: str, lower: float,
                  constant_along: str) -> JetMap:
    """``integrate_field_along(integrand, axis, lower, p, n)`` for an
    integrand that does not depend on the coordinate ``constant_along``.

    The integral is then one jet all along each grid line in that
    direction.  Each line keeps its jet at the highest order computed on
    it and answers a lower order by truncation (the :func:`jets.last_point`
    rule, per line); a failed integral is never kept.  At most
    ``_LINES_KEPT`` lines are kept; the one first computed longest ago
    goes first.  A batched point whose lanes differ only in
    ``constant_along`` lies on one line, and its one jet serves every
    lane; other batches are answered lane by lane.
    """
    skip = _AXIS_NUM[constant_along]
    known: dict = {}

    def integral(p: Point, n: int) -> Jet3:
        line = tuple(c for i, c in enumerate(p) if i != skip)
        if lanes(line) is not None:
            return per_lane(integral)(p, n)
        size = jet_size(n)
        co = known.get(line)
        if co is None or len(co) < size:
            at = p if lanes(p) is None else lane(p, 0)
            co = integrate_field_along(integrand, axis, lower, at, n).coeffs
            if line not in known and len(known) >= _LINES_KEPT:
                del known[next(iter(known))]
            known[line] = co
        return Jet3(p, n, co[:size])
    return integral


def xt_path(x_integrand: JetMap, t_integrand: JetMap, base: Point) -> JetMap:
    """Jet map of the potential F with F_x = f and F(t, x0, y) given by
    its t-derivative g on the line x = x0:

        F(t, x, y) = int_x0^x f(t, x', y) dx' + int_t0^t g(t', x0, y) dt',

    with ``(t0, x0) = (base.t, base.x)``.  ``t_integrand`` is asked on
    that line only, and its jet is restricted to it, so the second leg
    does not depend on x: it is one :func:`line_integral` per (t, y)
    line, shared by every point on it.  Build the map once per field.
    """
    def on_base_line(q: Point, n: int) -> Jet3:
        g = t_integrand(Point(q.t, base.x, q.y), n)
        return restrict(g, "x", q)

    t_leg = line_integral(on_base_line, "t", base.t, constant_along="x")

    def path(p: Point, n: int) -> Jet3:
        return (integrate_field_along(x_integrand, "x", base.x, p, n)
                + t_leg(p, n))
    return path
