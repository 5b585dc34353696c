"""Adaptive Gauss-Kronrod quadrature and jet-valued line integrals.

One shared engine backs every quadrature in the package: the coordinate
conversions, the (u,v) Laplace transformation, and the solution families
whose closed forms contain an antiderivative.  Integrands may be scalar-
or vector-valued; the error estimate is the usual |K15 - G7| panel bound.
Refinement is a plain list scan: the panel with the largest estimate is
split until the error total meets the tolerance, within a budget of
``MAX_PANELS`` panels.  One quadrature may run many lanes, one per upper
limit, in lockstep: each lane keeps its own panels, split order, budget
and stall count, and in each round every unfinished lane asks its first
panel or the two halves of its worst, all in one integrand call on the
15 abscissae of each of those panels (QUADPACK's ``qk15``, many panels
at once, as in SciPy's ``quad_vec``).  So a lane's abscissae, bits and
failure do not depend on the other lanes, and a quadrature makes one
integrand call per round, not one per panel.  A failing batch raises
by the one rule of :func:`jets.raise_where`: the first round in which a
lane fails raises the error of its first such lane, which it names, and
ends the quadrature.

:func:`integrate_field_along` lifts an axis-parallel line integral of a
jet-evaluable field to a jet: the coefficients that carry powers of the
integration axis follow from the fundamental theorem of calculus, and the
remaining slice is integrated coefficient-wise, each round one jet of
the field at a point whose integration coordinate holds the round's
abscissae (a batch of lanes, see :mod:`blp.jets`), the lanes of a
batched point one quadrature in lockstep.  :func:`line_integral` keeps
such jets, one per grid line of an integrand constant along it, and
integrates the lines a batch lacks in one call.  The t-leg of
:func:`xt_path`, the two-leg path integral of a potential with known x-
and t-derivatives, is one.

Refinement stops early when it no longer pays: the roundoff detection of
QUADPACK (Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner, *QUADPACK*,
Springer 1983, routine ``dqage``, counter ``iroff2``) counts the splits
whose two halves carry more error than their parent, and gives up with
a "stall" once that has happened often enough.  An integrand whose noise
floor lies above the tolerance fails in tens of panels, not at the end of
the panel budget.
"""

from __future__ import annotations

from functools import lru_cache, partial

import numpy as np

from .jets import (BLPError, Jet3, JetMap, Point, jet_size, lanes, name_lanes,
                   restrict, _tables)

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
#: a panel's abscissae over [-1, 1] in the order they are asked: 0, then
#: -x_j and x_j for j = 0..6
_X15 = np.concatenate(([0.0], np.stack((-_XGK[:7], _XGK[:7]), 1).ravel()))


def gauss_kronrod_15(f, a, b):
    """GK15 panels from a to b: returns (K15 values, |K15 - G7| error
    estimates), one per panel for arrays of endpoints, else one each.

    ``f`` is called once, on the abscissae c, c - h x_j, c + h x_j for
    j = 0..6 of each panel in turn, and returns one value (or vector) per
    abscissa; each panel's sums run in the order of its abscissae."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    h = (0.5 * (b - a)).reshape(-1, 1)
    c = (0.5 * (a + b)).reshape(-1, 1)
    fx = np.asarray(f((c + h * _X15).reshape(-1)), dtype=float)
    fx = fx.reshape((len(h), 15) + fx.shape[1:])
    pairs = fx[:, 1::2] + fx[:, 2::2]  # j = 0..6
    per = (-1,) + (1,) * (fx.ndim - 2)  # weights along the pair axis
    # np.add.accumulate adds term after term, as a loop over j would
    resk = np.add.accumulate(np.concatenate(
        (_WGK[7] * fx[:, :1], _WGK[:7].reshape(per) * pairs), axis=1),
        axis=1)[:, -1]
    resg = np.add.accumulate(np.concatenate(
        (_WG[3] * fx[:, :1], _WG[:3].reshape(per) * pairs[:, 1::2]), axis=1),
        axis=1)[:, -1]
    err = np.abs(resk - resg).reshape(len(h), -1).max(axis=1) * abs(h[:, 0])
    val = resk * h.reshape((-1,) + (1,) * (resk.ndim - 1))
    return (val, err) if a.ndim or b.ndim else (val[0], err[0])


def adaptive_quadrature(f, a: float, b, tol: float = TOL):
    """Integrate ``f`` (scalar- or vector-valued) from a to b, where b is
    a float, or an array of upper limits, one lane each.

    For a float b, ``f`` takes an array of abscissae; for lanes, it takes
    the abscissae and, for each, the index of its lane.  Each lane refines
    on its own (:func:`_refine`), and the lanes run in lockstep: in each
    round every unfinished lane asks its panels, its first or the two
    halves of its worst, and :func:`gauss_kronrod_15` evaluates all of
    them in one call of ``f``, lane after lane.  So a lane's abscissae,
    bits and failure are those of the lane alone.  Returns the value, or
    an array of one value per lane.

    Raises as :func:`jets.raise_where` does: the first round in which a
    lane fails raises the :class:`QuadratureError` of its first such lane
    in lane order, as that lane alone raises it, naming that lane, and no
    lane is refined further.  An error of ``f`` names the lanes of the
    abscissae it names.
    """
    one = not isinstance(b, np.ndarray)
    ends = [b] if one else b.tolist()
    refine = [_refine(a, end, tol) for end in ends]
    out = [None] * len(ends)
    asked = {i: next(lane) for i, lane in enumerate(refine)}
    while asked:
        owners, lo, hi = [], [], []
        for i, panels in asked.items():
            for left, right in panels:
                owners.append(i)
                lo.append(left)
                hi.append(right)
        try:
            values, errors = gauss_kronrod_15(
                f if one else lambda s: f(s, np.repeat(owners, 15)), lo, hi)
        except BLPError as exc:
            name_lanes(exc, np.repeat(owners, 15), np.arange(len(ends)))
            raise
        errors = errors.tolist()
        at, unfinished = 0, {}
        for i, panels in asked.items():
            n = len(panels)
            got = zip(errors[at:at + n], values[at:at + n])
            at += n
            try:
                unfinished[i] = refine[i].send(got)
            except StopIteration as done:
                out[i] = done.value
            except QuadratureError as exc:
                name_lanes(exc, i, np.arange(len(ends)))
                raise
        asked = unfinished
    return out[0] if one else np.stack(out)


def _refine(a: float, b: float, tol: float):
    """One lane's refinement from a to b: a generator that yields the
    panels (lo, hi) it asks, is sent their (error, value) pairs, and
    returns the integral.

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
    [(err, val)] = yield ((a, b),)
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
        halves = ((lo, mid), (mid, hi))
        got = yield halves
        for (left, right), (e, v) in zip(halves, got):
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
    of g's jets along the integration segment: one jet of g per round of
    refinement, at the point whose ``axis`` holds the round's abscissae.
    Where ``lower == p.axis`` the slice is zero and no abscissa is asked.
    At a batched ``p``, g is asked once at ``p`` for the whole batch, and
    the lanes' quadratures run in lockstep (:func:`adaptive_quadrature`):
    each round asks g once, at the abscissae of every unfinished lane,
    each with its lane's other coordinates, a coordinate that every lane
    of the round shares as a float.
    """
    ax = _AXIS_NUM[axis]
    tab = _tables(order)
    g_at_p = field(p, order)
    free = _free_of(order, ax)
    count = lanes(p)
    if count is None:
        out = np.zeros(jet_size(order))
        if lower != p[ax]:
            out[free] = adaptive_quadrature(
                partial(_slice_values, field, p, ax, order, free),
                lower, p[ax])
    else:
        out = np.zeros((count, jet_size(order)))
        ends = np.broadcast_to(p[ax], count)
        todo = np.flatnonzero(ends != lower)
        if todo.size:
            try:
                out[todo[:, None], free] = adaptive_quadrature(
                    partial(_slice_values, field, p, ax, order, free,
                            todo=todo), lower, ends[todo])
            except BLPError as exc:
                name_lanes(exc, todo, np.arange(count))
                raise
    # F's monomial e + axis is g's monomial e divided by its new power
    out[..., tab.derive_src[ax]] = \
        g_at_p.coeffs[..., :jet_size(order - 1)] / tab.derive_scale[ax]
    return Jet3(p, order, out)


def _slice_values(field: JetMap, p: Point, ax: int, order: int,
                  free: np.ndarray, s: np.ndarray, k=None,
                  todo=None) -> np.ndarray:
    """The axis-free coefficients of ``field`` at the points of ``p``
    whose coordinate ``ax`` holds the abscissae ``s``.  At a batched
    ``p``, abscissa j lies in lane ``todo[k[j]]``, and a coordinate that
    is the same at every abscissa is a float."""
    q = list(p)
    q[ax] = s
    if k is not None:
        rows = todo[k]
        for i, c in enumerate(p):
            if i != ax and isinstance(c, np.ndarray):
                c = c[rows]
                q[i] = float(c[0]) if (c == c[0]).all() else c
    c = field(Point(*q), order).coeffs.take(free, axis=-1)
    return np.broadcast_to(c, (len(s), len(free)))


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
    goes first.  The lines of a batch not kept at the order asked take
    one :func:`integrate_field_along` call, one lane per line in lane
    order, a lone line too; a batch on one line gets one jet.  A single
    point and a batch keep their lines apart, so a row does not depend
    on which path asked its line first.
    """
    skip = _AXIS_NUM[constant_along]
    known: dict = {}

    def integral(p: Point, n: int) -> Jet3:
        size = jet_size(n)
        # a line is kept by the path that made it, the scalar one of a
        # single point or the lanes of a batch, whose bits may differ
        line = (*(c for i, c in enumerate(p) if i != skip), lanes(p) is None)
        count = lanes(line)
        keys = [line] if count is None else list(zip(
            *(np.broadcast_to(c, count).tolist() for c in line)))
        fresh: dict = {}  # each line not kept at order n: lane, then jet
        for i, key in enumerate(keys):
            if len(known.get(key, ())) < size:
                fresh.setdefault(key, i)
        if fresh:
            i = list(fresh.values())
            at = Point(*(c[i] if isinstance(c, np.ndarray) else c for c in p))
            try:
                co = integrate_field_along(integrand, axis, lower, at, n)
            except BLPError as exc:  # every lane on a failing line
                name_lanes(exc, i, [fresh.get(key, -1) for key in keys])
                raise
            fresh = dict(zip(fresh, co.coeffs.reshape(len(i), -1)))
        rows = [(fresh[k] if k in fresh else known[k])[:size] for k in keys]
        known.update(fresh)
        while len(known) > _LINES_KEPT:
            del known[next(iter(known))]
        return Jet3(p, n, rows[0] if count is None else np.stack(rows))
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
