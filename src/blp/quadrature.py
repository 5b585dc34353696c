"""Adaptive Gauss-Kronrod quadrature and jet-valued line integrals.

One shared engine backs every quadrature in the package: the coordinate
conversions, the (u,v) Laplace transformation, and the solution families
whose closed forms contain an antiderivative.  Integrands may be scalar-
or vector-valued; the error estimate is the usual |K15 - G7| panel bound.

:func:`integrate_field_along` lifts an axis-parallel line integral of a
jet-evaluable field to a jet: the coefficients that carry powers of the
integration axis follow from the fundamental theorem of calculus, and the
remaining slice is integrated coefficient-wise.  :func:`integrate_xt_path`
is the two-leg path integral of a potential whose x- and t-derivatives
are known.

Refinement stops early when it no longer pays: the roundoff detection of
QUADPACK (Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner, *QUADPACK*,
Springer 1983, routine ``dqage``, counter ``iroff2``) counts the splits
whose two halves carry more error than their parent, and gives up with
a "stall" once that has happened often enough.  An integrand whose noise
floor lies above the tolerance fails in tens of panels, not at the end of
the panel budget.
"""

from __future__ import annotations

import heapq

import numpy as np

from .jets import BLPError, Jet3, JetMap, Point, jet_size, restrict, _tables

__all__ = ["QuadratureError", "gauss_kronrod_15", "adaptive_quadrature",
           "integrate_field_along", "integrate_xt_path"]


class QuadratureError(BLPError, ArithmeticError):
    """Adaptive subdivision failed to reach the requested tolerance.

    ``reason`` names the failure: ``"budget"`` (the panel budget ran
    out), ``"width"`` (a panel shrank below floating-point resolution) or
    ``"stall"`` (refinement stopped reducing the error).
    """

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


_UNIT_ROUNDOFF = 2.0 ** -53
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
    """One GK15 panel: returns (K15 value, |K15 - G7| error estimate)."""
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    fc = np.asarray(f(c), dtype=float)
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    for j in range(7):
        x = h * _XGK[j]
        f1 = np.asarray(f(c - x), dtype=float)
        f2 = np.asarray(f(c + x), dtype=float)
        resk = resk + _WGK[j] * (f1 + f2)
        if j % 2 == 1:
            resg = resg + _WG[j // 2] * (f1 + f2)
    err = np.max(np.abs(resk - resg)) * abs(h)
    return resk * h, err


def adaptive_quadrature(f, a: float, b: float, tol: float = 1e-10,
                        max_panels: int = 2000):
    """Integrate ``f`` (scalar- or vector-valued) from a to b.

    Panels are refined in heap order: the panel with the largest error
    estimate is split first, the older one on ties.  The error total is
    kept as a running sum with a rigorous bound on its roundoff drift; it
    is re-summed exactly, in creation order, wherever that bound cannot
    settle the comparison with ``tol``, and always before stopping or
    giving up.  The panel values are summed in creation order.  So the
    same panels run, and the same value and failures come out, as when
    every panel is rescanned and re-summed on each split.

    Stall rule (QUADPACK ``dqage``, counter ``iroff2``): from the split
    after the ``_STALL_GRACE``-th on, a split whose two halves have a
    larger error sum than their parent is counted; at the
    ``_STALL_LIMIT``-th such split the exact error total is taken, and
    if it is still above ``tol`` refinement has hit the integrand's
    roundoff or noise floor and gives up.

    Raises :class:`QuadratureError` when the panel budget is exhausted
    (reason ``"budget"``), a panel shrinks below floating-point
    resolution (``"width"``, the usual symptom of an integrand pole
    inside the interval) or refinement stalls (``"stall"``, naming the
    panel with the largest error estimate).
    """
    if a == b:
        probe = np.asarray(f(a), dtype=float)
        return probe * 0.0
    val, err = gauss_kronrod_15(f, a, b)
    live = {0: (err, a, b, val)}   # creation index -> panel, in that order
    heap = [(-float(err), 0)]
    created = 1
    width_floor = 1e-14 * (1.0 + abs(a) + abs(b))
    total = float(err)  # running error total
    drift = 0.0         # bound on |total - exact sum of the live errors|
    splits = stalls = 0
    while True:
        n = len(live)
        # |exact sum - total| <= drift + gamma_n * (real sum), and the real
        # sum is at most total + drift; the factor 2 covers the rounding
        # of this bound itself
        gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
        slack = 2.0 * (drift + gamma * (total + drift))
        stalled = stalls == _STALL_LIMIT
        if n >= max_panels or stalled or not total - slack > tol:
            exact = sum(p[0] for p in live.values())
            if not exact > tol:
                break
            if n >= max_panels:
                raise QuadratureError("panel budget exhausted", "budget")
            if stalled:
                _, lo, hi, _ = live[heap[0][1]]
                raise QuadratureError(
                    f"refinement stalled at error {exact:g} after {splits} "
                    f"splits, worst panel [{lo}, {hi}]", "stall")
            total = float(exact)
            drift = 2.0 * gamma * total
        _, worst = heapq.heappop(heap)
        err, lo, hi, _ = live.pop(worst)
        if abs(hi - lo) < width_floor:
            raise QuadratureError(
                f"panel [{lo}, {hi}] below width floor with error {err:g}",
                "width")
        total -= float(err)
        drift += 2.0 * _UNIT_ROUNDOFF * abs(total)
        mid = 0.5 * (lo + hi)
        halves = 0.0
        for left, right in ((lo, mid), (mid, hi)):
            v, e = gauss_kronrod_15(f, left, right)
            live[created] = (e, left, right, v)
            heapq.heappush(heap, (-float(e), created))
            created += 1
            halves += float(e)
            total += float(e)
            drift += 2.0 * _UNIT_ROUNDOFF * abs(total)
        splits += 1
        if splits > _STALL_GRACE and halves > err:
            stalls += 1
    values = [p[3] for p in live.values()]
    result = values[0] * 0.0
    for v in values:
        result = result + v
    return result


_AXIS_NUM = {"t": 0, "x": 1, "y": 2}


def integrate_field_along(field: JetMap, axis: str, lower: float,
                          p: Point, order: int, tol: float = 1e-10) -> Jet3:
    """Jet of ``F(p) = integral of field along one axis from lower to p.axis``.

    The integrand is a jet-evaluable field g; the result F satisfies
    dF/d(axis) = g, so coefficients with a positive power of the axis come
    from g's jet at ``p``, while the axis-free slice is a vector quadrature
    of g's jets along the integration segment.
    """
    ax = _AXIS_NUM[axis]
    upper = p[ax]
    tab = _tables(order)
    g_at_p = field(p, order)
    out = np.zeros(jet_size(order))

    slice_idx = [m for m, e in enumerate(tab.exps) if e[ax] == 0]

    def slice_values(s: float) -> np.ndarray:
        q = Point(*(s if i == ax else p[i] for i in range(3)))
        jp = field(q, order)
        return jp.coeffs[slice_idx]

    sliced = adaptive_quadrature(slice_values, lower, upper, tol=tol)
    for pos, m in enumerate(slice_idx):
        out[m] = sliced[pos]

    for m, e in enumerate(tab.exps):
        k = e[ax]
        if k == 0:
            continue
        src = list(e)
        src[ax] = k - 1
        out[m] = g_at_p.coeffs[_tables(order).index[tuple(src)]] / k
    return Jet3(p, order, out)


def integrate_xt_path(x_integrand: JetMap, t_integrand: JetMap, base: Point,
                      p: Point, order: int, tol: float = 1e-10) -> Jet3:
    """Jet at ``p`` of the potential F with F_x = f and F(t, x0, y) given
    by its t-derivative g on the line x = x0:

        F(t, x, y) = int_x0^x f(t, x', y) dx' + int_t0^t g(t', x0, y) dt',

    with ``(t0, x0) = (base.t, base.x)``.  ``t_integrand`` is asked on
    that line only, and its jet is restricted to it, so the second leg
    does not depend on x.
    """
    def on_base_line(q: Point, n: int) -> Jet3:
        g = t_integrand(Point(q.t, base.x, q.y), n)
        return restrict(g, "x", q)

    return (integrate_field_along(x_integrand, "x", base.x, p, order, tol)
            + integrate_field_along(on_base_line, "t", base.t, p, order, tol))
