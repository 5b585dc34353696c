"""Solution-generating machinery: point symmetries, Laplace and Darboux.

The complete point-symmetry group acts by

    t~ = T(t),  x~ = eps sqrt(T_t) x + X0(t),  y~ = Y(y),
    u~ = eps u / sqrt(T_t) - eps T_tt x / (4 T_t^(3/2)) - X0_t / (2 T_t),
    v~ = v / Y_y + V0(y),

with smooth T, X0, Y, V0, T_t > 0, Y_y != 0 and eps = +-1.  Applying a
group element to a field composes the field with the inverse coordinate
map and pushes the components through the formulas above, entirely in
jets.  The inverse point comes from safeguarded Newton on T and Y, its
series from Taylor-series reversion.  The inverse map is triangular (t
from t~, y from y~, x affine in x~ with coefficients in t~), so T is
inverted once per t~ and Y once per y~, what else depends on t~ alone is
built once per t~ and order, what depends on y~ alone once per y~ and
order, and one composition matrix per point and order
(:func:`jets.compose3`) carries both u and v.

Every field carries w, the second component of the (u,w) form: v_x in
(u,v), q_y in (u,q) (:class:`system.SolutionField`).  On (u,w) the
forward and the inverse Laplace map are each one map for both forms,

    forward:  u~ = u + w_x/w,               w~ = w + u~_y,
    inverse:  u~ = u - (w_x-u_xy)/(w-u_y),  w~ = w - u_y,

read from the parent's u and w alone.  Each form adds its second
component: q~ = q + u~ and q~ = q - u in (u,q); v~ = v + v_xy/v_x + P
and v~ = v - P in (u,v), where P_x = u_y and P_t = (u^2-u_x)_y + 2 v_xx
on the line x = x0 (v~_x = w~ because (w_y/w)_x = (w_x/w)_y).  So no
map reruns its parent's potential: only v itself runs P's path
integral, once per point and level, and the lanes a chain asks of its
base field grow linearly with its depth; the order it asks grows by 2
per (u,v) level, and the time by about x2.2.  The jet of v or q that a
residual reads still comes from the top field's own potential, so the
check stays independent of the maps.
Each map asks its parent for the highest order it needs first; the
parent's remembered jet (:func:`jets.last_point`) answers lower ones.
A map asks ``jets.up(n, axis)`` of a parent that it differentiates
along ``axis``, once per derivative, so a truncation key passes through
it (:mod:`blp.jets`).
A transformed field has no domain predicate of its own: where a guard
of the map fires, or a point of a symmetry image has no inverse on
``WINDOW``, evaluation raises :class:`UndefinedTransform` (a
:class:`jets.UndefinedHere`), and a grid check skips that point, as it
does where the parent raises.
Darboux transformations dress a solution with covering eigenfunctions;
an n-fold dressing is n single ones, each by an eigenfunction carried
through the dressings before it (:func:`darboux_psi`), which equals the
Wronskian form (Crum's theorem).  An eigenfunction is tested against
the covering system when it is built (:class:`CoveringEigenfunction`)
and wherever a dressing evaluates its ``u``, on the jets that map asked
for, over the field it dresses: a carried eigenfunction over the field
it is carried over.  An eigenfunction attached to another field than
the one it dresses is probed again over that one, and one that fails is
a :class:`jets.BadInput` naming both family ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Sequence

import numpy as np

from . import jets, series
from .exprdsl import (Call, Expr, Num, _mk, as_expr, eval_jet, eval_series,
                      parse, sample)
from .jets import Jet3, JetMap, Point, UndefinedHere, last_point, up
from .quadrature import integrate_field_along, xt_path
from .system import SolutionField, covering_residual

__all__ = [
    "PointSymmetry", "CoveringEigenfunction", "UndefinedTransform",
    "InverseMapError", "CoveringViolation",
    "d_transform", "s_transform", "p_transform", "z_transform",
    "i_transform", "apply_symmetry",
    "laplace_forward_uq", "laplace_inverse_uq",
    "laplace_forward_uv", "laplace_inverse_uv",
    "darboux", "darboux_psi", "darboux_iterated",
    "covering_solutions_for_constraint", "uq_seed",
]

#: guard band of the maps' denominators (:func:`jets.check_denominator`)
GUARD = 1e-10


class UndefinedTransform(UndefinedHere):
    """Denominator of a transformation inside its guard band."""


_guard = partial(jets.check_denominator, band=GUARD, error=UndefinedTransform)


class InverseMapError(UndefinedTransform, RuntimeError):
    """T or Y could not be inverted on the working window."""


class CoveringViolation(jets.BadInput):
    """An eigenfunction fails the covering system at a point it is used."""


# ----------------------------------------------------------------------
# the point-symmetry group
# ----------------------------------------------------------------------

#: the window of t and of y on which T and Y are checked and inverted
WINDOW = (-6.0, 6.0)
#: t values, y values and points whose share of the inverse map a
#: symmetry image keeps: more than the points of a 5^3 grid
_POINTS_KEPT = 256


@dataclass(frozen=True)
class PointSymmetry:
    """A group element; each field defaults to the identity's."""
    T: Expr = parse("t", "t")
    X0: Expr = Num(0.0, "t")
    Y: Expr = parse("y", "y")
    V0: Expr = Num(0.0, "y")
    eps: int = 1

    def __post_init__(self):
        if self.eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")
        dT = self.T.diff()
        dY = self.Y.diff()
        tvals = sample(dT, np.linspace(*WINDOW, 17))
        if min(tvals) <= 0.0:
            raise ValueError("T_t must be positive on the working window")
        yvals = sample(dY, np.linspace(*WINDOW, 17))
        if min(abs(v) for v in yvals) == 0.0 or \
                (min(yvals) < 0.0 < max(yvals)):
            raise ValueError("Y_y must keep a fixed sign on the window")

    def compose(self, first: "PointSymmetry") -> "PointSymmetry":
        """The group element 'self after first'."""
        g2, g1 = self, first
        T = g2.T.subst(g1.T)
        Y = g2.Y.subst(g1.Y)
        sq = Call("sqrt", g2.T.diff().subst(g1.T), "t")
        X0 = _mk("+", _mk("*", _mk("*", Num(float(g2.eps), "t"), sq, "t"),
                          g1.X0, "t"), g2.X0.subst(g1.T), "t")
        y2y = g2.Y.diff().subst(g1.Y)
        V0 = _mk("+", _mk("/", g1.V0, y2y, "y"), g2.V0.subst(g1.Y), "y")
        return PointSymmetry(T=T, X0=X0, Y=Y, V0=V0, eps=g2.eps * g1.eps)


def identity_symmetry() -> PointSymmetry:
    return PointSymmetry()


def d_transform(T) -> PointSymmetry:
    return PointSymmetry(T=as_expr(T, "t"))


def s_transform(Y) -> PointSymmetry:
    return PointSymmetry(Y=as_expr(Y, "y"))


def p_transform(X0) -> PointSymmetry:
    return PointSymmetry(X0=as_expr(X0, "t"))


def z_transform(V0) -> PointSymmetry:
    return PointSymmetry(V0=as_expr(V0, "y"))


def i_transform(eps: int) -> PointSymmetry:
    return PointSymmetry(eps=eps)


def _invert_monotone(f: Expr, df: Expr, target: float) -> float:
    """Solve f(s) = target for s on ``WINDOW``, where ``df`` is f'.

    Safeguarded Newton: the root stays bracketed, and a step that would
    leave the shrinking bracket bisects it instead.
    """
    lo, hi = WINDOW
    flo, fhi = f(lo), f(hi)
    increasing = fhi > flo
    a, b = (lo, hi)
    if not (min(flo, fhi) <= target <= max(flo, fhi)):
        raise InverseMapError(
            f"target {target} outside the image [{min(flo, fhi)}, "
            f"{max(flo, fhi)}] of the window")
    s = lo + (hi - lo) * (target - flo) / (fhi - flo)
    for _ in range(200):
        r = f(s) - target
        if r == 0.0:
            break
        if (r < 0.0) == increasing:
            a = s
        else:
            b = s
        d = df(s)
        nxt = s - r / d if d else a  # a zero slope bisects
        if not a < nxt < b:
            nxt = 0.5 * (a + b)
        if abs(nxt - s) < 1e-15 * (1.0 + abs(s)):
            return nxt
        s = nxt
    return s


def _revert_series(f: np.ndarray) -> np.ndarray:
    """Power table of the inverse g of s -> sum_{k>=1} f_k s^k: row k holds
    the coefficients of g^k."""
    n = len(f) - 1
    if n == 0:
        return np.ones((1, 1))
    jets.check_denominator(f[1], 0.0,
                           "vanishing derivative: map not invertible",
                           band=1e-14, error=InverseMapError)
    # coefficient m of f(g(s)) must vanish for m >= 2; it is f_1 g_m plus
    # f_k times coefficient m of g^k for k = 2..m, which needs g_1..g_m-1
    # only.  powers[k] holds the running coefficients of g^k.
    g = [0.0, 1.0 / f[1]]
    powers = [[1.0] + [0.0] * n, g]
    for m in range(2, n + 1):
        g.append(0.0)
        powers.append([0.0] * m)
        for k in range(2, m + 1):
            powers[k].append(series.cauchy(g, powers[k - 1], m))
        g[m] = -sum(f[k] * powers[k][m] for k in range(2, m + 1)) / f[1]
    return np.array(powers)


def apply_symmetry(g: PointSymmetry, s: SolutionField) -> SolutionField:
    """Push a (u,v) solution field forward by a group element.

    The inverse map is triangular, so the inverse of T is found once per
    t, and what else depends on t alone (the power table of its reverted
    series and the coefficient functions of u~) once per t and order;
    likewise for Y and v~ per y; the rest (the old point, the composition
    matrix of :func:`jets.compose3` and the jet of the old x) is built
    once per point and order; each is kept for the last
    ``_POINTS_KEPT``.  A batch reads them lane by lane
    (:func:`jets.each_lane`), then asks the base field once, at its old
    points.  A point with no inverse on ``WINDOW``
    raises :class:`InverseMapError`, an :class:`UndefinedTransform`.
    """
    if s.coords != "UV":
        raise ValueError("apply_symmetry expects (u,v) coordinates")
    dT, dY = g.T.diff(), g.Y.diff()
    eps = float(g.eps)
    d = series.derivative

    # the inverse point does not depend on the order asked there
    t_old_of = lru_cache(_POINTS_KEPT)(partial(_invert_monotone, g.T, dT))
    y_old_of = lru_cache(_POINTS_KEPT)(partial(_invert_monotone, g.Y, dY))

    @lru_cache(maxsize=_POINTS_KEPT)
    def t_part(t: float, n: int):
        t_old = t_old_of(t)
        lay = series.univariate(n)
        tser = eval_series(g.T, t_old, n + 2)
        pt = _revert_series(tser[:n + 1])
        xser = eval_series(g.X0, t_old, n + 1)
        # beta = eps / sqrt(T_t), so eps T_tt / (4 T_t^(3/2)) is
        # T_tt beta^3 / 4 and X0_t / (2 T_t) is X0_t beta^2 / 2
        beta = eps * jets.elementary(("pow", -0.5), d(tser)[:n + 1] @ pt, lay)
        beta2 = lay.mul(beta, beta)
        cx = lay.mul(d(d(tser)) @ pt, lay.mul(beta2, beta)) / 4.0
        c0 = lay.mul(d(xser) @ pt, beta2) / 2.0
        return (t_old, g.X0(t_old), g.eps * math.sqrt(dT(t_old)), pt,
                -(xser[:n + 1] @ pt), beta, cx, c0)

    @lru_cache(maxsize=_POINTS_KEPT)
    def y_part(y: float, n: int):
        y_old = y_old_of(y)
        yser = eval_series(g.Y, y_old, n + 1)
        py = _revert_series(yser[:n + 1])
        v_scale = jets.elementary("recip", d(yser) @ py, series.univariate(n))
        return y_old, py, (v_scale, eval_series(g.V0, y_old, n) @ py)

    @lru_cache(maxsize=_POINTS_KEPT)
    def inner(pn: Point, n: int):
        t_old, x0, x_scale, pt, shift, beta, cx, c0 = t_part(pn.t, n)
        y_old, py, v_terms = y_part(pn.y, n)
        po = Point(t_old, (pn.x - x0) / x_scale, y_old)
        shift = shift.copy()
        shift[0] += pn.x
        alpha = series.univariate(n).mul(shift, beta)
        alpha[0] = 0.0
        M = jets.compose3(pt, alpha, beta, py)
        jx = M @ jets.lift_variable("x", po, n).coeffs
        return po, M, (beta, cx, c0, jx), v_terms

    def composed(comp: JetMap, p: Point, n: int):
        # comp composed with the inverse map at each lane of p, and the
        # terms of u~ and of v~, stacked over the lanes as they are read.
        # The base field is asked without the cap on x, as x_old =
        # alpha(s) + beta(s) r lowers the power of x; the t and y caps
        # pass, and the composition runs at the full order
        order = int(n)
        po, M, u_terms, v_terms = zip(*jets.each_lane(
            lambda i: inner(jets.lane(p, i), order), jets.lanes(p)))
        base_n = jets.uncap(n, "x")
        c = jets.widen(comp(Point(*map(np.array, zip(*po))), base_n)
                       .truncate(base_n).coeffs, base_n)
        return (Jet3(p, order, (np.stack(M) @ c[..., None])[..., 0])
                .truncate(n),
                *(map(np.stack, zip(*terms)) for terms in (u_terms, v_terms)))

    # u~ = U beta - (cx x_old + c0) and v~ = V v_scale + v_shift, where
    # U and V are u and v composed with the inverse map
    def u(p: Point, n: int) -> Jet3:
        U, (beta, cx, c0, jx), _ = composed(s.u, p, n)
        in_t = partial(jets.axis_jet, axis="t", at=p, order=n)
        return U * in_t(beta) - (in_t(cx) * Jet3(p, int(n), jx).truncate(n)
                                 + in_t(c0))

    def v(p: Point, n: int) -> Jet3:
        V, _, (v_scale, v_shift) = composed(s.v, p, n)
        in_y = partial(jets.axis_jet, axis="y", at=p, order=n)
        return V * in_y(v_scale) + in_y(v_shift)

    return SolutionField(u=jets.as_batch(u), v=jets.as_batch(v), coords="UV",
                         family_id=s.family_id + "~sym", params=s.params)


# ----------------------------------------------------------------------
# Laplace transformations
# ----------------------------------------------------------------------

def _laplace(s: SolutionField, coords: str, forward: bool):
    """u~ of the forward or inverse Laplace image of ``s``, a field in
    ``coords``, and the image itself given its second component ``v``.

    u~ and w~ read ``s.u`` and ``s.w`` alone: the one (u,w) map of both
    forms.
    """
    form, w_name = {"UQ": ("(u,q)", "q_y"), "UV": ("(u,v)", "v_x")}[coords]
    if s.coords != coords:
        raise ValueError(f"expects {form} coordinates")
    if forward:
        @last_point
        def u(p, n):
            wj = s.w(p, up(n, "x"))
            w, w_x = wj.truncate(n), wj.derive("x")
            _guard(w.value, w_x.value, f"{w_name} inside guard band")
            return s.u(p, n) + w_x / w

        def w(p, n):
            return u(p, up(n, "y")).derive("y") + s.w(p, n)
    else:
        def u(p, n):
            uj = s.u(p, up(up(n, "x"), "y"))
            wj = s.w(p, up(n, "x"))
            den = (wj - uj.derive("y")).truncate(n)
            num = wj.derive("x") - uj.derive("x").derive("y")
            _guard(den.value, num.value, f"{w_name} - u_y inside guard band")
            return uj.truncate(n) - num / den

        def w(p, n):
            return s.w(p, n) - s.u(p, up(n, "y")).derive("y")
    tag = "~Lfwd" if forward else "~Linv"
    return u, partial(SolutionField, u=u, coords=coords, w=w,
                      family_id=s.family_id + tag, params=s.params)


def laplace_forward_uq(s: SolutionField) -> SolutionField:
    """q~ = q + u~."""
    u, image = _laplace(s, "UQ", forward=True)

    def q(p, n):
        return u(p, n) + s.v(p, n)
    return image(v=q)


def laplace_inverse_uq(s: SolutionField) -> SolutionField:
    """q~ = q - u."""
    _, image = _laplace(s, "UQ", forward=False)

    def q(p, n):
        return s.v(p, n) - s.u(p, n)
    return image(v=q)


def _uv_path_integral(s: SolutionField, base: Point) -> JetMap:
    """The path integral P of the (u,v) maps: P_x = u_y, and
    P_t = (u^2 - u_x)_y + 2 v_xx on the line x = x0.  It reads only
    ``u`` and ``w`` of ``s``, never its ``v``."""

    def u_y(p: Point, n: int) -> Jet3:
        return s.u(p, up(n, "y")).derive("y")

    def p_t(p: Point, n: int) -> Jet3:
        n_y = up(n, "y")
        uj = s.u(p, up(n_y, "x"))
        return ((uj * uj).truncate(n_y) - uj.derive("x")).derive("y") \
            + 2.0 * s.w(p, up(n, "x")).derive("x")

    return xt_path(u_y, p_t, base)


def laplace_forward_uv(s: SolutionField, base: Point) -> SolutionField:
    """v~ = v + v_xy/v_x + P."""
    _, image = _laplace(s, "UV", forward=True)
    path = _uv_path_integral(s, base)

    def v(p, n):
        vj, wj = s.v(p, n), s.w(p, up(n, "y"))
        v_x, v_xy = wj.truncate(n), wj.derive("y")
        _guard(v_x.value, v_xy.value, "v_x inside guard band")
        return vj + v_xy / v_x + path(p, n)
    return image(v=v)


def laplace_inverse_uv(s: SolutionField, base: Point) -> SolutionField:
    """v~ = v - P."""
    _, image = _laplace(s, "UV", forward=False)
    path = _uv_path_integral(s, base)

    def v(p, n):
        return s.v(p, n) - path(p, n)
    return image(v=v)


# ----------------------------------------------------------------------
# Darboux transformations
# ----------------------------------------------------------------------

_COVER_PROBE = [Point(0.15 + 0.25 * i, -0.35 + 0.3 * j, 0.2 + 0.35 * k)
                for i in range(3) for j in range(3) for k in range(2)]


def _check_covering(s: SolutionField, pmap: JetMap, p: Point) -> None:
    """Raise :class:`CoveringViolation` if the covering residual of
    ``pmap`` over ``s`` at ``p`` exceeds 1e-8 (or is NaN); a batch is
    checked at once, and the error names its lanes that fail, its message
    the first, with that lane's residual."""
    c1, c2 = covering_residual(s, pmap, p)
    worst = np.broadcast_to(np.maximum(np.abs(c1), np.abs(c2)),
                            jets.lanes(p) or 1)  # NaN where either is
    failing = ~(worst <= 1e-8)
    if failing.any():
        i = int(failing.argmax())
        t, x, y = jets.lane(p, i)
        exc = CoveringViolation(
            f"covering residual {worst[i]:g} exceeds 1e-8 at (t, x, y) = "
            f"({t!r}, {x!r}, {y!r})")
        exc.lanes = failing
        raise exc


def _probe(s: SolutionField, pmap: JetMap) -> None:
    """:func:`_check_covering` at the first point of ``_COVER_PROBE``
    where ``pmap`` over ``s`` is defined; a :class:`jets.BadInput` if it
    is defined at none of them."""
    for p in _COVER_PROBE:
        try:
            return _check_covering(s, pmap, p)
        except UndefinedHere:
            pass
    raise jets.BadInput("no usable probe points for the eigenfunction")


@dataclass(frozen=True)
class CoveringEigenfunction:
    """A solution of the auxiliary linear system over a fixed (u,q) field,
    checked when built at the first usable point of ``_COVER_PROBE``; a
    :class:`jets.BadInput` if it is defined at none of them."""
    phi: JetMap
    attached_to: SolutionField

    def __post_init__(self):
        object.__setattr__(self, "phi", last_point(self.phi))
        _probe(self.attached_to, self.phi)

    def check(self, p: Point) -> None:
        """:func:`_check_covering` over the field it is attached to."""
        _check_covering(self.attached_to, self.phi, p)


def uq_seed(witness, L: JetMap | None = None,
            constraint: str = "q_y=0") -> SolutionField:
    """Seed (u,q) solutions built from a heat witness.

    constraint "q_y=0":  u = -Phi_x/Phi, q = L(t,x) with
        Phi_t + Phi_xx + 2 L_x Phi = 0 (backward witness when L = 0);
    constraint "u_y=q_y": u = Phi_x/Phi, q = u + L with
        Phi_t - Phi_xx - 2 L_x Phi = 0 (forward witness when L = 0).
    """
    if constraint not in ("q_y=0", "u_y=q_y"):
        raise ValueError(f"unknown constraint {constraint!r}")
    phi_map = witness.Phi if hasattr(witness, "Phi") else witness
    sign = -1.0 if constraint == "q_y=0" else 1.0

    @last_point
    def u(p, n):
        f = phi_map(p, up(n, "x"))
        jets.check_denominator(f.value, 0.0, "witness zero", band=1e-8)
        return sign * f.derive("x") / f.truncate(n)

    def L_jet(p, n):
        if L is None:
            return Jet3.constant(0.0, p, n)
        return L(p, n)

    if constraint == "q_y=0":
        return SolutionField(u=u, v=L_jet, coords="UQ",
                             family_id="seed[q_y=0]")

    def q(p, n):
        return u(p, n) + L_jet(p, n)
    return SolutionField(u=u, v=q, coords="UQ", family_id="seed[u_y=q_y]")


def darboux(kind: str, s: SolutionField,
            phi: CoveringEigenfunction) -> SolutionField:
    """Single Darboux dressing of the first or second kind; ``phi`` is
    attached to ``s`` (:func:`_attached`)."""
    return _dress(kind, s, _attached(s, phi))


def _attached(s: SolutionField, phi: CoveringEigenfunction) -> JetMap:
    """The map of ``phi``, which must cover ``s``: it is attached to a
    field with the u and v maps of ``s`` (:meth:`SolutionField.with_meta`
    keeps them), or else it is probed again, over ``s``; where that probe
    fails, a :class:`jets.BadInput` names both family ids."""
    own = phi.attached_to
    if not (own.u is s.u and own.v is s.v):
        try:
            _probe(s, phi.phi)
        except jets.BadInput as exc:
            raise jets.BadInput(
                f"eigenfunction attached to {own.family_id!r} does not "
                f"cover the dressed field {s.family_id!r}: {exc}") from exc
    return phi.phi


def _dress(kind: str, s: SolutionField, pmap: JetMap) -> SolutionField:
    """:func:`darboux` of ``s`` by the eigenfunction ``pmap``, which is
    tested over ``s`` (:func:`_check_covering`) wherever u is evaluated."""
    if s.coords != "UQ":
        raise ValueError("expects (u,q) coordinates")

    if kind == "DT1":
        def u(p, n):
            f = pmap(p, up(up(n, "x"), "y"))
            # q asks s.w at n, which asks the q below one order up in y:
            # asked first, the check reads it by truncation
            s.w(p, n)
            uj = s.u(p, n)
            _check_covering(s, pmap, p)
            f_y = f.derive("y").truncate(n)
            f_xy = f.derive("x").derive("y")
            _guard(f_y.value, f_xy.value, "phi_y or phi inside guard band")
            _guard(f.value, 0.0, "phi_y or phi inside guard band")
            return uj + f_xy / f_y - f.derive("x").truncate(n) / f.truncate(n)

        def q(p, n):
            f = pmap(p, up(n, "y"))
            q_y = s.w(p, n)
            f_y = f.derive("y")
            _guard(f_y.value, f.value, "phi_y inside guard band")
            return s.v(p, n) - (f.truncate(n) / f_y) * q_y

    elif kind == "DT2":
        def u(p, n):
            n_x = up(n, "x")
            f = pmap(p, up(n_x, "x"))
            uj = s.u(p, n_x)
            _check_covering(s, pmap, p)
            _guard(f.value, 0.0, "phi inside guard band")
            w = uj + f.derive("x") / f.truncate(n_x)
            _guard(w.value, w.derive("x").value,
                   "u + phi_x/phi inside guard band")
            return uj.truncate(n) - w.derive("x") / w.truncate(n)

        def q(p, n):
            f = pmap(p, up(n, "x"))
            _guard(f.value, 0.0, "phi inside guard band")
            return s.v(p, n) + f.derive("x") / f.truncate(n)
    else:
        raise ValueError("kind must be 'DT1' or 'DT2'")

    return SolutionField(u=u, v=q, coords="UQ",
                         family_id=s.family_id + f"~{kind}", params=s.params)


def darboux_psi(kind: str, phi_seed: JetMap, psi: JetMap) -> JetMap:
    """Transform of a covering eigenfunction under a single dressing."""
    if kind == "DT1":
        def out(p, n):
            f = phi_seed(p, up(n, "y"))
            g = psi(p, up(n, "y"))
            f_y = f.derive("y")
            _guard(f_y.value, f.value, "phi_y inside guard band")
            return g.truncate(n) - (f.truncate(n) / f_y) * g.derive("y")
        return out
    if kind == "DT2":
        def out(p, n):
            f = phi_seed(p, up(n, "x"))
            g = psi(p, up(n, "x"))
            _guard(f.value, 0.0, "phi inside guard band")
            return g.derive("x") - (f.derive("x") / f.truncate(n)) \
                * g.truncate(n)
        return out
    raise ValueError("kind must be 'DT1' or 'DT2'")


def darboux_iterated(kind: str, s: SolutionField,
                     phis: Sequence[CoveringEigenfunction]) -> SolutionField:
    """n-fold Darboux dressing: n single ones (Crum's theorem).

    Each of ``phis`` covers ``s`` (:func:`_attached`).  ``phis[0]``
    dresses ``s``; every other eigenfunction is carried over
    the dressed field by :func:`darboux_psi`, the first carried one
    dresses it next, and so on.  A carried eigenfunction is checked
    wherever its dressing evaluates u, against the field it is carried
    over, as :func:`darboux` checks its own; it is not probed again when
    built.  For n = 1 this is :func:`darboux`.
    """
    if not phis:
        raise ValueError("need at least one eigenfunction")
    out = darboux(kind, s, phis[0])
    pmap, maps = phis[0].phi, [_attached(s, f) for f in phis[1:]]
    while maps:
        maps = [last_point(darboux_psi(kind, pmap, m)) for m in maps]
        pmap = maps.pop(0)
        out = _dress(kind, out, pmap)
    return out.with_meta(family_id=s.family_id + f"~{kind}x{len(phis)}")


# ----------------------------------------------------------------------
# covering eigenfunctions over the two constraint classes
# ----------------------------------------------------------------------

def covering_solutions_for_constraint(
        constraint: str, s: SolutionField, witness, *,
        theta: JetMap | None = None, zeta=None,
        base: Point = Point(1.0, 0.0, 0.0)) -> CoveringEigenfunction:
    """Eigenfunctions of the covering system over a constrained seed.

    constraint "q_y=0" (u = -Phi_x/Phi, q = L):
        psi = int_y0^y zeta(y') Phi(t,x,y') dy' + theta(t,x),
        since psi_y = zeta Phi solves psi_xy + u psi_y = 0 directly;
    constraint "u_y=q_y" (u = Phi_x/Phi, q = u + L):
        psi = (1/Phi) * [int_x0^x theta Phi dx'
              + int_t0^t (theta Phi_x - theta_x Phi)|_(x0) dt' + zeta(y)].

    theta must solve theta_t + theta_xx + 2 L_x theta = 0 (for L = 0, a
    backward heat solution); zeta is an arbitrary function of y: an Expr,
    evaluated as a univariate series, or a map of the lifted y jet.
    """
    phi_map = witness.Phi if hasattr(witness, "Phi") else witness

    def zeta_jet(p, n):
        if isinstance(zeta, Expr):
            return eval_jet(zeta, "y", p, n)
        return zeta(jets.lift_variable("y", p, n))

    if constraint == "q_y=0":
        def integrand(p, n):
            zj = zeta_jet(p, n) if zeta is not None \
                else Jet3.constant(1.0, p, n)
            return zj * phi_map(p, n)

        def psi(p, n):
            out = integrate_field_along(integrand, "y", base.y, p, n)
            if theta is not None:
                out = out + theta(p, n)
            return out

    elif constraint == "u_y=q_y":
        def x_integrand(p, n):
            th = theta(p, n) if theta is not None \
                else Jet3.constant(0.0, p, n)
            return th * phi_map(p, n)

        def t_integrand(p, n):
            if theta is None:
                return Jet3.constant(0.0, p, n)
            th, f = theta(p, up(n, "x")), phi_map(p, up(n, "x"))
            return (th.truncate(n) * f.derive("x")
                    - th.derive("x") * f.truncate(n))

        path = xt_path(x_integrand, t_integrand, base)

        def psi(p, n):
            acc = path(p, n)
            if zeta is not None:
                acc = acc + zeta_jet(p, n)
            return acc / phi_map(p, n)
    else:
        raise ValueError(f"unknown constraint {constraint!r}")

    return CoveringEigenfunction(phi=psi, attached_to=s)
