"""Solution-generating machinery: point symmetries, Laplace and Darboux.

The complete point-symmetry group acts by

    t~ = T(t),  x~ = eps sqrt(T_t) x + X0(t),  y~ = Y(y),
    u~ = eps u / sqrt(T_t) - eps T_tt x / (4 T_t^(3/2)) - X0_t / (2 T_t),
    v~ = v / Y_y + V0(y),

with smooth T, X0, Y, V0, T_t > 0, Y_y != 0 and eps = +-1.  Applying a
group element to a field composes the field with the inverse coordinate
map (computed by bracketed root-finding plus Taylor-series reversion) and
pushes the components through the formulas above, entirely in jets.

The Laplace maps act in (u,q) coordinates as

    forward:  u~ = u + q_xy/q_y,            q~ = q + u~
    inverse:  u~ = u - (q_xy-u_xy)/(q_y-u_y),  q~ = q - u

and in (u,v) coordinates with the line-integral reconstruction of v:

    forward:  u~ = u + v_xx/v_x,  v~ = v + v_xy/v_x + P,
    inverse:  u~ = u - (u_xy-v_xx)/(u_y-v_x),  v~ = v - P,

where P_x = u_y and P_t = (u^2-u_x)_y + 2 v_xx on the line x = x0.  A
(u,v) field carries a local v_x map (:class:`system.SolutionField`); an
image defines its own, v~_x = v_x + (v_xy/v_x)_x + u_y forward and
v~_x = v_x - u_y inverse.  The maps and P read only u and v_x of the
parent, so only v itself runs P's path integral, once per point and
level: a chain's cost grows linearly with its depth.  The jet of v that
a residual reads, with its t- and x-derivatives, still comes from the
top field's own integral, so the check stays independent of the maps.
Each map asks its parent for the highest order it needs first; the
parent's remembered jet (:func:`jets.last_point`) answers lower ones.
A transformed field keeps its parent's ``validity``, a domain that no
constructor probes; where a guard of the map fires, evaluation raises
:class:`UndefinedTransform` (a :class:`jets.UndefinedHere`), and a grid
check skips that point.
Darboux transformations dress a solution with covering eigenfunctions;
their n-fold versions are Wronskian ratios, evaluated here by
fraction-free elimination on jets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from . import jets
from .exprdsl import Bin, Call, Expr, Num, parse
from .jets import DomainError, Jet3, JetMap, Point, UndefinedHere, last_point
from .quadrature import integrate_field_along, integrate_xt_path
from .system import SolutionField, covering_residual

__all__ = [
    "PointSymmetry", "CoveringEigenfunction", "UndefinedTransform",
    "InverseMapError", "SingularWronskian",
    "d_transform", "s_transform", "p_transform", "z_transform",
    "i_transform", "apply_symmetry",
    "laplace_forward_uq", "laplace_inverse_uq",
    "laplace_forward_uv", "laplace_inverse_uv",
    "darboux", "darboux_psi", "darboux_iterated", "darboux_iterated_psi",
    "covering_solutions_for_constraint", "uq_seed",
]

GUARD = 1e-10


class UndefinedTransform(UndefinedHere):
    """Denominator of a transformation inside its guard band."""


class InverseMapError(jets.BLPError, RuntimeError):
    """T or Y could not be inverted on the working window."""


class SingularWronskian(UndefinedTransform):
    """No usable pivot: the Wronskian is singular at the point."""


# ----------------------------------------------------------------------
# the point-symmetry group
# ----------------------------------------------------------------------

def _expr(e, var: str) -> Expr:
    if isinstance(e, Expr):
        return e
    if isinstance(e, str):
        return parse(e, var)
    return Num(float(e), var)


@dataclass(frozen=True)
class PointSymmetry:
    T: Expr
    X0: Expr
    Y: Expr
    V0: Expr
    eps: int = 1
    t_window: tuple = (-6.0, 6.0)
    y_window: tuple = (-6.0, 6.0)

    def __post_init__(self):
        if self.eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")
        dT = self.T.diff()
        dY = self.Y.diff()
        samples = np.linspace(*self.t_window, 17)
        tvals = [dT(float(s)) for s in samples]
        if min(tvals) <= 0.0:
            raise ValueError("T_t must be positive on the working window")
        yvals = [dY(float(s)) for s in np.linspace(*self.y_window, 17)]
        if min(abs(v) for v in yvals) == 0.0 or \
                (min(yvals) < 0.0 < max(yvals)):
            raise ValueError("Y_y must keep a fixed sign on the window")

    def compose(self, first: "PointSymmetry") -> "PointSymmetry":
        """The group element 'self after first'."""
        g2, g1 = self, first
        T = g2.T.subst(g1.T)
        Y = g2.Y.subst(g1.Y)
        sq = Call("sqrt", g2.T.diff().subst(g1.T), "t")
        X0 = Bin("+", Bin("*", Bin("*", Num(float(g2.eps), "t"), sq, "t"),
                          g1.X0, "t"), g2.X0.subst(g1.T), "t")
        y2y = g2.Y.diff().subst(g1.Y)
        V0 = Bin("+", Bin("/", g1.V0, y2y, "y"), g2.V0.subst(g1.Y), "y")
        return PointSymmetry(T=T, X0=X0, Y=Y, V0=V0, eps=g2.eps * g1.eps,
                             t_window=g1.t_window, y_window=g1.y_window)


def identity_symmetry() -> PointSymmetry:
    return PointSymmetry(T=parse("t", "t"), X0=Num(0.0, "t"),
                         Y=parse("y", "y"), V0=Num(0.0, "y"))


def d_transform(T) -> PointSymmetry:
    return PointSymmetry(T=_expr(T, "t"), X0=Num(0.0, "t"),
                         Y=parse("y", "y"), V0=Num(0.0, "y"))


def s_transform(Y) -> PointSymmetry:
    return PointSymmetry(T=parse("t", "t"), X0=Num(0.0, "t"),
                         Y=_expr(Y, "y"), V0=Num(0.0, "y"))


def p_transform(X0) -> PointSymmetry:
    return PointSymmetry(T=parse("t", "t"), X0=_expr(X0, "t"),
                         Y=parse("y", "y"), V0=Num(0.0, "y"))


def z_transform(V0) -> PointSymmetry:
    return PointSymmetry(T=parse("t", "t"), X0=Num(0.0, "t"),
                         Y=parse("y", "y"), V0=_expr(V0, "y"))


def i_transform(eps: int) -> PointSymmetry:
    return PointSymmetry(T=parse("t", "t"), X0=Num(0.0, "t"),
                         Y=parse("y", "y"), V0=Num(0.0, "y"), eps=eps)


def _invert_monotone(f: Expr, target: float, window: tuple) -> float:
    """Solve f(s) = target for s on the window by bracketed bisection."""
    lo, hi = window
    flo, fhi = f(lo), f(hi)
    increasing = fhi > flo
    a, b = (lo, hi)
    fa, fb = (flo, fhi) if increasing else (fhi, flo)
    if not (min(flo, fhi) <= target <= max(flo, fhi)):
        raise InverseMapError(
            f"target {target} outside the image [{min(flo, fhi)}, "
            f"{max(flo, fhi)}] of the window")
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if abs(b - a) < 1e-15 * (1.0 + abs(mid)):
            break
        if (fm < target) == increasing:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _revert_series(f: np.ndarray) -> np.ndarray:
    """Coefficients of the inverse of s -> sum_{k>=1} f_k s^k."""
    n = len(f) - 1
    if abs(f[1]) < 1e-14:
        raise InverseMapError("vanishing derivative: map not invertible")
    g = np.zeros(n + 1)
    g[1] = 1.0 / f[1]
    for m in range(2, n + 1):
        # coefficient m of f(g(s)) with the current g (g_m = 0) must cancel
        comp = np.zeros(n + 1)
        powg = np.zeros(n + 1)
        powg[0] = 1.0
        for k in range(0, n + 1):
            if f[k] != 0.0 and k > 0:
                comp += f[k] * powg
            if k < n:
                powg = np.convolve(powg, g)[: n + 1]
        g[m] = -comp[m] / f[1]
    return g


def _inverse_jet(e: Expr, new_value: float, old_value: float,
                 axis: str, p: Point, order: int) -> Jet3:
    """Jet (in the new variables) of the inverse function of e at new_value."""
    fser = jets.axis_series(
        e(jets.lift_variable("t", Point(old_value, 0.0, 0.0), order)), "t")
    fser[0] = 0.0
    gser = _revert_series(fser)
    gser[0] = old_value
    var = jets.lift_variable(axis, p, order)
    return jets.apply_taylor(gser, var)


def apply_symmetry(g: PointSymmetry, s: SolutionField) -> SolutionField:
    """Push a (u,v) solution field forward by a group element."""
    if s.coords != "UV":
        raise ValueError("apply_symmetry expects (u,v) coordinates")
    dT, dY = g.T.diff(), g.Y.diff()
    ddT = dT.diff()
    dX0, dV0 = g.X0.diff(), g.V0.diff()
    last_new = last_old = None

    def old_point(pn: Point) -> Point:
        # validity, u and v ask at the same point in turn: invert it once
        nonlocal last_new, last_old
        if pn == last_new:
            return last_old
        t_old = _invert_monotone(g.T, pn.t, g.t_window)
        y_old = _invert_monotone(g.Y, pn.y, g.y_window)
        x_old = (pn.x - g.X0(t_old)) / (g.eps * math.sqrt(dT(t_old)))
        last_new, last_old = pn, Point(t_old, x_old, y_old)
        return last_old

    def inner_jets(pn: Point, n: int):
        po = old_point(pn)
        jt = _inverse_jet(g.T, pn.t, po.t, "t", pn, n)
        jy = _inverse_jet(g.Y, pn.y, po.y, "y", pn, n)
        xg = jets.lift_variable("x", pn, n)
        ttj = dT(jt)
        jx = (xg - g.X0(jt)) / (float(g.eps) * jets.sqrt(ttj))
        return po, jt, jx, jy, ttj

    def u(pn: Point, n: int) -> Jet3:
        po, jt, jx, jy, ttj = inner_jets(pn, n)
        U = s.u(po, n)
        Uc = jets.compose3(U.coeffs, n, jt, jx, jy)
        rt = jets.sqrt(ttj)
        return (float(g.eps) * Uc / rt
                - float(g.eps) * ddT(jt) / (4.0 * ttj * rt) * jx
                - dX0(jt) / (2.0 * ttj))

    def v(pn: Point, n: int) -> Jet3:
        po, jt, jx, jy, _ = inner_jets(pn, n)
        V = s.v(po, n)
        Vc = jets.compose3(V.coeffs, n, jt, jx, jy)
        return Vc / dY(jy) + g.V0(jy)

    def ok(pn: Point) -> bool:
        try:
            po = old_point(pn)
        except (InverseMapError, DomainError):
            return False
        return s.validity(po)

    return SolutionField(u=u, v=v, coords="UV",
                         family_id=s.family_id + "~sym",
                         params=s.params, validity=ok)


# ----------------------------------------------------------------------
# Laplace transformations
# ----------------------------------------------------------------------

def laplace_forward_uq(s: SolutionField) -> SolutionField:
    if s.coords != "UQ":
        raise ValueError("expects (u,q) coordinates")

    @last_point
    def u(p, n):
        q = s.v(p, n + 2)
        q_y = q.derive("y").truncate(n)
        q_xy = q.derive("x").derive("y")
        if abs(q_y.value) < GUARD * (1.0 + abs(q_xy.value)):
            raise UndefinedTransform("q_y inside guard band")
        return q_xy / q_y + s.u(p, n)

    def q(p, n):
        return u(p, n) + s.v(p, n)

    return SolutionField(u=u, v=q, coords="UQ",
                         family_id=s.family_id + "~Lfwd", params=s.params,
                         validity=s.validity)


def laplace_inverse_uq(s: SolutionField) -> SolutionField:
    if s.coords != "UQ":
        raise ValueError("expects (u,q) coordinates")

    def u(p, n):
        uj = s.u(p, n + 2)
        qj = s.v(p, n + 2)
        den = (qj.derive("y") - uj.derive("y")).truncate(n)
        num = (qj.derive("x").derive("y") - uj.derive("x").derive("y"))
        if abs(den.value) < GUARD * (1.0 + abs(num.value)):
            raise UndefinedTransform("q_y - u_y inside guard band")
        return uj.truncate(n) - num / den

    def q(p, n):
        return s.v(p, n) - s.u(p, n)

    return SolutionField(u=u, v=q, coords="UQ",
                         family_id=s.family_id + "~Linv", params=s.params,
                         validity=s.validity)


def _uv_path_integrals(s: SolutionField, base: Point):
    """u_y of ``s``, and the path integral P shared by the (u,v) maps:
    P_x = u_y, and P_t = (u^2 - u_x)_y + 2 v_xx on the line x = x0.

    Both read only ``u`` and ``v_x`` of ``s``, never its ``v``.
    """

    def u_y(p: Point, n: int) -> Jet3:
        return s.u(p, n + 1).derive("y")

    def p_t(p: Point, n: int) -> Jet3:
        uj = s.u(p, n + 2)
        return ((uj * uj).truncate(n + 1) - uj.derive("x")).derive("y") \
            + 2.0 * s.v_x(p, n + 1).derive("x")

    def path(p: Point, n: int) -> Jet3:
        return integrate_xt_path(u_y, p_t, base, p, n)

    return u_y, path


def laplace_forward_uv(s: SolutionField, base: Point) -> SolutionField:
    """v~ = v + v_xy/v_x + P, so v~_x = v_x + (v_xy/v_x)_x + u_y."""
    if s.coords != "UV":
        raise ValueError("expects (u,v) coordinates")
    u_y, path = _uv_path_integrals(s, base)

    def u(p, n):
        w = s.v_x(p, n + 1)
        v_x = w.truncate(n)
        v_xx = w.derive("x")
        if abs(v_x.value) < GUARD * (1.0 + abs(v_xx.value)):
            raise UndefinedTransform("v_x inside guard band")
        return s.u(p, n) + v_xx / v_x

    @last_point
    def ratio(p, n):
        # v_xy / v_x, shared by v and v_x
        w = s.v_x(p, n + 1)
        v_x = w.truncate(n)
        v_xy = w.derive("y")
        if abs(v_x.value) < GUARD * (1.0 + abs(v_xy.value)):
            raise UndefinedTransform("v_x inside guard band")
        return v_xy / v_x

    def v(p, n):
        return s.v(p, n) + ratio(p, n) + path(p, n)

    def v_x(p, n):
        ratio_x = ratio(p, n + 1).derive("x")
        return s.v_x(p, n) + ratio_x + u_y(p, n)

    return SolutionField(u=u, v=v, coords="UV",
                         family_id=s.family_id + "~Lfwd", params=s.params,
                         validity=s.validity, v_x=v_x)


def laplace_inverse_uv(s: SolutionField, base: Point) -> SolutionField:
    """v~ = v - P, so v~_x = v_x - u_y."""
    if s.coords != "UV":
        raise ValueError("expects (u,v) coordinates")
    u_y, path = _uv_path_integrals(s, base)

    def u(p, n):
        uj = s.u(p, n + 2)
        w = s.v_x(p, n + 1)
        den = (uj.derive("y") - w).truncate(n)
        num = uj.derive("x").derive("y") - w.derive("x")
        if abs(den.value) < GUARD * (1.0 + abs(num.value)):
            raise UndefinedTransform("u_y - v_x inside guard band")
        return uj.truncate(n) - num / den

    def v(p, n):
        return s.v(p, n) - path(p, n)

    def v_x(p, n):
        return s.v_x(p, n) - u_y(p, n)

    return SolutionField(u=u, v=v, coords="UV",
                         family_id=s.family_id + "~Linv", params=s.params,
                         validity=s.validity, v_x=v_x)


# ----------------------------------------------------------------------
# Darboux transformations
# ----------------------------------------------------------------------

_COVER_PROBE = [Point(0.15 + 0.25 * i, -0.35 + 0.3 * j, 0.2 + 0.35 * k)
                for i in range(3) for j in range(3) for k in range(2)]


@dataclass(frozen=True)
class CoveringEigenfunction:
    """A solution of the auxiliary linear system over a fixed (u,q) field."""
    phi: JetMap
    attached_to: SolutionField
    probe_points: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "phi", last_point(self.phi))
        pts = list(self.probe_points) or \
            [p for p in _COVER_PROBE if self.attached_to.validity(p)]
        worst, used = 0.0, 0
        for p in pts:
            try:
                c1, c2 = covering_residual(self.attached_to, self.phi, p)
            except UndefinedHere:
                continue
            used += 1
            worst = max(worst, abs(c1), abs(c2))
        if used == 0:
            raise ValueError("no usable probe points for the eigenfunction")
        if worst > 1e-8:
            raise ValueError(
                f"covering residual {worst:g} exceeds 1e-8 on the probe")


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
        f = phi_map(p, n + 1)
        if abs(f.value) < 1e-8:
            raise DomainError("witness zero")
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
    """Single Darboux dressing of the first or second kind."""
    if s.coords != "UQ":
        raise ValueError("expects (u,q) coordinates")
    pmap = phi.phi

    if kind == "DT1":
        def u(p, n):
            f = pmap(p, n + 2)
            uj = s.u(p, n)
            f_y = f.derive("y").truncate(n)
            f_xy = f.derive("x").derive("y")
            if abs(f_y.value) < GUARD * (1.0 + abs(f_xy.value)) or \
                    abs(f.value) < GUARD:
                raise UndefinedTransform("phi_y or phi inside guard band")
            return uj + f_xy / f_y - f.derive("x").truncate(n) / f.truncate(n)

        def q(p, n):
            f = pmap(p, n + 1)
            qj = s.v(p, n + 1)
            f_y = f.derive("y")
            if abs(f_y.value) < GUARD * (1.0 + abs(f.value)):
                raise UndefinedTransform("phi_y inside guard band")
            return qj.truncate(n) - (f.truncate(n) / f_y) * qj.derive("y")

    elif kind == "DT2":
        def u(p, n):
            f = pmap(p, n + 2)
            uj = s.u(p, n + 1)
            if abs(f.value) < GUARD:
                raise UndefinedTransform("phi inside guard band")
            w = uj + f.derive("x") / f.truncate(n + 1)
            if abs(w.value) < GUARD * (1.0 + abs(w.derive("x").value)):
                raise UndefinedTransform("u + phi_x/phi inside guard band")
            return uj.truncate(n) - w.derive("x") / w.truncate(n)

        def q(p, n):
            f = pmap(p, n + 1)
            if abs(f.value) < GUARD:
                raise UndefinedTransform("phi inside guard band")
            return s.v(p, n) + f.derive("x") / f.truncate(n)
    else:
        raise ValueError("kind must be 'DT1' or 'DT2'")

    return SolutionField(u=u, v=q, coords="UQ",
                         family_id=s.family_id + f"~{kind}", params=s.params,
                         validity=s.validity)


def darboux_psi(kind: str, phi_seed: JetMap, psi: JetMap) -> JetMap:
    """Transform of a covering eigenfunction under a single dressing."""
    if kind == "DT1":
        def out(p, n):
            f = phi_seed(p, n + 1)
            g = psi(p, n + 1)
            f_y = f.derive("y")
            if abs(f_y.value) < GUARD * (1.0 + abs(f.value)):
                raise UndefinedTransform("phi_y inside guard band")
            return g.truncate(n) - (f.truncate(n) / f_y) * g.derive("y")
        return out
    if kind == "DT2":
        def out(p, n):
            f = phi_seed(p, n + 1)
            g = psi(p, n + 1)
            if abs(f.value) < GUARD:
                raise UndefinedTransform("phi inside guard band")
            return g.derive("x") - (f.derive("x") / f.truncate(n)) \
                * g.truncate(n)
        return out
    raise ValueError("kind must be 'DT1' or 'DT2'")


def _bareiss_det(mat: list[list[Jet3]]) -> Jet3:
    """Fraction-free determinant of a matrix of jets."""
    n = len(mat)
    a = [row[:] for row in mat]
    sign = 1.0
    prev = None
    for k in range(n - 1):
        if abs(a[k][k].value) < 1e-13:
            swap = next((r for r in range(k + 1, n)
                         if abs(a[r][k].value) > 1e-13), None)
            if swap is None:
                raise SingularWronskian("no usable pivot")
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = num if prev is None else num / prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _wronskian(maps: Sequence[JetMap], axis: str, orders: Sequence[int],
               p: Point, n: int) -> Jet3:
    """Determinant of the ``orders``-th ``axis``-derivatives of ``maps``."""
    depth = max(orders)
    cols = []
    for m in maps:
        tower = [m(p, n + depth)]
        for _ in range(depth):
            tower.append(tower[-1].derive(axis))
        cols.append(tower)
    return _bareiss_det([[cols[c][k].truncate(n) for c in range(len(maps))]
                         for k in orders])


def darboux_iterated(kind: str, s: SolutionField,
                     phis: Sequence[CoveringEigenfunction]) -> SolutionField:
    """n-fold Darboux dressing in Wronskian form.

    For n = 1 this agrees pointwise with :func:`darboux`.
    """
    if s.coords != "UQ":
        raise ValueError("expects (u,q) coordinates")
    maps = [f.phi for f in phis]
    n_fold = len(maps)
    if n_fold == 0:
        raise ValueError("need at least one eigenfunction")

    if kind == "DT1":
        w_map = last_point(partial(_wronskian, maps, "y", range(n_fold)))
        wy_map = last_point(partial(_wronskian, maps, "y",
                                    range(1, n_fold + 1)))

        def u(p, n):
            wy, w = wy_map(p, n + 1), w_map(p, n + 1)
            if abs(w.value) < GUARD or abs(wy.value) < GUARD:
                raise UndefinedTransform("Wronskian inside guard band")
            return s.u(p, n) - (w.derive("x") / w.truncate(n)
                                - wy.derive("x") / wy.truncate(n))

        def q(p, n):
            wq = _wronskian(maps + [s.v], "y", range(n_fold + 1), p, n)
            wy = wy_map(p, n)
            if abs(wy.value) < GUARD:
                raise UndefinedTransform("Wronskian inside guard band")
            return (-1.0) ** n_fold * wq / wy

    elif kind == "DT2":
        w_map = last_point(partial(_wronskian, maps, "x", range(n_fold)))
        minor_orders = [k for k in range(n_fold + 1) if k != n_fold - 2]

        @last_point
        def a1_map(p, n):
            w = w_map(p, n + 1)
            if abs(w.value) < GUARD:
                raise UndefinedTransform("Wronskian inside guard band")
            return -(w.derive("x") / w.truncate(n))

        def u(p, n):
            a1 = a1_map(p, n + 2)
            if n_fold == 1:
                a2 = Jet3.constant(0.0, p, n + 1)
            else:
                a2 = _wronskian(maps, "x", minor_orders, p, n + 1) \
                    / w_map(p, n + 1)
            uj = s.u(p, n + 2)
            qj = s.v(p, n + 2)
            q_y = qj.derive("y").truncate(n)
            q_xy = qj.derive("x").derive("y").truncate(n)
            den = q_y - a1.derive("y").truncate(n)
            if abs(den.value) < GUARD * (1.0 + abs(q_xy.value)):
                raise UndefinedTransform("q_y - A_y inside guard band")
            num = (q_y * uj.truncate(n) - n_fold * q_xy
                   + a1.derive("x").derive("y").truncate(n)
                   - a1.truncate(n) * a1.derive("y").truncate(n)
                   + a2.derive("y").truncate(n))
            return num / den

        def q(p, n):
            return s.v(p, n) - a1_map(p, n)
    else:
        raise ValueError("kind must be 'DT1' or 'DT2'")

    return SolutionField(u=u, v=q, coords="UQ",
                         family_id=s.family_id + f"~{kind}x{n_fold}",
                         params=s.params, validity=s.validity)


def darboux_iterated_psi(kind: str, phis: Sequence[JetMap],
                         psi: JetMap) -> JetMap:
    """Eigenfunction companion of :func:`darboux_iterated`."""
    maps = list(phis)
    n_fold = len(maps)
    if kind == "DT1":
        def out(p, n):
            wp = _wronskian(maps + [psi], "y", range(n_fold + 1), p, n)
            wy = _wronskian(maps, "y", range(1, n_fold + 1), p, n)
            if abs(wy.value) < GUARD:
                raise UndefinedTransform("Wronskian inside guard band")
            return (-1.0) ** n_fold * wp / wy
        return out
    if kind == "DT2":
        def out(p, n):
            wp = _wronskian(maps + [psi], "x", range(n_fold + 1), p, n)
            w = _wronskian(maps, "x", range(n_fold), p, n)
            if abs(w.value) < GUARD:
                raise UndefinedTransform("Wronskian inside guard band")
            return wp / w
        return out
    raise ValueError("kind must be 'DT1' or 'DT2'")


# ----------------------------------------------------------------------
# covering eigenfunctions over the two constraint classes
# ----------------------------------------------------------------------

def covering_solutions_for_constraint(
        constraint: str, s: SolutionField, witness, *,
        theta: JetMap | None = None, zeta: Expr | None = None,
        base: Point = Point(1.0, 0.0, 0.0),
        probe_points: tuple = ()) -> CoveringEigenfunction:
    """Eigenfunctions of the covering system over a constrained seed.

    constraint "q_y=0" (u = -Phi_x/Phi, q = L):
        psi = int_y0^y zeta(y') Phi(t,x,y') dy' + theta(t,x),
        since psi_y = zeta Phi solves psi_xy + u psi_y = 0 directly;
    constraint "u_y=q_y" (u = Phi_x/Phi, q = u + L):
        psi = (1/Phi) * [int_x0^x theta Phi dx'
              + int_t0^t (theta Phi_x - theta_x Phi)|_(x0) dt' + zeta(y)].

    theta must solve theta_t + theta_xx + 2 L_x theta = 0 (for L = 0, a
    backward heat solution); zeta is an arbitrary function of y.
    """
    phi_map = witness.Phi if hasattr(witness, "Phi") else witness

    if theta is not None:
        worst = 0.0
        used = 0
        for p in _COVER_PROBE:
            try:
                th = theta(p, 2)
            except DomainError:
                continue
            used += 1
            worst = max(worst, abs(th.extract((1, 0, 0))
                                   + th.extract((0, 2, 0))))
        if used == 0 or worst > 1e-8:
            raise ValueError(f"theta probe failed: residual {worst:g}")

    if constraint == "q_y=0":
        def integrand(p, n):
            zj = zeta(jets.lift_variable("y", p, n)) if zeta is not None \
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
            th = theta(p, n + 1) if theta is not None else None
            f = phi_map(p, n + 1)
            if th is None:
                return Jet3.constant(0.0, p, n)
            return (th.truncate(n) * f.derive("x")
                    - th.derive("x") * f.truncate(n))

        def psi(p, n):
            acc = integrate_xt_path(x_integrand, t_integrand, base, p, n)
            if zeta is not None:
                acc = acc + zeta(jets.lift_variable("y", p, n))
            return acc / phi_map(p, n)
    else:
        raise ValueError(f"unknown constraint {constraint!r}")

    return CoveringEigenfunction(phi=psi, attached_to=s,
                                 probe_points=probe_points)
