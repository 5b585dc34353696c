"""Codimension-two reductions realized numerically.

Two reduced problems are integrated here:

  * the reduction along t-scaling + (x,y) shear, whose profile equation
    maps by phi = -eps(phitilde + omega)/2, omegatilde = omega/2 to

        f f'' = f'^2/2 + (3/2) f^4 + 4 w f^3 + 2 (w^2 - C1) f^2 + C0t,
        C0t = 16 C0 - 2,

    a fourth-Painleve-type form, and

  * the translation reduction with omega = x + y, where for C1 != 0

        f'' = 2 f^3 + w f + nu,   nu = 1/2 + delta/C1

    after omegat = (2 C1)^(1/3) (omega + C0/C1), phi = (2 C1)^(1/3) f,
    which is the second Painleve equation; for C1 = 0 the profile solves
    phi'^2 = phi^4 + 2 C0 phi^2 + 4 delta phi + C2 (see blp.specfun).

Trajectories are produced by the Taylor method (Corliss & Chang, ACM
TOMS 8, 1982; Jorba & Zou, Exp. Math. 14, 2005).  At each node the
profile's series comes from its own degree recurrence, and the series of
the companion potential psi from psi's flow, which is polynomial in
(w, f, f'); both are computed once per node, to degree ``_ORDER``.  The
step is h = min over the f, f' and psi coefficients a_j, j in {N-1, N},
of (eps/|a_j|)^(1/j), with the truncation bound eps tied to the
tolerance as eps ~ tol^3: the first-integral drift then contracts about
ten-fold when the tolerance is halved.  A movable pole shows as a
collapsing step or a blowup.  Dense output is the nearest node's Taylor
polynomial, and every reconstruction consumes ODE-provided derivatives,
never numerical differentiation.  Dense output, the profile series and
the P-based profiles of :mod:`blp.specfun` take an array of arguments,
one per lane, so the fields built on a profile answer a batched point in
one evaluation; each lane does the float operations of its point alone,
and a point outside a window raises under the first-lane rule of
``jets.raise_where``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import jets, series
from .jets import BadInput, BLPError, Jet3, Point, UndefinedHere
from .exprdsl import Expr, eval_jet
from .specfun import (DegenerateBranch, QuarticODE,
                      quartic_particular_solution, quartic_square_integral)
from .system import SolutionField

__all__ = [
    "ODETrajectory", "ReductionSpec", "PoleAbort", "BadSpec",
    "ZeroCrossing", "WindowError",
    "integrate_painleve2", "integrate_painleve4_form",
    "first_integral_2_4",
    "reconstruct_2_4", "reconstruct_2_9", "first_integrals_2_9",
    "reduction_2_3_field",
]


class PoleAbort(BLPError, RuntimeError):
    def __init__(self, message, trajectory=None, last_safe=None):
        super().__init__(message)
        self.trajectory = trajectory
        self.last_safe = last_safe


class BadSpec(BadInput):
    pass


class ZeroCrossing(BadInput, ArithmeticError):
    pass


class WindowError(ValueError, UndefinedHere):
    """A point outside the window of a reduced profile."""


@dataclass(frozen=True)
class ReductionSpec:
    id: str
    C0: float = 0.0
    C1: float = 0.0
    C2: float = 0.0
    delta: float = 0.0
    eps: int = 1
    init: tuple = (0.0, 1.0, 0.0)

    def __post_init__(self):
        if self.id not in ("R2_4", "R2_9"):
            raise BadSpec(f"unknown reduction id {self.id!r}")
        if self.eps not in (1, -1):
            raise BadSpec("eps must be +1 or -1")


#: degree of the Taylor polynomials that step and answer every profile
_ORDER = 8
_BLOWUP = 1e6
#: the stepper of every profile, named in a trajectory's CSV sidecar
_METHOD = f"taylor-{_ORDER}"


@dataclass
class ODETrajectory:
    """Taylor dense output of a second-order profile equation.

    Every node carries the Taylor polynomials, of degree ``_ORDER``, of
    the profile, its first derivative and the companion potential psi;
    a point of the window is answered by its nearest node's, so at a
    node it is that node's value.
    """
    grid: np.ndarray           # strictly increasing node locations
    taylor: np.ndarray         # (n, 3, _ORDER + 1): f, f', psi by degree
    tol: float
    meta: dict = field(default_factory=dict)

    @property
    def values(self) -> np.ndarray:
        """(n, 3): the profile, its first derivative and psi at the nodes."""
        return self.taylor[:, :, 0]

    def window(self) -> tuple[float, float]:
        return float(self.grid[0]), float(self.grid[-1])

    def _nearest(self, w):
        """The nearest node's polynomials and the offset of w from it; for
        an array of w, each coefficient is an array over its elements."""
        lo, hi = self.window()
        jets.raise_where(np.logical_not((lo <= w) & (w <= hi)), w,
                         "{} outside trajectory window " f"[{lo}, {hi}]",
                         WindowError)
        grid = self.grid
        i = np.searchsorted(grid, w, side="right") - 1
        up = np.minimum(i + 1, len(grid) - 1)
        i = np.where(grid[up] - w < w - grid[i], up, i)
        if isinstance(w, np.ndarray):
            return self.taylor[i].transpose(1, 2, 0), w - grid[i]
        return self.taylor[i].tolist(), w - float(grid[i])

    def psi(self, w):
        """The companion potential and its slope at w, a float or an array."""
        rows, h = self._nearest(w)
        c = rows[2]
        slope = [k * c[k] for k in range(1, len(c))]
        return series.horner(c, h), series.horner(slope, h)

    def __call__(self, w):
        rows, h = self._nearest(w)
        return series.horner(rows[0], h), series.horner(rows[1], h)

    def series(self, w, order: int) -> np.ndarray:
        """Taylor coefficients at w, propagated through the profile ODE;
        for an array of w, one series per element, (len(w), order + 1)."""
        f, d = self(w)
        return np.stack(self.meta["series_fn"](w, f, d, order), axis=-1)

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["omega", "phi", "phi_prime"])
            for w, st in zip(self.grid, self.values):
                wr.writerow([repr(float(w)), repr(float(st[0])),
                             repr(float(st[1]))])
        sidecar = dict(self.meta.get("spec", {}))
        sidecar.update({"tol": self.tol, "method": _METHOD})
        with open(path + ".json", "w") as fh:
            json.dump(sidecar, fh, sort_keys=True)


def _integrate_profile(series_fn, psi_rate, guard, x0, y0, span, tol,
                       spec_meta):
    """March the 2nd-order profile both ways from x0 across span.

    ``series_fn(w, f, f', n)`` gives the profile's coefficients 0..n and
    ``psi_rate(w, c, n)`` the coefficients 0..n-1 of psi' from them;
    ``guard(w, y)``, if given, raises ZeroCrossing at a node it rejects.
    """
    lo, hi = min(span), max(span)
    if not (lo <= x0 <= hi):
        raise BadSpec("initial point outside the requested span")
    n = _ORDER
    # the first-integral drift is the dense output's truncation error, of
    # order eps^((n+1)/n): eps ~ tol^3 makes it contract about ten-fold
    # per halving of tol, and at tol = 2.5e-11 it stays ten-fold above
    # the 1e-15 at which the first integral itself rounds
    eps = 1e-9 * (tol / 1e-10) ** 3

    def node(x, y):
        """The f, f' and psi polynomials at a node, once per node."""
        c = series_fn(x, y[0], y[1], n + 1)
        rate = psi_rate(x, c, n)
        rows = (c[: n + 1], [(k + 1) * c[k + 1] for k in range(n + 1)],
                [y[2]] + [r / (k + 1) for k, r in enumerate(rate)])
        if not all(map(math.isfinite, rows[0] + rows[1] + rows[2])):
            raise OverflowError("trajectory blowup")
        return rows

    def step(rows):
        h = math.inf
        for c in rows:
            for j in (n - 1, n):
                if c[j]:
                    h = min(h, (eps / abs(c[j])) ** (1.0 / j))
        return h

    def march(direction, target, start):
        """Returns (xs, node polynomials, abort_message)."""
        x, rows = x0, start
        xs, nodes = [x], [rows]
        while x != target:
            h = step(rows)
            if h < 1e-13 * (1.0 + abs(x)):
                return xs, nodes, "step size underflow (movable singularity)"
            if h >= abs(target - x):
                x_new, h = target, target - x
            else:
                h *= direction
                x_new = x + h
            y = [series.horner(c, h) for c in rows]
            if not all(abs(v) <= _BLOWUP for v in y):
                return xs, nodes, "trajectory blowup"
            try:
                if guard is not None:
                    guard(x_new, y)
                rows = node(x_new, y)
            except ArithmeticError as exc:
                return xs, nodes, str(exc)
            x = x_new
            xs.append(x)
            nodes.append(rows)
        return xs, nodes, None

    y0 = [float(v) for v in y0]
    try:
        start = node(x0, y0)
    except ArithmeticError as exc:
        raise PoleAbort(str(exc)) from exc
    right = march(+1.0, hi, start)
    left = march(-1.0, lo, start)
    traj = ODETrajectory(
        grid=np.array(left[0][:0:-1] + right[0]),
        taylor=np.array(left[1][:0:-1] + right[1]), tol=tol,
        meta={"series_fn": series_fn, "spec": spec_meta})
    abort = right[2] or left[2]
    if abort:
        last = right[0][-1] if right[2] else left[0][-1]
        raise PoleAbort(abort, trajectory=traj, last_safe=last)
    return traj


def integrate_painleve2(spec: ReductionSpec, span=(-3.0, 0.0),
                        tol: float = 1e-10) -> ODETrajectory:
    """Integrate the second-Painleve form of the omega = x+y reduction.

    The trajectory lives in the tilded variables; the scaling map back is
    omega = omegat / s - C0/C1, phi = s * phitilde with s = (2 C1)^(1/3).
    """
    if spec.id != "R2_9":
        raise BadSpec("integrate_painleve2 expects the R2_9 reduction")
    if spec.C1 == 0.0:
        raise BadSpec("the Painleve branch requires C1 != 0")
    nu = 0.5 + spec.delta / spec.C1

    s = math.copysign(abs(2.0 * spec.C1) ** (1.0 / 3.0), spec.C1)

    def series_fn(w, f, d, order):
        # f'' = 2 f^3 + w f + nu by degree, with running coefficients of
        # f^2; the series w multiplies f as a shift
        c, f2 = [f, d], []
        for k in range(order + 1):
            f2.append(series.cauchy(c, c, k))
            wf = w * c[k] + (c[k - 1] if k else 0.0)
            rhs_k = 2.0 * series.cauchy(f2, c, k) + wf + (0.0 if k else nu)
            c.append(rhs_k / ((k + 2) * (k + 1)))
        return c[: order + 1]

    def psi_rate(w, c, order):
        # d psi / d z = (s^2 f' - s^2 f^2 - C1 z / s) / (2 s) in the tilded
        # variable, from 2 psi_w = phi_w - ..., by degree
        out = []
        for k in range(order):
            z = w if k == 0 else float(k == 1)
            out.append((s * s * ((k + 1) * c[k + 1] - series.cauchy(c, c, k))
                        - spec.C1 * z / s) / (2.0 * s))
        return out

    w0, f0, d0 = spec.init
    # seed psi from the third-integral relation, so its level is C2
    om0 = w0 / s - spec.C0 / spec.C1
    phi0, phip0 = s * f0, s * s * d0
    inner0 = phi0 * phi0 + spec.C1 * om0 + spec.C0
    psi0 = (phip0 ** 2 - inner0 ** 2 - 4.0 * spec.delta * phi0 - spec.C2) \
        / (4.0 * spec.C1)
    meta = {"id": spec.id, "C0": spec.C0, "C1": spec.C1, "C2": spec.C2,
            "delta": spec.delta, "nu": nu}
    traj = _integrate_profile(series_fn, psi_rate, None, w0,
                              (f0, d0, psi0), span, tol, meta)
    traj.meta["phi_scale"] = s
    return traj


def integrate_painleve4_form(spec: ReductionSpec, span=(-1.0, 1.0),
                             tol: float = 1e-10) -> ODETrajectory:
    """Integrate f f'' = f'^2/2 + (3/2)f^4 + 4wf^3 + 2(w^2-C1)f^2 + C0t."""
    if spec.id != "R2_4":
        raise BadSpec("integrate_painleve4_form expects the R2_4 reduction")
    C0t = 16.0 * spec.C0 - 2.0
    C1 = spec.C1
    eps = float(spec.eps)
    w0, f0, d0 = spec.init
    if abs(f0) < 1e-12:
        raise ZeroCrossing("profile starts at zero")

    def guard(x, y):
        if abs(y[0]) < 1e-9:
            raise ZeroCrossing(f"profile crossed zero near {x}")

    def series_fn(w, f, d, order):
        # f q = num with q = f'', by degree: running coefficients of f',
        # f^2 and f^3 give those of f'^2 and f^4; the series w and w^2
        # multiply f^3 and f^2 as shifts
        c, dc, q, f2, f3 = [f, d], [], [], [], []
        for k in range(order + 1):
            dc.append((k + 1) * c[k + 1])
            f2.append(series.cauchy(c, c, k))
            f3.append(series.cauchy(f2, c, k))
            wf3 = w * f3[k] + (f3[k - 1] if k else 0.0)
            w2f2 = (w * w * f2[k] + (2.0 * w * f2[k - 1] if k else 0.0)
                    + (f2[k - 2] if k > 1 else 0.0))
            num = (0.5 * series.cauchy(dc, dc, k)
                   + 1.5 * series.cauchy(f2, f2, k) + 4.0 * wf3
                   + 2.0 * w2f2 - 2.0 * C1 * f2[k])
            if k == 0:
                num += C0t
            for j in range(1, k + 1):
                num -= c[j] * q[k - j]
            q.append(num / c[0])
            c.append(q[k] / ((k + 2) * (k + 1)))
        return c[: order + 1]

    def psi_rate(wv, c, order):
        # d psi / d w = (C1 - 2 phi^2 + 2 phi_om - eps om phi) / 2 from the
        # twice-integrated first profile equation, by degree, with
        # om = 2 w, phi = -eps (f + om) / 2 and phi_om = d phi / d om
        phi = [-0.5 * eps * (c[0] + 2.0 * wv), -0.5 * eps * (c[1] + 2.0)]
        phi += [-0.5 * eps * a for a in c[2:order]]
        out = []
        for k in range(order):
            phi_om = -0.5 * eps * (0.5 * (k + 1) * c[k + 1] + float(k == 0))
            om_phi = 2.0 * (wv * phi[k] + (phi[k - 1] if k else 0.0))
            out.append(0.5 * (C1 * float(k == 0)
                              - 2.0 * series.cauchy(phi, phi, k)
                              + 2.0 * phi_om - eps * om_phi))
        return out

    # seed psi from its closed expression (consistent with C2 = 0)
    om0 = 2.0 * w0
    phi0 = -0.5 * eps * (f0 + om0)
    phi0pp = -0.25 * eps * series_fn(w0, f0, d0, 2)[2]
    psi0 = (-eps * phi0pp + 2.0 * eps * phi0 ** 3 + 1.5 * om0 * phi0 * phi0
            + (0.25 * eps * om0 * om0 - eps * C1 + 0.5) * phi0
            - 0.25 * C1 * om0)
    meta = {"id": spec.id, "C0": spec.C0, "C1": spec.C1, "eps": spec.eps,
            "C0_tilde": C0t}
    return _integrate_profile(series_fn, psi_rate, guard, w0,
                              (f0, d0, psi0), span, tol, meta)


def first_integral_2_4(traj: ODETrajectory, spec: ReductionSpec,
                       w: float) -> float:
    """The C0-level conserved quantity along an augmented 2.4 trajectory.

    Algebraic in (phi, phi', psi, omega): the second profile derivative is
    eliminated through the psi-expression, so the value honestly drifts
    with integration error instead of reproducing the equation.
    """
    eps, C1 = float(spec.eps), spec.C1
    f, d = traj(w)
    psi, _ = traj.psi(w)
    om = 2.0 * w
    phi = -0.5 * eps * (f + om)
    phip = -0.5 * eps * (0.5 * d + 1.0)
    return (0.5 * phi ** 4 + 0.5 * eps * om * phi ** 3
            + (om * om / 8.0 - 0.5 * C1 + 0.5 * eps) * phi * phi
            + 0.25 * (1.0 - eps * C1) * om * phi
            - eps * phi * psi - 0.5 * om * psi
            - 0.5 * phip * phip - 0.5 * eps * phip)


# ----------------------------------------------------------------------
# reconstruction of solution fields
# ----------------------------------------------------------------------

def _profile_jets(traj: ODETrajectory, wj: Jet3, order: int,
                  derivatives=(0,)) -> list[Jet3]:
    """Jets of the given derivatives of the profile at ``wj``, all read
    from one series: its coefficients 0..n do not depend on its order.
    The profile window, 1e-6 in from each end, bounds ``wj``'s value."""
    lo, hi = traj.window()
    w = wj.value
    jets.raise_where(np.logical_not((lo + 1e-6 < w) & (w < hi - 1e-6)), w,
                     "profile window exceeded", WindowError)
    order = int(order)
    ser = traj.series(w, order + max(derivatives))
    out = []
    for k in range(max(derivatives) + 1):
        if k in derivatives:
            out.append(jets.apply_taylor(ser[..., : order + 1], wj))
        ser = series.derivative(ser)
    return out


def reconstruct_2_4(traj: ODETrajectory, spec: ReductionSpec
                    ) -> SolutionField:
    """Lift a fourth-Painleve-form profile to a (u,v) solution field.

    u = -eps f(w)/(2 sqrt|t|) - (x+y)/(2t),  v = psi(w)/sqrt|t|,
    w = (x+y)/(2 sqrt|t|), with psi assembled from f, f', f'' so that no
    numerical differentiation enters.
    """
    if spec.id != "R2_4":
        raise BadSpec("reconstruct_2_4 expects the R2_4 reduction")
    eps = float(spec.eps)
    C1 = spec.C1

    def chart(p: Point, n: int) -> tuple[Jet3, Jet3, Jet3, Jet3]:
        # the jets of t, x + y, |t|^(-1/2) and w
        jets.raise_where(p.t * eps <= 0.05, p.t,
                         "outside the fixed sign chart of t", WindowError)
        t, x, y = jets.coordinate_jets(p, n)
        xy = x + y
        rt = jets.apply_unary(("pow", -0.5), jets.abs_signed(t))
        return t, xy, rt, 0.5 * xy * rt

    def u(p: Point, n: int) -> Jet3:
        t, xy, rt, wj = chart(p, n)
        fj, = _profile_jets(traj, wj, n)
        return -0.5 * eps * rt * fj - 0.5 * xy / t

    def v(p: Point, n: int) -> Jet3:
        _, _, rt, wj = chart(p, n)
        fj, fpp = _profile_jets(traj, wj, n, (0, 2))
        psi = (0.125 * fpp - 0.25 * fj * fj * fj
               - 0.75 * wj * fj * fj
               - (0.5 * wj * wj - 0.5 * C1 + 0.25 * eps) * fj
               + 0.5 * (C1 - eps) * wj)
        return rt * psi

    return SolutionField(u=jets.as_batch(u), v=jets.as_batch(v), coords="UV",
                         family_id="F_R24_PAINLEVE4",
                         params={"C0": spec.C0, "C1": spec.C1,
                                 "eps": spec.eps})


def _r29_quartic(C0: float, delta: float, C2: float, a=None):
    """The quartic phi'^2 = phi^4 + 2 C0 phi^2 + 4 delta phi + C2 of the
    elliptic omega = x+y profile, and the value a its P form is built
    on; unless given, a is 0 where C2 >= 0 and otherwise a value where
    F(a) > 0."""
    q = QuarticODE(1.0, 0.0, C0 / 3.0, delta, C2)
    if a is None:
        a = 0.0 if C2 >= 0.0 else 2.0 * abs(C0) + abs(C2) + 1.0
    return q, a


def _r29_field(fid, params, phi, square_integral, C0: float,
               delta: float, omega0: float) -> SolutionField:
    """Lift a reduced profile phi(omega), omega = x+y, to a (u,v) field,
    v = -(Phi2(omega) - Phi2(omega0))/2 + phi/2 - C0 omega/2 + delta t
    for an antiderivative Phi2 of phi^2; a point at a pole is undefined
    (a :class:`specfun.PoleError`)."""
    anchor = square_integral(omega0)

    def omega_jet(p, n):
        return jets.lift_variable("x", p, n) + jets.lift_variable("y", p, n)

    def u(p, n):
        return phi(omega_jet(p, n))

    def v(p, n):
        t = jets.lift_variable("t", p, n)
        wj = omega_jet(p, n)
        w0 = wj.value
        # phi's series at omega, to the order of v
        order = int(n)
        pser = jets.axis_series(
            phi(jets.lift_variable("x", Point(p.t, w0, p.y), order)), "x")
        square = series.univariate(order).mul(pser, pser)
        q = series.integral(square, square_integral(w0) - anchor, order)
        return (-0.5 * jets.apply_taylor(q, wj)
                + 0.5 * jets.apply_taylor(pser, wj)
                - 0.5 * C0 * wj + delta * t)
    return SolutionField(u=jets.as_batch(u), v=jets.as_batch(v), coords="UV",
                         family_id=fid, params=params)


def reconstruct_2_9(profile, spec: ReductionSpec,
                    omega0: float = 1.0) -> SolutionField:
    """Lift an omega = x+y profile to a (u,v) solution field.

    For C1 != 0 the profile is an :class:`ODETrajectory` in the tilded
    Painleve variables; v is algebraic in (phi, phi').  For C1 = 0 the
    profile is a jet-capable callable phi(omega) and v carries an
    antiderivative of phi^2 in closed form: a
    :class:`specfun.DegenerateBranch` gives its own ``square_integral``;
    any other profile must be the spec's P branch, the
    ``quartic_particular_solution`` that F_R29_ELLIPTIC builds from
    (C0, delta, C2) with its default a, whose antiderivative is
    :func:`specfun.quartic_square_integral`.  A profile that differs
    from that branch in value or slope at omega0 raises
    :class:`BadSpec`.
    """
    if spec.id != "R2_9":
        raise BadSpec("reconstruct_2_9 expects the R2_9 reduction")
    if spec.C1 != 0.0:
        traj: ODETrajectory = profile
        s = traj.meta.get("phi_scale", math.copysign(
            abs(2.0 * spec.C1) ** (1.0 / 3.0), spec.C1))
        C0, C1, C2, de = spec.C0, spec.C1, spec.C2, spec.delta

        def phi_pair(p: Point, n: int):
            t, x, y = jets.coordinate_jets(p, n)
            wj = s * (x + y + C0 / C1)
            fj, dj = _profile_jets(traj, wj, n, (0, 1))
            fj, dj = fj * s, dj * (s * s)
            return t, x, y, fj, dj

        def u(p, n):
            _, _, _, fj, _ = phi_pair(p, n)
            return fj

        def v(p, n):
            t, x, y, fj, dj = phi_pair(p, n)
            w = x + y
            inner = fj * fj + C1 * w + C0
            return (dj * dj - inner * inner - 4.0 * de * fj - C2) \
                / (4.0 * C1) + de * t

        return SolutionField(u=jets.as_batch(u), v=jets.as_batch(v),
                             coords="UV", family_id="F_R29_PAINLEVE2",
                             params={"C0": C0, "C1": C1, "C2": C2,
                                     "delta": de})

    if isinstance(profile, DegenerateBranch):
        square_integral = profile.square_integral
    else:
        q, a = _r29_quartic(spec.C0, spec.delta, spec.C2)
        probe = jets.lift_variable("x", Point(0.0, omega0, 0.0), 1)
        if not np.allclose(profile(probe).coeffs,
                           quartic_particular_solution(q, a)(probe).coeffs,
                           rtol=1e-12, atol=1e-12):
            raise BadSpec("the C1 = 0 profile is not the spec's P branch "
                          f"at omega0 = {omega0}")
        square_integral = quartic_square_integral(q, a)
    return _r29_field("F_R29_RECONSTRUCT",
                      {"C0": spec.C0, "delta": spec.delta,
                       "omega0": omega0},
                      profile, square_integral, spec.C0, spec.delta, omega0)


def first_integrals_2_9(phi, phip, psi, psip, omega,
                        spec: ReductionSpec) -> tuple[float, float, float]:
    """Residuals of the three first integrals of the omega = x+y reduction.

    I1: 2 psi' = phi' - phi^2 - C1 w - C0   (the two polynomial factors)
    I2: the profile equation phi'' = 2 phi^3 + 2(C1 w + C0) phi + C1 + 2 d,
        with phi'' eliminated through the derivative of the third integral
    I3: phi'^2 = (phi^2 + C1 w + C0)^2 + 4 d phi + 4 C1 psi + C2
    """
    C0, C1, C2, de = spec.C0, spec.C1, spec.C2, spec.delta
    inner = phi * phi + C1 * omega + C0
    i1 = 2.0 * psip - phip + inner
    i3 = phip * phip - inner * inner - 4.0 * de * phi - 4.0 * C1 * psi - C2
    # d/dw of I3 combined with the profile equation:
    lhs = inner * (2.0 * phi * phip + C1) + 2.0 * de * phip + 2.0 * C1 * psip
    rhs = phip * (2.0 * phi ** 3 + 2.0 * (C1 * omega + C0) * phi
                  + C1 + 2.0 * de)
    if abs(phip) > 1e-6:
        i2 = (lhs - rhs) / phip
    else:
        i2 = lhs - rhs
    return float(i1), float(i2), float(i3)


def reduction_2_3_field(delta: int, phi0: float,
                        psi_of_y=None) -> SolutionField:
    """The overdetermined scaling reduction: u = phi0/x, v = psi(y) (+ log).

    Consistent only for delta = 0 with phi0 = 1/2; the delta = 1 branch
    keeps a nonzero residual for every constant profile.
    """
    def u(p: Point, n: int) -> Jet3:
        _, x, _ = jets.coordinate_jets(p, n)
        jets.raise_where(abs(p.x) < 0.1, p.x, "x near zero", WindowError)
        return phi0 / x

    def v(p: Point, n: int) -> Jet3:
        _, x, _ = jets.coordinate_jets(p, n)
        out = Jet3.constant(0.0, p, n)
        if isinstance(psi_of_y, Expr):
            out = out + eval_jet(psi_of_y, "y", p, n)
        elif psi_of_y is not None:
            out = out + psi_of_y(jets.lift_variable("y", p, n))
        if delta:
            out = out + 2.0 * float(delta) * jets.ln(jets.abs_signed(x))
        return out

    return SolutionField(u=u, v=v, coords="UV", family_id="F_R23",
                         params={"delta": delta, "phi0": phi0})
