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

Trajectories are produced by an embedded Dormand-Prince 5(4) pair.  The
nominal step is coupled to the tolerance as h ~ tol^0.55 so that the
dense-output drift of the first integrals scales at least quartically
under tolerance halving; the embedded error estimate acts as a safety
rejection threshold.  Dense output is cubic Hermite on accepted steps,
and every reconstruction consumes ODE-provided derivatives, never
numerical differentiation.
"""

from __future__ import annotations

import csv
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from . import jets
from .jets import BadInput, BLPError, Jet3, Point, UndefinedHere
from .system import SolutionField

__all__ = [
    "ODETrajectory", "ReductionSpec", "PoleAbort", "BadSpec",
    "ZeroCrossing", "WindowError",
    "integrate_painleve2", "integrate_painleve4_form",
    "first_integral_2_4",
    "reconstruct_2_4", "reconstruct_2_9", "first_integrals_2_9",
    "reduction_2_3_field", "elliptic_v_zeta_form",
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


@dataclass
class ODETrajectory:
    """Dense-output solution of a second-order profile equation."""
    grid: np.ndarray           # strictly monotone node locations
    values: np.ndarray         # (n, 2): profile and first derivative
    second: np.ndarray         # (n,): second derivative from the equation
    tol: float
    method: str
    interp_error_bound: float
    meta: dict = field(default_factory=dict)

    def window(self) -> tuple[float, float]:
        return float(self.grid[0]), float(self.grid[-1])

    def psi(self, w: float) -> tuple[float, float]:
        """Companion potential carried as an extra integration state.

        Interpolated with quintic Hermite, using first and second
        derivatives supplied analytically by the potential's flow.
        """
        if self.values.shape[1] < 3:
            raise WindowError("trajectory carries no psi state")
        lo, hi = self.window()
        if not (lo <= w <= hi):
            raise WindowError(f"{w} outside trajectory window [{lo}, {hi}]")
        flow = self.meta["psi_flow"]
        flow2 = self.meta["psi_flow2"]
        i = min(max(bisect_right(self.grid, w) - 1, 0), len(self.grid) - 2)
        x0, x1 = self.grid[i], self.grid[i + 1]
        h = x1 - x0
        s = (w - x0) / h
        p0, p1 = self.values[i, 2], self.values[i + 1, 2]
        f0, d0 = self.values[i, 0], self.values[i, 1]
        f1, d1 = self.values[i + 1, 0], self.values[i + 1, 1]
        g0, g1 = flow(x0, f0, d0), flow(x1, f1, d1)
        a0, a1 = flow2(x0, f0, d0), flow2(x1, f1, d1)
        s2, s3 = s * s, s ** 3
        s4, s5 = s2 * s2, s2 * s3
        val = (p0 * (1 - 10 * s3 + 15 * s4 - 6 * s5)
               + h * g0 * (s - 6 * s3 + 8 * s4 - 3 * s5)
               + h * h * a0 * (0.5 * s2 - 1.5 * s3 + 1.5 * s4 - 0.5 * s5)
               + p1 * (10 * s3 - 15 * s4 + 6 * s5)
               + h * g1 * (-4 * s3 + 7 * s4 - 3 * s5)
               + h * h * a1 * (0.5 * s3 - s4 + 0.5 * s5))
        slope = flow(w, *self(w))
        return float(val), float(slope)

    def __call__(self, w: float) -> tuple[float, float]:
        lo, hi = self.window()
        if not (lo <= w <= hi):
            raise WindowError(f"{w} outside trajectory window [{lo}, {hi}]")
        i = min(max(bisect_right(self.grid, w) - 1, 0), len(self.grid) - 2)
        x0, x1 = self.grid[i], self.grid[i + 1]
        h = x1 - x0
        s = (w - x0) / h
        f0, d0 = self.values[i, 0], self.values[i, 1]
        f1, d1 = self.values[i + 1, 0], self.values[i + 1, 1]
        s2, s3 = s * s, s * s * s
        h00 = 2 * s3 - 3 * s2 + 1
        h10 = s3 - 2 * s2 + s
        h01 = -2 * s3 + 3 * s2
        h11 = s3 - s2
        f = h00 * f0 + h10 * h * d0 + h01 * f1 + h11 * h * d1
        g0, e0 = d0, self.second[i]
        g1, e1 = d1, self.second[i + 1]
        d = h00 * g0 + h10 * h * e0 + h01 * g1 + h11 * h * e1
        return float(f), float(d)

    def series(self, w: float, order: int) -> np.ndarray:
        """Taylor coefficients at w, propagated through the profile ODE."""
        f, d = self(w)
        return self.meta["series_fn"](w, f, d, order)

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["omega", "phi", "phi_prime"])
            for w, st in zip(self.grid, self.values):
                wr.writerow([repr(float(w)), repr(float(st[0])),
                             repr(float(st[1]))])
        sidecar = dict(self.meta.get("spec", {}))
        sidecar.update({"tol": self.tol, "method": self.method})
        with open(path + ".json", "w") as fh:
            json.dump(sidecar, fh, sort_keys=True)


# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784,
                   11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])

_SAFETY_FACTOR = 300.0
_BLOWUP = 1e6


def _dp_step(f, x, y, h):
    k = [f(x, y)]
    for i in range(1, 7):
        acc = y + h * sum(a * kk for a, kk in zip(_DP_A[i], k))
        k.append(f(x + _DP_C[i] * h, acc))
    y5 = y + h * sum(b * kk for b, kk in zip(_DP_B5, k))
    y4 = y + h * sum(b * kk for b, kk in zip(_DP_B4, k))
    err = float(np.max(np.abs(y5 - y4)))
    return y5, err, k[-1]


def _integrate_profile(rhs, guard, x0, y0, span, tol, method, series_fn,
                       spec_meta):
    """March the 2nd-order profile both ways from x0 across span."""
    lo, hi = min(span), max(span)
    if not (lo <= x0 <= hi):
        raise BadSpec("initial point outside the requested span")
    # every step-limiting channel is calibrated so the accepted step size
    # scales like tol^0.55: dense-output drift then contracts at least
    # four-fold when the tolerance is halved
    scale = tol / 1e-10
    h_nom = 0.04 * scale ** 0.55
    est_tol = _SAFETY_FACTOR * 1e-10 * scale ** 2.75
    dense_tol = 20.0 * 1e-10 * scale ** 2.2
    interp_bound = 6.0 * h_nom ** 4 / 384.0

    def march(direction, target):
        """Returns (xs, ys, fs, abort_message)."""
        f0v = rhs(x0, np.array(y0, dtype=float))
        xs, ys, fs = [x0], [np.array(y0, dtype=float)], [f0v]
        x, y = x0, np.array(y0, dtype=float)
        h = direction * h_nom
        while (x - target) * direction < 0.0:
            if abs(h) > abs(target - x):
                h = target - x
            trial_h = h
            ok_step = False
            for _ in range(60):
                try:
                    ytry, err, ftry = _dp_step(rhs, x, y, trial_h)
                except (ArithmeticError, FloatingPointError):
                    trial_h *= 0.5
                    continue
                if not np.all(np.isfinite(ytry)):
                    trial_h *= 0.5
                    continue
                # embedded estimate + cubic-Hermite dense-output estimate,
                # with the 4th derivative taken from the Taylor recurrence
                try:
                    ca = series_fn(x, y[0], y[1], 5)
                    cb = series_fn(x + trial_h, ytry[0], ytry[1], 5)
                    f4 = 24.0 * max(abs(ca[4]), abs(cb[4]))
                    f5 = 120.0 * max(abs(ca[5]), abs(cb[5]))
                except (ArithmeticError, ZeroDivisionError):
                    f4 = f5 = np.inf
                # cubic-Hermite bounds for the profile and slope channels
                dense = trial_h ** 4 * max(f4, f5) / 384.0
                if err <= est_tol and dense <= dense_tol:
                    ok_step = True
                    break
                trial_h *= 0.5
                if abs(trial_h) < 1e-13 * (1.0 + abs(x)):
                    return xs, ys, fs, "step size underflow " \
                        "(movable singularity)"
            if not ok_step:
                return xs, ys, fs, "step rejection cascade"
            if float(np.max(np.abs(ytry))) > _BLOWUP:
                return xs, ys, fs, "trajectory blowup"
            try:
                guard(x + trial_h, ytry)
            except ZeroCrossing as exc:
                return xs, ys, fs, str(exc)
            x = x + trial_h
            y = ytry
            xs.append(x)
            ys.append(y.copy())
            fs.append(ftry)
            h = direction * min(h_nom, abs(trial_h) * 2.0)
        return xs, ys, fs, None

    empty = ([x0], [np.array(y0, dtype=float)],
             [rhs(x0, np.array(y0, dtype=float))], None)
    right = march(+1.0, hi) if hi > x0 else empty
    left = march(-1.0, lo) if lo < x0 else empty
    xs = list(reversed(left[0][1:])) + right[0]
    ys = list(reversed(left[1][1:])) + right[1]
    fs = list(reversed(left[2][1:])) + right[2]
    grid = np.array(xs)
    order_idx = np.argsort(grid)
    traj = ODETrajectory(
        grid=grid[order_idx], values=np.array(ys)[order_idx],
        second=np.array([f[1] for f in fs])[order_idx], tol=tol,
        method=method, interp_error_bound=interp_bound,
        meta={"series_fn": series_fn, "spec": spec_meta})
    abort = right[3] or left[3]
    if abort:
        last = right[0][-1] if right[3] else left[0][-1]
        raise PoleAbort(abort, trajectory=traj, last_safe=last)
    return traj


def _series_mul(a, b, n):
    return np.convolve(a, b)[: n + 1]


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

    s = (2.0 * spec.C1) ** (1.0 / 3.0)

    def psi_flow(z, f, d):
        # d psi / d z in the tilded variable, from 2 psi_w = phi_w - ...
        return (s * s * d - s * s * f * f - spec.C1 * z / s) / (2.0 * s)

    def psi_flow2(z, f, d):
        fpp = 2.0 * f ** 3 + z * f + nu
        return (s * s * (fpp - 2.0 * f * d) - spec.C1 / s) / (2.0 * s)

    def rhs(x, y):
        return np.array([y[1], 2.0 * y[0] ** 3 + x * y[0] + nu,
                         psi_flow(x, y[0], y[1])])

    def guard(x, y):
        return None

    def series_fn(w, f, d, order):
        c = np.zeros(order + 3)
        c[0], c[1] = f, d
        for k in range(order + 1):
            cube = _series_mul(_series_mul(c[: k + 1], c[: k + 1], k),
                               c[: k + 1], k)
            wf = w * c[k] + (c[k - 1] if k >= 1 else 0.0)
            rhs_k = 2.0 * cube[k] + wf + (nu if k == 0 else 0.0)
            c[k + 2] = rhs_k / ((k + 2) * (k + 1))
        return c[: order + 1]

    w0, f0, d0 = spec.init
    # seed psi from the third-integral relation, so its level is C2
    om0 = w0 / s - spec.C0 / spec.C1
    phi0, phip0 = s * f0, s * s * d0
    inner0 = phi0 * phi0 + spec.C1 * om0 + spec.C0
    psi0 = (phip0 ** 2 - inner0 ** 2 - 4.0 * spec.delta * phi0 - spec.C2) \
        / (4.0 * spec.C1)
    meta = {"id": spec.id, "C0": spec.C0, "C1": spec.C1, "C2": spec.C2,
            "delta": spec.delta, "nu": nu}
    traj = _integrate_profile(rhs, guard, w0, (f0, d0, psi0), span, tol,
                              "dormand-prince-5(4)", series_fn, meta)
    traj.meta["omega_map"] = lambda omega: s * (omega + spec.C0 / spec.C1)
    traj.meta["phi_scale"] = s
    traj.meta["psi_flow"] = psi_flow
    traj.meta["psi_flow2"] = psi_flow2
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

    def f_second(x, f, d):
        num = 0.5 * d * d + 1.5 * f ** 4 + 4.0 * x * f ** 3 \
            + 2.0 * (x * x - C1) * f * f + C0t
        return num / f

    def psi_flow(wv, f, d):
        # d psi / d w from the twice-integrated first profile equation
        om = 2.0 * wv
        phi = -0.5 * eps * (f + om)
        phi_w = -0.5 * eps * (0.5 * d + 1.0)
        return 2.0 * (C1 - 2.0 * (phi * phi - phi_w) - eps * om * phi) / 4.0

    def psi_flow2(wv, f, d):
        om = 2.0 * wv
        phi = -0.5 * eps * (f + om)
        phi_w = -0.5 * eps * (0.5 * d + 1.0)
        phi_ww = -0.125 * eps * f_second(wv, f, d)
        return (-4.0 * phi * phi_w + 2.0 * phi_ww
                - eps * (phi + om * phi_w))

    def rhs(x, y):
        return np.array([y[1], f_second(x, y[0], y[1]),
                         psi_flow(x, y[0], y[1])])

    def guard(x, y):
        if abs(y[0]) < 1e-9:
            raise ZeroCrossing(f"profile crossed zero near {x}")

    def series_fn(w, f, d, order):
        n = order
        c = np.zeros(n + 3)
        c[0], c[1] = f, d
        wser = np.zeros(n + 1)
        wser[0] = w
        if n >= 1:
            wser[1] = 1.0
        q = np.zeros(n + 1)  # series of f''
        for k in range(n + 1):
            cc = c[: k + 2]
            dser = np.array([(j + 1) * c[j + 1] for j in range(k + 1)])
            sq = _series_mul(dser, dser, k)
            f2 = _series_mul(cc, cc, k)
            f3 = _series_mul(f2, cc, k)
            f4 = _series_mul(f2, f2, k)
            w2 = _series_mul(wser[: k + 1], wser[: k + 1], k)
            num = (0.5 * sq + 1.5 * f4 + 4.0 * _series_mul(wser[: k + 1], f3, k)
                   + 2.0 * _series_mul(w2, f2, k) - 2.0 * C1 * f2)
            num[0] += C0t
            # q = num / f, coefficient k
            acc = num[k]
            for j in range(1, k + 1):
                acc -= c[j] * q[k - j]
            q[k] = acc / c[0]
            c[k + 2] = q[k] / ((k + 2) * (k + 1))
        return c[: n + 1]

    # seed psi from its closed expression (consistent with C2 = 0)
    om0 = 2.0 * w0
    phi0 = -0.5 * eps * (f0 + om0)
    phi0pp = -0.125 * eps * f_second(w0, f0, d0)
    psi0 = (-eps * phi0pp + 2.0 * eps * phi0 ** 3 + 1.5 * om0 * phi0 * phi0
            + (0.25 * eps * om0 * om0 - eps * C1 + 0.5) * phi0
            - 0.25 * C1 * om0)
    meta = {"id": spec.id, "C0": spec.C0, "C1": spec.C1, "eps": spec.eps,
            "C0_tilde": C0t}
    traj = _integrate_profile(rhs, guard, w0, (f0, d0, psi0), span, tol,
                              "dormand-prince-5(4)", series_fn, meta)
    traj.meta["psi_flow"] = psi_flow
    traj.meta["psi_flow2"] = psi_flow2
    return traj


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

def _profile_jet(traj: ODETrajectory, wj: Jet3, order: int,
                 derivative: int = 0) -> Jet3:
    ser = traj.series(wj.value, order + derivative)
    for _ in range(derivative):
        ser = np.array([(k + 1) * ser[k + 1] for k in range(len(ser) - 1)])
    return jets.apply_taylor(ser[: order + 1], wj)


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
    lo, hi = traj.window()

    def w_jet(p: Point, n: int) -> Jet3:
        t, x, y = jets.coordinate_jets(p, n)
        if p.t * eps <= 0.05:
            raise WindowError("outside the fixed sign chart of t")
        at = jets.abs_signed(t)
        return 0.5 * (x + y) * jets.apply_unary(("pow", -0.5), at)

    def u(p: Point, n: int) -> Jet3:
        wj = w_jet(p, n)
        if not (lo + 1e-9 <= wj.value <= hi - 1e-9):
            raise WindowError("profile window exceeded")
        t, x, y = jets.coordinate_jets(p, n)
        at = jets.abs_signed(t)
        fj = _profile_jet(traj, wj, n)
        return (-0.5 * eps * jets.apply_unary(("pow", -0.5), at) * fj
                - 0.5 * (x + y) / t)

    def v(p: Point, n: int) -> Jet3:
        wj = w_jet(p, n)
        if not (lo + 1e-9 <= wj.value <= hi - 1e-9):
            raise WindowError("profile window exceeded")
        t, _, _ = jets.coordinate_jets(p, n)
        at = jets.abs_signed(t)
        fj = _profile_jet(traj, wj, n)
        fpp = _profile_jet(traj, wj, n, derivative=2)
        psi = (0.125 * fpp - 0.25 * fj * fj * fj
               - 0.75 * wj * fj * fj
               - (0.5 * wj * wj - 0.5 * C1 + 0.25 * eps) * fj
               + 0.5 * (C1 - eps) * wj)
        return jets.apply_unary(("pow", -0.5), at) * psi

    def ok(p: Point) -> bool:
        if p.t * eps <= 0.05:
            return False
        w = 0.5 * (p.x + p.y) / math.sqrt(abs(p.t))
        return lo + 1e-6 < w < hi - 1e-6

    return SolutionField(u=u, v=v, coords="UV", family_id="F_R24_PAINLEVE4",
                         params={"C0": spec.C0, "C1": spec.C1,
                                 "eps": spec.eps}, validity=ok)


def reconstruct_2_9(profile, spec: ReductionSpec,
                    omega0: float = 1.0) -> SolutionField:
    """Lift an omega = x+y profile to a (u,v) solution field.

    For C1 != 0 the profile is an :class:`ODETrajectory` in the tilded
    Painleve variables; v is algebraic in (phi, phi').  For C1 = 0 the
    profile is a callable phi(omega) (jet-capable) and v carries the
    antiderivative of phi^2.
    """
    if spec.id != "R2_9":
        raise BadSpec("reconstruct_2_9 expects the R2_9 reduction")
    if spec.C1 != 0.0:
        traj: ODETrajectory = profile
        s = traj.meta.get("phi_scale", (2.0 * spec.C1) ** (1.0 / 3.0))
        lo, hi = traj.window()
        C0, C1, C2, de = spec.C0, spec.C1, spec.C2, spec.delta

        def phi_pair(p: Point, n: int):
            t, x, y = jets.coordinate_jets(p, n)
            wj = s * (x + y + C0 / C1)
            if not (lo + 1e-9 <= wj.value <= hi - 1e-9):
                raise WindowError("profile window exceeded")
            fj = _profile_jet(traj, wj, n) * s
            dj = _profile_jet(traj, wj, n, derivative=1) * (s * s)
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

        def ok(p):
            w = s * (p.x + p.y + C0 / C1)
            return lo + 1e-6 < w < hi - 1e-6

        return SolutionField(u=u, v=v, coords="UV",
                             family_id="F_R29_PAINLEVE2",
                             params={"C0": C0, "C1": C1, "C2": C2,
                                     "delta": de}, validity=ok)

    # C1 = 0: profile is a jet-capable callable
    from .catalog import _r29_field
    return _r29_field("F_R29_RECONSTRUCT",
                      {"C0": spec.C0, "delta": spec.delta,
                       "omega0": omega0},
                      profile, spec.C0, spec.delta, omega0, profile)


def elliptic_v_zeta_form(spec: ReductionSpec, a: float, omega: float,
                         t: float) -> float:
    """Closed form of v for the C1 = 0 elliptic branch via the zeta function.

    Differs from the quadrature-based reconstruction by a constant (a pure
    shift of v, itself a symmetry of the system).  The antiderivative of
    -phi^2/2 pairs with the classical zeta normalization (zeta' = -P);
    blp.specfun returns the opposite sign convention, so it is flipped
    here.
    """
    from .specfun import QuarticODE, invariants_from_quartic, weierstrass_p
    q = QuarticODE(1.0, 0.0, spec.C0 / 3.0, spec.delta, spec.C2)
    inv = invariants_from_quartic(q)
    Fa = q.F(a)
    p_, dp, zeta = weierstrass_p(omega, inv)
    den = 24.0 * p_ - q.F_second(a) - 12.0 * math.sqrt(Fa)
    return (3.0 * (4.0 * dp + 4.0 * a * math.sqrt(Fa) + q.F_prime(a)) / den
            - zeta - spec.C0 / 3.0 * omega + spec.delta * t)


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
    from .exprdsl import Expr

    def u(p: Point, n: int) -> Jet3:
        _, x, _ = jets.coordinate_jets(p, n)
        if abs(p.x) < 0.1:
            raise WindowError("x near zero")
        return phi0 / x

    def v(p: Point, n: int) -> Jet3:
        _, x, _ = jets.coordinate_jets(p, n)
        out = Jet3.constant(0.0, p, n)
        if psi_of_y is not None:
            yj = jets.lift_variable("y", p, n)
            out = out + (psi_of_y(yj) if not isinstance(psi_of_y, Expr)
                         else psi_of_y(yj))
        if delta:
            out = out + 2.0 * float(delta) * jets.ln(jets.abs_signed(x))
        return out

    return SolutionField(u=u, v=v, coords="UV", family_id="F_R23",
                         params={"delta": delta, "phi0": phi0},
                         validity=lambda p: abs(p.x) > 0.1)
