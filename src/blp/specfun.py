"""Weierstrass elliptic functions and quartic first-order ODEs.

Supports integrating autonomous equations

    phi_z^2 = F(phi) = a0 phi^4 + 4 a1 phi^3 + 6 a2 phi^2 + 4 a3 phi + a4

on the real line: in terms of the Weierstrass P-function when F has no
multiple roots, and in elementary functions otherwise.  P solves its own
quartic, so P and every phi take their Taylor tails from one recurrence.

P is evaluated on real, pole-free arguments by summing its Laurent series
on a small seed disc and extending with the duplication formula.  The
series constants (Laurent coefficients and seed radius) depend only on
(g2, g3), so they are computed once per :class:`EllipticInvariants` and
shared by every evaluation on that lattice.  P, the particular solution
built on it and that solution's antiderivative also take a 1-D array of
arguments, one per lane, and each lane runs the float operations of its
argument alone.  The companion zeta function here follows the convention
zeta' = P (so zeta ~ -1/z near the origin), which is the sign the
reduced-equation antiderivatives use.  Additive constants in zeta shift
the reconstructed v-field by a constant, which is itself a symmetry of
the system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import jets, series
from .jets import (BLPError, DomainError, Jet3, Point, apply_taylor,
                   lift_variable)

__all__ = [
    "EllipticInvariants", "QuarticODE", "PoleError", "NonFiniteError",
    "NegativeRadicand", "DegenerateError", "NotDegenerate",
    "invariants_from_quartic", "weierstrass_p", "weierstrass_series",
    "quartic_particular_solution", "quartic_square_integral",
    "degenerate_solutions", "DegenerateBranch",
]


class PoleError(DomainError):
    """Argument too close to a lattice point of P, or to a pole of a
    profile built on P: the point is undefined."""


class NonFiniteError(BLPError, ArithmeticError):
    """Evaluation overflowed."""


class NegativeRadicand(BLPError, ValueError):
    """F(a) < 0 where a square root of F(a) is required."""


class DegenerateError(BLPError, ValueError):
    """The quartic has multiple roots where simple roots are required."""


class NotDegenerate(BLPError, ValueError):
    """The supplied root fails its multiplicity certificate."""


@dataclass(frozen=True)
class EllipticInvariants:
    """Lattice invariants (g2, g3) and the constants derived from them.

    ``laurent`` and ``seed_radius`` feed :func:`weierstrass_p`; they are
    functions of (g2, g3), so they take no part in equality, hashing or
    repr.
    """
    g2: float
    g3: float
    discriminant: float = field(init=False)
    laurent: tuple[float, ...] = field(init=False, compare=False,
                                       repr=False)
    seed_radius: float = field(init=False, compare=False, repr=False)

    @property
    def quartic(self) -> "QuarticODE":
        """The quartic P'^2 = 4 P^3 - g2 P - g3 that P solves; its
        invariants are (g2, g3) (Whittaker & Watson, section 20.22)."""
        return QuarticODE(0.0, 1.0, 0.0, -0.25 * self.g2, -self.g3)

    def __post_init__(self):
        object.__setattr__(self, "discriminant",
                           self.g2 ** 3 - 27.0 * self.g3 ** 2)
        object.__setattr__(self, "laurent", tuple(
            float(c) for c in _laurent_coeffs(self.g2, self.g3)))
        object.__setattr__(self, "seed_radius",
                           _seed_radius(self.g2, self.g3))


@dataclass(frozen=True)
class QuarticODE:
    """phi_z^2 = a0 phi^4 + 4 a1 phi^3 + 6 a2 phi^2 + 4 a3 phi + a4."""
    a0: float
    a1: float
    a2: float
    a3: float
    a4: float

    def F(self, phi):
        return (((self.a0 * phi + 4.0 * self.a1) * phi + 6.0 * self.a2) * phi
                + 4.0 * self.a3) * phi + self.a4

    def F_prime(self, phi):
        return ((4.0 * self.a0 * phi + 12.0 * self.a1) * phi
                + 12.0 * self.a2) * phi + 4.0 * self.a3

    def F_second(self, phi):
        return (12.0 * self.a0 * phi + 24.0 * self.a1) * phi + 12.0 * self.a2

    @property
    def scale(self) -> float:
        return 1.0 + max(abs(self.a0), abs(self.a1), abs(self.a2),
                         abs(self.a3), abs(self.a4))

    def taylor(self, v, d, n: int) -> list:
        """Taylor coefficients 0..n of the solution of value ``v`` and slope
        ``d`` (floats or lanes), by degree from phi'' = F'(phi)/2; the
        phi^3 term is summed only where a0 != 0 (not on P's own quartic)."""
        c, sq = [v, d], []
        for k in range(n - 1):
            sq.append(series.cauchy(c, c, k))
            cub_k = 4.0 * self.a0 * series.cauchy(sq, c, k) if self.a0 \
                else 0.0
            fp_k = (cub_k + 12.0 * self.a1 * sq[k]
                    + 12.0 * self.a2 * c[k]
                    + (4.0 * self.a3 if k == 0 else 0.0))
            c.append(0.5 * fp_k / ((k + 2) * (k + 1)))
        return c[: n + 1]


def invariants_from_quartic(q: QuarticODE) -> EllipticInvariants:
    g2 = q.a0 * q.a4 - 4.0 * q.a1 * q.a3 + 3.0 * q.a2 ** 2
    g3 = (q.a0 * (q.a2 * q.a4 - q.a3 ** 2)
          - q.a1 * (q.a1 * q.a4 - q.a2 * q.a3)
          + q.a2 * (q.a1 * q.a3 - q.a2 ** 2))
    return EllipticInvariants(g2, g3)


# ----------------------------------------------------------------------
# Weierstrass P, P', zeta on the real line
# ----------------------------------------------------------------------

_N_LAURENT = 14  # c_2 .. c_{N}: series terms generated from the defining ODE


def _laurent_coeffs(g2: float, g3: float) -> np.ndarray:
    """Coefficients c_k with P(z) = 1/z^2 + sum_{k>=2} c_k z^(2k-2); in
    the Cauchy product, c_0 = c_1 = 0 and the c_k not yet known are 0."""
    c = np.zeros(_N_LAURENT + 1)
    c[2] = g2 / 20.0
    c[3] = g3 / 28.0
    for k in range(4, _N_LAURENT + 1):
        c[k] = 3.0 * series.cauchy(c, c, k) / ((2 * k + 1) * (k - 3))
    return c


def _seed_radius(g2: float, g3: float) -> float:
    scale = max(abs(g2) ** 0.25, abs(g3) ** (1.0 / 6.0), 1e-30)
    return min(0.5, 0.35 / scale)


def _series_eval(z, c: tuple[float, ...]):
    """(P, P', zeta) at z on the seed disc, a float or an array, from the
    Laurent coefficients ``c``; each sum adds its terms in order of k."""
    z = np.asarray(z, dtype=float)[..., None]
    z2 = z * z
    k = np.arange(2, len(c))
    ck = np.array(c[2:])
    # z^(2k-2) from k = 2, by repeated products
    zpow = np.multiply.accumulate(np.repeat(z2, len(k), axis=-1), axis=-1)
    terms = (
        (1.0 / z2, ck * zpow),
        (-2.0 / (z2 * z), ck * (2 * k - 2) * zpow / z),
        (-1.0 / z, ck * zpow * z / (2 * k - 1)))
    return tuple(
        np.add.accumulate(np.concatenate(t, axis=-1), axis=-1)[..., -1]
        for t in terms)


def weierstrass_p(z, inv: EllipticInvariants):
    """(P(z), P'(z), zeta(z)) with zeta' = P; real pole-free arguments only.

    ``z`` is a float, or a 1-D array of arguments, one per lane, for which
    the three values are arrays.  Each lane runs the halving, Laurent and
    duplication arithmetic of its argument alone, and no operation runs on
    a lane once it is finished.  A batch raises as :func:`jets.raise_where`
    does: at the first check that fails, before any arithmetic on the
    lanes it rejects, with the error of its first failing lane, naming
    every lane that fails it.
    """
    if isinstance(z, np.ndarray):
        return _weierstrass_lanes(z, inv)
    p, dp, zeta = _weierstrass_lanes(np.array([z], dtype=float), inv)
    return float(p[0]), float(dp[0]), float(zeta[0])


def _weierstrass_lanes(z: np.ndarray, inv: EllipticInvariants):
    g2, r0 = inv.g2, inv.seed_radius
    jets.raise_where(~np.isfinite(z), None, "non-finite argument",
                     NonFiniteError)
    sign = np.where(z < 0.0, -1.0, 1.0)   # P even, P' and zeta odd
    zs = np.abs(z)
    jets.raise_where(zs < 1e-8, None, "argument at the origin pole",
                     PoleError)
    m = np.zeros(len(z), dtype=int)
    while (live := np.flatnonzero(zs > r0)).size:
        zs[live] *= 0.5
        m[live] += 1
        jets.raise_where(m > 60, None, "halving did not converge",
                         NonFiniteError)
    p, dp, zeta = _series_eval(zs, inv.laurent)
    for step in range(int(m.max(initial=0))):
        live = np.flatnonzero(m > step)   # a finished lane sits out
        pl, dpl = p[live], dp[live]
        try:
            jets.raise_where(np.abs(dpl) < 1e-12 * (1.0 + np.abs(pl) ** 1.5),
                             None, "duplication hit a half-period: target "
                             "is a pole", PoleError)
            ppp = 6.0 * pl * pl - 0.5 * g2          # P''
            a = ppp / (2.0 * dpl)
            aprime = (12.0 * pl * dpl * dpl - ppp * ppp) / (2.0 * dpl * dpl)
            zeta[live] = 2.0 * zeta[live] - a
            pl, dpl = a * a - 2.0 * pl, a * aprime - dpl
            p[live], dp[live] = pl, dpl
            jets.raise_where(~(np.isfinite(pl) & np.isfinite(dpl)), None,
                             "overflow in duplication chain", NonFiniteError)
            jets.raise_where(np.abs(pl) > 1e12, None,
                             "value beyond pole guard", PoleError)
        except BLPError as exc:
            jets.name_lanes(exc, live, np.arange(len(z)))
            raise
    return p, sign * dp, sign * zeta


def weierstrass_series(z: float, inv: EllipticInvariants, order: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Local Taylor coefficients of (P, zeta) around a regular point z.

    P solves its own quartic (:attr:`EllipticInvariants.quartic`), so its
    tail comes from P'' = F'(P)/2 = 6 P^2 - g2/2
    (:meth:`QuarticODE.taylor`), and zeta' = P; feeds jet composition.
    """
    p, dp, zeta = weierstrass_p(z, inv)
    u = np.stack(inv.quartic.taylor(p, dp, order), axis=-1)
    return u, series.integral(u, zeta, order)


def _as_quartic(q) -> QuarticODE:
    if isinstance(q, QuarticODE):
        return q
    return QuarticODE(*q)


def _ser_shift(c: np.ndarray, dz: float) -> np.ndarray:
    """Recenter each Taylor polynomial sum c_k s^k in the last axis of
    ``c`` to the point s = dz."""
    n = c.shape[-1] - 1
    out = c.copy()
    # repeated synthetic division by (s - dz)
    for i in range(n):
        for k in range(n - 1, i - 1, -1):
            out[..., k] += dz * out[..., k + 1]
    return out


#: the states of the P representation of a particular solution
_OK, _CROSSING, _POLE = 0, 1, 2


def quartic_particular_solution(q: QuarticODE, a: float):
    """Closed-form nonconstant solution of phi_z^2 = F(phi), via P.

    Requires F(a) >= 0 and a nondegenerate quartic.  The returned callable
    accepts a float, a 1-D array of floats (one per lane) or a
    :class:`Jet3`, single or batched, in which case the composition is
    carried out in jet arithmetic.

    The rational expression in (P, P') has removable 0/0 points wherever
    the solution crosses the value ``a``; inside a narrow band around
    those points the evaluation switches to a Taylor expansion anchored at
    a nearby safe argument, which keeps float64 cancellation in check.
    The lanes in that band run this search as one sub-batch.
    """
    return _quartic_solution(q, a)[0]


def _quartic_solution(q: QuarticODE, a: float):
    """The phi of :func:`quartic_particular_solution`,
    ``value_at(zv, p, dp)``: phi at lanes where (P, P') is already known,
    and the factors (D1, G1) of its 0/0 points at (p, dp)."""
    q = _as_quartic(q)
    inv = invariants_from_quartic(q)
    Fa = q.F(a)
    if Fa < 0.0:
        raise NegativeRadicand(f"F({a}) = {Fa} < 0")
    if abs(inv.discriminant) < 1e-12 * q.scale ** 6:
        raise DegenerateError("quartic has (nearly) multiple roots")
    sqrtFa = math.sqrt(Fa)
    Fp = q.F_prime(a)
    Fpp = q.F_second(a)
    d_scale = 1.0 + abs(Fpp) + 12.0 * sqrtFa
    g_scale = 1.0 + abs(Fp) + 4.0 * abs(a) * sqrtFa

    # The representation has removable 0/0 points where phi crosses the
    # value a.  Factored through D1 = 24 P - F'' - 12 sqrt(Fa) and
    # G1 = 4 P' + F' + 4 a sqrt(Fa),
    #     phi = a + 6 F'/D2 + 72 sqrt(Fa) (G1/D1) / D2,
    # or, with the mirror pair D2 = D1 + 24 sqrt(Fa) and
    # G2 = G1 - 2 F', phi = a + 6 F'/D1 + 72 sqrt(Fa) (G2/D2) / D1, the
    # cancellation is carried by the explicit ratio over the smaller D,
    # which stays well conditioned down to a tiny neighborhood of the
    # crossing.

    def _factors(p, dp, mirror=True):
        """(D1, D2, G1, G2) where (P, P') = (p, dp), lanes or jets; (D1,
        G1) alone without the ``mirror`` pair."""
        base = 24.0 * p - Fpp
        d1, g1 = base - 12.0 * sqrtFa, 4.0 * dp + Fp + 4.0 * a * sqrtFa
        if not mirror:
            return d1, g1
        return d1, base + 12.0 * sqrtFa, g1, 4.0 * dp - Fp + 4.0 * a * sqrtFa

    def _classify(p: np.ndarray, dp: np.ndarray) -> np.ndarray:
        """State of the representation in each lane where (P, P') = (p, dp)."""
        d1, d2, g1, g2 = _factors(p, dp)
        vsm = np.minimum(abs(d1), abs(d2))
        gsm = np.where(abs(d1) <= abs(d2), g1, g2)
        pole = (vsm < 1e-7 * d_scale) & (abs(gsm) > 1e-3 * g_scale)
        return np.select([pole, vsm < 1e-5 * d_scale], [_POLE, _CROSSING],
                         _OK)

    def _pick(first: np.ndarray, x: Jet3, y: Jet3) -> Jet3:
        """The jet ``x`` in the lanes where ``first`` holds, else ``y``."""
        return x.copy_with(np.where(first[:, None], x.coeffs, y.coeffs))

    def _assemble(p: Jet3, dp: Jet3) -> Jet3:
        d1, d2, g1, g2 = _factors(p, dp)
        first = abs(d1.value) <= abs(d2.value)
        small, big = _pick(first, d1, d2), _pick(first, d2, d1)
        gsm = _pick(first, g1, g2)
        return a + 6.0 * Fp / big + 72.0 * sqrtFa * (gsm / small) / big

    def _value_and_slope(zv, p, dp) -> tuple[np.ndarray, np.ndarray]:
        probe = lift_variable("x", Point(0.0, zv, 0.0), 1)
        pser = np.stack(inv.quartic.taylor(p, dp, 2), axis=-1)
        pj = apply_taylor(pser[:, :2], probe)
        dpj = apply_taylor(series.derivative(pser[:, :3]), probe)
        out = _assemble(pj, dpj)
        return out.value, out.extract((0, 1, 0))

    def _series(zv, n: int, p, dp) -> np.ndarray:
        """Taylor coefficients of phi at each lane's zv, where (P, P') =
        (p, dp), projected onto the invariant: (lanes, n + 1).

        The raw slope inherits P-evaluation noise amplified near the
        phi = a crossings; replacing it by +-sqrt(F(phi)) and rebuilding
        the tail from phi'' = F'(phi)/2 keeps every jet consistent with
        the defining first-order equation to roundoff.  Inside the tiny
        disk around a crossing the expansion anchors at a nearby argument
        and is recentred.
        """
        state = _classify(p, dp)
        jets.raise_where(state == _POLE, zv, "pole of the particular solution",
                         PoleError)
        out = np.empty((len(zv), n + 1))
        near = state == _CROSSING
        if near.any():
            try:
                out[near] = _anchored(zv[near], n)
            except BLPError as exc:  # raised on the lanes near a crossing
                jets.name_lanes(exc, np.flatnonzero(near), np.arange(len(zv)))
                raise
            zv, p, dp = zv[~near], p[~near], dp[~near]
        if not len(zv):
            return out
        v0, d_raw = _value_and_slope(zv, p, dp)
        fv = q.F(v0)
        d0 = np.where(fv > 0.0, np.copysign(np.sqrt(np.maximum(fv, 0.0)),
                                            d_raw), d_raw)
        out[~near] = np.stack(q.taylor(v0, d0, n), axis=-1)
        return out

    def _anchored(zv, n: int) -> np.ndarray:
        """:func:`_series` at lanes inside the band around a crossing, each
        expanded at the first safe argument of a fixed list of shifts."""
        out = np.empty((len(zv), n + 1))
        ids = todo = np.arange(len(zv))
        for shift in (0.01, -0.01, 0.03, -0.03, 0.08, -0.08):
            asked = todo
            try:  # each sub-batch names the lanes of zv it was asked for
                ps, dps, _ = weierstrass_p(zv[todo] + shift, inv)
                safe = _classify(ps, dps) == _OK
                asked = todo[safe]
                if len(asked):
                    c = _series(zv[asked] + shift, n + 8, ps[safe],
                                dps[safe])
                    out[asked] = _ser_shift(c, -shift)[:, : n + 1]
            except BLPError as exc:
                jets.name_lanes(exc, asked, ids)
                raise
            todo = todo[~safe]
            if not len(todo):
                return out
        jets.raise_where(np.isin(ids, todo), None,
                         "no safe expansion point near the crossing",
                         PoleError)

    def phi(z):
        # one P evaluation per argument: it both classifies and assembles
        jet = isinstance(z, Jet3)
        zv = z.value if jet else z
        p, dp, _ = weierstrass_p(zv, inv)
        ser = _series(np.atleast_1d(zv), max(int(z.order), 1) if jet else 0,
                      np.atleast_1d(p), np.atleast_1d(dp))
        if np.ndim(zv):
            return apply_taylor(ser, z) if jet else ser[:, 0]
        return apply_taylor(ser[0], z) if jet else float(ser[0, 0])

    def value_at(zv: np.ndarray, p: np.ndarray, dp: np.ndarray) -> np.ndarray:
        """phi at the lanes ``zv``, where (P, P') = (p, dp) is known."""
        return _series(zv, 0, p, dp)[:, 0]

    return phi, value_at, partial(_factors, mirror=False)


def quartic_square_integral(q: QuarticODE, a: float):
    """Phi2(z) = phi - 6 G1/D1 + 2 zeta(z) - a2 z, an antiderivative of
    phi^2 for phi = quartic_particular_solution(q, a) with a0 = 1, a1 = 0
    (Whittaker & Watson, *A Course of Modern Analysis*, ch. 20).

    Where |D1| <= |D2|, G1/D1 is read from phi itself, as
    ((phi - a) D2 - 6 F'(a)) / (72 sqrt(F(a))), so the 0/0 where phi
    crosses a never forms.  The callable takes a float, or a 1-D array of
    floats, one per lane, and each lane computes only its own form.
    """
    q = _as_quartic(q)
    if q.a0 != 1.0 or q.a1 != 0.0:
        raise ValueError("the closed form needs a0 = 1 and a1 = 0")
    _, phi_at, factors = _quartic_solution(q, a)
    inv = invariants_from_quartic(q)
    sqrtFa = math.sqrt(q.F(a))
    Fp = q.F_prime(a)

    def square_integral(z):
        zl = np.atleast_1d(np.asarray(z, dtype=float))
        p, dp, zeta = weierstrass_p(zl, inv)
        # phi from the same (P, P'): one P evaluation per argument
        value = phi_at(zl, p, dp)
        d1, g1 = factors(p, dp)
        # D2 rounded from D1, not the factors' own: Phi2's pinned values
        d2 = d1 + 24.0 * sqrtFa
        # G1/D1: each lane divides only in the form it uses
        via = (abs(d1) <= abs(d2)) & (sqrtFa > 0.0)
        own = ~via
        ratio = np.empty(len(zl))
        ratio[via] = ((value[via] - a) * d2[via] - 6.0 * Fp) / (72.0 * sqrtFa)
        ratio[own] = g1[own] / d1[own]
        total = value - 6.0 * ratio + 2.0 * zeta - q.a2 * zl
        return total if np.ndim(z) else float(total[0])

    return square_integral


@dataclass(frozen=True)
class DegenerateBranch:
    """One elementary-function branch phi = lam + g(z) of a degenerate
    quartic ODE, where S = g'/g solves S^2 = a g^2 + b g + c."""
    name: str
    g: Callable   # the offset phi - lam, of a float or a Jet3
    lam: float
    a: float
    b: float
    #: the sign of the logarithm's argument that is not identically 0;
    #: the two multiply to 4ac - b^2
    sigma: float

    def __call__(self, z):
        return self.g(z) + self.lam

    def square_integral(self, z):
        """An antiderivative of phi^2 at z, a float or a 1-D array of
        floats, one per lane, for a > 0: since S' = a g^2 + b g/2 and
        int g dz = int dg/S = I,

            int phi^2 = S/a + (2 lam - b/(2a)) I + lam^2 z,
            I = sigma ln|2 sqrt(a) S + sigma (2 a g + b)| / sqrt(a).

        Where the logarithm's argument is below the guard band of ``ln``
        the point is undefined (a :class:`jets.DomainError`).
        """
        gj = self.g(lift_variable("x", Point(0.0, z, 0.0), 1))
        g = gj.value
        s = gj.extract((0, 1, 0)) / g
        a, b, sigma = self.a, self.b, self.sigma
        root = math.sqrt(a)
        arg = abs(2.0 * root * s + sigma * (2.0 * a * g + b))
        jets.raise_where(jets.below_band(arg), arg,
                         "ln of non-positive value {}")
        log = np.log if isinstance(arg, np.ndarray) else math.log
        integral = sigma * log(arg) / root
        return (s / a + (2.0 * self.lam - b / (2.0 * a)) * integral
                + self.lam ** 2 * z)


#: the relative tolerance of a multiple root's certificate
DEGENERATE_TOL = 1e-10


def degenerate_solutions(q: QuarticODE, lam: float) -> list[DegenerateBranch]:
    """Elementary branches of phi_z^2 = F(phi) for a multiple real root lam.

    The caller supplies the root; its multiplicity certificate
    |F(lam)|, |F'(lam)| < DEGENERATE_TOL * scale is verified here.
    """
    q = _as_quartic(q)
    bound = DEGENERATE_TOL * (q.scale * (1.0 + abs(lam)) ** 4)
    if abs(q.F(lam)) > bound or abs(q.F_prime(lam)) > bound:
        raise NotDegenerate(
            f"root certificate failed: F={q.F(lam)}, F'={q.F_prime(lam)}")
    a = q.a0
    b = 4.0 * (q.a0 * lam + q.a1)
    c = 6.0 * (q.a0 * lam ** 2 + 2.0 * q.a1 * lam + q.a2)
    D = b * b - 4.0 * a * c
    small = DEGENERATE_TOL * q.scale
    branches: list[DegenerateBranch] = []

    # 2 sqrt(a) S + (2 a g + b) vanishes on the inverse-linear branch
    # and, where b^2 = 4ac with b > 0, on the exponential one; with b < 0
    # it is 2 sqrt(a) S - (2 a g + b) that vanishes there
    sigma = 1.0 if b < -small else -1.0

    def _branch(name, g):
        branches.append(DegenerateBranch(name, g, lam, a, b, sigma))

    if abs(c) <= small and abs(b) <= small:
        if a > small:
            root = 1.0 / math.sqrt(a)
            _branch("inverse_linear", lambda z: root / z)
    elif abs(c) <= small:
        _branch("rational", lambda z: 4.0 * b / (b * b * z * z - 4.0 * a))
    if c > small:
        rate = math.sqrt(c)

        def _exponential(z):
            E = jets.exp(rate * z)
            return 4.0 * c / (4.0 * E + D / E - 2.0 * b)
        _branch("exponential", _exponential)
    if c < -small and D > small:
        freq = math.sqrt(-c)
        sD = math.sqrt(D)
        _branch("trigonometric",
                lambda z: 2.0 * c / (sD * jets.sin(freq * z) - b))
    return branches
