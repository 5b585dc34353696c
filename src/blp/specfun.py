"""Weierstrass elliptic functions and quartic first-order ODEs.

Supports integrating autonomous equations

    phi_z^2 = F(phi) = a0 phi^4 + 4 a1 phi^3 + 6 a2 phi^2 + 4 a3 phi + a4

on the real line: in terms of the Weierstrass P-function when F has no
multiple roots, and in elementary functions otherwise.

P is evaluated on real, pole-free arguments by summing its Laurent series
on a small seed disc and extending with the duplication formula.  The
series constants (Laurent coefficients and seed radius) depend only on
(g2, g3), so they are computed once per :class:`EllipticInvariants` and
shared by every evaluation on that lattice.  The
companion zeta function here follows the convention zeta' = P (so
zeta ~ -1/z near the origin), which is the sign the reduced-equation
antiderivatives use.  Additive constants in zeta shift the reconstructed
v-field by a constant, which is itself a symmetry of the system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .jets import BLPError, Jet3, apply_taylor

__all__ = [
    "EllipticInvariants", "QuarticODE", "PoleError", "NonFiniteError",
    "NegativeRadicand", "DegenerateError", "NotDegenerate",
    "invariants_from_quartic", "weierstrass_p", "weierstrass_series",
    "quartic_particular_solution", "degenerate_solutions",
    "DegenerateBranch",
]


class PoleError(BLPError, ArithmeticError):
    """Argument too close to a lattice point of P."""


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
    """Coefficients c_k with P(z) = 1/z^2 + sum_{k>=2} c_k z^(2k-2)."""
    c = np.zeros(_N_LAURENT + 1)
    if _N_LAURENT >= 2:
        c[2] = g2 / 20.0
    if _N_LAURENT >= 3:
        c[3] = g3 / 28.0
    for k in range(4, _N_LAURENT + 1):
        acc = 0.0
        for m in range(2, k - 1):
            acc += c[m] * c[k - m]
        c[k] = 3.0 * acc / ((2 * k + 1) * (k - 3))
    return c


def _seed_radius(g2: float, g3: float) -> float:
    scale = max(abs(g2) ** 0.25, abs(g3) ** (1.0 / 6.0), 1e-30)
    return min(0.5, 0.35 / scale)


def _series_eval(z: float, c: tuple[float, ...]):
    z2 = z * z
    p = 1.0 / z2
    dp = -2.0 / (z2 * z)
    zeta = -1.0 / z
    zpow = z2  # z^(2k-2) starting at k=2
    for k in range(2, len(c)):
        ck = c[k]
        p += ck * zpow
        dp += ck * (2 * k - 2) * zpow / z
        zeta += ck * zpow * z / (2 * k - 1)
        zpow *= z2
    return p, dp, zeta


def weierstrass_p(z: float, inv: EllipticInvariants
                  ) -> tuple[float, float, float]:
    """(P(z), P'(z), zeta(z)) with zeta' = P; real pole-free arguments only."""
    g2 = inv.g2
    if not math.isfinite(z):
        raise NonFiniteError("non-finite argument")
    sign = 1.0
    if z < 0.0:  # P even, P' and zeta odd
        z, sign = -z, -1.0
    if z < 1e-8:
        raise PoleError("argument at the origin pole")
    r0 = inv.seed_radius
    m = 0
    zs = z
    while zs > r0:
        zs *= 0.5
        m += 1
        if m > 60:
            raise NonFiniteError("halving did not converge")
    p, dp, zeta = _series_eval(zs, inv.laurent)
    for _ in range(m):
        if abs(dp) < 1e-12 * (1.0 + abs(p) ** 1.5):
            raise PoleError("duplication hit a half-period: target is a pole")
        ppp = 6.0 * p * p - 0.5 * g2          # P''
        a = ppp / (2.0 * dp)
        aprime = (12.0 * p * dp * dp - ppp * ppp) / (2.0 * dp * dp)
        zeta = 2.0 * zeta - a
        p2 = a * a - 2.0 * p
        dp = a * aprime - dp
        p = p2
        if not (math.isfinite(p) and math.isfinite(dp)):
            raise NonFiniteError("overflow in duplication chain")
        if abs(p) > 1e12:
            raise PoleError("value beyond pole guard")
    return p, sign * dp, sign * zeta


def weierstrass_series(z: float, inv: EllipticInvariants, order: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Local Taylor coefficients of (P, zeta) around a regular point z.

    Generated from the values at z via the differential relations
    P'' = 6 P^2 - g2/2 and zeta' = P; feeds jet composition.
    """
    p, dp, zeta = weierstrass_p(z, inv)
    n = order
    u = _p_series(p, dp, inv.g2, n)
    zser = np.zeros(n + 1)
    zser[0] = zeta
    for k in range(1, n + 1):
        zser[k] = u[k - 1] / k
    return u[: n + 1], zser


def _p_series(p: float, dp: float, g2: float, n: int) -> np.ndarray:
    """Taylor coefficients 0..n+2 of P from its value and slope there.

    The tail follows from P'' = 6 P^2 - g2/2.
    """
    u = np.zeros(n + 3)
    u[0], u[1] = p, dp
    for k in range(0, n + 1):
        conv = float(np.dot(u[: k + 1], u[k::-1]))
        rhs = 6.0 * conv - (0.5 * g2 if k == 0 else 0.0)
        u[k + 2] = rhs / ((k + 2) * (k + 1))
    return u


def _as_quartic(q) -> QuarticODE:
    if isinstance(q, QuarticODE):
        return q
    return QuarticODE(*q)


def _ser_shift(c: np.ndarray, dz: float) -> np.ndarray:
    """Recenter a Taylor polynomial sum c_k s^k to the point s = dz."""
    n = len(c) - 1
    out = c.copy()
    # repeated synthetic division by (s - dz)
    for i in range(n):
        for k in range(n - 1, i - 1, -1):
            out[k] += dz * out[k + 1]
    return out


def quartic_particular_solution(q: QuarticODE, a: float):
    """Closed-form nonconstant solution of phi_z^2 = F(phi), via P.

    Requires F(a) >= 0 and a nondegenerate quartic.  The returned callable
    accepts a float or a :class:`Jet3`, in which case the composition is
    carried out in jet arithmetic.

    The rational expression in (P, P') has removable 0/0 points wherever
    the solution crosses the value ``a``; inside a narrow band around
    those points the evaluation switches to a Taylor expansion anchored at
    a nearby safe argument, which keeps float64 cancellation in check.
    """
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
    # G1 = 4 P' + F' + 4 a sqrt(Fa) (and the D2/G2 mirror pair),
    #     phi = a + 6 F'/D2 + 72 sqrt(Fa) (G1/D1) / D2,
    # the cancellation is carried by the explicit ratio G1/D1, which stays
    # well conditioned down to a tiny neighborhood of the crossing.

    def _classify(p: float, dp: float) -> str:
        """State of the representation where (P, P') = (p, dp)."""
        d1 = 24.0 * p - Fpp - 12.0 * sqrtFa
        d2 = 24.0 * p - Fpp + 12.0 * sqrtFa
        vsm = min(abs(d1), abs(d2))
        gsm = (4.0 * dp + Fp + 4.0 * a * sqrtFa) if abs(d1) <= abs(d2) \
            else (4.0 * dp - Fp + 4.0 * a * sqrtFa)
        if vsm < 1e-7 * d_scale and abs(gsm) > 1e-3 * g_scale:
            return "pole"
        if vsm < 1e-5 * d_scale:
            return "crossing"
        return "ok"

    def _assemble(p, dp):
        base = 24.0 * p - Fpp
        d1 = base - 12.0 * sqrtFa
        d2 = base + 12.0 * sqrtFa
        g1 = 4.0 * dp + Fp + 4.0 * a * sqrtFa
        g2 = 4.0 * dp - Fp + 4.0 * a * sqrtFa
        v1 = abs(d1.value) if isinstance(d1, Jet3) else abs(d1)
        v2 = abs(d2.value) if isinstance(d2, Jet3) else abs(d2)
        small, big = (d1, d2) if v1 <= v2 else (d2, d1)
        gsm = g1 if v1 <= v2 else g2
        fsgn = 1.0 if v1 <= v2 else -1.0
        return a + 6.0 * fsgn * Fp / big \
            + 72.0 * sqrtFa * (gsm / small) / big

    def _value_and_slope(zv: float, p: float, dp: float
                         ) -> tuple[float, float]:
        from .jets import Point, lift_variable
        probe = lift_variable("x", Point(0.0, zv, 0.0), 1)
        pser = _p_series(p, dp, inv.g2, 0)
        pj = apply_taylor(pser[:2], probe)
        dpj = apply_taylor(np.array([(k + 1) * pser[k + 1]
                                     for k in range(2)]), probe)
        out = _assemble(pj, dpj)
        return out.value, out.extract((0, 1, 0))

    def _series(zv: float, n: int, p: float, dp: float) -> np.ndarray:
        """Taylor coefficients of phi at zv, where (P, P') = (p, dp),
        projected onto the invariant.

        The raw slope inherits P-evaluation noise amplified near the
        phi = a crossings; replacing it by +-sqrt(F(phi)) and rebuilding
        the tail from phi'' = F'(phi)/2 keeps every jet consistent with
        the defining first-order equation to roundoff.  Inside the tiny
        disk around a crossing the expansion anchors at a nearby argument
        and is recentred.
        """
        state = _classify(p, dp)
        if state == "pole":
            raise PoleError("pole of the particular solution")
        if state == "crossing":
            for shift in (0.01, -0.01, 0.03, -0.03, 0.08, -0.08):
                ps, dps, _ = weierstrass_p(zv + shift, inv)
                if _classify(ps, dps) == "ok":
                    c = _series(zv + shift, n + 8, ps, dps)
                    return _ser_shift(c, -shift)[: n + 1]
            raise PoleError("no safe expansion point near the crossing")
        v0, d_raw = _value_and_slope(zv, p, dp)
        fv = q.F(v0)
        d0 = math.copysign(math.sqrt(max(fv, 0.0)), d_raw) \
            if fv > 0.0 else d_raw
        c = np.zeros(max(n + 1, 2))
        c[0], c[1] = v0, d0
        for k in range(n - 1):
            head = c[: k + 2]
            sq = np.convolve(head, head)[: k + 1]
            cub = np.convolve(sq, head)[: k + 1]
            fp_k = (4.0 * q.a0 * cub[k] + 12.0 * q.a1 * sq[k]
                    + 12.0 * q.a2 * c[k] + (4.0 * q.a3 if k == 0 else 0.0))
            c[k + 2] = 0.5 * fp_k / ((k + 2) * (k + 1))
        return c[: n + 1]

    def phi(z):
        # one P evaluation per argument: it both classifies and assembles
        zv = z.value if isinstance(z, Jet3) else z
        p, dp, _ = weierstrass_p(zv, inv)
        if isinstance(z, Jet3):
            return apply_taylor(_series(zv, max(z.order, 1), p, dp), z)
        state = _classify(p, dp)
        if state == "pole":
            raise PoleError("pole of the particular solution")
        if state == "crossing":
            return float(np.polynomial.polynomial.polyval(
                0.0, _series(z, 0, p, dp)))
        return _assemble(p, dp)

    return phi


@dataclass(frozen=True)
class DegenerateBranch:
    """One elementary-function branch of a degenerate quartic ODE."""
    name: str
    make: "object"     # factory (C, eps) -> callable phi(z)
    default: "object"  # callable with the default constants

    def __call__(self, z):
        return self.default(z)


def degenerate_solutions(q: QuarticODE, lam: float,
                         tol: float = 1e-10) -> list[DegenerateBranch]:
    """Elementary branches of phi_z^2 = F(phi) for a multiple real root lam.

    The caller supplies the root; its multiplicity certificate
    |F(lam)|, |F'(lam)| < tol * scale is verified here.
    """
    q = _as_quartic(q)
    scale = q.scale * (1.0 + abs(lam)) ** 4
    if abs(q.F(lam)) > tol * scale or abs(q.F_prime(lam)) > tol * scale:
        raise NotDegenerate(
            f"root certificate failed: F={q.F(lam)}, F'={q.F_prime(lam)}")
    a = q.a0
    b = 4.0 * (q.a0 * lam + q.a1)
    c = 6.0 * (q.a0 * lam ** 2 + 2.0 * q.a1 * lam + q.a2)
    D = b * b - 4.0 * a * c
    small = tol * q.scale
    branches: list[DegenerateBranch] = []

    def _inv_linear(C=0.0, eps=1.0):
        root = eps / math.sqrt(a)

        def phi(z):
            return root / (z + C) + lam
        return phi

    def _rational(C=0.0, eps=1.0):
        def phi(z):
            w = z + C
            return 4.0 * b / (b * b * w * w - 4.0 * a) + lam
        return phi

    def _exponential(C=1.0, eps=1.0):
        r = math.sqrt(c)

        def phi(z):
            from . import jets as _j
            E = _j.exp(eps * r * z)
            return 4.0 * c / (4.0 * C * E + (D / C) / E - 2.0 * b) + lam
        return phi

    def _trigonometric(C=0.0, eps=1.0):
        r = math.sqrt(-c)
        sD = math.sqrt(D)

        def phi(z):
            from . import jets as _j
            return 2.0 * c / (eps * sD * _j.sin(r * z + C) - b) + lam
        return phi

    if abs(c) <= small and abs(b) <= small:
        if a > small:
            branches.append(DegenerateBranch(
                "inverse_linear", _inv_linear, _inv_linear()))
    elif abs(c) <= small:
        branches.append(DegenerateBranch("rational", _rational, _rational()))
    if c > small:
        branches.append(DegenerateBranch(
            "exponential", _exponential, _exponential()))
    if c < -small and D > small:
        branches.append(DegenerateBranch(
            "trigonometric", _trigonometric, _trigonometric()))
    return branches
