import dataclasses
import math
import warnings

import numpy as np
import pytest

from blp import jets, specfun, system
from blp.jets import Jet3, Point
from blp.specfun import (
    DegenerateError, EllipticInvariants, NegativeRadicand, NonFiniteError,
    NotDegenerate, PoleError, QuarticODE, degenerate_solutions,
    invariants_from_quartic, quartic_particular_solution, weierstrass_p,
    weierstrass_series,
)


def quartic_from_reduction(C0, delta, C2):
    """F(phi) = phi^4 + 2 C0 phi^2 + 4 delta phi + C2 in normalized form."""
    return QuarticODE(1.0, 0.0, C0 / 3.0, delta, C2)


def test_invariants_example():
    inv = invariants_from_quartic(QuarticODE(1, 0, 1, 1, 2))
    assert inv.g2 == 5.0
    assert inv.g3 == 0.0
    assert inv.discriminant == 125.0


def test_invariants_zero():
    inv = invariants_from_quartic(QuarticODE(0, 0, 0, 0, 0))
    assert (inv.g2, inv.g3, inv.discriminant) == (0.0, 0.0, 0.0)


def test_invariants_reduction_identity(rng):
    # g2 = C2 + C0^2/3, g3 = C0 C2/3 - C0^3/27 - delta^2
    for _ in range(50):
        C0, delta, C2 = rng.uniform(-3, 3, size=3)
        inv = invariants_from_quartic(quartic_from_reduction(C0, delta, C2))
        assert inv.g2 == pytest.approx(C2 + C0 ** 2 / 3.0, abs=1e-12)
        assert inv.g3 == pytest.approx(
            C0 * C2 / 3.0 - C0 ** 3 / 27.0 - delta ** 2, abs=1e-12)


def test_invariants_equality_hash_repr_unchanged():
    # the series constants are derived data: (g2, g3, discriminant) alone
    # decide equality, hashing and repr
    a, b = EllipticInvariants(2.0, -0.3), EllipticInvariants(2.0, -0.3)
    disc = 2.0 ** 3 - 27.0 * (-0.3) ** 2
    assert a == b and a is not b
    assert a != EllipticInvariants(2.0, 0.3)
    assert hash(a) == hash(b) == hash((2.0, -0.3, disc))
    assert {a: 1}[b] == 1
    assert repr(a) == f"EllipticInvariants(g2=2.0, g3=-0.3, " \
        f"discriminant={disc!r})"


def _p_rebuilding_constants(z, inv):
    """P, P', zeta with the series constants rebuilt on every call."""
    g2, g3 = inv.g2, inv.g3
    if not math.isfinite(z):
        raise NonFiniteError("non-finite argument")
    sign = 1.0
    if z < 0.0:
        z, sign = -z, -1.0
    if z < 1e-8:
        raise PoleError("argument at the origin pole")
    r0 = specfun._seed_radius(g2, g3)
    m = 0
    zs = z
    while zs > r0:
        zs *= 0.5
        m += 1
        if m > 60:
            raise NonFiniteError("halving did not converge")
    c = specfun._laurent_coeffs(g2, g3)
    p, dp, zeta = specfun._series_eval(zs, c)
    for _ in range(m):
        if abs(dp) < 1e-12 * (1.0 + abs(p) ** 1.5):
            raise PoleError("duplication hit a half-period: target is a pole")
        ppp = 6.0 * p * p - 0.5 * g2
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


def _outcome(fn, *args):
    try:
        return tuple(repr(float(v)) for v in fn(*args))
    except ArithmeticError as exc:
        return type(exc).__name__, str(exc)


_INVARIANTS = [(0.0, 0.0), (5.0, 0.0), (2.2, 0.7), (3.1, 0.6), (1.7, -0.6),
               (1.0 / 3.0 + 3.0, 1.0 - 1.0 / 27.0), (1e-6, 0.0),
               (40.0, -25.0)]
_ARGUMENTS = [float(z) for z in np.concatenate(
    [np.linspace(-3.0, 3.0, 61), [1e-9, 0.013, 7.5, math.inf]])]


def test_p_bit_identical_with_shared_constants():
    for g2, g3 in _INVARIANTS:
        inv = EllipticInvariants(g2, g3)
        for z in _ARGUMENTS:
            assert _outcome(weierstrass_p, z, inv) == \
                _outcome(_p_rebuilding_constants, z, inv), (g2, g3, z)


def test_p_over_an_array_is_each_argument_alone():
    # bit for bit where an argument is defined; a batch with an undefined
    # lane raises that lane's class and message
    for g2, g3 in _INVARIANTS:
        inv = EllipticInvariants(g2, g3)
        alone = {z: _outcome(weierstrass_p, z, inv) for z in _ARGUMENTS}
        good = [z for z in _ARGUMENTS if len(alone[z]) == 3]
        batch = weierstrass_p(np.array(good), inv)
        assert [tuple(repr(float(v[i])) for v in batch)
                for i in range(len(good))] == [alone[z] for z in good]
        for z in set(_ARGUMENTS) - set(good):
            lanes = np.array([good[0], z, good[-1]])
            assert _outcome(weierstrass_p, lanes, inv) == alone[z], z


def test_p_batch_raises_as_its_first_rejected_lane():
    # as jets.raise_where: the non-finite check runs before the origin
    # check, so a batch with lanes that fail either raises the first
    # check's error, whatever the lane order; no arithmetic runs on a
    # rejected lane, so the lane at 0 divides nothing by zero
    inv = EllipticInvariants(5.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in ([0.5, 0.0, math.inf], [0.5, math.inf, 0.0]):
            with pytest.raises(NonFiniteError, match="non-finite"):
                weierstrass_p(np.array(z), inv)
        with pytest.raises(PoleError, match="origin pole"):
            weierstrass_p(np.array([0.5, 0.0, 2.0]), inv)


def test_phi_evaluates_p_once_per_argument(monkeypatch):
    seen = []
    real = specfun.weierstrass_p

    def counted(z, inv):
        seen.append(z)
        return real(z, inv)

    monkeypatch.setattr(specfun, "weierstrass_p", counted)
    phi = quartic_particular_solution(quartic_from_reduction(1.0, 1.0, 3.0),
                                      0.0)
    # phi stays well away from a = 0 here, outside the crossing band
    for z in (0.3, 0.85, 1.0, 1.1, 1.15, 2.0):
        seen.clear()
        phi(z)
        assert seen == [z]
        seen.clear()
        phi(jets.lift_variable("x", Point(0.0, z, 0.0), 3))
        assert seen == [z]


def test_p_equianharmonic_degenerate_zero():
    # g2 = g3 = 0 collapses P to 1/z^2
    inv = EllipticInvariants(0.0, 0.0)
    p, dp, zeta = weierstrass_p(2.0, inv)
    assert p == pytest.approx(0.25, abs=1e-12)
    assert dp == pytest.approx(-0.25, abs=1e-12)
    assert zeta == pytest.approx(-0.5, abs=1e-12)


def test_p_defining_ode_residual():
    inv = EllipticInvariants(5.0, 0.0)
    for z in np.linspace(0.05, 2.5, 100):
        try:
            p, dp, _ = weierstrass_p(float(z), inv)
        except PoleError:
            continue
        res = dp * dp - (4.0 * p ** 3 - inv.g2 * p - inv.g3)
        assert abs(res) < 1e-9 * (1.0 + abs(p) ** 3)


def test_p_laurent_structure():
    # P(z) - 1/z^2 - g2 z^2/20 - g3 z^4/28 = O(z^6)
    inv = EllipticInvariants(1.7, -0.6)
    z = 1e-2
    p, _, _ = weierstrass_p(z, inv)
    rem = p - 1.0 / z ** 2 - inv.g2 * z ** 2 / 20.0 - inv.g3 * z ** 4 / 28.0
    assert abs(rem) < 1e-11


def test_p_even_zeta_odd():
    inv = EllipticInvariants(2.2, 0.7)
    for z in np.linspace(0.1, 3.0, 24):
        try:
            p1, dp1, z1 = weierstrass_p(float(z), inv)
            p2, dp2, z2 = weierstrass_p(float(-z), inv)
        except PoleError:
            continue
        assert p1 == pytest.approx(p2, abs=1e-10 * (1 + abs(p1)))
        assert z1 == pytest.approx(-z2, abs=1e-10 * (1 + abs(z1)))
        assert dp1 == pytest.approx(-dp2, abs=1e-10 * (1 + abs(dp1)))


def test_degenerate_limit_to_inverse_square():
    inv = EllipticInvariants(1e-6, 0.0)
    p, _, _ = weierstrass_p(1.0, inv)
    assert p == pytest.approx(1.0, abs=1e-4)


def test_zeta_prime_is_p():
    # h large enough that the ~1e-11 evaluation noise stays below truncation
    inv = EllipticInvariants(3.0, 0.4)
    h = 1e-4
    for z in [0.3, 0.9, 1.4]:
        _, _, zp = weierstrass_p(z + h, inv)
        _, _, zm = weierstrass_p(z - h, inv)
        p, _, _ = weierstrass_p(z, inv)
        assert (zp - zm) / (2 * h) == pytest.approx(p, rel=1e-6, abs=1e-6)


def test_weierstrass_series_consistency():
    inv = EllipticInvariants(2.0, -0.3)
    z0, dz = 0.8, 0.02
    pser, zser = weierstrass_series(z0, inv, 8)
    p_direct, dp_direct, zeta_direct = weierstrass_p(z0 + dz, inv)
    p_series = sum(pser[k] * dz ** k for k in range(9))
    z_series = sum(zser[k] * dz ** k for k in range(9))
    assert p_series == pytest.approx(p_direct, rel=1e-9)
    assert z_series == pytest.approx(zeta_direct, rel=1e-9)


def test_particular_solution_satisfies_ode():
    # phi' extracted from a jet evaluation; phi'^2 = F(phi) is the oracle
    q = quartic_from_reduction(1.0, 1.0, 3.0)
    phi = quartic_particular_solution(q, 0.0)
    checked = 0
    for z in np.linspace(0.1, 2.4, 50):
        p = Point(0.0, float(z), 0.0)
        try:
            out = phi(jets.lift_variable("x", p, 2))
        except PoleError:
            continue
        val = out.value
        d = out.extract((0, 1, 0))
        if abs(val) > 20:
            continue
        checked += 1
        assert d * d == pytest.approx(
            q.F(val), rel=1e-7, abs=1e-7), z
    assert checked > 30


def test_particular_solution_float_jet_agree():
    q = quartic_from_reduction(1.0, 1.0, 3.0)
    phi = quartic_particular_solution(q, 0.0)
    for z in np.linspace(0.15, 2.3, 40):
        p = Point(0.0, float(z), 0.0)
        try:
            fl = phi(float(z))
            out = phi(jets.lift_variable("x", p, 2))
        except PoleError:
            continue
        if abs(fl) > 20:
            continue
        assert fl == pytest.approx(out.value, rel=1e-8, abs=1e-8)


def test_particular_solution_mirror_form_is_the_same_solution():
    # C2 < 0 with F_R29_ELLIPTIC's a = 2|C0| + |C2| + 1 = 5: on
    # omega > ~0.3 |D1| > |D2|, and phi is assembled over D2; its float
    # values must still solve phi'^2 = F(phi) (central differences) and
    # match the D1 form wherever that one is well conditioned
    q = quartic_from_reduction(1.0, 1.0, -2.0)
    a = 5.0
    inv = invariants_from_quartic(q)
    phi = quartic_particular_solution(q, a)
    sF, Fp, Fpp = math.sqrt(q.F(a)), q.F_prime(a), q.F_second(a)
    h = 1e-6
    mirrored = 0
    for z in np.linspace(0.55, 1.15, 13):
        p, dp, _ = weierstrass_p(float(z), inv)
        d1 = 24.0 * p - Fpp - 12.0 * sF
        d2 = d1 + 24.0 * sF
        mirrored += abs(d1) > abs(d2)
        g1 = 4.0 * dp + Fp + 4.0 * a * sF
        assert phi(z) == pytest.approx(
            a + 6.0 * Fp / d2 + 72.0 * sF * g1 / d1 / d2, rel=1e-12)
        d = (phi(z + h) - phi(z - h)) / (2 * h)
        assert d * d == pytest.approx(q.F(phi(z)), rel=1e-5)
    assert mirrored == 13


def test_particular_solution_simplified_form():
    # C2 >= 0, a = 0 must reduce to the simple P, P' expression
    C0, delta, C2 = 0.7, 1.0, 2.0
    q = quartic_from_reduction(C0, delta, C2)
    inv = invariants_from_quartic(q)
    phi = quartic_particular_solution(q, 0.0)
    for z in [0.3, 0.8, 1.7]:
        p, dp, _ = weierstrass_p(z, inv)
        simple = 6.0 * (3.0 * math.sqrt(C2) * dp + delta * (6.0 * p - C0)) \
            / ((6.0 * p - C0) ** 2 - 9.0 * C2)
        assert phi(z) == pytest.approx(simple, rel=1e-10)


def test_particular_solution_jet_argument():
    q = quartic_from_reduction(1.0, 1.0, 3.0)
    phi = quartic_particular_solution(q, 0.0)
    p = Point(0.0, 0.4, 0.35)
    zj = jets.lift_variable("x", p, 3) + jets.lift_variable("y", p, 3)
    out = phi(zj)
    h = 1e-4
    w = 0.75
    d1 = (phi(w + h) - phi(w - h)) / (2 * h)
    assert out.value == pytest.approx(phi(w), rel=1e-11)
    assert out.extract((0, 1, 0)) == pytest.approx(d1, rel=1e-6)


def test_negative_radicand():
    # F(phi) = phi^4 - 1 is negative at 0
    q = QuarticODE(1.0, 0.0, 0.0, 0.0, -1.0)
    with pytest.raises(NegativeRadicand):
        quartic_particular_solution(q, 0.0)


def test_degenerate_rejected_by_particular_solution():
    # (phi^2 - 1)^2 has double roots: discriminant 0
    q = QuarticODE(1.0, 0.0, -1.0 / 3.0, 0.0, 1.0)
    assert invariants_from_quartic(q).discriminant == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(DegenerateError):
        quartic_particular_solution(q, 2.0)


def test_degenerate_inverse_linear_only():
    # c = b = 0, a = 1, lam = 0: F = phi^4
    q = QuarticODE(1.0, 0.0, 0.0, 0.0, 0.0)
    branches = degenerate_solutions(q, 0.0)
    assert [b.name for b in branches] == ["inverse_linear"]
    phi = branches[0]
    for z in [0.5, 1.0, 2.0]:
        assert phi(z) == pytest.approx(1.0 / z)


def test_degenerate_branches_satisfy_ode():
    h = 1e-5
    cases = []
    # triple root at 1/2: the quartic behind the first elementary 2.9 branch
    cases.append((quartic_from_reduction(-0.75, 0.25, -3.0 / 16.0), 0.5))
    # double root pair: F = (phi^2-1)^2, lam = 1 -> c > 0 exponential branch
    cases.append((QuarticODE(1.0, 0.0, -1.0 / 3.0, 0.0, 1.0), 1.0))
    # c < 0 with D > 0: F = phi^4 - phi^2 = phi^2 (phi^2 - 1), lam = 0,
    # whose branch is phi = -eps/sin(z)
    cases.append((QuarticODE(1.0, 0.0, -1.0 / 6.0, 0.0, 0.0), 0.0))
    found_names = set()
    for q, lam in cases:
        branches = degenerate_solutions(q, lam)
        assert branches, (q, lam)
        for br in branches:
            found_names.add(br.name)
            checked = 0
            for z in np.linspace(-2.0, 2.7, 50):
                try:
                    val = br(float(z))
                    d = (br(z + h) - br(z - h)) / (2 * h)
                except (ArithmeticError, ZeroDivisionError, OverflowError):
                    continue
                if abs(val) > 1e4:
                    continue
                checked += 1
                assert d * d == pytest.approx(
                    q.F(val), rel=2e-6, abs=1e-8), (br.name, z)
            assert checked > 10, br.name
    assert {"rational", "exponential", "trigonometric"} <= found_names


@pytest.mark.parametrize("q,lam,name", [
    (quartic_from_reduction(-0.75, 0.25, -3.0 / 16.0), 0.5, "rational"),
    (QuarticODE(1.0, 0.0, -1.0 / 3.0, 0.0, 1.0), 1.0, "exponential"),
    (QuarticODE(1.0, 0.0, -1.0 / 6.0, 0.0, 0.0), 0.0, "trigonometric"),
    (QuarticODE(1.0, 0.0, 0.0, 0.0, 0.0), 0.0, "inverse_linear"),
    # F = phi^2 (phi + 1)^2: b^2 = 4ac at both roots, with b of either
    # sign, so one sign of the logarithm's argument vanishes identically
    (QuarticODE(1.0, 0.5, 1.0 / 6.0, 0.0, 0.0), 0.0, "exponential"),
    (QuarticODE(1.0, 0.5, 1.0 / 6.0, 0.0, 0.0), -1.0, "exponential"),
])
def test_degenerate_square_integral_matches_quadrature(q, lam, name):
    from blp.quadrature import adaptive_quadrature
    from conftest import per_node
    br, = (b for b in degenerate_solutions(q, lam) if b.name == name)
    checked = 0
    for z0, z1 in [(0.3, 0.6), (0.6, 1.1), (1.1, 1.8), (-0.7, -0.2),
                   (-1.9, -1.2)]:
        grid = np.linspace(z0, z1, 41)
        try:
            if max(abs(br(float(z))) for z in grid) > 50.0:
                continue  # a pole in or near the span
        except ArithmeticError:
            continue
        want = adaptive_quadrature(per_node(lambda s: br(s) ** 2), z0, z1)
        got = br.square_integral(z1) - br.square_integral(z0)
        assert got == pytest.approx(want, abs=1e-12, rel=1e-12), (z0, z1)
        checked += 1
    assert checked >= 3


def test_degenerate_square_integral_is_undefined_where_its_log_vanishes():
    # F = phi^2 (phi + 1)^2 at lam = 0: with the other sign sigma the
    # logarithm's argument vanishes identically
    q = QuarticODE(1.0, 0.5, 1.0 / 6.0, 0.0, 0.0)
    br, = (b for b in degenerate_solutions(q, 0.0) if b.name == "exponential")
    vanishing = dataclasses.replace(br, sigma=-br.sigma)
    assert math.isfinite(br.square_integral(0.7))
    for z in (0.7, np.array([0.3, 0.7])):
        with pytest.raises(jets.DomainError,
                           match=r"^ln of non-positive value 0\.0$"):
            vanishing.square_integral(z)
    # so a grid report skips those points
    field = system.SolutionField(
        u=lambda p, n: Jet3.constant(0.0, p, n),
        v=lambda p, n: Jet3.constant(vanishing.square_integral(p.x), p, n),
        coords="UV")
    grid = [Point(1.0, x, 0.5) for x in (0.3, 0.7, 1.1)]
    assert system.residual_report(field, grid).skipped == 3


def test_simple_root_not_degenerate():
    q = quartic_from_reduction(1.0, 1.0, 3.0)
    # phi = 1 is not even a root
    with pytest.raises(NotDegenerate):
        degenerate_solutions(q, 1.0)


def test_homogeneity_law():
    # P(lam z; g2/lam^4, g3/lam^6) = P(z; g2, g3)/lam^2, and zeta scales
    # by 1/lam: an independent structural identity of the lattice scaling
    base = EllipticInvariants(2.4, -0.7)
    for lam in (0.5, 1.3, 2.0):
        scaled = EllipticInvariants(base.g2 / lam ** 4, base.g3 / lam ** 6)
        for z in (0.35, 0.8, 1.4):
            p1, dp1, z1 = weierstrass_p(z, base)
            p2, dp2, z2 = weierstrass_p(lam * z, scaled)
            assert p2 == pytest.approx(p1 / lam ** 2, rel=1e-9, abs=1e-10)
            assert dp2 == pytest.approx(dp1 / lam ** 3, rel=1e-9, abs=1e-10)
            assert z2 == pytest.approx(z1 / lam, rel=1e-9, abs=1e-10)


def test_addition_theorem():
    # P(u+v) = ((P'(u)-P'(v))/(2(P(u)-P(v))))^2 - P(u) - P(v) for u != v
    inv = EllipticInvariants(3.1, 0.6)
    for (u, v) in [(0.3, 0.5), (0.45, 0.9), (0.25, 1.1)]:
        pu, du, _ = weierstrass_p(u, inv)
        pv, dv, _ = weierstrass_p(v, inv)
        ps, _, _ = weierstrass_p(u + v, inv)
        rhs = ((du - dv) / (2.0 * (pu - pv))) ** 2 - pu - pv
        assert ps == pytest.approx(rhs, rel=1e-8, abs=1e-9)


# ----------------------------------------------------------------------
# the closed-form antiderivative of phi^2
# ----------------------------------------------------------------------

def _counting_weierstrass_p(monkeypatch) -> list:
    """A list that records one entry for each call of ``weierstrass_p``."""
    calls, original = [], specfun.weierstrass_p

    def counted(z, inv):
        calls.append(np.size(z))
        return original(z, inv)
    monkeypatch.setattr(specfun, "weierstrass_p", counted)
    return calls


def test_square_integral_evaluates_p_once_per_argument(monkeypatch):
    # one batched v of F_R29_ELLIPTIC: phi's series at omega, then Phi2,
    # which reads phi from its own (P, P') instead of asking phi again
    from blp import catalog
    field = catalog.instantiate("F_R29_ELLIPTIC", {})
    p = Point(np.array([0.2, 0.5, 0.9]), np.array([0.3, 0.4, 0.5]),
              np.array([0.35, 0.45, 0.6]))
    calls = _counting_weierstrass_p(monkeypatch)
    field.v(p, 2)
    assert calls == [3, 3]
    calls.clear()
    square_integral = specfun.quartic_square_integral(
        quartic_from_reduction(1.0, 1.0, 3.0), 0.0)
    square_integral(np.array([0.3, 0.55, 0.85]))
    assert calls == [3]


#: Phi2 at _PHI2_POINTS, bit for bit, as phi evaluated apart gave it
_PHI2_POINTS = [-0.6, -1e-3, 0.3, 0.55, 0.85, 1.1, 1.4]
_PHI2_BITS = {
    # (C0, delta, C2, a): G1/D1 read from phi at every point
    (1.0, 1.0, 3.0, 0.0): [
        "-0x1.a86d8da9a5fa4p-2", "-0x1.1314c756c0000p-30",
        "0x1.5ce2f7b19749cp-6", "0x1.ce58049a12cd0p-4",
        "0x1.88f0fd21e318ep-2", "0x1.cb186057e6decp-1",
        "0x1.834cb6d33d158p+1"],
    # the mirror form: read from phi at -1e-3 only, its own form elsewhere
    (1.0, 1.0, -2.0, 5.0): [
        "0x1.9c671cc7065f0p+3", "0x1.3e643b83260b4p+2",
        "0x1.f33b1877cdfb1p+2", "0x1.0809092beae78p+3",
        "0x1.0d371a5ad768dp+3", "0x1.0ee4eec4c9a85p+3",
        "0x1.10c1759b0e8e3p+3"],
}


@pytest.mark.parametrize("C0, delta, C2, a", list(_PHI2_BITS))
def test_square_integral_values_are_unchanged(C0, delta, C2, a):
    q = quartic_from_reduction(C0, delta, C2)
    inv = invariants_from_quartic(q)
    zs = np.array(_PHI2_POINTS)
    p, _, _ = weierstrass_p(zs, inv)
    d1 = 24.0 * p - q.F_second(a) - 12.0 * math.sqrt(q.F(a))
    via = abs(d1) <= abs(d1 + 24.0 * math.sqrt(q.F(a)))
    assert via.all() if a == 0.0 else via.tolist() == [
        False, True, False, False, False, False, False]
    square_integral = specfun.quartic_square_integral(q, a)
    want = [float.fromhex(h) for h in _PHI2_BITS[(C0, delta, C2, a)]]
    assert square_integral(zs).tolist() == want
    assert [square_integral(z) for z in _PHI2_POINTS] == want
