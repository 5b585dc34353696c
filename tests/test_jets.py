import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blp import jets
from blp.jets import (
    DomainError, Jet3, Point, apply_unary, extract_partial, lift_variable, mul,
)
from conftest import central_diff


def test_lift_t():
    j = lift_variable("t", Point(2.0, 0.0, 0.0), 2)
    assert j.coeffs[0] == 2.0
    assert j.extract((1, 0, 0)) == 1.0
    assert np.count_nonzero(j.coeffs) == 2


def test_lift_x():
    j = lift_variable("x", Point(0.0, 3.0, 1.0), 1)
    assert j.value == 3.0
    assert j.extract((0, 1, 0)) == 1.0


def test_lift_y():
    j = lift_variable("y", Point(0.0, 0.0, -1.0), 3)
    assert j.value == -1.0
    assert j.extract((0, 0, 1)) == 1.0
    assert j.extract((0, 0, 2)) == 0.0


def test_mul_square_of_t():
    j = lift_variable("t", Point(2.0, 0.0, 0.0), 1)
    sq = mul(j, j)
    assert sq.value == 4.0
    # c100 stores the Taylor coefficient, equal to the derivative 2t = 4
    assert sq.extract((1, 0, 0)) == 4.0


def test_mul_identity():
    p = Point(0.3, -0.2, 0.9)
    a = apply_unary("sin", lift_variable("x", p, 4))
    one = Jet3.constant(1.0, p, 4)
    assert np.allclose((a * one).coeffs, a.coeffs)


def test_mul_sin_cos_against_finite_differences():
    p = Point(0.7, 0.0, 0.0)
    t = lift_variable("t", p, 3)
    prod = apply_unary("sin", t) * apply_unary("cos", t)

    def f(t, x, y):
        return math.sin(t) * math.cos(t)

    for m in [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)]:
        assert prod.extract(m) == pytest.approx(central_diff(f, p, m), abs=1e-7)


def test_base_order_mismatch():
    a = lift_variable("t", Point(0, 0, 0), 2)
    b = lift_variable("t", Point(1, 0, 0), 2)
    c = lift_variable("t", Point(0, 0, 0), 3)
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a + c


def test_exp_of_zero_jet():
    p = Point(0.0, 0.0, 0.0)
    e = apply_unary("exp", lift_variable("t", p, 2))
    assert e.value == 1.0
    assert e.coeffs[1] == 1.0          # first order along t
    assert e.extract((2, 0, 0)) == pytest.approx(1.0)   # true second partial
    assert e.coeffs[4] == pytest.approx(0.5)            # Taylor coefficient


def test_recip_pole():
    with pytest.raises(DomainError):
        apply_unary("recip", lift_variable("x", Point(0, 0, 0), 2))


def test_ln_against_finite_differences():
    p = Point(0.0, 0.0, 0.0)
    a = lift_variable("t", p, 3) + 2.0
    la = apply_unary("ln", a)

    def f(t, x, y):
        return math.log(t + 2.0)

    for m in [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)]:
        assert la.extract(m) == pytest.approx(central_diff(f, p, m), abs=1e-8)


def test_extract_xy_product():
    p = Point(0.0, 1.0, 1.0)
    v = lift_variable("x", p, 2) * lift_variable("y", p, 2)
    assert v.extract((0, 1, 1)) == 1.0


def test_extract_mixed_sin_tx():
    p = Point(0.7, 0.3, 0.0)
    s = apply_unary("sin", lift_variable("t", p, 3) * lift_variable("x", p, 3))
    t0, x0 = 0.7, 0.3
    exact = math.cos(t0 * x0) - t0 * x0 * math.sin(t0 * x0)
    assert s.extract((1, 1, 0)) == pytest.approx(exact, abs=1e-9)


def test_extract_beyond_order():
    j = lift_variable("t", Point(0, 0, 0), 2)
    with pytest.raises(ValueError):
        j.extract((2, 1, 0))


UNARIES = ["exp", "ln", "sin", "cos", "tan", "sinh", "cosh", "sqrt", "recip"]

_FLOAT_FN = {
    "exp": math.exp, "ln": math.log, "sin": math.sin, "cos": math.cos,
    "tan": math.tan, "sinh": math.sinh, "cosh": math.cosh,
    "sqrt": math.sqrt, "recip": lambda v: 1.0 / v,
}

_SAFE_BASE = {
    # base values inside each function's domain, away from singularities
    "exp": [-1.2, 0.4], "ln": [0.5, 2.3], "sin": [-0.8, 1.1],
    "cos": [-0.8, 1.1], "tan": [-0.6, 0.9], "sinh": [-1.0, 0.7],
    "cosh": [-1.0, 0.7], "sqrt": [0.7, 2.1], "recip": [-1.4, 0.8],
}


@pytest.mark.parametrize("name", UNARIES)
def test_unary_partials_match_finite_differences(name):
    for v in _SAFE_BASE[name]:
        p = Point(v, 0.1, -0.2)
        # composite argument exercising all three axes
        arg = (lift_variable("t", p, 3)
               + 0.3 * lift_variable("x", p, 3) * lift_variable("y", p, 3))
        out = apply_unary(name, arg)
        fn = _FLOAT_FN[name]

        def f(t, x, y):
            return fn(t + 0.3 * x * y)

        for m in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0),
                  (1, 1, 0), (0, 1, 1), (1, 1, 1), (3, 0, 0)]:
            got = out.extract(m)
            want = central_diff(f, p, m)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-6), (name, v, m)


def test_pow_and_abs_signed():
    p = Point(1.3, 0.0, 0.0)
    t = lift_variable("t", p, 3)
    h = apply_unary(("pow", 1.5), t)

    def f(t, x, y):
        return t ** 1.5

    for m in [(1, 0, 0), (2, 0, 0), (3, 0, 0)]:
        assert h.extract(m) == pytest.approx(central_diff(f, p, m), abs=1e-6)

    neg = apply_unary("abs_signed", lift_variable("t", Point(-2.0, 0, 0), 2))
    assert neg.value == 2.0
    assert neg.extract((1, 0, 0)) == -1.0
    with pytest.raises(DomainError):
        apply_unary("abs_signed", lift_variable("t", Point(0.0, 0, 0), 2))


def test_integer_pow_negative_base():
    t = lift_variable("t", Point(-1.5, 0, 0), 3)
    cube = t ** 3
    assert cube.value == pytest.approx((-1.5) ** 3)
    assert cube.extract((1, 0, 0)) == pytest.approx(3 * 1.5 ** 2)


@st.composite
def rational_jets(draw, order=3):
    p = Point(0.25, -0.5, 0.75)
    n = jets.jet_size(order)
    vals = draw(st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=8),
        min_size=n, max_size=n))
    return Jet3(p, order, np.array([float(v) for v in vals]))


@settings(max_examples=60, deadline=None)
@given(rational_jets(), rational_jets(), rational_jets())
def test_ring_axioms(a, b, c):
    # 4-ulp accumulation relative to the L1 product bound, which controls
    # every intermediate convolution term
    ulp = 4 * np.finfo(float).eps
    s = [1.0 + np.sum(np.abs(j.coeffs)) for j in (a, b, c)]

    def close(u, v, scale):
        assert np.all(np.abs(u.coeffs - v.coeffs) <= ulp * scale)

    close((a * b) * c, a * (b * c), s[0] * s[1] * s[2])
    close(a * (b + c), a * b + a * c, s[0] * (s[1] + s[2]))
    close(a * b, b * a, s[0] * s[1])


def test_chain_rule_first_order():
    p = Point(0.9, 0.2, -0.3)
    a = (lift_variable("t", p, 2) * lift_variable("x", p, 2)
         + lift_variable("y", p, 2))
    f = apply_unary("exp", a)
    for m in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
        assert f.extract(m) == pytest.approx(
            math.exp(a.value) * a.extract(m), rel=1e-14)


def test_derive_matches_extract():
    p = Point(0.4, 0.8, -0.6)
    u = apply_unary("sin", lift_variable("t", p, 4) * lift_variable("x", p, 4))
    ux = u.derive("x")
    assert ux.extract((1, 0, 0)) == pytest.approx(u.extract((1, 1, 0)), rel=1e-12)
    assert ux.value == pytest.approx(u.extract((0, 1, 0)), rel=1e-12)


def test_compose3_recovers_affine_substitution():
    # F(t,x,y) = sin(t*x) + y composed with an affine reparameterization
    outer = Point(0.5, 0.25, -0.75)
    F = apply_unary("sin", lift_variable("t", outer, 4) * lift_variable("x", outer, 4)) \
        + lift_variable("y", outer, 4)
    base = Point(1.0, 2.0, 3.0)
    jt = 0.5 * lift_variable("t", base, 4) * 0 + Jet3.constant(0.5, base, 4)
    jt = Jet3.constant(0.5, base, 4) + 0 * lift_variable("t", base, 4)
    # inner maps: t = tau/2, x = xi/8, y = eta - 3.75 at (tau,xi,eta)=(1,2,3)
    jt = lift_variable("t", base, 4) * 0.5
    jx = lift_variable("x", base, 4) * 0.125
    jy = lift_variable("y", base, 4) - 3.75
    comp = jets.compose3(F.coeffs, 4, jt, jx, jy)

    def f(tau, xi, eta):
        return math.sin((tau / 2) * (xi / 8)) + (eta - 3.75)

    for m in [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0), (0, 0, 1)]:
        assert comp.extract(m) == pytest.approx(
            central_diff(f, base, m), rel=1e-6, abs=1e-7)


def test_last_point_truncates_evicts_and_never_keeps_errors():
    calls = []

    def f(p, n):
        calls.append((p, n))
        if p.x < 0:
            raise DomainError("negative x")
        t, x, y = jets.coordinate_jets(p, n)
        return jets.exp(x * y) * jets.sin(t + x) / (1.0 + y * y)

    g = jets.last_point(f)
    assert jets.last_point(g) is g
    p, q = Point(0.3, 0.5, 0.7), Point(0.4, 0.5, 0.7)
    g(p, 6)
    lower = [g(p, n) for n in range(7)]
    assert len(calls) == 1
    for n, jet in enumerate(lower):
        assert jet.order == n and jet.base == p
        assert np.array_equal(jet.coeffs, f(p, n).coeffs)
    calls.clear()
    g(q, 2)
    g(p, 2)
    g(p, 3)
    g(p, 1)
    assert calls == [(q, 2), (p, 2), (p, 3)]
    bad = Point(0.3, -0.5, 0.7)
    for _ in range(2):
        with pytest.raises(DomainError):
            g(bad, 2)
    assert calls[-2:] == [(bad, 2), (bad, 2)]
    g(p, 1)  # the failed point left the jet at p in place
    assert len(calls) == 5


def _derive_by_monomial_loop(a: Jet3, which: str) -> np.ndarray:
    """Jet3.derive as a loop over monomials, the reference for the
    gather-and-scale implementation."""
    axis = {"t": 0, "x": 1, "y": 2}[which]
    src = jets._tables(a.order)
    dst = jets._tables(a.order - 1)
    out = np.zeros(dst.size)
    for m, e in enumerate(src.exps):
        if e[axis] == 0:
            continue
        e2 = list(e)
        e2[axis] -= 1
        out[dst.index[tuple(e2)]] = e[axis] * a.coeffs[m]
    return out


@pytest.mark.parametrize("order", range(1, 9))
def test_derive_gather_matches_monomial_loop(order):
    rng = np.random.default_rng(order)
    size = jets.jet_size(order)
    coeffs = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 9, size)
    a = Jet3(Point(0.3, -0.2, 0.5), order, coeffs)
    for which in "txy":
        d = a.derive(which)
        assert d.order == order - 1 and d.base == a.base
        assert np.array_equal(d.coeffs, _derive_by_monomial_loop(a, which))
