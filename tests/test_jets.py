import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blp import jets
from blp.exprdsl import parse
from blp.jets import (
    DomainError, Jet3, Point, apply_unary, lift_variable,
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


@pytest.mark.parametrize("order", [0, 3, 6])
def test_coordinate_jets_are_the_lifted_variables(order):
    p = Point(0.3, -0.7, 1.1)
    for axis, jet in zip("txy", jets.coordinate_jets(p, order)):
        lifted = lift_variable(axis, p, order)
        assert jet.base == p and jet.order == order
        assert jet.coeffs.tobytes() == lifted.coeffs.tobytes()
    with pytest.raises(ValueError):
        jets.coordinate_jets(Point(0.3, math.inf, 1.1), order)


def test_mul_square_of_t():
    j = lift_variable("t", Point(2.0, 0.0, 0.0), 1)
    sq = j * j
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


@pytest.mark.parametrize("p", [Point(0.7, -0.3, 0.45),
                               Point(np.array([0.7, 0.9, 1.1]), -0.3, 0.45)],
                         ids=["single", "lanes"])
def test_numpy_scalars_combine_as_an_int_does(p):
    x = 0.2 + 1.3 * jets.coordinate_jets(p, 4)[1]
    for expr in (lambda k: k * x, lambda k: x * k, lambda k: x + k,
                 lambda k: k - x, lambda k: x / k):
        want = expr(2).coeffs.tobytes()
        for k in (np.int64(2), np.int32(2), np.uint8(2), np.float64(2.0),
                  np.array(2.0), np.array(2)):
            assert expr(k).coeffs.tobytes() == want


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
    # F(t,x,y) = sin(t*x) + y composed with the triangular affine map
    # t = tau/2, x = xi/8 + tau/4, y = eta - 3.75 at (tau,xi,eta) = (1,2,3)
    outer = Point(0.5, 0.5, -0.75)
    F = apply_unary("sin", lift_variable("t", outer, 4) * lift_variable("x", outer, 4)) \
        + lift_variable("y", outer, 4)
    base = Point(1.0, 2.0, 3.0)
    # offsets: dt = s/2, dx = s/4 + r/8, dy = w
    pt = np.diag(0.5 ** np.arange(5))
    alpha = np.array([0.0, 0.25, 0.0, 0.0, 0.0])
    beta = np.array([0.125, 0.0, 0.0, 0.0, 0.0])
    M = jets.compose3(pt, alpha, beta, np.eye(5))
    comp = Jet3(base, 4, M @ F.coeffs)

    def f(tau, xi, eta):
        return math.sin((tau / 2) * (xi / 8 + tau / 4)) + (eta - 3.75)

    for m in [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0), (0, 0, 1),
              (2, 0, 0), (3, 1, 0)]:
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


# ----------------------------------------------------------------------
# degree recurrences against Horner on closed-form Taylor coefficients
# ----------------------------------------------------------------------

def _taylor_coefficients(f, v: float, n: int) -> np.ndarray:
    """f^(k)(v) / k! for k = 0..n, from the closed forms of the derivatives."""
    k = np.arange(n + 1)
    fact = np.array([math.factorial(i) for i in k], dtype=float)
    if f == "exp":
        return math.exp(v) / fact
    if f == "ln":
        c = np.empty(n + 1)
        c[0] = math.log(v)
        c[1:] = (-1.0) ** (k[1:] - 1) / (k[1:] * v ** k[1:])
        return c
    if f in ("sin", "cos"):
        cycle = [math.sin(v), math.cos(v), -math.sin(v), -math.cos(v)]
        first = 0 if f == "sin" else 1
        return np.array([cycle[(first + i) % 4] for i in k]) / fact
    if f in ("sinh", "cosh"):
        cycle = [math.sinh(v), math.cosh(v)]
        first = 0 if f == "sinh" else 1
        return np.array([cycle[(first + i) % 2] for i in k]) / fact
    if f == "tan":
        # d^k tan / dv^k = P_k(tan v) with P_0(T) = T, P_k+1 = (1 + T^2) P_k'
        poly, out = np.array([0.0, 1.0]), []
        for i in k:
            out.append(np.polynomial.polynomial.polyval(math.tan(v), poly))
            poly = np.polynomial.polynomial.polymul(
                [1.0, 0.0, 1.0], np.polynomial.polynomial.polyder(poly))
        return np.array(out) / fact
    if f == "recip":
        return (-1.0) ** k / v ** (k + 1)
    r = 0.5 if f == "sqrt" else float(f[1])
    falling = np.cumprod([1.0] + [r - j for j in range(n)])
    return falling / fact * v ** (r - k)


RECURRENCES = ["exp", "ln", "sin", "cos", "tan", "sinh", "cosh", "sqrt",
               "recip", ("pow", -2), ("pow", -0.5), ("pow", 1.5), ("pow", 3)]


def _random_jets(order: int, seed: int, count: int = 6):
    rng = np.random.default_rng([order, seed])
    p = Point(0.3, -0.2, 0.5)
    for _ in range(count):
        c = rng.uniform(-1.0, 1.0, jets.jet_size(order))
        c[0] = rng.uniform(0.05, 3.0)
        yield Jet3(p, order, c)


def _assert_matches(got: np.ndarray, ref: np.ndarray):
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("f", RECURRENCES, ids=str)
def test_recurrences_match_horner(f):
    for order in range(9):
        for a in _random_jets(order, RECURRENCES.index(f)):
            ref = jets.apply_taylor(_taylor_coefficients(f, a.value, order), a)
            _assert_matches(apply_unary(f, a).coeffs, ref.coeffs)


def test_division_matches_horner_reciprocal():
    for order in range(9):
        for a, b in zip(_random_jets(order, 100), _random_jets(order, 101)):
            recip_b = jets.apply_taylor(
                _taylor_coefficients("recip", b.value, order), b)
            _assert_matches((a / b).coeffs, (a * recip_b).coeffs)
            _assert_matches((2.5 / b).coeffs, 2.5 * recip_b.coeffs)


@pytest.mark.parametrize("f, value, message", [
    ("ln", 0.0, "ln of non-positive value"),
    ("ln", -1.0, "ln of non-positive value"),
    ("sqrt", 0.5e-12, "sqrt of non-positive value"),
    ("recip", 0.0, "reciprocal of"),
    ("recip", -0.5e-12, "reciprocal of"),
    ("tan", math.pi / 2, "tan evaluated at"),
    (("pow", -1), 0.0, "negative integer power"),
    (("pow", 0.5), -0.25, "non-integer power of non-positive value"),
    (("pow", 1.5), 0.0, "non-integer power of non-positive value"),
    ("abs_signed", 0.0, "abs_signed is undefined"),
])
def test_guards_read_the_value(f, value, message):
    for order in (0, 4, 8):
        a = next(_random_jets(order, 7, count=1))
        c = a.coeffs.copy()
        c[0] = value
        with pytest.raises(DomainError, match=message):
            apply_unary(f, a.copy_with(c))


def test_division_guard_and_integer_powers_at_zero():
    for order in (0, 4, 8):
        a = next(_random_jets(order, 8, count=1))
        c = a.coeffs.copy()
        c[0] = 0.0
        zero = a.copy_with(c)
        with pytest.raises(DomainError, match="jet division"):
            a / zero
        # nonnegative integer powers are products: defined at value 0
        assert np.array_equal(apply_unary(("pow", 2), zero).coeffs,
                              (zero * zero).coeffs)
        assert apply_unary(("pow", 0), zero).coeffs[0] == 1.0


def test_float_over_jet_uses_the_division_rule():
    # |b| < 1e-12 (1 + |a|) as for float/float and jet/jet division; the
    # reciprocal's own rule |b| < 1e-12 lets 5e-10 through
    from blp.exprdsl import parse
    p = Point(0.1, 0.2, 0.3)
    with pytest.raises(DomainError, match="jet division"):
        1000.0 / Jet3.constant(5e-10, p, 2)
    with pytest.raises(DomainError):
        parse("1000/t", "t")(5e-10)
    with pytest.raises(DomainError):
        Jet3.constant(1000.0, p, 2) / Jet3.constant(5e-10, p, 2)
    # outside the band the value is the product with the reciprocal
    b = Jet3.constant(2e-9, p, 2)
    assert np.array_equal((1000.0 / b).coeffs,
                          (1000.0 * apply_unary("recip", b)).coeffs)


def _around(edge: float) -> list[float]:
    """``edge``, its float neighbours and points farther on either side."""
    return [edge, np.nextafter(edge, -math.inf), np.nextafter(edge, math.inf),
            0.5 * edge, 2.0 * edge]


def _raises(fn) -> bool:
    try:
        fn()
    except DomainError:
        return True
    return False


_G = jets.GUARD
_AT_GUARD_EDGES = {
    "exp": [0.0, -1.0, 1.0], "sin": [0.0, 1.0], "cos": [0.0, 1.0],
    "sinh": [0.0, -1.0], "cosh": [0.0, 1.0],
    "ln": [0.0, -1.0] + _around(_G), "sqrt": [0.0, -1.0] + _around(_G),
    "recip": [0.0] + _around(_G) + _around(-_G),
    "abs_signed": [0.0] + _around(_G) + _around(-_G),
    "tan": [math.pi / 2 + k * _G for k in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0)],
    ("pow", -1): [0.0] + _around(_G) + _around(-_G),
    ("pow", -2): [0.0] + _around(_G) + _around(-_G),
    ("pow", 0.5): [0.0, -0.25] + _around(_G),
    ("pow", 1.5): [0.0] + _around(_G),
    ("pow", 2): [0.0, -1.0, 0.5 * _G],
}


@pytest.mark.parametrize("f", list(_AT_GUARD_EDGES), ids=str)
def test_float_and_jet_forms_raise_at_the_same_values(f):
    if isinstance(f, tuple):
        def float_form(v):
            return jets.power(v, f[1])
    else:
        float_form = getattr(jets, f)
    for v in _AT_GUARD_EDGES[f]:
        jet = Jet3.constant(float(v), Point(0.3, -0.2, 0.5), 4)
        assert _raises(lambda: float_form(float(v))) \
            == _raises(lambda: apply_unary(f, jet)), (f, v)


def test_float_and_jet_division_raise_at_the_same_values():
    p = Point(0.3, -0.2, 0.5)
    for a in (0.0, 3.0, -250.0):
        edge = _G * (1.0 + abs(a))
        quotient = parse(f"{a!r}/t", "t")
        for b in _around(edge) + _around(-edge) + [0.0]:
            num, den = Jet3.constant(a, p, 3), Jet3.constant(b, p, 3)
            by_float = _raises(lambda: quotient(b))
            assert _raises(lambda: num / den) == by_float, (a, b)
            assert _raises(lambda: num / b) == by_float, (a, b)
