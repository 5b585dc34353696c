"""Truncation keys: a capped jet keeps the full jet's coefficients, bit for
bit, through every jet operation, for single points and for lanes."""

import numpy as np
import pytest

from blp import (catalog, exprdsl, jets, reductions, series, specfun,
                 transforms)
from blp.exprdsl import parse, eval_jet
from blp.jets import Jet3, Point
from blp.quadrature import integrate_field_along, line_integral

ORDER = 5
#: keys of ORDER: one cap at 0, caps inside the order, and two caps
KEYS = [jets.cap(ORDER, "x", 0), jets.cap(ORDER, "t", 1),
        jets.cap(ORDER, "y", 2), jets.cap(jets.cap(ORDER, "t", 1), "y", 0)]
SINGLE = Point(0.7, -0.3, 0.45)
LANES = Point(np.array([0.7, 0.9, 1.1]), -0.3, np.array([0.45, 0.2, 0.6]))


def same_bits(capped: Jet3, full: Jet3):
    assert capped.coeffs.tobytes() == \
        full.truncate(capped.order).coeffs.tobytes()


def _operands(p, n):
    t, x, y = jets.coordinate_jets(p, n)
    a = jets.sin(t * y) * jets.exp(0.3 * x) + x * x * y + 1.7
    b = 2.0 + jets.cos(x - 0.4 * t * y) + 0.3 * y * y  # no zero near p
    return a, b


_UNARY = ["exp", "ln", "sin", "cos", "tan", "sinh", "cosh", "sqrt", "recip",
          "abs_signed", ("pow", 2.5), ("pow", 3), ("pow", -2)]
_OPS = {
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "add_sub": lambda a, b: 3.0 - (a + b) - a,
    "rdiv": lambda a, b: 1.5 / b,
    **{f"unary_{f}": (lambda f: lambda a, b: jets.apply_unary(f, b))(f)
       for f in _UNARY},
    "restrict_y": lambda a, b: jets.restrict(a * b, "y", a.base),
    "apply_taylor": lambda a, b: jets.apply_taylor(
        np.array([0.5, -1.0, 0.25, 2.0, -0.75, 0.1, 0.3]), a),
}


@pytest.mark.parametrize("p", [SINGLE, LANES], ids=["single", "lanes"])
@pytest.mark.parametrize("op", sorted(_OPS))
def test_capped_operations_keep_the_full_bits(op, p):
    full = _OPS[op](*_operands(p, ORDER))
    for key in KEYS:
        capped = _OPS[op](*_operands(p, key))
        assert capped.order is key
        same_bits(capped, full)


@pytest.mark.parametrize("p", [SINGLE, LANES], ids=["single", "lanes"])
def test_derive_truncate_and_meet_keep_the_full_bits(p):
    a, b = _operands(p, ORDER)
    for key in KEYS:
        ca, _ = _operands(p, key)
        assert ca.truncate(key) is ca
        for axis in "txy":
            if jets._caps(key)["txy".index(axis)]:
                same_bits(ca.derive(axis), a.derive(axis))
            # one order up in the axis, then down again: the same key
            up = _operands(p, jets.up(key, axis))[0].derive(axis)
            assert up.order is key
            same_bits(up, _operands(p, ORDER + 1)[0].derive(axis))
        # two keys of one order combine on their meet
        other = jets.cap(ORDER, "t", 0)
        meet = ca * b.truncate(other)
        assert meet.order is jets.cap(key, "t", 0)
        same_bits(meet, a * b)
        same_bits(ca.truncate(jets.cap(key, "x", 0)), a)


_BINARY = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
           "mul": lambda a, b: a * b, "div": lambda a, b: a / b}


@pytest.mark.parametrize("p", [SINGLE, LANES], ids=["single", "lanes"])
@pytest.mark.parametrize("op", sorted(_BINARY))
def test_two_keys_combine_on_their_meet(op, p):
    fn = _BINARY[op]
    a, b = _operands(p, ORDER)
    full = fn(a, b)
    other = jets.cap(ORDER, "t", 0)
    for key in KEYS:
        ca, cb = _operands(p, key)
        # the capped operand on either side, against a full jet and
        # against a jet of another key
        for got, meet in ((fn(ca, b), key), (fn(a, cb), key),
                          (fn(ca, b.truncate(other)), jets.cap(key, "t", 0)),
                          (fn(a.truncate(other), cb), jets.cap(key, "t", 0))):
            assert got.order is meet
            same_bits(got, full)


def test_an_axis_capped_at_zero_cannot_be_differentiated():
    a, _ = _operands(SINGLE, jets.cap(ORDER, "x", 0))
    with pytest.raises(ValueError, match="capped at 0"):
        a.derive("x")
    with pytest.raises(ValueError):
        a.extract((0, 1, 0))
    with pytest.raises(ValueError):  # a key is never raised by truncation
        a.truncate(ORDER)


def test_keys_are_interned_and_an_uncapped_key_is_an_int():
    k = jets.cap(ORDER, "x", 1)
    assert k is jets.cap(ORDER, "x", 1) and k == k and k != ORDER
    assert type(jets.cap(ORDER, "x", ORDER)) is int
    assert k + 2 == ORDER + 2 and type(k + 2) is int
    assert jets.up(k, "y") is jets.cap(ORDER + 1, "x", 1)
    assert jets.up(k, "x") is jets.cap(ORDER + 1, "x", 2)
    assert jets.up(ORDER, "x") == ORDER + 1
    assert jets.uncap(k, "x") == ORDER
    assert ORDER >= k and not k >= ORDER and ORDER + 1 > k


@pytest.mark.parametrize("p", [SINGLE, LANES], ids=["single", "lanes"])
@pytest.mark.parametrize("which", "txy")
def test_eval_jet_keeps_the_full_bits(which, p):
    e = parse(f"exp(0.3*{which})/(2 + sin({which}))", which)
    full = eval_jet(e, which, p, ORDER)
    for key in KEYS:
        same_bits(eval_jet(e, which, p, key), full)
    ser = jets.axis_series(full, which)
    same_bits(jets.axis_jet(ser, which, p).truncate(KEYS[0]), full)


def _bumps(p, n):
    # a Lorentzian bump on each axis, at 1.7, -0.2 and 0.7
    return sum(1.0 / (0.05 + (c - at) * (c - at))
               for c, at in zip(jets.coordinate_jets(p, n), (1.7, -0.2, 0.7)))


def _full_only(field):
    """``field`` asked at the full order of every key: the integrand of a
    quadrature whose abscissae ask every coefficient."""
    return lambda p, n: field(p, int(n))


@pytest.mark.parametrize("p", [SINGLE, LANES], ids=["single", "lanes"])
@pytest.mark.parametrize("axis", "txy")
def test_integrals_keep_the_full_bits(axis, p):
    full = integrate_field_along(_bumps, axis, -0.4, p, ORDER)
    # the abscissae ask the integration axis capped at 0, and read the
    # same bits as full jets of the integrand
    same_bits(full, integrate_field_along(_full_only(_bumps), axis, -0.4, p,
                                          ORDER))
    for key in KEYS:
        same_bits(integrate_field_along(_bumps, axis, -0.4, p, key), full)


def _symmetry_image():
    return transforms.apply_symmetry(
        transforms.d_transform("t + 0.35*sin(t)").compose(
            transforms.s_transform("2*y + 0.1*y^3")),
        catalog.instantiate("F_UEQV", {"alpha": "4+sin(y)"}))


@pytest.mark.parametrize("p", [Point(1.0, 0.6, 0.5),
                               Point(np.array([1.0, 1.1]), 0.6,
                                     np.array([0.5, 0.55]))],
                         ids=["single", "lanes"])
def test_symmetry_composition_keeps_the_full_bits(p):
    # t and y caps pass to the base field; an x cap does not
    full = _symmetry_image()
    u, v = full.u(p, ORDER), full.v(p, ORDER)
    for key in KEYS:
        image = _symmetry_image()
        same_bits(image.u(p, key), u)
        same_bits(image.v(p, key), v)


def _profile_field():
    q = specfun.QuarticODE(1.0, 0.0, 1.0 / 3.0, 1.0, 3.0)
    return reductions.reconstruct_2_9(
        specfun.quartic_particular_solution(q, 0.0),
        reductions.ReductionSpec(id="R2_9", C0=1.0, C1=0.0, C2=3.0,
                                 delta=1.0), omega0=0.85)


@pytest.mark.parametrize("make", [_symmetry_image, _profile_field],
                         ids=["symmetry_image", "reduced_profile"])
def test_x_leg_integrals_of_maps_that_drop_caps(make):
    # a symmetry image asks its base field without the x cap, and a
    # reduced profile reads its univariate series at the full order: an
    # x-leg integral of either equals the one whose abscissae ask full
    # jets, as every abscissa did before keys
    p = Point(np.array([0.6, 0.9]), 0.5, np.array([0.35, 0.45]))
    for q, component in ((p, "u"), (jets.lane(p, 1), "v")):
        got = integrate_field_along(getattr(make(), component), "x", 0.3,
                                    q, 3)
        want = integrate_field_along(_full_only(getattr(make(), component)),
                                     "x", 0.3, q, 3)
        assert got.coeffs.tobytes() == want.coeffs.tobytes()


def _counting(field):
    asked = []

    def counted(p, n):
        asked.append(n)
        return field(p, n)
    return counted, asked


def test_last_point_answers_only_keys_its_jet_covers():
    fn, asked = _counting(lambda p, n: _operands(p, n)[0])
    kept = jets.last_point(fn)
    capped = jets.cap(ORDER, "x", 0)
    full = kept(SINGLE, ORDER)
    same_bits(kept(SINGLE, capped), full)
    assert kept(SINGLE, capped).order is capped and asked == [ORDER]
    # a capped jet kept does not answer the full key
    kept(LANES, capped)
    kept(LANES, ORDER)
    assert asked == [ORDER, capped, ORDER]


def test_line_integral_answers_only_keys_its_lines_cover():
    def g(p, n):  # does not depend on x
        t, _, y = jets.coordinate_jets(p, n)
        return jets.exp(0.5 * t) * y
    counted, asked = _counting(g)
    integral = line_integral(counted, "t", 0.2, constant_along="x")
    p = Point(1.1, 0.3, 0.8)
    capped = jets.cap(ORDER, "y", 1)
    full = integral(p, ORDER)
    n_asked = len(asked)
    same_bits(integral(Point(1.1, -0.5, 0.8), capped), full)
    assert len(asked) == n_asked
    # a line kept capped is computed again for the full key
    q = Point(1.3, 0.3, 0.8)
    integral(q, capped)
    n_asked = len(asked)
    same_bits(integral(q, capped),
              integrate_field_along(g, "t", 0.2, q, ORDER))
    assert len(asked) == n_asked
    integral(Point(1.3, 0.0, 0.8), ORDER)
    assert len(asked) > n_asked


def test_orders_above_the_maximum_raise_a_typed_error():
    with pytest.raises(jets.OrderTooHigh, match=f"{jets.MAX_ORDER + 1}"):
        jets.coordinate_jets(SINGLE, jets.MAX_ORDER + 1)
    assert issubclass(jets.OrderTooHigh, jets.BadInput)
    assert jets.MAX_ORDER + 1 not in jets._TABLES


def test_negative_orders_raise():
    e = parse("sin(t) + t^2", "t")
    for make in (lambda: jets.coordinate_jets(SINGLE, -1),
                 lambda: jets.lift_variable("x", SINGLE, -1),
                 lambda: Jet3(SINGLE, -1, np.zeros(0)),
                 lambda: exprdsl.eval_series(e, 0.7, -1),
                 lambda: eval_jet(e, "t", SINGLE, -1),
                 lambda: eval_jet(e, "t", LANES, -1),
                 lambda: exprdsl.compose_series(e, np.zeros(0)),
                 lambda: series.univariate(-1)):
        with pytest.raises(ValueError, match="order must be >= 0"):
            make()
    assert -1 not in jets._TABLES
    assert -1 not in series._UNIVARIATE
