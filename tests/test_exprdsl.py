import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blp import catalog, exprdsl, jets
from blp.exprdsl import Bin, Call, Num, ParseError, Var, eval_jet, parse
from blp.jets import DomainError, Point
from conftest import central_diff


def test_parse_valid_tree():
    e = parse("2*t + sin(t)^2", "t")
    assert isinstance(e, Bin) and e.op == "+"
    assert isinstance(e.right, Bin) and e.right.op == "^"
    assert e(0.5) == pytest.approx(1.0 + math.sin(0.5) ** 2)


def test_parse_error_position():
    with pytest.raises(ParseError) as ei:
        parse("y*(", "y")
    assert ei.value.position == 3


def test_unknown_identifier():
    with pytest.raises(ParseError):
        parse("exp(x+t)", "t")


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse("2t", "t")


def test_empty_source():
    with pytest.raises(ParseError):
        parse("   ", "t")


def test_precedence_and_associativity():
    assert parse("2^3^2", "t")(0.0) == 512.0
    assert parse("-2^2", "t")(0.0) == -4.0
    assert parse("2^-1", "t")(0.0) == 0.5
    assert parse("1 - 2 - 3", "t")(0.0) == -4.0
    assert parse("8/4/2", "t")(0.0) == 1.0
    assert parse("pi", "t")(0.0) == math.pi


def test_eval_jet_square():
    j = eval_jet(parse("t^2", "t"), "t", Point(3.0, 0.0, 0.0), 1)
    assert j.value == 9.0
    assert j.extract((1, 0, 0)) == pytest.approx(6.0)


def test_eval_jet_pole():
    e = parse("1/(1+y)", "y")
    with pytest.raises(DomainError):
        eval_jet(e, "y", Point(0.0, 0.0, -1.0), 2)


def test_eval_jet_constant_in_other_axes():
    j = eval_jet(parse("sin(2*y)", "y"), "y", Point(0.3, 0.7, 0.4), 3)
    assert j.extract((1, 0, 0)) == 0.0
    assert j.extract((0, 1, 0)) == 0.0

    def f(t, x, y):
        return math.sin(2 * y)

    p = Point(0.3, 0.7, 0.4)
    for m in [(0, 0, 1), (0, 0, 2), (0, 0, 3)]:
        assert j.extract(m) == pytest.approx(central_diff(f, p, m), abs=1e-7)


ROUND_TRIP_CASES = [
    "t", "-t", "1.5", "t + 2", "t - 2 - 3", "2*t + sin(t)^2",
    "exp(-t^2/4)", "sqrt(abs(t - 1))", "1/(t^2 + 1)", "-(t + 1)*(t - 1)",
    "t^-2", "cos(t)*sinh(t) - tan(t/2)", "ln(t + 3)^2", "2^t^2",
    "-t^2", "(-t)^2", "t/(2*(t + 1))",
]


@pytest.mark.parametrize("src", ROUND_TRIP_CASES)
def test_print_parse_round_trip(src):
    e = parse(src, "t")
    assert parse(e.pretty(), "t") == e


@st.composite
def random_exprs(draw, depth=0):
    if depth > 3:
        choice = draw(st.integers(0, 1))
    else:
        choice = draw(st.integers(0, 4))
    v = "t"
    if choice == 0:
        return Num(float(draw(st.integers(-9, 9))), v)
    if choice == 1:
        return Var(v)
    if choice == 2:
        return exprdsl.Neg(draw(random_exprs(depth=depth + 1)), v)
    if choice == 3:
        op = draw(st.sampled_from("+-*/^"))
        left = draw(random_exprs(depth=depth + 1))
        right = draw(random_exprs(depth=depth + 1))
        if op == "^":
            right = Num(float(draw(st.integers(0, 3))), v)
        return Bin(op, left, right, v)
    fn = draw(st.sampled_from(exprdsl._FUNCTIONS))
    return Call(fn, draw(random_exprs(depth=depth + 1)), v)


@settings(max_examples=120, deadline=None)
@given(random_exprs())
def test_round_trip_random_trees(e):
    # constructed trees normalize once through the parser; after that,
    # print -> parse is the identity
    normal = parse(e.pretty(), "t")
    assert parse(normal.pretty(), "t") == normal


def test_diff_polynomial():
    e = parse("t^3 - 2*t", "t")
    d = e.diff()
    for v in [-1.0, 0.25, 2.0]:
        assert d(v) == pytest.approx(3 * v * v - 2)


def test_diff_chain_rules():
    for src, dsrc in [
        ("sin(t^2)", lambda v: 2 * v * math.cos(v * v)),
        ("exp(3*t)", lambda v: 3 * math.exp(3 * v)),
        ("ln(t + 2)", lambda v: 1 / (v + 2)),
        ("sqrt(t + 1)", lambda v: 0.5 / math.sqrt(v + 1)),
        ("tan(t)", lambda v: 1 + math.tan(v) ** 2),
        ("abs(t)", lambda v: math.copysign(1.0, v)),
        ("cosh(t)*sinh(t)", lambda v: math.cosh(2 * v)),
    ]:
        d = parse(src, "t").diff()
        for v in [-0.7, 0.4, 1.3]:
            assert d(v) == pytest.approx(dsrc(v), rel=1e-12), src


def test_never_nan_on_domain_violation():
    cases = ["ln(t)", "sqrt(t)", "1/t", "t^0.5", "abs(t)"]
    for src in cases:
        e = parse(src, "t")
        with pytest.raises(DomainError):
            e(0.0) if src != "ln(t)" else e(-1.0)


def test_subst_composes():
    outer = parse("t^2 + 1", "t")
    inner = parse("sin(s)", "s")
    comp = outer.subst(inner)
    assert comp(0.3) == pytest.approx(math.sin(0.3) ** 2 + 1)


def test_jet_valued_exponent():
    # constant base with a jet exponent routes through exp(r ln a)
    e = parse("3^t", "t")
    j = eval_jet(e, "t", Point(0.5, 0.0, 0.0), 2)
    assert j.value == pytest.approx(3.0 ** 0.5, rel=1e-12)
    assert j.extract((1, 0, 0)) == pytest.approx(
        math.log(3.0) * 3.0 ** 0.5, rel=1e-10)
    # jet base with jet exponent
    e2 = parse("t^t", "t")
    j2 = eval_jet(e2, "t", Point(1.5, 0.0, 0.0), 1)
    assert j2.value == pytest.approx(1.5 ** 1.5, rel=1e-12)
    assert j2.extract((1, 0, 0)) == pytest.approx(
        1.5 ** 1.5 * (math.log(1.5) + 1.0), rel=1e-10)


# ----------------------------------------------------------------------
# univariate eval_jet against the expression evaluated on a lifted variable
# ----------------------------------------------------------------------

def _trivariate(e, which, p, order):
    return exprdsl._eval(e, jets.lift_variable(which, p, order))


#: the parameter functions of the transform chains, and a variable exponent
_MORE_Y_EXPRESSIONS = ["sin(y)", "y", "2+sin(y)", "1+0.2*y^2", "2^y"]
_DIFFERENTIAL_CASES = (
    [(src, "y") for src in catalog._Y_POOL]
    + [(src, "t") for src in catalog._T_POOL]
    + [(src, "y") for src in _MORE_Y_EXPRESSIONS]
    + [(src, "t") for src in ROUND_TRIP_CASES])


@pytest.mark.parametrize("src, which", _DIFFERENTIAL_CASES)
def test_univariate_eval_jet_matches_trivariate(src, which):
    e = parse(src, which)
    for value in (-0.7, 0.4, 1.3):
        p = Point(value, value - 0.2, value + 0.3)
        for order in range(9):
            try:
                want = _trivariate(e, which, p, order)
            except DomainError:
                with pytest.raises(DomainError):
                    eval_jet(e, which, p, order)
                continue
            got = eval_jet(e, which, p, order)
            assert got.order == order and got.base == p
            assert np.max(np.abs(got.coeffs - want.coeffs)) <= \
                1e-14 * np.max(np.abs(want.coeffs)), (src, value, order)


@pytest.mark.parametrize("src, at", [
    ("ln(y)", 0.0), ("ln(y)", -0.5), ("1/(y-1)", 1.0), ("tan(y)", math.pi / 2),
    ("y^-1", 0.0), ("y^0.5", -0.5), ("(-2)^y", 0.3),
])
def test_univariate_eval_jet_domain_errors(src, at):
    e = parse(src, "y")
    p = Point(0.1, 0.2, at)
    for order in (0, 3, 8):
        with pytest.raises(DomainError):
            _trivariate(e, "y", p, order)
        with pytest.raises(DomainError):
            eval_jet(e, "y", p, order)
