import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blp import catalog, exprdsl, jets
from blp.exprdsl import (Bin, Call, Num, ParseError, Var, _Tok, eval_jet,
                         eval_series, parse)
from blp.jets import BadInput, DomainError, Point
from conftest import central_diff, expr_nodes, jet_walk, unfolded_nodes


def test_parse_valid_tree():
    e = parse("2*t + sin(t)^2", "t")
    assert isinstance(e, Bin) and e.op == "+"
    assert isinstance(e.right, Bin) and e.right.op == "^"
    assert e(0.5) == pytest.approx(1.0 + math.sin(0.5) ** 2)


def test_parse_error_position():
    with pytest.raises(ParseError) as ei:
        parse("y*(", "y")
    assert ei.value.position == 3


def _old_tokenize(src):
    """The index loop that cut expression text before one compiled
    pattern did."""
    toks = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (src[j].isdigit()
                             or (src[j] == "." and not seen_dot)):
                if src[j] == ".":
                    seen_dot = True
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            toks.append(_Tok("num", src[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(_Tok("ident", src[i:j], i))
            i = j
            continue
        if c in "+-*/^":
            toks.append(_Tok("op", c, i))
            i += 1
            continue
        if c == "(":
            toks.append(_Tok("lparen", c, i))
            i += 1
            continue
        if c == ")":
            toks.append(_Tok("rparen", c, i))
            i += 1
            continue
        raise ParseError(i, f"unexpected character {c!r}")
    toks.append(_Tok("end", "", n))
    return toks


def _token_stream(tokenize, src):
    try:
        return tokenize(src)
    except ParseError as exc:
        return exc.position, exc.message


_ASCII_ALPHABET = "0123456789.eE+-*/^()xyt_ \t\n#,"


@pytest.mark.parametrize("alphabet", [
    _ASCII_ALPHABET, _ASCII_ALPHABET + "\xa0\u0663\u00b2\u00bd"],
    ids=["ascii", "unicode"])
def test_token_pattern_matches_the_reference_tokenizer(alphabet):
    # the streams, or the errors' positions and messages, are equal, but
    # where the text holds a numeral that is not a decimal digit (the
    # reference read a superscript two as a digit, then failed in float)
    rng = np.random.default_rng(7)
    for _ in range(20000):
        src = "".join(alphabet[i] for i in
                      rng.integers(len(alphabet), size=rng.integers(13)))
        if _token_stream(_old_tokenize, src) != \
                _token_stream(exprdsl._tokenize, src):
            assert any(c.isnumeric() and not c.isdecimal() for c in src), \
                repr(src)


@pytest.mark.parametrize("src, position", [("\u00b2", 0), ("y+\u00b2", 2),
                                           ("\u00bd*y", 0)])
def test_a_numeral_that_is_not_a_decimal_digit_is_a_parse_error(src,
                                                                position):
    with pytest.raises(ParseError) as ei:
        parse(src, "y")
    assert ei.value.position == position
    assert ei.value.message.startswith("unknown identifier")


def test_decimal_digits_of_any_script_read_as_numbers():
    assert parse("\u0663*y", "y").pretty() == "3.0*y"


@pytest.mark.parametrize("src, position", [("1e400", 0), ("2*1e400*y", 2)])
def test_a_literal_that_is_not_finite_is_a_parse_error(src, position):
    with pytest.raises(ParseError) as ei:
        parse(src, "y")
    assert (ei.value.position, ei.value.message) == \
        (position, "non-finite number '1e400'")


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
    j = eval_jet(parse("t^2", "t"), Point(3.0, 0.0, 0.0), 1)
    assert j.value == 9.0
    assert j.extract((1, 0, 0)) == pytest.approx(6.0)


def test_eval_jet_pole():
    e = parse("1/(1+y)", "y")
    with pytest.raises(DomainError):
        eval_jet(e, Point(0.0, 0.0, -1.0), 2)


def test_eval_jet_reads_the_axis_of_its_variable():
    assert eval_jet(parse("2*x", "x"), Point(0.1, 0.5, 0.9), 1).extract(
        (0, 1, 0)) == 2.0
    with pytest.raises(BadInput, match="'s'"):
        eval_jet(parse("sin(s)", "s"), Point(0.1, 0.5, 0.9), 2)


def test_as_expr_refuses_a_tree_of_another_variable():
    e = parse("sin(t)", "t")
    assert exprdsl.as_expr(e, "t") is e
    with pytest.raises(BadInput, match="expression of y"):
        exprdsl.as_expr(e, "y")


def test_eval_jet_constant_in_other_axes():
    j = eval_jet(parse("sin(2*y)", "y"), Point(0.3, 0.7, 0.4), 3)
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
    j = eval_jet(e, Point(0.5, 0.0, 0.0), 2)
    assert j.value == pytest.approx(3.0 ** 0.5, rel=1e-12)
    assert j.extract((1, 0, 0)) == pytest.approx(
        math.log(3.0) * 3.0 ** 0.5, rel=1e-10)
    # jet base with jet exponent
    e2 = parse("t^t", "t")
    j2 = eval_jet(e2, Point(1.5, 0.0, 0.0), 1)
    assert j2.value == pytest.approx(1.5 ** 1.5, rel=1e-12)
    assert j2.extract((1, 0, 0)) == pytest.approx(
        1.5 ** 1.5 * (math.log(1.5) + 1.0), rel=1e-10)


# ----------------------------------------------------------------------
# univariate eval_jet against the expression evaluated on a lifted variable
# ----------------------------------------------------------------------

def _trivariate(e, which, p, order):
    return jet_walk(e, jets.lift_variable(which, p, order))


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
                    eval_jet(e, p, order)
                continue
            got = eval_jet(e, p, order)
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
            eval_jet(e, p, order)


# ----------------------------------------------------------------------
# the series memo of eval_series and eval_jet
# ----------------------------------------------------------------------

def _fresh_series(src, which, at, order):
    """The series of a newly parsed tree, which has no memo yet."""
    x = np.zeros(order + 1)
    x[0] = at
    if order:
        x[1] = 1.0
    return exprdsl.compose_series(parse(src, which), x)


@pytest.mark.parametrize("src, which", _DIFFERENTIAL_CASES)
def test_memo_answer_equals_fresh_evaluation_bit_for_bit(src, which):
    e = parse(src, which)
    for value in (-0.7, 0.4, 1.3):
        for order in range(9):
            try:
                fresh = _fresh_series(src, which, value, order)
            except DomainError:
                for _ in range(2):
                    with pytest.raises(DomainError):
                        eval_series(e, value, order)
                continue
            for _ in range(2):  # a miss, then a hit
                got = eval_series(e, value, order)
                assert got.tobytes() == fresh.tobytes(), (src, value, order)
                p = Point(value, value, value)
                jet = eval_jet(e, p, order)
                assert jet.base == p
                assert jets.axis_series(jet, which).tobytes() == \
                    fresh.tobytes()


def test_memo_stays_within_its_bound():
    exprs = [parse(src, "y") for src in ("sin(y)", "y^2 + 1", "exp(-y)")]
    for k in range(3 * exprdsl.MEMO_SIZE):
        for e in exprs:
            eval_series(e, 0.001 * k, 4)
            eval_jet(e, Point(0.0, 0.0, 0.001 * k), 3)
    for e in exprs:
        memo = e.__dict__["_memo"]
        assert len(memo) == exprdsl.MEMO_SIZE
        # the newest entries are kept
        assert (0.001 * (3 * exprdsl.MEMO_SIZE - 1), 3) in memo


def test_memo_zero_keeps_its_sign():
    e = parse("y", "y")
    assert math.copysign(1.0, eval_series(e, 0.0, 2)[0]) == 1.0
    assert math.copysign(1.0, eval_series(e, -0.0, 2)[0]) == -1.0


def test_mutating_an_answer_leaves_the_memo_alone():
    e = parse("cos(t) + t^3", "t")
    want = _fresh_series("cos(t) + t^3", "t", 0.6, 5)
    got = eval_series(e, 0.6, 5)
    got[:] = 99.0
    assert eval_series(e, 0.6, 5).tobytes() == want.tobytes()
    p = Point(0.6, 0.1, 0.2)
    jet = eval_jet(e, p, 5)
    jet.coeffs[:] = -1.0
    assert jets.axis_series(eval_jet(e, p, 5), "t").tobytes() == \
        want.tobytes()
    assert eval_series(e, 0.6, 5).tobytes() == want.tobytes()


def test_memo_never_keeps_an_error():
    e = parse("1/(y-1)", "y")
    for _ in range(3):
        with pytest.raises(DomainError):
            eval_series(e, 1.0, 4)
        with pytest.raises(DomainError):
            eval_jet(e, Point(0.0, 0.0, 1.0), 4)
    assert not e.__dict__["_memo"]
    # the memo does not change what trees equal or print as
    assert e == parse("1/(y-1)", "y") and hash(e) == hash(parse("1/(y-1)", "y"))
    assert repr(e) == repr(parse("1/(y-1)", "y"))


# ----------------------------------------------------------------------
# one derivative per node, one tree per text
# ----------------------------------------------------------------------

def test_diff_returns_the_same_tree_every_time():
    e = parse("sin(t)*exp(t^2) + ln(t)", "t")
    d = e.diff()
    assert e.diff() is d and d.diff() is d.diff()
    # f' g + f g' holds the derivatives that each factor keeps
    product = e.left
    nodes = list(expr_nodes(d))
    assert any(n is product.left.diff() for n in nodes)
    assert any(n is product.right.diff() for n in nodes)


def test_second_derivative_reuses_the_first():
    # (exp u)' = exp(u) u', so (exp u)'' = (exp u)' u' + exp(u) u'': the
    # first derivative is a subtree of the second, as the same object
    e = parse("exp(t^2)", "t")
    d = e.diff()
    dd = d.diff()
    assert any(n is d for n in expr_nodes(dd))
    assert any(n is e.arg.diff().diff() for n in expr_nodes(dd))
    for x in (-0.7, 0.4, 1.3):
        assert dd(x) == pytest.approx((2 + 4 * x * x) * math.exp(x * x),
                                      rel=1e-13)


@pytest.mark.parametrize("src", ["exp(2*t)", "sqrt(t)", "abs(t)", "t^t"])
def test_a_derivative_that_holds_its_node_is_freed(src):
    # a tree the parser keeps stays alive, so differentiate a copy
    e = parse(src, "t").subst(Var("t"))
    assert any(n is e for n in expr_nodes(e.diff()))
    ref = weakref.ref(e)
    del e
    gc.collect()
    assert ref() is None


def test_parse_gives_one_tree_per_text_and_variable():
    e = parse("t^2 + sin(t)", "t")
    assert parse("t^2 + sin(t)", "t") is e
    assert parse("t^2 + sin(t)", "t").diff() is e.diff()
    in_t, in_y = parse("2 + cos(3)", "t"), parse("2 + cos(3)", "y")
    assert in_t is not in_y and in_t != in_y
    assert in_t.var_name == "t" and in_y.var_name == "y"
    assert parse.cache_info().maxsize == exprdsl.PARSE_CACHE_SIZE == 256


def test_parse_never_keeps_an_error():
    hits = parse.cache_info().hits
    for _ in range(3):
        with pytest.raises(ParseError, match="offset 4"):
            parse("2*(t", "t")
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("t", "y")
    assert parse.cache_info().hits == hits


# ----------------------------------------------------------------------
# the batched sampler against calling the expression at each point
# ----------------------------------------------------------------------

#: includes points where some cases raise: ln(0), 1/0, tan's pole region
_SAMPLE_POINTS = [-1.3, -0.7, -0.25, 0.0, 0.4, 1.0, 1.3, math.pi / 2, 2.5]


def _scalar_samples(e, xs):
    """The values of calling ``e`` at each point, or the error class that
    the first failing point raises."""
    try:
        return [e(x) for x in xs]
    except Exception as exc:  # noqa: BLE001 - compared by class
        return type(exc)


def assert_sample_matches_scalar(e, xs):
    want = _scalar_samples(e, xs)
    if isinstance(want, type):
        with pytest.raises(want):
            exprdsl.sample(e, xs)
        return
    got = exprdsl.sample(e, xs)
    assert np.array(got).tobytes() == np.array(want).tobytes(), e


_SAMPLE_CASES = ([(src, "t") for src in ROUND_TRIP_CASES]
                 + [(src, "y") for src in catalog._Y_POOL]
                 + [(src, "t") for src in catalog._T_POOL]
                 + [("ln(t) + 1/(t-1)", "t"), ("sqrt(t)*exp(40*t^2)", "t"),
                    ("(t-2)^0.5", "t"), ("1/t + ln(t)", "t")])


@pytest.mark.parametrize("src, which", _SAMPLE_CASES)
def test_sample_matches_scalar_calls(src, which):
    e = parse(src, which)
    assert_sample_matches_scalar(e, _SAMPLE_POINTS)
    assert_sample_matches_scalar(e, [0.3, 0.9, 1.7])
    # a tree that holds one subtree object twice, and its derivatives
    twice = Bin("*", e, Bin("+", e, Num(1.0, which), which), which)
    assert_sample_matches_scalar(twice, _SAMPLE_POINTS)
    assert_sample_matches_scalar(e.diff().diff(), _SAMPLE_POINTS)


def test_sample_raises_the_first_points_error_class():
    # point 0.0 fails first, by the division guard; point 2.0 overflows
    # in exp, a subtree that the walk reaches before the division
    e = parse("exp(1000*t*t) + 1/t", "t")
    with pytest.raises(DomainError):
        e(0.0)
    with pytest.raises(OverflowError):
        e(2.0)
    with pytest.raises(DomainError):
        exprdsl.sample(e, [0.0, 2.0])
    with pytest.raises(OverflowError):
        exprdsl.sample(e, [2.0, 0.0])


# ----------------------------------------------------------------------
# the folding constructor of _diff against a plain one
# ----------------------------------------------------------------------

def _plain_diff(e, monkeypatch):
    """The derivative of a new copy of ``e``, whose nodes keep no
    derivative yet, by a constructor that folds nothing."""
    with monkeypatch.context() as m:
        m.setattr(exprdsl, "_mk", lambda op, l, r: Bin(op, l, r, l.var_name))
        return e.subst(Var(e.var_name)).diff()


def _size(e) -> int:
    if isinstance(e, (Num, Var)):
        return 1
    if isinstance(e, Bin):
        return 1 + _size(e.left) + _size(e.right)
    return 1 + _size(e.arg)


_FOLD_CASES = ([src for src, which in _SAMPLE_CASES if which == "t"]
               + ["2^3*t", "(1+2)*t^2", "t/(3-3)", "1e200^2*t",
                  "3^t", "(0-1)^0.5*t", "t*1 + 1*t", "(2*t)^3 - t^2/4",
                  "exp(2*t)*sin(3*t)", "ln(t)^1"])


#: the value of each derivative (1st to 3rd) of a fold case at the points
#: where the plain derivative raises in a factor that the fold drops: a
#: 0*(0-1)^0.5 anywhere, or the ln(t) of ln(t)^0.0 at t < 0.  No
#: derivative holds t^1.0 or t^0.0, so none raises in the 0*t^-1.0 that
#: differentiating t^0.0 would build
_DROPPED_RAISING = {
    ("(0-1)^0.5*t", 2): dict.fromkeys(_SAMPLE_POINTS, 0.0),
    ("ln(t)^1", 1): {x: 1.0 / x for x in _SAMPLE_POINTS if x < 0.0},
}


@pytest.mark.parametrize("src", _FOLD_CASES)
def test_folded_diff_matches_unfolded(src, monkeypatch):
    # each fold keeps the value of its node up to the sign of a zero,
    # wherever every factor it drops is defined; differentiating a folded
    # tree again is compared with the plain derivative of that same tree.
    # Beside the parsed tree, a derivative holds no node that folds
    given = e = parse(src, "t")
    for k in (1, 2, 3):
        folded, plain = e.diff(), _plain_diff(e, monkeypatch)
        e = folded
        assert _size(folded) <= _size(plain)
        assert not unfolded_nodes(folded, given=[given]), (src, k)
        dropped = {}
        for x in _SAMPLE_POINTS:
            want = _scalar_samples(plain, [x])
            got = _scalar_samples(folded, [x])
            if isinstance(want, type) and not isinstance(got, type):
                dropped[x] = got[0]
            elif isinstance(want, type) or isinstance(got, type):
                assert got is want, (src, k, x)
            else:
                assert (np.abs(got).tobytes()
                        == np.abs(want).tobytes()), (src, k, x)
        assert dropped == _DROPPED_RAISING.get((src, k), {}), (src, k)


def test_third_derivative_of_a_square_is_zero_at_the_origin():
    # the plain tree holds 0*t^-1, which raises at t = 0
    d3 = parse("t^2", "t").diff().diff().diff()
    assert d3 == Num(0.0, "t") and d3(0.0) == 0.0


def test_diff_folds_numbers_and_unit_factors():
    assert parse("3*t", "t").diff() == Num(3.0, "t")
    assert parse("sin(t)", "t").diff() == Call("cos", Var("t"), "t")
    # 1/(3-3) raises, so it stays a tree
    d = parse("1/(3-3)", "t").diff()
    assert isinstance(d, Bin)
    with pytest.raises(DomainError):
        d(0.5)
