"""Batched jets: each lane of a batch against its point evaluated alone.

A batched point carries one coordinate as an array (the lanes); every
jet operation, expression, family component, transformation and
conversion evaluated there must agree, lane by lane, with the same
evaluation at that lane's single point, to 1e-13 relative to the
largest coefficient of the lane's jet (or to 1e-13 where that is below
1: a jet that vanishes identically is roundoff in both), and must raise
the error class of the lane where the single point raises.
"""

import math

import numpy as np
import pytest

from blp import catalog, exprdsl, jets, quadrature, series, system, \
    transforms
from blp.jets import BLPError, DomainError, Jet3, Point, UndefinedHere
from blp.quadrature import integrate_field_along, line_integral
from conftest import per_node

RTOL = 1e-13
ORDERS = range(9)


def _singles(p):
    return [jets.lane(p, i) for i in range(jets.lanes(p))]


def assert_lanes(batched, singles):
    """``batched`` agrees with each of the single-point jets ``singles``."""
    assert isinstance(batched, Jet3)
    size = singles[0].coeffs.shape[-1]
    assert batched.order == singles[0].order
    got = np.broadcast_to(batched.coeffs, (len(singles), size))
    for i, (g, s) in enumerate(zip(got, singles)):
        assert s.coeffs.shape == (size,)
        scale = max(np.max(np.abs(s.coeffs)), 1.0)
        assert np.max(np.abs(g - s.coeffs)) <= RTOL * scale, i


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (UndefinedHere, BLPError) as exc:
        return exc


def assert_map_over_lanes(fn, p, n):
    """The jet map ``fn`` at the batched point ``p`` against each lane:
    equal jets, or, where a lane raises, an error of a class that a lane
    raises."""
    singles = [_outcome(fn, q, n) for q in _singles(p)]
    errors = [type(s) for s in singles if isinstance(s, Exception)]
    batched = _outcome(fn, p, n)
    if errors:
        assert isinstance(batched, Exception), errors
        assert type(batched) in errors
    else:
        assert not isinstance(batched, Exception), batched
        assert_lanes(batched, singles)
    return batched


def _batched_point(box, axis, count=5, inset=0.1):
    """The box's midpoint with coordinate ``axis`` spread over ``count``
    lanes inside the box."""
    mid = [0.5 * (lo + hi) for lo, hi in box]
    lo, hi = box[axis]
    pad = inset * (hi - lo)
    mid[axis] = np.linspace(lo + pad, hi - pad, count)
    return Point(*mid)


def _random_jets(rng, p, order, count, positive=False):
    size = jets.jet_size(order)
    tab = jets._tables(order)
    c = rng.normal(size=(count, size)) * 0.4 ** tab.euler
    c[:, 0] = rng.uniform(0.6, 1.8, count) if positive \
        else rng.uniform(-1.5, 1.5, count)
    return Jet3(p, order, c)


def _lane_jets(a):
    return [Jet3(jets.lane(a.base, i), a.order, a.coeffs[i])
            for i in range(len(a.coeffs))]


P5 = Point(0.7, np.linspace(-0.4, 0.6, 5), 0.45)


# ----------------------------------------------------------------------
# the jet layer
# ----------------------------------------------------------------------

_BINARY = {
    "add": lambda a, b: a + b, "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b, "div": lambda a, b: a / b,
    "pow_jet": lambda a, b: a ** (0.0 * b + 2.5),
}
_UNARY = {
    "neg": lambda a: -a, "add_float": lambda a: a + 0.75,
    "rsub_float": lambda a: 0.75 - a, "mul_float": lambda a: 1.5 * a,
    "div_float": lambda a: a / 1.5, "rdiv_float": lambda a: 2.0 / a,
    "pow_int": lambda a: a ** 3, "pow_neg": lambda a: a ** -2,
    "pow_half": lambda a: a ** 0.5,
    "truncate": lambda a: a.truncate(max(a.order - 1, 0)),
    "restrict_y": lambda a: jets.restrict(a, "y", a.base),
    "axis_x": lambda a: jets.axis_jet(jets.axis_series(a, "x"), "x",
                                      a.base),
}
_ELEMENTARY = ["exp", "ln", "sin", "cos", "tan", "sinh", "cosh", "sqrt",
               "recip", "abs_signed", ("pow", 2.5), ("pow", -1.0),
               ("pow", 3.0)]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("op", sorted(_BINARY))
def test_binary_operations_over_lanes(op, order):
    rng = np.random.default_rng(order)
    a = _random_jets(rng, P5, order, 5, positive=True)
    b = _random_jets(rng, P5, order, 5, positive=True)
    fn = _BINARY[op]
    assert_lanes(fn(a, b), [fn(x, y) for x, y in
                            zip(_lane_jets(a), _lane_jets(b))])


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("op", sorted(_UNARY))
def test_unary_operations_over_lanes(op, order):
    a = _random_jets(np.random.default_rng(order), P5, order, 5,
                     positive=True)
    fn = _UNARY[op]
    assert_lanes(fn(a), [fn(x) for x in _lane_jets(a)])


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("f", _ELEMENTARY, ids=str)
def test_elementary_functions_over_lanes(f, order):
    a = _random_jets(np.random.default_rng(order), P5, order, 5,
                     positive=True)
    assert_lanes(jets.apply_unary(f, a),
                 [jets.apply_unary(f, x) for x in _lane_jets(a)])


@pytest.mark.parametrize("order", range(1, 9))
def test_calculus_over_lanes(order):
    a = _random_jets(np.random.default_rng(order), P5, order, 5)
    singles = _lane_jets(a)
    for axis in "txy":
        assert_lanes(a.derive(axis), [x.derive(axis) for x in singles])
    for m in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
              (order, 0, 0), (0, 1, order - 1)]:
        got = a.extract(m)
        assert got.shape == (5,)
        for g, x in zip(got, singles):
            assert g == pytest.approx(x.extract(m), rel=RTOL, abs=1e-300)


def test_lane_numbers_act_on_each_lane():
    a = _random_jets(np.random.default_rng(3), P5, 3, 5, positive=True)
    k = np.linspace(0.5, 2.5, 5)
    singles = _lane_jets(a)
    assert_lanes(a + k, [x + z for x, z in zip(singles, k)])
    assert_lanes(k - a, [z - x for x, z in zip(singles, k)])
    assert_lanes(k * a, [z * x for x, z in zip(singles, k)])
    assert_lanes(a / k, [x / z for x, z in zip(singles, k)])
    assert_lanes(k / a, [z / x for x, z in zip(singles, k)])
    assert_lanes(Jet3.constant(k, P5, 3),
                 [Jet3.constant(z, q, 3) for z, q in zip(k, _singles(P5))])


@pytest.mark.parametrize("order", ORDERS)
def test_coordinate_jets_over_lanes(order):
    for p in (P5, Point(np.linspace(0.2, 0.9, 4), -0.3, 1.1),
              Point(0.5, 0.25, np.linspace(-1.0, 1.0, 3))):
        batched = jets.coordinate_jets(p, order)
        singles = [jets.coordinate_jets(q, order) for q in _singles(p)]
        for k, which in enumerate("txy"):
            assert_lanes(batched[k], [s[k] for s in singles])
            assert_lanes(jets.lift_variable(which, p, order),
                         [jets.lift_variable(which, q, order)
                          for q in _singles(p)])


def test_batched_points_are_checked():
    with pytest.raises(ValueError, match="unequal length"):
        jets.coordinate_jets(Point(np.zeros(2), np.zeros(3), 0.0), 2)
    with pytest.raises(ValueError, match="non-finite"):
        jets.coordinate_jets(Point(0.0, np.array([0.0, math.inf]), 0.0), 2)
    a = jets.lift_variable("x", P5, 2)
    with pytest.raises(ValueError, match="matching base"):
        a + jets.lift_variable("x", P5._replace(x=P5.x + 1.0), 2)
    # the same lanes in another array are the same point
    assert_lanes(a + jets.lift_variable("x", P5._replace(x=P5.x.copy()), 2),
                 [2.0 * x for x in _lane_jets(a)])


_EXPRESSIONS = ["sin(y)", "2+cos(y)", "y^2 - 3*y", "exp(0.2*y)/(1+y^2)",
                "sqrt(2+y) - ln(3+y)", "abs(y-0.1)*tan(0.3*y)",
                "(1+y)^(0.5*y)", "sinh(y)*cosh(y)", "4"]


@pytest.mark.parametrize("order", [0, 1, 3, 6])
@pytest.mark.parametrize("text", _EXPRESSIONS)
def test_eval_jet_on_either_axis(text, order):
    e = exprdsl.parse(text, "y")
    for p in (Point(0.4, 0.1, np.linspace(-0.7, 0.9, 6)),   # on its axis
              Point(0.4, np.linspace(-0.7, 0.9, 6), 0.35)):  # across it
        assert_lanes(exprdsl.eval_jet(e, "y", p, order),
                     [exprdsl.eval_jet(e, "y", q, order)
                      for q in _singles(p)])


# ----------------------------------------------------------------------
# the guard rule over lanes
# ----------------------------------------------------------------------

def _with_value(a, lane, value):
    c = a.coeffs.copy()
    c[lane, 0] = value
    return Jet3(a.base, a.order, c)


@pytest.mark.parametrize("case,lane_value", [
    ("div", 1e-14), ("rdiv", 1e-14), ("ln", -0.5), ("sqrt", -0.25),
    ("recip", 3e-13), ("abs_signed", -1e-13), ("tan", math.pi / 2),
    ("pow_half", -0.5), ("pow_neg", 0.0),
])
def test_a_lane_inside_a_guard_band(case, lane_value):
    rng = np.random.default_rng(5)
    num = _random_jets(rng, P5, 3, 5, positive=True)
    bad = _with_value(_random_jets(rng, P5, 3, 5, positive=True), 3,
                      lane_value)
    ops = {"div": lambda a, x: a / x, "rdiv": lambda a, x: 1.0 / x,
           "pow_half": lambda a, x: x ** 0.5,
           "pow_neg": lambda a, x: x ** -2}
    fn = ops.get(case) or (lambda a, x: jets.apply_unary(case, x))
    lanes = list(zip(_lane_jets(num), _lane_jets(bad)))
    for i, (a, x) in enumerate(lanes):
        if i != 3:
            fn(a, x)
    with pytest.raises(DomainError) as single:
        fn(*lanes[3])
    with pytest.raises(DomainError) as batched:
        fn(num, bad)
    assert str(batched.value) == str(single.value)


def test_the_first_undefined_lane_is_named():
    values = np.array([1.0, 2e-13, 0.5, -3e-13, 2.0])
    with pytest.raises(transforms.UndefinedTransform,
                       match=r"den 2e-13 small"):
        transforms._guard(values, 0.0, "den {} small")
    jets.check_denominator(values + 1.0, np.zeros(5), "never {}")
    with pytest.raises(DomainError, match="^chart$"):
        jets.raise_where(values < 0.0, values, "chart")


def test_per_lane_raises_as_the_first_lane_does():
    asked = []

    def scalar_map(p, n):
        asked.append(p.x)
        if p.x > 0.3:
            raise DomainError(f"beyond at {p.x}")
        return jets.lift_variable("x", p, n)

    wrapped = jets.per_lane(scalar_map)
    with pytest.raises(DomainError, match="beyond at 0.35"):
        wrapped(Point(0.0, np.array([0.1, 0.35, 0.2, 0.4]), 0.0), 2)
    assert asked == [0.1, 0.35]
    assert_lanes(wrapped(Point(0.0, np.array([0.1, 0.2]), 0.0), 2),
                 [jets.lift_variable("x", Point(0.0, x, 0.0), 2)
                  for x in (0.1, 0.2)])


# ----------------------------------------------------------------------
# every family's components
# ----------------------------------------------------------------------

_FAMILIES = [d.id for d in catalog.list_families()]


@pytest.mark.parametrize("fid", _FAMILIES)
def test_family_components_over_lanes(fid):
    field = catalog.instantiate(fid, {})
    box = catalog.default_box(fid)
    for axis in range(3):
        p = _batched_point(box, axis)
        for name in ("u", "v", "w"):
            assert_map_over_lanes(getattr(field, name), p,
                                  system.RESIDUAL_ORDER)


#: closed-form families: none of their maps goes lane by lane
_CLOSED_FORM = sorted(set(_FAMILIES) - {
    "F_R24_PAINLEVE4", "F_R29_PAINLEVE2", "F_R29_ELLIPTIC", "F_VXXX_2",
    "F_SINHGORDON", "F_UXX_BERNOULLI"})


def _count_lanes(monkeypatch):
    asked = []
    lane = jets.lane

    def counted(p, i):
        asked.append(i)
        return lane(p, i)
    monkeypatch.setattr(jets, "lane", counted)
    return asked


@pytest.mark.parametrize("fid", _CLOSED_FORM)
def test_closed_forms_evaluate_a_batch_at_once(fid, monkeypatch):
    # their maps, and the integrands of a Laplace step and a conversion
    # built on them, take each batch in one evaluation
    field = catalog.instantiate(fid, {})
    box = catalog.default_box(fid)
    asked = _count_lanes(monkeypatch)
    for axis in range(3):
        p = _batched_point(box, axis)
        for m in (field.u, field.v, field.w):
            _outcome(m, p, 3)
    base = Point(1.0, 0.0, 0.0)
    mid = Point(*(0.5 * (lo + hi) for lo, hi in box))
    for chained in (transforms.laplace_forward_uv(field, base),
                    system.convert(field, "UQ", base)):
        _outcome(chained.v, mid, 3)
    assert asked == []


# ----------------------------------------------------------------------
# transformations and conversions
# ----------------------------------------------------------------------

def _jmap(fn):
    def m(p, n):
        t, x, y = jets.coordinate_jets(p, n)
        return fn(t, x, y)
    return m


class _Modes:
    """Phi = sum_j c_j(y) exp(k_j x + s k_j^2 t) + a y + b."""

    def __init__(self, ks, coeffs, sign, linear=(0.0, 0.0)):
        self.ks, self.coeffs, self.sign = ks, coeffs, sign
        self.linear = linear

    def Phi(self, p, n):
        t, x, y = jets.coordinate_jets(p, n)
        acc = self.linear[0] * y + self.linear[1]
        for k, cs in zip(self.ks, self.coeffs):
            c = cs[0] + 0.0 * y
            for power, cp in enumerate(cs[1:], start=1):
                if cp:
                    c = c + cp * y ** power
            acc = acc + c * jets.exp(k * x + self.sign * k * k * t)
        return acc


_MODE_KS = (-0.5, 0.5, 1.0, 1.5)
_MODE_COEFFS = ([1.0], [1.0, 0.0, 1.0], [0.0, 1.0], [0.5, 0.0, 0.0, 0.3])


def _covering(seed, w, k, zeta):
    return transforms.covering_solutions_for_constraint(
        "u_y=q_y", seed, w,
        theta=_jmap(lambda t, x, y: jets.exp(k * x - k * k * t)),
        zeta=exprdsl.parse(zeta, "y"))


def _rich():
    w = _Modes((1.0,), ([1.0],), 1.0, linear=(0.3, 0.1))
    seed = transforms.uq_seed(w, constraint="u_y=q_y")
    return w, seed, [_covering(seed, w, 1.0, "1+0.2*y^2"),
                     _covering(seed, w, 2.0, "y")]


def _vxxx(fid, **bindings):
    return catalog.instantiate(fid, bindings)


def _dressed(kind):
    _, seed, phis = _rich()
    return transforms.darboux(kind, seed, phis[0])


def _dressed_twice(kind):
    _, seed, phis = _rich()
    return transforms.darboux_iterated(kind, seed, phis)


def test_covering_integrands_evaluate_a_batch_at_once(monkeypatch):
    w, seed, phis = _rich()
    asked = _count_lanes(monkeypatch)
    for phi in phis:
        phi.phi(Point(1.1, 0.6, 0.7), 3)
    assert asked == []


_TRANSFORMS = {
    "laplace_fwd_uv": lambda: transforms.laplace_forward_uv(
        _vxxx("F_VXXX_1"), Point(1.0, 0.0, 0.5)),
    "laplace_inv_uv": lambda: transforms.laplace_inverse_uv(
        _vxxx("F_VXXX_5", beta="4+cos(y)"), Point(1.0, 0.2, 0.5)),
    "laplace_fwd_uq": lambda: transforms.laplace_forward_uq(
        transforms.laplace_forward_uq(transforms.uq_seed(
            _Modes(_MODE_KS, _MODE_COEFFS, 1.0), constraint="u_y=q_y"))),
    "laplace_inv_uq": lambda: transforms.laplace_inverse_uq(
        transforms.uq_seed(_Modes(_MODE_KS, _MODE_COEFFS, -1.0),
                           constraint="q_y=0")),
    "dt1": lambda: _dressed("DT1"),
    "dt2": lambda: _dressed("DT2"),
    "dt1_x2": lambda: _dressed_twice("DT1"),
    "dt2_x2": lambda: _dressed_twice("DT2"),
    "convert_uq": lambda: system.convert(_vxxx("F_VXXX_4"), "UQ",
                                         Point(1.0, 0.0, 0.0)),
    "convert_uv": lambda: system.convert(
        system.convert(_vxxx("F_UEQV", alpha="4+sin(y)"), "UQ",
                       Point(1.0, 0.0, 0.0)), "UV", Point(1.0, 0.0, 0.0)),
    "convert_uw": lambda: system.convert(_vxxx("F_VXXX_3"), "UW",
                                         Point(1.0, 0.0, 0.0)),
    "symmetry": lambda: transforms.apply_symmetry(
        transforms.d_transform("t + 0.35*sin(t)"),
        _vxxx("F_UEQV", alpha="4+sin(y)")),
}
_BOXES = {"laplace_fwd_uq": ((0.1, 0.4), (-0.2, 0.2), (0.5, 1.0)),
          "laplace_inv_uq": ((0.6, 1.3), (0.2, 0.8), (0.4, 0.9))}
_DEFAULT_BOX = ((0.9, 1.2), (0.5, 0.9), (0.45, 0.7))


@pytest.mark.parametrize("kind", sorted(_TRANSFORMS))
def test_transformed_components_over_lanes(kind):
    field = _TRANSFORMS[kind]()
    box = _BOXES.get(kind, _DEFAULT_BOX)
    for axis in range(3):
        p = _batched_point(box, axis, count=3)
        for name in ("u", "v", "w"):
            assert_map_over_lanes(getattr(field, name), p, 2)


def test_a_lane_inside_a_transform_guard():
    # F_VXXX_4 with alpha = gamma = y: v_x = 2 alpha (x + 2 alpha t) +
    # gamma - 1 vanishes on a line; one lane sits on it
    field = transforms.laplace_forward_uv(
        _vxxx("F_VXXX_4", alpha="y", gamma="y"), Point(1.0, 0.0, 0.5))
    t, y = 1.0, 0.5
    x_zero = (1.0 - y) / (2.0 * y) - 2.0 * y * t
    p = Point(t, np.array([x_zero + 0.3, x_zero, x_zero - 0.4]), y)
    batched = assert_map_over_lanes(field.u, p, 2)
    assert isinstance(batched, transforms.UndefinedTransform)


# ----------------------------------------------------------------------
# quadrature: one integrand call per panel
# ----------------------------------------------------------------------

def _g(p, n):
    t, x, y = jets.coordinate_jets(p, n)
    return jets.sin(t * y) * jets.exp(0.3 * x) + x * x * y


def assert_close(got, want):
    assert np.max(np.abs(got - want)) <= RTOL * np.max(np.abs(want))


def _per_node_integral(field, axis, lower, p, order):
    """The integral with one integrand call per abscissa: each node's
    jet at its own single point."""
    ax = "txy".index(axis)
    tab = jets._tables(order)
    free = np.delete(np.arange(jets.jet_size(order)), tab.with_axis[ax])

    def slice_values(s):
        return field(Point(*(s if i == ax else p[i] for i in range(3))),
                     order).coeffs[free]

    out = np.zeros(jets.jet_size(order))
    out[free] = quadrature.adaptive_quadrature(per_node(slice_values),
                                               lower, p[ax])
    out[tab.derive_src[ax]] = field(p, order).coeffs[
        :jets.jet_size(order - 1)] / tab.derive_scale[ax]
    return Jet3(p, order, out)


@pytest.mark.parametrize("axis,lower", [("x", -0.8), ("t", 2.5),
                                        ("y", 0.1)])
@pytest.mark.parametrize("order", [0, 3, 5, 7])
def test_integrand_called_once_per_panel(axis, lower, order, monkeypatch):
    panels = []
    gk15 = quadrature.gauss_kronrod_15

    def counted(f, a, b):
        panels.append((a, b))
        return gk15(f, a, b)
    monkeypatch.setattr(quadrature, "gauss_kronrod_15", counted)
    asked = []

    def g(p, n):
        asked.append(p)
        return _g(p, n)

    p = Point(0.9, 0.4, 1.3)
    got = integrate_field_along(g, axis, lower, p, order)
    assert asked[0] is p and len(asked) == 1 + len(panels) >= 2
    ax = "txy".index(axis)
    for q, (a, b) in zip(asked[1:], panels):
        assert jets.lanes(q) == 15
        assert all(q[i] == p[i] for i in range(3) if i != ax)
        # c, then c - h x_j and c + h x_j for j = 0..6
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        assert q[ax][0] == c
        assert list(q[ax][1::2]) == list(c - h * quadrature._XGK[:7])
        assert list(q[ax][2::2]) == list(c + h * quadrature._XGK[:7])
    monkeypatch.undo()
    assert_close(got.coeffs,
                 _per_node_integral(_g, axis, lower, p, order).coeffs)


def test_zero_length_integral_runs_no_node(monkeypatch):
    monkeypatch.setattr(quadrature, "adaptive_quadrature", None)
    asked = []

    def g(p, n):
        asked.append(p)
        return _g(p, n)

    p = Point(0.9, 0.4, 1.3)
    got = integrate_field_along(g, "x", p.x, p, 3)
    assert asked == [p]
    free = np.delete(np.arange(20), jets._tables(3).with_axis[1])
    assert not np.any(got.coeffs[free])
    assert got.extract((0, 1, 0)) == _g(p, 3).value


def test_integrals_at_a_batched_point_go_lane_by_lane():
    p = Point(0.9, np.array([0.1, 0.4, 0.7]), 1.3)
    assert_lanes(integrate_field_along(_g, "y", 0.2, p, 3),
                 [integrate_field_along(_g, "y", 0.2, q, 3)
                  for q in _singles(p)])


def test_line_integral_serves_its_line_with_one_jet():
    asked = []

    def g(p, n):  # does not depend on x
        asked.append(p)
        t, _, y = jets.coordinate_jets(p, n)
        return jets.exp(0.5 * t) * y

    integral = line_integral(g, "t", -0.4, constant_along="x")
    p = Point(0.9, np.linspace(-1.0, 1.0, 7), 0.6)
    got = integral(p, 3)
    assert got.coeffs.shape == (20,) and got.base is p
    calls = len(asked)
    assert_lanes(got, [integral(q, 3) for q in _singles(p)])
    assert len(asked) == calls
    across = Point(0.9, 0.2, np.array([0.3, 0.6]))
    assert_lanes(integral(across, 3),
                 [integrate_field_along(g, "t", -0.4, q, 3)
                  for q in _singles(across)])


def test_series_recurrences_over_lanes():
    rng = np.random.default_rng(11)
    for order in (1, 4, 8):
        lay = series.univariate(order)
        a = rng.normal(size=(4, order + 1))
        a[:, 0] = rng.uniform(0.5, 2.0, 4)
        b = rng.normal(size=order + 1)
        b[0] = 1.3
        for got, want in [
                (series.div(a, b, lay), [series.div(x, b, lay) for x in a]),
                (series.div(b, a, lay), [series.div(b, x, lay) for x in a]),
                (lay.mul(a, b), [lay.mul(x, b) for x in a]),
                (series.power(a, -0.5, lay),
                 [series.power(x, -0.5, lay) for x in a])]:
            for g, w in zip(got, want):
                assert np.max(np.abs(g - w)) <= RTOL * np.max(np.abs(w))
