"""Batched jets: each lane of a batch against its point evaluated alone.

A batched point carries one coordinate as an array (the lanes); every
jet operation, expression, family component, transformation and
conversion evaluated there must agree, lane by lane, with the same
evaluation at that lane's single point, to 1e-13 relative to the
largest coefficient of the lane's jet (or to 1e-13 where that is below
1: a jet that vanishes identically is roundoff in both), and must raise
the error class of the lane where the single point raises.  A grid
report and a batched kernel of :mod:`blp.series` are held to more: each
row, or lane, has the bits of its point, or lane, asked alone.
"""

import json
import math

import numpy as np
import pytest

from blp import catalog, cli, exprdsl, jets, quadrature, reductions, series, \
    specfun, system, transforms
from blp.jets import BLPError, DomainError, Jet3, Point, UndefinedHere
from blp.reductions import ReductionSpec
from blp.quadrature import integrate_field_along, line_integral
from conftest import per_node
from test_cli import _DOMAIN_EDGE_RUNS

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
        assert_lanes(exprdsl.eval_jet(e, p, order),
                     [exprdsl.eval_jet(e, q, order)
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


#: the families none of whose maps goes lane by lane: all but those
#: whose line integrals run one integral per lane
_CLOSED_FORM = sorted(set(_FAMILIES) - {
    "F_VXXX_2", "F_SINHGORDON", "F_UXX_BERNOULLI"})


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
# reduced profiles: Painleve dense output and the P-based profiles
# ----------------------------------------------------------------------

_PII = ReductionSpec(id="R2_9", C0=0.0, C1=2.0, C2=0.0, delta=1.0,
                     init=(-2.0, 0.5, 0.25))
_PIV = ReductionSpec(id="R2_4", C0=0.125, C1=1.4, eps=1,
                     init=(0.0, 1.06, 0.0))


def _trajectory(which):
    if which == "painleve2":
        return reductions.integrate_painleve2(_PII, span=(-2.5, -0.5))
    return reductions.integrate_painleve4_form(_PIV, span=(-1.2, 1.2))


@pytest.mark.parametrize("which", ["painleve2", "painleve4"])
def test_dense_output_over_an_array_is_each_point_alone(which):
    # bit for bit: at the nodes, at the midpoints between them (the
    # nearest-node tie rule) and across the window
    traj = _trajectory(which)
    g = traj.grid
    w = np.concatenate([g, 0.5 * (g[1:] + g[:-1]),
                        np.linspace(*traj.window(), 97)])
    for name in ("__call__", "psi"):
        got = np.stack(getattr(traj, name)(w), axis=-1)
        want = [getattr(traj, name)(float(v)) for v in w]
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(
        traj.series(w, 6), [traj.series(float(v), 6) for v in w])


def test_dense_output_names_its_first_point_outside_the_window():
    traj = _trajectory("painleve2")
    lo, hi = traj.window()
    w = np.array([lo, hi + 0.25, 0.5 * (lo + hi), lo - 1.0])
    with pytest.raises(reductions.WindowError) as batched:
        traj(w)
    with pytest.raises(reductions.WindowError) as alone:
        traj(hi + 0.25)
    assert str(batched.value) == str(alone.value)
    assert str(alone.value).startswith(f"{hi + 0.25} outside")


def _elliptic_spec(C0, delta, C2):
    return ReductionSpec(id="R2_9", C0=C0, C1=0.0, C2=C2, delta=delta)


def _p_branch_field(C0=1.0, delta=1.0, C2=3.0):
    q = specfun.QuarticODE(1.0, 0.0, C0 / 3.0, delta, C2)
    return reductions.reconstruct_2_9(
        specfun.quartic_particular_solution(q, 0.0),
        _elliptic_spec(C0, delta, C2), omega0=0.85)


def _degenerate_field():
    # phi'^2 = (phi^2 - 1)^2: C0 = -1, delta = 0, C2 = 1, root lam = 1
    q = specfun.QuarticODE(1.0, 0.0, -1.0 / 3.0, 0.0, 1.0)
    branch, = specfun.degenerate_solutions(q, 1.0)
    return reductions.reconstruct_2_9(branch, _elliptic_spec(-1.0, 0.0, 1.0),
                                      omega0=0.85)


_PROFILE_FIELDS = {
    "reconstruct_2_4": lambda: reductions.reconstruct_2_4(
        _trajectory("painleve4"), _PIV),
    "reconstruct_2_9_painleve": lambda: reductions.reconstruct_2_9(
        _trajectory("painleve2"), _PII),
    "reconstruct_2_9_p_branch": _p_branch_field,
    "reconstruct_2_9_degenerate": _degenerate_field,
}
_PROFILE_BOXES = {"reconstruct_2_4": catalog.default_box("F_R24_PAINLEVE4"),
                  "reconstruct_2_9_painleve":
                      catalog.default_box("F_R29_PAINLEVE2")}


@pytest.mark.parametrize("kind", sorted(_PROFILE_FIELDS))
def test_profile_fields_over_lanes(kind):
    field = _PROFILE_FIELDS[kind]()
    box = _PROFILE_BOXES.get(kind, catalog.default_box("F_R29_ELLIPTIC"))
    for axis in range(3):
        p = _batched_point(box, axis, count=7)
        for name in ("u", "v", "w"):
            assert_map_over_lanes(getattr(field, name), p,
                                  system.RESIDUAL_ORDER)


def _elliptic_pool():
    pool = {json.dumps(catalog.sample_bindings(
        "F_R29_ELLIPTIC", np.random.default_rng(seed)), sort_keys=True)
        for seed in range(64)}
    assert len(pool) == 4
    return [json.loads(text) for text in sorted(pool)]


def test_every_elliptic_binding_over_lanes():
    box = catalog.default_box("F_R29_ELLIPTIC")
    for bindings in _elliptic_pool():
        field = catalog.instantiate("F_R29_ELLIPTIC", bindings)
        for axis in range(3):
            p = _batched_point(box, axis, count=7)
            for name in ("u", "v", "w"):
                assert_map_over_lanes(getattr(field, name), p,
                                      system.RESIDUAL_ORDER)


#: an omega = x + y where the default F_R29_ELLIPTIC profile crosses its
#: value a = 0, inside the band where it is expanded at a shifted point
_CROSSING = 1.110144722932218


def test_a_lane_inside_the_crossing_band(monkeypatch):
    field = catalog.instantiate("F_R29_ELLIPTIC", {})
    asked = []
    real = specfun.weierstrass_p

    def counted(z, inv):
        asked.append(np.array(z, ndmin=1))
        return real(z, inv)
    monkeypatch.setattr(specfun, "weierstrass_p", counted)
    y = 0.6
    p = Point(0.5, np.array([0.3, _CROSSING - y, 0.45, 0.52]), y)
    for name in ("u", "v", "w"):
        assert_map_over_lanes(getattr(field, name), p,
                              system.RESIDUAL_ORDER)
    shifted = np.concatenate(asked)
    assert np.any(np.abs(shifted - (_CROSSING + 0.01)) < 1e-12)


def test_an_error_of_the_crossing_expansion_names_its_lane(monkeypatch):
    # the expansion point shifted from the crossing raises: the error
    # names the lane near the crossing, not the whole batch
    real = specfun.weierstrass_p

    def failing(z, inv):
        jets.raise_where(np.abs(z - (_CROSSING + 0.01)) < 1e-12, z,
                         "pole at the shifted point", specfun.PoleError)
        return real(z, inv)
    monkeypatch.setattr(specfun, "weierstrass_p", failing)
    field = catalog.instantiate("F_R29_ELLIPTIC", {})
    y = 0.6
    p = Point(0.5, np.array([0.3, _CROSSING - y, 0.45, 0.52]), y)
    with pytest.raises(specfun.PoleError) as err:
        field.u(p, system.RESIDUAL_ORDER)
    assert err.value.lanes.tolist() == [False, True, False, False]


def assert_first_lane_error(fn, p, error):
    """``fn`` at the batched point ``p`` raises the class and message of
    its first lane that raises alone, an ``error``."""
    singles = [_outcome(fn, q, 3) for q in _singles(p)]
    first = next(s for s in singles if isinstance(s, Exception))
    assert isinstance(first, error)
    batched = _outcome(fn, p, 3)
    assert (type(batched), str(batched)) == (type(first), str(first))


_FIRST_UNDEFINED = {
    # a lane outside the profile window
    "painleve2_window": ("reconstruct_2_9_painleve", reductions.WindowError,
                         Point(0.5, np.array([-0.6, 0.3, -0.5, 0.4]),
                               -0.2)),
    # a lane outside the sign chart of t
    "painleve4_chart": ("reconstruct_2_4", reductions.WindowError,
                        Point(np.array([0.8, 0.02, 0.9, -0.3]), 0.1, 0.1)),
    # a lane at omega = 0, the pole of P
    "p_branch_pole": ("reconstruct_2_9_p_branch", specfun.PoleError,
                      Point(0.5, np.array([0.4, -0.6, 0.45, -0.7]), 0.6)),
}


@pytest.mark.parametrize("case", sorted(_FIRST_UNDEFINED))
def test_a_profile_batch_raises_as_its_first_undefined_lane(case):
    kind, error, p = _FIRST_UNDEFINED[case]
    field = _PROFILE_FIELDS[kind]()
    for name in ("u", "v", "w"):
        assert_first_lane_error(getattr(field, name), p, error)


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
# quadrature: one integrand call per refinement round
# ----------------------------------------------------------------------

def _g(p, n):
    t, x, y = jets.coordinate_jets(p, n)
    return jets.sin(t * y) * jets.exp(0.3 * x) + x * x * y


def _bumps(p, n):
    # a Lorentzian bump on each axis, at 1.7, -0.2 and 0.7
    return sum(1.0 / (0.05 + (c - at) * (c - at))
               for c, at in zip(jets.coordinate_jets(p, n), (1.7, -0.2, 0.7)))


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
    if order:
        _, src, scale = tab.derive(ax)
        out[src] = field(p, order).coeffs[:jets.jet_size(order - 1)] / scale
    return Jet3(p, order, out)


@pytest.mark.parametrize("axis,lower", [("x", -0.8), ("t", 2.5),
                                        ("y", 0.1)])
@pytest.mark.parametrize("order", [0, 3, 5, 7])
def test_integrand_called_once_per_panel(axis, lower, order, monkeypatch):
    # one call per refinement round: the first panel, then the two halves
    # of each split together, their abscissae in panel order; a bump on
    # each path makes the quadrature split
    rounds = []
    gk15 = quadrature.gauss_kronrod_15

    def counted(f, a, b):
        rounds.append((np.asarray(a), np.asarray(b)))
        return gk15(f, a, b)
    monkeypatch.setattr(quadrature, "gauss_kronrod_15", counted)
    asked = []

    def g(p, n):
        asked.append(p)
        return _bumps(p, n)

    p = Point(0.9, 0.4, 1.3)
    got = integrate_field_along(g, axis, lower, p, order)
    assert asked[0] is p and len(asked) == 1 + len(rounds) > 2
    ax = "txy".index(axis)
    assert (list(rounds[0][0]), list(rounds[0][1])) == ([lower], [p[ax]])
    for q, (a, b) in zip(asked[1:], rounds):
        assert jets.lanes(q) == 15 * len(a) == 15 * (1 if q is asked[1]
                                                     else 2)
        assert all(type(q[i]) is float and q[i] == p[i]
                   for i in range(3) if i != ax)
        if len(a) == 2:  # the halves of one panel
            assert a[1] == b[0] == 0.5 * (a[0] + b[1])
        # per panel: c, then c - h x_j and c + h x_j for j = 0..6
        for s, lo, hi in zip(q[ax].reshape(-1, 15), a, b):
            c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
            assert s[0] == c
            assert list(s[1::2]) == list(c - h * quadrature._XGK[:7])
            assert list(s[2::2]) == list(c + h * quadrature._XGK[:7])
    monkeypatch.undo()
    assert_close(got.coeffs,
                 _per_node_integral(_bumps, axis, lower, p, order).coeffs)


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


@pytest.mark.parametrize("ys", [(1.3,) * 5, (1.3, 0.2, 0.7, 1.0, 0.5)],
                         ids=["shared_y", "lane_y"])
@pytest.mark.parametrize("order", [0, 3, 6])
def test_lanes_of_an_integral_refine_in_lockstep(ys, order):
    # lanes whose x-paths from -0.8 split 6, 0 (an empty path), 5, 9 and 6
    # times alone: each lane's jet is its single point's bit for bit, and
    # the integrand is asked at p, then once per round, 9 rounds; t, the
    # same in every lane, and y where the round's lanes share it, arrive
    # as floats
    def asking(asked):
        def g(p, n):
            asked.append(p)
            return _bumps(p, n)
        return g

    p = Point(np.full(5, 0.9), np.array([0.4, -0.8, -0.1, 1.5, 0.35]),
              np.array(ys))
    asked = []
    got = integrate_field_along(asking(asked), "x", -0.8, p, order)
    rounds = []
    for i, q in enumerate(_singles(p)):
        alone = []
        want = integrate_field_along(asking(alone), "x", -0.8, q, order)
        assert got.coeffs[i].tobytes() == want.coeffs.tobytes(), i
        rounds.append(len(alone) - 1)
    assert rounds == [6, 0, 5, 9, 6] and len(asked) == 1 + max(rounds)
    for q in asked[1:]:
        assert type(q.t) is float and q.t == 0.9
        assert type(q.y) is float or len(set(q.y.tolist())) > 1
    floats = [type(q.y) is float for q in asked[1:]]
    assert all(floats) if len(set(ys)) == 1 else floats[0] < floats[-1]


def test_line_integral_serves_its_line_with_one_jet():
    # a batch on one line gets one jet, the line's lane of a batch of one;
    # single points keep their own jet of the line, from the scalar path;
    # within each path the kept jet answers the line without asking the
    # integrand again
    asked = []

    def g(p, n):  # does not depend on x
        asked.append(p)
        t, _, y = jets.coordinate_jets(p, n)
        return jets.exp(0.5 * t) * y

    integral = line_integral(g, "t", -0.4, constant_along="x")
    p = Point(0.9, np.linspace(-1.0, 1.0, 7), 0.6)
    got = integral(p, 3)
    assert got.coeffs.shape == (20,) and got.base is p
    lane = integrate_field_along(g, "t", -0.4, p._replace(x=p.x[:1]), 3)
    assert got.coeffs.tobytes() == lane.coeffs[0].tobytes()
    calls = len(asked)
    assert integral(p._replace(x=p.x[::-1]), 3).coeffs.tobytes() == \
        got.coeffs.tobytes()
    assert len(asked) == calls
    first, *rest = _singles(p)
    singles = [integral(first, 3)]
    assert singles[0].coeffs.tobytes() == \
        integrate_field_along(g, "t", -0.4, first, 3).coeffs.tobytes()
    calls = len(asked)
    singles += [integral(q, 3) for q in rest]
    assert len(asked) == calls
    assert_lanes(got, singles)
    across = Point(0.9, 0.2, np.array([0.3, 0.6]))
    assert_lanes(integral(across, 3),
                 [integrate_field_along(g, "t", -0.4, q, 3)
                  for q in _singles(across)])


def test_line_integral_takes_the_lines_it_lacks_in_one_call(monkeypatch):
    # lanes on five (t, y) lines, repeated and unsorted: one line kept by
    # a batch at a lower order and one at a higher, and one kept by a
    # single point only, which a batch does not read; the four lines not
    # kept for batches at order 4 are integrated in one call, one lane per
    # line in the order of their first lanes, and the batch agrees with
    # each lane alone
    def g(p, n):  # does not depend on x
        t, _, y = jets.coordinate_jets(p, n)
        return jets.exp(0.5 * t) * y + t * y * y

    p = Point(np.array([0.9, 0.3, 0.9, 0.6, 0.7, 0.3, 0.9]),
              np.linspace(-1.0, 1.0, 7),
              np.array([0.5, 0.8, 0.5, 0.2, 0.4, 0.8, 0.2]))
    alone = [line_integral(g, "t", -0.4, constant_along="x")(q, 4)
             for q in _singles(p)]
    calls = []
    integrate = quadrature.integrate_field_along

    def counted(field, axis, lower, q, order):
        calls.append((q, order))
        return integrate(field, axis, lower, q, order)

    monkeypatch.setattr(quadrature, "integrate_field_along", counted)
    integral = line_integral(g, "t", -0.4, constant_along="x")
    integral(Point(*(np.array([c]) for c in (0.6, 2.0, 0.2))), 2)
    integral(Point(*(np.array([c]) for c in (0.7, -2.0, 0.4))), 6)
    integral(Point(0.9, 0.0, 0.5), 6)
    del calls[:]
    got = integral(p, 4)
    assert got.base is p and got.coeffs.shape == (7, 35)
    assert_lanes(got, alone)
    [(q, order)] = calls
    first = [0, 1, 3, 6]
    assert order == 4
    for c, want in zip(q, p):
        assert list(c) == list(want[first])
    again = integral(p._replace(x=p.x + 0.5), 3)
    assert len(calls) == 1
    assert again.coeffs.tobytes() == got.truncate(3).coeffs.tobytes()


@pytest.mark.parametrize("kind", ["dt1", "dt1_x2", "dt2", "dt2_x2"])
def test_a_report_does_not_depend_on_a_point_asked_before(kind):
    # the t-leg of each covering solution's path is a line integral kept
    # per line; a grid point asked alone first, on the scalar path, keeps
    # its line for single points only, so every row keeps its bits
    grid = _grid(_DEFAULT_BOX, 3)
    want = system.residual_report(_TRANSFORMS[kind](), grid).rows
    for p in grid:
        field = _TRANSFORMS[kind]()
        field.u(p, system.RESIDUAL_ORDER)
        field.v(p, system.RESIDUAL_ORDER)
        assert system.residual_report(field, grid).rows == want, p


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


#: each batched kernel of :mod:`blp.series` on a batch ``a`` of positive
#: values, a batch ``b`` of the same lanes and one series ``c``
_KERNELS = {
    "mul": lambda a, b, c, lay: lay.mul(a, b),
    "mul_one": lambda a, b, c, lay: lay.mul(b, c),
    "one_mul": lambda a, b, c, lay: lay.mul(c, b),
    "div": lambda a, b, c, lay: series.div(b, a, lay),
    "div_one": lambda a, b, c, lay: series.div(b, c, lay),
    "one_div": lambda a, b, c, lay: series.div(c, a, lay),
    "exp": lambda a, b, c, lay: series.exp(b, lay),
    "ln": lambda a, b, c, lay: series.ln(a, lay),
    "power": lambda a, b, c, lay: series.power(a, -0.5, lay),
    "sin_cos": lambda a, b, c, lay: np.stack(series.sin_cos(b, lay)),
    "sinh_cosh": lambda a, b, c, lay: np.stack(
        series.sin_cos(b, lay, hyper=True)),
    "tan": lambda a, b, c, lay: series.tan(b, lay),
}


@pytest.mark.parametrize("count", [2, 7, 64])
@pytest.mark.parametrize("layout", ["univariate", "trivariate"])
def test_batched_kernels_do_not_couple_lanes(layout, count):
    # each lane of a batch has the bits of that lane as a batch of one
    rng = np.random.default_rng(count)
    for order in ORDERS:
        lay = series.univariate(order) if layout == "univariate" \
            else jets._tables(order)
        a, b, c = (rng.normal(size=shape) * 0.4 ** lay.euler
                   for shape in ((count, lay.size), (count, lay.size),
                                 lay.size))
        a[:, 0] = rng.uniform(0.6, 1.8, count)
        b[:, 0] = rng.uniform(-1.5, 1.5, count)
        c[0] = 1.3
        for name, kernel in _KERNELS.items():
            got = kernel(a, b, c, lay)
            for i in range(count):
                alone = kernel(a[i:i + 1], b[i:i + 1], c, lay)
                assert got[..., i:i + 1, :].tobytes() == alone.tobytes(), \
                    (name, order, i)


# ----------------------------------------------------------------------
# grid reports: one batch against each point alone
# ----------------------------------------------------------------------

def assert_report_by_points(make_field, grid):
    """The report over ``grid`` of one field from ``make_field`` against
    ``residual_report(f, [p])`` for each p on another: the same skips and
    the same rows, bit for bit, in grid order."""
    got = system.residual_report(make_field(), grid)
    field = make_field()
    alone = [system.residual_report(field, [p]) for p in grid]
    assert got.skipped == sum(rep.skipped for rep in alone)
    assert got.rows == [row for rep in alone for row in rep.rows]
    return got


def _grid(box, count):
    axes = [np.linspace(lo, hi, count) for lo, hi in box]
    return [Point(float(t), float(x), float(y))
            for t in axes[0] for x in axes[1] for y in axes[2]]


def _box_grid(fid, count=5):
    return _grid(catalog.default_box(fid), count)


@pytest.mark.parametrize("fid", _FAMILIES)
def test_grid_report_is_each_point_alone(fid):
    assert_report_by_points(lambda: catalog.instantiate(fid, {}),
                            _box_grid(fid))


def test_grid_report_of_every_elliptic_binding():
    for bindings in _elliptic_pool():
        assert_report_by_points(
            lambda: catalog.instantiate("F_R29_ELLIPTIC", bindings),
            _box_grid("F_R29_ELLIPTIC"))


#: the transformed fields with a grid residual: all but the (u,w) form
_GRID_TRANSFORMS = sorted(set(_TRANSFORMS) - {"convert_uw"})


@pytest.mark.parametrize("kind", _GRID_TRANSFORMS)
def test_grid_report_of_a_transformed_field(kind):
    assert_report_by_points(_TRANSFORMS[kind],
                            _grid(_BOXES.get(kind, _DEFAULT_BOX), 3))


@pytest.mark.parametrize("fid", _FAMILIES)
def test_grid_report_is_the_same_without_its_skipped_points(fid):
    # the family's box widened by 1.5 times its width on every side, where
    # most families are undefined at some points: the report over the
    # points evaluated there alone gives the same rows, bit for bit
    wide = system.residual_report(catalog.instantiate(fid, {}), _grid(
        [(lo - 1.5 * (hi - lo), hi + 1.5 * (hi - lo))
         for lo, hi in catalog.default_box(fid)], 4))
    kept = system.residual_report(catalog.instantiate(fid, {}),
                                  [row[0] for row in wide.rows])
    assert kept.skipped == 0
    assert kept.rows == wide.rows


class _Captured(Exception):
    """The field and grid a command was about to report on."""


def _command_field(argv, monkeypatch):
    """The field and grid of ``blp`` ``argv``, built as the command does."""
    def capture(field, grid):
        raise _Captured(field, grid)

    with monkeypatch.context() as m:
        m.setattr(system, "residual_report", capture)
        with pytest.raises(_Captured) as info:
            cli.main(argv)
    return info.value.args


@pytest.mark.parametrize("case", sorted(_DOMAIN_EDGE_RUNS))
def test_grid_report_across_a_domain_edge(case, monkeypatch):
    argv, _, (skipped, evaluated) = _DOMAIN_EDGE_RUNS[case]
    grid = _command_field(argv, monkeypatch)[1]
    rep = assert_report_by_points(
        lambda: _command_field(argv, monkeypatch)[0], grid)
    assert (rep.skipped, len(rep.rows)) == (skipped, evaluated)


def _scalar_field(u):
    """A (u,v) field with the given u and v = 0."""
    return system.SolutionField(
        u=u, v=lambda p, n: Jet3.constant(0.0, p, n), coords="UV")


def test_a_stall_after_an_undefined_point_is_named_at_its_point():
    grid = [Point(1.0, 0.1 * i, 0.5) for i in range(8)]
    undefined, first, second = grid[1], grid[4], grid[6]

    @jets.as_batch
    def u(p, n):
        jets.raise_where(p.x == undefined.x, None, "undefined here")
        jets.raise_where(
            (p.x == first.x) | (p.x == second.x), p.x, "stalled at x = {}",
            lambda message: quadrature.QuadratureError(message, "stall"))
        return Jet3.constant(0.0, p, n)

    with pytest.raises(quadrature.QuadratureError) as info:
        system.residual_report(_scalar_field(u), grid)
    assert info.value.reason == "stall"
    assert str(info.value) == (
        f"stalled at x = {first.x} at grid point (t, x, y) = "
        f"({first.t!r}, {first.x!r}, {first.y!r})")


class _Negative(DomainError):
    """The first check of :func:`_two_checks`."""


class _BeyondTwo(DomainError):
    """The second check of :func:`_two_checks`."""


def _two_checks(x):
    jets.raise_where(x < 0.0, x, "negative x = {}", _Negative)
    jets.raise_where(x > 2.0, x, "x = {} beyond 2", _BeyondTwo)


def _raised(fn, *args):
    with pytest.raises(BLPError) as info:
        fn(*args)
    return type(info.value), str(info.value)


def _named(fn, *args):
    """The class of the error ``fn(*args)`` raises on a batch, and the
    lanes it names."""
    with pytest.raises(BLPError) as info:
        fn(*args)
    assert isinstance(info.value.lanes, np.ndarray), info.value
    assert info.value.lanes.dtype == bool
    return type(info.value), np.flatnonzero(info.value.lanes).tolist()


def test_one_rule_for_a_failing_batch():
    # a guard, P and the lockstep quadrature side by side: a batch raises
    # at its first check that fails, with that check's first failing
    # lane, though an earlier lane fails a later check, and names the
    # lanes that fail that check; each lane alone raises its own error
    x = np.array([0.5, 3.0, -1.0, -2.0])
    assert _raised(_two_checks, x) == (_Negative, "negative x = -1.0")
    assert _named(_two_checks, x) == (_Negative, [2, 3])
    assert [_raised(_two_checks, v) for v in x[1:].tolist()] == [
        (_BeyondTwo, "x = 3.0 beyond 2"), (_Negative, "negative x = -1.0"),
        (_Negative, "negative x = -2.0")]
    inv = specfun.EllipticInvariants(5.0, 0.0)
    z = np.array([0.5, 0.0, math.inf])
    assert _raised(specfun.weierstrass_p, z, inv) == (
        specfun.NonFiniteError, "non-finite argument")
    assert _named(specfun.weierstrass_p, z, inv) == (
        specfun.NonFiniteError, [2])
    assert _raised(specfun.weierstrass_p, 0.0, inv) == (
        specfun.PoleError, "argument at the origin pole")
    # alone, 1/sqrt(s) fails in round 47 and 1/(s - 1/3) in round 33
    fs = [math.exp, lambda s: 1.0 / math.sqrt(s), lambda s: 1.0 / (s - 1 / 3)]

    def lanes_of(s, k):
        return np.array([fs[i](v) for v, i in zip(s.tolist(), k.tolist())])

    batch = _raised(quadrature.adaptive_quadrature, lanes_of, 0.0,
                    np.ones(3))
    alone = [_raised(quadrature.adaptive_quadrature, per_node(f), 0.0, 1.0)
             for f in fs[1:]]
    assert batch == alone[1] != alone[0]
    assert batch[1].startswith("refinement stalled")
    assert _named(quadrature.adaptive_quadrature, lanes_of, 0.0,
                  np.ones(3)) == (quadrature.QuadratureError, [2])

    # a report over lanes that fail the three: u passes the two checks,
    # then P at x - 0.5, then a quadrature of 1/(s - c) from 0 to x, one
    # lane per point; the batch of the whole grid raises at its first
    # failing check, yet the report is that of its points alone: the same
    # skips and rows, and the first point whose own quadrature fails named
    c = 1.5 + 1 / 7

    def pole(s, k):
        return np.array([1.0 / (v - c) for v in s.tolist()])

    def u(p, n):
        x = jets.lift_variable("x", p, n)
        _two_checks(x.value)
        specfun.weierstrass_p(np.atleast_1d(x.value - 0.5), inv)
        quadrature.adaptive_quadrature(pole, 0.0, np.atleast_1d(x.value))
        return x * x

    xs = [0.25, 3.0, -1.0, 0.5, 1.0, -0.5, 0.5, 0.75]
    grid = [Point(1.0, x, 0.5) for x in xs]
    rep = assert_report_by_points(lambda: _scalar_field(u), grid)
    assert (rep.skipped, len(rep.rows)) == (5, 3)
    # alone, the quadrature to 1.9 ends on the width floor, to 2 stalls
    fails = [Point(1.0, x, 0.5) for x in (0.25, -1.0, 1.9, 0.5, 2.0)]
    got = _raised(system.residual_report, _scalar_field(u), fails)
    assert got == _raised(system.residual_report, _scalar_field(u),
                          fails[2:3])
    assert got[0] is quadrature.QuadratureError
    assert "below width floor" in got[1]


def _near_one(p, n):
    """x^2, undefined within 0.1 of x = 1, lane by lane."""
    x = jets.lift_variable("x", p, n)
    jets.raise_where(np.abs(x.value - 1.0) < 0.1, x.value, "x = {} near 1")
    return x * x


def _sites():
    """Each site where a batch raises, beyond the guards and the stall of
    :func:`test_one_rule_for_a_failing_batch`: (the call on a batch, each
    lane's call alone, the lanes the batch names)."""
    z = np.array([0.1, 2.479789, 1.0, -2.479789, 2.0])
    inv = specfun.EllipticInvariants(5.0, 0.0)

    def beyond_one(p, n):
        x = jets.lift_variable("x", p, n)
        jets.raise_where(x.value > 1.0, x.value, "x = {} beyond 1")
        return x

    image = transforms.apply_symmetry(transforms.p_transform("0.5"),
                                      _scalar_field(beyond_one))
    shifted = Point(1.0, np.array([0.5, 1.7, 1.2, 2.0]), 0.5)
    ends = np.array([0.5, 2.0, 1.0, 3.0])

    def guarded(s, k=None):
        jets.raise_where(s > 1.5, s, "s = {} beyond 1.5")
        return s

    # a zero-length lane first: the quadrature's lanes are the others
    along = Point(1.0, np.array([0.0, 0.5, 2.0, 1.8]), 0.5)
    line = quadrature.line_integral(_near_one, "x", 0.0, constant_along="y")
    lines = Point(1.0, np.array([0.5, 2.0, 2.0, 0.5]),
                  np.array([0.1, 0.2, 0.3, 0.4]))
    # over the zero (u,q) field, x + y carries e^(x-t) + y^2 to
    # e^(x-t) - y^2 - 2xy, which vanishes where x = 0 and y = e^(-t/2):
    # the second dressing's guard fires in lanes 1 and 3, the first's in none
    zero = system.SolutionField(u=lambda p, n: Jet3.constant(0.0, p, n),
                                v=lambda p, n: Jet3.constant(0.0, p, n),
                                coords="UQ")
    twice = transforms.darboux_iterated("DT1", zero, [
        transforms.CoveringEigenfunction(phi=psi, attached_to=zero)
        for psi in (_jmap(lambda t, x, y: x + y),
                    _jmap(lambda t, x, y: jets.exp(x - t) + y * y))])
    on_zero = Point(np.array([0.5, 0.0, 1.0, 2.0 * math.log(2.0)]),
                    np.array([0.3, 0.0, 0.2, 0.0]),
                    np.array([0.7, 1.0, 0.4, 0.5]))

    return {
        # a duplication step, which a finished lane sits out
        "weierstrass_p": (lambda: specfun.weierstrass_p(z, inv),
                          lambda i: specfun.weierstrass_p(float(z[i]), inv),
                          [1, 3]),
        # the base field, asked once at the batch of old points
        "symmetry image": (lambda: image.u(shifted, 2),
                           lambda i: image.u(jets.lane(shifted, i), 2),
                           [1, 3]),
        "quadrature integrand": (
            lambda: quadrature.adaptive_quadrature(guarded, 0.0, ends),
            lambda i: quadrature.adaptive_quadrature(guarded, 0.0,
                                                     float(ends[i])),
            [1, 3]),
        "integrate_field_along": (
            lambda: integrate_field_along(_near_one, "x", 0.0, along, 2),
            lambda i: integrate_field_along(_near_one, "x", 0.0,
                                            jets.lane(along, i), 2), [2, 3]),
        # two lanes on the failing line
        "line_integral": (lambda: line(lines, 2),
                          lambda i: line(jets.lane(lines, i), 2), [1, 2]),
        "n-fold dressing": (lambda: twice.u(on_zero, 1),
                            lambda i: twice.u(jets.lane(on_zero, i), 1),
                            [1, 3]),
    }


@pytest.mark.parametrize("site", sorted(_sites()))
def test_every_batch_error_names_its_lanes(site):
    # the error raised on a batch names its failing lanes, and each named
    # lane raises an error of the same class asked alone
    batch, alone, want = _sites()[site]
    error, named = _named(batch)
    assert named == want
    for i in named:
        with pytest.raises(error):
            alone(i)


def test_an_error_that_names_no_lane_drops_every_lane():
    # a map that raises a plain UndefinedHere on a batch, with no lanes:
    # the report asks every point again alone, and is still that of its
    # points asked one at a time
    asked = []

    def u(p, n):
        x = jets.lift_variable("x", p, n)
        asked.append(jets.lanes(p))
        if np.any(np.abs(x.value - 1.0) < 0.1):
            raise UndefinedHere("near 1")
        return x * x

    grid = [Point(1.0, x, 0.5) for x in (0.5, 1.05, 0.25, 0.95, 0.75)]
    rep = system.residual_report(_scalar_field(u), grid)
    assert (rep.skipped, len(rep.rows)) == (2, 3)
    assert asked == [5, 1, 1, 1, 1, 1]
    assert_report_by_points(lambda: _scalar_field(u), grid)


#: (grid points, lanes asked) of a report on boxes that cross domain
#: edges: the whole grid as one batch, the points its errors do not name
#: as another, and each named point alone
_LANES_ASKED = {"F_R29_ELLIPTIC~wide": (243, 486), "F_VXXX_2": (64, 188),
                "F_R24_PAINLEVE4": (64, 176), "F_R29_PAINLEVE2": (60, 120)}


@pytest.mark.parametrize("case", sorted(_LANES_ASKED))
def test_lanes_a_report_asks_per_grid_point(case, monkeypatch):
    field, grid = _command_field(_DOMAIN_EDGE_RUNS[case][0], monkeypatch)
    asked = []

    def counted(p, n):
        asked.append(jets.lanes(p))
        return field.u(p, n)

    system.residual_report(field.with_meta(u=counted), grid)
    assert (len(grid), sum(asked)) == _LANES_ASKED[case]


def test_an_error_only_a_batch_raises_is_not_a_skip():
    def u(p, n):
        if (jets.lanes(p) or 1) > 1:
            raise TypeError("a batch")
        return Jet3.constant(0.0, p, n)

    grid = [Point(1.0, 0.1 * i, 0.5) for i in range(4)]
    field = _scalar_field(u)
    assert system.residual_report(field, grid[:1]).skipped == 0
    with pytest.raises(TypeError, match="^a batch$"):
        system.residual_report(field, grid)


def test_a_covering_check_names_its_failing_lane():
    _, seed, phis = _rich()
    good = phis[0].phi
    p = Point(1.1, np.array([0.5, 0.6, 0.7]), 0.7)
    bad = jets.lane(p, 1)

    def phi(q, n):
        # a defect in the lane of bad alone
        return good(q, n) + 0.01 * (q.x == bad.x) \
            * jets.lift_variable("x", q, n) ** 2

    eigen = transforms.CoveringEigenfunction(phi, seed)
    eigen.check(jets.lane(p, 0))
    with pytest.raises(transforms.CoveringViolation) as info:
        eigen.check(p)
    alone = pytest.raises(transforms.CoveringViolation, eigen.check, bad)
    assert str(info.value) == str(alone.value)
    assert str(info.value).endswith(
        f"at (t, x, y) = ({bad.t!r}, {bad.x!r}, {bad.y!r})")
