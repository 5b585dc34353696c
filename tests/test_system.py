import json
import math

import numpy as np
import pytest
from test_acceptance import QUADRATURE_FAMILIES

from blp import catalog, jets, reductions, system, transforms
from blp.exprdsl import parse
from blp.jets import Jet3, Point
from blp.system import (
    COVERING_ORDER, CURRENT_ORDER, RESIDUAL_ORDER, SolutionField,
    conserved_current_divergence, convert, covering_residual, perturb_v,
    report_json, residual, residual_report, residual_uq,
)


def jmap(fn):
    """Wrap a closure of coordinate jets into a JetMap."""
    def m(p, n):
        t, x, y = jets.coordinate_jets(p, n)
        return fn(t, x, y)
    return m


def const_map(c):
    return lambda p, n: Jet3.constant(c, p, n)


TRIVIAL = SolutionField(u=const_map(0.0), v=jmap(lambda t, x, y: x),
                        coords="UV", family_id="trivial")


def test_trivial_solution():
    r1, r2 = residual(TRIVIAL, Point(1.0, 0.3, -0.4))
    assert r1 == 0.0 and r2 == 0.0


def test_u_equals_v_family():
    # u = v = 1/(x+y) + (x+y)/(-2t), a known exact solution
    def f(t, x, y):
        z = x + y
        return 1.0 / z + z / (-2.0 * t)

    s = SolutionField(u=jmap(f), v=jmap(f), coords="UV")
    r1, r2 = residual(s, Point(1.0, 0.3, 0.5))
    assert abs(r1) < 1e-11 and abs(r2) < 1e-11


def test_non_solution_detected():
    # u = sin x with v = y happens to solve the system (everything vanishes);
    # v = x makes the second equation fail with r2 = -2 sin x
    s0 = SolutionField(u=jmap(lambda t, x, y: jets.sin(x)),
                       v=jmap(lambda t, x, y: y), coords="UV")
    assert residual(s0, Point(0.0, 1.0, 0.0)) == (0.0, 0.0)
    s = SolutionField(u=jmap(lambda t, x, y: jets.sin(x)),
                      v=jmap(lambda t, x, y: x), coords="UV")
    r1, r2 = residual(s, Point(0.0, 1.0, 0.0))
    assert r2 == pytest.approx(-2.0 * math.sin(1.0))


def test_covering_residual_seed():
    zero_uq = SolutionField(u=const_map(0.0), v=const_map(0.0), coords="UQ")
    c1, c2 = covering_residual(zero_uq, jmap(lambda t, x, y: x + y),
                               Point(0.5, 0.2, 0.1))
    assert c1 == 0.0 and c2 == 0.0

    # psi = e^(x-t) + y solves the covering over u=q=0
    psi = jmap(lambda t, x, y: jets.exp(x - t) + y)
    c1, c2 = covering_residual(zero_uq, psi, Point(0.5, 0.2, 0.1))
    assert abs(c1) < 1e-14 and abs(c2) < 1e-12

    c1, _ = covering_residual(zero_uq, jmap(lambda t, x, y: x * y),
                              Point(0.5, 0.2, 0.1))
    assert c1 == 1.0


def test_uq_residual_on_seed():
    # u = -Phi_x/Phi, q = 0 with backward-heat Phi = e^(x - t)
    def u(p, n):
        t, x, y = jets.coordinate_jets(p, n + 1)
        phi = jets.exp(x - t)
        return (-phi.derive("x") / phi.truncate(n))

    s = SolutionField(u=u, v=const_map(0.0), coords="UQ")
    r1, r2 = residual_uq(s, Point(0.4, -0.2, 0.7))
    assert abs(r1) < 1e-12 and abs(r2) < 1e-12


def test_current_divergence_trivial():
    assert conserved_current_divergence("F4", 1.0, TRIVIAL,
                                        Point(0.5, 0.2, 0.1)) == 0.0


def test_current_divergence_hopf_cole():
    # u = Phi_x/Phi, v = Phi_y/Phi with Phi = e^(x+t) + y
    def phi(t, x, y):
        return jets.exp(x + t) + y

    def u(p, n):
        t, x, y = jets.coordinate_jets(p, n + 1)
        f = phi(t, x, y)
        return f.derive("x") / f.truncate(n)

    def v(p, n):
        t, x, y = jets.coordinate_jets(p, n + 1)
        f = phi(t, x, y)
        return f.derive("y") / f.truncate(n)

    s = SolutionField(u=u, v=v, coords="UV")
    pts = [Point(0.1 * i, 0.07 * j, 0.2 + 0.05 * k)
           for i in range(1, 3) for j in range(1, 3) for k in range(2)]
    # sanity: it is a solution
    for p in pts:
        r1, r2 = residual(s, p)
        assert abs(r1) < 1e-10 and abs(r2) < 1e-10
    nu = parse("y", "y")
    for p in pts:
        div = conserved_current_divergence("F5", nu, s, p)
        assert abs(div) < 1e-9

    for cid, par in [("F0", parse("t^2", "t")), ("F1", 1.0),
                     ("F2", parse("sin(t)", "t")), ("F4", parse("y^2", "y"))]:
        for p in pts[:4]:
            assert abs(conserved_current_divergence(cid, par, s, p)) < 1e-9


def test_current_detector_on_perturbation():
    bad = perturb_v(TRIVIAL, eps=0.1)
    h = parse("t^2", "t")
    div = conserved_current_divergence("F0", h, bad, Point(1.0, 0.5, 0.2))
    assert abs(div) > 1e-3


def test_convert_uv_uw():
    w_field = convert(TRIVIAL, "UW", Point(1.0, 0.0, 0.0))
    assert w_field.w(Point(2.0, 1.0, 3.0), 2).value == 1.0


def test_convert_round_trip():
    base = Point(1.0, 0.0, 0.0)
    uq = convert(TRIVIAL, "UQ", base)
    # v = x means v_x = 1, so q = y - y0 in the chosen gauge
    q = uq.q(Point(1.5, 0.7, 2.0), 2)
    assert q.value == pytest.approx(2.0, abs=1e-10)
    assert q.extract((0, 0, 1)) == pytest.approx(1.0, abs=1e-10)

    back = convert(uq, "UV", base)
    p = Point(1.3, 0.8, 1.7)
    vj = back.v(p, 2)
    # recovered up to an additive function of y: v_x must match exactly
    assert vj.extract((0, 1, 0)) == pytest.approx(1.0, abs=1e-9)
    r1, r2 = residual(back, p)
    assert abs(r1) < 1e-7 and abs(r2) < 1e-7


def test_report_serialization():
    grid = [Point(1.0, 0.1 * i, 0.2 * j) for i in range(3) for j in range(3)]
    rep = residual_report(TRIVIAL, grid)
    assert rep.r1_max == 0.0
    assert rep.skipped == 0
    assert json.loads(report_json(rep.summary())) == rep.summary()
    assert rep.r1_rms <= rep.r1_max + 1e-15


def test_report_nonfinite_residual():
    bad = Point(1.0, 0.2, 0.4)
    nan_u = SolutionField(
        u=jets.per_lane(
            lambda p, n: Jet3.constant(math.nan if p == bad else 0.0, p, n)),
        v=TRIVIAL.v, coords="UV", family_id="nan_at")
    grid = [Point(1.0, 0.1 * i, 0.2 * j) for i in range(3) for j in range(3)]
    rep = residual_report(nan_u, grid)
    assert math.isnan(rep.r1_max) and rep.nonfinite == 1

    def reject_constant(name):
        raise ValueError(f"non-standard JSON constant {name}")
    payload = json.loads(report_json(rep.summary()),
                         parse_constant=reject_constant)
    assert payload["nonfinite"] == 1
    assert payload["r1_max"] == "NaN" and payload["r1_rms"] == "NaN"
    assert "nonfinite" not in report_json(
        residual_report(TRIVIAL, grid).summary())


def test_report_names_the_point_where_quadrature_failed():
    from blp.quadrature import QuadratureError
    bad = Point(1.0, 0.2, 0.4)

    @jets.per_lane
    def u(p, n):
        if p == bad:
            raise QuadratureError("refinement stalled", "stall")
        return Jet3.constant(0.0, p, n)

    stalls = SolutionField(u=u, v=TRIVIAL.v, coords="UV", family_id="stall")
    grid = [Point(1.0, 0.1 * i, 0.2 * j) for i in range(3) for j in range(3)]
    with pytest.raises(QuadratureError) as info:
        residual_report(stalls, grid)
    assert info.value.reason == "stall"
    assert str(info.value) == \
        "refinement stalled at grid point (t, x, y) = (1.0, 0.2, 0.4)"


def test_report_skips_the_points_where_a_path_failed():
    # the y-path of q from y0 = 0 crosses alpha = 0 of the image family
    field = transforms.laplace_forward_uq(convert(
        catalog.instantiate("F_LAPLACE_IMG_FWD4", {}), "UQ",
        Point(1.0, 0.0, 0.0)))
    grid = [Point(t, x, y) for t in (0.6, 1.4) for x in (0.3, 1.3)
            for y in (0.2, 1.2)]
    with pytest.raises(jets.DomainError,
                       match="^alpha must stay away from zero$"):
        field.v(grid[0], system.RESIDUAL_ORDER)
    rep = residual_report(field, grid)
    assert (rep.skipped, rep.rows) == (8, [])


def test_report_json_writes_nested_nonfinite_as_strings():
    text = report_json({"params": {"kappa": math.inf, "pair": (math.nan, 1.5)},
                        "r1_max": -math.inf, "skipped": 0})

    def reject_constant(name):
        raise ValueError(f"non-standard JSON constant {name}")
    assert json.loads(text, parse_constant=reject_constant) == {
        "params": {"kappa": "Infinity", "pair": ["NaN", 1.5]},
        "r1_max": "-Infinity", "skipped": 0}


def test_convert_uw_paths():
    base = Point(1.0, 0.3, 0.4)
    s = SolutionField(
        u=jmap(lambda t, x, y: 0.0 * x),
        v=jmap(lambda t, x, y: x * x + jets.sin(y) * x + 2.0 * t),
        coords="UV", family_id="quadratic")
    uw = convert(s, "UW", base)
    p = Point(1.2, 0.7, 0.9)
    assert uw.w(p, 1).value == pytest.approx(2 * p.x + math.sin(p.y),
                                             abs=1e-12)
    # UW -> UQ integrates w over y; q_y must equal w
    uq = convert(uw, "UQ", base)
    qj = uq.q(p, 2)
    assert qj.extract((0, 0, 1)) == pytest.approx(uw.w(p, 1).value,
                                                  abs=1e-9)
    # UW -> UV reconstructs a field solving the system again
    back = convert(uw, "UV", base)
    r1, r2 = residual(back, p)
    assert abs(r1) < 1e-7 and abs(r2) < 1e-7
    assert back.v(p, 1).extract((0, 1, 0)) == pytest.approx(
        uw.w(p, 1).value, abs=1e-9)


# ----------------------------------------------------------------------
# each check reads its jets at the order its equations need: one order
# more gives the same value bit for bit, one order less cannot be read
# ----------------------------------------------------------------------

def _shifted(m, k):
    """A jet map that answers order n with its jet at order n + k."""
    return lambda p, n: m(p, n + k)


def _shifted_field(s, k):
    return s.with_meta(u=_shifted(s.u, k), v=_shifted(s.v, k))


def _assert_order_needed(check, fresh, order):
    """``check(jets at order n)`` is the same at order + 1, and raises a
    ``ValueError`` at order - 1; ``fresh()`` builds its inputs anew."""
    assert check(fresh(), order) == check(fresh(), order + 1)
    with pytest.raises(ValueError):
        check(fresh(), order - 1)


def _box_centre(family_id):
    box = catalog.default_box(family_id)
    return Point(*(0.5 * (lo + hi) for lo, hi in box))


@pytest.mark.parametrize("fid", [d.id for d in catalog.list_families()
                                 if d.id not in QUADRATURE_FAMILIES])
def test_residual_order_is_enough_and_needed(fid):
    p = _box_centre(fid)
    equations = system._RESIDUALS[catalog.instantiate(fid, {}).coords]

    def check(s, n):
        return equations(s.u(p, n), s.v(p, n))
    _assert_order_needed(check, lambda: catalog.instantiate(fid, {}),
                         RESIDUAL_ORDER)


def _uq_seed(constraint):
    if constraint == "q_y=0":
        witness = catalog.heat_witness_library(
            "gaussian", t0=1.5, x0=0.2, direction="backward")
    else:
        witness = catalog.heat_witness_library("gaussian", t0=-0.5, x0=0.2)
    return transforms.uq_seed(witness, constraint=constraint)


_UQ_POINT = Point(0.4, -0.2, 0.7)


@pytest.mark.parametrize("constraint", ["q_y=0", "u_y=q_y"])
def test_uq_residual_order_is_enough_and_needed(constraint):
    def check(s, n):
        return system._uq_residual(s.u(_UQ_POINT, n), s.v(_UQ_POINT, n))
    _assert_order_needed(check, lambda: _uq_seed(constraint), RESIDUAL_ORDER)
    assert max(map(abs, residual_uq(_uq_seed(constraint), _UQ_POINT))) < 1e-12


@pytest.mark.parametrize("constraint", ["q_y=0", "u_y=q_y"])
def test_covering_order_is_enough_and_needed(constraint):
    # over u = -Phi_x/Phi, q = 0 the eigenfunctions include zeta(y) Phi;
    # over u = q = Phi_x/Phi they include zeta(y)/Phi
    sign = 1.0 if constraint == "q_y=0" else -1.0
    witness = catalog.heat_witness_library(
        "plane_exp", k=0.7,
        direction="backward" if constraint == "q_y=0" else "forward")

    def psi(p, n):
        y = jets.coordinate_jets(p, n)[2]
        return (1.0 + 0.2 * y * y) * witness.Phi(p, n) ** sign

    def check(args, n):
        s, f = args
        k = n - COVERING_ORDER
        return covering_residual(_shifted_field(s, k), _shifted(f, k),
                                 _UQ_POINT)
    def fresh():
        return transforms.uq_seed(witness, constraint=constraint), psi
    _assert_order_needed(check, fresh, COVERING_ORDER)
    assert max(map(abs, check(fresh(), COVERING_ORDER))) < 1e-12


@pytest.mark.parametrize("cid,param", [
    ("F0", parse("t^2", "t")), ("F1", 1.0), ("F2", parse("sin(t)", "t")),
    ("F4", parse("y^2", "y")), ("F5", parse("y", "y"))])
def test_current_order_is_enough_and_needed(cid, param):
    p = _box_centre("F_HOPFCOLE2D")

    def check(s, n):
        return conserved_current_divergence(
            cid, param, _shifted_field(s, n - CURRENT_ORDER), p)
    _assert_order_needed(
        check, lambda: catalog.instantiate("F_HOPFCOLE2D", {}), CURRENT_ORDER)


def _symmetry_image():
    g = transforms.d_transform("t + 0.3*sin(t)").compose(
        transforms.s_transform("y + 0.4*sin(y)"))
    return transforms.apply_symmetry(g, catalog.instantiate(
        "F_VXXX_4", {"alpha": "sin(y)", "gamma": "y"}))


#: (field, its (t, x, y) box, skipped, evaluated, residual bound): each
#: box crosses an edge of the field's domain: a chart guard, the path of
#: F_VXXX_2's integral, a profile window or the image of a symmetry's
#: inverse map
_DOMAIN_EDGES = {
    "F_VXXX_2": (lambda: catalog.instantiate(
        "F_VXXX_2", {"beta": "y-2", "theta": "t", "t0": 1}),
        ((0.1, 2.5), (-0.5, 1.5), (0.0, 1.5)), 168, 175, 1e-6),
    "F_UY0_QB": (lambda: catalog.instantiate("F_UY0_QB", {}),
                 ((0.2, 1.2), (-0.5, 0.5), (0.1, 1.0)), 49, 294, 1e-8),
    "F_R29_ELEM_1": (lambda: catalog.instantiate("F_R29_ELEM_1", {}),
                     ((0.1, 1.0), (-1.5, 1.5), (-0.3, 0.6)), 63, 280, 1e-8),
    "F_R24_PAINLEVE4": (lambda: catalog.instantiate("F_R24_PAINLEVE4", {}),
                        ((-0.2, 1.2), (-1.5, 1.5), (-1.5, 1.5)), 144, 199,
                        1e-6),
    "F_R29_PAINLEVE2": (lambda: catalog.instantiate("F_R29_PAINLEVE2", {}),
                        ((0.1, 1.0), (-2.0, 0.5), (-1.0, 0.5)), 203, 140,
                        1e-6),
    "F_R23": (lambda: reductions.reduction_2_3_field(0, 0.5),
              ((0.1, 1.0), (-0.5, 0.5), (0.1, 1.0)), 49, 294, 1e-8),
    "symmetry": (_symmetry_image, ((4.0, 9.0), (-0.5, 0.5), (4.0, 9.0)),
                 280, 63, 1e-8),
}


@pytest.mark.parametrize("case", _DOMAIN_EDGES)
def test_residual_report_at_domain_edges(case):
    # a point is skipped only by the error its own evaluation raises
    build, box, skipped, evaluated, bound = _DOMAIN_EDGES[case]
    field = build()
    axes = [np.linspace(lo, hi, 7) for lo, hi in box]
    grid = [Point(t, x, y) for t in axes[0] for x in axes[1] for y in axes[2]]
    assert all(map(field.validity, grid))
    rep = residual_report(field, grid)
    assert (rep.skipped, len(rep.rows)) == (skipped, evaluated)
    assert max(rep.r1_max, rep.r2_max) < bound
