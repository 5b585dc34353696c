import json
import math

import pytest

from blp import jets
from blp.exprdsl import parse
from blp.jets import Jet3, Point
from blp.system import (
    SolutionField, conserved_current_divergence, convert, covering_residual,
    perturb_v, residual, residual_report, residual_uq,
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
    assert '"family": "trivial"' in rep.to_json()
    assert rep.r1_rms <= rep.r1_max + 1e-15


def test_report_nonfinite_residual():
    bad = Point(1.0, 0.2, 0.4)
    nan_u = SolutionField(
        u=lambda p, n: Jet3.constant(math.nan if p == bad else 0.0, p, n),
        v=TRIVIAL.v, coords="UV", family_id="nan_at")
    grid = [Point(1.0, 0.1 * i, 0.2 * j) for i in range(3) for j in range(3)]
    rep = residual_report(nan_u, grid)
    assert math.isnan(rep.r1_max) and rep.nonfinite == 1

    def reject_constant(name):
        raise ValueError(f"non-standard JSON constant {name}")
    payload = json.loads(rep.to_json(), parse_constant=reject_constant)
    assert payload["nonfinite"] == 1
    assert payload["r1_max"] == "NaN" and payload["r1_rms"] == "NaN"
    assert "nonfinite" not in residual_report(TRIVIAL, grid).to_json()


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
