import numpy as np
import pytest

from blp import jets, reductions
from blp.exprdsl import parse
from blp.jets import Point, UndefinedHere
from blp.reductions import (
    BadSpec, ODETrajectory, PoleAbort, ReductionSpec, WindowError,
    ZeroCrossing, first_integral_2_4,
    first_integrals_2_9, integrate_painleve2, integrate_painleve4_form,
    reconstruct_2_4, reconstruct_2_9, reduction_2_3_field,
)
from blp.system import residual, residual_report


PII_SPEC = ReductionSpec(id="R2_9", C0=0.0, C1=2.0, C2=0.0, delta=1.0,
                         init=(-2.0, 0.5, 0.25))


@pytest.fixture(scope="module")
def pii_traj():
    return integrate_painleve2(PII_SPEC, span=(-2.0, -0.5))


@pytest.fixture(scope="module")
def piv_traj():
    spec = ReductionSpec(id="R2_4", C0=0.25, C1=2.0, eps=1,
                         init=(0.0, 1.2, -1.0))
    return spec, integrate_painleve4_form(spec, span=(-1.0, 1.0))


def test_bad_specs():
    with pytest.raises(BadSpec):
        ReductionSpec(id="R9_9")
    with pytest.raises(BadSpec):
        integrate_painleve2(ReductionSpec(id="R2_9", C1=0.0), span=(-1, 0))
    with pytest.raises(BadSpec):
        integrate_painleve2(ReductionSpec(id="R2_4", C1=1.0), span=(-1, 0))
    with pytest.raises(ZeroCrossing):
        integrate_painleve4_form(
            ReductionSpec(id="R2_4", init=(0.0, 0.0, 1.0)), span=(-1, 1))


def test_pii_rational_oracle(pii_traj):
    # w = -1/z solves the second Painleve equation with unit parameter
    worst = max(abs(pii_traj(float(z))[0] + 1.0 / z)
                for z in np.linspace(-2.0, -0.5, 300))
    assert worst < 1e-7


def test_pii_dense_residual(pii_traj):
    nu = 0.5 + PII_SPEC.delta / PII_SPEC.C1
    for z in np.linspace(-1.99, -0.51, 150):
        c = pii_traj.series(float(z), 2)
        res = 2.0 * c[2] - (2.0 * c[0] ** 3 + float(z) * c[0] + nu)
        assert abs(res) < 1e-8


def test_pole_abort_on_blowup():
    spec = ReductionSpec(id="R2_9", C1=2.0, delta=1.0, init=(0.0, 8.0, 0.0))
    with pytest.raises(PoleAbort) as ei:
        integrate_painleve2(spec, span=(-1.0, 2.0))
    assert ei.value.trajectory is not None
    assert len(ei.value.trajectory.grid) > 2
    assert ei.value.last_safe is not None


def test_window_error(pii_traj):
    with pytest.raises(WindowError):
        pii_traj(-3.5)


def test_piv_first_integral_constancy(piv_traj):
    spec, traj = piv_traj
    lo, hi = traj.window()
    vals = np.array([first_integral_2_4(traj, spec, float(w))
                     for w in np.linspace(lo + 0.01, hi - 0.01, 200)])
    assert np.max(np.abs(vals - spec.C0)) < 1e-6
    assert np.max(np.abs(vals - vals[0])) < 1e-6


def test_piv_tolerance_scaling():
    spec = ReductionSpec(id="R2_4", C0=0.25, C1=2.0, eps=1,
                         init=(0.0, 1.2, -1.0))

    def drift(tol):
        traj = integrate_painleve4_form(spec, span=(-1.0, 1.0), tol=tol)
        lo, hi = traj.window()
        vals = np.array([first_integral_2_4(traj, spec, float(w))
                         for w in np.linspace(lo + 0.01, hi - 0.01, 200)])
        return np.max(np.abs(vals - vals[0]))

    d1, d2 = drift(1e-10), drift(5e-11)
    assert d1 / d2 >= 4.0


def test_piv_dense_residual(piv_traj):
    spec, traj = piv_traj
    C0t = 16.0 * spec.C0 - 2.0
    lo, hi = traj.window()
    for w in np.linspace(lo + 0.02, hi - 0.02, 120):
        c = traj.series(float(w), 2)
        f, d, fpp = c[0], c[1], 2.0 * c[2]
        res = f * fpp - (0.5 * d * d + 1.5 * f ** 4 + 4.0 * w * f ** 3
                         + 2.0 * (w * w - spec.C1) * f * f + C0t)
        assert abs(res) < 1e-8


def test_reconstruct_2_4_residual(piv_traj):
    spec, traj = piv_traj
    field = reconstruct_2_4(traj, spec)
    pts = [Point(t, x, y) for t in (0.6, 0.9, 1.2)
           for x in (-0.3, 0.2) for y in (-0.2, 0.3)]
    used = 0
    for p in pts:
        if not field.validity(p):
            continue
        try:
            r1, r2 = residual(field, p)
        except UndefinedHere:
            continue
        used += 1
        assert abs(r1) < 1e-6 and abs(r2) < 1e-6
    assert used >= 8
    with pytest.raises(WindowError):
        field.u(Point(0.001, 5.0, 5.0), 1)


def test_reconstruct_2_4_invariance(piv_traj):
    # the field is invariant under the shear and scaling generators that
    # define the reduction: (d_y - d_x) u = 0 and the weighted scaling
    spec, traj = piv_traj
    field = reconstruct_2_4(traj, spec)
    for p in [Point(0.8, 0.1, 0.2), Point(1.1, -0.2, 0.3)]:
        u = field.u(p, 2)
        v = field.v(p, 2)
        assert abs(u.extract((0, 0, 1)) - u.extract((0, 1, 0))) < 1e-8
        assert abs(v.extract((0, 0, 1)) - v.extract((0, 1, 0))) < 1e-8
        su = (2 * p.t * u.extract((1, 0, 0)) + p.x * u.extract((0, 1, 0))
              + p.y * u.extract((0, 0, 1)) + u.value)
        sv = (2 * p.t * v.extract((1, 0, 0)) + p.x * v.extract((0, 1, 0))
              + p.y * v.extract((0, 0, 1)) + v.value)
        assert abs(su) < 1e-8 and abs(sv) < 1e-8


def test_reconstruct_2_9_pii_residual(pii_traj):
    field = reconstruct_2_9(pii_traj, PII_SPEC)
    pts = [Point(t, x, y) for t in (0.3, 0.8) for x in (-0.7, -0.5)
           for y in (-0.2, 0.1)]
    for p in pts:
        if not field.validity(p):
            continue
        try:
            r1, r2 = residual(field, p)
        except UndefinedHere:
            continue
        assert abs(r1) < 1e-6 and abs(r2) < 1e-6


def test_reconstruct_2_9_pii_residual_for_negative_c1():
    # the scale (2 C1)^(1/3) is the real cube root, negative for C1 < 0,
    # in the trajectory's meta and in the fallback of reconstruct_2_9
    spec = ReductionSpec(id="R2_9", C0=0.0, C1=-2.0, C2=0.0, delta=1.0,
                         init=(-2.0, 0.5, 0.25))
    traj = integrate_painleve2(spec, span=(-2.4, -0.6))
    assert traj.meta["phi_scale"] == -(4.0 ** (1.0 / 3.0))
    axis = np.linspace(0.3, 0.6, 3)
    grid = [Point(t, x, y) for t in np.linspace(0.1, 1.0, 3)
            for x in axis for y in axis]
    rep = residual_report(reconstruct_2_9(traj, spec), grid)
    assert rep.skipped == 0
    assert rep.r1_max < 1e-10 and rep.r2_max < 1e-10
    del traj.meta["phi_scale"]
    assert residual_report(reconstruct_2_9(traj, spec), grid).rows \
        == rep.rows


def test_first_integrals_along_pii(pii_traj):
    s = pii_traj.meta["phi_scale"]
    worst = [0.0] * 3
    for z in np.linspace(-1.95, -0.55, 150):
        f, d = pii_traj(float(z))
        psi, psip_z = pii_traj.psi(float(z))
        w = float(z) / s - PII_SPEC.C0 / PII_SPEC.C1
        I = first_integrals_2_9(s * f, s * s * d, psi, psip_z * s, w,
                                PII_SPEC)
        worst = [max(a, abs(b)) for a, b in zip(worst, I)]
    assert max(worst) < 1e-7


def test_first_integrals_elementary_branch():
    # u = 1/(w-1) - 1/(w+1) + 1/2 comes from the quartic with the triple
    # root; its companion profile has closed-form psi
    # integral-level C2 differs from the quartic's constant term by C0^2
    spec = ReductionSpec(id="R2_9", C0=-0.75, C1=0.0,
                         C2=-3.0 / 16.0 - 0.75 ** 2, delta=0.25)
    for w in (0.2, 0.45, 0.7):
        W2 = w * w - 1.0
        phi = 0.5 + 2.0 / W2
        phip = -4.0 * w / (W2 * W2)
        # psi = v - delta t at t = 0 with the omega-anchored quadrature
        # constant chosen at omega0 = 0: psi' = (phi' - phi^2 - C0)/2
        psi = 1.0 / (w - 1.0) + w / 4.0 + 0.25
        psip = 0.5 * (phip - phi * phi - spec.C0)
        I = first_integrals_2_9(phi, phip, psi, psip, w, spec)
        assert max(map(abs, I)) < 1e-10


def test_first_integrals_detector(rng):
    spec = PII_SPEC
    vals = first_integrals_2_9(0.3, 1.0, -0.2, 0.4, -1.0, spec)
    assert max(map(abs, vals)) > 1e-3


def test_reconstruct_2_9_elementary_matches_catalog():
    from blp import catalog
    from blp.specfun import QuarticODE, degenerate_solutions
    spec = ReductionSpec(id="R2_9", C0=-0.75, C1=0.0, C2=-3.0 / 16.0,
                         delta=0.25)
    q = QuarticODE(1.0, 0.0, spec.C0 / 3.0, spec.delta, spec.C2)
    branch = degenerate_solutions(q, 0.5)[0]
    field = reconstruct_2_9(branch, spec, omega0=0.4)
    ref = catalog.instantiate("F_R29_ELEM_1", {})
    pref = Point(0.2, 0.4, 0.3)
    shift = field.v(pref, 1).value - ref.v(pref, 1).value
    pts = [Point(0.2, 0.4, 0.3), Point(0.5, 0.2, 0.25), Point(0.1, 0.3, 0.1)]
    for p in pts:
        assert field.u(p, 1).value == pytest.approx(ref.u(p, 1).value,
                                                    abs=1e-12)
        # v matches pointwise up to a constant (a v-shift)
        assert field.v(p, 1).value - shift == pytest.approx(
            ref.v(p, 1).value, abs=1e-12)
        r1, r2 = residual(field, p)
        assert abs(r1) < 1e-9 and abs(r2) < 1e-9


def test_elliptic_zeta_form_matches_quadrature():
    # differences of the closed form against an independent quadrature of
    # phi^2, on the four pool bindings and one with C2 < 0, whose a = 5
    # puts phi in its mirror form, across the phi = a crossing at
    # omega = 0 and near the D1 zero at omega ~ 1.1, where the values of
    # phi itself carry ~1e-8 of noise
    from blp.quadrature import adaptive_quadrature
    from blp.specfun import (QuarticODE, quartic_particular_solution,
                             quartic_square_integral)
    from conftest import per_node
    for C0, delta, C2, a in [(1.0, 1.0, 3.0, 0.0), (0.6, 0.8, 2.0, 0.0),
                             (0.5, 1.2, 3.5, 0.0), (0.9, 1.1, 1.8, 0.0),
                             (1.0, 1.0, -2.0, 5.0)]:
        q = QuarticODE(1.0, 0.0, C0 / 3.0, delta, C2)
        phi = quartic_particular_solution(q, a)
        square_integral = quartic_square_integral(q, a)
        for w in (-1e-3, 1e-3, 0.55, 0.7, 0.95, 1.1):
            want = adaptive_quadrature(per_node(lambda s: phi(s) ** 2),
                                       0.85, w, tol=1e-9)
            got = square_integral(w) - square_integral(0.85)
            assert got == pytest.approx(want, abs=5e-8), (C0, w)


def _elliptic_spec():
    return ReductionSpec(id="R2_9", C0=1.0, C1=0.0, C2=3.0, delta=1.0)


def test_reconstruct_2_9_takes_a_wrapped_profile():
    # a plain wrapper of the profile, as a tracer installs, lifts to the
    # same field
    from blp.specfun import QuarticODE, quartic_particular_solution
    spec = _elliptic_spec()
    phi = quartic_particular_solution(
        QuarticODE(1.0, 0.0, spec.C0 / 3.0, spec.delta, spec.C2), 0.0)
    field = reconstruct_2_9(phi, spec, omega0=0.85)
    wrapped = reconstruct_2_9(lambda z: phi(z), spec, omega0=0.85)
    for p in (Point(0.4, 0.35, 0.4), Point(0.8, 0.3, 0.5),
              Point(0.2, 0.5, 0.55)):
        assert wrapped.v(p, 3).coeffs.tolist() == field.v(p, 3).coeffs.tolist()
        assert wrapped.u(p, 3).coeffs.tolist() == field.u(p, 3).coeffs.tolist()


def test_reconstruct_2_9_rejects_another_profile():
    # the closed-form v belongs to the spec's P branch (a = 0 for C2 >= 0)
    from blp.specfun import QuarticODE, quartic_particular_solution
    spec = _elliptic_spec()
    q = QuarticODE(1.0, 0.0, spec.C0 / 3.0, spec.delta, spec.C2)
    with pytest.raises(BadSpec):
        reconstruct_2_9(quartic_particular_solution(q, 0.5), spec,
                        omega0=0.85)
    with pytest.raises(BadSpec):
        reconstruct_2_9(lambda z: 1.0 / z, spec, omega0=0.85)


def test_reduction_2_3():
    ok = reduction_2_3_field(0, 0.5)
    for p in [Point(0.5, 0.8, 0.3), Point(1.0, -1.2, 0.6)]:
        assert residual(ok, p) == pytest.approx((0.0, 0.0), abs=1e-12)
    # a profile psi(y), as an expression or as a map of the y jet
    by_expr = reduction_2_3_field(0, 0.5, psi_of_y=parse("sin(y)", "y"))
    by_map = reduction_2_3_field(0, 0.5, psi_of_y=jets.sin)
    for p in [Point(0.5, 0.8, 0.3), Point(1.0, -1.2, 0.6)]:
        assert residual(by_expr, p) == pytest.approx((0.0, 0.0), abs=1e-12)
        np.testing.assert_allclose(by_expr.v(p, 4).coeffs,
                                   by_map.v(p, 4).coeffs, rtol=0, atol=1e-14)
    # the delta = 1 branch stays inconsistent for every constant profile
    p = Point(0.5, 1.0, 0.3)
    for phi0 in np.linspace(-2.0, 2.0, 21):
        bad = reduction_2_3_field(1, float(phi0))
        r1, r2 = residual(bad, p)
        assert max(abs(r1), abs(r2)) > 1e-1


def test_trajectory_csv_roundtrip(tmp_path, pii_traj):
    path = tmp_path / "traj.csv"
    pii_traj.to_csv(str(path))
    rows = path.read_text().splitlines()
    assert rows[0] == "omega,phi,phi_prime"
    assert len(rows) == len(pii_traj.grid) + 1
    sidecar = (tmp_path / "traj.csv.json").read_text()
    assert '"C1": 2.0' in sidecar


# ----------------------------------------------------------------------
# the Taylor recurrences of the profile equations and their use per step
# ----------------------------------------------------------------------

def _trunc(a, b, n):
    return np.convolve(a, b)[: n + 1]


def _pii_series_by_convolution(w, f, d, order, nu):
    """Reference: every product recomputed by a convolution per degree."""
    c = np.zeros(order + 3)
    c[0], c[1] = f, d
    for k in range(order + 1):
        cube = _trunc(_trunc(c[: k + 1], c[: k + 1], k), c[: k + 1], k)
        wf = w * c[k] + (c[k - 1] if k >= 1 else 0.0)
        rhs_k = 2.0 * cube[k] + wf + (nu if k == 0 else 0.0)
        c[k + 2] = rhs_k / ((k + 2) * (k + 1))
    return c[: order + 1]


def _piv_series_by_convolution(w, f, d, order, C1, C0t):
    n = order
    c = np.zeros(n + 3)
    c[0], c[1] = f, d
    wser = np.zeros(n + 1)
    wser[0] = w
    if n >= 1:
        wser[1] = 1.0
    q = np.zeros(n + 1)
    for k in range(n + 1):
        cc = c[: k + 2]
        dser = c[1: k + 2] * np.arange(1, k + 2)
        sq = _trunc(dser, dser, k)
        f2 = _trunc(cc, cc, k)
        f3 = _trunc(f2, cc, k)
        f4 = _trunc(f2, f2, k)
        w2 = _trunc(wser[: k + 1], wser[: k + 1], k)
        num = (0.5 * sq + 1.5 * f4 + 4.0 * _trunc(wser[: k + 1], f3, k)
               + 2.0 * _trunc(w2, f2, k) - 2.0 * C1 * f2)
        num[0] += C0t
        acc = num[k]
        for j in range(1, k + 1):
            acc -= c[j] * q[k - j]
        q[k] = acc / c[0]
        c[k + 2] = q[k] / ((k + 2) * (k + 1))
    return c[: n + 1]


def _random_initial_data(rng, count):
    for _ in range(count):
        w = float(rng.uniform(-1.5, 1.5))
        f = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0))
        yield w, f, float(rng.uniform(-2.0, 2.0))


@pytest.mark.parametrize("order", range(9))
def test_profile_recurrences_solve_their_equations(order, rng, pii_traj,
                                                   piv_traj):
    n = order
    nu = 0.5 + PII_SPEC.delta / PII_SPEC.C1
    spec, piv = piv_traj
    C1, C0t = spec.C1, 16.0 * spec.C0 - 2.0
    pii_fn, piv_fn = pii_traj.meta["series_fn"], piv.meta["series_fn"]
    for w, f, d in _random_initial_data(rng, 40):
        ws = np.array([w, 1.0])
        # second Painleve: f'' = 2 f^3 + w f + nu, coefficients 0..n
        c = np.array(pii_fn(w, f, d, n + 2))
        assert c[:2].tolist() == [f, d]
        fpp = c[2:] * np.arange(2, n + 3) * np.arange(1, n + 2)
        f3 = _trunc(_trunc(c, c, n), c, n)
        terms = [2.0 * f3, _trunc(ws, c, n), nu * np.eye(n + 1)[0]]
        scale = np.abs(fpp) + sum(np.abs(t) for t in terms)
        assert np.all(np.abs(fpp - sum(terms)) <= 1e-13 * scale)
        # fourth-Painleve form: f f'' = f'^2/2 + (3/2) f^4 + 4 w f^3
        #                              + 2 (w^2 - C1) f^2 + C0t
        c = np.array(piv_fn(w, f, d, n + 2))
        assert c[:2].tolist() == [f, d]
        fpp = c[2:] * np.arange(2, n + 3) * np.arange(1, n + 2)
        fp = c[1:] * np.arange(1, n + 3)
        f2 = _trunc(c, c, n)
        lhs = _trunc(c, fpp, n)
        terms = [0.5 * _trunc(fp, fp, n), 1.5 * _trunc(f2, f2, n),
                 4.0 * _trunc(ws, _trunc(f2, c, n), n),
                 2.0 * _trunc(_trunc(ws, ws, n), f2, n), -2.0 * C1 * f2,
                 C0t * np.eye(n + 1)[0]]
        scale = np.abs(lhs) + sum(np.abs(t) for t in terms)
        assert np.all(np.abs(lhs - sum(terms)) <= 1e-13 * scale)


@pytest.mark.parametrize("order", range(9))
def test_profile_recurrences_match_convolution_form(order, rng, pii_traj,
                                                    piv_traj):
    nu = 0.5 + PII_SPEC.delta / PII_SPEC.C1
    spec, piv = piv_traj
    C1, C0t = spec.C1, 16.0 * spec.C0 - 2.0
    for w, f, d in _random_initial_data(rng, 40):
        np.testing.assert_allclose(
            pii_traj.meta["series_fn"](w, f, d, order),
            _pii_series_by_convolution(w, f, d, order, nu),
            rtol=1e-13, atol=0)
        np.testing.assert_allclose(
            piv.meta["series_fn"](w, f, d, order),
            _piv_series_by_convolution(w, f, d, order, C1, C0t),
            rtol=1e-13, atol=0)


def test_one_series_per_accepted_node(monkeypatch):
    # the stepper reads each node's series once: to step from it and to
    # answer the points nearest to it; no step is retried
    counts = {"series": 0}
    integrate = reductions._integrate_profile

    def counted_integrate(series_fn, *rest):
        def counted_series(*a):
            counts["series"] += 1
            return series_fn(*a)

        return integrate(counted_series, *rest)

    monkeypatch.setattr(reductions, "_integrate_profile", counted_integrate)
    piv_spec = ReductionSpec(id="R2_4", C0=0.25, C1=2.0, eps=1,
                             init=(0.0, 1.2, -1.0))
    for run in (lambda: integrate_painleve2(PII_SPEC, span=(-2.0, -0.5)),
                lambda: integrate_painleve4_form(piv_spec, span=(-1.0, 1.0))):
        counts.update(series=0)
        traj = run()
        assert counts["series"] == len(traj.grid) > 10


def test_trajectory_is_exact_at_nodes(pii_traj, piv_traj):
    for traj in (pii_traj, piv_traj[1]):
        for i, w in enumerate(traj.grid):
            assert traj(float(w)) == tuple(traj.values[i, :2])
            assert traj.psi(float(w))[0] == traj.values[i, 2]


# the spec of criterion 7, and the four (C1, f0) pairs that
# catalog._r24_sample draws F_R24_PAINLEVE4 from
_PIV_SCALING_SPECS = [pytest.param(
    ReductionSpec(id="R2_4", C0=0.25, C1=2.0, eps=1, init=(0.0, 1.2, -1.0)),
    (-1.0, 1.0), id="criterion-7")] + [pytest.param(
        ReductionSpec(id="R2_4", C0=0.125, C1=C1, eps=1, init=(0.0, f0, 0.0)),
        (-1.2, 1.2), id=f"C1={C1}")
    for C1, f0 in [(0.8, 0.88), (1.1, 0.88), (1.4, 1.06), (1.7, 1.06)]]


@pytest.mark.parametrize("spec, span", _PIV_SCALING_SPECS)
def test_piv_drift_contracts_at_every_halving(spec, span):
    # criterion 7 asks one halving of one spec for a four-fold contraction
    # of the first-integral drift; every halving of every spec gives it
    def drift(tol):
        traj = integrate_painleve4_form(spec, span=span, tol=tol)
        lo, hi = traj.window()
        vals = np.array([first_integral_2_4(traj, spec, float(w))
                         for w in np.linspace(lo + 0.01, hi - 0.01, 200)])
        return np.max(np.abs(vals - vals[0]))

    drifts = [drift(tol) for tol in (2e-10, 1e-10, 5e-11, 2.5e-11)]
    for coarse, fine in zip(drifts, drifts[1:]):
        assert coarse >= 4.0 * fine, drifts


def test_pole_of_the_rational_oracle():
    # f = -1/z has its pole at z = 0; the march stops short of it
    with pytest.raises(PoleAbort) as ei:
        integrate_painleve2(PII_SPEC, span=(-2.0, 0.5))
    assert -0.01 < ei.value.last_safe < 0.0
    assert ei.value.trajectory.window() == (-2.0, ei.value.last_safe)
