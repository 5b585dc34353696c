"""Acceptance gate: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import json
import time

import numpy as np
import pytest

from blp import catalog, jets, liealg, reductions, transforms
from blp.exprdsl import ParseError, parse
from blp.jets import Point, UndefinedHere
from blp.specfun import (
    EllipticInvariants, PoleError, QuarticODE, degenerate_solutions,
    invariants_from_quartic, quartic_particular_solution, weierstrass_p,
)
from blp.system import (
    SolutionField, conserved_current_divergence, perturb_v, residual,
    residual_report, residual_uq,
)

QUADRATURE_FAMILIES = {"F_VXXX_2", "F_SINHGORDON", "F_UXX_BERNOULLI",
                       "F_R24_PAINLEVE4", "F_R29_PAINLEVE2"}


def _grid(family_id, n):
    (tr, xr, yr) = catalog.default_box(family_id)
    return [Point(float(t), float(x), float(y))
            for t in np.linspace(*tr, n)
            for x in np.linspace(*xr, n)
            for y in np.linspace(*yr, n)]


def _stamp(name, ok, detail=""):
    print(f"\nCRITERION {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {name} failed: {detail}"


def cached_field(s: SolutionField) -> SolutionField:
    memo_u, memo_v = {}, {}

    def u(p, n):
        key = (p, n)
        if key not in memo_u:
            memo_u[key] = s.u(p, n)
        return memo_u[key]

    def v(p, n):
        key = (p, n)
        if key not in memo_v:
            memo_v[key] = s.v(p, n)
        return memo_v[key]

    return s.with_meta(u=u, v=v)


def test_criterion_1_residual_suite():
    rng = np.random.default_rng(20260808)
    t0 = time.time()
    worst_plain, worst_quad = 0.0, 0.0
    families = catalog.list_families()
    assert len(families) >= 22
    for d in families:
        for _ in range(3):
            bindings = catalog.sample_bindings(d.id, rng)
            field = catalog.instantiate(d.id, bindings)
            rep = residual_report(field, _grid(d.id, 5))
            sup = max(rep.r1_max, rep.r2_max)
            assert rep.skipped <= 100, (d.id, rep.skipped)
            if d.id in QUADRATURE_FAMILIES:
                worst_quad = max(worst_quad, sup)
                assert sup < 1e-6, (d.id, sup, bindings)
            else:
                worst_plain = max(worst_plain, sup)
                assert sup < 1e-8, (d.id, sup, bindings)
    elapsed = time.time() - t0
    _stamp("1 (residual suite)",
           worst_plain < 1e-8 and worst_quad < 1e-6 and elapsed < 60.0,
           f"closed-form sup={worst_plain:.2e}, quadrature "
           f"sup={worst_quad:.2e}, {elapsed:.1f}s")


def _random_elementary(rng):
    k = rng.integers(0, 5)
    if k == 0:
        return transforms.d_transform(
            f"t + {float(rng.uniform(0.15, 0.5))}*sin(t)")
    if k == 1:
        return transforms.s_transform(
            f"y + {float(rng.uniform(0.2, 0.6))}*sin(y)")
    if k == 2:
        return transforms.p_transform(
            f"{float(rng.uniform(-0.4, 0.4))}*t^2")
    if k == 3:
        return transforms.z_transform(
            f"{float(rng.uniform(-1.0, 1.0))}*cos(y)")
    return transforms.i_transform(-1)


def test_criterion_2_symmetry_action():
    rng = np.random.default_rng(4242)
    fields = [
        catalog.instantiate("F_UEQV", {"alpha": "4+sin(y)"}),
        catalog.instantiate("F_VXXX_4", {"alpha": "sin(y)", "gamma": "y"}),
        catalog.instantiate("F_UY0_QA", {"zeta": "cos(y)"}),
    ]
    pts = [Point(0.8, 0.4, 0.5), Point(1.1, -0.2, 0.7), Point(1.3, 0.6, 0.9)]
    worst_res, worst_law, applied = 0.0, 0.0, 0
    for i in range(100):
        g1 = _random_elementary(rng)
        g2 = _random_elementary(rng)
        g = g2.compose(g1)
        s = fields[i % 3]
        out = transforms.apply_symmetry(g, s)
        seq = transforms.apply_symmetry(g2, transforms.apply_symmetry(g1, s))
        for p in pts:
            if not (out.validity(p) and seq.validity(p)):
                continue
            try:
                r1, r2 = residual(out, p)
                law = max(abs(out.u(p, 1).value - seq.u(p, 1).value),
                          abs(out.v(p, 1).value - seq.v(p, 1).value))
            except UndefinedHere:
                continue
            applied += 1
            worst_res = max(worst_res, abs(r1), abs(r2))
            worst_law = max(worst_law, law)
    _stamp("2 (symmetry action)",
           worst_res < 1e-7 and worst_law < 1e-9 and applied > 150,
           f"residual={worst_res:.2e}, composition={worst_law:.2e}, "
           f"{applied} checks")


def test_criterion_3_algebra_suite():
    rng = np.random.default_rng(7)
    pts = liealg.chebyshev_points(10)
    tfn = ["1", "t", "t^2", "t^3", "sin(t)"]
    yfn = ["1", "y", "y^2", "cos(y)"]
    ok = True
    # bracket relations against independently evaluated coefficient algebra
    for f1 in tfn:
        for f2 in tfn:
            e1, e2 = parse(f1, "t"), parse(f2, "t")
            br = liealg.commutator(liealg.D(f1), liealg.D(f2))
            want = np.array([e1(s) * e2.diff()(s) - e1.diff()(s) * e2(s)
                             for s in pts])
            ok &= bool(np.max(np.abs(br.sample("D", pts) - want)) < 1e-9)
            brp = liealg.commutator(liealg.P(f1), liealg.D(f2))
            wantp = np.array([0.5 * e2.diff()(s) * e1(s) - e2(s) * e1.diff()(s)
                              for s in pts])
            ok &= bool(np.max(np.abs(brp.sample("P", pts) - wantp)) < 1e-9)
    for a1 in yfn:
        for a2 in yfn:
            ea, eb = parse(a1, "y"), parse(a2, "y")
            brs = liealg.commutator(liealg.S(a1), liealg.S(a2))
            want = np.array([ea(s) * eb.diff()(s) - ea.diff()(s) * eb(s)
                             for s in pts])
            ok &= bool(np.max(np.abs(brs.sample("S", pts) - want)) < 1e-9)
            brz = liealg.commutator(liealg.S(a1), liealg.Z(a2))
            want = np.array([ea(s) * eb.diff()(s) + ea.diff()(s) * eb(s)
                             for s in pts])
            ok &= bool(np.max(np.abs(brz.sample("Z", pts) - want)) < 1e-9)
    # Jacobi identity on 50 random triples
    def rand_elem():
        return (liealg.D(tfn[rng.integers(0, 5)])
                + liealg.P(tfn[rng.integers(0, 5)])
                + liealg.S(yfn[rng.integers(0, 4)])
                + liealg.Z(yfn[rng.integers(0, 4)]))

    for _ in range(50):
        q1, q2, q3 = rand_elem(), rand_elem(), rand_elem()
        jac = (liealg.commutator(q1, liealg.commutator(q2, q3))
               + liealg.commutator(q2, liealg.commutator(q3, q1))
               + liealg.commutator(q3, liealg.commutator(q1, q2)))
        ok &= liealg.is_zero(jac, tol=1e-9)
    # closure of every bundled subalgebra
    lib = liealg.load_subalgebra_library()
    closure_fails = [s.label for s in lib
                     if not liealg.check_subalgebra(s).closed]
    ok &= not closure_fails
    # normalizer lists membership-positive, two spot negatives
    table = liealg.load_normalizer_table()
    norm_ok = all(liealg.normalizer_check(g, sub)
                  for (sub, gens) in table.values() for g in gens)
    negatives = (not liealg.normalizer_check(liealg.Z("y^2"),
                                             table["s1.1"][0])
                 and not liealg.normalizer_check(liealg.D("t^2"),
                                                 table["s1.3"][0]))
    ok &= norm_ok and negatives and len(table) >= 5
    _stamp("3 (algebra suite)", ok,
           f"{len(lib)} subalgebras closed, {len(table)} normalizer lists")


def test_criterion_4_laplace_cross_checks():
    base = Point(1.0, 0.0, 0.5)
    ok = True
    cases = [
        ("F_VXXX_1",
         {"alpha": "sin(y)", "beta": "2+cos(y)", "gamma": "y", "delta": 1},
         "F_LAPLACE_IMG_FWD1",
         {"alpha": "sin(y)", "beta": "2+cos(y)", "gamma": "y"}),
        ("F_VXXX_4",
         {"alpha": "1+0.3*sin(y)", "gamma": "y/2"},
         "F_LAPLACE_IMG_FWD4",
         {"alpha": "1+0.3*sin(y)", "gamma": "y/2"}),
    ]
    worst = 0.0
    for src, sb, img, ib in cases:
        fwd = transforms.laplace_forward_uv(catalog.instantiate(src, sb),
                                            base)
        closed = catalog.instantiate(img, ib)
        for p in [Point(t, x, y) for t in (0.9, 1.2) for x in (0.4, 0.9)
                  for y in (0.45, 0.8)]:
            worst = max(worst, abs(fwd.u(p, 1).value
                                   - closed.u(p, 1).value))
        for y in (0.45, 0.8):
            offs = [fwd.v(Point(t, x, y), 1).value
                    - closed.v(Point(t, x, y), 1).value
                    for t in (0.9, 1.2) for x in (0.4, 0.9)]
            worst = max(worst, float(np.ptp(offs)))
    ok &= worst < 1e-7
    # theta -> theta + 1 self-map of the quadrature family
    b0 = Point(1.0, 0.5, 0.0)
    s0 = catalog.instantiate("F_VXXX_2",
                             {"beta": "2+cos(y)", "theta": "t", "t0": 1.0})
    s1 = catalog.instantiate("F_VXXX_2",
                             {"beta": "2+cos(y)", "theta": "t+1", "t0": 1.0})
    fwd = transforms.laplace_forward_uv(s0, b0)
    shift = max(abs(fwd.u(p, 1).value - s1.u(p, 1).value)
                for p in [Point(1.1, 0.7, 0.4), Point(1.3, 0.9, 0.8)])
    ok &= shift < 1e-7
    # forward rejected on a q_y = 0 seed
    seed = transforms.uq_seed(
        catalog.heat_witness_library("plane_exp", k=1.0,
                                     direction="backward"),
        constraint="q_y=0")
    rejected = False
    try:
        transforms.laplace_forward_uq(seed).u(Point(0.5, 0.3, 0.2), 0)
    except transforms.UndefinedTransform:
        rejected = True
    ok &= rejected
    _stamp("4 (Laplace cross-checks)", ok,
           f"image match={worst:.2e}, theta-shift={shift:.2e}, "
           f"q_y=0 rejected={rejected}")


def test_criterion_5_darboux_suite():
    class W:
        @staticmethod
        def Phi(p, n):
            t, x, y = jets.coordinate_jets(p, n)
            return jets.exp(x + t) + 0.3 * y + 0.1

    seed = transforms.uq_seed(W, constraint="u_y=q_y")
    th1 = lambda p, n: jets.exp(jets.lift_variable("x", p, n)
                                - jets.lift_variable("t", p, n))
    th2 = lambda p, n: jets.exp(2.0 * jets.lift_variable("x", p, n)
                                - 4.0 * jets.lift_variable("t", p, n))
    phi1 = transforms.covering_solutions_for_constraint(
        "u_y=q_y", seed, W, theta=th1, zeta=lambda yj: 1.0 + 0.2 * yj * yj)
    phi2 = transforms.covering_solutions_for_constraint(
        "u_y=q_y", seed, W, theta=th2, zeta=lambda yj: yj)
    pts = [Point(0.7, 0.3, 0.45), Point(1.0, 0.6, 0.8),
           Point(1.3, -0.2, 0.6)]
    worst_res = 0.0
    for kind in ("DT1", "DT2"):
        out = transforms.darboux(kind, seed, phi1)
        for p in pts:
            worst_res = max(worst_res, *map(abs, residual_uq(out, p)))
    # three commutation identities
    def dressed(kind, phi):
        return transforms.darboux(kind, seed, phi)

    def chained(k1, k2, pa, pb):
        once = dressed(k1, pa)
        psi = transforms.darboux_psi(k1, pa.phi, pb.phi)
        return transforms.darboux(
            k2, once,
            transforms.CoveringEigenfunction(phi=psi, attached_to=once))

    worst_comm = 0.0
    for (ka, kb) in (("DT1", "DT1"), ("DT1", "DT2")):
        lhs = chained("DT1", kb, phi1, phi2)
        rhs = chained("DT1", kb, phi2, phi1)
        for p in pts:
            worst_comm = max(worst_comm,
                             abs(lhs.u(p, 0).value - rhs.u(p, 0).value),
                             abs(lhs.v(p, 0).value - rhs.v(p, 0).value))
    lhs = chained("DT1", "DT2", phi1, phi2)
    rhs = chained("DT2", "DT1", phi2, phi1)
    for p in pts:
        worst_comm = max(worst_comm,
                         abs(lhs.u(p, 0).value - rhs.u(p, 0).value),
                         abs(lhs.v(p, 0).value - rhs.v(p, 0).value))
    # n = 2 Wronskian form against composed single steps
    worst_iter = 0.0
    for kind in ("DT1", "DT2"):
        both = transforms.darboux_iterated(kind, seed, [phi1, phi2])
        composed = chained(kind, kind, phi1, phi2)
        for p in pts:
            worst_iter = max(worst_iter,
                             abs(both.u(p, 0).value - composed.u(p, 0).value),
                             abs(both.v(p, 0).value - composed.v(p, 0).value))
            worst_res = max(worst_res, *map(abs, residual_uq(both, p)))
    ok = worst_res < 1e-8 and worst_comm < 1e-7 and worst_iter < 1e-7
    _stamp("5 (Darboux suite)", ok,
           f"residual={worst_res:.2e}, commutation={worst_comm:.2e}, "
           f"iterated={worst_iter:.2e}")


def test_criterion_6_special_functions():
    rng = np.random.default_rng(99)
    ok = True
    worst_ode = 0.0
    for _ in range(20):
        g2 = float(rng.uniform(-3.0, 5.0))
        g3 = float(rng.uniform(-2.0, 2.0))
        inv = EllipticInvariants(g2, g3)
        if abs(inv.discriminant) < 1e-3:
            continue
        for z in np.linspace(0.08, 2.6, 40):
            try:
                p, dp, _ = weierstrass_p(float(z), inv)
            except (PoleError, ArithmeticError):
                continue
            res = abs(dp * dp - (4 * p ** 3 - g2 * p - g3))
            worst_ode = max(worst_ode, res / (1.0 + abs(p) ** 3))
    ok &= worst_ode < 1e-9
    # degenerate lattice collapses to the inverse square
    p, _, _ = weierstrass_p(2.0, EllipticInvariants(0.0, 0.0))
    degen = abs(p - 0.25)
    ok &= degen < 1e-12
    # elementary branches satisfy the quartic equation
    worst_br = 0.0
    cases = [
        (QuarticODE(1.0, 0.0, -0.25, 0.25, -3.0 / 16.0), 0.5),
        (QuarticODE(1.0, 0.0, -1.0 / 3.0, 0.0, 1.0), 1.0),
        (QuarticODE(1.0, 0.0, -1.0 / 6.0, 0.0, 0.0), 0.0),
        (QuarticODE(1.0, 0.0, 0.0, 0.0, 0.0), 0.0),
    ]
    h = 1e-5
    for q, lam in cases:
        for br in degenerate_solutions(q, lam):
            for z in np.linspace(-1.6, 2.3, 40):
                try:
                    val = br(float(z))
                    d = (-br(z + 2 * h) + 8 * br(z + h)
                         - 8 * br(z - h) + br(z - 2 * h)) / (12 * h)
                except (ArithmeticError, ZeroDivisionError, OverflowError):
                    continue
                if abs(val) > 20:
                    continue
                worst_br = max(worst_br,
                               abs(d * d - q.F(val)) / (1 + abs(q.F(val))))
    ok &= worst_br < 1e-8
    # invariants identity for the reduction quartic
    worst_inv = 0.0
    for _ in range(50):
        C0, de, C2 = rng.uniform(-3, 3, size=3)
        inv = invariants_from_quartic(
            QuarticODE(1.0, 0.0, C0 / 3.0, de, C2))
        worst_inv = max(
            worst_inv,
            abs(inv.g2 - (C2 + C0 ** 2 / 3.0)),
            abs(inv.g3 - (C0 * C2 / 3.0 - C0 ** 3 / 27.0 - de ** 2)))
    ok &= worst_inv < 1e-12
    _stamp("6 (special functions)", ok,
           f"P-ODE={worst_ode:.2e}, degenerate={degen:.2e}, "
           f"branches={worst_br:.2e}, invariants={worst_inv:.2e}")


def test_criterion_7_reductions():
    spec = reductions.ReductionSpec(id="R2_9", C0=0.0, C1=2.0, C2=0.0,
                                    delta=1.0, init=(-2.0, 0.5, 0.25))
    traj = reductions.integrate_painleve2(spec, span=(-2.0, -0.5))
    oracle = max(abs(traj(float(z))[0] + 1.0 / z)
                 for z in np.linspace(-2.0, -0.5, 300))
    s = traj.meta["phi_scale"]
    worst_i = 0.0
    for z in np.linspace(-1.95, -0.55, 150):
        f, d = traj(float(z))
        psi, psip_z = traj.psi(float(z))
        w = float(z) / s
        I = reductions.first_integrals_2_9(s * f, s * s * d, psi,
                                           psip_z * s, w, spec)
        worst_i = max(worst_i, *map(abs, I))
    spec4 = reductions.ReductionSpec(id="R2_4", C0=0.25, C1=2.0, eps=1,
                                     init=(0.0, 1.2, -1.0))

    def drift(tol):
        t4 = reductions.integrate_painleve4_form(spec4, span=(-1.0, 1.0),
                                                 tol=tol)
        lo, hi = t4.window()
        vals = np.array([reductions.first_integral_2_4(t4, spec4, float(w))
                         for w in np.linspace(lo + 0.01, hi - 0.01, 200)])
        return np.max(np.abs(vals - vals[0]))

    d1, d2 = drift(1e-10), drift(5e-11)
    # reconstructed fields at the criterion-1 thresholds
    f24 = reductions.reconstruct_2_4(
        reductions.integrate_painleve4_form(spec4, span=(-1.0, 1.0)), spec4)
    f29 = reductions.reconstruct_2_9(traj, spec)
    worst_f = 0.0
    for fld, pts in ((f24, [Point(t, x, y) for t in (0.7, 1.0)
                            for x in (-0.2, 0.2) for y in (-0.2, 0.2)]),
                     (f29, [Point(t, x, y) for t in (0.3, 0.8)
                            for x in (-0.7, -0.5) for y in (-0.2, 0.1)])):
        for p in pts:
            if not fld.validity(p):
                continue
            try:
                worst_f = max(worst_f, *map(abs, residual(fld, p)))
            except UndefinedHere:
                continue
    # the delta = 1 overdetermined branch is inconsistent
    inconsistent = True
    p0 = Point(0.5, 1.0, 0.3)
    for phi0 in np.linspace(-2.0, 2.0, 21):
        bad = reductions.reduction_2_3_field(1, float(phi0))
        inconsistent &= max(map(abs, residual(bad, p0))) > 1e-1
    consistent0 = max(map(abs, residual(
        reductions.reduction_2_3_field(0, 0.5), p0))) < 1e-12
    ok = (oracle < 1e-7 and d1 < 1e-6 and d1 / d2 >= 4.0
          and worst_i < 1e-7 and worst_f < 1e-6
          and inconsistent and consistent0)
    _stamp("7 (reductions)", ok,
           f"oracle={oracle:.2e}, drift={d1:.2e} ratio={d1 / d2:.1f}, "
           f"integrals={worst_i:.2e}, fields={worst_f:.2e}")


def test_criterion_8_conservation():
    rng = np.random.default_rng(13)
    t_params = [1.0, parse("t", "t"), parse("t^2", "t"), parse("sin(t)", "t")]
    y_params = [1.0, parse("y", "y"), parse("y^2", "y"), parse("cos(y)", "y")]
    worst = 0.0
    checked = 0
    for d in catalog.list_families():
        field = cached_field(
            catalog.instantiate(d.id, catalog.sample_bindings(d.id, rng)))
        # the first six points in the domain where the field is defined
        points = 0
        for p in _grid(d.id, 2):
            if points == 6:
                break
            if not field.validity(p):
                continue
            try:
                for cid, pool in (("F0", t_params), ("F1", t_params),
                                  ("F2", t_params), ("F4", y_params),
                                  ("F5", y_params)):
                    for par in pool:
                        div = conserved_current_divergence(cid, par, field, p)
                        worst = max(worst, abs(div))
                        checked += 1
            except UndefinedHere:
                continue
            points += 1
    # detector property
    bad = perturb_v(catalog.instantiate("F_UY0_TRIV", {}), eps=0.05)
    fired = min(abs(conserved_current_divergence("F0", parse("t^2", "t"),
                                                 bad, p))
                for p in [Point(1.0, 0.5, 0.2), Point(0.8, 1.0, 0.4)])
    ok = worst < 1e-8 and fired > 1e-3 and checked > 2000
    _stamp("8 (conservation)", ok,
           f"divergence={worst:.2e} over {checked} checks, "
           f"detector={fired:.2e}")


def test_criterion_9_parser():
    valid = [
        "t", "-t", "+t", "1", "1.5", "2e3", "1.5e-2", ".5", "pi", "e",
        "t+1", "t-1", "t*2", "t/2", "t^2", "t^2^3", "-t^2", "2^-3",
        "(t)", "((t))", "(t+1)*(t-1)", "t*(1+t)", "exp(t)", "ln(t)",
        "sin(t)", "cos(t)", "tan(t)", "sinh(t)", "cosh(t)", "sqrt(t)",
        "abs(t)", "exp(-t^2/4)", "sin(2*t)^2", "1/(1+t^2)",
        "t^0.5", "0.3*t^3 - t", "sqrt(abs(t-1))", "cos(t)*sinh(t)",
        "t + t + t", "t*t*t", "2*pi*t", "e^t", "-(t+1)", "-(-t)",
        "1e0", "12.25", "t/(2*(t+1))", "tan(t/2)", "ln(exp(t))",
        "abs(-t)", "sqrt(t^2+1)", "(1+t)^3", "((t+1)*(t-2))/(t+3)",
        "sin(cos(t))", "exp(ln(t))", "t^1.5", "3.0^t",
    ]
    # (source, bound variable, exact error offset)
    invalid = [
        ("", "t", 0), ("   ", "t", 0), ("y*(", "y", 3),
        ("exp(x+t)", "t", 4), ("2t", "t", 1),
        ("t+", "t", 2), ("*t", "t", 0), ("t**t", "t", 2), ("(t", "t", 2),
        ("t)", "t", 1), ("foo(t)", "t", 0), ("t$", "t", 1),
        ("sin()", "t", 4), ("t t", "t", 2), ("1..2", "t", 2),
        ("t+(", "t", 3), ("^t", "t", 0), ("t^", "t", 2), ("()", "t", 1),
        ("exp t", "t", 0), ("t//2", "t", 2), ("sin(t))", "t", 6),
        ("2 3", "t", 2), ("t-*2", "t", 2), ("unknown", "t", 0),
        ("t?", "t", 1), ("exp(t", "t", 5), ("--", "t", 2), ("+", "t", 1),
        ("t^^2", "t", 2),
    ]
    # pad the corpus to 200 cases with generated variants
    for k in range(85):
        valid.append(f"{k + 1}*t^2 + sin({k % 7 + 1}*t)")
    for k in range(55):
        src = f"{k + 1}*t +"
        invalid.append((src, "t", len(src)))
    cases = len(valid) + len(invalid)
    ok = cases >= 200
    for src in valid:
        try:
            e = parse(src, "t")
        except ParseError as exc:
            ok = False
            print("unexpected reject:", src, exc)
            continue
        ok &= parse(e.pretty(), "t") == e
    for src, var, pos in invalid:
        try:
            parse(src, var)
            ok = False
            print("unexpected accept:", repr(src))
        except ParseError as exc:
            if exc.position != pos:
                ok = False
                print("wrong position:", repr(src), exc.position, "!=", pos)
    _stamp("9 (parser)", ok, f"{cases} corpus cases")


def test_criterion_10_cli(tmp_path, capsys):
    from blp.cli import main
    ok = True
    # determinism
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--family", "F_VXXX_4", "--param", "alpha=sin(y)",
            "--param", "gamma=y"]
    assert main(args + ["--report", str(r1)]) == 0
    assert main(args + ["--report", str(r2)]) == 0
    ok &= r1.read_bytes() == r2.read_bytes()
    # scenario 1: passing verification, exit 0
    code_pass = main(["verify", "--family", "F_UEQV",
                      "--param", "alpha=4+sin(y)", "--tol", "1e-8"])
    # scenario 2: detector firing, exit 1
    code_fail = main(["verify", "--family", "F_UY0_TRIV",
                      "--perturb", "0.05"])
    # scenario 3: malformed expression, exit 2
    code_cfg = main(["verify", "--family", "F_UEQV",
                     "--param", "alpha=4*(y"])
    capsys.readouterr()
    ok &= (code_pass, code_fail, code_cfg) == (0, 1, 2)
    _stamp("10 (CLI)", ok,
           f"exit codes {(code_pass, code_fail, code_cfg)}, "
           "byte-identical reports")
