import inspect
import math
import re
import sys
from collections import Counter

import numpy as np
import pytest

from blp import catalog, exprdsl, jets, quadrature, system, transforms
from blp.jets import Jet3, Point, UndefinedHere
from blp.system import (
    SolutionField, convert, perturb_v, residual, residual_report,
    residual_uq,
)
from blp.transforms import (
    CoveringEigenfunction, CoveringViolation, InverseMapError, PointSymmetry,
    UndefinedTransform, apply_symmetry, covering_solutions_for_constraint,
    d_transform, darboux, darboux_iterated, darboux_psi, i_transform,
    identity_symmetry, laplace_forward_uq, laplace_forward_uv,
    laplace_inverse_uq, laplace_inverse_uv, p_transform, s_transform,
    uq_seed, z_transform,
)
from conftest import bisect_inverse, jet_walk

PTS = [Point(0.7, 0.3, 0.45), Point(1.0, 0.6, 0.8), Point(1.3, -0.2, 0.6)]


def jmap(fn):
    def m(p, n):
        t, x, y = jets.coordinate_jets(p, n)
        return fn(t, x, y)
    return m


ZERO_UQ = SolutionField(u=lambda p, n: Jet3.constant(0.0, p, n),
                        v=lambda p, n: Jet3.constant(0.0, p, n),
                        coords="UQ", family_id="zero")


@pytest.fixture(scope="module")
def ueqv():
    return catalog.instantiate("F_UEQV", {"alpha": "4+sin(y)"})


def random_elementary(rng):
    k = rng.integers(0, 5)
    if k == 0:
        return d_transform(f"t + {float(rng.uniform(0.2, 0.6))}*sin(t)")
    if k == 1:
        return s_transform(f"y + {float(rng.uniform(0.3, 0.8))}*sin(y)")
    if k == 2:
        return p_transform(f"{float(rng.uniform(-0.5, 0.5))}*t^2")
    if k == 3:
        return z_transform(f"{float(rng.uniform(-1, 1))}*cos(y)")
    return i_transform(-1)


def test_identity(ueqv):
    out = apply_symmetry(identity_symmetry(), ueqv)
    for p in PTS:
        assert out.u(p, 2).value == pytest.approx(ueqv.u(p, 2).value,
                                                  abs=1e-12)
        assert out.v(p, 2).value == pytest.approx(ueqv.v(p, 2).value,
                                                  abs=1e-12)


def test_scaling_on_trivial_field():
    triv = catalog.instantiate("F_UY0_TRIV", {})
    out = apply_symmetry(s_transform("2*y"), triv)
    p = Point(1.0, 0.8, 1.2)
    assert out.v(p, 2).value == pytest.approx(p.x / 2, abs=1e-12)
    assert residual(out, p) == pytest.approx((0.0, 0.0), abs=1e-12)


def test_monotonicity_validation():
    with pytest.raises(ValueError):
        d_transform("-t")          # T_t < 0
    with pytest.raises(ValueError):
        s_transform("y^2")         # Y_y changes sign on the window


def test_inverse_map_error_outside_window():
    g = d_transform("t")
    out = apply_symmetry(g, catalog.instantiate("F_UY0_TRIV", {}))
    with pytest.raises(InverseMapError):
        out.u(Point(100.0, 0.0, 0.0), 1)


def test_group_action_and_residual(ueqv, rng):
    worst_law, worst_res = 0.0, 0.0
    for _ in range(10):
        g1 = random_elementary(rng)
        g2 = random_elementary(rng)
        combined = apply_symmetry(g2.compose(g1), ueqv)
        sequential = apply_symmetry(g2, apply_symmetry(g1, ueqv))
        for p in PTS:
            if not (combined.validity(p) and sequential.validity(p)):
                continue
            try:
                law = max(
                    abs(combined.u(p, 2).value - sequential.u(p, 2).value),
                    abs(combined.v(p, 2).value - sequential.v(p, 2).value))
                r1, r2 = residual(combined, p)
            except UndefinedHere:
                continue
            worst_law = max(worst_law, law)
            worst_res = max(worst_res, abs(r1), abs(r2))
    assert worst_law < 1e-9
    assert worst_res < 1e-7


def test_composition_folds_its_constant_shifts():
    g = d_transform("2*t").compose(s_transform("2*y"))
    assert g.X0 == exprdsl.Num(0.0, "t") and g.V0 == exprdsl.Num(0.0, "y")


def test_symmetry_image_inverts_each_point_once(monkeypatch):
    # T is inverted once per t and order, and Y once per y and order, for
    # u and v alike: a 2^3 grid has two t values and two y values
    calls = [0]
    invert = transforms._invert_monotone

    def counted(*args):
        calls[0] += 1
        return invert(*args)

    monkeypatch.setattr(transforms, "_invert_monotone", counted)
    g = d_transform("t + 0.3*sin(t)").compose(s_transform("y + 0.5*sin(y)"))
    field = apply_symmetry(g, catalog.instantiate(
        "F_VXXX_4", {"alpha": "sin(y)", "gamma": "y"}))
    grid = [Point(t, x, y) for t in (0.6, 1.4) for x in (0.3, 1.3)
            for y in (0.2, 1.2)]
    rep = residual_report(field, grid)
    assert rep.skipped == 0 and max(rep.r1_max, rep.r2_max) < 1e-7
    assert calls[0] == 4
    # v_x asks one order above u, as a conversion does: a new point
    # inverts its t and its y once, whatever the orders asked there
    p = Point(0.9, 0.7, 0.5)
    field.w(p, 4)
    assert calls[0] == 6
    field.u(p, 3)
    assert calls[0] == 6


def test_symmetry_image_inverts_each_point_once_in_a_batch(monkeypatch):
    # the grid is one batch, and one of its points has no inverse on
    # WINDOW: the report splits the batch around it, and every other point
    # is still inverted once, t and y
    inverted = []
    invert = transforms._invert_monotone
    g = d_transform("t + 0.3*sin(t)").compose(s_transform("y + 0.5*sin(y)"))

    def counted(f, df, target):
        inverted.append(("t" if f is g.T else "y", target))
        return invert(f, df, target)

    monkeypatch.setattr(transforms, "_invert_monotone", counted)
    field = apply_symmetry(g, catalog.instantiate(
        "F_VXXX_4", {"alpha": "sin(y)", "gamma": "y"}))
    grid = [Point(0.6 + 0.1 * i, 0.3 + 0.1 * i, 0.2 + 0.1 * i)
            for i in range(8)]
    grid[3] = Point(7.0, 0.6, 0.55)  # T(t) <= 6 + 0.3 on WINDOW
    rep = residual_report(field, grid)
    assert rep.skipped == 1 and max(rep.r1_max, rep.r2_max) < 1e-7
    assert [row[0] for row in rep.rows] == grid[:3] + grid[4:]
    for q, *_ in rep.rows:
        assert inverted.count(("t", q.t)) == inverted.count(("y", q.y)) == 1
    assert ("t", 7.0) in inverted and ("y", 0.55) not in inverted


def test_symmetry_image_asks_its_base_field_once_per_batch():
    # a report asks the image at its grid as one batch, and the image asks
    # the base field's u and v once each, at the batch of old points
    base = catalog.instantiate("F_VXXX_4", {"alpha": "sin(y)", "gamma": "y"})
    asked = {"u": [], "v": []}

    def counted(comp):
        fn = getattr(base, comp)

        def m(p, n):
            asked[comp].append(jets.lanes(p))
            return fn(p, n)
        return m

    g = d_transform("t + 0.3*sin(t)").compose(s_transform("y + 0.5*sin(y)"))
    field = apply_symmetry(g, base.with_meta(u=counted("u"), v=counted("v")))
    grid = [Point(t, x, y) for t in (0.6, 1.4) for x in (0.3, 1.3)
            for y in (0.2, 1.2)]
    rep = residual_report(field, grid)
    assert rep.skipped == 0 and max(rep.r1_max, rep.r2_max) < 1e-7
    assert asked == {"u": [len(grid)], "v": [len(grid)]}


#: (first, second) elementary kinds, 0..4 = D, S, P, Z, I, as the
#: composite symmetries of the profiles_symmetry benchmark
_SYM_KIND_PAIRS = [(i % 5, (i + 1 + i // 5) % 5) for i in range(12)]
_SYM_FIELDS = [("F_UEQV", {"alpha": "4+sin(y)"}),
               ("F_VXXX_4", {"alpha": "sin(y)", "gamma": "y"}),
               ("F_UY0_QA", {"zeta": "cos(y)"})]
_ELEMENTARY = [lambda: d_transform("t + 0.35*sin(t)"),
               lambda: s_transform("y + 0.45*sin(y)"),
               lambda: p_transform("-0.3*t^2"),
               lambda: z_transform("0.7*cos(y)"),
               lambda: i_transform(-1)]


def _inverse_series(e, old_value, order):
    """Taylor coefficients of the inverse function of ``e`` at e(old_value),
    reverted one coefficient at a time with full products."""
    f = exprdsl.eval_series(e, old_value, order)
    g = np.zeros(order + 1)
    if order:
        g[1] = 1.0 / f[1]
    for m in range(2, order + 1):
        # coefficient m of f(g) with g_m = 0, which f_1 g_m must cancel
        acc, power = 0.0, g.copy()
        for k in range(2, m + 1):
            power = np.convolve(power, g)[:order + 1]
            acc += f[k] * power[m]
        g[m] = -acc / f[1]
    g[0] = old_value
    return g


def _compose_jets(field_coeffs, order, jt, jx, jy):
    """The jet of a field with Taylor coefficients ``field_coeffs`` at
    (jt, jx, jy).value composed with three inner jets, by trivariate
    products: the general composition that compose3 replaced."""
    n = jt.order
    dt, dx, dy = jt - jt.value, jx - jx.value, jy - jy.value
    one = Jet3.constant(1.0, jt.base, n)
    pt, px, py = [one], [one], [one]
    for _ in range(n):
        pt.append(pt[-1] * dt)
        px.append(px[-1] * dx)
        py.append(py[-1] * dy)
    out = Jet3.constant(0.0, jt.base, n)
    for m, (i, j, k) in enumerate(jets._tables(order).exps):
        if field_coeffs[m] != 0.0 and i + j + k <= n:
            out = out + field_coeffs[m] * (pt[i] * px[j] * py[k])
    return out


def _jet_composition_image(g, s):
    """u and v of the image of ``s`` under ``g`` with every coefficient
    function evaluated on the trivariate jet of the inverse map, found by
    bisection and composed by trivariate products."""
    dT, dY = g.T.diff(), g.Y.diff()
    ddT, dX0 = dT.diff(), g.X0.diff()
    eps = float(g.eps)

    def inner(pn, n):
        t_old = bisect_inverse(g.T, pn.t)
        y_old = bisect_inverse(g.Y, pn.y)
        x_old = (pn.x - g.X0(t_old)) / (g.eps * math.sqrt(dT(t_old)))
        po = Point(t_old, x_old, y_old)
        jt = jets.axis_jet(_inverse_series(g.T, t_old, n), "t", pn)
        jy = jets.axis_jet(_inverse_series(g.Y, y_old, n), "y", pn)
        ttj = jet_walk(dT, jt)
        jx = (jets.lift_variable("x", pn, n) - jet_walk(g.X0, jt)) \
            / (eps * jets.sqrt(ttj))
        return po, jt, jx, jy, ttj

    def u(pn, n):
        po, jt, jx, jy, ttj = inner(pn, n)
        Uc = _compose_jets(s.u(po, n).coeffs, n, jt, jx, jy)
        rt = jets.sqrt(ttj)
        return (eps * Uc / rt - eps * jet_walk(ddT, jt) / (4.0 * ttj * rt) * jx
                - jet_walk(dX0, jt) / (2.0 * ttj))

    def v(pn, n):
        po, jt, jx, jy, _ = inner(pn, n)
        Vc = _compose_jets(s.v(po, n).coeffs, n, jt, jx, jy)
        return Vc / jet_walk(dY, jy) + jet_walk(g.V0, jy)

    return u, v


@pytest.mark.parametrize("pair", range(len(_SYM_KIND_PAIRS)))
def test_symmetry_image_matches_jet_composition(pair):
    k1, k2 = _SYM_KIND_PAIRS[pair]
    fid, bindings = _SYM_FIELDS[pair % len(_SYM_FIELDS)]
    field = catalog.instantiate(fid, dict(bindings))
    g = _ELEMENTARY[k2]().compose(_ELEMENTARY[k1]())
    image = apply_symmetry(g, field)
    ref_u, ref_v = _jet_composition_image(g, field)
    checked = 0
    for p in _box_grid(((0.8, 1.3), (-0.2, 0.6), (0.5, 0.9)), (2, 2, 2)):
        for order in range(7):
            for got_fn, want_fn in ((image.u, ref_u), (image.v, ref_v)):
                try:
                    want = want_fn(p, order)
                except UndefinedHere as exc:
                    with pytest.raises(type(exc)):
                        got_fn(p, order)
                    continue
                got = got_fn(p, order)
                assert np.max(np.abs(got.coeffs - want.coeffs)) <= \
                    1e-13 * np.max(np.abs(want.coeffs)), (pair, p, order)
                checked += 1
    assert checked


@pytest.mark.parametrize("pair", range(len(_SYM_KIND_PAIRS)))
def test_symmetry_image_lanes_have_the_bits_of_their_points(pair):
    # each lane of a batch has the bits of its point asked alone; a batch
    # names lanes that fail alone, and the others are asked again without
    # them, as a report does
    k1, k2 = _SYM_KIND_PAIRS[pair]
    fid, bindings = _SYM_FIELDS[pair % len(_SYM_FIELDS)]
    g = _ELEMENTARY[k2]().compose(_ELEMENTARY[k1]())
    box = _box_grid(((0.8, 1.3), (-0.2, 0.6), (0.5, 0.9)), (3, 3, 3))
    for order in (0, 2, 3, 5):
        for comp in ("u", "v"):
            alone, batched = (
                getattr(apply_symmetry(g, catalog.instantiate(
                    fid, dict(bindings))), comp) for _ in range(2))
            singles = []
            for p in box:
                try:
                    singles.append(alone(p, order).coeffs)
                except UndefinedHere as exc:
                    singles.append(type(exc))
            rest = list(range(len(box)))
            while True:
                try:
                    got = batched(Point(*map(np.array, zip(
                        *(box[i] for i in rest)))), order).coeffs
                    break
                except UndefinedHere as exc:
                    named = [rest[i] for i in np.flatnonzero(exc.lanes)]
                    assert named and all(singles[i] is type(exc)
                                         for i in named), (pair, order)
                    rest = [i for i in rest if i not in named]
            assert rest == [i for i, c in enumerate(singles)
                            if isinstance(c, np.ndarray)]
            for i, c in zip(rest, got):
                assert np.array_equal(c, singles[i]), (pair, order, comp, i)


@pytest.mark.parametrize("first", range(len(_ELEMENTARY)))
def test_newton_inverse_matches_bisection(first):
    # each elementary kind alone and after every kind, and a decreasing Y,
    # at targets across the image of the window: Newton agrees with 200
    # steps of bisection to 4 ulp, or to the bracket that bisection leaves
    lo, hi = transforms.WINDOW
    resolution = (hi - lo) * 2.0 ** -200
    g1 = _ELEMENTARY[first]()
    maps = [g1.T, g1.Y, s_transform("-2*y + 0.5*sin(y)").compose(g1).Y]
    for make in _ELEMENTARY:
        g = make().compose(g1)
        maps += [g.T, g.Y]
    for f in maps:
        df = f.diff()
        for target in np.linspace(f(lo), f(hi), 41):
            got = transforms._invert_monotone(f, df, float(target))
            want = bisect_inverse(f, float(target), stop=0.0)
            assert abs(got - want) <= 4 * math.ulp(want) + resolution, \
                (f, target, got, want)


def test_newton_inverse_rejects_targets_outside_the_image():
    g = _ELEMENTARY[1]().compose(_ELEMENTARY[0]())
    lo, hi = transforms.WINDOW
    for f in (g.T, g.Y, s_transform("-2*y + 0.5*sin(y)").Y):
        for target in (min(f(lo), f(hi)) - 0.5, max(f(lo), f(hi)) + 1e-9,
                       100.0):
            with pytest.raises(InverseMapError, match="outside the image") \
                    as got:
                transforms._invert_monotone(f, f.diff(), target)
            with pytest.raises(InverseMapError) as want:
                bisect_inverse(f, target)
            assert str(got.value) == str(want.value)


def test_symmetry_image_reverts_each_axis_once_per_point(monkeypatch):
    calls = []
    revert = transforms._revert_series

    def counted(f):
        calls.append(len(f))
        return revert(f)

    monkeypatch.setattr(transforms, "_revert_series", counted)
    g = _ELEMENTARY[2]().compose(_ELEMENTARY[0]()).compose(_ELEMENTARY[1]())
    field = apply_symmetry(g, catalog.instantiate(
        "F_VXXX_4", {"alpha": "sin(y)", "gamma": "y"}))
    for p in (Point(1.0, 0.2, 0.6), Point(1.2, 0.4, 0.8)):
        calls.clear()
        field.u(p, 4)
        field.v(p, 4)
        assert calls == [5, 5]  # one reversion of order 4 for t, one for y
        residual(field, p)
        assert len(calls) == 2


class _PhiW:
    """Forward witness e^(x+t) + y, nonseparable in (x, y)."""
    @staticmethod
    def Phi(p, n):
        t, x, y = jets.coordinate_jets(p, n)
        return jets.exp(x + t) + y


class _PhiB:
    """Backward witness e^(x-t) + x*y."""
    @staticmethod
    def Phi(p, n):
        t, x, y = jets.coordinate_jets(p, n)
        return jets.exp(x - t) + x * y


def test_forward_chain_recursion():
    seed = uq_seed(_PhiW, constraint="u_y=q_y")
    stepped = laplace_forward_uq(seed)

    def phi1(p, n):
        f = _PhiW.Phi(p, n + 2)
        return (f.truncate(n) * f.derive("x").derive("y")
                - f.derive("x").truncate(n) * f.derive("y").truncate(n))

    for p in PTS:
        assert max(map(abs, residual_uq(stepped, p))) < 1e-10
        f1 = phi1(p, 1)
        f0 = _PhiW.Phi(p, 1)
        want_u = f1.derive("x").value / f1.value \
            - f0.derive("x").value / f0.value
        assert stepped.u(p, 0).value == pytest.approx(want_u, abs=1e-8)
        assert stepped.v(p, 0).value == pytest.approx(
            f1.derive("x").value / f1.value, abs=1e-8)


def test_inverse_chain_on_qy0_seed():
    seed = uq_seed(_PhiB, constraint="q_y=0")
    inv1 = laplace_inverse_uq(seed)
    for p in PTS:
        assert max(map(abs, residual_uq(inv1, p))) < 1e-10
        f0 = _PhiB.Phi(p, 3)
        s1 = f0.derive("x") / f0.truncate(2)
        f1 = f0.truncate(1) * s1.derive("y").truncate(1)
        assert inv1.u(p, 0).value == pytest.approx(
            -f1.derive("x").value / f1.value, abs=1e-9)


def test_forward_undefined_on_qy0():
    seed = uq_seed(_PhiB, constraint="q_y=0")
    bad = laplace_forward_uq(seed)
    with pytest.raises(UndefinedTransform):
        bad.u(PTS[0], 0)
    assert residual_report(bad, PTS[:1]).skipped == 1


def test_inverse_undefined_on_uyqy():
    seed = uq_seed(_PhiW, constraint="u_y=q_y")
    bad = laplace_inverse_uq(seed)
    with pytest.raises(UndefinedTransform):
        bad.u(PTS[0], 0)


def test_forward_then_inverse_uq_returns_u():
    seed = uq_seed(_PhiW, constraint="u_y=q_y")
    back = laplace_inverse_uq(laplace_forward_uq(seed))
    for p in PTS:
        assert back.u(p, 1).value == pytest.approx(seed.u(p, 1).value,
                                                   abs=1e-8)
        # q is recovered exactly as well for this map pair
        assert back.v(p, 1).value == pytest.approx(seed.v(p, 1).value,
                                                   abs=1e-8)


def test_theta_shift_self_map():
    # forward Laplace shifts the theta parameter of the quadrature family;
    # the path base stays off the family's x = 0 pole line.  The
    # u-component matches pointwise for any beta; the v-component matches
    # modulo an additive function of y once the y-rescaling gauge is
    # trivial (beta_y = 0), since a nonconstant beta re-enters v through
    # the leading coefficient and is removed by a y-reparameterization.
    base = Point(1.0, 0.5, 0.0)
    s0 = catalog.instantiate(
        "F_VXXX_2", {"beta": "2+cos(y)", "theta": "t", "t0": 1.0})
    s1 = catalog.instantiate(
        "F_VXXX_2", {"beta": "2+cos(y)", "theta": "t+1", "t0": 1.0})
    fwd = laplace_forward_uv(s0, base)
    pts = [Point(1.1, 0.7, 0.4), Point(1.3, 0.9, 0.8), Point(0.9, 1.2, 0.5)]
    for p in pts:
        assert fwd.u(p, 1).value == pytest.approx(s1.u(p, 1).value,
                                                  abs=1e-9)
    c0 = catalog.instantiate("F_VXXX_2",
                             {"beta": "2", "theta": "t", "t0": 1.0})
    c1 = catalog.instantiate("F_VXXX_2",
                             {"beta": "2", "theta": "t+1", "t0": 1.0})
    fwdc = laplace_forward_uv(c0, base)
    offs = []
    for (t, x) in [(1.0, 0.8), (1.2, 1.1), (1.4, 0.7)]:
        p = Point(t, x, 0.6)
        assert fwdc.u(p, 1).value == pytest.approx(c1.u(p, 1).value,
                                                   abs=1e-9)
        offs.append(fwdc.v(p, 1).value - c1.v(p, 1).value)
    assert np.ptp(offs) < 1e-7


FWD_IMAGE_CASES = [
    ("F_VXXX_1",
     {"alpha": "sin(y)", "beta": "2+cos(y)", "gamma": "y", "delta": 1},
     "F_LAPLACE_IMG_FWD1",
     {"alpha": "sin(y)", "beta": "2+cos(y)", "gamma": "y"}),
    ("F_VXXX_4",
     {"alpha": "1+0.3*sin(y)", "gamma": "y/2"},
     "F_LAPLACE_IMG_FWD4",
     {"alpha": "1+0.3*sin(y)", "gamma": "y/2"}),
]


@pytest.mark.parametrize("src,srcb,img,imgb", FWD_IMAGE_CASES)
def test_forward_uv_matches_printed_image(src, srcb, img, imgb):
    base = Point(1.0, 0.0, 0.5)
    fwd = laplace_forward_uv(catalog.instantiate(src, srcb), base)
    closed = catalog.instantiate(img, imgb)
    pts = [Point(t, x, y) for t in (0.9, 1.2) for x in (0.4, 0.9)
           for y in (0.45, 0.8)]
    for p in pts:
        assert fwd.u(p, 1).value == pytest.approx(closed.u(p, 1).value,
                                                  abs=1e-7)
    for y in (0.45, 0.8):
        offs = [fwd.v(Point(t, x, y), 1).value
                - closed.v(Point(t, x, y), 1).value
                for t in (0.9, 1.2) for x in (0.4, 0.9)]
        assert np.ptp(offs) < 1e-7, y


def test_inverse_uv_matches_printed_image():
    base = Point(1.0, 0.2, 0.5)
    src = catalog.instantiate(
        "F_VXXX_3", {"alpha": "sin(y)", "beta": "2+cos(y)",
                     "gamma": "1+0.2*y"})
    inv = laplace_inverse_uv(src, base)
    closed = catalog.instantiate(
        "F_LAPLACE_IMG_INV3", {"alpha": "sin(y)", "beta": "2+cos(y)",
                               "gamma": "1+0.2*y"})
    pts = [Point(t, x, y) for t in (0.9, 1.2) for x in (0.5, 0.9)
           for y in (0.45, 0.7)]
    for p in pts:
        assert inv.u(p, 1).value == pytest.approx(closed.u(p, 1).value,
                                                  abs=1e-7)
    for y in (0.45, 0.7):
        offs = [inv.v(Point(t, x, y), 1).value
                - closed.v(Point(t, x, y), 1).value
                for t in (0.9, 1.2) for x in (0.5, 0.9)]
        assert np.ptp(offs) < 1e-7


def test_laplace_uv_output_is_solution(rng):
    base = Point(1.0, 0.0, 0.5)
    b = catalog.sample_bindings("F_VXXX_1", rng)
    b["delta"] = 1
    fwd = laplace_forward_uv(catalog.instantiate("F_VXXX_1", b), base)
    pts = [Point(t, x, y) for t in np.linspace(0.9, 1.3, 3)
           for x in np.linspace(0.3, 1.0, 3)
           for y in np.linspace(0.4, 0.9, 3)]
    used = 0
    for p in pts:
        if not fwd.validity(p):
            continue
        try:
            r1, r2 = residual(fwd, p)
        except UndefinedHere:
            continue
        used += 1
        assert abs(r1) < 1e-6 and abs(r2) < 1e-6
    assert used > 15


def test_laplace_image_u_and_w_do_not_depend_on_the_form():
    # one (u,w) map serves both forms: a (u,v) field and its (u,q)
    # conversion carry the same u and w, so their images' u~ and w~ agree
    # bit for bit on a batch, at every order
    base = Point(1.0, 0.0, 0.5)
    s = catalog.instantiate("F_VXXX_1", {"alpha": "sin(y)",
                                         "beta": "2+cos(y)", "gamma": "y",
                                         "delta": 1})
    c = convert(s, "UQ", base)
    p = Point(*(a.ravel() for a in np.meshgrid(
        [0.9, 1.3], [0.4, 1.0], [0.4, 0.9], indexing="ij")))
    for uq, uv in ((laplace_forward_uq(c), laplace_forward_uv(s, base)),
                   (laplace_inverse_uq(c), laplace_inverse_uv(s, base))):
        for n in range(4):
            assert np.array_equal(uq.u(p, n).coeffs, uv.u(p, n).coeffs)
            assert np.array_equal(uq.w(p, n).coeffs, uv.w(p, n).coeffs)


# ----------------------------------------------------------------------
# Darboux
# ----------------------------------------------------------------------

def test_dt1_hand_example():
    phi = CoveringEigenfunction(phi=jmap(lambda t, x, y: x + y),
                                attached_to=ZERO_UQ)
    out = darboux("DT1", ZERO_UQ, phi)
    for p in PTS:
        assert out.u(p, 0).value == pytest.approx(-1.0 / (p.x + p.y),
                                                  abs=1e-12)
        assert out.v(p, 0).value == pytest.approx(0.0, abs=1e-12)
        assert max(map(abs, residual_uq(out, p))) < 1e-10


def test_dt2_hand_example():
    phi = CoveringEigenfunction(phi=jmap(lambda t, x, y: jets.exp(x - t)),
                                attached_to=ZERO_UQ)
    out = darboux("DT2", ZERO_UQ, phi)
    for p in PTS:
        assert out.u(p, 0).value == pytest.approx(0.0, abs=1e-12)
        assert out.v(p, 0).value == pytest.approx(1.0, abs=1e-12)


def test_eigenfunction_probe_rejects_non_solution():
    with pytest.raises(ValueError):
        CoveringEigenfunction(phi=jmap(lambda t, x, y: x * y),
                              attached_to=ZERO_UQ)


def test_eigenfunction_undefined_at_every_probe_point_is_bad_input():
    asked = []

    def nowhere(p, n):
        asked.append(p)
        raise UndefinedHere("not defined here")

    with pytest.raises(jets.BadInput, match="no usable probe points"):
        CoveringEigenfunction(phi=nowhere, attached_to=ZERO_UQ)
    assert asked == transforms._COVER_PROBE and len(asked) == 18


def test_eigenfunction_probes_reject_nan():
    # Python's max drops a NaN residual; neither probe may pass one
    nan_map = jmap(lambda t, x, y: math.nan * x)
    with pytest.raises(ValueError):
        CoveringEigenfunction(phi=nan_map, attached_to=ZERO_UQ)
    one = jmap(lambda t, x, y: 1.0 + 0.0 * x)
    with pytest.raises(ValueError, match="covering residual"):
        covering_solutions_for_constraint(
            "u_y=q_y", uq_seed(one, constraint="u_y=q_y"), one,
            theta=nan_map)


def test_eigenfunction_over_a_seed_with_nonzero_l():
    # theta solves theta_t + theta_xx + 2 L_x theta = 0 for L = x, not
    # the backward heat equation; psi solves the covering system
    phi_w = jmap(lambda t, x, y: jets.exp(x - 3.0 * t))
    seed = uq_seed(phi_w, L=jmap(lambda t, x, y: x), constraint="q_y=0")
    eig = covering_solutions_for_constraint(
        "q_y=0", seed, phi_w, theta=jmap(lambda t, x, y: jets.exp(-2.0 * t)))
    out = darboux("DT1", seed, eig)
    for p in PTS:
        assert max(map(abs, residual_uq(out, p))) < 1e-8


#: two eigenfunctions over the zero (u,q) field
_ZERO_PSIS = (jmap(lambda t, x, y: jets.exp(x - t) + y),
              jmap(lambda t, x, y: jets.exp(2.0 * x - 4.0 * t) + y * y))
_DRESSINGS = {
    "DT1": lambda phis: darboux("DT1", ZERO_UQ, phis[-1]),
    "DT2": lambda phis: darboux("DT2", ZERO_UQ, phis[-1]),
    "DT1x2": lambda phis: darboux_iterated("DT1", ZERO_UQ, phis),
    "DT2x2": lambda phis: darboux_iterated("DT2", ZERO_UQ, phis),
}


@pytest.mark.parametrize("dressing", sorted(_DRESSINGS))
def test_eigenfunction_checked_where_a_dressing_uses_it(dressing):
    # psi + 0.01 (x - p.x)^3 has psi's jet to degree 2 at the construction
    # probe point p, so it is built; at a grid point away from p it fails
    # the covering system, and the dressing says where
    p0 = transforms._COVER_PROBE[0]  # the zero field's domain is all space

    def off(p, n):
        dx = jets.lift_variable("x", p, n) - p0.x
        return _ZERO_PSIS[1](p, n) + 0.01 * dx * dx * dx

    phis = [CoveringEigenfunction(phi=_ZERO_PSIS[0], attached_to=ZERO_UQ),
            CoveringEigenfunction(phi=off, attached_to=ZERO_UQ)]
    assert issubclass(CoveringViolation, jets.BadInput)
    at = re.escape(f"at (t, x, y) = ({PTS[0].t!r}, {PTS[0].x!r}, "
                   f"{PTS[0].y!r})")
    with pytest.raises(CoveringViolation, match=at):
        _DRESSINGS[dressing](phis).u(PTS[0], 0)
    with pytest.raises(CoveringViolation, match=at):
        residual_report(_DRESSINGS[dressing](phis), PTS)
    good = [CoveringEigenfunction(phi=psi, attached_to=ZERO_UQ)
            for psi in _ZERO_PSIS]
    rep = residual_report(_DRESSINGS[dressing](good), PTS)
    assert rep.skipped == 0 and max(rep.r1_max, rep.r2_max) < 1e-8


@pytest.mark.parametrize("kind", ["DT1", "DT2"])
def test_eigenfunction_of_another_field_is_bad_input(kind):
    # e^(x-t) + y covers the zero (u,q) field, not the u_y=q_y seed of
    # _PhiW: unchecked, dressing that seed by it reads r1 0.55, r2 0.43,
    # a tolerance failure where the input is bad
    seed = uq_seed(_PhiW, constraint="u_y=q_y")
    own = covering_solutions_for_constraint("u_y=q_y", seed, _PhiW,
                                            theta=_THETAS[0])
    other = CoveringEigenfunction(phi=_ZERO_PSIS[0], attached_to=ZERO_UQ)
    words = (r"eigenfunction attached to 'zero' does not cover the dressed "
             r"field 'seed\[u_y=q_y\]'")
    with pytest.raises(jets.BadInput, match=words):
        darboux(kind, seed, other)
    with pytest.raises(jets.BadInput, match=words):
        darboux_iterated(kind, seed, [own, other])
    # a copy by with_meta keeps the maps; another zero field is covered too
    zero = SolutionField(u=lambda p, n: Jet3.constant(0.0, p, n),
                         v=lambda p, n: Jet3.constant(0.0, p, n),
                         coords="UQ", family_id="another zero")
    for s in (ZERO_UQ.with_meta(family_id="renamed"), zero):
        rep = residual_report(darboux(kind, s, other), PTS)
        assert rep.skipped == 0 and max(rep.r1_max, rep.r2_max) < 1e-8


@pytest.fixture(scope="module")
def rich_seed():
    class W:
        @staticmethod
        def Phi(p, n):
            t, x, y = jets.coordinate_jets(p, n)
            return jets.exp(x + t) + 0.3 * y + 0.1

    seed = uq_seed(W, constraint="u_y=q_y")
    th1 = jmap(lambda t, x, y: jets.exp(x - t))
    th2 = jmap(lambda t, x, y: jets.exp(2.0 * x - 4.0 * t))
    phi1 = covering_solutions_for_constraint(
        "u_y=q_y", seed, W, theta=th1,
        zeta=lambda yj: 1.0 + 0.2 * yj * yj)
    phi2 = covering_solutions_for_constraint(
        "u_y=q_y", seed, W, theta=th2, zeta=lambda yj: yj)
    return seed, phi1, phi2


def test_dt_outputs_solve_uq(rich_seed):
    seed, phi1, phi2 = rich_seed
    for kind in ("DT1", "DT2"):
        out = darboux(kind, seed, phi1)
        for p in PTS:
            assert max(map(abs, residual_uq(out, p))) < 1e-8, kind


def test_dt2_preserves_uy_equals_qy(rich_seed):
    seed, phi1, _ = rich_seed
    out = darboux("DT2", seed, phi1)
    for p in PTS:
        u = out.u(p, 2)
        q = out.v(p, 2)
        assert abs(u.extract((0, 0, 1)) - q.extract((0, 0, 1))) < 1e-9


def test_iterated_collapse_n1(rich_seed):
    seed, phi1, _ = rich_seed
    xy = CoveringEigenfunction(phi=jmap(lambda t, x, y: x + y),
                               attached_to=ZERO_UQ)
    single = darboux("DT1", ZERO_UQ, xy)
    once = darboux_iterated("DT1", ZERO_UQ, [xy])
    for p in PTS:
        assert once.u(p, 1).value == pytest.approx(single.u(p, 1).value,
                                                   abs=1e-10)
        assert once.v(p, 1).value == pytest.approx(single.v(p, 1).value,
                                                   abs=1e-10)
    single2 = darboux("DT2", seed, phi1)
    once2 = darboux_iterated("DT2", seed, [phi1])
    for p in PTS:
        assert once2.u(p, 1).value == pytest.approx(single2.u(p, 1).value,
                                                    abs=1e-9)
        assert once2.v(p, 1).value == pytest.approx(single2.v(p, 1).value,
                                                    abs=1e-9)


def test_iterated_n2_equals_composition(rich_seed):
    seed, phi1, phi2 = rich_seed
    for kind in ("DT1", "DT2"):
        once = darboux(kind, seed, phi1)
        psi2 = darboux_psi(kind, phi1.phi, phi2.phi)
        twice = darboux(kind, once,
                        CoveringEigenfunction(phi=psi2, attached_to=once))
        both = darboux_iterated(kind, seed, [phi1, phi2])
        for p in PTS:
            assert both.u(p, 0).value == pytest.approx(
                twice.u(p, 0).value, abs=1e-7)
            assert both.v(p, 0).value == pytest.approx(
                twice.v(p, 0).value, abs=1e-7)
            assert max(map(abs, residual_uq(both, p))) < 1e-8


def test_iterated_dt1_order_swap(rich_seed):
    seed, phi1, phi2 = rich_seed
    ab = darboux_iterated("DT1", seed, [phi1, phi2])
    ba = darboux_iterated("DT1", seed, [phi2, phi1])
    for p in PTS:
        assert ab.u(p, 0).value == pytest.approx(ba.u(p, 0).value,
                                                 abs=1e-9)
        assert ab.v(p, 0).value == pytest.approx(ba.v(p, 0).value,
                                                 abs=1e-9)


def test_commutation_identities(rich_seed):
    seed, phi1, phi2 = rich_seed

    def at(field, p):
        return (field.u(p, 0).value, field.v(p, 0).value)

    # DT1[DT1[p1]p2] o DT1[p1] = DT1[DT1[p2]p1] o DT1[p2]
    lhs = darboux("DT1", darboux("DT1", seed, phi1),
                  CoveringEigenfunction(
                      phi=darboux_psi("DT1", phi1.phi, phi2.phi),
                      attached_to=darboux("DT1", seed, phi1)))
    rhs = darboux("DT1", darboux("DT1", seed, phi2),
                  CoveringEigenfunction(
                      phi=darboux_psi("DT1", phi2.phi, phi1.phi),
                      attached_to=darboux("DT1", seed, phi2)))
    for p in PTS:
        assert at(lhs, p) == pytest.approx(at(rhs, p), abs=1e-7)

    # DT2[DT1[p1]p2] o DT2[p1] = DT2[DT1[p2]p1] o DT2[p2]
    lhs = darboux("DT2", darboux("DT2", seed, phi1),
                  CoveringEigenfunction(
                      phi=darboux_psi("DT2", phi1.phi, phi2.phi),
                      attached_to=darboux("DT2", seed, phi1)))
    rhs = darboux("DT2", darboux("DT2", seed, phi2),
                  CoveringEigenfunction(
                      phi=darboux_psi("DT2", phi2.phi, phi1.phi),
                      attached_to=darboux("DT2", seed, phi2)))
    for p in PTS:
        assert at(lhs, p) == pytest.approx(at(rhs, p), abs=1e-7)

    # DT2[DT1[p1]p2] o DT1[p1] = DT1[DT1[p2]p1] o DT2[p2]
    lhs = darboux("DT2", darboux("DT1", seed, phi1),
                  CoveringEigenfunction(
                      phi=darboux_psi("DT1", phi1.phi, phi2.phi),
                      attached_to=darboux("DT1", seed, phi1)))
    rhs = darboux("DT1", darboux("DT2", seed, phi2),
                  CoveringEigenfunction(
                      phi=darboux_psi("DT2", phi2.phi, phi1.phi),
                      attached_to=darboux("DT2", seed, phi2)))
    for p in PTS:
        assert at(lhs, p) == pytest.approx(at(rhs, p), abs=1e-7)


def test_covering_solution_examples():
    # constraint q_y=0 with Phi = 1, zeta = 1, theta = 0: psi = y - y0
    class One:
        @staticmethod
        def Phi(p, n):
            return Jet3.constant(1.0, p, n)

    seed = uq_seed(One, constraint="q_y=0")
    base = Point(1.0, 0.0, 0.0)
    phi = covering_solutions_for_constraint(
        "q_y=0", seed, One, zeta=lambda yj: 1.0 + 0.0 * yj, base=base)
    for p in PTS:
        assert phi.phi(p, 1).value == pytest.approx(p.y, abs=1e-10)

    # constraint u_y=q_y with zeta alone: psi = zeta(y)/Phi
    class W:
        @staticmethod
        def Phi(p, n):
            t, x, y = jets.coordinate_jets(p, n)
            return jets.exp(x + t) + 0.2 * y

    seed2 = uq_seed(W, constraint="u_y=q_y")
    phi2 = covering_solutions_for_constraint(
        "u_y=q_y", seed2, W, zeta=lambda yj: 2.0 + jets.sin(yj), base=base)
    for p in PTS:
        want = (2.0 + math.sin(p.y)) / W.Phi(p, 0).value
        assert phi2.phi(p, 1).value == pytest.approx(want, abs=1e-9)

    # zeta given as an expression in y: the same eigenfunction, whole jet
    phi3 = covering_solutions_for_constraint(
        "u_y=q_y", seed2, W, zeta=exprdsl.parse("2+sin(y)", "y"), base=base)
    for p in PTS:
        np.testing.assert_allclose(phi3.phi(p, 3).coeffs,
                                   phi2.phi(p, 3).coeffs, rtol=0, atol=1e-12)


def test_convert_roundtrip_on_catalog_family():
    base = Point(1.0, 0.3, 0.4)
    s = catalog.instantiate("F_VXXX_1", {"alpha": "sin(y)",
                                         "beta": "2+cos(y)",
                                         "gamma": "y", "delta": 1})
    uq = convert(s, "UQ", base)
    back = convert(uq, "UV", base)
    pts = [Point(0.9, 0.5, 0.5), Point(1.2, 0.8, 0.7)]
    for p in pts:
        r1, r2 = residual(back, p)
        assert abs(r1) < 1e-7 and abs(r2) < 1e-7
        assert back.u(p, 1).value == pytest.approx(s.u(p, 1).value,
                                                   abs=1e-8)


def test_dt1_preserves_qy0():
    seed = uq_seed(_PhiB, constraint="q_y=0")
    base = Point(1.0, 0.0, 0.0)
    phi = covering_solutions_for_constraint(
        "q_y=0", seed, _PhiB, zeta=lambda yj: 1.0 + 0.3 * yj, base=base)
    out = darboux("DT1", seed, phi)
    for p in PTS:
        q = out.v(p, 1)
        assert abs(q.extract((0, 0, 1))) < 1e-9
        assert max(map(abs, residual_uq(out, p))) < 1e-8


def test_inverse_uv_matches_printed_image_family5():
    base = Point(1.0, 0.2, 0.5)
    src = catalog.instantiate(
        "F_VXXX_5", {"alpha": "sin(y)", "beta": "4+cos(y)"})
    inv = laplace_inverse_uv(src, base)
    closed = catalog.instantiate(
        "F_LAPLACE_IMG_INV5", {"alpha": "sin(y)", "beta": "4+cos(y)"})
    pts = [Point(t, x, y) for t in (0.9, 1.2) for x in (0.5, 0.9)
           for y in (0.45, 0.7)]
    for p in pts:
        assert inv.u(p, 1).value == pytest.approx(closed.u(p, 1).value,
                                                  abs=1e-7)
    for y in (0.45, 0.7):
        offs = [inv.v(Point(t, x, y), 1).value
                - closed.v(Point(t, x, y), 1).value
                for t in (0.9, 1.2) for x in (0.5, 0.9)]
        assert np.ptp(offs) < 1e-7


def test_discrete_involutions():
    # the two sign-flip involutions: x-reflection and y-reflection
    s = catalog.instantiate("F_UEQV", {"alpha": "4+sin(y)"})
    refl_x = apply_symmetry(i_transform(-1), s)
    refl_y = apply_symmetry(s_transform("-y"), s)
    for p in PTS:
        q = Point(p.t, -p.x, p.y)
        assert refl_x.u(q, 1).value == pytest.approx(-s.u(p, 1).value,
                                                     abs=1e-10)
        assert refl_x.v(q, 1).value == pytest.approx(s.v(p, 1).value,
                                                     abs=1e-10)
        r = Point(p.t, p.x, -p.y)
        assert refl_y.u(r, 1).value == pytest.approx(s.u(p, 1).value,
                                                     abs=1e-10)
        assert refl_y.v(r, 1).value == pytest.approx(-s.v(p, 1).value,
                                                     abs=1e-10)
        assert max(map(abs, residual(refl_y, r))) < 1e-9
        # each involution squares to the identity
    twice = apply_symmetry(s_transform("-y"), refl_y)
    p = PTS[0]
    assert twice.v(p, 1).value == pytest.approx(s.v(p, 1).value, abs=1e-10)


def test_convert_raises_the_path_error_on_invalid_path():
    base = Point(1.0, 0.0, 0.0)   # x0 = 0 sits on the family's pole line
    s = catalog.instantiate("F_VXXX_2",
                            {"beta": "2+cos(y)", "theta": "t", "t0": 1.0})
    uq = convert(s, "UQ", base)
    back = convert(uq, "UV", base)
    p = Point(1.2, 0.8, 0.5)
    back.w(p, 1)   # defined at the point itself
    with pytest.raises(jets.DomainError, match="^x near zero$"):
        back.v(p, 1)


@pytest.mark.parametrize("fid,bindings", [
    ("F_UY0_QA", {"zeta": "cos(y)"}),
    ("F_VXXX_4", {"alpha": "sin(y)", "gamma": "y"}),
    ("F_VXXX_5", {"alpha": "sin(y)", "beta": "3+cos(y)"}),
    ("F_UEQV", {"alpha": "4+sin(y)"}),
])
def test_convert_roundtrip_families(fid, bindings):
    base = Point(1.0, 0.3, 0.4)
    s = catalog.instantiate(fid, bindings)
    back = convert(convert(s, "UQ", base), "UV", base)
    for p in [Point(0.9, 0.6, 0.5), Point(1.2, 0.8, 0.7)]:
        if not s.validity(p):
            continue
        try:
            u = s.u(p, 1)
        except UndefinedHere:
            continue
        assert back.u(p, 1).value == pytest.approx(u.value, abs=1e-8)
        # v agrees up to an additive function of y: slopes match
        assert back.v(p, 2).extract((0, 1, 0)) == pytest.approx(
            s.v(p, 2).extract((0, 1, 0)), abs=1e-7)
        r1, r2 = residual(back, p)
        assert abs(r1) < 1e-6 and abs(r2) < 1e-6, fid


class _CountingWitness:
    """Phi = sum_j c_j(y) exp(k_j x + s k_j^2 t) + a y + b; counts calls,
    and the points they ask (the lanes of a batch)."""

    def __init__(self, ks, coeffs, sign, linear=(0.0, 0.0)):
        self.ks, self.coeffs, self.sign = ks, coeffs, sign
        self.linear = linear
        self.calls = self.lanes = 0

    def Phi(self, p, n):
        self.calls += 1
        self.lanes += jets.lanes(p) or 1
        t, x, y = jets.coordinate_jets(p, n)
        acc = self.linear[0] * y + self.linear[1]
        for k, cs in zip(self.ks, self.coeffs):
            c = cs[0] + 0.0 * y
            for power, cp in enumerate(cs[1:], start=1):
                c = c + cp * y ** power
            acc = acc + c * jets.exp(k * x + self.sign * k * k * t)
        return acc


def _box_grid(box, shape):
    axes = [np.linspace(lo, hi, m) for (lo, hi), m in zip(box, shape)]
    return [Point(float(t), float(x), float(y))
            for t in axes[0] for x in axes[1] for y in axes[2]]


def _phi_calls_per_point(witness, field, grid, count="calls"):
    """Witness calls, or with ``count="lanes"`` points asked, per point
    of a grid report."""
    witness.calls = witness.lanes = 0
    rep = residual_report(field, grid)
    assert rep.skipped == 0 and rep.r1_max < 1e-6 and rep.r2_max < 1e-6
    return getattr(witness, count) / len(grid)


_MODE_KS = (-0.5, 0.5, 1.0, 1.5)
_MODE_COEFFS = ([1.0], [1.0, 0.0, 1.0], [0.0, 1.0], [0.5, 0.0, 0.0, 0.3])


@pytest.mark.parametrize("direction,depth,probed", [
    ("fwd", 1, 2), ("fwd", 2, 3), ("fwd", 3, 4),
    ("inv", 1, 2), ("inv", 2, 3), ("inv", 3, 4),
])
def test_laplace_uq_chain_phi_calls_grow_linearly(direction, depth, probed):
    # each level asks its parent for one jet per point, at the highest
    # order it needs, so the witness is asked once per point at every
    # depth (one call for a whole batch, so count the points it asks);
    # ``probed`` is the count when each level's validity also evaluated
    # it at a lower order, one more per level
    if direction == "fwd":
        w = _CountingWitness(_MODE_KS, _MODE_COEFFS, 1.0)
        field = uq_seed(w, constraint="u_y=q_y")
        step, box = laplace_forward_uq, ((0.1, 0.4), (-0.2, 0.2), (0.5, 1.0))
    else:
        w = _CountingWitness(_MODE_KS, _MODE_COEFFS, -1.0)
        field = uq_seed(w, constraint="q_y=0")
        step, box = laplace_inverse_uq, ((0.6, 1.3), (0.2, 0.8), (0.4, 0.9))
    for _ in range(depth):
        field = step(field)
    asked = _phi_calls_per_point(w, field, _box_grid(box, (2, 2, 2)),
                                 count="lanes")
    assert asked == 1 == probed - depth


# ----------------------------------------------------------------------
# (u,v) Laplace chains: each field answers v_x locally
# ----------------------------------------------------------------------

#: (source, bindings, path base, steps, point, pinned (u, v, r1, r2) of the
#: depth-1, -2 and -3 chains, from the nested evaluation the local v_x
#: maps replaced)
_UV_CHAINS = {
    "fwd-inv-fwd": (
        "F_VXXX_1",
        {"alpha": "sin(y)", "beta": "2+cos(y)", "gamma": "y", "delta": 1},
        Point(1.0, 0.0, 0.5), ("fwd", "inv", "fwd"), Point(1.1, 0.6, 0.7),
        [(0.224106495636739, 1.0567505223529747, 0.0,
          -1.3877787807814457e-16),
         (-0.16096616976124217, 1.3881369728632826, -3.767819389821625e-15,
          -4.718447854656915e-16),
         (0.224106495636739, 2.633379980214147, 6.661338147750939e-16,
          -3.760880495917718e-15)]),
    "inv-fwd-inv": (
        "F_VXXX_5", {"alpha": "sin(y)", "beta": "4+cos(y)"},
        Point(1.0, 0.2, 0.5), ("inv", "fwd", "inv"), Point(1.1, 0.7, 0.6),
        [(0.25854366598207446, 42.702257956723905, -2.0816681711721685e-17,
          0.0),
         (0.4168784909444835, 43.844011995848035, 2.6020852139652106e-18,
          -3.552713678800501e-15),
         (0.25854366598207446, 42.94654972207894, -1.734723475976807e-17,
          0.0)]),
}
_UV_STEPS = {"fwd": laplace_forward_uv, "inv": laplace_inverse_uv}


def _rewrapped(s):
    """``s`` with u and v behind pass-through wrappers that keep
    ``__wrapped__``, as a timing tracer wraps them."""
    def wrap(fn):
        def wrapper(p, n):
            return fn(p, n)
        wrapper.__wrapped__ = fn
        return wrapper
    return s.with_meta(u=wrap(s.u), v=wrap(s.v), validity=s.validity)


def _uv_chain(case, depth, rewrap=False):
    fid, bindings, base, steps, p, _ = _UV_CHAINS[case]
    field = catalog.instantiate(fid, bindings)
    for step in steps[:depth]:
        if rewrap:
            field = _rewrapped(field)
        field = _UV_STEPS[step](field, base)
    return field, p


def _count_path_integrals(monkeypatch):
    """Line integrals run from now on, by axis."""
    calls = Counter()
    inner = quadrature.integrate_field_along

    def counted(integrand, axis, *args):
        calls[axis] += 1
        return inner(integrand, axis, *args)
    for mod in (quadrature, system, transforms, catalog):
        if getattr(mod, "integrate_field_along", None) is inner:
            monkeypatch.setattr(mod, "integrate_field_along", counted)
    return calls


@pytest.mark.parametrize("rewrap", [False, True])
@pytest.mark.parametrize("case", list(_UV_CHAINS))
def test_laplace_uv_chain_path_integrals_grow_linearly(case, rewrap,
                                                        monkeypatch):
    # only the v of each level runs its path integral, once per point:
    # two line integrals per level (the nested evaluation ran 2, 36 and
    # about 600 at depths 1, 2 and 3); a rewrap that keeps __wrapped__
    # keeps the local v_x, so a traced chain costs the same
    calls = _count_path_integrals(monkeypatch)
    for depth in (1, 2, 3):
        field, p = _uv_chain(case, depth, rewrap)
        calls.clear()
        residual(field, p)
        assert sum(calls.values()) == 2 * depth, depth


@pytest.mark.parametrize("case", list(_UV_CHAINS))
def test_laplace_uv_chain_values_pinned(case):
    pinned = _UV_CHAINS[case][-1]
    for depth in (1, 2, 3):
        field, p = _uv_chain(case, depth)
        r1, r2 = residual(field, p)
        got = (field.u(p, 4).value, field.v(p, 4).value, r1, r2)
        assert got == pytest.approx(pinned[depth - 1], rel=0, abs=1e-12)


@pytest.mark.parametrize("case", list(_UV_CHAINS))
def test_laplace_uv_local_v_x_is_v_derived(case):
    # the local map is the x-derivative of the field's own v
    for depth in (1, 2, 3):
        field, p = _uv_chain(case, depth)
        local = field.w(p, 3).coeffs
        derived = field.v(p, 4).derive("x").coeffs
        assert np.allclose(local, derived, rtol=1e-10, atol=1e-10), depth


def test_v_x_kept_by_a_wrapping_rewrap_dropped_with_v():
    # w, the v_x of a (u,v) field, stays with a wrapped v and goes with v
    field, p = _uv_chain("fwd-inv-fwd", 2)
    base = _UV_CHAINS["fwd-inv-fwd"][2]
    assert _rewrapped(field).w is field.w
    assert field.with_meta(family_id="renamed").w is field.w
    # a new v brings its own w, by default derived from it
    detector = perturb_v(field, eps=0.05)
    assert detector.w is not field.w
    assert np.array_equal(detector.w(p, 2).coeffs,
                          detector.v(p, 3).derive("x").coeffs)
    # a conversion carries w: q_y of the (u,q) form, v of the (u,w) form
    uq = convert(field, "UQ", base)
    assert uq.w is field.w
    uw = convert(field, "UW", base)
    assert uw.v is field.w and uw.w is uw.v
    back = convert(uq, "UV", base)
    assert back.w is field.w
    assert np.allclose(back.w(p, 2).coeffs,
                       back.v(p, 3).derive("x").coeffs, atol=1e-9)


#: the F_VXXX_1 (u,q) chain, its path base and a point of its grid where
#: no image is near a pole (at (1.3, 0.4, 0.9) the depth-2 q_y has
#: Taylor coefficients near 1e9, and depth 3 cancels them to order 1)
_UQ_CHAIN = ("F_VXXX_1", {"alpha": "sin(y)", "beta": "2+cos(y)",
                          "gamma": "y", "delta": 1},
             Point(1.0, 0.0, 0.5), Point(0.9, 1.0, 0.4))


def test_uq_w_is_q_derived():
    # a converted field's q_y, and each (u,q) Laplace image's local one,
    # is the y-derivative of the field's own q
    fid, bindings, base, p = _UQ_CHAIN
    field = convert(catalog.instantiate(fid, bindings), "UQ", base)
    fields = [field, laplace_inverse_uq(field)]
    for _ in range(3):
        field = laplace_forward_uq(field)
        fields.append(field)
    for k, field in enumerate(fields):
        local = field.w(p, 3).coeffs
        derived = field.v(p, 4).derive("y").coeffs
        assert np.allclose(local, derived, rtol=1e-10, atol=1e-10), k


def test_uq_step_then_uv_step_runs_no_y_integral(monkeypatch):
    # converting a (u,q) image back to (u,v) reads the w the conversion to
    # (u,q) carried: the new v's path never reruns the y-integral of q
    # (184 y-integrals per residual here when q_y came from differentiating
    # q)
    fid, bindings, base, p = _UQ_CHAIN
    field = laplace_forward_uq(
        convert(catalog.instantiate(fid, bindings), "UQ", base))
    field = laplace_forward_uv(convert(field, "UV", base), base)
    calls = _count_path_integrals(monkeypatch)
    r1, r2 = residual(field, p)
    assert calls["y"] == 0 and calls["x"] > 0 and calls["t"] > 0
    assert max(abs(r1), abs(r2)) < 1e-8


#: Phi calls per point of an n-fold dressing's residual, by (kind, n):
#: each quadrature panel asks Phi once for its 15 abscissae (35, 68, 34
#: and 67 when each abscissa was one call), and the grid's points are one
#: batch, whose integrals ask Phi once for all lanes at the point itself
#: (7, 12, 6 and 11 when each point was evaluated alone), the t-leg's
#: line integral included (5, 9, 4.5 and 8.5 when it asked its lines one
#: by one), and the lanes of a quadrature refine in lockstep, each round
#: one call for the panels of every lane (4.5, 8, 4 and 7.5 when each lane
#: asked each panel alone).  A DT1 dressing's u asks the q below at the
#: key its q asks before the covering check, so the check reads it by
#: truncation and the seed's u is asked once (3.5, 6 and 9 when the check
#: walked the q chain down first)
_DARBOUX_PHI_CALLS = {("DT1", 1): 3, ("DT1", 2): 5.5, ("DT1", 3): 8,
                      ("DT2", 1): 3, ("DT2", 2): 5.5, ("DT2", 3): 8}


def _nfold_eigenfunctions(n_fold):
    """A counting witness, its (u,q) seed and ``n_fold`` eigenfunctions
    over it."""
    w = _CountingWitness((1.0,), ([1.0],), 1.0, linear=(0.3, 0.1))
    seed = uq_seed(w, constraint="u_y=q_y")
    thetas = [jmap(lambda t, x, y: jets.exp(x - t)),
              jmap(lambda t, x, y: jets.exp(2.0 * x - 4.0 * t)),
              jmap(lambda t, x, y: jets.exp(1.5 * x - 2.25 * t))]
    zetas = [lambda yj: 1.0 + 0.2 * yj * yj, lambda yj: yj,
             lambda yj: 2.0 + jets.sin(yj)]
    return w, seed, [covering_solutions_for_constraint(
                         "u_y=q_y", seed, w, theta=th, zeta=z)
                     for th, z in zip(thetas[:n_fold], zetas[:n_fold])]


@pytest.mark.parametrize("kind,n_fold,probed", [
    ("DT1", 1, 69), ("DT1", 2, 135), ("DT1", 3, None),
    ("DT2", 1, 68), ("DT2", 2, 134), ("DT2", 3, None),
])
def test_darboux_nfold_phi_calls(kind, n_fold, probed):
    # one jet per eigenfunction per point, for the residual; each is two
    # quadratures over the witness.  ``probed`` is the count when validity
    # also evaluated the field at order 0, which took about half of it
    # (not taken at n = 3)
    w, seed, phis = _nfold_eigenfunctions(n_fold)
    field = darboux_iterated(kind, seed, phis)
    grid = _box_grid(((0.6, 1.3), (0.2, 0.8), (0.4, 0.9)), (2, 1, 1))
    calls = _phi_calls_per_point(w, field, grid)
    assert calls == _DARBOUX_PHI_CALLS[kind, n_fold]
    if probed is not None:
        assert 2 * calls <= probed + 1


@pytest.mark.parametrize("kind", ["DT1", "DT2"])
def test_nfold_dressing_builds_without_evaluating(kind):
    # only the caller's eigenfunctions are probed, when they are built: a
    # carried eigenfunction is checked where its dressing uses it, and
    # building the dressing asks the witness nothing
    w, seed, phis = _nfold_eigenfunctions(3)
    w.calls = 0
    darboux_iterated(kind, seed, phis)
    assert w.calls == 0


# ----------------------------------------------------------------------
# no field keeps a domain predicate: validity is true everywhere and
# never evaluates a field
# ----------------------------------------------------------------------

_THETAS = (jmap(lambda t, x, y: jets.exp(x - t)),
           jmap(lambda t, x, y: jets.exp(2.0 * x - 4.0 * t)))
_UV_BASE = Point(1.0, 0.0, 0.5)
_UV_BUILDS = {
    "laplace_forward_uv": lambda s: laplace_forward_uv(s, _UV_BASE),
    "laplace_inverse_uv": lambda s: laplace_inverse_uv(s, _UV_BASE),
    "convert-UV-UQ": lambda s: convert(s, "UQ", _UV_BASE),
    "convert-UV-UW": lambda s: convert(s, "UW", _UV_BASE),
}
_UQ_BUILDS = {
    "laplace_forward_uq": lambda s, phis: laplace_forward_uq(s),
    "laplace_inverse_uq": lambda s, phis: laplace_inverse_uq(s),
    "darboux-DT1": lambda s, phis: darboux("DT1", s, phis[0]),
    "darboux-DT2": lambda s, phis: darboux("DT2", s, phis[0]),
    "darboux_iterated-DT1": lambda s, phis: darboux_iterated("DT1", s, phis),
    "darboux_iterated-DT2": lambda s, phis: darboux_iterated("DT2", s, phis),
    "convert-UQ-UV": lambda s, phis: convert(s, "UV", Point(1.0, 0.3, 0.5)),
}
_VALIDITY_CASES = [d.id for d in catalog.list_families()] \
    + list(_UV_BUILDS) + list(_UQ_BUILDS)


def _validity_case(case):
    """The field, the fields below it, the other maps it evaluates (heat
    witness, eigenfunctions) and a (t, x, y) box to sample."""
    if case in _UV_BUILDS:
        fid = "F_VXXX_5" if case == "laplace_inverse_uv" else "F_VXXX_1"
        s, _, maps, box = _validity_case(fid)
        return _UV_BUILDS[case](s), [s], maps, box
    if case in _UQ_BUILDS:
        w = _PhiB if case == "laplace_inverse_uq" else _PhiW
        seed = uq_seed(w, constraint="q_y=0" if w is _PhiB else "u_y=q_y")
        phis = [covering_solutions_for_constraint(
                    "u_y=q_y", seed, w, theta=th,
                    zeta=lambda yj: 1.0 + 0.2 * yj * yj)
                for th in _THETAS] if case.startswith("darboux") else []
        return (_UQ_BUILDS[case](seed, phis), [seed],
                [w.Phi, *(f.phi for f in phis)],
                ((0.6, 1.3), (0.2, 0.8), (0.4, 0.9)))
    b = catalog.sample_bindings(case, np.random.default_rng(7))
    maps = [b["Phi"].Phi] if "Phi" in b else []
    return catalog.instantiate(case, b), [], maps, catalog.default_box(case)


@pytest.mark.parametrize("case", _VALIDITY_CASES)
def test_validity_never_evaluates_a_field(case):
    # every call of u or v of the field and of each field below it, of
    # the heat witness and of the eigenfunctions is counted, including
    # calls through references a validity closure holds itself
    field, below, maps, box = _validity_case(case)
    codes = {inspect.unwrap(m).__code__
             for m in [*maps, *(c for s in (field, *below)
                                for c in (s.u, s.v))]}
    calls = [0]

    def count(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[0] += 1

    grid = _box_grid(box, (4, 4, 4))
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        inside = [field.validity(p) for p in grid]
    finally:
        sys.setprofile(previous)
    assert calls[0] == 0
    assert all(inside)


def test_singular_wronskian_point_is_skipped():
    # equal eigenfunctions make the Wronskian vanish: the first dressing
    # carries the others to zero, and the second one's guard fires
    seed = uq_seed(_PhiW, constraint="u_y=q_y")
    phi = covering_solutions_for_constraint(
        "u_y=q_y", seed, _PhiW, theta=_THETAS[0], zeta=lambda yj: yj)
    field = darboux_iterated("DT1", seed, [phi, phi, phi])
    with pytest.raises(UndefinedTransform):
        field.u(PTS[0], 0)
    rep = residual_report(field, PTS)
    assert rep.skipped == len(PTS) and rep.rows == []


def test_u_y_q_y_eigenfunction_runs_one_t_leg_per_grid_line(monkeypatch):
    # psi's path integral has an x-leg per point and a t-leg per (t, y)
    # line: n^3 + n^2 integrals on an n^3 grid, not 2 n^3
    calls = [0]
    integrate = quadrature.integrate_field_along

    def counted(*args, **kw):
        calls[0] += 1
        return integrate(*args, **kw)

    monkeypatch.setattr(quadrature, "integrate_field_along", counted)
    seed = uq_seed(_PhiW, constraint="u_y=q_y")
    eig = covering_solutions_for_constraint(
        "u_y=q_y", seed, _PhiW, theta=_THETAS[0], zeta=lambda yj: yj)
    n = 3
    axis = np.linspace(0.0, 1.0, n)
    grid = [Point(0.7 + 0.4 * t, 0.1 + 0.4 * x, 0.4 + 0.4 * y)
            for t in axis for x in axis for y in axis]
    calls[0] = 0
    for p in grid:
        eig.phi(p, 2)
    assert calls[0] == n ** 3 + n ** 2
