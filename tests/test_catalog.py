import hashlib
import json
import math

import numpy as np
import pytest

from blp import catalog, jets, quadrature
from blp.catalog import (
    BadBinding, HeatWitness, UnknownFamily, WitnessViolation,
    combine_witnesses, heat_witness_library, instantiate, list_families,
    sample_bindings, sinh_gordon_kink,
)
from blp.exprdsl import parse
from blp.jets import Point, UndefinedHere
from blp.system import residual, residual_report


def grid_for(family_id, n=3):
    (tr, xr, yr) = catalog.default_box(family_id)
    return [Point(float(t), float(x), float(y))
            for t in np.linspace(*tr, n)
            for x in np.linspace(*xr, n)
            for y in np.linspace(*yr, n)]


def test_listing_contains_required_ids():
    ids = [d.id for d in list_families()]
    assert len(ids) >= 22
    assert ids == sorted(set(ids), key=ids.index)  # stable, unique
    assert "F_HOPFCOLE2D" in ids
    for k in range(1, 6):
        assert f"F_VXXX_{k}" in ids
    for fid in ("F_VX0", "F_STATLIOUVILLE", "F_UY0_TRIV", "F_UY0_QA",
                "F_UY0_QB", "F_UXXV4X_A", "F_UXXV4X_B", "F_UXX_BERNOULLI",
                "F_UEQV", "F_R29_ELLIPTIC", "F_R29_ELEM_1", "F_R29_ELEM_2",
                "F_R29_ELEM_3", "F_R22_ELEM_1", "F_R22_ELEM_2",
                "F_R22_ELEM_3", "F_R24_PAINLEVE4", "F_R29_PAINLEVE2",
                "F_SINHGORDON", "F_LAPLACE_IMG_FWD1", "F_LAPLACE_IMG_FWD4",
                "F_LAPLACE_IMG_INV3", "F_LAPLACE_IMG_INV3X",
                "F_LAPLACE_IMG_INV5"):
        assert fid in ids, fid


def test_descriptor_params():
    desc = {d.id: d for d in list_families()}
    assert desc["F_HOPFCOLE2D"].required_params == (
        ("Phi", "heat_witness_forward"),)
    assert desc["F_VXXX_1"].required_params[-1] == ("delta", "flag01")


def test_unknown_family_and_bad_binding():
    with pytest.raises(UnknownFamily):
        instantiate("F_NOPE", {})
    with pytest.raises(BadBinding):
        instantiate("F_UY0_TRIV", {"bogus": 1})
    with pytest.raises(BadBinding):
        instantiate("F_VXXX_1", {"delta": 2})
    for fid, bad in [("F_R29_ELEM_2", {"kappa": float("nan")}),
                     ("F_R29_ELEM_2", {"kappa": True}),
                     ("F_R22_ELEM_1", {"eps1": "-1"}),
                     ("F_R24_PAINLEVE4", {"span": [-1.2, float("inf")]}),
                     ("F_R24_PAINLEVE4", {"init": (0.0, 0.88)}),
                     ("F_R24_PAINLEVE4", {"eps": 3}),
                     ("F_UY0_QA", {"zeta": True}),
                     ("F_SINHGORDON", {"theta": "x"})]:
        with pytest.raises(BadBinding):
            instantiate(fid, bad)


def test_every_kind_has_a_rule():
    desc = catalog.FamilyDescriptor("F_X", "UV", (("c", "bogus"),), "", "",
                                    defaults={"c": 1.0})
    with pytest.raises(ValueError, match="bogus"):
        catalog._register(desc)


def test_hopf_cole_example():
    # Phi = e^(x+t) (1+y): u = 1, v = 1/(1+y)
    w = combine_witnesses([heat_witness_library("plane_exp", k=1.0)],
                          [parse("1+y", "y")])
    s = instantiate("F_HOPFCOLE2D", {"Phi": w})
    p = Point(0.4, 0.2, 0.7)
    assert s.u(p, 2).value == pytest.approx(1.0, abs=1e-12)
    assert s.v(p, 2).value == pytest.approx(1.0 / 1.7, abs=1e-12)
    assert residual(s, p) == pytest.approx((0.0, 0.0), abs=1e-12)


def test_vxxx4_example():
    s = instantiate("F_VXXX_4", {"alpha": "y", "gamma": "0"})
    p = Point(0.7, 0.4, 0.8)
    e = p.x + 2.0 * p.y * p.t
    assert s.u(p, 2).value == pytest.approx(p.y)
    assert s.v(p, 2).value == pytest.approx(p.y * e * e - p.x)
    rep = residual_report(s, grid_for("F_VXXX_4"))
    assert max(rep.r1_max, rep.r2_max) < 1e-10


def test_r29_elem1_example():
    s = instantiate("F_R29_ELEM_1", {})
    p = Point(0.2, 0.4, 0.3)
    w = 0.7
    assert s.u(p, 2).value == pytest.approx(1 / (w - 1) - 1 / (w + 1) + 0.5)
    assert s.v(p, 2).value == pytest.approx(1 / (w - 1) + (w + 0.2) / 4)
    r1, r2 = residual(s, p)
    assert abs(r1) < 1e-12 and abs(r2) < 1e-12


def test_heat_witness_polynomial():
    w = heat_witness_library("heat_polynomial", n=2)
    p = Point(0.5, 0.3, 0.0)
    f = w.Phi(p, 2)
    assert f.value == pytest.approx(p.x ** 2 + 2 * p.t)
    assert w.probe([p]) < 1e-12


def test_heat_witness_plane_exp_directions():
    fw = heat_witness_library("plane_exp", k=1.0)
    bw = heat_witness_library("plane_exp", k=1.0, direction="backward")
    assert fw.probe(catalog._PROBE_GRID) < 1e-10
    assert bw.probe(catalog._PROBE_GRID) < 1e-10


def test_heat_witness_gaussian():
    w = heat_witness_library("gaussian", t0=1.0, direction="backward")
    pts = [Point(t, x, 0.0) for t in np.linspace(0.2, 0.8, 4)
           for x in (-0.4, 0.3)]
    assert w.probe(pts) < 1e-10
    fwd = heat_witness_library("gaussian", t0=1.0)
    pts = [Point(t, x, 0.0) for t in np.linspace(1.1, 2.0, 4)
           for x in (-0.4, 0.3)]
    assert fwd.probe(pts) < 1e-10


def test_witness_direction_mismatch_rejected():
    fw = heat_witness_library("plane_exp", k=1.0)
    with pytest.raises(BadBinding):
        instantiate("F_VX0", {"Phi": fw})


def test_witness_violation_detected():
    def bogus(p, n):
        t, x, _ = jets.coordinate_jets(p, n)
        return jets.exp(x + 2.0 * t)
    bad = HeatWitness(Phi=bogus, H=0, direction="forward", label="bogus")
    with pytest.raises(WitnessViolation):
        instantiate("F_HOPFCOLE2D", {"Phi": bad})
    # a NaN probe residual is no pass
    with pytest.raises(WitnessViolation):
        instantiate("F_VX0", {"Phi": {"kind": "plane_exp", "k": math.nan}})


def _bogus_phi(p, n):
    t, x, _ = jets.coordinate_jets(p, n)
    return jets.exp(x + 2.0 * t)


@pytest.mark.parametrize("witness", [
    heat_witness_library("plane_exp", k=1.3),
    heat_witness_library("plane_exp", direction="backward"),
    heat_witness_library("heat_polynomial", n=3),
    heat_witness_library("gaussian", x0=0.2),
    heat_witness_library("gaussian", t0=1.0, direction="backward"),
    heat_witness_library("separable_trig", k=0.8, trig="cos"),
    HeatWitness(Phi=_bogus_phi, H=parse("x", "x"), label="bogus")],
    ids=lambda w: w.label)
def test_witness_probe_reads_phi_at_order_two(witness):
    asked = {"Phi": [], "H": []}

    def counting(name, m):
        def ask(p, n):
            asked[name].append((n, jets.lanes(p)))
            return m(p, n)
        return ask

    counted = HeatWitness(Phi=counting("Phi", witness.Phi),
                          H=counting("H", witness.h_jet),
                          direction=witness.direction)
    value = counted.probe(catalog._PROBE_GRID)
    # Phi and H are each asked once, at order 2 and 0, as one batch
    size = len(catalog._PROBE_GRID)
    assert asked == {"Phi": [(2, size)], "H": [(0, size)]}
    # the reference: Phi and H asked two orders up give the same value
    higher = HeatWitness(Phi=lambda p, n: witness.Phi(p, n + 2),
                         H=lambda p, n: witness.h_jet(p, n + 2),
                         direction=witness.direction)
    assert value == higher.probe(catalog._PROBE_GRID)


def test_witness_is_probed_where_it_is_defined():
    # this gaussian is undefined at the probe points t <= 0.5 but solves
    # the heat equation on the family's box, t >= 0.6
    spec = {"kind": "gaussian", "t0": 0.5}
    w = heat_witness_library(**spec)
    undefined = 0
    for p in catalog._PROBE_GRID:
        try:
            w.Phi(p, 2)
        except UndefinedHere:
            undefined += 1
    assert 0 < undefined < len(catalog._PROBE_GRID)
    s = instantiate("F_HOPFCOLE2D", {"Phi": spec})
    rep = residual_report(s, grid_for("F_HOPFCOLE2D"))
    assert rep.r1_max < 1e-8 and rep.r2_max < 1e-8


def test_witness_undefined_at_every_probe_point_is_a_violation():
    # the backward gaussian with t0 = 0 needs t < 0; the error names Phi
    with pytest.raises(WitnessViolation, match="^Phi: "):
        instantiate("F_VX0", {"Phi": {"kind": "gaussian"}})
    assert math.isnan(heat_witness_library(
        "gaussian", direction="backward").probe(catalog._PROBE_GRID))


def test_sinh_gordon_probe_skips_points_where_theta_is_undefined():
    theta = sinh_gordon_kink()
    asked = []

    def counted(p, n):
        asked.append(jets.lanes(p))
        return theta(p, n)

    instantiate("F_SINHGORDON", {"theta": counted})
    # one batch of every probe point, then the points the kink's chart
    # guard did not name, then each named point alone
    size = len(catalog._PROBE_GRID)
    assert asked[0] == size and 0 < size - asked[1] < size
    assert asked[2:] == [1] * (size - asked[1])


def test_sinh_gordon_probe_rejects_wrong_theta():
    def theta(p, n):
        t, x, y = jets.coordinate_jets(p, n)
        return x * y
    with pytest.raises(WitnessViolation):
        instantiate("F_SINHGORDON", {"theta": theta})


def test_sinh_gordon_probe_rejects_nan_theta():
    # Python's max drops a NaN; the probe's residual must not
    def theta(p, n):
        return jets.Jet3.constant(math.nan, p, n)
    with pytest.raises(WitnessViolation):
        instantiate("F_SINHGORDON", {"theta": theta})


CONSTRAINT_CASES = [
    ("F_VX0", {}),
    ("F_HOPFCOLE2D", {}),
    ("F_UY0_QA", {}),
    ("F_UY0_QB", {}),
    ("F_VXXX_1", {}),
    ("F_VXXX_4", {}),
    ("F_UXXV4X_A", {}),
    ("F_UEQV", {}),
]


@pytest.mark.parametrize("fid,b", CONSTRAINT_CASES)
def test_constraint_tags_are_live(fid, b):
    rng = np.random.default_rng(5)
    bindings = b or sample_bindings(fid, rng)
    s = instantiate(fid, bindings)
    checked = 0
    for p in grid_for(fid):
        if checked == 8:
            break
        if not s.validity(p):
            continue
        try:
            u, v = s.u(p, 4), s.v(p, 4)
        except UndefinedHere:
            continue
        checked += 1
        if fid == "F_VX0":
            assert abs(v.extract((0, 1, 0))) < 1e-10
        elif fid == "F_HOPFCOLE2D":
            assert abs(u.extract((0, 0, 1)) - v.extract((0, 1, 0))) < 1e-10
        elif fid.startswith("F_UY0"):
            assert abs(u.extract((0, 0, 1))) < 1e-10
        elif fid.startswith("F_VXXX"):
            assert abs(v.extract((0, 3, 0))) < 1e-9
        elif fid.startswith("F_UXXV4X"):
            assert abs(u.extract((0, 2, 0))) < 1e-9
            assert abs(v.extract((0, 4, 0))) < 1e-7
        elif fid == "F_UEQV":
            assert u.value == v.value
    assert checked


def test_elliptic_profile_satisfies_quartic():
    rng = np.random.default_rng(11)
    b = sample_bindings("F_R29_ELLIPTIC", rng)
    s = instantiate("F_R29_ELLIPTIC", b)
    from blp.specfun import QuarticODE, quartic_particular_solution
    q = QuarticODE(1.0, 0.0, b["C0"] / 3.0, b["delta"], b["C2"])
    phi = quartic_particular_solution(q, 0.0)
    for w in np.linspace(0.4, 1.2, 9):
        out = phi(jets.lift_variable("x", Point(0, float(w), 0), 1))
        res = out.extract((0, 1, 0)) ** 2 - q.F(out.value)
        assert abs(res) < 1e-7 * (1.0 + abs(q.F(out.value)))


def test_bernoulli_one_line_integral_per_line(monkeypatch):
    # psi~ depends on (t, y) only: u (omega at order 5) and v (order 4)
    # share one integral per (t, y) line of the 5^3 grid, all 25 lines
    # integrated in one call on the grid's batch
    counts = []
    integrate = quadrature.integrate_field_along

    def counted(field, axis, lower, p, order):
        counts.append(jets.lanes(p) or 1)
        return integrate(field, axis, lower, p, order)

    monkeypatch.setattr(quadrature, "integrate_field_along", counted)
    s = instantiate("F_UXX_BERNOULLI", {})
    grid = grid_for("F_UXX_BERNOULLI", 5)
    rep = residual_report(s, grid)
    assert len(grid) == 125 and rep.skipped == 0
    assert max(rep.r1_max, rep.r2_max) < 1e-6
    assert counts == [25]


def test_bernoulli_abscissae_keep_y_capped_at_zero(monkeypatch):
    # psi~'s abscissae along y ask keys with y capped at 0, and chi_t and
    # u raise t alone: no table asked has a y cap between 0 and its order
    asked = set()
    tables = jets._tables

    def counted(order):
        asked.add(order)
        return tables(order)

    monkeypatch.setattr(jets, "_tables", counted)
    residual_report(instantiate("F_UXX_BERNOULLI", {}),
                    grid_for("F_UXX_BERNOULLI", 3))
    y_caps = {k: jets._caps(k)[2] for k in asked}
    assert 0 in y_caps.values()
    assert all(c in (0, int(k)) for k, c in y_caps.items()), y_caps


@pytest.mark.parametrize("fid,seed,widen,skipped", [
    ("F_UXX_BERNOULLI", 1, 0.5, 15), ("F_UXX_BERNOULLI", 0, 3.0, 45),
    ("F_SINHGORDON", 0, 3.0, 40), ("F_SINHGORDON", 4, 3.0, 30),
])
def test_path_families_skip_where_their_path_leaves_the_domain(
        fid, seed, widen, skipped):
    # on a box widened by ``widen`` box widths each way, the path integral
    # meets points where chi_t (Bernoulli) or theta (sinh-Gordon) is
    # undefined, and the residual's own DomainError skips the point; the
    # counts are those of a probe at 5 points along each path
    b = sample_bindings(fid, np.random.default_rng(seed))
    box = [(lo - widen * (hi - lo), hi + widen * (hi - lo))
           for lo, hi in catalog.default_box(fid)]
    grid = [Point(float(t), float(x), float(y))
            for t in np.linspace(*box[0], 5) for x in np.linspace(*box[1], 5)
            for y in np.linspace(*box[2], 5)]
    rep = residual_report(instantiate(fid, b), grid)
    assert rep.skipped == skipped
    assert max(rep.r1_max, rep.r2_max) < 1e-6


def test_universal_residual_gate(rng):
    worst = {}
    for d in list_families():
        for trial in range(2):
            b = sample_bindings(d.id, rng)
            s = instantiate(d.id, b)
            rep = residual_report(s, grid_for(d.id))
            assert rep.skipped < 20, (d.id, rep.skipped)
            quad = d.id in ("F_VXXX_2", "F_SINHGORDON", "F_UXX_BERNOULLI",
                            "F_R24_PAINLEVE4", "F_R29_PAINLEVE2")
            bound = 1e-6 if quad else 1e-8
            assert max(rep.r1_max, rep.r2_max) < bound, \
                (d.id, rep.r1_max, rep.r2_max)
            worst[d.id] = max(rep.r1_max, rep.r2_max)
    assert len(worst) >= 22


def test_perturbation_detector_every_family(rng):
    # adding 0.05 x^3 to v must push the first-equation residual above
    # 1e-2 (its third x-derivative alone contributes 0.6)
    from blp.system import perturb_v
    for d in list_families():
        field = perturb_v(
            instantiate(d.id, sample_bindings(d.id, rng)), eps=0.05)
        hit = 0.0
        for p in grid_for(d.id, 2):
            if not field.validity(p):
                continue
            try:
                r1, r2 = residual(field, p)
            except Exception:
                continue
            hit = max(hit, abs(r1), abs(r2))
            if hit > 1e-2:
                break
        assert hit > 1e-2, d.id


# Digest of default_box(fid) and, for seeds 0-4, of the sampled bindings
# and the rng's next draw after sampling.  Recorded before the samplers
# moved into the family descriptors: criterion 1 shares one rng across
# all families, so one extra or missing draw would change every later one.
SAMPLER_DIGESTS = {
    "F_VX0": "972b8342223d9bac",
    "F_HOPFCOLE2D": "0c9c00d6b87470cd",
    "F_STATLIOUVILLE": "f5c8ef934712da73",
    "F_UY0_TRIV": "53e474d0be296127",
    "F_UY0_QA": "2c1500b0bd3a01fb",
    "F_UY0_QB": "2756d70cb68ab7e7",
    "F_VXXX_1": "5b97c5fdbf0c24dc",
    "F_VXXX_2": "d83c19e54b329d3c",
    "F_VXXX_3": "6300508b25cb7e5f",
    "F_VXXX_4": "a5cb6165450313d4",
    "F_VXXX_5": "52c10664d82134ca",
    "F_UXXV4X_A": "9236081b836db9d7",
    "F_UXXV4X_B": "d1c8e827f95bb3e4",
    "F_UXX_BERNOULLI": "0ea57ca619f3a743",
    "F_UEQV": "f5aae816b52121b1",
    "F_R29_ELLIPTIC": "0e771f8b04fd1666",
    "F_R29_ELEM_1": "d19f194089fa700a",
    "F_R29_ELEM_2": "72516c22e9d55408",
    "F_R29_ELEM_3": "2b7608d6bea68b19",
    "F_R22_ELEM_1": "491b8109eb479389",
    "F_R22_ELEM_2": "f951498878967b31",
    "F_R22_ELEM_3": "0cbab386a091d69e",
    "F_R24_PAINLEVE4": "5d6ad8a62baa3af4",
    "F_R29_PAINLEVE2": "621006033c86c990",
    "F_SINHGORDON": "36599117c9ca0d7f",
    "F_LAPLACE_IMG_FWD1": "6300508b25cb7e5f",
    "F_LAPLACE_IMG_FWD4": "72e2073a35f6786e",
    "F_LAPLACE_IMG_INV3": "2bc4c935b74dcd34",
    "F_LAPLACE_IMG_INV3X": "e44a76af667ac016",
    "F_LAPLACE_IMG_INV5": "f66bf59a1d7fa079",
}
_PIN_POINT = Point(0.5, -1.0, 0.5)


def _pin_default(obj):
    """JSON form of a sampled witness or jet map; their repr holds an
    address, so they are pinned by label and a value instead."""
    if isinstance(obj, HeatWitness):
        return [obj.label, obj.direction, obj.Phi(_PIN_POINT, 0).value]
    return obj(_PIN_POINT, 0).value


def _sampler_digest(fid):
    h = hashlib.sha256(json.dumps(catalog.default_box(fid)).encode())
    for seed in range(5):
        rng = np.random.default_rng(seed)
        b = sample_bindings(fid, rng)
        h.update(json.dumps(b, sort_keys=True, default=_pin_default).encode())
        h.update(repr(rng.random()).encode())
    return h.hexdigest()[:16]


def test_sampled_bindings_and_boxes_are_pinned():
    assert [d.id for d in list_families()] == list(SAMPLER_DIGESTS)
    for fid, digest in SAMPLER_DIGESTS.items():
        assert _sampler_digest(fid) == digest, fid
    # ids outside the catalog (CLI seeds such as zero_uq) draw nothing
    rng = np.random.default_rng(0)
    assert sample_bindings("zero_uq", rng) == {}
    assert rng.random() == np.random.default_rng(0).random()
    assert catalog.default_box("zero_uq") == \
        ((0.6, 1.4), (0.3, 1.3), (0.2, 1.2))
