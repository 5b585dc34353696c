import math

import numpy as np
import pytest

from blp import jets, quadrature
from blp.jets import Point
from blp.quadrature import (
    QuadratureError, adaptive_quadrature, gauss_kronrod_15,
    integrate_field_along, line_integral, xt_path,
)
from conftest import central_diff, per_node


def test_polynomial_exact():
    val, err = gauss_kronrod_15(lambda s: s ** 6, 0.0, 2.0)
    assert val == pytest.approx(2.0 ** 7 / 7, rel=1e-14)
    assert err < 1e-12


def _loop_gk15(f, a, b):
    """Reference: one GK15 panel, its two sums by a loop over the pairs of
    abscissae, term after term."""
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    x = h * quadrature._XGK[:7]
    nodes = np.empty(15)
    nodes[0] = c
    nodes[1::2] = c - x
    nodes[2::2] = c + x
    fx = np.asarray(f(nodes), dtype=float)
    wgk, wg = quadrature._WGK, quadrature._WG
    resk = wgk[7] * fx[0]
    resg = wg[3] * fx[0]
    for j in range(7):
        pair = fx[2 * j + 1] + fx[2 * j + 2]
        resk = resk + wgk[j] * pair
        if j % 2 == 1:
            resg = resg + wg[j // 2] * pair
    return resk * h, np.max(np.abs(resk - resg)) * abs(h)


@pytest.mark.parametrize("f", [
    lambda s: np.exp(3 * s) * np.sin(40 * s),
    lambda s: np.stack([np.cos(7 * s), s ** 3, 1 / (0.01 + s * s)], 1),
    lambda s: np.sin(s)[:, None, None] * np.arange(6.0).reshape(2, 3),
    lambda s: np.where(s > 0.5, np.inf, np.where(s < -0.5, np.nan, s)),
], ids=["scalar", "vector", "matrix", "inf_nan"])
def test_panels_in_one_call_match_the_loop(f):
    # sets of up to five panels of widths 1e-8 to 10, each set in one call
    # and each panel alone: the values and error estimates of the loop,
    # bit for bit
    rng = np.random.default_rng(5)
    with np.errstate(all="ignore"):
        for _ in range(100):
            count = rng.integers(1, 6)
            a = rng.normal(size=count)
            b = a + rng.normal(size=count) * 10.0 ** rng.integers(-8, 2, count)
            values, errors = gauss_kronrod_15(f, a, b)
            assert values.shape[0] == errors.shape[0] == count
            for i in range(count):
                for got in ((values[i], errors[i]),
                            gauss_kronrod_15(f, a[i], b[i])):
                    want = _loop_gk15(f, a[i], b[i])
                    assert [np.asarray(g).tobytes() for g in got] == \
                        [np.asarray(w).tobytes() for w in want]


def test_adaptive_matches_closed_forms():
    assert adaptive_quadrature(per_node(math.exp), 0, 1) == pytest.approx(
        math.e - 1, rel=1e-12)
    assert adaptive_quadrature(lambda s: 1 / (1 + s * s), 0, 1) == pytest.approx(
        math.pi / 4, rel=1e-12)
    # mildly singular derivative at the endpoint
    assert adaptive_quadrature(per_node(math.sqrt), 0, 1) == pytest.approx(
        2 / 3, abs=1e-9)


def test_adaptive_vector_valued():
    out = adaptive_quadrature(per_node(lambda s: np.array([1.0, s, s * s])),
                              0, 3)
    assert out == pytest.approx([3.0, 4.5, 9.0], rel=1e-12)


def test_reversed_interval_sign():
    assert adaptive_quadrature(per_node(math.cos), 1.0, 0.0) == \
        pytest.approx(-math.sin(1.0), rel=1e-12)


def test_pole_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_PANELS", 64)
    with pytest.raises(QuadratureError):
        adaptive_quadrature(per_node(lambda s: 1.0 / (s - 1 / 3)), 0.0, 1.0)


def _field_sin_ty(p, n):
    t, x, y = jets.coordinate_jets(p, n)
    return jets.sin(t * y) + x


def test_integrate_field_along_x():
    # F = int_{x0}^{x} (sin(t*y) + x') dx' = sin(t*y)(x-x0) + (x^2-x0^2)/2
    p = Point(0.7, 1.3, -0.4)
    x0 = 0.25
    F = integrate_field_along(_field_sin_ty, "x", x0, p, 3)

    def f(t, x, y):
        return math.sin(t * y) * (x - x0) + (x * x - x0 * x0) / 2

    for m in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0),
              (0, 1, 1), (2, 0, 1), (1, 0, 1), (0, 2, 0)]:
        assert F.extract(m) == pytest.approx(
            central_diff(f, p, m), rel=1e-6, abs=1e-6), m


def test_integrate_xt_path():
    # F = sin(t*y)*x + t^2*y: F_x = sin(t*y), and on the line x = x0
    # F_t = y*cos(t*y)*x0 + 2*t*y; the path integral is F - F(t0, x0, y)
    base = Point(-0.3, 0.4, 2.0)

    def f_x(p, n):
        t, x, y = jets.coordinate_jets(p, n)
        return jets.sin(t * y)

    def f_t(p, n):
        t, x, y = jets.coordinate_jets(p, n)
        return y * jets.cos(t * y) * x + 2.0 * t * y

    def F(t, x, y):
        return math.sin(t * y) * x + t * t * y

    def h(t, x, y):
        return F(t, x, y) - F(base.t, base.x, y)

    p = Point(0.8, -0.5, 0.7)
    P = xt_path(f_x, f_t, base)(p, 3)
    for m in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0),
              (0, 1, 1), (1, 0, 1), (2, 0, 0), (0, 0, 2), (1, 1, 1)]:
        assert P.extract(m) == pytest.approx(
            central_diff(h, p, m), rel=1e-6, abs=1e-6), m


def _field_t_y(p, n):
    # depends on t and y only
    t, _, y = jets.coordinate_jets(p, n)
    return jets.exp(0.5 * t) * y + t * y * y


def test_line_integral_truncates_a_higher_order_bit_for_bit():
    # a lower order after a higher one, elsewhere on the same x line,
    # equals a fresh lower-order integral bit for bit
    integral = line_integral(_field_t_y, "t", -0.4, constant_along="x")
    high = integral(Point(0.9, 0.3, 0.6), 6)
    assert high.coeffs.tobytes() == integrate_field_along(
        _field_t_y, "t", -0.4, Point(0.9, 0.3, 0.6), 6).coeffs.tobytes()
    for n in range(6):
        p = Point(0.9, -1.2 + 0.1 * n, 0.6)
        low = integral(p, n)
        fresh = integrate_field_along(_field_t_y, "t", -0.4, p, n)
        assert low.base == p and low.order == n
        assert low.coeffs.tobytes() == fresh.coeffs.tobytes(), n


def test_line_integral_keeps_at_most_lines_kept(monkeypatch):
    calls = []
    integrate = quadrature.integrate_field_along

    def counted(*args):
        calls.append(args)
        return integrate(*args)

    monkeypatch.setattr(quadrature, "integrate_field_along", counted)
    monkeypatch.setattr(quadrature, "_LINES_KEPT", 2)
    integral = line_integral(_field_t_y, "t", -0.4, constant_along="x")
    a, b, c = (Point(0.9, 0.1, y) for y in (0.2, 0.5, 0.8))
    for p in (a, b, a._replace(x=0.7), b._replace(x=-0.3)):
        integral(p, 3)
    assert len(calls) == 2
    integral(c, 3)           # a third line evicts the first
    assert len(calls) == 3
    integral(b, 3)
    integral(c._replace(x=2.0), 3)
    assert len(calls) == 3
    integral(a, 3)
    assert len(calls) == 4


def test_line_integral_never_keeps_a_failure():
    asked = [0]

    def undefined(p, n):
        asked[0] += 1
        raise jets.UndefinedHere("nowhere defined")

    integral = line_integral(undefined, "t", 0.0, constant_along="x")
    for _ in range(2):
        with pytest.raises(jets.UndefinedHere):
            integral(Point(0.5, 0.1, 0.2), 2)
    assert asked[0] == 2


def test_xt_path_shares_the_t_leg_bit_for_bit():
    # at points that share (t, y), every order from 0 to 6 in both
    # directions: the sum of the two legs, each integrated afresh
    base = Point(-0.3, 0.4, 2.0)

    def f_x(p, n):
        t, x, y = jets.coordinate_jets(p, n)
        return jets.sin(t * y) + x * y

    def f_t(p, n):
        t, x, y = jets.coordinate_jets(p, n)
        return y * jets.cos(t * y) * x + 2.0 * t * y

    def on_line(q, n):
        return jets.restrict(f_t(Point(q.t, base.x, q.y), n), "x", q)

    path = xt_path(f_x, f_t, base)
    orders = list(range(7)) + list(range(6, -1, -1))
    for k, n in enumerate(orders):
        p = Point(0.8, -0.5 + 0.1 * k, 0.7)
        want = (integrate_field_along(f_x, "x", base.x, p, n)
                + integrate_field_along(on_line, "t", base.t, p, n))
        got = path(p, n)
        assert got.base == p and got.order == n
        assert got.coeffs.tobytes() == want.coeffs.tobytes(), n


def test_integrate_field_along_t():
    # integrand depending on all three variables, integrated in t
    def g(p, n):
        t, x, y = jets.coordinate_jets(p, n)
        return jets.exp(t * 0.5) * y + x * t

    p = Point(1.1, 0.6, 0.9)
    t0 = -0.5
    F = integrate_field_along(g, "t", t0, p, 3)

    def f(t, x, y):
        return 2 * (math.exp(t * 0.5) - math.exp(t0 * 0.5)) * y \
            + x * (t * t - t0 * t0) / 2

    for m in [(0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1), (2, 0, 0),
              (0, 1, 0), (1, 1, 0), (3, 0, 0)]:
        assert F.extract(m) == pytest.approx(
            central_diff(f, p, m), rel=1e-6, abs=1e-6), m


# -- refinement against the list-scan reference ---------------------------

def _list_scan_quadrature(f, a, b, tol=1e-10, max_panels=2000,
                          stall_rule=True):
    """Reference: every panel rescanned and re-summed on each split.

    With ``stall_rule`` off it is the quadrature without QUADPACK's
    roundoff detection, which runs until the tolerance or a limit.  From
    a to a it is the one panel of width 0, whose value and error are 0."""
    val, err = gauss_kronrod_15(f, a, b)
    panels = [(err, a, b, val)]
    width_floor = 1e-14 * (1.0 + abs(a) + abs(b))
    splits = stalls = 0
    while sum(p[0] for p in panels) > tol:
        if len(panels) >= max_panels:
            raise QuadratureError("panel budget exhausted", "budget")
        worst = max(range(len(panels)), key=lambda i: panels[i][0])
        if stalls == 20:
            _, lo, hi, _ = panels[worst]
            raise QuadratureError(
                f"refinement stalled at error {sum(p[0] for p in panels):g} "
                f"after {splits} splits, worst panel [{lo}, {hi}]", "stall")
        err, lo, hi, _ = panels.pop(worst)
        if abs(hi - lo) < width_floor:
            raise QuadratureError(
                f"panel [{lo}, {hi}] below width floor with error {err:g}",
                "width")
        mid = 0.5 * (lo + hi)
        panels.append((*_reference_panel(f, lo, mid),))
        panels.append((*_reference_panel(f, mid, hi),))
        splits += 1
        if stall_rule and splits > 10 and \
                float(panels[-2][0]) + float(panels[-1][0]) > err:
            stalls += 1
    total = panels[0][3] * 0.0
    for _, _, _, v in panels:
        total = total + v
    return total


def _adaptive(f, a, b, max_panels=quadrature.MAX_PANELS, **kw):
    """``adaptive_quadrature`` with the reference's ``max_panels`` keyword,
    set as the module's ``MAX_PANELS`` for the call."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "MAX_PANELS", max_panels)
        return adaptive_quadrature(f, a, b, **kw)


def _reference_panel(f, lo, hi):
    v, e = gauss_kronrod_15(f, lo, hi)
    return e, lo, hi, v


def _noisy_exp(s):
    # exp plus deterministic noise near 1e-12: refinement stalls
    return math.exp(s) + 1e-12 * math.sin(1e9 * s)


def _nan_below(s):
    return math.sqrt(s) if s > 0.3 else math.nan


_DIFFERENTIAL_CASES = [
    ("exp", math.exp, 0.0, 1.0, {}),
    ("sqrt_endpoint", math.sqrt, 0.0, 1.0, {}),
    ("sqrt_tight", math.sqrt, 0.0, 1.0, {"tol": 1e-13}),
    ("lorentzian", lambda s: 1 / (1 + s * s), 0.0, 1.0, {}),
    ("symmetric_ties", lambda s: abs(s) ** 0.5, -1.0, 1.0, {}),
    ("vector", lambda s: np.array([1.0, s, s * s]), 0.0, 3.0, {}),
    ("vector_mixed",
     lambda s: np.array([math.sqrt(abs(s)), math.sin(10 * s)]),
     -0.5, 2.0, {"tol": 1e-12}),
    ("reversed", math.cos, 1.0, 0.0, {}),
    ("reversed_sqrt", math.sqrt, 2.0, 0.0, {"tol": 1e-12}),
    ("empty", math.exp, 0.5, 0.5, {}),
    ("nan", _nan_below, 0.0, 1.0, {}),
    ("pole_budget", lambda s: 1.0 / (s - 1 / 3), 0.0, 1.0,
     {"max_panels": 32}),
    ("pole_width", lambda s: 1.0 / (s - 1 / 3), 0.0, 1.0, {}),
    ("singular_width", lambda s: 1.0 / math.sqrt(s), 0.0, 1.0, {}),
    ("noise_floor", _noisy_exp, 0.0, 1.0,
     {"tol": 1e-15, "max_panels": 300}),
    ("loose_tol", math.sqrt, 0.0, 1.0, {"tol": 1e-3}),
]


def _run_counted(quad, f, a, b, kw):
    calls = [0]

    def counted(s):
        calls[0] += 1
        return f(s)

    try:
        out = ("value",
               np.asarray(quad(per_node(counted), a, b, **kw)).tobytes())
    except QuadratureError as exc:
        out = ("error", exc.reason, str(exc))
    return out, calls[0]


@pytest.mark.parametrize("name,f,a,b,kw", _DIFFERENTIAL_CASES,
                         ids=[c[0] for c in _DIFFERENTIAL_CASES])
def test_heap_order_matches_list_scan(name, f, a, b, kw):
    # same integrand calls, bit-identical values, same failures, and the
    # same as the one lane of a call
    got, got_calls = _run_counted(_adaptive, f, a, b, kw)
    want, want_calls = _run_counted(_list_scan_quadrature, f, a, b, kw)
    assert got_calls == want_calls
    assert got == want
    out, [seen], _ = _run_lanes([f], a, [b], kw)
    assert (out, seen) == _run_alone(f, a, b, kw)


# -- lanes in lockstep against each lane alone ----------------------------

_CASES = {case[0]: case for case in _DIFFERENTIAL_CASES}

#: the lanes of one call from 0: each a case's integrand to its upper
#: limit ("empty" to 0), at the mix's tolerance and panel budget
_LANE_MIXES = {
    "default": ({}, ["exp", "sqrt_endpoint", "lorentzian", "empty", "nan",
                     "pole_width", "singular_width"]),
    "noise_floor": ({"tol": 1e-15, "max_panels": 300},
                    ["exp", "noise_floor", "empty", "nan", "lorentzian"]),
    "pole_budget": ({"max_panels": 32},
                    ["lorentzian", "nan", "pole_budget", "exp", "empty",
                     "sqrt_endpoint"]),
}


def _outcome(quad, *args, **kw):
    try:
        return ("value", np.asarray(quad(*args, **kw)).tobytes())
    except QuadratureError as exc:
        return ("error", exc.reason, str(exc))


def _run_alone(f, a, b, kw):
    """The list scan's outcome from a to b, and its abscissae."""
    seen = []

    def g(s):
        seen.append(float(s))
        return f(s)
    return _outcome(_list_scan_quadrature, per_node(g), a, b, **kw), seen


def _run_lanes(fs, a, ends, kw):
    """The lanes ``fs`` from a to ``ends`` in one call: its outcome, then
    each lane's abscissae, and the number of integrand calls."""
    seen = [[] for _ in fs]
    calls = [0]

    def g(s, k):
        calls[0] += 1
        assert len(s) == len(k)
        for z, i in zip(s.tolist(), k.tolist()):
            seen[i].append(z)
        return np.array([fs[i](z) for z, i in zip(s.tolist(), k.tolist())])
    return (_outcome(_adaptive, g, a, np.array(ends, dtype=float), **kw),
            seen, calls[0])


def _rounds(abscissae):
    """Integrand calls of a lane alone: its first panel, then its splits;
    the first r of them ask 30 r - 15 abscissae."""
    return 1 + (len(abscissae) - 15) // 30


@pytest.mark.parametrize("mix", sorted(_LANE_MIXES))
def test_lanes_in_lockstep_match_each_lane_alone(mix):
    # with each lane first in turn, and the lanes that succeed alone: the
    # stacked values of the lanes alone, or, as jets.raise_where names a
    # lane, the failure of the first lane in lane order of those that fail
    # in the earliest round in which any lane fails alone; each lane asks
    # the abscissae of its rounds alone up to that round, and the call
    # makes one integrand call per round
    kw, names = _LANE_MIXES[mix]
    alone = [_run_alone(_CASES[name][1], 0.0,
                        0.0 if name == "empty" else _CASES[name][3], kw)
             for name in names]
    succeed = [i for i, (out, _) in enumerate(alone) if out[0] == "value"]
    assert 1 < len(succeed) < len(names)
    count = len(names)
    later_lane_named = False
    for order in [list(range(shift, count)) + list(range(shift))
                  for shift in range(count)] + [succeed]:
        fs = [_CASES[names[i]][1] for i in order]
        ends = [0.0 if names[i] == "empty" else _CASES[names[i]][3]
                for i in order]
        got, seen, calls = _run_lanes(fs, 0.0, ends, kw)
        want = [alone[i] for i in order]
        rounds = [_rounds(abscissae) for _, abscissae in want]
        failed = [j for j, (out, _) in enumerate(want) if out[0] == "error"]
        last = min((rounds[j] for j in failed), default=max(rounds))
        if failed:
            named = min(j for j in failed if rounds[j] == last)
            later_lane_named |= named != failed[0]
            assert got == want[named][0]
        else:
            values = np.frombuffer(got[1]).reshape(len(order), -1)
            for row, (out, _) in zip(values, want):
                assert row.tobytes() == out[1]
        for j, (lane, (_, abscissae)) in enumerate(zip(seen, want)):
            assert lane == abscissae[:30 * min(rounds[j], last) - 15], \
                names[order[j]]
        assert calls == last
    # two lanes fail in the default mix, the later one in an earlier round
    assert later_lane_named == (mix == "default")


def test_ties_split_the_older_panel_first():
    # sqrt|s| on [-1, 1] makes mirror panels with equal error estimates;
    # the order of the integrand calls shows which one is split first
    def abscissae(quad):
        calls = []

        def f(s):
            calls.append(s)
            return math.sqrt(abs(s))
        quad(per_node(f), -1.0, 1.0)
        return calls

    got = abscissae(adaptive_quadrature)
    assert got == abscissae(_list_scan_quadrature)
    # the second split halves [-1, 0], the older of the two mirror panels
    assert all(s < 0.0 for s in got[45:60])


class _RecordingTol:
    """A tolerance that records every error total compared with it."""

    def __init__(self, value):
        self.value = value
        self.seen = []

    def __lt__(self, total):  # reflected from ``total > tol``
        self.seen.append(float(total))
        return self.value < total


@pytest.mark.parametrize("f,tol", [
    (lambda s: math.cos(60 * s), 1e-13),
    (lambda s: np.array([math.cos(200 * s), 1.0]), 1e-12),
], ids=["scalar", "vector"])
def test_heap_order_matches_list_scan_at_boundary_tolerances(f, tol):
    # tolerances equal to, and one ulp either side of, each error total
    # the list scan meets; on these integrands a running error total
    # would drift from that exact sum, below it (scalar) or above it
    # (vector)
    rec = _RecordingTol(tol)
    _list_scan_quadrature(per_node(f), 0.0, 1.0, tol=rec)
    assert len(rec.seen) > 25
    for total in rec.seen:
        for t in (total, math.nextafter(total, 0.0),
                  math.nextafter(total, math.inf)):
            kw = {"tol": t}
            assert _run_counted(adaptive_quadrature, f, 0.0, 1.0, kw) == \
                _run_counted(_list_scan_quadrature, f, 0.0, 1.0, kw)


def test_differential_cases_reach_each_outcome():
    out = {name: _run_counted(_adaptive, f, a, b, kw)[0]
           for name, f, a, b, kw in _DIFFERENTIAL_CASES}
    assert out["noise_floor"][:2] == ("error", "stall")
    assert out["noise_floor"][2].startswith("refinement stalled at error")
    assert out["pole_budget"] == ("error", "budget", "panel budget exhausted")
    # a pole inside the interval now stalls long before the width floor,
    # and the message names a worst panel that holds the pole
    assert out["pole_width"][:2] == ("error", "stall")
    lo, hi = map(float, out["pole_width"][2].split("worst panel [")[1]
                 .rstrip("]").split(", "))
    assert lo <= 1 / 3 <= hi
    assert out["singular_width"][:2] == ("error", "width")
    assert "below width floor" in out["singular_width"][2]
    assert math.isnan(np.frombuffer(out["nan"][1])[0])


def _rule_free(f, a, b, **kw):
    return _list_scan_quadrature(f, a, b, stall_rule=False, **kw)


@pytest.mark.parametrize("f,tol", [
    (lambda s: 1.0 / math.sqrt(s), 1e-8),
    (math.log, 1e-10),
    (lambda s: s ** -0.9, 1e-1),
    (lambda s: 1.0 if s < 1 / 3 else 2.0, 1e-10),
], ids=["inv_sqrt", "log", "pow_minus_0.9", "jump"])
def test_integrable_singularities_do_not_stall(f, tol):
    # hundreds of panels pile up at the singularity, yet each split still
    # lowers the error: the same calls and bits as without the stall rule
    kw = {"tol": tol}
    got, got_calls = _run_counted(adaptive_quadrature, f, 0.0, 1.0, kw)
    want, want_calls = _run_counted(_rule_free, f, 0.0, 1.0, kw)
    assert got[0] == "value"
    assert got_calls == want_calls > 500
    assert got == want
