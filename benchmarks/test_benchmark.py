"""Tests of the benchmark harness itself.

Run from the root of a checkout:

    python3 -m pytest -q benchmarks/test_benchmark.py
"""

import json
import math
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from blp import catalog, exprdsl, jets, quadrature, system, transforms  # noqa: E402
from tracer import Tracer  # noqa: E402

#: cheap requests covering every executor: a few per workload
_CHEAP = {"catalog_sweep": {"F_UY0_TRIV", "F_UEQV", "F_R29_PAINLEVE2"},
          "transform_chains": {"laplace_uq_d1", "dt2_n1", "dt1_single",
                               "uv_to_uq"},
          "profiles_symmetry": {"painleve2", "symmetry", "closure",
                                "normalizer", "jacobi"}}


@pytest.fixture(scope="module")
def ctx():
    return workloads.Context()


@pytest.fixture(scope="module")
def sample():
    out = []
    for name, labels in _CHEAP.items():
        seen = set()
        for req in workloads.make_pass(name, 3, 0):
            if req.label in labels and req.label not in seen:
                seen.add(req.label)
                out.append(req)
    return out


def _traced(requests, ctx):
    tr = Tracer()
    tr.install(extra_methods=[(workloads.ModeWitness, "Phi", "bench.phi")])
    try:
        outcomes = [tr.request(i, r.label, workloads.run_request, r, ctx)
                    for i, r in enumerate(requests)]
    finally:
        tr.uninstall()
    return tr, outcomes


def test_request_list_depends_only_on_seed():
    for name in workloads.WORKLOADS:
        a = workloads.make_pass(name, 11, 2)
        b = workloads.make_pass(name, 11, 2)
        c = workloads.make_pass(name, 12, 2)
        assert workloads.digest(a) == workloads.digest(b)
        assert workloads.digest(a) != workloads.digest(c)
        # every seed gets the same composition
        assert workloads.mix(a) == workloads.mix(c)


def test_cycle_uses_each_costly_pool_entry_once():
    for fid in workloads.CYCLED_FAMILIES:
        keys = [workloads._bindings_key(fid, r.spec["bindings_seed"])
                for k in range(4)
                for r in workloads.make_pass("catalog_sweep", 5, k)
                if r.label == fid]
        assert len(set(keys)) == 4
    # the four are the whole pool of sample_bindings for F_R29_ELLIPTIC
    fid = "F_R29_ELLIPTIC"
    assert {workloads._bindings_key(fid, s) for s in range(64)} == \
        {workloads._bindings_key(fid, s) for s in workloads._pool_seeds(fid)}
    painleve2 = [r.spec["init"] + r.spec["span"]
                 for r in workloads.make_pass("profiles_symmetry", 5, 0)
                 if r.label == "painleve2"]
    assert sorted(painleve2) == sorted(list(i) + list(s)
                                       for i, s in workloads._R29_POOL)
    depth2 = [(r.spec["family"], r.spec["chain"][0])
              for k in range(2)
              for r in workloads.make_pass("transform_chains", 5, k)
              if r.label == "laplace_uv_d2"]
    assert sorted(depth2) == [
        ("F_VXXX_1", "laplace_fwd_uv"), ("F_VXXX_3", "laplace_inv_uv"),
        ("F_VXXX_4", "laplace_fwd_uv"), ("F_VXXX_5", "laplace_inv_uv")]


def test_traced_and_untraced_outcomes_identical(sample, ctx):
    plain = [workloads.run_request(r, ctx) for r in sample]
    _, traced = _traced(sample, ctx)
    assert [o.key() for o in plain] == [o.key() for o in traced]
    assert all(o.attempted > 0 for o in plain)


def test_two_traced_runs_give_identical_counts(sample, ctx):
    first, _ = _traced(sample, ctx)
    second, _ = _traced(sample, ctx)
    assert dict(first.calls) == dict(second.calls)
    assert dict(first.mul_by_order) == dict(second.mul_by_order)
    assert first.trajectory_nodes == second.trajectory_nodes
    assert first.calls["bench.phi"] > 0
    assert first.calls["cli.main"] > 0


def test_every_wrapped_attribute_is_restored():
    originals = {
        (catalog, "eval_jet"): exprdsl.eval_jet,
        (system, "integrate_field_along"): quadrature.integrate_field_along,
        (transforms, "integrate_field_along"):
            quadrature.integrate_field_along,
        (catalog, "adaptive_quadrature"): quadrature.adaptive_quadrature,
        (catalog, "instantiate"): catalog.instantiate,
    }
    mul = jets.Jet3.__dict__["__mul__"]
    tr = Tracer()
    tr.install()
    try:
        patched = tr.patched()
        # bindings made by `from ... import` are patched too
        for (mod, name), fn in originals.items():
            assert getattr(mod, name) is not fn
            assert getattr(mod, name).__wrapped__ is not None
        assert jets.Jet3.__dict__["__mul__"] is not mul
    finally:
        tr.uninstall()
    for owner, name, original in patched:
        assert owner.__dict__[name] is original
    for (mod, name), fn in originals.items():
        assert getattr(mod, name) is fn
    assert jets.Jet3.__dict__["__mul__"] is mul
    assert tr.patched() == []


def test_gate_counts_nonfinite_and_unexpected_errors(ctx):
    nan_rms = workloads._judge("x", 4, 4, (1e-12, 1e-12, math.nan, 0.0),
                               1e-8)
    assert nan_rms.failed and nan_rms.reason == "nonfinite"
    over = workloads._judge("x", 4, 4, (2e-8, 0.0, 1e-8, 0.0), 1e-8)
    assert over.failed and over.reason == "residual_bound"
    bad = workloads.Request("catalog", "F_NOPE", {
        "family": "F_NOPE", "bindings_seed": 1, "shape": [2, 2, 2]})
    out = workloads.run_request(bad, ctx)
    assert out.failed and out.reason == "UnknownFamily"
    assert out.attempted == 8 and out.evaluated == 0


def test_only_documented_defects_may_fail():
    reqs = workloads.make_pass("transform_chains", 4, 0)
    known = [r for r in reqs if r.known_failing]
    # the UV->UQ conversion of F_UEQV and the two inputs of _KNOWN_FAILING
    assert sorted((r.label, r.spec["family"] if "family" in r.spec
                   else r.spec["direction"]) for r in known) == [
        ("laplace_uq_d3", "fwd"), ("laplace_uv_d1", "F_VXXX_3"),
        ("uv_to_uq", "F_UEQV")]
    bad = workloads.Outcome("x", 8, 8, True, "residual_bound", 1.0)
    good = workloads.Outcome("x", 8, 8, False, "", 0.0)
    other = next(r for r in reqs if not r.known_failing)
    assert run._unexpected([known[0], other], [bad, good]) == {}
    assert run._unexpected([known[0], other], [good, bad]) == {
        "x:residual_bound": 1}


def test_product_counts_leave_out_scalar_scaling():
    tr = Tracer()
    tr.install()
    try:
        a = jets.coordinate_jets(jets.Point(1.0, 0.5, 0.2), 4)[1]
        a * a
        2.0 * a
        a * 3.0
    finally:
        tr.uninstall()
    assert dict(tr.mul_by_order) == {4: 1}
    assert tr.calls["jets.mul"] == 3


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.per_layer_units().items())
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "points_per_s", "request_ms_p50", "request_ms_p90",
        "passed_fraction", "evaluated_fraction", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)


def test_sampler_scales_by_host_speed_and_restores_the_timer():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    handler = signal.getsignal(signal.SIGALRM)
    with calibrate.Sampler() as sampler:
        result, busy_s, slowness = sampler.time(busy, 0.5)
        near = list(sampler.samples)
    # the timer sampled the request while it ran; the last sample is the
    # one taken after it, and no kernel time is charged to the request
    inside = [d for _, d in near[:-1]]
    assert result == "done" and len(inside) >= 5
    assert busy_s == pytest.approx(0.5 - sum(inside), abs=0.005)
    assert slowness == pytest.approx(
        sum(d for _, d in near) / len(near) / calibrate.REFERENCE_S)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
