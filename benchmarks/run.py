#!/usr/bin/env python3
"""Verification benchmark for blp-toolkit.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload catalog_sweep --seed 1
    python3 benchmarks/run.py --workload all --seed 1      # every workload

One client sends one request at a time (a closed loop), in one process
and one thread, with ``BLP_THREADS`` unset.  Each request builds a field
and verifies it on a grid; see ``workloads.py`` and ``README.md``.

``--trace 0`` (default) measures the end-to-end metrics: set-up time in
fresh interpreters, then a fixed number of whole cycles of passes of the
seeded request list: ``workloads.RUN_CYCLES`` scaled by ``--seconds`` over
its default (``run_seconds`` of ``BENCHMARK.json``), at least one cycle
and at least ``MIN_REQUESTS`` requests.  So every run of a workload does
the same work, whatever the speed of the host at the moment.
Every timing is scaled to a fixed reference speed of the host, measured
by a benchmark-owned kernel timed during and between the requests (see
``calibrate.py``); the measured times are printed beside the metrics.
``--trace 1`` runs pass 0 once untraced and once under the outside-in
tracer and reports the per-layer metrics.  Every run gates every request
(``workloads.run_request``).  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: fresh interpreters timed before, and again after, the timed phase;
#: set-up time is the median of all of them
SETUP_PROBES = 4
#: kernel runs before and after each set-up interpreter (see calibrate.py)
SETUP_SAMPLES = 40
#: at least this many requests per timed run, so the 90th percentile of
#: latency has at least ten samples beyond it
MIN_REQUESTS = 100
#: safety valve for a much slower program: start no further cycle once
#: this many times ``--seconds`` have elapsed
HARD_STOP_FACTOR = 2.0
DEFAULT_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())[
    "run_seconds"]


def _bootstrap():
    """Make ``import blp`` load this checkout's sources and nothing else."""
    os.environ.pop("BLP_THREADS", None)
    if not (SRC / "blp" / "__init__.py").is_file():
        print(f"run.py: no blp sources in {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import blp
    if Path(blp.__file__).resolve().parent != SRC / "blp":
        print(f"run.py: imported blp from {blp.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


# ----------------------------------------------------------------------
# end-to-end run (--trace 0)
# ----------------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> None:
    """Everything before the first timed request, in this interpreter;
    then the host's speed, as the kernel time of ``SETUP_SAMPLES`` runs."""
    import calibrate
    import workloads
    workloads.Context()
    workloads.make_pass(workload, seed, 0)
    sampler = calibrate.Sampler()
    for _ in range(2 * SETUP_SAMPLES):
        sampler.sample()
    # the first runs of the kernel in a fresh interpreter are cold
    print(json.dumps({
        "spent": sum(d for _, d in sampler.samples),
        "kernel": [d for _, d in sampler.samples[SETUP_SAMPLES:]]}))


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """Set-up times of fresh interpreters, as ``(measured, scaled)``.

    The kernel runs just before each interpreter starts (here) and just
    after its set-up (there); their mean gives the host's slowness, and
    the kernel time there is taken out of the measured time.
    """
    import calibrate
    out = []
    for _ in range(SETUP_PROBES):
        before = calibrate.Sampler()
        for _ in range(SETUP_SAMPLES):
            before.sample()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--setup-probe", "--workload", workload,
                               "--seed", str(seed)],
                              check=True, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        elapsed = time.perf_counter() - t0
        after = json.loads(proc.stdout.strip().splitlines()[-1])
        kernel = [d for _, d in before.samples] + after["kernel"]
        slowness = statistics.fmean(kernel) / calibrate.REFERENCE_S
        measured = elapsed - after["spent"]
        out.append((measured, measured / slowness))
    return out


def tail_quantile(n: int) -> float:
    """Highest quantile, at most 0.9, with at least ten samples beyond."""
    return max(0.0, min(0.9, 1.0 - 10.0 / n))


def run_timed(workload: str, seed: int, seconds: float):
    import calibrate
    import numpy as np
    import workloads
    ctx = workloads.Context()
    first = workloads.make_pass(workload, seed, 0)
    cycle = workloads.CYCLE[workload]
    passes = cycle * max(1, round(workloads.RUN_CYCLES[workload] * seconds
                                  / DEFAULT_SECONDS))
    while passes * len(first) < MIN_REQUESTS:
        passes += cycle
    latencies, raw, slowness, outcomes, executed = [], [], [], [], []
    index = 0
    with calibrate.Sampler() as sampler:
        while index < passes:
            requests = first if index == 0 else \
                workloads.make_pass(workload, seed, index)
            for req in requests:
                outcome, busy, slow = sampler.time(
                    workloads.run_request, req, ctx)
                outcomes.append(outcome)
                raw.append(busy)
                slowness.append(slow)
                latencies.append(busy / slow)
            executed.extend(requests)
            index += 1
            if index % cycle == 0 and \
                    sum(raw) > HARD_STOP_FACTOR * seconds:
                break
    wall = sum(latencies)
    n = len(latencies)
    q = tail_quantile(n)
    attempted = sum(o.attempted for o in outcomes)
    evaluated = sum(o.evaluated for o in outcomes)
    failed = [o for o in outcomes if o.failed]
    info = {
        "passes": index, "requests": n,
        "measured": {
            "wall_s": sum(raw), "points_per_s": attempted / sum(raw),
            "request_ms_p50": 1000.0 * statistics.median(raw),
            "request_ms_p90": 1000.0 * float(np.quantile(raw, q))},
        "host_slowness": {"median": statistics.median(slowness),
                          "min": min(slowness), "max": max(slowness),
                          "kernel_samples": len(sampler.samples)},
        "mix_per_pass": workloads.mix(first),
        "digest": workloads.digest(executed),
        "tail_quantile": q, "failed_by_reason": _by_reason(failed),
        "failed_fraction": len(failed) / n,
        "unexpected_failures": _unexpected(executed, outcomes),
        "dishonest": sum(o.dishonest for o in outcomes),
    }
    metrics = {
        "points_per_s": (attempted / wall, "1/s"),
        "request_ms_p50": (1000.0 * statistics.median(latencies), "ms"),
        "request_ms_p90": (1000.0 * float(np.quantile(latencies, q)), "ms"),
        "passed_fraction": (1.0 - len(failed) / n, "1"),
        "evaluated_fraction": (evaluated / attempted, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    return metrics, info, outcomes


def _unexpected(requests, outcomes) -> dict:
    """Failures of requests that no documented defect explains."""
    return _by_reason([o for r, o in zip(requests, outcomes)
                       if o.failed and not r.known_failing])


def _by_reason(failed) -> dict:
    out: dict = {}
    for o in failed:
        key = f"{o.label}:{o.reason}"
        out[key] = out.get(key, 0) + 1
    return dict(sorted(out.items()))


# ----------------------------------------------------------------------
# traced run (--trace 1)
# ----------------------------------------------------------------------

CHAINS = ("laplace_uq_d1", "laplace_uq_d2", "laplace_uq_d3",
          "laplace_uv_d1", "laplace_uv_d2", "dt1_n1", "dt1_n2", "dt1_n3",
          "dt2_n1", "dt2_n2", "dt2_n3", "dt1_single", "dt2_single",
          "uv_to_uq")
#: request labels whose fields use the witness maps owned by workloads.py
PHI_LABELS = tuple(c for c in CHAINS if c.startswith(("laplace_uq", "dt1_n",
                                                      "dt2_n")))


def per_layer_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    from tracer import Tracer
    return {name: unit for name, (_, unit)
            in layer_metrics(Tracer(), [], [], {}, 0.0).items()}


def _ms_per_point(requests, outcomes, latencies) -> dict:
    secs, pts = {}, {}
    for req, o, lat in zip(requests, outcomes, latencies):
        secs[req.label] = secs.get(req.label, 0.0) + lat
        pts[req.label] = pts.get(req.label, 0) + o.attempted
    return {label: 1000.0 * secs[label] / pts[label] for label in secs}


def run_traced(workload: str, seed: int, trace_dir: Path):
    import workloads
    from tracer import Tracer
    ctx = workloads.Context()
    requests = workloads.make_pass(workload, seed, 0)

    plain, latencies = [], []
    start = time.perf_counter()
    for req in requests:
        t0 = time.perf_counter()
        plain.append(workloads.run_request(req, ctx))
        latencies.append(time.perf_counter() - t0)
    wall_plain = time.perf_counter() - start

    tracer = Tracer()
    tracer.install(extra_methods=[(workloads.ModeWitness, "Phi",
                                   "bench.phi")])
    try:
        start = time.perf_counter()
        traced = [tracer.request(i, req.label, workloads.run_request,
                                 req, ctx)
                  for i, req in enumerate(requests)]
        wall_traced = time.perf_counter() - start
    finally:
        tracer.uninstall()

    trace_dir.mkdir(exist_ok=True)
    n_spans = tracer.write(str(trace_dir / f"{workload}-seed{seed}.jsonl.gz"))
    metrics = layer_metrics(tracer, requests, traced,
                            _ms_per_point(requests, plain, latencies),
                            wall_traced / wall_plain)
    info = {"requests": len(requests), "spans": n_spans,
            "digest": workloads.digest(requests),
            "mix_per_pass": workloads.mix(requests),
            "wall_untraced_s": wall_plain, "wall_traced_s": wall_traced,
            "same_outcomes": [o.key() for o in plain]
            == [o.key() for o in traced],
            "failed_by_reason": _by_reason([o for o in traced if o.failed]),
            "unexpected_failures": _unexpected(requests, traced),
            "dishonest": sum(o.dishonest for o in traced)}
    return metrics, info, traced


def layer_metrics(tr, requests, outcomes, costs, overhead) -> dict:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    ``costs`` maps request labels to ms per point in the untraced
    execution of the same pass; labels absent from the pass read 0.
    ``overhead`` is traced over untraced wall time.
    """
    calls, self_s = tr.calls, tr.self_s

    def total(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    mul = tr.mul_by_order
    adaptive = calls["quadrature.adaptive"]
    nodes = tr.trajectory_nodes
    phi_points = sum(o.evaluated for r, o in zip(requests, outcomes)
                     if r.label in PHI_LABELS)
    counts = {
        "jets.mul.calls.o4": sum(c for o, c in mul.items() if o <= 4),
        "jets.mul.calls.o5_6": sum(c for o, c in mul.items() if 5 <= o <= 6),
        "jets.mul.calls.o7plus": sum(c for o, c in mul.items() if o >= 7),
        "jets.derive.calls": calls["jets.derive"],
        "jets.apply_unary.calls": calls["jets.apply_unary"],
        "jets.init.calls": calls["jets.init"],
        "exprdsl.eval_jet.calls": calls["exprdsl.eval_jet"],
        "exprdsl.parse.calls": calls["exprdsl.parse"],
        "exprdsl.expr_call.calls": calls["exprdsl.expr_call"],
        "exprdsl.diff.calls": calls["exprdsl.diff"],
        "quadrature.gk15.calls": calls["quadrature.gk15"],
        "quadrature.adaptive.calls": adaptive,
        "quadrature.integrate_field_along.calls":
            calls["quadrature.integrate_field_along"],
        "quadrature.errors":
            tr.errors["quadrature.adaptive"]["QuadratureError"],
        "specfun.weierstrass_p.calls": calls["specfun.weierstrass_p"],
        "specfun.quartic_particular_solution.calls":
            calls["specfun.quartic_particular_solution"],
        "system.residual.calls": calls["system.residual"],
        "system.residual_uq.calls": calls["system.residual_uq"],
        "system.convert.calls": calls["system.convert"],
        "catalog.instantiate.calls": calls["catalog.instantiate"],
        "transforms.apply_symmetry.calls": calls["transforms.apply_symmetry"],
        "reductions.integrate.calls": calls["reductions.integrate"],
        "liealg.commutator.calls": calls["liealg.commutator"],
        "cli.main.calls": calls["cli.main"],
    }
    seconds = {
        "jets.self_s": total("jets."),
        "exprdsl.eval_jet.self_s": self_s["exprdsl.eval_jet"],
        "exprdsl.self_s": total("exprdsl."),
        "quadrature.self_s": total("quadrature."),
        "specfun.weierstrass_p.self_s": self_s["specfun.weierstrass_p"],
        "specfun.self_s": total("specfun."),
        "system.self_s": sum(self_s[k] for k in (
            "system.residual", "system.residual_uq",
            "system.residual_report", "system.covering_residual")),
        "system.convert.self_s": total("system.convert"),
        "catalog.instantiate.self_s": self_s["catalog.instantiate"],
        "catalog.field_eval.self_s": self_s["catalog.field_eval"],
        "transforms.construct.self_s": self_s["transforms.construct"]
        + self_s["transforms.apply_symmetry"],
        "transforms.field_eval.self_s": self_s["transforms.field_eval"],
        "reductions.integrate.self_s": self_s["reductions.integrate"],
        "reductions.profile_eval.self_s": self_s["reductions.profile_eval"]
        + self_s["reductions.reconstruct"],
        "liealg.certificate.self_s": self_s["liealg.certificate"],
        "cli.self_s": self_s["cli.main"],
    }
    out = {name: (value, "count") for name, value in counts.items()}
    out.update((name, (value, "s")) for name, value in seconds.items())
    out["quadrature.panels_per_adaptive"] = (
        calls["quadrature.gk15"] / adaptive if adaptive else 0.0, "count")
    out["reductions.nodes_per_integration"] = (
        sum(nodes) / len(nodes) if nodes else 0.0, "count")
    out["transforms.phi_calls_per_point"] = (
        calls["bench.phi"] / phi_points if phi_points else 0.0, "1")
    from blp import catalog
    for label in [d.id for d in catalog.list_families()] + list(CHAINS):
        layer = "transforms" if label in CHAINS else "catalog"
        out[f"{layer}.ms_per_point.{label}"] = (costs.get(label, 0.0),
                                                "ms/pt")
    out["trace.overhead_ratio"] = (overhead, "1")
    return out


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------

def report(workload, seed, trace, metrics, info, outcomes, setup=None):
    print(f"workload {workload}  seed {seed}  trace {trace}  "
          f"(closed loop, one client, one thread)")
    for key in ("passes", "requests", "digest", "mix_per_pass",
                "failed_by_reason", "unexpected_failures", "spans",
                "wall_untraced_s", "wall_traced_s", "same_outcomes"):
        if key in info:
            print(f"  {key}: {info[key]}")
    if setup is not None:
        print(f"  setup_s samples (measured, scaled): "
              f"{[(round(m, 4), round(u, 4)) for m, u in setup]}")
    for key in ("measured", "host_slowness"):
        if key in info:
            print(f"  {key}: " + ", ".join(
                f"{k} {v:.6g}" for k, v in info[key].items()))
    if "tail_quantile" in info:
        print(f"  request_ms_p90 is the {100 * info['tail_quantile']:.1f}th "
              f"percentile of {info['requests']} samples")
        print(f"  {'failed_fraction':34s} {info['failed_fraction']:.6g} 1")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    failed = sum(o.failed for o in outcomes)
    correct = (info["dishonest"] == 0 and not info["unexpected_failures"]
               and info.get("same_outcomes", True))
    print(json.dumps({
        "correct": bool(correct), "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _bootstrap()
    import workloads
    if args.workload == "all":
        for name in workloads.WORKLOADS:
            subprocess.run([sys.executable, str(Path(__file__).resolve()),
                            "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace)],
                           check=True, cwd=ROOT)
        return 0
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {workloads.WORKLOADS} or all")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.trace:
        metrics, info, outcomes = run_traced(args.workload, args.seed,
                                             ROOT / ".bench_trace")
        report(args.workload, args.seed, 1, metrics, info, outcomes)
        return 0
    # half the set-up probes before and half after the timed phase, so
    # the median spans the run rather than one moment of a shared host
    setup = measure_setup(args.workload, args.seed)
    metrics, info, outcomes = run_timed(args.workload, args.seed,
                                        args.seconds)
    setup += measure_setup(args.workload, args.seed)
    metrics = {"setup_s": (statistics.median(u for _, u in setup), "s"),
               **metrics}
    report(args.workload, args.seed, 0, metrics, info, outcomes, setup)
    return 0


if __name__ == "__main__":
    sys.exit(main())
