"""Command-line front end.

Subcommands:

  blp list        print the family catalog (optionally as JSON)
  blp verify      residual-check a family on a grid, write a JSON report
  blp transform   apply a transformation chain, verify the result
  blp reduce      integrate a reduced profile equation, export CSV
  blp algebra     run the bundled subalgebra closure / normalizer checks

Exit codes: 0 success, 1 tolerance failure, 2 configuration error.
Reports are deterministic: keys sorted, floats printed with shortest
round-trip repr.  A report passes only when every residual is finite;
non-finite ones are counted under ``nonfinite``.  Grid points are
evaluated one after another in this process; BLP_THREADS is accepted
and ignored.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import catalog, liealg, reductions, system, transforms
from .exprdsl import ParseError, parse
from .jets import DomainError, Point

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    pass


def _grid_from_spec(spec: dict) -> list[Point]:
    axes = []
    for name in ("t", "x", "y"):
        lo, hi, n = spec[name]
        n = int(n)
        if n < 1 or not lo < hi:
            raise ConfigError(f"bad grid spec for {name}: {spec[name]}")
        axes.append(np.linspace(lo, hi, n))
    return [Point(float(t), float(x), float(y))
            for t in axes[0] for x in axes[1] for y in axes[2]]


def _default_grid(family_id: str) -> dict:
    (t0, t1), (x0, x1), (y0, y1) = catalog.default_box(family_id)
    return {"t": [t0, t1, 4], "x": [x0, x1, 4], "y": [y0, y1, 4]}


def _parse_params(items) -> dict:
    out = {}
    for item in items or []:
        if "=" not in item:
            raise ConfigError(f"--param expects name=value, got {item!r}")
        name, value = item.split("=", 1)
        try:
            out[name] = json.loads(value)
        except json.JSONDecodeError:
            out[name] = value
    return out


def _coerce_bindings(family_id: str, params: dict) -> dict:
    out = dict(params)
    for key in ("Phi", "theta"):
        spec = out.get(key)
        if isinstance(spec, dict) and "kind" in spec:
            kind = spec.pop("kind")
            out[key] = catalog.heat_witness_library(kind, **spec)
    if "init" in out and isinstance(out["init"], list):
        out["init"] = tuple(out["init"])
    if "span" in out and isinstance(out["span"], list):
        out["span"] = tuple(out["span"])
    return out


def _evaluate_grid(s, grid):
    def one(p):
        if not s.validity(p):
            return (p, None)
        try:
            if s.coords == "UV":
                r = system.residual(s, p)
            else:
                r = system.residual_uq(s, p)
            uj = s.u(p, 0).value
            vj = s.v(p, 0).value
            return (p, (r[0], r[1], uj, vj))
        except (DomainError, transforms.UndefinedTransform,
                reductions.WindowError):
            return (p, None)

    return [one(p) for p in grid]


def _report(family, params, grid_spec, rows):
    r1 = [abs(r[0]) for (_, r) in rows if r is not None]
    r2 = [abs(r[1]) for (_, r) in rows if r is not None]
    skipped = sum(1 for (_, r) in rows if r is None)

    def rms(a):
        return float(np.sqrt(np.mean(np.square(a)))) if a else 0.0

    report = {
        "family": family,
        "params": {k: (v if isinstance(v, (int, float)) else str(v))
                   for k, v in params.items()},
        "grid_spec": grid_spec,
        "r1_max": system.residual_sup(r1),
        "r2_max": system.residual_sup(r2),
        "r1_rms": rms(r1),
        "r2_rms": rms(r2),
        "skipped": skipped,
        "evaluated": len(rows) - skipped,
    }
    nonfinite = system.count_nonfinite(r1, r2)
    if nonfinite:
        report["nonfinite"] = nonfinite
    return report


def _within(report: dict, tol: float) -> bool:
    """Both residual sups within ``tol`` and every residual finite."""
    return (report["r1_max"] <= tol and report["r2_max"] <= tol
            and "nonfinite" not in report)


def _write_outputs(report: dict, rows, report_path, csv_path):
    text = json.dumps(report, sort_keys=True)
    if report_path:
        with open(report_path, "w") as fh:
            fh.write(text + "\n")
    print(text)
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            fh.write("t,x,y,u,v,r1,r2\n")
            for (p, r) in rows:
                if r is None:
                    continue
                r1v, r2v, uv, vv = r
                fh.write(",".join(repr(float(z))
                                  for z in (p.t, p.x, p.y, uv, vv,
                                            r1v, r2v)) + "\n")


def cmd_list(args) -> int:
    rows = catalog.list_families()
    if args.constraint:
        rows = [d for d in rows if d.constraint_tag == args.constraint]
    if args.json:
        payload = [{"id": d.id, "coords": d.coords,
                    "constraint": d.constraint_tag,
                    "params": [list(pp) for pp in d.required_params],
                    "notes": d.notes} for d in rows]
        print(json.dumps(payload, sort_keys=True))
        return EXIT_OK
    width = max((len(d.id) for d in rows), default=10)
    for d in rows:
        print(f"{d.id:<{width}}  {d.constraint_tag:<28}  {d.notes}")
    return EXIT_OK


def _tolerance(args, cfg: dict):
    """``--tol``, else the config's ``tol``, else 1e-6: a finite number > 0."""
    raw = cfg.get("tol", 1e-6) if args.tol is None else args.tol
    try:
        tol = float(raw) if isinstance(raw, str) else raw
    except ValueError:
        tol = None
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) \
            or not math.isfinite(tol) or tol <= 0:
        raise ConfigError(
            f"tolerance must be a finite number > 0, got {raw!r}")
    return tol


def _load_config(args) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = json.load(fh)
    return cfg


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    family = args.family or cfg.get("family")
    if not family:
        raise ConfigError("a family id is required")
    params = dict(cfg.get("params", {}))
    params.update(_parse_params(args.param))
    tol = _tolerance(args, cfg)
    grid_spec = cfg.get("grid") or _default_grid(family)
    if args.grid:
        grid_spec = json.loads(args.grid)
    grid = _grid_from_spec(grid_spec)
    try:
        field = catalog.instantiate(family, _coerce_bindings(family, params))
    except (catalog.UnknownFamily, catalog.BadBinding,
            catalog.WitnessViolation) as exc:
        raise ConfigError(str(exc)) from exc
    if args.perturb:
        field = system.perturb_v(field, eps=args.perturb)
    rows = _evaluate_grid(field, grid)
    report = _report(family, field.params, grid_spec, rows)
    report["tolerance"] = tol
    passed = _within(report, tol) and report["evaluated"] > 0
    report["passed"] = bool(passed)
    _write_outputs(report, rows, args.report, args.csv)
    return EXIT_OK if passed else EXIT_TOLERANCE


_CHAIN_OPS = ("laplace_fwd_uv", "laplace_inv_uv", "laplace_fwd_uq",
              "laplace_inv_uq", "dt1", "dt2")


def _seed_field(name: str, params: dict):
    if name == "zero_uq":
        from .jets import Jet3
        return system.SolutionField(
            u=lambda p, n: Jet3.constant(0.0, p, n),
            v=lambda p, n: Jet3.constant(0.0, p, n),
            coords="UQ", family_id="zero_uq")
    if name in ("seed_qy0", "seed_uyqy"):
        spec = params.get("Phi", {"kind": "plane_exp", "k": 1.0})
        if name == "seed_qy0":
            spec.setdefault("direction", "backward")
            w = catalog.heat_witness_library(**spec)
            return transforms.uq_seed(w, constraint="q_y=0")
        w = catalog.heat_witness_library(**spec)
        return transforms.uq_seed(w, constraint="u_y=q_y")
    return catalog.instantiate(name, _coerce_bindings(name, params))


def _build_phi(field, spec: dict):
    constraint = spec.get("constraint", "q_y=0")
    theta = spec.get("theta")
    if isinstance(theta, dict):
        kind = dict(theta)
        witness = catalog.heat_witness_library(kind.pop("kind"), **kind)
        theta_map = witness.Phi
    else:
        theta_map = None
    zeta_src = spec.get("zeta")
    zeta = parse(zeta_src, "y") if zeta_src else None
    base = Point(*spec.get("base", (1.0, 0.0, 0.0)))
    witness_spec = dict(spec.get("witness", {"kind": "plane_exp", "k": 1.0}))
    if constraint == "q_y=0":
        witness_spec.setdefault("direction", "backward")
    seed_witness = catalog.heat_witness_library(**witness_spec)
    return transforms.covering_solutions_for_constraint(
        constraint, field, seed_witness, theta=theta_map, zeta=zeta,
        base=base)


def cmd_transform(args) -> int:
    cfg = _load_config(args)
    family = args.family or cfg.get("family")
    if not family:
        raise ConfigError("a seed family id is required")
    params = dict(cfg.get("params", {}))
    params.update(_parse_params(args.param))
    chain = json.loads(args.chain) if args.chain else cfg.get("chain", [])
    if not isinstance(chain, list) or not chain:
        raise ConfigError("the chain must be a nonempty list of ops")
    base = Point(*(cfg.get("base") or
                   (json.loads(args.base) if args.base else (1.0, 0.0, 0.0))))
    tol = _tolerance(args, cfg)
    try:
        field = _seed_field(family, params)
    except (catalog.UnknownFamily, catalog.BadBinding,
            catalog.WitnessViolation) as exc:
        raise ConfigError(str(exc)) from exc
    for step in chain:
        op = step.get("op")
        if op not in _CHAIN_OPS:
            raise ConfigError(f"unknown chain op {op!r}")
        if op.endswith("_uq") and field.coords == "UV":
            field = system.convert(field, "UQ", base)
        if op.endswith("_uv") and field.coords == "UQ":
            field = system.convert(field, "UV", base)
        if op == "laplace_fwd_uv":
            field = transforms.laplace_forward_uv(field, base)
        elif op == "laplace_inv_uv":
            field = transforms.laplace_inverse_uv(field, base)
        elif op == "laplace_fwd_uq":
            field = transforms.laplace_forward_uq(field)
        elif op == "laplace_inv_uq":
            field = transforms.laplace_inverse_uq(field)
        else:
            if field.coords == "UV":
                field = system.convert(field, "UQ", base)
            phi = _build_phi(field, step.get("phi", {}))
            field = transforms.darboux("DT1" if op == "dt1" else "DT2",
                                       field, phi)
    grid_spec = cfg.get("grid") or _default_grid(family)
    if args.grid:
        grid_spec = json.loads(args.grid)
    grid = _grid_from_spec(grid_spec)
    rows = _evaluate_grid(field, grid)
    report = _report(field.family_id, field.params, grid_spec, rows)
    report["tolerance"] = tol
    undefined_fraction = report["skipped"] / max(len(rows), 1)
    report["undefined_fraction"] = undefined_fraction
    passed = _within(report, tol) and undefined_fraction <= 0.05
    report["passed"] = bool(passed)
    _write_outputs(report, rows, args.report, args.csv)
    return EXIT_OK if passed else EXIT_TOLERANCE


def cmd_reduce(args) -> int:
    cfg = _load_config(args)
    rid = args.id or cfg.get("id")
    if rid not in ("R2_4", "R2_9"):
        raise ConfigError("reduction id must be R2_4 or R2_9")
    params = dict(cfg.get("params", {}))
    params.update(_parse_params(args.param))
    spec = reductions.ReductionSpec(
        id=rid, C0=float(params.get("C0", 0.0)),
        C1=float(params.get("C1", 2.0 if rid == "R2_9" else 1.0)),
        C2=float(params.get("C2", 0.0)),
        delta=float(params.get("delta", 1 if rid == "R2_9" else 0)),
        eps=int(params.get("eps", 1)),
        init=tuple(params.get("init",
                              (-2.0, 0.5, 0.25) if rid == "R2_9"
                              else (0.0, 1.0, 0.0))))
    span = tuple(params.get("span",
                            (-2.4, -0.6) if rid == "R2_9" else (-1.2, 1.2)))
    try:
        if rid == "R2_9":
            traj = reductions.integrate_painleve2(spec, span=span)
        else:
            traj = reductions.integrate_painleve4_form(spec, span=span)
    except (reductions.BadSpec, reductions.ZeroCrossing) as exc:
        raise ConfigError(str(exc)) from exc
    except reductions.PoleAbort as exc:
        print(json.dumps({"error": str(exc),
                          "last_safe": exc.last_safe}, sort_keys=True))
        return EXIT_TOLERANCE
    if args.csv:
        traj.to_csv(args.csv)
    lo, hi = traj.window()
    print(json.dumps({"id": rid, "nodes": len(traj.grid),
                      "window": [lo, hi], "tol": traj.tol},
                     sort_keys=True))
    return EXIT_OK


def cmd_algebra(args) -> int:
    lib = liealg.load_subalgebra_library()
    failures = []
    for sub in lib:
        rep = liealg.check_subalgebra(sub)
        if not rep.closed:
            failures.append(sub.label)
    table = liealg.load_normalizer_table()
    norm_fails = []
    for label, (sub, gens) in table.items():
        for gen in gens:
            if not liealg.normalizer_check(gen, sub):
                norm_fails.append(label)
    payload = {
        "subalgebras_checked": len(lib),
        "closure_failures": failures,
        "normalizer_lists_checked": len(table),
        "normalizer_failures": norm_fails,
    }
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK if not failures and not norm_fails else EXIT_TOLERANCE


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="blp",
        description="Exact solutions and transformations of the "
                    "Boiti-Leon-Pempinelli system")
    sub = ap.add_subparsers(dest="command", required=True)

    lp = sub.add_parser("list", help="list solution families")
    lp.add_argument("--constraint", help="filter by constraint tag")
    lp.add_argument("--json", action="store_true")
    lp.set_defaults(fn=cmd_list)

    for name, fn in (("verify", cmd_verify), ("transform", cmd_transform)):
        vp = sub.add_parser(name)
        vp.add_argument("--family")
        vp.add_argument("--param", action="append",
                        help="name=value (value JSON or expression text)")
        vp.add_argument("--grid", help="JSON grid spec")
        vp.add_argument("--tol", help="finite number > 0 (default 1e-6)")
        vp.add_argument("--config", help="JSON config file")
        vp.add_argument("--report", help="write the JSON report here")
        vp.add_argument("--csv", help="write a grid dump here")
        if name == "verify":
            vp.add_argument("--perturb", type=float, default=0.0,
                            help="add eps*x^3 to v (detector check)")
        else:
            vp.add_argument("--chain", help="JSON list of chain ops")
            vp.add_argument("--base", help="JSON [t, x, y] base point")
        vp.set_defaults(fn=fn)

    rp = sub.add_parser("reduce")
    rp.add_argument("--id", choices=("R2_4", "R2_9"))
    rp.add_argument("--param", action="append")
    rp.add_argument("--config")
    rp.add_argument("--csv")
    rp.set_defaults(fn=cmd_reduce)

    gp = sub.add_parser("algebra")
    gp.set_defaults(fn=cmd_algebra)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ParseError, json.JSONDecodeError, OSError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True),
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
