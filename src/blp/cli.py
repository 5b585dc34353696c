"""Command-line front end.

Subcommands:

  blp list        print the family catalog (optionally as JSON)
  blp verify      residual-check a family on a grid, write a JSON report
  blp transform   apply a transformation chain, verify the result
  blp reduce      integrate a reduced profile equation, export CSV
  blp algebra     run the bundled subalgebra closure / normalizer checks

Exit codes: 0 success, 1 tolerance failure, 2 configuration error or
any other toolkit error (a :class:`jets.BLPError`, such as a quadrature
that cannot reach its tolerance), with a one-line JSON ``{"error": ...}``
on stderr, also for usage errors.
Reports are deterministic: keys sorted, floats printed with shortest
round-trip repr, non-finite floats as the strings "NaN", "Infinity" and
"-Infinity".  A report passes only when every residual is finite;
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
from .exprdsl import parse
from .jets import BadInput, BLPError, Point

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2


class ConfigError(BadInput):
    pass


def _grid_from_spec(spec) -> list[Point]:
    if not isinstance(spec, dict):
        raise ConfigError(f"the grid must be a JSON object, got {spec!r}")
    axes = []
    for name in ("t", "x", "y"):
        axis = spec.get(name)
        try:
            lo, hi, n = axis
            n = int(n)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"grid axis {name} must be [lo, hi, n], "
                              f"got {axis!r}") from None
        if not (catalog.finite_real(lo) and catalog.finite_real(hi)) \
                or n < 1 or not lo < hi:
            raise ConfigError(f"bad grid spec for {name}: {axis}")
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
    return out


def _within(report: dict, tol: float) -> bool:
    """Both residual sups within ``tol`` and every residual finite."""
    return (report["r1_max"] <= tol and report["r2_max"] <= tol
            and "nonfinite" not in report)


def _check_grid(field, family: str, grid, grid_spec: dict, tol: float):
    """The JSON report of ``field`` over ``grid``, and its residual rows."""
    rep = system.residual_report(field, grid)
    report = {
        "family": family,
        "params": {k: (v if isinstance(v, (int, float)) else str(v))
                   for k, v in field.params.items()},
        "grid_spec": grid_spec,
        **rep.summary(),
        "evaluated": len(rep.rows),
        "tolerance": tol,
    }
    return report, rep.rows


def _write_outputs(report: dict, rows, args) -> int:
    text = system.report_json(report)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    print(text)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            fh.write("t,x,y,u,v,r1,r2\n")
            for (p, *values) in rows:
                fh.write(",".join(repr(float(z)) for z in (*p, *values))
                         + "\n")
    return EXIT_OK if report["passed"] else EXIT_TOLERANCE


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
    field = catalog.instantiate(family, _coerce_bindings(family, params))
    if args.perturb:
        field = system.perturb_v(field, eps=args.perturb)
    report, rows = _check_grid(field, family, grid, grid_spec, tol)
    report["passed"] = _within(report, tol) and report["evaluated"] > 0
    return _write_outputs(report, rows, args)


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
        if name == "seed_qy0" and isinstance(spec, dict):
            spec = {"direction": "backward", **spec}
        return transforms.uq_seed(
            _witness(spec, "Phi"),
            constraint="q_y=0" if name == "seed_qy0" else "u_y=q_y")
    return catalog.instantiate(name, _coerce_bindings(name, params))


def _point(value, what: str) -> Point:
    if not (isinstance(value, (list, tuple)) and len(value) == 3
            and all(catalog.finite_real(c) for c in value)):
        raise ConfigError(f"{what} must be [t, x, y], got {value!r}")
    return Point(*value)


def _witness(spec, what: str) -> catalog.HeatWitness:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{what} must be an object with a kind, "
                          f"got {spec!r}")
    try:
        return catalog.heat_witness_library(**spec)
    except (TypeError, catalog.BadBinding) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _build_phi(field, spec: dict):
    constraint = spec.get("constraint", "q_y=0")
    theta = spec.get("theta")
    theta_map = _witness(theta, "theta").Phi if theta is not None else None
    zeta_src = spec.get("zeta")
    zeta = parse(zeta_src, "y") if zeta_src else None
    base = _point(spec.get("base", (1.0, 0.0, 0.0)), "phi base")
    witness_spec = dict(spec.get("witness", {"kind": "plane_exp", "k": 1.0}))
    if constraint == "q_y=0":
        witness_spec.setdefault("direction", "backward")
    seed_witness = _witness(witness_spec, "witness")
    try:
        return transforms.covering_solutions_for_constraint(
            constraint, field, seed_witness, theta=theta_map, zeta=zeta,
            base=base)
    except ValueError as exc:  # unknown constraint or a failed probe
        raise ConfigError(f"bad eigenfunction: {exc}") from exc


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
    base = _point(cfg.get("base") or
                  (json.loads(args.base) if args.base else (1.0, 0.0, 0.0)),
                  "base")
    tol = _tolerance(args, cfg)
    field = _seed_field(family, params)
    for step in chain:
        op = step.get("op") if isinstance(step, dict) else None
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
    report, rows = _check_grid(field, field.family_id, grid, grid_spec, tol)
    report["undefined_fraction"] = report["skipped"] / len(grid)
    report["passed"] = (_within(report, tol)
                        and report["undefined_fraction"] <= 0.05)
    return _write_outputs(report, rows, args)


def cmd_reduce(args) -> int:
    cfg = _load_config(args)
    rid = args.id or cfg.get("id")
    if rid not in ("R2_4", "R2_9"):
        raise ConfigError("reduction id must be R2_4 or R2_9")
    params = dict(cfg.get("params", {}))
    params.update(_parse_params(args.param))
    r29 = rid == "R2_9"

    def number(name, default, kind=float):
        value = params.get(name, default)
        try:
            return kind(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{name} must be a number, got {value!r}") \
                from None

    def reals(name, default):
        value = params.get(name, default)
        if not (isinstance(value, (list, tuple))
                and len(value) == len(default)
                and all(catalog.finite_real(z) for z in value)):
            raise ConfigError(f"{name} must be a list of {len(default)} "
                              f"numbers, got {value!r}")
        return tuple(value)

    spec = reductions.ReductionSpec(
        id=rid, C0=number("C0", 0.0), C1=number("C1", 2.0 if r29 else 1.0),
        C2=number("C2", 0.0), delta=number("delta", 1 if r29 else 0),
        eps=number("eps", 1, int),
        init=reals("init", (-2.0, 0.5, 0.25) if r29 else (0.0, 1.0, 0.0)))
    span = reals("span", (-2.4, -0.6) if r29 else (-1.2, 1.2))
    try:
        if rid == "R2_9":
            traj = reductions.integrate_painleve2(spec, span=span)
        else:
            traj = reductions.integrate_painleve4_form(spec, span=span)
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


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as a ConfigError, like every other bad input."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
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
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (BLPError, json.JSONDecodeError, OSError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True),
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
