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
on stderr, also for usage errors; 141 (128 + SIGPIPE), with nothing on
stderr, when the reader of stdout closes it before the output is written.
Reports are deterministic: keys sorted, floats printed with shortest
round-trip repr, non-finite floats as the strings "NaN", "Infinity" and
"-Infinity".  A report passes only when every residual is finite;
non-finite ones are counted under ``nonfinite``.  A grid is asked as
one batch; BLP_THREADS is accepted and ignored.

Every input, parameter and spec that the commands read is declared
once, as a (name, kind, default) entry of a table, and resolved as
family parameters are, by ``catalog.resolve``: an undeclared key is
rejected, a missing value takes the default, and a value that its kind
rejects exits 2 naming the key.  A command input is read from its flag,
else from the config key of that name, else from its default; one whose
default is :data:`REQUIRED` exits 2 without a value.  A flag's text, as
a ``--param`` value, is JSON if it parses.  A null command input exits
2; a null parameter takes its default.  A config file is a JSON object,
and its ``params`` an object.  The tables are ``_INPUTS`` (each
command's inputs), ``_SEEDS`` (the seeds of ``blp transform`` that are
not families), :func:`_phi_entries` (a dt step's ``phi`` object),
``_REDUCE_PARAMS`` (the parameters of ``blp reduce``, a default per id)
and ``catalog._WITNESS_PARAMS`` (a witness spec); README's "Inputs,
their kinds and defaults" prints them.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import catalog, liealg, reductions, system, transforms
from .jets import BadInput, BLPError, Jet3, OrderTooHigh, Point

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
#: 128 + SIGPIPE, as a shell reports a command that a signal ended
EXIT_BROKEN_PIPE = 141


class ConfigError(BadInput):
    pass


def _parse_params(items) -> dict:
    out = {}
    for item in items or []:
        if "=" not in item:
            raise ConfigError(f"--param expects name=value, got {item!r}")
        name, value = item.split("=", 1)
        out[name] = _json_or_text(value)
    return out


def _json_or_text(text: str):
    """A flag's text: JSON if it parses, else the text itself."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


#: the default of a command input that has none: the command exits 2
#: without it
REQUIRED = object()
#: the ids of ``blp reduce``, in the order of the defaults of _REDUCE_PARAMS
_REDUCE_IDS = ("R2_4", "R2_9")

#: each command's inputs, as (name, kind, default) entries; a None
#: default is filled in by the command: the grid covers the family's
#: sampling box, and no constraint filters the list
_INPUTS = {
    "list": (("constraint", "constraint_tag", None),),
    "verify": (("family", "text", REQUIRED), ("grid", "grid", None),
               ("tol", "tolerance", 1e-6), ("perturb", "real", 0.0)),
    "transform": (("family", "text", REQUIRED), ("grid", "grid", None),
                  ("tol", "tolerance", 1e-6),
                  ("chain", "nonempty_list", REQUIRED),
                  ("base", "triple", (1.0, 0.0, 0.0))),
    "reduce": (("id", "|".join(_REDUCE_IDS), REQUIRED),),
}


def _read(args) -> tuple[dict, dict]:
    """The command's inputs and its parameters.

    Each declared input is read from its flag, else from the config
    file's key of that name, else from its default, and resolved by
    ``catalog.resolve``.  The parameters are the config's ``params``
    object updated by the ``--param`` flags.
    """
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ConfigError(f"a config file must be a JSON object, "
                              f"got {cfg!r}")
    params = cfg.pop("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"the config's params must be a JSON object, "
                          f"got {params!r}")
    entries = _INPUTS[args.command]
    for name, kind, default in entries:
        flag = getattr(args, name)
        if flag is not None:
            cfg[name] = _json_or_text(flag)
        if name in cfg and cfg[name] is None:  # resolve reads it as missing
            raise ConfigError(f"{name}: expected {kind}, got null")
        if default is REQUIRED and name not in cfg:
            raise ConfigError(f"{name} is required")
    inputs = catalog.resolve(f"blp {args.command}", entries, cfg)
    return inputs, {**params, **_parse_params(getattr(args, "param", None))}


def _within(report: dict, tol: float) -> bool:
    """Both residual sups within ``tol`` and every residual finite."""
    return (report["r1_max"] <= tol and report["r2_max"] <= tol
            and "nonfinite" not in report)


def _check_grid(field, family: str, inputs: dict):
    """The JSON report of ``field`` over the grid of ``inputs``, else of 4
    points per axis over the family's sampling box, and its residual rows."""
    box = catalog.default_box(inputs["family"])
    spec = inputs["grid"] or {
        name: [lo, hi, 4] for name, (lo, hi) in zip("txy", box)}
    t, x, y = (np.linspace(*spec[name]) for name in "txy")
    rep = system.residual_report(field, [
        Point(float(a), float(b), float(c)) for a in t for b in x for c in y])
    report = {
        "family": family,
        "params": {k: (v if isinstance(v, (int, float)) else str(v))
                   for k, v in field.params.items()},
        "grid_spec": spec,
        **rep.summary(),
        "evaluated": len(rep.rows),
        "tolerance": inputs["tol"],
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
    constraint = _read(args)[0]["constraint"]
    rows = catalog.list_families()
    if constraint is not None:
        rows = [d for d in rows if d.constraint_tag == constraint]
    if args.json:
        payload = [{"id": d.id, "coords": d.coords,
                    "constraint": d.constraint_tag,
                    "params": [[name, kind] for name, kind, _ in d.params],
                    "notes": d.notes} for d in rows]
        print(json.dumps(payload, sort_keys=True))
        return EXIT_OK
    width = max((len(d.id) for d in rows), default=10)
    for d in rows:
        print(f"{d.id:<{width}}  {d.constraint_tag:<28}  {d.notes}")
    return EXIT_OK


def cmd_verify(args) -> int:
    inputs, params = _read(args)
    field = catalog.instantiate(inputs["family"], params)
    if inputs["perturb"]:
        field = system.perturb_v(field, eps=inputs["perturb"])
    report, rows = _check_grid(field, inputs["family"], inputs)
    report["passed"] = (_within(report, inputs["tol"])
                        and report["evaluated"] > 0)
    return _write_outputs(report, rows, args)


_CHAIN_OPS = ("laplace_fwd_uv", "laplace_inv_uv", "laplace_fwd_uq",
              "laplace_inv_uq", "dt1", "dt2")


#: the witness that a seed and a dt step's eigenfunction default to
_PLANE_EXP = {"kind": "plane_exp", "k": 1.0}

#: the seeds of ``blp transform`` that are not families: their
#: parameters' (name, kind, default) entries, resolved as family
#: parameters are
_SEEDS = {
    "zero_uq": (),
    "seed_qy0": (("Phi", "heat_witness_backward", _PLANE_EXP),),
    "seed_uyqy": (("Phi", "heat_witness_forward", _PLANE_EXP),),
}


def _seed_field(name: str, params: dict):
    if name not in _SEEDS:
        return catalog.instantiate(name, params)
    bound = catalog.resolve(name, _SEEDS[name], params)
    if name == "zero_uq":
        return system.SolutionField(
            u=lambda p, n: Jet3.constant(0.0, p, n),
            v=lambda p, n: Jet3.constant(0.0, p, n),
            coords="UQ", family_id="zero_uq")
    return transforms.uq_seed(
        bound["Phi"], constraint="q_y=0" if name == "seed_qy0" else "u_y=q_y")


def _phi_entries(constraint) -> tuple:
    """The (name, kind, default) entries of a dt step's ``phi`` object that
    names ``constraint``; its witness is backward under q_y=0 and forward
    under u_y=q_y, as the seed's."""
    witness = "forward" if constraint == "u_y=q_y" else "backward"
    return (("constraint", "q_y=0|u_y=q_y", "q_y=0"),
            ("zeta", "expr_of_y", None),
            ("theta", "heat_witness_backward", None),
            ("witness", f"heat_witness_{witness}", _PLANE_EXP),
            ("base", "triple", (1.0, 0.0, 0.0)))


def _build_phi(field, spec):
    """The eigenfunction of a dt step's ``phi`` object."""
    constraint = spec.get("constraint") if isinstance(spec, dict) else None
    bound = catalog.resolve("phi", _phi_entries(constraint), spec)
    theta = bound["theta"]
    try:
        return transforms.covering_solutions_for_constraint(
            bound["constraint"], field, bound["witness"],
            theta=theta.Phi if theta else None, zeta=bound["zeta"],
            base=Point(*bound["base"]))
    except OrderTooHigh:
        raise
    except BadInput as exc:  # a failed probe
        raise ConfigError(f"bad eigenfunction: {exc}") from exc


def cmd_transform(args) -> int:
    inputs, params = _read(args)
    base = Point(*inputs["base"])
    field = _seed_field(inputs["family"], params)
    depth = 0
    try:
        for depth, step in enumerate(inputs["chain"], 1):
            field = _chain_step(field, step, base)
        report, rows = _check_grid(field, field.family_id, inputs)
    except OrderTooHigh as exc:  # the chain is too deep to evaluate
        raise ConfigError(f"chain depth {depth}: {exc}") from exc
    report["undefined_fraction"] = \
        report["skipped"] / (report["skipped"] + report["evaluated"])
    report["passed"] = (_within(report, inputs["tol"])
                        and report["undefined_fraction"] <= 0.05)
    return _write_outputs(report, rows, args)


def _chain_step(field, step, base: Point):
    """``field`` after one step of a ``blp transform`` chain."""
    op = step.get("op") if isinstance(step, dict) else None
    if op not in _CHAIN_OPS:
        raise ConfigError(f"unknown chain op {op!r}")
    extra = set(step) - ({"op", "phi"} if op in ("dt1", "dt2") else {"op"})
    if extra:
        raise ConfigError(f"unknown keys {sorted(extra)} in chain step {op}")
    coords = "UV" if op.endswith("_uv") else "UQ"
    if field.coords != coords:
        field = system.convert(field, coords, base)
    if op == "laplace_fwd_uv":
        return transforms.laplace_forward_uv(field, base)
    if op == "laplace_inv_uv":
        return transforms.laplace_inverse_uv(field, base)
    if op == "laplace_fwd_uq":
        return transforms.laplace_forward_uq(field)
    if op == "laplace_inv_uq":
        return transforms.laplace_inverse_uq(field)
    phi = _build_phi(field, step.get("phi", {}))
    return transforms.darboux("DT1" if op == "dt1" else "DT2", field, phi)


#: the parameters of ``blp reduce``, one row per name: its kind, then its
#: default for each of _REDUCE_IDS
_REDUCE_PARAMS = (
    ("C0", "real", 0.0, 0.0),
    ("C1", "real", 1.0, 2.0),
    ("C2", "real", 0.0, 0.0),
    ("delta", "real", 0.0, 1.0),
    ("eps", "sign", 1, 1),
    ("init", "triple", (0.0, 1.0, 0.0), (-2.0, 0.5, 0.25)),
    ("span", "pair", (-1.2, 1.2), (-2.4, -0.6)),
)


def _reduce_entries(rid: str) -> tuple:
    """The (name, kind, default) entries of ``blp reduce --id rid``."""
    column = _REDUCE_IDS.index(rid)
    return tuple((name, kind, defaults[column])
                 for name, kind, *defaults in _REDUCE_PARAMS)


def cmd_reduce(args) -> int:
    inputs, params = _read(args)
    rid = inputs["id"]
    bound = catalog.resolve(rid, _reduce_entries(rid), params)
    span = bound.pop("span")
    bound["eps"] = int(bound["eps"])  # the CSV sidecar shows it as an int
    spec = reductions.ReductionSpec(id=rid, **bound)
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
    for command, fn in (("list", cmd_list), ("verify", cmd_verify),
                        ("transform", cmd_transform), ("reduce", cmd_reduce)):
        cp = sub.add_parser(command)
        for name, kind, _ in _INPUTS[command]:
            cp.add_argument(f"--{name}", help=f"kind {kind}")
        if command == "list":
            cp.add_argument("--json", action="store_true")
        else:
            cp.add_argument("--param", action="append",
                            help="name=value (value JSON or expression text)")
            cp.add_argument("--config", help="JSON config file")
            cp.add_argument("--csv", help="write a CSV dump here")
        if command in ("verify", "transform"):
            cp.add_argument("--report", help="write the JSON report here")
        cp.set_defaults(fn=fn)

    gp = sub.add_parser("algebra")
    gp.set_defaults(fn=cmd_algebra)
    return ap


# parsing keeps no state in the parser, so one serves every call of main
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout has gone: point stdout at the null device,
        # so that the flush at exit cannot raise again (the "Note on
        # SIGPIPE" of Python's signal documentation), and say nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (BLPError, json.JSONDecodeError, OSError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True),
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
