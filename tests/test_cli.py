import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blp import catalog, jets, quadrature, system
from blp.cli import main
from blp.jets import Jet3


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def reject_constant(name):
    """``parse_constant`` hook: NaN and Infinity are not strict JSON."""
    raise ValueError(f"non-standard JSON constant {name}")


def test_list_row_count(capsys):
    code, out, _ = run_cli(["list"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) >= 22


def test_list_constraint_filter(capsys):
    code, out, _ = run_cli(["list", "--constraint", "v_x=0"], capsys)
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 1 and rows[0].startswith("F_VX0")


def test_list_json(capsys):
    code, out, _ = run_cli(["list", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) >= 22
    assert {"id", "constraint", "params"} <= set(payload[0])


def test_verify_pass(capsys):
    code, out, _ = run_cli(
        ["verify", "--family", "F_UEQV", "--param", "alpha=4+sin(y)",
         "--tol", "1e-8"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] and report["r1_max"] < 1e-8


def test_verify_detector_fails(capsys):
    code, out, _ = run_cli(
        ["verify", "--family", "F_UY0_TRIV", "--perturb", "0.05"], capsys)
    assert code == 1
    assert not json.loads(out)["passed"]


def test_verify_malformed_expression(capsys):
    code, out, err = run_cli(
        ["verify", "--family", "F_UEQV", "--param", "alpha=4*(y"], capsys)
    assert code == 2
    assert "offset" in err


def test_verify_unknown_family(capsys):
    code, _, err = run_cli(["verify", "--family", "F_NOPE"], capsys)
    assert code == 2


def test_verify_report_determinism(tmp_path, capsys):
    args = ["verify", "--family", "F_VXXX_4",
            "--param", "alpha=sin(y)", "--param", "gamma=y"]
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    code1, _, _ = run_cli(args + ["--report", str(r1)], capsys)
    code2, _, _ = run_cli(args + ["--report", str(r2)], capsys)
    assert code1 == code2 == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_verify_csv_dump(tmp_path, capsys):
    path = tmp_path / "grid.csv"
    code, _, _ = run_cli(
        ["verify", "--family", "F_UY0_TRIV", "--csv", str(path)], capsys)
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,y,u,v,r1,r2"
    assert len(lines) > 10


def test_transform_dt1_on_zero_seed(capsys):
    chain = json.dumps([{
        "op": "dt1",
        "phi": {"constraint": "q_y=0", "zeta": "1",
                "theta": {"kind": "heat_polynomial", "n": 1,
                          "direction": "backward"},
                "witness": {"kind": "plane_exp", "k": 0.0,
                            "direction": "backward"},
                "base": [1.0, 0.0, 0.0]},
    }])
    grid = json.dumps({"t": [0.5, 1.0, 3], "x": [0.3, 0.9, 3],
                       "y": [0.4, 1.0, 3]})
    code, out, _ = run_cli(
        ["transform", "--family", "zero_uq", "--chain", chain,
         "--grid", grid, "--tol", "1e-8"], capsys)
    assert code == 0, out
    report = json.loads(out)
    assert report["passed"]


def test_transform_forward_on_qy0_rejected(capsys):
    chain = json.dumps([{"op": "laplace_fwd_uq"}])
    grid = json.dumps({"t": [0.5, 1.0, 3], "x": [0.3, 0.9, 3],
                       "y": [0.4, 1.0, 3]})
    code, out, _ = run_cli(
        ["transform", "--family", "seed_qy0", "--chain", chain,
         "--grid", grid], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["undefined_fraction"] == 1.0


def test_transform_bad_chain(capsys):
    code, _, err = run_cli(
        ["transform", "--family", "zero_uq", "--chain", '[{"op":"bogus"}]'],
        capsys)
    assert code == 2


def test_reduce_csv(tmp_path, capsys):
    path = tmp_path / "traj.csv"
    code, out, _ = run_cli(
        ["reduce", "--id", "R2_9", "--csv", str(path)], capsys)
    assert code == 0
    assert path.exists() and (tmp_path / "traj.csv.json").exists()
    info = json.loads(out)
    assert info["nodes"] > 10


def test_reduce_bad_id(capsys):
    code, _, _ = run_cli(["reduce", "--id", "R2_4",
                          "--param", "init=[0,0,1]"], capsys)
    assert code == 2


def test_reduce_pole_is_a_verdict(capsys):
    # the default R2_9 profile is -1/z; a span across its pole at z = 0
    # ends the march short of it, a verdict that names the last safe node
    code, out, err = run_cli(["reduce", "--id", "R2_9",
                              "--param", "span=[-2.0, 0.5]"], capsys)
    assert code == 1 and err == ""
    line, = out.splitlines()
    assert -0.01 < json.loads(line)["last_safe"] < 0.0
    # an initial state whose series overflows blows up at once
    code, out, _ = run_cli(["reduce", "--id", "R2_9",
                            "--param", "init=[-2, 1e200, 0]"], capsys)
    assert code == 1
    assert json.loads(out) == {"error": "trajectory blowup",
                               "last_safe": None}


_WINDOW_GRID = '{"t": [0.1, 1.0, 3], "x": [0.3, 0.6, 3], "y": [0.3, 0.6, 3]}'


@pytest.mark.parametrize("args", [
    ["reduce", "--id", "R2_9", "--param", "C1=-1"],
    ["verify", "--family", "F_R29_PAINLEVE2", "--param", "C1=-2",
     "--grid", _WINDOW_GRID]], ids=["reduce", "verify"])
def test_a_negative_c1_takes_the_real_cube_root(args, capsys):
    # (2 C1)^(1/3) for C1 < 0 is the real root, not a complex number
    code, out, err = run_cli(args, capsys)
    assert (code, err) == (0, "")
    assert json.loads(out).get("passed", True)


def test_algebra(capsys):
    code, out, _ = run_cli(["algebra"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["closure_failures"] == []
    assert payload["normalizer_failures"] == []
    assert payload["subalgebras_checked"] >= 50


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "blp.cli", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "F_HOPFCOLE2D" in proc.stdout


@pytest.mark.parametrize("args", [["list"],
                                  ["verify", "--family", "F_UY0_TRIV"]],
                         ids=["list", "verify"])
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_141_and_says_nothing(args, unbuffered):
    # the read end is closed before blp writes, as by a reader that stops
    # early (blp list | head): not a toolkit error, and no second error
    # from the flush at exit
    proc = subprocess.Popen([sys.executable, "-m", "blp.cli", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONUNBUFFERED": unbuffered})
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (141, b"")


def test_other_os_errors_stay_configuration_errors(tmp_path, capsys):
    code, out, err = run_cli(["verify", "--config",
                              str(tmp_path / "missing.json")], capsys)
    assert (code, out) == (2, "")
    assert "No such file" in json.loads(err)["error"]


def test_transform_laplace_fwd_uv_on_family(capsys):
    chain = json.dumps([{"op": "laplace_fwd_uv"}])
    grid = json.dumps({"t": [0.9, 1.3, 3], "x": [0.4, 1.0, 3],
                       "y": [0.4, 0.9, 3]})
    code, out, _ = run_cli(
        ["transform", "--family", "F_VXXX_1",
         "--param", "alpha=sin(y)", "--param", "beta=2+cos(y)",
         "--param", "gamma=y", "--param", "delta=1",
         "--chain", chain, "--grid", grid, "--tol", "1e-6",
         "--base", "[1.0, 0.0, 0.5]"], capsys)
    assert code == 0, out
    assert json.loads(out)["passed"]


_PATH_CHAINS = {
    # a DT1 dressing by a u_y=q_y eigenfunction, whose psi is a path
    # integral
    "dt1_u_y=q_y": [
        "--family", "seed_uyqy", "--param",
        'Phi={"kind": "plane_exp", "k": 1.0}', "--chain", json.dumps([{
            "op": "dt1",
            "phi": {"constraint": "u_y=q_y", "zeta": "y",
                    "theta": {"kind": "plane_exp", "k": 1.0,
                              "direction": "backward"},
                    "witness": {"kind": "plane_exp", "k": 1.0}}}]),
        "--grid", json.dumps({"t": [0.5, 1.0, 3], "x": [0.3, 0.9, 3],
                              "y": [0.4, 1.0, 3]}), "--tol", "1e-6"],
    # a (u,v) Laplace image, whose v is a path integral
    "laplace_fwd_uv": [
        "--family", "F_VXXX_1", "--param", "alpha=sin(y)",
        "--param", "beta=2+cos(y)", "--param", "gamma=y",
        "--param", "delta=1", "--chain", '[{"op": "laplace_fwd_uv"}]',
        "--grid", json.dumps({"t": [0.9, 1.3, 3], "x": [0.4, 1.0, 3],
                              "y": [0.4, 0.9, 3]}),
        "--tol", "1e-6", "--base", "[1.0, 0.0, 0.5]"],
}


@pytest.mark.parametrize("name", sorted(_PATH_CHAINS))
def test_transform_stdout_does_not_depend_on_the_line_cache(
        name, monkeypatch, capsys):
    # path integrals share their t-leg along grid lines; the report is
    # byte for byte the one of every line integrated afresh at every point
    args = ["transform"] + _PATH_CHAINS[name]
    cached = run_cli(args, capsys)

    def fresh(integrand, axis, lower, constant_along):
        def integral(p, n):
            return quadrature.integrate_field_along(integrand, axis, lower,
                                                    p, n)
        return integral

    monkeypatch.setattr(quadrature, "line_integral", fresh)
    assert cached[0] == 0 and json.loads(cached[1])["passed"]
    assert run_cli(args, capsys)[:2] == cached[:2]


def test_threads_env(monkeypatch, capsys):
    monkeypatch.setenv("BLP_THREADS", "2")
    code, out, _ = run_cli(
        ["verify", "--family", "F_UY0_QA", "--param", "zeta=cos(y)"],
        capsys)
    assert code == 0
    assert json.loads(out)["passed"]


def test_reduce_r24(tmp_path, capsys):
    path = tmp_path / "t4.csv"
    code, out, _ = run_cli(
        ["reduce", "--id", "R2_4",
         "--param", "C0=0.25", "--param", "C1=2.0",
         "--param", "init=[0.0, 1.2, -1.0]",
         "--param", "span=[-1.0, 1.0]", "--csv", str(path)], capsys)
    assert code == 0
    info = json.loads(out)
    assert info["id"] == "R2_4" and info["nodes"] > 40
    assert path.exists()


_BAD_TOL_FLAGS = ["nan", "inf", "-inf", "0", "-1", "abc"]
_BAD_TOL_CONFIGS = [math.nan, math.inf, 0, -1, "abc", None, True, [1e-6]]


@pytest.mark.parametrize("command", ["verify", "transform"])
@pytest.mark.parametrize("tol", _BAD_TOL_FLAGS)
def test_bad_tol_flag_is_config_error(command, tol, capsys):
    args = [command, "--family", "F_UY0_TRIV", f"--tol={tol}"]
    if command == "transform":
        args += ["--chain", '[{"op": "laplace_fwd_uv"}]']
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert "tolerance" in json.loads(err)["error"]


@pytest.mark.parametrize("command", ["verify", "transform"])
@pytest.mark.parametrize("tol", _BAD_TOL_CONFIGS,
                         ids=[repr(t) for t in _BAD_TOL_CONFIGS])
def test_bad_tol_config_is_config_error(command, tol, tmp_path, capsys):
    cfg = {"family": "F_UY0_TRIV", "tol": tol,
           "chain": [{"op": "laplace_fwd_uv"}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli([command, "--config", str(path)], capsys)
    assert code == 2 and out == ""
    assert "tolerance" in json.loads(err)["error"]


def _nan_at(bad):
    """A zero (u,v) field except for a NaN value of u at one point."""
    @jets.as_batch
    def u(p, n):
        at_bad = (p.t == bad[0]) & (p.x == bad[1]) & (p.y == bad[2])
        return Jet3.constant(np.where(at_bad, math.nan, 0.0), p, n)

    def v(p, n):
        return Jet3.constant(0.0, p, n)
    return system.SolutionField(u=u, v=v, coords="UV", family_id="nan_at")


def test_nan_residual_never_passes(monkeypatch, capsys):
    # the NaN sits at the last grid point, where Python's max drops it
    grid = {"t": [0.5, 1.0, 2], "x": [0.0, 1.0, 2], "y": [0.0, 1.0, 2]}
    field = _nan_at((1.0, 1.0, 1.0))
    monkeypatch.setattr(catalog, "instantiate", lambda fid, b: field)
    code, out, _ = run_cli(["verify", "--family", "F_UY0_TRIV",
                            "--grid", json.dumps(grid)], capsys)
    report = json.loads(out, parse_constant=reject_constant)
    assert code == 1
    assert report["passed"] is False
    assert report["nonfinite"] == 1 and report["evaluated"] == 8
    assert report["r1_max"] == "NaN" and math.isnan(float(report["r1_max"]))


def test_nonfinite_parameter_is_strict_json(capsys):
    code, out, err = run_cli(["verify", "--family", "F_R29_ELEM_2",
                              "--param", "kappa=Infinity"], capsys)
    assert code == 2 and out == ""
    assert set(json.loads(err, parse_constant=reject_constant)) == {"error"}


def test_finite_report_has_no_nonfinite_key(capsys):
    code, out, _ = run_cli(["verify", "--family", "F_UY0_TRIV"], capsys)
    assert code == 0 and "nonfinite" not in json.loads(out)


_GRID_COUNT = '{"t": [0.5, 1, %s], "x": [0, 1, 2], "y": [0, 1, 2]}'
_DT1_BAD_THETA = json.dumps([{"op": "dt1", "phi": {
    "theta": {"kind": "heat_polynomial", "n": 2, "direction": "forward"}}}])
_MALFORMED = {
    "grid_missing_axis": ["verify", "--family", "F_UY0_TRIV", "--grid",
                          '{"t": [0.5, 1, 2], "x": [0, 1, 2]}'],
    "grid_not_object": ["verify", "--family", "F_UY0_TRIV", "--grid",
                        "[1, 2]"],
    "grid_count_not_int": ["verify", "--family", "F_UY0_TRIV", "--grid",
                           '{"t": [0.5, 1, 2], "x": [0, 1, 2], '
                           '"y": [0, 1, "a"]}'],
    "reduce_short_init": ["reduce", "--id", "R2_9",
                          "--param", "init=[0.0,1.2]"],
    "reduce_bad_eps": ["reduce", "--id", "R2_9", "--param", "eps=3"],
    "dt1_theta_probe": ["transform", "--family", "zero_uq",
                        "--chain", _DT1_BAD_THETA],
    "dt1_witness_kind": ["transform", "--family", "zero_uq", "--chain",
                         '[{"op": "dt1", "phi": {"witness": {"kind": "x"}}}]'],
    "seed_phi_not_object": ["transform", "--family", "seed_qy0",
                            "--param", "Phi=3", "--chain",
                            '[{"op": "laplace_fwd_uq"}]'],
    "base_too_short": ["transform", "--family", "zero_uq", "--chain",
                       '[{"op": "laplace_fwd_uq"}]', "--base", "[1, 2]"],
    "tol_read_as_option": ["verify", "--family", "F_UY0_TRIV",
                           "--tol", "-inf"],
    "unknown_flag": ["verify", "--family", "F_UY0_TRIV", "--bogus"],
    "family_short_init": ["verify", "--family", "F_R24_PAINLEVE4",
                          "--param", "init=[1,2]"],
    "family_short_span": ["verify", "--family", "F_R29_PAINLEVE2",
                          "--param", "span=[-2.4]"],
    "real_not_numeric": ["verify", "--family", "F_R29_ELEM_2",
                         "--param", "kappa=abc"],
    "real_infinite": ["verify", "--family", "F_R29_ELEM_3",
                      "--param", "nu=-Infinity"],
    "param_without_value": ["verify", "--family", "F_UY0_TRIV",
                            "--param", "foo"],
    "param_outside_chart": ["verify", "--family", "F_R29_ELEM_3",
                            "--param", "nu=0"],
    "phi_not_object": ["transform", "--family", "seed_qy0", "--chain",
                       '[{"op": "dt1", "phi": "abc"}]'],
    "phi_unknown_key": ["transform", "--family", "seed_qy0", "--chain",
                        '[{"op": "dt1", "phi": {"foo": 1}}]'],
    "step_unknown_key": ["transform", "--family", "zero_uq", "--chain",
                         '[{"op": "laplace_fwd_uq", "phi": {}}]'],
    "seed_unknown_param": ["transform", "--family", "seed_qy0",
                           "--param", "foo=1", "--chain",
                           '[{"op": "laplace_inv_uq"}]'],
    "reduce_eps_not_sign": ["reduce", "--id", "R2_9", "--param", "eps=1.7"],
    "reduce_real_is_bool": ["reduce", "--id", "R2_9", "--param", "C0=true"],
    "reduce_real_nan": ["reduce", "--id", "R2_9", "--param", "C0=NaN"],
    "reduce_unknown_param": ["reduce", "--id", "R2_4", "--param", "foo=1"],
    "witness_degree_fraction": [
        "verify", "--family", "F_HOPFCOLE2D", "--param",
        'Phi={"kind": "heat_polynomial", "n": 1.5}'],
    "witness_degree_overflow": [
        "verify", "--family", "F_HOPFCOLE2D", "--param",
        'Phi={"kind": "heat_polynomial", "n": 1e30}'],
    "witness_trig_unknown": [
        "verify", "--family", "F_HOPFCOLE2D", "--param",
        'Phi={"kind": "separable_trig", "trig": "tan"}'],
    "witness_real_is_bool": [
        "verify", "--family", "F_HOPFCOLE2D", "--param",
        'Phi={"kind": "plane_exp", "k": true}'],
    "witness_direction_unknown": [
        "transform", "--family", "seed_uyqy", "--param",
        'Phi={"kind": "plane_exp", "direction": "sideways"}', "--chain",
        '[{"op": "laplace_fwd_uq"}]'],
    "theta_nan": ["transform", "--family", "zero_uq", "--chain",
                  '[{"op": "dt1", "phi": {"theta": '
                  '{"kind": "plane_exp", "k": NaN}}}]'],
    "grid_count_fraction": ["verify", "--family", "F_UY0_TRIV",
                            "--grid", _GRID_COUNT % "2.5"],
    "grid_count_string": ["verify", "--family", "F_UY0_TRIV",
                          "--grid", _GRID_COUNT % '"2"'],
    "grid_count_bool": ["verify", "--family", "F_UY0_TRIV",
                        "--grid", _GRID_COUNT % "true"],
    "grid_count_float": ["verify", "--family", "F_UY0_TRIV",
                         "--grid", _GRID_COUNT % "2.0"],
    "grid_extra_axis": ["verify", "--family", "F_UY0_TRIV", "--grid",
                        '{"t": [0.5, 1, 2], "x": [0, 1, 2], "y": [0, 1, 2], '
                        '"z": [0, 1, 2]}'],
    "perturb_nan_text": ["verify", "--family", "F_UY0_TRIV",
                         "--perturb", "nan"],
    "perturb_not_json": ["verify", "--family", "F_UY0_TRIV",
                         "--perturb", ".05"],
    "tol_not_json": ["verify", "--family", "F_UY0_TRIV", "--tol", ".5"],
    "tol_null": ["verify", "--family", "F_UY0_TRIV", "--tol", "null"],
    "list_unknown_constraint": ["list", "--constraint", "bogus"],
    "reduce_unknown_id": ["reduce", "--id", "R2_5"],
    "reduce_no_id": ["reduce"],
    "chain_empty": ["transform", "--family", "zero_uq", "--chain", "[]"],
    "chain_not_json": ["transform", "--family", "zero_uq",
                       "--chain", "laplace_fwd_uq"],
    "chain_too_deep": ["transform", "--family", "F_VXXX_5",
                       "--chain", json.dumps([{"op": "laplace_fwd_uv"}] * 7)],
    "family_missing": ["verify"],
}


@pytest.mark.parametrize("args", _MALFORMED.values(), ids=_MALFORMED)
def test_malformed_input_is_config_error(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert "Traceback" not in err
    assert set(json.loads(err)) == {"error"}


def test_a_chain_past_the_jet_order_limit_names_its_depth(capsys):
    # seven forward (u,v) steps ask the base field at order 17, past
    # jets.MAX_ORDER: the first point raises before any large table is built
    start = time.perf_counter()
    code, out, err = run_cli(_MALFORMED["chain_too_deep"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert json.loads(err)["error"].startswith("chain depth 7: jet order ")
    assert all(int(k) <= jets.MAX_ORDER for k in jets._TABLES)


_MALFORMED_CONFIGS = {
    "config_is_a_list": ["verify", [{"family": "F_UY0_TRIV"}]],
    "params_is_a_list": ["verify", {"family": "F_UY0_TRIV", "params": [1]}],
    "family_is_a_list": ["verify", {"family": ["F_UY0_TRIV"]}],
    "reduce_params_is_a_list": ["reduce", {"id": "R2_9", "params": []}],
    "transform_config_is_a_number": ["transform", 3],
    "undeclared_key": ["verify", {"family": "F_UY0_TRIV", "tolerance": 1e-30}],
    "reduce_undeclared_key": ["reduce", {"id": "R2_9", "span": [-2, -1]}],
    "grid_empty": ["verify", {"family": "F_UY0_TRIV", "grid": {}}],
    "grid_null": ["verify", {"family": "F_UY0_TRIV", "grid": None}],
    "base_null": ["transform", {"family": "zero_uq", "base": None,
                                "chain": [{"op": "laplace_fwd_uq"}]}],
    "tol_is_a_string": ["verify", {"family": "F_UY0_TRIV", "tol": "1e-6"}],
    "family_null": ["verify", {"family": None}],
    "chain_missing": ["transform", {"family": "zero_uq"}],
}


@pytest.mark.parametrize("command,cfg", _MALFORMED_CONFIGS.values(),
                         ids=_MALFORMED_CONFIGS)
def test_malformed_config_is_config_error(command, cfg, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli([command, "--config", str(path)], capsys)
    assert code == 2 and out == ""
    assert "Traceback" not in err
    assert set(json.loads(err)) == {"error"}


def _declared_inputs():
    """(argv builder, key) for every declared key of a CLI or witness spec:
    the seeds' parameters, the dt step's phi object, both reduce ids and
    every witness kind (through a family's Phi)."""
    from blp import cli
    cases = []
    for seed, entries in cli._SEEDS.items():
        for key, _, _ in entries:
            cases.append((f"seed:{seed}", key))
    for key, _, _ in cli._phi_entries("q_y=0"):
        cases.append(("phi", key))
    for rid in cli._REDUCE_IDS:
        for key, _, _ in cli._reduce_entries(rid):
            cases.append((f"reduce:{rid}", key))
    for kind, entries in catalog._WITNESS_PARAMS.items():
        for key, _, _ in entries + (("direction", "", ""),):
            cases.append((f"witness:{kind}", key))
    return cases


def _argv_with(where: str, key: str, bad) -> list:
    what, _, name = where.partition(":")
    if what == "seed":
        return ["transform", "--family", name,
                "--param", f"{key}={json.dumps(bad)}",
                "--chain", '[{"op": "laplace_fwd_uv"}]']
    if what == "phi":
        return ["transform", "--family", "zero_uq", "--chain",
                json.dumps([{"op": "dt1", "phi": {key: bad}}])]
    if what == "reduce":
        return ["reduce", "--id", name, "--param", f"{key}={json.dumps(bad)}"]
    return ["verify", "--family", "F_HOPFCOLE2D", "--param",
            "Phi=" + json.dumps({"kind": name, key: bad})]


@pytest.mark.parametrize("bad", ["@", True, math.nan], ids=["@", "true", "NaN"])
@pytest.mark.parametrize("where,key", _declared_inputs())
def test_every_declared_input_rejects_a_malformed_value(where, key, bad,
                                                        capsys):
    code, out, err = run_cli(_argv_with(where, key, bad), capsys)
    assert code == 2 and out == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and set(json.loads(err)) == {"error"}


_GRID_2 = json.dumps({"t": [0.5, 1.0, 2], "x": [0.3, 0.9, 2],
                      "y": [0.4, 1.0, 2]})


def test_theta_without_direction_is_backward(capsys):
    # every theta of a dt step solves the backward heat equation
    def dt1(theta):
        chain = json.dumps([{"op": "dt1", "phi": {
            "constraint": "u_y=q_y", "zeta": "y", "theta": theta}}])
        return run_cli(["transform", "--family", "seed_uyqy", "--chain",
                        chain, "--grid", _GRID_2], capsys)

    code, out, err = dt1({"kind": "plane_exp", "k": 1.0})
    assert code == 0, err
    assert json.loads(out)["passed"]
    assert dt1({"kind": "plane_exp", "k": 1.0,
                "direction": "backward"})[:2] == (code, out)


def test_number_zeta_is_a_constant(capsys):
    def dt1(zeta):
        chain = json.dumps([{"op": "dt1", "phi": {"zeta": zeta}}])
        return run_cli(["transform", "--family", "seed_qy0", "--chain",
                        chain, "--grid", _GRID_2], capsys)

    code, out, _ = dt1(5)
    assert code == 0 and json.loads(out)["passed"]
    assert dt1("5")[:2] == (code, out)


_REDUCE_GOLDEN = {
    "R2_4": ('{"id": "R2_4", "nodes": 60, "tol": 1e-10, '
             '"window": [-1.2, 1.2]}',
             '{"C0": 0.0, "C0_tilde": -2.0, "C1": 1.0, "eps": 1, '
             '"id": "R2_4", "method": "taylor-8", "tol": 1e-10}'),
    "R2_9": ('{"id": "R2_9", "nodes": 35, "tol": 1e-10, '
             '"window": [-2.4, -0.6]}',
             '{"C0": 0.0, "C1": 2.0, "C2": 0.0, "delta": 1.0, "id": "R2_9", '
             '"method": "taylor-8", "nu": 1.0, "tol": 1e-10}'),
}


@pytest.mark.parametrize("rid", sorted(_REDUCE_GOLDEN))
def test_reduce_defaults_golden(rid, tmp_path, capsys):
    path = tmp_path / "traj.csv"
    code, out, _ = run_cli(["reduce", "--id", rid, "--csv", str(path)],
                           capsys)
    stdout, sidecar = _REDUCE_GOLDEN[rid]
    assert code == 0
    assert out == stdout + "\n"
    assert (tmp_path / "traj.csv.json").read_text() == sidecar


_INV_FWD_F_VXXX_3 = [
    "transform", "--family", "F_VXXX_3", "--param", "alpha=sin(y)",
    "--param", "beta=2+cos(y)", "--param", "gamma=y", "--chain",
    json.dumps([{"op": "laplace_inv_uv"}, {"op": "laplace_fwd_uv"}]),
    "--base", "[1.0, 0.2, 0.5]"]


def test_inverse_then_forward_chain_skips_its_pole_points(capsys):
    # the inverse-then-forward (u,v) chain on F_VXXX_3 with gamma = y: two
    # points lie in the guard band of the inverse image's pole line and
    # are skipped, the other six solve the system; the undefined fraction
    # fails the report
    grid = json.dumps({"t": [0.9, 1.2, 2], "x": [0.5, 0.9, 2],
                       "y": [0.45, 0.7, 2]})
    code, out, err = run_cli(_INV_FWD_F_VXXX_3 + ["--grid", grid], capsys)
    assert code == 1 and err == ""
    report = json.loads(out)
    assert (report["evaluated"], report["skipped"]) == (6, 2)
    assert report["undefined_fraction"] == 0.25
    assert report["r1_max"] < 1e-12 and report["r2_max"] < 1e-12


def test_stalled_quadrature_is_a_json_error(capsys):
    # the same chain nearer the pole line: the forward image's path
    # integral stalls; a toolkit error exits 2 with a JSON error that
    # names the grid point where it was raised
    grid = json.dumps({"t": [1.2, 1.5, 2], "x": [0.8, 1.2, 2],
                       "y": [0.45, 0.9, 2]})
    code, out, err = run_cli(_INV_FWD_F_VXXX_3 + ["--grid", grid], capsys)
    assert code == 2 and out == ""
    assert "Traceback" not in err and len(err.splitlines()) == 1
    message = json.loads(err)["error"]
    assert "stalled" in message
    assert message.endswith("at grid point (t, x, y) = (1.2, 0.8, 0.45)")


#: boxes across an edge of a family's domain (a chart guard, the path of
#: an integral, a pole probe, a profile window): the arguments, the exit
#: code and the (skipped, evaluated) counts
_DOMAIN_EDGE_RUNS = {
    "F_VXXX_2": (["verify", "--family", "F_VXXX_2", "--param", "beta=y-2",
                  "--grid", '{"t": [0.1, 2.5, 4], "x": [-0.5, 1.5, 4], '
                  '"y": [0.0, 1.5, 4]}'], 0, (32, 32)),
    "F_UY0_QB": (["verify", "--family", "F_UY0_QB", "--grid",
                  '{"t": [0.2, 1.2, 3], "x": [-0.5, 0.5, 5], '
                  '"y": [0.1, 1.0, 3]}'], 0, (9, 36)),
    "F_R29_ELEM_1": (["verify", "--family", "F_R29_ELEM_1", "--grid",
                      '{"t": [0.1, 1.0, 3], "x": [-1.5, 1.5, 7], '
                      '"y": [-0.3, 0.6, 3]}'], 0, (12, 51)),
    "F_R24_PAINLEVE4": (["verify", "--family", "F_R24_PAINLEVE4", "--grid",
                         '{"t": [-0.2, 1.2, 4], "x": [-1.5, 1.5, 4], '
                         '"y": [-1.5, 1.5, 4]}'], 0, (26, 38)),
    "F_R29_PAINLEVE2": (["verify", "--family", "F_R29_PAINLEVE2", "--grid",
                         '{"t": [0.1, 1.0, 3], "x": [-2.0, 0.5, 5], '
                         '"y": [-1.0, 0.5, 4]}'], 0, (36, 24)),
    # a (u,q) chain reads q at each point before u, and q integrates w
    # from y0: a point where w itself is undefined is skipped, not a
    # gauge error of the path
    "F_VXXX_2~Lfwd": (["transform", "--family", "F_VXXX_2",
                       "--param", "beta=y-2", "--chain",
                       '[{"op": "laplace_fwd_uq"}]', "--grid",
                       '{"t": [0.1, 2.5, 5], "x": [0.5, 1.5, 3], '
                       '"y": [0.0, 0.3, 3]}'], 1, (18, 27)),
    "F_R29_ELLIPTIC~Lfwd": (["transform", "--family", "F_R29_ELLIPTIC",
                             "--chain", '[{"op": "laplace_fwd_uq"}]',
                             "--base", "[1.0, 0.3, 0.3]", "--grid",
                             '{"t": [0.1, 1.0, 2], "x": [-0.4, 0.4, 3], '
                             '"y": [0.0, 0.4, 3]}'], 1, (4, 14)),
    # the omega = x + y profile across its poles: only a point at a pole
    # is skipped, and a point beyond one is a solution there
    "F_R29_ELLIPTIC~poles": (["verify", "--family", "F_R29_ELLIPTIC",
                              "--grid", '{"t": [0.4, 0.6, 2], '
                              '"x": [-0.75, 0.3, 2], "y": [-0.75, 0.3, 2]}'],
                             0, (0, 8)),
    "F_R29_ELLIPTIC~beyond": (["verify", "--family", "F_R29_ELLIPTIC",
                               "--grid", '{"t": [0.4, 0.6, 2], '
                               '"x": [0.7, 0.82, 2], "y": [0.8, 0.9, 2]}'],
                              0, (0, 8)),
    "F_R29_ELLIPTIC~wide": (["verify", "--family", "F_R29_ELLIPTIC",
                             "--grid", '{"t": [0.1, 1.0, 3], '
                             '"x": [-2.0, 2.0, 9], "y": [-2.0, 2.0, 9]}'],
                            0, (27, 216)),
}


@pytest.mark.parametrize("case", sorted(_DOMAIN_EDGE_RUNS))
def test_domain_edges_are_skipped_points(case, capsys):
    # a point is skipped only by the error its own evaluation raises; no
    # run across an edge is a toolkit error
    args, want_code, counts = _DOMAIN_EDGE_RUNS[case]
    code, out, err = run_cli(args, capsys)
    assert (code, err) == (want_code, "")
    report = json.loads(out)
    assert (report["skipped"], report["evaluated"]) == counts


@pytest.mark.parametrize("fid,name", [
    (d.id, name) for d in catalog.list_families()
    for name, _, _ in d.params])
def test_every_parameter_rejects_a_malformed_value(fid, name, capsys):
    code, out, err = run_cli(["verify", "--family", fid,
                              "--param", f"{name}=@"], capsys)
    assert code == 2 and out == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and set(json.loads(err)) == {"error"}


def test_witness_spec_takes_the_direction_of_its_kind(capsys):
    # F_VX0 needs a backward witness; the spec names no direction
    code, out, _ = run_cli(["verify", "--family", "F_VX0", "--param",
                            'Phi={"kind": "plane_exp"}'], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] and report["params"] == {"Phi": "plane_exp(k=1.0)"}


def test_witness_valid_on_the_box_but_not_at_every_probe_point(capsys):
    # the probe skips the probe points t <= 0.5 of this gaussian
    code, out, err = run_cli(["verify", "--family", "F_HOPFCOLE2D", "--param",
                              'Phi={"kind": "gaussian", "t0": 0.5}'], capsys)
    assert code == 0 and json.loads(out)["passed"], err


@pytest.mark.parametrize("family, param, error", [
    ("F_VX0", 'Phi={"kind": "gaussian"}',
     "Phi: heat-equation probe residual nan"),
    ("F_UY0_QA", "zeta=1e400*y",
     "zeta: parse error at offset 0: non-finite number '1e400'"),
    ("F_UY0_QA", "zeta=y+\u00b2",
     "zeta: parse error at offset 2: unknown identifier '\u00b2'")])
def test_a_rejected_parameter_is_named(family, param, error, capsys):
    code, out, err = run_cli(["verify", "--family", family, "--param", param],
                             capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": error}


#: inputs whose arithmetic overflows in the one evaluator of a check over
#: points: (argv, exit code, the error, or the count of nonfinite points)
_OVERFLOWS = {
    "witness": (["verify", "--family", "F_HOPFCOLE2D", "--param",
                 'Phi={"kind": "plane_exp", "k": 1e200}'],
                2, "Phi: heat-equation probe residual nan"),
    "theta": (["transform", "--family", "seed_qy0", "--chain",
               '[{"op": "dt2", "phi": {"theta": {"kind": "plane_exp", '
               '"k": 1e300}}}]'],
              2, "theta: heat-equation probe residual nan"),
    "perturb": (["verify", "--family", "F_UY0_TRIV", "--perturb", "1e308"],
                1, 64),
    "alpha": (["verify", "--family", "F_UEQV", "--param",
               "alpha=exp(1000*y)"], 1, 32),
}


@pytest.mark.parametrize("args, code, want", _OVERFLOWS.values(),
                         ids=_OVERFLOWS)
def test_an_overflow_is_a_nonfinite_value(args, code, want, capsys):
    # never a RuntimeWarning, which this suite turns into an error
    got, out, err = run_cli(args, capsys)
    assert got == code, err
    if code == 2:
        assert out == "" and json.loads(err) == {"error": want}
    else:
        report = json.loads(out)
        assert (report["passed"], report["nonfinite"]) == (False, want)
        assert err == ""


@pytest.mark.parametrize("param, want", [
    ("C1=1e300", "C1 = 1e+300 with init = [-2.0, 0.5, 0.25] gives an "
                 "undefined psi seed"),
    ("C1=-1e300", "C1 = -1e+300 with init = [-2.0, 0.5, 0.25] gives an "
                  "undefined psi seed"),
    ("init=[-2, 1e200, 1e200]", "C1 = 2.0 with init = [-2, 1e+200, 1e+200] "
                                "gives an undefined psi seed")])
def test_an_undefined_psi_seed_is_a_bad_spec(param, want, capsys):
    # the second Painleve profile's psi seed is phi'^2 - inner^2 over 4 C1:
    # where both squares overflow it is inf - inf, and the input is
    # refused, never a traceback (one infinite square blows up at once,
    # test_reduce_pole_is_a_verdict)
    code, out, err = run_cli(["reduce", "--id", "R2_9", "--param", param],
                             capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": want}


def test_every_toolkit_error_is_a_blp_error():
    from blp import jets, liealg, quadrature, reductions, specfun, transforms
    errors = {
        jets.UndefinedHere: ArithmeticError, jets.DomainError: ArithmeticError,
        jets.BadInput: ValueError, catalog.BadBinding: ValueError,
        catalog.UnknownFamily: KeyError, catalog.WitnessViolation: ValueError,
        quadrature.QuadratureError: ArithmeticError,
        transforms.UndefinedTransform: ArithmeticError,
        transforms.InverseMapError: RuntimeError,
        reductions.PoleAbort: RuntimeError,
        reductions.WindowError: ValueError,
        reductions.ZeroCrossing: ArithmeticError,
        specfun.PoleError: ArithmeticError,
        specfun.NonFiniteError: ArithmeticError,
        specfun.NegativeRadicand: ValueError,
        specfun.DegenerateError: ValueError,
        specfun.NotDegenerate: ValueError,
        liealg.IllConditioned: ArithmeticError,
    }
    for cls, builtin in errors.items():
        assert issubclass(cls, jets.BLPError) and issubclass(cls, builtin), \
            cls


_F_VXXX_1 = ["--param", "alpha=sin(y)", "--param", "beta=2+cos(y)",
             "--param", "gamma=y", "--param", "delta=1"]
_PRECEDENCE = {
    # (command, input): the other arguments, the flag's text and a
    # config value that gives another output
    ("verify", "family"): (["--grid", _GRID_2], "F_UY0_TRIV", "F_VXXX_4"),
    ("verify", "grid"): (["--family", "F_UY0_TRIV"], _GRID_2,
                         {"t": [0.5, 1.0, 3], "x": [0.3, 0.9, 2],
                          "y": [0.4, 1.0, 2]}),
    ("verify", "tol"): (["--family", "F_UY0_TRIV", "--grid", _GRID_2],
                        "1e-8", 1e-3),
    ("verify", "perturb"): (["--family", "F_UY0_TRIV", "--grid", _GRID_2],
                            "0", 0.05),
    ("transform", "family"): (
        ["--chain", '[{"op": "laplace_fwd_uq"}]', "--grid", _GRID_2],
        "seed_qy0", "zero_uq"),
    ("transform", "grid"): (
        ["--family", "seed_qy0", "--chain", '[{"op": "laplace_fwd_uq"}]'],
        _GRID_2, {"t": [0.5, 1.0, 1], "x": [0.3, 0.9, 2],
                  "y": [0.4, 1.0, 2]}),
    ("transform", "tol"): (
        ["--family", "seed_qy0", "--chain", '[{"op": "laplace_inv_uq"}]',
         "--grid", _GRID_2], "1e-8", 1e-3),
    ("transform", "chain"): (["--family", "seed_qy0", "--grid", _GRID_2],
                             '[{"op": "laplace_inv_uq"}]',
                             [{"op": "laplace_fwd_uq"}]),
    # the FOUND case: a config's base overrode --base
    ("transform", "base"): (
        ["--family", "F_VXXX_1", *_F_VXXX_1,
         "--chain", '[{"op": "laplace_fwd_uv"}]',
         "--grid", json.dumps({"t": [0.9, 1.3, 2], "x": [0.4, 1.0, 2],
                               "y": [0.4, 0.9, 2]})],
        "[1.0, 0.3, 0.7]", [1.0, 0.0, 0.5]),
    ("reduce", "id"): ([], "R2_9", "R2_4"),
}


@pytest.mark.parametrize("command,name", sorted(_PRECEDENCE))
def test_a_flag_beats_the_config_value(command, name, tmp_path, capsys):
    args, flag, other = _PRECEDENCE[command, name]
    cfg, dump = tmp_path / "cfg.json", tmp_path / "dump.csv"
    cfg.write_text(json.dumps({name: other}))

    def run(*extra):
        dump.unlink(missing_ok=True)
        code, out, _ = run_cli([command, *args, "--csv", str(dump), *extra],
                               capsys)
        return code, out, dump.read_text() if dump.exists() else None

    flagged = run(f"--{name}={flag}")
    assert flagged[0] in (0, 1)
    assert run("--config", str(cfg), f"--{name}={flag}") == flagged
    assert run("--config", str(cfg)) != flagged


def test_every_declared_input_has_a_precedence_case():
    from blp import cli
    assert set(_PRECEDENCE) == {
        (command, name) for command, entries in cli._INPUTS.items()
        if command != "list" for name, _, _ in entries}


def _input_tables() -> dict:
    """Every table of (name, kind, default) entries, by its owner: the
    families, the witness kinds, the seeds, the phi object under each
    constraint, the commands and both reduce ids."""
    from blp import cli
    return {
        **{d.id: d.params for d in catalog.list_families()},
        **{f"witness {kind}": entries
           for kind, entries in catalog._WITNESS_PARAMS.items()},
        **{f"seed {seed}": entries for seed, entries in cli._SEEDS.items()},
        **{f"phi {c}": cli._phi_entries(c) for c in ("q_y=0", "u_y=q_y")},
        **{f"blp {command}": entries
           for command, entries in cli._INPUTS.items()},
        **{f"reduce {rid}": cli._reduce_entries(rid)
           for rid in cli._REDUCE_IDS},
    }


@pytest.mark.parametrize("owner", sorted(_input_tables()))
def test_every_default_resolves_under_its_kind(owner):
    from blp import cli
    entries = _input_tables()[owner]
    names = [name for name, _, _ in entries]
    assert len(set(names)) == len(names)
    given = [e for e in entries
             if e[2] is not None and e[2] is not cli.REQUIRED]
    resolved = catalog.resolve(owner, given, {})
    assert list(resolved) == [name for name, _, _ in given]


def test_every_flag_is_a_declared_input():
    import argparse

    from blp import cli
    (commands,) = [a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    other = {"--config", "--param", "--report", "--csv"}
    for command, parser in commands.choices.items():
        declared = {f"--{name}"
                    for name, _, _ in cli._INPUTS.get(command, ())}
        flags = {s for a in parser._actions for s in a.option_strings
                 if s.startswith("--") and s != "--help"}
        assert flags - declared - other \
            <= ({"--json"} if command == "list" else set()), command
        assert declared <= flags, command


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
_SMALL_GRID = st.builds(
    lambda nt, nx, ny: {"t": [0.5, 1.0, nt], "x": [0.3, 0.9, nx],
                        "y": [0.4, 1.0, ny]},
    *[st.integers(1, 2)] * 3)
_VALID = {
    "family": st.sampled_from(["F_UY0_TRIV", "F_VXXX_4", "zero_uq",
                               "seed_qy0", "seed_uyqy"]),
    "grid": _SMALL_GRID,
    "tol": st.sampled_from([1e-6, 1e-8, 1]),
    "perturb": st.sampled_from([0.0, 0.05]),
    "chain": st.sampled_from(
        [[{"op": op}] for op in ("laplace_fwd_uv", "laplace_inv_uv",
                                 "laplace_fwd_uq", "laplace_inv_uq")]
        + [[{"op": "dt1", "phi": {}}], [{"op": "dt2", "phi": {}}],
           [{"op": "dt1", "phi": {"constraint": "u_y=q_y", "zeta": "y"}}]]),
    "base": st.sampled_from([[1.0, 0.0, 0.0], [1.0, 0.0, 0.5]]),
    "id": st.sampled_from(["R2_4", "R2_9"]),
    "constraint": st.sampled_from(sorted(
        {d.constraint_tag for d in catalog.list_families()})),
}


@st.composite
def _cli_call(draw):
    """A command and its inputs, each valid or arbitrary JSON, each in a
    flag, in the config file or left out; a transform always has a grid,
    of at most 2 points per axis where it is valid."""
    from blp import cli
    command = draw(st.sampled_from(["verify", "transform", "reduce",
                                    "list"]))
    flags, cfg = [], {}
    for name, _, _ in cli._INPUTS[command]:
        # mostly valid, so that some examples get past their inputs
        value = draw(_VALID[name] if draw(st.integers(0, 7)) else _JSON)
        where = draw(st.sampled_from(
            ["flag"] if command == "list" else
            ["flag", "config"] if (command, name) == ("transform", "grid")
            else ["flag", "config", "omit"]))
        if where == "flag":
            text = value if isinstance(value, str) else json.dumps(value)
            flags.append(f"--{name}={text}")
        elif where == "config":
            cfg[name] = value
    return command, flags, cfg


@settings(max_examples=80, deadline=None)
@given(call=_cli_call())
def test_exit_code_contract(call, tmp_path_factory):
    command, flags, cfg = call
    argv = [command, *flags]
    if command == "list":
        argv.append("--json")
    elif cfg:
        path = tmp_path_factory.mktemp("cfg") / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv += ["--config", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        assert len(err.splitlines()) == 1 and "error" in json.loads(err)
    else:
        assert len(out.splitlines()) == 1
        json.loads(out)


# ----------------------------------------------------------------------
# one Laplace step of each kind on every family, through the command
# line: a 2^3 grid of the family's default box at the default base
# ----------------------------------------------------------------------

#: family -> outcome of (laplace_fwd_uv, laplace_fwd_uq): (exit code,
#: skipped, evaluated), or (2, the grid point that the error names)
_LAPLACE_OUTCOMES = {
    "F_HOPFCOLE2D": ((1, 8, 0), (1, 8, 0)),
    "F_LAPLACE_IMG_FWD1": ((0, 0, 8), (1, 0, 8)),
    "F_LAPLACE_IMG_FWD4": ((2, (1.4, 1.3, 0.2)), (1, 8, 0)),
    "F_LAPLACE_IMG_INV3": ((0, 0, 8), (1, 0, 8)),
    "F_LAPLACE_IMG_INV3X": ((1, 8, 0), (1, 8, 0)),
    "F_LAPLACE_IMG_INV5": ((0, 0, 8), (1, 0, 8)),
    "F_R22_ELEM_1": ((1, 8, 0), (1, 8, 0)),
    "F_R22_ELEM_2": ((1, 8, 0), (1, 8, 0)),
    "F_R22_ELEM_3": ((1, 8, 0), (1, 8, 0)),
    "F_R24_PAINLEVE4": ((0, 0, 8), (1, 0, 8)),
    "F_R29_ELEM_1": ((1, 4, 4), (1, 0, 8)),
    "F_R29_ELEM_2": ((0, 0, 8), (1, 0, 8)),
    "F_R29_ELEM_3": ((0, 0, 8), (1, 0, 8)),
    "F_R29_ELLIPTIC": ((2, (0.1, 0.55, 0.6)), (2, (0.1, 0.55, 0.6))),
    "F_R29_PAINLEVE2": ((1, 8, 0), (0, 0, 8)),
    "F_SINHGORDON": ((0, 0, 8), (1, 0, 8)),
    "F_STATLIOUVILLE": ((0, 0, 8), (0, 0, 8)),
    "F_UEQV": ((0, 0, 8), (1, 0, 8)),
    "F_UXXV4X_A": ((0, 0, 8), (0, 0, 8)),
    "F_UXXV4X_B": ((0, 0, 8), (1, 0, 8)),
    "F_UXX_BERNOULLI": ((0, 0, 8), (1, 8, 0)),
    "F_UY0_QA": ((0, 0, 8), (0, 0, 8)),
    "F_UY0_QB": ((1, 8, 0), (1, 0, 8)),
    "F_UY0_TRIV": ((0, 0, 8), (0, 0, 8)),
    "F_VX0": ((1, 8, 0), (1, 8, 0)),
    "F_VXXX_1": ((0, 0, 8), (0, 0, 8)),
    "F_VXXX_2": ((1, 8, 0), (1, 0, 8)),
    "F_VXXX_3": ((0, 0, 8), (0, 0, 8)),
    "F_VXXX_4": ((0, 0, 8), (0, 0, 8)),
    "F_VXXX_5": ((0, 0, 8), (0, 0, 8)),
}


def test_laplace_outcomes_cover_every_family():
    assert set(_LAPLACE_OUTCOMES) == \
        {d.id for d in catalog.list_families()}


def _laplace_step(family, op, capsys):
    """Exit code, stdout and stderr of one Laplace step on a 2^3 grid of
    the family's default box."""
    grid = {ax: [lo, hi, 2]
            for ax, (lo, hi) in zip("txy", catalog.default_box(family))}
    return run_cli(["transform", "--family", family,
                    "--chain", json.dumps([{"op": op}]),
                    "--grid", json.dumps(grid)], capsys)


@pytest.mark.parametrize("op", ["laplace_fwd_uv", "laplace_fwd_uq"])
@pytest.mark.parametrize("family", sorted(_LAPLACE_OUTCOMES))
def test_laplace_step_outcome(family, op, capsys):
    want = _LAPLACE_OUTCOMES[family][op == "laplace_fwd_uq"]
    code, out, err = _laplace_step(family, op, capsys)
    assert code == want[0]
    if code == 2:
        t, x, y = want[1]
        assert json.loads(err)["error"].endswith(
            f" at grid point (t, x, y) = ({t!r}, {x!r}, {y!r})")
    else:
        rep = json.loads(out)
        assert (rep["skipped"], rep["evaluated"]) == want[1:]


def test_laplace_step_answers_its_x_lines_from_kept_integrals(
        monkeypatch, capsys):
    # F_SINHGORDON's v is a line integral along x, constant along t; the
    # nested quadratures of its (u,q) Laplace step ask it on the same
    # x-lines again and again.  On a 2^3 grid of its box the x-axis
    # integrals run 124 lanes, as many as when each line took a call of
    # its own, in 4 calls: one per batch that brings lines not yet kept
    # (9 when a lane's quadrature asked its integrand once per panel, so
    # that a nested integrand's batches were smaller and more)
    lanes = []
    integrate = quadrature.integrate_field_along

    def counted(field, axis, lower, p, order):
        if axis == "x":
            lanes.append(jets.lanes(p) or 1)
        return integrate(field, axis, lower, p, order)

    monkeypatch.setattr(quadrature, "integrate_field_along", counted)
    code, out, _ = _laplace_step("F_SINHGORDON", "laplace_fwd_uq", capsys)
    assert code == 1 and json.loads(out)["skipped"] == 0
    assert (sum(lanes), len(lanes)) == (124, 4)


@pytest.mark.parametrize("family",
                         ["F_R22_ELEM_1", "F_R22_ELEM_2", "F_R22_ELEM_3"])
def test_laplace_steps_agree_across_a_chart_edge(family, capsys):
    # the chart excludes the coordinate axes, and the paths from the base
    # (1, 0, 0) start on one: the (u,v) step's P path and the (u,q)
    # step's conversion path; either way the point is skipped
    def outcome(op):
        code, out, err = _laplace_step(family, op, capsys)
        assert code != 2, err
        rep = json.loads(out)
        return code, rep["skipped"], rep["evaluated"]
    assert outcome("laplace_fwd_uq") == outcome("laplace_fwd_uv")
