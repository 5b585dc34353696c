import json
import math
import subprocess
import sys

import pytest

from blp import catalog, system
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
    assert info["id"] == "R2_4" and info["nodes"] > 50
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
    def u(p, n):
        return Jet3.constant(math.nan if p == bad else 0.0, p, n)

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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_parameter_is_strict_json(capsys):
    code, out, err = run_cli(["verify", "--family", "F_R29_ELEM_2",
                              "--param", "kappa=Infinity"], capsys)
    assert code == 2 and out == ""
    assert set(json.loads(err, parse_constant=reject_constant)) == {"error"}


def test_finite_report_has_no_nonfinite_key(capsys):
    code, out, _ = run_cli(["verify", "--family", "F_UY0_TRIV"], capsys)
    assert code == 0 and "nonfinite" not in json.loads(out)


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
}


@pytest.mark.parametrize("args", _MALFORMED.values(), ids=_MALFORMED)
def test_malformed_input_is_config_error(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert "Traceback" not in err
    assert set(json.loads(err)) == {"error"}


def test_stalled_quadrature_is_a_json_error(capsys):
    # the inverse-then-forward (u,v) chain on F_VXXX_3 with gamma = y: the
    # forward image's path integral stalls near the pole line of the
    # inverse image; a toolkit error exits 2 with a JSON error
    chain = json.dumps([{"op": "laplace_inv_uv"}, {"op": "laplace_fwd_uv"}])
    grid = json.dumps({"t": [0.9, 1.2, 2], "x": [0.5, 0.9, 2],
                       "y": [0.45, 0.7, 2]})
    code, out, err = run_cli(
        ["transform", "--family", "F_VXXX_3", "--param", "alpha=sin(y)",
         "--param", "beta=2+cos(y)", "--param", "gamma=y",
         "--chain", chain, "--grid", grid, "--base", "[1.0, 0.2, 0.5]"],
        capsys)
    assert code == 2 and out == ""
    assert "Traceback" not in err
    assert "stalled" in json.loads(err)["error"]


def test_every_toolkit_error_is_a_blp_error():
    from blp import jets, liealg, quadrature, reductions, specfun, transforms
    errors = {
        jets.UndefinedHere: ArithmeticError, jets.DomainError: ArithmeticError,
        jets.BadInput: ValueError, catalog.BadBinding: ValueError,
        catalog.UnknownFamily: KeyError, catalog.WitnessViolation: ValueError,
        quadrature.QuadratureError: ArithmeticError,
        system.GaugeError: RuntimeError,
        transforms.UndefinedTransform: ArithmeticError,
        transforms.SingularWronskian: ArithmeticError,
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
