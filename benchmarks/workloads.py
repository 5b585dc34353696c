"""Seeded request generators and the per-request correctness gate.

A request builds one field (or one batch of Lie-algebra certificates)
and verifies it on a grid through the highest-level public entry point
that exists for it:

* UV fields built here: ``system.residual_report``;
* chains that ``blp transform`` can express: ``blp.cli.main``, run in
  process, with its JSON report parsed;
* (u,q) fields that the CLI cannot build (n-fold Darboux dressings and
  Laplace chains over the multi-mode witnesses owned by this file): a
  per-point ``system.residual_uq`` loop, because no grid API exists for
  them.

Every blp call goes through a module attribute (``catalog.instantiate``,
never a name imported from it), so the outside-in tracer in
``tracer.py`` sees each call.

A workload is a list of passes.  Pass ``k`` of seed ``s`` has the same
composition for every seed -- the same request kinds, the same number of
each -- and draws its bindings, witnesses and orderings from
``numpy.random.default_rng([s, k])``.  The program sees only the
generated inputs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from blp import catalog, cli, exprdsl, jets, liealg, reductions, specfun, \
    system, transforms

WORKLOADS = ("catalog_sweep", "transform_chains", "profiles_symmetry")

#: exceptions that mean "point (or request) not evaluated", not "failed"
SKIP_EXCEPTIONS = (jets.DomainError, transforms.UndefinedTransform,
                   reductions.WindowError)

#: families whose closed forms contain a quadrature; the repository's
#: acceptance gate pins 1e-6 for these and 1e-8 for the rest.  Kept here
#: because the benchmark may not import from the test suite.
QUADRATURE_FAMILIES = frozenset({
    "F_VXXX_2", "F_SINHGORDON", "F_R29_ELLIPTIC", "F_UXX_BERNOULLI",
    "F_R24_PAINLEVE4", "F_R29_PAINLEVE2"})
CLOSED_FORM_BOUND = 1e-8
QUADRATURE_BOUND = 1e-6
#: group-action images: the acceptance gate (criterion 2) pins 1e-7
SYMMETRY_BOUND = 1e-7
#: Lie-algebra certificates use the library's own 1e-9 tolerance
CERTIFICATE_TOL = 1e-9


# ----------------------------------------------------------------------
# requests and outcomes
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Request:
    kind: str      # catalog | laplace_uv | laplace_uq | dt_single | dt_nfold
                   # | uv_to_uq | profile | symmetry | liealg
    label: str     # finer class used for per-chain / per-family costs
    spec: dict     # JSON-serializable description; fixes the inputs
    #: a documented defect makes this request fail today; any other
    #: failure makes the run incorrect
    known_failing: bool = False


@dataclass(frozen=True)
class Outcome:
    label: str
    attempted: int          # grid points (certificates, for liealg)
    evaluated: int          # points not skipped
    failed: bool
    reason: str             # "" when passed
    residual: float         # max |r| over evaluated points (nan if none)
    dishonest: bool = False  # the toolkit reported a pass the gate rejects

    def key(self) -> tuple:
        return (self.label, self.attempted, self.evaluated, self.failed,
                self.reason, repr(self.residual), self.dishonest)


def digest(requests) -> str:
    text = json.dumps([[r.kind, r.label, r.spec] for r in requests],
                      sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def mix(requests) -> dict:
    out: dict = {}
    for r in requests:
        out[r.label] = out.get(r.label, 0) + 1
    return dict(sorted(out.items()))


#: passes per cycle; a timed run is a whole number of cycles.  Within a
#: cycle every entry of a "cycled" pool is used equally often: the
#: F_R29_ELLIPTIC pool entries differ 25- to 500-fold in cost (two of the
#: four take the _Antiderivative tolerance-loosening path), and the two
#: sources of each depth-2 Laplace (u,v) chain differ up to 2-fold, so
#: drawing them independently per pass would make throughput and the
#: latency percentiles depend on the seed.
CYCLE = {"catalog_sweep": 4, "transform_chains": 2, "profiles_symmetry": 4}
#: cycles in a timed run at the default ``--seconds``; one cycle takes
#: about 25 s, 20 s and 18 s on a 2-core host.  ``transform_chains`` runs
#: two so that a run has at least 100 requests.
RUN_CYCLES = {"catalog_sweep": 1, "transform_chains": 2,
              "profiles_symmetry": 1}


def make_pass(workload: str, seed: int, index: int) -> list[Request]:
    rng = np.random.default_rng([seed, index])
    # position of this pass's entry in a seeded ordering of a cycled pool
    slot = np.random.default_rng([seed]).permutation(4)[index % 4]
    if workload == "catalog_sweep":
        return _catalog_pass(rng, slot)
    if workload == "transform_chains":
        return _transform_pass(rng, (seed + index) % 2)
    if workload == "profiles_symmetry":
        return _profiles_pass(rng, slot)
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------

def _axis(lo, hi, n):
    return [float(v) for v in np.linspace(lo, hi, n)]


def _grid_points(box, shape):
    (t0, t1), (x0, x1), (y0, y1) = box
    nt, nx, ny = shape
    return [jets.Point(t, x, y) for t in _axis(t0, t1, nt)
            for x in _axis(x0, x1, nx) for y in _axis(y0, y1, ny)]


def _cli_grid(box, shape):
    return {ax: [float(lo), float(hi), int(n)]
            for ax, (lo, hi), n in zip("txy", box, shape)}


def _finite(*vals) -> bool:
    return all(math.isfinite(v) for v in vals)


def _judge(label, attempted, evaluated, stats, bound, dishonest=False):
    """Gate one request from its residual statistics (max and rms)."""
    r_max = max(stats[0], stats[1]) if evaluated else float("nan")
    if not _finite(*stats):
        return Outcome(label, attempted, evaluated, True, "nonfinite",
                       r_max, dishonest)
    if evaluated and r_max > bound:
        return Outcome(label, attempted, evaluated, True, "residual_bound",
                       r_max, dishonest)
    return Outcome(label, attempted, evaluated, False, "", r_max, dishonest)


def _max_rms(values):
    if not values:
        return 0.0, 0.0
    arr = np.abs(np.asarray(values, dtype=float))
    # np.max propagates NaN, unlike Python's max
    return float(np.max(arr)), float(np.sqrt(np.mean(arr * arr)))


def _verify_report(label, field, points, bound) -> Outcome:
    """Grid check of a (u,v) field through ``system.residual_report``."""
    rep = system.residual_report(field, points)
    evaluated = len(points) - rep.skipped
    stats = (rep.r1_max, rep.r2_max, rep.r1_rms, rep.r2_rms)
    return _judge(label, len(points), evaluated, stats, bound)


def _verify_uq_points(label, field, points, bound) -> Outcome:
    """Per-point ``system.residual_uq`` loop for fields with no grid API."""
    r1s, r2s = [], []
    for p in points:
        if not field.validity(p):
            continue
        try:
            r1, r2 = system.residual_uq(field, p)
        except SKIP_EXCEPTIONS:
            continue
        r1s.append(r1)
        r2s.append(r2)
    m1, q1 = _max_rms(r1s)
    m2, q2 = _max_rms(r2s)
    return _judge(label, len(points), len(r1s), (m1, m2, q1, q2), bound)


def _run_cli(label, argv, attempted, bound) -> Outcome:
    """Run ``blp`` in process and gate its JSON report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code == cli.EXIT_CONFIG:
        raise RuntimeError(f"blp rejected the configuration: "
                           f"{err.getvalue().strip()}")
    rep = json.loads(out.getvalue())
    stats = tuple(float(rep[k])
                  for k in ("r1_max", "r2_max", "r1_rms", "r2_rms"))
    outcome = _judge(label, attempted, int(rep["evaluated"]), stats, bound)
    if rep["passed"] and outcome.failed:
        outcome = dataclasses.replace(outcome, dishonest=True)
    return outcome


def run_request(req: Request, ctx: "Context") -> Outcome:
    """Build and verify one request, and gate the result.

    A skip-set exception escaping the request leaves all its points
    unevaluated; any other exception fails it, recorded by type name.
    """
    try:
        return _EXECUTORS[req.kind](req, ctx)
    except SKIP_EXCEPTIONS:
        return Outcome(req.label, _attempted(req), 0, False, "",
                       float("nan"))
    except Exception as exc:
        return Outcome(req.label, _attempted(req), 0, True,
                       type(exc).__name__, float("nan"))


def _attempted(req: Request) -> int:
    shape = req.spec.get("shape")
    if shape:
        return int(np.prod(shape))
    return int(req.spec.get("certificates", 1))


class Context:
    """Bundled data loaded once per process (part of set-up time)."""

    def __init__(self):
        self.subalgebras = liealg.load_subalgebra_library()
        self.normalizers = liealg.load_normalizer_table()
        self.normalizer_labels = sorted(self.normalizers)


# ----------------------------------------------------------------------
# catalog_sweep: every family once per pass, in seeded order
# ----------------------------------------------------------------------

CATALOG_SHAPE = (5, 5, 5)


#: families whose bindings differ much in cost: each pass takes one of
#: four fixed binding seeds and a cycle uses each once, in seeded order.
#: F_R29_ELLIPTIC has a pool of four bindings (two of them take the slow
#: path); F_LAPLACE_IMG_INV3 has many, which span 1.7-fold in cost right
#: where the 90th latency percentile falls, so four stand for them.
CYCLED_FAMILIES = ("F_R29_ELLIPTIC", "F_LAPLACE_IMG_INV3")


def _bindings_key(fid, bindings_seed) -> str:
    bindings = catalog.sample_bindings(
        fid, np.random.default_rng(bindings_seed))
    return json.dumps(bindings, sort_keys=True, default=str)


@functools.lru_cache(maxsize=None)
def _pool_seeds(fid) -> tuple[int, ...]:
    """The first seed of each of the first four distinct bindings that
    seeds 0, 1, 2, ... draw, ordered by the bindings."""
    first: dict = {}
    seed = 0
    while len(first) < 4:
        first.setdefault(_bindings_key(fid, seed), seed)
        seed += 1
    return tuple(first[key] for key in sorted(first))


def _catalog_pass(rng, slot) -> list[Request]:
    ids = [d.id for d in catalog.list_families()]
    out = []
    for i in rng.permutation(len(ids)):
        bseed = _pool_seeds(ids[i])[slot] if ids[i] in CYCLED_FAMILIES \
            else int(rng.integers(0, 2 ** 31))
        out.append(Request("catalog", ids[i], {
            "family": ids[i], "bindings_seed": bseed,
            "shape": list(CATALOG_SHAPE)}))
    return out


def _exec_catalog(req, ctx):
    fid = req.spec["family"]
    bindings = catalog.sample_bindings(
        fid, np.random.default_rng(req.spec["bindings_seed"]))
    field = catalog.instantiate(fid, bindings)
    points = _grid_points(catalog.default_box(fid), req.spec["shape"])
    bound = QUADRATURE_BOUND if fid in QUADRATURE_FAMILIES \
        else CLOSED_FORM_BOUND
    return _verify_report(req.label, field, points, bound)


# ----------------------------------------------------------------------
# transform_chains
# ----------------------------------------------------------------------

class ModeWitness:
    """Heat witness Phi = sum_j c_j(y) exp(k_j x + s k_j^2 t) + a y + b.

    ``s = +1`` solves the forward heat equation, ``s = -1`` the backward
    one; y-dependent coefficients keep x and y entangled, so the (u,q)
    Laplace maps stay defined for as many steps as there are modes.
    Calls to :meth:`Phi` are the Phi-map calls the trace counts.
    """

    def __init__(self, ks, coeffs, sign, linear=(0.0, 0.0)):
        self.ks = tuple(ks)
        self.coeffs = tuple(tuple(c) for c in coeffs)
        self.sign = float(sign)
        self.linear = tuple(linear)

    def Phi(self, p, n):
        t, x, y = jets.coordinate_jets(p, n)
        acc = self.linear[0] * y + self.linear[1]
        for k, cs in zip(self.ks, self.coeffs):
            c = cs[0] + 0.0 * y
            for power, cp in enumerate(cs[1:], start=1):
                if cp:
                    c = c + cp * y ** power
            acc = acc + c * jets.exp(k * x + self.sign * k * k * t)
        return acc


_C_POLY = ([1.0], [1.0, 0.0, 1.0], [0.0, 1.0], [0.5, 0.0, 0.0, 0.3])
#: (k_j, box) pairs on which forward chains of depth 3 stay within the
#: closed-form bound; many other choices come close to q_y = 0 in an
#: intermediate field, outside the guard band (see _KNOWN_FAILING)
_FWD_POOL = [((-0.5, 0.5, 1.0, 1.5), ((0.1, 0.4), (-0.2, 0.2), (0.5, 1.0))),
             ((-1.0, -0.3, 0.4, 1.0), ((0.1, 0.4), (-0.2, 0.2), (0.5, 1.0)))]
_INV_POOL = [((-0.5, 0.5, 1.0, 1.5), ((0.6, 1.3), (0.2, 0.8), (0.4, 0.9))),
             ((0.3, 0.7, 1.1, 1.5), ((0.6, 1.3), (0.2, 0.8), (0.4, 0.9))),
             ((0.5, 1.0, 1.5, 2.0), ((0.6, 1.3), (0.2, 0.8), (0.4, 0.9)))]

_Y_POOL = ["sin(y)", "cos(y)", "0.3*y", "0.5+0.1*y"]

# Laplace (u,v) sources and the path base points the test suite uses
_UV_FWD = [
    ("F_VXXX_1", lambda r: {"alpha": _pick(r, _Y_POOL),
                            "beta": "2+" + _pick(r, ["cos(y)", "sin(y)"]),
                            "gamma": "y", "delta": 1},
     [1.0, 0.0, 0.5], ((0.9, 1.3), (0.4, 1.0), (0.4, 0.9))),
    ("F_VXXX_4", lambda r: {"alpha": "1+0.3*" + _pick(r, ["sin(y)",
                                                           "cos(y)"]),
                            "gamma": _pick(r, ["y/2", "y"])},
     [1.0, 0.0, 0.5], ((0.9, 1.2), (0.4, 0.9), (0.45, 0.8))),
]
_UV_INV = [
    ("F_VXXX_3", lambda r: {"alpha": _pick(r, ["sin(y)", "cos(y)"]),
                            "beta": "2+cos(y)",
                            "gamma": "1+0.2*" + _pick(r, ["y", "sin(y)"])},
     [1.0, 0.2, 0.5], ((0.9, 1.2), (0.5, 0.9), (0.45, 0.7))),
    ("F_VXXX_5", lambda r: {"alpha": _pick(r, ["sin(y)", "cos(y)"]),
                            "beta": "4+" + _pick(r, ["cos(y)", "sin(y)"])},
     [1.0, 0.2, 0.5], ((0.9, 1.2), (0.5, 0.9), (0.45, 0.7))),
]
# UV -> UQ conversions (source, bindings, known failing): F_UEQV fails
# the (u,q) equations today (gauge q(t,x,y0) = 0, see ROADMAP item 2);
# the F_VXXX_4/5 sources pass
_UV_TO_UQ = [
    ("F_UEQV", lambda r: {"alpha": "4+" + _pick(r, ["sin(y)", "cos(y)",
                                                    "0.3*y"])}, True),
    ("F_VXXX_4", lambda r: {"alpha": _pick(r, ["sin(y)", "cos(y)"]),
                            "gamma": "y"}, False),
    ("F_VXXX_5", lambda r: {"alpha": _pick(r, ["sin(y)", "cos(y)"]),
                            "beta": "3+cos(y)"}, False),
]
#: fixed inputs on which a transform's output fails its equations today
#: although no guard fired; in every pass, so the defects stay visible
_KNOWN_FAILING = [
    # r1 = 43 near the pole line of the inverse image
    Request("laplace_uv", "laplace_uv_d1", {
        "family": "F_VXXX_3",
        "params": {"alpha": "sin(y)", "beta": "2+cos(y)", "gamma": "y"},
        "base": [1.0, 0.2, 0.5], "chain": ["laplace_inv_uv"],
        "box": ((0.9, 1.3), (0.4, 1.0), (0.4, 0.9)), "shape": [2, 2, 2]},
        known_failing=True),
    # r1 ~ 1e-3: an intermediate field comes close to q_y = 0
    Request("laplace_uq", "laplace_uq_d3", {
        "direction": "fwd", "depth": 3, "ks": [0.0, 0.5, 1.0, 1.5],
        "coeffs": [list(c) for c in _C_POLY],
        "box": ((0.2, 0.6), (-0.3, 0.3), (0.3, 0.8)), "shape": [2, 2, 2]},
        known_failing=True),
]
# single Darboux dressings that `blp transform` expresses:
# (seed family, seed Phi spec or None, eigenfunction spec)
_DT_SINGLE = [
    ("zero_uq", None,
     {"constraint": "q_y=0", "zeta": "1",
      "theta": {"kind": "heat_polynomial", "n": 1,
                "direction": "backward"},
      "witness": {"kind": "plane_exp", "k": 0.0, "direction": "backward"}}),
    ("seed_uyqy", {"kind": "plane_exp", "k": 1.0},
     {"constraint": "u_y=q_y", "zeta": "y",
      "theta": {"kind": "plane_exp", "k": 1.0, "direction": "backward"},
      "witness": {"kind": "plane_exp", "k": 1.0}}),
    ("seed_uyqy", {"kind": "heat_polynomial", "n": 2},
     {"constraint": "u_y=q_y", "zeta": "1+0.2*y^2",
      "theta": {"kind": "separable_trig", "k": 1.0,
                "direction": "backward"},
      "witness": {"kind": "heat_polynomial", "n": 2}}),
]
_DT1_ONLY = [
    ("seed_qy0", None,
     {"constraint": "q_y=0", "zeta": "1+0.3*y",
      "witness": {"kind": "plane_exp", "k": 1.0}}),
]
_DT_BOX = ((0.5, 1.0), (0.3, 0.9), (0.4, 1.0))

# n-fold Darboux: the rich seed of the test suite and backward-heat
# thetas exp(k x - k^2 t) with distinct k
_RICH_SEED = dict(ks=(1.0,), coeffs=([1.0],), sign=1.0, linear=(0.3, 0.1))
_THETA_KS = (1.0, 2.0, 1.5)
_ZETAS = ("1+0.2*y^2", "y", "2+sin(y)")
_NFOLD_BOX = ((0.6, 1.3), (0.2, 0.8), (0.4, 0.9))

# grid shape (n_t, n_x, n_y) per request class
TRANSFORM_SHAPES = {
    "laplace_uv_d1": (2, 2, 2), "laplace_uv_d2": (2, 1, 1),
    "laplace_uq": (2, 2, 2), "dt_single": (2, 2, 2),
    "dt_nfold": (2, 1, 1), "uv_to_uq": (2, 2, 1),
}


def _pick(rng, pool):
    return pool[int(rng.integers(0, len(pool)))]


def _transform_pass(rng, slot) -> list[Request]:
    out = []
    sh = TRANSFORM_SHAPES
    # Every pool entry whose cost differs from its neighbours' appears in
    # every pass (in every cycle, for the depth-2 chains); the seed picks
    # bindings, modes and order.
    # Laplace (u,v): each source once at depth 1; one forward-inverse and
    # one inverse-forward chain at depth 2, from opposite ends of the two
    # source lists, so a cycle of two passes uses every source once
    for fid, bind, base, box in _UV_FWD:
        out.append(_uv_req(rng, "laplace_uv_d1", fid, bind, base, box,
                           ["laplace_fwd_uv"], sh["laplace_uv_d1"]))
    for fid, bind, base, box in _UV_INV:
        out.append(_uv_req(rng, "laplace_uv_d1", fid, bind, base, box,
                           ["laplace_inv_uv"], sh["laplace_uv_d1"]))
    for sources, chain, pick in (
            (_UV_FWD, ["laplace_fwd_uv", "laplace_inv_uv"], slot),
            (_UV_INV, ["laplace_inv_uv", "laplace_fwd_uv"], 1 - slot)):
        fid, bind, base, box = sources[pick]
        out.append(_uv_req(rng, "laplace_uv_d2", fid, bind, base, box,
                           chain, sh["laplace_uv_d2"]))
    # Laplace (u,q) over multi-mode witnesses, depth 1..3, both directions
    for depth in (1, 2, 3):
        for direction, pool in (("fwd", _FWD_POOL), ("inv", _INV_POOL)):
            ks, box = pool[int(rng.integers(0, len(pool)))]
            coeffs = [list(c) for c in _C_POLY]
            out.append(Request("laplace_uq", f"laplace_uq_d{depth}", {
                "direction": direction, "depth": depth, "ks": list(ks),
                "coeffs": coeffs, "box": box,
                "shape": list(sh["laplace_uq"])}))
    # single dressings through the CLI, every configuration of the pool
    for op in ("dt1", "dt2"):
        for seed_name, seed_phi, phi in \
                _DT_SINGLE + (_DT1_ONLY if op == "dt1" else []):
            out.append(Request("dt_single", f"{op}_single", {
                "op": op, "seed": seed_name, "seed_phi": seed_phi,
                "phi": phi, "box": _DT_BOX,
                "shape": list(sh["dt_single"])}))
    # n-fold Wronskian dressings, n = 1..3
    for kind in ("DT1", "DT2"):
        for n_fold in (1, 2, 3):
            ks = [float(k) for k in rng.permutation(_THETA_KS)[:n_fold]]
            zetas = list(_ZETAS[:n_fold])
            out.append(Request("dt_nfold", f"{kind.lower()}_n{n_fold}", {
                "kind": kind, "theta_ks": ks, "zetas": zetas,
                "box": _NFOLD_BOX, "shape": list(sh["dt_nfold"])}))
    # UV -> UQ conversions, the known-failing source included
    for fid, bind, known_failing in _UV_TO_UQ:
        out.append(_uv_to_uq_req(rng, fid, bind, known_failing))
    out.extend(_KNOWN_FAILING)
    return [out[i] for i in rng.permutation(len(out))]


def _uv_req(rng, label, fid, bind, base, box, chain, shape):
    return Request("laplace_uv", label, {
        "family": fid, "params": bind(rng), "base": base,
        "chain": chain, "box": box, "shape": list(shape)})


def _uv_to_uq_req(rng, fid, bind, known_failing):
    return Request("uv_to_uq", "uv_to_uq", {
        "family": fid, "params": bind(rng), "base": [1.0, 0.0, 0.0],
        "box": catalog.default_box(fid),
        "shape": list(TRANSFORM_SHAPES["uv_to_uq"])}, known_failing)


def _params_argv(params: dict) -> list[str]:
    argv = []
    for k, v in params.items():
        argv += ["--param", f"{k}={v if isinstance(v, str) else json.dumps(v)}"]
    return argv


def _exec_laplace_uv(req, ctx):
    s = req.spec
    argv = (["transform", "--family", s["family"]] + _params_argv(s["params"])
            + ["--chain", json.dumps([{"op": op} for op in s["chain"]]),
               "--grid", json.dumps(_cli_grid(s["box"], s["shape"])),
               "--base", json.dumps(s["base"]),
               "--tol", repr(QUADRATURE_BOUND)])
    return _run_cli(req.label, argv, int(np.prod(s["shape"])),
                    QUADRATURE_BOUND)


def _exec_uv_to_uq(req, ctx):
    s = req.spec
    argv = (["transform", "--family", s["family"]] + _params_argv(s["params"])
            + ["--chain", json.dumps([{"op": "laplace_fwd_uq"}]),
               "--grid", json.dumps(_cli_grid(s["box"], s["shape"])),
               "--base", json.dumps(s["base"]),
               "--tol", repr(QUADRATURE_BOUND)])
    return _run_cli(req.label, argv, int(np.prod(s["shape"])),
                    QUADRATURE_BOUND)


def _exec_dt_single(req, ctx):
    s = req.spec
    argv = ["transform", "--family", s["seed"]]
    if s["seed_phi"] is not None:
        argv += ["--param", "Phi=" + json.dumps(s["seed_phi"])]
    argv += ["--chain", json.dumps([{"op": s["op"], "phi": s["phi"]}]),
             "--grid", json.dumps(_cli_grid(s["box"], s["shape"])),
             "--tol", repr(QUADRATURE_BOUND)]
    # the covering eigenfunction is a quadrature over the witness
    return _run_cli(req.label, argv, int(np.prod(s["shape"])),
                    QUADRATURE_BOUND)


def _exec_laplace_uq(req, ctx):
    s = req.spec
    if s["direction"] == "fwd":
        w = ModeWitness(s["ks"], s["coeffs"], +1.0)
        field = transforms.uq_seed(w, constraint="u_y=q_y")
        step = transforms.laplace_forward_uq
    else:
        w = ModeWitness(s["ks"], s["coeffs"], -1.0)
        field = transforms.uq_seed(w, constraint="q_y=0")
        step = transforms.laplace_inverse_uq
    for _ in range(s["depth"]):
        field = step(field)
    return _verify_uq_points(req.label, field,
                             _grid_points(s["box"], s["shape"]),
                             CLOSED_FORM_BOUND)


def _theta_map(k):
    def theta(p, n):
        t, x, _ = jets.coordinate_jets(p, n)
        return jets.exp(k * x - k * k * t)
    return theta


def _exec_dt_nfold(req, ctx):
    s = req.spec
    w = ModeWitness(**_RICH_SEED)
    seed = transforms.uq_seed(w, constraint="u_y=q_y")
    phis = [transforms.covering_solutions_for_constraint(
                "u_y=q_y", seed, w, theta=_theta_map(k),
                zeta=exprdsl.parse(z, "y"))
            for k, z in zip(s["theta_ks"], s["zetas"])]
    field = transforms.darboux_iterated(s["kind"], seed, phis)
    return _verify_uq_points(req.label, field,
                             _grid_points(s["box"], s["shape"]),
                             QUADRATURE_BOUND)


# ----------------------------------------------------------------------
# profiles_symmetry
# ----------------------------------------------------------------------

#: verified pools, as in catalog.sample_bindings and `blp reduce`
_R24_POOL = [(0.8, 0.88), (1.1, 0.88), (1.4, 1.06), (1.7, 1.06)]
_R29_POOL = [((-2.0, 0.5, 0.25), (-2.4, -0.6)),
             ((-2.0, 0.5, 0.25), (-2.5, -0.5))]
_ELLIPTIC_POOL = [(1.0, 1.0, 3.0), (0.6, 0.8, 2.0), (0.5, 1.2, 3.5),
                  (0.9, 1.1, 1.8)]
_PROFILE_SHAPE = (2, 2, 2)
_SYM_FIELDS = [("F_UEQV", {"alpha": "4+sin(y)"}),
               ("F_VXXX_4", {"alpha": "sin(y)", "gamma": "y"}),
               ("F_UY0_QA", {"zeta": "cos(y)"})]
_SYM_BOX = ((0.8, 1.3), (-0.2, 0.6), (0.5, 0.9))
_SYM_SHAPE = (2, 2, 2)
#: (first, second) elementary kinds, 0..4 = D, S, P, Z, I; every kind
#: appears in 4 or 5 of the 12 composites
_SYM_KIND_PAIRS = [(i % 5, (i + 1 + i // 5) % 5) for i in range(12)]
_TFN = ["1", "t", "t^2", "t^3", "sin(t)"]
_YFN = ["1", "y", "y^2", "cos(y)"]
_CLOSURES_PER_REQUEST = 8
_JACOBI_PER_REQUEST = 5
#: sizes of the bundled subalgebra library and normalizer table; indices
#: wrap modulo the sizes actually loaded
_LIBRARY_SIZE, _NORMALIZER_LISTS = 56, 7


def _profiles_pass(rng, slot) -> list[Request]:
    out = []
    # over a cycle each R24 and each elliptic entry appears once, and
    # every pass has both R29 entries.  So 6 of the 100 requests of a cycle
    # (the R24 ones and the two slow elliptic ones) are slower than every
    # Painleve II request, and the 90th latency percentile falls in the
    # middle of the eight Painleve II requests, not at the edge of a
    # cluster where one outlier would move it.
    C1, f0 = _R24_POOL[slot]
    out.append(Request("profile", "painleve4", {
        "reduction": "R2_4", "C1": C1, "init": [0.0, f0, 0.0],
        "span": [-1.2, 1.2], "shape": list(_PROFILE_SHAPE)}))
    for init, span in _R29_POOL:
        out.append(Request("profile", "painleve2", {
            "reduction": "R2_9", "init": list(init), "span": list(span),
            "shape": list(_PROFILE_SHAPE)}))
    C0, de, C2 = _ELLIPTIC_POOL[slot]
    out.append(Request("profile", "weierstrass", {
        "reduction": "elliptic", "C0": C0, "delta": de, "C2": C2,
        "shape": list(_PROFILE_SHAPE)}))
    # the kinds of the two elements are fixed per slot (their costs
    # differ); the seed draws their parameters and the order
    for i, (k1, k2) in enumerate(_SYM_KIND_PAIRS):
        fid, bindings = _SYM_FIELDS[i % len(_SYM_FIELDS)]
        out.append(Request("symmetry", "symmetry", {
            "family": fid, "bindings": bindings,
            "elements": [_random_elementary(rng, k1),
                         _random_elementary(rng, k2)],
            "shape": list(_SYM_SHAPE)}))
    for _ in range(4):
        out.append(Request("liealg", "closure", {
            "certificate": "closure",
            "indices": [int(i) for i in rng.permutation(_LIBRARY_SIZE)
                        [:_CLOSURES_PER_REQUEST]],
            "certificates": _CLOSURES_PER_REQUEST}))
    for _ in range(2):
        out.append(Request("liealg", "normalizer", {
            "certificate": "normalizer",
            "index": int(rng.integers(0, _NORMALIZER_LISTS))}))
    for _ in range(3):
        out.append(Request("liealg", "jacobi", {
            "certificate": "jacobi",
            "triples": [[_random_algebra_element(rng) for _ in range(3)]
                        for _ in range(_JACOBI_PER_REQUEST)],
            "certificates": _JACOBI_PER_REQUEST}))
    return [out[i] for i in rng.permutation(len(out))]


def _random_elementary(rng, k: int) -> list:
    if k == 0:
        return ["D", f"t + {float(rng.uniform(0.15, 0.5))!r}*sin(t)"]
    if k == 1:
        return ["S", f"y + {float(rng.uniform(0.2, 0.6))!r}*sin(y)"]
    if k == 2:
        return ["P", f"{float(rng.uniform(-0.4, 0.4))!r}*t^2"]
    if k == 3:
        return ["Z", f"{float(rng.uniform(-1.0, 1.0))!r}*cos(y)"]
    return ["I", -1]


def _random_algebra_element(rng) -> list:
    return [_TFN[int(rng.integers(0, 5))], _TFN[int(rng.integers(0, 5))],
            _YFN[int(rng.integers(0, 4))], _YFN[int(rng.integers(0, 4))]]


_ELEMENTARY = {"D": "d_transform", "S": "s_transform", "P": "p_transform",
               "Z": "z_transform", "I": "i_transform"}


def _exec_profile(req, ctx):
    s = req.spec
    if s["reduction"] == "R2_4":
        spec = reductions.ReductionSpec(id="R2_4", C0=0.125, C1=s["C1"],
                                        eps=1, init=tuple(s["init"]))
        traj = reductions.integrate_painleve4_form(spec,
                                                   span=tuple(s["span"]))
        field = reductions.reconstruct_2_4(traj, spec)
        box = catalog.default_box("F_R24_PAINLEVE4")
    elif s["reduction"] == "R2_9":
        spec = reductions.ReductionSpec(id="R2_9", C0=0.0, C1=2.0, C2=0.0,
                                        delta=1.0, init=tuple(s["init"]))
        traj = reductions.integrate_painleve2(spec, span=tuple(s["span"]))
        field = reductions.reconstruct_2_9(traj, spec)
        box = catalog.default_box("F_R29_PAINLEVE2")
    else:
        spec = reductions.ReductionSpec(id="R2_9", C0=s["C0"], C1=0.0,
                                        C2=s["C2"], delta=s["delta"])
        quartic = specfun.QuarticODE(1.0, 0.0, s["C0"] / 3.0, s["delta"],
                                     s["C2"])
        phi = specfun.quartic_particular_solution(quartic, 0.0)
        field = reductions.reconstruct_2_9(phi, spec, omega0=0.85)
        box = catalog.default_box("F_R29_ELLIPTIC")
    return _verify_report(req.label, field, _grid_points(box, s["shape"]),
                          QUADRATURE_BOUND)


def _exec_symmetry(req, ctx):
    s = req.spec
    field = catalog.instantiate(s["family"], dict(s["bindings"]))
    g1, g2 = (getattr(transforms, _ELEMENTARY[kind])(arg)
              for kind, arg in s["elements"])
    moved = transforms.apply_symmetry(g2.compose(g1), field)
    return _verify_report(req.label, moved,
                          _grid_points(_SYM_BOX, s["shape"]),
                          SYMMETRY_BOUND)


def _exec_liealg(req, ctx):
    s = req.spec
    which = s["certificate"]
    if which == "closure":
        subs = [ctx.subalgebras[i % len(ctx.subalgebras)]
                for i in s["indices"]]
        ok = [liealg.check_subalgebra(sub).closed for sub in subs]
    elif which == "normalizer":
        label = ctx.normalizer_labels[s["index"] %
                                      len(ctx.normalizer_labels)]
        sub, gens = ctx.normalizers[label]
        ok = [liealg.normalizer_check(g, sub) for g in gens]
    else:
        ok = []
        for triple in s["triples"]:
            q1, q2, q3 = (liealg.D(a) + liealg.P(b) + liealg.S(c)
                          + liealg.Z(d) for a, b, c, d in triple)
            jac = (liealg.commutator(q1, liealg.commutator(q2, q3))
                   + liealg.commutator(q2, liealg.commutator(q3, q1))
                   + liealg.commutator(q3, liealg.commutator(q1, q2)))
            ok.append(liealg.is_zero(jac, tol=CERTIFICATE_TOL))
    bad = ok.count(False)
    return Outcome(req.label, len(ok), len(ok), bad > 0,
                   "certificate" if bad else "", float(bad))


_EXECUTORS = {
    "catalog": _exec_catalog,
    "laplace_uv": _exec_laplace_uv,
    "uv_to_uq": _exec_uv_to_uq,
    "dt_single": _exec_dt_single,
    "laplace_uq": _exec_laplace_uq,
    "dt_nfold": _exec_dt_nfold,
    "profile": _exec_profile,
    "symmetry": _exec_symmetry,
    "liealg": _exec_liealg,
}
