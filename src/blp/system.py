"""The Boiti-Leon-Pempinelli system: residuals, currents, conversions.

The system for u(t,x,y), v(t,x,y) is

    u_ty = (u^2 - u_x)_xy + 2 v_xxx,
    v_t  = v_xx + 2 u v_x.

Equivalent forms use w = v_x (the (u,w) form) or the potential q with
q_y = v_x (the (u,q) form, in which the Lax pair is usually written):

    u_t  = (u^2 - u_x)_x + 2 q_xx,
    q_ty = (q_xy + 2 u q_y)_x.

Everything here consumes jet-evaluable fields, so no derivative is ever
hand-expanded: one jet per component per point feeds each check, at the
order of the highest derivative that check reads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from . import jets
from .exprdsl import as_expr, eval_jet
from .jets import Jet3, JetMap, Point, UndefinedHere
from .quadrature import QuadratureError, integrate_field_along, xt_path

__all__ = [
    "SolutionField", "ResidualReport",
    "residual", "residual_uq", "covering_residual",
    "conserved_current_divergence", "convert", "residual_report",
    "residual_sup", "count_nonfinite", "report_json", "perturb_v",
]


@dataclass(frozen=True)
class SolutionField:
    """An immutable pair of jet-evaluable maps with family metadata.

    ``coords`` is one of ``"UV"``, ``"UQ"``, ``"UW"``; the second
    component holds v, q or w accordingly.  Each component remembers its
    last point (:func:`jets.last_point`): a field is not for concurrent use.

    One domain rule: a component raises :class:`jets.UndefinedHere`
    where it is not defined, and a grid check skips a point for that
    error alone; a component that is a path integral raises it where
    its integrand does, anywhere on the path.  ``validity`` is true
    everywhere unless a caller gives a predicate (no constructor or
    transformation here does), and :func:`residual_report` honours it
    for callers that wrap it.

    Every field also answers ``w``, the second component of the (u,w)
    form: v_x in (u,v), q_y in (u,q) and v itself in (u,w); it remembers
    its last point too.  By default it is the second component's jet one
    order up, differentiated in x (UV) or y (UQ); a field whose second
    component is a path integral gives a local map instead, so a field
    built on it never runs that integral just to differentiate it.
    """
    u: JetMap
    v: JetMap
    coords: str
    family_id: str = ""
    params: Mapping[str, object] = field(default_factory=dict)
    validity: Callable[[Point], bool] = lambda p: True
    w: JetMap | None = None

    def __post_init__(self):
        object.__setattr__(self, "u", jets.last_point(self.u))
        v = jets.last_point(self.v)
        object.__setattr__(self, "v", v)
        w = self.w
        if w is None:
            axis = {"UV": "x", "UQ": "y"}.get(self.coords)
            if axis is None:
                w = v
            else:
                def w(p: Point, n: int) -> Jet3:
                    return v(p, jets.up(n, axis)).derive(axis)
        object.__setattr__(self, "w", jets.last_point(w))

    @property
    def q(self) -> JetMap:
        if self.coords != "UQ":
            raise ValueError("field is not in (u,q) coordinates")
        return self.v

    def with_meta(self, **kw) -> "SolutionField":
        """A copy with the given attributes replaced.

        ``w`` is kept while the coordinates stay and the new ``v``
        unwraps (``__wrapped__``) to the old one, as a timing wrapper
        does; another ``v`` gets its own ``w``.
        """
        data = dict(u=self.u, v=self.v, coords=self.coords,
                    family_id=self.family_id, params=self.params,
                    validity=self.validity, w=self.w)
        data.update(kw)
        if "w" not in kw and (data["coords"] != self.coords
                              or not _unwraps_to(data["v"], self.v)):
            data["w"] = None
        return SolutionField(**data)


def _unwraps_to(fn, target) -> bool:
    """Whether ``target`` is ``fn`` or in its ``__wrapped__`` chain."""
    while fn is not None:
        if fn is target:
            return True
        fn = getattr(fn, "__wrapped__", None)
    return False


@dataclass
class ResidualReport:
    r1_max: float
    r2_max: float
    r1_rms: float
    r2_rms: float
    skipped: int
    nonfinite: int = 0
    #: (point, u, v, r1, r2) for each evaluated point; residuals signed
    rows: list = field(default_factory=list, repr=False)

    def summary(self) -> dict:
        """Residual statistics; ``nonfinite`` appears only when above 0."""
        out = {"r1_max": self.r1_max, "r2_max": self.r2_max,
               "r1_rms": self.r1_rms, "r2_rms": self.r2_rms,
               "skipped": self.skipped}
        if self.nonfinite:
            out["nonfinite"] = self.nonfinite
        return out


#: jet order of the residuals: they read u_ty, (u^2 - u_x)_xy, which needs
#: u_xxy, and v_xxx, or in the (u,q) form q_xxy; so do the currents'
#: divergences; the covering residual reads psi_xy and psi_xx.  The
#: residuals and the covering residual read t-degree <= 1 only, and the
#: terms of t-degree >= 2 form an ideal, so the grid report and the
#: covering residual ask ``jets.cap(order, "t", 1)``, which keeps every
#: coefficient they read with the full jet's bits.  The single-point
#: readers ``residual`` and ``residual_uq`` ask the int order: a single
#: series computes a capped key in its full layout, so a cap there only
#: adds work
RESIDUAL_ORDER = CURRENT_ORDER = 3
COVERING_ORDER = 2


def _uv_residual(u: Jet3, v: Jet3) -> tuple[float, float]:
    u_x = u.derive("x")
    w = (u * u).truncate(u_x.order) - u_x  # u^2 - u_x
    r1 = (u.extract((1, 0, 1))
          - w.extract((0, 1, 1))
          - 2.0 * v.extract((0, 3, 0)))
    r2 = (v.extract((1, 0, 0))
          - v.extract((0, 2, 0))
          - 2.0 * u.value * v.extract((0, 1, 0)))
    return r1, r2


def _uq_residual(u: Jet3, q: Jet3) -> tuple[float, float]:
    u_x, q_y = u.derive("x"), q.derive("y")
    w = (u * u).truncate(u_x.order) - u_x
    r1 = (u.extract((1, 0, 0))
          - w.extract((0, 1, 0))
          - 2.0 * q.extract((0, 2, 0)))
    uq_y = u.truncate(q_y.order) * q_y
    r2 = q.extract((1, 0, 1)) - (q.extract((0, 2, 1))
                                 + 2.0 * uq_y.extract((0, 1, 0)))
    return r1, r2


#: the residual of each coordinate form, from the jets of its two components
_RESIDUALS = {"UV": _uv_residual, "UQ": _uq_residual}


def residual(s: SolutionField, p: Point) -> tuple[float, float]:
    """Residuals (r1, r2) of the two equations at one point, in UV coords."""
    if s.coords != "UV":
        raise ValueError("residual expects a field in (u,v) coordinates")
    return _uv_residual(s.u(p, RESIDUAL_ORDER), s.v(p, RESIDUAL_ORDER))


def residual_uq(s: SolutionField, p: Point) -> tuple[float, float]:
    """Residuals of the (u,q) form at one point."""
    if s.coords != "UQ":
        raise ValueError("residual_uq expects a field in (u,q) coordinates")
    return _uq_residual(s.u(p, RESIDUAL_ORDER), s.v(p, RESIDUAL_ORDER))


def covering_residual(s: SolutionField, psi: JetMap,
                      p: Point) -> tuple[float, float]:
    """Residuals of the auxiliary linear system in (u,q) coordinates, which
    read psi to degree 2, q to degree 1 and u to degree 0:

        psi_xy + u psi_y + q_y psi = 0,
        psi_t + psi_xx + 2 q_x psi = 0.
    """
    if s.coords != "UQ":
        raise ValueError("covering_residual expects (u,q) coordinates")
    u, q, f = (m(p, jets.cap(COVERING_ORDER, "t", 1)) for m in (s.u, s.v, psi))
    c1 = (f.extract((0, 1, 1))
          + u.value * f.extract((0, 0, 1))
          + q.extract((0, 0, 1)) * f.value)
    c2 = (f.extract((1, 0, 0))
          + f.extract((0, 2, 0))
          + 2.0 * q.extract((0, 1, 0)) * f.value)
    return c1, c2


# ----------------------------------------------------------------------
# conserved currents
# ----------------------------------------------------------------------

def conserved_current_divergence(current_id: str, param, s: SolutionField,
                                 p: Point) -> float:
    """Total divergence D_t F^t + D_x F^x + D_y F^y of one conserved current.

    ``current_id`` is one of F0, F1, F2 (parameter a function of t) or
    F4, F5 (parameter a function of y).  Vanishes on solutions.
    """
    if s.coords != "UV":
        raise ValueError("currents are stated in (u,v) coordinates")
    u, v = s.u(p, CURRENT_ORDER), s.v(p, CURRENT_ORDER)
    no = u.order - 2  # common order for component assembly

    def tr(j: Jet3) -> Jet3:
        return j.truncate(no)

    x = jets.lift_variable("x", p, no)
    uj, vj = tr(u), tr(v)
    u_t, u_x, u_y = tr(u.derive("t")), tr(u.derive("x")), tr(u.derive("y"))
    u_xy = tr(u.derive("x").derive("y"))
    u_xx = tr(u.derive("x").derive("x"))
    v_x = tr(v.derive("x"))
    v_xx = tr(v.derive("x").derive("x"))
    if current_id in ("F0", "F1", "F2"):
        h = eval_jet(as_expr(param, "t"), p, no)
        ut_term = u_t - 2.0 * uj * u_x + u_xx
        weight = {"F0": 1.0 + 0.0 * x, "F1": x, "F2": x * x}[current_id]
        if current_id == "F0":
            fx = -2.0 * h * v_xx
        elif current_id == "F1":
            fx = -2.0 * h * (x * v_xx - v_x)
        else:
            fx = -2.0 * h * (x * x * v_xx - 2.0 * x * v_x + 2.0 * vj)
        fy = h * weight * ut_term
        return fx.extract((0, 1, 0)) + fy.extract((0, 0, 1))
    if current_id in ("F4", "F5"):
        g = eval_jet(as_expr(param, "y"), p, no)
        if current_id == "F4":
            ft = g * u_y
            fx = g * (u_xy - 2.0 * uj * u_y - 2.0 * v_xx)
        else:
            ft = g * vj * u_y
            fx = g * (vj * u_xy - u_y * v_x - 2.0 * vj * uj * u_y
                      - 2.0 * vj * v_xx + v_x * v_x)
        return ft.extract((1, 0, 0)) + fx.extract((0, 1, 0))
    raise ValueError(f"unknown current {current_id!r}")


def perturb_v(s: SolutionField, eps: float = 0.05) -> SolutionField:
    """Return a detector copy with v replaced by v + eps*x^3 (a non-solution)."""
    def v2(p: Point, n: int) -> Jet3:
        x = jets.lift_variable("x", p, n)
        return s.v(p, n) + eps * x * x * x

    return s.with_meta(v=v2, family_id=s.family_id + "+perturbation")


# ----------------------------------------------------------------------
# coordinate conversions
# ----------------------------------------------------------------------

def convert(s: SolutionField, to: str, basepoint: Point) -> SolutionField:
    """Convert among the UV / UQ / UW forms.

    Quadrature-based reconstructions integrate along axis-parallel paths
    anchored at ``basepoint``; the potentials carry the gauge
    q(t,x,y0) = 0 (UV->UQ) and v fixed up to a function of y (UQ->UV).
    Both read the field's ``w``, and the (u,q) and (u,v) results carry
    it as their own.  An error of w anywhere on the path, the point
    itself included, is raised as it is: a grid check skips a point
    whose path crosses a place where w is undefined.
    """
    if to == s.coords:
        return s
    if not {s.coords, to} <= {"UV", "UQ", "UW"}:
        raise ValueError(f"unsupported conversion {s.coords} -> {to}")
    u0, w = s.u, s.w
    if to == "UW":
        return s.with_meta(v=w, coords="UW")
    if to == "UQ":
        def q(p: Point, n: int) -> Jet3:
            return integrate_field_along(w, "y", basepoint.y, p, n)
        return s.with_meta(v=q, w=w, coords="UQ")

    def v_t(p: Point, n: int) -> Jet3:
        wj = w(p, jets.up(n, "x"))
        return wj.derive("x") + 2.0 * (u0(p, n) * wj.truncate(n))

    # v = int_x0^x w dx' + int_t0^t (w_x + 2 u w)|_(t',x0,y) dt'
    return s.with_meta(v=xt_path(w, v_t, basepoint), w=w, coords="UV")


# ----------------------------------------------------------------------
# grid reports
# ----------------------------------------------------------------------

def _strict_json(value):
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else \
            ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    return value


def report_json(payload: dict) -> str:
    """``payload`` as strict JSON with sorted keys.

    Non-finite floats are written as the strings "NaN", "Infinity" and
    "-Infinity", which strict parsers accept and ``float()`` reads back.
    """
    return json.dumps(_strict_json(payload), sort_keys=True, allow_nan=False)


def residual_sup(values) -> float:
    """Largest of ``values`` (0.0 if none); NaN if any of them is NaN.

    Python's ``max`` keeps or drops a NaN depending on where it sits.
    """
    if any(math.isnan(x) for x in values):
        return math.nan
    return max(values) if values else 0.0


def count_nonfinite(r1s, r2s) -> int:
    """Number of points whose residual pair is not all finite."""
    return sum(1 for r1, r2 in zip(r1s, r2s)
               if not (math.isfinite(r1) and math.isfinite(r2)))


def _rms(values) -> float:
    return float(np.sqrt(np.mean(np.square(values)))) if values else 0.0


def residual_report(s: SolutionField, grid: list[Point]) -> ResidualReport:
    """Residuals of a (u,v) or (u,q) field over ``grid``.

    A point whose residual evaluation raises :class:`jets.UndefinedHere`,
    on a path integral's path too, or where a caller's ``s.validity`` is
    false, is skipped; every other point gives one row of ``rows``, in
    grid order.  A :class:`QuadratureError`, which says that an integral
    could not be computed, not that the field is undefined, ends the
    report and names the first grid point where it was raised.

    The points are evaluated as one batch (:mod:`blp.jets`); a batch
    that raises either error is asked again without the lanes the error
    names (and the lanes past the first a :class:`QuadratureError`
    names), and each dropped point alone, so a point is skipped, or
    named, only by its own evaluation, and its row is that evaluation's
    bits however the grid was split.
    """
    equations = _RESIDUALS.get(s.coords)
    if equations is None:
        raise ValueError(f"no grid residual for {s.coords} coordinates")
    key = jets.cap(RESIDUAL_ORDER, "t", 1)

    def row(p: Point) -> tuple:
        u, v = s.u(p, key), s.v(p, key)
        return (u.value, v.value, *equations(u, v))

    points = [p for p in grid if s.validity(p)]
    rows, skipped = _rows(row, points)
    r1s = [abs(r[3]) for r in rows]
    r2s = [abs(r[4]) for r in rows]
    return ResidualReport(
        r1_max=residual_sup(r1s), r2_max=residual_sup(r2s),
        r1_rms=_rms(r1s), r2_rms=_rms(r2s),
        skipped=len(grid) - len(points) + skipped,
        nonfinite=count_nonfinite(r1s, r2s), rows=rows)


def _rows(row: Callable[[Point], tuple], points: list[Point]):
    """The rows ``(p, *row(p))`` of ``points`` where ``row``, a map of a
    batched point to a tuple of floats or arrays over its lanes, is
    defined, in order, and the number skipped: the one evaluator of a
    check over a list of points.  While a batch raises, the lanes its
    error names (every lane, if it names none) are dropped and the rest
    asked again, and after a :class:`QuadratureError` also every lane
    past the first it names, since that lane ends the report unless an
    earlier point does; then each dropped point is asked alone, in
    order.  An overflow gives the non-finite value it makes, never a
    warning."""
    def batch(at: list[Point]) -> list:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            values = row(Point(*(np.array(c, dtype=float) for c in zip(*at))))
        # a value of a jet of shape (size,) is the same in every lane
        return list(zip(at, *(np.broadcast_to(c, len(at)).tolist()
                              for c in values)))

    kept, got = np.arange(len(points)), {}
    while kept.size:
        try:
            got = dict(zip(kept.tolist(), batch([points[i] for i in kept])))
            break
        except (UndefinedHere, QuadratureError) as exc:
            named = exc.lanes
            if named is None or named.shape != kept.shape or not named.any():
                kept = kept[:0]
            elif isinstance(exc, QuadratureError):
                # the first lane it names fails alone too: only the
                # points before it can end the report elsewhere
                kept = kept[:named.argmax()]
            else:
                kept = kept[~named]
    rows, skipped = [], 0
    for i, p in enumerate(points):
        try:
            rows.append(got[i] if i in got else batch([p])[0])
        except UndefinedHere:
            skipped += 1
        except QuadratureError as exc:
            where = f" at grid point (t, x, y) = ({p.t!r}, {p.x!r}, {p.y!r})"
            exc.args = (f"{exc}{where}",) + exc.args[1:]
            raise
    return rows, skipped
