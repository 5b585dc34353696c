"""Constructors for the explicit solution families of the BLP system.

Every family returns a :class:`blp.system.SolutionField` in (u,v)
coordinates whose components are jet-evaluable closures, so the residual
checker can differentiate them exactly.  Families parameterized by
solutions of the (1+1)-dimensional heat equation consume a
:class:`HeatWitness`, which carries its own verification probe.

Each family declares a parameter once, in its :class:`FamilyDescriptor`:
``required_params`` gives its kind and ``defaults`` its default, a value
a caller could pass.  :func:`resolve` alone turns a binding, or the
default of a parameter left unbound or bound to None, into the value the
constructor reads, by kind: ``expr_of_t``, ``expr_of_x`` and
``expr_of_y`` take an ``Expr``, expression text or a finite number (not
a bool), read by ``exprdsl.as_expr``; ``real`` takes a finite number,
``sign`` ±1 and ``flag01`` 0 or 1, each read as a float; ``degree``
takes an integer from 0 to 170; ``pair`` and ``triple`` take two or
three finite numbers, read as a tuple; ``heat_witness_forward`` and
``heat_witness_backward`` take a :class:`HeatWitness` of that direction
or a spec dict for :func:`heat_witness_library`, such as
``{"kind": "plane_exp", "k": 1.0}``, which gets the kind's direction
unless it names one, and the witness must pass its heat-equation probe;
``jet_map`` takes a callable ``(point, order) -> Jet3``, which
accepts a batched point (:mod:`blp.jets`); a kind ``a|b``,
such as ``sinh|cosh``, takes one of the listed words.  An undeclared
name is rejected.  A rejected binding raises :class:`BadBinding` naming
the parameter, or :class:`WitnessViolation` for a witness spec that
names no witness or a witness that fails its probe.  :func:`instantiate`,
the parameters of each witness kind and every input of the command line
take this one path.

Formula corrections relative to common transcriptions are documented in
the test-suite; every family here passes the residual gate at build time
of the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from . import jets, reductions
from .exprdsl import Expr, Num, as_expr, eval_jet, parse
from .jets import BadInput, Jet3, JetMap, Point
# adaptive_quadrature is not called here; the benchmark tracer's restore
# test (benchmarks/test_benchmark.py) reads this binding
from .quadrature import adaptive_quadrature, line_integral  # noqa: F401
from .specfun import quartic_particular_solution, quartic_square_integral
from .system import SolutionField, _rows, residual_sup

__all__ = [
    "FamilyDescriptor", "HeatWitness", "UnknownFamily", "BadBinding",
    "WitnessViolation", "list_families", "instantiate",
    "resolve", "heat_witness_library", "combine_witnesses",
    "sinh_gordon_kink", "sample_bindings", "default_box",
]


class UnknownFamily(BadInput, KeyError):
    pass


class BadBinding(BadInput):
    pass


class WitnessViolation(BadInput):
    pass


# ----------------------------------------------------------------------
# heat witnesses
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HeatWitness:
    """A solution of the (1+1)-dimensional heat equation with potential.

    ``direction`` is "forward" (Phi_t - Phi_xx + H Phi = 0) or "backward"
    (Phi_t + Phi_xx - H Phi = 0); H may be 0, an Expr in x, or a jet map.
    """
    Phi: JetMap
    H: object = 0
    direction: str = "forward"
    label: str = ""

    def h_jet(self, p: Point, n: int) -> Jet3:
        if isinstance(self.H, Expr):
            return eval_jet(self.H, p, n)
        if callable(self.H):
            return self.H(p, n)
        return Jet3.constant(float(self.H), p, n)

    def probe(self, pts: Sequence[Point]) -> float:
        """Largest heat-equation residual at the points of ``pts`` where
        Phi is defined, asked as one batch; NaN if any is, or if none is."""
        sign = 1.0 if self.direction == "forward" else -1.0

        def row(p):
            f = self.Phi(p, 2)  # Phi_t and Phi_xx are read
            return (abs(f.extract((1, 0, 0)) - sign * f.extract((0, 2, 0))
                        + sign * self.h_jet(p, 0).value * f.value),)
        rows, _ = _rows(row, pts)
        return residual_sup([r for _, r in rows] or [math.nan])


_PROBE_GRID = [Point(0.2 + 0.3 * i, -0.4 + 0.37 * j, 0.1 + 0.45 * k)
               for i in range(3) for j in range(3) for k in range(2)]


#: each witness kind's parameters, as (name, kind) pairs, and their
#: defaults; every kind also takes a direction, forward by default
_WITNESS_PARAMS = {
    "plane_exp": ((("k", "real"),), {"k": 1.0}),
    "heat_polynomial": ((("n", "degree"),), {"n": 2}),
    "gaussian": ((("t0", "real"), ("x0", "real")), {"t0": 0.0, "x0": 0.0}),
    "separable_trig": ((("k", "real"), ("trig", "sin|cos")),
                       {"k": 1.0, "trig": "sin"}),
}


def heat_witness_library(kind: str, **params) -> HeatWitness:
    """Stock of closed-form witnesses with H = 0.

    kinds: plane_exp(k), heat_polynomial(n), gaussian(t0, x0),
    separable_trig(k, trig); all accept direction="forward"/"backward".
    The parameters resolve as family parameters do (:func:`resolve`).
    """
    if not (isinstance(kind, str) and kind in _WITNESS_PARAMS):
        raise BadBinding(f"unknown witness kind {kind!r}")
    declared, defaults = _WITNESS_PARAMS[kind]
    b = resolve(f"witness {kind}",
                declared + (("direction", "forward|backward"),),
                {**defaults, "direction": "forward"}, params)
    sign = 1.0 if b["direction"] == "forward" else -1.0
    k = b.get("k")

    if kind == "plane_exp":
        def phi(p: Point, n: int) -> Jet3:
            t, x, _ = jets.coordinate_jets(p, n)
            return jets.exp(k * x + sign * k * k * t)
        label = f"plane_exp(k={k})"

    elif kind == "heat_polynomial":
        deg = b["n"]

        def phi(p: Point, n: int) -> Jet3:
            t, x, _ = jets.coordinate_jets(p, n)
            acc = Jet3.constant(0.0, p, n)
            for k2 in range(deg // 2 + 1):
                c = (math.factorial(deg)
                     / (math.factorial(deg - 2 * k2) * math.factorial(k2)))
                term = c * x ** (deg - 2 * k2) * (sign * t) ** k2 \
                    if k2 else c * x ** deg
                acc = acc + term
            return acc
        label = f"heat_polynomial({deg})"

    elif kind == "gaussian":
        t0, x0 = b["t0"], b["x0"]

        def phi(p: Point, n: int) -> Jet3:
            t, x, _ = jets.coordinate_jets(p, n)
            tau = sign * (t - t0)
            jets.raise_where(tau.value <= 0, tau.value,
                             "gaussian witness needs sign*(t-t0) > 0")
            return (4.0 * math.pi * tau) ** (-0.5) \
                * jets.exp(-((x - x0) * (x - x0)) / (4.0 * tau))
        label = f"gaussian(t0={t0},x0={x0})"

    else:
        fn = getattr(jets, b["trig"])

        def phi(p: Point, n: int) -> Jet3:
            t, x, _ = jets.coordinate_jets(p, n)
            return fn(k * x) * jets.exp(-sign * k * k * t)
        label = f"separable_trig({b['trig']},k={k})"
    return HeatWitness(Phi=phi, H=0, direction=b["direction"], label=label)


def combine_witnesses(witnesses: Sequence[HeatWitness],
                      coeffs: Sequence[object]) -> HeatWitness:
    """Linear combination with y-dependent coefficients.

    Coefficients may be Expr values, expression strings in y, or numbers.
    """
    if len(witnesses) != len(coeffs):
        raise BadBinding("one coefficient per witness required")
    coeffs = [as_expr(c, "y") for c in coeffs]
    direction = witnesses[0].direction
    if any(w.direction != direction for w in witnesses):
        raise BadBinding("cannot mix forward and backward witnesses")
    if any(not _is_zero_potential(w.H) for w in witnesses):
        raise BadBinding("combination requires H = 0 witnesses")

    def phi(p: Point, n: int) -> Jet3:
        acc = Jet3.constant(0.0, p, n)
        for w, c in zip(witnesses, coeffs):
            acc = acc + eval_jet(c, p, n) * w.Phi(p, n)
        return acc

    label = "+".join(w.label for w in witnesses)
    return HeatWitness(Phi=phi, H=0, direction=direction, label=label)


def _is_zero_potential(H) -> bool:
    return (isinstance(H, (int, float)) and H == 0) or \
        (isinstance(H, Num) and H.value == 0.0)


# ----------------------------------------------------------------------
# descriptors
# ----------------------------------------------------------------------

#: the (t, x, y) sampling box of a family that declares none
_COMMON_BOX = ((0.6, 1.4), (0.3, 1.3), (0.2, 1.2))


def _no_bindings(rng) -> dict:
    return {}


@dataclass(frozen=True)
class FamilyDescriptor:
    """Metadata of one family, declared next to its constructor.

    ``required_params`` gives each parameter's (name, kind) and
    ``defaults`` its default, stored as a caller would pass it;
    ``box`` is a (t, x, y) sampling box on which the family's charts are
    healthy; ``sampler(rng)`` draws random but chart-safe bindings for
    randomized residual sweeps.
    """
    id: str
    coords: str
    required_params: tuple
    constraint_tag: str
    notes: str
    box: tuple = _COMMON_BOX
    sampler: Callable = field(default=_no_bindings, repr=False,
                              compare=False)
    defaults: Mapping = field(default_factory=dict, repr=False,
                              compare=False)


MARGIN = 0.15

#: the denominator rule of the catalog's charts, band MARGIN unless given
_guard = partial(jets.check_denominator, band=MARGIN)

_Y_POOL = ["sin(y)", "0.3*y", "0.2*y^2", "cos(y)", "0.5+0.1*y",
           "exp(0.2*y)"]
_T_POOL = ["t", "0.5*t", "0.3*t^2", "sin(t)", "1+0.2*t"]


def _pick(rng, pool):
    return pool[rng.integers(0, len(pool))]


def _ypick(rng) -> str:
    return _pick(rng, _Y_POOL)


def _tpick(rng) -> str:
    return _pick(rng, _T_POOL)


# each entry: id -> (constructor, descriptor); populated below
_FAMILIES: dict[str, tuple] = {}


def _register(desc: FamilyDescriptor):
    for _, kind in desc.required_params:
        _resolver(kind)
    if set(desc.defaults) != {name for name, _ in desc.required_params}:
        raise ValueError(f"{desc.id}: one default per parameter")

    def deco(fn):
        _FAMILIES[desc.id] = (fn, desc)
        return fn
    return deco


def list_families() -> list[FamilyDescriptor]:
    """Stable-ordered descriptors of every available family."""
    return [d for (_, d) in _FAMILIES.values()]


def finite_real(value) -> bool:
    """An int or float, not a bool, that is finite."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


# -- binding kinds: each resolver returns the value a constructor reads ------

def _expression(var: str):
    return lambda value: as_expr(value, var)


def _number(choices=None):
    def resolve(value):
        if finite_real(value) and (choices is None or value in choices):
            return float(value)
        want = " or ".join(map(str, choices)) if choices \
            else "a finite number"
        raise BadBinding(f"expected {want}, got {value!r}")
    return resolve


def _numbers(size: int):
    def resolve(value):
        if isinstance(value, (list, tuple)) and len(value) == size \
                and all(finite_real(z) for z in value):
            return tuple(value)
        raise BadBinding(f"expected {size} finite numbers, got {value!r}")
    return resolve


def _witness(direction: str):
    def resolve(value):
        if isinstance(value, dict):
            try:
                value = heat_witness_library(
                    **{"direction": direction, **value})
            except (TypeError, BadBinding) as exc:  # it names no witness
                raise WitnessViolation(str(exc)) from exc
        if not isinstance(value, HeatWitness):
            raise BadBinding("expected a HeatWitness")
        if value.direction != direction:
            raise BadBinding(f"witness direction {value.direction!r}, "
                             f"need {direction!r}")
        r = value.probe(_PROBE_GRID)
        if not r <= 1e-9:
            raise WitnessViolation(f"heat-equation probe residual {r:g}")
        return value
    return resolve


def _kept(test: Callable, want: str):
    """The kind of the values that pass ``test``, each kept as given."""
    def resolve(value):
        if test(value):
            return value
        raise BadBinding(f"expected {want}, got {value!r}")
    return resolve


def _integer(value, lo, hi=math.inf) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) \
        and lo <= value <= hi


def _choice(choices: tuple):
    return _kept(lambda value: value in choices, f"one of {choices}")


def _grid_axis(axis) -> bool:
    return (isinstance(axis, (list, tuple)) and len(axis) == 3
            and finite_real(axis[0]) and finite_real(axis[1])
            and axis[0] < axis[1] and _integer(axis[2], 1))


_RESOLVERS = {
    "expr_of_t": _expression("t"), "expr_of_x": _expression("x"),
    "expr_of_y": _expression("y"),
    "real": _number(), "sign": _number((1, -1)), "flag01": _number((0, 1)),
    "pair": _numbers(2), "triple": _numbers(3),
    "degree": _kept(lambda v: _integer(v, 0, 170),  # 170! fits a float
                    "an integer from 0 to 170"),
    "heat_witness_forward": _witness("forward"),
    "heat_witness_backward": _witness("backward"),
    "jet_map": _kept(callable, "a jet map"),
    "grid": _kept(lambda v: isinstance(v, dict) and set(v) == set("txy")
                  and all(map(_grid_axis, v.values())),
                  "an object of the axes t, x and y, each [lo, hi, count] "
                  "with finite lo < hi and an integer count >= 1"),
    "tolerance": _kept(lambda v: finite_real(v) and v > 0,
                       "a tolerance, a finite number > 0"),
    "text": _kept(lambda v: isinstance(v, str) and v, "a nonempty string"),
    "nonempty_list": _kept(lambda v: isinstance(v, list) and v,
                           "a nonempty list"),
    "constraint_tag": lambda v: _choice(tuple(sorted(
        {d.constraint_tag for d in list_families()})))(v),
}


def _resolver(kind: str) -> Callable:
    rule = _RESOLVERS.get(kind)
    if rule is None and "|" in kind:
        rule = _choice(tuple(kind.split("|")))
    if rule is None:
        raise ValueError(f"no rule resolves the parameter kind {kind!r}")
    return rule


def resolve(owner: str, declared: Sequence[tuple[str, str]],
            defaults: Mapping, bindings) -> dict:
    """Each declared (name, kind) of ``owner`` resolved by its kind, from
    its binding or, where that is missing or None, from its default.

    ``bindings`` must be a mapping with no undeclared name; the declared
    names are resolved first, so a rejected value is reported before an
    undeclared name.  A rejected value raises :class:`BadBinding` naming
    it, or a :class:`WitnessViolation` naming it where a witness spec
    names no witness or a witness fails its probe.
    """
    if not isinstance(bindings, Mapping):
        raise BadBinding(f"the parameters of {owner} must be an object, "
                         f"got {bindings!r}")
    resolved = {}
    for name, kind in declared:
        value = bindings.get(name)
        if value is None:
            value = defaults[name]
        if value is not None:
            try:
                value = _resolver(kind)(value)
            except (TypeError, ValueError) as exc:
                error = WitnessViolation \
                    if isinstance(exc, WitnessViolation) else BadBinding
                raise error(f"{name}: {exc}") from exc
        resolved[name] = value
    extra = set(bindings) - set(defaults)
    if extra:
        raise BadBinding(f"unknown parameters {sorted(extra)} for {owner}")
    return resolved


def instantiate(family_id: str, bindings: dict) -> SolutionField:
    """Build a solution field from a family id and parameter bindings,
    each resolved by :func:`resolve` from the family's descriptor."""
    try:
        ctor, desc = _FAMILIES[family_id]
    except KeyError:
        raise UnknownFamily(family_id) from None
    return ctor(family_id, resolve(family_id, desc.required_params,
                                   desc.defaults, bindings))


def _field(fid, bindings, u, v) -> SolutionField:
    """The field, with its resolved bindings shown as a report shows them:
    an Expr by its text, a witness by its label; jet maps are not shown."""
    params = {}
    for name, value in bindings.items():
        if isinstance(value, Expr):
            value = value.pretty()
        elif isinstance(value, HeatWitness):
            value = value.label
        elif callable(value):
            continue
        params[name] = value
    return SolutionField(u=u, v=v, coords="UV", family_id=fid,
                         params=params)


def default_box(family_id: str) -> tuple:
    """The family's (t, x, y) sampling box; the common box for other ids."""
    entry = _FAMILIES.get(family_id)
    return entry[1].box if entry else _COMMON_BOX


def sample_bindings(family_id: str, rng) -> dict:
    """Random but chart-safe bindings for randomized residual sweeps."""
    entry = _FAMILIES.get(family_id)
    return entry[1].sampler(rng) if entry else {}


def _witness_off_zero(w: HeatWitness) -> JetMap:
    """``w.Phi``, raising DomainError near the witness's zero set."""
    def phi(p, n):
        f = w.Phi(p, n)
        _guard(f.value, 0.0, "witness zero", band=MARGIN * 0.2)
        return f
    return phi


# -- v_x = 0: backward-heat Hopf-Cole --------------------------------------

@_register(FamilyDescriptor(
    "F_VX0", "UV", (("Phi", "heat_witness_backward"),),
    "v_x=0", "u=-Phi_x/Phi, v=0 with Phi_t+Phi_xx-H*Phi=0",
    sampler=lambda rng: {"Phi": heat_witness_library(
        "plane_exp", k=float(rng.uniform(0.5, 1.5)), direction="backward")},
    defaults={"Phi": {"kind": "plane_exp", "k": 1.0}}))
def _f_vx0(fid, b):
    phi = _witness_off_zero(b["Phi"])

    def u(p, n):
        f = phi(p, jets.up(n, "x"))
        return -f.derive("x") / f.truncate(n)

    def v(p, n):
        return Jet3.constant(0.0, p, n)
    return _field(fid, b, u, v)


# -- u_y = v_x: two-dimensional Hopf-Cole ----------------------------------

def _hopfcole_sample(rng) -> dict:
    k = float(rng.uniform(0.5, 1.5))
    return {"Phi": combine_witnesses(
        [heat_witness_library("plane_exp", k=k),
         heat_witness_library("heat_polynomial", n=2)],
        [parse("1+0.25*y^2", "y"), parse(_ypick(rng), "y")])}


@_register(FamilyDescriptor(
    "F_HOPFCOLE2D", "UV", (("Phi", "heat_witness_forward"),),
    "u_y=v_x", "u=Phi_x/Phi, v=Phi_y/Phi with Phi_t-Phi_xx+H*Phi=0",
    sampler=_hopfcole_sample,
    defaults={"Phi": combine_witnesses(
        [heat_witness_library("plane_exp", k=1.0)], ["1+y^2"])}))
def _f_hopfcole(fid, b):
    phi = jets.last_point(_witness_off_zero(b["Phi"]))

    def u(p, n):
        f = phi(p, jets.up(n, "x"))
        return f.derive("x") / f.truncate(n)

    def v(p, n):
        f = phi(p, jets.up(n, "y"))
        return f.derive("y") / f.truncate(n)
    return _field(fid, b, u, v)


# -- stationary solutions with u_y = v_x, v != 0 ---------------------------

@_register(FamilyDescriptor(
    "F_STATLIOUVILLE", "UV", (("zeta", "expr_of_x"),),
    "u_y=v_x stationary",
    "u=-zeta_xx/(2 zeta_x)+zeta_x/(y+zeta), v=1/(y+zeta)",
    sampler=lambda rng: {"zeta": _pick(rng, [
        "exp(x)", "exp(0.7*x)", "x+0.2*x^3+4", "2*x+sin(x)+5"])},
    defaults={"zeta": "exp(x)"}))
def _f_statliouville(fid, b):
    ze = b["zeta"]

    def parts(p, n):
        z = eval_jet(ze, p, jets.up(jets.up(n, "x"), "x"))
        z1 = z.derive("x")
        _guard(z1.value, 0.0, "zeta_x too small", band=MARGIN * 0.1)
        den = jets.lift_variable("y", p, n) + z.truncate(n)
        _guard(den.value, 0.0, "y + zeta near zero")
        return z, z1, den

    def u(p, n):
        z, z1, den = parts(p, n)
        return (-z1.derive("x") / (2.0 * z1.truncate(n))
                + z1.truncate(n) / den)

    def v(p, n):
        _, _, den = parts(p, n)
        return 1.0 / den
    return _field(fid, b, u, v)


# -- u_y = 0 trio -----------------------------------------------------------

@_register(FamilyDescriptor(
    "F_UY0_TRIV", "UV", (), "u_y=0", "u=0, v=x"))
def _f_uy0_triv(fid, b):
    def u(p, n):
        return Jet3.constant(0.0, p, n)

    def v(p, n):
        return jets.lift_variable("x", p, n)
    return _field(fid, b, u, v)


@_register(FamilyDescriptor(
    "F_UY0_QA", "UV", (("zeta", "expr_of_y"),),
    "u_y=0", "u=0, v=x^2+zeta(y)*x+2t",
    sampler=lambda rng: {"zeta": _ypick(rng)}, defaults={"zeta": "sin(y)"}))
def _f_uy0_qa(fid, b):
    ze = b["zeta"]

    def u(p, n):
        return Jet3.constant(0.0, p, n)

    def v(p, n):
        t, x, _ = jets.coordinate_jets(p, n)
        return x * x + eval_jet(ze, p, n) * x + 2.0 * t
    return _field(fid, b, u, v)


@_register(FamilyDescriptor(
    "F_UY0_QB", "UV", (("theta", "expr_of_t"),),
    "u_y=0", "u=(theta_t-1)/(2x), v=x^2+2*theta(t)",
    box=((0.2, 1.2), (0.6, 1.6), (0.1, 1.0)),
    sampler=lambda rng: {"theta": _tpick(rng)}, defaults={"theta": "t^2"}))
def _f_uy0_qb(fid, b):
    th = b["theta"]
    dth = th.diff()

    def u(p, n):
        _, x, _ = jets.coordinate_jets(p, n)
        _guard(p.x, 0.0, "x near zero")
        return (eval_jet(dth, p, n) - 1.0) / (2.0 * x)

    def v(p, n):
        _, x, _ = jets.coordinate_jets(p, n)
        return x * x + 2.0 * eval_jet(th, p, n)
    return _field(fid, b, u, v)


# -- v_xxx = 0 block --------------------------------------------------------

def _vx_parts(al, be, p, n):
    t, x, _ = jets.coordinate_jets(p, n)
    xi = x + eval_jet(al, p, n)
    T = t + eval_jet(be, p, n)
    _guard(T.value, 0.0, "t + beta near zero")
    return xi, T


def _vx3_parts(al, be, ga, p, n, pole):
    """xi, T, gamma and omega = xi + gamma T of F_VXXX_3 and its inverse
    Laplace image, guarded off the line omega = 0 (message ``pole``)."""
    xi, T = _vx_parts(al, be, p, n)
    g = eval_jet(ga, p, n)
    om = xi + g * T
    _guard(om.value, 0.0, pole)
    return xi, T, g, om


def _vx5_parts(al, be, p, n, pole):
    """t, x, alpha and omega = x + 2 alpha t + beta of F_VXXX_5 and its
    inverse Laplace image, guarded off the line omega = 0."""
    t, x, _ = jets.coordinate_jets(p, n)
    A = eval_jet(al, p, n)
    om = x + 2.0 * A * t + eval_jet(be, p, n)
    _guard(om.value, 0.0, pole)
    return t, x, A, om


def _alpha_beta_gamma(rng) -> dict:
    return {"alpha": _ypick(rng), "beta": "2+" + _ypick(rng),
            "gamma": _ypick(rng)}


@_register(FamilyDescriptor(
    "F_VXXX_1", "UV",
    (("alpha", "expr_of_y"), ("beta", "expr_of_y"), ("gamma", "expr_of_y"),
     ("delta", "flag01")),
    "v_xxx=0",
    "u=-(x+alpha)/(2(t+beta)), v=delta*r^2+gamma*r-2delta/(t+beta)",
    sampler=lambda rng: {**_alpha_beta_gamma(rng),
                         "delta": int(rng.integers(0, 2))},
    defaults={"alpha": "sin(y)", "beta": "2+cos(y)", "gamma": "y",
              "delta": 1}))
def _f_vxxx1(fid, b):
    al, be, ga, de = b["alpha"], b["beta"], b["gamma"], b["delta"]

    def u(p, n):
        xi, T = _vx_parts(al, be, p, n)
        return -0.5 * xi / T

    def v(p, n):
        xi, T = _vx_parts(al, be, p, n)
        r = xi / T
        return de * r * r + eval_jet(ga, p, n) * r - 2.0 * de / T
    return _field(fid, b, u, v)


@_register(FamilyDescriptor(
    "F_VXXX_2", "UV",
    (("beta", "expr_of_y"), ("theta", "expr_of_t"), ("t0", "real")),
    "v_xxx=0",
    "u=-x/(2(t+beta))+theta/x, v=x^2/(t+beta)^2+2*int((2theta+1)/(t'+beta)^2)",
    box=((0.8, 1.4), (0.6, 1.6), (0.1, 1.0)),
    sampler=lambda rng: {"beta": "2+" + _ypick(rng), "theta": _tpick(rng),
                         "t0": 1.0},
    defaults={"beta": "2+cos(y)", "theta": "t", "t0": 1.0}))
def _f_vxxx2(fid, b):
    be, th, t0 = b["beta"], b["theta"], b["t0"]

    def integrand(p, n):
        t, _, _ = jets.coordinate_jets(p, n)
        T = t + eval_jet(be, p, n)
        return (2.0 * eval_jet(th, p, n) + 1.0) / (T * T)

    integral = line_integral(integrand, "t", t0, constant_along="x")

    def u(p, n):
        _guard(p.x, 0.0, "x near zero")
        t, x, _ = jets.coordinate_jets(p, n)
        T = t + eval_jet(be, p, n)
        _guard(T.value, 0.0, "t + beta near zero")
        return -0.5 * x / T + eval_jet(th, p, n) / x

    def v(p, n):
        t, x, _ = jets.coordinate_jets(p, n)
        bj = eval_jet(be, p, n)
        T = t + bj
        # t + beta is linear in t: off the band from t0 to t if both ends are
        ends = (t0 + bj.value, T.value)
        jets.raise_where(~((np.minimum(*ends) > MARGIN)
                           | (np.maximum(*ends) < -MARGIN)), T.value,
                         "t + beta near zero between t0 and t")
        return x * x / (T * T) + 2.0 * integral(p, n)
    return _field(fid, b, u, v)


@_register(FamilyDescriptor(
    "F_VXXX_3", "UV",
    (("alpha", "expr_of_y"), ("beta", "expr_of_y"), ("gamma", "expr_of_y")),
    "v_xxx=0",
    "u=-(x+alpha)/(2(t+beta))-1/(x+alpha+gamma(t+beta)), "
    "v=(r+gamma)^2+2/(t+beta)",
    sampler=_alpha_beta_gamma,
    defaults={"alpha": "sin(y)", "beta": "2+cos(y)", "gamma": "y"}))
def _f_vxxx3(fid, b):
    al, be, ga = b["alpha"], b["beta"], b["gamma"]
    parts = partial(_vx3_parts, al, be, ga, pole="pole line")

    def u(p, n):
        xi, T, g, om = parts(p, n)
        return -0.5 * xi / T - 1.0 / om

    def v(p, n):
        xi, T, g, om = parts(p, n)
        r = xi / T + g
        return r * r + 2.0 / T
    return _field(fid, b, u, v)


@_register(FamilyDescriptor(
    "F_VXXX_4", "UV", (("alpha", "expr_of_y"), ("gamma", "expr_of_y")),
    "v_xxx=0",
    "u=alpha, v=alpha*(x+2 alpha t)^2+gamma*(x+2 alpha t)-x",
    sampler=lambda rng: {"alpha": _ypick(rng), "gamma": _ypick(rng)},
    defaults={"alpha": "sin(y)", "gamma": "y"}))
def _f_vxxx4(fid, b):
    al, ga = b["alpha"], b["gamma"]

    def u(p, n):
        return eval_jet(al, p, n)

    def v(p, n):
        t, x, _ = jets.coordinate_jets(p, n)
        a = eval_jet(al, p, n)
        e = x + 2.0 * a * t
        return a * e * e + eval_jet(ga, p, n) * e - x
    return _field(fid, b, u, v)


@_register(FamilyDescriptor(
    "F_VXXX_5", "UV", (("alpha", "expr_of_y"), ("beta", "expr_of_y")),
    "v_xxx=0",
    "u=alpha-1/(x+2 alpha t+beta), v=(x+2 alpha t+beta)^2-2t",
    sampler=lambda rng: {"alpha": _ypick(rng), "beta": "3+" + _ypick(rng)},
    defaults={"alpha": "sin(y)", "beta": "2+cos(y)"}))
def _f_vxxx5(fid, b):
    parts = partial(_vx5_parts, b["alpha"], b["beta"], pole="pole line")

    def u(p, n):
        _, _, A, om = parts(p, n)
        return A - 1.0 / om

    def v(p, n):
        t, _, _, om = parts(p, n)
        return om * om - 2.0 * t
    return _field(fid, b, u, v)


# -- u_xx = v_4x = 0 pair ---------------------------------------------------

@_register(FamilyDescriptor(
    "F_UXXV4X_A", "UV",
    (("alpha", "expr_of_y"), ("beta", "expr_of_y"), ("gamma", "expr_of_y")),
    "u_xx=0, v_4x=0",
    "u=12ty+alpha, v=E^3+(6t+gamma)E, E=x+12t^2 y+2t alpha+beta",
    sampler=lambda rng: {"alpha": _ypick(rng), "beta": _ypick(rng),
                         "gamma": _ypick(rng)},
    defaults={"alpha": "sin(y)", "beta": "y", "gamma": "cos(y)"}))
def _f_uxxv4x_a(fid, b):
    al, be, ga = b["alpha"], b["beta"], b["gamma"]

    def u(p, n):
        t, _, y = jets.coordinate_jets(p, n)
        return 12.0 * t * y + eval_jet(al, p, n)

    def v(p, n):
        t, x, y = jets.coordinate_jets(p, n)
        e = (x + 12.0 * t * t * y + 2.0 * t * eval_jet(al, p, n)
             + eval_jet(be, p, n))
        return e * e * e + (6.0 * t + eval_jet(ga, p, n)) * e
    return _field(fid, b, u, v)


@_register(FamilyDescriptor(
    "F_UXXV4X_B", "UV",
    (("alpha", "expr_of_y"), ("beta", "expr_of_y"), ("gamma", "expr_of_y"),
     ("lam", "expr_of_y")),
    "u_xx=0, v_4x=0",
    "u=-w/2+6/(t+beta), v=beta_y w^3+gamma w^2+lam w-6 beta_y w/(t+beta)"
    "-2 gamma/(t+beta); w=(x+alpha)/(t+beta)+12 ln|t+beta|/(t+beta)",
    sampler=lambda rng: {**_alpha_beta_gamma(rng), "lam": _ypick(rng)},
    defaults={"alpha": "sin(y)", "beta": "2+cos(y)", "gamma": "y",
              "lam": "y^2"}))
def _f_uxxv4x_b(fid, b):
    al, be, ga, la = b["alpha"], b["beta"], b["gamma"], b["lam"]
    dbe = be.diff()

    def parts(p, n):
        t, x, _ = jets.coordinate_jets(p, n)
        T = t + eval_jet(be, p, n)
        _guard(T.value, 0.0, "t + beta near zero")
        w = (x + eval_jet(al, p, n)) / T \
            + 12.0 * jets.ln(jets.abs_signed(T)) / T
        return T, w

    def u(p, n):
        T, w = parts(p, n)
        return -0.5 * w + 6.0 / T

    def v(p, n):
        T, w = parts(p, n)
        by = eval_jet(dbe, p, n)
        g = eval_jet(ga, p, n)
        return (by * w * w * w + g * w * w + eval_jet(la, p, n) * w
                - 6.0 * by * w / T - 2.0 * g / T)
    return _field(fid, b, u, v)


# -- u_xx = 0 Bernoulli branch ----------------------------------------------

@_register(FamilyDescriptor(
    "F_UXX_BERNOULLI", "UV",
    (("beta", "expr_of_y"), ("alpha2", "expr_of_y"), ("alpha1", "expr_of_y"),
     ("lam1", "expr_of_y"), ("lam0", "expr_of_y"), ("y0", "real")),
    "u_xx=0",
    "chi=(1/8)sqrt(beta_y/(t-beta)); w=(x+psi)sqrt(chi_t); "
    "u=w_t/(2 sqrt(chi_t)); v=w^4+(12chi+alpha2)w^2+alpha1 w"
    "+2chi(6chi+alpha2)",
    box=((0.6, 1.1), (-0.5, 0.5), (-2.1, -1.5)),
    sampler=lambda rng: {
        "beta": _pick(rng, ["-y", "-y-0.1*y^2", "-1.2*y"]),
        "alpha2": _ypick(rng), "alpha1": _ypick(rng),
        "lam1": _ypick(rng), "lam0": _ypick(rng), "y0": -2.0},
    defaults={"beta": "-y", "alpha2": "0", "alpha1": "0", "lam1": "1",
              "lam0": "0", "y0": -2.0}))
def _f_uxx_bernoulli(fid, b):
    be, a2, a1 = b["beta"], b["alpha2"], b["alpha1"]
    l1, l0, y0 = b["lam1"], b["lam0"], b["y0"]
    dbe = be.diff()

    # a grid batch asks chi four times, and each round of abscissae twice
    @jets.last_point
    def chi_jet(p, n):
        t, _, _ = jets.coordinate_jets(p, n)
        ratio = eval_jet(dbe, p, n) / (t - eval_jet(be, p, n))
        jets.raise_where(jets.below_band(ratio.value, MARGIN * 0.2),
                         ratio.value, "beta_y/(t-beta) must stay positive")
        return 0.125 * jets.sqrt(ratio)

    def chi_t(p, n):
        return chi_jet(p, jets.up(n, "t")).derive("t")

    def chi_t_positive(p, n):
        ct = chi_t(p, n)
        jets.raise_where(jets.below_band(ct.value, 1e-10), ct.value,
                         "chi_t must stay positive")
        return ct

    def psi_integrand(p, n):
        ct = chi_t_positive(p, n)
        return (eval_jet(l1, p, n) * chi_jet(p, n) + eval_jet(l0, p, n)) \
            / jets.sqrt(ct)

    psi_tilde = line_integral(psi_integrand, "y", y0, constant_along="x")

    def omega(p, n):
        _, x, _ = jets.coordinate_jets(p, n)
        ct = chi_t_positive(p, n)
        return (x + psi_tilde(p, n)) * jets.sqrt(ct)

    def u(p, n):
        w = omega(p, jets.up(n, "t"))
        return w.derive("t") / (2.0 * jets.sqrt(chi_t(p, n)))

    def v(p, n):
        w = omega(p, n)
        c = chi_jet(p, n)
        A2 = eval_jet(a2, p, n)
        return (w * w * w * w + (12.0 * c + A2) * w * w
                + eval_jet(a1, p, n) * w + 2.0 * c * (6.0 * c + A2))

    return _field(fid, b, u, v)


# -- u = v -------------------------------------------------------------------

@_register(FamilyDescriptor(
    "F_UEQV", "UV", (("alpha", "expr_of_y"),),
    "u=v", "u=v=1/(x+y)+(x+y)/(-2t+alpha)",
    box=((0.8, 1.6), (0.4, 1.2), (0.3, 1.1)),
    sampler=lambda rng: {"alpha": "4+" + _ypick(rng)},
    defaults={"alpha": "sin(y)"}))
def _f_ueqv(fid, b):
    al = b["alpha"]

    def u(p, n):
        t, x, y = jets.coordinate_jets(p, n)
        z = x + y
        _guard(z.value, 0.0, "x + y near zero")
        den = eval_jet(al, p, n) - 2.0 * t
        _guard(den.value, 0.0, "alpha - 2t near zero")
        return 1.0 / z + z / den
    return _field(fid, b, u, u)


# -- reduction 2.9, elliptic and elementary branches ------------------------

def _r29_elliptic_sample(rng) -> dict:
    # tuples with a verified pole-free window over omega in (0.05, 1.35)
    C0, de, C2 = _pick(rng, [(1.0, 1.0, 3.0), (0.6, 0.8, 2.0),
                             (0.5, 1.2, 3.5), (0.9, 1.1, 1.8)])
    return {"C0": C0, "delta": de, "C2": C2, "a": None, "omega0": 0.85}


@_register(FamilyDescriptor(
    "F_R29_ELLIPTIC", "UV",
    (("C0", "real"), ("delta", "real"), ("C2", "real"), ("a", "real"),
     ("omega0", "real")),
    "codim-2 reduction, omega=x+y",
    "u=phi(omega) with phi'^2=phi^4+2C0 phi^2+4 delta phi+C2; "
    "v=-int(phi^2)/2+phi/2-C0 omega/2+delta t",
    box=((0.1, 1.0), (0.25, 0.55), (0.3, 0.6)),
    sampler=_r29_elliptic_sample,
    defaults={"C0": 1.0, "delta": 1.0, "C2": 3.0, "a": None,
              "omega0": 1.0}))
def _f_r29_elliptic(fid, b):
    C0, delta, C2, omega0 = (b[k] for k in ("C0", "delta", "C2", "omega0"))
    q, a = reductions._r29_quartic(C0, delta, C2, b["a"])
    return reductions._r29_field(
        fid, {**b, "a": a}, quartic_particular_solution(q, a),
        quartic_square_integral(q, a), C0, delta, omega0)


@_register(FamilyDescriptor(
    "F_R29_ELEM_1", "UV", (),
    "codim-2 reduction, omega=x+y",
    "u=1/(w-1)-1/(w+1)+1/2, v=1/(w-1)+(w+t)/4",
    box=((0.1, 1.0), (1.3, 2.2), (0.3, 1.2))))
def _f_r29_elem1(fid, b):
    def u(p, n):
        x, y = jets.lift_variable("x", p, n), jets.lift_variable("y", p, n)
        w = x + y
        _guard(w.value - 1.0, 0.0, "pole at omega = +-1")
        _guard(w.value + 1.0, 0.0, "pole at omega = +-1")
        return 1.0 / (w - 1.0) - 1.0 / (w + 1.0) + 0.5

    def v(p, n):
        t, x, y = jets.coordinate_jets(p, n)
        w = x + y
        _guard(w.value - 1.0, 0.0, "pole at omega = 1")
        return 1.0 / (w - 1.0) + (w + t) / 4.0
    return _field(fid, b, u, v)


@_register(FamilyDescriptor(
    "F_R29_ELEM_2", "UV", (("kappa", "real"),),
    "codim-2 reduction, omega=x+y",
    "u=4e^w/(4(e^w+kappa)^2-1)-kappa, "
    "v=-(2kappa-1)/(2e^w+2kappa-1)+((4kappa^2-1)/4)(w-2kappa t)",
    box=((0.1, 1.0), (0.2, 1.0), (0.3, 1.2)),
    sampler=lambda rng: {"kappa": float(rng.uniform(0.4, 1.0))},
    defaults={"kappa": 0.7}))
def _f_r29_elem2(fid, b):
    ka = b["kappa"]

    def parts(p, n):
        t, x, y = jets.coordinate_jets(p, n)
        w = x + y
        E = jets.exp(w)
        d1 = 4.0 * (E + ka) * (E + ka) - 1.0
        d2 = 2.0 * E + 2.0 * ka - 1.0
        _guard(d1.value, 0.0, "pole of the exponential branch")
        _guard(d2.value, 0.0, "pole of the exponential branch")
        return t, w, E, d1, d2

    def u(p, n):
        _, _, E, d1, _ = parts(p, n)
        return 4.0 * E / d1 - ka

    def v(p, n):
        t, w, _, _, d2 = parts(p, n)
        return (-(2.0 * ka - 1.0) / d2
                + (4.0 * ka * ka - 1.0) / 4.0 * (w - 2.0 * ka * t))
    return _field(fid, b, u, v)


@_register(FamilyDescriptor(
    "F_R29_ELEM_3", "UV", (("nu", "real"),),
    "codim-2 reduction, omega=x+y",
    "u=sin(nu)/(sin w+cos nu)+cot(nu)/2, "
    "v=(1-sin(w-nu))/(2cos(w-nu))+(w+t cot nu)/(4 sin^2 nu)",
    box=((0.1, 1.0), (0.2, 0.8), (0.3, 0.9)),
    sampler=lambda rng: {"nu": float(rng.uniform(0.6, 1.2))},
    defaults={"nu": 0.9}))
def _f_r29_elem3(fid, b):
    nu = b["nu"]
    if abs(math.sin(nu)) < 1e-9:
        raise BadBinding("sin(nu) must be nonzero")
    cot = math.cos(nu) / math.sin(nu)

    def parts(p, n):
        t, x, y = jets.coordinate_jets(p, n)
        w = x + y
        d1 = jets.sin(w) + math.cos(nu)
        d2 = jets.cos(w - nu)
        _guard(d1.value, 0.0, "pole of the trigonometric branch")
        _guard(d2.value, 0.0, "pole of the trigonometric branch")
        return t, w, d1, d2

    def u(p, n):
        _, _, d1, _ = parts(p, n)
        return math.sin(nu) / d1 + 0.5 * cot

    def v(p, n):
        t, w, _, d2 = parts(p, n)
        return ((1.0 - jets.sin(w - nu)) / (2.0 * d2)
                + (w + t * cot) / (4.0 * math.sin(nu) ** 2))
    return _field(fid, b, u, v)


# -- reduction 2.2, elementary trio; tau = ln|x| + ln|y|/2 -------------------
# The tan and exp branches carry -(1-eps1) in the leading v-term; the
# transcription with +(1-eps1) fails the residual check for eps1 = -1.

def _tau(p, n):
    x, y = jets.lift_variable("x", p, n), jets.lift_variable("y", p, n)
    _guard(p.x, 0.0, "chart excludes the coordinate axes")
    _guard(p.y, 0.0, "chart excludes the coordinate axes")
    return jets.ln(jets.abs_signed(x)) + 0.5 * jets.ln(jets.abs_signed(y)), x, y


_R22_BOX = ((0.1, 1.0), (1.4, 2.4), (1.3, 2.3))


def _eps1(rng) -> int:
    return int(rng.choice([-1, 1]))


@_register(FamilyDescriptor(
    "F_R22_ELEM_1", "UV", (("eps1", "sign"),),
    "codim-2 reduction, tau=ln|x|+ln|y|/2",
    "u=-e1/(x tau)-e1/(2x), v=(1-e1)/(4y tau)+(1-2e1)/(16y)",
    box=_R22_BOX, sampler=lambda rng: {"eps1": _eps1(rng)},
    defaults={"eps1": -1}))
def _f_r22_elem1(fid, b):
    e1 = b["eps1"]

    def parts(p, n):
        tau, x, y = _tau(p, n)
        _guard(tau.value, 0.0, "tau near zero")
        return tau, x, y

    def u(p, n):
        tau, x, _ = parts(p, n)
        return -e1 / (x * tau) - e1 / (2.0 * x)

    def v(p, n):
        tau, _, y = parts(p, n)
        return (1.0 - e1) / (4.0 * y * tau) + (1.0 - 2.0 * e1) / (16.0 * y)
    return _field(fid, b, u, v)


@_register(FamilyDescriptor(
    "F_R22_ELEM_2", "UV", (("eps1", "sign"), ("kappa", "real")),
    "codim-2 reduction, tau=ln|x|+ln|y|/2",
    "u=e1 kappa tan(kappa tau)/x-e1/(2x), "
    "v=-(1-e1)kappa tan(kappa tau)/(4y)+(1-2e1-4kappa^2)/(16y)",
    box=_R22_BOX,
    sampler=lambda rng: {"eps1": _eps1(rng),
                         "kappa": float(rng.uniform(0.3, 0.8))},
    defaults={"eps1": -1, "kappa": 0.7}))
def _f_r22_elem2(fid, b):
    e1, ka = b["eps1"], b["kappa"]

    def parts(p, n):
        tau, x, y = _tau(p, n)
        arg = ka * tau.value
        cos = np.cos(arg) if isinstance(arg, np.ndarray) else math.cos(arg)
        jets.raise_where(abs(cos) <= MARGIN, arg, "near a pole of tan")
        return jets.tan(ka * tau), x, y

    def u(p, n):
        tn, x, _ = parts(p, n)
        return e1 * ka * tn / x - e1 / (2.0 * x)

    def v(p, n):
        tn, _, y = parts(p, n)
        return (-(1.0 - e1) * ka * tn / (4.0 * y)
                + (1.0 - 2.0 * e1 - 4.0 * ka * ka) / (16.0 * y))
    return _field(fid, b, u, v)


@_register(FamilyDescriptor(
    "F_R22_ELEM_3", "UV", (("eps1", "sign"), ("kappa", "real"),
                           ("nu", "real")),
    "codim-2 reduction, tau=ln|x|+ln|y|/2",
    "u=-e1 kappa (E-nu)/(x(E+nu))-e1/(2x), E=e^(2 kappa tau); "
    "v=-(1-e1)kappa nu/(2y(E+nu))+(1-2e1+4kappa(kappa+1-e1))/(16y)",
    box=_R22_BOX,
    sampler=lambda rng: {"eps1": _eps1(rng),
                         "kappa": float(rng.uniform(0.3, 0.8)),
                         "nu": float(rng.uniform(0.5, 1.3))},
    defaults={"eps1": -1, "kappa": 0.7, "nu": 0.9}))
def _f_r22_elem3(fid, b):
    e1, ka, nu = b["eps1"], b["kappa"], b["nu"]

    def parts(p, n):
        tau, x, y = _tau(p, n)
        E = jets.exp(2.0 * ka * tau)
        _guard(E.value + nu, 0.0, "pole of the exponential branch")
        return E, x, y

    def u(p, n):
        E, x, _ = parts(p, n)
        return -e1 * ka * (E - nu) / (x * (E + nu)) - e1 / (2.0 * x)

    def v(p, n):
        E, _, y = parts(p, n)
        return (-(1.0 - e1) * ka * nu / (2.0 * y * (E + nu))
                + (1.0 - 2.0 * e1 + 4.0 * ka * (ka + 1.0 - e1)) / (16.0 * y))
    return _field(fid, b, u, v)


# -- Painleve-backed reductions ---------------------------------------------

def _r24_sample(rng) -> dict:
    # (C1, phi0) pairs verified free of movable poles on the span
    C1, f0 = _pick(rng, [(0.8, 0.88), (1.1, 0.88), (1.4, 1.06), (1.7, 1.06)])
    return {"C0": 0.125, "C1": C1, "eps": 1,
            "init": (0.0, f0, 0.0), "span": (-1.2, 1.2)}


@_register(FamilyDescriptor(
    "F_R24_PAINLEVE4", "UV",
    (("C0", "real"), ("C1", "real"), ("eps", "sign"), ("init", "triple"),
     ("span", "pair")),
    "codim-2 reduction, w=(x+y)/(2 sqrt|t|)",
    "u=-eps phi(w)/(2 sqrt|t|)-(x+y)/(2t), v=psi(w)/sqrt|t|",
    box=((0.5, 1.2), (-0.4, 0.4), (-0.4, 0.4)), sampler=_r24_sample,
    defaults={"C0": 0.125, "C1": 1.0, "eps": 1, "init": (0.0, 1.0, 0.0),
              "span": (-1.2, 1.2)}))
def _f_r24(fid, b):
    spec = reductions.ReductionSpec(
        id="R2_4", C0=b["C0"], C1=b["C1"], C2=0.0, delta=0.0,
        eps=int(b["eps"]), init=b["init"])
    traj = reductions.integrate_painleve4_form(spec, span=b["span"])
    return reductions.reconstruct_2_4(traj, spec)


@_register(FamilyDescriptor(
    "F_R29_PAINLEVE2", "UV",
    (("C0", "real"), ("C1", "real"), ("C2", "real"), ("delta", "real"),
     ("init", "triple"), ("span", "pair")),
    "codim-2 reduction, omega=x+y",
    "u=phi(omega) via the second Painleve transcendent; "
    "v=(phi_w^2-(phi^2+C1 w+C0)^2-4 delta phi-C2)/(4C1)+delta t",
    box=((0.1, 1.0), (-0.75, -0.45), (-0.35, 0.0)),
    sampler=lambda rng: {"C0": 0.0, "C1": 2.0, "delta": 1, "C2": 0.0,
                         "init": (-2.0, 0.5, 0.25), "span": (-2.5, -0.5)},
    defaults={"C0": 0.0, "C1": 2.0, "C2": 0.0, "delta": 1,
              "init": (-2.0, 0.5, 0.25), "span": (-2.4, -0.6)}))
def _f_r29p2(fid, b):
    spec = reductions.ReductionSpec(
        id="R2_9", C0=b["C0"], C1=b["C1"], C2=b["C2"], delta=b["delta"],
        eps=1, init=b["init"])
    traj = reductions.integrate_painleve2(spec, span=b["span"])
    return reductions.reconstruct_2_9(traj, spec)


# -- sinh/cosh-Gordon hook ----------------------------------------------------

def sinh_gordon_kink(a: float = 2.0) -> JetMap:
    """theta = 4 artanh(exp(a x - (4/a) y)), solving theta_xy = -4 sinh theta.

    Real on the chart a x - (4/a) y < 0.
    """
    def theta(p: Point, n: int) -> Jet3:
        _, x, y = jets.coordinate_jets(p, n)
        E = jets.exp(a * x - (4.0 / a) * y)
        jets.raise_where(E.value >= 1.0 - MARGIN * 0.5, E.value,
                         "kink chart requires exp(...) < 1")
        return 2.0 * (jets.ln(1.0 + E) - jets.ln(1.0 - E))
    return theta


@_register(FamilyDescriptor(
    "F_SINHGORDON", "UV",
    (("theta", "jet_map"), ("variant", "sinh|cosh"), ("x0", "real")),
    "stationary, u_y=v_x",
    "u=-theta_x/2, v=int_x0^x exp(theta) dx'; theta_xy=-4 sinh/cosh theta",
    box=((0.1, 1.0), (-1.6, -0.9), (0.2, 1.0)),
    sampler=lambda rng: {
        "theta": sinh_gordon_kink(float(rng.uniform(1.5, 2.5))),
        "variant": "sinh", "x0": -1.8},
    defaults={"theta": sinh_gordon_kink(), "variant": "sinh", "x0": -1.0}))
def _f_sinhgordon(fid, b):
    theta, x0 = b["theta"], b["x0"]
    fn = np.sinh if b["variant"] == "sinh" else np.cosh

    def row(p):
        th = theta(p, 2)
        return (abs(th.extract((0, 1, 1)) + 4.0 * fn(th.value)),)
    # bind-time probe of the Gordon equation where theta is defined; NaN
    # if any residual is, or if it is defined at none
    rows, _ = _rows(row, _PROBE_GRID)
    worst = residual_sup([r for _, r in rows] or [math.nan])
    if not worst <= 1e-7:
        raise WitnessViolation(
            f"theta probe failed: {len(rows)} points, residual {worst:g}")

    def integrand(p, n):
        return jets.exp(theta(p, n))

    def u(p, n):
        th = theta(p, jets.up(n, "x"))
        return -0.5 * th.derive("x")

    v = line_integral(integrand, "x", x0, constant_along="t")
    return _field(fid, b, u, v)


# -- directly catalogued Laplace-transform images ----------------------------
# These closed forms cross-check the transform machinery; the forward
# image of the fourth v_xxx family and the inverse image of the fifth are
# stated here in residual-verified form (their common transcriptions drop
# t- and alpha_y-proportional terms).

@_register(FamilyDescriptor(
    "F_LAPLACE_IMG_FWD1", "UV",
    (("alpha", "expr_of_y"), ("beta", "expr_of_y"), ("gamma", "expr_of_y")),
    "forward Laplace image of F_VXXX_1 (delta=1)",
    "u=-xi/(2T)+2/(2xi+gamma T); v has leading (beta_y+4)/4 (xi/T)^2",
    sampler=_alpha_beta_gamma,
    defaults={"alpha": "sin(y)", "beta": "2+cos(y)", "gamma": "y"}))
def _f_img_fwd1(fid, b):
    al, be, ga = b["alpha"], b["beta"], b["gamma"]
    dal, dbe, dga = al.diff(), be.diff(), ga.diff()

    def parts(p, n):
        xi, T = _vx_parts(al, be, p, n)
        g = eval_jet(ga, p, n)
        den = 2.0 * xi + g * T
        _guard(den.value, 0.0, "pole line")
        return xi, T, g, den

    def u(p, n):
        xi, T, g, den = parts(p, n)
        return -0.5 * xi / T + 2.0 / den

    def v(p, n):
        xi, T, g, den = parts(p, n)
        r = xi / T
        by = eval_jet(dbe, p, n)
        return ((by + 4.0) / 4.0 * r * r
                + (2.0 * g - eval_jet(dal, p, n)) / 2.0 * r
                - 1.5 * (by + 4.0) / T
                + (2.0 * eval_jet(dal, p, n) + g * by
                   + eval_jet(dga, p, n) * T) / den)
    return _field(fid, b, u, v)


@_register(FamilyDescriptor(
    "F_LAPLACE_IMG_FWD4", "UV",
    (("alpha", "expr_of_y"), ("gamma", "expr_of_y")),
    "forward Laplace image of F_VXXX_4",
    "u=alpha+2 alpha/(2 alpha E+gamma-1)",
    sampler=lambda rng: {"alpha": "1+0.3*" + _ypick(rng),
                         "gamma": _ypick(rng)},
    defaults={"alpha": "sin(y)", "gamma": "y/2"}))
def _f_img_fwd4(fid, b):
    al, ga = b["alpha"], b["gamma"]
    dal, dga = al.diff(), ga.diff()

    def parts(p, n):
        t, x, _ = jets.coordinate_jets(p, n)
        A = eval_jet(al, p, n)
        _guard(A.value, 0.0, "alpha must stay away from zero",
               band=MARGIN * 0.2)
        e = x + 2.0 * A * t
        G = eval_jet(ga, p, n)
        den = 2.0 * A * e + G - 1.0
        _guard(den.value, 0.0, "pole line")
        return t, x, A, G, e, den

    def u(p, n):
        _, _, A, _, _, den = parts(p, n)
        return A + 2.0 * A / den

    def v(p, n):
        t, x, A, G, e, den = parts(p, n)
        Ay = eval_jet(dal, p, n)
        num = 4.0 * t * A * A * Ay + A * eval_jet(dga, p, n) - Ay * (G - 1.0)
        return (A * e * e + G * e - x + Ay * x
                + (2.0 * A * Ay + 4.0 * A) * t + num / (A * den))
    return _field(fid, b, u, v)


@_register(FamilyDescriptor(
    "F_LAPLACE_IMG_INV3", "UV",
    (("alpha", "expr_of_y"), ("beta", "expr_of_y"), ("gamma", "expr_of_y")),
    "inverse Laplace image of F_VXXX_3",
    "rational in omega=x+alpha+gamma(t+beta) with cubic denominators",
    sampler=lambda rng: {"alpha": _ypick(rng), "beta": "2+" + _ypick(rng),
                         "gamma": "1+0.2*" + _ypick(rng)},
    defaults={"alpha": "sin(y)", "beta": "2+cos(y)", "gamma": "y"}))
def _f_img_inv3(fid, b):
    al, be, ga = b["alpha"], b["beta"], b["gamma"]
    dal, dbe, dga = al.diff(), be.diff(), ga.diff()
    gamma_is_zero = isinstance(ga, Num) and ga.value == 0.0
    parts = partial(_vx3_parts, al, be, ga, pole="pole line omega = 0")

    def u(p, n):
        xi, T, g, om = parts(p, n)
        by = eval_jet(dbe, p, n)
        ay = eval_jet(dal, p, n)
        om_y = ay + eval_jet(dga, p, n) * T + g * by
        num = (by - 4.0) * om ** 3 - 4.0 * om_y * T * T
        den = ((by - 4.0) * om ** 3 - (ay + by * g) * T * om * om
               + 2.0 * om_y * T * T)
        _guard(den.value, num.value, "cubic denominator near zero")
        return -0.5 * xi / T - 1.0 / om - num / (om * den)

    def v(p, n):
        xi, T, g, om = parts(p, n)
        by = eval_jet(dbe, p, n)
        ay = eval_jet(dal, p, n)
        r = xi / T
        out = (-(by - 4.0) / 4.0 * r * r + (ay + 4.0 * g) / 2.0 * r
               - 1.5 * (by - 4.0) / T + (ay + by * g) / om)
        if not gamma_is_zero:
            out = out - (eval_jet(dga, p, n) / g) * (xi / om)
        return out
    return _field(fid, b, u, v)


@_register(FamilyDescriptor(
    "F_LAPLACE_IMG_INV3X", "UV", (),
    "inverse Laplace image of F_VXXX_3 at (gamma,alpha_y,beta_y)=(0,0,4)",
    "u=1/x-2x/(x^2-2(t+4y))-x/(2(t+4y)), v=0",
    box=((0.2, 0.8), (2.6, 3.4), (0.3, 1.0))))
def _f_img_inv3x(fid, b):
    def parts(p, n):
        t, x, y = jets.coordinate_jets(p, n)
        T = t + 4.0 * y
        _guard(p.x, 0.0, "coordinate pole")
        _guard(T.value, 0.0, "coordinate pole")
        d = x * x - 2.0 * T
        _guard(d.value, 0.0, "parabola pole")
        return x, T, d

    def u(p, n):
        x, T, d = parts(p, n)
        return 1.0 / x - 2.0 * x / d - 0.5 * x / T

    def v(p, n):
        return Jet3.constant(0.0, p, n)
    return _field(fid, b, u, v)


@_register(FamilyDescriptor(
    "F_LAPLACE_IMG_INV5", "UV",
    (("alpha", "expr_of_y"), ("beta", "expr_of_y")),
    "inverse Laplace image of F_VXXX_5",
    "u=alpha+(4w^3-alpha_y w^2+2 alpha_y t+beta_y)"
    "/(w(alpha_y w^2-2w^3+2 alpha_y t+beta_y)); "
    "v=w^2-alpha_y(x+2 alpha t)-6t+(2 alpha_y t+beta_y)/w",
    sampler=lambda rng: {"alpha": _ypick(rng), "beta": "4+" + _ypick(rng)},
    defaults={"alpha": "sin(y)", "beta": "2+cos(y)"}))
def _f_img_inv5(fid, b):
    al, be = b["alpha"], b["beta"]
    dal, dbe = al.diff(), be.diff()
    parts = partial(_vx5_parts, al, be, pole="pole line omega = 0")

    def u(p, n):
        t, _, A, om = parts(p, n)
        Ay, By = eval_jet(dal, p, n), eval_jet(dbe, p, n)
        num = 4.0 * om ** 3 - Ay * om * om + 2.0 * Ay * t + By
        den = Ay * om * om - 2.0 * om ** 3 + 2.0 * Ay * t + By
        _guard(den.value, num.value, "cubic denominator near zero")
        return A + num / (om * den)

    def v(p, n):
        t, x, A, om = parts(p, n)
        Ay, By = eval_jet(dal, p, n), eval_jet(dbe, p, n)
        return (om * om - Ay * (x + 2.0 * A * t) - 6.0 * t
                + (2.0 * Ay * t + By) / om)
    return _field(fid, b, u, v)
