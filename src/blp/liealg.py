"""The symmetry algebra of the BLP system as executable objects.

The algebra is spanned by four families of generators with functional
coefficients, D(f) and P(g) with f, g functions of t, S(a) and Z(b) with
a, b functions of y.  The nonzero brackets, the table that
:func:`commutator` reads, are

    [D(f1), D(f2)] = D(f1 f2' - f1' f2)
    [S(a1), S(a2)] = S(a1 a2' - a1' a2)
    [P(g), D(f)]   = P(f' g / 2 - f g')
    [S(a), Z(b)]   = Z((a b)')

and a mirrored one, [D(f), P(g)] or [Z(b), S(a)], is the negative of its
rule.

Functional coefficients are compared by sampling at Chebyshev-spaced
points with a least-squares certificate rather than symbolically; adjoint
actions that involve inverse functions yield numeric closures, which are
excluded from symbolic brackets but still compare by sampling.

A certificate does only the work its verdict reads.  Brackets, sums and
scales are built by ``exprdsl._mk``, which drops the terms of an exact
zero constant, so a bracket that folds to zero has no term.  An element
is sampled in one walk of all its coefficient trees (:func:`_samples`),
so a node that two kinds share is evaluated once.  A :class:`Subalgebra`
samples its basis once, when it is built, at the default points of
:func:`in_span`: one design matrix serves its rank check and every
certificate.
"""

from __future__ import annotations

import importlib.resources
import itertools
import json
import math
import re
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np

from .exprdsl import Expr, Num, _is_zero_num, _mk, as_expr, parse, sample
from .jets import BadInput, BLPError
from .transforms import _invert_monotone

__all__ = [
    "LieElement", "Subalgebra", "IllConditioned", "NumericCoeff",
    "D", "S", "P", "Z", "commutator", "pushforward", "in_span",
    "check_subalgebra", "normalizer_check", "load_subalgebra_library",
    "subalgebras_from_json",
    "load_normalizer_table", "SubalgebraReport",
]

KINDS = ("D", "S", "P", "Z")
_VAR_OF = {"D": "t", "S": "y", "P": "t", "Z": "y"}


class IllConditioned(BLPError, ArithmeticError):
    """Sampling Gram matrix too close to singular for a span certificate."""


class NumericCoeff:
    """A coefficient function available only as a numeric closure."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[float], float]):
        self.fn = fn

    def __call__(self, s: float) -> float:
        return self.fn(s)


def _c_add(a, b):
    if isinstance(a, Expr) and isinstance(b, Expr):
        return _mk("+", a, b)
    return NumericCoeff(lambda s: a(s) + b(s))


def _c_scale(a, c: float):
    if isinstance(a, Expr):
        return _mk("*", Num(float(c), a.var_name), a)
    return NumericCoeff(lambda s: c * a(s))


@dataclass(frozen=True)
class LieElement:
    """A formal sum of generators with one coefficient per kind."""
    terms: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        clean = {k: v for k, v in self.terms.items()
                 if v is not None and not _is_zero_num(v)}
        object.__setattr__(self, "terms", clean)

    def coeff(self, kind: str):
        return self.terms.get(kind)

    @property
    def symbolic(self) -> bool:
        return all(isinstance(v, Expr) for v in self.terms.values())

    def __add__(self, other: "LieElement") -> "LieElement":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = v if k not in out else _c_add(out[k], v)
        return LieElement(out)

    def scale(self, c: float) -> "LieElement":
        return LieElement({k: _c_scale(v, c) for k, v in self.terms.items()})

    def __sub__(self, other: "LieElement") -> "LieElement":
        return self + other.scale(-1.0)

    def sample(self, kind: str, pts: Sequence[float]) -> np.ndarray:
        c = self.terms.get(kind)
        if c is None:
            return np.zeros(len(pts))
        if isinstance(c, Expr):
            return np.array(sample(c, pts))
        return np.array([float(c(float(s))) for s in pts])

    def __repr__(self):
        bits = []
        for k in KINDS:
            if k in self.terms:
                c = self.terms[k]
                bits.append(f"{k}({c.pretty() if isinstance(c, Expr) else '<numeric>'})")
        return " + ".join(bits) or "0"


def D(f) -> LieElement:
    return LieElement({"D": _coerce(f, "t")})


def S(a) -> LieElement:
    return LieElement({"S": _coerce(a, "y")})


def P(g) -> LieElement:
    return LieElement({"P": _coerce(g, "t")})


def Z(b) -> LieElement:
    return LieElement({"Z": _coerce(b, "y")})


def _coerce(c, var: str):
    return c if isinstance(c, NumericCoeff) else as_expr(c, var)


def _wronsky(a: Expr, b: Expr) -> Expr:
    # a b' - a' b
    return _mk("-", _mk("*", a, b.diff()), _mk("*", a.diff(), b))


def _p_bracket(g: Expr, f: Expr) -> Expr:
    # f' g / 2 - f g'
    return _mk("-", _mk("*", _mk("*", Num(0.5, f.var_name), f.diff()), g),
               _mk("*", f, g.diff()))


#: the nonzero brackets of the module docstring: (k1, k2) -> the kind of
#: [k1(c1), k2(c2)] and its coefficient as a function of (c1, c2)
_BRACKETS = {
    ("D", "D"): ("D", _wronsky),
    ("S", "S"): ("S", _wronsky),
    ("P", "D"): ("P", _p_bracket),
    ("S", "Z"): ("Z", lambda a, b: _mk("*", a, b).diff()),
}


def commutator(Q1: LieElement, Q2: LieElement) -> LieElement:
    """The Lie bracket; requires symbolic (Expr) coefficients.  Where the
    two kinds of a rule of :data:`_BRACKETS` differ, the mirrored bracket
    [k2(c2), k1(c1)] is the rule's negative."""
    if not (Q1.symbolic and Q2.symbolic):
        raise TypeError("commutator needs symbolic coefficients; "
                        "pushforward closures compare pointwise instead")
    out: dict = {}
    for (k1, k2), (kind, rule) in _BRACKETS.items():
        pairs = ((Q1, Q2), (Q2, Q1)) if k1 != k2 else ((Q1, Q2),)
        for mirrored, (A, B) in enumerate(pairs):
            c1, c2 = A.coeff(k1), B.coeff(k2)
            if c1 is None or c2 is None:
                continue
            e = rule(c1, c2)
            if mirrored:
                e = _mk("*", Num(-1.0, e.var_name), e)
            out[kind] = e if kind not in out else _mk("+", out[kind], e)
    return LieElement(out)


# ----------------------------------------------------------------------
# adjoint actions of elementary transformations
# ----------------------------------------------------------------------

def _pushed(coeff, f: Expr, df: Expr, power: float) -> NumericCoeff:
    """s -> coeff(h) f'(h)^power at h = f^-1(s), one inversion a sample."""
    def new(s):
        h = _invert_monotone(f, df, s)
        return float(coeff(h)) * float(df(h)) ** power
    return NumericCoeff(new)


#: reparametrizations by T(t) and by Y(y): the coefficient of each
#: generator listed gains that power of T_t (of Y_y) at the inverse point
_REPARAM = {"D": (("D", 1.0), ("P", 0.5)), "S": (("S", 1.0), ("Z", -1.0))}
#: shifts: the generator whose coefficient c a shift by X reads, and the
#: factor k of c X' - k c' X, which it adds to its own kind
_SHIFT = {"P": ("D", 0.5), "Z": ("S", 1.0)}


def pushforward(kind: str, param, Q: LieElement) -> LieElement:
    """Adjoint action of one elementary transformation on a generator sum.

    ``kind`` is one of "D", "S", "P", "Z", "I"; ``param`` is the
    transformation's functional (or sign) parameter.
    """
    out = dict(Q.terms)
    if kind in _REPARAM:
        F = _coerce(param, _VAR_OF[kind])
        dF = F.diff()
        for key, power in _REPARAM[kind]:
            if key in out:
                out[key] = _pushed(out[key], F, dF, power)
        return LieElement(out)
    if kind in _SHIFT:
        X = _coerce(param, _VAR_OF[kind])
        src, k = _SHIFT[kind]
        if src in out:
            c = out[src]
            if not isinstance(c, Expr):
                raise TypeError(f"pushforward of a numeric closure by {kind}")
            extra = _mk("-", _mk("*", c, X.diff()),
                        _mk("*", _mk("*", Num(k, c.var_name), c.diff()), X))
            out[kind] = extra if kind not in out \
                else _mk("+", out[kind], extra)
        return LieElement(out)
    if kind == "I":
        eps = float(param)
        if eps not in (1.0, -1.0):
            raise ValueError("I takes +1 or -1")
        if "P" in out:
            out["P"] = _c_scale(out["P"], eps)
        return LieElement(out)
    raise ValueError(f"unknown elementary transformation {kind!r}")


# ----------------------------------------------------------------------
# span and closure certificates
# ----------------------------------------------------------------------

#: the interval that functional coefficients are sampled on, and the
#: tolerance of the span and zero certificates
SAMPLE_INTERVAL = (0.3, 2.5)
TOL = 1e-9


def chebyshev_points(n: int) -> list[float]:
    lo, hi = SAMPLE_INTERVAL
    return [0.5 * (lo + hi) + 0.5 * (hi - lo)
            * math.cos((2 * k + 1) * math.pi / (2 * n))
            for k in range(n)]


@dataclass(frozen=True)
class Subalgebra:
    basis: tuple
    label: str = ""
    params: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        # one design matrix, at 2n + 4 Chebyshev points, serves the rank
        # check (as np.linalg.matrix_rank(A, tol=1e-9)) and in_span
        pts = chebyshev_points(2 * len(self.basis) + 4)
        A = _design_matrix(self.basis, pts)
        A.setflags(write=False)
        sv = np.linalg.svd(A, compute_uv=False)
        if np.count_nonzero(sv > 1e-9) < len(self.basis):
            raise BadInput(
                f"basis of {self.label or 'subalgebra'} is linearly "
                "dependent on sampling")
        object.__setattr__(self, "_span_design", (pts, A, sv))


def _design_matrix(basis: Sequence[LieElement],
                   pts: Sequence[float]) -> np.ndarray:
    return np.column_stack([np.concatenate(list(_samples(b, pts)))
                            for b in basis])


def _samples(Q: LieElement, pts: Sequence[float]):
    """``Q.sample(kind, pts)`` for each kind in :data:`KINDS` order, in
    one walk: a subtree that several kinds share (the same object) is
    evaluated once (:func:`exprdsl.sample` with one memo)."""
    seen: dict = {}
    for kind in KINDS:
        c = Q.terms.get(kind)
        yield np.array(sample(c, pts, seen)) if isinstance(c, Expr) \
            else Q.sample(kind, pts)


def in_span(Q: LieElement, S_: Subalgebra) -> bool:
    """Least-squares certificate that Q lies in the span of the basis, at
    the points of the design matrix that ``S_`` keeps."""
    pts, A, sv = S_._span_design
    b = np.concatenate(list(_samples(Q, pts)))
    if sv[0] == 0.0:
        return not np.any(np.abs(b) > TOL)
    if sv[-1] / sv[0] < 1e-12:
        raise IllConditioned("sampling Gram matrix near-singular")
    c, *_ = np.linalg.lstsq(A, b, rcond=None)
    resid = A @ c - b
    return float(np.max(np.abs(resid))) < TOL * (1.0 + float(np.max(np.abs(b))))


def is_zero(Q: LieElement, tol: float = TOL) -> bool:
    """Whether every coefficient stays below ``tol`` at 10 points; the
    kinds are walked in :data:`KINDS` order until one is not."""
    return all(float(np.max(np.abs(v))) < tol
               for v in _samples(Q, chebyshev_points(10)))


@dataclass
class SubalgebraReport:
    label: str
    closed: bool
    abelian: bool
    failures: list

    def __bool__(self):
        return self.closed


def check_subalgebra(S_: Subalgebra) -> SubalgebraReport:
    """Verify bracket closure and classify Abelian vs non-Abelian."""
    failures = []
    abelian = True
    for i, Bi in enumerate(S_.basis):
        for j in range(i + 1, len(S_.basis)):
            br = commutator(Bi, S_.basis[j])
            if not is_zero(br):
                abelian = False
            try:
                ok = in_span(br, S_)
            except IllConditioned:
                ok = False
            if not ok:
                failures.append((i, j))
    return SubalgebraReport(label=S_.label, closed=not failures,
                            abelian=abelian, failures=failures)


def normalizer_check(Q: LieElement, S_: Subalgebra) -> bool:
    """True iff [Q, B] stays in the span for every basis element B."""
    return all(in_span(commutator(Q, B), S_) for B in S_.basis)


# ----------------------------------------------------------------------
# bundled classification data
# ----------------------------------------------------------------------

def _substitute(src: str, binding: dict) -> str:
    out = src
    for name, val in binding.items():
        out = re.sub(rf"\b{name}\b", f"({val})", out)
    return out


def _element_from_spec(spec: dict, binding: dict) -> LieElement:
    terms = {}
    for kind, coeff_src in spec.items():
        e = parse(_substitute(coeff_src, binding), _VAR_OF[kind])
        terms[kind] = e
    return LieElement(terms)


def _expand(pos: int, entry) -> list[tuple[str, dict]]:
    """The (label, binding) of each parameter binding of an entry {label,
    basis: [{kind: text}, ...], params: {name: [value, ...]}, exclude:
    [{name: value}, ...]}.  An entry of another shape, or whose generator
    kinds are not D, S, P, Z, raises :class:`BadInput` naming it."""
    if not isinstance(entry, dict) or "label" not in entry:
        raise BadInput(f"subalgebra entry {pos} has no label")
    label, basis = entry["label"], entry.get("basis")
    params, exclude = entry.get("params", {}), entry.get("exclude", [])
    if basis is None:
        raise BadInput(f"subalgebra {label} has no basis")
    if not (isinstance(basis, list) and all(
            isinstance(b, dict) and all(isinstance(c, str) for c in b.values())
            for b in basis)):
        raise BadInput(f"subalgebra {label}: the basis must be a list of "
                       "objects of coefficient texts")
    unknown = sorted({kind for b in basis for kind in b} - set(KINDS))
    if unknown:
        raise BadInput(f"subalgebra {label}: unknown generator kind "
                       f"{unknown[0]!r}")
    if not isinstance(params, dict):
        raise BadInput(f"subalgebra {label}: params must be an object")
    for name, values in params.items():
        if not isinstance(values, list):
            raise BadInput(f"subalgebra {label}: parameter {name!r} "
                           "takes a list of values")
    if not (isinstance(exclude, list)
            and all(isinstance(d, dict) for d in exclude)):
        raise BadInput(f"subalgebra {label}: exclude must be a list of "
                       "objects")
    if not params:
        return [(label, {})]
    exclude = [tuple(sorted(d.items())) for d in exclude]
    names = sorted(params)
    combos = []
    for values in itertools.product(*(params[n] for n in names)):
        binding = dict(zip(names, values))
        if tuple(sorted(binding.items())) in exclude:
            continue
        tag = ",".join(f"{n}={binding[n]}" for n in names)
        combos.append((f"{label}[{tag}]", binding))
    return combos


def _load_json(name: str) -> dict:
    ref = importlib.resources.files("blp.data").joinpath(name)
    return json.loads(ref.read_text())


def subalgebras_from_json(source) -> list[Subalgebra]:
    """Load subalgebras from a JSON file path, JSON text, or parsed dict.

    Accepts either the bundled two-section layout or a flat list of
    entries {label, basis: [{"D": "1"}, ...], params, exclude}.  An
    entry of another shape (:func:`_expand`; one without a label is
    named by its position), with no nonzero basis element or with a
    linearly dependent basis, raises :class:`BadInput` naming it.
    """
    if isinstance(source, str):
        try:
            data = json.loads(source)
        except json.JSONDecodeError:
            with open(source) as fh:
                data = json.load(fh)
    else:
        data = source
    if isinstance(data, dict):
        entries = [e for section in data.values() if isinstance(section, list)
                   for e in section]
    else:
        entries = data
    out = []
    for pos, entry in enumerate(entries):
        for label, binding in _expand(pos, entry):
            basis = tuple(_element_from_spec(b, binding)
                          for b in entry["basis"])
            basis = tuple(b for b in basis if b.terms)
            if not basis:
                raise BadInput(f"subalgebra {label} has no nonzero basis "
                               "element")
            out.append(Subalgebra(basis=basis, label=label, params=binding))
    return out


def load_subalgebra_library() -> list[Subalgebra]:
    """All classified one- and two-dimensional subalgebras, with the
    discrete/functional parameters expanded over their bundled domains."""
    return subalgebras_from_json(_load_json("subalgebras.json"))


def load_normalizer_table() -> dict:
    """Normalizers of the one-dimensional subalgebras.

    Returns label -> (Subalgebra, [LieElement generators]), functional
    placeholders expanded over the bundled sample families.
    """
    data = _load_json("normalizers.json")
    fams = data["functional_samples"]
    out = {}
    for label, entry in data["normalizers"].items():
        sub_basis = tuple(_element_from_spec(b, {})
                          for b in entry["subalgebra"])
        sub = Subalgebra(basis=sub_basis, label=label)
        gens = []
        for gen in entry["generators"]:
            placeholders = [v for v in gen.values()
                            if v in fams]
            if placeholders:
                name = placeholders[0]
                for sample in fams[name]:
                    gens.append(_element_from_spec(gen, {name: sample}))
            else:
                gens.append(_element_from_spec(gen, {}))
        out[label] = (sub, gens)
    return out
