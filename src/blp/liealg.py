"""The symmetry algebra of the BLP system as executable objects.

The algebra is spanned by four families of generators with functional
coefficients, D(f) and P(g) with f, g functions of t, S(a) and Z(b) with
a, b functions of y.  The nonzero brackets are

    [D(f1), D(f2)] = D(f1 f2' - f1' f2)
    [S(a1), S(a2)] = S(a1 a2' - a1' a2)
    [P(g), D(f)]   = P(f' g / 2 - f g')
    [S(a), Z(b)]   = Z((a b)')

Functional coefficients are compared by sampling at Chebyshev-spaced
points with a least-squares certificate rather than symbolically; adjoint
actions that involve inverse functions yield numeric closures, which are
excluded from symbolic brackets but still compare by sampling.
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

from .exprdsl import Bin, Expr, Num, parse
from .jets import BLPError

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

    def diff(self) -> "NumericCoeff":
        f = self.fn
        h = 1e-6

        def d(s: float) -> float:
            return (f(s + h) - f(s - h)) / (2.0 * h)
        return NumericCoeff(d)


def _c_add(a, b, var):
    if isinstance(a, Expr) and isinstance(b, Expr):
        return Bin("+", a, b, var)
    fa, fb = _as_callable(a), _as_callable(b)
    return NumericCoeff(lambda s: fa(s) + fb(s))


def _c_scale(a, c: float, var):
    if isinstance(a, Expr):
        return Bin("*", Num(float(c), var), a, var)
    fa = _as_callable(a)
    return NumericCoeff(lambda s: c * fa(s))


def _as_callable(a):
    return a if not isinstance(a, Expr) else a


def _is_zero_expr(e) -> bool:
    return isinstance(e, Num) and e.value == 0.0


@dataclass(frozen=True)
class LieElement:
    """A formal sum of generators with one coefficient per kind."""
    terms: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        clean = {k: v for k, v in self.terms.items()
                 if v is not None and not _is_zero_expr(v)}
        object.__setattr__(self, "terms", clean)

    def coeff(self, kind: str):
        return self.terms.get(kind)

    @property
    def symbolic(self) -> bool:
        return all(isinstance(v, Expr) for v in self.terms.values())

    def __add__(self, other: "LieElement") -> "LieElement":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = v if k not in out else _c_add(out[k], v, _VAR_OF[k])
        return LieElement(out)

    def scale(self, c: float) -> "LieElement":
        return LieElement({k: _c_scale(v, c, _VAR_OF[k])
                           for k, v in self.terms.items()})

    def __sub__(self, other: "LieElement") -> "LieElement":
        return self + other.scale(-1.0)

    def sample(self, kind: str, pts: Sequence[float]) -> np.ndarray:
        c = self.terms.get(kind)
        if c is None:
            return np.zeros(len(pts))
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
    if isinstance(c, Expr) or isinstance(c, NumericCoeff):
        return c
    if isinstance(c, str):
        return parse(c, var)
    return Num(float(c), var)


def _wronsky(a: Expr, b: Expr, var: str) -> Expr:
    # a b' - a' b
    return Bin("-", Bin("*", a, b.diff(), var),
               Bin("*", a.diff(), b, var), var)


def commutator(Q1: LieElement, Q2: LieElement) -> LieElement:
    """The Lie bracket; requires symbolic (Expr) coefficients."""
    if not (Q1.symbolic and Q2.symbolic):
        raise TypeError("commutator needs symbolic coefficients; "
                        "pushforward closures compare pointwise instead")
    out: dict = {}

    def put(kind, e):
        if _is_zero_expr(e):
            return
        out[kind] = e if kind not in out else Bin("+", out[kind], e,
                                                  _VAR_OF[kind])

    f1, f2 = Q1.coeff("D"), Q2.coeff("D")
    a1, a2 = Q1.coeff("S"), Q2.coeff("S")
    g1, g2 = Q1.coeff("P"), Q2.coeff("P")
    b1, b2 = Q1.coeff("Z"), Q2.coeff("Z")
    if f1 is not None and f2 is not None:
        put("D", _wronsky(f1, f2, "t"))
    if a1 is not None and a2 is not None:
        put("S", _wronsky(a1, a2, "y"))
    # [P(g), D(f)] = P(f' g/2 - f g')
    if g1 is not None and f2 is not None:
        put("P", Bin("-", Bin("*", Bin("*", Num(0.5, "t"), f2.diff(), "t"),
                              g1, "t"),
                     Bin("*", f2, g1.diff(), "t"), "t"))
    if g2 is not None and f1 is not None:
        e = Bin("-", Bin("*", Bin("*", Num(0.5, "t"), f1.diff(), "t"),
                         g2, "t"),
                Bin("*", f1, g2.diff(), "t"), "t")
        put("P", Bin("*", Num(-1.0, "t"), e, "t"))
    # [S(a), Z(b)] = Z((a b)')
    if a1 is not None and b2 is not None:
        put("Z", Bin("*", a1, b2, "y").diff())
    if a2 is not None and b1 is not None:
        put("Z", Bin("*", Num(-1.0, "y"),
                     Bin("*", a2, b1, "y").diff(), "y"))
    return LieElement(out)


# ----------------------------------------------------------------------
# adjoint actions of elementary transformations
# ----------------------------------------------------------------------

def _inverse_closure(e: Expr, window=(-6.0, 6.0)) -> Callable[[float], float]:
    lo, hi = window

    def inv(target: float) -> float:
        flo, fhi = e(lo), e(hi)
        increasing = fhi > flo
        a, b = lo, hi
        if not (min(flo, fhi) <= target <= max(flo, fhi)):
            raise ValueError(f"target {target} outside inverse window")
        for _ in range(200):
            mid = 0.5 * (a + b)
            if abs(b - a) < 1e-15 * (1.0 + abs(mid)):
                break
            if (e(mid) < target) == increasing:
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)
    return inv


def pushforward(kind: str, param, Q: LieElement,
                window=(-6.0, 6.0)) -> LieElement:
    """Adjoint action of one elementary transformation on a generator sum.

    ``kind`` is one of "D", "S", "P", "Z", "I"; ``param`` is the
    transformation's functional (or sign) parameter.
    """
    out = dict(Q.terms)
    if kind == "D":
        T = _coerce(param, "t")
        dT = T.diff()
        inv = _inverse_closure(T, window)

        def push(coeff, power):
            ffn = coeff

            def new(s):
                that = inv(s)
                return float(ffn(that)) * float(dT(that)) ** power
            return NumericCoeff(new)
        # hat-T_t = 1/T_t(hat-T): D-coefficients gain a factor T_t,
        # P-coefficients a factor sqrt(T_t)
        if "D" in out:
            out["D"] = push(out["D"], 1.0)
        if "P" in out:
            out["P"] = push(out["P"], 0.5)
        return LieElement(out)
    if kind == "S":
        Y = _coerce(param, "y")
        dY = Y.diff()
        inv = _inverse_closure(Y, window)
        if "S" in out:
            afn = out["S"]
            out["S"] = NumericCoeff(
                lambda s, afn=afn: float(afn(inv(s))) * float(dY(inv(s))))
        if "Z" in out:
            bfn = out["Z"]
            out["Z"] = NumericCoeff(
                lambda s, bfn=bfn: float(bfn(inv(s))) / float(dY(inv(s))))
        return LieElement(out)
    if kind == "P":
        X0 = _coerce(param, "t")
        if "D" in out:
            f = out["D"]
            if not isinstance(f, Expr):
                raise TypeError("pushforward of a numeric closure by P")
            extra = Bin("-", Bin("*", f, X0.diff(), "t"),
                        Bin("*", Bin("*", Num(0.5, "t"), f.diff(), "t"),
                            X0, "t"), "t")
            out["P"] = extra if "P" not in out \
                else Bin("+", out["P"], extra, "t")
        return LieElement(out)
    if kind == "Z":
        V0 = _coerce(param, "y")
        if "S" in out:
            a = out["S"]
            if not isinstance(a, Expr):
                raise TypeError("pushforward of a numeric closure by Z")
            extra = Bin("-", Bin("*", a, V0.diff(), "y"),
                        Bin("*", a.diff(), V0, "y"), "y")
            out["Z"] = extra if "Z" not in out \
                else Bin("+", out["Z"], extra, "y")
        return LieElement(out)
    if kind == "I":
        eps = float(param)
        if eps not in (1.0, -1.0):
            raise ValueError("I takes +1 or -1")
        if "P" in out:
            out["P"] = _c_scale(out["P"], eps, "t")
        return LieElement(out)
    raise ValueError(f"unknown elementary transformation {kind!r}")


# ----------------------------------------------------------------------
# span and closure certificates
# ----------------------------------------------------------------------

def chebyshev_points(n: int, lo: float = 0.3, hi: float = 2.5) -> list[float]:
    return [0.5 * (lo + hi) + 0.5 * (hi - lo)
            * math.cos((2 * k + 1) * math.pi / (2 * n))
            for k in range(n)]


@dataclass(frozen=True)
class Subalgebra:
    basis: tuple
    label: str = ""
    params: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        pts = chebyshev_points(2 * len(self.basis) + 3)
        A = _design_matrix(self.basis, pts)
        if np.linalg.matrix_rank(A, tol=1e-9) < len(self.basis):
            raise ValueError(
                f"basis of {self.label or 'subalgebra'} is linearly "
                "dependent on sampling")


def _design_matrix(basis: Sequence[LieElement],
                   pts: Sequence[float]) -> np.ndarray:
    rows = []
    for kind in KINDS:
        block = np.column_stack([b.sample(kind, pts) for b in basis])
        rows.append(block)
    return np.vstack(rows)


def in_span(Q: LieElement, S_: Subalgebra,
            sample_points: Sequence[float] | None = None,
            tol: float = 1e-9) -> bool:
    """Least-squares certificate that Q lies in the span of the basis."""
    pts = list(sample_points) if sample_points is not None else \
        chebyshev_points(2 * len(S_.basis) + 4)
    if len(pts) < 2 * len(S_.basis):
        raise ValueError("need at least 2 x basis-size sample points")
    A = _design_matrix(S_.basis, pts)
    b = np.concatenate([Q.sample(kind, pts) for kind in KINDS])
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[0] == 0.0:
        return not np.any(np.abs(b) > tol)
    if sv[-1] / sv[0] < 1e-12:
        raise IllConditioned("sampling Gram matrix near-singular")
    c, *_ = np.linalg.lstsq(A, b, rcond=None)
    resid = A @ c - b
    return float(np.max(np.abs(resid))) < tol * (1.0 + float(np.max(np.abs(b))))


def is_zero(Q: LieElement, pts: Sequence[float] | None = None,
            tol: float = 1e-9) -> bool:
    pts = list(pts) if pts is not None else chebyshev_points(10)
    return all(float(np.max(np.abs(Q.sample(kind, pts))) if pts else 0.0)
               < tol for kind in KINDS)


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


def normalizer_check(Q: LieElement, S_: Subalgebra,
                     sample_points=None) -> bool:
    """True iff [Q, B] stays in the span for every basis element B."""
    return all(in_span(commutator(Q, B), S_, sample_points)
               for B in S_.basis)


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


def _expand(entry: dict) -> list[tuple[str, dict]]:
    params = entry.get("params", {})
    exclude = [tuple(sorted(d.items())) for d in entry.get("exclude", [])]
    if not params:
        return [(entry["label"], {})]
    names = sorted(params)
    combos = []
    for values in itertools.product(*(params[n] for n in names)):
        binding = dict(zip(names, values))
        if tuple(sorted(binding.items())) in exclude:
            continue
        tag = ",".join(f"{n}={binding[n]}" for n in names)
        combos.append((f"{entry['label']}[{tag}]", binding))
    return combos


def _load_json(name: str) -> dict:
    ref = importlib.resources.files("blp.data").joinpath(name)
    return json.loads(ref.read_text())


def subalgebras_from_json(source) -> list[Subalgebra]:
    """Load subalgebras from a JSON file path, JSON text, or parsed dict.

    Accepts either the bundled two-section layout or a flat list of
    entries {label, basis: [{"D": "1"}, ...], params, exclude}.
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
    for entry in entries:
        for label, binding in _expand(entry):
            basis = tuple(_element_from_spec(b, binding)
                          for b in entry["basis"])
            basis = tuple(b for b in basis if b.terms)
            out.append(Subalgebra(basis=basis, label=label, params=binding))
    return out


def load_subalgebra_library() -> list[Subalgebra]:
    """All classified one- and two-dimensional subalgebras, with the
    discrete/functional parameters expanded over their bundled domains."""
    data = _load_json("subalgebras.json")
    out = []
    for section in ("one_dimensional", "two_dimensional"):
        for entry in data[section]:
            for label, binding in _expand(entry):
                basis = tuple(_element_from_spec(b, binding)
                              for b in entry["basis"])
                basis = tuple(b for b in basis if b.terms)
                out.append(Subalgebra(basis=basis, label=label,
                                      params=binding))
    return out


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
