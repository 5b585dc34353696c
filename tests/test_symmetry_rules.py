"""The symmetry rules, written once, against the copies they replaced.

Each reference below is a deleted copy: ``commutator`` with both mirrored
brackets written out, ``pushforward`` with a branch for each of D, S, P
and Z, and the group elements of ``transforms`` with every identity field
spelled out.  Brackets and pushforwards must be equal trees, their
numeric closures must sample to the same bits, a numeric closure that a
shift cannot read must raise the same ``TypeError``, and each group
element must equal its reference.
"""

import numpy as np
import pytest

from blp import liealg, transforms
from blp.exprdsl import Expr, Num, _mk, as_expr, parse
from blp.liealg import (D, P, S, Z, LieElement, NumericCoeff, commutator,
                        pushforward)

T_POOL = ["1", "t", "t^2", "t^3 - t", "sin(t)", "exp(-t^2/4)", "2.5"]
Y_POOL = ["1", "y", "y^2", "cos(y)", "1/(2 + y)", "sqrt(1 + y^2)", "-0.5"]
#: maps that invert on the window at every sample point
T_MAPS = ["2*t", "t + t^3/10", "exp(t/4)"]
Y_MAPS = ["-y", "y + y^3/10", "3*y + 1"]
PTS = liealg.chebyshev_points(7)


def _old_p_bracket(g, f):
    return _mk("-", _mk("*", _mk("*", Num(0.5, "t"), f.diff(), "t"), g, "t"),
               _mk("*", f, g.diff(), "t"), "t")


def _old_commutator(Q1, Q2):
    out = {}

    def put(kind, e):
        out[kind] = e if kind not in out else _mk("+", out[kind], e,
                                                  liealg._VAR_OF[kind])

    f1, f2 = Q1.coeff("D"), Q2.coeff("D")
    a1, a2 = Q1.coeff("S"), Q2.coeff("S")
    g1, g2 = Q1.coeff("P"), Q2.coeff("P")
    b1, b2 = Q1.coeff("Z"), Q2.coeff("Z")
    if f1 is not None and f2 is not None:
        put("D", liealg._wronsky(f1, f2, "t"))
    if a1 is not None and a2 is not None:
        put("S", liealg._wronsky(a1, a2, "y"))
    if g1 is not None and f2 is not None:
        put("P", _old_p_bracket(g1, f2))
    if g2 is not None and f1 is not None:
        put("P", _mk("*", Num(-1.0, "t"), _old_p_bracket(g2, f1), "t"))
    if a1 is not None and b2 is not None:
        put("Z", _mk("*", a1, b2, "y").diff())
    if a2 is not None and b1 is not None:
        put("Z", _mk("*", Num(-1.0, "y"),
                     _mk("*", a2, b1, "y").diff(), "y"))
    return LieElement(out)


def _old_pushforward(kind, param, Q):
    out = dict(Q.terms)
    if kind in ("D", "S"):
        var = "t" if kind == "D" else "y"
        F = liealg._coerce(param, var)
        dF = F.diff()
        powers = (("D", 1.0), ("P", 0.5)) if kind == "D" \
            else (("S", 1.0), ("Z", -1.0))
        for key, power in powers:
            if key in out:
                out[key] = liealg._pushed(out[key], F, dF, power)
        return LieElement(out)
    if kind == "P":
        X0 = liealg._coerce(param, "t")
        if "D" in out:
            f = out["D"]
            if not isinstance(f, Expr):
                raise TypeError("pushforward of a numeric closure by P")
            extra = _mk("-", _mk("*", f, X0.diff(), "t"),
                        _mk("*", _mk("*", Num(0.5, "t"), f.diff(), "t"),
                            X0, "t"), "t")
            out["P"] = extra if "P" not in out \
                else _mk("+", out["P"], extra, "t")
        return LieElement(out)
    if kind == "Z":
        V0 = liealg._coerce(param, "y")
        if "S" in out:
            a = out["S"]
            if not isinstance(a, Expr):
                raise TypeError("pushforward of a numeric closure by Z")
            extra = liealg._wronsky(a, V0, "y")
            out["Z"] = extra if "Z" not in out \
                else _mk("+", out["Z"], extra, "y")
        return LieElement(out)


_OLD_IDENTITY = dict(T=parse("t", "t"), X0=Num(0.0, "t"),
                     Y=parse("y", "y"), V0=Num(0.0, "y"))


def _old_element(**own):
    return transforms.PointSymmetry(**{**_OLD_IDENTITY, **own})


def _generator_sum(rng):
    """A sum of a random nonempty subset of the four kinds."""
    kinds = [k for k in "DSPZ" if rng.random() < 0.6] or ["D"]
    make = {"D": D, "S": S, "P": P, "Z": Z}
    out = LieElement({})
    for k in kinds:
        pool = T_POOL if liealg._VAR_OF[k] == "t" else Y_POOL
        out = out + make[k](pool[rng.integers(len(pool))])
    return out


def _numeric(rng, Q):
    """``Q`` with some of its coefficients replaced by numeric closures."""
    terms = dict(Q.terms)
    for k, c in Q.terms.items():
        if rng.random() < 0.5:
            terms[k] = NumericCoeff(c)
    return LieElement(terms)


def _same(new: LieElement, old: LieElement):
    assert list(new.terms) == list(old.terms)
    for k, c in old.terms.items():
        got = new.terms[k]
        if isinstance(c, Expr):
            assert got == c, k
        else:
            assert not isinstance(got, Expr)
            assert np.array([got(s) for s in PTS]).tobytes() == \
                np.array([c(s) for s in PTS]).tobytes(), k


@pytest.mark.parametrize("seed", range(4))
def test_brackets_are_the_old_trees(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        q1, q2 = _generator_sum(rng), _generator_sum(rng)
        _same(commutator(q1, q2), _old_commutator(q1, q2))
        _same(commutator(q2, q1), _old_commutator(q2, q1))


def test_a_mirrored_bracket_is_the_negative_rule():
    for q1, q2 in ((D("t^2"), P("sin(t)")), (Z("y^2"), S("cos(y)"))):
        new = commutator(q1, q2)
        assert new.terms == _old_commutator(q1, q2).terms
        assert liealg.is_zero(new + commutator(q2, q1))


def _pushforwards(rng):
    """(kind, param) of each elementary transformation with a function
    parameter, drawn at random."""
    return [("D", T_MAPS[rng.integers(len(T_MAPS))]),
            ("S", Y_MAPS[rng.integers(len(Y_MAPS))]),
            ("P", T_POOL[rng.integers(len(T_POOL))]),
            ("Z", Y_POOL[rng.integers(len(Y_POOL))])]


@pytest.mark.parametrize("seed", range(4))
def test_pushforwards_are_the_old_ones(seed):
    rng = np.random.default_rng(seed)
    for _ in range(15):
        Q = _generator_sum(rng)
        for Qn in (Q, _numeric(rng, Q)):
            for kind, param in _pushforwards(rng):
                try:
                    old = _old_pushforward(kind, param, Qn)
                except TypeError as exc:
                    with pytest.raises(TypeError) as got:
                        pushforward(kind, param, Qn)
                    assert str(got.value) == str(exc)
                    continue
                _same(pushforward(kind, param, Qn), old)


@pytest.mark.parametrize("kind, var", [("P", "t"), ("Z", "y")])
def test_a_shift_of_a_numeric_closure_names_its_kind(kind, var):
    src = {"P": "D", "Z": "S"}[kind]
    Q = LieElement({src: NumericCoeff(as_expr(var, var))})
    with pytest.raises(TypeError, match=f"numeric closure by {kind}$"):
        pushforward(kind, "1", Q)


def test_group_elements_are_the_old_ones():
    assert transforms.identity_symmetry() == _old_element()
    for T in ("2*t", "t + t^3/10"):
        assert transforms.d_transform(T) == _old_element(T=as_expr(T, "t"))
    for Y in ("-y", "3*y + 1"):
        assert transforms.s_transform(Y) == _old_element(Y=as_expr(Y, "y"))
    for X0 in ("sin(t)", 1.5):
        assert transforms.p_transform(X0) == _old_element(X0=as_expr(X0, "t"))
    for V0 in ("y^2", 0):
        assert transforms.z_transform(V0) == _old_element(V0=as_expr(V0, "y"))
    for eps in (1, -1):
        assert transforms.i_transform(eps) == _old_element(eps=eps)
