import contextlib
import math
import re

import numpy as np
import pytest

from blp import exprdsl, jets, liealg
from blp.exprdsl import parse
from blp.jets import BadInput
from blp.liealg import (
    D, IllConditioned, NumericCoeff, P, S, Subalgebra, Z, check_subalgebra,
    chebyshev_points, commutator, in_span, is_zero, load_normalizer_table,
    load_subalgebra_library, normalizer_check, pushforward,
)
from conftest import bisect_inverse, expr_nodes, unfolded_nodes

TPTS = chebyshev_points(10)
YPTS = chebyshev_points(10)


def coeffs_equal(elem, kind, fn, pts, tol=1e-9):
    got = elem.sample(kind, pts)
    want = np.array([fn(s) for s in pts])
    return np.max(np.abs(got - want)) < tol


def test_bracket_dd():
    br = commutator(D("t"), D("t^2"))
    assert set(br.terms) == {"D"}
    assert coeffs_equal(br, "D", lambda t: t * t, TPTS)


def test_bracket_pz_zero():
    assert commutator(P("t"), Z("y")).terms == {}


def test_bracket_sz():
    br = commutator(S("1"), Z("y"))
    assert set(br.terms) == {"Z"}
    assert coeffs_equal(br, "Z", lambda y: 1.0, YPTS)


def test_bracket_pd():
    # [P(g), D(f)] = P(f' g / 2 - f g')
    br = commutator(P("1"), D("t^2"))
    assert coeffs_equal(br, "P", lambda t: t, TPTS)
    br2 = commutator(D("t^2"), P("1"))
    assert coeffs_equal(br2, "P", lambda t: -t, TPTS)
    # g = t against f = t^2 cancels identically
    assert is_zero(commutator(P("t"), D("t^2")))


def test_bracket_table_over_sample_functions():
    tfn = ["1", "t", "t^2", "t^3", "sin(t)"]
    yfn = ["1", "y", "y^2", "cos(y)"]
    for f1 in tfn:
        for f2 in tfn:
            br = commutator(D(f1), D(f2))
            e1, e2 = D(f1).terms["D"], D(f2).terms["D"]
            want = lambda t: e1(t) * e2.diff()(t) - e1.diff()(t) * e2(t)
            assert coeffs_equal(br, "D", want, TPTS), (f1, f2)
    for a1 in yfn:
        for b2 in yfn:
            br = commutator(S(a1), Z(b2))
            ea, eb = S(a1).terms["S"], Z(b2).terms["Z"]
            want = lambda y: ea(y) * eb.diff()(y) + ea.diff()(y) * eb(y)
            assert coeffs_equal(br, "Z", want, YPTS), (a1, b2)


def test_antisymmetry_and_jacobi(rng):
    pool_t = ["1", "t", "t^2", "t^3 - t"]
    pool_y = ["1", "y", "y^2", "cos(y)"]

    def random_element():
        e = D(pool_t[rng.integers(0, 4)]) + P(pool_t[rng.integers(0, 4)])
        return e + S(pool_y[rng.integers(0, 4)]) + Z(pool_y[rng.integers(0, 4)])

    for _ in range(50):
        q1, q2, q3 = (random_element() for _ in range(3))
        anti = commutator(q1, q2) + commutator(q2, q1)
        assert is_zero(anti, tol=1e-9)
        jac = (commutator(q1, commutator(q2, q3))
               + commutator(q2, commutator(q3, q1))
               + commutator(q3, commutator(q1, q2)))
        assert is_zero(jac, tol=1e-9)


def test_direct_sum_of_ideals(rng):
    # the D,P part commutes with the S,Z part
    for _ in range(10):
        q1 = D("t^2") + P("sin(t)")
        q2 = S("y") + Z("cos(y)")
        assert commutator(q1, q2).terms == {}


def test_radical_is_absorbing(rng):
    pool_t = ["1", "t", "t^2"]
    pool_y = ["1", "y", "y^2"]
    for _ in range(20):
        qr = P(pool_t[rng.integers(0, 3)]) + Z(pool_y[rng.integers(0, 3)])
        q = (D(pool_t[rng.integers(0, 3)]) + S(pool_y[rng.integers(0, 3)])
             + P(pool_t[rng.integers(0, 3)]) + Z(pool_y[rng.integers(0, 3)]))
        br = commutator(q, qr)
        assert set(br.terms) <= {"P", "Z"}


def test_pushforward_p_on_d():
    # P_*(c) D(1) = D(1) for constant shifts (P-part vanishes identically)
    out = pushforward("P", "1", D("1"))
    assert coeffs_equal(out, "D", lambda t: 1.0, TPTS)
    assert np.max(np.abs(out.sample("P", TPTS))) < 1e-12
    # P_*(x0) D(t): f X0_t - f_t X0 / 2 with f = t, X0 = t^2
    out = pushforward("P", "t^2", D("t"))
    assert coeffs_equal(out, "P", lambda t: 2 * t * t - 0.5 * t * t, TPTS)


def test_pushforward_z_on_s():
    out = pushforward("Z", "y", S("1"))
    assert coeffs_equal(out, "S", lambda y: 1.0, YPTS)
    assert coeffs_equal(out, "Z", lambda y: 1.0, YPTS)


def test_pushforward_i_on_p():
    out = pushforward("I", -1, P("t"))
    assert coeffs_equal(out, "P", lambda t: -t, TPTS)


def test_pushforward_d_numeric():
    # T = 2t: hat T = s/2, hat T_t = 1/2; D(f) -> D(2 f(s/2))
    out = pushforward("D", "2*t", D("t"))
    assert isinstance(out.terms["D"], NumericCoeff)
    assert coeffs_equal(out, "D", lambda s: 2 * (s / 2), TPTS, tol=1e-8)
    outp = pushforward("D", "2*t", P("1"))
    assert coeffs_equal(outp, "P", lambda s: np.sqrt(2.0), TPTS, tol=1e-8)


def test_pushforward_s_numeric():
    out = pushforward("S", "3*y", S("y"))
    # alpha(hat Y) / hat Y_y = (s/3) * 3 = s
    assert coeffs_equal(out, "S", lambda s: s, TPTS, tol=1e-8)
    outz = pushforward("S", "3*y", Z("y"))
    # beta(hat Y) * hat Y_y = (s/3) / 3
    assert coeffs_equal(outz, "Z", lambda s: s / 9.0, TPTS, tol=1e-8)


@pytest.mark.parametrize("kind,param,var", [("D", "t + 0.35*sin(t)", "t"),
                                            ("S", "y + 0.45*sin(y)", "y"),
                                            ("S", "-2*y + 0.5*sin(y)", "y")])
def test_pushforward_inverts_once_per_sample(monkeypatch, kind, param, var):
    # one inversion for each sample of each numeric coefficient, with the
    # values of f(h) f'(h)^p (D, S) or f(h) / Y'(h) (Z) at the bisected h
    calls = [0]
    invert = liealg._invert_monotone

    def counted(*args):
        calls[0] += 1
        return invert(*args)

    monkeypatch.setattr(liealg, "_invert_monotone", counted)
    f = parse(param, var)
    df = f.diff()
    if kind == "D":
        q = D("1 + t^2") + P("cos(t)")
        wants = {"D": lambda h: (1 + h * h) * df(h),
                 "P": lambda h: math.cos(h) * math.sqrt(df(h))}
    else:
        q = S("1 + y^2") + Z("cos(y)")
        wants = {"S": lambda h: (1 + h * h) * df(h),
                 "Z": lambda h: math.cos(h) / df(h)}
    out = pushforward(kind, param, q)
    for key, want in wants.items():
        calls[0] = 0
        got = out.sample(key, TPTS)
        assert calls[0] == len(TPTS)
        for s_, value in zip(TPTS, got):
            ref = want(bisect_inverse(f, s_))
            assert abs(value - ref) <= 1e-14 * (1.0 + abs(ref)), (key, s_)


def test_pushforward_commutator_compatibility(rng):
    # for the symbolic adjoint actions the compatibility holds exactly
    q1 = D("t") + S("y")
    q2 = D("t^2") + Z("y^2")
    for kind, param in [("P", "t^2"), ("Z", "y"), ("I", -1)]:
        lhs = pushforward(kind, param, commutator(q1, q2))
        rhs = commutator(pushforward(kind, param, q1),
                         pushforward(kind, param, q2))
        assert is_zero(lhs - rhs, tol=1e-7)


def test_in_span_basics():
    s = Subalgebra(basis=(D("1"), D("t")), label="span-test")
    assert in_span(D("1") + D("t"), s)
    assert in_span(s.basis[0], s)
    assert not in_span(D("t^2"), s)
    assert not in_span(D("1"), Subalgebra(basis=(P("1"), Z("1"))))


def test_in_span_requires_enough_points():
    # a certificate reads the design matrix its subalgebra keeps, which
    # samples a basis of n at 2n + 4 points, never fewer than 2n
    for n in (1, 2, 4):
        s = Subalgebra(basis=tuple(D(f"t^{k}") for k in range(n)))
        pts, A, _ = s._span_design
        assert len(pts) == 2 * n + 4 and A.shape[1] == n


def test_ill_conditioned_sampling():
    # independent at the 8 sample points (smallest singular value 1.6e-8,
    # above the 1e-9 of the rank check) but conditioned worse than 1e-12
    s = Subalgebra(basis=(D("1e4"), D("1e4 + 1e-8*t")), label="illcond")
    with pytest.raises(IllConditioned):
        in_span(D("t"), s)


def test_dependent_basis_rejected():
    with pytest.raises(ValueError):
        Subalgebra(basis=(D("t"), D("2*t")), label="dep")


def test_check_subalgebra_examples():
    rep = check_subalgebra(Subalgebra(
        basis=(D("1") + S("1"), D("t") + S("y")), label="na"))
    assert rep.closed and not rep.abelian
    rep = check_subalgebra(Subalgebra(basis=(P("1"), Z("1")), label="ab"))
    assert rep.closed and rep.abelian
    # the scaling/shear pair with a functional P-part stays closed
    rep = check_subalgebra(Subalgebra(
        basis=(S("1") + P("t^2"), P("1") + Z("1")), label="g-delta"))
    assert rep.closed and rep.abelian


def test_bundled_library_closure():
    lib = load_subalgebra_library()
    assert len(lib) >= 50
    one_dim = [s for s in lib if s.label.startswith("s1.")]
    assert len(one_dim) == 8
    for sub in lib:
        rep = check_subalgebra(sub)
        assert rep.closed, sub.label
    # the non-Abelian family: its bracket relation [B1, B2] = B1
    s21 = next(s for s in lib if s.label == "s2.1")
    br = commutator(*s21.basis)
    assert is_zero(br - s21.basis[0], tol=1e-9)


def test_abelian_split_matches_listing():
    lib = load_subalgebra_library()
    expected_nonabelian = {"s2.1", "s2.2", "s2.3", "s2.4", "s2.5",
                           "s2.6", "s2.7", "s2.8"}
    for sub in lib:
        fam = sub.label.split("[")[0]
        if not fam.startswith("s2."):
            continue
        rep = check_subalgebra(sub)
        if fam in expected_nonabelian:
            # delta = 0 members of some families degenerate to Abelian
            if rep.abelian:
                assert sub.params and 0 in sub.params.values(), sub.label
        else:
            assert rep.abelian, sub.label


def test_normalizer_table_positive():
    table = load_normalizer_table()
    assert len(table) == 7
    for label, (sub, gens) in table.items():
        for gen in gens:
            assert normalizer_check(gen, sub), (label, repr(gen))


def test_normalizer_negatives():
    table = load_normalizer_table()
    assert not normalizer_check(Z("y^2"), table["s1.1"][0])
    assert not normalizer_check(D("t^2"), table["s1.3"][0])


def test_membership_in_own_span():
    table = load_normalizer_table()
    for label, (sub, _) in table.items():
        for b in sub.basis:
            assert normalizer_check(b, sub), label


def test_one_parameter_flows_preserve_residuals():
    # the exponential of each basis generator is a group element; applying
    # it must carry solutions to solutions
    from blp import catalog, transforms
    from blp.jets import Point, UndefinedHere
    from blp.system import residual

    field = catalog.instantiate("F_UEQV", {"alpha": "4+sin(y)"})
    eps = 0.3
    flows = [
        transforms.d_transform(f"t + {eps}"),          # D(1)
        transforms.d_transform(f"{np.exp(eps)}*t"),    # D(t)
        transforms.s_transform(f"y + {eps}"),          # S(1)
        transforms.s_transform(f"{np.exp(eps)}*y"),    # S(y)
        transforms.p_transform(f"{eps}"),              # P(1)
        transforms.p_transform(f"{eps}*t^2"),          # P(t^2)
        transforms.z_transform(f"{eps}"),              # Z(1)
        transforms.z_transform(f"{eps}*cos(y)"),       # Z(cos y)
    ]
    pts = [Point(0.9, 0.5, 0.6), Point(1.2, 0.3, 0.8)]
    for g in flows:
        moved = transforms.apply_symmetry(g, field)
        for p in pts:
            if not moved.validity(p):
                continue
            try:
                r1, r2 = residual(moved, p)
            except UndefinedHere:
                continue
            assert max(abs(r1), abs(r2)) < 1e-9


def test_subalgebras_from_json(tmp_path):
    from blp.liealg import subalgebras_from_json
    payload = [{"label": "user", "basis": [{"D": "1", "S": "delta"}],
                "params": {"delta": [0, 1]}}]
    subs = subalgebras_from_json(payload)
    assert [s.label for s in subs] == ["user[delta=0]", "user[delta=1]"]
    import json as _json
    path = tmp_path / "subs.json"
    path.write_text(_json.dumps(payload))
    subs2 = subalgebras_from_json(str(path))
    assert len(subs2) == 2
    assert check_subalgebra(subs2[1]).closed


@pytest.mark.parametrize("basis,words", [
    ([], "no nonzero basis element"),
    ([{"D": "0"}], "no nonzero basis element"),
    ([{"D": "1"}, {"Q": "1"}], "unknown generator kind 'Q'"),
], ids=["empty", "zero_terms", "unknown_kind"])
def test_subalgebras_from_json_rejects_bad_entries(basis, words):
    payload = [{"label": "ok", "basis": [{"D": "1"}]},
               {"label": "user", "basis": basis}]
    with pytest.raises(BadInput) as info:
        liealg.subalgebras_from_json(payload)
    assert "subalgebra user" in str(info.value)
    assert words in str(info.value)


def test_normalizer_of_shear_scaling_pair():
    # the pair behind the sqrt-t reduction is normalized by the square
    # root translation generator, a functional (non-polynomial) element
    sub = Subalgebra(basis=(S("1") + P("-1"), D("2*t") + S("y")),
                     label="shear-scaling")
    assert check_subalgebra(sub).closed
    assert normalizer_check(P("sqrt(abs(t))"), sub)
    assert normalizer_check(D("2*t") + S("y"), sub)
    assert not normalizer_check(P("t^2"), sub)


# ----------------------------------------------------------------------
# batched sampling of commutator and Jacobi coefficients
# ----------------------------------------------------------------------

_TFN = ["1", "t", "t^2", "t^3", "sin(t)", "1/t", "ln(t)"]
_YFN = ["1", "y", "y^2", "cos(y)", "sqrt(y)"]


def _commutator_trees():
    """20 coefficient trees of brackets and Jacobi sums of random
    elements, as the certificates build them; they share subtrees."""
    rng = np.random.default_rng(2024)

    def element():
        return (D(_TFN[rng.integers(0, len(_TFN))])
                + P(_TFN[rng.integers(0, len(_TFN))])
                + S(_YFN[rng.integers(0, len(_YFN))])
                + Z(_YFN[rng.integers(0, len(_YFN))]))

    trees = []
    while len(trees) < 20:
        q1, q2, q3 = element(), element(), element()
        jac = (commutator(q1, commutator(q2, q3))
               + commutator(q2, commutator(q3, q1))
               + commutator(q3, commutator(q1, q2)))
        for elem in (commutator(q1, q2), jac):
            trees += [(kind, c) for kind, c in elem.terms.items()]
    return trees[:20]


def test_sample_matches_scalar_on_commutator_trees():
    # points include 0 and negatives, where 1/t, ln(t) and sqrt(y) raise
    pts = chebyshev_points(10) + [0.0, -0.5]
    raised = 0
    for kind, c in _commutator_trees():
        elem = liealg.LieElement({kind: c})
        for xs in (chebyshev_points(10), pts, pts[::-1]):
            try:
                want = np.array([float(c(float(s))) for s in xs])
            except Exception as exc:  # noqa: BLE001 - compared by class
                raised += 1
                with pytest.raises(type(exc)):
                    elem.sample(kind, xs)
                continue
            assert elem.sample(kind, xs).tobytes() == want.tobytes(), c
    assert raised


def test_jacobi_sum_sample_matches_point_by_point_calls():
    # calling a tree at one point walks it whole and shares nothing, so it
    # is the reference for the walk that evaluates each shared node once
    rng = np.random.default_rng(30)
    q1, q2, q3 = (D(_TFN[rng.integers(0, len(_TFN))])
                  + P(_TFN[rng.integers(0, len(_TFN))])
                  + S(_YFN[rng.integers(0, len(_YFN))])
                  + Z(_YFN[rng.integers(0, len(_YFN))]) for _ in range(3))
    inner = commutator(q2, q3)
    jac = (commutator(q1, inner) + commutator(q2, commutator(q3, q1))
           + commutator(q3, commutator(q1, q2)))
    assert set(jac.terms) == set(liealg.KINDS)
    for kind, c in jac.terms.items():
        want = np.array([c(x) for x in TPTS])
        assert jac.sample(kind, TPTS).tobytes() == want.tobytes(), kind
    # the outer bracket differentiates the inner one's coefficient, and the
    # Jacobi sum holds that derivative as the one tree it keeps
    f = inner.coeff("D")
    assert any(n is f.diff() for n in expr_nodes(jac.coeff("D")))


@pytest.mark.parametrize("entry,words", [
    ({"label": "a", "basis": [{"D": "t"}, {"D": "2*t"}]},
     "basis of a is linearly dependent"),
    ({"basis": [{"D": "1"}]}, "subalgebra entry 1 has no label"),
    ({"label": "a"}, "subalgebra a has no basis"),
    ({"label": "a", "basis": [{"D": "a"}], "params": {"a": 3}},
     "subalgebra a: parameter 'a' takes a list of values"),
    ({"label": "a", "basis": [{"D": "1"}], "exclude": [3]},
     "subalgebra a: exclude must be a list of objects"),
    ({"label": "a", "basis": [{"D": "1"}], "params": "a"},
     "subalgebra a: params must be an object"),
    ({"label": "a", "basis": "D"}, "subalgebra a: the basis must be a list"),
    ({"label": "a", "basis": ["D"]}, "subalgebra a: the basis must be a list"),
    ({"label": "a", "basis": [None]}, "subalgebra a: the basis must be a list"),
    ({"label": "a", "basis": [{"D": 1}]},
     "subalgebra a: the basis must be a list of objects of coefficient "
     "texts"),
], ids=["dependent", "no_label", "no_basis", "scalar_params", "scalar_exclude",
        "text_params", "text_basis", "text_element", "null_element",
        "number_coefficient"])
def test_subalgebras_from_json_names_malformed_entries(entry, words):
    payload = [{"label": "ok", "basis": [{"D": "1"}]}, entry]
    with pytest.raises(BadInput, match=words):
        liealg.subalgebras_from_json(payload)


# ----------------------------------------------------------------------
# the bracket constructor and the work of a certificate
# ----------------------------------------------------------------------

@contextlib.contextmanager
def _plain_constructor(monkeypatch):
    """Build brackets, sums, scales and derivatives with a constructor
    that folds nothing, from fresh parsed trees that keep no derivative
    yet: the reference that ``exprdsl._mk`` is compared with.  The trees
    parsed meanwhile are dropped from the parse cache on the way out."""
    def plain(op, l, r, v):
        return exprdsl.Bin(op, l, r, v)

    with monkeypatch.context() as m:
        m.setattr(exprdsl, "_mk", plain)
        m.setattr(liealg, "_mk", plain)
        exprdsl.parse.cache_clear()
        try:
            yield
        finally:
            exprdsl.parse.cache_clear()


_TPOOL = ["1", "t", "t^2", "t^3", "sin(t)"]
_YPOOL = ["1", "y", "y^2", "cos(y)"]


def _certificate_run():
    """Every verdict of the bundled library and table, and the Jacobi and
    antisymmetry sums of 50 seeded triples with their verdicts."""
    closure = [(r.closed, r.abelian, r.failures)
               for r in map(check_subalgebra, load_subalgebra_library())]
    normal = {label: [normalizer_check(g, sub) for g in gens]
              for label, (sub, gens) in load_normalizer_table().items()}
    rng = np.random.default_rng(39)

    def element():
        return (D(_TPOOL[rng.integers(0, 5)]) + P(_TPOOL[rng.integers(0, 5)])
                + S(_YPOOL[rng.integers(0, 4)])
                + Z(_YPOOL[rng.integers(0, 4)]))

    sums = []
    for _ in range(50):
        q1, q2, q3 = element(), element(), element()
        sums.append(commutator(q1, q2) + commutator(q2, q1))
        sums.append(commutator(q1, commutator(q2, q3))
                    + commutator(q2, commutator(q3, q1))
                    + commutator(q3, commutator(q1, q2)))
    return closure, normal, sums


def test_folding_constructor_keeps_every_verdict(monkeypatch):
    closure, normal, sums = _certificate_run()
    with _plain_constructor(monkeypatch):
        plain_closure, plain_normal, plain_sums = _certificate_run()
    assert len(closure) == 56 and len(normal) == 7
    assert closure == plain_closure
    assert normal == plain_normal
    assert [is_zero(q) for q in sums] == [is_zero(q) for q in plain_sums]
    # every coefficient of these pools is finite on the interval, so each
    # dropped factor is, and only the sign of a zero may differ
    for q, plain in zip(sums, plain_sums):
        for kind in liealg.KINDS:
            assert (np.abs(q.sample(kind, TPTS)).tobytes()
                    == np.abs(plain.sample(kind, TPTS)).tobytes()), kind


def test_folding_constructor_shrinks_brackets(monkeypatch):
    assert commutator(D("1"), D("1")).terms == {}
    assert commutator(D("1"), D("t")).coeff("D") == exprdsl.Num(1.0, "t")

    def jacobi():
        q1, q2, q3 = (D("t^3") + P("sin(t)") + S("y^2") + Z("cos(y)"),
                      D("t^2") + P("t") + S("cos(y)") + Z("y"),
                      D("sin(t)") + P("t^2") + S("y") + Z("1"))
        return (commutator(q1, commutator(q2, q3))
                + commutator(q2, commutator(q3, q1))
                + commutator(q3, commutator(q1, q2)))

    def distinct_nodes(q):
        return sum(len({id(n) for n in expr_nodes(c)})
                   for c in q.terms.values())

    jac = jacobi()
    for c in jac.terms.values():
        assert not unfolded_nodes(c)
    with _plain_constructor(monkeypatch):
        assert commutator(D("1"), D("1")).terms != {}
        assert distinct_nodes(jac) < 0.9 * distinct_nodes(jacobi())


def test_check_subalgebra_samples_its_basis_once(monkeypatch):
    calls = []
    design = liealg._design_matrix

    def counted(basis, pts):
        calls.append(len(pts))
        return design(basis, pts)

    monkeypatch.setattr(liealg, "_design_matrix", counted)
    sub = Subalgebra((D("1"), D("t"), D("t^2"), P("1")))
    rep = check_subalgebra(sub)
    # once, at 2 * 4 + 4 points, for the rank check and the 6 brackets
    assert check_subalgebra(sub).failures == rep.failures and calls == [12]
    # a span certificate reads the kept design matrix: no new sample
    assert in_span(D("1"), sub) and not in_span(D("t^3"), sub)
    assert calls == [12]


def test_is_zero_walks_a_shared_subtree_once(monkeypatch):
    # D(sin t) - D(sin t) is zero, so P is walked too; its sin(t) is the
    # tree the D coefficient holds twice
    q = D("sin(t)") - D("sin(t)") + P("sin(t)")
    assert q.coeff("P") is parse("sin(t)", "t")
    calls = []
    real = jets.call

    def counted(f, x):
        calls.append(x)
        return real(f, x)

    monkeypatch.setattr(jets, "call", counted)
    assert not is_zero(q)
    assert len(calls) == 10


def _first_error(Q, pts, stop_at_nonzero):
    """The error that sampling each kind of ``Q`` point by point, in
    KINDS order, raises first; None if none does.  With
    ``stop_at_nonzero``, a kind that is not below 1e-9 ends the walk, as
    it ends :func:`is_zero`."""
    for kind in liealg.KINDS:
        c = Q.coeff(kind)
        if c is None:
            continue
        try:
            vals = [c(float(x)) for x in pts]
        except Exception as exc:  # noqa: BLE001 - compared by class
            return exc
        if stop_at_nonzero and max(map(abs, vals)) >= 1e-9:
            return None
    return None


@pytest.mark.parametrize("q", [
    D("ln(t - 1)") + P("sqrt(t - 2)"),
    D("ln(t - 1) + sqrt(t - 2)"),
    D("t") + P("ln(t - 1)") + S("sqrt(y - 2)"),
    D("t") - D("t") + P("sqrt(2 - t)") + Z("ln(y - 1)"),
    D("sin(t)") - D("sin(t)") + P("sin(t)") + Z("ln(y - 1)"),
    S("1/(y - 1.5)") + Z("sqrt(y - 1)"),
], ids=["D", "D_left_then_right", "P", "P_after_zero_D",
        "Z_after_nonzero_P", "S"])
def test_one_walk_raises_the_point_by_point_error(q):
    sub = Subalgebra((D("1"), D("t")))
    for certificate, pts, stop in (
            (lambda: in_span(q, sub), chebyshev_points(8), False),
            (lambda: is_zero(q), chebyshev_points(10), True)):
        exc = _first_error(q, pts, stop)
        if exc is None:
            certificate()
            continue
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            certificate()
