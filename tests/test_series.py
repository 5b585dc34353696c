"""The one univariate Taylor layer against the copies it replaced.

Each reference below is a deleted copy of a mechanism that now lives
once: ``series.horner`` (the dense output and stepper of the Painleve
profiles, and ``jets.apply_taylor``), the recurrence phi'' = F'(phi)/2
of ``QuarticODE.taylor`` (P's own Taylor tail), and ``series.cauchy``
(P's Laurent coefficients).  Each must give the bits of its reference.
The product pairs of a ``series.Layout`` are checked against the loop
that listed them before they were enumerated with arrays.
"""

import numpy as np
import pytest

from blp import jets, series, specfun
from blp.jets import Jet3, Point
from blp.specfun import EllipticInvariants, invariants_from_quartic


def _old_horner(c, h):
    """The Horner sum of the profile stepper and dense output, from 0.0."""
    acc = 0.0
    for a in reversed(c):
        acc = acc * h + a
    return acc


def _old_apply_taylor(coeffs, a):
    """``jets.apply_taylor`` by Horner from the constant jet of the top
    coefficient, one jet product per order."""
    n = a.order
    top = min(int(n), coeffs.shape[-1] - 1)
    c = coeffs.tolist() if coeffs.ndim == 1 else list(coeffs.T)
    shifted = a - a.value
    out = Jet3.constant(c[top], a.base, n)
    for k in range(top - 1, -1, -1):
        out = out * shifted + c[k]
    return out


def _old_p_series(p, dp, g2, n):
    """Taylor coefficients 0..n+2 of P from P'' = 6 P^2 - g2/2."""
    u = [p, dp]
    for k in range(0, n + 1):
        rhs = 6.0 * series.cauchy(u, u, k) - (0.5 * g2 if k == 0 else 0.0)
        u.append(rhs / ((k + 2) * (k + 1)))
    return np.stack(u, axis=-1)


def _old_laurent_coeffs(g2, g3):
    """P's Laurent coefficients by a hand-summed Cauchy product."""
    n = specfun._N_LAURENT
    c = np.zeros(n + 1)
    c[2] = g2 / 20.0
    c[3] = g3 / 28.0
    for k in range(4, n + 1):
        acc = 0.0
        for m in range(2, k - 1):
            acc += c[m] * c[k - m]
        c[k] = 3.0 * acc / ((2 * k + 1) * (k - 3))
    return c


def _old_pairs(exps):
    """The product pairs (a, b, out) of a layout, by a and then b."""
    index = {e: m for m, e in enumerate(exps)}
    order = sum(exps[-1])
    pairs = []
    for ma, ea in enumerate(exps):
        for mb, eb in enumerate(exps):
            if sum(ea) + sum(eb) <= order:
                mo = index.get(tuple(map(sum, zip(ea, eb))))
                if mo is not None:
                    pairs.append((ma, mb, mo))
    return pairs


def _jet(rng, order, lanes):
    """A jet of random coefficients at a random point, or over lanes."""
    size = jets.jet_size(order)
    if lanes is None:
        base = Point(*rng.uniform(-2.0, 2.0, size=3))
        return Jet3(base, order, rng.standard_normal(size))
    base = Point(*rng.uniform(-2.0, 2.0, size=(3, lanes)))
    return Jet3(base, order, rng.standard_normal((lanes, size)))


@pytest.mark.parametrize("lanes", [None, 1, 4])
def test_horner_of_floats_and_lanes_is_the_old_sum(rng, lanes):
    for _ in range(200):
        n = int(rng.integers(1, 12))
        shape = (n,) if lanes is None else (n, lanes)
        c = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
        h = rng.uniform(-0.5, 0.5) if lanes is None else \
            rng.uniform(-0.5, 0.5, size=lanes)
        rows = c.tolist() if lanes is None else c
        got, want = series.horner(rows, h), _old_horner(rows, h)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert type(got) is type(want)


@pytest.mark.parametrize("lanes", [None, 3])
def test_apply_taylor_is_the_old_horner_of_jets(rng, lanes):
    # the generic Horner scales the jet by the top coefficient instead of
    # forming a product with a constant jet; a coefficient may differ
    # only in the sign of an exact zero
    for order in range(0, 7):
        for i in range(20):
            a = _jet(rng, order, lanes)
            if i % 2:   # a coordinate jet: most coefficients exactly 0
                a = jets.lift_variable("txy"[i % 3], a.base, order)
            n = int(rng.integers(1, order + 3))
            coeffs = rng.standard_normal(n if lanes is None else (lanes, n))
            got = jets.apply_taylor(coeffs, a)
            want = _old_apply_taylor(coeffs, a)
            assert got.order is want.order and got.base is want.base
            assert ((got.coeffs + 0.0).tobytes()
                    == (want.coeffs + 0.0).tobytes()), (order, n)


def test_apply_taylor_runs_one_jet_product_fewer(rng, monkeypatch):
    a = _jet(rng, 4, 2)
    products = []
    mul = Jet3.__mul__

    def counted(self, other):
        products.append(isinstance(other, Jet3))
        return mul(self, other)

    monkeypatch.setattr(Jet3, "__mul__", counted)
    monkeypatch.setattr(Jet3, "__rmul__", counted)
    jets.apply_taylor(rng.standard_normal((2, 6)), a)
    assert products == [False] + [True] * 3


def test_weierstrass_taylor_series_is_the_old_recurrence(rng):
    # P'' = F'(P)/2 on P's own quartic gives the bits of P'' = 6 P^2 - g2/2
    for _ in range(500):
        g2, g3 = rng.uniform(-20.0, 20.0, size=2)
        lanes = int(rng.integers(0, 5))
        shape = () if lanes == 0 else (lanes,)
        p, dp = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3)
                 for _ in range(2))
        if lanes == 0:
            p, dp = float(p), float(dp)
        n = int(rng.integers(0, 12))
        quartic = EllipticInvariants(g2, g3).quartic
        got = np.stack(quartic.taylor(p, dp, n + 2), axis=-1)
        assert got.tobytes() == _old_p_series(p, dp, g2, n).tobytes()


def test_weierstrass_series_reads_the_old_recurrence(rng):
    for _ in range(50):
        inv = EllipticInvariants(*rng.uniform(-5.0, 5.0, size=2))
        z = float(rng.uniform(0.05, 0.3))
        n = int(rng.integers(0, 9))
        p, dp, zeta = specfun.weierstrass_p(z, inv)
        u = _old_p_series(p, dp, inv.g2, n)
        got = specfun.weierstrass_series(z, inv, n)
        assert got[0].tobytes() == u[: n + 1].tobytes()
        assert got[1].tobytes() == series.integral(u, zeta, n).tobytes()


def test_weierstrass_quartic_has_the_lattice_invariants(rng):
    for _ in range(50):
        g2, g3 = (float(v) for v in rng.uniform(-20.0, 20.0, size=2))
        inv = EllipticInvariants(g2, g3)
        assert invariants_from_quartic(inv.quartic) == inv


def test_laurent_coefficients_are_the_old_loop(rng):
    for _ in range(1000):
        g2, g3 = rng.uniform(-50.0, 50.0, size=2) * 10.0 ** rng.uniform(-3, 3)
        assert (specfun._laurent_coeffs(g2, g3).tobytes()
                == _old_laurent_coeffs(g2, g3).tobytes())


@pytest.mark.parametrize("key", [0, 1, 4, 9, jets.cap(3, "t", 1),
                                 jets.cap(6, "x", 0),
                                 jets.cap(jets.cap(7, "t", 1), "y", 2)],
                         ids=repr)
def test_product_pairs_are_the_old_loop(key):
    for lay in (jets._tables(key), series.univariate(int(key))):
        pairs = list(zip(lay.mul_a.tolist(), lay.mul_b.tolist(),
                         lay.mul_out.tolist()))
        assert pairs == _old_pairs(lay.exps)
        assert lay.mul_a.dtype == lay.mul_out.dtype == np.intp
