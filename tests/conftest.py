import itertools
import operator

import numpy as np
import pytest

from blp import exprdsl, jets
from blp.exprdsl import Bin, Call, Neg, Num, Var
from blp.jets import Jet3
from blp.transforms import WINDOW, InverseMapError


def central_diff(f, p, multi_index, h=None):
    """5-point central finite differences of a scalar field of (t, x, y).

    Independent oracle for jet-extracted partial derivatives.  ``f`` takes
    three floats; mixed derivatives are built by nesting the 5-point stencil
    one axis at a time.  The default step balances stencil truncation
    against roundoff amplification for the requested derivative order.
    """
    i, j, k = multi_index
    if h is None:
        h = 1e-4 if i + j + k <= 2 else 4e-3

    def d1(g, axis, m):
        if m == 0:
            return g

        def dg(t, x, y):
            args = [t, x, y]

            def shift(s):
                a = list(args)
                a[axis] += s * h
                return g(*a)

            return (-shift(2) + 8 * shift(1) - 8 * shift(-1) + shift(-2)) / (12 * h)

        return d1(dg, axis, m - 1)

    g = d1(d1(d1(f, 0, i), 1, j), 2, k)
    return g(*p)


def per_node(f):
    """A quadrature integrand, which takes the array of a panel's
    abscissae, from ``f``, which takes one float: ``f`` is called once per
    abscissa, in the panel's order, and the values are stacked."""
    return lambda s: np.array([f(float(z)) for z in s])


def jet_walk(e, x):
    """The expression ``e`` on the jet ``x`` by jet arithmetic alone:
    ``jets.call``, ``jets.power`` and the operators of ``Jet3``.  A
    reference for the univariate-series evaluators."""
    if isinstance(e, Num):
        return Jet3.constant(e.value, x.base, x.order)
    if isinstance(e, Var):
        return x
    if isinstance(e, Neg):
        return -jet_walk(e.arg, x)
    if isinstance(e, Call):
        return jets.call(exprdsl._CALL_JET[e.fn], jet_walk(e.arg, x))
    return _JET_OPS[e.op](jet_walk(e.left, x), jet_walk(e.right, x))


_JET_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
            "/": operator.truediv, "^": jets.power}


def expr_nodes(e):
    """Every node of the tree ``e``, depth first, once for each place it
    occupies (a subtree held twice is visited twice)."""
    yield e
    if isinstance(e, (Neg, Call)):
        yield from expr_nodes(e.arg)
    elif not isinstance(e, (Num, Var)):
        yield from expr_nodes(e.left)
        yield from expr_nodes(e.right)


def unfolded_nodes(e, given=()):
    """The nodes of ``e`` that the folding constructor never builds: a
    product, sum or difference with an exact zero operand, a power whose
    exponent is the number 1.0 or 0.0, and a negated number.  Nodes of
    the trees ``given`` (parsed trees, which keep what was written) are
    not counted."""
    skip = {id(n) for g in given for n in expr_nodes(g)}

    def zero(n):
        return isinstance(n, Num) and n.value == 0.0

    return [n for n in expr_nodes(e) if id(n) not in skip and (
        isinstance(n, Bin) and n.op in "*+-" and (zero(n.left) or zero(n.right))
        or isinstance(n, Bin) and n.op == "^" and isinstance(n.right, Num)
        and n.right.value in (0.0, 1.0)
        or isinstance(n, Neg) and isinstance(n.arg, Num))]


def bisect_inverse(f, target, stop=1e-15):
    """f(s) = target on ``transforms.WINDOW`` by 200 steps of bisection, a
    reference for the Newton inverse of ``transforms``; it stops early
    once the bracket is narrower than ``stop`` (1 + |s|), and with
    ``stop=0`` ends at two neighbouring floats or after 200 halvings."""
    lo, hi = WINDOW
    flo, fhi = f(lo), f(hi)
    if not (min(flo, fhi) <= target <= max(flo, fhi)):
        raise InverseMapError(
            f"target {target} outside the image [{min(flo, fhi)}, "
            f"{max(flo, fhi)}] of the window")
    increasing = fhi > flo
    a, b = lo, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if abs(b - a) < stop * (1.0 + abs(mid)):
            break
        if (f(mid) < target) == increasing:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def grid_points(tr, xr, yr, n):
    ts = np.linspace(*tr, n)
    xs = np.linspace(*xr, n)
    ys = np.linspace(*yr, n)
    return [(t, x, y) for t, x, y in itertools.product(ts, xs, ys)]


def relerr(a, b):
    return abs(a - b) / (1.0 + abs(b))
