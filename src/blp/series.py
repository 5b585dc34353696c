"""Truncated Taylor series and the degree recurrences of elementary functions.

A univariate series is a float array ``c`` with ``c[k]`` the k-th Taylor
coefficient; :func:`mul`, :func:`derivative`, :func:`integral` and
:func:`toeplitz` act on such arrays of any length; :func:`cauchy` gives
one coefficient of a product, for recurrences on float lists.

A :class:`Layout` holds the coefficients of a truncated series in one or
more variables as one array, graded by degree.  :func:`univariate` gives
the layout of one variable; ``jets._Tables`` extends it to trivariate
jets.

The elementary functions (``exp``, ``ln``, powers, the ``sin``/``cos`` and
``sinh``/``cosh`` pairs, ``tan``) and division are computed by Taylor
recurrences on homogeneous-degree parts, derived from the Euler operator
E, which multiplies the degree-d part by d (Neidinger, "Computing
multivariable Taylor series to arbitrary order", APL Quote Quad 25, 1995;
Griewank & Walther, *Evaluating Derivatives*, 2nd ed., ch. 13).  For
b = exp(a), E b = b E a gives d b_d = sum_{k=1..d} k a_k b_{d-k}: each
degree part is the lower parts times a matrix built once from ``a``
(:meth:`Layout.lower`).  The same code serves every layout.  These
functions do not guard: a caller checks the value ``a[0]`` first
(``jets.elementary``, ``jets.quotient``).

:meth:`Layout.mul`, :meth:`Layout.lower` and the recurrences also take a
batch: a (B, size) array holds one series per row, a lane, and the
other operand may be one series or a batch of the same B.  One series
keeps the operations of a single array, so its bits do not depend on
batching.  A batch sums the nonzero products of each coefficient with
``np.add.reduceat`` and computes values with NumPy's ufuncs instead of
:mod:`math`, so each lane agrees with its series alone to roundoff.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

__all__ = ["mul", "cauchy", "derivative", "toeplitz", "integral", "Layout",
           "univariate", "exp", "ln", "power", "int_power", "div",
           "sin_cos", "tan"]


def mul(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Coefficients 0..n of the product of two univariate series."""
    return np.convolve(a, b)[: n + 1]


def cauchy(a, b, k: int) -> float:
    """Coefficient k of the product of two univariate series, summed in
    order of the index into ``a``; each needs coefficients 0..k."""
    return sum(map(operator.mul, a[: k + 1], b[k::-1]))


def derivative(c: np.ndarray) -> np.ndarray:
    """Coefficients of the derivative, one fewer."""
    return c[1:] * np.arange(1, len(c))


def toeplitz(c: np.ndarray) -> np.ndarray:
    """The lower-triangular Toeplitz matrix of each series in the last axis
    of ``c``: ``toeplitz(c) @ b`` is the product ``c b``, truncated to the
    length of ``c``."""
    lag, below = _lags(c.shape[-1])
    return np.where(below, c[..., lag], 0.0)


@functools.lru_cache(maxsize=None)
def _lags(n: int) -> tuple[np.ndarray, np.ndarray]:
    lag = np.subtract.outer(np.arange(n), np.arange(n))
    return np.maximum(lag, 0), lag >= 0


def integral(c: np.ndarray, c0: float, n: int) -> np.ndarray:
    """Coefficients 0..n of the antiderivative with constant term ``c0``."""
    out = np.empty(n + 1)
    out[0] = c0
    out[1:] = c[:n] / np.arange(1, n + 1)
    return out


class Layout:
    """Coefficient layout of truncated Taylor series graded by degree.

    ``exps`` lists the exponent tuples of the monomials, by degree.
    """

    def __init__(self, exps: list[tuple[int, ...]]):
        deg = [sum(e) for e in exps]
        order = deg[-1]
        self.order = order
        self.exps = exps
        self.size = len(exps)
        self.index = {e: m for m, e in enumerate(exps)}
        # truncated Cauchy product: out[io] += a[ia] * b[ib]
        ia, ib, io = [], [], []
        for ma, ea in enumerate(exps):
            for mb, eb in enumerate(exps):
                if deg[ma] + deg[mb] > order:
                    continue
                ia.append(ma)
                ib.append(mb)
                io.append(self.index[tuple(map(operator.add, ea, eb))])
        self.mul_a = np.asarray(ia, dtype=np.intp)
        self.mul_b = np.asarray(ib, dtype=np.intp)
        self.mul_out = np.asarray(io, dtype=np.intp)
        # the degree of each coefficient (the Euler operator) and the
        # slice of each degree part
        deg = np.asarray(deg, dtype=np.intp)
        self.euler = deg.astype(float)
        starts = np.searchsorted(deg, np.arange(order + 2))
        self.blocks = [slice(int(starts[d]), int(starts[d + 1]))
                       for d in range(order + 1)]
        # the product pairs whose first factor has degree >= 1 (all but the
        # first ``size``, those of the constant term), by their output and
        # so by its degree d: entries of a dense (degree d) x (degrees
        # below d) matrix, all of these matrices in one flat array
        by_out = np.argsort(self.mul_out[self.size:], kind="stable")
        src = self.mul_a[self.size:][by_out]
        col = self.mul_b[self.size:][by_out]
        out = self.mul_out[self.size:][by_out]
        deg_out = deg[out]
        cols = starts[deg_out]
        sizes = [(b.stop - b.start) * b.start for b in self.blocks]
        offsets = np.cumsum([0] + sizes)
        self._low_at = offsets[deg_out] + (out - cols) * cols + col
        self._low_src = src
        self._low_len = int(offsets[-1])
        self._low_views = [(b, slice(0, b.start), int(offsets[d]),
                            int(offsets[d + 1]), (b.stop - b.start, b.start))
                           for d, b in enumerate(self.blocks) if d]
        # for a batch, each degree's pairs as a slice of them, their
        # columns and the first pair of each output (:class:`_LaneBlock`)
        first = np.searchsorted(out, np.arange(self.size + 1))
        self._lane_views = [
            ((slice(None), b), (slice(None), slice(0, b.start)),
             int(first[b.start]), col[first[b.start]:first[b.stop]],
             first[b] - first[b.start])
            for b in self.blocks[1:]]
        #: per pair of :meth:`lower`, k/d: the degree of its x factor over
        #: the degree of its output
        self.ratio = deg[src] / deg_out
        # the pairs of :meth:`mul` by output, and the first of each output
        by_out = np.argsort(self.mul_out, kind="stable")
        self._lane_mul = (self.mul_a[by_out], self.mul_b[by_out],
                          np.searchsorted(self.mul_out[by_out],
                                          np.arange(self.size)))

    def mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Truncated product of two coefficient arrays or batches."""
        if x.ndim == 1 and y.ndim == 1:
            return np.bincount(
                self.mul_out, weights=x[self.mul_a] * y[self.mul_b],
                minlength=self.size)
        a, b, first = self._lane_mul
        terms, other = x.take(a, axis=-1), y.take(b, axis=-1)
        if terms.ndim < other.ndim:
            terms, other = other, terms
        terms *= other
        return np.add.reduceat(terms, first, axis=-1)

    def lower(self, x: np.ndarray, weight=1.0) -> list:
        """y -> (x - x_0) y, each term scaled by ``weight``, by degree.

        ``weight`` is a scalar or an array over the pairs, like
        :attr:`ratio`, or over (lanes, pairs) for a batch.  Returns
        ``(part, below, m)`` for each degree d >= 1: the degree-d part
        ``y[part]`` of the product is ``m @ y[below]``, the degrees below
        d, for ``y`` batched as ``x``.  For one series ``m`` is a dense
        matrix; for a batch, its nonzero entries (:class:`_LaneBlock`).
        """
        if x.ndim == 2:
            terms = x.take(self._low_src, axis=1)
            terms *= weight
            return [(part, below,
                     _LaneBlock(terms[:, start:start + len(cols)], cols,
                                rows))
                    for part, below, start, cols, rows in self._lane_views]
        terms = x[self._low_src] * weight
        flat = np.zeros(self._low_len)
        flat[self._low_at] = terms
        return [(blk, below, flat[start:stop].reshape(shape))
                for blk, below, start, stop, shape in self._low_views]


class _LaneBlock:
    """One degree of :meth:`Layout.lower` for a batch of series: the
    nonzero entries ``terms`` (lanes, pairs) of the lanes' matrices, the
    column of each pair, and the first pair of each row."""
    __slots__ = ("terms", "cols", "rows")

    def __init__(self, terms: np.ndarray, cols: np.ndarray,
                 rows: np.ndarray):
        self.terms, self.cols, self.rows = terms, cols, rows

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """Each lane's matrix times its rows of ``v``, (lanes, columns) or
        (lanes, columns, k)."""
        products = v.take(self.cols, axis=1)
        products *= self.terms if v.ndim == 2 else self.terms[..., None]
        return np.add.reduceat(products, self.rows, axis=1)


_UNIVARIATE: dict[int, Layout] = {}


def univariate(order: int) -> Layout:
    """Layout of a univariate series of ``order``, built once."""
    lay = _UNIVARIATE.get(order)
    if lay is None:
        lay = _UNIVARIATE[order] = Layout([(k,) for k in range(order + 1)])
    return lay


# ----------------------------------------------------------------------
# recurrences; ``a`` is the argument's coefficient array in layout ``lay``,
# or a batch of them
# ----------------------------------------------------------------------

def exp(a: np.ndarray, lay: Layout) -> np.ndarray:
    # E b = b E a:  b_d = sum_{k=1..d} (k/d) a_k b_{d-k}
    b = np.zeros(a.shape)
    if a.ndim == 1:
        b[0] = math.exp(a[0])
    else:
        b[:, 0] = np.exp(a[:, 0])
    for part, below, m in lay.lower(a, lay.ratio):
        b[part] = m @ b[below]
    return b


def ln(a: np.ndarray, lay: Layout) -> np.ndarray:
    # a E b = E a:  a_0 b_d = a_d - sum_{k=1..d} (1 - k/d) a_k b_{d-k}
    b = np.zeros(a.shape)
    if a.ndim == 1:
        a0 = float(a[0])
        b[0] = math.log(a0)
    else:
        a0 = a[:, :1]
        b[:, :1] = np.log(a0)
    c = a / a0
    for part, below, m in lay.lower(a, (lay.ratio - 1.0) / a0):
        b[part] = c[part] + m @ b[below]
    return b


def power(a: np.ndarray, r: float, lay: Layout) -> np.ndarray:
    # a E b = r b E a:  a_0 b_d = sum_{k=1..d} ((r+1) k/d - 1) a_k b_{d-k}
    b = np.zeros(a.shape)
    if a.ndim == 1:
        a0 = float(a[0])
        b[0] = a0 ** r
    else:
        a0 = a[:, :1]
        b[:, :1] = a0 ** r
    for part, below, m in lay.lower(a, ((r + 1.0) * lay.ratio - 1.0) / a0):
        b[part] = m @ b[below]
    return b


def int_power(a: np.ndarray, r: int, lay: Layout) -> np.ndarray:
    """``a`` to a nonnegative integer power, by products (exact at a_0 = 0)."""
    out = None
    while r:
        if r & 1:
            out = a if out is None else lay.mul(out, a)
        r >>= 1
        if r:
            a = lay.mul(a, a)
    if out is None:
        out = np.zeros(lay.size)
        out[0] = 1.0
    return out


def div(a: np.ndarray, b: np.ndarray, lay: Layout) -> np.ndarray:
    """Quotient a / b:  b_0 q_d = a_d - sum_{k=1..d} b_k q_{d-k}."""
    if a.ndim == 1 and b.ndim == 1:
        b0 = float(b[0])
        c = a / b0
        q = np.zeros(lay.size)
        q[0] = c[0]
    else:
        b = np.broadcast_to(b, np.broadcast_shapes(a.shape, b.shape))
        b0 = b[:, :1]
        c = a / b0
        q = np.zeros(c.shape)
        q[:, 0] = c[:, 0]
    for part, below, m in lay.lower(b, -1.0 / b0):
        q[part] = c[part] + m @ q[below]
    return q


#: (s_d, c_d) = (M s, M c) @ rot, for the circular and hyperbolic pairs
_ROT = {False: np.array([[0.0, -1.0], [1.0, 0.0]]),
        True: np.array([[0.0, 1.0], [1.0, 0.0]])}


def sin_cos(a: np.ndarray, lay: Layout, hyper: bool = False
            ) -> tuple[np.ndarray, np.ndarray]:
    """(sin a, cos a), or (sinh a, cosh a) if ``hyper``."""
    # E s = c E a,  E c = -+ s E a:  (s, c)_d = (M c, -+ M s)
    sc = np.zeros(a.shape[:-1] + (lay.size, 2))
    if a.ndim == 1:
        a0 = float(a[0])
        sc[0] = ((math.sinh(a0), math.cosh(a0)) if hyper
                 else (math.sin(a0), math.cos(a0)))
    else:
        a0 = a[:, 0]
        sc[:, 0] = np.stack((np.sinh(a0), np.cosh(a0)) if hyper
                            else (np.sin(a0), np.cos(a0)), axis=-1)
    rot = _ROT[hyper]
    for part, below, m in lay.lower(a, lay.ratio):
        sc[part] = m @ sc[below] @ rot
    return sc[..., 0].copy(), sc[..., 1].copy()


def tan(a: np.ndarray, lay: Layout) -> np.ndarray:
    return div(*sin_cos(a, lay), lay)
