"""Host-speed reference for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed changes
from moment to moment: the same fixed loop takes anywhere from 1x to
about 1.9x its fastest time, each core switching between a fast and a
slow state every tenth of a second to every few seconds, and the share
of slow time drifts over minutes.  A run of fixed work therefore reads
up to a quarter slower or faster than the run before it, which hides any
change to the program.

:func:`kernel` is a fixed computation owned by the benchmark, never by
the toolkit: truncated power-series arithmetic on small numpy arrays
through Python objects, the same mix of interpreter work and tiny array
operations that the toolkit's jets do.  :class:`Sampler` times it while
the requests run -- from a timer signal every ``INTERVAL_S`` seconds, so
a long request is sampled throughout, and once after every request, so a
short one has a sample next to it -- and the run reports each request's
time scaled to the reference speed::

    reported = measured * REFERENCE_S / (mean kernel time during it)

A request run while the host is slow then reads about the same as one
run while it is fast, and a change to the toolkit still moves every
timing in full, because the kernel does not use the toolkit.  The time
spent in the kernel is taken out of every measured time.
"""

from __future__ import annotations

import gc
import math
import signal
import time

import numpy as np

#: kernel time, in seconds, that defines the reference speed: about its
#: time on a core of the 2-core host the benchmark was tuned on, in that
#: host's fast state
REFERENCE_S = 0.0003
#: seconds between samples taken while a request runs
INTERVAL_S = 0.05
_ORDER = 12
_TERMS = 12


class _Series:
    """A truncated power series, like a one-variable jet."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __add__(self, other):
        if isinstance(other, _Series):
            return _Series(self.c + other.c)
        out = self.c.copy()
        out[0] += other
        return _Series(out)

    def __mul__(self, other):
        if isinstance(other, _Series):
            return _Series(np.convolve(self.c, other.c)[:len(self.c)])
        return _Series(self.c * other)


def _exp(a: _Series) -> _Series:
    n = len(a.c)
    out = np.zeros(n)
    out[0] = math.exp(a.c[0])
    d = a.c * np.arange(n)
    for k in range(1, n):
        out[k] = float(np.dot(d[1:k + 1], out[k - 1::-1][:k])) / k
    return _Series(out)


def kernel() -> float:
    """The fixed reference computation (well under a millisecond)."""
    acc = 0.0
    memo = {}
    for i in range(_TERMS):
        x = _Series(np.array([0.1 * i, 1.0] + [0.0] * (_ORDER - 2)))
        y = _exp(x * 0.5 + 1.0) * x + x * x
        memo[(i, "y")] = y
        acc += float(y.c[3])
    return acc


class Sampler:
    """Times :func:`kernel` during and between the timed requests.

    Use as a context manager around the timed phase.  Each sample is
    ``(start, duration)`` in ``time.perf_counter`` seconds; the cyclic
    garbage collector is held off while the kernel runs, so a collection
    of the toolkit's garbage is never charged to the host.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._previous = None
        self._busy = False

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        self._busy = True
        try:
            t0 = time.perf_counter()
            kernel()
            self.samples.append((t0, time.perf_counter() - t0))
        finally:
            self._busy = False
            if enabled:
                gc.enable()

    def _on_timer(self, signum, frame):
        if not self._busy:
            self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def time(self, fn, *args):
        """Run ``fn(*args)``; return its result, kernel-free seconds and
        the host's slowness during it (mean kernel time / reference)."""
        first = len(self.samples)
        t0 = time.perf_counter()
        result = fn(*args)
        t1 = time.perf_counter()
        spent = sum(d for s, d in self.samples[first:] if s < t1)
        self.sample()
        # the samples taken during it and the two that bracket it
        near = self.samples[max(0, first - 1):]
        slowness = sum(d for _, d in near) / len(near) / REFERENCE_S
        return result, (t1 - t0) - spent, slowness
