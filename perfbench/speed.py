"""Machine speed, sampled between operations with a fixed reference kernel.

On a shared host the same work can take 1.6 times longer from one minute
to the next (the host's other tenants come and go).  Wall times are
therefore divided by how slow the machine was while they were taken.  A
reference kernel, made of the program's kind of work (small numpy
arrays, Bessel functions, small Cholesky solves) but none of its code,
runs before and after each timed segment, and the segment's wall time is
divided by the mean of the two slowdowns.  A long library call is cut
into pieces at the calls it makes (``Speedometer.split_at``), so that no
piece is longer than a second or two.  A change to the program moves its
normalized times as it moves its wall times.
"""

from __future__ import annotations

import contextlib
import statistics
import time

import numpy as np
import scipy.linalg as sla
import scipy.special

# Median seconds of one kernel repetition on the reference machine (2-vCPU
# x86-64 VM, Python 3.11, numpy 2.4, one BLAS thread, quiet host).  It only
# fixes the unit: normalized seconds are seconds on that machine.
REFERENCE_S = 0.0033
REPEATS = 3

_X = np.linspace(0.05, 4.0, 400)
_V = np.linspace(0.0, 1.0, 100)
_M = np.random.default_rng(0).standard_normal((80, 80))
_M = _M @ _M.T + 80.0 * np.eye(80)


def _kernel() -> float:
    # Timed against repeated predict_new calls on a shared 2-vCPU VM, these
    # three parts track the program's slowdown; pure interpreter loops
    # overreact to it.
    acc = 0.0
    for _ in range(120):
        y = np.clip(_V * 1.01 - 0.005, 0.0, 1.0)
        acc += float((y * y * (3.0 - 2.0 * y)).sum())
    for i in range(6):
        acc += float(scipy.special.kv(3.0, _X + i * 1e-3).sum())
    for _ in range(24):
        c = sla.cho_factor(_M, lower=True, check_finite=False)
        acc += float(sla.solve_triangular(c[0], _M[:, :4], lower=True, check_finite=False)[0, 0])
    return acc


class Speedometer:
    """Slowdown samples of one run; 1.0 is the reference machine's speed."""

    def __init__(self):
        self.ratios: list = []
        self.sample()

    def sample(self) -> float:
        reps = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            _kernel()
            reps.append(time.perf_counter() - t0)
        ratio = statistics.median(reps) / REFERENCE_S
        self.ratios.append(ratio)
        return ratio

    def normalize(self, wall_times: list) -> list:
        """Wall times taken since the last sample, in reference seconds."""
        before = self.ratios[-1]
        slowdown = 0.5 * (before + self.sample())
        return [t / slowdown for t in wall_times]

    @contextlib.contextmanager
    def split_at(self, module, names):
        """Time the block piecewise, sampling whenever ``module.<name>`` returns.

        The wrappers only take samples; the block's calls, arguments and
        results are unchanged, and the originals are restored on exit.
        Yields a ``Split`` whose ``seconds`` and ``wall`` hold the totals.
        """
        split = Split(self)
        saved = {name: getattr(module, name) for name in names}

        def cutting(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                split.cut()
                return out

            return wrapper

        try:
            for name, fn in saved.items():
                setattr(module, name, cutting(fn))
            split.start()
            yield split
            split.cut()
        finally:
            for name, fn in saved.items():
                setattr(module, name, fn)


class Split:
    """Reference seconds and wall seconds of a block timed piecewise."""

    def __init__(self, speed: Speedometer):
        self.speed = speed
        self.seconds = 0.0
        self.wall = 0.0
        self._t0 = None

    def start(self) -> None:
        self.speed.sample()
        self._t0 = time.perf_counter()

    def cut(self) -> None:
        wall = time.perf_counter() - self._t0
        (seconds,) = self.speed.normalize([wall])
        self.seconds += seconds
        self.wall += wall
        self._t0 = time.perf_counter()
