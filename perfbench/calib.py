"""Host-speed calibration: a fixed numpy kernel sampled while the workload runs.

The benchmark runs on a few cores of a shared host whose speed drifts by
20-40% over seconds to minutes as other tenants load it, so a raw iteration
time mixes that drift with the program's own cost.  While a ``Sampler`` is
active, a SIGALRM every ``PERIOD_S`` runs one unit of a small fixed kernel in
the same thread, between two bytecodes of the workload, and times it.  The
kernel does not touch bsdelab or its random streams: it is a fixed mix of the
operations the workloads spend their time in (normal draws, element-wise
exp/log, an M x 4 normal equation) on 2e3-vectors it allocates once.  Its
data fits in the second-level cache, so its speed follows the core's speed
and depends less on what the workload left in the caches: measured on the
three workloads, a unit took 1.2-1.4 times as long inside an iteration as in
a run of units right after it, where the same unit on 2e4-vectors took
1.4-1.5 times as long.

An interval's time with the kernel's own time taken out, divided by the
kernel's mean unit time over that interval and multiplied by ``REF_UNIT_S``,
is the interval's time in seconds at the reference speed: the speed at which
one unit takes ``REF_UNIT_S``.  A faster or slower program moves that
quotient in proportion; a faster or slower host moves the kernel with it and
leaves the quotient where it was.  The kernel costs about 3% of the
interval.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Typical mean unit wall time inside an iteration on the reference host
# (2 vCPU KVM guest on a shared Intel Xeon, numpy 2.4 with OpenBLAS on one
# thread).  It only sets the scale of the reported seconds.
REF_UNIT_S = 7.0e-4
# Sampling period: a hundred samples or more in the shortest workload
# iteration, a dozen or more in a set-up.
PERIOD_S = 0.02

_N = 2_000
_rng = np.random.default_rng(20050101)
_X = _rng.standard_normal(_N)
_A = np.column_stack([np.ones(_N), _X, _X * _X, np.sin(_X)])
_x, _y = np.empty(_N), np.empty(_N)


def _unit():
    for _ in range(8):
        _rng.standard_normal(out=_x)
        np.add(_X, _x, out=_x)
        np.multiply(_x, _x, out=_x)
        np.multiply(_x, -0.5, out=_y)
        np.exp(_y, out=_y)
        np.log1p(_x, out=_x)
        np.add(_y, _x, out=_y)
        coef = np.linalg.solve(_A.T @ _A, _A.T @ _y)
    return coef


class Sampler:
    """Context manager that samples the kernel while its body runs."""

    def __init__(self):
        self.wall, self.cpu = [], []

    def _tick(self, signum, frame):
        c0, t0 = time.process_time(), time.perf_counter()
        _unit()
        self.wall.append(time.perf_counter() - t0)
        self.cpu.append(time.process_time() - c0)

    def __enter__(self):
        self.wall.clear()
        self.cpu.clear()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def summary(self):
        """Sample count and the kernel's total and mean wall and CPU time."""
        n = len(self.wall)
        if n == 0:
            raise ValueError("no calibration sample in the timed interval")
        return {
            "n": n,
            "wall_total": sum(self.wall),
            "cpu_total": sum(self.cpu),
            "wall_mean": sum(self.wall) / n,
            "cpu_mean": sum(self.cpu) / n,
        }


def scaled(raw_s, summary, kind="wall"):
    """raw_s seconds of that kind at the reference speed, kernel time taken out."""
    return (raw_s - summary[f"{kind}_total"]) * REF_UNIT_S / summary[f"{kind}_mean"]
