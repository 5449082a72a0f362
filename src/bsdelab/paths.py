"""Time grids, Brownian increment batches, forward simulation, stopping.

Increments are drawn per fixed-size path block from an independent Philox
stream keyed by (seed, block index).  Because the block size is a constant of
the scheme, path m is a pure function of (seed, n_steps, d, m): enlarging the
batch appends paths without disturbing existing ones, and any contiguous
range of blocks can be generated concurrently.

Every per-step array is stored time-major, step index first: increments as
(n_steps, M, d), states as (n_steps+1, M, n), so each step reads and writes
one contiguous row.  The public attributes keep their path-major (M, ...)
shapes as transposed views of that storage; _time_major recovers the
storage without a copy, and copies a caller-built path-major array once.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Generator, _norm_last
from .errors import NumericalError, ValidationError

# Fixed block size of the stream-splitting scheme.  Changing it changes every
# sampled path, so it is deliberately not configurable.
PATH_BLOCK = 4096


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t_start, t_end] with n_steps intervals.

    Nodes are computed as t_start + i*dt (one multiply per node, no running
    sums) and the final node is pinned to t_end exactly.
    """

    t_start: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise ValidationError(
                f"need t_start < t_end, got [{self.t_start}, {self.t_end}]"
            )
        if self.n_steps < 1:
            raise ValidationError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.n_steps

    def times(self) -> np.ndarray:
        t = self.t_start + self.dt * np.arange(self.n_steps + 1)
        t[-1] = self.t_end
        return t


def _time_major(a: np.ndarray) -> np.ndarray:
    """The (steps, M, ...) storage behind a path-major (M, steps, ...) array.

    A view for the transposed views this package builds; a caller-built
    C-contiguous path-major array is copied once.
    """
    return np.ascontiguousarray(np.swapaxes(a, 0, 1))


@dataclass(frozen=True)
class BrownianBatch:
    """Increments of M independent d-dimensional Brownian paths on a grid.

    increments has shape (M, n_steps, d); sample_brownian stores it
    time-major, as a transposed view of an (n_steps, M, d) buffer.
    """

    grid: TimeGrid
    increments: np.ndarray  # (M, n_steps, d)

    def cumulative(self, start=0.0) -> np.ndarray:
        """Path values (M, n_steps+1, d); start may be scalar or (M, d).

        The result is a transposed view of an (n_steps+1, M, d) buffer.
        Each node is the running sum of the increments before it plus the
        start, summed step by step as np.cumsum would.
        """
        incr = _time_major(self.increments)
        N, M, d = incr.shape
        out = np.empty((N + 1, M, d))
        out[0] = start
        out[1] = incr[0]
        for k in range(2, N + 1):
            np.add(out[k - 1], incr[k - 1], out=out[k])
        out[1:] += out[0]
        return np.swapaxes(out, 0, 1)


@dataclass(frozen=True)
class ForwardBatch:
    """States of a simulated forward process, shape (M, n_steps+1, n).

    euler_maruyama stores states time-major, as a transposed view of an
    (n_steps+1, M, n) buffer; a path-major array is copied once by each
    function that reads it.
    """

    grid: TimeGrid
    states: np.ndarray


def _fill_block(incr, b, seed, scale):
    """Draw path block b and write it, scaled, into the (n_steps, M, d) buffer."""
    n_steps, M, d = incr.shape
    lo = b * PATH_BLOCK
    hi = min(lo + PATH_BLOCK, M)
    bit = np.random.Philox(key=np.array([seed, b], dtype=np.uint64))
    block = np.random.Generator(bit).standard_normal((PATH_BLOCK, n_steps, d))
    np.multiply(np.swapaxes(block[: hi - lo], 0, 1), scale, out=incr[:, lo:hi])


def _cpu_count() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sample_brownian(grid: TimeGrid, M: int, d: int, seed: int) -> BrownianBatch:
    """Draw M Brownian paths' increments on the grid, reproducibly.

    The same (seed, n_steps, d) always yields the same path m, regardless of
    M and of the CPU count: blocks are independent streams written to
    disjoint slices by a pool with one worker per usable CPU (and block).
    Each block's standard normals are scaled by sqrt(dt) as they are
    written, so on a grid of unit steps (dt = 1, where the scaling is exact)
    the increments are the normals themselves, and those times sqrt(dt)
    are bit for bit the increments of any grid with the same n_steps.
    The seed is one 64-bit word of each block's Philox key, so 0 <= seed < 2**64.
    """
    if M < 1:
        raise ValidationError(f"M must be >= 1, got {M}")
    if d < 1:
        raise ValidationError(f"d must be >= 1, got {d}")
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed must be in [0, 2**64), got {seed}")
    incr = np.empty((grid.n_steps, M, d))
    scale = np.sqrt(grid.dt)
    n_blocks = (M + PATH_BLOCK - 1) // PATH_BLOCK
    with ThreadPoolExecutor(max_workers=min(_cpu_count(), n_blocks)) as pool:
        list(pool.map(lambda b: _fill_block(incr, b, seed, scale), range(n_blocks)))
    return BrownianBatch(grid=grid, increments=np.swapaxes(incr, 0, 1))


def euler_maruyama(
    grid: TimeGrid,
    drift: Callable,
    diffusion: Callable,
    x0,
    batch: BrownianBatch,
) -> ForwardBatch:
    """Simulate X_{i+1} = X_i + b(t_i, X_i)*dt + sigma(t_i, X_i)*dB_i.

    drift(t, x) must broadcast to (M, n) for x of shape (M, n); diffusion may
    return a scalar, an (M, n)-shaped array (diagonal n == d case), or a full
    (M, n, d) matrix.  x0 is a scalar or an n-vector.  NaN/Inf in any state is
    reported with the first offending step and path index.  The states
    are a transposed view of an (n_steps+1, M, n) buffer.
    """
    incr = _time_major(batch.increments)
    n_steps, M, d = incr.shape
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n = x0.size
    times = grid.times()
    dt = grid.dt
    states = np.empty((n_steps + 1, M, n))
    states[0] = x0
    for i in range(n_steps):
        xi = states[i]
        bi = np.broadcast_to(np.asarray(drift(times[i], xi), dtype=float), (M, n))
        sig = np.asarray(diffusion(times[i], xi), dtype=float)
        dB = incr[i]
        if sig.ndim != 3 and n != d:
            raise ValidationError(f"diagonal diffusion needs n == d, got n={n}, d={d}")
        # an overflow is reported below with its step and path
        with np.errstate(over="ignore", invalid="ignore"):
            if sig.ndim == 3:
                inc = np.einsum("mnd,md->mn", sig, dB)
            else:
                inc = np.broadcast_to(sig, (M, n)) * dB
            nxt = xi + bi * dt + inc
        if not np.all(np.isfinite(nxt)):
            m_bad = int(np.argmax(~np.isfinite(nxt).all(axis=1)))
            raise NumericalError(
                f"non-finite state at step {i + 1}, path {m_bad}"
            )
        states[i + 1] = nxt
    return ForwardBatch(grid=grid, states=np.swapaxes(states, 0, 1))


def stopping_indices(
    batch: BrownianBatch,
    g: Generator,
    *,
    x_path: np.ndarray,
    barrier: float = 1.0,
) -> np.ndarray:
    """First grid index where |B_{t_k} - B_{t_0}| + sum_{i<k} g0_i^2*dt > barrier.

    g0_i = g(t_i, x_i, 0, 0) with x_i taken from the state path x_path,
    shape (M, N+1, n); batch.cumulative() is the Brownian path itself.
    Paths that never exceed the barrier return n_steps.  No sub-step
    interpolation: exceedance is detected at grid nodes only.  The grid is
    the batch's own.  The paths are read time-major; a path-major x_path
    is copied once.  One pass keeps the integral, the displacement (summed
    in cumulative()'s order; d = 1 takes abs, bitwise sqrt(x^2)) and the
    first hit as running (M,) values.
    """
    if barrier <= 0:
        raise ValidationError(f"barrier must be > 0, got {barrier}")
    M, n_steps, d = batch.increments.shape
    incr = _time_major(batch.increments)
    x_path = _time_major(x_path)
    grid = batch.grid
    times = grid.times()
    zeros = np.zeros(M)
    zeros_z = np.zeros((M, d))
    integral = np.zeros(M)
    disp = np.zeros((M, d))
    # n_steps marks a path not hit yet; a hit at node n_steps writes it too
    idx = np.full(M, n_steps, dtype=np.int64)
    for k in range(1, n_steps + 1):
        g0 = np.broadcast_to(
            np.asarray(g(times[k - 1], x_path[k - 1], zeros, zeros_z), dtype=float), (M,)
        )
        integral += g0 * g0 * grid.dt
        disp += incr[k - 1]
        hit = _norm_last(disp) + integral > barrier
        hit &= idx == n_steps
        idx[hit] = k
    return idx
