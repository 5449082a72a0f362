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

    seed: int
    d: int
    M: int
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


def sample_brownian(
    grid: TimeGrid, M: int, d: int, seed: int, threads: int = 1
) -> BrownianBatch:
    """Draw M Brownian paths' increments on the grid, reproducibly.

    The same (seed, n_steps, d) always yields the same path m, regardless of
    M and of threads: blocks are independent streams written to disjoint
    slices, so the parallel schedule cannot affect the result.
    """
    if M < 1:
        raise ValidationError(f"M must be >= 1, got {M}")
    if d < 1:
        raise ValidationError(f"d must be >= 1, got {d}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    incr = np.empty((grid.n_steps, M, d))
    scale = np.sqrt(grid.dt)
    n_blocks = (M + PATH_BLOCK - 1) // PATH_BLOCK
    if threads == 1 or n_blocks == 1:
        for b in range(n_blocks):
            _fill_block(incr, b, seed, scale)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda b: _fill_block(incr, b, seed, scale), range(n_blocks)))
    return BrownianBatch(seed=seed, d=d, M=M, grid=grid, increments=np.swapaxes(incr, 0, 1))


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
        if sig.ndim == 3:
            inc = np.einsum("mnd,md->mn", sig, dB)
        else:
            if n != d:
                raise ValidationError(
                    f"diagonal diffusion needs n == d, got n={n}, d={d}"
                )
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
    x_path: np.ndarray | None = None,
    barrier: float = 1.0,
) -> np.ndarray:
    """First grid index where |B_{t_k} - B_{t_0}| + sum_{i<k} g0_i^2*dt > barrier.

    g0_i = g(t_i, x_i, 0, 0) with x_i taken from x_path (shape (M, N+1, n))
    or, by default, from the Brownian path itself.  Paths that never exceed
    the barrier return n_steps.  No sub-step interpolation: exceedance is
    detected at grid nodes only.  The grid is the batch's own.  The paths
    are read time-major; a path-major x_path is copied once.
    """
    if barrier <= 0:
        raise ValidationError(f"barrier must be > 0, got {barrier}")
    M, n_steps, d = batch.increments.shape
    incr = _time_major(batch.increments)
    x_path = _time_major(batch.cumulative() if x_path is None else x_path)
    grid = batch.grid
    times = grid.times()
    zeros = np.zeros(M)
    zeros_z = np.zeros((M, d))
    # running integral of g0^2 over the steps before each node
    level = np.empty((n_steps + 1, M))
    level[0] = 0.0
    for i in range(n_steps):
        g0 = np.broadcast_to(
            np.asarray(g(times[i], x_path[i], zeros, zeros_z), dtype=float), (M,)
        )
        np.add(level[i], g0 * g0 * grid.dt, out=level[i + 1])
    # add the displacement |B_{t_k} - B_{t_0}| node by node, from a running
    # sum of the increments in cumulative()'s order; d = 1 takes abs, which
    # is bitwise sqrt(x^2)
    disp = np.zeros((M, d))
    for k in range(1, n_steps + 1):
        disp += incr[k - 1]
        level[k] += _norm_last(disp)

    exceeded = level > barrier
    hit = exceeded.any(axis=0)
    idx = np.where(hit, np.argmax(exceeded, axis=0), n_steps)
    return idx.astype(np.int64)
