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

A WindowStack reads K time windows off one batch, a step at a time: the
windows of a quotient study scale one unit-step draw by their own
sqrt(dt), so none of them stores states or increments of its own, and
the draw's path W is not stored either.  The stack keeps W's rows at
every c-th node, c = ceil(sqrt(N+1)), and rebuilds one segment of c rows
at a time as the backward sweep reaches it (checkpointing, as in
Griewank-Walther's revolve), so a study holds its draw plus about
2*sqrt(N+1) path rows.  A stack is the one input of stopping_indices and
of the solver's sweep; a single forward batch is a stack of one window
(K = 1) that reads the caller's states.

Independent tasks run side by side on one rule (_side_by_side): path
blocks when sampling, and the windows of a stack in stopping_indices and
in the solver's sweep.  Each task writes only its own outputs with the
arithmetic it has alone, so no output byte depends on the CPU count.
With K >= 2 windows the driver is called from several threads at once.
"""

from __future__ import annotations

import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from typing import Callable

import numpy as np

from .core import _INDEX, Generator, _norm_last, _require, _require_finite, _require_integer
from .errors import HypothesisError, NumericalError, ValidationError

# Fixed block size of the stream-splitting scheme.  Changing it changes every
# sampled path, so it is deliberately not configurable.
PATH_BLOCK = 4096


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t_start, t_end] with n_steps intervals.

    Nodes are computed as t_start + i*dt (one multiply per node, no running
    sums) and the final node is pinned to t_end exactly.  The ends must be
    finite with t_start < t_end and n_steps an integer >= 1; any others
    raise ValidationError.
    """

    t_start: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        # the width is finite only for finite ends; NaN fails the <
        if not (self.t_start < self.t_end and math.isfinite(self.t_end - self.t_start)):
            raise ValidationError(
                f"need finite t_start < t_end, got [{self.t_start}, {self.t_end}]"
            )
        # a fractional count would leave the last step short of dt
        _require_integer("n_steps", self.n_steps)
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


class WindowStack:
    """K time windows on one batch of paths, read one step at a time.

    WindowStack(grids, states, increments) is one window, on grids[0]: its
    states (M, N+1, n) and increments (M, N, d), laid out like
    ForwardBatch.states and BrownianBatch.increments (time-major storage,
    read in place; a path-major array is copied once), are read as given;
    states whose first two axes are not (M, N+1) raise ValidationError.

    WindowStack.from_draw(grids, increments, base) is K >= 1 windows of one
    unit-step Brownian draw (sample_brownian on a grid with dt = 1) from an
    (M, d) base.  Window w, on grids[w], has scale s_w = sqrt(dt_w): its
    state at node j is base + s_w*W_j, W the draw's path, and its
    increment over step j is s_w*dW_j, the increment sample_brownian draws
    on grids[w] bit for bit.  Neither is stored, and nor is W: the stack
    keeps W's rows at every c-th node, c = ceil(sqrt(N+1)), and rebuilds
    the c rows of one segment at a time from them, so besides the draw it
    holds about 2*sqrt(N+1) rows of W.  Every row is the one
    BrownianBatch.cumulative() gives, bit for bit: it is the running sum of
    the increments from a +0.0 row, and a sum that starts at +0.0 never
    reaches -0.0, just as cumulative()'s final += start leaves none.

    Every grid has the N steps of the increments; a grid with another
    count raises ValidationError naming both counts.  The shared path, the
    states of a lone window or W of a draw, is read a row at a time,
    forward (rows, the stop pass) or backward (rows_backward, the sweep),
    and state() maps one of its rows to a window's state.
    """

    def __init__(self, grids, states, increments):
        M, N, _ = np.shape(increments)
        if np.shape(states)[:2] != (M, N + 1):
            raise ValidationError(
                f"forward states shaped {np.shape(states)}, expected ({M}, {N + 1}, n)"
            )
        self._setup(grids, increments, None)
        self._states = _time_major(states)
        self.dim = self._states.shape[2]

    @classmethod
    def from_draw(cls, grids, increments, base) -> "WindowStack":
        """The windows on grids of the unit-step draw increments from base."""
        stack = cls.__new__(cls)
        stack._setup(grids, increments, np.asarray(base, dtype=float))
        N, M, d = stack.steps.shape
        if stack.base.shape != (M, d):
            raise ValidationError(f"base shaped {stack.base.shape}, expected ({M}, {d})")
        stack.dim = d
        stack.scales = [np.sqrt(grid.dt) for grid in stack.grids]
        # rows 0, c, 2c, ... of W up to row N - 1, the last one the sweep reads
        c = stack._stride = math.ceil(math.sqrt(N + 1))
        marks = stack._marks = np.empty(((N - 1) // c + 1, M, d))
        for mark, row in zip(marks, islice(stack.rows(), 0, N, c)):
            mark[...] = row
        return stack

    def _setup(self, grids, increments, base):
        self.grids = tuple(grids)
        self.steps = _time_major(increments)
        self.base = base
        self.scales = None
        N = self.steps.shape[0]
        if not self.grids or (base is None and len(self.grids) != 1):
            raise ValidationError(
                f"need one grid, or a base and >= 1 grids; got {len(self.grids)}"
            )
        for grid in self.grids:
            if grid.n_steps != N:
                held = "the draw holds" if base is not None else "the batch's increments hold"
                raise ValidationError(f"grid {grid} has {grid.n_steps} steps but {held} {N}")

    @property
    def increments(self) -> np.ndarray:
        """The shared increments, (M, N, d), a transposed view as in BrownianBatch.

        Only the benchmark's tracer reads it (perfbench/tracer.py takes the
        step count of stopping_indices' first argument from it).
        """
        return np.swapaxes(self.steps, 0, 1)

    def rows(self):
        """Yield the shared path's rows at nodes 0, ..., N, each (M, dim).

        A draw's rows are one running buffer, valid until the next row is
        drawn; each call has its own, so windows may walk side by side.
        """
        if self.base is None:
            yield from self._states
            return
        row = np.zeros(self.base.shape)
        yield row
        for dW in self.steps:
            np.add(row, dW, out=row)
            yield row

    def rows_backward(self):
        """Yield the shared path's rows at nodes N-1, ..., 0, each (M, dim).

        A draw's segment of c rows is rebuilt from its first row, in the
        calling thread, as the walk enters it; a row is valid until the
        walk leaves its segment.
        """
        N = self.steps.shape[0]
        if self.base is None:
            yield from self._states[N - 1 :: -1]
            return
        c = self._stride
        segment = np.empty((c,) + self.base.shape)
        for j in range(len(self._marks) - 1, -1, -1):
            lo = j * c
            n_rows = min(c, N - lo)
            segment[0] = self._marks[j]
            for r in range(1, n_rows):
                np.add(segment[r - 1], self.steps[lo + r - 1], out=segment[r])
            for r in range(n_rows - 1, -1, -1):
                yield segment[r]

    def state(self, w: int, row: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Window w's state at the node of the shared path's row, (M, n).

        A lone window's state is the row itself; a draw's window's goes to
        out or a new array.  A row of the first m < M paths only, row[:m],
        gives those paths' states, (m, n).
        """
        if self.base is None:
            return row
        out = np.multiply(row, self.scales[w], out=out)
        return np.add(self.base[: len(row)], out, out=out)

    def increment(self, w: int, j: int, out: np.ndarray | None = None) -> np.ndarray:
        """Window w's increment over step j, (M, d); a scaled one goes to out or a new array."""
        if self.base is None:
            return self.steps[j]
        return np.multiply(self.steps[j], self.scales[w], out=out)

    def displacement(self, w: int, at: np.ndarray, out: np.ndarray) -> np.ndarray:
        """X_tau - X_0 of window w into out, (M, n), at the shared path's rows at tau.

        at[m] is the row's entry of path m at its own node tau[m], as the
        stop pass records it.
        """
        if self.base is None:
            return np.subtract(at, self._states[0], out=out)
        return np.multiply(at, self.scales[w], out=out)


def _fill_block(incr, b, seed, scale):
    """Draw path block b and write it, scaled, into the (n_steps, M, d) buffer."""
    n_steps, M, d = incr.shape
    lo = b * PATH_BLOCK
    hi = min(lo + PATH_BLOCK, M)
    bit = np.random.Philox(key=np.array([seed, b], dtype=np.uint64))
    # the stream is filled in order, so a short last block draws the first
    # hi - lo paths of the full block, bit for bit, without the rest
    block = np.random.Generator(bit).standard_normal((hi - lo, n_steps, d))
    np.multiply(np.swapaxes(block, 0, 1), scale, out=incr[:, lo:hi])


def _cpu_count() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _side_by_side(n_tasks: int):
    """Yield run(fn), which calls fn(0), ..., fn(n_tasks - 1) side by side.

    A single task runs in the caller's thread, with no pool, and run
    returns its value.  Two or more run on one pool of
    min(_cpu_count(), n_tasks) workers, kept for the whole block, each
    task in a copy of the caller's context (numpy's errstate included);
    run waits for them, discards their values and re-raises the first
    failure in task order.  Tasks must write disjoint outputs.
    """
    if n_tasks == 1:
        yield lambda fn: fn(0)
        return
    with ThreadPoolExecutor(max_workers=min(_cpu_count(), n_tasks)) as pool:

        def run(fn):
            contexts = [contextvars.copy_context() for _ in range(n_tasks)]

            def task(k):
                # a value would stay referenced until run reaches its task
                contexts[k].run(fn, k)

            for _ in pool.map(task, range(n_tasks)):
                pass

        yield run


def sample_brownian(grid: TimeGrid, M: int, d: int, seed: int) -> BrownianBatch:
    """Draw M Brownian paths' increments on the grid, reproducibly.

    The same (seed, n_steps, d) always yields the same path m, regardless of
    M and of the CPU count: blocks are independent streams written to
    disjoint slices side by side (_side_by_side, one worker per usable
    CPU and block).
    Each block's standard normals are scaled by sqrt(dt) as they are
    written, so on a grid of unit steps (dt = 1, where the scaling is exact)
    the increments are the normals themselves, and those times sqrt(dt)
    are bit for bit the increments of any grid with the same n_steps.
    The seed is one 64-bit word of each block's Philox key, so 0 <= seed < 2**64.
    M, d and seed must be integers (numpy's included, bools not); any
    other value raises ValidationError.
    """
    for key, value in (("M", M), ("d", d), ("seed", seed)):
        _require_integer(key, value)
    if M < 1:
        raise ValidationError(f"M must be >= 1, got {M}")
    if d < 1:
        raise ValidationError(f"d must be >= 1, got {d}")
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed must be in [0, 2**64), got {seed}")
    incr = np.empty((grid.n_steps, M, d))
    scale = np.sqrt(grid.dt)
    n_blocks = (M + PATH_BLOCK - 1) // PATH_BLOCK
    with _side_by_side(n_blocks) as run:
        run(lambda b: _fill_block(incr, b, seed, scale))
    return BrownianBatch(grid=grid, increments=np.swapaxes(incr, 0, 1))


def _coefficient(name: str, value, shape: tuple) -> np.ndarray:
    """A forward coefficient's value as a float array broadcast to shape.

    Only the shape is checked: a value that does not broadcast raises
    ValidationError naming the coefficient, the value's shape and shape.
    """
    value = np.asarray(value, dtype=float)
    try:
        return np.broadcast_to(value, shape)
    except ValueError:
        raise ValidationError(
            f"{name} returned shape {value.shape}, which does not broadcast to {shape}"
        ) from None


def euler_maruyama(
    grid: TimeGrid,
    drift: Callable,
    diffusion: Callable,
    x0,
    batch: BrownianBatch,
) -> ForwardBatch:
    """Simulate X_{i+1} = X_i + b(t_i, X_i)*dt + sigma(t_i, X_i)*dB_i.

    drift(t, x) must broadcast to (M, n) for x of shape (M, n); diffusion may
    return a scalar or a value that broadcasts to (M, n), both for n == d
    (the diagonal case), or a 3-d value that broadcasts to the full (M, n, d)
    matrix, d the batch's own; any other shape raises ValidationError
    naming the coefficient, its shape and the shape expected, and no value
    is read for it.  x0 is a scalar or an n-vector.  A non-finite state
    raises NumericalError naming "step=i, path=m" at its first path, then
    the state (core._require_finite).  The states are a transposed view of
    an (n_steps+1, M, n) buffer.  batch must be drawn on grid itself;
    another grid is refused with ValidationError.
    """
    if batch.grid != grid:
        raise ValidationError(f"batch grid {batch.grid} differs from grid {grid}")
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
        bi = _coefficient("drift", drift(times[i], xi), (M, n))
        sig = np.asarray(diffusion(times[i], xi), dtype=float)
        full = sig.ndim == 3
        if not full and n != d:
            raise ValidationError(f"diagonal diffusion needs n == d, got n={n}, d={d}")
        sig = _coefficient("diffusion", sig, (M, n, d) if full else (M, n))
        dB = incr[i]
        # an overflow is reported below with its step and path
        with np.errstate(over="ignore", invalid="ignore"):
            inc = np.einsum("mnd,md->mn", sig, dB) if full else sig * dB
            nxt = xi + bi * dt + inc
        _require_finite({"x": nxt}, NumericalError, "non-finite state", step=i + 1, path=_INDEX)
        states[i + 1] = nxt
    return ForwardBatch(grid=grid, states=np.swapaxes(states, 0, 1))


def stopping_indices(
    batch: WindowStack,
    g: Generator,
    *,
    barrier: float = 1.0,
    displacement: np.ndarray,
) -> np.ndarray:
    """First grid index where |B_{t_k} - B_{t_0}| + sum_{i<k} g0_i^2*dt > barrier.

    g0_i = g(t_i, x_i, 0, 0).  batch is a WindowStack of K windows and the
    result has shape (K, M), one row per window, K = 1 included: every
    window is stopped on its own grid, states and increments, and with
    K >= 2 the windows walk the shared path side by side (_side_by_side),
    each as one task, so g is called from several threads at once and must
    keep no mutable state.  Paths that never exceed the barrier return
    n_steps.  No sub-step interpolation: exceedance is detected at grid
    nodes only.  A window keeps its integral, Brownian displacement (the
    running sum of its increments, as cumulative() sums them; d = 1 takes
    abs, bitwise sqrt(x^2)), first hit and row of the shared path
    (WindowStack.rows) as running values, and records that row at each
    path's stop.  Window w's state displacement X_tau - X_0 at its stops
    is written to displacement[w], displacement a (K, M, n) float array.
    A barrier that is not > 0, NaN included, or a displacement of another
    shape raises ValidationError, and a g0 that is not finite raises
    NumericalError naming "window=w, step=k, path=m" at its first path.

    A driver that declares g0_state_free (g(t, x, 0, 0) does not depend
    on x) has g0 evaluated on all M states at each window's first step
    only: past the finite check, an entry that differs from path 0's in any
    bit raises HypothesisError naming the driver, window, step and path
    likewise (core._require).  From the second step on g0 is evaluated on
    path 0's state alone, no window state is formed, and the integral is
    one float, which gives the stops of the per-path sum bit for bit.
    """
    # negated > also refuses NaN, which would switch every stop off
    if not barrier > 0:
        raise ValidationError(f"barrier must be > 0, got {barrier}")
    n_steps, M, d = batch.steps.shape
    if displacement.shape != (len(batch.grids), M, batch.dim):
        raise ValidationError(
            f"displacement shaped {displacement.shape}, "
            f"expected ({len(batch.grids)}, {M}, {batch.dim})"
        )
    free = g.g0_state_free
    zeros = np.zeros(M)
    zeros_z = np.zeros((M, d))
    # n_steps marks a path not hit yet; a hit at node n_steps writes it too
    idx = np.full((len(batch.grids), M), n_steps, dtype=np.int64)

    def walk(w):
        grid = batch.grids[w]
        times = grid.times()
        x_scratch = np.empty((M, batch.dim))
        dB_scratch = np.empty((M, d))
        integral = 0.0 if free else np.zeros(M)
        disp = np.zeros((M, d))
        first = idx[w]
        # the shared path's row at each path's stop
        at = np.empty((M, batch.dim))
        rows = batch.rows()
        row = next(rows)
        for k in range(1, n_steps + 1):
            # a state-free g0 is read on every path once, then on path 0
            n_at = 1 if free and k > 1 else M
            x = batch.state(w, row[:n_at], x_scratch[:n_at])
            g0 = g(times[k - 1], x, zeros[:n_at], zeros_z[:n_at])
            witness = dict(window=w, step=k - 1, path=_INDEX)
            # a NaN g0 would make the integral NaN and switch the stop off
            _require_finite({"g0": g0}, NumericalError, "non-finite g0", **witness)
            if free:
                if k == 1:
                    bits = g0.view(np.int64)
                    message = f"{g.name}: g(t, x, 0, 0) declared state-free differs from "
                    message += f"path 0's g0={g0[0]}"
                    same = bits == bits[0]
                    _require(same, HypothesisError, message, witness, lambda m: f"g0={g0[m]}")
                g0 = g0[0]
            integral += g0 * g0 * grid.dt
            disp += batch.increment(w, k - 1, dB_scratch)
            hit = _norm_last(disp) + integral > barrier
            hit &= first == n_steps
            first[hit] = k
            row = next(rows)
            if hit.any():
                at[hit] = row[hit]
        # row is node n_steps's now
        last = first == n_steps
        at[last] = row[last]
        batch.displacement(w, at, displacement[w])

    with _side_by_side(len(batch.grids)) as run:
        run(walk)
    return idx
