import math

import numpy as np
import pytest

from bsdelab import (
    NumericalError,
    TimeGrid,
    ValidationError,
    builtin_generator,
    euler_maruyama,
    sample_brownian,
)
from bsdelab.paths import stopping_indices


class TestTimeGrid:
    def test_times_pin_endpoints(self):
        grid = TimeGrid(0.1, 0.7, 7)
        t = grid.times()
        assert t[0] == 0.1
        assert t[-1] == 0.7
        assert t.size == 8
        assert grid.dt == pytest.approx(0.6 / 7)

    def test_validation(self):
        with pytest.raises(ValidationError):
            TimeGrid(0.5, 0.5, 10)
        with pytest.raises(ValidationError):
            TimeGrid(0.0, 1.0, 0)


class TestSampling:
    def test_deterministic_rerun(self):
        grid = TimeGrid(0.0, 1.0, 16)
        a = sample_brownian(grid, 1000, 2, seed=42)
        b = sample_brownian(grid, 1000, 2, seed=42)
        assert np.array_equal(a.increments, b.increments)
        c = sample_brownian(grid, 1000, 2, seed=43)
        assert not np.array_equal(a.increments, c.increments)

    def test_threads_do_not_change_bytes(self):
        grid = TimeGrid(0.0, 1.0, 8)
        a = sample_brownian(grid, 9000, 2, seed=7, threads=1)
        b = sample_brownian(grid, 9000, 2, seed=7, threads=4)
        assert np.array_equal(a.increments, b.increments)

    def test_batch_extension_keeps_existing_paths(self):
        # path m must be a function of (seed, grid, d, m) alone, so growing
        # the batch appends paths without touching the earlier ones
        grid = TimeGrid(0.0, 1.0, 8)
        small = sample_brownian(grid, 5000, 1, seed=3)
        big = sample_brownian(grid, 9000, 1, seed=3)
        assert np.array_equal(big.increments[:5000], small.increments)

    def test_moments(self):
        grid = TimeGrid(0.0, 1.0, 4)
        M = 20000
        batch = sample_brownian(grid, M, 1, seed=11)
        dt = grid.dt
        se = math.sqrt(dt / M)
        assert np.all(np.abs(batch.increments.mean(axis=0)) < 4 * se)
        var = batch.increments.var(axis=0)
        assert np.all(np.abs(var - dt) < 0.1 * dt)
        # terminal variance accumulates to the horizon
        B = batch.cumulative()
        assert B[:, -1, 0].var() == pytest.approx(1.0, rel=0.05)

    def test_cumulative_anchoring(self):
        grid = TimeGrid(0.0, 1.0, 4)
        batch = sample_brownian(grid, 100, 2, seed=0)
        start = np.arange(200, dtype=float).reshape(100, 2)
        cum = batch.cumulative(start=start)
        assert np.allclose(cum[:, 0, :], start)
        assert np.allclose(cum[:, 1:, :] - cum[:, :1, :], np.cumsum(batch.increments, axis=1))

    def test_argument_validation(self):
        grid = TimeGrid(0.0, 1.0, 4)
        with pytest.raises(ValidationError):
            sample_brownian(grid, 0, 1, seed=0)
        with pytest.raises(ValidationError):
            sample_brownian(grid, 10, 0, seed=0)
        with pytest.raises(ValidationError):
            sample_brownian(grid, 10, 1, seed=-1)
        with pytest.raises(ValidationError):
            sample_brownian(grid, 10, 1, seed=0, threads=0)


class TestEulerMaruyama:
    def test_geometric_mean(self):
        # dX = 0.05 X dt + 0.2 X dB, X0 = 1: E X_T = e^{0.05}; the scheme's
        # mean recursion is exact up to (1 + 0.05 dt)^N vs e^{0.05}
        grid = TimeGrid(0.0, 1.0, 200)
        M = 20000
        batch = sample_brownian(grid, M, 1, seed=5)
        fw = euler_maruyama(
            grid, lambda t, x: 0.05 * x, lambda t, x: 0.2 * x, 1.0, batch
        )
        xT = fw.states[:, -1, 0]
        se = xT.std(ddof=1) / math.sqrt(M)
        assert abs(xT.mean() - math.exp(0.05)) < 4 * se

    def test_brownian_with_drift(self):
        grid = TimeGrid(0.0, 2.0, 50)
        batch = sample_brownian(grid, 4000, 1, seed=9)
        fw = euler_maruyama(grid, lambda t, x: 0.5, lambda t, x: 1.0, 0.0, batch)
        expected = batch.cumulative(start=0.0)[:, -1, 0] + 1.0
        assert np.allclose(fw.states[:, -1, 0], expected, atol=1e-12)

    def test_matrix_diffusion(self):
        grid = TimeGrid(0.0, 1.0, 10)
        M = 64
        batch = sample_brownian(grid, M, 2, seed=1)

        def sig(t, x):
            out = np.zeros((x.shape[0], 1, 2))
            out[:, 0, 0] = 1.0
            out[:, 0, 1] = 2.0
            return out

        fw = euler_maruyama(grid, lambda t, x: 0.0, sig, 0.0, batch)
        B = batch.cumulative()
        assert np.allclose(fw.states[:, -1, 0], B[:, -1, 0] + 2.0 * B[:, -1, 1], atol=1e-12)

    def test_dimension_mismatch(self):
        grid = TimeGrid(0.0, 1.0, 4)
        batch = sample_brownian(grid, 16, 2, seed=0)
        with pytest.raises(ValidationError, match="diagonal"):
            euler_maruyama(grid, lambda t, x: 0.0, lambda t, x: 1.0, [0.0], batch)

    def test_nonfinite_state_reported(self):
        grid = TimeGrid(0.0, 1.0, 4)
        batch = sample_brownian(grid, 8, 1, seed=0)
        with pytest.raises(NumericalError, match="step 1"):
            euler_maruyama(grid, lambda t, x: np.inf, lambda t, x: 1.0, 0.0, batch)


def _naive_stops(batch, g, grid, x_path, barrier):
    """Reference implementation with explicit per-path loops."""
    M, n_steps, d = batch.increments.shape
    cum = batch.cumulative()
    times = grid.times()
    out = np.empty(M, dtype=int)
    for m in range(M):
        acc = 0.0
        idx = n_steps
        for k in range(n_steps + 1):
            disp = np.linalg.norm(cum[m, k] - cum[m, 0])
            if disp + acc > barrier:
                idx = k
                break
            if k < n_steps:
                g0 = float(
                    np.asarray(
                        g(times[k], x_path[m : m + 1, k, :], np.zeros(1), np.zeros((1, d)))
                    ).reshape(())
                )
                acc += g0 * g0 * grid.dt
        out[m] = idx
    return out


class TestStopping:
    def test_matches_naive_loop(self):
        grid = TimeGrid(0.2, 0.9, 30)
        batch = sample_brownian(grid, 200, 2, seed=21)
        g = builtin_generator("stress", delta=0.1)
        x_path = batch.cumulative(start=np.full((200, 2), 0.4))
        fast = stopping_indices(batch, g, x_path=x_path, barrier=0.3)
        slow = _naive_stops(batch, g, grid, x_path, 0.3)
        assert np.array_equal(fast, slow)

    def test_default_path_is_the_brownian_one(self):
        grid = TimeGrid(0.0, 1.0, 20)
        batch = sample_brownian(grid, 100, 1, seed=2)
        g = builtin_generator("linear", c=1.0)
        a = stopping_indices(batch, g, barrier=0.5)
        b = stopping_indices(batch, g, x_path=batch.cumulative(), barrier=0.5)
        assert np.array_equal(a, b)

    def test_barrier_monotone(self):
        grid = TimeGrid(0.0, 1.0, 50)
        batch = sample_brownian(grid, 500, 1, seed=13)
        g = builtin_generator("linear", c=1.5)
        lo = stopping_indices(batch, g, barrier=0.5)
        hi = stopping_indices(batch, g, barrier=2.0)
        assert np.all(hi >= lo)

    def test_small_window_rarely_stops(self):
        # over a window of width 0.05 the displacement must exceed 1, a
        # 4.5-sigma event; generator-free accumulation adds nothing
        grid = TimeGrid(0.5, 0.55, 50)
        batch = sample_brownian(grid, 100_000, 1, seed=17)
        g = builtin_generator("linear")
        stops = stopping_indices(batch, g, barrier=1.0)
        assert np.mean(stops < 50) < 1e-3

    def test_barrier_validation(self):
        grid = TimeGrid(0.0, 1.0, 4)
        batch = sample_brownian(grid, 4, 1, seed=0)
        g = builtin_generator("linear")
        with pytest.raises(ValidationError):
            stopping_indices(batch, g, barrier=0.0)
