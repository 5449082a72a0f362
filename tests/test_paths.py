import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsdelab import (
    NumericalError,
    TimeGrid,
    ValidationError,
    builtin_generator,
    euler_maruyama,
    paths,
    sample_brownian,
)
from bsdelab.paths import PATH_BLOCK, BrownianBatch, stopping_indices


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

    def test_threads_do_not_change_bytes(self, monkeypatch):
        # the pool has one worker per usable CPU; 9000 paths are 3 blocks
        grid = TimeGrid(0.0, 1.0, 8)
        outs = []
        for cpus in (1, 2, 4):
            monkeypatch.setattr(paths, "_cpu_count", lambda: cpus)
            outs.append(sample_brownian(grid, 9000, 2, seed=7).increments)
        assert all(np.array_equal(outs[0], out) for out in outs[1:])

    @pytest.mark.parametrize("d", [1, 2])
    def test_unit_steps_scale_to_any_grid_bitwise(self, d):
        # the studies draw once on unit steps and scale per window; the
        # scaled copy must be the window's own draw, bit for bit
        n, M = 50, PATH_BLOCK + 11
        unit = sample_brownian(TimeGrid(0.0, float(n), n), M, d, seed=9).increments
        for t, eps in [(0.5, 0.1), (0.5, 0.0125), (0.3, 0.05), (0.0, 1.0)]:
            grid = TimeGrid(t, t + eps, n)
            want = sample_brownian(grid, M, d, seed=9).increments
            assert np.array_equal(np.multiply(unit, np.sqrt(grid.dt)), want), (t, eps)

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

    def test_seed_must_fit_the_philox_key_word(self):
        # the seed is one uint64 word of each block's key: 2**64 used to
        # escape as an OverflowError from the key array
        grid = TimeGrid(0.0, 1.0, 4)
        assert sample_brownian(grid, 10, 1, seed=2**64 - 1).increments.shape == (10, 4, 1)
        with pytest.raises(ValidationError, match=r"in \[0, 2\*\*64\), got 18446744073709551616"):
            sample_brownian(grid, 10, 1, seed=2**64)


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


def _stops_from_cumulative(batch, g, x_path, barrier):
    """The displacement from a full cumulative() buffer, as stopping_indices
    computed it before its running sum: kept as the exact oracle."""
    M, n_steps, d = batch.increments.shape
    cum = np.swapaxes(batch.cumulative(), 0, 1)
    disp = np.sqrt(np.sum((cum - cum[0]) ** 2, axis=2))
    x_path = cum if x_path is None else np.swapaxes(x_path, 0, 1)
    times = batch.grid.times()
    level = np.empty((n_steps + 1, M))
    level[0] = 0.0
    for i in range(n_steps):
        g0 = np.broadcast_to(
            np.asarray(g(times[i], x_path[i], np.zeros(M), np.zeros((M, d))), dtype=float),
            (M,),
        )
        np.add(level[i], g0 * g0 * batch.grid.dt, out=level[i + 1])
    exceeded = disp + level > barrier
    hit = exceeded.any(axis=0)
    return np.where(hit, np.argmax(exceeded, axis=0), n_steps)


class TestStopping:
    def test_matches_naive_loop(self):
        grid = TimeGrid(0.2, 0.9, 30)
        batch = sample_brownian(grid, 200, 2, seed=21)
        g = builtin_generator("stress", delta=0.1)
        x_path = batch.cumulative(start=np.full((200, 2), 0.4))
        fast = stopping_indices(batch, g, x_path=x_path, barrier=0.3)
        slow = _naive_stops(batch, g, grid, x_path, 0.3)
        assert np.array_equal(fast, slow)

    def test_barrier_monotone(self):
        grid = TimeGrid(0.0, 1.0, 50)
        batch = sample_brownian(grid, 500, 1, seed=13)
        g = builtin_generator("linear", c=1.5)
        x_path = batch.cumulative()
        lo = stopping_indices(batch, g, x_path=x_path, barrier=0.5)
        hi = stopping_indices(batch, g, x_path=x_path, barrier=2.0)
        assert np.all(hi >= lo)

    def test_small_window_rarely_stops(self):
        # over a window of width 0.05 the displacement must exceed 1, a
        # 4.5-sigma event; generator-free accumulation adds nothing
        grid = TimeGrid(0.5, 0.55, 50)
        batch = sample_brownian(grid, 100_000, 1, seed=17)
        g = builtin_generator("linear")
        stops = stopping_indices(batch, g, x_path=batch.cumulative(), barrier=1.0)
        assert np.mean(stops < 50) < 1e-3

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cumulative_built_at_most_once(self, monkeypatch, d):
        # the displacement comes from a running row sum and the caller
        # passes the state path, so cumulative() never runs inside; the
        # stops are the ones the full cumulative() buffer gives, bit for bit
        grid = TimeGrid(0.1, 0.4, 40)
        batch = sample_brownian(grid, 3000, d, seed=23 + d)
        stress = builtin_generator("stress", delta=0.1)
        x_path = batch.cumulative(start=np.full((3000, d), 0.3))
        want_x = _stops_from_cumulative(batch, stress, x_path, 0.8)
        linear = builtin_generator("linear", b=np.zeros(d), c=0.8)
        brownian = batch.cumulative()
        want_default = _stops_from_cumulative(batch, linear, None, 0.8)
        assert 0 < np.count_nonzero(want_x < 40) < 3000
        assert 0 < np.count_nonzero(want_default < 40) < 3000

        calls = []
        build = BrownianBatch.cumulative

        def counting(self, start=0.0):
            calls.append(start)
            return build(self, start)

        monkeypatch.setattr(BrownianBatch, "cumulative", counting)
        assert np.array_equal(stopping_indices(batch, stress, x_path=x_path, barrier=0.8), want_x)
        assert calls == []
        got = stopping_indices(batch, linear, x_path=brownian, barrier=0.8)
        assert np.array_equal(got, want_default)
        assert calls == []

    @pytest.mark.parametrize(
        "name,kw,barrier", [("stress", {"delta": 0.1}, 2.0), ("linear", {"c": 0.8}, 1.5)]
    )
    def test_work_space_is_independent_of_n_steps(self, name, kw, barrier):
        # running integral, displacement and first hit are (M,) values: the
        # traced peak stays at a few dozen M-vectors while the (N+1, M)
        # level alone is N+1 of them
        M, n_steps = 20_000, 200
        grid = TimeGrid(0.0, 1.0, n_steps)
        batch = sample_brownian(grid, M, 1, seed=5)
        x_path = batch.cumulative(start=0.3)
        g = builtin_generator(name, **kw)
        want = _stops_from_cumulative(batch, g, x_path, barrier)
        assert 0 < np.count_nonzero(want < n_steps) < M
        tracemalloc.start()
        try:
            got = stopping_indices(batch, g, x_path=x_path, barrier=barrier)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert peak < 32 * 8 * M

    def test_barrier_validation(self):
        grid = TimeGrid(0.0, 1.0, 4)
        batch = sample_brownian(grid, 4, 1, seed=0)
        g = builtin_generator("linear")
        for barrier in (0.0, -1.0, float("nan")):
            with pytest.raises(ValidationError):
                stopping_indices(batch, g, x_path=batch.cumulative(), barrier=barrier)


class TestBatchExtension:
    """Growing the batch appends paths: every per-path output on the first
    M0 paths of an M1-path batch is the M0-path batch's, at any CPU count."""

    @settings(max_examples=25, deadline=None)
    @example(m0=100, extra=PATH_BLOCK, n_steps=10, d=2, cpus0=1, cpus1=2)
    @example(m0=PATH_BLOCK + 7, extra=PATH_BLOCK + 1, n_steps=3, d=1, cpus0=2, cpus1=1)
    @given(
        m0=st.integers(1, 2 * PATH_BLOCK),
        extra=st.integers(1, PATH_BLOCK + 1),
        n_steps=st.integers(1, 10),
        d=st.integers(1, 2),
        cpus0=st.sampled_from([1, 2]),
        cpus1=st.sampled_from([1, 2]),
    )
    def test_prefix_of_larger_batch(self, m0, extra, n_steps, d, cpus0, cpus1):
        grid = TimeGrid(0.0, 1.0, n_steps)
        g = builtin_generator("stress", delta=0.1)

        def run(M, cpus):
            with mock.patch.object(paths, "_cpu_count", return_value=cpus):
                batch = sample_brownian(grid, M, d, seed=5)
            fw = euler_maruyama(
                grid,
                lambda t, x: 0.1 * np.sin(x),
                lambda t, x: 1.0 + 0.1 * np.cos(x),
                np.full(d, 0.2),
                batch,
            )
            return fw.states, stopping_indices(batch, g, x_path=fw.states, barrier=0.8)

        small_states, small_stops = run(m0, cpus0)
        big_states, big_stops = run(m0 + extra, cpus1)
        assert np.array_equal(big_states[:m0], small_states)
        assert np.array_equal(big_stops[:m0], small_stops)
