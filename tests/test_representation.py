import collections
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from bsdelab import (
    ExperimentConfig,
    Generator,
    HypothesisError,
    TimeGrid,
    ValidationError,
    builtin_generator,
    convergence_study,
    converse_comparison_probe,
)
from bsdelab import paths, representation
from bsdelab.core import _mean_se, h_entropy
from bsdelab.representation import representation_quotient


def _cfg(seed=0, M=8192, n=60, **kw):
    return ExperimentConfig(seed=seed, n_paths=M, n_steps=n, **kw)


class TestConstantDriver:
    def test_quotient_recovers_the_constant(self):
        g = builtin_generator("linear", c=2.5)
        q = representation_quotient(g, 0.2, 0.0, 1.0, 0.0, 0.02, _cfg(M=4096))
        # with z = 0 the terminal is deterministic, so the only spread is
        # solver roundoff; the mean must hit c up to Picard slack
        assert q.mean == pytest.approx(2.5, abs=1e-6)
        assert q.frac_stopped == 0.0
        assert q.se < 1e-6

    def test_noise_scales_with_z(self):
        g = builtin_generator("linear", c=1.0)
        q = representation_quotient(g, 0.2, 0.0, 1.0, 1.0, 0.05, _cfg(M=8192))
        # raw sums carry the z*dB/eps noise: se ~ |z|/sqrt(eps*M)
        predicted = 1.0 / math.sqrt(0.05 * 8192)
        assert q.se == pytest.approx(predicted, rel=0.2)
        assert abs(q.mean - 1.0) < 4 * q.se


class TestLinearDriver:
    def test_first_order_window_bias_and_rate(self):
        # g = a y, z = 0: Y_t = e^{a eps} y, so the quotient is
        # y (e^{a eps} - 1)/eps = a y + a^2 y eps/2 + ...; the study must
        # see the eps^1 rate cleanly because nothing is random
        g = builtin_generator("linear", a=-1.0)
        # barrier lifted so no path stops inside the widest window (with
        # the default 1.0 about 2.5% would, tilting the eps = 0.2 cell)
        rep = convergence_study(
            g, 0.3, 0.0, 1.0, 0.0, [0.2, 0.1, 0.05], _cfg(M=256, n=100), barrier=3.0
        )
        for eps, mean in zip(rep.eps_schedule, rep.quotient_means):
            exact = (math.exp(-eps) - 1.0) / eps
            # residual gap is the backward scheme's O(dt) bias
            assert mean == pytest.approx(exact, abs=2e-3)
        assert rep.errors_decreasing
        assert rep.fitted_rate == pytest.approx(1.0, abs=0.25)
        assert rep.target_mean == pytest.approx(-1.0, abs=1e-12)

    def test_z_part_enters_through_the_integrand(self):
        # g = <b, z>: the quotient limit is b*z0 even though y never moves
        g = builtin_generator("linear", b=0.6)
        q = representation_quotient(g, 0.2, 0.0, 0.0, 1.5, 0.04, _cfg(M=20_000))
        assert abs(q.mean - 0.9) < 4 * q.se
        assert np.mean(q.targets) == pytest.approx(0.9, abs=1e-12)

    def test_zero_generator_skips_rate(self):
        g = builtin_generator("linear")
        rep = convergence_study(g, 0.2, 0.0, 0.5, 0.0, [0.1, 0.05], _cfg(M=256))
        assert rep.fitted_rate is None
        assert rep.errors_decreasing


class TestNorms:
    def test_l1_below_l2(self):
        g = builtin_generator("linear", a=-1.0)
        rep = convergence_study(
            g, 0.3, 0.0, 1.0, 0.4, [0.1, 0.05], _cfg(M=4096, n=60)
        )
        for e1, e2 in zip(rep.lp_errors[1], rep.lp_errors[2]):
            assert e1 <= e2 + 1e-12


class TestStopping:
    def test_wide_window_warns(self):
        g = builtin_generator("linear", c=4.0)
        with pytest.warns(RuntimeWarning, match="too wide"):
            representation_quotient(g, 0.1, 0.0, 0.0, 0.0, 0.2, _cfg(M=1024))

    def test_barrier_relief(self):
        g = builtin_generator("linear", c=1.5)
        q1 = representation_quotient(g, 0.1, 0.0, 0.0, 0.0, 0.05, _cfg(M=4096), barrier=1.0)
        q2 = representation_quotient(g, 0.1, 0.0, 0.0, 0.0, 0.05, _cfg(M=4096), barrier=2.0)
        assert q2.frac_stopped <= q1.frac_stopped
        assert abs(q2.mean - 1.5) <= abs(q1.mean - 1.5) + 1e-9

    def test_nan_barrier_is_refused(self):
        # every comparison with NaN is false, so a NaN barrier would switch
        # the stop off without a word
        g = builtin_generator("linear", c=1.0)
        with pytest.raises(ValidationError, match="barrier"):
            representation_quotient(
                g, 0.2, 0.0, 0.0, 0.8, 0.04, _cfg(M=500, n=50), barrier=float("nan")
            )


class TestCommonRandomNumbers:
    def test_same_seed_pairs_cancel(self):
        # c and -c produce identical stopping sets (same g0^2) and the raw
        # difference per path is exactly 2c * (integrated dt)/eps
        cfg = _cfg(M=2048)
        g1 = builtin_generator("linear", c=1.0)
        g2 = builtin_generator("linear", c=-1.0)
        q1 = representation_quotient(g1, 0.2, 0.0, 0.0, 0.8, 0.04, cfg)
        q2 = representation_quotient(g2, 0.2, 0.0, 0.0, 0.8, 0.04, cfg)
        diff = q1.raw - q2.raw
        assert np.allclose(diff, 2.0, atol=1e-8)


class TestRandomizedBase:
    def test_state_dependent_quotient_tracks_the_anchor(self):
        # g = x: conditionally on the randomized start the quotient is the
        # start itself; any leak of the z*dB/eps term into the conditioning
        # would blow the pathwise error up by orders of magnitude
        g = Generator(
            name="state_read",
            eval=lambda t, x, y, z: np.asarray(x, dtype=float)[..., 0],
            lipschitz_z=0.0,
            state_dependent=True,
        )
        t = 0.25
        q = representation_quotient(g, t, 0.3, 0.4, 1.0, 0.02, _cfg(M=20_000))
        sd_anchor = math.sqrt(t)
        l2 = math.sqrt(np.mean((q.per_path - q.targets) ** 2))
        assert l2 < 0.3 * sd_anchor
        corr = np.corrcoef(q.per_path, q.targets)[0, 1]
        assert corr > 0.95
        slope = np.polyfit(q.targets, q.per_path, 1)[0]
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_anchor_distribution_is_the_time_t_marginal(self):
        g = builtin_generator("stress", delta=0.1)
        t, x0 = 0.5, 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            q = representation_quotient(g, t, x0, 0.2, 0.7, 0.02, _cfg(M=50_000))
        # targets = g(t, anchor, y, z) with anchor ~ N(x0, t); quadrature
        # against the Gaussian density gives the population mean
        y, znorm = 0.2, 0.7
        dens = lambda v: math.exp(-(v - x0) ** 2 / (2 * t)) / math.sqrt(2 * math.pi * t)
        fn = lambda v: (-math.exp(y * abs(v)) + h_entropy(y, 0.1) + znorm) * dens(v)
        want, _ = integrate.quad(fn, -10, 10)
        se = q.targets.std(ddof=1) / math.sqrt(q.targets.size)
        assert abs(np.mean(q.targets) - want) < 4 * se

    def test_deterministic_probe_keeps_fixed_anchor(self):
        g = builtin_generator("linear", a=-1.0)
        q = representation_quotient(g, 0.5, 0.7, 1.0, 0.0, 0.02, _cfg(M=256))
        # all targets identical because the anchor never randomizes
        assert np.ptp(q.targets) == 0.0


class TestAnchoredSolveMemory:
    @pytest.mark.parametrize("d", [1, 2])
    def test_window_paths_are_never_copied(self, d):
        # an anchored window of a unit draw regresses on (base, path) and
        # forms its states base + s*W one step at a time: the traced peak of
        # the whole solve (stops, terminal, sweep) stays below one
        # (N+1, M, d) array of the window's paths
        M, n_steps = 5000, 200
        cfg = _cfg(seed=5, M=M, n=n_steps)
        unit = paths.sample_brownian(TimeGrid(0.0, float(n_steps), n_steps), M, d, cfg.seed)
        base = 0.1 + np.sqrt(0.5) * np.random.default_rng(5).normal(size=(M, d))
        windows = paths.WindowStack(
            [TimeGrid(0.5, 0.52, n_steps)], unit.cumulative(), unit.increments, base
        )
        g = builtin_generator("stress", delta=0.1)
        tracemalloc.start()
        try:
            y_t, _, _ = representation._stopped_solve(
                g, windows, 0.2, np.full(d, 0.3), cfg, 1.0, anchor=base
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert y_t.shape == (1, M)
        assert peak < (n_steps + 1) * M * d * 8


class TestLockstepStudy:
    """A study's windows share one draw, one stop pass and one sweep."""

    SCHEDULE = (0.1, 0.05, 0.025, 0.0125)

    @pytest.mark.parametrize("d", [1, 2])
    def test_peak_stays_near_two_path_arrays(self, d):
        # the unit draw and its path are the two (N+1, M, d)-sized arrays a
        # study holds; no window keeps states or scaled increments of its own
        M, n_steps = 5000, 200
        g = builtin_generator("stress", delta=0.1)
        cfg = _cfg(seed=6, M=M, n=n_steps)
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                convergence_study(
                    g, 0.5, np.zeros(d), 0.2, np.full(d, 0.3), self.SCHEDULE, cfg
                )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * (n_steps + 1) * M * d * 8

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        d=st.integers(1, 2),
        t=st.sampled_from([0.0, 0.3]),
        barrier=st.sampled_from([0.6, 1.0]),
    )
    def test_a_window_does_not_depend_on_its_neighbours(self, seed, d, t, barrier):
        # windows b and d of (a, b, c, d) against the schedule (b, d): the
        # stop is bitwise the same, and the fused fit moves the rest at
        # rounding only
        g = builtin_generator("stress", delta=0.1)
        cfg = _cfg(seed=seed, M=1500, n=50)
        a, b, c, e = self.SCHEDULE
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            full = convergence_study(g, t, [0.1] * d, 0.2, [0.3] * d, (a, b, c, e), cfg, barrier)
            pair = convergence_study(g, t, [0.1] * d, 0.2, [0.3] * d, (b, e), cfg, barrier)
        assert pair.frac_stopped == full.frac_stopped[1::2]
        close = dict(rel=1e-9, abs=1e-12)
        assert pair.quotient_means == pytest.approx(full.quotient_means[1::2], **close)
        assert pair.quotient_ses == pytest.approx(full.quotient_ses[1::2], **close)
        for p in representation.P_NORMS:
            assert pair.lp_errors[p] == pytest.approx(full.lp_errors[p][1::2], **close)
            assert pair.lp_ses[p] == pytest.approx(full.lp_ses[p][1::2], **close)


class TestValidation:
    def test_eps_and_steps(self):
        g = builtin_generator("linear")
        with pytest.raises(ValidationError):
            representation_quotient(g, 0.1, 0.0, 0.0, 0.0, 0.0, _cfg())
        with pytest.raises(ValidationError):
            representation_quotient(g, 0.1, 0.0, 0.0, 0.0, 0.05, _cfg(n=20))

    def test_schedule_must_decrease(self):
        g = builtin_generator("linear")
        with pytest.raises(ValidationError):
            convergence_study(g, 0.1, 0.0, 0.0, 0.0, [0.05, 0.1], _cfg())
        with pytest.raises(ValidationError):
            convergence_study(g, 0.1, 0.0, 0.0, 0.0, [], _cfg())


class TestConverse:
    def test_ordered_generators_pass(self):
        g1 = builtin_generator("linear", c=1.0)
        g2 = builtin_generator("linear", c=0.4)
        points = [(0.2, 0.0, 1.0, 1.0), (0.4, 0.5, -0.5, 0.3)]
        rep = converse_comparison_probe(g1, g2, points, 0.04, _cfg(M=4096))
        assert rep.hypothesis_fraction == 1.0
        assert rep.all_ordered
        for row in rep.rows:
            assert row.mean1 >= row.mean2 - 3 * row.se_diff - 1e-6

    def test_swapped_ordering_fails_hypothesis(self):
        g1 = builtin_generator("linear", c=0.4)
        g2 = builtin_generator("linear", c=1.0)
        points = [(0.2, 0.0, 1.0, 1.0)]
        with pytest.raises(HypothesisError) as err:
            converse_comparison_probe(g1, g2, points, 0.04, _cfg(M=1024))
        assert "HYPOTHESIS_FAIL" in str(err.value)
        assert err.value.exit_code == 2

    def test_empty_points_rejected(self):
        g = builtin_generator("linear")
        with pytest.raises(ValidationError):
            converse_comparison_probe(g, g, [], 0.04, _cfg())


class TestSharedDraws:
    """A study draws its normals once; each window still matches its own
    representation_quotient call, field for field."""

    M = 2 * paths.PATH_BLOCK + 7  # three path blocks

    @staticmethod
    def _count_draws(monkeypatch):
        blocks = collections.Counter()
        aux = []
        lock = threading.Lock()
        fill, aux_normals = paths._fill_block, representation._aux_normals

        def counting_fill(incr, b, seed, scale):
            with lock:
                blocks[b] += 1
            return fill(incr, b, seed, scale)

        def counting_aux(seed, shape):
            aux.append(shape)
            return aux_normals(seed, shape)

        monkeypatch.setattr(paths, "_fill_block", counting_fill)
        monkeypatch.setattr(representation, "_aux_normals", counting_aux)
        return blocks, aux

    @pytest.mark.parametrize("d", [1, 2])
    def test_window_batch_is_the_windows_own_draw(self, d):
        # a window of a unit draw forms the increments sample_brownian draws
        # on its own grid, bit for bit, and its states are that batch's
        # cumulative path from the base, to rounding
        cfg = _cfg(seed=40, M=self.M, n=50)
        unit, _ = representation._draw(cfg, d, False)
        base = np.random.default_rng(40).normal(size=(self.M, d))
        grids = [TimeGrid(t, t + eps, 50) for t, eps in [(0.5, 0.1), (0.5, 0.0125), (0.2, 0.05)]]
        windows = paths.WindowStack(grids, unit.cumulative(), unit.increments, base)
        # the stack reads the draw in place
        assert np.shares_memory(windows.steps, unit.increments)
        dB, x = np.empty((self.M, d)), np.empty((self.M, d))
        for w, grid in enumerate(grids):
            want = paths.sample_brownian(grid, self.M, d, 40)
            states = want.cumulative(start=base)
            for j in range(grid.n_steps):
                assert np.array_equal(windows.increment(w, j, dB), want.increments[:, j]), (w, j)
                np.testing.assert_allclose(windows.state(w, j, x), states[:, j], rtol=0, atol=1e-13)

    def test_convergence_study_draws_once(self, monkeypatch):
        g = builtin_generator("stress", delta=0.1)
        cfg = _cfg(seed=41, M=self.M, n=50)
        schedule = (0.1, 0.05, 0.025, 0.0125)
        z = [0.3, -0.2]
        blocks, aux = self._count_draws(monkeypatch)
        report = convergence_study(g, 0.5, [0.1, -0.1], 0.2, z, schedule, cfg, barrier=2.0)
        assert blocks == {0: 1, 1: 1, 2: 1}
        assert aux == [(self.M, 2)]

        # a lone call draws its own normals, and matches its study window up
        # to the rounding of the study's wider fused fit
        cells = [
            representation_quotient(g, 0.5, [0.1, -0.1], 0.2, z, e, cfg, barrier=2.0)
            for e in schedule
        ]
        assert blocks == {0: 5, 1: 5, 2: 5}
        close = dict(rel=1e-9, abs=1e-12)
        assert report.frac_stopped == tuple(c.frac_stopped for c in cells)
        assert report.quotient_means == pytest.approx([c.mean for c in cells], **close)
        assert report.quotient_ses == pytest.approx([c.se for c in cells], **close)
        for p in representation.P_NORMS:
            want = [representation._lp_error(c.per_path, c.targets, c.se, p) for c in cells]
            assert report.lp_errors[p] == pytest.approx([e for e, _ in want], **close)
            assert report.lp_ses[p] == pytest.approx([se for _, se in want], **close)
        assert report.target_mean == float(np.mean(cells[-1].targets))

    def test_converse_probe_draws_once(self, monkeypatch):
        g1 = Generator(
            name="cos_x",
            eval=lambda t, x, y, z: 1.0 + 0.1 * np.cos(x[:, 0]) + 0.0 * y,
            lipschitz_z=0.0,
            state_dependent=True,
        )
        g2 = builtin_generator("linear", c=-1.0)
        cfg = _cfg(seed=42, M=self.M, n=50)
        points = [(0.0, 0.0, 1.0, 0.5), (0.3, 0.2, -0.5, 0.0)]
        blocks, aux = self._count_draws(monkeypatch)
        report = converse_comparison_probe(g1, g2, points, 0.05, cfg, barrier=3.0)
        assert blocks == {0: 1, 1: 1, 2: 1}
        # only g1 at t > 0 randomizes its anchor
        assert aux == [(self.M, 1)]

        for row, (t, x, y, z) in zip(report.rows, points, strict=True):
            q1 = representation_quotient(g1, t, x, y, z, 0.05, cfg, barrier=3.0)
            q2 = representation_quotient(g2, t, x, y, z, 0.05, cfg, barrier=3.0)
            assert (row.mean1, row.mean2) == (q1.mean, q2.mean)
            assert row.se_diff == _mean_se(q1.raw - q2.raw)
