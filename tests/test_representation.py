import collections
import math
import sys
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
    NumericalError,
    PicardError,
    TimeGrid,
    ValidationError,
    builtin_generator,
    convergence_study,
    converse_comparison_probe,
    semilinear_cos_problem,
    semilinear_cos_solution,
    viscosity_touch_check,
)
from bsdelab import paths, representation, solver
from bsdelab.core import _entropy_kernel, _mean_se
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

    # entry point -> its positional arguments; barrier 0.05 binds on most
    # paths of every window
    _LINEAR = builtin_generator("linear", c=0.3)
    _SOL = semilinear_cos_solution()
    _BINDING = {
        representation_quotient: (_LINEAR, 0.5, 0.0, 0.2, 0.3, 0.05, _cfg(M=500, n=50)),
        convergence_study: (_LINEAR, 0.5, 0.0, 0.2, 0.3, (0.1, 0.05), _cfg(M=500, n=50)),
        converse_comparison_probe: (
            builtin_generator("linear", c=1.0),
            builtin_generator("linear", c=-1.0),
            [(0.0, 0.0, 0.5, 0.3)],
            0.05,
            _cfg(M=500, n=50),
        ),
        viscosity_touch_check: (
            semilinear_cos_problem(),
            lambda t, x, sol=_SOL: float(sol.value(t, np.asarray(x, dtype=float))),
            _SOL,
            0.3,
            0.4,
            _cfg(M=500, n=50),
        ),
    }

    @pytest.mark.parametrize("entry", list(_BINDING), ids=lambda f: f.__name__)
    def test_binding_stop_warning_names_the_calling_line(self, entry):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = sys._getframe().f_lineno + 1
            entry(*self._BINDING[entry], barrier=0.05)
        hits = [w for w in caught if "too wide" in str(w.message)]
        assert hits
        assert {(w.filename, w.lineno) for w in hits} == {(__file__, line)}

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
        fn = lambda v: (-math.exp(y * abs(v)) + _entropy_kernel(0.1)(y) + znorm) * dens(v)
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
        grid = TimeGrid(0.5, 0.52, n_steps)
        windows = paths.WindowStack.from_draw([grid], unit.increments, base)
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
        # the unit draw is the one (N, M, d)-sized array a study holds (its
        # path only at checkpoint rows, TestCheckpointedStudy); no window
        # keeps states or scaled increments of its own
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


class TestCheckpointedStudy:
    """A study holds its unit draw and about 2*sqrt(N+1) rows of its path,
    never the whole cumulative path."""

    SCHEDULE = (0.1, 0.05, 0.025, 0.0125)

    @pytest.mark.parametrize("d", [1, 2])
    def test_quotient_cells_keep_no_path(self, d):
        # the draw is made before tracing, so the peak is all beyond it:
        # measured 97 (d = 1) and 148 (d = 2) M-vectors, where the stored
        # (N+1, M, d) path alone is 201*d of them
        M, n_steps = 5000, 200
        g = builtin_generator("stress", delta=0.1)
        cfg = _cfg(seed=7, M=M, n=n_steps)
        draw = representation._draw(cfg, d)
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                cells = representation._quotient_cells(
                    g, 0.5, np.zeros(d), 0.2, np.full(d, 0.3), self.SCHEDULE, cfg, 1.0, draw
                )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cells) == 4
        assert peak < (n_steps + 1) * M * d * 8

    @staticmethod
    def _count_cumulative(monkeypatch):
        calls = []
        build = paths.BrownianBatch.cumulative

        def counting(self, start=0.0):
            calls.append(self.grid)
            return build(self, start)

        monkeypatch.setattr(paths.BrownianBatch, "cumulative", counting)
        return calls

    def test_studies_build_no_cumulative_path(self, monkeypatch):
        g = builtin_generator("stress", delta=0.1)
        cfg = _cfg(seed=8, M=2000, n=50)
        calls = self._count_cumulative(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            convergence_study(g, 0.5, [0.1, -0.1], 0.2, [0.3, -0.2], self.SCHEDULE, cfg, 2.0)
            representation_quotient(g, 0.5, [0.1, -0.1], 0.2, [0.3, -0.2], 0.05, cfg, 2.0)
        assert calls == []

    def test_converse_probe_builds_no_cumulative_path(self, monkeypatch):
        # the hypothesis check reads the draw through one window, as every
        # quotient does
        g1 = builtin_generator("linear", c=1.0)
        g2 = builtin_generator("linear", c=-1.0)
        cfg = _cfg(seed=9, M=2000, n=50)
        points = [(0.0, 0.0, 1.0, 0.5), (0.3, 0.2, -0.5, 0.0), (0.6, -0.1, 0.0, -0.4)]
        calls = self._count_cumulative(monkeypatch)
        report = converse_comparison_probe(g1, g2, points, 0.05, cfg, barrier=3.0)
        assert len(report.rows) == len(points)
        assert calls == []


@pytest.fixture
def short_switch_interval():
    """Switch threads every 10 us, so workers interleave often and a write
    into another window's rows would show."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(old)


class TestWindowPool:
    """A study's windows run their stop passes and implicit steps side by
    side, one worker per usable CPU and window, and nothing shows it."""

    SCHEDULE = (0.1, 0.05, 0.025, 0.0125)

    @pytest.mark.usefixtures("short_switch_interval")
    @pytest.mark.parametrize("t", [0.0, 0.3])
    @pytest.mark.parametrize("d", [1, 2])
    def test_thread_count_never_changes_a_study(self, monkeypatch, d, t):
        # t = 0.3 regresses on (anchor, path) pairs, t = 0 on the path alone
        g = builtin_generator("stress", delta=0.1)
        cfg = _cfg(seed=17, M=3000, n=50)
        runs = []
        for cpus in (1, 2, 4):
            monkeypatch.setattr(paths, "_cpu_count", lambda: cpus)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                runs.append(
                    representation._quotient_cells(
                        g, t, np.full(d, 0.1), 0.2, np.full(d, 0.3), self.SCHEDULE, cfg, 1.0
                    )
                )
        assert any(c.frac_stopped > 0 for c in runs[0])
        for cells in runs[1:]:
            for want, got in zip(runs[0], cells, strict=True):
                assert got.frac_stopped == want.frac_stopped
                for field in ("per_path", "raw", "targets"):
                    assert np.array_equal(getattr(got, field), getattr(want, field)), field

    @staticmethod
    def _nan_at_step_30(in_stop_pass):
        # windows 1 and 3 reach t = 0.03 and t = 0.0075 at step 30; every
        # other window reaches them only at steps the sweep takes later.
        # The stop pass evaluates g at y = 0, where the NaN is left out
        # unless in_stop_pass
        def ev(t, x, y, z):
            y = np.asarray(y, dtype=float)
            out = 1.0 + 0.0 * y
            if any(np.isclose(t, hit, rtol=0, atol=1e-12) for hit in (0.03, 0.0075)):
                out = np.where((x[..., 0] > 0.1) & (in_stop_pass | (y != 0)), np.nan, out)
            return out

        return Generator(name="nan_at_step_30", eval=ev, lipschitz_z=0.0, state_dependent=True)

    def test_a_failing_worker_keeps_the_serial_witness(self, monkeypatch):
        g = self._nan_at_step_30(in_stop_pass=False)
        cfg = _cfg(seed=3, M=600, n=50)
        messages = []
        for cpus in (1, 2, 4):
            monkeypatch.setattr(paths, "_cpu_count", lambda: cpus)
            with pytest.raises(NumericalError, match=r"at window=1, step=30, path=\d+: ") as err:
                convergence_study(g, 0.0, 0.0, 0.5, 0.0, self.SCHEDULE, cfg, barrier=3.0)
            messages.append(str(err.value))
        assert messages[1:] == messages[:1] * 2
        # the stop pass names its first failing window in window order too:
        # window 0 reaches t = 0.03 at step 15
        stop_messages = []
        for cpus in (1, 2, 4):
            monkeypatch.setattr(paths, "_cpu_count", lambda: cpus)
            with pytest.raises(NumericalError, match=r"g0 at window=0, step=15, path=\d+") as err:
                convergence_study(
                    self._nan_at_step_30(in_stop_pass=True), 0.0, 0.0, 0.5, 0.0, self.SCHEDULE,
                    cfg, barrier=3.0,
                )
            stop_messages.append(str(err.value))
        assert stop_messages[1:] == stop_messages[:1] * 2
        # window 3 fails at the same step too: the first failing window in
        # window order is named, whichever worker finishes first
        with pytest.raises(NumericalError, match=r"at window=1, step=30, path=\d+: "):
            convergence_study(g, 0.0, 0.0, 0.5, 0.0, self.SCHEDULE[2:], cfg, barrier=3.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_picard_error_in_a_worker_stays_a_picard_error(self, monkeypatch):
        # at t = 0.03 (window 1, step 30) the implicit step
        # y = 10 + 1e6*y^2*dt has no root
        def ev(t, x, y, z):
            y = np.asarray(y, dtype=float)
            return (1e6 if np.isclose(t, 0.03, rtol=0, atol=1e-12) else 0.0) * y * y

        g = Generator(name="no_root_at_step_30", eval=ev, lipschitz_z=0.0)
        cfg = _cfg(seed=3, M=600, n=50)
        messages = []
        for cpus in (1, 2):
            monkeypatch.setattr(paths, "_cpu_count", lambda: cpus)
            with pytest.raises(PicardError, match="t=0.03") as err:
                convergence_study(g, 0.0, 0.0, 10.0, 0.0, self.SCHEDULE[:2], cfg, barrier=3.0)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_clamp_warnings_reach_the_caller_from_workers(self, monkeypatch):
        # y*|x| = 60 at the first implicit-step evaluation clamps the
        # stress driver's exponent in every window's task
        monkeypatch.setattr(paths, "_cpu_count", lambda: 2)
        g = builtin_generator("stress", delta=0.1)
        cfg = _cfg(seed=3, M=600, n=50)
        with pytest.warns(RuntimeWarning, match="clamped"):
            report = convergence_study(g, 0.0, 60.0, 1.0, 0.0, self.SCHEDULE[:2], cfg)
        assert np.all(np.isfinite(report.quotient_means))
        # an error filter, as the suite's, ends the study at the first
        # clamp, with the warning a serial run ends it with
        messages = []
        for cpus in (1, 2):
            monkeypatch.setattr(paths, "_cpu_count", lambda: cpus)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(RuntimeWarning, match="clamped") as err:
                    convergence_study(g, 0.0, 60.0, 1.0, 0.0, self.SCHEDULE[:2], cfg)
            messages.append(str(err.value))
        assert messages[0] == messages[1]


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


class TestProbeRule:
    """Every entry point checks and shapes its (x, z, eps) before any draw,
    and its report carries the d-vectors the solve used."""

    @staticmethod
    def _spy_draws_and_sweeps(monkeypatch):
        calls = []
        for module, name in [
            (representation, "sample_brownian"),
            (representation, "_sweep"),
            (solver, "_sweep"),  # the hypothesis check's sweeps
        ]:
            fn = getattr(module, name)

            def spy(*args, _fn=fn, _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        return calls

    GOOD = (0.2, 0.0, 1.0, [0.5, 0.3])
    WIDE = (0.4, [0.0, 0.0, 0.0], -0.5, [0.3, 0.1])  # x of size 3 at d = 2

    @pytest.mark.parametrize(
        "points, eps, n, match",
        [
            ([WIDE], 0.04, 50, "state anchor has size 3, expected 2"),
            ([GOOD, WIDE], 0.04, 50, "state anchor has size 3, expected 2"),
            ([GOOD], 0.04, 10, "need n_steps >= 50 per quotient window, got 10"),
            ([GOOD], 0.0, 50, "eps must be finite and > 0, got 0.0"),
            ([GOOD], math.nan, 50, "eps must be finite and > 0, got nan"),
            ([GOOD], math.inf, 50, "eps must be finite and > 0, got inf"),
            ([(math.nan,) + GOOD[1:]], 0.04, 50, "t must be finite and >= 0, got nan"),
            ([GOOD, (-0.5,) + GOOD[1:]], 0.04, 50, "t must be finite and >= 0, got -0.5"),
        ],
        ids=[
            "first_x", "later_x", "n_steps", "eps_zero", "eps_nan", "eps_inf", "first_t_nan",
            "later_t",
        ],
    )
    def test_converse_refuses_before_any_draw(self, monkeypatch, points, eps, n, match):
        g1 = builtin_generator("linear", c=1.0)
        g2 = builtin_generator("linear", c=0.4)
        calls = self._spy_draws_and_sweeps(monkeypatch)
        with pytest.raises(ValidationError, match=match):
            converse_comparison_probe(g1, g2, points, eps, _cfg(M=512, n=n))
        assert calls == []
        # the spies do see a valid probe's draw and sweeps
        converse_comparison_probe(g1, g2, [self.GOOD], 0.04, _cfg(M=512, n=50))
        assert set(calls) == {"sample_brownian", "_sweep"}

    def test_study_refuses_a_nan_window_before_any_draw(self, monkeypatch):
        g = builtin_generator("linear")
        calls = self._spy_draws_and_sweeps(monkeypatch)
        with pytest.raises(ValidationError, match="eps must be finite and > 0, got nan"):
            convergence_study(g, 0.1, 0.0, 0.0, 0.0, [0.1, math.nan, 0.02], _cfg())
        assert calls == []

    def test_study_refuses_an_infinite_window_before_any_draw(self, monkeypatch):
        # unchecked, the study drew, ran the stop pass and failed in the
        # sweep on a non-finite terminal value
        g = builtin_generator("linear")
        calls = self._spy_draws_and_sweeps(monkeypatch)
        with pytest.raises(ValidationError, match="eps must be finite and > 0, got inf"):
            convergence_study(g, 0.1, 0.0, 0.0, 0.0, [math.inf, 0.1], _cfg())
        assert calls == []

    def test_false_state_free_declaration_refused_before_the_stop_pass(self, monkeypatch):
        # y*|x| at x = 0 is 0 on every path: undeclared, the study read its
        # quotients (.17/.12 at M = 5000) against a target mean of 0
        def ev(t, x, y, z):
            return np.asarray(y) * np.abs(x[..., 0])

        passes = []

        def spy(*args, **kwargs):
            passes.append(kwargs["barrier"])
            return paths.stopping_indices(*args, **kwargs)

        monkeypatch.setattr(representation, "stopping_indices", spy)
        lying = Generator(name="lying", eval=ev, lipschitz_z=0.0)
        point = (0.0, 1.0, 0.0, [0.1, 0.05], _cfg(M=2000, n=50))
        with pytest.raises(HypothesisError, match=r"^HYPOTHESIS_FAIL lying: g declared state-free"):
            convergence_study(lying, 0.5, *point)
        assert passes == []
        # at t = 0 the realized state is x itself, which nothing refuses
        convergence_study(lying, 0.0, *point)
        # declared, the driver is probed at the realized state
        honest = Generator(name="honest", eval=ev, lipschitz_z=0.0, state_dependent=True)
        report = convergence_study(honest, 0.5, *point)
        assert len(passes) == 2
        assert report.target_mean == pytest.approx(math.sqrt(0.5 * 2 / math.pi), abs=0.05)
        assert report.quotient_means[-1] == pytest.approx(report.target_mean, abs=0.1)

    @pytest.mark.parametrize("t", [math.nan, -0.5, math.inf])
    def test_study_and_quotient_refuse_a_bad_t_before_any_draw(self, monkeypatch, t):
        # NaN would fail later in TimeGrid without naming t; a t < 0 would
        # probe a state-dependent driver at x itself, as at t = 0
        g = builtin_generator("linear", c=1.0)
        calls = self._spy_draws_and_sweeps(monkeypatch)
        match = rf"t must be finite and >= 0, got {t}"
        with pytest.raises(ValidationError, match=match):
            convergence_study(g, t, 0.0, 0.0, 0.0, [0.1, 0.05], _cfg(M=500, n=50))
        with pytest.raises(ValidationError, match=match):
            representation_quotient(g, t, 0.0, 0.0, 0.0, 0.1, _cfg(M=500, n=50))
        assert calls == []

    @pytest.mark.parametrize(
        "x, y, z, match",
        [
            (math.nan, 0.0, 0.0, r"x must be finite, got \[nan\]"),
            ([0.1, math.inf], 0.0, [0.0, 0.0], r"x must be finite, got \[0.1 inf\]"),
            (0.0, math.nan, 0.0, "y must be finite, got nan"),
            (0.0, math.inf, 0.0, "y must be finite, got inf"),
            (0.0, 0.0, math.nan, r"z must be finite, got \[nan\]"),
            (0.0, 0.0, [0.3, -math.inf], r"z must be finite, got \[ 0.3 -inf\]"),
        ],
        ids=["x_nan", "x_inf", "y_nan", "y_inf", "z_nan", "z_minus_inf"],
    )
    def test_a_non_finite_point_is_refused_before_any_draw(self, monkeypatch, x, y, z, match):
        # unchecked, y or z = NaN failed in the sweep with "non-finite
        # terminal value", naming neither, and x = NaN with a state-free
        # driver ran to the end and reported x = (nan,)
        g1 = builtin_generator("linear", c=1.0)
        g2 = builtin_generator("linear", c=0.4)
        cfg = _cfg(M=500, n=50)
        calls = self._spy_draws_and_sweeps(monkeypatch)
        with pytest.raises(ValidationError, match=match):
            representation_quotient(g1, 0.2, x, y, z, 0.1, cfg)
        with pytest.raises(ValidationError, match=match):
            convergence_study(g1, 0.2, x, y, z, [0.1, 0.05], cfg)
        good = (0.2, np.zeros(np.size(z)), 0.0, np.zeros(np.size(z)))
        for points in ([(0.2, x, y, z)], [good, (0.2, x, y, z)]):
            with pytest.raises(ValidationError, match=match):
                converse_comparison_probe(g1, g2, points, 0.04, cfg)
        assert calls == []

    def test_study_reports_the_spread_anchor(self):
        g = builtin_generator("linear", a=-0.5, b=[0.2, -0.1], c=0.3)
        cfg = _cfg(M=1024, n=50)
        report = convergence_study(g, 0.5, 0.1, 0.2, [0.3, 0.2], (0.1, 0.05), cfg, barrier=3.0)
        assert report.x == (0.1, 0.1)
        assert report.z == (0.3, 0.2)
        assert all(type(v) is float for v in report.x + report.z)
        # the scalar anchor is the d-vector one, field for field
        spread = convergence_study(
            g, 0.5, [0.1, 0.1], 0.2, [0.3, 0.2], [0.1, 0.05], cfg, barrier=3.0
        )
        assert report == spread

    def test_converse_rows_report_the_spread_anchor(self):
        g1 = builtin_generator("linear", c=1.0)
        g2 = builtin_generator("linear", c=0.4)
        points = [(0.2, 0.1, 1.0, [0.5, 0.3]), (0.4, [-0.2], -0.5, [0.3, 0.1])]
        report = converse_comparison_probe(g1, g2, points, 0.04, _cfg(M=1024, n=50))
        assert [row.x for row in report.rows] == [(0.1, 0.1), (-0.2, -0.2)]
        assert [row.z for row in report.rows] == [(0.5, 0.3), (0.3, 0.1)]
        for row in report.rows:
            assert all(type(v) is float for v in row.x + row.z)


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

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(-1.0, 1.0),
        b=st.floats(-0.5, 0.5),
        c=st.floats(-1.0, 1.0),
        shift=st.floats(0.0, 1.0),
        points=st.lists(
            st.tuples(
                st.floats(0.0, 0.5), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)
            ),
            min_size=2,
            max_size=2,
        ),
        seed=st.integers(0, 2**16),
    )
    def test_shifted_generator_passes_both_orderings(self, a, b, c, shift, points, seed):
        # comparison theorem and its converse: g + s >= g for s >= 0, so the
        # solutions are ordered and so are the quotients at every point
        g1 = builtin_generator("linear", a=a, b=b, c=c + shift)
        g2 = builtin_generator("linear", a=a, b=b, c=c)
        rep = converse_comparison_probe(g1, g2, points, 0.05, _cfg(seed=seed, M=2000, n=50))
        assert rep.hypothesis_fraction >= 0.999
        assert rep.all_ordered

    @pytest.mark.parametrize("threshold", [math.nan, 0.0, -0.5, 1.5])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        # NaN would switch the solution-ordering gate off (fraction < NaN is
        # never true) and 1.5 would fail an ordering that holds everywhere
        g1 = builtin_generator("linear", c=1.0)
        g2 = builtin_generator("linear", c=0.4)
        points = [(0.2, 0.0, 1.0, 1.0)]
        with pytest.raises(ValidationError, match=r"hypothesis_threshold must lie in \(0, 1\]"):
            converse_comparison_probe(
                g1, g2, points, 0.04, _cfg(M=1024), hypothesis_threshold=threshold
            )
        # the closed end is a threshold: every pair ordered passes it
        rep = converse_comparison_probe(
            g1, g2, points, 0.04, _cfg(M=1024), hypothesis_threshold=1.0
        )
        assert rep.hypothesis_fraction == 1.0


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
        unit, _ = representation._draw(cfg, d)
        base = np.random.default_rng(40).normal(size=(self.M, d))
        grids = [TimeGrid(t, t + eps, 50) for t, eps in [(0.5, 0.1), (0.5, 0.0125), (0.2, 0.05)]]
        windows = paths.WindowStack.from_draw(grids, unit.increments, base)
        # the stack reads the draw in place
        assert np.shares_memory(windows.steps, unit.increments)
        dB, x = np.empty((self.M, d)), np.empty((self.M, d))
        for w, grid in enumerate(grids):
            want = paths.sample_brownian(grid, self.M, d, 40)
            states = want.cumulative(start=base)
            rows = windows.rows()
            for j in range(grid.n_steps):
                row = next(rows)
                assert np.array_equal(windows.increment(w, j, dB), want.increments[:, j]), (w, j)
                np.testing.assert_allclose(windows.state(w, row, x), states[:, j], rtol=0, atol=1e-13)

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
        # one aux draw, read only by g1 at t > 0, whose anchor is randomized
        assert aux == [(self.M, 1)]

        for row, (t, x, y, z) in zip(report.rows, points, strict=True):
            q1 = representation_quotient(g1, t, x, y, z, 0.05, cfg, barrier=3.0)
            q2 = representation_quotient(g2, t, x, y, z, 0.05, cfg, barrier=3.0)
            assert (row.mean1, row.mean2) == (q1.mean, q2.mean)
            assert row.se_diff == _mean_se(q1.raw - q2.raw)


class TestEstimatorInvariants:
    """One draw rule, one terminal product and one target array per study."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("K", [1, 4])
    def test_terminals_are_one_product(self, monkeypatch, d, K):
        # the K terminals handed to the sweep are y + moved_w @ z, bit for
        # bit, moved_w window w's displacement at its stops
        M, n = 3000, 50
        cfg = _cfg(seed=60 + d, M=M, n=n)
        unit, aux = representation._draw(cfg, d)
        base = 0.1 + np.sqrt(0.5) * aux
        grids = [TimeGrid(0.5, 0.5 + 0.1 / 2**w, n) for w in range(K)]
        windows = paths.WindowStack.from_draw(grids, unit.increments, base)
        g = builtin_generator("stress", delta=0.1)
        y, z = 0.2, np.linspace(0.3, -0.4, d)
        seen = []

        def capture(g, terminals, *args, **kwargs):
            seen.append(terminals.copy())
            return np.zeros((K, 1, M)), None, np.zeros((K, M)), None

        monkeypatch.setattr(representation, "_sweep", capture)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            representation._stopped_solve(g, windows, y, z, cfg, 0.5, anchor=base)
        moved = np.empty((K, M, d))
        stop = paths.stopping_indices(windows, g, barrier=0.5, displacement=moved)
        assert 0 < np.count_nonzero(stop < n) < K * M
        want = np.array([y + moved_w @ z for moved_w in moved])
        (got,) = seen
        assert got.shape == (K, M)
        assert got.tobytes() == want.tobytes()

    def test_cells_share_one_read_only_targets_array(self):
        g = builtin_generator("stress", delta=0.1)
        cfg = _cfg(seed=61, M=2000, n=50)
        cells = representation._quotient_cells(
            g, 0.5, np.array([0.1, -0.1]), 0.2, np.array([0.3, -0.2]), (0.1, 0.05, 0.025), cfg, 2.0
        )
        assert len(cells) == 3
        assert all(c.targets is cells[0].targets for c in cells)
        assert not cells[0].targets.flags.writeable
        assert cells[0].targets.shape == (2000,)

    @pytest.mark.parametrize("d", [1, 2])
    def test_draw_is_the_unit_draw_and_the_aux_stream(self, monkeypatch, d):
        M, n, seed = 2000, 50, 62
        cfg = _cfg(seed=seed, M=M, n=n)
        unit, aux = representation._draw(cfg, d)
        want = paths.sample_brownian(TimeGrid(0.0, float(n), n), M, d, seed)
        assert unit.grid == want.grid
        assert np.array_equal(unit.increments, want.increments)
        assert np.array_equal(aux, representation._aux_normals(seed, (M, d)))
        # a driver that reads no state draws the aux normals too, once
        drawn = []
        aux_normals = representation._aux_normals

        def counting(seed, shape):
            drawn.append(shape)
            return aux_normals(seed, shape)

        monkeypatch.setattr(representation, "_aux_normals", counting)
        for g in (builtin_generator("linear", c=1.0), builtin_generator("stress", delta=0.1)):
            drawn.clear()
            representation_quotient(g, 0.5, np.zeros(d), 0.2, np.full(d, 0.3), 0.05, cfg, 2.0)
            assert drawn == [(M, d)]
