import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsdelab import (
    BSDEProblem,
    ExperimentConfig,
    ForwardBatch,
    Generator,
    PicardError,
    TimeGrid,
    ValidationError,
    builtin_generator,
    closed_form_linear,
    comparison_check,
    polynomial_design,
    sample_brownian,
    solve_bsde,
    stability_check,
    stopping_indices,
)
from bsdelab.solver import _picard_step


def _brownian_forward(grid, M, d, seed, start=0.0):
    batch = sample_brownian(grid, M, d, seed)
    return ForwardBatch(grid=grid, states=batch.cumulative(start=start)), batch


def _mean_ode_oracle(a, b, c, y0, z0, t_start, t_end, n=200_000):
    """RK4 on m' = -(a m + <b, z0> e^{a(T-s)} + c), m(T) = y0, backward.

    The mean of the backward solution for terminal y0 + <z0, B_T - B_t0>
    satisfies this scalar ODE because the martingale integrand is the
    deterministic curve z0 e^{a(T-s)}.  Integrated backward from T this is
    an independent numeric oracle for the time-t_start value.
    """
    b = np.atleast_1d(np.asarray(b, dtype=float))
    z0 = np.atleast_1d(np.asarray(z0, dtype=float))
    if b.size != z0.size:
        if b.size == 1:
            b = np.full(z0.size, b[0])
        elif z0.size == 1:
            z0 = np.full(b.size, z0[0])
    bz = float(b @ z0)
    T = t_end
    hstep = (t_end - t_start) / n

    def f(s, m):
        return -(a * m + bz * math.exp(a * (T - s)) + c)

    m = y0
    s = t_end
    for _ in range(n):
        k1 = f(s, m)
        k2 = f(s - hstep / 2, m - hstep * k1 / 2)
        k3 = f(s - hstep / 2, m - hstep * k2 / 2)
        k4 = f(s - hstep, m - hstep * k3)
        m -= hstep * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        s -= hstep
    return m


class TestDesign:
    def test_shapes_and_intercept(self):
        states = np.random.default_rng(0).normal(size=(50, 2))
        d = polynomial_design(states, 3)
        assert d.shape == (50, 1 + 2 * 3)
        assert np.allclose(d[:, 0], 1.0)

    def test_degree_zero(self):
        states = np.random.default_rng(0).normal(size=(10, 3))
        d = polynomial_design(states, 0)
        assert d.shape == (10, 1)

    def test_constant_coordinate_contributes_nothing(self):
        states = np.full((20, 1), 4.2)
        d = polynomial_design(states, 3)
        # standardization maps a constant column to zeros, so the fit falls
        # back to the intercept alone
        assert np.allclose(d[:, 1:], 0.0)


class TestMartingaleCase:
    def test_zero_generator_recovers_conditional_expectations(self):
        grid = TimeGrid(0.0, 1.0, 40)
        M = 20_000
        fw, batch = _brownian_forward(grid, M, 1, seed=4)
        problem = BSDEProblem(
            generator=builtin_generator("linear"),
            t_start=0.0,
            t_end=1.0,
            dimension_d=1,
            terminal=lambda s: s[:, -1, 0],
        )
        cfg = ExperimentConfig(seed=4, n_paths=M, n_steps=40)
        sol = solve_bsde(problem, fw, batch, cfg)
        # Y_t = B_t: mean 0, and pathwise close to the state
        se0 = sol.Y[:, 0].std(ddof=1) / math.sqrt(M) + 1.0 / math.sqrt(M)
        assert abs(sol.Y[:, 0].mean()) <= 4 * se0
        mid = 20
        resid = sol.Y[:, mid] - fw.states[:, mid, 0]
        assert np.sqrt(np.mean(resid**2)) < 0.05
        # Z integrand is identically 1; late steps carry slope noise of
        # order sqrt(t_i/dt)/sqrt(M), so the per-step band is loose and the
        # across-step average tight
        zbar = sol.Z.mean(axis=0)[:, 0]
        assert abs(zbar.mean() - 1.0) < 0.02
        assert np.all(np.abs(zbar - 1.0) < 0.15)

    def test_terminal_row_is_exact(self):
        grid = TimeGrid(0.0, 1.0, 10)
        fw, batch = _brownian_forward(grid, 500, 1, seed=1)
        xi_fn = lambda s: np.cos(s[:, -1, 0])
        problem = BSDEProblem(
            generator=builtin_generator("linear", c=1.0),
            t_start=0.0,
            t_end=1.0,
            dimension_d=1,
            terminal=xi_fn,
        )
        cfg = ExperimentConfig(seed=1, n_paths=500, n_steps=10)
        sol = solve_bsde(problem, fw, batch, cfg)
        assert np.array_equal(sol.Y[:, -1], np.cos(fw.states[:, -1, 0]))

    def test_regression_residual_orthogonality(self):
        grid = TimeGrid(0.0, 1.0, 5)
        M = 5000
        fw, batch = _brownian_forward(grid, M, 1, seed=8)
        problem = BSDEProblem(
            generator=builtin_generator("linear"),
            t_start=0.0,
            t_end=1.0,
            dimension_d=1,
            terminal=lambda s: s[:, -1, 0] ** 2,
        )
        cfg = ExperimentConfig(seed=8, n_paths=M, n_steps=5)
        sol = solve_bsde(problem, fw, batch, cfg)
        # least squares leaves residuals orthogonal to the design, so the
        # fitted conditional means preserve the sample mean of the targets
        assert sol.Y[:, 3].mean() == pytest.approx(sol.Y[:, 4].mean(), abs=1e-10)


class TestImplicitEulerReduction:
    def test_degree_zero_matches_scalar_recursion(self):
        # deterministic data: xi = 1, g = -y; each step solves
        # y = m/(1 + dt) exactly, so Y0 = (1 + dt)^{-N}
        N = 100
        grid = TimeGrid(0.0, 1.0, N)
        M = 512
        fw, batch = _brownian_forward(grid, M, 1, seed=2)
        problem = BSDEProblem(
            generator=builtin_generator("negative_exponential"),
            t_start=0.0,
            t_end=1.0,
            dimension_d=1,
            terminal=lambda s: np.ones(s.shape[0]),
        )
        cfg = ExperimentConfig(seed=2, n_paths=M, n_steps=N, basis_degree=0)
        sol = solve_bsde(problem, fw, batch, cfg)
        dt = 1.0 / N
        expected = (1.0 + dt) ** (-N)
        assert sol.y0_estimate() == pytest.approx(expected, abs=1e-8)
        assert np.allclose(sol.Y[:, 0], expected, atol=1e-8)
        # and the discretization sits within 2% of the continuum limit
        assert abs(sol.y0_estimate() - math.exp(-1.0)) / math.exp(-1.0) < 0.02

    def test_degree_zero_recursion_to_rounding(self):
        # the secant step solves each affine step exactly up to rounding, so
        # the sweep reproduces the scalar recursion far below picard_tol
        N = 100
        grid = TimeGrid(0.0, 1.0, N)
        M = 512
        fw, batch = _brownian_forward(grid, M, 1, seed=2)
        problem = BSDEProblem(
            generator=builtin_generator("negative_exponential"),
            t_start=0.0,
            t_end=1.0,
            dimension_d=1,
            terminal=lambda s: np.ones(s.shape[0]),
        )
        cfg = ExperimentConfig(seed=2, n_paths=M, n_steps=N, basis_degree=0)
        sol = solve_bsde(problem, fw, batch, cfg)
        expected = (1.0 + 1.0 / N) ** (-N)
        assert np.max(np.abs(sol.Y[:, 0] - expected)) <= 1e-12

    def test_picard_iteration_counts_recorded(self):
        grid = TimeGrid(0.0, 1.0, 10)
        fw, batch = _brownian_forward(grid, 256, 1, seed=3)
        problem = BSDEProblem(
            generator=builtin_generator("negative_exponential"),
            t_start=0.0,
            t_end=1.0,
            dimension_d=1,
            terminal=lambda s: np.ones(s.shape[0]),
        )
        cfg = ExperimentConfig(seed=3, n_paths=256, n_steps=10)
        sol = solve_bsde(problem, fw, batch, cfg)
        iters = sol.diagnostics["picard_iters"]
        assert iters.shape == (10,)
        assert np.all(iters >= 1)
        assert "sup_abs_y" in sol.diagnostics


class TestClosedFormLinear:
    @pytest.mark.parametrize(
        "a,b,c,y0,z0",
        [
            (-1.0, 0.0, 0.0, 1.0, 0.0),
            (0.0, 0.0, 5.0, 0.0, 0.0),
            (2.0, 0.3, -1.0, 0.5, 2.0),
            (-0.7, [0.2, -0.4], 1.3, -2.0, [1.0, 0.5]),
        ],
    )
    def test_matches_mean_ode_oracle(self, a, b, c, y0, z0):
        got = closed_form_linear(a, b, c, y0, z0, 0.2, 1.4)
        want = _mean_ode_oracle(a, b, c, y0, z0, 0.2, 1.4)
        assert got == pytest.approx(want, abs=1e-8)

    def test_known_special_cases(self):
        # a = -1, others zero over unit horizon: e^{-1}
        assert closed_form_linear(-1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0) == pytest.approx(
            math.exp(-1.0), abs=1e-12
        )
        # pure constant driver: c * theta
        assert closed_form_linear(0.0, 0.0, 5.0, 0.0, 0.0, 0.0, 0.5) == pytest.approx(
            2.5, abs=1e-12
        )

    def test_matches_monte_carlo_solver(self):
        a, b, c, y0, z0 = -0.8, 0.4, 0.6, 1.2, 0.9
        grid = TimeGrid(0.0, 1.0, 80)
        M = 20_000
        fw, batch = _brownian_forward(grid, M, 1, seed=12)
        g = builtin_generator("linear", a=a, b=b, c=c)
        problem = BSDEProblem(
            generator=g,
            t_start=0.0,
            t_end=1.0,
            dimension_d=1,
            terminal=lambda s: y0 + z0 * (s[:, -1, 0] - s[:, 0, 0]),
        )
        cfg = ExperimentConfig(seed=12, n_paths=M, n_steps=80)
        sol = solve_bsde(problem, fw, batch, cfg)
        target = closed_form_linear(a, b, c, y0, z0, 0.0, 1.0)
        # solver noise: terminal spread z0 plus O(dt) scheme bias
        se = sol.Y[:, 0].std(ddof=1) / math.sqrt(M) + abs(z0) / math.sqrt(M)
        assert abs(sol.y0_estimate() - target) < 4 * se + 0.02 * abs(target)


class TestPicardFallback:
    def test_bisection_solves_strong_contraction_breaker(self):
        # a*dt = -6: the damped step alone diverges here (factor 2.5); the
        # secant step reads off the slope 7 of y - g*dt and converges
        # without bisection
        grid = TimeGrid(0.0, 1.0, 10)
        M = 64
        fw, batch = _brownian_forward(grid, M, 1, seed=5)
        problem = BSDEProblem(
            generator=builtin_generator("linear", a=-60.0),
            t_start=0.0,
            t_end=1.0,
            dimension_d=1,
            terminal=lambda s: np.ones(s.shape[0]),
        )
        cfg = ExperimentConfig(seed=5, n_paths=M, n_steps=10)
        expected = (1.0 + 6.0) ** (-10)
        sol = solve_bsde(problem, fw, batch, cfg)
        assert sol.y0_estimate() == pytest.approx(expected, abs=2e-10)
        assert sol.diagnostics["bisection_paths"].sum() == 0
        # a one-evaluation budget stops at the undamped first iterate
        # (residual 36*base), so the bisection fallback solves
        # y(1 + 6) = base; it stops on absolute interval width picard_tol,
        # and the per-step error propagates damped by 1/7: budget ~ tol * 7/6
        sol = solve_bsde(problem, fw, batch, dataclasses.replace(cfg, picard_max=1))
        assert sol.y0_estimate() == pytest.approx(expected, abs=2e-10)
        assert sol.diagnostics["bisection_paths"].sum() > 0

    @pytest.mark.parametrize("scale", [1e6, 1e7, 1e8])
    def test_terminal_scale_beyond_tolerance_resolution(self, scale):
        # at |y| >= 1e6 adjacent doubles lie more than picard_tol apart; the
        # step is measured as taken, so a step that rounds away converges
        a, b, c = 0.5, 0.3, 1.0
        grid = TimeGrid(0.0, 1.0, 20)
        M = 256
        fw, batch = _brownian_forward(grid, M, 1, seed=5)
        problem = BSDEProblem(
            generator=builtin_generator("linear", a=a, b=b, c=c),
            t_start=0.0,
            t_end=1.0,
            dimension_d=1,
            terminal=lambda s: scale * (1.0 + 0.1 * s[:, -1, 0]),
        )
        cfg = ExperimentConfig(seed=5, n_paths=M, n_steps=20)
        sol = solve_bsde(problem, fw, batch, cfg)
        assert sol.diagnostics["bisection_paths"].sum() == 0
        assert np.all(sol.diagnostics["picard_iters"] <= 6)
        target = closed_form_linear(a, b, c, scale, 0.1 * scale, 0.0, 1.0)
        # M = 256 paths and dt = 0.05: a loose band around the closed form
        assert sol.y0_estimate() == pytest.approx(target, rel=0.05)

    def test_bisection_settles_where_doubles_run_out(self):
        # forced bisection (picard_max=1) at |y| ~ 1e6, where adjacent
        # doubles lie more than picard_tol apart: a path stops once its
        # midpoint rounds onto an endpoint, which brackets the root
        M, dt = 2000, 0.05
        g = builtin_generator("linear", a=-1.0)
        cfg = ExperimentConfig(seed=5, n_paths=M, n_steps=20, picard_max=1)
        rng = np.random.default_rng(5)
        base = 1e6 * (1.0 + 0.1 * rng.normal(size=M))
        x, z = np.zeros((M, 1)), np.zeros((M, 1))
        y, iters, n_fallback, gv = _picard_step(g, 0.0, x, base, z, dt, cfg)
        assert n_fallback == M
        assert np.array_equal(gv, -y)
        # root base/(1 + dt), itself rounded by half a spacing
        assert np.all(np.abs(y - base / (1.0 + dt)) <= 1.5 * np.spacing(np.abs(y)))
        resid = np.abs(y - base - gv * dt)
        assert np.all(resid <= 4 * np.spacing(np.abs(base)))

        # the whole sweep, every step by bisection, against the secant sweep
        grid = TimeGrid(0.0, 1.0, 20)
        fw, batch = _brownian_forward(grid, M, 1, seed=5)
        problem = BSDEProblem(
            generator=g,
            t_start=0.0,
            t_end=1.0,
            dimension_d=1,
            terminal=lambda s: 1e6 * (1.0 + 0.1 * s[:, -1, 0]),
        )
        sol = solve_bsde(problem, fw, batch, cfg)
        assert sol.diagnostics["bisection_paths"].sum() == 20 * M
        ref = solve_bsde(problem, fw, batch, dataclasses.replace(cfg, picard_max=50))
        assert ref.diagnostics["bisection_paths"].sum() == 0
        # each of the 20 steps adds at most a couple of spacings (30 in all
        # measured)
        assert np.all(np.abs(sol.Y - ref.Y) <= 20 * 2 * np.spacing(np.abs(ref.Y)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unsolvable_step_raises(self):
        # g = y^2 with base = 10 and dt = 0.1: v - 10 - 0.1 v^2 has no real
        # root, so the implicit step must fail loudly (the diverging damped
        # iterates overflow on the way, which numpy flags; that is expected)
        g = Generator(
            name="square_y",
            eval=lambda t, x, y, z: np.asarray(y, dtype=float) ** 2,
            lipschitz_z=0.0,
        )
        grid = TimeGrid(0.0, 1.0, 10)
        M = 8
        fw, batch = _brownian_forward(grid, M, 1, seed=6)
        problem = BSDEProblem(
            generator=g,
            t_start=0.0,
            t_end=1.0,
            dimension_d=1,
            terminal=lambda s: np.full(s.shape[0], 10.0),
        )
        cfg = ExperimentConfig(seed=6, n_paths=M, n_steps=10)
        with pytest.raises(PicardError):
            solve_bsde(problem, fw, batch, cfg)


class TestImplicitStepProperties:
    """The implicit step on affine drivers g = a*y + b*z + c, any slope."""

    @settings(max_examples=300, deadline=None)
    @given(
        a_dt=st.floats(-20.0, 0.5),
        dt=st.floats(1e-4, 0.5),
        b=st.floats(-2.0, 2.0),
        c=st.floats(-100.0, 100.0),
        scale=st.floats(0.0, 1e4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_affine_step(self, a_dt, dt, b, c, scale, seed):
        a = a_dt / dt
        g = builtin_generator("linear", a=a, b=b, c=c)
        cfg = ExperimentConfig(seed=0, n_paths=32, n_steps=1)
        tol = cfg.picard_tol
        rng = np.random.default_rng(seed)
        M = cfg.n_paths
        base = scale * rng.uniform(-1.0, 1.0, M)
        x = np.zeros((M, 1))
        z = rng.normal(size=(M, 1))
        # a quarter of the paths stopped: their step is y = base
        dt_eff = np.where(rng.random(M) < 0.25, 0.0, dt)
        y, iters, n_fallback, gv = _picard_step(g, 0.0, x, base, z, dt_eff, cfg)
        assert n_fallback == 0
        assert iters <= 4

        def gy(v):
            return np.asarray(g(0.0, x, v, z), dtype=float)

        # rounding of g at the scale of its terms, and of y - base
        eps = np.finfo(float).eps
        g_dust = 8 * eps * (abs(a) * (np.abs(y) + tol) + np.abs(b * z[:, 0]) + abs(c))
        y_dust = 8 * eps * (np.abs(y) + np.abs(base))
        # the step-size stop leaves y within picard_tol of the root, so the
        # residual is within picard_tol times the slope 1 - a*dt_eff
        slope = 1.0 - a * dt_eff
        resid = np.abs(y - base - gy(y) * dt_eff)
        assert np.all(resid <= slope * tol + g_dust * dt_eff + y_dust)
        assert np.all(resid <= 25 * tol)
        # gv is g at an iterate within picard_tol of y: g is affine in y, so
        # gv lies between g(y - tol) and g(y + tol)
        lo = np.minimum(gy(y - tol), gy(y + tol))
        hi = np.maximum(gy(y - tol), gy(y + tol))
        assert np.all((lo - g_dust <= gv) & (gv <= hi + g_dust))


class TestStopGating:
    def test_all_stopped_drops_generator(self):
        grid = TimeGrid(0.0, 1.0, 10)
        M = 1000
        fw, batch = _brownian_forward(grid, M, 1, seed=7)
        problem = BSDEProblem(
            generator=builtin_generator("linear", c=100.0),
            t_start=0.0,
            t_end=1.0,
            dimension_d=1,
            terminal=lambda s: s[:, -1, 0],
        )
        cfg = ExperimentConfig(seed=7, n_paths=M, n_steps=10)
        sol = solve_bsde(problem, fw, batch, cfg, stop_indices=np.zeros(M, dtype=int))
        # with dt_eff = 0 everywhere the huge driver never contributes
        assert abs(sol.y0_estimate() - fw.states[:, -1, 0].mean()) < 1e-8

    def test_partial_stop_between_extremes(self):
        grid = TimeGrid(0.0, 1.0, 10)
        M = 1000
        fw, batch = _brownian_forward(grid, M, 1, seed=7)
        problem = BSDEProblem(
            generator=builtin_generator("linear", c=1.0),
            t_start=0.0,
            t_end=1.0,
            dimension_d=1,
            terminal=lambda s: np.zeros(s.shape[0]),
        )
        cfg = ExperimentConfig(seed=7, n_paths=M, n_steps=10)
        full = solve_bsde(problem, fw, batch, cfg)
        half = solve_bsde(
            problem, fw, batch, cfg, stop_indices=np.full(M, 5, dtype=int)
        )
        assert full.y0_estimate() == pytest.approx(1.0, abs=1e-8)
        assert half.y0_estimate() == pytest.approx(0.5, abs=1e-8)

    def test_stop_shape_validated(self):
        grid = TimeGrid(0.0, 1.0, 5)
        fw, batch = _brownian_forward(grid, 32, 1, seed=0)
        problem = BSDEProblem(
            generator=builtin_generator("linear"),
            t_start=0.0,
            t_end=1.0,
            dimension_d=1,
            terminal=lambda s: s[:, -1, 0],
        )
        cfg = ExperimentConfig(seed=0, n_paths=32, n_steps=5)
        with pytest.raises(ValidationError):
            solve_bsde(problem, fw, batch, cfg, stop_indices=np.zeros(7, dtype=int))


class TestTelescopedSum:
    """The sweep's pathwise sum against a per-step re-evaluation of g."""

    @staticmethod
    def _reevaluated(g, grid, states, sol, stop):
        # independent oracle: xi + sum_i g(t_i, X_i, Y_i, Z_i)*dt_eff with g
        # evaluated afresh at the solved Y and Z
        times = grid.times()
        acc = sol.Y[:, -1].copy()
        for i in range(grid.n_steps):
            gv = np.asarray(g(times[i], states[:, i, :], sol.Y[:, i], sol.Z[:, i, :]), dtype=float)
            acc += gv * np.where(i < stop, grid.dt, 0.0)
        return acc

    def _solve(self, g, grid, M, seed, barrier, terminal, picard_max=50):
        batch = sample_brownian(grid, M, 1, seed)
        states = batch.cumulative(start=0.8)
        stop = stopping_indices(batch, g, x_path=states, barrier=barrier)
        # the stop gating must bind on some paths and not on others
        assert 0 < np.count_nonzero(stop < grid.n_steps) < M
        problem = BSDEProblem(
            generator=g, t_start=grid.t_start, t_end=grid.t_end, dimension_d=1, terminal=terminal
        )
        cfg = ExperimentConfig(
            seed=seed, n_paths=M, n_steps=grid.n_steps, picard_max=picard_max
        )
        sol = solve_bsde(
            problem, ForwardBatch(grid=grid, states=states), batch, cfg, stop_indices=stop
        )
        return sol, self._reevaluated(g, grid, states, sol, stop), cfg

    def test_stress_driver_with_stops(self):
        g = builtin_generator("stress", delta=0.1)
        grid = TimeGrid(0.5, 0.6, 50)
        sol, oracle, cfg = self._solve(
            g, grid, 4000, 31, 0.3, lambda s: 0.2 + 0.3 * (s[:, -1, 0] - s[:, 0, 0])
        )
        assert sol.telescoped.shape == (4000,)
        assert np.max(np.abs(sol.telescoped - oracle)) <= cfg.n_steps * cfg.picard_tol

    def test_y_independent_driver_with_stops(self):
        # g does not read y, so the implicit step's g values are the oracle's
        g = builtin_generator("linear", b=0.5, c=1.0)
        grid = TimeGrid(0.0, 1.0, 40)
        sol, oracle, _ = self._solve(g, grid, 4000, 32, 1.5, lambda s: s[:, -1, 0] ** 2)
        assert np.max(np.abs(sol.telescoped - oracle)) <= 1e-12

    def test_bisection_fallback_with_stops(self):
        # a*dt = -6 with a one-evaluation budget sends every unstopped path
        # to bisection, whose g values must be taken at the settled y rather
        # than the unconverged iterate
        g = builtin_generator("linear", a=-60.0)
        grid = TimeGrid(0.0, 1.0, 10)
        sol, oracle, _ = self._solve(
            g, grid, 256, 5, 0.8, lambda s: np.ones(s.shape[0]), picard_max=1
        )
        assert sol.diagnostics["bisection_paths"].sum() > 0
        assert np.max(np.abs(sol.telescoped - oracle)) <= 1e-12


class TestComparison:
    def _template(self, grid, M, seed, g, terminal):
        fw, batch = _brownian_forward(grid, M, 1, seed)
        problem = BSDEProblem(
            generator=g, t_start=grid.t_start, t_end=grid.t_end,
            dimension_d=1, terminal=terminal,
        )
        return problem, fw, batch

    def test_identical_generators_tie(self):
        grid = TimeGrid(0.0, 0.5, 20)
        g = builtin_generator("linear", a=-1.0, c=0.3)
        problem, fw, batch = self._template(
            grid, 4000, 9, g, lambda s: np.sin(s[:, -1, 0])
        )
        cfg = ExperimentConfig(seed=9, n_paths=4000, n_steps=20)
        rep = comparison_check(g, g, problem, fw, batch, cfg)
        assert rep.fraction == 1.0

    def test_ordered_pair(self):
        grid = TimeGrid(0.0, 0.5, 20)
        g1 = builtin_generator("linear", c=1.0)
        g2 = builtin_generator("linear", c=0.4)
        problem, fw, batch = self._template(
            grid, 4000, 9, g1, lambda s: s[:, -1, 0]
        )
        cfg = ExperimentConfig(seed=9, n_paths=4000, n_steps=20)
        rep = comparison_check(g1, g2, problem, fw, batch, cfg)
        assert rep.fraction == 1.0
        assert rep.generator_gap_min >= 0.6 - 1e-9

    def test_misordered_generators_rejected(self):
        grid = TimeGrid(0.0, 0.5, 20)
        g1 = builtin_generator("linear", c=0.4)
        g2 = builtin_generator("linear", c=1.0)
        problem, fw, batch = self._template(grid, 1000, 9, g1, lambda s: s[:, -1, 0])
        cfg = ExperimentConfig(seed=9, n_paths=1000, n_steps=20)
        with pytest.raises(ValidationError, match="ordering"):
            comparison_check(g1, g2, problem, fw, batch, cfg)


class TestStability:
    def test_flat_shift_passes_through(self):
        # g = 0: the perturbed solution differs by E_t[delta xi] = 0.5, so
        # the ratio of sup-square to terminal-square is 1
        grid = TimeGrid(0.0, 1.0, 20)
        M = 4000
        fw, batch = _brownian_forward(grid, M, 1, seed=10)
        problem = BSDEProblem(
            generator=builtin_generator("linear"),
            t_start=0.0,
            t_end=1.0,
            dimension_d=1,
            terminal=lambda s: s[:, -1, 0],
        )
        cfg = ExperimentConfig(seed=10, n_paths=M, n_steps=20)
        rep = stability_check(problem, lambda s: s[:, -1, 0] + 0.5, fw, batch, cfg)
        assert rep.ratio == pytest.approx(1.0, rel=0.2)

    def test_contracting_generator_damps(self):
        grid = TimeGrid(0.0, 1.0, 20)
        M = 4000
        fw, batch = _brownian_forward(grid, M, 1, seed=10)
        problem = BSDEProblem(
            generator=builtin_generator("negative_exponential"),
            t_start=0.0,
            t_end=1.0,
            dimension_d=1,
            terminal=lambda s: s[:, -1, 0],
        )
        cfg = ExperimentConfig(seed=10, n_paths=M, n_steps=20)
        rep = stability_check(problem, lambda s: s[:, -1, 0] + 1.0, fw, batch, cfg)
        assert 0.0 < rep.ratio <= 1.0 + 1e-9

    def test_identical_terminals_rejected(self):
        grid = TimeGrid(0.0, 1.0, 10)
        fw, batch = _brownian_forward(grid, 100, 1, seed=0)
        problem = BSDEProblem(
            generator=builtin_generator("linear"),
            t_start=0.0,
            t_end=1.0,
            dimension_d=1,
            terminal=lambda s: s[:, -1, 0],
        )
        cfg = ExperimentConfig(seed=0, n_paths=100, n_steps=10)
        with pytest.raises(ValidationError):
            stability_check(problem, lambda s: s[:, -1, 0], fw, batch, cfg)
