import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsdelab import (
    BSDEProblem,
    ExperimentConfig,
    Generator,
    HypothesisError,
    NumericalError,
    PicardError,
    TimeGrid,
    ValidationError,
    builtin_generator,
    convergence_study,
    euler_maruyama,
    sample_brownian,
    solve_bsde,
)
from bsdelab import solver
from bsdelab.paths import ForwardBatch, WindowStack, stopping_indices
from bsdelab.solver import _fit, _picard_step, comparison_check, polynomial_design


def _undeclared(g):
    """g without its y_slope declaration, so the sweep solves it by secant."""
    return Generator(name=g.name, eval=g.eval, lipschitz_z=g.lipschitz_z)


def _brownian_forward(grid, M, d, seed, start=0.0):
    batch = sample_brownian(grid, M, d, seed)
    return ForwardBatch(grid=grid, states=batch.cumulative(start=start)), batch


def _stops(batch, g, states, barrier):
    """The (M,) stops of batch read along states: a stack of one window."""
    stack = WindowStack((batch.grid,), states, batch.increments)
    moved = np.empty((1, stack.steps.shape[1], stack.dim))
    return stopping_indices(stack, g, barrier=barrier, displacement=moved)[0]


def _solve_stopped(problem, fw, batch, config, stop=None):
    """solve_bsde, with g switched off from stop[m] on along path m when a
    stop is given: then one window of the sweep with history, as a
    SolutionBatch."""
    if stop is None:
        return solve_bsde(problem, fw, batch, config)
    xi = np.asarray(problem.terminal(fw.states), dtype=float)
    stack = WindowStack((fw.grid,), fw.states, batch.increments)
    (Y,), (Z,), (telescoped,), (diagnostics,) = solver._sweep(
        problem.generator, xi[None], stack, config, stop[None], history=True
    )
    return solver.SolutionBatch(
        Y=Y.T, Z=np.swapaxes(Z, 0, 1), telescoped=telescoped, diagnostics=diagnostics
    )


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


def _closed_form_linear(a, b, c, y0, z0, t_start, t_end):
    """Exact initial value for g = a*y + <b,z> + c with terminal y0 + <z0, B_T - B_t0>.

    Derived by the affine ansatz Y_t = alpha(t) + beta(t)*<z0, B_t - B_t0>:
    matching coefficients gives beta' = -a*beta and
    alpha' + a*alpha = -(e^{a(T-t)}<b,z0> + c), hence

        Y_t0 = e^{a*th}*(y0 + <b,z0>*th) + c*(e^{a*th} - 1)/a,  th = T - t0,

    with the usual limit th resp. c*th at a = 0.  Validated against
    _mean_ode_oracle before it serves as the oracle for linear generators.
    """
    th = float(t_end) - float(t_start)
    b = np.atleast_1d(np.asarray(b, dtype=float))
    z0 = np.atleast_1d(np.asarray(z0, dtype=float))
    if b.size != z0.size:
        if b.size == 1:
            b = np.full(z0.size, b[0])
        elif z0.size == 1:
            z0 = np.full(b.size, z0[0])
    bz = float(b @ z0)
    ea = np.exp(a * th)
    kappa2 = np.expm1(a * th) / a if a != 0.0 else th
    return float(ea * (y0 + bz * th) + c * kappa2)


def _column_stack_design(states, degree):
    # the list-and-column_stack construction the buffered design replaced,
    # kept as its exact oracle
    M, k = states.shape
    cols = [np.ones(M)]
    for j in range(k):
        s = states[:, j]
        mu = s.mean()
        sd = s.std()
        degenerate = sd <= 1e-12 * max(1.0, abs(mu))
        sj = np.zeros(M) if degenerate else (s - mu) / sd
        p = sj
        for _ in range(degree):
            cols.append(p)
            p = p * sj
    return np.column_stack(cols)


def _lstsq_fit(design, targets):
    # the SVD solve with the solver's cutoff: fitted, coef, cond, rank
    coef, _, rank, sv = np.linalg.lstsq(design, targets, rcond=solver.RCOND)
    return design @ coef, coef, sv[0] / sv[rank - 1], rank


class TestDesign:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("degree", [0, 1, 3])
    def test_equals_column_stack_on_strided_slices(self, k, degree):
        # a time slice of an (M, N+1, k) path array strides over N+1 rows
        rng = np.random.default_rng(10 * k + degree)
        paths = rng.normal(size=(3000, 51, k)).cumsum(axis=1) + 2.5
        for i in (1, 25, 50):
            states = paths[:, i, :]
            assert not states.flags.c_contiguous
            assert np.array_equal(
                polynomial_design(states, degree), _column_stack_design(states, degree)
            )

    @pytest.mark.parametrize("degree", [0, 1, 3])
    def test_equals_column_stack_with_constant_coordinate(self, degree):
        rng = np.random.default_rng(degree)
        states = np.stack([rng.normal(size=500), np.full(500, 4.2), rng.normal(size=500)], axis=1)
        got = polynomial_design(states, degree)
        assert np.array_equal(got, _column_stack_design(states, degree))
        assert np.all(got[:, 1 + degree : 1 + 2 * degree] == 0.0)

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


class TestGramProjector:
    """_fit (Gram matrix, eigh, one refinement step) against np.linalg.lstsq."""

    @settings(max_examples=200, deadline=None)
    @given(
        M=st.integers(200, 3000),
        p=st.integers(1, 7),
        q=st.integers(1, 3),
        log_scale=st.floats(-1.0, 1.0),
        shift=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
        time_major=st.booleans(),
    )
    def test_matches_lstsq_on_well_conditioned_designs(
        self, M, p, q, log_scale, shift, seed, time_major
    ):
        # time_major passes the targets as solve_bsde does: the .T of a
        # (q, M) buffer
        rng = np.random.default_rng(seed)
        design = np.ones((M, p))
        design[:, 1:] = shift + 10.0**log_scale * rng.normal(size=(M, p - 1))
        targets = rng.normal(size=(M, q)) + design @ rng.normal(size=(p, q))
        if time_major:
            targets = np.ascontiguousarray(targets.T).T
        fitted, coef, cond, rank, fell_back = _fit(design, targets)
        want, _, want_cond, want_rank = _lstsq_fit(design, targets)
        assert not fell_back
        assert rank == want_rank == p
        assert np.max(np.abs(fitted - want)) <= 1e-12 * np.max(np.abs(targets))
        assert cond == pytest.approx(want_cond, rel=1e-8)

    def test_degenerate_coordinate_gets_zero_coefficients(self):
        rng = np.random.default_rng(3)
        states = np.stack([rng.normal(size=2000), np.full(2000, -1.5)], axis=1)
        design = polynomial_design(states, 3)
        targets = np.stack([np.sin(states[:, 0]), states[:, 0] ** 2], axis=1)
        fitted, coef, cond, rank, fell_back = _fit(design, targets)
        want, want_coef, want_cond, want_rank = _lstsq_fit(design, targets)
        assert not fell_back
        assert rank == want_rank == 4
        # the minimum-norm solution puts exactly nothing on zero columns
        assert np.all(coef[4:] == 0.0)
        assert np.all(want_coef[4:] == 0.0)
        assert np.max(np.abs(fitted - want)) <= 1e-12 * np.max(np.abs(targets))
        assert cond == pytest.approx(want_cond, rel=1e-8)

    def test_binary_coordinate_falls_back_to_lstsq(self):
        # a +-1 anchor makes s^2 a copy of the intercept and s^3 a copy of
        # s: the Gram matrix is singular, eigenvalues cannot resolve the
        # cutoff, and every step goes to lstsq; at step 0 the path X_0 is
        # the constant 0, so lstsq keeps rank 2 there
        grid = TimeGrid(0.0, 1.0, 10)
        M = 1000
        fw, batch = _brownian_forward(grid, M, 1, seed=13)
        anchor = np.where(np.random.default_rng(13).random(M) < 0.5, -1.0, 1.0)[:, None]
        problem = BSDEProblem(
            generator=builtin_generator("linear", a=-0.5, c=1.0),
            t_start=0.0,
            t_end=1.0,
            dimension_d=1,
            terminal=lambda s: np.sin(s[:, -1, 0]) + s[:, -1, 0],
        )
        cfg = ExperimentConfig(seed=13, n_paths=M, n_steps=10, basis_degree=3)
        xi = problem.terminal(fw.states)[None]
        windows = WindowStack((grid,), fw.states, batch.increments)
        Y, _, _, (diag,) = solver._sweep(
            problem.generator, xi, windows, cfg, anchor=anchor, history=True
        )
        Y = Y[0]
        assert diag["regression_fallbacks"].shape == (10,)
        assert np.all(diag["regression_fallbacks"] == 1)
        design = _column_stack_design(np.concatenate([anchor, fw.states[:, 0]], axis=1), 3)
        targets = np.stack([Y[1], Y[1] * batch.increments[:, 0, 0] / grid.dt], axis=1)
        want, _, _, want_rank = _lstsq_fit(design, targets)
        assert want_rank == 2
        # the other steps add the three power rows of a continuous X
        assert diag["rank"][0] == want_rank
        assert np.all(diag["rank"][1:] == want_rank + 3)
        fitted, _, _, rank, fell_back = _fit(design, targets)
        assert fell_back and rank == want_rank
        assert np.array_equal(fitted, want)

    @pytest.mark.parametrize("noise,falls_back", [(1e-3, False), (1e-5, True), (1e-7, True)])
    def test_fallback_threshold(self, noise, falls_back):
        # a coordinate near +-1: s^2 is the intercept up to noise, so
        # cond(X) is about 1e3, 1e5 and 1e7; only the last two exceed 1e4,
        # and there the SVD solve keeps the full rank RCOND allows
        rng = np.random.default_rng(4)
        s = np.where(rng.random(2000) < 0.5, -1.0, 1.0) + noise * rng.normal(size=2000)
        design = _column_stack_design(s[:, None], 3)
        targets = np.stack([np.sin(3 * s), s**3], axis=1) + rng.normal(size=(2000, 2))
        fitted, _, cond, rank, fell_back = _fit(design, targets)
        want, _, want_cond, want_rank = _lstsq_fit(design, targets)
        assert fell_back == falls_back
        assert rank == want_rank == 4
        assert cond == pytest.approx(want_cond, rel=1e-8)
        assert np.max(np.abs(fitted - want)) <= 1e-12 * np.max(np.abs(targets))

    def test_no_fallback_on_brownian_states(self):
        grid = TimeGrid(0.0, 1.0, 20)
        fw, batch = _brownian_forward(grid, 4000, 1, seed=14)
        problem = BSDEProblem(
            generator=builtin_generator("linear", a=-0.5),
            t_start=0.0,
            t_end=1.0,
            dimension_d=1,
            terminal=lambda s: np.cos(s[:, -1, 0]),
        )
        cfg = ExperimentConfig(seed=14, n_paths=4000, n_steps=20)
        sol = solve_bsde(problem, fw, batch, cfg)
        assert sol.diagnostics["regression_fallbacks"].sum() == 0
        # the states start at 0: step 0 regresses on the intercept alone
        assert sol.diagnostics["rank"].tolist() == [1] + [4] * 19

    def test_design_built_once_per_step(self, monkeypatch):
        # the sweep reaches polynomial_design through the module global, once
        # per step, so a wrapper installed on the module sees every build
        calls = []
        build = solver.polynomial_design

        def counting(states, degree):
            calls.append(states.shape)
            return build(states, degree)

        monkeypatch.setattr(solver, "polynomial_design", counting)
        grid = TimeGrid(0.0, 1.0, 12)
        fw, batch = _brownian_forward(grid, 500, 1, seed=15)
        problem = BSDEProblem(
            generator=builtin_generator("linear", c=1.0),
            t_start=0.0,
            t_end=1.0,
            dimension_d=1,
            terminal=lambda s: s[:, -1, 0],
        )
        cfg = ExperimentConfig(seed=15, n_paths=500, n_steps=12)
        solve_bsde(problem, fw, batch, cfg)
        assert calls == [(500, 1)] * 12
        solve_bsde(problem, fw, batch, cfg)
        assert len(calls) == 24


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
        assert sol.Y[:, 0].mean() == pytest.approx(expected, abs=1e-8)
        assert np.allclose(sol.Y[:, 0], expected, atol=1e-8)
        # and the discretization sits within 2% of the continuum limit
        assert abs(sol.Y[:, 0].mean() - math.exp(-1.0)) / math.exp(-1.0) < 0.02

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
        got = _closed_form_linear(a, b, c, y0, z0, 0.2, 1.4)
        want = _mean_ode_oracle(a, b, c, y0, z0, 0.2, 1.4)
        assert got == pytest.approx(want, abs=1e-8)

    def test_known_special_cases(self):
        # a = -1, others zero over unit horizon: e^{-1}
        assert _closed_form_linear(-1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0) == pytest.approx(
            math.exp(-1.0), abs=1e-12
        )
        # pure constant driver: c * theta
        assert _closed_form_linear(0.0, 0.0, 5.0, 0.0, 0.0, 0.0, 0.5) == pytest.approx(
            2.5, abs=1e-12
        )

    @staticmethod
    def _euler_bias_bound(a, bz, c, y0, theta, n):
        """Bound on |implicit Euler mean - exact mean| at N = n steps.

        With tau = T - t the exact mean solves alpha' = a*alpha + bz*e^{a*tau}
        + c, alpha(0) = y0 (bz = <b, z0>).  The sweep fits affine functions of
        the state exactly, so its noise-free mean follows Z_k = z0*rho^k and
        alpha_{k+1} = rho*(alpha_k + h*(bz*rho^k + c)), rho = 1/(1 - a*h),
        h = theta/n.  Taylor at tau_{k+1} gives alpha(tau_{k+1}) =
        rho*(alpha(tau_k) + h*(bz*e^{a*tau_{k+1}} + c) - h^2/2*alpha''), so
        the error obeys e_{k+1} = rho*(e_k + h*bz*(rho^k - e^{a*tau_{k+1}})
        + h^2/2*alpha'').  With E = (1 - |a|h)^-n >= |rho|^j, e^{|a|tau} for
        all j <= n, tau <= theta; -ln(1 - x) - x <= x^2/(2(1 - |x|)); and
        |e^u - e^v| <= E*|u - v| on exponents whose exponentials are <= E:
          |rho^k - e^{a*tau_{k+1}}| <= E*h*(|a| + a^2*theta/(2(1 - |a|h))),
          |alpha''| = |a*(a*alpha + 2*bz*e^{a*tau} + c)|
                   <= |a|*(|a|*A + 2|bz|*E + |c|),
          A = max|alpha| <= E*(|y0| + (|bz| + |c|)*theta).
        Summing n steps, each amplified by at most E:
          |e_n| <= theta*h*E*(|bz|*E*(|a| + a^2*theta/(2(1 - |a|h))) + |alpha''|/2),
        first order in h.
        """
        h, aa = theta / n, abs(a)
        E = (1.0 - aa * h) ** -n
        A = E * (abs(y0) + (abs(bz) + abs(c)) * theta)
        d2 = aa * (aa * A + 2.0 * abs(bz) * E + abs(c))
        gap = aa + a * a * theta / (2.0 * (1.0 - aa * h))
        return theta * h * E * (abs(bz) * E * gap + d2 / 2.0)

    @settings(max_examples=30, deadline=None)
    @example(a=-0.8, b=0.4, c=0.6, y0=1.2, z0=0.9, seed=12)
    @given(
        a=st.floats(-1.0, 1.0),
        b=st.floats(-0.5, 0.5),
        c=st.floats(-1.0, 1.0),
        y0=st.floats(-1.5, 1.5),
        z0=st.floats(-1.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_matches_monte_carlo_solver(self, a, b, c, y0, z0, seed):
        N, M = 50, 10_000
        grid = TimeGrid(0.0, 1.0, N)
        fw, batch = _brownian_forward(grid, M, 1, seed=seed)
        g = builtin_generator("linear", a=a, b=b, c=c)
        problem = BSDEProblem(
            generator=g,
            t_start=0.0,
            t_end=1.0,
            dimension_d=1,
            terminal=lambda s: y0 + z0 * (s[:, -1, 0] - s[:, 0, 0]),
        )
        sol = solve_bsde(problem, fw, batch, ExperimentConfig(seed=seed, n_paths=M, n_steps=N))
        got = sol.Y[:, 0].mean()
        # standard error: least squares keeps target means (the design has a
        # constant column), so path means obey mean(Y_i) = rho*(mean(Y_{i+1})
        # + b*mean(Y_{i+1}*dB_i) + c*h), and Y_0 is the path mean of
        #   r = rho^N*xi + sum_i rho^{i+1}*(b*Y_{i+1}*dB_i + c*h),
        # whose spread also carries the z-fit's noise, which the telescoped
        # sums' spread misses
        h = 1.0 / N
        rho = 1.0 / (1.0 - a * h)
        w = rho ** np.arange(1, N + 1)
        r = rho**N * sol.Y[:, N] + (b * sol.Y[:, 1:] * batch.increments[:, :, 0]) @ w
        r += c * h * w.sum()
        assert r.mean() == pytest.approx(got, abs=1e-12 * (1.0 + abs(got)))
        se = r.std(ddof=1) / math.sqrt(M)
        target = _closed_form_linear(a, b, c, y0, z0, 0.0, 1.0)
        bias = self._euler_bias_bound(a, b * z0, c, y0, 1.0, N)
        assert abs(got - target) <= 4.0 * se + bias + 1e-12 * (1.0 + abs(target))


class TestPicardFallback:
    def test_bisection_solves_strong_contraction_breaker(self):
        # a*dt = -6: the damped step alone diverges here (factor 2.5); the
        # secant step reads off the slope 7 of y - g*dt and converges
        # without bisection
        grid = TimeGrid(0.0, 1.0, 10)
        M = 64
        fw, batch = _brownian_forward(grid, M, 1, seed=5)
        problem = BSDEProblem(
            generator=_undeclared(builtin_generator("linear", a=-60.0)),
            t_start=0.0,
            t_end=1.0,
            dimension_d=1,
            terminal=lambda s: np.ones(s.shape[0]),
        )
        cfg = ExperimentConfig(seed=5, n_paths=M, n_steps=10)
        expected = (1.0 + 6.0) ** (-10)
        sol = solve_bsde(problem, fw, batch, cfg)
        assert sol.Y[:, 0].mean() == pytest.approx(expected, abs=2e-10)
        assert sol.diagnostics["bisection_paths"].sum() == 0
        # a one-evaluation budget stops at the undamped first iterate
        # (residual 36*base), so the bisection fallback solves
        # y(1 + 6) = base; it stops on absolute interval width picard_tol,
        # and the per-step error propagates damped by 1/7: budget ~ tol * 7/6
        sol = solve_bsde(problem, fw, batch, dataclasses.replace(cfg, picard_max=1))
        assert sol.Y[:, 0].mean() == pytest.approx(expected, abs=2e-10)
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
        target = _closed_form_linear(a, b, c, scale, 0.1 * scale, 0.0, 1.0)
        # M = 256 paths and dt = 0.05: a loose band around the closed form
        assert sol.Y[:, 0].mean() == pytest.approx(target, rel=0.05)

    def test_bisection_settles_where_doubles_run_out(self):
        # forced bisection (picard_max=1) at |y| ~ 1e6, where adjacent
        # doubles lie more than picard_tol apart: a path stops once its
        # midpoint rounds onto an endpoint, which brackets the root
        M, dt = 2000, 0.05
        g = _undeclared(builtin_generator("linear", a=-1.0))
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

    def test_no_bracket_names_the_path_whose_bracket_grows(self):
        # one evaluation leaves both paths to bisection; path 0's bracket
        # is found at once, while path 1's g = 1e20*(2 + sin y) keeps
        # v - base - g*dt negative past the largest bracket, 2^60
        def ev(t, x, y, z):
            return np.where(x[..., 0] == 0.0, 3.0 * np.sin(4.0 * y), 1e20 * (2.0 + np.sin(y)))

        g = Generator(name="split", eval=ev, lipschitz_z=0.0, state_dependent=True)
        x, z = np.array([[0.0], [1.0]]), np.zeros((2, 1))
        base, dt = np.full(2, 0.3), 0.05
        # path 1's own residual at its one iterate, -3.228e+18
        y1 = base + ev(0.0, x, base, z) * dt
        resid = y1 - base - ev(0.0, x, y1, z) * dt
        want = f"no bisection bracket at step t=0.0, path 1, residual={resid[1]:.3e}"
        cfg = ExperimentConfig(seed=0, n_paths=2, n_steps=1, picard_max=1)
        with pytest.raises(PicardError, match=f"^{re.escape(want)}$"):
            _picard_step(g, 0.0, x, base, z, dt, cfg)


def _picard_step_allocating(g, t_i, x_i, base, z_i, dt_eff, config):
    # the implicit step with a fresh array per operation (np.where for the
    # slope, np.abs for the stop test) and its per-path stopping rule
    # restated with masks over the whole batch: every evaluation sees every
    # path, and a path that is no longer active keeps its y, gv, residual
    # and step; kept as the exact oracle of the in-place, compacting loop;
    # only the error messages are shortened
    tol = config.picard_tol
    active = np.ones(np.shape(base), dtype=bool)
    y = base
    gv_kept = f_prev = dy = None
    iters = 0
    for _ in range(config.picard_max):
        gv = np.asarray(g(t_i, x_i, y, z_i), dtype=float)
        f = y - base - gv * dt_eff
        iters += 1
        if f_prev is None:
            step = -f
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                s = (f - f_prev) / dy
            step = -f / np.where((s > 0) & (s < np.inf), s, 2.0)
        y_next = y + step
        gv_kept = gv if gv_kept is None else np.where(active, gv, gv_kept)
        f_prev = f if f_prev is None else np.where(active, f, f_prev)
        dy = y_next - y if dy is None else np.where(active, y_next - y, dy)
        y = np.where(active, y_next, y)
        moving = active & ~(np.abs(dy) <= tol)
        if not np.any(moving):
            return y, iters, 0, gv_kept
        # at most half the active paths move: the others are final
        if 2 * np.count_nonzero(moving) <= np.count_nonzero(active):
            active = moving

    gv = np.asarray(g(t_i, x_i, y, z_i), dtype=float)
    resid = y - base - gv * dt_eff
    bad = ~(np.abs(resid) <= tol)
    if not np.any(bad):
        return y, iters, 0, gv

    idx = np.nonzero(bad)[0]
    xb = x_i[idx]
    zb = z_i[idx]
    bb = base[idx]
    db = dt_eff[idx] if np.ndim(dt_eff) else np.full(idx.size, dt_eff)

    def f(v):
        return v - bb - np.asarray(g(t_i, xb, v, zb), dtype=float) * db

    r = np.maximum(1.0, np.abs(bb))
    lo, hi = bb - r, bb + r
    for _ in range(60):
        grow = (f(lo) > 0) | (f(hi) < 0)
        if not np.any(grow):
            break
        r = np.where(grow, 2.0 * r, r)
        lo, hi = bb - r, bb + r
    else:
        raise PicardError("no bisection bracket")

    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        neg = (fm < 0) == (flo < 0)
        lo = np.where(neg, mid, lo)
        flo = np.where(neg, fm, flo)
        hi = np.where(neg, hi, mid)
        mid = 0.5 * (lo + hi)
        if np.all((hi - lo <= tol) | (mid == lo) | (mid == hi)):
            break
    else:
        raise PicardError("bisection stalled")
    y[idx] = mid
    gv = np.array(np.broadcast_to(gv, y.shape))
    gv[idx] = np.asarray(g(t_i, xb, y[idx], zb), dtype=float)
    return y, iters, int(idx.size), gv


def _secant_draw(driver, per_path_dt, dt, seed, M=64, slow=0):
    """(g, x, base, z, dt_eff) of one implicit step that g takes by secant.

    slow paths (drawn among the M) take 20 times the step dt, so they
    iterate longer than the rest; the affine driver has none, as its
    secant lands on the root at the second evaluation whatever the step.
    """
    rng = np.random.default_rng(seed)
    if driver == "affine":
        a = rng.uniform(-20.0, 0.5) / dt
        b, c = rng.normal(size=2)
        # undeclared, so the step takes the secant iteration
        g = _undeclared(builtin_generator("linear", a=a, b=b, c=c))
        base = 100.0 * rng.uniform(-1.0, 1.0, M)
    elif driver == "stress":
        g = builtin_generator("stress", delta=0.1)
        base = rng.uniform(-2.0, 2.0, M)
    else:
        # y - g*dt is not monotone here: negative and zero secant slopes
        # take the damped step
        g = Generator(
            name="wavy",
            eval=lambda t, x, y, z: 3.0 * np.sin(4.0 * np.asarray(y, dtype=float)),
            lipschitz_z=0.0,
        )
        base = rng.uniform(-2.0, 2.0, M)
    x = rng.uniform(-1.0, 1.0, (M, 1))
    z = rng.normal(size=(M, 1))
    dt_eff = np.where(rng.random(M) < 0.25, 0.0, dt) if per_path_dt else dt
    if slow and driver != "affine":
        dt_eff = np.broadcast_to(dt_eff, (M,)).copy()
        dt_eff[rng.choice(M, min(slow, M), replace=False)] *= 20.0
    return g, x, base, z, dt_eff


def _step_against_allocating(driver, per_path_dt, picard_max, dt, seed, M=64, slow=0):
    """Run _picard_step and its oracle on one draw; assert equal, return n_fallback."""
    g, x, base, z, dt_eff = _secant_draw(driver, per_path_dt, dt, seed, M, slow)
    cfg = ExperimentConfig(seed=0, n_paths=M, n_steps=1, picard_max=picard_max)
    base0 = base.copy()
    y, iters, n_fallback, gv = _picard_step(g, 0.0, x, base, z, dt_eff, cfg)
    # the in-place update writes only into its own buffers
    assert np.array_equal(base, base0)
    want_y, want_iters, want_fallback, want_gv = _picard_step_allocating(
        g, 0.0, x, base, z, dt_eff, cfg
    )
    assert (iters, n_fallback) == (want_iters, want_fallback)
    assert np.array_equal(y, want_y)
    assert np.array_equal(gv, want_gv)
    return n_fallback


class TestInPlaceSecant:
    """_picard_step against the allocating, masked loop, bit for bit."""

    # a stress path at 20 times the step can reach an iterate whose
    # exponent the driver clamps; the warning is the driver's, on both sides
    @pytest.mark.filterwarnings("ignore:stress generator exponent clamped:RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(
        driver=st.sampled_from(["affine", "stress", "wavy"]),
        per_path_dt=st.booleans(),
        picard_max=st.sampled_from([1, 2, 3, 50]),
        dt=st.floats(1e-3, 0.2),
        seed=st.integers(0, 2**32 - 1),
        M=st.integers(1, 2000),
        slow=st.integers(0, 8),
    )
    # stragglers that compact again and again (5 and 6 times)
    @example(driver="stress", per_path_dt=True, picard_max=50, dt=0.1, seed=3, M=2000, slow=4)
    @example(driver="wavy", per_path_dt=False, picard_max=50, dt=0.05, seed=1, M=1500, slow=8)
    # a clamped exponent after the last evaluation
    @example(driver="stress", per_path_dt=False, picard_max=2, dt=0.171875, seed=4582, M=26, slow=3)
    def test_matches_allocating_loop(self, driver, per_path_dt, picard_max, dt, seed, M, slow):
        _step_against_allocating(driver, per_path_dt, picard_max, dt, seed, M, slow)

    @pytest.mark.parametrize("driver", ["affine", "stress", "wavy"])
    @pytest.mark.parametrize("per_path_dt", [False, True])
    def test_bisection_paths_match(self, driver, per_path_dt):
        # one evaluation leaves every path with a dt_eff > 0 unconverged
        assert _step_against_allocating(driver, per_path_dt, 1, 0.05, seed=9) > 0


class TestPerPathStopping:
    """The secant step's stragglers iterate alone once at most half the
    paths move; each is written back to its own path."""

    @pytest.mark.filterwarnings("ignore:stress generator exponent clamped:RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(
        driver=st.sampled_from(["affine", "stress", "wavy"]),
        per_path_dt=st.booleans(),
        picard_max=st.sampled_from([1, 2, 3, 50]),
        dt=st.floats(1e-3, 0.2),
        seed=st.integers(0, 2**32 - 1),
        M=st.integers(1, 2000),
        slow=st.integers(0, 8),
    )
    @example(driver="stress", per_path_dt=True, picard_max=50, dt=0.1, seed=3, M=2000, slow=4)
    def test_permutation_equivariant(self, driver, per_path_dt, picard_max, dt, seed, M, slow):
        # permute the paths, solve, un-permute: the same bits
        g, x, base, z, dt_eff = _secant_draw(driver, per_path_dt, dt, seed, M, slow)
        cfg = ExperimentConfig(seed=0, n_paths=M, n_steps=1, picard_max=picard_max)
        perm = np.random.default_rng(seed).permutation(M)
        dt_perm = dt_eff[perm] if np.ndim(dt_eff) else dt_eff
        y, iters, n_fallback, gv = _picard_step(g, 0.0, x, base, z, dt_eff, cfg)
        y_perm, iters_perm, n_perm, gv_perm = _picard_step(
            g, 0.0, x[perm], base[perm], z[perm], dt_perm, cfg
        )
        assert (iters_perm, n_perm) == (iters, n_fallback)
        assert np.array_equal(y_perm, y[perm])
        assert np.array_equal(gv_perm, gv[perm])

    def test_one_slow_path_iterates_alone(self):
        # wavy g = 3 sin(4y): at dt = 0.01 the secant settles every path in
        # five evaluations; at dt = 1 y - g*dt is not monotone, and the one
        # path there takes damped steps for longer
        sizes = []

        def ev(t, x, y, z):
            sizes.append(y.size)
            return 3.0 * np.sin(4.0 * y)

        g = Generator(name="wavy", eval=ev, lipschitz_z=0.0)
        M = 1000
        base = np.random.default_rng(3).uniform(-2.0, 2.0, M)
        dt_eff = np.full(M, 0.01)
        dt_eff[M // 2] = 1.0
        x, z = np.zeros((M, 1)), np.zeros((M, 1))
        cfg = ExperimentConfig(seed=0, n_paths=M, n_steps=1)
        y, iters, n_fallback, gv = _picard_step(g, 0.0, x, base, z, dt_eff, cfg)
        assert n_fallback == 0 and iters > 5
        assert sum(sizes) < iters * M
        assert sizes[-1] == 1
        # gv is g at the iterate y_prev before y, so the residual is
        # (s - 1)*(y_prev - y) for the last step's slope s in (0, 13]
        resid = np.abs(y - base - gv * dt_eff)
        assert np.all(resid <= 12.0 * cfg.picard_tol)


class TestImplicitStepProperties:
    """The implicit step on affine drivers g = a*y + b*z + c, any slope,
    in closed form (declared) and by secant (undeclared)."""

    @settings(max_examples=300, deadline=None)
    @given(
        a_dt=st.floats(-20.0, 0.5),
        dt=st.floats(1e-4, 0.5),
        b=st.floats(-2.0, 2.0),
        c=st.floats(-100.0, 100.0),
        scale=st.floats(0.0, 1e4),
        seed=st.integers(0, 2**32 - 1),
        declared=st.booleans(),
    )
    def test_affine_step(self, a_dt, dt, b, c, scale, seed, declared):
        a = a_dt / dt
        g = builtin_generator("linear", a=a, b=b, c=c)
        if not declared:
            g = _undeclared(g)
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
        assert iters == 1 if declared else iters <= 4

        def gy(v):
            return np.asarray(g(0.0, x, v, z), dtype=float)

        # rounding of g at the scale of its terms, and of y - base
        eps = np.finfo(float).eps
        g_dust = 8 * eps * (abs(a) * (np.abs(y) + tol) + np.abs(b * z[:, 0]) + abs(c))
        y_dust = 8 * eps * (np.abs(y) + np.abs(base))
        # the closed form, or the secant's step-size stop, leaves y within
        # picard_tol of the root, so the residual is within picard_tol
        # times the slope 1 - a*dt_eff
        slope = 1.0 - a * dt_eff
        resid = np.abs(y - base - gy(y) * dt_eff)
        assert np.all(resid <= slope * tol + g_dust * dt_eff + y_dust)
        assert np.all(resid <= 25 * tol)
        # gv is g at y, or at an iterate within picard_tol of it: g is
        # affine in y, so gv lies between g(y - tol) and g(y + tol)
        lo = np.minimum(gy(y - tol), gy(y + tol))
        hi = np.maximum(gy(y - tol), gy(y + tol))
        assert np.all((lo - g_dust <= gv) & (gv <= hi + g_dust))


class TestClosedFormStep:
    """A driver that declares y_slope: one evaluation per step, no iteration."""

    @staticmethod
    def _problem(g, d, w):
        return BSDEProblem(
            generator=g,
            t_start=0.0,
            t_end=1.0,
            dimension_d=d,
            terminal=lambda s: np.sin(s[:, -1] @ w) + 0.5 * s[:, -1, 0],
        )

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(-3.0, 0.5),
        c=st.floats(-2.0, 2.0),
        d=st.sampled_from([1, 2]),
        stopped=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_secant_sweep(self, a, c, d, stopped, seed):
        rng = np.random.default_rng(seed)
        M, N = 1000, 20
        grid = TimeGrid(0.0, 1.0, N)
        fw, batch = _brownian_forward(grid, M, d, seed)
        g = builtin_generator("linear", a=a, b=rng.normal(size=d), c=c)
        problem = self._problem(g, d, rng.normal(size=d))
        cfg = ExperimentConfig(seed=seed, n_paths=M, n_steps=N)
        stop = rng.integers(0, N + 1, M) if stopped else None
        closed = _solve_stopped(problem, fw, batch, cfg, stop)
        secant = _solve_stopped(
            dataclasses.replace(problem, generator=_undeclared(g)), fw, batch, cfg, stop
        )
        assert np.all(closed.diagnostics["picard_iters"] == 1)
        assert np.all(secant.diagnostics["picard_iters"] >= 2)
        # the secant's third evaluation lands on the root up to rounding
        # (measured: at most 5 ulps of the largest value over 300 draws)
        eps = np.finfo(float).eps
        assert np.max(np.abs(closed.Y - secant.Y)) <= 16 * eps * np.max(np.abs(secant.Y))
        assert np.max(np.abs(closed.Z - secant.Z)) <= 16 * eps * np.max(np.abs(secant.Z))
        scale = np.max(np.abs(secant.telescoped))
        assert np.max(np.abs(closed.telescoped - secant.telescoped)) <= 16 * eps * scale

    def test_one_evaluation_per_step_plus_one_check(self):
        calls = []
        linear = builtin_generator("linear", a=-1.0, b=0.3)

        def ev(t, x, y, z):
            calls.append(t)
            return linear.eval(t, x, y, z)

        g = Generator(name="counted", eval=ev, lipschitz_z=0.3, y_slope=-1.0)
        M, N = 500, 25
        grid = TimeGrid(0.0, 1.0, N)
        fw, batch = _brownian_forward(grid, M, 1, seed=4)
        sol = solve_bsde(
            self._problem(g, 1, np.ones(1)), fw, batch, ExperimentConfig(seed=4, n_paths=M, n_steps=N)
        )
        assert np.array_equal(sol.diagnostics["picard_iters"], np.ones(N, dtype=int))
        assert sol.diagnostics["bisection_paths"].sum() == 0
        # steps N-1, ..., 0, the check at the first solved step right after it
        times = grid.times()
        assert calls == [times[N - 1], times[N - 1]] + [times[i] for i in range(N - 2, -1, -1)]

    @pytest.mark.parametrize("a", [10.0, 20.0])
    def test_step_without_unique_root_raises(self, a):
        # dt = 0.1, so a*dt = 1 leaves 1 - a*dt = 0 and a*dt = 2 makes it negative
        M, N = 64, 10
        grid = TimeGrid(0.0, 1.0, N)
        fw, batch = _brownian_forward(grid, M, 1, seed=7)
        problem = self._problem(builtin_generator("linear", a=a), 1, np.ones(1))
        cfg = ExperimentConfig(seed=7, n_paths=M, n_steps=N)
        with pytest.raises(PicardError, match=rf"step t=0\.9.*y_slope\*dt = {a * 0.1:g} >= 1"):
            solve_bsde(problem, fw, batch, cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_misdeclared_slope_refused_at_the_first_step(self):
        stress = builtin_generator("stress", delta=0.1)
        # it reads x, so it declares that truthfully: only its slope lies
        lying = Generator(
            name="lying", eval=stress.eval, lipschitz_z=1.0, state_dependent=True, y_slope=-1.0
        )
        M, N = 256, 10
        grid = TimeGrid(0.0, 1.0, N)
        fw, batch = _brownian_forward(grid, M, 1, seed=8)
        cfg = ExperimentConfig(seed=8, n_paths=M, n_steps=N)
        want = r"y_slope -1\.0: residual at window=0, "
        with pytest.raises(HypothesisError, match=want + rf"step={N - 1}, path=\d+: \S+ not <= \S+$"):
            solve_bsde(self._problem(lying, 1, np.ones(1)), fw, batch, cfg)
        # a study's windows are each checked; the witness names the window
        cfg = dataclasses.replace(cfg, n_steps=50)
        with pytest.raises(HypothesisError, match=want + r"step=49, path=\d+: \S+ not <= \S+$"):
            convergence_study(lying, 0.5, np.zeros(1), 0.2, [0.3], [0.1, 0.05], cfg)


class TestSolutionInvariances:
    """Exact symmetries of the discrete sweep, up to rounding.

    A constant shift or a positive scaling of the terminal data passes
    through the sweep unchanged when the generator allows it.
    """

    @staticmethod
    def _solve(g, terminal, seed, M=2000, N=20):
        grid = TimeGrid(0.0, 1.0, N)
        fw, batch = _brownian_forward(grid, M, 1, seed)
        problem = BSDEProblem(
            generator=g, t_start=0.0, t_end=1.0, dimension_d=1, terminal=terminal
        )
        return solve_bsde(problem, fw, batch, ExperimentConfig(seed=seed, n_paths=M, n_steps=N))

    @staticmethod
    def _xi(s):
        return np.sin(s[:, -1, 0]) + 0.5 * s[:, -1, 0]

    @settings(max_examples=50, deadline=None)
    @example(shift=1e-3, c=0.0, seed=0)
    @example(shift=1.0, c=0.7, seed=0)
    @example(shift=37.5, c=-3.0, seed=0)
    @example(shift=-1e4, c=0.7, seed=0)
    @given(
        shift=st.floats(-1e4, 1e4),
        c=st.floats(-5.0, 5.0),
        seed=st.integers(0, 2**16),
    )
    def test_translation(self, shift, c, seed):
        # g = c reads neither y nor z: least squares keeps constants in the
        # span of the design and the implicit step adds the same c*dt, so
        # Y(xi + shift) = Y(xi) + shift on every path and step
        g = builtin_generator("linear", c=c)
        base = self._solve(g, self._xi, seed).Y
        moved = self._solve(g, lambda s: self._xi(s) + shift, seed).Y
        want = base + shift
        assert np.max(np.abs(moved - want)) <= 1e-12 * np.max(np.abs(want))

    @settings(max_examples=50, deadline=None)
    @example(lam=1e-3, scale=0.7, seed=0)
    @example(lam=3.0, scale=0.7, seed=0)
    @example(lam=1e4, scale=0.7, seed=0)
    @given(
        lam=st.floats(1e-3, 1e4),
        scale=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**16),
    )
    def test_positive_homogeneity(self, lam, scale, seed):
        # g = scale*|z| is positively homogeneous and the regression is
        # linear in its targets, so Y(lam*xi) = lam*Y(xi) for lam > 0
        g = builtin_generator("z_abs", scale=scale)
        base = self._solve(g, self._xi, seed).Y
        scaled = self._solve(g, lambda s: lam * self._xi(s), seed).Y
        want = lam * base
        assert np.max(np.abs(scaled - want)) <= 1e-12 * np.max(np.abs(want))


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
        sol = _solve_stopped(problem, fw, batch, cfg, np.zeros(M, dtype=int))
        # with dt_eff = 0 everywhere the huge driver never contributes
        assert abs(sol.Y[:, 0].mean() - fw.states[:, -1, 0].mean()) < 1e-8

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
        half = _solve_stopped(problem, fw, batch, cfg, np.full(M, 5, dtype=int))
        assert full.Y[:, 0].mean() == pytest.approx(1.0, abs=1e-8)
        assert half.Y[:, 0].mean() == pytest.approx(0.5, abs=1e-8)


class TestNonFiniteWitness:
    def test_nan_generator_mid_sweep_is_reported(self):
        # bisection settles a finite y where g is NaN, so only a check of
        # the generator values sees it; unchecked, Y stays finite and the
        # telescoped sum is NaN
        def ev(t, x, y, z):
            out = -np.asarray(y, dtype=float)
            if 0.45 < t < 0.55:
                out[:3] = np.nan
            return out

        g = Generator(name="nan_mid_sweep", eval=ev, lipschitz_z=0.0)
        grid = TimeGrid(0.0, 1.0, 20)
        fw, batch = _brownian_forward(grid, 500, 1, seed=0)
        problem = BSDEProblem(
            generator=g,
            t_start=0.0,
            t_end=1.0,
            dimension_d=1,
            terminal=lambda s: np.cos(s[:, -1, 0]),
        )
        cfg = ExperimentConfig(seed=0, n_paths=500, n_steps=20)
        with pytest.raises(NumericalError, match=r"at window=0, step=10, path=0: y=\S+, g=nan, z=\["):
            solve_bsde(problem, fw, batch, cfg)


class TestInputChecks:
    @pytest.mark.parametrize(
        "case, error, witness",
        [
            ("dimension_d", ValidationError, r"problem\.dimension_d=2 but batch has d=1"),
            (
                "forward_shape",
                ValidationError,
                r"forward states shaped \(39, 11, 1\), expected \(40, 11, n\)",
            ),
            ("horizon", ValidationError, "forward grid does not span the problem horizon"),
            (
                "brownian_grid",
                ValidationError,
                r"brownian grid TimeGrid\(t_start=0\.0, t_end=2\.0, n_steps=10\) differs "
                r"from forward grid TimeGrid\(t_start=0\.0, t_end=1\.0, n_steps=10\)",
            ),
            ("terminal_shape", ValidationError, r"terminal returned shape \(40, 1\), expected \(40,\)"),
            (
                "terminal_nonfinite",
                NumericalError,
                r"non-finite terminal value at window=0, step=10, path=3: y=inf$",
            ),
        ],
    )
    def test_rejected_with_witness(self, case, error, witness):
        M = 40
        grid = TimeGrid(0.0, 1.0, 10)
        fw, batch = _brownian_forward(grid, M, 1, seed=0)
        problem = dict(
            generator=builtin_generator("negative_exponential"),
            t_start=0.0,
            t_end=1.0,
            dimension_d=1,
            terminal=lambda s: s[:, -1, 0],
        )
        if case == "dimension_d":
            problem["dimension_d"] = 2
        elif case == "forward_shape":
            fw = ForwardBatch(grid=grid, states=fw.states[1:])
        elif case == "horizon":
            problem["t_end"] = 2.0
        elif case == "brownian_grid":
            # same N, twice the horizon: Z would read the increments at the
            # wrong dt
            batch = sample_brownian(TimeGrid(0.0, 2.0, 10), M, 1, seed=0)
        elif case == "terminal_shape":
            problem["terminal"] = lambda s: s[:, -1]
        else:
            problem["terminal"] = lambda s: np.where(np.arange(M) == 3, np.inf, s[:, -1, 0])
        cfg = ExperimentConfig(seed=0, n_paths=M, n_steps=10)
        with pytest.raises(error, match=witness):
            solve_bsde(BSDEProblem(**problem), fw, batch, cfg)


class TestSweepMemory:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("stopped", [False, True])
    def test_peak_beyond_y_and_z_is_a_per_step_working_set(self, d, stopped):
        # measured 20-30 M-vectors beyond Y and Z (design, targets, fits,
        # implicit-step buffers); an (N+1, M) temporary alone is N+1 of them
        M, n_steps = 5000, 200
        grid = TimeGrid(0.0, 1.0, n_steps)
        fw, batch = _brownian_forward(grid, M, d, seed=3)
        problem = BSDEProblem(
            generator=builtin_generator("stress", delta=0.1),
            t_start=0.0,
            t_end=1.0,
            dimension_d=d,
            terminal=lambda s: np.cos(s[:, -1, 0]),
        )
        cfg = ExperimentConfig(seed=3, n_paths=M, n_steps=n_steps)
        stop = None
        if stopped:
            g0 = builtin_generator("linear", b=np.zeros(d), c=0.8)
            stop = _stops(batch, g0, batch.cumulative(), 2.0)
            assert 0 < np.count_nonzero(stop < n_steps) < M
        tracemalloc.start()
        try:
            sol = _solve_stopped(problem, fw, batch, cfg, stop)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra = peak - sol.Y.nbytes - sol.Z.nbytes
        assert extra < 64 * 8 * M


    @pytest.mark.parametrize("d", [1, 2])
    def test_lean_stopped_basis_solve_keeps_no_step_dimension(self, d):
        # the estimators' sweep: stopped, conditioning on (base, X) with
        # base as the anchor, its rows built once; an (N+1, M) temporary
        # alone would be N+1 = 201 M-vectors
        M, n_steps = 5000, 200
        grid = TimeGrid(0.3, 0.5, n_steps)
        rng = np.random.default_rng(5)
        base = rng.normal(size=(M, d))
        fw, batch = _brownian_forward(grid, M, d, seed=5, start=base)
        g = builtin_generator("stress", delta=0.1)
        stop = _stops(batch, g, fw.states, 0.6)
        assert 0 < np.count_nonzero(stop < n_steps) < M
        problem = BSDEProblem(
            generator=g,
            t_start=0.3,
            t_end=0.5,
            dimension_d=d,
            terminal=lambda s: np.cos(s[:, -1, 0]),
        )
        cfg = ExperimentConfig(seed=5, n_paths=M, n_steps=n_steps)
        xi = problem.terminal(fw.states)[None]
        windows = WindowStack((grid,), fw.states, batch.increments)
        tracemalloc.start()
        try:
            Y, Z, _, _ = solver._sweep(g, xi, windows, cfg, stop[None], anchor=base)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert Y.shape == (1, 1, M) and Z.shape == (1, 1, M, d)
        assert peak < 64 * 8 * M


class TestLeanSweep:
    """The estimators' sweep (no history, anchor rows built once, windows
    in lockstep) against the history sweep, polynomial_design and one
    window at a time."""

    @staticmethod
    def _window(d, seed, M=3000, n_steps=30):
        # a quotient-style window: random base, paths started at it
        grid = TimeGrid(0.4, 0.5, n_steps)
        base = 0.2 + np.sqrt(0.4) * np.random.default_rng(seed).normal(size=(M, d))
        fw, batch = _brownian_forward(grid, M, d, seed=seed, start=base)
        return grid, base, fw, batch

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("degree", [0, 1, 3])
    def test_cached_base_rows_give_polynomial_design(self, d, degree):
        grid, base, fw, batch = self._window(d, seed=20 + d)
        steps = list(range(grid.n_steps - 1, -1, -1))
        x_tm = np.swapaxes(fw.states, 0, 1)
        # the displacement path from the base, as a study's unit path is
        moved = x_tm - base
        stack = WindowStack((grid,), np.swapaxes(moved, 0, 1), batch.increments)
        seen = []
        for i, (x, design) in zip(steps, solver._step_designs(stack, degree, base), strict=True):
            assert np.array_equal(x, moved[i]), i
            want = polynomial_design(np.concatenate([base, moved[i]], axis=1), degree)
            assert np.array_equal(design, want), i
            seen.append(i)
        assert seen == steps
        # step 0: the displacement columns are zero, so their rows are too
        assert np.all(moved[0] == 0.0)
        stack = WindowStack((grid,), fw.states, batch.increments)
        seen = []
        for i, (x, design) in zip(steps, solver._step_designs(stack, degree, None), strict=True):
            assert np.array_equal(x, x_tm[i]), i
            assert np.array_equal(design, polynomial_design(x_tm[i], degree)), i
            seen.append(i)
        assert seen == steps

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("stopped", [False, True])
    @pytest.mark.parametrize("on_base", [False, True])
    def test_lean_sweep_equals_solve_bsde(self, d, stopped, on_base):
        grid, base, fw, batch = self._window(d, seed=30 + d)
        g = builtin_generator("stress", delta=0.1)
        stop = None
        if stopped:
            stop = _stops(batch, g, fw.states, 0.3)
            assert 0 < np.count_nonzero(stop < grid.n_steps) < stop.size
        problem = BSDEProblem(
            generator=g,
            t_start=grid.t_start,
            t_end=grid.t_end,
            dimension_d=d,
            terminal=lambda s: np.sin(s[:, -1, 0]) + 0.5 * s[:, -1, -1],
        )
        cfg = ExperimentConfig(seed=30 + d, n_paths=base.shape[0], n_steps=grid.n_steps)
        xi = problem.terminal(fw.states)[None]
        windows = WindowStack((grid,), fw.states, batch.increments)
        stops = None if stop is None else stop[None]
        if on_base:
            (Y_full,), _, (tele_full,), (diag_full,) = solver._sweep(
                g, xi, windows, cfg, stops, anchor=base, history=True
            )
        else:
            sol = _solve_stopped(problem, fw, batch, cfg, stop)
            Y_full, tele_full, diag_full = sol.Y.T, sol.telescoped, sol.diagnostics
        (Y,), (Z,), (telescoped,), (diagnostics,) = solver._sweep(
            g, xi, windows, cfg, stops, anchor=base if on_base else None
        )
        assert Y_full.shape == (grid.n_steps + 1, base.shape[0])
        assert Y.shape == (1, base.shape[0]) and Z.shape == (1, base.shape[0], d)
        assert np.array_equal(Y[0], Y_full[0])
        assert np.array_equal(telescoped, tele_full)
        assert diagnostics.keys() == diag_full.keys()
        for key, value in diagnostics.items():
            assert np.array_equal(value, diag_full[key]), key

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("anchored", [False, True])
    def test_lockstep_windows_match_one_at_a_time(self, d, anchored):
        # three windows of one unit draw swept together against each swept
        # alone: the same stops and iteration counts, and solutions that
        # differ only by the rounding of the wider fused fit
        M, n_steps = 3000, 30
        unit = sample_brownian(TimeGrid(0.0, float(n_steps), n_steps), M, d, seed=40 + d)
        base = 0.2 + np.sqrt(0.4) * np.random.default_rng(40 + d).normal(size=(M, d))
        grids = [TimeGrid(0.4, 0.4 + eps, n_steps) for eps in (0.2, 0.1, 0.05)]
        g = builtin_generator("stress", delta=0.1)
        cfg = ExperimentConfig(seed=40 + d, n_paths=M, n_steps=n_steps)
        anchor = base if anchored else None

        def sweep(gs):
            windows = WindowStack.from_draw(gs, unit.increments, base)
            moved = np.empty((len(gs), M, d))
            stops = stopping_indices(windows, g, barrier=0.5, displacement=moved)
            xi = np.sin(moved[:, :, 0])
            return stops, solver._sweep(g, xi, windows, cfg, stops, anchor)

        stops, (Y, _, telescoped, diagnostics) = sweep(grids)
        assert 0 < np.count_nonzero(stops < n_steps) < stops.size
        for w, grid in enumerate(grids):
            stop_w, (Y_w, _, tele_w, (diag_w,)) = sweep([grid])
            assert np.array_equal(stop_w[0], stops[w])
            np.testing.assert_allclose(Y_w[0, 0], Y[w, 0], rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(tele_w[0], telescoped[w], rtol=1e-9, atol=1e-12)
            assert np.array_equal(diag_w["rank"], diagnostics[w]["rank"])
            np.testing.assert_allclose(diag_w["cond"], diagnostics[w]["cond"], rtol=1e-9)


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
        stop = _stops(batch, g, states, barrier)
        # the stop gating must bind on some paths and not on others
        assert 0 < np.count_nonzero(stop < grid.n_steps) < M
        problem = BSDEProblem(
            generator=g, t_start=grid.t_start, t_end=grid.t_end, dimension_d=1, terminal=terminal
        )
        cfg = ExperimentConfig(
            seed=seed, n_paths=M, n_steps=grid.n_steps, picard_max=picard_max
        )
        sol = _solve_stopped(problem, ForwardBatch(grid=grid, states=states), batch, cfg, stop)
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
        g = _undeclared(builtin_generator("linear", a=-60.0))
        grid = TimeGrid(0.0, 1.0, 10)
        sol, oracle, _ = self._solve(
            g, grid, 256, 5, 0.8, lambda s: np.ones(s.shape[0]), picard_max=1
        )
        assert sol.diagnostics["bisection_paths"].sum() > 0
        assert np.max(np.abs(sol.telescoped - oracle)) <= 1e-12


class TestComparison:
    def _window(self, grid, M, seed, terminal):
        """One window on a forward batch and its (M,) terminal values."""
        fw, batch = _brownian_forward(grid, M, 1, seed)
        return WindowStack((grid,), fw.states, batch.increments), terminal(fw.states)

    def test_identical_generators_tie(self):
        grid = TimeGrid(0.0, 0.5, 20)
        g = builtin_generator("linear", a=-1.0, c=0.3)
        window, xi = self._window(grid, 4000, 9, lambda s: np.sin(s[:, -1, 0]))
        cfg = ExperimentConfig(seed=9, n_paths=4000, n_steps=20)
        rep = comparison_check(g, g, window, xi, cfg)
        assert rep.fraction == 1.0

    def test_ordered_pair(self):
        grid = TimeGrid(0.0, 0.5, 20)
        g1 = builtin_generator("linear", c=1.0)
        g2 = builtin_generator("linear", c=0.4)
        window, xi = self._window(grid, 4000, 9, lambda s: s[:, -1, 0])
        cfg = ExperimentConfig(seed=9, n_paths=4000, n_steps=20)
        rep = comparison_check(g1, g2, window, xi, cfg)
        assert rep.fraction == 1.0
        assert rep.generator_gap_min >= 0.6 - 1e-9

    _TERMINALS = {"sin": np.sin, "cos": np.cos, "x": lambda v: v, "x2": np.square, "abs": np.abs}

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.floats(-3.0, 3.0),
        b=st.floats(-1.0, 1.0),
        c=st.floats(-2.0, 2.0),
        shift=st.floats(0.0, 1.0),
        terminal=st.sampled_from(sorted(_TERMINALS)),
        M=st.sampled_from([500, 2000]),
        N=st.sampled_from([5, 20]),
        horizon=st.floats(0.1, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_shifted_generator_dominates(self, a, b, c, shift, terminal, M, N, horizon, seed):
        # comparison theorem: g + s >= g for s >= 0, so Y(g + s) >= Y(g) on
        # every path and step, up to the check's own slack; 0.999 is the
        # converse probe's threshold
        grid = TimeGrid(0.0, horizon, N)
        phi = self._TERMINALS[terminal]
        g = builtin_generator("linear", a=a, b=b, c=c)
        window, xi = self._window(grid, M, seed, lambda s: phi(s[:, -1, 0]))
        cfg = ExperimentConfig(seed=seed, n_paths=M, n_steps=N)
        shifted = builtin_generator("linear", a=a, b=b, c=c + shift)
        rep = comparison_check(shifted, g, window, xi, cfg)
        assert rep.fraction >= 0.999

    def test_misordered_generators_rejected(self):
        cases = [
            (builtin_generator("linear", c=0.4), 1.0),
            # NaN where y > 2.5 fails the ordering, not drops out of its minimum
            (
                Generator(
                    name="nan_high_y",
                    eval=lambda t, x, y, z: np.where(np.asarray(y) > 2.5, np.nan, 1.0),
                    lipschitz_z=0.0,
                ),
                0.0,
            ),
            # ordered except in the last tenth of [0, 0.5], where the sampled
            # times reach
            (
                Generator(
                    name="late_flip",
                    eval=lambda t, x, y, z: np.full(np.shape(y), 1.0 if t < 0.45 else -1.0),
                    lipschitz_z=0.0,
                ),
                0.0,
            ),
        ]
        grid = TimeGrid(0.0, 0.5, 20)
        cfg = ExperimentConfig(seed=9, n_paths=1000, n_steps=20)
        for g1, c2 in cases:
            g2 = builtin_generator("linear", c=c2)
            window, xi = self._window(grid, 1000, 9, lambda s: s[:, -1, 0])
            with pytest.raises(
                HypothesisError, match="ordering g1 >= g2 fails at t=.*, x=.*, y=.*, z="
            ):
                comparison_check(g1, g2, window, xi, cfg)

    def test_two_windows_refused(self):
        g = builtin_generator("linear", c=0.3)
        cfg = ExperimentConfig(seed=9, n_paths=500, n_steps=20)
        unit = sample_brownian(TimeGrid(0.0, 20.0, 20), 500, 1, 9)
        grids = [TimeGrid(0.0, 0.5, 20), TimeGrid(0.0, 0.25, 20)]
        stack = WindowStack.from_draw(grids, unit.increments, np.zeros((500, 1)))
        with pytest.raises(ValidationError, match="need a stack of one window, got 2"):
            comparison_check(g, g, stack, np.zeros(500), cfg)

    @pytest.mark.parametrize("shape", [(499,), (1, 500), (500, 1), ()])
    def test_terminals_of_another_shape_refused(self, shape):
        g = builtin_generator("linear", c=0.3)
        window, _ = self._window(TimeGrid(0.0, 0.5, 20), 500, 9, lambda s: s[:, -1, 0])
        cfg = ExperimentConfig(seed=9, n_paths=500, n_steps=20)
        with pytest.raises(ValidationError, match=r"terminals shaped .*, expected \(500,\)"):
            comparison_check(g, g, window, np.zeros(shape), cfg)


class TestStorageLayout:
    """Per-step arrays are stored time-major; path-major inputs are copied
    into that layout, so the storage cannot change any output bit."""

    @staticmethod
    def _run(batch, fw, cfg):
        g = builtin_generator("stress", delta=0.1)
        stop = _stops(batch, g, fw.states, 0.9)
        problem = BSDEProblem(
            generator=g,
            t_start=0.2,
            t_end=0.4,
            dimension_d=2,
            terminal=lambda s: np.sin(s[:, -1, 0]) + 0.5 * s[:, -1, 1],
        )
        sol = _solve_stopped(problem, fw, batch, cfg, stop)
        return stop, sol

    def test_path_major_inputs_give_identical_results(self):
        grid = TimeGrid(0.2, 0.4, 12)
        M = 3000
        cfg = ExperimentConfig(seed=17, n_paths=M, n_steps=12)
        batch = sample_brownian(grid, M, 2, seed=17)
        fw = euler_maruyama(
            grid, lambda t, x: 0.1 * x, lambda t, x: 1.0 + 0.1 * np.abs(x), [0.3, -0.1], batch
        )
        stop, sol = self._run(batch, fw, cfg)
        assert 0 < np.count_nonzero(stop < grid.n_steps) < M

        pm_batch = dataclasses.replace(batch, increments=np.ascontiguousarray(batch.increments))
        pm_fw = ForwardBatch(grid=grid, states=np.ascontiguousarray(fw.states))
        for a in (pm_batch.increments, pm_fw.states):
            assert a.flags.c_contiguous
        pm_stop, pm_sol = self._run(pm_batch, pm_fw, cfg)

        assert np.array_equal(stop, pm_stop)
        assert np.array_equal(sol.Y, pm_sol.Y)
        assert np.array_equal(sol.Z, pm_sol.Z)
        assert np.array_equal(sol.telescoped, pm_sol.telescoped)
        assert sol.diagnostics.keys() == pm_sol.diagnostics.keys()
        for key, value in sol.diagnostics.items():
            assert np.array_equal(value, pm_sol.diagnostics[key]), key

    def test_package_arrays_are_time_major_views(self):
        # a silent fallback to path-major storage would keep every result
        # and only show here
        grid = TimeGrid(0.0, 1.0, 8)
        fw, batch = _brownian_forward(grid, 500, 2, seed=3)
        em = euler_maruyama(grid, lambda t, x: 0.0, lambda t, x: 1.0, [0.0, 0.0], batch)
        problem = BSDEProblem(
            generator=builtin_generator("linear", a=-1.0, b=[0.2, 0.1]),
            t_start=0.0,
            t_end=1.0,
            dimension_d=2,
            terminal=lambda s: s[:, -1, 0],
        )
        sol = solve_bsde(problem, em, batch, ExperimentConfig(seed=3, n_paths=500, n_steps=8))
        for a in (batch.increments, fw.states, em.states, sol.Y, sol.Z):
            assert np.swapaxes(a, 0, 1).flags.c_contiguous
