"""Semilinear parabolic PDE bridge: Monte Carlo vs finite differences.

u(t, x) := Y_t of the backward equation driven by the diffusion started at
(t, x) solves, in the viscosity sense,

    du/dt + (1/2) sigma^2 u_xx + b u_x + g(t, x, u, sigma u_x) = 0,
    u(T, .) = phi,

in one spatial dimension here.  This module estimates u by the path solver,
computes an independent theta-scheme reference on a box, compares the two,
and checks the viscosity inequality at a touching point both directly (via
analytic derivatives of the test function) and through the difference
quotient of the compensated generator built from the test function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import ExperimentConfig, Generator, _mean_se, _over_time, builtin_generator
from .core import _require_finite, _require_le
from .errors import NumericalError, ValidationError
from .paths import TimeGrid, WindowStack, _coefficient, euler_maruyama, sample_brownian
from .representation import _stopped_solve
from .solver import _sweep


@dataclass(frozen=True)
class PDEProblem:
    """Terminal-value problem data on a box [x_lo, x_hi] x [0, T].

    drift and sigma follow the forward-simulation convention: called with
    (t, x) where x has shape (M, 1), returning a broadcastable array.  The
    generator receives the spatial state through its x argument.  growth_L
    and growth_p declare |phi(x)| + |g(t,x,0,0)| <= L*(1 + |x|^p), verified
    when built (growth_check), so a problem that exists satisfies its
    declared bound.  T, x_lo, x_hi, growth_L and growth_p must be finite,
    checked first; a value that is not raises ValidationError.
    """

    drift: Callable
    sigma: Callable
    generator: Generator
    phi: Callable  # terminal condition, vectorized over x
    growth_L: float
    growth_p: float
    T: float
    x_lo: float
    x_hi: float

    def __post_init__(self):
        # before growth_check, which a non-finite bound or box defeats
        for name in ("T", "x_lo", "x_hi", "growth_L", "growth_p"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.x_lo < self.x_hi:
            raise ValidationError(f"need x_lo < x_hi, got [{self.x_lo}, {self.x_hi}]")
        if not self.T > 0:
            raise ValidationError(f"need T > 0, got {self.T}")
        if self.growth_L <= 0:
            raise ValidationError(f"growth_L must be > 0, got {self.growth_L}")
        growth_check(self)


def _coef(name: str, f, t, x: np.ndarray) -> np.ndarray:
    """Coefficient f(t, x) for states x of shape (..., 1), as an array of shape (...).

    A value that does not broadcast to x's shape raises ValidationError
    (paths._coefficient).
    """
    return _coefficient(name, f(t, x), x.shape)[..., 0]


def growth_check(problem: PDEProblem) -> None:
    """Check the declared growth bound on 512 nodes x 8 times; raises on violation.

    Nodes span [x_lo, x_hi], times [0, T], ends included (core._over_time);
    phi and the bound are taken once per node; NaN in phi or g(t, x, 0, 0)
    fails.  PDEProblem runs it when built, so no entry point runs it again;
    a violation raises ValidationError "growth bound violated" with its
    witness (t, x).
    """
    nodes = np.linspace(problem.x_lo, problem.x_hi, 512)
    xs = np.tile(nodes, 8)
    ts, g0 = _over_time(
        lambda t, x: problem.generator(t, x[:, None], np.zeros(x.size), np.zeros((x.size, 1))),
        0.0, problem.T, xs.size, 512, xs,
    )
    lhs = np.abs(np.asarray(problem.phi(nodes), dtype=float)) + np.abs(g0).reshape(8, -1)
    bound = np.tile(problem.growth_L * (1.0 + np.abs(nodes) ** problem.growth_p), 8)
    _require_le(lhs.ravel(), bound, ValidationError, "growth bound violated", t=ts, x=xs)


def _probe(problem: PDEProblem, t, x, t_end) -> None:
    """The bridge's entry rule, checked before anything is drawn or marched.

    A probe at (t, x) on the window [t, t_end], t_end = T for a solve and
    t + eps for a touch window, needs 0 <= t < t_end <= T and x one
    number in [x_lo, x_hi] up to 1e-12 above; NaN and +-inf fail.  A
    failure raises ValidationError naming the value.
    """
    # negated comparisons also refuse NaN
    if not 0.0 <= t < problem.T:
        raise ValidationError(f"need 0 <= t < T={problem.T}, got t={t}")
    if not t < t_end <= problem.T:
        raise ValidationError(
            f"need t < t_end <= T={problem.T} on the window [t, t_end] = [{t}, {t_end}]"
        )
    # the box is 1-d: a vector x is refused too
    if not (np.size(x) == 1 and problem.x_lo <= np.asarray(x) <= problem.x_hi + 1e-12):
        raise ValidationError(f"x={x} outside [{problem.x_lo}, {problem.x_hi}]")


def _paths(problem: PDEProblem, t, x, t_end, config: ExperimentConfig) -> WindowStack:
    """config.n_paths Euler paths from x on [t, t_end], a one-window stack.

    The probe passes _probe first, so a bad one draws nothing.
    """
    _probe(problem, t, x, t_end)
    grid = TimeGrid(t, t_end, config.n_steps)
    batch = sample_brownian(grid, config.n_paths, 1, config.seed)
    fw = euler_maruyama(grid, problem.drift, problem.sigma, x, batch)
    return WindowStack((grid,), fw.states, batch.increments)


@dataclass(frozen=True)
class McSolution:
    u: float
    se: float


def mc_solution(problem: PDEProblem, t: float, x: float, config: ExperimentConfig) -> McSolution:
    """Estimate u(t, x) by forward simulation plus the backward sweep.

    (t, x) must pass the entry rule (_probe with t_end = T: 0 <= t < T, x
    in the box), else ValidationError before anything is drawn.  The
    simulated paths (_paths) are one window (a WindowStack of K = 1) of
    _sweep, run without history, as solve_bsde would run them with it,
    bit for bit.
    The reported standard error comes from the sweep's pathwise telescoped
    sums (SolutionBatch.telescoped: terminal value plus accumulated
    generator, which says how close its values are to g at the solved Y),
    whose mean coincides with the regression estimate but whose spread is
    the estimator's real Monte Carlo noise.
    """
    window = _paths(problem, t, x, problem.T, config)
    *_, x_end = window.rows()
    # an overflow is reported by _sweep with its path
    with np.errstate(over="ignore", invalid="ignore"):
        xi = np.asarray(problem.phi(x_end[:, 0]), dtype=float)
    if xi.shape != (config.n_paths,):
        raise ValidationError(f"phi returned shape {xi.shape}, expected ({config.n_paths},)")
    (Y,), _, (telescoped,), _ = _sweep(problem.generator, xi[None], window, config)
    return McSolution(u=float(Y[0].mean()), se=_mean_se(telescoped))


@dataclass(frozen=True)
class FDField:
    """Space-time table of the theta-scheme reference solution.

    times ascend from 0 to T; u[j] is the row at times[j], u[-1] = phi(xs)
    exactly.  value() interpolates bilinearly.
    """

    times: np.ndarray
    xs: np.ndarray
    u: np.ndarray

    def value(self, t: float, x: float) -> float:
        times, xs, u = self.times, self.xs, self.u
        if not times[0] <= t <= times[-1] + 1e-12:
            raise ValidationError(f"t={t} outside [{times[0]}, {times[-1]}]")
        if not xs[0] <= x <= xs[-1] + 1e-12:
            raise ValidationError(f"x={x} outside [{xs[0]}, {xs[-1]}]")
        j = min(int(np.searchsorted(times, t, side="right")) - 1, times.size - 2)
        j = max(j, 0)
        i = min(int(np.searchsorted(xs, x, side="right")) - 1, xs.size - 2)
        i = max(i, 0)
        wt = (t - times[j]) / (times[j + 1] - times[j])
        wx = (x - xs[i]) / (xs[i + 1] - xs[i])
        row0 = (1 - wx) * u[j, i] + wx * u[j, i + 1]
        row1 = (1 - wx) * u[j + 1, i] + wx * u[j + 1, i + 1]
        return float((1 - wt) * row0 + wt * row1)


def _frozen_boundary(problem, x_b, t, b_f, s_f, nodes, weights):
    """Terminal condition transported by the constant-coefficient heat kernel.

    b_f and s_f are drift and sigma frozen at the boundary node x_b and time
    t < T; the semilinear term is dropped.  Valid as a Dirichlet value when
    the probes of interest sit far enough inside the box that the boundary
    layer cannot reach them.  (nodes, weights) is the 64-node Gauss-Hermite
    rule, which fd_reference builds once per march and passes to every call.
    """
    tau = problem.T - t
    pts = x_b + b_f * tau + s_f * math.sqrt(2.0 * tau) * nodes
    vals = np.asarray(problem.phi(pts), dtype=float)
    return float(weights @ vals / math.sqrt(math.pi))


def fd_reference(
    problem: PDEProblem, h: float, k: float, theta: float = 0.5
) -> FDField:
    """Theta-scheme on the linear part, explicit semilinear term.

    Backward march from phi: (I - theta*k*L) u_j = (I + (1-theta)*k*L) u_{j+1}
    + k * g(t_{j+1}, x, u_{j+1}, sigma * D_x u_{j+1}), with L the central
    discretization of (1/2) sigma^2 D_xx + b D_x and Dirichlet boundary
    values from the frozen-coefficient heat kernel.  theta = 1/2 is
    Crank-Nicolson.  drift and sigma must be finite and sigma away from 0,
    and for theta < 1/2 the parabolic CFL condition on k must hold; each is
    checked once, on the interior nodes of every time level, from the
    coefficients the march computes anyway, and a violation raises
    ValidationError naming "time_index=j, t=..., x=..." at the first failing
    node (core._require).  The boundary nodes are not checked: the march
    never solves for them, and their heat-kernel values allow sigma = 0.  A
    non-finite row raises NumericalError naming time_index and x likewise.

    What does not change between levels is computed once: the Gauss-Hermite
    rule of the boundary values once per march, and drift and sigma once per
    time level (those at times[j] serve the implicit side and boundary values
    of the step to level j and the explicit side of the step to level j - 1),
    so each is called n_t + 1 times, on all nodes.
    """
    # scipy takes about 0.3 s to import, and only this march needs it
    from scipy.linalg.lapack import dgtsv

    if not 0.0 <= theta <= 1.0:
        raise ValidationError(f"theta must be in [0, 1], got {theta}")
    if not (h > 0 and k > 0):
        raise ValidationError(f"need h > 0 and k > 0, got h={h}, k={k}")
    n_x = int(round((problem.x_hi - problem.x_lo) / h))
    if n_x < 3:
        raise ValidationError("fewer than 3 spatial cells; shrink h")
    if abs(problem.x_lo + n_x * h - problem.x_hi) > 1e-9 * max(1.0, abs(problem.x_hi)):
        raise ValidationError("h does not evenly divide the domain width")
    xs = problem.x_lo + h * np.arange(n_x + 1)
    xs[-1] = problem.x_hi
    n_t = max(1, int(round(problem.T / k)))
    k_eff = problem.T / n_t
    times = k_eff * np.arange(n_t + 1)
    times[-1] = problem.T

    u = np.empty((n_t + 1, n_x + 1))
    u[n_t] = np.asarray(problem.phi(xs), dtype=float)
    xi_int = xs[1:-1]
    g = problem.generator
    # the explicit part's CFL bound on sigma^2
    cfl = h * h / ((1.0 - 2.0 * theta) * k_eff) if theta < 0.5 else None

    def lin_coeffs(j):
        # sigma may vary in time: the checks run on every level, and only
        # here, on the interior; the two ends feed the boundary values
        t = times[j]
        b_all = _coef("drift", problem.drift, t, xs[:, None])
        s_all = _coef("sigma", problem.sigma, t, xs[:, None])
        bv, sv = b_all[1:-1], s_all[1:-1]
        at = dict(time_index=j, t=t, x=xi_int)
        # first, since a NaN sigma would pass the CFL test
        _require_finite({"b": bv, "sigma": sv}, ValidationError, "non-finite coefficient", **at)
        _require_le(1e-8, np.abs(sv), ValidationError, "sigma degenerate", **at)
        s2 = sv * sv
        # a level that meets the CFL bound reads s2 once, in the max
        if cfl is not None and not np.max(s2) <= cfl:
            message = f"CFL violation for k={k_eff:.3e}, theta={theta}: sigma^2"
            _require_le(s2, cfl, ValidationError, message, **at)
        lo = s2 / (2 * h * h) - bv / (2 * h)
        di = -s2 / (h * h)
        up = s2 / (2 * h * h) + bv / (2 * h)
        return lo, di, up, b_all, s_all

    nodes, weights = np.polynomial.hermite.hermgauss(64)
    coeffs = lin_coeffs(n_t)
    for j in range(n_t - 1, -1, -1):
        t_new, t_old = times[j], times[j + 1]
        v = u[j + 1]
        lo_o, di_o, up_o, _, s_o = coeffs
        Lv = lo_o * v[:-2] + di_o * v[1:-1] + up_o * v[2:]
        dxv = (v[2:] - v[:-2]) / (2 * h)
        gv = g(t_old, xi_int[:, None], v[1:-1], (s_o[1:-1] * dxv)[:, None])
        rhs = v[1:-1] + (1 - theta) * k_eff * Lv + k_eff * gv

        # level j's coefficients are the old ones of the step to level j - 1
        coeffs = lin_coeffs(j)
        lo_n, di_n, up_n, b_n, s_n = coeffs
        ub_lo = _frozen_boundary(problem, xs[0], t_new, b_n[0], s_n[0], nodes, weights)
        ub_hi = _frozen_boundary(problem, xs[-1], t_new, b_n[-1], s_n[-1], nodes, weights)
        rhs[0] += theta * k_eff * lo_n[0] * ub_lo
        rhs[-1] += theta * k_eff * up_n[-1] * ub_hi

        # the tridiagonal solve that solve_banded((1, 1), ...) makes, on
        # the three diagonals without the band matrix around them
        _, _, _, sol, info = dgtsv(
            -theta * k_eff * lo_n[1:],
            1.0 - theta * k_eff * di_n,
            -theta * k_eff * up_n[:-1],
            rhs,
            overwrite_b=True,
        )
        if info > 0:
            raise NumericalError(f"singular FD system at time index {j}")
        _require_finite({"u": sol}, NumericalError, "non-finite FD row", time_index=j, x=xi_int)
        u[j, 1:-1] = sol
        u[j, 0] = ub_lo
        u[j, -1] = ub_hi

    return FDField(times=times, xs=xs, u=u)


@dataclass(frozen=True)
class McFdRow:
    t: float
    x: float
    u_mc: float
    se: float
    u_fd: float
    diff: float
    tol: float

    @property
    def passed(self) -> bool:
        return abs(self.diff) <= self.tol


def mc_vs_fd(
    problem: PDEProblem,
    points,
    config: ExperimentConfig,
    h: float,
    k: float,
    theta: float = 0.5,
) -> list[McFdRow]:
    """Discrepancy table between the two solvers at probe points.

    Tolerance per point: max(2% relative to the FD value, 3 MC standard
    errors plus the FD truncation budget).  The budget charges 0.5% of
    scale, max(1, |u_fd|), matching the reference's own acceptance bar.
    Probe i is seeded with (config.seed + i) mod 2**64, so a valid seed
    stays valid for every probe.  An empty list, and any point that fails
    mc_solution's entry rule (_probe), raise ValidationError before the FD
    march and any solve.
    """
    if not points:
        raise ValidationError("need at least one probe point")
    for t, x in points:
        _probe(problem, t, x, problem.T)
    field = fd_reference(problem, h, k, theta)
    rows = []
    for i, (t, x) in enumerate(points):
        # probe 0 takes the caller's seed as given, so sampling still refuses
        # one outside [0, 2**64); later probes wrap within that range
        seed = config.seed if i == 0 else (config.seed + i) % 2**64
        mc = mc_solution(problem, t, x, replace(config, seed=seed))
        u_fd = field.value(t, x)
        diff = mc.u - u_fd
        tol = max(0.02 * abs(u_fd), 3.0 * mc.se + 0.005 * max(1.0, abs(u_fd)))
        rows.append(
            McFdRow(t=float(t), x=float(x), u_mc=mc.u, se=mc.se, u_fd=u_fd, diff=diff, tol=tol)
        )
    return rows


@dataclass(frozen=True)
class TestFunction:
    """Smooth test function with analytic derivatives, 1-d in space."""

    __test__ = False  # math term, not a pytest fixture

    value: Callable
    dt: Callable
    dx: Callable
    dxx: Callable

    def bumped(self, x0: float, amplitude: float) -> "TestFunction":
        """Add amplitude*(x - x0)^4; derivatives at x0 are unchanged."""
        a = float(amplitude)
        return TestFunction(
            value=lambda t, x, f=self.value: f(t, x) + a * (np.asarray(x) - x0) ** 4,
            dt=self.dt,
            dx=lambda t, x, f=self.dx: f(t, x) + 4 * a * (np.asarray(x) - x0) ** 3,
            dxx=lambda t, x, f=self.dxx: f(t, x) + 12 * a * (np.asarray(x) - x0) ** 2,
        )


def proof_generator(problem: PDEProblem, phi: TestFunction) -> Generator:
    """Compensated generator of the touching argument.

    G(r, x, y, z) = (phi_t + (1/2) sigma^2 phi_xx + b phi_x)(r, x)
                    + g(r, x, y + phi(r, x), z + sigma(r, x) * phi_x(r, x)).

    The backward solution with terminal 0 and this generator is the original
    Y minus phi along the diffusion; its difference quotient at (y, z) =
    (0, 0) recovers G(t, x, 0, 0), the PDE residual of phi against u.  G is
    affine in y wherever g is, with the same slope, so it copies g's y_slope.
    """
    g = problem.generator

    def ev(t, x, y, z):
        # a 0-d x is one state of one coordinate
        x = np.atleast_1d(x)
        x1 = x[..., 0]
        bv = _coef("drift", problem.drift, t, x)
        sv = _coef("sigma", problem.sigma, t, x)
        lphi = phi.dt(t, x1) + 0.5 * sv * sv * phi.dxx(t, x1) + bv * phi.dx(t, x1)
        shift = sv * phi.dx(t, x1)
        zz = z + (shift[..., None] if z.ndim else shift)
        return lphi + g(t, x, y + phi.value(t, x1), zz)

    return Generator(
        name="touch_probe",
        eval=ev,
        lipschitz_z=g.lipschitz_z,
        monotonicity_modulus=g.monotonicity_modulus,
        growth_bound=None,
        state_dependent=True,
        y_slope=g.y_slope,
    )


@dataclass(frozen=True)
class TouchReport:
    t: float
    x: float
    mode: str
    residual_direct: float
    residual_quotient: float
    quotient_se: float
    frac_stopped: float
    touch_margin: float  # worst stencil violation of the touching property


def viscosity_touch_check(
    problem: PDEProblem,
    u_source: Callable,
    phi: TestFunction,
    t: float,
    x: float,
    config: ExperimentConfig,
    mode: str = "sub",
    eps: float = 0.025,
    stencil_h: float = 0.05,
    stencil_k: float = 0.01,
    barrier: float = 1.0,
) -> TouchReport:
    """Residual of a touching test function, two ways.

    Validates that (t, x) is a local max (mode=sub) or min (mode=super) of
    u - phi over a 5x5 space-time stencil, steps stencil_k in time and
    stencil_h in space, up to 1e-9, on the stencil nodes that lie in
    [0, T] x [x_lo, x_hi]; a NaN in u - phi at any of them, the centre
    included, fails the check.  It then evaluates the PDE residual of phi
    at (t, x) directly from its analytic derivatives and, separately, as
    the difference quotient of the compensated generator along the
    simulated diffusion: the stop-gated solve of representation_quotient
    at (y, z) = (0, 0) with base x, which warns the same way when the stop
    binds on more than 1% of paths.  Both stencil steps must be > 0, NaN
    refused (a zero or NaN step makes the touching check vacuous), and
    (t, x) must pass the entry rule on the window [t, t + eps] (_probe:
    eps > 0, the window in [0, T], x in the box); each failure raises
    ValidationError before anything is drawn.  The paths are drawn
    (_paths) before the stencil is read.  Sign conventions: a
    subsolution touching point must give residual >= 0 up to tolerance.
    """
    if mode not in ("sub", "super"):
        raise ValidationError(f"mode must be 'sub' or 'super', got {mode!r}")
    # negated > also refuses NaN, which would pass every stencil node
    if not (stencil_h > 0 and stencil_k > 0):
        raise ValidationError(
            f"stencil steps must be > 0, got stencil_h={stencil_h}, stencil_k={stencil_k}"
        )
    window = _paths(problem, t, x, t + eps, config)

    def u_minus_phi(tt, xx):
        return u_source(tt, xx) - float(phi.value(tt, np.asarray(xx)))

    steps = np.arange(-2, 3)
    ts, xs = np.meshgrid(t + stencil_k * steps, x + stencil_h * steps, indexing="ij")
    inside = (0.0 <= ts) & (ts <= problem.T) & (problem.x_lo <= xs) & (xs <= problem.x_hi)
    ts, xs = ts[inside], xs[inside]
    stencil = np.array([u_minus_phi(tt, xx) for tt, xx in zip(ts, xs)])
    center = u_minus_phi(t, x)
    gaps = stencil - center if mode == "sub" else center - stencil
    extremum = "max" if mode == "sub" else "min"
    message = f"(t={t}, x={x}) is not a local {extremum} of u - phi on the stencil"
    _require_le(gaps, 1e-9, ValidationError, message, t=ts, x=xs)
    worst = float(gaps.max(initial=-np.inf))

    x_arr = np.asarray(x, dtype=float)
    xs2 = x_arr.reshape(1, 1)
    bv = float(_coef("drift", problem.drift, t, xs2)[0])
    sv = float(_coef("sigma", problem.sigma, t, xs2)[0])
    u_tx = u_source(t, x)
    z_dir = sv * float(phi.dx(t, x_arr))
    direct = (
        float(phi.dt(t, x_arr))
        + 0.5 * sv * sv * float(phi.dxx(t, x_arr))
        + bv * float(phi.dx(t, x_arr))
        + float(problem.generator(t, xs2, np.array([u_tx]), np.array([[z_dir]]))[0])
    )

    G = proof_generator(problem, phi)
    (y_t,), (telescoped,), (frac_stopped,) = _stopped_solve(
        G, window, 0.0, np.zeros(1), config, barrier, stacklevel=3
    )
    raw = telescoped / eps
    quotient = float(y_t.mean()) / eps
    se = _mean_se(raw)

    return TouchReport(
        t=float(t),
        x=float(x),
        mode=mode,
        residual_direct=direct,
        residual_quotient=quotient,
        quotient_se=se,
        frac_stopped=float(frac_stopped),
        touch_margin=float(worst),
    )


# Built-in problems used by the CLI and the acceptance suite.

def _const(v):
    return lambda t, x: v


def _box_problem(generator, phi, growth_L, growth_p, T, half_width) -> PDEProblem:
    """Driftless unit-volatility problem on the box [-half_width, half_width]."""
    return PDEProblem(
        drift=_const(0.0),
        sigma=_const(1.0),
        generator=builtin_generator(generator),
        phi=phi,
        growth_L=growth_L,
        growth_p=growth_p,
        T=T,
        x_lo=-half_width,
        x_hi=half_width,
    )


def heat_cos_problem(T: float = 1.0, half_width: float = 4 * math.pi) -> PDEProblem:
    """Pure heat equation with cosine terminal data; u(t,x) = e^{-(T-t)/2} cos x."""
    return _box_problem("linear", np.cos, 2.0, 1.0, T, half_width)


def semilinear_cos_problem(T: float = 1.0, half_width: float = 4 * math.pi) -> PDEProblem:
    """Heat equation with reaction g(u) = -u; u(t,x) = e^{-3(T-t)/2} cos x."""
    return _box_problem("negative_exponential", np.cos, 2.0, 1.0, T, half_width)


def affine_problem(c0: float, c1: float, T: float = 1.0, half_width: float = 6.0) -> PDEProblem:
    """phi(x) = c0 + c1*x with no reaction: u(t, x) = c0 + c1*x for all t."""
    phi = lambda x: c0 + c1 * np.asarray(x, dtype=float)
    return _box_problem("linear", phi, max(abs(c0), abs(c1)) + 1.0, 1.0, T, half_width)


def square_problem(T: float = 1.0, half_width: float = 6.0) -> PDEProblem:
    """phi(x) = x^2 with no reaction: u(t, x) = x^2 + (T - t)."""
    phi = lambda x: np.asarray(x, dtype=float) ** 2
    return _box_problem("linear", phi, 2.0, 2.0, T, half_width)


def _cos_solution(rate: float, T: float) -> TestFunction:
    """e^{-rate*(T-t)} cos x with its analytic derivatives."""
    def val(t, x):
        return math.exp(-rate * (T - t)) * np.cos(np.asarray(x, dtype=float))

    def d_t(t, x):
        return rate * math.exp(-rate * (T - t)) * np.cos(np.asarray(x, dtype=float))

    def d_x(t, x):
        return -math.exp(-rate * (T - t)) * np.sin(np.asarray(x, dtype=float))

    def d_xx(t, x):
        return -math.exp(-rate * (T - t)) * np.cos(np.asarray(x, dtype=float))

    return TestFunction(value=val, dt=d_t, dx=d_x, dxx=d_xx)


def heat_cos_solution(T: float = 1.0) -> TestFunction:
    """Exact solution of heat_cos_problem as a test function."""
    return _cos_solution(0.5, T)


def semilinear_cos_solution(T: float = 1.0) -> TestFunction:
    """Exact solution of semilinear_cos_problem as a test function."""
    return _cos_solution(1.5, T)
