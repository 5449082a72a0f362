"""Difference-quotient representation experiments.

The object under study: with terminal data y + <z, B_{(t+eps) ^ tau} - B_t>
and the generator switched off from the stopping index tau on, the rescaled
initial value ((Y_t) - y)/eps converges to g(t, x, y, z) as eps -> 0+, in
L^p over the time-t randomness.  tau is the first grid index where the
Brownian displacement plus the running integral of g(r, x_r, 0, 0)^2 exceeds
a barrier (default 1), which keeps the truncated terminal bounded without
assuming any growth on g.

For a generator without state dependence the limit is deterministic and the
Monte Carlo mean is the estimator.  For a state-dependent generator the
time-t state is realized pathwise (Brownian marginal anchored at x) and the
regression conditions on (initial state, increment) pairs, so the fitted
initial values estimate the conditional quotient path by path.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace

import numpy as np

from .core import BSDEProblem, ExperimentConfig, Generator, _mean_se
from .errors import HypothesisError, ValidationError
from .paths import ForwardBatch, TimeGrid, sample_brownian, stopping_indices
from .solver import _sweep, comparison_check

# Auxiliary Philox stream offset, disjoint from the path-block keyspace.
AUX_STREAM = np.uint64(1) << np.uint64(63)

# Finest time step relative to the quotient window.
MIN_STEPS_PER_EPS = 50

# L^p norms of the quotient error reported by convergence_study; the lowest
# one drives the monotonicity verdict and the rate fit.
P_NORMS = (1, 2)


def _aux_normals(seed: int, shape) -> np.ndarray:
    key = np.array([np.uint64(seed), AUX_STREAM], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(shape)


class _Draws:
    """The normals of one study, drawn once per (n_steps, d).

    The windows of a study share the seed, n_steps and M, so a window's
    increments are the increments over unit steps times its own sqrt(dt),
    the bits sample_brownian draws for it, and its anchors' base normals
    are the same array.  Both are drawn when first asked for.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self._unit = {}
        self._aux = {}

    def batch(self, grid: TimeGrid, d: int):
        cfg = self.config
        key = (grid.n_steps, d)
        if key not in self._unit:
            unit_steps = TimeGrid(0.0, float(grid.n_steps), grid.n_steps)
            self._unit[key] = sample_brownian(unit_steps, cfg.n_paths, d, cfg.seed)
        unit = self._unit[key]
        # the product keeps the time-major layout of the unit increments
        return replace(unit, grid=grid, increments=unit.increments * np.sqrt(grid.dt))

    def aux(self, d: int) -> np.ndarray:
        if d not in self._aux:
            self._aux[d] = _aux_normals(self.config.seed, (self.config.n_paths, d))
        return self._aux[d]


# The draws of the study in progress.  convergence_study and
# converse_comparison_probe set them (_one_draw), so the
# representation_quotient calls they make scale one draw between them.
_STUDY_DRAWS: ContextVar[_Draws | None] = ContextVar("study_draws", default=None)


@contextmanager
def _one_draw(config: ExperimentConfig):
    """Share one _Draws among the representation_quotient calls inside."""
    draws = _Draws(config)
    token = _STUDY_DRAWS.set(draws)
    try:
        yield draws
    finally:
        _STUDY_DRAWS.reset(token)


def _stopped_solve(g, forward, batch, base, y, z, config, barrier, on_base=False):
    """Solve one quotient window with g switched off from tau on.

    tau is stopping_indices along forward.states and the terminal is
    y + <z, X_tau - base>.  With on_base the sweep takes base as its
    anchor and regresses on (base, X - base) pairs, base's rows built once
    per solve and X - base formed one step at a time, so the window's
    paths are never copied.  A stop that binds on more than 1% of paths
    warns that the window is too wide for the barrier.  The sweep keeps no
    history; returns (Y_t on every path, telescoped sums, fraction of
    stopped paths).
    """
    grid = forward.grid
    stop = stopping_indices(batch, g, x_path=forward.states, barrier=barrier)
    frac_stopped = float(np.mean(stop < grid.n_steps))
    if frac_stopped > 0.01:
        warnings.warn(
            f"stopping index binds on {100 * frac_stopped:.2f}% of paths on "
            f"[{grid.t_start}, {grid.t_end}]; quotient window too wide for the barrier",
            RuntimeWarning,
            stacklevel=3,
        )
    stopped_state = np.take_along_axis(forward.states, stop[:, None, None], axis=1)[:, 0, :]
    xi = y + (stopped_state - base) @ z
    problem = BSDEProblem(
        generator=g,
        t_start=grid.t_start,
        t_end=grid.t_end,
        dimension_d=z.size,
        terminal=lambda s: xi,
    )
    anchor = base if on_base else None
    Y, _, telescoped, _ = _sweep(problem, forward, batch, config, stop, anchor)
    return Y[0], telescoped, frac_stopped


@dataclass(frozen=True)
class QuotientEstimate:
    """One quotient cell: window eps, M paths.

    per_path holds the conditional (regression-fitted) quotients used for
    L^p errors against the pathwise targets; raw holds the rescaled
    telescoped sums of the sweep (SolutionBatch.telescoped), whose spread
    measures the estimator's Monte Carlo noise.  Their generator values
    come from the implicit step, so raw differs from sums re-evaluated at
    the solved Y by at most picard_tol*L, L the local y-slope of g.
    """

    eps: float
    mean: float
    se: float
    per_path: np.ndarray
    raw: np.ndarray
    targets: np.ndarray
    frac_stopped: float


def representation_quotient(
    g: Generator,
    t: float,
    x,
    y: float,
    z,
    eps: float,
    config: ExperimentConfig,
    barrier: float = 1.0,
) -> QuotientEstimate:
    """Estimate the difference quotient of g at (t, x, y, z) over window eps.

    Builds the grid on [t, t+eps] (config.n_steps must keep dt <= eps/50),
    realizes the time-t state, and solves the stop-gated backward problem
    through _stopped_solve (the same path viscosity_touch_check takes), then
    rescales.  A state-dependent generator (g.state_dependent) is probed at
    the realized Brownian marginal anchored at x when t > 0, any other at x
    itself.  If the stop binds on more than 1% of paths a RuntimeWarning
    says the window is too wide for the barrier.  Inside a study
    (_one_draw) with the same config the window scales the study's draw.
    """
    if eps <= 0:
        raise ValidationError(f"eps must be > 0, got {eps}")
    if config.n_steps < MIN_STEPS_PER_EPS:
        raise ValidationError(
            f"need n_steps >= {MIN_STEPS_PER_EPS} per quotient window, got {config.n_steps}"
        )
    z = np.atleast_1d(np.asarray(z, dtype=float))
    d = z.size
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size == 1 and d > 1:
        x = np.full(d, x[0])
    if x.size != d:
        raise ValidationError(f"state anchor has size {x.size}, expected {d}")
    randomize_base = g.state_dependent and t > 0

    draws = _STUDY_DRAWS.get()
    if draws is None or draws.config != config:
        draws = _Draws(config)
    M = config.n_paths
    grid = TimeGrid(t, t + eps, config.n_steps)
    batch = draws.batch(grid, d)

    if randomize_base:
        base = x + np.sqrt(t) * draws.aux(d)
    else:
        base = np.broadcast_to(x, (M, d)).copy()

    states = batch.cumulative(start=base)
    y_t, telescoped, frac_stopped = _stopped_solve(
        g, ForwardBatch(grid=grid, states=states), batch, base, y, z, config, barrier,
        on_base=randomize_base,
    )

    per_path = (y_t - y) / eps
    raw = (telescoped - y) / eps

    targets = np.broadcast_to(
        np.asarray(g(t, base, np.full(M, float(y)), np.broadcast_to(z, (M, d))), dtype=float),
        (M,),
    )
    return QuotientEstimate(
        eps=float(eps),
        mean=float(per_path.mean()),
        se=_mean_se(raw),
        per_path=per_path,
        raw=raw,
        targets=np.asarray(targets, dtype=float).copy(),
        frac_stopped=frac_stopped,
    )


@dataclass(frozen=True)
class RepresentationReport:
    """Convergence study of the quotient along a decreasing window schedule."""

    t: float
    x: tuple
    y: float
    z: tuple
    eps_schedule: tuple
    quotient_means: tuple
    quotient_ses: tuple
    lp_errors: dict  # p -> error per eps
    lp_ses: dict  # p -> standard error of that estimate
    fitted_rate: float | None  # slope of log L1 error vs log eps; None if skipped
    target_mean: float
    errors_decreasing: bool
    frac_stopped: tuple


def _lp_error(q, targets, raw_se, p):
    v = np.abs(q - targets) ** p
    m = float(v.mean())
    err = m ** (1.0 / p)
    se_v = _mean_se(v)
    se = se_v / p * m ** (1.0 / p - 1.0) if m > 0 else se_v
    # the mean itself is uncertain even when the conditional quotient collapses
    return err, float(np.hypot(se, raw_se))


def convergence_study(
    g: Generator,
    t: float,
    x,
    y: float,
    z,
    eps_schedule,
    config: ExperimentConfig,
    barrier: float = 1.0,
) -> RepresentationReport:
    """Run representation_quotient along eps_schedule and fit the rate.

    The schedule must be strictly decreasing.  L^p errors (p in P_NORMS,
    i.e. 1 and 2) are computed pathwise against g evaluated at the
    realized time-t state.  A non-monotone L1 sequence beyond one combined
    standard error is reported via errors_decreasing=False, not raised: the
    caller decides whether that fails the run.  The rate fit is skipped when
    every error is statistically indistinguishable from zero.  The windows
    share one draw of the normals (_one_draw), and each cell equals a
    representation_quotient call made on its own.
    """
    eps_schedule = [float(e) for e in eps_schedule]
    if not eps_schedule:
        raise ValidationError("eps_schedule must be nonempty")
    if any(b >= a for a, b in zip(eps_schedule, eps_schedule[1:])):
        raise ValidationError("eps_schedule must be strictly decreasing")
    if eps_schedule[-1] <= 0:
        raise ValidationError("eps_schedule entries must be > 0")

    with _one_draw(config):
        cells = [
            representation_quotient(g, t, x, y, z, e, config, barrier=barrier)
            for e in eps_schedule
        ]
    lp_errors: dict[int, list] = {p: [] for p in P_NORMS}
    lp_ses: dict[int, list] = {p: [] for p in P_NORMS}
    for c in cells:
        raw_se = c.se
        for p in P_NORMS:
            err, se = _lp_error(c.per_path, c.targets, raw_se, p)
            lp_errors[p].append(err)
            lp_ses[p].append(se)

    p_lead = min(P_NORMS)
    lead = np.array(lp_errors[p_lead])
    lead_se = np.array(lp_ses[p_lead])
    # quotients divide by eps, so plain float dust sits at eps_machine/eps;
    # comparisons below that scale (or below the noise) carry no information
    dust = 1e-12 * (1.0 + abs(y)) / eps_schedule[-1]
    decreasing = all(
        lead[k + 1] <= lead[k] + np.hypot(lead_se[k], lead_se[k + 1]) + dust
        for k in range(len(lead) - 1)
    )

    if np.all(lead <= 3.0 * lead_se + dust) or np.any(lead <= 0.0):
        rate = None
    else:
        slope, _ = np.polyfit(np.log(eps_schedule), np.log(lead), 1)
        rate = float(slope)

    return RepresentationReport(
        t=float(t),
        x=tuple(np.atleast_1d(np.asarray(x, dtype=float))),
        y=float(y),
        z=tuple(np.atleast_1d(np.asarray(z, dtype=float))),
        eps_schedule=tuple(eps_schedule),
        quotient_means=tuple(c.mean for c in cells),
        quotient_ses=tuple(c.se for c in cells),
        lp_errors={p: tuple(v) for p, v in lp_errors.items()},
        lp_ses={p: tuple(v) for p, v in lp_ses.items()},
        fitted_rate=rate,
        target_mean=float(np.mean(cells[-1].targets)),
        errors_decreasing=bool(decreasing),
        frac_stopped=tuple(c.frac_stopped for c in cells),
    )


@dataclass(frozen=True)
class ConversePointRow:
    t: float
    x: tuple
    y: float
    z: tuple
    mean1: float
    mean2: float
    se_diff: float
    ordered: bool


@dataclass(frozen=True)
class ConverseReport:
    hypothesis_fraction: float
    rows: tuple
    all_ordered: bool


def converse_comparison_probe(
    g1: Generator,
    g2: Generator,
    points,
    eps: float,
    config: ExperimentConfig,
    barrier: float = 1.0,
    hypothesis_threshold: float = 0.999,
) -> ConverseReport:
    """Probe pointwise generator ordering from solution ordering.

    First verifies the forward hypothesis (solution ordering on sampled
    terminal data) via comparison_check; a failed ordering there, of the
    generators (its precondition) or of the solutions, raises
    HypothesisError, while a bad input stays a ValidationError.  Then, at each
    probe point, both quotients are estimated on common random numbers and
    declared ordered when mean1 >= mean2 - 3*SE(diff) - solver slack.
    The hypothesis check and every quotient share one draw of the normals
    (_one_draw), bitwise what separate draws would give.
    """
    if not points:
        raise ValidationError("need at least one probe point")
    t0, x0, y0, z0 = points[0]
    z0 = np.atleast_1d(np.asarray(z0, dtype=float))
    d = z0.size
    with _one_draw(config) as draws:
        grid = TimeGrid(t0, t0 + eps, config.n_steps)
        batch = draws.batch(grid, d)
        states = batch.cumulative(start=np.atleast_1d(np.asarray(x0, dtype=float)))
        forward = ForwardBatch(grid=grid, states=states)

        def terminal(s):
            return y0 + (s[:, -1, :] - s[:, 0, :]) @ z0

        template = BSDEProblem(
            generator=g1, t_start=t0, t_end=t0 + eps, dimension_d=d, terminal=terminal
        )
        cmp = comparison_check(g1, g2, template, forward, batch, config)
        if cmp.fraction < hypothesis_threshold:
            raise HypothesisError(
                f"solution ordering holds on only {100 * cmp.fraction:.3f}% of pairs"
            )

        rows = []
        slack_fp = 2.0 * config.n_steps * config.picard_tol / eps
        for t, x, y, z in points:
            q1 = representation_quotient(g1, t, x, y, z, eps, config, barrier=barrier)
            q2 = representation_quotient(g2, t, x, y, z, eps, config, barrier=barrier)
            diff_raw = q1.raw - q2.raw
            se = _mean_se(diff_raw)
            ordered = q1.mean >= q2.mean - 3.0 * se - slack_fp
            rows.append(
                ConversePointRow(
                    t=float(t),
                    x=tuple(np.atleast_1d(np.asarray(x, dtype=float))),
                    y=float(y),
                    z=tuple(np.atleast_1d(np.asarray(z, dtype=float))),
                    mean1=q1.mean,
                    mean2=q2.mean,
                    se_diff=se,
                    ordered=bool(ordered),
                )
            )
    return ConverseReport(
        hypothesis_fraction=cmp.fraction,
        rows=tuple(rows),
        all_ordered=all(r.ordered for r in rows),
    )
