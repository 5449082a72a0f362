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

The windows of one study scale one unit-step draw
(paths.WindowStack.from_draw), so a study's memory is the draw, N*M*d
doubles, plus about 2*sqrt(N+1) rows of its path and a per-step working
set: the path itself, (N+1)*M*d doubles, is never stored.  Only the
converse probe's hypothesis check, which needs every step's states,
builds a whole path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import BSDEProblem, ExperimentConfig, Generator, _mean_se
from .errors import HypothesisError, ValidationError
from .paths import ForwardBatch, TimeGrid, WindowStack, sample_brownian, stopping_indices
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


def _draw(config: ExperimentConfig, d: int):
    """The normals of one study: (unit, aux).

    unit is the study's Brownian draw on unit steps, sample_brownian on a
    grid of config.n_steps steps with dt = 1, so its increments are the
    normals themselves and any window of that many steps scales them by
    its own sqrt(dt) (WindowStack).  aux holds the (M, d) base normals of
    the time-t state, which a randomized anchor reads; aux has its own
    Philox stream, so drawing it leaves unit unchanged whatever the driver.
    """
    n = config.n_steps
    unit = sample_brownian(TimeGrid(0.0, float(n), n), config.n_paths, d, config.seed)
    return unit, _aux_normals(config.seed, (config.n_paths, d))


def _stopped_solve(g, windows, y, z, config, barrier, anchor=None):
    """Solve the stop-gated windows of one stack, g switched off from tau on.

    One stopping_indices pass over the stack gives every window's tau and
    its displacement X_tau - X_t on its own states, and window w's
    terminal is y + <z, X_tau - X_t>: the K terminals are one product of
    the (K, M, n) displacements with z, plus y in place.  A stop that binds
    on more than 1% of a window's paths warns that the window is too wide
    for the barrier.  The windows are then swept in lockstep
    (_sweep), without history, regressing on the stack's shared path or,
    with an (M, d) anchor, on (anchor, path) pairs, the anchor's rows built
    once.  With two or more windows the stop pass and each step's implicit
    steps run the windows side by side on a pool of one worker per usable
    CPU, so g is called from several threads at once and must be pure;
    every output byte is the one a serial run gives.  Returns (Y_t,
    telescoped sums, fraction of stopped paths), each with one row or
    entry per window.
    """
    moved = np.empty((len(windows.grids), windows.steps.shape[1], windows.dim))
    stop = stopping_indices(windows, g, barrier=barrier, displacement=moved)
    frac_stopped = np.mean(stop < windows.steps.shape[0], axis=1)
    for grid, frac in zip(windows.grids, frac_stopped):
        if frac > 0.01:
            warnings.warn(
                f"stopping index binds on {100 * frac:.2f}% of paths on "
                f"[{grid.t_start}, {grid.t_end}]; quotient window too wide for the barrier",
                RuntimeWarning,
                stacklevel=4,
            )
    xi = moved @ z
    xi += y
    Y, _, telescoped, _ = _sweep(g, xi, windows, config, stop, anchor)
    return Y[:, 0], telescoped, frac_stopped


@dataclass(frozen=True)
class QuotientEstimate:
    """One quotient cell: window eps, M paths.

    per_path holds the conditional (regression-fitted) quotients used for
    L^p errors against the pathwise targets; raw holds the rescaled
    telescoped sums of the sweep (SolutionBatch.telescoped), whose spread
    measures the estimator's Monte Carlo noise.  Their generator values
    come from the implicit step: g at the solved Y by the affine identity,
    up to rounding, for a driver that declares y_slope; otherwise raw
    differs from sums re-evaluated at the solved Y by at most
    picard_tol*L, L the local y-slope of g.
    targets, g at the realized time-t state, is one read-only array per study.
    """

    eps: float
    mean: float
    se: float
    per_path: np.ndarray
    raw: np.ndarray
    targets: np.ndarray
    frac_stopped: float


def _quotient_cells(g, t, x, y, z, eps_schedule, config, barrier, draw=None):
    """One QuotientEstimate per window eps, all windows solved in lockstep.

    Every window spans config.n_steps steps from t and scales one unit
    draw (_draw, or the caller's draw for the same config and d) by its
    own sqrt(dt); their states share the base, the realized time-t state.
    The stack holds the draw's path only at its checkpoint rows
    (WindowStack.from_draw), so no cumulative() path is built.
    A state-dependent generator (g.state_dependent) at t > 0 is probed at
    the Brownian marginal anchored at x, base = x + sqrt(t)*aux, and the
    regression conditions on (base, path) pairs; any other keeps base = x.
    """
    for eps in eps_schedule:
        if not eps > 0:
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

    unit, aux = draw if draw is not None else _draw(config, d)
    M = config.n_paths
    if randomize_base:
        base = x + np.sqrt(t) * aux
    else:
        base = np.broadcast_to(x, (M, d)).copy()
    grids = [TimeGrid(t, t + eps, config.n_steps) for eps in eps_schedule]
    windows = WindowStack.from_draw(grids, unit.increments, base)
    y_t, telescoped, frac_stopped = _stopped_solve(
        g, windows, y, z, config, barrier, anchor=base if randomize_base else None
    )

    targets = np.broadcast_to(
        np.asarray(g(t, base, np.full(M, float(y)), np.broadcast_to(z, (M, d))), dtype=float),
        (M,),
    )
    cells = []
    for eps, y_w, tele_w, frac in zip(eps_schedule, y_t, telescoped, frac_stopped):
        per_path = (y_w - y) / eps
        raw = (tele_w - y) / eps
        cells.append(
            QuotientEstimate(
                eps=float(eps),
                mean=float(per_path.mean()),
                se=_mean_se(raw),
                per_path=per_path,
                raw=raw,
                targets=targets,
                frac_stopped=float(frac),
            )
        )
    return cells


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
    says the window is too wide for the barrier.  The window is a stack of
    one (K = 1) on its own unit draw; a convergence_study window with the
    same config differs from it only by the rounding of the wider fit.
    """
    return _quotient_cells(g, t, x, y, z, [eps], config, barrier)[0]


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

    The schedule must be strictly decreasing, and _quotient_cells refuses
    an eps that is not > 0, NaN included.  L^p errors (p in P_NORMS,
    i.e. 1 and 2) are computed pathwise against g evaluated at the
    realized time-t state.  A non-monotone L1 sequence beyond one combined
    standard error is reported via errors_decreasing=False, not raised: the
    caller decides whether that fails the run.  The rate fit is skipped when
    every error is statistically indistinguishable from zero.

    The windows are solved in lockstep (_quotient_cells): one unit draw of
    the normals, one stop pass and one backward sweep for the whole
    schedule.  Each step builds one design and fits every window's targets
    in one least-squares solve, while the implicit step, the stop and the
    terminal stay per window.  A window's stop is the one a
    representation_quotient call gives, bit for bit; its other fields
    match that call to the rounding of the wider fit.  The windows' stop
    passes and implicit steps run side by side, one worker per usable CPU
    and window, so g is called from several threads at once and must keep
    no mutable state; the report's bytes do not depend on the CPU count.
    """
    eps_schedule = [float(e) for e in eps_schedule]
    if not eps_schedule:
        raise ValidationError("eps_schedule must be nonempty")
    if any(b >= a for a, b in zip(eps_schedule, eps_schedule[1:])):
        raise ValidationError("eps_schedule must be strictly decreasing")

    cells = _quotient_cells(g, t, x, y, z, eps_schedule, config, barrier)
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
    The probe draws its normals once (_draw): the hypothesis check runs on
    them scaled to its window, and every quotient is a stack of one
    (K = 1) on them, bitwise what a representation_quotient call gives.
    Every point's z must have the size of the first point's, and
    hypothesis_threshold, the least fraction of ordered pairs, must lie in
    (0, 1]: NaN would switch the ordering gate off and a value above 1
    would fail every check.
    """
    if not points:
        raise ValidationError("need at least one probe point")
    # negated comparisons also refuse NaN
    if not (0 < hypothesis_threshold <= 1):
        raise ValidationError(
            f"hypothesis_threshold must lie in (0, 1], got {hypothesis_threshold}"
        )
    t0, x0, y0, z0 = points[0]
    z0 = np.atleast_1d(np.asarray(z0, dtype=float))
    d = z0.size
    for _, _, _, z in points:
        if np.size(z) != d:
            raise ValidationError(f"every probe z must have size {d}, got {np.size(z)}")
    draw = _draw(config, d)
    unit = draw[0]
    grid = TimeGrid(t0, t0 + eps, config.n_steps)
    # the product keeps the time-major layout of the unit increments
    batch = replace(unit, grid=grid, increments=unit.increments * np.sqrt(grid.dt))
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
        (q1,) = _quotient_cells(g1, t, x, y, z, [eps], config, barrier, draw)
        (q2,) = _quotient_cells(g2, t, x, y, z, [eps], config, barrier, draw)
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
