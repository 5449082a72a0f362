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
set: the path itself, (N+1)*M*d doubles, is never stored.  The converse
probe's hypothesis check reads its draw the same way, through one window.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import _INDEX, ExperimentConfig, Generator, _mean_se, _require_le
from .errors import HypothesisError, ValidationError
from .paths import TimeGrid, WindowStack, sample_brownian, stopping_indices
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


def _stopped_solve(g, windows, y, z, config, barrier, anchor=None, stacklevel=4):
    """Solve the stop-gated windows of one stack, g switched off from tau on.

    One stopping_indices pass over the stack gives every window's tau and
    its displacement X_tau - X_t on its own states, and window w's
    terminal is y + <z, X_tau - X_t>: the K terminals are one product of
    the (K, M, n) displacements with z, plus y in place.  A stop that binds
    on more than 1% of a window's paths warns, stacklevel frames up, that
    the window is too wide for the barrier.  The windows are then swept in
    lockstep (_sweep), without history, regressing on the stack's shared
    path or, with an (M, d) anchor, on (anchor, path) pairs, the anchor's
    rows built once.  With two or more windows the stop pass and each
    step's implicit steps run the windows side by side on a pool of one
    worker per usable CPU, so g is called from several threads at once and
    must be pure; every output byte is the one a serial run gives.
    Returns (Y_t, telescoped sums, fraction of stopped paths), each with
    one row or entry per window.
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
                stacklevel=stacklevel,
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
    telescoped sums of the sweep, whose spread measures the estimator's
    Monte Carlo noise (SolutionBatch.telescoped says how close their
    generator values are to g at the solved Y).  targets, g at the
    realized time-t state, is one read-only array per study.
    """

    eps: float
    mean: float
    se: float
    per_path: np.ndarray
    raw: np.ndarray
    targets: np.ndarray
    frac_stopped: float


def _probe_rule(t, x, y, z, eps_schedule, config):
    """t and y as floats, x and z as float d-vectors, d = z.size, a
    one-entry x spread over d, and eps_schedule as floats, each checked
    before any draw: a bad one, a t or an eps that is not finite and >= 0
    (eps > 0) or a non-finite entry of x, y or z included, raises
    ValidationError."""
    t = float(t)
    # negated >= also refuses NaN
    if not (t >= 0 and math.isfinite(t)):
        raise ValidationError(f"t must be finite and >= 0, got {t}")
    eps_schedule = [float(e) for e in eps_schedule]
    if not eps_schedule:
        raise ValidationError("eps_schedule must be nonempty")
    for eps in eps_schedule:
        if not (eps > 0 and math.isfinite(eps)):
            raise ValidationError(f"eps must be finite and > 0, got {eps}")
    if any(b >= a for a, b in zip(eps_schedule, eps_schedule[1:])):
        raise ValidationError("eps_schedule must be strictly decreasing")
    if config.n_steps < MIN_STEPS_PER_EPS:
        raise ValidationError(
            f"need n_steps >= {MIN_STEPS_PER_EPS} per quotient window, got {config.n_steps}"
        )
    z = np.atleast_1d(np.asarray(z, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size == 1:
        x = np.full(z.size, x[0])
    if x.size != z.size:
        raise ValidationError(f"state anchor has size {x.size}, expected {z.size}")
    y = float(y)
    for name, v in (("x", x), ("y", y), ("z", z)):
        if not np.all(np.isfinite(v)):
            raise ValidationError(f"{name} must be finite, got {v}")
    return t, x, y, z, eps_schedule


def _quotient_cells(g, t, x, y, z, eps_schedule, config, barrier, draw=None):
    """One QuotientEstimate per window eps, all windows solved in lockstep.

    t, x, y, z and eps_schedule are _probe_rule's output.  Every window spans
    config.n_steps steps from t and scales one unit draw (_draw, or the
    caller's draw for the same config and d) by its own sqrt(dt); their
    states share the base, the realized time-t state.  The stack holds
    the draw's path only at its checkpoint rows (WindowStack.from_draw),
    so no cumulative() path is built.  A state-dependent generator
    (g.state_dependent) at t > 0 is probed at the Brownian marginal
    anchored at x, base = x + sqrt(t)*aux, and the regression conditions
    on (base, path) pairs; any other keeps base = x, and at t > 0 its g
    at the realized state must equal its g at x on every path, bit for
    bit, or HypothesisError names the first path that differs, before the
    stop pass.
    """
    d = z.size
    randomize_base = g.state_dependent and t > 0

    unit, aux = draw if draw is not None else _draw(config, d)
    M = config.n_paths
    y_M, z_M = np.full(M, y), np.broadcast_to(z, (M, d))
    base = np.broadcast_to(x, (M, d)).copy()
    if t > 0:
        realized = x + np.sqrt(t) * aux
        if randomize_base:
            base = realized
        else:
            # a driver declared state-free must not see the realized state
            gap = np.abs(g(t, realized, y_M, z_M) - g(t, base, y_M, z_M))
            message = f"{g.name}: g declared state-free differs between the realized state and x"
            _require_le(gap, 0.0, HypothesisError, message, path=_INDEX, state=realized)
    grids = [TimeGrid(t, t + eps, config.n_steps) for eps in eps_schedule]
    windows = WindowStack.from_draw(grids, unit.increments, base)
    y_t, telescoped, frac_stopped = _stopped_solve(
        g, windows, y, z, config, barrier, anchor=base if randomize_base else None
    )

    # one read-only view the cells share
    targets = g(t, base, y_M, z_M).view()
    targets.flags.writeable = False
    cells = []
    for eps, y_w, tele_w, frac in zip(eps_schedule, y_t, telescoped, frac_stopped):
        per_path = (y_w - y) / eps
        raw = (tele_w - y) / eps
        cells.append(
            QuotientEstimate(
                eps=eps,
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

    Checks the point (_probe_rule; config.n_steps must keep dt <= eps/50),
    builds the grid on [t, t+eps], realizes the time-t state, and solves
    the stop-gated backward problem through _stopped_solve (the same path
    viscosity_touch_check takes), then rescales.  A state-dependent
    generator (g.state_dependent) is probed at the realized Brownian
    marginal anchored at x when t > 0, any other at x itself.  A stop that
    binds on more than 1% of paths warns (RuntimeWarning) that the window
    is too wide for the barrier.  The window is a stack of one (K = 1) on
    its own unit draw; a convergence_study window with the same config
    differs from it only by the rounding of the wider fit.
    """
    t, x, y, z, windows = _probe_rule(t, x, y, z, [eps], config)
    return _quotient_cells(g, t, x, y, z, windows, config, barrier)[0]


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

    The schedule must be strictly decreasing and > 0 (_probe_rule), and
    the report's x and z are the d-vectors the solve used.  L^p errors (p
    in P_NORMS, i.e. 1 and 2) are computed pathwise against g evaluated at
    the realized time-t state.  A non-monotone L1 sequence beyond one combined
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
    t, x, y, z, eps_schedule = _probe_rule(t, x, y, z, eps_schedule, config)
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
        t=t,
        x=tuple(x.tolist()),
        y=y,
        z=tuple(z.tolist()),
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
    Every point passes _probe_rule, its z of the first point's size, before
    anything is drawn or swept, and its row carries the d-vector x and z
    used.  hypothesis_threshold, the least fraction of ordered pairs, must
    lie in (0, 1]: NaN would switch the ordering gate off and a value above
    1 would fail every check.  The probe draws its normals once (_draw) and
    reads them one way, as stacks of one window (K = 1), so no whole path
    is built: the hypothesis check's on [t0, t0 + eps] from x0, with
    terminals y0 + <z0, X_N - X_t0>, and every quotient's, bitwise what a
    representation_quotient call gives.
    """
    if not points:
        raise ValidationError("need at least one probe point")
    # negated comparisons also refuse NaN
    if not (0 < hypothesis_threshold <= 1):
        raise ValidationError(
            f"hypothesis_threshold must lie in (0, 1], got {hypothesis_threshold}"
        )
    d = np.size(points[0][3])
    probes = []
    for t, x, y, z in points:
        if np.size(z) != d:
            raise ValidationError(f"every probe z must have size {d}, got {np.size(z)}")
        t, x, y, z, (eps,) = _probe_rule(t, x, y, z, [eps], config)
        probes.append((t, x, y, z))
    t0, x0, y0, z0 = probes[0]
    draw = _draw(config, d)
    grid = TimeGrid(t0, t0 + eps, config.n_steps)
    base = np.broadcast_to(x0, (config.n_paths, d))
    window = WindowStack.from_draw([grid], draw[0].increments, base)
    *_, w_end = window.rows()  # the draw's path at node N
    terminals = window.displacement(0, w_end, np.empty_like(base)) @ z0 + y0
    cmp = comparison_check(g1, g2, window, terminals, config)
    if cmp.fraction < hypothesis_threshold:
        raise HypothesisError(
            f"solution ordering holds on only {100 * cmp.fraction:.3f}% of pairs"
        )

    rows = []
    slack_fp = 2.0 * config.n_steps * config.picard_tol / eps
    for t, x, y, z in probes:
        (q1,) = _quotient_cells(g1, t, x, y, z, [eps], config, barrier, draw)
        (q2,) = _quotient_cells(g2, t, x, y, z, [eps], config, barrier, draw)
        diff_raw = q1.raw - q2.raw
        se = _mean_se(diff_raw)
        ordered = q1.mean >= q2.mean - 3.0 * se - slack_fp
        rows.append(
            ConversePointRow(
                t=t,
                x=tuple(x.tolist()),
                y=y,
                z=tuple(z.tolist()),
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
