"""Least-squares Monte Carlo solver for scalar backward equations.

Backward recursion on a path batch: at each step the conditional expectation
of the next value and the z-component are estimated by a global polynomial
regression on the current state, then the implicit one-step equation
y = E_i[Y_{i+1}] + g(t_i, x_i, y, z_i)*dt is solved pathwise by a safeguarded
secant iteration, falling back to bisection where the iteration fails.  The
implicit step is used because the generator is only assumed monotone in y;
the map y - g*dt is strictly increasing whenever dt times the local slope
stays below 1, so its secant slopes are positive (a non-positive or
non-finite one falls back to the damped fixed-point step) and bisection
brackets its root.

The regression at each step projects the targets onto the span of the
design through the eigendecomposition of its Gram matrix, plus one step of
iterative refinement so that the squared condition number of the normal
equations does not reach the fit; a design whose condition number exceeds
1e4 (GRAM_CUTOFF on the eigenvalues) is fitted by an SVD least squares
solve instead, and such steps are counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import BSDEProblem, ExperimentConfig, Generator, _sample_sd
from .errors import HypothesisError, NumericalError, PicardError, ValidationError
from .paths import BrownianBatch, ForwardBatch, _time_major

# Relative singular-value cutoff: directions of the basis below it are
# projected out, which degrades the fit gracefully (constant states collapse
# to the sample mean) instead of amplifying noise.
RCOND = 1e-10
# Relative eigenvalue floor of the Gram matrix X'X, i.e. cond(X) <= 1e4.
# Eigenvalues carry an absolute error of about eps*w_max, so below
# sqrt(eps)*sigma_max they cannot resolve singular values and RCOND cannot
# be applied to them; such a design goes to the SVD fallback instead.
GRAM_CUTOFF = 1e-8


def polynomial_design(states: np.ndarray, degree: int) -> np.ndarray:
    """Design matrix [1, s_j, s_j^2, ...] with per-coordinate standardization.

    states has shape (M, k); the result has shape (M, 1 + k*degree).
    Coordinates are shifted/scaled to unit spread before taking powers, which
    keeps the conditioning of the normal equations independent of the
    state's location and scale; the spanned polynomial space is unchanged.
    Degenerate (constant) coordinates become zero columns, which _fit drops.
    The matrix is built in one (p, M) buffer and returned as its transpose,
    so every column is contiguous; each coordinate is read once.
    """
    M, k = states.shape
    buf = np.empty((1 + k * degree, M))
    buf[0] = 1.0
    for j in range(k if degree else 0):
        s = np.ascontiguousarray(states[:, j])
        mu = s.mean()
        sd = s.std()
        rows = buf[1 + j * degree : 1 + (j + 1) * degree]
        # a spread at the level of float cancellation noise is a constant
        # column; standardizing it would inject a junk direction
        if sd <= 1e-12 * max(1.0, abs(mu)):
            rows[:] = 0.0
            continue
        np.subtract(s, mu, out=rows[0])
        np.divide(rows[0], sd, out=rows[0])
        for r in range(1, degree):
            np.multiply(rows[r - 1], rows[0], out=rows[r])
    return buf.T


def _step_designs(x: np.ndarray, degree: int, anchor: np.ndarray | None):
    """Yield (i, design) for steps i = N-1, ..., 0 of time-major states x.

    Without an anchor each design is polynomial_design(x[i]).  With an
    (M, n) anchor the design of step i is
    polynomial_design([anchor, x[i] - anchor]) bit for bit, since each
    column's rows are built on their own: one (p, M) buffer takes
    polynomial_design(anchor)'s rows once, and each step subtracts x[i]
    into one reused (M, n) scratch and copies the power rows of its design
    in behind them.  Every build goes through the module's
    polynomial_design.  A design is valid until the next one is drawn.
    """
    n_steps = x.shape[0] - 1
    if anchor is None:
        for i in range(n_steps - 1, -1, -1):
            yield i, polynomial_design(x[i], degree)
        return
    M, k = anchor.shape
    split = 1 + k * degree
    buf = np.empty((split + x.shape[2] * degree, M))
    buf[:split] = polynomial_design(anchor, degree).T
    moved = np.empty(x.shape[1:])
    for i in range(n_steps - 1, -1, -1):
        np.subtract(x[i], anchor, out=moved)
        buf[split:] = polynomial_design(moved, degree).T[1:]
        yield i, buf.T


def _fit(design: np.ndarray, targets: np.ndarray):
    """Least squares fit; returns (fitted, coeffs, cond, rank, fell_back).

    Solves the normal equations through an eigendecomposition of the Gram
    matrix G = X'X restricted to its nonzero columns, then takes one step
    of iterative refinement from the same factorization (semi-normal
    equations): forming G squares cond(X), and the refinement step brings
    the error back to what a QR or SVD solve gives.  Zero columns get
    coefficient 0, as the minimum-norm solution gives them; rank is the
    number of nonzero columns and cond = sqrt(w_max/w_min).  Where no
    column is nonzero or w_min <= GRAM_CUTOFF*w_max, the fit falls back to
    np.linalg.lstsq with RCOND and fell_back is True.

    design is (M, p) and targets (M, q).  The residual and the fitted
    values are formed time-major, as coef' @ design' of shape (q, M), and
    fitted is returned as its (M, q) transpose: with design the transpose
    of a (p, M) buffer, as polynomial_design builds it, and targets the
    transpose of a (q, M) one, as solve_bsde passes them, every product
    reads and writes contiguous rows.
    """
    gram = design.T @ design
    active = np.flatnonzero(np.diag(gram))
    if active.size:
        w, V = np.linalg.eigh(gram[np.ix_(active, active)])
    # negated > also sends a NaN spectrum to the fallback
    if not active.size or not w[0] > GRAM_CUTOFF * w[-1]:
        coef, _, rank, sv = np.linalg.lstsq(design, targets, rcond=RCOND)
        cond = float(sv[0] / sv[rank - 1]) if rank > 0 else np.inf
        return design @ coef, coef, cond, rank, True

    def solve(rhs):
        return V @ ((V.T @ rhs[active]) / w[:, None])

    coef = np.zeros((design.shape[1], targets.shape[1]))
    coef[active] = solve(design.T @ targets)
    resid = coef.T @ design.T
    np.subtract(targets.T, resid, out=resid)
    coef[active] += solve(design.T @ resid.T)
    cond = float(np.sqrt(w[-1] / w[0]))
    return (coef.T @ design.T).T, coef, cond, int(active.size), False


@dataclass
class SolutionBatch:
    """Pathwise solution estimates plus regression diagnostics.

    Y has shape (M, N+1) with Y[:, N] equal to the terminal values exactly;
    Z has shape (M, N, d).  Both are transposed views of time-major
    buffers, (N+1, M) and (N, M, d), that the sweep writes row by row.
    Only solve_bsde returns one: its callers (the CLI solve table,
    comparison_check) read every step, and each step regresses on the
    forward state.  The quotient and Feynman-Kac estimators need only
    Y[:, 0] and telescoped, and their sweep (_sweep, with the quotient's
    (anchor, X - anchor) regression) keeps no history.
    telescoped, shape (M,), is the pathwise sum
    xi + sum_i g(t_i, X_i, Y_i, Z_i)*dt_eff accumulated during the sweep:
    its mean matches Y[:, 0] (least squares preserves target means) and its
    spread is the estimator's Monte Carlo noise.  Each g value is the last
    one the implicit step evaluated, at an iterate within picard_tol of
    Y_i, so the sum differs from one re-evaluated at the solved Y by at
    most picard_tol*L*(t_end - t_start), L the local y-slope of g.
    diagnostics carries per-step arrays of regression condition numbers
    (cond), basis ranks (rank), implicit-step iteration counts
    (picard_iters), bisection-fallback path counts (bisection_paths) and
    regression steps that fell back from the Gram projector to lstsq
    (regression_fallbacks, 0 or 1 each).
    """

    Y: np.ndarray
    Z: np.ndarray
    telescoped: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def _picard_step(g, t_i, x_i, base, z_i, dt_eff, config):
    """Solve y = base + g(t_i, x_i, y, z_i)*dt_eff pathwise.

    Secant iteration on F(y) = y - base - g(y)*dt_eff from y0 = base, whose
    first step is the undamped fixed-point step y1 = base + g(base)*dt_eff.
    Where a secant slope is not finite or not positive the damped step
    (slope 2, i.e. y + (base + g*dt_eff - y)/2) is taken instead.  The
    iteration stops once every path moves by at most picard_tol, measured
    as the change of y after rounding; an affine driver needs three
    evaluations.  Paths still unconverged after picard_max evaluations are
    finished by bisection, which stops a path at width picard_tol or where
    its bracket is two adjacent doubles.  Returns (y, iters, n_fallback,
    gv), gv the generator value of the last evaluation: at the iterate
    before y when the iteration converged, at y itself otherwise.
    """
    tol = config.picard_tol
    y = base
    f_prev = dy = None
    scratch = np.empty(np.shape(base))
    iters = 0
    for _ in range(config.picard_max):
        gv = np.asarray(g(t_i, x_i, y, z_i), dtype=float)
        f = y - base
        f -= np.multiply(gv, dt_eff, out=scratch)
        iters += 1
        # y_next = y + (-f/s) is computed as y - f/s, bitwise the same
        if f_prev is None:
            quot = f
        else:
            # f_prev becomes the secant slope s
            with np.errstate(divide="ignore", invalid="ignore"):
                s = np.subtract(f, f_prev, out=f_prev)
                np.divide(s, dy, out=s)
            np.copyto(s, 2.0, where=~((s > 0) & (s < np.inf)))
            quot = np.divide(f, s, out=scratch)
        # the step as taken: one that rounds away leaves y converged
        y_next = y - quot
        dy = np.subtract(y_next, y, out=dy)
        y, f_prev = y_next, f
        # NaN propagates through min and max and fails the test
        if max(-dy.min(), dy.max()) <= tol:
            return y, iters, 0, gv

    gv = np.asarray(g(t_i, x_i, y, z_i), dtype=float)
    resid = y - base - gv * dt_eff
    # negated <= keeps NaN residuals (diverged iterates) in the bad set
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
        m = int(idx[0])
        raise PicardError(
            f"no bisection bracket at step t={t_i}, path {m}, residual={resid[m]:.3e}"
        )

    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        neg = (fm < 0) == (flo < 0)
        lo = np.where(neg, mid, lo)
        flo = np.where(neg, fm, flo)
        hi = np.where(neg, hi, mid)
        # a path is settled at width tol, or where lo and hi are adjacent
        # doubles (their spacing exceeds tol once |y| >~ 1e6), so the
        # midpoint rounds onto an endpoint and bisection cannot move
        mid = 0.5 * (lo + hi)
        if np.all((hi - lo <= tol) | (mid == lo) | (mid == hi)):
            break
    else:
        m = int(idx[int(np.argmax(hi - lo))])
        raise PicardError(
            f"bisection stalled at step t={t_i}, path {m}, width={np.max(hi - lo):.3e}"
        )
    y[idx] = mid
    gv = np.array(np.broadcast_to(gv, y.shape))
    gv[idx] = np.asarray(g(t_i, xb, y[idx], zb), dtype=float)
    return y, iters, int(idx.size), gv


def solve_bsde(
    problem: BSDEProblem,
    forward: ForwardBatch,
    brownian: BrownianBatch,
    config: ExperimentConfig,
    stop_indices: np.ndarray | None = None,
) -> SolutionBatch:
    """Backward least-squares Monte Carlo sweep over the batch, with history.

    Per step i (from the terminal inward): regress Y_{i+1}*dB_i/dt on the
    basis of the forward state X_i for the z-estimate, regress Y_{i+1} for
    the conditional mean, then solve the implicit y-equation pathwise.
    When stop_indices is given, the generator contribution of path m is
    switched off from that index on (dt_eff = 0), which realizes a
    generator truncated at a stopping time; the terminal values must
    already incorporate the stop.  A non-finite y, z row or generator
    value raises NumericalError naming the step and the first such path.

    The sweep reads increments and states time-major, one contiguous row
    per step: the batches built by this package are transposed views and
    are read in place, while a caller-built path-major array is copied
    once per call.  The regression is time-major too: the targets are
    written into one (1+d, M) buffer per call, and _fit returns the fitted
    values as the transpose of a (1+d, M) product, so the conditional mean
    and each z-coordinate are read as contiguous rows.

    This is the variant that keeps every step's Y and Z, which the CLI
    solve table and comparison_check read.  The quotient and Feynman-Kac
    estimators read only the initial row and the telescoped sums, and run
    the same loop through _sweep without the history, in O(M) memory.
    """
    Y, Z, telescoped, diagnostics = _sweep(
        problem, forward, brownian, config, stop_indices, history=True
    )
    return SolutionBatch(
        Y=Y.T, Z=np.swapaxes(Z, 0, 1), telescoped=telescoped, diagnostics=diagnostics
    )


def _sweep(
    problem: BSDEProblem,
    forward: ForwardBatch,
    brownian: BrownianBatch,
    config: ExperimentConfig,
    stop_indices: np.ndarray | None = None,
    anchor: np.ndarray | None = None,
    history: bool = False,
):
    """The backward loop of solve_bsde; returns (Y, Z, telescoped, diagnostics).

    Y and Z are time-major.  With history they hold every step, (N+1, M)
    and (N, M, d); without it step i writes row i % 2 of a (2, M) Y and the
    one row of a (1, M, d) Z, all the next step reads, so Y[0] is the
    initial row either way.  Step i regresses on the forward state X_i, or,
    with an (M, n) anchor, on the pair (anchor, X_i - anchor), the anchor's
    rows built once (_step_designs).
    """
    M, n_steps, d = brownian.increments.shape
    if problem.dimension_d != d:
        raise ValidationError(
            f"problem.dimension_d={problem.dimension_d} but batch has d={d}"
        )
    if forward.states.shape[0] != M or forward.states.shape[1] != n_steps + 1:
        raise ValidationError(
            f"forward states shaped {forward.states.shape}, expected ({M}, {n_steps + 1}, n)"
        )
    grid = forward.grid
    if abs(grid.t_start - problem.t_start) > 1e-12 or abs(grid.t_end - problem.t_end) > 1e-12:
        raise ValidationError("forward grid does not span the problem horizon")
    if stop_indices is not None:
        stop_indices = np.asarray(stop_indices)
        if stop_indices.shape != (M,):
            raise ValidationError(f"stop_indices must have shape ({M},)")

    # an overflow is reported below with its path
    with np.errstate(over="ignore", invalid="ignore"):
        xi = np.asarray(problem.terminal(forward.states), dtype=float)
    if xi.shape != (M,):
        raise ValidationError(f"terminal returned shape {xi.shape}, expected ({M},)")
    if not np.all(np.isfinite(xi)):
        raise NumericalError(
            f"non-finite terminal value at path {int(np.argmax(~np.isfinite(xi)))}"
        )

    x = _time_major(forward.states)
    incr = _time_major(brownian.increments)
    g = problem.generator
    dt = grid.dt
    times = grid.times()
    Y = np.empty((n_steps + 1 if history else 2, M))
    Z = np.empty((n_steps if history else 1, M, d))
    Y[n_steps % len(Y)] = xi
    telescoped = xi.copy()
    cond = np.empty(n_steps)
    rank = np.empty(n_steps, dtype=int)
    picard_iters = np.empty(n_steps, dtype=int)
    bisections = np.zeros(n_steps, dtype=int)
    lstsq_fallbacks = np.zeros(n_steps, dtype=int)

    # regression targets [Y_{i+1}; Y_{i+1}*dB_i/dt], one row each
    targets = np.empty((1 + d, M))

    for i, design in _step_designs(x, config.basis_degree, anchor):
        y_next = Y[(i + 1) % len(Y)]
        z = Z[i % len(Z)]
        targets[0] = y_next
        np.multiply(y_next, incr[i].T, out=targets[1:])
        np.divide(targets[1:], dt, out=targets[1:])
        fitted, _, cnd, rnk, fell_back = _fit(design, targets.T)
        fitted = fitted.T
        ey = fitted[0]
        z[:] = fitted[1:].T

        if stop_indices is None:
            dt_eff = dt
        else:
            dt_eff = np.where(i < stop_indices, dt, 0.0)

        y, iters, nfb, gv = _picard_step(g, times[i], x[i], ey, z, dt_eff, config)
        # bisection can settle a finite y where g is NaN, so the generator
        # values are checked too
        finite = np.isfinite(y)
        finite &= np.isfinite(gv)
        finite &= np.isfinite(z).all(axis=1)
        if not finite.all():
            m = int(np.argmin(finite))
            raise NumericalError(
                f"non-finite value at step {i}, path {m}: "
                f"y={y[m]}, g={np.broadcast_to(gv, (M,))[m]}, max|z|={np.abs(z[m]).max()}"
            )
        Y[i % len(Y)] = y
        telescoped += gv * dt_eff
        cond[i] = cnd
        rank[i] = rnk
        picard_iters[i] = iters
        bisections[i] = nfb
        lstsq_fallbacks[i] = fell_back

    return Y, Z, telescoped, {
        "cond": cond,
        "rank": rank,
        "picard_iters": picard_iters,
        "bisection_paths": bisections,
        "regression_fallbacks": lstsq_fallbacks,
    }


@dataclass(frozen=True)
class ComparisonReport:
    """Pathwise solution-ordering outcome for two generators on shared noise.

    fraction is the share of (path, step) pairs with Y1 >= Y2 - slack;
    generator_gap_min is the min of g1 - g2 over the sampled tuples.
    """

    fraction: float
    generator_gap_min: float


def comparison_check(
    g1: Generator,
    g2: Generator,
    problem_template: BSDEProblem,
    forward: ForwardBatch,
    brownian: BrownianBatch,
    config: ExperimentConfig,
) -> ComparisonReport:
    """Verify Y1 >= Y2 pathwise after confirming g1 >= g2 on sampled tuples.

    The generator ordering is a precondition: if the sampled minimum of
    g1 - g2 is negative beyond float noise the check raises HypothesisError
    rather than reporting a comparison failure.  Both problems are then
    solved on the same paths, and the fraction of (path, step) pairs with
    Y1 >= Y2 - slack is reported.  The slack combines the accumulated
    implicit-step tolerance with 3 regression standard errors of the fitted
    difference.  The ordering is sampled on 4096 tuples.
    """
    n_precheck = 4096
    rng = np.random.default_rng(config.seed)
    n = forward.states.shape[2]
    d = brownian.increments.shape[2]
    ts = rng.uniform(problem_template.t_start, problem_template.t_end, n_precheck)
    lo = forward.states.min(axis=(0, 1))
    hi = forward.states.max(axis=(0, 1))
    xs = rng.uniform(lo, hi, (n_precheck, n))
    ys = rng.uniform(-3.0, 3.0, n_precheck)
    zs = rng.uniform(-3.0, 3.0, (n_precheck, d))
    gap = np.inf
    for k in range(0, n_precheck, 512):
        sl = slice(k, min(k + 512, n_precheck))
        tk = float(ts[sl].mean())
        diff = np.asarray(g1(tk, xs[sl], ys[sl], zs[sl]), dtype=float) - np.asarray(
            g2(tk, xs[sl], ys[sl], zs[sl]), dtype=float
        )
        gap = min(gap, float(diff.min()))
    if gap < -1e-12:
        raise HypothesisError(
            f"generator ordering g1 >= g2 fails on sampled tuples (min gap {gap:.3e})"
        )

    s1 = solve_bsde(replace(problem_template, generator=g1), forward, brownian, config)
    s2 = solve_bsde(replace(problem_template, generator=g2), forward, brownian, config)

    D = s1.Y.T - s2.Y.T  # (N+1, M), one row per time column
    M = D.shape[1]
    n_feat = 1 + forward.states.shape[2] * config.basis_degree
    picard_budget = brownian.increments.shape[1] * config.picard_tol
    se = np.array([_sample_sd(row) for row in D]) * np.sqrt(n_feat / M)
    slack = picard_budget + 3.0 * se  # per time column
    ok = D >= -slack[:, None]
    fraction = float(np.count_nonzero(ok)) / ok.size
    return ComparisonReport(fraction=fraction, generator_gap_min=gap)
