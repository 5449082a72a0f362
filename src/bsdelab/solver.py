"""Least-squares Monte Carlo solver for scalar backward equations.

Backward recursion on a path batch: at each step the conditional expectation
of the next value and the z-component are estimated by a global polynomial
regression on the current state, then the implicit one-step equation
y = E_i[Y_{i+1}] + g(t_i, x_i, y, z_i)*dt is solved pathwise.  A driver that
declares itself affine in y (Generator.y_slope) is solved in closed form;
any other by a safeguarded secant iteration, falling back to bisection
where the iteration fails.  The implicit step is used because the
generator is only assumed monotone in y; the map y - g*dt is strictly
increasing whenever dt times the local slope stays below 1, so its secant
slopes are positive (a non-positive or non-finite one falls back to the
damped fixed-point step) and bisection brackets its root.

The regression at each step projects the targets onto the span of the
design through the eigendecomposition of its Gram matrix, plus one step of
iterative refinement so that the squared condition number of the normal
equations does not reach the fit; a design whose condition number exceeds
1e4 (GRAM_CUTOFF on the eigenvalues) is fitted by an SVD least squares
solve instead, and such steps are counted.  Windows that share their
paths (a WindowStack) share that regression too: one design and one
factorization per step fit the targets of every window at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import BSDEProblem, ExperimentConfig, Generator, _sample_sd
from .errors import HypothesisError, NumericalError, PicardError, ValidationError
from .paths import BrownianBatch, ForwardBatch, WindowStack, _side_by_side

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


def _step_designs(windows: WindowStack, degree: int, anchor: np.ndarray | None):
    """Yield (x, design) for each row x of windows.rows_backward().

    The rows are the stack's shared path at nodes N-1, ..., 0, the
    sweep's order.  Without an anchor each design is polynomial_design(x).
    With an (M, k) anchor the design of x is polynomial_design([anchor, x])
    bit for bit, since each column's rows are built on their own: one
    (p, M) buffer takes polynomial_design(anchor)'s rows once, and each
    step copies the power rows of x's design in behind them.  Every build
    goes through the module's polynomial_design.  A design is valid until
    the next one is drawn.
    """
    if anchor is None:
        for x in windows.rows_backward():
            yield x, polynomial_design(x, degree)
        return
    M, k = anchor.shape
    split = 1 + k * degree
    buf = np.empty((split + windows.dim * degree, M))
    buf[:split] = polynomial_design(anchor, degree).T
    for x in windows.rows_backward():
        buf[split:] = polynomial_design(x, degree).T[1:]
        yield x, buf.T


def _fit(design: np.ndarray, targets: np.ndarray, out: np.ndarray | None = None):
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
    transpose of a (q, M) one, as _sweep passes them, every product
    reads and writes contiguous rows.  The columns of targets are fitted
    together: one Gram matrix and one factorization serve every column,
    and the products with the targets are one product each.  With out,
    an (M, q) array laid out like targets (targets itself included, which
    the fit has read by then), the fitted values are written there and
    out is returned; otherwise they take the residual's buffer.
    """
    gram = design.T @ design
    active = np.flatnonzero(np.diag(gram))
    if active.size:
        w, V = np.linalg.eigh(gram[np.ix_(active, active)])
    # negated > also sends a NaN spectrum to the fallback
    if not active.size or not w[0] > GRAM_CUTOFF * w[-1]:
        coef, _, rank, sv = np.linalg.lstsq(design, targets, rcond=RCOND)
        cond = float(sv[0] / sv[rank - 1]) if rank > 0 else np.inf
        fitted = design @ coef
        if out is not None:
            out[...] = fitted
            fitted = out
        return fitted, coef, cond, rank, True

    def solve(rhs):
        return V @ ((V.T @ rhs[active]) / w[:, None])

    coef = np.zeros((design.shape[1], targets.shape[1]))
    coef[active] = solve(design.T @ targets)
    resid = coef.T @ design.T
    np.subtract(targets.T, resid, out=resid)
    coef[active] += solve(design.T @ resid.T)
    cond = float(np.sqrt(w[-1] / w[0]))
    # the residual is read by now, so its buffer can take the fitted values
    fitted = np.matmul(coef.T, design.T, out=resid if out is None else out.T).T
    return fitted, coef, cond, int(active.size), False


@dataclass
class SolutionBatch:
    """Pathwise solution estimates plus regression diagnostics.

    Y has shape (M, N+1) with Y[:, N] equal to the terminal values exactly;
    Z has shape (M, N, d).  Both are transposed views of time-major
    buffers, (N+1, M) and (N, M, d), that the sweep writes row by row.
    Only solve_bsde returns one: its callers (the CLI solve table,
    comparison_check) read every step, and each step regresses on the
    forward state.  The quotient and Feynman-Kac estimators need only
    Y[:, 0] and telescoped, and their sweep (_sweep, which solves a
    quotient study's windows in lockstep) keeps no history.
    telescoped, shape (M,), is the pathwise sum
    xi + sum_i g(t_i, X_i, Y_i, Z_i)*dt_eff accumulated during the sweep:
    its mean matches Y[:, 0] (least squares preserves target means) and its
    spread is the estimator's Monte Carlo noise.  For a driver that
    declares y_slope each g value is g at Y_i by the affine identity
    g(Y_i) = g(E_i) + y_slope*(Y_i - E_i), up to rounding.  For any other
    it is the last one the implicit step evaluated, at an iterate within
    picard_tol of Y_i, so the sum differs from one re-evaluated at the
    solved Y by at most picard_tol*L*(t_end - t_start), L the local
    y-slope of g.
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

    A driver that declares y_slope a (g affine in y) is solved in closed
    form from one evaluation g0 = g(base): the root is y = base +
    gv*dt_eff with gv = g0/(1 - a*dt_eff), which is g0 + a*(y - base),
    the generator value at y.  A step with 1 - a*dt_eff not > 0 has no
    unique root and raises PicardError.

    Any other driver takes a secant iteration on F(y) = y - base -
    g(y)*dt_eff from y0 = base.  Its first step is the undamped fixed-point
    step y1 = base + g(base)*dt_eff.  Where a secant slope is not finite or
    not positive the damped step (slope 2, i.e.
    y + (base + g*dt_eff - y)/2) is taken instead.  The iteration stops
    once every path moves by at most picard_tol, measured as the change of
    y after rounding.  Paths still unconverged after picard_max
    evaluations are finished by bisection, which stops a path at width
    picard_tol or where its bracket is two adjacent doubles.

    Returns (y, iters, n_fallback, gv).  gv is the generator value of the
    last evaluation: at the iterate before y when the iteration converged,
    at y itself otherwise, and at y by the affine identity in closed form.
    """
    a = g.y_slope
    if a is not None:
        denom = 1.0 - a * dt_eff
        # negated > also refuses NaN
        if not np.all(denom > 0):
            raise PicardError(
                f"no unique root at step t={t_i}: y_slope*dt = {a * np.max(dt_eff):.6g} >= 1"
            )
        gv = np.asarray(g(t_i, x_i, base, z_i), dtype=float) / denom
        y = gv * dt_eff
        y += base
        return y, 1, 0, gv

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
) -> SolutionBatch:
    """Backward least-squares Monte Carlo sweep over the batch, with history.

    Per step i (from the terminal inward): regress Y_{i+1}*dB_i/dt on the
    basis of the forward state X_i for the z-estimate, regress Y_{i+1} for
    the conditional mean, then solve the implicit y-equation pathwise.  A
    non-finite terminal value, y, z row or generator value raises
    NumericalError naming the step and the first such path.  brownian must
    be drawn on forward's grid; another grid is refused with
    ValidationError.

    The batches are one window (a WindowStack of K = 1) of _sweep, which
    reads increments and states time-major, one contiguous row per step:
    the batches built by this package are transposed views and are read in
    place, while a caller-built path-major array is copied once per call.
    The regression is time-major too: the targets are written into one
    (1+d, M) buffer per call, and _fit returns the fitted values as the
    transpose of a (1+d, M) product, so the conditional mean and each
    z-coordinate are read as contiguous rows.

    This is the variant that keeps every step's Y and Z, which the CLI
    solve table and comparison_check read.  The quotient and Feynman-Kac
    estimators read only the initial row and the telescoped sums, and run
    the same loop (_sweep) without the history, in O(M) memory; the
    quotient estimators also switch g off from a stopping index on.
    """
    M, _, d = brownian.increments.shape
    if problem.dimension_d != d:
        raise ValidationError(
            f"problem.dimension_d={problem.dimension_d} but batch has d={d}"
        )
    grid = forward.grid
    if brownian.grid != grid:
        raise ValidationError(f"brownian grid {brownian.grid} differs from forward grid {grid}")
    if abs(grid.t_start - problem.t_start) > 1e-12 or abs(grid.t_end - problem.t_end) > 1e-12:
        raise ValidationError("forward grid does not span the problem horizon")
    # refuses forward states that are not shaped (M, N+1, n)
    window = WindowStack((grid,), forward.states, brownian.increments)

    # an overflow is reported by _sweep with its path
    with np.errstate(over="ignore", invalid="ignore"):
        xi = np.asarray(problem.terminal(forward.states), dtype=float)
    if xi.shape != (M,):
        raise ValidationError(f"terminal returned shape {xi.shape}, expected ({M},)")

    (Y,), (Z,), (telescoped,), (diagnostics,) = _sweep(
        problem.generator, xi[None], window, config, history=True
    )
    return SolutionBatch(
        Y=Y.T, Z=np.swapaxes(Z, 0, 1), telescoped=telescoped, diagnostics=diagnostics
    )


def _sweep(
    g: Generator,
    terminals: np.ndarray,
    windows: WindowStack,
    config: ExperimentConfig,
    stops: np.ndarray | None = None,
    anchor: np.ndarray | None = None,
    history: bool = False,
):
    """The backward loop, for the K windows of a stack in lockstep.

    solve_bsde runs it on one window with history, mc_solution on one
    without, and representation._stopped_solve on a stack of stop-gated
    windows.
    Window w has generator g, terminal values terminals[w] and, when stops
    is given, its generator switched off from stops[w] on.  Every window
    regresses on the same design: step i's is built once from row i of
    the stack's shared path or, with an (M, n) anchor, from the pair
    (anchor, row i), the anchor's rows built once (_step_designs).  The
    rows come backward from the stack (WindowStack.rows_backward), so a
    unit draw's segment of rows is rebuilt in the calling thread before
    the window tasks of its first step start.  The
    K*(1+d) targets [Y_{i+1}; Y_{i+1}*dB_i/dt] of all windows are the
    columns of one fit, so one Gram matrix and one factorization serve
    them, and the fitted values overwrite them.  The implicit y-step, the
    stop and the terminal stay per window, on its own grid, states and
    increments, which windows forms a step at a time.  For a driver that
    declares y_slope the implicit step is solved in closed form, and each
    window's first solved step (i = N - 1) is checked once: g is evaluated
    again at the root, and a residual beyond picard_tol plus rounding
    raises HypothesisError naming the step, the path and the residual, so
    a driver that is not affine with the declared slope is refused before
    it can bias the sweep.

    The design and the fit run in the calling thread.  Then each window's
    implicit step, finite check, writes and targets for the next step run
    as one task, side by side with the other windows' when K >= 2
    (paths._side_by_side, one worker per usable CPU and window), so g is
    called from several threads at once and must be pure and keep no
    mutable state.  A task writes only its window's rows with the
    arithmetic the window has alone: no output byte depends on the CPU
    count, and a failure names the first failing window in window order.

    Returns (Y, Z, telescoped, diagnostics).  Y is (K, rows, M) and Z
    (K, rows, M, d), time-major: with history they hold every step, N+1
    and N rows; without it one row each, which step i overwrites (a task
    reads its Y row back at once for the next step's targets), so Y[:, 0]
    is the initial row either way.  telescoped is (K, M).
    diagnostics holds one dict per window; its cond, rank and
    regression_fallbacks arrays are shared by all windows.
    """
    n_steps, M, d = windows.steps.shape
    K = len(windows.grids)
    q = 1 + d
    if not np.all(np.isfinite(terminals)):
        w, m = np.argwhere(~np.isfinite(terminals))[0]
        where = f"path {m}" if K == 1 else f"path {m} of window {w}"
        raise NumericalError(f"non-finite terminal value at {where}")

    times = [grid.times() for grid in windows.grids]
    Y = np.empty((K, n_steps + 1 if history else 1, M))
    Z = np.empty((K, n_steps if history else 1, M, d))
    rows_y, rows_z = Y.shape[1], Z.shape[1]
    Y[:, n_steps % rows_y] = terminals
    telescoped = terminals.copy()
    cond = np.empty(n_steps)
    rank = np.empty(n_steps, dtype=int)
    lstsq_fallbacks = np.zeros(n_steps, dtype=int)
    picard_iters = np.empty((K, n_steps), dtype=int)
    bisections = np.zeros((K, n_steps), dtype=int)

    # regression targets, [Y_{i+1}; Y_{i+1}*dB_i/dt] of each window in turn
    targets = np.empty((K * q, M))

    def fill_targets(w, i):
        # window w's rows of targets for step i
        y_next = Y[w, (i + 1) % rows_y]
        rows = targets[w * q : (w + 1) * q]
        rows[0] = y_next
        np.multiply(y_next, windows.increment(w, i).T, out=rows[1:])
        np.divide(rows[1:], windows.grids[w].dt, out=rows[1:])

    def where(w, i, m):
        return f"step {i}, path {m}" if K == 1 else f"step {i}, path {m} of window {w}"

    def check_root(w, i, x_w, base, z, dt_eff, y):
        # the closed-form root of a declared driver against g itself; the
        # allowance adds rounding at the scale of the step's terms, which
        # exceeds picard_tol once |y| >~ 1e6
        gy = np.asarray(g(times[w][i], x_w, y, z), dtype=float) * dt_eff
        resid = np.abs(y - base - gy)
        ulps = 16 * np.finfo(float).eps * (1.0 + np.abs(g.y_slope * dt_eff))
        rounding = (np.abs(y) + np.abs(base) + np.abs(gy)) * ulps
        # negated <= also refuses a NaN residual
        bad = ~(resid <= config.picard_tol + rounding)
        if bad.any():
            m = int(np.argmax(bad))
            raise HypothesisError(
                f"{g.name}: not affine in y with the declared y_slope {g.y_slope}: "
                f"implicit-step residual {resid[m]:.3e} at {where(w, i, m)}"
            )

    def window_step(w, i, x):
        # window w's implicit step i, from its fitted values in its rows of
        # targets, then its targets for step i - 1; it writes only its rows
        dt = windows.grids[w].dt
        ey = targets[w * q]
        z = Z[w, i % rows_z]
        z[:] = targets[w * q + 1 : (w + 1) * q].T
        dt_eff = dt if stops is None else np.where(i < stops[w], dt, 0.0)
        x_w = windows.state(w, x)
        y, iters, nfb, gv = _picard_step(g, times[w][i], x_w, ey, z, dt_eff, config)
        # bisection can settle a finite y where g is NaN, so the generator
        # values are checked too
        finite = np.isfinite(y)
        finite &= np.isfinite(gv)
        finite &= np.isfinite(z).all(axis=1)
        if not finite.all():
            m = int(np.argmin(finite))
            raise NumericalError(
                f"non-finite value at {where(w, i, m)}: "
                f"y={y[m]}, g={np.broadcast_to(gv, (M,))[m]}, max|z|={np.abs(z[m]).max()}"
            )
        if g.y_slope is not None and i == n_steps - 1:
            check_root(w, i, x_w, ey, z, dt_eff, y)
        Y[w, i % rows_y] = y
        telescoped[w] += gv * dt_eff
        picard_iters[w, i] = iters
        bisections[w, i] = nfb
        if i:
            fill_targets(w, i - 1)
        return y, gv, dt_eff, finite

    for w in range(K):
        fill_targets(w, n_steps - 1)
    with _side_by_side(K) as run:
        designs = _step_designs(windows, config.basis_degree, anchor)
        for i, (x, design) in zip(range(n_steps - 1, -1, -1), designs):
            # the fitted values overwrite the targets, which a window
            # refills for the next step once its implicit step is done
            _, _, cond[i], rank[i], lstsq_fallbacks[i] = _fit(design, targets.T, out=targets.T)
            # a lone window's arrays stay referenced until the next step has
            # made its own, as in a plain loop; freeing them first lets the
            # allocator trim and refault the heap every step
            held = run(lambda w: window_step(w, i, x))

    diagnostics = [
        {
            "cond": cond,
            "rank": rank,
            "picard_iters": picard_iters[w],
            "bisection_paths": bisections[w],
            "regression_fallbacks": lstsq_fallbacks,
        }
        for w in range(K)
    ]
    return Y, Z, telescoped, diagnostics


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
