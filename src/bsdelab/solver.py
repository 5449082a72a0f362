"""Least-squares Monte Carlo solver for scalar backward equations.

Backward recursion on a path batch: at each step the conditional expectation
of the next value and the z-component are estimated by a global polynomial
regression on the current state, then the implicit one-step equation
y = E_i[Y_{i+1}] + g(t_i, x_i, y, z_i)*dt is solved pathwise.  A driver that
declares itself affine in y (Generator.y_slope) is solved in closed form;
any other by a safeguarded secant iteration, falling back to bisection
where the iteration fails.  The secant stops per path: the whole batch
iterates until at most half its paths still move by more than
picard_tol, then those stragglers iterate alone, compacting again by the
same rule, while the others keep their values.  The implicit step is
used because the generator is only assumed monotone in y; the map
y - g*dt is strictly increasing whenever dt times the local slope stays
below 1, so its secant slopes are positive (a non-positive or non-finite
one falls back to the damped fixed-point step) and bisection brackets its
root.

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

from dataclasses import dataclass, field

import numpy as np

from .core import _INDEX, BSDEProblem, ExperimentConfig, Generator, _over_time, _sample_sd
from .core import _require_finite, _require_le
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
    Only solve_bsde returns one, for the CLI solve table, which reads
    every step; comparison_check reads every step's Y of the same sweep
    (_sweep) with history.  The quotient and Feynman-Kac estimators need
    only Y[:, 0] and telescoped, and their sweep keeps no history.
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
    (picard_iters: the generator evaluations of the step's slowest path,
    as each path stops on its own and, once at most half of the paths
    still move, the rest iterate without them), bisection-fallback path
    counts (bisection_paths) and
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
    y + (base + g*dt_eff - y)/2) is taken instead.  A path stops once
    its step moves it by at most picard_tol, measured as the change of y
    after rounding.  The whole batch iterates, as one array, until the
    first evaluation after which at most half of its paths still move:
    the paths within picard_tol then keep their y and gv, written to the
    batch's arrays by index, and only the still-moving ones (their x, z,
    base, dt_eff, y, residual and step gathered once) iterate on, compacting
    again by the same rule, until none moves.  A step where every path
    stops at the same evaluation does the arithmetic of one whole-batch
    loop.  Paths still unconverged after picard_max evaluations are
    written back and finished, on the whole batch, by bisection, which
    stops a path at width picard_tol or where its bracket is two adjacent
    doubles.  A path whose bracket still grows after 60 doublings raises
    PicardError naming it and its residual.

    Returns (y, iters, n_fallback, gv).  iters is the number of
    evaluations of the slowest path.  gv is each path's generator value
    of its last evaluation: at the iterate before y where the iteration
    converged, at y itself otherwise, and at y by the affine identity in
    closed form.
    """
    a = g.y_slope
    if a is not None:
        denom = 1.0 - a * dt_eff
        # negated > also refuses NaN
        if not np.all(denom > 0):
            raise PicardError(
                f"no unique root at step t={t_i}: y_slope*dt = {a * np.max(dt_eff):.6g} >= 1"
            )
        gv = g(t_i, x_i, base, z_i) / denom
        y = gv * dt_eff
        y += base
        return y, 1, 0, gv

    tol = config.picard_tol
    # the paths still iterating, with their x, z, base and dt_eff: the whole
    # batch until at most half of them move, then the stragglers alone;
    # live maps them into y_full and gv_full, which hold the final values
    live = None
    x, z, b, dt = x_i, z_i, base, dt_eff
    y = base
    f_prev = dy = None
    scratch = np.empty(np.shape(base))
    iters = 0
    for _ in range(config.picard_max):
        gv = g(t_i, x, y, z)
        f = y - b
        f -= np.multiply(gv, dt, out=scratch)
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
        # a path whose step is not <= tol still moves, a NaN step included;
        # scratch is free once y_next is formed
        settled = np.abs(dy, out=scratch) <= tol
        n_moving = settled.size - np.count_nonzero(settled)
        if not n_moving:
            if live is None:
                return y, iters, 0, gv
            y_full[live] = y
            gv_full[live] = gv
            return y_full, iters, 0, gv_full
        if 2 * n_moving > settled.size:
            continue
        # the settled paths are final; the rest go on alone
        keep = np.flatnonzero(~settled)
        if live is None:
            # y is the iteration's own array; gv may be a read-only view
            y_full, gv_full, live = y, np.array(gv), keep
        else:
            y_full[live] = y
            gv_full[live] = gv
            live = live[keep]
        x, z, b, y, f_prev, dy = x[keep], z[keep], b[keep], y[keep], f_prev[keep], dy[keep]
        if np.ndim(dt):
            dt = dt[keep]
        scratch = np.empty(keep.size)

    if live is not None:
        y_full[live] = y
        y = y_full
    gv = g(t_i, x_i, y, z_i)
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
        return v - bb - g(t_i, xb, v, zb) * db

    r = np.maximum(1.0, np.abs(bb))
    lo, hi = bb - r, bb + r
    for _ in range(60):
        grow = (f(lo) > 0) | (f(hi) < 0)
        if not np.any(grow):
            break
        r = np.where(grow, 2.0 * r, r)
        lo, hi = bb - r, bb + r
    else:
        # the first path whose bracket still grows
        m = int(idx[np.argmax(grow)])
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
    # a copy: the driver's value may be a read-only view
    gv = np.array(gv)
    gv[idx] = g(t_i, xb, y[idx], zb)
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
    NumericalError naming window=0, the step and the first such path
    (_sweep).  brownian must be drawn on forward's grid; another grid is
    refused with ValidationError.

    The batches are one window (a WindowStack of K = 1) of _sweep, which
    reads increments and states time-major, one contiguous row per step:
    the batches built by this package are transposed views and are read in
    place, while a caller-built path-major array is copied once per call.
    The regression is time-major too: the targets are written into one
    (1+d, M) buffer per call, and _fit returns the fitted values as the
    transpose of a (1+d, M) product, so the conditional mean and each
    z-coordinate are read as contiguous rows.

    This is the variant that keeps every step's Y and Z, which the CLI
    solve table reads.  comparison_check runs the same loop (_sweep) with
    history on a window of its own, and the quotient and Feynman-Kac
    estimators run it without, in O(M) memory.
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

    solve_bsde and comparison_check run it on one window with history,
    mc_solution on one without, and representation._stopped_solve on a
    stack of stop-gated windows.
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
    raises HypothesisError, so a driver that is not affine with the
    declared slope is refused before it can bias the sweep.  A non-finite
    terminal value (step N), y, g or z row raises NumericalError.  Each
    refusal names "window=w, step=i, path=m" at its first failing path,
    then the values or the residual (core._require).

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
    for w, xi in enumerate(terminals):
        at = dict(window=w, step=n_steps, path=_INDEX)
        _require_finite({"y": xi}, NumericalError, "non-finite terminal value", **at)

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

    def window_step(w, i, x):
        # window w's implicit step i, from its fitted values in its rows of
        # targets, then its targets for step i - 1; it writes only its rows
        dt = windows.grids[w].dt
        ey = targets[w * q]
        z = Z[w, i % rows_z]
        z[:] = targets[w * q + 1 : (w + 1) * q].T
        # scalar before the window's earliest stop, where every path is on
        dt_eff = dt if i < first_stop[w] else np.where(i < stops[w], dt, 0.0)
        x_w = windows.state(w, x)
        y, iters, nfb, gv = _picard_step(g, times[w][i], x_w, ey, z, dt_eff, config)
        # bisection can settle a finite y where g is NaN, so the generator
        # values are checked too
        at = dict(window=w, step=i, path=_INDEX)
        _require_finite({"y": y, "g": gv, "z": z}, NumericalError, "non-finite value", **at)
        if g.y_slope is not None and i == n_steps - 1:
            # the closed-form root of a declared driver against g itself; the
            # allowance adds rounding at the scale of the step's terms, which
            # exceeds picard_tol once |y| >~ 1e6
            gy = g(times[w][i], x_w, y, z) * dt_eff
            resid = np.abs(y - ey - gy)
            ulps = 16 * np.finfo(float).eps * (1.0 + np.abs(g.y_slope * dt_eff))
            rounding = (np.abs(y) + np.abs(ey) + np.abs(gy)) * ulps
            message = f"{g.name}: not affine in y with the declared y_slope {g.y_slope}: residual"
            _require_le(resid, config.picard_tol + rounding, HypothesisError, message, **at)
        Y[w, i % rows_y] = y
        telescoped[w] += gv * dt_eff
        picard_iters[w, i] = iters
        bisections[w, i] = nfb
        if i:
            fill_targets(w, i - 1)
        return y, gv, dt_eff

    first_stop = [n_steps if stops is None else stops[w].min() for w in range(K)]
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
    window: WindowStack,
    terminals: np.ndarray,
    config: ExperimentConfig,
) -> ComparisonReport:
    """Verify Y1 >= Y2 pathwise after confirming g1 >= g2 on sampled tuples.

    window is a WindowStack of one window and terminals its (M,) terminal
    values; more windows or another shape raise ValidationError.  The
    generator ordering is a precondition: g1 - g2 negative beyond float
    noise, or NaN, on a sampled tuple raises HypothesisError naming it.
    It is sampled on 4096 tuples, at states over the range the window's
    states visit, in 8 chunks at times evenly spaced over the window's
    grid, both ends included.  Both drivers are then swept with history
    (_sweep) on the window, and the share of (path, step) pairs with
    Y1 >= Y2 - slack is reported; the slack is the accumulated
    implicit-step tolerance plus 3 regression standard errors of the
    fitted difference.
    """
    n_steps, M, d = window.steps.shape
    if len(window.grids) != 1:
        raise ValidationError(f"need a stack of one window, got {len(window.grids)}")
    terminals = np.asarray(terminals, dtype=float)
    if terminals.shape != (M,):
        raise ValidationError(f"terminals shaped {terminals.shape}, expected ({M},)")
    states = (window.state(0, row) for row in window.rows())
    ends = np.array([(x.min(axis=0), x.max(axis=0)) for x in states])  # (N+1, 2, n)

    n_precheck = 4096
    rng = np.random.default_rng(config.seed)
    xs = rng.uniform(ends[:, 0].min(axis=0), ends[:, 1].max(axis=0), (n_precheck, window.dim))
    ys = rng.uniform(-3.0, 3.0, n_precheck)
    zs = rng.uniform(-3.0, 3.0, (n_precheck, d))
    span = (window.grids[0].t_start, window.grids[0].t_end, n_precheck, 512, xs, ys, zs)
    ts, gap = _over_time(g1, *span)
    gap -= _over_time(g2, *span)[1]
    message = "generator ordering g1 >= g2 fails"
    _require_le(-gap, 1e-12, HypothesisError, message, t=ts, x=xs, y=ys, z=zs)

    (Y1,), _, _, _ = _sweep(g1, terminals[None], window, config, history=True)
    (Y2,), _, _, _ = _sweep(g2, terminals[None], window, config, history=True)

    D = Y1 - Y2  # (N+1, M), one row per time column
    n_feat = 1 + window.dim * config.basis_degree
    picard_budget = n_steps * config.picard_tol
    se = np.array([_sample_sd(row) for row in D]) * np.sqrt(n_feat / M)
    slack = picard_budget + 3.0 * se  # per time column
    ok = D >= -slack[:, None]
    fraction = float(np.count_nonzero(ok)) / ok.size
    return ComparisonReport(fraction=fraction, generator_gap_min=float(gap.min()))
