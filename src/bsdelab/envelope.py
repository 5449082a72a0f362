"""Penalized envelope approximations of a generator in its y-argument.

For a truncation radius alpha and penalty slope n, the lower and upper
envelopes are the inf/sup over u of g(t, x, q_alpha(u), 0) +- n|u|.  They
bracket g(t, x, 0, 0), are Lipschitz with constant n by construction, and
squeeze onto g(t, x, 0, 0) as n grows.  Everything here works pointwise in
(t, x): the search runs on an explicit u-grid, never on samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Generator, q_trunc
from .errors import ValidationError


@dataclass(frozen=True)
class EnvelopeRow:
    """Both envelopes of g at a fixed (t, x) for one penalty slope n.

    lower <= g(t, x, 0, 0) <= upper holds exactly because u = 0 is always
    on the search grid.  search_bound is the half-width U of the scanned
    interval; outside it the penalty term alone already exceeds the value at
    u = 0.
    """

    n: float
    lower: float
    upper: float
    combined: float  # |lower - g0| + |upper - g0|
    bound: float  # 2*psi_hat + 4*|g0|
    argmin_u: float
    argmax_u: float
    search_bound: float


def empirical_growth_bound(g: Generator, alpha, t, x, g0: float | None = None) -> float:
    """Max of |g(t,x,y,0) - g0| over a 2048-point y-grid on [-alpha, alpha].

    g0 is g(t, x, 0, 0), evaluated here unless the caller already holds it.
    """
    if alpha < 0:
        raise ValidationError(f"alpha must be >= 0, got {alpha}")
    y = np.linspace(-alpha, alpha, 2048)
    if g0 is None:
        g0 = float(np.asarray(g(t, x, 0.0, 0.0), dtype=float))
    vals = np.asarray(g(t, x, y, 0.0), dtype=float)
    return float(np.max(np.abs(vals - g0)))


def envelopes(g: Generator, alpha, n, t, x, u_resolution: float = 1e-4) -> EnvelopeRow:
    """Both envelopes of g at (t, x) for one slope n: a one-row convergence_curve."""
    return convergence_curve(g, alpha, t, x, [n], u_resolution)[0]


@dataclass(frozen=True)
class SandwichReport:
    n: float
    worst_violation: float
    tolerance: float
    n_samples: int

    @property
    def ok(self) -> bool:
        return self.worst_violation <= self.tolerance


def sandwich_check(
    g: Generator,
    alpha,
    n,
    t,
    x,
    y_samples,
    u_resolution: float = 1e-4,
) -> SandwichReport:
    """Check the two-sided envelope sandwich on explicit y samples.

    For each sampled y:  lower - n|y| <= g(t, x, q_alpha(y), 0) <= upper + n|y|.
    On the continuum both inequalities are exact; the grid search biases
    lower up and upper down by at most one cell, so violations up to
    10*u_resolution*(n + local Lipschitz estimate) are tolerated.
    """
    res = envelopes(g, alpha, n, t, x, u_resolution)
    y = np.asarray(y_samples, dtype=float)
    vals = np.asarray(g(t, x, q_trunc(y, alpha), 0.0), dtype=float)
    pen = n * np.abs(y)
    viol = np.maximum(res.lower - pen - vals, vals - (res.upper + pen))

    # local Lipschitz estimate of y |-> g(t,x,q_alpha(y),0) from a fine grid
    yy = np.linspace(-alpha, alpha, 2048) if alpha > 0 else np.zeros(2)
    gg = np.asarray(g(t, x, q_trunc(yy, alpha), 0.0), dtype=float)
    dy = np.diff(yy)
    lip = float(np.max(np.abs(np.diff(gg)) / np.where(dy > 0, dy, 1.0))) if alpha > 0 else 0.0
    tol = 10.0 * u_resolution * (n + lip)
    return SandwichReport(
        n=float(n),
        worst_violation=float(np.max(viol)) if viol.size else 0.0,
        tolerance=tol,
        n_samples=int(y.size),
    )


def convergence_curve(
    g: Generator,
    alpha,
    t,
    x,
    n_list,
    u_resolution: float = 1e-4,
) -> list[EnvelopeRow]:
    """Both envelopes of g at (t, x) along increasing penalty slopes n.

    Slope n grid-minimizes g(t, x, q_alpha(u), 0) + n|u| (lower) and
    grid-maximizes g(t, x, q_alpha(u), 0) - n|u| (upper) on [-U, U], with
    U = (2*psi_hat + 2|g0| + 1)/n: beyond it the penalty exceeds the u = 0
    value, so both optimizers lie inside.  Its lattice u_resolution*(-k..k),
    k = ceil(U/u_resolution), is a centred slice of the smallest slope's, so
    g is scanned once per curve; a lattice with more points than numpy can
    index (U = inf included) raises ValidationError.

    The lower sequence is nondecreasing, the upper nonincreasing, and the
    combined column shrinks toward 0 (within grid tolerance) once n passes
    the local Lipschitz scale; the optimizer locations show where the
    penalty binds.
    """
    n_list = [float(v) for v in n_list]
    if not n_list:
        raise ValidationError("n_list must be nonempty")
    if not all(b > a for a, b in zip(n_list, n_list[1:])):
        raise ValidationError("n_list must be strictly increasing")
    if not n_list[0] > 0:
        raise ValidationError(f"penalty slope n must be > 0, got {n_list[0]}")
    if not u_resolution > 0:
        raise ValidationError(f"u_resolution must be > 0, got {u_resolution}")
    g0 = float(np.asarray(g(t, x, 0.0, 0.0), dtype=float))
    if g.growth_bound is not None:
        psi_hat = float(g.growth_bound(alpha, t))
    else:
        psi_hat = empirical_growth_bound(g, alpha, t, x, g0)
    bound = 2.0 * psi_hat + 4.0 * abs(g0)
    reach = 2.0 * psi_hat + 2.0 * abs(g0) + 1.0
    U = reach / n_list[0]
    if not U / u_resolution < np.iinfo(np.intp).max // 2:
        raise ValidationError(
            f"envelope lattice on [-U, U] with U={U:.6g} at u_resolution={u_resolution:.6g} "
            "has more points than numpy can index"
        )
    k_max = int(np.ceil(U / u_resolution))
    u = u_resolution * np.arange(-k_max, k_max + 1)
    vals = np.broadcast_to(np.asarray(g(t, x, q_trunc(u, alpha), 0.0), dtype=float), u.shape)
    rows = []
    for n in n_list:
        U = reach / n
        k = int(np.ceil(U / u_resolution))
        u_n, vals_n = u[k_max - k : k_max + k + 1], vals[k_max - k : k_max + k + 1]
        pen = n * np.abs(u_n)
        lo_obj = vals_n + pen
        hi_obj = vals_n - pen
        i_lo, i_hi = int(np.argmin(lo_obj)), int(np.argmax(hi_obj))
        lower, upper = float(lo_obj[i_lo]), float(hi_obj[i_hi])
        rows.append(
            EnvelopeRow(
                n=n, lower=lower, upper=upper, combined=abs(lower - g0) + abs(upper - g0),
                bound=bound, argmin_u=float(u_n[i_lo]), argmax_u=float(u_n[i_hi]),
                search_bound=float(U),
            )
        )
    return rows
