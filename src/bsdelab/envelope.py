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
class EnvelopeResult:
    """One (n, alpha) envelope evaluation at a fixed (t, x).

    value_lower <= g(t, x, 0, 0) <= value_upper holds exactly because u = 0
    is always on the search grid.  search_bound is the half-width U of the
    scanned interval; outside it the penalty term alone already exceeds the
    value at u = 0.
    """

    n: float
    alpha: float
    value_lower: float
    value_upper: float
    argmin_u: float
    argmax_u: float
    search_bound: float


def empirical_growth_bound(g: Generator, alpha, t, x) -> float:
    """Max of |g(t,x,y,0) - g(t,x,0,0)| over a 2048-point y-grid on [-alpha, alpha]."""
    if alpha < 0:
        raise ValidationError(f"alpha must be >= 0, got {alpha}")
    y = np.linspace(-alpha, alpha, 2048)
    g0 = float(np.asarray(g(t, x, 0.0, 0.0), dtype=float))
    vals = np.asarray(g(t, x, y, 0.0), dtype=float)
    return float(np.max(np.abs(vals - g0)))


def _growth_scale(g, alpha, t, x):
    if g.growth_bound is not None:
        return float(g.growth_bound(alpha, t))
    return empirical_growth_bound(g, alpha, t, x)


def envelopes(g: Generator, alpha, n, t, x, u_resolution: float = 1e-4) -> EnvelopeResult:
    """Both envelopes of g at (t, x) from one grid scan over u.

    The lower envelope grid-minimizes g(t, x, q_alpha(u), 0) + n|u|, the
    upper one grid-maximizes g(t, x, q_alpha(u), 0) - n|u|.  The scanned
    interval [-U, U] with U = (2*psi_hat + 2|g0| + 1)/n provably contains
    both optimizers: beyond it the penalty exceeds the u = 0 value.
    """
    if n <= 0:
        raise ValidationError(f"penalty slope n must be > 0, got {n}")
    if u_resolution <= 0:
        raise ValidationError(f"u_resolution must be > 0, got {u_resolution}")
    psi_hat = _growth_scale(g, alpha, t, x)
    g0 = float(np.asarray(g(t, x, 0.0, 0.0), dtype=float))
    U = (2.0 * psi_hat + 2.0 * abs(g0) + 1.0) / n
    k = int(np.ceil(U / u_resolution))
    u = u_resolution * np.arange(-k, k + 1)
    vals = np.asarray(g(t, x, q_trunc(u, alpha), 0.0), dtype=float)
    pen = n * np.abs(u)
    lo_obj = vals + pen
    hi_obj = vals - pen
    i_lo = int(np.argmin(lo_obj))
    i_hi = int(np.argmax(hi_obj))
    return EnvelopeResult(
        n=float(n),
        alpha=float(alpha),
        value_lower=float(lo_obj[i_lo]),
        value_upper=float(hi_obj[i_hi]),
        argmin_u=float(u[i_lo]),
        argmax_u=float(u[i_hi]),
        search_bound=float(U),
    )


@dataclass(frozen=True)
class SandwichReport:
    n: float
    alpha: float
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
    viol = np.maximum(res.value_lower - pen - vals, vals - (res.value_upper + pen))

    # local Lipschitz estimate of y |-> g(t,x,q_alpha(y),0) from a fine grid
    yy = np.linspace(-alpha, alpha, 2048) if alpha > 0 else np.zeros(2)
    gg = np.asarray(g(t, x, q_trunc(yy, alpha), 0.0), dtype=float)
    dy = np.diff(yy)
    lip = float(np.max(np.abs(np.diff(gg)) / np.where(dy > 0, dy, 1.0))) if alpha > 0 else 0.0
    tol = 10.0 * u_resolution * (n + lip)
    return SandwichReport(
        n=float(n),
        alpha=float(alpha),
        worst_violation=float(np.max(viol)) if viol.size else 0.0,
        tolerance=tol,
        n_samples=int(y.size),
    )


@dataclass(frozen=True)
class EnvelopeCurveRow:
    n: float
    lower: float
    upper: float
    combined: float  # |lower - g0| + |upper - g0|
    bound: float  # 2*psi_hat + 4*|g0|
    argmin_u: float
    argmax_u: float


def convergence_curve(
    g: Generator,
    alpha,
    t,
    x,
    n_list,
    u_resolution: float = 1e-4,
) -> list[EnvelopeCurveRow]:
    """Envelope values along increasing penalty slopes n.

    The lower sequence is nondecreasing, the upper nonincreasing, and the
    combined distance column shrinks toward 0 (within grid tolerance) once n
    passes the local Lipschitz scale.  Rows report the minimizer locations so
    slow squeezing can be traced to where the penalty binds.
    """
    n_list = [float(v) for v in n_list]
    if not n_list:
        raise ValidationError("n_list must be nonempty")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValidationError("n_list must be strictly increasing")
    g0 = float(np.asarray(g(t, x, 0.0, 0.0), dtype=float))
    psi_hat = _growth_scale(g, alpha, t, x)
    bound = 2.0 * psi_hat + 4.0 * abs(g0)
    rows = []
    for n in n_list:
        r = envelopes(g, alpha, n, t, x, u_resolution)
        combined = abs(r.value_lower - g0) + abs(r.value_upper - g0)
        rows.append(
            EnvelopeCurveRow(
                n=n,
                lower=r.value_lower,
                upper=r.value_upper,
                combined=combined,
                bound=bound,
                argmin_u=r.argmin_u,
                argmax_u=r.argmax_u,
            )
        )
    return rows
