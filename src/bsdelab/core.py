"""Core types: generators, problems, experiment configuration.

A generator is the driver g(t, x, y, z) of a scalar backward equation.  All
randomness enters through the explicit state argument x (typically the value
of the driving Brownian motion or of a forward diffusion), so evaluation is a
pure function and safe to call concurrently.  Evaluations broadcast over a
leading batch axis: t is a float, x has shape (..., n), y has shape (...),
z has shape (..., d), and the result has shape (...).  For d == 1, z may be
passed as a bare scalar.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError

# Exponent cap for the stress generator; exceeding it is loudly flagged
# rather than silently saturating.
EXP_CLAMP = 50.0


def _norm_last(a) -> np.ndarray:
    """Euclidean norm over the last axis; plain abs for scalars.

    A last axis of length 1 takes abs directly, which equals sqrt(a*a)
    bit for bit wherever a*a neither overflows nor underflows.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        return np.abs(a)
    if a.shape[-1] == 1:
        return np.abs(a[..., 0])
    return np.sqrt(np.sum(a * a, axis=-1))


def _sample_sd(v: np.ndarray) -> float:
    """Sample standard deviation (ddof=1) of v, 0 when v is constant up to rounding.

    A peak-to-peak spread within n*eps*max|v| is float rounding of values
    that are equal in exact arithmetic; its standard deviation is dust whose
    digits follow the summation order, so it is reported as 0, as is the
    spread of fewer than two values.
    """
    n = v.size
    if n < 2 or np.ptp(v) <= n * np.finfo(float).eps * np.max(np.abs(v)):
        return 0.0
    return float(v.std(ddof=1))


def _mean_se(v: np.ndarray) -> float:
    """Standard error of the mean of v: _sample_sd(v)/sqrt(n)."""
    sd = _sample_sd(v)
    return float(sd / np.sqrt(v.size)) if sd else 0.0


def _check_delta(delta) -> float:
    delta = float(delta)
    if not 0.0 < delta < 1.0 / math.e:
        raise ValidationError(f"delta must lie in (0, 1/e), got {delta}")
    return delta


def _entropy_kernel(delta: float):
    """h_entropy for a delta already checked, on arrays u >= 0 (unchecked)."""
    slope = -math.log(delta) - 1.0
    h_delta = -delta * math.log(delta)

    def h(u):
        # the linear branch everywhere (NaN propagates through it), then
        # -u*ln(u), computed as -(ln(u)*u), on the gathered 0 < u <= delta
        # entries, and 0 at u <= 0.  A gather, not a where= mask: masked
        # ufuncs run their loop once per run of selected entries, which is
        # slower than np.where when the selected entries are scattered.
        u = np.asarray(u)
        out = np.subtract(u, delta, out=np.empty(u.shape))
        out *= slope
        out += h_delta
        curved = (u > 0.0) & (u <= delta)
        uc = u[curved]
        low = np.log(uc)
        low *= uc
        out[curved] = np.negative(low, out=low)
        np.copyto(out, 0.0, where=u <= 0.0)
        return out

    return h


def h_entropy(u, delta: float):
    """Entropy-type modulus: -u*ln(u) on [0, delta], linear above.

    The linear branch has slope (-ln(delta) - 1), the one-sided derivative at
    delta, so the function is concave, nondecreasing and C^1 away from 0.
    Defined for u >= 0 only; h(0) = 0.
    """
    delta = _check_delta(delta)
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise ValidationError("h_entropy is defined for u >= 0")
    out = _entropy_kernel(delta)(u)
    return float(out) if out.ndim == 0 else out


def q_trunc(y, alpha: float):
    """Radial truncation alpha*y/(|y| v alpha); maps everything to 0 if alpha == 0."""
    alpha = float(alpha)
    if alpha < 0:
        raise ValidationError(f"truncation radius must be >= 0, got {alpha}")
    y = np.asarray(y, dtype=float)
    if alpha == 0.0:
        return 0.0 if y.ndim == 0 else np.zeros_like(y)
    out = alpha * y / np.maximum(np.abs(y), alpha)
    return float(out) if y.ndim == 0 else out


@dataclass(frozen=True)
class Generator:
    """Driver of a scalar backward equation, with declared regularity metadata.

    Attributes
    ----------
    name : str
        Identifier used in reports and CSV manifests.
    eval : callable
        g(t, x, y, z) -> array, broadcasting over a leading batch axis.
    lipschitz_z : float
        Constant lambda with |g(t,x,y,z1) - g(t,x,y,z2)| <= lambda*|z1 - z2|.
    monotonicity_modulus : callable or None
        rho with (y1-y2)*(g(..,y1,z) - g(..,y2,z)) <= rho(|y1-y2|^2).  The
        Osgood property of rho (divergent integral of 1/rho at 0+) is a
        documentation-level contract; only the displayed inequality is
        checked numerically.
    growth_bound : callable or None
        psi(alpha, t) dominating sup_{|y|<=alpha} |g(t,x,y,0) - g(t,x,0,0)|
        uniformly in x.  Omitted when no x-uniform bound exists; consumers
        then fall back to an empirical sup over a y-grid.
    state_dependent : bool
        Whether eval actually reads x.
    """

    name: str
    eval: Callable
    lipschitz_z: float
    monotonicity_modulus: Callable | None = None
    growth_bound: Callable | None = None
    state_dependent: bool = False

    def __call__(self, t, x, y, z):
        return self.eval(t, x, y, z)


def _linear_generator(a: float, b, c: float) -> Generator:
    a = float(a)
    c = float(c)
    b = np.atleast_1d(np.asarray(b, dtype=float))

    def ev(t, x, y, z):
        z = np.asarray(z, dtype=float)
        if z.ndim == 0:
            if b.size == 1:
                zb = z * b[0]
            elif float(z) == 0.0:
                zb = 0.0
            else:
                raise ValidationError("scalar z is only valid for d == 1")
        elif b.size == 1 and z.shape[-1] == 1:
            zb = z[..., 0] * b[0]
        else:
            zb = z @ b
        return a * np.asarray(y, dtype=float) + zb + c

    return Generator(
        name="linear",
        eval=ev,
        lipschitz_z=float(np.linalg.norm(b)),
        monotonicity_modulus=lambda u: abs(a) * np.asarray(u, dtype=float),
        growth_bound=lambda alpha, t: abs(a) * float(alpha),
        state_dependent=False,
    )


def _z_abs_generator(scale: float) -> Generator:
    scale = float(scale)

    def ev(t, x, y, z):
        return scale * _norm_last(z) + 0.0 * np.asarray(y, dtype=float)

    return Generator(
        name="z_abs",
        eval=ev,
        lipschitz_z=abs(scale),
        monotonicity_modulus=lambda u: np.asarray(u, dtype=float),
        growth_bound=lambda alpha, t: 0.0,
        state_dependent=False,
    )


def _stress_generator(delta: float) -> Generator:
    # -exp(y|x|) + h(|y|) + |z|: continuous, non-Lipschitz in y at 0,
    # 1-Lipschitz in z, monotone up to the entropy modulus.  The entropy
    # kernel is built once: delta is checked here and |y| >= 0 needs no scan.
    h = _entropy_kernel(_check_delta(delta))

    def ev(t, x, y, z):
        y = np.asarray(y, dtype=float)
        expo = y * _norm_last(x)
        clipped = np.abs(expo) > EXP_CLAMP
        if np.any(clipped):
            warnings.warn(
                f"stress generator exponent clamped to +-{EXP_CLAMP} on "
                f"{int(np.count_nonzero(clipped))} evaluation(s)",
                RuntimeWarning,
                stacklevel=2,
            )
            expo = np.clip(expo, -EXP_CLAMP, EXP_CLAMP)
        # -exp + h + |z| accumulated in one buffer of the broadcast shape;
        # h - exp is bitwise -exp + h
        nz = _norm_last(z)
        out = np.exp(expo, out=np.empty(np.broadcast_shapes(np.shape(expo), np.shape(nz))))
        np.subtract(h(np.abs(y)), out, out=out)
        out += nz
        return out

    def modulus(u):
        # The entropy modulus itself bounds only |h(|y1|)-h(|y2|)|; the
        # product with |y1-y2| needs rho(u) = sqrt(u)*h(sqrt(u)), which is
        # concave, nondecreasing, vanishes at 0 and keeps the divergent
        # 1/rho integral.
        u = np.asarray(u, dtype=float)
        r = np.sqrt(u)
        return r * h(r)

    return Generator(
        name="stress",
        eval=ev,
        lipschitz_z=1.0,
        monotonicity_modulus=modulus,
        growth_bound=None,
        state_dependent=True,
    )


def _negative_exponential_generator() -> Generator:
    def ev(t, x, y, z):
        return -np.asarray(y, dtype=float)

    return Generator(
        name="negative_exponential",
        eval=ev,
        lipschitz_z=0.0,
        monotonicity_modulus=lambda u: 0.0 * np.asarray(u, dtype=float),
        growth_bound=lambda alpha, t: float(alpha),
        state_dependent=False,
    )


# name -> (factory, parameter defaults); a None default marks a required
# parameter
_BUILTINS = {
    "linear": (_linear_generator, {"a": 0.0, "b": 0.0, "c": 0.0}),
    "z_abs": (_z_abs_generator, {"scale": 1.0}),
    "stress": (_stress_generator, {"delta": None}),
    "negative_exponential": (_negative_exponential_generator, {}),
}


def builtin_generator(name: str, **params) -> Generator:
    """Construct one of the built-in generators by name.

    linear(a, b, c)        a*y + <b, z> + c
    z_abs(scale)           scale*|z|
    stress(delta)          -exp(y|x|) + h(|y|) + |z|, h the entropy modulus
    negative_exponential   -y

    Omitted parameters take their defaults (a = b = c = 0, scale = 1);
    delta has none.  An unknown name, a missing delta and a parameter the
    named generator does not take raise ValidationError.
    """
    if name not in _BUILTINS:
        raise ValidationError(f"unknown generator name {name!r}")
    factory, defaults = _BUILTINS[name]
    for key, default in defaults.items():
        if default is None and key not in params:
            raise ValidationError(f"{name} generator requires a {key} parameter")
    leftover = sorted(set(params) - set(defaults))
    if leftover:
        raise ValidationError(f"unexpected parameter(s) for {name}: {leftover}")
    return factory(**{**defaults, **params})


def check_generator_metadata(
    g: Generator,
    seed: int = 0,
    n_samples: int = 10_000,
    slack: float = 1e-10,
    state_dim: int = 1,
    z_dim: int = 1,
) -> None:
    """Confirm declared metadata on randomized tuples; raise with a witness.

    Samples (t, x, y, z) tuples and checks the z-Lipschitz constant, the
    monotonicity inequality against the declared modulus, and (if present)
    the growth bound.  Raises ValidationError carrying the first offending
    tuple.
    """
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 1.0, n_samples)
    x = rng.uniform(-3.0, 3.0, (n_samples, state_dim))
    y1 = rng.uniform(-3.0, 3.0, n_samples)
    y2 = rng.uniform(-3.0, 3.0, n_samples)
    z1 = rng.uniform(-3.0, 3.0, (n_samples, z_dim))
    z2 = rng.uniform(-3.0, 3.0, (n_samples, z_dim))

    # evaluations are vectorized over the batch but t is scalar per the
    # signature, so bucket by a few shared times
    for k in range(0, n_samples, 2000):
        sl = slice(k, min(k + 2000, n_samples))
        tk = float(t[sl].mean())
        xa, ya, yb, za, zb = x[sl], y1[sl], y2[sl], z1[sl], z2[sl]

        lhs = np.abs(g(tk, xa, ya, za) - g(tk, xa, ya, zb))
        bound = g.lipschitz_z * _norm_last(za - zb)
        bad = lhs > bound + slack
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ValidationError(
                f"{g.name}: z-Lipschitz violated at t={tk}, x={xa[i]}, "
                f"y={ya[i]}, z1={za[i]}, z2={zb[i]}: "
                f"|dg|={lhs[i]:.6e} > {bound[i]:.6e}"
            )

        if g.monotonicity_modulus is not None:
            dg = g(tk, xa, ya, za) - g(tk, xa, yb, za)
            lhs = (ya - yb) * dg
            bound = np.asarray(g.monotonicity_modulus((ya - yb) ** 2), dtype=float)
            bad = lhs > bound + slack
            if np.any(bad):
                i = int(np.argmax(bad))
                raise ValidationError(
                    f"{g.name}: monotonicity modulus violated at t={tk}, "
                    f"x={xa[i]}, y1={ya[i]}, y2={yb[i]}, z={za[i]}: "
                    f"lhs={lhs[i]:.6e} > rho={np.atleast_1d(bound)[i]:.6e}"
                )

        if g.growth_bound is not None:
            alpha = 3.0
            z0 = np.zeros_like(za)
            lhs = np.abs(g(tk, xa, ya, z0) - g(tk, xa, np.zeros_like(ya), z0))
            bound = g.growth_bound(alpha, tk)
            bad = lhs > bound + slack
            if np.any(bad):
                i = int(np.argmax(bad))
                raise ValidationError(
                    f"{g.name}: growth bound violated at t={tk}, x={xa[i]}, "
                    f"y={ya[i]}: {lhs[i]:.6e} > psi={bound:.6e}"
                )


@dataclass(frozen=True)
class BSDEProblem:
    """A scalar backward problem driven by a d-dimensional Brownian motion.

    terminal maps the full discrete forward path, shape (M, N+1, n), to the
    terminal values, shape (M,).  Path functionals are therefore allowed,
    not just functions of the final state.
    """

    generator: Generator
    t_start: float
    t_end: float
    dimension_d: int
    terminal: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise ValidationError(
                f"need t_start < t_end, got [{self.t_start}, {self.t_end}]"
            )
        if self.dimension_d < 1:
            raise ValidationError(f"dimension_d must be >= 1, got {self.dimension_d}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by the Monte Carlo experiments.

    Together with the inputs they fix every output byte; path sampling
    sizes its own thread pool (sample_brownian), which changes no result.
    """

    seed: int
    n_paths: int
    n_steps: int
    basis_degree: int = 3
    picard_max: int = 50
    picard_tol: float = 1e-10

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValidationError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.n_steps < 1:
            raise ValidationError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.basis_degree < 0:
            raise ValidationError(f"basis_degree must be >= 0, got {self.basis_degree}")
        if self.picard_max < 1:
            raise ValidationError(f"picard_max must be >= 1, got {self.picard_max}")
        if not self.picard_tol > 0:
            raise ValidationError(f"picard_tol must be > 0, got {self.picard_tol}")
