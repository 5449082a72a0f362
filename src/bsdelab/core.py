"""Core types: generators, problems, experiment configuration.

A generator is the driver g(t, x, y, z) of a scalar backward equation.  All
randomness enters through the explicit state argument x (typically the value
of the driving Brownian motion or of a forward diffusion), so evaluation is a
pure function and safe to call concurrently.  It has to be: a study with
K >= 2 windows (convergence_study) calls the driver from several threads at
once, so a driver must keep no mutable state and must not write to its
arguments.

Generator.__call__ is the one driver contract.  t is a float, x has shape
(..., n), y shape (...) and z shape (..., d); for d == 1, z may be a bare
scalar.  eval receives x, y and z as float arrays, and every caller gets
back a float array of the batch shape, np.broadcast_shapes(x.shape[:-1],
y.shape, z.shape[:-1]): eval's value as it is when it has that shape, else
a read-only broadcast view of it (a scalar value, for one).  A value that
does not broadcast to the batch shape raises ValidationError "<name>: g
returned shape (...) for a batch of shape (...)".
"""

from __future__ import annotations

import math
import numbers
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


def _require_integer(key: str, value) -> None:
    """Refuse a value that is not an integer with ValidationError "<key> must be
    an integer, got v"; a bool is an int but no count or seed, and numpy
    integers are Integral, so they pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{key} must be an integer, got {value!r}")


def _check_delta(delta) -> float:
    delta = float(delta)
    if not 0.0 < delta < 1.0 / math.e:
        raise ValidationError(f"delta must lie in (0, 1/e), got {delta}")
    return delta


def _entropy_kernel(delta: float):
    """Entropy-type modulus h for a delta already checked, on u >= 0 (unchecked):
    -u*ln(u) on [0, delta], linear above with the slope -ln(delta) - 1 it
    has at delta, so concave, nondecreasing, C^1 away from 0 and h(0) = 0."""
    slope = -math.log(delta) - 1.0
    h_delta = -delta * math.log(delta)

    def h(u):
        # the linear branch everywhere (NaN propagates through it), then
        # -u*ln(u), computed as -(ln(u)*u), on the gathered 0 < u <= delta
        # entries, and 0 at u <= 0.  The curved entries are few in a sweep
        # (a median 1.4% of them, none in one call of six), so they are
        # gathered and scattered through their index arrays: at M = 1e5
        # and 15% curved, a boolean-mask gather and scatter take 332 and
        # 313 us, np.nonzero and the two index moves 73, 11 and 22 us.
        # A masked copyto (327 us) and a where= ufunc loop are no faster
        # than the mask.  A 0-d u keeps the mask, which indexes it whole.
        u = np.asarray(u)
        out = np.subtract(u, delta, out=np.empty(u.shape))
        out *= slope
        out += h_delta
        curved = (u > 0.0) & (u <= delta)
        if u.ndim:
            curved = np.nonzero(curved)
        uc = u[curved]
        low = np.log(uc)
        low *= uc
        out[curved] = np.negative(low, out=low)
        np.copyto(out, 0.0, where=u <= 0.0)
        return out

    return h


def _check_alpha(alpha) -> float:
    """alpha as a float; a truncation radius that is not finite and >= 0, NaN included, raises."""
    alpha = float(alpha)
    if not 0 <= alpha < math.inf:
        raise ValidationError(f"truncation radius alpha must be finite and >= 0, got {alpha}")
    return alpha


def q_trunc(y, alpha: float):
    """Radial truncation alpha*y/(|y| v alpha); maps everything to 0 if alpha == 0."""
    alpha = _check_alpha(alpha)
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
        g(t, x, y, z) -> array, broadcasting over a leading batch axis.  It
        receives x, y and z as float arrays; calling the Generator returns
        its value as a float array of the batch shape, which may be a
        read-only view (module docstring); a value that does not
        broadcast to it raises ValidationError.
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
        Whether eval actually reads x.  False is a declaration that
        check_generator_metadata checks and the quotient study refuses
        when g at its realized time-t state differs from g at x.
    y_slope : float or None
        A declaration that g is affine in y: g(t,x,y,z) = g(t,x,0,z) +
        y_slope*y.  The backward sweep then solves each implicit step in
        closed form; None (the default) leaves it to the secant iteration.
        A value that is not a finite float raises ValidationError.
    g0_state_free : bool
        A declaration that g(t, x, 0, 0) does not depend on x.  The stop
        pass (paths.stopping_indices) then evaluates g(t, x, 0, 0) on every
        path at each window's first step only, refusing any path whose
        value differs in a bit from path 0's (HypothesisError), and on one
        path at every later step.  state_dependent=False implies it, so it
        is stored as True for such a driver; stress declares it.

    eval must be pure: a study with K >= 2 windows calls it from several
    threads at once, so it keeps no mutable state and writes to none of
    its arguments.  A warning it raises (the stress driver's exponent
    clamp) reaches the caller's warning filters from any thread.
    """

    name: str
    eval: Callable
    lipschitz_z: float
    monotonicity_modulus: Callable | None = None
    growth_bound: Callable | None = None
    state_dependent: bool = False
    y_slope: float | None = None
    g0_state_free: bool = False

    def __post_init__(self):
        if not self.state_dependent:
            object.__setattr__(self, "g0_state_free", True)
        if self.y_slope is not None:
            # isfinite refuses NaN and +-inf; a bool is an int but no slope
            ok = isinstance(self.y_slope, numbers.Real) and not isinstance(self.y_slope, bool)
            if not (ok and math.isfinite(self.y_slope)):
                raise ValidationError(
                    f"{self.name}: y_slope must be a finite float or None, got {self.y_slope!r}"
                )
            object.__setattr__(self, "y_slope", float(self.y_slope))

    def __call__(self, t, x, y, z):
        x, y, z = np.asarray(x, dtype=float), np.asarray(y, dtype=float), np.asarray(z, dtype=float)
        shape = np.broadcast_shapes(x.shape[:-1], y.shape, z.shape[:-1])
        value = np.asarray(self.eval(t, x, y, z), dtype=float)
        try:
            return value if value.shape == shape else np.broadcast_to(value, shape)
        except ValueError:
            raise ValidationError(
                f"{self.name}: g returned shape {value.shape} for a batch of shape {shape}"
            ) from None


def _linear_generator(a: float, b, c: float) -> Generator:
    a = float(a)
    c = float(c)
    b = np.atleast_1d(np.asarray(b, dtype=float))

    def ev(t, x, y, z):
        if z.ndim == 0:
            if b.size == 1:
                zb = z * b[0]
            elif float(z) == 0.0:
                zb = 0.0
            else:
                raise ValidationError("scalar z is only valid for d == 1")
        elif b.size == 1 and z.shape[-1] == 1:
            zb = z[..., 0] * b[0]
        elif b.size == z.shape[-1]:
            zb = z @ b
        elif b.size == 1 and b[0] == 0.0:
            zb = 0.0
        else:
            raise ValidationError(
                f"linear generator: b has size {b.size} but z has {z.shape[-1]} coordinate(s)"
            )
        return a * y + zb + c

    return Generator(
        name="linear",
        eval=ev,
        lipschitz_z=float(np.linalg.norm(b)),
        monotonicity_modulus=lambda u: abs(a) * np.asarray(u, dtype=float),
        growth_bound=lambda alpha, t: abs(a) * float(alpha),
        state_dependent=False,
        y_slope=a,
    )


def _z_abs_generator(scale: float) -> Generator:
    scale = float(scale)

    def ev(t, x, y, z):
        return scale * _norm_last(z) + 0.0 * y

    return Generator(
        name="z_abs",
        eval=ev,
        lipschitz_z=abs(scale),
        monotonicity_modulus=lambda u: np.asarray(u, dtype=float),
        growth_bound=lambda alpha, t: 0.0,
        state_dependent=False,
        y_slope=0.0,
    )


def _stress_generator(delta: float) -> Generator:
    # -exp(y|x|) + h(|y|) + |z|: continuous, non-Lipschitz in y at 0,
    # 1-Lipschitz in z, monotone up to the entropy modulus.  The entropy
    # kernel is built once: delta is checked here and |y| >= 0 needs no scan.
    h = _entropy_kernel(_check_delta(delta))

    def ev(t, x, y, z):
        expo = y * _norm_last(x)
        # two reductions pass a clean call; the exact count runs only when
        # they fail, a NaN included (negated <= and >= fail on NaN, and
        # the count then ignores it)
        clipped = 0
        if expo.size and not (expo.max() <= EXP_CLAMP and expo.min() >= -EXP_CLAMP):
            clipped = int(np.count_nonzero(np.abs(expo) > EXP_CLAMP))
        if clipped:
            warnings.warn(
                f"stress generator exponent clamped to +-{EXP_CLAMP} on "
                f"{clipped} evaluation(s)",
                RuntimeWarning,
                stacklevel=2,
            )
            expo = np.clip(expo, -EXP_CLAMP, EXP_CLAMP)
        # -exp + h + |z| accumulated in one buffer of the broadcast shape,
        # expo's own where it has that shape (it is a fresh array), with |z|
        # formed last: the windows of a study evaluate side by side, so
        # each live temporary counts once per worker.  h - exp is bitwise
        # -exp + h
        shape = np.broadcast_shapes(np.shape(expo), np.shape(z)[:-1] if np.ndim(z) else ())
        own = isinstance(expo, np.ndarray) and expo.shape == shape
        out = np.exp(expo, out=expo if own else np.empty(shape))
        np.subtract(h(np.abs(y)), out, out=out)
        out += _norm_last(z)
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
        # g(t, x, 0, 0) = h(0) - exp(0*|x|) + |0| = -1 at every x
        g0_state_free=True,
    )


def _negative_exponential_generator() -> Generator:
    def ev(t, x, y, z):
        return -y

    return Generator(
        name="negative_exponential",
        eval=ev,
        lipschitz_z=0.0,
        monotonicity_modulus=lambda u: 0.0 * np.asarray(u, dtype=float),
        growth_bound=lambda alpha, t: float(alpha),
        state_dependent=False,
        y_slope=-1.0,
    )


# name -> (factory, parameter defaults), the CLI's generator keys; a None
# default marks a required parameter and a tuple a list-valued one
_BUILTINS = {
    "linear": (_linear_generator, {"a": 0.0, "b": (0.0,), "c": 0.0}),
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
    named generator does not take raise ValidationError.  linear's b has
    one entry per z coordinate; a single b = 0 contributes 0 at any d, and
    evaluating with any other mismatch raises ValidationError.
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


# a witness shown as the failing entry's own index (a path, a node), with no index array built
_INDEX = object()


def _named(i: int, named: dict) -> str:
    """k=v for each of named at entry i: an array's entry i, _INDEX as i, a scalar whole."""
    shown = (i if v is _INDEX else v[i] if np.ndim(v) else v for v in named.values())
    return ", ".join(f"{k}={v}" for k, v in zip(named, shown))


def _require(ok: np.ndarray, error, message: str, witness: dict, detail) -> None:
    """Raise error "<message> at <witness>: <detail(i)>" at the first False entry i of ok."""
    if not ok.all():
        i = int(np.argmin(ok))
        raise error(f"{message} at {_named(i, witness)}: {detail(i)}")


def _require_le(lhs, bound, error, message: str, **witness) -> None:
    """Raise error at the first entry where lhs <= bound fails, NaN included (_require);
    lhs and bound broadcast to one 1-D shape, and the detail reads "<lhs> not <= <bound>"."""
    lhs, bound = np.asarray(lhs, dtype=float), np.asarray(bound, dtype=float)
    # <= is False where either side is NaN
    ok = lhs <= bound

    def detail(i):
        a, b = (np.broadcast_to(v, ok.shape)[i] for v in (lhs, bound))
        return f"{a:.6e} not <= {b:.6e}"

    _require(ok, error, message, witness, detail)


def _require_finite(values: dict, error, message: str, **witness) -> None:
    """Raise error at the first entry where an array of values is NaN or +-inf (_require).

    values maps names to arrays over the entries (a row of a 2-D one is one
    entry, a 0-d one counts for all), shown k=v in the detail.  A pass reads
    each array twice, in isfinite and its all()."""
    if all(np.isfinite(v).all() for v in values.values()):
        return
    rows = [np.isfinite(v).reshape(np.shape(v)[:1] + (-1,)).all(axis=-1) for v in values.values()]
    ok = np.logical_and.reduce(np.broadcast_arrays(*rows))
    _require(ok, error, message, witness, lambda i: _named(i, values))


def _over_time(f, t0: float, t1: float, n: int, size: int, *args):
    """f(t, *args) on n sampled tuples, in chunks of at most size rows, each at its own time.

    A driver takes a scalar t, so a check evaluates its tuples a chunk at a
    time; f gets the chunk's rows of each of args (an f of t alone, none).
    The chunk times are evenly spaced over [t0, t1], both ends included,
    with two chunks at least, so a check sees the whole interval.  Returns
    each row's time and f's values, broadcast to one per row.
    """
    k = min(n, max(2, -(-n // size)))
    times, edges = np.linspace(t0, t1, k), np.linspace(0, n, k + 1).astype(int)
    values = [
        np.broadcast_to(np.asarray(f(tk, *(a[lo:hi] for a in args)), dtype=float), (hi - lo,))
        for tk, lo, hi in zip(times, edges[:-1], edges[1:])
    ]
    return np.repeat(times, np.diff(edges)), np.concatenate(values)


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
    the growth bound, the affine declaration y_slope, g(t,x,y,z) -
    g(t,x,0,z) = y_slope*y, and the state-freedom a driver declares:
    g(t,x,y,z) = g(t,0,y,z) for state_dependent=False, which implies the
    rest, or else g(t,x,0,0) = g(t,0,0,0) for g0_state_free, each within
    slack.  The tuples' times come in
    chunks of 2000 whose times are evenly spaced over [0, 1], both ends
    included.  A NaN on either side of an inequality violates it.  Raises
    ValidationError carrying the first offending tuple; so does an
    n_samples below 1, which would check nothing.
    """
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 3.0, (n_samples, state_dim))
    y1 = rng.uniform(-3.0, 3.0, n_samples)
    y2 = rng.uniform(-3.0, 3.0, n_samples)
    z1 = rng.uniform(-3.0, 3.0, (n_samples, z_dim))
    z2 = rng.uniform(-3.0, 3.0, (n_samples, z_dim))
    y0 = np.zeros(n_samples)
    z0 = np.zeros_like(z1)

    def G(y, z):
        return _over_time(g, 0.0, 1.0, n_samples, 2000, x, y, z)[1]

    def require(lhs, bound, what, **witness):
        message = f"{g.name}: {what} violated"
        _require_le(lhs, bound + slack, ValidationError, message, t=t, x=x, **witness)

    t, g11 = _over_time(g, 0.0, 1.0, n_samples, 2000, x, y1, z1)
    lip = g.lipschitz_z * _norm_last(z1 - z2)
    require(np.abs(g11 - G(y1, z2)), lip, "z-Lipschitz bound", y=y1, z1=z1, z2=z2)
    if g.monotonicity_modulus is not None:
        rho = np.asarray(g.monotonicity_modulus((y1 - y2) ** 2), dtype=float)
        require((y1 - y2) * (g11 - G(y2, z1)), rho, "monotonicity modulus", y1=y1, y2=y2, z=z1)
    if g.growth_bound is not None:
        psi = _over_time(lambda tk: g.growth_bound(3.0, tk), 0.0, 1.0, n_samples, 2000)[1]
        require(np.abs(G(y1, z0) - G(y0, z0)), psi, "growth bound psi(3, t)", y=y1)
    if g.y_slope is not None:
        dg = g11 - G(y0, z1)
        require(np.abs(dg - g.y_slope * y1), 0.0, f"y_slope {g.y_slope}", y=y1, z=z1, dg=dg)
    if not g.state_dependent:
        g_origin = _over_time(g, 0.0, 1.0, n_samples, 2000, np.zeros_like(x), y1, z1)[1]
        require(
            np.abs(g11 - g_origin), 0.0, "state-free g(t, x, y, z)", y=y1, z=z1, g=g11,
            g_origin=g_origin,
        )
    elif g.g0_state_free:
        g0 = G(y0, z0)
        g0_origin = _over_time(g, 0.0, 1.0, n_samples, 2000, np.zeros_like(x), y0, z0)[1]
        require(
            np.abs(g0 - g0_origin), 0.0, "state-free g(t, x, 0, 0)", g0=g0, g0_origin=g0_origin
        )


@dataclass(frozen=True)
class BSDEProblem:
    """A scalar backward problem driven by a d-dimensional Brownian motion.

    terminal maps the full discrete forward path, shape (M, N+1, n), to the
    terminal values, shape (M,).  Path functionals are therefore allowed,
    not just functions of the final state.  The ends must be finite with
    t_start < t_end, and dimension_d an integer >= 1; any others raise
    ValidationError.
    """

    generator: Generator
    t_start: float
    t_end: float
    dimension_d: int
    terminal: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        # as in TimeGrid: the width is finite only for finite ends; NaN fails the <
        if not (self.t_start < self.t_end and math.isfinite(self.t_end - self.t_start)):
            raise ValidationError(
                f"need finite t_start < t_end, got [{self.t_start}, {self.t_end}]"
            )
        _require_integer("dimension_d", self.dimension_d)
        if self.dimension_d < 1:
            raise ValidationError(f"dimension_d must be >= 1, got {self.dimension_d}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by the Monte Carlo experiments.

    Together with the inputs they fix every output byte; path sampling
    and the windows of a study size their own thread pool, one worker per
    usable CPU (paths._side_by_side), which changes no result.
    """

    seed: int
    n_paths: int
    n_steps: int
    basis_degree: int = 3
    picard_max: int = 50
    picard_tol: float = 1e-10

    def __post_init__(self):
        # a float seed would key the same Philox stream as its integer part
        _require_integer("seed", self.seed)
        for name, least in (("n_paths", 1), ("n_steps", 1), ("basis_degree", 0), ("picard_max", 1)):
            count = getattr(self, name)
            _require_integer(name, count)
            if count < least:
                raise ValidationError(f"{name} must be >= {least}, got {count}")
        # an infinite tolerance would stop every implicit step after one
        # evaluation
        if not 0 < self.picard_tol < math.inf:
            raise ValidationError(f"picard_tol must be finite and > 0, got {self.picard_tol}")
