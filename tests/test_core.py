import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsdelab import (
    BSDEProblem,
    ExperimentConfig,
    Generator,
    ValidationError,
    builtin_generator,
    check_generator_metadata,
)
from bsdelab.core import (
    _INDEX,
    EXP_CLAMP,
    _entropy_kernel,
    _norm_last,
    _require_finite,
    _require_le,
    q_trunc,
)
from bsdelab.envelope import convergence_curve
from bsdelab.errors import HypothesisError, NumericalError
from bsdelab.feynmankac import PDEProblem, fd_reference
from bsdelab.paths import TimeGrid, WindowStack, euler_maruyama, sample_brownian, stopping_indices
from bsdelab.representation import convergence_study
from bsdelab.solver import solve_bsde


class TestEntropyModulus:
    def test_frozen_value_on_linear_branch(self):
        # hand derivation for delta = 0.1, u = 0.2 > delta:
        #   slope = -ln(0.1) - 1 = ln(10) - 1
        #   h = slope*(0.2 - 0.1) + (-0.1*ln(0.1))
        #     = 0.1*(ln 10 - 1) + 0.1*ln 10 = 0.2*ln 10 - 0.1
        expected = 0.2 * math.log(10.0) - 0.1
        assert _entropy_kernel(0.1)(0.2) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.3605170185988091, abs=1e-15)

    def test_curved_branch_and_origin(self):
        assert _entropy_kernel(0.1)(0.0) == 0.0
        u = 0.05
        assert _entropy_kernel(0.1)(u) == pytest.approx(-u * math.log(u), abs=1e-15)

    def test_continuity_and_smoothness_at_knee(self):
        delta = 0.2
        h = _entropy_kernel(delta)
        below = h(delta - 1e-9)
        above = h(delta + 1e-9)
        assert abs(above - below) < 1e-7
        # one-sided slopes agree by construction
        d_below = (h(delta) - h(delta - 1e-6)) / 1e-6
        d_above = (h(delta + 1e-6) - h(delta)) / 1e-6
        assert d_below == pytest.approx(d_above, abs=1e-4)

    @pytest.mark.parametrize("delta", [0.0, -0.1, 1.0 / math.e, 0.5])
    def test_delta_domain(self, delta):
        with pytest.raises(ValidationError, match="delta must lie in"):
            builtin_generator("stress", delta=delta)

    @settings(max_examples=200, deadline=None)
    @given(
        u=st.floats(0.0, 0.3),
        v=st.floats(0.0, 0.3),
    )
    def test_concave_and_nondecreasing(self, u, v):
        h = _entropy_kernel(0.1)
        mid = h(0.5 * (u + v))
        assert mid >= 0.5 * (h(u) + h(v)) - 1e-12
        lo, hi = sorted((u, v))
        assert h(hi) >= h(lo) - 1e-15

    def test_vectorized(self):
        u = np.array([0.0, 0.05, 0.1, 0.3])
        out = _entropy_kernel(0.1)(u)
        assert out.shape == u.shape
        assert out[0] == 0.0


class TestTruncation:
    def test_examples(self):
        assert q_trunc(-3.0, 2.0) == pytest.approx(-2.0)
        assert q_trunc(1.5, 2.0) == pytest.approx(1.5)
        assert q_trunc(0.0, 2.0) == 0.0

    def test_zero_radius_collapses(self):
        assert q_trunc(5.0, 0.0) == 0.0
        assert np.all(q_trunc(np.array([1.0, -2.0]), 0.0) == 0.0)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValidationError):
            q_trunc(1.0, -1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        y1=st.floats(-10, 10),
        y2=st.floats(-10, 10),
        alpha=st.floats(0.01, 5.0),
    )
    def test_one_lipschitz_and_bounded(self, y1, y2, alpha):
        q1, q2 = q_trunc(y1, alpha), q_trunc(y2, alpha)
        assert abs(q1 - q2) <= abs(y1 - y2) + 1e-12
        assert abs(q1) <= alpha + 1e-12


def _mixed_magnitudes(rng, shape):
    # signed values from 1e-150 to 1e150 (squares stay normal), exact zeros
    v = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-150, 150, shape)
    v[rng.random(shape) < 0.1] = 0.0
    return v


def _h_entropy_by_mask(u, delta):
    # the general piecewise formula, assembled by boolean-mask scatter
    u = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.empty_like(u)
    low = u <= delta
    with np.errstate(divide="ignore", invalid="ignore"):
        out[low] = np.where(u[low] > 0.0, -u[low] * np.log(u[low]), 0.0)
    out[~low] = (-math.log(delta) - 1.0) * (u[~low] - delta) - delta * math.log(delta)
    return out


class TestFastPathsBitIdentical:
    """d = 1 and vectorized shortcuts against the general formulas, exactly."""

    @pytest.mark.parametrize("seed", range(5))
    def test_linear_scalar_b(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = rng.normal(size=3)
        g = builtin_generator("linear", a=a, b=b, c=c)
        y = _mixed_magnitudes(rng, 2000)
        z = _mixed_magnitudes(rng, (2000, 1))
        want = a * y + z @ np.array([b]) + c
        assert np.array_equal(g(0.0, None, y, z), want)

    @pytest.mark.parametrize("shape", [(2000, 1), (40, 50, 1)])
    def test_norm_last_axis_one(self, shape):
        v = _mixed_magnitudes(np.random.default_rng(len(shape)), shape)
        assert np.array_equal(_norm_last(v), np.sqrt(np.sum(v * v, axis=-1)))

    @pytest.mark.parametrize("delta", [0.01, 0.1, 0.3])
    def test_h_entropy(self, delta):
        rng = np.random.default_rng(7)
        u = np.concatenate(
            [
                [0.0, delta, np.nextafter(delta, 0.0), np.nextafter(delta, 1.0)],
                rng.uniform(0.0, 2.0 * delta, 2000),
                np.abs(_mixed_magnitudes(rng, 2000)),
            ]
        )
        assert np.array_equal(_entropy_kernel(delta)(u), _h_entropy_by_mask(u, delta))
        assert _entropy_kernel(delta)(delta) == _h_entropy_by_mask(delta, delta)[0]

    @pytest.mark.parametrize("delta", [0.01, 0.1, 0.3])
    def test_stress_generator(self, delta):
        # the generator builds its entropy kernel once; its values and its
        # modulus must equal the formulas with h assembled by mask scatter
        rng = np.random.default_rng(11)
        special = [0.0, delta, np.nextafter(delta, 0.0), np.nextafter(delta, 1.0), np.nan]
        y = np.concatenate([special, np.negative(special), rng.uniform(-3.0, 3.0, 2000)])
        x = rng.uniform(-2.0, 2.0, (y.size, 1))
        z = rng.normal(size=(y.size, 1))
        g = builtin_generator("stress", delta=delta)
        want = -np.exp(y * np.abs(x[:, 0])) + _h_entropy_by_mask(np.abs(y), delta) + np.abs(z[:, 0])
        assert np.array_equal(g(0.0, x, y, z), want, equal_nan=True)
        assert np.count_nonzero(np.isnan(want)) == 2
        u = np.concatenate([np.square(special[:4]), rng.uniform(0.0, 1.0, 2000)])
        r = np.sqrt(u)
        assert np.array_equal(g.monotonicity_modulus(u), r * _h_entropy_by_mask(r, delta))


def _entropy_kernel_by_where(delta):
    # the np.where kernel that the masked in-place one replaced, kept as its
    # exact oracle
    slope = -math.log(delta) - 1.0
    h_delta = -delta * math.log(delta)

    def h(u):
        with np.errstate(divide="ignore", invalid="ignore"):
            low = np.where(u > 0.0, -u * np.log(u), 0.0)
        return np.where(u <= delta, low, slope * (u - delta) + h_delta)

    return h


def _stress_by_where(delta, x, y, z):
    # the stress generator's allocating expression (without its warning),
    # kept as the exact oracle of the in-place accumulation
    y = np.asarray(y, dtype=float)
    expo = y * _norm_last(x)
    if np.any(np.abs(expo) > EXP_CLAMP):
        expo = np.clip(expo, -EXP_CLAMP, EXP_CLAMP)
    return -np.exp(expo) + _entropy_kernel_by_where(delta)(np.abs(y)) + _norm_last(z)


def _y_values(delta):
    # zeros of both signs, the knee, NaN, the curved branch and beyond it
    return st.one_of(
        st.sampled_from([0.0, -0.0, delta, -delta, math.nan]),
        st.floats(-delta, delta),
        st.floats(-3.0, 3.0),
    )


class _Drawn:
    """Stands in for st.data() in an @example: draw returns the given values in turn."""

    def __init__(self, *values):
        self.values = iter(values)

    def draw(self, strategy):
        return next(self.values)


class TestInPlaceKernelsBitIdentical:
    """The index-gathered entropy kernel and the in-place stress accumulation
    against the np.where expressions they replaced, exactly, on every input
    shape."""

    @settings(max_examples=200, deadline=None)
    # a curved entry behind a linear one in a single row: flat indices
    # into an (M, d) u would index its first axis out of range
    @example(data=_Drawn([1.0, 0.05]), delta=0.1, shape="(M, d)", M=1, d=2)
    @given(
        data=st.data(),
        delta=st.floats(0.01, 0.35),
        shape=st.sampled_from(["0-d", "(M,)", "(M, d)"]),
        M=st.integers(1, 40),
        d=st.integers(1, 3),
    )
    def test_entropy_kernel(self, data, delta, shape, M, d):
        dims = {"0-d": (), "(M,)": (M,), "(M, d)": (M, d)}[shape]
        size = math.prod(dims)
        vals = data.draw(st.lists(_y_values(delta), min_size=size, max_size=size))
        u = np.abs(np.array(vals, dtype=float)).reshape(dims)
        got = _entropy_kernel(delta)(u)
        want = _entropy_kernel_by_where(delta)(u)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want, equal_nan=True)

    @settings(max_examples=200, deadline=None)
    # a NaN beside an exponent past +-EXP_CLAMP (|x| = 36 on path 1 at
    # seed 1): the NaN fails a bare max/min test, which must still warn
    @example(
        data=_Drawn([math.nan, 2.0]), delta=0.1, layout="paths", M=2, n=1, d=1, x_scale=40.0,
        seed=1,
    )
    @example(
        data=_Drawn([math.nan, -2.0]), delta=0.1, layout="paths", M=2, n=1, d=1, x_scale=40.0,
        seed=1,
    )
    @given(
        data=st.data(),
        delta=st.floats(0.01, 0.35),
        layout=st.sampled_from(["0-d", "paths", "0-d y on paths", "paths on one x"]),
        M=st.integers(1, 40),
        n=st.integers(1, 2),
        d=st.integers(1, 3),
        x_scale=st.sampled_from([1.0, 40.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stress_generator(self, data, delta, layout, M, n, d, x_scale, seed):
        # "paths on one x" is the envelope scan's call: y (M,), x (n,), z = 0
        rng = np.random.default_rng(seed)
        y_dims = (M,) if layout in ("paths", "paths on one x") else ()
        x_dims = (M, n) if layout in ("paths", "0-d y on paths") else (n,)
        size = math.prod(y_dims)
        vals = data.draw(st.lists(_y_values(delta), min_size=size, max_size=size))
        y = np.array(vals, dtype=float).reshape(y_dims)
        x = x_scale * rng.uniform(-1.0, 1.0, x_dims)
        if layout == "paths on one x":
            z = 0.0
        else:
            z = rng.normal(size=x_dims[:-1] + (d,))
        g = builtin_generator("stress", delta=delta)
        want = _stress_by_where(delta, x, y, z)
        if np.any(np.abs(y * _norm_last(x)) > EXP_CLAMP):
            with pytest.warns(RuntimeWarning, match="clamped"):
                got = g(0.0, x, y, z)
        else:
            got = g(0.0, x, y, z)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("share", [0.0, 0.014, 0.15])
    def test_entropy_kernel_at_sweep_size(self, share):
        # a sweep's |y| at M = 1e5: none, 1.4% (the median call) or 15%
        # of the entries on the curved branch, the rest zeros and beyond
        # the knee, in scattered order
        delta, M = 0.1, 100_000
        rng = np.random.default_rng(17)
        u = rng.uniform(delta, 3.0, M)
        u[rng.random(M) < 0.01] = 0.0
        curved = rng.choice(M, int(share * M), replace=False)
        u[curved] = rng.uniform(0.0, delta, curved.size)
        u[curved[:1]] = delta
        assert np.count_nonzero((u > 0) & (u <= delta)) == curved.size
        assert np.array_equal(_entropy_kernel(delta)(u), _entropy_kernel_by_where(delta)(u))


class TestBuiltinGenerators:
    def test_linear_values(self):
        g = builtin_generator("linear", a=2.0, b=[1.0, -1.0], c=0.5)
        z = np.array([[0.3, 0.1]])
        out = g(0.0, np.zeros((1, 2)), np.array([1.0]), z)
        assert out[0] == pytest.approx(2.0 + 0.2 + 0.5)
        assert g.lipschitz_z == pytest.approx(math.sqrt(2.0))

    def test_linear_scalar_z(self):
        g = builtin_generator("linear", b=0.7)
        assert g(0.0, 0.0, 0.0, 2.0) == pytest.approx(1.4)
        g2 = builtin_generator("linear", b=[1.0, 2.0])
        assert g2(0.0, 0.0, 1.0, 0.0) == pytest.approx(0.0)
        with pytest.raises(ValidationError):
            g2(0.0, 0.0, 1.0, 3.0)

    def test_z_abs(self):
        g = builtin_generator("z_abs", scale=2.0)
        out = g(0.0, None, np.zeros(1), np.array([[3.0, 4.0]]))
        assert out[0] == pytest.approx(10.0)

    def test_stress_requires_delta(self):
        with pytest.raises(ValidationError):
            builtin_generator("stress")
        with pytest.raises(ValidationError):
            builtin_generator("stress", delta=0.9)

    def test_stress_value(self):
        g = builtin_generator("stress", delta=0.1)
        x = np.array([[2.0]])
        y = np.array([0.2])
        z = np.array([[0.5]])
        expected = -math.exp(0.4) + _entropy_kernel(0.1)(0.2) + 0.5
        assert g(0.3, x, y, z)[0] == pytest.approx(expected, abs=1e-12)
        assert g.state_dependent

    def test_stress_exponent_clamp_warns(self):
        g = builtin_generator("stress", delta=0.1)
        with pytest.warns(RuntimeWarning, match="clamped"):
            out = g(0.0, np.array([[3.0]]), np.array([30.0]), np.zeros((1, 1)))
        assert np.isfinite(out[0])
        assert out[0] <= -math.exp(EXP_CLAMP) + _entropy_kernel(0.1)(30.0)

    def test_negative_exponential(self):
        g = builtin_generator("negative_exponential")
        assert g(0.0, None, np.array([2.0]), None)[0] == -2.0

    def test_unknown_name_and_leftover_params(self):
        with pytest.raises(ValidationError):
            builtin_generator("cubic")
        with pytest.raises(ValidationError, match="unexpected"):
            builtin_generator("linear", delta=0.1)
        with pytest.raises(ValidationError, match="unexpected"):
            builtin_generator("negative_exponential", a=1.0)


class TestDriverContract:
    """Generator.__call__ hands every caller a float array of the batch shape."""

    @settings(max_examples=10, deadline=None)
    # + 0.0 turns -0.0 into the +0.0 that linear's 0*y + 0*z + c gives
    @given(c=st.floats(-1.0, 1.0).map(lambda c: c + 0.0))
    def test_scalar_value_gives_the_bits_of_the_builtin(self, c):
        # eval returns the Python float c, which __call__ alone broadcasts
        config = ExperimentConfig(seed=0, n_paths=200, n_steps=50)

        def run(g):
            study = convergence_study(g, 0.5, 0.0, 1.0, 0.0, [0.1, 0.05], config)
            return _solve(g), study, _fd(g=g)

        const = Generator(name="const", eval=lambda t, x, y, z: c, lipschitz_z=0.0, y_slope=0.0)
        linear = builtin_generator("linear", c=c)
        (sol, study, field), (sol_l, study_l, field_l) = run(const), run(linear)
        assert sol.Y.tobytes() == sol_l.Y.tobytes()
        assert sol.telescoped.tobytes() == sol_l.telescoped.tobytes()
        assert repr(study) == repr(study_l)
        assert field.u.tobytes() == field_l.u.tobytes()

    def test_eval_gets_float_arrays_and_its_value_of_the_batch_shape_back(self):
        seen = []

        def ev(t, x, y, z):
            seen.extend((x, y, z))
            return y

        y = np.arange(3.0)
        assert Generator(name="own", eval=ev, lipschitz_z=0.0)(0.0, [[0], [1], [2]], y, 0) is y
        assert [v.dtype for v in seen] == [float] * 3
        # a scalar value comes back as a read-only broadcast of the batch shape
        out = Generator(name="const", eval=lambda t, x, y, z: 1.5, lipschitz_z=0.0)(
            0.0, np.zeros((3, 2)), np.zeros(3), np.zeros((3, 1))
        )
        assert out.shape == (3,) and out.dtype == float and not out.flags.writeable


def _late(early, late):
    """A driver that is early(y, z) for t <= 0.8 and late(y, z) after, z of size 1."""
    return lambda t, x, y, z: (early if t <= 0.8 else late)(np.asarray(y), np.asarray(z)[..., 0])


class TestMetadataCheck:
    @pytest.mark.parametrize(
        "gen",
        [
            builtin_generator("linear", a=-2.0, b=[0.5], c=1.0),
            builtin_generator("z_abs", scale=1.5),
            builtin_generator("negative_exponential"),
        ],
    )
    def test_builtins_pass(self, gen):
        check_generator_metadata(gen, seed=0, n_samples=4000)

    def test_stress_passes(self):
        g = builtin_generator("stress", delta=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            check_generator_metadata(g, seed=0, n_samples=4000)

    def test_stress_small_delta_passes(self):
        g = builtin_generator("stress", delta=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            check_generator_metadata(g, seed=1, n_samples=4000)

    def test_product_modulus_is_the_right_one(self):
        # h alone cannot serve as the one-sided modulus: at y1=2, y2=0 the
        # increment product (y1-y2)(h(|y1|)-h(|y2|)) is 2*h(2), which
        # exceeds h(|y1-y2|^2) = h(4).  The declared sqrt(u)*h(sqrt(u))
        # equals the product at that pair and dominates everywhere because
        # concavity with h(0)=0 gives |h(a)-h(b)| <= h(|a-b|).
        delta = 0.1
        # frozen from 2*((ln 10 - 1)*1.9 + 0.1*ln 10) etc.
        h = _entropy_kernel(delta)
        prod = 2.0 * h(2.0)
        assert prod == pytest.approx(5.4103404, abs=1e-6)
        assert h(4.0) == pytest.approx(5.3103405, abs=1e-6)
        assert prod > h(4.0)

        rho = builtin_generator("stress", delta=delta).monotonicity_modulus
        assert rho(4.0) == pytest.approx(prod, rel=1e-12)
        rng = np.random.default_rng(9)
        y1 = rng.uniform(-6, 6, 4000)
        y2 = rng.uniform(-6, 6, 4000)
        lhs = (y1 - y2) * (h(np.abs(y1)) - h(np.abs(y2)))
        assert np.all(lhs <= rho((y1 - y2) ** 2) + 1e-12)

    def test_understated_lipschitz_caught(self):
        lying = Generator(
            name="lying",
            eval=lambda t, x, y, z: 2.0 * np.abs(np.asarray(z)[..., 0]),
            lipschitz_z=1.0,
        )
        with pytest.raises(ValidationError, match="Lipschitz"):
            check_generator_metadata(lying, seed=0, n_samples=4000)

    def test_understated_modulus_caught(self):
        lying = Generator(
            name="lying",
            eval=lambda t, x, y, z: 3.0 * np.asarray(y, dtype=float),
            lipschitz_z=0.0,
            monotonicity_modulus=lambda u: 0.1 * np.asarray(u, dtype=float),
        )
        with pytest.raises(ValidationError, match="monotonicity"):
            check_generator_metadata(lying, seed=0, n_samples=4000)

    def test_understated_growth_caught(self):
        lying = Generator(
            name="lying",
            eval=lambda t, x, y, z: 5.0 * np.asarray(y, dtype=float),
            lipschitz_z=0.0,
            monotonicity_modulus=lambda u: 5.0 * np.asarray(u, dtype=float),
            growth_bound=lambda alpha, t: 0.5 * alpha,
        )
        with pytest.raises(ValidationError, match="growth"):
            check_generator_metadata(lying, seed=0, n_samples=4000)

    @pytest.mark.parametrize(
        "lying,match",
        [
            # a NaN driver with a modulus and a growth bound: NaN fails the
            # first inequality it reaches
            (
                Generator(
                    name="lying",
                    eval=lambda t, x, y, z: np.where(np.asarray(y) > 2, np.nan, -np.asarray(y)),
                    lipschitz_z=0.0,
                    monotonicity_modulus=lambda u: np.asarray(u, dtype=float),
                    growth_bound=lambda alpha, t: float(alpha),
                ),
                "Lipschitz",
            ),
            # slope 5 in z only late in [0, 1], where the sampled times reach
            (
                Generator(
                    name="lying",
                    eval=_late(lambda y, z: np.abs(z), lambda y, z: 5.0 * np.abs(z)),
                    lipschitz_z=1.0,
                ),
                "Lipschitz",
            ),
            # a NaN modulus
            (
                Generator(
                    name="lying",
                    eval=lambda t, x, y, z: -np.asarray(y, dtype=float),
                    lipschitz_z=0.0,
                    monotonicity_modulus=lambda u: np.where(u > 4.0, np.nan, 0.0),
                ),
                "monotonicity",
            ),
            # NaN at z = 0, which only the growth check evaluates
            (
                Generator(
                    name="lying",
                    eval=lambda t, x, y, z: np.where(
                        np.all(np.asarray(z) == 0.0, axis=-1), np.nan, -np.asarray(y)
                    ),
                    lipschitz_z=0.0,
                    growth_bound=lambda alpha, t: float(alpha),
                ),
                "growth",
            ),
            # slope -1 in y early and -2 late
            (
                Generator(
                    name="lying",
                    eval=_late(lambda y, z: -y, lambda y, z: -2.0 * y),
                    lipschitz_z=0.0,
                    y_slope=-1.0,
                ),
                r"y_slope -1\.0 violated at t=1\.0, x=.*, y=",
            ),
        ],
        ids=["lipschitz-nan", "lipschitz-late", "monotonicity-nan", "growth-nan", "y_slope-late"],
    )
    def test_nan_and_late_time_witnesses_caught(self, lying, match):
        # NaN on either side of an inequality violates it, and the sampled
        # times reach both ends of [0, 1]
        with pytest.raises(ValidationError, match=match):
            check_generator_metadata(lying, seed=0, n_samples=4000)
        with pytest.raises(ValidationError, match=match):
            check_generator_metadata(lying)

    def test_no_samples_refused(self):
        # zero tuples would pass any declaration
        with pytest.raises(ValidationError, match="n_samples must be >= 1"):
            check_generator_metadata(builtin_generator("linear"), n_samples=0)

    @pytest.mark.parametrize(
        "name,params,slope",
        [
            ("linear", {"a": -2.5}, -2.5),
            ("negative_exponential", {}, -1.0),
            ("z_abs", {"scale": 2.0}, 0.0),
            ("stress", {"delta": 0.1}, None),
        ],
    )
    def test_builtins_declare_their_y_slope(self, name, params, slope):
        assert builtin_generator(name, **params).y_slope == slope

    def test_misdeclared_y_slope_caught(self):
        # the stress driver is not affine in y; a linear one with another a
        # is affine with the wrong slope
        stress = builtin_generator("stress", delta=0.1)
        lying = Generator(name="lying", eval=stress.eval, lipschitz_z=1.0, y_slope=-1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValidationError, match=r"y_slope -1\.0 violated at t=.*, x=.*, y="):
                check_generator_metadata(lying, seed=0, n_samples=4000)
        linear = builtin_generator("linear", a=-2.0, c=1.0)
        lying = Generator(name="lying", eval=linear.eval, lipschitz_z=0.0, y_slope=-1.9)
        with pytest.raises(ValidationError, match="y_slope"):
            check_generator_metadata(lying, seed=0, n_samples=4000)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "1", True, np.array([1.0])])
    def test_y_slope_must_be_a_finite_float(self, bad):
        with pytest.raises(ValidationError, match="y_slope must be a finite float"):
            Generator(name="g", eval=lambda t, x, y, z: y, lipschitz_z=0.0, y_slope=bad)

    def test_y_slope_is_stored_as_float(self):
        g = Generator(name="g", eval=lambda t, x, y, z: y, lipschitz_z=0.0, y_slope=np.int64(1))
        assert type(g.y_slope) is float and g.y_slope == 1.0

    @pytest.mark.parametrize(
        "eval_, match",
        [
            # g0 = 1 + 0.1*x_0 reads x
            (
                lambda t, x, y, z: 1.0 + 0.1 * x[..., 0] + 0.0 * np.asarray(y),
                r"lying: state-free g\(t, x, 0, 0\) violated at t=0\.0, x=\[.*\], "
                r"g0=.*, g0_origin=1\.0: ",
            ),
            # NaN at y = 0 away from the origin, which only this check
            # evaluates, fails the declaration too
            (
                lambda t, x, y, z: np.where((np.asarray(y) == 0) & (x[..., 0] > 2.5), np.nan, 1.0),
                r"lying: state-free g\(t, x, 0, 0\) violated at t=.*, x=\[2\.[5-9]\d*\], "
                r"g0=nan, g0_origin=1\.0: nan not <= ",
            ),
        ],
        ids=["reads-x", "nan"],
    )
    def test_misdeclared_g0_state_free_caught(self, eval_, match):
        lying = Generator(
            name="lying", eval=eval_, lipschitz_z=0.0, state_dependent=True, g0_state_free=True
        )
        with pytest.raises(ValidationError, match=match):
            check_generator_metadata(lying, seed=0, n_samples=4000)
        # undeclared, the same driver passes
        honest = Generator(name="lying", eval=eval_, lipschitz_z=0.0, state_dependent=True)
        check_generator_metadata(honest, seed=0, n_samples=4000)

    def test_builtins_declare_g0_state_free(self):
        for name, params in [
            ("linear", {"c": 1.5}),
            ("z_abs", {}),
            ("negative_exponential", {}),
            ("stress", {"delta": 0.1}),
        ]:
            g = builtin_generator(name, **params)
            assert g.g0_state_free
            check_generator_metadata(g, seed=0, n_samples=4000)
        # state_dependent=False implies the declaration; True leaves it off
        g = Generator(name="g", eval=lambda t, x, y, z: y, lipschitz_z=0.0, g0_state_free=False)
        assert g.g0_state_free
        reads_x = Generator(name="g", eval=g.eval, lipschitz_z=0.0, state_dependent=True)
        assert not reads_x.g0_state_free

    def test_misdeclared_state_free_caught(self):
        # y*|x| reads x only where y != 0, so the g0 check alone passes it
        def ev(t, x, y, z):
            return np.asarray(y) * np.abs(x[..., 0])

        lying = Generator(name="lying", eval=ev, lipschitz_z=0.0)
        want = (
            r"^lying: state-free g\(t, x, y, z\) violated at t=0\.0, x=\[\S+\], y=\S+, "
            r"z=\[\S+\], g=\S+, g_origin=-?0\.0: \S+ not <= 1\.000000e-10$"
        )
        with pytest.raises(ValidationError, match=want):
            check_generator_metadata(lying, seed=0, n_samples=4000)
        honest = Generator(name="honest", eval=ev, lipschitz_z=0.0, state_dependent=True)
        check_generator_metadata(honest, seed=0, n_samples=4000)


class TestProblemAndConfig:
    def test_problem_validation(self):
        g = builtin_generator("linear")
        with pytest.raises(ValidationError):
            BSDEProblem(g, 1.0, 1.0, 1, lambda s: s[:, -1, 0])
        with pytest.raises(ValidationError):
            BSDEProblem(g, 0.0, 1.0, 0, lambda s: s[:, -1, 0])

    @pytest.mark.parametrize("ends", [(-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0)])
    def test_problem_ends_must_be_finite(self, ends):
        # t_start = -inf used to build a problem
        with pytest.raises(ValidationError, match=r"^need finite t_start < t_end, got \["):
            BSDEProblem(builtin_generator("linear"), *ends, 1, lambda s: s[:, -1, 0])

    @pytest.mark.parametrize("d", [1.5, True, "1"])
    def test_problem_dimension_must_be_an_integer(self, d):
        # dimension_d = 1.5 used to build a problem
        with pytest.raises(ValidationError, match=rf"^dimension_d must be an integer, got {d!r}$"):
            BSDEProblem(builtin_generator("linear"), 0.0, 1.0, d, lambda s: s[:, -1, 0])

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(seed=0, n_paths=0, n_steps=10)
        with pytest.raises(ValidationError):
            ExperimentConfig(seed=0, n_paths=10, n_steps=0)
        with pytest.raises(ValidationError):
            ExperimentConfig(seed=0, n_paths=10, n_steps=10, basis_degree=-1)
        with pytest.raises(ValidationError):
            ExperimentConfig(seed=0, n_paths=10, n_steps=10, picard_tol=0.0)
        # an infinite tolerance would stop every implicit step after one
        # evaluation; NaN fails every comparison
        for tol in (math.inf, math.nan):
            with pytest.raises(ValidationError, match="picard_tol must be finite and > 0"):
                ExperimentConfig(seed=0, n_paths=10, n_steps=10, picard_tol=tol)

    @pytest.mark.parametrize("key", ["n_paths", "n_steps", "basis_degree", "picard_max"])
    @pytest.mark.parametrize("value", [50.0, 2.5, True, False, "8", None])
    def test_counts_must_be_integers(self, key, value):
        # a float or a bool count failed deep inside the draw with a bare
        # TypeError
        counts = dict(n_paths=10, n_steps=10)
        with pytest.raises(ValidationError, match=rf"^{key} must be an integer, got {value!r}$"):
            ExperimentConfig(seed=0, **{**counts, key: value})

    def test_float_seed_refused(self):
        # seed 1.5 keyed the same Philox stream as seed 1
        with pytest.raises(ValidationError, match=r"^seed must be an integer, got 1\.5$"):
            ExperimentConfig(seed=1.5, n_paths=10, n_steps=10)
        assert ExperimentConfig(seed=np.uint64(2**63), n_paths=10, n_steps=10).seed == 2**63

    def test_numpy_integer_counts_accepted(self):
        cfg = ExperimentConfig(
            seed=0, n_paths=np.int64(10), n_steps=np.int32(5), basis_degree=np.uint8(2),
            picard_max=np.int16(7),
        )
        assert (cfg.n_paths, cfg.n_steps, cfg.basis_degree, cfg.picard_max) == (10, 5, 2, 7)
        with pytest.raises(ValidationError, match=r"^basis_degree must be >= 0, got -1$"):
            ExperimentConfig(seed=0, n_paths=10, n_steps=5, basis_degree=np.int64(-1))


def _solve(g, terminal=lambda s: np.cos(s[:, -1, 0]), M=64, N=10):
    grid = TimeGrid(0.0, 1.0, N)
    batch = sample_brownian(grid, M, 1, seed=0)
    fw = euler_maruyama(grid, lambda t, x: 0.0, lambda t, x: 1.0, 0.0, batch)
    problem = BSDEProblem(g, 0.0, 1.0, 1, terminal)
    return solve_bsde(problem, fw, batch, ExperimentConfig(seed=0, n_paths=M, n_steps=N))


def _stop(g, base):
    M, n_steps = base.shape[0], 10
    unit = sample_brownian(TimeGrid(0.0, float(n_steps), n_steps), M, 1, seed=0)
    stack = WindowStack.from_draw([TimeGrid(0.0, 0.1, n_steps)], unit.increments, base)
    return stopping_indices(stack, g, barrier=1.0, displacement=np.empty((1, M, 1)))


def _fd(drift=lambda t, x: 0.0, sigma=lambda t, x: 1.0, g=None, k=1e-2, theta=0.5):
    problem = PDEProblem(
        drift=drift,
        sigma=sigma,
        generator=g or builtin_generator("linear"),
        phi=np.cos,
        growth_L=2.0,
        growth_p=1.0,
        T=1.0,
        x_lo=-1.0,
        x_hi=1.0,
    )
    return fd_reference(problem, h=0.125, k=k, theta=theta)


# g as an (M, 1) column, where the contract wants the batch shape (M,)
_COLUMN = Generator(name="column", eval=lambda t, x, y, z: (-y)[..., None], lipschitz_z=0.0)


def _near_one(value):
    # value at the interior node x = 1 - 0.125, 1 elsewhere
    return lambda t, x: np.where(np.abs(x - 0.875) < 1e-9, value, 1.0)


# every first-failing-entry refusal of a computed array, one case each:
# (thunk, error class, the whole message), read as a regex where it holds
# \S and literally otherwise
REFUSALS = {
    "sweep_terminal": (
        lambda: _solve(
            builtin_generator("negative_exponential"),
            terminal=lambda s: np.where(np.arange(64) == 3, np.inf, s[:, -1, 0]),
        ),
        NumericalError,
        "non-finite terminal value at window=0, step=10, path=3: y=inf",
    ),
    "sweep_value": (
        # a declared slope solves in closed form: y and g are NaN together
        lambda: _solve(
            Generator(
                name="nan_at_t_half",
                eval=lambda t, x, y, z: np.where(
                    (np.arange(np.size(y)) == 5) & (abs(t - 0.5) < 1e-9), np.nan, -y
                ),
                lipschitz_z=0.0,
                y_slope=-1.0,
            )
        ),
        NumericalError,
        r"non-finite value at window=0, step=5, path=5: y=nan, g=nan, z=\[\S+\]",
    ),
    "sweep_root": (
        lambda: _solve(
            Generator(
                name="lying", eval=lambda t, x, y, z: -y - 0.5 * y * y, lipschitz_z=0.0,
                y_slope=-1.0,
            )
        ),
        HypothesisError,
        r"lying: not affine in y with the declared y_slope -1\.0: residual "
        r"at window=0, step=9, path=0: \S+ not <= \S+",
    ),
    "euler_state": (
        lambda: euler_maruyama(
            TimeGrid(0.0, 1.0, 4), lambda t, x: np.inf, lambda t, x: 1.0, 0.0,
            sample_brownian(TimeGrid(0.0, 1.0, 4), 8, 1, seed=0),
        ),
        NumericalError,
        "non-finite state at step=1, path=0: x=[inf]",
    ),
    "stop_g0": (
        lambda: _stop(builtin_generator("stress", delta=0.1), np.full((20, 1), np.nan)),
        NumericalError,
        "non-finite g0 at window=0, step=0, path=0: g0=nan",
    ),
    "stop_state_free": (
        lambda: _stop(
            Generator(
                name="lying", eval=lambda t, x, y, z: 1.0 + 0.5 * x[..., 0] + 0.0 * y,
                lipschitz_z=0.0, state_dependent=True, g0_state_free=True,
            ),
            np.array([[0.0], [0.0], [0.25], [0.0]]),
        ),
        HypothesisError,
        "lying: g(t, x, 0, 0) declared state-free differs from path 0's g0=1.0 "
        "at window=0, step=0, path=2: g0=1.125",
    ),
    "fd_sigma": (
        lambda: _fd(sigma=_near_one(np.nan)),
        ValidationError,
        "non-finite coefficient at time_index=100, t=1.0, x=0.875: b=0.0, sigma=nan",
    ),
    "fd_drift": (
        lambda: _fd(drift=_near_one(-np.inf)),
        ValidationError,
        "non-finite coefficient at time_index=100, t=1.0, x=0.875: b=-inf, sigma=1.0",
    ),
    "fd_degenerate": (
        lambda: _fd(sigma=_near_one(0.0)),
        ValidationError,
        "sigma degenerate at time_index=100, t=1.0, x=0.875: 1.000000e-08 not <= 0.000000e+00",
    ),
    "fd_cfl": (
        # h^2/k = 0.78 < sigma^2 = 1 on every node: the first one is named
        lambda: _fd(k=2e-2, theta=0.0),
        ValidationError,
        "CFL violation for k=2.000e-02, theta=0.0: sigma^2 at time_index=50, t=1.0, "
        "x=-0.875: 1.000000e+00 not <= 7.812500e-01",
    ),
    "fd_row": (
        # g(t, x, 0, 0) = 0 passes the growth check; NaN where u > 0.99
        # (x near 0 at T) fills the solved row of the first step
        lambda: _fd(
            g=Generator(
                name="nan_above", eval=lambda t, x, y, z: np.where(y > 0.99, np.nan, 0.0 * y),
                lipschitz_z=0.0,
            )
        ),
        NumericalError,
        "non-finite FD row at time_index=99, x=-0.875: u=nan",
    ),
    "envelope_g0": (
        # a NaN g0 used to size the lattice with U = nan
        lambda: convergence_curve(
            Generator(name="nan", eval=lambda t, x, y, z: np.nan * np.asarray(y), lipschitz_z=0.0),
            1.0, 0.5, np.array([0.25, 0.5]), [1.0],
        ),
        NumericalError,
        "non-finite g0 at t=0.5, x=[0.25 0.5 ]: g0=nan",
    ),
    "quotient_state_free": (
        # y*|x| declared state-free: refused at the first path whose
        # realized time-t state moves g
        lambda: convergence_study(
            Generator(
                name="lying", eval=lambda t, x, y, z: np.asarray(y) * np.abs(x[..., 0]),
                lipschitz_z=0.0,
            ),
            0.5, 0.0, 1.0, 0.0, [0.1, 0.05], ExperimentConfig(seed=0, n_paths=200, n_steps=50),
        ),
        HypothesisError,
        r"lying: g declared state-free differs between the realized state and x at path=0, "
        r"state=\[-1\.\d+\]: \S+ not <= 0\.000000e\+00",
    ),
    # a driver value that does not broadcast to the batch shape is refused
    # by Generator.__call__, whichever layer calls it; numpy's error used
    # to escape, naming neither the driver nor the shape
    "driver_shape_solve": (
        lambda: _solve(_COLUMN),
        ValidationError,
        "column: g returned shape (64, 1) for a batch of shape (64,)",
    ),
    "driver_shape_study": (
        lambda: convergence_study(
            _COLUMN, 0.5, 0.0, 1.0, 0.0, [0.1, 0.05],
            ExperimentConfig(seed=0, n_paths=200, n_steps=50),
        ),
        ValidationError,
        "column: g returned shape (200, 1) for a batch of shape (200,)",
    ),
    "driver_shape_envelope": (
        lambda: convergence_curve(_COLUMN, 1.0, 0.0, np.zeros(1), [1.0]),
        ValidationError,
        "column: g returned shape (1,) for a batch of shape ()",
    ),
    "driver_shape_metadata": (
        lambda: check_generator_metadata(_COLUMN, n_samples=4000),
        ValidationError,
        "column: g returned shape (2000, 1) for a batch of shape (2000,)",
    ),
    "driver_shape_pde": (
        # the growth check, run when the problem is built, calls g first
        lambda: _fd(g=_COLUMN),
        ValidationError,
        "column: g returned shape (512, 1) for a batch of shape (512,)",
    ),
    # the forward coefficients are checked by shape where they enter
    "euler_drift_shape": (
        # (M,) for n = 1 used to fail in numpy's broadcast
        lambda: euler_maruyama(
            TimeGrid(0.0, 1.0, 4), lambda t, x: x[:, 0], lambda t, x: 1.0, 0.0,
            sample_brownian(TimeGrid(0.0, 1.0, 4), 8, 1, seed=0),
        ),
        ValidationError,
        "drift returned shape (8,), which does not broadcast to (8, 1)",
    ),
    "euler_diffusion_shape": (
        # an (M, 1, 2) matrix on a d = 1 batch used to pass: einsum spread
        # the size-1 d axis, and the states were those of sigma = 2
        lambda: euler_maruyama(
            TimeGrid(0.0, 1.0, 4), lambda t, x: 0.0, lambda t, x: np.ones((8, 1, 2)), 0.0,
            sample_brownian(TimeGrid(0.0, 1.0, 4), 8, 1, seed=0),
        ),
        ValidationError,
        "diffusion returned shape (8, 1, 2), which does not broadcast to (8, 1, 1)",
    ),
}


class TestRefusalRule:
    """Each refusal of a computed array names its witnesses and value at
    the first failing entry (core._require), whole message matched."""

    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_each_refusal_names_its_witnesses_and_value(self, case):
        thunk, error, message = REFUSALS[case]
        pattern = message if "\\S" in message else re.escape(message)
        with pytest.raises(error, match=f"^(HYPOTHESIS_FAIL )?{pattern}$"):
            thunk()

    def test_first_entry_across_arrays(self):
        # y fails at entry 2, z's row 1 first: entry 1 is named, with every
        # value there; a 0-d value counts for every entry
        y = np.array([1.0, 2.0, np.nan, 3.0])
        z = np.array([[1.0, 1.0], [1.0, np.inf], [1.0, 1.0], [1.0, 1.0]])
        values = {"y": y, "g": np.asarray(1.5), "z": z}
        want = r"^bad at w=0, path=1: y=2\.0, g=1\.5, z=\[ 1\. inf\]$"
        with pytest.raises(NumericalError, match=want):
            _require_finite(values, NumericalError, "bad", w=0, path=_INDEX)
        with pytest.raises(NumericalError, match=r"^bad at path=0: y=1\.0, g=nan$"):
            _require_finite({"y": y, "g": np.asarray(np.nan)}, NumericalError, "bad", path=_INDEX)
        _require_finite({"y": y[:2], "g": np.asarray(1.5), "z": z[:1]}, NumericalError, "bad")

    def test_le_names_the_entry_and_refuses_nan(self):
        t = np.array([0.1, 0.2, 0.3])
        want = r"^le at t=0\.2, node=1: 2\.000000e\+00 not <= 1\.5"
        with pytest.raises(ValidationError, match=want):
            _require_le(np.array([1.0, 2.0, 0.0]), 1.5, ValidationError, "le", t=t, node=_INDEX)
        with pytest.raises(ValidationError, match=r"^le at node=2: nan not <= 1\.5"):
            _require_le(np.array([1.0, 1.0, np.nan]), 1.5, ValidationError, "le", node=_INDEX)
        _require_le(np.array([1.0, 1.5]), 1.5, ValidationError, "le")
