import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsdelab import (
    BSDEProblem,
    ExperimentConfig,
    Generator,
    ValidationError,
    builtin_generator,
    check_generator_metadata,
)
from bsdelab.core import EXP_CLAMP, _entropy_kernel, _norm_last, h_entropy, q_trunc


class TestEntropyModulus:
    def test_frozen_value_on_linear_branch(self):
        # hand derivation for delta = 0.1, u = 0.2 > delta:
        #   slope = -ln(0.1) - 1 = ln(10) - 1
        #   h = slope*(0.2 - 0.1) + (-0.1*ln(0.1))
        #     = 0.1*(ln 10 - 1) + 0.1*ln 10 = 0.2*ln 10 - 0.1
        expected = 0.2 * math.log(10.0) - 0.1
        assert h_entropy(0.2, 0.1) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.3605170185988091, abs=1e-15)

    def test_curved_branch_and_origin(self):
        assert h_entropy(0.0, 0.1) == 0.0
        u = 0.05
        assert h_entropy(u, 0.1) == pytest.approx(-u * math.log(u), abs=1e-15)

    def test_continuity_and_smoothness_at_knee(self):
        delta = 0.2
        below = h_entropy(delta - 1e-9, delta)
        above = h_entropy(delta + 1e-9, delta)
        assert abs(above - below) < 1e-7
        # one-sided slopes agree by construction
        d_below = (h_entropy(delta, delta) - h_entropy(delta - 1e-6, delta)) / 1e-6
        d_above = (h_entropy(delta + 1e-6, delta) - h_entropy(delta, delta)) / 1e-6
        assert d_below == pytest.approx(d_above, abs=1e-4)

    @pytest.mark.parametrize("delta", [0.0, -0.1, 1.0 / math.e, 0.5])
    def test_delta_domain(self, delta):
        with pytest.raises(ValidationError):
            h_entropy(0.1, delta)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValidationError):
            h_entropy(-0.01, 0.1)

    @settings(max_examples=200, deadline=None)
    @given(
        u=st.floats(0.0, 0.3),
        v=st.floats(0.0, 0.3),
    )
    def test_concave_and_nondecreasing(self, u, v):
        delta = 0.1
        mid = h_entropy(0.5 * (u + v), delta)
        assert mid >= 0.5 * (h_entropy(u, delta) + h_entropy(v, delta)) - 1e-12
        lo, hi = sorted((u, v))
        assert h_entropy(hi, delta) >= h_entropy(lo, delta) - 1e-15

    def test_vectorized(self):
        u = np.array([0.0, 0.05, 0.1, 0.3])
        out = h_entropy(u, 0.1)
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
        assert np.array_equal(h_entropy(u, delta), _h_entropy_by_mask(u, delta))
        assert h_entropy(delta, delta) == _h_entropy_by_mask(delta, delta)[0]

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


class TestInPlaceKernelsBitIdentical:
    """The masked in-place entropy kernel and stress accumulation against the
    np.where expressions they replaced, exactly, on every input shape."""

    @settings(max_examples=200, deadline=None)
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
        expected = -math.exp(0.4) + h_entropy(0.2, 0.1) + 0.5
        assert g(0.3, x, y, z)[0] == pytest.approx(expected, abs=1e-12)
        assert g.state_dependent

    def test_stress_exponent_clamp_warns(self):
        g = builtin_generator("stress", delta=0.1)
        with pytest.warns(RuntimeWarning, match="clamped"):
            out = g(0.0, np.array([[3.0]]), np.array([30.0]), np.zeros((1, 1)))
        assert np.isfinite(out[0])
        assert out[0] <= -math.exp(EXP_CLAMP) + h_entropy(30.0, 0.1)

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
        prod = 2.0 * h_entropy(2.0, delta)
        assert prod == pytest.approx(5.4103404, abs=1e-6)
        assert h_entropy(4.0, delta) == pytest.approx(5.3103405, abs=1e-6)
        assert prod > h_entropy(4.0, delta)

        rho = builtin_generator("stress", delta=delta).monotonicity_modulus
        assert rho(4.0) == pytest.approx(prod, rel=1e-12)
        rng = np.random.default_rng(9)
        y1 = rng.uniform(-6, 6, 4000)
        y2 = rng.uniform(-6, 6, 4000)
        lhs = (y1 - y2) * (h_entropy(np.abs(y1), delta) - h_entropy(np.abs(y2), delta))
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


class TestProblemAndConfig:
    def test_problem_validation(self):
        g = builtin_generator("linear")
        with pytest.raises(ValidationError):
            BSDEProblem(g, 1.0, 1.0, 1, lambda s: s[:, -1, 0])
        with pytest.raises(ValidationError):
            BSDEProblem(g, 0.0, 1.0, 0, lambda s: s[:, -1, 0])

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(seed=0, n_paths=0, n_steps=10)
        with pytest.raises(ValidationError):
            ExperimentConfig(seed=0, n_paths=10, n_steps=0)
        with pytest.raises(ValidationError):
            ExperimentConfig(seed=0, n_paths=10, n_steps=10, basis_degree=-1)
        with pytest.raises(ValidationError):
            ExperimentConfig(seed=0, n_paths=10, n_steps=10, picard_tol=0.0)
