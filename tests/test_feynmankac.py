import itertools
import math
import re

import numpy as np
import pytest

from bsdelab import (
    BSDEProblem,
    ExperimentConfig,
    NumericalError,
    PDEProblem,
    TestFunction,
    TimeGrid,
    ValidationError,
    affine_problem,
    builtin_generator,
    check_generator_metadata,
    euler_maruyama,
    fd_reference,
    heat_cos_problem,
    heat_cos_solution,
    mc_solution,
    mc_vs_fd,
    sample_brownian,
    semilinear_cos_problem,
    semilinear_cos_solution,
    solve_bsde,
    square_problem,
    viscosity_touch_check,
)
from bsdelab import feynmankac
from bsdelab.core import _mean_se
from bsdelab.feynmankac import growth_check, proof_generator
from bsdelab.paths import WindowStack
from bsdelab.representation import _stopped_solve

H_COS = math.pi / 64


def _cfg(seed=0, M=20_000, n=100):
    return ExperimentConfig(seed=seed, n_paths=M, n_steps=n)


class TestFDReference:
    def test_heat_cosine(self):
        # u(t, x) = e^{-(T-t)/2} cos x solves the pure heat problem; the
        # scheme at h = pi/64, k = 2e-3 must land within 0.5% at the center
        field = fd_reference(heat_cos_problem(), h=H_COS, k=2e-3)
        want = math.exp(-0.5)
        got = field.value(0.0, 0.0)
        assert abs(got - want) / want < 5e-3
        # interior off-center probe too
        x = 1.0
        assert abs(field.value(0.25, x) - math.exp(-0.375) * math.cos(x)) < 5e-3

    def test_semilinear_cosine(self):
        # the reaction g = -u shifts the decay rate from 1/2 to 3/2
        field = fd_reference(semilinear_cos_problem(), h=H_COS, k=2e-3)
        want = math.exp(-1.5)
        assert abs(field.value(0.0, 0.0) - want) / want < 5e-3

    def test_affine_is_exact(self):
        # affine data is killed by the second difference and transported
        # exactly by the boundary rule, so the scheme is exact to roundoff
        field = fd_reference(affine_problem(1.0, 0.5), h=12.0 / 512, k=2e-3)
        assert field.value(0.0, 0.0) == pytest.approx(1.0, abs=1e-10)
        assert field.value(0.3, 2.0) == pytest.approx(2.0, abs=1e-9)

    def test_square_recovers_time_shift(self):
        # phi = x^2, no reaction: u(t, x) = x^2 + (T - t); quadratic data is
        # exact for the central stencil and the Gauss-Hermite boundary
        field = fd_reference(square_problem(), h=12.0 / 512, k=2e-3)
        assert field.value(0.0, 0.0) == pytest.approx(1.0, abs=1e-8)
        # 0.75 sits on a grid node, so no interpolation dust on x^2
        assert field.value(0.5, 0.75) == pytest.approx(0.75**2 + 0.5, abs=1e-8)

    def test_terminal_row_exact(self):
        p = heat_cos_problem()
        field = fd_reference(p, h=H_COS, k=1e-2)
        assert np.array_equal(field.u[-1], np.cos(field.xs))

    def test_interpolation_at_nodes(self):
        field = fd_reference(affine_problem(0.0, 1.0), h=12.0 / 64, k=1e-2)
        j, i = 3, 17
        assert field.value(field.times[j], field.xs[i]) == pytest.approx(
            field.u[j, i], abs=1e-12
        )

    def test_out_of_domain_rejected(self):
        field = fd_reference(affine_problem(0.0, 1.0), h=12.0 / 64, k=1e-2)
        with pytest.raises(ValidationError):
            field.value(0.0, 100.0)
        with pytest.raises(ValidationError):
            field.value(2.0, 0.0)

    def test_cfl_enforced_for_explicit_scheme(self):
        with pytest.raises(ValidationError, match="CFL"):
            fd_reference(heat_cos_problem(), h=H_COS, k=1e-2, theta=0.0)
        # same step is fine for the implicit side
        fd_reference(heat_cos_problem(T=0.05), h=H_COS, k=1e-2, theta=1.0)

    def test_degenerate_sigma_refused(self):
        p = PDEProblem(
            drift=lambda t, x: 0.0,
            sigma=lambda t, x: np.abs(x),  # vanishes at x = 0
            generator=builtin_generator("linear"),
            phi=np.cos,
            growth_L=2.0,
            growth_p=1.0,
            T=1.0,
            x_lo=-1.0,
            x_hi=1.0,
        )
        with pytest.raises(ValidationError, match="degenerate"):
            fd_reference(p, h=0.125, k=1e-3)

    @staticmethod
    def _time_sigma_problem(sigma):
        return PDEProblem(
            drift=lambda t, x: 0.0,
            sigma=lambda t, x: sigma(t),
            generator=builtin_generator("linear"),
            phi=np.cos,
            growth_L=2.0,
            growth_p=1.0,
            T=1.0,
            x_lo=-4 * math.pi,
            x_hi=4 * math.pi,
        )

    def test_cfl_checked_on_every_level(self):
        # sigma(t)^2 = 1 + 2t: k = 2e-3 meets the explicit CFL bound
        # h^2/sigma^2 at t = 0 and breaks it for t > 0.10; unchecked, the
        # march returned u(0, 0) = -1.2e144.  The backward march meets the
        # violation first at the terminal level, time index 500
        p = self._time_sigma_problem(lambda t: math.sqrt(1.0 + 2.0 * t))
        assert 2e-3 <= H_COS**2
        # sigma^2 = 3 there breaks the bound h^2/k on the first interior node
        want = "CFL violation for k=2.000e-03, theta=0.0: sigma^2 at time_index=500, t=1.0, "
        want += f"x={-4 * math.pi + H_COS}: 3.000000e+00 not <= {H_COS**2 / 2e-3:.6e}"
        with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
            fd_reference(p, h=H_COS, k=2e-3, theta=0.0)

    def test_sigma_degenerate_mid_horizon_refused(self):
        # sigma = |t - 1/2| is 0.5 at both ends and vanishes at level 50 of
        # 100 only
        p = self._time_sigma_problem(lambda t: abs(t - 0.5))
        want = "sigma degenerate at time_index=50, t=0.5, "
        want += f"x={-4 * math.pi + H_COS}: 1.000000e-08 not <= 0.000000e+00"
        with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
            fd_reference(p, h=H_COS, k=1e-2)

    @pytest.mark.parametrize("theta", [0.0, 0.5])
    @pytest.mark.parametrize("coef", ["drift", "sigma"])
    def test_non_finite_coefficient_refused_at_its_node(self, coef, theta):
        # NaN near x = 1 on [-3, 3]: unchecked, the march failed later with
        # NumericalError at another node, and at theta = 0 the NaN passed
        # the CFL test
        nan_near_1 = lambda t, x: np.where(np.abs(x - 1.0) < 1e-9, np.nan, 1.0)
        coefs = {"drift": lambda t, x: 0.0, "sigma": lambda t, x: 1.0, coef: nan_near_1}
        p = PDEProblem(
            **coefs, generator=builtin_generator("linear"), phi=np.cos, growth_L=2.0,
            growth_p=1.0, T=1.0, x_lo=-3.0, x_hi=3.0,
        )
        b, s = ("nan", "1.0") if coef == "drift" else ("0.0", "nan")
        want = f"non-finite coefficient at time_index=1000, t=1.0, x=1.0: b={b}, sigma={s}"
        with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
            fd_reference(p, h=0.05, k=1e-3, theta=theta)

    def test_level_invariants_hoisted_out_of_march(self, monkeypatch):
        # the boundary rule is built once per march and drift/sigma are
        # evaluated on all nodes once per time level, never twice: the
        # boundary values read the level's ends instead of calling them again
        rule_calls = []
        hermgauss = np.polynomial.hermite.hermgauss

        def counting_hermgauss(deg):
            rule_calls.append(deg)
            return hermgauss(deg)

        monkeypatch.setattr(np.polynomial.hermite, "hermgauss", counting_hermgauss)
        drift_calls, sigma_calls = [], []

        def drift(t, x):
            drift_calls.append((float(t), np.shape(x)))
            return 0.0

        def sigma(t, x):
            sigma_calls.append((float(t), np.shape(x)))
            return 1.0

        p = PDEProblem(
            drift=drift,
            sigma=sigma,
            generator=builtin_generator("negative_exponential"),
            phi=np.cos,
            growth_L=2.0,
            growth_p=1.0,
            T=1.0,
            x_lo=-4 * math.pi,
            x_hi=4 * math.pi,
        )
        field = fd_reference(p, h=H_COS, k=2e-2)
        assert rule_calls == [64]
        every_level_on_all_nodes = sorted((t, (field.xs.size, 1)) for t in field.times.tolist())
        assert sorted(drift_calls) == every_level_on_all_nodes
        assert sorted(sigma_calls) == every_level_on_all_nodes
        # the march is a pure function of the problem: a rerun repeats it
        assert np.array_equal(fd_reference(p, h=H_COS, k=2e-2).u, field.u)
        assert len(rule_calls) == 2

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize(
        "name,problem,h",
        [
            ("heat_cos", heat_cos_problem, math.pi / 16),
            ("semilinear_cos", semilinear_cos_problem, math.pi / 16),
            ("square", square_problem, 0.25),
            ("affine", lambda: affine_problem(0.5, 1.0), 0.25),
        ],
    )
    def test_tridiagonal_solve_is_the_banded_one(self, monkeypatch, theta, name, problem, h):
        # the march hands LAPACK's gtsv the three diagonals; solving the
        # same band through solve_banded must give the same field bit for
        # bit; k = 0.02 sits inside the explicit CFL bound h^2 at theta = 0
        from scipy.linalg import lapack, solve_banded

        field = fd_reference(problem(), h=h, k=0.02, theta=theta)

        def banded(dl, d, du, b, overwrite_b=False):
            ab = np.zeros((3, d.size))
            ab[0, 1:] = du
            ab[1] = d
            ab[2, :-1] = dl
            return None, None, None, solve_banded((1, 1), ab, b), 0

        monkeypatch.setattr(lapack, "dgtsv", banded)
        want = fd_reference(problem(), h=h, k=0.02, theta=theta)
        assert np.array_equal(field.u, want.u), name

    def test_singular_system_names_the_time_index(self, monkeypatch):
        from scipy.linalg import lapack

        def singular(dl, d, du, b, overwrite_b=False):
            return None, None, None, b, 3

        monkeypatch.setattr(lapack, "dgtsv", singular)
        with pytest.raises(NumericalError, match="singular FD system at time index 49"):
            fd_reference(heat_cos_problem(), h=H_COS, k=0.02)

    def test_non_finite_row_names_its_node(self, monkeypatch):
        from scipy.linalg import lapack

        solve = lapack.dgtsv

        def poisoned(dl, d, du, b, overwrite_b=False):
            out = solve(dl, d, du, b, overwrite_b=overwrite_b)
            out[3][7] = np.nan
            return out

        monkeypatch.setattr(lapack, "dgtsv", poisoned)
        # entry 7 of the interior row is node 8 of the box
        want = f"non-finite FD row at time_index=49, x={-4 * math.pi + 8 * H_COS}: u=nan"
        with pytest.raises(NumericalError, match=f"^{re.escape(want)}$"):
            fd_reference(heat_cos_problem(), h=H_COS, k=0.02)

    def test_time_dependent_sigma(self):
        # sigma(t)^2 = 1 + 2t, no drift or reaction: u(t, x) =
        # exp(-((T - t) + (T^2 - t^2))/2) cos x, so u(0, 0) = e^{-1}.  The
        # scheme lands within 2e-4 relative; coefficients taken one level
        # late or early err by 1.2e-3 to 1.8e-3, so this bar catches a reuse
        # that reads the wrong level
        p = self._time_sigma_problem(lambda t: math.sqrt(1.0 + 2.0 * t))
        field = fd_reference(p, h=H_COS, k=2e-3)
        want = math.exp(-1.0)
        assert abs(field.value(0.0, 0.0) - want) / want <= 5e-4

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            fd_reference(heat_cos_problem(), h=1.0, k=-1e-3)
        for h, k in ((math.nan, 1e-3), (H_COS, math.nan)):
            with pytest.raises(ValidationError, match="need h > 0 and k > 0"):
                fd_reference(heat_cos_problem(), h=h, k=k)
        with pytest.raises(ValidationError, match="divide"):
            fd_reference(heat_cos_problem(), h=1.0, k=1e-3)  # 8*pi/1 not integral


class TestGrowthCheck:
    def test_declared_bounds_pass(self):
        growth_check(heat_cos_problem())
        growth_check(square_problem())

    def test_understated_bound_caught(self):
        # a false declaration is refused when the problem is built, with its
        # witness, so no entry point ever runs on it
        cases = [
            (
                lambda x: np.asarray(x, dtype=float) ** 2,
                0.5,
                r"growth bound violated at t=0.0, x=-6.0: 3.600000e\+01 not <= 3.500000e\+00",
            ),
            # NaN for x > 1 violates any bound
            (
                lambda x: np.where(np.asarray(x) > 1.0, np.nan, 0.0),
                1.0,
                r"growth bound violated at t=0.0, x=1\.0\d+: nan not <= ",
            ),
        ]
        for phi, growth_L, match in cases:
            with pytest.raises(ValidationError, match=match):
                PDEProblem(
                    drift=lambda t, x: 0.0,
                    sigma=lambda t, x: 1.0,
                    generator=builtin_generator("linear"),
                    phi=phi,
                    growth_L=growth_L,
                    growth_p=1.0,
                    T=1.0,
                    x_lo=-6.0,
                    x_hi=6.0,
                )


class TestMonteCarlo:
    def test_heat_center_value(self):
        mc = mc_solution(heat_cos_problem(), 0.0, 0.0, _cfg(seed=3))
        want = math.exp(-0.5)
        assert abs(mc.u - want) <= max(0.02 * want, 3 * mc.se)

    def test_semilinear_center_value(self):
        mc = mc_solution(semilinear_cos_problem(), 0.0, 0.0, _cfg(seed=4))
        want = math.exp(-1.5)
        # O(dt) scheme bias rides on top of the Monte Carlo band
        assert abs(mc.u - want) <= max(0.02 * want, 3 * mc.se + 0.003)

    def test_se_positive_and_sane(self):
        mc = mc_solution(heat_cos_problem(), 0.0, 0.0, _cfg(seed=5, M=4096, n=50))
        assert 0 < mc.se < 0.05

    def test_time_bounds_validated(self):
        with pytest.raises(ValidationError):
            mc_solution(heat_cos_problem(), 1.0, 0.0, _cfg(M=64, n=10))

    def test_phi_shape_checked(self):
        # a phi that is not vectorized over the paths is refused, not
        # broadcast into every path's terminal value
        p = PDEProblem(
            drift=lambda t, x: 0.0,
            sigma=lambda t, x: 1.0,
            generator=builtin_generator("linear"),
            phi=lambda x: 0.5,
            growth_L=2.0,
            growth_p=1.0,
            T=1.0,
            x_lo=-4.0,
            x_hi=4.0,
        )
        with pytest.raises(ValidationError, match=r"phi returned shape \(\), expected \(64,\)"):
            mc_solution(p, 0.0, 0.0, _cfg(M=64, n=10))

    @pytest.mark.parametrize("make", [heat_cos_problem, semilinear_cos_problem])
    @pytest.mark.parametrize("t", [0.0, 0.4])
    def test_pinned_to_solve_bsde(self, make, t):
        # mc_solution sweeps its own window without history; solve_bsde on
        # the same draw and forward batch gives the same numbers, bit for bit
        p = make()
        x = 0.3
        cfg = _cfg(seed=12, M=3000, n=40)
        grid = TimeGrid(t, p.T, cfg.n_steps)
        batch = sample_brownian(grid, cfg.n_paths, 1, cfg.seed)
        fw = euler_maruyama(grid, p.drift, p.sigma, x, batch)
        problem = BSDEProblem(
            generator=p.generator,
            t_start=t,
            t_end=p.T,
            dimension_d=1,
            terminal=lambda s: p.phi(s[:, -1, 0]),
        )
        sol = solve_bsde(problem, fw, batch, cfg)
        mc = mc_solution(p, t, x, cfg)
        assert mc.u == float(sol.Y[:, 0].mean())
        assert mc.se == _mean_se(sol.telescoped)


class TestMcVsFd:
    def test_heat_probes_agree(self):
        rows = mc_vs_fd(
            heat_cos_problem(),
            [(0.0, 0.0), (0.5, 0.5)],
            _cfg(seed=6),
            h=H_COS,
            k=2e-3,
        )
        for r in rows:
            assert r.passed, f"({r.t}, {r.x}): diff {r.diff} beyond {r.tol}"

    def test_square_probes_agree(self):
        rows = mc_vs_fd(
            square_problem(),
            [(0.0, 0.0), (0.25, 1.0)],
            _cfg(seed=7),
            h=12.0 / 512,
            k=2e-3,
        )
        assert all(r.passed for r in rows)

    @pytest.mark.parametrize(
        "points, match",
        [
            ([(0.0, 0.0), (0.0, 100.0)], r"x=100.0 outside \[-12.56\d*, 12.56\d*\]"),
            ([(0.0, 0.0), (0.0, math.nan)], r"x=nan outside"),
            ([(0.5, 0.0), (1.0, 0.0)], r"need 0 <= t < T=1.0, got t=1.0"),
            ([(-0.1, 0.0)], r"need 0 <= t < T=1.0, got t=-0.1"),
        ],
    )
    def test_probes_checked_before_any_solve(self, monkeypatch, points, match):
        # a bad probe anywhere in the list is refused before the FD march
        # and the first Monte Carlo solve, in the words of the one that
        # would refuse it later
        calls = []
        monkeypatch.setattr(feynmankac, "mc_solution", lambda *a: calls.append("mc"))
        monkeypatch.setattr(feynmankac, "fd_reference", lambda *a: calls.append("fd"))
        with pytest.raises(ValidationError, match=match):
            mc_vs_fd(heat_cos_problem(), points, _cfg(M=2000, n=100), h=H_COS, k=2e-3)
        assert calls == []

    def test_empty_probe_list_refused_before_the_march(self, monkeypatch):
        calls = []
        monkeypatch.setattr(feynmankac, "fd_reference", lambda *a, **k: calls.append("fd"))
        with pytest.raises(ValidationError, match="need at least one probe point"):
            mc_vs_fd(heat_cos_problem(), [], _cfg(M=500, n=50), h=H_COS, k=2e-3)
        assert calls == []


def _exact_heat(t, x):
    return float(np.asarray(heat_cos_solution().value(t, np.asarray(x, dtype=float))))


class TestEntryRule:
    """Every Monte Carlo entry point checks its probe by one rule
    (feynmankac._probe) before anything is drawn or marched."""

    ENTRIES = {
        "mc_solution": lambda p, t, x, eps, cfg: mc_solution(p, t, x, cfg),
        # the bad point second: the whole list is checked before the march
        "mc_vs_fd": lambda p, t, x, eps, cfg: mc_vs_fd(
            p, [(0.0, 0.0), (t, x)], cfg, h=H_COS, k=1e-2
        ),
        "touch": lambda p, t, x, eps, cfg: viscosity_touch_check(
            p, _exact_heat, heat_cos_solution(), t, x, cfg, eps=eps
        ),
    }
    BOX = r"\[-12.566370614359172, 12.566370614359172\]"
    BAD = {
        "t_nan": (math.nan, 0.0, 0.025, r"need 0 <= t < T=1.0, got t=nan"),
        "t_at_T": (1.0, 0.0, 0.025, r"need 0 <= t < T=1.0, got t=1.0"),
        "t_negative": (-0.1, 0.0, 0.025, r"need 0 <= t < T=1.0, got t=-0.1"),
        "x_nan": (0.3, math.nan, 0.025, rf"x=nan outside {BOX}"),
        "x_inf": (0.3, math.inf, 0.025, rf"x=inf outside {BOX}"),
        "x_minus_inf": (0.3, -math.inf, 0.025, rf"x=-inf outside {BOX}"),
        "x_outside": (0.3, 100.0, 0.025, rf"x=100.0 outside {BOX}"),
        # the box is 1-d; unchecked, a vector x failed in the Euler pass
        # (mc_solution) or with a bare TypeError
        "x_vector": (0.3, [0.1, 0.2], 0.025, rf"x=\[0.1, 0.2\] outside {BOX}"),
    }
    # the touch window [t, t + eps] has a second end of its own
    WINDOW = r"need t < t_end <= T=1.0 on the window \[t, t_end\] = "
    BAD_WINDOW = {
        "eps_zero": (0.3, 0.0, 0.0, WINDOW + r"\[0.3, 0.3\]"),
        "eps_nan": (0.3, 0.0, math.nan, WINDOW + r"\[0.3, nan\]"),
        "past_T": (0.99, 0.0, 0.025, WINDOW + r"\[0.99, 1.015\]"),
    }

    @staticmethod
    def _spy(monkeypatch):
        calls = []
        for name in ("sample_brownian", "fd_reference"):
            fn = getattr(feynmankac, name)

            def spy(*args, _fn=fn, _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(feynmankac, name, spy)
        return calls

    @pytest.mark.parametrize(
        "entry, case",
        list(itertools.product(ENTRIES, BAD)) + [("touch", c) for c in BAD_WINDOW],
    )
    def test_bad_probe_refused_before_any_draw(self, monkeypatch, entry, case):
        t, x, eps, match = {**self.BAD, **self.BAD_WINDOW}[case]
        calls = self._spy(monkeypatch)
        with pytest.raises(ValidationError, match=match):
            self.ENTRIES[entry](heat_cos_problem(), t, x, eps, _cfg(M=500, n=50))
        assert calls == []

    def test_spies_see_a_valid_probe(self, monkeypatch):
        calls = self._spy(monkeypatch)
        for entry in self.ENTRIES.values():
            entry(heat_cos_problem(), 0.3, 0.4, 0.025, _cfg(M=500, n=50))
        draw, march = "sample_brownian", "fd_reference"
        assert calls == [draw, march, draw, draw, draw]


class TestViscosityTouch:
    def test_exact_solution_residuals_vanish_both_ways(self):
        p = semilinear_cos_problem()
        sol = semilinear_cos_solution()
        u_src = lambda t, x: float(np.asarray(sol.value(t, np.asarray(x, dtype=float))))
        rep = viscosity_touch_check(
            p, u_src, sol, 0.3, 0.4, mode="sub", eps=0.025, config=_cfg(seed=9, M=20_000, n=50)
        )
        assert abs(rep.residual_direct) < 1e-10
        assert abs(rep.residual_quotient) <= 3 * rep.quotient_se + 1e-8
        # super mode holds at the same point for the exact solution
        rep2 = viscosity_touch_check(
            p, u_src, sol, 0.3, 0.4, mode="super", eps=0.025, config=_cfg(seed=9, M=20_000, n=50)
        )
        assert abs(rep2.residual_direct) < 1e-10

    def test_bump_subsolution_sign(self):
        p = heat_cos_problem()
        sol = heat_cos_solution()
        u_src = lambda t, x: float(np.asarray(sol.value(t, np.asarray(x, dtype=float))))
        x0 = 0.5
        bumped = sol.bumped(x0, 1.0)
        eps = 0.02
        rep = viscosity_touch_check(
            p, u_src, bumped, 0.3, x0, mode="sub", eps=eps, config=_cfg(seed=10, M=20_000, n=50)
        )
        # the quartic leaves point derivatives unchanged: direct residual 0
        assert abs(rep.residual_direct) < 1e-10
        # the window quotient picks the bump's positive curvature up along
        # the path: strictly nonnegative, of size O(eps)
        assert rep.residual_quotient >= -3 * rep.quotient_se - 1e-9
        assert rep.residual_quotient - rep.residual_direct <= 6 * eps
        assert rep.touch_margin <= 1e-12

    def test_bump_supersolution_sign(self):
        p = heat_cos_problem()
        sol = heat_cos_solution()
        u_src = lambda t, x: float(np.asarray(sol.value(t, np.asarray(x, dtype=float))))
        x0 = -0.2
        dipped = sol.bumped(x0, -1.0)
        rep = viscosity_touch_check(
            p, u_src, dipped, 0.4, x0, mode="super", eps=0.02, config=_cfg(seed=11, M=20_000, n=50)
        )
        assert abs(rep.residual_direct) < 1e-10
        assert rep.residual_quotient <= 3 * rep.quotient_se + 1e-9

    def test_binding_stop_warns_like_the_quotient(self):
        # a window this wide against barrier 0.4 stops most paths
        p = semilinear_cos_problem()
        sol = semilinear_cos_solution()
        u_src = lambda t, x: float(np.asarray(sol.value(t, np.asarray(x, dtype=float))))
        with pytest.warns(RuntimeWarning, match="too wide"):
            rep = viscosity_touch_check(
                p, u_src, sol, 0.3, 0.4, mode="sub", eps=0.5, barrier=0.4,
                config=_cfg(seed=0, M=8000, n=50),
            )
        assert rep.frac_stopped > 0.5

    @pytest.mark.parametrize("t, x", [(0.3, 0.4), (0.0, -0.2)])
    def test_pinned_to_a_hand_built_window(self, t, x):
        # the check's quotient is the stop-gated solve of the compensated
        # generator on one Euler window; built by hand on the same draw,
        # that solve gives the report's numbers, bit for bit
        p = heat_cos_problem()
        phi = heat_cos_solution().bumped(x, 0.5)
        cfg, eps = _cfg(seed=13, M=3000, n=50), 0.025
        rep = viscosity_touch_check(p, _exact_heat, phi, t, x, cfg, eps=eps)
        grid = TimeGrid(t, t + eps, cfg.n_steps)
        batch = sample_brownian(grid, cfg.n_paths, 1, cfg.seed)
        fw = euler_maruyama(grid, p.drift, p.sigma, x, batch)
        window = WindowStack((grid,), fw.states, batch.increments)
        (y_t,), (telescoped,), (frac,) = _stopped_solve(
            proof_generator(p, phi), window, 0.0, np.zeros(1), cfg, 1.0
        )
        assert rep.residual_quotient == float(y_t.mean()) / eps
        assert rep.quotient_se == _mean_se(telescoped / eps)
        assert rep.frac_stopped == float(frac)
        assert rep.residual_quotient != 0.0

    def test_wrong_extremum_rejected(self):
        # u - phi with phi = u - (x - x0)^2 has a strict minimum at x0, so
        # claiming a subsolution touching (max) there must fail validation
        p = heat_cos_problem()
        sol = heat_cos_solution()
        u_src = lambda t, x: float(np.asarray(sol.value(t, np.asarray(x, dtype=float))))
        x0 = 0.5
        wrong = TestFunction(
            value=lambda t, x: sol.value(t, x) - (np.asarray(x) - x0) ** 2,
            dt=sol.dt,
            dx=lambda t, x: sol.dx(t, x) - 2 * (np.asarray(x) - x0),
            dxx=lambda t, x: sol.dxx(t, x) - 2.0,
        )
        with pytest.raises(ValidationError, match="local max"):
            viscosity_touch_check(
                p, u_src, wrong, 0.3, x0, mode="sub", config=_cfg(M=64, n=50)
            )

    def test_nan_u_source_rejected(self):
        # NaN compares false against the centre, so it must fail the check
        # rather than pass every node
        p = heat_cos_problem()
        sol = heat_cos_solution()
        with pytest.raises(ValidationError, match=r"not a local max .* at t=.*, x=.*: nan not <="):
            viscosity_touch_check(
                p, lambda t, x: math.nan, sol, 0.3, 0.4, mode="sub", config=_cfg(M=64, n=50)
            )

    @pytest.mark.parametrize("t, eps", [(0.99, 0.025), (-0.1, 0.025), (0.3, 0.0), (0.3, math.nan)])
    def test_window_must_lie_in_horizon(self, t, eps):
        p = heat_cos_problem()
        sol = heat_cos_solution()
        u_src = lambda t, x: float(np.asarray(sol.value(t, np.asarray(x, dtype=float))))
        if t < 0:
            match = re.escape(f"need 0 <= t < T=1.0, got t={t}")
        else:
            window = f"[t, t_end] = [{t}, {t + eps}]"
            match = re.escape(f"need t < t_end <= T=1.0 on the window {window}")
        with pytest.raises(ValidationError, match=match):
            viscosity_touch_check(p, u_src, sol, t, 0.0, eps=eps, config=_cfg(M=64, n=50))

    @pytest.mark.parametrize("x", [30.0, -4 * math.pi - 0.01, math.nan])
    def test_touching_point_must_lie_in_box(self, x):
        # the stencil skips nodes outside the box, so outside it phi bumped
        # downward at x, no local max of u - phi, would pass every node
        p = heat_cos_problem()
        sol = heat_cos_solution()
        u_src = lambda t, x: float(np.asarray(sol.value(t, np.asarray(x, dtype=float))))
        phi = sol.bumped(x, -5.0)
        box = re.escape(f"x={x} outside [{p.x_lo}, {p.x_hi}]")
        with pytest.raises(ValidationError, match=box):
            viscosity_touch_check(p, u_src, phi, 0.3, x, mode="sub", config=_cfg(M=500, n=50))

    def test_mode_validated(self):
        p = heat_cos_problem()
        sol = heat_cos_solution()
        u_src = lambda t, x: 0.0
        with pytest.raises(ValidationError):
            viscosity_touch_check(
                p, u_src, sol, 0.3, 0.0, mode="nonsense", config=_cfg(M=64, n=50)
            )

    @pytest.mark.parametrize(
        "h, k",
        [(0.0, 0.0), (0.0, 0.01), (0.05, 0.0), (math.nan, math.nan), (0.05, math.nan), (-0.05, 0.01)],
    )
    def test_stencil_steps_must_be_positive(self, h, k):
        # the exact solution bumped downward at x0 is no local max of u - phi,
        # and the default stencil says so; a zero or NaN step would compare
        # the centre with itself, or with nothing, and pass it
        p = heat_cos_problem()
        sol = heat_cos_solution()
        u_src = lambda t, x: float(np.asarray(sol.value(t, np.asarray(x, dtype=float))))
        phi = sol.bumped(0.4, -5.0)
        with pytest.raises(ValidationError, match="not a local max"):
            viscosity_touch_check(p, u_src, phi, 0.3, 0.4, mode="sub", config=_cfg(M=64, n=50))
        with pytest.raises(ValidationError, match="stencil steps must be > 0"):
            viscosity_touch_check(
                p, u_src, phi, 0.3, 0.4, mode="sub", stencil_h=h, stencil_k=k,
                config=_cfg(M=64, n=50),
            )


class TestProofGenerator:
    def test_metadata_passthrough(self):
        p = semilinear_cos_problem()
        G = proof_generator(p, semilinear_cos_solution())
        assert G.state_dependent
        assert G.lipschitz_z == p.generator.lipschitz_z
        # G(y) - G(0) = g(y + phi) - g(phi), affine with g's slope
        assert G.y_slope == p.generator.y_slope == -1.0
        check_generator_metadata(G, seed=0, n_samples=2000)

    def test_exact_solution_compensates_to_zero(self):
        # along any state, G(t, x, 0, 0) is the PDE residual of the exact
        # solution: identically zero
        p = heat_cos_problem()
        G = proof_generator(p, heat_cos_solution())
        xs = np.linspace(-2, 2, 7).reshape(-1, 1)
        vals = G(0.37, xs, np.zeros(7), np.zeros((7, 1)))
        assert np.allclose(vals, 0.0, atol=1e-12)


def _problem(**kw):
    return PDEProblem(**{
        "drift": lambda t, x: 0.0, "sigma": lambda t, x: 1.0,
        "generator": builtin_generator("linear"), "phi": np.cos, "growth_L": 2.0,
        "growth_p": 1.0, "T": 1.0, "x_lo": -1.0, "x_hi": 1.0, **kw,
    })


class TestProblemValidation:
    @pytest.mark.parametrize(
        "key, value",
        [("T", math.inf), ("x_lo", -math.inf), ("x_hi", math.inf), ("x_hi", math.nan),
         ("growth_L", math.inf), ("growth_p", math.inf)],
    )
    def test_problem_data_must_be_finite(self, key, value):
        # T = inf built and fd_reference raised OverflowError; x_hi = inf
        # was refused as "growth bound violated at t=0.0, x=nan"
        with pytest.raises(ValidationError, match=rf"^{key} must be finite, got {value}$"):
            _problem(**{key: value})

    def test_infinite_growth_constant_is_not_a_declaration(self):
        # growth_L = inf accepted phi = exp(x^2), which L = 2 refuses
        square_exp = lambda x: np.exp(np.asarray(x) ** 2)
        with pytest.raises(ValidationError, match="^growth bound violated at "):
            _problem(phi=square_exp, x_lo=-3.0, x_hi=3.0)
        with pytest.raises(ValidationError, match=r"^growth_L must be finite, got inf$"):
            _problem(phi=square_exp, x_lo=-3.0, x_hi=3.0, growth_L=math.inf)

    @pytest.mark.parametrize("run", ["mc_solution", "fd_reference"])
    def test_misshapen_drift_refused(self, run):
        # a drift of shape (M,) for states (M, 1) failed in numpy's broadcast
        p = _problem(drift=lambda t, x: 0.0 * x[..., 0])
        # 64 paths, or the 17 nodes of [-1, 1] at h = 0.125
        calls = {
            "mc_solution": (lambda: mc_solution(p, 0.0, 0.0, _cfg(M=64, n=10)), 64),
            "fd_reference": (lambda: fd_reference(p, h=0.125, k=1e-2), 17),
        }
        thunk, rows = calls[run]
        want = f"drift returned shape ({rows},), which does not broadcast to ({rows}, 1)"
        with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
            thunk()

    def test_domain_and_horizon(self):
        with pytest.raises(ValidationError):
            PDEProblem(
                drift=lambda t, x: 0.0,
                sigma=lambda t, x: 1.0,
                generator=builtin_generator("linear"),
                phi=np.cos,
                growth_L=2.0,
                growth_p=1.0,
                T=1.0,
                x_lo=1.0,
                x_hi=-1.0,
            )
        with pytest.raises(ValidationError):
            PDEProblem(
                drift=lambda t, x: 0.0,
                sigma=lambda t, x: 1.0,
                generator=builtin_generator("linear"),
                phi=np.cos,
                growth_L=2.0,
                growth_p=1.0,
                T=0.0,
                x_lo=-1.0,
                x_hi=1.0,
            )
