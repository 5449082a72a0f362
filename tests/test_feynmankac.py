import math

import numpy as np
import pytest

from bsdelab import (
    ExperimentConfig,
    NumericalError,
    PDEProblem,
    TestFunction,
    ValidationError,
    affine_problem,
    builtin_generator,
    fd_reference,
    heat_cos_problem,
    heat_cos_solution,
    mc_solution,
    mc_vs_fd,
    semilinear_cos_problem,
    semilinear_cos_solution,
    square_problem,
    viscosity_touch_check,
)
from bsdelab.feynmankac import growth_check, proof_generator

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
        with pytest.raises(ValidationError, match=r"CFL violation at time index 500 \(t=1\)"):
            fd_reference(p, h=H_COS, k=2e-3, theta=0.0)

    def test_sigma_degenerate_mid_horizon_refused(self):
        # sigma = |t - 1/2| is 0.5 at both ends and vanishes at level 50 of
        # 100 only
        p = self._time_sigma_problem(lambda t: abs(t - 0.5))
        with pytest.raises(
            ValidationError, match=r"degenerate on 511 interior node\(s\) at time index 50 \(t=0.5\)"
        ):
            fd_reference(p, h=H_COS, k=1e-2)

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
        p = PDEProblem(
            drift=lambda t, x: 0.0,
            sigma=lambda t, x: 1.0,
            generator=builtin_generator("linear"),
            phi=lambda x: np.asarray(x, dtype=float) ** 2,
            growth_L=0.5,
            growth_p=1.0,
            T=1.0,
            x_lo=-6.0,
            x_hi=6.0,
        )
        with pytest.raises(ValidationError, match="growth"):
            growth_check(p)
        # and the Monte Carlo front door refuses to run on it
        with pytest.raises(ValidationError, match="growth"):
            mc_solution(p, 0.0, 0.0, _cfg(M=64, n=10))


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

    @pytest.mark.parametrize("t, eps", [(0.99, 0.025), (-0.1, 0.025), (0.3, 0.0), (0.3, math.nan)])
    def test_window_must_lie_in_horizon(self, t, eps):
        p = heat_cos_problem()
        sol = heat_cos_solution()
        u_src = lambda t, x: float(np.asarray(sol.value(t, np.asarray(x, dtype=float))))
        with pytest.raises(ValidationError, match=r"touch window \[t, t \+ eps\]"):
            viscosity_touch_check(p, u_src, sol, t, 0.0, eps=eps, config=_cfg(M=64, n=50))

    def test_mode_validated(self):
        p = heat_cos_problem()
        sol = heat_cos_solution()
        u_src = lambda t, x: 0.0
        with pytest.raises(ValidationError):
            viscosity_touch_check(
                p, u_src, sol, 0.3, 0.0, mode="nonsense", config=_cfg(M=64, n=50)
            )


class TestProofGenerator:
    def test_metadata_passthrough(self):
        p = semilinear_cos_problem()
        G = proof_generator(p, semilinear_cos_solution())
        assert G.state_dependent
        assert G.lipschitz_z == p.generator.lipschitz_z

    def test_exact_solution_compensates_to_zero(self):
        # along any state, G(t, x, 0, 0) is the PDE residual of the exact
        # solution: identically zero
        p = heat_cos_problem()
        G = proof_generator(p, heat_cos_solution())
        xs = np.linspace(-2, 2, 7).reshape(-1, 1)
        vals = G(0.37, xs, np.zeros(7), np.zeros((7, 1)))
        assert np.allclose(vals, 0.0, atol=1e-12)


class TestProblemValidation:
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
