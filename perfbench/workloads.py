"""The three benchmark workloads, each one acceptance criterion at its shipped size.

Every workload has three phases.  ``setup(seed)`` builds the inputs (problem
objects, configs, oracle constants) and is timed as set-up.  ``run(inputs)``
makes the calls into bsdelab that are timed.  ``evaluate(inputs, raw)``
records the numeric result next to its oracle and tolerance, hashes it, and
checks it.  The oracles and tolerances are restated here from the acceptance
criteria rather than imported from the test suite, so the benchmark stays
independent of both the tests and the code under test.

The workload seed is the criterion's acceptance seed plus the ``--seed``
argument, so ``--seed 0`` reproduces the acceptance runs exactly.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

import bsdelab as bl

EPS_SCHEDULE = (0.1, 0.05, 0.025, 0.0125)


def _digest(numbers: dict, arrays=()) -> str:
    """sha256 over the exact bits of the recorded numbers and result arrays."""
    h = hashlib.sha256()
    for key in sorted(numbers):
        vals = np.atleast_1d(np.asarray(numbers[key], dtype=float))
        h.update(key.encode())
        h.update(",".join(float(v).hex() for v in vals).encode())
    for a in arrays:
        h.update(memoryview(np.ascontiguousarray(a, dtype=float)).cast("B"))
    return h.hexdigest()


def _record(result, oracle, tolerance, ratios, gates, arrays=()):
    """Result next to its oracle and tolerance; err_ratio <= 1 means within bounds."""
    err_ratio = max(ratios)
    return {
        "result": result,
        "oracle": oracle,
        "tolerance": tolerance,
        "err_ratio": err_ratio,
        "passed": bool(err_ratio <= 1.0 and all(gates.values())),
        "gates": gates,
        "sha256": _digest(result, arrays),
    }


class SolveLinear:
    """Criterion 1: g = -y, terminal 1, M = 1e5, N = 100; Y0 within 2% of e^-1."""

    acceptance_seed = 101

    def setup(self, seed):
        n_paths, n_steps = 100_000, 100
        grid = bl.TimeGrid(0.0, 1.0, n_steps)
        return {
            "config": bl.ExperimentConfig(seed=seed, n_paths=n_paths, n_steps=n_steps),
            "grid": grid,
            "problem": bl.BSDEProblem(
                generator=bl.builtin_generator("linear", a=-1.0),
                t_start=0.0,
                t_end=1.0,
                dimension_d=1,
                terminal=lambda s: np.ones(s.shape[0]),
            ),
        }

    def run(self, inputs):
        cfg, grid = inputs["config"], inputs["grid"]
        batch = bl.sample_brownian(grid, cfg.n_paths, 1, cfg.seed)
        fw = bl.euler_maruyama(grid, lambda t, x: 0.0, lambda t, x: 1.0, [0.0], batch)
        return bl.solve_bsde(inputs["problem"], fw, batch, cfg)

    def evaluate(self, inputs, sol):
        y0 = float(sol.Y[:, 0].mean())
        want = math.exp(-1.0)
        tol = 0.02 * want
        return _record(
            {"y0": y0},
            {"y0": want},
            {"y0_abs": tol},
            [abs(y0 - want) / tol],
            {},
            arrays=(sol.Y[:, 0], sol.Z[:, 0, :]),
        )


class QuotientStress:
    """Criterion 4: stress-driver quotient study, M = 1e5, N = 50 per window.

    Oracle: L1 errors decreasing within error bars, final L1 error under 10%
    of the mean |target| over the anchor marginal B_0.5 ~ N(0, 1/2), and
    under 5% of paths stopped in every window.
    """

    acceptance_seed = 104

    def setup(self, seed):
        g = bl.builtin_generator("stress", delta=0.1)
        # property-based scale, fixed independently of the workload seed
        xs = np.random.default_rng(0).normal(0.0, math.sqrt(0.5), (1_000_000, 1))
        n = xs.shape[0]
        scale = float(np.abs(g(0.5, xs, np.full(n, 0.2), np.full((n, 1), 0.3))).mean())
        return {
            "g": g,
            "config": bl.ExperimentConfig(seed=seed, n_paths=100_000, n_steps=50),
            "scale": scale,
        }

    def run(self, inputs):
        return bl.convergence_study(
            inputs["g"], 0.5, np.zeros(1), 0.2, [0.3], EPS_SCHEDULE, inputs["config"]
        )

    def evaluate(self, inputs, report):
        l1 = [float(v) for v in report.lp_errors[1]]
        se = [float(v) for v in report.lp_ses[1]]
        frac = [float(v) for v in report.frac_stopped]
        scale = inputs["scale"]
        # decreasing within one combined standard error plus float dust
        dust = 1e-12 * (1.0 + 0.2) / EPS_SCHEDULE[-1]
        decreasing = all(
            l1[k + 1] <= l1[k] + math.hypot(se[k], se[k + 1]) + dust for k in range(len(l1) - 1)
        )
        return _record(
            {
                "l1_errors": l1,
                "l1_ses": se,
                "quotient_means": [float(v) for v in report.quotient_means],
                "frac_stopped": frac,
            },
            {"mean_abs_target": scale},
            {"final_l1": 0.10 * scale, "frac_stopped": 0.05},
            [l1[-1] / (0.10 * scale), max(frac) / 0.05],
            {"errors_decreasing": decreasing},
        )


class FkCrossval:
    """Criterion 7: heat_cos and semilinear_cos through mc_vs_fd at (0, 0).

    Oracle: MC within max(2%, 3 SE) and FD within 0.5% of the separation
    solutions e^-1/2 and e^-3/2, and MC within the mc_vs_fd budget of FD.
    """

    acceptance_seed = 107

    def setup(self, seed):
        return {
            "cases": (
                ("heat_cos", bl.heat_cos_problem(), math.exp(-0.5)),
                ("semilinear_cos", bl.semilinear_cos_problem(), math.exp(-1.5)),
            ),
            "config": bl.ExperimentConfig(seed=seed, n_paths=20_000, n_steps=100),
            "h": math.pi / 64,
            "k": 2e-3,
        }

    def run(self, inputs):
        return [
            bl.mc_vs_fd(problem, [(0.0, 0.0)], inputs["config"], inputs["h"], inputs["k"])[0]
            for _, problem, _ in inputs["cases"]
        ]

    def evaluate(self, inputs, rows):
        result, oracle, tolerance, ratios = {}, {}, {}, []
        for (name, _, want), row in zip(inputs["cases"], rows):
            tol_mc = max(0.02 * want, 3.0 * row.se)
            tol_fd = 0.005 * want
            # the mc_vs_fd budget: 2% of FD, or 3 SE plus 0.5% of scale
            tol_gap = max(0.02 * abs(row.u_fd), 3.0 * row.se + 0.005 * max(1.0, abs(row.u_fd)))
            result.update({f"{name}.u_mc": row.u_mc, f"{name}.se": row.se, f"{name}.u_fd": row.u_fd})
            oracle[f"{name}.u"] = want
            tolerance.update(
                {f"{name}.mc_abs": tol_mc, f"{name}.fd_abs": tol_fd, f"{name}.mc_fd_abs": tol_gap}
            )
            ratios += [
                abs(row.u_mc - want) / tol_mc,
                abs(row.u_fd - want) / tol_fd,
                abs(row.u_mc - row.u_fd) / tol_gap,
            ]
        return _record(result, oracle, tolerance, ratios, {})


WORKLOADS = {
    "solve-linear": SolveLinear(),
    "quotient-stress": QuotientStress(),
    "fk-crossval": FkCrossval(),
}
