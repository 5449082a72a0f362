"""The benchmark's tracer rebinds package functions by name from outside.

A traced function that is renamed, removed or no longer bound where the
tracer looks would break the benchmark, not the package; this catches it
in the suite instead.
"""

import importlib.util
from pathlib import Path

import numpy as np

import bsdelab as bl
from bsdelab import cli, core, representation

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_every_target_and_uninstall_restores_it():
    tracer = _load_tracer().Tracer()
    originals = {(m.__name__, name): getattr(m, name) for m, name, _ in tracer._targets}
    call = core.Generator.__call__
    tracer.install()
    try:
        for module, name, _ in tracer._targets:
            assert getattr(module, name) is not originals[(module.__name__, name)], name
        # consumers that bound the function at import see the wrapper too
        assert cli.solve_bsde is not originals[("bsdelab.solver", "solve_bsde")]
        for name in ("sample_brownian", "stopping_indices"):
            assert getattr(representation, name) is not originals[("bsdelab.paths", name)]
        assert core.Generator.__call__ is not call

        # called through the package namespace, as the workloads call it
        grid = bl.TimeGrid(0.0, 1.0, 5)
        batch = bl.sample_brownian(grid, 200, 1, 0)
        fw = bl.euler_maruyama(grid, lambda t, x: 0.0, lambda t, x: 1.0, [0.0], batch)
        problem = bl.BSDEProblem(
            generator=bl.builtin_generator("linear", a=-1.0),
            t_start=0.0,
            t_end=1.0,
            dimension_d=1,
            terminal=lambda s: np.ones(s.shape[0]),
        )
        bl.solve_bsde(problem, fw, batch, bl.ExperimentConfig(seed=0, n_paths=200, n_steps=5))
    finally:
        tracer.uninstall()

    metrics = tracer.layer_metrics(wall_s=1.0)
    assert metrics["solver.solves"] == 1
    assert metrics["solver.steps"] == 5
    assert metrics["paths.path_steps"] == 200 * 5
    assert metrics["core.gen_evals"] > 0
    for module, name, _ in tracer._targets:
        assert getattr(module, name) is originals[(module.__name__, name)], name
    assert cli.solve_bsde is originals[("bsdelab.solver", "solve_bsde")]
    for name in ("sample_brownian", "stopping_indices"):
        assert getattr(representation, name) is originals[("bsdelab.paths", name)]
    assert core.Generator.__call__ is call


def test_a_study_is_traced_window_by_window():
    # convergence_study's cells, its one draw and its design builds must
    # stay where the tracer looks: representation_quotient per window,
    # sample_brownian once, polynomial_design for the anchor rows once per
    # window and for the increment rows once per step
    tracer = _load_tracer().Tracer()
    M, n, schedule = 600, 50, (0.1, 0.05, 0.025)
    g = bl.builtin_generator("stress", delta=0.1)
    cfg = bl.ExperimentConfig(seed=3, n_paths=M, n_steps=n)
    tracer.install()
    try:
        bl.convergence_study(g, 0.5, 0.1, 0.2, 0.3, schedule, cfg, barrier=2.0)
    finally:
        tracer.uninstall()

    names = [span[0] for span in tracer.spans]
    assert names.count("representation.representation_quotient") == len(schedule)
    assert names.count("paths.sample_brownian") == 1
    assert names.count("paths.stopping_indices") == len(schedule)
    assert names.count("solver.polynomial_design") == len(schedule) * (n + 1)
    metrics = tracer.layer_metrics(wall_s=1.0)
    assert metrics["representation.cells"] == len(schedule)
    assert metrics["paths.path_steps"] == M * n
    assert metrics["solver.design_s"] > 0
