"""Monte Carlo laboratory for scalar backward stochastic equations.

Generators with declared regularity metadata, reproducible path sampling,
a least-squares backward solver, Lipschitz envelope approximations,
difference-quotient representation experiments, and a semilinear PDE
bridge with an independent finite difference reference.

The names below are the surface the command line, the acceptance suite and
the benchmark use, plus the error classes and the input types a caller
builds; everything else is importable from its submodule.
"""

from .core import (
    BSDEProblem,
    ExperimentConfig,
    Generator,
    builtin_generator,
    check_generator_metadata,
)
from .envelope import convergence_curve, sandwich_check
from .errors import (
    BsdeLabError,
    ExperimentFailure,
    HypothesisError,
    NumericalError,
    PicardError,
    ValidationError,
)
from .feynmankac import (
    PDEProblem,
    TestFunction,
    affine_problem,
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
from .paths import TimeGrid, euler_maruyama, sample_brownian
from .representation import convergence_study, converse_comparison_probe
from .solver import solve_bsde

__version__ = "0.1.0"

__all__ = [
    "BSDEProblem",
    "BsdeLabError",
    "ExperimentConfig",
    "ExperimentFailure",
    "Generator",
    "HypothesisError",
    "NumericalError",
    "PDEProblem",
    "PicardError",
    "TestFunction",
    "TimeGrid",
    "ValidationError",
    "affine_problem",
    "builtin_generator",
    "check_generator_metadata",
    "convergence_curve",
    "convergence_study",
    "converse_comparison_probe",
    "euler_maruyama",
    "fd_reference",
    "heat_cos_problem",
    "heat_cos_solution",
    "mc_solution",
    "mc_vs_fd",
    "sample_brownian",
    "sandwich_check",
    "semilinear_cos_problem",
    "semilinear_cos_solution",
    "solve_bsde",
    "square_problem",
    "viscosity_touch_check",
]
