"""Command line front end.

Every subcommand reads a flat ``key = value`` config file (full-line ``#``
comments allowed, unknown keys rejected), runs one experiment, and emits a
CSV table prefixed with ``#`` manifest lines: schema id, sha256 of the
resolved configuration, seed, package version.  No timestamps or host
information ever enter the output, so reruns are byte-identical.

Exit codes: 0 success, 2 invalid configuration, unreadable config or
unwritable --out file, or violated hypothesis (message then starts with
HYPOTHESIS_FAIL), 3 numerical breakdown, 4 the
experiment ran but its assertion failed.  Errors are a single line on
stderr of the form ``bsdelab: <ErrorClass>: <message>``.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys

import numpy as np

from . import __version__
from .core import _BUILTINS, BSDEProblem, ExperimentConfig, _sample_sd, builtin_generator
from .envelope import convergence_curve
from .errors import BsdeLabError, ExperimentFailure, ValidationError
from .feynmankac import (
    _const,
    affine_problem,
    heat_cos_problem,
    heat_cos_solution,
    mc_vs_fd,
    semilinear_cos_problem,
    semilinear_cos_solution,
    square_problem,
    viscosity_touch_check,
)
from .paths import TimeGrid, euler_maruyama, sample_brownian
from .representation import convergence_study, converse_comparison_probe
from .solver import solve_bsde

_REQUIRED = object()
_OPTIONAL = object()

# per-subcommand config schemas: key -> (kind, default); the generator keys
# are the built-ins' parameters, whose defaults builtin_generator fills in
_GEN_KEYS = {"generator": ("str", _REQUIRED)} | {
    key: ("floats" if isinstance(default, tuple) else "float", _OPTIONAL)
    for _, defaults in _BUILTINS.values()
    for key, default in defaults.items()
}

_SIZES = {
    "seed": ("int", 0),
    "n_paths": ("int", 20_000),
    "n_steps": ("int", 100),
}

# constant-coefficient diffusion of simulate and solve
_FORWARD_KEYS = {
    "t_start": ("float", 0.0),
    "t_end": ("float", 1.0),
    "d": ("int", 1),
    "x0": ("floats", [0.0]),
    "drift": ("float", 0.0),
    "sigma": ("float", 1.0),
}

_SOLVER_KEYS = {
    "basis_degree": ("int", ExperimentConfig.basis_degree),
    "picard_max": ("int", ExperimentConfig.picard_max),
    "picard_tol": ("float", ExperimentConfig.picard_tol),
}

_SCHEMAS = {
    "simulate": {**_SIZES, "n_paths": ("int", 4096), **_FORWARD_KEYS},
    "solve": {
        **_SIZES,
        **_FORWARD_KEYS,
        "terminal": ("str", "last"),
        **_GEN_KEYS,
        **_SOLVER_KEYS,
    },
    "envelope": {
        **_GEN_KEYS,
        "alpha": ("float", _REQUIRED),
        "t": ("float", 0.0),
        "x": ("floats", [0.0]),
        "n_list": ("floats", _REQUIRED),
        "u_resolution": ("float", 1e-4),
    },
    "represent": {
        **_SIZES,
        **_GEN_KEYS,
        "t": ("float", _REQUIRED),
        "x": ("floats", _OPTIONAL),
        "y": ("float", _REQUIRED),
        "z": ("floats", _REQUIRED),
        "eps_schedule": ("floats", _REQUIRED),
        "barrier": ("float", 1.0),
        "require_decreasing": ("bool", False),
        **_SOLVER_KEYS,
    },
    "converse": {
        **_SIZES,
        # generator1, g1_a, ..., generator2, g2_a, ...: _GEN_KEYS per driver
        **{
            (f"generator{n}" if key == "generator" else f"g{n}_{key}"): spec
            for n in (1, 2)
            for key, spec in _GEN_KEYS.items()
        },
        "points_t": ("floats", _REQUIRED),
        "points_x": ("floats", _REQUIRED),
        "points_y": ("floats", _REQUIRED),
        "points_z": ("floats", _REQUIRED),
        "eps": ("float", _REQUIRED),
        "barrier": ("float", 1.0),
        "hypothesis_threshold": ("float", 0.999),
        **_SOLVER_KEYS,
    },
    "fk": {
        **_SIZES,
        "pde": ("str", _REQUIRED),
        "T": ("float", 1.0),
        "half_width": ("float", _OPTIONAL),
        "c0": ("float", 1.0),
        "c1": ("float", 0.5),
        "probes_t": ("floats", _REQUIRED),
        "probes_x": ("floats", _REQUIRED),
        "h": ("float", _REQUIRED),
        "k": ("float", 1e-3),
        "theta": ("float", 0.5),
        **_SOLVER_KEYS,
    },
    "touch": {
        **_SIZES,
        "n_steps": ("int", 50),
        "pde": ("str", _REQUIRED),
        "T": ("float", 1.0),
        "phi": ("str", "exact"),
        "mode": ("str", "sub"),
        "t": ("float", _REQUIRED),
        "x": ("float", _REQUIRED),
        "eps": ("float", 0.025),
        "bump_amplitude": ("float", 1.0),
        "stencil_h": ("float", 0.05),
        "stencil_k": ("float", 0.01),
        "barrier": ("float", 1.0),
        "tol": ("float", 5e-3),
        "agreement_slope": ("float", 5.0),
        **_SOLVER_KEYS,
    },
}

_COLUMN_DOCS = {
    "simulate": """\
columns:
  step           grid index, 0..n_steps
  t              grid time
  mean_J, sd_J   sample mean / standard deviation of state coordinate J
""",
    "solve": """\
columns:
  step           grid index, 0..n_steps
  t              grid time
  mean_y, sd_y   sample mean / standard deviation of the solved Y at t
  mean_z_J       sample mean of the J-th martingale-integrand coordinate
                 (nan on the terminal row, where no regression happens)
  picard_iters   implicit-step iterations: generator evaluations of the
                 step's slowest path before any bisection; each path stops
                 on its own, and once at most half the paths still move
                 those iterate alone (nan on last row)
  cond           condition number of the regression design (nan on last row)
""",
    "envelope": """\
columns:
  alpha          truncation radius of the y-argument
  n              penalty slope of the Lipschitz approximation
  t              time the envelopes are evaluated at
  lower, upper   inf/sup envelope values at y = 0
  combined       |lower - g0| + |upper - g0|, the distance at y = 0
  bound          2*psi_hat + 4*|g0|, the a-priori cap on combined
  argmin_u       minimizer of the lower envelope scan
  argmax_u       maximizer of the upper envelope scan
""",
    "represent": """\
columns:
  t, y, z_J      probe point (z_J the J-th integrand coordinate)
  eps            quotient window width
  quotient_mean  Monte Carlo mean of (Y_t - y)/eps
  se             standard error of that mean
  target_mean    mean of g at the realized time-t state (the limit)
  l1_err, l1_se  L^1 distance of the quotient to the target, and its SE
  l2_err, l2_se  same in L^2
  rate           fitted log-log slope of l1_err vs eps (nan when skipped);
                 identical on every row
""",
    "converse": """\
columns:
  point_id       row index into the probe list
  t, x, y, z     probe point
  mean1, mean2   quotient means for generator1 / generator2
  se_diff        standard error of the paired difference
  verdict        'ordered' or 'violated'
""",
    "fk": """\
columns:
  t, x           probe point
  u_mc           Monte Carlo estimate of u(t, x)
  se             its standard error (pathwise telescoped sums)
  u_fd           theta-scheme reference value
  diff           u_mc - u_fd
  tol            acceptance bar: max(2% of |u_fd|, 3*se + FD budget)
  pass           'pass' or 'fail'
""",
    "touch": """\
columns:
  t, x, mode         touching point and inequality side (sub/super)
  residual_direct    PDE residual of the test function, analytic derivatives
  residual_quotient  same residual via the compensated-generator quotient
  quotient_se        standard error of the quotient
  frac_stopped       fraction of paths where the stopping index bound
  touch_margin       worst stencil violation of the touching property (<= 0
                     means the extremum is strict on the stencil)
  pass               'pass' or 'fail': both residuals satisfy the mode's sign
                     within tolerance and agree within
                     3*se + tol + agreement_slope*eps
""",
}


def _parse_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    out: dict[str, str] = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValidationError(f"{path}:{ln}: expected 'key = value', got {stripped!r}")
        key, _, val = stripped.partition("=")
        key = key.strip()
        val = val.strip()
        if not key:
            raise ValidationError(f"{path}:{ln}: empty key")
        if key in out:
            raise ValidationError(f"{path}:{ln}: duplicate key {key!r}")
        out[key] = val
    return out


def _coerce(key: str, raw: str, kind: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            vals = [float(raw)]
        elif kind == "floats":
            parts = [p.strip() for p in raw.split(",")]
            vals = [float(p) for p in parts if p != ""]
            if not vals:
                raise ValueError("empty list")
        elif kind == "bool":
            low = raw.lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError("expected true/false")
        else:
            return raw
    except ValueError as exc:
        raise ValidationError(f"config key {key!r}: cannot parse {raw!r} as {kind}") from exc
    # nan/inf would crash a runner or silently switch a check off
    if not all(map(math.isfinite, vals)):
        raise ValidationError(f"config key {key!r}: {raw!r} is not finite")
    return vals[0] if kind == "float" else vals


def _resolve(command: str, file_values: dict[str, str], seed_override) -> dict:
    schema = _SCHEMAS[command]
    unknown = sorted(set(file_values) - set(schema))
    if unknown:
        raise ValidationError(f"unknown config key(s) for {command}: {', '.join(unknown)}")
    cfg: dict = {}
    for key, (kind, default) in schema.items():
        if key in file_values:
            cfg[key] = _coerce(key, file_values[key], kind)
        elif default is _REQUIRED:
            raise ValidationError(f"config key {key!r} is required for {command}")
        elif default is not _OPTIONAL:
            cfg[key] = default
    if seed_override is not None:
        if "seed" not in schema:
            raise ValidationError(f"--seed is not accepted by {command}")
        cfg["seed"] = int(seed_override)
    return cfg


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    if isinstance(v, (list, tuple)):
        return ",".join(_fmt(p) for p in v)
    return str(v)


def _render(command: str, cfg: dict, columns: list[str], rows: list[list]) -> str:
    canonical = "\n".join(f"{k} = {_fmt(cfg[k])}" for k in sorted(cfg))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    lines = [
        f"# schema: bsdelab.{command}.v1",
        f"# config_sha256: {digest}",
        f"# seed: {cfg.get('seed', 'none')}",
        f"# version: {__version__}",
        ",".join(columns),
    ]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _experiment_config(cfg: dict) -> ExperimentConfig:
    return ExperimentConfig(**{key: cfg[key] for key in (*_SIZES, *_SOLVER_KEYS)})


def _generator_from(cfg: dict, name_key: str = "generator", prefix: str = ""):
    name = cfg[name_key]
    params = {
        short: cfg[prefix + short]
        for short in _GEN_KEYS
        if short != "generator" and prefix + short in cfg
    }
    # builtin_generator rejects parameters the named generator does not take
    return builtin_generator(name, **params)


_TERMINALS = {
    "last": lambda s: s[:, -1, 0],
    "abs": lambda s: np.sqrt(np.sum(s[:, -1, :] ** 2, axis=-1)),
    "cos": lambda s: np.cos(s[:, -1, 0]),
    "square": lambda s: np.sum(s[:, -1, :] ** 2, axis=-1),
}


def _forward(cfg: dict):
    """Constant-coefficient diffusion of simulate and solve: (grid, batch, forward)."""
    d = cfg["d"]
    x0 = cfg["x0"]
    if len(x0) == 1 and d > 1:
        x0 = x0 * d
    if len(x0) != d:
        raise ValidationError(f"x0 has {len(x0)} coordinate(s), expected d={d}")
    grid = TimeGrid(cfg["t_start"], cfg["t_end"], cfg["n_steps"])
    batch = sample_brownian(grid, cfg["n_paths"], d, cfg["seed"])
    fw = euler_maruyama(grid, _const(cfg["drift"]), _const(cfg["sigma"]), x0, batch)
    return grid, batch, fw


def _run_simulate(cfg: dict):
    grid, _, fw = _forward(cfg)
    times = grid.times()
    n = fw.states.shape[2]
    columns = ["step", "t"]
    for j in range(1, n + 1):
        columns += [f"mean_{j}", f"sd_{j}"]
    rows = []
    for i in range(cfg["n_steps"] + 1):
        row = [i, float(times[i])]
        for j in range(n):
            coord = fw.states[:, i, j]
            row += [float(coord.mean()), _sample_sd(coord)]
        rows.append(row)
    return columns, rows, None


def _run_solve(cfg: dict):
    g = _generator_from(cfg)
    if cfg["terminal"] not in _TERMINALS:
        raise ValidationError(
            f"unknown terminal {cfg['terminal']!r}; choose from {sorted(_TERMINALS)}"
        )
    terminal = _TERMINALS[cfg["terminal"]]
    d = cfg["d"]
    grid, batch, fw = _forward(cfg)
    problem = BSDEProblem(
        generator=g,
        t_start=cfg["t_start"],
        t_end=cfg["t_end"],
        dimension_d=d,
        terminal=terminal,
    )
    sol = solve_bsde(problem, fw, batch, _experiment_config(cfg))
    times = grid.times()
    columns = ["step", "t", "mean_y", "sd_y"]
    columns += [f"mean_z_{j}" for j in range(1, d + 1)]
    columns += ["picard_iters", "cond"]
    rows = []
    n_steps = cfg["n_steps"]
    diag = sol.diagnostics
    for i in range(n_steps + 1):
        y = sol.Y[:, i]
        row = [i, float(times[i]), float(y.mean()), _sample_sd(y)]
        if i < n_steps:
            row += [float(sol.Z[:, i, j].mean()) for j in range(d)]
            row += [int(diag["picard_iters"][i]), float(diag["cond"][i])]
        else:
            row += [math.nan] * d + [math.nan, math.nan]
        rows.append(row)
    return columns, rows, None


def _run_envelope(cfg: dict):
    g = _generator_from(cfg)
    x = np.asarray(cfg["x"], dtype=float)
    curve = convergence_curve(
        g, cfg["alpha"], cfg["t"], x, cfg["n_list"], u_resolution=cfg["u_resolution"]
    )
    columns = ["alpha", "n", "t", "lower", "upper", "combined", "bound", "argmin_u", "argmax_u"]
    rows = [
        [cfg["alpha"], r.n, cfg["t"], r.lower, r.upper, r.combined, r.bound, r.argmin_u, r.argmax_u]
        for r in curve
    ]
    return columns, rows, None


def _run_represent(cfg: dict):
    g = _generator_from(cfg)
    report = convergence_study(
        g,
        cfg["t"],
        cfg.get("x", 0.0),
        cfg["y"],
        cfg["z"],
        cfg["eps_schedule"],
        _experiment_config(cfg),
        barrier=cfg["barrier"],
    )
    d = len(report.z)
    columns = ["t", "y"] + [f"z_{j}" for j in range(1, d + 1)]
    columns += [
        "eps", "quotient_mean", "se", "target_mean",
        "l1_err", "l1_se", "l2_err", "l2_se", "rate",
    ]
    rate = math.nan if report.fitted_rate is None else report.fitted_rate
    rows = []
    for idx, eps in enumerate(report.eps_schedule):
        row = [report.t, report.y] + list(report.z)
        row += [
            eps,
            report.quotient_means[idx],
            report.quotient_ses[idx],
            report.target_mean,
            report.lp_errors[1][idx],
            report.lp_ses[1][idx],
            report.lp_errors[2][idx],
            report.lp_ses[2][idx],
            rate,
        ]
        rows.append(row)
    post = None
    if cfg["require_decreasing"] and not report.errors_decreasing:
        post = ExperimentFailure("quotient errors fail to decrease along the eps schedule")
    return columns, rows, post


def _run_converse(cfg: dict):
    g1 = _generator_from(cfg, "generator1", prefix="g1_")
    g2 = _generator_from(cfg, "generator2", prefix="g2_")
    pt, px, py, pz = cfg["points_t"], cfg["points_x"], cfg["points_y"], cfg["points_z"]
    if not len(pt) == len(px) == len(py) == len(pz):
        raise ValidationError("points_t/x/y/z must all have the same length")
    points = list(zip(pt, px, py, pz))
    report = converse_comparison_probe(
        g1,
        g2,
        points,
        cfg["eps"],
        _experiment_config(cfg),
        barrier=cfg["barrier"],
        hypothesis_threshold=cfg["hypothesis_threshold"],
    )
    columns = ["point_id", "t", "x", "y", "z", "mean1", "mean2", "se_diff", "verdict"]
    rows = []
    for i, r in enumerate(report.rows):
        rows.append(
            [i, r.t, r.x[0], r.y, r.z[0], r.mean1, r.mean2, r.se_diff,
             "ordered" if r.ordered else "violated"]
        )
    post = None
    if not report.all_ordered:
        post = ExperimentFailure("quotient ordering violated at one or more probe points")
    return columns, rows, post


# pde name -> (problem factory taking the config, exact solution or None);
# touch needs the exact solution, fk only the problem
_PDES = {
    "affine": (lambda cfg, **kw: affine_problem(cfg["c0"], cfg["c1"], cfg["T"], **kw), None),
    "heat_cos": (lambda cfg, **kw: heat_cos_problem(cfg["T"], **kw), heat_cos_solution),
    "semilinear_cos": (
        lambda cfg, **kw: semilinear_cos_problem(cfg["T"], **kw),
        semilinear_cos_solution,
    ),
    "square": (lambda cfg, **kw: square_problem(cfg["T"], **kw), None),
}


def _pde_from(cfg: dict):
    name = cfg["pde"]
    if name not in _PDES:
        raise ValidationError(f"unknown pde {name!r}; choose from {', '.join(_PDES)}")
    factory, _ = _PDES[name]
    hw = {"half_width": cfg["half_width"]} if "half_width" in cfg else {}
    return factory(cfg, **hw)


def _run_fk(cfg: dict):
    problem = _pde_from(cfg)
    if not len(cfg["probes_t"]) == len(cfg["probes_x"]):
        raise ValidationError("probes_t and probes_x must have the same length")
    points = list(zip(cfg["probes_t"], cfg["probes_x"]))
    config = _experiment_config(cfg)
    rows_out = mc_vs_fd(problem, points, config, cfg["h"], cfg["k"], theta=cfg["theta"])
    columns = ["t", "x", "u_mc", "se", "u_fd", "diff", "tol", "pass"]
    rows = [
        [r.t, r.x, r.u_mc, r.se, r.u_fd, r.diff, r.tol, "pass" if r.passed else "fail"]
        for r in rows_out
    ]
    post = None
    if not all(r.passed for r in rows_out):
        post = ExperimentFailure("Monte Carlo and FD reference disagree beyond tolerance")
    return columns, rows, post


def _run_touch(cfg: dict):
    name = cfg["pde"]
    exact = tuple(k for k, (_, sol) in _PDES.items() if sol is not None)
    if name not in exact:
        raise ValidationError(f"touch supports pde in ({', '.join(exact)}), got {name!r}")
    problem = _pde_from(cfg)
    solution = _PDES[name][1](cfg["T"])
    mode = cfg["mode"]
    if cfg["phi"] == "exact":
        phi = solution
    elif cfg["phi"] == "bump":
        amp = cfg["bump_amplitude"]
        if amp <= 0:
            raise ValidationError(f"bump_amplitude must be > 0, got {amp}")
        # u - phi must peak (sub) or dip (super) at x, so the quartic is
        # added with the matching sign
        phi = solution.bumped(cfg["x"], amp if mode == "sub" else -amp)
    else:
        raise ValidationError(f"phi must be 'exact' or 'bump', got {cfg['phi']!r}")

    u_source = lambda t, x: float(np.asarray(solution.value(t, np.asarray(x, dtype=float))))
    report = viscosity_touch_check(
        problem,
        u_source,
        phi,
        cfg["t"],
        cfg["x"],
        _experiment_config(cfg),
        mode=mode,
        eps=cfg["eps"],
        stencil_h=cfg["stencil_h"],
        stencil_k=cfg["stencil_k"],
        barrier=cfg["barrier"],
    )
    tol = cfg["tol"]
    band = 3 * report.quotient_se + tol
    if mode == "sub":
        sign_ok = report.residual_direct >= -tol and report.residual_quotient >= -band
    else:
        sign_ok = report.residual_direct <= tol and report.residual_quotient <= band
    # the quotient is taken at finite window width, which contributes an
    # O(eps) term driven by the test function's curvature along the path
    agree = (
        abs(report.residual_direct - report.residual_quotient)
        <= band + cfg["agreement_slope"] * cfg["eps"]
    )
    ok = sign_ok and agree
    columns = [
        "t", "x", "mode", "residual_direct", "residual_quotient",
        "quotient_se", "frac_stopped", "touch_margin", "pass",
    ]
    rows = [[
        report.t, report.x, report.mode, report.residual_direct,
        report.residual_quotient, report.quotient_se, report.frac_stopped,
        report.touch_margin, "pass" if ok else "fail",
    ]]
    post = None if ok else ExperimentFailure(
        "viscosity residual check failed "
        f"(direct={report.residual_direct:.6g}, quotient={report.residual_quotient:.6g})"
    )
    return columns, rows, post


_RUNNERS = {
    "simulate": _run_simulate,
    "solve": _run_solve,
    "envelope": _run_envelope,
    "represent": _run_represent,
    "converse": _run_converse,
    "fk": _run_fk,
    "touch": _run_touch,
}

_HELP = {
    "simulate": "Simulate a constant-coefficient diffusion and tabulate per-step moments.",
    "solve": "Run the backward least-squares sweep and tabulate Y/Z statistics per step.",
    "envelope": "Tabulate Lipschitz envelope values along a schedule of penalty slopes.",
    "represent": "Estimate generator difference quotients along a shrinking-window schedule.",
    "converse": "Check quotient ordering of two generators after verifying solution ordering.",
    "fk": "Compare Monte Carlo PDE values against a theta-scheme finite difference reference.",
    "touch": "Evaluate viscosity residuals of a touching test function, two independent ways.",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsdelab",
        description=(
            "Backward-equation experiments with CSV output. Errors print one "
            "line 'bsdelab: <ErrorClass>: <message>' on stderr; exit codes: 0 ok, "
            "2 invalid input or violated hypothesis, 3 numerical failure, "
            "4 experiment assertion failed."
        ),
    )
    parser.add_argument("--version", action="version", version=f"bsdelab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        keys = "\n".join(
            f"  {k} ({kind}{', required' if default is _REQUIRED else ''})"
            for k, (kind, default) in _SCHEMAS[name].items()
        )
        sub = subs.add_parser(
            name,
            help=_HELP[name],
            description=_HELP[name],
            epilog=f"config keys:\n{keys}\n\n{_COLUMN_DOCS[name]}",
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        sub.add_argument("--config", required=True, help="path to a flat key = value file")
        sub.add_argument("--seed", type=int, default=None, help="override the config seed")
        sub.add_argument("--out", default=None, help="write the CSV here instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        file_values = _parse_config_file(args.config)
        cfg = _resolve(args.command, file_values, args.seed)
        columns, rows, post = _RUNNERS[args.command](cfg)
        text = _render(args.command, cfg, columns, rows)
        if args.out is None:
            sys.stdout.write(text)
        else:
            try:
                with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ValidationError(f"cannot write {args.out}: {exc}") from exc
        if post is not None:
            raise post
    except BsdeLabError as exc:
        msg = str(exc).replace("\n", "; ")
        print(f"bsdelab: {type(exc).__name__}: {msg}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
