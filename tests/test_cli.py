"""End-to-end checks of the command line front end.

Most cases drive ``main`` in process and assert on exit codes, stdout CSV,
and the single-line stderr contract.  ``--help`` and ``--version`` go
through a real subprocess because argparse exits.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bsdelab import builtin_generator, convergence_curve, paths
from bsdelab.cli import _COLUMN_DOCS, _GEN_KEYS, _REQUIRED, _SCHEMAS, main
from bsdelab.core import _BUILTINS


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def _subprocess_env(**extra):
    """The caller's environment plus extra, with the checkout's src first on PYTHONPATH.

    pytest's pythonpath setting reaches only the pytest process, so a
    subprocess needs the path spelled out.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _rows(out: str):
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


SIM_CFG = """\
# tiny smoke grid
seed = 7
n_paths = 9000
n_steps = 20
d = 2
"""

SOLVE_CFG = """\
seed = 1
n_paths = 4000
n_steps = 60
generator = negative_exponential
terminal = last
x0 = 1.0
sigma = 0.0
"""

# the represent example of README.md
README_REP_CFG = """\
generator = linear
a = 1.0
t = 0.0
y = 1.0
z = 0.0
eps_schedule = 0.1, 0.05, 0.025, 0.0125
n_paths = 20000
n_steps = 50
"""

REP_CFG = """\
seed = 3
n_paths = 2000
n_steps = 50
generator = linear
c = -1.0
t = 0.0
y = 1.0
z = 0.5
eps_schedule = 0.1, 0.05
barrier = 3.0
"""


class TestExitZero:
    def test_simulate_stdout(self, tmp_path, capsys):
        cfg = _write(tmp_path, "sim.cfg", SIM_CFG)
        assert main(["simulate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        header, rows = _rows(out)
        assert header[:2] == ["step", "t"]
        assert len(rows) == 21
        assert all(len(r) == len(header) for r in rows)

    def test_manifest_lines(self, tmp_path, capsys):
        cfg = _write(tmp_path, "sim.cfg", SIM_CFG)
        main(["simulate", "--config", cfg])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# schema: bsdelab.simulate.v1"
        assert lines[1].startswith("# config_sha256: ")
        assert len(lines[1].split(": ")[1]) == 64
        assert lines[2] == "# seed: 7"
        assert lines[3].startswith("# version: ")

    def test_envelope_matches_library(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "env.cfg",
            "generator = linear\na = -2.0\nalpha = 1.0\nn_list = 1, 2, 4\n",
        )
        assert main(["envelope", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "# seed: none" in out
        header, rows = _rows(out)
        curve = convergence_curve(
            builtin_generator("linear", a=-2.0), 1.0, 0.0, np.zeros(1), [1, 2, 4]
        )
        lo = header.index("lower")
        for row, pt in zip(rows, curve):
            assert float(row[lo]) == pytest.approx(pt.lower, abs=1e-12)
        assert [float(r[lo]) for r in rows] == pytest.approx([-1.0, 0.0, 0.0], abs=3e-4)

    def test_solve_decay_row(self, tmp_path, capsys):
        cfg = _write(tmp_path, "solve.cfg", SOLVE_CFG)
        assert main(["solve", "--config", cfg]) == 0
        header, rows = _rows(capsys.readouterr().out)
        my = header.index("mean_y")
        # deterministic terminal 1.0, g = -y: first row is (1 + dt)^-N up
        # to the per-step fixed-point tolerance compounded over the sweep
        dt = 1.0 / 60
        assert float(rows[0][my]) == pytest.approx((1 + dt) ** -60, abs=1e-7)
        assert float(rows[-1][my]) == 1.0
        assert rows[-1][header.index("picard_iters")] == "nan"

    def test_solve_linear_default_b_in_two_dimensions(self, tmp_path, capsys):
        # the default b = 0 is one entry and contributes 0 at any d
        cfg = _write(
            tmp_path,
            "solve.cfg",
            "seed = 1\nn_paths = 2000\nn_steps = 20\nd = 2\n"
            "generator = linear\na = -1.0\nterminal = abs\n",
        )
        assert main(["solve", "--config", cfg]) == 0
        header, rows = _rows(capsys.readouterr().out)
        assert header[4:6] == ["mean_z_1", "mean_z_2"]
        assert len(rows) == 21

    def test_readme_represent_se_is_exact_zero_without_spread(self, tmp_path, capsys):
        # z = 0 and no stop binding: every path carries the same quotient,
        # so the standard errors are 0, not float dust
        cfg = _write(tmp_path, "represent.cfg", README_REP_CFG)
        assert main(["represent", "--config", cfg]) == 0
        header, rows = _rows(capsys.readouterr().out)
        cols = [header.index(c) for c in ("se", "l1_se", "l2_se")]
        flat = [r for r in rows if float(r[header.index("eps")]) <= 0.05]
        assert len(flat) == 3
        for r in flat:
            assert [r[c] for c in cols] == ["0", "0", "0"]
        # at eps = 0.1 the stop binds on some paths and the spread is real
        assert float(rows[0][header.index("se")]) > 1e-6

    def test_readme_represent_example_is_what_the_command_prints(self, tmp_path, capsys):
        # the README shows a config and the output it gives; run that config
        # so a change that moves the printed digits cannot leave it stale
        lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8"
        ).splitlines()

        def block(after):
            start = lines.index(after) + 1
            end = lines.index("", start)
            return [ln[4:] for ln in lines[start:end]]

        config = block("    $ cat represent.cfg")
        shown = block("    $ bsdelab represent --config represent.cfg")
        cfg = _write(tmp_path, "represent.cfg", "\n".join(config) + "\n")
        assert main(["represent", "--config", cfg]) == 0
        assert capsys.readouterr().out.splitlines() == shown

    def test_solve_sd_is_exact_zero_without_spread(self, tmp_path, capsys):
        # sigma = 0: every path carries the same Y, so sd_y prints 0 on every
        # row rather than the float dust of np.std
        cfg = _write(
            tmp_path,
            "solve.cfg",
            "seed = 0\nn_paths = 4000\nn_steps = 60\ngenerator = negative_exponential\n"
            "terminal = cos\nsigma = 0.0\n",
        )
        assert main(["solve", "--config", cfg]) == 0
        header, rows = _rows(capsys.readouterr().out)
        assert len(rows) == 61
        assert [r[header.index("sd_y")] for r in rows] == ["0"] * 61

    def test_simulate_sd_is_exact_zero_without_spread(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "sim.cfg",
            "seed = 0\nn_paths = 4000\nn_steps = 60\nsigma = 0.0\ndrift = 0.3\n",
        )
        assert main(["simulate", "--config", cfg]) == 0
        header, rows = _rows(capsys.readouterr().out)
        assert len(rows) == 61
        assert [r[header.index("sd_1")] for r in rows] == ["0"] * 61
        # the states still move: the drift is in the means, not in the sd
        assert float(rows[-1][header.index("mean_1")]) == pytest.approx(0.3)


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        cfg = _write(tmp_path, "rep.cfg", REP_CFG)
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["represent", "--config", cfg, "--out", out1]) == 0
        assert main(["represent", "--config", cfg, "--out", out2]) == 0
        b1 = open(out1, "rb").read()
        assert b1 == open(out2, "rb").read()
        assert len(b1) > 0

    BLAS_CONFIGS = {
        "represent": (
            "n_paths = 20000\nn_steps = 50\ngenerator = stress\ndelta = 0.1\n"
            "t = 0.5\ny = 0.2\nz = 0.3\neps_schedule = 0.1, 0.05\n"
        ),
        "solve": (
            "n_paths = 20000\nn_steps = 30\nd = 2\ngenerator = stress\ndelta = 0.1\n"
            "terminal = abs\n"
        ),
    }

    @pytest.mark.parametrize("command", sorted(BLAS_CONFIGS))
    def test_blas_threads_never_change_output(self, tmp_path, command):
        # the BLAS thread count is fixed when the library loads, so each
        # count needs its own process
        cfg = _write(tmp_path, f"{command}.cfg", self.BLAS_CONFIGS[command])
        outs = []
        for threads in ("1", "2"):
            res = subprocess.run(
                [sys.executable, "-m", "bsdelab.cli", command, "--config", cfg],
                capture_output=True,
                env=_subprocess_env(OPENBLAS_NUM_THREADS=threads),
                timeout=300,
            )
            assert res.returncode == 0, res.stderr.decode()[-2000:]
            outs.append(res.stdout)
        assert outs[0] == outs[1]
        assert len(_rows(outs[0].decode())[1]) > 0

    def test_seed_override_changes_bytes_and_manifest(self, tmp_path, capsys):
        cfg = _write(tmp_path, "rep.cfg", REP_CFG)
        main(["represent", "--config", cfg])
        base = capsys.readouterr().out
        main(["represent", "--config", cfg, "--seed", "11"])
        other = capsys.readouterr().out
        assert base != other
        assert "# seed: 11" in other
        # the override is part of the resolved config, so the hash moves too
        assert base.splitlines()[1] != other.splitlines()[1]

    def test_threads_never_change_output(self, tmp_path, capsys, monkeypatch):
        # every subcommand that samples paths sizes its pool from the CPU
        # count, and n_paths > PATH_BLOCK gives it a second block to run in
        # parallel
        pools = []

        class RecordingPool(paths.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(paths, "ThreadPoolExecutor", RecordingPool)
        configs = {
            "simulate": SIM_CFG,
            "solve": SOLVE_CFG.replace("n_paths = 4000", "n_paths = 5000"),
            "envelope": "generator = linear\na = -2.0\nalpha = 1.0\nn_list = 1, 2, 4\n",
            "represent": REP_CFG.replace("n_paths = 2000", "n_paths = 5000"),
            "converse": TestHypothesisGate.ORDERED.replace("n_paths = 4000", "n_paths = 5000"),
            "fk": (
                "seed = 4\nn_paths = 5000\nn_steps = 20\npde = affine\n"
                "probes_t = 0.0\nprobes_x = 0.5\nh = 0.1875\nk = 0.01\n"
            ),
            "touch": (
                "seed = 2\nn_paths = 5000\nn_steps = 50\npde = heat_cos\n"
                "t = 0.3\nx = 0.4\n"
            ),
        }
        assert set(configs) == set(_SCHEMAS)
        for name, text in configs.items():
            cfg = _write(tmp_path, f"{name}.cfg", text)
            outs = []
            for cpus in (1, 2):
                del pools[:]
                monkeypatch.setattr(paths, "_cpu_count", lambda: cpus)
                assert main([name, "--config", cfg]) == 0, name
                outs.append(capsys.readouterr().out)
                if name == "envelope":  # envelope samples no paths
                    assert pools == [], name
                else:
                    assert pools and set(pools) == {cpus}, name
            assert outs[0] == outs[1], name


class TestConfigErrors:
    def _expect2(self, argv, capsys, needle):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("bsdelab: ")
        assert needle in err
        assert err.count("\n") == 1

    def test_unknown_key(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.cfg", SIM_CFG + "wobble = 3\n")
        self._expect2(["simulate", "--config", cfg], capsys, "wobble")

    def test_missing_required(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.cfg", "generator = linear\nn_list = 1\n")
        self._expect2(["envelope", "--config", cfg], capsys, "alpha")

    def test_bad_value(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.cfg", "seed = 0\nn_paths = many\n")
        self._expect2(["simulate", "--config", cfg], capsys, "n_paths")

    def test_duplicate_key(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.cfg", "seed = 0\nseed = 1\n")
        self._expect2(["simulate", "--config", cfg], capsys, "duplicate")

    def test_missing_file(self, tmp_path, capsys):
        self._expect2(
            ["simulate", "--config", str(tmp_path / "nope.cfg")], capsys, "cannot read"
        )

    def test_config_not_utf8(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_bytes(b"seed = 0\nn_paths = \xff\xfe\n")
        self._expect2(
            ["simulate", "--config", str(p)], capsys, f"ValidationError: cannot read config {p}"
        )

    def test_unwritable_out(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.cfg", SIM_CFG)
        out = tmp_path / "missing" / "x.csv"
        self._expect2(
            ["simulate", "--config", cfg, "--out", str(out)],
            capsys,
            f"ValidationError: cannot write {out}",
        )

    @pytest.mark.parametrize("command, key", [("represent", "b"), ("converse", "g1_b")])
    def test_linear_b_of_the_wrong_size(self, tmp_path, capsys, command, key):
        # in converse the error comes from the ordering precheck and must
        # stay a ValidationError, not turn into a hypothesis failure
        base = REP_CFG if command == "represent" else TestHypothesisGate.ORDERED
        cfg = _write(tmp_path, "c.cfg", f"{base}{key} = 1.0, 2.0\n")
        self._expect2(
            [command, "--config", cfg],
            capsys,
            "ValidationError: linear generator: b has size 2 but z has 1 coordinate(s)",
        )

    def test_not_key_value(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.cfg", "just some words\n")
        self._expect2(["simulate", "--config", cfg], capsys, "key = value")

    def test_seed_flag_rejected_for_seedless_command(self, tmp_path, capsys):
        cfg = _write(
            tmp_path, "c.cfg", "generator = linear\nalpha = 1.0\nn_list = 1\n"
        )
        self._expect2(["envelope", "--config", cfg, "--seed", "4"], capsys, "--seed")

    def test_unknown_generator(self, tmp_path, capsys):
        cfg = _write(
            tmp_path, "c.cfg", SOLVE_CFG.replace("negative_exponential", "mystery")
        )
        self._expect2(["solve", "--config", cfg], capsys, "mystery")

    def test_parameter_for_wrong_generator(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.cfg", SOLVE_CFG + "delta = 0.1\n")
        self._expect2(["solve", "--config", cfg], capsys, "delta")

    def test_unknown_terminal(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.cfg", SOLVE_CFG.replace("terminal = last", "terminal = max"))
        self._expect2(["solve", "--config", cfg], capsys, "terminal")

    def test_mismatched_probe_lists(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "c.cfg",
            "generator1 = linear\ngenerator2 = linear\n"
            "points_t = 0.0, 0.1\npoints_x = 0.0\npoints_y = 0.0, 0.0\n"
            "points_z = 0.0, 0.0\neps = 0.05\n",
        )
        self._expect2(["converse", "--config", cfg], capsys, "length")

    @pytest.mark.parametrize(
        "command, text, witness",
        [
            ("simulate", "d = 3\nx0 = 1.0, 2.0\n", "x0 has 2 coordinate(s), expected d=3"),
            (
                "touch",
                "pde = heat_cos\nt = 0.5\nx = 0.0\nphi = wobble\n",
                "phi must be 'exact' or 'bump', got 'wobble'",
            ),
            (
                "touch",
                "pde = heat_cos\nt = 0.5\nx = 0.0\nphi = bump\nbump_amplitude = 0\n",
                "bump_amplitude must be > 0, got 0.0",
            ),
            (
                "fk",
                "pde = heat_cos\nprobes_t = 0.0, 0.1\nprobes_x = 0.0\nh = 0.1\n",
                "probes_t and probes_x must have the same length",
            ),
            (
                # the default eps = 0.025 carries the window past T = 1
                "touch",
                "pde = heat_cos\nt = 0.99\nx = 0.0\n",
                "touch window [t, t + eps] = [0.99, 1.015] must lie in [0, T=1.0]",
            ),
        ],
        ids=["x0_vs_d", "phi", "bump_amplitude", "probe_lengths", "touch_window"],
    )
    def test_runner_validation(self, tmp_path, capsys, command, text, witness):
        cfg = _write(tmp_path, "c.cfg", text)
        self._expect2([command, "--config", cfg], capsys, f"ValidationError: {witness}")

    @pytest.mark.parametrize(
        "command, key",
        [
            (command, key)
            for command, schema in _SCHEMAS.items()
            for key, (kind, _) in schema.items()
            if kind in ("float", "floats")
        ],
    )
    def test_non_finite_float_rejected(self, tmp_path, capsys, command, key):
        # every other required key gets a value that parses, so the first
        # error _resolve meets is the one under test
        placeholder = {"int": "1", "float": "1", "floats": "1", "str": "linear"}
        required = "".join(
            f"{k} = {placeholder[kind]}\n"
            for k, (kind, default) in _SCHEMAS[command].items()
            if default is _REQUIRED and k != key
        )
        for value in ("nan", "inf", "-inf"):
            cfg = _write(tmp_path, "c.cfg", f"{required}{key} = {value}\n")
            self._expect2(
                [command, "--config", cfg], capsys, f"config key {key!r}: {value!r} is not finite"
            )

    # one small valid config per subcommand that draws Brownian paths
    SEEDED = {
        "simulate": "n_paths = 100\nn_steps = 5\n",
        "solve": "n_paths = 100\nn_steps = 5\ngenerator = linear\nterminal = abs\n",
        "represent": (
            "n_paths = 100\nn_steps = 50\ngenerator = linear\nt = 0.0\ny = 1.0\nz = 0.5\n"
            "eps_schedule = 0.1\n"
        ),
        "converse": (
            "n_paths = 100\nn_steps = 10\ngenerator1 = linear\ng1_c = 1.0\n"
            "generator2 = linear\ng2_c = -1.0\npoints_t = 0.0\npoints_x = 0.0\n"
            "points_y = 1.0\npoints_z = 0.5\neps = 0.05\n"
        ),
        "touch": "pde = heat_cos\nt = 0.5\nx = 0.0\nn_paths = 100\nn_steps = 10\n",
        "fk": (
            "pde = affine\nprobes_t = 0.0\nprobes_x = 0.0\nh = 0.5\nk = 0.01\n"
            "n_paths = 100\nn_steps = 10\n"
        ),
    }

    @pytest.mark.parametrize("command", sorted(SEEDED))
    def test_seed_beyond_64_bits_rejected(self, tmp_path, capsys, command):
        # the seed is one uint64 word of the Philox key; 2**64 used to exit 1
        # with an OverflowError traceback
        cfg = _write(tmp_path, "c.cfg", self.SEEDED[command])
        self._expect2(
            [command, "--config", cfg, "--seed", str(2**64)],
            capsys,
            "ValidationError: seed must be in [0, 2**64), got 18446744073709551616",
        )

    def test_config_seed_beyond_64_bits_rejected(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.cfg", f"seed = {2**64}\n" + self.SEEDED["simulate"])
        self._expect2(["simulate", "--config", cfg], capsys, "got 18446744073709551616")

    def test_fk_probe_seeds_wrap_at_the_top_seed(self, tmp_path, capsys):
        # probe i is seeded (seed + i) mod 2**64: at the largest seed the
        # second probe draws seed 0's paths instead of exiting 2 with a seed
        # the caller never gave
        two = _write(
            tmp_path,
            "two.cfg",
            "pde = affine\nprobes_t = 0.0, 0.2\nprobes_x = 0.5, 0.0\nh = 0.1875\nk = 0.01\n"
            "n_paths = 500\nn_steps = 10\n",
        )
        assert main(["fk", "--config", two, "--seed", str(2**64 - 1)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        header, rows = _rows(captured.out)
        one = _write(
            tmp_path,
            "one.cfg",
            "pde = affine\nprobes_t = 0.2\nprobes_x = 0.0\nh = 0.1875\nk = 0.01\n"
            "n_paths = 500\nn_steps = 10\n",
        )
        assert main(["fk", "--config", one, "--seed", "0"]) == 0
        _, want = _rows(capsys.readouterr().out)
        assert len(rows) == 2
        assert rows[1] == want[0]

    @pytest.mark.parametrize(
        "text, witness",
        [
            ("alpha = 1e308\n", "U=inf at u_resolution=0.0001"),
            ("alpha = 1.0\nu_resolution = 1e-300\n", "U=5 at u_resolution=1e-300"),
        ],
        ids=["psi_overflows", "resolution_underflows"],
    )
    def test_unindexable_envelope_lattice_rejected(self, tmp_path, capsys, text, witness):
        cfg = _write(tmp_path, "c.cfg", "generator = linear\na = -2.0\nn_list = 1\n" + text)
        needle = f"ValidationError: envelope lattice on [-U, U] with {witness}"
        self._expect2(["envelope", "--config", cfg], capsys, needle)

    def test_generator_keys_are_the_builtin_parameters(self):
        # a parameter added on one side only would be unreachable or rejected
        params = set().union(*(defaults for _, defaults in _BUILTINS.values()))
        assert set(_GEN_KEYS) - {"generator"} == params

    def test_unknown_pde(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "c.cfg",
            "pde = burgers\nprobes_t = 0.0\nprobes_x = 0.0\nh = 0.1\n",
        )
        self._expect2(["fk", "--config", cfg], capsys, "burgers")

    def test_touch_rejects_pde_without_exact_solution(self, tmp_path, capsys):
        # square is a valid fk problem but has no exact test function
        cfg = _write(tmp_path, "c.cfg", "pde = square\nt = 0.5\nx = 0.0\n")
        assert main(["touch", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bsdelab: ValidationError: ")
        assert "'square'" in err and "heat_cos" in err and "semilinear_cos" in err


class TestHypothesisGate:
    # generator1 must dominate generator2 pointwise
    ORDERED = (
        "seed = 5\nn_paths = 4000\nn_steps = 50\n"
        "generator1 = linear\ng1_c = 1.0\n"
        "generator2 = linear\ng2_c = -1.0\n"
        "points_t = 0.0, 0.2\npoints_x = 0.0, 0.5\n"
        "points_y = 1.0, -0.5\npoints_z = 0.5, 0.0\n"
        "eps = 0.05\nbarrier = 3.0\n"
    )

    def test_ordered_pair_passes(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.cfg", self.ORDERED)
        assert main(["converse", "--config", cfg]) == 0
        header, rows = _rows(capsys.readouterr().out)
        v = header.index("verdict")
        assert all(r[v] == "ordered" for r in rows)

    def test_swapped_pair_fails_loudly(self, tmp_path, capsys):
        swapped = self.ORDERED.replace("g1_c = 1.0", "g1_c = -1.0").replace(
            "g2_c = -1.0", "g2_c = 1.0"
        )
        cfg = _write(tmp_path, "c.cfg", swapped)
        assert main(["converse", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bsdelab: HypothesisError: HYPOTHESIS_FAIL")


class TestNumericalFailure:
    def test_unsolvable_implicit_step_exits_3(self, tmp_path, capsys):
        # a * dt = 1 makes the implicit linear step y = base + dt*a*y
        # rootless whenever base != 0; Picard and bisection must both give up
        cfg = _write(
            tmp_path,
            "c.cfg",
            "seed = 0\nn_paths = 500\nn_steps = 20\nbasis_degree = 1\n"
            "generator = linear\na = 20.0\nterminal = abs\n",
        )
        assert main(["solve", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith("bsdelab: PicardError: ")

    @pytest.mark.parametrize(
        "command, text, witness",
        [
            (
                "solve",
                "n_paths = 100\nn_steps = 10\ngenerator = linear\nterminal = square\n"
                "x0 = 1e200\n",
                "non-finite terminal value at path 0",
            ),
            (
                "simulate",
                "n_paths = 100\nn_steps = 10\ndrift = 1e308\nx0 = 1e308\n",
                "non-finite state at step 8, path 0",
            ),
            (
                "simulate",
                "n_paths = 100\nn_steps = 1\nsigma = 1e308\n",
                "non-finite state at step 1, path 14",
            ),
        ],
        ids=["solve_terminal", "simulate_drift", "simulate_sigma"],
    )
    def test_overflow_exits_3_with_one_stderr_line(self, tmp_path, capsys, command, text, witness):
        # numpy's overflow warning must not reach stderr ahead of the error
        # line (under this suite's error::RuntimeWarning it would escape main)
        cfg = _write(tmp_path, "c.cfg", text)
        assert main([command, "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err == f"bsdelab: NumericalError: {witness}\n"


class TestExperimentFailure:
    def test_forced_touch_disagreement_exits_4_but_writes_csv(self, tmp_path, capsys):
        # the bump's quotient residual is O(eps) > 0 while the direct one is
        # 0; with the agreement allowance turned off the row must fail
        cfg = _write(
            tmp_path,
            "c.cfg",
            "seed = 2\nn_paths = 20000\nn_steps = 50\npde = heat_cos\n"
            "phi = bump\nmode = sub\nt = 0.3\nx = 0.5\neps = 0.025\n"
            "tol = 1e-6\nagreement_slope = 0.0\n",
        )
        out = str(tmp_path / "touch.csv")
        assert main(["touch", "--config", cfg, "--out", out]) == 4
        err = capsys.readouterr().err
        assert err.startswith("bsdelab: ExperimentFailure: ")
        text = open(out, encoding="utf-8").read()
        header, rows = _rows(text)
        assert rows[0][header.index("pass")] == "fail"

    def test_default_allowance_passes_same_point(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "c.cfg",
            "seed = 2\nn_paths = 20000\nn_steps = 50\npde = heat_cos\n"
            "phi = bump\nmode = sub\nt = 0.3\nx = 0.5\neps = 0.025\n",
        )
        assert main(["touch", "--config", cfg]) == 0
        header, rows = _rows(capsys.readouterr().out)
        assert rows[0][header.index("pass")] == "pass"

    def test_represent_decreasing_gate_passes_when_it_should(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.cfg", REP_CFG + "require_decreasing = true\n")
        assert main(["represent", "--config", cfg]) == 0
        assert "quotient_mean" in capsys.readouterr().out


class TestSubprocessSurface:
    @pytest.mark.parametrize("command", sorted(_SCHEMAS))
    def test_help_documents_columns_and_keys(self, command):
        res = subprocess.run(
            [sys.executable, "-m", "bsdelab.cli", command, "--help"],
            capture_output=True,
            text=True,
            env=_subprocess_env(),
            timeout=120,
        )
        assert res.returncode == 0
        for key in _SCHEMAS[command]:
            assert key in res.stdout
        first_col = _COLUMN_DOCS[command].splitlines()[1].split()[0].rstrip(",")
        assert first_col in res.stdout

    def test_version(self):
        res = subprocess.run(
            [sys.executable, "-m", "bsdelab.cli", "--version"],
            capture_output=True,
            text=True,
            env=_subprocess_env(),
            timeout=120,
        )
        assert res.returncode == 0
        assert res.stdout.startswith("bsdelab ")

    def test_console_script_entry_point(self, capsys):
        # the installed `bsdelab` command is [project.scripts]; resolve it the
        # way the console-script wrapper does and run --version through it
        tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        entry = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        module, _, attr = entry["bsdelab"].partition(":")
        entry_main = getattr(importlib.import_module(module), attr)
        assert entry_main is main
        with pytest.raises(SystemExit) as exc:
            entry_main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("bsdelab ")

    def test_import_leaves_scipy_unloaded(self):
        # scipy is imported by the FD march on its first call, not by
        # `import bsdelab`: it costs about 0.3 s and 28 MB
        res = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, bsdelab, bsdelab.cli; print('scipy' in sys.modules)",
            ],
            capture_output=True,
            text=True,
            env=_subprocess_env(),
            timeout=120,
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout == "False\n"
