"""End-to-end checks of the command line front end.

Most cases drive ``main`` in process and assert on exit codes, stdout CSV,
and the single-line stderr contract.  ``--help`` and ``--version`` go
through a real subprocess because argparse exits.
"""

import subprocess
import sys

import numpy as np
import pytest

from bsdelab import builtin_generator, convergence_curve, paths
from bsdelab.cli import _COLUMN_DOCS, _SCHEMAS, main


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


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
        # every subcommand that samples paths hands --threads to the sampler,
        # and n_paths > PATH_BLOCK gives it a second block to run in parallel
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
            for threads in (1, 2):
                del pools[:]
                assert main([name, "--config", cfg, "--threads", str(threads)]) == 0, name
                outs.append(capsys.readouterr().out)
                if threads == 1 or name == "envelope":  # envelope samples no paths
                    assert pools == [], name
                else:
                    assert pools and set(pools) == {2}, name
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

    def test_not_key_value(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.cfg", "just some words\n")
        self._expect2(["simulate", "--config", cfg], capsys, "key = value")

    def test_seed_flag_rejected_for_seedless_command(self, tmp_path, capsys):
        cfg = _write(
            tmp_path, "c.cfg", "generator = linear\nalpha = 1.0\nn_list = 1\n"
        )
        self._expect2(["envelope", "--config", cfg, "--seed", "4"], capsys, "--seed")

    def test_threads_validated(self, tmp_path, capsys):
        cfg = _write(tmp_path, "sim.cfg", SIM_CFG)
        self._expect2(["simulate", "--config", cfg, "--threads", "0"], capsys, "--threads")

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
            timeout=120,
        )
        assert res.returncode == 0
        assert res.stdout.startswith("bsdelab ")
