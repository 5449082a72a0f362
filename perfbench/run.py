"""bsdelab benchmark: three acceptance-sized workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; bsdelab is imported from its ``src``.
Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
``solve-linear`` (criterion 1), ``quotient-stress`` (criterion 4) and
``fk-crossval`` (criterion 7).

Every workload runs in fresh processes with the BLAS thread count pinned.
With ``--trace 0`` one measuring process runs between four set-up probes
(two before, two after; each imports bsdelab, builds the inputs and exits).
The host this runs on is shared and its speed drifts by tens of percent, so
every timed interval is scaled to a reference speed by a small fixed
calibration kernel that does not use bsdelab, sampled in the same thread
while the interval runs (calib.py).  The end-to-end metrics are the median
scaled wall and CPU time of an iteration, the median scaled set-up time of
the five processes, and the measuring process's peak resident memory.  The
raw times and the calibration samples go to ``perfbench/out/``.  With
``--trace 1`` one process alternates untraced and traced iterations and
reports the per-layer metrics, the tracing overhead, and whether the traced
results are bit-identical to the untraced ones.

Each iteration's result is checked against the criterion's oracle and
tolerance, and recorded with its hash in ``perfbench/out/``; at ``--seed 0``
(the acceptance seeds) the hash is compared with ``recorded.json`` and a
difference is reported on stderr.  The last line on stdout is the JSON
result; the exit code is 0 only when a result was printed.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 4
# A run must end within 180 s; a worker gets what is left of it.
RUN_LIMIT_S = 170.0
# One BLAS thread: on a 2-core box a second OpenBLAS thread cut no wall time
# on any workload but spun for most of quotient-stress's iteration.
BLAS_THREADS = "1"


def _worker(args, mode, deadline):
    """Run one worker process; returns (its JSON result, launch time)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        args.workload, str(args.seed), str(args.seconds), mode, str(OUT),
    ]
    launched = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - launched, 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if mode != "setup" and res["record"] is None:
        raise RuntimeError(f"{mode} worker completed no iteration")
    return res, launched


def _metrics(section, values):
    """The metrics BENCHMARK.json declares for section, with its units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[section]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def _setup(res, launched):
    """Scaled set-up time of a worker: from its launch to its inputs ready."""
    import calib

    return calib.scaled(res["ready"] - launched, res["setup_calib"])


def _measure(args, deadline):
    import calib

    # probes before and after the measuring process, so that one slow phase
    # of the host does not set the median
    setups = [_setup(*_worker(args, "setup", deadline)) for _ in range(SETUP_PROBES // 2)]
    res, launched = _worker(args, "measure", deadline)
    setups.append(_setup(res, launched))
    setups += [
        _setup(*_worker(args, "setup", deadline))
        for _ in range(SETUP_PROBES - SETUP_PROBES // 2)
    ]
    ks = res["iteration_calib"]
    values = {
        "wall_s": statistics.median(calib.scaled(w, k) for w, k in zip(res["wall_s"], ks)),
        "cpu_s": statistics.median(calib.scaled(c, k, "cpu") for c, k in zip(res["cpu_s"], ks)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    res["calib_ref_unit_s"] = calib.REF_UNIT_S
    return res, _metrics("end_to_end", values)


def _trace(args, deadline):
    res, _ = _worker(args, "trace", deadline)
    values = dict(res["per_layer"])
    values["result.oracle_err_ratio"] = res["record"]["err_ratio"]
    return res, _metrics("per_layer", values)


def _record(args, res, metrics):
    """Write the result next to its oracle and tolerance; compare with recorded.json."""
    rec = res["record"]
    entry = {
        "workload": args.workload,
        "seed": args.seed,
        "env": res["env"],
        "metrics": metrics,
        "raw_iterations_wall_s": res["wall_s"],
        "raw_iterations_cpu_s": res["cpu_s"],
        "iteration_calib": res.get("iteration_calib"),
        "calib_ref_unit_s": res.get("calib_ref_unit_s"),
        **rec,
    }
    recorded = json.loads((HERE / "recorded.json").read_text(encoding="utf-8"))[args.workload]
    if args.seed == recorded["seed"]:
        entry["matches_recorded"] = recorded["sha256"] == rec["sha256"]
        if not entry["matches_recorded"]:
            print(
                f"perfbench: {args.workload} result hash differs from recorded.json "
                f"(recorded {recorded['result']}, now {rec['result']})",
                file=sys.stderr,
            )
    tag = "trace" if args.trace else "measure"
    path = OUT / f"result-{args.workload}-seed{args.seed}-{tag}.json"
    path.write_text(json.dumps(entry, indent=1) + "\n", encoding="utf-8")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (ROOT / "src" / "bsdelab" / "__init__.py").is_file():
        print(f"perfbench: no bsdelab source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # for the workers, and for calib, which this launcher imports to scale
    # their times
    os.environ.update(OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS)
    # SIGTERM unwinds like an error, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    try:
        res, metrics = (_trace if args.trace else _measure)(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    _record(args, res, metrics)

    env = res["env"]
    print(
        f"# {args.workload} seed={args.seed}: {res['attempted']} iteration(s), "
        f"{res['failed']} failed; python {env['python']}, numpy {env['numpy']}, "
        f"scipy {env['scipy']}, {env['blas']} x{env.get('blas_threads')}, nproc {env['nproc']}"
    )
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    correct = res["failed"] == 0 and res["record"]["passed"]
    print(json.dumps({
        "correct": bool(correct),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
