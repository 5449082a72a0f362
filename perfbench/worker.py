"""One workload in one fresh process; started by run.py, not by hand.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS {setup,measure,trace} OUT_DIR

Prints one JSON line on stdout.  ``setup`` imports bsdelab, builds the inputs
and reports the moment they were ready (``time.monotonic``, which is
system-wide, so the launcher can subtract the moment it started the
process), with the calibration kernel (calib.py) sampled from the start of
the import.  ``measure`` then runs as many untraced iterations as fit in
SECONDS (at least one), each sampled the same way, and reports each
iteration's raw times with its calibration samples.  ``trace`` runs one
untraced warm-up iteration, then alternates one untraced and one traced
iteration, as many pairs as fit in SECONDS (at least one), so the overhead of
tracing is the difference of the two and every traced result is compared bit
for bit with an untraced one; it samples no calibration during iterations.
"""

import contextlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

# RuntimeWarnings the program raises, counted as per-layer events.
WARNING_COUNTERS = {
    "stress generator exponent clamped": "core.exp_clamp_warnings",
    "stopping index binds": "representation.stop_warnings",
}


def _import_checkout():
    import bsdelab

    if not Path(bsdelab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"bsdelab imported from {bsdelab.__file__}, not from the checkout")


def _environment():
    """Versions and the BLAS thread count this process actually runs with."""
    import ctypes
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas.get('version', '?')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    if libs:
        get = getattr(ctypes.CDLL(str(libs[0])), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            env["blas_threads"] = get()
    return env


def _iteration(workload, inputs, tracer, sampler):
    """One timed iteration; returns (record, wall_s, cpu_s, warning counts).

    With a sampler, the calibration kernel is sampled while the workload runs.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with sampler or contextlib.nullcontext():
            c0, t0 = time.process_time(), time.perf_counter()
            if tracer is None:
                raw = workload.run(inputs)
            else:
                raw = tracer.span("bench.iteration", workload.run, inputs)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
    counts = dict.fromkeys(WARNING_COUNTERS.values(), 0)
    for w in caught:
        for prefix, key in WARNING_COUNTERS.items():
            if str(w.message).startswith(prefix):
                counts[key] += 1
        # counted, and still shown
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return workload.evaluate(inputs, raw), wall, cpu, counts


def main(argv):
    name, seed, seconds, mode, out_dir = argv
    seed, seconds = int(seed), float(seconds)
    import calib

    sampler = calib.Sampler()
    with sampler:
        _import_checkout()
        from workloads import WORKLOADS

        workload = WORKLOADS[name]
        inputs = workload.setup(workload.acceptance_seed + seed)
        ready = time.monotonic()
    setup_calib = sampler.summary()
    if mode == "setup":
        print(json.dumps({"ready": ready, "setup_calib": setup_calib}))
        return 0

    tracer = None
    if mode == "trace":
        from tracer import Tracer, dump

        tracer = Tracer()
    plan = (False, True) if tracer else (False,)
    untraced, traced, spans = [], [], []
    records, failed = [], 0
    if tracer:
        # the first iteration in a process pays for first-touch page faults;
        # keep it out of the traced/untraced comparison
        rec = _iteration(workload, inputs, None, None)[0]
        failed += not rec["passed"]
        records.append(rec)
    # whole iterations (pairs in trace mode) are started only while the next
    # one is expected to end within SECONDS; the first always runs
    start, last = time.perf_counter(), 0.0
    while not (untraced and time.perf_counter() - start + last > seconds):
        t0 = time.perf_counter()
        for with_trace in plan:
            if with_trace:
                tracer.install()
            try:
                rec, wall, cpu, counts = _iteration(
                    workload,
                    inputs,
                    tracer if with_trace else None,
                    None if tracer else sampler,
                )
            except Exception:
                traceback.print_exc()
                failed += 1
                records.append(None)
                break
            finally:
                if with_trace:
                    tracer.uninstall()
            if with_trace:
                m = tracer.layer_metrics(wall)
                m.update(counts)
                traced.append((wall, m))
                spans.append(tracer.reset())
            else:
                untraced.append((wall, cpu, None if tracer else sampler.summary()))
            # every iteration repeats the same inputs, so results must repeat
            # bit for bit, traced or not
            if not rec["passed"] or (records and rec["sha256"] != records[0]["sha256"]):
                failed += 1
            records.append(rec)
        if records[-1] is None:
            break
        last = time.perf_counter() - t0

    out = {
        "attempted": len(records),
        "failed": failed,
        "record": next((r for r in records if r is not None), None),
        "wall_s": [w for w, _, _ in untraced],
        "cpu_s": [c for _, c, _ in untraced],
        "iteration_calib": [k for _, _, k in untraced],
        "setup_calib": setup_calib,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ready": ready,
        "env": _environment(),
    }
    if tracer and traced:
        per_layer = {
            k: statistics.median(m[k] for _, m in traced) for k in traced[0][1]
        }
        # fastest against fastest, in raw seconds: the host's slow phases
        # shift single iterations more than tracing does
        per_layer["trace.overhead_s"] = min(w for w, _ in traced) - min(out["wall_s"])
        out["per_layer"] = per_layer
        dump(Path(out_dir) / f"spans-{name}-seed{seed}.json", spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
