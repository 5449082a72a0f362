"""Span tracing of bsdelab from outside the package.

``Tracer.install()`` replaces each traced public function by a wrapper that
records a span (name, start, end, parent) and, where the layer returns data
that says how much work it did, counters read from the returned value.  The
consumer modules import these functions by name (``representation`` and
``feynmankac`` bind ``solve_bsde``, ``sample_brownian``, ``stopping_indices``
and ``euler_maruyama`` at import), so the wrapper is rebound in every loaded
``bsdelab`` module that holds the original.  ``Generator.__call__`` is wrapped
on the class, which catches every generator evaluation wherever it is called
from.  ``uninstall()`` puts every original back, so untraced iterations run
the unmodified program.

Spans stay in memory; ``dump()`` writes them once, at the end of a run.  A
span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

import bsdelab
from bsdelab import core, feynmankac, paths, representation, solver

# Layer module that owns each traced span; generator evaluations are
# attributed to the nearest enclosing span's layer.
LAYERS = ("paths", "solver", "representation", "feynmankac")

# Per-layer metric that each span's self time is added to.
SELF_TIME_METRIC = {
    "core.gen": "core.gen_s",
    "paths.sample_brownian": "paths.sample_s",
    "paths.euler_maruyama": "paths.forward_s",
    "paths.stopping_indices": "paths.stop_s",
    "solver.polynomial_design": "solver.design_s",
    "solver.solve_bsde": "solver.sweep_s",
    "representation.representation_quotient": "representation.self_s",
    "representation.convergence_study": "representation.self_s",
    "feynmankac.fd_reference": "feynmankac.fd_s",
    "feynmankac.mc_solution": "feynmankac.mc_self_s",
    "feynmankac.mc_vs_fd": "feynmankac.mc_self_s",
}


class Tracer:
    """Spans plus counters for one traced iteration at a time."""

    def __init__(self):
        self.spans = []  # [name, parent index, start, end, child seconds]
        self._stack = []
        self.counters = defaultdict(float)
        self._bindings = []  # (namespace, attribute, original)
        self._targets = [
            (paths, "sample_brownian", self._on_sample),
            (paths, "euler_maruyama", None),
            (paths, "stopping_indices", self._on_stop),
            (solver, "polynomial_design", None),
            (solver, "solve_bsde", self._on_solve),
            (representation, "representation_quotient", self._on_cell),
            (representation, "convergence_study", None),
            (feynmankac, "fd_reference", self._on_fd),
            (feynmankac, "mc_solution", None),
            (feynmankac, "mc_vs_fd", None),
        ]

    # -- installation -----------------------------------------------------

    def install(self):
        modules = [bsdelab] + [
            m for n, m in sys.modules.items() if n.startswith("bsdelab.") and m is not None
        ]
        for module, name, hook in self._targets:
            original = getattr(module, name)
            wrapper = self._wrap(f"{module.__name__.rsplit('.', 1)[1]}.{name}", original, hook)
            for m in modules:
                if m.__dict__.get(name) is original:
                    self._bindings.append((m, name, original))
                    setattr(m, name, wrapper)
        self._bindings.append((core.Generator, "__call__", core.Generator.__call__))
        core.Generator.__call__ = self._wrap_generator(core.Generator.__call__)

    def uninstall(self):
        for namespace, name, original in reversed(self._bindings):
            setattr(namespace, name, original)
        self._bindings.clear()

    # -- spans ------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, parent, 0.0, 0.0, 0.0]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span[2] = time.perf_counter()
        return span

    def _close(self, span):
        span[3] = time.perf_counter()
        self._stack.pop()
        if span[1] >= 0:
            self.spans[span[1]][4] += span[3] - span[2]

    def span(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name; used for the iteration root."""
        s = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(s)

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(s)
            if hook is not None:
                hook(args, kwargs, out)
            return out

        return traced

    def _wrap_generator(self, call):
        @functools.wraps(call)
        def traced_call(g, t, x, y, z):
            # a generator built from another (proof_generator) calls its
            # inner driver: only the outermost evaluation is a span
            if self._stack and self.spans[self._stack[-1]][0] == "core.gen":
                return call(g, t, x, y, z)
            s = self._open("core.gen")
            try:
                out = call(g, t, x, y, z)
            finally:
                self._close(s)
            layer = self._enclosing_layer()
            n = int(np.size(out))
            self.counters["core.gen_calls"] += 1
            self.counters["core.gen_evals"] += n
            self.counters[f"core.gen_evals.{layer}"] += n
            return out

        return traced_call

    def _enclosing_layer(self):
        for i in reversed(self._stack):
            layer = self.spans[i][0].split(".", 1)[0]
            if layer in LAYERS:
                return layer
        return "bench"

    # -- counters read from returned data ---------------------------------

    def _on_sample(self, args, kwargs, batch):
        self.counters["paths.path_steps"] += batch.increments.size

    def _on_stop(self, args, kwargs, idx):
        n_steps = (args[0] if args else kwargs["batch"]).increments.shape[1]
        self.counters["paths.stop_paths"] += idx.size
        self.counters["paths.stopped"] += int(np.count_nonzero(idx < n_steps))

    def _on_solve(self, args, kwargs, sol):
        diag = sol.diagnostics
        c = self.counters
        c["solver.solves"] += 1
        c["solver.steps"] += diag["picard_iters"].size
        c["solver.picard_iters"] += int(diag["picard_iters"].sum())
        c["solver.bisection_paths"] += int(diag["bisection_paths"].sum())
        c["solver.cond_max"] = max(c.get("solver.cond_max", 0.0), float(np.max(diag["cond"])))
        c["solver.rank_min"] = min(c.get("solver.rank_min", np.inf), float(np.min(diag["rank"])))

    def _on_cell(self, args, kwargs, cell):
        self.counters["representation.cells"] += 1

    def _on_fd(self, args, kwargs, field):
        # grid values computed by the backward march (all rows but the terminal one)
        self.counters["feynmankac.fd_cells"] += field.u.size - field.xs.size

    # -- summaries --------------------------------------------------------

    def reset(self):
        """Start a new iteration; returns the finished iteration's spans."""
        done, self.spans = self.spans, []
        self._stack.clear()
        self.counters = defaultdict(float)
        return done

    def layer_metrics(self, wall_s):
        """Per-layer metrics of the current iteration, whose traced wall time is wall_s."""
        m = dict.fromkeys(
            ("core.gen_calls", "core.gen_evals", "solver.solves", "solver.steps",
             "solver.picard_iters", "solver.bisection_paths", "solver.cond_max",
             "solver.rank_min", "paths.path_steps", "representation.cells",
             "feynmankac.fd_cells"),
            0.0,
        )
        m.update({f"core.gen_evals.{layer}": 0.0 for layer in LAYERS})
        m.update(dict.fromkeys(SELF_TIME_METRIC.values(), 0.0))
        c = dict(self.counters)
        stop_paths, stopped = c.pop("paths.stop_paths", 0.0), c.pop("paths.stopped", 0.0)
        m.update(c)
        for name, _, start, end, child in self.spans:
            if name in SELF_TIME_METRIC:
                m[SELF_TIME_METRIC[name]] += (end - start) - child
        m["core.gen_ns_per_eval"] = 1e9 * m["core.gen_s"] / max(m["core.gen_evals"], 1.0)
        m["solver.picard_iters_per_step"] = m["solver.picard_iters"] / max(m["solver.steps"], 1.0)
        m["paths.stopped_frac"] = stopped / stop_paths if stop_paths else 0.0
        m["trace.coverage"] = sum(m[k] for k in set(SELF_TIME_METRIC.values())) / wall_s
        return m


def dump(path, iterations):
    """Write the spans of every traced iteration, once, at the end of a run."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "parent", "start", "end", "child_s"], "iterations": iterations}, fh)
