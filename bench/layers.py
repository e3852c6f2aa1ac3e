"""Per-layer tracing for the benchmark's traced run.

`Tracer.installed()` wraps public functions of the `tribvp` modules for the
duration of a `with` block and puts the originals back afterwards, so traced
and untraced jobs can share one process.  The wrappers live here, in the
benchmark; the program itself is not changed.

Two kinds of wrapper:

- span layers (config, problem, constants, certify, nonlinear, report,
  runner) are called a handful of times per job.  Each call records a span
  (job, id, parent, name, start, end); the spans stay in memory until
  `write_spans` writes them out.
- leaf layers (functions, linear, grid) are called up to a million times per
  solve, too often for one span each.  Their calls, points and busy time are
  summed per job instead.  Only the outermost call of a leaf layer counts, so
  grid helpers calling each other are not timed twice.

A function missing from the program is skipped, and its metrics read 0.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict
from functools import wraps

import numpy as np

SPAN_LAYERS = {
    "config": {"load_run_config": "config.load"},
    "problem": {"validate_hypotheses": "problem.validate"},
    "constants": {"compute_constants": "constants"},
    "certify": {
        "certify": "certify.certify",
        "search_thresholds": "certify.search",
        "check_D1": "certify.box",
        "check_D2": "certify.box",
        "check_D3": "certify.box",
    },
    "nonlinear": {
        "find_solutions": "nonlinear.find_solutions",
        "picard_solutions": "nonlinear.picard",
        "picard_iterate": "nonlinear.picard_iterate",
        "shooting_solutions": "nonlinear.shooting",
    },
    "report": {"dump_report": "report.write", "write_sweep_csv": "report.write"},
    "runner": {"run": "runner", "sweep": "runner"},
}

LEAF_LAYERS = {
    "linear": {"solve_linear": "linear.solve_linear", "residuals": "linear.residuals"},
    "grid": {
        name: "grid"
        for name in (
            "simpson_integral",
            "cumulative_simpson",
            "interp_weights",
            "interp_cubic",
            "partial_integral_weights",
            "partial_integral",
        )
    },
}

# Counters read off a span's return value: span name -> (counter, getter).
# A return value the getter does not fit adds nothing, so tracing never
# breaks a job.
RESULT_COUNTERS = {
    "certify.box": ("certify.samples", lambda r: r.samples_used),
    "nonlinear.picard_iterate": ("nonlinear.picard.iterations", lambda r: r.iterations),
    "nonlinear.picard": ("nonlinear.candidates", len),
    "nonlinear.shooting": ("nonlinear.candidates", len),
    "nonlinear.find_solutions": ("nonlinear.kept", len),
}

# Spans that belong to the runner/cli layer itself; their self time is runner.self_s.
RUNNER_SPANS = ("job", "runner")


class Tracer:
    """Spans and per-job sums for the layers of one benchmark process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._job = None
        self._sums: dict[str, float] = defaultdict(float)
        self._leaf_depth: dict[str, int] = defaultdict(int)

    # --- installing the wrappers ------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap the program's functions inside the block; restore them after it."""
        restore = self._install()
        try:
            yield
        finally:
            for owner, name, original in reversed(restore):
                setattr(owner, name, original)

    def _install(self):
        replacements = {}
        for layers, make in ((SPAN_LAYERS, self._span_wrapper), (LEAF_LAYERS, self._leaf_wrapper)):
            for module, names in layers.items():
                mod = sys.modules.get(f"tribvp.{module}")
                for fn_name, span_name in names.items():
                    fn = getattr(mod, fn_name, None)
                    if callable(fn):
                        replacements[id(fn)] = (fn, make(fn, span_name))
        restore = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tribvp" or mod_name.startswith("tribvp.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        spec = getattr(sys.modules.get("tribvp.functions"), "FunctionSpec", None)
        if spec is not None and "__call__" in vars(spec):
            original = vars(spec)["__call__"]
            restore.append((spec, "__call__", original))
            spec.__call__ = self._leaf_wrapper(original, "functions", count_points=True)
        return restore

    def _span_wrapper(self, fn, name):
        counter = RESULT_COUNTERS.get(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)  # reserve the id so children can refer to it
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span_id] = (self._job, span_id, parent, name, start, end)
                self._sums[f"{name}.busy_s"] += end - start
                self._sums[f"{name}.calls"] += 1
            if counter is not None:
                try:
                    self._sums[counter[0]] += counter[1](result)
                except (AttributeError, TypeError):
                    pass
            return result

        return wrapper

    def _leaf_wrapper(self, fn, name, count_points=False):
        depth = self._leaf_depth
        sums = self._sums
        layer = name.split(".")[0]

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[layer]:
                return fn(*args, **kwargs)
            depth[layer] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                sums[f"{name}.busy_s"] += time.perf_counter() - start
                depth[layer] -= 1
            sums[f"{name}.calls"] += 1
            if count_points:
                sums[f"{name}.points"] += np.size(result)
            return result

        return wrapper

    # --- jobs ---------------------------------------------------------------

    def job(self, job_id, fn):
        """Run fn() as one traced job; return (result, per-job sums)."""
        root = len(self.spans)
        self._job = f"{job_id}#{root}"  # unique per run of the job
        self._sums.clear()  # cleared, not replaced: the leaf wrappers hold this dict
        self.spans.append(None)
        self._stack = [root]
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            self._stack = []
            self.spans[root] = (self._job, root, None, "job", start, end)
        sums = dict(self._sums)
        sums["runner.self_s"] = self._runner_self(root, end - start)
        return result, sums

    def _runner_self(self, root: int, wall: float) -> float:
        """Job wall time minus the time covered by layer spans the runner called."""
        runner_ids = {root}
        covered = 0.0
        for span in self.spans[root + 1 :]:
            _, span_id, parent, name, start, end = span
            if parent not in runner_ids:
                continue
            if name in RUNNER_SPANS:
                runner_ids.add(span_id)
            else:
                covered += end - start
        return wall - covered

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for job, span_id, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"job": job, "id": span_id, "parent": parent, "name": name, "start": start, "end": end}
                    )
                    + "\n"
                )
