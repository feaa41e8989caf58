"""Span tracing for the traced benchmark run, done from outside the package.

``Tracer`` replaces the public functions of each layer by wrappers that
record a span (name, start, end, parent) and a few counts, and restores
the originals on exit.  ``wavemaps.harness`` imports ``step``,
``local_quantities``, ``check_smallness``, ``residual_bounds``,
``alpha_hat``, ``delta_hat``, ``accumulate``, ``energy``, ``decide`` and
``energy_norm_error`` by name, so those are patched in the harness
namespace; grid operators are called as ``gr.<name>`` and are patched on
``wavemaps.grid``.  The audit workload calls ``scheme.step``,
``estimator.local_quantities``, ``estimator.residual_bounds`` and
``reconstruct.eval_residuals`` through their modules, which are patched
as well.

Spans stay in memory; self time is a span's duration minus that of its
direct children (spans nest strictly on the single thread).  Metrics of a
layer that a workload does not run read 0, ``adapt.accept_ratio`` too.

Which end-to-end metric each layer metric should move, and where:

- ``grid.*``: ``step_ms`` on ``fixed-m128`` (400 KB fields); nearly flat
  on ``adaptive-pair-m32``, where per-call overhead dominates.
  ``grid.bytes_computed`` sums input and output array sizes of the
  kernels; it is computed, not measured, and a 129x129x3 float64 field
  stays cache-resident here, so no bandwidth is derived from it.
- ``scheme.*``: ``wall_s`` on the three run workloads, most on ``eoc-m32``.
- ``estimator.*``: ``wall_s`` on ``eoc-m32`` (nothing reads the estimate)
  and ``step_ms`` on ``fixed-m128``.
- ``reconstruct.*``: ``wall_s`` on ``audit-records`` only; zero calls
  elsewhere.
- ``adapt.*``: ``wall_s`` on ``adaptive-pair-m32``; the fixed workloads
  have ``accept_ratio`` 1 and no rejections.
- ``harness.output.*``: ``wall_s`` on ``fixed-m128``; ``harness.run.self_s``
  (the step loop minus traced children): ``step_ms`` on
  ``adaptive-pair-m32``.
"""

import os
import time
from collections import Counter, defaultdict

import numpy as np

from wavemaps import estimator, harness, reconstruct, scheme
from wavemaps import grid as gr
from wavemaps.scheme import NonConvergence

# grid operator -> span name
GRID_SPANS = {
    "laplacian": "grid.laplacian",
    "cross": "grid.cross",
    "gradient": "grid.gradient",
    "lp_norm": "grid.reduce",
    "integrate": "grid.reduce",
    "dirichlet_form": "grid.reduce",
}
OUTPUT_WRITERS = ("write_field", "write_field_csv")
ESTIMATOR_SPANS = ("estimator.local_quantities", "estimator.check_smallness",
                   "estimator.residual_bounds", "estimator.alpha_hat",
                   "estimator.delta_hat", "estimator.accumulate")

# per-layer metrics: name -> (unit, better)
LAYER_METRICS = {}
for _op in ("laplacian", "cross", "gradient", "reduce"):
    LAYER_METRICS[f"grid.{_op}.calls"] = ("count", "lower")
    LAYER_METRICS[f"grid.{_op}.s"] = ("s", "lower")
LAYER_METRICS.update({
    "grid.bytes_computed": ("B", "lower"),
    "scheme.step.calls": ("count", "lower"),
    "scheme.step.s": ("s", "lower"),
    "scheme.step.self_s": ("s", "lower"),
    "scheme.fp_iters": ("count", "lower"),
    "scheme.fp_iters_per_step": ("iter/step", "lower"),
    "scheme.nonconvergence": ("count", "lower"),
    "scheme.energy.calls": ("count", "lower"),
    "scheme.energy.s": ("s", "lower"),
    "estimator.local_quantities.s": ("s", "lower"),
    "estimator.residual_bounds.s": ("s", "lower"),
    "estimator.alpha_hat.s": ("s", "lower"),
    "estimator.delta_hat.s": ("s", "lower"),
    "estimator.accumulate.s": ("s", "lower"),
    "estimator.smallness_fail": ("count", "lower"),
    "estimator.share": ("1", "lower"),
    "reconstruct.eval_residuals.calls": ("count", "lower"),
    "reconstruct.eval_residuals.s": ("s", "lower"),
    "adapt.decide.calls": ("count", "lower"),
    "adapt.accept_ratio": ("1", "higher"),
    "adapt.reject.solver": ("count", "lower"),
    "adapt.reject.smallness": ("count", "lower"),
    "adapt.reject.tolerance": ("count", "lower"),
    "harness.run.self_s": ("s", "lower"),
    "harness.output.s": ("s", "lower"),
    "harness.output.bytes": ("B", "lower"),
    "harness.energy_norm_error.s": ("s", "lower"),
    "harness.tracing_overhead_s": ("s", "lower"),
})


def _nbytes(values):
    total = 0
    for v in values:
        if isinstance(v, np.ndarray):
            total += v.nbytes
        elif isinstance(v, tuple):
            total += _nbytes(v)
    return total


class Tracer:
    """Context manager that wraps the layer functions and records spans."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = Counter()
        self._stack = []
        self._patched = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
                if after is not None:
                    after(args, result, exc)

        return traced

    def _patch(self, module, attr, name, after=None):
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self._wrap(name, original, after))

    def __enter__(self):
        counts = self.counts

        def kernel_bytes(args, result, exc):
            if exc is None:
                counts["grid.bytes_computed"] += _nbytes(args) + _nbytes((result,))

        def output_bytes(args, result, exc):
            if exc is None:
                counts["harness.output.bytes"] += os.path.getsize(args[0])

        def solve(args, result, exc):
            if exc is None:
                counts["scheme.fp_iters"] += result[2]
                counts["scheme.converged"] += 1
            elif isinstance(exc, NonConvergence):
                counts["scheme.nonconvergence"] += 1

        def harness_step(args, result, exc):
            solve(args, result, exc)
            counts["harness.attempts"] += 1
            if isinstance(exc, NonConvergence):
                counts["adapt.reject.solver"] += 1

        def smallness(args, result, exc):
            if exc is None and not result:
                counts["estimator.smallness_fail"] += 1
                counts["adapt.reject.smallness"] += 1

        def decision(args, result, exc):
            # decide(ctrl, tau, alpha_hat, delta_hat, fp_converged): a step
            # that passed the solve and the smallness check but is rejected
            # was rejected for its tolerance
            if exc is None and args[4] and not result.accepted:
                counts["adapt.reject.tolerance"] += 1

        for attr, name in GRID_SPANS.items():
            self._patch(gr, attr, name, kernel_bytes)
        for attr in OUTPUT_WRITERS:
            self._patch(gr, attr, "harness.output", output_bytes)
        harness_names = {
            "run": ("harness.run", None),
            "step": ("scheme.step", harness_step),
            "check_smallness": ("estimator.check_smallness", smallness),
            "local_quantities": ("estimator.local_quantities", None),
            "residual_bounds": ("estimator.residual_bounds", None),
            "alpha_hat": ("estimator.alpha_hat", None),
            "delta_hat": ("estimator.delta_hat", None),
            "accumulate": ("estimator.accumulate", None),
            "energy": ("scheme.energy", None),
            "decide": ("adapt.decide", decision),
            "energy_norm_error": ("harness.energy_norm_error", None),
        }
        for attr, (name, after) in harness_names.items():
            self._patch(harness, attr, name, after)
        self._patch(scheme, "step", "scheme.step", solve)
        self._patch(estimator, "local_quantities", "estimator.local_quantities")
        self._patch(estimator, "residual_bounds", "estimator.residual_bounds")
        self._patch(reconstruct, "eval_residuals", "reconstruct.eval_residuals")
        return self

    def __exit__(self, *exc):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)
        return False

    # -- aggregation -------------------------------------------------------

    def totals(self):
        """(calls, inclusive seconds, self seconds) per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        incl = defaultdict(float)
        excl = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            excl[name] += end - start - child[i]
        return calls, incl, excl

    def layer_metrics(self, wall_s):
        """Per-layer metrics of the traced repetition that took ``wall_s``.

        ``harness.tracing_overhead_s`` needs an untraced repetition and is
        filled in by the caller.
        """
        calls, incl, excl = self.totals()
        c = self.counts
        m = {}
        for op in ("laplacian", "cross", "gradient", "reduce"):
            m[f"grid.{op}.calls"] = calls[f"grid.{op}"]
            m[f"grid.{op}.s"] = incl[f"grid.{op}"]
        m["grid.bytes_computed"] = c["grid.bytes_computed"]
        m["scheme.step.calls"] = calls["scheme.step"]
        m["scheme.step.s"] = incl["scheme.step"]
        m["scheme.step.self_s"] = excl["scheme.step"]
        m["scheme.fp_iters"] = c["scheme.fp_iters"]
        m["scheme.fp_iters_per_step"] = (c["scheme.fp_iters"] / c["scheme.converged"]
                                         if c["scheme.converged"] else 0.0)
        m["scheme.nonconvergence"] = c["scheme.nonconvergence"]
        m["scheme.energy.calls"] = calls["scheme.energy"]
        m["scheme.energy.s"] = incl["scheme.energy"]
        for part in ("local_quantities", "residual_bounds", "alpha_hat", "delta_hat",
                     "accumulate"):
            m[f"estimator.{part}.s"] = incl[f"estimator.{part}"]
        m["estimator.smallness_fail"] = c["estimator.smallness_fail"]
        m["estimator.share"] = sum(incl[n] for n in ESTIMATOR_SPANS) / wall_s
        m["reconstruct.eval_residuals.calls"] = calls["reconstruct.eval_residuals"]
        m["reconstruct.eval_residuals.s"] = incl["reconstruct.eval_residuals"]
        rejects = {k: c[f"adapt.reject.{k}"] for k in ("solver", "smallness", "tolerance")}
        attempts = c["harness.attempts"]
        m["adapt.decide.calls"] = calls["adapt.decide"]
        m["adapt.accept_ratio"] = ((attempts - sum(rejects.values())) / attempts
                                   if attempts else 0.0)
        for k, v in rejects.items():
            m[f"adapt.reject.{k}"] = v
        m["harness.run.self_s"] = excl["harness.run"]
        m["harness.output.s"] = incl["harness.output"]
        m["harness.output.bytes"] = c["harness.output.bytes"]
        m["harness.energy_norm_error.s"] = incl["harness.energy_norm_error"]
        return m

    def write_spans(self, path):
        """Write the spans as tab-separated lines: name, start, end, parent."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\n")
