"""The benchmark's workloads and the correctness checks on their outputs.

``BENCHMARK.json`` lists the three run workloads; ``audit-records`` is run
by name only (see ``run.py`` for why).

Every workload drives the public library calls that the ``wavemaps`` CLI
makes (``run`` with ``out_dir``, ``run_eoc_study``) or, for
``audit-records``, the calls acceptance criterion 4 makes on one step
record.  One *unit* of a workload is what a single timed repetition runs.
The unit sizes are chosen so that several repetitions fit in one
benchmark run; ``UNITS`` records them.

Package calls are looked up through their module at call time
(``harness.run``, ``scheme.step``, ...), so the traced run can wrap them.
"""

import glob
import math
import os
from dataclasses import dataclass

from wavemaps import (EQUIDISTRIBUTE, UPDATED_TOLERANCE, AdaptiveController,
                      RunConfig, SolverConfig, StepRecord)
from wavemaps import estimator, harness, reconstruct, scheme
from wavemaps import grid as gr

import records

SOLVER = SolverConfig()

# Unit sizes.  The criterion-2 and criterion-8 configurations are kept
# except for the end time, which is shortened so that one repetition takes
# a few seconds on a 2-core Xeon; tau = h/16 on the M = 128 grid.
UNITS = {
    "fixed-m128": {"M": 128, "tau": 2.0**-11, "t_end": 0.0125},
    "adaptive-pair-m32": {"M": 32, "tau0": 2.0**-10, "tau_max": 2.0**-9, "t_end": 0.02,
                          "pair": ((UPDATED_TOLERANCE, 1e-6),
                                   (EQUIDISTRIBUTE, math.sqrt(5e-4)))},
    "eoc-m32": {"M": 32, "taus": (2.0**-7, 2.0**-8, 2.0**-9, 2.0**-10),
                "tau_ref": 2.0**-13, "t_end": 2.0**-5},
    "audit-records": {"sizes": records.SIZES, "per_size": records.PER_SIZE},
}

# Behaviour tolerances.  LOG_B_RTOL admits float noise from a reordered
# reduction and nothing more.
DRIFT_TOL = 1e-9
UNIT_DEV_TOL = 1e-10
LOG_B_RTOL = 1e-9
EOC_WINDOW = (1.5, 2.5)
EOC_FINEST_MIN = 1.8

# Additive slack, in units of h, for the bounds on spatial derivatives
# (and r_w) in the record audit; the value frozen by acceptance criterion 4.
KAPPA = 4.0
SAMPLE_FRACS = (0.1, 0.3, 0.5, 0.7, 0.9)
POINT_PARTS = ("ru1", "ru2", "ru3", "rg")
GRAD_PARTS = ("rw", "grad_ru1", "grad_ru2", "grad_ru3")


@dataclass
class Outcome:
    """Checked result of one repetition."""

    ops: int
    failed_ops: int
    failures: list


# ---------------------------------------------------------------------------
# trajectory summaries and checks


def summarize(traj):
    """The behaviour fields of one trajectory that the checks read."""
    nonfinite = sum(1 for row in traj.estimator_rows
                    if not all(math.isfinite(v) for v in (row[2], row[3], row[6])))
    return {
        "n_accepted": traj.n_accepted,
        "n_rejected": traj.n_rejected,
        "log_B": traj.est.log_B,
        "B_j": traj.est.B_j,
        "energy_drift": traj.energy_drift,
        "unit_dev_max": traj.unit_dev_max,
        "nonfinite_rates": nonfinite,
    }


def check_trajectory(summary, ref):
    """Failed checks (as messages) of one trajectory against its reference."""
    bad = []
    if not summary["energy_drift"] <= DRIFT_TOL:
        bad.append(f"energy drift {summary['energy_drift']:.3e} > {DRIFT_TOL:g}")
    if not summary["unit_dev_max"] <= UNIT_DEV_TOL:
        bad.append(f"max ||u|-1| {summary['unit_dev_max']:.3e} > {UNIT_DEV_TOL:g}")
    for key in ("n_accepted", "n_rejected"):
        if summary[key] != ref[key]:
            bad.append(f"{key} {summary[key]} != reference {ref[key]}")
    if summary["nonfinite_rates"]:
        bad.append(f"{summary['nonfinite_rates']} steps with non-finite "
                   "alpha_hat, delta_hat or B_j")
    if not math.isfinite(summary["B_j"]):
        bad.append(f"B_j = {summary['B_j']}")
    if summary["log_B"] == -math.inf and summary["B_j"] != 0.0:
        bad.append(f"log_B = -inf next to B_j = {summary['B_j']}")
    if not math.isclose(summary["log_B"], ref["log_B"], rel_tol=LOG_B_RTOL):
        bad.append(f"log_B {summary['log_B']!r} != reference {ref['log_B']!r}")
    return bad


def _attempts(summary):
    return summary["n_accepted"] + summary["n_rejected"]


def _label(cfg):
    if cfg.mode == "adaptive":
        return cfg.controller.strategy
    return f"tau={cfg.tau!r}"


class RunRecorder:
    """Summarizes every trajectory ``harness.run`` returns while installed.

    Trajectories are reduced to their summaries as they return, so stored
    states are freed as soon as the program itself drops them.
    """

    def __init__(self):
        self.summaries = {}
        self._original = None

    def __enter__(self):
        self._original = original = harness.run

        def recorded(cfg):
            traj = original(cfg)
            self.summaries[_label(cfg)] = summarize(traj)
            return traj

        harness.run = recorded
        return self

    def __exit__(self, *exc):
        harness.run = self._original
        return False


def check_runs(summaries, ref, extra_failures=()):
    """Outcome of one repetition of a run workload.

    A trajectory that fails a check fails all of its step attempts; a
    failure of the whole repetition (``extra_failures``, e.g. an EOC
    outside its window) fails every attempt of it.
    """
    failures = []
    ops = sum(_attempts(s) for s in summaries.values())
    failed = 0
    for label in sorted(set(ref) | set(summaries)):
        if label not in summaries:
            failures.append(f"{label}: missing run")
            failed += _attempts(ref[label])
            ops += _attempts(ref[label])
            continue
        if label not in ref:
            failures.append(f"{label}: run without reference")
            failed += _attempts(summaries[label])
            continue
        bad = check_trajectory(summaries[label], ref[label])
        if bad:
            failures.extend(f"{label}: {msg}" for msg in bad)
            failed += _attempts(summaries[label])
    if extra_failures:
        failures.extend(extra_failures)
        failed = ops
    return Outcome(ops=ops, failed_ops=failed, failures=failures)


# ---------------------------------------------------------------------------
# run workloads


def _check_output_dir(out_dir, summary, m):
    """Files the CLI's fixed-mode run leaves behind: snapshots, estimator
    rows and the final field dump."""
    bad = []
    snaps = sorted(glob.glob(os.path.join(out_dir, "snap_*_u.csv")))
    if len(snaps) != len(harness.DEFAULT_SNAPSHOT_FRACTIONS):
        bad.append(f"{len(snaps)} snapshots written, expected "
                   f"{len(harness.DEFAULT_SNAPSHOT_FRACTIONS)}")
    try:
        for path in snaps:
            with open(path, encoding="ascii") as fh:
                lines = sum(1 for _ in fh)
            if lines != (m + 1) ** 2 + 1:
                bad.append(f"{os.path.basename(path)} has {lines} lines")
        with open(os.path.join(out_dir, "estimator.csv"), encoding="ascii") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != summary["n_accepted"]:
            bad.append(f"estimator.csv has {rows} rows for {summary['n_accepted']} steps")
        final_u = gr.read_field(os.path.join(out_dir, "final_u.wmf"))
    except (OSError, ValueError) as exc:
        return bad + [f"unreadable output: {exc}"]
    if final_u.shape != (m + 1, m + 1, 3) or not gr.unit_deviation(final_u) <= UNIT_DEV_TOL:
        bad.append("final_u.wmf is not a unit field of the run's shape")
    return bad


def run_fixed_m128(out_dir):
    p = UNITS["fixed-m128"]
    cfg = RunConfig(M=p["M"], mode="fixed", tau=p["tau"], t_end=p["t_end"],
                    solver=SOLVER, out_dir=out_dir)
    harness.run(cfg)


def run_adaptive_pair(out_dir):
    p = UNITS["adaptive-pair-m32"]
    for strategy, tol0 in p["pair"]:
        ctrl = AdaptiveController(strategy=strategy, tol0=tol0, tau_max=p["tau_max"])
        harness.run(RunConfig(M=p["M"], mode="adaptive", tau=p["tau0"], t_end=p["t_end"],
                              solver=SOLVER, controller=ctrl))


def run_eoc(out_dir):
    p = UNITS["eoc-m32"]
    return harness.run_eoc_study(M=p["M"], taus=list(p["taus"]), tau_ref=p["tau_ref"],
                                 t_end=p["t_end"], solver=SOLVER)


def eoc_failures(rows):
    """EOC window checks of acceptance criterion 2."""
    pairs = [(r[2], r[4]) for r in rows[1:]]
    lo, hi = EOC_WINDOW
    bad = [f"EOC {e!r} outside [{lo}, {hi}]" for pair in pairs for e in pair
           if not lo <= e <= hi]
    if not pairs or not min(pairs[-1]) >= EOC_FINEST_MIN:
        bad.append(f"finest EOC pair {pairs[-1] if pairs else None} below {EOC_FINEST_MIN}")
    return bad


RUNNERS = {
    "fixed-m128": run_fixed_m128,
    "adaptive-pair-m32": run_adaptive_pair,
    "eoc-m32": run_eoc,
}


def cli_flags(name):
    """The ``wavemaps`` command-line flags that configure a run workload."""
    p = UNITS[name]
    if name == "fixed-m128":
        return ["--mode", "fixed", "--grid", str(p["M"]), "--tau", repr(p["tau"]),
                "--tend", repr(p["t_end"]), "--out", "snapshots"]
    if name == "adaptive-pair-m32":
        strategy, tol0 = p["pair"][0]
        return ["--mode", "adaptive", "--grid", str(p["M"]), "--tau", repr(p["tau0"]),
                "--tend", repr(p["t_end"]), "--strategy", strategy, "--tol0", repr(tol0)]
    return ["--mode", "eoc", "--grid", str(p["M"]), "--tend", repr(p["t_end"])]


def prepare(name, seed):
    """Inputs of one workload, made before anything is timed."""
    if name == "audit-records":
        return records.audit_inputs(seed, UNITS[name]["per_size"], SOLVER)
    return None


def execute(name, inputs, out_dir):
    """The timed part of one repetition; returns what ``check`` reads."""
    if name == "audit-records":
        return run_audit(inputs)
    with RunRecorder() as rec:
        try:
            value, error = RUNNERS[name](out_dir), None
        except Exception as exc:  # a raising run fails all of its attempts
            value, error = None, exc
    return rec.summaries, value, error


def check(name, raw, ref, out_dir):
    """Outcome of one repetition against the workload's reference."""
    if name == "audit-records":
        return check_audit(raw)
    summaries, value, error = raw
    extra = []
    if error is not None:
        extra.append(f"raised {type(error).__name__}: {error}")
    elif name == "eoc-m32":
        extra.extend(eoc_failures(value))
    elif name == "fixed-m128":
        p = UNITS[name]
        summary = summaries.get(f"tau={p['tau']!r}")
        if summary is not None:
            extra.extend(_check_output_dir(out_dir, summary, p["M"]))
    return check_runs(summaries, ref, extra)


# ---------------------------------------------------------------------------
# audit-records


def audit_record(inp):
    """Step, bound and sample one record; returns the residual parts whose
    sampled magnitude exceeds its point-wise bound."""
    g = inp.grid
    u1, w1, _ = scheme.step(inp.u0, inp.w0, inp.tau, SOLVER, g)
    rec = StepRecord(grid=g, t_n=inp.t_n, t_np1=inp.t_n + inp.tau,
                     u_n=inp.u0, u_np1=u1, w_n=inp.w0, w_np1=w1)
    lb = estimator.local_quantities(rec, g)
    rbf = estimator.residual_bounds(lb, rec.tau)
    worst = dict.fromkeys(POINT_PARTS + GRAD_PARTS, -math.inf)
    for frac in SAMPLE_FRACS:
        s = reconstruct.eval_residuals(rec, rec.t_n + frac * rec.tau)
        point = {"ru1": (s.r_u1, rbf.bd_ru1), "ru2": (s.r_u2, rbf.bd_ru2),
                 "ru3": (s.r_u3, rbf.bd_ru3), "rg": (s.r_g, rbf.bd_rg)}
        for name, (r, bd) in point.items():
            # relative slack for roundoff: |r| (1 - 1e-8) may not exceed the bound
            worst[name] = max(worst[name], float((gr.magnitude(r) * (1.0 - 1e-8) - bd).max()))
        grad = {"rw": (gr.magnitude(s.r_w), rbf.bd_rw),
                "grad_ru1": (gr.grad_magnitude(s.r_u1, g), rbf.bd_grad_ru1),
                "grad_ru2": (gr.grad_magnitude(s.r_u2, g), rbf.bd_grad_ru2),
                "grad_ru3": (gr.grad_magnitude(s.r_u3, g), rbf.bd_grad_ru3)}
        for name, (val, bd) in grad.items():
            worst[name] = max(worst[name], float((val - bd).max()))
    slack = KAPPA * g.h
    return ([n for n in POINT_PARTS if not worst[n] <= 0.0]
            + [n for n in GRAD_PARTS if not worst[n] <= slack])


def run_audit(inputs):
    """Audit every input; returns one list of violated parts per record."""
    out = []
    for inp in inputs:
        try:
            out.append(audit_record(inp))
        except Exception as exc:  # a raising record is a failed operation
            out.append([f"raised {type(exc).__name__}: {exc}"])
    return out


def check_audit(results):
    failures = [f"record {i}: {parts}" for i, parts in enumerate(results) if parts]
    return Outcome(ops=len(results), failed_ops=len(failures), failures=failures)
