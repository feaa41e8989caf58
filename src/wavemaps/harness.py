"""Simulation driver: full runs, reference comparison, and EOC tables.

A run advances the midpoint scheme from the configured initial state to
T_end, evaluates the residual bounds and the rates alpha_hat/delta_hat on
every accepted interval, and feeds them into the accumulated error bound.
Fixed and adaptive runs share one step loop: the step controller accepts
or rejects every attempt, and each attempt is one row of
``Trajectory.controller_rows``.  Fixed-step runs use its internal
``fixed`` strategy: accept every step that can be evaluated, never grow,
and halve when the nonlinear solve fails to converge or the smallness
condition breaks.  The controller is a frozen policy.  The run keeps the
running tolerance as its own state and reads its one step floor,
``RunConfig.tau_min``, in both modes: a retry below it stops the run with
StepFloor.  Each state's EndpointTerms (its Laplacian and the per-state
factors of the bounds) are computed once, when the state is solved, and
carried to the next interval in its StepRecord.

The initial state and every accepted state take one path: energy, the
unit-length and orthogonality constraints to ``SolverConfig.unit_tol``
(which the residual bounds assume), stores and snapshots.  A store time
keeps the state only if the state lands on it to within 2^-40; a store
time the run steps over keeps nothing.  Every snapshot time the state has
reached writes its own numbered snapshot, so one step may write several.

Reference comparisons measure, over the times shared by two trajectories
on the same grid,

    err_w  = max_t || w_coarse - w_ref ||_L2
    err_gu = max_t || grad(u_coarse - u_ref) ||_L2,

which requires the coarse step times to nest into the reference times;
dyadic fixed steps guarantee that exactly.
"""

import bisect
import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import grid as gr
from .adapt import FIXED, AdaptiveController, decide
from .estimator import (EstimatorState, accumulate, alpha_hat, check_smallness,
                        delta_hat, local_quantities, residual_bounds)
from .grid import Grid2D
from .scheme import (NonConvergence, SolverConfig, StepRecord, constant_data,
                     endpoint_terms, energy, initial_data, rotation_data, step)

_TIME_ATOL = 2.0**-40

# snapshot schedule (fractions of T_end) mirroring the usual eight dump times
DEFAULT_SNAPSHOT_FRACTIONS = (
    0.0, 0.139205, 0.278409, 0.417614, 0.582386, 0.721591, 0.860795, 1.0,
)


class ConfigError(Exception):
    """Invalid run configuration."""


class TimeMismatch(Exception):
    """Trajectories do not share the grid or the required comparison times."""


class NonPositiveError(Exception):
    """EOC requested for a non-positive error value."""


class ConstraintViolation(Exception):
    """A state left |u| = 1, u . w = 0 by more than SolverConfig.unit_tol."""


class StepFloor(Exception):
    """A rejection would push tau below tau_min; the run cannot continue."""


# the policy of every fixed-mode run; it never grows, so tau_max is not read
_FIXED_CONTROLLER = AdaptiveController(strategy=FIXED)

_INITIAL_DATA = {"problem": initial_data, "constant": constant_data, "rotation": rotation_data}


@dataclass
class RunConfig:
    M: int = 32
    mode: str = "fixed"  # "fixed" | "adaptive"
    tau: float = 2.0**-9  # fixed step size, or initial step in adaptive mode
    t_end: float = 0.2
    solver: SolverConfig = field(default_factory=SolverConfig)
    controller: AdaptiveController | None = None  # adaptive only; None -> defaults
    b0: float = 0.0  # initial value of the accumulated bound
    initial: str = "problem"  # "problem" | "constant" | "rotation"
    tau_min: float = 2.0**-20  # step floor of both modes: a retry below it stops the run
    out_dir: str | None = None
    snapshot_times: tuple | None = None  # None -> DEFAULT_SNAPSHOT_FRACTIONS * t_end
    store_times: tuple = ()  # keep (t, u, w) in memory at these times

    def __post_init__(self):
        if self.mode not in ("fixed", "adaptive"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.initial not in _INITIAL_DATA:
            raise ConfigError(f"unknown initial data {self.initial!r}")
        if self.t_end <= 0.0:
            raise ConfigError("t_end must be positive")
        if self.tau <= 0.0:
            raise ConfigError("tau must be positive")
        if self.b0 < 0.0:
            raise ConfigError("b0 must be nonnegative")
        if self.M < 2:
            raise ConfigError("M must be at least 2")
        if not self.tau_min > 0.0:
            raise ConfigError("tau_min must be positive")
        if self.mode == "fixed":
            if self.controller is not None:
                raise ConfigError("fixed mode takes no controller; its step floor is tau_min")
            return
        if self.controller is None:
            self.controller = AdaptiveController()
        if self.controller.strategy == FIXED:
            raise ConfigError("the fixed strategy belongs to fixed mode")
        if self.tau_min > self.controller.tau_max:
            raise ConfigError("need tau_min <= tau_max")


@dataclass
class Trajectory:
    grid: Grid2D
    states: list  # stored (t, u, w) triples
    est: EstimatorState
    controller_rows: list  # per attempt: (t_attempt, tau, decision, tolerance used, density)
    fp_iterations: list  # per attempt: fixed-point iterations, also of a failed solve
    estimator_rows: list  # (t_j, tau_j, alpha_hat, delta_hat, int_alpha, int_delta, B_j)
    energies: list  # E at t=0 and after every accepted step
    unit_dev_max: float
    orth_dev_max: float
    n_accepted: int  # len(estimator_rows)
    n_rejected: int  # len(controller_rows) - len(estimator_rows)
    final_t: float
    final_u: np.ndarray
    final_w: np.ndarray

    @property
    def energy_drift(self) -> float:
        """Max relative deviation of the discrete energy from its initial value."""
        e0 = self.energies[0]
        scale = abs(e0) if e0 != 0.0 else 1.0
        return max(abs(e - e0) for e in self.energies) / scale


def _initial_state(cfg: RunConfig, g: Grid2D):
    return _INITIAL_DATA[cfg.initial](g)


def _pop_reached(pending: list, t: float) -> list:
    """Remove and return the leading times of the sorted schedule ``pending``
    that a state at time t has reached, to within _TIME_ATOL."""
    k = bisect.bisect_right(pending, t, key=lambda s: s - _TIME_ATOL)
    reached = pending[:k]
    del pending[:k]
    return reached


def run(cfg: RunConfig) -> Trajectory:
    """Drive one full simulation; returns the trajectory with all diagnostics."""
    g = Grid2D(cfg.M)
    est = EstimatorState(b0=cfg.b0)
    ctrl = cfg.controller if cfg.mode == "adaptive" else _FIXED_CONTROLLER
    tol = ctrl.tol0  # the updated strategy grows it on every accept

    snapshot_times = cfg.snapshot_times
    if snapshot_times is None:
        snapshot_times = tuple(f * cfg.t_end for f in DEFAULT_SNAPSHOT_FRACTIONS)
    snaps = sorted(snapshot_times) if cfg.out_dir is not None else []
    n_snaps = len(snaps)
    stores = sorted(cfg.store_times)

    states: list = []
    controller_rows: list = []
    fp_iterations: list = []
    estimator_rows: list = []
    energies: list = []
    devs: list = []  # (max||u|-1|, max|u.w|) of every kept state

    def keep(t, tau, u, w, terms):
        """Diagnostics, stores and snapshots of the initial or an accepted state."""
        energies.append(energy(u, w, g))
        devs.append(_check_constraints(t, u, w, terms.mag_w, cfg.solver.unit_tol))
        for s in _pop_reached(stores, t):
            if abs(t - s) <= _TIME_ATOL:
                states.append((t, u.copy(), w.copy()))
        first = n_snaps - len(snaps)  # snapshots written so far
        for index in range(first, first + len(_pop_reached(snaps, t))):
            _write_snapshot(cfg.out_dir, index, t, tau, u, w, g)

    tau = cfg.tau
    t = 0.0
    u, w = _initial_state(cfg, g)
    terms = endpoint_terms(u, w, g)  # carried forward with the state
    keep(t, tau, u, w, terms)
    pristine = cfg.mode == "fixed"  # until the first rejection, every step is cfg.tau

    while cfg.t_end - t > cfg.tau_min:
        tau_eff = min(tau, cfg.t_end - t)
        clamped = tau_eff < tau
        a_j = d_j = 0.0
        ok = False  # the solve converged and the smallness condition holds
        try:
            u1, w1, iterations = step(u, w, tau_eff, cfg.solver, g)
        except NonConvergence as exc:
            iterations = exc.iterations
        else:
            terms1 = endpoint_terms(u1, w1, g)
            # held until the next attempt rebinds it: freeing it sooner slowed M = 128 runs
            rec = StepRecord(grid=g, t_n=t, t_np1=t + tau_eff, u_n=u, u_np1=u1,
                             w_n=w, w_np1=w1, ends=(terms, terms1))
            ok, a_j, d_j = _rates(rec, tau_eff, cfg.solver, g)

        decision = decide(ctrl, tau_eff, a_j, d_j, ok, tol)
        controller_rows.append(
            (t, tau_eff, "accept" if decision.accepted else "reject", tol, a_j))
        fp_iterations.append(iterations)
        tau, tol = decision.tau_next, decision.tol_next
        if not decision.accepted:
            if tau < cfg.tau_min:
                raise StepFloor(f"retry step {tau:.3e} below tau_min {cfg.tau_min:.3e}")
            pristine = False
            continue

        if pristine and not clamped:  # exact dyadic times for nested comparisons
            t_new = (len(estimator_rows) + 1) * tau_eff
        else:
            t_new = cfg.t_end if clamped else t + tau_eff

        int_a = tau_eff * a_j
        int_d = tau_eff * d_j
        accumulate(est, int_a, int_d)
        estimator_rows.append((t_new, tau_eff, a_j, d_j, int_a, int_d, est.B_j))

        u, w, terms, t = u1, w1, terms1, t_new
        keep(t, tau_eff, u, w, terms)

    traj = Trajectory(
        grid=g, states=states, est=est, controller_rows=controller_rows,
        fp_iterations=fp_iterations, estimator_rows=estimator_rows,
        energies=energies, unit_dev_max=max(d for d, _ in devs),
        orth_dev_max=max(d for _, d in devs), n_accepted=len(estimator_rows),
        n_rejected=len(controller_rows) - len(estimator_rows),
        final_t=t, final_u=u, final_w=w,
    )
    if cfg.out_dir is not None:
        _write_outputs(cfg, traj)
    return traj


def _rates(rec, tau, solver, g):
    """(smallness holds, alpha_hat, delta_hat) of one solved attempt.

    The local quantities and bound fields die with this call, so they are
    not held through the next solve.
    """
    lb = local_quantities(rec, g)
    if not check_smallness(lb, tau):
        return False, 0.0, 0.0
    rbf = residual_bounds(lb, tau)
    return True, alpha_hat(rbf, lb, tau, g), delta_hat(lb, tau, solver, g)


def _check_constraints(t, u, w, mag_w, unit_tol):
    """(max||u|-1|, max|u.w|) of one state with node-wise |w| = mag_w; raises
    ConstraintViolation when either exceeds unit_tol, the orthogonality one
    scaled by max(1, max|w|)."""
    unit_dev = gr.unit_deviation(u)
    orth_dev = gr.orthogonality_deviation(u, w)
    orth_tol = unit_tol * max(1.0, float(mag_w.max()))
    if not (unit_dev <= unit_tol and orth_dev <= orth_tol):
        raise ConstraintViolation(
            f"at t={t!r}: max||u|-1| = {unit_dev:.3e}, max|u.w| = {orth_dev:.3e} "
            f"(allowed {unit_tol:.3e} and {orth_tol:.3e})")
    return unit_dev, orth_dev


# ---------------------------------------------------------------------------
# reference comparison and EOC


def energy_norm_error(coarse: Trajectory, ref: Trajectory):
    """(err_w, err_gu) over the stored times shared by both trajectories."""
    if coarse.grid != ref.grid:
        raise TimeMismatch("trajectories live on different grids")
    g = coarse.grid
    if not coarse.states:
        raise TimeMismatch("coarse trajectory stored no states")
    ref_times = [t for t, _, _ in ref.states]
    err_w = 0.0
    err_gu = 0.0
    for t, u_c, w_c in coarse.states:
        k = bisect.bisect_left(ref_times, t - _TIME_ATOL)
        if k == len(ref_times) or abs(ref_times[k] - t) > _TIME_ATOL:
            raise TimeMismatch(f"time {t!r} missing from reference trajectory")
        _, u_r, w_r = ref.states[k]
        err_w = max(err_w, gr.lp_norm(w_c - w_r, 2.0, g))
        err_gu = max(err_gu, math.sqrt(gr.integrate(gr.gradient_sq(u_c - u_r, g), g)))
    return err_w, err_gu


def eoc(e_coarse: float, e_fine: float) -> float:
    """Experimental order of convergence under step halving."""
    if e_coarse <= 0.0 or e_fine <= 0.0:
        raise NonPositiveError(f"errors must be positive, got {e_coarse}, {e_fine}")
    return math.log2(e_coarse / e_fine)


def run_eoc_study(M: int, taus, tau_ref: float, t_end: float,
                  solver: SolverConfig | None = None, initial: str = "problem"):
    """Self-convergence study against a fine-step reference on the same grid.

    Returns rows (tau, err_w, eoc_w, err_gu, eoc_gu); the first row carries
    None for both EOC entries.
    """
    solver = solver if solver is not None else SolverConfig()
    taus = sorted(taus, reverse=True)
    if any(t <= tau_ref for t in taus):
        raise ConfigError("every coarse tau must exceed tau_ref")
    finest = min(taus)
    store = tuple(_step_times(finest, t_end))
    ref = run(RunConfig(M=M, mode="fixed", tau=tau_ref, t_end=t_end, solver=solver,
                        initial=initial, store_times=store))
    rows = []
    prev = None
    for tau in taus:
        cfg = RunConfig(M=M, mode="fixed", tau=tau, t_end=t_end, solver=solver,
                        initial=initial, store_times=tuple(_step_times(tau, t_end)))
        traj = run(cfg)
        err_w, err_gu = energy_norm_error(traj, ref)
        if prev is None:
            rows.append((tau, err_w, None, err_gu, None))
        else:
            rows.append((tau, err_w, eoc(prev[0], err_w), err_gu, eoc(prev[1], err_gu)))
        prev = (err_w, err_gu)
    return rows


def _step_times(tau, t_end):
    times = []
    k = 1
    while k * tau < t_end - _TIME_ATOL:
        times.append(k * tau)
        k += 1
    times.append(t_end)
    return times


# ---------------------------------------------------------------------------
# output files


def _fmt(x) -> str:
    return "%.17g" % x


def _write_csv(path, header, rows):
    """One table: strings as given, None as an empty cell, numbers as %.17g."""
    with open(path, "w", newline="") as fh:
        wtr = csv.writer(fh)
        wtr.writerow(header)
        for row in rows:
            wtr.writerow([v if v is None or isinstance(v, str) else _fmt(v) for v in row])


def _write_outputs(cfg: RunConfig, traj: Trajectory):
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_csv(os.path.join(cfg.out_dir, "estimator.csv"),
               ["t_j", "tau_j", "alpha_hat", "delta_hat", "int_alpha", "int_delta", "B_j"],
               traj.estimator_rows)
    if cfg.mode == "adaptive":
        _write_csv(os.path.join(cfg.out_dir, "controller.csv"),
                   ["t_j", "tau_j", "decision", "current_tol", "density"],
                   traj.controller_rows)
    gr.write_field(os.path.join(cfg.out_dir, "final_u.wmf"), traj.final_u)
    gr.write_field(os.path.join(cfg.out_dir, "final_w.wmf"), traj.final_w)
    with open(os.path.join(cfg.out_dir, "final.txt"), "w") as fh:
        fh.write(f"t={_fmt(traj.final_t)} tau={_fmt(traj.estimator_rows[-1][1] if traj.estimator_rows else cfg.tau)}\n")


def _write_snapshot(out_dir, index, t, tau, u, w, g):
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{index:03d}"
    gr.write_field(os.path.join(out_dir, f"snap_{tag}_u.wmf"), u)
    gr.write_field(os.path.join(out_dir, f"snap_{tag}_w.wmf"), w)
    gr.write_field_csv(os.path.join(out_dir, f"snap_{tag}_u.csv"), u, g)
    with open(os.path.join(out_dir, f"snap_{tag}.txt"), "w") as fh:
        fh.write(f"t={_fmt(t)} tau={_fmt(tau)}\n")


def write_eoc_csv(path, rows):
    _write_csv(path, ["tau", "err_w", "eoc_w", "err_gu", "eoc_gu"], rows)
