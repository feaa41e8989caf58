"""Simulation driver: full runs, reference comparison, and EOC tables.

A run advances the midpoint scheme from the configured initial state to
T_end, evaluates the residual bounds and the rates alpha_hat/delta_hat on
every accepted interval, and feeds them into the accumulated error bound.
Fixed and adaptive runs share one step loop: the step controller accepts
or rejects every attempt, and each attempt, with its fixed-point sweeps,
is one row of ``Trajectory.controller_rows``.  The run creates its
Trajectory first and fills it in place.  Fixed-step runs take no
controller: ``decide(None, ...)`` accepts every step that can be evaluated
and never grows it; an adaptive run starts at min(tau, tau_max), so
``tau_max`` caps every attempt.  In both modes a rejected attempt is
retried at half its size (``adapt.SHRINK``).  The controller is a frozen
policy.  The run keeps the running tolerance as its own state and reads
its one step floor, ``RunConfig.tau_min``, in both modes: a retry below it
stops the run with StepFloor.  Each state's EndpointTerms (its Laplacian
and the per-state factors of the bounds) are computed once, when the state
is solved, and carried to the next interval in its StepRecord.  Once a
step has been accepted, every attempt, a retry too, starts its
fixed-point solve from the last accepted step extrapolated linearly to its
own step size; the attempts before the first accept start from the
current state.  The solver's tolerance bounds what the start changes in
the results.

The initial state and every accepted state take one path: energy, the
unit-length and orthogonality constraints to UNIT_TOL (which the residual
bounds assume), stores and snapshots.  The solve stops once a sweep moves
neither iterate by more than ``fp_tol``, and the constraint error it
leaves grows with that tolerance, so a run takes no ``fp_tol`` above
UNIT_TOL.  A store time keeps the state only if the state lands on it to
within 2^-40; a store time the run steps over keeps nothing.  Every
snapshot time the state has reached writes its own numbered snapshot, so
one step may write several.

Reference comparisons measure the distance of a coarse trajectory from a
reference on the same grid,

    err_w  = max_t || w_coarse - w_ref ||_L2
    err_gu = max_t || grad(u_coarse - u_ref) ||_L2,

over the coarse times, each of which must be a time the reference stored;
dyadic fixed steps nest exactly.  A run given ``RunConfig.reference``
takes these maxima over its accepted states as it steps and keeps only
the two numbers; ``energy_norm_error`` takes them over the states that a
coarse run stored.  Both read one lookup and one distance, so they agree
bit for bit.
"""

import bisect
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import grid as gr
from .adapt import AdaptiveController, decide
from .estimator import (EstimatorState, accumulate, alpha_hat, check_smallness,
                        delta_hat, local_quantities, residual_bounds)
from .grid import Grid2D
from .scheme import (NonConvergence, SolverConfig, StepRecord, constant_data,
                     endpoint_terms, energy, initial_data, rotation_data, step)

_TIME_ATOL = 2.0**-40
# slack of the |u| = 1 and u . w = 0 node constraints on every kept state:
# the residual bounds hold only for unit-length, orthogonal endpoints
UNIT_TOL = 1e-9

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
    """A state left |u| = 1, u . w = 0 by more than UNIT_TOL."""


class StepFloor(Exception):
    """A rejection would push tau below tau_min; the run cannot continue."""


_INITIAL_DATA = {"problem": initial_data, "constant": constant_data, "rotation": rotation_data}


@dataclass
class RunConfig:
    M: int = 32
    mode: str = "fixed"  # "fixed" | "adaptive"
    tau: float = 2.0**-9  # fixed step size, or initial step in adaptive mode
    t_end: float = 0.2
    solver: SolverConfig = field(default_factory=SolverConfig)
    controller: AdaptiveController | None = None  # adaptive: None -> defaults; fixed: None
    initial: str = "problem"  # "problem" | "constant" | "rotation"
    tau_min: float = 2.0**-20  # step floor of both modes: a retry below it stops the run
    out_dir: str | None = None
    snapshot_times: tuple | None = None  # None -> DEFAULT_SNAPSHOT_FRACTIONS * t_end
    store_times: tuple = ()  # keep (t, u, w) in memory at these times
    # a run on the same grid that stored every accepted time of this one: the
    # distance from it is measured as the run steps (Trajectory.err_w, err_gu);
    # it holds arrays, so repr and == leave it out
    reference: "Trajectory | None" = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in ("fixed", "adaptive"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.initial not in _INITIAL_DATA:
            raise ConfigError(f"unknown initial data {self.initial!r}")
        if not 0.0 < self.t_end < math.inf:
            raise ConfigError("t_end must be positive and finite")
        if not 0.0 < self.tau < math.inf:
            raise ConfigError("tau must be positive and finite")
        if self.M < 2:
            raise ConfigError("M must be at least 2")
        if self.out_dir == "":  # no file can be opened there
            raise ConfigError("the output directory must not be empty")
        if not 0.0 < self.tau_min < self.t_end:  # else the run takes no step
            raise ConfigError("need 0 < tau_min < t_end")
        if self.solver.fp_tol > UNIT_TOL:  # the kept states would drift past it
            raise ConfigError(f"fp_tol must be at most UNIT_TOL = {UNIT_TOL!r}")
        if self.reference is not None and self.reference.grid != Grid2D(self.M):
            raise ConfigError("the reference trajectory lives on another grid")
        for name, times in (("snapshot", self.snapshot_times or ()), ("store", self.store_times)):
            if not all(map(math.isfinite, times)):
                raise ConfigError(f"{name} times must be finite")  # a NaN breaks their order
        if self.mode == "fixed":
            if self.controller is not None:
                raise ConfigError("fixed mode takes no controller; its step floor is tau_min")
            return
        if self.controller is None:
            self.controller = AdaptiveController()
        if self.tau_min > self.controller.tau_max:
            raise ConfigError("need tau_min <= tau_max")


@dataclass
class Trajectory:
    grid: Grid2D
    states: list  # stored (t, u, w) triples
    est: EstimatorState
    # per attempt: (t_attempt, tau, decision, tolerance used, density,
    # fixed-point iterations, also of a failed solve)
    controller_rows: list
    estimator_rows: list  # (t_j, tau_j, alpha_hat, delta_hat, int_alpha, int_delta, B_j)
    energies: list  # E at t=0 and after every accepted step
    unit_dev_max: float  # max||u|-1| and max|u.w| over the kept states
    orth_dev_max: float
    final_t: float  # the last kept state
    final_u: np.ndarray
    final_w: np.ndarray
    # with RunConfig.reference, the largest distances of the accepted states
    # from it, max ||w - w_ref||_L2 and max ||grad(u - u_ref)||_L2; else None
    err_w: float | None = None
    err_gu: float | None = None

    @property
    def n_accepted(self) -> int:
        return len(self.estimator_rows)

    @property
    def n_rejected(self) -> int:
        return len(self.controller_rows) - len(self.estimator_rows)

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
    ctrl = cfg.controller  # None: a fixed run
    tol = None if ctrl is None else ctrl.tol0  # the updated strategy grows it on every accept
    tau = cfg.tau if ctrl is None else min(cfg.tau, ctrl.tau_max)  # tau_max caps every attempt

    snapshot_times = cfg.snapshot_times
    if snapshot_times is None:
        snapshot_times = tuple(f * cfg.t_end for f in DEFAULT_SNAPSHOT_FRACTIONS)
    snaps = sorted(snapshot_times) if cfg.out_dir is not None else []
    n_snaps = len(snaps)
    stores = sorted(cfg.store_times)

    t = 0.0
    u, w = _initial_state(cfg, g)
    # B_0 = 0: the run starts from the exact initial datum
    traj = Trajectory(grid=g, states=[], est=EstimatorState(), controller_rows=[],
                      estimator_rows=[], energies=[], unit_dev_max=0.0, orth_dev_max=0.0,
                      final_t=t, final_u=u, final_w=w)
    if cfg.reference is not None:
        traj.err_w = traj.err_gu = 0.0

    def keep(t, tau, u, w, terms):
        """Diagnostics, stores and snapshots of the initial or an accepted state."""
        traj.energies.append(energy(u, w, g))
        unit_dev, orth_dev = _check_constraints(t, u, w, terms.mag_w)
        traj.unit_dev_max = max(traj.unit_dev_max, unit_dev)
        traj.orth_dev_max = max(traj.orth_dev_max, orth_dev)
        traj.final_t, traj.final_u, traj.final_w = t, u, w
        for s in _pop_reached(stores, t):
            if abs(t - s) <= _TIME_ATOL:
                traj.states.append((t, u.copy(), w.copy()))
        first = n_snaps - len(snaps)  # snapshots written so far
        for index in range(first, first + len(_pop_reached(snaps, t))):
            _write_snapshot(cfg.out_dir, index, t, tau, u, w, g)

    terms = endpoint_terms(u, w, g)  # carried forward with the state
    keep(t, tau, u, w, terms)
    pristine = ctrl is None  # until the first rejection, every step is cfg.tau
    last = None  # (u, w, tau) before the last accepted step

    while cfg.t_end - t > cfg.tau_min:
        tau_eff = min(tau, cfg.t_end - t)
        clamped = tau_eff < tau
        a_j = d_j = None  # rates only if the solve converges and the smallness condition holds
        try:
            u1, w1, iterations = step(u, w, tau_eff, cfg.solver, g,
                                      guess=_extrapolate(last, u, w, tau_eff))
        except NonConvergence as exc:
            iterations = exc.iterations
        else:
            terms1 = endpoint_terms(u1, w1, g)
            # held until the next attempt rebinds it: freeing it sooner slowed M = 128 runs
            rec = StepRecord(grid=g, t_n=t, t_np1=t + tau_eff, u_n=u, u_np1=u1,
                             w_n=w, w_np1=w1, ends=(terms, terms1))
            a_j, d_j = _rates(rec, tau_eff, g)

        decision = decide(ctrl, tau_eff, a_j, d_j, a_j is not None, tol)
        traj.controller_rows.append(
            (t, tau_eff, "accept" if decision.accepted else "reject", tol, a_j, iterations))
        tau, tol = decision.tau_next, decision.tol_next
        if not decision.accepted:
            if tau < cfg.tau_min:
                raise StepFloor(f"retry step {tau:.3e} below tau_min {cfg.tau_min:.3e}")
            pristine = False
            continue

        if pristine and not clamped:  # exact dyadic times for nested comparisons
            t_new = (len(traj.estimator_rows) + 1) * tau_eff
        else:
            t_new = cfg.t_end if clamped else t + tau_eff

        int_a = tau_eff * a_j
        int_d = tau_eff * d_j
        accumulate(traj.est, int_a, int_d)
        traj.estimator_rows.append((t_new, tau_eff, a_j, d_j, int_a, int_d, traj.est.B_j))

        last = (u, w, tau_eff)
        u, w, terms, t = u1, w1, terms1, t_new
        if cfg.reference is not None:
            traj.err_w, traj.err_gu = _max_distance(traj.err_w, traj.err_gu, t, u, w,
                                                    cfg.reference)
        keep(t, tau_eff, u, w, terms)

    if cfg.out_dir is not None:
        _write_outputs(cfg, traj)
    return traj


def _extrapolate(last, u, w, tau):
    """Start of the solve from (u, w) over tau: the last accepted step,
    ``last = (u_last, w_last, tau_last)``, extrapolated linearly, or None
    before the first accept.

    With r = tau / tau_last, the guess is (u + r (u - u_last), w + r (w -
    w_last)), built in place in two new arrays.  Nothing holds them once
    the solve returns, so they do not live through the estimator.
    """
    if last is None:
        return None
    r = tau / last[2]
    guess = (np.subtract(u, last[0]), np.subtract(w, last[1]))
    for x, x_guess in zip((u, w), guess):
        x_guess *= r
        x_guess += x
    return guess


def _rates(rec, tau, g):
    """(alpha_hat, delta_hat) of one solved attempt; both None if smallness fails.

    The local quantities and bound fields die with this call, so they are
    not held through the next solve.
    """
    lb = local_quantities(rec, g)
    if not check_smallness(lb, tau):
        return None, None
    rbf = residual_bounds(lb, tau)
    return alpha_hat(rbf, g), delta_hat(rbf, g)


def _check_constraints(t, u, w, mag_w):
    """(max||u|-1|, max|u.w|) of one state with node-wise |w| = mag_w; raises
    ConstraintViolation when either exceeds UNIT_TOL, the orthogonality one
    scaled by max(1, max|w|)."""
    unit_dev = gr.unit_deviation(u)
    orth_dev = gr.orthogonality_deviation(u, w)
    orth_tol = UNIT_TOL * max(1.0, float(mag_w.max()))
    if not (unit_dev <= UNIT_TOL and orth_dev <= orth_tol):
        raise ConstraintViolation(
            f"at t={t!r}: max||u|-1| = {unit_dev:.3e}, max|u.w| = {orth_dev:.3e} "
            f"(allowed {UNIT_TOL:.3e} and {orth_tol:.3e})")
    return unit_dev, orth_dev


# ---------------------------------------------------------------------------
# reference comparison and EOC


def energy_norm_error(coarse: Trajectory, ref: Trajectory):
    """(err_w, err_gu) over the stored times of ``coarse``, each of which
    ``ref`` must have stored too."""
    if coarse.grid != ref.grid:
        raise TimeMismatch("trajectories live on different grids")
    if not coarse.states:
        raise TimeMismatch("coarse trajectory stored no states")
    err_w = err_gu = 0.0
    for t, u_c, w_c in coarse.states:
        err_w, err_gu = _max_distance(err_w, err_gu, t, u_c, w_c, ref)
    return err_w, err_gu


def _max_distance(err_w, err_gu, t, u, w, ref: Trajectory):
    """(err_w, err_gu) raised to the distances of the state (u, w) at time t
    from the state that ``ref`` stored at t to within 2^-40,
    ||w - w_ref||_L2 and ||grad(u - u_ref)||_L2; TimeMismatch if it stored none."""
    k = bisect.bisect_left(ref.states, t - _TIME_ATOL, key=lambda state: state[0])
    if k == len(ref.states) or abs(ref.states[k][0] - t) > _TIME_ATOL:
        raise TimeMismatch(f"time {t!r} missing from reference trajectory")
    _, u_r, w_r = ref.states[k]
    g = ref.grid
    return (max(err_w, gr.lp_norm(w - w_r, 2.0, g)),
            max(err_gu, math.sqrt(gr.integrate(gr.gradient_sq(u - u_r, g), g))))


def eoc(e_coarse: float, e_fine: float) -> float:
    """Experimental order of convergence under step halving."""
    if e_coarse <= 0.0 or e_fine <= 0.0:
        raise NonPositiveError(f"errors must be positive, got {e_coarse}, {e_fine}")
    return math.log2(e_coarse / e_fine)


def run_eoc_study(M: int, taus, tau_ref: float, t_end: float,
                  solver: SolverConfig | None = None, out_dir=None):
    """Self-convergence study of the problem data against a fine-step
    reference on the same grid.  The constant and rotation data are
    resolved exactly at every tau, so their zero errors give no order.

    Returns rows (tau, err_w, eoc_w, err_gu, eoc_gu); the first row carries
    None for both EOC entries.  An EOC is log2 of an error ratio, so each
    sorted tau must be exactly twice the next.  The reference stores the
    step times of the finest tau, each of which must be a step time
    k * tau_ref to within 2^-40; a coarser step time k * (2^j * tau_f)
    rounds the same real product as (k * 2^j) * tau_f, so it is stored too.
    Taus that do not halve or nest raise ConfigError before any run, as do
    an empty list of taus, a t_end, tau_ref or tau not positive and finite,
    a tau_ref below t_end / 2^53 and an empty ``out_dir``.
    Only the reference stores states: each coarse run carries it as
    ``RunConfig.reference`` and measures its errors as it steps.
    With an ``out_dir``, the rows go to eoc.csv there once the study is done.
    """
    if not taus:
        raise ConfigError("the study needs at least one eoc tau")
    if out_dir == "":
        raise ConfigError("the output directory must not be empty")
    if not all(0.0 < t < math.inf for t in (t_end, tau_ref, *taus)):
        raise ConfigError("t_end, tau_ref and every eoc tau must be positive and finite")
    if t_end / tau_ref > 2.0**53:  # past 2^53 steps, k * tau_ref rounds k
        raise ConfigError(f"tau_ref {tau_ref!r} takes more than 2^53 steps to t_end {t_end!r}")
    solver = solver if solver is not None else SolverConfig()
    taus = sorted(taus, reverse=True)
    if any(t <= tau_ref for t in taus):
        raise ConfigError("every coarse tau must exceed tau_ref")
    for coarse, fine in zip(taus, taus[1:]):
        if coarse != 2.0 * fine:
            raise ConfigError(f"eoc_taus do not halve: {coarse!r} is not twice {fine!r}")
    store = tuple(_step_times(taus[-1], t_end))
    for s in store[:-1]:  # every run reaches t_end
        if abs(round(s / tau_ref) * tau_ref - s) > _TIME_ATOL:
            raise ConfigError(f"eoc_taus do not nest: step time {s!r} of the finest tau "
                              f"{taus[-1]!r} is not a step time of tau_ref {tau_ref!r}")
    ref = run(RunConfig(M=M, mode="fixed", tau=tau_ref, t_end=t_end, solver=solver,
                        store_times=store))
    rows = []
    for tau in taus:
        traj = run(RunConfig(M=M, mode="fixed", tau=tau, t_end=t_end, solver=solver,
                             reference=ref))
        err_w, err_gu = traj.err_w, traj.err_gu
        eoc_w, eoc_gu = ((eoc(rows[-1][1], err_w), eoc(rows[-1][3], err_gu)) if rows
                         else (None, None))
        rows.append((tau, err_w, eoc_w, err_gu, eoc_gu))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_csv(os.path.join(out_dir, "eoc.csv"),
                   ["tau", "err_w", "eoc_w", "err_gu", "eoc_gu"], rows)
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
    """One table, LF line ends: strings as given, None as an empty cell, numbers as %.17g."""
    with open(path, "w") as fh:
        for row in (header, *rows):
            fh.write(",".join("" if v is None else v if isinstance(v, str) else _fmt(v)
                              for v in row) + "\n")


def _write_outputs(cfg: RunConfig, traj: Trajectory):
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_csv(os.path.join(cfg.out_dir, "estimator.csv"),
               ["t_j", "tau_j", "alpha_hat", "delta_hat", "int_alpha", "int_delta", "B_j"],
               traj.estimator_rows)
    _write_csv(os.path.join(cfg.out_dir, "controller.csv"),
               ["t_j", "tau_j", "decision", "current_tol", "density", "iterations"],
               traj.controller_rows)
    gr.write_field(os.path.join(cfg.out_dir, "final_u.wmf"), traj.final_u)
    gr.write_field(os.path.join(cfg.out_dir, "final_w.wmf"), traj.final_w)
    with open(os.path.join(cfg.out_dir, "final.txt"), "w") as fh:
        fh.write(f"t={_fmt(traj.final_t)} tau={_fmt(traj.estimator_rows[-1][1])}\n")


def _write_snapshot(out_dir, index, t, tau, u, w, g):
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{index:03d}"
    gr.write_field(os.path.join(out_dir, f"snap_{tag}_u.wmf"), u)
    gr.write_field(os.path.join(out_dir, f"snap_{tag}_w.wmf"), w)
    gr.write_field_csv(os.path.join(out_dir, f"snap_{tag}_u.csv"), u, g)
    with open(os.path.join(out_dir, f"snap_{tag}.txt"), "w") as fh:
        fh.write(f"t={_fmt(t)} tau={_fmt(tau)}\n")
