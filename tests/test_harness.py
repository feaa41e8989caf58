import contextlib
import io
import math
import os
import pathlib
import re
import sys
import tempfile
import threading
import time
import tracemalloc
from collections import namedtuple
from dataclasses import FrozenInstanceError, fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavemaps import (EQUIDISTRIBUTE, UPDATED_TOLERANCE, AdaptiveController,
                      ConfigError, EstimatorState, Grid2D, NonConvergence,
                      NonPositiveError, RunConfig, SolverConfig, StepFloor, TimeMismatch,
                      Trajectory, energy_norm_error, eoc, read_field,
                      rotation_data, run, run_eoc_study)
from wavemaps import cli, harness
from wavemaps import grid as gr

from test_scheme import cayley_apply, jacobi_step


def mk_traj(g, states):
    z = np.zeros(g.shape + (3,))
    return Trajectory(grid=g, states=states,
                      est=EstimatorState(), controller_rows=[], estimator_rows=[],
                      energies=[0.0], unit_dev_max=0.0, orth_dev_max=0.0,
                      final_t=states[-1][0] if states else 0.0, final_u=z, final_w=z)


def test_constant_run_has_exactly_zero_estimate():
    cfg = RunConfig(M=8, mode="fixed", tau=0.01, t_end=0.1, initial="constant")
    traj = run(cfg)
    assert traj.est.B_j == 0.0
    assert all(row[2] == 0.0 for row in traj.estimator_rows)  # alpha_hat
    assert traj.energy_drift == 0.0
    assert traj.final_t == pytest.approx(0.1, abs=1e-15)


def test_rotation_run_tracks_cayley_and_reports_positive_alpha():
    tau, n = 0.05, 10
    cfg = RunConfig(M=4, mode="fixed", tau=tau, t_end=tau * n, initial="rotation",
                    solver=SolverConfig(fp_tol=1e-15))
    traj = run(cfg)
    assert traj.n_accepted == n
    u, w = rotation_data(Grid2D(4))
    state = u[0, 0].copy()
    for _ in range(n):
        state = cayley_apply(state, w[0, 0], tau)
    assert np.abs(traj.final_u - state).max() < 1e-12
    assert np.array_equal(traj.final_w, w)
    assert all(row[2] > 0.0 for row in traj.estimator_rows)
    assert traj.unit_dev_max < 1e-13


def test_fixed_run_times_are_exact_dyadic_multiples():
    cfg = RunConfig(M=8, mode="fixed", tau=2.0**-4, t_end=0.2, initial="constant")
    traj = run(cfg)
    # 3 full steps land on k*2^-4, the clamped final step lands on 0.2 exactly
    times = [row[0] for row in traj.estimator_rows]
    assert times[:3] == [2.0**-4, 2.0 * 2.0**-4, 3.0 * 2.0**-4]
    assert times[-1] == 0.2
    assert all(b > a for a, b in zip(times, times[1:]))
    assert traj.final_t >= 0.2 - cfg.tau_min


def test_fixed_run_halves_on_failure_and_never_grows_back(monkeypatch, tmp_path):
    # tau = 1/8 and 1/16 are above the solver's convergence threshold at
    # M = 16, and after three steps at 1/32 the smallness condition fails
    import wavemaps.harness as hz
    failures = []
    real_step, real_smallness = hz.step, hz.check_smallness

    def watched_step(u, w, tau, cfg, g, guess=None):
        try:
            return real_step(u, w, tau, cfg, g, guess)
        except NonConvergence:
            failures.append(("solver", tau))
            raise

    def watched_smallness(lb, tau):
        ok = real_smallness(lb, tau)
        if not ok:
            failures.append(("smallness", tau))
        return ok

    monkeypatch.setattr(hz, "step", watched_step)
    monkeypatch.setattr(hz, "check_smallness", watched_smallness)
    traj = run(RunConfig(M=16, mode="fixed", tau=2.0**-3, t_end=0.3, out_dir=str(tmp_path)))
    assert failures == [("solver", 2.0**-3), ("solver", 2.0**-4), ("smallness", 2.0**-5)]
    assert (traj.n_accepted, traj.n_rejected) == (17, 3)
    # fixed runs record every attempt, like adaptive ones, in controller.csv
    # too: no tolerance, and no density for an attempt that was not evaluated
    decisions = [row[2] for row in traj.controller_rows]
    assert len(decisions) == 20 and decisions.count("reject") == 3
    table = [line.split(",") for line in (tmp_path / "controller.csv").read_text().splitlines()]
    assert table[0] == ["t_j", "tau_j", "decision", "current_tol", "density", "iterations"]
    assert len(table) == 21 and all(row[3] == "" for row in table[1:])
    assert [int(row[5]) for row in table[1:]] == [row[5] for row in traj.controller_rows]
    assert [row[4] for row in table[1:] if row[2] == "reject"] == ["", "", ""]
    assert all(float(row[4]) >= 0.0 for row in table[1:] if row[2] == "accept")
    assert traj.est.log_B == pytest.approx(702.0615168150063, rel=1e-9)
    taus = [row[1] for row in traj.estimator_rows]
    assert taus[:3] == [2.0**-5] * 3
    assert set(taus[3:-1]) == {2.0**-6}
    assert taus[-1] < 2.0**-6  # the final step is clamped to land on t_end
    assert traj.final_t == 0.3


def test_outputs_and_snapshot_roundtrip(tmp_path):
    out = tmp_path / "out"
    cfg = RunConfig(M=8, mode="fixed", tau=0.02, t_end=0.1, initial="problem",
                    out_dir=str(out))
    traj = run(cfg)
    assert b"\r" not in (out / "estimator.csv").read_bytes()  # LF line ends
    est = (out / "estimator.csv").read_text().splitlines()
    assert est[0] == "t_j,tau_j,alpha_hat,delta_hat,int_alpha,int_delta,B_j"
    assert len(est) == 1 + traj.n_accepted
    back = read_field(out / "final_u.wmf")
    assert np.array_equal(back, traj.final_u)
    snaps = sorted(out.glob("snap_*_u.wmf"))
    assert len(snaps) == 8  # default schedule has eight times
    assert (out / "final.txt").read_text().startswith("t=")


def test_snapshot_times_reached_by_one_step_get_their_own_index(tmp_path):
    out = tmp_path / "out"
    cfg = RunConfig(M=8, mode="fixed", tau=0.02, t_end=0.06, initial="constant",
                    out_dir=str(out), snapshot_times=(0.01, 0.015, 0.04))
    run(cfg)
    sidecars = sorted(p.name for p in out.glob("snap_*.txt"))
    assert sidecars == ["snap_000.txt", "snap_001.txt", "snap_002.txt"]
    # the first step reaches 0.01 and 0.015 at once
    times = [float((out / name).read_text().split()[0][2:]) for name in sidecars]
    assert times == [0.02, 0.02, 0.04]


# a fixed M = 8 run with a snapshot at each of its nine step times
_SNAPSHOT_RUN = dict(M=8, mode="fixed", tau=2.0**-6, t_end=2.0**-3,
                     snapshot_times=tuple(k * 2.0**-6 for k in range(9)))


def _snapshot_files(out):
    return {p.name: p.read_bytes() for p in sorted(out.glob("snap_*"))}


def test_snapshot_writer_writes_the_bytes_of_a_serial_write(tmp_path, monkeypatch):
    writers = []
    write_csv = gr.write_field_csv

    def recorded(path, f, g):
        writers.append(threading.current_thread())
        write_csv(path, f, g)

    monkeypatch.setattr(gr, "write_field_csv", recorded)
    before = threading.active_count()
    cfg = RunConfig(**_SNAPSHOT_RUN, out_dir=str(tmp_path / "run"),
                    store_times=_SNAPSHOT_RUN["snapshot_times"])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # frequent switches: a state changed after its handover shows
    try:
        traj = run(cfg)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before  # the writer is joined
    assert len(writers) == 9 and threading.main_thread() not in writers
    assert len(set(writers)) == 1  # one writer thread for the run
    assert len(traj.states) == 9
    for index, (t, u, w) in enumerate(traj.states):
        harness._write_snapshot(str(tmp_path / "serial"), index, t, cfg.tau, u, w, traj.grid)
    assert _snapshot_files(tmp_path / "run") == _snapshot_files(tmp_path / "serial")
    assert len(_snapshot_files(tmp_path / "run")) == 9 * 4


def test_run_without_output_starts_no_thread(monkeypatch, tmp_path):
    class Started(Exception):
        pass

    def no_thread(*args, **kwargs):
        raise Started

    monkeypatch.setattr(threading, "Thread", no_thread)
    assert run(RunConfig(**_SNAPSHOT_RUN)).n_accepted == 8
    with pytest.raises(Started):  # the stub is the one a writer would start
        run(RunConfig(**_SNAPSHOT_RUN, out_dir=str(tmp_path)))


def test_snapshot_write_error_ends_the_run_with_that_error(monkeypatch, tmp_path, capsys):
    raised = []
    write_csv = gr.write_field_csv

    def third_fails(path, f, g):
        if len(raised) == 0 and path.endswith("snap_002_u.csv"):
            raised.append(OSError(28, "No space left on device"))
            raise raised[0]
        write_csv(path, f, g)

    monkeypatch.setattr(gr, "write_field_csv", third_fails)
    before = threading.active_count()
    out = tmp_path / "run"
    with pytest.raises(OSError) as excinfo:
        run(RunConfig(**_SNAPSHOT_RUN, out_dir=str(out)))
    assert excinfo.value is raised[0]
    assert threading.active_count() == before
    # the run stopped at the next snapshot: nothing after the failed one was written
    assert sorted(p.name for p in out.glob("snap_*.txt")) == ["snap_000.txt", "snap_001.txt"]
    assert not (out / "estimator.csv").exists()

    raised.clear()
    rc = cli.main(["--mode", "fixed", "--grid", "8", "--tau", "2^-6", "--tend", "2^-3",
                   "--out", str(tmp_path / "cli")])
    assert rc == 4 and len(raised) == 1
    assert "runtime failure: OSError" in capsys.readouterr().err
    assert threading.active_count() == before


def test_step_loop_failure_waits_for_the_snapshot_in_flight(monkeypatch, tmp_path):
    write_csv = gr.write_field_csv

    def slow(path, f, g):  # keeps a snapshot in flight when the loop fails
        time.sleep(0.05)
        write_csv(path, f, g)

    check = harness._check_constraints
    kept = []

    def fifth_fails(t, u, w, mag_w):
        kept.append(t)
        if len(kept) == 5:
            raise harness.ConstraintViolation(f"at t={t!r}")
        return check(t, u, w, mag_w)

    monkeypatch.setattr(gr, "write_field_csv", slow)
    monkeypatch.setattr(harness, "_check_constraints", fifth_fails)
    before = threading.active_count()
    out = tmp_path / "run"
    with pytest.raises(harness.ConstraintViolation, match="t=0.0625"):
        run(RunConfig(**_SNAPSHOT_RUN, out_dir=str(out)))
    assert threading.active_count() == before
    M = _SNAPSHOT_RUN["M"]
    assert sorted(p.name for p in out.glob("snap_*.txt")) == [
        f"snap_{i:03d}.txt" for i in range(4)]
    for i in range(4):
        assert len((out / f"snap_{i:03d}_u.csv").read_text().splitlines()) == (M + 1) ** 2 + 1
        for part in "uw":
            assert read_field(out / f"snap_{i:03d}_{part}.wmf").shape == (M + 1, M + 1, 3)


def test_store_times_keep_only_states_the_run_lands_on():
    cfg = RunConfig(M=8, mode="fixed", tau=2.0**-5, t_end=2.0**-3, initial="constant",
                    store_times=(0.0, 2.0**-5, 0.05, 2.0**-3))
    traj = run(cfg)
    assert [t for t, _, _ in traj.states] == [0.0, 2.0**-5, 2.0**-3]


def test_reruns_are_bit_identical(tmp_path):
    texts = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = RunConfig(M=8, mode="adaptive", tau=2.0**-8, t_end=0.03,
                        initial="problem", out_dir=str(out),
                        controller=AdaptiveController(tol0=1e-2))
        run(cfg)
        texts.append((out / "estimator.csv").read_bytes()
                     + (out / "controller.csv").read_bytes())
    assert texts[0] == texts[1]


def test_runs_on_other_grids_in_between_leave_a_run_unchanged():
    def rows(M):
        return run(RunConfig(M=M, mode="fixed", tau=2.0**-8, t_end=0.03)).estimator_rows

    first = rows(32)
    rows(16)
    assert rows(32) == first


def test_fp_iterations_record_every_attempt(monkeypatch):
    # the solve fails at tau = 1/8 and 1/16 and converges from 1/32 on
    import wavemaps.harness as hz
    seen = []
    real_step = hz.step

    def watched_step(u, w, tau, cfg, g, guess=None):
        try:
            result = real_step(u, w, tau, cfg, g, guess)
        except NonConvergence as exc:
            seen.append(exc.iterations)
            raise
        seen.append(result[2])
        return result

    monkeypatch.setattr(hz, "step", watched_step)
    traj = run(RunConfig(M=16, mode="fixed", tau=2.0**-3, t_end=0.15))
    sweeps = [row[5] for row in traj.controller_rows]
    assert sweeps == seen
    assert [row[2] for row in traj.controller_rows[:3]] == ["reject", "reject", "accept"]
    assert all(type(n) is int and n >= 1 for n in sweeps)


def test_every_stencil_of_an_attempt_goes_through_the_module_names(monkeypatch):
    # the benchmark's trace patches gr.laplacian and gr.gradient; an accepted
    # fixed attempt runs one Laplacian per sweep, lap u of the new state and
    # lap P, and the gradients of u and w of the new state and of du, dw, P, Q
    counts = {"laplacian": 0, "gradient": 0}

    def counting(name, real):
        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return counted

    for name in counts:
        monkeypatch.setattr(gr, name, counting(name, getattr(gr, name)))
    at_step = []
    real_step = harness.step

    def watched_step(*args, **kwargs):
        at_step.append(dict(counts))
        return real_step(*args, **kwargs)

    monkeypatch.setattr(harness, "step", watched_step)
    traj = run(RunConfig(M=8, mode="fixed", tau=2.0**-6, t_end=2.0**-5))
    assert [row[2] for row in traj.controller_rows] == ["accept", "accept"]
    sweeps = traj.controller_rows[0][5]
    assert at_step[1]["laplacian"] - at_step[0]["laplacian"] == sweeps + 2
    assert at_step[1]["gradient"] - at_step[0]["gradient"] == 6


def test_gauss_seidel_saves_iterations_over_a_run(monkeypatch):
    import wavemaps.harness as hz
    cfg = RunConfig(M=32, mode="fixed", tau=2.0**-9, t_end=0.05)
    gs = run(cfg)
    monkeypatch.setattr(hz, "step", jacobi_step)
    jac = run(cfg)
    assert (gs.n_accepted, gs.n_rejected) == (jac.n_accepted, jac.n_rejected)
    assert gs.est.log_B == pytest.approx(jac.est.log_B, rel=1e-12)
    gs_sweeps, jac_sweeps = (sum(row[5] for row in traj.controller_rows) for traj in (gs, jac))
    assert gs_sweeps <= 0.75 * jac_sweeps


def test_run_starts_each_solve_from_the_extrapolated_last_step(monkeypatch):
    # fixed M = 16 from tau = 1/8: two solver failures before the first
    # accept start cold; after three accepts at 1/32 the smallness condition
    # fails, so the retry at 1/64 extrapolates with r = 1/2, and the clamped
    # last step with r < 1
    import wavemaps.harness as hz
    real_step = hz.step
    calls = []

    def watched_step(u, w, tau, cfg, g, guess=None):
        calls.append((u, w, tau, guess))
        return real_step(u, w, tau, cfg, g, guess)

    monkeypatch.setattr(hz, "step", watched_step)
    traj = run(RunConfig(M=16, mode="fixed", tau=2.0**-3, t_end=0.3))
    decisions = [row[2] for row in traj.controller_rows]
    assert len(calls) == len(decisions) == 20
    last = None  # (u, w, tau) of the last accepted attempt
    ratios = []
    for (u, w, tau, guess), decision in zip(calls, decisions):
        if last is None:
            assert guess is None
        else:
            r = tau / last[2]
            ratios.append(r)
            for x, x_last, x_guess in zip((u, w), last, guess):
                assert x_guess.tobytes() == (x + r * (x - x_last)).tobytes()
        if decision == "accept":
            last = (u, w, tau)
    assert ratios[:3] == [1.0, 1.0, 1.0]  # the third one is rejected
    assert ratios[3] == 0.5 and 0.0 < ratios[-1] < 1.0


def test_warm_start_saves_sweeps_on_the_eoc_reference():
    # the reference of the benchmark's EOC study: 1024 sweeps from cold starts
    traj = run(RunConfig(M=32, mode="fixed", tau=2.0**-13, t_end=2.0**-5))
    assert traj.n_accepted == 256
    assert sum(row[5] for row in traj.controller_rows) <= 800


def test_warm_start_keeps_the_criterion_8_decisions():
    counts = []
    for strategy, tol0 in ((UPDATED_TOLERANCE, 1e-6), (EQUIDISTRIBUTE, math.sqrt(5e-4))):
        ctrl = AdaptiveController(strategy=strategy, tol0=tol0, tau_max=2.0**-9)
        traj = run(RunConfig(M=32, mode="adaptive", tau=2.0**-10, t_end=0.02,
                             controller=ctrl))
        counts.append((traj.n_accepted, traj.n_rejected))
    assert counts == [(805, 9), (69, 2)]


def test_energy_norm_error_of_trajectory_with_itself():
    cfg = RunConfig(M=8, mode="fixed", tau=0.02, t_end=0.08, initial="problem",
                    store_times=(0.0, 0.02, 0.04, 0.06, 0.08))
    traj = run(cfg)
    err_w, err_gu = energy_norm_error(traj, traj)
    assert err_w == 0.0 and err_gu == 0.0


def test_energy_norm_error_constant_momentum_shift():
    g = Grid2D(8)
    rng = np.random.default_rng(12)
    u = gr.constant_field(g, (1, 0, 0))
    w = gr.constant_field(g, (0, 0, 0.5))
    c = 0.125
    ref = mk_traj(g, [(0.0, u, w)])
    coarse = mk_traj(g, [(0.0, u, w + np.array([0.0, 0.0, c]))])
    err_w, err_gu = energy_norm_error(coarse, ref)
    assert err_w == pytest.approx(c, rel=1e-12)
    assert err_gu == 0.0


def test_energy_norm_error_mismatches():
    g8, g16 = Grid2D(8), Grid2D(16)
    u8 = gr.constant_field(g8, (1, 0, 0))
    t8 = mk_traj(g8, [(0.0, u8, 0 * u8)])
    u16 = gr.constant_field(g16, (1, 0, 0))
    t16 = mk_traj(g16, [(0.0, u16, 0 * u16)])
    with pytest.raises(TimeMismatch):
        energy_norm_error(t8, t16)
    other = mk_traj(g8, [(0.37, u8, 0 * u8)])
    with pytest.raises(TimeMismatch):
        energy_norm_error(other, t8)
    empty = mk_traj(g8, [])
    with pytest.raises(TimeMismatch):
        energy_norm_error(empty, t8)


@pytest.mark.parametrize("M, t_end, tau", [
    (16, 2.0**-6, 2.0**-8), (16, 2.0**-4, 2.0**-7),
    (32, 2.0**-5, 2.0**-8), (32, 2.0**-4, 2.0**-7)])
def test_bound_dominates_the_error_at_every_stored_time(M, t_end, tau):
    # reliability: B_j(t_k) >= || (w, grad u)(t_k) - reference ||_L2, with a
    # tau = 2^-13 run standing in for the exact solution
    times = tuple(k * tau for k in range(1, round(t_end / tau) + 1))
    coarse = run(RunConfig(M=M, mode="fixed", tau=tau, t_end=t_end, store_times=times))
    ref = run(RunConfig(M=M, mode="fixed", tau=2.0**-13, t_end=t_end, store_times=times))
    g = coarse.grid
    bound = {row[0]: row[6] for row in coarse.estimator_rows}
    assert [t for t, _, _ in coarse.states] == [t for t, _, _ in ref.states] == list(times)
    for (t, u_c, w_c), (_, u_r, w_r) in zip(coarse.states, ref.states):
        err_w = gr.lp_norm(w_c - w_r, 2.0, g)
        err_gu = math.sqrt(gr.integrate(gr.gradient_sq(u_c - u_r, g), g))
        assert bound[t] >= math.hypot(err_w, err_gu) > 0.0, t


def test_eoc_reference_values():
    assert eoc(4.0 * math.e, math.e) == pytest.approx(2.0, abs=1e-14)
    assert eoc(6.19e-05, 1.28e-05) == pytest.approx(2.27, abs=5e-3)
    assert eoc(2.13e-04, 6.19e-05) == pytest.approx(1.78, abs=5e-3)
    with pytest.raises(NonPositiveError):
        eoc(0.0, 1.0)
    with pytest.raises(NonPositiveError):
        eoc(1.0, -2.0)


def test_small_eoc_study_errors_decrease():
    rows = run_eoc_study(M=8, taus=[2.0**-5, 2.0**-6, 2.0**-7], tau_ref=2.0**-10,
                         t_end=0.1)
    errs_w = [r[1] for r in rows]
    errs_gu = [r[3] for r in rows]
    assert errs_w[0] > errs_w[1] > errs_w[2] > 0.0
    assert errs_gu[0] > errs_gu[1] > errs_gu[2] > 0.0
    for _, _, eoc_w, _, eoc_gu in rows[1:]:
        assert 1.0 < eoc_w < 3.0
        assert 1.0 < eoc_gu < 3.0


def test_eoc_study_rejects_bad_reference(monkeypatch):
    with pytest.raises(ConfigError):
        run_eoc_study(M=8, taus=[2.0**-4], tau_ref=2.0**-4, t_end=0.1)
    with pytest.raises(ConfigError, match="at least one eoc tau"):
        run_eoc_study(M=8, taus=[], tau_ref=2.0**-8, t_end=0.1)
    runs = []
    monkeypatch.setattr(harness, "run", lambda cfg: runs.append(cfg))
    with pytest.raises(ConfigError, match="output directory"):  # before any run
        run_eoc_study(M=8, taus=[2.0**-4], tau_ref=2.0**-8, t_end=0.1, out_dir="")
    with pytest.raises(ConfigError, match="fp_tol"):
        run_eoc_study(M=8, taus=[2.0**-4], tau_ref=2.0**-8, t_end=0.1,
                      solver=SolverConfig(fp_tol=1e-2))
    assert runs == []

    # the step times of t_end = inf never end: the study must stop before them
    def endless(tau, t_end):
        raise AssertionError("step times listed for t_end = inf")

    monkeypatch.setattr(harness, "_step_times", endless)
    with pytest.raises(ConfigError, match="t_end"):
        run_eoc_study(M=8, taus=[2.0**-4], tau_ref=2.0**-8, t_end=math.inf)
    # past 2^53 steps the step times k * tau_ref are inexact, and 5e-324 overflowed
    for tau_ref in (5e-324, 1e-300, 2.0**-57):
        with pytest.raises(ConfigError, match="more than 2"):
            run_eoc_study(M=4, taus=[2.0**-7], tau_ref=tau_ref, t_end=2.0**-3)
    assert runs == []


def test_eoc_study_takes_a_reference_of_2_to_the_53_steps(monkeypatch):
    class Started(Exception):
        pass

    def started(cfg):
        raise Started

    monkeypatch.setattr(harness, "run", started)
    with pytest.raises(Started):  # exact step times: a valid, if long, study
        run_eoc_study(M=4, taus=[2.0**-7], tau_ref=2.0**-56, t_end=2.0**-3)


@pytest.mark.parametrize("study", [
    dict(M=8, taus=[2.0**-5, 2.0**-6, 2.0**-7], tau_ref=2.0**-10, t_end=0.1),
    # acceptance criterion 2
    dict(M=32, taus=[2.0**-7, 2.0**-8, 2.0**-9, 2.0**-10], tau_ref=2.0**-13, t_end=0.2)],
    ids=["M8", "criterion-2"])
def test_eoc_study_errors_equal_those_of_stored_trajectories(monkeypatch, study):
    # each coarse run measures its errors as it steps and stores nothing; a
    # run that stores every step time gives the same errors, bit for bit
    runs = []
    original = harness.run

    def recorded(cfg):
        runs.append((cfg, original(cfg)))
        return runs[-1][1]

    monkeypatch.setattr(harness, "run", recorded)
    rows = run_eoc_study(**study)
    (_, ref), *coarse = runs
    assert [row[0] for row in rows] == [cfg.tau for cfg, _ in coarse]
    for (cfg, traj), row in zip(coarse, rows):
        assert cfg.reference is ref and cfg.store_times == () and traj.states == []
        stored = original(replace(cfg, reference=None,
                                  store_times=tuple(harness._step_times(cfg.tau, cfg.t_end))))
        assert len(stored.states) == traj.n_accepted
        assert energy_norm_error(stored, ref) == (traj.err_w, traj.err_gu) == (row[1], row[3])


def test_reference_run_compares_every_accepted_state():
    ref = run(RunConfig(M=8, tau=2.0**-6, t_end=2.0**-4,
                        store_times=(2.0**-6, 2.0**-5, 3 * 2.0**-6, 2.0**-4)))
    again = run(RunConfig(M=8, tau=2.0**-6, t_end=2.0**-4, reference=ref))
    assert (again.err_w, again.err_gu) == (0.0, 0.0) and again.states == []
    assert (ref.err_w, ref.err_gu) == (None, None)
    # 2^-7 is a step time of the coarse run that the reference did not store
    with pytest.raises(TimeMismatch, match="time 0.0078125 missing"):
        run(RunConfig(M=8, tau=2.0**-7, t_end=2.0**-4, reference=ref))
    with pytest.raises(ConfigError, match="another grid"):
        RunConfig(M=16, tau=2.0**-6, t_end=2.0**-4, reference=ref)
    # at M = 8 the smallness condition rejects tau = 2^-4, so the run steps at
    # 2^-5: its errors are not those of the tau in the row
    with pytest.raises(TimeMismatch, match="time 0.03125 missing"):
        run_eoc_study(M=8, taus=[2.0**-4], tau_ref=2.0**-6, t_end=2.0**-3)


def test_eoc_study_stops_at_a_coarse_run_that_rejected(tmp_path, capsys):
    # at M = 8 the run at 2^-4 rejects its first step and goes on at 2^-5,
    # whose times nest into the reference too: its row would be 2^-5's
    with pytest.raises(TimeMismatch, match="tau 0.0625 rejected 1 step"):
        run_eoc_study(M=8, taus=[2**-4, 2**-5], tau_ref=2**-7, t_end=2**-3)
    # the finest tau ends the same way from inside its run
    for taus, tau_ref, message in (("2^-4,2^-5", "2^-7", "tau 0.0625 rejected"),
                                   ("2^-4", "2^-6", "time 0.03125 missing")):
        cfgfile = tmp_path / "eoc.cfg"
        cfgfile.write_text(f"grid = 8\nmode = eoc\neoc_taus = {taus}\n"
                           f"tau_ref = {tau_ref}\ntend = 2^-3\n")
        assert cli.main(["--config", str(cfgfile)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: TimeMismatch") and message in err


def test_eoc_study_holds_only_the_reference_states():
    # 32 reference states (u and w) and the fields of one run; a study that
    # also kept its coarse states would hold 48 more at once, 2^-8's and 2^-7's
    # (at M = 16 a run at 2^-5 rejects its first step, so the study starts at 2^-6)
    kw = dict(M=16, taus=[2.0**-6, 2.0**-7, 2.0**-8], tau_ref=2.0**-11, t_end=2.0**-3)
    vector_field = 17 * 17 * 3 * 8
    run_eoc_study(**{**kw, "M": 8})  # imports and caches outside the trace
    tracemalloc.start()
    try:
        run_eoc_study(**kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (2 * 32 + 64) * vector_field


def test_adaptive_run_never_attempts_a_step_above_tau_max():
    # the density of a step at 2^-6 lies in [0.4 tol, tol], so the controller
    # would keep it: tau_max must cap the first attempt too
    tau_max = 2.0**-9
    ctrl = AdaptiveController(strategy=EQUIDISTRIBUTE, tol0=50.0, tau_max=tau_max)
    traj = run(RunConfig(M=16, mode="adaptive", tau=2.0**-6, t_end=0.1, controller=ctrl))
    assert traj.n_accepted > 0
    assert all(row[1] <= tau_max for row in traj.controller_rows)


def test_adaptive_run_rejections_do_not_advance_time():
    ctrl = AdaptiveController(tol0=3e-3, tau_max=2.0**-6)
    cfg = RunConfig(M=8, mode="adaptive", tau=2.0**-6, t_end=0.05,
                    initial="problem", controller=ctrl)
    traj = run(cfg)
    assert traj.n_rejected > 0, "expected at least one rejection in this setup"
    rows = traj.controller_rows
    for k, row in enumerate(rows[:-1]):
        if row[2] == "reject":
            assert rows[k + 1][0] == row[0]  # retry starts at the same time
            assert rows[k + 1][1] < row[1]  # with a strictly smaller step
    assert traj.final_t >= 0.05 - cfg.tau_min


def test_smallness_violation_forces_step_reduction(monkeypatch):
    # |omega| = 30 turns u fast: at tau = 0.02 the endpoint difference is
    # too large for the bound evaluation, so the step must be retried even
    # though the nonlinear solve itself converges
    import wavemaps.harness as hz
    monkeypatch.setattr(
        hz, "_initial_state",
        lambda cfg, g: rotation_data(g, omega=(0.0, 0.0, 30.0)))
    ctrl = AdaptiveController(tol0=1e9, tau_max=0.02)
    cfg = RunConfig(M=4, mode="adaptive", tau=0.02, t_end=0.1,
                    initial="rotation", controller=ctrl)
    traj = run(cfg)
    assert traj.n_rejected >= 1
    first = traj.controller_rows[0]
    assert first[2] == "reject" and first[1] == 0.02
    assert all(row[1] < 0.02 for row in traj.estimator_rows)  # never accepted at 0.02
    assert traj.final_t >= 0.1 - cfg.tau_min


def test_adaptive_run_hits_step_floor():
    # the run's tau_min is the floor; the tolerance rejects every attempt
    cfg = RunConfig(M=8, mode="adaptive", tau=2.0**-8, t_end=0.05, tau_min=2.0**-14,
                    initial="problem", controller=AdaptiveController(tol0=1e-12))
    with pytest.raises(StepFloor, match="below tau_min 6.104e-05"):
        run(cfg)


def test_fixed_run_hits_step_floor():
    # the solve fails at tau = 1/8 and 1/16, and the next retry is below tau_min
    cfg = RunConfig(M=16, mode="fixed", tau=2.0**-3, t_end=0.3, tau_min=2.0**-4)
    with pytest.raises(StepFloor, match="retry step 3.125e-02 below tau_min 6.250e-02"):
        run(cfg)


def test_controller_is_a_frozen_policy():
    # the running tolerance is state of the run, never of the shared controller
    cfg = RunConfig(mode="adaptive", controller=AdaptiveController(strategy=UPDATED_TOLERANCE))
    with pytest.raises(FrozenInstanceError):
        cfg.controller.tol0 = 1.0


def test_run_enforces_unit_tol_on_accepted_states(monkeypatch):
    import wavemaps.harness as hz
    real_step = hz.step
    stretch = 1e-8

    def stretched_step(u, w, tau, cfg, g, guess=None):
        u1, w1, it = real_step(u, w, tau, cfg, g, guess)
        return (1.0 + stretch) * u1, w1, it

    monkeypatch.setattr(hz, "step", stretched_step)
    cfg = RunConfig(M=8, mode="fixed", tau=0.02, t_end=0.06, initial="constant")
    with pytest.raises(hz.ConstraintViolation, match="t=0.02"):
        run(cfg)
    # a deviation below UNIT_TOL passes; the stretch compounds over 3 steps
    stretch = 2e-10
    assert 4e-10 < run(cfg).unit_dev_max <= hz.UNIT_TOL


def test_fp_tol_at_unit_tol_keeps_the_constraints():
    # the loosest fp_tol a run takes: the README's fixed command stays far inside UNIT_TOL
    traj = run(RunConfig(M=32, mode="fixed", tau=2.0**-9, t_end=0.2,
                         solver=SolverConfig(fp_tol=harness.UNIT_TOL)))
    assert traj.n_accepted == 103 and traj.unit_dev_max < 1e-10


def test_run_checks_the_initial_state(monkeypatch):
    import wavemaps.harness as hz
    # u . w = 0.1 at every node, far above UNIT_TOL * max(1, |w|)
    monkeypatch.setattr(hz, "_initial_state", lambda cfg, g: (
        gr.constant_field(g, (1, 0, 0)), gr.constant_field(g, (0.1, 1, 0))))
    with pytest.raises(hz.ConstraintViolation, match="t=0.0"):
        run(RunConfig(M=4, mode="fixed", tau=0.01, t_end=0.02))


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(mode="nonsense")
    # fixed mode takes no controller at all, and no controller has a fixed strategy
    with pytest.raises(ValueError, match="unknown strategy"):
        RunConfig(mode="adaptive", controller=AdaptiveController(strategy="fixed"))
    with pytest.raises(ConfigError):
        RunConfig(mode="fixed", controller=AdaptiveController())
    with pytest.raises(ValueError, match="unknown strategy"):
        RunConfig(mode="fixed", controller=AdaptiveController(strategy="fixed"))
    with pytest.raises(ConfigError):
        RunConfig(t_end=-1.0)
    with pytest.raises(ConfigError):
        RunConfig(initial="vortex")
    with pytest.raises(ConfigError):
        RunConfig(tau=0.0)
    for mode in ("fixed", "adaptive"):
        with pytest.raises(ConfigError):  # the run loop would end up stepping by 0
            RunConfig(mode=mode, tau_min=0.0)
    with pytest.raises(ConfigError):
        RunConfig(mode="fixed", tau_min=-1.0)
    with pytest.raises(ConfigError):
        RunConfig(mode="adaptive", tau_min=1.0, controller=AdaptiveController(tau_max=0.5))
    with pytest.raises(ConfigError, match="output directory"):  # no file can be written
        RunConfig(out_dir="")
    # the solve's drift from |u| = 1 grows with fp_tol: at 1e-6 an M = 8 run
    # with tau = 2^-9 leaves UNIT_TOL at t = 0.0176 and would fail mid-run
    with pytest.raises(ConfigError, match="fp_tol must be at most UNIT_TOL"):
        RunConfig(solver=SolverConfig(fp_tol=2.0 * harness.UNIT_TOL))


@pytest.mark.parametrize("key", ["tau", "t_end"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_run_config_rejects_nonfinite_times(key, value):
    # a NaN or infinite step never reaches t_end, and t_end = nan takes no step
    # at all and would report B_N = 0 for an unknown error
    with pytest.raises(ConfigError, match="finite"):
        RunConfig(**{key: value})


@pytest.mark.parametrize("tau_min", [0.2, 1.0, math.inf])
def test_run_config_rejects_tau_min_at_or_above_t_end(tau_min):
    # the step loop runs while t_end - t > tau_min: such a run takes no step
    with pytest.raises(ConfigError, match="tau_min < t_end"):
        RunConfig(t_end=0.2, tau_min=tau_min)


@pytest.mark.parametrize("times", [(0.01, math.nan), (math.inf,)])
def test_run_config_rejects_nonfinite_snapshot_times(times):
    # a NaN breaks the sorted schedule: the snapshot for t = 0.01 would be written at t = 0
    with pytest.raises(ConfigError, match="snapshot times"):
        RunConfig(snapshot_times=times)


@pytest.mark.parametrize("times", [(2.0**-5, math.nan, 2.0**-6, 0.0),
                                   (0.09375, math.nan, 0.03125)])
def test_run_config_rejects_nonfinite_store_times(times):
    # a NaN breaks the sorted schedule: stores on either side of it are dropped
    with pytest.raises(ConfigError, match="store times must be finite"):
        RunConfig(store_times=times)


def test_run_config_rejects_tau_min_above_tau_max():
    with pytest.raises(ConfigError, match="tau_min <= tau_max"):
        RunConfig(mode="adaptive", t_end=1.0, tau_min=0.1,
                  controller=AdaptiveController(tau_max=0.05))


# ---------------------------------------------------------------------------
# command line


def test_cli_fixed_run_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(["--mode", "fixed", "--grid", "8", "--tau", "2^-6",
                   "--tend", "0.05", "--out", str(out)])
    assert rc == 0
    assert (out / "estimator.csv").exists()
    assert "energy drift" in capsys.readouterr().out


def test_cli_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# comment line\n"
        "grid = 8\n"
        "mode = fixed\n"
        "tau = 2^-6\n"
        "tend = 0.03   # overridden below\n"
        "initial = constant\n")
    out = tmp_path / "o"
    rc = cli.main(["--config", str(cfgfile), "--tend", "0.05", "--out", str(out)])
    assert rc == 0
    assert "t=0.05" in (out / "final.txt").read_text()


def test_readme_documents_exactly_the_config_keys():
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [body for lang, body in re.findall(r"^```(\w*)\n(.*?)^```$", text, re.M | re.S)
              if not lang]
    in_block = [line.split("=")[0].strip() for line in blocks[0].splitlines() if "=" in line]
    further = re.findall(r"`(\w+)`", re.search(r"Further keys:(.*?)\.\s", text, re.S).group(1))
    documented = in_block + further
    assert len(documented) == len(set(documented))
    assert set(documented) == set(cli._KEYS)
    # the sentence that says which modes read which keys
    sentence = " ".join(re.search(r"(Every\s+mode reads.*?)so a key", text, re.S).group(1).split())
    readers = {"Every mode reads": {"fixed", "adaptive", "eoc"},
               "fixed and adaptive runs also read": {"fixed", "adaptive"},
               "only adaptive runs": {"adaptive"}, "only eoc runs": {"eoc"}}
    parts = re.split(f"({'|'.join(readers)})", sentence)[1:]
    assert parts[::2] == list(readers)
    modes = {}
    for phrase, clause in zip(parts[::2], parts[1::2]):
        for key in re.findall(r"`(\w+)`", clause):
            modes[key] = readers[phrase]
    assert modes == {key: set(spec.modes) for key, spec in cli._KEYS.items()}


def test_every_config_key_sets_one_dataclass_field():
    owners = [{f.name for f in fields(cls)} for cls in (RunConfig, AdaptiveController, SolverConfig)]
    for key, spec in cli._KEYS.items():
        if key in ("eoc_taus", "tau_ref"):
            assert spec.field is None  # main reads them itself
        else:
            assert sum(spec.field in names for names in owners) == 1, key


def test_cli_step_floor_exit_code(tmp_path):
    cfgfile = tmp_path / "floor.cfg"
    cfgfile.write_text(
        "grid = 8\nmode = adaptive\ntol0 = 1e-12\ntau_min = 2^-14\n"
        "tau = 2^-8\ntend = 0.05\n")
    rc = cli.main(["--config", str(cfgfile)])
    assert rc == 2


def test_cli_runtime_failure_exit_code(monkeypatch, capsys):
    def failing_run(cfg):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "run", failing_run)
    rc = cli.main(["--mode", "fixed", "--grid", "8", "--tend", "0.01"])
    assert rc == 4
    err = capsys.readouterr().err
    assert "runtime failure" in err and "boom" in err and "configuration" not in err


def test_cli_eoc_mode(tmp_path, capsys):
    cfgfile = tmp_path / "eoc.cfg"
    cfgfile.write_text(
        "grid = 8\nmode = eoc\neoc_taus = 2^-4,2^-5\ntau_ref = 2^-8\ntend = 0.05\n")
    out = tmp_path / "e"
    rc = cli.main(["--config", str(cfgfile), "--out", str(out)])
    assert rc == 0
    lines = (out / "eoc.csv").read_text().splitlines()
    assert lines[0] == "tau,err_w,eoc_w,err_gu,eoc_gu"
    assert len(lines) == 3
    assert "eoc_w" in capsys.readouterr().out
    # the CLI's table is the one the study itself writes
    lib = tmp_path / "lib"
    run_eoc_study(M=8, taus=[2.0**-4, 2.0**-5], tau_ref=2.0**-8, t_end=0.05, out_dir=str(lib))
    assert (lib / "eoc.csv").read_bytes() == (out / "eoc.csv").read_bytes()


def test_cli_flags_parse_like_file_values(tmp_path):
    args = cli.build_parser().parse_args(["--mode", "fixed", "--grid", "128", "--tau",
                                          "0.00048828125", "--tend", "0.0125",
                                          "--out", "snapshots"])
    assert args.grid == 128 and type(args.grid) is int
    flags = {"out": "o", "mode": "adaptive", "tau": "2^-9", "grid": "16", "tend": "0.1",
             "strategy": "updated", "tol0": "1e-6"}
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("".join(f"{key} = {value}\n" for key, value in flags.items()))
    argv = [token for key, value in flags.items() for token in (f"--{key}", value)]
    from_flags = cli._merge(cli.build_parser().parse_args(argv))
    from_file = cli.load_config_file(cfgfile)
    assert from_flags == from_file
    assert {key: type(v) for key, v in from_flags.items()} == \
        {key: type(v) for key, v in from_file.items()}


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "--grid" in capsys.readouterr().out


def test_cli_defaults_are_the_dataclass_defaults():
    # a key not given takes its dataclass default in every mode, for every strategy
    assert cli._build_run_config({}) == RunConfig()
    for mode in ("fixed", "adaptive"):
        assert cli._build_run_config({"mode": mode}) == RunConfig(mode=mode)
    for strategy in (EQUIDISTRIBUTE, UPDATED_TOLERANCE):
        assert cli._build_run_config({"mode": "adaptive", "strategy": strategy}) == \
            RunConfig(mode="adaptive", controller=AdaptiveController(strategy=strategy))


def test_cli_dyadic_number_parser():
    assert cli._parse_number("2^-9") == 2.0**-9
    assert cli._parse_number("0.125") == 0.125
    assert cli._parse_number(" 1e-4 ") == 1e-4


# ---------------------------------------------------------------------------
# the configuration contract
#
# Each row is one command line that must exit 3 before any run: its argv, the
# text of the config file bad.cfg that it names (None: no file) and a fragment
# of the error.  Rows are grouped under the test ids they have always had.

_Rejected = namedtuple("_Rejected", "id argv text fragment")
_OUT_OF_RANGE = "t_end, tau_ref and every eoc tau must be positive and finite"
_REJECTED = {
    "test_cli_rejects_unknown_config_key": [
        _Rejected(line, [], f"grid = 8\n{line}\n", f"bad.cfg:2: unknown key '{line.split()[0]}'")
        for line in ["warp_factor = 9", "dump_residuals = 1", "c_q = 1", "p_exp = 3",
                     "b0 = 0.5", "grow = 1.5", "shrink = 0.25", "safety = 0.5",
                     "fp_max_iter = 50", "unit_tol = 1e-7"]],
    "test_cli_rejects_fixed_strategy": [
        _Rejected(None, [], "grid = 8\nmode = adaptive\nstrategy = fixed\ntend = 0.01\n",
                  "unknown strategy 'fixed'")],
    "test_cli_parse_errors_name_the_key_and_the_text": [
        _Rejected("file-text", [], "grid = 8\ntau = abc\n", "bad.cfg:2: tau: cannot parse 'abc'"),
        _Rejected("file-overflow", [], "grid = 8\ntau = 2^2000\n",
                  "bad.cfg:2: tau: cannot parse '2^2000'"),
        _Rejected("flag-text", ["--tau", "abc"], "grid = 8\n\n", "--tau: cannot parse 'abc'")],
    "test_cli_rejects_nonpositive_tau_min": [
        _Rejected(mode, [], f"grid = 8\nmode = {mode}\ntau_min = -1\ntend = 0.01\n",
                  "need 0 < tau_min < t_end") for mode in ["fixed", "adaptive"]],
    "test_cli_rejects_controller_keys_outside_adaptive_mode": [
        _Rejected(mode, [], f"grid = 8\nmode = {mode}\ntend = 0.01\neoc_taus = 2^-7,2^-8\n"
                  "tau_ref = 2^-10\ntol0 = -3\ntau_max = -1\n", f"{mode} mode does not read {unread}")
        for mode, unread in [("fixed", "eoc_taus, tau_max, tau_ref, tol0"),
                             ("eoc", "tau_max, tol0")]],
    "test_cli_eoc_mode_rejects_taus_that_do_not_nest": [
        _Rejected(taus, ["--mode", "eoc", "--grid", "8", "--tend", "0.03"],
                  f"eoc_taus = {taus}\ntau_ref = 2^-12\n", fragment)
        # 0.0015 is no multiple of tau_ref = 2^-12; 2^-7 is not twice 3 * 2^-10
        for taus, fragment in [("0.003,0.0015", "eoc_taus do not nest"),
                               ("2^-7,0.0029296875", "eoc_taus do not halve")]],
    "test_cli_rejects_invalid_configuration_before_any_run": [
        _Rejected(row_id, ["--mode", mode, *flags], f"grid = 8\ntend = 0.03\n{line}\n", fragment)
        for row_id, mode, line, flags, fragment in [
            # keys the chosen mode never reads
            ("fixed-eoc_taus", "fixed", "eoc_taus = 2^-3", [], "fixed mode does not read eoc_taus"),
            ("fixed-tau_ref", "fixed", "tau_ref = 0.3", [], "fixed mode does not read tau_ref"),
            ("adaptive-eoc_taus", "adaptive", "eoc_taus = 2^-7,2^-8", [],
             "adaptive mode does not read eoc_taus"),
            ("eoc-tau_min", "eoc", "tau_min = 0.01", [], "eoc mode does not read tau_min"),
            ("eoc-snapshots", "eoc", "snapshots = 7", [], "eoc mode does not read snapshots"),
            ("eoc-tau", "eoc", "", ["--tau", "0.5"], "eoc mode does not read tau"),
            # an eoc reference step or eoc tau outside (0, inf)
            ("eoc-tau_ref_zero", "eoc", "tau_ref = 0", [], _OUT_OF_RANGE),
            ("eoc-tau_ref_nan", "eoc", "tau_ref = nan", [], _OUT_OF_RANGE),
            # a reference of more than 2^53 steps: its step times are inexact
            ("eoc-tau_ref_subnormal", "eoc", "tau_ref = 5e-324", [],
             "tau_ref 5e-324 takes more than 2^53 steps to t_end 0.03"),
            ("eoc-tau_ref_tiny", "eoc", "tau_ref = 1e-300", [],
             "tau_ref 1e-300 takes more than 2^53 steps to t_end 0.03"),
            ("eoc-tau_nan", "eoc", "eoc_taus = 2^-4,nan", [], _OUT_OF_RANGE),
            ("eoc-tau_inf", "eoc", "eoc_taus = inf,2^-4", [], _OUT_OF_RANGE),
            # eoc taus that do not halve: log2 of an error ratio would be no order
            ("eoc-taus_not_halving", "eoc", "eoc_taus = 2^-5,2^-7,2^-8\ntau_ref = 2^-11", [],
             "eoc_taus do not halve: 0.03125 is not twice 0.0078125"),
            # flags that do not parse or do not exist, and values no run takes
            ("flag-grid_not_int", "fixed", "", ["--grid", "x"], "--grid: cannot parse 'x'"),
            ("flag-mode_unknown", "foo", "", [], "unknown mode 'foo'"),
            ("flag-unknown", "fixed", "", ["--bogus", "1"], "unrecognized arguments: --bogus 1"),
            ("flag-strategy_unknown", "adaptive", "", ["--strategy", "bar"],
             "unknown strategy 'bar'"),
            ("flag-tau_overflow", "fixed", "", ["--tau", "2^2000"],
             "--tau: cannot parse '2^2000'"),
            ("file-tau_overflow", "fixed", "tau = 2^2000", [],
             "bad.cfg:3: tau: cannot parse '2^2000'"),
            # a solve this loose leaves the node constraints mid-run
            ("fixed-fp_tol_above_unit_tol", "fixed", "fp_tol = 1e-6", [],
             "fp_tol must be at most UNIT_TOL = 1e-09"),
            ("eoc-fp_tol_above_unit_tol", "eoc", "fp_tol = 2e-9", [],
             "fp_tol must be at most UNIT_TOL = 1e-09")]],
    # no file can be written to ""
    "test_empty_output_directory_is_a_configuration_error": [
        _Rejected(row_id, [*flags, "--grid", "8", "--tend", "0.03"], text,
                  "the output directory must not be empty")
        for row_id, flags, text in [
            ("fixed-flag", ["--mode", "fixed", "--out", ""], None),
            ("adaptive-flag", ["--mode", "adaptive", "--out", ""], None),
            ("eoc-flag", ["--mode", "eoc", "--out", ""], None),
            ("fixed-file", ["--mode", "fixed"], "out =\n"),
            ("eoc-file", ["--mode", "eoc"], "out = \n")]],
    "test_cli_rejects_nan_tend": [
        _Rejected(mode, ["--mode", mode, "--grid", "8", "--tend", "nan"], None,
                  "t_end must be positive and finite") for mode in ["fixed", "eoc"]],
    "test_cli_eoc_mode_rejects_invalid_run_keys": [
        _Rejected(line, [], f"grid = 8\nmode = eoc\n{line}\n", fragment)
        for line, fragment in [("strategy = nonsense", "eoc mode does not read strategy"),
                               ("tau_min = -1", "eoc mode does not read tau_min"),
                               ("grid = 1", "M must be at least 2")]],
    # constant and rotation data have zero error at every tau, so no study of
    # them has an order; an eoc study runs the problem data alone
    "test_cli_eoc_mode_does_not_read_initial": [
        _Rejected(initial, ["--mode", "eoc", "--grid", "4", "--out", "e"],
                  f"initial = {initial}\neoc_taus = 2^-7,2^-8\n", "eoc mode does not read initial")
        for initial in ["constant", "rotation", "problem"]],
}


def _assert_rejected(row, tmp_path, monkeypatch, capsys):
    """row's command line exits 3 with one error line, starts no run and writes nothing."""
    monkeypatch.chdir(tmp_path)
    runs = []
    for module in (harness, cli):  # fixed and adaptive runs call the name cli imported
        monkeypatch.setattr(module, "run", runs.append)
    argv = row.argv
    if row.text is not None:
        (tmp_path / "bad.cfg").write_text(row.text)
        argv = [*argv, "--config", "bad.cfg"]
    assert cli.main(argv) == 3 and runs == []
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("configuration error: ")
    assert captured.err.count("\n") == 1 and row.fragment in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ([] if row.text is None else ["bad.cfg"])


def _rejection_test(rows):
    if rows[0].id is None:  # a lone row keeps the plain test id it had
        def test(tmp_path, monkeypatch, capsys, row=rows[0]):
            _assert_rejected(row, tmp_path, monkeypatch, capsys)
        return test

    @pytest.mark.parametrize("row", rows, ids=[row.id for row in rows])
    def test(row, tmp_path, monkeypatch, capsys):
        _assert_rejected(row, tmp_path, monkeypatch, capsys)
    return test


for _name, _rows in _REJECTED.items():
    globals()[_name] = _rejection_test(_rows)


# Values drawn for the property below.  Any combination of values from
# _VALID is a configuration the modes that read them run.  _ANY holds
# boundary values and junk, which only some keys take (out = 0 names a
# directory); 5e-324 is a tau_ref of more than 2^53 steps.  Neither draws
# a tiny tau_ref above that bound, a tiny eoc tau above a tiny tau_ref or a
# huge tend: run_eoc_study lists the finest tau's step times before any
# run, so those are slow settings, not configuration errors.
_VALID = {
    "grid": ["2", "8"], "mode": ["fixed", "adaptive", "eoc"], "tend": ["0.02", "2^-3"],
    "out": ["o"], "fp_tol": ["1e-12", "1e-9"], "initial": ["problem", "constant", "rotation"],
    "tau": ["2^-9", "0.5"], "tau_min": ["2^-20", "2^-14"], "snapshots": ["0", "0.01,0.02"],
    "strategy": ["equidistribute", "updated"], "tol0": ["1e-6", "50"],
    "tau_max": ["2^-9", "2^-6"], "eoc_taus": ["2^-4", "2^-5,2^-6"],
    "tau_ref": ["2^-11", "2^-12"],
    "unit_tol": ["1e-9"], "grow": ["1.2"],  # former keys: a line naming one exits 3
}
_ANY = ["0", "-1", "nan", "inf", "2^2000", "1e-6", "5e-324", "", "abc", "2^", "1,,2"]
_FLAGS = set(vars(cli.build_parser().parse_args([]))) - {"config"}


class _RunStarted(Exception):
    pass


@settings(derandomize=True, max_examples=250, deadline=None)
@given(st.data())
def test_cli_exits_3_before_any_run_or_runs_every_given_key(data):
    # mostly keys that the drawn mode reads, as a flag where one exists, and
    # at most one stray key anywhere; three in four values from _VALID
    mode = data.draw(st.sampled_from(_VALID["mode"]))
    read = [key for key in cli._KEYS if mode in cli._KEYS[key].modes and key != "mode"]
    keys = data.draw(st.lists(st.sampled_from(read), unique=True, max_size=5))
    if mode != "fixed" or data.draw(st.booleans()):  # fixed is also the default
        keys.insert(0, "mode")
    stray = data.draw(st.lists(st.sampled_from(sorted(_VALID)), max_size=1))
    drawn = {}  # key -> (text, as a flag, from _VALID)
    for key in dict.fromkeys(keys + stray):
        valid = data.draw(st.integers(0, 3).map(bool))
        values = ([mode] if key == "mode" else _VALID[key]) if valid else _ANY
        flag = data.draw(st.booleans()) and (key in _FLAGS or key in stray)
        drawn[key] = (data.draw(st.sampled_from(values)), flag, valid)
    _assert_exit_3_or_run(drawn)


def test_cli_one_boundary_value_exits_3_or_runs():
    # every key a mode reads, set to each value of _ANY while the others keep
    # their defaults: the property seldom draws one boundary value alone, and
    # its 250 draws never put 5e-324 alone in an eoc tau_ref
    for mode in _VALID["mode"]:
        for key in cli._KEYS:
            if mode in cli._KEYS[key].modes and key != "mode":
                for text in _ANY:
                    _assert_exit_3_or_run({"mode": (mode, False, True), key: (text, False, False)})


def _assert_exit_3_or_run(drawn):
    """The command line of drawn, key -> (text, as a flag, from _VALID), exits 3
    before any run, or starts one run in a mode that reads every given key."""
    argv = [token for key, (text, flag, _) in drawn.items() if flag
            for token in (f"--{key}", text)]
    lines = "".join(f"{key} = {text}\n" for key, (text, flag, _) in drawn.items() if not flag)
    mode = drawn.get("mode", ("fixed",))[0]
    runs = []

    def started(cfg):
        runs.append(cfg)
        raise _RunStarted

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(harness, "run", started), \
            mock.patch.object(cli, "run", started):
        os.chdir(tmp)
        try:
            if lines:
                pathlib.Path("bad.cfg").write_text(lines)
                argv += ["--config", "bad.cfg"]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            written = sorted(os.listdir())
        finally:
            os.chdir(cwd)
    assert written == (["bad.cfg"] if lines else [])
    assert out.getvalue() == "" and "Traceback" not in err.getvalue()
    if rc == 3:
        assert runs == [] and err.getvalue().startswith("configuration error: ")
        assert err.getvalue().count("\n") == 1
        # known keys that the mode reads, flags that exist and valid values: it runs
        assert not all(key in cli._KEYS and mode in cli._KEYS[key].modes
                       and (key in _FLAGS or not flag) and valid
                       for key, (_, flag, valid) in drawn.items()), err.getvalue()
        return
    assert (rc, len(runs)) == (4, 1) and "_RunStarted" in err.getvalue()
    assert all(mode in cli._KEYS[key].modes for key in drawn)
    if mode != "eoc":  # an eoc study's first run is its reference
        cfg = runs[0]
        for key, (text, _, _) in drawn.items():
            field = cli._KEYS[key].field
            owner = next(obj for obj in (cfg, cfg.solver, cfg.controller)
                         if field in {f.name for f in fields(obj)})
            assert getattr(owner, field) == cli._KEYS[key].parse(text), key
