import math
import pathlib
import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from wavemaps import (EQUIDISTRIBUTE, UPDATED_TOLERANCE, AdaptiveController,
                      ConfigError, EstimatorState, Grid2D, NonConvergence,
                      NonPositiveError, RunConfig, SolverConfig, StepFloor, TimeMismatch,
                      Trajectory, energy_norm_error, eoc, read_field,
                      rotation_data, run, run_eoc_study)
from wavemaps import cli
from wavemaps import grid as gr

from test_scheme import cayley_apply, jacobi_step


def mk_traj(g, states):
    z = np.zeros(g.shape + (3,))
    return Trajectory(grid=g, states=states,
                      est=EstimatorState(), controller_rows=[], fp_iterations=[],
                      estimator_rows=[],
                      energies=[0.0], unit_dev_max=0.0, orth_dev_max=0.0,
                      n_accepted=len(states) - 1, n_rejected=0,
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


def test_fixed_run_halves_on_failure_and_never_grows_back(monkeypatch):
    # tau = 1/8 and 1/16 are above the solver's convergence threshold at
    # M = 16, and after three steps at 1/32 the smallness condition fails
    import wavemaps.harness as hz
    failures = []
    real_step, real_smallness = hz.step, hz.check_smallness

    def watched_step(u, w, tau, cfg, g):
        try:
            return real_step(u, w, tau, cfg, g)
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
    traj = run(RunConfig(M=16, mode="fixed", tau=2.0**-3, t_end=0.3))
    assert failures == [("solver", 2.0**-3), ("solver", 2.0**-4), ("smallness", 2.0**-5)]
    assert (traj.n_accepted, traj.n_rejected) == (17, 3)
    # fixed runs record every attempt, like adaptive ones
    decisions = [row[2] for row in traj.controller_rows]
    assert len(decisions) == 20 and decisions.count("reject") == 3
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

    def watched_step(u, w, tau, cfg, g):
        try:
            result = real_step(u, w, tau, cfg, g)
        except NonConvergence as exc:
            seen.append(exc.iterations)
            raise
        seen.append(result[2])
        return result

    monkeypatch.setattr(hz, "step", watched_step)
    traj = run(RunConfig(M=16, mode="fixed", tau=2.0**-3, t_end=0.15))
    assert traj.fp_iterations == seen
    assert len(traj.fp_iterations) == len(traj.controller_rows)
    assert [row[2] for row in traj.controller_rows[:3]] == ["reject", "reject", "accept"]
    assert all(type(n) is int and n >= 1 for n in traj.fp_iterations)


def test_gauss_seidel_saves_iterations_over_a_run(monkeypatch):
    import wavemaps.harness as hz
    cfg = RunConfig(M=32, mode="fixed", tau=2.0**-9, t_end=0.05)
    gs = run(cfg)
    monkeypatch.setattr(hz, "step", jacobi_step)
    jac = run(cfg)
    assert (gs.n_accepted, gs.n_rejected) == (jac.n_accepted, jac.n_rejected)
    assert gs.est.log_B == pytest.approx(jac.est.log_B, rel=1e-12)
    assert sum(gs.fp_iterations) <= 0.75 * sum(jac.fp_iterations)


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


def test_eoc_study_rejects_bad_reference():
    with pytest.raises(ConfigError):
        run_eoc_study(M=8, taus=[2.0**-4], tau_ref=2.0**-4, t_end=0.1)


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

    def stretched_step(u, w, tau, cfg, g):
        u1, w1, it = real_step(u, w, tau, cfg, g)
        return (1.0 + 1e-8) * u1, w1, it

    monkeypatch.setattr(hz, "step", stretched_step)
    cfg = RunConfig(M=8, mode="fixed", tau=0.02, t_end=0.06, initial="constant")
    with pytest.raises(hz.ConstraintViolation, match="t=0.02"):
        run(cfg)
    # the same deviation passes a tolerance above it
    traj = run(RunConfig(M=8, mode="fixed", tau=0.02, t_end=0.06, initial="constant",
                         solver=SolverConfig(unit_tol=1e-7)))
    assert 1e-8 < traj.unit_dev_max <= 1e-7  # the stretch compounds over 3 steps


def test_run_checks_the_initial_state(monkeypatch):
    import wavemaps.harness as hz
    # u . w = 0.1 at every node, far above unit_tol * max(1, |w|)
    monkeypatch.setattr(hz, "_initial_state", lambda cfg, g: (
        gr.constant_field(g, (1, 0, 0)), gr.constant_field(g, (0.1, 1, 0))))
    with pytest.raises(hz.ConstraintViolation, match="t=0.0"):
        run(RunConfig(M=4, mode="fixed", tau=0.01, t_end=0.02))


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(mode="nonsense")
    # the fixed strategy is internal to fixed mode, which takes no controller at all
    with pytest.raises(ConfigError):
        RunConfig(mode="adaptive", controller=AdaptiveController(strategy="fixed"))
    with pytest.raises(ConfigError):
        RunConfig(mode="fixed", controller=AdaptiveController())
    with pytest.raises(ConfigError):
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


@pytest.mark.parametrize("line", ["warp_factor = 9", "dump_residuals = 1"])
def test_cli_rejects_unknown_config_key(tmp_path, capsys, line):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"grid = 8\n{line}\n")
    rc = cli.main(["--config", str(cfgfile)])
    assert rc == 3
    assert "configuration error" in capsys.readouterr().err


def test_readme_documents_exactly_the_config_keys():
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [body for lang, body in re.findall(r"^```(\w*)\n(.*?)^```$", text, re.M | re.S)
              if not lang]
    in_block = [line.split("=")[0].strip() for line in blocks[0].splitlines() if "=" in line]
    further = re.findall(r"`(\w+)`", re.search(r"Further keys:(.*?)\.\s", text, re.S).group(1))
    documented = in_block + further
    assert len(documented) == len(set(documented))
    assert set(documented) == cli._CONFIG_KEYS


def test_cli_step_floor_exit_code(tmp_path):
    cfgfile = tmp_path / "floor.cfg"
    cfgfile.write_text(
        "grid = 8\nmode = adaptive\ntol0 = 1e-12\ntau_min = 2^-14\n"
        "tau = 2^-8\ntend = 0.05\n")
    rc = cli.main(["--config", str(cfgfile)])
    assert rc == 2


def test_cli_rejects_fixed_strategy(tmp_path, capsys):
    cfgfile = tmp_path / "fixed.cfg"
    cfgfile.write_text("grid = 8\nmode = adaptive\nstrategy = fixed\ntend = 0.01\n")
    rc = cli.main(["--config", str(cfgfile)])
    assert rc == 3
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["fixed", "adaptive"])
def test_cli_rejects_nonpositive_tau_min(tmp_path, capsys, mode):
    cfgfile = tmp_path / "floor.cfg"
    cfgfile.write_text(f"grid = 8\nmode = {mode}\ntau_min = -1\ntend = 0.01\n")
    rc = cli.main(["--config", str(cfgfile)])
    assert rc == 3
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["fixed", "eoc"])
def test_cli_rejects_controller_keys_outside_adaptive_mode(tmp_path, capsys, mode):
    cfgfile = tmp_path / "ctrl.cfg"
    cfgfile.write_text(f"grid = 8\nmode = {mode}\ntend = 0.01\neoc_taus = 2^-7,2^-8\n"
                       "tau_ref = 2^-10\ntol0 = -3\ngrow = 0.5\ntau_max = -1\n")
    rc = cli.main(["--config", str(cfgfile)])
    assert rc == 3
    captured = capsys.readouterr()
    assert "grow, tau_max, tol0" in captured.err and captured.out == ""


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


@pytest.mark.parametrize("line", ["strategy = nonsense", "tau_min = -1", "b0 = -5"])
def test_cli_eoc_mode_rejects_invalid_run_keys(tmp_path, capsys, line):
    cfgfile = tmp_path / "eoc.cfg"
    cfgfile.write_text(f"grid = 8\nmode = eoc\n{line}\n")
    rc = cli.main(["--config", str(cfgfile)])
    assert rc == 3
    captured = capsys.readouterr()
    assert "configuration error" in captured.err and captured.out == ""


def test_cli_defaults_are_the_dataclass_defaults():
    assert cli._build_run_config({}) == RunConfig()
    assert cli._build_run_config({"mode": "adaptive"}) == RunConfig(mode="adaptive",
                                                                    tau=2.0**-10)
    # the two defaults only the command line sets
    updated = cli._build_run_config({"mode": "adaptive", "strategy": "updated"})
    assert updated.controller == AdaptiveController(strategy="updated", tol0=1e-6)
    assert updated.tau == 2.0**-10


def test_cli_dyadic_number_parser():
    assert cli._parse_number("2^-9") == 2.0**-9
    assert cli._parse_number("0.125") == 0.125
    assert cli._parse_number(" 1e-4 ") == 1e-4
