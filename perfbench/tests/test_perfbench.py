"""Tests of the benchmark itself.

Run from the root of a checkout: python3 -m pytest -q perfbench/tests
The metric-coverage test runs every workload, ``audit-records`` too, once
in each mode (about a minute on a 2-core machine).
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402

bench.load_package()

import records  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from wavemaps import (UPDATED_TOLERANCE, AdaptiveController, RunConfig,  # noqa: E402
                      estimator, harness, reconstruct, scheme)
from wavemaps import grid as gr  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.BENCHMARKED)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == \
        tracing.LAYER_METRICS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_json_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v) for v in metrics.values())
    if trace:
        assert (metrics["reconstruct.eval_residuals.calls"] > 0) == (workload == "audit-records")
        rejects = sum(metrics[f"adapt.reject.{k}"] for k in ("solver", "smallness", "tolerance"))
        assert (rejects > 0) == (workload == "adaptive-pair-m32")
    else:
        assert all(v > 0 for v in metrics.values())


def test_fastest_total_takes_each_piece_from_its_fastest_repetition():
    assert bench.pieces(1.0, [1.5, 3.0], 3.25) == [0.5, 1.5, 0.25]
    reps = [[0.5, 1.5, 0.25], [0.75, 1.0, 0.5], [0.25, 2.0, 0.5], [0.125]]
    assert bench.fastest_total(reps) == 0.25 + 1.0 + 0.25


def test_host_speed_scales_by_its_fastest_pieces():
    speed = bench.HostSpeed()
    speed.sample()
    assert len(speed.units) == 1 and len(speed.units[0]) == bench.CALIBRATION_PIECES
    speed.units = [[0.25, 0.5], [0.5, 0.25]]
    assert speed.seconds() == 0.5
    assert speed.factor() == bench.CALIBRATION_REFERENCE_S / 0.5


def test_step_clock_stamps_every_attempt_and_restores():
    original = harness.step
    with bench.StepClock() as clock:
        traj = harness.run(RunConfig(M=8, mode="fixed", tau=2.0**-8, t_end=2.0**-6))
    assert harness.step is original
    assert len(clock.stamps) == traj.n_accepted + traj.n_rejected == 4
    assert clock.stamps == sorted(clock.stamps)


def _eoc_repetition():
    raw = workloads.execute("eoc-m32", None, None)
    assert raw[2] is None
    return raw


def test_corrupted_reference_is_a_failure():
    with open(bench.REFERENCE) as fh:
        ref = json.load(fh)["eoc-m32"]
    raw = _eoc_repetition()
    good = workloads.check("eoc-m32", raw, ref, None)
    assert good.failures == [] and good.failed_ops == 0 and good.ops > 0

    wrong_log_b = json.loads(json.dumps(ref))
    label = f"tau={workloads.UNITS['eoc-m32']['tau_ref']!r}"
    wrong_log_b[label]["log_B"] *= 1.0 + 1e-6
    bad = workloads.check("eoc-m32", raw, wrong_log_b, None)
    assert bad.failed_ops == ref[label]["n_accepted"] + ref[label]["n_rejected"]
    assert any("log_B" in msg for msg in bad.failures)

    wrong_count = json.loads(json.dumps(ref))
    wrong_count[label]["n_accepted"] += 1
    bad = workloads.check("eoc-m32", raw, wrong_count, None)
    assert bad.failed_ops > 0 and any("n_accepted" in msg for msg in bad.failures)


def test_bound_defects_are_failures():
    ref = {"n_accepted": 3, "n_rejected": 0, "log_B": 1.5}
    ok = {"n_accepted": 3, "n_rejected": 0, "log_B": 1.5, "B_j": math.exp(1.5),
          "energy_drift": 1e-16, "unit_dev_max": 1e-16, "nonfinite_rates": 0}
    assert workloads.check_trajectory(ok, ref) == []
    for change in ({"nonfinite_rates": 1}, {"B_j": math.inf},
                   {"log_B": -math.inf}, {"energy_drift": 2e-9},
                   {"unit_dev_max": math.nan}, {"n_rejected": 1}):
        assert workloads.check_trajectory({**ok, **change}, ref), change
    # log_B = -inf is right only next to a zero bound
    zero = {**ok, "log_B": -math.inf, "B_j": 0.0}
    assert workloads.check_trajectory(zero, {**ref, "log_B": -math.inf}) == []
    assert workloads.check_trajectory({**zero, "B_j": 1e-300},
                                      {**ref, "log_B": -math.inf})


def test_eoc_window():
    rows = [(0.1, 1.0, None, 1.0, None), (0.05, 0.25, 2.0, 0.25, 2.0),
            (0.025, 0.07, 1.84, 0.0625, 2.0)]
    assert workloads.eoc_failures(rows) == []
    assert workloads.eoc_failures(rows[:2] + [(0.025, 0.1, 1.3, 0.0625, 2.0)])
    assert workloads.eoc_failures(rows[:2] + [(0.025, 0.1, 1.7, 0.0625, 2.0)])


def test_tracer_restores_patches_and_classifies_rejects():
    originals = {(m, a): getattr(m, a) for m, a in [
        (harness, "run"), (harness, "step"), (harness, "decide"), (gr, "laplacian"),
        (gr, "write_field"), (scheme, "step"), (estimator, "residual_bounds"),
        (reconstruct, "eval_residuals")]}
    ctrl = AdaptiveController(strategy=UPDATED_TOLERANCE, tol0=1e-6, tau_max=2.0**-9)
    cfg = RunConfig(M=8, mode="adaptive", tau=2.0**-8, t_end=2.0**-12, controller=ctrl)
    with tracing.Tracer() as tr:
        traj = harness.run(cfg)
    for (module, attr), fn in originals.items():
        assert getattr(module, attr) is fn
    m = tr.layer_metrics(1.0)
    assert traj.n_rejected > 0
    assert m["adapt.reject.tolerance"] == traj.n_rejected
    assert m["scheme.step.calls"] == m["adapt.decide.calls"] == \
        traj.n_accepted + traj.n_rejected
    assert m["adapt.accept_ratio"] == traj.n_accepted / (traj.n_accepted + traj.n_rejected)
    calls, incl, excl = tr.totals()
    assert calls["harness.run"] == 1
    assert all(0.0 <= excl[n] <= incl[n] + 1e-12 for n in calls)
    assert sum(excl.values()) == pytest.approx(incl["harness.run"], rel=1e-9)


def test_audit_inputs_follow_the_seed():
    a, b, c = (records.draw_inputs(seed, per_size=2) for seed in (5, 5, 6))
    assert [x.tau for x in a] == [x.tau for x in b]
    assert all((x.u0 == y.u0).all() for x, y in zip(a, b))
    assert [x.tau for x in a] != [x.tau for x in c]
    assert sorted(x.grid.M for x in a) == sorted(records.SIZES * 2)


def test_audit_counts_records_whose_bound_fails(monkeypatch):
    inputs = records.audit_inputs(7, per_size=1)
    clean = workloads.check_audit(workloads.run_audit(inputs))
    original = estimator.residual_bounds

    def halved(lb, tau):
        rbf = original(lb, tau)
        return type(rbf)(**{k: 0.5 * v for k, v in vars(rbf).items()})

    monkeypatch.setattr(estimator, "residual_bounds", halved)
    outcome = workloads.check_audit(workloads.run_audit(inputs))
    assert outcome.ops == len(inputs) and outcome.failed_ops > clean.failed_ops
