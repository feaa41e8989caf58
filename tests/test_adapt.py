import math
from dataclasses import fields

import pytest

from wavemaps import EQUIDISTRIBUTE, UPDATED_TOLERANCE, AdaptiveController, SolverConfig, decide
from wavemaps.adapt import GROW
from wavemaps.harness import UNIT_TOL


def make(strategy=EQUIDISTRIBUTE, **kw):
    return AdaptiveController(strategy=strategy, **kw)


def test_forced_halving_on_nonconvergence():
    ctrl = make()
    d = decide(ctrl, 0.01, 0.0, 0.0, fp_converged=False, tol=ctrl.tol0)
    assert not d.accepted
    assert d.tau_next == 0.005
    assert d.tol_next == ctrl.tol0  # no update on reject


def test_zero_density_grows_step():
    ctrl = make(tol0=1e-4, tau_max=2.0**-6)
    d = decide(ctrl, 0.01, 0.0, 5.0, fp_converged=True, tol=ctrl.tol0)
    assert d.accepted
    assert d.tau_next == min(0.01 * GROW, ctrl.tau_max)
    d = decide(ctrl, 2.0**-6, 0.0, 5.0, fp_converged=True, tol=d.tol_next)
    assert d.tau_next == 2.0**-6  # clamped at tau_max


def test_reject_above_tolerance():
    ctrl = make(tol0=1e-4)
    d = decide(ctrl, 0.01, 2e-4, 1.0, fp_converged=True, tol=ctrl.tol0)
    assert not d.accepted and d.tau_next == 0.005


def test_hold_step_inside_safety_band():
    ctrl = make(tol0=1e-4)
    d = decide(ctrl, 0.01, 0.7e-4, 1.0, fp_converged=True, tol=ctrl.tol0)
    assert d.accepted and d.tau_next == 0.01


def test_updated_tolerance_doubles():
    ctrl = make(UPDATED_TOLERANCE, tol0=1e-6)
    tau, delta = 0.01, 2.0 * math.log(2.0) / 0.01
    d = decide(ctrl, tau, 0.0, delta, fp_converged=True, tol=ctrl.tol0)
    assert d.accepted
    assert d.tol_next == pytest.approx(2e-6, rel=1e-13)


def test_equidistribute_tolerance_constant():
    ctrl = make(tol0=1e-4)
    tol = ctrl.tol0
    for k in range(50):
        tol = decide(ctrl, 0.01, (k % 3) * 3e-5, 7.0, fp_converged=True, tol=tol).tol_next
    assert tol == 1e-4


def test_updated_tolerance_matches_accumulated_growth():
    ctrl = make(UPDATED_TOLERANCE, tol0=1e-6)
    acc = 0.0
    tol = ctrl.tol0
    for k in range(40):
        tau = 0.002 * (1 + k % 4)
        delta = 1.0 + 0.1 * k
        d = decide(ctrl, tau, 0.2e-6, delta, fp_converged=True, tol=tol)
        assert d.accepted
        assert d.tol_next >= tol  # nondecreasing
        tol = d.tol_next
        acc += 0.5 * tau * delta
    assert tol == pytest.approx(1e-6 * math.exp(acc), rel=1e-12)


def test_updated_tolerance_saturates_instead_of_overflowing():
    # 0.5 * tau * delta_hat = 1000: exp() of that overflows a float
    ctrl = make(UPDATED_TOLERANCE, tol0=1.0)
    d = decide(ctrl, 0.01, 0.5, 2e5, fp_converged=True, tol=ctrl.tol0)
    assert d.accepted and d.tau_next == 0.01
    assert d.tol_next == math.inf


def test_updated_tolerance_stays_infinite_and_accepts_later_steps():
    ctrl = make(UPDATED_TOLERANCE, tol0=1.0, tau_max=2.0**-6)
    tol = math.inf
    for delta in (10.0, 2e5):
        d = decide(ctrl, 0.01, 1e6, delta, fp_converged=True, tol=tol)
        assert d.accepted and d.tau_next == 0.01 * GROW
        assert d.tol_next == math.inf
        tol = d.tol_next
    # rejections for non-finite rates and failed solves still apply
    assert not decide(ctrl, 0.01, math.inf, 10.0, fp_converged=True, tol=tol).accepted
    assert not decide(ctrl, 0.01, 0.0, 10.0, fp_converged=False, tol=tol).accepted


def test_fixed_strategy_accepts_any_density_and_never_grows():
    # the fixed-step policy: no controller and no tolerance
    for density in (0.0, 1e-3, 1e9):
        d = decide(None, 0.01, density, 5.0, fp_converged=True, tol=None)
        assert d.accepted and d.tau_next == 0.01
        assert d.tol_next is None
    d = decide(None, 0.01, None, None, fp_converged=False, tol=None)
    assert not d.accepted and d.tau_next == 0.005


@pytest.mark.parametrize("strategy", [EQUIDISTRIBUTE, UPDATED_TOLERANCE,
                                      pytest.param(None, id="fixed")])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("which", ["alpha_hat", "delta_hat"])
def test_nonfinite_rates_are_rejected(strategy, bad, which):
    ctrl = None if strategy is None else make(strategy, tol0=1e9)  # None: a fixed run
    tol = None if ctrl is None else ctrl.tol0
    rates = {"alpha_hat": 1e-6, "delta_hat": 1.0, which: bad}
    d = decide(ctrl, 0.01, rates["alpha_hat"], rates["delta_hat"], fp_converged=True, tol=tol)
    assert not d.accepted and d.tau_next == 0.005
    assert d.tol_next == tol


def test_decisions_deterministic():
    seq = [(0.01, 5e-5, 2.0, True), (0.012, 2e-4, 2.0, True),
           (0.006, 3e-5, 2.0, True), (0.0072, 1e-9, 2.0, False)]
    outs = []
    for _ in range(2):
        ctrl = make(UPDATED_TOLERANCE, tol0=1e-4)
        tol, out = ctrl.tol0, []
        for args in seq:
            out.append(decide(ctrl, *args, tol=tol))
            tol = out[-1].tol_next
        outs.append(out)
    assert outs[0] == outs[1]


def test_controller_rejects_nan_tol0():
    # every density compares false against a NaN tolerance, so no step would be rejected
    with pytest.raises(ValueError, match="tol0"):
        AdaptiveController(tol0=math.nan)


def test_controller_validation():
    for strategy in ("nonsense", "fixed"):  # a fixed run takes no controller
        with pytest.raises(ValueError, match="unknown strategy"):
            AdaptiveController(strategy=strategy)
    with pytest.raises(ValueError):
        AdaptiveController(tau_max=0.0)
    with pytest.raises(ValueError):
        AdaptiveController(tol0=0.0)


def test_gains_and_sweep_cap_are_not_settings():
    # adapt.GROW/SHRINK/SAFETY, scheme.FP_MAX_ITER and harness.UNIT_TOL are constants
    with pytest.raises(TypeError):
        AdaptiveController(grow=1.5)
    for key in ("fp_max_iter", "unit_tol"):
        with pytest.raises(TypeError):
            SolverConfig(**{key: 50})
    assert [f.name for f in fields(AdaptiveController)] == ["strategy", "tol0", "tau_max"]
    assert [f.name for f in fields(SolverConfig)] == ["fp_tol"]
    assert UNIT_TOL == 1e-9
