import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wavemaps import (EstimatorState, Grid2D, LocalBounds, SmallnessViolated,
                      SolverConfig, StepRecord, accumulate, alpha_hat,
                      check_smallness, delta_hat, local_quantities,
                      residual_bounds, step)
from wavemaps import grid as gr
from wavemaps import harness
from wavemaps.scheme import endpoint_terms

from conftest import (KAPPA, dominance_violations, random_state, record_suite,
                      scheme_record)

RNG = np.random.default_rng(1234)
G = Grid2D(16)
CFG = SolverConfig()


def const_bounds(g, **values):
    """LocalBounds with constant fields; unspecified entries are zero."""
    fields = {f.name: np.full(g.shape, values.get(f.name, 0.0))
              for f in dataclasses.fields(LocalBounds)}
    return LocalBounds(**fields)


def test_local_quantities_time_constant_record():
    u = gr.constant_field(G, (1, 0, 0))
    w = gr.constant_field(G, (0, 0.6, 0.0))
    rec = StepRecord(grid=G, t_n=0.0, t_np1=0.1, u_n=u, u_np1=u.copy(),
                     w_n=w, w_np1=w.copy())
    lb = local_quantities(rec, G)
    for name in ("A_u", "A_u_x", "A_u_xx", "A_w", "A_w_x",
                 "B_u", "B_u_x", "B_u_xx", "B_w", "B_w_x"):
        assert np.abs(getattr(lb, name)).max() == 0.0
    assert np.abs(lb.C_w - 0.6).max() < 1e-15


def assert_same_local_bounds(a, b):
    for f in dataclasses.fields(LocalBounds):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), f.name


def test_local_quantities_from_given_endpoint_terms_is_bitwise_equal():
    # the next record starts from the terms the previous one ended with
    prev = scheme_record(G, RNG, 0.01, CFG)
    u2, w2, _ = step(prev.u_np1, prev.w_np1, 0.01, CFG, G)
    rec = StepRecord(grid=G, t_n=prev.t_np1, t_np1=prev.t_np1 + 0.01, u_n=prev.u_np1,
                     u_np1=u2, w_n=prev.w_np1, w_np1=w2,
                     ends=(prev.ends[1], endpoint_terms(u2, w2, G)))
    lb = local_quantities(rec, G)
    assert_same_local_bounds(lb, local_quantities(dataclasses.replace(rec, ends=None), G))
    mag, grad = gr.magnitude, gr.grad_magnitude
    lap_n, lap_np1 = gr.laplacian(rec.u_n, G), gr.laplacian(rec.u_np1, G)
    P = gr.cross(rec.u_np1, rec.w_np1) - gr.cross(rec.u_n, rec.w_n)
    Q = gr.cross(lap_np1, rec.u_np1) - gr.cross(lap_n, rec.u_n)
    want = {
        "B_u": mag(P), "B_w": mag(Q),
        "C_w": np.maximum(mag(rec.w_n), mag(rec.w_np1)),
        "C_u_x": np.maximum(grad(rec.u_n, G), grad(rec.u_np1, G)),
        "C_w_x": np.maximum(grad(rec.w_n, G), grad(rec.w_np1, G)),
        "C_u_xx": np.maximum(mag(lap_n), mag(lap_np1)),
    }
    for name, value in want.items():
        assert getattr(lb, name).tobytes() == value.tobytes(), name


def test_run_carries_endpoint_terms_bitwise_equal_to_fresh_ones(monkeypatch):
    seen, ends = [], []

    def checked(rec, g):
        lb = local_quantities(rec, g)
        fresh = dataclasses.replace(rec, ends=None)
        assert_same_local_bounds(lb, local_quantities(fresh, g))
        seen.append(rec.t_n)
        ends.append(rec.ends)
        return lb

    monkeypatch.setattr(harness, "local_quantities", checked)
    tau = 2.0**-8
    traj = harness.run(harness.RunConfig(M=16, mode="fixed", tau=tau, t_end=5 * tau))
    assert seen == [k * tau for k in range(5)]
    assert traj.n_accepted == 5
    # each record starts from the very terms object the previous one ended with
    for k in range(1, len(ends)):
        assert ends[k][0] is ends[k - 1][1], k


def test_local_quantities_elementary_bounds():
    rec = scheme_record(G, RNG, 0.01, CFG)
    lb = local_quantities(rec, G)
    assert np.all(lb.A_u <= 2.0 + 1e-12)  # unit endpoints
    # bilinearity of the cross product
    assert np.all(lb.B_u <= lb.A_u * lb.C_w + lb.A_w + 1e-12)
    for f in dataclasses.fields(LocalBounds):
        assert np.all(getattr(lb, f.name) >= 0.0)


def test_check_smallness_arithmetic():
    assert check_smallness(const_bounds(G), 0.1)
    assert not check_smallness(const_bounds(G, A_u=0.6), 0.1)
    assert check_smallness(const_bounds(G, A_u=0.2, B_u=2.0), 0.1)  # 0.04+0.2<0.25
    assert not check_smallness(const_bounds(G, A_u=0.2, B_u=2.1), 0.1)


def test_residual_bounds_zero_for_time_constant():
    rbf = residual_bounds(const_bounds(G, C_w=0.7, C_u_x=1.0, C_u_xx=2.0), 0.1)
    for f in dataclasses.fields(rbf):
        assert np.abs(getattr(rbf, f.name)).max() == 0.0


def test_residual_bounds_closed_form_substitution():
    a, b = 0.11, 0.23
    rbf = residual_bounds(const_bounds(G, A_u=a, A_w=b), 0.05)
    assert np.allclose(rbf.bd_ru1, a * b / 4, rtol=1e-14)
    assert np.allclose(rbf.bd_ru2, a * b / 4, rtol=1e-14)
    assert np.allclose(rbf.bd_ru3, (a * b / 4) * (4.0 / 3.0) * a**2 + 8 * a * b,
                       rtol=1e-14)
    assert np.allclose(rbf.bd_rg, (a * b) ** 2, rtol=1e-14)
    assert np.allclose(rbf.bd_ru, rbf.bd_ru1 + rbf.bd_ru2 + rbf.bd_ru3, rtol=0)


def test_residual_bounds_requires_smallness():
    with pytest.raises(SmallnessViolated):
        residual_bounds(const_bounds(G, A_u=0.6), 0.1)


def test_alpha_hat_trivial_values():
    lb = const_bounds(G)
    rbf = residual_bounds(lb, 0.1)
    assert alpha_hat(rbf, lb, 0.1, G) == 0.0
    g0 = 0.37
    rbf2 = dataclasses.replace(rbf, bd_rg=np.full(G.shape, g0))
    assert abs(alpha_hat(rbf2, lb, 0.1, G) - g0) < 1e-13


def test_delta_hat_trivial_and_constant_values():
    assert abs(delta_hat(const_bounds(G), 0.1, G) - 1.0) < 1e-14
    # W == 1, G == 0: 1 + C_Q |W^2|_p + 2 C_Q |W|_2p^2 + 0 + 4 |W|_inf = 17 with C_Q = 4
    lb = const_bounds(G, C_w=1.0)
    assert abs(delta_hat(lb, 0.1, G) - 17.0) < 1e-12


def test_bound_monotonicity_in_local_quantities():
    rec = scheme_record(G, RNG, 0.01, CFG)
    tau = rec.tau
    lb = local_quantities(rec, G)
    rbf0 = residual_bounds(lb, tau)
    a0 = alpha_hat(rbf0, lb, tau, G)
    d0 = delta_hat(lb, tau, G)
    for f in dataclasses.fields(LocalBounds):
        bumped = dataclasses.replace(lb, **{f.name: getattr(lb, f.name) * 1.3 + 0.01})
        if not check_smallness(bumped, tau):
            continue
        rbf1 = residual_bounds(bumped, tau)
        for bf in dataclasses.fields(rbf1):
            assert np.all(getattr(rbf1, bf.name) >= getattr(rbf0, bf.name) - 1e-15), \
                f"{bf.name} decreased when {f.name} grew"
        assert alpha_hat(rbf1, bumped, tau, G) >= a0 - 1e-13
        assert delta_hat(bumped, tau, G) >= d0 - 1e-13


def test_halving_tau_halves_differences_and_quarters_alpha():
    rng = np.random.default_rng(77)
    u0, w0 = random_state(G, rng)
    tau = 0.01
    recs = {}
    for t in (tau, tau / 2):
        u1, w1, _ = step(u0, w0, t, CFG, G)
        recs[t] = StepRecord(grid=G, t_n=0.0, t_np1=t, u_n=u0, u_np1=u1,
                             w_n=w0, w_np1=w1)
    lb_c = local_quantities(recs[tau], G)
    lb_f = local_quantities(recs[tau / 2], G)
    for name in ("A_u", "A_w", "B_u", "B_w"):
        coarse = getattr(lb_c, name)
        fine = getattr(lb_f, name)
        mask = coarse > 1e-3 * coarse.max()
        ratio = fine[mask] / coarse[mask]
        assert 0.35 < np.median(ratio) < 0.65
    a_c = alpha_hat(residual_bounds(lb_c, tau), lb_c, tau, G)
    a_f = alpha_hat(residual_bounds(lb_f, tau / 2), lb_f, tau / 2, G)
    assert 3.0 < a_c / a_f < 5.0


def test_dominance_on_sampled_records():
    # small version of the acceptance suite
    for rec in record_suite(20, seed=555):
        lb = local_quantities(rec, rec.grid)
        rbf = residual_bounds(lb, rec.tau)
        worst, rel = dominance_violations(rec, rbf)
        for name in ("ru1", "ru2", "ru3", "rg"):
            assert rel[name] <= 0.0, f"{name} violated relative slack: {rel[name]}"
        slack = KAPPA * rec.grid.h
        for name in ("rw", "grad_ru1", "grad_ru2", "grad_ru3"):
            assert worst[name] <= slack, f"{name} violated kappa*h: {worst[name]}"


def test_accumulate_recurrence_and_unrolled_sum():
    st = EstimatorState()
    accumulate(st, 0.5, 0.2)
    assert abs(st.B_j - 0.5 * math.exp(0.1)) < 1e-16
    accumulate(st, 0.25, 0.6)
    expected = 0.5 * math.exp(0.4) + 0.25 * math.exp(0.3)
    assert abs(st.B_j - expected) < 1e-15
    assert abs(st.A_total - 0.75) < 1e-16
    assert abs(st.D_total - 0.8) < 1e-16
    assert abs(math.exp(st.log_B) - st.B_j) < 1e-13


def test_accumulate_zero_alpha_pure_growth():
    st = EstimatorState(b0=2.0)
    for d in (0.5, 0.25, 0.25):
        accumulate(st, 0.0, d)
    assert abs(st.B_j - 2.0 * math.exp(0.5)) < 1e-14
    assert st.log_B == pytest.approx(math.log(2.0) + 0.5, abs=1e-13)


def test_accumulate_monotone_and_permutation_invariant():
    st = EstimatorState()
    prev = 0.0
    for _ in range(30):
        accumulate(st, 0.1, 0.05)
        assert st.B_j >= prev
        prev = st.B_j
    # equal pairs: order cannot matter
    st2 = EstimatorState()
    for _ in range(30):
        accumulate(st2, 0.1, 0.05)
    assert st.B_j == st2.B_j


def test_accumulate_rejects_negative_inputs():
    st = EstimatorState()
    with pytest.raises(ValueError):
        accumulate(st, -1.0, 0.0)
    with pytest.raises(ValueError):
        accumulate(st, 0.0, -1.0)


@pytest.mark.parametrize("args", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)])
def test_accumulate_rejects_nan(args):
    state = EstimatorState(b0=1.0)
    with pytest.raises(ValueError):
        accumulate(state, *args)
    assert (state.B_j, state.log_B) == (1.0, 0.0)


_integral = st.one_of(st.just(0.0), st.floats(0.0, 3000.0))


@given(b0=st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
       steps=st.lists(st.tuples(_integral, _integral), max_size=20))
@example(b0=5e-324, steps=[(0.0, 1.0)])  # B_j rounds to the subnormal 1e-323
def test_accumulate_log_b_consistent_with_b_j(b0, steps):
    state = EstimatorState(b0=b0)
    for int_alpha, int_delta in steps:
        accumulate(state, int_alpha, int_delta)
        assert not math.isnan(state.B_j) and not math.isnan(state.log_B)
        assert (state.log_B == -math.inf) == (state.B_j == 0.0)
        if sys.float_info.min <= state.B_j < math.inf:
            assert state.log_B == pytest.approx(math.log(state.B_j), rel=1e-12, abs=1e-9)
        elif 0.0 < state.B_j < math.inf:
            # a subnormal B_j has too few bits for a relative log check;
            # log_B must still round to it
            assert abs(math.exp(state.log_B) - state.B_j) <= 1e-12 * state.B_j + 2.0**-1074


def test_accumulate_survives_overflowing_growth():
    st = EstimatorState()
    accumulate(st, 1.0, 3000.0)  # exp(1500) overflows the linear scale
    assert math.isinf(st.B_j)
    assert st.log_B == pytest.approx(1500.0)
