import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wavemaps import (EstimatorState, Grid2D, LocalBounds, RunConfig, SmallnessViolated,
                      SolverConfig, StepRecord, accumulate, alpha_hat,
                      check_smallness, constant_data, delta_hat, eval_residuals,
                      initial_data, local_quantities, residual_bounds, rotation_data,
                      run, step)
from wavemaps import grid as gr
from wavemaps import harness
from wavemaps.estimator import C_Q, P_EXP, ResidualBoundFields
from wavemaps.scheme import energy

from conftest import (GRAD_PART_NAMES, KAPPA, POINT_PART_NAMES, SAMPLE_FRACS,
                      dominance_violations, pow_lp_norm, random_state, record_suite,
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


# Reference implementations of the in-place layers: one expression per
# bound and per norm.  residual_bounds shares repeated products and sums in
# place, and alpha_hat and delta_hat reduce in place; each must reproduce
# its reference bit for bit.


def ref_residual_bounds(lb, tau):
    A_u, A_u_x, A_u_xx = lb.A_u, lb.A_u_x, lb.A_u_xx
    A_w, A_w_x = lb.A_w, lb.A_w_x
    B_u, B_u_x, B_u_xx = lb.B_u, lb.B_u_x, lb.B_u_xx
    B_w, B_w_x = lb.B_w, lb.B_w_x
    C_w, C_u_x, C_w_x, C_u_xx = lb.C_w, lb.C_u_x, lb.C_w_x, lb.C_u_xx

    A_u2 = A_u**2
    tB_u = tau * B_u
    tB_u_x = tau * B_u_x
    tB_w = tau * B_w
    if not np.all(A_u2 + tB_u < 0.25):
        raise SmallnessViolated("A_u^2 + tau*B_u >= 1/4 at some node")

    bd_ru1 = tB_w + C_w * A_u2 + C_w * tau * B_u + 0.25 * A_u * A_w

    bd_grad_ru1 = (
        (C_u_x + tB_u_x) * (tB_w + C_w * A_u2)
        + tau * B_w_x
        + C_w * (A_u_x * A_u + tB_u_x + C_u_x * tau * B_u + tau**2 * B_u * B_u_x)
        + A_u2 * C_w_x
        + tB_u_x * C_w
        + tB_u * C_w_x
        + A_u_x * A_w
        + A_u * A_w_x
    )

    bd_ru2 = 0.25 * A_u * A_w
    bd_grad_ru2 = 0.25 * (A_u_x * A_w + A_u * A_w_x)

    proj_defect = (4.0 / 3.0) * A_u2 + (8.0 / 3.0) * tau * B_u
    bd_ru3 = (
        (C_w + 0.25 * A_u * A_w) * proj_defect
        + 4.0 * A_u * A_w * (2.0 + tB_u)
        + 4.0 * C_w * tau * B_u
    )

    norm_grad = A_u_x * A_u + tB_u_x + C_u_x * tau * B_u + tau**2 * B_u_x * B_u
    bd_grad_ru3 = (
        (C_u_x * C_w + C_w_x + 0.25 * A_u_x * A_w + 0.25 * A_u * A_w_x) * proj_defect
        + 1.5 * A_u_x * A_w
        + 2.0 * A_u * C_u_x * A_w
        + 1.5 * A_u * A_w_x
        + (C_u_x * C_w + C_w_x) * tau * B_u
        + C_w * tau * B_u_x
        + 8.0 * (C_w + 0.25 * A_u * A_w) * norm_grad
    )

    bd_rw = (
        (C_u_xx + tau * B_u_xx) * ((7.0 / 3.0) * A_u2 + (11.0 / 3.0) * tau * B_u)
        + 2.25 * A_u_xx * A_u
        + A_u_x**2
        + 2.0
        * (C_u_x + tB_u_x)
        * (A_u_x * A_u + tB_u_x + (1.0 + C_u_x) * tau * B_u + tau**2 * B_u_x * B_u)
    )

    S = tB_w + C_w * (A_u2 + tB_u) + A_u * A_w
    bd_rg = (C_w + tB_w) * S + S**2

    # the majorants W >= |wtilde| and G >= |grad utilde|
    W = C_w + tau * B_w
    G = 2.0 * (C_u_x + tau * B_u_x)

    return ResidualBoundFields(
        bd_ru1=bd_ru1,
        bd_grad_ru1=bd_grad_ru1,
        bd_ru2=bd_ru2,
        bd_grad_ru2=bd_grad_ru2,
        bd_ru3=bd_ru3,
        bd_grad_ru3=bd_grad_ru3,
        bd_rw=bd_rw,
        bd_rg=bd_rg,
        W=W,
        G=G,
    )


def assert_fields_bitwise_equal(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), f.name


@pytest.mark.parametrize("M", (8, 32, 128))
@pytest.mark.parametrize("data", (initial_data, constant_data, rotation_data))
@pytest.mark.parametrize("tau_per_h", (1.0 / 16.0, 0.25, 0.3))
def test_estimator_layers_match_reference_bitwise(M, data, tau_per_h):
    # tau = 0.3 h is no power of two, so products that differ only in where
    # tau enters round differently and a reassociation shows
    g = Grid2D(M)
    tau = tau_per_h * g.h
    u, w = data(g)
    for _ in range(2):  # away from w = 0, so that every term is nonzero
        u, w, _ = step(u, w, tau, CFG, g)
    u1, w1, _ = step(u, w, tau, CFG, g)
    rec = StepRecord(grid=g, t_n=0.0, t_np1=tau, u_n=u, u_np1=u1, w_n=w, w_np1=w1)
    lb = local_quantities(rec, g)
    try:
        want = ref_residual_bounds(lb, tau)
    except SmallnessViolated:
        with pytest.raises(SmallnessViolated):
            residual_bounds(lb, tau)
    else:
        assert_fields_bitwise_equal(residual_bounds(lb, tau), want)


def ref_alpha_hat(rbf, g):
    bd_ru = rbf.bd_ru1 + rbf.bd_ru2 + rbf.bd_ru3
    bd_grad_ru = rbf.bd_grad_ru1 + rbf.bd_grad_ru2 + rbf.bd_grad_ru3
    combined = rbf.bd_rg + bd_ru * rbf.W + rbf.bd_rw
    return (pow_lp_norm(combined, 2.0, g) + pow_lp_norm(bd_ru, 2.0, g)
            + pow_lp_norm(bd_grad_ru, 2.0, g))


def ref_delta_hat(rbf, g):
    W, G = rbf.W, rbf.G
    norm_W = pow_lp_norm(W, 2.0 * P_EXP, g)
    norm_G = pow_lp_norm(G, 2.0 * P_EXP, g)
    return (1.0 + C_Q * pow_lp_norm(G * G + W * W, P_EXP, g) + 2.0 * C_Q * norm_W**2
            + 2.0 * C_Q * norm_G * norm_W + 4.0 * float(np.abs(W).max()))


@pytest.mark.parametrize("M", (8, 32, 128))
@pytest.mark.parametrize("data", (initial_data, constant_data, rotation_data))
@pytest.mark.parametrize("tau_per_h", (1.0 / 16.0, 0.25, 0.3))
def test_rates_match_pow_references(M, data, tau_per_h):
    # the states of test_estimator_layers_match_reference_bitwise; at
    # M = 128 hundreds of nodes of W and G lie below 2^-127, where their
    # 8th powers underflow
    g = Grid2D(M)
    tau = tau_per_h * g.h
    u, w = data(g)
    for _ in range(2):
        u, w, _ = step(u, w, tau, CFG, g)
    u1, w1, _ = step(u, w, tau, CFG, g)
    rec = StepRecord(grid=g, t_n=0.0, t_np1=tau, u_n=u, u_np1=u1, w_n=w, w_np1=w1)
    rbf = residual_bounds(local_quantities(rec, g), tau)
    assert alpha_hat(rbf, g) == ref_alpha_hat(rbf, g)
    assert delta_hat(rbf, g) == pytest.approx(ref_delta_hat(rbf, g), rel=1e-14, abs=0.0)


def traced_peak(fn):
    """Bytes that one call of fn holds at its peak beyond what it started with."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_rates_energy_and_constraint_checks_allocate_few_fields():
    # Bounds in scalar fields at M = 128: each call's measured peak rounded
    # up.  The rates hold bd_ru, one sum buffer and one lp_norm temporary;
    # the energy a three-field difference buffer, its component sum and a
    # ufunc iterator buffer of about one field for the strided y edges; a
    # constraint check one scalar field and its scratch.  A temporary per
    # operation, as in the allocating formulas, adds a field or more.
    g = Grid2D(128)
    u, w = initial_data(g)
    u, w, _ = step(u, w, g.h / 16, CFG, g)
    u1, w1, _ = step(u, w, g.h / 16, CFG, g)
    rec = StepRecord(grid=g, t_n=0.0, t_np1=g.h / 16, u_n=u, u_np1=u1, w_n=w, w_np1=w1)
    rbf = residual_bounds(local_quantities(rec, g), g.h / 16)
    calls = {
        "alpha_hat + delta_hat": (lambda: (alpha_hat(rbf, g), delta_hat(rbf, g)), 4),
        "energy": (lambda: energy(u1, w1, g), 5),
        "unit_deviation": (lambda: gr.unit_deviation(u1), 3),
        "orthogonality_deviation": (lambda: gr.orthogonality_deviation(u1, w1), 3),
    }
    field_bytes = u1.nbytes // 3
    for fn, _ in calls.values():
        fn()
    peaks = {name: traced_peak(fn) / field_bytes for name, (fn, _) in calls.items()}
    assert all(peaks[name] <= fields for name, (_, fields) in calls.items()), peaks


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
    lb = const_bounds(G, C_w=0.7, C_u_x=1.0, C_u_xx=2.0)
    rbf = residual_bounds(lb, 0.1)
    for f in dataclasses.fields(rbf):
        if f.name not in ("W", "G"):
            assert np.abs(getattr(rbf, f.name)).max() == 0.0, f.name
    # with B_w = B_u_x = 0 the majorants are the endpoint maxima alone
    assert rbf.W.tobytes() == lb.C_w.tobytes()
    assert rbf.G.tobytes() == (2.0 * lb.C_u_x).tobytes()


def test_residual_bounds_closed_form_substitution():
    a, b = 0.11, 0.23
    rbf = residual_bounds(const_bounds(G, A_u=a, A_w=b), 0.05)
    assert np.allclose(rbf.bd_ru1, a * b / 4, rtol=1e-14)
    assert np.allclose(rbf.bd_ru2, a * b / 4, rtol=1e-14)
    assert np.allclose(rbf.bd_ru3, (a * b / 4) * (4.0 / 3.0) * a**2 + 8 * a * b,
                       rtol=1e-14)
    assert np.allclose(rbf.bd_rg, (a * b) ** 2, rtol=1e-14)


def test_residual_bounds_requires_smallness():
    with pytest.raises(SmallnessViolated):
        residual_bounds(const_bounds(G, A_u=0.6), 0.1)


def test_alpha_hat_trivial_values():
    rbf = residual_bounds(const_bounds(G), 0.1)
    assert alpha_hat(rbf, G) == 0.0
    g0 = 0.37
    rbf2 = dataclasses.replace(rbf, bd_rg=np.full(G.shape, g0))
    assert abs(alpha_hat(rbf2, G) - g0) < 1e-13


def test_delta_hat_trivial_and_constant_values():
    assert abs(delta_hat(residual_bounds(const_bounds(G), 0.1), G) - 1.0) < 1e-14
    # W == 1, G == 0: 1 + C_Q |W^2|_p + 2 C_Q |W|_2p^2 + 0 + 4 |W|_inf = 17 with C_Q = 4
    rbf = residual_bounds(const_bounds(G, C_w=1.0), 0.1)
    assert abs(delta_hat(rbf, G) - 17.0) < 1e-12


def test_bound_monotonicity_in_local_quantities():
    rec = scheme_record(G, RNG, 0.01, CFG)
    tau = rec.tau
    lb = local_quantities(rec, G)
    rbf0 = residual_bounds(lb, tau)
    a0 = alpha_hat(rbf0, G)
    d0 = delta_hat(rbf0, G)
    for f in dataclasses.fields(LocalBounds):
        bumped = dataclasses.replace(lb, **{f.name: getattr(lb, f.name) * 1.3 + 0.01})
        if not check_smallness(bumped, tau):
            continue
        rbf1 = residual_bounds(bumped, tau)
        for bf in dataclasses.fields(rbf1):
            assert np.all(getattr(rbf1, bf.name) >= getattr(rbf0, bf.name) - 1e-15), \
                f"{bf.name} decreased when {f.name} grew"
        assert alpha_hat(rbf1, G) >= a0 - 1e-13
        assert delta_hat(rbf1, G) >= d0 - 1e-13


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
    a_c = alpha_hat(residual_bounds(lb_c, tau), G)
    a_f = alpha_hat(residual_bounds(lb_f, tau / 2), G)
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


@pytest.fixture(scope="module")
def trajectory_audit():
    """Per M: the largest ||grad r_u||_2 / ||bd_grad_ru||_2 and the worst
    dominance excesses over every interval of a fixed problem-data run to
    t = 0.25 at tau = h/16, each interval rebuilt from two stored states."""
    audit = {}
    for M in (16, 32):
        g = Grid2D(M)
        tau = g.h / 16
        n = round(0.25 / tau)
        traj = run(RunConfig(M=M, tau=tau, t_end=0.25,
                             store_times=tuple(k * tau for k in range(n + 1))))
        assert len(traj.states) == n + 1
        ratio = 0.0
        worst = dict.fromkeys(GRAD_PART_NAMES, -np.inf)
        rel = dict.fromkeys(POINT_PART_NAMES, -np.inf)
        for (t0, u0, w0), (t1, u1, w1) in zip(traj.states, traj.states[1:]):
            rec = StepRecord(grid=g, t_n=t0, t_np1=t1, u_n=u0, u_np1=u1, w_n=w0, w_np1=w1)
            rbf = residual_bounds(local_quantities(rec, g), rec.tau)
            bd_grad_ru = rbf.bd_grad_ru1 + rbf.bd_grad_ru2 + rbf.bd_grad_ru3
            bound = gr.lp_norm(bd_grad_ru, 2.0, g)
            for frac in SAMPLE_FRACS:
                r_u = eval_residuals(rec, t0 + frac * rec.tau).r_u
                ratio = max(ratio, gr.lp_norm(gr.grad_magnitude(r_u, g), 2.0, g) / bound)
            worst_i, rel_i = dominance_violations(rec, rbf)
            worst = {name: max(worst[name], worst_i[name]) for name in worst}
            rel = {name: max(rel[name], rel_i[name]) for name in rel}
        audit[M] = ratio, worst, rel
    return audit


def test_trajectory_audit_alpha_hat_inequality_and_point_parts(trajectory_audit):
    # alpha_hat needs only the norm-level inequality (largest ratios measured:
    # 0.0109 at M = 16, 0.0164 at M = 32); the point parts hold to roundoff
    for M, (ratio, _, rel) in trajectory_audit.items():
        assert ratio <= 1.0, (M, ratio)
        for name, excess in rel.items():
            assert excess <= 1e-20, (M, name, excess)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the gradient-part bounds do not hold point-wise on a "
                          "concentrating run (ROADMAP item 2)")
def test_trajectory_audit_gradient_parts_point_wise(trajectory_audit):
    for M, (_, worst, _) in trajectory_audit.items():
        for name, excess in worst.items():
            assert excess <= 0.0, (M, name, excess / Grid2D(M).h)


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
