import numpy as np
import pytest

from wavemaps import (DegenerateNorm, Grid2D, SolverConfig, StepRecord,
                      a_terms, eval_residuals, eval_ustar_wtilde, eval_utilde)
from wavemaps import grid as gr
from wavemaps import step

from conftest import random_state, scheme_record

RNG = np.random.default_rng(42)
G = Grid2D(16)
CFG = SolverConfig()


def test_endpoint_interpolation():
    rec = scheme_record(G, RNG, 0.01, CFG)
    us, wt = eval_ustar_wtilde(rec, rec.t_n)
    assert np.abs(us - rec.u_n).max() == 0.0
    assert np.abs(wt - rec.w_n).max() == 0.0
    us, wt = eval_ustar_wtilde(rec, rec.t_np1)
    assert np.abs(us - rec.u_np1).max() < 1e-14
    assert np.abs(wt - rec.w_np1).max() < 1e-14


def test_global_continuity_across_records():
    rng = np.random.default_rng(1)
    u0, w0 = random_state(G, rng)
    u1, w1, _ = step(u0, w0, 0.01, CFG, G)
    u2, w2, _ = step(u1, w1, 0.01, CFG, G)
    rec_a = StepRecord(grid=G, t_n=0.0, t_np1=0.01, u_n=u0, u_np1=u1, w_n=w0, w_np1=w1)
    rec_b = StepRecord(grid=G, t_n=0.01, t_np1=0.02, u_n=u1, u_np1=u2, w_n=w1, w_np1=w2)
    ua, wa = eval_ustar_wtilde(rec_a, 0.01)
    ub, wb = eval_ustar_wtilde(rec_b, 0.01)
    assert np.abs(ua - ub).max() < 1e-14
    assert np.abs(wa - wb).max() < 1e-14


def test_zero_quadratic_correction_for_matching_cross_products():
    u, w = (gr.constant_field(G, (1, 0, 0)), gr.constant_field(G, (0, 0, 2.0)))
    rec = StepRecord(grid=G, t_n=0.0, t_np1=0.1, u_n=u, u_np1=u.copy(),
                     w_n=w, w_np1=w.copy())
    t_mid = 0.05
    us, wt = eval_ustar_wtilde(rec, t_mid)
    assert np.abs(us - u).max() == 0.0  # ustar == uhat == u
    assert np.abs(wt - w).max() == 0.0
    a_u, a_w = a_terms(rec)
    assert np.abs(a_u).max() == 0.0 and np.abs(a_w).max() == 0.0


def test_a_terms_definition_and_cross_norm_bound():
    rec = scheme_record(G, RNG, 0.01, CFG)
    du = rec.u_np1 - rec.u_n
    dw = rec.w_np1 - rec.w_n
    a_u, a_w = a_terms(rec)
    assert np.array_equal(a_u, 0.25 * gr.cross(du, dw))
    assert np.array_equal(a_w, 0.25 * gr.cross(rec.ends[1].lap_u - rec.ends[0].lap_u, du))
    bound = 0.25 * gr.magnitude(du) * gr.magnitude(dw)
    assert np.all(gr.magnitude(a_u) <= bound + 1e-15)
    # equality when the differences are orthogonal
    e1 = gr.constant_field(G, (1, 0, 0))
    e2 = gr.constant_field(G, (0, 1, 0))
    rec_orth = StepRecord(grid=G, t_n=0.0, t_np1=1.0, u_n=0 * e1, u_np1=e1,
                          w_n=0 * e2, w_np1=e2)
    a_u, _ = a_terms(rec_orth)
    assert np.abs(gr.magnitude(a_u) - 0.25).max() < 1e-15


def test_midpoint_correction_magnitude():
    rec = scheme_record(G, RNG, 0.02, CFG)
    t_mid = rec.t_n + 0.5 * rec.tau
    us, wt = eval_ustar_wtilde(rec, t_mid)
    uhat = 0.5 * (rec.u_n + rec.u_np1)
    what = 0.5 * (rec.w_n + rec.w_np1)
    P = gr.cross(rec.u_np1, rec.w_np1) - gr.cross(rec.u_n, rec.w_n)
    Q = gr.cross(rec.ends[1].lap_u, rec.u_np1) - gr.cross(rec.ends[0].lap_u, rec.u_n)
    assert np.abs(gr.magnitude(us - uhat) - rec.tau / 8.0 * gr.magnitude(P)).max() < 1e-15
    assert np.abs(gr.magnitude(wt - what) - rec.tau / 8.0 * gr.magnitude(Q)).max() < 1e-12


def test_linear_interpolation_defect_identity():
    # uhat x what - I1(uhat x what) == -l0 l1 (du x dw), node-wise
    rec = scheme_record(G, RNG, 0.015, CFG)
    for frac in (0.2, 0.5, 0.8):
        t = rec.t_n + frac * rec.tau
        l1 = (t - rec.t_n) / rec.tau
        l0 = 1.0 - l1
        uhat = rec.u_n + l1 * (rec.u_np1 - rec.u_n)
        what = rec.w_n + l1 * (rec.w_np1 - rec.w_n)
        uw0 = gr.cross(rec.u_n, rec.w_n)
        uw1 = gr.cross(rec.u_np1, rec.w_np1)
        lhs = gr.cross(uhat, what) - (uw0 + l1 * (uw1 - uw0))
        rhs = -l0 * l1 * gr.cross(rec.u_np1 - rec.u_n, rec.w_np1 - rec.w_n)
        assert np.abs(lhs - rhs).max() < 1e-15


def test_utilde_unit_endpoint_orthogonal():
    rec = scheme_record(G, RNG, 0.02, CFG)
    for frac in (0.0, 0.25, 0.75, 1.0):
        ut = eval_utilde(rec, rec.t_n + frac * rec.tau)
        assert gr.unit_deviation(ut) < 1e-14
    ut0 = eval_utilde(rec, rec.t_n)
    assert np.abs(ut0 - rec.u_n).max() < 1e-13
    assert gr.orthogonality_deviation(ut0, rec.w_n) <= 1e-9


def test_utilde_distance_to_ustar_bound():
    rec = scheme_record(G, RNG, 0.02, CFG)
    du = rec.u_np1 - rec.u_n
    P = gr.cross(rec.u_np1, rec.w_np1) - gr.cross(rec.u_n, rec.w_n)
    bound = gr.magnitude(du) ** 2 + rec.tau * gr.magnitude(P)
    for frac in (0.1, 0.5, 0.9):
        t = rec.t_n + frac * rec.tau
        us, _ = eval_ustar_wtilde(rec, t)
        ut = eval_utilde(rec, t)
        assert np.all(gr.magnitude(ut - us) <= bound + 1e-14)


def test_degenerate_norm_raises():
    e1 = gr.constant_field(G, (1, 0, 0))
    z = np.zeros_like(e1)
    rec = StepRecord(grid=G, t_n=0.0, t_np1=1.0, u_n=e1, u_np1=-e1, w_n=z, w_np1=z)
    with pytest.raises(DegenerateNorm):
        eval_utilde(rec, 0.5)  # linear interpolant passes through zero
    with pytest.raises(DegenerateNorm):
        eval_residuals(rec, 0.5)


def test_time_constant_record_has_zero_residuals():
    u = gr.constant_field(G, (1, 0, 0))
    w = gr.constant_field(G, (0, 0, 0.7))
    rec = StepRecord(grid=G, t_n=0.0, t_np1=0.1, u_n=u, u_np1=u.copy(),
                     w_n=w, w_np1=w.copy())
    for frac in (0.2, 0.5, 0.9):
        s = eval_residuals(rec, rec.t_n + frac * rec.tau)
        for part in (s.r_u1, s.r_u2, s.r_u3, s.r_w, s.r_g):
            assert np.abs(part).max() == 0.0


def test_ru2_is_time_independent_and_matches_a_u():
    rec = scheme_record(G, RNG, 0.02, CFG)
    a_u, _ = a_terms(rec)
    samples = [eval_residuals(rec, rec.t_n + f * rec.tau) for f in (0.1, 0.5, 0.9)]
    for s in samples:
        assert np.array_equal(s.r_u2, samples[0].r_u2)
        assert np.array_equal(gr.magnitude(s.r_u2), gr.magnitude(a_u))


def test_residual_identity_for_u():
    # d/dt utilde == utilde x wtilde + r_u, checked with a centered time
    # difference of the assembled reconstruction
    rec = scheme_record(G, RNG, 0.02, CFG)
    for frac in (0.1, 0.5, 0.9):
        t = rec.t_n + frac * rec.tau
        s = eval_residuals(rec, t)
        dt = 1e-6 * rec.tau
        dnum = (eval_utilde(rec, t + dt) - eval_utilde(rec, t - dt)) / (2 * dt)
        ut = eval_utilde(rec, t)
        _, wt = eval_ustar_wtilde(rec, t)
        rhs = gr.cross(ut, wt) + s.r_u
        rel = np.abs(dnum - rhs).max() / np.abs(dnum).max()
        assert rel < 1e-7


def test_residual_identity_for_w():
    # d/dt wtilde == lap(utilde) x utilde + r_w; wtilde is quadratic in t,
    # so the centered difference is exact up to roundoff
    rec = scheme_record(G, RNG, 0.02, CFG)
    for frac in (0.3, 0.7):
        t = rec.t_n + frac * rec.tau
        s = eval_residuals(rec, t)
        dt = 1e-6 * rec.tau
        _, wp = eval_ustar_wtilde(rec, t + dt)
        _, wm = eval_ustar_wtilde(rec, t - dt)
        dnum = (wp - wm) / (2 * dt)
        ut = eval_utilde(rec, t)
        rhs = gr.cross(gr.laplacian(ut, G), ut) + s.r_w
        rel = np.abs(dnum - rhs).max() / max(np.abs(dnum).max(), 1e-30)
        assert rel < 1e-7


def _residuals_from_fresh_products(rec, t):
    """Reference residuals that rebuild lap u and the four endpoint products
    u x w, lap(u) x u at both ends with gr.cross, in the same operation order
    as eval_residuals."""
    g, tau = rec.grid, rec.tau
    lap0, lap1 = gr.laplacian(rec.u_n, g), gr.laplacian(rec.u_np1, g)
    uw0, uw1 = gr.cross(rec.u_n, rec.w_n), gr.cross(rec.u_np1, rec.w_np1)
    lu0, lu1 = gr.cross(lap0, rec.u_n), gr.cross(lap1, rec.u_np1)
    l1 = (t - rec.t_n) / tau
    du = rec.u_np1 - rec.u_n
    dw = rec.w_np1 - rec.w_n
    b = 0.5 * ((t - rec.t_n) * (rec.t_np1 - t) / tau)
    ustar = rec.u_n + l1 * du - b * (uw1 - uw0)
    wtilde = rec.w_n + l1 * dw - b * (lu1 - lu0)
    norm = gr.magnitude(ustar)
    utilde = ustar / norm[..., None]
    a_u, a_w = 0.25 * gr.cross(du, dw), 0.25 * gr.cross(lap1 - lap0, du)
    dustar = du / tau - 0.5 * ((rec.t_n + rec.t_np1 - 2.0 * t) / tau) * (uw1 - uw0)
    proj = gr.dot(ustar, dustar) / norm**3
    dutilde = dustar / norm[..., None] - proj[..., None] * ustar
    r_u1 = uw0 + l1 * (uw1 - uw0) - gr.cross(utilde, wtilde)
    r_u2 = -a_u
    r_u3 = dutilde - dustar
    r_w = lu0 + l1 * (lu1 - lu0) - gr.cross(gr.laplacian(utilde, g), utilde) - a_w
    s = gr.dot(utilde, wtilde)
    r_g = s[..., None] * wtilde - (s * s)[..., None] * utilde
    return {"r_u1": r_u1, "r_u2": r_u2, "r_u3": r_u3, "r_w": r_w, "r_g": r_g}


def test_eval_residuals_bitwise_equal_to_fresh_endpoint_products():
    rec = scheme_record(G, np.random.default_rng(7), 0.02, CFG)
    for frac in (0.3, 0.5):
        t = rec.t_n + frac * rec.tau
        s = eval_residuals(rec, t)
        for name, want in _residuals_from_fresh_products(rec, t).items():
            got = getattr(s, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
