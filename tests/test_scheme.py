import math
import tracemalloc

import numpy as np
import pytest

from wavemaps import (Grid2D, NonConvergence, SolverConfig, StepRecord,
                      constant_data, energy, initial_data, laplacian,
                      rotation_data, step)
from wavemaps import grid as gr
from wavemaps import scheme

from conftest import random_state

# fine-grid (M = 2048) value of the initial energy, computed once with the
# same trapezoid/edge quadrature and frozen as a regression anchor
E0_FINE = 22.912159972544455


def cayley_apply(u3, omega3, tau):
    """Independent oracle: solve the 3x3 midpoint system for u' = u x w."""
    wx = np.array([
        [0.0, -omega3[2], omega3[1]],
        [omega3[2], 0.0, -omega3[0]],
        [-omega3[1], omega3[0], 0.0],
    ])
    lhs = np.eye(3) + 0.5 * tau * wx
    rhs = (np.eye(3) - 0.5 * tau * wx) @ np.asarray(u3, dtype=float)
    return np.linalg.solve(lhs, rhs)


def jacobi_step(u_n, w_n, tau, cfg, g, guess=None):
    """Jacobi iteration of the midpoint system: both updates read the
    previous iterate.  Same start and stopping rule as scheme.step; a
    reference for its fixed point and its iteration count."""
    u, w = (u_n, w_n) if guess is None else guess
    for it in range(1, scheme.FP_MAX_ITER + 1):
        mu = 0.5 * (u_n + u)
        mw = 0.5 * (w_n + w)
        u_new = u_n + tau * gr.cross(mu, mw)
        w_new = w_n + tau * gr.cross(gr.laplacian(mu, g), mu)
        du = float(np.abs(u_new - u).max())
        dw = float(np.abs(w_new - w).max())
        u, w = u_new, w_new
        if not (math.isfinite(du) and math.isfinite(dw)):
            raise NonConvergence(it)
        if du <= cfg.fp_tol and dw <= cfg.fp_tol:
            return u, w, it
    raise NonConvergence(scheme.FP_MAX_ITER)


def test_initial_data_pointwise_values():
    g = Grid2D(32)
    u, w = initial_data(g)
    x = g.nodes()
    i0 = np.where(x == 0.0)[0][0]
    assert np.allclose(u[i0, i0], [0.0, 0.0, 1.0], atol=1e-15)
    # outer branch, including the matching point |x| = 1/2
    assert np.allclose(u[0, 0], [0.0, 0.0, -1.0], atol=0.0)
    assert np.allclose(u[0, i0], [0.0, 0.0, -1.0], atol=1e-15)
    assert np.abs(w).max() == 0.0


def test_initial_data_unit_norm_everywhere():
    g = Grid2D(61)  # odd M: nodes miss the origin and the rim
    u, _ = initial_data(g)
    assert gr.unit_deviation(u) <= 1e-14


def test_energy_of_constant_rotation_state():
    g = Grid2D(16)
    u, w = rotation_data(g)
    assert abs(energy(u, w, g) - 0.5) < 1e-14


def test_energy_initial_data_matches_fine_grid_value():
    g = Grid2D(256)
    u, w = initial_data(g)
    assert abs(energy(u, w, g) - E0_FINE) <= 0.02 * E0_FINE


def test_step_stationary_constant_state():
    g = Grid2D(8)
    u, w = constant_data(g, (0.0, 1.0, 0.0))
    cfg = SolverConfig()
    u1, w1, iters = step(u, w, 0.25, cfg, g)
    assert iters == 1
    assert np.array_equal(u1, u)
    assert np.abs(w1).max() == 0.0


def test_step_matches_cayley_rotation():
    g = Grid2D(8)
    u, w = rotation_data(g, u0=(1, 0, 0), omega=(0, 0, 1))
    cfg = SolverConfig(fp_tol=1e-15)
    tau = 0.1
    u1, w1, _ = step(u, w, tau, cfg, g)
    expected = cayley_apply([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], tau)
    assert np.allclose(expected, [0.99501246882793017, -0.09975062344139651, 0.0],
                       atol=1e-15)
    assert np.abs(u1 - expected).max() < 1e-13
    assert np.array_equal(w1, w)  # momentum untouched: Laplacian terms vanish


def test_step_sequence_tracks_cayley_rotation():
    g = Grid2D(4)
    cfg = SolverConfig(fp_tol=1e-15)
    u, w = rotation_data(g, u0=(0, 1, 0), omega=(0.3, 0.0, 0.9))
    omega = w[0, 0].copy()
    tau = 0.05
    state = u[0, 0].copy()
    for _ in range(5):
        u, w, _ = step(u, w, tau, cfg, g)
        state = cayley_apply(state, omega, tau)
        assert np.abs(u - state).max() < 5e-14


def test_step_preserves_constraints_on_problem_data():
    g = Grid2D(16)
    cfg = SolverConfig()
    u, w = initial_data(g)
    tau = 2.0**-8
    for _ in range(3):
        u, w, _ = step(u, w, tau, cfg, g)
    wmax = gr.magnitude(w).max()
    assert gr.unit_deviation(u) <= 10 * cfg.fp_tol
    assert gr.orthogonality_deviation(u, w) <= 10 * cfg.fp_tol * max(1.0, wmax)


def test_step_conserves_energy_per_step():
    g = Grid2D(16)
    cfg = SolverConfig()
    u, w = initial_data(g)
    e = energy(u, w, g)
    for _ in range(20):
        u, w, _ = step(u, w, 2.0**-8, cfg, g)
        e_new = energy(u, w, g)
        assert abs(e_new - e) <= 10 * cfg.fp_tol * (1.0 + abs(e))
        e = e_new


def test_step_is_time_symmetric():
    g = Grid2D(16)
    cfg = SolverConfig()
    u0, w0 = initial_data(g)
    tau = 2.0**-8
    u1, w1, _ = step(u0, w0, tau, cfg, g)
    u_back, w_back, _ = step(u1, w1, -tau, cfg, g)
    assert np.abs(u_back - u0).max() <= 10 * cfg.fp_tol
    assert np.abs(w_back - w0).max() <= 10 * cfg.fp_tol


def test_step_rejects_zero_tau_and_raises_on_divergence():
    g = Grid2D(16)
    cfg = SolverConfig()
    u, w = initial_data(g)
    with pytest.raises(ValueError):
        step(u, w, 0.0, cfg, g)
    with pytest.raises(NonConvergence):
        step(u, w, 1.0, cfg, g)  # far above the convergence threshold


def test_step_results_belong_to_the_caller():
    g = Grid2D(16)
    cfg = SolverConfig()
    u0, w0 = initial_data(g)
    u1, w1, _ = step(u0, w0, 2.0**-8, cfg, g)
    kept = [a.copy() for a in (u0, w0, u1, w1)]
    u2, w2, _ = step(u1, w1, 2.0**-8, cfg, g)
    for a, b in zip((u0, w0, u1, w1), kept):
        assert a.tobytes() == b.tobytes()
    for a in (u2, w2):
        assert not any(np.shares_memory(a, b) for b in (u0, w0, u1, w1))


def test_gauss_seidel_reaches_the_jacobi_fixed_point():
    g = Grid2D(32)
    cfg = SolverConfig()
    u, w = initial_data(g)
    uj, wj = u, w
    for _ in range(6):
        u, w, _ = step(u, w, 2.0**-9, cfg, g)
        uj, wj, _ = jacobi_step(uj, wj, 2.0**-9, cfg, g)
        assert np.abs(u - uj).max() <= 1e-11
        assert np.abs(w - wj).max() <= 1e-11


def test_gauss_seidel_needs_fewer_iterations_than_jacobi():
    g = Grid2D(64)
    cfg = SolverConfig()
    u, w = initial_data(g)
    for _ in range(26):  # to t = 0.1016, where the bump has steepened
        u, w, _ = step(u, w, 2.0**-8, cfg, g)
    tau = g.h / 16
    assert step(u, w, tau, cfg, g)[2] <= 7
    assert jacobi_step(u, w, tau, cfg, g)[2] >= 10


def test_warm_and_cold_step_reach_the_same_fixed_point():
    g = Grid2D(32)
    cfg = SolverConfig()
    tau = 2.0**-9
    u0, w0 = initial_data(g)
    for _ in range(8):
        u0, w0, _ = step(u0, w0, tau, cfg, g)
    u1, w1, _ = step(u0, w0, tau, cfg, g)
    guess = (2.0 * u1 - u0, 2.0 * w1 - w0)  # the last step, extrapolated
    kept = [a.copy() for a in guess]
    u_cold, w_cold, cold = step(u1, w1, tau, cfg, g)
    u_warm, w_warm, warm = step(u1, w1, tau, cfg, g, guess=guess)
    assert np.abs(u_warm - u_cold).max() <= 1e-13
    assert np.abs(w_warm - w_cold).max() <= 1e-13
    assert warm < cold
    for a, b in zip(guess, kept):  # the guess is only read
        assert a.tobytes() == b.tobytes()


def test_default_start_is_the_guess_of_the_current_state():
    # a cold start is the guess (u_n, w_n): same fields, same sweeps, and
    # the same NonConvergence when the step diverges
    g = Grid2D(16)
    cfg = SolverConfig()
    u, w = initial_data(g)
    for _ in range(2):  # away from w = 0
        u, w, _ = step(u, w, 2.0**-8, cfg, g)
    cold = step(u, w, 2.0**-8, cfg, g)
    warm = step(u, w, 2.0**-8, cfg, g, guess=(u, w))
    assert [a.tobytes() for a in cold[:2]] == [a.tobytes() for a in warm[:2]]
    assert cold[2] == warm[2]
    failures = []
    for guess in (None, (u, w)):
        with pytest.raises(NonConvergence) as exc:
            step(u, w, 1.0, cfg, g, guess=guess)
        failures.append((str(exc.value), exc.value.iterations))
    assert failures[0] == failures[1]


def test_step_allocates_nothing_beyond_its_buffers():
    # With every buffer allocated before the loop, any field-sized
    # temporary inside the loop would raise the traced peak above the
    # buffers by a whole field (400 KB at M = 128).  numpy's ufunc
    # iterator may hold up to one buffer of getbufsize() elements per
    # operand of a strided operation.
    g = Grid2D(128)
    cfg = SolverConfig()
    u, w = initial_data(g)
    u, w, _ = step(u, w, 2.0**-11, cfg, g)
    field_bytes = u.nbytes
    # mu, mw, the cross/scale buffer (also the Laplacian's tmp), the
    # Laplacian, two (u, w) iterate pairs and the scalar scratch
    buffers = 8 * field_bytes + field_bytes // 3
    iterator = 3 * np.getbufsize() * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _, _, iterations = step(u, w, 2.0**-11, cfg, g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert iterations > 2
    assert peak <= buffers + iterator + 16 * 1024


def test_step_record_caches_and_validates():
    g = Grid2D(8)
    rng = np.random.default_rng(2)
    u0, w0 = random_state(g, rng)
    u1, w1, _ = step(u0, w0, 0.01, SolverConfig(), g)
    rec = StepRecord(grid=g, t_n=0.0, t_np1=0.01, u_n=u0, u_np1=u1, w_n=w0, w_np1=w1)
    assert np.array_equal(rec.ends[0].lap_u, laplacian(u0, g))
    assert rec.tau == 0.01
    with pytest.raises(ValueError):
        StepRecord(grid=g, t_n=0.5, t_np1=0.5, u_n=u0, u_np1=u1, w_n=w0, w_np1=w1)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(fp_tol=0.0)
    # a NaN tolerance passes no comparison: fp_tol would never stop a solve
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="fp_tol"):
            SolverConfig(fp_tol=value)
