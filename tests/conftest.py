"""Shared helpers: smooth random states and scheme-consistent step records."""

import math

import numpy as np

from wavemaps import (NonConvergence, SolverConfig, StepRecord, check_smallness,
                      local_quantities, step)
from wavemaps import grid as gr

# Additive slack for the spatial-derivative bound checks, in units of h.
# Calibrated once by a refinement sweep over the record generator below
# (worst measured violation/h was 0.76, with no growth under refinement);
# frozen with >5x headroom.  The non-gradient bounds need no slack beyond
# roundoff.
KAPPA = 4.0

GRAD_PART_NAMES = ("rw", "grad_ru1", "grad_ru2", "grad_ru3")
POINT_PART_NAMES = ("ru1", "ru2", "ru3", "rg")


def pow_lp_norm(f, p, g):
    """lp_norm as one pow per node, the formula that the squared norms replace."""
    s = float(np.add.reduce(gr.trapezoid_weights(g) * gr.magnitude(f) ** p, axis=None))
    return (s * g.h * g.h) ** (1.0 / p)


def smooth_scalar(g, rng, amp=1.0, kmax=2):
    """Random low-frequency scalar field compatible with the Neumann boundary."""
    x, y = g.mesh()
    f = np.zeros(g.shape)
    for kx in range(kmax + 1):
        for ky in range(kmax + 1):
            c = rng.normal() * amp / (1 + kx * kx + ky * ky)
            f += c * np.cos(math.pi * kx * (x + 0.5)) * np.cos(math.pi * ky * (y + 0.5))
    return f


def smooth_vec(g, rng, amp=1.0):
    return np.stack([smooth_scalar(g, rng, amp) for _ in range(3)], axis=-1)


def normalize(u):
    return u / gr.magnitude(u)[..., None]


def orthogonalize(w, u):
    return w - gr.dot(w, u)[..., None] * u


def random_state(g, rng, w_amp=1.5):
    """Smooth unit field plus an orthogonal momentum field."""
    u = normalize(smooth_vec(g, rng, 1.0) + np.array([0.0, 0.0, 2.0]))
    w = orthogonalize(smooth_vec(g, rng, w_amp), u)
    return u, w


def scheme_record(g, rng, tau, cfg=None, w_amp=1.5, t_n=None):
    """One accepted step from a random smooth state, as a StepRecord.

    Records built this way satisfy the discrete evolution equation, which
    is what the reconstruction identities and the residual bounds assume.
    """
    cfg = cfg or SolverConfig()
    u0, w0 = random_state(g, rng, w_amp)
    u1, w1, _ = step(u0, w0, tau, cfg, g)
    t0 = float(rng.uniform(0.0, 1.0)) if t_n is None else t_n
    return StepRecord(grid=g, t_n=t0, t_np1=t0 + tau, u_n=u0, u_np1=u1, w_n=w0, w_np1=w1)


def record_suite(n, seed, sizes=(12, 16, 24, 32)):
    """Deterministic stream of smallness-satisfying scheme records.

    Step sizes stay below ~0.25 h, the regime in which the fixed-point
    solve converges, so the records look like production steps.
    """
    rng = np.random.default_rng(seed)
    cfg = SolverConfig()
    made = 0
    while made < n:
        g_size = int(rng.choice(sizes))
        g = gr.Grid2D(g_size)
        tau = float(rng.uniform(0.004, min(0.04, 0.25 * g.h)))
        w_amp = float(rng.uniform(0.5, 2.0))
        for _ in range(6):  # enforce smallness by halving tau when needed
            try:
                rec = scheme_record(g, rng, tau, cfg, w_amp)
            except NonConvergence:
                tau *= 0.5
                continue
            if check_smallness(local_quantities(rec, g), rec.tau):
                made += 1
                yield rec
                break
            tau *= 0.5
        else:
            raise AssertionError("could not generate a smallness-satisfying record")


SAMPLE_FRACS = (0.1, 0.3, 0.5, 0.7, 0.9)


def dominance_violations(rec, rbf, fracs=SAMPLE_FRACS):
    """Worst (|r| - bound) per residual part over the sampled interior times."""
    from wavemaps import eval_residuals

    g = rec.grid
    worst = {name: -np.inf for name in POINT_PART_NAMES + GRAD_PART_NAMES}
    rel = {name: -np.inf for name in POINT_PART_NAMES}
    for frac in fracs:
        s = eval_residuals(rec, rec.t_n + frac * rec.tau)
        checks = {
            "ru1": (gr.magnitude(s.r_u1), rbf.bd_ru1),
            "ru2": (gr.magnitude(s.r_u2), rbf.bd_ru2),
            "ru3": (gr.magnitude(s.r_u3), rbf.bd_ru3),
            "rg": (gr.magnitude(s.r_g), rbf.bd_rg),
            "rw": (gr.magnitude(s.r_w), rbf.bd_rw),
            "grad_ru1": (gr.grad_magnitude(s.r_u1, g), rbf.bd_grad_ru1),
            "grad_ru2": (gr.grad_magnitude(s.r_u2, g), rbf.bd_grad_ru2),
            "grad_ru3": (gr.grad_magnitude(s.r_u3, g), rbf.bd_grad_ru3),
        }
        for name, (val, bd) in checks.items():
            worst[name] = max(worst[name], float((val - bd).max()))
            if name in rel:
                # slack-adjusted: positive means |r|*(1 - 1e-8) exceeds the bound
                rel[name] = max(rel[name], float((val * (1.0 - 1e-8) - bd).max()))
    return worst, rel
