"""Seeded inputs for the ``audit-records`` workload.

Each input is a smooth unit field ``u0`` with an orthogonal momentum
``w0`` on one of the grids in ``SIZES``, plus a step size ``tau`` at which
the fixed-point solve converges and the smallness condition holds.  The
recipe follows the record suite of acceptance criterion 4: low-frequency
cosine modes compatible with the Neumann boundary, ``tau`` drawn below a
quarter of the mesh width, halved until the step is admissible.

Every seed draws the same number of inputs on every grid size, and the
step sizes and momentum amplitudes are stratified over their ranges, so
the work of one audit hardly depends on the seed.  The package receives
nothing but the generated arrays.
"""

import math
from dataclasses import dataclass

import numpy as np

from wavemaps import NonConvergence, SolverConfig, StepRecord, check_smallness
from wavemaps import grid as gr
from wavemaps import local_quantities, step

SIZES = (12, 16, 24, 32)
PER_SIZE = 32
MAX_HALVINGS = 6


@dataclass(frozen=True)
class AuditInput:
    grid: gr.Grid2D
    u0: np.ndarray
    w0: np.ndarray
    tau: float
    t_n: float


def _smooth_scalar(g, rng, amp, kmax=2):
    x, y = g.mesh()
    f = np.zeros(g.shape)
    for kx in range(kmax + 1):
        for ky in range(kmax + 1):
            c = rng.normal() * amp / (1 + kx * kx + ky * ky)
            f += c * np.cos(math.pi * kx * (x + 0.5)) * np.cos(math.pi * ky * (y + 0.5))
    return f


def _smooth_vec(g, rng, amp):
    return np.stack([_smooth_scalar(g, rng, amp) for _ in range(3)], axis=-1)


def draw_inputs(seed, per_size=PER_SIZE):
    """Unvalidated inputs: ``per_size`` states on each grid size, interleaved."""
    rng = np.random.default_rng(seed)
    # stratified draws: stratum k of the tau and w_amp ranges once per size
    tau_strata = {m: rng.permutation(per_size) for m in SIZES}
    amp_strata = {m: rng.permutation(per_size) for m in SIZES}
    out = []
    for k in range(per_size):
        for m in SIZES:
            g = gr.Grid2D(m)
            tau_hi = min(0.04, 0.25 * g.h)
            tau = 0.004 + (tau_hi - 0.004) * float(tau_strata[m][k] + rng.uniform()) / per_size
            w_amp = 0.5 + 1.5 * float(amp_strata[m][k] + rng.uniform()) / per_size
            u = _smooth_vec(g, rng, 1.0) + np.array([0.0, 0.0, 2.0])
            u = u / gr.magnitude(u)[..., None]
            w = _smooth_vec(g, rng, w_amp)
            w = w - gr.dot(w, u)[..., None] * u
            t_n = float(rng.uniform(0.0, 1.0))
            out.append(AuditInput(grid=g, u0=u, w0=w, tau=tau, t_n=t_n))
    return out


def _admissible(inp, solver):
    try:
        u1, w1, _ = step(inp.u0, inp.w0, inp.tau, solver, inp.grid)
    except NonConvergence:
        return False
    rec = StepRecord(grid=inp.grid, t_n=inp.t_n, t_np1=inp.t_n + inp.tau,
                     u_n=inp.u0, u_np1=u1, w_n=inp.w0, w_np1=w1)
    return check_smallness(local_quantities(rec, inp.grid), rec.tau)


def audit_inputs(seed, per_size=PER_SIZE, solver=None):
    """Inputs whose step converges and satisfies the smallness condition."""
    solver = solver or SolverConfig()
    out = []
    for inp in draw_inputs(seed, per_size):
        for _ in range(MAX_HALVINGS):
            if _admissible(inp, solver):
                out.append(inp)
                break
            inp = AuditInput(inp.grid, inp.u0, inp.w0, 0.5 * inp.tau, inp.t_n)
        else:
            raise RuntimeError(f"no admissible step size for an M={inp.grid.M} input")
    return out
