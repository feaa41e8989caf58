"""Angular-momentum midpoint time stepping for sphere-valued wave fields.

The state is a pair (u, w) of node fields with |u| = 1 and u . w = 0.
One step of size tau solves the implicit midpoint system

    u1 = u0 + tau * (mu x mw),      w1 = w0 + tau * (lap(mu) x mu),

with mu = (u0 + u1)/2 and mw = (w0 + w1)/2, by a Gauss-Seidel fixed-point
iteration: the w update of each sweep already uses the midpoint of the
new u.  One call allocates its buffers once and returns fresh fields.
At the fixed point the step preserves both node-wise constraints exactly
and conserves the discrete energy

    E = 1/2 * ( ||w||_2^2 + dirichlet_form(u) ),

where the gradient part is the edge-based Dirichlet sum that pairs with
the mirror-ghost Laplacian (see grid.dirichlet_form).  Those invariants
hold up to the stopping tolerance of the iteration.

A StepRecord owns its two endpoint states' EndpointTerms (lap u, u x w,
lap u x u and magnitudes); the estimator, the reconstruction and the
step loop all read them from ``rec.ends``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import grid as gr
from .grid import Grid2D

FP_MAX_ITER = 200  # sweeps of one solve; reaching the cap raises NonConvergence


class NonConvergence(Exception):
    """Fixed-point iteration hit the iteration cap; the step size is too large."""

    def __init__(self, iterations):
        super().__init__(f"fixed-point iteration did not converge in {iterations} iterations")
        self.iterations = iterations


@dataclass
class SolverConfig:
    """Nonlinear-solver settings.

    fp_tol    max-norm change of both iterates at which the iteration stops;
              a run takes none above harness.UNIT_TOL, the slack it allows
              the node constraints
    """

    fp_tol: float = 1e-12

    def __post_init__(self):
        if not 0.0 < self.fp_tol < math.inf:
            raise ValueError("fp_tol must be positive and finite")


@dataclass
class EndpointTerms:
    """Per-state factors of the reconstruction and the residual bounds; a
    run computes them once per state, which ends one interval and starts
    the next."""

    lap_u: np.ndarray  # lap u
    u_x_w: np.ndarray  # u x w
    lap_u_x_u: np.ndarray  # lap u x u
    mag_w: np.ndarray  # |w|
    grad_u: np.ndarray  # |grad u|
    grad_w: np.ndarray  # |grad w|
    mag_lap_u: np.ndarray  # |lap u|


def endpoint_terms(u, w, g: Grid2D) -> EndpointTerms:
    """Per-state terms of one endpoint (u, w), each a fresh field."""
    lap_u = gr.laplacian(u, g)
    return EndpointTerms(
        lap_u=lap_u,
        u_x_w=gr.cross(u, w),
        lap_u_x_u=gr.cross(lap_u, u),
        mag_w=gr.magnitude(w),
        grad_u=gr.grad_magnitude(u, g),
        grad_w=gr.grad_magnitude(w, g),
        mag_lap_u=gr.magnitude(lap_u),
    )


@dataclass
class StepRecord:
    """Endpoint data of one accepted time interval.

    Everything downstream (reconstruction, residual sampling, bound
    evaluation) works from this record alone.  ``ends`` holds the
    EndpointTerms of (u_n, w_n) and (u_np1, w_np1); they are computed
    here unless the caller passes the ones it already has.
    """

    grid: Grid2D
    t_n: float
    t_np1: float
    u_n: np.ndarray
    u_np1: np.ndarray
    w_n: np.ndarray
    w_np1: np.ndarray
    ends: tuple[EndpointTerms, EndpointTerms] | None = field(repr=False, default=None)

    def __post_init__(self):
        if not self.t_np1 > self.t_n:
            raise ValueError(f"need t_np1 > t_n, got [{self.t_n}, {self.t_np1}]")
        if self.ends is None:
            self.ends = (endpoint_terms(self.u_n, self.w_n, self.grid),
                         endpoint_terms(self.u_np1, self.w_np1, self.grid))

    @property
    def tau(self) -> float:
        return self.t_np1 - self.t_n


def initial_data(g: Grid2D):
    """Stereographic bump initial state: u covers the sphere once, w = 0.

    Inside |x| <= 1/2, with a(x) = (1 - 2|x|)^4,

        u = (2 a x1, 2 a x2, a^2 - |x|^2) / (a^2 + |x|^2),

    and u = (0, 0, -1) outside; the two branches agree at |x| = 1/2.
    The third numerator component makes |u| = 1 node-wise exactly.
    """
    x, y = g.mesh()
    r2 = x * x + y * y
    r = np.sqrt(r2)
    a = (1.0 - 2.0 * r) ** 4
    denom = a * a + r2  # never zero: at least 0.0567 inside (r = 0.204), above 1/4 outside
    inner = r <= 0.5
    u = np.empty(g.shape + (3,))
    u[..., 0] = np.where(inner, 2.0 * a * x / denom, 0.0)
    u[..., 1] = np.where(inner, 2.0 * a * y / denom, 0.0)
    u[..., 2] = np.where(inner, (a * a - r2) / denom, -1.0)
    w = np.zeros_like(u)
    return u, w


def constant_data(g: Grid2D, direction=(0.0, 0.0, 1.0)):
    """Spatially constant unit state with zero momentum (stationary)."""
    d = np.asarray(direction, dtype=float)
    u = gr.constant_field(g, d / np.linalg.norm(d))
    return u, np.zeros_like(u)


def rotation_data(g: Grid2D, u0=(1.0, 0.0, 0.0), omega=(0.0, 0.0, 1.0)):
    """Spatially constant u perpendicular to a constant momentum w.

    The Laplacian terms vanish, so the exact flow is a rigid rotation of
    u about the w axis while w stays fixed.
    """
    u = np.asarray(u0, dtype=float)
    w = np.asarray(omega, dtype=float)
    u = u / np.linalg.norm(u)
    w = w - (w @ u) * u
    return gr.constant_field(g, u), gr.constant_field(g, w)


def step(u_n, w_n, tau, cfg: SolverConfig, g: Grid2D, guess=None):
    """Advance one interval of length tau; returns (u_np1, w_np1, iterations).

    The iteration is Gauss-Seidel: each sweep updates u from the current
    midpoints, refreshes mu from the new u, and updates w from that mu;
    mw follows from the new w.  It stops once the max-norm change of both
    iterates is <= cfg.fp_tol.  The iteration starts from ``guess = (u_g,
    w_g)``, by default (u_n, w_n): the first sweep uses the midpoints
    (u_n + u_g)/2 and (w_n + w_g)/2, and the first convergence test
    compares with the guess.  A good guess, such as the extrapolated
    last step, saves sweeps; the fixed point and the stopping rule stay.
    The sweeps allocate nothing: every field they write (the midpoints,
    one cross/scale buffer, which is also the Laplacian's scratch, the
    Laplacian, a scalar scratch and two rotating (u, w) iterate pairs) is
    allocated once per call.  u_n, w_n and the guess are only read, and
    the returned fields are fresh arrays that belong to the caller.
    Negative tau is allowed (the midpoint map is time-symmetric), zero is
    not.  Raises NonConvergence when the cap is hit, which signals that
    |tau| is above the convergence threshold of the iteration.
    """
    if tau == 0.0:
        raise ValueError("tau must be nonzero")
    shape = u_n.shape
    mu, mw, c, lap = (np.empty(shape) for _ in range(4))
    s = np.empty(shape[:2])
    us = (np.empty(shape), np.empty(shape))
    ws = (np.empty(shape), np.empty(shape))
    u, w = (u_n, w_n) if guess is None else guess
    np.add(u_n, u, out=mu)  # midpoints of the start; (x + x) * 0.5 == x exactly
    mu *= 0.5
    np.add(w_n, w, out=mw)
    mw *= 0.5
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, FP_MAX_ITER + 1):
            u_new, w_new = us[it % 2], ws[it % 2]
            gr.cross(mu, mw, out=c, tmp=s)  # u_new = u_n + tau * (mu x mw)
            c *= tau
            np.add(u_n, c, out=u_new)
            np.add(u_n, u_new, out=mu)  # mu = (u_n + u_new) / 2
            mu *= 0.5
            gr.laplacian(mu, g, out=lap, tmp=c)  # w_new = w_n + tau * (lap mu x mu)
            gr.cross(lap, mu, out=c, tmp=s)
            c *= tau
            np.add(w_n, c, out=w_new)
            np.add(w_n, w_new, out=mw)  # mw = (w_n + w_new) / 2
            mw *= 0.5
            np.subtract(u_new, u, out=c)
            du = float(np.abs(c, out=c).max())
            np.subtract(w_new, w, out=c)
            dw = float(np.abs(c, out=c).max())
            u, w = u_new, w_new
            if not (math.isfinite(du) and math.isfinite(dw)):
                raise NonConvergence(it)  # iteration diverged outright
            if du <= cfg.fp_tol and dw <= cfg.fp_tol:
                return u, w, it
    raise NonConvergence(FP_MAX_ITER)


def energy(u, w, g: Grid2D) -> float:
    """Discrete energy 1/2 (||w||^2 + dirichlet_form(u)) conserved by the scheme."""
    kinetic = gr.integrate(gr.dot(w, w), g)
    return 0.5 * (kinetic + gr.dirichlet_form(u, g))
