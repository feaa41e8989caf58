"""Time-continuous reconstructions of the discrete solution and their residuals.

On one interval [t0, t1] with endpoint states (u0, w0), (u1, w1) the
piecewise quadratic reconstructions are

    ustar(t)  = uhat(t) - 1/2 * b(t) * (u1 x w1 - u0 x w0),
    wtilde(t) = what(t) - 1/2 * b(t) * (lap(u1) x u1 - lap(u0) x u0),

where uhat/what are the linear interpolants and b(t) = (t - t0)(t1 - t)/tau
is the interval bubble.  They interpolate the endpoint states, are globally
continuous, and satisfy exactly

    d/dt ustar  = I1[uhat x what]        - a_u,
    d/dt wtilde = I1[lap(uhat) x uhat]   - a_w,

with I1 the linear interpolant of endpoint values and the midpoint defects
a_u = 1/4 (u1 - u0) x (w1 - w0), a_w = 1/4 (lap u1 - lap u0) x (u1 - u0).
The sphere-valued reconstruction is utilde = ustar / |ustar|.  lap u and
the endpoint products u x w, lap(u) x u come from the record's ``ends``.

The residual fields returned by eval_residuals carry the signs that make

    d/dt utilde = utilde x wtilde + (r_u1 + r_u2 + r_u3)
    d/dt wtilde = lap(utilde) x utilde + r_w

hold node-wise (lap is the discrete operator throughout, applied to the
assembled utilde field).  The bound formulas in the estimator module
control the magnitudes of the individual parts.
"""

from dataclasses import dataclass

import numpy as np

from . import grid as gr
from .scheme import StepRecord

# reject reconstruction states that left the guaranteed-norm regime entirely
MIN_USTAR_NORM = 0.25


class DegenerateNorm(Exception):
    """|ustar| dropped below the evaluable threshold; the step was far too large."""


@dataclass
class ResidualSample:
    """All residual parts of one interval evaluated at one interior time."""

    t: float
    r_u1: np.ndarray
    r_u2: np.ndarray
    r_u3: np.ndarray
    r_w: np.ndarray
    r_g: np.ndarray

    @property
    def r_u(self) -> np.ndarray:
        return self.r_u1 + self.r_u2 + self.r_u3


def a_terms(rec: StepRecord):
    """Midpoint defect fields (a_u, a_w) of the rewritten scheme."""
    e0, e1 = rec.ends
    du = rec.u_np1 - rec.u_n
    dw = rec.w_np1 - rec.w_n
    dlap = e1.lap_u - e0.lap_u
    return 0.25 * gr.cross(du, dw), 0.25 * gr.cross(dlap, du)


def _reconstruct(rec: StepRecord, t: float):
    """(ustar, wtilde, l1, du, P, Q) at time t.

    l1 is the linear interpolation weight, du = u1 - u0, and P, Q are the
    endpoint differences of u x w and lap(u) x u.
    """
    e0, e1 = rec.ends
    l1 = (t - rec.t_n) / rec.tau
    du = rec.u_np1 - rec.u_n
    P = e1.u_x_w - e0.u_x_w
    Q = e1.lap_u_x_u - e0.lap_u_x_u
    b = 0.5 * ((t - rec.t_n) * (rec.t_np1 - t) / rec.tau)  # half the interval bubble
    ustar = rec.u_n + l1 * du - b * P
    wtilde = rec.w_n + l1 * (rec.w_np1 - rec.w_n) - b * Q
    return ustar, wtilde, l1, du, P, Q


def _normalize(ustar: np.ndarray, t: float):
    """(ustar / |ustar|, |ustar|); raises DegenerateNorm."""
    norm = gr.magnitude(ustar)
    if float(norm.min()) < MIN_USTAR_NORM:
        raise DegenerateNorm(f"|ustar| fell to {norm.min():.3g} at t={t}")
    return ustar / norm[..., None], norm


def eval_ustar_wtilde(rec: StepRecord, t: float):
    """Quadratic reconstructions (ustar, wtilde) at time t in [t_n, t_np1]."""
    return _reconstruct(rec, t)[:2]


def eval_utilde(rec: StepRecord, t: float):
    """Sphere-valued reconstruction ustar/|ustar|; raises DegenerateNorm."""
    return _normalize(_reconstruct(rec, t)[0], t)[0]


def eval_residuals(rec: StepRecord, t: float) -> ResidualSample:
    """Sample every residual part at an interior time of the interval."""
    if not rec.t_n < t < rec.t_np1:
        raise ValueError(f"sample time {t} not inside ({rec.t_n}, {rec.t_np1})")
    g = rec.grid
    tau = rec.tau
    e0 = rec.ends[0]
    ustar, wtilde, l1, du, P, Q = _reconstruct(rec, t)
    utilde, norm = _normalize(ustar, t)
    a_u, a_w = a_terms(rec)

    # d/dt of the quadratic: linear slope minus bubble-rate times the defect
    dustar = du / tau - 0.5 * ((rec.t_n + rec.t_np1 - 2.0 * t) / tau) * P
    proj = gr.dot(ustar, dustar) / norm**3
    dutilde = dustar / norm[..., None] - proj[..., None] * ustar

    r_u1 = e0.u_x_w + l1 * P - gr.cross(utilde, wtilde)
    r_u2 = -a_u
    r_u3 = dutilde - dustar

    lap_utilde = gr.laplacian(utilde, g)
    r_w = e0.lap_u_x_u + l1 * Q - gr.cross(lap_utilde, utilde) - a_w

    s = gr.dot(utilde, wtilde)
    r_g = s[..., None] * wtilde - (s * s)[..., None] * utilde
    return ResidualSample(t=t, r_u1=r_u1, r_u2=r_u2, r_u3=r_u3, r_w=r_w, r_g=r_g)
