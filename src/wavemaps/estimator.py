"""Computable residual bounds and the accumulated error estimate.

From one StepRecord the node-wise quantities

    A_u  = |u1 - u0|          A_u_x  = |grad (u1 - u0)|   A_u_xx = |lap (u1 - u0)|
    A_w  = |w1 - w0|          A_w_x  = |grad (w1 - w0)|
    B_u  = |u1 x w1 - u0 x w0|            (+ _x, _xx variants)
    B_w  = |lap u1 x u1 - lap u0 x u0|    (+ _x variant)
    C_w  = max(|w0|, |w1|)    C_u_x, C_w_x, C_u_xx analogous maxima

are assembled with the grid module's centered/5-point operators.  The
factors that depend on one state alone (u x w, lap u x u, |w|, |grad u|,
|grad w|, |lap u|) are read from the record's EndpointTerms, so a run
computes them once per accepted state and uses them on both intervals
that state bounds.  Under the smallness condition A_u^2 + tau * B_u < 1/4
they yield point-wise upper bounds for each residual part of the
reconstruction, valid uniformly on the interval.  The bounds feed two
scalar rates:

    alpha_hat = ||bd_rg + bd_ru * W + bd_rw||_2 + ||bd_ru||_2 + ||bd_grad_ru||_2
    delta_hat = 1 + c_q ||G^2 + W^2||_p + 2 c_q ||W||_2p^2
                + 2 c_q ||G||_2p ||W||_2p + 4 ||W||_inf

with the majorants W = C_w + tau * B_w >= |wtilde| (hence >= |utilde x wtilde|)
and G = 2 (C_u_x + tau * B_u_x) >= |grad utilde|.  The total bound obeys
the recurrence

    B_j = (B_{j-1} + int_alpha_j) * exp(int_delta_j / 2),

where the per-interval integrals are tau * alpha_hat and tau * delta_hat
because the bounds are constant on each interval.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import grid as gr
from .grid import Grid2D
from .scheme import SolverConfig, StepRecord

class SmallnessViolated(Exception):
    """A_u^2 + tau * B_u reached 1/4 somewhere; the step size must be reduced."""


@dataclass
class LocalBounds:
    """Node-wise endpoint-difference magnitudes and endpoint maxima."""

    A_u: np.ndarray
    A_u_x: np.ndarray
    A_u_xx: np.ndarray
    A_w: np.ndarray
    A_w_x: np.ndarray
    B_u: np.ndarray
    B_u_x: np.ndarray
    B_u_xx: np.ndarray
    B_w: np.ndarray
    B_w_x: np.ndarray
    C_w: np.ndarray
    C_u_x: np.ndarray
    C_w_x: np.ndarray
    C_u_xx: np.ndarray


@dataclass
class ResidualBoundFields:
    """Point-wise upper bounds for the residual parts on one interval."""

    bd_ru1: np.ndarray
    bd_grad_ru1: np.ndarray
    bd_ru2: np.ndarray
    bd_grad_ru2: np.ndarray
    bd_ru3: np.ndarray
    bd_grad_ru3: np.ndarray
    bd_rw: np.ndarray
    bd_rg: np.ndarray

    @property
    def bd_ru(self) -> np.ndarray:
        return self.bd_ru1 + self.bd_ru2 + self.bd_ru3

    @property
    def bd_grad_ru(self) -> np.ndarray:
        return self.bd_grad_ru1 + self.bd_grad_ru2 + self.bd_grad_ru3


def local_quantities(rec: StepRecord, g: Grid2D) -> LocalBounds:
    """Assemble every node-wise quantity entering the residual bounds."""
    e0, e1 = rec.ends
    du = rec.u_np1 - rec.u_n
    dw = rec.w_np1 - rec.w_n
    dlap = e1.lap_u - e0.lap_u
    P = e1.u_x_w - e0.u_x_w
    Q = e1.lap_u_x_u - e0.lap_u_x_u
    return LocalBounds(
        A_u=gr.magnitude(du),
        A_u_x=gr.grad_magnitude(du, g),
        A_u_xx=gr.magnitude(dlap),
        A_w=gr.magnitude(dw),
        A_w_x=gr.grad_magnitude(dw, g),
        B_u=gr.magnitude(P),
        B_u_x=gr.grad_magnitude(P, g),
        B_u_xx=gr.magnitude(gr.laplacian(P, g)),
        B_w=gr.magnitude(Q),
        B_w_x=gr.grad_magnitude(Q, g),
        C_w=np.maximum(e0.mag_w, e1.mag_w),
        C_u_x=np.maximum(e0.grad_u, e1.grad_u),
        C_w_x=np.maximum(e0.grad_w, e1.grad_w),
        C_u_xx=np.maximum(e0.mag_lap_u, e1.mag_lap_u),
    )


def check_smallness(lb: LocalBounds, tau: float) -> bool:
    """True iff A_u^2 + tau * B_u < 1/4 at every node."""
    return bool(np.all(lb.A_u**2 + tau * lb.B_u < 0.25))


def residual_bounds(lb: LocalBounds, tau: float) -> ResidualBoundFields:
    """Evaluate the point-wise bound formulas; requires the smallness condition."""
    A_u, A_u_x, A_u_xx = lb.A_u, lb.A_u_x, lb.A_u_xx
    A_w, A_w_x = lb.A_w, lb.A_w_x
    B_u, B_u_x, B_u_xx = lb.B_u, lb.B_u_x, lb.B_u_xx
    B_w, B_w_x = lb.B_w, lb.B_w_x
    C_w, C_u_x, C_w_x, C_u_xx = lb.C_w, lb.C_u_x, lb.C_w_x, lb.C_u_xx

    # shared subexpressions; a product like C_w * tau * B_u is (C_w * tau) * B_u
    # and keeps its own rounding, so only standalone tau * B products are reused
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

    # S bounds |utilde . wtilde| on the interval
    S = tB_w + C_w * (A_u2 + tB_u) + A_u * A_w
    bd_rg = (C_w + tB_w) * S + S**2

    return ResidualBoundFields(
        bd_ru1=bd_ru1,
        bd_grad_ru1=bd_grad_ru1,
        bd_ru2=bd_ru2,
        bd_grad_ru2=bd_grad_ru2,
        bd_ru3=bd_ru3,
        bd_grad_ru3=bd_grad_ru3,
        bd_rw=bd_rw,
        bd_rg=bd_rg,
    )


def alpha_hat(rbf: ResidualBoundFields, lb: LocalBounds, tau: float, g: Grid2D) -> float:
    """Interval-uniform upper bound for the residual rate alpha."""
    W = lb.C_w + tau * lb.B_w
    bd_ru = rbf.bd_ru
    combined = rbf.bd_rg + bd_ru * W + rbf.bd_rw
    return (
        gr.lp_norm(combined, 2.0, g)
        + gr.lp_norm(bd_ru, 2.0, g)
        + gr.lp_norm(rbf.bd_grad_ru, 2.0, g)
    )


def delta_hat(lb: LocalBounds, tau: float, cfg: SolverConfig, g: Grid2D) -> float:
    """Interval-uniform upper bound for the Gronwall rate delta."""
    W = lb.C_w + tau * lb.B_w
    G = 2.0 * (lb.C_u_x + tau * lb.B_u_x)
    A_hat = G * G + W * W
    p = cfg.p_exp
    norm_W = gr.lp_norm(W, 2.0 * p, g)
    norm_G = gr.lp_norm(G, 2.0 * p, g)
    return (
        1.0
        + cfg.c_q * gr.lp_norm(A_hat, p, g)
        + 2.0 * cfg.c_q * norm_W**2
        + 2.0 * cfg.c_q * norm_G * norm_W
        + 4.0 * gr.lp_norm(W, math.inf, g)
    )


@dataclass
class EstimatorState:
    """Running accumulator for the total error bound.

    B_j bounds the energy-norm distance at t_j; log_B carries the same
    recurrence in log space so runs whose growth factor overflows the
    linear representation still produce comparable numbers.
    """

    b0: float = 0.0
    B_j: float = field(init=False)
    log_B: float = field(init=False)
    A_total: float = field(default=0.0, init=False)
    D_total: float = field(default=0.0, init=False)

    def __post_init__(self):
        self.B_j = self.b0
        self.log_B = math.log(self.b0) if self.b0 > 0.0 else -math.inf


def accumulate(state: EstimatorState, int_alpha: float, int_delta: float) -> EstimatorState:
    """Advance the bound recurrence by one interval (mutates and returns state)."""
    if not (int_alpha >= 0.0 and int_delta >= 0.0):
        raise ValueError(f"interval integrals must be nonnegative, got {int_alpha}, {int_delta}")
    growth = math.exp(0.5 * int_delta) if int_delta < 1416.0 else math.inf
    total = state.B_j + int_alpha
    state.B_j = total * growth if total > 0.0 else 0.0  # 0 * inf would be nan
    log_a = math.log(int_alpha) if int_alpha > 0.0 else -math.inf
    state.log_B = float(np.logaddexp(state.log_B, log_a)) + 0.5 * int_delta
    state.A_total += int_alpha
    state.D_total += int_delta
    return state
