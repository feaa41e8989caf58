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
reconstruction, valid uniformly on the interval.  check_smallness is the
one test of that condition: residual_bounds assumes it and does not test
it again, so every caller tests it first.  The bound record also
keeps the majorants W = C_w + tau * B_w >= |wtilde| (hence >= |utilde x
wtilde|) and G = 2 (C_u_x + tau * B_u_x) >= |grad utilde|, which
residual_bounds forms once; the two scalar rates read only that record:

    alpha_hat = ||bd_rg + bd_ru * W + bd_rw||_2 + ||bd_ru||_2 + ||bd_grad_ru||_2
    delta_hat = 1 + C_Q ||G^2 + W^2||_p + 2 C_Q ||W||_2p^2
                + 2 C_Q ||G||_2p ||W||_2p + 4 ||W||_inf

with bd_ru = bd_ru1 + bd_ru2 + bd_ru3 and bd_grad_ru the sum of the
three gradient parts.  The exponent p = P_EXP and the embedding constant
C_Q are fixed by the stability estimate, not settings.  The total bound
obeys the recurrence

    B_j = (B_{j-1} + int_alpha_j) * exp(int_delta_j / 2),

where the per-interval integrals are tau * alpha_hat and tau * delta_hat
because the bounds are constant on each interval.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import grid as gr
from .grid import Grid2D
from .scheme import StepRecord

# the squared Sobolev embedding constant C_Q belongs to the exponent P_EXP > 2
# of the stability estimate; changing either alone voids the bound
C_Q = 4.0
P_EXP = 4.0

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
    """Point-wise residual bounds on one interval and the majorants W and G."""

    bd_ru1: np.ndarray
    bd_grad_ru1: np.ndarray
    bd_ru2: np.ndarray
    bd_grad_ru2: np.ndarray
    bd_ru3: np.ndarray
    bd_grad_ru3: np.ndarray
    bd_rw: np.ndarray
    bd_rg: np.ndarray
    W: np.ndarray
    G: np.ndarray


def _magnitudes(d: np.ndarray, g: Grid2D):
    """(|d|, |grad d|) of one endpoint difference d."""
    return gr.magnitude(d), gr.grad_magnitude(d, g)


def local_quantities(rec: StepRecord, g: Grid2D) -> LocalBounds:
    """Assemble every node-wise quantity entering the residual bounds.

    Each endpoint difference is alive only while its magnitudes are formed.
    """
    e0, e1 = rec.ends
    A_u, A_u_x = _magnitudes(rec.u_np1 - rec.u_n, g)
    A_w, A_w_x = _magnitudes(rec.w_np1 - rec.w_n, g)
    P = e1.u_x_w - e0.u_x_w
    B_u, B_u_x = _magnitudes(P, g)
    B_u_xx = gr.magnitude(gr.laplacian(P, g))
    del P
    B_w, B_w_x = _magnitudes(e1.lap_u_x_u - e0.lap_u_x_u, g)
    return LocalBounds(
        A_u=A_u,
        A_u_x=A_u_x,
        A_u_xx=gr.magnitude(e1.lap_u - e0.lap_u),
        A_w=A_w,
        A_w_x=A_w_x,
        B_u=B_u,
        B_u_x=B_u_x,
        B_u_xx=B_u_xx,
        B_w=B_w,
        B_w_x=B_w_x,
        C_w=np.maximum(e0.mag_w, e1.mag_w),
        C_u_x=np.maximum(e0.grad_u, e1.grad_u),
        C_w_x=np.maximum(e0.grad_w, e1.grad_w),
        C_u_xx=np.maximum(e0.mag_lap_u, e1.mag_lap_u),
    )


def check_smallness(lb: LocalBounds, tau: float) -> bool:
    """True iff A_u^2 + tau * B_u < 1/4 at every node."""
    return bool(np.all(lb.A_u**2 + tau * lb.B_u < 0.25))


def residual_bounds(lb: LocalBounds, tau: float) -> ResidualBoundFields:
    """Evaluate the point-wise bound formulas.

    The bounds hold only where check_smallness(lb, tau) is True, and every
    caller tests that first; this function does not test it again.
    """
    A_u, A_u_x, A_u_xx = lb.A_u, lb.A_u_x, lb.A_u_xx
    A_w, A_w_x = lb.A_w, lb.A_w_x
    B_u, B_u_x, B_u_xx = lb.B_u, lb.B_u_x, lb.B_u_xx
    B_w, B_w_x = lb.B_w, lb.B_w_x
    C_w, C_u_x, C_w_x, C_u_xx = lb.C_w, lb.C_u_x, lb.C_w_x, lb.C_u_xx

    # Every repeated subexpression is evaluated once, with the association
    # of the formula as written: C_w * tau * B_u is (C_w * tau) * B_u and
    # keeps its own rounding, so only identical trees are shared, and
    # (tau**2 * B_u) * B_u_x and (tau**2 * B_u_x) * B_u stay apart.  Sums
    # accumulate in place, and each shared field is deleted after its last
    # use: the call's peak memory stays below that of local_quantities.
    A_u2 = A_u**2
    tB_u = tau * B_u
    tB_w = tau * B_w
    small = A_u2 + tB_u

    # S bounds |utilde . wtilde| on the interval
    S = tB_w + C_w * small
    del small
    S += A_u * A_w
    W = C_w + tB_w
    bd_rg = W * S
    bd_rg += S**2
    del S

    bd_ru2 = 0.25 * A_u * A_w
    X = tB_w + C_w * A_u2
    del tB_w
    bd_ru1 = X + C_w * tau * B_u
    bd_ru1 += bd_ru2

    tB_u_x = tau * B_u_x
    Gx = C_u_x + tB_u_x
    A_x = A_u_x * A_u + tB_u_x
    A_xC = A_x + C_u_x * tau * B_u
    AxW = A_u_x * A_w
    AWx = A_u * A_w_x
    bd_grad_ru1 = Gx * X
    del X
    bd_grad_ru1 += tau * B_w_x
    bd_grad_ru1 += C_w * (A_xC + tau**2 * B_u * B_u_x)
    bd_grad_ru1 += A_u2 * C_w_x
    bd_grad_ru1 += tB_u_x * C_w
    del tB_u_x
    bd_grad_ru1 += tB_u * C_w_x
    bd_grad_ru1 += AxW
    bd_grad_ru1 += AWx
    bd_grad_ru2 = AxW
    bd_grad_ru2 += AWx
    bd_grad_ru2 *= 0.25
    del AxW, AWx

    t2B_u_xB_u = tau**2 * B_u_x * B_u
    bd_rw = (C_u_xx + tau * B_u_xx) * ((7.0 / 3.0) * A_u2 + (11.0 / 3.0) * tau * B_u)
    bd_rw += 2.25 * A_u_xx * A_u
    bd_rw += A_u_x**2
    A_x += (1.0 + C_u_x) * tau * B_u
    A_x += t2B_u_xB_u
    G = 2.0 * Gx
    A_x *= G
    bd_rw += A_x
    del A_x, Gx

    proj_defect = (4.0 / 3.0) * A_u2 + (8.0 / 3.0) * tau * B_u
    del A_u2
    C_wAA = C_w + bd_ru2
    bd_ru3 = C_wAA * proj_defect
    bd_ru3 += 4.0 * A_u * A_w * (2.0 + tB_u)
    del tB_u
    bd_ru3 += 4.0 * C_w * tau * B_u

    K = C_u_x * C_w + C_w_x
    bd_grad_ru3 = K + 0.25 * A_u_x * A_w
    bd_grad_ru3 += 0.25 * A_u * A_w_x
    bd_grad_ru3 *= proj_defect
    del proj_defect
    bd_grad_ru3 += 1.5 * A_u_x * A_w
    bd_grad_ru3 += 2.0 * A_u * C_u_x * A_w
    bd_grad_ru3 += 1.5 * A_u * A_w_x
    bd_grad_ru3 += K * tau * B_u
    del K
    bd_grad_ru3 += C_w * tau * B_u_x
    A_xC += t2B_u_xB_u
    del t2B_u_xB_u
    A_xC *= 8.0 * C_wAA
    bd_grad_ru3 += A_xC

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


def alpha_hat(rbf: ResidualBoundFields, g: Grid2D) -> float:
    """Interval-uniform upper bound for the residual rate alpha.

    bd_ru, the combined integrand and bd_grad_ru are summed in place in
    the order of the formula, the last two in one buffer; each equals the
    allocating expression bit for bit.
    """
    bd_ru = np.add(rbf.bd_ru1, rbf.bd_ru2)
    bd_ru += rbf.bd_ru3
    s = np.multiply(bd_ru, rbf.W)
    s += rbf.bd_rg  # bd_rg + bd_ru * W
    s += rbf.bd_rw
    rate = gr.lp_norm(s, 2.0, g) + gr.lp_norm(bd_ru, 2.0, g)
    np.add(rbf.bd_grad_ru1, rbf.bd_grad_ru2, out=s)
    s += rbf.bd_grad_ru3
    return rate + gr.lp_norm(s, 2.0, g)


def delta_hat(rbf: ResidualBoundFields, g: Grid2D) -> float:
    """Interval-uniform upper bound for the Gronwall rate delta."""
    W, G = rbf.W, rbf.G
    A_hat = G * G
    A_hat += W * W
    norm_W = gr.lp_norm(W, 2.0 * P_EXP, g)
    norm_G = gr.lp_norm(G, 2.0 * P_EXP, g)
    return (
        1.0
        + C_Q * gr.lp_norm(A_hat, P_EXP, g)
        + 2.0 * C_Q * norm_W**2
        + 2.0 * C_Q * norm_G * norm_W
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


def growth_factor(int_delta: float) -> float:
    """exp(int_delta / 2), the bound's growth over one interval; inf once
    exp overflows (past about 709.8) instead of raising."""
    return math.exp(0.5 * int_delta) if int_delta < 1416.0 else math.inf


def accumulate(state: EstimatorState, int_alpha: float, int_delta: float) -> EstimatorState:
    """Advance the bound recurrence by one interval (mutates and returns state)."""
    if not (int_alpha >= 0.0 and int_delta >= 0.0):
        raise ValueError(f"interval integrals must be nonnegative, got {int_alpha}, {int_delta}")
    total = state.B_j + int_alpha
    state.B_j = total * growth_factor(int_delta) if total > 0.0 else 0.0  # 0 * inf would be nan
    log_a = math.log(int_alpha) if int_alpha > 0.0 else -math.inf
    state.log_B = float(np.logaddexp(state.log_B, log_a)) + 0.5 * int_delta
    state.A_total += int_alpha
    state.D_total += int_delta
    return state
