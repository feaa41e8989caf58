"""Time-step controller driven by the per-step residual-rate density.

Two strategies:

  * equidistribute: accept while the density alpha_hat stays below a fixed
    tolerance, reject and shrink otherwise.
  * updated: same accept/reject rule, but after every accepted step the
    tolerance grows by exp(tau * delta_hat / 2).  Later errors are amplified
    by a smaller remaining Gronwall factor, so they may be allowed to be
    larger; this avoids over-refining near the end of the run.  Once the
    factor overflows, the tolerance is inf and every evaluable step passes.

Fixed-step runs use a third, internal strategy, ``fixed``: accept every
step whatever its density and never grow the step.

A non-converged nonlinear solve, a failed smallness condition, or a rate
that is not finite always forces a rejection with the shrink factor,
independent of the strategy and the tolerance.
"""

import math
from dataclasses import dataclass

EQUIDISTRIBUTE = "equidistribute"
UPDATED_TOLERANCE = "updated"
FIXED = "fixed"


class StepFloor(Exception):
    """A rejection would push tau below tau_min; the run cannot continue."""


@dataclass(frozen=True)
class Decision:
    accepted: bool
    tau_next: float  # next step size (accept) or retry step size (reject)


@dataclass
class AdaptiveController:
    strategy: str = EQUIDISTRIBUTE
    tol0: float = 1e-4
    grow: float = 1.2
    shrink: float = 0.5
    safety: float = 0.4
    tau_min: float = 2.0**-20
    tau_max: float = 2.0**-6
    current_tol: float = None

    def __post_init__(self):
        if self.strategy not in (EQUIDISTRIBUTE, UPDATED_TOLERANCE, FIXED):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not 0.0 < self.shrink < 1.0 < self.grow:
            raise ValueError("need 0 < shrink < 1 < grow")
        if not 0.0 < self.safety < 1.0:
            raise ValueError("need 0 < safety < 1")
        if not self.tau_min > 0.0:
            raise ValueError("tau_min must be positive")
        if self.tau_min > self.tau_max:
            raise ValueError("need tau_min <= tau_max")
        if self.tol0 <= 0.0:
            raise ValueError("tol0 must be positive")
        if self.current_tol is None:
            self.current_tol = self.tol0


def decide(ctrl: AdaptiveController, tau: float, alpha_hat_j: float,
           delta_hat_j: float, fp_converged: bool) -> Decision:
    """Accept/reject the step just computed and propose the next step size.

    ``fp_converged`` is False when the step cannot be evaluated: the
    nonlinear solve failed or the smallness condition broke.  The density
    compared against the tolerance is alpha_hat itself, since the interval
    integral of the bound is exactly tau * alpha_hat.  Under the updated
    strategy an accept also grows the current tolerance.
    """
    if not (fp_converged and math.isfinite(alpha_hat_j) and math.isfinite(delta_hat_j)):
        return _reject(ctrl, tau)
    if ctrl.strategy == FIXED:
        return Decision(accepted=True, tau_next=tau)
    density = alpha_hat_j
    if density > ctrl.current_tol:
        return _reject(ctrl, tau)
    if density < ctrl.safety * ctrl.current_tol:
        tau_next = min(tau * ctrl.grow, ctrl.tau_max)
    else:
        tau_next = tau
    if ctrl.strategy == UPDATED_TOLERANCE:
        half_int_delta = 0.5 * tau * delta_hat_j
        # saturate at inf like the bound's own growth factor (exp overflows past ~709.8)
        ctrl.current_tol *= math.exp(half_int_delta) if half_int_delta < 708.0 else math.inf
    return Decision(accepted=True, tau_next=tau_next)


def _reject(ctrl: AdaptiveController, tau: float) -> Decision:
    tau_retry = tau * ctrl.shrink
    if tau_retry < ctrl.tau_min:
        raise StepFloor(f"retry step {tau_retry:.3e} below tau_min {ctrl.tau_min:.3e}")
    return Decision(accepted=False, tau_next=tau_retry)
