"""Time-step controller driven by the per-step residual-rate density.

Two strategies:

  * equidistribute: accept while the density alpha_hat stays below a fixed
    tolerance, reject and shrink otherwise.
  * updated: same accept/reject rule, but after every accepted step the
    tolerance grows by exp(tau * delta_hat / 2).  Later errors are amplified
    by a smaller remaining Gronwall factor, so they may be allowed to be
    larger; this avoids over-refining near the end of the run.  Once the
    factor overflows, the tolerance is inf and every evaluable step passes.

Fixed-step runs take no controller: ``decide(None, ...)`` accepts every
step that can be evaluated, whatever its density, and never grows it.

A rejected attempt is retried at half its size (SHRINK) under every
policy.  A non-converged nonlinear solve, a failed smallness condition,
or a rate that is not finite always forces a rejection, independent of
the policy and the tolerance.

The controller holds settings only.  The running tolerance is state of
one run: the caller passes it to ``decide`` and carries ``tol_next``
forward.  The step floor is the run's ``RunConfig.tau_min``.
"""

import math
from dataclasses import dataclass

from .estimator import growth_factor

EQUIDISTRIBUTE = "equidistribute"
UPDATED_TOLERANCE = "updated"

# step-size gains; the a posteriori bound does not depend on them.  An
# accept whose density is below SAFETY * tol grows the step by GROW.
GROW = 1.2
SHRINK = 0.5
SAFETY = 0.4


@dataclass(frozen=True)
class Decision:
    accepted: bool
    tau_next: float  # next step size (accept) or retry step size (reject)
    tol_next: float | None  # tolerance for the next attempt; None without a controller


@dataclass(frozen=True)
class AdaptiveController:
    strategy: str = EQUIDISTRIBUTE
    tol0: float = 1e-4  # tolerance of a run's first attempt
    tau_max: float = 2.0**-6

    def __post_init__(self):
        if self.strategy not in (EQUIDISTRIBUTE, UPDATED_TOLERANCE):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not self.tau_max > 0.0:
            raise ValueError("tau_max must be positive")
        if not self.tol0 > 0.0:
            raise ValueError("tol0 must be positive")


def decide(ctrl: AdaptiveController | None, tau: float, alpha_hat_j: float,
           delta_hat_j: float, fp_converged: bool, tol: float | None) -> Decision:
    """Accept/reject the step just computed under tolerance ``tol`` and
    propose the next step size and tolerance.

    ``fp_converged`` is False when the step cannot be evaluated: the
    nonlinear solve failed or the smallness condition broke.  The density
    compared against the tolerance is alpha_hat itself, since the interval
    integral of the bound is exactly tau * alpha_hat.  Under the updated
    strategy an accept also grows the tolerance.  ``ctrl`` None is the
    fixed-step policy: accept every evaluable step at its own size.
    """
    if not (fp_converged and math.isfinite(alpha_hat_j) and math.isfinite(delta_hat_j)):
        return Decision(accepted=False, tau_next=tau * SHRINK, tol_next=tol)
    if ctrl is None:
        return Decision(accepted=True, tau_next=tau, tol_next=tol)
    density = alpha_hat_j
    if density > tol:
        return Decision(accepted=False, tau_next=tau * SHRINK, tol_next=tol)
    if density < SAFETY * tol:
        tau_next = min(tau * GROW, ctrl.tau_max)
    else:
        tau_next = tau
    if ctrl.strategy == UPDATED_TOLERANCE:
        tol *= growth_factor(tau * delta_hat_j)  # the bound's own growth, inf once it overflows
    return Decision(accepted=True, tau_next=tau_next, tol_next=tol)
