"""Accuracy-based adaptive step-size controller.

The trial step is accepted when the relative increment
e = ||phi_new - phi_old|| / ||phi_new|| falls below the tolerance; the next
step is then min{max{TAU_MIN, tau_ada}, TAU_MAX} with the update factor

  tau_ada(e, tau) = min{RATIO_CAP, RHO * sqrt(TOL / e)} * tau.

A too-large increment triggers recomputation with the shrunken step unless
the trial step already sits at TAU_MIN, which forces acceptance.  A trial
step whose nonlinear solve fails (SolverError or ConditioningError) is also
rejected, and the step shrinks by the fixed factor FAIL_SHRINK; the failure
is raised only when it happens at TAU_MIN.  Rejection discards the trial
solution only; history is untouched.

The settings are the paper's, fixed as module constants and read at call
time, so a test can patch them on this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, l2_norm
from .model import PfcParams
from .steppers import (ConditioningError, SolverError, SolveStats, StepperState,
                       bdf2_step)

RHO = 0.9           # safety factor of the update
TOL = 1e-3          # accepted relative increment: e < TOL
TAU_MAX = 0.5       # largest step
TAU_MIN = 1e-4      # smallest step, where a trial is accepted whatever its increment
RATIO_CAP = 3.561   # largest step ratio, just under the S1 bound r_sup = (3 + sqrt(17))/2
FAIL_SHRINK = 0.25  # step factor after a failed nonlinear solve


def tau_ada(e: float, tau_cur: float) -> float:
    if not (tau_cur > 0):
        raise ValueError("tau_cur must be positive")
    if not (e >= 0.0):
        raise ValueError("e must be non-negative")
    if e == 0.0:
        return RATIO_CAP * tau_cur  # growth capped when the increment vanishes
    return min(RATIO_CAP, RHO * np.sqrt(TOL / e)) * tau_cur


@dataclass
class AdaptiveStep:
    phi: Field
    tau_accepted: float
    tau_next: float
    e_rel: float
    rejections: int
    stats: SolveStats


def adaptive_advance(state: StepperState, tau_trial: float, p: PfcParams) -> AdaptiveStep:
    """Advance one accepted level, possibly after rejections."""
    tau = tau_trial
    rejections = 0
    while True:
        try:
            phi_new, stats = bdf2_step(state, tau, p)
        except (SolverError, ConditioningError):
            if tau <= TAU_MIN * (1.0 + 1e-12):
                raise
            tau = max(TAU_MIN, FAIL_SHRINK * tau)
            rejections += 1
            continue
        num = l2_norm(phi_new.values - state.phi_prev.values, phi_new.grid)
        denom = l2_norm(phi_new.values, phi_new.grid)
        e = num if denom < 1e-14 else num / denom
        if e < TOL:
            tau_next = min(max(TAU_MIN, tau_ada(e, tau)), TAU_MAX)
            return AdaptiveStep(phi_new, tau, tau_next, e, rejections, stats)
        if tau <= TAU_MIN * (1.0 + 1e-12):
            return AdaptiveStep(phi_new, tau, TAU_MIN, e, rejections, stats)
        tau = max(TAU_MIN, tau_ada(e, tau))
        rejections += 1


def adaptive_run(phi0: Field, T: float, p: PfcParams, observer=None):
    """Run the controller until time T and return the final state.

    The first trial step is TAU_MIN.  ``observer(state, stats)`` is called
    after every accepted step with the solve stats of that step; the state
    carries the accepted step as ``tau_prev`` and its time as ``t``.  T must
    be positive and finite: NaN would return phi0 without a step, and inf
    would never stop.  phi0 must be on the parameters' grid.
    """
    if not (0 < T < np.inf):
        raise ValueError(f"T must be positive and finite, got {T}")
    if phi0.grid != p.grid:
        raise ValueError(f"phi0 is on {phi0.grid} but the parameters on {p.grid}")
    state = StepperState(phi0)
    tau_next = TAU_MIN
    while state.t < T * (1.0 - 1e-12):
        tau_trial = min(tau_next, T - state.t)
        step = adaptive_advance(state, tau_trial, p)
        state = state.advanced(step.phi, step.tau_accepted)
        tau_next = step.tau_next
        if observer is not None:
            observer(state, step.stats)
    return state
