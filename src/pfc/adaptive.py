"""Accuracy-based adaptive step-size controller.

The trial step is accepted when the relative increment
e = ||phi_new - phi_old|| / ||phi_new|| falls below the tolerance; the next
step is then min{max{tau_min, tau_ada}, tau_max} with the update factor

  tau_ada(e, tau) = min{ratio_cap, rho * sqrt(tol / e)} * tau.

A too-large increment triggers recomputation with the shrunken step unless
the trial step already sits at tau_min, which forces acceptance.  A trial
step whose nonlinear solve fails (SolverError or ConditioningError) is also
rejected, and the step shrinks by the fixed factor FAIL_SHRINK; the failure
is raised only when it happens at tau_min.  Rejection discards the trial
solution only; history is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field
from .mesh import R_SUP
from .model import PfcParams
from .steppers import (ConditioningError, SolverError, SolveStats, StepperState,
                       bdf2_step)

FAIL_SHRINK = 0.25  # step factor after a failed nonlinear solve


@dataclass
class AdaptiveConfig:
    rho: float = 0.9
    tol: float = 1e-3
    tau_max: float = 0.5
    tau_min: float = 1e-4
    ratio_cap: float = 3.561

    def __post_init__(self):
        # each test is written to fail on NaN, which every comparison rejects
        if not (0 < self.tau_min < self.tau_max):
            raise ValueError("need 0 < tau_min < tau_max")
        if not (0 < self.rho <= 1) or not (self.tol > 0):
            raise ValueError("need 0 < rho <= 1 and tol > 0")
        if not (0 < self.ratio_cap <= R_SUP):
            raise ValueError(f"ratio_cap must lie in (0, {R_SUP:.4f}]")


def tau_ada(e: float, tau_cur: float, cfg: AdaptiveConfig) -> float:
    if not (tau_cur > 0):
        raise ValueError("tau_cur must be positive")
    if not (e >= 0.0):
        raise ValueError("e must be non-negative")
    if e == 0.0:
        return cfg.ratio_cap * tau_cur  # growth capped when the increment vanishes
    return min(cfg.ratio_cap, cfg.rho * np.sqrt(cfg.tol / e)) * tau_cur


@dataclass
class AdaptiveStep:
    phi: Field
    tau_accepted: float
    tau_next: float
    e_rel: float
    rejections: int
    stats: SolveStats


def _increment_norm(diff: np.ndarray, ref: np.ndarray, area: float) -> float:
    denom = float(np.sqrt(area * np.sum(ref * ref)))
    num = float(np.sqrt(area * np.sum(diff * diff)))
    if denom < 1e-14:
        return num
    return num / denom


def adaptive_advance(state: StepperState, tau_trial: float, cfg: AdaptiveConfig,
                     p: PfcParams) -> AdaptiveStep:
    """Advance one accepted level, possibly after rejections."""
    tau = tau_trial
    rejections = 0
    area = state.phi_prev.grid.cell_area
    while True:
        try:
            phi_new, stats = bdf2_step(state, tau, p)
        except (SolverError, ConditioningError):
            if tau <= cfg.tau_min * (1.0 + 1e-12):
                raise
            tau = max(cfg.tau_min, FAIL_SHRINK * tau)
            rejections += 1
            continue
        e = _increment_norm(phi_new.values - state.phi_prev.values,
                            phi_new.values, area)
        if e < cfg.tol:
            tau_next = min(max(cfg.tau_min, tau_ada(e, tau, cfg)), cfg.tau_max)
            return AdaptiveStep(phi_new, tau, tau_next, e, rejections, stats)
        if tau <= cfg.tau_min * (1.0 + 1e-12):
            return AdaptiveStep(phi_new, tau, cfg.tau_min, e, rejections, stats)
        tau = max(cfg.tau_min, tau_ada(e, tau, cfg))
        rejections += 1


def adaptive_run(phi0: Field, T: float, cfg: AdaptiveConfig, p: PfcParams,
                 tau_init: float | None = None, observer=None):
    """Run the controller until time T and return the final state.

    The first trial step defaults to tau_min; a given ``tau_init`` must lie
    in [tau_min, tau_max], as every later trial step does.
    ``observer(state, stats)`` is called after every accepted step with the
    solve stats of that step; the state carries the accepted step as
    ``tau_prev`` and its time as ``t``.  T must be positive and finite: NaN
    would return phi0 without a step, and inf would never stop.
    """
    if not (0 < T < np.inf):
        raise ValueError(f"T must be positive and finite, got {T}")
    if tau_init is not None and not (cfg.tau_min <= tau_init <= cfg.tau_max):
        raise ValueError(f"tau_init must lie in [tau_min, tau_max] = "
                         f"[{cfg.tau_min}, {cfg.tau_max}], got {tau_init}")
    state = StepperState(phi0)
    tau_next = tau_init if tau_init is not None else cfg.tau_min
    while state.t < T * (1.0 - 1e-12):
        tau_trial = min(tau_next, T - state.t)
        step = adaptive_advance(state, tau_trial, cfg, p)
        state = state.advanced(step.phi, step.tau_accepted)
        tau_next = step.tau_next
        if observer is not None:
            observer(state, step.stats)
    return state
