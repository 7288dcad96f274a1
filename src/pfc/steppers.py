"""One-step advancement operators for the PFC gradient flow.

All schemes share one solver pattern: the stiff linear part is inverted
exactly mode-by-mode (the spectral symbol is diagonal) and the remaining
terms are lagged in a fixed-point loop that stops when successive iterates
differ by at most 1e-12 in the max norm.

Schemes:
  * variable-step BDF2, fully implicit (reduces to BDF1 without history);
  * Crank-Nicolson (CN) with the product-form midpoint nonlinearity;
  * Crank-Nicolson convex splitting (CNCS) with an explicit extrapolated
    gradient term, started by a first-order convex-splitting step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Field, backward, forward
from .model import PfcParams

MAX_ITER = 500
FP_TOL = 1e-12


@dataclass
class SolveStats:
    iterations: int
    final_residual: float
    converged: bool


class SolverError(RuntimeError):
    def __init__(self, msg: str, stats: SolveStats):
        super().__init__(msg)
        self.stats = stats


class ConditioningError(ValueError):
    pass


@dataclass
class StepperState:
    """Solution history: previous level, optional second level, previous step."""

    phi_prev: Field
    phi_prev2: Field | None = None
    tau_prev: float | None = None
    t: float = 0.0

    def advanced(self, phi_new: Field, tau: float) -> "StepperState":
        return StepperState(phi_new, self.phi_prev, tau, self.t + tau)


def _check_symbol(symbol: np.ndarray, tau: float):
    if np.min(symbol) <= 0.0:
        idx = np.unravel_index(np.argmin(symbol), symbol.shape)
        raise ConditioningError(
            f"non-positive linear symbol {symbol[idx]:.3e} at mode {idx}; "
            f"reduce the step size (tau={tau:.3e})"
        )


def fixed_point_solve(symbol: np.ndarray, rhs_hat: np.ndarray, guess: np.ndarray,
                      nonlinear_hat) -> tuple[np.ndarray, SolveStats]:
    """Iterate phi <- S^{-1}(rhs + N(phi)) until the max-norm increment is tiny.

    ``symbol``, ``rhs_hat`` and the output of ``nonlinear_hat(phi)`` (the
    spectral contribution of the lagged terms for the current physical-space
    iterate) are half-spectrum arrays in the layout of ``grid.forward``.  A
    non-finite increment ends the solve at once with ``SolverError``.
    """
    M = guess.shape[0]
    inv_symbol = 1.0 / symbol
    base_hat = rhs_hat / symbol
    phi = guess
    res = np.inf
    # a diverging iterate overflows on its way to inf/nan; that ends the
    # solve below, so the floating-point warnings carry no extra information
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, MAX_ITER + 1):
            phi_new = backward(base_hat + nonlinear_hat(phi) * inv_symbol, M)
            res = float(np.max(np.abs(phi_new - phi)))
            phi = phi_new
            if res <= FP_TOL:
                return phi, SolveStats(it, res, True)
            if not math.isfinite(res):
                raise SolverError(f"fixed-point iteration diverged at iteration {it} "
                                  f"(residual {res:.3e})", SolveStats(it, res, False))
    stats = SolveStats(MAX_ITER, res, False)
    raise SolverError(
        f"fixed-point iteration failed to converge (residual {res:.3e})", stats
    )


def bdf2_step(state: StepperState, tau_n: float, p: PfcParams,
              forcing: Field | None = None) -> tuple[Field, SolveStats]:
    """Advance one level with the implicit two-step scheme.

    With a single history level the step degenerates to BDF1 (ratio 0).
    The zero mode carries no dynamics, so the mean is conserved whenever
    the forcing is absent or mean-free.
    """
    if tau_n <= 0:
        raise ValueError("tau_n must be positive")
    g = state.phi_prev.grid
    if state.phi_prev2 is None or state.tau_prev is None:
        b0, b1 = 1.0 / tau_n, 0.0
    else:
        r = tau_n / state.tau_prev
        b0 = (1.0 + 2.0 * r) / (tau_n * (1.0 + r))
        b1 = -(r * r) / (tau_n * (1.0 + r))
    k2 = g.k2_half
    symbol = b0 + k2 * p.lin_symbol_half
    _check_symbol(symbol, tau_n)
    rhs = b0 * state.phi_prev.values
    if b1 != 0.0:
        rhs = rhs - b1 * (state.phi_prev.values - state.phi_prev2.values)
    if forcing is not None:
        rhs = rhs + forcing.values
    rhs_hat = forward(rhs)

    def nl(phi):
        return -k2 * forward(phi * phi * phi)

    vals, stats = fixed_point_solve(symbol, rhs_hat, state.phi_prev.values, nl)
    return Field(g, vals), stats


def cn_step(state: StepperState, tau: float, p: PfcParams) -> tuple[Field, SolveStats]:
    """Crank-Nicolson step with the averaged-square nonlinearity."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    g = state.phi_prev.grid
    k2 = g.k2_half
    lin = p.lin_symbol_half
    symbol = 1.0 / tau + 0.5 * k2 * lin
    _check_symbol(symbol, tau)
    prev = state.phi_prev.values
    prev_sq = prev * prev
    prev_hat = forward(prev)
    rhs_hat = prev_hat / tau - 0.5 * k2 * lin * prev_hat

    def nl(phi):
        mid = 0.5 * (phi + prev)
        return -k2 * forward(0.5 * (phi * phi + prev_sq) * mid)

    vals, stats = fixed_point_solve(symbol, rhs_hat, prev, nl)
    return Field(g, vals), stats


def cs1_step(state: StepperState, tau: float, p: PfcParams) -> tuple[Field, SolveStats]:
    """First-order convex-splitting step (CNCS starter).

    Implicit: biharmonic, (1 - eps) phi, cubic (lagged).  Explicit: the
    concave gradient term 2 Lap phi^{n-1}.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    g = state.phi_prev.grid
    k2 = g.k2_half
    symbol = 1.0 / tau + k2 * (k2 * k2 + 1.0 - p.eps)
    prev_hat = forward(state.phi_prev.values)
    rhs_hat = prev_hat / tau + 2.0 * (k2 * k2) * prev_hat

    def nl(phi):
        return -k2 * forward(phi * phi * phi)

    vals, stats = fixed_point_solve(symbol, rhs_hat, state.phi_prev.values, nl)
    return Field(g, vals), stats


def cncs_step(state: StepperState, tau: float, p: PfcParams,
              literal_extrapolation: bool = False) -> tuple[Field, SolveStats]:
    """Crank-Nicolson convex-splitting step; needs two history levels.

    The explicit gradient term uses the extrapolated midpoint value
    (3 phi^{n-1} - phi^{n-2}) / 2 by default; ``literal_extrapolation``
    switches to 3 phi^{n-1} - phi^{n-2} without the half factor.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if state.phi_prev2 is None:
        raise ValueError("CNCS requires two history levels; use cs1_step to start")
    g = state.phi_prev.grid
    k2 = g.k2_half
    lin = k2 * k2 + 1.0 - p.eps
    symbol = 1.0 / tau + 0.5 * k2 * lin
    prev = state.phi_prev.values
    prev_sq = prev * prev
    prev_hat = forward(prev)
    extrap = 3.0 * prev - state.phi_prev2.values
    if not literal_extrapolation:
        extrap = 0.5 * extrap
    rhs_hat = (prev_hat / tau - 0.5 * k2 * lin * prev_hat
               + (k2 * k2) * forward(extrap))

    def nl(phi):
        mid = 0.5 * (phi + prev)
        return -k2 * forward(0.5 * (phi * phi + prev_sq) * mid)

    vals, stats = fixed_point_solve(symbol, rhs_hat, prev, nl)
    return Field(g, vals), stats


def run_fixed_mesh(phi0: Field, mesh_steps, p: PfcParams, scheme: str = "bdf2",
                   forcing_fn=None, literal_extrapolation: bool = False):
    """Advance a trajectory over a fixed step sequence.

    Returns the final state and the list of per-step SolveStats.  The CN
    scheme is one-step; BDF2 starts with BDF1 and CNCS with the first-order
    convex-splitting step.
    """
    state = StepperState(phi0)
    all_stats = []
    for tau in mesh_steps:
        t_new = state.t + tau
        if scheme == "bdf2":
            forcing = forcing_fn(t_new) if forcing_fn is not None else None
            phi_new, stats = bdf2_step(state, tau, p, forcing)
        elif scheme == "cn":
            phi_new, stats = cn_step(state, tau, p)
        elif scheme == "cncs":
            if state.phi_prev2 is None:
                phi_new, stats = cs1_step(state, tau, p)
            else:
                phi_new, stats = cncs_step(state, tau, p, literal_extrapolation)
        else:
            raise ValueError(f"unknown scheme {scheme!r}")
        all_stats.append(stats)
        state = state.advanced(phi_new, tau)
    return state, all_stats
