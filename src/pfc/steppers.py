"""One-step advancement operators for the PFC gradient flow.

All schemes share one solver pattern: the stiff linear part is inverted
exactly mode-by-mode (the spectral symbol is diagonal) and the remaining
terms are lagged in a fixed-point loop that stops when successive iterates
differ by at most 1e-12 in the max norm.  Each scheme hands
``fixed_point_solve`` its symbol, its right-hand side formed in spectral
space from the history fields' ``hat``, a starting guess and its lagged
nonlinearity as a physical-space function (``phi**3`` or CN's averaged
product); the solver owns the spectral multiplier -k^2/symbol that turns
that nonlinearity into an update.  The solver returns the new field with
``hat`` set to the spectrum whose inverse transform gave its values, so a
step costs one transform pair per iteration and no other transform, except
one for a forcing and one for a starting field that has no spectrum yet.

Schemes:
  * variable-step BDF2, fully implicit (reduces to BDF1 without history),
    started from the Lagrange extrapolation to t_n through the history
    levels it has: phi^{n-1} alone, the line through phi^{n-1} and
    phi^{n-2}, or the quadratic through phi^{n-1}, phi^{n-2} and phi^{n-3};
  * Crank-Nicolson (CN) with the product-form midpoint nonlinearity;
  * Crank-Nicolson convex splitting (CNCS) with an explicit extrapolated
    gradient term, started by a first-order convex-splitting step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid2D, backward, forward
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
    """Solution history: the previous level, up to two older levels and the steps between.

    ``tau_prev`` is the step from ``phi_prev2`` to ``phi_prev`` and
    ``tau_prev2`` the step from ``phi_prev3`` to ``phi_prev2``.  The two
    newest levels are fields, whose spectra the right-hand sides read; the
    oldest level feeds only the BDF2 predictor, so ``phi_prev3`` holds its
    values alone and no spectrum is kept for it.
    """

    phi_prev: Field
    phi_prev2: Field | None = None
    tau_prev: float | None = None
    t: float = 0.0
    phi_prev3: np.ndarray | None = None
    tau_prev2: float | None = None

    def advanced(self, phi_new: Field, tau: float) -> "StepperState":
        prev3 = self.phi_prev2.values if self.phi_prev2 is not None else None
        return StepperState(phi_new, self.phi_prev, tau, self.t + tau,
                            prev3, self.tau_prev)


def _check_symbol(symbol: np.ndarray, tau: float):
    if np.min(symbol) <= 0.0:
        idx = np.unravel_index(np.argmin(symbol), symbol.shape)
        raise ConditioningError(
            f"non-positive linear symbol {symbol[idx]:.3e} at mode {idx}; "
            f"reduce the step size (tau={tau:.3e})"
        )


def fixed_point_solve(symbol: np.ndarray, rhs_hat: np.ndarray, guess: np.ndarray,
                      grid: Grid2D, nonlinear) -> tuple[Field, SolveStats]:
    """Iterate phi <- S^{-1}(rhs - k^2 F[N(phi)]) until the max-norm increment is tiny.

    ``symbol`` S and ``rhs_hat`` are half-spectrum arrays in the layout of
    ``grid.forward``; ``nonlinear(phi)`` returns the lagged terms N(phi) in
    physical space for the current iterate.  The multipliers -k^2/S and
    rhs_hat/S are formed once per solve, so an iteration costs one transform
    pair.  The converged field is returned with ``hat`` set to the spectrum
    whose ``backward`` gave its values.  A non-finite increment ends the
    solve at once with ``SolverError``.
    """
    M = grid.M
    mult = -grid.k2_half / symbol
    base_hat = rhs_hat / symbol
    phi = guess
    res = np.inf
    # a diverging iterate overflows on its way to inf/nan; that ends the
    # solve below, so the floating-point warnings carry no extra information
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, MAX_ITER + 1):
            x = forward(nonlinear(phi))
            x *= mult
            x += base_hat
            phi_new = backward(x, M)
            d = phi_new - phi
            np.abs(d, out=d)
            res = float(d.max())
            phi = phi_new
            if res <= FP_TOL:
                out = Field(grid, phi)
                out.hat = x
                return out, SolveStats(it, res, True)
            # kept into the next iteration, these two would add two grid
            # arrays to the solve's peak memory
            del x, d
            if not math.isfinite(res):
                raise SolverError(f"fixed-point iteration diverged at iteration {it} "
                                  f"(residual {res:.3e})", SolveStats(it, res, False))
    stats = SolveStats(MAX_ITER, res, False)
    raise SolverError(
        f"fixed-point iteration failed to converge (residual {res:.3e})", stats
    )


def _cube(phi):
    return phi * phi * phi


def _midpoint_cube(prev):
    """CN's averaged product (phi^2 + prev^2)/2 * (phi + prev)/2 as a function of phi."""
    prev_sq = prev * prev

    def nl(phi):
        mid = 0.5 * (phi + prev)
        return 0.5 * (phi * phi + prev_sq) * mid

    return nl


def _quadratic_weights(tau_n: float, tau_1: float, tau_2: float):
    """Weights of phi^{n-1}, phi^{n-2}, phi^{n-3} in their quadratic's value at t_n.

    ``tau_1`` and ``tau_2`` are the steps tau_{n-1} and tau_{n-2} between
    the three levels; the weights sum to one.
    """
    s1 = tau_n + tau_1
    s2 = s1 + tau_2
    w0 = s1 * s2 / (tau_1 * (tau_1 + tau_2))
    w1 = -tau_n * s2 / (tau_1 * tau_2)
    w2 = tau_n * s1 / ((tau_1 + tau_2) * tau_2)
    return w0, w1, w2


def bdf2_step(state: StepperState, tau_n: float, p: PfcParams,
              forcing: Field | None = None) -> tuple[Field, SolveStats]:
    """Advance one level with the implicit two-step scheme.

    With a single history level the step degenerates to BDF1 (ratio 0) and
    the iteration starts from phi^{n-1}.  With two it starts from the linear
    extrapolation phi^{n-1} + r_n (phi^{n-1} - phi^{n-2}), and with three
    from the quadratic through phi^{n-1}, phi^{n-2} and phi^{n-3} at t_n
    (``_quadratic_weights``); the start changes the iteration count but not
    the fixed point.  The zero mode carries no dynamics, so the mean is
    conserved whenever the forcing is absent or mean-free.
    """
    if tau_n <= 0:
        raise ValueError("tau_n must be positive")
    g = state.phi_prev.grid
    history = state.phi_prev2 is not None and state.tau_prev is not None
    if history:
        r = tau_n / state.tau_prev
        b0 = (1.0 + 2.0 * r) / (tau_n * (1.0 + r))
        b1 = -(r * r) / (tau_n * (1.0 + r))
    else:
        b0 = 1.0 / tau_n
    symbol = b0 + g.k2_half * p.lin_symbol_half
    _check_symbol(symbol, tau_n)
    prev = state.phi_prev
    rhs_hat = b0 * prev.hat
    guess = prev.values
    if history:
        prev2 = state.phi_prev2
        rhs_hat -= b1 * (prev.hat - prev2.hat)
        # the predictor, built in one buffer
        if state.phi_prev3 is not None and state.tau_prev2 is not None:
            w0, w1, w2 = _quadratic_weights(tau_n, state.tau_prev, state.tau_prev2)
            guess = w0 * prev.values
            guess += w1 * prev2.values
            guess += w2 * state.phi_prev3
        else:
            guess = prev.values - prev2.values
            guess *= r
            guess += prev.values
    if forcing is not None:
        rhs_hat += forcing.hat
    return fixed_point_solve(symbol, rhs_hat, guess, g, _cube)


def cn_step(state: StepperState, tau: float, p: PfcParams) -> tuple[Field, SolveStats]:
    """Crank-Nicolson step with the averaged-square nonlinearity."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    g = state.phi_prev.grid
    k2 = g.k2_half
    lin = p.lin_symbol_half
    symbol = 1.0 / tau + 0.5 * k2 * lin
    _check_symbol(symbol, tau)
    prev = state.phi_prev
    rhs_hat = prev.hat / tau - 0.5 * k2 * lin * prev.hat
    return fixed_point_solve(symbol, rhs_hat, prev.values, g, _midpoint_cube(prev.values))


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
    prev = state.phi_prev
    rhs_hat = prev.hat / tau + 2.0 * (k2 * k2) * prev.hat
    return fixed_point_solve(symbol, rhs_hat, prev.values, g, _cube)


def cncs_step(state: StepperState, tau: float, p: PfcParams) -> tuple[Field, SolveStats]:
    """Crank-Nicolson convex-splitting step; needs two history levels.

    The explicit gradient term uses the extrapolated midpoint value
    (3 phi^{n-1} - phi^{n-2}) / 2.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if state.phi_prev2 is None:
        raise ValueError("CNCS requires two history levels; use cs1_step to start")
    g = state.phi_prev.grid
    k2 = g.k2_half
    lin = k2 * k2 + 1.0 - p.eps
    symbol = 1.0 / tau + 0.5 * k2 * lin
    prev = state.phi_prev
    extrap_hat = 3.0 * prev.hat - state.phi_prev2.hat
    extrap_hat *= 0.5
    rhs_hat = (prev.hat / tau - 0.5 * k2 * lin * prev.hat
               + (k2 * k2) * extrap_hat)
    return fixed_point_solve(symbol, rhs_hat, prev.values, g, _midpoint_cube(prev.values))


def run_fixed_mesh(phi0: Field, mesh_steps, p: PfcParams, scheme: str = "bdf2",
                   forcing_fn=None, observer=None):
    """Advance a trajectory over a fixed step sequence.

    Returns the final state and the list of per-step SolveStats, and calls
    ``observer(state, stats)`` after every step.  The CN scheme is one-step;
    BDF2 starts with BDF1 and CNCS with the first-order convex-splitting
    step.  Only BDF2 takes a forcing, ``forcing_fn(t)`` at the new level.
    """
    if scheme not in ("bdf2", "cn", "cncs"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if forcing_fn is not None and scheme != "bdf2":
        raise ValueError(f"scheme {scheme!r} takes no forcing")
    state = StepperState(phi0)
    all_stats = []
    for tau in mesh_steps:
        if scheme == "bdf2":
            forcing = forcing_fn(state.t + tau) if forcing_fn is not None else None
            phi_new, stats = bdf2_step(state, tau, p, forcing)
        elif scheme == "cn":
            phi_new, stats = cn_step(state, tau, p)
        elif state.phi_prev2 is None:
            phi_new, stats = cs1_step(state, tau, p)
        else:
            phi_new, stats = cncs_step(state, tau, p)
        all_stats.append(stats)
        state = state.advanced(phi_new, tau)
        if observer is not None:
            observer(state, stats)
    return state, all_stats
