"""One-step advancement operators for the PFC gradient flow.

All schemes share one solver pattern: the stiff linear part is inverted
exactly mode-by-mode (the spectral symbol is diagonal) and the remaining
terms are lagged in a fixed-point loop that stops when successive iterates
differ by at most 1e-12 in the max norm.  Each scheme hands
``fixed_point_solve`` its symbol, its right-hand side formed in spectral
space from the history fields' ``hat``, a start and its lagged
nonlinearity as a physical-space function (``phi**3`` or CN's averaged
product); the solver owns the spectral multiplier -k^2/symbol that turns
that nonlinearity into an update.  The start is either a field's values or
a spectrum standing in for the first iterate's transformed nonlinearity.
The solver returns the new field with ``hat`` set to the spectrum whose
inverse transform gave its values and ``nl_hat`` to the last transformed
nonlinearity, so an iteration costs one transform pair, one started from a
spectrum costs one inverse transform, and a step makes no other transform,
except one for a forcing and one for a starting field that has no spectrum
yet.

Schemes:
  * variable-step BDF2, fully implicit (reduces to BDF1 without history).
    The first step starts from phi^0's values.  Every later solve starts
    from the Lagrange extrapolation to t_n of the nonlinearity spectra,
    F(phi^3), of the newest ``NL_LEVELS`` levels it has
    (``lagrange_weights``): its first iterate costs one inverse transform,
    since each kept spectrum is the forward transform the solve of that
    level already made;
  * Crank-Nicolson (CN) with the product-form midpoint nonlinearity;
  * Crank-Nicolson convex splitting (CNCS) with an explicit extrapolated
    gradient term, started by a first-order convex-splitting step.
    These start from phi^{n-1}'s values, and their fields keep no
    ``nl_hat``, as nothing reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid2D, backward, forward
from .model import PfcParams

MAX_ITER = 500
FP_TOL = 1e-12
NL_LEVELS = 5   # nonlinearity spectra kept for the BDF2 start


@dataclass
class SolveStats:
    """A solve that returns has converged; a failed one raises ``SolverError``."""

    iterations: int
    final_residual: float


class SolverError(RuntimeError):
    def __init__(self, msg: str, stats: SolveStats):
        super().__init__(msg)
        self.stats = stats


class ConditioningError(ValueError):
    pass


@dataclass
class StepperState:
    """Solution history: the two newest levels, and the nonlinearity spectra of up to five.

    ``tau_prev`` is the step from ``phi_prev2`` to ``phi_prev``; the
    right-hand sides read both fields' ``hat``.  ``nl_hats`` holds the
    spectra F(N) that the solves of the newest ``NL_LEVELS`` levels left on
    their fields (``Field.nl_hat``), newest first, and ``nl_steps`` the
    steps between those levels, also newest first.  Only the BDF2 start
    reads them, and no values of older levels are kept.  A level with no
    such spectrum (phi^0, or a CN, CS1 or CNCS level) starts the list afresh.
    """

    phi_prev: Field
    phi_prev2: Field | None = None
    tau_prev: float | None = None
    t: float = 0.0
    nl_hats: tuple = ()
    nl_steps: tuple = ()

    def advanced(self, phi_new: Field, tau: float) -> "StepperState":
        nl_hats, nl_steps = (), ()
        if phi_new.nl_hat is not None:
            nl_hats = (phi_new.nl_hat,) + self.nl_hats[:NL_LEVELS - 1]
            nl_steps = ((tau,) + self.nl_steps)[:len(nl_hats) - 1]
        return StepperState(phi_new, self.phi_prev, tau, self.t + tau, nl_hats, nl_steps)


def _check_symbol(symbol: np.ndarray, tau: float):
    if np.min(symbol) <= 0.0:
        idx = np.unravel_index(np.argmin(symbol), symbol.shape)
        raise ConditioningError(
            f"non-positive linear symbol {symbol[idx]:.3e} at mode {idx}; "
            f"reduce the step size (tau={tau:.3e})"
        )


def fixed_point_solve(symbol: np.ndarray, rhs_hat: np.ndarray, guess: np.ndarray,
                      grid: Grid2D, nonlinear,
                      nl_start: np.ndarray | None = None) -> tuple[Field, SolveStats]:
    """Iterate phi <- S^{-1}(rhs - k^2 F[N(phi)]) until the max-norm increment is tiny.

    ``symbol`` S and ``rhs_hat`` are half-spectrum arrays in the layout of
    ``grid.forward``; ``nonlinear(phi)`` returns the lagged terms N(phi) in
    physical space for the current iterate.  The multipliers -k^2/S and
    rhs_hat/S are formed once per solve, so an iteration costs one transform
    pair.  The iteration starts from the values ``guess`` or, when
    ``nl_start`` is given, from that spectrum in place of F[N(guess)]: the
    first iterate then costs one inverse transform, ``guess`` is not read,
    and the solve takes ``nl_start`` over as a work array.  That first
    iterate has no predecessor to measure its increment against, so it is
    never accepted.  ``SolveStats.iterations`` counts inverse transforms,
    the applications of the map.

    The converged field is returned with ``hat`` set to the spectrum whose
    ``backward`` gave its values and ``nl_hat`` to the last F[N(phi)], both
    by reference.  A non-finite increment ends the solve at once with
    ``SolverError``.
    """
    M = grid.M
    mult = -grid.k2_half / symbol
    base_hat = rhs_hat / symbol
    phi = guess
    res = np.inf
    first = 1
    # a diverging iterate overflows on its way to inf/nan; that ends the
    # solve below, so the floating-point warnings carry no extra information
    with np.errstate(over="ignore", invalid="ignore"):
        if nl_start is not None:
            nl_start *= mult
            nl_start += base_hat
            phi = backward(nl_start, M)
            del nl_start   # frees it when the caller passed it as a temporary
            first = 2
        for it in range(first, MAX_ITER + 1):
            nl_hat = forward(nonlinear(phi))
            x = nl_hat * mult
            x += base_hat
            phi_new = backward(x, M)
            d = phi_new - phi
            np.abs(d, out=d)
            res = float(d.max())
            phi = phi_new
            if res <= FP_TOL:
                # a finite increment rules out a non-finite iterate
                out = Field.unchecked(grid, phi, nl_hat)
                out.hat = x
                return out, SolveStats(it, res)
            # kept into the next iteration, these would add three grid
            # arrays to the solve's peak memory
            del nl_hat, x, d
            if not math.isfinite(res):
                raise SolverError(f"fixed-point iteration diverged at iteration {it} "
                                  f"(residual {res:.3e})", SolveStats(it, res))
    raise SolverError(f"fixed-point iteration failed to converge (residual {res:.3e})",
                      SolveStats(MAX_ITER, res))


def _cube(phi):
    out = phi * phi
    out *= phi
    return out


def _midpoint_cube(prev):
    """CN's averaged product (phi^2 + prev^2)/2 * (phi + prev)/2 as a function of phi.

    Formed as 0.25 (phi^2 + prev^2)(phi + prev) in a product and a sum
    buffer, the same bits: scaling by a power of two is exact.
    """
    prev_sq = prev * prev

    def nl(phi):
        out = phi * phi
        out += prev_sq
        out *= phi + prev
        out *= 0.25
        return out

    return nl


def lagrange_weights(tau_n: float, steps) -> list[float]:
    """Weights of levels n-1, n-2, ... in their interpolating polynomial's value at t_n.

    ``steps`` are the steps between those levels, newest first (tau_{n-1}
    from level n-2 to n-1, then tau_{n-2}, ...), so there is one level more
    than steps; with none the single weight is 1.  Every distance between
    two times is summed from the steps it spans, never taken as a
    difference of times.  The weights sum to one.
    """
    reach = [tau_n]   # reach[j] = t_n - (time of level j), level 0 = n-1
    for step in steps:
        reach.append(reach[-1] + step)
    weights = []
    for i in range(len(reach)):
        w = 1.0
        gap = 0.0
        for j in range(i + 1, len(reach)):   # older levels
            gap += steps[j - 1]
            w *= reach[j] / gap
        gap = 0.0
        for j in range(i - 1, -1, -1):       # newer levels
            gap += steps[j]
            w *= -reach[j] / gap
        weights.append(w)
    return weights


def bdf2_step(state: StepperState, tau_n: float, p: PfcParams,
              forcing: Field | None = None) -> tuple[Field, SolveStats]:
    """Advance one level with the implicit two-step scheme.

    With a single history level the step degenerates to BDF1 (ratio 0).  A
    state that keeps nonlinearity spectra starts the solve from their
    Lagrange extrapolation to t_n, sum_i w_i F(N)^{n-1-i} with the weights
    of ``lagrange_weights``; any other starts from phi^{n-1}'s values.  The
    start changes the iteration count but not the fixed point, and the
    state is left as it was.  The zero mode carries no dynamics, so the
    mean is conserved whenever the forcing is absent or mean-free.
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
    if history:
        rhs_hat -= b1 * (prev.hat - state.phi_prev2.hat)
    if forcing is not None:
        rhs_hat += forcing.hat
    # the start is built in the call, so no name here keeps it alive after
    # the solve has turned it into its first iterate
    return fixed_point_solve(symbol, rhs_hat, prev.values, g, _cube,
                             _extrapolated_nl(state, tau_n))


def _extrapolated_nl(state: StepperState, tau_n: float) -> np.ndarray | None:
    """sum_i w_i nl_hats[i] at t_n, in a new array; None without kept spectra."""
    if not state.nl_hats:
        return None
    weights = lagrange_weights(tau_n, state.nl_steps)
    nl = weights[0] * state.nl_hats[0]
    for w, nl_hat in zip(weights[1:], state.nl_hats[1:]):
        nl += w * nl_hat
    return nl


def _without_nl(solved: tuple[Field, SolveStats]) -> tuple[Field, SolveStats]:
    """Drop the solve's ``nl_hat``: only the BDF2 start reads a kept spectrum."""
    phi, stats = solved
    phi.nl_hat = None
    return phi, stats


def cn_step(state: StepperState, tau: float, p: PfcParams) -> tuple[Field, SolveStats]:
    """Crank-Nicolson step with the averaged-square nonlinearity."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    g = state.phi_prev.grid
    k2 = g.k2_half
    half = 0.5 * k2 * p.lin_symbol_half
    symbol = 1.0 / tau + half
    _check_symbol(symbol, tau)
    prev = state.phi_prev
    # prev.hat / tau: numpy divides by the scalar as by a complex number,
    # which with a zero imaginary part is this product at five times the cost
    rhs_hat = prev.hat * (1.0 / tau)
    rhs_hat -= half * prev.hat
    return _without_nl(fixed_point_solve(symbol, rhs_hat, prev.values, g,
                                         _midpoint_cube(prev.values)))


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
    return _without_nl(fixed_point_solve(symbol, rhs_hat, prev.values, g, _cube))


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
    k4 = k2 * k2
    half = 0.5 * k2 * (k4 + 1.0 - p.eps)
    symbol = 1.0 / tau + half
    prev = state.phi_prev
    extrap_hat = 3.0 * prev.hat - state.phi_prev2.hat
    extrap_hat *= 0.5
    extrap_hat *= k4
    rhs_hat = prev.hat * (1.0 / tau)   # prev.hat / tau, as in cn_step
    rhs_hat -= half * prev.hat
    rhs_hat += extrap_hat
    return _without_nl(fixed_point_solve(symbol, rhs_hat, prev.values, g,
                                         _midpoint_cube(prev.values)))


def run_fixed_mesh(phi0: Field, mesh_steps, p: PfcParams, scheme: str = "bdf2",
                   forcing_fn=None, observer=None):
    """Advance a trajectory over a fixed step sequence.

    Returns the final state, and calls ``observer(state, stats)`` after
    every step; the observer is the one way to see per-step data.  The CN
    scheme is one-step; BDF2 starts with BDF1 and CNCS with the first-order
    convex-splitting step.  Only BDF2 takes a forcing, ``forcing_fn(t)`` at
    the new level.
    """
    if scheme not in ("bdf2", "cn", "cncs"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if forcing_fn is not None and scheme != "bdf2":
        raise ValueError(f"scheme {scheme!r} takes no forcing")
    state = StepperState(phi0)
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
        state = state.advanced(phi_new, tau)
        if observer is not None:
            observer(state, stats)
    return state
