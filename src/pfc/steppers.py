"""One-step advancement operators for the PFC gradient flow.

All schemes share one solver pattern: the stiff linear part is inverted
exactly mode-by-mode (the spectral symbol S is diagonal) and the remaining
terms are lagged in a fixed-point loop that stops when successive iterates
differ by at most 1e-12 in the max norm.  A solve has two multipliers:
-k^2/S, which turns the lagged nonlinearity into an update, and S^{-1} rhs
= sum_i (c_i/S) hat_i over the history fields' (and a forcing's) spectra.
Each scheme forms -k^2/S and the c_i/S from one reciprocal 1/S once per step
size: they are held, read-only, in the trajectory's ``StepperState`` under
a key of the scheme and its step coefficients (``_store_multipliers``).  A
step whose key is the held one forms no array for them, only multiplying
each ``hat`` by its c_i/S; one with another key refills the held arrays in
place.  The scheme hands ``fixed_point_solve`` the two multipliers, a start
and its lagged nonlinearity as a physical-space function (``phi**3`` or CN's
averaged product); the solver owns no symbol.  The BDF2 and CN symbols are
a shift plus (a multiple of) ``PfcParams.k2_lin``, so their positivity
check costs O(1), from that array's stored minimum; it runs when a key is
new, as a held key's symbol has passed it.
The start is either a field's values or a spectrum standing in for the
first iterate's transformed nonlinearity.
The solver returns the new field with ``hat`` set to the spectrum whose
inverse transform gave its values and ``nl_hat`` to the last transformed
nonlinearity, so an iteration costs one transform pair, one started from a
spectrum costs one inverse transform, and a step makes no other transform,
except one for a starting field that has no spectrum yet.  A forcing is
handed over as its half spectrum.

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
    gradient term; from a single level, first-order convex splitting.
    These start from phi^{n-1}'s values; no step reads their ``nl_hat``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Field, Grid2D, backward, forward
from .model import PfcParams

MAX_ITER = 500
FP_TOL = 1e-12
NL_LEVELS = 5   # nonlinearity spectra kept for the BDF2 start
SCHEMES = ("bdf2", "cn", "cncs")   # run_fixed_mesh calls <scheme>_step


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


class HeldSolve:
    """A trajectory's newest solve: its ``key``, -k^2/S (``mult``) and the c_i/S (``coefs``).

    A copy shares it; a deep copy or pickle starts empty, as a copied view
    has no base for ``_store_multipliers`` to refill.
    """

    key, mult, coefs = None, None, ()

    def __reduce__(self):
        return HeldSolve, ()


@dataclass
class StepperState:
    """Solution history: the two newest levels, and the nonlinearity spectra of up to five.

    ``tau_prev`` is the step from ``phi_prev2`` to ``phi_prev``; the
    right-hand sides read both fields' ``hat``.  ``nl_hats`` holds the
    spectra F(N) that the solves of the newest ``NL_LEVELS`` levels left on
    their fields (``Field.nl_hat``), newest first, and ``nl_steps`` the
    steps between those levels, also newest first.  Only the BDF2 start
    reads them, and no values of older levels are kept.  A level with no
    such spectrum (phi^0, or a field no solve made) starts the list afresh.
    ``held`` is the trajectory's one held solve, which ``advanced`` passes on.
    """

    phi_prev: Field
    phi_prev2: Field | None = None
    tau_prev: float | None = None
    t: float = 0.0
    nl_hats: tuple = ()
    nl_steps: tuple = ()
    held: HeldSolve = field(default_factory=HeldSolve, compare=False, repr=False)

    def advanced(self, phi_new: Field, tau: float) -> "StepperState":
        nl_hats, nl_steps = (), ()
        if phi_new.nl_hat is not None:
            nl_hats = (phi_new.nl_hat,) + self.nl_hats[:NL_LEVELS - 1]
            nl_steps = ((tau,) + self.nl_steps)[:len(nl_hats) - 1]
        return StepperState(phi_new, self.phi_prev, tau, self.t + tau, nl_hats, nl_steps,
                            self.held)


def _check_symbol(shift: float, stiff: np.ndarray, stiff_min: float, tau: float):
    """Raise ``ConditioningError`` unless the symbol shift + stiff is positive.

    Adding a scalar and rounding keep the order of the entries, so the
    symbol's minimum is shift + stiff_min bit for bit and the check costs
    O(1); the full symbol is formed only to name the failing mode.
    """
    if shift + stiff_min <= 0.0:
        symbol = shift + stiff
        idx = np.unravel_index(np.argmin(symbol), symbol.shape)
        raise ConditioningError(
            f"non-positive linear symbol {symbol[idx]:.3e} at mode {idx}; "
            f"reduce the step size (tau={tau:.3e})"
        )


def _read_only_view(like: np.ndarray) -> np.ndarray:
    """A read-only view of a new array shaped like ``like``; the array is its ``base``."""
    view = np.empty_like(like).view()
    view.flags.writeable = False
    return view


def _store_multipliers(held: HeldSolve, key: tuple, shift: float, stiff: np.ndarray,
                       k2: np.ndarray, coefs: list):
    """Hold -k^2/S and each c/S in ``held`` as the solve of ``key``, S = shift + stiff.

    ``coefs`` are the coefficients c_i of the right-hand side sum_i c_i hat_i,
    each a real scalar or half-plane array, in the order the step adds the
    terms; ``held.coefs`` keeps that order.  Both come from one reciprocal
    of S.  The held arrays are read-only views, and a miss refills the arrays
    behind the views of the entry before it: it allocates no array unless
    the new entry has more terms, and an entry is valid until the next miss.
    """
    held.key = None   # no key while the arrays are refilled
    if held.mult is None:
        held.mult = _read_only_view(stiff)
    inv = np.add(stiff, shift, out=held.mult.base)
    np.divide(1.0, inv, out=inv)
    views = held.coefs[:len(coefs)]
    while len(views) < len(coefs):
        views += (_read_only_view(inv),)
    for view, c in zip(views, coefs):
        np.multiply(inv, c, out=view.base)
    inv *= k2
    np.negative(inv, out=inv)
    held.coefs = views
    held.key = key


def fixed_point_solve(mult: np.ndarray, base_hat: np.ndarray, guess: np.ndarray,
                      grid: Grid2D, nonlinear,
                      nl_start: np.ndarray | None = None) -> tuple[Field, SolveStats]:
    """Iterate phi <- S^{-1} rhs - k^2/S F[N(phi)] until the max-norm increment is tiny.

    The scheme hands over its multipliers in the layout of ``grid.forward``:
    ``mult`` = -k^2/S and ``base_hat`` = S^{-1} rhs, for its symbol S and
    right-hand side rhs; ``nonlinear(phi)`` returns the lagged terms N(phi)
    in physical space for the current iterate.  An iteration costs one
    transform pair.  The iteration starts from the values ``guess`` or,
    when ``nl_start`` is given, from that spectrum in place of
    F[N(guess)]: the first iterate then costs one inverse transform,
    ``guess`` is not read, and the solve takes ``nl_start`` over as a work
    array.  That first iterate has no predecessor to measure its increment
    against, so it is never accepted.  ``SolveStats.iterations`` counts
    inverse transforms, the applications of the map.  No other array handed
    over is written: the increment is subtracted into the previous iterate
    only when the solve made that iterate, never into ``guess``.

    The converged field is returned with ``hat`` set to the spectrum whose
    ``backward`` gave its values and ``nl_hat`` to the last F[N(phi)], both
    by reference.  A non-finite increment ends the solve at once with
    ``SolverError``.
    """
    M = grid.M
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
            d = phi_new - phi if phi is guess else np.subtract(phi, phi_new, out=phi)
            # in place: max(d.max(), -d.min()) is the same double, but its two
            # reductions cost more than this pass on a 32^2 grid
            res = float(np.abs(d, out=d).max())
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
              forcing_hat: np.ndarray | None = None) -> tuple[Field, SolveStats]:
    """Advance one level with the implicit two-step scheme.

    With a single history level the step degenerates to BDF1 (ratio 0).  A
    state that keeps nonlinearity spectra starts the solve from their
    Lagrange extrapolation to t_n, sum_i w_i F(N)^{n-1-i} with the weights
    of ``lagrange_weights``; any other starts from phi^{n-1}'s values.  The
    start changes the iteration count but not the fixed point, and the
    state is left as it was.  A forcing enters the right-hand side as
    ``forcing_hat``, its half spectrum at t_n, which is not changed.  The
    zero mode carries no dynamics, so the mean is conserved whenever the
    forcing is absent or mean-free.  A NaN step is refused with the
    non-positive ones.
    """
    if not (tau_n > 0):
        raise ValueError("tau_n must be positive")
    g = state.phi_prev.grid
    history = state.phi_prev2 is not None and state.tau_prev is not None
    if history:
        r = tau_n / state.tau_prev
        b0 = (1.0 + 2.0 * r) / (tau_n * (1.0 + r))
        b1 = -(r * r) / (tau_n * (1.0 + r))
    else:
        b0, b1 = 1.0 / tau_n, None
    forced = forcing_hat is not None
    key = ("bdf2", b0, b1, forced)
    held = state.held
    if key != held.key:
        _check_symbol(b0, p.k2_lin, p.k2_lin_min, tau_n)
        # rhs = b0 phi^{n-1} - b1 (phi^{n-1} - phi^{n-2}) + forcing
        coefs = [b0] if b1 is None else [b0 - b1, b1]
        if forced:
            coefs.append(1.0)
        _store_multipliers(held, key, b0, p.k2_lin, g.k2_half, coefs)
    prev = state.phi_prev
    c = held.coefs
    base_hat = prev.hat * c[0]
    if history:
        base_hat += state.phi_prev2.hat * c[1]
    if forced:
        base_hat += forcing_hat * c[-1]
    # the start is built in the call, so no name here keeps it alive after
    # the solve has turned it into its first iterate
    return fixed_point_solve(held.mult, base_hat, prev.values, g, _cube,
                             _extrapolated_nl(state, tau_n))


def _extrapolated_nl(state: StepperState, tau_n: float) -> np.ndarray | None:
    """sum_i w_i nl_hats[i] at t_n, in a new array; None without kept spectra.

    Each product goes through one reused scratch array, so the sum makes
    one temporary however many spectra are kept.
    """
    if not state.nl_hats:
        return None
    weights = lagrange_weights(tau_n, state.nl_steps)
    nl = weights[0] * state.nl_hats[0]
    scratch = np.empty_like(nl)
    for w, nl_hat in zip(weights[1:], state.nl_hats[1:]):
        nl += np.multiply(nl_hat, w, out=scratch)
    return nl


def cn_step(state: StepperState, tau: float, p: PfcParams) -> tuple[Field, SolveStats]:
    """Crank-Nicolson step with the averaged-square nonlinearity."""
    if not (tau > 0):
        raise ValueError("tau must be positive")
    g = state.phi_prev.grid
    key = ("cn", tau)
    held = state.held
    if key != held.key:
        shift = 1.0 / tau
        half = 0.5 * p.k2_lin
        _check_symbol(shift, half, 0.5 * p.k2_lin_min, tau)
        # rhs = (1/tau - half) phi^{n-1}
        _store_multipliers(held, key, shift, half, g.k2_half, [shift - half])
    prev = state.phi_prev
    base_hat = prev.hat * held.coefs[0]
    return fixed_point_solve(held.mult, base_hat, prev.values, g, _midpoint_cube(prev.values))


def cncs_step(state: StepperState, tau: float, p: PfcParams) -> tuple[Field, SolveStats]:
    """Crank-Nicolson convex-splitting step; from a single level, its first-order start.

    With two history levels the explicit gradient term uses the extrapolated
    midpoint value (3 phi^{n-1} - phi^{n-2}) / 2.  From phi^{n-1} alone the
    step is first-order convex splitting: implicit biharmonic, (1 - eps) phi
    and cubic (lagged); explicit the concave gradient term 2 Lap phi^{n-1}.
    """
    if not (tau > 0):
        raise ValueError("tau must be positive")
    g = state.phi_prev.grid
    start = state.phi_prev2 is None
    key = ("cs1" if start else "cncs", tau)
    held = state.held
    if key != held.key:
        k2 = g.k2_half
        k4 = k2 * k2
        shift = 1.0 / tau
        stiff = k2 * (k4 + 1.0 - p.eps)
        if start:
            # rhs = (1/tau + 2 k^4) phi^{n-1}
            coefs = [shift + 2.0 * k4]
        else:
            stiff *= 0.5   # the midpoint puts half the linear term on each level
            extrap = 0.5 * k4
            # rhs = (1/tau - stiff) phi^{n-1} + k^4/2 (3 phi^{n-1} - phi^{n-2})
            coefs = [shift - stiff + 3.0 * extrap, -extrap]
        _store_multipliers(held, key, shift, stiff, k2, coefs)
    prev = state.phi_prev
    base_hat = prev.hat * held.coefs[0]
    if start:
        return fixed_point_solve(held.mult, base_hat, prev.values, g, _cube)
    base_hat += state.phi_prev2.hat * held.coefs[1]
    return fixed_point_solve(held.mult, base_hat, prev.values, g, _midpoint_cube(prev.values))


def run_fixed_mesh(phi0: Field, mesh_steps, p: PfcParams, scheme: str = "bdf2",
                   forcing_fn=None, observer=None):
    """Advance a trajectory over a fixed step sequence with one of ``SCHEMES``.

    Returns the final state, and calls ``observer(state, stats)`` after
    every step; the observer is the one way to see per-step data.  Every
    scheme takes its first step from phi^0 alone.  Only BDF2 takes a
    forcing: ``forcing_fn(t)`` returns its half spectrum at the new level
    (as ``model.manufactured_forcing_hat`` does).
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if forcing_fn is not None and scheme != "bdf2":
        raise ValueError(f"scheme {scheme!r} takes no forcing")
    # looked up at call time, so a wrapper installed on the module is called
    step = globals()[f"{scheme}_step"]
    state = StepperState(phi0)
    for tau in mesh_steps:
        forcing = () if forcing_fn is None else (forcing_fn(state.t + tau),)
        phi_new, stats = step(state, tau, p, *forcing)
        state = state.advanced(phi_new, tau)
        if observer is not None:
            observer(state, stats)
    return state
