"""One-step advancement operators for the PFC gradient flow.

All schemes share one solver pattern: the stiff linear part is inverted
exactly mode-by-mode (the spectral symbol S is diagonal) and the remaining
terms are lagged in a fixed-point loop that stops when successive iterates
differ by at most 1e-12 in the max norm.  A solve has two multipliers:
-k^2/S, which turns the lagged nonlinearity into an update, and S^{-1} rhs
= sum_i (c_i/S) hat_i over the history fields' (and a forcing's) spectra.
Each scheme forms -k^2/S and the c_i/S from one reciprocal 1/S once per step
size: they are held, read-only, in the trajectory's ``StepperState`` under
a key of the ``PfcParams``, the scheme and its step coefficients
(``_store_multipliers``).  A step whose key is the held one forms no array
for them, only multiplying each ``hat`` by its c_i/S; one with another key
refills the held arrays in place.  The scheme hands ``fixed_point_solve``
the two multipliers, a start and its lagged nonlinearity as a physical-space
function (``phi**3`` or CN's averaged product); the solver owns no symbol.
Each step names its key, its linear part and its nonlinearity, and
``_held_step``, where a state meets its parameters, does the rest for every
scheme: the step must be positive and finite, the grid is ``PfcParams``'s,
and a field on another is refused.  A new key's symbol, of any scheme, is
checked positive, with one minimum, at every mode where its multipliers are
formed; a held key's symbol has been.
The start is either a field's values or a spectrum standing in for the
first iterate's transformed nonlinearity.
The solver returns the new field with ``hat`` set to the spectrum whose
inverse transform gave its values (its self-conjugate columns made
Hermitian, ``_project_self_conjugate``) and ``nl_hat`` to the last
transformed nonlinearity, so an iteration costs one transform pair, one
started from a spectrum costs one inverse transform, and a step makes no
other transform, except one for a starting field that has no spectrum yet.
A forcing is handed over as its half spectrum.  ``fixed_point_solve``
says how a solve reuses its buffers.

``_held_step`` checks the step and starts the solve for every scheme.  A
state that keeps no nonlinearity spectra, as phi^0's, starts the solve from
phi^{n-1}'s values; so each scheme's first step, CNCS's first-order one
included, does.  Every other solve starts from the Lagrange extrapolation to
t_n of the spectra F(N) that the solves of the newest ``NL_LEVELS`` levels
left (``lagrange_weights``; the extrapolated nonlinearity of IMEX BDF2,
Ascher, Ruuth & Wetton, SIAM J. Numer. Anal. 32, 1995, here only the first
iterate, so the fixed point does not change): its first iterate costs one
inverse transform, since each kept spectrum is the forward transform the
solve of that level already made.  A level's N is the one its step lagged,
phi^3 or CN's averaged product.

Schemes:
  * variable-step BDF2, fully implicit (reduces to BDF1 without history);
  * Crank-Nicolson (CN) with the product-form midpoint nonlinearity;
  * Crank-Nicolson convex splitting (CNCS) with an explicit extrapolated
    gradient term; from a single level, first-order convex splitting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Field, Grid2D, backward, forward
from .kernels import _bdf2_kernels
from .model import PfcParams

MAX_ITER = 500
STALL_ITERS = 10   # iterations without a new smallest increment that end a solve
FP_TOL = 1e-12
NL_LEVELS = 5   # nonlinearity spectra kept for the solves' start
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

    ``inv`` is the real array in which a miss forms 1/S.  A copy shares it
    all; a deep copy or pickle starts empty, as a copied view has no base
    for ``_store_multipliers`` to refill.
    """

    key, mult, coefs, inv = None, None, (), None

    def __reduce__(self):
        return HeldSolve, ()


@dataclass
class StepperState:
    """Solution history: the two newest levels, and the nonlinearity spectra of up to five.

    ``tau_prev`` is the step from ``phi_prev2`` to ``phi_prev``, and a state
    has both or neither: with neither it has one level.  The right-hand
    sides read both fields' ``hat``.  ``nl_hats`` holds the spectra F(N)
    that the solves of the newest ``NL_LEVELS`` levels left on their fields
    (``Field.nl_hat``), newest first, and ``nl_steps`` the steps between
    those levels, also newest first.  A state's solve starts from them when
    it keeps any, and no values of older levels are kept.  A level with no
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

    def __post_init__(self):
        if (self.phi_prev2 is None) != (self.tau_prev is None):
            raise ValueError("phi_prev2 and tau_prev are given together or not at all")

    def advanced(self, phi_new: Field, tau: float) -> "StepperState":
        nl_hats, nl_steps = (), ()
        if phi_new.nl_hat is not None:
            nl_hats = (phi_new.nl_hat,) + self.nl_hats[:NL_LEVELS - 1]
            nl_steps = ((tau,) + self.nl_steps)[:len(nl_hats) - 1]
        return StepperState(phi_new, self.phi_prev, tau, self.t + tau, nl_hats, nl_steps,
                            self.held)


def _check_step(tau: float):
    if not (0 < tau < math.inf):   # NaN fails too
        raise ValueError(f"tau must be positive and finite, got {tau}")


def _read_only_view(like: np.ndarray, dtype=None) -> np.ndarray:
    """A read-only view of a new zero array shaped like ``like``; the array is its ``base``."""
    view = np.zeros_like(like, dtype=dtype).view()
    view.flags.writeable = False
    return view


def _store_multipliers(held: HeldSolve, key: tuple, tau: float, shift: float,
                       stiff: np.ndarray, k2: np.ndarray, coefs: list):
    """Hold -k^2/S and each c/S in ``held`` as the solve of ``key``, S = shift + stiff.

    S is formed in the contiguous ``held.inv`` and must be positive at every
    mode: otherwise ``ConditioningError`` names its smallest entry, its mode
    and the step ``tau``, and ``held`` keeps the key and arrays it had.
    ``coefs`` are the coefficients c_i of the right-hand side sum_i c_i hat_i,
    each a real scalar or half-plane array, in the order the step adds the
    terms; ``held.coefs`` keeps that order.  Both come from one reciprocal
    of S.  The held arrays are read-only views, and a miss refills the arrays
    behind the views of the entry before it: it allocates no array unless
    the new entry has more terms, and an entry is valid until the next miss.
    -k^2/S is held complex with a zero imaginary part, the value numpy would
    cast it to in each product with a spectrum, so the solve's products need
    no cast buffer.  Only the last pass writes the strided real part of ``mult``.
    """
    if held.mult is None:
        held.mult = _read_only_view(stiff, complex)
        held.inv = np.empty_like(stiff)
    inv = np.add(stiff, shift, out=held.inv)
    if inv.min() <= 0.0:
        idx = np.unravel_index(np.argmin(inv), inv.shape)
        raise ConditioningError(
            f"non-positive linear symbol {inv[idx]:.3e} at mode {idx}; "
            f"reduce the step size (tau={tau:.3e})"
        )
    held.key = None   # no key while the arrays are refilled
    np.divide(1.0, inv, out=inv)
    views = held.coefs[:len(coefs)]
    while len(views) < len(coefs):
        views += (_read_only_view(stiff),)
    for view, c in zip(views, coefs):
        np.multiply(inv, c, out=view.base)
    inv *= k2
    np.negative(inv, out=held.mult.base.real)
    held.coefs = views
    held.key = key


def fixed_point_solve(mult: np.ndarray, base_hat: np.ndarray, guess: np.ndarray,
                      grid: Grid2D, nonlinear,
                      nl_start: np.ndarray | None = None) -> tuple[Field, SolveStats]:
    """Iterate phi <- S^{-1} rhs - k^2/S F[N(phi)] until the max-norm increment is tiny.

    The scheme hands over its multipliers in the layout of ``grid.forward``:
    ``mult`` = -k^2/S and ``base_hat`` = S^{-1} rhs, for its symbol S and
    right-hand side rhs; ``nonlinear(phi, out)`` returns the lagged terms
    N(phi) in physical space for the current iterate, written into the real
    array ``out``.  An iteration costs one transform pair and allocates
    nothing: the solve allocates its arrays once, two real buffers that take
    turns as N(phi), the new iterate and the increment, and two half spectra
    that trade roles as F[N(phi)] and the update (``backward`` runs in place).
    The start is the values ``guess``, whose F[N(guess)] the solve forms, or
    ``nl_start``, a spectrum in place of F[N(guess)] that the solve takes
    over as one of its half spectra; ``guess`` is then not read.  Both enter
    one loop, whose passes after the first begin by transforming the last
    iterate's N(phi); the first iterate of a spectrum start costs one
    inverse transform and, with no predecessor, is never accepted.
    ``SolveStats.iterations`` counts inverse transforms, the applications of
    the map.  No other array handed over is written.

    The converged field is returned with ``hat`` set to the spectrum whose
    ``backward`` gave its values, formed again from the last F[N(phi)] by the
    same two ufunc calls (so to the same doubles) since the column pass
    consumed it, its self-conjugate columns projected onto their Hermitian
    parts, and ``nl_hat`` to that last F[N(phi)], all three arrays the
    solve's own, which it writes no more.  A non-finite increment ends the
    solve at once with ``SolverError``, and so does a stagnating one:
    ``STALL_ITERS`` iterations in a row whose increment is not below the
    smallest so far.  A converging solve's increment keeps setting new lows,
    so the rule cuts only a solve that would otherwise run to ``MAX_ITER``.
    """
    # N(phi) and the new iterate go into ``spare``; the increment into
    # ``other``, which holds phi unless phi is ``guess``
    spare, other = np.empty((grid.M, grid.M)), np.empty((grid.M, grid.M))
    res = best = np.inf
    stalled = 0   # iterations since the increment last fell below ``best``
    # a diverging iterate overflows on its way to inf/nan; that ends the
    # solve below, so the floating-point warnings carry no extra information
    with np.errstate(over="ignore", invalid="ignore"):
        phi = guess if nl_start is None else None
        nl_hat = forward(nonlinear(guess, spare)) if nl_start is None else nl_start
        x = np.empty_like(base_hat)
        for it in range(1, MAX_ITER + 1):
            if it > 1:   # phi is the last iterate; forward writes where backward ran
                phi, spare, other = phi_new, other, spare
                nl_hat, x = x, nl_hat
                forward(nonlinear(phi, spare), out=nl_hat)
            np.add(np.multiply(nl_hat, mult, out=x), base_hat, out=x)
            phi_new = backward(x, out=spare)
            if phi is None:   # a spectrum start's first iterate: nothing to measure
                continue
            # abs in place: max(d.max(), -d.min()) is the same double, but its
            # two reductions cost more than this pass on a 32^2 grid
            d = np.subtract(phi_new, phi, out=other)
            res = float(np.abs(d, out=d).max())
            if res <= FP_TOL:
                # a finite increment rules out a non-finite iterate; the
                # column pass consumed x, so the same two ufunc calls form it again
                np.add(np.multiply(nl_hat, mult, out=x), base_hat, out=x)
                _project_self_conjugate(x)
                out = Field.unchecked(grid, phi_new, nl_hat)
                out.hat = x
                return out, SolveStats(it, res)
            if not math.isfinite(res):
                raise SolverError(f"fixed-point iteration diverged at iteration {it} "
                                  f"(residual {res:.3e})", SolveStats(it, res))
            if res < best:
                best, stalled = res, 0
            else:
                stalled += 1
                if stalled == STALL_ITERS:
                    raise SolverError(f"fixed-point iteration stagnated at iteration {it} "
                                      f"(residual {res:.3e}, smallest {best:.3e})",
                                      SolveStats(it, res))
    raise SolverError(f"fixed-point iteration failed to converge (residual {res:.3e})",
                      SolveStats(MAX_ITER, res))


def _project_self_conjugate(x: np.ndarray):
    """Replace the self-conjugate columns of the M-row half spectrum ``x``, ky = 0 and
    the Nyquist column, by their Hermitian parts (x[i] + conj(x[-i]))/2, in place.

    ``backward`` drops their anti-Hermitian part, so the values do not move.  But
    the next right-hand side reads the spectrum, and the part it carries on grows
    in the unstable band as the linear recurrence does.  The one temporary holds
    M - 2 entries: rows 1 .. M/2 - 1 of both columns.
    """
    M = x.shape[0]
    cols = x[:, ::M // 2]
    top, bottom = cols[1:M // 2], cols[:M // 2:-1]   # row i and its partner M - i
    h = np.conjugate(bottom)
    h += top
    h *= 0.5
    top[...] = h
    np.conjugate(h, out=bottom)
    cols.imag[::M // 2] = 0.0   # rows 0 and M/2 are their own partners


def _cube(phi, out):
    np.multiply(phi, phi, out=out)
    out *= phi
    return out


def _midpoint_cube(prev):
    """CN's averaged product (phi^2 + prev^2)/2 * (phi + prev)/2 as a function of phi.

    Formed into ``out`` as 0.25 (phi^2 + prev^2)(phi + prev), with the sum in
    a buffer of its own, the same bits: scaling by a power of two is exact.
    """
    prev_sq = prev * prev
    total = np.empty_like(prev)

    def nl(phi, out):
        np.multiply(phi, phi, out=out)
        out += prev_sq
        out *= np.add(phi, prev, out=total)
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


def _held_step(state: StepperState, tau: float, p: PfcParams, key: tuple, linear, hats: list,
               nonlinear) -> tuple[Field, SolveStats]:
    """Solve the step whose multipliers ``(p, *key)`` names, from the held ones on a hit.

    A step ``tau`` that is not positive and finite, and a state whose field
    is not on ``p.grid``, are refused with a plain ``ValueError``, which the
    controller does not take for a failed solve.  On a miss, ``linear()``
    returns the symbol's shift and stiff part and the right-hand side's
    coefficients, which ``_store_multipliers`` checks and holds.  S^{-1} rhs
    is then sum_i c_i/S hats[i], added in the coefficients' order, and the
    solve starts from the extrapolation of the state's kept nonlinearity
    spectra (``_extrapolated_nl``), or from phi^{n-1}'s values if it keeps none.
    """
    _check_step(tau)
    if state.phi_prev.grid != p.grid:
        raise ValueError(f"the field is on {state.phi_prev.grid} but the parameters on {p.grid}")
    held = state.held
    key = (p, *key)
    if key != held.key:
        shift, stiff, coefs = linear()
        _store_multipliers(held, key, tau, shift, stiff, p.grid.k2_half, coefs)
    base_hat = hats[0] * held.coefs[0]
    for hat, c in zip(hats[1:], held.coefs[1:]):
        base_hat += hat * c
    return fixed_point_solve(held.mult, base_hat, state.phi_prev.values, p.grid, nonlinear,
                             _extrapolated_nl(state, tau))


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
    forcing is absent or mean-free.  A NaN or infinite step is refused with
    the non-positive ones.
    """
    tau_prev = state.tau_prev
    hats = [state.phi_prev.hat]
    if tau_prev is not None:
        hats.append(state.phi_prev2.hat)
    forced = forcing_hat is not None
    if forced:
        hats.append(forcing_hat)

    def linear():
        # rhs = b0 phi^{n-1} - b1 (phi^{n-1} - phi^{n-2}) + forcing
        if tau_prev is None:
            b0 = 1.0 / tau_n
            coefs = [b0]
        else:
            b0, b1 = _bdf2_kernels(tau_n, tau_n / tau_prev)
            coefs = [b0 - b1, b1]
        if forced:
            coefs.append(1.0)
        return b0, p.k2_lin, coefs

    return _held_step(state, tau_n, p, ("bdf2", tau_n, tau_prev, forced), linear, hats, _cube)


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
    """Crank-Nicolson step with the averaged-square nonlinearity.

    A state that keeps nonlinearity spectra starts the solve from their
    extrapolation to t_n, as ``bdf2_step`` does; any other starts from
    phi^{n-1}'s values.
    """
    def linear():
        shift = 1.0 / tau
        half = 0.5 * p.k2_lin
        return shift, half, [shift - half]   # rhs = (1/tau - half) phi^{n-1}

    prev = state.phi_prev
    return _held_step(state, tau, p, ("cn", tau), linear, [prev.hat],
                      _midpoint_cube(prev.values))


def cncs_step(state: StepperState, tau: float, p: PfcParams) -> tuple[Field, SolveStats]:
    """Crank-Nicolson convex-splitting step; from a single level, its first-order start.

    With two history levels the explicit gradient term uses the extrapolated
    midpoint value (3 phi^{n-1} - phi^{n-2}) / 2.  From phi^{n-1} alone the
    step is first-order convex splitting: implicit biharmonic, (1 - eps) phi
    and cubic (lagged); explicit the concave gradient term 2 Lap phi^{n-1}.
    That step starts from phi^{n-1}'s values; the two-level step starts as
    ``cn_step`` does, so after a first-order start from that level's F(phi^3).
    """
    prev, prev2 = state.phi_prev, state.phi_prev2
    start = prev2 is None

    def linear():
        k2 = p.grid.k2_half
        k4 = k2 * k2
        shift = 1.0 / tau
        stiff = k2 * (k4 + 1.0 - p.eps)
        if start:
            return shift, stiff, [shift + 2.0 * k4]   # rhs = (1/tau + 2 k^4) phi^{n-1}
        stiff *= 0.5   # the midpoint puts half the linear term on each level
        extrap = 0.5 * k4
        # rhs = (1/tau - stiff) phi^{n-1} + k^4/2 (3 phi^{n-1} - phi^{n-2})
        return shift, stiff, [shift - stiff + 3.0 * extrap, -extrap]

    if start:
        return _held_step(state, tau, p, ("cs1", tau), linear, [prev.hat], _cube)
    return _held_step(state, tau, p, ("cncs", tau), linear, [prev.hat, prev2.hat],
                      _midpoint_cube(prev.values))


def run_fixed_mesh(phi0: Field, mesh_steps, p: PfcParams, scheme: str = "bdf2",
                   forcing_fn=None, observer=None):
    """Advance a trajectory over a fixed step sequence with one of ``SCHEMES``.

    Returns the final state, and calls ``observer(state, stats)`` after
    every step; the observer is the one way to see per-step data.  Every
    scheme takes its first step from phi^0 alone; the first step refuses a
    phi^0 that is not on ``p.grid``.  Only BDF2 takes a forcing:
    ``forcing_fn(t)`` returns its half spectrum at the new level (as
    ``model.manufactured_forcing_hat`` does).
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
