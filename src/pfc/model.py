"""Phase field crystal physics on the discrete grid.

The chemical potential is mu = (1 + Lap)^2 phi + phi^3 - eps*phi; the
discrete free energy is

  E[phi] = 1/2 ||(1 + Lap) phi||^2 + 1/4 ||phi^2 - eps||^2 - 1/4 eps^2 |Omega|,

its constant shift chosen so E[0] = 0.  Here are E, the two factors of
the modified energy's history term, the mass, and the convergence study's
forcing as a half spectrum.  ``chemical_potential``, ``modified_energy`` and the forcing in
grid values (``manufactured_forcing``) are test oracles in
``tests/conftest.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid2D, MeanZeroError, forward, fold_conjugates, sum_of_squares


@dataclass
class PfcParams:
    """Temperature-like parameter, the grid it acts on and their fixed symbols.

    It holds no solver state, so any number of trajectories may share it.
    """

    eps: float
    grid: Grid2D

    def __post_init__(self):
        if not (0 < self.eps < 1):
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
        # spectral symbols of the linear part of mu, (1 - k^2)^2 - eps, and of
        # (1 + Lap)^2, the energy's interface weight, folded for sum_of_squares
        weight = (1.0 - self.grid.k2_half) ** 2
        lin_half = weight - self.eps
        self.interface_weight_folded = fold_conjugates(weight)
        # k^2 ((1 - k^2)^2 - eps), the stiff part of the BDF2 and CN symbols
        self.k2_lin = self.grid.k2_half * lin_half


@dataclass
class EnergyRecord:
    t: float
    tau: float
    E: float
    E_mod: float
    mass: float
    linf: float
    iters: int


def energy(phi: Field, p: PfcParams) -> float:
    """Free energy; the gradient part is summed in spectral space (Parseval)."""
    g = phi.grid
    a = g.cell_area
    e_interf = 0.5 * a * sum_of_squares(phi.hat, p.interface_weight_folded)
    bulk = np.square(phi.values)
    bulk -= p.eps
    e_bulk = 0.25 * a * float(np.sum(np.square(bulk, out=bulk)))
    return e_interf + e_bulk - 0.25 * p.eps**2 * g.volume


def step_distance_sq(phi_k: Field, phi_km1: Field, linf: float) -> float:
    """||phi_k - phi_km1||_{-1}^2 by Parseval from the fields' cached spectra.

    The means must agree to 1e-12 of ``linf`` = max|phi_k|, the roundoff of
    the zero mode.
    """
    g = phi_k.grid
    d = phi_k.hat - phi_km1.hat
    dmean = float(d[0, 0].real) / (g.M * g.M)
    if abs(dmean) > 1e-12 * linf:
        raise MeanZeroError(f"field has mean {dmean:.3e}, expected mean zero")
    return g.cell_area * sum_of_squares(d, g.inv_k2_folded)


def history_weight(tau_k: float, r_kp1: float) -> float:
    """r/(2(1+r)tau), the weight of the step-history term; NaN is refused."""
    if not (tau_k > 0) or not (r_kp1 >= 0):
        raise ValueError("need tau_k > 0 and r_kp1 >= 0")
    return r_kp1 / (2.0 * (1.0 + r_kp1) * tau_k)


def mass(phi: Field) -> float:
    """Discrete integral h^2 * sum(phi)."""
    return phi.grid.cell_area * float(np.sum(phi.values))


def _axis_sines(grid: Grid2D) -> tuple[np.ndarray, np.ndarray]:
    """sin(pi x / 2) as an M x 1 column and sin(pi y / 2) as a 1 x M row."""
    s = np.sin(0.5 * np.pi * grid.x)
    return s[:, None], s[None, :]


def exact_solution(t: float, grid: Grid2D) -> Field:
    """cos(t) sin(pi x / 2) sin(pi y / 2), the manufactured profile on (0,8)^2.

    The sines are taken on the axes and broadcast; the products are the
    ones the 2-D formula forms, in the same order, so the values match it
    bit for bit.
    """
    sx, sy = _axis_sines(grid)
    return Field(grid, (np.cos(t) * sx) * sy)


def manufactured_forcing_hat(p: PfcParams):
    """The half spectrum of the source g = d/dt Phi - Lap_h mu(Phi) as a function of t.

    Spatial derivatives use the same spectral operators as the stepper, so
    the spatial consistency error of the forced problem sits at roundoff and
    measured errors are purely temporal.

    With Phi = cos(t) S, S = sin(pi x / 2) sin(pi y / 2), the forcing is
    linear spectral operators applied to S and S^3, scaled by cos t, cos^3 t
    and sin t:

      g^(t) = cos t A + cos^3 t B - sin t S^,  A = k^2 lin S^,  B = k^2 F(S^3).

    The three spectra are formed here, on ``p.grid``, so the returned
    function ``t -> g^(t)`` makes no transform; each call returns a new
    array.  It equals the forward transform of g formed in grid values (the
    tests' ``manufactured_forcing``) to roundoff amplified by k^2 |lin| on
    each mode.
    """
    sx, sy = _axis_sines(p.grid)
    s = sx * sy
    s_hat = forward(s)
    a = p.k2_lin * s_hat
    b = p.grid.k2_half * forward(s * s * s)

    def forcing_hat(t: float) -> np.ndarray:
        c = math.cos(t)
        out = (c * c * c) * b
        out += c * a
        out -= math.sin(t) * s_hat
        return out

    return forcing_hat
