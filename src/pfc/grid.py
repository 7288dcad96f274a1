"""Periodic 2D grid with FFT-based discrete differential operators.

This module owns every transform in the package.  Fields are real, so the
spectral layer works on the half spectrum: ``forward`` is numpy's ``rfft2``
(unnormalized, shape M x (M/2 + 1)) and ``backward`` is ``irfft2``, which
carries the 1/M^2 factor; both are written as their two 1-D passes.  Fields
are stored as M x M real arrays with ``values[i, j]`` the sample at
``(i*h, j*h)``.

Multipliers live in the one layout that pairs with ``forward``/``backward``:
the half plane (``k2_half`` and the H^-1 weight ``inv_k2_folded``), rows in
numpy ``fftfreq`` order and columns in ``rfftfreq`` order.  The
second-derivative multiplier keeps the full -nu^2 (M/2)^2 weight on the
Nyquist mode.  Weights of Parseval sums are stored folded
(``fold_conjugates``), so that ``sum_of_squares`` is one dot product.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np


class GridMismatchError(ValueError):
    """Two fields do not share the same grid."""


class MeanZeroError(ValueError):
    """Operation requires a mean-zero field."""


@dataclass
class Grid2D:
    """Uniform periodic square grid: M points per direction on (0, L)^2."""

    M: int
    L: float

    def __post_init__(self):
        if self.M < 4 or self.M % 2 != 0:
            raise ValueError(f"M must be even and >= 4, got {self.M}")
        if self.L <= 0:
            raise ValueError(f"L must be positive, got {self.L}")
        self.h = self.L / self.M
        self.nu = 2.0 * np.pi / self.L
        # integer wavenumbers: rows 0..M/2-1, -M/2..-1; columns 0..M/2
        lx = np.fft.fftfreq(self.M, d=1.0 / self.M)[:, None]
        ly = np.fft.rfftfreq(self.M, d=1.0 / self.M)
        self.k2_half = self.nu**2 * (lx**2 + ly**2)
        # 1/k^2, 0 on the zero mode, folded for sum_of_squares
        self.inv_k2_folded = np.zeros_like(self.k2_half)
        np.divide(1.0, self.k2_half, out=self.inv_k2_folded, where=self.k2_half > 0)
        fold_conjugates(self.inv_k2_folded)
        self.x = self.h * np.arange(self.M)   # sample coordinates along either axis

    @property
    def cell_area(self) -> float:
        return self.h * self.h

    @property
    def volume(self) -> float:
        return self.L * self.L

    def __eq__(self, other):
        return isinstance(other, Grid2D) and self.M == other.M and self.L == other.L


@dataclass
class Field:
    """Real periodic grid function.

    A field made by a BDF2 solve also carries ``nl_hat``, the half spectrum
    of the solve's last lagged nonlinearity; it is None otherwise.
    """

    grid: Grid2D
    values: np.ndarray = field(repr=False)
    nl_hat: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.grid.M, self.grid.M):
            raise ValueError(
                f"field shape {self.values.shape} does not match grid M={self.grid.M}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite entries")

    @classmethod
    def unchecked(cls, grid: Grid2D, values: np.ndarray, nl_hat: np.ndarray | None) -> "Field":
        """A field from ``float64`` values of the grid's shape that are known to be
        finite, made without the checks of the constructor."""
        f = cls.__new__(cls)
        f.grid, f.values, f.nl_hat = grid, values, nl_hat
        return f

    @functools.cached_property
    def hat(self) -> np.ndarray:
        """The half spectrum ``forward(values)``, computed on first use and kept.

        A solver that already holds the spectrum of the values it made may set
        ``hat`` to it; that equals ``forward(values)`` to roundoff.  Neither
        ``values`` nor ``hat`` may change afterwards.
        """
        return forward(self.values)


def _check_same_grid(f: Field, g: Field):
    if f.grid != g.grid:
        raise GridMismatchError("fields live on different grids")


def forward(values: np.ndarray) -> np.ndarray:
    """Unnormalized half-spectrum transform of real M x M values.

    The axis-wise calls are what ``rfft2`` does inside, bit for bit, without
    its n-d argument handling.
    """
    return np.fft.fft(np.fft.rfft(values, axis=1), axis=0)


def backward(coeffs: np.ndarray, M: int) -> np.ndarray:
    """Normalized inverse of ``forward``: real M x M values (``irfft2``, bit for bit)."""
    return np.fft.irfft(np.fft.ifft(coeffs, axis=0), n=M, axis=1)


def fold_conjugates(weight: np.ndarray) -> np.ndarray:
    """Double ``weight`` in place on the half-plane columns that also stand for
    their conjugate partners: all but the first and the Nyquist column."""
    weight[:, 1:-1] *= 2.0
    return weight


def sum_of_squares(coeffs: np.ndarray, M: int,
                   folded_weight: np.ndarray | None = None) -> float:
    """sum(values**2) of the field whose ``forward`` is ``coeffs`` (Parseval).

    Each mode's power is multiplied by ``folded_weight``, a half-plane weight
    passed through ``fold_conjugates``; without one every mode has weight 1.
    """
    if folded_weight is None:
        folded_weight = fold_conjugates(np.ones(coeffs.shape))
    power = np.square(coeffs.real)
    power += np.square(coeffs.imag)
    return float(np.dot(power.ravel(), folded_weight.ravel())) / (M * M)


def inner(f: Field, g: Field) -> float:
    """Discrete L2 inner product h^2 * sum(f * g)."""
    _check_same_grid(f, g)
    return f.grid.cell_area * float(np.sum(f.values * g.values))


def norms(f: Field) -> tuple[float, float, float]:
    """Return (l2, l4, linf) norms of the field."""
    a = f.grid.cell_area
    v = f.values
    v2 = v * v
    l2 = float(np.sqrt(a * np.sum(v2)))
    l4 = float((a * np.sum(v2 * v2)) ** 0.25)
    linf = float(np.max(np.abs(v)))
    return l2, l4, linf


def l2_norm(f: Field) -> float:
    """The l2 norm alone, the same double as ``norms(f)[0]``."""
    v = f.values
    return float(np.sqrt(f.grid.cell_area * np.sum(v * v)))


def mean(f: Field) -> float:
    return float(np.mean(f.values))


def laplacian(f: Field) -> Field:
    g = f.grid
    return Field(g, backward(-g.k2_half * forward(f.values), g.M))


def save_snapshot(path, f: Field, t: float):
    """Write `M L t` then M comma-separated rows (row i = y index i)."""
    with open(path, "w") as fh:
        fh.write(f"{f.grid.M} {f.grid.L:.17g} {t:.17g}\n")
        for j in range(f.grid.M):
            fh.write(",".join(f"{v:.17g}" for v in f.values[:, j]) + "\n")
