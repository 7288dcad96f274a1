"""Periodic 2D grid with FFT-based discrete differential operators.

This module owns every transform in the package.  Fields are real, so the
spectral layer works on the half spectrum: ``forward`` is numpy's ``rfft2``
(unnormalized, shape M x (M/2 + 1)) and ``backward`` is ``irfft2``, which
carries the 1/M^2 factor; both are written as their two 1-D passes.  Fields
are stored as M x M real arrays with ``values[i, j]`` the sample at
``(i*h, j*h)``.

Both transforms write into arrays the caller gives, and allocate nothing
when given them (numpy >= 2.0 takes ``out=`` in ``np.fft``).  ``forward``
writes the half spectrum into ``out`` and runs its column pass in place
there.  ``backward`` runs its column pass in place in ``coeffs``, which it
overwrites, and its row pass into the real ``out``.  ``out`` never aliases
the input of either.  This is how the fixed-point solve of ``steppers``
runs its iterations without allocating.

Multipliers live in the one layout that pairs with ``forward``/``backward``:
the half plane (``k2_half`` and the H^-1 weight ``inv_k2_folded``), rows in
numpy ``fftfreq`` order and columns in ``rfftfreq`` order.  The
second-derivative multiplier keeps the full -nu^2 (M/2)^2 weight on the
Nyquist mode.  Weights of Parseval sums are stored folded
(``fold_conjugates``), so that ``sum_of_squares`` is one weighted sum.
Its sums are numpy reductions, not BLAS dot products, so they round the
same at every BLAS thread count.

The test oracles ``laplacian``, ``inner`` and ``mean`` live in
``tests/conftest.py``, and ``norms`` in ``tests/test_grid.py``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np


class MeanZeroError(ValueError):
    """Operation requires a mean-zero field."""


@dataclass(frozen=True)
class Grid2D:
    """Uniform periodic square grid: M points per direction on (0, L)^2.

    A grid is a value: it is frozen, and its derived arrays are read-only.
    """

    M: int
    L: float

    def __post_init__(self):
        if self.M < 4 or self.M % 2 != 0:
            raise ValueError(f"M must be even and >= 4, got {self.M}")
        if not (0 < self.L < np.inf):   # NaN fails both comparisons
            raise ValueError(f"L must be positive and finite, got {self.L}")
        h, nu = self.L / self.M, 2.0 * np.pi / self.L
        # integer wavenumbers: rows 0..M/2-1, -M/2..-1; columns 0..M/2
        lx = np.fft.fftfreq(self.M, d=1.0 / self.M)[:, None]
        ly = np.fft.rfftfreq(self.M, d=1.0 / self.M)
        k2_half = nu**2 * (lx**2 + ly**2)
        # 1/k^2, 0 on the zero mode, folded for sum_of_squares
        inv_k2_folded = np.zeros_like(k2_half)
        np.divide(1.0, k2_half, out=inv_k2_folded, where=k2_half > 0)
        fold_conjugates(inv_k2_folded)
        x = h * np.arange(self.M)   # sample coordinates along either axis
        for name, val in (("h", h), ("nu", nu), ("k2_half", k2_half),
                          ("inv_k2_folded", inv_k2_folded), ("x", x)):
            if isinstance(val, np.ndarray):
                val.flags.writeable = False
            object.__setattr__(self, name, val)

    @property
    def cell_area(self) -> float:
        return self.h * self.h

    @property
    def volume(self) -> float:
        return self.L * self.L


@dataclass
class Field:
    """Real periodic grid function.

    ``values`` is a read-only view, so ``hat`` stays the spectrum of the
    values; the array it was made from stays writeable by its owner.  A
    field made by a solve of any scheme also carries ``nl_hat``, the half
    spectrum of the solve's last lagged nonlinearity; it is None otherwise.
    """

    grid: Grid2D
    values: np.ndarray = field(repr=False)
    nl_hat: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.values = _read_only(np.asarray(self.values, dtype=np.float64))
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
        f.grid, f.values, f.nl_hat = grid, _read_only(values), nl_hat
        return f

    @functools.cached_property
    def hat(self) -> np.ndarray:
        """The half spectrum ``forward(values)``, computed on first use and kept.

        A solver that already holds the spectrum of the values it made may set
        ``hat`` to it; that equals ``forward(values)`` to roundoff, step after
        step, because the solve makes the self-conjugate columns (ky = 0 and
        the Nyquist column) exactly Hermitian, as a real field's are.  Neither
        ``values`` nor ``hat`` may change afterwards.
        """
        return forward(self.values)


def _read_only(values: np.ndarray) -> np.ndarray:
    """A read-only view of ``values``, which stay as writeable as they were."""
    view = values.view()
    view.flags.writeable = False
    return view


def forward(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unnormalized half-spectrum transform of real M x M values.

    The axis-wise calls are what ``rfft2`` does inside, bit for bit, without
    its n-d argument handling.  The row pass writes into ``out`` (a new
    array when None) and the column pass runs in place there.
    """
    out = np.fft.rfft(values, axis=1, out=out)
    return np.fft.fft(out, axis=0, out=out)


def backward(coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Normalized inverse of ``forward``: real M x M values (``irfft2``, bit for bit).

    The column pass runs in place in ``coeffs``, which ends overwritten, and
    the row pass writes into ``out`` (a new array when None).  M is even, so
    ``irfft``'s default length 2 (M/2 + 1 - 1) is M.
    """
    np.fft.ifft(coeffs, axis=0, out=coeffs)
    return np.fft.irfft(coeffs, axis=1, out=out)


def fold_conjugates(weight: np.ndarray) -> np.ndarray:
    """Double ``weight`` in place on the half-plane columns that also stand for
    their conjugate partners: all but the first and the Nyquist column."""
    weight[:, 1:-1] *= 2.0
    return weight


def sum_of_squares(coeffs: np.ndarray, folded_weight: np.ndarray) -> float:
    """Weighted Parseval sum of the M x M field whose ``forward`` is ``coeffs``.

    Each mode's power is multiplied by ``folded_weight``, a half-plane weight
    passed through ``fold_conjugates``; a weight of ones gives sum(values**2).
    """
    power = np.square(coeffs.real)
    power += np.square(coeffs.imag)
    power *= folded_weight
    return float(np.sum(power)) / coeffs.shape[0] ** 2


def l2_norm(values: np.ndarray, grid: Grid2D) -> float:
    """The discrete L2 norm sqrt(h^2 * sum(values**2)) of values on ``grid``."""
    return float(np.sqrt(grid.cell_area * np.sum(values * values)))

