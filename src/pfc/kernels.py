"""Variable-step BDF2 kernels, their DOC (orthogonal-convolution) inverses,
and matrix certificates for positive definiteness.

The two-step kernels on a nonuniform mesh are

  b0^(1) = 1/tau_1,
  b0^(n) = (1 + 2 r_n) / (tau_n (1 + r_n)),
  b1^(n) = -r_n^2 / (tau_n (1 + r_n))        for n >= 2,

and the DOC kernels theta are their convolution inverse, in closed form

  theta_{n-j}^(n) = (1 / b0^(j)) * prod_{i=j+1..n} g_i,   g_i = r_i^2 / (1 + 2 r_i).

The lower-triangular DOC matrix is thus semiseparable of rank one: its
products, row sums and orthogonality residual follow from O(N)
recurrences, and no kernel table is built.  Certificates work with the
scaled matrices Bt2 = diag(sqrt(tau)) B2 diag(sqrt(tau)) and
Bt = Bt2 + Bt2^T, whose extreme eigenvalues admit mesh-independent bounds
(21/40 below for Bt, 53/5 above for Bt2^T Bt2) whenever all ratios satisfy
S1.  One Sturm-sequence bisection for the largest eigenvalue gives both:
lam_min(Bt) = -lam_max(-Bt).

The lemmas that no run prints are test oracles: the kernel forms
(``quad_form_b``, ``quad_form_theta``, ``cross_form_theta``) in
``tests/conftest.py``, and ``verify_telescope``, ``apply_d2`` and the
Gershgorin bounds (``min_eig_bound``, ``max_eig_bound``,
``refined_quad_const``) in ``tests/test_kernels.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .mesh import TimeMesh

EIG_TOL = 1e-10   # width at which the eigenvalue bisection stops


@dataclass
class BDF2Coeffs:
    """Leading/trailing kernels, stored 0-indexed: b0[n-1], b1[n-1] (b1[0] = 0)."""

    b0: np.ndarray
    b1: np.ndarray


def _bdf2_kernels(tau, r):
    """(b0, b1) of a step tau at step ratio r (r = 0: BDF1), for scalars or arrays."""
    return (1.0 + 2.0 * r) / (tau * (1.0 + r)), -(r * r) / (tau * (1.0 + r))


def bdf2_coeffs(mesh: TimeMesh) -> BDF2Coeffs:
    return BDF2Coeffs(*_bdf2_kernels(mesh.steps, mesh.ratios))


def _doc_ratios(mesh: TimeMesh) -> np.ndarray:
    """g_n = r_n^2 / (1 + 2 r_n), the factor from DOC row n-1 to row n; g_1 = 0."""
    r = mesh.ratios
    return r * r / (1.0 + 2.0 * r)


def doc_apply(mesh: TimeMesh, c: BDF2Coeffs, v: np.ndarray) -> np.ndarray:
    """Theta v for a sequence v_1..v_N: (Theta v)_n = sum_{j<=n} theta_{n-j}^(n) v_j, in O(N).

    ``c`` are the mesh's kernels, ``bdf2_coeffs(mesh)``.
    The recurrence S_n = g_n S_{n-1} + v_n / b0^(n) forms no kernel and no
    product of the g_i, so it neither overflows nor underflows where the
    kernels themselves do not; ``v`` of ones gives the row sums.
    """
    terms = np.asarray(v, dtype=np.float64) / c.b0
    out = []
    s = 0.0
    for gn, tn in zip(_doc_ratios(mesh).tolist(), terms.tolist()):
        s = gn * s + tn
        out.append(s)
    return np.array(out)


def verify_orthogonality(mesh: TimeMesh, c: BDF2Coeffs) -> float:
    """Max residual of sum_{j=k..n} theta_{n-j}^(n) b_{j-k}^(j) - delta_{nk}, in O(N).

    ``c`` are the kernels b, normally ``bdf2_coeffs(mesh)``; the DOC factors
    come from the mesh's step ratios.
    The diagonal entries are (1/b0^(n)) b0^(n) - 1.  Below it, entry (n, k)
    factors as rho_k prod_{i=k+2..n} g_i with
    rho_k = g_{k+1} (1/b0^(k)) b0^(k) + b1^(k+1) / b0^(k+1), so the largest
    entry of row n is R_n = max(g_n R_{n-1}, |rho_{n-1}|): the scan carries
    the residuals themselves, never a product of the g_i alone.  NaN entries
    are skipped.
    """
    inv_b0 = 1.0 / c.b0
    scaled = inv_b0 * c.b0
    worst = float(np.fmax.reduce(np.abs(scaled - 1.0)))
    g = _doc_ratios(mesh)
    rho = np.abs(g[1:] * scaled[:-1] + c.b1[1:] * inv_b0[1:])
    row = 0.0
    for gn, rk in zip(g[1:].tolist(), rho.tolist()):
        # max(a, b) returns a unless b > a, so a NaN product drops out here
        row = max(rk, gn * row)
        worst = max(worst, row)
    return worst


def scaled_tridiagonals(mesh: TimeMesh) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal/subdiagonal kernels of the sqrt-step scaled bidiagonal matrix.

    Returns (tb0, tb1) with tb0_k = (1+2r_k)/(1+r_k) and
    tb1_k = -r_k^{3/2}/(1+r_k); tb1_1 = 0 by the r_1 = 0 convention.
    """
    r = mesh.ratios
    tb0 = (1.0 + 2.0 * r) / (1.0 + r)
    tb1 = -(r**1.5) / (1.0 + r)
    return tb0, tb1


# Sturm pivots q_1 = d_1 - x, q_i = d_i - x - e_{i-1}^2 / q_{i-1} of the
# symmetric tridiagonal with leading entry d0 and (d_i, e_{i-1}^2) pairs for
# the other rows: as many eigenvalues lie below x as pivots are negative
# (Barth, Martin & Wilkinson 1967).  One predicate serves both certificates:
# lam_min(A) = -lam_max(-A), and negating d is exact, so every pivot, the
# Gershgorin bracket and every midpoint of -A are exactly those of A negated.

def _all_eigs_below(d0: float, pairs: list[tuple[float, float]], x: float) -> bool:
    """Whether every eigenvalue lies below x: no pivot is non-negative.

    It stops at the first pivot >= 0, so it never divides by a zero pivot.
    """
    q = d0 - x
    if not q < 0:
        return False
    for di, e2 in pairs:
        q = di - x - e2 / q
        if not q < 0:
            return False
    return True


def tridiag_max_eig(d: np.ndarray, e: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric tridiagonal matrix by bisection.

    The bracket comes from Gershgorin disks; the smallest eigenvalue is
    ``-tridiag_max_eig(-d, e)``.
    """
    d = np.asarray(d, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    radius = np.zeros(d.size)
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    lo = float(np.min(d - radius))
    hi = float(np.max(d + radius))
    # Python floats: the Sturm recurrence is scalar, and numpy scalars are slow
    d0 = float(d[0])
    pairs = list(zip(d[1:].tolist(), (e * e).tolist()))
    # invariant: every eigenvalue lies below hi, and some not below lo
    lo -= EIG_TOL
    hi += EIG_TOL
    while hi - lo > EIG_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # adjacent doubles: EIG_TOL is below the spacing at this magnitude
        if _all_eigs_below(d0, pairs, mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class EigenBounds(NamedTuple):
    lam_min: float      # smallest eigenvalue of Bt
    lam_max: float      # largest eigenvalue of B2t^T B2t
    quad_const: float   # lam_max / lam_min^2
    s1_ok: bool


def eigen_bounds(mesh: TimeMesh) -> EigenBounds:
    """Extreme eigenvalues of the scaled certificate matrices and their ratio."""
    tb0, tb1 = scaled_tridiagonals(mesh)
    # Bt: diag 2*tb0_k, offdiag tb1_{k+1}
    d_bt = 2.0 * tb0
    e_bt = tb1[1:]
    lam_min = -tridiag_max_eig(-d_bt, e_bt)
    # B2t^T B2t: diag tb0_k^2 + tb1_{k+1}^2, offdiag tb0_{k+1} * tb1_{k+1}
    d_p = tb0**2
    d_p[:-1] += tb1[1:] ** 2
    e_p = tb0[1:] * tb1[1:]
    lam_max = tridiag_max_eig(d_p, e_p)
    quad_const = lam_max / lam_min**2
    return EigenBounds(lam_min, lam_max, quad_const, mesh.satisfies_s1())
