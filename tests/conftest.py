"""Shared fixtures and reference implementations.

The package keeps only the half-plane multipliers that pair with
``pfc.grid.forward``/``backward``.  The full-plane arrays in numpy ``fft2``
order and the M x M sample coordinates are rebuilt here, independently of
the package, as oracles; so are 1/k^2, the inverse Laplacian and the H^-1
norm that check ``model.step_distance_sq``.  Likewise the package computes
with the DOC kernels through O(N) recurrences only, and the O(N^2)
triangular kernel table and dense kernel matrices live here, for small
meshes.  Helpers that only tests use (``constant_field``, ``linf_monitor``,
``load_snapshot``, ``lin_symbol_half``) live here too, and so do the mesh
builders ``random_s1_mesh`` and ``alternating_ratio_mesh``,
``scalar_random_mesh``, the one-draw-at-a-time form of ``random_mesh``,
``adaptive_states``, ``adaptive_run``'s loop from a chosen first trial
step, ``period_two_map``, a fixed-point map that can only stagnate, and
the output-digest helpers ``DIGEST_BUILD``, ``on_digest_build``
and ``sha256_file``.

Oracles that no run calls came here from the package with their bodies:
``inner`` (with ``GridMismatchError``), ``mean``, ``laplacian``,
``chemical_potential``, ``modified_energy``, ``manufactured_forcing`` (the
grid values that ``model.manufactured_forcing_hat`` transforms),
``mesh_from_ratios``, the kernel forms ``quad_form_b``, ``quad_form_theta``
and ``cross_form_theta``, and ``oscillation_indicator``.
"""

import hashlib
import platform
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import pfc.experiments
import pfc.grid
import pfc.model
import pfc.steppers
from pfc.adaptive import adaptive_advance
from pfc.grid import Field, Grid2D, MeanZeroError, backward, forward
from pfc.kernels import bdf2_coeffs, doc_apply
from pfc.mesh import R_SUP, TimeMesh
from pfc.model import (PfcParams, _axis_sines, energy, exact_solution, history_weight,
                       step_distance_sq)
from pfc.rng import SplitMix64
from pfc.steppers import FP_TOL, MAX_ITER, StepperState


# The build the output digests were recorded on: numpy's version and the
# machine.  Solver outputs are bit-identical only per platform and numpy build,
# so elsewhere the digest tests check stored values within stated tolerances.
DIGEST_BUILD = ("2.4.6", "x86_64")


def on_digest_build() -> bool:
    return (np.__version__, platform.machine()) == DIGEST_BUILD


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class GridMismatchError(ValueError):
    """Two fields do not share the same grid."""


def _check_same_grid(f: Field, g: Field):
    if f.grid != g.grid:
        raise GridMismatchError("fields live on different grids")


def inner(f: Field, g: Field) -> float:
    """Discrete L2 inner product h^2 * sum(f * g)."""
    _check_same_grid(f, g)
    return f.grid.cell_area * float(np.sum(f.values * g.values))


def mean(f: Field) -> float:
    return float(np.mean(f.values))


def laplacian(f: Field) -> Field:
    g = f.grid
    return Field(g, backward(-g.k2_half * forward(f.values)))


def chemical_potential(phi: Field, p: PfcParams) -> Field:
    v = phi.values
    lin = backward(lin_symbol_half(p) * forward(v))
    return Field(phi.grid, lin + v * v * v)


def modified_energy(phi_k: Field, phi_km1: Field, tau_k: float, r_kp1: float,
                    p: PfcParams) -> float:
    """E[phi_k] plus the step-history term r/(2(1+r)tau) ||phi_k - phi_km1||_{-1}^2."""
    w = history_weight(tau_k, r_kp1)
    linf = float(np.max(np.abs(phi_k.values)))
    return energy(phi_k, p) + (w * step_distance_sq(phi_k, phi_km1, linf) if w else 0.0)


def manufactured_forcing(t: float, grid: Grid2D, p: PfcParams) -> Field:
    """Source g = d/dt Phi - Lap_h mu(Phi) built with the discrete operators.

    Spatial derivatives use the same spectral operators as the stepper, so
    the spatial consistency error of the forced problem sits at roundoff and
    measured errors are purely temporal.
    """
    phi = exact_solution(t, grid)
    sx, sy = _axis_sines(grid)
    dphi_dt = (-np.sin(t) * sx) * sy
    lap_mu = laplacian(chemical_potential(phi, p))
    return Field(grid, dphi_dt - lap_mu.values)


def mesh_from_ratios(tau1: float, ratios) -> TimeMesh:
    """Build a mesh from the first step and the ratios r_2..r_N."""
    steps = [float(tau1)]
    for r in ratios:
        steps.append(steps[-1] * float(r))
    return TimeMesh(np.array(steps))


def quad_form_b(mesh: TimeMesh, w: np.ndarray) -> float:
    """2 sum_k w_k sum_j b_{k-j}^(k) w_j (lower bidiagonal convolution form)."""
    c = bdf2_coeffs(mesh)
    w = np.asarray(w, dtype=np.float64)
    conv = c.b0 * w
    conv[1:] += c.b1[1:] * w[:-1]
    return 2.0 * float(w @ conv)


def quad_form_theta(mesh: TimeMesh, v: np.ndarray) -> float:
    """2 sum_k v_k sum_j theta_{k-j}^(k) v_j."""
    v = np.asarray(v, dtype=np.float64)
    return 2.0 * float(v @ doc_apply(mesh, bdf2_coeffs(mesh), v))


def cross_form_theta(mesh: TimeMesh, w: np.ndarray, v: np.ndarray) -> float:
    """sum_k sum_j theta_{k-j}^(k) w_k v_j."""
    return float(np.asarray(w, dtype=np.float64) @ doc_apply(mesh, bdf2_coeffs(mesh), v))


def oscillation_indicator(profile: np.ndarray) -> int:
    """Sign changes of the discrete second difference along a profile."""
    d2 = profile[2:] - 2.0 * profile[1:-1] + profile[:-2]
    signs = np.sign(d2)
    signs = signs[signs != 0]
    return int(np.sum(signs[1:] != signs[:-1]))


def random_s1_mesh(rng: np.random.Generator, n_max: int = 64,
                   n_min: int = 1, ratio_hi: float = 3.5) -> TimeMesh:
    """Random mesh with all adjacent ratios inside the S1 range."""
    n = int(rng.integers(n_min, n_max + 1))
    tau1 = float(rng.uniform(1e-3, 1.0))
    ratios = rng.uniform(0.05, ratio_hi, size=n - 1)
    assert ratio_hi < R_SUP
    return mesh_from_ratios(tau1, ratios)


def alternating_ratio_mesh(rng: np.random.Generator, n: int) -> TimeMesh:
    """n steps from tau_1 ~ U(0.02, 0.4) whose ratios alternate between a draw
    r ~ U(3.0, 3.55), near the S1 bound, and its inverse 1/r."""
    up = rng.uniform(3.0, 3.55, size=n // 2)
    return mesh_from_ratios(float(rng.uniform(0.02, 0.4)),
                            np.column_stack([up, 1.0 / up]).ravel()[:n - 1])


def scalar_random_mesh(N: int, T: float, seed: int) -> TimeMesh:
    """``pfc.mesh.random_mesh`` from N scalar ``uniform`` draws, the oracle for its block draw."""
    gen = SplitMix64(seed)
    sigma = np.array([gen.uniform() for _ in range(N)])
    return TimeMesh(T * sigma / sigma.sum())


@dataclass
class DOCKernels:
    """Triangular kernel table; rows[n-1][j-1] = theta_{n-j}^(n) for 1 <= j <= n."""

    rows: list[np.ndarray]

    def row_sums(self) -> np.ndarray:
        return np.array([row.sum() for row in self.rows])


def doc_kernels(mesh: TimeMesh) -> DOCKernels:
    """Closed-form product construction of the DOC kernels, O(N^2)."""
    c = bdf2_coeffs(mesh)
    r = mesh.ratios
    # g[i] = r_{i+1}^2 / (1 + 2 r_{i+1}) for i = 1..N-1 (0-indexed i)
    g = (r[1:] ** 2) / (1.0 + 2.0 * r[1:]) if mesh.N > 1 else np.array([])
    inv_b0 = 1.0 / c.b0
    rows = []
    for n in range(1, mesh.N + 1):
        # theta_{n-j}^(n) = inv_b0[j-1] * prod(g[j..n-1])  (g index 0-based)
        suffix = np.ones(n)
        if n > 1:
            suffix[:-1] = np.cumprod(g[:n - 1][::-1])[::-1]
        rows.append(inv_b0[:n] * suffix)
    return DOCKernels(rows)


def doc_kernels_recursive(mesh: TimeMesh) -> DOCKernels:
    """Defining recursion; cross-check for the product construction."""
    c = bdf2_coeffs(mesh)
    rows: list[np.ndarray] = []
    for n in range(1, mesh.N + 1):
        row = np.zeros(n)
        row[n - 1] = 1.0 / c.b0[n - 1]  # theta_0^(n), j = n
        for j in range(n - 1, 0, -1):
            # theta_{n-j}^(n) = -(1/b0^(j)) sum_{m=j+1..n} theta_{n-m}^(n) b_{m-j}^(m)
            # only m = j+1 contributes (two-step kernels)
            row[j - 1] = -(row[j] * c.b1[j]) / c.b0[j - 1]
        rows.append(row)
    return DOCKernels(rows)


def table_orthogonality(mesh: TimeMesh, c=None) -> float:
    """Max |sum_j theta_{n-j}^(n) b_{j-k}^(j) - delta_{nk}| over the table,
    with the kernels ``c`` (default ``bdf2_coeffs(mesh)``); NaN entries are
    skipped."""
    c = bdf2_coeffs(mesh) if c is None else c
    worst = 0.0
    for n, row in enumerate(doc_kernels(mesh).rows, start=1):
        s = row * c.b0[:n]
        s[:-1] += row[1:] * c.b1[1:n]
        s[-1] -= 1.0
        worst = max(worst, float(np.fmax.reduce(np.abs(s))))
    return worst


@dataclass
class KernelMatrices:
    B2: np.ndarray
    Theta2: np.ndarray
    B2t: np.ndarray  # sqrt-step scaled bidiagonal
    Bt: np.ndarray   # symmetric tridiagonal B2t + B2t^T


def kernel_matrices(mesh: TimeMesh) -> KernelMatrices:
    """Dense N x N kernel matrices, O(N^2)."""
    c = bdf2_coeffs(mesh)
    N = mesh.N
    B2 = np.diag(c.b0)
    for n in range(2, N + 1):
        B2[n - 1, n - 2] = c.b1[n - 1]
    doc = doc_kernels(mesh)
    Theta2 = np.zeros((N, N))
    for n in range(1, N + 1):
        Theta2[n - 1, :n] = doc.rows[n - 1]
    lam = np.sqrt(mesh.steps)
    B2t = lam[:, None] * B2 * lam[None, :]
    return KernelMatrices(B2, Theta2, B2t, B2t + B2t.T)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def one_patch(monkeypatch):
    """``patched_initial`` seeds one strong patch, at the centre of (0, 64)^2."""
    monkeypatch.setattr(pfc.experiments, "PATCHES", [((32.0, 32.0), 10.0, 0.9)])


def coords(grid):
    """The M x M sample coordinates X, Y, with X[i, j] = i h and Y[i, j] = j h."""
    x = grid.h * np.arange(grid.M)
    return np.meshgrid(x, x, indexing="ij")


def period_two_map(grid):
    """``fixed_point_solve``'s arguments for a map whose iterates alternate
    between c + 1e-11 and c - 1e-11, for a smooth field c, from a zero guess:
    the increment is the same 2e-11 from the second iteration on."""
    X, Y = coords(grid)
    c = 0.1 + 0.05 * np.sin(grid.nu * X) * np.cos(grid.nu * Y)
    sign = [1e-11]

    def nonlinear(phi, out):
        sign[0] = -sign[0]
        return np.add(c, sign[0], out=out)

    mult = np.ones(grid.k2_half.shape)
    return mult, np.zeros(mult.shape, dtype=complex), np.zeros((grid.M, grid.M)), grid, nonlinear


def _full_wavenumbers(grid):
    ell = np.fft.fftfreq(grid.M, d=1.0 / grid.M)
    return np.meshgrid(ell, ell, indexing="ij")


def full_k2(grid):
    """k^2 on the full plane in numpy ``fft2`` order."""
    lx, ly = _full_wavenumbers(grid)
    return grid.nu**2 * (lx**2 + ly**2)


def full_grad(grid):
    """The full-plane multipliers i kx and i ky, zeroed on their Nyquist modes."""
    lx, ly = _full_wavenumbers(grid)
    ikx = 1j * grid.nu * lx
    iky = 1j * grid.nu * ly
    ikx[grid.M // 2, :] = 0.0
    iky[:, grid.M // 2] = 0.0
    return ikx, iky


def lin_symbol_half(p):
    """(1 - k^2)^2 - eps, the symbol of the linear part of mu, on the half plane:
    the expression ``PfcParams`` forms it with, so the bits are the same."""
    return (1.0 - p.grid.k2_half) ** 2 - p.eps


def full_lin_symbol(p):
    """(1 - k^2)^2 - eps, the symbol of the linear part of mu, on the full plane."""
    return (1.0 - full_k2(p.grid)) ** 2 - p.eps


def inv_k2_half(grid):
    """1/k^2 on the half plane, 0 on the zero mode (the package keeps it folded)."""
    k2 = grid.k2_half
    out = np.zeros_like(k2)
    np.divide(1.0, k2, out=out, where=k2 > 0)
    return out


def inv_laplacian(f: Field, gamma: int = 1) -> Field:
    """Apply (-Laplacian)^(-gamma) with 1/k^2 on the half plane; requires a mean-zero field.

    The mean is judged against the field's own max norm, which suits fields
    of order one; the difference of two nearby states can fail it on the
    roundoff of its mean.  The zero mode of the output is set to zero exactly.
    """
    if gamma < 1:
        raise ValueError("gamma must be a positive integer")
    m = mean(f)
    linf = float(np.max(np.abs(f.values)))
    if abs(m) > 1e-12 * max(linf, 1e-300):
        raise MeanZeroError(f"field has mean {m:.3e}, expected mean zero")
    return Field(f.grid, backward(inv_k2_half(f.grid)**gamma * forward(f.values)))


def hminus1_norm(f: Field) -> float:
    """Discrete H^{-1} norm, defined through the inverse Laplacian."""
    val = inner(inv_laplacian(f, 1), f)
    return float(np.sqrt(max(val, 0.0)))


def constant_field(grid, c: float) -> Field:
    return Field(grid, np.full((grid.M, grid.M), float(c)))


def linf_monitor(phi: Field, E0: float, p) -> tuple[float, float]:
    """Current max norm and the a-priori proxy bound (embedding constant 1).

    The proxy is reported for monitoring only; it is never asserted because
    the embedding constant is not quantified.
    """
    linf = float(np.max(np.abs(phi.values)))
    proxy = float(np.sqrt(max(8.0 * E0 + 2.0 * (2.0 + p.eps) ** 2 * phi.grid.volume, 0.0)))
    return linf, proxy


def load_snapshot(path) -> tuple[Field, float]:
    """Read a file written by ``pfc.grid.save_snapshot``."""
    with open(path) as fh:
        head = fh.readline().split()
        M, L, t = int(head[0]), float(head[1]), float(head[2])
        vals = np.empty((M, M))
        for j in range(M):
            vals[:, j] = [float(x) for x in fh.readline().split(",")]
    return Field(Grid2D(M, L), vals), t


def ref_solve(symbol, rhs_hat, guess, nl, nl_start=None):
    """Full-plane fixed-point solve: phi <- ifft2((rhs_hat + nl(phi)) / symbol).

    With ``nl_start``, a spectrum standing in for nl(guess), the first
    iterate is ifft2((rhs_hat + nl_start) / symbol); it is counted as an
    iteration but, with no increment to judge, never accepted.
    """
    phi = guess
    first = 1
    if nl_start is not None:
        phi = np.fft.ifft2((rhs_hat + nl_start) / symbol).real
        first = 2
    for it in range(first, MAX_ITER + 1):
        phi_new = np.fft.ifft2((rhs_hat + nl(phi)) / symbol).real
        res = float(np.max(np.abs(phi_new - phi)))
        phi = phi_new
        if res <= FP_TOL:
            return phi, it
    raise AssertionError("reference solve did not converge")


def count_transforms(monkeypatch) -> list:
    """Record the name of every ``forward``/``backward`` call from now on.

    The transforms are replaced in every module that binds them:
    ``pfc.grid`` (``Field.hat``), ``pfc.model`` (``forward`` only) and
    ``pfc.steppers``.
    """
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("forward", "backward"):
        fn = getattr(pfc.grid, name)
        for mod in (pfc.grid, pfc.model, pfc.steppers):
            if name in vars(mod):
                monkeypatch.setattr(mod, name, counted(fn))
    return calls


def adaptive_states(phi0: Field, T: float, p: PfcParams, tau_trial: float):
    """``adaptive_run``'s loop from the first trial step ``tau_trial`` instead
    of TAU_MIN: yields the state after each accepted step."""
    state = StepperState(phi0)
    while state.t < T * (1.0 - 1e-12):
        step = adaptive_advance(state, min(tau_trial, T - state.t), p)
        state = state.advanced(step.phi, step.tau_accepted)
        tau_trial = step.tau_next
        yield state


def ref_cncs(prev, prev2, tau, p, literal=False):
    """Full-plane CNCS step; ``literal`` extrapolates with 3 prev - prev2, no half factor."""
    k2 = full_k2(p.grid)
    lin = k2**2 + 1.0 - p.eps
    prev_hat = np.fft.fft2(prev)
    extrap = 3.0 * prev - prev2
    if not literal:
        extrap = 0.5 * extrap
    rhs_hat = (prev_hat / tau - 0.5 * k2 * lin * prev_hat
               + k2**2 * np.fft.fft2(extrap))

    def nl(phi):
        return -k2 * np.fft.fft2(0.5 * (phi**2 + prev**2) * 0.5 * (phi + prev))

    return ref_solve(1.0 / tau + 0.5 * k2 * lin, rhs_hat, prev, nl)
