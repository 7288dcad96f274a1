"""Experiment harnesses: seeded initial data, convergence ladders on random
meshes, scheme comparisons, and polycrystal growth with adaptive stepping.

All randomness is drawn from the library's splitmix generator in row-major
grid order, so every run replays bit-identically from its seed.  Results
are returned as plain records and optionally written as CSV (comma
separator, header row, 17 significant digits).  The settings each experiment
runs at are module constants, read at call time, so a test patches them.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .adaptive import adaptive_run
from .grid import Field, Grid2D, l2_norm
from .kernels import bdf2_coeffs, doc_apply, eigen_bounds, verify_orthogonality
from .mesh import TimeMesh, random_mesh, uniform_mesh
from .model import (EnergyRecord, PfcParams, energy, exact_solution, history_weight,
                    manufactured_forcing_hat, mass, step_distance_sq)
from .rng import SplitMix64
from .steppers import SCHEMES, SolveStats, StepperState, run_fixed_mesh

FMT = "%.17g"
PATCHES = (((128.0, 64.0), 10.0, 0.2),     # patched_initial's seed patches: (center, side, amp)
           ((64.0, 196.0), 10.0, 0.3),
           ((196.0, 196.0), 10.0, 0.9))
PROFILE_TAUS = (1e-2, 1e-3, 5e-4, 2.5e-4)  # run_compare's profile step sizes
LONG_M = 256                                # run_polycrystal_long's grid points per side
LONG_L = 256.0                              # its domain side
LONG_T = 1000.0                             # its final time
SNAPSHOT_TIMES = (1, 100, 150, 400, 800, 1000)  # its snapshot targets


def random_initial(mean: float, amp: float, grid: Grid2D, seed: int) -> Field:
    """mean + amp * U(-1, 1) per grid point, drawn in row-major order."""
    if amp < 0:
        raise ValueError("amp must be nonnegative")
    vals = SplitMix64(seed).uniform_sym_block(grid.M * grid.M)
    return Field(grid, mean + amp * vals.reshape(grid.M, grid.M))


def patched_initial(grid: Grid2D, seed: int = 0) -> Field:
    """The constant background 0.285 with uniform noise inside the square ``PATCHES``.

    Each patch is (center, side, amp); perturbations compose additively if
    patches overlap.
    """
    gen = SplitMix64(seed)
    vals = np.full((grid.M, grid.M), 0.285)
    for (cx, cy), side, amp in PATCHES:
        half = side / 2.0
        ii = np.nonzero(np.abs(grid.x - cx) <= half)[0]
        jj = np.nonzero(np.abs(grid.x - cy) <= half)[0]
        noise = gen.uniform_sym_block(ii.size * jj.size)
        vals[np.ix_(ii, jj)] += amp * noise.reshape(ii.size, jj.size)
    return Field(grid, vals)


def write_csv(path, header: list[str], rows, footer: str = ""):
    """Write the header, the rows and ``footer`` (text after the last row).

    Every row takes the first row's format: FMT where that row holds a float
    (numpy's float64 included), %s, which is str(v), elsewhere.  The rows are
    formatted and written in blocks of at most 64, each by one ``%``
    operation, so an iterator of rows is never held whole: a 256^2
    snapshot's text is 1.3 MB."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    rows = iter(rows)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        block = list(itertools.islice(rows, 64))
        if block:
            fmt = ",".join(FMT if isinstance(v, float) else "%s" for v in block[0]) + "\n"
        while block:
            fh.write((fmt * len(block)) % tuple(itertools.chain.from_iterable(block)))
            block = list(itertools.islice(rows, 64))
        fh.write(footer)


def save_snapshot(path, f: Field, t: float):
    """Write `M L t` then M comma-separated rows (row i = y index i)."""
    write_csv(path, [f"{f.grid.M} {f.grid.L:.17g} {t:.17g}"],
              (row.tolist() for row in f.values.T))


ENERGY_HEADER = [f.name for f in fields(EnergyRecord)]


def energy_rows(records: list[EnergyRecord]):
    return list(map(operator.attrgetter(*ENERGY_HEADER), records))


@dataclass
class ConvergenceRow:
    N: int
    tau_max: float
    error: float
    order: float  # nan for the first row
    max_ratio: float
    n1: int


def run_bdf2_forced(mesh: TimeMesh, p: PfcParams) -> float:
    """Forced-problem run on ``p.grid`` from the exact initial profile; returns the L2 error.

    The forcing's half spectrum comes from ``manufactured_forcing_hat``,
    whose three spectra are formed once per call, so a step makes no
    forcing transform.
    """
    phi0 = exact_solution(0.0, p.grid)
    forcing_hat = manufactured_forcing_hat(p)
    state = run_fixed_mesh(phi0, mesh.steps, p, "bdf2", forcing_fn=forcing_hat)
    ref = exact_solution(mesh.T, p.grid)
    return l2_norm(state.phi_prev.values - ref.values, p.grid)


def run_convergence(M: int = 128, L: float = 8.0, eps: float = 0.02,
                    T: float = 1.0, ladder=(20, 40, 80, 160, 320),
                    seed: int = 2023, mesh_kind: str = "random") -> list[ConvergenceRow]:
    """Error ladder over refining meshes; order from consecutive rows."""
    p = PfcParams(eps, Grid2D(M, L))
    rows: list[ConvergenceRow] = []
    for i, N in enumerate(ladder):
        mesh = random_mesh(N, T, seed + i) if mesh_kind == "random" else uniform_mesh(N, T)
        err = run_bdf2_forced(mesh, p)
        n1 = len(mesh.s1_violations())
        if rows:
            prev = rows[-1]
            order = math.log(prev.error / err) / math.log(prev.tau_max / mesh.max_step)
        else:
            order = float("nan")
        rows.append(ConvergenceRow(N, mesh.max_step, err, order, mesh.max_ratio, n1))
    return rows


def _measure(phi: Field, prev: Field | None, t: float, tau: float, iters: int,
             p: PfcParams) -> tuple[EnergyRecord, float]:
    """The record of ``phi`` (E_mod = E) and ||phi - prev||_{-1}^2, 0 without ``prev``."""
    e = energy(phi, p)
    v = phi.values
    # the max norm without an abs pass: the same double as abs(v).max()
    rec = EnergyRecord(t, tau, e, e, mass(phi), float(max(v.max(), -v.min())), iters)
    return rec, 0.0 if prev is None else step_distance_sq(phi, prev, rec.linf)


class EnergyLog:
    """``observer`` for ``run_fixed_mesh`` and ``adaptive_run``: a record at t = 0 and per step.

    The records are the run's one step log: t, tau (the accepted step) and
    the step's iterations, next to the diagnostics below.

    Record k's E_mod = E + r/(2(1+r)tau_k) ||phi_k - phi_{k-1}||_{-1}^2 needs
    r = tau_{k+1}/tau_k, so it is completed when step k+1 arrives; the newest
    record keeps r = 0 (E_mod = E).  ``energy`` and the distance read the
    spectra the solver left on the fields, so a record costs no transform;
    only phi0's spectrum is computed here.  The log keeps phi_{k-1}'s spectrum
    because the next BDF2 right-hand side reads it, so two spectra live
    through each solve.

    Each call completes the previous record's E_mod, then measures step k
    (E, mass, max norm and distance) on the calling thread and appends its
    record, so ``records`` is complete inside the observer.  An error of a
    measurement (``MeanZeroError``) is raised from its own step's call, with
    the earlier records intact.
    """

    def __init__(self, phi0: Field, p: PfcParams):
        self.p = p
        self.records = [_measure(phi0, None, 0.0, 0.0, 0, p)[0]]
        self._dist_sq = 0.0   # ||phi_k - phi_{k-1}||_{-1}^2 of the newest record

    def __call__(self, state: StepperState, stats: SolveStats):
        last = self.records[-1]
        tau = state.tau_prev
        if last.tau > 0.0:
            last.E_mod = last.E + history_weight(last.tau, tau / last.tau) * self._dist_sq
        rec, self._dist_sq = _measure(state.phi_prev, state.phi_prev2, state.t, tau,
                                      stats.iterations, self.p)
        self.records.append(rec)


def run_with_energy_log(phi0: Field, steps, p: PfcParams, scheme: str = "bdf2"):
    """Fixed-mesh run with an EnergyLog; returns (state, records)."""
    log = EnergyLog(phi0, p)
    return run_fixed_mesh(phi0, steps, p, scheme, observer=log), log.records


@dataclass
class CompareResult:
    profiles: dict = field(default_factory=dict)   # (scheme, tau) -> midline array
    reference: np.ndarray | None = None
    energy_logs: dict = field(default_factory=dict)   # (scheme, tau) -> records


def midline(phi: Field) -> np.ndarray:
    """Horizontal profile along y = L/2."""
    return phi.values[:, phi.grid.M // 2].copy()


def run_compare(seed: int = 2023, schemes=SCHEMES,
                with_energy_runs: bool = True) -> CompareResult:
    """Profiles at t = 0.01 at each of ``PROFILE_TAUS`` against BDF2 at tau = 1e-4, and energy
    runs to t = 5 at tau = 0.1, 0.01, 0.001; 128^2 on (0, 64)^2, eps = 0.2, 0.1 +- 0.02 noise."""
    grid = Grid2D(128, 64.0)
    p = PfcParams(0.2, grid)
    phi0 = random_initial(0.1, 0.02, grid, seed)
    out = CompareResult()

    profile_T, ref_tau = 0.01, 1e-4
    n_ref = round(profile_T / ref_tau)
    ref_state = run_fixed_mesh(phi0, [ref_tau] * n_ref, p, "bdf2")
    out.reference = midline(ref_state.phi_prev)

    for tau in PROFILE_TAUS:
        n = round(profile_T / tau)
        for scheme in schemes:
            state = run_fixed_mesh(phi0, [tau] * n, p, scheme)
            out.profiles[(scheme, tau)] = midline(state.phi_prev)

    if with_energy_runs:
        for tau in (1e-1, 1e-2, 1e-3):
            n = round(5.0 / tau)
            for scheme in schemes:
                out.energy_logs[(scheme, tau)] = run_with_energy_log(
                    phi0, [tau] * n, p, scheme)[1]
    return out


@dataclass
class PolycrystalResult:
    """The energy logs of both legs; the adaptive step data are read from its records."""

    uniform_records: list[EnergyRecord]
    adaptive_records: list[EnergyRecord]

    @property
    def adaptive_steps(self) -> int:
        return len(self.adaptive_records) - 1

    @property
    def adaptive_taus(self) -> list[float]:
        return [r.tau for r in self.adaptive_records[1:]]

    @property
    def adaptive_ratios(self) -> list[float]:
        taus = self.adaptive_taus
        return [b / a for a, b in zip(taus, taus[1:])]


def run_polycrystal(M: int = 256, L: float = 256.0, eps: float = 0.25,
                    seed: int = 2023, T: float = 50.0,
                    uniform_tau: float = 0.05) -> PolycrystalResult:
    """Uniform vs adaptive legs from the same seeded data."""
    grid = Grid2D(M, L)
    p = PfcParams(eps, grid)
    phi0 = patched_initial(grid, seed=seed)

    n_uni = round(T / uniform_tau)
    # only the records are kept: a held final state would keep its fields and
    # spectra alive through the adaptive leg
    uni_recs = run_with_energy_log(phi0, [uniform_tau] * n_uni, p, "bdf2")[1]
    ada = EnergyLog(phi0, p)
    adaptive_run(phi0, T, p, observer=ada)
    return PolycrystalResult(uni_recs, ada.records)


def run_polycrystal_long(seed: int = 2023, *, out_dir: str):
    """Long adaptive leg at eps = 0.25, LONG_M^2 points on (0, LONG_L)^2 to t = LONG_T: snapshots
    of the first step reaching each of SNAPSHOT_TIMES go to ``out_dir``, made before the first
    step.  Returns the final state and the energy records."""
    grid = Grid2D(LONG_M, LONG_L)
    p = PfcParams(0.25, grid)
    phi0 = patched_initial(grid, seed=seed)
    os.makedirs(out_dir, exist_ok=True)
    pending = sorted(SNAPSHOT_TIMES)
    energy_log = EnergyLog(phi0, p)

    def observer(state, stats):
        energy_log(state, stats)
        while pending and state.t >= pending[0]:
            tgt = pending.pop(0)
            save_snapshot(os.path.join(out_dir, f"snapshot_t{tgt:g}.csv"),
                          state.phi_prev, state.t)

    return adaptive_run(phi0, LONG_T, p, observer=observer), energy_log.records


def kernels_report(mesh: TimeMesh, out_path: str | None = None):
    """Per-level kernel diagnostics plus the eigenvalue certificate footer."""
    # a kernel that overflows is refused below, with its level, not warned about
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        c = bdf2_coeffs(mesh)
        row_sums = doc_apply(mesh, c, np.ones(mesh.N))
    # the row-sum recurrence carries a non-finite value to every later level
    finite = (np.isfinite(mesh.ratios) & np.isfinite(c.b0) & np.isfinite(c.b1)
              & np.isfinite(row_sums))
    if not finite.all():
        n = int(np.argmin(finite)) + 1
        raise ValueError(
            f"level {n} has a non-finite step ratio or kernel (r={mesh.ratios[n - 1]:.3e}, "
            f"b0={c.b0[n - 1]:.3e}, b1={c.b1[n - 1]:.3e}, DOC row sum "
            f"{row_sums[n - 1]:.3e}); the mesh cannot be certified")
    row_res = np.abs(row_sums - mesh.steps) / mesh.steps
    ortho = verify_orthogonality(mesh, c)
    eb = eigen_bounds(mesh)
    b1 = c.b1.tolist()
    b1[0] = 0.0   # level 1 has no b1; the array holds -0.0 there, printed "-0"
    rows = list(zip(range(1, mesh.N + 1), mesh.steps.tolist(), mesh.ratios.tolist(),
                    c.b0.tolist(), b1, row_res.tolist(), [ortho] * mesh.N))
    if out_path is not None:
        write_csv(out_path, ["n", "tau", "r", "b0", "b1", "rowsum_rel_residual",
                             "ortho_residual"], rows,
                  f"# lam_min={eb.lam_min:.17g},lam_max={eb.lam_max:.17g},"
                  f"quad_const={eb.quad_const:.17g},s1_ok={eb.s1_ok}\n")
    return rows, eb
