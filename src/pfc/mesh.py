"""Nonuniform time meshes: construction, step-ratio conditions, step-size checks.

A mesh stores the positive step sizes tau_1..tau_N.  Derived quantities are
the time levels t_k and the adjacent step ratios r_k = tau_k / tau_{k-1}
with the convention r_1 = 0.  The paper's energy law and L2 error estimate
need one ratio condition, S1: r_k < r_sup = (3 + sqrt(17)) / 2 for k >= 2.

The energy-stability step-size check flags steps with
tau_n > (2 / (3 eps)) * min{(1 + 2 r_n)/(1 + r_n), R(r_n, r_{n+1})},
where the final step's ratio r_{N+1}, which has no successor, is taken as 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import SplitMix64

R_SUP = (3.0 + np.sqrt(17.0)) / 2.0


@dataclass
class TimeMesh:
    """Ordered positive, finite time steps with derived levels and ratios."""

    steps: np.ndarray

    def __post_init__(self):
        self.steps = np.asarray(self.steps, dtype=np.float64)
        if self.steps.ndim != 1 or self.steps.size == 0:
            raise ValueError("mesh needs at least one step")
        if not np.all(self.steps > 0):   # a NaN step fails this too
            raise ValueError("all step sizes must be positive")
        if not np.all(np.isfinite(self.steps)):
            raise ValueError("all step sizes must be finite")
        self.times = np.cumsum(self.steps)
        self.ratios = np.zeros_like(self.steps)
        # a ratio past the largest double is inf: every ratio test flags it
        # (S1, the step-size restriction, kernels_report's finiteness check)
        with np.errstate(over="ignore"):
            self.ratios[1:] = self.steps[1:] / self.steps[:-1]

    @property
    def N(self) -> int:
        return self.steps.size

    @property
    def T(self) -> float:
        return float(self.times[-1])

    @property
    def max_step(self) -> float:
        return float(np.max(self.steps))

    @property
    def max_ratio(self) -> float:
        return float(np.max(self.ratios))

    def s1_violations(self) -> list[int]:
        """The levels k (1-based) that break S1, r_k >= r_sup; r_1 = 0 never does."""
        return (np.flatnonzero(self.ratios >= R_SUP) + 1).tolist()

    def satisfies_s1(self) -> bool:
        return not self.s1_violations()


@dataclass
class MeshReport:
    s1_violations: list[int]
    restriction_violations: list[int]


def uniform_mesh(N: int, T: float) -> TimeMesh:
    if N < 1 or T <= 0:
        raise ValueError("need N >= 1 and T > 0")
    return TimeMesh(np.full(N, T / N))


def random_mesh(N: int, T: float, seed: int) -> TimeMesh:
    """Random mesh tau_k = T sigma_k / S with sigma_k ~ U(0,1), S = sum sigma_k."""
    if N < 1 or T <= 0:
        raise ValueError("need N >= 1 and T > 0")
    sigma = SplitMix64(seed).uniform_block(N)
    return TimeMesh(T * sigma / sigma.sum())


def stability_bound(z: float | np.ndarray,
                    s: float | np.ndarray) -> float | np.ndarray:
    """The quadratic-form ratio function (2 + 4z - z^2)/(1+z) - s/(1+s).

    Takes scalars or equal-shape arrays; every argument must lie in [0, r_sup).
    """
    if not np.all((0 <= z) & (z < R_SUP) & (0 <= s) & (s < R_SUP)):
        raise ValueError(f"arguments must lie in [0, {R_SUP:.4f}), got z={z}, s={s}")
    return (2.0 + 4.0 * z - z * z) / (1.0 + z) - s / (1.0 + s)


def check_restriction(mesh: TimeMesh, eps: float) -> list[int]:
    """Indices n (1-based) violating the energy-stability step-size bound.

    The final step has no successor, so its r_{N+1} is 0, the most favorable value.
    """
    if not (0 < eps < 1):
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    rn = mesh.ratios
    rnp1 = np.append(rn[1:], 0.0)
    # outside the domain of the bound: flag conservatively
    bad = (rn >= R_SUP) | (rnp1 >= R_SUP)
    ok = ~bad
    z, s = rn[ok], rnp1[ok]
    bound = (2.0 / (3.0 * eps)) * np.minimum((1.0 + 2.0 * z) / (1.0 + z),
                                             stability_bound(z, s))
    bad[ok] = mesh.steps[ok] > bound
    return (np.flatnonzero(bad) + 1).tolist()


def analyze(mesh: TimeMesh, eps: float) -> MeshReport:
    """Populate a MeshReport, with the step-size restriction checked at ``eps``."""
    return MeshReport(mesh.s1_violations(), check_restriction(mesh, eps))


def parse_mesh_spec(spec: str) -> TimeMesh:
    """Parse `uniform:N,T` or `random:N,T,seed` or a path to a tau-per-line file.

    The file may start with the header line `tau`, as the `adaptive_taus.csv`
    that `pfc polycrystal` writes does.
    """
    for form, make, types in (("uniform:N,T", uniform_mesh, (int, float)),
                              ("random:N,T,seed", random_mesh, (int, float, int))):
        prefix = form.split(":")[0] + ":"
        if spec.startswith(prefix):
            args = spec[len(prefix):].split(",")
            try:   # zip's strict check refuses a wrong count with a ValueError
                values = [convert(a) for convert, a in zip(types, args, strict=True)]
            except ValueError:
                raise ValueError(f"mesh spec {spec!r} is not of the form {form}") from None
            return make(*values)
    with open(spec) as fh:
        lines = fh.read().splitlines()
    start = int(bool(lines) and lines[0].strip() == "tau")
    steps = []
    for n, line in enumerate(lines[start:], start + 1):   # 1-based, the header counted
        try:
            if line.strip():   # a blank line is no step, not an error
                steps.append(float(line))
        except ValueError:
            raise ValueError(f"tau file {spec} line {n}: {line!r} is not a number") from None
    return TimeMesh(np.array(steps))
