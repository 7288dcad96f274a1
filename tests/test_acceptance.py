"""End-to-end acceptance suite.

Each test covers one headline property of the solver, prints a single
PASS/FAIL summary line with the measured quantities, and enforces its own
runtime budget.  Run with ``pytest -v -s tests/test_acceptance.py`` to see
the summary lines as they are produced.
"""

import time
from dataclasses import astuple, fields

import numpy as np
import pytest

from conftest import (chemical_potential, cross_form_theta, doc_kernels, doc_kernels_recursive,
                      inner, mesh_from_ratios, on_digest_build, oscillation_indicator,
                      quad_form_b, quad_form_theta, random_s1_mesh, sha256_file)
import pfc.experiments as ex
from pfc.experiments import (ENERGY_HEADER, ConvergenceRow, energy_rows, random_initial,
                             run_compare, run_convergence, run_polycrystal, run_with_energy_log,
                             write_csv)
from pfc.grid import Field, Grid2D
from pfc.kernels import bdf2_coeffs, doc_apply, eigen_bounds, verify_orthogonality
from pfc.mesh import stability_bound
from pfc.model import PfcParams, energy
from pfc.steppers import run_fixed_mesh


def report(name: str, ok: bool, detail: str):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_kernel_identities():
    """100 random meshes: orthogonality, row sums, recursion vs product."""
    t0 = time.perf_counter()
    gen = np.random.default_rng(101)
    worst_ortho = 0.0
    worst_rowsum = 0.0
    worst_agree = 0.0
    for _ in range(100):
        m = random_s1_mesh(gen, n_max=200, n_min=2)
        worst_ortho = max(worst_ortho, verify_orthogonality(m, bdf2_coeffs(m)))
        rel = np.max(np.abs(doc_apply(m, bdf2_coeffs(m), np.ones(m.N)) - m.steps) / m.steps)
        worst_rowsum = max(worst_rowsum, rel)
        doc = doc_kernels(m)
        rec = doc_kernels_recursive(m)
        for ra, rb in zip(doc.rows, rec.rows):
            worst_agree = max(worst_agree,
                              float(np.max(np.abs(ra - rb) / np.abs(ra))))
    elapsed = time.perf_counter() - t0
    ok = worst_ortho <= 1e-10 and worst_rowsum <= 1e-12 \
        and worst_agree <= 1e-12 and elapsed < 10.0
    report("kernel identities", ok,
           f"ortho {worst_ortho:.2e}, rowsum {worst_rowsum:.2e}, "
           f"recursion {worst_agree:.2e}, {elapsed:.1f}s")
    assert worst_ortho <= 1e-10
    assert worst_rowsum <= 1e-12
    assert worst_agree <= 1e-12
    assert elapsed < 10.0


def test_eigenvalue_certificates():
    """100 random meshes with N <= 500: certified eigenvalue windows."""
    t0 = time.perf_counter()
    gen = np.random.default_rng(202)
    lo, hi, mr = np.inf, 0.0, 0.0
    for _ in range(100):
        m = random_s1_mesh(gen, n_max=500, n_min=2)
        eb = eigen_bounds(m)
        lo = min(lo, eb.lam_min)
        hi = max(hi, eb.lam_max)
        mr = max(mr, eb.quad_const)
    mr_small = 0.0
    for _ in range(30):
        n = int(gen.integers(2, 200))
        ratios = gen.uniform(0.05, 2.0, size=n - 1)
        m = mesh_from_ratios(float(gen.uniform(1e-3, 1.0)), ratios)
        mr_small = max(mr_small, eigen_bounds(m).quad_const)
    elapsed = time.perf_counter() - t0
    ok = lo >= 21 / 40 - 1e-9 and hi <= 53 / 5 + 1e-9 and mr <= 39.0 \
        and mr_small <= 3.25 and elapsed < 30.0
    report("eigenvalue certificates", ok,
           f"lam_min {lo:.4f} >= {21/40:.4f}, lam_max {hi:.4f} <= {53/5:.1f}, "
           f"Mr {mr:.3f} <= 39, Mr(r<=2) {mr_small:.3f} <= 3.25, {elapsed:.1f}s")
    assert lo >= 21 / 40 - 1e-9
    assert hi <= 53 / 5 + 1e-9
    assert mr <= 39.0
    assert mr_small <= 3.25
    assert elapsed < 30.0


def test_quadratic_form_inequalities():
    """10^4 (mesh, vector) instances: definiteness and convolution bounds."""
    t0 = time.perf_counter()
    gen = np.random.default_rng(303)
    n_mesh, n_vec = 1000, 10
    violations = 0
    for _ in range(n_mesh):
        m = random_s1_mesh(gen, n_max=64, n_min=2)
        mr = eigen_bounds(m).quad_const
        r_ext = np.append(m.ratios, 0.0)
        floor = np.array([stability_bound(r_ext[k], r_ext[k + 1]) / m.steps[k]
                          for k in range(m.N)])
        for _ in range(n_vec):
            w = gen.standard_normal(m.N)
            v = gen.standard_normal(m.N)
            lhs = quad_form_b(m, w)
            bound = float(np.sum(floor * w * w))
            if lhs < bound - 1e-10 * max(1.0, abs(bound)):
                violations += 1
            cross = cross_form_theta(m, w, v)
            rhs = 0.5 * quad_form_theta(m, v) + mr * 0.5 * quad_form_theta(m, w)
            if cross > rhs + 1e-9 * max(1.0, abs(rhs)):
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60.0
    report("quadratic form inequalities", ok,
           f"{n_mesh * n_vec} instances, {violations} violations, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 60.0


# SHA-256 of the rows of the ladders below, written with write_csv, on DIGEST_BUILD
LADDER_DIGESTS = {"random": "563ba91b097c5502c4eee4771ce835f566e7590800322a837c06db75678c9a8d",
                  "uniform": "71070df9ac241677adf83ff8dae1168aeaae49891aa3b3420f782d9b601d8ef3"}


def test_convergence_ladder(tmp_path):
    """Manufactured problem, random meshes: second-order accuracy."""
    t0 = time.perf_counter()
    rows = run_convergence(M=64, ladder=(20, 40, 80, 160, 320), seed=2023)
    errs = [r.error for r in rows]
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    last_order = rows[-1].order
    uni = run_convergence(M=64, ladder=(20, 40, 80, 160, 320),
                          mesh_kind="uniform")
    uni_order = uni[-1].order
    elapsed = time.perf_counter() - t0
    ok = decreasing and 1.5 <= last_order <= 3.0 \
        and abs(uni_order - 2.0) <= 0.2 and elapsed < 300.0
    report("convergence ladder", ok,
           f"errors {errs[0]:.2e}->{errs[-1]:.2e} decreasing={decreasing}, "
           f"random order {last_order:.2f} in [1.5,3.0], "
           f"uniform order {uni_order:.2f} = 2.0+-0.2, {elapsed:.1f}s")
    assert decreasing
    assert 1.5 <= last_order <= 3.0
    assert abs(uni_order - 2.0) <= 0.2
    assert elapsed < 300.0
    if on_digest_build():
        for kind, ladder in (("random", rows), ("uniform", uni)):
            path = tmp_path / f"{kind}.csv"
            write_csv(path, [f.name for f in fields(ConvergenceRow)], map(astuple, ladder))
            assert sha256_file(path) == LADDER_DIGESTS[kind], kind


def test_energy_dissipation():
    """128^2 spinodal run: modified energy non-increasing, mass constant."""
    t0 = time.perf_counter()
    g = Grid2D(128, 64.0)
    p = PfcParams(0.2, g)
    phi0 = random_initial(0.1, 0.02, g, 2023)
    _, recs = run_with_energy_log(phi0, [1e-2] * 500, p)
    e_mod = np.array([r.E_mod for r in recs])
    scale = max(1.0, float(np.max(np.abs(e_mod))))
    worst_rise = float(np.max(np.diff(e_mod))) / scale
    drift = float(np.max(np.abs([r.mass - recs[0].mass for r in recs])))
    elapsed = time.perf_counter() - t0
    ok = worst_rise <= 1e-9 and drift <= 1e-10 and elapsed < 300.0
    report("energy dissipation", ok,
           f"max relative rise {worst_rise:.2e} <= 1e-9, "
           f"mass drift {drift:.2e} <= 1e-10, {elapsed:.1f}s")
    assert worst_rise <= 1e-9
    assert drift <= 1e-10
    assert elapsed < 300.0


# SHA-256 of the profiles and iteration means below, written with write_csv, on DIGEST_BUILD
COMPARISON_DIGEST = "4346ba500bbb0fad9e208c2772cd776d75d74c95107f6c8ab9916cc335941165"


def test_scheme_comparison(monkeypatch, tmp_path):
    """Accuracy ordering, CN oscillation, and iteration-count bands."""
    t0 = time.perf_counter()
    monkeypatch.setattr(ex, "PROFILE_TAUS", (1e-2, 1e-3))
    res = run_compare(with_energy_runs=False)
    ref = res.reference
    dev = {s: float(np.max(np.abs(res.profiles[(s, 1e-2)] - ref)))
           for s in ("bdf2", "cn", "cncs")}
    ordering = dev["bdf2"] < dev["cncs"] < dev["cn"]
    osc_cn = oscillation_indicator(res.profiles[("cn", 1e-3)])
    osc_ref = oscillation_indicator(ref)
    oscillates = osc_cn > osc_ref

    g = Grid2D(128, 64.0)
    p = PfcParams(0.2, g)
    phi0 = random_initial(0.1, 0.02, g, 2023)
    iters = {}
    for tau, n in ((1e-3, 100), (1e-1, 50)):
        for scheme in ("bdf2", "cn", "cncs"):
            counts = []
            run_fixed_mesh(phi0, [tau] * n, p, scheme,
                           observer=lambda _, stats: counts.append(stats.iterations))
            iters[(scheme, tau)] = float(np.mean(counts))
    band_small = all(2.0 <= iters[(s, 1e-3)] <= 5.0
                     for s in ("bdf2", "cn", "cncs"))
    band_large = all(3.0 <= iters[(s, 1e-1)] <= 9.0
                     for s in ("bdf2", "cn", "cncs"))
    elapsed = time.perf_counter() - t0
    ok = ordering and oscillates and band_small and band_large \
        and elapsed < 600.0
    report("scheme comparison", ok,
           f"deviations bdf2 {dev['bdf2']:.2e} < cncs {dev['cncs']:.2e} "
           f"< cn {dev['cn']:.2e}, oscillation {osc_cn} > ref {osc_ref}, "
           f"iters@1e-3 {[round(iters[(s, 1e-3)], 2) for s in ('bdf2', 'cn', 'cncs')]}"
           f" in [2,5], iters@1e-1 "
           f"{[round(iters[(s, 1e-1)], 2) for s in ('bdf2', 'cn', 'cncs')]}"
           f" in [3,9], {elapsed:.1f}s")
    assert ordering
    assert oscillates
    assert band_small
    assert band_large
    assert elapsed < 600.0
    if on_digest_build():
        rows = [("profile", "reference", 1e-4, v) for v in ref.tolist()]
        rows += [("profile", s, tau, v) for (s, tau), prof in res.profiles.items()
                 for v in prof.tolist()]
        rows += [("mean_iters", s, tau, m) for (s, tau), m in iters.items()]
        path = tmp_path / "comparison.csv"
        write_csv(path, ["kind", "scheme", "tau", "value"], rows)
        assert sha256_file(path) == COMPARISON_DIGEST


# The T=50 run's records as ``pfc polycrystal --seed 2023`` writes them:
# (SHA-256 on DIGEST_BUILD, final E within 1e-8 relative, accepted steps
# within 1), the tolerances perfbench puts on the adaptive leg.
POLYCRYSTAL = {
    "uniform": ("76f3604adde41aaef8b65ddc804ba87a484a5707346e1559b70738a6e5b66dcb",
                2103.022132324333, 1000),
    "adaptive": ("a2455701a2617f7ecf6f3ca9c7bb3a3933e88a4bfd98eb622f0fd70d0727ae4d",
                 2103.0223156719985, 229),
}


@pytest.fixture(scope="module")
def polycrystal_run():
    """The T=50 polycrystal study, run once for the tests that read it, and its
    wall time."""
    t0 = time.perf_counter()
    res = run_polycrystal()
    return res, time.perf_counter() - t0


def test_adaptive_efficiency(polycrystal_run, tmp_path):
    """Polycrystal growth: adaptive run beats the uniform step count."""
    res, run_s = polycrystal_run
    t0 = time.perf_counter() - run_s
    n_uniform = len(res.uniform_records) - 1
    e_uni = res.uniform_records[-1].E
    e_ada = res.adaptive_records[-1].E
    rel_gap = abs(e_uni - e_ada) / abs(e_uni)
    max_ratio = max(res.adaptive_ratios) if res.adaptive_ratios else 0.0
    taus = np.asarray(res.adaptive_taus)
    in_bounds = bool(np.all(taus >= 1e-4 * (1 - 1e-12))
                     and np.all(taus <= 0.5 * (1 + 1e-12)))
    elapsed = time.perf_counter() - t0
    ok = n_uniform == 1000 and res.adaptive_steps <= 600 and rel_gap <= 0.01 \
        and max_ratio <= 3.561 * (1 + 1e-10) and in_bounds and elapsed < 1200.0
    report("adaptive efficiency", ok,
           f"uniform {n_uniform} steps vs adaptive {res.adaptive_steps} <= 600, "
           f"energy gap {rel_gap:.2e} <= 1e-2, max ratio {max_ratio:.3f} "
           f"<= 3.561, taus in [1e-4, 0.5]={in_bounds}, {elapsed:.1f}s")
    assert n_uniform == 1000
    assert res.adaptive_steps <= 600
    assert rel_gap <= 0.01
    assert max_ratio <= 3.561 * (1 + 1e-10)
    assert in_bounds
    assert elapsed < 1200.0
    for leg, recs in (("uniform", res.uniform_records), ("adaptive", res.adaptive_records)):
        digest, final_e, steps = POLYCRYSTAL[leg]
        assert recs[-1].E == pytest.approx(final_e, rel=1e-8)
        assert abs(len(recs) - 1 - steps) <= 1
        path = tmp_path / f"energy_{leg}.csv"
        write_csv(path, ENERGY_HEADER, energy_rows(recs))
        if on_digest_build():
            assert sha256_file(path) == digest, leg


def test_adaptive_energy_curve(polycrystal_run):
    """Polycrystal growth: the adaptive leg's energy curve is the uniform leg's
    for t >= 5, the uniform E interpolated linearly to the adaptive times."""
    res, _ = polycrystal_run
    t_uni, e_uni = np.array([(r.t, r.E) for r in res.uniform_records]).T
    t_ada, e_ada = np.array([(r.t, r.E) for r in res.adaptive_records if r.t >= 5.0]).T
    rel = np.abs(e_ada - np.interp(t_ada, t_uni, e_uni)) / np.abs(e_ada)
    worst = float(np.max(rel))
    report("adaptive energy curve", worst <= 1e-6,
           f"{t_ada.size} adaptive steps with t >= 5, worst relative gap {worst:.2e} <= 1e-6")
    assert worst <= 1e-6


def test_discrete_gradient():
    """Chemical potential is the discrete variational derivative of E."""
    t0 = time.perf_counter()
    g = Grid2D(32, 8.0)
    p = PfcParams(0.2, g)
    gen = np.random.default_rng(808)
    delta = 1e-5
    worst = 0.0
    for _ in range(20):
        phi = Field(g, 0.5 * gen.standard_normal((g.M, g.M)))
        psi = Field(g, gen.standard_normal((g.M, g.M)))
        fd = (energy(Field(g, phi.values + delta * psi.values), p)
              - energy(Field(g, phi.values - delta * psi.values), p)) / (2 * delta)
        ip = inner(chemical_potential(phi, p), psi)
        worst = max(worst, abs(fd - ip) / max(1e-30, abs(ip)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    report("discrete gradient", ok,
           f"20 pairs, worst relative mismatch {worst:.2e} <= 1e-6, "
           f"{elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 5.0
