import numpy as np
import pytest

from conftest import mesh_from_ratios, random_s1_mesh, scalar_random_mesh
from pfc.mesh import (R_SUP, TimeMesh, analyze, check_restriction, parse_mesh_spec,
                      random_mesh, stability_bound, uniform_mesh)


def _scalar_check_restriction(mesh, eps, lookahead=0.0):
    """Per-step scalar form of check_restriction, the oracle for its numpy form."""
    bad = []
    for n in range(1, mesh.N + 1):
        rn = mesh.ratios[n - 1]
        rnp1 = mesh.ratios[n] if n < mesh.N else lookahead
        if rn >= R_SUP or rnp1 >= R_SUP:
            bad.append(n)
            continue
        bound = (2.0 / (3.0 * eps)) * min(
            (1.0 + 2.0 * rn) / (1.0 + rn), stability_bound(rn, rnp1)
        )
        if mesh.steps[n - 1] > bound:
            bad.append(n)
    return bad


def _scalar_s1_violations(mesh):
    return [k for k in range(2, mesh.N + 1) if mesh.ratios[k - 1] >= R_SUP]


class TestTimeMesh:
    def test_levels_and_ratios(self):
        m = TimeMesh(np.array([0.5, 1.0, 0.25]))
        assert np.allclose(m.times, [0.5, 1.5, 1.75])
        assert m.ratios[0] == 0.0
        assert np.allclose(m.ratios[1:], [2.0, 0.25])

    def test_one_step(self):
        # the empty ratio slice leaves r_1 = 0, the largest ratio
        m = TimeMesh(np.array([0.3]))
        assert m.ratios.tolist() == [0.0]
        assert m.max_ratio == 0.0
        assert m.satisfies_s1()

    def test_ratios_match_steps(self, rng):
        m = TimeMesh(rng.uniform(0.1, 2.0, size=20))
        recomputed = m.steps[1:] / m.steps[:-1]
        assert np.array_equal(m.ratios[1:], recomputed)

    def test_positive_steps_required(self):
        with pytest.raises(ValueError):
            TimeMesh(np.array([0.5, -0.1]))

    @pytest.mark.parametrize("bad", [np.nan, 0.0])
    def test_nan_and_non_positive_steps_refused(self, bad):
        with pytest.raises(ValueError, match="all step sizes must be positive"):
            TimeMesh(np.array([0.5, bad, 0.25]))

    @pytest.mark.parametrize("build", [lambda: TimeMesh(np.array([0.5, np.inf, 0.25])),
                                       lambda: uniform_mesh(3, np.inf),
                                       lambda: random_mesh(5, np.inf, 1)],
                             ids=["steps", "uniform", "random"])
    def test_infinite_steps_refused(self, build):
        with pytest.raises(ValueError, match="all step sizes must be finite"):
            build()

    def test_cumsum_exact(self, rng):
        m = TimeMesh(rng.uniform(0.1, 2.0, size=50))
        assert m.times[-1] == np.cumsum(m.steps)[-1]


class TestRandomMesh:
    def test_single_step(self):
        for seed in (0, 1, 99):
            m = random_mesh(1, 2.5, seed)
            assert m.steps[0] == pytest.approx(2.5, rel=1e-15)

    def test_deterministic(self):
        a = random_mesh(20, 1.0, 1)
        b = random_mesh(20, 1.0, 1)
        assert np.array_equal(a.steps, b.steps)

    def test_sum_and_positivity(self):
        m = random_mesh(320, 1.0, 7)
        assert np.all(m.steps > 0)
        assert m.T == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 2023, 78396460, 2**64 - 1])
    @pytest.mark.parametrize("N", [1, 2, 7, 300])
    def test_block_draw_matches_scalar_draws(self, N, seed):
        assert np.array_equal(random_mesh(N, 1.0, seed).steps,
                              scalar_random_mesh(N, 1.0, seed).steps)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            random_mesh(0, 1.0, 1)
        with pytest.raises(ValueError):
            random_mesh(10, -1.0, 1)


class TestStabilityBound:
    def test_root_at_sup(self):
        r = R_SUP
        assert stability_bound(r - 1e-12, r - 1e-12) == pytest.approx(0.0, abs=1e-10)

    def test_hand_values(self):
        assert stability_bound(0.0, 0.0) == pytest.approx(2.0)
        assert stability_bound(1.0, 1.0) == pytest.approx(2.0)

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            stability_bound(4.0, 0.0)
        with pytest.raises(ValueError):
            stability_bound(0.0, -0.1)

    def test_monotonicity(self):
        crit = np.sqrt(3.0) - 1.0
        s = 0.7
        zs = np.linspace(1e-6, crit - 1e-6, 500)
        vals = [stability_bound(z, s) for z in zs]
        assert np.all(np.diff(vals) > 0)
        zs = np.linspace(crit + 1e-6, R_SUP - 1e-6, 500)
        vals = [stability_bound(z, s) for z in zs]
        assert np.all(np.diff(vals) < 0)
        ss = np.linspace(0, R_SUP - 1e-6, 1000)
        vals = [stability_bound(1.3, s) for s in ss]
        assert np.all(np.diff(vals) < 0)


class TestRestriction:
    def test_uniform_no_violation(self):
        m = uniform_mesh(20, 1.0)  # tau = 0.05
        assert check_restriction(m, 0.02) == []

    def test_first_step_rule(self):
        # single-step mesh: flag iff eps * tau1 > 2/3
        eps = 0.5
        ok = TimeMesh(np.array([2.0 / (3 * eps) - 1e-9]))
        bad = TimeMesh(np.array([2.0 / (3 * eps) + 1e-3]))
        assert check_restriction(ok, eps) == []
        assert check_restriction(bad, eps) == [1]

    def test_small_ratio_threshold(self):
        # ratios below sqrt(3)-1: threshold is 2/(3 eps)
        eps = 0.1
        thr = 2.0 / (3.0 * eps)
        m = mesh_from_ratios(thr * 0.99, [0.7, 0.7])
        assert check_restriction(m, eps) == []

    def test_eps_domain(self):
        m = uniform_mesh(5, 1.0)
        with pytest.raises(ValueError):
            check_restriction(m, 0.0)
        with pytest.raises(ValueError):
            check_restriction(m, 1.5)

    def test_scaling_homogeneity(self, rng):
        m = TimeMesh(rng.uniform(0.5, 10.0, size=30))
        eps = 0.3
        base = check_restriction(m, eps)
        for alpha in (0.5, 2.0, 13.0):
            scaled = TimeMesh(alpha * m.steps)
            assert check_restriction(scaled, eps / alpha) == base

    def test_matches_scalar_loop(self, rng):
        meshes = [random_mesh(int(rng.integers(1, 300)), float(rng.uniform(0.5, 50.0)),
                              int(rng.integers(0, 2**31))) for _ in range(15)]
        # S1 meshes rescaled so their largest step straddles the bound
        for _ in range(15):
            m = random_s1_mesh(rng, n_max=200)
            meshes.append(TimeMesh(m.steps * (float(rng.uniform(0.3, 40.0)) / m.max_step)))
        # ratios at and beyond r_sup: outside the domain of the bound
        meshes += [mesh_from_ratios(0.5, [2.0, R_SUP, 0.3, 1.0, 50.0, 0.01]),
                   mesh_from_ratios(2.0, rng.uniform(0.01, 8.0, size=60)),
                   uniform_mesh(40, 100.0)]
        sizes = []
        for m in meshes:
            for eps in (0.02, 0.25, 0.9):
                for lookahead in (0.0, 1.7, R_SUP, 10.0):
                    want = _scalar_check_restriction(m, eps, lookahead)
                    got = check_restriction(m, eps, lookahead)
                    assert got == want
                    assert all(type(n) is int for n in got)
                    sizes.append((len(want), m.N))
        # clean, partly flagged and fully flagged meshes are all covered
        assert sum(k == 0 for k, _ in sizes) >= 10
        assert sum(0 < k < n for k, n in sizes) >= 100
        assert sum(k == n for k, n in sizes) >= 10

    def test_bad_lookahead_raises_like_scalar_loop(self):
        m = uniform_mesh(5, 1.0)
        for la in (-0.5, float("nan")):
            with pytest.raises(ValueError):
                _scalar_check_restriction(m, 0.1, la)
            with pytest.raises(ValueError):
                check_restriction(m, 0.1, la)
        # a final ratio outside the domain is flagged before the lookahead is read
        m = mesh_from_ratios(0.1, [1.0, 5.0])
        assert check_restriction(m, 0.1, -0.5) == _scalar_check_restriction(m, 0.1, -0.5) == [2, 3]


class TestAnalyze:
    def test_uniform(self):
        rep = analyze(uniform_mesh(10, 1.0), 0.25)
        assert rep.max_ratio == 1.0
        assert rep.s1_violations == []
        assert rep.n0 == 0

    def test_s1_violation_index(self):
        m = mesh_from_ratios(0.1, [2.0, 3.8])
        rep = analyze(m, 0.25)
        assert rep.s1_violations == [3]

    def test_n0_count(self):
        m = mesh_from_ratios(0.1, [2.5, 1.0])
        rep = analyze(m, 0.25)
        assert rep.n0 == 1

    def test_s1_violations_match_scalar_loop(self, rng):
        meshes = [random_mesh(int(rng.integers(1, 300)), 1.0, int(rng.integers(0, 2**31)))
                  for _ in range(20)]
        meshes += [random_s1_mesh(rng), TimeMesh(np.array([0.3])),
                   mesh_from_ratios(0.1, [R_SUP, 3.8, 0.2, 100.0])]
        for m in meshes:
            rep = analyze(m, 0.25)
            assert rep.s1_violations == _scalar_s1_violations(m)
            assert rep.restriction_violations == _scalar_check_restriction(m, 0.25)
        assert analyze(meshes[-1], 0.25).s1_violations == [2, 3, 5]


class TestMeshSpec:
    def test_uniform_spec(self):
        m = parse_mesh_spec("uniform:4,2.0")
        assert np.allclose(m.steps, 0.5)

    def test_random_spec(self):
        m = parse_mesh_spec("random:10,1.0,5")
        assert np.array_equal(m.steps, random_mesh(10, 1.0, 5).steps)

    def test_file_spec(self, tmp_path):
        p = tmp_path / "mesh.txt"
        p.write_text("0.5\n0.25\n")
        m = parse_mesh_spec(str(p))
        assert np.allclose(m.steps, [0.5, 0.25])

    def test_file_spec_with_tau_header(self, tmp_path):
        # only a first line naming the column is a header
        p = tmp_path / "taus.csv"
        p.write_text("tau\n0.5\n0.25\n")
        assert parse_mesh_spec(str(p)).steps.tolist() == [0.5, 0.25]
        p.write_text("0.5\ntau\n")
        with pytest.raises(ValueError):
            parse_mesh_spec(str(p))
