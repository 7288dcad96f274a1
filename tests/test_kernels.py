import math

import numpy as np
import pytest

from conftest import (cross_form_theta, doc_kernels, doc_kernels_recursive, kernel_matrices,
                      mesh_from_ratios, quad_form_b, quad_form_theta, random_s1_mesh,
                      table_orthogonality)
from pfc.kernels import (EIG_TOL, _all_eigs_below, _doc_ratios, bdf2_coeffs, doc_apply,
                         eigen_bounds, scaled_tridiagonals, tridiag_max_eig,
                         verify_orthogonality)
from pfc.mesh import R_SUP, TimeMesh, random_mesh, stability_bound, uniform_mesh

# Agreement of the O(N) recurrences with the O(N^2) kernel table, relative
# to the sum of the terms' magnitudes: 4e-16 at most was measured on the
# meshes below, so this leaves a margin of 25 for meshes not tried.
TABLE_RTOL = 1e-14


def apply_d2(mesh: TimeMesh, v: np.ndarray) -> np.ndarray:
    """Two-step difference operator applied to a sequence v[0..N]."""
    if v.shape[0] != mesh.N + 1:
        raise ValueError(f"sequence length {v.shape[0]} != N+1 = {mesh.N + 1}")
    c = bdf2_coeffs(mesh)
    d = np.diff(v, axis=0)
    if v.ndim == 1:
        out = c.b0 * d
        out[1:] += c.b1[1:] * d[:-1]
    else:
        out = c.b0[:, None] * d
        out[1:] += c.b1[1:, None] * d[:-1]
    return out


def verify_telescope(mesh: TimeMesh, v: np.ndarray) -> float:
    """Max residual of sum_j theta_{n-j}^(n) D2 v^j - (v^n - v^{n-1})."""
    v = np.asarray(v, dtype=np.float64)
    return float(np.max(np.abs(doc_apply(mesh, bdf2_coeffs(mesh), apply_d2(mesh, v)) - np.diff(v))))


def min_eig_bound(z: float, s: float) -> float:
    """Gershgorin lower-bound function (2 + 4z - z^{3/2})/(1+z) - s^{3/2}/(1+s)."""
    if not (0 <= z < R_SUP and 0 <= s < R_SUP):
        raise ValueError(f"arguments must lie in [0, {R_SUP:.4f})")
    return (2.0 + 4.0 * z - z**1.5) / (1.0 + z) - s**1.5 / (1.0 + s)


def max_eig_bound(z: float, s: float) -> float:
    """Gershgorin upper-bound function for the scaled normal matrix."""
    if not (0 <= z < R_SUP and 0 <= s < R_SUP):
        raise ValueError(f"arguments must lie in [0, {R_SUP:.4f})")
    return ((1.0 + 2.0 * z) * (1.0 + 2.0 * z + z**1.5) / (1.0 + z) ** 2
            + s**1.5 * (1.0 + 2.0 * s + s**1.5) / (1.0 + s) ** 2)


def refined_quad_const(max_ratio: float, next_ratio_cap: float | None = None) -> float:
    """Case-based practical ceiling for the convolution-inequality constant."""
    if max_ratio <= np.sqrt(3.0) - 1.0:
        return 1.19
    if max_ratio <= 2.0:
        return 3.25
    if next_ratio_cap is not None and next_ratio_cap <= 1.45:
        return 3.94
    return 4.0


# Per-entry versions of the certificate code, kept as exact oracles: the
# library's vectorised forms must return the very same doubles.

def _loop_orthogonality(mesh):
    """The O(N) residual's factored entries rho_k g_{k+2} ... g_n, one by one."""
    c = bdf2_coeffs(mesh)
    g = _doc_ratios(mesh).tolist()
    b0, b1 = c.b0.tolist(), c.b1.tolist()
    inv_b0 = (1.0 / c.b0).tolist()
    worst = 0.0
    for k in range(1, mesh.N + 1):
        diag = abs(inv_b0[k - 1] * b0[k - 1] - 1.0)   # entry (k, k)
        if not math.isnan(diag):
            worst = max(worst, diag)
        if k == mesh.N:
            break
        e = abs(g[k] * (inv_b0[k - 1] * b0[k - 1]) + b1[k] * inv_b0[k])
        for n in range(k + 1, mesh.N + 1):            # entry (n, k)
            if n > k + 1:
                e *= g[n - 1]
            if not math.isnan(e):
                worst = max(worst, e)
    return worst


def _sturm_count(d0, pairs, x):
    """Number of eigenvalues below x, on Python floats: the number of
    negative pivots, with every pivot formed."""
    count = 0
    q = d0 - x
    if q < 0:
        count += 1
    for di, e2 in pairs:
        if q == 0.0:
            q = 1e-300
        q = di - x - e2 / q
        if q < 0:
            count += 1
    return count


def _numpy_sturm_count(d, e, x):
    count = 0
    q = d[0] - x
    if q < 0:
        count += 1
    for i in range(1, d.size):
        if q == 0.0:
            q = 1e-300
        q = d[i] - x - e[i - 1] * e[i - 1] / q
        if q < 0:
            count += 1
    return count


def _numpy_extreme_eig(d, e, which, tol=1e-10):
    n = d.size
    radius = np.zeros(n)
    if n > 1:
        radius[:-1] += np.abs(e)
        radius[1:] += np.abs(e)
    lo = float(np.min(d - radius)) - tol
    hi = float(np.max(d + radius)) + tol
    need = 1 if which == "min" else n
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if _numpy_sturm_count(d, e, mid) >= need:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _numpy_eigen_extremes(mesh):
    """The certificate eigenvalues by counts on numpy scalars, lam_min the way
    the library takes it: -lam_max(-Bt)."""
    tb0, tb1 = scaled_tridiagonals(mesh)
    lam_min = -_numpy_extreme_eig(-2.0 * tb0, tb1[1:], "max")
    d_p = tb0**2
    d_p[:-1] += tb1[1:] ** 2
    lam_max = _numpy_extreme_eig(d_p, tb0[1:] * tb1[1:], "max")
    return lam_min, lam_max


def _oracle_meshes():
    rng = np.random.default_rng(2023)
    meshes = [random_s1_mesh(rng, n_max=120) for _ in range(20)]
    meshes += [random_mesh(int(rng.integers(2, 300)), 1.0, int(rng.integers(0, 2**31)))
               for _ in range(20)]
    meshes += [uniform_mesh(n, 1.0) for n in (2, 3, 50, 200)]
    meshes += [TimeMesh(np.array([0.3])), uniform_mesh(1, 2.0),
               mesh_from_ratios(1e-3, np.array([1e6, 0.5])),
               random_mesh(300, 1.0, 78396460)]
    return meshes


class TestBDF2Coeffs:
    def test_first_level(self):
        c = bdf2_coeffs(TimeMesh(np.array([0.5])))
        assert c.b0[0] == pytest.approx(2.0)
        assert c.b1[0] == 0.0

    def test_hand_values(self):
        # tau_n = 0.1, r_n = 1
        m = TimeMesh(np.array([0.1, 0.1]))
        c = bdf2_coeffs(m)
        assert c.b0[1] == pytest.approx(15.0)
        assert c.b1[1] == pytest.approx(-5.0)

    def test_degenerate_ratio_limit(self):
        m = mesh_from_ratios(1.0, [1e-10])
        c = bdf2_coeffs(m)
        assert c.b0[1] == pytest.approx(1.0 / m.steps[1], rel=1e-8)
        assert abs(c.b1[1]) < 1e-9 / m.steps[1]

    def test_signs_and_scaling(self, rng):
        for _ in range(20):
            m = random_s1_mesh(rng)
            c = bdf2_coeffs(m)
            assert np.all(c.b0 > 0)
            assert np.all(c.b1 <= 0)
            scaled = m.steps * c.b0
            assert np.all(scaled > 1.0 - 1e-12)
            assert np.all(scaled < 2.0)


class TestDOCKernels:
    def test_first_level(self):
        d = doc_kernels(TimeMesh(np.array([0.7])))
        assert d.rows[0][0] == pytest.approx(0.7)

    def test_uniform_hand_values(self):
        d = doc_kernels(uniform_mesh(3, 3.0))  # tau = 1
        # level 2: theta_0 = 2/3, theta_1 = 1/3
        assert d.rows[1][1] == pytest.approx(2.0 / 3.0)
        assert d.rows[1][0] == pytest.approx(1.0 / 3.0)
        # level 3: theta_0 = 2/3, theta_1 = 2/9, theta_2 = 1/9
        assert d.rows[2][2] == pytest.approx(2.0 / 3.0)
        assert d.rows[2][1] == pytest.approx(2.0 / 9.0)
        assert d.rows[2][0] == pytest.approx(1.0 / 9.0)

    def test_row_sums_are_steps(self, rng):
        for _ in range(20):
            m = random_s1_mesh(rng)
            sums = doc_apply(m, bdf2_coeffs(m), np.ones(m.N))
            assert np.allclose(sums, m.steps, rtol=1e-12, atol=0)

    def test_positive(self, rng):
        for _ in range(20):
            m = random_s1_mesh(rng)
            for row in doc_kernels(m).rows:
                assert np.all(row > 0)

    def test_recursion_matches_product(self, rng):
        for _ in range(20):
            m = random_s1_mesh(rng)
            a = doc_kernels(m)
            b = doc_kernels_recursive(m)
            for ra, rb in zip(a.rows, b.rows):
                assert np.allclose(ra, rb, rtol=1e-12, atol=0)


def _table_apply(rows, v):
    """Theta v from the kernel table, and Theta |v|, the scale of its roundoff."""
    return (np.array([row @ v[:n + 1] for n, row in enumerate(rows)]),
            np.array([row @ np.abs(v[:n + 1]) for n, row in enumerate(rows)]))


class TestDOCApply:
    """The O(N) recurrences against the O(N^2) kernel table of ``conftest``."""

    @staticmethod
    def _meshes():
        rng = np.random.default_rng(404)
        return _oracle_meshes() + [random_s1_mesh(rng, n_max=200) for _ in range(30)]

    def test_matches_table(self):
        rng = np.random.default_rng(505)
        for m in self._meshes():
            rows = doc_kernels(m).rows
            for v in (np.ones(m.N), rng.standard_normal(m.N)):
                want, scale = _table_apply(rows, v)
                assert np.all(np.abs(doc_apply(m, bdf2_coeffs(m), v) - want) <= TABLE_RTOL * scale)

    def test_forms_match_table(self):
        rng = np.random.default_rng(606)
        for m in self._meshes():
            rows = doc_kernels(m).rows
            w, v = rng.standard_normal((2, m.N))
            theta_v, abs_v = _table_apply(rows, v)
            theta_w, abs_w = _table_apply(rows, w)
            cross, cross_scale = w @ theta_v, np.abs(w) @ abs_v
            assert abs(cross_form_theta(m, w, v) - cross) <= TABLE_RTOL * cross_scale
            for x, tx, ax in ((v, theta_v, abs_v), (w, theta_w, abs_w)):
                want, scale = 2.0 * (x @ tx), 2.0 * (np.abs(x) @ ax)
                assert abs(quad_form_theta(m, x) - want) <= TABLE_RTOL * scale


class TestOrthogonality:
    def test_single_level(self):
        m = TimeMesh(np.array([0.3]))
        assert verify_orthogonality(m, bdf2_coeffs(m)) == 0.0

    def test_uniform(self):
        m = uniform_mesh(50, 1.0)
        assert verify_orthogonality(m, bdf2_coeffs(m)) <= 1e-12

    def test_random_s1(self, rng):
        m = random_s1_mesh(rng, n_max=200, n_min=150)
        assert verify_orthogonality(m, bdf2_coeffs(m)) <= 1e-10

    def test_same_double_as_scalar_loop(self):
        for m in _oracle_meshes():
            assert verify_orthogonality(m, bdf2_coeffs(m)) == _loop_orthogonality(m)

    def test_table_residual_within_bound(self):
        for m in _oracle_meshes():
            assert verify_orthogonality(m, bdf2_coeffs(m)) <= 1e-10
            assert table_orthogonality(m) <= 1e-10

    def test_corrupted_b1_is_caught(self):
        # the DOC factors g_n come from the step ratios, so a wrong b1 breaks
        # orthogonality: at level k it leaves rho_{k-1} = -g_k instead of 0
        m = random_mesh(40, 1.0, 9)
        g = _doc_ratios(m)
        k = int(np.argmax(g))
        assert g[k] > 0.5
        c = bdf2_coeffs(m)
        assert verify_orthogonality(m, c) <= 1e-10
        c.b1[k] *= 2.0
        assert verify_orthogonality(m, c) >= g[k] * (1.0 - 1e-12)

    def test_corrupted_residual_matches_table(self):
        # a residual far above roundoff is the same number from the factored
        # scan and from the table, entry by entry
        rng = np.random.default_rng(707)
        for m in _oracle_meshes():
            if m.N < 2:
                continue
            c = bdf2_coeffs(m)
            c.b1[int(rng.integers(1, m.N))] *= 1.0 + rng.uniform(0.1, 1.0)
            got = verify_orthogonality(m, c)
            want = table_orthogonality(m, c)
            assert want > 1e-6
            assert got == pytest.approx(want, rel=1e-12)

    def test_matrix_identity(self, rng):
        m = random_s1_mesh(rng, n_max=40, n_min=20)
        km = kernel_matrices(m)
        resid = np.max(np.abs(km.Theta2 @ km.B2 - np.eye(m.N)))
        assert resid <= 1e-10


class TestTelescope:
    def test_constant_sequence(self, rng):
        m = random_s1_mesh(rng, n_max=30)
        assert verify_telescope(m, np.full(m.N + 1, 4.2)) <= 1e-13

    def test_linear_sequence(self, rng):
        m = random_s1_mesh(rng, n_max=30)
        v = np.concatenate([[0.0], m.times])
        assert verify_telescope(m, v) <= 1e-12

    def test_random_sequence(self, rng):
        m = random_s1_mesh(rng, n_max=100, n_min=50)
        v = rng.standard_normal(m.N + 1)
        assert verify_telescope(m, v) <= 1e-10

    def test_length_checked(self):
        m = uniform_mesh(5, 1.0)
        with pytest.raises(ValueError):
            verify_telescope(m, np.zeros(3))


class TestScaledMatrices:
    def test_entries(self, rng):
        m = random_s1_mesh(rng, n_max=20, n_min=5)
        km = kernel_matrices(m)
        tb0, tb1 = scaled_tridiagonals(m)
        assert np.allclose(np.diag(km.B2t), tb0)
        assert np.allclose(np.diag(km.B2t, -1), tb1[1:])
        assert np.allclose(km.Bt, km.B2t + km.B2t.T)


class TestEigenBounds:
    def test_tridiag_solver_against_dense(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 30))
            d = rng.standard_normal(n)
            e = rng.standard_normal(n - 1)
            dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
            lams = np.linalg.eigvalsh(dense)
            assert -tridiag_max_eig(-d, e) == pytest.approx(lams[0], abs=1e-9)
            assert tridiag_max_eig(d, e) == pytest.approx(lams[-1], abs=1e-9)

    def test_certificates_on_s1_meshes(self, rng):
        for _ in range(20):
            m = random_s1_mesh(rng, n_max=100)
            eb = eigen_bounds(m)
            assert eb.s1_ok
            assert eb.lam_min >= 21.0 / 40.0 - 1e-9
            assert eb.lam_max <= 53.0 / 5.0 + 1e-9
            assert eb.quad_const <= 39.0

    def test_against_dense_eigensolver(self, rng):
        m = random_s1_mesh(rng, n_max=50, n_min=10)
        km = kernel_matrices(m)
        eb = eigen_bounds(m)
        assert eb.lam_min == pytest.approx(np.linalg.eigvalsh(km.Bt)[0], abs=1e-9)
        prod = km.B2t.T @ km.B2t
        assert eb.lam_max == pytest.approx(np.linalg.eigvalsh(prod)[-1], abs=1e-9)

    def test_huge_step_ratio_terminates(self):
        # a step ratio of 1e6 puts lam_max near 1e6, where adjacent doubles
        # are 1.2e-10 apart: an absolute tol of 1e-10 cannot be met there,
        # so the bisection must stop once the bracket stops shrinking
        m = mesh_from_ratios(1e-3, np.array([1e6, 0.5]))
        km = kernel_matrices(m)
        eb = eigen_bounds(m)
        want = np.linalg.eigvalsh(km.B2t.T @ km.B2t)[-1]
        assert want > 5e5
        assert eb.lam_max == pytest.approx(want, rel=1e-12)
        assert eb.lam_min == pytest.approx(np.linalg.eigvalsh(km.Bt)[0], abs=1e-9)

    def test_same_doubles_as_numpy_scalar_bisection(self):
        for m in _oracle_meshes():
            eb = eigen_bounds(m)
            assert (eb.lam_min, eb.lam_max) == _numpy_eigen_extremes(m)

    def test_min_by_negation_matches_count_of_one(self):
        # the reference route for lam_min bisects on "some eigenvalue lies
        # below x".  Only the one-level Bt = [2] differs: the midpoint 2.0 is
        # the eigenvalue itself, and the tie breaks the other way
        for m in _oracle_meshes():
            tb0, tb1 = scaled_tridiagonals(m)
            old = _numpy_extreme_eig(2.0 * tb0, tb1[1:], "min")
            new = eigen_bounds(m).lam_min
            assert abs(new - old) <= EIG_TOL
            if m.N >= 2:
                assert new == old

    def test_sturm_count_matches_numpy_scalars(self, rng):
        # the predicate stops at the first pivot that settles it, and agrees
        # with the full count on Python floats and on numpy scalars
        for _ in range(10):
            n = int(rng.integers(1, 40))
            d = rng.standard_normal(n)
            e = rng.standard_normal(n - 1)
            pairs = list(zip(d[1:].tolist(), (e * e).tolist()))
            for x in np.concatenate([rng.uniform(-4, 4, 20), d[:1]]):
                count = _sturm_count(float(d[0]), pairs, float(x))
                assert count == _numpy_sturm_count(d, e, x)
                assert _all_eigs_below(float(d[0]), pairs, float(x)) == (count == n)
            assert tridiag_max_eig(d, e) == _numpy_extreme_eig(d, e, "max")

    def test_zero_pivot_stops_without_dividing(self):
        # a pivot that is exactly 0 is not negative, so the predicate returns
        # False there; on Python floats the next pivot's e2 / 0.0 would raise
        pairs = [(-1.0, 4.0), (5.0, 1.0)]
        assert _all_eigs_below(2.0, pairs, 2.0) is False     # q_1 = 2 - 2 = 0
        # q_1 = 2 - 3 = -1, then q_2 = -1 - 3 - 4 / -1 = 0
        assert _all_eigs_below(2.0, pairs, 3.0) is False

    def test_one_level_values(self):
        # r_1 = 0 makes tb0 = 1 and tb1 = 0: Bt = [2] and B2t^T B2t = [1]
        eb = eigen_bounds(TimeMesh(np.array([0.3])))
        assert eb.lam_min == pytest.approx(2.0, abs=1e-9)
        assert eb.lam_max == pytest.approx(1.0, abs=1e-9)
        assert eb.quad_const == pytest.approx(0.25, abs=1e-9)
        assert eb.s1_ok

    def test_uniform_mesh_values(self):
        eb = eigen_bounds(uniform_mesh(50, 1.0))
        # interior Gershgorin rows give min_eig_bound(1, 1) = 2 and
        # max_eig_bound(1, 1) = 4; the first level (ratio 0) weakens the
        # lower bound to min_eig_bound(0, 1) = 1.5
        assert eb.lam_min >= min_eig_bound(0.0, 1.0) - 1e-9
        assert eb.lam_max <= max_eig_bound(1.0, 1.0) + 1e-9
        assert eb.quad_const <= max_eig_bound(1.0, 1.0) / min_eig_bound(0.0, 1.0) ** 2


class TestBoundFunctions:
    def test_hand_values(self):
        assert min_eig_bound(0.0, 0.0) == pytest.approx(2.0)
        assert max_eig_bound(0.0, 0.0) == pytest.approx(1.0)
        assert min_eig_bound(1.0, 1.0) == pytest.approx(2.0)
        assert max_eig_bound(1.0, 1.0) == pytest.approx(4.0)

    def test_global_bounds(self, rng):
        pts = rng.uniform(0, R_SUP - 1e-9, size=(500, 2))
        for z, s in pts:
            assert min_eig_bound(z, s) > 21.0 / 40.0
            assert max_eig_bound(z, s) < 53.0 / 5.0
        r = R_SUP - 1e-12
        assert max_eig_bound(r, r) < 53.0 / 5.0

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            min_eig_bound(3.6, 0.0)
        with pytest.raises(ValueError):
            max_eig_bound(0.0, 3.6)

    def test_refined_constants(self):
        assert refined_quad_const(0.5) == 1.19
        assert refined_quad_const(2.0) == 3.25
        assert refined_quad_const(3.0, 1.45) == 3.94
        assert refined_quad_const(3.0) == 4.0
        assert refined_quad_const(3.0, 2.0) == 4.0


class TestQuadraticForms:
    def test_positive_definiteness_lower_bound(self, rng):
        for _ in range(50):
            m = random_s1_mesh(rng, n_max=64)
            w = rng.standard_normal(m.N)
            lhs = quad_form_b(m, w)
            r_ext = np.append(m.ratios, 0.0)
            bound = sum(stability_bound(r_ext[k], r_ext[k + 1]) * w[k] ** 2
                        / m.steps[k] for k in range(m.N))
            assert lhs >= bound - 1e-10 * max(1.0, abs(bound))

    def test_doc_positive_definite(self, rng):
        for _ in range(50):
            m = random_s1_mesh(rng, n_max=64)
            v = rng.standard_normal(m.N)
            assert quad_form_theta(m, v) > 0.0

    def test_convolution_inequality(self, rng):
        for _ in range(20):
            m = random_s1_mesh(rng, n_max=48)
            mr = eigen_bounds(m).quad_const
            w = rng.standard_normal(m.N)
            v = rng.standard_normal(m.N)
            lhs = cross_form_theta(m, w, v)
            qv = 0.5 * quad_form_theta(m, v)
            qw = 0.5 * quad_form_theta(m, w)
            for eps in (0.1, 1.0, 10.0):
                rhs = eps * qv + (mr / eps) * qw
                assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))
