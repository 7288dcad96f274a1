import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest

from conftest import (GridMismatchError, constant_field, coords, full_grad, hminus1_norm,
                      inner, inv_laplacian, laplacian, load_snapshot, mean)
from pfc.experiments import save_snapshot
from pfc.grid import Field, Grid2D, MeanZeroError, l2_norm


def norms(f: Field) -> tuple[float, float, float]:
    """Return (l2, l4, linf) norms of the field."""
    a = f.grid.cell_area
    v = f.values
    v2 = v * v
    l2 = float(np.sqrt(a * np.sum(v2)))
    l4 = float((a * np.sum(v2 * v2)) ** 0.25)
    linf = float(np.max(np.abs(v)))
    return l2, l4, linf


def make_grid(M=32, L=8.0):
    return Grid2D(M, L)


def sin_x(grid, k=1):
    X, _ = coords(grid)
    return Field(grid, np.sin(k * grid.nu * X))


class TestGridConstruction:
    def test_spacing(self):
        g = make_grid(4, 8.0)
        assert g.h == 2.0
        assert g.h * g.M == g.L

    @pytest.mark.parametrize("M", [3, 2, 7, 0])
    def test_bad_M(self, M):
        with pytest.raises(ValueError):
            Grid2D(M, 8.0)

    def test_bad_L(self):
        with pytest.raises(ValueError):
            Grid2D(8, -1.0)

    @pytest.mark.parametrize("L", [math.nan, math.inf, -math.inf, 0.0])
    def test_non_finite_or_zero_L_refused(self, L):
        # NaN used to build NaN wavenumbers and inf all-zero ones
        with pytest.raises(ValueError, match="positive and finite"):
            Grid2D(8, L)

    def test_frozen_with_read_only_arrays(self):
        # k^2 and the H^-1 weight are formed once, from M and L: neither may
        # change afterwards, or a step would run with a stale symbol
        g = make_grid()
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.L = 32.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.M = 64
        for arr in (g.k2_half, g.inv_k2_folded, g.x):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, ...] = 1.0
        assert g == make_grid() and hash(g) == hash(make_grid())

    def test_field_shape_checked(self):
        g = make_grid(8)
        with pytest.raises(ValueError):
            Field(g, np.zeros((8, 4)))

    def test_field_finite_checked(self):
        g = make_grid(8)
        vals = np.zeros((8, 8))
        vals[0, 0] = np.nan
        with pytest.raises(ValueError):
            Field(g, vals)


class TestInnerProduct:
    def test_constants(self):
        g = Grid2D(4, 8.0)
        one = constant_field(g, 1.0)
        assert inner(one, one) == pytest.approx(64.0)

    def test_zero(self, rng):
        g = make_grid()
        f = Field(g, rng.standard_normal((g.M, g.M)))
        assert inner(f, constant_field(g, 0.0)) == 0.0

    def test_resolved_mode(self):
        g = make_grid()
        f = sin_x(g)
        assert inner(f, f) == pytest.approx(32.0, rel=1e-13)

    def test_grid_mismatch(self):
        f = constant_field(make_grid(16), 1.0)
        g = constant_field(make_grid(32), 1.0)
        with pytest.raises(GridMismatchError):
            inner(f, g)


class TestNorms:
    def test_zero(self):
        g = make_grid()
        assert norms(constant_field(g, 0.0)) == (0.0, 0.0, 0.0)

    def test_constant(self):
        g = make_grid()
        c = -1.7
        l2, l4, linf = norms(constant_field(g, c))
        assert l2 == pytest.approx(8 * abs(c))
        assert l4 == pytest.approx((64 * c**4) ** 0.25)
        assert linf == abs(c)

    def test_resolved_mode(self):
        l2, _, linf = norms(sin_x(make_grid()))
        assert l2 == pytest.approx(np.sqrt(32.0), rel=1e-13)
        assert linf == pytest.approx(1.0)

    def test_l2_norm_is_first_of_norms(self, rng):
        for M, L in ((4, 1.0), (32, 8.0), (64, 64.0)):
            g = make_grid(M, L)
            for f in (sin_x(g), constant_field(g, -1.7),
                      Field(g, 0.285 + rng.standard_normal((M, M)))):
                assert l2_norm(f.values, f.grid) == norms(f)[0]


class TestLaplacian:
    def test_constant(self):
        out = laplacian(constant_field(make_grid(), 3.0))
        assert np.max(np.abs(out.values)) == 0.0

    def test_eigenfunction(self):
        g = make_grid()
        f = sin_x(g)
        out = laplacian(f)
        assert np.max(np.abs(out.values + g.nu**2 * f.values)) < 1e-12

    def test_two_mode_product(self):
        g = make_grid()
        X, Y = coords(g)
        vals = np.sin(g.nu * X) * np.sin(g.nu * Y)
        out = laplacian(Field(g, vals))
        assert np.max(np.abs(out.values + 2 * g.nu**2 * vals)) < 1e-12

    def test_symmetric(self, rng):
        g = make_grid()
        f = Field(g, rng.standard_normal((g.M, g.M)))
        h = Field(g, rng.standard_normal((g.M, g.M)))
        a = inner(laplacian(f), h)
        b = inner(f, laplacian(h))
        assert a == pytest.approx(b, rel=1e-11)

    def test_negative_semidefinite(self, rng):
        g = make_grid()
        f = Field(g, rng.standard_normal((g.M, g.M)))
        assert inner(laplacian(f), f) <= 1e-11


class TestInverseLaplacian:
    def test_eigenfunction(self):
        g = make_grid()
        f = sin_x(g)
        out = inv_laplacian(f, 1)
        assert np.max(np.abs(out.values - f.values / g.nu**2)) < 1e-12

    def test_zero(self):
        g = make_grid()
        out = inv_laplacian(constant_field(g, 0.0), 1)
        assert np.max(np.abs(out.values)) == 0.0

    def test_two_modes(self):
        g = make_grid()
        X, _ = coords(g)
        f = Field(g, np.sin(g.nu * X) + np.sin(2 * g.nu * X))
        out = inv_laplacian(f, 1)
        want = np.sin(g.nu * X) / g.nu**2 + np.sin(2 * g.nu * X) / (4 * g.nu**2)
        assert np.max(np.abs(out.values - want)) < 1e-12

    def test_inverse_of_laplacian(self, rng):
        g = make_grid()
        vals = rng.standard_normal((g.M, g.M))
        vals -= vals.mean()
        f = Field(g, vals)
        back = laplacian(inv_laplacian(f, 1))
        assert np.max(np.abs(back.values + f.values)) < 1e-11 * np.max(np.abs(vals))

    def test_mean_zero_required(self):
        g = make_grid()
        with pytest.raises(MeanZeroError) as exc:
            inv_laplacian(constant_field(g, 0.5), 1)
        assert "mean" in str(exc.value)


class TestHminus1:
    def test_zero(self):
        assert hminus1_norm(constant_field(make_grid(), 0.0)) == 0.0

    def test_eigenfunction(self):
        g = make_grid()
        assert hminus1_norm(sin_x(g)) == pytest.approx(np.sqrt(32.0) / g.nu, rel=1e-12)

    def test_hoelder(self, rng):
        g = make_grid()
        for _ in range(10):
            vals = rng.standard_normal((g.M, g.M))
            vals -= vals.mean()
            f = Field(g, vals)
            fh = np.fft.fft2(vals)
            gx, gy = (Field(g, np.fft.ifft2(ik * fh).real) for ik in full_grad(g))
            grad_norm = np.sqrt(inner(gx, gx) + inner(gy, gy))
            assert inner(f, f) <= grad_norm * hminus1_norm(f) * (1 + 1e-11)


class TestTransformProperties:
    @pytest.mark.parametrize("M", [16, 32, 64, 128])
    def test_round_trip(self, M, rng):
        g = Grid2D(M, 8.0)
        vals = rng.standard_normal((M, M))
        back = np.fft.ifft2(np.fft.fft2(vals)).real
        assert np.max(np.abs(back - vals)) <= 1e-13 * np.max(np.abs(vals))

    def test_conjugate_symmetry(self, rng):
        g = make_grid(16)
        coeffs = np.fft.fft2(rng.standard_normal((16, 16)))
        flipped = np.conj(np.roll(coeffs[::-1, ::-1], (1, 1), axis=(0, 1)))
        assert np.max(np.abs(coeffs - flipped)) < 1e-10 * np.max(np.abs(coeffs))

    def test_linearity(self, rng):
        g = make_grid()
        f = Field(g, rng.standard_normal((g.M, g.M)))
        h = Field(g, rng.standard_normal((g.M, g.M)))
        combo = Field(g, 2.0 * f.values - 3.0 * h.values)
        out = laplacian(combo)
        want = 2.0 * laplacian(f).values - 3.0 * laplacian(h).values
        assert np.max(np.abs(out.values - want)) < 1e-12 * max(1, np.max(np.abs(want)))

    def test_laplacian_zero_mode_exact(self, rng):
        g = make_grid()
        f = Field(g, rng.standard_normal((g.M, g.M)) + 5.0)
        assert abs(mean(laplacian(f))) < 1e-13


class TestSnapshot:
    def test_round_trip(self, tmp_path, rng):
        g = make_grid(16)
        f = Field(g, rng.standard_normal((16, 16)))
        path = os.path.join(tmp_path, "snap.csv")
        save_snapshot(path, f, 1.25)
        f2, t = load_snapshot(path)
        assert t == 1.25
        assert f2.grid == g
        assert np.array_equal(f2.values, f.values)

    def test_bytes_are_the_per_value_format(self, tmp_path, rng):
        # the header line, then one %.17g per value, row j holding y index j;
        # 128 rows are more than one of write_csv's blocks
        for M in (16, 128):
            g = make_grid(M)
            vals = rng.standard_normal((M, M))
            vals[0, 0], vals[1, 0], vals[0, 1] = -0.0, 1e-300, 0.1
            f = Field(g, vals)
            path = os.path.join(tmp_path, "snap.csv")
            save_snapshot(path, f, 1.25)
            want = f"{g.M} {g.L:.17g} {1.25:.17g}\n" + "".join(
                ",".join(f"{v:.17g}" for v in f.values[:, j]) + "\n" for j in range(g.M))
            with open(path, "rb") as fh:
                assert fh.read() == want.encode()
            rows = want.splitlines()
            assert rows[1].startswith("-0,1e-300,") and rows[2].startswith("0.10000000000000001,")

    def test_memory_is_bounded(self, tmp_path, rng):
        # rows are formatted 64 at a time: a 256^2 snapshot's 1.3 MB of text
        # and its 65,536 Python floats are never held at once
        f = Field(make_grid(256, 256.0), rng.standard_normal((256, 256)))
        tracemalloc.start()
        try:
            save_snapshot(os.path.join(tmp_path, "snap.csv"), f, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6
