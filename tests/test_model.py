import dataclasses

import numpy as np
import pytest

from conftest import (chemical_potential, constant_field, coords, full_k2, hminus1_norm,
                      inner, laplacian, lin_symbol_half, linf_monitor, manufactured_forcing,
                      modified_energy)
from pfc.grid import Field, Grid2D, MeanZeroError, forward
from pfc.model import (PfcParams, energy, exact_solution, manufactured_forcing_hat, mass,
                       history_weight, step_distance_sq)


@pytest.fixture
def setup():
    g = Grid2D(32, 8.0)
    return g, PfcParams(0.02, g)


class TestParams:
    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.3, 2.0])
    def test_eps_range(self, eps):
        with pytest.raises(ValueError):
            PfcParams(eps, Grid2D(8, 8.0))

    def test_frozen_with_read_only_symbols(self):
        # the symbols are formed from eps once: a changed eps would leave
        # k2_lin stale while cncs_step and energy read the new one
        p = PfcParams(0.2, Grid2D(32, 16.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.eps = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.grid = Grid2D(32, 32.0)
        for arr in (p.k2_lin, p.interface_weight_folded):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1.0
        assert p == PfcParams(0.2, Grid2D(32, 16.0))
        assert hash(p) == hash(PfcParams(0.2, Grid2D(32, 16.0)))


class TestChemicalPotential:
    def test_zero(self, setup):
        g, p = setup
        mu = chemical_potential(constant_field(g, 0.0), p)
        assert np.max(np.abs(mu.values)) == 0.0

    def test_constant(self, setup):
        g, p = setup
        c = 0.4
        mu = chemical_potential(constant_field(g, c), p)
        want = (1 - p.eps) * c + c**3
        assert np.max(np.abs(mu.values - want)) < 1e-13

    def test_unit_eigenvalue_mode(self):
        # L = 2*pi makes sin(x) an eigenfunction of the Laplacian with
        # eigenvalue -1, so the fourth-order part vanishes
        g = Grid2D(32, 2 * np.pi)
        p = PfcParams(0.02, g)
        phi = Field(g, np.sin(coords(g)[0]))
        mu = chemical_potential(phi, p)
        want = phi.values**3 - p.eps * phi.values
        assert np.max(np.abs(mu.values - want)) < 1e-11


class TestEnergy:
    def test_zero(self, setup):
        g, p = setup
        assert energy(constant_field(g, 0.0), p) == pytest.approx(0.0, abs=1e-14)

    def test_constant_closed_form(self, setup):
        g, p = setup
        c = -0.6
        want = g.volume * (c**2 / 2 + ((c**2 - p.eps) ** 2 - p.eps**2) / 4)
        assert energy(constant_field(g, c), p) == pytest.approx(want, rel=1e-13)

    def test_pointwise_quadrature_oracle(self, setup, rng):
        g, p = setup
        f = Field(g, 0.3 * rng.standard_normal((g.M, g.M)))
        fh = np.fft.fft2(f.values)
        opl = np.fft.ifft2((1.0 - full_k2(g)) * fh).real
        direct = g.cell_area * np.sum(0.5 * opl**2 + 0.25 * (f.values**2 - p.eps) ** 2) \
            - 0.25 * p.eps**2 * g.volume
        assert energy(f, p) == pytest.approx(direct, rel=1e-11)

    def test_translation_invariance(self, setup, rng):
        g, p = setup
        f = Field(g, rng.standard_normal((g.M, g.M)))
        shifted = Field(g, np.roll(f.values, (5, -3), axis=(0, 1)))
        assert energy(shifted, p) == pytest.approx(energy(f, p), rel=1e-12)

    def test_variational_gradient(self, setup, rng):
        g, p = setup
        delta = 1e-5
        for _ in range(5):
            f = Field(g, 0.5 * rng.standard_normal((g.M, g.M)))
            psi = Field(g, rng.standard_normal((g.M, g.M)))
            fd = (energy(Field(g, f.values + delta * psi.values), p)
                  - energy(Field(g, f.values - delta * psi.values), p)) / (2 * delta)
            ip = inner(chemical_potential(f, p), psi)
            assert fd == pytest.approx(ip, rel=1e-6)


class TestModifiedEnergy:
    def test_no_history_term(self, setup, rng):
        g, p = setup
        f = Field(g, rng.standard_normal((g.M, g.M)))
        shifted = f.values + rng.standard_normal((g.M, g.M)) * 0.1
        prev = Field(g, shifted - (np.mean(shifted) - np.mean(f.values)))
        assert modified_energy(f, prev, 0.5, 0.0, p) == pytest.approx(energy(f, p))

    def test_equal_fields(self, setup, rng):
        g, p = setup
        f = Field(g, rng.standard_normal((g.M, g.M)))
        assert modified_energy(f, f, 0.5, 1.7, p) == pytest.approx(energy(f, p))

    def test_eigenfunction_history(self, setup):
        g, p = setup
        f = Field(g, np.sin(g.nu * coords(g)[0]))
        prev = constant_field(g, 0.0)
        # r = 1, tau = 1: extra term = ||sin||_{-1}^2 / 4
        extra = hminus1_norm(f) ** 2 / 4.0
        got = modified_energy(f, prev, 1.0, 1.0, p)
        assert got == pytest.approx(energy(f, p) + extra, rel=1e-12)

    def test_step_distance_is_hminus1_norm(self, setup, rng):
        g, p = setup
        for _ in range(5):
            d = rng.standard_normal((g.M, g.M))
            d -= d.mean()
            prev = Field(g, 0.285 + rng.standard_normal((g.M, g.M)))
            f = Field(g, prev.values + d)
            want = hminus1_norm(Field(g, d)) ** 2
            linf = float(np.max(np.abs(f.values)))
            assert step_distance_sq(f, prev, linf) == pytest.approx(want, rel=1e-12)

    def test_mean_shift_raises(self, setup, rng):
        g, p = setup
        prev = Field(g, 0.285 + 1e-3 * rng.standard_normal((g.M, g.M)))
        shifted = Field(g, prev.values + 1e-6)
        with pytest.raises(MeanZeroError):
            modified_energy(shifted, prev, 0.5, 1.0, p)

    def test_step_distance_with_given_max_norm(self, setup, rng):
        # the mean check is judged against the max|phi_k| that the caller passes
        g, p = setup
        prev = Field(g, 0.285 + 1e-3 * rng.standard_normal((g.M, g.M)))
        shifted = Field(g, prev.values + 1e-6)
        with pytest.raises(MeanZeroError):
            step_distance_sq(shifted, prev, float(np.max(np.abs(shifted.values))))
        step_distance_sq(shifted, prev, 1e7)

    @pytest.mark.parametrize("tau,r", [(np.nan, 0.5), (0.1, np.nan), (0.0, 0.5),
                                       (0.1, -0.5)])
    def test_history_weight_refuses_nan_and_out_of_range(self, tau, r):
        with pytest.raises(ValueError):
            history_weight(tau, r)

    def test_never_below_plain_energy(self, setup, rng):
        g, p = setup
        for _ in range(10):
            d = rng.standard_normal((g.M, g.M))
            d -= d.mean()
            prev = Field(g, rng.standard_normal((g.M, g.M)))
            f = Field(g, prev.values + d)
            tau = float(rng.uniform(0.01, 1.0))
            r = float(rng.uniform(0.0, 3.5))
            assert modified_energy(f, prev, tau, r, p) >= energy(f, p)


class TestMass:
    def test_constant(self, setup):
        g, _ = setup
        assert mass(constant_field(g, 0.5)) == pytest.approx(32.0)

    def test_mean_zero_mode(self, setup):
        g, _ = setup
        assert abs(mass(Field(g, np.sin(g.nu * coords(g)[0])))) < 1e-13

    def test_linearity(self, setup, rng):
        g, _ = setup
        f = Field(g, rng.standard_normal((g.M, g.M)))
        h = Field(g, rng.standard_normal((g.M, g.M)))
        combo = Field(g, 2.0 * f.values + 0.5 * h.values)
        assert mass(combo) == pytest.approx(2 * mass(f) + 0.5 * mass(h), rel=1e-12)

    def test_same_bits_as_inner_with_ones(self, rng):
        # x * 1.0 == x, so dropping the field of ones changes no bit
        from pfc.experiments import patched_initial
        g64 = Grid2D(64, 8.0)
        g256 = Grid2D(256, 256.0)
        fields = [Field(g64, rng.standard_normal((64, 64))),
                  patched_initial(g256, seed=2023)]
        for f in fields:
            assert mass(f) == inner(f, constant_field(f.grid, 1.0))


class TestLinfMonitor:
    def test_zero_field(self, setup):
        g, p = setup
        linf, proxy = linf_monitor(constant_field(g, 0.0), 0.0, p)
        assert linf == 0.0
        assert proxy == pytest.approx(np.sqrt(2 * (2 + p.eps) ** 2 * g.volume))

    def test_linf_is_max_abs(self, setup, rng):
        g, p = setup
        f = Field(g, rng.standard_normal((g.M, g.M)))
        linf, _ = linf_monitor(f, 1.0, p)
        assert linf == np.max(np.abs(f.values))


class TestManufacturedForcing:
    def test_profile_vanishes_at_quarter_period(self, setup):
        g, p = setup
        t = np.pi / 2
        gfield = manufactured_forcing(t, g, p)
        X, Y = coords(g)
        want = -np.sin(t) * np.sin(0.5 * np.pi * X) * np.sin(0.5 * np.pi * Y)
        assert np.max(np.abs(gfield.values - want)) < 1e-12

    def test_mean_free(self, setup):
        g, p = setup
        for t in (0.0, 0.3, 1.7):
            assert abs(np.mean(manufactured_forcing(t, g, p).values)) < 1e-14

    def test_semi_discrete_residual(self, setup):
        g, p = setup
        t = 0.37
        phi = exact_solution(t, g)
        X, Y = coords(g)
        dphi_dt = -np.sin(t) * np.sin(0.5 * np.pi * X) * np.sin(0.5 * np.pi * Y)
        mu = chemical_potential(phi, p)
        lap_mu = np.fft.ifft2(-full_k2(g) * np.fft.fft2(mu.values)).real
        res = dphi_dt - lap_mu - manufactured_forcing(t, g, p).values
        assert np.max(np.abs(res)) < 1e-12

    @pytest.mark.parametrize("M", [4, 32, 128, 256])
    def test_axis_sines_match_2d_formula(self, M):
        g = Grid2D(M, 8.0)
        p = PfcParams(0.2, g)
        X, Y = coords(g)
        sx = np.sin(0.5 * np.pi * X)
        sy = np.sin(0.5 * np.pi * Y)
        for t in (0.0, 0.37, 1.7, 12.5):
            phi = Field(g, np.cos(t) * sx * sy)
            assert np.array_equal(exact_solution(t, g).values, phi.values)
            want = -np.sin(t) * sx * sy - laplacian(chemical_potential(phi, p)).values
            assert np.array_equal(manufactured_forcing(t, g, p).values, want)


class TestManufacturedForcingHat:
    @pytest.mark.parametrize("M", [4, 32, 128])
    def test_matches_transformed_values(self, M):
        """The spectrum formed once per grid against ``forward`` of the forcing
        values.  Both evaluate k^2 lin on a spectrum, so their difference is
        roundoff amplified by that symbol: 3e-16, 9e-12 and 6e-8 of max|g^|
        at M = 4, 32 and 128.  Scaled by max|g^| (1 + k^2 |lin|) it measured
        at most 4.1e-17 on every mode, which the bound 1e-15 holds 25 times
        over.  The zero mode holds only the roundoff of sum(S)."""
        g = Grid2D(M, 8.0)
        p = PfcParams(0.2, g)
        forcing_hat = manufactured_forcing_hat(p)
        amplification = 1.0 + g.k2_half * np.abs(lin_symbol_half(p))
        for t in (0.0, 0.37, np.pi / 2, 1.7, 12.5):
            got = forcing_hat(t)
            want = forward(manufactured_forcing(t, g, p).values)
            scale = np.max(np.abs(want))
            assert np.all(np.abs(got - want) <= 1e-15 * scale * amplification)
            assert abs(got[0, 0]) / (M * M) < 1e-14

    def test_returns_a_new_array(self, setup):
        g, p = setup
        forcing_hat = manufactured_forcing_hat(p)
        a = forcing_hat(0.3)
        a_copy = a.copy()
        b = forcing_hat(0.3)
        assert a is not b and np.array_equal(a, b)
        b *= 2.0
        assert np.array_equal(forcing_hat(0.3), a_copy)
