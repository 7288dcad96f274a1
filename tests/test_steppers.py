import numpy as np
import pytest

from conftest import constant_field, coords, full_k2, full_lin_symbol, ref_cncs
from pfc.grid import Field, Grid2D, mean
from pfc.model import PfcParams, energy, manufactured_forcing, modified_energy
from pfc.steppers import (FP_TOL, MAX_ITER, NL_LEVELS, ConditioningError, SolverError,
                          StepperState, _midpoint_cube, bdf2_step, cn_step, cncs_step,
                          cs1_step, run_fixed_mesh)


@pytest.fixture
def setup():
    g = Grid2D(32, 8.0)
    return g, PfcParams(0.2, g)


def random_field(g, rng, amp=0.1, mean_val=0.1):
    return Field(g, mean_val + amp * rng.uniform(-1, 1, size=(g.M, g.M)))


def spectral_residual_bdf2(phi_n, phi_m1, phi_m2, b0, b1, p, forcing=None):
    g = phi_n.grid
    lhs = b0 * (phi_n.values - phi_m1.values)
    if phi_m2 is not None:
        lhs = lhs + b1 * (phi_m1.values - phi_m2.values)
    rhs_hat = -full_k2(g) * (full_lin_symbol(p) * np.fft.fft2(phi_n.values)
                             + np.fft.fft2(phi_n.values**3))
    rhs = np.fft.ifft2(rhs_hat).real
    if forcing is not None:
        rhs = rhs + forcing.values
    return np.max(np.abs(lhs - rhs))


class TestBDF2:
    def test_steady_constant(self, setup):
        g, p = setup
        c = 0.3
        state = StepperState(constant_field(g, c))
        phi, stats = bdf2_step(state, 0.1, p)
        # a constant is a spatial equilibrium of the conserved flow
        assert np.max(np.abs(phi.values - c)) < 1e-12
        assert stats.final_residual <= FP_TOL

    def test_mass_conserved(self, setup, rng):
        g, p = setup
        state = StepperState(random_field(g, rng))
        m0 = mean(state.phi_prev)
        for _ in range(5):
            phi, _ = bdf2_step(state, 0.05, p)
            state = state.advanced(phi, 0.05)
        assert abs(mean(state.phi_prev) - m0) < 1e-13

    def test_first_step_defining_equation(self, setup, rng):
        g, p = setup
        prev = random_field(g, rng)
        tau = 0.05
        phi, _ = bdf2_step(StepperState(prev), tau, p)
        res = spectral_residual_bdf2(phi, prev, None, 1.0 / tau, 0.0, p)
        assert res < 1e-8

    def test_two_level_defining_equation(self, setup, rng):
        g, p = setup
        state = StepperState(random_field(g, rng))
        tau1, tau2 = 0.04, 0.07
        phi1, _ = bdf2_step(state, tau1, p)
        state = state.advanced(phi1, tau1)
        phi2, _ = bdf2_step(state, tau2, p)
        r = tau2 / tau1
        b0 = (1 + 2 * r) / (tau2 * (1 + r))
        b1 = -(r * r) / (tau2 * (1 + r))
        res = spectral_residual_bdf2(phi2, phi1, state.phi_prev2, b0, b1, p)
        assert res < 1e-8

    def test_three_level_defining_equation(self, setup, rng):
        # after NL_LEVELS + 1 steps the solve starts from the extrapolation
        # of the full set of kept nonlinearity spectra; the step it lands on
        # must still solve the two-step scheme's equation
        g, p = setup
        taus = (0.04, 0.07, 0.02, 0.05, 0.03, 0.02)
        assert len(taus) == NL_LEVELS + 1
        levels = []
        run_fixed_mesh(random_field(g, rng), taus, p,
                       observer=lambda state, _: levels.append(state))
        assert [len(s.nl_hats) for s in levels] == [1, 2, 3, 4, 5, 5]
        r = taus[-1] / taus[-2]
        b0 = (1 + 2 * r) / (taus[-1] * (1 + r))
        b1 = -(r * r) / (taus[-1] * (1 + r))
        last = levels[-1]
        res = spectral_residual_bdf2(last.phi_prev, last.phi_prev2,
                                     levels[-3].phi_prev, b0, b1, p)
        assert res < 1e-8

    def test_forced_defining_equation(self, setup, rng):
        g, p = setup
        prev = random_field(g, rng)
        tau = 0.05
        f = manufactured_forcing(tau, g, p)
        phi, _ = bdf2_step(StepperState(prev), tau, p, forcing=f)
        res = spectral_residual_bdf2(phi, prev, None, 1.0 / tau, 0.0, p, f)
        assert res < 1e-8

    def test_linearized_amplification(self, setup):
        # tiny amplitude: the cubic term is below round-off, so each mode
        # follows the scalar implicit-Euler factor on the first step
        g, p = setup
        a = 1e-8
        vals = a * np.cos(3 * g.nu * coords(g)[0])
        tau = 0.1
        phi, _ = bdf2_step(StepperState(Field(g, vals)), tau, p)
        k2 = (3 * g.nu) ** 2
        factor = 1.0 / (1.0 + tau * k2 * ((1 - k2) ** 2 - p.eps))
        assert np.max(np.abs(phi.values - factor * vals)) < 1e-7 * a

    def test_modified_energy_decreases(self, setup, rng):
        g, p = setup
        tau = 0.01
        state = StepperState(random_field(g, rng))
        prev_mod = None
        for _ in range(20):
            phi, _ = bdf2_step(state, tau, p)
            state = state.advanced(phi, tau)
            e_mod = modified_energy(state.phi_prev, state.phi_prev2, tau, 1.0, p)
            if prev_mod is not None:
                assert e_mod <= prev_mod * (1 + 1e-10) + 1e-10
            prev_mod = e_mod

    def test_conditioning_guard(self):
        g = Grid2D(32, 2 * np.pi)
        p = PfcParams(0.5, g)
        state = StepperState(constant_field(g, 0.1))
        with pytest.raises(ConditioningError) as exc:
            bdf2_step(state, 3.0, p)
        assert "reduce the step" in str(exc.value)

    def test_bad_tau(self, setup):
        g, p = setup
        with pytest.raises(ValueError):
            bdf2_step(StepperState(constant_field(g, 0.0)), -0.1, p)

    def test_solved_field_skips_finite_check(self, setup, rng, monkeypatch):
        # a converged solve has a finite increment, so its iterate is finite:
        # the field is made without the constructor's np.isfinite pass
        g, p = setup
        phi0 = random_field(g, rng)
        checked = []
        post_init = Field.__post_init__
        monkeypatch.setattr(Field, "__post_init__",
                            lambda self: checked.append(1) or post_init(self))
        phi, stats = bdf2_step(StepperState(phi0), 0.01, p)
        assert stats.final_residual <= FP_TOL
        assert checked == []
        assert phi.values.dtype == np.float64
        assert phi.values.shape == (g.M, g.M)
        assert np.all(np.isfinite(phi.values))
        assert phi.nl_hat is not None
        assert np.array_equal(phi.hat, phi.__dict__["hat"])
        # the constructor still refuses non-finite values
        vals = phi.values.copy()
        vals[3, 5] = np.nan
        with pytest.raises(ValueError):
            Field(g, vals)

    def test_divergence_stops_early(self):
        # a large seeded patch at tau = 2: the iterates overflow, and the
        # solve must stop at the first non-finite residual
        from pfc.experiments import patched_initial
        g = Grid2D(64, 64.0)
        p = PfcParams(0.25, g)
        phi = patched_initial(g, patches=[((32.0, 32.0), 10.0, 0.9)])
        with pytest.raises(SolverError) as exc:
            bdf2_step(StepperState(phi), 2.0, p)
        stats = exc.value.stats
        assert not np.isfinite(stats.final_residual)
        assert stats.iterations < MAX_ITER


class TestCN:
    def test_steady_constant(self, setup):
        g, p = setup
        phi, _ = cn_step(StepperState(constant_field(g, -0.2)), 0.1, p)
        assert np.max(np.abs(phi.values + 0.2)) < 1e-12

    def test_mass_conserved(self, setup, rng):
        g, p = setup
        prev = random_field(g, rng)
        phi, _ = cn_step(StepperState(prev), 0.05, p)
        assert abs(mean(phi) - mean(prev)) < 1e-13

    def test_defining_equation(self, setup, rng):
        g, p = setup
        prev = random_field(g, rng)
        tau = 0.05
        phi, _ = cn_step(StepperState(prev), tau, p)
        mid = 0.5 * (phi.values + prev.values)
        cubic = 0.5 * (phi.values**2 + prev.values**2) * mid
        lhs = (phi.values - prev.values) / tau
        rhs_hat = -full_k2(g) * (full_lin_symbol(p) * np.fft.fft2(mid) + np.fft.fft2(cubic))
        res = np.max(np.abs(lhs - np.fft.ifft2(rhs_hat).real))
        assert res < 1e-8

    def test_linearized_amplification(self, setup):
        g, p = setup
        a = 1e-8
        vals = a * np.sin(2 * g.nu * coords(g)[1])
        tau = 0.2
        phi, _ = cn_step(StepperState(Field(g, vals)), tau, p)
        k2 = (2 * g.nu) ** 2
        lam = k2 * ((1 - k2) ** 2 - p.eps)
        factor = (1.0 - 0.5 * tau * lam) / (1.0 + 0.5 * tau * lam)
        assert np.max(np.abs(phi.values - factor * vals)) < 1e-7 * a


class TestCNCS:
    def test_starter_defining_equation(self, setup, rng):
        g, p = setup
        prev = random_field(g, rng)
        tau = 0.05
        phi, _ = cs1_step(StepperState(prev), tau, p)
        lhs = (phi.values - prev.values) / tau
        k2 = full_k2(g)
        rhs_hat = (-k2 * ((k2**2 + 1 - p.eps) * np.fft.fft2(phi.values)
                          + np.fft.fft2(phi.values**3))
                   + 2.0 * k2**2 * np.fft.fft2(prev.values))
        res = np.max(np.abs(lhs - np.fft.ifft2(rhs_hat).real))
        assert res < 1e-8

    def test_two_level_defining_equation(self, setup, rng):
        g, p = setup
        state = StepperState(random_field(g, rng))
        tau = 0.05
        phi1, _ = cs1_step(state, tau, p)
        state = state.advanced(phi1, tau)
        phi2, _ = cncs_step(state, tau, p)
        mid = 0.5 * (phi2.values + phi1.values)
        cubic = 0.5 * (phi2.values**2 + phi1.values**2) * mid
        extrap = 0.5 * (3.0 * phi1.values - state.phi_prev2.values)
        lhs = (phi2.values - phi1.values) / tau
        k2 = full_k2(g)
        rhs_hat = (-k2 * ((k2**2 + 1 - p.eps) * np.fft.fft2(mid)
                          + np.fft.fft2(cubic))
                   + k2**2 * np.fft.fft2(extrap))
        res = np.max(np.abs(lhs - np.fft.ifft2(rhs_hat).real))
        assert res < 1e-8

    def test_literal_extrapolation_differs(self, setup, rng):
        # the shipped step is not the variant that drops the half factor
        # from (3 phi^{n-1} - phi^{n-2}) / 2
        g, p = setup
        state = StepperState(random_field(g, rng))
        tau = 0.05
        phi1, _ = cs1_step(state, tau, p)
        state = state.advanced(phi1, tau)
        a, _ = cncs_step(state, tau, p)
        b, _ = ref_cncs(phi1.values, state.phi_prev2.values, tau, p, literal=True)
        assert np.max(np.abs(a.values - b)) > 1e-10

    def test_requires_history(self, setup, rng):
        g, p = setup
        with pytest.raises(ValueError):
            cncs_step(StepperState(random_field(g, rng)), 0.05, p)

    def test_mass_conserved(self, setup, rng):
        g, p = setup
        phi0 = random_field(g, rng)
        state = run_fixed_mesh(phi0, [0.05] * 5, p, scheme="cncs")
        assert abs(mean(state.phi_prev) - mean(phi0)) < 1e-13


@pytest.mark.parametrize("M", [32, 128])
def test_midpoint_cube_matches_halved_factors(M, rng):
    """The in-place product is bit for bit 0.5 (phi^2 + prev^2) * 0.5 (phi + prev)."""
    phi = 0.3 + 0.5 * rng.standard_normal((M, M))
    prev = 0.3 + 0.5 * rng.standard_normal((M, M))
    phi_in, prev_in = phi.copy(), prev.copy()
    mid = 0.5 * (phi + prev)
    want = 0.5 * (phi * phi + prev * prev) * mid
    got = _midpoint_cube(prev)(phi)
    assert np.array_equal(got, want)
    assert np.array_equal(phi, phi_in) and np.array_equal(prev, prev_in)


class TestRunFixedMesh:
    def test_stats_per_step(self, setup, rng):
        g, p = setup
        stats = []
        state = run_fixed_mesh(random_field(g, rng), [0.02] * 7, p,
                               observer=lambda _, st: stats.append(st))
        assert len(stats) == 7
        assert all(s.final_residual <= FP_TOL for s in stats)
        assert state.t == pytest.approx(0.14)

    def test_unknown_scheme(self, setup, rng):
        g, p = setup
        with pytest.raises(ValueError):
            run_fixed_mesh(random_field(g, rng), [0.02], p, scheme="rk4")

    def test_unknown_scheme_with_empty_mesh(self, setup, rng):
        g, p = setup
        with pytest.raises(ValueError):
            run_fixed_mesh(random_field(g, rng), [], p, scheme="rk4")

    @pytest.mark.parametrize("scheme", ["cn", "cncs"])
    def test_forcing_refused_without_bdf2(self, setup, rng, scheme):
        g, p = setup
        calls = []
        with pytest.raises(ValueError):
            run_fixed_mesh(random_field(g, rng), [0.02] * 3, p, scheme=scheme,
                           forcing_fn=lambda t: calls.append(t))
        assert calls == []

    def test_observer_sees_each_step(self, setup, rng):
        g, p = setup
        seen = []
        steps = [0.02, 0.01, 0.03]
        state = run_fixed_mesh(random_field(g, rng), steps, p, scheme="cncs",
                               observer=lambda s, st: seen.append((s, st)))
        assert [s.tau_prev for s, _ in seen] == steps
        assert all(st.final_residual <= FP_TOL for _, st in seen)
        assert seen[-1][0] is state

    @pytest.mark.parametrize("scheme", ["cn", "cncs"])
    def test_no_spectra_kept_without_bdf2(self, setup, rng, scheme):
        # only the BDF2 start reads a kept nonlinearity spectrum, so CN, CS1
        # and CNCS levels carry none and the state keeps none of them
        g, p = setup
        levels = []
        state = run_fixed_mesh(random_field(g, rng), [0.02] * 10, p, scheme=scheme,
                               observer=lambda s, _: levels.append(s))
        assert state.nl_hats == () and state.nl_steps == ()
        assert all(s.phi_prev.nl_hat is None for s in levels)

    def test_schemes_agree_for_small_tau(self, setup, rng):
        # all three schemes are consistent, so their trajectories collapse
        # as the step shrinks; use smooth data so the stiff modes carry no
        # content and the comparison reflects the resolved dynamics
        g, p = setup
        X, Y = coords(g)
        phi0 = Field(g, 0.1 + 0.05 * np.sin(g.nu * X) * np.cos(g.nu * Y))
        steps = [1e-4] * 10
        finals = {}
        for scheme in ("bdf2", "cn", "cncs"):
            state = run_fixed_mesh(phi0, steps, p, scheme=scheme)
            finals[scheme] = state.phi_prev.values
        assert np.max(np.abs(finals["bdf2"] - finals["cn"])) < 1e-8
        # the CNCS starter is first order, so its gap is O(tau)
        assert np.max(np.abs(finals["bdf2"] - finals["cncs"])) < 2e-4

    def test_energy_decay_generic(self, setup, rng):
        g, p = setup
        phi0 = random_field(g, rng)
        state = run_fixed_mesh(phi0, [0.01] * 30, p)
        assert energy(state.phi_prev, p) < energy(phi0, p)

    def test_manufactured_accuracy(self):
        from pfc.model import exact_solution
        g = Grid2D(32, 8.0)
        p = PfcParams(0.02, g)
        tau = 1e-3
        steps = [tau] * 50

        def forcing(t):
            return manufactured_forcing(t, g, p)

        state = run_fixed_mesh(exact_solution(0.0, g), steps, p, forcing_fn=forcing)
        err = np.max(np.abs(state.phi_prev.values
                            - exact_solution(state.t, g).values))
        assert err < 1e-5
