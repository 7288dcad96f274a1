import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from conftest import (adaptive_states, constant_field, coords, full_k2, full_lin_symbol,
                      manufactured_forcing, lin_symbol_half, mean, modified_energy,
                      period_two_map, ref_cncs)
import pfc.steppers as steppers
from pfc.experiments import random_initial
from pfc.grid import Field, Grid2D
from pfc.model import PfcParams, energy, manufactured_forcing_hat
from pfc.steppers import (FP_TOL, MAX_ITER, NL_LEVELS, ConditioningError, SolverError,
                          StepperState, _midpoint_cube, bdf2_step, cn_step, cncs_step,
                          run_fixed_mesh)


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
        phi, _ = bdf2_step(StepperState(prev), tau, p, forcing_hat=f.hat)
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

    def test_divergence_stops_early(self, one_patch):
        # a large seeded patch at tau = 2: the iterates overflow, and the
        # solve must stop at the first non-finite residual
        from pfc.experiments import patched_initial
        g = Grid2D(64, 64.0)
        p = PfcParams(0.25, g)
        phi = patched_initial(g)
        with pytest.raises(SolverError) as exc:
            bdf2_step(StepperState(phi), 2.0, p)
        stats = exc.value.stats
        assert not np.isfinite(stats.final_residual)
        assert stats.iterations < MAX_ITER


class SolveReached(Exception):
    """Raised by ``stub_solve``: the step got past its conditioning check."""


def stub_solve(monkeypatch) -> list:
    """Replace the solver by one that records copies of (mult, base_hat) and
    raises ``SolveReached``."""
    calls = []

    def solve(mult, base_hat, guess, grid, nonlinear, nl_start=None):
        calls.append((mult.copy(), base_hat.copy()))
        raise SolveReached

    monkeypatch.setattr(steppers, "fixed_point_solve", solve)
    return calls


@pytest.mark.parametrize("L,eps", [(2 * np.pi, 0.5), (20.0, 0.25)])
@pytest.mark.parametrize("scheme", ["bdf1", "bdf2", "cn"])
def test_conditioning_check_matches_full_symbol(scheme, L, eps, monkeypatch):
    """The check made where the multipliers are formed raises for exactly the
    steps whose full symbol has a non-positive entry, with the
    message that names that symbol's minimum and its mode.  The steps tried
    are the two adjacent doubles that straddle the threshold, their outer
    neighbours and steps a factor of two either side."""
    g = Grid2D(16, L)
    p = PfcParams(eps, g)
    phi = constant_field(g, 0.1)
    tau_prev = 0.3
    k2_lin = g.k2_half * lin_symbol_half(p)

    def symbol(tau):
        if scheme == "bdf1":
            return 1.0 / tau + k2_lin
        if scheme == "cn":
            return 1.0 / tau + 0.5 * g.k2_half * lin_symbol_half(p)
        r = tau / tau_prev
        return (1.0 + 2.0 * r) / (tau * (1.0 + r)) + k2_lin

    def step(tau):
        if scheme == "cn":
            return cn_step(StepperState(phi), tau, p)
        state = StepperState(phi) if scheme == "bdf1" else StepperState(phi, phi, tau_prev)
        return bdf2_step(state, tau, p)

    def ill(tau):
        return np.min(symbol(tau)) <= 0.0

    lo, hi = 1e-6, 1e6
    assert not ill(lo) and ill(hi)
    while np.nextafter(lo, hi) < hi:
        mid = lo + 0.5 * (hi - lo)
        if mid in (lo, hi):
            break
        if ill(mid):
            hi = mid
        else:
            lo = mid
    stub_solve(monkeypatch)
    taus = [0.5 * lo, np.nextafter(lo, 0.0), lo, hi, np.nextafter(hi, np.inf), 2.0 * hi]
    for tau in map(float, taus):
        if not ill(tau):
            with pytest.raises(SolveReached):
                step(tau)
            continue
        s = symbol(tau)
        idx = np.unravel_index(np.argmin(s), s.shape)
        with pytest.raises(ConditioningError) as exc:
            step(tau)
        assert str(exc.value) == (f"non-positive linear symbol {s[idx]:.3e} at mode {idx}; "
                                  f"reduce the step size (tau={tau:.3e})")


@pytest.mark.parametrize("ratio", [0.1, 1.0, 3.5, 100.0])
@pytest.mark.parametrize("forced", [False, True])
def test_bdf2_multipliers_match_rhs_over_symbol(ratio, forced, setup, rng, monkeypatch):
    """The solver's multipliers, formed from one reciprocal of the symbol S,
    agree with -k^2/S and rhs/S for rhs = b0 phi^{n-1} - b1 (phi^{n-1} -
    phi^{n-2}) + f to 1e-13 of their largest entry; a sign slip in b0 - b1
    shows at order one."""
    g, p = setup
    prev2 = random_field(g, rng)
    prev = Field(g, prev2.values + 0.01 * rng.uniform(-1, 1, size=(g.M, g.M)))
    tau = 0.05
    f_hat = manufactured_forcing(tau, g, p).hat if forced else None
    calls = stub_solve(monkeypatch)
    with pytest.raises(SolveReached):
        bdf2_step(StepperState(prev, prev2, tau / ratio), tau, p, f_hat)
    r = tau / (tau / ratio)
    b0 = (1 + 2 * r) / (tau * (1 + r))
    b1 = -(r * r) / (tau * (1 + r))
    symbol = b0 + g.k2_half * lin_symbol_half(p)
    rhs = b0 * prev.hat - b1 * (prev.hat - prev2.hat)
    if forced:
        rhs = rhs + f_hat
    for got, want in zip(calls[0], (-g.k2_half / symbol, rhs / symbol)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


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
        phi, _ = cncs_step(StepperState(prev), tau, p)
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
        phi1, _ = cncs_step(state, tau, p)
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
        phi1, _ = cncs_step(state, tau, p)
        state = state.advanced(phi1, tau)
        a, _ = cncs_step(state, tau, p)
        b, _ = ref_cncs(phi1.values, state.phi_prev2.values, tau, p, literal=True)
        assert np.max(np.abs(a.values - b)) > 1e-10

    @pytest.mark.xfail(strict=True, reason="Known defect 2: the explicit concave term "
                       "is k^4/2 (3 phi^{n-1} - phi^{n-2}), half the 2k^4 of the PFC symbol, "
                       "so CNCS converges to another equation")
    def test_converges_to_bdf2_at_second_order(self):
        """Both schemes are second order, so max|CNCS - BDF2| at T = 0.2 falls by
        about 4 each time tau halves.  As shipped it stays near 4.2e-3; with
        the full coefficient it falls 1.2e-5, 3.1e-6, 7.8e-7."""
        g = Grid2D(32, 32.0)
        p = PfcParams(0.2, g)
        phi0 = random_initial(0.1, 0.02, g, 2023)
        gaps = []
        for tau in (0.01, 0.005, 0.0025):
            cncs, bdf2 = (run_fixed_mesh(phi0, [tau] * round(0.2 / tau), p, scheme=s).phi_prev
                          for s in ("cncs", "bdf2"))
            gaps.append(np.max(np.abs(cncs.values - bdf2.values)))
        assert gaps[0] / gaps[1] >= 3 and gaps[1] / gaps[2] >= 3

    def test_mass_conserved(self, setup, rng):
        g, p = setup
        phi0 = random_field(g, rng)
        state = run_fixed_mesh(phi0, [0.05] * 5, p, scheme="cncs")
        assert abs(mean(state.phi_prev) - mean(phi0)) < 1e-13


@pytest.mark.parametrize("M", [32, 128])
def test_midpoint_cube_matches_halved_factors(M, rng):
    """The product written into ``out`` is bit for bit 0.5 (phi^2 + prev^2) * 0.5 (phi + prev)."""
    phi = 0.3 + 0.5 * rng.standard_normal((M, M))
    prev = 0.3 + 0.5 * rng.standard_normal((M, M))
    phi_in, prev_in = phi.copy(), prev.copy()
    mid = 0.5 * (phi + prev)
    want = 0.5 * (phi * phi + prev * prev) * mid
    out = np.empty_like(phi)
    got = _midpoint_cube(prev)(phi, out)
    assert got is out and np.array_equal(got, want)
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

    def test_field_on_another_grid_refused(self, setup, rng, monkeypatch):
        """A field on L = 8 with parameters on L = 16 used to run, taking k^2
        from one grid and the linear symbol from the other; it is refused,
        with both grids named, before the first step."""
        g, _ = setup
        monkeypatch.setattr(steppers, "bdf2_step", None)   # no step may run
        with pytest.raises(ValueError, match=r"M=32, L=8\.0.*M=32, L=16\.0"):
            run_fixed_mesh(random_field(g, rng), [0.01] * 5, PfcParams(0.2, Grid2D(32, 16.0)))

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

    @pytest.mark.parametrize("scheme", ["bdf2", "cn", "cncs"])
    def test_spectra_kept_for_every_scheme(self, setup, rng, scheme):
        # every solve leaves its last nonlinearity spectrum on its field, and
        # the state keeps those of the newest NL_LEVELS levels, newest first
        g, p = setup
        levels = []
        run_fixed_mesh(random_field(g, rng), [0.02] * 10, p, scheme=scheme,
                       observer=lambda s, _: levels.append(s))
        for k, s in enumerate(levels, 1):
            assert len(s.nl_hats) == min(k, NL_LEVELS)
            assert len(s.nl_steps) == len(s.nl_hats) - 1
            assert s.nl_hats[0] is s.phi_prev.nl_hat
        assert levels[-1].nl_hats[1] is levels[-2].phi_prev.nl_hat

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

        state = run_fixed_mesh(exact_solution(0.0, g), steps, p,
                               forcing_fn=manufactured_forcing_hat(g, p))
        err = np.max(np.abs(state.phi_prev.values
                            - exact_solution(state.t, g).values))
        assert err < 1e-5


def cs1_step(state, tau, p):
    """CNCS's first-order start: ``cncs_step`` from the newest level of ``state`` alone.

    The one-level state shares ``state.held``, so the step's multipliers are
    held where a step on ``state`` itself would hold them.
    """
    return cncs_step(StepperState(state.phi_prev, held=state.held), tau, p)


@pytest.mark.parametrize("bad", [math.nan, 0.0, -0.05, math.inf])
@pytest.mark.parametrize("step", [bdf2_step, cn_step, cs1_step, cncs_step])
def test_nan_and_non_positive_steps_refused(step, bad, setup, rng, monkeypatch):
    """A NaN or infinite step is refused before any solve, with the message
    of a non-positive one, rather than reaching the solver as a divergence,
    a division by zero or a conditioning error."""
    g, p = setup
    prev2 = random_field(g, rng)
    state = StepperState(random_field(g, rng), prev2, 0.05)
    calls = stub_solve(monkeypatch)
    with pytest.raises(ValueError, match="must be positive"):
        step(state, bad, p)
    assert calls == []


STEPS = {"bdf2": bdf2_step, "cn": cn_step, "cs1": cs1_step, "cncs": cncs_step}


def assert_same_solve(got, want):
    """Two solves' fields, spectra and stats agree bit for bit."""
    (phi, stats), (phi_w, stats_w) = got, want
    assert np.array_equal(phi.values, phi_w.values)
    assert np.array_equal(phi.hat, phi_w.hat)
    assert np.array_equal(phi.nl_hat, phi_w.nl_hat)
    assert stats == stats_w


def count_misses(monkeypatch) -> list:
    """Record the key of every step that forms its multipliers afresh."""
    keys = []
    store = steppers._store_multipliers

    def spy(held, key, *args):
        keys.append(key)
        return store(held, key, *args)

    monkeypatch.setattr(steppers, "_store_multipliers", spy)
    return keys


def fresh(state):
    """``state``'s history with a new, empty held solve."""
    return dataclasses.replace(state, held=steppers.HeldSolve())


class TestHeldMultipliers:
    """A trajectory's steps reuse the multipliers its state holds while the
    key of the newest solve recurs; each must give the bits of the same step
    from a fresh state on fresh params."""

    def test_steps_match_fresh_params(self, setup, rng, monkeypatch):
        g, p = setup
        a, b = 0.05, 0.03
        f_hat = manufactured_forcing_hat(g, p)(0.4)
        # BDF2 at a, a, a, b, a, a, a; CN at a right after BDF2 at a; then an
        # unforced and a forced BDF2 step of the same size
        plan = [(bdf2_step, tau, None) for tau in (a, a, a, b, a, a, a)]
        plan += [(cn_step, a, None), (bdf2_step, a, None), (bdf2_step, a, f_hat)]
        misses = count_misses(monkeypatch)
        state = StepperState(random_field(g, rng))
        hits = []
        for step, tau, forcing in plan:
            args = () if forcing is None else (forcing,)
            want = step(fresh(state), tau, PfcParams(p.eps, g), *args)
            n = len(misses)
            got = step(state, tau, p, *args)
            hits.append(len(misses) == n)
            assert_same_solve(got, want)
            state = state.advanced(got[0], tau)
        # hits: BDF2 at ratio 1 after a ratio-1 step of the same size
        assert hits == [False, False, True, False, False, False, True,
                        False, False, False]

    @pytest.mark.parametrize("scheme", ["cn", "cs1", "cncs"])
    def test_one_step_schemes_match_fresh_params(self, scheme, setup, rng, monkeypatch):
        g, p = setup
        step = STEPS[scheme]
        state = StepperState(random_field(g, rng), random_field(g, rng), 0.05)
        taus = (0.05, 0.05, 0.02, 0.05)
        wants = [step(fresh(state), tau, PfcParams(p.eps, g)) for tau in taus]
        misses = count_misses(monkeypatch)
        for tau, want in zip(taus, wants):
            assert_same_solve(step(state, tau, p), want)
        assert len(misses) == 3

    def test_adaptive_run_with_rejection_matches_fresh_params(self, setup, rng, monkeypatch):
        import pfc.adaptive as adaptive
        g, p = setup
        phi0 = random_field(g, rng)

        def accepted(step):
            # a first trial of 0.5 is rejected; a run from TAU_MIN rejects none here
            monkeypatch.setattr(adaptive, "bdf2_step", step)
            return [s.phi_prev for s in adaptive_states(phi0, 0.5, p, 0.5)]

        trials = []

        def counted(state, tau, params):
            trials.append(tau)
            return bdf2_step(state, tau, params)

        got = accepted(counted)
        want = accepted(lambda s, tau, params: bdf2_step(fresh(s), tau, PfcParams(params.eps, g)))
        assert len(trials) > len(got)   # at least one trial was rejected
        assert len(got) == len(want)
        for phi, phi_w in zip(got, want):
            assert np.array_equal(phi.values, phi_w.values)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda p: pickle.loads(pickle.dumps(p))])
    def test_copies_hold_nothing(self, clone, setup, rng):
        """Steps leave PfcParams with the attributes it was built with, so a
        copy of it made after steps holds no solver state either."""
        g, p = setup
        built = set(vars(p))
        state = StepperState(random_field(g, rng), random_field(g, rng), 0.05)
        for step in STEPS.values():
            step(state, 0.05, p)
        twin = clone(p)
        assert set(vars(p)) == set(vars(twin)) == built
        assert_same_solve(bdf2_step(fresh(state), 0.05, twin),
                          bdf2_step(fresh(state), 0.05, p))

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda s: pickle.loads(pickle.dumps(s))])
    def test_state_copies(self, clone, setup, rng):
        """A shallow copy of a state shares its held solve, key and arrays
        together; a deep copy or pickle starts with nothing held.  Either
        way, a miss on the copy leaves the original's steps bit for bit."""
        g, p = setup
        state = StepperState(random_field(g, rng), random_field(g, rng), 0.05)
        first = bdf2_step(state, 0.05, p)
        twin = clone(state)
        if clone is copy.copy:
            assert twin.held is state.held
        else:
            assert twin.held.key is None and twin.held.mult is None
            assert twin.held.coefs == ()
        assert_same_solve(bdf2_step(twin, 0.02, p), bdf2_step(fresh(state), 0.02, p))
        assert_same_solve(bdf2_step(state, 0.05, p), first)

    def test_trajectories_share_params(self, setup, rng, monkeypatch):
        """Two trajectories stepping alternately on one PfcParams at different
        steps each hit their own held key from their third step on, and each
        gives the bits it gives when it runs alone."""
        g, p = setup
        taus = (0.05, 0.03)
        phi0s = [random_field(g, rng) for _ in taus]

        def alone(phi0, tau):
            fields = []
            run_fixed_mesh(phi0, [tau] * 6, PfcParams(p.eps, g),
                           observer=lambda s, _: fields.append(s.phi_prev))
            return fields

        wants = [alone(phi0, tau) for phi0, tau in zip(phi0s, taus)]
        misses = count_misses(monkeypatch)
        states = [StepperState(phi0) for phi0 in phi0s]
        hits = [[], []]
        for k in range(6):
            for i, tau in enumerate(taus):
                n = len(misses)
                phi, _ = bdf2_step(states[i], tau, p)
                hits[i].append(len(misses) == n)
                assert np.array_equal(phi.values, wants[i][k].values)
                states[i] = states[i].advanced(phi, tau)
        assert hits == [[False, False, True, True, True, True]] * 2

    @pytest.mark.parametrize("scheme,refused_tau", [("bdf2", 3.0), ("cn", 10.0)])
    def test_refused_symbol_keeps_held_solve(self, scheme, refused_tau, rng, monkeypatch):
        """A step whose symbol is refused leaves the held solve as it was: the
        step at the good size after it is a hit, with the bits of that step
        from a fresh state.  At L = 2 pi and eps = 0.5 the smallest
        k^2 ((1 - k^2)^2 - eps) is -0.5."""
        g = Grid2D(32, 2 * np.pi)
        p = PfcParams(0.5, g)
        step = STEPS[scheme]
        state = StepperState(random_field(g, rng, amp=0.01))
        misses = count_misses(monkeypatch)
        first = step(state, 0.05, p)
        with pytest.raises(ConditioningError):
            step(state, refused_tau, p)
        n = len(misses)
        assert_same_solve(step(state, 0.05, p), first)
        assert len(misses) == n
        assert_same_solve(step(fresh(state), 0.05, p), first)

    @pytest.mark.parametrize("scheme", ["bdf2", "cn", "cs1", "cncs"])
    def test_held_arrays_are_read_only(self, scheme, setup, rng):
        g, p = setup
        state = StepperState(random_field(g, rng), random_field(g, rng), 0.05)
        step = STEPS[scheme]
        args = (manufactured_forcing_hat(g, p)(0.1),) if scheme == "bdf2" else ()
        step(state, 0.05, p, *args)
        held = (state.held.mult,) + state.held.coefs
        assert len(held) == {"bdf2": 4, "cn": 2, "cs1": 2, "cncs": 3}[scheme]
        for a in held:
            with pytest.raises(ValueError):
                a[0, 1] = 1.0
            with pytest.raises(ValueError):
                a *= 2.0


def spy_guesses(monkeypatch) -> list:
    """Record the ``guess`` array of every solve, with a copy taken before it."""
    guesses = []
    solve = steppers.fixed_point_solve

    def spy(mult, base_hat, guess, grid, nonlinear, nl_start=None):
        guesses.append((guess, guess.copy()))
        return solve(mult, base_hat, guess, grid, nonlinear, nl_start)

    monkeypatch.setattr(steppers, "fixed_point_solve", spy)
    return guesses


def snapshot(state):
    """Copies of every array of ``state`` a step reads."""
    fields = [state.phi_prev, state.phi_prev2]
    return ([f.values.copy() for f in fields] + [f.hat.copy() for f in fields]
            + [nl.copy() for nl in state.nl_hats])


def assert_unchanged(state, before, guesses):
    after = snapshot(state)
    assert len(after) == len(before)
    for now, then in zip(after, before):
        assert np.array_equal(now, then)
    assert guesses
    for guess, then in guesses:
        assert np.array_equal(guess, then)


class TestSolveInputs:
    """The solve writes none of the arrays it is handed but a start spectrum
    made for it: not the history fields, the kept spectra or ``guess``."""

    @pytest.mark.parametrize("scheme", ["bdf2", "cn", "cs1", "cncs"])
    def test_step_from_values(self, scheme, setup, rng, monkeypatch):
        g, p = setup
        state = StepperState(random_field(g, rng), random_field(g, rng), 0.05)
        step = STEPS[scheme]
        before = snapshot(state)
        guesses = spy_guesses(monkeypatch)
        _, stats = step(state, 0.05, p)
        assert stats.iterations >= 2   # the increment was taken in place at least once
        assert guesses[0][0] is state.phi_prev.values
        assert_unchanged(state, before, guesses)

    def test_steps_from_kept_spectra(self, setup, rng, monkeypatch):
        g, p = setup
        state = run_fixed_mesh(random_field(g, rng), [0.05] * (NL_LEVELS + 1), p)
        assert len(state.nl_hats) == NL_LEVELS
        before = snapshot(state)
        guesses = spy_guesses(monkeypatch)
        for tau in (0.05, 0.05, 0.02):   # a hit, then a miss
            bdf2_step(state, tau, p)
        assert_unchanged(state, before, guesses)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_increment_raises(self, bad, setup):
        """A non-finite entry in the first increment, where the previous
        iterate is ``guess`` and is not written, ends the solve; +inf in
        ``guess`` gives an increment whose only non-finite entry is -inf."""
        g, _ = setup
        guess = np.zeros((g.M, g.M))
        guess[3, 5] = bad
        kept = guess.copy()
        mult = np.zeros(g.k2_half.shape)
        base_hat = np.zeros(g.k2_half.shape, dtype=complex)
        with pytest.raises(SolverError) as exc:
            steppers.fixed_point_solve(mult, base_hat, guess, g,
                                       lambda phi, out: np.zeros_like(phi))
        assert exc.value.stats.iterations == 1
        assert not math.isfinite(exc.value.stats.final_residual)
        assert np.array_equal(guess, kept, equal_nan=True)

    def test_stagnating_increment_raises(self, setup):
        """An iterate that flips by +-1e-11 with period 2 ends the solve with
        ``SolverError`` within STALL_ITERS + 2 iterations, not at MAX_ITER."""
        g, _ = setup
        with pytest.raises(SolverError, match="stagnated") as exc:
            steppers.fixed_point_solve(*period_two_map(g))
        assert steppers.STALL_ITERS < exc.value.stats.iterations <= steppers.STALL_ITERS + 2
        assert exc.value.stats.final_residual == pytest.approx(2e-11, rel=1e-6)

    def test_non_finite_increment_in_place_raises(self, setup):
        """A NaN iterate after one the solve made itself, whose increment is
        taken in place, ends the solve too."""
        g, _ = setup
        mult = np.ones(g.k2_half.shape)
        base_hat = np.zeros(g.k2_half.shape, dtype=complex)
        nl_start = np.zeros(g.k2_half.shape, dtype=complex)
        with pytest.raises(SolverError) as exc:
            steppers.fixed_point_solve(mult, base_hat, np.zeros((g.M, g.M)), g,
                                       lambda phi, out: np.full_like(phi, math.nan), nl_start)
        assert exc.value.stats.iterations == 2
        assert math.isnan(exc.value.stats.final_residual)
