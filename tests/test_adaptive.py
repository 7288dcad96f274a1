import math

import numpy as np
import pytest

from conftest import (adaptive_states, constant_field, coords, count_transforms, mean,
                      period_two_map)
import pfc.adaptive as adaptive
import pfc.steppers as steppers
from pfc.adaptive import adaptive_advance, adaptive_run, tau_ada
from pfc.experiments import patched_initial
from pfc.grid import Field, Grid2D
from pfc.mesh import R_SUP
from pfc.model import PfcParams
from pfc.steppers import (FP_TOL, NL_LEVELS, ConditioningError, SolverError, StepperState,
                          bdf2_step, run_fixed_mesh)


@pytest.fixture
def setup():
    g = Grid2D(32, 8.0)
    return g, PfcParams(0.2, g)


def smooth_field(g, amp=0.05):
    X, Y = coords(g)
    return Field(g, 0.1 + amp * np.sin(g.nu * X) * np.cos(g.nu * Y))


def accepted_taus(phi0, T, p):
    """The accepted steps of an adaptive run, in order, as its observer sees them."""
    taus = []
    adaptive_run(phi0, T, p, observer=lambda s, _: taus.append(s.tau_prev))
    return taus


class TestConfig:
    def test_defaults(self):
        """The paper's settings, and the relations the controller relies on:
        a step range, a damping factor, a positive tolerance and a ratio cap
        inside S1."""
        assert adaptive.RHO == 0.9
        assert adaptive.TOL == 1e-3
        assert adaptive.TAU_MAX == 0.5
        assert adaptive.TAU_MIN == 1e-4
        assert adaptive.RATIO_CAP == 3.561
        assert 0 < adaptive.TAU_MIN < adaptive.TAU_MAX
        assert 0 < adaptive.RHO <= 1
        assert adaptive.TOL > 0
        assert 0 < adaptive.RATIO_CAP <= R_SUP

    def test_settings_read_at_call_time(self, monkeypatch):
        """The functions read the constants when called, so a patch reaches them."""
        monkeypatch.setattr(adaptive, "RATIO_CAP", 2.0)
        assert tau_ada(0.0, 0.1) == 0.2
        monkeypatch.setattr(adaptive, "RHO", 0.5)
        monkeypatch.setattr(adaptive, "TOL", 0.25)
        assert tau_ada(0.0625, 0.1) == 0.1   # factor 0.5 * sqrt(4), below the cap


@pytest.fixture
def no_solve(monkeypatch):
    """Fail the test if any nonlinear solve starts."""
    def solve(*args, **kwargs):
        raise AssertionError("a solve was started")

    monkeypatch.setattr(steppers, "fixed_point_solve", solve)


@pytest.mark.parametrize("T", [math.nan, 0.0, -1.0, math.inf])
def test_run_refuses_bad_end_time(T, setup, no_solve):
    """T must be positive and finite: NaN, 0 and -1 used to return phi0 with
    no step and no error, and inf would step forever."""
    g, p = setup
    with pytest.raises(ValueError, match="positive and finite"):
        adaptive_run(smooth_field(g), T, p)


def test_run_refuses_field_on_another_grid(setup, no_solve):
    """A field on L = 8 with parameters on L = 16 used to run, taking k^2 from
    one grid and the linear symbol from the other; the first step refuses it,
    with both grids named, before any solve."""
    g, _ = setup
    with pytest.raises(ValueError, match=r"M=32, L=8\.0.*M=32, L=16\.0"):
        adaptive_run(smooth_field(g), 0.1, PfcParams(0.2, Grid2D(32, 16.0)))


@pytest.mark.parametrize("e,tau", [(1e-3, math.nan), (math.nan, 0.1), (-1e-3, 0.1)])
def test_tau_ada_refuses_nan_and_negative(e, tau, no_solve):
    with pytest.raises(ValueError):
        tau_ada(e, tau)


class TestUpdateFactor:
    def test_cap_for_tiny_error(self):
        assert tau_ada(1e-30, 0.1) == pytest.approx(adaptive.RATIO_CAP * 0.1)
        assert tau_ada(0.0, 0.1) == pytest.approx(adaptive.RATIO_CAP * 0.1)

    def test_shrink_for_large_error(self):
        # e = 100 tol: factor rho / 10
        assert tau_ada(100 * adaptive.TOL, 0.2) == pytest.approx(0.2 * adaptive.RHO / 10)

    def test_neutral_point(self):
        # e = rho^2 tol leaves the step unchanged
        assert tau_ada(adaptive.RHO**2 * adaptive.TOL, 0.3) == pytest.approx(0.3)

    def test_monotone_in_error(self):
        es = np.logspace(-8, 0, 50)
        taus = [tau_ada(e, 0.1) for e in es]
        assert np.all(np.diff(taus) <= 0)

    def test_bad_tau(self):
        with pytest.raises(ValueError):
            tau_ada(1e-3, 0.0)


class TestAdvance:
    def test_accepts_tiny_step(self, setup):
        g, p = setup
        state = StepperState(smooth_field(g))
        step = adaptive_advance(state, 1e-4, p)
        assert step.rejections == 0
        assert step.tau_accepted == 1e-4
        assert step.e_rel < 1e-3

    def test_rejects_huge_step(self, setup, monkeypatch):
        g, p = setup
        monkeypatch.setattr(adaptive, "TOL", 1e-8)
        state = StepperState(smooth_field(g))
        step = adaptive_advance(state, 0.4, p)
        assert step.rejections >= 1
        assert step.tau_accepted < 0.4

    def test_forced_accept_at_floor(self, setup, monkeypatch):
        g, p = setup
        # tolerance so small that even tau_min fails: the controller must
        # still return rather than loop
        monkeypatch.setattr(adaptive, "TOL", 1e-14)
        state = StepperState(smooth_field(g))
        step = adaptive_advance(state, 1e-4, p)
        assert step.tau_accepted == pytest.approx(1e-4)
        assert step.e_rel >= adaptive.TOL

    def test_failed_solve_shrinks_step(self, monkeypatch, one_patch):
        # at tau = 2 the fixed-point iteration on this patch diverges; the
        # controller must reject the trial step and retry with a smaller one
        g = Grid2D(64, 64.0)
        p = PfcParams(0.25, g)
        state = StepperState(patched_initial(g))
        with pytest.raises(SolverError):
            bdf2_step(state, 2.0, p)
        monkeypatch.setattr(adaptive, "TAU_MAX", 2.0)
        step = adaptive_advance(state, 2.0, p)
        assert step.tau_accepted < 2.0
        assert step.rejections >= 1
        assert step.stats.final_residual <= FP_TOL
        assert np.all(np.isfinite(step.phi.values))

    def test_unconverged_solve_shrinks_step(self, monkeypatch, one_patch):
        """A solve that runs out of iterations raises with MAX_ITER iterations and
        its last, finite increment; the controller then retries at FAIL_SHRINK
        times the step.  On this patch tau = 0.5 takes 32 iterations and 0.125
        takes 17."""
        g = Grid2D(64, 64.0)
        p = PfcParams(0.25, g)
        state = StepperState(patched_initial(g))
        monkeypatch.setattr(steppers, "MAX_ITER", 25)
        with pytest.raises(SolverError, match="failed to converge") as failure:
            bdf2_step(state, 0.5, p)
        assert failure.value.stats.iterations == 25
        assert FP_TOL < failure.value.stats.final_residual < math.inf
        trials = []
        step = adaptive.bdf2_step

        def recorded(st, tau, p):
            trials.append(tau)
            return step(st, tau, p)

        monkeypatch.setattr(adaptive, "bdf2_step", recorded)
        out = adaptive_advance(state, 0.5, p)
        assert trials[:2] == [0.5, adaptive.FAIL_SHRINK * 0.5]
        assert out.rejections == len(trials) - 1
        assert out.stats.iterations <= 25

    def test_stagnating_solve_shrinks_step(self, monkeypatch, one_patch):
        """The first trial's solve runs a map whose iterate flips with period 2;
        it stagnates, and the controller retries at FAIL_SHRINK times the step."""
        g = Grid2D(64, 64.0)
        p = PfcParams(0.25, g)
        state = StepperState(patched_initial(g))
        trials, failures = [], []
        solve, step = steppers.fixed_point_solve, adaptive.bdf2_step

        def stagnating_first(*args, **kwargs):
            if len(trials) > 1:
                return solve(*args, **kwargs)
            try:
                return solve(*period_two_map(g))
            except SolverError as exc:
                failures.append(exc.stats.iterations)
                raise

        def recorded(st, tau, p):
            trials.append(tau)
            return step(st, tau, p)

        monkeypatch.setattr(steppers, "fixed_point_solve", stagnating_first)
        monkeypatch.setattr(adaptive, "bdf2_step", recorded)
        out = adaptive_advance(state, 0.5, p)
        assert len(failures) == 1
        assert steppers.STALL_ITERS < failures[0] <= steppers.STALL_ITERS + 2
        assert trials[:2] == [0.5, adaptive.FAIL_SHRINK * 0.5]
        assert out.rejections == len(trials) - 1
        assert out.stats.final_residual <= FP_TOL

    def test_failed_solve_at_floor_raises(self, monkeypatch, one_patch):
        g = Grid2D(64, 64.0)
        p = PfcParams(0.25, g)
        state = StepperState(patched_initial(g))
        monkeypatch.setattr(adaptive, "TAU_MIN", 1.9)
        monkeypatch.setattr(adaptive, "TAU_MAX", 2.0)
        with pytest.raises(SolverError):
            adaptive_advance(state, 2.0, p)

    def test_ill_conditioned_trial_shrinks_step(self, monkeypatch):
        """At L = 2 pi and eps = 0.5 the smallest k^2 ((1 - k^2)^2 - eps) is -0.5, so
        a BDF1 trial at tau = 3 has a non-positive symbol; the controller
        retries at FAIL_SHRINK times the step, and at TAU_MIN it raises."""
        g = Grid2D(32, 2 * np.pi)
        p = PfcParams(0.5, g)
        state = StepperState(smooth_field(g))
        trials, refused = [], []
        step = adaptive.bdf2_step

        def recorded(st, tau, p):
            trials.append(tau)
            try:
                return step(st, tau, p)
            except ConditioningError:
                refused.append(tau)
                raise

        monkeypatch.setattr(adaptive, "bdf2_step", recorded)
        out = adaptive_advance(state, 3.0, p)
        assert refused == [3.0]
        assert trials[:2] == [3.0, adaptive.FAIL_SHRINK * 3.0]
        assert out.rejections == len(trials) - 1
        assert out.stats.final_residual <= FP_TOL
        monkeypatch.setattr(adaptive, "TAU_MIN", 3.0)
        with pytest.raises(ConditioningError):
            adaptive_advance(state, 3.0, p)
        assert refused == [3.0, 3.0]

    def test_trials_leave_three_levels_untouched(self, monkeypatch, one_patch):
        """Diverged and rejected trials from a state with every nonlinearity
        spectrum kept leave both fields, their values and spectra, and every
        kept spectrum and step bit for bit as they were."""
        g = Grid2D(64, 64.0)
        p = PfcParams(0.25, g)
        phi0 = patched_initial(g)
        state = run_fixed_mesh(phi0, [1e-3] * (NL_LEVELS + 1), p)
        assert len(state.nl_hats) == NL_LEVELS
        levels = [state.phi_prev, state.phi_prev2]
        before = [(f.values.copy(), f.hat.copy()) for f in levels]
        nl_hats, nl_steps = state.nl_hats, state.nl_steps
        nl_before = [h.copy() for h in nl_hats]
        outcomes = []
        step = adaptive.bdf2_step

        def recorded(st, tau, p):
            try:
                res = step(st, tau, p)
            except SolverError:
                outcomes.append("diverged")
                raise
            outcomes.append("solved")
            return res

        monkeypatch.setattr(adaptive, "bdf2_step", recorded)
        monkeypatch.setattr(adaptive, "TAU_MAX", 2.0)
        out = adaptive_advance(state, 2.0, p)
        # trials at 2, 0.5, 0.125 and 1/32 diverge; solved trials are
        # rejected on their increment until tau_min forces acceptance
        assert "diverged" in outcomes
        assert outcomes.count("solved") >= 2
        assert out.rejections == len(outcomes) - 1
        assert all(a is b for a, b in zip((state.phi_prev, state.phi_prev2), levels))
        for f, (vals, hat) in zip(levels, before):
            assert np.array_equal(f.values, vals)
            assert np.array_equal(f.hat, hat)
        assert state.nl_hats is nl_hats and state.nl_steps == nl_steps
        assert all(np.array_equal(h, b) for h, b in zip(nl_hats, nl_before))

    def test_next_step_within_bounds(self, setup):
        g, p = setup
        state = StepperState(smooth_field(g, amp=1e-6))
        step = adaptive_advance(state, 0.4, p)
        assert adaptive.TAU_MIN <= step.tau_next <= adaptive.TAU_MAX


class TestRun:
    def test_reaches_final_time(self, setup):
        g, p = setup
        seen = []
        state = adaptive_run(smooth_field(g), 0.5, p, observer=lambda s, _: seen.append(s))
        assert state.t == pytest.approx(0.5, rel=1e-10)
        assert seen[-1] is state
        assert math.fsum(s.tau_prev for s in seen) == pytest.approx(0.5, rel=1e-10)

    def test_ratio_cap_respected(self, setup):
        g, p = setup
        taus = np.asarray(accepted_taus(smooth_field(g), 1.0, p))
        ratios = taus[1:] / taus[:-1]
        assert np.all(ratios <= 3.561 * (1 + 1e-10))
        assert np.all(taus >= 1e-4 * (1 - 1e-12))
        assert np.all(taus <= 0.5 * (1 + 1e-12))

    def test_fewer_steps_than_uniform_floor(self, setup):
        g, p = setup
        taus = accepted_taus(smooth_field(g), 1.0, p)
        assert len(taus) < 1.0 / 1e-4

    def test_mass_conserved(self, setup):
        g, p = setup
        phi0 = smooth_field(g)
        state = adaptive_run(phi0, 0.5, p)
        assert abs(mean(state.phi_prev) - mean(phi0)) < 1e-13

    def test_constant_state_grows_to_tau_max(self, setup):
        g, p = setup
        taus = accepted_taus(constant_field(g, 0.1), 5.0, p)
        # zero increments let the step grow geometrically to the ceiling
        assert max(taus) == pytest.approx(0.5)

    def test_observer_called_per_step(self, setup):
        g, p = setup
        seen = []
        adaptive_run(smooth_field(g), 0.2, p, observer=lambda s, step: seen.append(s.t))
        assert len(seen) > 0
        assert seen == sorted(seen)

    def test_states_helper_matches_run(self, setup):
        """``adaptive_states``, which other tests start from a chosen trial
        step, is ``adaptive_run``'s loop: from TAU_MIN it takes the same steps."""
        g, p = setup
        phi0 = smooth_field(g)
        taus = [s.tau_prev for s in adaptive_states(phi0, 0.3, p, adaptive.TAU_MIN)]
        assert taus == accepted_taus(phi0, 0.3, p)

    def test_transform_budget_with_rejections(self, monkeypatch, one_patch):
        """Every trial solve, rejected or not, costs one transform pair per
        iteration, less the forward transform a spectrum-started first
        iteration skips; phi0's spectrum is the run's only other transform.
        A trial leaves the state's spectra bit for bit as they were, so a
        retry reads the same history."""
        g = Grid2D(64, 64.0)
        p = PfcParams(0.25, g)
        phi0 = patched_initial(g)
        transforms = count_transforms(monkeypatch)
        solve_iters, started, trials = [], [], []
        solve, step = steppers.fixed_point_solve, adaptive.bdf2_step

        def counted_solve(mult, base_hat, guess, grid, nonlinear, nl_start=None):
            started.append(nl_start is not None)
            try:
                res = solve(mult, base_hat, guess, grid, nonlinear, nl_start)
            except SolverError as exc:
                solve_iters.append(exc.stats.iterations)
                raise
            solve_iters.append(res[1].iterations)
            return res

        def checked_step(state, tau, p):
            kept = [f.hat for f in (state.phi_prev, state.phi_prev2) if f is not None]
            kept += state.nl_hats
            before = [h.copy() for h in kept]
            try:
                return step(state, tau, p)
            finally:
                trials.append(all(np.array_equal(h, b) for h, b in zip(kept, before)))

        monkeypatch.setattr(steppers, "fixed_point_solve", counted_solve)
        monkeypatch.setattr(adaptive, "bdf2_step", checked_step)
        monkeypatch.setattr(adaptive, "TAU_MAX", 2.0)
        # the first trial at tau = 2 diverges; the retries shrink to tau_min
        steps = sum(1 for _ in adaptive_states(phi0, 2.0, p, 2.0))
        assert len(trials) > steps
        assert all(trials)
        assert sum(started) > steps // 2
        assert len(transforms) == 1 + 2 * sum(solve_iters) - sum(started)
