"""The half-spectrum layer in pfc.grid against full-plane complex transforms.

The references below and in conftest restate the steppers with numpy's
full complex ``fft2``/``ifft2``, the full-plane multipliers and ``phi**3``,
the layout the package used before it moved to real transforms.  One step
of each scheme must land on the same fixed point to roundoff and take the
same number of iterations; a BDF2 step that keeps nonlinearity spectra
starts the reference from their same extrapolation.
"""

import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import (chemical_potential, count_transforms, full_k2, full_lin_symbol, inner,
                      inv_laplacian, laplacian, lin_symbol_half, manufactured_forcing,
                      period_two_map, ref_cncs, ref_solve)
import pfc
import pfc.steppers as steppers
from pfc.adaptive import adaptive_run
from pfc.experiments import EnergyLog, random_initial, run_convergence
from pfc.grid import Field, Grid2D, backward, fold_conjugates, forward, sum_of_squares
from pfc.model import PfcParams, energy, manufactured_forcing_hat
from pfc.steppers import (NL_LEVELS, StepperState, bdf2_step, cn_step, cncs_step,
                          run_fixed_mesh)

FIELD_TOL = 1e-13
CASES = [(32, 8.0, 0.2, 0.05), (128, 64.0, 0.2, 0.1)]


def ref_bdf2(phi1, phi2, tau, tau_prev, p, forcing=None, nl_levels=None):
    """Full-plane BDF2 step started from phi1's values or, given ``nl_levels``
    = (level values, steps between them), both newest first, from the
    Lagrange extrapolation to t_n of the levels' fft2(phi**3)."""
    k2 = full_k2(p.grid)
    if phi2 is None:
        b0, b1 = 1.0 / tau, 0.0
    else:
        r = tau / tau_prev
        b0 = (1.0 + 2.0 * r) / (tau * (1.0 + r))
        b1 = -(r * r) / (tau * (1.0 + r))
    rhs = b0 * phi1
    if b1 != 0.0:
        rhs = rhs - b1 * (phi1 - phi2)
    if forcing is not None:
        rhs = rhs + forcing
    nl_start = None
    if nl_levels is not None:
        values, steps = nl_levels
        w = lagrange_weights(level_times(steps), tau)
        nl_start = -k2 * sum(wi * np.fft.fft2(v**3) for wi, v in zip(w, values))
    return ref_solve(b0 + k2 * full_lin_symbol(p), np.fft.fft2(rhs), phi1,
                     lambda phi: -k2 * np.fft.fft2(phi**3), nl_start)


def lagrange_weights(times, t):
    """Weights of the values at ``times`` in their interpolating polynomial at t."""
    return [math.prod((t - tj) / (ti - tj) for tj in times if tj != ti) for ti in times]


def level_times(steps):
    """Times of the levels relative to the newest, from the steps between them, newest first."""
    return [0.0] + list(-np.cumsum(steps))


def kept_spectra(values):
    """The nonlinearity spectra a state keeps for the given level values."""
    return tuple(forward(v**3) for v in values)


def ref_cn(prev, tau, p):
    k2 = full_k2(p.grid)
    lin = full_lin_symbol(p)
    prev_hat = np.fft.fft2(prev)
    rhs_hat = prev_hat / tau - 0.5 * k2 * lin * prev_hat

    def nl(phi):
        return -k2 * np.fft.fft2(0.5 * (phi**2 + prev**2) * 0.5 * (phi + prev))

    return ref_solve(1.0 / tau + 0.5 * k2 * lin, rhs_hat, prev, nl)


def ref_cs1(prev, tau, p):
    k2 = full_k2(p.grid)
    prev_hat = np.fft.fft2(prev)
    return ref_solve(1.0 / tau + k2 * (k2**2 + 1.0 - p.eps),
                     prev_hat / tau + 2.0 * k2**2 * prev_hat, prev,
                     lambda phi: -k2 * np.fft.fft2(phi**3))


def two_levels(M, L, eps, seed):
    g = Grid2D(M, L)
    p = PfcParams(eps, g)
    rng = np.random.default_rng(seed)
    phi2 = Field(g, 0.1 + 0.1 * rng.uniform(-1, 1, size=(M, M)))
    phi1 = Field(g, phi2.values + 0.01 * rng.uniform(-1, 1, size=(M, M)))
    return g, p, phi1, phi2


def three_levels(M, L, eps, seed):
    g, p, phi1, phi2 = two_levels(M, L, eps, seed)
    rng = np.random.default_rng(seed + 100)
    phi3 = Field(g, phi2.values + 0.01 * rng.uniform(-1, 1, size=(M, M)))
    return g, p, phi1, phi2, phi3


def assert_same_step(got, stats, want, want_iters):
    assert np.max(np.abs(got.values - want)) <= FIELD_TOL
    assert stats.iterations == want_iters


@pytest.mark.parametrize("M,L,eps,tau", CASES)
class TestStepsMatchFullPlane:
    def test_bdf1_start(self, M, L, eps, tau):
        g, p, phi1, _ = two_levels(M, L, eps, 1)
        got, stats = bdf2_step(StepperState(phi1), tau, p)
        assert_same_step(got, stats, *ref_bdf2(phi1.values, None, tau, None, p))

    def test_bdf2_with_history(self, M, L, eps, tau):
        g, p, phi1, phi2 = two_levels(M, L, eps, 2)
        tau_prev = 0.6 * tau
        state = StepperState(phi1, phi2, tau_prev)
        got, stats = bdf2_step(state, tau, p)
        assert_same_step(got, stats, *ref_bdf2(phi1.values, phi2.values, tau, tau_prev, p))

    def test_bdf2_three_levels(self, M, L, eps, tau):
        g, p, phi1, phi2, phi3 = three_levels(M, L, eps, 11)
        levels = [phi1.values, phi2.values, phi3.values]
        steps = (0.6 * tau, 1.7 * tau)
        state = StepperState(phi1, phi2, steps[0], nl_hats=kept_spectra(levels),
                             nl_steps=steps)
        got, stats = bdf2_step(state, tau, p)
        assert_same_step(got, stats, *ref_bdf2(phi1.values, phi2.values, tau, steps[0],
                                               p, nl_levels=(levels, steps)))

    def test_bdf2_forced(self, M, L, eps, tau):
        g, p, phi1, phi2 = two_levels(M, L, eps, 3)
        f = manufactured_forcing(tau, g, p)
        levels = [phi1.values, phi2.values]
        state = StepperState(phi1, phi2, tau, nl_hats=kept_spectra(levels), nl_steps=(tau,))
        got, stats = bdf2_step(state, tau, p, forcing_hat=f.hat)
        assert_same_step(got, stats, *ref_bdf2(phi1.values, phi2.values, tau, tau, p,
                                               f.values, nl_levels=(levels, (tau,))))

    def test_cn(self, M, L, eps, tau):
        g, p, phi1, _ = two_levels(M, L, eps, 4)
        got, stats = cn_step(StepperState(phi1), tau, p)
        assert_same_step(got, stats, *ref_cn(phi1.values, tau, p))

    def test_cs1(self, M, L, eps, tau):
        # CNCS from a single level takes the first-order convex-splitting step
        g, p, phi1, _ = two_levels(M, L, eps, 5)
        got, stats = cncs_step(StepperState(phi1), tau, p)
        assert_same_step(got, stats, *ref_cs1(phi1.values, tau, p))

    def test_cncs(self, M, L, eps, tau):
        g, p, phi1, phi2 = two_levels(M, L, eps, 6)
        got, stats = cncs_step(StepperState(phi1, phi2, tau), tau, p)
        assert_same_step(got, stats, *ref_cncs(phi1.values, phi2.values, tau, p))


class TestLayer:
    def test_half_multipliers_are_slices(self):
        g = Grid2D(16, 8.0)
        p = PfcParams(0.3, g)
        assert g.k2_half.shape == (16, 9)
        assert np.array_equal(g.k2_half, full_k2(g)[:, :9])
        assert np.array_equal(lin_symbol_half(p), full_lin_symbol(p)[:, :9])

    def test_memory_budget(self):
        """The 256^2 grid and parameters hold only half-plane multipliers and
        a 1-D axis: the set-up peaks at about 1.3 MB with the energy's
        interface weight and ``k2_lin``, where the full plane and the M x M
        coordinates took 5.9 MB."""
        Grid2D(8, 8.0)   # imports and first-call setup stay out of the count
        tracemalloc.start()
        try:
            g = Grid2D(256, 256.0)
            PfcParams(0.25, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5e6

    @staticmethod
    def step_peak(tau: float) -> tuple[int, int]:
        """Traced peak of a 256^2 BDF2 step of size ``tau`` started from five
        kept spectra, after a warm-up step of size 0.05, and a half spectrum's
        size in bytes."""
        g, p, phi1, phi2 = two_levels(256, 256.0, 0.25, 13)
        steps = (0.05, 0.04, 0.06, 0.05)
        nl_hats = kept_spectra([phi1.values, phi2.values] + [phi2.values * s for s in steps[1:]])
        state = StepperState(phi1, phi2, steps[0], nl_hats=nl_hats, nl_steps=steps)
        phi1.hat, phi2.hat   # cached before the count starts
        bdf2_step(state, 0.05, p)   # first-call set-up stays out of the count
        tracemalloc.start()
        try:
            bdf2_step(state, tau, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, g.k2_half.size * 16

    def test_step_memory_budget(self):
        """One 256^2 BDF2 step started from five kept spectra peaks at seven
        half spectra (3.7 MB) or less, its new field included: no temporary
        on the step path is larger than one half spectrum."""
        peak, half_spectrum = self.step_peak(0.05)
        assert peak <= 7 * half_spectrum

    def test_step_memory_budget_new_step_size(self):
        """A step of another size than the warm-up's forms its multipliers
        afresh, into the arrays held for the last size, within the same seven
        half spectra."""
        peak, half_spectrum = self.step_peak(0.06)
        assert peak <= 7 * half_spectrum

    @pytest.mark.parametrize("tau", [0.05, 0.06])
    def test_step_peak_two_solve_spectra(self, tau):
        """The solve holds two half spectra that trade roles, not three: a
        256^2 step, at the warm-up's size or another, peaks at five half
        spectra and a little more (6.006 when the inverse column pass ran in
        a third array)."""
        peak, half_spectrum = self.step_peak(tau)
        assert peak <= 5.1 * half_spectrum

    def test_forward_backward(self, rng):
        vals = rng.standard_normal((24, 24))
        coeffs = forward(vals)
        assert np.allclose(coeffs, np.fft.fft2(vals)[:, :13], rtol=0, atol=1e-12)
        assert np.max(np.abs(backward(coeffs, 24) - vals)) < 1e-14

    @pytest.mark.parametrize("M", [4, 32, 128, 256])
    def test_axis_passes_are_rfft2_bit_for_bit(self, M, rng):
        vals = rng.standard_normal((M, M))
        coeffs = forward(vals)
        assert np.array_equal(coeffs, np.fft.rfft2(vals))
        assert np.array_equal(backward(coeffs.copy(), M), np.fft.irfft2(coeffs, s=(M, M)))

    def test_operators_match_full_plane(self, rng):
        g = Grid2D(32, 8.0)
        f = Field(g, rng.standard_normal((32, 32)))
        fh = np.fft.fft2(f.values)
        full = lambda mult: np.fft.ifft2(mult * fh).real
        k2 = full_k2(g)
        assert np.max(np.abs(laplacian(f).values - full(-k2))) < 1e-12
        z = Field(g, f.values - np.mean(f.values))
        inv = np.zeros_like(k2)
        inv[k2 > 0] = 1.0 / k2[k2 > 0]
        want = np.fft.ifft2(inv * np.fft.fft2(z.values)).real
        assert np.max(np.abs(inv_laplacian(z).values - want)) < 1e-12

    def test_chemical_potential_matches_full_plane(self, rng):
        g = Grid2D(32, 8.0)
        p = PfcParams(0.2, g)
        f = Field(g, 0.3 * rng.standard_normal((32, 32)))
        want = np.fft.ifft2(full_lin_symbol(p) * np.fft.fft2(f.values)).real + f.values**3
        err = np.max(np.abs(chemical_potential(f, p).values - want))
        assert err <= 1e-14 * np.max(np.abs(want))

    def test_sum_of_squares_is_parseval(self, rng):
        for M in (4, 16, 30):
            vals = rng.standard_normal((M, M))
            ones = fold_conjugates(np.ones((M, M // 2 + 1)))
            assert sum_of_squares(forward(vals), M, ones) == pytest.approx(
                float(np.sum(vals * vals)), rel=1e-13)

    @pytest.mark.parametrize("M,L", [(4, 8.0), (32, 8.0), (128, 64.0)])
    def test_folded_sums_match_full_plane(self, M, L, rng):
        """The folded interface and H^-1 weights give the full-plane sums."""
        g = Grid2D(M, L)
        p = PfcParams(0.25, g)
        vals = rng.standard_normal((M, M))
        opl = np.fft.ifft2((1.0 - full_k2(g)) * np.fft.fft2(vals)).real
        assert sum_of_squares(forward(vals), M, p.interface_weight_folded) == pytest.approx(
            float(np.sum(opl * opl)), rel=1e-13)
        d = Field(g, vals - vals.mean())
        want = inner(inv_laplacian(d), d) / g.cell_area
        assert sum_of_squares(forward(d.values), M, g.inv_k2_folded) == pytest.approx(
            want, rel=1e-13)


@pytest.mark.parametrize("M,L", [(32, 8.0), (128, 64.0)])
def test_energy_against_physical_space(M, L, rng):
    g = Grid2D(M, L)
    p = PfcParams(0.25, g)
    f = Field(g, 0.285 + 0.3 * rng.standard_normal((M, M)))
    opl = np.fft.ifft2((1.0 - full_k2(g)) * np.fft.fft2(f.values)).real
    a = g.cell_area
    direct = (0.5 * a * np.sum(opl**2) + 0.25 * a * np.sum((f.values**2 - p.eps) ** 2)
              - 0.25 * p.eps**2 * g.volume)
    assert energy(f, p) == pytest.approx(direct, rel=1e-12)


_DIAGNOSTICS = """
import numpy as np
from pfc.grid import Field, Grid2D
from pfc.model import PfcParams, energy, step_distance_sq
g = Grid2D(256, 256.0)
p = PfcParams(0.25, g)
gen = np.random.default_rng(7)
a = 0.285 + 0.3 * gen.standard_normal((256, 256))
b = a + 1e-3 * gen.standard_normal((256, 256))
b += a.mean() - b.mean()
f, h = Field(g, a), Field(g, b)
print(energy(f, p).hex(), step_distance_sq(f, h, float(np.max(np.abs(a)))).hex())
"""


def test_diagnostics_independent_of_blas_threads():
    """Energy and H^-1 distance of a 256^2 field round the same whatever
    BLAS thread count the process starts with."""
    src = str(pathlib.Path(pfc.__file__).parent.parent)
    outs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", _DIAGNOSTICS], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        outs.add(run.stdout)
    assert len(outs) == 1, outs


def test_only_grid_transforms():
    """Only pfc.grid calls numpy.fft, and no module reads a full-plane
    multiplier or coordinate array: the half plane is the one layout."""
    src = pathlib.Path(pfc.__file__).parent
    pattern = re.compile(r"\b(np|numpy)\.fft\b|from numpy import fft|import numpy\.fft")
    offenders = [path.name for path in sorted(src.glob("*.py"))
                 if path.name != "grid.py" and pattern.search(path.read_text())]
    assert offenders == []
    full_plane = re.compile(r"\.(k2|ikx|iky|X|Y)\b|\blin_symbol\b")
    readers = [path.name for path in sorted(src.glob("*.py"))
               if full_plane.search(path.read_text())]
    assert readers == []


@pytest.mark.parametrize("M,L,eps,tau", CASES)
@pytest.mark.parametrize("ratio", [0.1, 1.0, 3.5, 100.0])
def test_predictor_lands_on_plain_guess_fixed_point(M, L, eps, tau, ratio):
    """The extrapolated start changes the iteration count, not the solution."""
    g, p, phi1, phi2 = two_levels(M, L, eps, 7)
    tau_prev = tau / ratio
    state = StepperState(phi1, phi2, tau_prev,
                         nl_hats=kept_spectra([phi1.values, phi2.values]),
                         nl_steps=(tau_prev,))
    got, _ = bdf2_step(state, tau, p)
    want, _ = ref_bdf2(phi1.values, phi2.values, tau, tau_prev, p)
    assert np.max(np.abs(got.values - want)) <= 1e-11


def spy_starts(monkeypatch) -> list:
    """Record (guess values, start spectrum or None) of every BDF2 solve, copied
    before the solve takes the spectrum over as a work array."""
    starts = []
    solve = steppers.fixed_point_solve

    def spy(mult, base_hat, guess, grid, nonlinear, nl_start=None):
        starts.append((guess.copy(), None if nl_start is None else nl_start.copy()))
        return solve(mult, base_hat, guess, grid, nonlinear, nl_start)

    monkeypatch.setattr(steppers, "fixed_point_solve", spy)
    return starts


def test_bdf2_starts_from_extrapolation(monkeypatch):
    """A state without nonlinearity spectra starts from phi^{n-1}'s values,
    whatever its history; one with them starts from their extrapolation."""
    starts = spy_starts(monkeypatch)
    g, p, phi1, phi2 = two_levels(32, 8.0, 0.2, 9)
    nl_hats = kept_spectra([phi1.values, phi2.values])
    bdf2_step(StepperState(phi1), 0.05, p)
    bdf2_step(StepperState(phi1, phi2, 0.02), 0.05, p)
    bdf2_step(StepperState(phi1, phi2, 0.02, nl_hats=nl_hats, nl_steps=(0.02,)), 0.05, p)
    assert [nl is None for _, nl in starts] == [True, True, False]
    assert np.array_equal(starts[0][0], phi1.values)
    assert np.array_equal(starts[1][0], phi1.values)
    # the line through the two spectra, read at r = 2.5 past the newest
    want = 3.5 * nl_hats[0] - 2.5 * nl_hats[1]
    assert np.max(np.abs(starts[2][1] - want)) <= 1e-15 * np.max(np.abs(want))


def test_lagrange_weights(rng):
    """On 1 to NL_LEVELS nodes with step ratios in [1/136, 136] the weights
    sum to one and reproduce polynomials of degree below the node count.
    Both are measured against the size of the weighted terms: on these
    draws the weights' absolute sum reaches 5e16, and roundoff in their sum
    scales with that."""
    for _ in range(2000):
        n = int(rng.integers(1, NL_LEVELS + 1))
        ratios = np.exp(rng.uniform(-math.log(136), math.log(136), size=n))
        # ratios[0] = tau_n / tau_{n-1}, ratios[i] = tau_{n-i} / tau_{n-i-1}
        taus = 10.0 ** rng.uniform(-4, 0) * np.cumprod(ratios[::-1])[::-1]
        tau, steps = float(taus[0]), [float(s) for s in taus[1:]]
        w = steppers.lagrange_weights(tau, steps)
        assert len(w) == n
        scale = sum(abs(wi) for wi in w)
        assert abs(sum(w) - 1.0) <= 1e-12 * scale
        # a polynomial in t / span of degree n - 1 keeps its values of order one
        times = level_times(steps)
        span = tau - times[-1]
        coef = rng.standard_normal(n)
        poly = lambda t: float(np.polyval(coef, t / span))
        terms = [wi * poly(ti) for wi, ti in zip(w, times)]
        assert abs(math.fsum(terms) - poly(tau)) <= 1e-12 * sum(map(abs, terms))


def test_run_starts_from_available_levels(monkeypatch):
    """Step 1 starts from phi0's values.  Every later step starts from the
    extrapolation of the nonlinearity spectra that the solves of the newest
    NL_LEVELS levels left on their fields, over the steps between them."""
    starts = spy_starts(monkeypatch)
    g, p, phi0, _ = two_levels(32, 8.0, 0.2, 12)
    taus = [0.03, 0.05, 0.02, 0.04, 0.01, 0.03, 0.06, 0.02]
    nl_hats = []   # of levels 1, 2, ...
    run_fixed_mesh(phi0, taus, p,
                   observer=lambda state, _: nl_hats.append(state.phi_prev.nl_hat))
    assert len(starts) == len(taus)
    assert np.array_equal(starts[0][0], phi0.values)
    assert starts[0][1] is None
    for k in range(1, len(taus)):
        # level k is the newest with a spectrum; the step into level j is taus[j - 1]
        n = min(k, NL_LEVELS)
        hats = [nl_hats[k - 1 - i] for i in range(n)]
        steps = [taus[k - 1 - i] for i in range(n - 1)]
        w = steppers.lagrange_weights(taus[k], steps)
        assert w == pytest.approx(lagrange_weights(level_times(steps), taus[k]), rel=1e-12)
        want = w[0] * hats[0]
        for wi, h in zip(w[1:], hats[1:]):
            want += wi * h
        assert np.array_equal(starts[k][1], want)


SCHEMES = ["bdf1", "bdf2", "bdf2_nl", "bdf2_forced", "cn", "cs1", "cncs"]


def one_step(scheme, g, p, phi1, phi2, tau):
    """The state and step function of one step of ``scheme``.

    ``bdf2_nl`` and ``bdf2_forced`` keep the two levels' nonlinearity spectra;
    ``bdf2_forced``'s forcing spectrum is formed before the step runs.
    """
    one_level = scheme in ("bdf1", "cn", "cs1")
    state = StepperState(phi1) if one_level else StepperState(phi1, phi2, 0.7 * tau)
    if scheme in ("bdf2_nl", "bdf2_forced"):
        state.nl_hats = kept_spectra([phi1.values, phi2.values])
        state.nl_steps = (0.7 * tau,)
    forcing_hat = (manufactured_forcing_hat(g, p)(tau) if scheme == "bdf2_forced"
                   else None)
    if scheme.startswith("bdf"):
        return state, lambda: bdf2_step(state, tau, p, forcing_hat)
    step = cn_step if scheme == "cn" else cncs_step   # cs1: CNCS from one level
    return state, lambda: step(state, tau, p)


@pytest.mark.parametrize("step", SCHEMES)
def test_transforms_per_step(step, monkeypatch):
    """With the history spectra cached, one inverse transform per iteration,
    one forward transform per iteration but a spectrum-started first, and
    nothing else: a forcing comes as its half spectrum."""
    g, p, phi1, phi2 = two_levels(32, 8.0, 0.2, 8)
    state, run = one_step(step, g, p, phi1, phi2, 0.05)
    phi1.hat, phi2.hat   # cached before the count starts
    started = bool(state.nl_hats)
    calls = count_transforms(monkeypatch)
    _, stats = run()
    assert stats.iterations > 1
    assert len(calls) == 2 * stats.iterations - started
    assert calls.count("backward") == stats.iterations


@pytest.mark.parametrize("started", [False, True])
@pytest.mark.parametrize("ending", ["diverged", "stagnated", "failed to converge"])
def test_transforms_per_failed_solve(ending, started, monkeypatch):
    """A failed solve, from values or from a spectrum, has made the
    transforms of a converged one (``test_transforms_per_step``): one inverse
    transform per iteration and one forward transform per iteration but a
    spectrum-started first.  With mult = 1 and base_hat = 0 the map is the
    nonlinearity: 1e200 phi + 1 overflows, ``period_two_map`` stagnates, and
    phi/2 + 0.1 runs out of MAX_ITER = 25 iterations."""
    g = Grid2D(32, 8.0)
    mult, base_hat, guess, _, nonlinear = period_two_map(g)
    if ending == "diverged":
        nonlinear = lambda phi, out: np.add(np.multiply(phi, 1e200, out=out), 1.0, out=out)
    elif ending == "failed to converge":
        nonlinear = lambda phi, out: np.add(np.multiply(phi, 0.5, out=out), 0.1, out=out)
        monkeypatch.setattr(steppers, "MAX_ITER", 25)
    nl_start = np.zeros_like(base_hat) if started else None
    calls = count_transforms(monkeypatch)
    with pytest.raises(steppers.SolverError, match=ending) as failure:
        steppers.fixed_point_solve(mult, base_hat, guess, g, nonlinear, nl_start)
    iterations = failure.value.stats.iterations
    assert iterations == 25 if ending == "failed to converge" else iterations > 2
    assert calls.count("backward") == iterations
    assert calls.count("forward") == iterations - started


@pytest.mark.parametrize("M,L,eps,tau", CASES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_carried_spectrum(scheme, M, L, eps, tau):
    """The solver hands the new field the spectrum of its values and that of
    its scheme's lagged nonlinearity, the cube or CN's averaged product (to
    the fixed-point tolerance).  The step leaves the history spectra as they
    were."""
    g, p, phi1, phi2 = two_levels(M, L, eps, 10)
    state, run = one_step(scheme, g, p, phi1, phi2, tau)
    kept = [f.hat for f in (state.phi_prev, state.phi_prev2) if f is not None]
    kept += state.nl_hats
    before = [h.copy() for h in kept]
    got, _ = run()
    assert "hat" in vars(got)   # set by the solver, not computed on first use
    assert np.max(np.abs(got.hat - forward(got.values))) <= 1e-14 * np.max(np.abs(got.hat))
    assert all(np.array_equal(h, b) for h, b in zip(kept, before))
    nonlinear = (steppers._midpoint_cube(phi1.values) if scheme in ("cn", "cncs")
                 else lambda phi, out: phi**3)
    nl_hat = forward(nonlinear(got.values, np.empty_like(got.values)))
    assert np.max(np.abs(got.nl_hat - nl_hat)) <= 1e-10 * np.max(np.abs(nl_hat))


def allocating_solve(mult, base_hat, guess, grid, nonlinear, nl_start=None):
    """The fixed-point loop as it was before it wrote into its own arrays: the
    oracle for ``steppers.fixed_point_solve``.  Every iteration makes fresh
    arrays for N(phi), both passes of each transform, the update and the
    increment."""
    M = grid.M
    phi = guess
    res = np.inf
    first = 1
    with np.errstate(over="ignore", invalid="ignore"):
        if nl_start is not None:
            nl_start *= mult
            nl_start += base_hat
            phi = np.fft.irfft(np.fft.ifft(nl_start, axis=0), n=M, axis=1)
            first = 2
        for it in range(first, steppers.MAX_ITER + 1):
            nl = nonlinear(phi, np.empty_like(phi))
            nl_hat = np.fft.fft(np.fft.rfft(nl, axis=1), axis=0)
            x = nl_hat * mult
            x += base_hat
            phi_new = np.fft.irfft(np.fft.ifft(x, axis=0), n=M, axis=1)
            d = phi_new - phi if phi is guess else np.subtract(phi, phi_new, out=phi)
            res = float(np.abs(d, out=d).max())
            phi = phi_new
            if res <= steppers.FP_TOL:
                # the self-conjugate columns become their Hermitian parts
                partner = -np.arange(M) % M
                for col in (0, -1):
                    x[:, col] = (x[:, col] + np.conj(x[partner, col])) / 2
                out = Field.unchecked(grid, phi, nl_hat)
                out.hat = x
                return out, steppers.SolveStats(it, res)
            if not math.isfinite(res):
                raise steppers.SolverError("diverged", steppers.SolveStats(it, res))
    raise steppers.SolverError("no convergence", steppers.SolveStats(steppers.MAX_ITER, res))


@pytest.mark.parametrize("M,L,eps,tau", CASES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_solve_matches_allocating_loop(scheme, M, L, eps, tau, monkeypatch):
    """The solve that writes into its own arrays gives the allocating loop's
    values, spectra and statistics bit for bit: BDF2 from phi^0, from its
    history's values, spectrum-started and forced, CN, CS1 and CNCS."""
    g, p, phi1, phi2 = two_levels(M, L, eps, 14)
    _, run = one_step(scheme, g, p, phi1, phi2, tau)
    got, stats = run()
    monkeypatch.setattr(steppers, "fixed_point_solve", allocating_solve)
    want, want_stats = run()
    assert stats == want_stats
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.hat, want.hat)
    assert np.array_equal(got.nl_hat, want.nl_hat)


def converged_runs():
    """Final fields, step counts and ladder errors of small runs of every path
    the solver takes: the adaptive controller (BDF2 from kept spectra), BDF2,
    CN and CNCS over a fixed mesh, and the forced BDF2 convergence ladder."""
    g = Grid2D(64, 32.0)
    p = PfcParams(0.25, g)
    phi0 = random_initial(0.2, 0.3, g, 2023)
    steps = []
    fields = {"adaptive": adaptive_run(phi0, 1.0, p,
                                       observer=lambda s, _: steps.append(s.t)).phi_prev}
    for scheme in steppers.SCHEMES:
        fields[scheme] = run_fixed_mesh(phi0, [0.01] * 100, p, scheme).phi_prev
    ladder = run_convergence(M=32, seed=2023)
    return ({k: f.values for k, f in fields.items()}, len(steps),
            [(r.N, r.error) for r in ladder])


def test_outputs_are_the_tightly_converged_solution(monkeypatch):
    """The shipped solve stops at the discrete solution.  The runs are made
    again with ``FP_TOL`` at 1e-14, a hundredth of the shipped value, through
    the allocating loop, so that a fault in the package's loop does not
    cancel: they take the same steps, and land on fields within 1e-12 in the
    max norm and on ladder errors within 1e-6 relative, perfbench's
    tolerance on them.  374 adaptive steps moved by 1.1e-14 and the ladder
    errors by 5.0e-8 relative; with ``FP_TOL`` at 1e-10 they move by 1.7e-12
    and 3.9e-6."""
    fields, steps, ladder = converged_runs()
    monkeypatch.setattr(steppers, "FP_TOL", 1e-14)
    monkeypatch.setattr(steppers, "fixed_point_solve", allocating_solve)
    tight_fields, tight_steps, tight_ladder = converged_runs()
    assert steps == tight_steps
    for name, values in fields.items():
        assert np.abs(values - tight_fields[name]).max() <= 1e-12, name
    assert [n for n, _ in ladder] == [n for n, _ in tight_ladder]
    for (_, err), (_, tight) in zip(ladder, tight_ladder):
        assert err == pytest.approx(tight, rel=1e-6)


def solve_peak(tau: float, monkeypatch) -> tuple[int, int]:
    """Traced peak of the fixed-point solve of a 32^2 BDF1 step of size ``tau``
    from the values of phi^0, after an untraced warm-up, and its iterations."""
    g = Grid2D(32, 8.0)
    p = PfcParams(0.2, g)
    phi0 = Field(g, 0.1 + 0.01 * np.random.default_rng(15).uniform(-1, 1, size=(32, 32)))
    phi0.hat   # cached before the count starts
    bdf2_step(StepperState(phi0), tau, p)   # first-call set-up stays out of the count
    solve = steppers.fixed_point_solve
    peaks = []

    def traced(*args):
        tracemalloc.start()
        try:
            res = solve(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return res

    with monkeypatch.context() as patch:
        patch.setattr(steppers, "fixed_point_solve", traced)
        _, stats = bdf2_step(StepperState(phi0), tau, p)
    return peaks[0], stats.iterations


def test_solve_peak_does_not_grow_with_iterations(monkeypatch):
    """An iteration allocates nothing: a solve of eight or more iterations
    peaks where one of three does, within 1 KB.  The peak is the solve's own
    arrays, two fields and two half spectra (33.8 KB at 32^2), and at most
    4 KB of Python objects; this bound, set when the solve held three half
    spectra, still allows a third (``test_solve_from_values_holds_two_spectra``
    does not)."""
    short, short_iters = solve_peak(1e-5, monkeypatch)
    long, long_iters = solve_peak(2.0, monkeypatch)
    assert short_iters == 3 and long_iters >= 8
    assert abs(long - short) <= 1024
    own = 2 * 32 * 32 * 8 + 3 * 32 * 17 * 16
    assert long <= own + 4096


@pytest.mark.parametrize("tau", [1e-5, 2.0])
def test_solve_from_values_holds_two_spectra(tau, monkeypatch):
    """A solve from values allocates two fields and two half spectra, which
    trade roles as the forward transform's output and the update, plus at
    most 4 KB of Python objects: a third half spectrum (8.5 KB at 32^2) does
    not fit."""
    peak, _ = solve_peak(tau, monkeypatch)
    assert peak <= 2 * 32 * 32 * 8 + 2 * 32 * 17 * 16 + 4096


@pytest.mark.parametrize("scheme", SCHEMES)
def test_returned_arrays_do_not_alias(scheme, monkeypatch):
    """The new field's values, ``hat`` and ``nl_hat`` are three arrays, and
    none of them is one the step reads or holds: the held multipliers, the
    history fields and their spectra, the kept nonlinearity spectra, the
    forcing, ``guess`` and the right-hand side.  Only the start spectrum,
    which the solve takes over, may come back as one of them.  The solve's
    two half spectra trade roles every iteration, so the step sizes are
    chosen to end solves after both odd and even numbers of iterations."""
    handed = {}
    held_step, solve = steppers._held_step, steppers.fixed_point_solve

    def recording_held_step(state, tau, key, linear, hats, nonlinear, nl_start=None):
        handed["hats"] = list(hats)
        return held_step(state, tau, key, linear, hats, nonlinear, nl_start)

    def recording_solve(mult, base_hat, guess, grid, nonlinear, nl_start=None):
        handed.update(mult=mult, base_hat=base_hat, guess=guess, nl_start=nl_start)
        return solve(mult, base_hat, guess, grid, nonlinear, nl_start)

    monkeypatch.setattr(steppers, "_held_step", recording_held_step)
    monkeypatch.setattr(steppers, "fixed_point_solve", recording_solve)
    parities = set()
    for tau in (1e-3, 0.05, 0.5):
        g, p, phi1, phi2 = two_levels(32, 8.0, 0.2, 16)
        state, run = one_step(scheme, g, p, phi1, phi2, tau)
        got, stats = run()
        parities.add(stats.iterations % 2)
        new = [got.values, got.hat, got.nl_hat]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(new) for b in new[i + 1:])
        held = state.held
        read = [held.mult, held.inv, *held.coefs, *handed["hats"], *state.nl_hats,
                handed["mult"], handed["base_hat"], handed["guess"]]
        read += [f.values for f in (state.phi_prev, state.phi_prev2) if f is not None]
        assert not any(np.shares_memory(a, b) for a in new for b in read), tau
        assert (handed["nl_start"] is not None) == bool(state.nl_hats)
    assert parities == {0, 1}


def anti_hermitian(hat: np.ndarray) -> float:
    """The largest anti-Hermitian part, |x[i] - conj(x[-i])| / 2, of the
    self-conjugate columns of a half spectrum: ky = 0 and the Nyquist column."""
    partner = -np.arange(hat.shape[0]) % hat.shape[0]
    return max(float(np.abs(hat[:, c] - np.conj(hat[partner, c])).max()) / 2 for c in (0, -1))


@pytest.mark.parametrize("scheme", steppers.SCHEMES)
def test_carried_spectrum_stays_hermitian(scheme):
    """The right-hand sides read the carried spectra, so an anti-Hermitian part
    left in their self-conjugate columns was carried on from step to step and
    grew in the unstable band, while the values, which ``backward`` takes from
    the Hermitian part, did not show it; the energy read from ``hat`` went
    false.  L puts a ky = 0 mode at k^2 = 1.1, inside the band at eps = 0.9.
    Before the solve projected the columns, 400 steps left CN's part at 0.11
    and its energy off by 4.4e-8 relative, and BDF2's part at 8.7e-7."""
    g = Grid2D(32, 10 * math.pi / math.sqrt(1.1))
    p = PfcParams(0.9, g)
    phi = run_fixed_mesh(random_initial(0.2, 0.1, g, 3), [0.1] * 400, p, scheme).phi_prev
    assert anti_hermitian(phi.hat) <= 1e-13 * np.abs(phi.hat).max()
    assert energy(phi, p) == pytest.approx(energy(Field(g, phi.values.copy()), p), rel=1e-13)


class HalfSpectrumCheck:
    """Observer for a gated run: after every step the new field's ``hat`` equals
    ``forward(values)`` to roundoff and its self-conjugate columns are Hermitian
    bit for bit; then the step goes on to ``log``."""

    def __init__(self, log):
        self.log = log
        self.steps = 0

    def __call__(self, state, stats):
        hat = state.phi_prev.hat
        assert np.abs(hat - forward(state.phi_prev.values)).max() <= 1e-14 * np.abs(hat).max()
        assert anti_hermitian(hat) == 0.0
        self.log(state, stats)
        self.steps += 1


SYMMETRIES = {"transpose": np.transpose,
              "shift (5, -11)": lambda v: np.roll(v, (5, -11), axis=(0, 1)),
              "flip in x": lambda v: np.flip(v, axis=0)}


@pytest.mark.parametrize("scheme", steppers.SCHEMES)
def test_runs_commute_with_grid_symmetries(scheme):
    """Transposing, shifting or flipping phi^0 and then running gives the run's
    field and energies transposed, shifted or flipped: the half-plane layout
    treats its two axes differently, which these symmetries do not."""
    g = Grid2D(64, 32.0)
    p = PfcParams(0.25, g)
    steps = [0.05] * 15 + [0.1] * 15
    values0 = random_initial(0.2, 0.3, g, 5).values

    def run(values):
        phi0 = Field(g, values)
        check = HalfSpectrumCheck(EnergyLog(phi0, p))
        phi = run_fixed_mesh(phi0, steps, p, scheme, observer=check).phi_prev
        assert check.steps == len(steps)
        return phi.values, [r.E for r in check.log.records]

    want, want_energies = run(values0)
    scale = np.abs(want).max()
    for name, op in SYMMETRIES.items():
        got, energies = run(np.ascontiguousarray(op(values0)))
        assert np.abs(got - op(want)).max() <= 1e-14 * scale, name
        assert energies == pytest.approx(want_energies, rel=1e-13), name
