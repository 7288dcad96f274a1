import os
import pathlib
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from conftest import (alternating_ratio_mesh, coords, count_transforms, kernel_matrices,
                      manufactured_forcing, modified_energy, oscillation_indicator,
                      random_s1_mesh)
import pfc.adaptive as adaptive
import pfc.experiments as ex
import pfc.kernels as kernels
import pfc.steppers as steppers
from pfc.adaptive import adaptive_run
from pfc.experiments import (PATCHES, EnergyLog, kernels_report, midline,
                             patched_initial,
                             random_initial, run_bdf2_forced, run_convergence,
                             energy_rows, run_with_energy_log, write_csv)
from pfc.grid import Field, Grid2D, MeanZeroError, forward
from pfc.mesh import R_SUP, TimeMesh, check_restriction, random_mesh, uniform_mesh
from pfc.model import PfcParams
from pfc.rng import SplitMix64
from pfc.steppers import StepperState

SRC = os.path.dirname(os.path.dirname(os.path.abspath(ex.__file__)))
STEP_FUNCTIONS = ("bdf2_step", "cn_step", "cncs_step", "adaptive_advance")


class TestRandomInitial:
    def test_deterministic(self):
        g = Grid2D(16, 8.0)
        a = random_initial(0.1, 0.02, g, 7)
        b = random_initial(0.1, 0.02, g, 7)
        assert np.array_equal(a.values, b.values)
        c = random_initial(0.1, 0.02, g, 8)
        assert not np.array_equal(a.values, c.values)

    def test_range(self):
        g = Grid2D(32, 8.0)
        f = random_initial(0.1, 0.02, g, 1)
        assert np.all(f.values > 0.08)
        assert np.all(f.values < 0.12)

    def test_zero_amp(self):
        g = Grid2D(16, 8.0)
        f = random_initial(0.3, 0.0, g, 1)
        assert np.all(f.values == 0.3)

    def test_negative_amp(self):
        with pytest.raises(ValueError):
            random_initial(0.1, -0.1, Grid2D(16, 8.0), 1)


class TestPatchedInitial:
    def test_background_outside_patches(self):
        g = Grid2D(256, 256.0)
        f = patched_initial(g, seed=3)
        # corner far from every patch
        assert f.values[0, 0] == 0.285

    def test_patch_is_perturbed(self):
        g = Grid2D(256, 256.0)
        f = patched_initial(g, seed=3)
        (cx, cy), side, amp = PATCHES[0]
        i = int(cx / g.h)
        j = int(cy / g.h)
        block = f.values[i - 3:i + 4, j - 3:j + 4]
        assert np.any(block != 0.285)
        assert np.all(np.abs(block - 0.285) <= amp)

    def test_patch_count_matches_side(self):
        g = Grid2D(256, 256.0)
        f = patched_initial(g, seed=3)
        n_perturbed = int(np.sum(f.values != 0.285))
        # three 10x10 squares on a unit-spacing grid: 11 points per side
        assert n_perturbed == 3 * 11 * 11

    def test_deterministic(self):
        g = Grid2D(64, 256.0)
        a = patched_initial(g, seed=5)
        b = patched_initial(g, seed=5)
        assert np.array_equal(a.values, b.values)


class TestCsv:
    def test_round_trip_precision(self, tmp_path):
        path = os.path.join(tmp_path, "out", "x.csv")
        rows = [(1, 0.1 + 0.2), (2, np.pi)]
        write_csv(path, ["n", "v"], rows)
        lines = pathlib.Path(path).read_text().splitlines()
        assert lines[0] == "n,v"
        assert float(lines[1].split(",")[1]) == 0.1 + 0.2
        assert float(lines[2].split(",")[1]) == np.pi

    def test_same_bytes_as_per_value_writer(self, tmp_path):
        g = Grid2D(16, 8.0)
        _, recs = run_with_energy_log(random_initial(0.1, 0.02, g, 3), [0.05] * 4,
                                      PfcParams(0.2, g))
        kernel_rows, _ = kernels_report(random_mesh(30, 1.0, 7))
        # one type per column, as in every file the CLI writes
        special = [(1, True, "cn", None, np.float64(0.1), np.float32(0.1), np.int64(3),
                    float("nan"), -float("inf"), 0.0),
                   (2, False, "bdf2", None, np.float64(np.pi), np.float32(-0.0),
                    np.int64(-4), float("inf"), -0.0, 5e-324)]
        header = ["a", "b"]
        for rows in (kernel_rows, energy_rows(recs), special, [np.array([np.pi, 1e300])], []):
            new, old = tmp_path / "new.csv", tmp_path / "old.csv"
            write_csv(new, header, rows)
            write_csv_per_value(old, header, rows)
            assert new.read_bytes() == old.read_bytes()


def write_csv_per_value(path, header, rows):
    """``write_csv`` as it formatted one value at a time, kept as the reference."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(ex.FMT % v if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def s1_ladder_mesh(N: int, T: float, seed: int) -> TimeMesh:
    """tau_k = T sigma_k / sum(sigma) with sigma_k ~ U(0.3, 1), so every step
    ratio is below 1/0.3 < 3.34, inside S1 (r_sup = 4.56)."""
    sigma = 0.3 + 0.7 * SplitMix64(seed).uniform_block(N)
    return TimeMesh(T * sigma / sigma.sum())


class TestConvergence:
    def test_uniform_second_order(self):
        # coarse grid keeps this quick; the order estimate should sit at 2
        rows = run_convergence(M=32, ladder=(20, 40, 80), mesh_kind="uniform")
        assert rows[0].error > rows[1].error > rows[2].error
        assert rows[2].order == pytest.approx(2.0, abs=0.2)

    def test_random_mesh_errors_decrease(self):
        # the coarse 32^2 grid caps accuracy, so only the overall decrease
        # is checked here; random draws allow ratios beyond the cap, which
        # the n1 column reports
        rows = run_convergence(M=32, ladder=(20, 40, 80), seed=2023)
        assert rows[2].error < rows[0].error
        assert all(r.error > 0 for r in rows)
        assert all(r.n1 >= 0 for r in rows)
        assert np.isnan(rows[0].order)

    def test_ladder_iteration_budget(self, monkeypatch):
        """The forced 32^2 random-mesh ladder at seed 2023 takes 2,590
        fixed-point iterations with the start from five nonlinearity spectra,
        2,622 with the three-level value predictor and 3,489 with the linear
        one.  The bound leaves 12 % for roundoff in the iteration counts
        across platforms; the linear start fails it."""
        iterations = []
        run = ex.run_fixed_mesh

        def counted(*args, **kwargs):
            return run(*args, **kwargs,
                       observer=lambda _, stats: iterations.append(stats.iterations))

        monkeypatch.setattr(ex, "run_fixed_mesh", counted)
        run_convergence(M=32, ladder=(20, 40, 80, 160, 320), seed=2023)
        assert len(iterations) == 620
        assert sum(iterations) <= 2900

    @pytest.mark.parametrize("seed", [2023, 7, 304, 4711])
    def test_ladder_errors_match_transformed_forcing(self, seed, monkeypatch):
        """The forced ladder driven by the spectrum formed once per grid
        against the same ladder driven by ``forward`` of the forcing values:
        the errors moved by at most 6.2e-9 relative over these seeds,
        roundoff on temporal errors of about 1e-5 to 1e-7."""
        got = [r.error for r in run_convergence(M=32, seed=seed)]

        def transformed(p):
            return lambda t: forward(manufactured_forcing(t, p.grid, p).values)

        monkeypatch.setattr(ex, "manufactured_forcing_hat", transformed)
        want = [r.error for r in run_convergence(M=32, seed=seed)]
        assert got != want   # the two forcings differ, so the runs do
        for e, w in zip(got, want):
            assert abs(e - w) <= 2e-8 * w

    def test_bdf2_transform_budget(self, monkeypatch):
        """BDF2 at 128^2, tau = 1e-2, 50 steps from the seed-2023 random
        state: 254 transforms with the start from the nonlinearity spectra
        (151 iterations, 49 of them first iterates that cost one inverse
        transform) and 337 with the three-level value predictor (168
        iterations).  The bound leaves 10 % for roundoff in the iteration
        counts across platforms; the value start fails it."""
        g = Grid2D(128, 64.0)
        p = PfcParams(0.2, g)
        phi0 = random_initial(0.1, 0.02, g, 2023)
        calls = count_transforms(monkeypatch)
        iterations = []
        steppers.run_fixed_mesh(phi0, [1e-2] * 50, p,
                                observer=lambda _, stats: iterations.append(stats.iterations))
        assert len(iterations) == 50
        assert len(calls) == 2 * sum(iterations) - 49 + 1
        assert len(calls) <= 280

    @pytest.mark.parametrize("scheme,bound", [("cn", 655), ("cncs", 585)])
    def test_cn_cncs_transform_budget(self, scheme, bound, monkeypatch):
        """CN and CNCS at 128^2, tau = 1e-3, 100 steps from the seed-2023
        random state (``test_scheme_comparison``'s set-up): with the start
        from the nonlinearity spectra CN makes 596 transforms (347
        iterations) and CNCS 532 (315), as 99 first iterates cost one inverse
        transform; from phi^{n-1}'s values they made 747 (373) and 635 (317).
        The bounds leave 10 % for roundoff in the iteration counts across
        platforms; the value start fails them."""
        g = Grid2D(128, 64.0)
        p = PfcParams(0.2, g)
        phi0 = random_initial(0.1, 0.02, g, 2023)
        calls = count_transforms(monkeypatch)
        iterations = []
        steppers.run_fixed_mesh(phi0, [1e-3] * 100, p, scheme,
                                observer=lambda _, stats: iterations.append(stats.iterations))
        assert len(iterations) == 100
        assert len(calls) == 2 * sum(iterations) - 99 + 1
        assert len(calls) <= bound

    def test_second_order_on_s1_ladders(self):
        """The paper's error estimate holds on meshes with every ratio in S1:
        the forced 32^2 ladder (N = 20 ... 320) on ``s1_ladder_mesh`` meshes
        is second order in the largest step.

        The band was set from 400 seeds: the pooled order of 50 disjoint
        groups of 8 ladders, fitted as here, lay in [1.81, 2.07] (mean 1.96,
        standard deviation 0.046).  The band adds a margin of 0.1 or more,
        over twice that deviation, on each side.  Taking BDF1 steps
        (b0 = 1/tau, b1 = 0) puts the order near 1.
        """
        g = Grid2D(32, 8.0)
        p = PfcParams(0.02, g)
        ladder = (20, 40, 80, 160, 320)
        x, y = [], []
        for base in range(0, 8 * len(ladder), len(ladder)):   # 8 ladders, no seed shared
            for i, N in enumerate(ladder):
                mesh = s1_ladder_mesh(N, 1.0, base + i)
                assert mesh.max_ratio < 3.34 < R_SUP
                x.append(np.log(mesh.max_step))
                y.append(np.log(run_bdf2_forced(mesh, p)))
        order = np.polyfit(x, y, 1)[0]
        assert 1.7 <= order <= 2.2

    def test_forced_error_scale(self):
        g = Grid2D(32, 8.0)
        p = PfcParams(0.02, g)
        err = run_bdf2_forced(uniform_mesh(40, 1.0), p)
        assert 0 < err < 1e-2


class TestEnergyLog:
    def test_log_lengths_and_monotone_energy(self):
        g = Grid2D(32, 8.0)
        p = PfcParams(0.2, g)
        phi0 = random_initial(0.1, 0.02, g, 11)
        _, recs = run_with_energy_log(phi0, [0.01] * 30, p)
        assert len(recs) == 31
        assert [r.tau for r in recs[1:]] == [0.01] * 30
        e_mod = [r.E_mod for r in recs]
        assert all(b <= a * (1 + 1e-10) + 1e-12 for a, b in zip(e_mod, e_mod[1:]))
        m0 = recs[0].mass
        assert all(abs(r.mass - m0) < 1e-12 for r in recs)

    def test_energy_computed_once_per_record(self, monkeypatch):
        import pfc.experiments as ex
        g = Grid2D(32, 8.0)
        p = PfcParams(0.2, g)
        phi0 = random_initial(0.1, 0.02, g, 11)
        steps = [0.01, 0.02]
        phi1 = run_with_energy_log(phi0, steps[:1], p)[0].phi_prev
        calls = []
        energy = ex.energy
        monkeypatch.setattr(ex, "energy", lambda phi, q: calls.append(1) or energy(phi, q))
        _, recs = run_with_energy_log(phi0, steps, p)
        assert len(calls) == len(steps) + 1
        # E plus the history term is still the modified energy
        want = modified_energy(phi1, phi0, steps[0], steps[1] / steps[0], p)
        assert recs[1].E_mod == pytest.approx(want, rel=1e-14)
        assert recs[1].E_mod > recs[1].E
        assert recs[0].E_mod == recs[0].E
        assert recs[2].E_mod == recs[2].E  # no next step: r = 0

    def test_distance_reuses_record_max_norm(self, monkeypatch):
        # the log hands step_distance_sq the linf it has just computed, so
        # the mean check makes no second max|phi| pass
        from pfc.model import step_distance_sq
        g = Grid2D(32, 8.0)
        p = PfcParams(0.2, g)
        phi0 = random_initial(0.1, 0.02, g, 11)
        seen = []

        def spy(phi, prev, linf):
            seen.append((linf, float(np.max(np.abs(phi.values)))))
            return step_distance_sq(phi, prev, linf)

        monkeypatch.setattr(ex, "step_distance_sq", spy)
        _, recs = run_with_energy_log(phi0, [0.01, 0.02, 0.01], p)
        assert len(seen) == 3
        assert [linf for linf, _ in seen] == [r.linf for r in recs[1:]]
        assert all(linf == want for linf, want in seen)

    @pytest.mark.parametrize("amp", [1e-3, 1e-6, 1e-9])
    def test_settled_run_logs(self, amp):
        # once the run settles, the history difference has a roundoff mean
        # near 1e-17, which must be judged at the fields' scale, not its own
        g = Grid2D(64, 64.0)
        p = PfcParams(0.25, g)
        noise = np.random.default_rng(1).standard_normal((g.M, g.M))
        _, recs = run_with_energy_log(Field(g, 0.285 + amp * noise), [0.5] * 40, p)
        assert len(recs) == 41
        assert all(r.E_mod >= r.E for r in recs)

    def test_transforms_per_logged_bdf2_run(self, monkeypatch):
        # each step: a pair per iteration, less the forward transform that
        # every solve after the first skips by starting from the kept
        # nonlinearity spectra, and nothing else, since the right-hand side,
        # the energy and the history term read spectra the solver left on
        # the fields; the run: one transform for phi0's spectrum
        calls = count_transforms(monkeypatch)
        g = Grid2D(32, 8.0)
        p = PfcParams(0.2, g)
        phi0 = random_initial(0.1, 0.02, g, 11)
        _, recs = run_with_energy_log(phi0, [0.01, 0.02, 0.01, 0.03], p)
        assert recs[1].E_mod > recs[1].E
        steps = recs[1:]
        assert len(calls) == sum(2 * r.iters for r in steps) - (len(steps) - 1) + 1


def count_outermost_steps(monkeypatch) -> list:
    """Record each outermost call of a step function or of adaptive_advance.

    The functions are replaced where the run loops look them up; a call made
    inside another counted call (a controller trial step) is not recorded.
    Each entry is (name, iterations of the returned SolveStats).
    """
    calls, depth = [], [0]

    def counted(fn):
        def wrapper(*args, **kwargs):
            depth[0] += 1
            try:
                res = fn(*args, **kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                stats = res.stats if fn.__name__ == "adaptive_advance" else res[1]
                calls.append((fn.__name__, stats.iterations))
            return res
        return wrapper

    for mod in (steppers, adaptive):
        for name in STEP_FUNCTIONS:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(getattr(mod, name)))
    return calls


class TestRunLoops:
    """One outermost step call per record, and records that carry its iterations."""

    @pytest.mark.parametrize("scheme", ["bdf2", "cn", "cncs"])
    def test_fixed_mesh(self, scheme, monkeypatch):
        calls = count_outermost_steps(monkeypatch)
        g = Grid2D(32, 8.0)
        p = PfcParams(0.2, g)
        phi0 = random_initial(0.1, 0.02, g, 11)
        log, seen = EnergyLog(phi0, p), []

        def observer(state, stats):
            log(state, stats)
            seen.append(stats.iterations)

        steppers.run_fixed_mesh(phi0, [0.01] * 6, p, scheme, observer=observer)
        recs = log.records
        assert len(calls) == len(recs) - 1 == 6
        # the wrapper is called: the run looks its step function up at call time
        assert {name for name, _ in calls} == {f"{scheme}_step"}
        assert [it for _, it in calls] == [r.iters for r in recs[1:]]
        assert sum(r.iters for r in recs) == sum(seen)

    def test_adaptive(self, monkeypatch):
        calls = count_outermost_steps(monkeypatch)
        g = Grid2D(32, 8.0)
        p = PfcParams(0.2, g)
        X, Y = coords(g)
        phi0 = Field(g, 0.1 + 0.05 * np.sin(g.nu * X) * np.cos(g.nu * Y))
        log = EnergyLog(phi0, p)
        state = adaptive_run(phi0, 0.5, p, observer=log)
        assert len(calls) == len(log.records) - 1
        assert log.records[-1].t == state.t
        assert {name for name, _ in calls} == {"adaptive_advance"}
        assert [it for _, it in calls] == [r.iters for r in log.records[1:]]


def log_on_worker(monkeypatch) -> list:
    """Put EnergyLog on its worker thread at any grid size; returns the list to which
    each call of ``energy`` appends the thread that made it."""
    monkeypatch.setattr(ex, "LOG_THREAD_MIN_M", 32)
    monkeypatch.setattr(ex, "_usable_cpus", lambda: 2)
    threads, energy = [], ex.energy
    monkeypatch.setattr(ex, "energy",
                        lambda phi, p: threads.append(threading.current_thread())
                        or energy(phi, p))
    return threads


def run_script(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this package, for at most 60 s."""
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60)


@pytest.fixture
def threaded(monkeypatch):
    return log_on_worker(monkeypatch)


def small_run():
    g = Grid2D(32, 8.0)
    return PfcParams(0.2, g), random_initial(0.1, 0.02, g, 11)


def adaptive_records(p: PfcParams, phi0: Field):
    log = EnergyLog(phi0, p)
    adaptive_run(phi0, 0.5, p, observer=log)
    return log.records


class TestThreadedLog:
    """The worker-thread path of EnergyLog against the inline one."""

    STEPS = [0.01, 0.02, 0.01, 0.03, 0.02, 0.01]

    @pytest.mark.parametrize("scheme", ["bdf2", "cn", "cncs", "adaptive"])
    def test_records_equal_inline(self, scheme, monkeypatch):
        p, phi0 = small_run()

        def records():
            if scheme == "adaptive":
                return adaptive_records(p, phi0)
            return run_with_energy_log(phi0, self.STEPS, p, scheme)[1]

        inline = records()
        threads = log_on_worker(monkeypatch)
        recs = records()
        assert recs == inline
        assert len(recs) > 5 and any(r.E_mod != r.E for r in recs)
        # the t = 0 record is measured here, every later one on the worker
        main = threading.current_thread()
        assert threads[0] is main
        assert len(threads) == len(recs) and main not in threads[1:]

    @pytest.mark.parametrize("n_steps, on_worker", [(3, True), (8, True), (3, False), (8, False)],
                             ids=["3", "8", "inline-3", "inline-8"])
    def test_error_raised_at_most_one_step_late(self, monkeypatch, n_steps, on_worker):
        # step 3's distance fails, on the worker or when the next call collects
        # it inline; that call raises it, or ``records`` does when step 3 is the last
        if on_worker:
            log_on_worker(monkeypatch)
        p, phi0 = small_run()
        distances, steps, dist = [], [], ex.step_distance_sq

        def failing(phi, prev, linf):
            distances.append(1)
            if len(distances) == 3:
                raise MeanZeroError("field has mean 1e-3, expected mean zero")
            return dist(phi, prev, linf)

        def counted(*args):
            steps.append(1)
            return step(*args)

        step = steppers.bdf2_step
        monkeypatch.setattr(ex, "step_distance_sq", failing)
        monkeypatch.setattr(steppers, "bdf2_step", counted)
        with pytest.raises(MeanZeroError, match="expected mean zero"):
            run_with_energy_log(phi0, [0.01] * n_steps, p)
        assert 3 <= len(steps) <= 4
        # the worker outlives the error and serves the next log
        monkeypatch.setattr(ex, "step_distance_sq", dist)
        assert len(run_with_energy_log(phi0, [0.01] * 3, p)[1]) == 4

    def test_records_complete_inside_observer(self, threaded):
        p, phi0 = small_run()
        log, seen = EnergyLog(phi0, p), []

        def observer(state, stats):
            log(state, stats)
            recs = log.records
            seen.append((len(recs), recs[-1].t == state.t, recs[-1].iters == stats.iterations))

        steppers.run_fixed_mesh(phi0, self.STEPS, p, "bdf2", observer=observer)
        assert seen == [(k + 2, True, True) for k in range(len(self.STEPS))]

    def test_logs_share_one_worker_thread(self, threaded):
        p, phi0 = small_run()
        first, second = EnergyLog(phi0, p), EnergyLog(phi0, p)
        state = StepperState(phi0)
        for tau in (0.01, 0.02):
            phi, stats = steppers.bdf2_step(state, tau, p)
            state = state.advanced(phi, tau)
            first(state, stats)
            second(state, stats)
        assert first.records == second.records
        workers = set(threaded) - {threading.current_thread()}
        assert len(threaded) == 6 and len(workers) == 1

    def test_worker_lets_the_process_exit(self):
        # the executor's thread is no daemon: the interpreter joins it at exit,
        # which returns once the thread is idle
        script = """
import pfc.experiments as ex
from pfc.grid import Grid2D
from pfc.model import PfcParams
ex.LOG_THREAD_MIN_M = 32
ex._usable_cpus = lambda: 2
p = PfcParams(0.2, Grid2D(32, 8.0))
phi0 = ex.random_initial(0.1, 0.02, p.grid, 11)
log = ex.EnergyLog(phi0, p)
ex.run_fixed_mesh(phi0, [0.01] * 3, p, observer=log)
assert len(log.records) == 4 and log._executor is ex._log_worker[1]
"""
        run = run_script(script)
        assert run.returncode == 0, run.stderr

    def test_forked_child_starts_its_own_thread(self, threaded, monkeypatch):
        # a child made by fork inherits the parent's executor, whose thread
        # the child does not have
        p, phi0 = small_run()
        inherited = object()
        monkeypatch.setattr(ex, "_log_worker", (-1, inherited))
        log = EnergyLog(phi0, p)
        own = ex._log_worker[1]
        try:
            assert ex._log_worker[0] == os.getpid()
            assert own is not inherited and log._executor is own
            assert len(run_with_energy_log(phi0, [0.01] * 3, p)[1]) == 4
        finally:
            own.shutdown()

    def test_threads_logging_first_at_once_share_one_executor(self, threaded, monkeypatch):
        # both threads see another pid's executor; a slowed constructor holds
        # open the window in which each would make its own
        import concurrent.futures
        made, make = [], concurrent.futures.ThreadPoolExecutor

        def slow(*args, **kwargs):
            time.sleep(0.2)
            made.append(make(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", slow)
        monkeypatch.setattr(ex, "_log_worker", (-1, None))
        n = 4   # more threads than the host's two cores
        ready, logs = threading.Barrier(n), []

        def first_log():
            p, phi0 = small_run()
            ready.wait()
            logs.append(EnergyLog(phi0, p))

        workers = [threading.Thread(target=first_log) for _ in range(n)]
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
            assert not any(w.is_alive() for w in workers)
            assert len(logs) == n and len(made) == 1
            assert all(log._executor is made[0] for log in logs)
        finally:
            for executor in made:
                executor.shutdown()

    def test_import_skips_concurrent_futures(self):
        # the executor's module is imported when a log first needs the worker
        script = "import sys, pfc; assert 'concurrent.futures' not in sys.modules"
        run = run_script(script)
        assert run.returncode == 0, run.stderr


class TestAdaptiveEnergyLaw:
    def test_modified_energy_never_rises(self, one_patch):
        # the paper's law: with every step ratio below 3.561 the modified
        # energy of adaptive BDF2 does not increase
        g = Grid2D(64, 64.0)
        p = PfcParams(0.25, g)
        phi0 = patched_initial(g, seed=2023)
        log = EnergyLog(phi0, p)
        k, kept = 100, {}

        def observer(state, stats):
            log(state, stats)
            if len(log.records) - 1 == k:
                kept["phi_k"], kept["phi_km1"] = state.phi_prev, state.phi_prev2

        adaptive_run(phi0, 5.0, p, observer=observer)
        recs = log.records
        e = np.array([r.E for r in recs])
        e_mod = np.array([r.E_mod for r in recs])
        assert len(recs) > k + 1
        assert np.all(np.diff(e_mod) <= 1e-9 * np.abs(e_mod[:-1]))
        assert np.all(e_mod >= e)
        assert np.any(e_mod > e)
        assert recs[-1].E_mod == recs[-1].E
        r = recs[k + 1].tau / recs[k].tau
        want = modified_energy(kept["phi_k"], kept["phi_km1"], recs[k].tau, r, p)
        assert recs[k].E_mod == pytest.approx(want, rel=1e-14)


class TestEnergyLawOnS1Meshes:
    def test_modified_energy_never_rises(self):
        """BDF2 on drawn meshes in S1 that pass the step-size restriction:
        random ratios, and ratios alternating between U(3.0, 3.55) and their
        inverses.

        The theorem is a sufficient condition, so only meshes it covers are
        run; nothing is asserted about meshes outside it.
        """
        g = Grid2D(64, 32.0)
        p = PfcParams(0.25, g)
        phi0 = random_initial(0.1, 0.02, g, 2023)
        rng = np.random.default_rng(2023)
        # about 600 random draws per mesh that passes; at this eps every
        # alternating mesh passes
        for draw, count in ((lambda: random_s1_mesh(rng, n_max=120, n_min=40), 6),
                            (lambda: alternating_ratio_mesh(rng, 60), 8)):
            runs = 0
            while runs < count:
                mesh = draw()
                if not mesh.satisfies_s1() or check_restriction(mesh, p.eps):
                    continue
                _, recs = run_with_energy_log(phi0, mesh.steps, p)
                e_mod = np.array([r.E_mod for r in recs])
                assert np.all(np.diff(e_mod) <= 1e-9 * np.abs(e_mod[:-1]))
                m0 = recs[0].mass
                assert max(abs(r.mass - m0) for r in recs) <= 1e-12 * abs(m0)
                runs += 1


class TestOscillation:
    def test_smooth_profile(self):
        x = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        assert oscillation_indicator(np.sin(x)) <= 2

    def test_alternating_profile(self):
        prof = np.array([0.0, 1.0] * 16)
        assert oscillation_indicator(prof) == 29

    def test_linear_profile(self):
        # exactly representable increments: the second difference is 0
        assert oscillation_indicator(0.25 * np.arange(50)) == 0

    def test_midline_shape(self):
        g = Grid2D(16, 8.0)
        f = Field(g, np.arange(256, dtype=float).reshape(16, 16))
        prof = midline(f)
        assert prof.shape == (16,)
        assert np.array_equal(prof, f.values[:, 8])


class TestKernelsReport:
    def test_report_rows_and_footer(self, tmp_path):
        m = random_mesh(20, 1.0, 4)
        path = os.path.join(tmp_path, "kernels.csv")
        rows, eb = kernels_report(m, path)
        assert len(rows) == 20
        assert all(row[6] <= 1e-10 for row in rows)
        assert all(row[5] <= 1e-12 for row in rows)
        assert eb.lam_min >= 21.0 / 40.0 - 1e-9
        assert eb.lam_max <= 53.0 / 5.0 + 1e-9
        text = pathlib.Path(path).read_text()
        assert text.startswith("n,tau,r,b0,b1")
        assert "lam_min=" in text

    def test_kernels_formed_once(self, monkeypatch):
        """A report forms the BDF2 kernels once and hands them to the DOC
        row sums and the orthogonality check."""
        calls = []
        coeffs = kernels.bdf2_coeffs

        def counted(mesh):
            calls.append(mesh)
            return coeffs(mesh)

        monkeypatch.setattr(kernels, "bdf2_coeffs", counted)
        monkeypatch.setattr(ex, "bdf2_coeffs", counted)
        m = random_mesh(50, 1.0, 8)
        kernels_report(m)
        assert len(calls) == 1 and calls[0] is m

    def test_report_memory_is_linear(self):
        # the O(N) recurrences keep a report at N = 2e4 to a few MB: 6.7 MB
        # measured, nearly all of it the returned rows and the columns they
        # are zipped from, where a triangular DOC table alone would take 1.6 GB
        m = random_mesh(20000, 1.0, 3)
        tracemalloc.start()
        try:
            rows, _ = kernels_report(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 20000
        assert max(row[5] for row in rows) <= 1e-12
        assert rows[0][6] <= 1e-10
        assert peak < 8e6

    def test_cli_on_huge_ratio_mesh(self, tmp_path, capsys):
        # its largest step ratio is 9.8e5, so lam_max is near 1e6
        from pfc.cli import main
        spec = "random:300,1.0,78396460"
        path = str(tmp_path / "k.csv")
        assert main(["kernels", "--mesh", spec, "--report", path]) == 0
        assert "300 levels" in capsys.readouterr().out
        lines = pathlib.Path(path).read_text().splitlines()
        assert lines[0].startswith("n,tau,r,b0,b1")
        assert len([ln for ln in lines[1:] if not ln.startswith("#")]) == 300
        footer = dict(kv.split("=") for kv in lines[-1].lstrip("# ").split(","))
        m = random_mesh(300, 1.0, 78396460)
        km = kernel_matrices(m)
        want_min = np.linalg.eigvalsh(km.Bt)[0]
        want_max = np.linalg.eigvalsh(km.B2t.T @ km.B2t)[-1]
        assert want_max > 5e5
        assert float(footer["lam_min"]) == pytest.approx(want_min, rel=1e-8)
        assert float(footer["lam_max"]) == pytest.approx(want_max, rel=1e-8)
