"""One benchmark process: set up a workload, run timed units, check outputs.

``run.py`` starts this file in a fresh interpreter for every workload run, so
set-up time and peak memory belong to that workload alone.  It prints one
JSON object on standard output.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \\
        --mode setup|run|trace --work-dir DIR

``setup`` times importing pfc (and numpy) plus building the inputs, then
exits.  ``run`` times units, each ``REPEATS`` times, with only the step clock
and the host probe installed.  ``trace`` runs half as many executions
untraced, each on its own input, then the same inputs traced, and reports
the per-layer metrics.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def tail(samples: list[float]) -> tuple[float, int]:
    """(value, p) for the highest whole percentile p with 10 samples beyond it.

    Nearest-rank percentiles; with fewer than 20 samples this is the median.
    """
    s = sorted(samples)
    n = len(s)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return s[rank - 1], p
    return statistics.median(s), 50


def unit_seed(seed: int, k: int) -> int:
    """Seed of the k-th unit: the run's own seed first, then mixed ones."""
    if k == 0:
        return seed
    z = (seed * 0x9E3779B97F4A7C15 + k * 0xBF58476D1CE4E5B9) & 0xFFFFFFFF
    return int(z ^ (z >> 15)) & 0x7FFFFFFF


class UnitOverrun(Exception):
    """A unit ran ten times its expected time: the program does not return."""


def _overrun(signum, frame):
    raise UnitOverrun("unit ran past its time limit")


class HostProbe:
    """Host speed, sampled by timing a fixed reference computation.

    On a shared host the same code runs up to twice as slowly for seconds at
    a time, and the host's speed drifts by a fifth over minutes.  The probe
    runs between steps (at most every ``EVERY_S``) and around each timed
    unit, outside their timings.  It does the workload's kinds of work
    without pfc: 400 interpreted-Python operations on numpy scalars and, on
    a grid workload, an FFT pair and two elementwise products at the
    workload's grid size, once at 128^2 and above, (128/n)^2 times below.  A stretch of work is scaled by ``ref_s / p``,
    where ``p`` is the median probe time within ``WINDOW_S`` of it, so the
    figures are seconds at the host speed at which the probe takes ``ref_s``.
    """

    EVERY_S = 0.05
    WINDOW_S = 0.1

    def __init__(self, grid_n: int, ref_s: float):
        import numpy as np
        self.np = np
        rng = np.random.default_rng(0)
        self.scalars = rng.random(64)
        self.field = rng.random((grid_n, grid_n)) if grid_n else None
        # below 128^2 the grid work is repeated, or the Python part would
        # outweigh it, as it does not in a step on a small grid
        self.grid_reps = max(1, (128 // grid_n) ** 2) if grid_n else 0
        self.ref_s = ref_s
        self.times: list[float] = []    # clock reading at the end of each probe
        self.probe_s: list[float] = []  # its duration
        self.spent = 0.0
        self._next = 0.0

    def _work(self):
        a, np = self.scalars, self.np
        s = 0.0
        for i in range(400):
            s = max(s, abs(a[i % 64] - 0.5))
        if self.field is not None:
            f = self.field
            for _ in range(self.grid_reps):
                s += float((f * np.fft.ifft2(np.fft.fft2(f)).real + f).sum())
        return s

    def sample(self):
        t0 = time.perf_counter()
        self._work()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.probe_s.append(t1 - t0)
        self.spent += t1 - t0
        self._next = t1 + self.EVERY_S

    def maybe(self):
        if time.perf_counter() >= self._next:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """ref_s over the median probe within WINDOW_S of [t0, t1]; the
        probe on each side counts even when it is further away."""
        lo = max(bisect.bisect_left(self.times, t0 - self.WINDOW_S) - 1, 0)
        hi = bisect.bisect_right(self.times, t1 + self.WINDOW_S) + 1
        return self.ref_s / statistics.median(self.probe_s[lo:hi])

    def scaled(self, t0: float, t1: float) -> float:
        """Work time in [t0, t1] without the probes run inside it, each
        stretch between two probes scaled on its own."""
        i = bisect.bisect_right(self.times, t0)
        j = bisect.bisect_left(self.times, t1)
        total, start = 0.0, t0
        for k in range(i, j):
            stop = self.times[k] - self.probe_s[k]
            total += (stop - start) * self.scale(start, stop)
            start = self.times[k]
        return total + (t1 - start) * self.scale(start, t1)


class Phase:
    """Timed units of one workload, with inputs and checks made untimed."""

    def __init__(self, wl, checks, instruments, work_dir: str, probe=None):
        self.wl, self.ck, self.work_dir = wl, checks, work_dir
        self.instruments = instruments
        self.probe = probe
        self.unit_s: list[float] = []
        self.raw_unit_s: list[float] = []   # unscaled, the least of the repeats
        self.latencies: list[float] = []
        self.accepted = 0      # accepted steps of one pass over the inputs
        self.executions = 0    # timed unit executions, repeats included
        self.exec_s = 0.0      # their total unscaled time
        self.calls = 0   # solver calls of a workload without steps
        self.reported_iters = 0
        self.results = []   # kept only for workloads with a whole-phase check
        self.errors: list[str] = []

    def _pause(self, on: bool):
        for inst in self.instruments.values():
            inst.on = on

    def run(self, seeds: list[int], repeats: int, stop_at: float, oracles: bool):
        """Time every unit ``repeats`` times, round robin over the seeds.

        With a host probe, every time is first scaled to the host speed the
        probe saw around it.  A unit's time is then the least of its
        repeats, and so is each of its step latencies, step by step: a unit
        is deterministic, so its k-th step does the same work in every
        repeat.  This drops the steps that a brief stall of the host hit.
        """
        inputs: dict[int, object] = {}
        best: dict[int, float] = {}
        raw: dict[int, float] = {}
        steps: dict[int, list[float]] = {}
        ok = True
        for rep in range(repeats):
            for k, seed in enumerate(seeds):
                ok = self._unit(k, seed, rep, inputs, best, raw, steps, oracles)
                # a failed unit ends the phase; a much slower machine ends it
                # early, to keep the run bounded
                if not ok or time.perf_counter() > stop_at:
                    break
            if not ok or time.perf_counter() > stop_at:
                break
        self.unit_s = [best[k] for k in sorted(best)]
        self.raw_unit_s = [raw[k] for k in sorted(raw)]
        self.latencies = [t for k in sorted(steps) for t in steps[k]]
        if ok and self.results:
            self.wl.check_phase(self.results, self.ck)

    def _unit(self, k, seed, rep, inputs, best, raw, steps, oracles) -> bool:
        """One timed execution of unit k and its checks; False ends the phase."""
        clock, probe = self.instruments.get("clock"), self.probe
        self._pause(False)
        if k not in inputs:
            inputs[k] = self.wl.setup(seed, self.work_dir)
        inp = inputs[k]
        if probe:
            probe.sample()
        self._pause(True)
        mark = len(clock.samples) if clock else 0
        spent = probe.spent if probe else 0.0
        try:
            # a unit that never returns is a failed operation, not a hung run
            signal.setitimer(signal.ITIMER_REAL, 10 * self.wl.UNIT_S)
            t0 = time.perf_counter()
            res = self.wl.unit(inp)
            t1 = time.perf_counter()
        except Exception:   # a failed operation ends the phase
            self.errors.append(f"unit {k}, seed {seed}: "
                               + traceback.format_exc(limit=-4))
            return False
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._pause(False)
        dt = t1 - t0 - ((probe.spent - spent) if probe else 0.0)
        self.exec_s += dt
        self.executions += 1
        raw[k] = min(dt, raw.get(k, dt))
        if probe:
            probe.sample()
            dt = probe.scaled(t0, t1)
        best[k] = min(dt, best.get(k, dt))
        if rep == 0:
            self.accepted += self.wl.accepted(res)
        if hasattr(self.wl, "iterations"):
            self.reported_iters += self.wl.iterations(res)
        if not self.wl.STEPPING:
            self.calls += len(res)
            new = [dt]
        elif clock:
            new = clock.samples[mark:]
            self.ck.gate("clock_counts_accepted_steps",
                         len(new) == self.wl.accepted(res), len(new))
            if probe:
                new = [t * probe.scale(end - t, end)
                       for t, end in zip(new, clock.ends[mark:])]
        else:
            new = []
        if rep == 0:
            steps[k] = new
        else:
            self.ck.gate("repeat_takes_same_steps", len(new) == len(steps[k]),
                         f"{len(new)} vs {len(steps[k])}")
            steps[k] = [min(a, b) for a, b in zip(steps[k], new)]
        try:
            self.wl.check(inp, res, self.ck, first=oracles and k == 0 and rep == 0)
        except Exception:
            self.errors.append(traceback.format_exc(limit=4))
            return False
        finally:
            self._pause(True)
        if hasattr(self.wl, "check_phase") and rep == 0:
            self.results.append(res)
        return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args(argv)

    import workloads   # imports numpy and pfc: part of the set-up time
    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(args.seed, args.work_dir)
    setup_s = time.perf_counter() - T_START
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy
    import pfc
    import tracer as tr

    signal.signal(signal.SIGALRM, _overrun)
    patcher = tr.Patcher()
    clock = tr.StepClock()
    clock.install(patcher)
    ck = workloads.Checks()
    out = {"numpy": numpy.__version__, "pfc_file": pfc.__file__}

    stepping = wl.STEPPING
    repeats = wl.REPEATS
    units = max(1, round(args.seconds / (wl.UNIT_S * repeats)))
    if args.mode == "trace":
        # per-layer figures need no repeats: half the executions run plain,
        # half traced, each on its own input
        units, repeats = max(1, units * repeats // 2), 1
    seeds = [unit_seed(args.seed, k) for k in range(units)]
    stop_at = time.perf_counter() + 2 * args.seconds
    probe = HostProbe(*wl.PROBE) if args.mode == "run" else None
    if probe:
        probe.sample()   # warm-up, kept out of the scales
        probe.times.clear()
        probe.probe_s.clear()
        clock.after_step = probe.maybe
    plain = Phase(wl, ck, {"clock": clock}, args.work_dir, probe)
    plain.run(seeds, repeats, stop_at, oracles=True)
    phases = [plain]
    solver_calls = (len(clock.samples) + clock.rejections + clock.solver_errors
                    if stepping else plain.calls)

    if args.mode == "trace" and not plain.errors:
        tracer = tr.Tracer()
        tracer.install(patcher)
        traced = Phase(wl, ck, {"tracer": tracer}, args.work_dir)
        traced.run(seeds, repeats, stop_at, oracles=False)
        phases.append(traced)
        tot = tracer.totals()
        solver_calls += tot["step_calls"] if stepping else traced.calls
        if traced.unit_s:
            layers = tracer.layer_metrics(traced.executions, traced.exec_s)
            layers["trace.overhead_frac"] = (statistics.median(traced.unit_s)
                                             / statistics.median(plain.unit_s) - 1.0)
            out["layers"] = layers
        # the traced counts must match the solver's own numbers
        accepted = traced.accepted if stepping else 0
        ck.gate("trace_step_calls", tot["step_calls"] == accepted + tot["rejections"],
                f"{tot['step_calls']} calls, {accepted} accepted + "
                f"{tot['rejections']} rejected")
        if tr.FP_SOLVE in tracer.missing:
            out["note"] = f"{tr.FP_SOLVE} not found; fp_iters from step results"
        else:
            ck.gate("trace_fp_iters", tot["fp_iters"] == tot["step_iters"],
                    f"{tot['fp_iters']} vs {tot['step_iters']}")
        if hasattr(wl, "iterations") and tot["rejections"] == 0:
            ck.gate("trace_fp_iters_logged", tot["step_iters"] == traced.reported_iters,
                    f"{tot['step_iters']} vs {traced.reported_iters}")
        out["trace_missing"] = tracer.missing

    errors = [e for p in phases for e in p.errors]
    if plain.latencies:
        tail_s, tail_p = tail(plain.latencies)
        out.update({"steps_per_s": plain.accepted / sum(plain.unit_s),
                    "step_ms_p50": 1e3 * statistics.median(plain.latencies),
                    "step_ms_tail": 1e3 * tail_s, "tail_percentile": tail_p})
    out.update({
        "unit_seeds": seeds,
        "unit_s": plain.unit_s,
        "raw_unit_s": plain.raw_unit_s,
        "accepted": plain.accepted,
        "latency_n": len(plain.latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "probe_ms": ([1e3 * statistics.quantiles(probe.probe_s, n=10)[i] for i in (0, 4, 8)]
                     if probe and len(probe.probe_s) > 1 else None),
        "attempted": solver_calls + len(ck.results),
        "failed": len(errors) + len(ck.failed),
        "failed_checks": ck.failed,
        "errors": errors,
        "observed": ck.observed,
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
