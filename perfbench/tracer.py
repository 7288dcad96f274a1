"""Instrumentation installed from outside the pfc package.

Two kinds of wrapper replace functions at every place they are looked up
(module globals of ``pfc`` and its submodules, and the ``numpy.fft``
namespace), so calls made through ``from .x import f`` bindings, module
attributes such as ``_st.bdf2_step`` and call-time imports are all seen:

* ``StepClock`` times each accepted step.  It wraps only the step functions
  of ``pfc.steppers`` and ``pfc.adaptive.adaptive_advance``; its cost is two
  clock reads per step, so it stays on in untraced runs.  Between steps,
  outside their timing, it calls ``after_step`` (the host probe, if set).
* ``Tracer`` records a span for every call of a public function of each pfc
  module and for every ``numpy.fft`` transform, and counts and times every
  generator draw inside the enclosing span.  Spans stay in memory as (name, parent, start, end) and are reduced to the
  per-layer metrics when the run ends.
"""

from __future__ import annotations

import inspect
import sys
import time
import types

FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
             "fftn", "ifftn", "rfftn", "irfftn")
STEP_ERRORS = ("SolverError", "ConditioningError")
DIAG_NAMES = ("model.energy", "model.modified_energy", "model.mass")
FP_SOLVE = "steppers.fixed_point_solve"
ADVANCE = "adaptive.adaptive_advance"
LAYER_UNITS = {
    "grid.fft_calls": "count",
    "grid.fft_ms": "ms",
    "grid.fft_mb_computed": "MB",
    "grid.fft_per_step": "count",
    "steppers.step_calls": "count",
    "steppers.step_ms": "ms",
    "steppers.self_ms": "ms",
    "steppers.fp_iters": "count",
    "steppers.iters_per_step": "count",
    "steppers.fft_per_iter": "count",
    "steppers.solve_failures": "count",
    "adaptive.trial_steps": "count",
    "adaptive.rejections": "count",
    "adaptive.accept_ratio": "frac",
    "adaptive.self_ms": "ms",
    "model.energy_calls": "count",
    "model.energy_ms": "ms",
    "model.modified_energy_ms": "ms",
    "model.mass_ms": "ms",
    "model.diag_share": "frac",
    "model.forcing_calls": "count",
    "model.forcing_ms": "ms",
    "kernels.levels": "count",
    "kernels.doc_ms": "ms",
    "kernels.ortho_ms": "ms",
    "kernels.eigen_ms": "ms",
    "mesh.analyze_ms": "ms",
    "mesh.restriction_ms": "ms",
    "cli.self_ms": "ms",
    "experiments.csv_ms": "ms",
    "experiments.self_ms": "ms",
    "rng.draws": "count",
    "rng.ms": "ms",
    "trace.overhead_frac": "frac",
}


def _pfc_modules() -> list[types.ModuleType]:
    return [m for n, m in sorted(sys.modules.items())
            if (n == "pfc" or n.startswith("pfc.")) and m is not None]


def _is_step(name: str) -> bool:
    return name.startswith("steppers.") and name.endswith("_step")


class Patcher:
    """Swap a function for a wrapper in every namespace that binds it."""

    def __init__(self):
        self.current: dict[int, object] = {}   # id(original) -> bound object

    def replace(self, original, wrapper, namespaces):
        old = self.current.get(id(original), original)
        for ns in namespaces:
            for key, val in list(vars(ns).items()):
                if val is original or val is old:
                    setattr(ns, key, wrapper)
        self.current[id(original)] = wrapper


def _original(fn):
    """The pfc function behind a wrapper installed here, else fn itself."""
    return getattr(fn, "_perfbench_original", fn)


def _mark(wrapper, fn):
    wrapper._perfbench_original = fn
    return wrapper


def public_functions() -> list[tuple[str, object]]:
    """(layer.name, function) for each public function defined in pfc."""
    out = []
    for mod in _pfc_modules():
        if mod.__name__ == "pfc":
            continue
        layer = mod.__name__.split(".", 1)[1]
        for key, val in vars(mod).items():
            fn = _original(val)
            if (inspect.isfunction(fn) and not key.startswith("_")
                    and fn.__module__ == mod.__name__):
                out.append((f"{layer}.{key}", fn))
    return out


class StepClock:
    """Latency of each accepted step, as seen by the caller of the step."""

    def __init__(self):
        self.samples: list[float] = []   # seconds per accepted step
        self.ends: list[float] = []      # clock reading at the end of each
        self.after_step = None
        self.rejections = 0
        self.solver_errors = 0
        self.on = True
        self._in_advance = 0

    def install(self, patcher: Patcher):
        mods = _pfc_modules()
        for name, fn in public_functions():
            if _is_step(name):
                patcher.replace(fn, self._wrap(fn, advance=False), mods)
            elif name == ADVANCE:
                patcher.replace(fn, self._wrap(fn, advance=True), mods)

    def _wrap(self, fn, advance: bool):
        clock = time.perf_counter

        def timed(*args, **kwargs):
            if not self.on or (self._in_advance and not advance):
                return fn(*args, **kwargs)   # paused, or a controller trial
            self._in_advance += advance
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ in STEP_ERRORS:
                    self.solver_errors += 1
                raise
            finally:
                self._in_advance -= advance
            t1 = clock()
            self.samples.append(t1 - t0)
            self.ends.append(t1)
            if advance:
                self.rejections += int(getattr(res, "rejections", 0))
            if self.after_step is not None:
                self.after_step()
            return res

        return _mark(timed, fn)


class Tracer:
    """In-memory spans plus the few return values the metrics need."""

    def __init__(self):
        self.spans: list[tuple] = []     # (name, parent index, t0, t1)
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.active: dict[str, int] = {}
        self.draw_s: dict[int, float] = {}   # span index -> time in draws
        self.missing: list[str] = []
        self.on = True

    # -- installation -------------------------------------------------------
    def install(self, patcher: Patcher):
        import numpy.fft as npfft

        mods = _pfc_modules()
        for name, fn in public_functions():
            patcher.replace(fn, self._wrap(name, fn), mods)
        for key in FFT_NAMES:
            fn = getattr(npfft, key, None)
            if fn is not None:
                patcher.replace(fn, self._wrap(f"grid.fft.{key}", fn),
                                mods + [npfft])
        rng = sys.modules.get("pfc.rng")
        gen = getattr(rng, "SplitMix64", None)
        if gen is not None and hasattr(gen, "next_u64"):
            gen.next_u64 = self._wrap_draw(gen.next_u64)
        else:
            self.missing.append("rng.SplitMix64.next_u64")
        names = {n for n, _ in public_functions()}
        self.missing += [n for n in (FP_SOLVE, ADVANCE, "model.energy",
                                     "kernels.eigen_bounds") if n not in names]

    def _add(self, key: str, val: float):
        self.counts[key] = self.counts.get(key, 0) + val

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        spans, stack, active = self.spans, self.stack, self.active
        is_fft = name.startswith("grid.fft.")
        is_step = _is_step(name)

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            active[name] = active.get(name, 0) + 1
            if is_fft and active.get(FP_SOLVE):
                self._add("fft_in_solve", 1)
            if is_step and active.get(ADVANCE):
                self._add("trial_steps", 1)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            except Exception as exc:
                if is_step and type(exc).__name__ in STEP_ERRORS:
                    self._add("solve_failures", 1)
                raise
            finally:
                t1 = clock()
                spans[idx] = (name, parent, t0, t1)
                stack.pop()
                active[name] -= 1
            self._observe(name, args, res)
            return res

        return _mark(traced, fn)

    def _wrap_draw(self, fn):
        clock = time.perf_counter
        stack, draw_s = self.stack, self.draw_s

        def draw(gen):
            if not self.on:
                return fn(gen)
            t0 = clock()
            val = fn(gen)
            dt = clock() - t0
            if stack:
                draw_s[stack[-1]] = draw_s.get(stack[-1], 0.0) + dt
            self._add("rng_s", dt)
            self._add("rng_draws", 1)
            return val

        return _mark(draw, fn)

    def _observe(self, name: str, args, res):
        """Read the counts the solver itself reports through return values."""
        if name.startswith("grid.fft."):
            nbytes = getattr(args[0], "nbytes", 0) if args else 0
            self._add("fft_bytes", nbytes + getattr(res, "nbytes", 0))
        elif name == FP_SOLVE:
            self._add("fp_iters", _iterations(res))
        elif _is_step(name):
            self._add("step_iters", _iterations(res))
        elif name == ADVANCE:
            self._add("rejections", int(getattr(res, "rejections", 0)))
        elif name == "kernels.eigen_bounds" and args:
            self._add("levels", int(getattr(args[0], "N", 0)))

    # -- reduction ----------------------------------------------------------
    def layer_metrics(self, units: int, wall_s: float) -> dict[str, float]:
        """Per-unit layer metrics from the recorded spans."""
        n = len(self.spans)
        child = [0.0] * n
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for idx, dt in self.draw_s.items():
            child[idx] += dt
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        self_by_layer: dict[str, float] = {}
        diag_s = 0.0
        for i, (name, parent, t0, t1) in enumerate(self.spans):
            dur = t1 - t0
            calls[name] = calls.get(name, 0) + 1
            if not _inside(self.spans, parent, name.__eq__):
                incl[name] = incl.get(name, 0.0) + dur
            layer = "grid" if name.startswith("grid.fft.") else name.split(".", 1)[0]
            self_by_layer[layer] = self_by_layer.get(layer, 0.0) + dur - child[i]
            if name in DIAG_NAMES and not _inside(self.spans, parent, DIAG_NAMES.__contains__):
                diag_s += dur
        fft_calls = sum(v for k, v in calls.items() if k.startswith("grid.fft."))
        fft_s = sum(v for k, v in incl.items() if k.startswith("grid.fft."))
        step_calls = sum(v for k, v in calls.items() if _is_step(k))
        step_s = sum(v for k, v in incl.items() if _is_step(k))
        c = self.counts
        fp_iters = c.get("step_iters" if FP_SOLVE in self.missing else "fp_iters", 0)
        trials = c.get("trial_steps", 0)
        advances = calls.get(ADVANCE, 0)
        per = 1.0 / max(units, 1)
        ms = lambda key: incl.get(key, 0.0) * 1e3 * per
        return {
            "grid.fft_calls": fft_calls * per,
            "grid.fft_ms": fft_s * 1e3 * per,
            "grid.fft_mb_computed": c.get("fft_bytes", 0) / 1e6 * per,
            "grid.fft_per_step": fft_calls / step_calls if step_calls else 0.0,
            "steppers.step_calls": step_calls * per,
            "steppers.step_ms": step_s * 1e3 * per,
            "steppers.self_ms": self_by_layer.get("steppers", 0.0) * 1e3 * per,
            "steppers.fp_iters": fp_iters * per,
            "steppers.iters_per_step": fp_iters / step_calls if step_calls else 0.0,
            "steppers.fft_per_iter": c.get("fft_in_solve", 0) / fp_iters if fp_iters else 0.0,
            "steppers.solve_failures": c.get("solve_failures", 0) * per,
            "adaptive.trial_steps": trials * per,
            "adaptive.rejections": c.get("rejections", 0) * per,
            "adaptive.accept_ratio": advances / trials if trials else 0.0,
            "adaptive.self_ms": self_by_layer.get("adaptive", 0.0) * 1e3 * per,
            "model.energy_calls": calls.get("model.energy", 0) * per,
            "model.energy_ms": ms("model.energy"),
            "model.modified_energy_ms": ms("model.modified_energy"),
            "model.mass_ms": ms("model.mass"),
            "model.diag_share": diag_s / wall_s if wall_s > 0 else 0.0,
            "model.forcing_calls": calls.get("model.manufactured_forcing", 0) * per,
            "model.forcing_ms": ms("model.manufactured_forcing"),
            "kernels.levels": c.get("levels", 0) * per,
            "kernels.doc_ms": ms("kernels.doc_kernels"),
            "kernels.ortho_ms": ms("kernels.verify_orthogonality"),
            "kernels.eigen_ms": ms("kernels.eigen_bounds"),
            "mesh.analyze_ms": ms("mesh.analyze"),
            "mesh.restriction_ms": ms("mesh.check_restriction"),
            "cli.self_ms": self_by_layer.get("cli", 0.0) * 1e3 * per,
            "experiments.csv_ms": ms("experiments.write_csv"),
            "experiments.self_ms": self_by_layer.get("experiments", 0.0) * 1e3 * per,
            "rng.draws": c.get("rng_draws", 0) * per,
            "rng.ms": c.get("rng_s", 0.0) * 1e3 * per,
        }

    def totals(self) -> dict[str, float]:
        """Whole-phase totals used by the count cross-checks."""
        step_calls = sum(1 for s in self.spans if _is_step(s[0]))
        return {"step_calls": step_calls,
                "fp_iters": self.counts.get("fp_iters", 0),
                "step_iters": self.counts.get("step_iters", 0),
                "rejections": self.counts.get("rejections", 0)}


def _inside(spans, idx: int, match) -> bool:
    """Whether span idx or one of its ancestors has a name that matches."""
    while idx >= 0:
        if match(spans[idx][0]):
            return True
        idx = spans[idx][1]
    return False


def _iterations(res) -> int:
    """SolveStats.iterations from a (values, stats) pair, else 0."""
    stats = res[1] if isinstance(res, tuple) and len(res) == 2 else None
    return int(getattr(stats, "iterations", 0))
