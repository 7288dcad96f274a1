"""Benchmark entry point for the pfc solver.

    python3 perfbench/run.py --workload polycrystal --seed 2023 --seconds 20 --trace 0

Runs from the root of a source checkout; pfc is imported from ``src/``.
Each call starts fresh interpreters: ``SETUP_REPEATS`` set-up runs, whose
median is ``setup_s``, then one worker that runs the workload's units for
``--seconds`` and checks every output.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it holds the environment and the details
behind each figure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("polycrystal", "schemes", "ladder", "certify")
SETUP_REPEATS = 9
TOTAL_LIMIT_S = 170.0
END_TO_END = {"setup_s": "s", "wall_s": "s", "steps_per_s": "1/s",
              "step_ms_p50": "ms", "step_ms_tail": "ms", "peak_rss_mb": "MB"}


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pfc").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {"python": platform.python_version(), "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
            "src_sha256": digest.hexdigest()[:16]}


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child(args, mode: str, work_dir: Path, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--work-dir", str(work_dir)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"worker ({mode}) printed nothing:\n{proc.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=2023)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pfc" / "__init__.py").is_file():
        print(f"no pfc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TOTAL_LIMIT_S
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setups = [child(args, "setup", work_dir, deadline)["setup_s"]
                  for _ in range(SETUP_REPEATS)]
        res = child(args, "trace" if args.trace else "run", work_dir, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    if not res["unit_s"]:
        print(f"no unit of work completed: {res['errors']}", file=sys.stderr)
        return 1
    if args.trace:
        layers = res.get("layers")
        if layers is None:
            print(f"traced phase produced no units: {res['errors']}", file=sys.stderr)
            return 1
        metrics = {k: {"value": layers[k], "unit": u} for k, u in LAYER_UNITS.items()}
    else:
        values = {"setup_s": statistics.median(setups),
                  "wall_s": sum(res["unit_s"]),
                  "steps_per_s": res["steps_per_s"],
                  "step_ms_p50": res["step_ms_p50"],
                  "step_ms_tail": res["step_ms_tail"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    attempted, failed = res["attempted"], res["failed"]
    details = {"environment": environment() | {"numpy": res["numpy"]},
               "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "pfc": res["pfc_file"], "setup_s_samples": setups,
               "unit_seeds": res["unit_seeds"], "unit_s": res["unit_s"],
               "raw_unit_s": res["raw_unit_s"], "probe_ms_p10_p50_p90": res["probe_ms"],
               "accepted": res["accepted"], "latency_samples": res["latency_n"],
               "tail_percentile": res.get("tail_percentile"),
               "failed_frac": failed / attempted if attempted else 1.0,
               "failed_checks": res["failed_checks"], "errors": res["errors"],
               "observed": res["observed"]}
    for key in ("note", "trace_missing"):
        if key in res:
            details[key] = res[key]
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
