"""Command-line front end.

Subcommands mirror the experiment harnesses:

  pfc kernels      --mesh SPEC --report out.csv
  pfc convergence  [--grid-m M] [--seed S] [--out DIR]
  pfc compare      [--seed S] [--out DIR] [--scheme NAME]
  pfc polycrystal  [--seed S] [--out DIR] [--long]

Config files are flat `key = value` text; command-line flags win over the
file.  Exit codes: 0 all runs converged, 2 solver failure, 3 config error.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import os
import sys
from dataclasses import astuple

import numpy as np

from . import experiments as ex
from .mesh import parse_mesh_spec
from .steppers import SCHEMES, ConditioningError, SolverError


def load_config(path: str) -> dict:
    cfg = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line or line.startswith("["):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            cfg[key] = val
    return cfg


BOOLEANS = {"true": True, "yes": True, "on": True, "1": True,
            "false": False, "no": False, "off": False, "0": False}


def config_value(action: argparse.Action, key: str, text: str):
    """Parse a config-file value the way the matching flag would.

    On/off flags take true/false, yes/no, on/off or 1/0; repeatable options
    take a comma-separated list; everything else goes through the option's
    type, and choices are enforced.
    """
    if action.nargs == 0:
        try:
            return BOOLEANS[text.lower()]
        except KeyError:
            raise ValueError(f"{key}: expected true or false, got {text!r}") from None
    repeatable = isinstance(action, argparse._AppendAction)
    convert = action.type or str
    values = [convert(item.strip()) for item in (text.split(",") if repeatable else [text])]
    for v in values:
        if action.choices is not None and v not in action.choices:
            raise ValueError(f"{key}: {v!r} is not one of {', '.join(action.choices)}")
    return values if repeatable else values[0]


def apply_config(parser: argparse.ArgumentParser, given, file_cfg: dict):
    """Fill the options missing from ``given`` from the config file.

    ``given`` is a parse by ``_given_parser``, so it holds the subcommand and
    only the options on the command line: those win over the file, whatever
    their value.  Keys of another subcommand are skipped; a key that names
    no option at all is an error, and so are ``help`` (no value: its default
    is SUPPRESS), ``config`` and ``command``.
    """
    known = {a.dest for p in parser.subcommands.values() for a in p._actions
             if a.default is not argparse.SUPPRESS}
    actions = {a.dest: a for a in parser.subcommands[given.command]._actions}
    for key, text in file_cfg.items():
        dest = key.replace("-", "_")
        if dest not in known:
            raise ValueError(f"unknown config key {key!r}")
        action = actions.get(dest)
        if action is not None and not hasattr(given, dest):
            setattr(given, dest, config_value(action, key, text))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pfc",
                                     description="Variable-step PFC solver")
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernels", help="kernel identities and certificates")
    k.add_argument("--mesh", required=True,
                   help="uniform:N,T | random:N,T,seed | path to tau file")
    k.add_argument("--report", default="kernels.csv")

    c = sub.add_parser("convergence", help="random-mesh accuracy ladder")
    c.add_argument("--grid-m", type=int, default=128)
    c.add_argument("--seed", type=int, default=2023)
    c.add_argument("--out", default="out_convergence")
    c.add_argument("--mesh-kind", choices=["random", "uniform"], default="random")

    m = sub.add_parser("compare", help="BDF2 / CN / CNCS comparison")
    m.add_argument("--seed", type=int, default=2023)
    m.add_argument("--out", default="out_compare")
    m.add_argument("--scheme", choices=SCHEMES, action="append",
                   help="restrict to given scheme(s)")
    m.add_argument("--skip-energy-runs", action="store_true")

    g = sub.add_parser("polycrystal", help="polycrystal growth")
    g.add_argument("--seed", type=int, default=2023)
    g.add_argument("--out", default="out_polycrystal")
    g.add_argument("--long", action="store_true",
                   help="also run the long adaptive leg with snapshots")
    parser.subcommands = {"kernels": k, "convergence": c, "compare": m,
                          "polycrystal": g}
    return parser


def _echo_config(out_dir: str, args):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.txt"), "w") as fh:
        for key, val in sorted(vars(args).items()):
            fh.write(f"{key} = {val}\n")


def cmd_kernels(args) -> int:
    mesh = parse_mesh_spec(args.mesh)
    ex.kernels_report(mesh, args.report)
    print(f"wrote {args.report} ({mesh.N} levels)")
    return 0


def cmd_convergence(args) -> int:
    _echo_config(args.out, args)
    rows = ex.run_convergence(M=args.grid_m, seed=args.seed,
                              mesh_kind=args.mesh_kind)
    ex.write_csv(os.path.join(args.out, "convergence.csv"),
                 ["N", "tau_max", "error", "order", "max_ratio", "N1"], map(astuple, rows))
    for r in rows:
        print(f"N={r.N:4d}  tau={r.tau_max:.3e}  e={r.error:.3e}  "
              f"order={r.order:5.2f}  max_r={r.max_ratio:8.2f}  N1={r.n1}")
    return 0


def cmd_compare(args) -> int:
    _echo_config(args.out, args)
    schemes = tuple(args.scheme) if args.scheme else SCHEMES
    res = ex.run_compare(seed=args.seed, schemes=schemes,
                         with_energy_runs=not args.skip_energy_runs)
    ex.write_csv(os.path.join(args.out, "profile_reference.csv"), ["phi"],
                 [(float(v),) for v in res.reference])
    for (scheme, tau), prof in res.profiles.items():
        ex.write_csv(os.path.join(args.out, f"profile_{scheme}_tau{tau:g}.csv"),
                     ["phi"], [(float(v),) for v in prof])
    for (scheme, tau), recs in res.energy_logs.items():
        ex.write_csv(os.path.join(args.out, f"energy_{scheme}_tau{tau:g}.csv"),
                     ex.ENERGY_HEADER, ex.energy_rows(recs))
    if res.energy_logs:
        ex.write_csv(os.path.join(args.out, "mean_iterations.csv"),
                     ["scheme", "tau", "mean_iters"],
                     [(s, float(t), float(np.mean([r.iters for r in recs[1:]])))
                      for (s, t), recs in res.energy_logs.items()])
    print(f"compare outputs in {args.out}")
    return 0


def cmd_polycrystal(args) -> int:
    _echo_config(args.out, args)
    res = ex.run_polycrystal(seed=args.seed)
    ex.write_csv(os.path.join(args.out, "energy_uniform.csv"),
                 ex.ENERGY_HEADER, ex.energy_rows(res.uniform_records))
    ex.write_csv(os.path.join(args.out, "energy_adaptive.csv"),
                 ex.ENERGY_HEADER, ex.energy_rows(res.adaptive_records))
    ex.write_csv(os.path.join(args.out, "adaptive_taus.csv"), ["tau"],
                 [(float(t),) for t in res.adaptive_taus])
    print(f"uniform steps: {len(res.uniform_records) - 1}, "
          f"adaptive steps: {res.adaptive_steps}")
    if args.long:
        _, recs = ex.run_polycrystal_long(seed=args.seed, out_dir=args.out)
        ex.write_csv(os.path.join(args.out, "energy_long.csv"),
                     ex.ENERGY_HEADER, ex.energy_rows(recs))
        ex.write_csv(os.path.join(args.out, "long_taus.csv"), ["tau"],
                     [(r.tau,) for r in recs[1:]])
        print(f"long leg: {len(recs) - 1} adaptive steps")
    return 0


@functools.cache
def _tune_heap() -> bool:
    """Set glibc's mmap threshold to 32 MiB and its trim threshold to 64 MiB, once per
    process; False where there is no ``mallopt`` (not glibc), which changes nothing.

    A 256^2 solve's arrays, 0.5 MB each, are allocated once per solve.  At glibc's
    default thresholds they are mapped and returned to the system as they come and
    go, so every solve faults their pages in afresh; above the thresholds they stay
    on the heap.  Only ``main`` calls this: ``import pfc`` leaves its host's
    allocator alone (library users set MALLOC_MMAP_THRESHOLD_ and
    MALLOC_TRIM_THRESHOLD_).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)   # M_TRIM_THRESHOLD
    return True


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: ``parse_args`` keeps no state in it between calls."""
    return build_parser()


@functools.cache
def _given_parser() -> argparse.ArgumentParser:
    """A second parser whose options have no defaults: its parse holds only the
    options on the command line."""
    parser = build_parser()
    for p in (parser, *parser.subcommands.values()):
        for action in p._actions:
            action.default = argparse.SUPPRESS
    return parser


def main(argv=None) -> int:
    _tune_heap()
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            given = _given_parser().parse_args(argv)
            apply_config(parser, given, load_config(args.config))
            vars(args).update(vars(given))
        if args.command == "kernels":
            return cmd_kernels(args)
        if args.command == "convergence":
            return cmd_convergence(args)
        if args.command == "compare":
            return cmd_compare(args)
        return cmd_polycrystal(args)
    except (SolverError, ConditioningError) as exc:   # before ValueError, its base
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        # OSError: an unreadable config or mesh file, an unwritable output
        print(f"config error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
