"""Command-line front end.

Subcommands mirror the experiment harnesses:

  pfc kernels      --mesh SPEC [--report out.csv]
  pfc convergence  [--grid-m M] [--seed S] [--out DIR]
  pfc compare      [--seed S] [--out DIR] [--scheme NAME]
  pfc polycrystal  [--seed S] [--out DIR] [--long]

Each option is declared once, in ``COMMANDS``.  Config files are flat
`key = value` text and may give any option, `mesh` included; command-line
flags win over the file.  Exit codes: 0 all runs converged, 2 solver
failure, 3 config error, a command line that does not parse included.
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

# subcommand -> (its help, {option name: add_argument keywords, default included})
COMMANDS = {
    "kernels": ("kernel identities and certificates", {
        "mesh": dict(default=None, help="uniform:N,T | random:N,T,seed | path to tau file; "
                                        "required, on the command line or in the config file"),
        "report": dict(default="kernels.csv"),
    }),
    "convergence": ("random-mesh accuracy ladder", {
        "grid-m": dict(type=int, default=128),
        "seed": dict(type=int, default=2023),
        "out": dict(default="out_convergence"),
        "mesh-kind": dict(choices=["random", "uniform"], default="random"),
    }),
    "compare": ("BDF2 / CN / CNCS comparison", {
        "seed": dict(type=int, default=2023),
        "out": dict(default="out_compare"),
        "scheme": dict(choices=SCHEMES, action="append", default=None,
                       help="restrict to given scheme(s)"),
        "skip-energy-runs": dict(action="store_true", default=False),
    }),
    "polycrystal": ("polycrystal growth", {
        "seed": dict(type=int, default=2023),
        "out": dict(default="out_polycrystal"),
        "long": dict(action="store_true", default=False,
                     help="also run the long adaptive leg with snapshots"),
    }),
}


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


def config_value(option: dict, key: str, text: str):
    """Parse a config-file value as the flag that ``option`` declares would: on/off flags
    take true/false, yes/no, on/off or 1/0, repeatable options a comma-separated list,
    and the rest go through the option's type; choices are enforced."""
    action = option.get("action")
    if action == "store_true":
        try:
            return BOOLEANS[text.lower()]
        except KeyError:
            raise ValueError(f"{key}: expected true or false, got {text!r}") from None
    repeatable = action == "append"
    convert, choices = option.get("type", str), option.get("choices")
    values = [convert(item.strip()) for item in (text.split(",") if repeatable else [text])]
    for v in values:
        if choices is not None and v not in choices:
            raise ValueError(f"{key}: {v!r} is not one of {', '.join(choices)}")
    return values if repeatable else values[0]


def config_settings(command: str, file_cfg: dict) -> dict:
    """The values that ``file_cfg`` gives ``command``'s options, by dest.  Keys of another
    subcommand are skipped; one that names no option of any subcommand is an error, and
    so are ``help``, ``config`` and ``command``, which name none."""
    found = {}
    for key, text in file_cfg.items():
        name = key.replace("_", "-")
        if not any(name in options for _, options in COMMANDS.values()):
            raise ValueError(f"unknown config key {key!r}")
        option = COMMANDS[command][1].get(name)
        if option is not None:
            found[name.replace("-", "_")] = config_value(option, key, text)
    return found


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # a usage error is a config error; -h still exits 0
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    """The parser of ``COMMANDS``, whose subcommand options default to SUPPRESS: a parse
    holds the subcommand, ``config`` and only the options on the command line."""
    parser = _Parser(prog="pfc", description="Variable-step PFC solver")
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, options) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name, option in options.items():
            p.add_argument(f"--{name}", **{**option, "default": argparse.SUPPRESS})
    return parser


def _echo_config(out_dir: str, args):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.txt"), "w") as fh:
        for key, val in sorted(vars(args).items()):
            fh.write(f"{key} = {val}\n")


def cmd_kernels(args) -> int:
    if args.mesh is None:
        raise ValueError("kernels needs a mesh: --mesh or a mesh key in the config file")
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


def settings(argv=None) -> argparse.Namespace:
    """The subcommand, ``config`` and each of the subcommand's options: from the command
    line whatever its value, else the config file, else its default in ``COMMANDS``."""
    args = _parser().parse_args(argv)
    from_file = config_settings(args.command, load_config(args.config)) if args.config else {}
    for name, option in COMMANDS[args.command][1].items():
        dest = name.replace("-", "_")
        vars(args).setdefault(dest, from_file.get(dest, option["default"]))
    return args


def main(argv=None) -> int:
    _tune_heap()
    try:
        args = settings(argv)
        run = {"kernels": cmd_kernels, "convergence": cmd_convergence,
               "compare": cmd_compare, "polycrystal": cmd_polycrystal}[args.command]
        return run(args)
    except (SolverError, ConditioningError) as exc:   # before ValueError, its base
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        # OSError: an unreadable config or mesh file, an unwritable output
        print(f"config error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
