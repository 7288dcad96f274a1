"""Checks on the output directory of `pfc polycrystal --long`.

Usage: python tests/long_leg_check.py OUT_DIR

Run it after `pfc kernels` has written OUT_DIR/adaptive_k.csv and
OUT_DIR/long_k.csv from the two legs' tau files.  It asserts:

- both adaptive meshes satisfy S1 and the paper's windows
  lam_min >= 21/40, lam_max <= 53/5 and quad_const <= 39;
- the long leg reaches t = 1000;
- E_mod never rises and the mass drifts by at most 1e-12 relative;
- each of the six snapshots' E, recomputed from its values, is the E logged
  at that step to 1e-12 relative, which fails when the spectrum a run
  carries drifts from its values;
- the leg's fixed-point iterations stay within budget: 15,610 in all (the
  count at seed 2023) and at most 12 in any step;
- on ``DIGEST_BUILD``, energy_long.csv and long_taus.csv have the SHA-256
  digests of a `pfc polycrystal --long --seed 2023` run, so the paper's
  T = 1000 run is bit-identical.  A change that moves them re-pins them here
  and says so in CHANGES.md.

pytest does not collect this file: its name does not start with test_.
"""

import csv
import glob
import os
import sys

import numpy as np

from conftest import on_digest_build, sha256_file
from pfc.grid import Field, Grid2D
from pfc.model import PfcParams, energy

ITER_BUDGET = 15_610   # total fixed-point iterations of the leg
STEP_ITER_BUDGET = 12  # in any one step
# SHA-256 of the leg's outputs at seed 2023, on DIGEST_BUILD
LONG_SHA256 = {
    "energy_long.csv": "d6a214296d28b31c6ed26b5655eff5bf9b38818e4a41ef9e40da22127969f933",
    "long_taus.csv": "1fb7532da65482b4d49d389f2499e8d990638277f9e838d88567b2cb627951a3",
}


def main(out_dir: str) -> None:
    for leg in ("adaptive", "long"):
        with open(os.path.join(out_dir, f"{leg}_k.csv")) as fh:
            foot = fh.read().splitlines()[-1]
        f = dict(kv.split("=") for kv in foot[2:].split(","))
        assert (f["s1_ok"] == "True" and float(f["lam_min"]) >= 21 / 40
                and float(f["lam_max"]) <= 53 / 5 and float(f["quad_const"]) <= 39), (leg, f)
    with open(os.path.join(out_dir, "energy_long.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[-1]["t"]) == 1000, rows[-1]
    e_mod = np.array([float(r["E_mod"]) for r in rows])
    assert np.all(np.diff(e_mod) <= 0), "E_mod rises"
    mass = np.array([float(r["mass"]) for r in rows])
    drift = np.abs(mass - mass[0]).max() / abs(mass[0])
    assert drift <= 1e-12, drift
    iters = [int(r["iters"]) for r in rows[1:]]
    assert sum(iters) <= ITER_BUDGET and max(iters) <= STEP_ITER_BUDGET, (sum(iters), max(iters))
    if on_digest_build():
        for name, digest in LONG_SHA256.items():
            assert sha256_file(os.path.join(out_dir, name)) == digest, name
    logged = {r["t"]: float(r["E"]) for r in rows}
    snapshots = sorted(glob.glob(os.path.join(out_dir, "snapshot_t*.csv")))
    assert len(snapshots) == 6, snapshots
    for path in snapshots:
        with open(path) as fh:
            M, L, t = fh.readline().split()
            values = np.loadtxt(fh, delimiter=",").T
        g = Grid2D(int(M), float(L))
        e = energy(Field(g, values), PfcParams(0.25, g))
        assert abs(e - logged[t]) <= 1e-12 * abs(logged[t]), (path, e, logged[t])
    print("long leg:", len(rows) - 1, "steps,", sum(iters), "iterations, mass drift", drift)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/long_leg_check.py OUT_DIR")
    main(sys.argv[1])
