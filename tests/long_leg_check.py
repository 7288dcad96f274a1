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
  carries drifts from its values.

pytest does not collect this file: its name does not start with test_.
"""

import csv
import glob
import os
import sys

import numpy as np

from pfc.grid import Field, Grid2D
from pfc.model import PfcParams, energy


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
    print("long leg:", len(rows) - 1, "steps, mass drift", drift)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/long_leg_check.py OUT_DIR")
    main(sys.argv[1])
