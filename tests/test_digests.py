"""SHA-256 digests of the CSVs that two seeded CLI runs write.

Every digest is asserted only on ``DIGEST_BUILD``, the numpy version and
machine it was recorded on.  On every build, each output is also checked
against stored values within a stated tolerance, so another build still
gets a check.  A change that moves an output re-pins its digest and its
values here, and says so in CHANGES.md.
"""

import csv
import math

import pytest

from conftest import on_digest_build, sha256_file
from pfc.cli import main

# pfc convergence --grid-m 32 --seed 2023
CONVERGENCE_SHA256 = "8ff810ac03e59ac580c29ff3c3a18a86df5781136824d8f19a2b767d93fe2771"
# (N, error); errors within 1e-6 relative, perfbench's tolerance on the ladder
CONVERGENCE_ERRORS = [(20, 9.6169840663636634e-06), (40, 9.5818900180640701e-06),
                      (80, 3.7457225804088824e-06), (160, 1.0048541200017423e-06),
                      (320, 1.4988371760692494e-07)]

# pfc compare --seed 2023 --skip-energy-runs: file -> (SHA-256, sum of the
# profile's 128 values); sums within 1e-8 relative, perfbench's tolerance on
# the adaptive energy.  Neighbouring profiles' sums differ by more than 1e-7.
COMPARE = {
    "profile_reference.csv":
        ("5dab948d3eb4b54c2fd9af3bb07f98a7b39f78f02ec5c70d99577eb2a96a3e56", 12.840538475284253),
    "profile_bdf2_tau0.01.csv":
        ("5d6e5bf14e09ee5baad02abbe88fa1d0a5678aa58075b980b6c15a118b6571f2", 12.839092059932533),
    "profile_bdf2_tau0.001.csv":
        ("0a92e0ed1b205884b0c25dc43a0c9bb830d60181f4ef10351c87c2444b9484b4", 12.840507793669277),
    "profile_bdf2_tau0.0005.csv":
        ("43cc794fd339a1aecd503b4948a3c18502df1893d55ce86c45aadbed52d5268d", 12.84053271453903),
    "profile_bdf2_tau0.00025.csv":
        ("fded2a64c34c3a24b3033b849cb2cd030b768f3cd1fcf72549020b72e1fcf508", 12.840537244226665),
    "profile_cn_tau0.01.csv":
        ("b1c6915794235acb79f359a8db9de60fa45ff083f43c52910361613d2aa31820", 12.911672001132619),
    "profile_cn_tau0.001.csv":
        ("4dbbc89bdf82b1987e3dfe65987cbd922badf5b3045d3ccbd312c9249d405efc", 12.815279542617972),
    "profile_cn_tau0.0005.csv":
        ("341891e3ff4472f4514e5c7da86a3d90e443ce3f41940e0a4b9d3ba0a0593e22", 12.839617683968067),
    "profile_cn_tau0.00025.csv":
        ("a4fdc76b9d991964538c2c27d41c67fa68429927261b379aad0fc16d3cf7bb02", 12.84054021537043),
    "profile_cncs_tau0.01.csv":
        ("f353b903f524da526b82eca0289dc266e9310745de650dbad23fab1477ed0fcc", 12.836423918825021),
    "profile_cncs_tau0.001.csv":
        ("8279b82e9d081cfe438eeb55fd9ab8b2526c1539db162e6430a4087faa4eb957", 12.842743502407073),
    "profile_cncs_tau0.0005.csv":
        ("84c4ed596e6b91f0f4553a833b87e1eb8b98781fa8eebbd1da9fb0fb008535d2", 12.841798188582128),
    "profile_cncs_tau0.00025.csv":
        ("253390b4d5d41545cda4dd2689b88030aacae7879fe56d0fde6e614f9a71f90e", 12.841818318195982),
}


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_convergence_outputs(tmp_path):
    out = tmp_path / "conv"
    assert main(["convergence", "--grid-m", "32", "--seed", "2023", "--out", str(out)]) == 0
    rows = read_rows(out / "convergence.csv")
    assert [int(r["N"]) for r in rows] == [n for n, _ in CONVERGENCE_ERRORS]
    for r, (_, err) in zip(rows, CONVERGENCE_ERRORS):
        assert float(r["error"]) == pytest.approx(err, rel=1e-6)
    if on_digest_build():
        assert sha256_file(out / "convergence.csv") == CONVERGENCE_SHA256


def test_compare_outputs(tmp_path):
    out = tmp_path / "cmp"
    assert main(["compare", "--seed", "2023", "--skip-energy-runs", "--out", str(out)]) == 0
    written = sorted(p.name for p in out.iterdir() if p.suffix == ".csv")
    assert written == sorted(COMPARE)
    for name, (digest, total) in COMPARE.items():
        values = [float(r["phi"]) for r in read_rows(out / name)]
        assert len(values) == 128
        assert math.fsum(values) == pytest.approx(total, rel=1e-8)
        if on_digest_build():
            assert sha256_file(out / name) == digest, name
