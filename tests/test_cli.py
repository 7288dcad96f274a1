import hashlib
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import doc_kernels, load_snapshot
import pfc.cli as cli
import pfc.experiments as ex
from pfc.cli import build_parser, load_config, main
from pfc.grid import Grid2D
from pfc.kernels import bdf2_coeffs
from pfc.mesh import TimeMesh
from pfc.model import PfcParams, energy, mass
from pfc.rng import SplitMix64
from pfc.steppers import ConditioningError, SolverError, SolveStats


class TestSplitMix:
    def test_deterministic(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_uniform_open_interval(self):
        gen = SplitMix64(1)
        xs = [gen.uniform() for _ in range(10000)]
        assert all(0.0 < x < 1.0 for x in xs)
        assert abs(sum(xs) / len(xs) - 0.5) < 0.02

    def test_uniform_sym_range(self):
        gen = SplitMix64(2)
        xs = [gen.uniform_sym() for _ in range(1000)]
        assert all(-1.0 < x < 1.0 for x in xs)

    @pytest.mark.parametrize("seed", [0, 2023, 2**64 - 1])
    @pytest.mark.parametrize("n", [0, 1, 7, 16384])
    def test_block_matches_scalar_draws(self, seed, n):
        scalar, block = SplitMix64(seed), SplitMix64(seed)
        want = np.array([scalar.uniform_sym() for _ in range(n)], dtype=np.float64)
        got = block.uniform_sym_block(n)
        assert got.dtype == np.float64
        assert np.array_equal(got, want)
        assert block.state == scalar.state
        assert block.next_u64() == scalar.next_u64()

    @pytest.mark.parametrize("seed", [0, 2023, 2**64 - 1])
    @pytest.mark.parametrize("n", [0, 1, 7, 300])
    def test_uniform_block_matches_scalar_draws(self, seed, n):
        scalar, block = SplitMix64(seed), SplitMix64(seed)
        want = np.array([scalar.uniform() for _ in range(n)], dtype=np.float64)
        got = block.uniform_block(n)
        assert got.dtype == np.float64
        assert np.array_equal(got, want)
        assert block.state == scalar.state
        assert block.next_u64() == scalar.next_u64()

    def test_reference_sequence(self):
        # first outputs of the standard 64-bit mixing sequence for seed 0
        gen = SplitMix64(0)
        assert gen.next_u64() == 0xE220A8397B1DCDAF
        assert gen.next_u64() == 0x6E789E6AA1B965F4


class TestConfig:
    def test_parse(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# comment\nseed = 9\n[section]\ngrid-m = 32\n")
        cfg = load_config(str(path))
        assert cfg == {"seed": "9", "grid-m": "32"}

    def test_bad_line(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("not a pair\n")
        with pytest.raises(ValueError):
            load_config(str(path))

    def test_missing_file_exit_code(self, tmp_path):
        rc = main(["--config", str(tmp_path / "nope.txt"),
                   "kernels", "--mesh", "uniform:4,1.0"])
        assert rc == 3


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_kernels_needs_mesh(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["kernels"])


class TestCommands:
    def test_kernels_command(self, tmp_path, capsys):
        report = str(tmp_path / "k.csv")
        rc = main(["kernels", "--mesh", "random:30,1.0,5", "--report", report])
        assert rc == 0
        assert os.path.exists(report)
        assert "30 levels" in capsys.readouterr().out

    def test_kernels_reads_polycrystal_step_file(self, tmp_path, monkeypatch, capsys):
        """The step file `pfc polycrystal` writes, header `tau` included, is a
        mesh for `pfc kernels`, with the steps that were written."""
        taus = [1e-4, 2.5e-4, 0.1 / 3.0]
        path = str(tmp_path / "adaptive_taus.csv")
        ex.write_csv(path, ["tau"], [(t,) for t in taus])   # as cmd_polycrystal writes it
        meshes = []
        report = ex.kernels_report

        def spy(mesh, out_path=None):
            meshes.append(mesh)
            return report(mesh, out_path)

        monkeypatch.setattr(ex, "kernels_report", spy)
        rc = main(["kernels", "--mesh", path, "--report", str(tmp_path / "k.csv")])
        assert rc == 0
        assert "3 levels" in capsys.readouterr().out
        assert meshes[0].steps.tolist() == taus

    def test_kernels_rejects_non_finite_kernels(self, tmp_path, capsys):
        # the second step ratio 1e300 / 1e-300 overflows to inf, so b0 is nan
        taus = tmp_path / "taus.txt"
        taus.write_text("1e-300\n1e300\n1\n0.5\n")
        report = tmp_path / "k.csv"
        rc = main(["kernels", "--mesh", str(taus), "--report", str(report)])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "level 2 has a non-finite step ratio or kernel" in err[0]
        assert not report.exists()

    def test_kernels_rejects_overflowing_row_sums(self, tmp_path, capsys):
        # r_3 = 5e159 is finite but r_3^2 overflows, so b1 of level 3 is NaN
        # and its DOC row sum infinite: the recurrence must name the level
        # that the O(N^2) table names
        steps = np.array([1.0, 2.0, 1e160, 1.0, 0.5])
        taus = tmp_path / "taus.txt"
        taus.write_text("".join("%.17g\n" % s for s in steps))
        report = tmp_path / "k.csv"
        with np.errstate(all="ignore"):
            m = TimeMesh(steps)
            c = bdf2_coeffs(m)
            finite = (np.isfinite(m.ratios) & np.isfinite(c.b0) & np.isfinite(c.b1)
                      & np.isfinite(doc_kernels(m).row_sums()))
        rc = main(["kernels", "--mesh", str(taus), "--report", str(report)])
        assert int(np.argmin(finite)) + 1 == 3
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "level 3 has a non-finite step ratio or kernel" in err[0]
        assert "DOC row sum inf" in err[0]
        assert not report.exists()

    def test_kernels_missing_mesh_file(self, tmp_path, capsys):
        rc = main(["kernels", "--mesh", str(tmp_path / "missing.txt"),
                   "--report", str(tmp_path / "k.csv")])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert "missing.txt" in err[0]

    @pytest.mark.parametrize("lines,n", [(["0.5", "abc"], 2), (["0.5,0.2"], 1),
                                         (["tau", "0.5", "", " x "], 4)],
                             ids=["word", "two-columns", "after-header-and-blank"])
    def test_kernels_malformed_tau_file(self, lines, n, tmp_path, capsys):
        """A line of a tau file that is no number is named with the file and its
        1-based line, the header and blank lines counted."""
        taus = tmp_path / "taus.txt"
        taus.write_text("\n".join(lines) + "\n")
        report = tmp_path / "k.csv"
        rc = main(["kernels", "--mesh", str(taus), "--report", str(report)])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"config error: tau file {taus} line {n}: {lines[n - 1]!r} is not a number\n")
        assert not report.exists()

    @pytest.mark.parametrize("spec,form", [
        ("random:5,1.0", "random:N,T,seed"), ("uniform:5,1.0,7", "uniform:N,T"),
        ("uniform:", "uniform:N,T"), ("random:5.5,1.0,3", "random:N,T,seed"),
        ("random:a,b,c", "random:N,T,seed")])
    def test_kernels_malformed_mesh_spec(self, spec, form, tmp_path, capsys):
        """A spec with the wrong count or type of values is named with its
        form, not with Python's unpacking or int() text."""
        report = tmp_path / "k.csv"
        rc = main(["kernels", "--mesh", spec, "--report", str(report)])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"config error: mesh spec '{spec}' ")
        assert form in err[0]
        assert not report.exists()

    @pytest.mark.parametrize("spec", ["uniform:0,1.0", "random:5,-1.0,3"])
    def test_kernels_mesh_spec_out_of_range(self, spec, tmp_path, capsys):
        """A well-formed spec with values out of range keeps the message of
        ``uniform_mesh`` and ``random_mesh``."""
        rc = main(["kernels", "--mesh", spec, "--report", str(tmp_path / "k.csv")])
        assert rc == 3
        assert capsys.readouterr().err == "config error: need N >= 1 and T > 0\n"

    @pytest.mark.parametrize("text", ["", "tau\n"], ids=["empty", "header-only"])
    def test_kernels_refuses_file_without_steps(self, text, tmp_path, capsys):
        taus = tmp_path / "taus.txt"
        taus.write_text(text)
        report = tmp_path / "k.csv"
        rc = main(["kernels", "--mesh", str(taus), "--report", str(report)])
        assert rc == 3
        assert capsys.readouterr().err == "config error: mesh needs at least one step\n"
        assert not report.exists()

    def test_kernels_unwritable_report(self, tmp_path, capsys):
        # the report's directory would have to be made inside a regular file
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        rc = main(["kernels", "--mesh", "uniform:4,1.0",
                   "--report", str(blocker / "k.csv")])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")

    def test_kernels_refuses_nan_step(self, tmp_path, capsys):
        taus = tmp_path / "taus.txt"
        taus.write_text("0.5\nnan\n0.25\n")
        report = tmp_path / "k.csv"
        rc = main(["kernels", "--mesh", str(taus), "--report", str(report)])
        assert rc == 3
        assert capsys.readouterr().err == "config error: all step sizes must be positive\n"
        assert not report.exists()

    def test_kernels_refuses_infinite_step(self, tmp_path, capsys):
        # an infinite step used to reach the kernels as inf / inf ratios,
        # with a divide warning and an error about level 1
        report = tmp_path / "k.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["kernels", "--mesh", "uniform:10,inf", "--report", str(report)])
        assert rc == 3
        assert capsys.readouterr().err == "config error: all step sizes must be finite\n"
        assert not report.exists()

    def test_compare_energy_runs(self, tmp_path, monkeypatch):
        """The energy runs go to t = 5 at tau = 0.1, 0.01 and 0.001 for each scheme;
        each writes its log, and mean_iterations.csv holds the mean of the
        iterations each log records.  The runs are cut to their first 3 steps
        and the profiles to tau = 0.01."""
        calls = []
        run = ex.run_with_energy_log

        def first_steps(phi0, steps, p, scheme):
            calls.append((scheme, steps[0], len(steps)))
            return run(phi0, steps[:3], p, scheme)

        monkeypatch.setattr(ex, "run_with_energy_log", first_steps)
        monkeypatch.setattr(ex, "PROFILE_TAUS", (1e-2,))
        out = tmp_path / "cmp"
        assert main(["compare", "--out", str(out)]) == 0
        assert calls == [(s, tau, round(5 / tau))
                         for tau in (0.1, 0.01, 0.001) for s in ("bdf2", "cn", "cncs")]
        logs = sorted(f for f in os.listdir(out) if f.startswith("energy_"))
        assert len(logs) == 9
        with open(out / "mean_iterations.csv") as fh:
            means = fh.read().splitlines()
        assert means[0] == "scheme,tau,mean_iters"
        assert len(means) == 10
        for row in means[1:]:
            scheme, tau, mean_iters = row.split(",")
            with open(out / f"energy_{scheme}_tau{float(tau):g}.csv") as fh:
                lines = fh.read().splitlines()
            assert lines[0] == ",".join(ex.ENERGY_HEADER)
            assert len(lines) == 5   # the t = 0 row and 3 steps
            col = ex.ENERGY_HEADER.index("iters")
            iters = [int(ln.split(",")[col]) for ln in lines[2:]]
            assert float(mean_iters) == np.mean(iters)

    @pytest.mark.parametrize("error", [
        SolverError("fixed-point iteration diverged", SolveStats(3, np.inf)),
        ConditioningError("non-positive linear symbol")])
    def test_solver_failure_exit_code(self, error, tmp_path, capsys, monkeypatch):
        # a ConditioningError is a ValueError, but it is a solver failure, not
        # a config error
        def fail(**kw):
            raise error

        monkeypatch.setattr(ex, "run_convergence", fail)
        rc = main(["convergence", "--out", str(tmp_path / "conv")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("solver failure:")
        assert str(error) in err[0]

    def test_convergence_command_small(self, tmp_path, capsys, monkeypatch):
        # shrink the ladder through the config file override path
        out = str(tmp_path / "conv")
        import pfc.experiments as ex
        orig = ex.run_convergence
        monkeypatch.setattr(ex, "run_convergence",
                            lambda **kw: orig(**{**kw, "M": 32,
                                                 "ladder": (10, 20)}))
        rc = main(["convergence", "--grid-m", "32", "--out", out])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "convergence.csv"))
        assert os.path.exists(os.path.join(out, "config.txt"))

    def test_config_file_sets_seed(self, tmp_path, monkeypatch):
        out = str(tmp_path / "conv2")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed = 7\n")
        captured = {}
        import pfc.experiments as ex
        monkeypatch.setattr(ex, "run_convergence",
                            lambda **kw: captured.update(kw) or [])
        rc = main(["--config", str(cfg), "convergence", "--grid-m", "32",
                   "--out", out])
        assert rc == 0
        assert captured["seed"] == 7

    def test_flag_wins_over_config(self, tmp_path, monkeypatch):
        out = str(tmp_path / "conv3")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed = 7\n")
        captured = {}
        import pfc.experiments as ex
        monkeypatch.setattr(ex, "run_convergence",
                            lambda **kw: captured.update(kw) or [])
        rc = main(["--config", str(cfg), "convergence", "--grid-m", "32",
                   "--seed", "99", "--out", out])
        assert rc == 0
        assert captured["seed"] == 99

    @pytest.mark.parametrize("text,flags,dest,want", [
        ("seed = 7\n", ["--seed", "2023"], "seed", 2023),
        ("seed = 7\n", ["--seed=2023"], "seed", 2023),
        ("mesh-kind = uniform\n", ["--mesh-kind", "random"], "mesh_kind", "random")],
        ids=["seed", "seed-equals-sign", "mesh-kind"])
    def test_flag_at_default_wins_over_config(self, tmp_path, monkeypatch,
                                              text, flags, dest, want):
        # a flag given on the command line wins even when its value is the default
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        captured = {}
        monkeypatch.setattr(ex, "run_convergence", lambda **kw: captured.update(kw) or [])
        rc = main(["--config", str(cfg), "convergence", *flags,
                   "--out", str(tmp_path / "conv")])
        assert rc == 0
        assert captured[dest] == want


class TestConfigValues:
    @staticmethod
    def run_with_config(tmp_path, monkeypatch, text, argv):
        import pfc.cli as cli
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        seen = {}
        for name in ("cmd_compare", "cmd_polycrystal"):
            monkeypatch.setattr(cli, name, lambda args: seen.update(vars(args)) or 0)
        return main(["--config", str(cfg), *argv]), seen

    def test_boolean_false_stays_off(self, tmp_path, monkeypatch):
        rc, seen = self.run_with_config(tmp_path, monkeypatch, "long = false\n",
                                        ["polycrystal"])
        assert rc == 0
        assert seen["long"] is False

    def test_boolean_true_turns_on(self, tmp_path, monkeypatch):
        rc, seen = self.run_with_config(tmp_path, monkeypatch,
                                        "skip-energy-runs = yes\n", ["compare"])
        assert rc == 0
        assert seen["skip_energy_runs"] is True

    def test_bad_boolean_exit_code(self, tmp_path, monkeypatch):
        rc, _ = self.run_with_config(tmp_path, monkeypatch, "long = maybe\n",
                                     ["polycrystal"])
        assert rc == 3

    def test_append_splits_on_commas(self, tmp_path, monkeypatch):
        rc, seen = self.run_with_config(tmp_path, monkeypatch, "scheme = cn\n",
                                        ["compare"])
        assert rc == 0
        assert seen["scheme"] == ["cn"]
        rc, seen = self.run_with_config(tmp_path, monkeypatch,
                                        "scheme = bdf2, cncs\n", ["compare"])
        assert rc == 0
        assert seen["scheme"] == ["bdf2", "cncs"]

    def test_append_checks_choices(self, tmp_path, monkeypatch):
        rc, _ = self.run_with_config(tmp_path, monkeypatch, "scheme = rk4\n",
                                     ["compare"])
        assert rc == 3

    def test_unknown_key_exit_code(self, tmp_path, monkeypatch):
        rc, _ = self.run_with_config(tmp_path, monkeypatch, "sede = 7\n",
                                     ["polycrystal"])
        assert rc == 3

    @pytest.mark.parametrize("key", ["help", "command", "config"])
    def test_key_of_no_valued_option_exit_code(self, key, tmp_path, monkeypatch):
        # the help action and the global parser's config and command name no
        # option of a subcommand that a config file could set
        rc, seen = self.run_with_config(tmp_path, monkeypatch, f"{key} = yes\n",
                                        ["polycrystal"])
        assert rc == 3
        assert seen == {}

    def test_other_subcommand_key_ignored(self, tmp_path, monkeypatch):
        rc, seen = self.run_with_config(tmp_path, monkeypatch,
                                        "grid-m = 32\nseed = 5\n", ["polycrystal"])
        assert rc == 0
        assert seen["seed"] == 5
        assert "grid_m" not in seen


def s1_steps(seed: int, n: int) -> np.ndarray:
    """A mesh with ratios drawn in [0.05, 3.5] and steps clipped to [1e-4, 0.5]."""
    gen = np.random.default_rng(seed)
    ratios = gen.uniform(0.05, 3.5, size=n - 1)
    steps = np.empty(n)
    steps[0] = 1e-2
    for k in range(1, n):
        steps[k] = min(max(steps[k - 1] * ratios[k - 1], 1e-4), 0.5)
    return steps


class TestKernelsReportBytes:
    # sha256 of each report, rows and footer, as the per-entry float()
    # rows and the appended footer wrote it; level 1's b1 is "0", not "-0"
    GOLDEN = {
        "random:300,1.0,2023":
            "d7c65f6a57c5776228df1e367a3cbd31593e3a81e8b8e6e8a65e66337da46b38",
        "random:300,1.0,78396460":
            "dc02cf64622d492d9dc22040d13c5f1dc6f5c776ec5b76ddbf3db49b00fb9738",
        "uniform:200,1.0":
            "757891136c2b1c225a23b885e7e0091938d34f9c732e656a74844b7e81833900",
        "random:1,1.0,3":
            "d911c2e55b0edd1afdca41ea901348d87094ab687a161ceaffe58a88cd751024",
        "s1:2023,300":
            "835e93dcaa2f2383cb05c8b4e56f24adea4d33b61c498dabc69971cbb22aa170",
    }

    @pytest.mark.parametrize("spec", sorted(GOLDEN))
    def test_report_bytes(self, spec, tmp_path, capsys):
        mesh_arg = spec
        if spec.startswith("s1:"):
            seed, n = (int(x) for x in spec[3:].split(","))
            taus = tmp_path / "s1_steps.txt"
            taus.write_text("".join("%.17g\n" % s for s in s1_steps(seed, n)))
            mesh_arg = str(taus)
        report = tmp_path / "k.csv"
        assert main(["kernels", "--mesh", mesh_arg, "--report", str(report)]) == 0
        capsys.readouterr()
        data = report.read_bytes()
        assert data.count(b"\n# lam_min=") == 1 and data.endswith(b"\n")
        assert hashlib.sha256(data).hexdigest() == self.GOLDEN[spec]


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()

    def test_calls_are_independent(self, tmp_path, monkeypatch):
        # the first call reads a config file, the second has none: nothing
        # the first one set may reach the second through the shared parser
        captured = []
        monkeypatch.setattr(ex, "run_convergence",
                            lambda **kw: captured.append(kw) or [])
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed = 7\nmesh-kind = uniform\n")
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["--config", str(cfg), "convergence", "--out", out1]) == 0
        assert main(["convergence", "--out", out2]) == 0
        assert [(kw["seed"], kw["mesh_kind"]) for kw in captured] == [
            (7, "uniform"), (2023, "random")]
        with open(os.path.join(out2, "config.txt")) as fh:
            echoed = fh.read()
        assert "config = None" in echoed
        assert "seed = 2023" in echoed

    def test_compare_schemes_do_not_accumulate(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_compare", lambda args: seen.append(args.scheme) or 0)
        assert main(["compare", "--scheme", "cn"]) == 0
        assert main(["compare", "--scheme", "bdf2"]) == 0
        assert main(["compare"]) == 0
        assert seen == [["cn"], ["bdf2"], None]


class TestPolycrystalLong:
    M, L, T, SNAPS, SEED = 32, 256.0, 2.0, (1, 2), 5

    @pytest.fixture(autouse=True)
    def small_long_leg(self, monkeypatch):
        for name, value in (("LONG_M", self.M), ("LONG_L", self.L), ("LONG_T", self.T),
                            ("SNAPSHOT_TIMES", self.SNAPS)):
            monkeypatch.setattr(ex, name, value)

    def test_long_leg_outputs(self, tmp_path, monkeypatch, capsys):
        run = ex.run_polycrystal
        small = {"M": self.M, "L": self.L, "T": self.T}
        monkeypatch.setattr(ex, "run_polycrystal", lambda **kw: run(**{**kw, **small}))
        out = tmp_path / "poly"
        rc = main(["polycrystal", "--long", "--seed", str(self.SEED), "--out", str(out)])
        assert rc == 0
        assert "long leg:" in capsys.readouterr().out
        snaps = sorted(f for f in os.listdir(out) if f.startswith("snapshot_t"))
        assert snaps == ["snapshot_t1.csv", "snapshot_t2.csv"]
        with open(out / "energy_long.csv") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == ",".join(ex.ENERGY_HEADER)
        times = [float(ln.split(",")[0]) for ln in lines[1:]]
        # each snapshot is the first step that reaches its target time
        for target in self.SNAPS:
            phi, t = load_snapshot(out / f"snapshot_t{target}.csv")
            assert (phi.grid.M, phi.grid.L) == (self.M, self.L)
            assert t == min(s for s in times if s >= target)
        # the t = 0 row is the seeded initial data, with E_mod = E
        g = Grid2D(self.M, self.L)
        phi0 = ex.patched_initial(g, seed=self.SEED)
        t0, tau0, e, e_mod, m0, linf, iters = lines[1].split(",")
        assert (float(t0), float(tau0), int(iters)) == (0.0, 0.0, 0)
        assert float(e) == energy(phi0, PfcParams(0.25, g))
        assert e_mod == e
        assert float(m0) == mass(phi0)
        assert float(linf) == float(np.max(np.abs(phi0.values)))
        assert times[-1] >= self.T

    def test_long_leg_step_file(self, tmp_path, monkeypatch):
        """``--long`` writes the leg's accepted steps under a ``tau`` header, as
        the T=50 leg writes ``adaptive_taus.csv``, and ``pfc kernels`` reads it."""
        monkeypatch.setattr(ex, "run_polycrystal", lambda **kw: ex.PolycrystalResult([], []))
        out = tmp_path / "poly"
        assert main(["polycrystal", "--long", "--seed", str(self.SEED), "--out", str(out)]) == 0
        with open(out / "long_taus.csv") as fh:
            lines = fh.read().splitlines()
        with open(out / "energy_long.csv") as fh:
            records = fh.read().splitlines()[2:]
        assert lines[0] == "tau"
        assert lines[1:] == [row.split(",")[1] for row in records]
        assert main(["kernels", "--mesh", str(out / "long_taus.csv"),
                     "--report", str(tmp_path / "k.csv")]) == 0

    def test_long_leg_makes_its_snapshot_directory(self, tmp_path):
        """Called from the library, where no ``_echo_config`` has made the
        directory first, the leg still writes its snapshots."""
        out = tmp_path / "new" / "dir"
        ex.run_polycrystal_long(seed=self.SEED, out_dir=str(out))
        assert sorted(os.listdir(out)) == ["snapshot_t1.csv", "snapshot_t2.csv"]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt counts faults on Linux")
def test_cli_heap_setting_stops_page_faults():
    """With the heap thresholds that ``main`` sets, a 256^2 BDF2 step after a
    warm-up faults in almost no page: 4.3 a step over 30 steps, against 54
    at glibc's defaults, which give each solve's 0.5 MB arrays back to the
    system.  It runs in a new process, whose allocator this test's does not
    share."""
    script = """
import resource
import pfc.cli
if not pfc.cli._tune_heap():
    raise SystemExit("no mallopt")
from pfc.experiments import patched_initial
from pfc.grid import Grid2D
from pfc.model import PfcParams
from pfc.steppers import run_fixed_mesh
g = Grid2D(256, 256.0)
faults = []
run_fixed_mesh(patched_initial(g, seed=2023), [0.05] * 40, PfcParams(0.25, g),
               observer=lambda s, _: faults.append(resource.getrusage(
                   resource.RUSAGE_SELF).ru_minflt))
print((faults[39] - faults[9]) / 30)
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=120)
    if "no mallopt" in run.stderr:
        pytest.skip("no mallopt in this C library")
    assert run.returncode == 0, run.stderr
    assert float(run.stdout) <= 20
