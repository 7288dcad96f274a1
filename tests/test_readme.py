"""The README's code runs as printed, its command lines and config example
parse as documented, and every gate of its claims table names a test."""

import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from pfc.cli import build_parser, config_settings, load_config

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
CLAIMS = "## Claims and their gates"
# a pytest node id under tests/, or the script that checks the long leg's outputs
GATE = re.compile(r"`(tests/[\w/]+\.py(?:::[\w\[\]\-.]+)*)`")
LONG_LEG_CHECK = "tests/long_leg_check.py"


def section(heading: str) -> str:
    """The README's text from the line ``heading`` to the next ``## `` heading."""
    text = README.read_text()
    start = text.index("\n" + heading + "\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def fenced_blocks(heading: str, lang: str) -> list[str]:
    """The ``lang`` fenced blocks of the section under ``heading``, in order."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", section(heading), re.M | re.S)


def claim_rows() -> list[dict]:
    """The claims table's rows, each a dict from column header to cell text."""
    lines = [ln for ln in section(CLAIMS).splitlines() if ln.startswith("|")]
    # cells are split at the pipes that are not escaped as \|
    cells = [[c.strip() for c in re.split(r"(?<!\\)\|", ln)[1:-1]] for ln in lines]
    header, rows = cells[0], cells[2:]
    return [dict(zip(header, row)) for row in rows]


def test_library_example_runs(capsys):
    code = fenced_blocks("## Library example", "python")[0]
    exec(compile(code, f"{README.name} (Library example)", "exec"), {})
    out = capsys.readouterr().out
    assert "accepted steps, final time" in out
    assert "modified energy" in out


def test_opens_with_claims_table():
    text = README.read_text()
    assert re.search(r"^## .*$", text, re.M).group(0) == CLAIMS
    assert len(text.splitlines()) <= 294
    rows = claim_rows()
    assert len(rows) >= 5
    for row in rows:
        assert set(row) == {"Claim", "Paper (abstract)", "Set-up", "Gate", "Measured (bound)"}
        assert all(row.values()), row


def test_claim_gates_are_collected():
    """Every gate in the table is the long-leg script or names a test that
    pytest collects: a class or module id must collect at least one test."""
    rows = claim_rows()
    assert all(GATE.search(row["Gate"]) for row in rows)
    gates = {gate for row in rows for gate in GATE.findall(row["Gate"])}
    assert (ROOT / LONG_LEG_CHECK).is_file()
    ids = sorted(gates - {LONG_LEG_CHECK})
    proc = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                           "-p", "no:cacheprovider", *ids],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    collected = proc.stdout.splitlines()
    for gate in ids:
        assert any(c == gate or c.startswith((gate + "::", gate + "["))
                   for c in collected), gate


def check_lines_parse(lines: list[str]):
    """Fail with the first of the ``pfc`` command ``lines`` that does not parse."""
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except ValueError:   # the parser's usage error
            pytest.fail(f"the README's command line does not parse: {line}")


def test_command_lines_parse():
    """Every ``pfc`` line of the Command line section's sh blocks parses."""
    lines = [ln for block in fenced_blocks("## Command line", "sh")
             for ln in block.splitlines() if ln.startswith("pfc ")]
    assert len(lines) >= 9
    check_lines_parse(lines)


def test_unparsed_command_line_is_named():
    line = "pfc kernels --mesh random:100,1.0,7 --reprot k.csv"
    with pytest.raises(pytest.fail.Exception, match=f"does not parse: {re.escape(line)}$"):
        check_lines_parse(["pfc convergence --grid-m 64", line])


def test_config_example_gives_documented_values(tmp_path):
    """The example file's values reach each subcommand that has the option,
    from the file itself: the parse of the command line alone holds none."""
    path = tmp_path / "run.cfg"
    path.write_text(fenced_blocks("## Command line", "ini")[0])
    cfg = load_config(str(path))
    assert cfg == {"grid-m": "64", "scheme": "bdf2, cn", "skip-energy-runs": "false"}
    parser = build_parser()
    assert vars(parser.parse_args(["convergence"])) == {"command": "convergence", "config": None}
    assert config_settings("convergence", cfg) == {"grid_m": 64}
    assert config_settings("compare", cfg) == {"scheme": ["bdf2", "cn"],
                                               "skip_energy_runs": False}
