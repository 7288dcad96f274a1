"""The README's code runs as printed."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def fenced_block(heading: str, lang: str = "python") -> str:
    """The first ``lang`` fenced block after the line ``heading``."""
    text = README.read_text()
    start = text.index("\n" + heading + "\n")
    match = re.compile(rf"^```{lang}\n(.*?)^```$", re.M | re.S).search(text, start)
    assert match is not None, f"no {lang} block after {heading!r}"
    return match.group(1)


def test_library_example_runs(capsys):
    code = fenced_block("## Library example")
    exec(compile(code, f"{README.name} (Library example)", "exec"), {})
    out = capsys.readouterr().out
    assert "accepted steps, final time" in out
    assert "modified energy" in out
