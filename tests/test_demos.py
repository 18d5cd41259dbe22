"""Each demo script runs to the end; they write their artifacts into the
working directory, so each runs inside its own temporary directory.  The
README's quick start runs as written."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(script), run_name="__main__")


def test_readme_quick_start_runs(capsys):
    [block] = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"),
                         re.S)
    exec(compile(block, "README.md", "exec"), {})
    word, census = capsys.readouterr().out.splitlines()
    inside = "<EventSide.FROM_INSIDE: 'FromInside'>"
    period = f"(0.0, {inside}), (2.0, {inside}), (3.5, <EventSide.FROM_OUTSIDE: 'FromOutside'>)"
    assert word == f"[{period}, {period}]"
    assert census == "Counter({'A': 5, 'B': 3, 'C2': 1})"
