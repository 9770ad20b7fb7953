"""Every demo script runs to completion against the public API, and the
README's library quickstart prints what it says it prints."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def _readme_quickstart() -> tuple[str, list[str]]:
    """The README's "Library quickstart" block, and the ``# ...`` lines right
    below each ``print(...)`` line: the stdout the README shows for it."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library quickstart\n.*?^```python\n(.*?)^```", readme, re.S | re.M)
    shown = []
    follows_print = False
    for line in block.group(1).splitlines():
        if line.startswith("print("):
            follows_print = True
        elif follows_print and line.startswith("# "):
            shown.append(line[2:])
        else:
            follows_print = False
    return block.group(1), shown


def test_readme_library_quickstart(capsys):
    code, shown = _readme_quickstart()
    assert len(shown) == 3
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == shown
