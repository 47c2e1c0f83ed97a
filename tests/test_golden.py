"""Byte-for-byte output checks against recorded runs.

The README commands run in-process through ``cli.run`` and must print the
stdout and return the exit code that ``perfbench/golden.json`` records for
them.  The demos must print what ``tests/demo_output/`` holds (recorded
with ``python demos/NAME.py > tests/demo_output/NAME.txt``).  README's
library quick start must print what the ``# ...`` comment after each of its
``print`` calls says.
"""

import contextlib
import io
import json
import re
import runpy
from pathlib import Path

import pytest

from enriques_bn.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_CLI = json.loads((ROOT / "perfbench" / "golden.json").read_text())["cli"]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("record", GOLDEN_CLI, ids=[r["key"] for r in GOLDEN_CLI])
def test_readme_command_matches_golden(record):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(list(record["argv"]))
    assert (code, out.getvalue()) == (record["exit"], record["stdout"])


def test_every_readme_command_is_recorded():
    assert len(GOLDEN_CLI) == 15


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_matches_recorded_output(demo):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(demo), run_name="__main__")
    want = (ROOT / "tests" / "demo_output" / f"{demo.stem}.txt").read_text()
    assert out.getvalue() == want


def test_every_demo_is_recorded():
    recorded = sorted(p.stem for p in (ROOT / "tests" / "demo_output").glob("*.txt"))
    assert recorded == [p.stem for p in DEMOS] and len(DEMOS) == 6


def test_readme_quick_start_prints_its_comments():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    comments = [
        line.split("# ", 1)[1] for line in block.splitlines()
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README quick start", "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(comments) == 4
    for line, comment in zip(printed, comments):
        # a comment may add a remark in parentheses after the output
        assert comment == line or re.fullmatch(re.escape(line) + r" \(.+\)", comment)
