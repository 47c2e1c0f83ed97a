"""Byte-for-byte output checks against recorded runs.

The README commands run in-process through ``cli.run`` and must print the
stdout and return the exit code that ``perfbench/golden.json`` records for
them.  The ``sweep`` and ``destab`` items of the benchmark must give the
answers it records, computed by ``perfbench/workloads.py`` (loaded
read-only by path, as ``tests/test_tooling.py`` loads the tracer).  The
demos must print what ``tests/demo_output/`` holds (recorded with
``python demos/NAME.py > tests/demo_output/NAME.txt``).  README's library
quick start must print what the ``# ...`` comment after each of its
``print`` calls says.
"""

import contextlib
import importlib.util
import io
import json
import re
import runpy
import sys
from pathlib import Path

import pytest

from enriques_bn.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())
GOLDEN_CLI = GOLDEN["cli"]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # its dataclasses look their module up
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("record", GOLDEN_CLI, ids=[r["key"] for r in GOLDEN_CLI])
def test_readme_command_matches_golden(record):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(list(record["argv"]))
    assert (code, out.getvalue()) == (record["exit"], record["stdout"])


def test_every_readme_command_is_recorded():
    assert len(GOLDEN_CLI) == 15


@pytest.mark.parametrize(
    "workload, count, answer",
    [("sweep", 36, workloads.sweep_answer),
     ("destab", 26, lambda args: workloads.destab_answer(*args))],
    ids=["sweep", "destab"],
)
def test_library_workload_matches_golden(workload, count, answer):
    items = workloads.build_items(workload, GOLDEN)
    wrong = [
        item.key for item, rec in zip(items, GOLDEN[workload], strict=True)
        if workloads.canonical(answer(item.payload)) != rec["answer"]
    ]
    assert len(items) == count and wrong == []


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
