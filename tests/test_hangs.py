"""Commands that still run past HANG_SECONDS with no exit 3.

Every search is meant to answer, or to stop at its budget with exit 3
(``SearchExhaustedError``), within a bounded time.  Each case below runs
the CLI in a fresh interpreter under a HANG_SECONDS timeout and is marked
``xfail(strict=True)``: it fails by timing out today, and the change that
mends its command turns it into a plain pass, so the mark has to go with
that change.

The cases are behind the ``hang`` marker, deselected by default; run them
with ``pytest -m hang``.  Each takes HANG_SECONDS, and on a 2-vCPU host
with Python 3.11 the ``destab`` case holds about 2 GB when it is killed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HANG_SECONDS = 40
SRC = Path(__file__).resolve().parents[1] / "src"


def literal(a: int, b: int) -> str:
    """The class a f + b g as a JSON literal."""
    return json.dumps({"coords": [a, b] + [0] * 8, "torsion": 0})


@pytest.mark.hang
@pytest.mark.xfail(strict=True, raises=subprocess.TimeoutExpired,
                   reason="runs past HANG_SECONDS with no search budget")
@pytest.mark.parametrize(
    "argv",
    [
        # 6,405,650 candidates, all listed
        ("destab", "--class", literal(10, 20), "--d", "101"),
        # L^2 = 4,000: the shape listing before the first slot fill
        ("decompose", "--class", literal(40, 50)),
    ],
    ids=["destab-10f+20g-d101", "decompose-40f+50g"],
)
def test_answers_or_exits_three_in_time(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "enriques_bn.cli", *argv],
        env=env, capture_output=True, timeout=HANG_SECONDS,
    )
    assert done.returncode in (0, 3), done.stderr.decode()
