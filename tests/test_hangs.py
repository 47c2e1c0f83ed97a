"""Commands that once ran for minutes: each must answer, or stop at its
search budget with exit 3, well inside HANG_SECONDS in a fresh interpreter.
The ``hang`` marker keeps them out of a plain ``pytest`` run (the destab
case takes about 11 s); a plain run checks the decompose answer (0.1 s).
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


def run_cli(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "enriques_bn.cli", *argv],
        env=env, capture_output=True, timeout=HANG_SECONDS,
    )


@pytest.mark.hang
@pytest.mark.parametrize(
    "argv, code",
    [
        (("destab", "--class", literal(10, 20), "--d", "101"), 3),  # 6,405,650 splittings
        (("decompose", "--class", literal(40, 50)), 0),  # L^2 = 4,000
    ],
    ids=["destab-10f+20g-d101", "decompose-40f+50g"],
)
def test_answers_or_exits_three_in_time(argv, code):
    done = run_cli(*argv)
    assert done.returncode == code, done.stderr.decode()


def test_decompose_of_square_4000_answers():
    done = run_cli("decompose", "--class", literal(40, 50))
    f, g = ('{"coords":[%d,%d,0,0,0,0,0,0,0,0],"torsion":0}' % v for v in ((1, 0), (0, 1)))
    want = {"n": 2, "configuration": "config-i", "generators": [g, f], "coefficients": [50, 40]}
    assert (done.returncode, json.loads(done.stdout)["result"]) == (0, want)
