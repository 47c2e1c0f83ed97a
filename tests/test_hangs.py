"""Commands that once ran for minutes or stopped at their search budget:
each must answer, or stop at its budget with exit 3, well inside
HANG_SECONDS in a fresh interpreter.  The ``hang`` marker keeps them out of
a plain ``pytest`` run (the destab case takes about 11 s); a plain run
checks the decompose answers of 40f + 50g (L^2 = 4,000), f + 206g and
16f + 30g, about 0.1 s each.  The lopsided classes a f + b g, a < b, answer
config-i (b, a) on g, f at degree b: no primitive isotropic class has
a < x.L < b.
The ``slow`` marker runs that ladder in process, a <= 5 up to L^2 = 4,000.

One command still runs past HANG_SECONDS: ``invariants`` of f + 30g at
``--mu-cap 200``, as mu's walk has no budget.  It is a strict xfail on the
timeout, so it fails the day mu answers or stops in time.
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


@pytest.mark.hang
@pytest.mark.xfail(strict=True, raises=subprocess.TimeoutExpired,
                   reason="mu's walk has no budget")
def test_mu_at_a_raised_cap_answers_or_exits_three_in_time():
    done = run_cli("invariants", "--class", literal(1, 30), "--mu-cap", "200")
    assert done.returncode in (0, 3), done.stderr.decode()


def answer_on_g_and_f(a: int, b: int) -> dict:
    """The CLI result of a f + b g = b g + a f in pattern (i)."""
    f, g = ('{"coords":[%d,%d,0,0,0,0,0,0,0,0],"torsion":0}' % v for v in ((1, 0), (0, 1)))
    return {"n": 2, "configuration": "config-i", "generators": [g, f], "coefficients": [b, a]}


def test_decompose_of_square_4000_answers():
    done = run_cli("decompose", "--class", literal(40, 50))
    assert (done.returncode, json.loads(done.stdout)["result"]) == (0, answer_on_g_and_f(40, 50))


@pytest.mark.parametrize("a, b", [(1, 206), (16, 30)], ids=["f+206g", "16f+30g"])
def test_lopsided_decompose_answers(a, b):
    # both stopped at the budget when the walk formed every coefficient
    # prefix below the answer's degree
    done = run_cli("decompose", "--class", literal(a, b))
    assert (done.returncode, json.loads(done.stdout)["result"]) == (0, answer_on_g_and_f(a, b))


@pytest.mark.slow
def test_the_lopsided_ladder_answers_in_process():
    from enriques_bn.invariants import decompose_isotropic
    from enriques_bn.lattice import divisor_class

    f, g = (divisor_class([int(i == k) for i in range(10)]) for k in (0, 1))
    for a in range(1, 6):
        for b in range(25, 2000 // a + 1, 25):
            dec = decompose_isotropic(divisor_class([a, b] + [0] * 8))
            assert dec == ((g, f), (b, a), "config-i"), (a, b)
