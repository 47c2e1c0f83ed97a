"""The benchmark's drift reference: fixed stdlib Fraction work.

Kept apart from run.py so that a child process can run it after a light
import: ``python -c "import refloop; refloop.reference_loop()"``.
"""

import signal
import time
from fractions import Fraction

ITERATIONS = 1500
# The host's speed can change within one item, so items are also probed
# while they run: every PROBE_INTERVAL_S, PROBE_ITERATIONS of the loop.
PROBE_ITERATIONS = 100
PROBE_INTERVAL_S = 0.02


def reference_loop(iterations: int = ITERATIONS) -> float:
    """Seconds taken by a fixed piece of Fraction work, like the search
    kernel's inner loop."""
    c, rem = Fraction(7, 3), Fraction(50, 7)
    start = time.perf_counter()
    for y in range(iterations):
        Fraction(5, 4) * (y % 17 - c) ** 2 <= rem
    return time.perf_counter() - start


class Probes:
    """While active, a timer signal runs the probe loop every
    PROBE_INTERVAL_S.  ``times`` gets each probe's loop time and
    ``seconds`` the time all probes took, so that the work they interrupt
    can be timed without them.  Use it in the main thread only."""

    def __init__(self):
        self.times: list[float] = []
        self.seconds = 0.0

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        self.times.append(reference_loop(PROBE_ITERATIONS))
        self.seconds += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
