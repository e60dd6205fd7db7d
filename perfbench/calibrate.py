"""A fixed pure-Python reference task that tracks the host's current speed.

On a shared host the speed of the same code drifts by a quarter or more
within a minute, so raw times of identical work differ from run to run
more than any bound a benchmark could hold.  The workload process times
this task twice a second from a timer signal and subtracts the probe's
own time from every timed window.
run.py reports each end-to-end time scaled to the reference speed,
time * reference_s / median(task time), next to the raw time.

The task is the benchmark's own code and never calls obidet, so a change
to the program cannot move it.  Like obidet it allocates, hashes, merges
and sorts many small immutable objects and does small-fraction
arithmetic; of the tasks tried, this one tracked the drift of the
straightening and point-generation work best.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction


class _Node:
    __slots__ = ("key", "weight", "_hash")

    def __init__(self, key, weight):
        self.key = key
        self.weight = weight
        self._hash = hash((key, weight))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self.key == other.key and self.weight == other.weight


def task() -> int:
    rng = random.Random(11)
    nodes = [_Node(tuple(rng.randrange(50) for _ in range(3)),
                   Fraction(rng.randint(1, 9), rng.randint(1, 9))) for _ in range(2500)]
    merged: dict = {}
    for node in nodes:
        merged[node] = merged.get(node, 0) + 1
    nodes.sort(key=lambda x: (x.key, x.weight))
    total = Fraction(0)
    for node in nodes[::20]:
        total += node.weight * node.weight
    return len(merged) + total.denominator


class SpeedProbe:
    """Times `task` from a timer signal every `every_s` seconds.

    The signal also fires inside long items (a verify suite runs for
    seconds), so every stretch of the run is sampled.  `spent` is the time
    the probe has taken so far; callers subtract its growth over a timed
    window from that window.  Use it as a context manager.
    """

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        task()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)   # at least one sample, however short the run


def scale(samples: list[float], reference_s: float) -> float:
    """The factor that turns a raw time into reference-speed time."""
    return reference_s / statistics.median(samples)
