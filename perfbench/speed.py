"""Machine speed, measured beside the jobs, for latencies that do not drift
with it.

The benchmark runs on shared virtual machines whose speed rises and falls
by a third over minutes, for every kind of work at once: the same jobs take
1.3 s in one minute and 2.1 s in the next.  Between jobs, outside their
timed intervals, the loop times a fixed block of pure-Python work that
belongs to the benchmark and calls nothing in ``sandmon``: a toppling, a
fraction-free elimination and dict and tuple traffic, the kinds of work the
library does.  A job's latency
at reference speed is its wall latency times ``REFERENCE_MS`` over the
median time of the blocks run nearest to it: the latency it would have on a
machine where the block takes ``REFERENCE_MS`` ms.  A change to the program
moves that figure as it moves the wall latency; a change in machine speed
moves the job and the block alike and cancels out.
"""

from __future__ import annotations

import statistics
from bisect import bisect_right
from time import perf_counter

# The block's time at reference speed, in ms; about its time on a 2.1 GHz
# Xeon virtual machine.
REFERENCE_MS = 12.0
# Job time, in seconds, between two timed blocks: blocks add about 6% to
# the wall time of a run.
EVERY_S = 0.2
# Blocks per speed estimate: about three seconds of jobs around the job.
WINDOW = 15


def _topple(n: int = 11) -> int:
    """Stabilise 4n^2 grains on the centre of an n x n grid sandpile."""
    heights = [0] * (n * n)
    centre = (n // 2) * n + n // 2
    heights[centre] = 4 * n * n
    stack = [centre]
    while stack:
        v = stack.pop()
        if heights[v] < 4:
            continue
        k = heights[v] // 4
        heights[v] -= 4 * k
        i, j = divmod(v, n)
        for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
            if 0 <= a < n and 0 <= b < n:
                w = a * n + b
                heights[w] += k
                if heights[w] >= 4:
                    stack.append(w)
    return sum(heights)


def _eliminate(n: int = 26) -> int:
    """Bareiss elimination of a fixed n x n integer matrix, whose entries
    grow to integers of some hundred digits."""
    m = [[(3 * i + 7 * j) % 11 - 5 + (20 if i == j else 0) for j in range(n)]
         for i in range(n)]
    prev = 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return m[-1][-1]


def _dicts() -> int:
    """Small tuples as dict keys, integer arithmetic, a sort."""
    counts = {}
    acc = 0
    big = 3 ** 150
    for i in range(8000):
        key = (i % 7, i % 11, i % 13, i & 3)
        counts[key] = counts.get(key, 0) + 1
        acc = (acc * 31 + i) % 1_000_003
        if i % 50 == 0:
            big = (big * big) % (10 ** 90 + 7) + i
    order = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    return acc + order[0][1] + big % 97


def block() -> int:
    return _topple() + _eliminate() % 97 + _dicts()


def time_block() -> float:
    start = perf_counter()
    block()
    return perf_counter() - start


class Speed:
    """Block times, each with the number of jobs run before it."""

    def __init__(self):
        self.positions = []
        self.seconds = []

    def sample(self, jobs_done: int) -> None:
        self.positions.append(jobs_done)
        self.seconds.append(time_block())

    def median_ms(self) -> float:
        return statistics.median(self.seconds) * 1e3

    def scales(self, jobs: int) -> list:
        """For each job, REFERENCE_MS over the median of the WINDOW block
        times nearest to it."""
        n = len(self.seconds)
        width = min(WINDOW, n)
        out = []
        for i in range(jobs):
            k = bisect_right(self.positions, i)
            start = min(max(0, k - width // 2), n - width)
            local = statistics.median(self.seconds[start:start + width])
            out.append(REFERENCE_MS / 1e3 / local)
        return out
