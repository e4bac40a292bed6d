"""Host-speed probes: scale measured times to a fixed reference speed.

The machines this benchmark runs on are shared, and a whole host can run
the same code up to about twice as slow for tens of seconds at a time, then
speed up again. CPU time follows wall time through these phases, so neither
clock can tell them apart from a slower program.

A probe times a fixed piece of work that imports nothing from forestchain,
so no change to the program can move it, and returns the host's slowness:
the probe's time over its time at the reference speed. The loop probes
before an operation and after it, and ``scale`` turns the operation's time
into its time at the reference speed. A program change that makes an
operation slower makes its scaled time slower by the same share.

There are two probes, one for each kind of work the workloads time:

- ``probe`` runs benchmark code in this process: big-integer products
  summed into a dict and a short chain of Fraction operations, the kind of
  work forestchain's forest sums and exact solves do;
- ``probe_process`` starts an isolated ``python -c pass``, for operations
  that are a whole CLI process, whose time is interpreter start-up and
  module loading rather than Python arithmetic.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction

REFERENCE_S = 0.002           # one in-process probe at the reference speed
REFERENCE_PROCESS_S = 0.07    # one process probe at the reference speed

_NUMS = tuple(tuple((7 * i + 3 * j) % 11 + 1 for j in range(7)) for i in range(4))


def _kernel() -> None:
    acc: dict[tuple[int, int], int] = {}
    total = 0
    n0, n1, n2, n3 = _NUMS
    for a in range(7):
        for b in range(7):
            for c in range(7):
                for d in range(7):
                    w = n0[a] * n1[b] * n2[c] * n3[d] * 1234567891011
                    total += w
                    key = (a, c)
                    acc[key] = acc.get(key, 0) + w
    q = Fraction(total, 360360)
    for i in range(1, 60):
        q = q * Fraction(i, i + 1) + Fraction(1, i)


def _timed(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probe(repeats: int = 3) -> float:
    """Slowness of this process's host for Python code; 1.0 at reference speed."""
    return _timed(_kernel, repeats) / REFERENCE_S


def probe_process(repeats: int = 1) -> float:
    """Slowness of the host for starting a Python process; 1.0 at reference speed."""
    def start():
        subprocess.run([sys.executable, "-I", "-c", "pass"], check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
    return _timed(start, repeats) / REFERENCE_PROCESS_S


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two probes, at the reference speed."""
    return seconds * 2 / (before + after)


_kernel()  # the first run in a process pays for warming caches
