"""Machine-speed reference for the benchmark's timings.

Shared machines change speed by themselves: on the 2-core machine this
benchmark was tuned on, the same work took 25-40% longer for stretches of
seconds to minutes, with CPU time tracking wall time.  Ten 30 s runs then
spread by more than any useful bound.  So every timing is also reported at
reference speed: multiplied by ``NOMINAL_S`` over the time that a fixed
reference kernel took around it.  The kernel is the benchmark's own and does
not change between commits: a sparse product of two three-variable Laurent
polynomials held as dicts of exponent tuples, the interpreter work that
dominates the package at the seed.
"""

from __future__ import annotations

import math
import statistics
import time

#: Reference-kernel time that defines reference speed (about its time on the
#: tuning machine in a slow phase).
NOMINAL_S = 0.015
#: A probe runs before a sample once this long has passed since the last one.
PROBE_EVERY_S = 0.5
#: A sample is scaled by the median of the probes within this distance.
WINDOW_S = 1.5

_A = {(i, j, k): complex(math.cos(i + 2 * j), math.sin(j + 3 * k))
      for i in range(-6, 7, 2) for j in range(-6, 7, 2) for k in range(-6, 7, 2)}
_B = {(i, j, k): complex(math.sin(i - j), math.cos(k))
      for i in range(-2, 3, 2) for j in range(-2, 3, 2) for k in range(-2, 3, 2)}


def reference_kernel() -> dict:
    out: dict = {}
    for k1, c1 in _A.items():
        for k2, c2 in _B.items():
            k = tuple(a + b for a, b in zip(k1, k2))
            out[k] = out.get(k, 0j) + c1 * c2
    return out


def time_reference() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


class SpeedLog:
    """Reference-kernel timings taken between samples of one pass."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []  # (when, seconds)

    def maybe_probe(self) -> None:
        now = time.perf_counter()
        if not self.probes or now - self.probes[-1][0] >= PROBE_EVERY_S:
            self.probes.append((now, time_reference()))

    def scale(self, when: float) -> float:
        """Factor that takes a time measured at ``when`` to reference speed."""
        near = [s for t, s in self.probes if abs(t - when) <= WINDOW_S]
        if not near:
            near = [min(self.probes, key=lambda p: abs(p[0] - when))[1]]
        return NOMINAL_S / statistics.median(near)
