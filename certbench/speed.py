"""Host speed, sampled between certificates, for scaling measured times.

On a shared virtual machine, busy neighbours slow every instruction by up to
half again, for tens of seconds at a time, which is longer than one run; CPU
time slows the same way, so it does not help.  The probe is a fixed piece
of the benchmark's own pure-Python code with the same kinds of work as
orbicurve's oracles (big-integer elimination and permutation tuples).  A
time measured between two probes is scaled by REFERENCE_S over the median
probe time around it, which states it at the speed where the probe takes
REFERENCE_S.  orbicurve never runs inside the probe, so a change to
orbicurve cannot change the scale.
"""

from __future__ import annotations

import bisect
import random
import statistics
from time import perf_counter

import oracles

REFERENCE_S = 0.00125  # probe time on an idle host of the tuning machine
INTERVAL_S = 0.05  # sample at most this often between certificates
WINDOW_S = 0.25  # probes this close to a measured interval set its scale

_rng = random.Random(0)
_MATRIX = [[_rng.randint(-9, 9) for _ in range(7)] for _ in range(7)]
_P = tuple(_rng.sample(range(48), 48))
_Q = tuple(_rng.sample(range(48), 48))


def _kernel() -> int:
    seen = set()
    for _ in range(8):
        oracles.bareiss(_MATRIX)
        p = _P
        for _ in range(60):
            p = oracles.perm_mul(p, _Q)
            seen.add(p)
    return len(seen)


class SpeedProbe:
    def __init__(self):
        self.at: list[float] = []  # probe midpoints
        self.took: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        _kernel()
        t1 = perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)

    def maybe_sample(self) -> None:
        if not self.at or perf_counter() - self.at[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the median probe time within WINDOW_S of
        [t0, t1], widened to the nearest probe on each side."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        lo = min(lo, max(0, bisect.bisect_left(self.at, t0) - 1))
        hi = max(hi, min(len(self.at), bisect.bisect_right(self.at, t1) + 1))
        return REFERENCE_S / statistics.median(self.took[lo:hi])

    def timed(self, fn):
        """Run fn between probes; returns (scaled seconds, raw seconds, result)."""
        self.sample()
        t0 = perf_counter()
        result = fn()
        t1 = perf_counter()
        self.sample()
        return (t1 - t0) * self.scale(t0, t1), t1 - t0, result
