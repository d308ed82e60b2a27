"""Machine-speed reference for the end-to-end timings.

The benchmark runs on shared hosts whose speed drifts by up to 2x over a
few minutes, as other tenants come and go; the drift is common to all code
on the host. Each timed operation and set-up probe is therefore bracketed
by a fixed numpy loop that never touches eincasm, on a lattice of the
workloads' size, and its wall time is scaled by how fast that loop ran
around it:

    normalised = wall * NOMINAL_S / mean(loop before, loop after)

A change to eincasm moves the normalised time exactly as much as the wall
time; a slow spell of the host moves both the loop and the operation and
largely cancels. The raw wall times are kept in the run record.
"""

from __future__ import annotations

import time

import numpy as np

#: Nominal seconds of one reference loop: normalised times are wall times
#: on a host where the loop takes this long. On the shared 2-vCPU x86-64
#: host the benchmark was defined on it took 0.1 to 0.16 s.
NOMINAL_S = 0.1
SIDE = 16  # lattice side of both workloads' worlds
ITERATIONS = 3600

_RNG = np.random.default_rng(SIDE)
_F, _G = _RNG.random((9, SIDE, SIDE)), _RNG.random((SIDE, SIDE))


def reference_s(min_s: float = 0.0) -> float:
    """Wall seconds per reference loop, averaged over as many loops as
    fill min_s (at least one)."""
    loops, start = 0, time.perf_counter()
    while True:
        f, g = _F, _G
        for _ in range(ITERATIONS):
            rho = f.sum(axis=0)
            f = np.roll(f, 1, axis=2) * 0.99 + rho * (0.01 / 9)
            g = np.where(g > 0.5, g * 0.9, g + 0.05)
        loops += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_s:
            return elapsed / loops


class Bracket:
    """Times measurements between reference loops; each loop closes one
    interval and opens the next. The host's speed flips within a second
    or two, so the loops after a measurement run for SAMPLE_SHARE of its
    length: a longer operation gets a longer look at the host."""

    SAMPLE_SHARE = 0.1

    def __init__(self):
        self.last = reference_s()
        self.loops = [self.last]

    def factor(self, wall_s: float) -> float:
        """NOMINAL_S over the mean loop time before and after a
        measurement of wall_s seconds: multiply wall_s by it."""
        after = reference_s(self.SAMPLE_SHARE * wall_s)
        before, self.last = self.last, after
        self.loops.append(after)
        return NOMINAL_S / ((before + after) / 2)
