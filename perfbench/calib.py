"""Calibration kernels: fixed pieces of work that share nothing with the
program under test, timed between ops so that each op's time can be
rescaled to a fixed machine speed.

The machine this benchmark was written on changes speed by 20-45% over
spells of seconds to minutes, and CPU time follows wall time, so neither
clock alone gives figures that two sets of runs agree on. The kernel mixes
the kinds of work the workloads do (interpreted integer and dict/str code
as in mpmath and imports, many small numpy calls as in the survival
recurrence, a mid-size convolution, a sort over a few MB) so that a slow
spell stretches it about as much as it stretches an op.

Ops that start an interpreter (the cold CLI and the set-up probes) spend
their time loading modules and shared libraries, which slow spells stretch
less than they stretch in-process work, so they are rescaled by a second
kernel of their own kind: a fresh interpreter that imports numpy
(run.spawn_kernel_s).

An op's calibrated time is its wall time times the kernel's reference time
over the kernel's time measured around it: the op's time on a machine
where the kernel takes its reference time. On the 2-vCPU machine the
bounds were set on, the in-process kernel took 6-9 ms (CAL_REF_S is 10 ms)
and the spawn kernel 0.13-0.2 s (its reference is 0.15 s).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

CAL_REF_S = 0.010

_RNG = np.random.default_rng(12345)
_SMALL = _RNG.random(8)
_MID = _RNG.random(2000)
_BIG = _RNG.random(60_000)


def _interpreted() -> int:
    s = 0
    for i in range(20_000):
        s += i * i % 7
    d = {}
    for i in range(4_000):
        d[str(i)] = (i, float(i))
    return s + len(sorted(d.items(), reverse=True))


def _numpy() -> float:
    x = _SMALL
    for _ in range(600):
        x = (x * 0.5 + _SMALL).cumsum() / 9
    y = _MID
    for _ in range(25):
        y = np.convolve(y[:400], _MID[:150])[:2000] * 0.5
    z = np.sort(_BIG * 3.0)
    return float(x[0] + y[0] + z[0])


def kernel_s() -> float:
    """Run the kernel once; its wall time in seconds."""
    t0 = perf_counter()
    _interpreted()
    _numpy()
    return perf_counter() - t0


class Clock:
    """Times an op as segments separated by kernel runs.

    `start()` opens a segment; `tick()` closes it, runs the kernel and opens
    the next. A segment's calibrated time is its wall time scaled by the
    kernel's reference time `ref_s` over the mean of the two kernel times
    around it. Kernel time is never part of an op's time.
    """

    def __init__(self, kernel=kernel_s, ref_s: float = CAL_REF_S):
        self.kernel, self.ref_s = kernel, ref_s
        self.cal = [kernel()]
        self.raw = 0.0          # wall time of the segments since start()
        self.ref = 0.0          # their calibrated time
        self._t = perf_counter()

    def start(self) -> None:
        self.raw = self.ref = 0.0
        self._t = perf_counter()

    def tick(self) -> None:
        seg = perf_counter() - self._t
        self.cal.append(self.kernel())
        self.raw += seg
        self.ref += seg * self.ref_s / (0.5 * (self.cal[-2] + self.cal[-1]))
        self._t = perf_counter()
