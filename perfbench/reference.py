"""A fixed reference computation, timed between units of work, that scales out the machine's speed.

On a shared host the speed of a core moves with its neighbours' load, by
10-25% within seconds, and process CPU time moves in step with wall time.
So `run.py` times this computation before each unit of work and after
the last, and scales every time a unit took by `REFERENCE_MS` over the
geometric mean of the reference times just before and just after it.
A change to the library moves a scaled figure as it moves the raw one;
a host that slows down slows the reference beside it too, and cancels out.

The computation does the kind of work the library spends its time on,
with no call into it: multiply-subtracts of one vector of large integers
from another, the shape of size reduction in LLL and of the integer and
list work in key generation, encryption and decryption.
"""

from __future__ import annotations

import math
import time
from typing import Sequence

clock = time.perf_counter

# The computation's median time on the machine the baseline was taken on
# (2 vCPUs, Python 3.11), so scaled times read as that machine's times.
REFERENCE_MS = 1.0

_ROW = tuple((0x5DEECE66D * (i + 1)) << (40 + i) for i in range(48))


def reference() -> int:
    row = list(_ROW)
    for q in range(1, 160):
        row = [a - q * b for a, b in zip(row, _ROW)]
    return row[-1]


class Calibration:
    """Reference times taken between units of work, and how long each unit took.

    Call `between(samples)` before each unit and once after the last;
    `samples` is the workload's dict of timing lists, so that each sample
    can be traced to the unit that recorded it.
    """

    def __init__(self):
        self.reference_ms: list[float] = []
        self.walls: list[float] = []  # seconds from one reference to the next
        self.marks: list[dict[str, int]] = []
        self._last_end: float | None = None

    def between(self, samples: dict[str, Sequence[float]] | None = None) -> None:
        start = clock()
        if self._last_end is not None:
            self.walls.append(start - self._last_end)
        reference()  # untimed, so what the unit left in the caches does not count
        timed = clock()
        reference()
        self._last_end = clock()
        self.reference_ms.append((self._last_end - timed) * 1e3)
        self.marks.append({name: len(times) for name, times in (samples or {}).items()})

    def factors(self) -> list[float]:
        """For each unit, the factor that brings its times to the baseline machine's speed."""
        ref = self.reference_ms
        return [REFERENCE_MS / math.sqrt(before * after) for before, after in zip(ref, ref[1:])]

    def scaled_walls(self) -> list[float]:
        return [wall * f for wall, f in zip(self.walls, self.factors())]

    def scaled_samples(self, samples: dict[str, Sequence[float]]) -> dict[str, list[float]]:
        """Each sample times the factor of the unit that recorded it."""
        out = {name: list(times) for name, times in samples.items()}
        for f, start, end in zip(self.factors(), self.marks, self.marks[1:]):
            for name, times in out.items():
                for j in range(start.get(name, 0), end.get(name, 0)):
                    times[j] *= f
        return out
