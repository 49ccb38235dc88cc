"""Wall time converted to seconds at a fixed reference host speed.

On a shared virtual machine the CPU speed changes from one tenth of a second
to the next: the same repetition can take 2.6 s in one minute and 4.4 s in
the next, and a probe timed before and after a repetition says little about
the speed during it.  A :class:`HostClock` samples the speed while the
program runs.  A timer signal interrupts the process every ``INTERVAL_S``
seconds and runs :func:`probe`, a fixed loop that runs none of the program's
code, so a change to the program cannot move it; only the host's speed does.

Wall time between two probes counts as reference seconds at the mean of the
speeds the two probes measured, where a probe that takes
``REFERENCE_PROBE_S`` is speed 1.  The probes' own time counts as nothing.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter
from typing import Any, Dict, List, Tuple

import numpy as np

#: Seconds between two probes; the probes take about 3% of the time.
INTERVAL_S = 0.05
#: Seconds :func:`probe` takes, run from the timer signal, on a quiet 2-vCPU
#: Intel Xeon virtual machine with CPython 3.11.
REFERENCE_PROBE_S = 0.0009

_KEYS = [f"peer-{index:04d}" for index in range(500)]
_VECTOR = np.arange(64, dtype=float)


def probe() -> Tuple[float, float]:
    """Start and end of one run of a fixed loop of dict updates and small numpy calls.

    The loop resembles the simulation's mix of Python object work and
    small-array numpy calls.
    """
    table: Dict[str, float] = {}
    total = 0.0
    start = perf_counter()
    for index in range(1000):
        key = _KEYS[index % 500]
        table[key] = table.get(key, 0.0) + index * 0.5
        total += table[key] % 7.0
    for _ in range(125):
        total += float(np.clip(_VECTOR * 0.5, 0.0, 10.0).sum())
    return start, perf_counter()


class HostClock:
    """Probes the host speed while the block runs, then maps times onto two scales.

    After the block, :meth:`reference_at` maps a ``perf_counter()`` reading
    taken inside it to reference seconds since the block began, and
    :meth:`wall_at` to wall seconds since then; both leave out the probes'
    own time.
    """

    def __init__(self) -> None:
        #: ``(start, end)`` of every probe, in order.
        self.samples: List[Tuple[float, float]] = []
        self._starts: List[float] = []
        self._wall: List[float] = []
        self._reference: List[float] = []
        self._slopes: List[float] = []
        self._previous: Any = None
        self._probing = False

    def __enter__(self) -> "HostClock":
        self.samples = [probe()]
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _sample(self, signum: int, frame: Any) -> None:
        # A probe stalled past the next tick must not be interrupted by
        # another, or the samples would overlap.
        if self._probing:
            return
        self._probing = True
        self.samples.append(probe())
        self._probing = False

    def __exit__(self, *exc_info: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe())
        self._integrate()

    def _integrate(self) -> None:
        speeds = [REFERENCE_PROBE_S / (end - start) for start, end in self.samples]
        wall = reference = 0.0
        for index, (start, _) in enumerate(self.samples):
            if index:
                gap = start - self.samples[index - 1][1]
                slope = (speeds[index - 1] + speeds[index]) / 2
                wall += gap
                reference += gap * slope
                self._slopes.append(slope)
            self._starts.append(start)
            self._wall.append(wall)
            self._reference.append(reference)

    def _at(self, moment: float, cumulative: List[float], scaled: bool) -> float:
        index = bisect.bisect_right(self._starts, moment) - 1
        if index < 0:
            return 0.0
        if index == len(self._starts) - 1:
            return cumulative[index]
        after_probe = max(0.0, moment - self.samples[index][1])
        return cumulative[index] + after_probe * (self._slopes[index] if scaled else 1.0)

    def reference_at(self, moment: float) -> float:
        """Reference seconds from the start of the block to ``moment``."""
        return self._at(moment, self._reference, scaled=True)

    def wall_at(self, moment: float) -> float:
        """Wall seconds, without the probes, from the start of the block to ``moment``."""
        return self._at(moment, self._wall, scaled=False)

    def median_probe_s(self) -> float:
        return statistics.median(end - start for start, end in self.samples)
