"""Host-speed probe: scales a run's times to one reference host speed.

The benchmark runs on a few vCPUs of a shared virtual machine. Their
speed drifts by 20-80% over seconds to minutes as other tenants come and
go, in process CPU time as well as in wall time, so two runs of the same
code minutes apart can differ by more than any change worth detecting.
To take that drift out, a fixed pure-Python kernel that depends on nothing
in airindex is timed between calls into the package, at most once every
``INTERVAL_S`` seconds. The probe's own time is kept out of every timer:
timers read ``clock()``, which stops while the probe runs.

A timed interval is then scaled piece by piece: the time between two
probes is multiplied by ``NOMINAL_S`` over the median of the ``2 * NEAR``
probe times around it. A scaled time reads as it would on a host where
the probe takes ``NOMINAL_S``. Scaling by the probes near each interval,
rather than by one figure for the whole run, follows drift that changes
within a run.
"""

from __future__ import annotations

import bisect
import statistics
import time

PROBE_ROUNDS = 6000
# A typical probe time on the Intel Xeon vCPUs of the reference host under
# Python 3.11; a run's median probe time there was between 0.6 and 1.0 ms.
NOMINAL_S = 0.0008
INTERVAL_S = 0.05
NEAR = 24


def _kernel(rounds: int) -> int:
    acc = 0
    seen: dict[int, int] = {}
    for i in range(rounds):
        acc = (acc * 31 + i) % 65521
        seen[i & 63] = acc
    return acc


class HostSpeed:
    """Times the probe between calls and scales intervals of ``clock()``."""

    def __init__(self) -> None:
        self.at: list[float] = []  # clock() when each probe ran
        self.samples: list[float] = []  # how long each probe took
        self._spent = 0.0
        self._next = 0.0
        self._cum: list[float] | None = None
        self._rate: list[float] = []

    def clock(self) -> float:
        """``time.perf_counter()`` minus the time spent in probes."""
        return time.perf_counter() - self._spent

    def tick(self) -> None:
        """Time the probe if ``INTERVAL_S`` has passed since the last one."""
        start = time.perf_counter()
        if start < self._next:
            return
        _kernel(PROBE_ROUNDS)
        end = time.perf_counter()
        self.at.append(start - self._spent)
        self.samples.append(end - start)
        self._spent += end - start
        self._next = end + INTERVAL_S
        self._cum = None

    def _prepare(self) -> None:
        """Scale factor of each gap between probes, and the scaled clock at each probe."""
        n = len(self.samples)
        self._rate = [
            NOMINAL_S / statistics.median(self.samples[max(0, i - NEAR + 1) : i + NEAR + 1])
            for i in range(n)
        ]
        self._cum = [0.0]
        for i in range(1, n):
            self._cum.append(self._cum[-1] + (self.at[i] - self.at[i - 1]) * self._rate[i - 1])

    def _scaled_clock(self, t: float) -> float:
        i = max(bisect.bisect_right(self.at, t) - 1, 0)
        return self._cum[i] + (t - self.at[i]) * self._rate[i]

    def seconds(self, start: float, end: float) -> float:
        """Scaled length of the ``clock()`` interval from ``start`` to ``end``."""
        if self._cum is None:
            self._prepare()
        return self._scaled_clock(end) - self._scaled_clock(start)

    def factor(self) -> float:
        """Scale factor of the whole run, from the median of all its probes."""
        return NOMINAL_S / statistics.median(self.samples)


class NullSpeed:
    """No probes and no scaling: for traced runs, whose per-layer times are raw."""

    def clock(self) -> float:
        return time.perf_counter()

    def tick(self) -> None:
        pass

    def seconds(self, start: float, end: float) -> float:
        return end - start
