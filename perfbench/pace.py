"""Host-speed normalisation of wall times.

The benchmark's host is a small slice of a shared machine whose speed for
interpreter-bound Python drifts by 10-40% within seconds to minutes, as
neighbours come and go. A plain wall time carries that drift into every
number, and ten runs of the same code spread wider than any useful bound.

A Pacer runs a fixed reference kernel (pure Python, small working set, no
I/O) every INTERVAL_S from a SIGALRM handler, in the same process and on the
same vCPU as the code being timed, so the kernel sees the host as that code
sees it, at the same moments. The host switches between a fast and a slow
state (about 2x apart for this kernel) many times a minute, so a timed
window [a, b] is cut at each kernel call, and each piece of the window's
own work is scaled by the host's speed at that moment:

    sum over pieces of  piece * REFERENCE_KERNEL_S / local kernel time

where the local kernel time is the median of the LOCAL calls around it.
That is the window's own work in seconds of a host on which the kernel
takes REFERENCE_KERNEL_S. The kernel is part of the benchmark, not of
chargesim, so a change to chargesim moves only the pieces. The raw wall
times stay in each repetition's report. Over ten fresh processes of one
workload this cut the interquartile range of the run time from 28-40% of
the median to 8-13%.
"""

from __future__ import annotations

import gc
import json
import signal
import statistics
import time
from bisect import bisect_left

INTERVAL_S = 0.05
# between the fast (~1.4 ms) and slow (~2.7 ms) states of the host this was tuned on
REFERENCE_KERNEL_S = 0.0025
LOCAL = 5  # kernel calls whose median gives the host's speed at one moment
WARMUP_CALLS = 20


def kernel() -> int:
    """A fixed slice of the work the simulator does: small dicts, f-strings, floats, sort, json."""
    rows = []
    for i in range(300):
        row = {"id": i, "name": f"agent-{i:04d}", "soc": i * 0.37 % 1.0, "tags": [i, i + 1]}
        row["score"] = sum(x * 1.5 for x in row["tags"]) + row["soc"] ** 2
        rows.append(row)
    rows.sort(key=lambda r: r["score"])
    return len(json.dumps(rows))


class Pacer:
    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, duration) of each kernel call
        self._previous = None

    def _tick(self, signum, frame) -> None:
        # no collection inside the kernel: a full collection would scan the
        # simulation's heap and time that instead of the host
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.samples.append((t0, t1 - t0))

    def __enter__(self) -> "Pacer":
        for _ in range(WARMUP_CALLS):
            kernel()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def paused_s(self, a: float, b: float) -> float:
        """Time the kernel took inside [a, b]; a tick runs to its end before b is read."""
        return sum(d for t, d in self.samples if a <= t < b)

    def net_s(self, a: float, b: float) -> float:
        """Wall time of [a, b] without the kernel's own time."""
        return b - a - self.paused_s(a, b)

    def normalized_s(self, a: float, b: float) -> float:
        """The work of [a, b] in seconds of a host where the kernel takes REFERENCE_KERNEL_S."""
        durations = [d for _, d in self.samples]
        half = LOCAL // 2
        local = [statistics.median(durations[max(0, i - half):i + half + 1])
                 for i in range(len(durations))]
        total, start = 0.0, a
        j = bisect_left(self.samples, (a,))
        while j < len(self.samples) and self.samples[j][0] < b:
            t, d = self.samples[j]
            total += (t - start) / local[j]
            start = t + d
            j += 1
        # the tail up to b, at the speed of the next call (or the last one)
        total += (b - start) / local[min(j, len(local) - 1)]
        return total * REFERENCE_KERNEL_S
