"""CPU times scaled for the clock speed of a shared host.

A shared VM disturbs wall time in two ways: the vCPU's clock swings
between turbo and base speed within seconds, and now and then the
hypervisor runs another guest on the vCPU (steal).  CPU time leaves steal
out on a kernel with paravirt time accounting, and a fixed reference
loop, timed next to the work, measures the clock: a CPU time multiplied
by REF_S over the loop's time is the same on a fast and a slow stretch.
"""

from __future__ import annotations

import gc
import math
import resource
from bisect import bisect_left, bisect_right
from time import process_time

#: Scaled times are CPU seconds on a host where reference_loop takes
#: REF_S; it took 1.9-2.9 ms on a Xeon vCPU.
REF_S = 2.5e-3


def reference_loop() -> int:
    """Fixed interpreter work, about REF_S long, that uses no matchstat code."""
    xs = list(range(256))
    acc = 0
    for _ in range(96):
        for x in xs:
            acc = (acc * 31 + x) & 0xFFFF
        xs.append(xs.pop(0))
    return acc


def reference_time() -> float:
    """CPU time of the reference loop: the shorter of two laps, with the
    collector paused, so one interrupt or collection cannot skew it."""
    gc.disable()
    laps = []
    for _ in range(2):
        lap = process_time()
        reference_loop()
        laps.append(process_time() - lap)
    gc.enable()
    return min(laps)


def cpu_time() -> float:
    """CPU seconds of this process and its reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + kids.ru_utime + kids.ru_stime


def host_scaled(jobs: list[dict], probes: list[tuple[float, float]]) -> list[float]:
    """Each job's CPU time scaled to a host on which the reference loop takes REF_S.

    ``probes`` are (wall start, reference_time) of probes run between
    jobs, in order.  A job is scaled by the mean of the last probe before
    it and the first after it.
    """
    starts = [s for s, _ in probes]
    scaled = []
    for j in jobs:
        before = bisect_right(starts, j["t0"]) - 1
        after = bisect_left(starts, j["t0"] + j["t"])
        near = [probes[i][1] for i in (before, after) if 0 <= i < len(probes)]
        scaled.append(j["cpu"] * REF_S / math.fsum(near) * len(near))
    return scaled
