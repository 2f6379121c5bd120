"""How fast the host runs right now, from a fixed reference task.

The benchmark shares a few cores of a host whose speed drifts: the same
pure-Python loop can take half as long again for seconds or minutes at
a time, whatever this process does. :func:`probe` times a fixed task
that mixes the kinds of work HOS-Miner does (Python dictionary
bookkeeping, numpy distance kernels over cache-resident and over
larger-than-cache arrays) and returns the host's
slowdown against :data:`REFERENCE_S`. The benchmark probes after every
cycle, between the program's calls, and divides each session's times by
the median slowdown of its cycles, so the end-to-end metrics read as
seconds on a host that runs the task in :data:`REFERENCE_S`.

The probe runs none of the program's code, and it counts the CPU time
of its own thread, not wall time: work the program might leave running
in other threads or processes between calls cannot make the host look
slower. The host's own slowdowns show in CPU time as they do in wall
time, since a slow spell makes every instruction slower.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Time of one reference task on a 2-vCPU Xeon (Sapphire Rapids) VM in
#: a quiet spell. It only sets the unit: any fixed value gives metrics
#: that compare across runs.
REFERENCE_S = 0.0035
#: Reference tasks per probe; the probe reports their median.
REPEATS = 1

_SMALL = np.random.default_rng(0).standard_normal((3000, 12))
#: About 1.9 MB, past the per-core caches, as the n=20000 scans are.
_LARGE = np.random.default_rng(1).standard_normal((20000, 12))


def _task() -> float:
    table = {}
    for i in range(3000):
        table[(i, i & 7)] = i * 0.5
    total = 0.0
    for value in table.values():
        total += value
    for points in (_SMALL, _SMALL, _SMALL, _LARGE):
        sums = ((points - points[5]) ** 2).sum(axis=1)
        total += float(np.partition(sums, 5)[5])
    return total


def probe(repeats: int = REPEATS) -> float:
    """The host's current slowdown: reference task time / REFERENCE_S."""
    times = []
    for _ in range(repeats):
        start = time.thread_time()
        _task()
        times.append(time.thread_time() - start)
    return statistics.median(times) / REFERENCE_S
