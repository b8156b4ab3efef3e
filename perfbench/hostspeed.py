"""Host speed calibration.

The benchmark's host may be shared, and then its speed drifts: on a
shared 2-vCPU virtual machine, the same analysis took from 0.5 to 0.8 s
within a few minutes, and the medians of two sets of ten runs made 20
minutes apart differed by up to 39%. No number of passes inside one run
removes a drift that lasts longer than the run.

So the benchmark times a fixed pure-Python workload, :func:`calibrate`,
next to the work it measures, and reports each end-to-end time at the
reference speed: ``seconds * REFERENCE_S / c``, where ``c`` is the
median of the calibration samples taken around that work. On a quiet
host ``c`` is close to ``REFERENCE_S`` and the scaled time close to the
wall time. The calibration never calls the program, so a change to the
program cannot move it.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List, Sequence

from forked import in_children

# The median calibrate() of the host the baseline was recorded on
# (BASELINE.md): a 2-vCPU Linux VM, Python 3.11.
REFERENCE_S = 0.05
# Iterations of the calibration loop; fixed with REFERENCE_S.
_ROUNDS = 30000


class _Node:
    __slots__ = ("key", "succ")

    def __init__(self, key) -> None:
        self.key = key
        self.succ = set()


def _work() -> int:
    """Tuple-keyed dict lookups, object and set growth: the analysis's mix."""
    nodes = {}
    for i in range(_ROUNDS):
        key = (i % 499, "v%d" % (i % 97))
        node = nodes.get(key)
        if node is None:
            node = nodes[key] = _Node(key)
        node.succ.add(i % 61)
    return sum(len(node.succ) for node in nodes.values())


def calibrate() -> float:
    """Seconds the calibration workload takes now, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def calibrate_in_parallel(jobs: int, count: int) -> List[float]:
    """``count`` calibrations in each of ``jobs`` forked processes at once.

    A parallel pass runs ``jobs`` workers side by side, and how fast two
    processes run together on a shared host drifts apart from how fast
    one runs alone.
    """
    runs = in_children([lambda: [calibrate() for _ in range(count)]] * jobs)
    return [seconds for samples in runs for seconds in samples]


def at_reference_speed(seconds: float, samples: Sequence[float]) -> float:
    """``seconds`` measured next to ``samples``, scaled to the reference speed."""
    return seconds * REFERENCE_S / statistics.median(samples)
