"""Pausing CPython's cycle collector over the bulk phases.

The load, generate, build, solve, fingerprint and transitions phases
allocate the IR, the constraint graph and the ``pts`` sets by the
hundred thousand. Each time the allocations outrun the collector's
thresholds it traverses everything young, and now and then everything
alive, looking for reference cycles. There are none: every structure
these phases build refers only downwards (program → class → method →
statement, graph → node, result → graph), so their objects are freed
by reference counting the moment they are dropped, and a collection
inside a phase finds nothing. ``tests/test_gcpause.py`` keeps it
so by asserting that ``gc.collect()`` finds no garbage after each
paused entry point.

:func:`gc_paused` turns the collector off for the span of one such
phase and back on afterwards, whether the phase returns or raises. It
never collects and never touches the thresholds, so the phase's
survivors are still scanned by the first collections after it; what
the pause saves is the repeated scanning while they grow. If the
collector is already off, because the caller turned it off or an outer
phase paused it, it leaves it off. The collector's switch is
process-wide, so other threads do not collect while a phase runs
either. A batch worker (:mod:`repro.runner.runner`) holds one pause
over its whole life, across the apps it analyzes one after another, so
there the survivors of each phase are never scanned at all; reference
counting frees each app's acyclic heap before the next one starts.
"""

from __future__ import annotations

import contextlib
import gc
from typing import Iterator


@contextlib.contextmanager
def gc_paused() -> Iterator[None]:
    """Turn the cycle collector off for the block or decorated call."""
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
