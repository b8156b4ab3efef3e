"""Run functions in forked children, side by side, and collect their results."""

from __future__ import annotations

import json
import os
import traceback
import tracemalloc
from typing import Callable, List, Sequence


def in_children(fns: Sequence[Callable[[], object]]) -> List[object]:
    """Run each of ``fns`` in its own forked child, all at once.

    Returns their JSON-able results in order. A child's allocations
    never reach this process's peak RSS, and a child does not trace its
    allocations even when this process does. Every child is reaped
    before a failed one raises RuntimeError.
    """
    children = []
    for fn in fns:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(read_fd)
                tracemalloc.stop()
                data = json.dumps(fn()).encode("utf-8")
                with os.fdopen(write_fd, "wb") as out:
                    out.write(data)
                status = 0
            except BaseException:  # the child must always reach _exit
                traceback.print_exc()
            finally:
                os._exit(status)
        os.close(write_fd)
        children.append((pid, read_fd))
    results, failed = [], []
    for pid, read_fd in children:
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
        _, status = os.waitpid(pid, 0)
        if status != 0:
            failed.append(status)
        else:
            results.append(json.loads(data))
    if failed:
        raise RuntimeError(f"forked children failed with wait status {failed}")
    return results
