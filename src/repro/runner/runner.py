"""Fault-isolated parallel execution of per-app analysis jobs.

Apps run in at most ``jobs`` long-lived ``multiprocessing`` workers per
:func:`run_batch` call. A worker takes one app at a time over its pipe
and sends back exactly one message for it; a worker whose app
succeeded takes the next one, so a batch without failures forks at
most ``jobs`` processes. A pathological app can still only take down
its own worker, never the run:

* an uncaught exception in the worker is shipped back as a structured
  error payload and quarantines that app (status ``failed``);
* a hard crash (segfault, ``os._exit``) is detected via the dead pipe
  and recorded with the worker's exit code;
* an app exceeding the per-app wall-clock ``timeout`` has its worker
  terminated (SIGTERM, then SIGKILL) and is recorded as ``timeout``;
* exception/crash failures are retried up to ``retries`` times with a
  linear backoff — transient faults (OOM-killed sibling, flaky I/O)
  get a second chance; malformed input (a ``ReproError``) never does;
* with ``continue_on_error`` the run always degrades gracefully to
  partial results; without it, no *new* apps are scheduled after the
  first final failure (already-running workers finish, unscheduled
  apps are recorded as ``skipped``).

A worker exits after any failure, and a killed or crashed one is gone,
so the next app, a retry included, starts in a fresh process. Results
are drained as soon as they are readable so payloads larger than the
pipe buffer can never deadlock a child against its parent. The parent
process never imports analysis results across the boundary — jobs
return small picklable summaries (see :mod:`repro.runner.tasks`).

A worker keeps the cycle collector off for its whole life
(:func:`repro.gcpause.gc_paused`). Reusing it is safe because each
job's heap is acyclic: reference counting frees one app before the
next one starts, so a collection there would only scan what is freed
anyway. When :func:`run_batch` returns, on every path, no worker is
left alive: idle ones are sent ``None`` and joined, busy ones killed.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.analysis import AnalysisOptions
from repro.errors import ReproError
from repro.gcpause import gc_paused
from repro.obs import names as obs_names
from repro.obs.tracer import Tracer
from repro.runner.tasks import (
    BatchTarget,
    analyze_job,
    load_target,
    maybe_inject_fault,
    resolve_targets,
)

# Final per-app states (``retried`` is an attribute, not a state: an
# app that succeeded on its second attempt is ``ok`` with attempts=2).
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"
STATUS_SKIPPED = "skipped"


@dataclass
class BatchOptions:
    """Tunable switches of the batch runner.

    ``jobs`` is the number of concurrent worker processes (1 = one
    worker at a time; a worker takes the next app only after a success). ``timeout`` is the per-app wall-clock
    budget in seconds (None = unbounded). ``retries`` bounds re-runs
    after an exception or worker crash; attempt *n* waits ``backoff * n``
    seconds before relaunching. Timeouts and malformed input are not
    retried: a hung app would just burn the budget twice, and bad input
    fails the same way every time.
    """

    jobs: int = 1
    timeout: Optional[float] = None
    retries: int = 1
    backoff: float = 0.5
    continue_on_error: bool = False
    analysis: AnalysisOptions = field(default_factory=AnalysisOptions)

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ReproError(f"jobs must be >= 1 (got {self.jobs})")
        if self.retries < 0:
            raise ReproError(f"retries must be >= 0 (got {self.retries})")
        if self.timeout is not None and self.timeout <= 0:
            raise ReproError(f"timeout must be positive (got {self.timeout})")


@dataclass
class AppOutcome:
    """Terminal record for one app of the batch."""

    name: str
    status: str
    attempts: int
    seconds: float  # final attempt, from dispatch to result
    payload: Optional[object] = None  # the job's return value (ok only)
    error: Optional[Dict[str, object]] = None

    @property
    def retried(self) -> bool:
        return self.attempts > 1


@dataclass
class BatchResult:
    """Everything one :func:`run_batch` call produced."""

    outcomes: List[AppOutcome]  # in input-target order
    options: BatchOptions
    elapsed_seconds: float
    retries: int  # total relaunches across all apps

    def outcome(self, name: str) -> Optional[AppOutcome]:
        for outcome in self.outcomes:
            if outcome.name == name:
                return outcome
        return None

    def by_status(self, status: str) -> List[AppOutcome]:
        return [o for o in self.outcomes if o.status == status]

    def payloads(self) -> Dict[str, object]:
        """Name -> job payload for the apps that succeeded."""
        return {
            o.name: o.payload for o in self.outcomes if o.status == STATUS_OK
        }

    def ok(self) -> bool:
        return all(o.status == STATUS_OK for o in self.outcomes)

    def require_ok(self) -> None:
        """Raise with a quarantine summary unless every app succeeded."""
        bad = [o for o in self.outcomes if o.status != STATUS_OK]
        if bad:
            detail = ", ".join(
                f"{o.name} ({o.status}"
                + (f": {o.error.get('message')}" if o.error else "")
                + ")"
                for o in bad
            )
            raise RuntimeError(f"batch run failed for {len(bad)} app(s): {detail}")


# One worker process: takes targets from its pipe until it reads None
# (or the pipe closes). For each target it sends exactly one ("ok",
# payload), ("error", error) or ("input-error", error), and it exits
# after anything but "ok", so that what failed never runs another app.
def _worker_main(
    conn,
    analysis: AnalysisOptions,
    job: Callable,
    job_args: Tuple,
) -> None:
    from repro.obs import tracer as obs_tracer

    obs_tracer.disable()  # never inherit the parent's ambient tracer
    with gc_paused():  # see the module docstring
        while True:
            try:
                target = conn.recv()
            except (EOFError, KeyboardInterrupt):
                break  # Ctrl-C reaches the whole group; the parent reports it
            if target is None or not _serve(conn, target, analysis, job, job_args):
                break
    conn.close()


def _serve(
    conn, target: BatchTarget, analysis: AnalysisOptions, job: Callable, job_args: Tuple
) -> bool:
    """Run the job on ``target``, send its message; True iff it succeeded.

    The app is referenced only from the job's frame, so it is freed
    when the job returns, before the worker waits for its next target.
    """
    try:
        maybe_inject_fault(target.name)
        conn.send(("ok", job(load_target(target), analysis, *job_args)))
        return True
    except BaseException as exc:  # isolate *everything*; the pipe is the report
        conn.send(
            (
                "input-error" if isinstance(exc, ReproError) else "error",
                {
                    "type": type(exc).__name__,
                    "message": str(exc),
                    "traceback": traceback.format_exc(),
                },
            )
        )
        return False


def _mp_context():
    # fork keeps module-level caches warm and makes locally-defined
    # test jobs picklable; fall back to spawn where fork is unavailable.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


@dataclass
class _Pending:
    target: BatchTarget
    attempt: int  # 1-based
    not_before: float  # monotonic timestamp gating the (re)launch


@dataclass
class _Worker:
    proc: object
    conn: object
    item: Optional[_Pending] = None  # the attempt it runs; None while idle
    started: float = 0.0  # when ``item`` was dispatched
    deadline: Optional[float] = None


def _stop(proc, grace: float) -> None:
    """Give ``proc`` ``grace`` seconds to exit, then terminate it
    (SIGTERM, then SIGKILL); return once it is reaped."""
    proc.join(timeout=grace)
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout=2.0)
        if proc.is_alive():  # pragma: no cover - SIGTERM normally suffices
            proc.kill()
            proc.join()


def _receive(conn) -> Optional[Tuple[str, object]]:
    """The worker's message, or None when it died without one."""
    try:
        return conn.recv()
    except (EOFError, OSError):
        return None


def run_batch(
    targets: Optional[Sequence[Union[str, BatchTarget]]] = None,
    options: Optional[BatchOptions] = None,
    job: Callable = analyze_job,
    job_args: Tuple = (),
    tracer: Optional[Tracer] = None,
) -> BatchResult:
    """Fan ``targets`` out over isolated workers; never raise per-app.

    Every target ends in exactly one :class:`AppOutcome`; app failures
    are data, not exceptions (call :meth:`BatchResult.require_ok` for
    the raising flavour). ``tracer`` records a ``batch`` span, one
    ``batch.app`` event per finished app, and the ``batch.*`` counters
    (see ``docs/OBSERVABILITY.md``).
    """
    options = options or BatchOptions()
    resolved = resolve_targets(targets)
    ctx = _mp_context()

    outcomes: Dict[str, AppOutcome] = {}
    pending: Deque[_Pending] = deque(
        _Pending(target, attempt=1, not_before=0.0) for target in resolved
    )
    workers: List[_Worker] = []
    total_retries = 0
    aborted = False
    start = time.perf_counter()

    def finish(outcome: AppOutcome) -> None:
        nonlocal aborted
        outcomes[outcome.name] = outcome
        if outcome.status != STATUS_OK and not options.continue_on_error:
            aborted = True
        if tracer is not None:
            tracer.event(
                obs_names.EVENT_BATCH_APP,
                app=outcome.name,
                status=outcome.status,
                attempts=outcome.attempts,
                seconds=round(outcome.seconds, 6),
            )
            if outcome.status == STATUS_FAILED:
                tracer.counter(obs_names.COUNTER_BATCH_FAILED)
            elif outcome.status == STATUS_TIMEOUT:
                tracer.counter(obs_names.COUNTER_BATCH_TIMEOUT)

    def dispatch(item: _Pending, now: float) -> None:
        """Send ``item`` to an idle worker, forking one if none is idle."""
        worker = next((w for w in workers if w.item is None), None)
        if worker is None:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, options.analysis, job, job_args),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            worker = _Worker(proc, parent_conn)
            workers.append(worker)
        try:
            worker.conn.send(item.target)
        except OSError:
            pass  # the worker died idle; the wait below reads its EOF
        worker.item = item
        worker.started = now
        worker.deadline = (
            now + options.timeout if options.timeout is not None else None
        )

    def retire(worker: _Worker, grace: float) -> None:
        workers.remove(worker)
        _stop(worker.proc, grace)
        worker.conn.close()

    def settle(worker: _Worker, message, now: float) -> None:
        """A worker answered or died: classify, retry transient failures."""
        nonlocal total_retries
        item = worker.item
        seconds = now - worker.started
        if message is not None and message[0] == "ok":
            worker.item = None  # idle again: it takes the next item
            finish(
                AppOutcome(
                    item.target.name,
                    STATUS_OK,
                    attempts=item.attempt,
                    seconds=seconds,
                    payload=message[1],
                )
            )
            return
        retire(worker, grace=2.0)  # it exits by itself after a failure
        if message is not None:
            error = dict(message[1])
        else:
            error = {
                "type": "WorkerCrash",
                "message": (
                    f"worker died without a result "
                    f"(exit code {worker.proc.exitcode})"
                ),
                "exitcode": worker.proc.exitcode,
            }
        retryable = message is None or message[0] == "error"
        if retryable and item.attempt <= options.retries and not aborted:
            total_retries += 1
            if tracer is not None:
                tracer.counter(obs_names.COUNTER_BATCH_RETRIES)
            pending.append(
                _Pending(
                    item.target,
                    attempt=item.attempt + 1,
                    not_before=now + options.backoff * item.attempt,
                )
            )
            return
        finish(
            AppOutcome(
                item.target.name,
                STATUS_FAILED,
                attempts=item.attempt,
                seconds=seconds,
                error=error,
            )
        )

    def busy() -> List[_Worker]:
        return [w for w in workers if w.item is not None]

    def drain() -> None:
        now = time.monotonic()
        # Dispatch while there is capacity; the deque head gates backoff.
        while pending and len(busy()) < options.jobs:
            item = pending[0]
            if aborted:
                pending.popleft()
                finish(
                    AppOutcome(
                        item.target.name,
                        STATUS_SKIPPED,
                        attempts=item.attempt - 1,
                        seconds=0.0,
                    )
                )
                continue
            if item.not_before > now and busy():
                break  # wait for the backoff while other workers run
            if item.not_before > now:
                time.sleep(item.not_before - now)
                now = time.monotonic()
            pending.popleft()
            dispatch(item, now)
        running = busy()
        if not running:
            return
        # Wait on the result pipes (a crash reads as EOF); drained
        # eagerly so big payloads cannot deadlock.
        wait_timeout = 0.2
        deadlines = [w.deadline for w in running if w.deadline is not None]
        if deadlines:
            wait_timeout = min(
                wait_timeout, max(0.0, min(deadlines) - time.monotonic())
            )
        ready = set(
            mp_connection.wait([w.conn for w in running], timeout=wait_timeout)
        )
        now = time.monotonic()
        for worker in running:
            if worker.conn in ready:
                settle(worker, _receive(worker.conn), now)
            elif worker.deadline is not None and now >= worker.deadline:
                item = worker.item
                retire(worker, grace=0.0)
                finish(
                    AppOutcome(
                        item.target.name,
                        STATUS_TIMEOUT,
                        attempts=item.attempt,
                        seconds=now - worker.started,
                        error={
                            "type": "Timeout",
                            "message": (
                                f"exceeded the per-app timeout of "
                                f"{options.timeout:g}s"
                            ),
                        },
                    )
                )

    def execute() -> None:
        try:
            while pending or busy():
                drain()
        finally:
            # Closing the parent's end is no signal: every worker forked
            # later holds a copy of it. Ask each idle worker to exit,
            # then reap them all; a busy one is only busy here when the
            # parent is leaving on an exception.
            for worker in workers:
                if worker.item is None:
                    try:
                        worker.conn.send(None)
                    except OSError:
                        pass
            for worker in list(workers):
                retire(worker, grace=2.0 if worker.item is None else 0.0)

    if tracer is not None:
        tracer.counter(obs_names.COUNTER_BATCH_APPS, len(resolved))
        with tracer.span(obs_names.SPAN_BATCH, jobs=options.jobs):
            execute()
    else:
        execute()

    ordered = [outcomes[target.name] for target in resolved]
    return BatchResult(
        outcomes=ordered,
        options=options,
        elapsed_seconds=time.perf_counter() - start,
        retries=total_retries,
    )
