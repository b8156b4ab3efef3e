"""Fault-isolated parallel execution of per-app analysis jobs.

Every app runs in its own worker process (one ``multiprocessing``
child per attempt), so a pathological app can only take down its own
worker, never the run:

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

Workers communicate over a one-way pipe; results are drained as soon
as they are readable so payloads larger than the pipe buffer can never
deadlock a child against its parent. The parent process never imports
analysis results across the boundary — jobs return small picklable
summaries (see :mod:`repro.runner.tasks`). A worker keeps the cycle
collector off for its whole job (:func:`repro.gcpause.gc_paused`): the
analysis heap is acyclic and the process exits after its one send, so
a collection there would only scan what reference counting frees anyway.
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
    isolated worker at a time). ``timeout`` is the per-app wall-clock
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
    seconds: float  # wall-clock of the final attempt
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


# One worker invocation: runs in the child process, writes exactly one
# ("ok", payload), ("error", error) or ("input-error", error) to the pipe.
def _worker_main(
    conn,
    target: BatchTarget,
    analysis: AnalysisOptions,
    job: Callable,
    job_args: Tuple,
) -> None:
    from repro.obs import tracer as obs_tracer

    obs_tracer.disable()  # never inherit the parent's ambient tracer
    with gc_paused():  # see the module docstring
        try:
            maybe_inject_fault(target.name)
            app = load_target(target)
            payload = job(app, analysis, *job_args)
            conn.send(("ok", payload))
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
        finally:
            conn.close()


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
class _Running:
    proc: object
    conn: object
    item: _Pending
    started: float
    deadline: Optional[float]
    result: Optional[Tuple[str, object]] = None
    conn_dead: bool = False


def _kill(proc) -> None:
    proc.terminate()
    proc.join(timeout=2.0)
    if proc.is_alive():  # pragma: no cover - SIGTERM normally suffices
        proc.kill()
        proc.join()


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
    running: List[_Running] = []
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

    def settle(run: _Running, now: float) -> None:
        """A worker exited: classify, retry transient failures."""
        nonlocal total_retries
        run.proc.join()
        if run.result is None and not run.conn_dead:
            if run.conn.poll():
                try:
                    run.result = run.conn.recv()
                except EOFError:
                    run.conn_dead = True
        run.conn.close()
        seconds = now - run.started
        name = run.item.target.name
        if run.result is not None and run.result[0] == "ok":
            finish(
                AppOutcome(
                    name,
                    STATUS_OK,
                    attempts=run.item.attempt,
                    seconds=seconds,
                    payload=run.result[1],
                )
            )
            return
        if run.result is not None:
            error = dict(run.result[1])
        else:
            error = {
                "type": "WorkerCrash",
                "message": (
                    f"worker died without a result "
                    f"(exit code {run.proc.exitcode})"
                ),
                "exitcode": run.proc.exitcode,
            }
        retryable = run.result is None or run.result[0] == "error"
        if retryable and run.item.attempt <= options.retries and not aborted:
            total_retries += 1
            if tracer is not None:
                tracer.counter(obs_names.COUNTER_BATCH_RETRIES)
            pending.append(
                _Pending(
                    run.item.target,
                    attempt=run.item.attempt + 1,
                    not_before=now + options.backoff * run.item.attempt,
                )
            )
            return
        finish(
            AppOutcome(
                name,
                STATUS_FAILED,
                attempts=run.item.attempt,
                seconds=seconds,
                error=error,
            )
        )

    def drain() -> None:
        nonlocal running
        now = time.monotonic()
        # Launch while there is capacity; the deque head gates backoff.
        while pending and len(running) < options.jobs:
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
            if item.not_before > now and running:
                break  # wait for the backoff while other workers run
            if item.not_before > now:
                time.sleep(item.not_before - now)
                now = time.monotonic()
            pending.popleft()
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, item.target, options.analysis, job, job_args),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            deadline = (
                now + options.timeout if options.timeout is not None else None
            )
            running.append(_Running(proc, parent_conn, item, now, deadline))
        if not running:
            return
        # Wait on result pipes (drained eagerly so big payloads cannot
        # deadlock) and on the sentinels of workers already drained.
        wait_for: List[object] = []
        for run in running:
            if run.result is None and not run.conn_dead:
                wait_for.append(run.conn)
            else:
                wait_for.append(run.proc.sentinel)
        wait_timeout = 0.2
        deadlines = [r.deadline for r in running if r.deadline is not None]
        if deadlines:
            wait_timeout = min(
                wait_timeout, max(0.0, min(deadlines) - time.monotonic())
            )
        ready = set(mp_connection.wait(wait_for, timeout=wait_timeout))
        now = time.monotonic()
        still_running: List[_Running] = []
        for run in running:
            if run.conn in ready:
                try:
                    run.result = run.conn.recv()
                except EOFError:
                    run.conn_dead = True
                # The worker exits right after sending; settle when the
                # sentinel fires on a later sweep (usually the next one).
                if not run.proc.is_alive():
                    settle(run, now)
                    continue
                still_running.append(run)
            elif run.proc.sentinel in ready or not run.proc.is_alive():
                settle(run, now)
            elif run.deadline is not None and now >= run.deadline:
                _kill(run.proc)
                run.conn.close()
                finish(
                    AppOutcome(
                        run.item.target.name,
                        STATUS_TIMEOUT,
                        attempts=run.item.attempt,
                        seconds=now - run.started,
                        error={
                            "type": "Timeout",
                            "message": (
                                f"exceeded the per-app timeout of "
                                f"{options.timeout:g}s"
                            ),
                        },
                    )
                )
            else:
                still_running.append(run)
        running = still_running

    def execute() -> None:
        while pending or running:
            drain()

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
