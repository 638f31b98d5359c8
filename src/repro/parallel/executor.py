"""Parallel execution of per-feature FRaC work items.

Normalized surprisal "is a giant sum, [so] FRaC is highly parallelizable"
(paper §I-A1): the per-feature model trainings are independent. This module
maps a work function over items under three interchangeable modes:

- ``"serial"`` — a plain loop (the default; also the reference semantics);
- ``"thread"`` — a thread pool (helps only when the work releases the GIL,
  i.e. large-matrix numpy calls);
- ``"process"`` — a fork-based process pool, sharing the read-only training
  matrix with workers through copy-on-write memory rather than pickling it
  per task.

Large shared state is installed once per worker via an initializer and read
through :func:`get_shared`; per-item payloads must stay small and picklable.
Work functions receive child seeds derived via ``SeedSequence.spawn`` by the
caller, so results are identical across modes (DESIGN.md §6).

Scheduling and fault tolerance
------------------------------
Every batch runs through one scheduler, driven by a
:class:`~repro.parallel.faults.RetryPolicy`. Fail-fast is just a policy:
without ``config.retry`` the scheduler runs under
``RetryPolicy(max_retries=0, on_exhaustion="raise")``, so the first task
error propagates with its own class and message. A retrying policy gives
items a per-task timeout and bounded retries with deterministic backoff; a
crashed worker breaks only its in-flight work, which is resubmitted under a
fresh pool instead of aborting the batch; exhausted items are *skipped*
(their result is ``None`` — the NS "otherwise: 0" branch) and recorded in a
structured :class:`~repro.parallel.faults.FailureReport`. Completed results
can stream to a :class:`~repro.parallel.checkpoint.CheckpointJournal` so a
killed batch resumes where it left off, re-executing only missing items.
Retries re-run the same pure ``fn(item)``, so fault handling never changes
values — only which items complete — preserving the cross-mode determinism
contract.

Process mode submits each wave in chunks of ``ceil(n / (4 * workers))``
items, so per-submission pickling and IPC are paid per chunk, not per item.
The worker-side runner catches and times every item on its own, so a task
error is still charged to exactly its item, and a chunk broken by a worker
crash goes to the same isolation probe as any crash. A per-item timeout
needs a per-item future, so under ``task_timeout`` (and in thread mode,
which has no pickling or IPC to amortize) every chunk holds one item.
"""

from __future__ import annotations

import os
import traceback
from collections import deque
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from typing import Any, Callable, Sequence, TypeVar

import multiprocessing as mp

from repro.parallel import profiling
from repro.parallel.faults import (
    FailureReport,
    FaultPlan,
    RetryPolicy,
    TaskFailure,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.telemetry.events import (
    CheckpointHit,
    CheckpointMiss,
    FeatureTaskFinished,
    FeatureTaskStarted,
    RetryScheduled,
    TaskTimedOut,
    WorkerCrashDetected,
)
from repro.telemetry.runtime import get_bus, on_worker_start
from repro.utils.exceptions import ReproError
from repro.utils.logging import get_logger

T = TypeVar("T")
R = TypeVar("R")

_MODES = ("serial", "thread", "process")

_log = get_logger("parallel.executor")

#: Placeholder for an item that has not settled yet.
_PENDING: Any = object()

# Worker-side shared state. In serial/thread modes this is process-local; in
# process mode the initializer installs it in each forked worker.
_SHARED: Any = None


def _init_shared(shared: Any) -> None:
    global _SHARED
    _SHARED = shared


def get_shared() -> Any:
    """The shared state installed for the currently running task batch."""
    return _SHARED


@dataclass(frozen=True)
class ExecutionConfig:
    """How to run a batch of independent work items.

    Attributes
    ----------
    mode:
        ``"serial"``, ``"thread"``, or ``"process"``.
    n_workers:
        Worker count for the pooled modes; ``None`` uses ``os.cpu_count()``.
    retry:
        Fault-tolerance policy. ``None`` means fail-fast, which is just the
        policy ``RetryPolicy(max_retries=0, on_exhaustion="raise")``: the
        first task exception propagates and aborts the batch.
    """

    mode: str = "serial"
    n_workers: "int | None" = None
    retry: "RetryPolicy | None" = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ReproError(f"mode must be one of {_MODES}; got {self.mode!r}")
        if self.n_workers is not None and self.n_workers < 1:
            raise ReproError(f"n_workers must be >= 1; got {self.n_workers}")
        if self.retry is not None and not isinstance(self.retry, RetryPolicy):
            raise ReproError(f"retry must be a RetryPolicy; got {self.retry!r}")

    @property
    def policy(self) -> RetryPolicy:
        """The policy every batch under this config runs with."""
        return self.retry or RetryPolicy(max_retries=0, on_exhaustion="raise")

    @property
    def effective_workers(self) -> int:
        if self.mode == "serial":
            return 1
        return self.n_workers or os.cpu_count() or 1


def run_tasks(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    shared: Any = None,
    config: "ExecutionConfig | None" = None,
    checkpoint: Any = None,
    task_key: "Callable[[T], Any] | None" = None,
    fault_plan: "FaultPlan | None" = None,
    failures: "FailureReport | None" = None,
    quiet: bool = False,
) -> list[R]:
    """Apply ``fn`` to every item, in order, under the configured mode.

    ``shared`` is made available to ``fn`` through :func:`get_shared`
    (installed once per worker, not per item). Every call runs the one
    scheduler under ``config.policy``: ``config.retry``, or fail-fast
    without one (see the module docstring).

    checkpoint:
        A :class:`~repro.parallel.checkpoint.CheckpointJournal`. Items
        whose key is already journaled are *not* re-executed; fresh
        completions are appended as they finish. Requires ``task_key``.
    task_key:
        Maps an item to its stable, picklable journal key. Keys must be
        unique within the batch and must pin the item's result (the engine
        uses ``(feature_id, slot, seed)``).
    fault_plan:
        Deterministic test-only fault injection (see
        :class:`~repro.parallel.faults.FaultPlan`).
    failures:
        A :class:`~repro.parallel.faults.FailureReport` to fill with any
        items skipped after exhausting retries. Skipped items yield
        ``None`` in the returned list.
    quiet:
        Suppress this batch's executor-side telemetry (task-lifecycle,
        checkpoint, retry/crash events). Work functions still see the
        live bus. The engine's batched path runs its coarse *batch* items
        quiet and re-emits the lifecycle at per-feature granularity
        itself, keeping event streams replay-identical with the
        per-feature path regardless of how features were grouped.
    """
    config = config or ExecutionConfig()
    items = list(items)
    if not items:
        return []

    keys: "list[Any] | None" = None
    if task_key is not None:
        keys = [task_key(item) for item in items]
        if len(set(keys)) != len(keys):
            raise ReproError("task_key produced duplicate keys within one batch")
    if checkpoint is not None and keys is None:
        raise ReproError("checkpointing requires a task_key")

    sched = _Scheduler(len(items), config.policy, keys, checkpoint, failures, quiet)

    pending: list[tuple[int, int]] = []  # (item index, attempts so far)
    if checkpoint is not None:
        completed = checkpoint.entries()
        for i, key in enumerate(keys):
            if key in completed:
                sched.record_cached(i, completed[key])
            else:
                if sched.bus is not None:
                    sched.bus.emit(CheckpointMiss(index=i, key=key))
                pending.append((i, 0))
        if len(pending) < len(items):
            _log.info(
                "checkpoint %s: %d/%d items already complete; resuming %d",
                getattr(checkpoint, "path", "?"),
                len(items) - len(pending),
                len(items),
                len(pending),
            )
    else:
        pending = [(i, 0) for i in range(len(items))]

    if pending:
        if config.mode == "serial":
            _run_serial(fn, items, shared, fault_plan, sched, pending)
        else:
            _run_pooled(fn, items, shared, config, fault_plan, sched, pending)

    missing = [i for i, value in enumerate(sched.values) if value is _PENDING]
    if missing:  # pragma: no cover - scheduler invariant
        raise ReproError(f"scheduler lost track of items {missing}")
    return sched.values


def _init_worker(shared: Any) -> None:
    """Initializer for forked process workers.

    Drops the telemetry bus inherited through fork *before* installing the
    shared state: the parent's sinks (an open JSONL handle, a stderr
    progress line) must not receive interleaved writes from children. The
    parent observes workers through the task-lifecycle events it emits
    itself. Serial/thread modes keep telemetry live (``_init_shared`` runs
    in the parent process there).
    """
    on_worker_start()
    _init_shared(shared)


class _RemoteTraceback(Exception):
    """A worker process's traceback text, chained as a task error's cause."""

    def __str__(self) -> str:
        return self.args[0]


def _attempt(
    fn: Callable[[T], R],
    fault_plan: "FaultPlan | None",
    index: int,
    attempt: int,
    item: T,
) -> tuple:
    """Run one attempt of one item, without letting a task error escape.

    Returns ``(True, value, execute_seconds)`` or ``(False, error,
    traceback_text)``; the text survives pickling where the error's own
    traceback does not.
    """
    w0 = profiling.wall_seconds()
    try:
        if fault_plan is not None:
            fault_plan.apply(index, attempt)
        value = fn(item)
    except Exception as exc:
        return False, exc, traceback.format_exc()
    return True, value, profiling.wall_seconds() - w0


def _run_chunk(
    fn: Callable[[T], R],
    fault_plan: "FaultPlan | None",
    chunk: list[tuple[int, int]],
    chunk_items: list[T],
) -> list[tuple]:
    """The unit a pool executes (module-level: picklable): one outcome per
    ``(index, attempt)`` of ``chunk``, so each error stays charged to its
    item."""
    return [
        _attempt(fn, fault_plan, index, attempt, item)
        for (index, attempt), item in zip(chunk, chunk_items)
    ]


class _Scheduler:
    """Shared bookkeeping for the serial and pooled runners."""

    def __init__(
        self,
        n: int,
        policy: RetryPolicy,
        keys: "list[Any] | None",
        checkpoint: Any,
        failures: "FailureReport | None",
        quiet: bool = False,
    ) -> None:
        self.policy = policy
        self.keys = keys
        self.checkpoint = checkpoint
        self.failures = failures if failures is not None else FailureReport()
        #: Each item's result (``None`` once skipped); ``_PENDING`` until
        #: the item settles.
        self.values: list[Any] = [_PENDING] * n
        self.bus = None if quiet else get_bus()

    def key_for(self, index: int) -> Any:
        return None if self.keys is None else self.keys[index]

    def record_cached(self, index: int, value: Any) -> None:
        self.values[index] = value
        if self.bus is not None:
            key = self.key_for(index)
            self.bus.emit(CheckpointHit(index=index, key=key))
            self.bus.emit(
                FeatureTaskFinished(index=index, status="cached", attempts=0, key=key)
            )

    def record_ok(
        self, index: int, attempts: int, value: Any, duration_s: "float | None" = None
    ) -> None:
        self.values[index] = value
        if self.checkpoint is not None:
            self.checkpoint.append(self.key_for(index), value)
        if self.bus is not None:
            self.bus.emit(
                FeatureTaskFinished(
                    index=index,
                    status="ok",
                    attempts=attempts,
                    key=self.key_for(index),
                    duration_s=duration_s,
                )
            )

    def record_exhausted(
        self, index: int, attempts: int, kind: str, exc: BaseException
    ) -> None:
        """An item ran out of retries: skip it, or propagate per policy."""
        if self.policy.on_exhaustion == "raise":
            if kind == "timeout":
                raise TaskTimeoutError(
                    f"task {index} exceeded {self.policy.task_timeout}s "
                    f"on attempt {attempts}"
                ) from exc
            if kind == "crash":
                raise WorkerCrashError(
                    f"worker died running task {index} (attempt {attempts})"
                ) from exc
            raise exc
        failure = TaskFailure(
            index=index,
            key=self.key_for(index),
            kind=kind,
            message=f"{type(exc).__name__}: {exc}",
            attempts=attempts,
        )
        self.failures.record(failure)
        self.values[index] = None
        if self.bus is not None:
            self.bus.emit(
                FeatureTaskFinished(
                    index=index,
                    status="skipped",
                    attempts=attempts,
                    key=self.key_for(index),
                    kind=kind,
                )
            )
        _log.warning(
            "task %d skipped after %d attempt(s) (%s): %s",
            index,
            attempts,
            kind,
            exc,
        )


def _run_serial(
    fn: Callable[[T], R],
    items: list[T],
    shared: Any,
    fault_plan: "FaultPlan | None",
    sched: _Scheduler,
    pending: list[tuple[int, int]],
) -> None:
    policy = sched.policy
    bus = sched.bus
    _init_shared(shared)
    try:
        for index, attempt in pending:
            while True:
                if bus is not None:
                    bus.emit(
                        FeatureTaskStarted(
                            index=index, attempt=attempt, key=sched.key_for(index)
                        )
                    )
                ok, payload, detail = _attempt(fn, fault_plan, index, attempt, items[index])
                if ok:
                    sched.record_ok(index, attempt + 1, payload, detail)
                    break
                attempt += 1
                if attempt > policy.max_retries:
                    sched.record_exhausted(index, attempt, "exception", payload)
                    break
                backoff = policy.backoff_seconds(attempt)
                if bus is not None:
                    bus.emit(
                        RetryScheduled(
                            index=index,
                            attempt=attempt,
                            kind="exception",
                            backoff_s=backoff,
                        )
                    )
                profiling.sleep_seconds(backoff)
    finally:
        _init_shared(None)


def _make_pool(mode: str, n_workers: int, shared: Any):
    if mode == "thread":
        return ThreadPoolExecutor(max_workers=n_workers)
    ctx = mp.get_context("fork")
    return ProcessPoolExecutor(
        max_workers=n_workers,
        mp_context=ctx,
        initializer=_init_worker,
        initargs=(shared,),
    )


def _teardown_pool(pool: Any, broken: bool) -> None:
    """Shut a pool down; if it is broken or hosts a hung task, do not wait.

    A hung process-mode worker would otherwise be joined forever, so any
    surviving worker processes are terminated outright (their in-flight
    items have already been requeued). Hung *threads* cannot be killed in
    CPython; the abandoned pool's threads drain whenever their tasks
    return.
    """
    pool.shutdown(wait=not broken, cancel_futures=True)
    if broken:
        procs = getattr(pool, "_processes", None) or {}
        for proc in list(procs.values()):
            if proc.is_alive():
                proc.terminate()


def _charge(
    sched: _Scheduler,
    queue: "deque[tuple[int, int]]",
    retry_attempts: list[int],
    index: int,
    attempts_used: int,
    kind: str,
    exc: BaseException,
) -> None:
    """Charge one attempt to an item: requeue it, or exhaust its budget."""
    if sched.bus is not None and kind == "timeout":
        sched.bus.emit(
            TaskTimedOut(
                index=index,
                attempt=attempts_used,
                timeout_s=sched.policy.task_timeout,
            )
        )
    if attempts_used > sched.policy.max_retries:
        sched.record_exhausted(index, attempts_used, kind, exc)
    else:
        queue.append((index, attempts_used))
        retry_attempts.append(attempts_used)
        if sched.bus is not None:
            sched.bus.emit(
                RetryScheduled(
                    index=index,
                    attempt=attempts_used,
                    kind=kind,
                    backoff_s=sched.policy.backoff_seconds(attempts_used),
                )
            )


def _run_pooled(
    fn: Callable[[T], R],
    items: list[T],
    shared: Any,
    config: ExecutionConfig,
    fault_plan: "FaultPlan | None",
    sched: _Scheduler,
    pending: list[tuple[int, int]],
) -> None:
    policy = sched.policy
    queue: "deque[tuple[int, int]]" = deque(pending)
    isolate = False
    if config.mode == "thread":
        _init_shared(shared)
    try:
        while queue:
            retry_attempts: list[int] = []
            if isolate:
                isolate = False
                _isolation_probe(
                    fn, items, shared, config, fault_plan, sched, queue, retry_attempts
                )
            else:
                isolate = _wide_wave(
                    fn, items, shared, config, fault_plan, sched, queue, retry_attempts
                )
            if queue and retry_attempts:
                # One deterministic backoff per wave: the largest pending
                # attempt number dictates the wait.
                profiling.sleep_seconds(
                    max(policy.backoff_seconds(a) for a in retry_attempts)
                )
    finally:
        if config.mode == "thread":
            _init_shared(None)


def _settle(
    sched: _Scheduler,
    queue: "deque[tuple[int, int]]",
    retry_attempts: list[int],
    chunk: list[tuple[int, int]],
    outcomes: list[tuple],
) -> None:
    """Record a harvested chunk: each item's value, or its own error."""
    for (index, attempt), (ok, payload, detail) in zip(chunk, outcomes):
        if ok:
            sched.record_ok(index, attempt + 1, payload, detail)
            continue
        if payload.__traceback__ is None and detail:
            # Unpickled from a worker process: chain the worker-side
            # traceback, as concurrent.futures does for its own futures.
            payload.__cause__ = _RemoteTraceback(detail)
        _charge(sched, queue, retry_attempts, index, attempt + 1, "exception", payload)


def _finished(fut: Future) -> bool:
    """Did ``fut`` settle on its own (value or task error), not by a crash?"""
    return (
        fut.done()
        and not fut.cancelled()
        and not isinstance(fut.exception(), BrokenExecutor)
    )


def _wide_wave(
    fn: Callable[[T], R],
    items: list[T],
    shared: Any,
    config: ExecutionConfig,
    fault_plan: "FaultPlan | None",
    sched: _Scheduler,
    queue: "deque[tuple[int, int]]",
    retry_attempts: list[int],
) -> bool:
    """Run every pending item under a fresh full-width pool.

    Process mode submits the wave in chunks of ``ceil(n / (4 * workers))``
    items; under a ``task_timeout``, and in thread mode, each chunk holds
    one item. A wave that breaks — worker crash or per-task timeout —
    harvests whatever finished, requeues the survivors untouched, and
    recycles the pool. A *timeout* is attributable (the timed-out
    single-item future is known exactly) and is charged directly. A
    *crash* is not: the dying worker marks every in-flight future
    ``BrokenExecutor``, so whichever chunk the harvest loop happened to be
    blocked on is as likely an innocent bystander as the culprit. Crash
    waves therefore charge nobody and return ``True``, asking the caller
    to run an isolation probe next.
    """
    policy = sched.policy
    bus = sched.bus
    n_workers = config.effective_workers
    batch = list(queue)
    queue.clear()
    size = 1
    if config.mode == "process" and policy.task_timeout is None:
        size = -(-len(batch) // (4 * n_workers))
    pool = _make_pool(config.mode, n_workers, shared)
    broken = False
    crashed = False
    try:
        futures: "list[tuple[list[tuple[int, int]], Future | None]]" = []
        for lo in range(0, len(batch), size):
            chunk = batch[lo : lo + size]
            fut = None
            if not broken:
                try:
                    fut = pool.submit(
                        _run_chunk, fn, fault_plan, chunk, [items[i] for i, _ in chunk]
                    )
                except (BrokenExecutor, RuntimeError) as exc:
                    # The pool died while the wave was still being submitted;
                    # everything from here on re-runs after the isolation probe.
                    _log.warning("pool broke during submission: %s", exc)
                    broken = crashed = True
            if fut is not None and bus is not None:
                for index, attempt in chunk:
                    bus.emit(
                        FeatureTaskStarted(
                            index=index, attempt=attempt, key=sched.key_for(index)
                        )
                    )
            futures.append((chunk, fut))

        for chunk, fut in futures:
            if fut is None or (broken and not _finished(fut)):
                # Never submitted, or still in flight when the pool was
                # declared dead: requeue at an unchanged attempt count
                # (none of these items is known to be at fault).
                if fut is not None:
                    fut.cancel()
                queue.extend(chunk)
                continue
            try:
                outcomes = fut.result(timeout=policy.task_timeout)
            except FuturesTimeoutError as exc:
                # The item is hung (or too slow). The pool cannot be trusted
                # to free the worker, so recycle it.
                broken = True
                index, attempt = chunk[0]
                _charge(sched, queue, retry_attempts, index, attempt + 1, "timeout", exc)
                continue
            except BrokenExecutor:
                broken = crashed = True
                queue.extend(chunk)
                continue
            except Exception as exc:
                # The chunk itself failed (say, a payload that will not
                # pickle): every item in it gets that error.
                outcomes = [(False, exc, None)] * len(chunk)
            _settle(sched, queue, retry_attempts, chunk, outcomes)
        if crashed and bus is not None:
            # One event per broken wave, emitted after the harvest settles so
            # the requeue count is exact. The phase is always "wave" whether
            # the break surfaced during submission or harvest — which of the
            # two saw it first is a scheduling race, not a run property.
            bus.emit(
                WorkerCrashDetected(phase="wave", index=None, n_requeued=len(queue))
            )
    finally:
        _teardown_pool(pool, broken)
    return crashed


def _isolation_probe(
    fn: Callable[[T], R],
    items: list[T],
    shared: Any,
    config: ExecutionConfig,
    fault_plan: "FaultPlan | None",
    sched: _Scheduler,
    queue: "deque[tuple[int, int]]",
    retry_attempts: list[int],
) -> None:
    """Re-run queued items one at a time under a single-worker pool.

    After a wide wave breaks on a worker crash, the broken pool cannot say
    which in-flight item killed it. With exactly one item in flight a crash
    is attributable with certainty: charge that item, requeue the untried
    remainder for the next full-width wave, and return. A probe that runs
    dry without crashing has simply finished the batch.
    """
    policy = sched.policy
    bus = sched.bus
    batch = list(queue)
    queue.clear()
    pool = _make_pool(config.mode, 1, shared)
    broken = False
    try:
        for pos, (index, attempt) in enumerate(batch):
            try:
                fut = pool.submit(
                    _run_chunk, fn, fault_plan, [(index, attempt)], [items[index]]
                )
            except (BrokenExecutor, RuntimeError) as exc:  # pragma: no cover
                broken = True
                _log.warning("isolation pool broke at submission: %s", exc)
                queue.extend(batch[pos:])
                return
            if bus is not None:
                bus.emit(
                    FeatureTaskStarted(
                        index=index, attempt=attempt, key=sched.key_for(index)
                    )
                )
            try:
                outcomes = fut.result(timeout=policy.task_timeout)
            except FuturesTimeoutError as exc:
                broken = True
                _charge(sched, queue, retry_attempts, index, attempt + 1, "timeout", exc)
                queue.extend(batch[pos + 1 :])
                return
            except BrokenExecutor as exc:
                broken = True
                if bus is not None:
                    # One item in flight: the crash is attributable exactly.
                    bus.emit(
                        WorkerCrashDetected(
                            phase="probe",
                            index=index,
                            n_requeued=len(batch) - pos - 1,
                        )
                    )
                _charge(sched, queue, retry_attempts, index, attempt + 1, "crash", exc)
                queue.extend(batch[pos + 1 :])
                return
            except Exception as exc:
                outcomes = [(False, exc, None)]
            _settle(sched, queue, retry_attempts, [(index, attempt)], outcomes)
    finally:
        _teardown_pool(pool, broken)
