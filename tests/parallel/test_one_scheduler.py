"""The executor has one scheduler: fail-fast is a retry policy, not a path.

``retry=None`` must behave exactly like the explicit policy
``RetryPolicy(max_retries=0, on_exhaustion="raise")`` in every mode.
Process mode submits chunks of items; a task error inside a chunk is
charged to its own item only, and a worker crash under fail-fast surfaces
as :class:`WorkerCrashError` chained from the broken pool.
"""

import functools
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.parallel import executor
from repro.parallel.executor import ExecutionConfig, run_tasks
from repro.parallel.faults import (
    CRASH_EXIT_CODE,
    FailureReport,
    FaultPlan,
    RetryPolicy,
    WorkerCrashError,
)
from repro.telemetry import EventBus, MemorySink
from repro.telemetry import runtime as telemetry_runtime

ALL_MODES = ("serial", "thread", "process")
FAIL_FAST = RetryPolicy(max_retries=0, on_exhaustion="raise")


def _square(x):
    return x * x


def _fail_on_seven(x):
    if x == 7:
        raise ValueError(f"bad item {x}")
    return x * x


def _crash_on_one(x):
    if x == 1:
        os._exit(CRASH_EXIT_CODE)  # a real worker death, not an injected fault
    return x * x


def _logged_square(path, x):
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"{x}\n")
    return x * x


def _run_traced(fn, items, config, **kwargs):
    """Run under a fresh MemorySink; return (result or exception, signatures)."""
    sink = MemorySink()
    previous = telemetry_runtime.set_bus(EventBus([sink]))
    try:
        try:
            outcome = run_tasks(fn, items, config=config, **kwargs)
        except Exception as exc:
            outcome = exc
    finally:
        telemetry_runtime.set_bus(previous)
    return outcome, sink.signatures()


def _key(x):
    return ("sq", x)


class TestFailFastIsAPolicy:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_clean_run_identical(self, mode):
        items = list(range(30))
        implicit = _run_traced(
            _square, items, ExecutionConfig(mode=mode, n_workers=2), task_key=_key
        )
        explicit = _run_traced(
            _square,
            items,
            ExecutionConfig(mode=mode, n_workers=2, retry=FAIL_FAST),
            task_key=_key,
        )
        assert implicit[0] == explicit[0] == [x * x for x in items]
        assert implicit[1] == explicit[1]

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_failing_item_identical(self, mode):
        items = list(range(30))
        implicit = _run_traced(
            _fail_on_seven, items, ExecutionConfig(mode=mode, n_workers=2), task_key=_key
        )
        explicit = _run_traced(
            _fail_on_seven,
            items,
            ExecutionConfig(mode=mode, n_workers=2, retry=FAIL_FAST),
            task_key=_key,
        )
        for exc, _ in (implicit, explicit):
            assert type(exc) is ValueError
            assert str(exc) == "bad item 7"
        assert implicit[1] == explicit[1]


class _ChunkCountingPool(ProcessPoolExecutor):
    """A process pool that records how many items each submission carries."""

    sizes: list = []

    def submit(self, fn, /, *args, **kwargs):
        _ChunkCountingPool.sizes.append(len(args[2]))
        return super().submit(fn, *args, **kwargs)


class TestChunkedProcessDispatch:
    N = 40  # 2 workers -> chunks of ceil(40 / 8) = 5 items

    def _run(self, tmp_path, monkeypatch, policy, report):
        log = tmp_path / "executions.log"
        _ChunkCountingPool.sizes = []
        monkeypatch.setattr(executor, "ProcessPoolExecutor", _ChunkCountingPool)
        out, sigs = _run_traced(
            functools.partial(_logged_square, str(log)),
            list(range(self.N)),
            ExecutionConfig(mode="process", n_workers=2, retry=policy),
            fault_plan=FaultPlan.failing(7, attempts=[0], kind="raise"),
            failures=report,
        )
        executions = Counter(int(line) for line in log.read_text().split())
        return out, sigs, executions

    def test_raise_in_chunk_charged_to_its_item_only(self, tmp_path, monkeypatch):
        policy = RetryPolicy(max_retries=1, backoff_base=0.0)
        report = FailureReport()
        out, sigs, executions = self._run(tmp_path, monkeypatch, policy, report)

        assert out == [x * x for x in range(self.N)]
        assert not report
        # Wide wave in 5-item chunks, then one single-item retry wave.
        assert _ChunkCountingPool.sizes == [5] * 8 + [1]
        # The fault fires before fn, so every item's fn ran exactly once.
        assert executions == Counter(range(self.N))
        started, finished, retried = Counter(), Counter(), Counter()
        for sig, count in sigs.items():
            payload = dict(sig[1:])
            if sig[0] == "FeatureTaskStarted":
                started[payload["index"]] += count
            elif sig[0] == "FeatureTaskFinished" and payload["status"] == "ok":
                finished[payload["index"]] += count
            elif sig[0] == "RetryScheduled":
                retried[payload["index"]] += count
        assert retried == Counter([7])
        assert started == Counter(range(self.N)) + Counter([7])
        assert finished == Counter(range(self.N))

    def test_exhausted_item_in_chunk_is_the_only_skip(self, tmp_path, monkeypatch):
        report = FailureReport()
        out, _, executions = self._run(
            tmp_path, monkeypatch, RetryPolicy(max_retries=0), report
        )
        assert out == [None if x == 7 else x * x for x in range(self.N)]
        assert report.indices() == [7]
        assert report.failures[0].kind == "exception"
        assert executions == Counter(x for x in range(self.N) if x != 7)


class TestFailFastCrash:
    def test_crash_raises_worker_crash_error_from_broken_pool(self):
        with pytest.raises(WorkerCrashError) as excinfo:
            run_tasks(
                _crash_on_one,
                list(range(6)),
                config=ExecutionConfig(mode="process", n_workers=2),
            )
        assert isinstance(excinfo.value.__cause__, BrokenProcessPool)

    def test_process_task_error_keeps_worker_traceback(self):
        with pytest.raises(ValueError, match="bad item 7") as excinfo:
            run_tasks(
                _fail_on_seven,
                list(range(12)),
                config=ExecutionConfig(mode="process", n_workers=2),
            )
        assert "_fail_on_seven" in str(excinfo.value.__cause__)
