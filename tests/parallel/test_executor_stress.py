"""Stress and edge-case tests for the parallel executor."""

import numpy as np
import pytest

from repro.parallel.executor import ExecutionConfig, get_shared, run_tasks


def _identity(x):
    return x


def _read_shared_sum(i):
    return float(get_shared()["arr"].sum()) + i


def _maybe_fail(i):
    if i == 13:
        raise RuntimeError("task 13 failed")
    return i


class TestExecutorStress:
    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_many_small_tasks(self, mode):
        cfg = ExecutionConfig(mode=mode, n_workers=2)
        out = run_tasks(_identity, list(range(500)), config=cfg)
        assert out == list(range(500))

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_large_shared_array_not_copied_per_task(self, mode):
        """A large shared array is installed once; results must still be
        correct for every task."""
        arr = np.ones(200_000)
        cfg = ExecutionConfig(mode=mode, n_workers=2)
        out = run_tasks(
            _read_shared_sum, list(range(40)), shared={"arr": arr}, config=cfg
        )
        assert out == [200_000.0 + i for i in range(40)]

    def test_exception_in_process_pool_propagates(self):
        cfg = ExecutionConfig(mode="process", n_workers=2)
        with pytest.raises(RuntimeError, match="task 13"):
            run_tasks(_maybe_fail, list(range(20)), config=cfg)

    def test_exception_in_thread_pool_propagates(self):
        cfg = ExecutionConfig(mode="thread", n_workers=2)
        with pytest.raises(RuntimeError, match="task 13"):
            run_tasks(_maybe_fail, list(range(20)), config=cfg)

    def test_single_item(self):
        for mode in ("serial", "thread", "process"):
            cfg = ExecutionConfig(mode=mode, n_workers=1)
            assert run_tasks(_identity, [42], config=cfg) == [42]

    def test_results_keep_heterogeneous_types(self):
        items = [1, "a", (2, 3), None]
        assert run_tasks(_identity, items) == items
