"""Tests for the parallel executor (serial / thread / process modes)."""

import os

import numpy as np
import pytest

from repro.parallel.executor import ExecutionConfig, get_shared, run_tasks
from repro.utils.exceptions import ReproError


def _square(x):
    return x * x


def _shared_lookup(i):
    return get_shared()["data"][i]


class TestExecutionConfig:
    def test_defaults(self):
        cfg = ExecutionConfig()
        assert cfg.mode == "serial" and cfg.effective_workers == 1

    def test_bad_mode(self):
        with pytest.raises(ReproError):
            ExecutionConfig(mode="gpu")

    def test_bad_workers(self):
        with pytest.raises(ReproError):
            ExecutionConfig(mode="thread", n_workers=0)

    def test_effective_workers_pool(self):
        cfg = ExecutionConfig(mode="thread", n_workers=3)
        assert cfg.effective_workers == 3

    def test_effective_workers_default_cpu(self):
        cfg = ExecutionConfig(mode="process")
        assert cfg.effective_workers == (os.cpu_count() or 1)


class TestRunTasks:
    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_results_in_order(self, mode):
        cfg = ExecutionConfig(mode=mode, n_workers=2)
        assert run_tasks(_square, list(range(20)), config=cfg) == [i * i for i in range(20)]

    def test_empty_items(self):
        assert run_tasks(_square, []) == []

    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_shared_state_visible(self, mode):
        cfg = ExecutionConfig(mode=mode, n_workers=2)
        shared = {"data": np.arange(10) * 10}
        out = run_tasks(_shared_lookup, list(range(10)), shared=shared, config=cfg)
        assert out == [i * 10 for i in range(10)]

    def test_shared_cleared_after_serial_run(self):
        run_tasks(_square, [1], shared={"x": 1})
        assert get_shared() is None

    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_identical_results_across_modes(self, mode):
        """DESIGN.md §6: execution mode must not change results."""
        reference = run_tasks(_square, list(range(12)), config=ExecutionConfig())
        cfg = ExecutionConfig(mode=mode, n_workers=2)
        assert run_tasks(_square, list(range(12)), config=cfg) == reference

    def test_exception_propagates_serial(self):
        def boom(i):
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            run_tasks(boom, [1])
