"""Tests for the executor's fault model (RetryPolicy, FaultPlan, reports)."""

import pickle

import pytest

from repro.parallel import profiling
from repro.parallel.faults import (
    FailureReport,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    RetryPolicy,
    TaskFailure,
)
from repro.utils.exceptions import ReproError


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_retries == 2
        assert policy.task_timeout is None
        assert policy.on_exhaustion == "skip"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"task_timeout": 0.0},
            {"task_timeout": -3.0},
            {"backoff_base": -0.1},
            {"backoff_max": -1.0},
            {"backoff_multiplier": 0.5},
            {"on_exhaustion": "explode"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ReproError):
            RetryPolicy(**kwargs)

    def test_backoff_sequence_is_deterministic_exponential(self):
        policy = RetryPolicy(
            max_retries=5, backoff_base=0.1, backoff_multiplier=2.0, backoff_max=30.0
        )
        schedule = policy.backoff_schedule()
        assert schedule == [0.1, 0.2, 0.4, 0.8, 1.6]
        # Pure function of the attempt number: same inputs, same outputs.
        assert policy.backoff_schedule() == schedule
        assert policy.backoff_seconds(3) == 0.4

    def test_backoff_capped(self):
        policy = RetryPolicy(
            max_retries=10, backoff_base=1.0, backoff_multiplier=10.0, backoff_max=5.0
        )
        assert policy.backoff_seconds(10) == 5.0

    def test_backoff_zero_for_non_positive_attempt(self):
        policy = RetryPolicy()
        assert policy.backoff_seconds(0) == 0.0
        assert policy.backoff_seconds(-2) == 0.0

    def test_policy_is_picklable_and_hashable(self):
        policy = RetryPolicy(max_retries=1, task_timeout=2.0)
        assert pickle.loads(pickle.dumps(policy)) == policy
        assert hash(policy) == hash(RetryPolicy(max_retries=1, task_timeout=2.0))


class TestFaultPlan:
    def test_no_fault_is_noop(self):
        FaultPlan().apply(0, 0)
        FaultPlan({(3, 1): "raise"}).apply(3, 0)

    def test_raise_fault_fires_on_exact_attempt(self):
        plan = FaultPlan.failing(2, attempts=[1], kind="raise")
        plan.apply(2, 0)
        with pytest.raises(InjectedFault, match="item 2, attempt 1"):
            plan.apply(2, 1)

    def test_hang_routes_sleep_through_profiling(self, monkeypatch):
        slept = []
        monkeypatch.setattr(profiling, "sleep_seconds", slept.append)
        plan = FaultPlan.failing(0, attempts=[0], kind="hang", hang_seconds=7.5)
        with pytest.raises(InjectedFault):
            plan.apply(0, 0)
        assert slept == [7.5]

    def test_string_specs_normalized(self):
        plan = FaultPlan({(1, 0): "hang"})
        spec = plan.spec_for(1, 0)
        assert isinstance(spec, FaultSpec) and spec.kind == "hang"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError):
            FaultPlan({(0, 0): "segfault"})
        with pytest.raises(ReproError):
            FaultSpec(kind="oops")

    def test_bad_spec_type_rejected(self):
        with pytest.raises(ReproError):
            FaultPlan({(0, 0): 42})

    def test_plan_is_picklable(self):
        plan = FaultPlan({(4, 2): FaultSpec(kind="crash")})
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.spec_for(4, 2).kind == "crash"
        assert len(clone) == 1


class TestFailureReport:
    def _failure(self, index=0, kind="exception"):
        return TaskFailure(
            index=index, key=("f", index), kind=kind, message="boom", attempts=3
        )

    def test_empty_report(self):
        report = FailureReport()
        assert not report and len(report) == 0
        assert report.summary() == "no task failures"

    def test_record_and_introspect(self):
        report = FailureReport()
        report.record(self._failure(5))
        report.record(self._failure(9, kind="timeout"))
        assert len(report) == 2 and bool(report)
        assert report.indices() == [5, 9]
        assert [f.kind for f in report] == ["exception", "timeout"]
        assert "item 5" in report.summary() and "timeout" in report.summary()

    def test_extend_merges(self):
        a, b = FailureReport(), FailureReport()
        a.record(self._failure(1))
        b.record(self._failure(2))
        a.extend(b)
        assert a.indices() == [1, 2]

    def test_as_dict_roundtrips_through_pickle(self):
        report = FailureReport()
        report.record(self._failure(3))
        payload = pickle.loads(pickle.dumps(report.as_dict()))
        assert payload["n_failures"] == 1
        assert payload["failures"][0]["index"] == 3
