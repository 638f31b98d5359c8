"""Self-tests of the benchmark: tiny-scale runs of every workload, the
trace's restore and repeatability guarantees, seeding, and the check.

    PYTHONPATH=src python3 -m pytest fracbench/tests -q
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import reference
import run
import tracing
import workloads as wl
from repro.core.frac import FRaC

TINY = wl.Geometry(scale=1 / 400, replicates=2, call_repeats=1)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_tiny_run_of_each_workload_is_correct(name):
    r = run.run_workload(name, seed=3, seconds=0, trace=False, geometry=TINY)
    assert r["correct"], r["problems"]
    assert r["attempted"] >= 1 and r["failed"] == 0
    assert list(r["metrics"]) == list(run.END_TO_END)
    for k, m in r["metrics"].items():
        assert math.isfinite(m["value"]) and m["value"] > 0, k
    assert r["metrics"]["ok_frac"]["value"] == 1.0


def _bindings():
    return [(owner, attr, vars(owner).get(attr, None)) for owner, attr, _, _ in tracing.targets()]


def test_traced_run_restores_every_patched_binding():
    before = _bindings()
    r = run.run_workload("expr-full", seed=3, seconds=0, trace=True, geometry=TINY)
    assert r["correct"], r["problems"]
    assert r["metrics"]["ridge.factorizations"]["value"] > 0  # the wrappers did run
    after = _bindings()
    assert len(before) == len(after) > len(tracing.ENTRY_POINTS) // 2
    for (owner, attr, obj), (_, _, now) in zip(before, after):
        assert now is obj, f"{owner}.{attr} was not restored"


def test_tracer_restores_bindings_when_the_pass_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("pass failed")
    assert all(now is obj for (_, _, obj), (_, _, now) in zip(before, _bindings()))


@pytest.mark.parametrize("name", ["snp-full", "score-stream"])
def test_layer_counts_repeat_exactly_across_traced_runs(name):
    counts = [
        {
            k: m["value"]
            for k, m in run.run_workload(name, seed=5, seconds=0, trace=True, geometry=TINY)["metrics"].items()
            if m["unit"] not in ("s", "frac")
        }
        for _ in range(2)
    ]
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_inputs_are_a_function_of_the_seed():
    work = wl.WORKLOADS["score-stream"]
    a, b = (wl.load_inputs(work, 7, TINY) for _ in range(2))
    for ds in a:
        for ra, rb in zip(a[ds], b[ds]):
            assert np.array_equal(ra.x_train, rb.x_train) and np.array_equal(ra.x_test, rb.x_test)
    rows = {ds: len(reps[0].x_test) for ds, reps in a.items()}

    def calls(seed):
        return [(ds, r.tolist()) for ds, r in wl.call_sequence(seed, rows, 2)]

    assert calls(7) == calls(7)
    assert calls(7) != calls(8)
    assert not np.array_equal(wl.load_inputs(work, 8, TINY)["autism"][0].x_train, a["autism"][0].x_train)


def test_ns_check_tolerance():
    ref = np.array([3.0, -120.5, 40.25])
    out = wl.OpOutput(("d", 0), ref * (1 + 1e-13))
    assert reference.op_problem(out, {"ns": ref}) == ""
    out.ns = ref * (1 + 1e-6)
    assert "reference" in reference.op_problem(out, {"ns": ref})
    out.ns = np.array([3.0, np.nan, 40.25])
    assert reference.op_problem(out, {"ns": ref}) == "non-finite NS"


def test_perturbed_ns_is_counted_as_failed(monkeypatch):
    shipped_score = FRaC.score

    def perturbed(self, x):
        ns = shipped_score(self, x)
        # Only the shipped path; the per-feature oracle stays exact.
        return ns * (1 + 1e-6) if self.config.batched_training else ns

    monkeypatch.setattr(FRaC, "score", perturbed)
    r = run.run_workload("expr-full", seed=3, seconds=0, trace=False, geometry=TINY)
    assert not r["correct"]
    assert r["failed"] > 0
    assert r["metrics"]["ok_frac"]["value"] == (r["attempted"] - r["failed"]) / r["attempted"] < 1


def test_committed_references_cover_every_op():
    for seed in reference.COMMITTED_SEEDS:
        for name, work in wl.WORKLOADS.items():
            doc = json.loads((reference.REF_DIR / f"{name}.seed{seed}.json").read_text())
            assert (doc["scale"], doc["replicates"]) == (wl.BENCH.scale, wl.BENCH.replicates)
            per_ds = 1 if work.stream else wl.BENCH.replicates
            assert len(doc["entries"]) == per_ds * len(work.datasets)


def test_benchmark_json_describes_this_benchmark():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.per_layer_units()


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    bare = tmp_path / "checkout"
    (bare / "fracbench").mkdir(parents=True)
    for f in run.HERE.glob("*.py"):
        (bare / "fracbench" / f.name).write_text(f.read_text())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    p = subprocess.run(
        [sys.executable, "fracbench/run.py", "--workload", "expr-full", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=120,
    )
    assert p.returncode != 0
    assert "{" not in p.stdout
