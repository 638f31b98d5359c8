"""Seeded inputs and timed passes for the FRaC benchmark workloads.

Every workload drives detectors through the public API only —
``repro.experiments.runners.make_detector(...).fit/score`` on replicates
from ``repro.data.compendium.load_replicates``. The workload seed drives
data generation, replicate splits, detector seeds and the score-call
sequence; the program under test only ever sees the generated inputs.
"""

from __future__ import annotations

import zlib
from contextlib import nullcontext
from dataclasses import dataclass, replace
from time import perf_counter, process_time

import numpy as np

from repro.data.compendium import EXPRESSION_DATASETS, load_replicates
from repro.data.dataset import Replicate
from repro.experiments.runners import make_detector
from repro.experiments.settings import DEFAULT_BENCH_SCALE, StudySettings, default_study
from repro.experiments.study import RUNNABLE_DATASETS

#: Row counts of one ``score`` call in ``score-stream``: a single new
#: patient, a clinic's batch, and a cohort screen. How often each size
#: and data set is called is an assumption, not measured traffic (see
#: ``call_sequence``).
CALL_SIZES = (1, 16, 128)

#: Seed purposes: timed inputs and warm-up inputs never share a seed, so
#: the engine's fold-layout memo holds nothing the timed passes use.
TIMED, WARMUP = 0, 1


@dataclass(frozen=True)
class Geometry:
    """How big one pass is. ``BENCH`` is what the benchmark runs; the
    self-tests shrink it."""

    scale: float = DEFAULT_BENCH_SCALE
    replicates: int = 5
    call_repeats: int = 12  # score-stream calls of each (data set, call size) pair


BENCH = Geometry()


@dataclass(frozen=True)
class Workload:
    name: str
    method: str  # make_detector method name
    datasets: tuple[str, ...]
    stream: bool = False  # closed-loop score calls instead of fit+score ops


WORKLOADS = {
    w.name: w
    for w in (
        # Full FRaC, all-others ridge: per-member Gram factorizations dominate.
        Workload("expr-full", "full", EXPRESSION_DATASETS),
        # Full FRaC on SNPs: per-feature trees through the per-task path.
        Workload("snp-full", "full", ("autism",)),
        # One closed-loop caller scoring new patients against fitted models.
        Workload("score-stream", "full", RUNNABLE_DATASETS, stream=True),
    )
}


def _sid(name: str) -> int:
    return zlib.crc32(name.encode())


def settings_for(geometry: Geometry, *, oracle: bool = False) -> StudySettings:
    """Study settings as shipped; ``oracle`` selects the per-feature
    reference path through the config, never through a module flag."""
    s = default_study(scale=geometry.scale, n_replicates=geometry.replicates)
    if not oracle:
        return s
    return replace(
        s,
        expression_config=replace(s.expression_config, batched_training=False),
        snp_config=replace(s.snp_config, batched_training=False),
    )


def load_inputs(
    workload: Workload, seed: int, geometry: Geometry, purpose: int = TIMED
) -> dict[str, list[Replicate]]:
    """Replicates per data set, a pure function of its arguments.

    Each replicate is split from its own generated cohort. Fit cost
    depends on the cohort (one synthetic autism cohort's trees took 15%
    longer to fit than another's), so with one shared cohort per data set
    that difference would shift a whole run with its seed; over several
    cohorts it averages out. The stream scores against one cohort per
    data set.
    """
    cohorts = 1 if workload.stream else geometry.replicates
    return {
        ds: [
            load_replicates(
                ds,
                1,
                scale=geometry.scale,
                rng=np.random.default_rng(np.random.SeedSequence([seed, _sid(ds), purpose, i])),
            )[0]
            for i in range(cohorts)
        ]
        for ds in workload.datasets
    }


def detector_seed(seed: int, dataset: str, index: int, purpose: int = TIMED) -> int:
    # An int, not a SeedSequence: detectors spawn children from their
    # seed, and a shared SeedSequence would hand each pass new streams.
    ss = np.random.SeedSequence([seed, _sid(dataset), index, purpose])
    return int(ss.generate_state(1)[0])


@dataclass(frozen=True)
class Op:
    """One replicate's fit+score (training workloads)."""

    dataset: str
    index: int
    rep: Replicate
    seed: int


def training_ops(inputs: dict[str, list[Replicate]], seed: int, purpose: int = TIMED) -> list[Op]:
    return [
        Op(ds, i, rep, detector_seed(seed, ds, i, purpose))
        for ds, reps in inputs.items()
        for i, rep in enumerate(reps)
    ]


def call_sequence(
    seed: int, test_rows: dict[str, int], repeats: int, purpose: int = TIMED
) -> list[tuple[str, np.ndarray]]:
    """The fixed ``score-stream`` call list: (data set, test-row indices).

    Every (data set, call size) pair appears ``repeats`` times, so the
    seed moves the order and the rows of the calls but not the workload's
    mix. That equal mix is a synthetic assumption: there is no serving
    layer or request log to take a measured one from. Rows are drawn with
    replacement, so a 128-row call works on every test split; rows score
    independently, so any draw can be checked against per-row reference
    NS.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, _sid("score-stream"), purpose]))
    mix = [(ds, size) for ds in test_rows for size in CALL_SIZES]
    kinds = [mix[i % len(mix)] for i in rng.permutation(repeats * len(mix))]
    return [(ds, rng.integers(0, test_rows[ds], size=size)) for ds, size in kinds]


@dataclass
class OpOutput:
    """What one op returned, as the checks need it."""

    key: tuple  # (data set, replicate) or (data set, call number)
    ns: "np.ndarray | None"
    error: str = ""
    wall_s: float = 0.0  # the whole op
    score_s: float = 0.0  # the ``score`` call alone
    rows: int = 0
    models: int = 0  # feature models fitted (training) or applied (stream)
    labels: "np.ndarray | None" = None  # test labels of a training op


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    outputs: list[OpOutput]


def _op_scope(tracer):
    return tracer.op() if tracer is not None else nullcontext()


def run_training_op(
    op: Op, method: str, settings: StudySettings, tracer=None, score_repeats: int = 1
) -> OpOutput:
    """Build, fit and score one detector; exceptions become a failed op.

    The fitted detector scores the test split ``score_repeats`` times in a
    row: ``score_s`` is the fastest call, ``wall_s`` the fit plus that
    call, and every repeat must return the first call's NS bitwise.
    """
    out = OpOutput(
        (op.dataset, op.index), None, rows=len(op.rep.y_test), models=len(op.rep.schema), labels=op.rep.y_test
    )
    with _op_scope(tracer):
        t0 = perf_counter()
        try:
            det = make_detector(method, op.dataset, settings, rng=op.seed)
            det.fit(op.rep.x_train, op.rep.schema)
            fit_s = perf_counter() - t0
            times = []
            for _ in range(score_repeats):
                t1 = perf_counter()
                ns = np.asarray(det.score(op.rep.x_test), dtype=np.float64)
                times.append(perf_counter() - t1)
                if out.ns is None:
                    out.ns = ns
                elif not np.array_equal(ns, out.ns, equal_nan=True):
                    out.error = "NS differs between repeated score calls"
            out.score_s = min(times)
            out.wall_s = fit_s + out.score_s
        except Exception as exc:  # a failed op is counted, not fatal
            out.error = f"{type(exc).__name__}: {exc}"
            out.wall_s = perf_counter() - t0
    return out


def training_pass(
    ops: list[Op], method: str, settings: StudySettings, tracer=None, score_repeats: int = 1
) -> Pass:
    t0, c0 = perf_counter(), process_time()
    outputs = [run_training_op(op, method, settings, tracer, score_repeats) for op in ops]
    return Pass(perf_counter() - t0, process_time() - c0, outputs)


def fit_stream_detectors(inputs: dict[str, list[Replicate]], seed: int, settings: StudySettings) -> dict:
    """Full FRaC fitted on replicate 0 of every data set."""
    detectors = {}
    for ds, reps in inputs.items():
        det = make_detector("full", ds, settings, rng=detector_seed(seed, ds, 0))
        detectors[ds] = det.fit(reps[0].x_train, reps[0].schema)
    return detectors


def score_op(detector, x: np.ndarray, key: tuple) -> OpOutput:
    """One timed ``score`` call; an exception becomes a failed op."""
    out = OpOutput(key, None, rows=len(x), models=len(detector.models_))
    t = perf_counter()
    try:
        out.ns = np.asarray(detector.score(x), dtype=np.float64)
    except Exception as exc:  # a failed call is counted, not fatal
        out.error = f"{type(exc).__name__}: {exc}"
    out.score_s = out.wall_s = perf_counter() - t
    return out


def stream_pass(detectors: dict, tests: dict[str, np.ndarray], calls, tracer=None) -> Pass:
    """Closed loop: each ``score`` call waits for the previous one."""
    outputs = []
    t0, c0 = perf_counter(), process_time()
    for k, (ds, rows) in enumerate(calls):
        x = tests[ds][rows]
        with _op_scope(tracer):
            outputs.append(score_op(detectors[ds], x, (ds, k)))
    return Pass(perf_counter() - t0, process_time() - c0, outputs)
