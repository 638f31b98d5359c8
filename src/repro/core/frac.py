"""The FRaC anomaly detector (Noto, Brodley & Slonim 2010/2012).

FRaC trains one supervised model per feature, predicting that feature from
(a configurable subset of) the others, converts prediction errors into
surprisal via cross-validated error models, and scores a sample by the
*normalized surprisal*: the summed surprisal minus feature entropies.

The ``target_features`` / ``input_selector`` hooks are what the scalable
variants of the paper plug into:

- plain FRaC: all features are targets, every other feature is an input;
- full filtering: targets = kept subset, inputs = kept subset;
- partial filtering: targets = kept subset, inputs = all features;
- diverse FRaC: all targets, inputs drawn at random per feature.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.core.config import FRaCConfig
from repro.core.engine import (
    FeatureTask,
    SharedTrainState,
    run_feature_tasks,
    score_contributions,
)
from repro.core.imputation import Preprocessor
from repro.core.types import AnomalyDetector, ContributionMatrix, FeatureModel
from repro.data.schema import FeatureSchema
from repro.parallel.faults import FailureReport, FaultPlan
from repro.parallel.resources import ResourceLog, ResourceReport, design_matrix_bytes
from repro.telemetry.events import RunFinished, RunStarted, ScoreComputed
from repro.telemetry.runtime import get_bus
from repro.telemetry.spans import span
from repro.utils.exceptions import DataError, NotFittedError
from repro.utils.logging import get_logger
from repro.utils.rng import spawn_seeds
from repro.utils.validation import check_2d

_log = get_logger("core.frac")

#: An input selector maps (target feature id, predictor slot, generator) to
#: the array of input feature ids for that predictor.
InputSelector = Callable[[int, int, np.random.Generator], np.ndarray]


# Selectors are small picklable callables (not closures) so fitted
# detectors can be persisted with repro.persistence.


class _AllOthersSelector:
    def __init__(self, n_features: int) -> None:
        self.n_features = int(n_features)

    def __call__(self, target: int, slot: int, gen: np.random.Generator) -> np.ndarray:
        return np.delete(np.arange(self.n_features), target)


class _SubsetSelector:
    def __init__(self, kept: np.ndarray) -> None:
        self.kept = np.asarray(kept, dtype=np.intp)

    def __call__(self, target: int, slot: int, gen: np.random.Generator) -> np.ndarray:
        return self.kept[self.kept != target]


class _FixedInputsSelector:
    def __init__(self, input_ids: np.ndarray) -> None:
        self.input_ids = np.asarray(input_ids, dtype=np.intp)
        if len(self.input_ids) == 0:
            raise DataError("fixed input set is empty; nothing to predict from")

    def __call__(self, target: int, slot: int, gen: np.random.Generator) -> np.ndarray:
        if target in self.input_ids:
            raise DataError(
                f"fixed input set contains target feature {target}; "
                "targets cannot predict themselves"
            )
        return self.input_ids


class _DiverseSelector:
    def __init__(self, n_features: int, p: float) -> None:
        if not 0.0 < p <= 1.0:
            raise DataError(f"diverse probability p must lie in (0, 1]; got {p}")
        self.n_features = int(n_features)
        self.p = float(p)

    def __call__(self, target: int, slot: int, gen: np.random.Generator) -> np.ndarray:
        others = np.delete(np.arange(self.n_features), target)
        mask = gen.random(len(others)) < self.p
        chosen = others[mask]
        if len(chosen) == 0:
            # Guarantee at least one input so every feature keeps a model.
            chosen = others[gen.integers(0, len(others), size=1)]
        return chosen


def all_others_selector(n_features: int) -> InputSelector:
    """Plain FRaC: every feature except the target is an input."""
    return _AllOthersSelector(n_features)


def subset_selector(kept: np.ndarray) -> InputSelector:
    """Full filtering: inputs come from ``kept`` only (minus the target)."""
    return _SubsetSelector(kept)


def fixed_inputs_selector(input_ids: "Sequence[int] | np.ndarray") -> InputSelector:
    """Every target is predicted from the same fixed input set.

    The sensor-panel wiring: a known panel of driver features predicts
    every (disjoint) target. Because all targets share their input ids —
    and, with a fully observed panel, their usable rows — the batched
    engine groups them into large multi-output fits instead of singleton
    groups (see :func:`repro.core.engine.plan_feature_batches`). Raises at
    selection time if a target appears in its own input set.
    """
    return _FixedInputsSelector(np.asarray(input_ids, dtype=np.intp))


def diverse_selector(n_features: int, p: float) -> InputSelector:
    """Diverse FRaC: each other feature is an input with probability ``p``.

    The draw is independent per (target, slot), so multiple predictor slots
    see different subsets — the paper's device for letting subtle patterns
    surface when dominant features are absent.
    """
    return _DiverseSelector(n_features, p)


class FRaC(AnomalyDetector):
    """Feature Regression and Classification anomaly detector.

    Parameters
    ----------
    config:
        Engine hyper-parameters; defaults to :class:`FRaCConfig`'s paper
        settings.
    target_features:
        Feature ids to build models for (default: all).
    input_selector:
        Hook choosing each predictor's inputs (default: all other
        features). See the module docstring for the variant wirings.
    resident_features:
        How many feature columns the run must keep resident in memory, for
        the resource model (full filtering keeps only the filtered subset;
        partial filtering and plain FRaC keep everything). Default: all.
    rng:
        Seed for CV folds, learner tie-breaking, and selector draws.
    """

    def __init__(
        self,
        config: "FRaCConfig | None" = None,
        *,
        target_features: "Sequence[int] | np.ndarray | None" = None,
        input_selector: "InputSelector | None" = None,
        resident_features: "int | None" = None,
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        self.config = config or FRaCConfig()
        self._target_features = target_features
        self._input_selector = input_selector
        self._resident_features = resident_features
        self._rng = rng
        self.models_: "list[FeatureModel] | None" = None
        self.schema_: "FeatureSchema | None" = None
        self._pre: "Preprocessor | None" = None
        self._log: "ResourceLog | None" = None
        self.n_skipped_: int = 0
        self.n_failed_: int = 0
        self.failure_report_: "FailureReport | None" = None

    # -- fitting ---------------------------------------------------------
    def fit(
        self,
        x_train: np.ndarray,
        schema: FeatureSchema,
        *,
        checkpoint: Any = None,
        fault_plan: "FaultPlan | None" = None,
    ) -> "FRaC":
        """Train one feature model per (target, slot) work item.

        ``checkpoint`` (a :class:`repro.parallel.CheckpointJournal`)
        streams completed items to disk and resumes a killed run,
        re-executing only missing items; ``fault_plan`` is the
        test-suite's deterministic fault-injection hook. Fault-handling
        behaviour (timeout, retries, skip-on-exhaustion) is configured on
        ``config.execution.retry``; features dropped after exhausting
        retries are recorded in ``self.failure_report_`` and excluded from
        the NS sum exactly like under-observed features (the "otherwise:
        0" branch).
        """
        x_train = check_2d(x_train, "x_train")
        if x_train.shape[1] != len(schema):
            raise DataError(
                f"x_train has {x_train.shape[1]} columns, schema {len(schema)}"
            )
        n_features = len(schema)
        targets = (
            np.arange(n_features)
            if self._target_features is None
            else np.asarray(self._target_features, dtype=np.intp)
        )
        if len(targets) == 0:
            raise DataError("target_features is empty; nothing to model")
        if len(targets) and (targets.min() < 0 or targets.max() >= n_features):
            raise DataError(f"target_features out of range [0, {n_features})")
        selector = self._input_selector or all_others_selector(n_features)

        resident = self._resident_features if self._resident_features is not None else n_features
        log = ResourceLog(
            data_bytes=design_matrix_bytes(x_train.shape[0], resident),
            n_workers=self.config.execution.effective_workers,
        )

        with log.measure_overhead():
            with span("fit.preprocess"):
                self._pre = Preprocessor(schema, standardize=self.config.standardize).fit(x_train)
                x_imputed = self._pre.transform(x_train)
                x_targets = self._pre.transform_keep_missing(x_train)

            with span("fit.build_tasks"):
                # One extra child beyond the per-task seeds: the run's fold
                # seed. Appended last so the per-task streams — and with
                # them every checkpoint key — are unchanged by its
                # introduction (SeedSequence.spawn is prefix-stable).
                seeds = spawn_seeds(
                    self._rng, len(targets) * self.config.n_predictors + 1
                )
                fold_seed = int(
                    np.random.default_rng(seeds[-1]).integers(0, 2**31 - 1)
                )
                tasks = []
                k = 0
                for target in targets:
                    for slot in range(self.config.n_predictors):
                        gen = np.random.default_rng(seeds[k])
                        inputs = np.asarray(selector(int(target), slot, gen), dtype=np.intp)
                        if len(inputs) and (inputs.min() < 0 or inputs.max() >= n_features):
                            raise DataError("input selector returned out-of-range ids")
                        tasks.append(
                            FeatureTask(
                                feature_id=int(target),
                                input_ids=inputs,
                                seed=int(gen.integers(0, 2**31 - 1)),
                                slot=slot,
                            )
                        )
                        k += 1

        shared = SharedTrainState(
            x_imputed=x_imputed,
            x_targets=x_targets,
            schema=schema,
            config=self.config,
            fold_seed=fold_seed,
        )
        _log.info(
            "fitting %d feature models (%d samples, %s mode, %d worker(s))",
            len(tasks),
            x_train.shape[0],
            self.config.execution.mode,
            self.config.execution.effective_workers,
        )
        failures = FailureReport()
        bus = get_bus()
        if bus is not None:
            bus.emit(
                RunStarted(
                    kind="frac.fit",
                    n_tasks=len(tasks),
                    n_samples=int(x_train.shape[0]),
                    mode=self.config.execution.mode,
                    n_workers=self.config.execution.effective_workers,
                )
            )
        try:
            with span("fit.train"):
                results = run_feature_tasks(
                    tasks,
                    shared,
                    checkpoint=checkpoint,
                    fault_plan=fault_plan,
                    failures=failures,
                )
        except Exception:
            if bus is not None:
                bus.emit(
                    RunFinished(
                        kind="frac.fit",
                        status="error",
                        failure_report=failures.to_dict(),
                    )
                )
            raise

        models: list[FeatureModel] = []
        self.n_skipped_ = 0
        for res in results:
            if res is None:
                self.n_skipped_ += 1
                continue
            model, cost = res
            models.append(model)
            log.add(cost)
        self.failure_report_ = failures
        self.n_failed_ = len(failures)
        if failures:
            _log.warning(
                "%d work item(s) dropped after exhausting retries; their "
                "features contribute 0 to the NS sum:\n%s",
                len(failures),
                failures.summary(),
            )
        if not models:
            if bus is not None:
                bus.emit(
                    RunFinished(
                        kind="frac.fit",
                        status="error",
                        n_skipped=self.n_skipped_,
                        n_failed=self.n_failed_,
                        failure_report=failures.to_dict(),
                    )
                )
            raise DataError(
                "no feature supported a model (all columns below min_observed)"
            )
        self.models_ = models
        self.schema_ = schema
        self._log = log
        report = log.report()
        _log.info(
            "fit complete: %d models (%d skipped), %.2fs cpu, %.1f MB modelled",
            len(models),
            self.n_skipped_,
            report.cpu_seconds,
            report.memory_bytes / 1e6,
        )
        if bus is not None:
            bus.emit(
                RunFinished(
                    kind="frac.fit",
                    status="ok",
                    n_models=len(models),
                    n_skipped=self.n_skipped_,
                    n_failed=self.n_failed_,
                    failure_report=failures.to_dict(),
                    metrics=(
                        bus.metrics.snapshot() if bus.metrics is not None else None
                    ),
                )
            )
        return self

    # -- scoring -------------------------------------------------------------
    def contributions(self, x_test: np.ndarray) -> ContributionMatrix:
        """Per-feature NS contributions for test samples."""
        if self.models_ is None:
            raise NotFittedError("FRaC is not fitted; call fit() first")
        x_test = check_2d(x_test, "x_test")
        with self._log.measure_overhead(), span("score.contributions"):
            x_imputed = self._pre.transform(x_test)
            x_targets = self._pre.transform_keep_missing(x_test)
            values = score_contributions(self.models_, x_imputed, x_targets)
        bus = get_bus()
        if bus is not None:
            bus.emit(
                ScoreComputed(n_samples=int(values.shape[0]), n_models=len(self.models_))
            )
        return ContributionMatrix(
            values=values,
            feature_ids=np.array([m.feature_id for m in self.models_], dtype=np.intp),
        )

    def score(self, x_test: np.ndarray) -> np.ndarray:
        """Normalized surprisal per sample; higher = more anomalous."""
        return self.contributions(x_test).ns_scores()

    # -- introspection ---------------------------------------------------------
    @property
    def resources(self) -> ResourceReport:
        if self._log is None:
            raise NotFittedError("FRaC is not fitted; no resources recorded")
        return self._log.report()

    def structure(self) -> dict[int, np.ndarray]:
        """Target feature id -> concatenated input ids across predictor
        slots. This is the wiring Figure 1 of the paper depicts: which
        features each predictor considers under each variant."""
        if self.models_ is None:
            raise NotFittedError("FRaC is not fitted")
        wiring: dict[int, list[np.ndarray]] = {}
        for m in self.models_:
            wiring.setdefault(m.feature_id, []).append(m.input_ids)
        return {t: np.unique(np.concatenate(parts)) for t, parts in wiring.items()}

    def model_quality(self) -> np.ndarray:
        """``(feature_id, information_gain)`` rows, most predictive first.

        A model's quality is the information its inputs carry about the
        target: ``H(f_i) - mean CV surprisal``. Ranking by raw surprisal
        would surface near-constant features (trivially "predictable" but
        carrying no information); the gain ranking surfaces the features
        whose *relationships* the model captured — the paper's "most
        predictive models" used for biological interpretation (§IV).
        """
        if self.models_ is None:
            raise NotFittedError("FRaC is not fitted")
        rows = np.array(
            [
                (m.feature_id, m.entropy - m.cv_mean_surprisal)
                for m in self.models_
            ],
            dtype=np.float64,
        )
        return rows[np.argsort(-rows[:, 1])]
