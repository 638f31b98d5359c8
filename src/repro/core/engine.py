"""The per-feature FRaC engine: cross-validated feature models.

One *work item* = one (target feature, predictor slot) pair. Executing an
item (``run_feature_task``):

1. selects the training rows where the target is observed;
2. k-fold cross-validates a fresh predictor to gather holdout
   (prediction, truth) pairs;
3. fits the error model (Gaussian residual / confusion matrix) on those
   pairs;
4. refits the predictor on all usable rows;
5. estimates the feature's training-set entropy.

Items only carry small picklable payloads (:class:`FeatureTask`); the
training matrix travels through the executor's shared-state channel (see
:mod:`repro.parallel.executor`), so process-mode workers inherit it via
fork instead of pickling it per item.

Batched execution
-----------------
:func:`run_feature_tasks` is the single entry point. When the configured
regressor advertises batching (:data:`~repro.learners.registry.
BATCHED_REGRESSORS`) and ``config.batched_training`` is on, real-valued
tasks are grouped by identical ``(rows, input_ids, fold layout)``
(:func:`plan_feature_batches`) and each group is executed by
:func:`run_feature_batch`: the row gathers, fold gathers, and the
learner's design-matrix factorization happen once per group instead of
once per feature, while every per-column float op replays the scalar
path verbatim (see :mod:`repro.learners.batched`). Tasks that share an
observed-row mask but not input ids — diverse-FRaC's per-feature input
draws, and the default all-others wiring — form *masked* groups
instead: shared row/fold/target gathers and centering, per-member
column subsets (the masked solver protocol). The batched path is
**byte-identical** to the per-feature path — NS scores, contributions,
``cv_mean_surprisal``, persisted artifacts — and preserves its
observable semantics: checkpoint journals keep per-feature keys (the two
paths' journals interchange), telemetry stays per-feature (batch items
run quiet; the orchestrator re-emits the task lifecycle per feature, and
``FoldTrained`` is emitted per (feature, fold) either way), and a failed
batch decomposes into per-feature execution under the caller's retry
policy. Deterministic fault injection (``fault_plan``) targets the
per-feature index space, so plans route the whole run down the
per-feature path.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, replace

import numpy as np

from repro.core.config import FRaCConfig
from repro.core.types import FeatureModel
from repro.data.schema import FeatureSchema
from repro.errormodels.confusion import ConfusionErrorModel
from repro.errormodels.entropy import discrete_entropy
from repro.errormodels.gaussian import GaussianErrorModel
from repro.errormodels.kde import GaussianKDE, batch_entropy
from repro.learners.registry import (
    learner_accepts_param,
    make_batched_learner,
    make_learner,
    supports_batching,
    supports_masked_batching,
)
from repro.learners.ridge import RidgeRegressor
from repro.parallel.executor import get_shared, run_tasks
from repro.parallel.faults import FailureReport, FaultPlan
from repro.parallel.profiling import cpu_seconds
from repro.parallel.resources import TaskCost, design_matrix_bytes, training_work_units
from repro.telemetry.events import (
    CheckpointHit,
    CheckpointMiss,
    FeatureTaskFinished,
    FeatureTaskStarted,
    FoldTrained,
)
from repro.telemetry.runtime import get_bus
from repro.telemetry.spans import span
from repro.utils.exceptions import DataError
from repro.utils.validation import check_2d


@dataclass(frozen=True)
class FeatureTask:
    """Picklable description of one (feature, predictor-slot) work item."""

    feature_id: int
    input_ids: np.ndarray
    seed: int
    slot: int = 0


@dataclass(frozen=True)
class SharedTrainState:
    """Read-only training state shared with all workers.

    ``x_imputed`` has every entry finite (model *inputs*); ``x_targets``
    keeps missing entries as NaN so target reads respect missingness. Both
    are in standardized units when the config says so.

    ``fold_seed`` pins the run's CV fold layout: every task with the same
    usable-row count draws the identical permutation (see
    :func:`fold_rng`), which is what lets the batched planner group tasks
    by ``(rows, input_ids)`` and know the fold layout matches too.
    """

    x_imputed: np.ndarray
    x_targets: np.ndarray
    schema: FeatureSchema
    config: FRaCConfig
    fold_seed: int = 0


def fold_rng(fold_seed: int, n: int) -> np.random.Generator:
    """The generator that deals the k-fold permutation for ``n`` rows.

    Seeded by ``(run fold seed, row count)`` — not by the per-task seed —
    so tasks whose usable rows coincide share one fold layout. Shared
    layouts are a *requirement* of the batched path (fold gathers are
    computed once per group) and harmless to the per-feature path: folds
    stay deterministic per run, and the per-task stream still
    independently seeds the learners.
    """
    return np.random.default_rng(np.random.SeedSequence([int(fold_seed), int(n)]))


def kfold_indices(
    n: int, k: int, rng: np.random.Generator
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded k-fold split of ``range(n)`` into (train, holdout) pairs."""
    if n < 2:
        raise DataError(f"cannot cross-validate {n} samples")
    k = max(2, min(k, n))
    perm = rng.permutation(n)
    folds = np.array_split(perm, k)
    out = []
    for i in range(k):
        holdout = folds[i]
        # Known k-fold cost, deferred to the batched-training rewrite
        # (ROADMAP Open item 1): k small, indices O(n); the ledger
        # tracks it under run_feature_task's measured span time.
        train = np.concatenate([folds[j] for j in range(k) if j != i])  # fraclint: disable=FRL016
        out.append((train, holdout))
    return out


#: Fold-layout memo. The permutation depends only on ``(fold_seed, n,
#: k)`` — exactly the sharing contract :func:`fold_rng` encodes — so
#: every task with the same usable-row count reuses one dealt layout
#: instead of re-seeding a generator per task. Entries are treated as
#: read-only; the bound only guards pathological studies that sweep
#: thousands of distinct row counts. Thread-mode tasks share the memo,
#: so every access holds ``_FOLD_CACHE_LOCK`` (FRL021): the check-then-
#: insert and the capacity ``clear()`` must be atomic with respect to
#: each other.
_FOLD_CACHE: "dict[tuple[int, int, int], list[tuple[np.ndarray, np.ndarray]]]" = {}
_FOLD_CACHE_LOCK = threading.Lock()


def shared_folds(
    fold_seed: int, n: int, k: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Memoized ``kfold_indices(n, k, fold_rng(fold_seed, n))``.

    The memo is purely an optimization: the value for a key is a pure
    function of the key, so a process-mode worker repopulating its own
    copy-on-write snapshot recomputes the identical layout — losing the
    write at the harvest barrier costs time, never correctness (the
    audited FRL025 suppressions below).
    """
    key = (int(fold_seed), int(n), int(k))
    with _FOLD_CACHE_LOCK:
        folds = _FOLD_CACHE.get(key)
        if folds is None:
            folds = kfold_indices(n, k, fold_rng(fold_seed, n))
            if len(_FOLD_CACHE) >= 1024:
                _FOLD_CACHE.clear()  # fraclint: disable=FRL025 — pure memo; a worker-local clear only costs recompute
            _FOLD_CACHE[key] = folds  # fraclint: disable=FRL025 — pure memo; key determines value, lost writes recompute identically
    return folds


def _make_predictor(name: str, params: dict, seed: int):
    """Instantiate a learner, injecting the task seed when supported.

    Support is decided by inspecting the learner's signature
    (:func:`repro.learners.registry.learner_accepts_param`) rather than by
    catching ``TypeError``: a blanket except would also swallow the
    TypeError caused by a bad *user* parameter and retry without the seed,
    turning a configuration mistake into a silently nondeterministic run.
    Genuine construction errors always propagate.
    """
    if learner_accepts_param(name, "seed"):
        return make_learner(name, **{**params, "seed": seed})
    return make_learner(name, **params)


def feature_task_key(task: FeatureTask) -> tuple[int, int, int]:
    """Stable checkpoint-journal key for one work item.

    ``(feature_id, slot, seed)`` pins the task's RNG stream (the input
    draw and learner seed), and the task seed is spawned from the same
    root stream as the run's shared ``fold_seed`` — so equal keys within
    one detector configuration imply bit-identical results (the
    idempotence resume relies on), while any change to the root seed or
    task layout changes the keys and naturally invalidates stale journal
    entries. The batched executor path journals under these same
    per-feature keys, so batched and per-feature journals interchange.
    """
    return (int(task.feature_id), int(task.slot), int(task.seed))


def run_feature_task(task: FeatureTask) -> "tuple[FeatureModel, TaskCost] | None":
    """Execute one work item against the executor-shared training state.

    Returns ``None`` when the feature cannot support a model (too few
    observed values); the caller simply drops it from the NS sum, which is
    the "otherwise: 0" branch of the NS definition applied at train time.
    """
    shared: SharedTrainState = get_shared()
    cfg = shared.config
    start = cpu_seconds()

    target_col = shared.x_targets[:, task.feature_id]
    rows = np.flatnonzero(~np.isnan(target_col))
    if len(rows) < cfg.min_observed:
        return None
    y = target_col[rows]
    input_ids = np.asarray(task.input_ids, dtype=np.intp)
    x_in = shared.x_imputed[np.ix_(rows, input_ids)]

    spec = shared.schema[task.feature_id]
    rng = np.random.default_rng(task.seed)
    learner_seed = int(rng.integers(0, 2**31 - 1))
    if spec.is_categorical:
        make = lambda: _make_predictor(cfg.classifier, dict(cfg.classifier_params), learner_seed)
        error_model = ConfusionErrorModel(spec.arity, smoothing=cfg.confusion_smoothing)
        entropy = discrete_entropy(y, arity=spec.arity)
    else:
        make = lambda: _make_predictor(cfg.regressor, dict(cfg.regressor_params), learner_seed)
        error_model = GaussianErrorModel(sigma_floor=cfg.sigma_floor)
        entropy = GaussianKDE().fit(y).entropy()

    # Cross-validation pass: gather holdout (prediction, truth) pairs.
    # Fold events are worker-side: visible in serial/thread modes, muted in
    # forked process workers (whose bus is dropped; see executor._init_worker).
    bus = get_bus()
    preds = np.empty(len(rows))
    folds = shared_folds(shared.fold_seed, len(rows), cfg.n_folds)
    # THE per-feature fit loop the paper profiles (O(f) dispatch):
    # ranked #1 in docs/optimization-ledger.md. The batched path
    # (ROADMAP Open item 1, run_feature_batch below) replaces this loop
    # whenever the regressor supports batching; it stays as the scalar
    # path for categorical/unbatched learners and as the byte-equivalence
    # reference the proof harness compares against. The per-fold gathers
    # below copy rows each iteration for the same reason.
    for fold, (train_idx, holdout_idx) in enumerate(folds):  # fraclint: disable=FRL015
        model = make()
        model.fit(x_in[train_idx], y[train_idx])  # fraclint: disable=FRL016 -- per-fold row gather, batched with the fit loop (Open item 1)
        preds[holdout_idx] = model.predict(x_in[holdout_idx])  # fraclint: disable=FRL016 -- per-fold holdout gather, batched with the fit loop (Open item 1)
        if bus is not None:
            bus.emit(
                FoldTrained(
                    feature_id=int(task.feature_id),
                    slot=int(task.slot),
                    fold=fold,
                    n_folds=len(folds),
                )
            )
    error_model.fit(preds, y)
    cv_mean_surprisal = float(error_model.surprisal(preds, y).mean())

    # Final predictor: refit on every usable row.
    predictor = make().fit(x_in, y)

    cost = TaskCost(
        cpu_seconds=cpu_seconds() - start,
        design_bytes=design_matrix_bytes(len(rows), max(len(input_ids), 1)),
        model_bytes=int(getattr(predictor, "model_nbytes", 0)) + error_model.model_nbytes,
        work_units=training_work_units(len(folds) + 1, len(rows), len(input_ids)),
    )
    return (
        FeatureModel(
            feature_id=task.feature_id,
            input_ids=input_ids,
            predictor=predictor,
            error_model=error_model,
            entropy=entropy,
            cv_mean_surprisal=cv_mean_surprisal,
        ),
        cost,
    )


# -- batched execution -------------------------------------------------------

#: Largest feature group executed as one batch. Grouping is what amortizes
#: the gathers and the Gram factorization; the cap only bounds how much
#: completed work one mid-batch crash can lose before the next journal
#: append (batch results stream to the checkpoint per batch, not per run).
MAX_BATCH_FEATURES = 64


@dataclass(frozen=True)
class FeatureBatch:
    """A group of real-valued tasks sharing ``(rows, input_ids, folds)`` —
    or, when ``masked`` is set, sharing only ``(rows, folds)`` with
    per-member input subsets (the diverse-FRaC shape).

    ``indices`` are the member positions in the task list handed to
    :func:`plan_feature_batches`, so the orchestrator can place results
    and re-emit per-feature telemetry without searching. ``group`` is a
    short content digest of the plan-group key (the observed-mask byte
    pattern, plus the input-id bytes for exact groups), stamped onto the
    batch's ``fit.batch`` span so a trace alone reveals how the planner
    grouped the feature space.
    """

    tasks: tuple[FeatureTask, ...]
    indices: tuple[int, ...]
    group: str = ""
    masked: bool = False


def batch_task_key(batch: FeatureBatch) -> tuple:
    """Journal key of a batch: the tuple of its members' per-feature keys."""
    return tuple(feature_task_key(task) for task in batch.tasks)


def plan_feature_batches(
    tasks: "list[FeatureTask]",
    shared: SharedTrainState,
    max_batch: int = MAX_BATCH_FEATURES,
    masked: bool = True,
) -> "tuple[list[FeatureBatch], list[int]]":
    """Group batchable tasks; return ``(batches, passthrough_indices)``.

    Tasks are batchable when their target is real-valued (categorical
    targets keep the per-feature classifier path). Group identity is the
    byte pattern of the target's observed-row mask plus the input-id
    array: equal masks mean equal usable rows, and — because the fold
    permutation is dealt by :func:`fold_rng` from the shared fold seed
    and the row count — equal rows imply an equal fold layout, completing
    the ``(rows, input_ids, fold-layout)`` grouping contract.

    When a mask group contains *different* input-id patterns — the
    all-others wiring and diverse-FRaC's per-feature input draws (paper
    §II-B), which the exact key degenerates to singletons — and
    ``masked`` grouping is on, the whole mask group becomes masked
    batches instead: members share ``(rows, fold layout)`` and carry
    their own input subsets, executed by the masked-solver path (one row
    gather / centering per group, one Gram per member; see
    :mod:`repro.learners.batched`). Groups larger than ``max_batch``
    split into consecutive chunks (bitwise results are independent of
    batch boundaries; only amortization and checkpoint granularity
    change).

    Ordering is deterministic: groups appear in first-member order and
    members in task order, so plans are identical across runs and modes.
    """
    by_mask: "dict[bytes, dict[bytes, list[int]]]" = {}
    passthrough: list[int] = []
    for pos, task in enumerate(tasks):
        if shared.schema[task.feature_id].is_categorical:
            passthrough.append(pos)
            continue
        observed = ~np.isnan(shared.x_targets[:, task.feature_id])
        ids_bytes = np.asarray(task.input_ids, dtype=np.intp).tobytes()
        by_mask.setdefault(observed.tobytes(), {}).setdefault(ids_bytes, []).append(pos)
    batches: list[FeatureBatch] = []
    for mask_bytes, subgroups in by_mask.items():
        if masked and len(subgroups) > 1:
            # Deterministic plan-group fingerprint: a content digest of
            # the grouping key itself, so equal groups carry equal labels
            # across runs, machines, and batch-size splits (telemetry
            # join key only — never fed back into computation). Masked
            # groups digest the mask alone: input ids are per member.
            group = hashlib.sha256(mask_bytes).hexdigest()[:12]
            positions = sorted(p for ps in subgroups.values() for p in ps)
            for lo in range(0, len(positions), max_batch):
                chunk = positions[lo : lo + max_batch]
                batches.append(
                    FeatureBatch(
                        tasks=tuple(tasks[p] for p in chunk),
                        indices=tuple(chunk),
                        group=group,
                        masked=True,
                    )
                )
            continue
        for ids_bytes, positions in subgroups.items():
            group = hashlib.sha256(mask_bytes + ids_bytes).hexdigest()[:12]
            for lo in range(0, len(positions), max_batch):
                chunk = positions[lo : lo + max_batch]
                batches.append(
                    FeatureBatch(
                        tasks=tuple(tasks[p] for p in chunk),
                        indices=tuple(chunk),
                        group=group,
                    )
                )
    return batches, passthrough


def run_feature_batch(batch: FeatureBatch) -> "list[tuple[FeatureModel, TaskCost] | None]":
    """Execute one task group against the executor-shared training state.

    Returns one per-member result in ``batch.tasks`` order, each exactly
    what :func:`run_feature_task` would have produced for that task: the
    row/fold gathers and the design-matrix factorization are shared per
    group, while every per-column operation (target validation,
    centering, the ``XᵀY`` product, the triangular solves, the error
    model, entropy) replays the scalar call sequence verbatim — see
    :mod:`repro.learners.batched` for why that is bitwise-preserving.

    Members share their rows by construction (:func:`plan_feature_batches`
    groups by the observed-row mask), so the under-``min_observed`` check
    decides once for the whole group.

    Each execution is bracketed by a ``fit.batch`` span whose attrs carry
    the batch size and the planner's group fingerprint — the measurement
    substrate for pricing per-group amortization from a trace alone
    (observation only; the batch wave's quiet task lifecycle and the
    byte-equivalence proof are unaffected).
    """
    with span(
        "fit.batch",
        attrs={
            "batch_size": len(batch.tasks),
            "group": batch.group,
            "masked": int(batch.masked),
        },
    ):
        return _execute_feature_batch(batch)


def _execute_feature_batch(
    batch: FeatureBatch,
) -> "list[tuple[FeatureModel, TaskCost] | None]":
    shared: SharedTrainState = get_shared()
    cfg = shared.config
    start = cpu_seconds()

    first = batch.tasks[0]
    rows = np.flatnonzero(~np.isnan(shared.x_targets[:, first.feature_id]))
    if len(rows) < cfg.min_observed:
        return [None] * len(batch.tasks)
    if batch.masked:
        return _execute_masked_batch(batch, shared, rows, start)
    input_ids = np.asarray(first.input_ids, dtype=np.intp)
    x_in = shared.x_imputed[np.ix_(rows, input_ids)]
    # One design validation for the whole group: every fold subset below
    # is a row slice of x_in, so finiteness here covers them all. The
    # solvers are told to skip their own re-check (check=False).
    check_2d(x_in, "X", allow_nan=False)
    ys = [shared.x_targets[:, task.feature_id][rows] for task in batch.tasks]

    learner = make_batched_learner(cfg.regressor, **dict(cfg.regressor_params))
    folds = shared_folds(shared.fold_seed, len(rows), cfg.n_folds)

    bus = get_bus()
    preds = [np.empty(len(rows)) for _ in batch.tasks]
    for fold, (train_idx, holdout_idx) in enumerate(folds):
        # One gather + one factorization per (group, fold) — the whole
        # point of the batch; the remaining per-column cost is O(n*d) gemv.
        solver = learner.solver(x_in[train_idx], check=False)  # fraclint: disable=FRL016 -- the amortized per-fold gather (one per group, not per feature); priced in the ledger under run_feature_tasks
        x_holdout = x_in[holdout_idx]  # fraclint: disable=FRL016 -- amortized holdout gather, shared by every member column
        for j, task in enumerate(batch.tasks):
            model = solver.fit_column(ys[j][train_idx])  # fraclint: disable=FRL016 -- per-column target gather; O(n) vector next to the shared O(n*d) factorization
            preds[j][holdout_idx] = model.predict(x_holdout)
            if bus is not None:
                bus.emit(
                    FoldTrained(
                        feature_id=int(task.feature_id),
                        slot=int(task.slot),
                        fold=fold,
                        n_folds=len(folds),
                    )
                )

    final = learner.solver(x_in, check=False)
    shared_cpu = cpu_seconds() - start
    out: "list[tuple[FeatureModel, TaskCost] | None]" = []
    # The batched tail (ROADMAP Open item 1): the expensive shared work —
    # gathers and the Gram factorization — is already hoisted into
    # ``learner.solver`` above; what remains per member is an O(n*d) gemv
    # column solve plus the error model, deliberately kept as per-column
    # scalar calls so each replays run_feature_task's float ops verbatim
    # (bitwise equivalence over raw speed; see repro.learners.batched).
    for j, task in enumerate(batch.tasks):  # fraclint: disable=FRL015
        per0 = cpu_seconds()
        y = ys[j]
        error_model = GaussianErrorModel(sigma_floor=cfg.sigma_floor)
        entropy = GaussianKDE().fit(y).entropy()
        error_model.fit(preds[j], y)
        cv_mean_surprisal = float(error_model.surprisal(preds[j], y).mean())
        predictor = final.fit_column(y)
        cost = TaskCost(
            # Shared work is split evenly; per-member tails are measured.
            # The deterministic components (bytes, work units) use the
            # same formulas as the per-feature path.
            cpu_seconds=shared_cpu / len(batch.tasks) + (cpu_seconds() - per0),
            design_bytes=design_matrix_bytes(len(rows), max(len(input_ids), 1)),
            model_bytes=int(getattr(predictor, "model_nbytes", 0))
            + error_model.model_nbytes,
            work_units=training_work_units(len(folds) + 1, len(rows), len(input_ids)),
        )
        out.append(
            (
                FeatureModel(
                    feature_id=task.feature_id,
                    input_ids=input_ids,
                    predictor=predictor,
                    error_model=error_model,
                    entropy=entropy,
                    cv_mean_surprisal=cv_mean_surprisal,
                ),
                cost,
            )
        )
    return out


def _execute_masked_batch(
    batch: FeatureBatch,
    shared: SharedTrainState,
    rows: np.ndarray,
    start: float,
) -> "list[tuple[FeatureModel, TaskCost] | None]":
    """Execute a masked group: shared rows/folds, per-member input subsets.

    The diverse-FRaC shape (and the all-others wiring): members agree on
    the observed-row mask — hence on the fold layout — but each draws its
    own input columns, so no design matrix is shared. What *is* shared is
    gathered and computed once per (group, fold): the full-width row
    gather, the column means, the centered design, the holdout rows, and
    the whole y side (gather, finiteness, means, centering — batched
    through bit-preserving contiguous-row reductions). Each member then
    pays only its own column gather, Gram + Cholesky, and gemv solves,
    through :meth:`repro.learners.batched.MaskedSolver.member` — which
    guarantees every member float is bit-identical to the per-feature
    path (single-input members replay the scalar kernel choice).
    """
    cfg = shared.config
    x_full = shared.x_imputed[rows]
    # One design validation for the whole group (covers every member's
    # column subset and every fold's row slice); solvers skip re-checks.
    check_2d(x_full, "X", allow_nan=False)
    ids_list = [np.asarray(task.input_ids, dtype=np.intp) for task in batch.tasks]
    feat = np.fromiter(
        (task.feature_id for task in batch.tasks), dtype=np.intp, count=len(batch.tasks)
    )
    # (k, n) with contiguous member rows: row j is exactly the 1-D target
    # vector the per-feature path gathers for member j.
    ys = shared.x_targets.T[np.ix_(feat, rows)]

    learner = make_batched_learner(cfg.regressor, **dict(cfg.regressor_params))
    folds = shared_folds(shared.fold_seed, len(rows), cfg.n_folds)

    bus = get_bus()
    preds = [np.empty(len(rows)) for _ in batch.tasks]
    for fold, (train_idx, holdout_idx) in enumerate(folds):
        # One gather + one mean/centering pass per (group, fold); the
        # remaining per-member cost is the column gather and its own
        # Gram factorization (a shared factor is not bit-reachable here —
        # see repro.learners.batched).
        solver = learner.masked_solver(x_full[train_idx], check=False)  # fraclint: disable=FRL016 -- the amortized per-fold gather (one per group, not per feature); priced in the ledger under run_feature_tasks
        x_holdout = x_full[holdout_idx]  # fraclint: disable=FRL016 -- amortized holdout gather, shared by every member column
        # ascontiguousarray: the column gather is F-contiguous, whose
        # axis-1 reduction takes a strided kernel; each member's
        # reference y.mean() is the 1-D pairwise kernel, which only the
        # C-contiguous rows replay.
        y_fold = np.ascontiguousarray(ys[:, train_idx])  # fraclint: disable=FRL016 -- amortized target gather: one (k, n_fold) copy per fold for the whole group
        if not np.isfinite(y_fold).all():
            # The same error fit_column raises per member; failing the
            # batch routes every member down the per-feature path, which
            # reports it with the offending feature attached.
            raise ValueError("target y contains non-finite values")
        # Contiguous-row axis-1 reductions run the same pairwise kernel
        # as each member's scalar y.mean(); broadcast centering is
        # elementwise — both bit-identical to the per-member ops.
        y_means = y_fold.mean(axis=1)
        y_centered = y_fold - y_means[:, None]
        for j, task in enumerate(batch.tasks):
            member = solver.member(ids_list[j])
            model = member.solve_centered(y_centered[j], y_means[j])
            # The gemv predict() runs, minus its isfinite re-scan of rows
            # validated once above.
            # ascontiguousarray: the column gather is F-contiguous and
            # gemv dispatches differently there; the reference path's
            # np.ix_ gather is C-contiguous, so replay that layout.
            x_m = np.ascontiguousarray(x_holdout[:, ids_list[j]])  # fraclint: disable=FRL016 -- per-member holdout column gather; O(n*d') next to the member's own O(n*d'^2) Gram
            preds[j][holdout_idx] = x_m @ model.coef_ + model.intercept_
            if bus is not None:
                bus.emit(
                    FoldTrained(
                        feature_id=int(task.feature_id),
                        slot=int(task.slot),
                        fold=fold,
                        n_folds=len(folds),
                    )
                )

    final = learner.masked_solver(x_full, check=False)
    # Batched per-member tail: KDE entropies, Gaussian error models, and
    # CV mean surprisals all batch across the group's contiguous rows
    # with the same bit-preservation arguments as the training half (see
    # repro.errormodels.kde.batch_entropy / GaussianErrorModel.batch_fit).
    # Only the final refit stays per member — its Gram is the member's own.
    preds_mat = np.stack(preds)
    entropies = batch_entropy(ys)
    error_models = GaussianErrorModel.batch_fit(
        preds_mat, ys, sigma_floor=cfg.sigma_floor
    )
    cv_means = GaussianErrorModel.batch_mean_surprisal(error_models, preds_mat, ys)
    shared_cpu = cpu_seconds() - start
    out: "list[tuple[FeatureModel, TaskCost] | None]" = []
    for j, task in enumerate(batch.tasks):  # fraclint: disable=FRL015 -- O(k) assembly: the tail's numpy work (entropy, error fit, CV surprisal) is batched above; only the final per-member refit stays, its Gram being the member's own
        per0 = cpu_seconds()
        error_model = error_models[j]
        entropy = float(entropies[j])
        cv_mean_surprisal = float(cv_means[j])
        predictor = final.member(ids_list[j]).fit_column(ys[j])
        cost = TaskCost(
            cpu_seconds=shared_cpu / len(batch.tasks) + (cpu_seconds() - per0),
            design_bytes=design_matrix_bytes(len(rows), max(len(ids_list[j]), 1)),
            model_bytes=int(getattr(predictor, "model_nbytes", 0))
            + error_model.model_nbytes,
            work_units=training_work_units(
                len(folds) + 1, len(rows), len(ids_list[j])
            ),
        )
        out.append(
            (
                FeatureModel(
                    feature_id=task.feature_id,
                    input_ids=ids_list[j],
                    predictor=predictor,
                    error_model=error_model,
                    entropy=entropy,
                    cv_mean_surprisal=cv_mean_surprisal,
                ),
                cost,
            )
        )
    return out


class _FanoutJournal:
    """Checkpoint adapter fanning one batch append into per-feature appends.

    The batch wave journals through this wrapper so the on-disk journal
    only ever contains *per-feature* entries — the same keys and values
    the per-feature path writes, streamed per completed batch. Resume
    reads the journal at per-feature granularity (the orchestrator's
    pre-pass), so ``entries()`` is empty by construction: cached features
    never reach the batch wave.
    """

    def __init__(self, journal, batches: "list[FeatureBatch]") -> None:
        self._journal = journal
        self._keys = {batch_task_key(b): [feature_task_key(t) for t in b.tasks] for b in batches}
        self.path = getattr(journal, "path", "?")

    def entries(self) -> dict:
        return {}

    def append(self, key, value) -> None:
        for feature_key, feature_value in zip(self._keys[key], value):
            self._journal.append(feature_key, feature_value)


def run_feature_tasks(
    tasks: "list[FeatureTask]",
    shared: SharedTrainState,
    *,
    checkpoint=None,
    fault_plan: "FaultPlan | None" = None,
    failures: "FailureReport | None" = None,
) -> "list[tuple[FeatureModel, TaskCost] | None]":
    """Execute every work item, batched where the regressor supports it.

    The single training entry point: chooses between the batched executor
    path and the per-feature path, preserving the per-feature path's
    observable behaviour in either case (see the module docstring).
    ``fault_plan`` indices address the per-feature task list, so any plan
    routes execution down the per-feature path — which keeps every
    fault-injection proof exact, and lets a poison-plan resume prove that
    a batched-written journal replays with zero re-executions.
    """
    cfg = shared.config
    use_batched = (
        cfg.batched_training
        and fault_plan is None
        and supports_batching(cfg.regressor)
    )
    if use_batched:
        return _run_batched(tasks, shared, checkpoint, failures)
    # The reference path: one executor item per (feature, slot), under the
    # caller's retry policy (fail-fast when there is none).
    return run_tasks(
        run_feature_task,
        tasks,
        shared=shared,
        config=cfg.execution,
        checkpoint=checkpoint,
        task_key=feature_task_key,
        fault_plan=fault_plan,
        failures=failures,
    )


def _run_batched(tasks, shared, checkpoint, failures):
    """Batched orchestration with per-feature observable semantics.

    1. *Checkpoint pre-pass* (per feature): cached results resolve without
       execution, emitting the same ``CheckpointHit``/``CheckpointMiss``
       and cached-``FeatureTaskFinished`` events, in the same task order,
       as the per-feature scheduler.
    2. *Batch wave*: remaining batchable tasks run as quiet coarse items
       (no batch-level lifecycle events); completed batches stream to the
       journal through :class:`_FanoutJournal` at per-feature keys.
       Transient faults retry at batch granularity under the caller's
       policy, and exhausted batches are *decomposed*, never skipped
       outright or raised — also under fail-fast.
    3. *Lifecycle re-emission*: each batch-completed feature gets its
       ``FeatureTaskStarted``/``FeatureTaskFinished`` pair, so per-feature
       event counts are replay-identical with the per-feature path.
    4. *Decomposed + passthrough run*: members of failed batches and
       non-batchable (categorical) tasks execute per feature under the
       caller's own retry policy; their lifecycle events are the real
       ones. Their completions are journaled afterwards (skipped features
       are not journaled, matching the per-feature scheduler).
    """
    cfg = shared.config
    execution = cfg.execution
    bus = get_bus()
    n = len(tasks)
    keys = [feature_task_key(task) for task in tasks]
    results: "list" = [None] * n

    # 1. Per-feature checkpoint pre-pass.
    pending: list[int] = list(range(n))
    if checkpoint is not None:
        completed = checkpoint.entries()
        pending = []
        for i, key in enumerate(keys):
            if key in completed:
                results[i] = completed[key]
                if bus is not None:
                    bus.emit(CheckpointHit(index=i, key=key))
                    bus.emit(
                        FeatureTaskFinished(
                            index=i, status="cached", attempts=0, key=key
                        )
                    )
            else:
                if bus is not None:
                    bus.emit(CheckpointMiss(index=i, key=key))
                pending.append(i)

    batches, passthrough = plan_feature_batches(
        [tasks[i] for i in pending],
        shared,
        masked=supports_masked_batching(cfg.regressor),
    )

    # 2. Batch wave (quiet: lifecycle is re-emitted per feature below).
    wave_failures = FailureReport()
    completed_batches: "list[tuple[FeatureBatch, list]]" = []
    leftover = [pending[pos] for pos in passthrough]
    if batches:
        # Failed batches are skipped here and decomposed below, whatever the
        # caller's policy: their members then fail (or retry) per feature.
        base = execution.policy
        wave_policy = replace(
            base,
            on_exhaustion="skip",
            task_timeout=(
                None
                if base.task_timeout is None
                # A batch is up to max-batch features of work; scale the
                # per-feature budget so grouping cannot induce timeouts.
                else base.task_timeout * max(len(b.tasks) for b in batches)
            ),
        )
        wave_values = run_tasks(
            run_feature_batch,
            batches,
            shared=shared,
            config=replace(execution, retry=wave_policy),
            checkpoint=None if checkpoint is None else _FanoutJournal(checkpoint, batches),
            task_key=batch_task_key,
            failures=wave_failures,
            quiet=True,
        )
        failed_batches = set(wave_failures.indices())
        for b, (batch, values) in enumerate(zip(batches, wave_values)):
            if b in failed_batches or values is None:
                leftover.extend(pending[pos] for pos in batch.indices)
                continue
            completed_batches.append((batch, values))
            for pos, value in zip(batch.indices, values):
                results[pending[pos]] = value

    # 3. Re-emit the per-feature lifecycle for batch-completed features.
    if bus is not None and completed_batches:
        done = sorted(
            pending[pos] for batch, _ in completed_batches for pos in batch.indices
        )
        for i in done:
            bus.emit(FeatureTaskStarted(index=i, attempt=0, key=keys[i]))
            bus.emit(
                FeatureTaskFinished(
                    index=i, status="ok", attempts=1, key=keys[i], duration_s=None
                )
            )

    # 4. Decomposed batch members + passthrough tasks run per feature.
    if leftover:
        leftover.sort()
        report = failures if failures is not None else FailureReport()
        values = run_tasks(
            run_feature_task,
            [tasks[i] for i in leftover],
            shared=shared,
            config=execution,
            task_key=feature_task_key,
            failures=report,
        )
        failed_keys = {f.key for f in report}
        for i, value in zip(leftover, values):
            results[i] = value
            if checkpoint is not None and keys[i] not in failed_keys:
                checkpoint.append(keys[i], value)
    return results


def gather_surprisals(
    models: list[FeatureModel],
    x_test_imputed: np.ndarray,
    x_test_targets: np.ndarray,
    out: np.ndarray,
) -> None:
    """Batched masked scoring, written into ``out`` in place.

    The per-model gather loop this replaces was the optimization ledger's
    #1 measured finding: seventeen-odd numpy dispatches per feature model
    (mask, row copy, ``predict`` validation, scalar surprisal) on arrays
    small enough that dispatch dominated. The batched path (ROADMAP Open
    item 1, scoring half) groups models by (observed-mask bytes, error-
    model type) and amortizes everything the group shares — the mask, the
    truth gather, the surprisal math (one
    :meth:`~repro.errormodels.base.ErrorModel.batch_surprisal` call), the
    entropy subtraction, and the masked scatter — while keeping the
    result bitwise equal to the scalar loop (its verbatim copy in
    tests/core/test_batched_scoring.py is the oracle):

    - gathers and scatters are pure copies;
    - linear predictions stay one gemv *per model* — stacking coefficient
      vectors into one GEMM is **not** columnwise bit-identical to the
      per-model gemv (measured; docs/performance.md) — but skip
      ``predict``'s re-validation scan, which is a bitwise no-op;
    - batched surprisal broadcasts per-model rows through the same
      elementwise ops the scalar path runs, with per-model scalar
      ``np.log`` replay where SIMD would move a bit;
    - subtracting a per-model entropy row is elementwise identical to
      subtracting each scalar.
    """
    groups: "dict[tuple[bytes, type], list[int]]" = {}
    masks: "dict[tuple[bytes, type], np.ndarray]" = {}
    for t, fm in enumerate(models):
        observed = ~np.isnan(x_test_targets[:, fm.feature_id])
        key = (observed.tobytes(), type(fm.error_model))
        groups.setdefault(key, []).append(t)
        masks.setdefault(key, observed)
    for key, cols in groups.items():
        mask = masks[key]
        if not mask.any():
            continue
        rows = np.flatnonzero(mask)
        full = len(rows) == mask.shape[0]
        x_obs = x_test_imputed if full else x_test_imputed[rows]  # fraclint: disable=FRL016 -- one row gather per mask group (not per model): this IS the batched gather
        feat = np.fromiter(
            (models[t].feature_id for t in cols), dtype=np.intp, count=len(cols)
        )
        truths = x_test_targets[:, feat] if full else x_test_targets[np.ix_(rows, feat)]  # fraclint: disable=FRL016 -- one truth-matrix gather per mask group, amortized over its members
        preds = np.empty((len(rows), len(cols)))
        for j, t in enumerate(cols):
            fm = models[t]
            # ascontiguousarray: the reference loop gathered with np.ix_
            # (C-contiguous); a bare column gather is F-contiguous and
            # gemv's transpose dispatch there is not bit-identical.
            x_member = np.ascontiguousarray(x_obs[:, fm.input_ids])
            predictor = fm.predictor
            if type(predictor) is RidgeRegressor:
                # The gemv predict() runs, minus its isfinite re-scan of
                # rows already validated at fit/impute time.
                preds[:, j] = x_member @ predictor.coef_ + predictor.intercept_
            else:
                preds[:, j] = predictor.predict(x_member)
        error_type = key[1]
        surprisal = error_type.batch_surprisal(
            [models[t].error_model for t in cols], preds, truths
        )
        entropy = np.array([models[t].entropy for t in cols])
        cols_arr = np.asarray(cols, dtype=np.intp)
        if full:
            out[:, cols_arr] = surprisal - entropy
        else:
            out[np.ix_(rows, cols_arr)] = surprisal - entropy


def score_contributions(
    models: list[FeatureModel],
    x_test_imputed: np.ndarray,
    x_test_targets: np.ndarray,
) -> np.ndarray:
    """NS contribution matrix ``(n_test, n_models)`` for fitted models.

    Missing test targets contribute exactly zero (the NS definition's
    "otherwise" branch). The batched gather runs under a ``score.batch``
    span (nested inside the caller's ``score.contributions``) so traces
    separate the hot scoring work from the preprocessing around it —
    and so the ledger re-prices it against the retired ``score.gather``
    loop (``repro trace diff`` matches the renamed populations through
    their shared qualname).
    """
    n = x_test_imputed.shape[0]
    out = np.zeros((n, len(models)))
    with span("score.batch", attrs={"n_models": len(models), "n_samples": int(n)}):
        gather_surprisals(models, x_test_imputed, x_test_targets, out)
    return out
