"""Outside-in layer trace: timing wrappers around each layer's entry points.

A :class:`Tracer` installs a wrapper on the binding each caller actually
looks up — module attributes such as ``repro.core.frac.run_feature_tasks``
for functions, the class attribute for methods — and puts the original
objects back when its ``installed()`` block exits. Nothing in ``src/`` is
edited and no engine flag is touched. Ridge is wrapped where one Gram is
factored, not per target column.

Each span records its name, layer, start, end, parent span and op id;
spans stay in memory until the run writes them out. A layer's self time
is its spans' durations minus the part their child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

_MISSING = object()


def _fit(counts, args, kwargs, detector):
    counts["fit.features_skipped"] += detector.n_skipped_ + detector.n_failed_
    counts["fit.features"] += len(detector.models_) + detector.n_skipped_


def _plan(counts, args, kwargs, result):
    batches, passthrough = result
    counts["plan.batches"] += len(batches)
    counts["plan.masked_batches"] += sum(bool(b.masked) for b in batches)
    counts["plan.passthrough_tasks"] += len(passthrough)
    counts["plan.batched_features"] += sum(len(b.tasks) for b in batches)


def _items(counts, args, kwargs, result):
    counts["parallel.items"] += len(result)


def _factorization(counts, args, kwargs, result):
    counts["ridge.factorizations"] += 1


def _tree_fit(counts, args, kwargs, tree):
    counts["tree.fits"] += 1
    counts["tree.nodes"] += tree.n_nodes


def _cells(counts, args, kwargs, result):
    counts["score.cells"] += result.size


#: (module, Class.attr or function, layer, count hook). A method is also
#: wrapped on every subclass that overrides it; an abstract one only there.
ENTRY_POINTS = (
    ("repro.core.frac", "FRaC.fit", "fit", _fit),
    ("repro.core.imputation", "Preprocessor.fit", "imputation", None),
    ("repro.core.imputation", "Preprocessor.transform", "imputation", None),
    ("repro.core.imputation", "Preprocessor.transform_keep_missing", "imputation", None),
    ("repro.core.frac", "run_feature_tasks", "train", None),
    ("repro.core.engine", "plan_feature_batches", "plan", _plan),
    ("repro.core.engine", "run_feature_batch", "batch", None),
    ("repro.core.engine", "run_feature_task", "task", None),
    ("repro.core.engine", "run_tasks", "parallel", _items),
    ("repro.learners.batched", "BatchedRidge.solver", "ridge", _factorization),
    ("repro.learners.batched", "BatchedRidge.masked_solver", "ridge", None),
    ("repro.learners.batched", "MaskedSolver.member", "ridge", _factorization),
    ("repro.learners.ridge", "RidgeRegressor.fit", "ridge", _factorization),
    ("repro.learners.decision_tree", "DecisionTreeClassifier.fit", "tree", _tree_fit),
    ("repro.learners.decision_tree", "DecisionTreeRegressor.fit", "tree", _tree_fit),
    ("repro.learners.decision_tree", "DecisionTreeClassifier.predict", "tree", None),
    ("repro.learners.decision_tree", "DecisionTreeRegressor.predict", "tree", None),
    ("repro.errormodels.gaussian", "GaussianErrorModel.fit", "errormodels", None),
    ("repro.errormodels.gaussian", "GaussianErrorModel.batch_fit", "errormodels", None),
    ("repro.errormodels.gaussian", "GaussianErrorModel.batch_mean_surprisal", "errormodels", None),
    ("repro.errormodels.gaussian", "GaussianErrorModel.surprisal", "errormodels", None),
    ("repro.errormodels.gaussian", "GaussianErrorModel.batch_surprisal", "errormodels", None),
    ("repro.errormodels.confusion", "ConfusionErrorModel.fit", "errormodels", None),
    ("repro.errormodels.confusion", "ConfusionErrorModel.surprisal", "errormodels", None),
    ("repro.errormodels.confusion", "ConfusionErrorModel.batch_surprisal", "errormodels", None),
    ("repro.errormodels.kde", "GaussianKDE.entropy", "errormodels", None),
    ("repro.core.engine", "batch_entropy", "errormodels", None),
    ("repro.core.frac", "score_contributions", "score", _cells),
)

#: Layers with busy and self time, in call-tree order.
LAYERS = (
    "fit", "imputation", "train", "plan", "batch", "task",
    "parallel", "ridge", "tree", "errormodels", "score",
)

#: Per-layer metrics besides ``<layer>.busy_s`` / ``<layer>.self_s``.
EXTRA_METRICS = {
    "fit.calls": "count",
    "fit.features_skipped": "count",
    "imputation.calls": "count",
    "plan.batches": "count",
    "plan.masked_batches": "count",
    "plan.passthrough_tasks": "count",
    "plan.features_per_batch": "features/batch",
    "batch.calls": "count",
    "task.calls": "count",
    "parallel.calls": "count",
    "parallel.items": "count",
    "ridge.factorizations": "count",
    "ridge.factorizations_per_feature": "1/feature",
    "tree.fits": "count",
    "tree.nodes": "count",
    "tree.predict_s": "s",
    "errormodels.fit_s": "s",
    "errormodels.score_s": "s",
    "errormodels.calls": "count",
    "score.calls": "count",
    "score.cells": "count",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric and its unit, in report order. The last
    three are measured by the runner around the traced passes."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.busy_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units.update(EXTRA_METRICS)
    units.update({"data.load_s": "s", "process.cpu_s": "s", "trace.overhead_frac": "frac"})
    return units


def targets() -> "list[tuple[object, str, str, object]]":
    """``(owner, attr, layer, hook)`` for every binding the tracer patches."""
    out = []
    for module, path, layer, hook in ENTRY_POINTS:
        mod = importlib.import_module(module)
        if "." not in path:
            out.append((mod, path, layer, hook))
            continue
        cls_name, attr = path.split(".")
        cls = getattr(mod, cls_name)
        todo, seen = [cls], set()
        while todo:
            c = todo.pop()
            if c in seen:
                continue
            seen.add(c)
            todo.extend(c.__subclasses__())
            own = vars(c).get(attr, _MISSING)
            inherited_target = c is cls and own is _MISSING
            if inherited_target or (own is not _MISSING and not getattr(own, "__isabstractmethod__", False)):
                out.append((c, attr, layer, hook))
    return out


class Tracer:
    """Spans and counts for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, layer, start, end, parent, op, outer, under_score]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------
    def _enter(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        self.spans.append(
            [name, layer, perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
             self._op, self._active[layer] == 0, self._active["score"] > 0]
        )
        self._stack.append(idx)
        self._active[layer] += 1
        return idx

    def _exit(self, idx: int) -> None:
        span = self.spans[idx]
        span[3] = perf_counter()
        self._stack.pop()
        self._active[span[1]] -= 1

    @contextmanager
    def span(self, name: str, layer: str):
        idx = self._enter(name, layer)
        try:
            yield
        finally:
            self._exit(idx)

    def op(self):
        """Root span of one op; every span inside shares its op id."""
        self._op += 1
        return self.span("op", "op")

    # -- patching -------------------------------------------------------------
    def _wrap(self, fn, name: str, layer: str, hook):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every entry point; restore the original objects on exit."""
        try:
            for owner, attr, layer, hook in targets():
                own = vars(owner).get(attr, _MISSING)
                current = inspect.getattr_static(owner, attr)
                name = f"{getattr(owner, '__name__', owner)}.{attr}"
                if isinstance(current, (classmethod, staticmethod)):
                    new = type(current)(self._wrap(current.__func__, name, layer, hook))
                else:
                    new = self._wrap(current, name, layer, hook)
                self._patches.append((owner, attr, own))
                setattr(owner, attr, new)
            yield self
        finally:
            while self._patches:
                owner, attr, own = self._patches.pop()
                if own is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, own)

    # -- aggregation ----------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Busy/self time per layer plus the counts in :data:`EXTRA_METRICS`."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        busy, self_s, calls = Counter(), Counter(), Counter()
        predict_s = em_fit = em_score = 0.0
        for i, (name, layer, start, end, _parent, _op, outer, under_score) in enumerate(spans):
            dur = end - start
            self_s[layer] += dur - child[i]
            if not outer:
                continue
            busy[layer] += dur
            calls[layer] += 1
            if layer == "tree" and name.endswith(".predict"):
                predict_s += dur
            elif layer == "errormodels":
                if under_score:
                    em_score += dur
                else:
                    em_fit += dur
        c = self.counts
        m = {}
        for layer in LAYERS:
            m[f"{layer}.busy_s"] = busy[layer]
            m[f"{layer}.self_s"] = self_s[layer]
        m.update(
            {
                "fit.calls": calls["fit"],
                "fit.features_skipped": c["fit.features_skipped"],
                "imputation.calls": calls["imputation"],
                "plan.batches": c["plan.batches"],
                "plan.masked_batches": c["plan.masked_batches"],
                "plan.passthrough_tasks": c["plan.passthrough_tasks"],
                "plan.features_per_batch": c["plan.batched_features"] / max(c["plan.batches"], 1),
                "batch.calls": calls["batch"],
                "task.calls": calls["task"],
                "parallel.calls": calls["parallel"],
                "parallel.items": c["parallel.items"],
                "ridge.factorizations": c["ridge.factorizations"],
                "ridge.factorizations_per_feature": c["ridge.factorizations"] / max(c["fit.features"], 1),
                "tree.fits": c["tree.fits"],
                "tree.nodes": c["tree.nodes"],
                "tree.predict_s": predict_s,
                "errormodels.fit_s": em_fit,
                "errormodels.score_s": em_score,
                "errormodels.calls": calls["errormodels"],
                "score.calls": calls["score"],
                "score.cells": c["score.cells"],
            }
        )
        return m
