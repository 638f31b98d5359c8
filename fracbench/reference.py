"""Reference outputs and the per-op correctness check.

References come from the per-feature oracle path
(``FRaCConfig(batched_training=False)``). For the committed seeds they
are read from ``references/`` and cover every op. For any other seed the
benchmark computes them after its timed phase for replicate 0 of every
data set (the oracle costs up to twice the shipped path, so a full
oracle pass per run would crowd out measurement); the other ops of such
a seed are checked for finite NS and bitwise repeatability across
passes. Regenerate the committed files with::

    PYTHONPATH=src python3 fracbench/reference.py

which asserts, per seed and workload, that the oracle is bitwise equal
to the shipped (default) path before writing anything.

An op fails the check if its NS vector has the wrong shape, a non-finite
entry, or an entry further than ``RTOL`` times the op's NS scale
(``max(1, max|reference NS|)``) from the reference; a training op also
fails if its AUC differs from the reference AUC at ``AUC_DP`` decimals.
``RTOL`` passes closed-form algebra that moves predictions by ~3e-15
relative and sits far below any change that reorders NS and so moves AUC.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

import blas
from repro.eval.auc import auc_score
from workloads import (
    BENCH,
    WORKLOADS,
    Geometry,
    Workload,
    fit_stream_detectors,
    load_inputs,
    settings_for,
    training_ops,
    training_pass,
)

RTOL = 1e-9
AUC_DP = 4
REF_DIR = Path(__file__).resolve().parent / "references"
#: The default seed, and one held out so a claim can be re-checked on a
#: seed it was not tuned on.
COMMITTED_SEEDS = (0, 2017)


def compute(
    workload: Workload, seed: int, geometry: Geometry, *, oracle: bool, first_only: bool = False
) -> dict:
    """``{entry: {"auc": float, "ns": ndarray}}`` for the ops of a pass.

    Training workloads get one entry per (data set, replicate) — with
    ``first_only``, replicate 0 alone; the stream gets one per data set,
    holding per-row NS for its whole test split of replicate 0.
    """
    settings = settings_for(geometry, oracle=oracle)
    inputs = load_inputs(workload, seed, geometry)
    entries = {}
    if workload.stream:
        for ds, det in fit_stream_detectors(inputs, seed, settings).items():
            rep = inputs[ds][0]
            ns = np.asarray(det.score(rep.x_test), dtype=np.float64)
            entries[ds] = {"auc": auc_score(rep.y_test, ns), "ns": ns}
        return entries
    ops = [op for op in training_ops(inputs, seed) if op.index == 0 or not first_only]
    for op, out in zip(ops, training_pass(ops, workload.method, settings).outputs):
        if out.ns is None:
            raise RuntimeError(f"reference op {out.key} failed: {out.error}")
        entries[f"{op.dataset}/{op.index}"] = {"auc": auc_score(op.rep.y_test, out.ns), "ns": out.ns}
    return entries


def _path(workload: Workload, seed: int) -> Path:
    return REF_DIR / f"{workload.name}.seed{seed}.json"


def load(workload: Workload, seed: int, geometry: Geometry) -> "tuple[dict, str]":
    """The reference for a run, and where it came from."""
    path = _path(workload, seed)
    if geometry == BENCH and path.exists():
        doc = json.loads(path.read_text())
        if doc["scale"] == geometry.scale and doc["replicates"] == geometry.replicates:
            entries = {
                k: {"auc": v["auc"], "ns": np.asarray(v["ns"], dtype=np.float64)}
                for k, v in doc["entries"].items()
            }
            return entries, f"committed {path.relative_to(REF_DIR.parent)}"
    entries = compute(workload, seed, geometry, oracle=True, first_only=True)
    return entries, "oracle (per-feature path, replicate 0 of each data set, computed in this run)"


def ns_ok(ns: "np.ndarray | None", ref: np.ndarray) -> bool:
    if ns is None or ns.shape != ref.shape or not np.isfinite(ns).all():
        return False
    scale = max(1.0, float(np.abs(ref).max(initial=0.0)))
    return bool(np.all(np.abs(ns - ref) <= RTOL * scale))


def auc_ok(auc: float, ref_auc: float) -> bool:
    return round(auc, AUC_DP) == round(ref_auc, AUC_DP)


def op_problem(out, entry: "dict | None", earlier: "np.ndarray | None" = None, labels=None) -> str:
    """Why one op failed its check, or ``""`` if it passed.

    ``entry`` is the op's reference (its NS rows already selected), or
    None when the run has no reference for it; then ``earlier``, the same
    op's NS from the first pass, must repeat bitwise. ``labels`` enables
    the AUC comparison.
    """
    if out.error:
        return out.error
    if out.ns is None or not np.isfinite(out.ns).all():
        return "non-finite NS"
    if entry is not None:
        if not ns_ok(out.ns, entry["ns"]):
            return "NS differs from the reference"
        if labels is not None and not auc_ok(auc_score(labels, out.ns), entry["auc"]):
            return "AUC differs from the reference"
    elif earlier is not None and not np.array_equal(out.ns, earlier):
        return "NS differs between passes"
    return ""


def write(workload: Workload, seed: int, geometry: Geometry = BENCH) -> Path:
    """Compute oracle and shipped outputs, require them bitwise equal,
    and commit the oracle's."""
    oracle = compute(workload, seed, geometry, oracle=True)
    shipped = compute(workload, seed, geometry, oracle=False)
    for k, ref in oracle.items():
        if not np.array_equal(ref["ns"], shipped[k]["ns"]):
            raise AssertionError(f"{workload.name} seed {seed} {k}: oracle and shipped NS differ")
    doc = {
        "workload": workload.name,
        "seed": seed,
        "scale": geometry.scale,
        "replicates": geometry.replicates,
        "rtol": RTOL,
        "auc_dp": AUC_DP,
        "entries": {
            # 13 significant digits: far finer than RTOL, and half the bytes.
            k: {"auc": v["auc"], "ns": [float(f"{x:.13g}") for x in v["ns"]]}
            for k, v in oracle.items()
        },
    }
    path = _path(workload, seed)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    return path


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description="Regenerate the committed reference outputs.")
    ap.add_argument("--seed", type=int, action="append", help="default: the committed seeds")
    args = ap.parse_args(argv)
    blas.set_threads(1)  # as in the benchmark runs
    for seed in args.seed or COMMITTED_SEEDS:
        for work in WORKLOADS.values():
            print(write(work, seed), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
