"""FRaC benchmark: one workload, one seed, end-to-end or traced metrics.

    python3 fracbench/run.py --workload expr-full --seed 0 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (spans are written to ``fracbench/out/``). Every run
checks every op against reference outputs (see ``reference.py``). The
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1 when
an op failed its check and 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Setups before the timed phase; ``setup_s`` is the median of these and
#: of the ``SETUPS_PER_PASS`` more made after each pass, which spread the
#: samples over the run's changing host speed. A stream set-up fits seven
#: detectors (~2 s), so the stream makes none between passes. A set-up
#: between passes is dropped at once, but while it is made the timed
#: inputs are held too (at most ~7 MB more).
SETUP_REPEATS = {"training": 5, "stream": 3}
SETUPS_PER_PASS = {"training": 2, "stream": 0}

#: Fewest untraced passes of a ``--trace 0`` run, so every op is timed
#: more than once and its fastest pass can be taken.
MIN_PASSES = 2

#: Back-to-back ``score`` calls per training op in ``--trace 0`` runs;
#: the op's score time is the fastest. A call is 2-12% of its op, so
#: repeats steady ``score_ms_*`` without crowding out the fits.
SCORE_REPEATS = 3

#: End-to-end metrics and their units (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "features_per_s": "1/s",
    "samples_per_s": "1/s",
    "score_ms_p50": "ms",
    "score_ms_p95": "ms",
    "auc_mean": "auc",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def _import_program():
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import numpy  # noqa: F401  (fail before any output if the toolchain is missing)
    import repro  # noqa: F401

    import blas
    import reference
    import tracing
    import workloads

    blas.set_threads(1)
    return reference, tracing, workloads


# -- environment fingerprint ---------------------------------------------------


def _git_sha() -> "str | None":
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint(workload: str, seed: int) -> dict:
    import blas
    import numpy as np

    build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{build.get('name')} {build.get('version')}",
        "blas_threads": blas.threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": _git_sha(),
    }


# -- one run -------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, geometry=None) -> dict:
    """Set up, warm up, measure for ``seconds``, check, and summarise."""
    reference, tracing, wl = _import_program()
    import numpy as np
    from repro.eval.auc import auc_score

    geometry = geometry or wl.BENCH
    work = wl.WORKLOADS[name]
    settings = wl.settings_for(geometry)

    # Set-up: data generation (and, for the stream, the cohort fits).
    kind = "stream" if work.stream else "training"
    load_s, setup_s = [], []

    def set_up():
        t0 = perf_counter()
        inputs = wl.load_inputs(work, seed, geometry)
        load_s.append(perf_counter() - t0)
        detectors = wl.fit_stream_detectors(inputs, seed, settings) if work.stream else None
        setup_s.append(perf_counter() - t0)
        return inputs, detectors

    for _ in range(SETUP_REPEATS[kind]):
        # Drop the previous set-up first, so ``peak_rss_mb`` counts one.
        inputs = detectors = None
        inputs, detectors = set_up()

    # Warm-up on inputs from another seed purpose: imports, BLAS start-up
    # and first-call costs are paid here, fold layouts of timed fits are not.
    if work.stream:
        tests = {ds: reps[0].x_test for ds, reps in inputs.items()}
        rows = {ds: len(x) for ds, x in tests.items()}
        calls = wl.call_sequence(seed, rows, geometry.call_repeats)
        # One warm-up call per (data set, call size) pair.
        wl.stream_pass(detectors, tests, wl.call_sequence(seed, rows, 1, wl.WARMUP))

        def one_pass(tracer=None):
            return wl.stream_pass(detectors, tests, calls, tracer)
    else:
        ops = wl.training_ops(inputs, seed)
        warm = wl.training_ops(wl.load_inputs(work, seed, geometry, wl.WARMUP), seed, wl.WARMUP)
        wl.training_pass([op for op in warm if op.index == 0], work.method, settings)
        del warm  # not part of the program's memory in the timed phase

        def one_pass(tracer=None):
            # Traced runs score once per op, so layer shares are those of
            # one fit+score.
            return wl.training_pass(ops, work.method, settings, tracer, 1 if trace else SCORE_REPEATS)

    # Timed phase: whole passes while the next one, as long as the last,
    # still ends within ``seconds``. Traced runs alternate untraced and
    # traced passes so the overhead is measured.
    plain, traced = [], []
    # Successive passes run on successive CPUs the process may use (the
    # program stays on one thread). On the 2-vCPU host this was tuned on,
    # each vCPU in turn ran ~1.45x slower for seconds to minutes, mostly
    # not both at once (per-CPU slow time 20-28%, both slow 5-10%), so an
    # op timed on every CPU gets a fast pass more often.
    cpus = sorted(os.sched_getaffinity(0))
    start = now = perf_counter()
    cycle_s = 0.0
    try:
        while len(plain) < (1 if trace else MIN_PASSES) or now - start + cycle_s <= seconds:
            os.sched_setaffinity(0, {cpus[len(plain) % len(cpus)]})
            plain.append(one_pass())
            if trace:
                tracer = tracing.Tracer()
                with tracer.installed():
                    traced.append((one_pass(tracer), tracer))
            for _ in range(SETUPS_PER_PASS[kind]):
                set_up()  # timed, then dropped
            cycle_s, now = perf_counter() - now, perf_counter()
    finally:
        os.sched_setaffinity(0, cpus)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Correctness: every op of every pass.
    ref, ref_source = reference.load(work, seed, geometry)
    problems: list[str] = []
    attempted = 0
    first: dict = {}
    for p in plain + [p for p, _ in traced]:
        for out in p.outputs:
            attempted += 1
            if work.stream:
                ds, k = out.key
                why = reference.op_problem(out, {"ns": ref[ds]["ns"][calls[k][1]]})
            else:
                key = f"{out.key[0]}/{out.key[1]}"
                why = reference.op_problem(out, ref.get(key), first.get(key), out.labels)
                first.setdefault(key, out.ns)
            if why:
                problems.append(f"{out.key}: {why}")
    aucs = []
    if work.stream:
        # One whole-split score per data set: checked, and gives the AUC.
        for ds, det in detectors.items():
            attempted += 1
            rep = inputs[ds][0]
            out = wl.score_op(det, rep.x_test, (ds, "split"))
            why = reference.op_problem(out, ref[ds], labels=rep.y_test)
            if why:
                problems.append(f"{out.key}: {why}")
            else:
                aucs.append(auc_score(rep.y_test, out.ns))
    else:
        aucs = [auc_score(o.labels, o.ns) for o in plain[0].outputs if o.ns is not None and np.isfinite(o.ns).all()]
    failed = len(problems)

    metrics: dict[str, float] = {}
    if not trace:
        # Each op's time is its fastest over the passes. Host contention
        # only ever adds time, so a burst during one pass does not move
        # the run's figures.
        def per_op(attr):
            return [min(getattr(p.outputs[k], attr) for p in plain) for k in range(len(plain[0].outputs))]

        busy = sum(per_op("wall_s"))
        latencies = per_op("score_s")
        metrics = {
            "setup_s": statistics.median(setup_s),
            "features_per_s": sum(o.models for o in plain[0].outputs) / busy,
            "samples_per_s": sum(o.rows for o in plain[0].outputs) / busy,
            "score_ms_p50": float(np.percentile(latencies, 50)) * 1e3,
            "score_ms_p95": float(np.percentile(latencies, 95)) * 1e3,
            "auc_mean": float(np.mean(aucs)) if aucs else 0.0,
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END
    else:
        per_pass = [t.layer_metrics() for _, t in traced]
        for m in per_pass[1:]:
            moved = [k for k, u in tracing.EXTRA_METRICS.items() if u != "s" and m[k] != per_pass[0][k]]
            if moved:
                problems.append(f"per-layer counts differ between traced passes: {moved}")
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        metrics["data.load_s"] = statistics.median(load_s)
        metrics["process.cpu_s"] = statistics.median(p.cpu_s for p in plain)
        metrics["trace.overhead_frac"] = (
            statistics.median(p.wall_s for p, _ in traced) / statistics.median(p.wall_s for p in plain) - 1.0
        )
        units = tracing.per_layer_units()
    env = fingerprint(name, seed)
    if trace:
        _write_spans(name, seed, traced, env)

    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
        # Context for the human-readable lines; not part of the JSON result.
        "env": env,
        "reference": ref_source,
        "passes": len(plain),
        "traced_passes": len(traced),
        "ops_per_pass": len(plain[0].outputs),
        "problems": problems,
    }


def _write_spans(name: str, seed: int, traced, env: dict) -> Path:
    """Write every traced pass's spans, one JSON object per line, after a
    header line with the environment fingerprint."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{name}-seed{seed}.jsonl"
    with path.open("w") as fh:
        fh.write(json.dumps({"env": env}) + "\n")
        for n, (_, tracer) in enumerate(traced):
            for name_, layer, start, end, parent, op, _outer, _in_score in tracer.spans:
                fh.write(json.dumps({"pass": n, "op": op, "name": name_, "layer": layer,
                                     "start": start, "end": end, "parent": parent}) + "\n")
    return path


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        _, _, wl = _import_program()
    except ImportError as exc:
        print(f"fracbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"fracbench: unknown workload {args.workload!r}; have {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2

    r = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"# env {json.dumps(r['env'], sort_keys=True)}")
    print(f"# reference: {r['reference']}")
    print(f"# passes: {r['passes']} untraced, {r['traced_passes']} traced; {r['ops_per_pass']} ops per pass")
    for msg in r["problems"][:20]:
        print(f"# FAILED {msg}")
    for k, m in r["metrics"].items():
        note = f"  (n={r['ops_per_pass']} calls, each the fastest of {r['passes']})" if k.startswith("score_ms") else ""
        print(f"{k:34s} {m['value']:>16.6g} {m['unit']}{note}")
    print(f"{'failed_frac':34s} {r['failed'] / r['attempted']:>16.6g} frac  ({r['failed']}/{r['attempted']} ops)")
    print(json.dumps({k: r[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if r["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
