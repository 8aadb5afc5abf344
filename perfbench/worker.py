"""One workload run in its own process: set-up, warm-up, timed loop.

``run.py`` starts this script once per set-up it measures.  The script
prints ``READY`` when set-up (corpus, artifacts and a warm-up pass over
a small corpus) is done; with ``--setup-only`` it then exits, otherwise
it measures for ``--seconds`` and prints ``RESULT <json>``.  The BLAS
thread count is fixed before numpy is first imported.

With ``--trace 1`` the timed window is split: the first half runs
untraced, the second half with every caseline layer wrapped, which
gives the per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")
BLAS_THREADS = "1"


def fix_blas_threads() -> None:
    """One BLAS thread: with two, the first evaluate after training
    ran eight times slower than the steady state."""
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def run_facts() -> dict:
    """Facts about the machine and build that every result carries."""
    import platform

    import numpy as np

    from caseline import kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "kernels_backend": kernels.BACKEND,
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version()}


def timed_loop(run, iterate, seconds: float) -> list[tuple[dict, dict]]:
    """Iterations within ``seconds``: another one starts only if, taking
    as long as the last, it would end inside the window.  At least one
    runs.  A failed stage ends the loop; ``run.ops`` has counted it."""
    from workloads import StageFailed

    results = []
    start = perf_counter()
    while True:
        began = perf_counter()
        run.iteration += 1
        try:
            results.append(iterate(run))
        except StageFailed:
            return results
        now = perf_counter()
        if now - start + (now - began) > seconds:
            return results


def wall(results) -> float:
    """Median over iterations of the summed timed stages."""
    return statistics.median(sum(t.values()) for t, _ in results)


def end_to_end(spec: dict, results: list) -> dict:
    """Every end-to-end metric the iterations exercised, as
    ``{name: (value, unit)}``; stage times are medians over iterations,
    predict latencies are pooled over them."""
    times = [t for t, _ in results]
    extra = [e for _, e in results]
    out = {"wall_s": (wall(results), "s")}
    if "train-encoder" in times[0]:
        docs = spec["splits"]["train"] * spec["overrides"]["encoder.epochs"]
        out["encoder_docs_per_s"] = (statistics.median(
            docs / t["train-encoder"] for t in times), "docs/s")
    if "embed" in times[0]:
        out["embed_docs_per_s"] = (statistics.median(
            spec["corpus"]["n"] / t["embed"] for t in times), "docs/s")
    for stage in ("train", "evaluate"):
        if stage in times[0]:
            out[f"{stage}_s"] = (statistics.median(
                t[stage] for t in times), "s")
    if "latencies" in extra[0]:
        latencies = [s for e in extra for s in e["latencies"]]
        out["predict_p50_ms"] = (1e3 * statistics.median(latencies), "ms")
        out["predict_p99_ms"] = (1e3 * percentile(latencies, 99), "ms")
        out["predict_calls"] = (len(latencies), "count")
    if "test_micro_f1" in extra[0]:
        out["test_micro_f1"] = (extra[-1]["test_micro_f1"], "1")
        out["test_micro_pr_auc"] = (extra[-1]["test_micro_pr_auc"], "1")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path, setup_only: bool = False,
                 spec: dict | None = None, on_ready=lambda: None) -> dict:
    """Set up, warm up and (unless ``setup_only``) measure one workload.

    ``spec`` defaults to the workload's record in workloads.json; tests
    pass a smaller one.
    """
    import workloads

    spec = spec or workloads.load_specs()[name]
    tracer = None
    if trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        return _run(name, spec, seed, seconds, tracer, workdir,
                    setup_only, on_ready)
    finally:
        if tracer is not None:
            tracer.uninstall()


def _run(name, spec, seed, seconds, tracer, workdir, setup_only,
         on_ready) -> dict:
    import workloads
    from checks import Ops

    iterate = workloads.ITERATIONS[name]
    ops = Ops()
    run = workloads.Run(name, spec, workdir / "run", seed,
                        spec["corpus"]["n"], spec["splits"], ops, tracer)
    workloads.prepare(run)
    warm = spec["warmup"]
    warm_run = workloads.Run(name, spec, workdir / "warmup", seed,
                             warm["n"], warm["splits"], Ops())
    with run.quiet():
        try:
            workloads.prepare(warm_run)
            iterate(warm_run)
        except workloads.StageFailed:
            pass  # the timed iterations fail the same way and count it
    on_ready()
    if setup_only:
        return {}

    result = {"facts": run_facts()}
    if tracer is None:
        results = timed_loop(run, iterate, seconds)
    else:
        from layertrace import combine, layer_metrics
        setup_stats = tracer.snapshot()
        tracer.uninstall()
        tracer.reset()
        results = timed_loop(run, iterate, seconds / 2)
        traced = []
        if results:
            tracer.install()
            traced = timed_loop(run, iterate, seconds / 2)
            tracer.uninstall()
        if traced:
            combined = combine(setup_stats, tracer.snapshot(), len(traced))
            result["spans"] = combined["spans"]
            result["layers"] = layer_metrics(
                combined, wall(traced) / wall(results) - 1.0)
    metrics = end_to_end(spec, results) if results else {}
    metrics["peak_rss_mb"] = (resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics["ops_failed_share"] = (ops.failed / max(ops.attempted, 1), "1")
    result.update({
        "attempted": ops.attempted, "failed": ops.failed,
        "errors": ops.errors,
        "iteration_walls": [sum(t.values()) for t, _ in results],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}})
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    fix_blas_threads()
    workdir = Path(args.workdir)
    try:
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            workdir, setup_only=args.setup_only,
            on_ready=lambda: print("READY", flush=True))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.setup_only:
        print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
