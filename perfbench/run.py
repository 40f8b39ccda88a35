"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep_n3 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same workload with the benchmark's spans on and reports the per-layer
metrics instead (and writes a Chrome trace under ``.perfbench_out/``).
Earlier stdout lines carry the run metadata and every workload-specific
metric by name, unit and sample count; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Any wrong answer
prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (  # noqa: E402
    OUT_DIR,
    REPRO_ENV,
    BenchError,
    ensure_program,
    peak_rss_mb,
    run_dir,
    run_metadata,
)
from tracing import LAYERS, NullTracer, Tracer  # noqa: E402

#: End-to-end metrics, name -> unit.  Every workload reports all four;
#: README.md gives each one's meaning per workload.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cold_s": "s",
    "answers_per_h": "1/h",
}

#: Per-layer metrics (traced runs).  A layer a workload does not drive
#: reads 0 there; README.md lists which workload carries which metric.
PER_LAYER = {
    "graphs.iso_classes_s": "s",
    "models.enumerate_s": "s",
    "models.graphs": "count",
    "bounds.report_s": "s",
    "verification.build_s": "s",
    "verification.reduce_s": "s",
    "verification.search_s": "s",
    "verification.csp_calls": "count",
    "verification.views": "count",
    "verification.rows_raw": "count",
    "verification.rows_dedup": "count",
    "verification.rows_kept": "count",
    "verification.deadline_in.build": "count",
    "verification.deadline_in.reduce": "count",
    "verification.deadline_in.search": "count",
    "analysis.plan_s": "s",
    "analysis.split_classes": "count",
    "engine.batch_overhead_s": "s",
    "engine.cache.hits": "count",
    "engine.cache.misses": "count",
    "engine.kernel_calls": "count",
    "store.save_s": "s",
    "store.flush_s": "s",
    "store.rows_written": "count",
    "store.load_s": "s",
    "store.hits": "count",
    "dist.dispatch_s": "s",
    "dist.leases": "count",
    "dist.requeues": "count",
    "serve.handle_s": "s",
    "serve.http_s": "s",
    "serve.polls_per_miss": "count",
    "obs.trace_overhead": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}

WORKLOADS = ("sweep_n3", "frontier_n4", "serve_mixed")


def span_metrics(tracer: Tracer) -> dict:
    """Per-layer times that follow directly from the recorded spans."""
    reduce_by_op: dict[str, float] = {}
    solve_by_op: dict[str, float] = {}
    for s in tracer.spans:
        if s["name"] == "verification.reduce":
            reduce_by_op[s["op"]] = s["end"] - s["start"]
        elif s["name"] == "verification.solve":
            solve_by_op[s["op"]] = s["end"] - s["start"]
    out = {
        "graphs.iso_classes_s": tracer.total("graphs.iso_classes"),
        "models.enumerate_s": tracer.total("models.enumerate"),
        "bounds.report_s": tracer.total("bounds.report"),
        "verification.build_s": tracer.total("verification.build"),
        "verification.reduce_s": sum(reduce_by_op.values()),
        "verification.search_s": sum(
            max(0.0, solve - reduce_by_op.get(op, 0.0))
            for op, solve in solve_by_op.items()
        ),
        "analysis.plan_s": tracer.total("analysis.plan"),
        "store.save_s": tracer.total("store.save"),
        "store.flush_s": tracer.total("store.flush"),
        "store.load_s": tracer.total("store.load"),
    }
    for layer, seconds in tracer.self_time_by_layer().items():
        if layer in LAYERS:
            out[f"{layer}.self_s"] = seconds
    return out


def run_workload(name: str, seed: int, seconds: float, traced: bool, workdir: str):
    tracer = Tracer() if traced else NullTracer()
    if name == "sweep_n3":
        import sweep as workload
    elif name == "frontier_n4":
        import frontier as workload
    else:
        import serve as workload
    result = workload.run(seed, seconds, tracer, workdir)
    layer, notes = {}, {}
    if traced:
        extra = workload.layers(tracer, workdir, result)
        result["wrong"] += extra.get("wrong", 0)
        result["failed"] += extra.get("wrong", 0)
        layer = {name: 0 for name in PER_LAYER}
        layer.update(span_metrics(tracer))
        layer.update(extra["metrics"])
        notes = {key: value for key, value in extra.items() if key not in ("metrics", "wrong")}
    return result, layer, tracer, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for name in REPRO_ENV:
        os.environ.pop(name, None)
    try:
        ensure_program()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workdir = run_dir(args.workload, args.seed)
    meta = run_metadata(args.workload, args.seed)
    print(json.dumps({"meta": meta}), flush=True)
    started = time.perf_counter()
    try:
        result, layer, tracer, notes = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    except BenchError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta["run_wall_s"] = time.perf_counter() - started
    e2e = dict(result["end_to_end"], peak_rss_mb=peak_rss_mb())
    reported = {
        name: {"value": value, "unit": unit, "samples": samples}
        for name, (value, unit, samples) in result["reported"].items()
    }
    print(json.dumps({"workload_metrics": reported}), flush=True)
    if args.trace:
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        tracer.write_chrome(trace_path, dict(meta, **notes))
        print(json.dumps({"trace": os.path.relpath(trace_path)}), flush=True)
        metrics = {name: {"value": layer[name], "unit": PER_LAYER[name]}
                   for name in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    correct = result["wrong"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
