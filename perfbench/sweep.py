"""``sweep_n3``: the headline user action, ``python -m repro sweep --n 3``.

One repeat runs the CLI against a fresh SQLite store file (cold: the
whole compute stack plus store writes), then again on the same file
(warm: store reads, planning and start-up).  Repeats run back to back
until the run's time is spent.  Every run's rows must equal those of
``sweep --n 3 --backend reference --json``, computed once at set-up.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

from common import BenchError, child_env, launch_wall, run_cli

N = 3

#: ``setup_s`` launches one fresh interpreter before every
#: ``SETUP_EVERY``-th repeat, so its samples span the whole run instead
#: of one burst at its start.
SETUP_EVERY = 4


def sweep_rows(stdout: str) -> list:
    return json.loads(stdout)["rows"]


def measure(seconds: float, workdir: str, oracle: list, tracer,
            before_repeat=lambda repeat: None) -> dict:
    """Cold/warm CLI pairs for ``seconds``; returns walls and failures."""
    cold, warm, failed, wrong = [], [], 0, 0
    deadline = time.perf_counter() + seconds
    repeat = 0
    while repeat == 0 or time.perf_counter() < deadline:
        before_repeat(repeat)
        path = os.path.join(workdir, f"sweep-{repeat}.sqlite")
        env = child_env(REPRO_STORE="rw", REPRO_STORE_PATH=path)
        for label, walls in (("cold", cold), ("warm", warm)):
            with tracer.span(f"cli.sweep_{label}", "bench", f"repeat-{repeat}"):
                try:
                    wall, out = run_cli(["sweep", "--n", str(N), "--json"],
                                        env=env, timeout=120)
                except BenchError as exc:
                    print(f"sweep_n3: {exc}", file=sys.stderr)
                    failed += 1
                    continue
            walls.append(wall)
            if sweep_rows(out) != oracle:
                wrong += 1
        for suffix in ("", "-wal", "-shm"):
            if os.path.exists(path + suffix):
                os.remove(path + suffix)
        repeat += 1
    return {"cold": cold, "warm": warm, "failed": failed, "wrong": wrong}


def _wrap_store(store, tracer, tally: dict) -> None:
    """Put a span around each public ``save``/``flush``/``load`` call the
    engine makes on ``store`` (instance attributes shadow the methods)."""
    from repro.store import MISS

    save, flush, load = store.save, store.flush, store.load

    def traced_save(*args):
        with tracer.span("store.save", "store"):
            save(*args)

    def traced_flush():
        with tracer.span("store.flush", "store"):
            written = flush()
        tally["rows_written"] += written
        return written

    def traced_load(*args):
        with tracer.span("store.load", "store"):
            value = load(*args)
        tally["hits"] += value is not MISS
        return value

    store.save, store.flush, store.load = traced_save, traced_flush, traced_load


def layers(tracer, workdir: str, result: dict) -> dict:
    """In-process replay of one cold and one warm sweep, layer by layer.

    The cold batch writes a fresh store, the warm one (memo cleared, a
    new store handle on the same file) reads it back; then every class
    is replayed phase by phase (:mod:`replay`).  Returns per-layer
    metrics; the replay's rows must match the oracle's verdicts.
    """
    import repro.store
    from repro.analysis.sweeps import plan_sweep
    from repro.engine.batch import run_batch
    from repro.engine.cache import KERNEL_CACHE
    from repro.obs.metrics import METRICS
    from frontier import enumerate_classes, plan_rows
    from replay import COUNTS, replay_class
    from tracing import NullTracer

    out: dict = {}
    with tracer.span("graphs.iso_classes", "graphs"):
        classes = enumerate_classes(N)
    with tracer.span("analysis.plan", "analysis"):
        plan = plan_sweep(classes, N)
    out["analysis.split_classes"] = plan.splits
    path = os.path.join(workdir, "replay.sqlite")
    before = METRICS.snapshot()["stats"]["cache"]
    overhead = 0.0
    wrong = 0
    for phase in ("cold", "warm"):
        KERNEL_CACHE.clear()
        store = repro.store.configure(path=path, mode="rw")
        tally = {"rows_written": 0, "hits": 0}
        _wrap_store(store, tracer, tally)
        with tracer.span(f"engine.run_batch_{phase}", "engine") as span:
            batch = run_batch(list(plan.tasks), reductions=plan.reductions)
        if phase == "cold":
            jobs = sum(r.elapsed for r in batch.results)
            jobs += sum(r.elapsed for r in batch.reduction_results if r is not None)
            overhead = span["end"] - span["start"] - jobs
            out["store.rows_written"] = tally["rows_written"]
        else:
            out["store.hits"] = tally["hits"]
        # The CLI's --json renders every cell with repr().
        rows = [[repr(cell) for cell in row] for row in plan_rows(plan, batch)]
        wrong += rows != result["oracle"]
    repro.store.configure(mode="off")
    after = METRICS.snapshot()["stats"]["cache"]
    out["engine.cache.hits"] = after["hits"] - before["hits"]
    out["engine.cache.misses"] = after["misses"] - before["misses"]
    out["engine.kernel_calls"] = out["engine.cache.hits"] + out["engine.cache.misses"]
    out["engine.batch_overhead_s"] = overhead
    counts = dict.fromkeys(COUNTS, 0)
    walls = {}
    for mode, replay_tracer in (("traced", tracer), ("untraced", NullTracer())):
        start = time.perf_counter()
        for index, g in enumerate(classes):
            got = replay_class(replay_tracer, g, N, f"class-{index}")
            if mode == "traced":
                for name, value in got["counts"].items():
                    counts[name] += value
        walls[mode] = time.perf_counter() - start
    out.update(counts)
    out["obs.trace_overhead"] = walls["traced"] / walls["untraced"]
    return {"metrics": out, "wrong": wrong}


def run(seed: int, seconds: float, tracer, workdir: str) -> dict:
    """One run.  The workload is the fixed set of all 16 n=3 classes, so
    ``seed`` only labels the record."""
    _, out = run_cli(["sweep", "--n", str(N), "--backend", "reference", "--json"],
                     env=child_env(), timeout=170)
    oracle = sweep_rows(out)
    setups = []

    def probe_setup(repeat: int) -> None:
        if repeat % SETUP_EVERY == 0:
            setups.append(launch_wall([sys.executable, "-c", "import repro.__main__"],
                                      env=child_env()))

    got = measure(seconds, workdir, oracle, tracer, probe_setup)
    if not got["cold"] or not got["warm"]:
        raise BenchError("no sweep completed")
    walls = got["cold"] + got["warm"]
    cold, warm = statistics.median(got["cold"]), statistics.median(got["warm"])
    return {
        "attempted": len(walls) + got["failed"],
        "failed": got["failed"] + got["wrong"],
        "wrong": got["wrong"],
        "oracle": oracle,
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "cold_s": cold,
            "answers_per_h": 3600.0 * 2 / (cold + warm),
        },
        "reported": {
            "failed_ratio": ((got["failed"] + got["wrong"]) / (len(walls) + got["failed"]),
                             "ratio", len(walls) + got["failed"]),
            "sweep_cold_s": (cold, "s", len(got["cold"])),
            "sweep_warm_s": (warm, "s", len(got["warm"])),
        },
    }
