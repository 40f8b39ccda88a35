"""Layer-by-layer replay of one class's answer, for the traced runs.

The product path (one sweep shard) calls models, bounds and the CSP
from inside cached kernels; here the same public functions are called
one at a time, cache and store off, each inside a span:

    models.enumerate   symmetric_closed_above([g]).iter_graphs(budget)
    bounds.report      bound_report(symmetric closure of g)
    per k = 1 .. n-1, until solvable:
      verification.build    SolvabilitySearch(model, k, values)
      verification.reduce   backends.bitset.reduce_executions(rows)
      verification.solve    SolvabilitySearch.solve()  (reduce + search)

``verification.search_s`` is solve minus reduce.  ``k = n`` is never
searched: every valid map solves it, as the sweep's sub-shards assume.
"""

from __future__ import annotations

import itertools
import time

from common import BenchError

#: The phase a timed-out class is charged to, by replay step.  Models
#: and bounds precede the CSP and count as ``build``.
PHASE_OF = {"models": "build", "bounds": "build", "build": "build",
            "reduce": "reduce", "search": "search"}

SPAN_OF_PHASE = {"models": ("models.enumerate", "models"),
                 "bounds": ("bounds.report", "bounds"),
                 "build": ("verification.build", "verification"),
                 "reduce": ("verification.reduce", "verification"),
                 "search": ("verification.solve", "verification")}

PROGRAM_SPANS = {name for name, _ in SPAN_OF_PHASE.values()}

#: Work counted by a replay, by per-layer metric name.
COUNTS = ("models.graphs", "verification.csp_calls", "verification.views",
          "verification.rows_raw", "verification.rows_dedup", "verification.rows_kept")


def program_time(spans: list[dict]) -> float:
    """What the replayed layers add up to on the product path's clock:
    every program span once, with each solve less the reduce it repeats."""
    reduce_by_op: dict[str, float] = {}
    total = 0.0
    for s in spans:
        duration = s["end"] - s["start"]
        if s["name"] == "verification.reduce":
            reduce_by_op[s["op"]] = duration
            total += duration
        elif s["name"] == "verification.solve":
            total += max(0.0, duration - reduce_by_op.get(s["op"], 0.0))
        elif s["name"] in PROGRAM_SPANS:
            total += duration
    return total


def csp_rows(graphs, values) -> tuple[list[tuple[int, ...]], int]:
    """The CSP's execution rows, indexed as ``SolvabilitySearch`` does:
    one row per (graph, input assignment), the sorted distinct view
    indices of its processes, views numbered by first appearance."""
    n = graphs[0].n
    index: dict = {}
    rows = []
    for g in graphs:
        in_neighbors = [g.in_neighbors(p) for p in range(n)]
        for assignment in itertools.product(values, repeat=n):
            seen = set()
            for p in range(n):
                view = frozenset((q, assignment[q]) for q in in_neighbors[p])
                seen.add(index.setdefault(view, len(index)))
            rows.append(tuple(sorted(seen)))
    return rows, len(index)


def replay_class(tracer, g, n: int, op: str, mark=lambda phase, step, counts: None) -> dict:
    """Replay one class.  ``mark(phase, step, counts)`` is called as each
    phase starts, with the step's span op and the work counted so far."""
    from repro.analysis.sweeps import DEFAULT_BUDGET
    from repro.bounds.report import bound_report
    from repro.engine.cache import cache_disabled
    from repro.graphs.symmetry import symmetric_closure
    from repro.models.closed_above import symmetric_closed_above
    from repro.store import disabled as store_disabled
    from repro.verification.backends.bitset import reduce_executions
    from repro.verification.solvability import SolvabilitySearch

    counts = dict.fromkeys(COUNTS, 0)
    with cache_disabled(), store_disabled(), tracer.span("replay", "bench", op):
        mark("models", op, counts)
        with tracer.span("models.enumerate", "models", op):
            full = sorted(symmetric_closed_above([g]).iter_graphs(max_graphs=DEFAULT_BUDGET))
        counts["models.graphs"] = len(full)
        mark("bounds", op, counts)
        with tracer.span("bounds.report", "bounds", op):
            report = bound_report(sorted(symmetric_closure([g])))
        exact = n
        for k in range(1, n):
            values = tuple(range(k + 1))
            step = f"{op}/k={k}"
            mark("build", step, counts)
            with tracer.span("verification.build", "verification", step):
                search = SolvabilitySearch(full, k, values)
            rows, views = csp_rows(full, values)
            dedup = list(dict.fromkeys(rows))
            counts["verification.views"] += views
            counts["verification.rows_raw"] += len(rows)
            counts["verification.rows_dedup"] += len(dedup)
            mark("reduce", step, counts)
            with tracer.span("verification.reduce", "verification", step):
                kept = reduce_executions(dedup)
            counts["verification.rows_kept"] += len(kept)
            mark("search", step, counts)
            with tracer.span("verification.solve", "verification", step):
                result = search.solve()
            if (len(kept), views) != (result.execution_count, result.view_count):
                raise BenchError(
                    f"replayed CSP diverged from SolvabilitySearch: "
                    f"{len(kept)} kept rows and {views} views here, "
                    f"{result.execution_count} and {result.view_count} there"
                )
            counts["verification.csp_calls"] += 1
            if result.solvable:
                exact = k
                break
    return {"lo": report.best_lower.k, "hi": report.best_upper.k,
            "exact": exact, "counts": counts}


def replay_child(emit, g, n: int, op: str, traced: bool) -> dict:
    """Forked-child body: replay ``g`` and stream finished spans home.

    Each phase mark carries the spans finished since the previous mark,
    the phase's start time, its span op and the counts so far, so a
    parent that kills the child at its deadline still has every finished
    span plus the open phase.
    """
    from repro.engine.cache import KERNEL_CACHE
    from tracing import NullTracer, Tracer

    KERNEL_CACHE.clear()
    tracer = Tracer() if traced else NullTracer()
    sent = 0

    def mark(phase: str, step: str, counts: dict) -> None:
        nonlocal sent
        fresh = tracer.spans[sent:]
        sent = len(tracer.spans)
        emit("phase", {"phase": phase, "step": step, "at": time.perf_counter(),
                       "spans": fresh, "counts": dict(counts)})

    emit("start")
    start = time.perf_counter()
    out = replay_class(tracer, g, n, op, mark)
    out["wall"] = time.perf_counter() - start
    out["spans"] = tracer.spans[sent:]
    return out
