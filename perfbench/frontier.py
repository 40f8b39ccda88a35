"""``frontier_n4``: a seeded, stratified sample of the n=4 frontier.

Each sampled isomorphism class is answered on the product path
(``plan_sweep([g], 4)`` then ``run_batch``), serially, store off, with
a cold kernel memo, in a forked child under a fixed deadline.  A class
that misses the deadline is charged the deadline and counted as a
deadline miss; it is never dropped from the sample.

The classes split into two strata by their seed-commit outcome in
``expected_n4.json``.  The *answered* stratum (the classes the seed
commit answered within the deadline) is taken whole in every run, in
a seeded order, and its time is the gated ``cold_s``: it is the same
work on every seed and all of it is program time, so a slowdown of the
answering path moves it by the same share.  It is answered
:data:`ROUNDS` times, each class counts its fastest round, and its
classes run past the deadline up to :data:`STRATUM_LIMIT_S`.  The
*missed* stratum is sampled by proper-edge count, as many classes as
the rest of the time budget holds; those classes are charged the
deadline in ``frontier_s`` and counted in ``failed_ratio`` and
``deadline_misses``.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import statistics
import sys
import time

from common import BenchError, child_env, launch_wall, run_forked

N = 4

#: Per-class deadline (seconds of product-path wall-clock).
DEADLINE_S = 2.4

#: Classes of the answered stratum run to completion up to this limit,
#: so that ``cold_s`` keeps growing with a slower program instead of
#: stopping at the deadline; past the deadline they still count as
#: deadline misses in every other figure.
STRATUM_LIMIT_S = 4 * DEADLINE_S

#: The layer-by-layer replay rebuilds the CSP rows outside the timed
#: phases, so it gets more room than the product path.
REPLAY_DEADLINE_S = 2 * DEADLINE_S

#: Untraced runs launch this many fresh interpreters for ``setup_s``,
#: spread evenly between the classes, and report their median.
SETUP_LAUNCHES = 7

#: About what one such launch takes on the seed commit (seconds); the
#: sample's time budget reserves this much for each.
SETUP_ESTIMATE_S = 1.0

#: Untraced runs answer the answered stratum this many times, each
#: round in its own seeded order, and count each class's fastest
#: round: on a shared host a class is slowed from outside for a stretch
#: of seconds, a slower program on every round.
ROUNDS = 2

SETUP_SCRIPT = (
    "import repro.__main__\n"
    "from repro.graphs.generators import iter_all_digraphs\n"
    "from repro.graphs.symmetry import iter_isomorphism_classes\n"
    f"list(iter_isomorphism_classes(iter_all_digraphs({N})))"
)

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected_n4.json")


def canonical_edges(edges, n: int = N) -> str:
    """Relabelling-invariant identity of a class: the least sorted edge
    list over all vertex permutations, as a string key."""
    edges = list(edges)
    best = min(
        tuple(sorted((perm[u], perm[v]) for u, v in edges))
        for perm in itertools.permutations(range(n))
    )
    return repr([list(edge) for edge in best])


def enumerate_classes(n: int = N) -> list:
    """Every isomorphism class on ``n`` processes, densest first."""
    from repro.graphs.generators import iter_all_digraphs
    from repro.graphs.symmetry import iter_isomorphism_classes

    return sorted(
        iter_isomorphism_classes(iter_all_digraphs(n)),
        key=lambda g: (-g.proper_edge_count, g.out_rows),
    )


def stratified_sample(classes: list, size: int, seed: int) -> list[int]:
    """Indices of a sample of ``size`` of ``classes``, stratified by
    proper-edge count.

    Each stratum gets its proportional share (largest remainder, ties
    broken by stratum, so the allocation never depends on the seed); the
    seed picks which classes of each stratum are drawn.
    """
    strata: dict[int, list[int]] = {}
    for index, g in enumerate(classes):
        strata.setdefault(g.proper_edge_count, []).append(index)
    size = min(size, len(classes))
    quotas = {key: size * len(members) / len(classes) for key, members in strata.items()}
    counts = {key: int(q) for key, q in quotas.items()}
    spare = size - sum(counts.values())
    for key in sorted(quotas, key=lambda key: (counts[key] - quotas[key], key))[:spare]:
        counts[key] += 1
    rng = random.Random(seed)
    return [i for key in sorted(strata) for i in rng.sample(strata[key], counts[key])]


def answered_stratum(expected: dict) -> dict:
    """Canonical key -> seed-commit wall of every class the table's run
    answered within the deadline."""
    return {key: entry["wall_s"] for key, entry in expected.items()
            if entry["verdict"] is not None and entry["wall_s"] < DEADLINE_S}


def sample(classes: list, expected: dict, seed: int, seconds: float) -> list[tuple[int, bool]]:
    """``(class index, in the answered stratum)`` for every class of one
    run, in the order they run: the whole answered stratum plus a
    stratified sample of the missed one, as many classes as the
    deadline fits into what ``seconds`` leaves after :data:`ROUNDS`
    rounds of the answered stratum at its seed-commit time and the
    set-up launches (at least one)."""
    answered = answered_stratum(expected)
    keys = [canonical_edges(g.proper_edges()) for g in classes]
    missed = [i for i, key in enumerate(keys) if key not in answered]
    budget = seconds - ROUNDS * sum(answered.values()) - SETUP_LAUNCHES * SETUP_ESTIMATE_S
    size = max(1, int(budget / DEADLINE_S))
    drawn = stratified_sample([classes[i] for i in missed], size, seed)
    chosen = [(i, True) for i, key in enumerate(keys) if key in answered]
    chosen += [(missed[j], False) for j in drawn]
    random.Random(seed).shuffle(chosen)
    return chosen


def verdict_of(row) -> list:
    """The backend-independent part of a sweep row (all but the edges)."""
    return [str(row[1]), row[2], bool(row[3]), bool(row[4])]


def plan_rows(plan, batch) -> list:
    """The sweep rows of a finished batch, in class order (a split class's
    row is its reduction's value)."""
    return [
        batch.reduction_results[cls.reduction_index].value if cls.split
        else batch.results[cls.job_indices[0]].value
        for cls in plan.classes
    ]


def product_path(emit, g, backend: str | None = None, traced: bool = False) -> dict:
    """Child body: answer one class exactly as a sweep shard does."""
    from repro.analysis.sweeps import plan_sweep
    from repro.engine.batch import run_batch
    from repro.engine.cache import KERNEL_CACHE
    from repro.obs.metrics import METRICS
    from tracing import NullTracer, Tracer

    tracer = Tracer() if traced else NullTracer()
    KERNEL_CACHE.clear()
    METRICS.reset()
    before = METRICS.snapshot()["stats"]["cache"]
    emit("start")
    start = time.perf_counter()
    with tracer.span("analysis.plan", "analysis"):
        plan = plan_sweep([g], N, backend=backend)
    cls = plan.classes[0]
    emit("phase", {"split": bool(cls.split)})
    batch = run_batch(list(plan.tasks), reductions=plan.reductions)
    wall = time.perf_counter() - start
    row = plan_rows(plan, batch)[0]
    after = METRICS.snapshot()["stats"]["cache"]
    return {
        "row": [repr(row[0]), *verdict_of(row)],
        "wall": wall,
        "cache_hits": after["hits"] - before["hits"],
        "cache_misses": after["misses"] - before["misses"],
        "spans": tracer.spans,
    }


def load_expected() -> dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)["classes"]


def check_row(g, row: list, expected: dict) -> str:
    """``"correct"``, ``"unverified"`` (class absent from the table) or
    ``"wrong"``."""
    want = expected.get(canonical_edges(g.proper_edges()))
    if want is None or want.get("verdict") is None:
        return "unverified"
    if row[0] != repr(sorted(g.proper_edges())):
        return "wrong"
    return "correct" if row[1:] == want["verdict"] else "wrong"


def class_record(index: int, stratum: bool, outcomes: list, g, expected: dict) -> dict:
    """One class's result over its rounds, from its fastest finished
    round: answered if that is within the deadline, else a deadline
    miss; ``wall`` is that round's wall (the limit if none finished)
    and ``charged`` the same capped at the deadline.  Wrong if any
    round's answer is, failed if any round crashed."""
    done = [out["value"] for out in outcomes if out["status"] == "done"]
    fastest = min(done, key=lambda value: value["wall"]) if done else None
    record = {"index": index, "answered_stratum": stratum, "status": "timeout",
              "wall": STRATUM_LIMIT_S if stratum else DEADLINE_S, "charged": DEADLINE_S,
              "split": any(p.get("split") for out in outcomes for p in out["phases"])}
    if fastest is not None:
        checks = {check_row(g, value["row"], expected) for value in done}
        record["wall"] = fastest["wall"]
        record["charged"] = min(fastest["wall"], DEADLINE_S)
        record["check"] = "wrong" if "wrong" in checks else checks.pop()
        if fastest["wall"] <= DEADLINE_S:
            record["status"] = "done"
            record["product"] = fastest
    if any(out["status"] == "error" for out in outcomes):
        record["status"] = "error"
    return record


def run(seed: int, seconds: float, tracer, workdir: str) -> dict:
    """Answer the answered stratum and a sample of the missed one on the
    product path (see the module docstring)."""
    with tracer.span("graphs.iso_classes", "graphs"):
        classes = enumerate_classes()
    expected = load_expected()
    chosen = sample(classes, expected, seed, seconds)
    schedule = list(chosen)
    rng = random.Random(seed)
    for _ in range(0 if tracer.enabled else ROUNDS - 1):
        again = [item for item in chosen if item[1]]
        rng.shuffle(again)
        schedule += again
    launches = [0] * len(schedule)
    if not tracer.enabled:
        for i in range(SETUP_LAUNCHES):
            launches[i * len(schedule) // SETUP_LAUNCHES] += 1
    outcomes: dict[int, list] = {index: [] for index, _ in chosen}
    setups = []
    for (index, stratum), count in zip(schedule, launches):
        for _ in range(count):
            setups.append(launch_wall([sys.executable, "-c", SETUP_SCRIPT], env=child_env()))
        with tracer.span("frontier.class", "bench", f"class-{index}"):
            out = run_forked(product_path, (classes[index], None, tracer.enabled),
                             STRATUM_LIMIT_S if stratum else DEADLINE_S)
        if out["status"] == "done":
            tracer.absorb(out["value"]["spans"])
        elif out["status"] == "error":
            print(f"frontier_n4: class {index}: {out['value']}", file=sys.stderr)
        outcomes[index].append(out)
    records = [class_record(index, stratum, outcomes[index], classes[index], expected)
               for index, stratum in chosen]
    done = [r for r in records if r["status"] == "done"]
    wrong = sum(1 for r in records if r.get("check") == "wrong")
    errors = sum(1 for r in records if r["status"] == "error")
    misses = sum(1 for r in records if r["status"] == "timeout")
    answered = sum(1 for r in done if r["check"] != "wrong")
    frontier_s = sum(r["charged"] for r in records)
    stratum_s = sum(r["wall"] for r in records if r["answered_stratum"])
    per_h = 3600.0 * answered / frontier_s
    attempted = len(records)
    return {
        "attempted": attempted,
        "failed": errors + wrong,
        "wrong": wrong,
        "records": records,
        "classes": classes,
        "end_to_end": {"setup_s": statistics.median(setups) if setups else 0.0,
                       "cold_s": stratum_s, "answers_per_h": per_h},
        "reported": {
            "frontier_s": (frontier_s, "s", attempted),
            "answered_stratum_s": (stratum_s, "s",
                                   sum(1 for r in records if r["answered_stratum"])),
            "classes_per_h": (per_h, "1/h", attempted),
            "failed_ratio": ((errors + wrong + misses) / attempted, "ratio", attempted),
            "deadline_misses": (misses, "count", attempted),
            "unverified": (sum(1 for r in done if r["check"] == "unverified"),
                           "count", attempted),
            "deadline_s": (DEADLINE_S, "s", attempted),
        },
    }


def layers(tracer, workdir: str, result: dict) -> dict:
    """Replay every sampled class layer by layer (see :mod:`replay`).

    A class that missed its deadline on the product path is charged to
    the replay phase its program time had reached at the deadline, so
    the ``deadline_in`` counts sum to the deadline misses.  For answered
    classes the product-path wall minus the replayed layers' sum is the
    engine's batch overhead.
    """
    from replay import COUNTS, PHASE_OF, SPAN_OF_PHASE, program_time, replay_child

    metrics = {f"verification.deadline_in.{p}": 0 for p in ("build", "reduce", "search")}
    totals = dict.fromkeys(COUNTS, 0)
    overhead = 0.0
    walls = {"traced": 0.0, "untraced": 0.0}
    comparisons = []
    hits = misses = splits = 0
    for record in result["records"]:
        index = record["index"]
        g = result["classes"][index]
        op = f"class-{index}"
        splits += record["split"]
        out = run_forked(replay_child, (g, N, op, True), REPLAY_DEADLINE_S)
        if out["status"] == "error":
            raise BenchError(f"replay of class {index}: {out['value']}")
        spans = [s for p in out["phases"] for s in p["spans"]]
        marks = []
        for p in out["phases"]:
            received = [s for q in out["phases"][:len(marks) + 1] for s in q["spans"]]
            marks.append((p["phase"], program_time(received)))
        last = out["phases"][-1]
        if out["status"] == "done":
            spans += out["value"]["spans"]
            counts = out["value"]["counts"]
        else:
            counts = last["counts"]
            name, layer = SPAN_OF_PHASE[last["phase"]]
            spans.append({"id": f"{op}:open", "name": name, "layer": layer,
                          "op": last["step"], "parent": None, "tid": 0,
                          "pid": 0, "start": last["at"], "end": out["ended"]})
        for name, value in counts.items():
            totals[name] += value
        tracer.absorb(spans)
        replayed = program_time(spans)
        if record["status"] == "timeout":
            at = [phase for phase, t in marks if t <= DEADLINE_S] or [marks[0][0]]
            metrics[f"verification.deadline_in.{PHASE_OF[at[-1]]}"] += 1
        elif record["status"] == "done":
            product = record["product"]
            hits += product["cache_hits"]
            misses += product["cache_misses"]
            comparisons.append({"class": index, "product_s": product["wall"],
                                "replayed_s": replayed})
            if out["status"] == "done":
                overhead += product["wall"] - replayed
                walls["traced"] += out["value"]["wall"]
                bare = run_forked(replay_child, (g, N, op, False), REPLAY_DEADLINE_S)
                walls["untraced"] += bare["value"]["wall"] if bare["status"] == "done" else 0
    metrics.update(totals)
    metrics.update({
        "analysis.split_classes": splits,
        "engine.batch_overhead_s": overhead,
        "engine.cache.hits": hits,
        "engine.cache.misses": misses,
        "engine.kernel_calls": hits + misses,
        "obs.trace_overhead": walls["traced"] / walls["untraced"] if walls["untraced"] else 1.0,
    })
    return {"metrics": metrics, "classes": comparisons}
