"""The benchmark's own tests (not collected by the repository's suite).

Run from the checkout root::

    python3 -m pytest -q perfbench/selftest.py

Smoke sizes of every workload finish in seconds; the oracle tests feed
a flipped verdict and expect it to be caught.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from common import ensure_program  # noqa: E402

ensure_program()

import frontier  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402
import sweep  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

#: The workload-specific metrics each workload prints by name and unit.
REPORTED = {
    "sweep_n3": {"sweep_cold_s": "s", "sweep_warm_s": "s", "failed_ratio": "ratio"},
    "frontier_n4": {"frontier_s": "s", "classes_per_h": "1/h", "failed_ratio": "ratio",
                    "deadline_misses": "count"},
    "serve_mixed": {"query_s.p50": "s", "query_s.p99": "s", "miss_s.p50": "s",
                    "queries_per_s": "1/s", "failed_ratio": "ratio"},
}

#: Per-layer metrics each workload must drive (non-zero on a smoke run).
CARRIED = {
    "sweep_n3": ["bounds.report_s", "verification.build_s", "analysis.plan_s",
                 "engine.batch_overhead_s", "engine.kernel_calls", "store.save_s",
                 "store.flush_s", "store.rows_written", "store.load_s", "store.hits"],
    "frontier_n4": ["graphs.iso_classes_s", "models.enumerate_s", "models.graphs",
                    "bounds.report_s", "verification.build_s"],
    "serve_mixed": ["bounds.report_s", "engine.kernel_calls", "dist.dispatch_s",
                    "dist.leases", "serve.handle_s", "serve.http_s"],
}


#: Smoke sizes (seconds); ``frontier_n4`` always answers its whole answered
#: stratum twice (about 20 s) and samples one class of the missed one.
SMOKE_SECONDS = {"sweep_n3": 2, "frontier_n4": 8, "serve_mixed": 2}


def bench(workload: str, trace: int, seconds: float, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric(workload, trace):
    proc = bench(workload, trace, seconds=SMOKE_SECONDS[workload])
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    result = lines[-1]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        assert trace or metric["value"] >= 0
    if trace:
        for name in CARRIED[workload]:
            assert result["metrics"][name]["value"] != 0, name
    reported = next(line["workload_metrics"] for line in lines if "workload_metrics" in line)
    for name, unit in REPORTED[workload].items():
        assert reported[name]["unit"] == unit
        assert reported[name]["samples"] >= 1
    meta = lines[0]["meta"]
    assert {"revision", "nproc", "python", "seed", "calibration_s"} <= set(meta)
    if workload == "frontier_n4":
        # The sample keeps the classes the seed commit cannot answer in
        # time: they are charged, counted, and (traced) attributed.
        misses = reported["deadline_misses"]["value"]
        assert misses > 0
        assert reported["failed_ratio"]["value"] > 0
        if trace:
            assert sum(result["metrics"][f"verification.deadline_in.{p}"]["value"]
                       for p in ("build", "reduce", "search")) == misses


def test_sample_is_seeded_and_stratified():
    classes = frontier.enumerate_classes()
    expected = frontier.load_expected()
    answered = frontier.answered_stratum(expected)
    a = frontier.sample(classes, expected, 1, 60)
    assert a == frontier.sample(classes, expected, 1, 60)
    b = frontier.sample(classes, expected, 2, 60)
    assert a != b and len(a) == len({i for i, _ in a})

    def strata(chosen):
        counts = {}
        for index, stratum in chosen:
            g = classes[index]
            assert stratum == (frontier.canonical_edges(g.proper_edges()) in answered)
            key = (g.proper_edge_count, stratum)
            counts[key] = counts.get(key, 0) + 1
        return counts

    # The answered stratum is taken whole; the missed one fills the rest
    # of the budget with the same mix of edge counts on every seed.
    assert strata(a) == strata(b)
    assert sum(stratum for _, stratum in a) == len(answered) > 0
    missed = len(a) - len(answered)
    budget = (60 - frontier.ROUNDS * sum(answered.values())
              - frontier.SETUP_LAUNCHES * frontier.SETUP_ESTIMATE_S)
    assert missed == int(budget / frontier.DEADLINE_S)


def test_frontier_oracle_catches_flipped_verdict():
    classes = frontier.enumerate_classes()
    expected = frontier.load_expected()
    g = classes[0]
    out = frontier.run_forked(frontier.product_path, (g,), 30.0)
    row = out["value"]["row"]
    assert frontier.check_row(g, row, expected) == "correct"
    flipped = row[:3] + [not row[3]] + row[4:]
    assert frontier.check_row(g, flipped, expected) == "wrong"
    assert frontier.check_row(g, row, {}) == "unverified"


def test_sweep_oracle_catches_flipped_verdict(tmp_path):
    _, out = sweep.run_cli(["sweep", "--n", "3", "--backend", "reference", "--json"],
                           env=sweep.child_env(), timeout=170)
    oracle = sweep.sweep_rows(out)
    oracle[0][3] = "False" if oracle[0][3] == "True" else "True"
    got = sweep.measure(0.0, str(tmp_path), oracle, NullTracer())
    assert got["wrong"] == 2  # the cold and the warm run


def test_serve_oracle_catches_flipped_verdict(tmp_path):
    question = next(q for q in serve.questions() if q["route"] == "solvability")
    truth = serve.expected_answer(question)
    service = serve.Service(str(tmp_path), "flip").start()
    try:
        honest = serve.Stream(service.address, [question], {question["key"]: truth}, Tracer())
        assert not honest.ask(question, "q0")["wrong"]
        flipped = {question["key"]: {"solvable": not truth["solvable"]}}
        liar = serve.Stream(service.address, [question], flipped, NullTracer())
        assert liar.ask(question, "q1")["wrong"]
    finally:
        service.close()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("sweep_n3", 0, seconds=1, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
