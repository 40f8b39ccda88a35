"""``serve_mixed``: a closed-loop query stream against ``python -m repro serve``.

The service runs as a subprocess with one in-thread worker and a fresh
read-write store.  Two client threads each send the next query only
after the previous one is answered.  Queries are drawn from a seeded
Zipf popularity over a fixed question set:

* ``POST /v1/solvability`` for every family at n=3 (k=1, 2) and n=4
  (k=1, less the four slow families in :data:`SLOW`), ``union_of_stars``
  once per centre-set size;
* ``POST /v1/bounds`` for the same graphs at n=3 and n=4.

n=4 questions with k >= 2 are left out on purpose: one of them holds the
only worker for seconds to minutes, and every later miss would then
measure that one CSP instead of the service.  ``frontier_n4`` measures
the CSP.  A ``202`` is answered by polling ``GET /v1/jobs/<id>`` every
:data:`POLL_S` until the job is done.  The first ask of a question is a
miss; later asks are hits.  Every answer is checked against a direct
call: ``decide_one_round_solvability`` on the full closed-above model,
``bound_report`` on the symmetric closure.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time

from common import BenchError, ROOT, child_env, die_with_parent, percentile
from tracing import NullTracer

CLIENTS = 2
POLL_S = 0.005
ZIPF_S = 1.0
SETUP_LAUNCHES = 8
HTTP_TIMEOUT_S = 60.0

#: Traced runs only: ``QueryApp.handle`` passes over every question (the
#: first loads from the store; later passes are the timed memo hits),
#: and the alternating blocks of the trace-overhead probe.
HANDLE_ROUNDS = 4
OVERHEAD_BLOCKS = 5
OVERHEAD_BLOCK_QUERIES = 40

#: (n, k) pairs asked of ``/v1/solvability``; ``/v1/bounds`` is asked
#: at every n that appears here.
SOLVABILITY_CASES = ((3, 1), (3, 2), (4, 1))

#: n=4 solvability questions left out for the same reason as k >= 2:
#: on the seed commit each computes for 1.1-2.8 s (together 85% of the
#: stream's compute; every other question takes under 0.5 s), so the
#: first seconds of a run were both clients waiting behind them on the
#: only worker, and throughput swung 4x between runs with how that queue
#: formed.  Their classes are part of ``frontier_n4``'s population.
SLOW = {("empty_graph", 4), ("in_tree", 4), ("out_tree", 4), ("path", 4)}


def questions() -> list[dict]:
    """Every distinct question: one per (route, graph class, n, k)."""
    from repro.engine.canonical import iso_key
    from repro.errors import GraphError
    from repro.graphs import FAMILY_NAMES, build_family

    graphs = []
    for n in sorted({n for n, _ in SOLVABILITY_CASES}):
        for family in FAMILY_NAMES:
            centre_sets = ([list(range(size)) for size in range(1, n + 1)]
                           if family == "union_of_stars" else [None])
            for centers in centre_sets:
                try:
                    g = build_family(family, n, centers)
                except GraphError:
                    continue
                body = {"family": family, "n": n}
                if centers is not None:
                    body["centers"] = centers
                graphs.append((g, body))
    out, seen = [], set()
    for g, body in graphs:
        n = body["n"]
        asks = [("bounds", None)] + [
            ("solvability", k) for m, k in SOLVABILITY_CASES
            if m == n and (body["family"], n) not in SLOW
        ]
        for route, k in asks:
            key = (route, iso_key(g), n, k)
            if key in seen:
                continue
            seen.add(key)
            query = dict(body) if k is None else dict(body, k=k)
            out.append({"route": route, "body": query, "graph": g,
                        "key": json.dumps([route, query], sort_keys=True)})
    return out


def expected_answer(question: dict):
    """The oracle: the service's answer computed by direct calls."""
    from repro.analysis.sweeps import DEFAULT_BUDGET
    from repro.bounds.report import bound_report
    from repro.graphs.symmetry import symmetric_closure
    from repro.models.closed_above import symmetric_closed_above
    from repro.verification.solvability import decide_one_round_solvability

    g = question["graph"]
    if question["route"] == "bounds":
        report = bound_report(sorted(symmetric_closure([g])))
        return {"lower": report.best_lower.k, "upper": report.best_upper.k}
    full = sorted(symmetric_closed_above([g]).iter_graphs(max_graphs=DEFAULT_BUDGET))
    return {"solvable": decide_one_round_solvability(full, question["body"]["k"]).solvable}


def answer_of(route: str, payload: dict) -> dict:
    if route == "bounds":
        return {"lower": payload.get("lower"), "upper": payload.get("upper")}
    return {"solvable": payload.get("solvable")}


# ----------------------------------------------------------------------
# The service process
# ----------------------------------------------------------------------

def request(address, method: str, path: str, body: dict | None = None):
    """One HTTP exchange (the service closes every connection)."""
    conn = http.client.HTTPConnection(*address, timeout=HTTP_TIMEOUT_S)
    try:
        data = None if body is None else json.dumps(body).encode()
        headers = {} if data is None else {"Content-Type": "application/json"}
        conn.request(method, path, body=data, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


class Service:
    """``python -m repro serve`` on an ephemeral port, store on ``path``."""

    def __init__(self, workdir: str, tag: str):
        self.store = os.path.join(workdir, f"serve-{tag}.sqlite")
        self.log_path = os.path.join(workdir, f"serve-{tag}.log")
        self.address = None
        self.proc = None
        self.ready_s = None

    def start(self) -> "Service":
        start = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--http", "127.0.0.1:0",
                 "--workers", "1", "--store", "rw", "--store-path", self.store],
                cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=log,
                preexec_fn=die_with_parent,
            )
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"serve exited {self.proc.returncode} at start-up")
            if time.perf_counter() - start > 60:
                self.close()
                raise BenchError("serve did not become ready within 60 s")
            if self.address is None:
                with open(self.log_path) as log:
                    for line in log:
                        if line.startswith("serve: queries on http://"):
                            hostport = line.split("http://", 1)[1].split()[0]
                            host, port = hostport.rsplit(":", 1)
                            self.address = (host, int(port))
            if self.address is not None:
                try:
                    if request(self.address, "GET", "/v1/status")[0] == 200:
                        self.ready_s = time.perf_counter() - start
                        return self
                except OSError:
                    pass
            time.sleep(0.002)

    def close(self, graceful: bool = True) -> None:
        """Stop the service and wait for it.  ``graceful`` interrupts it so
        it flushes its store on the way out (which sometimes takes tens
        of seconds); otherwise it is killed outright."""
        if self.proc is None or self.proc.poll() is not None:
            return
        if graceful:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
                return
            except subprocess.TimeoutExpired:
                pass
        self.proc.kill()
        self.proc.wait(timeout=30)


# ----------------------------------------------------------------------
# Closed-loop clients
# ----------------------------------------------------------------------

class Stream:
    """Shared state of the client threads."""

    def __init__(self, address, questions_: list[dict], expected: dict, tracer):
        self.address = address
        self.questions = questions_
        self.expected = expected
        self.tracer = tracer
        self.lock = threading.Lock()
        self.asked: set[str] = set()
        self.records: list[dict] = []
        self.errors: list[str] = []

    def ask(self, question: dict, op: str) -> dict:
        with self.lock:
            first = question["key"] not in self.asked
            self.asked.add(question["key"])
        record = {"key": question["key"], "first": first, "miss": False, "polls": 0, "ok": False,
                  "wrong": False, "job_elapsed": None, "http": []}
        path = f"/v1/{question['route']}"
        start = time.perf_counter()
        with self.tracer.span("serve.query", "bench", op):
            status, payload = self._http("POST", path, question["body"], op, record)
            if status == 202:
                record["miss"] = True
                job = f"/v1/jobs/{payload['job']}"
                while status in (200, 202) and payload.get("state") == "pending":
                    time.sleep(POLL_S)
                    record["polls"] += 1
                    status, payload = self._http("GET", job, None, op, record)
                if status == 200 and payload.get("state") == "done":
                    record["job_elapsed"] = payload.get("elapsed")
                    payload = payload.get("result", {})
                else:
                    status = status if status != 200 else 500
        record["latency"] = time.perf_counter() - start
        if status == 200:
            record["ok"] = True
            record["wrong"] = answer_of(question["route"], payload) != self.expected[question["key"]]
        else:
            record["error"] = f"{path} {question['body']}: HTTP {status} {payload}"
        return record

    def _http(self, method, path, body, op, record):
        start = time.perf_counter()
        with self.tracer.span("serve.http", "serve", op):
            try:
                status, payload = request(self.address, method, path, body)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                status, payload = 599, {"error": f"{type(exc).__name__}: {exc}"}
        record["http"].append(time.perf_counter() - start)
        return status, payload

    def client(self, index: int, seed: int, until: float) -> None:
        rng = random.Random(seed * 1000 + index)
        order = list(self.questions)
        random.Random(seed).shuffle(order)
        weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(order))]
        cumulative = list(itertools.accumulate(weights))
        count = 0
        while time.perf_counter() < until:
            question = rng.choices(order, cum_weights=cumulative)[0]
            record = self.ask(question, f"c{index}-q{count}")
            count += 1
            with self.lock:
                self.records.append(record)
                if "error" in record:
                    self.errors.append(record["error"])

    def run(self, seed: int, seconds: float) -> float:
        start = time.perf_counter()
        until = start + seconds
        threads = [threading.Thread(target=self.client, args=(i, seed, until))
                   for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 4 * HTTP_TIMEOUT_S)
            if thread.is_alive():
                raise BenchError("a client thread did not finish")
        return time.perf_counter() - start


def run(seed: int, seconds: float, tracer, workdir: str) -> dict:
    asked = questions()
    expected = {q["key"]: expected_answer(q) for q in asked}
    ready = []
    for i in range(SETUP_LAUNCHES):
        service = Service(workdir, f"setup{i}").start()
        ready.append(service.ready_s)
        service.close(graceful=False)
    service = Service(workdir, "stream").start()
    ready.append(service.ready_s)
    try:
        stream = Stream(service.address, asked, expected, tracer)
        elapsed = stream.run(seed, seconds)
        layer = {}
        if tracer.enabled:
            layer = _service_layers(service, stream, tracer)
    finally:
        service.close()
    records = stream.records
    for error in stream.errors[:5]:
        print(f"serve_mixed: {error}", file=sys.stderr)
    ok = [r for r in records if r["ok"] and not r["wrong"]]
    wrong = sum(1 for r in records if r["wrong"])
    failed = sum(1 for r in records if not r["ok"]) + wrong
    latencies = [r["latency"] for r in ok]
    first = [r["latency"] for r in ok if r["first"] and r["miss"]]
    if not latencies or not first:
        raise BenchError("no query answered")
    # The gated rate is Little's law for the closed loop, CLIENTS over
    # the median query latency.  On a shared host the completed rate
    # itself (and its median or 90th percentile over the stream's
    # seconds) spread by 0.16-0.35 across runs while the median latency
    # of the same runs spread by 0.10-0.16; a slower service raises the
    # latency of every query.
    query_p50 = statistics.median(latencies)
    if tracer.enabled:
        layer.update(_client_layers(records, service, asked, tracer))
    return {
        "attempted": len(records),
        "failed": failed,
        "wrong": wrong,
        "layers": layer,
        "end_to_end": {
            "setup_s": statistics.median(ready),
            "cold_s": statistics.median(first),
            "answers_per_h": 3600.0 * CLIENTS / query_p50,
        },
        "reported": {
            "query_s.p50": (query_p50, "s", len(latencies)),
            "query_s.p99": (percentile(latencies, 0.99), "s", len(latencies)),
            "miss_s.p50": (statistics.median(first), "s", len(first)),
            "queries_per_s": (len(ok) / elapsed, "1/s", len(ok)),
            "failed_ratio": (failed / len(records), "ratio", len(records)),
        },
    }


def _service_layers(service: Service, stream: Stream, tracer) -> dict:
    """Counters the live service reports, and the trace-overhead probe:
    one client re-asking answered questions (all hits), spans on and off
    in alternating blocks."""
    status, payload = request(service.address, "GET", "/v1/status")
    if status != 200:
        raise BenchError(f"/v1/status answered {status}")
    _, snapshot = request(service.address, "GET", "/v1/metrics")
    cache = snapshot.get("stats", {}).get("cache", {})
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    answered = {r["key"] for r in stream.records if r["ok"]}
    hot = [q for q in stream.questions if q["key"] in answered]
    probes = {"traced": Stream(service.address, hot, stream.expected, tracer),
              "untraced": Stream(service.address, hot, stream.expected, NullTracer())}
    walls = {"traced": 0.0, "untraced": 0.0}
    for block in range(OVERHEAD_BLOCKS):
        for label, probe in probes.items():
            start = time.perf_counter()
            for question in hot[:OVERHEAD_BLOCK_QUERIES]:
                probe.ask(question, f"probe-{block}")
            walls[label] += time.perf_counter() - start
    return {
        # Jobs handed to a worker: finished ones plus any still leased.
        "dist.leases": payload.get("completed", 0) + payload.get("leases", 0),
        "dist.requeues": payload.get("requeues", 0),
        "engine.cache.hits": hits,
        "engine.cache.misses": misses,
        "engine.kernel_calls": hits + misses,
        "obs.trace_overhead": walls["traced"] / walls["untraced"],
    }


def _client_layers(records: list[dict], service: Service, asked: list[dict],
                   tracer) -> dict:
    """Client-side splits of the stream, plus in-process replays of the
    service's hit path (``QueryApp.handle`` over the stream's store file)
    and of ``bound_report`` for the bounds questions."""
    import repro.store
    from repro.bounds.report import bound_report
    from repro.engine.cache import KERNEL_CACHE, cache_disabled
    from repro.graphs.symmetry import symmetric_closure
    from repro.serve import QueryApp

    answered = {r["key"] for r in records if r["ok"]}
    asked = [q for q in asked if q["key"] in answered]
    misses = [r for r in records if r["ok"] and r["miss"]]
    hits = [r for r in records if r["ok"] and not r["miss"]]
    dispatch = [r["latency"] - r["job_elapsed"] for r in misses
                if r["first"] and r["job_elapsed"] is not None]
    KERNEL_CACHE.clear()
    repro.store.configure(path=service.store, mode="ro")
    try:
        app = QueryApp()
        handle = []
        for round_ in range(HANDLE_ROUNDS):
            for question in asked:
                body = json.dumps(question["body"]).encode()
                start = time.perf_counter()
                with tracer.span("serve.handle", "serve", f"handle-{round_}"):
                    status, _ = app.handle("POST", f"/v1/{question['route']}", body)
                # Only hits count; a row the service never flushed is a miss.
                if round_ and status == 200:
                    handle.append(time.perf_counter() - start)
    finally:
        repro.store.configure(mode="off")
    if not handle:
        raise BenchError("no answered question was found in the service's store")
    with cache_disabled():
        for question in asked:
            if question["route"] == "bounds":
                with tracer.span("bounds.report", "bounds", question["key"]):
                    bound_report(sorted(symmetric_closure([question["graph"]])))
    handle_s = statistics.median(handle)
    return {
        "serve.handle_s": handle_s,
        "serve.http_s": statistics.median(r["http"][0] for r in hits) - handle_s,
        "serve.polls_per_miss": sum(r["polls"] for r in misses) / max(1, len(misses)),
        "dist.dispatch_s": statistics.median(dispatch) if dispatch else 0.0,
    }


def layers(tracer, workdir: str, result: dict) -> dict:
    return {"metrics": result["layers"]}
