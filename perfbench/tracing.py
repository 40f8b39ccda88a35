"""The benchmark's own spans: recorded around calls into each layer.

Spans live in memory and are written once, at the end of a traced run,
as Chrome ``trace_event`` JSON (open it in ``chrome://tracing`` or
Perfetto).  Spans recorded in a forked child travel home as plain dicts
and are absorbed; ``time.perf_counter`` is one system-wide monotonic
clock on Linux, so parent and child spans share a timeline.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager

#: The program's layers, named after its packages under ``src/repro``.
LAYERS = ("graphs", "models", "bounds", "verification", "analysis",
          "engine", "store", "dist", "serve")


class Tracer:
    """Span recorder: name, layer, start, end, parent span, operation id."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0

    @contextmanager
    def span(self, name: str, layer: str, op: str = ""):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            self._next += 1
            span_id = f"{os.getpid()}:{self._next}"
        record = {
            "id": span_id,
            "name": name,
            "layer": layer,
            "op": op,
            "parent": stack[-1] if stack else None,
            "tid": threading.get_ident(),
            "pid": os.getpid(),
            "start": time.perf_counter(),
        }
        stack.append(span_id)
        try:
            yield record
        finally:
            stack.pop()
            record["end"] = time.perf_counter()
            with self._lock:
                self.spans.append(record)

    def absorb(self, spans: list[dict]) -> None:
        with self._lock:
            self.spans.extend(spans)

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_time_by_layer(self) -> dict[str, float]:
        """Each layer's span time minus the part its child spans cover."""
        children: dict[str, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            covered = 0.0
            cursor = s["start"]
            for start, end in sorted(children.get(s["id"], ())):
                start, end = max(start, cursor), min(end, s["end"])
                if end > start:
                    covered += end - start
                    cursor = end
            out[s["layer"]] = out.get(s["layer"], 0.0) + (s["end"] - s["start"] - covered)
        return out

    def write_chrome(self, path: str, metadata: dict) -> None:
        """Write every span as a Chrome ``trace_event`` complete event."""
        origin = min((s["start"] for s in self.spans), default=0.0)
        events = [
            {
                "name": s["name"],
                "cat": s["layer"],
                "ph": "X",
                "ts": (s["start"] - origin) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "pid": s["pid"],
                "tid": s["tid"],
                "args": {"id": s["id"], "parent": s["parent"], "op": s["op"]},
            }
            for s in self.spans
        ]
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump({"traceEvents": events, "metadata": metadata}, handle)
        os.replace(tmp, path)


class NullTracer(Tracer):
    """Records nothing: the same code path with tracing off."""

    enabled = False

    @contextmanager
    def span(self, name: str, layer: str, op: str = ""):
        yield {}
