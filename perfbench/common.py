"""Shared plumbing of the benchmark: paths, child processes, statistics.

Everything here is independent of the workloads.  The benchmark drives
the program only through its public functions and its CLI, run from the
``src/`` tree of the checkout it sits in.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Scratch space for store files, traces and result records.  Listed in
#: the repository's ``.gitignore``; every run works in its own subdirectory.
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


class BenchError(Exception):
    """The benchmark cannot run here (no program), or a run went wrong."""


def ensure_program() -> None:
    """Make ``import repro`` resolve to the checkout's ``src/`` tree."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__main__.py")):
        raise BenchError(f"no program to benchmark: {SRC}/repro is missing")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


#: The program's environment switches; the benchmark clears them so a
#: caller's shell cannot change what is measured.
REPRO_ENV = ("REPRO_STORE", "REPRO_STORE_PATH", "REPRO_TRACE",
             "REPRO_NO_CACHE", "REPRO_CSP_BACKEND")


def child_env(**extra: str) -> dict[str, str]:
    """Environment for a ``python -m repro`` child: the checkout's source,
    store and tracing off unless ``extra`` turns them on."""
    env = {name: value for name, value in os.environ.items() if name not in REPRO_ENV}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env.update(extra)
    return env


def run_dir(workload: str, seed: int) -> str:
    """A fresh per-run directory under :data:`OUT_DIR`."""
    path = os.path.join(OUT_DIR, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def run_timed(argv: list[str], *, env: dict[str, str], timeout: float,
              capture: bool = True) -> tuple[float, int, str, str]:
    """Run ``argv`` to completion; return (wall, exit code, stdout, stderr).

    ``subprocess.run(timeout=...)`` polls for the child's exit in steps of
    up to 50 ms, which would quantise every wall measured here; instead
    the wait blocks and a timer kills a child that outlives ``timeout``.
    """
    stream = subprocess.PIPE if capture else subprocess.DEVNULL
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=stream, stderr=stream,
                            text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        out, err = proc.communicate()
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    if wall >= timeout:
        raise BenchError(f"{' '.join(argv[:4])} timed out after {timeout}s")
    return wall, proc.returncode, out or "", err or ""


def run_cli(args: list[str], *, env: dict[str, str], timeout: float) -> tuple[float, str]:
    """Run ``python -m repro ARGS``; return (wall seconds, stdout).

    A non-zero exit or a timeout raises :class:`BenchError`.
    """
    wall, code, out, err = run_timed([sys.executable, "-m", "repro", *args],
                                     env=env, timeout=timeout)
    if code != 0:
        raise BenchError(f"repro {' '.join(args)} exited {code}: {err[-2000:]}")
    return wall, out


def launch_wall(argv: list[str], *, env: dict[str, str]) -> float:
    """Wall of one launch of ``argv`` to its exit (output discarded)."""
    wall, code, _, _ = run_timed(argv, env=env, timeout=120, capture=False)
    if code != 0:
        raise BenchError(f"{' '.join(argv[:3])} exited {code}")
    return wall


# ----------------------------------------------------------------------
# Forked children under a deadline
# ----------------------------------------------------------------------

def die_with_parent() -> None:
    """Ask Linux to SIGKILL this process when its parent exits, so a
    benchmark that is itself killed leaves no child behind."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
        libc.prctl.restype = ctypes.c_int
        libc.prctl(1, 9)  # PR_SET_PDEATHSIG, SIGKILL
    except (OSError, AttributeError):
        pass


def _child_main(conn, fn, args) -> None:
    die_with_parent()

    def emit(kind: str, payload=None) -> None:
        conn.send((kind, payload))

    try:
        emit("done", fn(emit, *args))
    except BaseException as exc:  # reported to the parent, which fails the op
        emit("error", f"{type(exc).__name__}: {exc}")
        raise
    finally:
        conn.close()


def run_forked(fn, args: tuple, deadline: float) -> dict:
    """Run ``fn(emit, *args)`` in a forked child under ``deadline`` seconds.

    The clock starts when the child emits ``("start", None)``, so fork
    cost is not charged to the work.  Every ``emit("phase", payload)``
    is kept, in order, in ``"phases"``, so a timed-out child still
    reports how far it got.  Returns ``{"status": "done"|"timeout"|
    "error", "value", "phases", "waited", "ended"}`` (``ended`` is the
    ``perf_counter`` time the result arrived or the deadline struck);
    the child has exited when this returns.
    """
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child_main, args=(child, fn, args), daemon=True)
    proc.start()
    child.close()
    outcome = {"status": "timeout", "value": None, "phases": [],
               "waited": deadline, "ended": None}
    started = None
    try:
        while True:
            if started is None:
                wait = 60.0
            else:
                wait = started + deadline - time.perf_counter()
            if wait <= 0 or not parent.poll(wait):
                outcome["ended"] = time.perf_counter()
                if started is None:
                    outcome.update(status="error", value="child never started")
                break
            try:
                kind, payload = parent.recv()
            except EOFError:
                outcome.update(status="error", value="child died")
                break
            now = time.perf_counter()
            if kind == "start":
                started = now
            elif kind == "phase":
                outcome["phases"].append(payload)
            elif kind == "done":
                outcome.update(status="done", value=payload,
                               waited=now - started, ended=now)
                break
            else:
                outcome.update(status="error", value=payload)
                break
    finally:
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=30)
        parent.close()
    if proc.is_alive():
        raise BenchError(f"child {proc.pid} did not exit after kill")
    return outcome


# ----------------------------------------------------------------------
# Statistics and run metadata
# ----------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q <= 1) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited child.

    ``ru_maxrss`` is a high-water mark per process (children: the largest
    one ever waited for), so the sum bounds what was resident at once.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def calibration_probe() -> float:
    """Seconds for a fixed pure-Python loop (median of 3).

    Recorded beside every result so numbers from different machines can
    be read side by side; it normalises nothing.
    """
    def probe() -> float:
        start = time.perf_counter()
        acc = 0
        table = {}
        for i in range(300_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
            table[acc & 1023] = i
        return time.perf_counter() - start

    return statistics.median(probe() for _ in range(3))


def source_revision() -> str:
    """The git commit when the checkout is a repository, else a digest of
    the ``src/`` tree (the benchmark also runs from plain exports)."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        lines = proc.stdout.split()
        if proc.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            return lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_metadata(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "revision": source_revision(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "calibration_s": calibration_probe(),
    }
