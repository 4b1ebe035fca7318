"""Plumbing shared by every workload: spans, statistics, the hermetic
environment, and process accounting.

Nothing here imports ``repro``; the simulator is only ever touched through
the public functions the workload modules call, so every number the ledger
reports is taken from outside the program.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
#: Scratch space for caches, sockets and logs.  Inside the checkout (a
#: benchmark run may write nowhere else) and git-ignored.
WORK_DIR = BENCH_DIR / ".work"
RESULTS_DIR = BENCH_DIR / "results"


# --- spans -------------------------------------------------------------------


class Tracer:
    """In-memory span recorder.

    A span is ``{"id", "name", "start", "end", "parent", "job"}`` with times
    in seconds since the tracer was created.  Nesting follows the ``with``
    structure per thread; a span opened on another thread on behalf of a
    phase passes that phase's id as ``parent``.  Disabled, ``span`` hands
    back one shared no-op context, so an untraced run pays a method call
    and nothing else.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Dict[str, object]] = []
        self._origin = time.perf_counter()
        self._local = threading.local()
        self._null = contextlib.nullcontext()
        self._ids = itertools.count()

    def span(self, name: str, job: Optional[str] = None, parent: Optional[int] = None):
        if not self.enabled:
            return self._null
        return self._record(name, job, parent)

    @contextlib.contextmanager
    def _record(self, name: str, job: Optional[str], parent: Optional[int]) -> Iterator[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if parent is None and stack:
            parent = stack[-1]["id"]
        if job is None and stack:
            job = stack[-1]["job"]
        # next() on itertools.count and list.append are atomic in CPython,
        # which is all the two client threads of serve_mixed need.
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": parent,
            "job": job,
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(record)
        stack.append(record)
        record["start"] = time.perf_counter() - self._origin
        try:
            yield record["id"]
        finally:
            record["end"] = time.perf_counter() - self._origin
            stack.pop()


def span_children(spans: Sequence[Dict[str, object]]) -> Dict[object, List[Dict[str, object]]]:
    children: Dict[object, List[Dict[str, object]]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    return children


def self_times(spans: Sequence[Dict[str, object]]) -> Dict[object, float]:
    """Each span's duration minus the part of it its child spans cover.

    Children running in parallel (two client threads under one phase)
    overlap, so coverage is the *union* of the child intervals, clipped to
    the parent.
    """
    children = span_children(spans)
    out: Dict[object, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(child["start"], cursor), min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span["id"]] = (end - start) - covered
    return out


def top_level(spans: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    return [span for span in spans if span["parent"] is None]


# --- statistics --------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (no interpolation): the value below which
    ``fraction`` of the samples fall."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered) - 1e-9))
    return float(ordered[rank - 1])


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, quartiles and sample count, as the ledger stores them."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": values,
    }


def timed(fn, *args, **kwargs):
    """``(host seconds, value)`` of one call."""
    begin = time.perf_counter()
    value = fn(*args, **kwargs)
    return time.perf_counter() - begin, value


def digest_of(parts: Iterable[str]) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part.encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()


# --- hermetic environment ----------------------------------------------------


def require_source_tree() -> None:
    """Exit non-zero, before printing any result, when the simulator's
    source is not beside the benchmark."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"bench: simulator source not found at {SRC_DIR}", file=sys.stderr)
        raise SystemExit(2)


def make_workdir(label: str) -> Path:
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=WORK_DIR))


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_DIR.rmdir()  # only succeeds once the last run has left
    except OSError:
        pass


def enter_hermetic_env(workdir: Path) -> None:
    """Scrub every ``REPRO_*`` variable (kill switches, ``REPRO_JOBS``,
    ``REPRO_AUDIT``, ``REPRO_NO_CACHE``, ``REPRO_BENCH_SCALE``, socket and
    fleet addresses), so a leaked setting cannot change what is measured,
    then point the result cache at ``workdir`` and make ``repro``
    importable here and in every child process."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "cache")
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([inherited] if inherited else [])
    )
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


def host_descriptor() -> Dict[str, object]:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "cpu": model,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
    }


# --- process accounting ------------------------------------------------------


def _proc_stat(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            text = handle.read()
    except OSError:
        return None
    # "pid (comm) state ppid ... starttime ..."; comm may hold spaces.
    return text[text.rindex(")") + 2 :].split()


def descendants(root: Optional[int] = None) -> Dict[int, str]:
    """``{pid: start_time}`` of every live process below ``root``."""
    root = os.getpid() if root is None else root
    parent_of: Dict[int, int] = {}
    started: Dict[int, str] = {}
    try:
        entries = os.listdir("/proc")
    except OSError:
        return {}
    for entry in entries:
        if not entry.isdigit():
            continue
        fields = _proc_stat(int(entry))
        if fields is None or fields[0] == "Z":
            continue
        parent_of[int(entry)] = int(fields[1])
        started[int(entry)] = fields[19]
    found: Dict[int, str] = {}
    frontier = [root]
    while frontier:
        parent = frontier.pop()
        for pid, ppid in parent_of.items():
            if ppid == parent and pid not in found:
                found[pid] = started[pid]
                frontier.append(pid)
    return found


def survivors(seen: Dict[int, str], grace_s: float = 5.0) -> List[int]:
    """The pids of ``seen`` still alive after ``grace_s`` (same pid *and*
    start time, so a recycled pid does not count)."""
    deadline = time.monotonic() + grace_s
    while True:
        alive = []
        for pid, start in seen.items():
            fields = _proc_stat(pid)
            if fields is not None and fields[0] != "Z" and fields[19] == start:
                alive.append(pid)
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.05)


def peak_rss_mb() -> float:
    """Largest resident set, in MB, of this process, of any child it has
    already waited for, and of any descendant still running (a daemon and
    its worker are only reaped at teardown, so they are read from /proc)."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    for pid in descendants():
        try:
            with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
                        break
        except OSError:
            continue
    return peak_kb / 1024.0


def write_json(path: Path, payload: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
