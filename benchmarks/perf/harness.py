"""Statistics, failure accounting and process measurements for the benchmark.

Everything here is independent of the system under test, so the
self-tests can exercise it without building a library.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "BENCH_DIR",
    "CITED_ON",
    "DEFAULT_SEED",
    "OUT_DIR",
    "REPO_ROOT",
    "Failures",
    "Stat",
    "cores_kept_awake",
    "is_cited",
    "load_spec",
    "peak_rss_mb",
    "percentile",
    "pin_to_core",
    "supported_percentile",
    "weighted_percentile",
]

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parents[1]
#: Scratch output (snapshots, journals, span files, per-run results);
#: inside the checkout because the benchmark may write nowhere else.
OUT_DIR = BENCH_DIR / "out"

DEFAULT_SEED = 1234

#: A tail percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

_INGEST = ("ingest-batch", "ingest-stream")
_SERVE = ("serve-cold", "serve-hot", "serve-sharded")
#: The workloads an end-to-end metric is defined on (ISSUE 11's table): the
#: pairs a later issue may cite.  A metric not listed is every workload's.
#: The driver wants every metric from every workload, so the other cells are
#: filled too — by side-traffic, or by a number that says little there — but
#: the ledger marks them and ``compare`` passes no verdict on them.
CITED_ON = {
    "ingest_frames_per_s": ("ingest-batch",),
    "freshness_p50_ms": ("ingest-stream",),
    "freshness_max_ms": ("ingest-stream",),
    "query_p50_ms": (*_SERVE, "ingest-stream"),
    "query_p95_ms": (*_SERVE, "ingest-stream"),
    "queries_per_s": _SERVE,
    "text_p50_ms": ("serve-cold", "serve-sharded"),
    "concept_p50_ms": ("serve-cold", "serve-sharded"),
    "index_bytes_per_frame": _INGEST,
}


def is_cited(metric: str, workload: str) -> bool:
    """Whether *metric* is defined on *workload* (see :data:`CITED_ON`)."""
    return workload in CITED_ON.get(metric, (workload,))


def load_spec() -> dict:
    """``BENCHMARK.json`` — the one place metric names, units and bounds live."""
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, -(-len(ordered) * p // 100))  # ceil without floats
    return ordered[int(rank) - 1]


def weighted_percentile(pairs, p: float) -> float:
    """Nearest-rank percentile of ``(value, weight)`` pairs.

    Freshness is defined per frame; every frame of a chunk (or of a
    batch-indexed video) shares one value, so the chunk's value carries
    its frame count as weight instead of being repeated.
    """
    ordered = sorted(pairs)
    total = sum(weight for _, weight in ordered)
    if total <= 0:
        raise ValueError("weighted percentile of an empty sample")
    rank = total * p / 100.0
    seen = 0.0
    for value, weight in ordered:
        seen += weight
        if seen >= rank:
            return value
    return ordered[-1][0]


def supported_percentile(n: int) -> int:
    """The highest of p50/p90/p95/p99 with at least ten samples beyond it."""
    best = 50
    for p in (90, 95, 99):
        if n * (100 - p) / 100.0 >= MIN_SAMPLES_BEYOND:
            best = p
    return best


@dataclass(frozen=True)
class Stat:
    """One reported number: its value, its unit and how many samples made it."""

    value: float
    unit: str
    n: int = 1

    def contract(self) -> dict:
        return {"value": self.value, "unit": self.unit}


@dataclass
class Failures:
    """Operations attempted and failed, with the first few reasons kept.

    Failed = exception, rejected / degraded / stale / partial-coverage
    answer, shed or quarantined chunk, or oracle mismatch.
    """

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 8:
            self.reasons.append(reason)

    def check(self, condition: bool, reason: str) -> None:
        """One oracle check counted as one operation."""
        if condition:
            self.ok()
        else:
            self.fail(reason)


def peak_rss_mb(child_pids: tuple[int, ...] = ()) -> float:
    """Peak resident set of this process plus the given live children, in MB.

    Children are read from ``/proc/<pid>/status`` (``VmHWM``) while they
    are still alive — ``RUSAGE_CHILDREN`` only covers reaped children and
    reports their maximum, not their sum.
    """
    scale = 1024.0 if sys.platform != "darwin" else 1024.0 * 1024.0
    total = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale
    for pid in child_pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
                        break
        except OSError:
            pass
    return total


#: The cores this process may run on, read before anything is pinned.
_CORES = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def pin_to_core(index: int | None) -> None:
    """Pin every thread of this process to core ``index % n``.

    ``None`` lifts the pin.  Rounds alternate cores because a neighbour on
    the host can hold one core at ~60% speed for minutes: the guest cannot
    see that (no steal time is reported) and will not migrate away, but
    with rounds on both cores every timed item has samples from the clean
    one.  Threads started later inherit the pin of the thread starting them.
    """
    if not _CORES:
        return
    cores = set(_CORES) if index is None else {_CORES[index % len(_CORES)]}
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), cores)
        except OSError:
            pass  # the thread ended between the listing and the call


#: One spinner: pinned to a core, in the scheduler's idle class (any other
#: task preempts it at once), gone as soon as its parent is — so a killed
#: benchmark leaves nothing spinning — and after three minutes in any case.
_SPINNER = """
import os, sys, time
core, parent = int(sys.argv[1]), int(sys.argv[2])
os.sched_setaffinity(0, {core})
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    os.nice(19)
deadline = time.monotonic() + 180.0
while os.getppid() == parent and time.monotonic() < deadline:
    for _ in range(200000):
        pass
"""


@contextmanager
def cores_kept_awake():
    """Keep every core busy with an idle-class spinner while the block runs.

    For a workload that sleeps between items (``ingest-stream``: a chunk
    every 120 ms, a reader that thinks for 2 ms).  A virtual core that goes
    idle is handed back to the host, and the work that wakes it runs
    1.1-1.4x slower than the same work on a busy core — by how much depends
    on what the host's other guests did meanwhile, which moved every number
    of that workload by a third from one hour to the next.  The spinners
    take only time nobody wants, so the cores never go idle and the work
    costs what it costs.
    """
    spinners = [
        subprocess.Popen([sys.executable, "-c", _SPINNER, str(core), str(os.getpid())])
        for core in _CORES
    ]
    try:
        yield
    finally:
        for spinner in spinners:
            spinner.kill()
        for spinner in spinners:
            spinner.wait()
