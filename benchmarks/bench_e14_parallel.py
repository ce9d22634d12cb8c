"""E14 — parallel indexing speedup vs. worker count.

The paper's detectors are black-box external processes: their cost is
dominated by waiting on decoding/tool I/O, not the Python interpreter.
This experiment models that with injected per-detector latency (sleeps
release the GIL) and measures how the staged per-video committer scales
batch indexing — while asserting the whole point of the design: the
parallel snapshot is byte-identical to the sequential one.

The CI benchmark-regression gate runs this module with
``--benchmark-json`` and fails when workers=4 stops beating sequential.
"""

import json
import time

from benchmarks.conftest import print_table
from repro.dataset import build_australian_open
from repro.faults import FaultInjector, FaultPlan
from repro.grammar.tennis import build_tennis_fde
from repro.library.indexing import LibraryIndexer

N_VIDEOS = 6
LATENCY = 0.2  # seconds per detector invocation (GIL-releasing sleep)
DETECTORS = ["segment", "tennis", "shape", "rules"]
PARALLEL_WORKERS = 4
MIN_SPEEDUP = 1.8

# test_e14_speedup_and_determinism reads the two timed runs from here.
_results: dict[int, dict] = {}


def _index_with_workers(tmp_path, workers: int) -> dict:
    dataset = build_australian_open(seed=1234, video_shots=3)
    fde = build_tennis_fde()
    FaultInjector(FaultPlan.latency(DETECTORS, LATENCY), fde.registry).install()
    indexer = LibraryIndexer(dataset, fde=fde)
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "meta.json"
    started = time.perf_counter()
    records = indexer.index_checkpointed(path, limit=N_VIDEOS, workers=workers)
    elapsed = time.perf_counter() - started
    document = json.loads(path.read_text())
    health = [
        (
            report.video_name,
            report.degraded,
            [(o.name, o.status, o.skipped_because) for o in report.outcomes.values()],
        )
        for report in indexer.health_reports()
    ]
    return {
        "elapsed": elapsed,
        "indexed": len(records),
        "checksum": document["checksum"],
        "tables": document["tables"],
        "health": health,
    }


def test_e14_sequential_indexing(benchmark, tmp_path):
    """Timed kernel: the sequential (workers=1) checkpointed batch."""
    result = benchmark.pedantic(
        _index_with_workers, args=(tmp_path, 1), rounds=1, iterations=1
    )
    assert result["indexed"] == N_VIDEOS
    _results[1] = result


def test_e14_parallel_indexing(benchmark, tmp_path):
    """Timed kernel: the same batch staged on 4 worker threads."""
    result = benchmark.pedantic(
        _index_with_workers, args=(tmp_path, PARALLEL_WORKERS), rounds=1, iterations=1
    )
    assert result["indexed"] == N_VIDEOS
    _results[PARALLEL_WORKERS] = result


def test_e14_speedup_and_determinism(tmp_path):
    """workers=4 is >= 1.8x faster and byte-identical to sequential."""
    for workers in (1, PARALLEL_WORKERS):
        if workers not in _results:  # ran standalone: measure here
            _results[workers] = _index_with_workers(tmp_path / str(workers), workers)
    sequential = _results[1]
    parallel = _results[PARALLEL_WORKERS]
    speedup = sequential["elapsed"] / parallel["elapsed"]
    print_table(
        f"E14: staged parallel indexing ({N_VIDEOS} videos, "
        f"{LATENCY * 1e3:.0f}ms injected latency x {len(DETECTORS)} detectors)",
        ["workers", "wall time", "speedup", "checksum"],
        [
            [1, f"{sequential['elapsed']:.2f}s", "1.0x", sequential["checksum"]],
            [
                PARALLEL_WORKERS,
                f"{parallel['elapsed']:.2f}s",
                f"{speedup:.1f}x",
                parallel["checksum"],
            ],
        ],
    )
    assert parallel["checksum"] == sequential["checksum"]
    assert parallel["tables"] == sequential["tables"]
    assert parallel["health"] == sequential["health"]
    assert speedup >= MIN_SPEEDUP, (
        f"workers={PARALLEL_WORKERS} speedup {speedup:.2f}x below the "
        f"{MIN_SPEEDUP}x gate"
    )
