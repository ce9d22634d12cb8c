"""E15 — query serving: cached vs cold latency, reader throughput.

PRs 1-3 made the *indexing* half fast and safe; this experiment
measures the *search* half behind the new query-serving layer
(:mod:`repro.library.service`): a warm generation-keyed cache must
serve a repeated query mix at least ``MIN_SPEEDUP``x faster than cold
evaluation, cached answers must stay byte-identical to uncached ones —
including across an interleaved index commit — and concurrent readers
must scale against the shared cache.

``MIN_SPEEDUP`` is a ratio whose numerator is the miss path, so making
a miss cheaper lowers it without the hit getting any slower.  The ratio
only guards that a hit stays clearly cheaper than evaluation; that a
hit does *no* engine work is asserted directly (its trace holds only
the synthetic ``cache`` stage), and the hit's absolute cost is gated by
``query_p50_ms`` on the ``serve-hot`` workload of ``benchmarks/perf``.
Both paths moved when queries became prepared (the key is computed
once per query object, and the text stage reads its interviewees from
an access path): on a 2-core Xeon the mix went from 0.61 ms cold /
0.10 ms warm (5.9x) to 0.46 / 0.06 ms (7.9-8.4x).  The gate stays at 4x.

The CI benchmark-regression gate runs this module with
``--benchmark-json`` and fails when the cached path stops beating the
uncached path by ``--min-speedup``.
"""

import time
from concurrent.futures import ThreadPoolExecutor

from benchmarks.conftest import print_table
from repro.dataset import build_australian_open
from repro.library import DigitalLibraryEngine, LibraryQuery, LibrarySearchService

N_VIDEOS = 3
MIN_SPEEDUP = 4.0
N_READERS = 4
REQUESTS_PER_READER = 200

MIX = [
    LibraryQuery(top_n=100),
    LibraryQuery(event="rally"),
    LibraryQuery(event="net_play", text="approach the net"),
    LibraryQuery(event="service", player={"gender": "female"}),
    LibraryQuery(player={"handedness": "left", "past_winner": True}, event="net_play"),
    LibraryQuery(sequence=("service", "rally"), within=500),
    LibraryQuery(text="champion wins in straight sets"),
    LibraryQuery(event="baseline_play", top_n=5),
]

# Built once; the timed kernels and the consistency test share it.
_state: dict = {}


def _service() -> LibrarySearchService:
    if "service" not in _state:
        dataset = build_australian_open(seed=1234, video_shots=6)
        engine = DigitalLibraryEngine(dataset)
        service = LibrarySearchService(engine, cache_size=256)
        for plan in dataset.video_plans[:N_VIDEOS]:
            service.index_plan(plan)
        _state["service"] = service
    return _state["service"]


def _serve_mix(service: LibrarySearchService, bypass_cache: bool) -> list:
    return [service.search(query, bypass_cache=bypass_cache).results for query in MIX]


def test_e15_uncached_query(benchmark):
    """Timed kernel: the query mix evaluated cold (cache bypassed)."""
    service = _service()
    results = benchmark(_serve_mix, service, True)
    assert all(isinstance(r, list) for r in results)
    _state["uncached_results"] = results


def test_e15_cached_query(benchmark):
    """Timed kernel: the same mix answered from the warm cache."""
    service = _service()
    _serve_mix(service, False)  # populate
    results = benchmark(_serve_mix, service, False)
    _state["cached_results"] = results
    stats = service.stats()
    assert stats.cache_hits > 0


def test_e15_speedup_consistency_and_concurrency():
    """Cached serving is >= MIN_SPEEDUP x faster, byte-identical, and scales."""
    service = _service()

    def median_seconds(bypass_cache: bool, rounds: int = 9) -> float:
        times = []
        for _ in range(rounds):
            started = time.perf_counter()
            _serve_mix(service, bypass_cache)
            times.append(time.perf_counter() - started)
        return sorted(times)[len(times) // 2]

    _serve_mix(service, False)  # ensure the cache is warm
    # A warm request never enters the engine: no evaluation stage ran.
    for query in MIX:
        served = service.search(query)
        assert served.cache_hit
        assert set(served.trace.stage_seconds) == {"cache"}
    cold = median_seconds(True)
    warm = median_seconds(False)
    speedup = cold / warm

    # Byte-identical serving: every query, cached vs uncached.
    uncached = _state.get("uncached_results") or _serve_mix(service, True)
    cached = _state.get("cached_results") or _serve_mix(service, False)
    assert cached == uncached

    # Across an interleaved commit: the generation moves and the cache
    # refreshes to exactly the new uncached truth.
    generation = service.generation
    service.index_plan(service.engine.dataset.video_plans[N_VIDEOS])
    assert service.generation == generation + 1
    post_commit = [service.search(query) for query in MIX]
    assert all(not served.cache_hit for served in post_commit)
    assert all(served.generation == generation + 1 for served in post_commit)
    assert [s.results for s in post_commit] == _serve_mix(service, True)
    assert all(service.search(query).cache_hit for query in MIX)

    # Concurrent readers against the shared (re-warmed) cache.
    def reader(reader_id: int) -> int:
        for step in range(REQUESTS_PER_READER):
            service.search(MIX[(reader_id + step) % len(MIX)])
        return REQUESTS_PER_READER

    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=N_READERS) as pool:
        served = sum(pool.map(reader, range(N_READERS)))
    elapsed = time.perf_counter() - started

    stats = service.stats()
    print_table(
        f"E15: query serving ({N_VIDEOS}+1 videos, {len(MIX)}-query mix)",
        ["path", "latency/mix", "speedup", "throughput"],
        [
            ["cold (uncached)", f"{cold * 1e3:.2f} ms", "1.0x", "-"],
            ["warm (cached)", f"{warm * 1e3:.2f} ms", f"{speedup:.1f}x", "-"],
            [
                f"{N_READERS} readers",
                "-",
                "-",
                f"{served / elapsed:,.0f} q/s",
            ],
        ],
    )
    print(f"cache: {stats.cache_hits} hits / {stats.cache_misses} misses")
    assert speedup >= MIN_SPEEDUP, (
        f"cached serving speedup {speedup:.1f}x below the {MIN_SPEEDUP}x gate"
    )
