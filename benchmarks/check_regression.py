#!/usr/bin/env python
"""CI benchmark-regression gate.

Reads a ``pytest-benchmark --benchmark-json`` report and fails (exit 1)
when the candidate benchmark's median runtime exceeds the baseline's by
more than the tolerance.  The CI workflow uses it to guarantee that
parallel (workers=4) indexing never regresses below sequential::

    python benchmarks/check_regression.py bench.json \\
        --baseline test_e14_sequential_indexing \\
        --candidate test_e14_parallel_indexing \\
        --tolerance 0.10

With ``--min-speedup`` the gate flips into speedup mode: the candidate
must be at least that many times *faster* than the baseline.  The E15
entry uses it to guarantee cached query serving keeps beating cold
evaluation::

    python benchmarks/check_regression.py bench.json \\
        --baseline test_e15_uncached_query \\
        --candidate test_e15_cached_query \\
        --min-speedup 10

With ``--max-extra KEY=VALUE`` / ``--zero-extra KEY`` the gate instead
bounds metrics the candidate recorded as benchmark ``extra_info`` —
non-latency numbers like shed rates or tail latencies.  The E16 entry
uses it to bound overload behaviour::

    python benchmarks/check_regression.py bench.json \\
        --candidate test_e16_overload_burst \\
        --max-extra shed_rate=0.60 --max-extra p99_ms=100 \\
        --zero-extra unlabeled

The E4 entries hold the window-local player tracker to its full-frame
oracle with a speedup gate and an exactness gate — at least twice as
fast, with not one differing ``TrackPoint``::

    python benchmarks/check_regression.py bench.json \\
        --baseline test_e4_reference_tracker \\
        --candidate test_e4_windowed_tracker \\
        --min-speedup 2
    python benchmarks/check_regression.py bench.json \\
        --candidate test_e4_windowed_tracker --zero-extra mismatches

The E17 entries gate the sharded scatter-gather layer the same way:
``parallel_deficit`` bounds how far batch indexing falls short of the
machine's ideal speedup (``min(shards, cores)``, so single-core runners
are judged fairly), while the fan-out gate demands byte-identical
merged results and labeled coverage on every answer::

    python benchmarks/check_regression.py bench.json \\
        --candidate test_e17_sharded_indexing \\
        --max-extra parallel_deficit=2.0
    python benchmarks/check_regression.py bench.json \\
        --candidate test_e17_scatter_gather \\
        --max-extra fanout_p99_ms=500 \\
        --zero-extra mismatches --zero-extra unlabeled

The E18 entry gates replicated serving's availability claim: with one
replica killed in every group mid-soak, callers must see **zero**
rejected, unlabeled, coverage-losing or mismatching answers, and every
killed replica must be rebuilt and back in rotation before the soak
ends::

    python benchmarks/check_regression.py bench.json \\
        --candidate test_e18_replica_kill_soak \\
        --max-extra fanout_p99_ms=2000 \\
        --zero-extra rejected --zero-extra unlabeled \\
        --zero-extra coverage_loss --zero-extra mismatches \\
        --zero-extra not_rejoined

``--min-extra KEY=VALUE`` is the floor-shaped sibling of ``--max-extra``
for metrics where bigger is better.  The E19 entries use it to hold
approximate shot retrieval to its quality bar — recall at the serving
``nprobe`` — while the speedup and byte-identity gates run alongside::

    python benchmarks/check_regression.py bench.json \\
        --baseline test_e19_brute_force \\
        --candidate test_e19_ann_search \\
        --min-speedup 5
    python benchmarks/check_regression.py bench.json \\
        --candidate test_e19_ann_search \\
        --min-extra recall_at_10=0.9 --zero-extra fused_mismatches

and hold the query-side embedding (one colour pass per sampled frame) to
its per-frame oracle — faster, with not one differing vector::

    python benchmarks/check_regression.py bench.json \\
        --baseline test_e19_embed_reference \\
        --candidate test_e19_embed \\
        --min-speedup 1.5
    python benchmarks/check_regression.py bench.json \\
        --candidate test_e19_embed --zero-extra embed_mismatches

The E20 entries gate streaming ingest's crash-safety and freshness
claims: chunk-append must end byte-identical to batch indexing, a kill
at every chunk-commit and snapshot crash point must resume to the same
bytes (zero lost or duplicated shots), a chunk's durable step (journal
pair + delta-log append) must cost the same streaming into a 12-video
catalog as into a 2-video one, and a paced feed under concurrent
readers must hold its p95 frame-arrival -> queryable latency inside the
SLO with zero sheds, quarantines or reader errors::

    python benchmarks/check_regression.py bench.json \\
        --candidate test_e20_streamed_batch_identity \\
        --zero-extra identity_mismatch
    python benchmarks/check_regression.py bench.json \\
        --candidate test_e20_kill_matrix \\
        --min-extra kill_scenarios=28 --zero-extra kill_failures
    python benchmarks/check_regression.py bench.json \\
        --candidate test_e20_commit_scaling \\
        --max-extra commit_cost_ratio=1.5
    python benchmarks/check_regression.py bench.json \\
        --candidate test_e20_freshness_soak \\
        --max-extra freshness_p95_ms=2000 \\
        --zero-extra reader_errors --zero-extra lag_sheds \\
        --zero-extra quarantined --zero-extra identity_mismatch
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def bench_of(report: dict, name: str) -> dict:
    for bench in report.get("benchmarks", []):
        if bench.get("name") == name:
            return bench
    raise SystemExit(f"benchmark {name!r} missing from the report")


def median_of(report: dict, name: str) -> float:
    return float(bench_of(report, name)["stats"]["median"])


def extra_of(report: dict, name: str, key: str) -> float:
    extra = bench_of(report, name).get("extra_info", {})
    if key not in extra:
        raise SystemExit(f"extra_info key {key!r} missing from benchmark {name!r}")
    return float(extra[key])


def check_extras(report: dict, args) -> int:
    """Gate on recorded ``extra_info`` metrics; returns the exit code."""
    failures = 0
    for bound in args.max_extra:
        key, _, limit_text = bound.partition("=")
        if not limit_text:
            raise SystemExit(f"--max-extra needs KEY=VALUE, got {bound!r}")
        limit = float(limit_text)
        value = extra_of(report, args.candidate, key)
        verdict = "OK" if value <= limit else "FAIL"
        print(f"{verdict}: {args.candidate} {key} = {value} (limit {limit})")
        failures += value > limit
    for bound in args.min_extra:
        key, _, limit_text = bound.partition("=")
        if not limit_text:
            raise SystemExit(f"--min-extra needs KEY=VALUE, got {bound!r}")
        limit = float(limit_text)
        value = extra_of(report, args.candidate, key)
        verdict = "OK" if value >= limit else "FAIL"
        print(f"{verdict}: {args.candidate} {key} = {value} (floor {limit})")
        failures += value < limit
    for key in args.zero_extra:
        value = extra_of(report, args.candidate, key)
        verdict = "OK" if value == 0 else "FAIL"
        print(f"{verdict}: {args.candidate} {key} = {value} (must be 0)")
        failures += value != 0
    if failures:
        print(f"FAIL: {failures} extra_info bound(s) violated", file=sys.stderr)
        return 1
    print("OK: every extra_info metric within bounds")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", help="pytest-benchmark JSON report path")
    parser.add_argument(
        "--baseline",
        default="test_e14_sequential_indexing",
        help="benchmark the candidate must not be slower than",
    )
    parser.add_argument(
        "--candidate",
        default="test_e14_parallel_indexing",
        help="benchmark under the gate",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="allowed slowdown fraction (0.10 = candidate may take up to "
        "110%% of the baseline median)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="speedup mode: the candidate must be at least this many "
        "times faster than the baseline (overrides --tolerance)",
    )
    parser.add_argument(
        "--max-extra",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="bound a candidate extra_info metric (repeatable); enables "
        "extra_info mode, which ignores --baseline/--tolerance",
    )
    parser.add_argument(
        "--min-extra",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="require a candidate extra_info metric to be at least this "
        "value (repeatable); enables extra_info mode like --max-extra",
    )
    parser.add_argument(
        "--zero-extra",
        action="append",
        default=[],
        metavar="KEY",
        help="require a candidate extra_info metric to be exactly 0 (repeatable)",
    )
    args = parser.parse_args(argv)

    report = json.loads(Path(args.report).read_text())
    if args.max_extra or args.min_extra or args.zero_extra:
        return check_extras(report, args)
    baseline = median_of(report, args.baseline)
    candidate = median_of(report, args.candidate)

    if args.min_speedup is not None:
        speedup = baseline / candidate if candidate > 0 else float("inf")
        print(
            f"baseline  {args.baseline}: {baseline:.6f}s\n"
            f"candidate {args.candidate}: {candidate:.6f}s "
            f"({speedup:.1f}x faster, gate {args.min_speedup:.1f}x)"
        )
        if speedup < args.min_speedup:
            print("FAIL: candidate speedup below the gate", file=sys.stderr)
            return 1
        print("OK: candidate speedup meets the gate")
        return 0

    limit = baseline * (1.0 + args.tolerance)
    ratio = candidate / baseline if baseline > 0 else float("inf")
    print(
        f"baseline  {args.baseline}: {baseline:.3f}s\n"
        f"candidate {args.candidate}: {candidate:.3f}s "
        f"({ratio:.2f}x baseline, limit {1.0 + args.tolerance:.2f}x)"
    )
    if candidate > limit:
        print("FAIL: candidate exceeds the regression limit", file=sys.stderr)
        return 1
    print("OK: candidate within the regression limit")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
