"""Run one workload once and print its result.

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

Prints every metric by name with its unit and sample count, then — as the
last line of standard output — one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A fuller result (sample counts, exact-repeat counters,
failure reasons) is written under ``benchmarks/perf/out/``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up is everything from process start

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_ROOT = Path(__file__).resolve().parents[2]
for _entry in (str(_ROOT / "src"), str(_ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.perf.harness import (  # noqa: E402
    DEFAULT_SEED,
    OUT_DIR,
    Stat,
    load_spec,
    percentile,
    supported_percentile,
    weighted_percentile,
)
from benchmarks.perf.layers import derive, summarise  # noqa: E402
from benchmarks.perf.client import QueryRound  # noqa: E402
from benchmarks.perf.workloads import IngestRound, Outcome, TraceRun, run_workload  # noqa: E402


def fold_ingest(rounds: list[IngestRound]) -> IngestRound:
    """Rounds over the same videos (or chunks) folded into one pass.

    Rounds replay identical work, so two timings of one item differ only
    by what the machine was doing; the item's best time is the least
    disturbed.  Folding item by item needs the machine to hold its speed
    for one item (a fraction of a second), not for a whole round.
    """
    layouts = {tuple(frames for _, frames in r.freshness_ms) for r in rounds}
    if len(layouts) != 1:
        raise RuntimeError(f"{len(rounds)} ingest rounds, {len(layouts)} different layouts")
    (layout,) = layouts
    best_ms = [min(r.freshness_ms[i][0] for r in rounds) for i in range(len(layout))]
    first = rounds[0]
    if first.open_loop:  # the schedule sets the wall, whatever the items took
        wall = min(r.wall_s for r in rounds)
        busy = min(r.busy_s for r in rounds)
    else:  # closed loop: the wall is the work
        between = min(r.wall_s - sum(ms for ms, _ in r.freshness_ms) / 1e3 for r in rounds)
        wall = busy = sum(best_ms) / 1e3 + max(0.0, between)
    return IngestRound(sum(layout), wall, list(zip(best_ms, layout)), busy, first.open_loop)


def fold_queries(rounds: list[QueryRound]) -> QueryRound:
    """Rounds replaying one request stream folded into one pass.

    Every request of the first round is reduced to the best time seen, in
    any round, for the same query with the same outcome (hit or miss) —
    the same work, so its best timing is the least disturbed.
    """
    best: dict[tuple[int, str], float] = {}
    for query_round in rounds:
        for key, ms in zip(query_round.keys, query_round.all_ms):
            if ms < best.get(key, float("inf")):
                best[key] = ms
    first = rounds[0]
    best_ms = [best[key] for key in first.keys]
    # Time per request spent outside requests: loop overhead, think time.
    idle = min((r.wall_s - sum(r.all_ms) / 1e3) / len(r.all_ms) for r in rounds)
    wall = sum(best_ms) / 1e3 + max(0.0, idle) * len(best_ms)
    return QueryRound(first.shapes, best_ms, first.keys, wall)


def _latency(samples: list[float], p: int, strict: bool) -> float:
    if strict and supported_percentile(len(samples)) < p:
        raise RuntimeError(f"p{p} needs ten samples beyond it; the pass has {len(samples)}")
    return percentile(samples, p)


def end_to_end(out: Outcome, strict: bool = True) -> dict[str, tuple[float, int]]:
    """The end-to-end metrics of one run as ``(value, samples)``, from its
    untraced rounds.

    The sandbox's cores drift between two speeds about 1.6x apart, in
    stretches of tenths of a second to several seconds, so a median over
    rounds lands wherever the mix of the moment puts it.  Rounds replay
    identical work instead — a fixed number of them, so the statistic does
    not depend on how fast they ran — and every timed item is reduced to
    its best time across rounds (:func:`fold_ingest`, :func:`fold_queries`);
    the statistics are then those of one undisturbed pass.

    The reader of ``ingest-stream`` is the exception: what its requests
    wait behind (commits, the GIL) is the measurement, so no request is
    folded away — each statistic is taken per round, waits and all, and the
    best round's is reported: the least disturbed round, by the same
    argument.  (The median round's p95 read 27% apart from run to run where
    the best round's read 12%.)

    The sample count is that of independent samples under the statistic in
    one pass: videos or chunks for the ingest numbers, requests for the
    query numbers.  A tail percentile is refused (*strict*) without ten
    samples beyond it — where the request count is the workload's design;
    how many requests the reader got in is the machine's doing, and a short
    round of its is named in ``Outcome.invalid`` instead.  Freshness, which
    has a handful of items per pass, reports its median and its slowest item.
    """
    strict = strict and out.fold_queries
    ingest = fold_ingest([r for r in out.ingest if not r.traced])
    asked = [r for r in out.queries if not r.traced]
    passes = [fold_queries(asked)] if out.fold_queries else asked
    passes = [one for one in passes if not one.disturbed] or passes

    def best_pass(statistic, best=min) -> float:
        return best(statistic(one) for one in passes)

    items = len(ingest.freshness_ms)
    requests = min(len(one.all_ms) for one in passes)
    stats = {
        "setup_s": (out.setup_s, 1),
        "ingest_frames_per_s": (ingest.frames / ingest.wall_s, items),
        "freshness_p50_ms": (weighted_percentile(ingest.freshness_ms, 50), items),
        "freshness_max_ms": (max(ms for ms, _ in ingest.freshness_ms), items),
        "peak_rss_mb": (out.peak_rss_mb, 1),
        "index_bytes_per_frame": (out.index_bytes_per_frame, 1),
        "queries_per_s": (best_pass(lambda one: len(one.all_ms) / one.wall_s, max), requests),
    }
    for p in (50, 95):
        stats[f"query_p{p}_ms"] = (
            best_pass(lambda one, p=p: _latency(one.all_ms, p, strict)),
            requests,
        )
    for shape in ("text", "concept"):
        stats[f"{shape}_p50_ms"] = (
            best_pass(lambda one, shape=shape: percentile(one.of_shape(shape), 50)),
            min(len(one.of_shape(shape)) for one in passes),
        )
    return stats


def _unit_cost(out: Outcome, ingest_bound: bool, traced: bool) -> float:
    """Folded seconds per frame (ingest workloads) or per request, by tracing."""
    if ingest_bound:
        ingest = fold_ingest([r for r in out.ingest if r.traced is traced])
        return ingest.busy_s / ingest.frames
    queries = fold_queries([r for r in out.queries if r.traced is traced])
    return queries.wall_s / len(queries.all_ms)


def per_layer(name: str, out: Outcome, trace: TraceRun) -> dict[str, float]:
    """The per-layer metrics of a ``--trace 1`` pass.

    Span-derived numbers come from the traced rounds; latency samples
    (p99, by-example p50, the reader's worst stall) from the untraced
    ones, which is also what the overhead ratio compares against.
    """
    untraced = [r for r in out.queries if not r.traced]
    ingest_bound = name.startswith("ingest")
    extras = dict(out.extras)
    # The coordinator's requests are the sharding layer's, not a local service's.
    served_by = "sharded_ms" if name == "serve-sharded" else "latencies_ms"
    extras[served_by] = [ms for r in untraced for ms in r.all_ms]
    extras["like_ms"] = [ms for r in untraced for ms in r.of_shape("like")]
    extras["overhead_ratio"] = _unit_cost(out, ingest_bound, True) / _unit_cost(
        out, ingest_bound, False
    )
    metrics = derive(summarise(trace.tracer, trace.rounds), extras)
    if name == "ingest-batch":
        share = metrics["tracing.unattributed_s"] / metrics["tracing.traced_wall_s"]
        if share > 0.05:
            raise RuntimeError(f"unattributed time is {share:.1%} of the traced wall (> 5%)")
    return metrics


def _print_table(title: str, stats: dict[str, Stat]) -> None:
    width = max(len(name) for name in stats)
    print(f"\n== {title} ==")
    for name, stat in stats.items():
        print(f"{name:<{width}}  {stat.value:>14.4f} {stat.unit:<9} n={stat.n}")


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="tiny sizes: oracles only")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(spec["run_seconds"])

    out, trace = run_workload(
        args.workload,
        args.seed,
        args.seconds,
        trace=bool(args.trace),
        quick=args.quick,
        started=_STARTED,
    )
    measured = end_to_end(out, strict=not args.quick)
    stats = {}
    for metric in spec["end_to_end"]:
        value, n = measured[metric["name"]]
        stats[metric["name"]] = Stat(value, metric["unit"], n)
    _print_table(f"{args.workload} seed={args.seed}: end to end", stats)
    reported = {m["name"]: stats[m["name"]].contract() for m in spec["end_to_end"]}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": sum(1 for r in out.queries if not r.traced),
        "attempted": out.failures.attempted,
        "failed": out.failures.failed,
        "reasons": out.failures.reasons,
        "invalid": out.invalid,
        "end_to_end": {k: {"value": s.value, "unit": s.unit, "n": s.n} for k, s in stats.items()},
        "counts": {
            k: v for k, v in out.extras.items() if not isinstance(v, list) or k == "cache_rounds"
        },
    }
    if trace is not None:
        layers = per_layer(args.workload, out, trace)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        layer_stats = {name: Stat(layers[name], unit) for name, unit in units.items()}
        _print_table(f"{args.workload} seed={args.seed}: per layer (traced rounds)", layer_stats)
        reported = {name: stat.contract() for name, stat in layer_stats.items()}
        detail["per_layer"] = {name: stat.value for name, stat in layer_stats.items()}
        trace.tracer.write_jsonl(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl")
    print(f"\nuntraced rounds {detail['rounds']}")
    print(f"operations attempted {out.failures.attempted}, failed {out.failures.failed}")
    for reason in out.failures.reasons:
        print(f"  failed: {reason}")
    for reason in out.invalid:
        print(f"  disturbed: {reason}")
    result_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(
        json.dumps(
            {
                "correct": out.failures.failed == 0,
                "attempted": out.failures.attempted,
                "failed": out.failures.failed,
                "metrics": reported,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
