"""Run the whole benchmark: ``PYTHONPATH=src python -m benchmarks.perf``.

Each workload runs in a process of its own (``run.py``), so set-up time
and peak memory are that workload's alone.  Options:

    --workload W     only this workload (repeatable; default: all five)
    --seed N         input seed (default 1234)
    --seconds S      timed region per workload (default: BENCHMARK.json)
    --trace          also make the traced pass and print per-layer metrics
    --quick          tiny sizes, oracles only — a smoke test, never numbers
    --calibrate N    run everything N times on seeds SEED..SEED+N-1 plus one
                     traced pass, write the ledger results/BENCH_11.json and
                     name every cell that spreads wider than its bound allows
    --out FILE       where to write the JSON result (with --calibrate: the
                     ledger goes there instead)

Exit status is non-zero if any operation failed or any run was invalid.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from benchmarks.perf.harness import (
    BENCH_DIR,
    DEFAULT_SEED,
    OUT_DIR,
    REPO_ROOT,
    is_cited,
    load_spec,
)

LEDGER = BENCH_DIR / "results" / "BENCH_11.json"
#: The driver's contract allows no bound above this.
MAX_BOUND = 0.25
MIN_BOUND = 0.05
#: A bound should be this many times the widest relative IQR seen: the
#: driver asks for spreads below a third of the bound.
BOUND_FACTOR = 3.0


def run_once(workload: str, seed: int, seconds: float | None, trace: bool, quick: bool) -> dict:
    """One ``run.py`` process; returns its detail JSON (see run.py)."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload]
    command += ["--seed", str(seed), "--trace", "1" if trace else "0"]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=REPO_ROOT)
    lines = done.stdout.rstrip().splitlines()
    print("\n".join(lines[:-1]))  # the last line is the machine-readable one
    if done.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited with {done.returncode}")
    detail_path = OUT_DIR / f"{workload}-seed{seed}-trace{1 if trace else 0}.json"
    with open(detail_path, encoding="utf-8") as handle:
        return json.load(handle)


def environment() -> dict:
    import os

    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=REPO_ROOT
        ).stdout.strip()
    except OSError:
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit or "unknown",
    }


def spread_row(values: list[float]) -> dict:
    """Median, quartiles and relative spread (IQR / median) of one cell."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "runs": len(values),
        "values": values,
    }


def fold(workload: str, runs: list[dict]) -> dict:
    """metric -> spread row plus samples per run, over the runs of one workload."""
    rows = {}
    for name in runs[0]["end_to_end"]:
        cells = [run["end_to_end"][name] for run in runs]
        rows[name] = spread_row([cell["value"] for cell in cells])
        rows[name]["unit"] = cells[0]["unit"]
        rows[name]["samples_per_run"] = [cell["n"] for cell in cells]
        rows[name]["cited"] = is_cited(name, workload)
    return rows


def print_summary(ledger: dict) -> None:
    workloads = list(ledger["workloads"])
    names = list(next(iter(ledger["workloads"].values()))["end_to_end"])
    width = max(len(name) for name in names)
    print("\n== end to end: median over runs (relative spread) ==")
    print(" " * width + "".join(f"{w:>24}" for w in workloads))
    for name in names:
        cells = []
        for workload in workloads:
            row = ledger["workloads"][workload]["end_to_end"][name]
            cells.append(f"{row['median']:>15.4f} ({row['spread']:>5.1%})")
        print(f"{name:<{width}}" + "".join(f"{c:>24}" for c in cells))
    for workload in workloads:
        entry = ledger["workloads"][workload]
        print(f"{workload}: attempted {entry['attempted']}, failed {entry['failed']}")


def derive_bounds(ledger: dict, spec: dict) -> tuple[dict[str, float], list[str]]:
    """What this set alone supports, and the cells ``BENCHMARK.json`` is too tight for.

    metric -> ``max(0.05, 3 x its widest relative IQR)``, capped at the
    driver's 0.25: one bound serves a metric on all five workloads, so its
    noisiest workload sets it.  The bounds in force are ``BENCHMARK.json``'s
    (see the README for why a calm set does not tighten them); a cell that
    spreads wider than a third of its bound there is returned by name — it
    needs a steadier measurement, not a wider bound.
    """
    bounds = {}
    unsteady = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        widest = 0.0
        for workload, entry in ledger["workloads"].items():
            spread = entry["end_to_end"][name]["spread"]
            widest = max(widest, spread)
            if BOUND_FACTOR * spread > metric["bound"] and name != "setup_s":
                unsteady.append(f"{name}@{workload} ({spread:.1%})")
        wanted = math.ceil(BOUND_FACTOR * widest * 100.0) / 100.0
        bounds[name] = min(MAX_BOUND, max(MIN_BOUND, wanted))
    bounds["setup_s"] = max(bounds.values())
    return bounds, unsteady


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--calibrate", type=int, default=0, metavar="N")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    chosen = args.workload or names
    repeats = max(1, args.calibrate)
    runs: dict[str, list[dict]] = {name: [] for name in chosen}
    traced: dict[str, dict] = {}
    for repeat in range(repeats):
        # Calibration varies the seed: the driver's spread is taken across
        # seeds, so the bounds must cover what the inputs add to the noise.
        seed = args.seed + repeat
        for name in chosen:
            runs[name].append(run_once(name, seed, args.seconds, False, args.quick))
            if repeat == 0 and (args.trace or args.calibrate):
                traced[name] = run_once(name, seed, args.seconds, True, args.quick)

    ledger = {
        "issue": 11,
        "seeds": [args.seed + repeat for repeat in range(repeats)],
        "seconds": args.seconds or spec["run_seconds"],
        "quick": args.quick,
        "environment": environment(),
        "workloads": {
            name: {
                "attempted": sum(run["attempted"] for run in runs[name]),
                "failed": sum(run["failed"] for run in runs[name]),
                "end_to_end": fold(name, runs[name]),
                "per_layer": traced.get(name, {}).get("per_layer", {}),
                "counts": runs[name][0]["counts"],
            }
            for name in chosen
        },
    }
    print_summary(ledger)

    out_path = args.out or (LEDGER if args.calibrate else OUT_DIR / "result.json")
    if args.calibrate:
        ledger["bounds"], unsteady = derive_bounds(ledger, spec)
        print(f"bounds this set alone supports: {ledger['bounds']}")
        if unsteady:
            print(f"spread above a third of the bound in force: {', '.join(unsteady)}")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(ledger, indent=1) + "\n", encoding="utf-8")
    print(f"result written to {out_path}")
    failed = sum(entry["failed"] for entry in ledger["workloads"].values())
    invalid = [
        f"{name} seed {run['seed']}: {reason}"
        for name in chosen
        for run in runs[name] + [traced[name]] * (name in traced)
        for reason in run["invalid"]
    ]
    for reason in invalid:
        print(f"invalid: {reason}")
    return 1 if failed or invalid else 0


if __name__ == "__main__":
    sys.exit(main())
