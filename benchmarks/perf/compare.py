"""Compare two ledger files: ``python -m benchmarks.perf.compare A.json B.json``.

*A* is the parent commit's ledger, *B* the change's (both written by
``python -m benchmarks.perf --calibrate N`` with identical settings).
Every (end-to-end metric, workload) row a metric is defined on (``CITED_ON``
in ``harness.py``) gets one label; the cells the driver's contract makes
every workload fill besides (side-traffic) are shown as ``side`` and pass
no verdict:

- ``regressed`` — B's median is worse than A's by more than the metric's bound;
- ``unresolved`` — the run-to-run spread of either side is wider than the
  bound, so "no change" cannot be claimed — unless every run of B reads
  better than every run of A;
- ``improved`` — B wins at least nine tenths of the run pairs (ties count
  for neither) and the medians differ by more than A's own quartile range;
- ``unchanged`` — otherwise.

Exit status is non-zero on any ``regressed`` row, or when B failed a
larger share of its operations than A.
"""

from __future__ import annotations

import json
import sys

from benchmarks.perf.harness import is_cited, load_spec

__all__ = ["label_row", "compare"]


def label_row(parent: dict, change: dict, better: str, bound: float) -> tuple[str, float]:
    """The label of one row and B's relative change (positive = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    a, b = parent["median"], change["median"]
    worse_by = sign * (b - a) / a if a else 0.0
    a_runs = [sign * v for v in parent["values"]]
    b_runs = [sign * v for v in change["values"]]
    if worse_by > bound:
        return "regressed", worse_by
    all_better = max(b_runs) < min(a_runs)
    if max(parent["spread"], change["spread"]) > bound and not all_better:
        return "unresolved", worse_by
    pairs = list(zip(a_runs, b_runs))
    wins = sum(1 for x, y in pairs if y < x)
    losses = sum(1 for x, y in pairs if y > x)
    decided = wins + losses
    iqr = abs(parent["q3"] - parent["q1"])
    if decided and wins >= 0.9 * decided and abs(b - a) > iqr:
        return "improved", worse_by
    return "unchanged", worse_by


def compare(parent: dict, change: dict, spec: dict) -> tuple[list[tuple], bool]:
    """All rows as ``(workload, metric, label, change)`` and whether B may land."""
    rows = []
    ok = True
    for workload, a_entry in parent["workloads"].items():
        b_entry = change["workloads"].get(workload)
        if b_entry is None:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            label, worse_by = label_row(
                a_entry["end_to_end"][name],
                b_entry["end_to_end"][name],
                metric["better"],
                metric["bound"],
            )
            if not is_cited(name, workload):
                label = "side"
            rows.append((workload, name, label, worse_by))
            ok = ok and label != "regressed"
        a_share = a_entry["failed"] / max(1, a_entry["attempted"])
        b_share = b_entry["failed"] / max(1, b_entry["attempted"])
        if b_share > a_share:
            rows.append((workload, "failed operations", "regressed", b_share - a_share))
            ok = False
    return rows, ok


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0], encoding="utf-8") as a, open(argv[1], encoding="utf-8") as b:
        rows, ok = compare(json.load(a), json.load(b), load_spec())
    for workload, name, label, worse_by in rows:
        print(f"{workload:<14} {name:<22} {label:<10} {-worse_by:+8.1%} (positive = better)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
