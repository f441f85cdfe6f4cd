"""Summaries of result sets and the parent-versus-change comparison.

A result set is a JSON-lines file with one record per run, as ``run.py
suite --out`` writes it: ``{"info": {...}, "result": {...}}``, where
``result`` is the line a single run prints last.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Iterable

# A claimed gain must win this share of parent/change pairs (ties count
# for neither) and move the median by more than the parent's own spread.
WIN_SHARE = 0.9


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(values)
    n = len(ordered)
    index = max(0, n - 11)
    return 100.0 * (index + 1) / n, ordered[index]


def _series(records: Iterable[dict], workload: str, metric: str) -> dict[int, float]:
    return {
        r["info"]["seed"]: r["result"]["metrics"][metric]["value"]
        for r in records
        if r["info"]["workload"] == workload and metric in r["result"]["metrics"]
    }


def summarize(records: list[dict], spec: dict) -> list[str]:
    """Median, quartiles and relative spread of each end-to-end metric."""
    lines = [f"{'workload':<18} {'metric':<14} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
             f"{'spread':>7} {'bound':>6}  runs  error_rate"]
    for workload in spec["workloads"]:
        runs = [r for r in records if r["info"]["workload"] == workload["name"]]
        if not runs:
            continue
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        for metric in spec["end_to_end"]:
            values = list(_series(runs, workload["name"], metric["name"]).values())
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            lines.append(
                f"{workload['name']:<18} {metric['name']:<14} {metric['unit']:<6} {median:>12.6g} "
                f"{q1:>12.6g} {q3:>12.6g} {(q3 - q1) / median:>7.3f} {metric['bound']:>6.2f}  "
                f"{len(values):>4}  {failed / attempted:.4f}"
            )
    return lines


def verdict(parent: dict[int, float], change: dict[int, float], better: str, bound: float) -> tuple[str, float]:
    """better / worse / unchanged / unresolved, and the change's win share.

    Runs pair up by seed.  ``better`` needs the choosing-metrics rule: wins
    in at least nine tenths of the pairs and a median shift larger than
    the parent's interquartile range.  ``worse`` means the change's median
    is worse than the parent's by more than ``bound`` of it.  When either
    side's spread is wider than ``bound`` and the change does not read
    better on every run, the pairing is ``unresolved``, not unchanged.
    """
    sign = -1.0 if better == "lower" else 1.0
    seeds = sorted(parent.keys() & change.keys())
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    share = wins / len(seeds) if seeds else 0.0
    p_q1, p_med, p_q3 = quartiles(list(parent.values()))
    c_q1, c_med, c_q3 = quartiles(list(change.values()))
    if share >= WIN_SHARE and sign * (c_med - p_med) > p_q3 - p_q1:
        return "better", share
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "worse", share
    spread = max((p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med))
    all_better = min(sign * v for v in change.values()) > max(sign * v for v in parent.values())
    if spread > bound and not all_better:
        return "unresolved", share
    return "unchanged", share


def failures(records: list[dict], workload: str) -> tuple[int, int, bool]:
    """(failed, attempted, every run correct) of one workload's runs."""
    runs = [r["result"] for r in records if r["info"]["workload"] == workload]
    return (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs),
            all(r["correct"] for r in runs))


def compare(parent: list[dict], change: list[dict], spec: dict) -> list[str]:
    """One row per workload and end-to-end metric.

    A change that fails the output check on any run of a workload, or
    fails a larger share of its calls than the parent, is ``worse`` on
    every metric of that workload, whatever its times.  Sets measured
    for different run lengths are not compared at all.
    """
    lengths = [{r["info"]["seconds"] for r in records} for records in (parent, change)]
    if lengths[0] != lengths[1]:
        raise ValueError(f"run lengths differ: parent {sorted(lengths[0])}, change {sorted(lengths[1])} seconds")
    lines = [f"{'workload':<18} {'metric':<14} {'parent median [q1, q3]':>36} "
             f"{'change median [q1, q3]':>36} {'wins':>5}  verdict"]
    for workload in spec["workloads"]:
        p_failed, p_attempted, _ = failures(parent, workload["name"])
        c_failed, c_attempted, c_correct = failures(change, workload["name"])
        fails_more = not c_correct or (
            c_attempted and c_failed / c_attempted > (p_failed / p_attempted if p_attempted else 0.0)
        )
        for metric in spec["end_to_end"]:
            p = _series(parent, workload["name"], metric["name"])
            c = _series(change, workload["name"], metric["name"])
            if not p or not c:
                continue
            result, share = verdict(p, c, metric["better"], metric["bound"])
            if fails_more:
                result = "worse (fails more)"
            cells = []
            for values in (p, c):
                q1, med, q3 = quartiles(list(values.values()))
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}]")
            lines.append(f"{workload['name']:<18} {metric['name']:<14} {cells[0]:>36} {cells[1]:>36} "
                         f"{share:>5.2f}  {result}")
    for workload in spec["workloads"]:
        counts = [failures(records, workload["name"]) for records in (parent, change)]
        if counts[0][1] and counts[1][1]:
            lines.append(f"{workload['name']}: failed calls {counts[0][0]} of {counts[0][1]} at the parent, "
                         f"{counts[1][0]} of {counts[1][1]} with the change")
        digests = [{r["info"]["seed"]: r["info"]["digest"] for r in records
                    if r["info"]["workload"] == workload["name"]} for records in (parent, change)]
        seeds = digests[0].keys() & digests[1].keys()
        if seeds:
            same = sum(digests[0][s] == digests[1][s] for s in seeds)
            lines.append(f"{workload['name']}: outputs identical on {same} of {len(seeds)} common seeds")
    return lines
