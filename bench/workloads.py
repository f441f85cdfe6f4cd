"""Seeded workloads: input generation, CLI arguments and output checks.

Each workload turns a numpy generator into input files under a work
directory and the argv for one ``scindex.cli.main`` call.  Sizes are
fixed and only the drawn values depend on the seed, so the cost of a
call barely moves from seed to seed.  They keep one call at 0.2-0.3 s on
a 2-vCPU Xeon VM, so that a run of ``run_seconds`` holds about fifty
samples, enough for a tail percentile with ten samples beyond it.

The check of a workload reads the files the last call left on disk and
compares them with values computed by ``reference`` from the generated
inputs; it returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference

MANY_AUTHORS = 1000
MANY_PAPERS_MEDIAN = 35
MANY_PAPERS = 48_000
GIANT_SIZES = np.linspace(15_000, 25_000, 8).astype(int)
SUMMARY_ROWS = 6000
PROBE_BASE_LEN = 300
PROBE_LAMBDAS = tuple(range(1, 13))


@dataclass
class Prepared:
    """One workload's generated inputs, ready to run."""

    argv: list[str]
    outputs: list[Path]  # files every call writes; digested after each call
    records: int  # units of work in one call, for records_per_s
    props: dict  # input properties, recorded with the result
    check: Callable[[int], list[str]]  # final exit code -> problems


def _code_problems(code: int, expected: int) -> list[str]:
    return [] if code == expected else [f"exit code {code}, expected {expected}"]


def _read_tsv(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]


def _write(path: Path, text: str) -> int:
    path.write_text(text, encoding="utf-8")
    return len(text.encode("utf-8"))


def many_authors(rng: np.random.Generator, workdir: Path) -> Prepared:
    # Log-normal paper counts, rescaled so that every seed has the same
    # total number of papers.
    raw = rng.lognormal(math.log(MANY_PAPERS_MEDIAN), 0.8, MANY_AUTHORS)
    sizes = np.maximum(1, np.rint(raw * MANY_PAPERS / raw.sum())).astype(np.int64)
    counts = rng.zipf(2.0, int(sizes.sum())) - 1
    portfolios = np.split(counts, np.cumsum(sizes)[:-1])
    labels = [f"author{k:05d}" for k in range(MANY_AUTHORS)]
    lines = ["author,citations"]
    lines += [f'{label},"{";".join(map(str, c.tolist()))}"' for label, c in zip(labels, portfolios)]
    source = workdir / "authors.csv"
    size = _write(source, "\n".join(lines) + "\n")
    out = workdir / "table.json"

    def check(code: int) -> list[str]:
        problems = _code_problems(code, 0)
        rows = json.loads(out.read_text(encoding="utf-8"))
        if [row.get("author") for row in rows] != labels:
            return problems + ["author labels differ from the input"]
        for row, c in zip(rows, portfolios):
            if set(row) != {"author", *reference.NAMES}:
                problems.append(f"{row['author']}: columns {sorted(row)}")
                continue
            for name in reference.NAMES:
                if row[name]["dimension"] != reference.DIMENSIONS[name] or "reconstructed" in row[name]:
                    problems.append(f"{row['author']}: {name} cell {row[name]}")
            got = {name: row[name]["value"] for name in reference.NAMES}
            problems += reference.value_problems(row["author"], got, reference.indicators(c))
        return problems

    return Prepared(
        argv=["compute", str(source), "--output-format", "json", "-o", str(out)],
        outputs=[out],
        records=MANY_AUTHORS,
        props={"authors": MANY_AUTHORS, "papers": int(sizes.sum()),
               "citations": int(counts.sum()), "max_count": int(counts.max()), "bytes": size},
        check=check,
    )


def few_giants(rng: np.random.Generator, workdir: Path) -> Prepared:
    sizes = rng.permutation(GIANT_SIZES)
    portfolios = [np.floor(rng.lognormal(1.5, 1.2, int(n))).astype(np.int64) for n in sizes]
    labels = [f"giant{k}" for k in range(len(sizes))]
    source = workdir / "giants.json"
    size = _write(source, json.dumps(
        [{"author": label, "citations": c.tolist()} for label, c in zip(labels, portfolios)]
    ))
    out = workdir / "correlation.tsv"

    def check(code: int) -> list[str]:
        problems = _code_problems(code, 0)
        refs = [reference.indicators(c) for c in portfolios]
        matrix = np.corrcoef(np.array([[r[name] for name in reference.NAMES] for r in refs]).T)
        lines = _read_tsv(out)
        if lines[0] != ["correlation", *reference.NAMES] or [line[0] for line in lines[1:]] != list(reference.NAMES):
            return problems + [f"matrix headers {lines[0]}"]
        if any(len(line) != len(lines[0]) for line in lines):
            return problems + ["ragged matrix rows"]
        for a, line in enumerate(lines[1:]):
            for b, cell in enumerate(line[1:]):
                if len(cell.partition(".")[2]) != 2 or not reference.printed_ok(cell, matrix[a, b], 2):
                    problems.append(f"r({reference.NAMES[a]}, {reference.NAMES[b]}) = {cell}, reference {matrix[a, b]!r}")
        return problems

    total = int(sum(int(c.sum()) for c in portfolios))
    return Prepared(
        argv=["correlate", str(source), "-o", str(out)],
        outputs=[out],
        records=len(sizes),
        props={"authors": len(sizes), "papers": int(sizes.sum()), "citations": total,
               "max_count": int(max(c.max() for c in portfolios)), "bytes": size},
        check=check,
    )


def summary_table(rng: np.random.Generator, workdir: Path) -> Prepared:
    papers = np.maximum(1, np.rint(rng.lognormal(math.log(60), 0.9, SUMMARY_ROWS))).astype(np.int64)
    impact = rng.lognormal(2.0, 0.8, SUMMARY_ROWS)
    evenness = rng.uniform(0.05, 1.0, SUMMARY_ROWS)
    h = rng.integers(1, papers + 1)
    rows = [
        (f"author{k:05d}", int(p), float(i), float(eta), int(hk))
        for k, (p, i, eta, hk) in enumerate(zip(papers, impact, evenness, h))
    ]
    source = workdir / "summary.csv"
    size = _write(source, "author,P,i,eta,h\n" + "".join(
        f"{label},{p},{i!r},{eta!r},{hk}\n" for label, p, i, eta, hk in rows
    ))
    out = workdir / "summary.tsv"
    columns = [name for name in reference.NAMES if name != "g"]

    def check(code: int) -> list[str]:
        problems = _code_problems(code, 0)
        lines = _read_tsv(out)
        if lines[0] != ["author", *columns]:
            return problems + [f"header {lines[0]}"]
        if lines[1] != ["dimensions", *(reference.DIMENSIONS[n] for n in columns)]:
            problems.append(f"dimension row {lines[1]}")
        if [line[0] for line in lines[2:]] != [row[0] for row in rows]:
            return problems + ["author labels differ from the input"]
        for line, (label, p, i, eta, hk) in zip(lines[2:], rows):
            if len(line) != len(columns) + 1:
                problems.append(f"{label}: {len(line) - 1} cells")
                continue
            want = reference.from_summary(p, i, eta, hk)
            for name, cell in zip(columns, line[1:]):
                if not reference.printed_ok(cell, want[name], 2):
                    problems.append(f"{label}: {name} = {cell}, reference {want[name]!r}")
        return problems

    return Prepared(
        argv=["compute", str(source), "-o", str(out)],
        outputs=[out],
        records=SUMMARY_ROWS,
        props={"authors": SUMMARY_ROWS, "papers": int(papers.sum()), "bytes": size},
        check=check,
    )


def probe_replication(rng: np.random.Generator, workdir: Path) -> Prepared:
    base = rng.zipf(1.8, PROBE_BASE_LEN).astype(np.int64)
    out = workdir / "probe.tsv"
    svg = workdir / "probe.svg"
    points = svg.with_suffix(".csv")

    def check(code: int) -> list[str]:
        lines = _read_tsv(out)
        if lines[0] != ["index", "declared", "slope", "max_residual", "verdict", "note"]:
            return [f"header {lines[0]}"]
        rows = {line[0]: line for line in lines[1:]}
        if list(rows) != list(reference.NAMES):
            return [f"indicators {list(rows)}"]
        problems = []
        for name, (_, declared, slope, _, verdict, _) in rows.items():
            if declared != str(reference.EXPONENTS[name]):
                problems.append(f"{name}: declared {declared}")
            if name == "g":
                continue
            if verdict != "pass" or abs(float(slope) - float(reference.EXPONENTS[name])) > reference.SLOPE_TOL:
                problems.append(f"{name}: slope {slope} verdict {verdict}")
        problems += _code_problems(code, 2 if rows["g"][4] == "fail" else 0)
        refs = {lam: reference.indicators(np.repeat(lam * base, lam)) for lam in PROBE_LAMBDAS}
        with points.open(encoding="utf-8", newline="") as handle:
            plotted = list(csv.DictReader(handle))
        got: dict[float, dict[str, float]] = {}
        for point in plotted:
            got.setdefault(float(point["x"]), {})[point["series"]] = float(point["y"])
        if list(got) != [float(lam) for lam in PROBE_LAMBDAS]:
            return problems + [f"plotted scale factors {list(got)}"]
        for lam in PROBE_LAMBDAS:
            problems += reference.value_problems(f"lambda={lam}", got[float(lam)], refs[lam])
        return problems

    return Prepared(
        argv=["probe", "--base", ";".join(map(str, base.tolist())),
              "--lambdas", ",".join(map(str, PROBE_LAMBDAS)),
              "--index", "all", "--svg", str(svg), "-o", str(out)],
        outputs=[out, svg, points],
        records=len(reference.NAMES) * len(PROBE_LAMBDAS),
        props={"base_length": PROBE_BASE_LEN, "citations": int(base.sum()),
               "max_count": int(base.max()), "lambdas": list(PROBE_LAMBDAS)},
        check=check,
    )


WORKLOADS: dict[str, Callable[[np.random.Generator, Path], Prepared]] = {
    "many-authors": many_authors,
    "few-giants": few_giants,
    "summary-table": summary_table,
    "probe-replication": probe_replication,
}
