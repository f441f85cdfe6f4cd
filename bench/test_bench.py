"""Tests of the benchmark itself: ``python -m pytest bench``.

The workloads run at reduced sizes.  Each output check must pass on the
program's real output and catch a deliberately wrong one; the wrong
outputs are made here, by editing the files the CLI wrote.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import report
import reference
import workloads
from run import ROOT, load_spec
from spans import Tracer

sys.path.insert(0, str(ROOT / "src"))
from scindex import analytics, cli, indicators, scaling  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(autouse=True)
def small_workloads(monkeypatch):
    monkeypatch.delenv("SCINDEX_PRECISION", raising=False)
    monkeypatch.setattr(workloads, "MANY_AUTHORS", 40)
    monkeypatch.setattr(workloads, "GIANT_SIZES", np.linspace(300, 600, 5).astype(int))
    monkeypatch.setattr(workloads, "SUMMARY_ROWS", 50)
    monkeypatch.setattr(workloads, "PROBE_BASE_LEN", 20)


def prepare(name: str, tmp_path: Path, seed: int = 3) -> tuple[workloads.Prepared, int]:
    prepared = workloads.WORKLOADS[name](np.random.default_rng(seed), tmp_path)
    return prepared, cli.main(prepared.argv)


def test_spec_meets_the_contract():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(m["name"]) and UNIT.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_real_output_passes(name, tmp_path):
    prepared, code = prepare(name, tmp_path)
    assert prepared.check(code) == []


def _edit(path: Path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def test_check_catches_wrong_json_values(tmp_path):
    prepared, code = prepare("many-authors", tmp_path)
    out = prepared.outputs[0]
    rows = json.loads(out.read_text(encoding="utf-8"))
    rows[0]["h"]["value"] += 1
    rows[1]["S"]["value"] *= 1 + 1e-6
    out.write_text(json.dumps(rows), encoding="utf-8")
    problems = prepared.check(code)
    assert any(": h =" in p for p in problems) and any(": S =" in p for p in problems)
    assert prepared.check(1)[0] == "exit code 1, expected 0"


def _shift_tsv_cell(path: Path, row: int, column: int, delta: float) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[row].split("\t")
    cells[column] = f"{float(cells[column]) + delta:.2f}"
    lines[row] = "\t".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_check_catches_a_wrong_correlation(tmp_path):
    prepared, code = prepare("few-giants", tmp_path)
    _shift_tsv_cell(prepared.outputs[0], 2, 4, -0.02)  # r(C, h)
    problems = prepared.check(code)
    assert len(problems) == 1 and problems[0].startswith("r(C, h) =")


def test_check_catches_a_misprinted_summary_cell(tmp_path):
    prepared, code = prepare("summary-table", tmp_path)
    _shift_tsv_cell(prepared.outputs[0], 2, 6, 0.02)  # E of the first author
    problems = prepared.check(code)
    assert len(problems) == 1 and ": E =" in problems[0]


def test_check_catches_wrong_probe_verdicts_and_points(tmp_path):
    prepared, code = prepare("probe-replication", tmp_path)
    table, _, points = prepared.outputs
    assert prepared.check(2 - code) != []  # exit code disagrees with the g verdict
    _edit(table, "C\t2\t2.000000", "C\t2\t2.000002")
    line = next(line for line in points.read_text(encoding="utf-8").splitlines() if line.startswith("E,2.0,"))
    _edit(points, line, f"E,2.0,{float(line.split(',')[2]) + 1!r}")
    problems = prepared.check(code)
    assert any(p.startswith("C: slope 2.000002") for p in problems)
    assert any(p.startswith("lambda=2: E =") for p in problems)


def test_reference_matches_hand_values():
    ref = reference.indicators([4, 2, 1])
    assert (ref["P"], ref["C"], ref["h"], ref["g"], ref["E"]) == (3, 7, 2, 2, 21)
    assert ref["S"] == pytest.approx(21 - 49 / 3)
    assert ref["i_E"] == pytest.approx(21**0.5)
    assert reference.indicators([5, 5, 5])["S"] == 0.0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_layers_add_up_and_patches_come_off(name, tmp_path):
    prepared, _ = prepare(name, tmp_path)
    before = {
        "kernels": [d.compute for d in indicators.REGISTRY],
        "init": vars(indicators.CitationVector)["__init__"],
        "parse": vars(cli)["parse_input"],
        "fit": vars(scaling)["fit_loglog"],
        "table": vars(analytics.AnalyticsTable)["from_portfolios"],
    }
    tracer = Tracer()
    with tracer.installed():
        assert tracer.wrap("cli.main", cli.main)(prepared.argv) in (0, 2)
    metrics = tracer.call_metrics()
    layers = ("cli", "tabular", "indicators", "analytics", "scaling", "svgplot")
    assert sum(metrics.get(f"{layer}.self_s", 0) for layer in layers) == pytest.approx(metrics["cli.main.s"])
    assert tracer.problems() == []
    assert before == {
        "kernels": [d.compute for d in indicators.REGISTRY],
        "init": vars(indicators.CitationVector)["__init__"],
        "parse": vars(cli)["parse_input"],
        "fit": vars(scaling)["fit_loglog"],
        "table": vars(analytics.AnalyticsTable)["from_portfolios"],
    }


def test_counts_are_taken_after_the_call():
    tracer = Tracer()
    counted = []

    def count(args, result):
        counted.append(result)
        return {"tabular.records": result}

    inner = tracer.wrap("tabular.parse_input", lambda n: n, count)
    outer = tracer.wrap("cli.main", lambda n: inner(n) + inner(n + 1))
    assert outer(2) == 5 and counted == []
    assert tracer.call_metrics()["tabular.records"] == 5 and counted == [2, 3]
    assert tracer.problems() == []


def test_span_problems_are_reported():
    tracer = Tracer()
    tracer.wrap("cli.main", lambda: None)()
    tracer.wrap("dimension.Quantity", lambda: None)()
    tracer.spans.append(["tabular.emit_table", 2.0, 1.0, 0])
    problems = tracer.problems()
    assert problems[0].startswith("2 root spans")
    assert "span dimension.Quantity is in no layer" in problems
    assert "span tabular.emit_table is not closed" in problems


def test_every_per_layer_metric_is_produced_somewhere(tmp_path):
    seen: set[str] = set()
    for name in workloads.WORKLOADS:
        workdir = tmp_path / name
        workdir.mkdir()
        prepared, _ = prepare(name, workdir)
        tracer = Tracer()
        with tracer.installed():
            tracer.wrap("cli.main", cli.main)(prepared.argv)
        seen |= set(tracer.call_metrics())
    wanted = {m["name"] for m in load_spec()["per_layer"]} - {"trace_overhead_s"}
    assert wanted <= seen


def test_tail_has_ten_samples_beyond_it():
    values = [float(v) for v in range(100)]
    percentile, value = report.tail(values)
    assert (percentile, value) == (90.0, 89.0)
    assert sum(v > value for v in values) == 10


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        ([1.0 + 0.001 * k for k in range(10)], [0.8 + 0.001 * k for k in range(10)], "better"),
        ([1.0 + 0.001 * k for k in range(10)], [1.2 + 0.001 * k for k in range(10)], "worse"),
        ([1.0 + 0.001 * k for k in range(10)], [1.01 + 0.001 * k for k in range(10)], "unchanged"),
        ([1.0, 1.3, 0.7, 1.25, 0.75, 1.2, 0.8, 1.0, 1.0, 1.0], [1.0] * 10, "unresolved"),
    ],
)
def test_compare_verdicts(parent, change, expected):
    seeds = range(1, 11)
    assert report.verdict(dict(zip(seeds, parent)), dict(zip(seeds, change)), "lower", 0.1)[0] == expected


def _record(seed: int, wall_s: float, failed: int = 0, seconds: float = 15) -> dict:
    return {
        "info": {"workload": "few-giants", "seed": seed, "seconds": seconds, "digest": "d"},
        "result": {"correct": failed == 0, "attempted": 50, "failed": failed,
                   "metrics": {"wall_s": {"value": wall_s, "unit": "s"}}},
    }


def test_compare_calls_a_change_that_fails_more_worse():
    spec = {"workloads": [{"name": "few-giants"}],
            "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}
    parent = [_record(seed, 1.0 + 0.001 * seed) for seed in range(1, 11)]
    faster = [_record(seed, 0.8 + 0.001 * seed) for seed in range(1, 11)]
    assert report.compare(parent, faster, spec)[1].endswith("better")
    failing = faster[:9] + [_record(10, 0.81, failed=1)]
    lines = report.compare(parent, failing, spec)
    assert lines[1].endswith("worse (fails more)")
    assert "failed calls 0 of 500 at the parent, 1 of 500 with the change" in lines[2]
    with pytest.raises(ValueError, match="run lengths differ"):
        report.compare(parent, [_record(seed, 0.8, seconds=5) for seed in range(1, 11)], spec)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "many-authors", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and '"correct"' not in proc.stdout
