"""scindex benchmark: seeded workloads through the public CLI entry point.

One run (the contract ``BENCHMARK.json`` declares)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

generates the workload's inputs from the seed, times fresh-interpreter
set-up, runs ``scindex.cli.main(argv)`` in a fresh child for S seconds,
checks the outputs against ``reference`` and prints a record line and,
last, the result line.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones from spans recorded by ``spans``.

Times are scaled to a reference machine speed: every timed call is
multiplied by ``CALIBRATION_S`` over the time a fixed slice of
interpreter work (``child.calibrate``) takes in the same process around
it.  The unscaled medians are in the record line.  ``peak_rss_mb`` is the
measured child's own peak resident set, in MiB.

Every run of a set, and the comparison of two sets::

    python3 bench/run.py suite --seeds 1-10 --out parent.jsonl
    python3 bench/run.py compare parent.jsonl change.jsonl

Run the two sides of a comparison on the same machine, alternating which
goes first.  Everything a run writes stays under ``.bench_work/`` at the
root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import report
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Fresh interpreters timed per run for setup_s; their median is reported.
SETUP_RUNS = 9
# Calibration runs in the same interpreter after the timed import.
SETUP_CODE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import scindex.cli\n"
    "scindex.cli.build_parser()\n"
    "seconds = time.perf_counter() - start\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from child import calibrate\n"
    "print(seconds, calibrate(), scindex.cli.__file__)\n"
)
CHILD_TIMEOUT_S = 150
# Times are reported at the machine speed where child.calibrate() takes
# this long: each sample is scaled by CALIBRATION_S over the calibration
# time measured around it.  Shared machines drift by 20-40% within
# minutes; the scaled times drift by a few percent.
CALIBRATION_S = 0.016


class BenchError(Exception):
    pass


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def child_env() -> dict[str, str]:
    """The environment of every measured child: one thread, default output."""
    env = {k: v for k, v in os.environ.items() if k not in ("SCINDEX_PRECISION", "PYTHONPATH")}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def measure_setup() -> list[tuple[float, float]]:
    """(import-and-parser seconds, calibration seconds) of fresh interpreters.

    They run one after another; the first, untimed, compiles bytecode a
    checkout does not have yet.
    """
    times = []
    for attempt in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH)], env=child_env(),
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()[-2000:]}")
        seconds, calibration, module = proc.stdout.split()
        if not Path(module).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"set-up child imported {module}, not the checkout's src")
        if attempt:
            times.append((float(seconds), float(calibration)))
    return times


def run_child(job: dict, workdir: Path) -> dict:
    job_path = workdir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(job_path)], env=child_env(),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"measured child failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(Path(job["result"]).read_text(encoding="utf-8"))


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run: (record info, result line)."""
    if not (SRC / "scindex" / "cli.py").is_file():
        raise BenchError(f"no scindex sources under {SRC}")
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    spec = load_spec()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        workdir = Path(tmp)
        prepared = WORKLOADS[workload](np.random.default_rng(seed), workdir)
        setup = [] if trace else measure_setup()
        spans_path = WORK / f"spans-{workload}-seed{seed}.jsonl"
        outcome = run_child({
            "src": str(SRC), "argv": prepared.argv, "seconds": seconds, "trace": trace,
            "outputs": [str(p) for p in prepared.outputs],
            "result": str(workdir / "samples.json"), "spans": str(spans_path),
        }, workdir)
        samples = outcome["samples"]
        final = samples[-1]
        if final["error"] is not None:
            problems = [final["error"]]
        else:
            try:
                problems = prepared.check(final["code"])
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    span_problems = [p for s in samples for p in s.get("span_problems", ())]
    failed = sum(
        1 for s in samples
        if problems or s["error"] or s["code"] != final["code"] or s["digest"] != final["digest"]
        or s.get("span_problems")
    )
    untraced = [s["seconds"] for s in samples if not s["traced"]]
    scaled = [CALIBRATION_S * s["seconds"] / s["calibration"] for s in samples if not s["traced"]]
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "inputs": prepared.props, "samples": len(untraced), "error_rate": failed / len(samples),
        "digest": final["digest"], "problems": (problems + span_problems)[:5],
    }
    if trace:
        # Means, not medians, so that the layers' self times add up to
        # cli.main.s, as they do in every call by construction; span
        # times are scaled like wall_s.
        traced = [s for s in samples if s["traced"]]
        measured = {}
        for metric in spec["per_layer"]:
            if metric["name"] != "trace_overhead_s":
                measured[metric["name"]] = statistics.fmean(
                    s["layers"].get(metric["name"], 0)
                    * (CALIBRATION_S / s["calibration"] if metric["unit"] == "s" else 1)
                    for s in traced
                )
        measured["trace_overhead_s"] = measured["cli.main.s"] - statistics.fmean(scaled)
        info["traced_samples"] = len(traced)
        info["spans"] = str(spans_path.relative_to(ROOT))
        wanted = spec["per_layer"]
    else:
        percentile, tail_s = report.tail(scaled)
        wall_s = statistics.median(scaled)
        measured = {
            "wall_s": wall_s,
            "wall_s_tail": tail_s,
            "records_per_s": prepared.records / wall_s,
            "peak_rss_mb": outcome["peak_rss_mb"],
            "setup_s": statistics.median(CALIBRATION_S * t / c for t, c in setup),
        }
        info["wall_s_tail_percentile"] = percentile
        info["setup_samples"] = len(setup)
        info["unscaled"] = {
            "wall_s": statistics.median(untraced),
            "setup_s": statistics.median(t for t, _ in setup),
            "calibration_s": statistics.median(s["calibration"] for s in samples),
        }
        wanted = spec["end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return info, result


def suite(seeds: list[int], trace: bool, out: Path | None) -> int:
    """Every workload for every seed, seed by seed, then a summary table.

    Each run lasts ``run_seconds`` of ``BENCHMARK.json``, so that the two
    sides of a comparison measure for the same time.
    """
    spec = load_spec()
    seconds = spec["run_seconds"]
    records = []
    for seed in seeds:
        for workload in spec["workloads"]:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload["name"],
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
                capture_output=True, text=True, timeout=3 * CHILD_TIMEOUT_S,
            )
            if proc.returncode != 0:
                raise BenchError(f"{workload['name']} seed {seed}: {proc.stderr.strip()[-2000:]}")
            info_line, result_line = proc.stdout.splitlines()[-2:]
            record = {"info": json.loads(info_line), "result": json.loads(result_line)}
            records.append(record)
            print(f"{workload['name']} seed {seed}: {json.dumps(record['result']['metrics'])}", flush=True)
            if out is not None:
                with out.open("a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record) + "\n")
    print("\n".join(report.summarize(records, spec)))
    return 0 if all(r["result"]["correct"] for r in records) else 1


def _seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    sub = parser.add_subparsers(dest="command")
    suite_cmd = sub.add_parser("suite", help="run every workload over a range of seeds")
    suite_cmd.add_argument("--seeds", type=_seed_list, default=_seed_list("1-10"), help="e.g. 1-10")
    suite_cmd.add_argument("--trace", type=int, choices=(0, 1), default=0, dest="suite_trace")
    suite_cmd.add_argument("--out", type=Path, default=None, help="append records to this JSON-lines file")
    compare_cmd = sub.add_parser("compare", help="verdicts of a change's result set against its parent's")
    compare_cmd.add_argument("parent", type=Path)
    compare_cmd.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    try:
        if args.command == "suite":
            return suite(args.seeds, bool(args.suite_trace), args.out)
        if args.command == "compare":
            print("\n".join(report.compare(report.load(args.parent), report.load(args.change), load_spec())))
            return 0
        if args.workload is None or args.seed is None or args.seconds is None:
            parser.error("a run needs --workload, --seed and --seconds")
        info, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"{name:<42} {metric['value']:>14.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
