"""Measured child: import scindex fresh and run one workload's samples.

Usage: ``python child.py JOB.json``.  ``run.py`` writes the job (argv,
output files, run length, tracing) and starts this process after the
inputs exist, so the child's peak resident memory covers scindex and the
workload only.  The samples go back as JSON to the job's ``result`` path;
with tracing on, the spans of the last traced call go to ``spans``.

Each sample is one in-process ``scindex.cli.main(argv)`` call in a closed
loop, after one untimed warm-up call.  With tracing on, untraced and
traced calls alternate so that both see the same machine state.  Each
sample also carries the mean time of the calibration work run just
before and just after it, which ``run.py`` divides out.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

# A tail percentile needs at least ten samples beyond it.
MIN_SAMPLES = 11


# Input of the calibration work: 20000 integers in a fixed order.
CALIBRATION_TEXT = ";".join(str((k * 7919) % 100003) for k in range(20000))


def calibrate() -> float:
    """Seconds one fixed slice of interpreter work takes right now.

    The work mixes what scindex spends its time on (parsing integers,
    sorting, summing Python ints, building dicts, formatting floats,
    JSON), so that the machine's speed at the moment scales it and a
    sample alike.
    """
    start = time.perf_counter()
    values = [int(item) for item in CALIBRATION_TEXT.split(";")]
    values.sort(reverse=True)
    sum(c * c for c in values)
    json.dumps([{"value": c / 3.0, "dimension": "[P]"} for c in values[:4000]])
    "\t".join(f"{c / 7:.2f}" for c in values[:8000])
    dict(enumerate(values[:8000]))
    return time.perf_counter() - start


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    from scindex import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"scindex imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 1
    argv = job["argv"]
    outputs = [Path(p) for p in job["outputs"]]
    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        traced_main = tracer.wrap("cli.main", cli.main)

    def call(traced: bool) -> dict:
        for path in outputs:
            path.unlink(missing_ok=True)
        stderr = io.StringIO()
        error = None
        with contextlib.ExitStack() as stack:
            stack.enter_context(contextlib.redirect_stderr(stderr))
            if traced:
                tracer.reset()
                stack.enter_context(tracer.installed())
            entry = traced_main if traced else cli.main
            start = time.perf_counter()
            try:
                code = entry(argv)
            except Exception as exc:  # a raising call is a failed sample
                code, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        digest = hashlib.sha256(stderr.getvalue().encode("utf-8"))
        for path in outputs:
            digest.update(path.read_bytes() if path.exists() else b"<missing>")
        sample = {"seconds": seconds, "code": code, "error": error,
                  "digest": digest.hexdigest(), "traced": traced}
        if traced:
            sample["layers"] = tracer.call_metrics()
            sample["span_problems"] = tracer.problems()
        return sample

    call(False)
    if tracer is not None:
        call(True)
    samples = []
    before = calibrate()
    began = time.perf_counter()
    while time.perf_counter() - began < job["seconds"] or len(samples) < MIN_SAMPLES:
        for traced in (False, True) if tracer is not None else (False,):
            sample = call(traced)
            after = calibrate()
            sample["calibration"] = (before + after) / 2
            samples.append(sample)
            before = after
    if tracer is not None:
        tracer.write(Path(job["spans"]))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(job["result"]).write_text(json.dumps(
        {"samples": samples, "peak_rss_mb": peak_kib / 1024.0}
    ), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
