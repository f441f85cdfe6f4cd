"""Spans around scindex's public calls, recorded from outside the package.

``Tracer.installed()`` patches each public function where its caller
looks it up, records one span per call (name, start, end, parent) in
memory, and restores every original on exit:

* ``cli`` imports ``parse_input``, ``emit_table``, ``emit_matrix``,
  ``pearson_matrix``, ``probe_registry`` and ``emit_loglog_svg`` by
  name, so those are patched on ``scindex.cli``;
* the kernels are reached through the ``REGISTRY`` descriptors that
  ``indicators`` and ``scaling`` share, so the descriptors are wrapped;
* ``CitationVector.__init__`` is wrapped rather than the class, whose
  ``isinstance`` checks must keep working.

``dimension`` is left alone: wrapping ``Quantity`` would distort the
run, and its cost shows in the self time of its callers.

Counts (records, citations, bytes, sorted and replicated counts) are
taken in ``call_metrics()`` from the arguments and results a span kept,
so that counting lands in no span's time.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

Count = Callable[[tuple, Any], dict[str, int]]
LAYERS = ("cli", "tabular", "indicators", "analytics", "scaling", "svgplot")


def _count_records(args: tuple, records: Any) -> dict[str, int]:
    text = args[0]
    return {
        "tabular.records": len(records),
        "tabular.citations": sum(sum(r.vector.counts) for r in records if r.vector is not None),
        "tabular.bytes_in": len(text.encode("utf-8")) if isinstance(text, str) else len(text),
    }


def _count_bytes_out(args: tuple, text: str) -> dict[str, int]:
    return {"tabular.bytes_out": len(text.encode("utf-8"))}


def _count_sorted(args: tuple, result: None) -> dict[str, int]:
    return {"indicators.counts_sorted": len(args[0].counts)}


def _count_replicated(args: tuple, replica: Any) -> dict[str, int]:
    return {"scaling.replicated_counts": len(replica)}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.pending: list[tuple[Count, tuple, Any]] = []  # counted in call_metrics()
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.pending.clear()

    def wrap(self, name: str, fn: Callable, count: Count | None = None) -> Callable:
        spans, stack, pending = self.spans, self._stack, self.pending

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                pending.append((count, args, result))
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        from scindex import analytics, cli, indicators, scaling, svgplot

        patches: list[tuple[Any, str, Any]] = []

        def patch(owner: Any, attr: str, name: str, count: Count | None = None) -> None:
            original = vars(owner)[attr]
            patches.append((owner, attr, original))
            _set(owner, attr, self.wrap(name, getattr(owner, attr), count))

        for attr, name, count in (
            ("parse_input", "tabular.parse_input", _count_records),
            ("emit_table", "tabular.emit_table", _count_bytes_out),
            ("emit_matrix", "tabular.emit_matrix", _count_bytes_out),
            ("pearson_matrix", "analytics.pearson_matrix", None),
            ("probe_registry", "scaling.probe_registry", None),
            ("emit_loglog_svg", "svgplot.emit_loglog_svg", None),
        ):
            patch(cli, attr, name, count)
        patch(analytics, "compute_all", "indicators.compute_all")
        patch(analytics, "reconstruct_from_summary", "analytics.reconstruct_from_summary")
        patch(scaling, "verify_dimension", "scaling.verify_dimension")
        patch(scaling, "replicate_scale", "scaling.replicate_scale", _count_replicated)
        patch(scaling, "fit_loglog", "scaling.fit_loglog")
        patch(svgplot, "fit_loglog", "scaling.fit_loglog")
        patch(indicators.CitationVector, "__init__", "indicators.CitationVector", _count_sorted)
        for desc in indicators.REGISTRY:
            patch(desc, "compute", f"indicators.kernel.{desc.name}")
        table = analytics.AnalyticsTable
        patches.append((table, "from_portfolios", vars(table)["from_portfolios"]))
        table.from_portfolios = classmethod(
            self.wrap("analytics.from_portfolios", vars(table)["from_portfolios"].__func__)
        )
        try:
            yield
        finally:
            for owner, attr, original in reversed(patches):
                _set(owner, attr, original)

    def call_metrics(self) -> dict[str, float]:
        """Totals, calls and self times of the recorded spans, plus counts.

        A span's self time is its duration minus its children's; a
        layer's self time sums the self times of its spans, so the layers
        of one call add up to its root span.
        """
        metrics: dict[str, float] = {}
        for count, args, result in self.pending:
            for key, value in count(args, result).items():
                metrics[key] = metrics.get(key, 0) + value
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, children):
            layer = name.split(".", 1)[0]
            for key, value in (
                (f"{name}.s", end - start),
                (f"{name}.calls", 1),
                (f"{name}.self_s", end - start - inner),
                (f"{layer}.self_s", end - start - inner),
            ):
                metrics[key] = metrics.get(key, 0) + value
            if name.startswith("indicators.kernel."):
                metrics["indicators.kernel.calls"] = metrics.get("indicators.kernel.calls", 0) + 1
        return metrics

    def problems(self) -> list[str]:
        """What is wrong with the recorded spans of one call, if anything.

        There must be one root span, every span must be closed, belong
        to a known layer and lie within its parent.
        """
        found = []
        roots = [name for name, _, _, parent in self.spans if parent < 0]
        if len(roots) != 1:
            found.append(f"{len(roots)} root spans: {roots[:5]}")
        for name, start, end, parent in self.spans:
            if name.split(".", 1)[0] not in LAYERS:
                found.append(f"span {name} is in no layer")
            if end < start or end == 0.0:
                found.append(f"span {name} is not closed")
            elif parent >= 0 and not (self.spans[parent][1] <= start and end <= self.spans[parent][2]):
                found.append(f"span {name} lies outside its parent {self.spans[parent][0]}")
        return found

    def write(self, path: Path) -> None:
        """Write the recorded spans as JSON lines."""
        with path.open("w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": index, "name": name, "start": start, "end": end, "parent": parent}
                ) + "\n")


def _set(owner: Any, attr: str, value: Any) -> None:
    if dataclasses.is_dataclass(owner) and not isinstance(owner, type):
        object.__setattr__(owner, attr, value)  # frozen descriptor
    else:
        setattr(owner, attr, value)
