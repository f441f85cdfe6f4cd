"""Multi-portfolio analytics: reconstruction, correlation, ranking.

Published author tables rarely include raw citation vectors; they print
the summary triple (P, i, eta) plus h.  That triple determines every
ladder indicator except h and g, so a table of authors can be rebuilt
from summaries, correlated column against column, and ranked under any
indicator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dimension import PAPERS, Quantity
from .errors import DomainError, UnknownIndicatorError, ZeroVarianceError
from .indicators import (
    CitationVector,
    IndicatorReport,
    _ladder,
    compute_all,
    registry_names,
)

__all__ = [
    "PortfolioSummary",
    "AnalyticsTable",
    "RECONSTRUCTED_COLUMNS",
    "reconstruct_from_summary",
    "pearson_matrix",
    "rank_by",
]

# Columns a summary triple determines (everything but P, i, eta themselves
# and the non-derivable h and g).
RECONSTRUCTED_COLUMNS = frozenset({"C", "X", "E", "S", "z", "i_E"})


@dataclass(frozen=True)
class PortfolioSummary:
    """One author's portfolio: either a raw citation vector or a summary.

    Exactly one source form is present.  The summary form carries the
    triple (papers P, mean impact i, evenness eta) and optionally the
    published h, which cannot be derived from the triple.
    """

    label: str
    vector: CitationVector | None = None
    papers: int | None = None
    impact: float | None = None
    evenness: float | None = None
    h: float | None = None

    def __post_init__(self) -> None:
        if (self.vector is None) == (self.papers is None):
            raise DomainError(
                f"portfolio {self.label!r} needs exactly one of: raw vector, summary triple"
            )
        if self.papers is not None:
            _check_summary(self.papers, self.impact, self.evenness, self.h)

    @classmethod
    def from_vector(cls, label: str, counts) -> "PortfolioSummary":
        vec = counts if isinstance(counts, CitationVector) else CitationVector(counts)
        return cls(label, vector=vec)

    @classmethod
    def from_summary(
        cls,
        label: str,
        papers: int,
        impact: float,
        evenness: float,
        h: float | None = None,
    ) -> "PortfolioSummary":
        return cls(
            label,
            papers=int(papers),
            impact=float(impact),
            evenness=float(evenness),
            h=None if h is None else float(h),
        )

    @property
    def is_raw(self) -> bool:
        return self.vector is not None

    def report(self) -> tuple[IndicatorReport, frozenset[str]]:
        """Indicator report plus the set of reconstructed column names."""
        if self.vector is not None:
            try:
                return compute_all(self.vector), frozenset()
            except DomainError as exc:
                raise DomainError(f"portfolio {self.label!r}: {exc}") from None
        assert self.papers is not None and self.impact is not None
        assert self.evenness is not None
        report = reconstruct_from_summary(self.papers, self.impact, self.evenness)
        if self.h is not None:
            report["h"] = Quantity(self.h, PAPERS)
        return report, RECONSTRUCTED_COLUMNS


def _check_summary(
    papers: int | None,
    impact: float | None,
    evenness: float | None,
    h: float | None = None,
) -> None:
    if papers is None or impact is None or evenness is None:
        raise DomainError("summary form needs papers, impact and evenness")
    if papers < 1:
        raise DomainError(f"paper count must be >= 1, got {papers}")
    if impact < 0:
        raise DomainError(f"mean impact must be >= 0, got {impact}")
    if not math.isfinite(impact):
        raise DomainError(f"mean impact must be finite, got {impact}")
    if not 0 < evenness <= 1:
        raise DomainError(f"evenness must lie in (0, 1], got {evenness}")
    if h is not None and not math.isfinite(h):
        raise DomainError(f"h must be finite, got {h}")


def reconstruct_from_summary(papers: int, impact: float, evenness: float) -> IndicatorReport:
    """Rebuild the ladder indicators from the summary triple (P, i, eta).

    C = i*P, X = i^2*P, E = X/eta and S = E - X; the ladder builder
    derives z and i_E from these and keeps i and eta as given.  h is not
    derivable from the triple and is absent from the result.
    """
    _check_summary(papers, impact, evenness)
    c = impact * papers
    x = impact * impact * papers
    e = x / evenness
    return _ladder(papers, c, impact, x, e, e - x, evenness)


def _registry_ordered(names: set[str]) -> tuple[str, ...]:
    ordered = [n for n in registry_names() if n in names]
    ordered.extend(sorted(names.difference(ordered)))
    return tuple(ordered)


@dataclass(frozen=True)
class AnalyticsTable:
    """Labeled indicator reports sharing one ordered column set."""

    columns: tuple[str, ...]
    labels: tuple[str, ...]
    cells: tuple[tuple[Quantity, ...], ...]
    reconstructed: tuple[frozenset[str], ...]

    @classmethod
    def from_reports(
        cls,
        labeled: Sequence[tuple[str, Mapping[str, Quantity]]],
        columns: Sequence[str] | None = None,
        reconstructed: Sequence[frozenset[str]] | None = None,
    ) -> "AnalyticsTable":
        if columns is None:
            if not labeled:
                raise DomainError("cannot infer columns for an empty table")
            shared = set(labeled[0][1])
            for _, report in labeled[1:]:
                shared &= set(report)
            columns = _registry_ordered(shared)
        columns = tuple(columns)
        for label, report in labeled:
            for name in columns:
                if name not in report:
                    raise UnknownIndicatorError(name)
        if reconstructed is None:
            reconstructed = [frozenset()] * len(labeled)
        cells = tuple(
            tuple(report[name] for name in columns) for _, report in labeled
        )
        return cls(
            columns=columns,
            labels=tuple(label for label, _ in labeled),
            cells=cells,
            reconstructed=tuple(fs & set(columns) for fs in reconstructed),
        )

    @classmethod
    def from_portfolios(
        cls,
        portfolios: Sequence[PortfolioSummary],
        columns: Sequence[str] | None = None,
    ) -> "AnalyticsTable":
        labeled = []
        flags = []
        for portfolio in portfolios:
            report, recon = portfolio.report()
            labeled.append((portfolio.label, report))
            flags.append(recon)
        return cls.from_reports(labeled, columns=columns, reconstructed=flags)

    def __len__(self) -> int:
        return len(self.labels)

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise UnknownIndicatorError(name) from None

    def column_magnitudes(self, name: str) -> np.ndarray:
        idx = self.column_index(name)
        return np.array([row[idx].magnitude for row in self.cells], dtype=float)

    def row(self, label: str) -> IndicatorReport:
        try:
            idx = self.labels.index(label)
        except ValueError:
            raise DomainError(f"no row labeled {label!r}") from None
        return dict(zip(self.columns, self.cells[idx]))


def pearson_matrix(
    table: AnalyticsTable, columns: Sequence[str] | None = None
) -> np.ndarray:
    """Pearson correlation of the selected columns; symmetric, unit diagonal.

    Uses the covariance-over-product-of-deviations form directly (the
    sample/population variance convention cancels in r).
    """
    names = tuple(columns) if columns is not None else table.columns
    if len(table) < 3:
        raise DomainError(f"correlation needs at least 3 rows, got {len(table)}")
    data = []
    for name in names:
        values = table.column_magnitudes(name)
        if np.all(values == values[0]):
            raise ZeroVarianceError(name)
        data.append(values - values.mean())
    matrix = np.eye(len(names))
    norms = [float(np.sqrt(np.dot(d, d))) for d in data]
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            r = float(np.dot(data[a], data[b])) / (norms[a] * norms[b])
            matrix[a, b] = matrix[b, a] = r
    return matrix


def rank_by(table: AnalyticsTable, indicator: str) -> list[str]:
    """Labels sorted by descending indicator magnitude; ties break by label."""
    idx = table.column_index(indicator)
    keyed = [(-row[idx].magnitude, label) for label, row in zip(table.labels, table.cells)]
    return [label for _, label in sorted(keyed)]
