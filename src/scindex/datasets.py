"""Bundled reference dataset: ten leading polymer-solar-cells authors.

The rows carry each author's published summary indicators: paper count
P, mean impact i, evenness eta, h-index h, and the derived z, i_E and C
as originally printed (two-decimal i and eta, so rebuilding the derived
columns from the triple reproduces the printed values only to within
rounding).  Raw citation vectors were never published.
"""

from __future__ import annotations

from typing import NamedTuple

from .analytics import AnalyticsTable, PortfolioSummary
from .dimension import Quantity
from .indicators import registry_symbols


class AuthorRow(NamedTuple):
    author: str
    P: int
    i: float
    eta: float
    h: int
    z: float
    i_E: float
    C: int


AUTHOR_COLUMNS: tuple[str, ...] = ("P", "i", "eta", "h", "z", "i_E", "C")

AUTHOR_ROWS: tuple[AuthorRow, ...] = (
    AuthorRow("LI YF", 142, 33.25, 0.20, 34, 31.41, 891.42, 4721),
    AuthorRow("KREBS FC", 96, 73.05, 0.24, 41, 49.69, 1462.71, 7013),
    AuthorRow("YANG Y", 78, 128.65, 0.12, 37, 53.69, 3281.34, 10035),
    AuthorRow("JANSSEN RAJ", 56, 53.32, 0.17, 24, 30.13, 962.81, 2986),
    AuthorRow("HOU JH", 45, 99.89, 0.17, 21, 42.15, 1640.71, 4495),
    AuthorRow("JEN AKY", 45, 48.71, 0.42, 23, 35.51, 504.50, 2192),
    AuthorRow("CAO Y", 44, 38.73, 0.18, 15, 22.97, 599.26, 1704),
    AuthorRow("KIM H", 44, 9.55, 0.26, 11, 10.18, 123.38, 420),
    AuthorRow("YIP HL", 44, 49.82, 0.43, 23, 36.05, 504.50, 2192),
    AuthorRow("ZHANG FL", 44, 62.32, 0.32, 23, 37.86, 733.40, 2742),
)

def author_portfolios() -> list[PortfolioSummary]:
    """The ten authors as summary portfolios (P, i, eta plus published h)."""
    return [
        PortfolioSummary.from_summary(r.author, r.P, r.i, r.eta, h=r.h)
        for r in AUTHOR_ROWS
    ]


def published_table() -> AnalyticsTable:
    """The table exactly as printed, including the published z, i_E, C."""
    dims = registry_symbols()
    labeled = []
    for row in AUTHOR_ROWS:
        report = {
            name: Quantity(float(getattr(row, name)), dims[name])
            for name in AUTHOR_COLUMNS
        }
        labeled.append((row.author, report))
    return AnalyticsTable.from_reports(labeled, columns=AUTHOR_COLUMNS)


def reconstructed_table() -> AnalyticsTable:
    """The table with z, i_E, C rebuilt from each (P, i, eta) triple."""
    return AnalyticsTable.from_portfolios(author_portfolios(), columns=AUTHOR_COLUMNS)
