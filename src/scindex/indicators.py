"""Citation-portfolio indicators, each returned as a dimensioned quantity.

Every indicator is defined on the multiset of per-paper citation counts:
:class:`CitationVector` normalizes to non-increasing order, so all
functions here are permutation-invariant by construction.  Count sums
use exact Python integers; only final magnitudes (and genuine ratios)
are doubles.

The indicator ladder runs P (papers, [P]), C (total citations, [P^2]),
and the second-order family X, E, S ([P^3]); the evenness ratio eta is
dimensionless, the h-type indices h, g, z carry [P], and the Euclidean
length of the citation list carries [P^3/2].  Every rung except the
rank indices h and g is a closed form of P, C = sum(c) and E = sum(c^2),
so one builder derives and dimensions all of them.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterable, Union

from .dimension import (
    DIMENSIONLESS,
    PAPERS,
    PAPERS_CUBED,
    PAPERS_SQUARED,
    Dimension,
    Quantity,
)
from .errors import (
    DomainError,
    EmptyPortfolioError,
    NegativeCountError,
    UnknownIndicatorError,
)

__all__ = [
    "CitationVector",
    "Counts",
    "IndicatorDescriptor",
    "IndicatorReport",
    "REGISTRY",
    "registry_names",
    "registry_symbols",
    "descriptor",
    "h_index",
    "g_index",
    "compute_all",
]

EUCLIDEAN_DIM = Dimension(Fraction(3, 2))


class CitationVector:
    """Non-negative per-paper citation counts, held sorted non-increasing.

    Two vectors that are permutations of each other compare equal.  An
    empty vector may be constructed (it represents an empty portfolio)
    but every indicator rejects it.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: Iterable[int]) -> None:
        values = list(counts)
        # Exact non-negative ints are checked and ordered by builtins alone;
        # anything else takes the per-item path.
        if not set(map(type, values)) <= {int} or (values and min(values) < 0):
            values = _checked_counts(values)
        values.sort(reverse=True)
        self._counts = tuple(values)

    @property
    def counts(self) -> tuple[int, ...]:
        return self._counts

    def __len__(self) -> int:
        return len(self._counts)

    def __iter__(self):
        return iter(self._counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CitationVector):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        return hash(self._counts)

    def __repr__(self) -> str:
        return f"CitationVector({list(self._counts)!r})"


def _checked_counts(values: list) -> list[int]:
    """Convert integral counts to ``int``, raising for the first bad item.

    ``bool`` is rejected although it is integral: ``True`` is not a count.
    """
    checked = []
    for c in values:
        if isinstance(c, bool) or not isinstance(c, numbers.Integral):
            raise TypeError(f"citation counts must be integers, got {c!r}")
        c = int(c)
        if c < 0:
            raise NegativeCountError(f"negative citation count {c}")
        checked.append(c)
    return checked


Counts = Union[CitationVector, Iterable[int]]


def as_citation_vector(v: Counts) -> CitationVector:
    return v if isinstance(v, CitationVector) else CitationVector(v)


def _nonempty(v: Counts) -> CitationVector:
    vec = as_citation_vector(v)
    if len(vec) == 0:
        raise EmptyPortfolioError("portfolio has no papers")
    return vec


def h_index(v: Counts) -> Quantity:
    """h: largest rank whose paper still has at least that many citations."""
    vec = _nonempty(v)
    h = 0
    for rank, c in enumerate(vec.counts, start=1):
        if c < rank:
            break
        h = rank
    return Quantity(float(h), PAPERS)


def g_index(v: Counts) -> Quantity:
    """g: largest rank whose top papers jointly have >= rank^2 citations.

    Capped at P: no fictitious zero-cited papers are appended.  The scan
    stops at the first rank that misses the threshold, which is exact:
    on non-increasing counts d(r) = sum(c_1..c_r) - r^2 starts at d(0) = 0
    and has non-increasing steps c_r - (2r - 1), so once d(r) < 0 it stays
    negative and the ranks meeting the threshold form a prefix.
    """
    vec = _nonempty(v)
    g = 0
    running = 0
    for rank, c in enumerate(vec.counts, start=1):
        running += c
        if running < rank * rank:
            break
        g = rank
    return Quantity(float(g), PAPERS)


def _ladder(
    p: float,
    c: float,
    i: float,
    x: float,
    e: float,
    s: float,
    eta: float,
    h: Quantity | None = None,
    g: Quantity | None = None,
) -> IndicatorReport:
    """Attach each ladder value's dimension and derive z and i_E from the rest.

    z = (eta*i^2*P)^(1/3) and i_E = sqrt(E).  The rank indices h and g
    are placed when given; a summary triple cannot supply them.
    """
    report = {
        "P": Quantity(p, PAPERS),
        "C": Quantity(c, PAPERS_SQUARED),
        "i": Quantity(i, PAPERS),
    }
    if h is not None:
        report["h"] = h
        report["g"] = g
    report.update(
        X=Quantity(x, PAPERS_CUBED),
        E=Quantity(e, PAPERS_CUBED),
        S=Quantity(s, PAPERS_CUBED),
        eta=Quantity(eta, DIMENSIONLESS),
        z=Quantity((eta * i * i * p) ** (1.0 / 3.0), PAPERS),
        i_E=Quantity(math.sqrt(e), EUCLIDEAN_DIM),
    )
    return report


def _closed_forms(
    vec: CitationVector, h: Quantity | None = None, g: Quantity | None = None
) -> IndicatorReport:
    """The ladder from the exact sums P, C = sum(c) and E = sum(c^2).

    X = C^2/P and S = (P*E - C^2)/P each round once from exact integers,
    so S is non-negative and exactly zero on uniform vectors.  eta = X/E;
    an all-zero vector has X = E = 0 and eta is defined as 1 for it (a
    zero vector is perfectly even, and S = 0 agrees).  Sums beyond the
    float range raise :class:`DomainError`.
    """
    counts = vec.counts
    p = len(counts)
    c = sum(counts)
    e = sum(map(operator.mul, counts, counts))
    try:
        x = c * c / p
        return _ladder(
            p, c, c / p, x, e, (p * e - c * c) / p, x / e if e else 1.0, h, g
        )
    except OverflowError:
        raise DomainError("citation sums exceed the floating-point range") from None


def _ladder_kernel(name: str) -> Callable[[Counts], Quantity]:
    """Kernel for one closed-form indicator: the ladder's value of ``name``."""
    return lambda v: _closed_forms(_nonempty(v))[name]


@dataclass(frozen=True)
class IndicatorDescriptor:
    """A registered indicator: name, declared dimension, computation.

    ``fit_tolerance`` is the slope gate used by the scaling probe; the
    indices with exact replication scaling sit at 1e-6, g (whose rank
    thresholds interact with replication) at 0.05.
    """

    name: str
    declared_dim: Dimension
    compute: Callable[[Counts], Quantity] = field(compare=False)
    fit_tolerance: float = 1e-6


IndicatorReport = Dict[str, Quantity]

REGISTRY: tuple[IndicatorDescriptor, ...] = (
    IndicatorDescriptor("P", PAPERS, _ladder_kernel("P")),
    IndicatorDescriptor("C", PAPERS_SQUARED, _ladder_kernel("C")),
    IndicatorDescriptor("i", PAPERS, _ladder_kernel("i")),
    IndicatorDescriptor("h", PAPERS, h_index),
    IndicatorDescriptor("g", PAPERS, g_index, fit_tolerance=0.05),
    IndicatorDescriptor("X", PAPERS_CUBED, _ladder_kernel("X")),
    IndicatorDescriptor("E", PAPERS_CUBED, _ladder_kernel("E")),
    IndicatorDescriptor("S", PAPERS_CUBED, _ladder_kernel("S")),
    IndicatorDescriptor("eta", DIMENSIONLESS, _ladder_kernel("eta")),
    IndicatorDescriptor("z", PAPERS, _ladder_kernel("z")),
    IndicatorDescriptor("i_E", EUCLIDEAN_DIM, _ladder_kernel("i_E")),
)

_BY_NAME = {d.name: d for d in REGISTRY}


def registry_names() -> tuple[str, ...]:
    return tuple(d.name for d in REGISTRY)


def registry_symbols() -> dict[str, Dimension]:
    """Name -> declared dimension table, for dimension expressions."""
    return {d.name: d.declared_dim for d in REGISTRY}


def descriptor(name: str) -> IndicatorDescriptor:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise UnknownIndicatorError(name) from None


def compute_all(v: Counts) -> IndicatorReport:
    """Every registered indicator for one portfolio, in registry order."""
    vec = _nonempty(v)
    return _closed_forms(vec, h_index(vec), g_index(vec))
