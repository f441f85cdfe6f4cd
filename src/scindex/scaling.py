"""Empirical scaling-exponent verification under portfolio replication.

Replication is the concrete meaning of "scaling a portfolio by lambda":
every paper appears lambda times with lambda times the citations.  An
indicator of dimension [P^d] must then grow as lambda^d; fitting
log(value) against log(lambda) by ordinary least squares recovers d as
the slope.  ``verify_dimension`` runs that probe for one indicator and
gates the fitted slope against the declared exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from .errors import DegenerateSeriesError, DomainError
from .indicators import (
    REGISTRY,
    CitationVector,
    Counts,
    IndicatorDescriptor,
    as_citation_vector,
    descriptor,
)

__all__ = [
    "ExponentEstimate",
    "ProbeResult",
    "DEFAULT_LAMBDAS",
    "MAX_REPLICA_COUNTS",
    "replicate_scale",
    "fit_loglog",
    "verify_dimension",
    "probe_registry",
]

DEFAULT_LAMBDAS: tuple[int, ...] = (1, 2, 3, 4, 5)

# Largest replica the probe builds, in counts (lambda * P).  A replica is a
# list and a tuple of that many slots, about 16 MB at this limit, so an
# oversized --lambdas fails at once instead of exhausting memory.
MAX_REPLICA_COUNTS = 10**6

ZERO_SERIES_NOTE = "exactly zero at all scales: consistent"


@dataclass(frozen=True)
class ExponentEstimate:
    """OLS fit of log(value) on log(lambda); residual is never discarded."""

    slope: float
    intercept: float
    max_residual: float


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of one indicator's scaling probe."""

    indicator: str
    declared_exponent: Fraction
    lambdas: tuple[int, ...]
    values: tuple[float, ...]
    estimate: ExponentEstimate | None
    passed: bool
    note: str = ""


def replicate_scale(v: Counts, lam: int) -> CitationVector:
    """Scale a portfolio: each count appears ``lam`` times at ``lam`` times its value.

    The replica holds ``lam * P`` counts; more than ``MAX_REPLICA_COUNTS``
    raises :class:`DomainError` before anything is allocated.
    """
    vec = as_citation_vector(v)
    if len(vec) == 0:
        raise DomainError("cannot replicate an empty portfolio")
    if lam < 1:
        raise DomainError(f"replication factor must be >= 1, got {lam}")
    size = lam * len(vec)
    if size > MAX_REPLICA_COUNTS:
        raise DomainError(
            f"replication factor {lam} gives {size} counts, "
            f"over the limit of {MAX_REPLICA_COUNTS}"
        )
    return CitationVector(chain.from_iterable(repeat(lam * c, lam) for c in vec.counts))


def fit_loglog(xs: Sequence[float], ys: Sequence[float]) -> ExponentEstimate:
    """OLS slope/intercept in log-log space, plus the largest |residual|."""
    if len(xs) < 3:
        raise DegenerateSeriesError(
            f"log-log fit needs at least 3 points, got {len(xs)}"
        )
    for x, y in zip(xs, ys):
        if x <= 0 or y <= 0:
            raise DegenerateSeriesError(
                f"log-log fit needs strictly positive points, got ({x:g}, {y:g})"
            )
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    residuals = ly - (slope * lx + intercept)
    return ExponentEstimate(
        float(slope), float(intercept), float(np.max(np.abs(residuals)))
    )


def verify_dimension(
    desc: IndicatorDescriptor,
    base: Counts,
    lambdas: Sequence[int] = DEFAULT_LAMBDAS,
    tolerance: float | None = None,
) -> ProbeResult:
    """Probe one indicator's scaling exponent against its declared dimension.

    Computes the indicator on the replicated portfolio at each scale
    factor, fits the log-log slope and passes iff it sits within
    ``tolerance`` of the declared exponent (the descriptor's own gate
    when ``tolerance`` is None).  A series that is exactly zero at all
    scales (e.g. the dispersion term on a uniform portfolio) is
    consistent with any power law and passes without a fit.
    """
    vec = as_citation_vector(base)
    lams = tuple(int(x) for x in lambdas)
    if tolerance is None:
        tolerance = desc.fit_tolerance
    values = tuple(desc.compute(replicate_scale(vec, lam)).magnitude for lam in lams)
    declared = desc.declared_dim.exponent
    if all(value == 0.0 for value in values):
        return ProbeResult(desc.name, declared, lams, values, None, True, ZERO_SERIES_NOTE)
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise DegenerateSeriesError(
            f"indicator {desc.name}: scale factors must be strictly increasing"
        )
    try:
        estimate = fit_loglog(lams, values)
    except DegenerateSeriesError as exc:
        raise DegenerateSeriesError(f"indicator {desc.name}: {exc}") from None
    passed = abs(estimate.slope - float(declared)) <= tolerance
    return ProbeResult(desc.name, declared, lams, values, estimate, passed)


def probe_registry(
    base: Counts,
    lambdas: Sequence[int] = DEFAULT_LAMBDAS,
    names: Sequence[str] | None = None,
    tolerance: float | None = None,
) -> list[ProbeResult]:
    """Run the probe for several registered indicators, in registry order."""
    if names is None:
        descriptors = list(REGISTRY)
    else:
        descriptors = [descriptor(name) for name in names]
    return [verify_dimension(d, base, lambdas, tolerance) for d in descriptors]
