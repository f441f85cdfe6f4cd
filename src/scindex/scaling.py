"""Empirical scaling-exponent verification under portfolio replication.

Replication is the concrete meaning of "scaling a portfolio by lambda":
every paper appears lambda times with lambda times the citations.  An
indicator of dimension [P^d] must then grow as lambda^d; fitting
log(value) against log(lambda) by ordinary least squares recovers d as
the slope.  ``verify_dimension`` runs that probe for one indicator and
gates the fitted slope against the declared exponent.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Iterable, Sequence

from .dimension import Record, check_tolerance, count, name_list, real
from .errors import DegenerateSeriesError, DomainError, shown
from .indicators import (
    REGISTRY,
    CitationVector,
    Counts,
    IndicatorDescriptor,
    as_citation_vector,
    descriptor,
)

DEFAULT_LAMBDAS: tuple[int, ...] = (1, 2, 3, 4, 5)

# Most scale factors one probe takes.  Each builds a replica and a point
# of the plot, so a longer list is refused before any replica.
MAX_LAMBDAS = 1000

# Most runs a base keeps of a probe, summed over the replicas of its series:
# about 12 MiB at some 120 bytes a run.  A longer series is not kept, and
# each indicator builds it again, one replica at a time.
MAX_KEPT_RUNS = 10**5

ZERO_SERIES_NOTE = "exactly zero at all scales: consistent"


class ExponentEstimate(Record):
    """OLS fit of log(value) on log(lambda); residual is never discarded."""

    __slots__ = ("slope", "intercept", "max_residual")


class ProbeResult(Record):
    """Outcome of one indicator's scaling probe."""

    __slots__ = ("indicator", "declared_exponent", "lambdas", "values", "estimate", "passed", "note")

    def __init__(
        self, indicator, declared_exponent, lambdas, values, estimate, passed, note=""
    ) -> None:
        self._fill(indicator, declared_exponent, lambdas, values, estimate, passed, note)


def replicate_scale(v: Counts, lam: int) -> CitationVector:
    """Scale a portfolio: each count appears ``lam`` times at ``lam`` times its value.

    Each run (v, m) of the base becomes the run (lam*v, lam*m) of the
    replica, which takes O(distinct values) whatever ``lam`` is.  ``lam``
    is read by :func:`count` and must be at least 1.
    """
    vec = as_citation_vector(v)
    if not vec:
        raise DomainError("cannot replicate an empty portfolio")
    lam = count(lam, "replication factors")
    if lam < 1:
        raise DomainError(f"replication factor must be >= 1, got {shown(lam)}")
    # Checked runs scaled by a count >= 1 are runs, so they are not checked again.
    return CitationVector._of_runs(tuple((lam * c, lam * m) for c, m in vec.runs))


def _check_log_points(points: Iterable[tuple[float, float]]) -> None:
    """Refuse the first point that is not finite and strictly positive."""
    for x, y in points:
        if not (0 < x < math.inf and 0 < y < math.inf):  # nan fails it too
            need = "strictly positive" if x <= 0 or y <= 0 else "finite"
            raise DegenerateSeriesError(f"log-log fit needs {need} points, got ({x:g}, {y:g})")


def fit_loglog(xs: Iterable[float], ys: Iterable[float]) -> ExponentEstimate:
    """OLS slope/intercept in log-log space, plus the largest |residual|.

    ``xs`` and ``ys`` are read once, each point by :func:`real`; a point that
    is not finite and strictly positive is a :class:`DegenerateSeriesError` naming it.
    """
    from statistics import linear_regression  # loaded on first use: only a probe fits

    xs, ys = tuple(xs), tuple(ys)
    if len(xs) != len(ys):
        raise DegenerateSeriesError(
            f"log-log fit needs as many x as y values, got {len(xs)} and {len(ys)}"
        )
    if len(xs) < 3:
        raise DegenerateSeriesError(
            f"log-log fit needs at least 3 points, got {len(xs)}"
        )
    xs = [real(x, "log-log fit point") for x in xs]
    ys = [real(y, "log-log fit point") for y in ys]
    _check_log_points(zip(xs, ys))
    lx = list(map(math.log, xs))
    ly = list(map(math.log, ys))
    if len(set(lx)) < 2:
        raise DegenerateSeriesError("log-log fit needs at least 2 distinct x values")
    slope, intercept = linear_regression(lx, ly)
    residual = max(abs(y - (slope * x + intercept)) for x, y in zip(lx, ly))
    return ExponentEstimate(slope, intercept, residual)


def verify_dimension(
    desc: IndicatorDescriptor,
    base: Counts,
    lambdas: Iterable[int] = DEFAULT_LAMBDAS,
    tolerance: float | None = None,
) -> ProbeResult:
    """Probe one indicator's scaling exponent against its declared dimension.

    Computes the indicator on the replicated portfolio at each scale
    factor, fits the log-log slope and passes iff it sits within
    ``tolerance`` (read by :func:`check_tolerance`) of the declared
    exponent, or within the descriptor's own gate when it is None.  A
    series that is exactly zero at all scales (e.g. the dispersion term on
    a uniform portfolio) is consistent with any power law and passes
    without a fit.  The scale factors, 3 to ``MAX_LAMBDAS`` strictly
    increasing counts (read by :func:`count`) of which no more than
    ``MAX_LAMBDAS + 1`` are read, are checked before any replica, and so
    is the declared exponent, which must lie in the float range.  A scale
    factor whose replica leaves the float range raises
    :class:`DomainError` naming the indicator and the factor.

    When ``base`` is a :class:`CitationVector`, it keeps the replicas of
    the last scale factors probed on it, so that probing the other
    indicators at the same factors builds none again.  The series is kept
    only once every replica in it was built and measured, and only when
    it holds at most ``MAX_KEPT_RUNS`` runs (the number of factors times
    the base's runs); a longer one is built one replica at a time and
    dropped.  A probe at other factors replaces a kept series.  Each
    indicator is still computed from each replica's own runs.
    """
    vec = as_citation_vector(base)
    lams = tuple(islice(lambdas, MAX_LAMBDAS + 1))
    if len(lams) > MAX_LAMBDAS:
        raise DomainError(
            f"indicator {desc.name}: at most {MAX_LAMBDAS} scale factors may be given, "
            f"got more than {MAX_LAMBDAS}"
        )
    if len(lams) < 3:
        raise DegenerateSeriesError(
            f"indicator {desc.name}: log-log fit needs at least 3 points, got {len(lams)}"
        )
    lams = tuple(count(lam, f"indicator {desc.name}: scale factors") for lam in lams)
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise DegenerateSeriesError(
            f"indicator {desc.name}: scale factors must be strictly increasing"
        )
    tolerance = desc.fit_tolerance if tolerance is None else check_tolerance(tolerance)
    declared = desc.declared_dim.exponent
    expected = real(declared, f"indicator {desc.name}: declared exponent")
    kept = vec._replicas[1] if vec._replicas and vec._replicas[0] == lams else None
    keep = len(lams) * len(vec.runs) <= MAX_KEPT_RUNS
    replicas = []
    values = []
    for k, lam in enumerate(lams):
        try:
            replica = kept[k] if kept else replicate_scale(vec, lam)
            values.append(desc.compute(replica).magnitude)
        except DomainError as exc:
            raise DomainError(f"indicator {desc.name} at lambda {shown(lam)}: {exc}") from None
        if keep:
            replicas.append(replica)
    if keep:
        vec._replicas = lams, tuple(replicas)
    values = tuple(values)
    if all(value == 0.0 for value in values):
        return ProbeResult(desc.name, declared, lams, values, None, True, ZERO_SERIES_NOTE)
    try:
        estimate = fit_loglog(lams, values)
    except DegenerateSeriesError as exc:
        raise DegenerateSeriesError(f"indicator {desc.name}: {exc}") from None
    passed = abs(estimate.slope - expected) <= tolerance
    return ProbeResult(desc.name, declared, lams, values, estimate, passed)


def probe_registry(
    base: Counts,
    lambdas: Iterable[int] = DEFAULT_LAMBDAS,
    names: Sequence[str] | None = None,
    tolerance: float | None = None,
) -> list[ProbeResult]:
    """Run the probe for the named registered indicators (all, in registry
    order, when ``names`` is None) at the scale factors, read once.  A list
    of names, read by :func:`~scindex.dimension.name_list`, must hold at least one."""
    if tolerance is not None:
        check_tolerance(tolerance)
    if names is None:
        descriptors = list(REGISTRY)
    else:
        descriptors = [descriptor(name) for name in name_list(names, "indicator names")]
        if not descriptors:
            raise DomainError("a probe needs at least one indicator name")
    vec = as_citation_vector(base)
    lams = tuple(islice(lambdas, MAX_LAMBDAS + 1))
    return [verify_dimension(d, vec, lams, tolerance) for d in descriptors]
