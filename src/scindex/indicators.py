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
rank indices h and g is a closed form of P, C = sum(c) and E = sum(c^2).
A vector is held as the (value, multiplicity) runs of its counts, and
one pass over the runs gives P, C, E, h and g, from which one function
derives and dimensions the whole report; every kernel reads it.  So a
replica (see :mod:`scindex.scaling`) costs O(distinct values) however
many papers it stands for.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from itertools import chain, repeat, starmap
from typing import Callable, Iterable, Iterator, Union

from .dimension import (
    DIMENSIONLESS,
    PAPERS,
    PAPERS_CUBED,
    PAPERS_SQUARED,
    Dimension,
    Quantity,
    Record,
    check_tolerance,
    count,
    pairs,
    slot_setters,
    text,
)
from .errors import (
    DomainError,
    EmptyPortfolioError,
    NegativeCountError,
    UnknownIndicatorError,
    shown,
)

EUCLIDEAN_DIM = Dimension(Fraction(3, 2))

# Most counts a vector builds when its counts are asked for.  The counts are
# a tuple of that many slots, about 8 MB at this limit, so an oversized
# replica fails at once instead of exhausting memory.
MAX_REPLICA_COUNTS = 10**6


class CitationVector:
    """Non-negative per-paper citation counts, as a multiset.

    Two vectors that are permutations of each other compare equal.  An
    empty vector may be constructed (it represents an empty portfolio)
    but every indicator rejects it.

    The vector is held as the pairs (value v, multiplicity m) of its
    counts, in strictly decreasing v, which take O(distinct values)
    however many papers they stand for; :meth:`from_runs` builds a vector
    from them directly.  The indicators, equality and hashing read the
    runs.  The counts, largest first, are built only when asked for
    (``counts``, iteration, ``repr``), and at most ``MAX_REPLICA_COUNTS``
    of them; past that bound ``repr`` shows the runs instead.

    A vector keeps two results derived from its runs, each built on first
    use and never if its construction raised: the report of all 11
    indicators, which :func:`compute_all` returns and every kernel reads, and
    the replicas of its last scaling probe (see :func:`scindex.scaling.verify_dimension`).
    Pickling, equality and hashing read only the runs.
    """

    __slots__ = ("_runs", "_ladder", "_replicas")

    def __init__(self, counts: Iterable[int]) -> None:
        # A list is only read, so it is not copied.
        values = counts if isinstance(counts, list) else list(counts)
        # Exact ints are checked by builtins alone, and their sign on the
        # distinct values; anything else takes the per-item path, which
        # names the first offending item.
        if not set(map(type, values)) <= {int}:
            values = _checked_counts(values)
        self._runs = _sorted_runs(Counter(values))
        self._ladder = self._replicas = None

    @classmethod
    def _of_runs(cls, runs: tuple[tuple[int, int], ...]) -> CitationVector:
        """The vector of checked runs, with nothing kept yet."""
        vec = object.__new__(cls)
        vec._runs = runs
        vec._ladder = vec._replicas = None
        return vec

    @classmethod
    def from_runs(cls, runs: Iterable[tuple[int, int]]) -> CitationVector:
        """The vector of ``m`` papers with ``v`` citations for each ``(v, m)``.

        Values must be non-negative counts in strictly decreasing order and
        multiplicities positive counts, each read by :func:`count`.
        """
        checked = []
        for v, m in pairs(runs, "runs"):
            v, m = count(v, "run values"), count(m, "run multiplicities")
            if v < 0:
                raise NegativeCountError(f"negative citation count {shown(v)}")
            if m < 1 or (checked and v >= checked[-1][0]):
                raise DomainError(
                    f"runs need strictly decreasing values and multiplicities >= 1, "
                    f"got {shown((v, m))}"
                )
            checked.append((v, m))
        return cls._of_runs(tuple(checked))

    @property
    def counts(self) -> tuple[int, ...]:
        """The counts, largest first; :class:`DomainError` past ``MAX_REPLICA_COUNTS``."""
        size = sum(m for _, m in self._runs)
        if size > MAX_REPLICA_COUNTS:
            raise DomainError(
                f"a vector of {size} counts is over the limit of "
                f"{MAX_REPLICA_COUNTS} that may be built"
            )
        return tuple(chain.from_iterable(starmap(repeat, self._runs)))

    @property
    def runs(self) -> tuple[tuple[int, int], ...]:
        """The (value, multiplicity) pairs of the counts, largest value first."""
        return self._runs

    def __len__(self) -> int:
        return sum(m for _, m in self._runs)

    def __bool__(self) -> bool:
        return bool(self._runs)

    def __iter__(self):
        return iter(self.counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CitationVector):
            return NotImplemented
        return self._runs == other._runs

    def __hash__(self) -> int:
        return hash(self._runs)

    def __reduce__(self) -> tuple:
        return CitationVector.from_runs, (self._runs,)

    def __repr__(self) -> str:
        try:
            return f"CitationVector({list(self.counts)!r})"
        except DomainError:
            return f"CitationVector.from_runs({list(self._runs)!r})"


def _sorted_runs(tally: dict[int, int]) -> tuple[tuple[int, int], ...]:
    """The runs of a tally of int counts, largest first.  A tally keeps its
    counts in first-seen order, so the first negative one is named.
    """
    if min(tally, default=0) < 0:
        bad = next(c for c in tally if c < 0)
        raise NegativeCountError(f"negative citation count {shown(bad)}")
    return tuple(sorted(tally.items(), reverse=True))


def _checked_counts(values: list) -> list[int]:
    """The counts read by :func:`count`, raising for the first bad item."""
    checked = []
    for c in values:
        c = count(c, "citation counts")
        if c < 0:
            raise NegativeCountError(f"negative citation count {shown(c)}")
        checked.append(c)
    return checked


Counts = Union[CitationVector, Iterable[int]]
Kernel = Callable[[Counts], Quantity]


def as_citation_vector(v: Counts) -> CitationVector:
    return v if isinstance(v, CitationVector) else CitationVector(v)


def _rank_sums(runs: tuple[tuple[int, int], ...]) -> tuple[int, int, int, int, int]:
    """The exact sums P, C = sum(c) and E = sum(c^2), and the rank indices h
    and g, in one pass over (value, multiplicity) runs, largest value first.

    h: with R papers in earlier runs, a run of m papers at v citations
    holds ranks R+1..R+m, of which those up to v pass.  A run with
    v >= R + m passes whole; in the first that does not, h = max(R, v).

    g, capped at P: no fictitious zero-cited papers are appended.  On
    non-increasing counts d(r) = sum(c_1..c_r) - r^2 starts at d(0) = 0
    and has non-increasing steps c_r - (2r - 1), so once d(r) < 0 it stays
    negative: the ranks meeting the threshold form a prefix, and g is
    found in the first run holding a rank that misses it.  With R papers
    and S citations in earlier runs, rank R+k of a run at v citations
    passes when S + k*v >= (R+k)^2.  A run whose last rank passes passes
    whole.  In the first run that fails, the passing k are those up to the
    larger root of k^2 + (2R - v)k + R^2 - S, which is
    (v - 2R + sqrt(D))/2 with D = v^2 - 4Rv + 4S; its floor is
    (v - 2R + isqrt(D)) // 2 exactly.  D >= 0 because k = 0 passes.

    h <= g, so h is found in g's run or before it, and once g is found
    only the sums remain.  A rank index that no run stops is P.
    """
    p = c = e = 0
    h = g = None
    for v, m in runs:
        q = p + m
        if g is None:
            if h is None and v < q:
                h = max(p, v)
            if c + m * v < q * q:
                g = p + (v - 2 * p + math.isqrt(v * v - 4 * p * v + 4 * c)) // 2
        p = q
        c += v * m
        e += v * v * m
    return p, c, e, p if h is None else h, p if g is None else g


def _ladder(
    p: int,
    c: float,
    i: float,
    x: float,
    e: float,
    s: float,
    eta: float,
    h: float | None = None,
    g: float | None = None,
) -> IndicatorReport:
    """The report of the ladder values, with z and i_E derived from the rest.

    z = (eta*i^2*P)^(1/3) and i_E = sqrt(E).  The rank indices are placed
    when given: h and g for a vector, h alone for a summary that publishes
    it, since a summary triple cannot supply them.  The report's layout is
    the one of these three that holds its names, and its values are floats
    in that order; every one must be finite.

    Only P, an int from both callers, is converted here; every other value
    is taken as the float it is: :func:`_closed_forms` converts C, E, h and
    g, and a summary passes the floats ``analytics._check_summary`` returns.
    The report is built here, its two fields set by their slot setters,
    with no constructor call.
    """
    p = float(p)
    z = (eta * i * i * p) ** (1.0 / 3.0)
    i_e = math.sqrt(e)
    if h is None:
        names = SUMMARY_LAYOUT
        values = p, c, i, x, e, s, eta, z, i_e
    elif g is None:
        names = SUMMARY_H_LAYOUT
        values = p, c, i, h, x, e, s, eta, z, i_e
    else:
        names = VECTOR_LAYOUT
        values = p, c, i, h, g, x, e, s, eta, z, i_e
    # A finite sum proves every value finite; a sum that overflows from
    # finite values has no offender and is accepted.
    if not math.isfinite(sum(values)):
        bad = next((v for v in values if not math.isfinite(v)), None)
        if bad is not None:
            raise DomainError(f"quantity magnitude must be finite, got {bad!r}")
    report = object.__new__(IndicatorReport)
    _set_names(report, names)
    _set_row(report, values)
    return report


def _closed_forms(p: int, c: int, e: int, h: int, g: int) -> IndicatorReport:
    """The ladder from the exact sums P, C = sum(c) and E = sum(c^2), with
    the rank indices h and g.

    X = C^2/P and S = (P*E - C^2)/P each round once from exact integers,
    so S is non-negative and exactly zero on uniform vectors.  eta = X/E;
    an all-zero vector has X = E = 0 and eta is defined as 1 for it (a
    zero vector is perfectly even, and S = 0 agrees).  A sum or rank
    index beyond the float range raises :class:`DomainError`, so a vector
    whose report does not fit a float has no indicator.
    """
    try:
        x, s = c * c / p, (p * e - c * c) / p
        return _ladder(p, float(c), c / p, x, float(e), s, x / e if e else 1.0, float(h), float(g))
    except OverflowError:
        raise DomainError("citation sums exceed the floating-point range") from None


def compute_all(v: Counts) -> IndicatorReport:
    """Every indicator of one portfolio, in registry order: the report its vector keeps.
    A ``v`` that is no :class:`CitationVector` is read as one first."""
    vec = v if isinstance(v, CitationVector) else CitationVector(v)
    if not vec._runs:
        raise EmptyPortfolioError("portfolio has no papers")
    if vec._ladder is None:
        vec._ladder = _closed_forms(*_rank_sums(vec._runs))
    return vec._ladder


def _ladder_kernel(name: str) -> Kernel:
    """Kernel for one indicator: its value in the report the vector keeps."""
    return lambda v: compute_all(v)[name]


class IndicatorDescriptor:
    """A registered indicator: name, declared dimension, computation.

    ``fit_tolerance`` is the slope gate used by the scaling probe; the
    indices with exact replication scaling sit at 1e-6, g (whose rank
    thresholds interact with replication) at 0.05.  Equality and hashing
    ignore ``compute``, which may be rebound (to wrap a kernel, say); the
    other three fields are fixed once checked, and rebinding or deleting
    one raises :class:`AttributeError`.

    The name must be a ``str``, the declared dimension a :class:`Dimension`
    and ``compute`` callable, and ``fit_tolerance`` is read by
    :func:`~scindex.dimension.check_tolerance`; any other value is a
    :class:`DomainError` that names the indicator.
    """

    def __init__(
        self, name: str, declared_dim: Dimension, compute: Kernel, fit_tolerance: float = 1e-6
    ) -> None:
        text(name, "indicator name")
        if not isinstance(declared_dim, Dimension):
            raise DomainError(
                f"indicator {name}: declared dimension must be a Dimension, "
                f"got {shown(declared_dim)}"
            )
        if not callable(compute):
            raise DomainError(f"indicator {name}: compute must be callable, got {shown(compute)}")
        self.name = name
        self.declared_dim = declared_dim
        self.compute = compute
        self.fit_tolerance = check_tolerance(fit_tolerance, f"indicator {name}: fit tolerance")

    def __setattr__(self, attr: str, value: object) -> None:
        self._refuse_rebinding(attr)
        object.__setattr__(self, attr, value)

    def __delattr__(self, attr: str) -> None:
        self._refuse_rebinding(attr)
        object.__delattr__(self, attr)

    def _refuse_rebinding(self, attr: str) -> None:
        if attr in ("name", "declared_dim", "fit_tolerance") and attr in vars(self):
            raise AttributeError(f"indicator {self.name}: {attr} cannot be changed")

    def _key(self) -> tuple:
        return self.name, self.declared_dim, self.fit_tolerance

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"IndicatorDescriptor({fields})"


class IndicatorReport(Mapping[str, Quantity]):
    """Read-only mapping from indicator name to its dimensioned value.

    A report is the table row it becomes: ``names`` is one of the three
    layouts of the ladder, each in registry order (``VECTOR_LAYOUT``,
    ``SUMMARY_LAYOUT`` and ``SUMMARY_H_LAYOUT``), and ``row`` the float
    of each name, in that order.  Both are tuples, and rebinding or deleting
    either raises :class:`AttributeError`, as for a ``Record`` field.  The
    constructor sets both by their slot setters, and so does the ladder
    builder, which makes every report of a vector or a summary, with no
    constructor call.  ``report[name]`` pairs a value with the indicator's
    declared dimension as a :class:`Quantity`; the dimension belongs to the
    indicator, so it is not stored per value.
    ``magnitudes`` is the name -> float dict, built on each request.
    """

    __slots__ = ("names", "row")

    # A Record's field guard, for a report that is a mapping.
    __setattr__ = Record.__setattr__
    __delattr__ = Record.__delattr__

    def __init__(self, names: tuple[str, ...], row: tuple[float, ...]) -> None:
        _set_names(self, names)
        _set_row(self, row)

    def __reduce__(self) -> tuple:
        return IndicatorReport, (self.names, self.row)

    @property
    def magnitudes(self) -> dict[str, float]:
        return dict(zip(self.names, self.row))

    def __getitem__(self, name: str) -> Quantity:
        try:
            value = self.row[self.names.index(name)]
        except ValueError:
            raise KeyError(name) from None
        return Quantity(value, _BY_NAME[name].declared_dim)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)

    def __repr__(self) -> str:
        return f"IndicatorReport({self.magnitudes!r})"


_set_names, _set_row = slot_setters(IndicatorReport)


REGISTRY: tuple[IndicatorDescriptor, ...] = (
    IndicatorDescriptor("P", PAPERS, _ladder_kernel("P")),
    IndicatorDescriptor("C", PAPERS_SQUARED, _ladder_kernel("C")),
    IndicatorDescriptor("i", PAPERS, _ladder_kernel("i")),
    IndicatorDescriptor("h", PAPERS, _ladder_kernel("h")),
    IndicatorDescriptor("g", PAPERS, _ladder_kernel("g"), fit_tolerance=0.05),
    IndicatorDescriptor("X", PAPERS_CUBED, _ladder_kernel("X")),
    IndicatorDescriptor("E", PAPERS_CUBED, _ladder_kernel("E")),
    IndicatorDescriptor("S", PAPERS_CUBED, _ladder_kernel("S")),
    IndicatorDescriptor("eta", DIMENSIONLESS, _ladder_kernel("eta")),
    IndicatorDescriptor("z", PAPERS, _ladder_kernel("z")),
    IndicatorDescriptor("i_E", EUCLIDEAN_DIM, _ladder_kernel("i_E")),
)

_BY_NAME = {d.name: d for d in REGISTRY}

# The names of a report's values, each layout in registry order: every
# indicator for a vector; all but h and g for a summary; all but g for a
# summary with its published h.
VECTOR_LAYOUT = tuple(_BY_NAME)
SUMMARY_LAYOUT = tuple(name for name in VECTOR_LAYOUT if name not in ("h", "g"))
SUMMARY_H_LAYOUT = tuple(name for name in VECTOR_LAYOUT if name != "g")


def registry_symbols() -> dict[str, Dimension]:
    """Name -> declared dimension table, for dimension expressions."""
    return {d.name: d.declared_dim for d in REGISTRY}


def descriptor(name: str) -> IndicatorDescriptor:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise UnknownIndicatorError(name) from None
