"""Indicator values, dimensions, oracles and invariants."""

import math
import numbers
import pickle
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, groupby

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scindex import (
    REGISTRY,
    CitationVector,
    DomainError,
    EmptyPortfolioError,
    NegativeCountError,
    PortfolioSummary,
    compute_all,
    descriptor,
)
from scindex import indicators
from scindex.dimension import (
    DIMENSIONLESS,
    PAPERS,
    PAPERS_CUBED,
    PAPERS_SQUARED,
    Quantity,
)
from scindex.indicators import EUCLIDEAN_DIM, _ladder

from oracles import g_brute, h_brute, ladder_row

# Vectors kept within the published-data ranges; the rounding analysis
# for the S = E - X comparison needs P*c^2 well under 2^53.
vectors = st.lists(st.integers(0, 10_000), min_size=1, max_size=60)
small_vectors = st.lists(st.integers(0, 100), min_size=1, max_size=30)


def reference_counts(xs):
    """The per-item loop the constructor ran before its builtin fast path,
    plus the one change since: a bool is not a count."""
    values = []
    for c in xs:
        if isinstance(c, bool) or not isinstance(c, numbers.Integral):
            raise DomainError(f"citation counts must be integers, got {c!r}")
        c = int(c)
        if c < 0:
            raise NegativeCountError(f"negative citation count {c}")
        values.append(c)
    return tuple(sorted(values, reverse=True))


def outcome(build, xs):
    try:
        return "built", build(xs)
    except (DomainError, NegativeCountError) as exc:
        return "raised", type(exc), str(exc)


mixed_items = st.one_of(
    st.integers(0, 10**30),
    st.integers(-5, -1),
    st.integers(-5, 10**6).map(np.int64),
    st.floats(allow_nan=False),
    st.booleans(),
)


class TestCitationVector:
    def test_sorts_non_increasing(self):
        assert CitationVector([1, 4, 2]).counts == (4, 2, 1)

    def test_permutations_are_equal(self):
        assert CitationVector([1, 4, 2]) == CitationVector([4, 2, 1])

    def test_negative_count_rejected(self):
        with pytest.raises(NegativeCountError):
            CitationVector([4, -2, 1])

    def test_non_integer_rejected(self):
        with pytest.raises(DomainError):
            CitationVector([4, 2.5, 1])

    @given(
        xs=st.one_of(
            st.lists(st.integers(-3, 10**6), max_size=40),
            st.lists(mixed_items, max_size=12),
        )
    )
    @settings(max_examples=400)
    def test_matches_the_per_item_reference(self, xs):
        expected = outcome(reference_counts, xs)
        got = outcome(lambda items: CitationVector(items).counts, xs)
        assert got == expected
        if got[0] == "built":
            counts = got[1]
            assert counts == tuple(sorted(map(int, xs), reverse=True))
            assert all(type(c) is int for c in counts)
            runs = tuple((v, len(list(group))) for v, group in groupby(expected[1]))
            assert CitationVector(xs).runs == runs

    @given(xs=st.lists(st.integers(0, 50), max_size=40), form=st.sampled_from([list, tuple, iter]))
    def test_runs_are_the_sorted_tally(self, xs, form):
        given_counts = form(xs)
        kept = list(given_counts) if form is list else None
        assert CitationVector(given_counts).runs == tuple(sorted(Counter(xs).items(), reverse=True))
        if form is list:
            assert given_counts == kept  # the caller's list is read, not changed

    @pytest.mark.parametrize(
        "bad, shown", [(True, "True"), (1.5, "1.5"), ("3", "'3'"), (None, "None")]
    )
    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_a_non_integer_is_named(self, bad, shown, at):
        counts = [5, 3, 1, 0]
        counts.insert(at, bad)
        with pytest.raises(DomainError) as excinfo:
            CitationVector(counts)
        assert type(excinfo.value) is DomainError
        assert str(excinfo.value) == f"citation counts must be integers, got {shown}"

    @pytest.mark.parametrize(
        "counts, first",
        [
            ([-1, 5, -2], -1),
            ([5, -2, -1], -2),
            ([3, 3, 0, -7], -7),
            ([-3, -30], -3),
            ([np.int64(4), -6, np.int64(-2)], -6),
            ([2, np.int64(-9), -1], -9),
        ],
    )
    def test_the_first_negative_in_input_order_is_named(self, counts, first):
        with pytest.raises(NegativeCountError) as excinfo:
            CitationVector(counts)
        assert str(excinfo.value) == f"negative citation count {first}"

    def test_a_negative_past_the_digit_limit_is_named_by_its_length(self):
        with pytest.raises(NegativeCountError) as excinfo:
            CitationVector([3, -10**5000])
        assert str(excinfo.value) == "negative citation count <negative integer of 5001 digits>"

    def test_numpy_integers_are_read_as_ints(self):
        vec = CitationVector(np.array([3, 1, 3], dtype=np.int32))
        assert vec.runs == ((3, 2), (1, 1))
        assert all(type(v) is int for run in vec.runs for v in run)

    def test_building_the_counts_is_bounded(self, monkeypatch):
        monkeypatch.setattr(indicators, "MAX_REPLICA_COUNTS", 2)
        vec = CitationVector([3, 2, 1])
        assert compute_all(vec)["h"].magnitude == 2.0  # indicators need no counts
        with pytest.raises(DomainError, match="vector of 3 counts is over the limit of 2"):
            vec.counts
        assert repr(vec) == "CitationVector.from_runs([(3, 1), (2, 1), (1, 1)])"

    def test_iterates_its_counts_largest_first(self):
        assert list(CitationVector([1, 4, 2, 4])) == [4, 4, 2, 1]

    def test_iterating_past_the_count_bound_is_refused(self, monkeypatch):
        monkeypatch.setattr(indicators, "MAX_REPLICA_COUNTS", 2)
        with pytest.raises(DomainError, match="vector of 3 counts is over the limit of 2"):
            iter(CitationVector([3, 2, 1]))

    def test_never_equals_a_list(self):
        assert (CitationVector([1]) == [1]) is False

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickles_at_every_protocol(self, protocol):
        vec = CitationVector([3, 1, 1])
        summary = PortfolioSummary("A", vec)
        assert pickle.loads(pickle.dumps(vec, protocol)).runs == ((3, 1), (1, 2))
        assert pickle.loads(pickle.dumps(summary, protocol)) == summary

    def test_empty_constructible_but_rejected_by_indicators(self):
        empty = CitationVector([])
        assert len(empty) == 0
        with pytest.raises(EmptyPortfolioError):
            descriptor("P").compute(empty)
        with pytest.raises(EmptyPortfolioError):
            compute_all(empty)


class TestIndicatorValues:
    def test_paper_count(self):
        assert descriptor("P").compute([4, 2, 1]).magnitude == 3.0
        assert descriptor("P").compute([0, 0, 0]).magnitude == 3.0
        assert descriptor("P").compute([4, 2, 1]).dim == PAPERS

    def test_total_citations(self):
        assert descriptor("C").compute([4, 2, 1]).magnitude == 7.0
        assert descriptor("C").compute([0, 0, 0]).magnitude == 0.0
        assert descriptor("C").compute([4, 2, 1]).dim == PAPERS_SQUARED

    def test_mean_impact(self):
        assert descriptor("i").compute([4, 2, 1]).magnitude == pytest.approx(7 / 3)
        assert descriptor("i").compute([3, 3, 3]).magnitude == 3.0
        assert descriptor("i").compute([4, 2, 1]).dim == PAPERS

    def test_h_index(self):
        assert compute_all([10, 5, 3, 2, 1])["h"].magnitude == 3.0
        assert compute_all([0, 0])["h"].magnitude == 0.0
        assert compute_all([3, 3, 3])["h"].magnitude == 3.0
        assert compute_all([4, 2, 1])["h"].magnitude == 2.0

    def test_g_index(self):
        # cumulative sums 10,15,18,20,21 against 1,4,9,16,25
        assert compute_all([10, 5, 3, 2, 1])["g"].magnitude == 4.0
        assert compute_all([0, 0])["g"].magnitude == 0.0
        assert compute_all([100])["g"].magnitude == 1.0  # capped at P

    def test_energy(self):
        assert descriptor("E").compute([4, 2, 1]).magnitude == 21.0
        assert descriptor("E").compute([3, 3, 3]).magnitude == 27.0
        assert descriptor("E").compute([0, 0, 0]).magnitude == 0.0
        assert descriptor("E").compute([4, 2, 1]).dim == PAPERS_CUBED

    def test_exergy(self):
        assert descriptor("X").compute([4, 2, 1]).magnitude == pytest.approx(49 / 3)
        assert descriptor("X").compute([3, 3, 3]).magnitude == 27.0
        assert descriptor("X").compute([0, 0, 0]).magnitude == 0.0

    def test_entropy_term(self):
        assert descriptor("S").compute([4, 2, 1]).magnitude == pytest.approx(14 / 3)
        assert descriptor("S").compute([3, 3, 3]).magnitude == 0.0
        assert descriptor("S").compute([5]).magnitude == 0.0

    def test_consistency(self):
        assert descriptor("eta").compute([4, 2, 1]).magnitude == pytest.approx(7 / 9)
        assert descriptor("eta").compute([3, 3, 3]).magnitude == 1.0
        assert descriptor("eta").compute([0, 0, 0]).magnitude == 1.0  # zero-vector convention

    def test_z_index(self):
        assert descriptor("z").compute([4, 2, 1]).magnitude == pytest.approx(7 / 3, rel=1e-12)
        assert descriptor("z").compute([3, 3, 3]).magnitude == pytest.approx(3.0, rel=1e-12)
        assert descriptor("z").compute([5]).magnitude == pytest.approx(25 ** (1 / 3), rel=1e-12)

    def test_euclidean_index(self):
        i_e = descriptor("i_E").compute
        assert i_e([4, 2, 1]).magnitude == pytest.approx(math.sqrt(21))
        assert i_e([3, 3, 3]).magnitude == pytest.approx(math.sqrt(27))
        assert i_e([4, 2, 1]).dim == EUCLIDEAN_DIM
        assert str(i_e([4, 2, 1]).dim) == "[P^3/2]"


class TestComputeAll:
    def test_contains_exactly_the_registry(self):
        report = compute_all([4, 2, 1])
        assert tuple(report) == indicators.VECTOR_LAYOUT
        assert tuple(report) == ("P", "C", "i", "h", "g", "X", "E", "S", "eta", "z", "i_E")

    def test_small_portfolio(self):
        report = {k: q.magnitude for k, q in compute_all([4, 2, 1]).items()}
        assert report["P"] == 3
        assert report["C"] == 7
        assert report["i"] == pytest.approx(7 / 3)
        assert report["h"] == 2
        assert report["g"] == 2
        assert report["E"] == 21
        assert report["X"] == pytest.approx(49 / 3)
        assert report["S"] == pytest.approx(14 / 3)
        assert report["eta"] == pytest.approx(7 / 9)
        assert report["z"] == pytest.approx(7 / 3, rel=1e-12)
        assert report["i_E"] == pytest.approx(math.sqrt(21))

    def test_all_zero_portfolio(self):
        report = {k: q.magnitude for k, q in compute_all([0, 0, 0]).items()}
        assert report["P"] == 3
        assert report["eta"] == 1.0
        for name in ("C", "i", "h", "g", "X", "E", "S", "z", "i_E"):
            assert report[name] == 0.0

    def test_single_paper(self):
        report = {k: q.magnitude for k, q in compute_all([5]).items()}
        assert report["P"] == 1
        assert report["C"] == 5
        assert report["i"] == 5
        assert report["h"] == 1
        assert report["g"] == 1
        assert report["E"] == 25
        assert report["X"] == 25
        assert report["S"] == 0
        assert report["eta"] == 1
        assert report["z"] == pytest.approx(25 ** (1 / 3), rel=1e-12)
        assert report["i_E"] == 5

    @pytest.mark.parametrize(
        "make, counts",
        [
            (list, [4, 2, 1]),
            (tuple, [4, 2, 1]),
            (lambda counts: (c for c in counts), [1, 4, 2]),
            (list, []),
            (CitationVector, []),
        ],
        ids=["list", "tuple", "generator", "empty list", "empty vector"],
    )
    def test_every_kind_of_input_gives_the_report_of_its_vector(self, make, counts):
        if not counts:
            with pytest.raises(EmptyPortfolioError, match="^portfolio has no papers$"):
                compute_all(make(counts))
            return
        vec = CitationVector([4, 2, 1])
        report = compute_all(vec)
        given = compute_all(make(counts))
        assert given == report and given.row == report.row and given.names == report.names
        assert compute_all(vec) is report

    @given(v=vectors)
    def test_dimension_audit(self, v):
        report = compute_all(v)
        for desc in REGISTRY:
            assert report[desc.name].dim == desc.declared_dim

    @given(v=vectors)
    def test_sums_and_entropy_are_exact(self, v):
        p, c, e = len(v), sum(v), sum(k * k for k in v)
        report = compute_all(v)
        assert report["S"].magnitude == float(Fraction(p * e - c * c, p))
        assert report["P"].magnitude == p
        assert report["C"].magnitude == c
        assert report["E"].magnitude == e
        assert report["h"].magnitude == h_brute(v)
        assert report["g"].magnitude == g_brute(v)

    @settings(max_examples=300, deadline=None)
    @given(
        runs=st.dictionaries(
            st.integers(0, 10**150),
            st.one_of(st.integers(1, 3), st.integers(1, 10**12)),
            min_size=1,
            max_size=8,
        )
    )
    @example(runs={10**150: 1, 3: 2})
    @example(runs={10**150: 10**12})  # E = 10**312
    @example(runs={0: 5})
    def test_rows_are_exact_floats_equal_to_the_converted_ladder(self, runs):
        """Only P is converted by the ladder: each value of the row is an
        exact float, equal to the ladder of the exact sums with every value
        converted, and a sum past the float range is refused by name."""
        vec = CitationVector.from_runs(sorted(runs.items(), reverse=True))
        p = sum(runs.values())
        c = sum(v * m for v, m in runs.items())
        e = sum(v * v * m for v, m in runs.items())
        _, _, _, h, g = indicators._rank_sums(vec.runs)
        try:
            x = c * c / p
            expected = ladder_row(p, c, c / p, x, e, (p * e - c * c) / p, x / e if e else 1.0, h, g)
        except OverflowError:
            with pytest.raises(DomainError, match="^citation sums exceed the floating-point range"):
                compute_all(vec)
            return
        if not all(map(math.isfinite, expected)):
            with pytest.raises(DomainError, match="^quantity magnitude must be finite"):
                compute_all(vec)
            return
        row = compute_all(vec).row
        assert row == expected
        assert {type(value) for value in row} == {float}

    @given(v=vectors)
    def test_descriptors_agree_with_compute_all(self, v):
        report = compute_all(v)
        for desc in REGISTRY:
            assert desc.compute(v) == report[desc.name], desc.name


def quantity_ladder(counts):
    """Reference: the report as a dict of Quantity built cell by cell."""
    v = sorted(counts, reverse=True)
    p, c, e = len(v), sum(v), sum(k * k for k in v)
    x = c * c / p
    i = c / p
    eta = x / e if e else 1.0
    return {
        "P": Quantity(p, PAPERS),
        "C": Quantity(c, PAPERS_SQUARED),
        "i": Quantity(i, PAPERS),
        "h": Quantity(h_brute(v), PAPERS),
        "g": Quantity(g_brute(v), PAPERS),
        "X": Quantity(x, PAPERS_CUBED),
        "E": Quantity(e, PAPERS_CUBED),
        "S": Quantity((p * e - c * c) / p, PAPERS_CUBED),
        "eta": Quantity(eta, DIMENSIONLESS),
        "z": Quantity((eta * i * i * p) ** (1.0 / 3.0), PAPERS),
        "i_E": Quantity(math.sqrt(e), EUCLIDEAN_DIM),
    }


class TestIndicatorReport:
    @given(v=vectors)
    def test_is_the_dict_of_quantities_in_registry_order(self, v):
        report = compute_all(v)
        expected = quantity_ladder(v)
        assert dict(report) == expected
        assert list(dict(report)) == list(expected)
        assert list(report.items()) == list(expected.items())
        assert len(report) == len(expected)
        assert report.magnitudes == {k: q.magnitude for k, q in expected.items()}
        assert all(type(m) is float for m in report.magnitudes.values())

    @pytest.mark.parametrize(
        "report, layout, absent",
        [
            (compute_all([4, 2, 1]), indicators.VECTOR_LAYOUT, ()),
            (PortfolioSummary.from_summary("a", 10, 5.0, 0.5).report(),
             indicators.SUMMARY_LAYOUT, ("h", "g")),
            (PortfolioSummary.from_summary("a", 10, 5.0, 0.5, h=4).report(),
             indicators.SUMMARY_H_LAYOUT, ("g",)),
        ],
        ids=["vector", "summary", "summary-with-h"],
    )
    def test_each_layout_iterates_in_registry_order(self, report, layout, absent):
        names = tuple(name for name in indicators.VECTOR_LAYOUT if name not in absent)
        assert layout == names and report.names is layout
        assert tuple(report) == tuple(report.magnitudes) == names and len(report) == len(names)
        assert type(report.row) is tuple and all(type(v) is float for v in report.row)
        assert report.magnitudes == dict(zip(names, report.row))
        assert [report[name].magnitude for name in report] == list(report.row)
        assert all(name not in report for name in absent)

    def test_values_are_its_quantities(self):
        report = compute_all([4, 2, 1])
        assert list(report.values()) == [report[name] for name in report]

    def test_repr_shows_the_magnitudes(self):
        report = compute_all([2])
        assert repr(report) == f"IndicatorReport({report.magnitudes!r})"
        assert repr(report).startswith("IndicatorReport({'P': 1.0, 'C': 2.0, 'i': 2.0, ")

    def test_mapping_protocol(self):
        report = compute_all([4, 2, 1])
        assert "h" in report and "w" not in report
        assert report.get("w") is None
        assert report.get("g") == Quantity(2.0, PAPERS)
        with pytest.raises(KeyError):
            report["w"]
        with pytest.raises(TypeError):
            report["P"] = Quantity(1.0, PAPERS)
        assert report == dict(report)

    def test_non_finite_value_is_rejected(self):
        with pytest.raises(DomainError, match="quantity magnitude must be finite, got inf"):
            _ladder(1, math.inf, math.inf, math.inf, math.inf, 0.0, 1.0)

    def test_finite_values_whose_sum_overflows_are_accepted(self):
        big = 1.5e308
        report = _ladder(1, big, 1.0, big, big, 0.0, 1.0, 1, 1)
        assert report.magnitudes == {
            "P": 1.0, "C": big, "i": 1.0, "h": 1.0, "g": 1.0, "X": big, "E": big,
            "S": 0.0, "eta": 1.0, "z": 1.0, "i_E": math.sqrt(big),
        }
        assert list(_ladder(1, big, 1.0, big, big, 0.0, 1.0).magnitudes) == [
            name for name in indicators.VECTOR_LAYOUT if name not in ("h", "g")
        ]

    @pytest.mark.parametrize(
        "bad, named",
        [
            ({"p": math.inf}, "inf"),
            ({"c": -math.inf}, "-inf"),
            ({"i": math.nan}, "nan"),
            ({"i": -math.inf}, "-inf"),
            ({"h": math.nan}, "nan"),
            ({"g": -math.inf}, "-inf"),
            ({"x": math.inf}, "inf"),
            ({"e": math.nan}, "nan"),
            ({"s": -math.inf}, "-inf"),
            ({"eta": math.inf}, "inf"),
            ({"i": 1e200}, "inf"),  # only z, derived from i, is not finite
            ({"c": math.nan, "e": math.inf}, "nan"),
            ({"s": -math.inf, "p": math.inf}, "inf"),
            ({"x": math.nan, "g": math.inf}, "inf"),
            ({"e": math.inf, "h": -math.inf}, "-inf"),
        ],
    )
    def test_the_first_non_finite_value_in_ladder_order_is_named(self, bad, named):
        args = dict(p=4, c=10, i=2.5, x=25.0, e=40, s=15.0, eta=0.625, h=2, g=3)
        args.update(bad)
        with pytest.raises(DomainError) as excinfo:
            _ladder(**args)
        assert str(excinfo.value) == f"quantity magnitude must be finite, got {named}"

    def test_the_summary_ladder_names_its_first_non_finite_value(self):
        with pytest.raises(DomainError, match="finite, got -inf$"):
            _ladder(4, 10, 2.5, -math.inf, math.inf, math.nan, 0.625)


class TestOracles:
    def test_exhaustive_small_multisets(self):
        # Multisets suffice: both sides sort before scanning, so every
        # permutation of a vector reduces to the same case.
        for p in range(1, 6):
            for combo in combinations_with_replacement(range(7), p):
                report = compute_all(combo)
                assert report["h"].magnitude == h_brute(combo), combo
                assert report["g"].magnitude == g_brute(combo), combo

    @given(v=st.lists(st.integers(0, 10_000), min_size=1, max_size=200))
    @settings(max_examples=300)
    def test_random_vectors_match_brute_force(self, v):
        report = compute_all(v)
        assert report["h"].magnitude == h_brute(v)
        assert report["g"].magnitude == g_brute(v)

    @given(
        v=st.one_of(
            st.lists(st.integers(0, 10_000), min_size=1, max_size=200),
            st.lists(st.integers(0, 2), min_size=1, max_size=40),  # zeros and ties
            st.tuples(st.integers(0, 50), st.integers(1, 60)).map(lambda vm: [vm[0]] * vm[1]),
            # every count at least twice P: every run passes, so h = g = P
            st.lists(st.integers(0, 10), min_size=1, max_size=20).map(
                lambda xs: [x + 2 * len(xs) for x in xs]
            ),
        )
    )
    @settings(max_examples=300)
    def test_one_pass_gives_the_sums_and_the_rank_indices(self, v):
        p, c, e, h, g = indicators._rank_sums(CitationVector(v).runs)
        assert (p, c, e) == (len(v), sum(v), sum(x * x for x in v))
        assert (h, g) == (h_brute(v), g_brute(v))


class TestInvariants:
    @given(v=vectors, seed=st.randoms(use_true_random=False))
    def test_permutation_invariance(self, v, seed):
        shuffled = list(v)
        seed.shuffle(shuffled)
        original = compute_all(v)
        permuted = compute_all(shuffled)
        assert {k: q.magnitude for k, q in original.items()} == {
            k: q.magnitude for k, q in permuted.items()
        }

    @given(v=vectors)
    def test_consistency_range_and_equality_case(self, v):
        eta = compute_all(v)["eta"].magnitude
        assert 0 < eta <= 1
        uniform = len(set(v)) == 1
        assert (eta == 1.0) == uniform

    @given(v=vectors)
    def test_entropy_sign_and_energy_split(self, v):
        report = compute_all(v)
        s = report["S"].magnitude
        e = report["E"].magnitude
        x = report["X"].magnitude
        assert s >= 0
        assert x <= e or x == pytest.approx(e, rel=1e-12)
        assert (s == 0.0) == (report["eta"].magnitude == 1.0)

    @given(v=small_vectors)
    def test_entropy_matches_energy_minus_exergy(self, v):
        report = compute_all(v)
        s = report["S"].magnitude
        split = report["E"].magnitude - report["X"].magnitude
        assert s == pytest.approx(split, rel=1e-9, abs=1e-9)

    @given(v=vectors)
    def test_z_cubed_times_energy_is_exergy_squared(self, v):
        report = compute_all(v)
        z = report["z"].magnitude
        e = report["E"].magnitude
        x = report["X"].magnitude
        assert z**3 * e == pytest.approx(x**2, rel=1e-9, abs=1e-9)

    @given(v=vectors)
    def test_indicator_ladder_identities(self, v):
        report = compute_all(v)
        p = report["P"].magnitude
        c = report["C"].magnitude
        i = report["i"].magnitude
        x = report["X"].magnitude
        assert c == pytest.approx(i * p, rel=1e-12, abs=1e-12)
        assert x == pytest.approx(i * c, rel=1e-12, abs=1e-12)

    @given(v=vectors)
    def test_h_and_g_bounds(self, v):
        p = len(v)
        report = compute_all(v)
        h = report["h"].magnitude
        g = report["g"].magnitude
        assert h <= min(p, max(v))
        assert g >= h
        assert g <= p
