"""Indicator values, dimensions, oracles and invariants."""

import math
import numbers
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scindex import (
    REGISTRY,
    CitationVector,
    EmptyPortfolioError,
    NegativeCountError,
    compute_all,
    descriptor,
    g_index,
    h_index,
    registry_names,
)
from scindex.dimension import PAPERS, PAPERS_CUBED, PAPERS_SQUARED
from scindex.indicators import EUCLIDEAN_DIM

# Vectors kept within the published-data ranges; the rounding analysis
# for the S = E - X comparison needs P*c^2 well under 2^53.
vectors = st.lists(st.integers(0, 10_000), min_size=1, max_size=60)
small_vectors = st.lists(st.integers(0, 100), min_size=1, max_size=30)


def h_brute(counts):
    """Counting definition: largest k with at least k papers cited >= k times."""
    return max(
        (k for k in range(len(counts) + 1) if sum(1 for c in counts if c >= k) >= k),
        default=0,
    )


def g_brute(counts):
    """Definitional scan: largest k whose top-k papers sum to >= k^2."""
    ranked = sorted(counts, reverse=True)
    best = 0
    for k in range(1, len(ranked) + 1):
        if sum(ranked[:k]) >= k * k:
            best = k
    return best


def reference_counts(xs):
    """The per-item loop the constructor ran before its builtin fast path,
    plus the one change since: a bool is not a count."""
    values = []
    for c in xs:
        if isinstance(c, bool) or not isinstance(c, numbers.Integral):
            raise TypeError(f"citation counts must be integers, got {c!r}")
        c = int(c)
        if c < 0:
            raise NegativeCountError(f"negative citation count {c}")
        values.append(c)
    return tuple(sorted(values, reverse=True))


def outcome(build, xs):
    try:
        return "built", build(xs)
    except (TypeError, NegativeCountError) as exc:
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
        with pytest.raises(TypeError):
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
        assert h_index([10, 5, 3, 2, 1]).magnitude == 3.0
        assert h_index([0, 0]).magnitude == 0.0
        assert h_index([3, 3, 3]).magnitude == 3.0
        assert h_index([4, 2, 1]).magnitude == 2.0

    def test_g_index(self):
        # cumulative sums 10,15,18,20,21 against 1,4,9,16,25
        assert g_index([10, 5, 3, 2, 1]).magnitude == 4.0
        assert g_index([0, 0]).magnitude == 0.0
        assert g_index([100]).magnitude == 1.0  # capped at P

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
        assert tuple(report) == registry_names()
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

    @given(v=vectors)
    def test_descriptors_agree_with_compute_all(self, v):
        report = compute_all(v)
        for desc in REGISTRY:
            assert desc.compute(v) == report[desc.name], desc.name


class TestOracles:
    def test_exhaustive_small_multisets(self):
        # Multisets suffice: both sides sort before scanning, so every
        # permutation of a vector reduces to the same case.
        for p in range(1, 6):
            for combo in combinations_with_replacement(range(7), p):
                assert h_index(combo).magnitude == h_brute(combo), combo
                assert g_index(combo).magnitude == g_brute(combo), combo

    @given(v=st.lists(st.integers(0, 10_000), min_size=1, max_size=200))
    @settings(max_examples=300)
    def test_random_vectors_match_brute_force(self, v):
        assert h_index(v).magnitude == h_brute(v)
        assert g_index(v).magnitude == g_brute(v)


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
        h = h_index(v).magnitude
        g = g_index(v).magnitude
        assert h <= min(p, max(v))
        assert g >= h
        assert g <= p
