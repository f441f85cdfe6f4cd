"""Replication scaling and log-log exponent verification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scindex import (
    DegenerateSeriesError,
    DomainError,
    descriptor,
    fit_loglog,
    probe_registry,
    replicate_scale,
    verify_dimension,
)
from scindex import scaling
from scindex.indicators import REGISTRY, CitationVector, compute_all
from scindex.scaling import MAX_REPLICA_COUNTS, ZERO_SERIES_NOTE

# A base long and smooth enough that even g's rank thresholds replicate
# cleanly (its probe slope is 1.0 to four decimals).
SMOOTH_BASE = [30, 25, 20, 18, 16, 14, 12, 10, 8, 6, 5, 4, 3, 2, 1]


class TestReplicateScale:
    def test_doubling(self):
        assert replicate_scale([4, 2, 1], 2) == CitationVector([8, 8, 4, 4, 2, 2])

    def test_identity(self):
        assert replicate_scale([4, 2, 1], 1) == CitationVector([4, 2, 1])

    def test_zero_counts(self):
        assert replicate_scale([0], 3) == CitationVector([0, 0, 0])

    def test_size_and_values(self):
        out = replicate_scale([5, 3], 4)
        assert len(out) == 8
        assert out.counts == (20, 20, 20, 20, 12, 12, 12, 12)

    def test_invalid_factor(self):
        with pytest.raises(DomainError):
            replicate_scale([4, 2, 1], 0)

    def test_empty_base(self):
        with pytest.raises(DomainError):
            replicate_scale([], 2)

    def test_replica_size_is_bounded(self, monkeypatch):
        assert MAX_REPLICA_COUNTS == 10**6
        monkeypatch.setattr(scaling, "MAX_REPLICA_COUNTS", 6)
        assert len(replicate_scale([4, 2, 1], 2)) == 6
        with pytest.raises(DomainError, match="factor 3 gives 9 counts, over the limit of 6"):
            replicate_scale([4, 2, 1], 3)

    @given(v=st.lists(st.integers(0, 1000), min_size=1, max_size=40), lam=st.integers(1, 6))
    def test_matches_materialised_replica(self, v, lam):
        assert replicate_scale(v, lam) == CitationVector(
            [lam * c for c in v for _ in range(lam)]
        )


class TestLogLogFit:
    def test_exact_quadratic(self):
        est = fit_loglog([1, 2, 4], [7, 28, 112])
        assert est.slope == pytest.approx(2.0, abs=1e-12)
        assert est.max_residual == pytest.approx(0.0, abs=1e-12)

    def test_constant_series(self):
        est = fit_loglog([1, 2, 4], [0.7778, 0.7778, 0.7778])
        assert est.slope == pytest.approx(0.0, abs=1e-12)

    def test_three_halves(self):
        values = [math.sqrt(21), math.sqrt(168), math.sqrt(1344)]
        est = fit_loglog([1, 2, 4], values)
        assert est.slope == pytest.approx(1.5, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(DegenerateSeriesError):
            fit_loglog([1, 2], [1.0, 2.0])

    def test_non_positive_value(self):
        with pytest.raises(DegenerateSeriesError):
            fit_loglog([1, 2, 3], [1.0, 0.0, 3.0])

    def test_single_distinct_x(self):
        with pytest.raises(DegenerateSeriesError) as excinfo:
            fit_loglog([2, 2, 2], [1.0, 2.0, 3.0])
        assert str(excinfo.value) == "log-log fit needs at least 2 distinct x values"

    def test_unequal_lengths(self):
        with pytest.raises(DegenerateSeriesError) as excinfo:
            fit_loglog([1, 2, 3, 4], [1.0, 2.0, 3.0])
        assert str(excinfo.value) == (
            "log-log fit needs as many x as y values, got 4 and 3"
        )

    @given(
        xs=st.lists(st.integers(1, 50), min_size=3, max_size=12, unique=True).filter(
            lambda xs: max(xs) >= 2 * min(xs)
        ),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_matches_numpy_polyfit(self, xs, data):
        ys = data.draw(st.lists(st.floats(0.01, 1e4), min_size=len(xs), max_size=len(xs)))
        est = fit_loglog(xs, ys)
        lx, ly = np.log(xs), np.log(ys)
        slope, intercept = np.polyfit(lx, ly, 1)
        residual = np.max(np.abs(ly - (slope * lx + intercept)))
        assert abs(est.slope - slope) <= 1e-12
        assert abs(est.intercept - intercept) <= 1e-12
        assert abs(est.max_residual - residual) <= 1e-12

    @given(
        amplitude=st.floats(0.1, 1e6),
        exponent=st.floats(-3, 3),
    )
    @settings(max_examples=200)
    def test_recovers_synthetic_power_laws(self, amplitude, exponent):
        lambdas = (1, 2, 3, 5, 8)
        values = [amplitude * lam**exponent for lam in lambdas]
        est = fit_loglog(lambdas, values)
        assert est.slope == pytest.approx(exponent, abs=1e-12)
        assert est.intercept == pytest.approx(math.log(amplitude), abs=1e-10)


class TestVerifyDimension:
    def test_total_citations_scales_quadratically(self):
        result = verify_dimension(descriptor("C"), [4, 2, 1])
        assert result.passed
        assert result.estimate.slope == pytest.approx(2.0, abs=1e-9)

    def test_euclidean_scales_three_halves(self):
        result = verify_dimension(descriptor("i_E"), [4, 2, 1])
        assert result.passed
        assert result.estimate.slope == pytest.approx(1.5, abs=1e-9)

    def test_evenness_is_scale_free(self):
        result = verify_dimension(descriptor("eta"), [4, 2, 1])
        assert result.passed
        assert result.estimate.slope == pytest.approx(0.0, abs=1e-9)

    def test_exact_indices_pass_on_default_base(self):
        for result in probe_registry([10, 5, 3, 2, 1]):
            if result.indicator == "g":
                continue
            assert result.passed, result

    def test_g_passes_on_smooth_base(self):
        result = verify_dimension(descriptor("g"), SMOOTH_BASE)
        assert result.passed
        assert result.estimate.slope == pytest.approx(1.0, abs=0.05)

    def test_g_rank_jumps_are_detected_on_tiny_bases(self):
        # g([8,8,4,4,2,2]) = 5, not 2*g([4,2,1]) = 4: replication lands
        # between rank thresholds and the probe must flag the slope.
        result = verify_dimension(descriptor("g"), [4, 2, 1])
        assert not result.passed
        assert result.values == (2.0, 5.0, 7.0, 10.0, 12.0)
        assert result.estimate.slope == pytest.approx(1.1098, abs=1e-3)

    def test_zero_series_reports_consistent(self):
        result = verify_dimension(descriptor("S"), [3, 3, 3])
        assert result.passed
        assert result.estimate is None
        assert result.note == ZERO_SERIES_NOTE

    def test_h_on_all_zero_base_uses_zero_path(self):
        result = verify_dimension(descriptor("h"), [0, 0])
        assert result.passed
        assert result.note == ZERO_SERIES_NOTE

    def test_non_increasing_lambdas(self):
        for lambdas in ((1, 3, 2), (2, 2, 2)):
            with pytest.raises(DegenerateSeriesError) as excinfo:
                verify_dimension(descriptor("C"), [4, 2, 1], lambdas=lambdas)
            assert str(excinfo.value) == (
                "indicator C: scale factors must be strictly increasing"
            )

    def test_degenerate_series_names_the_indicator(self):
        with pytest.raises(DegenerateSeriesError) as excinfo:
            verify_dimension(descriptor("C"), [4, 2, 1], lambdas=(1, 2))
        assert "C" in str(excinfo.value)

    def test_probe_registry_order_and_override(self):
        results = probe_registry([4, 2, 1], names=["C", "h"])
        assert [r.indicator for r in results] == ["C", "h"]
        strict = verify_dimension(descriptor("C"), [4, 2, 1], tolerance=0.0)
        assert not strict.passed  # float residue exceeds an exactly-zero gate


@given(
    v=st.lists(st.integers(0, 1000), min_size=1, max_size=40).filter(
        lambda counts: any(counts)
    ),
    lam=st.integers(1, 10),
)
@settings(max_examples=200)
def test_exact_replication_scaling(v, lam):
    """indicator(replicate(v, lam)) equals lam^d * indicator(v) numerically."""
    base = compute_all(v)
    scaled = compute_all(replicate_scale(v, lam))
    for desc in REGISTRY:
        if desc.name == "g":
            continue  # rank thresholds make g only asymptotically linear
        expected = base[desc.name].magnitude * lam ** float(desc.declared_dim.exponent)
        assert scaled[desc.name].magnitude == pytest.approx(
            expected, rel=1e-9, abs=1e-9
        ), desc.name
