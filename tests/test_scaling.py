"""Replication scaling and log-log exponent verification."""

import math
import pickle
from itertools import chain, repeat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scindex import (
    DegenerateSeriesError,
    Dimension,
    PAPERS_CUBED,
    PAPERS_SQUARED,
    DomainError,
    IndicatorDescriptor,
    Quantity,
    descriptor,
    fit_loglog,
    probe_registry,
    replicate_scale,
    verify_dimension,
)
from scindex import indicators, scaling
from scindex.errors import shown
from scindex.indicators import MAX_REPLICA_COUNTS, REGISTRY, CitationVector, compute_all
from scindex.scaling import MAX_LAMBDAS, ZERO_SERIES_NOTE

from oracles import g_brute, g_stopping_run, h_brute

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

    @pytest.mark.parametrize(
        "lam, echo",
        [(0, "0"), (-10**50, "-" + "1" + "0" * 38 + "... (52 characters)")],
        ids=["zero", "long"],
    )
    def test_an_invalid_factor_is_echoed(self, lam, echo):
        with pytest.raises(DomainError) as excinfo:
            replicate_scale([4, 2, 1], lam)
        assert str(excinfo.value) == f"replication factor must be >= 1, got {echo}"

    @pytest.mark.parametrize(
        "lam", [0.5, 2.5, 2.0, "2", True, False, None],
        ids=["half", "float", "integral-float", "text", "true", "false", "none"],
    )
    def test_a_factor_that_is_no_int_is_refused_by_name(self, lam):
        with pytest.raises(DomainError) as excinfo:
            replicate_scale([4, 2, 1], lam)
        assert str(excinfo.value) == f"replication factors must be integers, got {lam!r}"

    def test_a_numpy_int_factor_is_a_count(self):
        assert replicate_scale([4, 2, 1], np.int64(2)) == replicate_scale([4, 2, 1], 2)

    def test_empty_base(self):
        with pytest.raises(DomainError):
            replicate_scale([], 2)

    def test_replica_is_held_as_runs(self):
        lam = 10**9
        out = replicate_scale([4, 2, 2, 1], lam)
        assert out.runs == ((4 * lam, lam), (2 * lam, 2 * lam), (lam, lam))
        assert len(out) == 4 * lam

    def test_building_the_counts_is_bounded(self, monkeypatch):
        assert MAX_REPLICA_COUNTS == 10**6
        monkeypatch.setattr(indicators, "MAX_REPLICA_COUNTS", 6)
        assert replicate_scale([4, 2, 1], 2).counts == (8, 8, 4, 4, 2, 2)
        big = replicate_scale([4, 2, 1], 3)
        assert compute_all(big)["g"].magnitude == 7.0  # indicators need no counts
        with pytest.raises(DomainError, match="vector of 9 counts is over the limit of 6"):
            big.counts

    @given(v=st.lists(st.integers(0, 1000), min_size=1, max_size=40), lam=st.integers(1, 6))
    def test_matches_materialised_replica(self, v, lam):
        assert replicate_scale(v, lam) == CitationVector(
            [lam * c for c in v for _ in range(lam)]
        )


def _materialised(base, lam):
    """The replica's counts, largest first: the list ``replicate_scale``'s runs stand for."""
    return sorted(chain.from_iterable(repeat(lam * c, lam) for c in base), reverse=True)


# Bases whose largest count ranges from 1 to 1000, so that g stops inside a
# run as often as it reaches P.
_oracle_bases = st.sampled_from([1, 3, 10, 30, 100, 1000]).flatmap(
    lambda top: st.lists(st.integers(0, top), min_size=1, max_size=40)
)


@given(base=_oracle_bases, lam=st.integers(1, 12))
@settings(max_examples=500)
def test_run_form_matches_materialised_oracle(base, lam):
    replica = replicate_scale(base, lam)
    counts = _materialised(base, lam)
    report = compute_all(replica).magnitudes
    assert report["P"] == len(counts)
    assert report["C"] == sum(counts)
    assert report["E"] == sum(c * c for c in counts)
    assert report["h"] == h_brute(counts)
    assert report["g"] == g_brute(counts)
    built = CitationVector(counts)
    assert replica == built and built == replica
    assert hash(replica) == hash(built)
    assert replica.runs == built.runs
    assert repr(replica) == repr(built) == f"CitationVector({counts!r})"


@given(base=_oracle_bases, lam=st.integers(1, 10))
@example(base=[4, 2, 1], lam=2)  # g = 2, but g of the replica is 5, not 4
@example(base=[10, 5, 3, 2, 1], lam=3)
@example(base=[5, 5], lam=7)  # every run passes: g = P
@settings(max_examples=300)
def test_h_and_g_of_a_replica_follow_their_exact_laws(base, lam):
    """h of the lam-replica is lam*h.  g of it is floor(lam*g*), where g* is
    the real-valued g solved in the base's stopping run (R, S, v), or lam*P
    when no run stops; a discriminant of lam^2*D gives the floor exactly."""
    report = compute_all(replicate_scale(base, lam)).magnitudes
    counts = _materialised(base, lam)
    assert report["h"] == lam * compute_all(base)["h"].magnitude == h_brute(counts)
    run = g_stopping_run(base)
    if run is None:
        g = lam * len(base)
    else:
        r, s, v = run
        d = v * v - 4 * r * v + 4 * s
        g = (2 * lam * r + lam * (v - 2 * r) + math.isqrt(lam * lam * d)) // 2
    assert report["g"] == g == g_brute(counts)


class TestRunForm:
    def test_from_runs_checks_its_runs(self):
        for runs, error in (
            ([(2, 1), (2, 1)], DomainError),
            ([(1, 1), (2, 1)], DomainError),
            ([(2, 0)], DomainError),
            ([(-1, 1)], indicators.NegativeCountError),
            ([(2.0, 1)], DomainError),
            ([(True, 1)], DomainError),
            ([(2, 1, 1)], DomainError),
            ([5], DomainError),
        ):
            with pytest.raises(error):
                CitationVector.from_runs(runs)

    def test_empty_runs_are_an_empty_portfolio(self):
        empty = CitationVector.from_runs([])
        assert not empty and len(empty) == 0 and empty == CitationVector([])
        with pytest.raises(indicators.EmptyPortfolioError):
            compute_all(empty)

    def test_rank_past_the_float_range(self):
        huge = CitationVector.from_runs([(10**400, 10**400)])
        with pytest.raises(DomainError, match="citation sums exceed the floating-point range"):
            descriptor("h").compute(huge)


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

    @pytest.mark.parametrize(
        "xs, ys, shown",
        [([1, 2, math.inf], [1, 2, 3], "(inf, 3)"), ([1, 2, 3], [1, 2, math.nan], "(3, nan)")],
        ids=["inf-x", "nan-y"],
    )
    def test_a_point_that_is_not_finite_is_named(self, xs, ys, shown):
        with pytest.raises(DegenerateSeriesError) as excinfo:
            fit_loglog(xs, ys)
        assert str(excinfo.value) == f"log-log fit needs finite points, got {shown}"

    def test_a_point_that_is_no_real_number_is_refused(self):
        with pytest.raises(DomainError) as excinfo:
            fit_loglog([1, 2, 3], [1, "2", 3])
        assert str(excinfo.value) == "log-log fit point must be a real number, got '2'"

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

    @pytest.mark.parametrize(
        "lambdas, shown",
        [
            ((1, 2.5, 3.9), "2.5"),
            ((True, 2, 3), "True"),
            ((1, 2, "3"), "'3'"),
            ((1, 2, "3" * 5000), "'" + "3" * 39 + "... (5000 characters)"),
        ],
    )
    def test_scale_factors_must_be_ints(self, lambdas, shown):
        with pytest.raises(DomainError) as excinfo:
            verify_dimension(descriptor("C"), [4, 2, 1], lambdas=lambdas)
        assert str(excinfo.value) == f"indicator C: scale factors must be integers, got {shown}"

    @pytest.mark.parametrize(
        "lambdas",
        [(3, 2, 1), (1, 2.0, 3), (), (1,), (1, 2), tuple(range(1, MAX_LAMBDAS + 2))],
        ids=["decreasing", "float", "empty", "one", "two", "over-bound"],
    )
    def test_scale_factors_are_checked_before_any_replica(self, lambdas):
        replicas = []
        spy = IndicatorDescriptor("S", PAPERS_CUBED, replicas.append)
        with pytest.raises((DegenerateSeriesError, DomainError)):
            verify_dimension(spy, [5, 5, 5], lambdas=lambdas)
        assert replicas == []
        # An all-zero series is no exception to the order check.
        with pytest.raises(DegenerateSeriesError):
            verify_dimension(descriptor("S"), [5, 5, 5], lambdas=(3, 2, 1))

    @pytest.mark.parametrize("base", [[4, 2, 1], [5, 5, 5]])
    def test_no_scale_factors_is_refused(self, base):
        with pytest.raises(DegenerateSeriesError) as excinfo:
            probe_registry(base, lambdas=[])
        assert str(excinfo.value) == "indicator P: log-log fit needs at least 3 points, got 0"
        with pytest.raises(DegenerateSeriesError) as excinfo:
            verify_dimension(descriptor("S"), base, lambdas=())
        assert str(excinfo.value) == "indicator S: log-log fit needs at least 3 points, got 0"

    @pytest.mark.parametrize(
        "name, base, lambdas",
        [("S", [5, 5, 5], (1,)), ("S", [5, 5, 5], (1, 2)), ("C", [4, 2, 1], (1, 2))],
        ids=["S-one", "S-two", "C-two"],
    )
    def test_fewer_than_three_scale_factors_are_refused(self, name, base, lambdas):
        # An all-zero series (S on a uniform base) is no exception: one or
        # two points fit no power law.
        with pytest.raises(DegenerateSeriesError) as excinfo:
            verify_dimension(descriptor(name), base, lambdas=lambdas)
        assert str(excinfo.value) == (
            f"indicator {name}: log-log fit needs at least 3 points, got {len(lambdas)}"
        )

    def test_the_number_of_scale_factors_is_bounded(self):
        assert verify_dimension(descriptor("S"), [5, 5, 5], range(1, MAX_LAMBDAS + 1)).passed
        with pytest.raises(DomainError) as excinfo:
            verify_dimension(descriptor("S"), [5, 5, 5], lambdas=range(1, MAX_LAMBDAS + 2))
        assert str(excinfo.value) == (
            f"indicator S: at most {MAX_LAMBDAS} scale factors may be given, "
            f"got more than {MAX_LAMBDAS}"
        )

    @pytest.mark.parametrize("probe", [verify_dimension, probe_registry], ids=lambda f: f.__name__)
    def test_a_long_iterator_of_scale_factors_is_refused_unread(self, probe):
        import tracemalloc

        # Finite, so that code which reads all of it fails here instead of hanging.
        lambdas = iter(range(1, 2 * 10**6))
        args = (descriptor("C"), [4, 2, 1]) if probe is verify_dimension else ([4, 2, 1],)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError) as excinfo:
                probe(*args, lambdas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(excinfo.value).endswith(f"got more than {MAX_LAMBDAS}")
        assert next(lambdas) == MAX_LAMBDAS + 2  # no more than MAX_LAMBDAS + 1 were read
        assert peak < 2**20

    def test_a_series_the_fit_refuses_names_the_indicator(self):
        # C - 7 is zero on the base [4, 2, 1] and positive on its replicas.
        def c_minus_seven(v):
            return Quantity(sum(v.counts) - 7.0, PAPERS_SQUARED)

        spy = IndicatorDescriptor("spy", PAPERS_SQUARED, c_minus_seven)
        with pytest.raises(DegenerateSeriesError) as excinfo:
            verify_dimension(spy, [4, 2, 1], lambdas=(1, 2, 3))
        assert str(excinfo.value) == (
            "indicator spy: log-log fit needs strictly positive points, got (1, 0)"
        )

    def test_an_empty_list_of_names_is_refused(self):
        with pytest.raises(DomainError) as excinfo:
            probe_registry([4, 2, 1], names=[])
        assert str(excinfo.value) == "a probe needs at least one indicator name"

    @pytest.mark.parametrize(
        "names, message",
        [
            # A str is one name, not the list of its letters "h" and "i".
            ("hi", "indicator names must be a list of names, got 'hi'"),
            (5, "indicator names must be a list of names, got 5"),
            (["C", None], "indicator names must be strings, got None"),
        ],
    )
    def test_names_must_be_a_list_of_names(self, names, message):
        with pytest.raises(DomainError) as excinfo:
            probe_registry([4, 2, 1], names=names)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1.0])
    def test_malformed_tolerance_is_refused(self, tolerance):
        message = f"tolerance must be a finite number >= 0, got {tolerance}"
        with pytest.raises(DomainError, match=message):
            verify_dimension(descriptor("C"), [4, 2, 1], tolerance=tolerance)
        with pytest.raises(DomainError, match=message):
            probe_registry([4, 2, 1], names=[], tolerance=tolerance)

    def test_scale_factor_past_the_float_range_is_named(self):
        # E = 21 * lam^3 leaves the float range, and with it the report that
        # every indicator is read from, the rank indices included.
        lam = 10**110
        for name in ("C", "h"):
            with pytest.raises(DomainError) as excinfo:
                verify_dimension(descriptor(name), [4, 2, 1], lambdas=(1, 2, lam))
            assert str(excinfo.value) == (
                f"indicator {name} at lambda {shown(lam)}: "
                "citation sums exceed the floating-point range"
            )

    def test_a_declared_exponent_past_the_float_range_is_named(self, monkeypatch):
        built = []
        monkeypatch.setattr(scaling, "replicate_scale", lambda *a: built.append(a))
        desc = IndicatorDescriptor("C", Dimension(10**400), descriptor("C").compute)
        with pytest.raises(DomainError) as excinfo:
            verify_dimension(desc, [4, 2, 1])
        assert str(excinfo.value) == (
            "indicator C: declared exponent exceeds the floating-point range"
        )
        assert built == []

    def test_probe_registry_order_and_override(self):
        results = probe_registry([4, 2, 1], names=["C", "h"])
        assert [r.indicator for r in results] == ["C", "h"]
        strict = verify_dimension(descriptor("C"), [4, 2, 1], tolerance=0.0)
        assert not strict.passed  # float residue exceeds an exactly-zero gate


def _outcome(probe):
    """What a probe returns, or the type and text of what it raises."""
    try:
        return probe()
    except (DegenerateSeriesError, DomainError) as exc:
        return type(exc), str(exc)


class TestSharedReplicas:
    """A base vector keeps its replica series, and each vector its ladder."""

    def test_one_replica_and_one_ladder_per_scale_factor(self, monkeypatch):
        built = []
        ladders = []
        sums = []
        replicate, closed_forms = scaling.replicate_scale, indicators._closed_forms
        rank_sums = indicators._rank_sums
        monkeypatch.setattr(
            scaling, "replicate_scale", lambda v, lam: built.append(lam) or replicate(v, lam)
        )
        monkeypatch.setattr(
            indicators, "_closed_forms", lambda *a: ladders.append(a) or closed_forms(*a)
        )
        monkeypatch.setattr(indicators, "_rank_sums", lambda r: sums.append(r) or rank_sums(r))
        results = probe_registry(SMOOTH_BASE, range(1, 13))
        assert len(results) == len(REGISTRY) == 11
        assert built == list(range(1, 13))
        assert len(ladders) == 12
        assert len(sums) == 12

    @given(
        counts=st.lists(st.integers(0, 1000), min_size=1, max_size=30),
        lams=st.sets(st.integers(1, 40), min_size=3, max_size=8).map(sorted),
    )
    @settings(max_examples=100, deadline=None)
    def test_shared_probe_equals_a_fresh_vector_per_indicator(self, counts, lams):
        shared = _outcome(lambda: probe_registry(CitationVector(counts), lams))
        fresh = [_outcome(lambda: verify_dimension(d, list(counts), lams)) for d in REGISTRY]
        assert shared == fresh

    def test_other_scale_factors_replace_the_series(self):
        vec = CitationVector(SMOOTH_BASE)
        probe_registry(vec, (1, 2, 3))
        again = probe_registry(vec, (2, 4, 8, 16))
        assert again == probe_registry(CitationVector(SMOOTH_BASE), (2, 4, 8, 16))
        lams, replicas = vec._replicas
        assert lams == (2, 4, 8, 16)
        assert replicas == tuple(replicate_scale(SMOOTH_BASE, lam) for lam in lams)

    def test_a_probe_that_overflows_keeps_nothing(self):
        vec = CitationVector([4, 2, 1])
        lam = 10**110
        for _ in range(2):
            with pytest.raises(DomainError) as excinfo:
                probe_registry(vec, (1, 2, lam))
            assert str(excinfo.value) == (
                f"indicator P at lambda {shown(lam)}: citation sums exceed the floating-point range"
            )
            assert vec._replicas is None
        replica = replicate_scale(vec, lam)
        for _ in range(2):
            with pytest.raises(DomainError):
                descriptor("C").compute(replica)
            assert replica._ladder is None

    def test_a_series_past_the_bound_is_not_kept(self, monkeypatch):
        runs = len(CitationVector(SMOOTH_BASE).runs)
        monkeypatch.setattr(scaling, "MAX_KEPT_RUNS", 3 * runs)
        at, past = CitationVector(SMOOTH_BASE), CitationVector(SMOOTH_BASE)
        assert probe_registry(at, (1, 2, 3)) == probe_registry(SMOOTH_BASE, (1, 2, 3))
        assert at._replicas[0] == (1, 2, 3)
        built = []
        replicate = scaling.replicate_scale
        monkeypatch.setattr(
            scaling, "replicate_scale", lambda v, lam: built.append(lam) or replicate(v, lam)
        )
        results = probe_registry(past, (1, 2, 3, 4))
        assert results == probe_registry(SMOOTH_BASE, (1, 2, 3, 4))
        assert past._replicas is None
        assert len(built) == 2 * len(REGISTRY) * 4  # per indicator, for both probes

    def test_a_long_series_is_held_one_replica_at_a_time(self):
        import tracemalloc

        vec = CitationVector(range(1, 251))
        lams = range(1, 402)  # 250 runs at 401 factors: past MAX_KEPT_RUNS
        assert len(lams) * len(vec.runs) > scaling.MAX_KEPT_RUNS
        tracemalloc.start()
        try:
            result = verify_dimension(descriptor("C"), vec, lams)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.passed and vec._replicas is None
        assert peak < 2 * 2**20  # keeping the series would take about 12 MiB

    def test_kept_results_stay_out_of_identity_and_reports(self):
        vec = CitationVector([4, 2, 1])
        probe_registry(vec)
        descriptor("C").compute(vec)
        assert vec._ladder is not None and vec._replicas is not None
        copy = pickle.loads(pickle.dumps(vec))
        assert copy == vec and hash(copy) == hash(CitationVector([4, 2, 1]))
        assert copy._ladder is None and copy._replicas is None
        first, second = compute_all(vec), compute_all(vec)
        assert first is second is vec._ladder
        # A report's values are a tuple, so a changed magnitudes dict changes
        # no report and not the ladder the vector keeps.
        kept = vec._ladder.row
        magnitudes = first.magnitudes
        magnitudes["C"] = -1.0
        assert type(first.row) is tuple and first.magnitudes != magnitudes
        assert first["C"].magnitude == 7.0
        assert vec._ladder.row == kept and descriptor("C").compute(vec).magnitude == 7.0

    def test_the_kept_report_cannot_be_changed(self):
        vec = CitationVector([10, 5, 3, 2, 1])
        report = compute_all(vec)
        for field in ("names", "row"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
                setattr(report, field, (0.0,) * 11)
            with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
                delattr(report, field)
        assert compute_all(vec)["h"].magnitude == 3.0 and compute_all(vec) is report
        assert pickle.loads(pickle.dumps(report)) == report

    def test_the_rank_indices_read_the_kept_report(self, monkeypatch):
        sums = []
        rank_sums = indicators._rank_sums
        monkeypatch.setattr(indicators, "_rank_sums", lambda r: sums.append(r) or rank_sums(r))
        vec = CitationVector([10, 5, 3, 2, 1])
        h, g = descriptor("h").compute, descriptor("g").compute
        assert h(vec).magnitude == h(vec).magnitude == 3.0
        assert g(vec).magnitude == 4.0
        assert compute_all(vec)["h"] == h(vec)
        assert vec._ladder is compute_all(vec) and len(sums) == 1
        other = CitationVector([10, 5, 3, 2, 1])
        assert compute_all(other)["h"] == h(other) and len(sums) == 2


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
