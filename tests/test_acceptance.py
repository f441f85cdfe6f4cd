"""Acceptance suite: end-to-end checks with pinned tolerances.

One test per criterion; each prints a single ``ACCEPTANCE n ...: PASS``
or ``... FAIL`` line (run pytest with ``-s`` to see them live).

Criterion 4 is expected to fail on the g-index gate: replication lands
between g's rank thresholds on the two tiny fixed bases ([4,2,1] and
[10,5,3,2,1]), so their fitted slopes (~1.11 and ~1.06) genuinely
exceed the 0.05 gate.  The probe is correct to flag them; the check is
kept at its stated tolerance rather than loosened to force a pass.
"""

import operator
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from scindex import (
    Dimension,
    HeterogeneityError,
    Quantity,
    compute_all,
    dimension_of,
    pearson_matrix,
    registry_symbols,
    reconstruct_from_summary,
    verify_dimension,
)
from scindex.cli import main
from scindex.datasets import AUTHOR_COLUMNS, AUTHOR_ROWS, published_table
from scindex.indicators import REGISTRY

# Pinned tolerances.
C_ABS_TOL = 1.0
Z_REL_TOL = 0.01
IE_REL_TOL = 0.02
CORR_ABS_TOL = 0.02
EXACT_SLOPE_TOL = 1e-6
G_SLOPE_TOL = 0.05
LADDER_REL_TOL = 1e-9
N_RANDOM_PROBE_BASES = 100
N_RANDOM_ORACLE = 10_000
N_RANDOM_INVARIANT = 10_000

# The published correlation block over (P, i, eta, h, z, i_E, C).
PUBLISHED_CORRELATION = np.array(
    [
        [1.00, 0.04, -0.35, 0.74, 0.27, 0.29, 0.53],
        [0.04, 1.00, -0.41, 0.55, 0.88, 0.92, 0.83],
        [-0.35, -0.41, 1.00, -0.24, -0.14, -0.60, -0.52],
        [0.74, 0.55, -0.24, 1.00, 0.81, 0.65, 0.86],
        [0.27, 0.88, -0.14, 0.81, 1.00, 0.78, 0.85],
        [0.29, 0.92, -0.60, 0.65, 0.78, 1.00, 0.94],
        [0.53, 0.83, -0.52, 0.86, 0.85, 0.94, 1.00],
    ]
)


def _report(number: int, title: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"ACCEPTANCE {number} {title}: {verdict}{suffix}")


def test_criterion_1_reference_table_reconstruction():
    """Derived C, z, i_E match the published rows within rounding slack."""
    start = time.perf_counter()
    failures = []
    for row in AUTHOR_ROWS:
        report = reconstruct_from_summary(row.P, row.i, row.eta)
        c = report["C"].magnitude
        z = report["z"].magnitude
        i_e = report["i_E"].magnitude
        if abs(c - row.C) > C_ABS_TOL:
            failures.append(f"{row.author}: C {c:.2f} vs {row.C}")
        if abs(z - row.z) / row.z > Z_REL_TOL:
            failures.append(f"{row.author}: z {z:.2f} vs {row.z}")
        if abs(i_e - row.i_E) / row.i_E > IE_REL_TOL:
            failures.append(f"{row.author}: i_E {i_e:.2f} vs {row.i_E}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(1, "reference-table reconstruction", not failures, "; ".join(failures))
    assert not failures, failures


def test_criterion_2_correlation_block():
    """Pearson matrix over the published rows matches every printed r."""
    start = time.perf_counter()
    matrix = pearson_matrix(published_table(), AUTHOR_COLUMNS)
    deviations = np.abs(matrix - PUBLISHED_CORRELATION)
    elapsed = time.perf_counter() - start
    failures = []
    for a in range(len(AUTHOR_COLUMNS)):
        for b in range(len(AUTHOR_COLUMNS)):
            if deviations[a, b] > CORR_ABS_TOL:
                failures.append(
                    f"corr({AUTHOR_COLUMNS[a]},{AUTHOR_COLUMNS[b]}) "
                    f"{matrix[a][b]:.3f} vs {PUBLISHED_CORRELATION[a, b]:.2f}"
                )
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    detail = "" if failures else f"max deviation {deviations.max():.4f}"
    _report(2, "correlation-block reproduction", not failures, detail or "; ".join(failures))
    assert not failures, failures

    # Spot checks called out explicitly.
    cols = list(AUTHOR_COLUMNS)
    assert matrix[cols.index("P")][cols.index("h")] == pytest.approx(0.74, abs=CORR_ABS_TOL)
    assert matrix[cols.index("i")][cols.index("i_E")] == pytest.approx(0.92, abs=CORR_ABS_TOL)
    assert matrix[cols.index("eta")][cols.index("i_E")] == pytest.approx(-0.60, abs=CORR_ABS_TOL)


def test_criterion_3_dimension_row():
    """Formula dimensions reproduce the published dimension row exactly."""
    symbols = registry_symbols()
    rendered = [
        str(dimension_of(formula, symbols))
        for formula in ("i*P", "C/P", "X/E", "(eta*i^2*P)^(1/3)", "E^(1/2)")
    ]
    expected = ["[P^2]", "[P]", "dimensionless", "[P]", "[P^3/2]"]
    ok = rendered == expected
    _report(3, "dimension table", ok, "" if ok else f"{rendered} != {expected}")
    assert rendered == expected


def test_criterion_4_scaling_exponents():
    """Probe slopes on fixed and random bases, at the stated gates.

    Known-red: g on the two tiny fixed bases (slopes ~1.11 and ~1.06
    against the 0.05 gate); see the module docstring.
    """
    rng = np.random.default_rng(20260808)
    bases: list[list[int]] = [[4, 2, 1], [10, 5, 3, 2, 1]]
    for _ in range(N_RANDOM_PROBE_BASES):
        p = int(rng.integers(1, 26))
        counts = rng.integers(0, 41, size=p)
        if counts.max() == 0:
            counts[0] = 1
        bases.append([int(c) for c in counts])

    start = time.perf_counter()
    violations = []
    for base in bases:
        for desc in REGISTRY:
            tolerance = G_SLOPE_TOL if desc.name == "g" else EXACT_SLOPE_TOL
            result = verify_dimension(desc, base, lambdas=(1, 2, 3, 4, 5), tolerance=tolerance)
            if not result.passed:
                slope = result.estimate.slope if result.estimate else float("nan")
                violations.append(
                    f"{desc.name} slope {slope:.4f} vs {result.declared_exponent} "
                    f"(gate {tolerance}) on base {base}"
                )
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        violations.append(f"runtime {elapsed:.2f}s >= 5s")
    _report(4, "scaling-exponent verification", not violations, "; ".join(violations))
    assert not violations, violations


def _h_oracle(arr: np.ndarray) -> int:
    ranked = np.sort(arr)[::-1]
    return int(np.sum(ranked >= np.arange(1, arr.size + 1)))


def _g_oracle(arr: np.ndarray) -> int:
    ranked = np.sort(arr)[::-1]
    ranks = np.arange(1, arr.size + 1)
    hits = ranks[np.cumsum(ranked) >= ranks * ranks]
    return int(hits.max()) if hits.size else 0


def test_criterion_5_oracle_equivalence():
    """h and g match brute-force scans, exhaustively and at random.

    Exhaustive enumeration runs over sorted multisets: both the
    implementation and the oracles sort first, so every permutation of
    a vector reduces to the same case.
    """
    failures = []
    for p in range(1, 9):
        for combo in combinations_with_replacement(range(9), p):
            counts = list(combo)
            h_ref = max(
                (k for k in range(p + 1) if sum(1 for c in counts if c >= k) >= k),
                default=0,
            )
            ranked = sorted(counts, reverse=True)
            g_ref = max(
                (k for k in range(1, p + 1) if sum(ranked[:k]) >= k * k), default=0
            )
            report = compute_all(counts)
            if report["h"].magnitude != h_ref or report["g"].magnitude != g_ref:
                failures.append(f"exhaustive mismatch on {counts}")

    rng = np.random.default_rng(31415)
    for _ in range(N_RANDOM_ORACLE):
        p = int(rng.integers(1, 201))
        arr = rng.integers(0, 10_001, size=p)
        counts = [int(c) for c in arr]
        report = compute_all(counts)
        if int(report["h"].magnitude) != _h_oracle(arr):
            failures.append(f"h mismatch on random vector of size {p}")
        if int(report["g"].magnitude) != _g_oracle(arr):
            failures.append(f"g mismatch on random vector of size {p}")

    _report(5, "h/g oracle equivalence", not failures, "; ".join(failures[:5]))
    assert not failures, failures[:5]


def test_criterion_6_invariant_suite():
    """Permutation invariance, ratio bounds and identities in bulk."""
    rng = np.random.default_rng(271828)
    failures = []
    for _ in range(N_RANDOM_INVARIANT):
        p = int(rng.integers(1, 61))
        counts = [int(c) for c in rng.integers(0, 10_001, size=p)]
        report = {k: q.magnitude for k, q in compute_all(counts).items()}

        shuffled = list(counts)
        rng.shuffle(shuffled)
        permuted = {k: q.magnitude for k, q in compute_all(shuffled).items()}
        if report != permuted:
            failures.append(f"permutation variance on {counts}")
            break

        eta, s, x, e, z = (report[k] for k in ("eta", "S", "X", "E", "z"))
        uniform = len(set(counts)) == 1
        if not 0 < eta <= 1:
            failures.append(f"eta {eta} out of range on {counts}")
        if s < 0:
            failures.append(f"S {s} negative on {counts}")
        if x > e:
            failures.append(f"X {x} exceeds E {e} on {counts}")
        if (s == 0.0) != (eta == 1.0) or (eta == 1.0) != uniform:
            failures.append(f"S/eta equality case broken on {counts}")
        if abs(z**3 * e - x**2) > LADDER_REL_TOL * max(x**2, 1e-9):
            failures.append(f"z^3*E != X^2 on {counts}")
        if failures:
            break

    # Homogeneity errors must fire on every mixed-dimension add/compare.
    checked = 0
    for _ in range(N_RANDOM_INVARIANT):
        da = Dimension(Fraction(int(rng.integers(-60, 61)), int(rng.integers(1, 13))))
        db = Dimension(Fraction(int(rng.integers(-60, 61)), int(rng.integers(1, 13))))
        qa = Quantity(float(rng.uniform(-1e6, 1e6)), da)
        qb = Quantity(float(rng.uniform(-1e6, 1e6)), db)
        if da == db:
            operator.add(qa, qb)
            operator.lt(qa, qb)
            continue
        checked += 1
        for operation in (operator.add, operator.lt):
            try:
                operation(qa, qb)
            except HeterogeneityError:
                continue
            failures.append(f"{operation.__name__} allowed {da} with {db}")
    if checked < N_RANDOM_INVARIANT // 2:
        failures.append("heterogeneous pair generator degenerated")

    _report(6, "invariant suite", not failures, "; ".join(failures[:5]))
    assert not failures, failures[:5]


def test_criterion_7_cli_contract(capsys):
    """dims rejects heterogeneous sums; table1's dimension row is exact."""
    failures = []

    code = main(["dims", "i_E + h"])
    captured = capsys.readouterr()
    if code != 1:
        failures.append(f"dims exit code {code} != 1")
    if "cannot add" not in captured.err or "[P^3/2]" not in captured.err:
        failures.append(f"missing homogeneity message: {captured.err!r}")

    code = main(["table1"])
    captured = capsys.readouterr()
    if code != 0:
        failures.append(f"table1 exit code {code} != 0")
    expected_row = "dimensions\t[P]\t[P]\tdimensionless\t[P]\t[P]\t[P^3/2]\t[P^2]"
    rows = captured.out.splitlines()
    if len(rows) < 2 or rows[1] != expected_row:
        failures.append(f"dimension row {rows[1] if len(rows) > 1 else '???'!r}")

    _report(7, "CLI contract", not failures, "; ".join(failures))
    assert not failures, failures
