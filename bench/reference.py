"""Independent reference values for the indicator ladder.

Everything here is computed with numpy and exact Python integers or
fractions straight from the generated inputs.  Nothing imports scindex,
so a defect in the program cannot hide in its own check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

NAMES = ("P", "C", "i", "h", "g", "X", "E", "S", "eta", "z", "i_E")

# The paper's declared power of [P] for each indicator.
EXPONENTS = {
    "P": Fraction(1), "C": Fraction(2), "i": Fraction(1), "h": Fraction(1),
    "g": Fraction(1), "X": Fraction(3), "E": Fraction(3), "S": Fraction(3),
    "eta": Fraction(0), "z": Fraction(1), "i_E": Fraction(3, 2),
}

DIMENSIONS = {
    name: "dimensionless" if e == 0 else "[P]" if e == 1 else f"[P^{e}]"
    for name, e in EXPONENTS.items()
}

# Integer-valued indicators must match bit for bit; the rest within REL_TOL.
EXACT = frozenset({"P", "C", "E", "h", "g"})
REL_TOL = 1e-9
# Probe slopes of exactly-scaling indicators must sit this close to the
# declared exponent; g's rank thresholds are exempt.
SLOPE_TOL = 1e-6


def indicators(counts: Sequence[int] | np.ndarray) -> dict[str, float]:
    """Every ladder indicator of one citation vector."""
    c = np.sort(np.asarray(counts, dtype=np.int64))[::-1]
    values = c.tolist()
    p = len(values)
    total = sum(values)
    energy = sum(x * x for x in values)
    if total >= 2**62:
        raise ValueError("reference cumsum would overflow int64")
    ranks = np.arange(1, p + 1, dtype=np.int64)
    h = int(np.count_nonzero(c >= ranks))
    g = int(np.count_nonzero(np.cumsum(c) >= ranks * ranks))
    exergy = Fraction(total * total, p)
    eta = exergy / energy if energy else Fraction(1)
    return {
        "P": float(p),
        "C": float(total),
        "i": total / p,
        "h": float(h),
        "g": float(g),
        "X": float(exergy),
        "E": float(energy),
        "S": float(Fraction(p * energy - total * total, p)),
        "eta": float(eta),
        "z": float(exergy * eta) ** (1.0 / 3.0),
        "i_E": math.sqrt(energy),
    }


def from_summary(papers: int, impact: float, evenness: float, h: int) -> dict[str, float]:
    """Indicators a published (P, i, eta, h) row determines, in exact rationals."""
    i = Fraction(impact)
    eta = Fraction(evenness)
    exergy = i * i * papers
    energy = exergy / eta
    return {
        "P": float(papers),
        "C": float(i * papers),
        "i": impact,
        "h": float(h),
        "X": float(exergy),
        "E": float(energy),
        "S": float(energy - exergy),
        "eta": evenness,
        "z": float(exergy * eta) ** (1.0 / 3.0),
        "i_E": math.sqrt(float(energy)),
    }


def value_problems(label: str, got: Mapping[str, float], want: Mapping[str, float]) -> list[str]:
    """Mismatches between full-precision program values and the reference."""
    problems = []
    for name, expected in want.items():
        if name not in got:
            problems.append(f"{label}: {name} missing")
            continue
        value = got[name]
        if name in EXACT:
            ok = value == expected
        elif name == "S":
            # S is a difference of [P^3] terms; judge it on E's scale.
            ok = abs(value - expected) <= REL_TOL * max(want.get("E", 0.0), abs(expected))
        else:
            ok = math.isclose(value, expected, rel_tol=REL_TOL)
        if not ok:
            problems.append(f"{label}: {name} = {value!r}, reference {expected!r}")
    return problems


def printed_ok(cell: str, expected: float, decimals: int) -> bool:
    """A rendered cell lies within half a unit of its last printed decimal."""
    try:
        value = float(cell)
    except ValueError:
        return False
    half_unit = 0.5 * 10.0**-decimals
    return abs(value - expected) <= half_unit * (1 + 1e-9) + 1e-12 * abs(expected)
