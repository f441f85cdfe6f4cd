"""
Scaling probe
-------------
Realize each dimension as a measurable slope.  Replicating a portfolio
(lambda copies of every paper, each with lambda times the citations)
must scale an indicator of dimension [P^d] by lambda^d, so on log-log
axes the points fall on a line of slope d.
"""

from pathlib import Path

from scindex import (
    PlotSeries,
    emit_loglog_svg,
    probe_registry,
    replicate_scale,
)

base = [4, 2, 1]
print("base portfolio:", base, "-> doubled:", list(replicate_scale(base, 2)))

print("\nprobe over lambdas 1..5:")
results = probe_registry(base, lambdas=(1, 2, 3, 4, 5))
for r in results:
    slope = "   zero " if r.estimate is None else f"{r.estimate.slope:8.4f}"
    verdict = "pass" if r.passed else "FAIL"
    print(f"  {r.indicator:>4}  declared {str(r.declared_exponent):>4}  fitted {slope}  {verdict}  {r.note}")

# g is the odd one out on tiny portfolios: replication lands between
# its rank thresholds (g([8,8,4,4,2,2]) = 5, not 4), so the fitted
# slope drifts above 1.  On longer, smoother portfolios it settles.
smooth = [30, 25, 20, 18, 16, 14, 12, 10, 8, 6, 5, 4, 3, 2, 1]
g_result = probe_registry(smooth, names=["g"])[0]
print(f"\ng on a 15-paper portfolio: fitted slope {g_result.estimate.slope:.4f}")

# Render the positive series as a log-log SVG with slope annotations.
plottable = [
    PlotSeries(r.indicator, list(zip(r.lambdas, r.values)), r.estimate)
    for r in results
    if all(v > 0 for v in r.values)
]
svg, points_csv = emit_loglog_svg(plottable, title="replication scaling of citation indices")
out = Path(__file__).with_name("scaling_probe.svg")
out.write_text(svg)
out.with_suffix(".csv").write_text(points_csv)
print(f"\nwrote {out} and {out.with_suffix('.csv')}")
