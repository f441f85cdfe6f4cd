"""
Dimensioned indicators
----------------------
Compute every indicator for a small portfolio and see why carrying the
unit [P] (one publication) around matters: indices that look comparable
as bare numbers may live on different powers of [P].
"""

from scindex import compute_all

counts = [12, 7, 5, 3, 1, 1, 0]
report = compute_all(counts)

print("portfolio:", counts)
for name, quantity in report.items():
    print(f"  {name:>4} = {quantity.magnitude:10.4f}   {quantity.dim}")

# h and g share the dimension [P], so they may be compared directly.
h = report["h"]
print("\nh < g:", h < report["g"])

# The Euclidean length lives on [P^3/2]; adding it to h is meaningless
# and the algebra refuses to do it.
i_e = report["i_E"]
print(f"h = {h}, i_E = {i_e}")
try:
    h + i_e
except Exception as exc:
    print("h + i_E ->", exc)

# Ratios of like-dimensioned quantities are dimensionless and safe.
ratio = i_e / i_e
print("i_E / i_E =", ratio.magnitude, f"({ratio.dim})")
