"""Definitional rank-index scans, the oracles the h and g kernels are checked against."""


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
