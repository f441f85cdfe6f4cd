"""Definitional oracles: the rank-index scans the h and g kernels are checked
against, and the table rows the JSON table writer is checked against."""


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


def table_rows(table):
    """JSON-ready rows of an analytics table: exact values, rendered dimension,
    and ``"reconstructed": true`` on each cell rebuilt from a summary triple."""
    rows = []
    for label, values, recon in zip(table.labels, table.rows, table.reconstructed):
        row = {"author": label}
        for name, dim, value in zip(table.columns, table.dims, values):
            cell = {"value": value, "dimension": str(dim)}
            if name in recon:
                cell["reconstructed"] = True
            row[name] = cell
        rows.append(row)
    return rows
