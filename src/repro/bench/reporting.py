"""Plain-text rendering of benchmark tables and series.

The benchmarks print the same rows/series the paper's tables and
figures report; these helpers keep that output consistent and readable
in pytest's captured output (run with ``-s`` or read the benchmark
logs).
"""

from __future__ import annotations

from typing import Sequence

from repro.util.units import format_bytes


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Fixed-width ASCII table."""
    cells = [[str(h) for h in headers]] + [
        [str(c) for c in row] for row in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(cells):
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def fmt_seconds(value: float) -> str:
    """Seconds with sensible precision (milliseconds when tiny)."""
    if value < 0.1:
        return f"{value * 1000:.2f}ms"
    if value < 10:
        return f"{value:.3f}s"
    return f"{value:.1f}s"


def fmt_mb(size: float) -> str:
    """Byte counts via the shared unit formatter."""
    return format_bytes(size)


def fmt_mbps(bytes_per_second: float) -> str:
    """Rate in Mbit/s (how the paper quotes Table 2)."""
    return f"{bytes_per_second * 8 / 1e6:.3f} Mbps"
