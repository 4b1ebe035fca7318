"""ASCII and Markdown rendering of the paper's tables and series."""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence

from repro.common.errors import ConfigurationError


def geomean(values: Iterable[float], series: Optional[str] = None) -> float:
    """Geometric mean (the paper's averaging throughout §7).

    ``math.log`` is undefined for zero/negative entries and propagates
    ``inf``/``NaN``, so non-positive and non-finite values are excluded:
    a zero-utilization phase or an unmeasured (NaN) point should not
    crash report generation or poison every other entry's average — the
    mean is taken over the points that carry information.  Pass
    ``series`` to instead fail loudly: a :class:`ConfigurationError`
    naming the offending series is raised when any value would have been
    skipped (for callers where a non-positive entry means the input data
    is corrupt rather than merely sparse).
    """
    values = list(values)
    items = [v for v in values if v > 0 and math.isfinite(v)]
    if series is not None and len(items) != len(values):
        bad = [v for v in values if not (v > 0 and math.isfinite(v))]
        raise ConfigurationError(
            f"geomean of series {series!r} requires positive finite values; "
            f"got {bad}"
        )
    if not items:
        return 0.0
    return math.exp(sum(math.log(v) for v in items) / len(items))


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Fixed-width table with a header rule."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def md_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """GitHub-flavoured Markdown table (``repro report`` / ``perf-report`` /
    ``fidelity``)."""
    lines = ["| " + " | ".join(str(h) for h in headers) + " |"]
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def format_series(
    label: str, values: Sequence[float], width: int = 60, unit: str = ""
) -> str:
    """A one-line sparkline-ish rendering of a numeric series."""
    if not values:
        return f"{label}: (empty)"
    peak = max(values)
    # An all-non-positive series has no meaningful peak to normalise by;
    # render it flat rather than dividing by a negative/zero peak.
    scale_by = peak if peak > 0 else 1.0
    glyphs = " .:-=+*#%@"
    # Clamp below as well as above: a negative value would otherwise
    # produce a negative glyph index, which Python silently wraps to the
    # *highest* glyph — a dip would render as a spike.
    bar = "".join(
        glyphs[max(0, min(len(glyphs) - 1, int(v / scale_by * (len(glyphs) - 1))))]
        for v in _resample(values, width)
    )
    return f"{label:>18} |{bar}| peak={peak:.3g}{unit}"


def _resample(values: Sequence[float], width: int) -> List[float]:
    if len(values) <= width:
        return list(values)
    out = []
    for i in range(width):
        lo = i * len(values) // width
        hi = max(lo + 1, (i + 1) * len(values) // width)
        out.append(sum(values[lo:hi]) / (hi - lo))
    return out


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3g}" if abs(value) < 1000 else f"{value:.0f}"
    return str(value)
