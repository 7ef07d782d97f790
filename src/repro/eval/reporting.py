"""Plain-text reporting helpers for the evaluation harness.

The paper presents its evaluation as bar charts and CDF plots; since this
reproduction is headless, every figure is regenerated as a text table holding
the same series, which is what the benchmarks print.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from .metrics import relative_change

def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    float_format: str = "{:.4f}",
) -> str:
    """Render a list of rows as an aligned ASCII table."""
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered: List[str] = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(float_format.format(cell))
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    header_line = " | ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
    lines.append(header_line)
    lines.append("-+-".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def relative_savings_percent(baseline: float, improved: float) -> float:
    """``100 * (baseline - improved) / baseline``: how much ``improved`` saves."""
    if baseline == 0:
        return 0.0
    return 100.0 * (baseline - improved) / baseline


def cdf_series(values: np.ndarray, points: Optional[Sequence[float]] = None) -> Dict[float, float]:
    """Empirical CDF of ``values`` evaluated at ``points`` (or deciles)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return {}
    if points is None:
        points = np.unique(np.percentile(values, np.arange(0, 101, 10)))
    return {float(p): float((values <= p).mean()) for p in points}


def summarize_comparison(results: Mapping[str, float], reference_key: str) -> str:
    """One-line summary comparing every entry against ``results[reference_key]``."""
    reference = results[reference_key]
    parts = []
    for key, value in results.items():
        if key == reference_key:
            parts.append(f"{key}={value:.4f} (reference)")
        else:
            delta = relative_change(reference, value)
            parts.append(f"{key}={value:.4f} ({delta:+.1f}% vs {reference_key})")
    return "; ".join(parts)
