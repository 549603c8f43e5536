"""Plain-text rendering helpers for experiment reports.

Everything an experiment prints goes through these helpers so reports
stay uniform: fixed-width ASCII tables and consistent number
formatting.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

__all__ = ["fmt", "records_table", "render_table"]


def fmt(value: Any, digits: int = 3) -> str:
    """Uniform scalar formatting: floats rounded, inf/nan spelled out."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        if value == 0:
            return "0"
        if abs(value) >= 10_000 or abs(value) < 10 ** (-digits):
            return f"{value:.{digits}g}"
        return f"{value:.{digits}f}".rstrip("0").rstrip(".")
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: str | None = None,
    digits: int = 3,
) -> str:
    """Fixed-width ASCII table with right-aligned numeric columns."""
    cells = [[fmt(v, digits) for v in row] for row in rows]
    cols = [str(h) for h in headers]
    widths = [len(h) for h in cols]
    for row in cells:
        if len(row) != len(cols):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(cols)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "+".join("-" * (w + 2) for w in widths)
    sep = f"+{sep}+"
    out: list[str] = []
    if title:
        out.append(title)
    out.append(sep)
    out.append(
        "|" + "|".join(f" {h:<{w}} " for h, w in zip(cols, widths)) + "|"
    )
    out.append(sep)
    for row in cells:
        out.append(
            "|" + "|".join(f" {c:>{w}} " for c, w in zip(row, widths)) + "|"
        )
    out.append(sep)
    return "\n".join(out)


#: summary columns every tier emits (see ``SimulationResult.summary``).
_RECORD_SUMMARY_KEYS = ("n_tasks", "mean_wallclock", "mean_wpr",
                        "mean_failures", "completion_rate")


def records_table(records: Sequence[Any]) -> str:
    """Uniform table over :class:`~repro.store.RunRecord` payloads.

    Accepts records or their dict forms (store reads, sweep/campaign
    report cells) and renders the shared summary columns — the one
    rendering path for everything that reports per-cell results.
    """
    rows = []
    for record in records:
        cell = record if isinstance(record, dict) else record.to_dict()
        summary = cell.get("summary", {})
        digest = cell.get("digest") or ""
        rows.append(
            [cell.get("name", "?"), cell.get("tier", "?"),
             cell.get("spec_digest", "")[:12], digest[:12]]
            + [summary.get(k, float("nan")) for k in _RECORD_SUMMARY_KEYS]
        )
    headers = ["name", "tier", "spec", "digest", *_RECORD_SUMMARY_KEYS]
    return render_table(headers, rows)
