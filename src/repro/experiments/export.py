"""Export experiment data for external plotting.

Every :class:`~repro.experiments.registry.ExperimentReport` carries a
``data`` dict of machine-readable values; this module serializes it to
disk so the paper's figures can be regenerated with any plotting tool:

* ``<exp_id>.json`` — the full data dict (NumPy converted to lists);
* ``<exp_id>__<key>.csv`` — two-column CSVs for every 1-D array series
  (index, value), gnuplot/pandas-ready.

Wired to the CLI as ``repro experiments fig9 --export out/``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.experiments.registry import ExperimentReport

__all__ = ["export_report"]


def _jsonable(value: Any) -> Any:
    """Recursively convert report data into JSON-serializable values."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    # Dataclasses and other objects: fall back to their repr.
    return repr(value)


def _array_series(data: dict[str, Any], prefix: str = "") -> dict[str, np.ndarray]:
    """Collect every 1-D numeric array reachable in the data dict."""
    out: dict[str, np.ndarray] = {}
    for key, value in data.items():
        name = f"{prefix}{key}"
        if isinstance(value, np.ndarray) and value.ndim == 1 and value.size:
            out[name] = value
        elif (
            isinstance(value, (list, tuple))
            and value
            and all(isinstance(v, (int, float, np.integer, np.floating))
                    for v in value)
        ):
            out[name] = np.asarray(value, dtype=float)
        elif isinstance(value, dict):
            out.update(_array_series(value, prefix=f"{name}__"))
    return out


def _safe(name: str) -> str:
    return "".join(c if (c.isalnum() or c in "-_.") else "_" for c in name)


def export_report(report: ExperimentReport, directory: str | Path) -> list[Path]:
    """Write a report's data to ``directory``; returns the paths written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    json_path = directory / f"{report.exp_id}.json"
    payload = {
        "exp_id": report.exp_id,
        "title": report.title,
        "notes": report.notes,
        "data": _jsonable(report.data),
    }
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    written.append(json_path)

    for name, series in _array_series(report.data).items():
        csv_path = directory / f"{report.exp_id}__{_safe(name)}.csv"
        with csv_path.open("w", encoding="utf-8") as fh:
            fh.write("index,value\n")
            for i, v in enumerate(series):
                fh.write(f"{i},{v!r}\n")
        written.append(csv_path)
    return written
