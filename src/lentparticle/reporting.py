"""Deterministic CSV / JSON rendering of experiment results.

Reports must be byte-identical for identical configurations, so no
timestamps, hostnames or other environment state ever enter a report; floats
are rendered with repr (shortest round-trip form) and JSON keys are sorted.
"""

from __future__ import annotations

import json
import os

import numpy as np


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def render_csv(rows: list[dict]) -> str:
    """Rows as CSV with columns in first-appearance order."""
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(c, "")) for c in columns))
    return "\n".join(lines) + "\n"


def render_json(summary: dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


def write_result(result, out_dir: str) -> tuple[str, str]:
    """Write <name>.csv (rows) and <name>.json (summary); returns the paths."""
    base = result.config.experiment
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{base}.csv")
    json_path = os.path.join(out_dir, f"{base}.json")
    with open(csv_path, "w") as fh:
        fh.write(render_csv(result.rows))
    with open(json_path, "w") as fh:
        fh.write(render_json(result.summary()))
    return csv_path, json_path
