"""Summarize how far the reports of a change drift from those of its parent.

    python3 tools/report_drift.py BASE_DIR HEAD_DIR

Run it on two outputs of ``tools/render_reports.py``.  Files are matched by
their path relative to each directory.  For every file whose bytes differ it
prints the largest relative change |head - base| / |base| of any numeric cell
(a CSV cell, or a number in a JSON report) other than a z score, with its
column, its row and both values.  A base value of 0 against a nonzero head
value reads as inf.  The z-score cells (columns in Z_SCORES) follow on their own
line, by their largest absolute change |head - base|: z = (mean - target) / SE
is a difference of near-equal numbers wherever it is near 0, so a relative
change there multiplies a mean's drift by mean / (mean - target).

It exits 1 if a check verdict changed (any cell named ``passed``), if a file
is present on one side only, or if two differing files do not line up cell
for cell (a row added, a text cell changed), and 0 otherwise, byte-identical
directories included.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys

VERDICT = "passed"
Z_SCORES = ("z_score", "freq_z_score", "worst_z")


def _files(root: str) -> set[str]:
    out = set()
    for folder, _, names in os.walk(root):
        out.update(os.path.relpath(os.path.join(folder, n), root) for n in names)
    return out


def _csv_cells(text: str) -> list[tuple[str, str, str]]:
    """(column, row, text) of every cell; rows count from 1 after the header."""
    rows = list(csv.reader(io.StringIO(text)))
    header, body = (rows[0], rows[1:]) if rows else ([], [])
    cells = [("<header>", "0", ",".join(header))]
    for i, row in enumerate(body, start=1):
        cells += [(header[j] if j < len(header) else f"#{j}", str(i), cell)
                  for j, cell in enumerate(row)]
    return cells


def _json_cells(value, row: str = "", column: str = "") -> list[tuple[str, str, object]]:
    """(key, path of the enclosing object, leaf) of every leaf of a JSON document.

    A list entry that carries a ``name`` shows it in the path, so a check
    reads as ``checks[2](its name)``.
    """
    if isinstance(value, dict):
        where = f"{row}.{column}" if row and column else row or column
        out = []
        for key in sorted(value):
            out += _json_cells(value[key], where, key)
        return out
    if isinstance(value, list):
        out = []
        for i, item in enumerate(value):
            name = item.get("name") if isinstance(item, dict) else None
            label = f"{column}[{i}]" + (f"({name})" if name is not None else "")
            out += _json_cells(item, row, label)
        return out
    return [(column, row or "<top>", value)]


def _number(cell) -> float | None:
    if isinstance(cell, bool):
        return None
    if isinstance(cell, (int, float)):
        return float(cell)
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _relative(base: float, head: float) -> float:
    if base == head or (math.isnan(base) and math.isnan(head)):
        return 0.0
    if base == 0.0 or not math.isfinite(base):
        return math.inf
    return abs(head - base) / abs(base)


def compare(base_text: str, head_text: str, is_json: bool) -> tuple[dict, list[str]]:
    """(largest changes, problems) of two reports.

    The largest changes map "relative" (any cell but a z score) and "absolute"
    (the z scores) to (change, column, row, base, head), each when some such
    cell differs.  A problem is a changed verdict or a cell that has no numeric
    counterpart.
    """
    if is_json:
        base_cells = _json_cells(json.loads(base_text))
        head_cells = _json_cells(json.loads(head_text))
    else:
        base_cells, head_cells = _csv_cells(base_text), _csv_cells(head_text)
    if [c[:2] for c in base_cells] != [c[:2] for c in head_cells]:
        return {}, ["the two reports do not line up cell for cell"]
    worst, problems = {}, []
    for (column, row, base), (_, _, head) in zip(base_cells, head_cells):
        if base == head:
            continue
        b, h = _number(base), _number(head)
        if column == VERDICT:
            problems.append(f"verdict changed at {row}: {base} -> {head}")
        elif b is None or h is None:
            problems.append(f"text changed at column {column}, row {row}: {base!r} -> {head!r}")
        else:
            kind = "absolute" if column in Z_SCORES else "relative"
            change = abs(h - b) if kind == "absolute" else _relative(b, h)
            if kind not in worst or change > worst[kind][0]:
                worst[kind] = (change, column, row, base, head)
    return worst, problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/report_drift.py BASE_DIR HEAD_DIR", file=sys.stderr)
        return 2
    base_dir, head_dir = argv
    base_files, head_files = _files(base_dir), _files(head_dir)
    failed = False
    for rel in sorted(base_files ^ head_files):
        side = "base" if rel in base_files else "head"
        print(f"{rel}: only in {side}")
        failed = True
    identical = 0
    for rel in sorted(base_files & head_files):
        with open(os.path.join(base_dir, rel)) as fh:
            base_text = fh.read()
        with open(os.path.join(head_dir, rel)) as fh:
            head_text = fh.read()
        if base_text == head_text:
            identical += 1
            continue
        worst, problems = compare(base_text, head_text, rel.endswith(".json"))
        for kind, label in (("relative", "relative change"),
                            ("absolute", "absolute change of a z score")):
            if kind in worst:
                value, column, row, base, head = worst[kind]
                print(f"{rel}: largest {label} {value:.2g} at column {column}, "
                      f"row {row}: {base} -> {head}")
        if not worst and not problems:
            print(f"{rel}: the bytes differ but no cell does")
        for problem in problems:
            print(f"{rel}: {problem}")
        failed = failed or bool(problems)
    print(f"{identical} of {len(base_files | head_files)} files byte-identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
