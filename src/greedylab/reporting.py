"""Deterministic report emission: CSV/JSON writers and the item map.

CSV uses '.' decimals, '\n' line endings and a mandatory header row; floats
are rendered with repr (shortest round-trip), so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterable, Sequence

__all__ = ["format_cell", "write_csv", "write_json", "parallel_map"]


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_csv(path: Path | str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_json(path: Path | str, payload) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8", newline="\n")


def parallel_map(fn: Callable, items: Iterable) -> list:
    """Order-preserving map over independent items: each item is a trial's
    row of draws, with the numbers computed for it before the map."""
    return [fn(it) for it in items]
