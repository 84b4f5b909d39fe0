"""Deterministic report serialization.

Reports are JSON envelopes {"meta": ..., "report": ...}: everything under
"report" is byte-reproducible for a fixed scenario and seed (sorted keys,
canonical float repr), while "meta" holds the timestamp and runtime that
legitimately vary between runs. CSV series go to sibling files.

A series is its header row plus lines that its runner formatted where it
made the data, one finished CSV row per line with csv.writer's bytes: the
numeric runners format floats with repr and ints with str, and a runner
whose fields may need quotes takes its lines from `csv_lines`.
"""

from __future__ import annotations

import csv
import json
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Sequence


def _canonical(value):
    if isinstance(value, Fraction):
        return {"numerator": value.numerator, "denominator": value.denominator, "float": float(value)}
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def canonical_json(payload: dict) -> str:
    return json.dumps(_canonical(payload), sort_keys=True, separators=(",", ":"))


def report_body_bytes(envelope: dict) -> bytes:
    """The deterministic portion of a report envelope."""
    return canonical_json(envelope.get("report", {})).encode()


def write_report(path: Path, report: dict, runtime_seconds: float) -> None:
    envelope = {
        "meta": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "runtime_seconds": runtime_seconds,
        },
        "report": _canonical(report),
    }
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(envelope, sort_keys=True, indent=2) + "\n")
    tmp.replace(path)


# Lines joined per write: the joined text and its encoded copy stay small
# beside the lines of a large series, instead of doubling what it holds.
_SERIES_CHUNK = 1024


def write_series(path: Path, header: Sequence[str], lines: Sequence[str]) -> None:
    """The header row, then the finished lines, one per data row."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    with tmp.open("w", newline="") as handle:
        csv.writer(handle).writerow(header)
        for start in range(0, len(lines), _SERIES_CHUNK):
            handle.write("".join(lines[start : start + _SERIES_CHUNK]))
    tmp.replace(path)


def csv_lines(rows: Iterable[Sequence]) -> list:
    """Each row as csv.writer writes it, quotes and line end included."""
    lines = []
    csv.writer(SimpleNamespace(write=lines.append)).writerows(rows)
    return lines


def load_report(path: Path) -> dict:
    return json.loads(Path(path).read_text())
