"""Run results and their flat on-disk formats.

Record files: a CSV header `seed,evaluations,elapsed_ms,best,success`
followed by one row per run. Trace files: `time_ms,fitness` per line.
Both are written with fixed newlines and repr-exact floats so that
virtual-time reruns are byte-identical.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

RECORD_HEADER = "seed,evaluations,elapsed_ms,best,success"
DECIMAL = re.compile(r"-?[0-9]+")


@dataclass(frozen=True, slots=True)
class IslandStats:
    """One node's counters over a run, derived once when the run ends."""

    evaluations: int
    iterations: int
    emigrants_sent: int
    immigrants_received: int
    messages_dropped: int


@dataclass(frozen=True)
class RecordRow:
    """One row of a record file."""

    seed: int
    evaluations: int
    elapsed_ms: float
    best: float
    success: bool


@dataclass(frozen=True)
class RunResult(RecordRow):
    """Outcome of one optimization run: its record row, plus the trace and
    the per-node counters.

    `trace` is an ordered list of (time_ms, best) pairs, one entry per
    improvement of the global best; `elapsed_ms` is virtual time in
    ticks, one tick per iteration of a speed-1.0 node.
    """

    trace: list[tuple[float, float]]
    per_island: dict[str, IslandStats]


def write_records(path, rows: list[RecordRow]) -> None:
    lines = [RECORD_HEADER]
    lines.extend(f"{r.seed},{r.evaluations},{r.elapsed_ms!r},{r.best!r},{int(r.success)}" for r in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def _finite(name: str, cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {cell!r}")
    return value


def _at_least(name: str, value, minimum):
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return value


def read_records(path) -> list[RecordRow]:
    """Parse a record file; raises ValueError naming the file, and the
    offending line. `success` must be 0 or 1, `seed` and `evaluations`
    decimal integers at least 0 and 1, `elapsed_ms` finite and at least 0
    (a run can solve at initialization), and `best` finite."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1] != RECORD_HEADER:
        raise ValueError(f"{path}: line 1: expected header '{RECORD_HEADER}'")
    rows = []
    for lineno, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 5:
            raise ValueError(f"{path}: line {lineno}: expected 5 fields, got {len(parts)}")
        try:
            for name, cell in zip(("seed", "evaluations"), parts):
                if not DECIMAL.fullmatch(cell):
                    raise ValueError(f"{name} must be a decimal integer, got {cell!r}")
            if int(parts[1]) > sys.maxsize:  # past any real run, and `report` squares deviations as floats
                raise ValueError(f"evaluations must be at most {sys.maxsize}, got {parts[1]!r}")
            if parts[4] not in ("0", "1"):
                raise ValueError(f"success must be 0 or 1, got {parts[4]!r}")
            rows.append(
                RecordRow(
                    seed=_at_least("seed", int(parts[0]), 0),
                    evaluations=_at_least("evaluations", int(parts[1]), 1),
                    elapsed_ms=_at_least("elapsed_ms", _finite("elapsed_ms", parts[2]), 0.0),
                    best=_finite("best", parts[3]),
                    success=parts[4] == "1",
                )
            )
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return rows


def write_trace(path, trace: list[tuple[float, float]]) -> None:
    lines = [f"{t!r},{f!r}" for t, f in trace]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
