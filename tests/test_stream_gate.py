"""Random-stream gate: a change to how the random stream is consumed must
search no worse than the pinned effort reference.

`tests/golden/effort.csv` (`cell,seed,evaluations,success`) holds the
evaluations used and the outcome for seeds 1000-1099 on eight cells: the
six criterion-3 cells (ethane_g, ethane_s and ring8 on MMDP k=5 with a
500k budget and on SSP n=16, instance seed 11, with a 100k budget) and
the panmictic ssGA and SA baselines on MMDP k=5 with a 500k budget. For
each cell the current code must give

- a two-sided Mann-Whitney p > 0.01 between the reference and the
  current evaluation counts, with the repo's own `mann_whitney_u`, and
- at least 95 of 100 seeds solved, the criterion-3 bound.

The reference was written from commit fd29ef57c022 (per-bit mutation
from one uniform per bit) with

    PYTHONPATH=src python tests/test_stream_gate.py

run in a checkout of that commit with this file and effort_cells.py
copied in. It is the fixed point the gate compares against: it is not
regenerated to make a stream change pass. A change that passes the gate
still regenerates the byte-level goldens (see test_golden.py) and logs
the change and its p-values in CHANGES.md.
"""

import csv
import sys
from pathlib import Path

import pytest

from effort_cells import CELLS, SEEDS, effort
from hydrocm.stats import mann_whitney_u

REFERENCE = Path(__file__).resolve().parent / "golden" / "effort.csv"
P_MIN = 0.01
MIN_SOLVED = 95


def read_reference() -> dict:
    cells = {}
    with REFERENCE.open(newline="") as fh:
        for row in csv.DictReader(fh):
            cells.setdefault(row["cell"], []).append(
                (int(row["seed"]), int(row["evaluations"]), row["success"] == "1")
            )
    return cells


def test_reference_covers_every_cell_and_seed():
    reference = read_reference()
    assert sorted(reference) == sorted(CELLS)
    for rows in reference.values():
        assert [seed for seed, _, _ in rows] == list(SEEDS)


@pytest.mark.parametrize("cell", CELLS)
def test_effort_matches_reference(cell):
    reference = [evals for _, evals, _ in read_reference()[cell]]
    current = effort(cell)
    _, p, _ = mann_whitney_u(reference, [evals for evals, _ in current])
    solved = sum(success for _, success in current)
    print(f"[stream gate] {cell}: p={p:.4f} solved={solved}/{len(current)}")
    assert p > P_MIN, f"{cell}: effort differs from the reference (Mann-Whitney p={p:.4f})"
    assert solved >= MIN_SOLVED, f"{cell}: solved {solved}/{len(current)} < {MIN_SOLVED}"


def write_reference() -> None:
    with REFERENCE.open("w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["cell", "seed", "evaluations", "success"])
        for cell in CELLS:
            for seed, (evals, success) in zip(SEEDS, effort(cell)):
                out.writerow([cell, seed, evals, int(success)])
            print(f"wrote {cell}", flush=True)


if __name__ == "__main__":
    sys.exit(write_reference())
