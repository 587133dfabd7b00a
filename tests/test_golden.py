"""Golden records: the exact bytes `hydrocm run` writes for a small matrix.

Each case below is run in-process through `hydrocm run` with two
repetitions, and every file it writes (`records.csv`, one trace per
repetition and, for subset sum, `instance.txt`) must equal the copy under
`tests/golden/<case>/` byte for byte. Work that only makes the program
faster must leave these files alone.

A change that alters how the random stream is consumed changes them on
purpose. Such a change regenerates the goldens from its own code and says
so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py

This rewrites `tests/golden/` from the `hydrocm` found on PYTHONPATH.
"""

import shutil
import sys
import tempfile
from pathlib import Path

import pytest
import yaml

from hydrocm.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

MMDP5 = {"kind": "mmdp", "k": 5}
RING8 = {"kind": "ring", "n": 8, "fast_positions": [0, 3]}
COMMON = {"repetitions": 2, "budget": 20_000, "master_seed": 1000}

CASES = {
    "mmdp5-ethane_g": {"problem": MMDP5, "setup": {"kind": "ethane_g"}},
    "mmdp5-ethane_s": {"problem": MMDP5, "setup": {"kind": "ethane_s"}},
    "mmdp5-ring8": {"problem": MMDP5, "setup": RING8},
    "mmdp5-panmictic_ssga": {"problem": MMDP5, "setup": {"kind": "panmictic_ssga"}},
    "mmdp5-panmictic_sa": {"problem": MMDP5, "setup": {"kind": "panmictic_sa"}},
    "ssp64-ethane_s": {"problem": {"kind": "ssp", "n": 64, "seed": 7}, "setup": {"kind": "ethane_s"}},
    "ssp64-ethane_g": {"problem": {"kind": "ssp", "n": 64, "seed": 7}, "setup": {"kind": "ethane_g"}},
    "ssp2048-panmictic_sa": {
        "problem": {"kind": "ssp", "n": 2048, "seed": 3},
        "setup": {"kind": "panmictic_sa"},
    },
    "mmdp25-ring8-mig1": {
        "problem": {"kind": "mmdp", "k": 25},
        "setup": RING8,
        "budget": 5_000,
        "migration_frequency": 1,
    },
}


def run_case(name: str, work: Path) -> Path:
    """Run one case under `work`; returns its output directory."""
    config = work / f"{name}.yaml"
    config.write_text(yaml.safe_dump({**COMMON, **CASES[name]}))
    out = work / name
    rc = main(["run", "--config", str(config), "--out", str(out)])
    if rc != 0:
        raise RuntimeError(f"hydrocm run exited {rc} on case {name}")
    return out


def files_under(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path, capsys):
    got = files_under(run_case(name, tmp_path))
    want = files_under(GOLDEN / name)
    assert want, f"no golden files for {name}"
    assert sorted(got) == sorted(want)
    for path, data in want.items():
        assert got[path] == data, f"{name}/{path} differs from its golden copy"


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            out = run_case(name, Path(tmp))
            shutil.rmtree(GOLDEN / name, ignore_errors=True)
            shutil.copytree(out, GOLDEN / name)
            print(f"wrote {GOLDEN / name}")


if __name__ == "__main__":
    sys.exit(regenerate())
