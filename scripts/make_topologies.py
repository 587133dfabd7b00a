#!/usr/bin/env python3
"""Regenerate the shipped topology files in topologies/."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hydrocm.topology import ethane_topology, panmictic_topology, ring_topology, save_topology

out = Path(__file__).resolve().parent.parent / "topologies"
out.mkdir(exist_ok=True)
specs = {
    "ethane_g": ethane_topology("G"),
    "ethane_s": ethane_topology("S"),
    "ring8": ring_topology(8, [0, 3]),
    "panmictic_ssga": panmictic_topology("ssga"),
    "panmictic_sa": panmictic_topology("sa"),
}
for name, spec in specs.items():
    save_topology(spec, out / f"{name}.topology")
print(f"wrote {', '.join(f'{name}.topology' for name in specs)} to {out}")
