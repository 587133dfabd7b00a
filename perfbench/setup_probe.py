"""Set-up probe for the benchmark: a fresh interpreter imports hydrocm and
loads every experiment config named on the command line, which is what
`hydrocm run` does before its first repetition (YAML parsing, subset-sum
instance generation, topology build). The benchmark times this process
from start to exit.

Usage: python3 perfbench/setup_probe.py ROOT CONFIG [CONFIG ...]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(sys.argv[1]) / "src"))

from hydrocm.cli import load_experiment_config  # noqa: E402

for config_path in sys.argv[2:]:
    load_experiment_config(config_path)
