#!/usr/bin/env python3
"""Write the performance figures of the checked-out tree to BENCH_<pr>.json.

Usage:
    python3 scripts/bench.py PR

It runs, one after another and each to completion:
- `perfbench/run.py --workload all --seed 0 --seconds 30`, with `--trace 0`
  (end-to-end metrics) and `--trace 1` (per-layer metrics);
- `hydrocm run` on `experiments/desk/mmdp_k5/ethane_g.yaml` with 100
  repetitions, three times, each timed raw on the wall clock; the file
  keeps every time and their minimum, the figure least disturbed by other
  load on the host;
- the Tier-1 suite, timed on the wall clock.

The file also records the git SHA (and whether the tree had uncommitted
changes), each workload's `records_sha256` from the `--trace 0` pass, and
`src_lines`: the lines of each module of `src/hydrocm/` and their total, as
`wc -l src/hydrocm/*.py` counts them.
Takes about 10 minutes on a 2-core host.
"""

import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("mmdp5-desk", "ssp2048-ethane_s", "mmdp25-ring8-mig1")
RUN_CONFIG = "experiments/desk/mmdp_k5/ethane_g.yaml"
RUN_REPS = 100
RUN_TIMES = 3
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def run(cmd) -> tuple[subprocess.CompletedProcess, float]:
    """Run `cmd` from the repo root with `src` importable; wait for it to
    exit and return it with its wall seconds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    return proc, time.perf_counter() - start


def perfbench(trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "0"]
    cmd += ["--seconds", "30", "--trace", str(trace)]
    proc, _ = run(cmd)
    if proc.returncode != 0:
        sys.exit(f"perfbench --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    return {"command": cmd[1:], **json.loads(proc.stdout.rstrip("\n").rsplit("\n", 1)[-1])}


def src_lines() -> dict:
    """Newline characters per `src/hydrocm/*.py` file, the count `wc -l`
    prints, and their total."""
    modules = {p.name: p.read_bytes().count(b"\n") for p in sorted((ROOT / "src" / "hydrocm").glob("*.py"))}
    return {"modules": modules, "total": sum(modules.values())}


def main(argv) -> int:
    if len(argv) != 1 or not argv[0].isdigit():
        sys.exit(__doc__.split("\n\n")[1])
    pr = int(argv[0])
    sha = run(["git", "rev-parse", "HEAD"])[0].stdout.strip()
    dirty = bool(run(["git", "status", "--porcelain", "--untracked-files=no"])[0].stdout.strip())

    untraced = perfbench(0)
    records = {}
    for name in WORKLOADS:
        result = json.loads((ROOT / ".perfbench-work" / name / "result.json").read_text())
        records[name] = result["records_sha256"]
    traced = perfbench(1)

    run_s = []
    for _ in range(RUN_TIMES):
        with tempfile.TemporaryDirectory() as out:
            cmd = [sys.executable, "-m", "hydrocm", "run", "--config", RUN_CONFIG]
            cmd += ["--reps", str(RUN_REPS), "--out", out]
            proc, wall_s = run(cmd)
        if proc.returncode != 0:
            sys.exit(f"hydrocm run exited {proc.returncode}:\n{proc.stderr}")
        run_s.append(wall_s)

    proc, tier1_s = run(TIER1)
    bench = {
        "pr": pr,
        "git_sha": sha,
        "uncommitted_changes": dirty,
        "host": {"platform": platform.platform(), "cpus": os.cpu_count(), "python": platform.python_version()},
        "perfbench_trace0": untraced,
        "perfbench_trace1": traced,
        "records_sha256": records,
        "src_lines": src_lines(),
        "hydrocm_run": {
            "command": ["hydrocm", *cmd[3:-2]],
            "wall_s": run_s,
            "min_wall_s": min(run_s),
        },
        "tier1": {
            "command": ["pytest", *TIER1[3:]],
            "wall_s": tier1_s,
            "exit_code": proc.returncode,
            "summary": proc.stdout.rstrip("\n").rsplit("\n", 1)[-1],
        },
    }
    path = ROOT / f"BENCH_{pr}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
