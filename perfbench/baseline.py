#!/usr/bin/env python3
"""Record the benchmark's baseline: run every workload once per seed
(end-to-end metrics) plus one traced run per workload at seed 0, and
write medians, quartiles and spreads to perfbench/baseline.json together
with each run's records.csv SHA-256 and the machine facts.

Usage: python3 perfbench/baseline.py

A metric's spread is the distance between the first and third quartile
of its values over the seeds (statistics.quantiles, n=4) as a share of
their median; the benchmark is steady when every spread but setup_s's is
below a third of the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result line, result.json summary) of one benchmark run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    line = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    summary = json.loads((ROOT / ".perfbench-work" / workload / "result.json").read_text())
    return line, summary


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {m: [] for m in bounds} for w in names}
    runs = {w: [] for w in names}
    for seed in range(SEEDS):  # seed-major, so drift in machine load hits every workload
        for w in names:
            line, summary = run(w, seed, seconds, 0)
            for m in bounds:
                values[w][m].append(line["metrics"][m]["value"])
            runs[w].append(
                {
                    "seed": seed,
                    "correct": line["correct"],
                    "failed": line["failed"],
                    "attempted": line["attempted"],
                    "records_sha256": summary["records_sha256"],
                    "wall_s": summary["wall_s"],
                    "solve_rate": summary["solve_rate"],
                    "effort_mean": summary["effort_mean"],
                }
            )
            print(f"{w} seed {seed}: " + json.dumps(line["metrics"]), flush=True)

    report = {"machine": machine(), "run_seconds": seconds, "workloads": {}}
    steady = True
    for w in names:
        end_to_end = {m: spread(v) for m, v in values[w].items()}
        for m, stats in end_to_end.items():
            ok = m == "setup_s" or stats["spread"] < bounds[m] / 3
            steady &= ok
            print(f"{w:20s} {m:14s} median {stats['median']:.6g} spread {stats['spread']:.4f} "
                  f"bound {bounds[m]}{'' if ok else '  NOT STEADY'}")
        line, _ = run(w, 0, seconds, 1)
        report["workloads"][w] = {
            "end_to_end": end_to_end,
            "runs": runs[w],
            "traced_seed0": {k: v["value"] for k, v in line["metrics"].items()},
            "traced_correct": line["correct"],
        }
    out = HERE / "baseline.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}; {'steady' if steady else 'NOT steady'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
