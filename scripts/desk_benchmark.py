#!/usr/bin/env python3
"""Desk-scale benchmark: compare the hydrocarbon setups against the ssGA
ring and the panmictic baselines on MMDP and subset sum, then print the
aggregate table and pairwise Mann-Whitney p-values on run time.

Example:
    python scripts/desk_benchmark.py --reps 30 --out desk_results
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hydrocm.engine import RunConfig, run_experiment
from hydrocm.problems import MmdpInstance, generate_ssp_instance
from hydrocm.records import record_from_result, write_records
from hydrocm.stats import mann_whitney_u, summarize_experiment
from hydrocm.topology import ethane_topology, panmictic_topology, ring_topology


def run_setup(setup, problem, budget, reps, seed0):
    topo = {
        "ethane_g": ethane_topology("G"),
        "ethane_s": ethane_topology("S"),
        "ring8": ring_topology(8, {0, 3}),
        "panmictic_ssga": panmictic_topology("ssga"),
        "panmictic_sa": panmictic_topology("sa"),
    }[setup]
    rows = []
    for rep in range(reps):
        config = RunConfig(topology=topo, problem=problem, evaluation_budget=budget, seed=seed0 + rep)
        rows.append(record_from_result(run_experiment(config)))
    return rows


def fmt(value):
    if value is None:
        return "*"
    return f"{value:.1f}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--mmdp-k", type=int, default=5)
    parser.add_argument("--mmdp-budget", type=int, default=500_000)
    parser.add_argument("--ssp-n", type=int, default=16)
    parser.add_argument("--ssp-seed", type=int, default=11)
    parser.add_argument("--ssp-budget", type=int, default=100_000)
    parser.add_argument("--out", default="desk_results")
    args = parser.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    problems = {
        f"mmdp_k{args.mmdp_k}": (MmdpInstance(k=args.mmdp_k), args.mmdp_budget),
        f"ssp_n{args.ssp_n}": (generate_ssp_instance(args.ssp_n, args.ssp_seed), args.ssp_budget),
    }
    setups = ["ethane_g", "ethane_s", "ring8", "panmictic_ssga", "panmictic_sa"]

    for problem_label, (problem, budget) in problems.items():
        print(f"\n== {problem_label} (budget {budget}, {args.reps} reps) ==")
        print("setup,success_rate,eval_mean,eval_std,time_mean,time_std")
        all_rows = {}
        for setup in setups:
            t0 = time.perf_counter()
            rows = run_setup(setup, problem, budget, args.reps, args.seed)
            wall = time.perf_counter() - t0
            all_rows[setup] = rows
            write_records(out_dir / f"{setup}_{problem_label}.csv", rows)
            s = summarize_experiment(rows, algorithm=setup, problem=problem_label)
            print(
                f"{setup},{s.success_rate:.2f},{fmt(s.eval_mean)},{fmt(s.eval_std)},"
                f"{fmt(s.time_mean)},{fmt(s.time_std)}  [{wall:.1f}s wall]"
            )
        print("pairwise Mann-Whitney p on run time (successful runs):")
        for i, a in enumerate(setups):
            for b in setups[i + 1 :]:
                mine = [r.elapsed_ms for r in all_rows[a] if r.success]
                theirs = [r.elapsed_ms for r in all_rows[b] if r.success]
                if not mine or not theirs:
                    print(f"  {a} vs {b}: *")
                    continue
                _, p, method = mann_whitney_u(mine, theirs)
                print(f"  {a} vs {b}: p={p:.4f} ({method})")
    print(f"\nrecord files written to {out_dir}/")


if __name__ == "__main__":
    main()
