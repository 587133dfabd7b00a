#!/usr/bin/env python3
"""Alternating parent/change pairs of one benchmark workload, judged by the
benchmark's own rules.

Usage:
    python3 scripts/pairs.py REF WORKLOAD [--pairs N] [--seed S]

REF is the git revision to compare against (the parent). Its tree is
extracted with `git archive` into a temporary directory, which is removed
again however the script ends; the repository itself is left as it is.
Each pair runs `perfbench/run.py --workload WORKLOAD --seed S --seconds T
--trace 0` once in REF's tree and once in the working tree, each to
completion before the next starts; the side that goes first alternates
from pair to pair. T is BENCHMARK.json's
`run_seconds`; N defaults to 10 and S to 0.

The script refuses (exit 2) when `perfbench/` or `BENCHMARK.json` differ
between REF and the working tree, since both sides must be measured by the
same benchmark.

For each end-to-end metric of BENCHMARK.json it prints both sides' median
and quartiles (inclusive method), the pairs the change won, and two
verdicts:
- gain: the change won at least 9 of every 10 pairs, its median is better
  than the parent's by more than the parent's interquartile range, and no
  larger share of its operations failed than of the parent's;
- regression: `yes` when the change's median is worse than the parent's by
  more than the metric's bound, a fraction of the parent's median;
  otherwise `unresolved` when the parent's interquartile range is wider
  than that bound and some change run is not better than every parent
  run (the runs spread too widely to tell); otherwise `no`.
It also prints each side's failed operations, whether every run of both
sides wrote the same records (`records_sha256`), and last a JSON line with
every run's value of each metric, pair by pair.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
GAIN_WIN_SHARE = 0.9  # at least 9 of every 10 pairs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of `values`."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(metric: dict, parent: list[float], change: list[float], failed: tuple[float, float]) -> dict:
    """The verdicts on one end-to-end metric (a BENCHMARK.json entry with
    `name`, `better` and `bound`) from its values in paired runs: parent[i]
    and change[i] come from pair i. `failed` is the share of operations
    that failed on each side, (parent, change)."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change values")
    sign = 1.0 if metric["better"] == "higher" else -1.0
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gap = sign * (c_median - p_median)  # positive when the change is better
    bound = metric["bound"] * abs(p_median)
    if -gap > bound:
        regression = "yes"
    elif p_q3 - p_q1 > bound and not all(sign * (c - p) > 0 for p in parent for c in change):
        regression = "unresolved"
    else:
        regression = "no"
    return {
        "name": metric["name"],
        "parent": (p_q1, p_median, p_q3),
        "change": (c_q1, c_median, c_q3),
        "wins": wins,
        "pairs": len(parent),
        "gain": wins >= GAIN_WIN_SHARE * len(parent) and gap > p_q3 - p_q1 and failed[1] <= failed[0],
        "regression": regression,
    }


def format_summary(s: dict) -> str:
    def q(values):
        q1, median, q3 = values
        return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"

    return (
        f"{s['name']:14s} parent {q(s['parent'])}  change {q(s['change'])}  "
        f"won {s['wins']}/{s['pairs']}  gain {'yes' if s['gain'] else 'no'}  "
        f"regression {s['regression']}"
    )


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def benchmark_differs(ref: str) -> str:
    """The benchmark paths that differ between `ref` and the working tree,
    untracked files included; empty when none do."""
    paths = ["perfbench", "BENCHMARK.json"]
    diff = git("diff", "--name-only", ref, "--", *paths)
    if diff.returncode != 0:
        raise ValueError(f"git diff against {ref!r} failed: {diff.stderr.strip()}")
    untracked = git("ls-files", "--others", "--exclude-standard", "--", *paths)
    return (diff.stdout + untracked.stdout).strip()


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One `--trace 0` run of `tree`'s own benchmark, waited for to the end;
    its result line plus the `records_sha256` of its result file."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: perfbench exited {proc.returncode}:\n{proc.stderr}")
    line = json.loads(proc.stdout.rstrip("\n").rsplit("\n", 1)[-1])
    result = json.loads((tree / ".perfbench-work" / workload / "result.json").read_text())
    line["records_sha256"] = result["records_sha256"]
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git revision to compare against")
    parser.add_argument("workload", help="a workload named in BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text())
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if args.pairs < 1 or args.seed < 0:
        parser.error("--pairs must be >= 1 and --seed >= 0")
    seconds = bench["run_seconds"]
    try:
        differs = benchmark_differs(args.ref)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if differs:
        print(f"error: the benchmark differs between {args.ref} and the working tree:\n{differs}", file=sys.stderr)
        return 2

    tmp = Path(tempfile.mkdtemp(prefix="pairs-"))
    parent_tree = tmp / "parent"
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    try:
        archive = subprocess.run(["git", "archive", args.ref], cwd=ROOT, capture_output=True)
        if archive.returncode != 0:
            print(f"error: git archive failed: {archive.stderr.decode().strip()}", file=sys.stderr)
            return 2
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(parent_tree, filter="data")
        trees = {"parent": parent_tree, "change": ROOT}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(trees[side], args.workload, args.seed, seconds))
            print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"{args.workload}: {args.pairs} alternating pairs, {args.ref} vs working tree, seed {args.seed}, {seconds} s")
    counts = {side: (sum(r["failed"] for r in runs[side]), sum(r["attempted"] for r in runs[side])) for side in runs}
    failed = tuple(f / max(a, 1) for f, a in (counts["parent"], counts["change"]))
    values = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values[name] = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        print(format_summary(summarize(metric, values[name]["parent"], values[name]["change"], failed)))
    for side in runs:
        incorrect = sum(not r["correct"] for r in runs[side])
        print(f"{side}: {counts[side][0]} of {counts[side][1]} operations failed, {incorrect} runs not correct")
    shas = {r["records_sha256"] for side in runs for r in runs[side]}
    print(f"records_sha256: {'identical in every run' if len(shas) == 1 else 'DIFFERS'}")
    print(json.dumps(values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
