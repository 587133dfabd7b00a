#!/usr/bin/env python3
"""hydrocm benchmark: evaluations per second, set-up time, memory and
search quality on three island workloads, with an optional traced run
that splits the time by layer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Closed loop, one process, one thread: each workload is a set of
experiment configs generated from the seed and fed one after another to
`hydrocm run`, entered in-process through `hydrocm.cli.main`
(`mmdp5-desk` ends with `hydrocm report`). The seed gives the master
seed 1000 + 100 * N and the subset-sum instance seed 7 + N, so seed 0 is
the reference setting and a claim can be re-checked on an unused seed.

A run goes:
1. set-up: fresh interpreters import hydrocm and load every config
   (`setup_probe.py`); `setup_s` is their median scaled wall time.
2. pass 0: every config once; each repetition's output is checked (the
   record parses, evaluations <= budget, success exactly when best reaches
   the optimum, one never-decreasing trace per repetition). Quality
   figures come from this pass.
3. replay: the last repetition of the first config is rerun alone and
   must give byte-identical record and trace output.
4. more passes of the same configs until `--seconds` have passed since
   pass 0 began; each must reproduce pass 0's output byte for byte.
   With `--trace 1`, every other pass runs under the tracer (tracer.py);
   per-layer figures are medians over the traced passes, and
   `run.trace_overhead` is the traced over the untraced pass time. The
   host-speed probe keeps running in traced passes, so about 2% of each
   span's time is the probe's.

End-to-end metrics (`--trace 0`): evals_per_s, setup_s, peak_rss_mib
(peak resident memory of the benchmark process) and best_mean (mean final
best fitness over pass 0's repetitions). The summary also prints wall_s,
solve_rate and effort_mean (mean evaluations of the solved repetitions).
Those three are not gated: solve_rate is 0 and effort_mean undefined on
mmdp25-ring8-mig1, and on the solving workloads the search effort, hence
wall_s, moves with the seed by more than any bound. With `--trace 1` they
appear as run.wall_s, run.solve_rate and run.evals_per_rep.

Timing: a pass's time is the wall time of its `hydrocm run` / `report`
calls, divided by the host slowdown that `hostspeed.HostSpeed` measured
while the pass ran (see hostspeed.py for why); `wall_s` is the median
over the untraced passes and `evals_per_s` the evaluations of one pass
over `wall_s`. `setup_s` is the median of the probes' times, each
divided by the slowdown measured in this process just before and after
it. The unscaled clock figures and the slowdowns are kept in result.json.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`. A fuller summary of the run is
written to .perfbench-work/<workload>/result.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import HostSpeed, slowdown_now
from tracer import SPANS, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"

SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 60
RING8 = {"kind": "ring", "n": 8, "fast_positions": [0, 3]}
OPTIMUM_EPS = 1e-9  # tolerance of hydrocm's optimum test
EMULATION_TOLERANCE = 0.01  # hub/leaf iteration ratio vs 1/slow_factor


@dataclass(frozen=True)
class Workload:
    problem: dict
    budget: int
    repetitions: int  # per config
    setups: tuple
    options: dict = field(default_factory=dict)
    report: bool = False


# Why each workload was chosen is in BENCHMARK.json. The budgets are the
# paper's; the repetition counts keep one pass to a few seconds.
WORKLOADS = {
    "mmdp5-desk": Workload(
        problem={"kind": "mmdp", "k": 5},
        budget=500_000,
        repetitions=5,
        setups=(
            {"kind": "ethane_g"},
            {"kind": "ethane_s"},
            RING8,
            {"kind": "panmictic_ssga"},
            {"kind": "panmictic_sa"},
        ),
        report=True,
    ),
    "ssp2048-ethane_s": Workload(
        problem={"kind": "ssp", "n": 2048},
        budget=200_000,
        repetitions=4,
        setups=({"kind": "ethane_s"},),
    ),
    "mmdp25-ring8-mig1": Workload(
        problem={"kind": "mmdp", "k": 25},
        budget=100_000,
        repetitions=3,
        setups=(RING8,),
        options={"migration_frequency": 1},
    ),
}

END_TO_END_UNITS = {"evals_per_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB", "best_mean": "fitness"}


class BenchmarkError(Exception):
    """The benchmark cannot run here (no hydrocm sources in the checkout)."""


# -- inputs -------------------------------------------------------------------


@dataclass
class Unit:
    """One `hydrocm` call of a pass, with its inputs and outputs; the
    report call has no config and no repetitions."""

    name: str
    argv: list
    out: Path
    config: Path | None = None
    repetitions: int = 0


def master_seed(seed: int) -> int:
    return 1000 + 100 * seed


def ssp_seed(seed: int) -> int:
    return 7 + seed


def build_units(wl: Workload, seed: int, work: Path) -> list[Unit]:
    """Write the workload's configs under `work` and return the pass."""
    units = []
    for setup in wl.setups:
        problem = dict(wl.problem)
        if problem["kind"] == "ssp":
            problem["seed"] = ssp_seed(seed)
        config = {
            "problem": problem,
            "setup": setup,
            "repetitions": wl.repetitions,
            "budget": wl.budget,
            "mode": "virtual",
            "master_seed": master_seed(seed),
            **wl.options,
        }
        label = setup["kind"]
        path = work / "configs" / f"{label}.yaml"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(config, indent=1) + "\n")  # JSON is YAML
        out = work / "out" / label
        argv = ["run", "--config", str(path), "--out", str(out)]
        units.append(Unit(label, argv, out, path, wl.repetitions))
    if wl.report:
        inputs = [str(work / "report_in" / f"{u.name}.csv") for u in units]
        out = work / "report.csv"
        units.append(Unit("report", ["report", *inputs, "--out", str(out)], out))
    return units


# -- running ------------------------------------------------------------------


def import_hydrocm():
    src = ROOT / "src"
    if not (src / "hydrocm" / "__init__.py").is_file():
        raise BenchmarkError(f"no hydrocm sources under {src}")
    sys.path.insert(0, str(src))
    import hydrocm.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "hydrocm").resolve():
        raise BenchmarkError(f"imported hydrocm from {cli.__file__}, not from {src}")
    return cli


def invoke(cli, argv: list) -> str | None:
    """Run one `hydrocm` command in-process; None on success, else why not."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a crash in hydrocm is a failed operation, not a benchmark crash
        return traceback.format_exc()
    return None if rc == 0 else f"exit code {rc}: {sink.getvalue().strip()}"


@dataclass
class Pass:
    """Timing of one pass (or one set-up probe): wall seconds per unit,
    probe time removed, and the host slowdown measured meanwhile."""

    seconds: dict
    slowdown: float

    @property
    def raw_s(self) -> float:
        return sum(self.seconds.values())

    @property
    def scaled_s(self) -> float:
        return self.raw_s / self.slowdown


def run_pass(cli, units: list[Unit], report_in: Path, speed: HostSpeed) -> tuple[Pass, dict]:
    """One pass over the units: (its timing, error per failed unit)."""
    seconds, errors = {}, {}
    first_sample = len(speed.samples)
    for unit in units:
        if unit.name == "report":
            report_in.mkdir(parents=True, exist_ok=True)
            for other in units:
                if other.repetitions and (other.out / "records.csv").is_file():
                    shutil.copyfile(other.out / "records.csv", report_in / f"{other.name}.csv")
        busy = speed.busy_s
        t0 = time.perf_counter()
        error = invoke(cli, unit.argv)
        seconds[unit.name] = time.perf_counter() - t0 - (speed.busy_s - busy)
        if error:
            errors[unit.name] = error
    return Pass(seconds, speed.slowdown(first_sample)), errors


def measure_setup(units: list[Unit]) -> tuple[list[Pass], str | None]:
    """Time SETUP_SAMPLES fresh interpreters that load every config, each
    scaled by the slowdown measured here just before and after it."""
    samples = []
    cmd = [sys.executable, str(PROBE), str(ROOT), *(str(u.config) for u in units if u.config)]
    for _ in range(SETUP_SAMPLES):
        before = slowdown_now()
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return samples, "set-up probe timed out"
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            return samples, f"set-up probe failed: {proc.stderr.strip()}"
        samples.append(Pass({"setup": elapsed}, (before + slowdown_now()) / 2))
    return samples, None


# -- output checks ------------------------------------------------------------

RECORD_HEADER = "seed,evaluations,elapsed_ms,best,success"


@dataclass
class Row:
    seed: int
    evaluations: int
    best: float
    success: bool


def optimum_of(problem: dict, out: Path) -> float:
    if problem["kind"] == "mmdp":
        return float(problem["k"])
    # n, capacity, known optimum, then the weights
    numbers = (out / "instance.txt").read_text().split()
    n, capacity, known = int(numbers[0]), int(numbers[1]), int(numbers[2])
    if n != problem["n"] or len(numbers) != 3 + n or known != capacity:
        raise ValueError("instance.txt does not describe a solvable instance of this size")
    return float(known)


def check_unit(unit: Unit, wl: Workload, seed: int) -> tuple[list, dict]:
    """Parse and check one config's output: (rows, failure reason per rep)."""
    failures = {}
    try:
        lines = (unit.out / "records.csv").read_text().split("\n")
        optimum = optimum_of(wl.problem, unit.out)
        traces = sorted(p.name for p in (unit.out / "traces").iterdir())
    except (OSError, ValueError, IndexError) as exc:
        return [], {rep: f"unreadable output: {exc}" for rep in range(unit.repetitions)}
    if lines[0] != RECORD_HEADER or len(lines) != unit.repetitions + 2 or lines[-1] != "":
        return [], {rep: "records.csv has a bad header or row count" for rep in range(unit.repetitions)}
    expected = [f"rep{rep:04d}.trace" for rep in range(unit.repetitions)]
    if traces != expected:
        failures.update({rep: f"trace files {traces} != {expected}" for rep in range(unit.repetitions)})
    rows = []
    for rep, line in enumerate(lines[1:-1]):
        try:
            seed_s, evals_s, elapsed_s, best_s, success_s = line.split(",")
            row = Row(int(seed_s), int(evals_s), float(best_s), {"0": False, "1": True}[success_s])
            float(elapsed_s)
        except (ValueError, KeyError):
            failures[rep] = f"unparsable record {line!r}"
            continue
        rows.append(row)
        reached = row.best >= optimum - OPTIMUM_EPS
        if row.seed != master_seed(seed) + rep:
            failures[rep] = f"seed {row.seed} != {master_seed(seed) + rep}"
        elif not 0 < row.evaluations <= wl.budget:
            failures[rep] = f"evaluations {row.evaluations} outside (0, {wl.budget}]"
        elif row.success != reached or row.best > optimum + OPTIMUM_EPS:
            failures[rep] = f"success={row.success} but best={row.best} vs optimum {optimum}"
        elif rep not in failures:
            reason = check_trace(unit.out / "traces" / expected[rep], row.best)
            if reason:
                failures[rep] = reason
    return rows, failures


def check_trace(path: Path, best: float) -> str | None:
    try:
        points = [tuple(map(float, ln.split(","))) for ln in path.read_text().splitlines()]
    except (OSError, ValueError) as exc:
        return f"{path.name}: {exc}"
    if not points or any(len(p) != 2 for p in points):
        return f"{path.name}: empty or malformed"
    for (t0, f0), (t1, f1) in zip(points, points[1:]):
        if t1 < t0 or f1 < f0:
            return f"{path.name}: decreases at time {t1}"
    if points[-1][1] != best:
        return f"{path.name}: ends at {points[-1][1]}, record says {best}"
    return None


def check_report(unit: Unit, rows_by_unit: dict) -> str | None:
    try:
        lines = unit.out.read_text().splitlines()
    except OSError as exc:
        return f"report: {exc}"
    if not lines or not lines[0].startswith("algorithm,runs,successes,success_rate"):
        return "report: bad header"
    cells = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
    for name, rows in rows_by_unit.items():
        got = cells.get(name)
        if got is None or got[1:3] != [str(len(rows)), str(sum(r.success for r in rows))]:
            return f"report: row for {name} is {got}"
    return None


def output_digest(unit: Unit) -> str:
    """SHA-256 over a unit's record file and traces (or report)."""
    h = hashlib.sha256()
    files = [unit.out]
    if unit.repetitions:
        traces = unit.out / "traces"
        files = [unit.out / "records.csv", *(sorted(traces.iterdir()) if traces.is_dir() else [])]
    for path in files:
        with contextlib.suppress(OSError):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def records_sha256(units: list[Unit]) -> str:
    h = hashlib.sha256()
    for unit in units:
        if unit.repetitions:
            h.update((unit.out / "records.csv").read_bytes())
    return h.hexdigest()


def replay(cli, unit: Unit, seed: int, work: Path) -> str | None:
    """Rerun the unit's last repetition alone; its record row and trace
    must match the full run byte for byte."""
    rep = unit.repetitions - 1
    out = work / "replay"
    seed_arg = str(master_seed(seed) + rep)
    error = invoke(cli, ["run", "--config", str(unit.config), "--out", str(out), "--seed", seed_arg, "--reps", "1"])
    if error:
        return f"replay: {error}"
    try:
        row = (out / "records.csv").read_text().split("\n")[1]
        expected_row = (unit.out / "records.csv").read_text().split("\n")[rep + 1]
        same_trace = (out / "traces" / "rep0000.trace").read_bytes() == (
            unit.out / "traces" / f"rep{rep:04d}.trace"
        ).read_bytes()
    except (OSError, IndexError) as exc:
        return f"replay: {exc}"
    if row != expected_row or not same_trace:
        return f"replay of {unit.name} repetition {rep} differs"
    return None


# -- per-layer metrics --------------------------------------------------------


def bytes_written(units: list[Unit]) -> int:
    total = 0
    for unit in units:
        paths = unit.out.rglob("*") if unit.out.is_dir() else [unit.out]
        total += sum(p.stat().st_size for p in paths if p.is_file())
    return total


def island_metrics(tracer) -> tuple[dict, list]:
    """Migration counts and the hub/leaf iteration ratio from the
    RunResult.per_island counters of the pass's runs, plus emulation-check
    failures.

    The ratio is the mean iterations of the fast islands over the mean of
    the slow ones, pooled over runs with two speed classes. Over the
    hydrocarbon (ethane) runs alone it must equal fast/slow speed, that is
    1/slow_factor, within EMULATION_TOLERANCE."""
    sent = dropped = applied = 0
    # per pool: fast-island iterations, fast islands, slow iterations, slow islands
    pools = {"all": [0, 0, 0, 0], "hydrocarbon": [0, 0, 0, 0]}
    expected = None
    for topology, result in tracer.runs:
        islands = result.per_island
        sent += sum(s.emigrants_sent for s in islands.values())
        dropped += sum(s.messages_dropped for s in islands.values())
        applied += sum(s.immigrants_received for s in islands.values())
        speeds = {n.id: n.speed_factor for n in getattr(topology, "nodes", ())}
        if len(set(speeds.values())) < 2:
            continue
        fast, slow = max(speeds.values()), min(speeds.values())
        kinds = ["all"]
        if getattr(topology, "kind", "") == "hydrocarbon":
            kinds.append("hydrocarbon")
            expected = fast / slow
        for node, stats in islands.items():
            offset = 0 if speeds[node] == fast else 2
            for kind in kinds:
                pools[kind][offset] += stats.iterations
                pools[kind][offset + 1] += 1

    def ratio(pool):
        return (pool[0] / pool[1]) / (pool[2] / pool[3]) if pool[1] and pool[2] else 0.0

    problems = []
    if expected is not None:
        got = ratio(pools["hydrocarbon"])
        if abs(got / expected - 1.0) > EMULATION_TOLERANCE:
            problems.append(f"ethane hub/leaf iteration ratio {got:.4f} != {expected:.4f}")
    metrics = {
        "engine.channel.sent": sent,
        "engine.channel.dropped": dropped,
        "engine.drop_ratio": dropped / sent if sent else 0.0,
        "engine.immigrants_applied": applied,
        "engine.hub_leaf_iter_ratio": ratio(pools["all"]),
    }
    return metrics, problems


def layer_metrics(tracer, units: list[Unit]) -> tuple[dict, list]:
    """Per-layer figures of one traced pass, and emulation-check failures.

    `<span>.self_s` is the span's time minus its wrapped children;
    `ga.replace_ratio` is offspring that entered the population over
    offspring; `sa.accept_ratio` is accepted over proposed moves
    (immigrants included); `seeding.values_drawn` is scalar draws plus the
    elements of array draws. A layer whose bindings are gone from hydrocm
    is left out."""
    t = tracer
    spans = {name: {f"{name}.self_s": t.self_s(name)} for name in SPANS}
    calls = t.calls("problems.evaluate")
    spans["problems.evaluate"].update(
        {
            "problems.evaluate.calls": calls,
            "problems.evaluate.us_per_call": t.self_s("problems.evaluate") / calls * 1e6 if calls else 0.0,
        }
    )
    offspring = t.calls("ga.offspring_step")
    spans["ga.offspring_step"] = {
        "ga.offspring_step.self_s": t.self_s("ga.offspring_step"),
        "ga.replace_ratio": t.count("ga.replaced") / offspring if offspring else 0.0,
    }
    accepts = t.count("sa.accept.calls")
    spans["sa.accept"] = {
        "sa.accept.calls": accepts,
        "sa.accept_ratio": t.count("sa.accept.accepted") / accepts if accepts else 0.0,
    }
    scalar = t.count("seeding.scalar_draws")
    spans["seeding.array_draw"] = {
        "seeding.scalar_draws": scalar,
        "seeding.array_draws": t.calls("seeding.array_draw"),
        "seeding.values_drawn": scalar + t.count("seeding.array_values"),
        "seeding.array_draw.self_s": t.self_s("seeding.array_draw"),
    }
    spans["engine.loop"] = {"engine.loop.self_s": t.self_s("engine.loop")}
    spans["engine.migrate"]["engine.migrate.calls"] = t.calls("engine.migrate")
    metrics = {}
    for name, values in spans.items():
        if name in t.present:
            metrics.update(values)
    problems = []
    if "engine.loop" in t.present:
        island, problems = island_metrics(t)
        metrics.update(island)
    metrics["records.bytes_written"] = bytes_written(units)
    return metrics, problems


# -- one workload -------------------------------------------------------------


def median_scaled(passes: list[Pass]) -> float:
    return statistics.median(p.scaled_s for p in passes)


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    wl = WORKLOADS[name]
    cli = import_hydrocm()
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    units = build_units(wl, seed, work)
    report_in = work / "report_in"
    problems = []

    setup, error = measure_setup(units)
    if error:
        problems.append(error)

    attempted = failed = 0
    untraced, traced, layer_samples = [], [], []
    tracer = Tracer() if trace else None
    with HostSpeed() as speed:
        t_start = time.perf_counter()
        timing, errors = run_pass(cli, units, report_in, speed)
        untraced.append(timing)

        # pass 0: check every repetition
        rows_by_unit, digests = {}, {}
        for unit in units:
            attempted += unit.repetitions or 1
            if unit.name in errors:
                failed += unit.repetitions or 1
                problems.append(f"{unit.name}: {errors[unit.name]}")
                continue
            if unit.repetitions:
                rows, bad = check_unit(unit, wl, seed)
                rows_by_unit[unit.name] = rows
                failed += len(bad)
                problems += [f"{unit.name} rep {rep}: {why}" for rep, why in sorted(bad.items())]
            else:
                reason = check_report(unit, rows_by_unit)
                if reason:
                    failed += 1
                    problems.append(reason)
            digests[unit.name] = output_digest(unit)
        rows = [r for unit_rows in rows_by_unit.values() for r in unit_rows]

        attempted += 1
        reason = replay(cli, units[0], seed, work)
        replay_status = reason or f"ok ({units[0].name} repetition {units[0].repetitions - 1} byte-identical)"
        if reason:
            failed += 1
            problems.append(reason)

        # timed passes, each reproducing pass 0; with --trace 1 every other
        # pass runs under the tracer
        while time.perf_counter() - t_start < seconds or (trace and not traced):
            use_tracer = trace and len(traced) < len(untraced)
            if use_tracer:
                tracer.reset()
                tracer.install()
            try:
                timing, errors = run_pass(cli, units, report_in, speed)
            finally:
                if use_tracer:
                    tracer.uninstall()
            (traced if use_tracer else untraced).append(timing)
            for unit in units:
                attempted += unit.repetitions or 1
                if unit.name in errors or output_digest(unit) != digests.get(unit.name):
                    failed += unit.repetitions or 1
                    problems.append(f"{unit.name}: pass differs from pass 0 {errors.get(unit.name, '')}")
            if use_tracer:
                metrics, emulation = layer_metrics(tracer, units)
                layer_samples.append(metrics)
                new = [p for p in emulation if p not in problems]
                attempted += 1
                failed += bool(emulation)
                problems += new

    wall_s = median_scaled(untraced)
    evals = sum(r.evaluations for r in rows)
    solved = [r for r in rows if r.success]
    summary = {
        "workload": name,
        "seed": seed,
        "master_seed": master_seed(seed),
        "ssp_seed": ssp_seed(seed) if wl.problem["kind"] == "ssp" else None,
        "repetitions": len(rows),
        "evaluations_per_pass": evals,
        "evals_per_s": evals / wall_s if wall_s else 0.0,
        "wall_s": wall_s,
        "setup_s": median_scaled(setup) if setup else 0.0,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solve_rate": len(solved) / len(rows) if rows else 0.0,
        "effort_mean": statistics.mean(r.evaluations for r in solved) if solved else None,
        "best_mean": statistics.mean(r.best for r in rows) if rows else 0.0,
        "records_sha256": records_sha256(units) if not failed else None,
        "replay": replay_status,
        "raw_wall_s": statistics.median(p.raw_s for p in untraced),
        "raw_setup_s": statistics.median(p.raw_s for p in setup) if setup else 0.0,
        "host_slowdown": statistics.median(p.slowdown for p in untraced),
        "passes": {
            "untraced": [vars(p) for p in untraced],
            "traced": [vars(p) for p in traced],
            "setup": [vars(p) for p in setup],
        },
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    if trace:
        layers = {key: statistics.median(s[key] for s in layer_samples) for key in layer_samples[0]}
        layers["run.wall_s"] = summary["raw_wall_s"]
        layers["run.host_slowdown"] = summary["host_slowdown"]
        layers["run.trace_overhead"] = median_scaled(traced) / wall_s
        layers["run.solve_rate"] = summary["solve_rate"]
        layers["run.evals_per_rep"] = evals / len(rows) if rows else 0.0
        summary["per_layer"] = layers
        summary["absent"] = sorted(set(PER_LAYER_UNITS) - set(layers))
    return summary


# -- reporting ----------------------------------------------------------------

PER_LAYER_UNITS = {
    "problems.evaluate.calls": "count",
    "problems.evaluate.self_s": "s",
    "problems.evaluate.us_per_call": "us",
    "ga.offspring_step.self_s": "s",
    "ga.tournament.self_s": "s",
    "ga.crossover.self_s": "s",
    "ga.mutate.self_s": "s",
    "ga.init_population.self_s": "s",
    "ga.replace_ratio": "ratio",
    "sa.step.self_s": "s",
    "sa.perturb.self_s": "s",
    "sa.accept.calls": "count",
    "sa.accept_ratio": "ratio",
    "sa.init.self_s": "s",
    "seeding.scalar_draws": "count",
    "seeding.array_draws": "count",
    "seeding.values_drawn": "count",
    "seeding.array_draw.self_s": "s",
    "engine.loop.self_s": "s",
    "engine.migrate.calls": "count",
    "engine.migrate.self_s": "s",
    "engine.channel.sent": "count",
    "engine.channel.dropped": "count",
    "engine.drop_ratio": "ratio",
    "engine.immigrants_applied": "count",
    "engine.hub_leaf_iter_ratio": "ratio",
    "records.write_trace.self_s": "s",
    "records.write_records.self_s": "s",
    "records.bytes_written": "bytes",
    "cli.load_config.self_s": "s",
    "topology.compile_channels.self_s": "s",
    "problems.generate_ssp_instance.self_s": "s",
    "stats.report.self_s": "s",
    "run.wall_s": "s",
    "run.host_slowdown": "ratio",
    "run.trace_overhead": "ratio",
    "run.solve_rate": "ratio",
    "run.evals_per_rep": "count",
}


def print_summary(s: dict) -> None:
    effort = "absent (nothing solved)" if s["effort_mean"] is None else f"{s['effort_mean']:.1f} evals"
    ssp = f", ssp_seed {s['ssp_seed']}" if s["ssp_seed"] is not None else ""
    passes = s["passes"]
    lines = [
        f"workload {s['workload']}  seed {s['seed']} (master_seed {s['master_seed']}{ssp})  "
        f"passes {len(passes['untraced'])} untraced, {len(passes['traced'])} traced",
        f"  evals_per_s   {s['evals_per_s']:.1f} 1/s  ({s['evaluations_per_pass']} evals per pass)",
        f"  wall_s        {s['wall_s']:.4f} s  (median pass; {s['raw_wall_s']:.4f} s on the clock "
        f"at host slowdown {s['host_slowdown']:.3f})",
        f"  setup_s       {s['setup_s']:.4f} s  (median of {len(passes['setup'])} fresh interpreters; "
        f"{s['raw_setup_s']:.4f} s on the clock)",
        f"  peak_rss_mib  {s['peak_rss_mib']:.1f} MiB",
        f"  solve_rate    {s['solve_rate']:.4f}  ({s['repetitions']} repetitions)",
        f"  effort_mean   {effort}",
        f"  best_mean     {s['best_mean']!r} fitness",
        f"  records       sha256 {s['records_sha256']}",
        f"  replay        {s['replay']}",
        f"  failed        {s['failed']} of {s['attempted']} operations",
    ]
    lines += [f"  problem: {p}" for p in s["problems"]]
    for key, value in sorted(s.get("per_layer", {}).items()):
        lines.append(f"  {key:38s} {value!r}")
    if s.get("absent"):
        lines.append(f"  absent layer metrics: {', '.join(s['absent'])}")
    print("\n".join(lines), flush=True)


def result_line(s: dict, trace: bool) -> dict:
    if trace:
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in s["per_layer"].items()}
    else:
        metrics = {k: {"value": s[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return {
        "correct": s["failed"] == 0 and not s["problems"],
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Every workload in its own interpreter, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            return proc.returncode
        *summary, last = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(summary), flush=True)
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        return run_all(args)
    try:
        summary = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_summary(summary)
    (WORK / args.workload / "result.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps(result_line(summary, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
