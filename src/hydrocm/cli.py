"""Command-line front end: run experiments from a config file, report
statistics over record files, and validate topology files.

Exit codes: 0 success, 1 validation findings, 2 input error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .engine import RunConfig, run_experiment
from .ga import GaParams, check_real
from .problems import MmdpInstance, SubsetSumInstance, generate_ssp_instance, save_instance
from .records import DECIMAL, read_records, write_records, write_trace
from .sa import SaParams
from .stats import SUMMARY_COLUMNS, mann_whitney_u, speedup, summary_cells
from .topology import (
    DEFAULT_SLOW_FACTOR,
    TopologyValidationError,
    ethane_topology,
    load_topology,
    panmictic_topology,
    read_yaml,
    ring_topology,
    validate_topology,
)

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_INPUT = 2
EXIT_IO = 3

#: Every problem and setup kind, with the keys its mapping may hold.
PROBLEMS = {"mmdp": ("kind", "k"), "ssp": ("kind", "n", "seed")}
SETUPS = {
    "ethane_g": ("kind",),
    "ethane_s": ("kind",),
    "ring": ("kind", "n", "fast_positions"),
    "panmictic_ssga": ("kind",),
    "panmictic_sa": ("kind",),
    "custom": ("kind", "topology"),
}
#: The setups whose slow nodes run at the config's `slow_factor`; for the
#: others (speeds from a file, or one node at 1.0) the key is an error.
SLOW_FACTOR_SETUPS = ("ethane_g", "ethane_s", "ring")

#: Every top-level key an experiment config may hold. `mode` is kept so that
#: existing configs load; `virtual` is its only value.
CONFIG_KEYS = (
    "problem",
    "setup",
    "repetitions",
    "budget",
    "mode",
    "master_seed",
    "migration_frequency",
    "migration_count",
    "slow_factor",
    "ga",
    "sa",
)


class ConfigError(ValueError):
    def __init__(self, fieldname: str, message: str):
        super().__init__(f"config field '{fieldname}': {message}")


@dataclass
class ExperimentConfig:
    """Parsed and validated experiment description: `repetitions` runs of
    `run`, repetition i with seed `run.seed + i` (`run.seed` is the
    config's `master_seed`)."""

    setup: str
    problem_label: str
    repetitions: int
    run: RunConfig


def _require(data: dict, key: str, fieldname: str | None = None):
    if key not in data:
        raise ConfigError(fieldname or key, "missing")
    return data[key]


def _reject_unknown_keys(data: dict, allowed, prefix: str = "") -> None:
    for key in data:
        if key not in allowed:
            raise ConfigError(f"{prefix}{key}", "unknown key")


def _as_int(value, fieldname: str, minimum=None) -> int:
    """`value` as an int. A YAML integer or an integral float such as 2.0
    passes; 2.7, a bool or a string (even "5000") is a ConfigError, never
    truncated or parsed."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(fieldname, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(fieldname, f"must be >= {minimum}, got {value}")
    return value


def _build_problem(data):
    if not isinstance(data, dict) or "kind" not in data:
        raise ConfigError("problem", "expected a mapping with a 'kind'")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in PROBLEMS:
        raise ConfigError("problem.kind", f"unknown problem {kind!r}")
    _reject_unknown_keys(data, PROBLEMS[kind], "problem.")
    if kind == "mmdp":
        k = _as_int(_require(data, "k", "problem.k"), "problem.k", minimum=1)
        return MmdpInstance(k=k), f"mmdp_k{k}"
    n = _as_int(_require(data, "n", "problem.n"), "problem.n", minimum=2)
    seed = _as_int(_require(data, "seed", "problem.seed"), "problem.seed", minimum=0)
    return generate_ssp_instance(n, seed), f"ssp_n{n}_s{seed}"


def _build_setup(data, slow_factor: float, cfg_dir: Path):
    if not isinstance(data, dict) or "kind" not in data:
        raise ConfigError("setup", "expected a mapping with a 'kind'")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in SETUPS:
        raise ConfigError("setup.kind", f"must be one of {tuple(SETUPS)}, got {kind!r}")
    _reject_unknown_keys(data, SETUPS[kind], "setup.")
    if kind == "ethane_g":
        return kind, ethane_topology("G", slow_factor)
    if kind == "ethane_s":
        return kind, ethane_topology("S", slow_factor)
    if kind == "ring":
        n = _as_int(data.get("n", 8), "setup.n", minimum=2)
        positions = data.get("fast_positions", [0, 3])
        if not isinstance(positions, list):
            raise ConfigError("setup.fast_positions", f"expected a list of integers, got {positions!r}")
        positions = [_as_int(p, "setup.fast_positions") for p in positions]
        try:
            topo = ring_topology(n, positions, slow_factor)
        except ValueError as exc:
            raise ConfigError("setup.fast_positions", str(exc)) from None
        return kind, topo
    if kind == "custom":
        raw_path = _require(data, "topology", "setup.topology")
        if not isinstance(raw_path, str):
            raise ConfigError("setup.topology", f"expected a file path, got {raw_path!r}")
        path = Path(raw_path)
        if not path.is_absolute():
            path = cfg_dir / path
        try:
            return kind, load_topology(path)
        except ValueError as exc:
            raise ConfigError("setup.topology", str(exc)) from None
    return kind, panmictic_topology(kind.removeprefix("panmictic_"))


def _build_params(data: dict, key: str, cls):
    """`cls` from the config's `key` mapping; an absent or null one gives
    the defaults."""
    value = data.get(key)
    if value is None:
        return cls()
    try:
        return cls(**value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(key, str(exc)) from None


def load_experiment_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Parse a YAML experiment config; `overrides` (from command-line
    flags) win over file values."""
    path = Path(path)
    try:
        data = read_yaml(path)
    except ValueError as exc:
        raise ConfigError("config", str(exc)) from None
    if not isinstance(data, dict):
        raise ConfigError("config", "top level must be a mapping")
    data = dict(data)
    data.update(overrides or {})
    _reject_unknown_keys(data, CONFIG_KEYS)

    if data.get("mode", "virtual") != "virtual":
        raise ConfigError("mode", f"must be 'virtual', got {data['mode']!r}")

    try:
        slow_factor = check_real("slow_factor", data.get("slow_factor", DEFAULT_SLOW_FACTOR))
    except (TypeError, ValueError) as exc:
        raise ConfigError("slow_factor", str(exc)) from None
    if slow_factor <= 0:
        raise ConfigError("slow_factor", f"must be positive, got {slow_factor!r}")
    problem, problem_label = _build_problem(_require(data, "problem"))
    setup, topology = _build_setup(_require(data, "setup"), slow_factor, path.parent)
    if "slow_factor" in data and setup not in SLOW_FACTOR_SETUPS:
        raise ConfigError("slow_factor", f"setup {setup!r} does not read it")
    ga, sa = _build_params(data, "ga", GaParams), _build_params(data, "sa", SaParams)
    budget = _as_int(_require(data, "budget"), "budget", minimum=1)
    repetitions = _as_int(data.get("repetitions", 100), "repetitions", minimum=1)
    seed = _as_int(data.get("master_seed", 0), "master_seed", minimum=0)
    freq, count = (
        _as_int(data.get(key, getattr(RunConfig, key)), key, minimum=1)
        for key in ("migration_frequency", "migration_count")
    )
    try:
        run = RunConfig(
            topology, problem, budget, seed, migration_frequency=freq, migration_count=count, ga=ga, sa=sa
        )
    except TopologyValidationError as exc:  # a ValueError, so caught first
        raise ConfigError("setup.topology", str(exc)) from None
    except ValueError as exc:
        # the budget's shortfall: RunConfig's ">= 1" checks cannot fire, as
        # _as_int has rejected each of those fields under its own name
        raise ConfigError("budget", str(exc)) from None
    return ExperimentConfig(setup, problem_label, repetitions, run)


def cmd_run(args) -> int:
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.reps is not None:
        overrides["repetitions"] = args.reps
    if args.budget is not None:
        overrides["budget"] = args.budget
    try:
        cfg = load_experiment_config(args.config, overrides)
    except (ConfigError, MemoryError) as exc:  # a size too large to allocate is an input error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    out_dir = Path(args.out or "runs")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        traces_dir = out_dir / "traces"
        traces_dir.mkdir(exist_ok=True)
        if isinstance(cfg.run.problem, SubsetSumInstance):
            save_instance(cfg.run.problem, out_dir / "instance.txt")

        rows = []
        for rep in range(cfg.repetitions):
            result = run_experiment(replace(cfg.run, seed=cfg.run.seed + rep))
            rows.append(result)
            write_trace(traces_dir / f"rep{rep:04d}.trace", result.trace)
        write_records(out_dir / "records.csv", rows)
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    print(",".join(["algorithm", "problem", *SUMMARY_COLUMNS]))
    print(",".join([cfg.setup, cfg.problem_label, *summary_cells(rows)]))
    return EXIT_OK


def _report_label(path: Path) -> str:
    """A report row's label: the directory of a `records.csv` (the file
    `hydrocm run` writes), else the file's stem."""
    return path.absolute().parent.name if path.name == "records.csv" else path.stem


def _report_rows(path: Path) -> list:
    """The rows of a record file given to `report`, a group or the
    sequential reference; a file with no rows is an input error."""
    rows = read_records(path)
    if not rows:
        raise ValueError(f"{path}: no run records")
    return rows


def cmd_report(args) -> int:
    try:
        groups = []
        for record_file in args.records:
            path = Path(record_file)
            label = _report_label(path)
            if label in (other for other, _ in groups):
                raise ValueError(f"{path}: label {label!r} is already taken by another record file")
            groups.append((label, _report_rows(path)))
        sequential = _report_rows(Path(args.sequential)) if args.sequential else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    header = ["algorithm", *SUMMARY_COLUMNS]
    if sequential is not None:
        header.append("speedup")
        seq_solved = [r.elapsed_ms for r in sequential if r.success]
    if len(groups) > 1:
        header.extend(f"p_vs_{label}" for label, _ in groups)

    lines = [",".join(header)]
    for label, rows in groups:
        cells = [label, *summary_cells(rows)]
        mine = [r.elapsed_ms for r in rows if r.success]
        if sequential is not None:
            try:
                cells.append(f"{speedup(seq_solved, mine):.2f}")
            except ValueError:  # no solved run on one side, or a zero mean time
                cells.append("*")
        if len(groups) > 1:
            for other_label, other_rows in groups:
                if other_label == label:
                    cells.append("-")
                    continue
                theirs = [r.elapsed_ms for r in other_rows if r.success]
                if not mine or not theirs:
                    cells.append("*")
                    continue
                _, p, _ = mann_whitney_u(mine, theirs)
                cells.append(f"{p:.4f}")
        lines.append(",".join(cells))

    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            print(f"error: I/O failure: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_validate_topology(args) -> int:
    path = Path(args.topology)
    try:
        spec = load_topology(path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    violations = validate_topology(spec)
    if violations:
        for v in violations:
            print(v)
        return EXIT_FINDINGS
    print("valid")
    return EXIT_OK


def _decimal(text: str) -> int:
    """An integer flag, written as config integers and record cells are."""
    if not DECIMAL.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected a decimal integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hydrocm",
        description="Hydrocarbon-shaped heterogeneous island metaheuristics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", required=True, help="experiment config file (YAML)")
    p_run.add_argument("--seed", type=_decimal, default=None, help="override master_seed")
    p_run.add_argument("--reps", type=_decimal, default=None, help="override repetitions")
    p_run.add_argument("--budget", type=_decimal, default=None, help="override evaluation budget")
    p_run.add_argument("--out", default=None, help="output directory (default: runs)")
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("report", help="summarize record files")
    p_rep.add_argument("records", nargs="+", help="record CSV files")
    p_rep.add_argument("--sequential", default=None, help="single-processor reference records")
    p_rep.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_rep.set_defaults(func=cmd_report)

    p_val = sub.add_parser("validate-topology", help="check a topology file")
    p_val.add_argument("topology", help="topology YAML file")
    p_val.set_defaults(func=cmd_validate_topology)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
