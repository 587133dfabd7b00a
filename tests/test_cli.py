"""End-to-end CLI tests on tiny instances (every path finishes in seconds)."""

import contextlib
import copy
import io
import math
import tempfile
from dataclasses import asdict, fields
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrocm.cli import CONFIG_KEYS, PROBLEMS, SETUPS, load_experiment_config, main
from hydrocm.ga import GaParams
from hydrocm.records import RECORD_HEADER, read_records
from hydrocm.sa import SaParams
from hydrocm.stats import speedup
from hydrocm.topology import (
    BondSpec,
    NodeSpec,
    TopologySpec,
    ethane_topology,
    load_topology,
    panmictic_topology,
    ring_topology,
    save_topology,
    validate_topology,
)

from conftest import read_trace

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_config(path, **overrides):
    data = {
        "problem": {"kind": "mmdp", "k": 2},
        "setup": {"kind": "panmictic_ssga"},
        "repetitions": 5,
        "budget": 50_000,
        "mode": "virtual",
        "master_seed": 100,
    }
    data.update(overrides)
    path.write_text(yaml.safe_dump(data))
    return path


class TestRun:
    def test_writes_one_record_per_repetition(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.yaml")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_records(out / "records.csv")
        assert len(rows) == 5
        assert [r.seed for r in rows] == [100, 101, 102, 103, 104]
        assert sorted(p.name for p in (out / "traces").iterdir()) == [
            f"rep{i:04d}.trace" for i in range(5)
        ]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path / "exp.yaml", setup={"kind": "ethane_g"}, budget=20_000)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert (out_a / "records.csv").read_bytes() == (out_b / "records.csv").read_bytes()
        for trace in sorted((out_a / "traces").iterdir()):
            assert trace.read_bytes() == (out_b / "traces" / trace.name).read_bytes()

    def test_flags_override_config(self, tmp_path):
        cfg = write_config(tmp_path / "exp.yaml")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--reps", "2", "--seed", "7"]) == 0
        rows = read_records(out / "records.csv")
        assert [r.seed for r in rows] == [7, 8]

    def test_bad_config_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.yaml", problem={"kind": "mmdp"})  # k missing
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "problem.k" in capsys.readouterr().err

    def test_unknown_setup_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.yaml", setup={"kind": "mesh"})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "setup.kind" in capsys.readouterr().err

    @pytest.mark.parametrize("setup", ["ethane_g", ["ethane_g"]], ids=["string", "list"])
    def test_setup_must_be_a_mapping(self, tmp_path, capsys, setup):
        cfg = write_config(tmp_path / "exp.yaml", setup=setup)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config field 'setup': expected a mapping with a 'kind'" in capsys.readouterr().err

    def test_ssp_instance_dumped(self, tmp_path):
        cfg = write_config(
            tmp_path / "exp.yaml",
            problem={"kind": "ssp", "n": 16, "seed": 11},
            repetitions=2,
            budget=20_000,
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "instance.txt").exists()

    def test_ring_and_custom_setups(self, tmp_path):
        out = tmp_path / "ring"
        cfg = write_config(
            tmp_path / "ring.yaml",
            setup={"kind": "ring", "n": 4, "fast_positions": [0]},
            repetitions=2,
            budget=20_000,
        )
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        cfg2 = write_config(
            tmp_path / "custom.yaml",
            setup={"kind": "custom", "topology": str(REPO_ROOT / "topologies" / "ethane_s.topology")},
            repetitions=2,
            budget=20_000,
        )
        assert main(["run", "--config", str(cfg2), "--out", str(tmp_path / "custom")]) == 0

    def test_missing_custom_topology_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.yaml", setup={"kind": "custom", "topology": "nope.yaml"})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "setup.topology" in capsys.readouterr().err

    def test_panmictic_sa_setup(self, tmp_path):
        cfg = write_config(
            tmp_path / "exp.yaml",
            problem={"kind": "mmdp", "k": 1},
            setup={"kind": "panmictic_sa"},
            repetitions=3,
            budget=10_000,
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_records(out / "records.csv")
        assert all(r.success for r in rows)

    @pytest.mark.parametrize("rate", [0, 1.5])
    def test_bad_sa_perturb_rate_is_config_error(self, tmp_path, capsys, rate):
        cfg = write_config(
            tmp_path / "exp.yaml", setup={"kind": "panmictic_sa"}, sa={"p_perturb_per_bit": rate}
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config field 'sa'" in capsys.readouterr().err

    def test_unknown_top_level_key_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.yaml", migraton_frequency=7)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config field 'migraton_frequency': unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, key, line",
        [
            ("problem: {kind: mmdp, k: 2}\nbudget: 5000\nbudget: 100000\n", "budget", 4),
            ("problem: {kind: mmdp, k: 2, k: 3}\nbudget: 5000\n", "k", 2),
        ],
    )
    def test_duplicate_key_is_config_error(self, tmp_path, capsys, body, key, line):
        # a plain YAML load keeps the last value, and the run would exit 0
        cfg = tmp_path / "exp.yaml"
        cfg.write_text("setup: {kind: panmictic_ssga}\n" + body)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"duplicate key '{key}'" in err and f"line {line}," in err

    @pytest.mark.parametrize(
        "field, value",
        [
            *(pytest.param(f, 2.7, id=f) for f in ("migration_count", "budget", "repetitions")),
            # the string of a value test_integral_number_accepted runs with
            *(
                pytest.param(f, "1000" if f == "budget" else "2", id=f"{f}-string")
                for f in ("migration_count", "budget", "repetitions")
            ),
        ],
    )
    def test_non_integral_number_is_config_error(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path / "exp.yaml", **{field: value})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"config field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["migration_count", "budget", "repetitions"])
    def test_integral_number_accepted(self, tmp_path, field):
        # a budget must also pay for initializing ethane_s (586 evaluations)
        value = 1_000 if field == "budget" else 2
        cfg = write_config(tmp_path / "exp.yaml", setup={"kind": "ethane_s"}, **{field: value})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_integral_float_reads_as_its_integer(self, tmp_path):
        cfg = load_experiment_config(write_config(tmp_path / "exp.yaml", budget=2000.0, migration_count=2.0))
        got = (cfg.run.evaluation_budget, cfg.run.migration_count)
        assert got == (2000, 2) and all(type(v) is int for v in got)

    @pytest.mark.parametrize(
        "section, fieldname",
        [
            ({"problem": {"kind": "mmdp", "k": 2, "seed": 3}}, "problem.seed"),
            ({"problem": {"kind": "mmdp", "k": 2, "n": 99}}, "problem.n"),
            ({"problem": {"kind": "ssp", "n": 16, "seed": 3, "k": 2}}, "problem.k"),
            ({"setup": {"kind": "ethane_g", "n": 4}}, "setup.n"),
            ({"setup": {"kind": "panmictic_sa", "fast_positions": [1]}}, "setup.fast_positions"),
            ({"setup": {"kind": "ring", "n": 4, "topology": "ring8.topology"}}, "setup.topology"),
            ({"setup": {"kind": "custom", "topology": "x.topology", "n": 3}}, "setup.n"),
        ],
        ids=["mmdp-seed", "mmdp-n", "ssp-k", "ethane-n", "panmictic-positions", "ring-topology", "custom-n"],
    )
    def test_unknown_nested_key_is_config_error(self, tmp_path, capsys, section, fieldname):
        cfg = write_config(tmp_path / "exp.yaml", **section)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"config field '{fieldname}': unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "positions, code",
        [("03", 2), (3, 2), ([1.5], 2), ([True], 2), (["03"], 2), ([0, 3], 0), ([4], 2), ([9], 2)],
        ids=["string", "scalar", "float", "bool", "string-item", "list", "past-the-end", "out-of-range"],
    )
    def test_fast_positions_must_be_integer_list(self, tmp_path, capsys, positions, code):
        setup = {"kind": "ring", "n": 4, "fast_positions": positions}
        cfg = write_config(tmp_path / "exp.yaml", setup=setup, repetitions=1, budget=2_000)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
        assert ("config field 'setup.fast_positions'" in capsys.readouterr().err) == (code == 2)

    @pytest.mark.parametrize(
        "options, flags, code, message",
        [
            ({"mode": "wall"}, [], 2, "config field 'mode'"),
            ({"wall_throttle_ms": 5}, [], 2, "config field 'wall_throttle_ms': unknown key"),
            ({"wall_throttle_ms": "fast"}, [], 2, "config field 'wall_throttle_ms': unknown key"),
            ({}, ["--mode", "virtual"], 2, "unrecognized arguments: --mode"),
            ({"mode": "virtual"}, [], 0, ""),
            (
                {"multiplicity_as_frequency": True},
                [],
                2,
                "config field 'multiplicity_as_frequency': unknown key",
            ),
        ],
        ids=["mode-wall", "throttle-number", "throttle-string", "mode-flag", "mode-virtual", "multiplicity"],
    )
    def test_wall_mode_is_gone(self, tmp_path, capsys, options, flags, code, message):
        cfg = write_config(tmp_path / "exp.yaml", repetitions=1, **options)
        argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "o"), *flags]
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects an unknown flag
            rc = exc.code
        assert rc == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setup, cost",
        [("ethane_g", 2 * 64 + 6 * 101), ("ethane_s", 2 * 101 + 6 * 64), ("panmictic_sa", 101)],
    )
    def test_budget_below_initialization_cost_is_config_error(self, tmp_path, capsys, setup, cost):
        cfg = write_config(
            tmp_path / "exp.yaml", problem={"kind": "mmdp", "k": 6}, setup={"kind": setup}, repetitions=1
        )
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--budget", str(cost)]) == 0
        (row,) = read_records(out / "records.csv")
        assert (row.evaluations, row.elapsed_ms) == (cost, 0.0)
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "p"), "--budget", str(cost - 1)]) == 2
        assert "config field 'budget'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ga",  # the config entry, one `ga` or `sa` key and its value
        [
            {"ga": {"pop_size": 2.5}},
            {"ga": {"tournament_size": 1.5}},
            {"ga": {"pop_size": True}},
            {"ga": []},
            {"sa": "x"},
        ],
    )
    def test_non_integer_ga_size_is_config_error(self, tmp_path, capsys, ga):
        cfg = write_config(tmp_path / "exp.yaml", **ga)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        (field,) = ga
        assert f"config field '{field}'" in capsys.readouterr().err

    def test_user_mutation_rate_reaches_the_run(self, tmp_path):
        # with neither crossover nor mutation every child copies a parent, so
        # no run raises its best after initialization; the default 4/L would
        ga = {"p_crossover": 0.0, "p_mutation_per_bit": 0.0}
        cfg = write_config(tmp_path / "exp.yaml", problem={"kind": "mmdp", "k": 5}, ga=ga, repetitions=3, budget=3_000)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert all(r.evaluations == 3_000 for r in read_records(tmp_path / "o" / "records.csv"))
        traces = sorted((tmp_path / "o" / "traces").iterdir())
        assert len(traces) == 3 and all(len(read_trace(t)) == 1 for t in traces)

    def test_null_params_are_the_defaults(self, tmp_path):
        options = {"setup": {"kind": "ethane_g"}, "repetitions": 2, "budget": 5_000}
        plain = write_config(tmp_path / "plain.yaml", **options)
        nulls = write_config(tmp_path / "nulls.yaml", ga=None, sa=None, **options)
        assert "ga: null" in nulls.read_text() and "sa: null" in nulls.read_text()
        for cfg, out in ((plain, "a"), (nulls, "b")):
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "a" / "records.csv").read_bytes() == (tmp_path / "b" / "records.csv").read_bytes()

    @pytest.mark.parametrize("value", ["fast", float("nan"), float("inf"), 0, True, pytest.param(10**400, id="10**400")])
    def test_bad_slow_factor_is_config_error(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path / "exp.yaml", setup={"kind": "ethane_g"}, slow_factor=value)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config field 'slow_factor'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setup, reads_it",
        [
            ({"kind": "ethane_g"}, True),
            ({"kind": "ethane_s"}, True),
            ({"kind": "ring"}, True),
            ({"kind": "custom", "topology": str(REPO_ROOT / "topologies" / "ethane_g.topology")}, False),
            ({"kind": "panmictic_ssga"}, False),
            ({"kind": "panmictic_sa"}, False),
        ],
        ids=lambda v: v["kind"] if isinstance(v, dict) else str(v),
    )
    def test_slow_factor_only_where_read(self, tmp_path, capsys, setup, reads_it):
        cfg = write_config(tmp_path / "exp.yaml", setup=setup, slow_factor=0.5, repetitions=1, budget=2_000)
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        if reads_it:
            assert rc == 0
        else:
            assert rc == 2
            assert "config field 'slow_factor'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, flag, value",
        [
            (["--seed", " 1_0 ", "--reps", "0_1", "--budget", "+20000"], "--seed", " 1_0 "),
            (["--reps", "0_1"], "--reps", "0_1"),
            (["--budget", "+20000"], "--budget", "+20000"),
            (["--budget", "2e4"], "--budget", "2e4"),
            (["--seed", "\u0663"], "--seed", "\u0663"),  # a non-ASCII digit that int() reads
            (["--reps", ""], "--reps", ""),
        ],
        ids=["all-three", "reps-underscore", "budget-plus", "budget-float", "seed-arabic-digit", "reps-empty"],
    )
    def test_integer_flag_must_be_decimal(self, tmp_path, capsys, flags, flag, value):
        cfg = write_config(tmp_path / "exp.yaml", repetitions=1)
        with pytest.raises(SystemExit) as exc:  # argparse rejects the value
            main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected a decimal integer, got {value!r}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_integer_flags_accept_decimal_digits(self, tmp_path):
        cfg = write_config(tmp_path / "exp.yaml")
        out = tmp_path / "out"
        flags = ["--seed", "007", "--reps", "2", "--budget", "3000"]
        assert main(["run", "--config", str(cfg), "--out", str(out), *flags]) == 0
        rows = read_records(out / "records.csv")
        assert [r.seed for r in rows] == [7, 8]
        assert all(r.evaluations <= 3000 for r in rows)

    @pytest.mark.parametrize(
        "overrides, flags, fieldname",
        [
            ({"master_seed": -1}, [], "master_seed"),
            ({}, ["--seed", "-1"], "master_seed"),
            ({"problem": {"kind": "ssp", "n": 3, "seed": -5}}, [], "problem.seed"),
        ],
        ids=["master_seed", "seed-flag", "problem-seed"],
    )
    def test_negative_seed_is_config_error(self, tmp_path, capsys, overrides, flags, fieldname):
        cfg = write_config(tmp_path / "exp.yaml", **overrides)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), *flags]) == 2
        assert f"config field '{fieldname}': must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("sa", "t0", float("nan")),
            ("sa", "t0", True),
            ("sa", "schedule_rate", float("inf")),
            ("ga", "p_crossover", "hot"),
            ("ga", "p_crossover", 10**400),
            ("ga", "p_mutation_per_bit", 10**400),
            ("sa", "t0", 10**400),
            ("sa", "schedule_rate", 10**400),
            ("sa", "p_perturb_per_bit", 10**400),
        ],
        ids=[
            "sa-t0-nan",
            "sa-t0-bool",
            "sa-schedule_rate-inf",
            "ga-p_crossover-string",
            "ga-p_crossover-10**400",
            "ga-p_mutation_per_bit-10**400",
            "sa-t0-10**400",
            "sa-schedule_rate-10**400",
            "sa-p_perturb_per_bit-10**400",
        ],
    )
    def test_non_finite_or_non_real_parameter_is_config_error(self, tmp_path, capsys, section, key, value):
        setup = {"kind": "panmictic_sa" if section == "sa" else "panmictic_ssga"}
        cfg = write_config(tmp_path / "exp.yaml", setup=setup, **{section: {key: value}})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"config field '{section}': {key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sa", [{"schedule": "geometric", "schedule_rate": 0.9}, {"t0": 1.0e-320}], ids=["geometric-0.9", "t0-subnormal"]
    )
    def test_temperature_underflow_runs(self, tmp_path, sa):
        # both schedules reach 0.0 within the budget unless the temperature is clamped
        cfg = write_config(
            tmp_path / "exp.yaml",
            problem={"kind": "mmdp", "k": 25},
            setup={"kind": "panmictic_sa"},
            budget=20_000,
            repetitions=1,
            sa=sa,
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("topology", [".", 5], ids=["directory", "number"])
    def test_unreadable_custom_topology_is_config_error(self, tmp_path, capsys, topology):
        cfg = write_config(tmp_path / "exp.yaml", setup={"kind": "custom", "topology": topology})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config field 'setup.topology'" in capsys.readouterr().err

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.yaml"
        cfg.write_bytes(b"\xff\xfe" + "budget: 100\n".encode("utf-16-le"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"config field 'config': cannot read {cfg}: 'utf-8' codec" in capsys.readouterr().err

    def test_exit_zero_even_with_failures(self, tmp_path):
        cfg = write_config(tmp_path / "exp.yaml", problem={"kind": "mmdp", "k": 6}, budget=200, repetitions=2)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


class TestOutputIoFailure:
    """An `--out` that cannot be written is an I/O failure: exit 3 with
    `error: I/O failure: ...` on stderr and no traceback."""

    RECORDS = "seed,evaluations,elapsed_ms,best,success\n0,10,5.0,2.0,1\n"

    @staticmethod
    def assert_io_failure(argv, capsys):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: I/O failure: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("where", ["existing-file", "below-a-file"])
    def test_run_out(self, tmp_path, capsys, where):
        cfg = write_config(tmp_path / "exp.yaml", repetitions=1, budget=200)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        out = blocker if where == "existing-file" else blocker / "out"
        self.assert_io_failure(["run", "--config", str(cfg), "--out", str(out)], capsys)
        assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize("where", ["directory", "missing-directory"])
    def test_report_out(self, tmp_path, capsys, where):
        records = tmp_path / "r.csv"
        records.write_text(self.RECORDS)
        out = tmp_path if where == "directory" else tmp_path / "missing" / "report.csv"
        self.assert_io_failure(["report", str(records), "--out", str(out)], capsys)
        assert not (tmp_path / "missing").exists()


class TestUnallocatableSize:
    """A problem size too large to allocate is an input error: exit 2 with
    `error: ...` on stderr and no traceback. An SSP instance is drawn, and an
    MMDP genome past the address space rejected, while the config loads; an
    MMDP population is drawn in the first repetition, after `--out` exists.
    Every size fails at once; never put a size here that can be allocated
    (k = 10**8 is about 38 GB)."""

    @pytest.mark.parametrize(
        "problem, in_repetition",
        [
            ({"kind": "mmdp", "k": 1_000_000_000_000_000}, True),
            ({"kind": "ssp", "n": 1_000_000_000_000_000, "seed": 1}, False),
            ({"kind": "mmdp", "k": 10**17}, True),
            ({"kind": "mmdp", "k": 10**400}, False),
            ({"kind": "ssp", "n": 2**63, "seed": 1}, False),
        ],
        ids=[
            "mmdp-in-repetition",
            "ssp-in-config-load",
            "mmdp-population-past-address-space",
            "mmdp-genome-past-address-space",
            "ssp-weights-past-address-space",
        ],
    )
    def test_exits_2_without_traceback(self, tmp_path, capsys, problem, in_repetition):
        cfg = write_config(tmp_path / "exp.yaml", problem=problem, repetitions=1)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "allocate" in err
        assert "Traceback" not in err
        assert out.exists() == in_repetition


class TestReport:
    def make_records(self, tmp_path):
        cfg = write_config(tmp_path / "a.yaml", repetitions=4, budget=30_000)
        out_a = tmp_path / "alpha"
        main(["run", "--config", str(cfg), "--out", str(out_a)])
        cfg2 = write_config(tmp_path / "b.yaml", setup={"kind": "ethane_g"}, repetitions=4, budget=30_000)
        out_b = tmp_path / "beta"
        main(["run", "--config", str(cfg2), "--out", str(out_b)])
        a = tmp_path / "alpha.csv"
        b = tmp_path / "beta.csv"
        a.write_bytes((out_a / "records.csv").read_bytes())
        b.write_bytes((out_b / "records.csv").read_bytes())
        return a, b

    def test_single_file_summary_matches_hand_means(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text(
            "seed,evaluations,elapsed_ms,best,success\n"
            "1,10,1.0,5.0,1\n2,20,2.0,5.0,1\n3,30,3.0,5.0,1\n4,40,4.0,5.0,1\n5,50,5.0,4.0,0\n"
        )
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert "speedup" not in lines[0]
        cells = lines[1].split(",")
        assert cells[0] == "r"
        assert float(cells[3]) == 0.8  # 4 of 5 solved
        assert float(cells[4]) == 25.0  # mean evals over the 4 successes
        assert float(cells[6]) == 2.5  # mean time over the 4 successes

    def test_two_files_add_pairwise_pvalues(self, tmp_path, capsys):
        a, b = self.make_records(tmp_path)
        capsys.readouterr()  # discard run-command output
        assert main(["report", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0].split(",")
        assert "p_vs_alpha" in header and "p_vs_beta" in header

    def test_sequential_reference_adds_speedup(self, tmp_path, capsys):
        a, b = self.make_records(tmp_path)
        capsys.readouterr()  # discard run-command output
        assert main(["report", str(b), "--sequential", str(a)]) == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0].split(",")
        assert header[-1] == "speedup"

    def test_run_outputs_labelled_by_directory(self, tmp_path, capsys):
        a, b = self.make_records(tmp_path)
        capsys.readouterr()  # discard run-command output
        runs = [str(tmp_path / "alpha" / "records.csv"), str(tmp_path / "beta" / "records.csv")]
        assert main(["report", *runs]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split(",")[-2:] == ["p_vs_alpha", "p_vs_beta"]
        alpha, beta = (line.split(",") for line in lines[1:])
        assert (alpha[0], beta[0]) == ("alpha", "beta")
        # the p-value between the two groups is computed, the same both ways
        # and the same as for the copies named by stem
        assert alpha[-2] == beta[-1] == "-"
        assert alpha[-1] == beta[-2] and 0.0 <= float(alpha[-1]) <= 1.0
        assert main(["report", str(a), str(b)]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == lines[1:]

    @pytest.mark.parametrize(
        "names, label",
        [(("a/records.csv", "b/a.csv"), "a"), (("a/x.csv", "b/x.csv"), "x")],
        ids=["directory-and-stem", "stem"],
    )
    def test_shared_label_is_input_error(self, tmp_path, capsys, names, label):
        paths = []
        for name in names:
            path = tmp_path / name
            path.parent.mkdir(exist_ok=True)
            path.write_text("seed,evaluations,elapsed_ms,best,success\n1,10,1.0,5.0,1\n")
            paths.append(str(path))
        assert main(["report", *paths]) == 2
        assert f"label {label!r} is already taken" in capsys.readouterr().err

    def test_speedup_cell_is_stats_speedup(self, tmp_path, capsys):
        ref, group = tmp_path / "ref.csv", tmp_path / "group.csv"
        ref.write_text("seed,evaluations,elapsed_ms,best,success\n1,10,15995.0,5.0,1\n2,10,1.0,4.0,0\n")
        group.write_text("seed,evaluations,elapsed_ms,best,success\n1,10,5318.0,5.0,1\n")
        assert main(["report", str(group), "--sequential", str(ref)]) == 0
        header, row = (line.split(",") for line in capsys.readouterr().out.splitlines())
        cell = row[header.index("speedup")]
        assert cell == f"{speedup([15995.0], [5318.0]):.2f}" == "3.01"

    def test_group_that_solved_nothing_has_no_p_value(self, tmp_path, capsys):
        solved, unsolved = tmp_path / "solved.csv", tmp_path / "unsolved.csv"
        solved.write_text("seed,evaluations,elapsed_ms,best,success\n1,10,1.0,5.0,1\n2,20,2.0,5.0,1\n")
        unsolved.write_text("seed,evaluations,elapsed_ms,best,success\n1,30,3.0,4.0,0\n")
        assert main(["report", str(solved), str(unsolved)]) == 0
        header, *rows = (line.split(",") for line in capsys.readouterr().out.splitlines())
        cells = {row[0]: dict(zip(header, row)) for row in rows}
        assert cells["solved"]["p_vs_unsolved"] == cells["unsolved"]["p_vs_solved"] == "*"
        assert cells["solved"]["p_vs_solved"] == cells["unsolved"]["p_vs_unsolved"] == "-"

    def test_zero_time_group_has_no_speedup(self, tmp_path, capsys):
        # a run that solves during initialization reports elapsed_ms 0.0
        ref, group = tmp_path / "ref.csv", tmp_path / "group.csv"
        ref.write_text("seed,evaluations,elapsed_ms,best,success\n1,10,15995.0,5.0,1\n")
        group.write_text("seed,evaluations,elapsed_ms,best,success\n1,64,0.0,5.0,1\n2,64,0.0,5.0,1\n")
        assert main(["report", str(group), "--sequential", str(ref)]) == 0
        header, row = (line.split(",") for line in capsys.readouterr().out.splitlines())
        assert row[header.index("speedup")] == "*"

    def test_huge_elapsed_ms_reports_inf_deviation(self, tmp_path, capsys):
        # finite cells whose deviations square past the float range
        path = tmp_path / "r.csv"
        path.write_text("seed,evaluations,elapsed_ms,best,success\n1,10,1e200,5.0,1\n2,10,0.0,5.0,1\n")
        assert main(["report", str(path)]) == 0
        out, err = capsys.readouterr()
        header, row = (line.split(",") for line in out.splitlines())
        assert (row[header.index("time_mean")], row[header.index("time_std")]) == ("5e+199", "inf")
        assert "Traceback" not in err

    def test_malformed_record_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("seed,evaluations,elapsed_ms,best,success\n1,2\n")
        assert main(["report", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_header_only_reference_is_input_error(self, tmp_path, capsys):
        ref, group = tmp_path / "ref.csv", tmp_path / "group.csv"
        ref.write_text("seed,evaluations,elapsed_ms,best,success\n")
        group.write_text("seed,evaluations,elapsed_ms,best,success\n1,10,5318.0,5.0,1\n")
        assert main(["report", str(group), "--sequential", str(ref)]) == 2
        assert f"{ref}: no run records" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["group", "reference"])
    def test_directory_is_input_error(self, tmp_path, capsys, where):
        group = tmp_path / "group.csv"
        group.write_text("seed,evaluations,elapsed_ms,best,success\n1,10,5318.0,5.0,1\n")
        args = [str(tmp_path)] if where == "group" else [str(group), "--sequential", str(tmp_path)]
        assert main(["report", *args]) == 2
        assert f"cannot read {tmp_path}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,10,1.0,5.0,7", "success must be 0 or 1"),
            ("1,10,nan,5.0,1", "elapsed_ms must be finite"),
            ("1,10,1.0,inf,1", "best must be finite"),
        ],
        ids=["success-7", "elapsed-nan", "best-inf"],
    )
    def test_bad_record_cell_is_input_error(self, tmp_path, capsys, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"seed,evaluations,elapsed_ms,best,success\n{row}\n")
        assert main(["report", str(path)]) == 2
        assert f"line 2: {message}" in capsys.readouterr().err

    def test_non_utf8_record_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "records.csv"
        path.write_bytes(b"\xff\xfe" + "seed,evaluations".encode("utf-16-le"))
        assert main(["report", str(path)]) == 2
        assert f"cannot read {path}: 'utf-8' codec" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, message",
        [("1,-10,5,1.0,1", "evaluations must be >= 1"), ("-3,10,5,1.0,1", "seed must be >= 0")],
        ids=["evaluations", "seed"],
    )
    def test_impossible_record_cell_is_input_error(self, tmp_path, capsys, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"seed,evaluations,elapsed_ms,best,success\n{row}\n")
        assert main(["report", str(path)]) == 2
        assert f"{path}: line 2: {message}" in capsys.readouterr().err

    def test_written_report(self, tmp_path):
        a, b = self.make_records(tmp_path)
        out = tmp_path / "report.csv"
        assert main(["report", str(a), str(b), "--out", str(out)]) == 0
        assert out.read_text().startswith("algorithm,")


DESK = REPO_ROOT / "experiments" / "desk"


class TestDeskConfigs:
    """The committed desk-scale comparison: five setups on MMDP k=5 and on
    subset sum n=16 (instance seed 11), 30 repetitions from seed 1000."""

    PROBLEMS = {"mmdp_k5": ("mmdp_k5", 500_000), "ssp_n16": ("ssp_n16_s11", 100_000)}
    SETUPS = {
        "ethane_g": ethane_topology("G"),
        "ethane_s": ethane_topology("S"),
        "ring": ring_topology(8, [0, 3]),
        "panmictic_ssga": panmictic_topology("ssga"),
        "panmictic_sa": panmictic_topology("sa"),
    }

    def test_every_cell_is_committed(self):
        found = sorted(str(p.relative_to(DESK)) for p in DESK.glob("**/*.yaml"))
        assert found == sorted(f"{pl}/{s}.yaml" for pl in self.PROBLEMS for s in self.SETUPS)

    @pytest.mark.parametrize("problem", ["mmdp_k5", "ssp_n16"])
    @pytest.mark.parametrize("setup", ["ethane_g", "ethane_s", "ring", "panmictic_ssga", "panmictic_sa"])
    def test_config_matches_desk_defaults(self, problem, setup):
        cfg = load_experiment_config(DESK / problem / f"{setup}.yaml")
        label, budget = self.PROBLEMS[problem]
        assert (cfg.setup, cfg.problem_label) == (setup, label)
        assert cfg.run.topology == self.SETUPS[setup]
        assert (cfg.run.evaluation_budget, cfg.run.seed, cfg.repetitions) == (budget, 1000, 30)

    def test_one_cell_runs(self, tmp_path, capsys):
        out = tmp_path / "mmdp_k5" / "ethane_g"
        cfg = DESK / "mmdp_k5" / "ethane_g.yaml"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--reps", "1"]) == 0
        (row,) = read_records(out / "records.csv")
        assert (row.seed, row.success) == (1000, True)
        assert capsys.readouterr().out.splitlines()[1].startswith("ethane_g,mmdp_k5,1,1,1.0,")


class TestValidateTopology:
    def test_shipped_ethane_files_valid(self, tmp_path, capsys):
        # what scripts/make_topologies.py writes, byte for byte; a file that
        # drifted from its generator, or a writer that reorders or reformats
        # a key, fails here
        generated = {
            "ethane_g.topology": ethane_topology("G"),
            "ethane_s.topology": ethane_topology("S"),
            "ring8.topology": ring_topology(8, [0, 3]),
        }
        for name, spec in generated.items():
            path = REPO_ROOT / "topologies" / name
            assert main(["validate-topology", str(path)]) == 0
            assert "valid" in capsys.readouterr().out
            assert load_topology(path) == spec
            save_topology(spec, tmp_path / name)
            assert (tmp_path / name).read_bytes() == path.read_bytes()

    def test_pentavalent_carbon_rejected(self, tmp_path, capsys):
        doc = {
            "nodes": [{"id": "C0", "atom": "carbon", "algorithm": "ssga"}]
            + [{"id": f"H{i}", "atom": "hydrogen", "algorithm": "sa"} for i in range(5)],
            "bonds": [{"a": "C0", "b": f"H{i}"} for i in range(5)],
        }
        path = tmp_path / "penta.topology"
        path.write_text(yaml.safe_dump(doc))
        assert main(["validate-topology", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and "C0" in out

    def test_disconnected_rejected(self, tmp_path, capsys):
        doc = {
            "nodes": [
                {"id": "C0", "atom": "carbon", "algorithm": "ssga"},
                {"id": "H0", "atom": "hydrogen", "algorithm": "sa"},
                {"id": "C1", "atom": "carbon", "algorithm": "ssga"},
                {"id": "H1", "atom": "hydrogen", "algorithm": "sa"},
            ],
            "bonds": [{"a": "C0", "b": "H0"}, {"a": "C1", "b": "H1"}],
        }
        path = tmp_path / "disc.topology"
        path.write_text(yaml.safe_dump(doc))
        assert main(["validate-topology", str(path)]) == 1
        assert "disconnected" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "where, key, value",
        [
            ("document", "edges", []),
            ("node", "speed", 0.2),
            ("bond", "weight", 2),
            ("bond", "multiplicity", 1.7),
            ("bond", "multiplicity", True),
            ("bond", "multiplicity", "2"),
            ("node", "speed_factor", float("nan")),
            ("node", "speed_factor", float("inf")),
            ("node", "speed_factor", "fast"),
            ("node", "speed_factor", True),
            ("node", "speed_factor", 0.0),
            ("node", "speed_factor", -1.0),
            pytest.param("node", "speed_factor", 10**400, id="node-speed_factor-10**400"),
        ],
    )
    def test_unknown_key_or_bad_number_is_input_error(self, tmp_path, capsys, where, key, value):
        doc = asdict(ethane_topology("G"))
        target = {"document": doc, "node": doc["nodes"][2], "bond": doc["bonds"][1]}[where]
        target[key] = value
        path = tmp_path / "bad.topology"
        path.write_text(yaml.safe_dump(doc))
        assert main(["validate-topology", str(path)]) == 2
        assert key in capsys.readouterr().err
        cfg = write_config(tmp_path / "exp.yaml", setup={"kind": "custom", "topology": str(path)})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config field 'setup.topology'" in capsys.readouterr().err

    @pytest.mark.parametrize("where, key", [("document", "bonds"), ("node", "id"), ("bond", "a"), ("bond", "b")])
    def test_missing_key_is_input_error(self, tmp_path, capsys, where, key):
        doc = asdict(ethane_topology("G"))
        del {"document": doc, "node": doc["nodes"][2], "bond": doc["bonds"][1]}[where][key]
        path = tmp_path / "bad.topology"
        path.write_text(yaml.safe_dump(doc))
        assert main(["validate-topology", str(path)]) == 2
        assert f"missing '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [None, [1, 2], 0, True, {"x": 1}], ids=["null", "list", "int", "bool", "mapping"])
    @pytest.mark.parametrize("where, key", [("node", "id"), ("bond", "a"), ("bond", "b")])
    def test_non_string_id_is_input_error(self, tmp_path, capsys, where, key, value):
        doc = asdict(ethane_topology("G"))
        {"node": doc["nodes"][2], "bond": doc["bonds"][1]}[where][key] = value
        path = tmp_path / "bad.topology"
        path.write_text(yaml.safe_dump(doc))
        assert main(["validate-topology", str(path)]) == 2
        assert f"{key!r} must be a string" in capsys.readouterr().err
        cfg = write_config(tmp_path / "exp.yaml", setup={"kind": "custom", "topology": str(path)})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config field 'setup.topology'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "where, key, value, message",
        [
            ("document", "kind", "star", "unknown topology kind 'star'"),
            ("node", "id", "C0", "node ids must be unique"),
            ("node", "atom", "helium", "unknown atom 'helium'"),
            ("node", "algorithm", "ga", "unknown algorithm 'ga'"),
            ("bond", "b", "C0", "bond endpoints must differ, got 'C0' twice"),
            ("nodes", 2, "H0", "node must be a mapping, got 'H0'"),
            ("node", "speed_factor", 10**400, "speed_factor must be finite and within the float range"),
        ],
        ids=["kind", "duplicate-id", "atom", "algorithm", "self-bond", "node-not-a-mapping", "speed_factor-10**400"],
    )
    def test_invalid_spec_value_is_input_error(self, tmp_path, capsys, where, key, value, message):
        doc = asdict(ethane_topology("G"))
        nodes = doc["nodes"] = list(doc["nodes"])
        target = {"document": doc, "nodes": nodes, "node": nodes[2], "bond": doc["bonds"][1]}[where]
        target[key] = value
        path = tmp_path / "bad.topology"
        path.write_text(yaml.safe_dump(doc))
        assert main(["validate-topology", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_duplicate_key_is_input_error(self, tmp_path, capsys):
        text = (REPO_ROOT / "topologies" / "ethane_g.topology").read_text()
        path = tmp_path / "dup.topology"
        path.write_text(text.replace("  speed_factor: 0.35\n", "  speed_factor: 0.35\n  speed_factor: 1.0\n", 1))
        assert main(["validate-topology", str(path)]) == 2
        assert "duplicate key 'speed_factor'" in capsys.readouterr().err
        cfg = write_config(tmp_path / "exp.yaml", setup={"kind": "custom", "topology": str(path)})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config field 'setup.topology'" in capsys.readouterr().err

    def test_non_utf8_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.topology"
        path.write_bytes(b"\xff\xfe" + "nodes: []\n".encode("utf-16-le"))
        assert main(["validate-topology", str(path)]) == 2
        assert f"cannot read {path}: 'utf-8' codec" in capsys.readouterr().err

    def test_parse_failure_is_input_error(self, tmp_path):
        path = tmp_path / "broken.topology"
        path.write_text("nodes: [{id: C0")
        assert main(["validate-topology", str(path)]) == 2

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["validate-topology", str(tmp_path / "missing.topology")]) == 2

    def test_directory_is_input_error(self, tmp_path, capsys):
        assert main(["validate-topology", str(tmp_path)]) == 2
        assert f"cannot read {tmp_path}" in capsys.readouterr().err

    def test_empty_hydrocarbon_file_is_a_finding(self, tmp_path, capsys):
        path = tmp_path / "empty.topology"
        path.write_text("kind: hydrocarbon\nnodes: []\nbonds: []\n")
        assert main(["validate-topology", str(path)]) == 1
        assert capsys.readouterr().out == "topology has no nodes\n"
        cfg = write_config(tmp_path / "exp.yaml", setup={"kind": "custom", "topology": str(path)})
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config field 'setup.topology': topology has no nodes" in capsys.readouterr().err
        assert not (out / "records.csv").exists()

    @pytest.mark.parametrize(
        "bonds, finding",
        [
            (None, "topology has no nodes"),
            ([("N0", "N1"), ("N1", "N2"), ("N2", "Z9")], "bond N2-Z9 references unknown node Z9"),
            ([("N0", "N1"), ("N0", "N2"), ("N1", "N2"), ("N2", "N0")], "ring node N0 has 2 outgoing and 1 incoming bonds, expected 1 each"),
            ([("N0", "N1"), ("N1", "N2")], "ring node N2 has 0 outgoing and 1 incoming bonds, expected 1 each"),
            ([("N0", "N1"), ("N1", "N0"), ("N2", "N3"), ("N3", "N2")], "disconnected component: ['N2', 'N3']"),
            ([("N0", "N1"), ("N0", "N1"), ("N1", "N0")], "duplicate bond between N0 and N1"),
        ],
        ids=["empty", "unknown-endpoint", "two-outgoing", "no-outgoing", "two-cycles", "repeated-link"],
    )
    def test_invalid_ring_is_a_finding(self, tmp_path, capsys, bonds, finding):
        ids = sorted({i for bond in bonds or () for i in bond} - {"Z9"})
        doc = {
            "kind": "ring",
            "nodes": [{"id": i} for i in ids],
            "bonds": [{"a": a, "b": b} for a, b in bonds or ()],
        }
        path = tmp_path / "ring.topology"
        path.write_text(yaml.safe_dump(doc))
        assert finding in validate_topology(load_topology(path))
        assert main(["validate-topology", str(path)]) == 1
        assert finding in capsys.readouterr().out
        cfg = write_config(tmp_path / "exp.yaml", setup={"kind": "custom", "topology": str(path)})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config field 'setup.topology'" in capsys.readouterr().err


class TestExitCodeFuzz:
    """Every input the CLI is given ends in a documented exit code, never a
    traceback. Each example takes one shipped input (a desk config at one
    repetition and a budget of 2,000, with `ga:` and `sa:` mappings that
    restate a default each, a shipped topology file, or a valid records
    file), replaces one value in it or inserts one key, and runs it
    through `main`.

    The pool holds no large integer: `k: 10**9`, `n: 10**9` or
    `pop_size: 10**9` is valid input that allocates a huge genome or
    population, and `tournament_size: 10**9` is valid input that draws for
    minutes, so no exit code would come back in time."""

    DIRECTORY, MISSING = "<a directory>", "<a missing file>"
    POOL = (-1, 0, math.nan, math.inf, -math.inf, True, "x", [1, 2], {"x": 1}, None, DIRECTORY, MISSING)
    #: Every key the inputs may hold, and one that none may.
    KEYS = sorted(
        {*CONFIG_KEYS, *(k for keys in (*PROBLEMS.values(), *SETUPS.values()) for k in keys)}
        | {f.name for cls in (GaParams, SaParams, NodeSpec, BondSpec, TopologySpec) for f in fields(cls)}
        | {*RECORD_HEADER.split(","), "x"}
    )

    @staticmethod
    def custom_config(topology) -> dict:
        setup = {"kind": "custom", "topology": str(topology)}
        return {"problem": {"kind": "mmdp", "k": 5}, "setup": setup, "repetitions": 1, "budget": 2_000}

    @staticmethod
    def inputs() -> list:
        """(command, document) pairs: every desk config, every topology
        file alone and in a `custom` setup, and a records file as a list
        of rows."""
        docs = []
        runs = {"repetitions": 1, "budget": 2_000, "ga": {"pop_size": 64}, "sa": {"schedule": "fast"}}
        for path in sorted(DESK.glob("*/*.yaml")):
            docs.append(("run", yaml.safe_load(path.read_text()) | runs))
        for path in sorted((REPO_ROOT / "topologies").glob("*.topology")):
            docs.append(("validate-topology", yaml.safe_load(path.read_text())))
            docs.append(("run", TestExitCodeFuzz.custom_config(path)))
        rows = ((0, 900, 12.5, 5.0, 1), (1, 2_000, 30.0, 4.2, 0))
        docs.append(("report", [dict(zip(RECORD_HEADER.split(","), row)) for row in rows]))
        return docs

    @staticmethod
    def locations(doc, path=()):
        """The key path of `doc` itself and of every value inside it."""
        yield path
        items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
        for key, value in items:
            yield from TestExitCodeFuzz.locations(value, (*path, key))

    @staticmethod
    def at(doc, path):
        for key in path:
            doc = doc[key]
        return doc

    @staticmethod
    def edited(doc, path, value):
        """A copy of `doc` with `value` at `path`, which may be a new key."""
        if not path:
            return value
        doc = copy.deepcopy(doc)
        TestExitCodeFuzz.at(doc, path[:-1])[path[-1]] = value
        return doc

    @staticmethod
    def write(command, doc, path: Path) -> Path:
        """`doc` as the file `command` reads: YAML, or for `report` a
        records file with one line per row."""
        if command != "report":
            path.write_text(yaml.safe_dump(doc))
            return path
        rows = doc if isinstance(doc, list) else [doc]
        lines = (",".join(map(str, row.values())) if isinstance(row, dict) else str(row) for row in rows)
        path.write_text("\n".join([RECORD_HEADER, *lines]) + "\n")
        return path

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @settings(max_examples=200)
    @given(data=st.data())
    def test_exit_code_contract(self, workdir, data):
        command, doc = data.draw(st.sampled_from(self.inputs()), label="input")
        locations = list(self.locations(doc))
        if data.draw(st.booleans(), label="insert a key"):
            mapping = data.draw(st.sampled_from([p for p in locations if isinstance(self.at(doc, p), dict)]))
            path = (*mapping, data.draw(st.sampled_from(self.KEYS), label="key"))
        else:
            path = data.draw(st.sampled_from(locations), label="path")
        value = data.draw(st.sampled_from(self.POOL), label="value")
        with tempfile.TemporaryDirectory(dir=workdir) as tmp:
            tmp = Path(tmp)
            stand_in = {self.DIRECTORY: str(workdir), self.MISSING: str(tmp / "missing")}
            if isinstance(value, str):
                value = stand_in.get(value, value)
            if not path and value in stand_in.values():
                target = Path(value)  # the input file itself is a directory or missing
            else:
                target = self.write(command, self.edited(doc, path, value), tmp / "input")
            out = ["--out", str(tmp / "out")]
            if command == "run":
                argvs = [["run", "--config", str(target), *out]]
            elif command == "report":
                argvs = [["report", str(target), "--sequential", str(target)]]
            else:
                cfg = self.write("run", self.custom_config(target), tmp / "custom.yaml")
                argvs = [["validate-topology", str(target)], ["run", "--config", str(cfg), *out]]
            for argv in argvs:
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    try:
                        code = main(argv)
                    except SystemExit as exc:  # argparse rejects the arguments
                        code = exc.code
                allowed = {0, 1, 2, 3} if argv[0] == "validate-topology" else {0, 2, 3}
                assert code in allowed, (argv, err.getvalue())
                assert "Traceback" not in err.getvalue()
