"""The per-layer benchmark tracer (`perfbench/tracer.py`) wraps hydrocm
functions by module and attribute name from outside the package, and it
skips a binding that no longer resolves. A function renamed or deleted in
`src/` would therefore drop a per-layer metric without any error; these
tests fail instead. The tracer is loaded from its file. The binding tests
call only its `_resolve` lookup; the last test installs it around a tiny
run, so a call site that bypasses a wrapped name (a cached function
reference, say) shows up as an empty span."""

import importlib.util
from pathlib import Path

import pytest
import yaml

from hydrocm.cli import main
from hydrocm.records import read_records

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


def bindings_by_span() -> dict:
    """Every span the tracer can install, with its (module, attribute)
    bindings; the RNG methods are named `BufferedRng.<method>`."""
    spans = dict(tracer.SPANS)
    for name, bindings in (tracer.OFFSPRING, tracer.RUNS, tracer.ACCEPT):
        spans[name] = bindings
    module, cls = tracer.RNG_CLASS
    for method in tracer.RNG_METHODS:
        spans[f"{cls}.{method}"] = [(module, f"{cls}.{method}")]
    return spans


#: The spans that resolve against the current sources. The tracer's other
#: bindings (the panmictic loops, `BufferedRng.normal`/`choice`) name code
#: that the sources no longer have.
RESOLVING_SPANS = (
    "problems.evaluate",
    "problems.generate_ssp_instance",
    "ga.tournament",
    "ga.crossover",
    "ga.mutate",
    "ga.init_population",
    "sa.step",
    "sa.perturb",
    "sa.init",
    "engine.migrate",
    "records.write_trace",
    "records.write_records",
    "cli.load_config",
    "topology.compile_channels",
    "stats.report",
    "ga.offspring_step",
    "engine.loop",
    "sa.accept",
    "BufferedRng.random",
    "BufferedRng.integers",
)


def test_every_tracer_span_is_listed():
    assert set(tracer.SPANS) <= set(RESOLVING_SPANS)
    assert set(RESOLVING_SPANS) <= set(bindings_by_span())


@pytest.mark.parametrize("span", RESOLVING_SPANS)
def test_span_resolves_a_binding(span):
    bindings = bindings_by_span()[span]
    resolved = [path for module, path in bindings if tracer._resolve(module, path) is not None]
    assert resolved, f"no binding of {span} resolves: {bindings}"


#: The spans of one ssGA step and its migration, which every run of a
#: migrating ssGA ring must fill.
HOT_PATH_SPANS = (
    "ga.tournament",
    "ga.crossover",
    "ga.mutate",
    "ga.offspring_step",
    "problems.evaluate",
    "engine.migrate",
)


def test_installed_tracer_sees_the_hot_path(tmp_path):
    # seed 0 does not solve at initialization: the run takes ssGA steps
    config = {
        "problem": {"kind": "mmdp", "k": 2},
        "setup": {"kind": "ring", "n": 8},
        "repetitions": 1,
        "budget": 2000,
        "master_seed": 0,
        "migration_frequency": 1,
        "ga": {"pop_size": 8},
    }
    path = tmp_path / "ring.yaml"
    path.write_text(yaml.safe_dump(config))
    spans = tracer.Tracer()
    spans.install()
    try:
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    finally:
        spans.uninstall()
    for name in HOT_PATH_SPANS:
        assert spans.calls(name) > 0, f"span {name} recorded no calls"
    assert spans.count("seeding.scalar_draws") > 0
    # every evaluation of an all-ssGA run goes through a wrapped evaluate
    (row,) = read_records(tmp_path / "out" / "records.csv")
    assert spans.calls("problems.evaluate") == row.evaluations
    assert spans.calls("ga.tournament") == 2 * spans.calls("ga.offspring_step")
