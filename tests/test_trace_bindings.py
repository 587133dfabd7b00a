"""The per-layer benchmark tracer (`perfbench/tracer.py`) wraps hydrocm
functions by module and attribute name from outside the package, and it
skips a binding that no longer resolves. A function renamed or deleted in
`src/` would therefore drop a per-layer metric without any error; these
tests fail instead. The tracer is loaded from its file and only its
`_resolve` lookup is called: nothing is wrapped."""

import importlib.util
from pathlib import Path

import pytest

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
