"""Per-layer tracing of hydrocm from outside the package.

`Tracer.install()` replaces the layer functions and methods that the
engine and CLI call with wrappers; `uninstall()` puts the originals back.
Each wrapper records, per span name, the call count, the total time and
the self time (duration minus the time of nested wrapped spans). Counts
stay in memory until the caller reads them and calls `reset()`.

A binding that no longer exists (a function renamed or deleted in
`src/`) is skipped, and every metric that depends only on missing
bindings is reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import math
from time import perf_counter_ns

# Span name -> (module, attribute path) bindings to wrap. A function that
# another module imports by name is bound there too, because the call
# site looks it up in the importing module.
SPANS = {
    "problems.evaluate": [
        ("hydrocm.problems", "MmdpInstance.evaluate"),
        ("hydrocm.problems", "SubsetSumInstance.evaluate"),
    ],
    "problems.generate_ssp_instance": [
        ("hydrocm.problems", "generate_ssp_instance"),
        ("hydrocm.cli", "generate_ssp_instance"),
    ],
    "ga.tournament": [("hydrocm.ga", "_tournament_index")],
    "ga.crossover": [("hydrocm.ga", "one_point_crossover")],
    # only the GA's binding: the annealer's move reaches `mutate` through
    # hydrocm.sa and is timed as sa.perturb
    "ga.mutate": [("hydrocm.ga", "mutate")],
    "ga.init_population": [("hydrocm.ga", "init_population")],
    "sa.step": [("hydrocm.sa", "sa_step")],
    "sa.perturb": [("hydrocm.sa", "perturb")],
    "sa.init": [("hydrocm.sa", "init_sa_state")],
    "engine.migrate": [("hydrocm.engine", "_Island.migrate")],
    "records.write_trace": [("hydrocm.records", "write_trace"), ("hydrocm.cli", "write_trace")],
    "records.write_records": [
        ("hydrocm.records", "write_records"),
        ("hydrocm.cli", "write_records"),
    ],
    "cli.load_config": [("hydrocm.cli", "load_experiment_config")],
    "topology.compile_channels": [
        ("hydrocm.topology", "compile_channels"),
        ("hydrocm.engine", "compile_channels"),
    ],
    "stats.report": [("hydrocm.cli", "cmd_report")],
}

# Spans whose wrapper also looks at arguments or results.
OFFSPRING = ("ga.offspring_step", [("hydrocm.ga", "_offspring_step")])
RUNS = (
    "engine.loop",
    [
        ("hydrocm.engine", "run_experiment"),
        ("hydrocm.cli", "run_experiment"),
        ("hydrocm.ga", "run_panmictic_ssga"),
        ("hydrocm.cli", "run_panmictic_ssga"),
        ("hydrocm.sa", "run_panmictic_sa"),
        ("hydrocm.cli", "run_panmictic_sa"),
    ],
)
ACCEPT = ("sa.accept", [("hydrocm.sa", "accept")])
# BufferedRng method -> (index of `size` among the positional arguments,
# whether a scalar call is a draw of its own)
RNG_METHODS = {"random": (0, True), "integers": (2, False), "normal": (2, True), "choice": (1, True)}
RNG_CLASS = ("hydrocm.seeding", "BufferedRng")


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) for a binding, or None if it is gone.

    Class attributes are looked up in the class's own namespace, so a
    method is wrapped where it is defined and not on a subclass."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    original = vars(owner).get(attr)
    if not callable(original):
        return None
    return owner, attr, original


class Tracer:
    """Span and counter recorder for one benchmark process."""

    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counters: dict[str, list[int]] = {}
        self.runs: list[tuple[object, object]] = []  # (topology or None, RunResult)
        self.present: set[str] = set()
        self._stack: list[int] = []  # child time of each open span
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stat(self, name: str) -> list[int]:
        return self.stats.setdefault(name, [0, 0, 0])

    def _counter(self, name: str) -> list[int]:
        return self.counters.setdefault(name, [0])

    def span(self, name: str, fn):
        stat = self._stat(name)
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                child = stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
                if stack:
                    stack[-1] += dt

        return traced

    def _offspring_span(self, name: str, fn):
        timed = self.span(name, fn)
        replaced = self._counter("ga.replaced")

        def traced(pop, *args, **kwargs):
            worst = pop.fitness.min()
            f = timed(pop, *args, **kwargs)
            if f >= worst:
                replaced[0] += 1
            return f

        return traced

    def _run_span(self, name: str, fn):
        timed = self.span(name, fn)
        runs = self.runs

        def traced(*args, **kwargs):
            result = timed(*args, **kwargs)
            config = args[0] if args else None
            runs.append((getattr(config, "topology", None), result))
            return result

        return traced

    def _accept_counter(self, name: str, fn):
        calls = self._counter(name + ".calls")
        accepted = self._counter(name + ".accepted")

        def counted(*args, **kwargs):
            ok = fn(*args, **kwargs)
            calls[0] += 1
            if ok:
                accepted[0] += 1
            return ok

        return counted

    def _rng_method(self, name: str, fn, size_pos: int, scalar_counted: bool):
        """Scalar draws are counted only (the wrapper would cost more than
        the draw); array draws are timed and their values counted.

        `size_pos` is the positional index of the method's `size`
        parameter. A scalar `integers` call is not counted here because
        it consumes one scalar `random` draw, which is."""
        scalar = self._counter("seeding.scalar_draws")
        values = self._counter("seeding.array_values")
        timed = self.span(name, fn)

        def drawn(rng, *args, **kwargs):
            size = args[size_pos] if len(args) > size_pos else kwargs.get("size")
            if size is None:
                if scalar_counted:
                    scalar[0] += 1
                return fn(rng, *args, **kwargs)
            values[0] += math.prod(size) if isinstance(size, tuple) else int(size)
            return timed(rng, *args, **kwargs)

        return drawn

    # -- installation ------------------------------------------------------

    def _bind(self, name: str, bindings, make) -> None:
        wrapped = {}  # one wrapper per original object
        for module_name, path in bindings:
            found = _resolve(module_name, path)
            if found is None:
                continue
            owner, attr, original = found
            if id(original) not in wrapped:
                wrapped[id(original)] = make(name, original)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped[id(original)])
            self.present.add(name)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, bindings in SPANS.items():
            self._bind(name, bindings, self.span)
        self._bind(*OFFSPRING, self._offspring_span)
        self._bind(*RUNS, self._run_span)
        self._bind(*ACCEPT, self._accept_counter)
        for method, (size_pos, scalar_counted) in RNG_METHODS.items():
            self._bind(
                "seeding.array_draw",
                [(RNG_CLASS[0], f"{RNG_CLASS[1]}.{method}")],
                lambda name, fn, p=size_pos, c=scalar_counted: self._rng_method(name, fn, p, c),
            )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        """Zero every span and counter in place (wrappers keep references)."""
        for values in (*self.stats.values(), *self.counters.values()):
            values[:] = [0] * len(values)
        self.runs.clear()
        self._stack.clear()

    # -- reading -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0, 0])[2] / 1e9

    def count(self, name: str) -> int:
        return self.counters.get(name, [0])[0]
