"""The engine against `tests/reference.py`, its plain restatement.

Every run of the grid below must give the same record row, the same trace
and the same per-node counters both ways. A speed change to the engine,
the RNG, the GA, the SA or the tally arithmetic that moves any draw or any
fitness shows up here as a mismatch, with the run that shows it.

The grid keeps per-bit rates away from denormals, where the engine's gap
table caps a gap (`seeding._GAP_CAP`) and the plain expression does not.
"""

import dataclasses
import itertools

from hydrocm.engine import RunConfig, run_experiment
from hydrocm.ga import GaParams
from hydrocm.problems import MmdpInstance, generate_ssp_instance
from hydrocm.sa import SaParams
from hydrocm.topology import ethane_topology, panmictic_topology, ring_topology

import reference

#: k=2 solves within the budgets below; k=6 and n=64 mostly do not
PROBLEMS = {
    "mmdp2": MmdpInstance(k=2),
    "mmdp6": MmdpInstance(k=6),
    "ssp64": generate_ssp_instance(64, seed=7),
}
ISLAND_SETUPS = {
    "ethane_g": ethane_topology("G"),
    "ethane_s": ethane_topology("S"),
    "ring8": ring_topology(8, {0, 3}),
}
PANMICTIC = {"panmictic_ssga": panmictic_topology("ssga"), "panmictic_sa": panmictic_topology("sa")}
#: (migration_frequency, migration_count): every iteration with batches
#: past the channel capacity, so migrants drop within one migration; and
#: the defaults' rare, single migrants
MIGRATION = [(1, 9), (3, 1), (50, 1)]
#: parameters off the defaults: small populations, a wider tournament,
#: always or never crossing over, a fixed t0 and the geometric schedule
PARAMS = {
    "defaults": (GaParams(), SaParams()),
    "varied": (
        GaParams(pop_size=8, p_crossover=1.0, tournament_size=3),
        SaParams(t0=0.5, schedule="geometric", schedule_rate=0.999, p_perturb_per_bit=0.05),
    ),
    "no-crossover": (GaParams(pop_size=5, p_crossover=0.0), SaParams(t0=2.0, schedule_rate=0.1)),
}


def grid():
    """(problem, setup, params, migration_frequency, migration_count,
    budget, seed) for each run, 93 in all."""
    for problem, seed in itertools.product(PROBLEMS, (0, 1)):
        for setup, (freq, count) in itertools.product(ISLAND_SETUPS, MIGRATION):
            yield problem, setup, "defaults", freq, count, 3_000, seed
        for setup in PANMICTIC:
            yield problem, setup, "defaults", 50, 1, 3_000, seed
    for problem, setup in itertools.product(PROBLEMS, ISLAND_SETUPS):
        # a budget near the initialization cost, so it runs out mid-migration
        yield problem, setup, "defaults", 1, 9, 1_200, 0
        for params in ("varied", "no-crossover"):
            yield problem, setup, params, 1, 2, 3_000, 2


def config(problem, setup, params, freq, count, budget, seed) -> RunConfig:
    ga, sa = PARAMS[params]
    return RunConfig(
        topology={**ISLAND_SETUPS, **PANMICTIC}[setup],
        problem=PROBLEMS[problem],
        evaluation_budget=budget,
        seed=seed,
        migration_frequency=freq,
        migration_count=count,
        ga=ga,
        sa=sa,
    )


def outcome(result) -> dict:
    out = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    out["per_island"] = {k: dataclasses.asdict(v) for k, v in result.per_island.items()}
    return out


def test_grid_matches_the_reference():
    runs = list(grid())
    mismatches, outcomes = [], []
    for case in runs:
        c = config(*case)
        got, want = outcome(run_experiment(c)), reference.run(c)
        if got != want:
            mismatches.append(f"{case}: {sorted(k for k in want if got[k] != want[k])}")
        outcomes.append(want)
    assert not mismatches, f"{len(mismatches)} of {len(runs)} runs differ:\n" + "\n".join(mismatches)
    # the grid is only as good as what it reaches: solved and unsolved
    # runs, improvements after initialization, received and dropped migrants
    assert 0 < sum(r["success"] for r in outcomes) < len(outcomes)
    assert any(len(r["trace"]) > 2 for r in outcomes)
    stats = [s for r in outcomes for s in r["per_island"].values()]
    assert any(s["messages_dropped"] > 0 for s in stats)
    assert any(s["immigrants_received"] > 0 for s in stats)

