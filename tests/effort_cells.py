"""Search effort per seed on the desk-scale cells.

One run per seed in SEEDS for each cell, returning the evaluations used
and whether the optimum was reached. The results are cached per process,
so the criterion-3 solve rates (tests/test_acceptance.py) and the
random-stream gate (tests/test_stream_gate.py) share one set of runs.
"""

from functools import cache

from hydrocm.engine import RunConfig, run_experiment
from hydrocm.problems import MmdpInstance, generate_ssp_instance
from hydrocm.topology import ethane_topology, panmictic_topology, ring_topology

SEEDS = range(1000, 1100)
MMDP_BUDGET = 500_000
SSP_BUDGET = 100_000

#: The six criterion-3 cells: three island setups on MMDP k=5 and on SSP n=16.
CRITERION_3_CELLS = tuple(
    f"{setup}/{problem}" for problem in ("mmdp", "ssp") for setup in ("ethane_g", "ethane_s", "ring8")
)
CELLS = CRITERION_3_CELLS + ("panmictic_ssga/mmdp", "panmictic_sa/mmdp")


def _runner(cell: str):
    setup, problem_name = cell.split("/")
    if problem_name == "mmdp":
        problem, budget = MmdpInstance(k=5), MMDP_BUDGET
    else:
        problem, budget = generate_ssp_instance(16, seed=11), SSP_BUDGET
    topology = {
        "ethane_g": ethane_topology("G"),
        "ethane_s": ethane_topology("S"),
        "ring8": ring_topology(8, {0, 3}),
        "panmictic_ssga": panmictic_topology("ssga"),
        "panmictic_sa": panmictic_topology("sa"),
    }[setup]
    return lambda seed: run_experiment(
        RunConfig(topology=topology, problem=problem, evaluation_budget=budget, seed=seed)
    )


@cache
def effort(cell: str) -> tuple[tuple[int, bool], ...]:
    """(evaluations, success) for each seed in SEEDS, in seed order."""
    run = _runner(cell)
    return tuple((r.evaluations, r.success) for r in map(run, SEEDS))
