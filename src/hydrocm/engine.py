"""Asynchronous island runtime.

Each topology node runs its own sub-algorithm (ssGA or SA) and exchanges
migrants over bounded non-blocking channels compiled from the bonds.
Heterogeneous hardware is emulated by a deterministic virtual-time
scheduler (exact integer event arithmetic, replayable bit-for-bit). A
panmictic baseline is a one-node topology run on the same loop.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from . import ga as ga_mod
from . import sa as sa_mod
from .ga import GaParams
from .problems import Genome, is_optimum
from .records import IslandStats, RunResult
from .sa import SaParams
from .seeding import spawn_rngs
from .topology import SA, SSGA, TopologySpec, compile_channels

CHANNEL_CAPACITY = 8


class Channel(deque):
    """One-producer/one-consumer FIFO of `(genome, fitness)` migrants, whose
    read-only genomes sender and receiver share; appending to a full one
    drops the oldest (freshest-information bias). The sender appends `batch`
    migrants per migration (bond multiplicity times `migration_count`) and
    counts every one in `sent`."""

    def __init__(self, batch: int):
        super().__init__((), CHANNEL_CAPACITY)
        self.batch = batch
        self.sent = 0


class VirtualScheduler:
    """Deterministic weighted round-robin over nodes.

    A node with speed factor f completes one iteration every 1/f virtual
    ticks. Event times are exact integers (micro-ticks at a common
    denominator `scale`), so iteration counts over any horizon are exact:
    floor(T * f) iterations within T ticks.
    """

    def __init__(self, speed_factors):
        factors = list(speed_factors)
        if not factors:
            raise ValueError("need at least one speed factor")
        periods = []
        for f in factors:
            if f <= 0:
                raise ValueError(f"speed factors must be positive, got {f}")
            periods.append(1 / Fraction(str(f)))
        self.scale = math.lcm(*(p.denominator for p in periods))
        self.periods = [int(p * self.scale) for p in periods]

    def ticks(self, micro: int) -> float:
        return micro / self.scale

    def __iter__(self):
        heap = [(period, idx) for idx, period in enumerate(self.periods)]
        heapq.heapify(heap)
        replace = heapq.heapreplace
        periods = self.periods
        while True:
            # entries are distinct (one per node), so the order of events
            # does not depend on how the heap is rearranged
            micro, idx = heap[0]
            replace(heap, (micro + periods[idx], idx))
            yield micro, idx


@dataclass
class RunConfig:
    """Everything needed to run (and replay) one experiment."""

    topology: TopologySpec
    problem: object
    evaluation_budget: int
    seed: int
    migration_frequency: int = 50
    migration_count: int = 1
    ga: GaParams = GaParams()
    sa: SaParams = SaParams()

    def __post_init__(self):
        if self.evaluation_budget < 1:
            raise ValueError("evaluation_budget must be >= 1")
        if self.migration_frequency < 1:
            raise ValueError("migration_frequency must be >= 1")
        if self.migration_count < 1:
            raise ValueError("migration_count must be >= 1")


class _Island:
    """One node's algorithm loop plus its migration endpoints. `initialize`
    creates the algorithm's state (`pop` or `state`) and defines
    `best_fitness`, the best fitness the node has seen."""

    immigrant_costs_eval = False

    def __init__(self, node, problem, rng, params: GaParams | SaParams):
        self.node = node
        self.problem = problem
        self.rng = rng
        self.params = params
        self.out_channels: list[Channel] = []
        self.in_channels: list[Channel] = []
        self.stats = IslandStats()

    def migrate(self, room: int) -> int:
        """Append `channel.batch` emigrants to every outgoing channel, then
        drain every incoming one; returns the evaluations the immigrants
        spent (only SA immigrants cost one each), at most `room`.

        Draining halts at the first immigrant that `room` cannot pay for;
        it and the messages behind it stay queued.
        """
        for channel in self.out_channels:
            for _ in range(channel.batch):
                channel.append(self.emigrant())
            channel.sent += channel.batch
            self.stats.emigrants_sent += channel.batch
        costs = self.immigrant_costs_eval
        spent = 0
        for channel in self.in_channels:
            while channel:
                if costs:
                    if spent == room:
                        return spent
                    spent += 1
                self._apply_immigrant(channel.popleft())
        return spent


class _GaIsland(_Island):
    def initialize(self) -> int:
        self.pop = ga_mod.init_population(self.params, self.problem, self.rng)
        self.best_fitness = self.pop.best_fitness()
        self.stats.evaluations += self.pop.size
        return self.pop.size

    def step(self) -> float:
        f = ga_mod._offspring_step(self.pop, self.params, self.problem, self.rng)
        stats = self.stats
        stats.evaluations += 1
        stats.iterations += 1
        if f > self.best_fitness:
            self.best_fitness = f
        return f

    def emigrant(self) -> tuple[Genome, float]:
        return ga_mod.select_emigrant(self.pop, self.rng)

    def _apply_immigrant(self, msg: tuple[Genome, float]) -> None:
        genome, fitness = msg
        self.pop.replace_worst(genome, fitness)
        self.stats.immigrants_received += 1
        if fitness > self.best_fitness:
            self.best_fitness = fitness


class _SaIsland(_Island):
    immigrant_costs_eval = True

    @property
    def best_fitness(self) -> float:
        return self.state.best[1]

    def initialize(self) -> int:
        self.state = sa_mod.init_sa_state(self.params, self.problem, self.rng)
        self.stats.evaluations += self.params.init_evaluations
        return self.params.init_evaluations

    def step(self) -> float:
        sa_mod.sa_step(self.state, self.params, self.problem, self.rng)
        self.stats.evaluations += 1
        self.stats.iterations += 1
        return self.state.best[1]

    def emigrant(self) -> tuple[Genome, float]:
        return self.state.best

    def _apply_immigrant(self, msg: tuple[Genome, float]) -> None:
        sa_mod.inject_immigrant(self.state, msg[0], self.problem, self.rng)
        self.stats.evaluations += 1
        self.stats.immigrants_received += 1


def initialization_cost(topology: TopologySpec, ga: GaParams, sa: SaParams) -> int:
    """Evaluations spent initializing every node of `topology`: pop_size
    per ssGA node, and per SA node its `SaParams.init_evaluations`."""
    costs = {SSGA: ga.pop_size, SA: sa.init_evaluations}
    return sum(costs[node.algorithm] for node in topology.nodes)


def _build_islands(config: RunConfig) -> list[_Island]:
    spec = config.topology
    channels = compile_channels(spec)
    cost = initialization_cost(spec, config.ga, config.sa)
    if config.evaluation_budget < cost:
        raise ValueError(
            f"evaluation_budget {config.evaluation_budget} is below the {cost} evaluations "
            "that initializing the topology costs"
        )
    problem = config.problem
    ga_params = config.ga.resolved_for(problem.length)
    sa_params = config.sa.resolved_for(problem.length)
    rngs = spawn_rngs(config.seed, len(spec.nodes))

    islands = []
    by_id = {}
    for node, rng in zip(spec.nodes, rngs):
        if node.algorithm == SSGA:
            island = _GaIsland(node, problem, rng, ga_params)
        else:
            island = _SaIsland(node, problem, rng, sa_params)
        islands.append(island)
        by_id[node.id] = island

    for cspec in channels:
        channel = Channel(cspec.batch_size * config.migration_count)
        by_id[cspec.src].out_channels.append(channel)
        by_id[cspec.dst].in_channels.append(channel)
    return islands


def run_experiment(config: RunConfig) -> RunResult:
    """Run one experiment in virtual time until the optimum is found or the
    evaluation budget is exhausted.

    Raises ValueError if the topology is invalid (TopologyValidationError)
    or the budget cannot pay for initializing every node."""
    islands = _build_islands(config)
    problem = config.problem
    limit = config.evaluation_budget
    used = 0

    global_best = -math.inf
    for island in islands:
        used += island.initialize()
        if island.best_fitness > global_best:
            global_best = island.best_fitness
        if is_optimum(global_best, problem):
            break
    trace = [(0.0, global_best)]

    scheduler = VirtualScheduler([n.speed_factor for n in config.topology.nodes])
    freq = config.migration_frequency
    elapsed_micro = 0
    if not is_optimum(global_best, problem):
        for micro, idx in scheduler:
            if used >= limit:
                break
            used += 1
            island = islands[idx]
            f = island.step()
            elapsed_micro = micro
            if f > global_best:
                global_best = f
                trace.append((scheduler.ticks(micro), global_best))
                if is_optimum(global_best, problem):
                    break
            if island.stats.iterations % freq == 0:
                used += island.migrate(limit - used)
                # global_best is below the optimum here unless it just rose
                if island.best_fitness > global_best:
                    global_best = island.best_fitness
                    trace.append((scheduler.ticks(micro), global_best))
                    if is_optimum(global_best, problem):
                        break

    per_island = {}
    for island in islands:
        # a migrant sent here was applied, dropped, or is still queued
        gone = sum(ch.sent - len(ch) for ch in island.in_channels)
        island.stats.messages_dropped = gone - island.stats.immigrants_received
        per_island[island.node.id] = island.stats
    return RunResult(
        seed=config.seed,
        evaluations=used,
        elapsed_ms=scheduler.ticks(elapsed_micro),
        best=global_best,
        success=is_optimum(global_best, problem),
        trace=trace,
        per_island=per_island,
    )
