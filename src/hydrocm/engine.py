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
from .topology import SA, SSGA, TopologySpec, TopologyValidationError, compile_channels, validate_topology

CHANNEL_CAPACITY = 8


class Channel(deque):
    """One-producer/one-consumer FIFO of `(genome, fitness)` migrants, whose
    `bytes` genomes sender and receiver share; appending to a full one
    drops the oldest (freshest-information bias). The sender appends `batch`
    migrants per migration, the multiplicity of the channel's bond, and
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
    floor(T * f) iterations within T ticks. `RunConfig` ensures one node
    at least, and `NodeSpec` a finite positive factor for each.
    """

    def __init__(self, speed_factors):
        periods = [1 / Fraction(str(f)) for f in speed_factors]
        self.scale = math.lcm(*(p.denominator for p in periods))
        self.periods = [int(p * self.scale) for p in periods]

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
    """Everything needed to run (and replay) one experiment. Building one
    checks that it can run: a valid topology (else TopologyValidationError)
    and a budget that pays for initializing every node (else ValueError)."""

    topology: TopologySpec
    problem: object
    evaluation_budget: int
    seed: int
    migration_frequency: int = 50
    ga: GaParams = GaParams()
    sa: SaParams = SaParams()

    def __post_init__(self):
        if self.evaluation_budget < 1:
            raise ValueError("evaluation_budget must be >= 1")
        if self.migration_frequency < 1:
            raise ValueError("migration_frequency must be >= 1")
        violations = validate_topology(self.topology)
        if violations:
            raise TopologyValidationError(violations)
        cost = self.initialization_cost
        if self.evaluation_budget < cost:
            raise ValueError(
                f"evaluation_budget {self.evaluation_budget} is below the {cost} evaluations "
                "that initializing the topology costs"
            )

    @property
    def initialization_cost(self) -> int:
        """Evaluations spent initializing every node: pop_size per ssGA
        node, and per SA node its `SaParams.init_evaluations`."""
        costs = {SSGA: self.ga.pop_size, SA: self.sa.init_evaluations}
        return sum(costs[node.algorithm] for node in self.topology.nodes)


class _Island:
    """One node's algorithm loop plus its migration endpoints. `initialize`
    creates the algorithm's state (`pop` or `state`) and returns its cost
    and best fitness. The node counts only its `iterations` and applied
    `immigrants`; `stats` derives the rest when the run ends."""

    immigrant_costs_eval = False

    def __init__(self, node, problem, rng, params: GaParams | SaParams):
        self.node = node
        self.problem = problem
        self.rng = rng
        self.params = params
        self.out_channels: list[Channel] = []
        self.in_channels: list[Channel] = []
        self.iterations = 0
        self.immigrants = 0

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
        costs = self.immigrant_costs_eval
        spent = 0
        for channel in self.in_channels:
            while channel:
                if costs:
                    if spent == room:
                        return spent
                    spent += 1
                self._apply_immigrant(channel.popleft())
                self.immigrants += 1
        return spent

    def stats(self, init_cost: int) -> IslandStats:
        """The node's counters at the end of a run in which initializing it
        cost `init_cost` evaluations (0 if the run never initialized it)."""
        immigrants = self.immigrants
        # a migrant sent here was applied, dropped, or is still queued
        gone = sum(ch.sent - len(ch) for ch in self.in_channels)
        return IslandStats(
            evaluations=init_cost + self.iterations + (immigrants if self.immigrant_costs_eval else 0),
            iterations=self.iterations,
            emigrants_sent=sum(ch.sent for ch in self.out_channels),
            immigrants_received=immigrants,
            messages_dropped=gone - immigrants,
        )


class _GaIsland(_Island):
    def initialize(self) -> tuple[int, float]:
        self.pop = ga_mod.init_population(self.params, self.problem, self.rng)
        return len(self.pop.fit), max(self.pop.fit)

    def step(self) -> float:
        self.iterations += 1
        return ga_mod._offspring_step(self.pop, self.params, self.problem, self.rng)

    def emigrant(self) -> tuple[Genome, float]:
        return ga_mod.select_emigrant(self.pop, self.rng)

    def _apply_immigrant(self, msg: tuple[Genome, float]) -> None:
        self.pop.replace_worst(*msg)


class _SaIsland(_Island):
    immigrant_costs_eval = True

    def initialize(self) -> tuple[int, float]:
        self.state = sa_mod.init_sa_state(self.params, self.problem, self.rng)
        return self.params.init_evaluations, self.state.best[1]

    def step(self) -> float:
        sa_mod.sa_step(self.state, self.params, self.problem, self.rng)
        self.iterations += 1
        return self.state.best[1]

    def emigrant(self) -> tuple[Genome, float]:
        return self.state.best

    def _apply_immigrant(self, msg: tuple[Genome, float]) -> None:
        sa_mod.inject_immigrant(self.state, msg[0], self.problem, self.rng)


def _build_islands(config: RunConfig) -> list[_Island]:
    spec = config.topology
    channels = compile_channels(spec)
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

    for src, dst, multiplicity in channels:
        channel = Channel(multiplicity)
        by_id[src].out_channels.append(channel)
        by_id[dst].in_channels.append(channel)
    return islands


def run_experiment(config: RunConfig) -> RunResult:
    """Run one experiment in virtual time until the optimum is found or the
    evaluation budget is exhausted. `config` can run: `RunConfig` checked
    its topology and budget when it was built."""
    islands = _build_islands(config)
    problem = config.problem
    limit = config.evaluation_budget
    used = 0

    global_best = -math.inf
    init_costs = [0] * len(islands)
    for i, island in enumerate(islands):
        init_costs[i], best = island.initialize()
        used += init_costs[i]
        global_best = max(global_best, best)
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
                trace.append((micro / scheduler.scale, global_best))
                if is_optimum(global_best, problem):
                    break
            # an immigrant's fitness came from an initialization or a step
            # already folded in above, so migration cannot raise global_best
            if island.iterations % freq == 0:
                used += island.migrate(limit - used)

    return RunResult(
        seed=config.seed,
        evaluations=used,
        elapsed_ms=elapsed_micro / scheduler.scale,
        best=global_best,
        success=is_optimum(global_best, problem),
        trace=trace,
        per_island={isl.node.id: isl.stats(cost) for isl, cost in zip(islands, init_costs)},
    )
