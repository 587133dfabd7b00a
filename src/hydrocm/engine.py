"""Asynchronous island runtime.

Each topology node runs its own sub-algorithm (ssGA or SA) and exchanges
individuals over bounded non-blocking channels compiled from the bonds.
Heterogeneous hardware is emulated either by a deterministic virtual-time
scheduler (exact integer event arithmetic, replayable bit-for-bit) or by
one thread per island with optional sleep throttling.
"""

from __future__ import annotations

import heapq
import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from . import ga as ga_mod
from . import sa as sa_mod
from .ga import GaParams, Individual
from .problems import Genome, is_optimum
from .records import IslandStats, RunResult
from .sa import SaParams
from .seeding import spawn_rngs
from .topology import SSGA, TopologySpec, compile_channels

CHANNEL_CAPACITY = 8

VIRTUAL_TIME = "virtual_time"
WALL_CLOCK = "wall_clock"
MODES = (VIRTUAL_TIME, WALL_CLOCK)


class MigrationMessage:
    """One migrant in flight: its genome and fitness, the sending node and
    the channel's send sequence number."""

    __slots__ = ("genome", "fitness", "src", "seq")

    def __init__(self, genome: Genome, fitness: float, src: str, seq: int):
        self.genome = genome
        self.fitness = fitness
        self.src = src
        self.seq = seq


class Channel:
    """One-producer/one-consumer FIFO with bounded capacity.

    Sends never block: when full, the oldest queued message is dropped
    (freshest-information bias) and counted. Polls return immediately.
    """

    def __init__(self, src: str, dst: str, batch_size: int, capacity: int = CHANNEL_CAPACITY):
        self.src = src
        self.dst = dst
        self.batch_size = batch_size
        self.capacity = capacity
        self.dropped = 0
        self._seq = 0
        self._queue: deque[MigrationMessage] = deque()
        self._lock = threading.Lock()

    def send(self, genome: Genome, fitness: float) -> None:
        with self._lock:
            if len(self._queue) >= self.capacity:
                self._queue.popleft()
                self.dropped += 1
            self._queue.append(MigrationMessage(genome, fitness, self.src, self._seq))
            self._seq += 1

    def poll(self) -> list[MigrationMessage]:
        with self._lock:
            msgs = list(self._queue)
            self._queue.clear()
        return msgs

    def peek_fitness(self) -> list[float]:
        with self._lock:
            return [m.fitness for m in self._queue]

    def __len__(self) -> int:
        with self._lock:
            return len(self._queue)


class StopSignal:
    """Idempotent broadcast flag; islands observe it at iteration
    boundaries and count no evaluations afterwards."""

    def __init__(self):
        self._event = threading.Event()
        self.reason: str | None = None

    def trip(self, reason: str) -> None:
        if not self._event.is_set():
            self.reason = reason
        self._event.set()

    def is_set(self) -> bool:
        return self._event.is_set()


def terminate_broadcast(stop: StopSignal, reason: str = "success") -> None:
    """Signal every island to stop at its next iteration boundary."""
    stop.trip(reason)


class EvalBudget:
    """Global evaluation counter with a hard limit, shared by all islands."""

    def __init__(self, limit: int, threadsafe: bool = False):
        self.limit = limit
        self.used = 0
        self._lock = threading.Lock() if threadsafe else None

    def try_take(self, n: int = 1) -> bool:
        if self._lock is None:
            if self.used + n > self.limit:
                return False
            self.used += n
            return True
        with self._lock:
            if self.used + n > self.limit:
                return False
            self.used += n
            return True

    def force(self, n: int) -> None:
        """Count evaluations that must happen regardless (initialization)."""
        if self._lock is None:
            self.used += n
        else:
            with self._lock:
                self.used += n

    @property
    def exhausted(self) -> bool:
        return self.used >= self.limit


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

    def micro_horizon(self, ticks: int) -> int:
        return ticks * self.scale

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


def virtual_scheduler(speed_factors) -> VirtualScheduler:
    """Execution-order stream for the given per-node speed factors."""
    return VirtualScheduler(speed_factors)


@dataclass
class RunConfig:
    """Everything needed to run (and replay) one experiment."""

    topology: TopologySpec
    problem: object
    evaluation_budget: int
    seed: int
    migration_frequency: int = 50
    migration_count: int = 1
    mode: str = VIRTUAL_TIME
    ga: GaParams | None = None
    sa: SaParams | None = None
    multiplicity_as_frequency: bool = False
    wall_throttle_ms: float = 0.0

    def __post_init__(self):
        if self.evaluation_budget < 1:
            raise ValueError("evaluation_budget must be >= 1")
        if self.migration_frequency < 1:
            raise ValueError("migration_frequency must be >= 1")
        if self.migration_count < 1:
            raise ValueError("migration_count must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


class _OutLink:
    __slots__ = ("channel", "period", "batch")

    def __init__(self, channel: Channel, period: int, batch: int):
        self.channel = channel
        self.period = period
        self.batch = batch


class _Island:
    """One node's algorithm loop plus its migration endpoints."""

    immigrant_costs_eval = False

    def __init__(self, node, index, problem, rng, migration_frequency):
        self.node = node
        self.index = index
        self.problem = problem
        self.rng = rng
        self.migration_frequency = migration_frequency
        self.out_links: list[_OutLink] = []
        self.in_channels: list[Channel] = []
        self.stats = IslandStats()
        self.best_fitness = -math.inf
        # set by _build_islands once links are wired
        self.due_single: int | None = migration_frequency
        self.due_all: tuple[int, ...] = (migration_frequency,)

    def finish_wiring(self) -> None:
        periods = {self.migration_frequency} | {link.period for link in self.out_links}
        self.due_all = tuple(sorted(periods))
        self.due_single = self.due_all[0] if len(self.due_all) == 1 else None

    def migration_due(self, iteration: int) -> bool:
        if self.due_single is not None:
            return iteration % self.due_single == 0
        return any(iteration % p == 0 for p in self.due_all)

    def migrate(self, budget: EvalBudget) -> None:
        """Send on due outgoing channels, then drain incoming ones.

        Draining halts early if the budget cannot pay for an immigrant
        move (only SA immigrants cost an evaluation).
        """
        m = self.stats.iterations
        for link in self.out_links:
            if m % link.period == 0:
                for _ in range(link.batch):
                    emigrant = self.emigrant()
                    link.channel.send(emigrant.genome, emigrant.fitness)
                    self.stats.emigrants_sent += 1
        if m % self.migration_frequency == 0:
            costs = self.immigrant_costs_eval
            for channel in self.in_channels:
                for msg in channel.poll():
                    if costs and not budget.try_take(1):
                        return
                    self._apply_immigrant(msg)


class _GaIsland(_Island):
    immigrant_costs_eval = False

    def __init__(self, node, index, problem, rng, migration_frequency, params: GaParams):
        super().__init__(node, index, problem, rng, migration_frequency)
        self.params = params
        self.pop = None

    def initialize(self) -> int:
        self.pop = ga_mod.init_population(self.params, self.problem, self.rng)
        self.best_fitness = self.pop.best_fitness()
        self.stats.evaluations += self.pop.size
        return self.pop.size

    def step(self) -> float:
        f = ga_mod._offspring_step(self.pop, self.params, self.problem, self.rng)
        self.stats.evaluations += 1
        self.stats.iterations += 1
        if f > self.best_fitness:
            self.best_fitness = f
        return f

    def emigrant(self) -> Individual:
        return ga_mod.select_emigrant(self.pop, self.rng)

    def _apply_immigrant(self, msg: MigrationMessage) -> None:
        ga_mod.immigrate(self.pop, msg)
        self.stats.immigrants_received += 1
        if msg.fitness > self.best_fitness:
            self.best_fitness = msg.fitness


class _SaIsland(_Island):
    immigrant_costs_eval = True

    def __init__(self, node, index, problem, rng, migration_frequency, params: SaParams):
        super().__init__(node, index, problem, rng, migration_frequency)
        self.params = params
        self.state = None

    def initialize(self) -> int:
        self.state, evals = sa_mod.init_sa_state(self.params, self.problem, self.rng)
        self.best_fitness = self.state.best.fitness
        self.stats.evaluations += evals
        return evals

    def step(self) -> float:
        sa_mod.sa_step(self.state, self.params, self.problem, self.rng)
        self.stats.evaluations += 1
        self.stats.iterations += 1
        f = self.state.best.fitness
        if f > self.best_fitness:
            self.best_fitness = f
        return f

    def emigrant(self) -> Individual:
        return sa_mod.select_emigrant_sa(self.state)

    def _apply_immigrant(self, msg: MigrationMessage) -> None:
        sa_mod.inject_immigrant(self.state, msg.genome, self.problem, self.rng)
        self.stats.evaluations += 1
        self.stats.immigrants_received += 1
        if self.state.best.fitness > self.best_fitness:
            self.best_fitness = self.state.best.fitness


def _build_islands(config: RunConfig):
    spec = config.topology
    if not spec.nodes:
        raise ValueError("topology must have at least one node")
    plan = compile_channels(spec)
    problem = config.problem
    ga_params = (config.ga or GaParams()).resolved_for(problem.length)
    sa_params = (config.sa or SaParams()).resolved_for(problem.length)
    rngs = spawn_rngs(config.seed, len(spec.nodes))
    freq = config.migration_frequency

    islands = []
    by_id = {}
    for idx, node in enumerate(spec.nodes):
        if node.algorithm == SSGA:
            island = _GaIsland(node, idx, problem, rngs[idx], freq, ga_params)
        else:
            island = _SaIsland(node, idx, problem, rngs[idx], freq, sa_params)
        islands.append(island)
        by_id[node.id] = island

    channels = []
    for cspec in plan.channels:
        if config.multiplicity_as_frequency:
            period = max(1, freq // cspec.batch_size)
            batch = config.migration_count
        else:
            period = freq
            batch = cspec.batch_size * config.migration_count
        channel = Channel(cspec.src, cspec.dst, batch)
        channels.append(channel)
        by_id[cspec.src].out_links.append(_OutLink(channel, period, batch))
        by_id[cspec.dst].in_channels.append(channel)
    for island in islands:
        island.finish_wiring()
    return islands, channels


def _finalize(config, islands, channels, budget, elapsed_ms, global_best, trace):
    in_flight = [f for ch in channels for f in ch.peek_fitness()]
    best = max([global_best] + in_flight)
    per_island = {}
    for island in islands:
        island.stats.messages_dropped = sum(ch.dropped for ch in island.in_channels)
        per_island[island.node.id] = island.stats
    return RunResult(
        seed=config.seed,
        total_evaluations=budget.used,
        elapsed_ms=elapsed_ms,
        best_fitness=best,
        success=is_optimum(global_best, config.problem),
        trace=trace,
        per_island=per_island,
    )


def _run_virtual(config: RunConfig) -> RunResult:
    islands, channels = _build_islands(config)
    problem = config.problem
    budget = EvalBudget(config.evaluation_budget)
    stop = StopSignal()

    global_best = -math.inf
    for island in islands:
        if stop.is_set() or budget.exhausted:
            break
        budget.force(island.initialize())
        if island.best_fitness > global_best:
            global_best = island.best_fitness
        if is_optimum(global_best, problem):
            terminate_broadcast(stop, "success")
    trace = [(0.0, global_best)]

    scheduler = VirtualScheduler([n.speed_factor for n in config.topology.nodes])
    elapsed_micro = 0
    if not stop.is_set():
        for micro, idx in scheduler:
            if not budget.try_take(1):
                terminate_broadcast(stop, "budget")
                break
            island = islands[idx]
            f = island.step()
            elapsed_micro = micro
            if f > global_best:
                global_best = f
                trace.append((scheduler.ticks(micro), global_best))
                if is_optimum(global_best, problem):
                    terminate_broadcast(stop, "success")
                    break
            if island.migration_due(island.stats.iterations):
                island.migrate(budget)
                # global_best is below the optimum here unless it just rose
                if island.best_fitness > global_best:
                    global_best = island.best_fitness
                    trace.append((scheduler.ticks(micro), global_best))
                    if is_optimum(global_best, problem):
                        terminate_broadcast(stop, "success")
                        break

    return _finalize(
        config, islands, channels, budget, scheduler.ticks(elapsed_micro), global_best, trace
    )


class _WallShared:
    def __init__(self, problem, stop: StopSignal):
        self.problem = problem
        self.stop = stop
        self.lock = threading.Lock()
        self.global_best = -math.inf
        self.trace: list[tuple[float, float]] = []
        self.start = time.perf_counter()

    def now_ms(self) -> float:
        return (time.perf_counter() - self.start) * 1000.0

    def offer_best(self, fitness: float) -> None:
        with self.lock:
            if fitness > self.global_best:
                self.global_best = fitness
                self.trace.append((self.now_ms(), fitness))
                if is_optimum(fitness, self.problem):
                    self.stop.trip("success")


def _wall_worker(island: _Island, config: RunConfig, budget: EvalBudget, shared: _WallShared):
    stop = shared.stop
    throttle = 0.0
    if config.wall_throttle_ms > 0:
        throttle = config.wall_throttle_ms * (1.0 / island.node.speed_factor - 1.0) / 1000.0
    budget.force(island.initialize())
    shared.offer_best(island.best_fitness)
    while not stop.is_set():
        if not budget.try_take(1):
            stop.trip("budget")
            break
        island.step()
        shared.offer_best(island.best_fitness)
        if island.migration_due(island.stats.iterations):
            island.migrate(budget)
            shared.offer_best(island.best_fitness)
        if throttle:
            time.sleep(throttle)


def _run_wall(config: RunConfig) -> RunResult:
    islands, channels = _build_islands(config)
    budget = EvalBudget(config.evaluation_budget, threadsafe=True)
    stop = StopSignal()
    shared = _WallShared(config.problem, stop)
    threads = [
        threading.Thread(target=_wall_worker, args=(isl, config, budget, shared), daemon=True)
        for isl in islands
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = shared.now_ms()
    trace = shared.trace or [(0.0, shared.global_best)]
    return _finalize(config, islands, channels, budget, elapsed, shared.global_best, trace)


def run_experiment(config: RunConfig) -> RunResult:
    """Run one experiment until the optimum is found, the evaluation
    budget is exhausted, or a stop broadcast is observed."""
    if config.mode == VIRTUAL_TIME:
        return _run_virtual(config)
    return _run_wall(config)
