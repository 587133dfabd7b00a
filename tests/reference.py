"""A plain restatement of the island engine, the oracle for speed work.

`run(config)` takes a `hydrocm.engine.RunConfig` and returns what
`hydrocm.engine.run_experiment` should return for it: the record row, the
trace and each node's counters. It follows the README's Algorithms and
Determinism sections with no speed tricks:

- one uniform per scalar draw, from blocks of 1,024 that each node's
  generator yields with `random(1024)`, fetched at construction and again
  when a draw finds the block used up; `integers` draws from the
  generator at once, so where a block is fetched decides where each
  `integers` draw falls in the stream;
- each flip gap as `1 + int(log(1 - u) / log1p(-p))`, with no table;
- every fitness scored here by `score`, not by the problem's own
  `evaluate`: MMDP as numpy per-block sums looked up in a table of
  integer millionths, summed and divided once by 1e6; SSP as an int64 dot
  product with the reflected over-capacity penalty;
- a full score of a copied candidate per annealing move, with no tally;
- a `Fraction` clock per node and a linear scan for the next event (the
  earliest time, ties to the lowest node index), with no heap;
- list channels that drop the oldest migrant past 8.

Only the configuration, the parameter classes and the problem instances
(their sizes, weights and capacity) come from `hydrocm`. Topologies must
be valid and the budget must pay for initializing every node; `RunConfig`
checks both, this module does not.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from hydrocm.problems import MmdpInstance, is_optimum

BLOCK = 1024
CHANNEL_CAPACITY = 8
T0_SAMPLES = 100
#: The MMDP subfunction in integer millionths, by block unitation
MMDP_MILLIONTHS = [1_000_000, 0, 360_384, 640_576, 360_384, 0, 1_000_000]


def score(problem, genome: np.ndarray) -> float:
    """The fitness of `genome` under `problem`."""
    if isinstance(problem, MmdpInstance):
        units = genome.reshape(problem.k, 6).sum(axis=1).tolist()
        return sum(MMDP_MILLIONTHS[u] for u in units) / 1e6
    s = int(problem.weights @ genome)  # int64 weights, so int64 arithmetic
    c = problem.capacity
    return float(s) if s <= c else float(max(0, c - (s - c)))


class Rng:
    def __init__(self, generator):
        self.generator = generator
        self.block = generator.random(BLOCK).tolist()
        self.used = 0

    def random(self) -> float:
        if self.used == BLOCK:
            self.block = self.generator.random(BLOCK).tolist()
            self.used = 0
        self.used += 1
        return self.block[self.used - 1]

    def genomes(self, shape) -> np.ndarray:
        """Uniform bits in one `integers` call: numpy packs several uint8
        draws into one 32-bit word per call, so one call of shape (n, L)
        and n calls of shape L consume the stream differently."""
        return self.generator.integers(0, 2, size=shape, dtype=np.uint8)

    def pick(self, n: int) -> int:
        """A uniform index below `n`."""
        return int(self.random() * n)

    def flips(self, length: int, p: float) -> list[int]:
        """Ascending positions, each flipped on its own with probability `p`."""
        if p == 0.0:
            return []
        if p == 1.0:
            return list(range(length))
        positions = []
        pos = -1
        while True:
            pos += 1 + int(math.log(1.0 - self.random()) / math.log1p(-p))
            if pos >= length:
                return positions
            positions.append(pos)


def flipped(genome: np.ndarray, positions: list[int]) -> np.ndarray:
    out = genome.copy()
    for i in positions:
        out[i] ^= 1
    return out


class Channel:
    def __init__(self, batch: int):
        self.batch = batch
        self.queue: list = []
        self.sent = 0

    def push(self, msg) -> None:
        self.queue.append(msg)
        if len(self.queue) > CHANNEL_CAPACITY:
            self.queue.pop(0)


class Node:
    def __init__(self, spec, problem, rng, params):
        self.spec = spec
        self.problem = problem
        self.rng = rng
        self.params = params
        self.outgoing: list[Channel] = []
        self.incoming: list[Channel] = []
        self.stats = dict(
            evaluations=0, iterations=0, emigrants_sent=0, immigrants_received=0, messages_dropped=0
        )

    def migrate(self, room: int) -> int:
        for channel in self.outgoing:
            for _ in range(channel.batch):
                channel.push(self.emigrant())
            channel.sent += channel.batch
            self.stats["emigrants_sent"] += channel.batch
        spent = 0
        for channel in self.incoming:
            while channel.queue:
                if self.immigrant_costs_eval:
                    if spent == room:
                        return spent
                    spent += 1
                self.immigrate(channel.queue.pop(0))
                self.stats["immigrants_received"] += 1
        return spent


class GaNode(Node):
    immigrant_costs_eval = False

    def initialize(self) -> int:
        p = self.params
        self.rows = list(self.rng.genomes((p.pop_size, self.problem.length)))
        self.fit = [score(self.problem, g) for g in self.rows]
        self.best = max(self.fit)
        self.stats["evaluations"] += p.pop_size
        return p.pop_size

    def replace_worst(self, genome, f) -> None:
        w = self.fit.index(min(self.fit))
        self.rows[w] = genome
        self.fit[w] = f

    def tournament(self) -> int:
        i = self.rng.pick(len(self.fit))
        j = self.rng.pick(len(self.fit))
        return j if self.fit[j] > self.fit[i] else i

    def step(self) -> float:
        p, rng = self.params, self.rng
        a = self.rows[self.tournament()]
        b = self.rows[self.tournament()]
        length = len(a)
        if rng.random() < p.p_crossover and length >= 2:
            cut = 1 + rng.pick(length - 1)
            child = np.concatenate([a[:cut], b[cut:]])
        else:
            child = a.copy()
        child = flipped(child, rng.flips(length, p.p_mutation_per_bit))
        f = score(self.problem, child)
        if f >= min(self.fit):
            self.replace_worst(child, f)
        self.best = max(self.best, f)
        return f

    def emigrant(self):
        i = self.rng.pick(len(self.fit))
        return self.rows[i], self.fit[i]

    def immigrate(self, msg) -> None:
        self.replace_worst(*msg)
        self.best = max(self.best, msg[1])


class SaNode(Node):
    immigrant_costs_eval = True

    def initialize(self) -> int:
        p, problem = self.params, self.problem
        self.genome = self.rng.genomes(problem.length)
        self.fitness = score(problem, self.genome)
        cost = 1
        if p.t0 is None:
            samples = [score(problem, self.rng.genomes(problem.length)) for _ in range(T0_SAMPLES)]
            self.t0 = max(float(np.std(samples)), 1e-9)
            cost += T0_SAMPLES
        else:
            self.t0 = p.t0
        self.temperature = self.t0
        self.moves = 0
        self.best = self.fitness
        self.best_genome = self.genome
        self.stats["evaluations"] += cost
        return cost

    def accept(self, f: float) -> bool:
        if f >= self.fitness:
            return True
        return self.rng.random() < math.exp(-(self.fitness - f) / self.temperature)

    def take(self, genome, f) -> None:
        self.genome, self.fitness = genome, f
        if f > self.best:
            self.best, self.best_genome = f, genome

    def step(self) -> float:
        p = self.params
        candidate = flipped(self.genome, self.rng.flips(len(self.genome), p.p_perturb_per_bit))
        f = score(self.problem, candidate)
        if self.accept(f):
            self.take(candidate, f)
        self.moves += 1
        self.temperature = max(self.t0 / (1.0 + p.schedule_rate * self.moves), math.ulp(0.0))
        return self.best

    def emigrant(self):
        return self.best_genome, self.best

    def immigrate(self, msg) -> None:
        f = score(self.problem, msg[0])
        self.stats["evaluations"] += 1
        if self.accept(f):
            self.take(msg[0], f)


def run(config) -> dict:
    """The outcome of `config` as a dict: the record fields `seed`,
    `evaluations`, `elapsed_ms`, `best` and `success`, plus `trace`, a list
    of (time, best) pairs, and `per_island`, node id -> counter dict."""
    spec, problem = config.topology, config.problem
    params = {
        "ssga": config.ga.resolved_for(problem.length),
        "sa": config.sa.resolved_for(problem.length),
    }
    seeds = np.random.SeedSequence(config.seed).spawn(len(spec.nodes))
    nodes = []
    for node, seed in zip(spec.nodes, seeds):
        kind = GaNode if node.algorithm == "ssga" else SaNode
        rng = Rng(np.random.Generator(np.random.PCG64(seed)))
        nodes.append(kind(node, problem, rng, params[node.algorithm]))
    by_id = {n.spec.id: n for n in nodes}
    for bond in spec.bonds:
        links = [(bond.a, bond.b)] if spec.kind == "ring" else [(bond.a, bond.b), (bond.b, bond.a)]
        for src, dst in links:
            channel = Channel(bond.multiplicity)
            by_id[src].outgoing.append(channel)
            by_id[dst].incoming.append(channel)

    used, best = 0, -math.inf
    for node in nodes:
        used += node.initialize()
        best = max(best, node.best)
        if is_optimum(best, problem):
            break
    trace = [(0.0, best)]

    periods = [1 / Fraction(str(n.speed_factor)) for n in spec.nodes]
    clock = list(periods)
    elapsed = Fraction(0)
    while not is_optimum(best, problem):
        now = min(clock)
        i = clock.index(now)
        clock[i] += periods[i]
        if used >= config.evaluation_budget:
            break
        used += 1
        node = nodes[i]
        f = node.step()
        node.stats["evaluations"] += 1
        node.stats["iterations"] += 1
        elapsed = now
        if f > best:
            best = f
            trace.append((float(now), best))
            if is_optimum(best, problem):
                break
        if node.stats["iterations"] % config.migration_frequency == 0:
            used += node.migrate(config.evaluation_budget - used)
            if node.best > best:
                best = node.best
                trace.append((float(now), best))

    for node in nodes:
        gone = sum(ch.sent - len(ch.queue) for ch in node.incoming)
        node.stats["messages_dropped"] = gone - node.stats["immigrants_received"]
    return dict(
        seed=config.seed,
        evaluations=used,
        elapsed_ms=float(elapsed),
        best=best,
        success=is_optimum(best, problem),
        trace=trace,
        per_island={n.spec.id: n.stats for n in nodes},
    )
