"""Shared test helpers. Some were once part of `hydrocm` but only tests
called them (see test_no_test_only_surface.py): the reference readers for
the trace and instance files, a per-node RNG, bit-string genomes and
random valid hydrocarbons."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from hydrocm.engine import RunConfig, run_experiment
from hydrocm.problems import SubsetSumInstance
from hydrocm.seeding import spawn_rngs
from hydrocm.topology import (
    CARBON,
    DEFAULT_SLOW_FACTOR,
    HYDROGEN,
    KIND_HYDROCARBON,
    SA,
    SSGA,
    VALENCE,
    BondSpec,
    NodeSpec,
    TopologySpec,
    panmictic_topology,
)

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


def node_rng(master_seed, index=0):
    """RNG for a single node, identical to spawn_rngs(master_seed, index+1)[index]."""
    return spawn_rngs(master_seed, index + 1)[index]


def bits(s):
    """Parse a string of '0'/'1' characters into a genome."""
    return np.frombuffer(s.encode("ascii"), dtype=np.uint8) - ord("0")


def read_trace(path):
    """Parse a trace file written by `hydrocm.records.write_trace`."""
    trace = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}: line {lineno}: expected 'time_ms,fitness'")
        trace.append((float(parts[0]), float(parts[1])))
    return trace


def load_instance(path):
    """Parse an instance file written by `hydrocm.problems.save_instance`."""
    raw = Path(path).read_text().split()
    n, capacity, known_optimum = int(raw[0]), int(raw[1]), int(raw[2])
    weights = [int(tok) for tok in raw[3:]]
    assert len(weights) == n, f"{path}: expected {n} weights, found {len(weights)}"
    return SubsetSumInstance(
        weights=np.array(weights, dtype=np.int64), capacity=capacity, known_optimum=known_optimum
    )


def random_hydrocarbon(rng, max_carbons=6, variant="G", slow_factor=DEFAULT_SLOW_FACTOR, p_multi=0.3):
    """Random valid hydrocarbon: a carbon tree with optional double/triple
    bonds, hydrogens filling every remaining valence slot."""
    hub_alg, leaf_alg = (SSGA, SA) if variant.upper() == "G" else (SA, SSGA)
    n_carbons = int(rng.integers(1, max_carbons + 1))
    free = {f"C{i}": VALENCE[CARBON] for i in range(n_carbons)}
    bonds = []
    for i in range(1, n_carbons):
        candidates = [f"C{j}" for j in range(i) if free[f"C{j}"] >= 1]
        parent = candidates[int(rng.integers(0, len(candidates)))]
        bonds.append([parent, f"C{i}", 1])
        free[parent] -= 1
        free[f"C{i}"] -= 1
    for bond in bonds:
        while bond[2] < 3 and free[bond[0]] >= 1 and free[bond[1]] >= 1 and rng.random() < p_multi:
            bond[2] += 1
            free[bond[0]] -= 1
            free[bond[1]] -= 1
    nodes = [NodeSpec(f"C{i}", CARBON, hub_alg, 1.0) for i in range(n_carbons)]
    hydrogen_bonds = []
    for cid in sorted(free):
        for _ in range(free[cid]):
            h = f"H{len(hydrogen_bonds)}"
            nodes.append(NodeSpec(h, HYDROGEN, leaf_alg, slow_factor))
            hydrogen_bonds.append(BondSpec(cid, h))
    all_bonds = [BondSpec(a, b, m) for a, b, m in bonds] + hydrogen_bonds
    return TopologySpec(tuple(nodes), tuple(all_bonds), KIND_HYDROCARBON)


def panmictic(algorithm, problem, budget, seed):
    """One panmictic run: `algorithm` alone on a one-node topology."""
    config = RunConfig(panmictic_topology(algorithm), problem, evaluation_budget=budget, seed=seed)
    return run_experiment(config)


class CountingProblem:
    """Wraps a problem and counts fitness evaluations: full ones through
    `evaluate` and tally-based ones through `fitness_of`."""

    def __init__(self, inner):
        self.inner = inner
        self.count = 0

    @property
    def length(self):
        return self.inner.length

    @property
    def optimum(self):
        return self.inner.optimum

    def evaluate(self, genome):
        self.count += 1
        return self.inner.evaluate(genome)

    def tally(self, genome):
        return self.inner.tally(genome)

    def flip(self, tally, genome, positions):
        return self.inner.flip(tally, genome, positions)

    def fitness_of(self, tally):
        self.count += 1
        return self.inner.fitness_of(tally)


class ConstantProblem:
    """Every genome has the same fitness; the optimum is unreachable."""

    def __init__(self, length=6, value=0.5):
        self.length = length
        self.value = value
        self.optimum = value + 1.0

    def evaluate(self, genome):
        return self.value

    def tally(self, genome):
        return None

    def flip(self, tally, genome, positions):
        return None

    def fitness_of(self, tally):
        return self.value


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def counting():
    return CountingProblem
