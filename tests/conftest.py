import numpy as np
import pytest
from hypothesis import settings

from hydrocm.engine import RunConfig, run_experiment
from hydrocm.topology import panmictic_topology

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


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
