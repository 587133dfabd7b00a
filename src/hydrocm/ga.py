"""Steady-state GA: binary tournament, one-point crossover, per-bit
mutation, replace-worst-if-not-worse. One offspring (one evaluation) per
iteration, which keeps numerical-effort accounting exact.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, replace

import numpy as np

from .problems import Genome


def default_mutation_rate(length: int) -> float:
    """Standard per-bit mutation probability: 4.0 / chromosome length."""
    return min(1.0, 4.0 / length)


def check_real(name: str, value) -> float:
    """`value` as a float if it is a finite real number; a bool is not one,
    nor an int past the float range. The error names the parameter."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    if not -sys.float_info.max <= value <= sys.float_info.max:  # exact for any int; False for nan
        raise ValueError(f"{name} must be finite and within the float range, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class GaParams:
    pop_size: int = 64
    p_crossover: float = 0.8
    p_mutation_per_bit: float | None = None  # None resolves to 4/L
    tournament_size: int = 2

    def __post_init__(self):
        for name in ("pop_size", "tournament_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        check_real("p_crossover", self.p_crossover)
        if self.p_mutation_per_bit is not None:
            check_real("p_mutation_per_bit", self.p_mutation_per_bit)
        if self.pop_size < 2:
            raise ValueError(f"pop_size must be >= 2, got {self.pop_size}")
        if not 0.0 <= self.p_crossover <= 1.0:
            raise ValueError(f"p_crossover must be in [0,1], got {self.p_crossover}")
        if self.p_mutation_per_bit is not None and not 0.0 <= self.p_mutation_per_bit <= 1.0:
            raise ValueError("p_mutation_per_bit must be in [0,1]")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be >= 1")

    def resolved_for(self, length: int) -> "GaParams":
        """Fill the length-dependent mutation rate if left unset."""
        if self.p_mutation_per_bit is not None:
            return self
        return replace(self, p_mutation_per_bit=default_mutation_rate(length))


class Population:
    """Fixed-size population of one island: `rows`, one `bytes` genome per
    member, which other islands may share as migrants, and
    `fit`, their fitness values as Python floats. The index of the worst
    member is cached; `replace_worst`, the only write, keeps it the first
    minimum of `fit`, the index `np.argmin` gives."""

    __slots__ = ("rows", "fit", "_worst")

    def __init__(self, genomes, fitness):
        self.rows: list[bytes] = [bytes(g) for g in genomes]
        self.fit: list[float] = [float(f) for f in fitness]
        self._worst: int | None = None

    @property
    def fitness(self) -> np.ndarray:
        """`fit` as a new array. It exists only for the benchmark tracer's
        offspring probe, `pop.fitness.min()` in perfbench/tracer.py, which
        only a benchmark revision may change to `min(pop.fit)`."""
        return np.array(self.fit)

    def worst_index(self) -> int:
        w = self._worst
        if w is None:
            fit = self.fit
            w = self._worst = fit.index(min(fit))
        return w

    def replace_worst(self, genome: bytes, fitness: float) -> None:
        """Put `genome`, `bytes` stored without a copy, in place of the
        worst member. The cached index stays valid when the new fitness is
        not above the old worst: that slot is still the first minimum."""
        w = self.worst_index()
        fit = self.fit
        old = fit[w]
        self.rows[w] = genome
        fit[w] = fitness
        if fitness > old:
            self._worst = None


def init_population(params: GaParams, problem, rng) -> Population:
    """Uniformly random population with valid fitness caches
    (costs pop_size evaluations)."""
    if params.pop_size * problem.length > sys.maxsize:  # past the address space, where numpy raises ValueError
        raise MemoryError(f"cannot allocate a population of {params.pop_size} genomes of {problem.length} bytes")
    genomes = rng.integers(0, 2, size=(params.pop_size, problem.length), dtype=np.uint8)
    return Population(genomes, [problem.evaluate(g) for g in genomes])


def _tournament_index(pop: Population, size: int, rng) -> int:
    """Index of the fittest of `size` draws with replacement; ties keep the
    first-drawn. Each draw is `int(u * n)` for one scalar uniform u from
    `rng.random()`."""
    fit = pop.fit
    n = len(fit)
    best = int(rng.random() * n)
    for _ in range(size - 1):
        j = int(rng.random() * n)
        if fit[j] > fit[best]:
            best = j
    return best


def one_point_crossover(a: Genome, b: Genome, p_crossover: float, rng) -> bytearray:
    """With probability p_crossover, splice a prefix of `a` to a suffix of
    `b` at a cut in [1, L-1]; otherwise copy `a`, as a new bytearray. Both
    have `problem.length` bits, which `problem.tally` checks of SA immigrants."""
    length = len(a)
    if rng.random() >= p_crossover or length < 2:
        return bytearray(a)
    cut = 1 + int(rng.random() * (length - 1))
    child = bytearray(a[:cut])
    child += b[cut:]
    return child


def mutate(genome: bytearray, p_per_bit: float, rng) -> None:
    """Flip each bit of `genome` in place, independently with probability
    p_per_bit in [0, 1], as `GaParams` guarantees. Rates 0 and 1 draw
    nothing; any other rate flips during `BufferedRng.flip_gaps`'s walk."""
    if p_per_bit == 1.0:
        for i in range(len(genome)):
            genome[i] ^= 1
    elif p_per_bit > 0.0:
        rng.flip_gaps(genome, math.log1p(-p_per_bit))


def _offspring_step(pop: Population, params: GaParams, problem, rng) -> float:
    """One steady-state iteration; returns the offspring fitness.

    Exactly one evaluation. The offspring replaces the current worst
    member iff it is not worse, so the population best is monotone.
    """
    i = _tournament_index(pop, params.tournament_size, rng)
    j = _tournament_index(pop, params.tournament_size, rng)
    rows = pop.rows
    child = one_point_crossover(rows[i], rows[j], params.p_crossover, rng)
    mutate(child, params.p_mutation_per_bit, rng)
    f = problem.evaluate(child)
    if f >= pop.fit[pop.worst_index()]:
        pop.replace_worst(bytes(child), f)
    return f


def select_emigrant(pop: Population, rng) -> tuple[bytes, float]:
    """A uniformly random member, drawn as in `_tournament_index`, as a
    `(genome, fitness)` pair that shares the member's `bytes` row; there
    are at least two, as `GaParams.pop_size` guarantees."""
    fit = pop.fit
    i = int(rng.random() * len(fit))
    return pop.rows[i], fit[i]
