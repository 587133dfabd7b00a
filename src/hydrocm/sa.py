"""Simulated annealing with Boltzmann acceptance and a very fast
default cooling schedule (T_k = t0 / (1 + rate*k)); a geometric schedule
is available behind the same interface. The framework maximizes fitness,
so the acceptance exponent uses delta = f_current - f_candidate.

A move is a set of bit flips. It is scored from the problem's tally of
the current solution (see `hydrocm.problems`) and applied to the current
genome in place only if accepted, so a rejected move copies nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .ga import check_real, default_mutation_rate
from .problems import Genome, random_genome

SCHEDULES = ("fast", "geometric")

#: Random genomes sampled to estimate the initial temperature when t0 is
#: left unset; the estimate is the fitness standard deviation, which
#: scales acceptance to the problem's fitness range.
T0_SAMPLES = 100

_MIN_TEMPERATURE = math.ulp(0.0)  # the smallest positive float, every schedule's floor


@dataclass(frozen=True)
class SaParams:
    t0: float | None = None  # None estimates from T0_SAMPLES random genomes
    schedule: str = "fast"
    schedule_rate: float = 1.0
    p_perturb_per_bit: float | None = None  # None resolves to 4/L

    def __post_init__(self):
        if self.schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}, got {self.schedule!r}")
        check_real("schedule_rate", self.schedule_rate)
        for name in ("t0", "p_perturb_per_bit"):
            if getattr(self, name) is not None:
                check_real(name, getattr(self, name))
        if self.schedule_rate <= 0:
            raise ValueError("schedule_rate must be positive")
        if self.schedule == "geometric" and self.schedule_rate > 1.0:
            raise ValueError("geometric schedule_rate must be in (0, 1]")
        if self.t0 is not None and self.t0 <= 0:
            raise ValueError("t0 must be positive")
        if self.p_perturb_per_bit is not None and not 0.0 < self.p_perturb_per_bit <= 1.0:
            raise ValueError(f"p_perturb_per_bit must be in (0,1], got {self.p_perturb_per_bit}")

    def resolved_for(self, length: int) -> "SaParams":
        if self.p_perturb_per_bit is not None:
            return self
        return replace(self, p_perturb_per_bit=default_mutation_rate(length))

    @property
    def init_evaluations(self) -> int:
        """Evaluations `init_sa_state` spends: the initial solution, plus
        T0_SAMPLES when t0 is estimated."""
        return 1 if self.t0 is not None else 1 + T0_SAMPLES


@dataclass
class SaState:
    """Annealing state: the current solution (`genome`, `fitness` and the
    problem's `tally` of it), the best-so-far and the cooling position.
    `genome` is a bytearray, changed in place and never shared; `best` is a
    `(bytes, fitness)` pair of its own, which migrants share."""

    genome: bytearray
    fitness: float
    tally: object
    best: tuple[bytes, float]
    t0: float
    temperature: float
    step: int = 0


def perturb(length: int, p_per_bit: float, rng) -> list[int]:
    """The annealer's move: ascending positions of independent per-bit flips
    over `length` bits, p_per_bit in (0, 1] as `SaParams` guarantees."""
    if p_per_bit == 1.0:
        return list(range(length))
    return rng.gap_positions(length, math.log1p(-p_per_bit))


def accept(f_current: float, f_candidate: float, temperature: float, rng) -> bool:
    """Boltzmann acceptance: improving or equal moves always pass, worse
    moves pass with probability exp(-(f_current - f_candidate)/T); T > 0, as
    `SaParams.t0`, `estimate_t0` and `update_temperature` guarantee."""
    if f_candidate >= f_current:
        return True
    return rng.random() < math.exp(-(f_current - f_candidate) / temperature)


def update_temperature(t0: float, step: int, params: SaParams) -> float:
    """Temperature after `step` updates; non-increasing in `step` for both
    schedules, and clamped at the smallest positive float so that a
    schedule that underflows stays strictly positive; `SaState.step` >= 0."""
    if params.schedule == "fast":
        t = t0 / (1.0 + params.schedule_rate * step)
    else:
        t = t0 * params.schedule_rate**step
    return t if t > _MIN_TEMPERATURE else _MIN_TEMPERATURE


def estimate_t0(problem, rng) -> float:
    """Fitness standard deviation over T0_SAMPLES random genomes, floored
    away from zero so the temperature invariant holds."""
    fits = [problem.evaluate(random_genome(problem.length, rng)) for _ in range(T0_SAMPLES)]
    return max(float(np.std(fits)), 1e-9)


def init_sa_state(params: SaParams, problem, rng) -> SaState:
    """Fresh state from a random solution; it costs
    `params.init_evaluations`."""
    genome = random_genome(problem.length, rng)
    tally = problem.tally(genome)
    f = problem.fitness_of(tally)
    t0 = params.t0 if params.t0 is not None else estimate_t0(problem, rng)
    return SaState(genome, f, tally, (bytes(genome), f), t0=t0, temperature=t0)


def sa_step(state: SaState, params: SaParams, problem, rng) -> None:
    """One annealing move: draw the flips, score them from the tally (one
    evaluation), accept or reject, update best, cool, advance the step
    counter. An accepted move flips the current genome in place."""
    genome = state.genome
    positions = perturb(len(genome), params.p_perturb_per_bit, rng)
    tally = problem.flip(state.tally, genome, positions)
    f = problem.fitness_of(tally)
    if accept(state.fitness, f, state.temperature, rng):
        for i in positions:
            genome[i] ^= 1
        state.fitness = f
        state.tally = tally
        if f > state.best[1]:
            state.best = (bytes(genome), f)
    state.step += 1
    state.temperature = update_temperature(state.t0, state.step, params)


def inject_immigrant(state: SaState, genome: Genome, problem, rng) -> None:
    """Treat an immigrant genome as a proposed move at the current
    temperature (costs one evaluation); it is copied only if accepted. The
    cooling position is untouched."""
    tally = problem.tally(genome)
    f = problem.fitness_of(tally)
    if accept(state.fitness, f, state.temperature, rng):
        state.genome = bytearray(genome)
        state.fitness = f
        state.tally = tally
        if f > state.best[1]:
            state.best = (bytes(genome), f)
