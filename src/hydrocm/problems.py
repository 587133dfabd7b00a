"""Benchmark fitness functions: subset sum (SSP) and the massively
multimodal deceptive problem (MMDP), plus seeded instance generation.

All operations are pure; a genome holds one byte, 0 or 1, per bit.

Each instance scores a genome through a tally: an additive summary from
which its fitness follows exactly. `tally(genome)` computes it,
`flip(tally, genome, positions)` gives it for flipped bits without
touching the tally or the genome, and `fitness_of(tally)` maps it to the
fitness. `evaluate(genome)` equals `fitness_of(tally(genome))`, so the
annealer, which scores its moves from a kept tally, and a full evaluation
give the same float.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Stored genomes (population rows, an annealer's best, migrants) are immutable
#: `bytes`; working ones (an ssGA child, an annealer's solution) are `bytearray`s.
Genome = bytes | bytearray

#: Inclusive weight range for generated subset-sum instances.
WEIGHT_MAX = 10_000

#: Bipolar deception subfunction in integer millionths, indexed by the unitation
#: of a 6-bit block; fully deceptive, with optima at unitation 0 and 6. A block
#: sum in millionths is exact in any order, so MMDP fitness, that sum divided
#: once by 1e6, is the same float for genomes of the same true value.
_MMDP_MILLIONTHS = [1_000_000, 0, 360_384, 640_576, 360_384, 0, 1_000_000]

MMDP_BLOCK_BITS = 6

#: A byte of 1 for each bit of a block. Multiplying a genome's bytes, read as
#: one little-endian integer, by it puts the sum of bytes 6b .. 6b + 5 in
#: byte 6b + 5 of the product; each such sum is at most 6, so no carry
#: crosses a byte.
_SIX_ONES = 0x01_01_01_01_01_01

#: High and low byte of each subfunction value over 64 (a 14-bit integer), by
#: unitation. Entries 7-255 are 0; a genome of 0/1 bytes never yields them.
_HI = bytes(m // 64 >> 8 for m in _MMDP_MILLIONTHS).ljust(256, b"\0")
_LO = bytes(m // 64 & 255 for m in _MMDP_MILLIONTHS).ljust(256, b"\0")


def _block_sum(u: bytes) -> int:
    """Exact subfunction sum in millionths over the unitations `u`."""
    return (sum(u.translate(_HI)) * 256 + sum(u.translate(_LO))) * 64


def random_genome(length: int, rng) -> Genome:
    """Uniformly random working genome of the given length."""
    return bytearray(rng.integers(0, 2, size=length, dtype=np.uint8).tobytes())


@dataclass(frozen=True)
class MmdpInstance:
    """MMDP instance with k deceptive 6-bit subproblems; optimum is exactly k."""

    k: int
    length: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        object.__setattr__(self, "length", MMDP_BLOCK_BITS * self.k)
        if self.length > sys.maxsize:  # past the address space, where numpy raises ValueError
            raise MemoryError(f"cannot allocate a genome of 6 * k bytes for k={self.k}")

    @property
    def optimum(self) -> float:
        return float(self.k)

    def evaluate(self, genome: Genome) -> float:
        """Sum of the deception subfunction over consecutive disjoint 6-bit
        blocks; equals `fitness_of(tally(genome))` but builds no tally list."""
        return _block_sum(self._unitations(genome)) / 1e6

    def tally(self, genome: Genome) -> list[int]:
        """The unitation of each 6-bit block, followed by the sum of their
        subfunction values in millionths, as one list of k + 1 ints."""
        u = self._unitations(genome)
        return [*u, _block_sum(u)]

    def _unitations(self, genome: Genome) -> bytes:
        """The unitation of each 6-bit block, one byte each, from one
        big-integer multiply by `_SIX_ONES` that sums every block at once.
        The genome must hold one byte per bit: bytes, bytearray, or a uint8
        or bool array, which `bytes()` copies even from a non-contiguous view."""
        data = bytes(genome)
        if len(data) != self.length:
            raise ValueError(f"genome of {len(data)} bytes != {self.length}, one byte per bit (k={self.k})")
        spread = int.from_bytes(data, "little") * _SIX_ONES
        return spread.to_bytes(self.length + 6, "little")[5 : self.length : 6]

    def flip(self, tally: list[int], genome: Genome, positions) -> list[int]:
        """Tally of `genome` with the distinct `positions` flipped, as a new
        list: each flip moves its block's unitation by one and the sum by
        the table difference."""
        out = tally.copy()
        table = _MMDP_MILLIONTHS
        total = out[-1]
        for i in positions:
            b = i // MMDP_BLOCK_BITS
            u = out[b]
            v = out[b] = u - 1 if genome[i] else u + 1
            total += table[v] - table[u]
        out[-1] = total
        return out

    def fitness_of(self, tally: list[int]) -> float:
        """The block sum in millionths, divided once by 1e6."""
        return tally[-1] / 1e6


@dataclass(frozen=True, eq=False)
class SubsetSumInstance:
    """Subset-sum instance: pick a subset of `weights` whose sum approaches
    `capacity` without exceeding it. `known_optimum` is achievable by
    construction."""

    weights: np.ndarray
    capacity: int
    known_optimum: int
    #: float64 copy of `weights` for a BLAS dot product, exact because
    #: every partial sum is an integer far below 2**53
    weights_f64: np.ndarray = field(init=False, repr=False)
    #: `weights` as Python ints, for `flip`'s scalar reads
    _weights_list: list = field(init=False, repr=False)
    length: int = field(init=False, repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.int64)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.shape[0] < 1:
            raise ValueError("weights must be a non-empty 1-D sequence")
        if (w < 0).any() or (w > WEIGHT_MAX).any():
            raise ValueError(f"weights must lie in [0, {WEIGHT_MAX}]")
        if not 0 <= self.capacity <= int(w.sum()):
            raise ValueError("capacity must lie in [0, sum(weights)]")
        if not 0 <= self.known_optimum <= self.capacity:
            raise ValueError("known_optimum must lie in [0, capacity]")
        object.__setattr__(self, "weights_f64", w.astype(np.float64))
        object.__setattr__(self, "_weights_list", w.tolist())
        object.__setattr__(self, "length", w.shape[0])

    @property
    def optimum(self) -> float:
        return float(self.known_optimum)

    def evaluate(self, genome: Genome) -> float:
        """Subset sum with a reflected over-capacity penalty; see
        `fitness_of`."""
        return self.fitness_of(self.tally(genome))

    def tally(self, genome: Genome) -> int:
        """The subset sum of `genome`, one byte per bit: bytes, bytearray, or a
        C-contiguous uint8 or bool array (numpy rejects a non-contiguous view)."""
        bits = np.frombuffer(genome, np.uint8)
        if bits.shape[0] != self.length:
            raise ValueError(f"genome of {bits.shape[0]} bytes != {self.length} weights, one byte per bit")
        return int(self.weights_f64.dot(bits))

    def flip(self, tally: int, genome: Genome, positions) -> int:
        """Subset sum of `genome` with the distinct `positions` flipped;
        `genome` is left as it is."""
        w = self._weights_list
        for i in positions:
            if genome[i]:
                tally -= w[i]
            else:
                tally += w[i]
        return tally

    def fitness_of(self, tally: int) -> float:
        """For subset sum s: s when s <= C, else max(0, C - (s - C)), so
        fitness always lies in [0, C] and the optimum test is exact."""
        c = self.capacity
        if tally <= c:
            return float(tally)
        return float(max(0, c - (tally - c)))


def generate_ssp_instance(n: int, seed: int) -> SubsetSumInstance:
    """Seeded instance: n Gaussian weights in [0, 10^4], capacity the sum of
    a uniformly random half of them (so a perfect subset always exists).

    Weights are drawn from N(5000, (5000/3)^2), rounded and clamped; about
    99.7% of the mass lies inside the range before clamping.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if 8 * n > sys.maxsize:  # n float64 weights past the address space, where numpy raises ValueError
        raise MemoryError(f"cannot allocate {n} weights of 8 bytes")
    rng = np.random.default_rng(seed)
    raw = rng.normal(WEIGHT_MAX / 2.0, WEIGHT_MAX / 6.0, size=n)
    weights = np.clip(np.rint(raw), 0, WEIGHT_MAX).astype(np.int64)
    half = rng.choice(n, size=n // 2, replace=False)
    capacity = int(weights[half].sum())
    return SubsetSumInstance(weights=weights, capacity=capacity, known_optimum=capacity)


def is_optimum(fitness: float, problem) -> bool:
    """True iff `fitness` reaches the problem's known optimum. The test is
    exact: SSP fitness is integral, and MMDP fitness, k * 1e6 millionths
    divided by 1e6, is exactly k at the optimum."""
    return fitness >= problem.optimum


def save_instance(inst: SubsetSumInstance, path) -> None:
    """Write the flat text format: n, capacity, known_optimum, then one
    weight per line."""
    lines = [str(inst.length), str(inst.capacity), str(inst.known_optimum)]
    lines.extend(str(int(w)) for w in inst.weights)
    Path(path).write_text("\n".join(lines) + "\n")
