"""Seed derivation and a buffered RNG used on the hot search paths.

Every island owns exactly one RNG, derived from the master seed so that
runs replay bit-identically. A single-node run and the first island of a
multi-node run with the same master seed receive the same stream.
"""

from __future__ import annotations

import math

import numpy as np

_GAP_CAP = 2.0**62  # cap on a tabulated flip gap: int64-safe, and it ends any call


def spawn_rngs(master_seed: int, n: int) -> list["BufferedRng"]:
    """Derive `n` independent per-node RNGs from one master seed."""
    children = np.random.SeedSequence(master_seed).spawn(n)
    return [BufferedRng(np.random.Generator(np.random.PCG64(c))) for c in children]


class BufferedRng:
    """An island's RNG: a numpy Generator with block-buffered scalar draws
    and a per-block table of geometric flip gaps.

    `random()` draws one scalar uniform from a pre-drawn block of `block`
    uniforms, those of `generator.random(block)`, kept as a list of Python
    floats: indexing a list and doing arithmetic on a Python float is much
    cheaper than a numpy call, or numpy scalar arithmetic, per draw. Every
    `integers` call goes straight to the wrapped generator, as does any
    array draw, made on `generator` itself. The consumed stream is a pure
    function of the seed.
    """

    __slots__ = ("generator", "_arr", "_buf", "_i", "_block", "_gaps", "_log_q")

    def __init__(self, generator: np.random.Generator, block: int = 1024):
        self.generator = generator
        self._block = block
        self._refill()

    def _refill(self) -> None:
        self._arr = self.generator.random(self._block)
        self._buf = self._arr.tolist()
        self._i = 0
        self._log_q = None  # the gap table belongs to the old block

    def random(self) -> float:
        i = self._i
        if i >= self._block:
            self._refill()
            i = 0
        self._i = i + 1
        return self._buf[i]

    def integers(self, low, high=None, size=None, dtype=np.int64, endpoint=False):
        return self.generator.integers(low, high, size=size, dtype=dtype, endpoint=endpoint)

    def gap_positions(self, length: int, log_q: float) -> list[int]:
        """Flip positions below `length`, as the scalar loop `pos += 1 +
        int(log(1 - u) / log_q)` from pos = -1 gives them, one draw per gap up
        to the one that passes `length`; the gaps come from the block's table."""
        positions: list[int] = []
        append = positions.append
        pos = -1
        while True:
            if self._i >= self._block:
                self._refill()
            gaps = self._gaps if self._log_q == log_q else self._gap_table(log_q)
            i, end = self._i, self._block
            while i < end:
                pos += gaps[i]
                i += 1
                if pos >= length:
                    self._i = i
                    return positions
                append(pos)
            self._i = i

    def flip_gaps(self, bits, log_q: float) -> None:
        """Flip in the bytearray `bits`, during the walk, the positions that
        `gap_positions(len(bits), log_q)` returns, with the same draws. For an
        ssGA mutation this takes 0.67-0.81 us, against 0.88-1.13 us to flip that
        list (L = 30 to 2048, 2-core Xeon): about 3% of an mmdp25-ring8-mig1
        evaluation. The SA scores a move before applying it, so it needs the list."""
        length = len(bits)
        pos = -1
        while True:
            if self._i >= self._block:
                self._refill()
            gaps = self._gaps if self._log_q == log_q else self._gap_table(log_q)
            i, end = self._i, self._block
            while i < end:
                pos += gaps[i]
                i += 1
                if pos >= length:
                    self._i = i
                    return
                bits[pos] ^= 1
            self._i = i

    def _gap_table(self, log_q: float) -> list[int]:
        """Gaps for every uniform of the block at rate `log_q`. numpy's log may
        be one ulp off math.log, so a quotient within 1e-9 of an integer is
        redone with the scalar expression, unless it is past _GAP_CAP."""
        with np.errstate(over="ignore", invalid="ignore"):  # a denormal rate gives inf
            q = np.log(1.0 - self._arr) / log_q
            near = (np.abs(q - np.rint(q)) <= 1e-9 * (q + 1.0)) & (q < _GAP_CAP)
        gaps = (np.floor(np.minimum(q, _GAP_CAP)) + 1.0).astype(np.int64).tolist()
        buf = self._buf
        for j in np.flatnonzero(near).tolist():
            gaps[j] = 1 + int(math.log(1.0 - buf[j]) / log_q)
        self._gaps, self._log_q = gaps, log_q
        return gaps
