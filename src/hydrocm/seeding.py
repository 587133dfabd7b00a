"""Seed derivation and a buffered RNG used on the hot search paths.

Every island owns exactly one RNG,
derived from the master seed so that runs replay bit-identically. A
single-node run and the first island of a multi-node run with the same
master seed receive the same stream.
"""

from __future__ import annotations

import numpy as np


def spawn_rngs(master_seed: int, n: int) -> list["BufferedRng"]:
    """Derive `n` independent per-node RNGs from one master seed."""
    children = np.random.SeedSequence(master_seed).spawn(n)
    return [BufferedRng(np.random.Generator(np.random.PCG64(c))) for c in children]


class BufferedRng:
    """Duck-typed subset of numpy Generator with block-buffered scalar draws.

    Scalar `random()` and `integers(low, high)` calls come out of a
    pre-drawn block of `block` uniforms, kept as a list of Python floats:
    indexing a list and doing arithmetic on a Python float is much cheaper
    than a numpy call, or numpy scalar arithmetic, per draw. The values are
    those of `generator.random(block)`. Array-shaped requests go straight
    to the wrapped generator. The consumed stream is a pure function of the
    seed, so determinism is preserved.
    """

    __slots__ = ("generator", "_buf", "_i", "_block")

    def __init__(self, generator: np.random.Generator, block: int = 1024):
        self.generator = generator
        self._block = block
        self._buf = generator.random(block).tolist()
        self._i = 0

    def random(self, size=None):
        if size is None:
            i = self._i
            if i >= self._block:
                self._buf = self.generator.random(self._block).tolist()
                i = 0
            self._i = i + 1
            return self._buf[i]
        return self.generator.random(size)

    def integers(self, low, high=None, size=None, dtype=np.int64, endpoint=False):
        if size is None and high is not None and not endpoint:
            # floor(u * span): bias is O(span / 2**53), irrelevant here
            return low + int(self.random() * (high - low))
        return self.generator.integers(low, high, size=size, dtype=dtype, endpoint=endpoint)
