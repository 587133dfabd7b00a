"""Host-speed probe: measures how fast the machine runs a fixed reference
computation while hydrocm runs, so that timings can be scaled to a
reference speed.

On a shared host the same pass of hydrocm can take half again as long
from one minute to the next, because other tenants compete for the core
and its caches; the slowdown lasts seconds and is invisible from inside
the process (CPU time grows with it). The probe runs a calibration chunk
from a SIGALRM handler every INTERVAL_S while a pass runs. The chunk
mixes the three kinds of work hydrocm's hot loops do: small numpy calls
on a 150-bit genome, a steady-state GA step, and an annealing move on a
2048-bit genome with its dot product. The mean chunk time over the pass,
divided by REFERENCE_S, is that pass's slowdown; the time spent in the
handler is subtracted from the pass. Nothing in hydrocm is wrapped or
changed, and the chunk uses no hydrocm code, so a change to hydrocm
cannot move the reference.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.1

#: Chunk time on the reference host (2 vCPUs at 2.1 GHz, Python 3.11,
#: numpy 2.4) when nothing else competed for it, about the fastest chunk
#: seen there. It only sets the scale of the reported speeds: a slowdown
#: of 1.0 means the reference host's own uncontended speed.
REFERENCE_S = 0.00115

_RNG = np.random.default_rng(0)
_BITS = np.zeros(150, dtype=np.uint8)
_MASK = np.ones(150, dtype=np.uint8)
_TABLE = np.linspace(0.0, 1.0, 7)
_POP = _RNG.integers(0, 2, size=(64, 150), dtype=np.uint8)
_POP_FITNESS = _RNG.random(64)
_UNIFORMS = _RNG.random(256)
_LONG = _RNG.integers(0, 2, size=2048, dtype=np.uint8)
_WEIGHTS = np.arange(2048, dtype=np.int64)


def _small_calls(acc: float) -> float:
    seen = {}
    for i in range(100):
        b = _BITS ^ _MASK
        acc += float(_TABLE.take(b.reshape(25, 6).sum(axis=1)).sum())
        acc += int(_POP_FITNESS.argmin())
        seen[i & 7] = (i, acc)
    return acc


def _ga_steps(acc: float) -> float:
    u = _UNIFORMS
    for k in range(0, 150, 5):
        a, b = int(u[k] * 64), int(u[k + 1] * 64)
        i = a if _POP_FITNESS[a] > _POP_FITNESS[b] else b
        a, b = int(u[k + 2] * 64), int(u[k + 3] * 64)
        j = a if _POP_FITNESS[a] > _POP_FITNESS[b] else b
        cut = 1 + int(u[k + 4] * 149)
        child = np.empty(150, dtype=np.uint8)
        child[:cut] = _POP[i, :cut]
        child[cut:] = _POP[j, cut:]
        child = child ^ (_RNG.random(150) < 0.027).view(np.uint8)
        acc += float(_TABLE.take(child.reshape(25, 6).sum(axis=1)).sum())
        acc += int(np.argmin(_POP_FITNESS))
    return acc


def _sa_moves(acc: float) -> float:
    current = 1.0e6
    for k in range(22):
        candidate = _LONG ^ (_RNG.random(2048) < 0.002).view(np.uint8)
        f = float(int(_WEIGHTS @ candidate))
        if f >= current or _UNIFORMS[k] < math.exp(-(current - f) / 1e5):
            current = f
    return acc + current


def chunk() -> float:
    """Run one calibration chunk; return its wall seconds."""
    t0 = perf_counter()
    _sa_moves(_ga_steps(_small_calls(0.0)))
    return perf_counter() - t0


class HostSpeed:
    """Context manager that samples `chunk()` every INTERVAL_S of wall time.

    `busy_s` is the handler's total time, to subtract from the timed
    work; `slowdown(since)` is the mean chunk time of the samples taken
    after index `since`, relative to REFERENCE_S."""

    def __init__(self):
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(chunk())
        self.busy_s += perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown(self, since: int = 0) -> float:
        window = self.samples[since:]
        if not window:  # a pass shorter than one interval
            return slowdown_now()
        return statistics.fmean(window) / REFERENCE_S


def slowdown_now(samples: int = 8) -> float:
    """Slowdown from `samples` chunks run right now."""
    return statistics.fmean(chunk() for _ in range(samples)) / REFERENCE_S
