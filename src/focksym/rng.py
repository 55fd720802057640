"""Deterministic seeded sampling for reproducible verification runs.

A splitmix64 stream drives all randomness: the same 64-bit seed produces the
same vectors on every platform, independent of numpy's generator internals.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["SplitMix64", "complex_normal_vectors"]

_MASK = (1 << 64) - 1


class SplitMix64:
    """64-bit splitmix stream; uniform doubles in [0, 1)."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def next_uint64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return (z ^ (z >> 31)) & _MASK

    def uniform(self) -> float:
        return (self.next_uint64() >> 11) * (1.0 / (1 << 53))

    def standard_normal(self) -> float:
        # Box-Muller; one value per call keeps the stream layout simple.
        u1 = self.uniform()
        while u1 == 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def _splitmix64_uniforms(seed: int, n: int) -> np.ndarray:
    """The first n uniforms of SplitMix64(seed), in wrapping uint64 arithmetic."""
    gamma = np.uint64(0x9E3779B97F4A7C15)
    z = np.uint64(int(seed) & _MASK) + np.arange(1, n + 1, dtype=np.uint64) * gamma
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(float) * (1.0 / (1 << 53))


def complex_normal_vectors(seed: int, count: int, dim: int) -> np.ndarray:
    """(count, dim) array of standard complex Gaussian samples.

    Entry by entry, complex(x, y) / sqrt(2) with x and y the next two
    ``SplitMix64.standard_normal`` values of the stream; the stream is drawn
    at once, and the result equals the scalar draws bit for bit.
    """
    u1, u2 = _splitmix64_uniforms(seed, 4 * count * dim).reshape(-1, 2).T
    if u1.all():
        radius = np.sqrt(-2.0 * np.array([math.log(u) for u in u1.tolist()]))
        angle = np.array([math.cos(a) for a in ((2.0 * math.pi) * u2).tolist()])
        normals = (radius * angle).tolist()
    else:  # a zero u1 (probability 2^-53 each) is redrawn, which shifts the stream
        rng = SplitMix64(seed)
        normals = [rng.standard_normal() for _ in range(2 * count * dim)]
    root2 = math.sqrt(2)
    out = [complex(x, y) / root2 for x, y in zip(normals[::2], normals[1::2])]
    return np.array(out, dtype=complex).reshape(count, dim)
