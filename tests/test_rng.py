"""Deterministic seeded randomness: same seed, same stream, any platform."""

import math

import numpy as np
import pytest

from focksym import rng
from focksym.rng import SplitMix64, complex_normal_vectors


def test_splitmix64_reference_stream():
    # published outputs of the splitmix64 mixer for seed 0
    g = SplitMix64(0)
    assert g.next_uint64() == 0xE220A8397B1DCDAF
    assert g.next_uint64() == 0x6E789E6AA1B965F4
    assert g.next_uint64() == 0x06C45D188009454F


def test_uniform_range_and_determinism():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    xs = [a.uniform() for _ in range(1000)]
    ys = [b.uniform() for _ in range(1000)]
    assert xs == ys
    assert all(0.0 <= x < 1.0 for x in xs)


def test_normal_moments_are_sane():
    g = SplitMix64(99)
    xs = np.array([g.standard_normal() for _ in range(20000)])
    assert abs(xs.mean()) < 0.05
    assert abs(xs.std() - 1.0) < 0.05


def test_complex_normal_vectors_contract():
    v = complex_normal_vectors(7, 3, 5)
    w = complex_normal_vectors(7, 3, 5)
    assert v.shape == (3, 5)
    assert v.dtype == np.complex128
    np.testing.assert_array_equal(v, w)
    # unit-variance complex entries: E|z|^2 = 1
    big = complex_normal_vectors(1, 64, 128)
    assert abs(np.mean(np.abs(big) ** 2) - 1.0) < 0.05


def test_different_seeds_differ():
    v = complex_normal_vectors(1, 1, 8)
    w = complex_normal_vectors(2, 1, 8)
    assert not np.array_equal(v, w)


def _scalar_vectors(seed, count, dim):
    """Entry by entry through the scalar generator: real part, then imaginary part."""
    gen = SplitMix64(seed)
    out = np.empty((count, dim), dtype=complex)
    for i in range(count):
        for j in range(dim):
            out[i, j] = complex(gen.standard_normal(), gen.standard_normal()) / math.sqrt(2)
    return out


@pytest.mark.parametrize("seed, count, dim", [
    (0, 3, 5), (7, 100, 64), (2**64 - 3, 4, 33), (-5, 2, 8), (12345, 1, 1), (11, 0, 4)])
def test_vectorized_stream_equals_scalar_draws(seed, count, dim):
    v = complex_normal_vectors(seed, count, dim)
    assert v.shape == (count, dim)
    assert v.tobytes() == _scalar_vectors(seed, count, dim).tobytes()


def test_zero_uniform_falls_back_to_scalar_draws(monkeypatch):
    # a zero u1 makes the scalar generator redraw, which the vectorized layout cannot
    draws = rng._splitmix64_uniforms

    def with_zero(seed, n):
        u = draws(seed, n)
        u[2] = 0.0
        return u

    monkeypatch.setattr(rng, "_splitmix64_uniforms", with_zero)
    v = complex_normal_vectors(3, 2, 6)
    assert v.tobytes() == _scalar_vectors(3, 2, 6).tobytes()
