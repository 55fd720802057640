"""Truncated Fock-space core: coefficient vectors and their inner product.

Work space is the Hilbert space of entire functions f(z) = sum_k f_k z^k with
norm^2 = sum_k |f_k|^2 k!, truncated to the first ``dim`` coefficients.  A
vector is a 1-D complex128 array of the normalized coefficients
c_k = f_k * sqrt(k!) on the orthonormal basis e_k = z^k / sqrt(k!), so the
inner product is Euclidean and its norm is ``np.linalg.norm``; every matrix
realization in the package acts on these arrays, and a block of vectors is a
(dim, n) array with one vector per column.  Constructors build the
coefficients directly, by running ratios where a vector has many, so no
factorial of a whole vector is formed.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "FACTORIAL_EXACT_MAX",
    "sqrt_factorial",
    "exp_series",
    "monomial",
    "inner_product",
    "kernel_vector",
]

# Indices up to this bound use exact integer factorials; above it, log-gamma.
FACTORIAL_EXACT_MAX = 20


def sqrt_factorial(k: int) -> float:
    """sqrt(k!), exact below FACTORIAL_EXACT_MAX, via lgamma above."""
    if k <= FACTORIAL_EXACT_MAX:
        return math.sqrt(math.factorial(k))
    return math.exp(0.5 * math.lgamma(k + 1))


def exp_series(w: complex, dim: int) -> np.ndarray:
    """Taylor coefficients w^k / k! of exp(w z) for k < dim, by the recursion
    c_k = c_{k-1} w / k (no factorial is formed)."""
    out = np.empty(dim, dtype=complex)
    out[0] = 1.0
    for k in range(1, dim):
        out[k] = out[k - 1] * w / k
    return out


def monomial(k: int, dim: int) -> np.ndarray:
    """The monomial z^k = sqrt(k!) e_k as a truncated vector."""
    if not 0 <= k < dim:
        raise ValueError(f"index {k} outside truncation 0..{dim - 1}")
    c = np.zeros(dim, dtype=complex)
    c[k] = sqrt_factorial(k)
    return c


def inner_product(f: np.ndarray, g: np.ndarray) -> complex:
    """<f, g> = sum_k f_k conj(g_k), linear in f and conjugate-linear in g."""
    if f.shape != g.shape:
        raise ValueError(f"dimension mismatch: {f.shape} vs {g.shape}")
    return complex(np.sum(f * np.conj(g)))


def kernel_vector(z: complex, dim: int) -> np.ndarray:
    """Truncation of the reproducing kernel K_z(u) = exp(u * conj(z)).

    Normalized coefficients conj(z)^k / sqrt(k!), by the running ratio
    c_k = c_{k-1} conj(z) / sqrt(k); satisfies <f, K_z> = f(z) for
    polynomials of degree < dim.
    """
    w = np.conj(complex(z))
    c = np.empty(dim, dtype=complex)
    c[0] = 1.0
    for k in range(1, dim):
        c[k] = c[k - 1] * w / math.sqrt(k)
    return c

