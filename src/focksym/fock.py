"""Truncated Fock-space core: coefficient vectors, inner product, point evaluation.

Work space is the Hilbert space of entire functions f(z) = sum_k f_k z^k with
norm^2 = sum_k |f_k|^2 k!, truncated to the first ``dim`` coefficients.  A
vector holds the normalized coefficients c_k = f_k * sqrt(k!) on the
orthonormal basis e_k = z^k / sqrt(k!), so the inner product is Euclidean;
every matrix realization in the package acts on them.  Constructors build
these coefficients directly, by running ratios where a vector has many, so no
factorial of a whole vector is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = [
    "FACTORIAL_EXACT_MAX",
    "FockVector",
    "DEFAULT_TOLERANCES",
    "sqrt_factorial",
    "exp_series",
    "basis_vector",
    "monomial",
    "inner_product",
    "norm",
    "kernel_vector",
    "evaluate",
]

# Indices up to this bound use exact integer factorials; above it, log-gamma.
FACTORIAL_EXACT_MAX = 20

# Named tolerances shared by the verification suite and the CLI.  Values are
# calibrated at the default truncation dim=64 and are overridable per run.
DEFAULT_TOLERANCES: Mapping[str, float] = {
    "constraint": 1e-12,
    "involution_exact": 1e-12,
    "isometry_exact": 1e-12,
    "matrix_symmetry_exact": 1e-12,
    "residual_decay_factor": 10.0,
    "semiflow": 1e-10,
    "semicocycle": 1e-10,
    "semigroup_law": 1e-8,
    "scaling_solver": 1e-10,
    "norm_one": 1e-8,
    "expm_vs_semigroup": 1e-6,
    "spectrum_exact": 1e-12,
    "eigen_residual": 1e-10,
    "divergence_factor": 10.0,
    "dissipativity_margin": 1e-12,
    "resolvent_lower_bound": 1e-10,
    "laplace_diagonal": 1e-8,
    "laplace_identity": 1e-6,
    "evolution_tol_factor": 10.0,
    "closed_form_evolution": 1e-9,
    "nonauto_commutation": float(np.finfo(float).eps),
    "evolution_symmetry": 1e-9,
}


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


@dataclass(frozen=True)
class FockVector:
    """Finite vector of normalized coefficients c_k on e_k = z^k / sqrt(k!).

    ``coeffs`` is always stored as a read-only 1-D complex128 array.
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("coeffs must be a non-empty 1-D array")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def dim(self) -> int:
        return self.coeffs.size


def basis_vector(k: int, dim: int) -> FockVector:
    """Unit vector of the orthonormal basis, e_k = z^k / sqrt(k!)."""
    if not 0 <= k < dim:
        raise ValueError(f"index {k} outside truncation 0..{dim - 1}")
    c = np.zeros(dim, dtype=complex)
    c[k] = 1.0
    return FockVector(c)


def monomial(k: int, dim: int) -> FockVector:
    """The monomial z^k = sqrt(k!) e_k as a truncated vector."""
    if not 0 <= k < dim:
        raise ValueError(f"index {k} outside truncation 0..{dim - 1}")
    c = np.zeros(dim, dtype=complex)
    c[k] = sqrt_factorial(k)
    return FockVector(c)


def inner_product(f: FockVector, g: FockVector) -> complex:
    """<f, g> = sum_k f_k conj(g_k), linear in f and conjugate-linear in g."""
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    return complex(np.sum(f.coeffs * np.conj(g.coeffs)))


def norm(f: FockVector) -> float:
    return float(np.linalg.norm(f.coeffs))


def kernel_vector(z: complex, dim: int) -> FockVector:
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
    return FockVector(c)


def evaluate(f: FockVector, z: complex) -> complex:
    """Pointwise value sum_k c_k z^k / sqrt(k!) of the truncated series.

    Each power z^k / sqrt(k!) is the one before times z / sqrt(k), so no
    factorial is formed.
    """
    acc = 0.0 + 0.0j
    power = 1.0 + 0.0j
    for k, c in enumerate(f.coeffs):
        acc += c * power
        power = power * z / math.sqrt(k + 1)
    return complex(acc)
