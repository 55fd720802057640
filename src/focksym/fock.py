"""Truncated Fock-space core: coefficient vectors, inner product, point evaluation.

Work space is the Hilbert space of entire functions f(z) = sum_k f_k z^k with
norm^2 = sum_k |f_k|^2 k!, truncated to the first ``dim`` coefficients.  Two
coefficient conventions are supported and tagged on each vector:

* ``"monomial"``   -- f_k, the raw Taylor coefficients;
* ``"normalized"`` -- c_k = f_k * sqrt(k!), so the inner product is Euclidean.

All matrix realizations in the package act on normalized coefficients.
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


def _sqrt_factorial_scalar(k: int) -> float:
    if k <= FACTORIAL_EXACT_MAX:
        return math.sqrt(math.factorial(k))
    return math.exp(0.5 * math.lgamma(k + 1))


# sqrt(k!) for k < len, from the scalar formulas; grown on demand by
# sqrt_factorial, and read-only, since callers get fresh arrays indexed from it.
_SQRT_FACTORIAL_TABLE = np.ones(1)
_SQRT_FACTORIAL_TABLE.setflags(write=False)


def sqrt_factorial(k: int | np.ndarray) -> np.ndarray | float:
    """sqrt(k!), exact below FACTORIAL_EXACT_MAX, via lgamma above.

    Arrays are looked up in a cached table and come back as a fresh array.
    """
    global _SQRT_FACTORIAL_TABLE
    karr = np.asarray(k)
    if karr.ndim == 0:
        kk = int(karr)
        if kk < 0:
            raise ValueError("negative index")
        return _sqrt_factorial_scalar(kk)
    if karr.size == 0:
        return np.empty(karr.shape)
    idx = karr.astype(np.intp)
    if idx.min() < 0:
        raise ValueError("negative index")
    table = _SQRT_FACTORIAL_TABLE
    n = int(idx.max()) + 1
    if n > table.size:
        grown = [_sqrt_factorial_scalar(j) for j in range(table.size, n)]
        table = np.concatenate([table, grown])
        table.setflags(write=False)
        _SQRT_FACTORIAL_TABLE = table
    return table[idx]


def exp_series(w: complex, dim: int) -> np.ndarray:
    """Taylor coefficients w^k / k! of exp(w z) for k < dim, by the recursion
    c_k = c_{k-1} w / k (no factorial is formed)."""
    out = np.empty(dim, dtype=complex)
    out[0] = 1.0
    for k in range(1, dim):
        out[k] = out[k - 1] * w / k
    return out


_BASES = ("normalized", "monomial")


@dataclass(frozen=True)
class FockVector:
    """Finite coefficient vector with a basis tag.

    ``coeffs`` is always stored as a 1-D complex128 array.  Conversion between
    the two coefficient conventions multiplies/divides by sqrt(k!).
    """

    coeffs: np.ndarray
    basis: str = "normalized"

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("coeffs must be a non-empty 1-D array")
        if self.basis not in _BASES:
            raise ValueError(f"unknown basis tag {self.basis!r}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def dim(self) -> int:
        return self.coeffs.size

    def to_normalized(self) -> "FockVector":
        if self.basis == "normalized":
            return self
        scale = sqrt_factorial(np.arange(self.dim))
        return FockVector(self.coeffs * scale, "normalized")

    def to_monomial(self) -> "FockVector":
        if self.basis == "monomial":
            return self
        scale = sqrt_factorial(np.arange(self.dim))
        return FockVector(self.coeffs / scale, "monomial")


def basis_vector(k: int, dim: int) -> FockVector:
    """Unit vector of the orthonormal basis, z^k/sqrt(k!), in normalized tag."""
    if not 0 <= k < dim:
        raise ValueError(f"index {k} outside truncation 0..{dim - 1}")
    c = np.zeros(dim, dtype=complex)
    c[k] = 1.0
    return FockVector(c, "normalized")


def monomial(k: int, dim: int) -> FockVector:
    """The monomial z^k as a truncated vector (monomial tag)."""
    if not 0 <= k < dim:
        raise ValueError(f"index {k} outside truncation 0..{dim - 1}")
    c = np.zeros(dim, dtype=complex)
    c[k] = 1.0
    return FockVector(c, "monomial")


def _factorial_weights(dim: int) -> np.ndarray:
    exact = [float(math.factorial(k)) for k in range(min(dim, FACTORIAL_EXACT_MAX + 1))]
    if dim <= FACTORIAL_EXACT_MAX + 1:
        return np.array(exact)
    rest = np.exp([math.lgamma(k + 1) for k in range(FACTORIAL_EXACT_MAX + 1, dim)])
    return np.concatenate([exact, rest])


def inner_product(f: FockVector, g: FockVector) -> complex:
    """<f, g>, linear in f and conjugate-linear in g.

    In the monomial convention this is sum_k f_k conj(g_k) k!, so e.g.
    <z^2, z^2> = 2; same-tag monomial pairs use the factorial weights
    directly, which keeps small-degree values exact.
    """
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    if f.basis == "monomial" and g.basis == "monomial":
        w = _factorial_weights(f.dim)
        return complex(np.sum(f.coeffs * np.conj(g.coeffs) * w))
    fc = f.to_normalized().coeffs
    gc = g.to_normalized().coeffs
    return complex(np.sum(fc * np.conj(gc)))


def norm(f: FockVector) -> float:
    if f.basis == "monomial":
        return math.sqrt(max(inner_product(f, f).real, 0.0))
    return float(np.linalg.norm(f.to_normalized().coeffs))


def kernel_vector(z: complex, dim: int) -> FockVector:
    """Truncation of the reproducing kernel K_z(u) = exp(u * conj(z)).

    Monomial coefficients conj(z)^k / k!; satisfies <f, K_z> = f(z) for
    polynomials of degree < dim.
    """
    return FockVector(exp_series(np.conj(complex(z)), dim), "monomial")


def evaluate(f: FockVector, z: complex) -> complex:
    """Pointwise value sum_k f_k z^k of the truncated series (Horner)."""
    mono = f.to_monomial().coeffs
    acc = 0.0 + 0.0j
    for c in mono[::-1]:
        acc = acc * z + c
    return complex(acc)
