"""Antilinear conjugation operators built from weighted composition symbols.

The operator sends f to c * exp(b z) * conj(f(conj(a z + b))).  Admissible
parameter triples (a, b, c) satisfy

    |a| = 1,    conj(a) b + conj(b) = 0,    |c|^2 exp(|b|^2) = 1.

On normalized coefficients the operator factors as M followed by entrywise
complex conjugation of the input, where M is the weighted composition matrix
with symbol data (A, B, C, D) = (a, b, c, b).  Involutivity is equivalent to
M conj(M) = I and holds exactly only in the limit of infinite truncation when
b != 0; checks therefore report residuals, never booleans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import FockVector, inner_product
from .serialize import complex_to_json
from .wco import WCOParams, wco_matrix

__all__ = [
    "ConstraintViolation",
    "ConjugationParams",
    "AntilinearOperator",
    "standard_conjugation",
    "conjugation_matrix",
    "check_involution",
    "check_isometry",
    "check_matrix_c_symmetry",
]


class ConstraintViolation(ValueError):
    """Raised when parameters break an admissibility constraint.

    ``field`` names the parameter, "a", "b" or "c", whose constraint failed.
    """

    def __init__(self, message: str, field: str):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class ConjugationParams:
    """Admissible triple (a, b, c); ``validate`` checks the constraints."""

    a: complex
    b: complex
    c: complex

    def validate(self, tol: float = 1e-12) -> "ConjugationParams":
        dev_a = abs(abs(self.a) - 1.0)
        if dev_a > tol:
            raise ConstraintViolation(
                f"|a| must equal 1: |a| = {abs(self.a)!r} (deviation {dev_a:.3e})", "a"
            )
        dev_b = abs(np.conj(self.a) * self.b + np.conj(self.b))
        if dev_b > tol:
            raise ConstraintViolation(
                f"conj(a)*b + conj(b) must vanish: deviation {dev_b:.3e}", "b"
            )
        dev_c = abs(abs(self.c) ** 2 * np.exp(abs(self.b) ** 2) - 1.0)
        if dev_c > tol:
            raise ConstraintViolation(
                f"|c|^2 exp(|b|^2) must equal 1: deviation {dev_c:.3e}", "c"
            )
        return self

    @property
    def is_diagonal(self) -> bool:
        return self.b == 0

    def to_wco_params(self) -> WCOParams:
        return WCOParams(A=self.a, B=self.b, C=self.c, D=self.b)

    def to_json(self) -> dict:
        return {k: complex_to_json(getattr(self, k)) for k in "abc"}


def standard_conjugation() -> ConjugationParams:
    """The plain coefficientwise conjugation, (a, b, c) = (1, 0, 1)."""
    return ConjugationParams(1.0, 0.0, 1.0)


@dataclass(frozen=True)
class AntilinearOperator:
    """Antilinear map f -> M conj(f) on normalized coefficients."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, f: FockVector) -> FockVector:
        if f.dim != self.dim:
            raise ValueError(f"dimension mismatch: {f.dim} vs {self.dim}")
        return FockVector(self.matrix @ np.conj(f.coeffs))


def conjugation_matrix(p: ConjugationParams, dim: int, tol: float = 1e-12) -> AntilinearOperator:
    """Truncated realization of the conjugation; validates (a, b, c) first."""
    p.validate(tol)
    return AntilinearOperator(wco_matrix(p.to_wco_params(), dim))


def check_involution(op: AntilinearOperator, max_degree: int) -> np.ndarray:
    """Residuals ||(M conj(M) - I) e_k|| for k = 0..max_degree.

    The square of the antilinear operator is the linear map M conj(M); exact
    identity requires b = 0, otherwise the residual decays with truncation.
    """
    if not 0 <= max_degree < op.dim:
        raise ValueError("max_degree outside truncation")
    P = op.matrix @ np.conj(op.matrix) - np.eye(op.dim)
    return np.linalg.norm(P[:, : max_degree + 1], axis=0)


def check_isometry(op: AntilinearOperator, f: FockVector, g: FockVector) -> float:
    """|<Cf, Cg> - <g, f>| for the antilinear isometry law."""
    lhs = inner_product(op.apply(f), op.apply(g))
    rhs = inner_product(g, f)
    return abs(lhs - rhs)


def check_matrix_c_symmetry(T: np.ndarray, M: np.ndarray) -> float:
    """Max-abs entry of T M - M T^T; zero iff T = C T* C for C = M conj.

    The one C-symmetry residual: generators, coefficient matrices B(s) and
    propagators U(t, s) are all judged by it.
    """
    T = np.asarray(T, dtype=complex)
    M = np.asarray(M, dtype=complex)
    if T.shape != M.shape:
        raise ValueError(f"shape mismatch: {T.shape} vs {M.shape}")
    return float(np.max(np.abs(T @ M - M @ T.T)))
