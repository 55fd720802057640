"""Weighted composition operators with affine symbol and exponential weight.

An operator here sends f to psi * (f o phi) with phi(z) = A z + B and
psi(z) = C exp(D z).  On normalized coefficients, e_k = z^k / sqrt(k!), it
satisfies W(z f) = (A z + B) W f, and z e_k = sqrt(k+1) e_{k+1}, so

    W e_0 = C exp(D z):        M[n, 0]   = C D^n / sqrt(n!)
    W e_{k+1} = (A Z + B) W e_k / sqrt(k+1):
                               M[n, k+1] = (A sqrt(n) M[n-1, k] + B M[n, k]) / sqrt(k+1)

where Z, multiplication by z, is the subdiagonal sqrt(n).  ``wco_matrix``
builds the columns in this order.  Row n of a column reads only rows n-1 and n
of the one before, so a truncated matrix is exact up to rounding: no tail
beyond ``dim`` enters it.  The columns accumulate in ``np.clongdouble`` and
are rounded once to complex128.  Where ``longdouble`` carries a 64-bit
mantissa (x86-64), the largest entry error of the offset conjugation's symbol
(1, i, e^{-1/2}, i) against a 30-digit oracle is 5e-15 of the largest entry
at dim 64 (see ``scripts/assembly_accuracy.py``); where ``longdouble`` is a
double, the extra precision is lost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fock import FockVector, exp_series, sqrt_factorial
from .serialize import complex_to_json

__all__ = [
    "WCOParams",
    "BoundednessResult",
    "SymbolMatchResult",
    "wco_matrix",
    "apply_wco",
    "compose_params",
    "is_bounded",
    "is_c_selfadjoint_symbols",
]


@dataclass(frozen=True)
class WCOParams:
    """Symbol data (A, B, C, D) for psi(z) = C exp(Dz), phi(z) = A z + B."""

    A: complex
    B: complex
    C: complex
    D: complex

    def to_json(self) -> dict:
        return {k: complex_to_json(getattr(self, k)) for k in "ABCD"}


def wco_matrix(p: WCOParams, dim: int, ncols: int | None = None) -> np.ndarray:
    """Truncated matrix on normalized coefficients, shape (dim, ncols).

    ``ncols`` keeps only the leading columns (default: all ``dim``); each kept
    column equals the same column of the full matrix bit for bit, so a vector
    supported on its first m coefficients needs only ``ncols=m`` to be applied.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    m = dim if ncols is None else ncols
    if not 1 <= m <= dim:
        raise ValueError("ncols must lie in 1..dim")
    A, B, C, D = (np.clongdouble(complex(v)) for v in (p.A, p.B, p.C, p.D))
    root = np.sqrt(np.arange(dim, dtype=np.longdouble))
    # entries past the double range come back inf (or nan past longdouble's)
    with np.errstate(over="ignore", invalid="ignore"):
        # column 0: C D^n / sqrt(n!), a running product of D / sqrt(n)
        col = np.empty(dim, dtype=np.clongdouble)
        col[0] = C
        col[1:] = D / root[1:]
        col = np.cumprod(col)
        cols = np.empty((m, dim), dtype=np.clongdouble)
        cols[0] = col
        a_root = A * root[1:]
        for k in range(1, m):
            # W e_k = (A Z + B) W e_{k-1} / sqrt(k), with (Z c)[n] = sqrt(n) c[n-1]
            nxt = B * col
            nxt[1:] += a_root * col[:-1]
            col = nxt / root[k]
            cols[k] = col
        return cols.T.astype(complex, order="C")


def apply_wco(p: WCOParams, f: FockVector) -> FockVector:
    """Apply the operator to a truncated vector by direct symbol composition.

    Builds the Taylor coefficients of psi * (f o phi) with a Horner scheme,
    avoiding the full matrix; exact (up to rounding) for polynomial input.
    """
    dim = f.dim
    scale = np.array([sqrt_factorial(k) for k in range(dim)])
    taylor = f.coeffs / scale
    # Horner over composed argument: g <- g*(Az+B) + c_k, in coefficient space
    g = np.zeros(dim, dtype=complex)
    for c in taylor[::-1]:
        shifted = np.zeros(dim, dtype=complex)
        shifted[1:] = p.A * g[:-1]
        shifted += p.B * g
        g = shifted
        g[0] += c
    expo = exp_series(p.D, dim)
    out = np.zeros(dim, dtype=complex)
    for j in range(dim):
        if g[j] != 0:
            out[j:] += g[j] * expo[: dim - j]
    return FockVector(p.C * out * scale)


def compose_params(outer: WCOParams, inner: WCOParams) -> WCOParams:
    """Parameters of W_outer W_inner (inner applied first).

    psi(z) = C_o C_i exp(D_i B_o) exp((D_o + A_o D_i) z),
    phi(z) = A_i A_o z + (A_i B_o + B_i).
    """
    return WCOParams(
        A=inner.A * outer.A,
        B=inner.A * outer.B + inner.B,
        C=inner.C * outer.C * np.exp(inner.D * outer.B),
        D=outer.D + outer.A * inner.D,
    )


class BoundednessResult(NamedTuple):
    bounded: bool
    reason: str


def is_bounded(p: WCOParams, tol: float = 1e-12) -> BoundednessResult:
    """Boundedness test: |A| < 1, or |A| = 1 with D + A conj(B) = 0."""
    absA = abs(p.A)
    if absA < 1 - tol:
        return BoundednessResult(True, f"|A| = {absA:.6g} < 1")
    defect = p.D + p.A * np.conj(p.B)
    if abs(absA - 1) <= tol:
        if abs(defect) <= tol:
            return BoundednessResult(True, "|A| = 1 and D + A*conj(B) = 0")
        return BoundednessResult(
            False, f"|A| = 1 but |D + A*conj(B)| = {abs(defect):.6g} > 0"
        )
    return BoundednessResult(False, f"|A| = {absA:.6g} > 1")


class SymbolMatchResult(NamedTuple):
    """Outcome of the symbol-level self-adjointness test.

    ``maximal_domain_verified`` is always False: the full property also
    requires the operator to carry its maximal domain, which no finite
    computation decides; only the algebraic symbol relation is checked.
    """

    symbols_match: bool
    deviation: float
    maximal_domain_verified: bool = False


def is_c_selfadjoint_symbols(
    p: WCOParams, a: complex, b: complex, tol: float = 1e-12
) -> SymbolMatchResult:
    """Check the symbol relation D = a B - b A + b for conjugation data (a, b)."""
    dev = abs(p.D - (a * p.B - b * p.A + b))
    return SymbolMatchResult(dev <= tol, float(dev))
