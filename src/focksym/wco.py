"""Weighted composition operators with affine symbol and exponential weight.

An operator here sends f to psi * (f o phi) with phi(z) = A z + B and
psi(z) = C exp(D z).  On normalized coefficients its truncated matrix has the
closed-form entries

    M[n, k] = C * sqrt(n!/k!) * sum_{j=0}^{min(n,k)}
              binom(k, j) A^j B^(k-j) D^(n-j) / (n-j)!

which this module evaluates column-by-column (the inner sum is a convolution
of the binomial expansion of (Az+B)^k with the Taylor series of exp(Dz)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fock import FockVector, exp_series, sqrt_factorial
from .serialize import complex_from_json, complex_to_json

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

    @staticmethod
    def from_json(obj: dict) -> "WCOParams":
        return WCOParams(*(complex_from_json(obj[k]) for k in "ABCD"))


def _affine_power_coeffs(A: complex, B: complex, k: int) -> np.ndarray:
    """Monomial coefficients of (A z + B)^k, indexed by the power of z."""
    out = np.empty(k + 1, dtype=complex)
    for j in range(k + 1):
        out[j] = math.comb(k, j) * (A**j) * (B ** (k - j))
    return out


def _logspace_entry(p: WCOParams, n: int, k: int) -> complex:
    """Entry via per-term log magnitudes; fallback when floats overflow."""
    total = 0.0 + 0.0j
    for j in range(min(n, k) + 1):
        mag = (
            math.lgamma(k + 1)
            - math.lgamma(j + 1)
            - math.lgamma(k - j + 1)
            + 0.5 * (math.lgamma(n + 1) - math.lgamma(k + 1))
            - math.lgamma(n - j + 1)
        )
        phase = 1.0 + 0.0j
        for base, power in ((p.A, j), (p.B, k - j), (p.D, n - j)):
            if power == 0:
                continue
            if base == 0:
                phase = 0.0
                break
            mag += power * math.log(abs(base))
            phase *= (base / abs(base)) ** power
        if phase != 0:
            total += phase * np.exp(mag)
    return p.C * total


def wco_matrix(p: WCOParams, dim: int) -> np.ndarray:
    """Truncated matrix on normalized coefficients, shape (dim, dim)."""
    if dim < 1:
        raise ValueError("dim must be positive")
    expo = exp_series(p.D, dim)
    M = np.zeros((dim, dim), dtype=complex)
    sq = sqrt_factorial(np.arange(dim))
    for k in range(dim):
        poly = _affine_power_coeffs(p.A, p.B, k)
        col = np.zeros(dim, dtype=complex)
        for j in range(min(k, dim - 1) + 1):
            if poly[j] != 0:
                col[j:] += poly[j] * expo[: dim - j]
        M[:, k] = p.C * (sq / sq[k]) * col
    if not np.all(np.isfinite(M)):
        bad = np.argwhere(~np.isfinite(M))
        for n, k in bad:
            M[n, k] = _logspace_entry(p, int(n), int(k))
    return M


def apply_wco(p: WCOParams, f: FockVector) -> FockVector:
    """Apply the operator to a truncated vector by direct symbol composition.

    Builds the monomial coefficients of psi * (f o phi) with a Horner scheme,
    avoiding the full matrix; exact (up to rounding) for polynomial input.
    """
    mono = f.to_monomial().coeffs
    dim = f.dim
    # Horner over composed argument: g <- g*(Az+B) + c_k, in coefficient space
    g = np.zeros(dim, dtype=complex)
    for c in mono[::-1]:
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
    return FockVector(p.C * out, "monomial").to_normalized()


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
