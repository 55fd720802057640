"""Weighted composition operators with affine symbol and exponential weight.

An operator here sends f to psi * (f o phi) with phi(z) = A z + B and
psi(z) = C exp(D z).  On normalized coefficients its truncated matrix has the
closed-form entries

    M[n, k] = C * sqrt(n!/k!) * sum_{j=0}^{min(n,k)}
              binom(k, j) A^j B^(k-j) D^(n-j) / (n-j)!

The inner sum is a convolution of the binomial expansion of (Az+B)^k with the
Taylor series of exp(Dz).  ``wco_matrix`` evaluates it in array form: one
table P[j, k] = binom(k, j) A^j B^(k-j) for all columns at once, then one 2-D
slice update per j that adds P[j, k] D^(n-j)/(n-j)! to every entry (n, k).
The updates run in ascending j, so each entry sums its terms in the same order
as a per-column loop would, and P's products are rounded as scalar products
are, so the matrix equals that loop's bit for bit.  The order matters: a
single matmul of the exp series against P reorders the sums and, for the
offset conjugation's symbol (1, i, e^{-1/2}, i), raises the largest entry
error against a 30-digit oracle by a factor of 2.4 at dim 64 and 2.8 at
dim 128 (see ``scripts/assembly_accuracy.py``).
"""

from __future__ import annotations

import functools
import math
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


@functools.lru_cache(maxsize=16)
def _binomials(size: int) -> np.ndarray:
    """Exact binomials binom(k, j) as floats, indexed [j, k], for j, k < size."""
    table = np.array([[float(math.comb(k, j)) for k in range(size)] for j in range(size)])
    table.setflags(write=False)
    return table


def _scalar_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise a * b, each part rounded as a scalar complex product is.

    numpy's vectorized complex multiply may fuse a multiply and an add, so its
    last bit can differ from the product of two Python or numpy scalars.
    """
    out = np.empty(a.shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
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
    expo = exp_series(p.D, dim)
    powA = np.array([p.A**j for j in range(m)], dtype=complex)
    powB = np.array([p.B**j for j in range(m)], dtype=complex)
    k_minus_j = np.arange(m) - np.arange(m)[:, None]
    # P[j, k] = binom(k, j) A^j B^(k-j) for j <= k, multiplied in that order
    P = np.triu(_scalar_product(_binomials(m) * powA[:, None],
                                powB[np.maximum(k_minus_j, 0)]))
    col = np.zeros((dim, m), dtype=complex)
    for j in range(m):
        # zero terms are skipped, as a per-column loop would, so 0 * inf adds no NaN
        cols = slice(j, m) if P[j, j:].all() else np.flatnonzero(P[j])
        col[j:, cols] += P[j, cols] * expo[: dim - j, None]
    sq = sqrt_factorial(np.arange(dim))
    M = p.C * (sq[:, None] / sq[None, :m]) * col
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
