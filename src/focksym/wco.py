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
at dim 64 (see ``scripts/sweeps.py entries``); where ``longdouble`` is a
double, the extra precision is lost.

A symbol with B = D = 0 and finite A and C is the diagonal operator C R_A,
M[k, k] = C A^k, with one nonzero entry per column.  Its matrix skips the
recurrence: the diagonal is one ``np.clongdouble`` running product of C,
A sqrt(1), 1/sqrt(1), A sqrt(2), 1/sqrt(2), ... written into zeros.  With
B = 0 each entry of the recurrence has one nonzero term, and numpy divides by
sqrt(k) + 0j by multiplying both parts by fl(1/sqrt(k)), so each diagonal
entry is the recurrence's long-double product rounded once: the entries are
equal, and a zero entry may differ only in its sign.  A full build costs
0.023 against 0.39 ms at dim 64 and 0.71 against 38.6 ms at dim 768
(``BENCH_diagonal.json``).

A stack of symbols is one ``WCOParams`` whose fields are 1-D arrays, one
entry per member; a scalar field is shared by every member.
``wco_matrices`` builds a stack of matrices, one per member, through the same
recurrence run once for the whole stack: the symbol axis is last and each
column step is one numpy operation for every member, so a sweep over a
family's times pays numpy's per-call cost once per stack, which is most of a
small build's cost, instead of once per matrix.  ``wco_matrix`` is a stack of
one, so each member of a stack equals its own single build bit for bit.  A
stack of diagonal symbols takes one running product for all of them; a stack
that mixes both kinds runs the recurrence for all its members and then
rebuilds each diagonal member in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fock import exp_series, sqrt_factorial
from .serialize import complex_to_json

__all__ = [
    "WCOParams",
    "BoundednessResult",
    "wco_matrix",
    "wco_matrices",
    "apply_wco",
    "compose_params",
    "is_bounded",
    "is_c_selfadjoint_symbols",
]


@dataclass(frozen=True)
class WCOParams:
    """Symbol data (A, B, C, D) for psi(z) = C exp(Dz), phi(z) = A z + B.

    The fields may be 1-D arrays of equal length: the data is then a stack of
    symbols, one per entry, and a scalar field is shared by every member
    (see :func:`wco_matrices`).  ``to_json`` and the other functions of
    this module take one symbol, with scalar fields.
    """

    A: complex | np.ndarray
    B: complex | np.ndarray
    C: complex | np.ndarray
    D: complex | np.ndarray

    def to_json(self) -> dict:
        return {k: complex_to_json(getattr(self, k)) for k in "ABCD"}


def _columns(A, B, C, D, out: np.ndarray) -> None:
    """Write the leading columns of the symbols' matrices into out, (S, dim, m).

    A..D are the (S,) ``np.clongdouble`` fields of the stack.  A symbol with B = D = 0 and finite A and C is the diagonal operator C R_A
    and takes :func:`_diagonal`; every other symbol takes :func:`_recurrence`.
    A stack that mixes the two runs the recurrence for all its members, then
    rebuilds each diagonal member in place, so each member's columns are
    those it gets alone and no member is copied.  The two routes give equal
    entries: they differ at most in the sign of a zero.
    """
    diagonal = (B == 0) & (D == 0) & np.isfinite(A) & np.isfinite(C)
    if diagonal.all():
        _diagonal(A, C, out)
        return
    _recurrence(A, B, C, D, out)
    if diagonal.any():  # a mixed stack
        for i in np.flatnonzero(diagonal):
            _diagonal(A[i:i + 1], C[i:i + 1], out[i:i + 1])


def _recurrence(A, B, C, D, out: np.ndarray) -> None:
    """The column recurrence, for any symbols; arguments as in :func:`_columns`.

    The symbol axis is last, so the running product along n and each column
    step are one operation for all S; every operation is elementwise or a
    product along n, so each symbol's columns are those it gets alone, bit
    for bit.  Each column is rounded to complex128 as it is written.
    """
    dim, m = out.shape[-2:]
    cols = out.T  # cols[k] is column k, (dim, S)
    root = np.sqrt(np.arange(dim, dtype=np.longdouble))[:, None]
    # entries past the double range come back inf (or nan past longdouble's)
    with np.errstate(over="ignore", invalid="ignore"):
        # column 0: C D^n / sqrt(n!), a running product of D / sqrt(n)
        col = np.empty((dim, len(A)), dtype=np.clongdouble)
        col[0] = C
        col[1:] = D / root[1:]
        col = np.cumprod(col, axis=0)
        cols[0] = col
        a_root = A * root[1:]
        for k in range(1, m):
            # W e_k = (A Z + B) W e_{k-1} / sqrt(k), with (Z c)[n] = sqrt(n) c[n-1]
            nxt = B * col
            nxt[1:] += a_root * col[:-1]
            col = nxt / root[k]
            cols[k] = col


def _diagonal(A, C, out: np.ndarray) -> None:
    """The matrices of symbols (A, 0, C, 0), with A and C finite: M[k, k] = C A^k.

    With B = D = 0 the recurrence's entry k of column k is (A sqrt(k)
    M[k-1, k-1]) / sqrt(k) and every other entry is zero.  numpy divides by
    sqrt(k) + 0j by multiplying both parts by fl(1 / sqrt(k)), so the diagonal
    is one running product, in ``np.clongdouble``, of C, A sqrt(1),
    1 / sqrt(1), A sqrt(2), 1 / sqrt(2), ..., each entry the recurrence's
    long-double value rounded once to complex128.  Arguments as in
    :func:`_columns`.
    """
    m = out.shape[-1]
    root = np.sqrt(np.arange(1, m, dtype=np.longdouble))[:, None]
    factors = np.empty((2 * m - 1, len(A)), dtype=np.clongdouble)
    factors[0] = C
    factors[1::2] = A * root
    factors[2::2] = 1 / root
    k = np.arange(m)
    # entries past the double range come back inf (or nan past longdouble's)
    with np.errstate(over="ignore", invalid="ignore"):
        out[...] = 0
        out[..., k, k] = np.cumprod(factors, axis=0)[::2].T


def _leading(dim: int, ncols: int | None) -> int:
    if dim < 1:
        raise ValueError("dim must be positive")
    m = dim if ncols is None else ncols
    if not 1 <= m <= dim:
        raise ValueError("ncols must lie in 1..dim")
    return m


def wco_matrix(p: WCOParams, dim: int, ncols: int | None = None) -> np.ndarray:
    """Truncated matrix on normalized coefficients, shape (dim, ncols).

    ``ncols`` keeps only the leading columns (default: all ``dim``); each kept
    column equals the same column of the full matrix bit for bit, so a vector
    supported on its first m coefficients needs only ``ncols=m`` to be applied.
    The matrix is the stack of one of :func:`wco_matrices`.
    """
    (out,) = wco_matrices(p, dim, ncols)
    return out


def wco_matrices(symbols: WCOParams, dim: int, ncols: int | None = None) -> np.ndarray:
    """The matrices of a stack of symbols, shape (S, dim, ncols).

    ``symbols`` holds S members as 1-D fields of length S, a scalar field
    shared by all (all scalars: S = 1); they are cast to ``np.clongdouble``
    together.  A stack of symbols with B = D = 0 and finite A and C takes one
    running product for all of them, whose entries equal the recurrence's but
    for the signs of zeros.  Any other stack runs through the column
    recurrence together, so its working memory beside the result is a few
    extended-precision columns for each symbol, and then rebuilds its
    diagonal members in place.
    """
    m = _leading(dim, ncols)
    fields = np.broadcast_arrays(symbols.A, symbols.B, symbols.C, symbols.D)
    stack = np.array(fields, dtype=np.clongdouble).reshape(4, -1)
    out = np.empty((stack.shape[1], dim, m), dtype=complex)
    _columns(*stack, out)
    return out


def apply_wco(p: WCOParams, f: np.ndarray) -> np.ndarray:
    """Apply the operator to a truncated vector by direct symbol composition.

    Builds the Taylor coefficients of psi * (f o phi) with a Horner scheme,
    avoiding the full matrix; exact (up to rounding) for polynomial input.
    """
    dim = f.size
    scale = np.array([sqrt_factorial(k) for k in range(dim)])
    taylor = f / scale
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
    return p.C * out * scale


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


# distance from |A| = 1, and from D + A conj(B) = 0, read as equality
_BOUNDEDNESS_TOL = 1e-12


class BoundednessResult(NamedTuple):
    bounded: bool
    reason: str


def is_bounded(p: WCOParams) -> BoundednessResult:
    """Boundedness test: |A| < 1, or |A| = 1 with D + A conj(B) = 0."""
    tol = _BOUNDEDNESS_TOL
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


def is_c_selfadjoint_symbols(p: WCOParams, a: complex, b: complex) -> float:
    """|D - (a B - b A + b)|, the deviation from the symbol relation for conjugation (a, b).

    C-selfadjointness also requires the operator to carry its maximal domain,
    which no finite computation decides; only this algebraic relation is measured.
    """
    return float(abs(p.D - (a * p.B - b * p.A + b)))
