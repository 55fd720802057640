"""Infinitesimal generators of the operator families and spectral checks.

Both generators are affine in z and d/dz, B f = a z f' + b f' + (c + d z) f,
with (a, b, c, d) the family's ``generator_symbol`` (see
:mod:`focksym.semigroup`).  On normalized coefficients, z e_k = sqrt(k+1)
e_{k+1} and f' sends e_{k+1} to sqrt(k+1) e_k, so the truncation Q is
tridiagonal:

    Q[k, k] = c + a k,   Q[k, k+1] = b sqrt(k+1),   Q[k+1, k] = d sqrt(k+1)

:func:`_generator_diagonals` derives Q's three diagonals from the symbol;
:func:`generator_matrix` places them in a dense complex array, and the
eigenfunction residuals and :func:`generator_exponential_columns` act with
them alone.  That function returns exp(t Q) on the leading columns for a few
increasing times as the action of the exponential (Al-Mohy and Higham,
2011): a chain of truncated Taylor series through the diagonals, with no
BLAS call, so its result does not depend on the BLAS threads.  A stiff
family, whose series would need more than ``ACTION_PRODUCTS_PER_DIM_SQUARED``
times dim^2 tridiagonal products, takes the leading columns of the dense
Pade-13 :func:`matrix_exponential` instead.

The translation generator has empty point spectrum (certified here through
the divergence of the candidate eigenfunction's partial norms, by a
doubling-ratio test or by Gauss's test on the paired terms); the dilation
generator carries the lattice H - ell beta G + k ell with explicit
eigenfunctions (z - G)^k exp(beta z).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .fock import sqrt_factorial
from .semigroup import (
    DilationFamily,
    SemigroupFamily,
    TranslationFamily,
    semigroup_matrix,
)
from .serialize import complex_to_json
from .wco import WCOParams, wco_matrices, wco_matrix

__all__ = [
    "EmptyPointSpectrum",
    "DivergenceCertificate",
    "RAABE_LIMIT",
    "SpectrumReport",
    "generator_matrix",
    "generator_fd_fits",
    "check_generator_fd",
    "point_spectrum_predicted",
    "eigenfunction_coeffs",
    "eigen_residuals",
    "candidate_log_terms",
    "certify_divergence",
    "check_empty_point_spectrum",
    "dissipativity_margin",
    "resolvent_bound_check",
    "matrix_exponential",
    "generator_exponential_columns",
    "spectrum_report",
    "check_stone_adjoint_relation",
    "FD_STEPS",
]

# steps h of the difference-quotient slope fits
FD_STEPS: tuple[float, ...] = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
_FD_SCHEMES = ("forward", "central")


Diagonals = tuple[np.ndarray, np.ndarray, np.ndarray]  # Q's diagonal, lower, upper


def _generator_diagonals(fam: SemigroupFamily, dim: int) -> Diagonals:
    """The three diagonals of the dim x dim truncation Q, from the family's
    affine symbol: (c + a k, d sqrt(k+1), b sqrt(k+1))."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    a, b, c, d = fam.generator_symbol
    roots = np.sqrt(np.arange(1.0, dim))
    return c + a * np.arange(dim, dtype=complex), d * roots, b * roots


def generator_matrix(fam: SemigroupFamily, dim: int) -> np.ndarray:
    """The dim x dim truncation Q of the family's generator, as a dense array."""
    diag, lower, upper = _generator_diagonals(fam, dim)
    return np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)


def generator_fd_fits(fam: SemigroupFamily, degrees: Sequence[int],
                      dim: int) -> dict[tuple[str, int], tuple[float, np.ndarray]]:
    """(slope of log-error vs log-h, errors) for h in FD_STEPS, by (scheme, k).

    forward: ||(W(h) z^k - z^k)/h - Q z^k||, expected slope ~ 1.
    central: ||(W(h) z^k - W(-h) z^k)/(2h) - Q z^k||, expected slope ~ 2
    (the family formulas extend analytically to negative times).  z^k is
    sqrt(k!) e_k: W(h) and W(-h) are built once for every h, as one stack
    with m = max(degrees) + 1 columns, scaled, and each scheme's quotient is
    formed as one block.
    """
    m = max(degrees) + 1
    scale = np.array([sqrt_factorial(k) for k in range(m)])
    Z = np.eye(dim, m) * scale  # z^k, k < m
    target = generator_matrix(fam, dim)[:, :m] * scale
    errs = np.empty((2, len(FD_STEPS), m))
    steps = wco_matrices([fam.symbols(sign * h) for h in FD_STEPS for sign in (1, -1)],
                         dim, m)
    for i, (h, fwd, bwd) in enumerate(zip(FD_STEPS, steps[0::2] * scale, steps[1::2] * scale)):
        for q, quotient in enumerate(((fwd - Z) / h, (fwd - bwd) / (2 * h))):
            errs[q, i] = np.linalg.norm(quotient - target, axis=0)
    log_h = np.log(np.asarray(FD_STEPS))
    return {(scheme, k): (float(np.polyfit(log_h, np.log(errs[q, :, k]), 1)[0]), errs[q, :, k])
            for k in degrees for q, scheme in enumerate(_FD_SCHEMES)}


def check_generator_fd(fam: SemigroupFamily, k: int, dim: int,
                       scheme: str = "forward") -> tuple[float, np.ndarray]:
    """One scheme's fit on z^k, as in :func:`generator_fd_fits`."""
    if scheme not in _FD_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    return generator_fd_fits(fam, (k,), dim)[scheme, k]


class EmptyPointSpectrum(ValueError):
    """The requested point spectrum is empty; no eigenvalues exist."""


def point_spectrum_predicted(fam: SemigroupFamily, k_max: int) -> np.ndarray:
    """Eigenvalue lattice for the dilation generator; error for translation."""
    if isinstance(fam, TranslationFamily):
        raise EmptyPointSpectrum(
            "the translation generator has no eigenvalues; "
            "see check_empty_point_spectrum for the divergence certificate"
        )
    beta = fam.beta
    base = fam.H - fam.ell * beta * fam.G
    return base + fam.ell * np.arange(k_max + 1, dtype=complex)


def eigenfunction_coeffs(degrees: Sequence[int], G: complex, beta: complex,
                         dim: int) -> np.ndarray:
    """Truncated (z - G)^m exp(beta z), the dilation eigenfunctions: one column per m.

    The operator with symbol (1, -G, 1, beta) sends z^m = sqrt(m!) e_m to this
    function, so a column is sqrt(m!) times column m of its ``wco_matrix``,
    built once with max(degrees) + 1 columns.  Row n of a column reads only
    rows n-1 and n of the one before, so a larger dim extends the vectors and
    keeps their leading coefficients bit for bit.
    """
    degrees = list(degrees)
    if not 0 <= min(degrees) <= max(degrees) < dim:
        raise ValueError(f"need 0 <= m < dim, got m in {degrees}, dim = {dim}")
    cols = wco_matrix(WCOParams(1.0, -G, 1.0, beta), dim, max(degrees) + 1)
    return cols[:, degrees] * np.array([sqrt_factorial(m) for m in degrees])


def _tridiagonal_product(diagonals: Diagonals, X: np.ndarray) -> np.ndarray:
    """Q X for the tridiagonal Q whose diagonal, lower and upper diagonal are
    these (n, 1), (n-1, 1) and (n-1, 1) columns, summed per entry as
    diagonal, lower, upper term."""
    diag, lower, upper = diagonals
    out = diag * X
    out[1:] += lower * X[:-1]
    out[:-1] += upper * X[1:]
    return out


def eigen_residuals(fam: DilationFamily, degrees: Sequence[int],
                    dims: Sequence[int]) -> np.ndarray:
    """Relative residuals ||(Q - lambda_m) f_m|| / ||f_m||: one row per dim, one column per m.

    The eigenfunctions of :func:`eigenfunction_coeffs` and the generator's
    diagonals are built once, at the largest dim; a smaller dim reads their
    leading entries, which are its own bit for bit, so each residual is
    non-increasing in dim by construction.
    """
    degrees = list(degrees)
    if not 0 <= min(degrees) <= max(degrees) < min(dims):
        raise ValueError(f"need 0 <= m < dim, got m in {degrees}, dims {tuple(dims)}")
    lam = point_spectrum_predicted(fam, max(degrees))[degrees]
    top = max(dims)
    F = eigenfunction_coeffs(degrees, fam.G, fam.beta, top)
    diag, lower, upper = (v[:, None] for v in _generator_diagonals(fam, top))
    out = np.empty((len(dims), len(degrees)))
    for i, d in enumerate(dims):
        resid = _tridiagonal_product((diag[:d], lower[:d - 1], upper[:d - 1]), F[:d]) - lam * F[:d]
        # 1-D norms, so that a column reads as the vector alone would
        out[i] = [np.linalg.norm(r) / np.linalg.norm(f) for r, f in zip(resid.T, F[:d].T)]
    return out


# Raabe's dividing line: paired terms p_m with m (p_m / p_{m+1} - 1) <= 1 for
# all large m are not summable (comparison with the harmonic series).
RAABE_LIMIT = 1.0


@dataclass(frozen=True)
class DivergenceCertificate:
    """Evidence that the terms t_k = |f_k|^2 k! of a candidate are not summable.

    Two branches can fire.  ``doubling``: S_{2N} / S_N >= threshold for every
    N, the signature of super-polynomial growth.  ``gauss``: the Raabe
    statistic R_m = m (p_m / p_{m+1} - 1) of the paired terms
    p_m = t_{2m} + t_{2m+1} stays below 1 and has settled (Gauss's test),
    which attests divergence when the terms decay only polynomially.
    ``branch`` names the branch that fired ("none" when neither did).
    """

    eta: complex | None
    n_values: tuple[int, ...]
    partial_norms: dict[int, float]
    ratios: dict[int, float]  # N -> S_{2N} / S_N
    certified: bool
    threshold: float
    raabe_maxima: dict[int, float]  # N -> max R_m over pairs inside terms [N, 2N)
    raabe_bound: float  # upper bound on R_m over the windows and in the limit
    branch: str

    def verdict(self) -> tuple[float, float, str]:
        """(measured, threshold, direction) of the branch that fired.

        When neither fires, the doubling branch is the one reported.
        """
        if self.branch == "gauss":
            return self.raabe_bound, RAABE_LIMIT, "<="
        return min(self.ratios.values()), self.threshold, ">="

    def summary(self) -> str:
        return (f"{self.branch} branch; partial-norm ratios {self.ratios}; "
                f"Raabe window maxima {self.raabe_maxima}")

    def to_json(self) -> dict:
        return {
            "eta": None if self.eta is None else complex_to_json(self.eta),
            "n_values": list(self.n_values),
            "partial_norms": {str(k): v for k, v in self.partial_norms.items()},
            "ratios": {str(k): v for k, v in self.ratios.items()},
            "certified": self.certified,
            "threshold": self.threshold,
            "raabe_maxima": {str(k): v for k, v in self.raabe_maxima.items()},
            "raabe_bound": self.raabe_bound,
            "branch": self.branch,
        }


def _raabe_bound(maxima: Sequence[float]) -> float:
    """Upper bound on R_m from its window maxima, or inf if not settled.

    Settled means the change between successive windows shrinks strictly,
    which takes at least three windows (Gauss's hypothesis
    R_m = h + O(1/m) halves the change per doubling); the limit
    is then bounded by extrapolating the last change geometrically.
    """
    if len(maxima) < 3 or not all(math.isfinite(r) for r in maxima):
        return math.inf
    steps = [abs(b - a) for a, b in zip(maxima, maxima[1:])]
    if not all(later < earlier for earlier, later in zip(steps, steps[1:])):
        return math.inf
    q = steps[-1] / steps[-2]
    return max(max(maxima), maxima[-1] + steps[-1] * q / (1.0 - q))


def certify_divergence(
    log_terms: np.ndarray,
    n_sequence: Sequence[int],
    threshold: float = 10.0,
) -> DivergenceCertificate:
    """Divergence certificate from log t_k, k < len(log_terms).

    Needs ``2 max(n_sequence) + 2`` terms: partial norms run to 2N and the
    last Raabe window compares the pair ending at term 2N - 1 with the next.
    ``eta`` of the result is None; see check_empty_point_spectrum.
    """
    n_values = tuple(int(n) for n in n_sequence)
    if not n_values or any(n < 2 for n in n_values):
        raise ValueError("n_sequence entries must be >= 2")
    log_terms = np.asarray(log_terms, dtype=float)
    if log_terms.size < 2 * max(n_values) + 2:
        raise ValueError(f"need {2 * max(n_values) + 2} terms, got {log_terms.size}")
    log_S = np.logaddexp.accumulate(log_terms)
    pairs = np.logaddexp(log_terms[0:-1:2], log_terms[1::2])
    # a fast-diverging candidate's partial norms and ratios may leave the
    # double range and read inf, as may its Raabe statistics
    with np.errstate(over="ignore", invalid="ignore"):
        partial = {
            n: float(np.exp(log_S[n - 1]))
            for n in sorted(set(n_values) | {2 * n for n in n_values})
        }
        ratios = {n: float(np.exp(log_S[2 * n - 1] - log_S[n - 1])) for n in n_values}
        raabe = np.arange(pairs.size - 1) * np.expm1(pairs[:-1] - pairs[1:])
    windows = sorted(set(n_values))
    maxima = {n: float(np.max(raabe[(n + 1) // 2 : n])) for n in windows}
    bound = _raabe_bound([maxima[n] for n in windows])
    if all(r >= threshold for r in ratios.values()):
        branch = "doubling"
    elif bound < RAABE_LIMIT:
        branch = "gauss"
    else:
        branch = "none"
    return DivergenceCertificate(
        eta=None,
        n_values=n_values,
        partial_norms=partial,
        ratios=ratios,
        certified=branch != "none",
        threshold=threshold,
        raabe_maxima=maxima,
        raabe_bound=bound,
        branch=branch,
    )


def candidate_log_terms(fam: TranslationFamily, eta: complex, n_terms: int) -> np.ndarray:
    """log(|f_k|^2 k!) for k < n_terms, f the eigenfunction candidate at eta.

    The recurrence (k+1) f_{k+1} = alpha f_k + 2 gamma f_{k-1} is run on the
    normalized coefficients g_k = f_k sqrt(k!), i.e.
    g_{k+1} = alpha g_k / sqrt(k+1) + 2 gamma g_{k-1} sqrt(k / (k+1)),
    with the pair rescaled whenever it leaves [1e-150, 1e150] and the scale
    carried in log space, so no term overflows or underflows at any size.
    """
    alpha = (eta - fam.F) / fam.E
    two_gamma = -fam.conj.a
    log_terms = np.empty(n_terms)
    g_prev, g, log_scale = 0j, 1.0 + 0j, 0.0
    for k in range(n_terms):
        log_terms[k] = 2 * (math.log(abs(g)) + log_scale) if g != 0 else -math.inf
        g_prev, g = g, alpha * g / math.sqrt(k + 1) + two_gamma * g_prev * math.sqrt(k / (k + 1))
        big = max(abs(g), abs(g_prev))
        if big > 1e150 or 0 < big < 1e-150:
            g_prev, g, log_scale = g_prev / big, g / big, log_scale + math.log(big)
    return log_terms


def check_empty_point_spectrum(
    fam: TranslationFamily,
    eta: complex,
    n_sequence: Sequence[int],
    threshold: float = 10.0,
) -> DivergenceCertificate:
    """Divergence certificate for the candidate eigenfunction at value eta.

    Any eigenfunction would solve f' = (alpha + 2 gamma z) f with
    alpha = (eta - F)/E and gamma = -a/2, i.e. f = exp(alpha z - a z^2 / 2).
    The certificate fires when the terms t_k = |f_k|^2 k! are shown not to
    be summable (see DivergenceCertificate): either the partial norms
    S_N = sum_{k<N} t_k satisfy S_{2N} / S_N >= threshold for every N in
    ``n_sequence`` (e.g. eta = 1 + i), or Gauss's test holds on the paired
    terms.  The second branch covers the borderline eta = F, where
    f = exp(-a z^2 / 2) has t_{2m} = C(2m, m) / 4^m ~ 1 / sqrt(pi m), so
    S_N ~ sqrt(N) and the doubling ratio only tends to sqrt(2), while
    R_m = m / (2m + 1) < 1/2 exactly.
    """
    if not isinstance(fam, TranslationFamily):
        raise ValueError("the certificate applies to the translation family")
    n_top = 2 * max(int(n) for n in n_sequence) + 2
    cert = certify_divergence(candidate_log_terms(fam, eta, n_top), n_sequence, threshold)
    return replace(cert, eta=complex(eta))


def dissipativity_margin(M: np.ndarray) -> float:
    """Largest eigenvalue of the Hermitian part (M + M^H)/2."""
    M = np.asarray(M, dtype=complex)
    herm = (M + M.conj().T) / 2
    return float(np.linalg.eigvalsh(herm)[-1])


def resolvent_bound_check(S: np.ndarray, alphas: Sequence[float]) -> float:
    """min over alpha of sigma_min(alpha I - S) / alpha, I the identity of S's shape.

    The (N+1) x N section S = Q[:N+1, :N] of a tridiagonal generator is Q on
    polynomials of degree < N, so this is the exact lower bound of
    (alpha - Q) / alpha there, >= 1 for a dissipative Q and non-increasing in
    N (Colbrook, Roman and Hansen, PRL 122, 250201, 2019).
    """
    S = np.asarray(S, dtype=complex)
    if any(alpha <= 0 for alpha in alphas):
        raise ValueError("alphas must be positive")
    eye = np.eye(*S.shape)
    return min((float(np.linalg.norm(alpha * eye - S, -2)) / alpha for alpha in alphas),
               default=math.inf)


# Coefficients of the degree-13 diagonal Pade approximant to exp.
_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_THETA13 = 5.371920351148152


def matrix_exponential(M: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(t M) by scaling-and-squaring with the order-13 diagonal Pade form.

    Backward error is at the order-13 level (<~ 1e-13 relative) for norms up
    to ~1e3 after scaling.  Non-finite input raises ValueError, and a result
    that leaves the double range OverflowError (exp(800) would read inf,
    and exp(1e6) NaN, from complex products of inf); one that underflows
    (exp(-1e6)) is 0.
    exp(0) is I exactly, which the Pade solve of b_0 I by b_0 I misses by an ulp.
    """
    A = t * np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix_exponential needs a square matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("non-finite entries in matrix_exponential input")
    if not A.any():
        return np.eye(len(A), dtype=complex)
    norm1 = float(np.max(np.abs(A).sum(axis=0)))
    squarings = max(0, int(math.ceil(math.log2(norm1 / _THETA13))) if norm1 > _THETA13 else 0)
    if squarings > 64:
        raise OverflowError(f"||tM||_1 = {norm1:.3e} too large for a stable exponential")
    A = A / (2.0**squarings)
    b = _PADE13
    n = A.shape[0]
    eye = np.eye(n, dtype=complex)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    U = A @ (
        A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
        + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye
    )
    V = (
        A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
        + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye
    )
    R = np.linalg.solve(V - U, V + U)
    for _ in range(squarings):
        R = R @ R
    return _finite(R, f"exp(t M) with ||tM||_1 = {norm1:.3e}")


def _finite(X: np.ndarray, what: str) -> np.ndarray:
    """X, or OverflowError naming ``what`` if an entry is not finite."""
    if not np.all(np.isfinite(X)):
        raise OverflowError(f"{what} leaves the double range")
    return X


# Al-Mohy and Higham's theta_m (Computing the action of the matrix
# exponential, SIAM J. Sci. Comput. 33, 2011, tables A.3 and 3.1): for
# ||h A||_1 <= s theta_m, s steps of the degree-m Taylor polynomial of
# exp(h A / s) have backward error at most the unit roundoff.
_TAYLOR_DEGREES = np.array([*range(1, 31), 35, 40, 45, 50, 55])
_TAYLOR_THETA = np.array([
    2.29e-16, 2.58e-8, 1.39e-5, 3.40e-4, 2.40e-3, 9.07e-3, 2.38e-2, 5.00e-2,
    8.96e-2, 1.44e-1, 2.14e-1, 3.00e-1, 4.00e-1, 5.14e-1, 6.41e-1, 7.81e-1,
    9.31e-1, 1.09, 1.26, 1.44, 1.62, 1.82, 2.01, 2.22, 2.43, 2.64, 2.86, 3.08,
    3.31, 3.54, 4.7, 6.0, 7.2, 8.5, 9.9,
])
_UNIT_ROUNDOFF = 2.0**-53

# the most tridiagonal products per dim^2 that the Taylor route takes; past it
# the dense Pade route is cheaper.  The dense route costs about dim^3 and a
# product about dim, so their break-even grows like dim^2.  With one BLAS
# thread the suite's two fixtures broke even at 0.033 to 0.065 products per
# dim^2 from dim 48 to 128 over three runs, and higher at the other dims from
# 16 to 768; at 0.041 the generator kind's dilation fixture takes the Taylor
# route from dim 63 on (``scripts/layer_cost.py bridge``, BENCH_firstuse.json)
ACTION_PRODUCTS_PER_DIM_SQUARED = 0.041


def _inf_norm(X: np.ndarray) -> float:
    return np.abs(X).sum(axis=1).max()


def _exponential_plan(fam: SemigroupFamily, times: Sequence[float],
                      dim: int) -> tuple[complex, Diagonals, list[tuple[float, int, float]]]:
    """The shift mu, the diagonals of Q - mu as columns, and (h, m, s) for
    each step h of the chain 0 -> times[0] -> times[1] -> ..., s a float
    that is inf when h ||Q - mu||_1 is past the double range.

    mu is the mean diagonal entry.  A step's (m, s) has the fewest products
    m s with h ||Q - mu||_1 <= s theta_m, the 1-norm being the exact largest
    column sum of the three diagonals.
    """
    steps = [float(b) - float(a) for a, b in zip((0.0, *times), times)]
    if not steps or not all(h >= 0 for h in steps) or not math.isfinite(times[-1]):
        raise ValueError(f"need finite times 0 <= t_1 <= t_2 <= ..., got {tuple(times)}")
    diag, lower, upper = _generator_diagonals(fam, dim)
    mu = complex(np.mean(diag))
    col_sums = np.abs(diag - mu)
    col_sums[:-1] += np.abs(lower)
    col_sums[1:] += np.abs(upper)
    norm1 = col_sums.max()  # nan or inf for a non-finite symbol
    if not np.isfinite(norm1):
        raise ValueError("non-finite generator symbol")
    with np.errstate(over="ignore"):  # an infinite plan takes the dense route
        steps_per_degree = np.maximum(1, np.ceil(np.outer(np.multiply(steps, norm1),
                                                          1 / _TAYLOR_THETA)))
    best = np.argmin(steps_per_degree * _TAYLOR_DEGREES, axis=1)  # the first of equal costs
    plans = [(h, int(_TAYLOR_DEGREES[k]), float(row[k]))
             for h, k, row in zip(steps, best, steps_per_degree)]
    return mu, tuple(v[:, None] for v in (diag - mu, lower, upper)), plans


def generator_exponential_columns(fam: SemigroupFamily, times: Sequence[float], dim: int,
                                  m: int) -> np.ndarray:
    """exp(t Q)[:, :m] of the dim x dim truncation Q for each of the
    increasing ``times``, as one (len(times), dim, m) stack.

    The action of the exponential on the leading m columns (Al-Mohy and
    Higham, 2011): the chain steps from one time to the next, each step h
    taken as s steps of exp(h mu / s) times the degree-m Taylor series of
    exp(h (Q - mu) / s) (:func:`_exponential_plan`), summed through Q's three
    diagonals until two successive terms fall below the unit roundoff of the
    sum.  No BLAS call is made, so the result does not depend on the BLAS
    threads.

    When the plan's products (m s summed over the steps) exceed
    ``ACTION_PRODUCTS_PER_DIM_SQUARED`` times dim^2, as for a stiff dilation, the
    leading columns of :func:`matrix_exponential` are returned instead.
    ValueError on times that decrease or a non-finite symbol, OverflowError
    when a result leaves the double range.
    """
    mu, shifted, plans = _exponential_plan(fam, times, dim)
    if sum(degree * s for _, degree, s in plans) > ACTION_PRODUCTS_PER_DIM_SQUARED * dim**2:
        gen = generator_matrix(fam, dim)
        return np.stack([matrix_exponential(gen, t)[:, :m] for t in times])
    out = np.empty((len(plans), dim, m), dtype=complex)
    X = np.eye(dim, m, dtype=complex)
    for i, (h, degree, s) in enumerate(plans):
        eta = np.exp(h * mu / s)
        scaled = tuple(v * (h / s) for v in shifted)
        for _ in range(int(s)):
            term = X
            before = bound = _inf_norm(X)  # bound >= ||X||: most tests need no norm of X
            for j in range(1, degree + 1):
                term = _tridiagonal_product(scaled, term)
                term /= j
                size = _inf_norm(term)
                X += term
                bound += size
                if (before + size <= _UNIT_ROUNDOFF * bound
                        and before + size <= _UNIT_ROUNDOFF * _inf_norm(X)):
                    break
                before = size
            X = eta * X
        out[i] = _finite(X, f"exp({times[i]:g} Q)[:, :{m}]")
    return out


@dataclass(frozen=True)
class SpectrumReport:
    """Predicted lattice, explicit-eigenfunction residuals, truncated spectrum.

    Truncated eigenvalues are informational: for beta != 0 the truncation is
    strongly non-normal and its spectrum does not approximate the lattice, so
    residuals of the explicit eigenfunctions are the trustworthy evidence.
    They are computed when first read, since a CSV report never reads them.
    """

    predicted: np.ndarray
    residual_dims: tuple[int, ...]
    residuals: np.ndarray  # one row per residual dim; JSON holds the last
    family: DilationFamily
    dim: int

    @functools.cached_property
    def truncated_eigenvalues(self) -> np.ndarray:
        """The sorted eigenvalues of the dim x dim truncation."""
        return np.sort_complex(np.linalg.eigvals(generator_matrix(self.family, self.dim)))

    def to_json(self) -> dict:
        return {
            "predicted": [complex_to_json(z) for z in self.predicted],
            "residuals": [float(r) for r in self.residuals[-1]],
            "residual_dim": self.residual_dims[-1],
            "truncated_eigs": [complex_to_json(z) for z in self.truncated_eigenvalues],
            "dim": self.dim,
        }


def spectrum_report(fam: DilationFamily, k_max: int, dim: int,
                    residual_dims: Sequence[int]) -> SpectrumReport:
    """The lattice for k <= k_max, its eigenfunction residuals at residual_dims
    (see :func:`eigen_residuals`) and, when read, the eigenvalues of the
    dim x dim truncation."""
    residuals = eigen_residuals(fam, range(k_max + 1), residual_dims)
    return SpectrumReport(point_spectrum_predicted(fam, k_max), tuple(residual_dims), residuals,
                          fam, dim)


# step of the adjoint quotient and the highest monomial degree it is taken on
_STONE_STEP = 1e-6
_STONE_MAX_DEGREE = 8


def check_stone_adjoint_relation(fam: SemigroupFamily, dim: int) -> float:
    """Adjoint-generator difference quotient max_k ||((W(h)^H - I)/h - Q^H) e_k||.

    Taken over k <= 8 at h = 1e-6; an O(h) quantity when the adjoint family
    is differentiable at 0.  Only W(h) and Q are built, and only their
    leading rows read; the generator's C-symmetry is ``check_matrix_c_symmetry``.
    """
    n = min(_STONE_MAX_DEGREE + 1, dim)
    gen = generator_matrix(fam, dim)
    Wh = semigroup_matrix(fam, _STONE_STEP, dim)
    block = (Wh[:n].conj().T - np.eye(dim, n)) / _STONE_STEP - gen[:n].conj().T
    return float(np.max(np.linalg.norm(block, axis=0)))
