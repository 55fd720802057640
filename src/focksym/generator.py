"""Infinitesimal generators of the operator families and spectral checks.

Both families have tridiagonal generators on normalized coefficients:

* translation (E, F):   (F + a E z) f + E f'
      diag = F,  lower(k+1,k) = a E sqrt(k+1),  upper(k,k+1) = E sqrt(k+1)

* dilation (ell, G, H), beta = a G + b:   (H - ell beta z) f + ell (z - G) f'
      diag(k) = H + ell k,
      lower(k+1,k) = -ell beta sqrt(k+1),
      upper(k,k+1) = -ell G sqrt(k+1)

The translation generator has empty point spectrum (certified here through the
divergence of the candidate eigenfunction's partial norms, by a doubling-ratio
test or by Gauss's test on the paired terms); the dilation
generator carries the lattice H - ell beta G + k ell with explicit
eigenfunctions (z - G)^k exp(beta z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .conjugation import check_matrix_c_symmetry, conjugation_matrix
from .fock import FockVector, monomial, sqrt_factorial
from .semigroup import (
    DilationFamily,
    SemigroupFamily,
    TranslationFamily,
    _eval_any_t,
    semigroup_matrix,
)
from .serialize import complex_to_json
from .wco import WCOParams, wco_matrix

__all__ = [
    "GeneratorMatrix",
    "EmptyPointSpectrum",
    "DivergenceCertificate",
    "RAABE_LIMIT",
    "SpectrumReport",
    "StoneCheck",
    "generator_matrix",
    "check_generator_fd",
    "point_spectrum_predicted",
    "eigenfunction_coeffs",
    "eigen_residual",
    "candidate_log_terms",
    "certify_divergence",
    "check_empty_point_spectrum",
    "dissipativity_margin",
    "resolvent_bound_check",
    "matrix_exponential",
    "spectrum_report",
    "check_stone_adjoint_relation",
    "FD_STEPS",
]

# steps h of the difference-quotient slope fits
FD_STEPS: tuple[float, ...] = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)


@dataclass(frozen=True)
class GeneratorMatrix:
    """Tridiagonal generator: diagonal plus first sub/super diagonals."""

    kind: str
    diag: np.ndarray
    lower: np.ndarray  # entry (k+1, k), length dim-1
    upper: np.ndarray  # entry (k, k+1), length dim-1

    @property
    def dim(self) -> int:
        return self.diag.size

    def dense(self) -> np.ndarray:
        return (
            np.diag(self.diag)
            + np.diag(self.lower, -1)
            + np.diag(self.upper, 1)
        ).astype(complex)

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        """Structured tridiagonal action; elementwise, order-stable in dim."""
        out = self.diag * coeffs
        out[1:] = out[1:] + self.lower * coeffs[:-1]
        out[:-1] = out[:-1] + self.upper * coeffs[1:]
        return out


def generator_matrix(fam: SemigroupFamily, dim: int) -> GeneratorMatrix:
    if dim < 2:
        raise ValueError("dim must be >= 2")
    roots = np.sqrt(np.arange(1.0, dim))
    a, b = fam.conj.a, fam.conj.b
    if isinstance(fam, TranslationFamily):
        return GeneratorMatrix(
            kind="translation",
            diag=np.full(dim, complex(fam.F)),
            lower=a * fam.E * roots,
            upper=fam.E * roots,
        )
    beta = fam.beta
    return GeneratorMatrix(
        kind="dilation",
        diag=fam.H + fam.ell * np.arange(dim, dtype=complex),
        lower=-fam.ell * beta * roots,
        upper=-fam.ell * fam.G * roots,
    )


def check_generator_fd(
    fam: SemigroupFamily,
    k: int,
    dim: int,
    scheme: str = "forward",
) -> tuple[float, np.ndarray]:
    """Slope of log-error vs log-h, h in FD_STEPS, for the difference quotient.

    forward: ||(W(h) e_k - e_k)/h - Q e_k||, expected slope ~ 1.
    central: ||(W(h) e_k - W(-h) e_k)/(2h) - Q e_k||, expected slope ~ 2
    (the family formulas extend analytically to negative times).
    """
    if scheme not in ("forward", "central"):
        raise ValueError(f"unknown scheme {scheme!r}")
    gen = generator_matrix(fam, dim)
    v = monomial(k, dim).coeffs
    m = k + 1  # z^k needs only the leading k + 1 columns of W(h)
    target = gen.apply(v)
    errs = np.empty(len(FD_STEPS))
    for i, h in enumerate(FD_STEPS):
        Wh = semigroup_matrix(fam, h, dim, m)
        if scheme == "forward":
            quotient = (Wh @ v[:m] - v) / h
        else:
            Wmh = wco_matrix(_eval_any_t(fam, -h), dim, m)
            quotient = (Wh @ v[:m] - Wmh @ v[:m]) / (2 * h)
        errs[i] = np.linalg.norm(quotient - target)
    slope = float(np.polyfit(np.log(np.asarray(FD_STEPS)), np.log(errs), 1)[0])
    return slope, errs


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


def eigenfunction_coeffs(m: int, G: complex, beta: complex, dim: int) -> FockVector:
    """Truncated (z - G)^m exp(beta z), the m-th dilation eigenfunction; m < dim.

    The operator with symbol (1, -G, 1, beta) sends z^m = sqrt(m!) e_m to this
    function, so the vector is sqrt(m!) times column m of its ``wco_matrix``.
    Row n of a column reads only rows n-1 and n of the one before, so a larger
    dim extends the vector and keeps its leading coefficients bit for bit.
    """
    if not 0 <= m < dim:
        raise ValueError(f"need 0 <= m < dim, got m = {m}, dim = {dim}")
    col = wco_matrix(WCOParams(1.0, -G, 1.0, beta), dim, m + 1)[:, m]
    return FockVector(sqrt_factorial(m) * col)


def eigen_residual(fam: DilationFamily, m: int, dim: int) -> float:
    """Relative residual ||(R - lambda_m) f_m|| / ||f_m|| on the truncation.

    Evaluated through the structured tridiagonal action so that enlarging dim
    reuses bit-identical arithmetic on shared indices; the residual is then
    non-increasing in dim by construction.
    """
    if not isinstance(fam, DilationFamily):
        raise EmptyPointSpectrum("eigenfunctions exist only for the dilation family")
    beta = fam.beta
    lam = fam.H - fam.ell * beta * fam.G + m * fam.ell
    f = eigenfunction_coeffs(m, fam.G, beta, dim).coeffs
    gen = generator_matrix(fam, dim)
    resid = gen.apply(f) - lam * f
    return float(np.linalg.norm(resid) / np.linalg.norm(f))


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
    n_sequence: Sequence[int] = (16, 32, 64),
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
    partial = {
        n: float(np.exp(log_S[n - 1]))
        for n in sorted(set(n_values) | {2 * n for n in n_values})
    }
    ratios = {n: float(np.exp(log_S[2 * n - 1] - log_S[n - 1])) for n in n_values}
    pairs = np.logaddexp(log_terms[0:-1:2], log_terms[1::2])
    with np.errstate(invalid="ignore"):
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
    n_sequence: Sequence[int] = (16, 32, 64),
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


def resolvent_bound_check(
    M: np.ndarray, alphas: Sequence[float], vectors: Sequence[np.ndarray]
) -> float:
    """min over alpha, v of ||(alpha I - M) v|| / (alpha ||v||).

    For a dissipative M the ratio is >= 1 for every alpha > 0.
    """
    M = np.asarray(M, dtype=complex)
    eye = np.eye(M.shape[0])
    best = math.inf
    for alpha in alphas:
        if alpha <= 0:
            raise ValueError("alphas must be positive")
        shifted = alpha * eye - M
        for v in vectors:
            v = np.asarray(v, dtype=complex)
            nv = np.linalg.norm(v)
            if nv == 0:
                raise ValueError("zero probe vector")
            best = min(best, float(np.linalg.norm(shifted @ v) / (alpha * nv)))
    return best


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
    to ~1e3 after scaling; wildly scaled inputs raise instead of overflowing.
    """
    A = t * np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix_exponential needs a square matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("non-finite entries in matrix_exponential input")
    norm1 = float(np.max(np.abs(A).sum(axis=0))) if A.size else 0.0
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
    return R


@dataclass(frozen=True)
class SpectrumReport:
    """Predicted lattice, explicit-eigenfunction residuals, truncated spectrum.

    Truncated eigenvalues are informational: for beta != 0 the truncation is
    strongly non-normal and its spectrum does not approximate the lattice, so
    residuals of the explicit eigenfunctions are the trustworthy evidence.
    """

    predicted: np.ndarray
    residuals: np.ndarray
    truncated_eigenvalues: np.ndarray
    dim: int

    def to_json(self) -> dict:
        return {
            "predicted": [complex_to_json(z) for z in self.predicted],
            "residuals": [float(r) for r in self.residuals],
            "truncated_eigs": [
                complex_to_json(z) for z in self.truncated_eigenvalues
            ],
            "dim": self.dim,
        }


def spectrum_report(fam: DilationFamily, k_max: int, dim: int) -> SpectrumReport:
    predicted = point_spectrum_predicted(fam, k_max)
    residuals = np.array([eigen_residual(fam, m, dim) for m in range(k_max + 1)])
    dense = generator_matrix(fam, dim).dense()
    eigs = np.sort_complex(np.linalg.eigvals(dense))
    return SpectrumReport(
        predicted=predicted, residuals=residuals, truncated_eigenvalues=eigs, dim=dim
    )


class StoneCheck(NamedTuple):
    adjoint_fd_residual: float
    c_symmetry_residual: float


# step of the adjoint quotient and the highest monomial degree it is taken on
_STONE_STEP = 1e-6
_STONE_MAX_DEGREE = 8


def check_stone_adjoint_relation(fam: SemigroupFamily, dim: int) -> StoneCheck:
    """Adjoint-generator difference quotient plus generator C-symmetry.

    First entry: max_k ||((W(h)^H - I)/h - Q^H) e_k|| over k <= 8 at
    h = 1e-6, an O(h) quantity when the adjoint family is differentiable at 0.
    Second entry: max-abs of Q M - M Q^T for the matrix M of the family's
    own conjugation.
    """
    M = conjugation_matrix(fam.conj, dim).matrix
    gen = generator_matrix(fam, dim).dense()
    Wh = semigroup_matrix(fam, _STONE_STEP, dim)
    quotient = (Wh.conj().T - np.eye(dim)) / _STONE_STEP
    block = quotient - gen.conj().T
    adjoint_resid = float(
        np.max(np.linalg.norm(block[:, : _STONE_MAX_DEGREE + 1], axis=0))
    )
    return StoneCheck(adjoint_resid, check_matrix_c_symmetry(gen, M))
