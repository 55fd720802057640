"""One-parameter families of weighted composition operators.

Two concrete families are realized, both attached to conjugation data (a, b)
and both satisfying the symbol relation D(t) = a B(t) - b A(t) + b for all t:

* translation flow, parameters (E != 0, F):
    A(t) = 1,  B(t) = E t,  C(t) = exp(F t + a E^2 t^2 / 2),  D(t) = a E t

* dilation flow, parameters (ell != 0, G, H), with beta = a G + b:
    A(t) = exp(ell t)
    B(t) = G (1 - exp(ell t))
    C(t) = exp(H t + G beta (exp(ell t) - ell t - 1))
    D(t) = beta (1 - exp(ell t))

The module also provides the flow/cocycle law checks, a quadrature solver for
the scalar scaling equation, truncated operator matrices, growth probes, and
the Laplace-transform resolvent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence, Union

import numpy as np

from .conjugation import ConjugationParams
from .fock import FockVector, monomial
from .serialize import complex_to_json
from .wco import WCOParams, wco_matrix

__all__ = [
    "TranslationFamily",
    "DilationFamily",
    "SemigroupFamily",
    "QuadratureError",
    "GrowthProbe",
    "GrowthReport",
    "family_eval",
    "family_is_bounded",
    "check_semiflow",
    "check_semicocycle",
    "solve_scaling_equation",
    "semigroup_matrix",
    "check_semigroup_law",
    "scaling_instance",
    "n_omega_estimate",
    "norm_w_one_closed_form",
    "laplace_resolvent",
    "Z_SAMPLES",
]

# points z at which the flow and cocycle laws are compared
Z_SAMPLES: tuple[complex, ...] = (0.0, 1.0, -1.0, 1j, -1j, 2 + 1j)


@dataclass(frozen=True)
class TranslationFamily:
    """Flow z + conj(a) E t with exponential cocycle; generator is tridiagonal."""

    E: complex
    F: complex
    conj: ConjugationParams

    def __post_init__(self) -> None:
        if self.E == 0:
            raise ValueError("translation family requires E != 0")

    def to_json(self) -> dict:
        return {
            "variant": "translation",
            "E": complex_to_json(self.E),
            "F": complex_to_json(self.F),
            "conjugation": self.conj.to_json(),
        }


@dataclass(frozen=True)
class DilationFamily:
    """Flow with attracting/repelling fixed point G and rate ell."""

    ell: complex
    G: complex
    H: complex
    conj: ConjugationParams

    def __post_init__(self) -> None:
        if self.ell == 0:
            raise ValueError("dilation family requires ell != 0")

    @property
    def beta(self) -> complex:
        return self.conj.a * self.G + self.conj.b

    def to_json(self) -> dict:
        return {
            "variant": "dilation",
            "ell": complex_to_json(self.ell),
            "G": complex_to_json(self.G),
            "H": complex_to_json(self.H),
            "conjugation": self.conj.to_json(),
        }


SemigroupFamily = Union[TranslationFamily, DilationFamily]


def _eval_any_t(fam: SemigroupFamily, t: float) -> WCOParams:
    # The closed forms extend to all real t (the semigroup embeds in a group);
    # negative times are used internally by central finite differences.
    a, b = fam.conj.a, fam.conj.b
    if isinstance(fam, TranslationFamily):
        return WCOParams(
            A=1.0,
            B=fam.E * t,
            C=np.exp(fam.F * t + a * fam.E**2 * t**2 / 2),
            D=a * fam.E * t,
        )
    beta = fam.beta
    eat = np.exp(fam.ell * t)
    return WCOParams(
        A=eat,
        B=fam.G * (1 - eat),
        C=np.exp(fam.H * t + fam.G * beta * (eat - fam.ell * t - 1)),
        D=beta * (1 - eat),
    )


def family_eval(fam: SemigroupFamily, t: float) -> WCOParams:
    """Symbol data (A, B, C, D)(t); t = 0 gives the identity (1, 0, 1, 0)."""
    if t < 0:
        raise ValueError(f"family parameter t must be >= 0, got {t}")
    return _eval_any_t(fam, t)


def family_is_bounded(fam: SemigroupFamily, tol: float = 1e-12) -> bool:
    """Uniform boundedness of the whole family (every t > 0).

    Translation: conj(E) + a E = 0.  Dilation: Re ell < 0, or Re ell = 0
    together with a G + b - conj(G) = 0.
    """
    a, b = fam.conj.a, fam.conj.b
    if isinstance(fam, TranslationFamily):
        return bool(abs(np.conj(fam.E) + a * fam.E) <= tol)
    re = fam.ell.real if isinstance(fam.ell, complex) else float(fam.ell)
    if re < -tol:
        return True
    if abs(re) <= tol:
        return bool(abs(a * fam.G + b - np.conj(fam.G)) <= tol)
    return False


def _flow(fam: SemigroupFamily, t: float, z: complex) -> complex:
    # zeta_t(z) = conj(A(t)) z + conj(B(t)) evaluated through the conjugated
    # symbols; equivalently the composition symbol of the antilinear picture.
    p = _eval_any_t(fam, t)
    return p.A * z + p.B


def check_semiflow(fam: SemigroupFamily, t: float, s: float) -> float:
    """max_z |zeta_{t+s}(z) - zeta_t(zeta_s(z))| over z in Z_SAMPLES."""
    worst = 0.0
    for z in Z_SAMPLES:
        lhs = _flow(fam, t + s, z)
        rhs = _flow(fam, t, _flow(fam, s, z))
        worst = max(worst, abs(lhs - rhs))
    return worst


def _cocycle(fam: SemigroupFamily, t: float, z: complex) -> complex:
    p = _eval_any_t(fam, t)
    return p.C * np.exp(p.D * z)


def check_semicocycle(fam: SemigroupFamily, t: float, s: float) -> float:
    """Relative deviation of xi_{t+s}(z) from xi_t(z) xi_s(zeta_t(z)), z in Z_SAMPLES.

    Equivalent scalar identities: C(t+s) = C(t) C(s) exp(B(t) D(s)) and
    D(t+s) = D(t) + A(t) D(s).
    """
    worst = 0.0
    for z in Z_SAMPLES:
        lhs = _cocycle(fam, t + s, z)
        rhs = _cocycle(fam, t, z) * _cocycle(fam, s, _flow(fam, t, z))
        denom = abs(lhs)
        if denom == 0:
            raise ZeroDivisionError("cocycle vanished at a sample point")
        worst = max(worst, abs(lhs - rhs) / denom)
    return worst


class QuadratureError(RuntimeError):
    """Step-halving refinement failed to converge."""


_GL_NODES = 10  # Gauss-Legendre nodes per panel


def _composite_gauss_legendre(
    f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, panels: int
) -> complex | np.ndarray:
    """Composite rule on equal panels; f maps the nodes to values along axis 0."""
    x, w = np.polynomial.legendre.leggauss(_GL_NODES)
    edges = np.linspace(lo, hi, panels + 1)
    total = 0.0 + 0.0j
    for left, right in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (left + right)
        half = 0.5 * (right - left)
        vals = f(mid + half * x)
        weights = w.reshape((-1,) + (1,) * (vals.ndim - 1))
        total += half * (weights * vals).sum(axis=0)
    return total


def _refine_quadrature(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    tol: float,
    panels: int = 4,
    max_refinements: int = 12,
) -> complex | np.ndarray:
    """Integral of a scalar-, vector- or matrix-valued f by panel doubling.

    Stops when the 2-norm of the change between successive panel counts is
    at most ``tol`` times max(1, 2-norm of the result).  A matrix-valued
    integral (dim x n) is read as n vector integrals, one per column: each
    column stops on its own criterion and keeps its first converged value,
    while f is still evaluated on every column until the last one converges.
    """
    prev = _composite_gauss_legendre(f, lo, hi, panels)
    split = np.ndim(prev) == 2  # a matrix value is judged column by column

    def parts(v):
        return list(v.T) if split else [v]

    done = [None] * len(parts(prev))  # each integral's first converged value
    for _ in range(max_refinements):
        panels *= 2
        cur = _composite_gauss_legendre(f, lo, hi, panels)
        for j, (c, p) in enumerate(zip(parts(cur), parts(prev))):
            if done[j] is None and np.linalg.norm(c - p) <= tol * max(np.linalg.norm(c), 1.0):
                done[j] = c
        if all(d is not None for d in done):
            return np.stack(done, axis=1) if split else done[0]
        prev = cur
    worst = max(np.linalg.norm(c - p)
                for c, p, d in zip(parts(cur), parts(prev), done) if d is None)
    raise QuadratureError(
        f"step-halving disagreement {worst:.3e} above {tol:.1e} "
        f"after {max_refinements} refinements on [{lo}, {hi}]"
    )


def solve_scaling_equation(
    lambda0: complex,
    dpsi: Callable[[np.ndarray], np.ndarray],
    t: float,
    tol: float = 1e-12,
) -> complex:
    """Solve Lambda'(t) = [lambda0 + integral drift] Lambda via the closed form.

    Returns exp(t*lambda0 + int_0^t dpsi(tau) dtau) with the integral done by
    composite Gauss-Legendre under step-halving control.  ``dpsi`` is the
    partial derivative (d/ds at s=0) of the scaling symbol at offset tau.
    """
    if t == 0:
        return 1.0 + 0.0j
    integral = _refine_quadrature(dpsi, 0.0, float(t), tol)
    return complex(np.exp(t * lambda0 + integral))


def scaling_instance(fam: SemigroupFamily) -> tuple[complex, Callable]:
    """(Lambda'(0), dpsi) pair whose scaling solution reproduces C(t)."""
    a, b = fam.conj.a, fam.conj.b
    if isinstance(fam, TranslationFamily):
        E, F = fam.E, fam.F
        return F, lambda tau: a * E**2 * np.asarray(tau, dtype=complex)
    ell, G = fam.ell, fam.G
    beta = fam.beta
    return fam.H, lambda tau: -ell * G * beta * (
        1 - np.exp(np.asarray(tau, dtype=complex) * ell)
    )


def semigroup_matrix(
    fam: SemigroupFamily, t: float, dim: int, ncols: int | None = None
) -> np.ndarray:
    """Truncated matrix of the family member at time t (normalized basis).

    ``ncols`` keeps only the leading columns, as in :func:`wco_matrix`.
    """
    return wco_matrix(family_eval(fam, t), dim, ncols)


def _support_size(vec: np.ndarray) -> int:
    """Number of leading coefficients that hold every nonzero entry (>= 1)."""
    nz = np.flatnonzero(vec)
    return int(nz[-1]) + 1 if nz.size else 1


def check_semigroup_law(
    fam: SemigroupFamily, times: Sequence[float], n_monomials: int, dim: int
) -> float:
    """Worst ||W(t) W(s) z^k - W(t+s) z^k|| / ||W(t+s) z^k|| over the sweep.

    t and s run over ``times`` and k < min(n_monomials, dim).  W(s) is
    applied at full dimension ``dim`` and all coefficients are kept before
    W(t) acts; no intermediate re-truncation.  W is built once per distinct
    time of the sweep.
    """
    taus = {*times, *(t + s for t in times for s in times)}
    W = {tau: semigroup_matrix(fam, tau, dim) for tau in taus}

    def residual(t: float, s: float, k: int) -> float:
        v = monomial(k, dim).coeffs
        rhs = W[t + s] @ v
        denom = np.linalg.norm(rhs)
        if denom == 0:
            raise ZeroDivisionError("reference vector vanished")
        return float(np.linalg.norm(W[t] @ (W[s] @ v) - rhs) / denom)

    return max(residual(t, s, k)
               for t in times for s in times for k in range(min(n_monomials, dim)))


# 0 followed by 64 geometrically spaced points up to 8
_GROWTH_T_GRID = np.concatenate(([0.0], np.geomspace(1.0 / 64.0, 8.0, 64)))
_GROWTH_T_GRID.setflags(write=False)


@dataclass(frozen=True)
class GrowthProbe:
    """Exponential weight omega for sup_t e^{-wt} ||W(t)x|| on a fixed grid."""

    omega: float = 0.0
    t_grid: ClassVar[np.ndarray] = _GROWTH_T_GRID


@dataclass(frozen=True)
class GrowthReport:
    sup: float
    argmax_t: float
    diverging: bool
    values: np.ndarray  # e^{-omega t} ||W(t) x|| along the grid

    def to_json(self) -> dict:
        return {
            "sup": self.sup,
            "argmax_t": self.argmax_t,
            "diverging": self.diverging,
        }


# a grid value this close to the sup, relatively, equals it up to rounding
_SUP_ROUNDING = 8 * np.finfo(float).eps


def _growth_values(
    fam: SemigroupFamily, vecs: Sequence[np.ndarray], omega: float, t_grid: np.ndarray
) -> np.ndarray:
    """e^{-omega t} ||W(t) x|| along t_grid, one column per normalized x.

    W(t) is built once per time at the widest support; each x is applied to
    its own leading columns.  A norm that overflows reads inf, silently.
    """
    dim = vecs[0].size
    supports = [_support_size(v) for v in vecs]
    vals = np.empty((t_grid.size, len(vecs)))
    with np.errstate(over="ignore"):
        for i, t in enumerate(t_grid):
            W = semigroup_matrix(fam, float(t), dim, max(supports))
            for j, (v, m) in enumerate(zip(vecs, supports)):
                nrm = np.linalg.norm(W[:, :m] @ v[:m])
                vals[i, j] = math.exp(-omega * t) * nrm if np.isfinite(nrm) else np.inf
    return vals


def _growth_report(vals: np.ndarray, t_grid: np.ndarray) -> GrowthReport:
    """Sup, its grid time and the divergence flag of one growth curve."""
    finite = np.isfinite(vals)
    overflowed = not finite.all()
    tail_up = bool(
        vals.size >= 3
        and np.all(np.diff(vals[-3:]) > 0)
        and np.all(vals[-3:] > 10 * np.min(vals))
    )
    if overflowed:
        sup, arg = math.inf, float(t_grid[int(np.argmin(finite))])
    else:
        sup = float(np.max(vals))
        arg = float(t_grid[int(np.argmax(vals >= sup * (1 - _SUP_ROUNDING)))])
    return GrowthReport(sup=sup, argmax_t=arg, diverging=overflowed or tail_up, values=vals)


def n_omega_estimate(fam: SemigroupFamily, x: FockVector, probe: GrowthProbe) -> GrowthReport:
    """Grid estimate of N_omega(x) = sup_t e^{-omega t} ||W(t) x||, at x's dim.

    Diverging is flagged when the last three grid values strictly increase
    and exceed ten times the grid minimum, or when the norm overflows.  The
    sup is reported at the earliest time whose value equals it up to rounding.
    """
    vals = _growth_values(fam, [x.coeffs], probe.omega, probe.t_grid)
    return _growth_report(vals[:, 0], probe.t_grid)


def norm_w_one_closed_form(fam: SemigroupFamily, t: float) -> float:
    """||W(t) 1|| = |C(t)| exp(|D(t)|^2 / 2), from the kernel-vector image."""
    p = family_eval(fam, t)
    return float(abs(p.C) * math.exp(abs(p.D) ** 2 / 2))


# agreement of successive panel counts, and the integrand tail bound at the
# upper limit, of the Laplace integral
_LAPLACE_TOL = 1e-10


def laplace_resolvent(
    fam: SemigroupFamily, lam: complex, xs: Sequence[FockVector], omega: float
) -> list[FockVector]:
    """Resolvent-type vectors J_lam x = int_0^inf e^{-lam t} W(t) x dt, one per x.

    The vectors share one dim, which is the dim of the results.  Requires
    Re(lam) > omega and, for each x, a non-diverging growth curve at weight
    omega on the :class:`GrowthProbe` grid; one pass over that grid serves all
    vectors, before any integrand is built.  Each x gets the
    upper limit T at which its integrand tail bound
    e^{(omega - Re lam) T} * N_omega-estimate falls below 1e-10, and the
    integral runs to the largest of these T.  The integrand is matrix valued:
    at each node W(t) is built once, with as many columns as the widest
    support, and applied to all vectors in one product.  Each vector's
    panel doubling stops at its own relative change of 1e-10.
    """
    if lam.real <= omega:
        raise ValueError(f"need Re(lam) > omega, got {lam.real} <= {omega}")
    if not xs or len({x.dim for x in xs}) != 1:
        raise ValueError("need one or more vectors of one dim")
    vecs = [x.coeffs for x in xs]
    T = 1.0
    for curve in _growth_values(fam, vecs, omega, GrowthProbe.t_grid).T:
        report = _growth_report(curve, GrowthProbe.t_grid)
        if report.diverging:
            raise ValueError(
                f"growth probe diverges at omega = {omega}; the Laplace integral "
                "is not certified to converge — raise omega or change the family"
            )
        bound = max(report.sup, 1e-30)
        T = max(T, math.log(bound / _LAPLACE_TOL) / (lam.real - omega))
    dim, m = xs[0].dim, max(_support_size(v) for v in vecs)
    X = np.stack([v[:m] for v in vecs], axis=1)

    def integrand(ts: np.ndarray) -> np.ndarray:
        out = np.empty((ts.size, dim, len(xs)), dtype=complex)
        for i, t in enumerate(np.asarray(ts, dtype=float)):
            W = semigroup_matrix(fam, float(t), dim, m)
            out[i] = np.exp(-lam * t) * (W @ X)
        return out

    acc = _refine_quadrature(integrand, 0.0, T, _LAPLACE_TOL, panels=8, max_refinements=9)
    return [FockVector(acc[:, j]) for j in range(len(xs))]
