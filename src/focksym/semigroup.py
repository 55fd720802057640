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
the scalar scaling equation, truncated operator matrices, growth curves
sup_t e^{-omega t} ||W(t) x|| on the grid ``GROWTH_T_GRID``, and the
Laplace-transform resolvent.  Vectors are coefficient arrays (see
:mod:`focksym.fock`); a block of vectors is a (dim, n) array of columns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .conjugation import ConjugationParams
from .serialize import complex_to_json
from .wco import WCOParams, wco_matrices, wco_matrix

__all__ = [
    "TranslationFamily",
    "DilationFamily",
    "SemigroupFamily",
    "QuadratureError",
    "GROWTH_T_GRID",
    "GrowthReport",
    "family_eval",
    "family_is_bounded",
    "check_semiflow",
    "check_semicocycle",
    "solve_scaling_equation",
    "semigroup_matrix",
    "semigroup_matrices",
    "check_semigroup_law",
    "scaling_instance",
    "growth_values",
    "growth_report",
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


# distance from the boundary Re ell = 0, and from each symbol relation, read
# as equality
_BOUNDEDNESS_TOL = 1e-12


def family_is_bounded(fam: SemigroupFamily) -> bool:
    """Uniform boundedness of the whole family (every t > 0).

    Translation: conj(E) + a E = 0.  Dilation: Re ell < 0, or Re ell = 0
    together with a G + b - conj(G) = 0.
    """
    a, b, tol = fam.conj.a, fam.conj.b, _BOUNDEDNESS_TOL
    if isinstance(fam, TranslationFamily):
        return bool(abs(np.conj(fam.E) + a * fam.E) <= tol)
    re = fam.ell.real if isinstance(fam.ell, complex) else float(fam.ell)
    if re < -tol:
        return True
    if abs(re) <= tol:
        return bool(abs(a * fam.G + b - np.conj(fam.G)) <= tol)
    return False


def _flow(p: WCOParams, z: complex) -> complex:
    # zeta_t(z) = conj(A(t)) z + conj(B(t)) evaluated through the conjugated
    # symbols; equivalently the composition symbol of the antilinear picture.
    return p.A * z + p.B


def check_semiflow(fam: SemigroupFamily, t: float, s: float) -> float:
    """max_z |zeta_{t+s}(z) - zeta_t(zeta_s(z))| over z in Z_SAMPLES.

    The symbols are evaluated once, at t + s, s and t in turn, so a symbol
    that leaves the double range is met at the same evaluation as when each
    side of the law evaluates its own.
    """
    p_sum, p_s, p_t = (_eval_any_t(fam, tau) for tau in (t + s, s, t))
    worst = 0.0
    for z in Z_SAMPLES:
        lhs = _flow(p_sum, z)
        rhs = _flow(p_t, _flow(p_s, z))
        worst = max(worst, abs(lhs - rhs))
    return worst


def _cocycle(p: WCOParams, z: complex) -> complex:
    return p.C * np.exp(p.D * z)


def check_semicocycle(fam: SemigroupFamily, t: float, s: float) -> float:
    """Relative deviation of xi_{t+s}(z) from xi_t(z) xi_s(zeta_t(z)), z in Z_SAMPLES.

    Equivalent scalar identities: C(t+s) = C(t) C(s) exp(B(t) D(s)) and
    D(t+s) = D(t) + A(t) D(s).  The symbols are evaluated once, at t + s, t
    and s in turn, the order in which the two sides first read them.
    """
    p_sum, p_t, p_s = (_eval_any_t(fam, tau) for tau in (t + s, t, s))
    worst = 0.0
    for z in Z_SAMPLES:
        lhs = _cocycle(p_sum, z)
        rhs = _cocycle(p_t, z) * _cocycle(p_s, _flow(p_t, z))
        denom = abs(lhs)
        if denom == 0:
            raise ZeroDivisionError("cocycle vanished at a sample point")
        worst = max(worst, abs(lhs - rhs) / denom)
    return worst


class QuadratureError(RuntimeError):
    """Step-halving refinement failed to converge."""


_GL_NODES = 10  # Gauss-Legendre nodes per panel
# bytes of the values of one integrand call of the composite rule, or of one
# panel if that is more: a call pays the integrand's per-call cost once for
# its panels, and its memory stays bounded however many panels there are.
# With every panel in one call, the benchmark's verify-64 read peak_rss_mb
# 40.3 against 36.9 MB (+9.1 %, higher in 12 of 12 pairs, against an A/A
# spread of 0.4 %), and tracemalloc read the suite's Laplace group peaking
# at 4.5 against 1.05 MB at dim 64 (BENCH_features.json)
_STACK_BYTES = 1 << 16


@functools.cache
def _gauss_legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the _GL_NODES-point rule on [-1, 1], read-only.

    Built on first use, not at import: ``numpy.polynomial`` loads lazily and
    adds about 1 MB to a process that never integrates.
    """
    x, w = np.polynomial.legendre.leggauss(_GL_NODES)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _composite_gauss_legendre(
    f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, panels: int
) -> complex | np.ndarray:
    """Composite rule on equal panels; f maps the nodes to values along axis 0.

    The first panel is evaluated alone.  Each later call of f takes the
    nodes of as many panels as keep its values within ``_STACK_BYTES``, at
    least one, built for that block only.  Each panel's weighted sum has the
    arithmetic of a panel summed alone, and the running total adds the
    panels' sums one by one in panel order, so the integral is the same to
    the bit as with one call per panel.
    """
    x, w = _gauss_legendre_rule()
    edges = np.linspace(lo, hi, panels + 1)
    mids, halves = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    total = 0.0 + 0.0j
    block, k = 1, 0
    while k < panels:
        mid, half = mids[k:k + block], halves[k:k + block]
        vals = f((mid[:, None] + half[:, None] * x).ravel())
        if k == 0:
            block = max(1, _STACK_BYTES // vals.nbytes)
        vals = vals.reshape(len(mid), _GL_NODES, *vals.shape[1:])
        axes = (1,) * (vals.ndim - 2)  # the value's own axes
        for panel_sum in half.reshape(-1, *axes) * (w.reshape(-1, *axes) * vals).sum(axis=1):
            total += panel_sum
        k += len(mid)
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
    cur = _composite_gauss_legendre(f, lo, hi, panels)
    split = np.ndim(cur) == 2  # a matrix value is judged column by column

    def parts(v):
        return list(v.T) if split else [v]

    done = [None] * len(parts(cur))  # each integral's first converged value
    for _ in range(max_refinements):
        prev, panels = cur, 2 * panels
        cur = _composite_gauss_legendre(f, lo, hi, panels)
        for j, (c, p) in enumerate(zip(parts(cur), parts(prev))):
            if done[j] is None and np.linalg.norm(c - p) <= tol * max(np.linalg.norm(c), 1.0):
                done[j] = c
        if all(d is not None for d in done):
            return np.stack(done, axis=1) if split else done[0]
    # the last two rules' disagreement, over the integrals that did not converge
    worst = max(np.linalg.norm(c - p)
                for c, p, d in zip(parts(cur), parts(prev), done) if d is None)
    raise QuadratureError(
        f"step-halving disagreement {worst:.3e} above {tol:.1e} "
        f"after {max_refinements} refinements on [{lo}, {hi}]"
    )


# step-halving tolerance of the scaling solver's drift integral
_SCALING_TOL = 1e-12


def solve_scaling_equation(
    lambda0: complex,
    dpsi: Callable[[np.ndarray], np.ndarray],
    t: float,
) -> complex:
    """Solve Lambda'(t) = [lambda0 + integral drift] Lambda via the closed form.

    Returns exp(t*lambda0 + int_0^t dpsi(tau) dtau) with the integral done by
    composite Gauss-Legendre under step-halving control.  ``dpsi`` is the
    partial derivative (d/ds at s=0) of the scaling symbol at offset tau.
    """
    if t == 0:
        return 1.0 + 0.0j
    integral = _refine_quadrature(dpsi, 0.0, float(t), _SCALING_TOL)
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


def semigroup_matrices(
    fam: SemigroupFamily, times: Sequence[float], dim: int, ncols: int | None = None
) -> np.ndarray:
    """The members at several times as one stack, shape (len(times), dim, ncols).

    Each equals its :func:`semigroup_matrix` bit for bit; the symbols are
    evaluated in the order of ``times`` and built by :func:`wco_matrices`.
    """
    return wco_matrices([family_eval(fam, float(t)) for t in times], dim, ncols)


def _support_size(vec: np.ndarray) -> int:
    """Number of leading coefficients that hold every nonzero entry (>= 1)."""
    nz = np.flatnonzero(vec)
    return int(nz[-1]) + 1 if nz.size else 1


def check_semigroup_law(
    fam: SemigroupFamily, times: Sequence[float], n_monomials: int, dim: int
) -> float:
    """Worst ||W(t) W(s) z^k - W(t+s) z^k|| / ||W(t+s) z^k|| over the sweep.

    t and s run over ``times`` and k < m = min(n_monomials, dim).  The sqrt(k!)
    of z^k = sqrt(k!) e_k cancels in the ratio, so each (t, s) is one block
    product W(t) W(s)[:, :m] against W(t+s)[:, :m], with no re-truncation
    between the factors.  W is built once per distinct time, in two stacks: in
    full for t in ``times``, and as its leading m columns for the other sums.
    """
    m = min(n_monomials, dim)
    full = dict(zip(times, semigroup_matrices(fam, times, dim)))
    sums = list({t + s for t in times for s in times} - full.keys())
    lead = dict(zip(sums, semigroup_matrices(fam, sums, dim, m)))
    lead.update((t, W[:, :m]) for t, W in full.items())

    def residual(t: float, s: float) -> float:
        ref = lead[t + s]
        denom = np.linalg.norm(ref, axis=0)
        if not denom.all():
            raise ZeroDivisionError("reference vector vanished")
        return float(np.max(np.linalg.norm(full[t] @ lead[s] - ref, axis=0) / denom))

    return max(residual(t, s) for t in times for s in times)


# the growth grid: 0 followed by 64 geometrically spaced points up to 8
GROWTH_T_GRID = np.concatenate(([0.0], np.geomspace(1.0 / 64.0, 8.0, 64)))
GROWTH_T_GRID.setflags(write=False)


@dataclass(frozen=True)
class GrowthReport:
    sup: float
    argmax_t: float
    diverging: bool
    values: np.ndarray  # e^{-omega t} ||W(t) x|| along the grid
    norms: np.ndarray  # ||W(t) x|| along the grid, as measured

    def to_json(self) -> dict:
        return {
            "sup": self.sup,
            "argmax_t": self.argmax_t,
            "diverging": self.diverging,
        }


# a grid value this close to the sup, relatively, equals it up to rounding
_SUP_ROUNDING = 8 * np.finfo(float).eps


def growth_values(fam: SemigroupFamily, X: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """||W(t) x|| along t_grid for each column x of the (dim, n) block X.

    W(t) is built once per time at the widest support, the grid as one stack;
    each x is applied to its own leading columns.  A norm that overflows reads
    inf, silently: past the double range W(t) holds inf, and inf * 0 in the
    product gives nan.
    """
    vecs = list(X.T)
    supports = [_support_size(v) for v in vecs]
    vals = np.empty((t_grid.size, len(vecs)))
    with np.errstate(over="ignore", invalid="ignore"):
        stack = semigroup_matrices(fam, t_grid, X.shape[0], max(supports))
        for i, W in enumerate(stack):
            for j, (v, m) in enumerate(zip(vecs, supports)):
                nrm = np.linalg.norm(W[:, :m] @ v[:m])
                vals[i, j] = nrm if np.isfinite(nrm) else np.inf
    return vals


def growth_report(norms: np.ndarray, omega: float) -> GrowthReport:
    """Sup, its grid time and divergence flag of a GROWTH_T_GRID curve weighted by e^{-omega t}."""
    vals = np.array([math.exp(-omega * t) * nrm for t, nrm in zip(GROWTH_T_GRID, norms)])
    finite = np.isfinite(vals)
    overflowed = not finite.all()
    tail_up = bool(
        not overflowed
        and vals.size >= 3
        and np.all(np.diff(vals[-3:]) > 0)
        and np.all(vals[-3:] > 10 * np.min(vals))
    )
    if overflowed:
        sup, arg = math.inf, float(GROWTH_T_GRID[int(np.argmin(finite))])
    else:
        sup = float(np.max(vals))
        arg = float(GROWTH_T_GRID[int(np.argmax(vals >= sup * (1 - _SUP_ROUNDING)))])
    return GrowthReport(sup=sup, argmax_t=arg, diverging=overflowed or tail_up,
                        values=vals, norms=norms)


def n_omega_estimate(fam: SemigroupFamily, x: np.ndarray, omega: float = 0.0) -> GrowthReport:
    """Estimate of N_omega(x) = sup_t e^{-omega t} ||W(t) x|| on GROWTH_T_GRID, at x's dim.

    Diverging is flagged when the last three grid values strictly increase
    and exceed ten times the grid minimum, or when the norm overflows.  The
    sup is reported at the earliest time whose value equals it up to rounding.
    """
    norms = growth_values(fam, x[:, None], GROWTH_T_GRID)
    return growth_report(norms[:, 0], omega)


def norm_w_one_closed_form(fam: SemigroupFamily, t: float) -> float:
    """||W(t) 1|| = |C(t)| exp(|D(t)|^2 / 2), from the kernel-vector image."""
    p = family_eval(fam, t)
    return float(abs(p.C) * math.exp(abs(p.D) ** 2 / 2))


# agreement of successive panel counts, and the integrand tail bound at the
# upper limit, of the Laplace integral
_LAPLACE_TOL = 1e-10


def laplace_resolvent(
    fam: SemigroupFamily, lam: complex, X: np.ndarray, omega: float
) -> np.ndarray:
    """J_lam x = int_0^inf e^{-lam t} W(t) x dt for each column x of the (dim, n) block X.

    The result is the (dim, n) block of these vectors.  Requires
    Re(lam) > omega and, for each x, a non-diverging growth curve at weight
    omega on ``GROWTH_T_GRID``; one pass over that grid serves all columns,
    before any integrand is built.  Each x gets the upper limit T at which
    its integrand tail bound e^{(omega - Re lam) T} * N_omega-estimate falls
    below 1e-10, and the integral runs to the largest of these T.  The
    integrand is matrix valued: the nodes of a panel are built as one stack of
    W(t), each with as many columns as the widest support, and applied to the
    block in one product.
    Each column's panel doubling stops at its own relative change of 1e-10.
    """
    if lam.real <= omega:
        raise ValueError(f"need Re(lam) > omega, got {lam.real} <= {omega}")
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValueError(f"need a (dim, n) block with n >= 1, got shape {X.shape}")
    T = 1.0
    for curve in growth_values(fam, X, GROWTH_T_GRID).T:
        report = growth_report(curve, omega)
        if report.diverging:
            raise ValueError(
                f"growth probe diverges at omega = {omega}; the Laplace integral "
                "is not certified to converge — raise omega or change the family"
            )
        bound = max(report.sup, 1e-30)
        T = max(T, math.log(bound / _LAPLACE_TOL) / (lam.real - omega))
    (dim, n), m = X.shape, max(_support_size(x) for x in X.T)
    lead = X[:m]

    def integrand(ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        return np.exp(-lam * ts)[:, None, None] * (semigroup_matrices(fam, ts, dim, m) @ lead)

    return _refine_quadrature(integrand, 0.0, T, _LAPLACE_TOL, panels=8, max_refinements=9)
