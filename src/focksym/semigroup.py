"""One-parameter families of weighted composition operators.

Two concrete families are realized, both attached to conjugation data (a, b)
and both satisfying the symbol relation D(t) = a B(t) - b A(t) + b for all t:
the translation flow, parameters (E != 0, F), and the dilation flow,
parameters (ell != 0, G, H).  Each family class is the one home of its
formulas: the closed-form symbols (A, B, C, D)(t) (``symbols``), the affine
symbol of its generator (``generator_symbol``), its uniform boundedness
(``bounded``), the scaling equation its multiplier solves (``scaling``) and
its name in reports (``variant``).

The module also provides the flow/cocycle law check, a quadrature solver for
the scalar scaling equation, truncated operator matrices, growth curves
sup_t e^{-omega t} ||W(t) x|| on the grid ``GROWTH_T_GRID``, and the
Laplace-transform resolvent.  Vectors are coefficient arrays (see
:mod:`focksym.fock`); a block of vectors is a (dim, n) array of columns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence, Union

import numpy as np

from .conjugation import ConjugationParams
from .serialize import complex_to_json
from .wco import WCOParams, wco_matrices

__all__ = [
    "TranslationFamily",
    "DilationFamily",
    "SemigroupFamily",
    "QuadratureError",
    "GROWTH_T_GRID",
    "GrowthReport",
    "family_eval",
    "check_flow_cocycle",
    "solve_scaling_equation",
    "semigroup_matrix",
    "semigroup_matrices",
    "check_semigroup_law",
    "growth_values",
    "growth_report",
    "n_omega_estimate",
    "norm_w_one_closed_form",
    "laplace_resolvent",
    "Z_SAMPLES",
]

# points z at which the flow and cocycle laws are compared
Z_SAMPLES: tuple[complex, ...] = (0.0, 1.0, -1.0, 1j, -1j, 2 + 1j)

# distance from the boundary Re ell = 0, and from each symbol relation, read
# as equality
_BOUNDEDNESS_TOL = 1e-12


class _Family:
    """The members that each family class defines, and its JSON form.

    ``variant`` is the family's name in reports; ``symbols(t)`` is
    (A, B, C, D)(t) for any real t (the semigroup embeds in a group;
    negative times serve central finite differences), or for a 1-D array of
    times their stack (see :class:`WCOParams`), each member equal to the
    symbols of its time alone, bit for bit; ``generator_symbol``
    is the affine (a, b, c, d) of the generator
    B f = a z f' + b f' + (c + d z) f; ``bounded`` is the uniform
    boundedness of the whole family (every t > 0), each relation read as
    equality within ``_BOUNDEDNESS_TOL``; and ``scaling`` is the pair
    (Lambda'(0), dpsi) whose scaling solution reproduces C(t).
    """

    variant: str

    def to_json(self) -> dict:
        """The variant, the parameters in field order, then the conjugation."""
        params = {f.name: complex_to_json(getattr(self, f.name))
                  for f in fields(self) if f.name != "conj"}
        return {"variant": self.variant, **params, "conjugation": self.conj.to_json()}


@dataclass(frozen=True)
class TranslationFamily(_Family):
    """Flow z + conj(a) E t with exponential cocycle; generator is tridiagonal.

        A(t) = 1,  B(t) = E t,  C(t) = exp(F t + a E^2 t^2 / 2),  D(t) = a E t

    Generator (F + a E z) f + E f': symbol (0, E, F, a E).  Uniformly
    bounded iff conj(E) + a E = 0.
    """

    E: complex
    F: complex
    conj: ConjugationParams

    variant = "translation"

    def __post_init__(self) -> None:
        if self.E == 0:
            raise ValueError("translation family requires E != 0")

    def symbols(self, t: float | np.ndarray) -> WCOParams:
        a = self.conj.a
        return WCOParams(
            A=1.0,
            B=self.E * t,
            # t * t, not t**2: Python's float power and numpy's square differ
            C=np.exp(self.F * t + a * self.E**2 * (t * t) / 2),
            D=a * self.E * t,
        )

    @property
    def generator_symbol(self) -> tuple[complex, complex, complex, complex]:
        return 0, self.E, self.F, self.conj.a * self.E

    @property
    def bounded(self) -> bool:
        return bool(abs(np.conj(self.E) + self.conj.a * self.E) <= _BOUNDEDNESS_TOL)

    @property
    def scaling(self) -> tuple[complex, Callable]:
        a, E = self.conj.a, self.E
        return self.F, lambda tau: a * E**2 * np.asarray(tau, dtype=complex)


@dataclass(frozen=True)
class DilationFamily(_Family):
    """Flow with attracting/repelling fixed point G and rate ell; beta = a G + b.

        A(t) = exp(ell t)
        B(t) = G (1 - exp(ell t))
        C(t) = exp(H t + G beta (exp(ell t) - ell t - 1))
        D(t) = beta (1 - exp(ell t))

    Generator (H - ell beta z) f + ell (z - G) f': symbol
    (ell, -ell G, H, -ell beta).  Uniformly bounded iff Re ell < 0, or
    Re ell = 0 together with a G + b - conj(G) = 0.
    """

    ell: complex
    G: complex
    H: complex
    conj: ConjugationParams

    variant = "dilation"

    def __post_init__(self) -> None:
        if self.ell == 0:
            raise ValueError("dilation family requires ell != 0")

    @property
    def beta(self) -> complex:
        return self.conj.a * self.G + self.conj.b

    def symbols(self, t: float | np.ndarray) -> WCOParams:
        beta = self.beta
        eat = np.exp(self.ell * t)
        return WCOParams(
            A=eat,
            B=self.G * (1 - eat),
            C=np.exp(self.H * t + self.G * beta * (eat - self.ell * t - 1)),
            D=beta * (1 - eat),
        )

    @property
    def generator_symbol(self) -> tuple[complex, complex, complex, complex]:
        return self.ell, -self.ell * self.G, self.H, -self.ell * self.beta

    @property
    def bounded(self) -> bool:
        re, tol = self.ell.real, _BOUNDEDNESS_TOL
        if abs(re) <= tol:
            return bool(abs(self.beta - np.conj(self.G)) <= tol)
        return bool(re < -tol)

    @property
    def scaling(self) -> tuple[complex, Callable]:
        ell, G, beta = self.ell, self.G, self.beta
        return self.H, lambda tau: -ell * G * beta * (
            1 - np.exp(np.asarray(tau, dtype=complex) * ell)
        )


SemigroupFamily = Union[TranslationFamily, DilationFamily]


def family_eval(fam: SemigroupFamily, t: float | np.ndarray) -> WCOParams:
    """Symbol data (A, B, C, D)(t) for t >= 0, or their stack for a 1-D array
    of such t; t = 0 gives the identity (1, 0, 1, 0)."""
    if np.less(t, 0).any():
        raise ValueError(f"family parameter t must be >= 0, got {np.min(t)}")
    return fam.symbols(t)


def check_flow_cocycle(fam: SemigroupFamily, t: float | np.ndarray,
                       s: float | np.ndarray) -> tuple[float, float]:
    """(semiflow, semicocycle) residuals of the family at (t, s), z in Z_SAMPLES.

    Semiflow: max_z |zeta_{t+s}(z) - zeta_t(zeta_s(z))| with
    zeta_t(z) = A(t) z + B(t).  Semicocycle: max_z of the relative deviation
    of xi_{t+s}(z) from xi_t(z) xi_s(zeta_t(z)) with xi_t(z) = C(t) e^{D(t) z};
    equivalently C(t+s) = C(t) C(s) exp(B(t) D(s)) and
    D(t+s) = D(t) + A(t) D(s).  t and s may be 1-D arrays of equal length,
    read as the pairs (t[i], s[i]); the residuals are then the worst over
    the pairs.  The symbols at every t + s, s and t are one stack, and each
    law is one array expression over the pairs and the sample points.
    """
    t, s = np.broadcast_arrays(np.atleast_1d(np.asarray(t, dtype=float)),
                               np.asarray(s, dtype=float))
    p = fam.symbols(np.concatenate((t + s, s, t)))
    A, B, C, D = (np.broadcast_to(v, 3 * t.size).reshape(3, -1, 1) for v in
                  (p.A, p.B, p.C, p.D))
    z = np.array(Z_SAMPLES)
    flow = A * z + B  # zeta at t + s, s and t, each at every z
    composed = A[2] * flow[1] + B[2]  # zeta_t(zeta_s(z))
    lhs = C[0] * np.exp(D[0] * z)
    rhs = C[2] * np.exp(D[2] * z) * (C[1] * np.exp(D[1] * flow[2]))
    denom = abs(lhs)
    if not denom.all():
        raise ZeroDivisionError("cocycle vanished at a sample point")
    return float(np.max(abs(flow[0] - composed))), float(np.max(abs(lhs - rhs) / denom))


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


# the _GL_NODES-point rule on [-1, 1] as literal doubles, equal to the bit to
# numpy.polynomial.legendre.leggauss(10) (Golub and Welsch, 1969): a process
# that integrates then loads no numpy.polynomial, which cost 2.6 ms and
# 0.76 MB at its first integral
_GL_X = (
    -0.9739065285171717, -0.8650633666889845, -0.6794095682990244, -0.4333953941292472,
    -0.14887433898163122, 0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
    0.8650633666889845, 0.9739065285171717,
)
_GL_W = (
    0.06667134430868814, 0.1494513491505804, 0.219086362515982, 0.2692667193099965,
    0.2955242247147528, 0.2955242247147528, 0.2692667193099965, 0.219086362515982,
    0.1494513491505804, 0.06667134430868814,
)


@functools.cache
def _gauss_legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the _GL_NODES-point rule on [-1, 1], read-only."""
    x, w = np.array(_GL_X), np.array(_GL_W)
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


def semigroup_matrix(
    fam: SemigroupFamily, t: float, dim: int, ncols: int | None = None
) -> np.ndarray:
    """Truncated matrix of the family member at time t (normalized basis).

    ``ncols`` keeps only the leading columns, as in :func:`wco_matrix`.  The
    matrix is the stack of one of :func:`semigroup_matrices`.
    """
    return semigroup_matrices(fam, (t,), dim, ncols)[0]


def semigroup_matrices(
    fam: SemigroupFamily, times: Sequence[float], dim: int, ncols: int | None = None
) -> np.ndarray:
    """The members at several times as one stack, shape (len(times), dim, ncols).

    The symbols at all the times are one evaluation, built by
    :func:`wco_matrices`; a single member is :func:`semigroup_matrix`.
    """
    return wco_matrices(family_eval(fam, np.asarray(times, dtype=float)), dim, ncols)


def _support_size(X: np.ndarray) -> int:
    """Number of leading rows of the vector or (dim, n) block X that hold
    every nonzero entry (>= 1)."""
    nz = np.flatnonzero(X.reshape(len(X), -1).any(axis=1))
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

    W(t) is built on the block's support, the leading m columns that hold
    every nonzero row of X, the grid as one stack, and applied to X[:m] in
    one product, formed as the rows (W(t) x)^T: each norm then sums one
    contiguous row, as it does for x alone, so a vector's curve is the same
    in any block where its product is.  A norm that overflows reads inf,
    silently: past the double range W(t) holds inf, and inf * 0 in the
    product gives nan.
    """
    m = _support_size(X)
    with np.errstate(over="ignore", invalid="ignore"):
        stack = semigroup_matrices(fam, t_grid, X.shape[0], m)
        vals = np.linalg.norm(X[:m].T @ stack.transpose(0, 2, 1), axis=-1)
    return np.where(np.isfinite(vals), vals, np.inf)


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
    (dim, n), m = X.shape, _support_size(X)
    lead = X[:m]

    def integrand(ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        return np.exp(-lam * ts)[:, None, None] * (semigroup_matrices(fam, ts, dim, m) @ lead)

    return _refine_quadrature(integrand, 0.0, T, _LAPLACE_TOL, panels=8, max_refinements=9)
