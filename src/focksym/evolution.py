"""Nonautonomous evolution families U(t, s) solving U' = B(t) U, U(s, s) = I.

A coefficient B is any callable t -> (n, n) complex array.  Its size n is
read from B(s) at the start of each integration, the value that is also the
first step's stage 1; a later value of another size makes a stage's matrix
product raise ValueError.

The propagator is integrated as a full matrix with an adaptive embedded
Runge-Kutta pair of orders 5(4) (Dormand-Prince tableau).  Local error is
controlled per unit step so that the accumulated error over a path of modest
length stays at the order of the requested relative tolerance.

The pair is first same as last (FSAL): row 7 of the coupling equals the
fifth-order weights, so stage 7's argument is the new solution U5, and an
accepted step's B(x + h) U5 is the next step's stage 1.  A rejected step
leaves x and U alone, so its stage 1 is kept too.  Stages 6 and 7 share the
time x + h, so B is evaluated there once.  An attempted step thus costs five
evaluations of B and six matrix products.  The seven stages share one
buffer, viewed as one real row per stage, and every weighted sum (each stage
argument, the fifth-order solution and the error estimate) is U plus one real
row-vector times matrix product of an h-scaled tableau row with those rows.
These sums round differently from adding the terms one by one in tableau
order, by about 1e-14 relative at most on the test models.

Checks cover the evolution-family axioms, the adjoint family's derivative
identity and the commutation relation B(s) J = J conj(B(s))  (written here as
B(s) M = M B(s)^T for the matrix part M of the antilinear J).  The induced
symmetry U(t,s) = J U(t,s)* J of the propagator for commuting families is
:func:`focksym.conjugation.check_matrix_c_symmetry` applied to U(t, s).

A time series U(t_k, s) is a chain of segment propagators through the
cocycle U(t_k, s) = U(t_k, t_{k-1}) U(t_{k-1}, s), so its cost is linear in
the number of samples.  A check that judges U(t, s) takes it from its
caller, which integrates it once for every check that needs it.  An
``evolution`` run takes U(t, s) from the end of its series, so it integrates
its horizon twice: once as the chained series, and once split at
r = (s + t)/2 by :func:`check_evolution_axioms`.  The two paths share no step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .conjugation import check_matrix_c_symmetry

__all__ = [
    "IntegratorStats",
    "EvolutionOperator",
    "StiffnessError",
    "evolve",
    "evolution_series",
    "check_evolution_axioms",
    "check_adjoint_family",
    "check_nonauto_stone",
    "bagchi_hamiltonian",
]

# a coefficient t -> B(t), an (n, n) complex array
_Coefficient = Callable[[float], np.ndarray]


@dataclass(frozen=True)
class IntegratorStats:
    steps: int
    rejected: int
    max_local_error: float


@dataclass(frozen=True)
class EvolutionOperator:
    """Propagator matrix from time s to time t with integrator statistics."""

    s: float
    t: float
    matrix: np.ndarray
    stats: IntegratorStats


class StiffnessError(RuntimeError):
    """Step size underflowed; the problem is too stiff for this integrator."""


# Dormand-Prince 5(4) tableau.
_STAGE_TIMES = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_COUPLING = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_WEIGHTS5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_ERROR_WEIGHTS = (
    71 / 57600,
    0.0,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)

# Rows 0-6 are the coupling rows padded to seven columns (row 6 is the
# fifth-order weights, since the pair is first same as last), row 7 the
# error weights.  Row i's first i entries weigh the stages of sum i.
_TABLEAU = np.array([row + (0.0,) * (7 - len(row)) for row in _COUPLING]
                    + [_ERROR_WEIGHTS])
_U5_ROW, _ERROR_ROW = 6, 7

_MIN_STEP_FACTOR = 1e-13
_MAX_GROWTH = 5.0
_MIN_SHRINK = 0.2
_SAFETY = 0.9


# a step whose stages overflow has a non-finite error estimate and is
# rejected, so its overflow and invalid values are expected and stay silent
@np.errstate(over="ignore", invalid="ignore")
def _integrate_matrix(
    B: _Coefficient, t0: float, t1: float, rel_tol: float
) -> tuple[np.ndarray, IntegratorStats]:
    B_0 = B(t0)  # the size of the problem, and the first step's stage 1
    dim = len(B_0)
    U = np.eye(dim, dtype=complex)
    if t1 == t0:
        return U, IntegratorStats(steps=0, rejected=0, max_local_error=0.0)
    span = t1 - t0
    h = span / 50.0
    h_floor = abs(span) * _MIN_STEP_FACTOR
    x = t0
    steps = rejected = 0
    max_err = 0.0
    direction = 1.0 if span > 0 else -1.0
    U_max = 1.0  # max|U|, carried over from the accepted step's max|U5|
    # the seven stages, and the same memory as real rows, one per stage: a
    # complex matrix viewed as float64 interleaves re and im, so a weighted
    # sum of stages is one real row-vector times matrix product
    K = np.empty((7, dim, dim), dtype=complex)
    K_rows = K.reshape(7, -1).view(np.float64)
    np.matmul(B_0, U, out=K[0])  # later steps take stage 1 from stage 7

    def stage_sum(i: int) -> np.ndarray:
        """U + sum_j (h T[i, j]) k_j over the first i stages, as a matrix."""
        return (U_row + hT[i, :i] @ K_rows[:i]).view(complex).reshape(dim, dim)

    while (t1 - x) * direction > 0:
        if (x + h - t1) * direction > 0:
            h = t1 - x
        hT = h * _TABLEAU
        U_row = U.reshape(-1).view(np.float64)
        for i in range(1, 6):
            B_i = B(x + _STAGE_TIMES[i] * h)
            np.matmul(B_i, stage_sum(i), out=K[i])
        U5 = stage_sum(_U5_ROW)
        np.matmul(B_i, U5, out=K[6])  # stages 6 and 7 share the time x + h
        err = (hT[_ERROR_ROW] @ K_rows).view(complex)
        U5_max = float(abs(U5).max())
        scale = max(U5_max, U_max, 1.0)
        local = float(abs(err).max()) / scale
        budget = rel_tol * abs(h)  # error-per-unit-step control
        finite = math.isfinite(local)
        if finite and local <= budget:
            x += h
            U, U_max = U5, U5_max
            K[0] = K[6]
            steps += 1
            max_err = max(max_err, local)
        else:
            rejected += 1
        if not finite:
            h *= _MIN_SHRINK
        elif local > 0:
            h *= min(_MAX_GROWTH, max(_MIN_SHRINK, _SAFETY * (budget / local) ** 0.2))
        else:
            h *= _MAX_GROWTH
        if abs(h) < h_floor:
            raise StiffnessError(
                f"step size {abs(h):.3e} underflowed at t = {x:.6g}; "
                "the coefficient family is too stiff for the 5(4) pair"
            )
    return U, IntegratorStats(steps=steps, rejected=rejected, max_local_error=max_err)


def evolve(
    B: _Coefficient, s: float, t: float, rel_tol: float = 1e-10
) -> EvolutionOperator:
    """Propagator U(t, s) for t >= s at the requested tolerance."""
    if t < s:
        raise ValueError(f"evolve requires t >= s, got t = {t} < s = {s}")
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    U, stats = _integrate_matrix(B, s, t, rel_tol)
    return EvolutionOperator(s=s, t=t, matrix=U, stats=stats)


def evolution_series(
    B: _Coefficient, times: Sequence[float], rel_tol: float = 1e-10
) -> tuple[list[np.ndarray], list[IntegratorStats]]:
    """U(t_k, t_0) for non-decreasing times, chained segment by segment.

    U(t_k, t_0) = U(t_k, t_{k-1}) U(t_{k-1}, t_0), each segment one
    :func:`evolve`, so the work is linear in the number of samples.  The
    second list holds each segment's integrator statistics.
    """
    U = np.eye(len(B(times[0])), dtype=complex)
    series, stats = [U], []
    for a, b in zip(times[:-1], times[1:]):
        seg = evolve(B, float(a), float(b), rel_tol)
        U = seg.matrix @ U
        series.append(U)
        stats.append(seg.stats)
    return series, stats


def check_evolution_axioms(
    B: _Coefficient,
    times: tuple[float, float, float],
    U_ts: np.ndarray,
    rel_tol: float = 1e-10,
) -> tuple[float, float]:
    """(identity residual, composition residual) for s <= r <= t.

    Identity: max-abs of U(t, t) - I, exactly 0 by construction, since
    :func:`evolve` returns I for a zero span.  Composition: max-abs of
    U(t, r) U(r, s) - U_ts, where ``U_ts`` is the caller's U(t, s) at the
    same ``rel_tol``.
    """
    s, r, t = times
    if not s <= r <= t:
        raise ValueError(f"need s <= r <= t, got {times}")
    ident = evolve(B, t, t, rel_tol).matrix - np.eye(len(U_ts))
    comp = evolve(B, r, t, rel_tol).matrix @ evolve(B, s, r, rel_tol).matrix - U_ts
    return float(np.max(np.abs(ident))), float(np.max(np.abs(comp)))


def check_adjoint_family(
    B: _Coefficient,
    s: float,
    t: float,
    z: np.ndarray,
    hs: Sequence[float],
    rel_tol: float = 1e-12,
) -> np.ndarray:
    """Difference-quotient residuals of d/dt [U(t,s)^H z] = U(t,s)^H B(t)^H z.

    For each h in ``hs``: ||(U(t+h,s)^H z - U(t,s)^H z)/h - U(t,s)^H B(t)^H z||,
    an O(h) quantity for smooth coefficients.  U(t, s) is integrated once,
    and U(t+h, s) = U(t+h, t) U(t, s) through the cocycle, so each h
    integrates only the span [t, t+h].  Both terms of the quotient then share
    U(t, s) and its integration error, which would otherwise enter the
    quotient divided by h.
    """
    if any(h <= 0 for h in hs):
        raise ValueError("h must be positive")
    z = np.asarray(z, dtype=complex)
    U_t = evolve(B, s, t, rel_tol).matrix
    target = U_t.conj().T @ (B(t).conj().T @ z)
    out = np.empty(len(hs))
    for i, h in enumerate(hs):
        U_th = evolve(B, t, t + h, rel_tol).matrix @ U_t
        quotient = (U_th.conj().T @ z - U_t.conj().T @ z) / h
        out[i] = np.linalg.norm(quotient - target)
    return out


# M conj(M) = I must hold to rounding before B(s) M = M B(s)^T means anything
_INVOLUTION_TOL = 1e-12


def check_nonauto_stone(
    B: _Coefficient,
    conj_matrix: np.ndarray,
    s_grid: Sequence[float],
) -> np.ndarray:
    """Residuals ||B(s) M - M B(s)^T|| over the grid, for antilinear J = M conj.

    Validates that M actually defines an involution (M conj(M) = I) before
    measuring; a broken involution raises rather than producing residuals.
    """
    M = np.asarray(conj_matrix, dtype=complex)
    inv = np.max(np.abs(M @ np.conj(M) - np.eye(M.shape[0])))
    if inv > _INVOLUTION_TOL:
        raise ValueError(
            f"conjugation matrix is not an involution: ||M conj(M) - I|| = {inv:.3e}"
        )
    return np.array([check_matrix_c_symmetry(B(float(sv)), M) for sv in s_grid])


def bagchi_hamiltonian(
    nu: float, kappa: Callable[[float], float], lam: Callable[[float], float]
) -> _Coefficient:
    """Two-level non-Hermitian model: H(t) = nu I + i k(t) s3 + (l(t)/2)(s+ + s-).

    With s3 = diag(1, -1), s+ = [[0, 2], [0, 0]], s- = [[0, 0], [2, 0]] the
    matrix is complex symmetric for all t; the propagator solves
    i U' = H(t) U, i.e. the coefficient returned is B(t) = -i H(t).
    """

    def B(t: float) -> np.ndarray:
        k, l = kappa(t), lam(t)
        return -1j * np.array([[nu + 1j * k, l], [l, nu - 1j * k]], dtype=complex)

    return B
