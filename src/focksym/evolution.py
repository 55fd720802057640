"""Nonautonomous evolution families U(t, s) solving U' = B(t) U, U(s, s) = I.

A coefficient B is any callable that maps a 1-D sequence of times ts to the
(len(ts), n, n) complex stack of B(t) at those times.  Its size n is read
from the one call at the start of each integration, at every span's s, whose
values are also the spans' first stage 1; a later value of another size
raises ValueError.  A coefficient may return a view, such as a constant
matrix broadcast over the times by ``np.broadcast_to`` (zero strides, no
copy); no value is used after the next call.  A builder's scalar parameter
functions, such as the detuning of :func:`bagchi_hamiltonian`, stay scalar.

The propagator is integrated as a full matrix with an adaptive embedded
Runge-Kutta pair of orders 5(4) (Dormand-Prince tableau).  Local error is
controlled per unit step so that the accumulated error over a path of modest
length stays at the order of the requested relative tolerance.

The pair is first same as last (FSAL): row 7 of the coupling equals the
fifth-order weights, so stage 7's argument is the new solution U5, and an
accepted step's B(x + h) U5 is the next step's stage 1.  A rejected step
leaves x and U alone, so its stage 1 is kept too.  Stages 6 and 7 share the
time x + h, so B is evaluated there once.  An attempted step thus costs five
evaluated times of B and six matrix products.  The seven stages share one
buffer, viewed as one real row per stage, and every weighted sum (each stage
argument, the fifth-order solution and the error estimate) is U plus one real
row-vector times matrix product of an h-scaled tableau row with those rows.
These sums round differently from adding the terms one by one in tableau
order, by about 1e-14 relative at most on the test models.

Independent spans of one coefficient share one step loop,
:func:`_integrate_spans`.  Each pass of the loop attempts one step of every
unfinished span of a batch: the stages of its m spans sit in one
(m, 7, n, n) buffer, each stage sum is one real row-vector times matrix
product per span, taken as one batched product, and each stage is one
batched matrix product.  A pass makes one call of B, at the five new stage
times x + c h of all m spans, and views its values as (m, 5, n, n).  Each
span keeps its own time, step size, first-same-as-last stage, controller,
statistics and step floor, as Python scalars, and leaves the batch when it
is done.  Batched products take the same BLAS call per span as a single
one, and the step factor stays a Python float power per span, so each U and
its statistics are the same to the bit whatever else is in the batch.
Spans are batched in the order given, as many at a time as keep the stage
buffer within ``_BATCH_BYTES``.  :func:`evolve` is a batch of one; the
series, the axioms, the adjoint quotients and the suite's reversal check
each hand in their spans together.

Checks cover the evolution-family axioms, the adjoint family's derivative
identity and the commutation relation B(s) J = J conj(B(s))  (written here as
B(s) M = M B(s)^T for the matrix part M of the antilinear J).  The induced
symmetry U(t,s) = J U(t,s)* J of the propagator for commuting families is
:func:`focksym.conjugation.check_matrix_c_symmetry` applied to U(t, s).

Spans and series come back as stacks.  A time series U(t_k, s) is one
(len(times), n, n) array, chained in place through the cocycle
U(t_k, s) = U(t_k, t_{k-1}) U(t_{k-1}, s) from segments integrated side by
side, so its cost is linear in the number of samples.  A check that judges
U(t, s), the axioms and the adjoint quotients alike, takes it from its
caller, which integrates it once for every check that needs it; the adjoint
check integrates only the short spans U(t + h, t) of its quotients.  An
``evolution`` run takes U(t, s) from the end of its series, so it integrates
its horizon twice: once as the chained series, and once split at
r = (s + t)/2 by :func:`check_evolution_axioms`.  The two paths share no step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .conjugation import check_involution, check_matrix_c_symmetry

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

# a coefficient ts -> the (len(ts), n, n) complex stack of B(t) at the times ts
_Coefficient = Callable[[Sequence[float]], np.ndarray]


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
# index of row i's first i entries in a batch of h-scaled tableaus (m, 8, 7)
_ROW_HEADS = [(slice(None), slice(i, i + 1), slice(None, i)) for i in range(8)]

_MIN_STEP_FACTOR = 1e-13
_MAX_GROWTH = 5.0
_MIN_SHRINK = 0.2
_SAFETY = 0.9


class _Span:
    """The step state of one span of a batch, in Python scalars."""

    __slots__ = ("index", "x", "t1", "h", "direction", "h_floor", "U_max",
                 "steps", "rejected", "max_err")

    def __init__(self, index: int, t0: float, t1: float) -> None:
        span = t1 - t0
        self.index, self.x, self.t1 = index, t0, t1
        self.h = span / 50.0
        self.direction = 1.0 if span > 0 else -1.0
        self.h_floor = abs(span) * _MIN_STEP_FACTOR
        self.U_max = 1.0  # max|U|, carried over from the accepted step's max|U5|
        self.steps = self.rejected = 0
        self.max_err = 0.0

    def stats(self) -> IntegratorStats:
        return IntegratorStats(steps=self.steps, rejected=self.rejected,
                               max_local_error=self.max_err)


def _stage_views(K: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Views of a batch's stages K (m, 7, n, n): stage i of every span, and
    the first i stages of every span as real rows (m, i, 2 n^2).

    A complex matrix viewed as float64 interleaves re and im, so a weighted
    sum of stages is one real row-vector times matrix product per span.
    """
    rows = K.reshape(len(K), 7, -1).view(np.float64)
    return [K[:, i] for i in range(7)], [rows[:, :i] for i in range(8)]


# The stages of one batch take at most this many bytes (or one span).  Past
# it a pass works out of memory rather than cache: on a Xeon with 2 MiB of L2
# per core and one BLAS thread, 128 spans at dim 32 cost 114 us per span and
# step in batches of 1 MiB, 131-143 us in one batch of 16 MiB and 131-137 us
# one span at a time (256 spans at dim 16: 26, 31-33 and 77-92 us).
_BATCH_BYTES = 1 << 20


def _integrate_spans(
    B: _Coefficient, spans: Sequence[tuple[float, float]], rel_tol: float
) -> tuple[np.ndarray, list[IntegratorStats]]:
    """The (len(spans), n, n) stack of U(t1, t0) for the spans (t0, t1) of B,
    and each span's integrator statistics.

    The spans are integrated side by side, in consecutive batches whose
    stages fit in ``_BATCH_BYTES``, each span with the arithmetic of a span
    integrated alone, so each result is the same to the bit whatever the
    batch.  If a span is too stiff, the StiffnessError raised is that of the
    first failing span in the order given, the one a loop over the spans
    would raise.
    """
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    # the size of the problem, and each span's first stage 1
    B_t0 = B([t0 for t0, _ in spans])
    dim = B_t0.shape[-1]
    mats = np.tile(np.eye(dim, dtype=complex), (len(spans), 1, 1))  # a zero span's U is I
    every = [_Span(j, t0, t1) for j, (t0, t1) in enumerate(spans)]
    batch = [sp for sp in every if sp.t1 != sp.x]
    if batch:
        B_0 = B_t0[[sp.index for sp in batch]]  # a copy: no value outlives its call
        size = max(1, _BATCH_BYTES // (7 * 16 * dim ** 2))
        for i in range(0, len(batch), size):
            _integrate_batch(B, batch[i:i + size], B_0[i:i + size], rel_tol, mats)
    return mats, [sp.stats() for sp in every]


# a step whose stages overflow has a non-finite error estimate and is
# rejected, so its overflow and invalid values are expected and stay silent
@np.errstate(over="ignore", invalid="ignore")
def _integrate_batch(B: _Coefficient, batch: list[_Span], B_0: np.ndarray,
                     rel_tol: float, mats: np.ndarray) -> None:
    """Integrate the spans of ``batch``, whose B(t0) are ``B_0``, side by side.

    Every pass of the loop attempts one step of each unfinished span, and a
    span leaves the batch when it is done; its U goes to
    ``mats[span.index]``, and its statistics stay in the span.  A span whose
    step size falls below its floor stops, and so does every later span,
    which cannot change what is raised: its StiffnessError is raised once
    every earlier span has finished.
    """
    m, dim = len(batch), B_0.shape[-1]
    U = np.repeat(np.eye(dim, dtype=complex)[None], m, axis=0)
    U_rows = U.reshape(m, 1, -1).view(np.float64)
    K = np.empty((m, 7, dim, dim), dtype=complex)  # the seven stages of each span
    K_out, K_in = _stage_views(K)
    np.matmul(B_0, U, out=K_out[0])  # later steps take stage 1 from stage 7
    Y = np.empty((m, dim, dim), dtype=complex)  # the argument of a stage
    Y_rows = Y.reshape(m, 1, -1).view(np.float64)
    failed: dict[int, StiffnessError] = {}
    while batch:
        m = len(batch)
        hT = np.array([sp.h for sp in batch])[:, None, None] * _TABLEAU
        B_all = B([sp.x + c * sp.h for sp in batch
                   for c in _STAGE_TIMES[1:6]]).reshape(m, 5, dim, dim)
        for i in range(1, 6):
            B_i = B_all[:, i - 1]
            # U + sum_j (h T[i, j]) k_j over the first i stages, as real rows
            np.add(U_rows, hT[_ROW_HEADS[i]] @ K_in[i], out=Y_rows)
            np.matmul(B_i, Y, out=K_out[i])
        U5_rows = U_rows + hT[_ROW_HEADS[_U5_ROW]] @ K_in[_U5_ROW]
        U5 = U5_rows.view(complex).reshape(m, dim, dim)
        np.matmul(B_i, U5, out=K_out[6])  # stages 6 and 7 share the time x + h
        err = (hT[_ROW_HEADS[_ERROR_ROW]] @ K_in[7]).view(complex)
        U5_max = np.maximum.reduce(abs(U5), axis=(1, 2)).tolist()
        err_max = np.maximum.reduce(abs(err), axis=(1, 2)).tolist()
        accepted, done = [], []
        for k, (sp, U5_max_k, err_max_k) in enumerate(zip(batch, U5_max, err_max)):
            scale = max(U5_max_k, sp.U_max, 1.0)
            local = err_max_k / scale
            h = sp.h
            budget = rel_tol * abs(h)  # error-per-unit-step control
            finite = math.isfinite(local)
            if finite and local <= budget:
                sp.x += h
                sp.U_max = U5_max_k
                accepted.append(k)
                sp.steps += 1
                sp.max_err = max(sp.max_err, local)
            else:
                sp.rejected += 1
            if not finite:
                h *= _MIN_SHRINK
            elif local > 0:
                h *= min(_MAX_GROWTH, max(_MIN_SHRINK, _SAFETY * (budget / local) ** 0.2))
            else:
                h *= _MAX_GROWTH
            if abs(h) < sp.h_floor:
                failed[sp.index] = StiffnessError(
                    f"step size {abs(h):.3e} underflowed at t = {sp.x:.6g}; "
                    "the coefficient family is too stiff for the 5(4) pair"
                )
                done.append(k)
            elif (sp.t1 - sp.x) * sp.direction <= 0:
                done.append(k)
            elif (sp.x + h - sp.t1) * sp.direction > 0:
                h = sp.t1 - sp.x  # the next step ends on t1; span/50 never passes it
            sp.h = h
        if len(accepted) == m:
            U, U_rows = U5, U5_rows
            np.copyto(K_out[0], K_out[6])
        elif accepted:
            U[accepted] = U5[accepted]
            K[accepted, 0] = K[accepted, 6]
        if done:
            for k in done:
                if batch[k].index not in failed:
                    mats[batch[k].index] = U[k]
            last = min(failed, default=math.inf)
            keep = [k for k, sp in enumerate(batch) if k not in done and sp.index < last]
            batch = [batch[k] for k in keep]
            if batch:
                U, K = U[keep], K[keep]
                U_rows = U.reshape(len(batch), 1, -1).view(np.float64)
                K_out, K_in = _stage_views(K)
                Y, Y_rows = Y[:len(batch)], Y_rows[:len(batch)]
    if failed:
        raise failed[min(failed)]


def evolve(
    B: _Coefficient, s: float, t: float, rel_tol: float = 1e-10
) -> EvolutionOperator:
    """Propagator U(t, s) for t >= s at the requested tolerance."""
    if t < s:
        raise ValueError(f"evolve requires t >= s, got t = {t} < s = {s}")
    (U,), (stats,) = _integrate_spans(B, [(s, t)], rel_tol)
    return EvolutionOperator(s=s, t=t, matrix=U, stats=stats)


def evolution_series(
    B: _Coefficient, times: Sequence[float], rel_tol: float = 1e-10
) -> tuple[np.ndarray, list[IntegratorStats]]:
    """The (len(times), n, n) stack of U(t_k, t_0) for non-decreasing times,
    chained segment by segment, and each segment's integrator statistics.

    U(t_k, t_0) = U(t_k, t_{k-1}) U(t_{k-1}, t_0), the segments integrated
    side by side, so the work is linear in the number of samples.
    """
    segments = [(float(a), float(b)) for a, b in zip(times[:-1], times[1:])]
    if any(b < a for a, b in segments):
        raise ValueError("evolution_series requires non-decreasing times")
    if not segments:  # one sample: U(t_0, t_0), with no span to size it
        return np.eye(B([times[0]]).shape[-1], dtype=complex)[None], []
    mats, stats = _integrate_spans(B, segments, rel_tol)
    series = np.empty((len(times), *mats.shape[1:]), dtype=complex)
    series[0] = np.eye(mats.shape[-1])
    for k, seg in enumerate(mats):
        np.matmul(seg, series[k], out=series[k + 1])
    return series, stats


def check_evolution_axioms(
    B: _Coefficient,
    times: tuple[float, float, float],
    U_ts: np.ndarray,
    rel_tol: float = 1e-10,
) -> tuple[float, float]:
    """(identity residual, composition residual) for s <= r <= t.

    Identity: max-abs of U(t, t) - I, exactly 0 by construction, since a
    zero span is I before any step.  The three spans are integrated side by
    side.  Composition: max-abs of
    U(t, r) U(r, s) - U_ts, where ``U_ts`` is the caller's U(t, s) at the
    same ``rel_tol``.
    """
    s, r, t = times
    if not s <= r <= t:
        raise ValueError(f"need s <= r <= t, got {times}")
    (U_tt, U_tr, U_rs), _ = _integrate_spans(B, [(t, t), (r, t), (s, r)], rel_tol)
    ident = U_tt - np.eye(len(U_ts))
    comp = U_tr @ U_rs - U_ts
    return float(np.max(np.abs(ident))), float(np.max(np.abs(comp)))


def check_adjoint_family(
    B: _Coefficient,
    U_ts: np.ndarray,
    t: float,
    z: np.ndarray,
    hs: Sequence[float],
    rel_tol: float = 1e-12,
) -> np.ndarray:
    """Difference-quotient residuals of d/dt [U(t,s)^H z] = U(t,s)^H B(t)^H z.

    For each h in ``hs``: ||(U(t+h,s)^H z - U(t,s)^H z)/h - U(t,s)^H B(t)^H z||,
    an O(h) quantity for smooth coefficients.  ``U_ts`` is the caller's
    U(t, s), and U(t+h, s) = U(t+h, t) U(t, s) through the cocycle, so each h
    integrates only the span [t, t+h], at ``rel_tol``, side by side.  Both
    terms of the quotient share U(t, s) and its integration error, which
    would otherwise enter the quotient divided by h.
    """
    if any(h <= 0 for h in hs):
        raise ValueError("h must be positive")
    z = np.asarray(z, dtype=complex)
    steps, _ = _integrate_spans(B, [(t, t + h) for h in hs], rel_tol)
    target = U_ts.conj().T @ (B([t])[0].conj().T @ z)
    at_t = U_ts.conj().T @ z
    return np.array([np.linalg.norm(((U_step @ U_ts).conj().T @ z - at_t) / h - target)
                     for h, U_step in zip(hs, steps)])


# M conj(M) = I must hold to rounding before B(s) M = M B(s)^T means anything
_INVOLUTION_TOL = 1e-12


def check_nonauto_stone(
    B: _Coefficient,
    conj_matrix: np.ndarray,
    s_grid: Sequence[float],
) -> np.ndarray:
    """Residuals ||B(s) M - M B(s)^T|| over the grid, for antilinear J = M conj.

    Validates that M defines an involution (``check_involution`` on every column)
    before measuring; a broken involution raises rather than producing residuals.
    """
    M = np.asarray(conj_matrix, dtype=complex)
    inv = np.max(check_involution(M, M.shape[0] - 1))
    if inv > _INVOLUTION_TOL:
        raise ValueError(
            f"conjugation matrix is not an involution: ||M conj(M) - I|| = {inv:.3e}"
        )
    return np.array([check_matrix_c_symmetry(B_s, M)
                     for B_s in B([float(sv) for sv in s_grid])])


def bagchi_hamiltonian(
    nu: float, kappa: Callable[[float], float], lam: Callable[[float], float]
) -> _Coefficient:
    """Two-level non-Hermitian model: H(t) = nu I + i k(t) s3 + (l(t)/2)(s+ + s-).

    With s3 = diag(1, -1), s+ = [[0, 2], [0, 0]], s- = [[0, 0], [2, 0]] the
    matrix is complex symmetric for all t; the propagator solves
    i U' = H(t) U, i.e. the coefficient returned is B(t) = -i H(t).  It
    calls ``kappa`` and ``lam`` once per time and forms each entry with the
    complex operations of the one-time matrix, so every value is the same
    to the bit whatever the other times of a call.
    """

    def B(ts: Sequence[float]) -> np.ndarray:
        k = np.array([kappa(t) for t in ts], dtype=complex)
        H = np.empty((len(k), 2, 2), dtype=complex)
        ik = 1j * k
        H[:, 0, 0], H[:, 1, 1] = nu + ik, nu - ik
        H[:, 0, 1] = H[:, 1, 0] = [lam(t) for t in ts]
        return -1j * H

    return B
