"""Nonautonomous evolution families U(t, s) solving U' = B(t) U, U(s, s) = I.

A coefficient B is any callable that maps a 1-D sequence of times ts to the
(len(ts), n, n) complex stack of B(t) at those times.  Its size n is read
from the one call at the start of each integration, at every span's s, whose
values are also the spans' first stage 1; a later value of another size
raises ValueError.  A coefficient may return a view, such as a constant
matrix broadcast over the times by ``np.broadcast_to`` (zero strides, no
copy); no value is used after the next call.  Where a coefficient is not
smooth, as a piecewise-linear table is at its knots, its caller hands those
times in as breaks, and they become extra times of the chains of
:func:`evolution_series`, so that no step straddles a kink, whose steps are
less accurate than their error estimate says.  A break costs at least about
four steps, so a caller names only the kinks large enough to cost accuracy.

The propagator is integrated as a full matrix with an adaptive embedded
Runge-Kutta pair of orders 5(4) (Dormand-Prince tableau).  Local error is
controlled per unit step so that the accumulated error over a path of modest
length stays at the order of the requested relative tolerance.  Each step's h
is first rounded to fl(x + h) - x, the step that its time x takes in floats,
so a span integrates exactly its length however far from 0 it lies; a span
whose error budget rel_tol |t - s| is subnormal takes I + (t - s) B(s), or
past ``_FIRST_ORDER`` the exponential of (t - s) B(s), and no step.

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
times x + c h of all m spans, one (m, 5) array, and views its values as
(m, 5, n, n).  All spans of a call share one tolerance; each keeps its own
time, step size, first-same-as-last stage, step floor and counts of
accepted and rejected steps: the controller holds one array per quantity
over the batch's unfinished spans, so the error scale, the acceptance test
and the next step size are each one array expression for all of them, and
a span that is done leaves the batch, its arrays, U and stages compacted
away together.  Batched products take the same BLAS call per span as a
single one, every controller operation is elementwise, and the step
factor's power stays a Python float power per span (numpy's rounds
differently), so each U and its statistics are the same to the bit
whatever else is in the batch.  Spans are batched in the order given, as
many at a time as keep the stage buffer within ``_BATCH_BYTES``.
:func:`evolve` is a batch of one.  Since every pass costs a fixed overhead
of numpy calls, each caller hands in all the spans of one coefficient and
one tolerance in one call: :func:`evolution_series` every span of an
``evolution`` run, and the suite the axioms stack of [0, 1], U(1, 1),
U(1, 0.5), U(0.5, 0) and U(1, 0), then U(0, 1) and the adjoint quotients'
short spans.

Checks cover the evolution-family axioms, the adjoint family's derivative
identity and the commutation relation B(s) J = J conj(B(s))  (written here as
B(s) M = M B(s)^T for the matrix part M of the antilinear J).  The induced
symmetry U(t,s) = J U(t,s)* J of the propagator for commuting families is
:func:`focksym.conjugation.check_matrix_c_symmetry` applied to U(t, s).

Spans come back as stacks, and :func:`evolution_series` is an ``evolution``
run: its docstring gives the plan of the run's spans and chains.  The checks
integrate nothing: :func:`check_evolution_axioms` judges the stack U(t, t),
U(t, r), U(r, s), U(t, s) that :func:`evolution_series` returns, and
:func:`check_adjoint_family` the
U(t + h, t) of :func:`adjoint_spans`, all integrated by their caller.  A
span too stiff to integrate raises StiffnessError, and one whose stages
overflow at steps well inside the pair's stability region OverflowError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .conjugation import check_involution, check_matrix_c_symmetry
from .generator import matrix_exponential

__all__ = [
    "IntegratorStats",
    "EvolutionOperator",
    "StiffnessError",
    "evolve",
    "evolution_series",
    "composition_pieces",
    "check_evolution_axioms",
    "adjoint_spans",
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


@dataclass(frozen=True)
class EvolutionOperator:
    """Propagator matrix from time s to time t with integrator statistics."""

    s: float
    t: float
    matrix: np.ndarray
    stats: IntegratorStats


class StiffnessError(RuntimeError):
    """A span's step size fell below its floor, 1e-13 of the span or the
    smallest subnormal if that is larger: the coefficient is too stiff for
    the 5(4) pair, or the span needs more steps than the floor allows."""


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
_TINY = math.ulp(0.0)  # the smallest subnormal double
_NORMAL = np.finfo(float).tiny  # the smallest normal double
_MAX_GROWTH = 5.0
_MIN_SHRINK = 0.2
_SAFETY = 0.9


def _stage_views(K: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Views of a batch's stages K (m, 7, n, n): stage i of every span, and
    the first i stages of every span as real rows (m, i, 2 n^2).

    A complex matrix viewed as float64 interleaves re and im, so a weighted
    sum of stages is one real row-vector times matrix product per span.
    """
    rows = K.reshape(len(K), 7, -1).view(np.float64)
    return [K[:, i] for i in range(7)], [rows[:, :i] for i in range(8)]


# A span whose error budget rel_tol |b - a| is below the smallest normal
# double, and with ||(b - a) B(a)||_1 below _FIRST_ORDER, takes
# U = I + (b - a) B(a): the terms of e^{(b - a) B} it leaves out are about
# ||(b - a) B(a)||_1^2 / 2, below 2^-53, and over a span this short B cannot
# move measurably unless its derivative is past 1e280 or so.  The norm is
# taken of the product, so entries near 1e308 do not overflow it: [[1e290]]
# over (0, 1e-305) takes I + 1e-15.  The step loop crawls on such spans: the
# two-level model of evolve over (0, L) at rel_tol 1e-10 took 0.7 s for
# L = 3e-319, 2.8 s for 1e-313 and more than 10 s for L from 1e-318 to
# 1e-314, and it cannot control an error below a subnormal budget.  Against
# the 50-digit exponential, I + L B(0) erred by at most 1e-32 for L from
# 1e-16 to 1e-321 on a constant and a cosine two-level model.  The norm test
# alone is not enough: it takes U = I for a coefficient that vanishes at a,
# and max(-800, 1600 (t - 1.5)) over (1.5, 2.5) grows by e^800.  Past
# _FIRST_ORDER such a span takes the Pade exponential of (b - a) B(a), which
# is U to rounding while B stays put over the span: the constant [[1e300]]
# over (0, 1e-305) takes e^{1e-5}, where the step loop's steps fell below
# their floor.
_FIRST_ORDER = 2.0 ** -26

# The stages of one batch take at most this many bytes (or one span).  The
# bound holds a pass's memory down on runs of many spans of a large B: one
# evolution run of a dim-64 table at 201 samples over [0, 5] hands in 301
# spans, two per batch, and peaked at 63.8 MB traced (tracemalloc) against
# 669.4 MB with the batch unbounded, in 1.56 against 2.23 s (the fastest of
# three runs, one BLAS thread, a shared 2-CPU host).  No call of the
# benchmark's workloads is split: their largest is 3 spans of dim 32.
_BATCH_BYTES = 1 << 20


def _integrate_spans(
    B: _Coefficient, spans: Sequence[tuple[float, float]], rel_tol: float,
) -> tuple[np.ndarray, list[IntegratorStats]]:
    """The (len(spans), n, n) stack of U(t1, t0) for the spans (t0, t1) of B,
    and each span's integrator statistics.

    Every span is integrated at ``rel_tol``, side by side, in consecutive
    batches whose stages fit in ``_BATCH_BYTES``, each span with the
    arithmetic of a span integrated alone, so each result is the same to
    the bit whatever the batch.  If a span fails, the error raised is that
    of the first failing span in the order given, the StiffnessError or
    OverflowError a loop over the spans would raise; but the exponentials of
    subnormal budgets are taken first, so an OverflowError of one of them
    is raised before any step.  The spans' ends and statistics are arrays,
    and each batch's step controller is arrays over its spans
    (:func:`_integrate_batch`).
    """
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    # the size of the problem, and each span's first stage 1
    B_t0 = B([t0 for t0, _ in spans])
    dim = B_t0.shape[-1]
    mats = np.tile(np.eye(dim, dtype=complex), (len(spans), 1, 1))  # a zero span's U is I
    stats = np.zeros((2, len(spans)), dtype=int)  # steps, rejected steps
    ends = np.array(spans, dtype=float).reshape(-1, 2)
    length = ends[:, 1] - ends[:, 0]
    # a span whose error budget is subnormal takes no step: U = I + (b - a) B(a)
    # where ||(b - a) B(a)||_1 is below _FIRST_ORDER, else e^{(b - a) B(a)},
    # whose inf raises OverflowError; a product that overflows (inf, or nan)
    # takes the step loop
    loop = length != 0
    subnormal = np.flatnonzero(loop & (rel_tol * abs(length) < _NORMAL))
    with np.errstate(over="ignore", invalid="ignore"):
        step = length[subnormal, None, None] * B_t0[subnormal]
        norm = np.abs(step).sum(axis=-2).max(axis=-1)
        small, past = norm < _FIRST_ORDER, np.isfinite(norm) & (norm >= _FIRST_ORDER)
        mats[subnormal[small]] += step[small]
        for i, S in zip(subnormal[past].tolist(), step[past]):
            mats[i] = matrix_exponential(S)
    loop[subnormal[small | past]] = False
    moving = np.flatnonzero(loop)
    B_0 = B_t0[moving]  # a copy: no value outlives its call
    size = max(1, _BATCH_BYTES // (7 * 16 * dim ** 2))
    for i in range(0, len(moving), size):
        index = moving[i:i + size]
        _integrate_batch(B, index, ends[index], rel_tol, B_0[i:i + size], mats, stats)
    return mats, [IntegratorStats(*st) for st in zip(*stats.tolist())]


# the stage times of a step after its first, as fractions of h
_STEP_TIMES = np.array(_STAGE_TIMES[1:6])


# a step whose stages overflow has a non-finite error estimate and is
# rejected, so its overflow and invalid values are expected and stay silent,
# and so is the division by a zero error estimate, whose step grows fivefold
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _integrate_batch(B: _Coefficient, index: np.ndarray, ends: np.ndarray, tol: float,
                     B_0: np.ndarray, mats: np.ndarray, stats: np.ndarray) -> None:
    """Integrate the spans ``ends`` (t0, t1) at ``tol``, whose B(t0) are
    ``B_0``, side by side; they are spans ``index`` of the caller.

    The controller is one array per quantity over the unfinished spans:
    time, end, step size, direction, step floor, max|U| and accepted steps.
    Every pass of the loop attempts one step of each unfinished span, so a
    span's rejected steps are its passes less its accepted ones.  The error
    scale, the acceptance test and the next step size are each one array
    expression; only the step factor's power is a Python float power per
    span, since numpy's rounds differently.  A span leaves the batch when it
    is done: its U goes to ``mats[index]`` and its steps and rejected steps
    to ``stats[:, index]``, and the arrays, U and the stages of the spans
    left are compacted together.  A span whose step size falls below its
    floor stops, and so does every later span, which cannot change what is
    raised: the error of the first failing span, of :func:`_floor_error`, is
    raised once every earlier span has finished.
    """
    (x, t1), span = ends.T.copy(), ends[:, 1] - ends[:, 0]
    direction = np.sign(span)
    # a first step and a floor of at least the smallest subnormal: below
    # 50 of it, span/50 and the floor would round to 0, and x never move
    h = direction * np.maximum(abs(span) / 50.0, _TINY)
    h_floor = np.maximum(abs(span) * _MIN_STEP_FACTOR, _TINY)
    U_max = np.ones(len(x))  # max|U|, carried over from the accepted step's max|U5|
    steps = np.zeros(len(x), dtype=int)
    m, dim = B_0.shape[:2]
    U = np.repeat(np.eye(dim, dtype=complex)[None], m, axis=0)
    U_rows = U.reshape(m, 1, -1).view(np.float64)
    K = np.empty((m, 7, dim, dim), dtype=complex)  # the seven stages of each span
    K_out, K_in = _stage_views(K)
    np.matmul(B_0, U, out=K_out[0])  # later steps take stage 1 from stage 7
    Y = np.empty((m, dim, dim), dtype=complex)  # the argument of a stage
    Y_rows = Y.reshape(m, 1, -1).view(np.float64)
    failed: dict[int, Exception] = {}
    passes = 0  # each span of the batch attempts one step per pass until it leaves
    while True:
        m, passes = len(x), passes + 1
        # the step that x + h takes in floats: x advances by exactly the h
        # that the step integrates, however far from 0 it is, and by one
        # float where h is below half of one
        h = (x + h) - x
        if not h.all():
            h = np.where(h == 0, np.nextafter(x, t1) - x, h)
        hT = h[:, None, None] * _TABLEAU
        B_all = B((x[:, None] + _STEP_TIMES * h[:, None]).ravel()).reshape(m, 5, dim, dim)
        for i in range(1, 6):
            B_i = B_all[:, i - 1]
            # U + sum_j (h T[i, j]) k_j over the first i stages, as real rows
            np.add(U_rows, hT[_ROW_HEADS[i]] @ K_in[i], out=Y_rows)
            np.matmul(B_i, Y, out=K_out[i])
        U5_rows = U_rows + hT[_ROW_HEADS[_U5_ROW]] @ K_in[_U5_ROW]
        U5 = U5_rows.view(complex).reshape(m, dim, dim)
        np.matmul(B_i, U5, out=K_out[6])  # stages 6 and 7 share the time x + h
        err = (hT[_ROW_HEADS[_ERROR_ROW]] @ K_in[7]).view(complex)
        U5_max = np.maximum.reduce(abs(U5), axis=(1, 2))
        scale = np.maximum(np.maximum(U5_max, U_max), 1.0)
        local = np.maximum.reduce(abs(err), axis=(1, 2)) / scale
        budget = tol * abs(h)  # error-per-unit-step control
        finite = np.isfinite(local)
        accepted = finite & (local <= budget)
        np.add(x, h, out=x, where=accepted)
        np.copyto(U_max, U5_max, where=accepted)
        steps += accepted
        np.copyto(U, U5, where=accepted[:, None, None])
        np.copyto(K_out[0], K_out[6], where=accepted[:, None, None])
        # a Python float power per span: numpy's power rounds differently
        power = np.array([ratio ** 0.2 for ratio in (budget / local).tolist()])
        factor = np.where(local > 0, np.minimum(_MAX_GROWTH,
                                                np.maximum(_MIN_SHRINK, _SAFETY * power)),
                          _MAX_GROWTH)
        h = h * np.where(finite, factor, _MIN_SHRINK)
        fail = abs(h) < h_floor
        done = fail | ((t1 - x) * direction <= 0)
        if done.any():
            for k in np.flatnonzero(fail).tolist():
                failed[int(index[k])] = _floor_error(float(x[k]), float(U_max[k]), float(h[k]),
                                                     float(h_floor[k]), bool(finite[k]), K[k])
            finished = done & ~fail
            mats[index[finished]] = U[finished]
            stats[:, index[done]] = steps[done], passes - steps[done]
            keep = ~done & (index < min(failed, default=math.inf))
            if not keep.any():
                break
            x, t1, h, direction, h_floor, U_max, steps, index, U, K = (
                a[keep] for a in (x, t1, h, direction, h_floor, U_max, steps, index, U, K))
            U_rows = U.reshape(len(U), 1, -1).view(np.float64)
            K_out, K_in = _stage_views(K)
            Y, Y_rows = Y[:len(U)], Y_rows[:len(U)]
        # the next step ends on t1; span/50 never passes it
        h = np.where((x + h - t1) * direction > 0, t1 - x, h)
    if failed:
        raise failed[min(failed)]


# a step h with h times B's scale at most this is well inside the 5(4)
# pair's stability region, which reaches about 3.3 along the negative real axis
_STABLE_STEP = 1.0


def _floor_error(x: float, U_max: float, h: float, floor: float, finite: bool,
                 K: np.ndarray) -> Exception:
    """Why the step h of a span at time ``x``, whose max|U| is ``U_max``, fell
    below its ``floor``: OverflowError if its last error estimate was
    non-finite because its stages ``K`` overflowed at a step well inside the
    stability region, where only the size of U can overflow them, or else
    StiffnessError, which names the floor and says "underflowed" only where
    the floor is the smallest subnormal."""
    if not finite and np.isinf(K[1:]).any():
        # B's scale, from stage 1, B(x) U
        rate = float(np.max(abs(K[0]))) / U_max if U_max else math.inf
        if abs(h) * rate <= _STABLE_STEP:
            return OverflowError("the propagator leaves the double range after "
                                 f"t = {x:.6g}")
    fell, floor_is = (("underflowed below its floor", "the smallest subnormal") if floor == _TINY
                      else ("fell below its floor", f"{_MIN_STEP_FACTOR:g} of the span"))
    return StiffnessError(f"step size {abs(h):.3e} at t = {x:.6g} {fell} {floor:.3e}, "
                          f"{floor_is}: the coefficient family is too stiff for the 5(4) "
                          "pair, or the span needs more steps than the floor allows")


def evolve(
    B: _Coefficient, s: float, t: float, rel_tol: float = 1e-10
) -> EvolutionOperator:
    """Propagator U(t, s) for t >= s at the requested tolerance."""
    if t < s:
        raise ValueError(f"evolve requires t >= s, got t = {t} < s = {s}")
    (U,), (stats,) = _integrate_spans(B, [(s, t)], rel_tol)
    return EvolutionOperator(s=s, t=t, matrix=U, stats=stats)


def series_segments(times: Sequence[float]) -> list[tuple[float, float]]:
    """The spans (t_{k-1}, t_k) of a series over non-decreasing times."""
    return [(float(a), float(b)) for a, b in zip(times[:-1], times[1:])]


# a chain or a product that overflows is checked for afterwards, so its
# overflow and invalid values stay silent
@np.errstate(over="ignore", invalid="ignore")
def chain_series(segments: np.ndarray, times: Sequence[float]) -> np.ndarray:
    """The (len(times), n, n) stack of U(t_k, t_0) from the stack of the
    segments U(t_k, t_{k-1}), chained in place through the cocycle.

    Raises OverflowError at the first t_k where U(t_k, t_0) leaves the double
    range.
    """
    series = np.empty((len(segments) + 1, *segments.shape[1:]), dtype=complex)
    series[0] = np.eye(segments.shape[-1])
    for k, seg in enumerate(segments):
        np.matmul(seg, series[k], out=series[k + 1])
        if not np.isfinite(series[k + 1]).all():
            raise OverflowError("the propagator leaves the double range at "
                                f"t = {times[k + 1]:.6g}")
    return series


def break_grid(times: Sequence[float], breaks: Sequence[float]
               ) -> tuple[np.ndarray, np.ndarray]:
    """Non-decreasing ``times`` with every break strictly inside
    (times[0], times[-1]) that is none of them merged in, in order, and the
    index of each of ``times`` in the merged grid."""
    times = np.asarray(times, dtype=float)
    # sorted, each once; np.setdiff1d would import numpy.ma, 0.75 MB, on first use
    inner = np.array(sorted({float(b) for b in breaks}.difference(times.tolist())), dtype=float)
    inner = inner[(times[0] < inner) & (inner < times[-1])]
    return (np.insert(times, np.searchsorted(times, inner), inner),
            np.arange(len(times)) + np.searchsorted(inner, times))


def composition_pieces(segments: Sequence[tuple[float, float]]
                       ) -> tuple[list[tuple[float, float]], int]:
    """The pieces (b_{j-1}, b_j) from s to t over a series' n segments, and
    the number of pieces before r, whose chains give the U(r, s) and U(t, r)
    that the composition law judges against the chained U(t, s).

    Pieces pair consecutive segments, and the last one takes three when n is
    odd, so no piece is a segment.  r is the start of the piece nearest
    (s + t)/2, the first of two tied: s when there is only one piece.  One
    segment is split at r = (s + t)/2 instead.
    """
    n = len(segments)
    if n == 1:
        [(s, t)] = segments
        r = s + (t - s) / 2
        return [(s, r), (r, t)], 1
    heads = list(range(0, n - 1, 2))  # the index of each piece's first segment
    pieces = [(segments[i][0], segments[j - 1][1]) for i, j in zip(heads, heads[1:] + [n])]
    return pieces, min(range(len(heads)), key=lambda k: abs(2 * heads[k] - n))


# A span takes the U of the first span of its length in half sample spacings
# when their float lengths differ by at most this share of the step loop's
# error budget for that span, rel_tol (b - a), over ||M||_1.  Equal spacings
# differ in floats by the rounding of their times, a few ulps of the largest
# time, which a chain of shared spans adds up, so a grid far from 0
# integrates its strays on their own: over [1e5, 1e5 + 1], 201 samples of a
# unit rotation read 1.16 and 1.98 times the bounds of exponential-route and
# composition with every span shared by length, and 0.12 and 0.39 with the
# strays apart (0.34 and 0.00 sharing only equal float lengths; 48 grids in
# BENCH_samelength.json, none of which passes unshared and fails here).
_SHARE_SLACK = 0.01


def evolution_series(
    B: _Coefficient, span: tuple[float, float], samples: int, rel_tol: float,
    breaks: Sequence[float] = (), M: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An ``evolution`` run of B over span = (s, t): the ``samples`` times
    t_k from s to t, the (samples, n, n) series U(t_k, s), and the stack of
    U(t, t), U(t, r), U(r, s) and U(t, s) that :func:`check_evolution_axioms`
    judges.  A backward span, t < s, raises ValueError, as :func:`evolve` does.

    The series is chained through the cocycle
    U(t_k, s) = U(t_k, t_{k-1}) U(t_{k-1}, s) from its segments, so its cost
    is linear in the number of samples, and it ends at U(t, s), since
    linspace sets its endpoint exactly.  One sample keeps only the chain's
    first row, I, and the chain runs from s to t for U(t, s).  U(r, s) and
    U(t, r) are the chains of the pieces of :func:`composition_pieces`, each
    about two segments long, so the composition law compares two paths that
    share no step.  B's ``breaks`` are extra times of both chains
    (:func:`break_grid`): a segment or a piece that holds a break is two or
    more spans, multiplied one by one into its chain, and the sample rows
    are kept; the two paths then share the spans between a common segment
    boundary and a break.

    One step loop integrates every span: the series' cuts, U(t, t) and the
    pieces' cuts, in that order, so the loop's passes are set by pieces
    about two segments long rather than by two halves of the horizon.  A
    constant coefficient, whose matrix is ``M`` and which has no breaks,
    generates the semigroup U(b, a) = e^{(b - a) M}, so spans of one length
    share one U: the loop integrates only the first span of each length in
    half sample spacings, round((b - a) / h) for h half a spacing (0 when
    t = s), in order of first appearance and at its own (a, b), and every
    later span of that length takes its U, unless its float length strays
    from the first's by more than ``_SHARE_SLACK`` of the span's error
    budget.  Every span is integrated before any chain
    is formed, so an integration failure, the StiffnessError or
    OverflowError of the first failing span, is raised before an overflow
    of a chain, which raises OverflowError at the first time where the
    chain leaves the double range.  The span stack is released on return.
    """
    s, t = span
    if t < s:
        raise ValueError(f"evolution_series requires t >= s, got t = {t} < s = {s}")
    # linspace's rounded step overshoots t on a grid of subnormal spacing
    times = np.minimum(np.linspace(s, t, samples), t)
    segments = series_segments(times) or [span]
    pieces, before = composition_pieces(segments)
    grid, rows = break_grid([a for a, _ in segments] + [t], breaks)
    bounds, at = break_grid([a for a, _ in pieces] + [t], breaks)
    cuts = series_segments(grid)
    spans = cuts + [(t, t)] + series_segments(bounds)
    if M is None:
        mats, _ = _integrate_spans(B, spans, rel_tol)
    else:
        with np.errstate(over="ignore"):  # an inf norm makes each span of another length a stray
            norm = float(np.abs(M).sum(axis=0).max())
        half = (t - s) / (2 * len(segments))  # half a sample spacing
        firsts, keys = {}, []  # each key's first span, in order of first appearance
        for a, b in spans:
            units = round((b - a) / half) if half else 0
            a0, b0 = firsts.setdefault(units, (a, b))
            stray = abs((b - a) - (b0 - a0)) * norm > _SHARE_SLACK * rel_tol * (b0 - a0)
            keys.append((a, b) if stray else units)
            firsts.setdefault(keys[-1], (a, b))
        U, _ = _integrate_spans(B, list(firsts.values()), rel_tol)
        slot = {key: k for k, key in enumerate(firsts)}
        mats = U[[slot[key] for key in keys]]
    chain = chain_series(mats[:len(cuts)], grid)
    U_pieces, r = mats[len(cuts) + 1:], at[before]
    U_rs = chain_series(U_pieces[:r], bounds[:r + 1])[-1]
    U_tr = chain_series(U_pieces[r:], bounds[r:])[-1]
    return times, chain[rows[:samples]], np.stack([mats[len(cuts)], U_tr, U_rs, chain[-1]])


@np.errstate(over="ignore", invalid="ignore")
def product_residual(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> float:
    """The componentwise residual of A B = C: the max over entries of
    |A B - C| / (|A| |B|), where an entry of |A| |B| below the smallest
    normal double counts as that number.

    It is the standard error measure of a product, |fl(A B) - A B| <=
    gamma_n |A| |B| (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., 2002, section 3.5).  It is invariant under diagonal
    scaling, so a propagator's growing or decaying column is judged relative
    to its own size, as the step loop's error control is.  Below the normal
    range entries lose relative accuracy to underflow, so there the residual
    is absolute: over a subnormal span, U(t, s) = I + (t - s) B(s) holds an
    entry that both of its halves round to 0.
    """
    size = np.maximum(np.abs(A) @ np.abs(B), _NORMAL)
    return float(np.max(np.abs(A @ B - C) / size))


def column_residual(U: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Each column's error of U against the exact propagator E: its max-abs
    difference from E's column over that column's own max-abs entry.

    A column that decays is so judged relative to its size, not to the
    largest column.  A column of E that underflows to 0 reads 0 where U's
    column is 0 too, and inf otherwise.
    """
    err = np.max(np.abs(U - E), axis=0)
    size = np.max(np.abs(E), axis=0)
    return np.divide(err, size, out=np.where(err > 0, np.inf, 0.0), where=size > 0)


@np.errstate(over="ignore", invalid="ignore")
def check_evolution_axioms(axioms: np.ndarray) -> tuple[float, float]:
    """(identity residual, composition residual) for s <= r <= t.

    ``axioms`` is the stack of U(t, t), U(t, r), U(r, s) and U(t, s) that
    :func:`evolution_series` returns, all integrated by the caller at one
    tolerance.  Identity: max-abs of U(t, t) - I, exactly 0 by
    construction, since a zero span is I before any step.  Composition: the
    componentwise :func:`product_residual` of U(t, r) U(r, s) = U(t, s).
    Raises OverflowError when the product leaves the double range.
    """
    U_tt, U_tr, U_rs, U_ts = axioms
    if not np.isfinite(U_tr @ U_rs).all():
        raise OverflowError("the propagator U(t, r) U(r, s) leaves the double range")
    ident = U_tt - np.eye(len(U_ts))
    return float(np.max(np.abs(ident))), product_residual(U_tr, U_rs, U_ts)


def adjoint_spans(t: float, hs: Sequence[float]) -> list[tuple[float, float]]:
    """The short spans (t, t + h) whose propagators :func:`check_adjoint_family`
    takes, one per positive h."""
    if any(h <= 0 for h in hs):
        raise ValueError("h must be positive")
    return [(t, t + h) for h in hs]


def check_adjoint_family(
    B: _Coefficient,
    U_ts: np.ndarray,
    t: float,
    z: np.ndarray,
    hs: Sequence[float],
    U_steps: np.ndarray,
) -> np.ndarray:
    """Difference-quotient residuals of d/dt [U(t,s)^H z] = U(t,s)^H B(t)^H z.

    For each h in ``hs``: ||(U(t+h,s)^H z - U(t,s)^H z)/h - U(t,s)^H B(t)^H z||,
    an O(h) quantity for smooth coefficients.  ``U_ts`` is the caller's
    U(t, s) and ``U_steps`` its U(t + h, t) over :func:`adjoint_spans`, and
    U(t+h, s) = U(t+h, t) U(t, s) through the cocycle.  Both terms of the
    quotient share U(t, s) and its integration error, which would otherwise
    enter the quotient divided by h.
    """
    z = np.asarray(z, dtype=complex)
    target = U_ts.conj().T @ (B([t])[0].conj().T @ z)
    at_t = U_ts.conj().T @ z
    return np.array([np.linalg.norm(((U_step @ U_ts).conj().T @ z - at_t) / h - target)
                     for h, U_step in zip(hs, U_steps)])


# M conj(M) = I must hold to rounding before B(s) M = M B(s)^T means anything
_INVOLUTION_TOL = 1e-12


def check_nonauto_stone(
    B: _Coefficient,
    conj_matrix: np.ndarray,
    s_grid: Sequence[float],
) -> float:
    """The worst residual ||B(s) M - M B(s)^T|| over the grid, for antilinear
    J = M conj.

    Validates that M defines an involution (``check_involution`` on every column)
    before measuring; a broken involution raises rather than producing a residual.
    """
    M = np.asarray(conj_matrix, dtype=complex)
    inv = check_involution(M, M.shape[0] - 1)
    if inv > _INVOLUTION_TOL:
        raise ValueError(
            f"conjugation matrix is not an involution: ||M conj(M) - I|| = {inv:.3e}"
        )
    return float(np.max([check_matrix_c_symmetry(B_s, M)
                         for B_s in B([float(sv) for sv in s_grid])]))


def bagchi_hamiltonian(
    nu: float, kappa: Callable[[np.ndarray], np.ndarray],
    lam: Callable[[np.ndarray], np.ndarray],
) -> _Coefficient:
    """Two-level non-Hermitian model: H(t) = nu I + i k(t) s3 + (l(t)/2)(s+ + s-).

    With s3 = diag(1, -1), s+ = [[0, 2], [0, 0]], s- = [[0, 0], [2, 0]] the
    matrix is complex symmetric for all t; the propagator solves
    i U' = H(t) U, i.e. the coefficient returned is B(t) = -i H(t).
    ``kappa`` and ``lam`` map an array of times to the array of their real
    values, each computed element by element, as ``amp * np.cos(freq * ts)``
    is; each entry is formed with the complex operations of the one-time
    matrix, so every value is the same to the bit whatever the other times
    of a call.
    """

    def B(ts: Sequence[float]) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        ik = 1j * np.asarray(kappa(ts), dtype=complex)
        H = np.empty((len(ts), 2, 2), dtype=complex)
        H[:, 0, 0], H[:, 1, 1] = nu + ik, nu - ik
        H[:, 0, 1] = H[:, 1, 0] = lam(ts)
        return -1j * H

    return B
