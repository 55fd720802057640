"""Non-autonomous propagators: axioms, two-level model, symmetry checks."""

import bisect
import cmath
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from focksym import cli, evolution, verification
from focksym.conjugation import check_matrix_c_symmetry
from focksym.evolution import (
    IntegratorStats,
    StiffnessError,
    adjoint_spans,
    bagchi_hamiltonian,
    break_grid,
    check_adjoint_family,
    check_evolution_axioms,
    check_nonauto_stone,
    composition_pieces,
    evolution_series,
    evolve,
    product_residual,
    _integrate_spans,
)


def _integrate(B, t0, t1, rel_tol):
    """U(t1, t0) and its statistics, integrated as a batch of one span."""
    (U,), (stats,) = _integrate_spans(B, [(t0, t1)], rel_tol)
    return U, stats


def _chain(B, times, rel_tol=1e-10, breaks=()):
    """U(t_k, t_0) over any non-decreasing times, chained through the breaks
    between them, and the statistics of its spans: the series chain of
    evolution_series over a grid of the caller's choice."""
    grid, rows = break_grid(times, breaks)
    mats, stats = _integrate_spans(B, evolution.series_segments(grid), rel_tol)
    return evolution.chain_series(mats, grid)[rows], stats


def _constant(M):
    """The coefficient that is M at every time, broadcast over the times."""
    M = np.asarray(M, dtype=complex)
    return lambda ts: np.broadcast_to(M, (len(ts), *M.shape))


def _flat(v):
    """A parameter function of the two-level model that is v at every time."""
    return lambda ts: np.full(len(ts), v)


def _closed_form(nu, kappa, lam, tau):
    """exp(-i tau H) for the constant two-level matrix, by hand.

    (H - nu I)^2 = (lam^2 - kappa^2) I, so the exponential collapses to
    cos/sin of mu = sqrt(lam^2 - kappa^2); cmath.sqrt keeps the formula
    valid when kappa > lam (mu imaginary, trig goes hyperbolic).
    """
    H = np.array([[nu + 1j * kappa, lam], [lam, nu - 1j * kappa]], dtype=complex)
    mu = cmath.sqrt(lam**2 - kappa**2)
    shifted = H - nu * np.eye(2)
    if mu == 0:
        core = np.eye(2) - 1j * tau * shifted  # nilpotent shifted part
    else:
        core = cmath.cos(mu * tau) * np.eye(2) - 1j * (
            cmath.sin(mu * tau) / mu
        ) * shifted
    return cmath.exp(-1j * tau * nu) * core


# --- plumbing ----------------------------------------------------------------

def test_coefficient_changing_size_mid_run_raises():
    # the size is read from the call at s; a later value of another size
    # cannot be multiplied into the stages
    def B(ts):
        n = 2 if list(ts) == [0.0] else 3
        return np.zeros((len(ts), n, n), dtype=complex)

    with pytest.raises(ValueError):
        evolve(B, 0.0, 1.0)


def test_evolve_rejects_reversed_interval():
    B = _constant(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="t >= s"):
        evolve(B, 1.0, 0.0)
    with pytest.raises(ValueError, match="rel_tol"):
        evolve(B, 0.0, 1.0, rel_tol=0.0)


def test_zero_span_is_identity_with_zero_steps():
    B = bagchi_hamiltonian(1.0, _flat(0.3), _flat(0.5))
    op = evolve(B, 0.7, 0.7)
    np.testing.assert_array_equal(op.matrix, np.eye(2))
    assert op.stats.steps == 0
    assert op.stats.rejected == 0


def test_integrator_stats_are_sane():
    B = bagchi_hamiltonian(1.0, lambda ts: 0.5 * np.cos(ts), _flat(0.8))
    op = evolve(B, 0.0, 2.0, rel_tol=1e-10)
    assert op.s == 0.0 and op.t == 2.0
    assert op.stats.steps >= 1
    assert op.stats.rejected >= 0


# --- two-parameter family axioms ----------------------------------------------

@pytest.mark.parametrize("rel_tol", [1e-8, 1e-10, 1e-12])
def test_axioms_within_budget(rel_tol):
    B = bagchi_hamiltonian(1.0, lambda ts: 0.5 * np.cos(ts), lambda ts: 0.8 + 0.1 * ts)
    U_ts = evolve(B, 0.0, 1.5, rel_tol).matrix
    # U(t, t), U(t, r) and U(r, s) at (s, r, t) = (0, 0.6, 1.5)
    U_axioms, _ = _integrate_spans(B, [(1.5, 1.5), (0.6, 1.5), (0.0, 0.6)], rel_tol)
    ident, comp = check_evolution_axioms(U_axioms, U_ts)
    assert ident == 0.0  # U(t, t) never integrates
    assert comp <= 10.0 * rel_tol


@pytest.mark.parametrize("span", [(0.0, 2.0), (0.5, 2.5), (-3.0, 7.0)])
def test_composition_pieces_share_no_span_with_the_series(span):
    s, t = span
    for samples in range(1, 41):
        times = np.linspace(s, t, samples)
        segments = evolution.series_segments(times) or [span]
        pieces, before = composition_pieces(segments)
        # the pieces run from s to t, each where the one before it ends, and r
        # is one of their boundaries
        bounds = [a for a, _ in pieces] + [t]
        assert bounds[0] == s and [b for _, b in pieces] == bounds[1:]
        assert not set(pieces) & set(segments)
        if len(segments) == 1:  # halves at (s + t)/2, which no segment holds
            assert bounds == [s, s + (t - s) / 2, t] and before == 1
            continue
        # the boundaries are sample times two apart, or three for the last piece
        # of an odd count; r is the one nearest (s + t)/2, or s for one piece
        at = [times.tolist().index(b) for b in bounds]
        n = len(segments)
        assert np.diff(at).tolist() == [2] * (n // 2 - 1) + [2 + n % 2]
        if len(pieces) == 1:
            assert before == 0
        else:
            assert abs(2 * at[before] - n) == min(abs(2 * k - n) for k in at)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_axioms_raise_when_the_composition_overflows():
    big = 1e200 * np.eye(2, dtype=complex)
    with pytest.raises(OverflowError, match=r"U\(t, r\) U\(r, s\) leaves the double range"):
        check_evolution_axioms(np.stack([np.eye(2), big, big]), np.eye(2))


def test_product_residual_judges_each_entry_against_its_own_size():
    rng = np.random.default_rng(2)
    A, B = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    C = A @ B
    C[1, 2] *= 1 + 1e-9
    residual = product_residual(A, B, C)
    assert 1e-10 < residual < 1e-8
    # rows and columns scaled by powers of two, exactly: the same reading
    D1, D2 = np.diag(2.0 ** np.array([-300, 0, 300])), np.diag(2.0 ** np.array([200, -90, 0]))
    assert product_residual(D1 @ A, B @ D2, D1 @ C @ D2) == residual
    # an entry of size 1e-200 off by its own size reads 1, where max-abs reads 1e-200
    small = np.diag([1e-100, 1.0])
    assert product_residual(small, small, np.diag([2e-200, 1.0])) == 1.0
    # below the normal range the residual is absolute: 0/0 reads 0, and an
    # entry that both factors round to 0 reads a subnormal over the smallest normal
    zero = np.zeros((1, 1))
    assert product_residual(zero, zero, zero) == 0.0
    assert product_residual(zero, zero, np.full((1, 1), 5e-324)) < 1e-15


@pytest.mark.parametrize("L", [3e-319, 1e-315, 1e-311])
def test_a_span_with_a_subnormal_error_budget_takes_no_step(L):
    # rel_tol L is subnormal, where the step loop crawled for minutes; the
    # propagator is I + L B(0) to rounding
    B, calls = _bagchi_cosine(), []

    def counted(ts):
        calls.append(len(ts))
        assert len(calls) == 1, "the step loop runs"
        return B(ts)

    _, series, axioms = evolution_series(counted, (0.0, L), 2, 1e-10)
    assert calls == [4]  # every span's start: the segment, U(t, t) and two halves
    assert np.array_equal(series[-1], np.eye(2) + L * B([0.0])[0])
    assert check_evolution_axioms(axioms[:3], axioms[3]) == (0.0, 0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entry, L", [(1e290, 1e-305), (-1e290, 1e-305), (1e285, 1e-300)])
def test_a_large_norm_over_a_subnormal_budget_takes_no_step(entry, L):
    # ||B|| L is far below 2^-26, but ||B|| alone is near the double range;
    # the step loop raised StiffnessError on these spans
    U, stats = _integrate(_constant([[entry]]), 0.0, L, 1e-10)
    assert stats == IntegratorStats(0, 0)
    assert U[0, 0] == 1 + L * entry


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_subnormal_budget_past_the_first_order_rule_takes_the_exponential():
    # |b - a| ||B|| = 1e-5 is past 2^-26, where the step loop cannot control an
    # error below the subnormal budget: U is e^{1e-5} to rounding, and no step
    U, stats = _integrate(_constant([[1e300]]), 0.0, 1e-305, 1e-10)
    assert stats == IntegratorStats(0, 0)
    assert abs(U[0, 0] - math.exp(1e-5)) <= 2 * np.finfo(float).eps
    # past the double range the exponential raises, before any step
    with pytest.raises(OverflowError, match=r"exp\(t M\) .* leaves the double range"):
        _integrate_spans(_constant([[1e308]]), [(0.0, 1.0), (0.0, 1e-298)], 1e-11)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_series_raises_where_the_chain_overflows():
    B = _constant([[800.0]])
    with pytest.raises(OverflowError, match="leaves the double range at t = 1$"):
        _chain(B, [0.0, 0.5, 1.0], 1e-4)
    # each segment alone stays finite
    assert np.isfinite(_chain(B, [0.0, 0.5], 1e-4)[0]).all()


def test_backward_integration_inverts_forward():
    B = bagchi_hamiltonian(0.5, lambda ts: 0.4 * np.sin(ts), _flat(0.7))
    fwd = evolve(B, 0.0, 1.0, rel_tol=1e-12).matrix
    back, _ = _integrate(B, 1.0, 0.0, 1e-12)
    assert np.max(np.abs(back @ fwd - np.eye(2))) <= 1e-11


# --- constant-coefficient closed forms ----------------------------------------

@pytest.mark.parametrize(
    "nu,kappa,lam",
    [
        (1.0, 0.3, 0.9),   # oscillatory: lam > kappa
        (0.0, 1.2, 0.5),   # hyperbolic: kappa > lam, mu imaginary
        (2.0, 0.7, 0.7),   # exceptional point: mu = 0
        (-0.5, 0.0, 1.1),  # Hermitian limit
    ],
)
def test_constant_two_level_matches_closed_form(nu, kappa, lam):
    B = bagchi_hamiltonian(nu, _flat(kappa), _flat(lam))
    for s, t in ((0.0, 0.5), (0.25, 1.75)):
        U = evolve(B, s, t, rel_tol=1e-12).matrix
        ref = _closed_form(nu, kappa, lam, t - s)
        assert np.max(np.abs(U - ref)) <= 1e-10


def test_no_damping_propagator_is_unitary():
    B = bagchi_hamiltonian(1.3, _flat(0.0), lambda ts: 0.9 + 0.2 * np.sin(ts))
    U = evolve(B, 0.0, 2.0, rel_tol=1e-12).matrix
    assert np.max(np.abs(U.conj().T @ U - np.eye(2))) <= 1e-10


def test_solver_agrees_with_scipy_reference():
    nu, lam_0 = 1.0, 0.8
    B = bagchi_hamiltonian(nu, lambda ts: 0.5 * np.cos(ts), _flat(lam_0))

    def rhs(t, y):
        return (B([t])[0] @ y.reshape(2, 2)).ravel()

    sol = solve_ivp(
        rhs,
        (0.0, 2.0),
        np.eye(2, dtype=complex).ravel(),
        rtol=1e-11,
        atol=1e-11,
        dense_output=False,
    )
    ref = sol.y[:, -1].reshape(2, 2)
    U = evolve(B, 0.0, 2.0, rel_tol=1e-12).matrix
    assert np.max(np.abs(U - ref)) <= 1e-8


# --- model structure ----------------------------------------------------------

def test_hamiltonian_is_pauli_combination():
    s3 = np.diag([1.0, -1.0]).astype(complex)
    s_plus = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
    s_minus = np.array([[0.0, 0.0], [2.0, 0.0]], dtype=complex)
    nu, k, l = 1.5, 0.4, 0.9
    H_direct = nu * np.eye(2) + 1j * k * s3 + (l / 2.0) * (s_plus + s_minus)
    B = bagchi_hamiltonian(nu, _flat(k), _flat(l))
    np.testing.assert_array_equal(B([0.0])[0], -1j * H_direct)


@given(
    nu=st.floats(-2, 2),
    k0=st.floats(-1, 1),
    k1=st.floats(-1, 1),
    l0=st.floats(-1, 1),
    t=st.floats(0, 5),
)
@settings(max_examples=50, deadline=None)
def test_coefficient_matrix_always_symmetric(nu, k0, k1, l0, t):
    B = bagchi_hamiltonian(nu, lambda ts: k0 + k1 * ts, lambda ts: l0 * np.cos(ts))
    M = B([t])[0]
    assert np.array_equal(M, M.T)


def _bagchi_at(nu, k, l):
    """The two-level coefficient at one time, as one time was evaluated alone."""
    return -1j * np.array([[nu + 1j * k, l], [l, nu - 1j * k]], dtype=complex)


def _table_at(knots, mats, t):
    """The table model at one time, its knot found by bisect."""
    if t <= knots[0]:
        return mats[0]
    if t >= knots[-1]:
        return mats[-1]
    j = bisect.bisect_left(knots, t) - 1
    w = (t - knots[j]) / (knots[j + 1] - knots[j])
    return (1 - w) * mats[j] + w * mats[j + 1]


@pytest.mark.parametrize("nu, kappa, lam", [
    (1.0, lambda ts: 0.4 * np.cos(1.3 * ts + 0.3), lambda ts: np.cos(0.7 * ts + 1.1)),
    *[(0.0, _flat(k), _flat(l)) for k, l in itertools.product((0.0, -0.0), repeat=2)],
], ids=["cosine", "nu0-k+0-l+0", "nu0-k+0-l-0", "nu0-k-0-l+0", "nu0-k-0-l-0"])
def test_batched_two_level_values_equal_one_time_values_bytewise(nu, kappa, lam):
    times = np.random.default_rng(2).uniform(-10.0, 10.0, 400).tolist()
    B = bagchi_hamiltonian(nu, kappa, lam)
    got = B(times)
    # the parameters at one time, as one time was evaluated alone
    ref = np.array([_bagchi_at(nu, kappa(np.array([t]))[0], lam(np.array([t]))[0])
                    for t in times])
    assert got.shape == (400, 2, 2)
    assert got.tobytes() == ref.tobytes()
    # the coefficient at an array of times is the stack of its one-time values
    assert got.tobytes() == np.array([B([t])[0] for t in times]).tobytes()


@pytest.mark.parametrize("count", [2, 6])
def test_batched_table_values_equal_one_time_values_bytewise(count):
    rng = np.random.default_rng(4)
    knots = np.cumsum(rng.uniform(0.1, 1.0, count)).tolist()
    mats = rng.standard_normal((count, 3, 3)) + 1j * rng.standard_normal((count, 3, 3))
    mats[0, 0, 0] = mats[-1, 1, 1] = mats[1, 0, 1] = complex(-0.0, -0.0)
    mats[-1, 2, 2] = complex(0.0, -0.0)
    params = {"B": "table", "times": knots,
              "matrices": [[[[z.real, z.imag] for z in row] for row in M] for M in mats]}
    B, breaks_at, *_ = cli._evolution_operator_from(params, (0.0, 1.0))
    assert breaks_at(1e-10) == knots  # every knot is a kink, the end knots too
    # every knot, below and above the range, and between the knots
    times = [*knots, knots[0] - 1.0, knots[-1] + 1.0,
             *rng.uniform(knots[0] - 1.0, knots[-1] + 1.0, 400).tolist()]
    ref = np.array([_table_at(knots, mats, t) for t in times])
    assert B(times).tobytes() == ref.tobytes()


def test_constant_model_is_a_view_of_its_matrix():
    M = [[[0.5, -0.0], [1.0, 2.0]], [[-0.0, 0.0], [3.0, -1.0]]]
    B, breaks_at, *_ = cli._evolution_operator_from({"B": "constant", "matrix": M},
                                                    (0.0, 1.0))
    assert breaks_at(1e-10) == []
    values = B([0.0, 0.3, 2.0])
    assert values.shape == (3, 2, 2) and np.shares_memory(values, B([1.0]))
    assert values.strides[0] == 0  # broadcast over the times, not copied
    ref = np.array([[complex(*z) for z in row] for row in M])
    assert values.tobytes() == np.array([ref] * 3).tobytes()


# --- symmetry of the propagator -----------------------------------------------

def test_stone_residual_zero_for_symmetric_coefficients():
    B = bagchi_hamiltonian(1.0, lambda ts: 0.3 * np.cos(ts), _flat(0.6))
    res = check_nonauto_stone(B, np.eye(2), s_grid=np.linspace(0, 2, 9))
    assert np.all(res == 0.0)


def test_stone_check_rejects_broken_involution():
    B = _constant(np.zeros((2, 2)))
    M = np.array([[0.0, 1.0], [-1.0, 0.0]])  # M conj(M) = -I
    with pytest.raises(ValueError, match="involution"):
        check_nonauto_stone(B, M, s_grid=[0.0])


def test_stone_residual_measures_swap_asymmetry():
    # diagonal coefficients vs the swap involution: residual |b1 - b2|
    B = _constant(np.diag([1.0 + 0j, 3.0 + 0j]))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    res = check_nonauto_stone(B, swap, s_grid=[0.0, 1.0])
    np.testing.assert_allclose(res, [2.0, 2.0])


def test_propagator_symmetric_for_commuting_family():
    # kappa = 0.3 cos t and lam = cos t make every H(t) = I + cos t K for one
    # fixed symmetric K, so the family commutes and the propagator inherits
    # the coefficient symmetry; unlike lam = 0, U is not diagonal
    B = bagchi_hamiltonian(1.0, lambda ts: 0.3 * np.cos(ts), lambda ts: np.cos(ts))
    Bs = B([0.2, 1.3])
    assert np.abs(Bs[0] @ Bs[1] - Bs[1] @ Bs[0]).max() <= 1e-15
    U = evolve(B, 0.0, 2.0).matrix
    assert abs(U[0, 1]) >= 0.5
    assert check_matrix_c_symmetry(U, np.eye(2)) <= 1e-9


def test_propagator_symmetric_for_constant_coefficient():
    B = bagchi_hamiltonian(0.7, _flat(0.4), _flat(1.1))
    dev = check_matrix_c_symmetry(evolve(B, 0.0, 1.5).matrix, np.eye(2))
    assert dev <= 1e-9


def test_noncommuting_family_symmetry_is_only_measured():
    # kappa and lam varying out of phase: [B(t1), B(t2)] != 0 and the
    # propagator has no reason to stay symmetric — the check still returns
    # a finite defect rather than asserting anything
    B = bagchi_hamiltonian(
        1.0, lambda ts: 0.8 * np.cos(3 * ts), lambda ts: 0.9 * np.sin(2 * ts)
    )
    dev = check_matrix_c_symmetry(evolve(B, 0.0, 2.0).matrix, np.eye(2))
    assert math.isfinite(dev)


# --- adjoint difference quotient -----------------------------------------------

def test_adjoint_family_quotient_is_first_order():
    B = bagchi_hamiltonian(1.0, lambda ts: 0.5 * np.cos(ts), _flat(0.8))
    z = np.array([1.0, 0.5 - 0.25j])
    hs = np.array([3e-2, 1e-2, 3e-3, 1e-3])
    U_10 = evolve(B, 0.0, 1.0, rel_tol=1e-12).matrix
    steps, _ = _integrate_spans(B, adjoint_spans(1.0, hs), 1e-12)
    errs = check_adjoint_family(B, U_10, 1.0, z, hs, steps)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - 1.0) <= 0.1


def test_adjoint_family_rejects_bad_step():
    with pytest.raises(ValueError, match="h must be positive"):
        adjoint_spans(1.0, [1e-3, 0.0])


# --- stiffness escape hatch -----------------------------------------------------

def test_nan_coefficients_raise_stiffness_error():
    B = _constant([[math.nan]])
    with pytest.raises(StiffnessError, match="fell below its floor 1.000e-13, 1e-13 of the span"):
        evolve(B, 0.0, 1.0)
    # a span below 1e-13 of the smallest normal has the smallest subnormal for floor
    with pytest.raises(StiffnessError, match="underflowed below its floor 4.941e-324, "
                                             "the smallest subnormal"):
        evolve(B, 0.0, 1e-312)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflow_is_reported_as_overflow_not_stiffness():
    # e^{800 t} leaves the double range near t = 0.887: the stages overflow at
    # steps far inside the stability region, so the span overflows
    with pytest.raises(OverflowError, match="leaves the double range after t = 0.878873$"):
        evolve(_constant([[800.0]]), 0.0, 1.0, 1e-4)
    # a stiff generator's estimates stay finite, and B = -1e300 i I, whose
    # propagator has modulus 1, overflows its stages only at steps far
    # outside the stability region: both are too stiff
    for M in ([[1e13]], [[-1e300j]]):
        with pytest.raises(StiffnessError, match="at t = 0 fell below its floor 1.000e-13,"):
            evolve(_constant(M), 0.0, 1.0)


# --- chained time series -------------------------------------------------------

def _bagchi_cosine():
    return bagchi_hamiltonian(1.0, lambda ts: 0.4 * np.cos(1.3 * ts + 0.3),
                      lambda ts: np.cos(0.7 * ts + 1.1))


def test_chained_series_matches_per_sample_evolve():
    B = _bagchi_cosine()
    times, series, _ = evolution_series(B, (0.0, 5.0), 21, 1e-10)
    assert np.array_equal(series[0], np.eye(2))
    for tk, U in zip(times[1:], series[1:]):
        direct = evolve(B, 0.0, float(tk)).matrix
        assert np.max(np.abs(U - direct)) <= 1e-9 * np.max(np.abs(direct))


def test_chained_series_matches_dop853():
    B = _bagchi_cosine()
    times, series, _ = evolution_series(B, (0.0, 5.0), 201, 1e-10)

    def rhs(t, y):
        return (B([t])[0] @ y.view(complex).reshape(2, 2)).ravel().view(float)

    sol = solve_ivp(rhs, (0.0, 5.0), np.eye(2, dtype=complex).ravel().view(float),
                    method="DOP853", t_eval=times, rtol=1e-13, atol=1e-15)
    ref = sol.y.T.copy().view(complex).reshape(len(times), 2, 2)
    assert np.max(np.abs(np.array(series) - ref)) <= 1e-10


def test_chained_series_steps_stay_near_one_span():
    # each segment costs a few steps at least, but not a restart from s
    B = _bagchi_cosine()
    _, stats = _chain(B, np.linspace(0.0, 5.0, 201))
    assert len(stats) == 200
    span = evolve(B, 0.0, 5.0).stats.steps
    assert sum(st.steps for st in stats) < 2.5 * span


def test_chained_series_edge_cases(monkeypatch):
    B = _bagchi_cosine()
    stats = []
    original = evolution._integrate_spans

    def recording(B, spans, rel_tol):
        mats, st = original(B, spans, rel_tol)
        stats.extend(st)
        return mats, st

    monkeypatch.setattr(evolution, "_integrate_spans", recording)
    # one sample: the series is I, and U(t, s) its chain from s to t
    times, series, axioms = evolution_series(B, (0.0, 5.0), 1, 1e-10)
    assert times.tolist() == [0.0] and series.shape == (1, 2, 2)
    assert np.array_equal(series[0], np.eye(2))
    assert np.array_equal(axioms[3], evolve(B, 0.0, 5.0).matrix)
    # s = t: every span is zero, I before any step
    stats.clear()
    times, series, axioms = evolution_series(B, (2.0, 2.0), 4, 1e-10)
    assert times.tolist() == [2.0] * 4 and series.shape == (4, 2, 2)
    assert all(np.array_equal(U, np.eye(2)) for U in [*series, *axioms])
    assert stats and all(st.steps == 0 for st in stats)
    _, series, axioms = evolution_series(B, (0.0, 5.0), 6, 1e-10)
    assert series.shape == (6, 2, 2) and axioms.shape == (4, 2, 2)


def test_adjoint_family_integrates_u_once(monkeypatch):
    B = _bagchi_cosine()
    z = np.array([0.3 - 0.1j, 0.8 + 0.2j])
    hs = (3e-2, 1e-2, 3e-3, 1e-3)
    calls = []

    def counting(B, spans, rel_tol):
        calls.append(list(spans))
        return _integrate_spans(B, spans, rel_tol)

    U_t = evolve(B, 0.0, 1.0, 1e-12).matrix
    # the caller integrates the short spans U(1 + h, 1), none from 0
    assert adjoint_spans(1.0, hs) == [(1.0, 1.0 + h) for h in hs]
    steps, _ = _integrate_spans(B, adjoint_spans(1.0, hs), 1e-12)
    monkeypatch.setattr(evolution, "_integrate_spans", counting)
    errs = check_adjoint_family(B, U_t, 1.0, z, hs, steps)
    assert calls == []  # the check integrates nothing: U(1, 0) and the steps are the caller's
    for h, err in zip(hs, errs):
        U_th = evolve(B, 1.0, 1.0 + h, 1e-12).matrix @ U_t  # the cocycle
        quotient = (U_th.conj().T @ z - U_t.conj().T @ z) / h
        assert err == np.linalg.norm(quotient - U_t.conj().T @ (B([1.0])[0].conj().T @ z))


def test_evolution_group_integrates_b_in_one_call(monkeypatch):
    calls = []
    original = evolution._integrate_spans

    def recording(B, spans, rel_tol):
        calls.append((list(spans), rel_tol))
        return original(B, spans, rel_tol)

    for mod in (evolution, verification):
        monkeypatch.setattr(mod, "_integrate_spans", recording)
    verification.evolution_checks(verification.VerifyConfig(dim=16))
    hs = (3e-2, 1e-2, 3e-3, 1e-3)
    # U(1, 0), U(0, 1), the axioms' U(1, 1), the composition law's pieces
    # U(0.5, 0), U(1, 0.5) and the adjoint quotients' U(1 + h, 1), all of the
    # one coefficient B in one call at 1e-10
    assert calls == [
        ([(0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.5), (0.5, 1.0),
          *((1.0, 1.0 + h) for h in hs)], 1e-10),
    ]


# --- the step loop, bit for bit ----------------------------------------------------

def _reference_integrate(B, t0, t1, rel_tol, sums="rows"):
    """The Dormand-Prince loop before stage reuse: seven evaluations of B and
    seven products per attempted step, every sum formed from scratch.

    With ``sums="rows"`` each sum is U plus one real row-vector times matrix
    product of the h-scaled tableau row and the stages viewed as real rows,
    the arithmetic of :func:`_integrate_spans`.  With ``sums="terms"`` each
    sum adds its (h c) k_j one by one in tableau order, as the loop did
    before the row products.
    """
    ev = evolution
    dim = B([t0]).shape[-1]
    U = np.eye(dim, dtype=complex)
    if t1 == t0:
        return U, IntegratorStats(steps=0, rejected=0)
    span = t1 - t0
    h = span / 50.0
    h_floor = max(abs(span) * ev._MIN_STEP_FACTOR, ev._TINY)
    x = t0
    steps = rejected = 0
    direction = 1.0 if span > 0 else -1.0

    def weighted(Y, row, stages):
        if sums == "terms":
            for j, c in enumerate(row):
                if c:
                    Y = Y + (h * c) * stages[j]
            return Y
        K_rows = np.array(stages).reshape(len(stages), -1).view(np.float64)
        S = (h * np.array(row)) @ K_rows
        return (S if Y is None else Y.reshape(-1).view(np.float64) + S).view(
            complex).reshape(dim, dim)

    while (t1 - x) * direction > 0:
        if (x + h - t1) * direction > 0:
            h = t1 - x
        h = (x + h) - x or math.nextafter(x, t1) - x
        stages = []
        for i in range(7):
            Y = weighted(U, ev._COUPLING[i], stages) if i else U
            stages.append(B([x + ev._STAGE_TIMES[i] * h])[0] @ Y)
        U5 = weighted(U, ev._WEIGHTS5[:6], stages[:6])
        zero = np.zeros_like(U) if sums == "terms" else None
        err = weighted(zero, ev._ERROR_WEIGHTS, stages)
        scale = max(float(np.max(np.abs(U5))), float(np.max(np.abs(U))), 1.0)
        local = float(np.max(np.abs(err))) / scale
        budget = rel_tol * abs(h)
        finite = math.isfinite(local)
        if finite and local <= budget:
            x += h
            U = U5
            steps += 1
        else:
            rejected += 1
        if not finite:
            h *= ev._MIN_SHRINK
        elif local > 0:
            h *= min(ev._MAX_GROWTH,
                     max(ev._MIN_SHRINK, ev._SAFETY * (budget / local) ** 0.2))
        else:
            h *= ev._MAX_GROWTH
        if abs(h) < h_floor:
            fell, floor_is = (("underflowed below its floor", "the smallest subnormal")
                              if h_floor == ev._TINY
                              else ("fell below its floor", "1e-13 of the span"))
            raise StiffnessError(
                f"step size {abs(h):.3e} at t = {x:.6g} {fell} {h_floor:.3e}, {floor_is}: "
                "the coefficient family is too stiff for the 5(4) pair, "
                "or the span needs more steps than the floor allows"
            )
    return U, IntegratorStats(steps=steps, rejected=rejected)


def _counting(B):
    """B with counters of its calls and of the times it was evaluated at."""
    count = {"calls": 0, "times": 0}

    def eval_b(ts):
        count["calls"] += 1
        count["times"] += len(ts)
        return B(ts)

    return eval_b, count


def _constant_d16():
    q, r = np.linalg.qr(np.random.default_rng(0).standard_normal((16, 16)))
    O = q * np.sign(np.diag(r))
    spectrum = np.linspace(-1.0, 1.0, 16) - 1j * np.linspace(0.0, 0.3, 16)
    return _constant(-1j * (O * spectrum) @ O.T)


def _kinked_table():
    # piecewise-linear in t with kinks at 0.7, 1.3 and 2.2: steps across them fail
    ts = np.array([0.0, 0.7, 1.3, 2.2, 3.0])
    rng = np.random.default_rng(3)
    stack = -1j * (rng.standard_normal((5, 3, 3)) + 2.0 * np.eye(3))

    def at(t):
        if t <= ts[0]:
            return stack[0]
        if t >= ts[-1]:
            return stack[-1]
        j = int(np.searchsorted(ts, t) - 1)
        w = (t - ts[j]) / (ts[j + 1] - ts[j])
        return (1 - w) * stack[j] + w * stack[j + 1]

    return lambda times: np.array([at(t) for t in times])


@pytest.mark.parametrize("make, t0, t1, rel_tol", [
    (_bagchi_cosine, 0.0, 5.0, 1e-10),
    (_constant_d16, 0.0, 2.0, 1e-10),
    (_kinked_table, 0.0, 3.0, 1e-10),
    (_bagchi_cosine, 4.0, -1.0, 1e-9),
    # far from 0, where each step's h is rounded to fl(x + h) - x
    (_bagchi_cosine, 1e5, 1e5 + 1.0, 1e-10),
], ids=["bagchi-cosine", "constant-d16", "kinked-table", "backward", "far"])
def test_step_loop_matches_reference_bit_for_bit(make, t0, t1, rel_tol):
    B, count = _counting(make())
    U, stats = _integrate(B, t0, t1, rel_tol)
    U_ref, stats_ref = _reference_integrate(make(), t0, t1, rel_tol)
    assert np.array_equal(U, U_ref)
    assert stats == stats_ref
    # stage 1 once, then five times per attempted step, one call per step
    attempts = stats.steps + stats.rejected
    assert count == {"calls": 1 + attempts, "times": 1 + 5 * attempts}


@pytest.mark.parametrize("make, t0, t1, rel_tol, same_steps", [
    (_bagchi_cosine, 0.0, 5.0, 1e-10, True),
    (_constant_d16, 0.0, 2.0, 1e-10, True),
    # at the kinks, rounding-level differences flip accept/reject decisions
    (_kinked_table, 0.0, 3.0, 1e-10, False),
    (_bagchi_cosine, 4.0, -1.0, 1e-9, True),
], ids=["bagchi-cosine", "constant-d16", "kinked-table", "backward"])
def test_step_loop_matches_per_term_sums(make, t0, t1, rel_tol, same_steps):
    U, stats = _integrate(make(), t0, t1, rel_tol)
    U_ref, stats_ref = _reference_integrate(make(), t0, t1, rel_tol, sums="terms")
    assert np.max(np.abs(U - U_ref)) <= 1e-12 * np.max(np.abs(U_ref))
    if same_steps:
        assert (stats.steps, stats.rejected) == (stats_ref.steps, stats_ref.rejected)


def test_kinked_table_forces_rejections():
    _, stats = _integrate(_kinked_table(), 0.0, 3.0, 1e-10)
    assert stats.rejected > 0


def test_last_stage_is_the_fifth_order_solution():
    assert evolution._COUPLING[6] == evolution._WEIGHTS5[:6]
    assert evolution._WEIGHTS5[6] == 0.0
    assert evolution._STAGE_TIMES[5] == evolution._STAGE_TIMES[6] == 1.0
    assert evolution._TABLEAU[evolution._U5_ROW].tolist() == list(evolution._WEIGHTS5)
    assert evolution._TABLEAU[evolution._ERROR_ROW].tolist() == list(evolution._ERROR_WEIGHTS)


def test_stiff_generator_raises_the_reference_error():
    B = _constant(np.array([[1e13]]))
    with pytest.raises(StiffnessError) as ref:
        _reference_integrate(B, 0.0, 1.0, 1e-10)
    with pytest.raises(StiffnessError) as got:
        _integrate(B, 0.0, 1.0, 1e-10)
    assert str(got.value) == str(ref.value)


# --- many spans in one batch ---------------------------------------------------------

def _split_batches(monkeypatch, dim, spans_per_batch):
    """Batches of at most ``spans_per_batch`` spans of size dim (None: as is)."""
    if spans_per_batch:
        monkeypatch.setattr(evolution, "_BATCH_BYTES", spans_per_batch * 7 * 16 * dim**2)


def _short_spans(n):
    """n short spans over the kinks of _kinked_table, about a fifth of them
    backward, and a zero span: at either tolerance they finish at many
    different passes, so the batch sheds spans pass after pass."""
    rng = np.random.default_rng(5)
    starts, lengths = rng.uniform(0.0, 3.0, n), rng.uniform(0.02, 0.15, n)
    signs = rng.choice([1.0, 1.0, 1.0, 1.0, -1.0], n)
    return [(float(a), float(a + d)) for a, d in zip(starts, signs * lengths)] + [(1.0, 1.0)]


@functools.cache
def _alone_and_reference(make, t0, t1, tol):
    """U and statistics of the span (t0, t1) of make() integrated alone and
    by the reference loop.  A batch of one span is one batch whatever
    ``_BATCH_BYTES``, so the batch sizes of one model share them."""
    (U_alone,), (st_alone,) = _integrate_spans(make(), [(t0, t1)], tol)
    U_ref, st_ref = _reference_integrate(make(), t0, t1, tol)
    return U_alone, st_alone, U_ref, st_ref


@pytest.mark.parametrize("make, spans", [
    # unequal forward spans, a backward span and a zero span
    (_bagchi_cosine, [(0.0, 5.0), (1.0, 1.3), (4.0, -1.0), (2.0, 2.0), (0.5, 3.5)]),
    (_kinked_table, [(0.0, 3.0), (0.5, 1.0), (3.0, 0.2), (1.0, 1.0), (2.0, 2.9)]),
    # one array for every value of B, broadcast over the batch
    (_constant_d16, [(0.0, 2.0), (0.3, 0.4), (2.0, 0.0), (1.0, 1.0)]),
    (_kinked_table, _short_spans(64)),
], ids=["bagchi-cosine", "kinked-table", "constant-d16", "kinked-table-short-spans"])
# None: one batch; 40: the 64 short spans in two batches of many spans each
@pytest.mark.parametrize("spans_per_batch", [None, 2, 40])
def test_batch_matches_each_span_alone_bit_for_bit(make, spans, spans_per_batch, monkeypatch):
    n = make()([0.0]).shape[-1]
    _split_batches(monkeypatch, n, spans_per_batch)
    for tol in (1e-10, 1e-12):
        B, count = _counting(make())
        mats, stats = _integrate_spans(B, spans, tol)
        assert isinstance(mats, np.ndarray) and mats.shape == (len(spans), n, n)
        assert len(stats) == len(spans)
        assert all(np.array_equal(U, np.eye(n))
                   for (t0, t1), U in zip(spans, mats) if t1 == t0)
        for (t0, t1), U, st in zip(spans, mats, stats):
            U_alone, st_alone, U_ref, st_ref = _alone_and_reference(make, t0, t1, tol)
            assert U.tobytes() == U_alone.tobytes() and st == st_alone
            assert np.array_equal(U, U_ref) and st == st_ref
        # per span, stage 1 once, then five times per attempted step
        assert count["times"] == len(spans) + 5 * sum(st.steps + st.rejected for st in stats)
        # one call at every span's start, then one per pass: a batch takes as
        # many passes as its longest span takes attempted steps
        attempts = [st.steps + st.rejected for (t0, t1), st in zip(spans, stats) if t1 != t0]
        size = spans_per_batch or len(attempts)
        assert count["calls"] == 1 + sum(max(attempts[i:i + size])
                                         for i in range(0, len(attempts), size))


def test_tolerance_must_be_positive():
    with pytest.raises(ValueError, match="rel_tol must be positive"):
        _integrate_spans(_bagchi_cosine(), [(0.0, 1.0)] * 2, 0.0)


def test_series_evaluates_b_only_in_its_steps(monkeypatch):
    # at every span's start once, and at five times per attempted step
    stats = []
    original = evolution._integrate_spans

    def recording(B, spans, rel_tol):
        mats, st = original(B, spans, rel_tol)
        stats.extend(st)
        return mats, st

    monkeypatch.setattr(evolution, "_integrate_spans", recording)
    for samples in (1, 3):
        stats.clear()
        B, count = _counting(_bagchi_cosine())
        evolution_series(B, (0.0, 5.0), samples, 1e-10)
        assert count["times"] == sum(1 + 5 * (st.steps + st.rejected) for st in stats)


def _stiff_past_two():
    # decaying before t = 2, stiff from there on
    calm, stiff = np.array([[-1.0 + 0j]]), np.array([[1e13 + 0j]])
    return lambda ts: np.array([calm if t < 2.0 else stiff for t in ts])


@pytest.mark.parametrize("order", list(itertools.permutations(range(4))))
@pytest.mark.parametrize("spans_per_batch", [None, 2])
def test_batch_raises_the_sequential_stiffness_error(order, spans_per_batch, monkeypatch):
    _split_batches(monkeypatch, 1, spans_per_batch)
    B = _stiff_past_two()
    spans = [[(0.0, 1.0), (1.5, 2.5), (0.2, 1.8), (2.2, 2.8)][i] for i in order]
    for tol in (1e-10, 1e-12):
        expected = None
        for span in spans:  # one after another, as a plain loop would
            try:
                _reference_integrate(B, *span, tol)
            except StiffnessError as exc:
                expected = str(exc)
                break
        assert expected is not None
        with pytest.raises(StiffnessError) as got:
            _integrate_spans(B, spans, tol)
        assert str(got.value) == expected


# --- breaks as chain times ---------------------------------------------------------

_KINKS = [0.0, 0.7, 1.3, 2.2, 3.0]  # the kinks of _kinked_table, the clamped ends too


@pytest.mark.parametrize("times, breaks, grid, rows", [
    # repeated times, as of s = t with samples > 1: no break is inside
    ([2.0, 2.0, 2.0], [1.0, 2.0, 3.0], [2.0, 2.0, 2.0], [0, 1, 2]),
    # a break on a sample time, breaks outside (s, t), on s and on t
    ([0.0, 1.0, 2.0], [-1.0, 0.0, 1.0, 2.0, 5.0], [0.0, 1.0, 2.0], [0, 1, 2]),
    # unsorted and duplicate breaks, merged in order and once each
    ([0.0, 1.0, 2.0], [1.5, 0.25, 1.5, 0.5, 0.25], [0.0, 0.25, 0.5, 1.0, 1.5, 2.0],
     [0, 3, 5]),
    # repeated times around breaks, and a grid of one time
    ([0.0, 0.0, 2.0, 2.0], [1.0, 0.5], [0.0, 0.0, 0.5, 1.0, 2.0, 2.0], [0, 1, 4, 5]),
    ([1.0], [0.5, 1.0, 1.5], [1.0], [0]),
    ([0.0, 1.0], [], [0.0, 1.0], [0, 1]),
], ids=["repeated", "on-samples-and-outside", "unsorted-duplicates", "repeated-around",
        "one-time", "none"])
def test_break_grid_merges_the_breaks_strictly_inside(times, breaks, grid, rows):
    got_grid, got_rows = break_grid(times, breaks)
    assert got_grid.tolist() == grid and got_rows.tolist() == rows
    assert got_grid[got_rows].tolist() == times


def _chain_alone(make, times, breaks, rel_tol):
    """U(t_k, t_0) as the chain of the spans between the times and the breaks
    inside each segment, each integrated alone, and their statistics."""
    U = np.eye(make()([0.0]).shape[-1], dtype=complex)
    series, stats = [U], []
    for a, b in zip(times[:-1], times[1:]):
        bounds = [a, *sorted({x for x in breaks if a < x < b}), b]
        for t0, t1 in zip(bounds[:-1], bounds[1:]):
            U_cut, st = _integrate(make(), t0, t1, rel_tol)
            U = U_cut @ U
            stats.append(st)
        series.append(U)
    return np.array(series), stats


@pytest.mark.parametrize("make, times, breaks", [
    (_kinked_table, [0.0, 1.0, 3.0], _KINKS),
    (_kinked_table, [-0.5, 0.7, 2.0, 3.5], _KINKS),  # past both clamped ends
    (_kinked_table, [0.7, 2.0], _KINKS),  # a break on the start is no cut
    (_kinked_table, [1.0, 2.2], _KINKS),  # nor one on the end
    (_kinked_table, [1.0, 1.0, 1.0], _KINKS),  # a zero segment is I
    (_kinked_table, [0.0, 1.0, 1.0, 3.0], [2.2, 0.7, 2.2]),  # unsorted, repeated breaks
    (_bagchi_cosine, [0.0, 1.0, 2.5, 5.0], [-3.0, 0.5, 2.0, 9.0]),
], ids=["forward", "past-the-ends", "break-on-start", "break-on-end", "zero", "unsorted",
        "bagchi-cosine"])
def test_cut_span_is_the_product_of_its_cuts_alone(make, times, breaks):
    # every segment is cut at the breaks inside it, and the series is the
    # chain of the cuts, each multiplied into it alone
    series, stats = _chain(make(), times, 1e-10, breaks)
    series_ref, stats_ref = _chain_alone(make, times, breaks, 1e-10)
    assert series.tobytes() == series_ref.tobytes()
    assert stats == stats_ref


@pytest.mark.parametrize("make, times, breaks", [
    # breaks outside the times or on them, a zero segment on a break
    (_bagchi_cosine, [0.0, 1.0, 2.5, 2.5, 4.0], [-3.0, 0.0, 1.0, 2.5, 4.0, 9.0]),
    (_kinked_table, [-1.0, 0.0, 0.7, 1.3, 1.3, 2.2, 3.0, 4.0], _KINKS),
], ids=["bagchi-cosine", "kinked-table"])
def test_span_with_no_break_inside_is_integrated_as_without_breaks(make, times, breaks):
    for rel_tol in (1e-10, 1e-12):
        series, stats = _chain(make(), times, rel_tol, breaks)
        series_ref, stats_ref = _chain(make(), times, rel_tol)
        assert series.tobytes() == series_ref.tobytes()
        assert stats == stats_ref


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_product_of_cuts_that_overflows_raises():
    # each cut grows by at most e^{400}: finite alone, their chain is not, at
    # a sample time or at a break
    B = _constant([[800.0]])
    with pytest.raises(OverflowError, match="leaves the double range at t = 1$"):
        _chain(B, [0.0, 1.0], 1e-4, [0.5])
    with pytest.raises(OverflowError, match="leaves the double range at t = 0.9$"):
        _chain(B, [0.0, 1.0], 1e-4, [0.5, 0.9])


def _decaying_then_growing(ts):
    """-800 up to t = 1, then 1600 (t - 1.5): U(2, 1.5) = e^{200}, U(2.5, 2) = e^{600}."""
    return np.maximum(-800.0, 1600.0 * (np.asarray(ts) - 1.5)).astype(complex)[:, None, None]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_segment_past_the_double_range_fails_only_where_the_chain_does():
    # U(2.5, 1.5) = e^{800} is past the double range, but each segment of
    # [0, 1] shrinks the chain (by about e^{-16}, where the error control's
    # floor of 1 stops the decay), so multiplying the spans of (1.5, 2.5) at
    # the break 2 into the chain one by one stays finite
    times = [*np.linspace(0.0, 1.0, 11), 1.5, 2.5]
    series, _ = _chain(_decaying_then_growing, times, 1e-4, [2.0])
    assert np.isfinite(series).all()
    grown = math.log(abs(series[-1, 0, 0])) - math.log(abs(series[-2, 0, 0]))
    assert abs(grown - 800.0) <= 1e-5


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("spans_per_batch", [None, 1])
def test_integration_failures_are_raised_before_chain_overflows(spans_per_batch,
                                                                monkeypatch):
    # the series' chain leaves the double range at t = 1, where e^{800} has
    # grown, and the later segment (1, 2) is too stiff past 1.5: every span
    # is integrated before any chain is formed, so the stiffness of the
    # first failing span is raised
    _split_batches(monkeypatch, 1, spans_per_batch)
    growing, stiff = np.array([[800.0 + 0j]]), np.array([[1e13 + 0j]])

    def B(ts):
        return np.array([growing if t < 1.5 else stiff for t in ts])

    with pytest.raises(StiffnessError) as alone:
        _integrate(B, 1.0, 2.0, 1e-4)
    with pytest.raises(OverflowError, match="leaves the double range at t = 1$"):
        _chain(B, [0.0, 1.0], 1e-4, [0.5])
    with pytest.raises(StiffnessError) as got:
        evolution_series(B, (0.0, 2.0), 3, 1e-4, [0.5])
    assert str(got.value) == str(alone.value)


def _dop853_knot_to_knot(B, s, t, knots):
    """U(t, s) by DOP853 at rtol 1e-13, restarted at every knot inside (s, t)."""
    n = B([s]).shape[-1]

    def rhs(x, y):
        return (B([x])[0] @ y.view(complex).reshape(n, n)).ravel().view(float)

    U = np.eye(n, dtype=complex)
    bounds = [s, *[k for k in knots if s < k < t], t]
    for a, b in zip(bounds[:-1], bounds[1:]):
        sol = solve_ivp(rhs, (a, b), U.ravel().view(float), method="DOP853",
                        rtol=1e-13, atol=1e-15)
        U = sol.y[:, -1].copy().view(complex).reshape(n, n)
    return U


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def test_table_run_past_its_ends_takes_no_rejected_step(monkeypatch):
    # the benchmark's table shape, the fixed damped spectrum in a seeded basis at
    # each knot, whose run over [0, 5] starts below its first knot and ends past
    # its last: no step of the run's one call straddles a kink (without the
    # breaks it rejects 285 steps; other draws of the bases reject up to two
    # steps, in smooth stretches, against 277-358)
    rng = np.random.default_rng(1)
    spectrum = np.linspace(-1.0, 1.0, 3) - 1j * np.linspace(0.0, 0.3, 3)
    knots = [0.5 + 0.8 * i for i in range(6)]
    mats = [-1j * (O * spectrum) @ O.T for O in (_orthogonal(rng, 3) for _ in knots)]
    params = {"B": "table", "times": knots,
              "matrices": [[[[z.real, z.imag] for z in row] for row in M] for M in mats]}
    B, breaks_at, *_ = cli._evolution_operator_from(params, (0.0, 5.0))
    breaks = breaks_at(1e-10)
    assert breaks == knots
    stats = []
    original = evolution._integrate_spans

    def recording(B, spans, rel_tol):
        mats, st = original(B, spans, rel_tol)
        stats.extend(st)
        return mats, st

    monkeypatch.setattr(evolution, "_integrate_spans", recording)
    times, series, axioms = evolution_series(B, (0.0, 5.0), 11, 1e-10, breaks)
    records = verification.evolution_axiom_records(verification.VerifyConfig(dim=3),
                                                   axioms[:3], axioms[3], 1e-10, 5.0)
    assert sum(st.rejected for st in stats) == 0
    assert sum(st.steps for st in stats) > 0
    for k in (5, 10):  # the middle and the last sample
        ref = _dop853_knot_to_knot(B, 0.0, float(times[k]), knots)
        assert np.max(np.abs(series[k] - ref)) <= 1e-11
    assert {r.check_id: r.status for r in records}["evolution.composition"] == "pass"


def _table_breaks(times, mats, rel_tol=1e-10):
    as_json = [[[[z.real, z.imag] for z in row] for row in np.asarray(M, complex)]
               for M in mats]
    params = {"B": "table", "times": times, "matrices": as_json}
    return cli._evolution_operator_from(params, (times[0], times[-1]))[1](rel_tol)


def test_table_breaks_are_the_knots_where_it_bends():
    times = [0.0, 1.0, 2.0, 3.0, 4.0]
    # the same matrix at every knot: no bend, not even at the clamped ends
    assert _table_breaks(times, [np.eye(2)] * 5) == []
    # a straight line bends only where the clamp stops it
    C = np.array([[1.0, 0.5j], [0.5j, -1.0]])
    assert _table_breaks(times, [np.eye(2) + t * C for t in times]) == [0.0, 4.0]
    # a bump of 7e-9 bends by 7e-9 at knots 1 and 3 and by twice that at
    # knot 2: above 100 rel_tol max|B| only there at rel_tol 1e-10, at all
    # three at 1e-12
    E = np.array([[1.0, 0.0], [0.0, 0.0]])
    bump = [np.eye(2) + (7e-9 if t == 2.0 else 0.0) * E for t in times]
    assert _table_breaks(times, bump) == [2.0]
    assert _table_breaks(times, bump, rel_tol=1e-12) == [1.0, 2.0, 3.0]
