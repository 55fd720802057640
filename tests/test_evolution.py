"""Non-autonomous propagators: axioms, two-level model, symmetry checks."""

import bisect
import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from focksym import cli, evolution
from focksym.conjugation import check_matrix_c_symmetry
from focksym.evolution import (
    IntegratorStats,
    StiffnessError,
    bagchi_hamiltonian,
    check_adjoint_family,
    check_evolution_axioms,
    check_nonauto_stone,
    evolution_series,
    evolve,
    _integrate_spans,
)


def _integrate(B, t0, t1, rel_tol):
    """U(t1, t0) and its statistics, integrated as a batch of one span."""
    (U,), (stats,) = _integrate_spans(B, [(t0, t1)], rel_tol)
    return U, stats


def _constant(M):
    """The coefficient that is M at every time, broadcast over the times."""
    M = np.asarray(M, dtype=complex)
    return lambda ts: np.broadcast_to(M, (len(ts), *M.shape))


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
    B = bagchi_hamiltonian(1.0, lambda t: 0.3, lambda t: 0.5)
    op = evolve(B, 0.7, 0.7)
    np.testing.assert_array_equal(op.matrix, np.eye(2))
    assert op.stats.steps == 0
    assert op.stats.rejected == 0


def test_integrator_stats_are_sane():
    B = bagchi_hamiltonian(1.0, lambda t: 0.5 * math.cos(t), lambda t: 0.8)
    op = evolve(B, 0.0, 2.0, rel_tol=1e-10)
    assert op.s == 0.0 and op.t == 2.0
    assert op.stats.steps >= 1
    assert op.stats.rejected >= 0
    assert 0.0 <= op.stats.max_local_error <= 1e-10 * 2.0


# --- two-parameter family axioms ----------------------------------------------

@pytest.mark.parametrize("rel_tol", [1e-8, 1e-10, 1e-12])
def test_axioms_within_budget(rel_tol):
    B = bagchi_hamiltonian(1.0, lambda t: 0.5 * math.cos(t), lambda t: 0.8 + 0.1 * t)
    U_ts = evolve(B, 0.0, 1.5, rel_tol).matrix
    ident, comp = check_evolution_axioms(B, (0.0, 0.6, 1.5), U_ts, rel_tol)
    assert ident == 0.0  # U(t, t) never integrates
    assert comp <= 10.0 * rel_tol


def test_axioms_reject_unordered_times():
    B = _constant(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="s <= r <= t"):
        check_evolution_axioms(B, (0.0, 2.0, 1.0), np.eye(2))


def test_backward_integration_inverts_forward():
    B = bagchi_hamiltonian(0.5, lambda t: 0.4 * math.sin(t), lambda t: 0.7)
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
    B = bagchi_hamiltonian(nu, lambda t: kappa, lambda t: lam)
    for s, t in ((0.0, 0.5), (0.25, 1.75)):
        U = evolve(B, s, t, rel_tol=1e-12).matrix
        ref = _closed_form(nu, kappa, lam, t - s)
        assert np.max(np.abs(U - ref)) <= 1e-10


def test_no_damping_propagator_is_unitary():
    B = bagchi_hamiltonian(1.3, lambda t: 0.0, lambda t: 0.9 + 0.2 * math.sin(t))
    U = evolve(B, 0.0, 2.0, rel_tol=1e-12).matrix
    assert np.max(np.abs(U.conj().T @ U - np.eye(2))) <= 1e-10


def test_solver_agrees_with_scipy_reference():
    nu, lam_0 = 1.0, 0.8
    B = bagchi_hamiltonian(nu, lambda t: 0.5 * math.cos(t), lambda t: lam_0)

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
    B = bagchi_hamiltonian(nu, lambda t: k, lambda t: l)
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
    B = bagchi_hamiltonian(nu, lambda s: k0 + k1 * s, lambda s: l0 * math.cos(s))
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
    (1.0, lambda t: 0.4 * math.cos(1.3 * t + 0.3), lambda t: math.cos(0.7 * t + 1.1)),
    *[(0.0, lambda t, k=k: k, lambda t, l=l: l)
      for k, l in itertools.product((0.0, -0.0), repeat=2)],
], ids=["cosine", "nu0-k+0-l+0", "nu0-k+0-l-0", "nu0-k-0-l+0", "nu0-k-0-l-0"])
def test_batched_two_level_values_equal_one_time_values_bytewise(nu, kappa, lam):
    times = np.random.default_rng(2).uniform(-10.0, 10.0, 400).tolist()
    got = bagchi_hamiltonian(nu, kappa, lam)(times)
    ref = np.array([_bagchi_at(nu, kappa(t), lam(t)) for t in times])
    assert got.shape == (400, 2, 2)
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("count", [2, 6])
def test_batched_table_values_equal_one_time_values_bytewise(count):
    rng = np.random.default_rng(4)
    knots = np.cumsum(rng.uniform(0.1, 1.0, count)).tolist()
    mats = rng.standard_normal((count, 3, 3)) + 1j * rng.standard_normal((count, 3, 3))
    mats[0, 0, 0] = mats[-1, 1, 1] = mats[1, 0, 1] = complex(-0.0, -0.0)
    mats[-1, 2, 2] = complex(0.0, -0.0)
    params = {"B": "table", "times": knots,
              "matrices": [[[[z.real, z.imag] for z in row] for row in M] for M in mats]}
    B, _, _ = cli._evolution_operator_from(params, (0.0, 1.0))
    # every knot, below and above the range, and between the knots
    times = [*knots, knots[0] - 1.0, knots[-1] + 1.0,
             *rng.uniform(knots[0] - 1.0, knots[-1] + 1.0, 400).tolist()]
    ref = np.array([_table_at(knots, mats, t) for t in times])
    assert B(times).tobytes() == ref.tobytes()


def test_constant_model_is_a_view_of_its_matrix():
    M = [[[0.5, -0.0], [1.0, 2.0]], [[-0.0, 0.0], [3.0, -1.0]]]
    B, _, _ = cli._evolution_operator_from({"B": "constant", "matrix": M}, (0.0, 1.0))
    values = B([0.0, 0.3, 2.0])
    assert values.shape == (3, 2, 2) and np.shares_memory(values, B([1.0]))
    assert values.strides[0] == 0  # broadcast over the times, not copied
    ref = np.array([[complex(*z) for z in row] for row in M])
    assert values.tobytes() == np.array([ref] * 3).tobytes()


# --- symmetry of the propagator -----------------------------------------------

def test_stone_residual_zero_for_symmetric_coefficients():
    B = bagchi_hamiltonian(1.0, lambda t: 0.3 * math.cos(t), lambda t: 0.6)
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
    # lam = 0 keeps every B(t) diagonal, so the family commutes and the
    # propagator inherits the coefficient symmetry
    B = bagchi_hamiltonian(1.0, lambda t: 0.3 * math.cos(t), lambda t: 0.0)
    dev = check_matrix_c_symmetry(evolve(B, 0.0, 2.0).matrix, np.eye(2))
    assert dev <= 1e-9


def test_propagator_symmetric_for_constant_coefficient():
    B = bagchi_hamiltonian(0.7, lambda t: 0.4, lambda t: 1.1)
    dev = check_matrix_c_symmetry(evolve(B, 0.0, 1.5).matrix, np.eye(2))
    assert dev <= 1e-9


def test_noncommuting_family_symmetry_is_only_measured():
    # kappa and lam varying out of phase: [B(t1), B(t2)] != 0 and the
    # propagator has no reason to stay symmetric — the check still returns
    # a finite defect rather than asserting anything
    B = bagchi_hamiltonian(
        1.0, lambda t: 0.8 * math.cos(3 * t), lambda t: 0.9 * math.sin(2 * t)
    )
    dev = check_matrix_c_symmetry(evolve(B, 0.0, 2.0).matrix, np.eye(2))
    assert math.isfinite(dev)


# --- adjoint difference quotient -----------------------------------------------

def test_adjoint_family_quotient_is_first_order():
    B = bagchi_hamiltonian(1.0, lambda t: 0.5 * math.cos(t), lambda t: 0.8)
    z = np.array([1.0, 0.5 - 0.25j])
    hs = np.array([3e-2, 1e-2, 3e-3, 1e-3])
    U_10 = evolve(B, 0.0, 1.0, rel_tol=1e-12).matrix
    errs = check_adjoint_family(B, U_10, 1.0, z, hs, rel_tol=1e-12)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - 1.0) <= 0.1


def test_adjoint_family_rejects_bad_step():
    B = _constant(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="h must be positive"):
        check_adjoint_family(B, np.eye(2), 1.0, np.ones(2), [1e-3, 0.0])


# --- stiffness escape hatch -----------------------------------------------------

def test_nan_coefficients_raise_stiffness_error():
    B = _constant([[math.nan]])
    with pytest.raises(StiffnessError, match="underflowed"):
        evolve(B, 0.0, 1.0)


# --- chained time series -------------------------------------------------------

def _bagchi_cosine():
    return bagchi_hamiltonian(1.0, lambda t: 0.4 * math.cos(1.3 * t + 0.3),
                      lambda t: math.cos(0.7 * t + 1.1))


def test_chained_series_matches_per_sample_evolve():
    B = _bagchi_cosine()
    times = np.linspace(0.0, 5.0, 21)
    series, _ = evolution_series(B, times)
    assert np.array_equal(series[0], np.eye(2))
    for tk, U in zip(times[1:], series[1:]):
        direct = evolve(B, 0.0, float(tk)).matrix
        assert np.max(np.abs(U - direct)) <= 1e-9 * np.max(np.abs(direct))


def test_chained_series_matches_dop853():
    B = _bagchi_cosine()
    times = np.linspace(0.0, 5.0, 201)
    series, _ = evolution_series(B, times)

    def rhs(t, y):
        return (B([t])[0] @ y.view(complex).reshape(2, 2)).ravel().view(float)

    sol = solve_ivp(rhs, (0.0, 5.0), np.eye(2, dtype=complex).ravel().view(float),
                    method="DOP853", t_eval=times, rtol=1e-13, atol=1e-15)
    ref = sol.y.T.copy().view(complex).reshape(len(times), 2, 2)
    assert np.max(np.abs(np.array(series) - ref)) <= 1e-10


def test_chained_series_steps_stay_near_one_span():
    # each segment costs a few steps at least, but not a restart from s
    B = _bagchi_cosine()
    _, stats = evolution_series(B, np.linspace(0.0, 5.0, 201))
    assert len(stats) == 200
    span = evolve(B, 0.0, 5.0).stats.steps
    assert sum(st.steps for st in stats) < 2.5 * span


def test_chained_series_edge_cases():
    B = _bagchi_cosine()
    series, stats = evolution_series(B, np.linspace(0.0, 5.0, 1))
    assert isinstance(series, np.ndarray) and series.shape == (1, 2, 2)
    assert np.array_equal(series[0], np.eye(2))
    assert stats == []
    series, stats = evolution_series(B, np.linspace(2.0, 2.0, 4))
    assert isinstance(series, np.ndarray) and series.shape == (4, 2, 2)
    assert all(np.array_equal(U, np.eye(2)) for U in series)
    assert [st.steps for st in stats] == [0, 0, 0]
    series, _ = evolution_series(B, np.linspace(0.0, 5.0, 6))
    assert isinstance(series, np.ndarray) and series.shape == (6, 2, 2)


def test_adjoint_family_integrates_u_once(monkeypatch):
    B = _bagchi_cosine()
    z = np.array([0.3 - 0.1j, 0.8 + 0.2j])
    hs = (3e-2, 1e-2, 3e-3, 1e-3)
    calls = []

    def counting(B, spans, rel_tol):
        calls.append(list(spans))
        return _integrate_spans(B, spans, rel_tol)

    U_t = evolve(B, 0.0, 1.0, 1e-12).matrix
    monkeypatch.setattr(evolution, "_integrate_spans", counting)
    errs = check_adjoint_family(B, U_t, 1.0, z, hs, 1e-12)
    # one batch of the short spans U(1 + h, 1); U(1, 0) is the caller's
    assert calls == [[(1.0, 1.0 + h) for h in hs]]
    assert not any(t0 == 0.0 for t0, _ in calls[0])
    for h, err in zip(hs, errs):
        U_th = evolve(B, 1.0, 1.0 + h, 1e-12).matrix @ U_t  # the cocycle
        quotient = (U_th.conj().T @ z - U_t.conj().T @ z) / h
        assert err == np.linalg.norm(quotient - U_t.conj().T @ (B([1.0])[0].conj().T @ z))


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
        return U, IntegratorStats(steps=0, rejected=0, max_local_error=0.0)
    span = t1 - t0
    h = span / 50.0
    h_floor = abs(span) * ev._MIN_STEP_FACTOR
    x = t0
    steps = rejected = 0
    max_err = 0.0
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
            max_err = max(max_err, local)
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
            raise StiffnessError(
                f"step size {abs(h):.3e} underflowed at t = {x:.6g}; "
                "the coefficient family is too stiff for the 5(4) pair"
            )
    return U, IntegratorStats(steps=steps, rejected=rejected, max_local_error=max_err)


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
], ids=["bagchi-cosine", "constant-d16", "kinked-table", "backward"])
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


@pytest.mark.parametrize("make, spans", [
    # unequal forward spans, a backward span and a zero span
    (_bagchi_cosine, [(0.0, 5.0), (1.0, 1.3), (4.0, -1.0), (2.0, 2.0), (0.5, 3.5)]),
    (_kinked_table, [(0.0, 3.0), (0.5, 1.0), (3.0, 0.2), (1.0, 1.0), (2.0, 2.9)]),
    # one array for every value of B, broadcast over the batch
    (_constant_d16, [(0.0, 2.0), (0.3, 0.4), (2.0, 0.0), (1.0, 1.0)]),
], ids=["bagchi-cosine", "kinked-table", "constant-d16"])
@pytest.mark.parametrize("spans_per_batch", [None, 2])
def test_batch_matches_each_span_alone_bit_for_bit(make, spans, spans_per_batch,
                                                   monkeypatch):
    n = make()([0.0]).shape[-1]
    _split_batches(monkeypatch, n, spans_per_batch)
    B, count = _counting(make())
    mats, stats = _integrate_spans(B, spans, 1e-10)
    assert isinstance(mats, np.ndarray) and mats.shape == (len(spans), n, n)
    assert len(stats) == len(spans)
    assert all(np.array_equal(U, np.eye(n)) for (t0, t1), U in zip(spans, mats) if t1 == t0)
    for (t0, t1), U, st in zip(spans, mats, stats):
        U_alone, st_alone = _integrate(make(), t0, t1, 1e-10)
        U_ref, st_ref = _reference_integrate(make(), t0, t1, 1e-10)
        assert np.array_equal(U, U_alone) and np.array_equal(U, U_ref)
        assert st == st_alone == st_ref
    # per span, stage 1 once, then five times per attempted step
    assert count["times"] == sum(1 + 5 * (st.steps + st.rejected) for st in stats)
    # one call at every span's start, then one per pass: a batch takes as
    # many passes as its longest span takes attempted steps
    attempts = [st.steps + st.rejected for (t0, t1), st in zip(spans, stats) if t1 != t0]
    size = spans_per_batch or len(attempts)
    assert count["calls"] == 1 + sum(max(attempts[i:i + size])
                                     for i in range(0, len(attempts), size))


def test_series_evaluates_b_only_in_its_steps():
    B, count = _counting(_bagchi_cosine())
    _, stats = evolution_series(B, np.linspace(0.0, 5.0, 3))
    assert count["times"] == sum(1 + 5 * (st.steps + st.rejected) for st in stats)
    # a single sample has no span: B is evaluated once, for the size of I
    B, count = _counting(_bagchi_cosine())
    evolution_series(B, [2.0])
    assert count == {"calls": 1, "times": 1}


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
    expected = None
    for t0, t1 in spans:  # the spans one after another, as a plain loop would
        try:
            _reference_integrate(B, t0, t1, 1e-10)
        except StiffnessError as exc:
            expected = str(exc)
            break
    assert expected is not None
    with pytest.raises(StiffnessError) as got:
        _integrate_spans(B, spans, 1e-10)
    assert str(got.value) == expected
