"""Non-autonomous propagators: axioms, two-level model, symmetry checks."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from focksym import evolution
from focksym.conjugation import check_matrix_c_symmetry
from focksym.evolution import (
    BagchiParams,
    IntegratorStats,
    StiffnessError,
    TimeDependentOperator,
    bagchi_hamiltonian,
    check_adjoint_family,
    check_evolution_axioms,
    check_nonauto_stone,
    constant_operator,
    evolution_series,
    evolve,
    _integrate_matrix,
)


def _two_level(nu, kappa, lam):
    return bagchi_hamiltonian(
        BagchiParams(nu=nu, kappa=kappa, lam=lam)
    )


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

def test_operator_shape_mismatch_raises():
    B = TimeDependentOperator(dim=3, eval=lambda t: np.eye(2))
    with pytest.raises(ValueError, match="shape"):
        B(0.0)


def test_constant_operator_wraps_matrix():
    M = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    B = constant_operator(M)
    assert B.dim == 2
    np.testing.assert_array_equal(B(0.0), M)
    np.testing.assert_array_equal(B(17.3), M)


def test_evolve_rejects_reversed_interval():
    B = constant_operator(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="t >= s"):
        evolve(B, 1.0, 0.0)
    with pytest.raises(ValueError, match="rel_tol"):
        evolve(B, 0.0, 1.0, rel_tol=0.0)


def test_zero_span_is_identity_with_zero_steps():
    B = _two_level(1.0, lambda t: 0.3, lambda t: 0.5)
    op = evolve(B, 0.7, 0.7)
    np.testing.assert_array_equal(op.matrix, np.eye(2))
    assert op.stats.steps == 0
    assert op.stats.rejected == 0


def test_integrator_stats_are_sane():
    B = _two_level(1.0, lambda t: 0.5 * math.cos(t), lambda t: 0.8)
    op = evolve(B, 0.0, 2.0, rel_tol=1e-10)
    assert op.s == 0.0 and op.t == 2.0
    assert op.stats.steps >= 1
    assert op.stats.rejected >= 0
    assert 0.0 <= op.stats.max_local_error <= 1e-10 * 2.0


# --- two-parameter family axioms ----------------------------------------------

@pytest.mark.parametrize("rel_tol", [1e-8, 1e-10, 1e-12])
def test_axioms_within_budget(rel_tol):
    B = _two_level(1.0, lambda t: 0.5 * math.cos(t), lambda t: 0.8 + 0.1 * t)
    U_ts = evolve(B, 0.0, 1.5, rel_tol).matrix
    ident, comp = check_evolution_axioms(B, (0.0, 0.6, 1.5), U_ts, rel_tol)
    assert ident == 0.0  # U(t, t) never integrates
    assert comp <= 10.0 * rel_tol


def test_axioms_reject_unordered_times():
    B = constant_operator(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="s <= r <= t"):
        check_evolution_axioms(B, (0.0, 2.0, 1.0), np.eye(2))


def test_backward_integration_inverts_forward():
    B = _two_level(0.5, lambda t: 0.4 * math.sin(t), lambda t: 0.7)
    fwd = evolve(B, 0.0, 1.0, rel_tol=1e-12).matrix
    back, _ = _integrate_matrix(B, 1.0, 0.0, 1e-12)
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
    B = _two_level(nu, lambda t: kappa, lambda t: lam)
    for s, t in ((0.0, 0.5), (0.25, 1.75)):
        U = evolve(B, s, t, rel_tol=1e-12).matrix
        ref = _closed_form(nu, kappa, lam, t - s)
        assert np.max(np.abs(U - ref)) <= 1e-10


def test_no_damping_propagator_is_unitary():
    B = _two_level(1.3, lambda t: 0.0, lambda t: 0.9 + 0.2 * math.sin(t))
    U = evolve(B, 0.0, 2.0, rel_tol=1e-12).matrix
    assert np.max(np.abs(U.conj().T @ U - np.eye(2))) <= 1e-10


def test_solver_agrees_with_scipy_reference():
    nu, lam_0 = 1.0, 0.8
    B = _two_level(nu, lambda t: 0.5 * math.cos(t), lambda t: lam_0)

    def rhs(t, y):
        return (B(t) @ y.reshape(2, 2)).ravel()

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
    B = _two_level(nu, lambda t: k, lambda t: l)
    np.testing.assert_array_equal(B(0.0), -1j * H_direct)


@given(
    nu=st.floats(-2, 2),
    k0=st.floats(-1, 1),
    k1=st.floats(-1, 1),
    l0=st.floats(-1, 1),
    t=st.floats(0, 5),
)
@settings(max_examples=50, deadline=None)
def test_coefficient_matrix_always_symmetric(nu, k0, k1, l0, t):
    B = _two_level(nu, lambda s: k0 + k1 * s, lambda s: l0 * math.cos(s))
    M = B(t)
    assert np.array_equal(M, M.T)


# --- symmetry of the propagator -----------------------------------------------

def test_stone_residual_zero_for_symmetric_coefficients():
    B = _two_level(1.0, lambda t: 0.3 * math.cos(t), lambda t: 0.6)
    res = check_nonauto_stone(B, np.eye(2), s_grid=np.linspace(0, 2, 9))
    assert np.all(res == 0.0)


def test_stone_check_rejects_broken_involution():
    B = constant_operator(np.zeros((2, 2)))
    M = np.array([[0.0, 1.0], [-1.0, 0.0]])  # M conj(M) = -I
    with pytest.raises(ValueError, match="involution"):
        check_nonauto_stone(B, M, s_grid=[0.0])


def test_stone_residual_measures_swap_asymmetry():
    # diagonal coefficients vs the swap involution: residual |b1 - b2|
    B = constant_operator(np.diag([1.0 + 0j, 3.0 + 0j]))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    res = check_nonauto_stone(B, swap, s_grid=[0.0, 1.0])
    np.testing.assert_allclose(res, [2.0, 2.0])


def test_propagator_symmetric_for_commuting_family():
    # lam = 0 keeps every B(t) diagonal, so the family commutes and the
    # propagator inherits the coefficient symmetry
    B = _two_level(1.0, lambda t: 0.3 * math.cos(t), lambda t: 0.0)
    dev = check_matrix_c_symmetry(evolve(B, 0.0, 2.0).matrix, np.eye(2))
    assert dev <= 1e-9


def test_propagator_symmetric_for_constant_coefficient():
    B = _two_level(0.7, lambda t: 0.4, lambda t: 1.1)
    dev = check_matrix_c_symmetry(evolve(B, 0.0, 1.5).matrix, np.eye(2))
    assert dev <= 1e-9


def test_noncommuting_family_symmetry_is_only_measured():
    # kappa and lam varying out of phase: [B(t1), B(t2)] != 0 and the
    # propagator has no reason to stay symmetric — the check still returns
    # a finite defect rather than asserting anything
    B = _two_level(
        1.0, lambda t: 0.8 * math.cos(3 * t), lambda t: 0.9 * math.sin(2 * t)
    )
    dev = check_matrix_c_symmetry(evolve(B, 0.0, 2.0).matrix, np.eye(2))
    assert math.isfinite(dev)


# --- adjoint difference quotient -----------------------------------------------

def test_adjoint_family_quotient_is_first_order():
    B = _two_level(1.0, lambda t: 0.5 * math.cos(t), lambda t: 0.8)
    z = np.array([1.0, 0.5 - 0.25j])
    hs = np.array([3e-2, 1e-2, 3e-3, 1e-3])
    errs = check_adjoint_family(B, 0.0, 1.0, z, hs, rel_tol=1e-12)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - 1.0) <= 0.1


def test_adjoint_family_rejects_bad_step():
    B = constant_operator(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="h must be positive"):
        check_adjoint_family(B, 0.0, 1.0, np.ones(2), [1e-3, 0.0])


# --- stiffness escape hatch -----------------------------------------------------

def test_nan_coefficients_raise_stiffness_error():
    B = TimeDependentOperator(
        dim=1, eval=lambda t: np.array([[math.nan]], dtype=complex)
    )
    with pytest.raises(StiffnessError, match="underflowed"):
        evolve(B, 0.0, 1.0)


# --- chained time series -------------------------------------------------------

def _bagchi_cosine():
    return _two_level(1.0, lambda t: 0.4 * math.cos(1.3 * t + 0.3),
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
        return (B(t) @ y.view(complex).reshape(2, 2)).ravel().view(float)

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
    assert len(series) == 1 and np.array_equal(series[0], np.eye(2))
    assert stats == []
    series, stats = evolution_series(B, np.linspace(2.0, 2.0, 4))
    assert len(series) == 4 and all(np.array_equal(U, np.eye(2)) for U in series)
    assert [st.steps for st in stats] == [0, 0, 0]


def test_adjoint_family_integrates_u_once(monkeypatch):
    B = _bagchi_cosine()
    z = np.array([0.3 - 0.1j, 0.8 + 0.2j])
    hs = (3e-2, 1e-2, 3e-3, 1e-3)
    calls = []

    def counting(B, s, t, rel_tol=1e-10):
        calls.append((s, t))
        return evolve(B, s, t, rel_tol)

    monkeypatch.setattr(evolution, "evolve", counting)
    errs = check_adjoint_family(B, 0.0, 1.0, z, hs, 1e-12)
    # U(1, 0) once, then only the short span U(1 + h, 1) for each h
    assert calls == [(0.0, 1.0)] + [(1.0, 1.0 + h) for h in hs]
    U_t = evolve(B, 0.0, 1.0, 1e-12).matrix
    for h, err in zip(hs, errs):
        U_th = evolve(B, 1.0, 1.0 + h, 1e-12).matrix @ U_t  # the cocycle
        quotient = (U_th.conj().T @ z - U_t.conj().T @ z) / h
        assert err == np.linalg.norm(quotient - U_t.conj().T @ (B(1.0).conj().T @ z))


# --- the step loop, bit for bit ----------------------------------------------------

def _reference_integrate(B, t0, t1, rel_tol):
    """The Dormand-Prince loop before stage reuse: seven evaluations of B and
    seven products per attempted step, every sum formed from scratch."""
    ev = evolution
    U = np.eye(B.dim, dtype=complex)
    if t1 == t0:
        return U, IntegratorStats(steps=0, rejected=0, max_local_error=0.0)
    span = t1 - t0
    h = span / 50.0
    h_floor = abs(span) * ev._MIN_STEP_FACTOR
    x = t0
    steps = rejected = 0
    max_err = 0.0
    direction = 1.0 if span > 0 else -1.0
    while (t1 - x) * direction > 0:
        if (x + h - t1) * direction > 0:
            h = t1 - x
        stages = []
        for i in range(7):
            Y = U
            for j, c in enumerate(ev._COUPLING[i]):
                if c:
                    Y = Y + (h * c) * stages[j]
            stages.append(B(x + ev._STAGE_TIMES[i] * h) @ Y)
        U5 = U
        for i, w in enumerate(ev._WEIGHTS5):
            if w:
                U5 = U5 + (h * w) * stages[i]
        err = np.zeros_like(U)
        for i, w in enumerate(ev._ERROR_WEIGHTS):
            if w:
                err = err + (h * w) * stages[i]
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
    """B with a counter of its evaluations."""
    calls = [0]

    def eval_b(t):
        calls[0] += 1
        return B(t)

    return TimeDependentOperator(dim=B.dim, eval=eval_b), calls


def _constant_d16():
    q, r = np.linalg.qr(np.random.default_rng(0).standard_normal((16, 16)))
    O = q * np.sign(np.diag(r))
    spectrum = np.linspace(-1.0, 1.0, 16) - 1j * np.linspace(0.0, 0.3, 16)
    return constant_operator(-1j * (O * spectrum) @ O.T)


def _kinked_table():
    # piecewise-linear in t with kinks at 0.7, 1.3 and 2.2: steps across them fail
    ts = np.array([0.0, 0.7, 1.3, 2.2, 3.0])
    rng = np.random.default_rng(3)
    stack = -1j * (rng.standard_normal((5, 3, 3)) + 2.0 * np.eye(3))

    def eval_b(t):
        if t <= ts[0]:
            return stack[0]
        if t >= ts[-1]:
            return stack[-1]
        j = int(np.searchsorted(ts, t) - 1)
        w = (t - ts[j]) / (ts[j + 1] - ts[j])
        return (1 - w) * stack[j] + w * stack[j + 1]

    return TimeDependentOperator(dim=3, eval=eval_b)


@pytest.mark.parametrize("make, t0, t1, rel_tol", [
    (_bagchi_cosine, 0.0, 5.0, 1e-10),
    (_constant_d16, 0.0, 2.0, 1e-10),
    (_kinked_table, 0.0, 3.0, 1e-10),
    (_bagchi_cosine, 4.0, -1.0, 1e-9),
], ids=["bagchi-cosine", "constant-d16", "kinked-table", "backward"])
def test_step_loop_matches_reference_bit_for_bit(make, t0, t1, rel_tol):
    B, calls = _counting(make())
    U, stats = _integrate_matrix(B, t0, t1, rel_tol)
    U_ref, stats_ref = _reference_integrate(make(), t0, t1, rel_tol)
    assert np.array_equal(U, U_ref)
    assert stats == stats_ref
    # stage 1 once, then five evaluations per attempted step
    assert calls[0] == 1 + 5 * (stats.steps + stats.rejected)


def test_kinked_table_forces_rejections():
    _, stats = _integrate_matrix(_kinked_table(), 0.0, 3.0, 1e-10)
    assert stats.rejected > 0


def test_last_stage_is_the_fifth_order_solution():
    assert evolution._COUPLING[6] == evolution._WEIGHTS5[:6]
    assert evolution._WEIGHTS5[6] == 0.0
    assert evolution._STAGE_TIMES[5] == evolution._STAGE_TIMES[6] == 1.0


def test_stiff_generator_raises_the_reference_error():
    B = constant_operator(np.array([[1e13]]))
    with pytest.raises(StiffnessError) as ref:
        _reference_integrate(B, 0.0, 1.0, 1e-10)
    with pytest.raises(StiffnessError) as got:
        _integrate_matrix(B, 0.0, 1.0, 1e-10)
    assert str(got.value) == str(ref.value)
