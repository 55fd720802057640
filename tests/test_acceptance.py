"""Acceptance gates: thirteen headline guarantees at working size.

One test per guarantee; `pytest -v` prints one verdict line each.  The
tolerances here are frozen contract values, not tuning knobs — if a gate
cannot be met, the red line plus its failure message is the deliverable.

Criterion 8 includes the candidate value eta = 0, whose partial norms grow
only like sqrt(N) (doubling ratio -> sqrt(2) ~ 1.42), so the doubling
branch of the certificate can never fire there; Gauss's test on the paired
terms (Raabe statistic m / (2m + 1) < 1/2) attests the divergence instead.
"""

import math

import numpy as np
import pytest

from focksym.conjugation import (
    ConjugationParams,
    check_involution,
    check_isometry,
    check_matrix_c_symmetry,
    conjugation_matrix,
    standard_conjugation,
)
from focksym.evolution import (
    _integrate_spans,
    adjoint_spans,
    bagchi_hamiltonian,
    check_adjoint_family,
    check_evolution_axioms,
    check_nonauto_stone,
    evolve,
)
from focksym.fock import monomial
from focksym.generator import (
    check_empty_point_spectrum,
    check_generator_fd,
    dissipativity_margin,
    eigen_residuals,
    generator_matrix,
    matrix_exponential,
    point_spectrum_predicted,
    resolvent_bound_check,
)
from focksym.rng import complex_normal_vectors
from focksym.semigroup import (
    DilationFamily,
    TranslationFamily,
    check_flow_cocycle,
    check_semigroup_law,
    family_eval,
    laplace_resolvent,
    n_omega_estimate,
    norm_w_one_closed_form,
    semigroup_matrix,
    solve_scaling_equation,
)
from focksym.wco import WCOParams, is_bounded, wco_matrix

SEED = 20260814
STD = standard_conjugation()
B0_CONJUGATIONS = (
    ConjugationParams(a=1.0, b=0.0, c=1.0),
    ConjugationParams(a=np.exp(0.7j), b=0.0, c=1.0),
    ConjugationParams(a=-1.0, b=0.0, c=1j),
)
OFFSET = ConjugationParams(a=1.0, b=1j, c=math.exp(-0.5))


def _flat(v):
    """A parameter function of the two-level model that is v at every time."""
    return lambda ts: np.full(len(ts), v)


def test_criterion_01_conjugation_involution_isometry():
    vecs = complex_normal_vectors(SEED, 2, 64)
    f = vecs[0] / np.linalg.norm(vecs[0])
    g = vecs[1] / np.linalg.norm(vecs[1])
    for p in B0_CONJUGATIONS:
        op = conjugation_matrix(p, 64)
        assert check_involution(op, 8) <= 1e-12
        assert check_isometry(op, f, g) <= 1e-12
    # the offset conjugation is truncation-limited; its involution residual
    # on monomials of degree <= 8 must drop by at least a decade from 32 to 64
    r32 = check_involution(conjugation_matrix(OFFSET, 32), 8)
    r64 = check_involution(conjugation_matrix(OFFSET, 64), 8)
    assert r32 / r64 >= 10.0


def test_criterion_02_boundedness_matches_norm_probes():
    bounded = [
        WCOParams(A=0.5, B=0.0, C=1.0, D=1.0),
        WCOParams(A=1.0, B=1.0, C=1.0, D=-1.0),
        WCOParams(A=0.5 + 0.5j, B=0.2, C=0.7, D=0.1 + 0.1j),
    ]
    unbounded = [
        WCOParams(A=1.0, B=0.0, C=1.0, D=1.0),
        WCOParams(A=1.2, B=0.0, C=1.0, D=0.0),
        WCOParams(A=1.0, B=1j, C=1.0, D=2j),
    ]
    for p in bounded:
        assert is_bounded(p).bounded
        norms = [np.linalg.norm(wco_matrix(p, n), 2) for n in (16, 32, 64)]
        assert norms[1] <= 1.01 * norms[0]
        assert norms[2] <= 1.01 * norms[1]
    for p in unbounded:
        assert not is_bounded(p).bounded
        norms = [np.linalg.norm(wco_matrix(p, n), 2) for n in (16, 32, 64)]
        assert norms[1] >= 2.0 * norms[0]
        assert norms[2] >= 2.0 * norms[1]


def test_criterion_03_semiflow_semicocycle_laws():
    families = (
        TranslationFamily(E=0.8 + 0.3j, F=0.1, conj=STD),
        DilationFamily(ell=-0.7 + 0.2j, G=0.5, H=0.1j, conj=STD),
    )
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    for fam in families:
        for t in grid:
            for s in grid:
                flow, cocycle = check_flow_cocycle(fam, t, s)
                assert flow <= 1e-10
                assert cocycle <= 1e-10


def test_criterion_04_semigroup_law_on_monomials():
    families = (
        TranslationFamily(E=1.0, F=0.2, conj=STD),
        DilationFamily(ell=-1.0 + 0.5j, G=1.0, H=0.1, conj=STD),
    )
    times = (0.1, 0.25, 0.5, 1.0)
    for fam in families:
        assert check_semigroup_law(fam, times, 7, 64) <= 1e-8


def test_criterion_05_generator_finite_difference_and_exponential():
    families = (
        TranslationFamily(E=1.0, F=0.0, conj=STD),
        DilationFamily(ell=-1.0, G=1.0, H=0.1, conj=STD),
    )
    for fam in families:
        for k in range(5):
            slope_f, _ = check_generator_fd(fam, k, 64, scheme="forward")
            slope_c, _ = check_generator_fd(fam, k, 64, scheme="central")
            assert 0.9 <= slope_f <= 1.1
            assert 1.9 <= slope_c <= 2.1
    fam = families[0]
    Q = generator_matrix(fam, 64)
    for t in (0.1, 0.25, 0.5):
        E_t = matrix_exponential(Q, t)
        W_t = semigroup_matrix(fam, t, 64)
        for k in range(6):
            v = monomial(k, 64)
            assert np.linalg.norm((E_t @ v - W_t @ v)[:20]) <= 1e-6


def test_criterion_06_generator_transpose_symmetry():
    for p in B0_CONJUGATIONS:
        cases = (
            TranslationFamily(E=1.0, F=0.2, conj=p),
            DilationFamily(ell=-1.0, G=0.8, H=0.1j, conj=p),
        )
        for fam in cases:
            for dim in (16, 32, 64):
                Q = generator_matrix(fam, dim)
                M = conjugation_matrix(fam.conj, dim)
                assert check_matrix_c_symmetry(Q, M) <= 1e-12


def test_criterion_07_point_spectrum_lattice_and_residuals():
    # vanishing twist: the truncation is triangular and eigenvalues are exact
    fam0 = DilationFamily(ell=-1.0 + 0.5j, G=0.0, H=0.3, conj=STD)
    predicted = point_spectrum_predicted(fam0, 63)
    eigs = np.linalg.eigvals(generator_matrix(fam0, 64))
    for lam in predicted:
        assert float(np.min(np.abs(eigs - lam))) <= 1e-12
    # non-vanishing twist: eigenfunction residuals, small and non-increasing
    fam1 = DilationFamily(ell=1.0, G=1.0, H=0.0, conj=STD)
    for m in range(6):
        r40, r80 = (eigen_residuals(fam1, (m,), (dim,))[0, 0] for dim in (40, 80))
        assert r80 <= 1e-10
        assert r80 <= r40


def test_criterion_08_empty_point_spectrum_certificate():
    fam = TranslationFamily(E=1.0, F=0.0, conj=STD)
    for eta in (0.0 + 0j, 1.0 + 1.0j):
        cert = check_empty_point_spectrum(fam, eta, (16, 32, 64))
        # for eta = 0 the candidate is the borderline Gaussian whose partial
        # norms grow only like sqrt(N); the doubling ratio tends to sqrt(2)
        # and never reaches the threshold of 10, so the certificate fires
        # through its Gauss branch there and through doubling for 1+i.
        assert cert.certified, (
            f"eta = {eta}: doubling ratios {cert.ratios} "
            f"below threshold {cert.threshold}"
        )


def test_criterion_09_growth_and_norm_formulas():
    families = (
        TranslationFamily(E=1.0, F=0.0, conj=STD),
        TranslationFamily(E=0.5j, F=0.2, conj=STD),
        DilationFamily(ell=-1.0, G=1.0, H=0.1, conj=STD),
    )
    e0 = monomial(0, 64)
    for fam in families:
        for t in (0.1, 0.25, 0.5, 0.75, 1.0):
            closed = norm_w_one_closed_form(fam, t)
            W = semigroup_matrix(fam, t, 64)
            truncated = float(np.linalg.norm(W[:, 0]))
            assert abs(truncated - closed) / closed <= 1e-8
    special = families[0]  # E = 1, a = 1, F = 0
    for t in (0.25, 0.5, 1.0):
        assert norm_w_one_closed_form(special, t) == pytest.approx(
            math.exp(t * t), rel=1e-12
        )
    for omega in (0.0, 1.0, 10.0):
        rep = n_omega_estimate(special, e0, omega)
        assert rep.diverging


def test_criterion_10_resolvent_diagonal_and_identity():
    fam = DilationFamily(ell=-1.0, G=0.0, H=0.0, conj=STD)
    lam = 1.0
    Q = generator_matrix(fam, 64)
    for k in range(5):
        e_k = monomial(k, 64)
        [coeffs] = laplace_resolvent(fam, lam, e_k[:, None], omega=0.0).T
        expected = e_k / (lam + k)
        assert np.linalg.norm(coeffs - expected) <= 1e-8
        resid = (lam * np.eye(64) - Q) @ coeffs - e_k
        assert np.linalg.norm(resid) <= 1e-6


def test_criterion_11_dissipativity_margin_and_bound():
    fam = TranslationFamily(E=1j, F=-1.0, conj=STD)
    section = generator_matrix(fam, 65)[:, :64]  # exactly Q on polynomials of degree < 64
    assert dissipativity_margin(section[:64]) == pytest.approx(-1.0, abs=1e-12)
    assert resolvent_bound_check(section, (0.1, 1.0, 10.0)) >= 1.0 - 1e-10


def test_criterion_12_evolution_family_axioms_and_symmetry():
    rel_tol = 1e-10
    B = bagchi_hamiltonian(1.0, lambda ts: 0.5 * np.cos(ts), _flat(0.8))
    # U(t, t), U(t, r), U(r, s) and U(t, s) at (s, r, t) = (0, 0.6, 1.5)
    axioms, _ = _integrate_spans(B, [(1.5, 1.5), (0.6, 1.5), (0.0, 0.6), (0.0, 1.5)], rel_tol)
    ident, comp = check_evolution_axioms(axioms)
    assert ident <= 10 * rel_tol
    assert comp <= 10 * rel_tol
    # constant coefficients against the hand 2x2 exponential
    nu, kappa, lam = 1.0, 0.3, 0.9
    Bc = bagchi_hamiltonian(nu, _flat(kappa), _flat(lam))
    tau = 1.25
    U = evolve(Bc, 0.0, tau, rel_tol=1e-12).matrix
    H = np.array([[nu + 1j * kappa, lam], [lam, nu - 1j * kappa]])
    mu = math.sqrt(lam**2 - kappa**2)
    ref = np.exp(-1j * tau * nu) * (
        math.cos(mu * tau) * np.eye(2)
        - 1j * (math.sin(mu * tau) / mu) * (H - nu * np.eye(2))
    )
    assert np.max(np.abs(U - ref)) <= 1e-9
    # coefficient symmetry at every time, to rounding
    res = check_nonauto_stone(B, np.eye(2), s_grid=np.linspace(0, 2, 9))
    assert res <= np.finfo(float).eps
    # commuting family (diagonal coefficients) keeps the propagator symmetric
    Bd = bagchi_hamiltonian(1.0, lambda ts: 0.3 * np.cos(ts), _flat(0.0))
    assert check_matrix_c_symmetry(evolve(Bd, 0.0, 2.0).matrix, np.eye(2)) <= 1e-9
    # adjoint difference quotient is first order in h
    z = np.array([1.0, 0.5 - 0.25j])
    hs = np.array([3e-2, 1e-2, 3e-3, 1e-3])
    U_10 = evolve(B, 0.0, 1.0, rel_tol=1e-12).matrix
    steps, _ = _integrate_spans(B, adjoint_spans(1.0, hs), 1e-12)
    errs = check_adjoint_family(B, U_10, 1.0, z, hs, steps)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 0.9 <= slope <= 1.1


def test_criterion_13_scaling_solver_reproduces_multipliers():
    families = (
        TranslationFamily(E=1.0, F=0.2, conj=STD),
        TranslationFamily(E=0.5j, F=-0.1, conj=STD),
        DilationFamily(ell=-1.0, G=1.0, H=0.1, conj=STD),
        DilationFamily(ell=0.5, G=0.5j, H=0.0, conj=STD),
    )
    for fam in families:
        lam0, dpsi = fam.scaling
        for t in np.linspace(0.0, 2.0, 9):
            solved = solve_scaling_equation(lam0, dpsi, float(t))
            target = family_eval(fam, float(t)).C
            assert abs(solved - target) / abs(target) <= 1e-10
