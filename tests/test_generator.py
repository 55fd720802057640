"""Generators of the two operator families and their spectral claims."""

import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
import sympy

from focksym.conjugation import ConjugationParams, standard_conjugation
from focksym.fock import kernel_vector
from focksym.generator import (
    RAABE_LIMIT,
    EmptyPointSpectrum,
    candidate_log_terms,
    certify_divergence,
    check_empty_point_spectrum,
    check_generator_fd,
    check_stone_adjoint_relation,
    dissipativity_margin,
    eigen_residual,
    eigenfunction_coeffs,
    generator_matrix,
    matrix_exponential,
    point_spectrum_predicted,
    resolvent_bound_check,
    spectrum_report,
)
from focksym.rng import complex_normal_vectors
from focksym.semigroup import DilationFamily, TranslationFamily, semigroup_matrix

STD = standard_conjugation()


def _ladders(dim):
    """Independent construction of creation/annihilation/number matrices."""
    create = np.zeros((dim, dim), dtype=complex)
    annihilate = np.zeros((dim, dim), dtype=complex)
    for n in range(dim - 1):
        create[n + 1, n] = math.sqrt(n + 1)
        annihilate[n, n + 1] = math.sqrt(n + 1)
    number = np.diag(np.arange(dim, dtype=complex))
    return create, annihilate, number


def test_translation_generator_is_drift_plus_ladders():
    E, F, a = 1 - 0.5j, 0.3j, STD.a
    fam = TranslationFamily(E=E, F=F, conj=STD)
    create, annihilate, _ = _ladders(12)
    expected = F * np.eye(12) + a * E * create + E * annihilate
    np.testing.assert_array_equal(generator_matrix(fam, 12).dense(), expected)


def test_dilation_generator_is_number_plus_ladders():
    ell, G, H = -0.8 + 0.1j, 0.6, 0.2j
    fam = DilationFamily(ell=ell, G=G, H=H, conj=STD)
    beta = STD.a * G + STD.b
    create, annihilate, number = _ladders(12)
    expected = (
        H * np.eye(12) + ell * number - ell * beta * create - ell * G * annihilate
    )
    np.testing.assert_array_equal(generator_matrix(fam, 12).dense(), expected)


def test_structured_apply_matches_dense():
    fam = DilationFamily(ell=1.0, G=1.0, H=0.0, conj=STD)
    gen = generator_matrix(fam, 32)
    v = complex_normal_vectors(3, 1, 32)[0]
    dense_route = gen.dense() @ v
    np.testing.assert_allclose(gen.apply(v), dense_route, rtol=0, atol=1e-12)


def test_finite_difference_slopes():
    for fam in (
        TranslationFamily(E=1.0, F=0.0, conj=STD),
        DilationFamily(ell=-1.0, G=1.0, H=0.1, conj=STD),
    ):
        for k in (0, 2):
            slope_f, errs_f = check_generator_fd(fam, k, 64, scheme="forward")
            slope_c, errs_c = check_generator_fd(fam, k, 64, scheme="central")
            assert 0.9 <= slope_f <= 1.1
            assert 1.9 <= slope_c <= 2.1
            assert np.all(np.diff(errs_f) < 0)  # shrinking h shrinks the error


def test_fd_rejects_unknown_scheme():
    fam = TranslationFamily(E=1.0, F=0.0, conj=STD)
    with pytest.raises(ValueError):
        check_generator_fd(fam, 0, 16, scheme="richardson")


# --- point spectrum ---------------------------------------------------------

def test_translation_has_no_eigenvalue_lattice():
    fam = TranslationFamily(E=1.0, F=0.0, conj=STD)
    with pytest.raises(EmptyPointSpectrum):
        point_spectrum_predicted(fam, 3)


def test_dilation_lattice_values():
    fam = DilationFamily(ell=1.0, G=1.0, H=0.0, conj=STD)  # beta = 1
    lattice = point_spectrum_predicted(fam, 4)
    # H - ell beta G + k ell = k - 1
    np.testing.assert_array_equal(lattice, np.arange(-1, 4, dtype=complex))


def test_triangular_case_matches_dense_eigenvalues():
    fam = DilationFamily(ell=-1.0 + 0.5j, G=0.0, H=0.3, conj=STD)  # beta = 0
    predicted = point_spectrum_predicted(fam, 5)
    eigs = np.linalg.eigvals(generator_matrix(fam, 48).dense())
    for lam in predicted:
        assert np.min(np.abs(eigs - lam)) < 1e-12


def test_eigenfunction_coefficients_low_order():
    beta = 0.7 - 0.2j
    f0 = eigenfunction_coeffs(0, 1.0, beta, 8).coeffs
    # normalized coefficients: Taylor coefficients times sqrt(n!)
    for n in range(8):
        assert f0[n] == pytest.approx(beta**n / math.sqrt(math.factorial(n)), rel=1e-14)
    G = 0.5
    f1 = eigenfunction_coeffs(1, G, beta, 8).coeffs
    assert f1[0] == pytest.approx(-G, rel=1e-14)  # (z - G) e^{beta z} at z^0
    for n in range(1, 8):
        taylor = beta ** (n - 1) / math.factorial(n - 1) - G * beta**n / math.factorial(n)
        assert f1[n] == pytest.approx(taylor * math.sqrt(math.factorial(n)), rel=1e-13)


def test_eigenfunction_coefficients_at_dim_400_match_mpmath():
    # sqrt(n!) overflows a double past n = 300, and no coefficient forms it:
    # each is sqrt(n!) sum_j binom(m, j) (-G)^(m-j) beta^(n-j) / (n-j)!
    dim = 400
    for G, beta in ((0.5 - 1j, 2.5 + 1.5j), (-2 + 0.5j, -2 + 2j)):
        for m in range(4):
            vec = eigenfunction_coeffs(m, G, beta, dim).coeffs
            with mpmath.workdps(30):
                ref = np.array([complex(mpmath.sqrt(mpmath.factorial(n)) * mpmath.fsum(
                    mpmath.binomial(m, j) * (-mpmath.mpc(G)) ** (m - j)
                    * mpmath.mpc(beta) ** (n - j) / mpmath.factorial(n - j)
                    for j in range(min(m, n) + 1))) for n in range(dim)])
            assert np.all(np.isfinite(vec))
            # relative error per entry, measured at most 3.2e-16 with an
            # 80-bit longdouble
            assert np.max(np.abs(vec - ref) / np.abs(ref)) <= 4e-16, (G, beta, m)


def test_eigenfunction_needs_its_monomial_in_the_truncation():
    with pytest.raises(ValueError, match="m < dim"):
        eigenfunction_coeffs(8, 1.0, 0.5, 8)


def test_eigen_residuals_small_and_monotone():
    fam = DilationFamily(ell=1.0, G=1.0, H=0.0, conj=STD)
    for m in range(6):
        r40 = eigen_residual(fam, m, 40)
        r60 = eigen_residual(fam, m, 60)
        r80 = eigen_residual(fam, m, 80)
        assert r80 <= 1e-10
        assert r80 <= r60 <= r40


def test_eigen_residual_requires_dilation():
    with pytest.raises(EmptyPointSpectrum):
        eigen_residual(TranslationFamily(E=1.0, F=0.0, conj=STD), 0, 16)


def test_spectrum_report_shape_and_keys():
    fam = DilationFamily(ell=1.0, G=1.0, H=0.0, conj=STD)
    rep = spectrum_report(fam, 3, 32)
    assert rep.predicted.shape == (4,)
    assert rep.residuals.shape == (4,)
    assert rep.truncated_eigenvalues.shape == (32,)
    blob = rep.to_json()
    assert set(blob) == {"predicted", "residuals", "truncated_eigs", "dim"}


# --- empty point spectrum certificate ----------------------------------------

def test_divergence_certificate_for_generic_candidate():
    fam = TranslationFamily(E=1.0, F=0.0, conj=STD)
    cert = check_empty_point_spectrum(fam, 1 + 1j, (16, 32, 64))
    assert cert.certified
    assert all(r >= 10.0 for r in cert.ratios.values())


def test_borderline_candidate_is_not_certified():
    # eta = 0 gives the Gaussian-type candidate whose partial norms grow
    # like sqrt(N): the doubling ratio tends to sqrt(2), far below the
    # certification threshold, at every truncation
    fam = TranslationFamily(E=1.0, F=0.0, conj=STD)
    cert = check_empty_point_spectrum(fam, 0.0, (16, 32, 64))
    assert cert.branch != "doubling"
    for ratio in cert.ratios.values():
        assert 1.3 < ratio < 1.6


def test_borderline_terms_match_central_binomial_oracle():
    # eta = 0: f = exp(-z^2/2), so t_{2m} = C(2m, m) / 4^m and t_{2m+1} = 0
    fam = TranslationFamily(E=1.0, F=0.0, conj=STD)
    log_terms = candidate_log_terms(fam, 0.0, 202)
    for m in range(101):
        with mpmath.workdps(30):
            exact = mpmath.binomial(2 * m, m) / mpmath.mpf(4) ** m
        assert math.exp(log_terms[2 * m]) == pytest.approx(float(exact), rel=1e-12)
        assert log_terms[2 * m + 1] == -math.inf


def test_borderline_terms_decay_like_inverse_sqrt():
    # sympy: sqrt(m) C(2m, m) / 4^m -> 1/sqrt(pi), so the t_{2m} dominate a
    # divergent p-series with p = 1/2 (limit taken on the logarithm)
    m = sympy.symbols("m", positive=True)
    log_term = (sympy.loggamma(2 * m + 1) - 2 * sympy.loggamma(m + 1)
                - m * sympy.log(4))
    limit = sympy.limit(sympy.log(m) / 2 + log_term, m, sympy.oo)
    assert sympy.simplify(sympy.exp(limit) - 1 / sympy.sqrt(sympy.pi)) == 0
    # the Raabe statistic of the paired terms is m (p_m / p_{m+1} - 1)
    ratio = sympy.binomial(2 * m, m) * 4 / sympy.binomial(2 * m + 2, m + 1)
    raabe = sympy.simplify(m * (sympy.combsimp(ratio) - 1))
    assert sympy.simplify(raabe - m / (2 * m + 1)) == 0


def test_borderline_candidate_is_certified_by_gauss_branch():
    fam = TranslationFamily(E=1.0, F=0.0, conj=STD)
    for n_seq in ((4, 8, 16), (16, 32, 64)):
        cert = check_empty_point_spectrum(fam, 0.0, n_seq)
        assert cert.certified and cert.branch == "gauss"
        # R_m = m / (2m + 1) increases, so each window peaks at m = N - 1
        for n, peak in cert.raabe_maxima.items():
            assert peak == pytest.approx((n - 1) / (2 * n - 1), rel=1e-12)
        last = max(cert.raabe_maxima.values())
        assert last <= cert.raabe_bound < 0.5
        # the geometric extrapolation lands near the limit 1/2
        assert 0.5 - cert.raabe_bound < 0.25 * (0.5 - last)
        assert cert.verdict() == (cert.raabe_bound, RAABE_LIMIT, "<=")


def test_growing_candidate_stays_with_doubling_branch():
    fam = TranslationFamily(E=1.0, F=0.0, conj=STD)
    cert = check_empty_point_spectrum(fam, 1 + 1j, (16, 32, 64))
    assert cert.branch == "doubling"
    assert cert.raabe_bound == math.inf  # R_m keeps falling, never settles
    small = check_empty_point_spectrum(fam, 1 + 1j, (4, 8, 16))
    assert small.branch == "none" and not small.certified
    assert small.verdict() == (min(small.ratios.values()), 10.0, ">=")


def _log_terms(vec):
    with np.errstate(divide="ignore"):
        return 2 * np.log(np.abs(vec.coeffs))


@pytest.mark.parametrize("n_seq", [(4, 8, 16), (16, 32, 64)])
def test_functions_in_the_space_fail_gauss_branch(n_seq):
    # negative controls: kernel vectors exp(conj(w) z) and the dilation
    # eigenfunctions (z - G)^m exp(beta z) have finite norm
    n_terms = 2 * max(n_seq) + 2
    controls = [kernel_vector(w, n_terms) for w in (0.5, 2.0, 3 + 1j, 5.0)]
    controls += [
        eigenfunction_coeffs(m, G, beta, n_terms)
        for m, G, beta in ((0, 1.0, 0.5), (2, 1.0, 0.5), (3, 1 + 1j, 2.0),
                           (1, 0.5, -1j), (4, 2.0, 3.0))
    ]
    for vec in controls:
        cert = certify_divergence(_log_terms(vec), n_seq)
        assert cert.branch != "gauss"
        assert cert.raabe_bound >= RAABE_LIMIT
        if n_seq[0] >= 16:
            assert not cert.certified


def test_candidate_terms_stay_finite_at_large_size():
    # the normalized recurrence keeps t_k representable where k! alone
    # overflows; partial norms keep their doubling behaviour at N = 256
    fam = TranslationFamily(E=1.0, F=0.0, conj=STD)
    flat = check_empty_point_spectrum(fam, 0.0, (64, 128, 256))
    assert all(1.4 < r < 1.42 for r in flat.ratios.values())
    assert flat.branch == "gauss"
    steep = check_empty_point_spectrum(fam, 1 + 1j, (64, 128, 256))
    ratios = [steep.ratios[n] for n in (64, 128, 256)]
    assert ratios == sorted(ratios) and steep.branch == "doubling"


def test_partial_norms_match_direct_summation():
    # rebuild the recursion naively and sum |f_k|^2 k! in plain arithmetic
    fam = TranslationFamily(E=1.0, F=0.25, conj=STD)
    eta = 0.5 + 0.5j
    cert = check_empty_point_spectrum(fam, eta, (8, 16))
    alpha = (eta - fam.F) / fam.E
    gamma2 = -STD.a  # 2 gamma
    f = [1.0 + 0j, alpha]
    for k in range(1, 40):
        f.append((alpha * f[k] + gamma2 * f[k - 1]) / (k + 1))
    for N, S in cert.partial_norms.items():
        direct = sum(abs(f[k]) ** 2 * math.factorial(k) for k in range(N))
        assert S == pytest.approx(direct, rel=1e-10)


def test_certificate_json_round_trip():
    fam = TranslationFamily(E=1.0, F=0.0, conj=STD)
    cert = check_empty_point_spectrum(fam, 1 + 1j, (8, 16))
    blob = cert.to_json()
    assert blob["certified"] is True
    assert blob["threshold"] == 10.0


# --- dissipativity ----------------------------------------------------------

def test_damped_symmetric_generator_margin():
    # Q = -I + i (creation + annihilation) has Hermitian part exactly -I
    fam = TranslationFamily(E=1j, F=-1.0, conj=STD)
    Q = generator_matrix(fam, 64).dense()
    assert dissipativity_margin(Q) == pytest.approx(-1.0, abs=1e-12)


def test_margin_of_diagonal_matrix():
    assert dissipativity_margin(np.diag([-1.0, -2.0, -5.0])) == pytest.approx(-1.0)
    assert dissipativity_margin(np.diag([3.0, -2.0])) == pytest.approx(3.0)


def test_resolvent_bound_for_dissipative_matrix():
    fam = TranslationFamily(E=1j, F=-1.0, conj=STD)
    Q = generator_matrix(fam, 64).dense()
    vectors = list(complex_normal_vectors(20260814, 100, 64))
    assert resolvent_bound_check(Q, (0.1, 1.0, 10.0), vectors) >= 1.0 - 1e-10


def test_resolvent_bound_detects_expansive_matrix():
    M = np.eye(4, dtype=complex)  # margin +1, inequality must fail for big alpha
    vectors = list(complex_normal_vectors(5, 10, 4))
    assert resolvent_bound_check(M, (10.0,), vectors) < 1.0


# --- matrix exponential ------------------------------------------------------

def test_expm_matches_scipy_on_random_input():
    M = complex_normal_vectors(17, 12, 12)  # 12x12 complex
    ours = matrix_exponential(M, 0.7)
    ref = scipy.linalg.expm(0.7 * M)
    assert np.max(np.abs(ours - ref)) / np.max(np.abs(ref)) < 1e-12


def test_expm_nilpotent_closed_form():
    N = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    for t in (0.5, 2.0):
        np.testing.assert_allclose(
            matrix_exponential(N, t), np.eye(2) + t * N, rtol=0, atol=1e-15
        )


def test_expm_rotation_closed_form():
    J = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
    theta = math.pi / 2
    expected = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    np.testing.assert_allclose(matrix_exponential(J, theta), expected, atol=1e-14)


def test_expm_semigroup_property():
    M = complex_normal_vectors(23, 6, 6)
    left = matrix_exponential(M, 0.3) @ matrix_exponential(M, 0.9)
    right = matrix_exponential(M, 1.2)
    assert np.max(np.abs(left - right)) < 1e-12 * np.max(np.abs(right))


def test_expm_overflow_guard():
    with pytest.raises(OverflowError):
        matrix_exponential(np.diag([1e21 + 0j, 0j]), 1.0)


def test_expm_approximates_family_member():
    fam = TranslationFamily(E=1.0, F=0.0, conj=STD)
    Q = generator_matrix(fam, 64).dense()
    for t in (0.1, 0.25, 0.5):
        E = matrix_exponential(Q, t)
        W = semigroup_matrix(fam, t, 64)
        for k in range(6):
            e_k = np.zeros(64, dtype=complex)
            e_k[k] = 1.0
            dev = np.linalg.norm((E @ e_k - W @ e_k)[:20])
            assert dev <= 1e-6


# --- adjoint relation at the truncation ---------------------------------------

def test_stone_relation_for_diagonal_conjugations():
    cases = [
        TranslationFamily(E=1.0, F=0.2, conj=STD),
        DilationFamily(ell=-1.0, G=0.8, H=0.1j, conj=ConjugationParams(-1.0, 0.0, 1j)),
    ]
    for fam in cases:
        for dim in (16, 32, 64):
            res = check_stone_adjoint_relation(fam, dim)
            assert res.c_symmetry_residual <= 1e-12
            # the adjoint quotient is an O(h) object at h = 1e-6
            assert res.adjoint_fd_residual <= 1e-4
