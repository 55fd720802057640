"""Generators of the two operator families and their spectral claims."""

import cmath
import json
import math
import time

import mpmath
import numpy as np
import pytest
import scipy.linalg
import sympy

from focksym import cli, generator
from focksym.conjugation import (
    ConjugationParams,
    check_matrix_c_symmetry,
    conjugation_matrix,
    standard_conjugation,
)
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
    _generator_diagonals,
    _tridiagonal_product,
    eigen_residuals,
    eigenfunction_coeffs,
    generator_exponential_columns,
    generator_matrix,
    matrix_exponential,
    point_spectrum_predicted,
    resolvent_bound_check,
    spectrum_report,
)
from focksym.rng import complex_normal_vectors
from focksym.semigroup import DilationFamily, TranslationFamily, semigroup_matrix
from focksym.verification import _GEN_FAMILIES, VerifyConfig, exponential_bridge_records

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
    np.testing.assert_array_equal(generator_matrix(fam, 12), expected)


def test_dilation_generator_is_number_plus_ladders():
    ell, G, H = -0.8 + 0.1j, 0.6, 0.2j
    fam = DilationFamily(ell=ell, G=G, H=H, conj=STD)
    beta = STD.a * G + STD.b
    create, annihilate, number = _ladders(12)
    expected = (
        H * np.eye(12) + ell * number - ell * beta * create - ell * G * annihilate
    )
    np.testing.assert_array_equal(generator_matrix(fam, 12), expected)


def test_tridiagonal_product_matches_dense():
    fam = DilationFamily(ell=1.0, G=1.0, H=0.0, conj=STD)
    Q = generator_matrix(fam, 32)
    X = complex_normal_vectors(3, 2, 32).T
    columns = tuple(v[:, None] for v in _generator_diagonals(fam, 32))
    np.testing.assert_allclose(_tridiagonal_product(columns, X), Q @ X, rtol=0, atol=1e-12)


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
    eigs = np.linalg.eigvals(generator_matrix(fam, 48))
    for lam in predicted:
        assert np.min(np.abs(eigs - lam)) < 1e-12


def test_eigenfunction_coefficients_low_order():
    beta = 0.7 - 0.2j
    f0 = eigenfunction_coeffs((0,), 1.0, beta, 8)[:, 0]
    # normalized coefficients: Taylor coefficients times sqrt(n!)
    for n in range(8):
        assert f0[n] == pytest.approx(beta**n / math.sqrt(math.factorial(n)), rel=1e-14)
    G = 0.5
    f1 = eigenfunction_coeffs((1,), G, beta, 8)[:, 0]
    assert f1[0] == pytest.approx(-G, rel=1e-14)  # (z - G) e^{beta z} at z^0
    for n in range(1, 8):
        taylor = beta ** (n - 1) / math.factorial(n - 1) - G * beta**n / math.factorial(n)
        assert f1[n] == pytest.approx(taylor * math.sqrt(math.factorial(n)), rel=1e-13)


def test_eigenfunction_coefficients_at_dim_400_match_mpmath():
    # sqrt(n!) overflows a double past n = 300, and no coefficient forms it:
    # each is sqrt(n!) sum_j binom(m, j) (-G)^(m-j) beta^(n-j) / (n-j)!
    dim = 400
    for G, beta in ((0.5 - 1j, 2.5 + 1.5j), (-2 + 0.5j, -2 + 2j)):
        block = eigenfunction_coeffs(range(4), G, beta, dim)
        for m, vec in enumerate(block.T):
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
        eigenfunction_coeffs((0, 8), 1.0, 0.5, 8)


def test_eigen_residuals_small_and_monotone():
    fam = DilationFamily(ell=1.0, G=1.0, H=0.0, conj=STD)
    for m in range(6):
        r40, r60, r80 = (eigen_residuals(fam, (m,), (dim,))[0, 0] for dim in (40, 60, 80))
        assert r80 <= 1e-10
        assert r80 <= r60 <= r40


def test_eigen_residuals_equal_one_build_per_degree_and_dim():
    # one build at the largest dim, read as leading blocks, gives each (m, dim)
    # the bits of its own build
    for fam in (DilationFamily(ell=1.0, G=1.0, H=0.0, conj=STD),
                DilationFamily(ell=-1.0 + 0.5j, G=0.7, H=0.2j,
                               conj=ConjugationParams(1.0, 1j, math.exp(-0.5)))):
        dims = (8, 10, 13, 40)
        got = eigen_residuals(fam, range(6), dims)
        lattice = point_spectrum_predicted(fam, 5)
        for i, dim in enumerate(dims):
            diag, lower, upper = (np.diagonal(generator_matrix(fam, dim), k) for k in (0, -1, 1))
            for m in range(6):
                f = eigenfunction_coeffs((m,), fam.G, fam.beta, dim)[:, 0]
                # Q f summed per entry as diagonal, lower, upper term
                Qf = diag * f
                Qf[1:] += lower * f[:-1]
                Qf[:-1] += upper * f[1:]
                assert got[i, m] == np.linalg.norm(Qf - lattice[m] * f) / np.linalg.norm(f)
    with pytest.raises(ValueError, match="m < dim"):
        eigen_residuals(fam, (0, 8), (8, 16))


def test_eigen_residual_requires_dilation():
    with pytest.raises(EmptyPointSpectrum):
        eigen_residuals(TranslationFamily(E=1.0, F=0.0, conj=STD), (0,), (16,))


def test_spectrum_report_shape_and_keys():
    fam = DilationFamily(ell=1.0, G=1.0, H=0.0, conj=STD)
    rep = spectrum_report(fam, 3, 32, (20, 40))
    assert rep.predicted.shape == (4,)
    assert rep.residuals.shape == (2, 4)
    assert rep.truncated_eigenvalues.shape == (32,)
    blob = rep.to_json()
    assert set(blob) == {"predicted", "residuals", "residual_dim", "truncated_eigs", "dim"}
    assert blob["residuals"] == list(rep.residuals[-1]) and blob["residual_dim"] == 40


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
        return 2 * np.log(np.abs(vec))


@pytest.mark.parametrize("n_seq", [(4, 8, 16), (16, 32, 64)])
def test_functions_in_the_space_fail_gauss_branch(n_seq):
    # negative controls: kernel vectors exp(conj(w) z) and the dilation
    # eigenfunctions (z - G)^m exp(beta z) have finite norm
    n_terms = 2 * max(n_seq) + 2
    controls = [kernel_vector(w, n_terms) for w in (0.5, 2.0, 3 + 1j, 5.0)]
    controls += [
        eigenfunction_coeffs((m,), G, beta, n_terms)[:, 0]
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
    Q = generator_matrix(fam, 64)
    assert dissipativity_margin(Q) == pytest.approx(-1.0, abs=1e-12)


def test_margin_of_diagonal_matrix():
    assert dissipativity_margin(np.diag([-1.0, -2.0, -5.0])) == pytest.approx(-1.0)
    assert dissipativity_margin(np.diag([3.0, -2.0])) == pytest.approx(3.0)


def _damped_section(dim):
    """The (dim+1) x dim section of Q = -I + i(a + a^H), the suite's damped generator."""
    return generator_matrix(TranslationFamily(E=1j, F=-1.0, conj=STD), dim + 1)[:, :dim]


@pytest.mark.parametrize("dim", [8, 16, 64])
def test_resolvent_bound_is_the_section_singular_value(dim):
    S = _damped_section(dim)
    alphas = (0.1, 1.0, 10.0)
    ref = min(scipy.linalg.svdvals(alpha * np.eye(dim + 1, dim) - S)[-1] / alpha
              for alpha in alphas)
    assert resolvent_bound_check(S, alphas) == pytest.approx(ref, rel=1e-12)


def test_resolvent_bound_for_dissipative_matrix():
    # Q is normal with spectrum -1 + iR, so the exact bound is min (alpha + 1)/alpha,
    # 1.1 at alpha = 10; a section bounds it from above and decreases toward it
    bounds = [resolvent_bound_check(_damped_section(dim), (0.1, 1.0, 10.0))
              for dim in (8, 16, 64)]
    assert all(b >= 1.1 for b in bounds)
    assert bounds == sorted(bounds, reverse=True)
    assert bounds[-1] - 1.1 <= 2e-3


def test_resolvent_bound_detects_expansive_matrix():
    M = np.eye(4, dtype=complex)  # margin +1, inequality must fail for big alpha
    assert resolvent_bound_check(M, (10.0,)) == pytest.approx(0.9)


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


def test_expm_of_zero_is_exactly_identity():
    # the Pade solve of b_0 I by b_0 I reads one ulp below 1 on the diagonal
    M = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert np.array_equal(matrix_exponential(M, 0.0), np.eye(2))
    assert np.array_equal(matrix_exponential(np.zeros((3, 3)), 2.0), np.eye(3))


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


@pytest.mark.parametrize("entry", [1e6, 800.0])
def test_expm_result_past_the_double_range_raises(entry):
    # exp(800) is inf; exp(1e6)'s squarings reach inf - inf, a NaN
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(OverflowError):
        matrix_exponential(np.array([[entry]]))


def test_expm_result_that_underflows_is_zero():
    assert matrix_exponential(np.array([[-1e6]]))[0, 0] == 0


def test_expm_approximates_family_member():
    fam = TranslationFamily(E=1.0, F=0.0, conj=STD)
    Q = generator_matrix(fam, 64)
    for t in (0.1, 0.25, 0.5):
        E = matrix_exponential(Q, t)
        W = semigroup_matrix(fam, t, 64)
        for k in range(6):
            e_k = np.zeros(64, dtype=complex)
            e_k[k] = 1.0
            dev = np.linalg.norm((E @ e_k - W @ e_k)[:20])
            assert dev <= 1e-6


# --- the exponential's action on the leading columns -------------------------

BRIDGE_TIMES = (0.1, 0.25, 0.5)
BRIDGE_CONJUGATIONS = {
    "standard": STD,
    "rotated": ConjugationParams(cmath.exp(0.7j), 0.0, 1.0),
    "offset": ConjugationParams(1.0, 1j, math.exp(-0.5)),
}


@pytest.fixture
def dense_calls(monkeypatch):
    """The t of each ``matrix_exponential`` call the generator layer makes."""
    calls = []

    def counting(M, t=1.0):
        calls.append(t)
        return matrix_exponential(M, t)

    monkeypatch.setattr(generator, "matrix_exponential", counting)
    return calls


@pytest.mark.parametrize("route, products_per_dim_squared",
                         [("taylor", math.inf), ("dense", 0.0)])
@pytest.mark.parametrize("dim", [8, 32, 128, 256])
@pytest.mark.parametrize("conj", BRIDGE_CONJUGATIONS, ids=str)
@pytest.mark.parametrize("variant", ["translation", "dilation"])
def test_exponential_columns_match_scipy(monkeypatch, dense_calls, variant, conj, dim, route,
                                         products_per_dim_squared):
    c = BRIDGE_CONJUGATIONS[conj]
    fam = (TranslationFamily(E=1.0, F=0.0, conj=c) if variant == "translation"
           else DilationFamily(ell=-1.0, G=1.0, H=0.1, conj=c))
    monkeypatch.setattr(generator, "ACTION_PRODUCTS_PER_DIM_SQUARED", products_per_dim_squared)
    got = generator_exponential_columns(fam, BRIDGE_TIMES, dim, 6)
    assert len(dense_calls) == (3 if route == "dense" else 0)
    Q = generator_matrix(fam, dim)
    for t, block in zip(BRIDGE_TIMES, got):
        ref = scipy.linalg.expm(t * Q)[:, :6]
        assert np.max(np.abs(block - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("dim, calls", [(8, 3), (16, 3), (64, 0), (128, 0)])
def test_suite_bridge_takes_the_taylor_route_from_dim_64(dense_calls, dim, calls):
    exponential_bridge_records(VerifyConfig(dim=dim), _GEN_FAMILIES[0])
    assert len(dense_calls) == calls


@pytest.mark.parametrize("variant, dim, calls", [
    ("translation", 32, 3), ("translation", 48, 0),
    *(("dilation", dim, 3) for dim in (8, 16, 32, 48)),
    *(("dilation", dim, 0) for dim in (64, 128, 512)),
])
def test_bridge_route_grows_with_the_square_of_the_dim(dense_calls, variant, dim, calls):
    # the translation's 74 products at dim 48 and the dilation's (ell = -1,
    # G = 1, H = 0.1, the generator kind's fixture) 160 at dim 64 are within
    # 0.041 dim^2; the dense route cost 2.2 against 2.0 ms for the dilation
    # at dim 64, and 1.25 s against 49 ms at dim 512
    fam = next(f for f in _GEN_FAMILIES if f.variant == variant)
    exponential_bridge_records(VerifyConfig(dim=dim), fam)
    assert len(dense_calls) == calls


def test_exponential_columns_guard_their_inputs_and_result():
    fam = TranslationFamily(E=1.0, F=0.0, conj=STD)
    for times in [(0.5, 0.25), (0.1, math.nan), (0.1, math.inf), (-0.1,), ()]:
        with pytest.raises(ValueError):
            generator_exponential_columns(fam, times, 16, 2)
    with pytest.raises(ValueError):
        generator_exponential_columns(TranslationFamily(E=math.nan, F=0.0, conj=STD),
                                      (0.1,), 16, 2)
    # F = 1e4 is Q's mean diagonal, so the shifted Q is small and the Taylor
    # route is taken; exp(0.1 F) is past the double range
    hot = TranslationFamily(E=1.0, F=1e4, conj=STD)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(OverflowError):
        generator_exponential_columns(hot, (0.1,), 64, 2)


def _generator_run(tmp_path, ell, dim):
    path = tmp_path / f"generator-{ell:g}-{dim}.json"
    path.write_text(json.dumps({
        "name": "bridge", "kind": "generator",
        "params": {"family": {"variant": "dilation", "ell": ell, "G": 1, "H": 0.1}},
        "truncation": {"dim": dim}, "output": {"path": str(tmp_path / "report.json")}}))
    t0 = time.perf_counter()
    code = cli.main(["run", str(path)])
    return code, time.perf_counter() - t0


def test_stiff_generator_run_keeps_its_exit_and_its_time(tmp_path, monkeypatch, dense_calls):
    # ell = -200 at dim 256: the Taylor route would take about 88000
    # products; the run takes the dense route, as with every exponential
    # made dense (the route of earlier versions)
    code, seconds = _generator_run(tmp_path, -200.0, 256)
    assert dense_calls == list(BRIDGE_TIMES)
    monkeypatch.setattr(generator, "ACTION_PRODUCTS_PER_DIM_SQUARED", 0.0)
    dense_code, dense_seconds = _generator_run(tmp_path, -200.0, 256)
    assert code == dense_code == 2
    assert seconds <= 2 * dense_seconds


def test_overflowing_generator_run_names_the_family(tmp_path, capsys):
    code, _ = _generator_run(tmp_path, 30.0, 64)
    assert code == 1
    assert "input error: params.family: " in capsys.readouterr().err


# --- adjoint relation at the truncation ---------------------------------------

def test_stone_relation_for_diagonal_conjugations():
    cases = [
        TranslationFamily(E=1.0, F=0.2, conj=STD),
        DilationFamily(ell=-1.0, G=0.8, H=0.1j, conj=ConjugationParams(-1.0, 0.0, 1j)),
    ]
    for fam in cases:
        for dim in (16, 32, 64):
            Q = generator_matrix(fam, dim)
            M = conjugation_matrix(fam.conj, dim)
            assert check_matrix_c_symmetry(Q, M) <= 1e-12
            # the adjoint quotient is an O(h) object at h = 1e-6
            assert check_stone_adjoint_relation(fam, dim) <= 1e-4


def test_stone_relation_for_an_offset_conjugation_on_the_leading_block():
    # b != 0: M is dense, and over the whole truncation Q M lacks the term
    # of its last row past dim and M Q^T that of its last column; Q is
    # tridiagonal, so at dim + 1 both products are exact on the leading block
    conj = ConjugationParams(1.0, 1j, math.exp(-0.5))
    for fam in (TranslationFamily(E=0.5 + 0.5j, F=0.2, conj=conj),
                DilationFamily(ell=1.0, G=0.7, H=0.2j, conj=conj)):
        for dim in (16, 32):
            Q, M = generator_matrix(fam, dim + 1), conjugation_matrix(conj, dim + 1)
            assert check_matrix_c_symmetry(Q[:dim, :dim], M[:dim, :dim]) > 0.5
            assert check_matrix_c_symmetry(Q, M, dim) <= 1e-14
