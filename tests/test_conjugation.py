"""Antilinear conjugation operators C f = M conj(f): constraints, involution, isometry."""

import cmath
import math

import numpy as np
import pytest

from focksym.cli import _conjugation_from
from focksym.conjugation import (
    ConjugationParams,
    ConstraintViolation,
    check_involution,
    check_isometry,
    check_matrix_c_symmetry,
    conjugation_matrix,
    standard_conjugation,
)
from focksym.fock import inner_product
from focksym.rng import complex_normal_vectors
from focksym.wco import WCOParams, wco_matrix


def _offset_params() -> ConjugationParams:
    # a = 1, b purely imaginary keeps conj(a) b + conj(b) = 0;
    # |c| = e^{-|b|^2/2} restores the unit-norm condition
    return ConjugationParams(1.0, 1j, math.exp(-0.5))


def test_each_constraint_violation_is_named():
    with pytest.raises(ConstraintViolation, match=r"\|a\| must equal 1"):
        ConjugationParams(2.0, 0.0, 1.0).validate()
    with pytest.raises(ConstraintViolation, match=r"conj\(a\)\*b \+ conj\(b\)"):
        ConjugationParams(1.0, 1.0, 1.0).validate()
    with pytest.raises(ConstraintViolation, match=r"\|c\|\^2 exp"):
        ConjugationParams(1.0, 0.0, 2.0).validate()


def test_validate_accepts_the_offset_family():
    p = _offset_params()
    assert p.validate() is p
    assert not p.is_diagonal


def test_standard_conjugation_matrix_is_identity():
    M = conjugation_matrix(standard_conjugation(), 16)
    np.testing.assert_array_equal(M, np.eye(16))


def test_standard_conjugation_conjugates_coefficients():
    M = conjugation_matrix(standard_conjugation(), 8)
    f = np.arange(8) * (1 + 2j)
    np.testing.assert_array_equal(M @ np.conj(f), np.conj(f))


def test_diagonal_conjugation_matrix():
    a = cmath.exp(0.9j)
    p = ConjugationParams(a, 0.0, 1j)
    M = conjugation_matrix(p, 10)
    # C f(z) = c * conj(f(conj(a) * ... )) sends e-hat_k to c a^k e-hat_k
    expected = np.diag([1j * a**k for k in range(10)])
    np.testing.assert_allclose(M, expected, rtol=0, atol=1e-14)


def test_to_wco_params_wiring():
    p = _offset_params()
    w = p.to_wco_params()
    assert w == WCOParams(A=p.a, B=p.b, C=p.c, D=p.b)


def test_involution_exact_for_diagonal_params():
    for p in (standard_conjugation(), ConjugationParams(-1.0, 0.0, 1.0)):
        M = conjugation_matrix(p, 32)
        assert check_involution(M, 8) < 1e-12


def test_involution_residual_decays_for_offset_params():
    p = _offset_params()
    r32 = check_involution(conjugation_matrix(p, 32), 8)
    r64 = check_involution(conjugation_matrix(p, 64), 8)
    assert r32 / r64 >= 10.0
    assert r64 < 1e-12


def test_involution_monotone_in_truncation():
    p = _offset_params()
    residuals = [check_involution(conjugation_matrix(p, d), 6) for d in (16, 24, 32, 48)]
    assert all(b <= a for a, b in zip(residuals, residuals[1:]))


def test_involution_is_the_worst_degree_residual():
    M = conjugation_matrix(_offset_params(), 16)
    # C^2 - I on every degree, from the full product, then the worst of degrees <= 6
    per_degree = np.linalg.norm(M @ np.conj(M) - np.eye(16), axis=0)[:7]
    assert len(set(per_degree.tolist())) == 7  # no two degrees read alike
    residual = check_involution(M, 6)
    assert isinstance(residual, float)
    assert residual == pytest.approx(float(np.max(per_degree)), rel=1e-12)


def test_isometry_for_diagonal_conjugation():
    M = conjugation_matrix(ConjugationParams(cmath.exp(0.3j), 0.0, 1.0), 24)
    f, g = complex_normal_vectors(11, 2, 24)
    assert check_isometry(M, f, g) < 1e-13


def test_matrix_c_symmetry_residual():
    conj = standard_conjugation()
    M = conjugation_matrix(conj, 16)
    # symbols satisfying D = a B - b A + b are transpose-symmetric here
    sym = wco_matrix(WCOParams(A=0.5, B=0.2j, C=1.0, D=0.2j), 16)
    assert check_matrix_c_symmetry(sym, M) < 1e-12
    lopsided = sym.copy()
    lopsided[0, 1] += 0.5
    assert check_matrix_c_symmetry(lopsided, M) > 0.1


def test_conjugation_matrix_rejects_invalid_params():
    with pytest.raises(ConstraintViolation):
        conjugation_matrix(ConjugationParams(1.0, 0.5, 1.0), 8)


def test_involution_degree_bounds():
    M = conjugation_matrix(standard_conjugation(), 8)
    with pytest.raises(ValueError):
        check_involution(M, 8)


def test_isometry_reverses_argument_order():
    # the defining identity is <Cf, Cg> = <g, f>, not <f, g>
    M = conjugation_matrix(standard_conjugation(), 6)
    f = np.array([1, 1j, 0, 0, 0, 0], dtype=complex)
    g = np.array([0.5, -2j, 1, 0, 0, 0], dtype=complex)
    cf, cg = M @ np.conj(f), M @ np.conj(g)
    assert inner_product(cf, cg) == pytest.approx(inner_product(g, f), rel=1e-14)


def test_params_json_round_trip():
    # the report payload of a conjugation is a valid scenario conjugation
    p = _offset_params()
    q = _conjugation_from(p.to_json(), "conjugation")
    assert q == p
    assert p.to_json()["b"] == [0.0, 1.0]
