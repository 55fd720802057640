"""Inner products, bases, and kernel vectors on the truncated space."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focksym.fock import (
    FACTORIAL_EXACT_MAX,
    inner_product,
    kernel_vector,
    monomial,
    sqrt_factorial,
)

from fock_evaluation import evaluate


def test_monomial_inner_products_are_exact_factorials():
    # z^k = sqrt(k!) e_k, so <z^k, z^k> = k! up to the rounding of sqrt(k!),
    # measured at most one eps for k < 7
    for k in range(7):
        ek = monomial(k, 16)
        assert ek[k] == math.sqrt(math.factorial(k))
        val = inner_product(ek, ek)
        assert val.imag == 0
        assert val.real == pytest.approx(math.factorial(k), rel=np.finfo(float).eps)


def test_monomials_are_orthogonal():
    for j in range(5):
        for k in range(5):
            if j != k:
                assert inner_product(monomial(j, 12), monomial(k, 12)) == 0


def test_normalized_basis_is_orthonormal():
    e = np.eye(10, dtype=complex)
    for j in range(6):
        for k in range(6):
            v = inner_product(e[j], e[k])
            assert v == (1.0 if j == k else 0.0)


def test_kernel_coefficients_small_case():
    # normalized coefficients of K_z are conj(z)^k / sqrt(k!); at z = 1: 1, 1, 1/sqrt(2)
    kv = kernel_vector(1.0, 3)
    np.testing.assert_array_equal(kv, [1.0, 1.0, 1 / math.sqrt(2)])


def test_kernel_coefficients_complex_point():
    z = 1 + 1j
    kv = kernel_vector(z, 6)
    for k in range(6):
        expected = np.conj(z) ** k / math.sqrt(math.factorial(k))
        assert kv[k] == pytest.approx(expected, rel=1e-15)


def test_kernel_vector_at_dim_400_matches_mpmath():
    # entries fall to 1e-275 at n = 399; conj(w)^n / sqrt(n!) forms no factorial
    dim = 400
    for w in (1.5 + 2j, -3 + 0.5j, 5.0):
        vec = kernel_vector(w, dim)
        with mpmath.workdps(30):
            ref = np.array([complex(mpmath.conj(mpmath.mpc(w)) ** n
                                    / mpmath.sqrt(mpmath.factorial(n))) for n in range(dim)])
        assert np.all(np.isfinite(vec))
        # relative error per entry, measured at most 2.5e-15: n roundings of the ratio
        assert np.max(np.abs(vec - ref) / np.abs(ref)) <= 3e-15, w


def test_monomial_at_dim_400_is_one_coefficient():
    vec = monomial(3, 400)
    assert np.flatnonzero(vec).tolist() == [3]
    assert vec[3] == float(mpmath.sqrt(6))


def test_kernel_evaluation_reaches_e():
    # evaluating K_1 at 1 sums 1/k!, which is e up to a negligible tail
    kv = kernel_vector(1.0, 64)
    assert evaluate(kv, 1.0) == pytest.approx(math.e, rel=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=9,
    ),
    st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False),
)
def test_kernel_reproduces_point_evaluation(coeffs, z):
    dim = 32
    padded = np.zeros(dim, dtype=complex)
    padded[: len(coeffs)] = coeffs
    lhs = evaluate(padded, z)
    rhs = inner_product(padded, kernel_vector(z, dim))
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1_000_000), st.integers(0, 1_000_000))
def test_inner_product_conjugate_symmetry(seed_a, seed_b):
    rng = np.random.default_rng((seed_a, seed_b))
    f = rng.normal(size=12) + 1j * rng.normal(size=12)
    g = rng.normal(size=12) + 1j * rng.normal(size=12)
    assert inner_product(f, g) == pytest.approx(
        np.conj(inner_product(g, f)), rel=1e-13, abs=1e-13
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1_000_000))
def test_norm_squared_is_self_inner_product(seed):
    rng = np.random.default_rng(seed)
    f = rng.normal(size=10) + 1j * rng.normal(size=10)
    ip = inner_product(f, f)
    # imaginary residue is roundoff relative to the scale
    assert abs(ip.imag) <= 1e-13 * max(ip.real, 1.0)
    assert np.linalg.norm(f) ** 2 == pytest.approx(ip.real, rel=1e-12)


def test_sqrt_factorial_at_exact_boundary():
    assert sqrt_factorial(FACTORIAL_EXACT_MAX) == math.sqrt(
        math.factorial(FACTORIAL_EXACT_MAX)
    )


def test_sqrt_factorial_lgamma_regime():
    # python integers give the exact reference well past the float-exact range
    for k in (25, 40, 120):
        exact = math.sqrt(math.factorial(k))
        assert sqrt_factorial(k) == pytest.approx(exact, rel=1e-12)


def test_inner_product_checks_dimension():
    with pytest.raises(ValueError, match="dimension mismatch"):
        inner_product(np.eye(8, dtype=complex)[0], np.eye(9, dtype=complex)[0])


def test_monomial_bounds():
    for k in (-1, 10):
        with pytest.raises(ValueError, match="outside truncation"):
            monomial(k, 10)
