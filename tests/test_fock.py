"""Inner products, bases, and kernel vectors on the truncated space."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focksym.fock import (
    FACTORIAL_EXACT_MAX,
    FockVector,
    basis_vector,
    evaluate,
    inner_product,
    kernel_vector,
    monomial,
    norm,
    sqrt_factorial,
)


def test_monomial_inner_products_are_exact_factorials():
    for k in range(7):
        ek = monomial(k, 16)
        val = inner_product(ek, ek)
        assert val == complex(math.factorial(k))  # no float jitter allowed


def test_monomials_are_orthogonal():
    for j in range(5):
        for k in range(5):
            if j != k:
                assert inner_product(monomial(j, 12), monomial(k, 12)) == 0


def test_normalized_basis_is_orthonormal():
    for j in range(6):
        for k in range(6):
            v = inner_product(basis_vector(j, 10), basis_vector(k, 10))
            assert v == (1.0 if j == k else 0.0)


def test_mixed_basis_tags_agree():
    f = monomial(3, 12)
    g = basis_vector(3, 12)
    # z^3 = sqrt(3!) * e-hat_3, so <z^3, e-hat_3> = sqrt(6)
    assert inner_product(f, g) == pytest.approx(math.sqrt(6), abs=1e-14)


def test_basis_round_trip():
    rng = np.random.default_rng(3)
    c = rng.normal(size=9) + 1j * rng.normal(size=9)
    f = FockVector(c, "monomial")
    back = f.to_normalized().to_monomial()
    np.testing.assert_allclose(back.coeffs, c, rtol=0, atol=1e-13)
    assert back.basis == "monomial"


def test_kernel_coefficients_small_case():
    # coefficients of K_z are conj(z)^k / k!; at z = 1: 1, 1, 1/2
    kv = kernel_vector(1.0, 3)
    np.testing.assert_array_equal(kv.to_monomial().coeffs, [1.0, 1.0, 0.5])


def test_kernel_coefficients_complex_point():
    z = 1 + 1j
    kv = kernel_vector(z, 6).to_monomial()
    for k in range(6):
        expected = np.conj(z) ** k / math.factorial(k)
        assert kv.coeffs[k] == pytest.approx(expected, rel=1e-15)


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
    f = FockVector(padded, "monomial")
    lhs = evaluate(f, z)
    rhs = inner_product(f, kernel_vector(z, dim))
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1_000_000), st.integers(0, 1_000_000))
def test_inner_product_conjugate_symmetry(seed_a, seed_b):
    rng = np.random.default_rng((seed_a, seed_b))
    f = FockVector(rng.normal(size=12) + 1j * rng.normal(size=12), "normalized")
    g = FockVector(rng.normal(size=12) + 1j * rng.normal(size=12), "normalized")
    assert inner_product(f, g) == pytest.approx(
        np.conj(inner_product(g, f)), rel=1e-13, abs=1e-13
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1_000_000))
def test_norm_squared_is_self_inner_product(seed):
    rng = np.random.default_rng(seed)
    f = FockVector(rng.normal(size=10) + 1j * rng.normal(size=10), "monomial")
    ip = inner_product(f, f)
    # imaginary residue is roundoff relative to the (factorially weighted) scale
    assert abs(ip.imag) <= 1e-13 * max(ip.real, 1.0)
    assert norm(f) ** 2 == pytest.approx(ip.real, rel=1e-12)
    assert norm(f) >= 0


def test_sqrt_factorial_at_exact_boundary():
    assert sqrt_factorial(FACTORIAL_EXACT_MAX) == math.sqrt(
        math.factorial(FACTORIAL_EXACT_MAX)
    )


def test_sqrt_factorial_lgamma_regime():
    # python integers give the exact reference well past the float-exact range
    for k in (25, 40, 120):
        exact = math.sqrt(math.factorial(k))
        assert sqrt_factorial(k) == pytest.approx(exact, rel=1e-12)


def test_sqrt_factorial_vectorized_matches_scalar():
    ks = np.arange(30)
    vec = sqrt_factorial(ks)
    for k in ks:
        assert vec[k] == sqrt_factorial(int(k))
    # the cached table grows past the exact range; any shape indexes it
    grid = np.array([[140, 3], [21, 20]])
    assert sqrt_factorial(grid).tolist() == [[sqrt_factorial(int(k)) for k in row]
                                             for row in grid]
    assert sqrt_factorial(np.arange(0)).shape == (0,)
    with pytest.raises(ValueError, match="negative"):
        sqrt_factorial(np.array([2, -1]))


def test_sqrt_factorial_array_is_a_fresh_copy():
    first = sqrt_factorial(np.arange(8))
    first[:] = 0.0
    assert sqrt_factorial(np.arange(8))[7] == math.sqrt(math.factorial(7))


def test_fock_vector_rejects_unknown_basis():
    with pytest.raises(ValueError):
        FockVector(np.ones(3, dtype=complex), "chebyshev")


def test_basis_vector_bounds():
    with pytest.raises(ValueError):
        basis_vector(10, 10)
    with pytest.raises(ValueError):
        monomial(-1, 10)
