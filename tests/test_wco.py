"""Matrix construction for psi * (f o phi) operators, checked symbolically."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from focksym.cli import _parse_wco
from focksym.fock import basis_vector, evaluate, exp_series, monomial, sqrt_factorial
from focksym.semigroup import family_eval
from focksym.verification import _LAW_FAMILIES, VerifyConfig
from focksym.wco import (
    WCOParams,
    apply_wco,
    compose_params,
    is_bounded,
    is_c_selfadjoint_symbols,
    wco_matrix,
)


def _sympy_matrix(p: WCOParams, size: int) -> np.ndarray:
    """Independent route: expand C e^{Dz} (Az+B)^k symbolically per column."""
    z = sympy.symbols("z")
    A, B, C, D = (sympy.nsimplify(x, rational=False) for x in (p.A, p.B, p.C, p.D))
    M = np.zeros((size, size), dtype=complex)
    for k in range(size):
        expr = C * sympy.exp(D * z) * (A * z + B) ** k
        series = sympy.series(expr, z, 0, size).removeO()
        poly = sympy.Poly(series, z)
        for n in range(size):
            coeff = complex(poly.coeff_monomial(z**n))
            # monomial-to-normalized rescale: row sqrt(n!), column 1/sqrt(k!)
            M[n, k] = coeff * math.sqrt(math.factorial(n) / math.factorial(k))
    return M


def test_matrix_matches_symbolic_expansion():
    p = WCOParams(A=0.5 + 0.25j, B=0.3 - 0.1j, C=1.1, D=0.2 + 0.4j)
    ours = wco_matrix(p, 7)
    ref = _sympy_matrix(p, 7)
    assert np.max(np.abs(ours - ref)) < 1e-13


def test_matrix_of_identity_symbols():
    p = WCOParams(A=1.0, B=0.0, C=1.0, D=0.0)
    np.testing.assert_array_equal(wco_matrix(p, 12), np.eye(12))


def test_pure_dilation_matrix_is_diagonal():
    p = WCOParams(A=0.5j, B=0.0, C=2.0, D=0.0)
    M = wco_matrix(p, 8)
    # f(az) scales z^k by a^k; weight multiplies by C
    expected = np.diag([2.0 * (0.5j) ** k for k in range(8)])
    np.testing.assert_allclose(M, expected, rtol=0, atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 10),
    st.complex_numbers(max_magnitude=1.2, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
)
def test_apply_route_equals_matrix_column(k, A, B, D):
    p = WCOParams(A=A, B=B, C=0.8 - 0.3j, D=D)
    dim = 24
    col = wco_matrix(p, dim)[:, k]
    applied = apply_wco(p, basis_vector(k, dim)).coeffs
    np.testing.assert_allclose(applied, col, rtol=0, atol=1e-10)


def test_compose_with_identity_is_identity():
    ident = WCOParams(1.0, 0.0, 1.0, 0.0)
    p = WCOParams(0.7 + 0.1j, 0.2, 1.3, -0.4j)
    for q in (compose_params(p, ident), compose_params(ident, p)):
        assert q.A == p.A
        assert q.B == p.B
        assert q.C == p.C
        assert q.D == p.D


@settings(max_examples=25, deadline=None)
@given(
    st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
)
def test_composition_law_pointwise(Ao, Bo, Ai, Di, z):
    """W_composed f agrees with applying the two operators in sequence.

    Checked as entire-function identity at a sample point: the outer weight
    times the inner image evaluated at the outer symbol equals the image
    under the composed parameters.
    """
    outer = WCOParams(A=Ao, B=Bo, C=1.1, D=0.3 - 0.2j)
    inner = WCOParams(A=Ai, B=0.1j, C=0.9, D=Di)
    both = compose_params(outer, inner)
    dim = 40
    f = monomial(3, dim)
    lhs = evaluate(apply_wco(both, f), z)
    inner_image = apply_wco(inner, f)
    psi_outer = outer.C * np.exp(outer.D * z)
    rhs = psi_outer * evaluate(inner_image, outer.A * z + outer.B)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


# boundedness: |A| < 1 always works; |A| = 1 needs D + A conj(B) = 0;
# |A| > 1 never works.
BOUNDED = [
    WCOParams(0.5, 0.0, 1.0, 1.0),
    WCOParams(1.0, 1.0, 1.0, -1.0),
    WCOParams(0.5 + 0.5j, 0.2, 0.7, 0.1 + 0.1j),
]
UNBOUNDED = [
    WCOParams(1.0, 0.0, 1.0, 1.0),
    WCOParams(1.2, 0.0, 1.0, 0.0),
    WCOParams(1.0, 1j, 1.0, 2j),
]


def test_bounded_classification():
    for p in BOUNDED:
        verdict = is_bounded(p)
        assert verdict.bounded, p
        assert verdict.reason
    for p in UNBOUNDED:
        verdict = is_bounded(p)
        assert not verdict.bounded, p
        assert verdict.reason


def test_bounded_parameters_have_flat_truncated_norms():
    for p in BOUNDED:
        norms = [np.linalg.norm(wco_matrix(p, d), 2) for d in (16, 32, 64)]
        assert norms[2] <= norms[1] * 1.01
        assert norms[1] <= norms[0] * 1.01


def test_unbounded_parameters_have_growing_truncated_norms():
    for p in UNBOUNDED:
        norms = [np.linalg.norm(wco_matrix(p, d), 2) for d in (16, 32, 64)]
        assert norms[2] > 2.0 * norms[1], p


def test_symbol_selfadjointness_detection():
    a, b = 1.0 + 0j, 0.5j
    A, B = 0.6 + 0.2j, 0.3 - 0.1j
    D = a * B - b * A + b
    good = WCOParams(A=A, B=B, C=1.0, D=D)
    res = is_c_selfadjoint_symbols(good, a, b)
    assert res.symbols_match
    assert res.deviation < 1e-15
    assert res.maximal_domain_verified is False  # never claimed numerically

    bad = WCOParams(A=A, B=B, C=1.0, D=D + 0.01)
    res_bad = is_c_selfadjoint_symbols(bad, a, b)
    assert not res_bad.symbols_match
    assert res_bad.deviation == pytest.approx(0.01, rel=1e-9)


def test_large_weight_entries_stay_finite_via_log_route():
    # D = 30 overflows the naive exp series scale; entries must still be
    # finite and match a direct log-magnitude evaluation
    p = WCOParams(A=0.5, B=0.0, C=1.0, D=30.0)
    M = wco_matrix(p, 48)
    assert np.all(np.isfinite(M))
    # column 0 is exactly C * D^n / sqrt(n!)
    for n in (10, 30, 47):
        expected_log = n * math.log(30.0) - 0.5 * math.lgamma(n + 1)
        assert math.log(abs(M[n, 0])) == pytest.approx(expected_log, rel=1e-12)


def test_overflowing_entries_become_inf_not_nan():
    p = WCOParams(A=1.0, B=0.0, C=1.0, D=200.0)
    M = wco_matrix(p, 64)
    assert not np.any(np.isnan(M.real)) and not np.any(np.isnan(M.imag))
    assert np.any(np.isinf(M.real)) or np.any(np.isinf(M.imag)) or np.all(
        np.isfinite(M)
    )


def test_params_json_round_trip():
    # the report payload of a symbol is valid scenario input for the wco kind
    p = WCOParams(A=1 - 1j, B=0.25, C=0.5j, D=-2.0)
    q = _parse_wco(p.to_json(), VerifyConfig(dim=8)).symbol
    assert q == p
    blob = p.to_json()
    assert blob["A"] == [1.0, -1.0]  # [re, im] pairs on the wire


# --- the array assembly against a reference loop and a 30-digit oracle ----------

def _column_loop(p: WCOParams, dim: int) -> np.ndarray:
    """The per-column assembly wco_matrix once used, kept as a reference."""
    expo = exp_series(p.D, dim)
    sq = sqrt_factorial(np.arange(dim))
    M = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        poly = np.array([math.comb(k, j) * (p.A**j) * (p.B ** (k - j))
                         for j in range(k + 1)], dtype=complex)
        col = np.zeros(dim, dtype=complex)
        for j in range(k + 1):
            if poly[j] != 0:
                col[j:] += poly[j] * expo[: dim - j]
        M[:, k] = p.C * (sq / sq[k]) * col
    return M


def _load_accuracy_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "assembly_accuracy.py"
    spec = importlib.util.spec_from_file_location("assembly_accuracy", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ACCURACY = _load_accuracy_script()

# the offset conjugation's symbol and the semigroup-law families' symbols,
# whose A, B, C are numpy scalars for the dilation families
REFERENCE_SYMBOLS = [ACCURACY.OFFSET_SYMBOL] + [
    family_eval(fam, t) for fam in _LAW_FAMILIES for t in (0.1, 0.35, 1.0, 2.0)
]


@pytest.mark.parametrize("dim", [8, 16, 33, 64, 128])
def test_array_assembly_equals_column_loop_exactly(dim):
    for p in REFERENCE_SYMBOLS:
        ref = _column_loop(p, dim)
        assert np.all(np.isfinite(ref))
        np.testing.assert_array_equal(wco_matrix(p, dim), ref, err_msg=repr(p))


def test_leading_columns_equal_the_full_matrix_columns():
    for p in REFERENCE_SYMBOLS[::5]:
        full = wco_matrix(p, 40)
        for m in (1, 2, 7, 40):
            np.testing.assert_array_equal(wco_matrix(p, 40, m), full[:, :m])
    for bad in (0, 41):
        with pytest.raises(ValueError, match="ncols"):
            wco_matrix(REFERENCE_SYMBOLS[0], 40, bad)


# largest entry error of the per-column loop, which the array form must not exceed
@pytest.mark.parametrize("dim, loop_error", [(64, 1.04e-11), (128, 7.98e-9)])
def test_offset_symbol_matches_mpmath(dim, loop_error):
    err, _ = ACCURACY.max_entry_error(ACCURACY.OFFSET_SYMBOL, dim)
    assert err <= 1.05 * loop_error
