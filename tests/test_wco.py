"""Matrix construction for psi * (f o phi) operators, checked symbolically."""

import functools
import importlib.util
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from focksym.cli import _KINDS
from focksym.fock import monomial
from focksym.semigroup import family_eval
from focksym.verification import _LAW_FAMILIES, VerifyConfig
from focksym.wco import (
    WCOParams,
    apply_wco,
    compose_params,
    is_bounded,
    is_c_selfadjoint_symbols,
    wco_matrices,
    wco_matrix,
)

from fock_evaluation import evaluate


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
    applied = apply_wco(p, np.eye(dim, dtype=complex)[k])
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
    assert is_c_selfadjoint_symbols(good, a, b) < 1e-15

    bad = WCOParams(A=A, B=B, C=1.0, D=D + 0.01)
    assert is_c_selfadjoint_symbols(bad, a, b) == pytest.approx(0.01, rel=1e-9)


def test_large_weight_entries_stay_finite_via_log_route():
    # D = 30 takes column 0 to 30^n / sqrt(n!), up to 1e46 at dim 48; entries
    # must stay finite and match their log magnitudes
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
    payload = _KINDS["wco"](p.to_json(), VerifyConfig(dim=8))()[1]
    assert payload["wco"] == p.to_json()
    blob = p.to_json()
    assert blob["A"] == [1.0, -1.0]  # [re, im] pairs on the wire


# --- the column recurrence against a 30-digit oracle ------------------------------

def _load_script(name: str):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SWEEPS = _load_script("sweeps")

# the offset conjugation's symbol and the semigroup-law families' symbols,
# whose A, B, C are numpy scalars for the dilation families
REFERENCE_SYMBOLS = [SWEEPS.OFFSET_SYMBOL] + [
    family_eval(fam, t) for fam in _LAW_FAMILIES for t in (0.1, 0.35, 1.0, 2.0)
]


ORACLE_DIMS = (8, 16, 33, 64)

# largest entry error relative to the largest entry, measured with a 64-bit
# longdouble mantissa, where it exceeds one unit of rounding (eps); keyed by
# index in REFERENCE_SYMBOLS: 0 is the offset symbol, 11 and 12 the translation
# E = i at t = 1 and 2, 23 and 24 the rotating dilation ell = i at t = 1 and 2
ORACLE_ERRORS = {
    33: {12: 3.39e-13, 24: 3.93e-14},
    64: {0: 5.24e-15, 11: 5.24e-15, 12: 3.43e-9, 23: 6.69e-15, 24: 7.98e-11},
}


@functools.lru_cache(maxsize=None)
def _oracle(i: int) -> np.ndarray:
    """The closed-form entry sum of REFERENCE_SYMBOLS[i] at the largest oracle dim.

    Truncation is exact, so the matrix at a smaller dim is its leading block.
    """
    return SWEEPS.mpmath_matrix(REFERENCE_SYMBOLS[i], ORACLE_DIMS[-1])


@pytest.mark.parametrize("dim", ORACLE_DIMS)
def test_assembly_matches_mpmath(dim):
    for i, p in enumerate(REFERENCE_SYMBOLS):
        ref = _oracle(i)[:dim, :dim]
        rel = np.max(np.abs(wco_matrix(p, dim) - ref)) / np.max(np.abs(ref))
        bound = ORACLE_ERRORS.get(dim, {}).get(i, np.finfo(float).eps)
        assert rel <= 1.05 * bound, (i, p, rel)


def test_kernel_accuracy_script_at_64(capsys):
    assert SWEEPS.main(["kernels", "--dims", "64"]) == 0
    out = capsys.readouterr().out.splitlines()
    # a title, one line per law family, a header, one row per symbol
    assert len(out) == 2 + len(_LAW_FAMILIES) + len(SWEEPS.symbols())
    # |A| = 0.5 stays at rounding; at |A| = 1 the 0.4N kernels' tails show
    worst, _, used = SWEEPS.kernel_residual(SWEEPS.FIXED_SYMBOLS["(0.5, 0.2, 0.7, 0.1+0.1i)"], 64)
    assert used == 8 and worst < 1e-14
    worst, tail, used = SWEEPS.kernel_residual(SWEEPS.FIXED_SYMBOLS["(1, 1, 1, -1)"], 64)
    assert used == 7 and 0.5 < worst / math.sqrt(tail) < 2
    with mpmath.workdps(30):
        x = mpmath.mpf("25.6")
        ref = mpmath.exp(-x) * mpmath.fsum(x**n / mpmath.factorial(n) for n in range(64, 400))
    assert tail == pytest.approx(float(ref), rel=1e-12)


def _dyadic(values) -> tuple[list[tuple[int, int]], int]:
    """Gaussian integers g and one shift s with values[i] == g[i] / 2**s exactly."""
    ratios = [float(x).as_integer_ratio()
              for v in values for x in (complex(v).real, complex(v).imag)]
    s = max(den.bit_length() - 1 for _, den in ratios)
    ints = [num << (s - den.bit_length() + 1) for num, den in ratios]
    return list(zip(ints[::2], ints[1::2])), s


def _exact_matrix(p: WCOParams, dim: int, guard: int = 96) -> np.ndarray:
    """The truncated matrix in exact integer arithmetic, each entry rounded once.

    With (a, b, c, d) = 2**s (A, B, C, D), the integers Q_k[n] = n! 2^{s(n+k)}
    times the z^n coefficient of e^{Dz} (Az + B)^k obey Q_0[n] = d^n and
    Q_{k+1}[n] = n 2^s a Q_k[n-1] + b Q_k[n]; then M[n, k] = c Q_k[n] sqrt(n!/k!)
    / (n! 2^{s(n+k+1)}), with sqrt(n! k!) taken to ``guard`` bits by isqrt.
    """
    ((ar, ai), (br, bi), (cr, ci), (dr, di)), s = _dyadic((p.A, p.B, p.C, p.D))
    fact = [math.factorial(n) for n in range(dim)]
    q = [(1, 0)]
    for _ in range(1, dim):
        qr, qi = q[-1]
        q.append((qr * dr - qi * di, qr * di + qi * dr))
    M = np.empty((dim, dim), dtype=complex)
    for k in range(dim):
        if k:
            nxt = [(br * qr - bi * qi, br * qi + bi * qr) for qr, qi in q]
            for n in range(1, dim):
                qr, qi = q[n - 1]
                m = n << s
                nxt[n] = (nxt[n][0] + m * (ar * qr - ai * qi),
                          nxt[n][1] + m * (ar * qi + ai * qr))
            q = nxt
        for n, (qr, qi) in enumerate(q):
            root = math.isqrt((fact[n] * fact[k]) << (2 * guard))
            den = (fact[n] * fact[k]) << (s * (n + k + 1) + guard)
            # int / int rounds the exact quotient once
            M[n, k] = complex((cr * qr - ci * qi) * root / den,
                              (cr * qi + ci * qr) * root / den)
    return M


# as ORACLE_ERRORS, at dim 128 against the exact matrix; 20 is the dilation
# ell = 0.5, G = 0.5i, H = 0.1 at t = 2
EXACT_ERRORS = {
    128: {0: 7.48e-12, 11: 7.48e-12, 12: 1.46e-3, 20: 2.19e-15, 23: 2.96e-12,
          24: 4.54e-6},
}


# the 30-digit closed-form sum costs 3 s per symbol at dim 128; exact integer
# arithmetic, which equals it bit for bit on the leading 64 x 64 block, 0.3 s
@pytest.mark.parametrize("dim", sorted(EXACT_ERRORS))
def test_assembly_matches_exact_arithmetic(dim):
    for i, p in enumerate(REFERENCE_SYMBOLS):
        ref = _exact_matrix(p, dim)
        assert np.all(np.isfinite(ref))
        np.testing.assert_array_equal(ref[:64, :64], _oracle(i), err_msg=repr(p))
        rel = np.max(np.abs(wco_matrix(p, dim) - ref)) / np.max(np.abs(ref))
        bound = EXACT_ERRORS[dim].get(i, np.finfo(float).eps)
        assert rel <= 1.05 * bound, (i, p, rel)

def test_leading_columns_equal_the_full_matrix_columns():
    for p in REFERENCE_SYMBOLS[::5]:
        full = wco_matrix(p, 40)
        for m in (1, 2, 7, 40):
            np.testing.assert_array_equal(wco_matrix(p, 40, m), full[:, :m])
        # a smaller truncation is the leading block: no row reads a later one
        for d in (1, 7, 20):
            np.testing.assert_array_equal(wco_matrix(p, d), full[:d, :d])
    for bad in (0, 41):
        with pytest.raises(ValueError, match="ncols"):
            wco_matrix(REFERENCE_SYMBOLS[0], 40, bad)


# --- stacked builds ----------------------------------------------------------

# C D^n / sqrt(n!) leaves the double range at n = 1 and then longdouble's, so
# the matrix holds inf and nan
OVERFLOWING = WCOParams(1.0, 0.5, 1e300, 1e300)


def _assert_stack_equals_single_builds(symbols, dim, ncols):
    stack = wco_matrices(symbols, dim, ncols)
    m = dim if ncols is None else ncols
    assert stack.shape == (len(symbols), dim, m) and stack.dtype == complex
    for p, M in zip(symbols, stack):
        single = wco_matrix(p, dim, ncols)
        assert single.shape == (dim, m)
        assert np.array_equal(M, single, equal_nan=True), p


@pytest.mark.parametrize("dim", [1, 2, 64])
@pytest.mark.parametrize("ncols", [1, 5, None])
def test_stack_equals_single_builds(dim, ncols):
    # bit for bit, for every reference symbol and one whose entries overflow
    _assert_stack_equals_single_builds(REFERENCE_SYMBOLS + [OVERFLOWING], dim,
                                       None if ncols is None else min(ncols, dim))


def test_stack_of_overflowing_symbol_holds_inf_and_nan():
    stack = wco_matrices([REFERENCE_SYMBOLS[0], OVERFLOWING], 64)
    assert np.all(np.isfinite(stack[0]))
    assert np.isinf(stack[1]).any() and np.isnan(stack[1]).any()


def test_stack_validates_like_a_single_build():
    assert wco_matrices([], 8, 3).shape == (0, 8, 3)
    for dim, ncols in ((0, None), (8, 0), (8, 9)):
        with pytest.raises(ValueError):
            wco_matrices(REFERENCE_SYMBOLS[:2], dim, ncols)


# largest entry error of the recurrence, measured with a 64-bit longdouble mantissa
OFFSET_ERRORS = {64: 3.18e-15, 128: 4.54e-12}


# binomial_error: that of the binomial sum wco_matrix evaluated before the recurrence
@pytest.mark.parametrize("dim, binomial_error", [(64, 1.04e-11), (128, 7.98e-9)])
def test_offset_symbol_matches_mpmath(dim, binomial_error):
    err, _ = SWEEPS.max_entry_error(SWEEPS.OFFSET_SYMBOL, dim)
    assert err <= 1.05 * OFFSET_ERRORS[dim] < binomial_error / 1000
