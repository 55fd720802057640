"""Matrix construction for psi * (f o phi) operators, checked symbolically."""

import cmath
import collections
import functools
import importlib.util
import json
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from focksym import verification, wco
from focksym.cli import _KINDS, main
from focksym.conjugation import ConjugationParams, standard_conjugation
from focksym.fock import monomial
from focksym.semigroup import DilationFamily, family_eval
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


def _stack(symbols) -> WCOParams:
    """The single symbols as one stack: each field the array of the members' values."""
    return WCOParams(*(np.array([getattr(p, k) for p in symbols], dtype=complex)
                       for k in "ABCD"))


def _assert_stack_equals_single_builds(symbols, dim, ncols):
    stack = wco_matrices(_stack(symbols), dim, ncols)
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


def test_a_scalar_field_is_shared_by_every_member():
    # a translation's A(t) = 1 and C(t) are one scalar for the whole stack
    symbols = WCOParams(1.0, np.array([0.0, 0.5j, -1.0]), 0.5, np.array([0.2, 0.0, 1j]))
    stack = wco_matrices(symbols, 16, 5)
    assert stack.shape == (3, 16, 5)
    for M, B, D in zip(stack, symbols.B, symbols.D):
        assert np.array_equal(M, wco_matrix(WCOParams(1.0, B, 0.5, D), 16, 5))


def test_stack_of_overflowing_symbol_holds_inf_and_nan():
    stack = wco_matrices(_stack([REFERENCE_SYMBOLS[0], OVERFLOWING]), 64)
    assert np.all(np.isfinite(stack[0]))
    assert np.isinf(stack[1]).any() and np.isnan(stack[1]).any()


def test_stack_validates_like_a_single_build():
    assert wco_matrices(_stack([]), 8, 3).shape == (0, 8, 3)
    for dim, ncols in ((0, None), (8, 0), (8, 9)):
        with pytest.raises(ValueError):
            wco_matrices(_stack(REFERENCE_SYMBOLS[:2]), dim, ncols)
    with pytest.raises(ValueError):  # fields of unequal lengths
        wco_matrices(WCOParams(np.ones(3), np.zeros(2), 1.0, 0.0), 8)


# largest entry error of the recurrence, measured with a 64-bit longdouble mantissa
OFFSET_ERRORS = {64: 3.18e-15, 128: 4.54e-12}


# binomial_error: that of the binomial sum wco_matrix evaluated before the recurrence
@pytest.mark.parametrize("dim, binomial_error", [(64, 1.04e-11), (128, 7.98e-9)])
def test_offset_symbol_matches_mpmath(dim, binomial_error):
    err, _ = SWEEPS.max_entry_error(SWEEPS.OFFSET_SYMBOL, dim)
    assert err <= 1.05 * OFFSET_ERRORS[dim] < binomial_error / 1000


# --- diagonal symbols: one running product -----------------------------------

def _recurrence_matrix(p: WCOParams, dim: int, ncols: int | None = None) -> np.ndarray:
    """The column recurrence that built every symbol's matrix before diagonal
    symbols took a running product, kept as the reference they must equal."""
    m = dim if ncols is None else ncols
    A, B, C, D = (np.clongdouble(complex(v)) for v in (p.A, p.B, p.C, p.D))
    out = np.empty((dim, m), dtype=complex)
    root = np.sqrt(np.arange(dim, dtype=np.longdouble))
    with np.errstate(over="ignore", invalid="ignore"):
        col = np.empty(dim, dtype=np.clongdouble)
        col[0] = C
        col[1:] = D / root[1:]
        col = np.cumprod(col)
        out[:, 0] = col
        a_root = A * root[1:]
        for k in range(1, m):
            nxt = B * col
            nxt[1:] += a_root * col[:-1]
            col = nxt / root[k]
            out[:, k] = col
    return out


def _bits_differing_in_signs_of_zeros(got: np.ndarray, want: np.ndarray) -> int:
    """Assert equal entries whose parts differ in their bits only where both
    are zeros of opposite sign; return the number of such parts."""
    assert np.array_equal(got, want, equal_nan=True)
    g, w = (np.stack([M.real, M.imag]) for M in (got, want))
    differ = g.view(np.uint64) != w.view(np.uint64)
    assert np.all(g[differ] == 0) and np.all(w[differ] == 0)
    return int(differ.sum())


def _diagonal_symbol(rng) -> WCOParams:
    """(A, 0, C, 0) with A = 0, A = 1 or |A| up to 1.3 at any phase (or on an
    axis, where the products hold zero parts), and |C| up to 2."""
    kind = rng.integers(6)
    r, phase = 1.3 * rng.random(), cmath.exp(2j * math.pi * rng.random())
    A = (0.0, 1.0, r, 1j * r, r * phase, -phase)[kind]
    C = (1.0, 1j, 2 * rng.random() * cmath.exp(2j * math.pi * rng.random()))[rng.integers(3)]
    return WCOParams(A, 0.0, C, 0.0)


def _offset_symbol(rng) -> WCOParams:
    """A symbol with B, D or both nonzero, which keeps the recurrence."""
    z = lambda scale: scale * complex(*rng.standard_normal(2))
    B, D = ((z(0.3), z(0.3)), (z(0.3), 0.0), (0.0, z(0.3)))[rng.integers(3)]
    return WCOParams(z(0.5), B, z(1.0), D)


def _size(rng) -> tuple[int, int | None]:
    dim = int(rng.integers(1, 201))
    return dim, None if rng.random() < 0.3 else int(rng.integers(1, dim + 1))


def test_diagonal_symbols_equal_the_recurrence_but_for_signs_of_zeros():
    rng = np.random.default_rng(2006)
    diagonal = signed = 0
    # single builds
    for _ in range(200):
        p, (dim, ncols) = _diagonal_symbol(rng), _size(rng)
        signed += _bits_differing_in_signs_of_zeros(wco_matrix(p, dim, ncols),
                                                    _recurrence_matrix(p, dim, ncols))
        diagonal += 1
    # stacks of diagonal symbols, and stacks mixed with offset symbols, whose
    # members keep the recurrence's bits; every member has its single build's
    for mixed in (False, True) * 30:
        symbols = [_diagonal_symbol(rng) for _ in range(rng.integers(1, 4))]
        if mixed:
            symbols += [_offset_symbol(rng) for _ in range(rng.integers(1, 3))]
            rng.shuffle(symbols)
        dim, ncols = _size(rng)
        for p, M in zip(symbols, wco_matrices(_stack(symbols), dim, ncols)):
            assert np.array_equal(M.view(np.uint64), wco_matrix(p, dim, ncols).view(np.uint64))
            ref = _recurrence_matrix(p, dim, ncols)
            if p.B == 0 and p.D == 0:
                signed += _bits_differing_in_signs_of_zeros(M, ref)
                diagonal += 1
            else:
                assert np.array_equal(M.view(np.uint64), ref.view(np.uint64)), p
    assert diagonal >= 300 and signed > 0


def test_complex_division_by_a_root_is_the_product_with_its_reciprocal():
    # the recurrence divides by sqrt(k) + 0j, the running product multiplies by
    # fl(1 / sqrt(k)) + 0j; numpy's complex division (Smith's) scales both
    # parts by that reciprocal, so the two agree to the bit
    rng = np.random.default_rng(49)
    k = np.arange(1, 4001)
    root = np.sqrt(k.astype(np.longdouble))
    z = np.empty(k.size, dtype=np.clongdouble)
    fill = np.sqrt(np.longdouble(3))  # fills the extended mantissa
    z.real = rng.standard_normal(k.size) * fill * 10.0 ** rng.integers(-300, 300, k.size)
    z.imag = rng.standard_normal(k.size) * fill * 10.0 ** rng.integers(-300, 300, k.size)
    quotient = z / root
    product = z * (1 / root).astype(np.clongdouble)
    for q, p in ((quotient.real, product.real), (quotient.imag, product.imag)):
        assert np.array_equal(q, p) and np.array_equal(np.signbit(q), np.signbit(p))


def _wco_run(tmp_path, params: dict, dim: int) -> int:
    scenario = tmp_path / "wco.json"
    scenario.write_text(json.dumps({"name": "wco", "kind": "wco", "params": params,
                                    "truncation": {"dim": dim},
                                    "output": {"path": str(tmp_path / "report.json")}}))
    return main(["run", str(scenario)])


def test_overflowing_diagonal_symbol_warns_nothing_and_stays_non_finite(tmp_path, capsys):
    # A^k leaves the double range at k = 2 and longdouble's at k = 17
    p = WCOParams(1e300, 0.0, 1.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        M = wco_matrix(p, 32)
        stack = wco_matrices(_stack([p, REFERENCE_SYMBOLS[0]]), 32)
    assert np.isinf(M).any() and np.array_equal(stack[0], M, equal_nan=True)
    # the wco kind refuses it, naming the symbol's largest entry
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = _wco_run(tmp_path, {"A": 1e300}, 32)
    assert code == 1 and caught == []
    assert "input error: params.A: " in capsys.readouterr().err


# the Laplace group's W(t) = diag(e^{-kt}) and a rotated conjugation, c R_a
DIAGONAL_SYMBOLS = [
    *(family_eval(DilationFamily(ell=-1.0, G=0.0, H=0.0, conj=standard_conjugation()), t)
      for t in (0.1, 1.0, 5.0)),
    ConjugationParams(cmath.exp(0.7j), 0.0, 1j).to_wco_params(),
]


@pytest.mark.parametrize("dim", [64, 128])
def test_diagonal_symbols_match_exact_arithmetic(dim):
    for p in DIAGONAL_SYMBOLS:
        assert p.B == 0 and p.D == 0
        ref = _exact_matrix(p, dim)
        rel = np.max(np.abs(wco_matrix(p, dim) - ref)) / np.max(np.abs(ref))
        assert rel <= np.finfo(float).eps, (p, rel)


@pytest.fixture
def routes(monkeypatch):
    """(verification group, route, output shape) of each build that
    ``wco._columns`` makes: a mixed stack makes one recurrence and one
    running product per diagonal member."""
    log, group = [], [None]
    run_group = verification.run_group

    def grouped(name, cfg):
        group[0] = name
        return run_group(name, cfg)

    def counting(route, build):
        def counted(*args):
            log.append((group[0], route, args[-1].shape))
            return build(*args)
        return counted

    monkeypatch.setattr(verification, "run_group", grouped)
    monkeypatch.setattr(wco, "_diagonal", counting("product", wco._diagonal))
    monkeypatch.setattr(wco, "_recurrence", counting("recurrence", wco._recurrence))
    return log


# by group, the shapes that verify-all --dim 64 builds as a running product:
# the three conjugation.*.b0 matrices, the six stone conjugation matrices at
# dim + 1, the Laplace group's growth pass (65 times, e_0..e_4) and its 56
# panel stacks; and, rebuilt in place as members of mixed stacks, the
# boundedness set's (1.2, 0, 1, 0) and W(0) = I of the growth group's five
# grids and of the Laplace group's refused family
DIAGONAL_BUILDS_AT_64 = {
    "conjugation": {(1, 64, 64): 3},
    "boundedness": {(1, 64, 64): 1},
    "stone-symmetry": {(1, 65, 65): 6},
    "growth": {(1, 64, 1): 5},
    "laplace": {(65, 64, 5): 1, (10, 64, 5): 56, (1, 64, 1): 1},
}


def test_verify_all_builds_its_diagonal_matrices_as_running_products(routes, tmp_path):
    assert main(["verify-all", "--dim", "64", "--out", str(tmp_path / "r.json")]) == 0
    groups = {name for name, _, _ in routes}
    assert set(DIAGONAL_BUILDS_AT_64) <= groups
    for name in groups:
        product = collections.Counter(shape for g, route, shape in routes
                                      if g == name and route == "product")
        assert product == DIAGONAL_BUILDS_AT_64.get(name, {}), name


def test_diagonal_wco_run_builds_a_running_product(routes, tmp_path):
    assert _wco_run(tmp_path, {"A": [0.6, 0.3], "C": [0.0, 1.0]}, 32) == 0
    assert routes == [(None, "product", (1, 32, 32))]
