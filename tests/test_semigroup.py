"""One-parameter operator families: closed forms, laws, growth, Laplace."""

import cmath
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focksym.conjugation import ConjugationParams, standard_conjugation
from focksym.fock import monomial
from focksym.semigroup import (
    GROWTH_T_GRID,
    DilationFamily,
    QuadratureError,
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
from focksym import conjugation, generator, semigroup
from focksym.cli import ScenarioError, _family_from
from focksym.generator import (
    check_generator_fd,
    check_stone_adjoint_relation,
    generator_matrix,
)
from focksym.rng import complex_normal_vectors
from focksym.verification import (
    VerifyConfig,
    _STONE_FAMILIES,
    exponential_bridge,
    generator_fd_checks,
    laplace_checks,
    spectrum_checks,
    stone_symmetry_records,
)
from focksym.wco import wco_matrices, wco_matrix

STD = standard_conjugation()
OFFSET = ConjugationParams(1.0, 1j, math.exp(-0.5))

small_floats = st.floats(-1.5, 1.5, allow_nan=False)


def test_translation_closed_form_spot_values():
    fam = TranslationFamily(E=1.0, F=0.0, conj=STD)
    p = family_eval(fam, 2.0)
    assert p.A == 1.0
    assert p.B == 2.0
    assert p.C == pytest.approx(math.exp(2.0), rel=1e-15)  # exp(a E^2 t^2 / 2)
    assert p.D == 2.0  # a E t


def test_dilation_closed_form_spot_values():
    fam = DilationFamily(ell=-1.0, G=1.0, H=0.0, conj=STD)  # beta = 1
    t = math.log(2.0)
    p = family_eval(fam, t)
    assert p.A == pytest.approx(0.5, rel=1e-15)
    assert p.B == pytest.approx(0.5, rel=1e-15)
    # C = exp(G beta (e^{lt} - l t - 1)) = exp(ln 2 - 1/2)
    assert p.C == pytest.approx(2.0 * math.exp(-0.5), rel=1e-14)
    assert p.D == pytest.approx(0.5, rel=1e-15)


def test_negative_time_is_rejected():
    fam = TranslationFamily(E=1.0, F=0.0, conj=STD)
    with pytest.raises(ValueError):
        family_eval(fam, -0.1)


def test_degenerate_rates_are_rejected():
    with pytest.raises(ValueError):
        TranslationFamily(E=0.0, F=1.0, conj=STD)
    with pytest.raises(ValueError):
        DilationFamily(ell=0.0, G=1.0, H=0.0, conj=STD)


@settings(max_examples=30, deadline=None)
@given(small_floats, small_floats, small_floats, st.floats(0.0, 3.0))
def test_symbols_satisfy_selfadjointness_relation(er, ei, fr, t):
    """D(t) = a B(t) - b A(t) + b holds along the whole family."""
    E = complex(er, ei)
    if abs(E) < 1e-3:
        E = 1.0
    for conj in (STD, OFFSET):
        fam = TranslationFamily(E=E, F=fr, conj=conj)
        p = family_eval(fam, t)
        dev = abs(p.D - (conj.a * p.B - conj.b * p.A + conj.b))
        assert dev <= 1e-12 * (1.0 + abs(p.B) + abs(p.D))


@settings(max_examples=30, deadline=None)
@given(small_floats, small_floats, small_floats, st.floats(0.0, 2.0))
def test_dilation_symbols_satisfy_selfadjointness_relation(lr, li, g, t):
    ell = complex(lr, li)
    if abs(ell) < 1e-3:
        ell = -1.0
    for conj in (STD, OFFSET):
        fam = DilationFamily(ell=ell, G=g, H=0.1, conj=conj)
        p = family_eval(fam, t)
        dev = abs(p.D - (conj.a * p.B - conj.b * p.A + conj.b))
        assert dev <= 1e-11 * (1.0 + abs(p.B) + abs(p.D))


def test_semiflow_and_semicocycle_laws():
    fams = (
        TranslationFamily(E=1 + 1j, F=0.3, conj=STD),
        DilationFamily(ell=-0.7 + 0.2j, G=0.9, H=0.1j, conj=STD),
        DilationFamily(ell=0.5, G=0.4, H=0.0, conj=OFFSET),
    )
    for fam in fams:
        for t in (0.0, 0.3, 1.0):
            for s in (0.0, 0.5, 1.0):
                flow, cocycle = check_flow_cocycle(fam, t, s)
                assert flow <= 1e-10
                assert cocycle <= 1e-10


def test_flow_cocycle_evaluates_each_time_once(monkeypatch):
    fam = DilationFamily(ell=-0.7 + 0.2j, G=0.9, H=0.1j, conj=OFFSET)
    times = []
    symbols = DilationFamily.symbols

    def recording(self, t):
        times.append(t)
        return symbols(self, t)

    monkeypatch.setattr(DilationFamily, "symbols", recording)
    check_flow_cocycle(fam, 0.25, 0.5)
    assert times == [0.75, 0.5, 0.25]


def test_identity_at_time_zero():
    fam = DilationFamily(ell=1.0, G=1.0, H=0.5, conj=STD)
    p = family_eval(fam, 0.0)
    assert (p.A, p.B, p.C, p.D) == (1.0, 0.0, 1.0, 0.0)


def test_family_boundedness_criteria():
    assert TranslationFamily(E=1j, F=0.0, conj=STD).bounded
    assert not TranslationFamily(E=1.0, F=0.0, conj=STD).bounded
    assert DilationFamily(ell=-2.0, G=1.0, H=0.0, conj=STD).bounded
    assert DilationFamily(ell=1j, G=0.5, H=0.0, conj=STD).bounded
    assert not DilationFamily(ell=1j, G=0.5j, H=0.0, conj=STD).bounded
    assert not DilationFamily(ell=0.1, G=0.5, H=0.0, conj=STD).bounded


def test_semigroup_matrix_is_the_symbol_matrix():
    fam = TranslationFamily(E=1.0, F=0.25, conj=STD)
    t = 0.4
    np.testing.assert_array_equal(
        semigroup_matrix(fam, t, 20), wco_matrix(family_eval(fam, t), 20)
    )


def test_semigroup_law_on_monomials():
    fams = (
        TranslationFamily(E=1.0, F=0.0, conj=STD),
        DilationFamily(ell=-1.0, G=1.0, H=0.1, conj=STD),
    )
    for fam in fams:
        assert check_semigroup_law(fam, (0.3, 0.7), 5, 64) <= 1e-10


# --- scaling-equation solver ------------------------------------------------

def test_scaling_solver_matches_translation_multiplier():
    fam = TranslationFamily(E=1 - 1j, F=0.1j, conj=STD)
    lam0, dpsi = fam.scaling
    for t in np.linspace(0.0, 2.0, 9):
        closed = family_eval(fam, float(t)).C
        solved = solve_scaling_equation(lam0, dpsi, float(t))
        assert abs(solved - closed) / abs(closed) <= 1e-10


def test_scaling_solver_matches_dilation_multiplier():
    fam = DilationFamily(ell=0.5 + 0.5j, G=0.4, H=0.1 - 0.2j, conj=STD)
    lam0, dpsi = fam.scaling
    for t in np.linspace(0.0, 2.0, 9):
        closed = family_eval(fam, float(t)).C
        solved = solve_scaling_equation(lam0, dpsi, float(t))
        assert abs(solved - closed) / abs(closed) <= 1e-10


def test_scaling_solver_offset_conjugation():
    # beta = a G + b feeds the dilation integrand; exercise b != 0
    fam = DilationFamily(ell=-1.0, G=0.7, H=0.2, conj=OFFSET)
    lam0, dpsi = fam.scaling
    closed = family_eval(fam, 1.5).C
    assert solve_scaling_equation(lam0, dpsi, 1.5) == pytest.approx(closed, rel=1e-10)


def test_quadrature_error_when_tolerance_unreachable():
    # megahertz oscillation cannot be resolved within the panel-doubling cap
    wild = lambda tau: 1000.0 * np.sin(1.0e6 * np.asarray(tau))
    with pytest.raises(QuadratureError) as err:
        solve_scaling_equation(0.0, wild, 2.0)
    # the message reports the last two rules' disagreement, which missed the tolerance
    reported = re.search(r"disagreement (\S+) above (\S+)", str(err.value))
    assert float(reported[1]) > float(reported[2]) == 1e-12


# --- one panel-doubling quadrature against the loops it replaced -------------

def _scalar_panel_loop(f, lo, hi, tol):
    """The scaling solver's scalar rule: 4 panels doubled up to 12 times."""
    x, w = np.polynomial.legendre.leggauss(10)

    def rule(panels):
        edges = np.linspace(lo, hi, panels + 1)
        total = 0.0 + 0.0j
        for left, right in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (left + right), 0.5 * (right - left)
            total += half * np.sum(w * f(mid + half * x))
        return total

    panels = 4
    prev = rule(panels)
    for _ in range(12):
        panels *= 2
        cur = rule(panels)
        if abs(cur - prev) <= tol * max(abs(cur), 1.0):
            return cur
        prev = cur
    raise AssertionError("reference did not converge")


def _laplace_panel_loop(fam, lam, x):
    """The Laplace integral's own vector loop: 8 panels, at most 10 rules."""
    bound = max(n_omega_estimate(fam, x).sup, 1e-30)
    T = max(math.log(bound / 1e-10) / lam.real, 1.0)
    m = semigroup._support_size(x)
    x_gl, w_gl = np.polynomial.legendre.leggauss(10)
    panels, prev = 8, None
    for _ in range(10):
        edges = np.linspace(0.0, T, panels + 1)
        acc = np.zeros(x.size, dtype=complex)
        for left, right in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (left + right), 0.5 * (right - left)
            vals = np.array([np.exp(-lam * t) * (semigroup_matrix(fam, float(t), x.size, m)
                                                 @ x[:m]) for t in mid + half * x_gl])
            acc += half * (w_gl[:, None] * vals).sum(axis=0)
        if prev is not None and np.linalg.norm(acc - prev) <= 1e-10 * max(
                np.linalg.norm(acc), 1.0):
            return acc
        prev = acc
        panels *= 2
    raise AssertionError("reference did not converge")


def test_quadrature_equals_the_loops_it_replaced():
    for fam in (TranslationFamily(E=1 - 1j, F=0.1j, conj=STD),
                DilationFamily(ell=0.5 + 0.5j, G=0.4, H=0.1 - 0.2j, conj=OFFSET)):
        _, dpsi = fam.scaling
        for t in (0.25, 1.0, 2.0):
            assert (semigroup._refine_quadrature(dpsi, 0.0, t, 1e-12)
                    == _scalar_panel_loop(dpsi, 0.0, t, 1e-12))
    fam = DilationFamily(ell=-1.0, G=0.5, H=0.0, conj=STD)
    for x in (np.eye(16, dtype=complex)[1], monomial(3, 16)):
        J = laplace_resolvent(fam, 2.0 + 0j, x[:, None], omega=0.0)
        assert np.array_equal(J[:, 0], _laplace_panel_loop(fam, 2.0 + 0j, x))


def _monomial_law_loop(fam, times, n_monomials, dim):
    """The semigroup law applied one monomial vector z^k at a time."""
    m = min(n_monomials, dim)
    W = {tau: semigroup_matrix(fam, tau, dim) for tau in
         set(times) | {t + s for t in times for s in times}}

    def residual(t, s, k):
        v = monomial(k, dim)[:m]
        rhs = W[t + s][:, :m] @ v
        return float(np.linalg.norm(W[t] @ (W[s][:, :m] @ v) - rhs) / np.linalg.norm(rhs))

    return max(residual(t, s, k) for t in times for s in times for k in range(m))


def test_block_laws_equal_the_loops_they_replaced():
    # a block product sums in another order than one vector at a time: the
    # values agree to rounding, within 1e-15 absolute or 1e-8 relative
    def close(got, ref):
        assert abs(got - ref) <= max(1e-15, 1e-8 * abs(ref))

    times = (0.1, 0.25, 0.5, 1.0)
    for fam in (TranslationFamily(E=2.0, F=0.1, conj=STD),
                DilationFamily(ell=0.5, G=0.5j, H=0.1, conj=STD),
                DilationFamily(ell=1.0, G=0.7, H=0.2j, conj=OFFSET)):
        for dim in (8, 24, 64):
            close(check_semigroup_law(fam, times, 7, dim),
                  _monomial_law_loop(fam, times, 7, dim))


def test_quadrature_columns_keep_their_first_converged_value():
    # column 0 converges at 16 panels, column 1 one doubling later, at 32
    def f(ts):
        return np.stack([np.abs(ts - 1 / 3) ** 4.5, np.abs(ts - 1 / 3) ** 3.5],
                        axis=-1)[:, None, :]

    rule = {p: semigroup._composite_gauss_legendre(f, 0.0, 2.0, p) for p in (4, 8, 16, 32)}
    got = semigroup._refine_quadrature(f, 0.0, 2.0, 5e-11)
    assert got.shape == (1, 2)
    assert got[0, 0] == rule[16][0, 0] != rule[32][0, 0]
    assert got[0, 1] == rule[32][0, 1]
    # each column alone stops where it stopped in the pair
    for j, panels in ((0, 16), (1, 32)):
        alone = semigroup._refine_quadrature(lambda ts: f(ts)[:, 0, j], 0.0, 2.0, 5e-11)
        assert alone == rule[panels][0, j]


def _panel_by_panel(f, lo, hi, panels):
    """The composite rule with one call of f per panel, every node built up front."""
    x, w = semigroup._gauss_legendre_rule()
    edges = np.linspace(lo, hi, panels + 1)
    total = 0.0 + 0.0j
    for left, right in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (left + right)
        half = 0.5 * (right - left)
        vals = f(mid + half * x)
        weights = w.reshape((-1,) + (1,) * (vals.ndim - 1))
        total += half * (weights * vals).sum(axis=0)
    return total


@pytest.mark.parametrize("shape", [(), (7,), (300,), (5, 3), (40, 60)],
                         ids=["scalar", "vector", "long-vector", "matrix", "large-matrix"])
@pytest.mark.parametrize("panels", [1, 3, 8, 97, 512])
def test_panel_blocks_match_the_panel_loop_bit_for_bit(shape, panels):
    # one panel of a (40, 60) value takes 384 000 bytes, above the bound alone
    coeffs = np.random.default_rng(1).standard_normal((*shape, 2)) @ np.array([1.0, 1j])
    sizes = []

    def f(ts):
        vals = np.exp(1j * np.multiply.outer(ts, 1 + coeffs)) * np.cos(ts).reshape(
            (-1,) + (1,) * len(shape))
        sizes.append((len(ts), vals.nbytes))
        return vals

    got = semigroup._composite_gauss_legendre(f, -0.3, 2.9, panels)
    calls = sizes[:]
    ref = _panel_by_panel(f, -0.3, 2.9, panels)
    assert np.shape(got) == shape
    assert np.array_equal(got, ref)
    # the first panel alone, then blocks of whole panels within the byte bound
    panel_bytes = calls[0][1]
    assert calls[0][0] == semigroup._GL_NODES
    assert sum(n for n, _ in calls) == panels * semigroup._GL_NODES
    assert all(n % semigroup._GL_NODES == 0 for n, _ in calls)
    assert all(b <= max(semigroup._STACK_BYTES, panel_bytes) for _, b in calls)
    per_call = max(1, semigroup._STACK_BYTES // panel_bytes)
    assert len(calls) == 1 + -(-(panels - 1) // per_call)


def test_gauss_legendre_rule_is_leggauss_bit_for_bit():
    x, w = semigroup._gauss_legendre_rule()
    want_x, want_w = np.polynomial.legendre.leggauss(semigroup._GL_NODES)
    assert x.dtype == w.dtype == np.float64
    assert x.tobytes() == want_x.tobytes() and w.tobytes() == want_w.tobytes()
    assert not x.flags.writeable and not w.flags.writeable


# --- growth probes ----------------------------------------------------------

def test_isometric_translation_has_flat_unit_norm():
    # E = i, a = 1: |C(t)| exp(|D(t)|^2/2) = e^{-t^2/2} e^{t^2/2} = 1
    fam = TranslationFamily(E=1j, F=0.0, conj=STD)
    rep = n_omega_estimate(fam, monomial(0, 64))
    assert not rep.diverging
    assert rep.sup == pytest.approx(1.0, rel=1e-10)
    assert rep.argmax_t == 0.0
    # the truncation sags below 1 once |D(t)|^2 mass spills past 64 terms,
    # so the unit plateau is asserted only on the early part of the grid
    np.testing.assert_allclose(rep.values[:48], 1.0, rtol=1e-8)
    assert np.all(rep.values <= 1.0 + 1e-10)


def test_quadratic_growth_is_flagged():
    fam = TranslationFamily(E=1.0, F=0.0, conj=STD)
    for omega in (0.0, 1.0, 10.0):
        rep = n_omega_estimate(fam, monomial(0, 64), omega)
        assert rep.diverging, f"omega = {omega}"


def test_overflowing_probe_reports_divergence():
    # exp(9 t^2 / 2) overflows; the offset dilation's W(t) overflows at dim 64,
    # where inf * 0 in the product and inf - inf along the curve must stay silent
    for fam in (TranslationFamily(E=3.0, F=0.0, conj=STD),
                DilationFamily(ell=1.0, G=0.7, H=0.2j, conj=OFFSET)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = n_omega_estimate(fam, monomial(0, 64))
        assert rep.diverging
        assert math.isinf(rep.sup)


def test_norm_of_image_of_one_closed_form():
    for fam in (
        TranslationFamily(E=0.5 + 0.5j, F=0.1, conj=STD),
        DilationFamily(ell=-1.0, G=1.0, H=0.1, conj=STD),
    ):
        for t in (0.0, 0.25, 0.5, 1.0):
            W = semigroup_matrix(fam, t, 64)
            direct = float(np.linalg.norm(W[:, 0]))
            assert direct == pytest.approx(norm_w_one_closed_form(fam, t), rel=1e-8)


def test_exp_t_squared_special_case():
    fam = TranslationFamily(E=1.0, F=0.0, conj=STD)
    for t in (0.5, 1.0, 2.0):
        assert norm_w_one_closed_form(fam, t) == pytest.approx(
            math.exp(t * t), rel=1e-12
        )


# --- Laplace resolvent ------------------------------------------------------

def test_laplace_diagonal_values():
    fam = DilationFamily(ell=-1.0, G=0.0, H=0.0, conj=STD)  # W(t) = diag(e^{-kt})
    lam = 1.0 + 0j
    E = np.eye(32, 5, dtype=complex)  # e_0 .. e_4
    J = laplace_resolvent(fam, lam, E, omega=0.0)
    expected = E / (lam + np.arange(5))  # analytic integral of e^{-(lam+k)t}
    assert np.max(np.linalg.norm(J - expected, axis=0)) < 1e-8


def test_laplace_solves_resolvent_identity():
    fam = DilationFamily(ell=-1.0, G=0.0, H=0.0, conj=STD)
    lam = 1.0 + 0j
    Q = generator_matrix(fam, 32)
    E = np.eye(32, 5, dtype=complex)  # e_0 .. e_4
    resid = (lam * np.eye(32) - Q) @ laplace_resolvent(fam, lam, E, omega=0.0) - E
    assert np.max(np.linalg.norm(resid, axis=0)) < 1e-6


def test_laplace_works_off_the_diagonal():
    fam = DilationFamily(ell=-1.0, G=0.5, H=0.0, conj=STD)
    lam = 2.0 + 0j
    dim = 48
    Q = generator_matrix(fam, dim)
    x = np.eye(dim, dtype=complex)[1]
    J = laplace_resolvent(fam, lam, x[:, None], omega=0.0)[:, 0]
    resid = (lam * np.eye(dim) - Q) @ J - x
    assert float(np.linalg.norm(resid)) < 1e-5


def test_laplace_refuses_divergent_growth():
    fam = TranslationFamily(E=1.0, F=0.0, conj=STD)
    with pytest.raises(ValueError, match="diverge"):
        laplace_resolvent(fam, 2.0 + 0j, np.eye(32, 1, dtype=complex), omega=0.0)


def test_laplace_requires_abscissa_margin():
    fam = DilationFamily(ell=-1.0, G=0.0, H=0.0, conj=STD)
    with pytest.raises(ValueError, match="Re"):
        laplace_resolvent(fam, -0.5 + 0j, np.eye(16, 1, dtype=complex), omega=0.0)


@pytest.mark.parametrize("dim", [8, 64])
def test_batched_laplace_equals_single_vector_calls(dim):
    fam = DilationFamily(ell=-1.0, G=0.0, H=0.0, conj=STD)
    E = np.eye(dim, 5, dtype=complex)  # e_0 .. e_4
    J = laplace_resolvent(fam, 1.0 + 0j, E, omega=0.0)
    for k in range(5):
        assert np.array_equal(J[:, [k]], laplace_resolvent(fam, 1.0 + 0j, E[:, [k]], omega=0.0))
    # a seeded pair of unequal supports, scaled to growth sup 1 so that both
    # vectors share the upper limit T and the nodes of a single-vector call
    fam = DilationFamily(ell=-1.0, G=0.5, H=0.0, conj=STD)
    pair = np.zeros((dim, 2), dtype=complex)
    for j, (m, v) in enumerate(zip((4, 5), complex_normal_vectors(7, 2, 5))):
        x = np.concatenate([v[:m], np.zeros(dim - m)])
        pair[:, j] = x / n_omega_estimate(fam, x).sup
    J = laplace_resolvent(fam, 2.0 + 0j, pair, omega=0.0)
    for j in range(2):
        single = laplace_resolvent(fam, 2.0 + 0j, pair[:, [j]], omega=0.0)
        assert np.linalg.norm(J[:, [j]] - single) <= 1e-14 * np.linalg.norm(single)


def test_laplace_needs_a_block_of_columns():
    fam = DilationFamily(ell=-1.0, G=0.0, H=0.0, conj=STD)
    with pytest.raises(ValueError, match="block"):
        laplace_resolvent(fam, 1.0 + 0j, np.eye(8, dtype=complex)[0], omega=0.0)  # one vector, 1-D
    with pytest.raises(ValueError, match="block"):
        laplace_resolvent(fam, 1.0 + 0j, np.zeros((8, 0), dtype=complex), omega=0.0)


# --- matrix builds -----------------------------------------------------------

@pytest.fixture
def built_shapes(monkeypatch):
    """Shapes of the matrices the semigroup and generator layers assemble, in call
    order; a stacked build adds the shape of each matrix in its stack."""
    shapes = []

    def counting(*args, **kwargs):
        M = wco_matrix(*args, **kwargs)
        shapes.append(M.shape)
        return M

    def counting_stack(*args, **kwargs):
        stack = wco_matrices(*args, **kwargs)
        shapes.extend(M.shape for M in stack)
        return stack

    for mod in (semigroup, generator):
        monkeypatch.setattr(mod, "wco_matrix", counting)
        monkeypatch.setattr(mod, "wco_matrices", counting_stack)
    return shapes


def test_semigroup_law_builds_each_distinct_time_once(built_shapes):
    fam = DilationFamily(ell=0.5, G=0.5j, H=0.1, conj=STD)
    check_semigroup_law(fam, (0.1, 0.25, 0.5, 1.0), 7, 32)
    # 4 times t, s and 8 new sums t + s (0.5 and 1.0 are among both)
    assert len(built_shapes) == 12


@pytest.mark.parametrize("k", [0, 3])
def test_growth_and_laplace_build_only_the_support_columns(built_shapes, k):
    fam = DilationFamily(ell=-1.0, G=0.5, H=0.0, conj=STD)
    ek = np.eye(32, dtype=complex)[k]
    n_omega_estimate(fam, ek)
    laplace_resolvent(fam, 1.0 + 0j, ek[:, None], omega=0.0)
    assert built_shapes
    assert max(cols for _, cols in built_shapes) <= k + 1


def test_laplace_group_builds_each_node_once(built_shapes, monkeypatch):
    growth_builds, original = [], semigroup.growth_values

    def probing(*args, **kwargs):
        before = len(built_shapes)
        vals = original(*args, **kwargs)
        growth_builds.append(len(built_shapes) - before)
        return vals

    monkeypatch.setattr(semigroup, "growth_values", probing)
    laplace_checks(VerifyConfig(dim=64))
    # one growth pass for e_0 ... e_4 together and one for the refused family;
    # the integrand builds W(t) once per node: 10 Gauss nodes on 8 + 16 + 32 panels
    assert growth_builds == [GROWTH_T_GRID.size] * 2
    assert len(built_shapes) - sum(growth_builds) == 560
    assert max(cols for _, cols in built_shapes) == 5


def test_laplace_refuses_before_building_an_integrand(built_shapes):
    fam = TranslationFamily(E=1.0, F=0.0, conj=STD)
    with pytest.raises(ValueError, match="diverge"):
        laplace_resolvent(fam, 2.0 + 0j, np.eye(64, 1, dtype=complex), omega=0.0)
    assert len(built_shapes) == GROWTH_T_GRID.size  # the growth grid only


@pytest.mark.parametrize("scheme", ["forward", "central"])
@pytest.mark.parametrize("k", [0, 3])
def test_generator_fd_builds_only_the_support_columns(built_shapes, scheme, k):
    fam = TranslationFamily(E=1.0, F=0.0, conj=STD)
    check_generator_fd(fam, k, 32, scheme=scheme)
    assert built_shapes
    assert max(cols for _, cols in built_shapes) <= k + 1


def test_generator_fd_group_builds_each_step_once(built_shapes):
    generator_fd_checks(VerifyConfig(dim=32))
    # per family and step h, one W(h) and one W(-h) with the 5 columns that
    # z^k, k <= 4, read; then W(t) at the exponential bridge's three times
    assert built_shapes == [(32, 5)] * 20 + [(32, 6)] * 3


def test_stone_maker_builds_one_step_operator(built_shapes):
    stone_symmetry_records(VerifyConfig(dim=64), _STONE_FAMILIES[3])
    # W(h) for the adjoint quotient at dim/4; Q M = M Q^T needs no W
    assert built_shapes == [(16, 16)]


def test_spectrum_group_builds_one_eigenfunction_matrix(built_shapes):
    spectrum_checks(VerifyConfig(dim=32))
    # the six eigenfunctions as the columns of one build at the largest dim, 40
    assert built_shapes == [(40, 6)]


def test_stone_quotient_builds_no_conjugation(built_shapes, monkeypatch):
    monkeypatch.setattr(conjugation, "wco_matrix", semigroup.wco_matrix)  # counted too
    check_stone_adjoint_relation(_STONE_FAMILIES[1], 16)
    assert built_shapes == [(16, 16)]  # W(h) alone


def test_exponential_bridge_builds_only_the_monomial_columns(built_shapes):
    fam = TranslationFamily(E=1.0, F=0.0, conj=STD)
    exponential_bridge(fam, (0.1, 0.5), 4, 32)
    assert built_shapes == [(32, 4), (32, 4)]


# --- serialization ----------------------------------------------------------

def test_family_json_round_trip():
    # a report's family payload is a valid scenario family
    fams = (
        TranslationFamily(E=1 - 1j, F=0.25, conj=OFFSET),
        DilationFamily(ell=0.5j, G=1.0, H=-0.5, conj=STD),
    )
    for fam in fams:
        assert _family_from(fam.to_json(), "family") == fam


def test_family_json_rejects_unknown_variant():
    with pytest.raises(ScenarioError, match="family.variant"):
        _family_from({"variant": "rotation"}, "family")
