"""Checks of focksym's outputs against computations made apart from it.

The references are scipy (``linalg.expm``, ``integrate.solve_ivp``), mpmath
(the closed-form entry sum of a weighted composition matrix, truncated
exponential series), Liouville's formula and the families' closed forms.  No
check compares against a stored copy of an earlier output.  Every comparison
adds its relative deviation, max |got - want| / max |want|, to ``deviations``;
the benchmark reports the largest as ``oracle_err``.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
from pathlib import Path
from typing import Callable

import mpmath
import numpy as np
import scipy.integrate
import scipy.linalg

from workloads import Op

# Tolerances of each comparison.  They separate a right answer from a wrong
# one; how close the program comes is what oracle_err reports.
TOL_WCO_MPMATH = 1e-9
TOL_EXPM = 1e-11
TOL_GROWTH = 1e-10
TOL_LATTICE = 1e-12
TOL_ROUNDING = 1e-13  # b = 0 involution and isometry residuals, per unit norm
TOL_LIOUVILLE = 1e-7
TOL_PROPAGATOR = 1e-7


class Checker:
    """Collects relative deviations and the checks that failed."""

    def __init__(self) -> None:
        self.deviations: list[float] = []
        self.mismatches: list[str] = []

    def compare(self, label: str, got, want, tol: float) -> None:
        got = np.asarray(got, dtype=complex)
        want = np.asarray(want, dtype=complex)
        if got.shape != want.shape:
            self.mismatches.append(f"{label}: shape {got.shape} != {want.shape}")
            return
        scale = float(np.max(np.abs(want)))
        dev = float(np.max(np.abs(got - want))) / scale if scale > 0 else math.inf
        self.deviations.append(dev)
        if not dev <= tol:
            self.mismatches.append(f"{label}: relative deviation {dev:.3e} > {tol:.1e}")

    def require(self, label: str, ok: bool, detail: str = "") -> None:
        if not ok:
            self.mismatches.append(f"{label}: {detail}" if detail else label)


def _cx(v) -> complex:
    return complex(v) if isinstance(v, (int, float)) else complex(v[0], v[1])


def _records(op: Op) -> dict[str, tuple[float, str]]:
    """check_id -> (measured, status) from a JSON report or a records CSV.

    The records CSV leaves cells unquoted, so an anchor holding a comma spans
    several cells; the id is read from the left and the rest from the right.
    """
    if op.fmt == "json":
        recs = json.loads(op.report.read_text())["records"]
        return {r["check_id"]: (float(r["measured"]), r["status"]) for r in recs}
    with op.report.open() as fh:
        rows = list(csv.reader(fh))[1:]
    return {row[0]: (float(row[-4]), row[-1]) for row in rows}


def _csv_table(path: Path) -> np.ndarray:
    with path.open() as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(x) for x in row] for row in rows])


# ---------------------------------------------------------------------------
# closed forms of the two families (independent of focksym.semigroup)

def _conj_ab(spec: dict) -> tuple[complex, complex]:
    conj = spec.get("conjugation", {})
    return _cx(conj.get("a", 1.0)), _cx(conj.get("b", 0.0))


def family_symbols(p: dict, t: float) -> tuple[complex, complex, complex, complex]:
    """(A, B, C, D)(t) from the family formulas."""
    a, b = _conj_ab(p)
    if p["variant"] == "translation":
        E, F = _cx(p["E"]), _cx(p.get("F", 0.0))
        return 1.0, E * t, cmath.exp(F * t + a * E * E * t * t / 2), a * E * t
    ell, G, H = _cx(p["ell"]), _cx(p.get("G", 0.0)), _cx(p.get("H", 0.0))
    beta = a * G + b
    eat = cmath.exp(ell * t)
    return eat, G * (1 - eat), cmath.exp(H * t + G * beta * (eat - ell * t - 1)), beta * (1 - eat)


def truncated_norm_of_w_one(spec: dict, t: float, dim: int) -> float:
    """||W(t) 1|| on the first dim coefficients: |C| sqrt(sum_{n<dim} |D|^2n / n!)."""
    _, _, C, D = family_symbols(spec, t)
    x = mpmath.mpf(abs(D)) ** 2
    total = mpmath.mpf(0)
    term = mpmath.mpf(1)
    for n in range(dim):
        total += term
        term = term * x / (n + 1)
    return float(abs(mpmath.mpc(C)) * mpmath.sqrt(total))


def growth_grid() -> np.ndarray:
    return np.concatenate(([0.0], np.geomspace(1.0 / 64.0, 8.0, 64)))


# ---------------------------------------------------------------------------
# verify-64

def expected_verify_ids() -> set[str]:
    t, d = "translation", "dilation"
    ids = [f"conjugation.{law}.b0.{i}" for law in ("involution", "isometry") for i in range(3)]
    ids += ["conjugation.involution.offset.decay"]
    ids += [f"boundedness.flat-norms.{i}" for i in (0, 1, 2)]
    ids += [f"boundedness.growing-norms.{i}" for i in (3, 4, 5)]
    ids += [f"family.{law}.{k}.{i}" for i, k in enumerate((t, t, d, d, d))
            for law in ("semiflow", "semicocycle", "identity-at-zero")]
    ids += [f"semigroup.law.{k}.{i}" for i, k in enumerate((t, t, t, d, d, d))]
    ids += [f"generator.fd-{s}.{k}.k{j}" for k in (t, d) for j in range(5)
            for s in ("forward", "central")]
    ids += ["generator.exponential-bridge"]
    ids += [f"stone.{law}.{k}.{i}" for i, k in enumerate((t, d) * 3)
            for law in ("generator-symmetry", "adjoint-quotient")]
    ids += ["spectrum.lattice.beta0", "spectrum.eigenfunction-residuals",
            "spectrum.residuals-monotone", "spectrum.truncated-eigs-nonnormal"]
    ids += ["empty-spectrum.divergence.eta=0.0", "empty-spectrum.divergence.eta=(1+1j)"]
    ids += [f"growth.norm-one.{k}.{i}" for i, k in enumerate((t, t, d, d))]
    ids += ["growth.norm-one-exp-t-squared"]
    ids += [f"growth.divergence-flag.omega={w}" for w in ("0", "1", "10")]
    ids += ["laplace.diagonal-values", "laplace.resolvent-identity", "laplace.refuses-divergent"]
    ids += ["dissipativity.margin", "dissipativity.resolvent-bound"]
    ids += [f"evolution.{c}" for c in ("identity", "composition", "closed-form",
                                       "exponential-route", "nonauto-commutation",
                                       "symmetry-commuting", "adjoint-slope", "reverse-inverse")]
    ids += [f"scaling.solver.{k}.{i}" for i, k in enumerate((t, t, d, d))]
    return set(ids)


def wco_matrix_mpmath(A: complex, B: complex, C: complex, D: complex, dim: int) -> np.ndarray:
    """Closed-form entry sum on normalized coefficients, in 30-digit arithmetic:
    M[n, k] = C sqrt(n!/k!) sum_j binom(k, j) A^j B^(k-j) D^(n-j) / (n-j)!."""
    with mpmath.workdps(30):
        A, B, C, D = (mpmath.mpc(z) for z in (A, B, C, D))
        fact = [mpmath.factorial(n) for n in range(dim)]
        powA = [A ** j for j in range(dim)]
        powB = [B ** j for j in range(dim)]
        dterm = [D ** m / fact[m] for m in range(dim)]
        sqf = [mpmath.sqrt(f) for f in fact]
        M = np.empty((dim, dim), dtype=complex)
        for k in range(dim):
            binom = [mpmath.binomial(k, j) * powA[j] * powB[k - j] for j in range(k + 1)]
            for n in range(dim):
                s = mpmath.fsum(binom[j] * dterm[n - j] for j in range(min(n, k) + 1))
                M[n, k] = complex(C * sqf[n] / sqf[k] * s)
    return M


def check_verify(op: Op, chk: Checker) -> None:
    from focksym.generator import matrix_exponential
    from focksym.wco import WCOParams, wco_matrix

    records = _records(op)
    expected = expected_verify_ids()
    chk.require("verify-64 check ids", set(records) == expected,
                f"missing {sorted(expected - set(records))}, "
                f"unexpected {sorted(set(records) - expected)}")
    bad = sorted(cid for cid, (_, status) in records.items() if status not in ("pass", "info"))
    chk.require("verify-64 statuses", not bad, f"fail or warn: {bad}")

    # the offset conjugation's symbol, the hardest assembly the suite makes
    sym = (1.0, 1j, math.exp(-0.5), 1j)
    got = wco_matrix(WCOParams(*sym), 64)
    chk.compare("wco_matrix offset symbol d64 vs mpmath", got, wco_matrix_mpmath(*sym, 64),
                TOL_WCO_MPMATH)

    # matrix_exponential on the suite's inputs: the unit translation generator
    # at dim 64 (tridiagonal ladder, built here) and the two-level B(0)
    roots = np.sqrt(np.arange(1.0, 64))
    Q = np.diag(roots, -1).astype(complex) + np.diag(roots, 1)
    for t in (0.1, 0.25, 0.5):
        chk.compare(f"matrix_exponential translation d64 t={t}", matrix_exponential(Q, t),
                    scipy.linalg.expm(t * Q), TOL_EXPM)
    B0 = -1j * np.array([[1 + 0.3j, 1.0], [1.0, 1 - 0.3j]])
    chk.compare("matrix_exponential two-level t=1", matrix_exponential(B0, 1.0),
                scipy.linalg.expm(B0), TOL_EXPM)


# ---------------------------------------------------------------------------
# scenario-sweep

def check_conjugation(op: Op, chk: Checker) -> None:
    if _cx(op.params.get("b", 0.0)) != 0:
        return  # truncation-limited: judged by the exit code alone
    records = _records(op)
    inv = records["conjugation.involution"][0]
    # isometry residual |<Cf,Cg> - <g,f>| of two standard complex normal
    # vectors, per unit of E ||f|| ||g|| = dim
    iso = records["conjugation.isometry"][0] / op.dim
    for name, value in (("involution", inv), ("isometry", iso)):
        chk.deviations.append(value)
        chk.require(f"{op.label} {name} residual at rounding level", value <= TOL_ROUNDING,
                    f"{value:.3e} > {TOL_ROUNDING:.1e}")


def check_wco(op: Op, chk: Checker) -> None:
    A, B, D = _cx(op.params["A"]), _cx(op.params.get("B", 0.0)), _cx(op.params.get("D", 0.0))
    # bounded iff |A| < 1, or |A| = 1 and D + A conj(B) = 0
    bounded = abs(A) < 1 - 1e-12 or (abs(abs(A) - 1) <= 1e-12
                                      and abs(D + A * B.conjugate()) <= 1e-12)
    got = _records(op)["wco.bounded"][0]
    chk.require(f"{op.label} boundedness verdict", got == (1.0 if bounded else 0.0),
                f"report says {got}, symbol criterion says {bounded}")


def check_semigroup(op: Op, chk: Checker) -> None:
    spec, omega = op.params["family"], float(op.params.get("omega", 0.0))
    grid = growth_grid()
    norms = np.array([truncated_norm_of_w_one(spec, float(t), op.dim) for t in grid])
    weighted = np.exp(-omega * grid) * norms
    if op.fmt == "csv":
        table = _csv_table(op.report)
        chk.compare(f"{op.label} growth grid", table[:, 0], grid, 1e-15)
        chk.compare(f"{op.label} growth ||W(t)1||", table[:, 1], norms, TOL_GROWTH)
        chk.compare(f"{op.label} growth weighted", table[:, 2], weighted, TOL_GROWTH)
    else:
        growth = json.loads(op.report.read_text())["provenance"]["parameters"]["growth"]
        chk.compare(f"{op.label} growth sup", growth["sup"], np.max(weighted), TOL_GROWTH)


def check_spectrum(op: Op, chk: Checker) -> None:
    p = op.params["family"]
    a, b = _conj_ab(p)
    ell, G, H = _cx(p["ell"]), _cx(p.get("G", 0.0)), _cx(p.get("H", 0.0))
    beta = a * G + b
    k_max = int(op.params.get("k_max", 5))
    want = np.array([H - ell * beta * G + k * ell for k in range(k_max + 1)])
    if op.fmt == "csv":
        table = _csv_table(op.report)
        got = table[:, 1] + 1j * table[:, 2]
    else:
        spectrum = json.loads(op.report.read_text())["provenance"]["parameters"]["spectrum"]
        got = np.array([_cx(z) for z in spectrum["predicted"]])
    chk.compare(f"{op.label} dilation lattice", got, want, TOL_LATTICE)


# ---------------------------------------------------------------------------
# evolution models, rebuilt from the scenario parameters

def _coefficient(spec) -> Callable[[float], float]:
    if isinstance(spec, dict):
        c = spec["cosine"]
        amp, freq, phase = c.get("amplitude", 1.0), c.get("frequency", 1.0), c.get("phase", 0.0)
        return lambda t: amp * math.cos(freq * t + phase)
    return lambda t: float(spec)


def evolution_model(params: dict):
    """(B(t), knots) for the model of an evolution scenario or evolve call."""
    model = params["B"]
    if model == "bagchi":
        nu = float(params.get("nu", 1.0))
        kappa = _coefficient(params.get("kappa", 0.0))
        lam = _coefficient(params.get("lam", 1.0))

        def B(t):
            k, l = kappa(t), lam(t)
            return -1j * np.array([[nu + 1j * k, l], [l, nu - 1j * k]])

        return B, ()
    if model == "constant":
        M = np.array([[_cx(z) for z in row] for row in params["matrix"]])
        return (lambda t: M), ()
    ts = np.array(params["times"], dtype=float)
    stack = np.array([[[_cx(z) for z in row] for row in m] for m in params["matrices"]])

    def B(t):
        if t <= ts[0]:
            return stack[0]
        if t >= ts[-1]:
            return stack[-1]
        j = int(np.searchsorted(ts, t)) - 1
        w = (t - ts[j]) / (ts[j + 1] - ts[j])
        return (1 - w) * stack[j] + w * stack[j + 1]

    return B, tuple(ts)


def _trace_integral(B, knots, s: float, t: float) -> complex:
    """int_s^t tr B.  The two-level and constant models have a constant trace
    (-2i nu for the two-level one); the table model is piecewise linear, so
    the trapezoidal rule between knots is exact."""
    pts = sorted({s, t, *[k for k in knots if s < k < t]})
    return sum((b - a) * (B(a).trace() + B(b).trace()) / 2 for a, b in zip(pts, pts[1:]))


def _reference_propagator(B, knots, s: float, t: float, n: int) -> np.ndarray:
    """U(t, s) by scipy's DOP853 at tight tolerance, one smooth piece at a time."""
    U = np.eye(n, dtype=complex)
    pts = sorted({s, t, *[k for k in knots if s < k < t]})
    for a, b in zip(pts, pts[1:]):
        sol = scipy.integrate.solve_ivp(
            lambda x, y: (B(x) @ y.view(complex).reshape(n, n)).ravel().view(float),
            (a, b), U.ravel().view(float), method="DOP853", rtol=1e-13, atol=1e-15)
        U = sol.y[:, -1].copy().view(complex).reshape(n, n)
    return U


def check_evolution(op: Op, chk: Checker) -> None:
    params = op.params
    B, knots = evolution_model(params)
    n = B(0.0).shape[0]
    s = float(params.get("s", 0.0))
    table = _csv_table(op.report)
    times = table[:, 0]
    want_times = np.linspace(s, float(params.get("t", 1.0)), int(params.get("samples", 21)))
    chk.compare(f"{op.label} sample times", times, want_times, 1e-15)
    U = table[:, 1::2] + 1j * table[:, 2::2]
    U = U.reshape(len(times), n, n)
    got_det = np.array([np.linalg.det(u) for u in U])
    want_det = np.array([np.exp(_trace_integral(B, knots, s, float(t))) for t in times])
    chk.compare(f"{op.label} Liouville det U(t,s)", got_det / want_det, np.ones(len(times)),
                TOL_LIOUVILLE)
    time_varying = params["B"] == "table" or any(
        isinstance(params.get(c), dict) for c in ("kappa", "lam"))
    if not time_varying:
        M = B(0.0)
        want = np.array([scipy.linalg.expm((t - s) * M) for t in times])
        chk.compare(f"{op.label} rows vs expm", U, want, TOL_PROPAGATOR)
    else:
        rows = sorted({len(times) // 2, len(times) - 1})
        want = np.array([_reference_propagator(B, knots, s, float(times[r]), n) for r in rows])
        chk.compare(f"{op.label} rows vs solve_ivp", U[rows], want, TOL_PROPAGATOR)


CHECKS = {
    "verify-all": check_verify,
    "conjugation-check": check_conjugation,
    "wco": check_wco,
    "semigroup": check_semigroup,
    "spectrum": check_spectrum,
    "evolution": check_evolution,
    "evolve": check_evolution,
}


def check(op: Op, chk: Checker) -> None:
    """Run the oracle of one operation whose outcome was the expected one."""
    if op.known_fault and op.expect_exit == 1:
        return  # rejected input: the outcome is the whole answer
    fn = CHECKS.get(op.kind)
    if fn is not None:
        fn(op, chk)
