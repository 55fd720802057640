"""Scenario-driven command line: validate inputs, run checks, write reports.

Subcommands
    validate <scenario.json>          schema- and constraint-check only
    run <scenario.json>               execute a scenario, write its report
    verify-all [--seed] [--dim]       the full check suite as one report (dim >= 8)
    spectrum  [family flags]          dilation spectrum report front end
    evolve    [model flags]           propagator time series as CSV

Each scenario kind has one parser, which both ``validate`` and ``run`` use,
and one runner; the laws are measured by :mod:`focksym.verification`.

Exit codes: 0 every record passed (warn/info allowed), 1 input error,
2 at least one failed check.  Complex scalars in JSON are [re, im] pairs.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .conjugation import (
    ConjugationParams,
    ConstraintViolation,
    check_isometry,
    check_matrix_c_symmetry,
    conjugation_matrix,
)
from .evolution import (
    BagchiParams,
    StiffnessError,
    TimeDependentOperator,
    bagchi_hamiltonian,
    check_evolution_axioms,
    constant_operator,
    evolution_series,
    evolve,
)
from .fock import DEFAULT_TOLERANCES, FockVector, monomial
from .generator import (
    check_empty_point_spectrum,
    check_stone_adjoint_relation,
    spectrum_report,
)
from .rng import complex_normal_vectors
from .semigroup import (
    DilationFamily,
    GrowthProbe,
    SemigroupFamily,
    TranslationFamily,
    check_semigroup_law,
    family_is_bounded,
    n_omega_estimate,
)
from .serialize import (
    complex_from_json,
    complex_to_json,
    default_output_dir,
    write_csv,
    write_json_report,
)
from .verification import (
    FLOW_GRID,
    MAX_COMPLEX_ENTRIES,
    SUITE_MIN_DIM,
    CheckRecord,
    VerifyConfig,
    _info,
    _record,
    exponential_bridge,
    fd_slope_records,
    flow_cocycle_deviation,
    involution_decay_record,
    involution_residual,
    run_all,
    scaling_deviation,
)
from .wco import WCOParams, is_bounded, is_c_selfadjoint_symbols, wco_matrix

__all__ = ["main"]


class ScenarioError(Exception):
    """Input validation failure; carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# ----------------------------------------------------------------------------
# field extraction with path-carrying errors

def _to_float(val: int | float, here: str) -> float:
    try:
        return float(val)
    except OverflowError:
        raise ScenarioError(here, "integer too large for a float")


def _get(obj: dict, path: str, key: str, typ: type, default: Any = ...) -> Any:
    here = f"{path}.{key}" if path else key
    if key not in obj:
        if default is not ...:
            return default
        raise ScenarioError(here, "missing required field")
    val = obj[key]
    if isinstance(val, bool) and typ in (int, float):  # bool is an int subclass
        raise ScenarioError(here, f"expected {typ.__name__}, got bool")
    if typ is float and isinstance(val, int):
        val = _to_float(val, here)
    if not isinstance(val, typ):
        raise ScenarioError(here, f"expected {typ.__name__}, got {type(val).__name__}")
    if typ is float and not math.isfinite(val):
        raise ScenarioError(here, "expected a finite number")
    return val


def _get_size(obj: dict, path: str, key: str, default: int, least: int) -> int:
    """An integer field >= least whose arrays (n + 1 entries) numpy can index."""
    n = _get(obj, path, key, int, default)
    here = f"{path}.{key}" if path else key
    if n < least:
        raise ScenarioError(here, f"must be >= {least}")
    if n + 1 > MAX_COMPLEX_ENTRIES:
        raise ScenarioError(here, "too large: numpy cannot index an array of that size")
    return n


def _get_complex(obj: dict, path: str, key: str, default: Any = ...) -> complex:
    here = f"{path}.{key}" if path else key
    if key not in obj:
        if default is not ...:
            return default
        raise ScenarioError(here, "missing required field")
    try:
        z = complex_from_json(obj[key])
    except (TypeError, ValueError, IndexError):
        raise ScenarioError(here, "expected a number or an [re, im] pair")
    except OverflowError:
        raise ScenarioError(here, "integer too large for a float")
    if not cmath.isfinite(z):
        raise ScenarioError(here, "expected a finite number")
    return z


def _conjugation_from(obj: dict, path: str) -> ConjugationParams:
    p = ConjugationParams(
        a=_get_complex(obj, path, "a", 1.0 + 0j),
        b=_get_complex(obj, path, "b", 0.0 + 0j),
        c=_get_complex(obj, path, "c", 1.0 + 0j),
    )
    try:
        p.validate()
    except ConstraintViolation as exc:
        raise ScenarioError(f"{path}.{exc.field}", str(exc))
    return p


def _family_from(obj: dict, path: str) -> SemigroupFamily:
    variant = _get(obj, path, "variant", str)
    conj = _conjugation_from(_get(obj, path, "conjugation", dict, {}),
                             f"{path}.conjugation")
    try:
        if variant == "translation":
            return TranslationFamily(
                E=_get_complex(obj, path, "E"),
                F=_get_complex(obj, path, "F", 0.0 + 0j),
                conj=conj,
            )
        if variant == "dilation":
            return DilationFamily(
                ell=_get_complex(obj, path, "ell"),
                G=_get_complex(obj, path, "G", 0.0 + 0j),
                H=_get_complex(obj, path, "H", 0.0 + 0j),
                conj=conj,
            )
    except ValueError as exc:
        raise ScenarioError(path, str(exc))
    raise ScenarioError(f"{path}.variant",
                        "expected 'translation' or 'dilation'")


def _config(path: str, **fields) -> VerifyConfig:
    try:
        return VerifyConfig(**fields)
    except ValueError as exc:
        raise ScenarioError(path, str(exc))


def _config_from(obj: dict, path: str, seed: int) -> VerifyConfig:
    dim = _get(obj, path, "dim", int, 64)
    overrides = _get(obj, path, "tolerances", dict, {})
    tolerances = dict(DEFAULT_TOLERANCES)
    for key, val in overrides.items():
        if key not in tolerances:
            raise ScenarioError(f"{path}.tolerances.{key}", "unknown tolerance name")
        here = f"{path}.tolerances.{key}"
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise ScenarioError(here, "expected a finite number")
        val = _to_float(val, here)
        if not math.isfinite(val):
            raise ScenarioError(here, "expected a finite number")
        tolerances[key] = val
    return _config(f"{path}.dim", dim=dim, seed=seed, tolerances=tolerances)


# ----------------------------------------------------------------------------
# scenario parsing: one parser per kind returns the typed spec its runner takes

@dataclass(frozen=True)
class Scenario:
    name: str
    kind: str
    spec: Any
    cfg: VerifyConfig
    output: dict  # "format" and, when given, "path"


def load_scenario(path: Path) -> dict:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(str(path), f"cannot read file: {exc}")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(str(path), f"malformed JSON: {exc}")
    if not isinstance(obj, dict):
        raise ScenarioError(str(path), "scenario must be a JSON object")
    return obj


def validate_scenario(obj: dict, seed: int = VerifyConfig.seed) -> Scenario:
    """Parse and check a scenario, or raise ScenarioError naming the field."""
    name = _get(obj, "", "name", str)
    if "/" in name or "\\" in name:
        raise ScenarioError("name", "must not contain a path separator")
    kind = _get(obj, "", "kind", str)
    if kind not in _KINDS:
        raise ScenarioError("kind", f"unknown kind {kind!r}; expected one of "
                                    f"{', '.join(_KINDS)}")
    params = _get(obj, "", "params", dict, {})
    cfg = _config_from(_get(obj, "", "truncation", dict, {}), "truncation", seed)
    output = _get(obj, "", "output", dict, {})
    fmt = _get(output, "output", "format", str, "json")
    if fmt not in ("json", "csv"):
        raise ScenarioError("output.format", "expected 'json' or 'csv'")
    out = {"format": fmt}
    if "path" in output:
        out["path"] = _get(output, "output", "path", str)
    parse, _ = _KINDS[kind]
    return Scenario(name, kind, parse(params, cfg), cfg, out)


def _parse_conjugation(params: dict, cfg: VerifyConfig) -> ConjugationParams:
    return _conjugation_from(params, "params")


@dataclass(frozen=True)
class WcoSpec:
    symbol: WCOParams
    matrix: np.ndarray  # the truncation at cfg.dim, assembled once
    conj: ConjugationParams | None


def _parse_wco(params: dict, cfg: VerifyConfig) -> WcoSpec:
    p = WCOParams(
        A=_get_complex(params, "params", "A"),
        B=_get_complex(params, "params", "B", 0.0 + 0j),
        C=_get_complex(params, "params", "C", 1.0 + 0j),
        D=_get_complex(params, "params", "D", 0.0 + 0j),
    )
    conj = _get(params, "params", "conjugation", dict, None)
    if conj is not None:
        conj = _conjugation_from(conj, "params.conjugation")
    try:
        M = wco_matrix(p, cfg.dim)
    except OverflowError:
        M = None
    if M is None or not np.all(np.isfinite(M)):
        # name the largest symbol entry, the one that drives the overflow
        key = max("ABCD", key=lambda k: abs(getattr(p, k)))
        raise ScenarioError(f"params.{key}",
                            f"the truncated matrix overflows at dim {cfg.dim}")
    return WcoSpec(p, M, conj)


def _parse_family(params: dict, cfg: VerifyConfig) -> SemigroupFamily:
    return _family_from(_get(params, "params", "family", dict), "params.family")


@dataclass(frozen=True)
class SemigroupSpec:
    family: SemigroupFamily
    probe: GrowthProbe


def _parse_semigroup(params: dict, cfg: VerifyConfig) -> SemigroupSpec:
    fam = _parse_family(params, cfg)
    probe = GrowthProbe(omega=_get(params, "params", "omega", float, 0.0))
    if abs(probe.omega) * probe.t_grid[-1] >= math.log(sys.float_info.max):
        raise ScenarioError("params.omega", f"exp(omega t) overflows on the probe grid "
                                            f"t <= {probe.t_grid[-1]:g}")
    return SemigroupSpec(fam, probe)


@dataclass(frozen=True)
class SpectrumSpec:
    family: SemigroupFamily
    k_max: int
    eta: complex | None  # candidate eigenvalue; translation families only


def _parse_spectrum(params: dict, cfg: VerifyConfig) -> SpectrumSpec:
    fam = _parse_family(params, cfg)
    k_max = _get_size(params, "params", "k_max", 5, 0)
    eta = None
    if isinstance(fam, TranslationFamily):
        eta = _get_complex(params, "params", "eta", 1 + 1j)
    elif k_max >= cfg.dim:
        raise ScenarioError("params.k_max", f"must be below the dim {cfg.dim}: the "
                                            "eigenfunction (z-G)^k exp(beta z) holds z^k")
    return SpectrumSpec(fam, k_max, eta)


_EVOLUTION_MODELS = ("bagchi", "constant", "table")


@dataclass(frozen=True)
class EvolutionSpec:
    op: TimeDependentOperator
    meta: dict
    source: str  # field path of the model's coefficients, named on stiffness
    s: float
    t: float
    rel_tol: float
    samples: int


def _coefficient_fn(spec: Any, path: str) -> Callable[[float], float]:
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        v = _to_float(spec, path)
        if math.isfinite(v):
            return lambda t: v
    if isinstance(spec, dict) and isinstance(spec.get("cosine"), dict):
        c = spec["cosine"]
        amp = _get(c, f"{path}.cosine", "amplitude", float, 1.0)
        freq = _get(c, f"{path}.cosine", "frequency", float, 1.0)
        phase = _get(c, f"{path}.cosine", "phase", float, 0.0)
        return lambda t: amp * math.cos(freq * t + phase)
    raise ScenarioError(path, "expected a finite number or {'cosine': {...}}")


def _matrix_from(entry: Any, path: str) -> np.ndarray:
    if not isinstance(entry, list) or not entry:
        raise ScenarioError(path, "expected a non-empty matrix (list of rows)")
    try:
        M = np.array([[complex_from_json(x) for x in row] for row in entry], dtype=complex)
    except (TypeError, ValueError, IndexError):
        raise ScenarioError(path, "expected equal-length rows of numbers or [re, im] pairs")
    except OverflowError:
        raise ScenarioError(path, "integer too large for a float")
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ScenarioError(path, "matrix must be square")
    if not np.all(np.isfinite(M)):
        raise ScenarioError(path, "matrix entries must be finite")
    return M


def _evolution_operator_from(params: dict) -> tuple[TimeDependentOperator, dict, str]:
    model = _get(params, "params", "B", str)
    if model not in _EVOLUTION_MODELS:
        raise ScenarioError("params.B", f"expected one of {_EVOLUTION_MODELS}")
    if model == "bagchi":
        nu = _get(params, "params", "nu", float, 1.0)
        kappa = _coefficient_fn(params.get("kappa", 0.0), "params.kappa")
        lam = _coefficient_fn(params.get("lam", 1.0), "params.lam")
        op = bagchi_hamiltonian(BagchiParams(nu=nu, kappa=kappa, lam=lam))
        meta = {"model": "bagchi", "nu": nu}
        return op, meta, "params.B"
    if model == "constant":
        M = _matrix_from(_get(params, "params", "matrix", list), "params.matrix")
        return constant_operator(M), {"model": "constant", "dim": M.shape[0]}, "params.matrix"
    times = _get(params, "params", "times", list)
    mats = _get(params, "params", "matrices", list)
    if len(times) != len(mats) or len(times) < 2:
        raise ScenarioError("params.times",
                            "need >= 2 sample times matching 'matrices'")
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in times):
        raise ScenarioError("params.times", "expected a list of numbers")
    ts = np.array([_to_float(x, f"params.times[{i}]") for i, x in enumerate(times)])
    if not np.all(np.isfinite(ts)) or np.any(np.diff(ts) <= 0):
        raise ScenarioError("params.times", "must be finite and strictly increasing")
    blocks = [_matrix_from(m, f"params.matrices[{i}]") for i, m in enumerate(mats)]
    for i, M in enumerate(blocks):
        if M.shape != blocks[0].shape:
            raise ScenarioError(f"params.matrices[{i}]",
                                f"shape {M.shape} differs from {blocks[0].shape} of matrices[0]")
    stack = np.stack(blocks)

    def eval_b(t: float) -> np.ndarray:
        # piecewise-linear interpolation, clamped at the ends
        if t <= ts[0]:
            return stack[0]
        if t >= ts[-1]:
            return stack[-1]
        j = int(np.searchsorted(ts, t) - 1)
        w = (t - ts[j]) / (ts[j + 1] - ts[j])
        return (1 - w) * stack[j] + w * stack[j + 1]

    op = TimeDependentOperator(dim=stack.shape[1], eval=eval_b)
    return op, {"model": "table", "dim": stack.shape[1], "samples": len(times)}, "params.matrices"


def _parse_evolution(params: dict, cfg: VerifyConfig) -> EvolutionSpec:
    op, meta, source = _evolution_operator_from(params)
    s = _get(params, "params", "s", float, 0.0)
    t = _get(params, "params", "t", float, 1.0)
    if t < s:
        raise ScenarioError("params.t", "need t >= s")
    if not math.isfinite(t - s):  # the sample times would overflow
        raise ScenarioError("params.t", "t - s must be a finite number")
    rel_tol = _get(params, "params", "rel_tol", float, 1e-10)
    if rel_tol <= 0:
        raise ScenarioError("params.rel_tol", "must be positive")
    samples = _get_size(params, "params", "samples", 21, 1)
    return EvolutionSpec(op, meta, source, s, t, rel_tol, samples)


def _check_suite_dim(cfg: VerifyConfig, path: str) -> None:
    if cfg.dim < SUITE_MIN_DIM:
        raise ScenarioError(path, f"the full check suite needs dim >= {SUITE_MIN_DIM}, "
                                  f"got {cfg.dim}")


def _parse_full_verify(params: dict, cfg: VerifyConfig) -> int | None:
    _check_suite_dim(cfg, "truncation.dim")
    seed = _get(params, "params", "seed", int, None)
    if seed is not None and seed < 0:
        raise ScenarioError("params.seed", "seed must be >= 0")
    return seed


# ----------------------------------------------------------------------------
# scenario runners: each returns (records, extra report payload, csv rows)

def _run_conjugation(p: ConjugationParams, cfg: VerifyConfig):
    dim = cfg.dim
    op = conjugation_matrix(p, dim)
    inv = involution_residual(op, min(8, dim - 1))
    vecs = complex_normal_vectors(cfg.seed, 2, dim)
    iso = check_isometry(op, FockVector(vecs[0]), FockVector(vecs[1]))
    if p.b == 0:
        records = [
            _record(cfg, "conjugation.involution", "C^2 = identity",
                    inv, cfg.tol("involution_exact")),
            _record(cfg, "conjugation.isometry", "<Cf,Cg> = <g,f>",
                    iso, cfg.tol("isometry_exact")),
        ]
    else:
        # truncation-limited: report the residual and its decay, judge the decay
        inv_half = involution_residual(conjugation_matrix(p, dim // 2), min(8, dim // 2 - 1))
        records = [
            _info("conjugation.involution.residual",
                  "C^2 = identity (truncation limited)", inv),
            involution_decay_record(cfg, "conjugation.involution.decay", inv_half, inv),
            _info("conjugation.isometry.residual",
                  "<Cf,Cg> = <g,f> (truncation limited)", iso),
        ]
    payload = {"conjugation": p.to_json(), "diagonal": p.is_diagonal}
    return records, payload, None


def _run_wco(spec: WcoSpec, cfg: VerifyConfig):
    p, dim = spec.symbol, cfg.dim
    verdict = is_bounded(p)
    records = [
        _info("wco.bounded", "symbol criterion for boundedness",
              1.0 if verdict.bounded else 0.0, verdict.reason),
    ]
    norms = [float(np.linalg.norm(M, 2)) for M in (wco_matrix(p, dim // 2), spec.matrix)]
    records.append(_info("wco.truncated-norms", "plumbing", norms[-1],
                         f"2-norm at dim {dim//2}: {norms[0]!r}, dim {dim}: {norms[1]!r}"))
    payload: dict[str, Any] = {"wco": p.to_json()}
    if spec.conj is not None:
        res = is_c_selfadjoint_symbols(p, spec.conj.a, spec.conj.b)
        records.append(_record(cfg, "wco.symbol-selfadjointness",
                               "D = a B - b A + b", res.deviation,
                               cfg.tol("constraint")))
        payload["conjugation"] = spec.conj.to_json()
    return records, payload, None


def _run_semigroup(spec: SemigroupSpec, cfg: VerifyConfig):
    fam, dim, probe = spec.family, cfg.dim, spec.probe
    flow_dev, coc_dev = flow_cocycle_deviation(fam, FLOW_GRID)
    law = check_semigroup_law(fam, (0.25, 1.0), 5, dim)
    scal = scaling_deviation(fam, np.linspace(0.0, 2.0, 5))
    records = [
        _record(cfg, "semigroup.semiflow", "zeta_{t+s} = zeta_t o zeta_s",
                flow_dev, cfg.tol("semiflow")),
        _record(cfg, "semigroup.semicocycle", "xi_{t+s} = xi_t (xi_s o zeta_t)",
                coc_dev, cfg.tol("semicocycle")),
        _record(cfg, "semigroup.law", "W(t) W(s) = W(t+s) on monomials",
                law, cfg.tol("semigroup_law")),
        _record(cfg, "semigroup.scaling-multiplier",
                "multiplier solves the scaling differential equation",
                scal, cfg.tol("scaling_solver")),
        _info("semigroup.bounded", "uniform boundedness criterion",
              1.0 if family_is_bounded(fam) else 0.0),
    ]
    rep = n_omega_estimate(fam, monomial(0, dim), probe)
    records.append(_info("semigroup.growth", "sup_t e^{-omega t} ||W(t) 1||", rep.sup,
                         f"diverging={rep.diverging} argmax_t={rep.argmax_t!r}"))
    rows = [("t", "norm", "weighted_norm")]
    for t, weighted in zip(probe.t_grid, rep.values):
        raw = weighted * math.exp(probe.omega * t)
        rows.append((float(t), float(raw), float(weighted)))
    payload = {"family": fam.to_json(), "growth": rep.to_json(), "omega": probe.omega}
    return records, payload, rows


def _run_generator(fam: SemigroupFamily, cfg: VerifyConfig):
    records = fd_slope_records(
        cfg, fam, 0, ("generator.fd-forward-slope", "generator.fd-central-slope"),
        ("first-order quotient converges", "second-order quotient converges"))
    worst = exponential_bridge(fam, (0.1, 0.5), 4, cfg.dim)
    stone = check_stone_adjoint_relation(fam, cfg.dim)
    records += [
        _record(cfg, "generator.exponential-bridge",
                "exp(t Q) matches W(t) on low coefficients",
                worst, cfg.tol("expm_vs_semigroup")),
        _record(cfg, "generator.c-symmetry", "Q M = M Q^T",
                stone.c_symmetry_residual, cfg.tol("matrix_symmetry_exact")),
        _info("generator.adjoint-quotient", "adjoint family differentiates to Q^H",
              stone.adjoint_fd_residual),
    ]
    return records, {"family": fam.to_json()}, None


def _run_spectrum(spec: SpectrumSpec, cfg: VerifyConfig):
    fam, dim = spec.family, cfg.dim
    if spec.eta is not None:
        base = max(4, dim // 4)
        cert = check_empty_point_spectrum(fam, spec.eta, (base, 2 * base, 4 * base),
                                          cfg.tol("divergence_factor"))
        measured, threshold, direction = cert.verdict()
        records = [
            _record(cfg, f"spectrum.empty.divergence.eta={spec.eta}",
                    "candidate eigenfunction leaves the space",
                    measured, threshold, direction=direction,
                    detail=cert.summary()),
        ]
        return records, {"family": fam.to_json(),
                         "certificate": cert.to_json()}, None
    rep = spectrum_report(fam, spec.k_max, dim)
    records = [
        _record(cfg, "spectrum.eigen-residuals",
                "(z-G)^m exp(beta z) are eigenfunctions",
                float(np.max(rep.residuals)), cfg.tol("eigen_residual")),
        _info("spectrum.predicted-lattice", "eigenvalues H - ell beta G + k ell",
              float(np.max(np.abs(rep.predicted))),
              ", ".join(repr(complex(z)) for z in rep.predicted)),
    ]
    rows = [("m", "predicted_re", "predicted_im", "residual")]
    for m, (lam, r) in enumerate(zip(rep.predicted, rep.residuals)):
        rows.append((m, lam.real, lam.imag, float(r)))
    return records, {"family": fam.to_json(), "spectrum": rep.to_json()}, rows


def _run_evolution(spec: EvolutionSpec, cfg: VerifyConfig):
    B, s, t, rel_tol = spec.op, spec.s, spec.t, spec.rel_tol
    times = np.linspace(s, t, spec.samples)
    try:
        # the horizon is integrated twice: as the chain through the sample
        # times, whose last element is U(t, s), and split at r by the axioms,
        # so the composition law compares two paths that share no step
        series, _ = evolution_series(B, times, rel_tol)
        # linspace sets its endpoint exactly; one sample stops the chain at s
        U_ts = series[-1] if times[-1] == t else evolve(B, s, t, rel_tol).matrix
        ident, comp = check_evolution_axioms(B, (s, s + (t - s) / 2, t), U_ts, rel_tol)
        sym = check_matrix_c_symmetry(U_ts, np.eye(B.dim))
    except StiffnessError as exc:
        raise ScenarioError(spec.source, str(exc))
    records = [
        _record(cfg, "evolution.identity", "U(t, t) = identity", ident,
                cfg.tol("evolution_tol_factor") * rel_tol),
        _record(cfg, "evolution.composition", "U(t, r) U(r, s) = U(t, s)", comp,
                cfg.tol("evolution_tol_factor") * rel_tol),
        _info("evolution.transpose-symmetry", "U M = M U^T under plain conjugation",
              sym, "pass/fail asserted only for commuting families"),
    ]
    header = ["t"]
    for i in range(B.dim):
        for j in range(B.dim):
            header += [f"U{i}{j}_re", f"U{i}{j}_im"]
    # a complex matrix viewed as float64 interleaves re and im, as the header does
    rows = [header] + [[float(tk), *U.view(np.float64).ravel().tolist()]
                       for tk, U in zip(times, series)]
    payload = {"evolution": spec.meta, "s": s, "t": t, "rel_tol": rel_tol}
    return records, payload, rows


def _run_full_verify(seed: int | None, cfg: VerifyConfig):
    seed = cfg.seed if seed is None else seed
    return run_all(replace(cfg, seed=seed)), {"seed": seed}, None


# kind -> (parser, runner)
_KINDS: dict[str, tuple[Callable, Callable]] = {
    "conjugation-check": (_parse_conjugation, _run_conjugation),
    "wco": (_parse_wco, _run_wco),
    "semigroup": (_parse_semigroup, _run_semigroup),
    "generator": (_parse_family, _run_generator),
    "spectrum": (_parse_spectrum, _run_spectrum),
    "evolution": (_parse_evolution, _run_evolution),
    "full-verify": (_parse_full_verify, _run_full_verify),
}


# ----------------------------------------------------------------------------
# report assembly and output

def _print_records(records: Sequence[CheckRecord]) -> None:
    width = max((len(r.check_id) for r in records), default=0)
    for r in records:
        if math.isnan(r.threshold):
            bound = "-"
        else:
            bound = f"{r.direction} {r.threshold:g}"
        print(f"  {r.status.upper():4s}  {r.check_id:<{width}s}  "
              f"{r.measured:.6g} {bound}")
    n_fail = sum(r.status == "fail" for r in records)
    n_warn = sum(r.status == "warn" for r in records)
    n_info = sum(r.status == "info" for r in records)
    n_pass = sum(r.status == "pass" for r in records)
    print(f"  {n_pass} pass, {n_warn} warn, {n_info} info, {n_fail} fail")


def _resolve_output(output: dict, fallback_stem: str) -> tuple[Path, str]:
    fmt = output.get("format", "json")
    if "path" in output:
        return Path(output["path"]), fmt
    ext = "json" if fmt == "json" else "csv"
    return Path(default_output_dir()) / f"{fallback_stem}.{ext}", fmt


def _emit(report: dict, records: Sequence[CheckRecord],
          rows, output: dict, stem: str) -> Path:
    path, fmt = _resolve_output(output, stem)
    if fmt == "csv":
        if rows is None:
            rows = [("check_id", "anchor", "measured", "threshold",
                     "direction", "status")]
            rows += [(r.check_id, r.anchor, r.measured, r.threshold,
                      r.direction, r.status) for r in records]
        write_csv(str(path), [str(h) for h in rows[0]], rows[1:])
    else:
        write_json_report(str(path), report)
    return path


def _report(name: str, kind: str, cfg: VerifyConfig, output: dict,
            run: Callable[[], tuple]) -> int:
    """Run, write the report, print the records; the exit code (0 or 2)."""
    t0 = time.perf_counter()
    records, payload, rows = run()
    wall = time.perf_counter() - t0
    report = {
        "scenario": name,
        "records": [r.to_json() for r in records],
        "provenance": {
            "kind": kind,
            "parameters": payload,
            "truncation": {"dim": cfg.dim},
            "tolerances": dict(cfg.tolerances),
            "seed": cfg.seed,
            "wall_time_s": wall,
        },
    }
    path = _emit(report, records, rows, output, name.replace(" ", "-"))
    _print_records(records)
    print(f"report written to {path}  ({wall:.1f}s)")
    failed = [r.check_id for r in records if r.status == "fail"]
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 2
    return 0


def _flag_output(args, fmt: str) -> dict:
    return {"format": fmt, **({"path": args.out} if args.out else {})}


# ----------------------------------------------------------------------------
# subcommand handlers

def _cmd_validate(args) -> int:
    sc = validate_scenario(load_scenario(Path(args.scenario)))
    print(f"scenario valid: {sc.name} ({sc.kind})")
    return 0


def _cmd_run(args) -> int:
    sc = validate_scenario(load_scenario(Path(args.scenario)), args.seed)
    print(f"scenario: {sc.name} ({sc.kind})")
    _, run = _KINDS[sc.kind]
    return _report(sc.name, sc.kind, sc.cfg, sc.output, lambda: run(sc.spec, sc.cfg))


def _cmd_verify_all(args) -> int:
    cfg = _config("--dim", dim=args.dim, seed=args.seed)
    _check_suite_dim(cfg, "--dim")
    return _report("verify-all", "full-verify", cfg, _flag_output(args, "json"),
                   lambda: (run_all(cfg), {}, None))


def _cmd_spectrum(args) -> int:
    cfg = _config("--dim", dim=args.dim, seed=args.seed)
    family = {"variant": "dilation", "ell": complex_to_json(args.ell),
              "G": complex_to_json(args.G), "H": complex_to_json(args.H),
              "conjugation": {k: complex_to_json(getattr(args, k)) for k in "abc"}}
    spec = _parse_spectrum({"family": family, "k_max": args.k_max}, cfg)
    return _report("spectrum", "spectrum", cfg, _flag_output(args, args.format),
                   lambda: _run_spectrum(spec, cfg))


def _cmd_evolve(args) -> int:
    cfg = VerifyConfig(dim=2, seed=args.seed)
    spec = _parse_evolution({
        "B": "bagchi",
        "nu": args.nu,
        "kappa": args.kappa,
        "lam": args.lam,
        "s": args.s,
        "t": args.t,
        "rel_tol": args.rel_tol,
        "samples": args.samples,
    }, cfg)
    return _report("evolve", "evolution", cfg, _flag_output(args, "csv"),
                   lambda: _run_evolution(spec, cfg))


# ----------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        raise ScenarioError("arguments", message)


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=20260814,
                   help="seed for deterministic sample vectors")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="focksym",
                     description="truncated Fock-space semigroup verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario file without running")
    p.add_argument("scenario")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("run", help="execute a scenario file")
    p.add_argument("scenario")
    _add_seed(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("verify-all", help="run the complete check suite")
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--out", default=None, help="report path (default: output dir)")
    _add_seed(p)
    p.set_defaults(fn=_cmd_verify_all)

    p = sub.add_parser("spectrum", help="dilation point-spectrum report")
    p.add_argument("--ell", type=complex, default=1 + 0j,
                   help="complex values accepted as e.g. --ell=-1+0.5j")
    p.add_argument("--G", type=complex, default=1 + 0j)
    p.add_argument("--H", type=complex, default=0j)
    p.add_argument("--a", type=complex, default=1 + 0j)
    p.add_argument("--b", type=complex, default=0j)
    p.add_argument("--c", type=complex, default=1 + 0j)
    p.add_argument("--k-max", type=int, default=5)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    _add_seed(p)
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("evolve", help="two-level propagator time series (CSV)")
    p.add_argument("--nu", type=float, default=1.0)
    p.add_argument("--kappa", type=float, default=0.3)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--rel-tol", type=float, default=1e-10)
    p.add_argument("--samples", type=int, default=21)
    p.add_argument("--out", default=None)
    _add_seed(p)
    p.set_defaults(fn=_cmd_evolve)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ScenarioError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
