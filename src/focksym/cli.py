"""Scenario-driven command line: validate inputs, run checks, write reports.

Subcommands
    validate <scenario.json>              schema- and constraint-check only
    run <scenario.json> [--seed]          execute a scenario, write its report
    verify-all [--dim] [--seed] [--out]   the full check suite as one report (dim >= 8)
    spectrum [family flags] [--out]       dilation spectrum report front end
    evolve [model flags] [--out]          propagator time series as CSV

Each scenario kind is one function of its params and config.  It checks
the params, which is all that ``validate`` asks of it, and returns the
kind's run, which ``run`` calls.  So ``validate`` computes nothing: only the
run finds a truncation that overflows, an allocation the system refuses, a
stiff evolution or a family that leaves the double range.  A run applies
the record makers of :mod:`focksym.verification`, one per law, that
``verify-all`` runs over its fixtures, so both judge a case with the same
ids, grids and tolerances; it adds only its kind's info records, report
payload and CSV table, and the ``wco`` kind's ``wco.symbol-selfadjointness``,
whose law has no group yet.
Runs judge strictly: the below-64 ``warn`` downgrade applies to
``verify-all`` and the ``full-verify`` kind only.  Every report path is
checked before the run.

Exit codes: 0 every record passed (warn/info allowed), 1 input error,
2 at least one failed check.  Complex scalars in JSON are [re, im] pairs.

``main`` may be called repeatedly in one process: it builds its argument
parser on the first call and reuses it after.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import json
import math
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .conjugation import (
    ConjugationParams,
    ConstraintViolation,
    check_matrix_c_symmetry,
    conjugation_matrix,
)
from .evolution import StiffnessError, bagchi_hamiltonian, evolution_series
from .fock import monomial
from .generator import spectrum_report
from .semigroup import (
    GROWTH_T_GRID,
    DilationFamily,
    QuadratureError,
    SemigroupFamily,
    TranslationFamily,
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
    DEFAULT_TOLERANCES,
    MAX_COMPLEX_ENTRIES,
    SUITE_MIN_DIM,
    CheckRecord,
    VerifyConfig,
    _info,
    _record,
    conjugation_records,
    divergence_certificate,
    divergence_records,
    eigen_residual_dims,
    eigenfunction_records,
    evolution_axiom_records,
    exponential_bridge_records,
    exponential_column_records,
    fd_slope_records,
    flow_cocycle_records,
    isometry_residual,
    run_all,
    scaling_solver_records,
    semigroup_law_records,
    stone_symmetry_records,
)
from .wco import WCOParams, is_bounded, is_c_selfadjoint_symbols, wco_matrix

__all__ = ["main"]


# the input error of a size whose arrays the system refuses to allocate
_NO_MEMORY = "too large: its arrays do not fit in the memory available"


class ScenarioError(Exception):
    """Input validation failure; carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


# ----------------------------------------------------------------------------
# field extraction with path-carrying errors

def _get(obj: dict, path: str, key: str, typ: type, default: Any = ...) -> Any:
    here = f"{path}.{key}" if path else key
    if key not in obj:
        if default is not ...:
            return default
        raise ScenarioError(here, "missing required field")
    return _typed(obj[key], here, typ)


def _typed(val: Any, here: str, typ: type) -> Any:
    """val as a typ; a float or complex is finite, a bool is no number, and a
    complex is given as a number or an [re, im] pair."""
    if typ is complex:
        try:
            val = complex_from_json(val)
        except (TypeError, ValueError, IndexError):
            raise ScenarioError(here, "expected a number or an [re, im] pair")
        except OverflowError:
            raise ScenarioError(here, "integer too large for a float")
    elif isinstance(val, bool) and typ in (int, float):  # bool is an int subclass
        raise ScenarioError(here, f"expected {typ.__name__}, got bool")
    if typ is float and isinstance(val, int):
        try:
            val = float(val)
        except OverflowError:
            raise ScenarioError(here, "integer too large for a float")
    if not isinstance(val, typ):
        raise ScenarioError(here, f"expected {typ.__name__}, got {type(val).__name__}")
    if typ in (float, complex) and not cmath.isfinite(val):
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


def _conjugation_from(obj: dict, path: str) -> ConjugationParams:
    p = ConjugationParams(
        a=_get(obj, path, "a", complex, 1.0 + 0j),
        b=_get(obj, path, "b", complex, 0.0 + 0j),
        c=_get(obj, path, "c", complex, 1.0 + 0j),
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
                E=_get(obj, path, "E", complex),
                F=_get(obj, path, "F", complex, 0.0 + 0j),
                conj=conj,
            )
        if variant == "dilation":
            return DilationFamily(
                ell=_get(obj, path, "ell", complex),
                G=_get(obj, path, "G", complex, 0.0 + 0j),
                H=_get(obj, path, "H", complex, 0.0 + 0j),
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
    dim = _get(obj, path, "dim", int, VerifyConfig.dim)
    overrides = _get(obj, path, "tolerances", dict, {})
    tolerances = dict(DEFAULT_TOLERANCES)
    for key in overrides:
        if key not in tolerances:
            raise ScenarioError(f"{path}.tolerances.{key}", "unknown tolerance name")
        tolerances[key] = _get(overrides, f"{path}.tolerances", key, float)
    return _config(f"{path}.dim", dim=dim, seed=seed, tolerances=tolerances)


# ----------------------------------------------------------------------------
# scenario parsing: the kind checks its params and returns its run

# a kind's run gives (records, extra report payload, csv table): the table is
# (header, body), the body a 2-D float array or a list of rows, or None for
# the records themselves; a payload value that is a callable is called only
# for a JSON report, which alone writes the payload
Run = Callable[[], tuple]


@dataclass(frozen=True)
class Scenario:
    name: str
    kind: str
    run: Run
    cfg: VerifyConfig
    output: dict  # "format" and "path"


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
    """Parse and check a scenario, or raise ScenarioError naming the field.

    Nothing is computed but the checks: the scenario's ``run`` does the work,
    and raises the input errors that only the work can find.
    """
    name = _get(obj, "", "name", str)
    if not name:
        raise ScenarioError("name", "must not be empty")
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
    if "path" in output:
        path = _report_path(_get(output, "output", "path", str), "output.path")
    else:
        path = _report_path(_default_path(name, fmt), "name")
    if kind == "full-verify":  # the suite runs at, and the report records, its config
        cfg = _suite_config(params, cfg)
    return Scenario(name, kind, _KINDS[kind](params, cfg), cfg, {"format": fmt, "path": path})


def _conjugation_kind(params: dict, cfg: VerifyConfig) -> Run:
    p = _conjugation_from(params, "params")

    def run():
        op = conjugation_matrix(p, cfg.dim)
        records = conjugation_records(cfg, p, op)
        if p.b != 0:  # the isometry is truncation limited too: reported, not judged
            iso = isometry_residual(op, cfg.seed)
            records.append(_info("conjugation.isometry.residual",
                                 "<Cf,Cg> = <g,f> (truncation limited)", iso))
        payload = {"conjugation": p.to_json(), "diagonal": p.is_diagonal}
        return records, payload, None
    return run


def _wco_kind(params: dict, cfg: VerifyConfig) -> Run:
    p = WCOParams(
        A=_get(params, "params", "A", complex),
        B=_get(params, "params", "B", complex, 0.0 + 0j),
        C=_get(params, "params", "C", complex, 1.0 + 0j),
        D=_get(params, "params", "D", complex, 0.0 + 0j),
    )
    conj = _get(params, "params", "conjugation", dict, None)
    if conj is not None:
        conj = _conjugation_from(conj, "params.conjugation")

    def run():
        dim = cfg.dim
        M = wco_matrix(p, dim)
        if not np.all(np.isfinite(M)):  # an overflow is an input error
            # name the largest symbol entry, the one that drives the overflow
            key = max("ABCD", key=lambda k: abs(getattr(p, k)))
            raise ScenarioError(f"params.{key}", f"the truncated matrix overflows at dim {dim}")
        verdict = is_bounded(p)
        records = [
            _info("wco.bounded", "symbol criterion for boundedness",
                  1.0 if verdict.bounded else 0.0, verdict.reason),
        ]
        norms = [float(np.linalg.norm(M[:d, :d], 2)) for d in (dim // 2, dim)]
        records.append(_info("wco.truncated-norms", "plumbing", norms[-1],
                             f"2-norm at dim {dim//2}: {norms[0]!r}, dim {dim}: {norms[1]!r}"))
        payload: dict[str, Any] = {"wco": p.to_json()}
        if conj is not None:
            records.append(_record("wco.symbol-selfadjointness", "D = a B - b A + b",
                                   is_c_selfadjoint_symbols(p, conj.a, conj.b),
                                   cfg.tol("constraint")))
            payload["conjugation"] = conj.to_json()
        return records, payload, None
    return run


def _params_family(params: dict) -> SemigroupFamily:
    return _family_from(_get(params, "params", "family", dict), "params.family")


@contextlib.contextmanager
def _evaluating_family():
    """A family whose symbols leave the double range is the params.family input error.

    numpy's first overflow, invalid value or division by zero raises (underflow
    stays silent), as do the laws' own errors; code that expects an overflow
    silences it locally.
    """
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except (FloatingPointError, OverflowError, QuadratureError, ZeroDivisionError) as exc:
        raise ScenarioError("params.family", f"the family cannot be evaluated: {exc}")


def _semigroup_kind(params: dict, cfg: VerifyConfig) -> Run:
    fam = _params_family(params)
    omega = _get(params, "params", "omega", float, 0.0)  # weight of the growth curve
    if abs(omega) * GROWTH_T_GRID[-1] >= math.log(sys.float_info.max):
        raise ScenarioError("params.omega", f"exp(omega t) overflows on the probe grid "
                                            f"t <= {GROWTH_T_GRID[-1]:g}")

    def run():
        with _evaluating_family():
            records = (flow_cocycle_records(cfg, fam) + semigroup_law_records(cfg, fam)
                       + scaling_solver_records(cfg, fam))
            rep = n_omega_estimate(fam, monomial(0, cfg.dim), omega)
        records.append(_info("semigroup.bounded", "uniform boundedness criterion",
                             1.0 if fam.bounded else 0.0))
        records.append(_info("semigroup.growth", "sup_t e^{-omega t} ||W(t) 1||", rep.sup,
                             f"diverging={rep.diverging} argmax_t={rep.argmax_t!r}"))
        table = (("t", "norm", "weighted_norm"),
                 np.column_stack((GROWTH_T_GRID, rep.norms, rep.values)))
        payload = {"family": fam.to_json(), "growth": rep.to_json(), "omega": omega}
        return records, payload, table
    return run


def _generator_kind(params: dict, cfg: VerifyConfig) -> Run:
    fam = _params_family(params)

    def run():
        with _evaluating_family():
            records = (fd_slope_records(cfg, fam, (0,)) + exponential_bridge_records(cfg, fam)
                       + stone_symmetry_records(cfg, fam))
        return records, {"family": fam.to_json()}, None
    return run


def _spectrum_kind(params: dict, cfg: VerifyConfig) -> Run:
    fam = _params_family(params)
    k_max = _get_size(params, "params", "k_max", 5, 0)
    if isinstance(fam, TranslationFamily):  # a candidate eigenvalue's certificate
        eta = _get(params, "params", "eta", complex, 1 + 1j)

        def certify():
            with _evaluating_family():
                cert = divergence_certificate(cfg, fam, eta)
                return divergence_records(cfg, eta, cert), {
                    "family": fam.to_json(), "certificate": cert.to_json()}, None
        return certify
    if k_max >= cfg.dim:
        # a default k_max is not the user's input; the dim too small for it is
        path, what = (("params.k_max", f"must be below the dim {cfg.dim}") if "k_max" in params
                      else ("truncation.dim", f"must exceed the default k_max {k_max}"))
        raise ScenarioError(path, f"{what}: the eigenfunction (z-G)^k exp(beta z) holds z^k")

    def run():
        with _evaluating_family():  # residuals at the dim the suite judges them at
            rep = spectrum_report(fam, k_max, cfg.dim, eigen_residual_dims(cfg.dim)[-1:])
        records = eigenfunction_records(cfg, rep) + [
            _info("spectrum.predicted-lattice", "eigenvalues H - ell beta G + k ell",
                  float(np.max(np.abs(rep.predicted))),
                  ", ".join(repr(complex(z)) for z in rep.predicted)),
        ]
        rows = [(m, lam.real, lam.imag, float(r))
                for m, (lam, r) in enumerate(zip(rep.predicted, rep.residuals[-1]))]
        table = (("m", "predicted_re", "predicted_im", "residual"), rows)
        # deferred: only a JSON report writes the truncation's eigenvalues
        return records, {"family": fam.to_json(), "spectrum": rep.to_json}, table
    return run


_EVOLUTION_MODELS = ("bagchi", "constant", "table")


def _coefficient_fn(params: dict, key: str, default: float, span: tuple[float, float]
                    ) -> Callable[[np.ndarray], np.ndarray]:
    """params[key] as a function from an array of times to its values: a number,
    or {"cosine": {...}} whose argument is finite on span."""
    spec = params.get(key)
    if not (isinstance(spec, dict) and isinstance(spec.get("cosine"), dict)):
        v = _get(params, "params", key, float, default)
        return lambda ts: np.full(len(ts), v)
    path = f"params.{key}.cosine"
    amp = _get(spec["cosine"], path, "amplitude", float, 1.0)
    freq = _get(spec["cosine"], path, "frequency", float, 1.0)
    phase = _get(spec["cosine"], path, "phase", float, 0.0)
    for field, shift in (("frequency", 0.0), ("phase", phase)):
        # the argument is linear in t: its values at s and t bound it on the span
        if not all(math.isfinite(freq * x + shift) for x in span):
            raise ScenarioError(f"{path}.{field}", "the cosine argument overflows on [s, t]")
    return lambda ts: amp * np.cos(freq * ts + phase)


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


# A table knot is a break where the table bends by more than this many times
# rel_tol max|B|.  Its bend is the jump of its slope times its distance to
# the nearer knot (a second difference of the matrices, for equal spacing),
# and the slope is zero past the clamped ends; sizes are max-abs entries.
# Steps across a kink are less accurate than their error estimate says: on
# tables of 6 to 1001 knots at rel_tol 1e-8 to 1e-12, runs stepping across
# bends of up to 100 rel_tol max|B| kept evolution.composition within
# rel_tol, and runs across larger bends failed it, by up to 49 rel_tol, from
# about 2200 rel_tol max|B| on (BENCH_knots.json, "dense_tables").  A break
# costs at least about four steps, so a dense table that bends less is
# cheaper stepped across.
_BEND_PER_TOL = 100.0


def _evolution_operator_from(params: dict, span: tuple[float, float]
                             ) -> tuple[Callable[[Sequence[float]], np.ndarray],
                                        Callable[[float], list[float]], dict, str,
                                        np.ndarray | None]:
    """The coefficient ts -> stack of B(t), the map from the run's checked
    rel_tol to the times where B is not smooth, its report payload, the
    field path of its coefficients, named on stiffness or overflow, and the
    matrix of a constant coefficient: the constant model's, or the two-level
    model's when kappa and lam are numbers (None for the others).

    A table's breaks are its knots where it bends by more than
    ``_BEND_PER_TOL`` rel_tol max|B|, the end knots too, where the clamp to
    the end matrices is a kink; the other models are smooth.  The caller
    reads and checks rel_tol after the model's fields, so that their input
    errors are reported first, and hands it to the map."""
    model = _get(params, "params", "B", str)
    if model not in _EVOLUTION_MODELS:
        raise ScenarioError("params.B", f"expected one of {_EVOLUTION_MODELS}")
    if model == "bagchi":
        nu = _get(params, "params", "nu", float, 1.0)
        kappa = _coefficient_fn(params, "kappa", 0.0, span)
        lam = _coefficient_fn(params, "lam", 1.0, span)
        B = bagchi_hamiltonian(nu, kappa, lam)
        # numbers for both kappa and lam make B constant, its matrix B(s)
        constant = not any(isinstance(params.get(key), dict) for key in ("kappa", "lam"))
        return (B, lambda rel_tol: [], {"model": "bagchi", "dim": 2, "nu": nu}, "params.B",
                B([span[0]])[0] if constant else None)
    if model == "constant":
        M = _matrix_from(_get(params, "params", "matrix", list), "params.matrix")
        # one matrix for every time: a zero-stride view, not a copy
        return (lambda ts: np.broadcast_to(M, (len(ts), *M.shape)), lambda rel_tol: [],
                {"model": "constant", "dim": M.shape[0]}, "params.matrix", M)
    times = _get(params, "params", "times", list)
    mats = _get(params, "params", "matrices", list)
    if len(times) != len(mats) or len(times) < 2:
        raise ScenarioError("params.times",
                            "need >= 2 sample times matching 'matrices'")
    ts = np.array([_typed(x, f"params.times[{i}]", float) for i, x in enumerate(times)])
    # no gap overflows when the widest does not (Python floats overflow quietly)
    if not math.isfinite(float(ts.max()) - float(ts.min())):
        raise ScenarioError("params.times", "the spacing of the knots overflows")
    if np.any(np.diff(ts) <= 0):
        raise ScenarioError("params.times", "must be strictly increasing")
    blocks = [_matrix_from(m, f"params.matrices[{i}]") for i, m in enumerate(mats)]
    for i, M in enumerate(blocks):
        if M.shape != blocks[0].shape:
            raise ScenarioError(f"params.matrices[{i}]",
                                f"shape {M.shape} differs from {blocks[0].shape} of matrices[0]")
    stack = np.stack(blocks)

    def eval_b(at: Sequence[float]) -> np.ndarray:
        # piecewise-linear interpolation, clamped at the ends to the end matrices;
        # the clamped times keep the weight in [0, 1] however small a gap is
        at = np.asarray(at, dtype=float)
        clamped = np.clip(at, ts[0], ts[-1])
        # among the inner knots: bisect_left(ts, t) - 1 where ts[0] < t <= ts[-1]
        j = np.searchsorted(ts[1:-1], clamped)
        w = ((clamped - ts[j]) / (ts[j + 1] - ts[j]))[:, None, None]
        out = (1 - w) * stack[j] + w * stack[j + 1]
        # the end matrices written over, so that a -0.0 cell keeps its sign
        out[at <= ts[0]] = stack[0]
        out[at >= ts[-1]] = stack[-1]
        return out

    gaps = np.diff(ts)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing bend is a break
        slopes = np.diff(stack, axis=0) / gaps[:, None, None]
        flat = np.zeros((1, *stack.shape[1:]))
        jumps = np.diff(np.concatenate((flat, slopes, flat)), axis=0)
        nearer = np.minimum(np.append(np.inf, gaps), np.append(gaps, np.inf))
        bends = np.abs(jumps).max(axis=(1, 2)) * nearer
    scale = float(np.abs(stack).max())  # a Python float: the bound overflows to inf quietly
    meta = {"model": "table", "dim": stack.shape[1], "samples": len(times)}
    return (eval_b, lambda rel_tol: ts[~(bends <= _BEND_PER_TOL * rel_tol * scale)].tolist(),
            meta, "params.matrices", None)


def _evolution_kind(params: dict, cfg: VerifyConfig) -> Run:
    s = _get(params, "params", "s", float, 0.0)
    t = _get(params, "params", "t", float, 1.0)
    if t < s:
        raise ScenarioError("params.t", "need t >= s")
    if not math.isfinite(t - s):  # the sample times would overflow
        raise ScenarioError("params.t", "t - s must be a finite number")
    B, breaks_at, meta, source, M = _evolution_operator_from(params, (s, t))
    rel_tol = _get(params, "params", "rel_tol", float, 1e-10)
    if rel_tol <= 0:
        raise ScenarioError("params.rel_tol", "must be positive")
    breaks = breaks_at(rel_tol)
    samples = _get_size(params, "params", "samples", 21, 1)

    def run():
        try:
            times, series, axioms = evolution_series(B, (s, t), samples, rel_tol, breaks, M)
            U_ts = axioms[3]
            records = evolution_axiom_records(cfg, axioms[:3], U_ts, rel_tol, t - s)
            records.append(_info("evolution.transpose-symmetry",
                                 "U M = M U^T under plain conjugation",
                                 check_matrix_c_symmetry(U_ts, np.eye(len(U_ts))),
                                 "pass/fail asserted only for commuting families"))
            if M is not None:  # a constant coefficient's U(t, s) is its exponential
                records += exponential_column_records(cfg, M, U_ts, t - s, rel_tol,
                                                      max(1, samples - 1))
            n = series.shape[-1]
            header = ["t"] + [f"U{i}_{j}_{part}" for i in range(n) for j in range(n)
                              for part in ("re", "im")]
            # a complex matrix viewed as float64 interleaves re and im, as the header does
            entries = series.reshape(len(times), -1).view(np.float64)
            table = (header, np.column_stack((times, entries)))
        except (StiffnessError, OverflowError) as exc:
            raise ScenarioError(source, str(exc))
        except MemoryError:  # the sample times and the series grow with the samples
            raise ScenarioError("params.samples", _NO_MEMORY)
        payload = {"evolution": meta, "s": s, "t": t, "rel_tol": rel_tol}
        return records, payload, table
    return run


def _check_suite_dim(cfg: VerifyConfig, path: str) -> None:
    if cfg.dim < SUITE_MIN_DIM:
        raise ScenarioError(path, f"the full check suite needs dim >= {SUITE_MIN_DIM}, "
                                  f"got {cfg.dim}")


def _suite_config(params: dict, cfg: VerifyConfig) -> VerifyConfig:
    """The config the suite runs at, and the report records: at params.seed if given."""
    _check_suite_dim(cfg, "truncation.dim")
    seed = _get(params, "params", "seed", int, None)
    if seed is not None and seed < 0:
        raise ScenarioError("params.seed", "seed must be >= 0")
    return cfg if seed is None else replace(cfg, seed=seed)


def _full_verify_kind(params: dict, cfg: VerifyConfig) -> Run:
    """The suite at cfg, which validate_scenario took from _suite_config."""
    return lambda: (run_all(cfg), {"seed": cfg.seed}, None)


_KINDS: dict[str, Callable[[dict, VerifyConfig], Run]] = {
    "conjugation-check": _conjugation_kind,
    "wco": _wco_kind,
    "semigroup": _semigroup_kind,
    "generator": _generator_kind,
    "spectrum": _spectrum_kind,
    "evolution": _evolution_kind,
    "full-verify": _full_verify_kind,
}


# ----------------------------------------------------------------------------
# report assembly and output

def _print_records(records: Sequence[CheckRecord]) -> None:
    width = max((len(r.check_id) for r in records), default=0)
    for r in records:
        bound = "-" if math.isnan(r.threshold) else f"{r.direction} {r.threshold:g}"
        print(f"  {r.status.upper():4s}  {r.check_id:<{width}s}  {r.measured:.6g} {bound}")
    n = Counter(r.status for r in records)
    print(f"  {n['pass']} pass, {n['warn']} warn, {n['info']} info, {n['fail']} fail")


def _emit(report: dict, records: Sequence[CheckRecord], table, output: dict) -> str:
    path = output["path"]
    if output["format"] == "csv":
        header, body = table or (
            ("check_id", "anchor", "measured", "threshold", "direction", "status"),
            [(r.check_id, r.anchor, r.measured, r.threshold, r.direction, r.status)
             for r in records])
        write_csv(path, header, body)
    else:
        write_json_report(path, report)
    return path


def _report(name: str, kind: str, cfg: VerifyConfig, output: dict, run: Run) -> int:
    """Run, write the report, print the records; the exit code (0 or 2)."""
    t0 = time.perf_counter()
    try:
        records, payload, table = run()
        if output["format"] == "json":  # a payload entry may be deferred as a callable
            payload = {key: value() if callable(value) else value
                       for key, value in payload.items()}
    except MemoryError:  # a run's arrays grow with its dim, unless it names its own field
        raise ScenarioError("truncation.dim", _NO_MEMORY)
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
    path = _emit(report, records, table, output)
    _print_records(records)
    print(f"report written to {path}  ({wall:.1f}s)")
    failed = [r.check_id for r in records if r.status == "fail"]
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 2
    return 0


def _default_path(name: str, fmt: str) -> str:
    """<output dir>/<name, its spaces made dashes>.<fmt>, where a report goes by default."""
    return os.path.join(default_output_dir(), f"{name.replace(' ', '-')}.{fmt}")


def _report_path(path: str, field: str) -> str:
    """The report path, checked before the run: no report can replace a directory,
    none can be written below a file, and the file system can hold its names."""
    if "\0" in path:
        raise ScenarioError(field, "must not contain a NUL byte")
    report = Path(path)
    try:
        if report.is_dir():
            raise ScenarioError(field, f"{path!r} is a directory, not a report file")
        names, parent = [report.name], report.absolute().parent
        while not parent.exists():  # the missing directories are made on writing
            names.append(parent.name)
            parent = parent.parent
        if not parent.is_dir():
            raise ScenarioError(field, f"{str(parent)!r} is a file, not a directory")
        most = os.pathconf(parent, "PC_NAME_MAX")
    except OSError as exc:
        raise ScenarioError(field, f"cannot be checked as a report path: {exc.strerror}")
    for part in map(os.fsencode, names):
        if len(part) > most:
            raise ScenarioError(field, f"a name of {len(part)} bytes in the report path "
                                       f"exceeds the file system's limit of {most}")
    return str(report)


def _flag_output(args, fmt: str, name: str) -> dict:
    return {"format": fmt, "path": _report_path(args.out or _default_path(name, fmt), "--out")}


# ----------------------------------------------------------------------------
# subcommand handlers

def _cmd_validate(args) -> int:
    sc = validate_scenario(load_scenario(Path(args.scenario)))
    print(f"scenario valid: {sc.name} ({sc.kind})")
    return 0


def _cmd_run(args) -> int:
    sc = validate_scenario(load_scenario(Path(args.scenario)), args.seed)
    print(f"scenario: {sc.name} ({sc.kind})")
    return _report(sc.name, sc.kind, sc.cfg, sc.output, sc.run)


def _cmd_verify_all(args) -> int:
    cfg = _config("--dim", dim=args.dim, seed=args.seed)
    _check_suite_dim(cfg, "--dim")
    with _naming_flags():
        return _report("verify-all", "full-verify", cfg,
                       _flag_output(args, "json", "verify-all"), lambda: (run_all(cfg), {}, None))


@contextlib.contextmanager
def _naming_flags(**combined: str):
    """An input error on a params field, named by the flag it came from.

    The field ``params.….x`` came from ``--x`` (underscores read as dashes),
    and ``truncation.dim`` from ``--dim``; ``combined`` names the flags behind
    a field that several flags fill.
    """
    try:
        yield
    except ScenarioError as exc:
        if exc.path == "truncation.dim":
            flag = "--dim"
        elif exc.path.startswith("params."):
            field = exc.path.rsplit(".", 1)[-1]
            flag = combined.get(field, "--" + field.replace("_", "-"))
        else:
            raise
        raise ScenarioError(flag, exc.message) from None


def _cmd_spectrum(args) -> int:
    cfg = _config("--dim", dim=args.dim)
    family = {"variant": "dilation", "ell": complex_to_json(args.ell),
              "G": complex_to_json(args.G), "H": complex_to_json(args.H),
              "conjugation": {k: complex_to_json(getattr(args, k)) for k in "abc"}}
    with _naming_flags(family="--ell/--G/--H"):
        k_max = {} if args.k_max is None else {"k_max": args.k_max}
        run = _KINDS["spectrum"]({"family": family, **k_max}, cfg)
        return _report("spectrum", "spectrum", cfg,
                       _flag_output(args, args.format, "spectrum"), run)


def _cmd_evolve(args) -> int:
    cfg = VerifyConfig(dim=2)
    with _naming_flags(B="--nu/--kappa/--lam"):
        run = _KINDS["evolution"]({
            "B": "bagchi",
            "nu": args.nu,
            "kappa": args.kappa,
            "lam": args.lam,
            "s": args.s,
            "t": args.t,
            "rel_tol": args.rel_tol,
            "samples": args.samples,
        }, cfg)
        return _report("evolve", "evolution", cfg, _flag_output(args, "csv", "evolve"), run)


# ----------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        raise ScenarioError("arguments", message)


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=VerifyConfig.seed,
                   help="seed for deterministic sample vectors")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call to main.

    It depends on no input; its subcommand handlers are bound when it is built.
    """
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
    p.add_argument("--dim", type=int, default=VerifyConfig.dim)
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
    p.add_argument("--k-max", type=int, default=None, help="highest eigenfunction degree "
                   "(default 5)")
    p.add_argument("--dim", type=int, default=VerifyConfig.dim)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
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
