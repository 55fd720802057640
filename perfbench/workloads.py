"""Seeded inputs for the three workloads.

Every workload is a list of operations, each one CLI invocation of focksym
made in-process through ``focksym.cli.main``.  Inputs depend only on the
workload name, the seed and the round number, so the same seed gives the same
files.  Each round of a workload has the same make-up (kinds, dims, output
formats, horizons, sample counts); the seed draws the parameters, so costs
barely move between seeds while an operator is seldom built twice.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# Seed-independent CLI seed of the verify-64 pass: the suite as users run it.
VERIFY_SEED = 20260814

# Nominal cost of one round at the reference machine; a run makes
# max(1, round(seconds / nominal)) rounds, so the work in a run is fixed by
# the arguments alone and never by how fast the machine happens to be.
ROUND_NOMINAL_S = {"scenario-sweep": 6.5, "evolution-series": 6.5}

WORKLOADS = ("verify-64", "scenario-sweep", "evolution-series")


@dataclass
class Op:
    """One CLI invocation and what its outcome must be."""

    label: str
    argv: list[str]
    report: Path  # where the report or CSV lands
    kind: str  # scenario kind, or the subcommand for direct invocations
    params: dict = field(default_factory=dict)
    dim: int = 0
    fmt: str = "json"
    expect_exit: int = 0
    known_fault: str = ""  # non-empty: the fault this operation exercises


def _cx(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _phase(rng: random.Random) -> complex:
    return cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def _disc(rng: random.Random, lo: float, hi: float) -> complex:
    """Complex number with modulus in [lo, hi] and uniform argument."""
    return rng.uniform(lo, hi) * _phase(rng)


def _conj_diagonal(rng: random.Random) -> dict:
    return {"a": _cx(_phase(rng)), "b": 0.0, "c": _cx(_phase(rng))}


def _conj_offset(rng: random.Random, r_lo: float, r_hi: float) -> dict:
    # |a| = 1, conj(a) b + conj(b) = 0 and |c|^2 exp(|b|^2) = 1
    theta = rng.uniform(0.0, 2.0 * math.pi)
    r = rng.uniform(r_lo, r_hi)
    a = cmath.exp(1j * theta)
    b = r * cmath.exp(1j * (theta + math.pi) / 2)
    c = math.exp(-r * r / 2) * _phase(rng)
    return {"a": _cx(a), "b": _cx(b), "c": _cx(c)}


def _translation(rng: random.Random) -> dict:
    return {"variant": "translation", "E": _cx(_disc(rng, 0.4, 0.8)),
            "F": _cx(_disc(rng, 0.0, 0.3)), "conjugation": _conj_diagonal(rng)}


def _dilation(rng: random.Random) -> dict:
    ell = complex(-rng.uniform(0.3, 1.0), rng.uniform(-0.8, 0.8))
    return {"variant": "dilation", "ell": _cx(ell), "G": _cx(_disc(rng, 0.2, 0.6)),
            "H": _cx(_disc(rng, 0.0, 0.3)), "conjugation": _conj_diagonal(rng)}


# ---------------------------------------------------------------------------
# scenario-sweep

def _wco_params(rng: random.Random) -> dict:
    conj = _conj_diagonal(rng) if rng.random() < 0.5 else _conj_offset(rng, 0.5, 1.0)
    a, b = (complex(*v) if isinstance(v, list) else complex(v)
            for v in (conj["a"], conj["b"]))
    A = _disc(rng, 0.3, 1.1)
    B = _disc(rng, 0.0, 0.8)
    D = a * B - b * A + b  # symbol relation of a C-selfadjoint operator
    return {"A": _cx(A), "B": _cx(B), "C": _cx(_disc(rng, 0.5, 1.5)), "D": _cx(D),
            "conjugation": conj}


def _offset(rng):
    return _conj_offset(rng, 0.8, 1.4)


def _semigroup(family):
    return lambda rng: {"family": family(rng), "omega": rng.uniform(0.0, 1.0)}


def _spectrum(rng):
    return {"family": _dilation(rng), "k_max": rng.randint(3, 5)}


def _generator(family):
    return lambda rng: {"family": family(rng)}


# (kind, dim, output format, parameter maker); one round runs every slot.
# Twenty-four light slots of near-equal cost (CLI, validation and report
# writing dominate them), run twice with fresh parameters, hold the median
# operation, so op_p50_s follows the typical light scenario; the heavy slots,
# above all the semigroup one at dim 128, dominate wall_s.  A light operation
# takes 4-10 ms and its time, even corrected for the machine's speed, moves by
# 10-25 % from one call to the next, so the median needs many of them.
_LIGHT_SLOTS = (
    *(("conjugation-check", d, f, _conj_diagonal) for d, f in
      ((32, "json"), (40, "csv"), (48, "json"), (56, "csv"), (64, "json"), (64, "csv"))),
    *(("conjugation-check", d, f, _offset) for d, f in
      ((32, "json"), (36, "csv"), (40, "json"), (48, "csv"))),
    *(("spectrum", d, f, _spectrum) for d, f in
      ((48, "json"), (52, "csv"), (56, "json"), (60, "csv"), (64, "json"), (64, "csv"),
       (72, "json"), (80, "csv"))),
    *(("wco", d, f, _wco_params) for d, f in
      ((32, "json"), (36, "csv"), (40, "json"), (44, "csv"), (48, "json"), (56, "csv"))),
)
_SWEEP_SLOTS = (
    *_LIGHT_SLOTS,
    *_LIGHT_SLOTS,
    ("conjugation-check", 128, "json", _conj_diagonal),
    ("conjugation-check", 64, "csv", _offset),
    ("wco", 64, "csv", _wco_params),
    ("wco", 128, "json", _wco_params),
    ("spectrum", 128, "json", _spectrum),
    ("semigroup", 32, "csv", _semigroup(_translation)),
    ("semigroup", 64, "json", _semigroup(_dilation)),
    ("semigroup", 128, "csv", _semigroup(_translation)),
    ("generator", 32, "json", _generator(_translation)),
    ("generator", 64, "csv", _generator(_dilation)),
    ("generator", 128, "json", _generator(_translation)),
    ("evolution", 2, "csv", lambda rng: _bagchi_cosine(rng, 1.0, 11)),
    ("evolution", 32, "csv", lambda rng: _constant_model(rng, 32, 2.0, 11)),
)

# Malformed or mis-judged inputs with a known fault; fixed, not seeded.
# Malformed scenarios must exit 1 naming a field path; the offset conjugation
# at dim 96 is valid and must exit 0.
_KNOWN_FAULTS = (
    ("rel_tol-zero", "evolution", 2, "csv",
     {"B": "bagchi", "rel_tol": 0, "t": 1.0, "samples": 5}, 1),
    ("omega-not-a-number", "semigroup", 32, "json",
     {"family": {"variant": "translation", "E": 1.0}, "omega": "x"}, 1),
    ("A-overflow", "wco", 32, "json", {"A": 1e300}, 1),
    ("table-shape-mismatch", "evolution", 2, "csv",
     {"B": "table", "times": [0.0, 1.0], "matrices": [[[1.0]], [[1.0, 0.0], [0.0, 1.0]]]}, 1),
    ("stiff-constant", "evolution", 2, "csv",
     {"B": "constant", "matrix": [[1e13]], "t": 1.0, "samples": 3}, 1),
    ("offset-involution-decay-d96", "conjugation-check", 96, "json",
     {"a": 1.0, "b": [0.0, 1.0], "c": math.exp(-0.5)}, 0),
)


def _scenario_op(workdir: Path, outdir: Path, label: str, kind: str, dim: int,
                 fmt: str, params: dict, cli_seed: int, expect_exit: int = 0,
                 known_fault: str = "") -> Op:
    scenario = {"name": label, "kind": kind, "params": params,
                "truncation": {"dim": dim}, "output": {"format": fmt}}
    path = workdir / f"{label}.json"
    path.write_text(json.dumps(scenario))
    report = outdir / f"{label}.{fmt}"
    return Op(label, ["run", str(path), "--seed", str(cli_seed)], report, kind,
              params, dim, fmt, expect_exit, known_fault)


# `validate` invocations per round: schema and constraint checks of the
# round's heavier scenario files, the cheapest CLI operation users make.
_SWEEP_VALIDATE = 12


def sweep_round(seed: int, rnd: int, workdir: Path, outdir: Path, tag: str = "r") -> list[Op]:
    rng = random.Random(f"scenario-sweep:{seed}:{tag}:{rnd}")
    ops = []
    for i, (kind, dim, fmt, make) in enumerate(_SWEEP_SLOTS):
        label = f"{tag}{rnd}-{i:02d}-{kind}-d{dim}"
        ops.append(_scenario_op(workdir, outdir, label, kind, dim, fmt, make(rng),
                                rng.randrange(1 << 31)))
    for op in ops[-_SWEEP_VALIDATE:]:
        ops.append(Op(f"{op.label}-validate", ["validate", op.argv[1]], op.report,
                      "validate"))
    for name, kind, dim, fmt, params, code in _KNOWN_FAULTS:
        label = f"{tag}{rnd}-fault-{name}"
        ops.append(_scenario_op(workdir, outdir, label, kind, dim, fmt, params,
                                VERIFY_SEED, code, name))
    return ops


# Warm-up slots: every kind once at small dims; no operator shared with the
# timed slots, which start at dim 32.
_SWEEP_WARMUP = (
    ("conjugation-check", 12, "json", lambda r: _conj_offset(r, 0.5, 0.8)),
    ("conjugation-check", 16, "csv", _conj_diagonal),
    ("wco", 10, "csv", _wco_params),
    ("wco", 20, "json", _wco_params),
    ("semigroup", 16, "csv", _semigroup(_translation)),
    ("semigroup", 20, "json", _semigroup(_dilation)),
    ("generator", 12, "json", _generator(_translation)),
    ("generator", 24, "csv", _generator(_dilation)),
    ("spectrum", 24, "csv", _spectrum),
    ("evolution", 2, "csv", lambda r: _bagchi_cosine(r, 0.5, 5)),
    ("evolution", 8, "json", lambda r: _constant_model(r, 8, 0.5, 5)),
)


def sweep_warmup(seed: int, rep: int, workdir: Path, outdir: Path) -> list[Op]:
    rng = random.Random(f"scenario-sweep-warmup:{seed}:{rep}")
    return [_scenario_op(workdir, outdir, f"w{rep}-{i}-{kind}", kind, dim, fmt,
                         make(rng), rng.randrange(1 << 31))
            for i, (kind, dim, fmt, make) in enumerate(_SWEEP_WARMUP)]


# ---------------------------------------------------------------------------
# evolution-series

_MU = 0.8  # fixed splitting sqrt(lam^2 - kappa^2) of the constant two-level model


def _bagchi_constant(rng: random.Random) -> tuple[float, float, float]:
    kappa = rng.uniform(0.1, 0.5)
    return 1.0, kappa, math.sqrt(_MU * _MU + kappa * kappa)


def _bagchi_cosine(rng: random.Random, t: float, samples: int) -> dict:
    def cosine(amp: float, freq: float) -> dict:
        return {"cosine": {"amplitude": amp, "frequency": freq,
                           "phase": rng.uniform(0.0, 2.0 * math.pi)}}

    return {"B": "bagchi", "nu": 1.0, "kappa": cosine(0.4, 1.3),
            "lam": cosine(1.0, 0.7), "s": 0.0, "t": t, "samples": samples}


def _orthogonal(rng: random.Random, n: int):
    import numpy as np

    g = np.random.default_rng(rng.randrange(1 << 63)).standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def constant_spectrum(n: int):
    """Fixed eigenvalues of the constant models: oscillation with damping."""
    import numpy as np

    return np.linspace(-1.0, 1.0, n) - 1j * np.linspace(0.0, 0.3, n)


def _constant_model(rng: random.Random, n: int, t: float, samples: int) -> dict:
    # B = -i O diag(spectrum) O^T with O drawn once per dim: complex symmetric.
    # The seed applies a signed permutation S P to the basis (B -> S P B P^T S);
    # the propagator's steps and rounding do not depend on it, so the seed
    # changes the input but neither the work nor the oracle's reading.
    import numpy as np

    O = _orthogonal(random.Random(f"constant-model:{n}"), n)
    B = -1j * (O * constant_spectrum(n)) @ O.T
    perm = list(range(n))
    rng.shuffle(perm)
    signs = np.array([rng.choice((-1.0, 1.0)) for _ in range(n)])
    B = signs[:, None] * B[np.ix_(perm, perm)] * signs[None, :]
    return {"B": "constant", "matrix": [[_cx(z) for z in row] for row in B],
            "s": 0.0, "t": t, "samples": samples}


def _table_model(rng: random.Random, n: int, knots: int, t: float, samples: int) -> dict:
    # each knot: the fixed spectrum in a seeded basis, so the step count
    # barely moves between seeds
    mats = []
    for _ in range(knots):
        O = _orthogonal(rng, n)
        mats.append([[_cx(z) for z in row] for row in -1j * (O * constant_spectrum(n)) @ O.T])
    return {"B": "table", "times": [t * i / (knots - 1) for i in range(knots)],
            "matrices": mats, "s": 0.0, "t": t, "samples": samples}


_EVOLUTION_T = 5.0

# (label, dim, model maker, samples); the evolve subcommand comes first.
# Sample counts give each operation about the same cost, so the median one
# is steady; every sample is one propagator U(t_k, s).
_EVOLUTION_MODELS = (
    ("bagchi-cosine", 2, _bagchi_cosine, 35),
    ("constant-d16", 16, lambda rng, t, n: _constant_model(rng, 16, t, n), 85),
    ("constant-d32", 32, lambda rng, t, n: _constant_model(rng, 32, t, n), 43),
    ("table-d3", 3, lambda rng, t, n: _table_model(rng, 3, 6, t, n), 37),
)
_EVOLVE_SAMPLES = 35


def evolution_round(seed: int, rnd: int, workdir: Path, outdir: Path, tag: str = "r",
                    horizon: float = _EVOLUTION_T, fraction: float = 1.0) -> list[Op]:
    rng = random.Random(f"evolution-series:{seed}:{tag}:{rnd}")
    ops = []
    nu, kappa, lam = _bagchi_constant(rng)
    label = f"{tag}{rnd}-00-evolve"
    out = outdir / f"{label}.csv"
    samples = max(2, round(_EVOLVE_SAMPLES * fraction))
    argv = ["evolve", "--nu", repr(nu), "--kappa", repr(kappa), "--lam", repr(lam),
            "--t", repr(horizon), "--samples", str(samples), "--out", str(out)]
    ops.append(Op(label, argv, out, "evolve",
                  {"B": "bagchi", "nu": nu, "kappa": kappa, "lam": lam, "s": 0.0,
                   "t": horizon, "samples": samples}, 2, "csv"))
    for i, (name, dim, make, n) in enumerate(_EVOLUTION_MODELS, start=1):
        params = make(rng, horizon, max(2, round(n * fraction)))
        ops.append(_scenario_op(workdir, outdir, f"{tag}{rnd}-{i:02d}-{name}", "evolution",
                                dim, "csv", params, rng.randrange(1 << 31)))
    return ops


def evolution_warmup(seed: int, rep: int, workdir: Path, outdir: Path) -> list[Op]:
    # short horizon and few samples: every model once, no shared operator
    return evolution_round(seed, rep, workdir, outdir, tag="w", horizon=0.5, fraction=0.2)


# ---------------------------------------------------------------------------
# verify-64

def verify_ops(outdir: Path) -> list[Op]:
    out = outdir / "verify-all-64.json"
    return [Op("verify-all-d64", ["verify-all", "--dim", "64", "--seed", str(VERIFY_SEED),
                                  "--out", str(out)], out, "verify-all", dim=64)]


def verify_warmup(seed: int, rep: int, outdir: Path) -> list[Op]:
    # dim 8 runs every group on operators of dims 2..16 only; its records may
    # warn, so its outcome is not judged
    out = outdir / f"warmup-{rep}.json"
    return [Op(f"w{rep}-verify-all-d8", ["verify-all", "--dim", "8", "--seed",
                                         str(seed * 8 + rep), "--out", str(out)],
               out, "verify-all", dim=8, expect_exit=-1)]


def rounds_for(workload: str, seconds: int) -> int:
    if workload == "verify-64":
        return 1  # one pass per process: users pay for each verify-all
    return max(1, round(seconds / ROUND_NOMINAL_S[workload]))


def timed_ops(workload: str, seed: int, seconds: int, workdir: Path, outdir: Path) -> list[Op]:
    if workload == "verify-64":
        return verify_ops(outdir)
    make = sweep_round if workload == "scenario-sweep" else evolution_round
    ops: list[Op] = []
    for rnd in range(rounds_for(workload, seconds)):
        ops.extend(make(seed, rnd, workdir, outdir))
    return ops


def warmup_ops(workload: str, seed: int, rep: int, workdir: Path, outdir: Path) -> list[Op]:
    if workload == "verify-64":
        return verify_warmup(seed, rep, outdir)
    if workload == "scenario-sweep":
        return sweep_warmup(seed, rep, workdir, outdir)
    return evolution_warmup(seed, rep, workdir, outdir)
