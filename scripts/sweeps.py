#!/usr/bin/env python3
"""Sweeps of one measured quantity over the truncation or over omega, one subcommand each.

- ``entries``: the largest entry error of ``wco_matrix`` against the
  30-digit closed-form entry sum, per dim.
- ``kernels``: the residual of the weighted-composition matrices on
  reproducing kernels, per symbol and dim.
- ``involution``: how fast the offset conjugation becomes an involution as
  the truncation grows.
- ``growth``: sup_t e^{-omega t} ||W(t) e_0|| of a semigroup family, per
  omega.
- ``dims``: ``focksym verify-all --seed 7`` across dims, as JSON.

Each subcommand's docstring says what it prints.  The first four print a
table, one row per case, and with ``--out`` write the same rows to a CSV
through one writer (``focksym.serialize.write_csv``); ``dims`` prints JSON
only.  This module also holds the 30-digit entry-sum oracle of the
assemblies (:data:`OFFSET_SYMBOL`, :func:`mpmath_matrix`,
:func:`max_entry_error`), which ``layer_cost.py wco`` and the tests import.

Usage:
    python scripts/sweeps.py entries --dims 16 32 64 128 --out accuracy.csv
    python scripts/sweeps.py kernels --dims 64 128 256 512 --out kernels.csv
    python scripts/sweeps.py involution --dims 8 16 24 32 48 64 96 --out decay.csv
    python scripts/sweeps.py growth --family dilation --ell=-1 --G 1 \
        --omegas 0 0.5 1 2 --dim 64 --out sweep.csv
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/sweeps.py dims --dims 241 256
"""

import argparse
import cmath
import functools
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import mpmath
import numpy as np

from focksym.conjugation import (ConjugationParams, check_involution, conjugation_matrix,
                                 standard_conjugation)
from focksym.fock import kernel_vector, monomial
from focksym.semigroup import (GROWTH_T_GRID, DilationFamily, TranslationFamily, family_eval,
                               growth_report, growth_values)
from focksym.serialize import write_csv
from focksym.verification import _LAW_FAMILIES
from focksym.wco import WCOParams, is_bounded, wco_matrix

# ----------------------------------------------------------------------------
# entries: the 30-digit entry-sum oracle

OFFSET_SYMBOL = WCOParams(A=1.0, B=1j, C=math.exp(-0.5), D=1j)


def mpmath_matrix(p: WCOParams, dim: int, dps: int = 30) -> np.ndarray:
    """The closed-form entry sum in ``dps``-digit arithmetic, rounded at the end."""
    with mpmath.workdps(dps):
        A, B, C, D = (mpmath.mpc(complex(z)) for z in (p.A, p.B, p.C, p.D))
        fact = [mpmath.factorial(n) for n in range(dim)]
        sqf = [mpmath.sqrt(f) for f in fact]
        dterm = [D**m / fact[m] for m in range(dim)]
        M = np.empty((dim, dim), dtype=complex)
        for k in range(dim):
            binom = [mpmath.binomial(k, j) * A**j * B ** (k - j) for j in range(k + 1)]
            for n in range(dim):
                top = min(n, k) + 1
                s = mpmath.fdot(binom[:top], dterm[n::-1][:top])
                M[n, k] = complex(C * sqf[n] / sqf[k] * s)
    return M


def max_entry_error(p: WCOParams, dim: int) -> tuple[float, float]:
    """(max |error|, max |error| / max |entry|) of wco_matrix against mpmath."""
    ref = mpmath_matrix(p, dim)
    err = float(np.max(np.abs(wco_matrix(p, dim) - ref)))
    return err, err / float(np.max(np.abs(ref)))


def entries(args) -> list:
    """Accuracy of the weighted-composition matrix assembly as the truncation grows.

    Compares ``wco_matrix`` for the offset conjugation's symbol
    (A, B, C, D) = (1, i, e^{-1/2}, i) with the closed-form entry sum

        M[n, k] = C sqrt(n!/k!) sum_j binom(k, j) A^j B^(k-j) D^(n-j) / (n-j)!

    evaluated in 30-digit mpmath arithmetic, and prints the largest entry
    error at each size, absolute and relative to the largest entry.  The sums
    cancel heavily for this symbol, so the error grows with the size.
    """
    print("wco_matrix vs 30-digit mpmath, symbol (A, B, C, D) = (1, i, e^{-1/2}, i)")
    print(f"{'dim':>5}  {'max abs error':>13}  {'rel to max entry':>16}")
    rows = []
    for dim in args.dims:
        err, rel = max_entry_error(OFFSET_SYMBOL, dim)
        print(f"{dim:>5}  {err:>13.3e}  {rel:>16.3e}")
        rows.append((dim, err, rel))
    return rows


# ----------------------------------------------------------------------------
# kernels

FIXED_SYMBOLS = {
    "(1, 1, 1, -1)": WCOParams(A=1.0, B=1.0, C=1.0, D=-1.0),
    "(1, 2i, e^-2, 2i)": WCOParams(A=1.0, B=2j, C=math.exp(-2.0), D=2j),
    "(0.95, 1+i, 1, -0.95(1-i))": WCOParams(A=0.95, B=1 + 1j, C=1.0, D=-0.95 * (1 - 1j)),
    "(0.5, 0.2, 0.7, 0.1+0.1i)": WCOParams(A=0.5, B=0.2, C=0.7, D=0.1 + 0.1j),
}
TIMES = (0.1, 0.25, 0.5, 1.0, 2.0)
RADII_SQUARED = (0.25, 0.4)  # |w|^2 over N
PHASES = (1, 1j, -1, -1j)


def symbols() -> dict[str, WCOParams]:
    """The fixed symbols, then every law family's member at each of ``TIMES``."""
    out = dict(FIXED_SYMBOLS)
    for i, fam in enumerate(_LAW_FAMILIES):
        for t in TIMES:
            out[f"{fam.variant}.{i} t={t:g}"] = family_eval(fam, t)
    return out


@functools.cache
def tail_mass(x: float, N: int) -> float:
    """e^{-x} sum_{n>=N} x^n / n!, the mass of a Poisson(x) law from N on."""
    n = np.arange(N, N + 20 * int(x + 10))
    return float(np.exp(-x + n * math.log(x) - np.array([math.lgamma(k + 1) for k in n])).sum())


def kernel_residual(p: WCOParams, N: int) -> tuple[float, float, int]:
    """(worst relative residual of W_N^H k_w, largest tail mass, kernels used);
    NaN for both where no kernel's image is held."""
    W_H = wco_matrix(p, N).conj().T
    worst, tail, used = 0.0, 0.0, 0
    for frac in RADII_SQUARED:
        for phase in PHASES:
            w = math.sqrt(frac * N) * phase
            image = complex(p.A) * w + complex(p.B)
            if abs(image) ** 2 > N / 2:
                continue
            lhs = W_H @ kernel_vector(w, N)
            rhs = np.conj(complex(p.C) * cmath.exp(complex(p.D) * w)) * kernel_vector(image, N)
            worst = max(worst, float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)))
            tail = max(tail, tail_mass(frac * N, N))
            used += 1
    return (worst, tail, used) if used else (math.nan, math.nan, 0)


def kernels(args) -> list:
    """Accuracy of the weighted-composition matrices on reproducing kernels as the truncation grows.

    On F^2 the kernel K_w(z) = e^{z conj(w)} has the normalized coefficients
    conj(w)^k / sqrt(k!) (``fock.kernel_vector``), and a weighted composition
    operator acts on kernels in closed form:

        W^* K_w = conj(C e^{Dw}) K_{Aw+B}.

    For each symbol and truncation N it compares W_N^H k_w, with W_N the
    N x N matrix of ``wco_matrix``, against conj(C e^{Dw}) k_{Aw+B} on the
    leading N coefficients, and prints the worst relative residual (2-norm,
    relative to the right side) over kernels at |w|^2 = N/4 and 0.4 N, each
    at the phases 1, i, -1 and -i, skipping every w with |Aw+B|^2 > N/2,
    whose image kernel the truncation does not hold.  No mpmath is needed:
    each kernel costs one matrix-vector product.

    The truncated identity holds only up to P_N W^* (I - P_N) K_w, the
    kernel's part past N seen through W's rows beyond N.  Beside the residual
    stand the largest tail mass e^{-|w|^2} sum_{n>=N} |w|^{2n}/n! of the
    kernels used, which is ||(I - P_N) K_w||^2 / ||K_w||^2, and its square
    root, the relative size of the truncated part.  For a bounded W the
    relative residual is at most ||W|| times that root times
    ||K_w|| / ||W^* K_w||, so a residual far above it is lost accuracy of the
    assembly, which the column recurrence shows near |A| = 1 as N grows.  For
    an unbounded W (the column ``bounded``, by ``wco.is_bounded``) no such
    bound holds: its rows past N grow, and the residual measures the
    truncation of the operator as much as the assembly.

    Symbols: four fixed ones, bounded with |A| = 1, with |A| = 0.95 on the
    boundedness relation and with |A| = 0.5, and the members of
    ``verification._LAW_FAMILIES`` at t in {0.1, 0.25, 0.5, 1, 2}, labelled
    by their variant and index as in the semigroup-law record ids.
    """
    print("W_N^H k_w against conj(C e^{Dw}) k_{Aw+B}, |w|^2 = N/4 and 0.4N at four phases")
    for i, fam in enumerate(_LAW_FAMILIES):
        print(f"  law family {i}: {fam.to_json()}")
    print(f"{'symbol':28s} {'bounded':>7} {'N':>4} {'kernels':>7} {'residual':>10} "
          f"{'tail mass':>10} {'sqrt tail':>10}")
    rows = []
    for label, p in symbols().items():
        bounded = is_bounded(p).bounded
        for N in args.dims:
            worst, tail, used = kernel_residual(p, N)
            print(f"{label:28s} {str(bounded):>7} {N:>4} {used:>7} {worst:>10.2e} "
                  f"{tail:>10.2e} {math.sqrt(tail):>10.2e}")
            rows.append((label, bounded, N, used, worst, tail))
    return rows


# ----------------------------------------------------------------------------
# involution

def involution(args) -> list:
    """How fast the offset conjugation becomes an involution as truncation grows.

    For b = 0 the conjugation matrix squares to the identity exactly at every
    size.  For b != 0 it only does so in the limit; this tabulates the worst
    involution residual over low-degree monomials against the truncation
    size, so the decay rate can be eyeballed (it is roughly factorial).
    """
    b = 1j * args.b_imag
    # |c|^2 e^{|b|^2} = 1 fixes |c|; a = 1 keeps conj(a) b + conj(b) = 0
    c = float(np.exp(-abs(b) ** 2 / 2))
    params = ConjugationParams(a=1.0, b=b, c=c)
    params.validate()

    rows, prev = [], None
    print(f"conjugation a=1, b={b}, c={c:.6f},"
          f" residual = max_k ||(C^2 - I) e_k||, k <= {args.max_degree}")
    print(f"{'dim':>5}  {'residual':>12}  {'decay vs prev':>13}")
    for dim in args.dims:
        if dim <= args.max_degree:
            print(f"{dim:>5}  (skipped: dim must exceed max degree)")
            continue
        res = float(np.max(check_involution(conjugation_matrix(params, dim), args.max_degree)))
        factor = (prev / res) if (prev is not None and res > 0) else float("nan")
        print(f"{dim:>5}  {res:>12.4e}  {factor:>13.2f}")
        rows.append((dim, res, factor))
        prev = res
    return rows


# ----------------------------------------------------------------------------
# growth

def growth(args) -> list:
    """Sweep the growth weight omega for a semigroup family and tabulate sups.

    Evaluates sup_t e^{-omega t} ||W(t) e_0|| on the growth grid
    GROWTH_T_GRID for a range of omega values, weighting one curve
    ||W(t) e_0|| each way, and flags which weights tame the family and which
    do not.  The translation family with E = 1 grows like e^{t^2}, so no
    weight ever tames it: a quick way to see the growth-class boundary move.
    """
    conj = standard_conjugation()
    if args.family == "translation":
        fam = TranslationFamily(E=args.E, F=args.F, conj=conj)
    else:
        fam = DilationFamily(ell=args.ell, G=args.G, H=args.H, conj=conj)
    curve = growth_values(fam, monomial(0, args.dim)[:, None], GROWTH_T_GRID)[:, 0]
    print(f"{args.family} family, dim {args.dim}")
    print(f"{'omega':>8}  {'sup':>12}  {'argmax t':>9}  diverging")
    rows = []
    for omega in args.omegas:
        rep = growth_report(curve, omega)
        print(f"{omega:>8.3g}  {rep.sup:>12.6g}  {rep.argmax_t:>9.4f}  "
              f"{rep.diverging}")
        rows.append((omega, rep.sup, rep.argmax_t, int(rep.diverging)))
    return rows


# ----------------------------------------------------------------------------
# dims

def verify_once(dim: int, workdir: Path) -> dict:
    """One ``verify-all --seed 7`` at ``dim`` in a fresh process: its wall
    time, exit code, status counts, failed and warned records, and whether
    stderr holds a traceback."""
    out = workdir / f"verify-all-d{dim}.json"
    argv = [sys.executable, "-m", "focksym.cli", "verify-all", "--dim", str(dim),
            "--seed", "7", "--out", str(out)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    records = json.loads(out.read_text())["records"] if out.exists() else []
    counts = Counter(r["status"] for r in records)
    return {
        "wall_s": round(wall, 2),
        "exit": proc.returncode,
        **{status: counts[status] for status in ("pass", "warn", "info", "fail")},
        "failed": [{"check_id": r["check_id"], "measured": r["measured"],
                    "threshold": r["threshold"]} for r in records if r["status"] == "fail"],
        "warned": [r["check_id"] for r in records if r["status"] == "warn"],
        "traceback": "Traceback" in proc.stderr,
    }


def dims(args) -> None:
    """`focksym verify-all --seed 7` across dims, as JSON, for the tree on PYTHONPATH.

    Each dim runs once in a fresh process.  Per dim it records the wall time
    of that process, its exit code, the pass/warn/info/fail counts of the
    report, the ids of the failed records, the ids of the records downgraded
    to warn (below dim 64, see ``verification._TRUNCATION_SENSITIVE``), and
    whether stderr holds a Python traceback.  Set the BLAS thread count in
    the environment; it is recorded with the python and numpy versions and
    the mantissa bits of ``np.longdouble``.
    """
    out = {
        "command": "focksym verify-all --dim <dim> --seed 7",
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
            "longdouble_nmant": int(np.finfo(np.longdouble).nmant),
        },
        "dims": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        for dim in args.dims:
            out["dims"][str(dim)] = verify_once(dim, Path(tmp))
    print(json.dumps(out, indent=1))


# ----------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="sweep", required=True)

    def add(fn, dims: list[int], columns: list[str] | None):
        p = sub.add_parser(fn.__name__, help=fn.__doc__.splitlines()[0])
        p.add_argument("--dims", type=int, nargs="+", default=dims)
        if columns:
            p.add_argument("--out", help="optional CSV output path")
        p.set_defaults(fn=fn, columns=columns)
        return p

    add(entries, [16, 32, 64, 128], ["dim", "max_abs_error", "rel_error"])
    add(kernels, [64, 128, 256, 512],
        ["symbol", "bounded", "N", "kernels", "residual", "tail_mass"])
    p = add(involution, [8, 12, 16, 24, 32, 48, 64, 96, 128], ["dim", "residual", "decay_factor"])
    p.add_argument("--b-imag", type=float, default=1.0,
                   help="imaginary part of the offset b (default 1.0)")
    p.add_argument("--max-degree", type=int, default=8,
                   help="probe monomials up to this degree (default 8)")

    p = sub.add_parser("growth", help=growth.__doc__.splitlines()[0])
    p.add_argument("--family", choices=("translation", "dilation"), default="translation")
    for name, default in (("E", 1.0), ("F", 0.0), ("ell", -1.0), ("G", 1.0), ("H", 0.0)):
        p.add_argument(f"--{name}", type=complex, default=complex(default))
    p.add_argument("--omegas", type=float, nargs="+", default=[0.0, 0.5, 1.0, 2.0, 5.0, 10.0])
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--out", help="optional CSV output path")
    p.set_defaults(fn=growth, columns=["omega", "sup", "argmax_t", "diverging"])
    add(dims, [241, 256, 384, 480, 512], None)

    args = ap.parse_args(argv)
    rows = args.fn(args)
    if args.columns and args.out:
        write_csv(args.out, args.columns, rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
