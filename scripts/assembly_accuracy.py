#!/usr/bin/env python3
"""Accuracy of the weighted-composition matrix assembly as the truncation grows.

Compares ``wco_matrix`` for the offset conjugation's symbol
(A, B, C, D) = (1, i, e^{-1/2}, i) with the closed-form entry sum

    M[n, k] = C sqrt(n!/k!) sum_j binom(k, j) A^j B^(k-j) D^(n-j) / (n-j)!

evaluated in 30-digit mpmath arithmetic, and prints the largest entry error at
each size, absolute and relative to the largest entry.  The sums cancel
heavily for this symbol, so the error grows with the size.

Usage:
    python scripts/assembly_accuracy.py --dims 16 32 64 128 --out accuracy.csv
"""

import argparse
import math
import sys

import mpmath
import numpy as np

from focksym.serialize import write_csv
from focksym.wco import WCOParams, wco_matrix

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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", type=int, nargs="+", default=[16, 32, 64, 128])
    ap.add_argument("--out", help="optional CSV output path")
    args = ap.parse_args(argv)

    print("wco_matrix vs 30-digit mpmath, symbol (A, B, C, D) = (1, i, e^{-1/2}, i)")
    print(f"{'dim':>5}  {'max abs error':>13}  {'rel to max entry':>16}")
    rows = []
    for dim in args.dims:
        err, rel = max_entry_error(OFFSET_SYMBOL, dim)
        print(f"{dim:>5}  {err:>13.3e}  {rel:>16.3e}")
        rows.append((dim, err, rel))

    if args.out:
        write_csv(args.out, ["dim", "max_abs_error", "rel_error"], rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
