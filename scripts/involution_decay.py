#!/usr/bin/env python3
"""How fast the offset conjugation becomes an involution as truncation grows.

For b = 0 the conjugation matrix squares to the identity exactly at every
size.  For b != 0 it only does so in the limit; this script tabulates the
worst involution residual over low-degree monomials against the truncation
size, so the decay rate can be eyeballed (it is roughly factorial).

Usage:
    python scripts/involution_decay.py --dims 8 16 24 32 48 64 96 --out decay.csv
"""

import argparse
import sys

import numpy as np

from focksym.conjugation import ConjugationParams, check_involution, conjugation_matrix
from focksym.serialize import write_csv


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--b-imag", type=float, default=1.0,
                    help="imaginary part of the offset b (default 1.0)")
    ap.add_argument("--max-degree", type=int, default=8,
                    help="probe monomials up to this degree (default 8)")
    ap.add_argument("--dims", type=int, nargs="+",
                    default=[8, 12, 16, 24, 32, 48, 64, 96, 128])
    ap.add_argument("--out", help="optional CSV output path")
    args = ap.parse_args(argv)

    b = 1j * args.b_imag
    # |c|^2 e^{|b|^2} = 1 fixes |c|; a = 1 keeps conj(a) b + conj(b) = 0
    c = float(np.exp(-abs(b) ** 2 / 2))
    params = ConjugationParams(a=1.0, b=b, c=c)
    params.validate()

    rows = []
    prev = None
    print(f"conjugation a=1, b={b}, c={c:.6f},"
          f" residual = max_k ||(C^2 - I) e_k||, k <= {args.max_degree}")
    print(f"{'dim':>5}  {'residual':>12}  {'decay vs prev':>13}")
    for dim in args.dims:
        if dim <= args.max_degree:
            print(f"{dim:>5}  (skipped: dim must exceed max degree)")
            continue
        M = conjugation_matrix(params, dim)
        res = float(np.max(check_involution(M, args.max_degree)))
        factor = (prev / res) if (prev is not None and res > 0) else float("nan")
        print(f"{dim:>5}  {res:>12.4e}  {factor:>13.2f}")
        rows.append((dim, res, factor))
        prev = res

    if args.out:
        write_csv(args.out, ["dim", "residual", "decay_factor"], rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
