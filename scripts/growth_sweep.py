#!/usr/bin/env python3
"""Sweep the growth weight omega for a semigroup family and tabulate sups.

Evaluates sup_t e^{-omega t} ||W(t) e_0|| on the growth grid GROWTH_T_GRID
for a range of omega values, weighting one curve ||W(t) e_0|| each way, and
flags which weights tame the family and which do not.  The translation family
with E = 1 grows like e^{t^2}, so no weight ever tames it — a quick way to see
the growth-class boundary move.

Usage:
    python scripts/growth_sweep.py --family dilation --ell -1 --G 1 \
        --omegas 0 0.5 1 2 --dim 64 --out sweep.csv
"""

import argparse
import sys

from focksym.conjugation import standard_conjugation
from focksym.fock import monomial
from focksym.semigroup import (
    GROWTH_T_GRID,
    DilationFamily,
    TranslationFamily,
    growth_report,
    growth_values,
)
from focksym.serialize import write_csv


def build_family(args):
    conj = standard_conjugation()
    if args.family == "translation":
        return TranslationFamily(E=complex(args.E), F=complex(args.F), conj=conj)
    return DilationFamily(ell=complex(args.ell), G=complex(args.G),
                          H=complex(args.H), conj=conj)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", choices=("translation", "dilation"),
                    default="translation")
    ap.add_argument("--E", type=complex, default=1.0)
    ap.add_argument("--F", type=complex, default=0.0)
    ap.add_argument("--ell", type=complex, default=-1.0)
    ap.add_argument("--G", type=complex, default=1.0)
    ap.add_argument("--H", type=complex, default=0.0)
    ap.add_argument("--omegas", type=float, nargs="+",
                    default=[0.0, 0.5, 1.0, 2.0, 5.0, 10.0])
    ap.add_argument("--dim", type=int, default=64)
    ap.add_argument("--out", help="optional CSV output path")
    args = ap.parse_args(argv)

    fam = build_family(args)
    curve = growth_values(fam, monomial(0, args.dim)[:, None], GROWTH_T_GRID)[:, 0]
    print(f"{args.family} family, dim {args.dim}")
    print(f"{'omega':>8}  {'sup':>12}  {'argmax t':>9}  diverging")
    rows = []
    for omega in args.omegas:
        rep = growth_report(curve, omega)
        print(f"{omega:>8.3g}  {rep.sup:>12.6g}  {rep.argmax_t:>9.4f}  "
              f"{rep.diverging}")
        rows.append((omega, rep.sup, rep.argmax_t, int(rep.diverging)))

    if args.out:
        write_csv(args.out, ["omega", "sup", "argmax_t", "diverging"], rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
