#!/usr/bin/env python3
"""Accuracy of the weighted-composition matrices on reproducing kernels as the truncation grows.

On F^2 the kernel K_w(z) = e^{z conj(w)} has the normalized coefficients
conj(w)^k / sqrt(k!) (``fock.kernel_vector``), and a weighted composition
operator acts on kernels in closed form:

    W^* K_w = conj(C e^{Dw}) K_{Aw+B}.

For each symbol and truncation N the script compares W_N^H k_w, with W_N
the N x N matrix of ``wco_matrix``, against conj(C e^{Dw}) k_{Aw+B} on the
leading N coefficients, and prints the worst relative residual (2-norm,
relative to the right side) over kernels at |w|^2 = N/4 and 0.4 N, each at
the phases 1, i, -1 and -i, skipping every w with |Aw+B|^2 > N/2, whose
image kernel the truncation does not hold.  No mpmath is needed: each
kernel costs one matrix-vector product.

The truncated identity holds only up to P_N W^* (I - P_N) K_w, the kernel's
part past N seen through W's rows beyond N.  Beside the residual stand the
largest tail mass e^{-|w|^2} sum_{n>=N} |w|^{2n}/n! of the kernels used,
which is ||(I - P_N) K_w||^2 / ||K_w||^2, and its square root, the relative
size of the truncated part.  For a bounded W the relative residual is at
most ||W|| times that root times ||K_w|| / ||W^* K_w||, so a residual far
above it is lost accuracy of the assembly, which the column recurrence
shows near |A| = 1 as N grows.  For an unbounded W (the column ``bounded``,
by ``wco.is_bounded``) no such bound holds: its rows past N grow, and the
residual measures the truncation of the operator as much as the assembly.

Symbols: four fixed ones, bounded with |A| = 1, with |A| = 0.95 on the
boundedness relation and with |A| = 0.5, and the members of
``verification._LAW_FAMILIES`` at t in {0.1, 0.25, 0.5, 1, 2}, labelled by
their variant and index as in the semigroup-law record ids.

Usage:
    python scripts/kernel_accuracy.py --dims 64 128 256 512 --out kernels.csv
"""

import argparse
import cmath
import functools
import math
import sys

import numpy as np

from focksym.fock import kernel_vector
from focksym.semigroup import family_eval
from focksym.serialize import write_csv
from focksym.verification import _LAW_FAMILIES
from focksym.wco import WCOParams, is_bounded, wco_matrix

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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", type=int, nargs="+", default=[64, 128, 256, 512])
    ap.add_argument("--out", help="optional CSV output path")
    args = ap.parse_args(argv)

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
    if args.out:
        write_csv(args.out, ["symbol", "bounded", "N", "kernels", "residual", "tail_mass"], rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
