#!/usr/bin/env python3
"""Cost and accuracy of ``wco_matrix`` per call, as JSON, for the tree on PYTHONPATH.

For each dim it times the offset conjugation's symbol (1, i, e^{-1/2}, i)
built full and with 5 columns (the median of ``--repeats`` rounds, each the
mean over as many calls as fill about 0.1 s), and its largest entry error
relative to the largest entry against the 30-digit sum of
``scripts/assembly_accuracy.py``.  Set the BLAS thread count in the
environment; it is recorded with the numpy version and the mantissa bits of
``np.longdouble``.

With ``--stack`` it times stacked builds instead: for each dim and for 1, 5
and all columns, the microseconds per matrix of ``wco_matrix`` alone and of
``wco_matrices`` over stacks of 1, 10 and 80 copies of the same symbol (the
cost does not depend on the symbol's values), timed as above.

Usage:
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/wco_cost.py --dims 16 64
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/wco_cost.py --stack --dims 16 32 64 128
"""

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from assembly_accuracy import OFFSET_SYMBOL, max_entry_error  # noqa: E402

from focksym.wco import wco_matrices, wco_matrix  # noqa: E402

STACK_SIZES = (1, 10, 80)


def ms_per_call(build, repeats: int) -> float:
    build()
    t0 = time.perf_counter()
    calls = 0
    while time.perf_counter() - t0 < 0.1:
        build()
        calls += 1
    rounds = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            build()
        rounds.append((time.perf_counter() - t0) / calls * 1e3)
    return statistics.median(rounds)


def stack_costs(dim: int, repeats: int) -> dict:
    """Microseconds per matrix, alone and in each stack size, by column count."""
    out = {}
    for label, ncols in (("1", 1), ("5", min(5, dim)), ("full", None)):
        row = {"alone": ms_per_call(lambda: wco_matrix(OFFSET_SYMBOL, dim, ncols), repeats) * 1e3}
        for size in STACK_SIZES:
            symbols = [OFFSET_SYMBOL] * size
            ms = ms_per_call(lambda: wco_matrices(symbols, dim, ncols), repeats)
            row[str(size)] = ms * 1e3 / size
        out[label] = {k: round(v, 2) for k, v in row.items()}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", type=int, nargs="+", default=[16, 32, 64, 128, 256])
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--stack", action="store_true",
                    help="microseconds per matrix of stacked builds instead")
    args = ap.parse_args(argv)
    out = {
        "environment": {
            "numpy": np.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
            "longdouble_nmant": int(np.finfo(np.longdouble).nmant),
        },
        "dims": {},
    }
    for dim in args.dims:
        if args.stack:
            out["dims"][str(dim)] = {"us_per_matrix": stack_costs(dim, args.repeats)}
            continue
        _, rel = max_entry_error(OFFSET_SYMBOL, dim)
        full = ms_per_call(lambda: wco_matrix(OFFSET_SYMBOL, dim), args.repeats)
        lead = ms_per_call(lambda: wco_matrix(OFFSET_SYMBOL, dim, min(5, dim)), args.repeats)
        out["dims"][str(dim)] = {
            "ms_full": round(full, 4),
            "ms_ncols5": round(lead, 4),
            "rel_error": float(f"{rel:.4g}"),
        }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
