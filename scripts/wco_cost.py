#!/usr/bin/env python3
"""Cost and accuracy of ``wco_matrix`` per call, as JSON, for the tree on PYTHONPATH.

For each dim it times the offset conjugation's symbol (1, i, e^{-1/2}, i)
built full and with 5 columns (the median of ``--repeats`` rounds, each the
mean over as many calls as fill about 0.1 s), and its largest entry error
relative to the largest entry against the 30-digit sum of
``scripts/assembly_accuracy.py``.  Set the BLAS thread count in the
environment; it is recorded with the numpy version and the mantissa bits of
``np.longdouble``.

Usage:
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/wco_cost.py --dims 16 64
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

from focksym.wco import wco_matrix  # noqa: E402


def ms_per_call(dim: int, ncols: int | None, repeats: int) -> float:
    wco_matrix(OFFSET_SYMBOL, dim, ncols)
    t0 = time.perf_counter()
    calls = 0
    while time.perf_counter() - t0 < 0.1:
        wco_matrix(OFFSET_SYMBOL, dim, ncols)
        calls += 1
    rounds = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            wco_matrix(OFFSET_SYMBOL, dim, ncols)
        rounds.append((time.perf_counter() - t0) / calls * 1e3)
    return statistics.median(rounds)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", type=int, nargs="+", default=[16, 32, 64, 128, 256])
    ap.add_argument("--repeats", type=int, default=7)
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
        _, rel = max_entry_error(OFFSET_SYMBOL, dim)
        out["dims"][str(dim)] = {
            "ms_full": round(ms_per_call(dim, None, args.repeats), 4),
            "ms_ncols5": round(ms_per_call(dim, min(5, dim), args.repeats), 4),
            "rel_error": float(f"{rel:.4g}"),
        }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
