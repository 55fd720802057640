#!/usr/bin/env python3
"""`focksym verify-all --seed 7` across dims, as JSON, for the tree on PYTHONPATH.

Each dim runs once in a fresh process.  Per dim it records the wall time of
that process, its exit code, the pass/warn/info/fail counts of the report,
the ids of the failed records, and whether stderr holds a Python traceback.
Set the BLAS thread count in the environment; it is recorded with the python
and numpy versions and the mantissa bits of ``np.longdouble``.

Usage:
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/verify_dims.py --dims 241 256
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np


def run(dim: int, workdir: Path) -> dict:
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
        "traceback": "Traceback" in proc.stderr,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", type=int, nargs="+", default=[241, 256, 384, 480, 512])
    args = ap.parse_args(argv)
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
            out["dims"][str(dim)] = run(dim, Path(tmp))
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
