#!/usr/bin/env python3
"""Fixed cost of one in-process ``focksym.cli.main`` call, part by part.

Prints the median (and quartiles) over ``--calls`` calls, in milliseconds, of:

- ``build``: one argument parser built afresh (``cli._build_parser.__wrapped__``,
  or ``cli._build_parser`` itself in a tree that builds one per call);
- ``parse``: ``parse_args`` of a ``run`` command line on a parser built once;
- ``validate`` and ``run``: ``main`` on one fixed light scenario, a
  ``conjugation-check`` at dim 32 with a JSON report, its output discarded;
- ``validate-wco``: ``main`` validating a ``wco`` scenario at dim 2000, whose
  run would assemble a 2000 x 2000 matrix.  ``validate`` computes nothing, so
  it costs what the dim-32 ``validate`` costs; a tree that builds the matrix
  while validating pays seconds here.

The environment (python, numpy, BLAS threads) is printed first.  A tree that
builds its parser on every call pays ``build`` inside each ``validate`` and
``run``; one that builds it once pays it on the first call only.  Fix the BLAS
threads (``OPENBLAS_NUM_THREADS=1``) when comparing.

Usage:
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/cli_cost.py --calls 200
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from focksym import cli

SCENARIO = {"name": "cli-cost", "kind": "conjugation-check",
            "params": {"a": [math.cos(0.7), math.sin(0.7)], "c": [0.0, 1.0]},
            "truncation": {"dim": 32}, "output": {"format": "json"}}
WCO_SCENARIO = {"name": "cli-cost-wco", "kind": "wco",
                "params": {"A": 0.5, "B": 0.3, "D": [0.3, -0.05]},
                "truncation": {"dim": 2000}, "output": {"format": "json"}}


def timings(fn, calls: int) -> list[float]:
    """Wall milliseconds of each of ``calls`` calls of fn, stdout discarded."""
    out = []
    for _ in range(calls):
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            fn()
            out.append(1e3 * (time.perf_counter() - t0))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--calls", type=int, default=200)
    args = ap.parse_args(argv)

    build = getattr(cli._build_parser, "__wrapped__", cli._build_parser)
    parser = build()
    print(f"python {platform.python_version()}, numpy {np.__version__}, "
          f"BLAS threads {os.environ.get('OPENBLAS_NUM_THREADS', 'default')}")
    with tempfile.TemporaryDirectory() as tmp:
        os.environ["FOCKSYM_OUTPUT_DIR"] = str(Path(tmp) / "out")
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps(SCENARIO))
        wco = Path(tmp) / "wco.json"
        wco.write_text(json.dumps(WCO_SCENARIO))
        run_argv = ["run", str(scenario), "--seed", "3"]
        parts = {
            "build": build,
            "parse": lambda: parser.parse_args(run_argv),
            "validate": lambda: cli.main(["validate", str(scenario)]),
            "run": lambda: cli.main(run_argv),
            "validate-wco": lambda: cli.main(["validate", str(wco)]),
        }
        print(f"{'part':>12}  {'median ms':>9}  {'q1 ms':>7}  {'q3 ms':>7}  (of {args.calls})")
        for name, fn in parts.items():
            q1, median, q3 = statistics.quantiles(timings(fn, args.calls), n=4,
                                                  method="inclusive")
            print(f"{name:>12}  {median:>9.3f}  {q1:>7.3f}  {q3:>7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
