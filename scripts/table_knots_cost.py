#!/usr/bin/env python3
"""Cost of evolution runs of piecewise-linear tables as their knots grow dense.

Runs ``focksym run`` of an ``evolution`` JSON scenario of a dim-3 table with
``KNOTS`` equally spaced knots over [0, 5], 37 samples, at each requested
rel_tol, and prints the spans the run hands to the step loop, its passes
of the loop, its attempted and rejected steps, the fastest of ``REPEATS``
runs' milliseconds in ``_integrate_spans``, and its
``evolution.composition`` record over rel_tol (the record fails above 10).
Two kinds of table:

- ``random``: the fixed damped spectrum of ``propagator_cost.constant_matrix``
  in a seeded basis at each knot, the benchmark's table shape, which bends
  by about max|B| at every knot;
- ``eps<e>``: samples of -i/2 (B0 + e (cos(1.3 t) B1 + sin(0.7 t + 0.2) B2))
  for seeded complex symmetric B0, B1, B2, whose bends shrink with e and with
  the knot spacing (e = 0 holds one matrix at every knot).

Spans, passes, steps and rejections are counted on the run's calls of
``_integrate_spans``, in the module whose run calls it (``evolution``, or
``cli`` on a tree whose run lives there): each evaluates the coefficient
once at its spans' starts and once per pass, so its passes are the
coefficient's calls made inside it less one, and a call outside the step loop
counts for none.  The script measures any source tree on the path, with or
without breaks.  Spans, passes and steps repeat exactly; the milliseconds
move run to run on a shared host.

Usage:
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<checkout>/src python scripts/table_knots_cost.py
    python scripts/table_knots_cost.py --rel-tol 1e-8 1e-12 --knots 101 1001
"""

import argparse
import contextlib
import json
import math
import os
import tempfile
import time

import numpy as np

from focksym import cli, evolution
from propagator_cost import constant_matrix, json_matrix

KNOTS = (6, 21, 101, 1001)
EPS = (0.0, 1e-4, 1e-3, 3e-3, 1e-2, 1e-1, 1.0)
REPEATS = 5


def table_params(kind: str, knots: int, t: float = 5.0) -> dict:
    times = [t * i / (knots - 1) for i in range(knots)]
    if kind == "random":
        mats = [constant_matrix(3, seed) for seed in range(knots)]
    else:
        eps = float(kind[3:])
        rng = np.random.default_rng(0)
        g = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        B0, B1, B2 = 0.5 * (g + g.transpose(0, 2, 1))
        mats = [-0.5j * (B0 + eps * (math.cos(1.3 * x) * B1 + math.sin(0.7 * x + 0.2) * B2))
                for x in times]
    return {"B": "table", "times": times, "matrices": [json_matrix(M) for M in mats]}


def run_figures(params: dict) -> tuple[int, int, int, int, float, float]:
    """(spans, passes, attempted steps, rejected steps, fastest step-loop ms,
    the composition record's measured value) of one run."""
    module = cli if hasattr(cli, "_integrate_spans") else evolution
    original_op, original_spans = cli._evolution_operator_from, module._integrate_spans
    calls, loop = [0], {"spans": 0, "passes": 0, "steps": 0, "rejected": 0, "s": 0.0}

    def counting(p, span):
        B, *rest = original_op(p, span)

        def counted(ts):
            calls[0] += 1
            return B(ts)
        return (counted, *rest)

    def timing(B, spans, rel_tol):
        before = calls[0]
        t0 = time.perf_counter()
        mats, stats = original_spans(B, spans, rel_tol)
        loop["s"] += time.perf_counter() - t0
        # one call of B at the spans' starts, then one per pass
        loop["passes"] += calls[0] - before - 1
        loop["spans"] += len(spans)
        loop["steps"] += sum(st.steps for st in stats)
        loop["rejected"] += sum(st.rejected for st in stats)
        return mats, stats

    with tempfile.TemporaryDirectory() as tmp:
        scenario, report = os.path.join(tmp, "table.json"), os.path.join(tmp, "report.json")
        with open(scenario, "w") as fh:
            json.dump({"name": "table", "kind": "evolution", "params": params,
                       "output": {"format": "json", "path": report}}, fh)
        module._integrate_spans = timing
        try:
            with open(os.devnull, "w") as null, contextlib.redirect_stdout(null), \
                    contextlib.redirect_stderr(null):
                cli._evolution_operator_from = counting
                cli.main(["run", scenario])
                cli._evolution_operator_from = original_op
                with open(report) as fh:
                    composition, = [r["measured"] for r in json.load(fh)["records"]
                                    if r["check_id"] == "evolution.composition"]
                spans, passes = loop["spans"], loop["passes"]
                steps, rejected = loop["steps"], loop["rejected"]
                best = math.inf
                for _ in range(REPEATS):
                    loop["s"] = 0.0
                    cli.main(["run", scenario])
                    best = min(best, loop["s"])
        finally:
            cli._evolution_operator_from, module._integrate_spans = original_op, original_spans
    return spans, passes, steps + rejected, rejected, 1e3 * best, composition


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--knots", type=int, nargs="+", default=list(KNOTS))
    ap.add_argument("--rel-tol", type=float, nargs="+", default=[1e-10])
    args = ap.parse_args(argv)
    kinds = ["random"] + [f"eps{e:g}" for e in EPS]
    print(f"evolution runs of dim-3 tables over [0, 5], 37 samples; "
          f"step-loop ms the fastest of {REPEATS}")
    print(f"{'rel_tol':>7}  {'knots':>5}  {'table':>9}  {'spans':>5}  {'passes':>6}  "
          f"{'attempts':>8}  {'rejected':>8}  {'loop ms':>8}  {'comp/tol':>8}")
    for rel_tol in args.rel_tol:
        for knots in args.knots:
            for kind in kinds:
                params = {**table_params(kind, knots), "t": 5.0, "samples": 37,
                          "rel_tol": rel_tol}
                spans, passes, attempts, rejected, ms, composition = run_figures(params)
                print(f"{rel_tol:>7g}  {knots:>5}  {kind:>9}  {spans:>5}  {passes:>6}  "
                      f"{attempts:>8}  {rejected:>8}  {ms:>8.2f}  "
                      f"{composition / rel_tol:>8.2g}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
