#!/usr/bin/env python3
"""Cost and accuracy of a chained propagator time series as the sampling grows.

Builds the series U(t_k, 0), t_k = k t / (samples - 1), with
``evolution_series`` (one Dormand-Prince segment per sample interval, the
segments integrated side by side and chained through
U(t_k, 0) = U(t_k, t_{k-1}) U(t_{k-1}, 0)) and prints its Runge-Kutta steps,
the passes of the step loop (each pass attempts one step of every unfinished
segment of a batch, so a batch takes as many passes as its longest segment
takes attempted steps), its wall time, the steps of one span U(t, 0), and the
largest entry error over all samples against scipy's DOP853 at rtol 1e-13,
restarted at every sample time and every break of the model. A model with
breaks (the table's knots where it bends) has them as extra times of the
chains of its series and of its one span, as an ``evolution`` run has. A
second, untimed pass through a counting wrapper of the operator counts the
calls of B and the times it is evaluated at, apart. There is one call for
the starts of all spans of the chain (a segment is one span more for every
break inside it) and one per pass, so the passes are the calls less one.
Per accepted step there are five evaluated times per attempted step (stage 1
is the previous step's stage 7), plus one per span.

Models: the two-level Bagchi model with cosine detuning and coupling,
constant complex symmetric generators B = -i O diag(spectrum) O^T at d16 and
d32 (oscillation with damping up to 0.3), and a dim-3 table of six seeded
complex symmetric matrices at the knots 0, 1, ..., 5. A segment costs at
least about four steps (its first trial step is span/50 and grows at most
fivefold per step), so dense sampling settles near four steps per sample.

Three per-layer figures follow: the microseconds per attempted step of one
unbroken span U(t, 0) of the constant model at each of ``STEP_DIMS`` (the
fastest of ``REPEATS`` integrations); the microseconds per pass of the step
loop for the series of ``PASS_MODELS`` (the fastest of ``REPEATS``); and the
milliseconds ``write_csv`` takes per 10^5 float cells (the fastest of
``REPEATS`` writes) of a table of 49 rows of 2049 cells, as wide as a dim-32
series, handed over as the float64 array an ``evolution`` run hands over.  It
is timed on each of ``CSV_CELLS``: 17-digit values such as a series holds,
short decimals and integers.  Fix the BLAS threads
(``OPENBLAS_NUM_THREADS=1``) when comparing.

Two memory figures close the output, each a tracemalloc peak after one
untraced warm-up call: ``write_csv`` of a normal table of 2049 columns at
each of ``CSV_PEAK_ROWS`` rows, beside the size of the file it writes, and
one ``focksym run`` through ``cli.main`` of an ``evolution`` CSV scenario of
each of ``PEAK_RUNS``, the constant models at the benchmark's sample counts
over [0, 5].  They use only ``write_csv`` and ``cli.main``, so they measure
any source tree on the path.

Beside the per-pass figures come the coefficient calls of one ``focksym run``
of each of ``PASS_MODELS`` as an ``evolution`` CSV scenario over [0, 5], and
of one ``focksym evolve`` of the default model with ``EVOLVE_SAMPLES``
samples over [0, 5], counted by a wrapper of the coefficient that the
scenario parser returns: one call per ``_integrate_spans`` call (at every
span's start) plus one per pass of its step loop, and the times evaluated.
Beside them stand the spans the run hands to ``_integrate_spans``, its
passes and rejected steps, counted on those calls (a call's passes are the
calls of B made inside it less one, so a call of B outside the step loop
counts for none), and the fastest of ``REPEATS`` uncounted runs'
milliseconds in those calls. The calls and times follow for the two-level
coefficients of ``verify-all``'s evolution group, which do not depend on the
dim; three of its calls lie outside the step loop (B(0) for the exponential
route, the s grid of the commutation record, B(1) for the adjoint target).

Every model is built by the scenario parser from its params, as an
``evolution`` run builds it, with the breaks the parser names (none from a
tree whose parser names none).  ``--passes-only`` prints the per-pass
figures and the coefficient calls alone, then the per-table ``write_csv``
figure.  They use nothing of a coefficient but what the parser returns, so
they time any source tree on the path, under either coefficient protocol.

The per-table figure is the fastest of ten times ``REPEATS`` writes of each
of ``CSV_TABLES``, seeded normal cells as wide as the benchmark's largest
and smallest series tables, the bytes of one ``evolution`` run's CSV.

Usage:
    python scripts/propagator_cost.py --samples 2 21 201 1001 --t 5 --out cost.csv
    PYTHONPATH=<checkout>/src python scripts/propagator_cost.py --passes-only
"""

import argparse
import contextlib
import json
import math
import os
import sys
import tempfile
import time
import tracemalloc
from typing import Callable, Sequence

import numpy as np
import scipy.integrate

from focksym import cli, evolution, verification
from focksym.cli import _evolution_operator_from
from focksym.evolution import evolution_series, evolve
from focksym.serialize import write_csv

Coefficient = Callable[[Sequence[float]], np.ndarray]  # ts -> stack of B(t)


def constant_matrix(n: int, seed: int = 0) -> np.ndarray:
    """-i O diag(spectrum) O^T for a seeded orthogonal O: complex symmetric."""
    g = np.random.default_rng(seed).standard_normal((n, n))
    q, r = np.linalg.qr(g)
    O = q * np.sign(np.diag(r))
    spectrum = np.linspace(-1.0, 1.0, n) - 1j * np.linspace(0.0, 0.3, n)
    return -1j * (O * spectrum) @ O.T


def json_matrix(M: np.ndarray) -> list:
    """M as the [re, im] pairs of a scenario file."""
    return [[[z.real, z.imag] for z in row] for row in M.tolist()]


def constant_params(n: int) -> dict:
    return {"B": "constant", "matrix": json_matrix(constant_matrix(n))}


def coefficient(params: dict, t: float) -> tuple[Coefficient, list[float]]:
    """The coefficient that the scenario parser builds from ``params`` for [0, t],
    and the times where it is not smooth (none from a parser that names none),
    at the params' rel_tol, whether the parser returns the times or the map
    from the checked rel_tol to them."""
    B, *rest = _evolution_operator_from(params, (0.0, t))
    if len(rest) < 3:
        return B, []
    breaks = rest[0]
    return B, (breaks(params.get("rel_tol", 1e-10)) if callable(breaks) else breaks)


def series_of(B: Coefficient, breaks: Sequence[float], times: np.ndarray,
              rel_tol: float):
    """``evolution_series`` with ``breaks``, as an ``evolution`` run takes
    them; without breaks, called as a tree that has none takes it."""
    if breaks:
        return evolution_series(B, times, rel_tol, breaks)
    return evolution_series(B, times, rel_tol)


STEP_DIMS = (1, 2, 3, 16, 32, 64)
REPEATS = 10

# the scenario params of the series models; the table's six knots at
# 0, 1, ..., 5 each hold a seeded complex symmetric matrix
MODELS = {
    "bagchi-cosine": {"B": "bagchi", "nu": 1.0,
                      "kappa": {"cosine": {"amplitude": 0.4, "frequency": 1.3, "phase": 0.3}},
                      "lam": {"cosine": {"amplitude": 1.0, "frequency": 0.7, "phase": 1.1}}},
    "constant-d16": constant_params(16),
    "constant-d32": constant_params(32),
    "table-d3": {"B": "table", "times": [float(i) for i in range(6)],
                 "matrices": [json_matrix(constant_matrix(3, seed)) for seed in range(6)]},
}

# (label, scenario params, samples) of the per-pass figures: the two-level
# cosine model at dim 2, a six-knot table at dim 3 and constant models at
# dims 16 and 32, each a series over [0, 5] with the sample count that the
# benchmark's evolution-series workload gives it
PASS_MODELS = (
    ("bagchi-cosine-d2", MODELS["bagchi-cosine"], 35),
    ("table-d3", MODELS["table-d3"], 37),
    ("constant-d16", MODELS["constant-d16"], 85),
    ("constant-d32", MODELS["constant-d32"], 43),
)


class Counted:
    """B with counters of its calls and of the times it is evaluated at."""

    def __init__(self, B: Coefficient):
        self.B = B
        self.calls = self.times = 0

    def __call__(self, ts: Sequence[float]) -> np.ndarray:
        self.calls += 1
        self.times += len(ts)
        return self.B(ts)


def dop853_series(B: Coefficient, times: np.ndarray,
                  breaks: Sequence[float] = ()) -> np.ndarray:
    """U(t_k, t_0) at every sample time by DOP853 at rtol 1e-13, atol 1e-15,
    restarted at every sample time and every break between them."""
    n = B([times[0]]).shape[-1]

    def rhs(x, y):
        return (B([x])[0] @ y.view(complex).reshape(n, n)).ravel().view(float)

    y = np.eye(n, dtype=complex).ravel().view(float)
    at = {float(times[0]): y}
    stops = sorted({float(x) for x in times}
                   | {float(b) for b in breaks if times[0] < b < times[-1]})
    for a, b in zip(stops[:-1], stops[1:]):
        y = scipy.integrate.solve_ivp(rhs, (a, b), y, method="DOP853",
                                      rtol=1e-13, atol=1e-15).y[:, -1].copy()
        at[b] = y
    return np.array([at[float(x)] for x in times]).view(complex).reshape(len(times), n, n)


def measure(B: Coefficient, breaks: Sequence[float], t: float, samples: int,
            rel_tol: float) -> tuple[int, int, float, float, int, int, float]:
    """(series steps, loop passes, series wall s, max entry error vs DOP853,
    one-span steps, calls of B, evaluated times of B per accepted step)."""
    times = np.linspace(0.0, t, samples)
    t0 = time.perf_counter()
    series, stats = series_of(B, breaks, times, rel_tol)
    wall = time.perf_counter() - t0
    err = float(np.max(np.abs(np.array(series) - dop853_series(B, times, breaks))))
    steps = sum(st.steps for st in stats)
    counted = Counted(B)
    series_of(counted, breaks, times, rel_tol)
    # one span U(t, 0), with the breaks as the series has them
    _, span = series_of(B, breaks, np.array([0.0, t]), rel_tol)
    return (steps, counted.calls - 1, wall, err, sum(st.steps for st in span),
            counted.calls, counted.times / max(steps, 1))


def us_per_step(n: int, t: float, rel_tol: float) -> tuple[int, float]:
    """(attempted steps, fastest microseconds per attempted step) of U(t, 0)."""
    B, _ = coefficient(constant_params(n), t)
    best = math.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        stats = evolve(B, 0.0, t, rel_tol).stats
        best = min(best, time.perf_counter() - t0)
    attempted = stats.steps + stats.rejected
    return attempted, 1e6 * best / attempted


def us_per_pass(params: dict, samples: int, t: float,
                rel_tol: float) -> tuple[int, int, float]:
    """(spans of the chain, loop passes, fastest microseconds per pass) of a
    series of the scenario model ``params`` over [0, t]; a tree that joins
    the spans of a segment reports segments."""
    B, breaks = coefficient(params, t)
    times = np.linspace(0.0, t, samples)
    best = math.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        series, stats = series_of(B, breaks, times, rel_tol)
        best = min(best, time.perf_counter() - t0)
    counted = Counted(B)  # one call at the spans' starts, then one per pass
    series_of(counted, breaks, times, rel_tol)
    passes = counted.calls - 1
    return len(stats), passes, 1e6 * best / passes


def print_pass_costs(t: float, rel_tol: float) -> None:
    print(f"series of scenario models to t = {t:g}, fastest of {REPEATS}")
    print(f"{'model':>16}  {'spans':>8}  {'passes':>6}  {'us/pass':>8}")
    for label, params, samples in PASS_MODELS:
        spans, passes, us = us_per_pass(params, samples, t, rel_tol)
        print(f"{label:>16}  {spans:>8}  {passes:>6}  {us:>8.1f}")


# the samples of the evolve run of the coefficient-call figures, as many as
# the benchmark's evolution-series workload gives it
EVOLVE_SAMPLES = 35


def cli_run_figures(argv: Sequence[str]) -> tuple[int, int, int, int, int, float]:
    """(spans, calls, evaluated times, loop passes, rejected steps, step-loop
    ms) of the model's coefficient in one CLI call.

    The calls and times are counted on the coefficient that the scenario
    parser returns.  The spans handed in, the passes and the rejections are
    counted on the run's calls of ``_integrate_spans``: each evaluates B once
    at its spans' starts and once per pass, so its passes are the calls of B
    made inside it less one, and a call of B outside the step loop counts
    for none.  The milliseconds are the fastest of ``REPEATS`` uncounted
    runs' time in ``_integrate_spans``.
    """
    original_op, original_spans = cli._evolution_operator_from, cli._integrate_spans
    counted, loop = [], {"spans": 0, "passes": 0, "rejected": 0, "s": 0.0}

    def counting(params, span):
        B, *rest = original_op(params, span)
        counted.append(Counted(B))
        return (counted[-1], *rest)

    def timing(B, spans, rel_tol):
        before = getattr(B, "calls", 0)
        t0 = time.perf_counter()
        mats, stats = original_spans(B, spans, rel_tol)
        loop["s"] += time.perf_counter() - t0
        loop["spans"] += len(spans)
        loop["passes"] += getattr(B, "calls", 0) - before - 1
        loop["rejected"] += sum(st.rejected for st in stats)
        return mats, stats

    cli._integrate_spans = timing
    try:
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
            cli._evolution_operator_from = counting
            cli.main(list(argv))
            cli._evolution_operator_from = original_op
            spans, passes, rejected = loop["spans"], loop["passes"], loop["rejected"]
            best = math.inf
            for _ in range(REPEATS):
                loop["s"] = 0.0
                cli.main(list(argv))
                best = min(best, loop["s"])
    finally:
        cli._evolution_operator_from, cli._integrate_spans = original_op, original_spans
    B = counted[0]
    return spans, B.calls, B.times, passes, rejected, 1e3 * best


def group_coefficient_calls() -> tuple[int, int]:
    """(calls, evaluated times) of the two-level coefficients of verify-all's
    evolution group."""
    original, counted = verification.bagchi_hamiltonian, []

    def counting(*args):
        counted.append(Counted(original(*args)))
        return counted[-1]

    verification.bagchi_hamiltonian = counting
    try:
        verification.evolution_checks(verification.VerifyConfig())
    finally:
        verification.bagchi_hamiltonian = original
    return sum(c.calls for c in counted), sum(c.times for c in counted)


def print_coefficient_calls(t: float) -> None:
    print(f"coefficient calls, passes and rejected steps of one evolution run to "
          f"t = {t:g}; step-loop time the fastest of {REPEATS}")
    print(f"{'model':>16}  {'samples':>7}  {'spans':>5}  {'B calls':>7}  {'B times':>7}  "
          f"{'passes':>6}  {'rejected':>8}  {'loop ms':>7}")
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for label, params, samples in PASS_MODELS:
            scenario = os.path.join(tmp, f"{label}.json")
            with open(scenario, "w") as fh:
                json.dump({"name": label, "kind": "evolution",
                           "params": {**params, "t": t, "samples": samples},
                           "output": {"format": "csv",
                                      "path": os.path.join(tmp, f"{label}.csv")}}, fh)
            runs.append((label, samples, ["run", scenario]))
        runs.append(("evolve", EVOLVE_SAMPLES,
                     ["evolve", "--t", repr(t), "--samples", str(EVOLVE_SAMPLES),
                      "--out", os.path.join(tmp, "evolve.csv")]))
        for label, samples, argv in runs:
            spans, calls, times, passes, rejected, ms = cli_run_figures(argv)
            print(f"{label:>16}  {samples:>7}  {spans:>5}  {calls:>7}  {times:>7}  "
                  f"{passes:>6}  {rejected:>8}  {ms:>7.2f}")
    calls, times = group_coefficient_calls()
    print(f"{'verify-all group':>16}  {'-':>7}  {'-':>5}  {calls:>7}  {times:>7}")


# the cells of the write_csv figure: a seeded 49 x 2049 table of each kind
CSV_CELLS = {
    "17-digit": lambda rng: rng.standard_normal((49, 2049)),
    "short decimals": lambda rng: np.round(rng.uniform(-100.0, 100.0, (49, 2049)), 3),
    "integers": lambda rng: np.round(rng.uniform(-1000.0, 1000.0, (49, 2049))),
}


# (rows, columns) of the per-table write_csv figure: the largest series table
# of the benchmark's evolution-series rounds (constant-d32) and the smallest
# (the two-level cosine model), of seeded normal cells
CSV_TABLES = ((43, 2049), (35, 9))


def csv_table_ms(rows: int, columns: int) -> float:
    """Fastest ms of write_csv on a seeded normal table of rows x columns."""
    table = np.random.default_rng(0).standard_normal((rows, columns))
    header = [f"c{j}" for j in range(columns)]
    best = math.inf
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        for _ in range(REPEATS * 10):
            t0 = time.perf_counter()
            write_csv(path, header, table)
            best = min(best, time.perf_counter() - t0)
    return 1e3 * best


def print_table_costs() -> None:
    print(f"write_csv of a normal table, fastest of {REPEATS * 10}")
    for rows, columns in CSV_TABLES:
        print(f"{f'{rows} x {columns}':>16}  {csv_table_ms(rows, columns):>7.3f} ms")


def csv_ms_per_1e5_cells(kind: str) -> float:
    """Fastest ms per 10^5 cells of write_csv on the CSV_CELLS table ``kind``."""
    table = CSV_CELLS[kind](np.random.default_rng(0))
    header = [f"c{j}" for j in range(table.shape[1])]
    best = math.inf
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            write_csv(path, header, table)
            best = min(best, time.perf_counter() - t0)
    return 1e3 * best * 1e5 / table.size


# rows of the write_csv memory figure, each 2049 cells wide like a dim-32 series
CSV_PEAK_ROWS = (43, 172, 688)
# (label, dim, samples) of the evolution runs of the memory figure
PEAK_RUNS = (("constant-d16", 16, 85), ("constant-d32", 32, 43))


def _traced_peak_mb(call: Callable[[], object]) -> float:
    """The tracemalloc peak of one call, in MB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def csv_peak_mb(rows: int) -> tuple[float, float]:
    """(tracemalloc peak, file size) in MB of write_csv of a seeded normal
    table of ``rows`` x 2049 cells, once a 43-row table has been written."""
    rng = np.random.default_rng(0)
    header = [f"c{j}" for j in range(2049)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        write_csv(path, header, rng.standard_normal((43, 2049)))
        table = rng.standard_normal((rows, 2049))
        peak = _traced_peak_mb(lambda: write_csv(path, header, table))
        return peak, os.path.getsize(path) / 1e6


def run_peak_mb(dim: int, samples: int) -> float:
    """Tracemalloc peak in MB of ``focksym run`` of the constant model's
    ``evolution`` CSV scenario over [0, 5], once an identical run is done."""
    with tempfile.TemporaryDirectory() as tmp:
        scenario = os.path.join(tmp, "scenario.json")
        with open(scenario, "w") as fh:
            json.dump({"name": "peak", "kind": "evolution",
                       "params": {**constant_params(dim), "t": 5.0, "samples": samples},
                       "truncation": {"dim": dim},
                       "output": {"format": "csv", "path": os.path.join(tmp, "series.csv")}},
                      fh)
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
            cli.main(["run", scenario])
            return _traced_peak_mb(lambda: cli.main(["run", scenario]))


def print_peaks() -> None:
    print("tracemalloc peak of write_csv, rows x 2049 normal cells")
    for rows in CSV_PEAK_ROWS:
        peak, size = csv_peak_mb(rows)
        print(f"{rows:>16} rows  {peak:>7.3f} MB peak  {size:>7.2f} MB file")
    print("tracemalloc peak of one evolution run to t = 5, CSV")
    for label, dim, samples in PEAK_RUNS:
        print(f"{label:>16}  {samples:>3} samples  {run_peak_mb(dim, samples):>7.3f} MB peak")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, nargs="+", default=[2, 21, 201, 1001])
    ap.add_argument("--models", nargs="+", choices=list(MODELS), default=list(MODELS))
    ap.add_argument("--t", type=float, default=5.0, help="horizon (s = 0)")
    ap.add_argument("--rel-tol", type=float, default=1e-10)
    ap.add_argument("--out", help="optional CSV output path")
    ap.add_argument("--passes-only", action="store_true",
                    help="print only the microseconds per pass of the step loop")
    args = ap.parse_args(argv)
    if args.passes_only:
        print_pass_costs(args.t, args.rel_tol)
        print()
        print_coefficient_calls(args.t)
        print()
        print_table_costs()
        return 0

    print(f"chained series U(t_k, 0) to t = {args.t:g} at rel_tol {args.rel_tol:g}, "
          "error against DOP853 (rtol 1e-13)")
    print(f"{'model':>14}  {'samples':>7}  {'rk steps':>8}  {'passes':>6}  "
          f"{'per segment':>11}  {'B calls':>7}  {'B times/step':>12}  "
          f"{'one span':>8}  {'wall s':>8}  {'max error':>9}")
    rows = []
    for name in args.models:
        B, breaks = coefficient(MODELS[name], args.t)
        for samples in args.samples:
            steps, passes, wall, err, span, calls, times = measure(B, breaks, args.t, samples,
                                                                   args.rel_tol)
            per = steps / max(samples - 1, 1)
            print(f"{name:>14}  {samples:>7}  {steps:>8}  {passes:>6}  {per:>11.2f}  "
                  f"{calls:>7}  {times:>12.2f}  {span:>8}  {wall:>8.3f}  {err:>9.2e}")
            rows.append((name, samples, steps, passes, calls, times, span, wall, err))

    print(f"\none span of the constant model to t = {args.t:g}, "
          f"fastest of {REPEATS}")
    print(f"{'dim':>5}  {'attempted':>9}  {'us/step':>8}")
    for n in STEP_DIMS:
        attempted, us = us_per_step(n, args.t, args.rel_tol)
        print(f"{n:>5}  {attempted:>9}  {us:>8.1f}")
    print()
    print_pass_costs(args.t, args.rel_tol)
    print()
    print_coefficient_calls(args.t)
    print(f"\nwrite_csv, fastest of {REPEATS}")
    for kind in CSV_CELLS:
        print(f"{kind:>16}  {csv_ms_per_1e5_cells(kind):>6.2f} ms per 10^5 float cells")
    print()
    print_table_costs()
    print()
    print_peaks()

    if args.out:
        write_csv(args.out, ["model", "samples", "rk_steps", "passes", "b_calls",
                             "b_times_per_step", "span_steps", "wall_s", "max_error"],
                  rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
