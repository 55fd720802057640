#!/usr/bin/env python3
"""Per-layer cost of focksym, one subcommand per layer, for the tree on PYTHONPATH.

- ``wco``: cost and accuracy of ``wco_matrix`` per call, as JSON.
- ``cli``: the fixed cost of one in-process ``focksym.cli.main`` call, part
  by part; with ``--fresh``, each kind's first call in a fresh process
  against its third, and the process's max RSS.
- ``propagator``: cost and accuracy of a chained propagator time series as
  the sampling grows, then the step loop's figures per step, and per model
  its spans, coefficient calls, passes and time, and ``write_csv``'s time
  and memory.
- ``knots``: cost of evolution runs of piecewise-linear tables as their
  knots grow dense.
- ``lines``: code lines per module of the package and per script of
  ``scripts/``, without comments, docstrings or blank lines.
- ``bridge``: the exponential bridge's two routes to exp(t Q) on its
  leading columns, their time and their error against scipy, per dim.

Each subcommand's docstring says what it prints.  They share one timing
helper (:func:`timings`, for the fastest of N and for the median and
quartiles), one counting probe of the step loop (:class:`Probe`) and one
probed run of it (:func:`probed`), one scenario-file writer and one
environment record (``sweeps.environment``: python, numpy, BLAS threads and
the mantissa bits of ``np.longdouble``), printed as a line of the first
three or, by ``wco``, kept whole under ``environment``.  Spans, passes,
steps and coefficient calls repeat exactly; times move run to run on a
shared host, so fix the BLAS threads (``OPENBLAS_NUM_THREADS=1``) when
comparing two trees.

Usage:
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/layer_cost.py wco --dims 16 64
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/layer_cost.py wco --stack --dims 16 32 64 128
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/layer_cost.py cli --calls 200
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/layer_cost.py cli --fresh --processes 9
    python scripts/layer_cost.py propagator --samples 2 21 201 1001 --t 5 --out cost.csv
    PYTHONPATH=<checkout>/src python scripts/layer_cost.py propagator --passes-only
    python scripts/layer_cost.py knots --rel-tol 1e-8 1e-12 --knots 101 1001
    PYTHONPATH=src python scripts/layer_cost.py lines
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/layer_cost.py bridge --dims 16 64 256 768
"""

import argparse
import cmath
import contextlib
import functools
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize
import tracemalloc
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import scipy.integrate
import scipy.linalg

from focksym import cli, evolution, generator, verification
from focksym.conjugation import standard_conjugation
from focksym.evolution import check_evolution_axioms, evolution_series, evolve
from focksym.semigroup import DilationFamily, TranslationFamily
from focksym.serialize import write_csv
from focksym.wco import WCOParams, wco_matrices, wco_matrix
from sweeps import OFFSET_SYMBOL, environment, max_entry_error

Coefficient = Callable[[Sequence[float]], np.ndarray]  # ts -> stack of B(t)

# the rounds of every fastest-of figure; the write_csv table figure takes ten
# times as many
REPEATS = 10


# ----------------------------------------------------------------------------
# shared: timing, the probe, scenario files, the environment

@contextlib.contextmanager
def quiet():
    """Discard what the block writes to stdout and stderr."""
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null), \
            contextlib.redirect_stderr(null):
        yield


def timings(fn: Callable[[], object], rounds: int, fill: float = 0.0) -> list[float]:
    """Seconds per call of fn in each of ``rounds`` rounds, its output
    discarded.

    A round is one call.  With ``fill`` it is the mean over as many calls as
    take about ``fill`` seconds, counted after one warm-up call.  Take the
    fastest of N as ``min``, and the median and quartiles through
    ``statistics.quantiles``.
    """
    with quiet():
        calls = 1
        if fill:
            fn()
            t0, calls = time.perf_counter(), 0
            while time.perf_counter() - t0 < fill:
                fn()
                calls += 1
        out = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            out.append((time.perf_counter() - t0) / calls)
    return out


class Counted:
    """B with counters of its calls and of the times it is evaluated at."""

    def __init__(self, B: Coefficient):
        self.B = B
        self.calls = self.times = 0

    def __call__(self, ts: Sequence[float]) -> np.ndarray:
        self.calls += 1
        self.times += len(ts)
        return self.B(ts)


class Probe:
    """While active, counts the step loop ``evolution._integrate_spans``, at
    every module of the package that binds it.

    It keeps the spans handed to the loop, the calls of B made inside it
    and the times B is evaluated at, its passes, accepted and rejected steps
    and the seconds spent in it.  Each call of the loop evaluates B once at
    its spans' starts and once per pass, so its passes are its calls of B
    less one, and a call of B outside the loop counts for none.  With
    ``count`` false it only times the loop, B uncounted.
    """

    def __init__(self, count: bool = True):
        self.count = count
        self.spans = self.calls = self.times = self.passes = self.steps = self.rejected = 0
        self.loop_s = 0.0

    def _integrate(self, B: Coefficient, spans: Sequence[tuple[float, float]],
                   rel_tol: float):
        if self.count:
            B = Counted(B)
        t0 = time.perf_counter()
        mats, stats = self._loop(B, spans, rel_tol)
        self.loop_s += time.perf_counter() - t0
        if self.count:
            self.spans += len(spans)
            self.calls += B.calls
            self.times += B.times
            self.passes += B.calls - 1
            self.steps += sum(st.steps for st in stats)
            self.rejected += sum(st.rejected for st in stats)
        return mats, stats

    def __enter__(self) -> "Probe":
        self._loop = evolution._integrate_spans
        self._bound = [mod for name, mod in list(sys.modules.items())
                       if name.partition(".")[0] == "focksym"
                       and getattr(mod, "_integrate_spans", None) is self._loop]
        for mod in self._bound:
            mod._integrate_spans = self._integrate
        return self

    def __exit__(self, *exc) -> None:
        for mod in self._bound:
            mod._integrate_spans = self._loop


def probed(fn: Callable[[], object], repeats: int) -> tuple[object, Probe, float, float]:
    """fn's result and the :class:`Probe` of one counted call, then the
    fastest step-loop seconds and the fastest wall seconds of ``repeats``
    more calls, B uncounted."""
    with Probe() as probe:
        result = fn()
    loop = wall = math.inf
    with Probe(count=False) as timer:
        for _ in range(repeats):
            t0, before = time.perf_counter(), timer.loop_s
            fn()
            wall = min(wall, time.perf_counter() - t0)
            loop = min(loop, timer.loop_s - before)
    return result, probe, loop, wall


def write_scenario(directory: str, name: str, kind: str, params: dict, output: dict,
                   **fields) -> str:
    """Write the scenario ``name`` to ``directory``/name.json and return its
    path; ``fields`` such as ``truncation`` go in as they are."""
    path = os.path.join(directory, f"{name}.json")
    with open(path, "w") as fh:
        json.dump({"name": name, "kind": kind, "params": params, **fields,
                   "output": output}, fh)
    return path


def environment_line() -> str:
    return "python {python}, numpy {numpy}, BLAS threads {blas_threads}".format(
        **environment())


# ----------------------------------------------------------------------------
# models

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


def coefficient(params: dict, t: float,
                rel_tol: float) -> tuple[Coefficient, list[float], np.ndarray | None]:
    """The coefficient that the scenario parser builds from ``params`` for
    [0, t], its breaks at ``rel_tol``, and the matrix of a constant
    coefficient (None for the others)."""
    B, breaks_at, _, _, M = cli._evolution_operator_from(params, (0.0, t))
    return B, breaks_at(rel_tol), M


# ----------------------------------------------------------------------------
# wco

STACK_SIZES = (1, 10, 80)

# the offset conjugation's symbol, which takes the column recurrence, and a
# rotated diagonal conjugation's, which takes the running product
WCO_SYMBOLS = {"offset": OFFSET_SYMBOL,
               "diagonal": WCOParams(cmath.exp(0.7j), 0.0, 1j, 0.0)}


# seconds of calls in each round of a wco figure
WCO_FILL = 0.1


def wco_ms(build: Callable[[], object], repeats: int) -> float:
    """Median ms per call of ``repeats`` rounds, each about ``WCO_FILL`` s of calls."""
    return 1e3 * statistics.median(timings(build, repeats, fill=WCO_FILL))


def stack_costs(p: WCOParams, dim: int, repeats: int) -> dict:
    """Microseconds per matrix of p, alone and in each stack size, by column count."""
    out = {}
    for label, ncols in (("1", 1), ("5", min(5, dim)), ("full", None)):
        row = {"alone": wco_ms(lambda: wco_matrix(p, dim, ncols), repeats) * 1e3}
        for size in STACK_SIZES:
            symbols = WCOParams(*(np.full(size, complex(getattr(p, k))) for k in "ABCD"))
            row[str(size)] = wco_ms(lambda: wco_matrices(symbols, dim, ncols), repeats) * 1e3 / size
        out[label] = {k: round(v, 2) for k, v in row.items()}
    return out


def wco_costs(args) -> int:
    """Cost and accuracy of ``wco_matrix`` per call, as JSON.

    For each dim and each symbol of ``WCO_SYMBOLS`` (the offset conjugation's
    (1, i, e^{-1/2}, i), built by the column recurrence, and the diagonal
    (e^{0.7i}, 0, i, 0), built as one running product), it times the symbol
    built full and with 5 columns (the median of ``--repeats`` rounds, each
    the mean over as many calls as fill ``WCO_FILL``, 0.1 s), and its largest
    entry error relative to the largest entry against the 30-digit sum of
    ``sweeps.py entries``.  The environment holds the python and numpy
    versions, the BLAS threads and the mantissa bits of ``np.longdouble``.

    With ``--stack`` it times stacked builds instead: for each dim, symbol
    and 1, 5 and all columns, the microseconds per matrix of ``wco_matrix``
    alone and of ``wco_matrices`` over stacks of 1, 10 and 80 copies of the
    symbol, timed as above.  The cost depends on the symbol's route, not on
    its values: a symbol with B = D = 0 and finite A and C takes the running
    product, every other one the recurrence.
    """
    out = {"environment": environment(), "dims": {}}
    for dim in args.dims:
        row = out["dims"][str(dim)] = {}
        for name, p in WCO_SYMBOLS.items():
            if args.stack:
                row[name] = {"us_per_matrix": stack_costs(p, dim, args.repeats)}
                continue
            _, rel = max_entry_error(p, dim)
            row[name] = {
                "ms_full": round(wco_ms(lambda: wco_matrix(p, dim), args.repeats), 4),
                "ms_ncols5": round(wco_ms(lambda: wco_matrix(p, dim, min(5, dim)), args.repeats), 4),
                "rel_error": float(f"{rel:.4g}"),
            }
    print(json.dumps(out, indent=1))
    return 0


# ----------------------------------------------------------------------------
# cli

SCENARIO = {"name": "cli-cost", "kind": "conjugation-check",
            "params": {"a": [math.cos(0.7), math.sin(0.7)], "c": [0.0, 1.0]},
            "truncation": {"dim": 32}, "output": {"format": "json"}}
WCO_SCENARIO = {"name": "cli-cost-wco", "kind": "wco",
                "params": {"A": 0.5, "B": 0.3, "D": [0.3, -0.05]},
                "truncation": {"dim": 2000}, "output": {"format": "json"}}


def cli_costs(args) -> int:
    """Fixed cost of one in-process ``focksym.cli.main`` call, part by part.

    Prints the environment, then the median and quartiles over ``--calls``
    calls, in milliseconds, of:

    - ``build``: one argument parser built afresh
      (``cli._build_parser.__wrapped__``);
    - ``parse``: ``parse_args`` of a ``run`` command line on a parser built
      once;
    - ``validate`` and ``run``: ``main`` on one fixed light scenario, a
      ``conjugation-check`` at dim 32 with a JSON report, its output
      discarded;
    - ``validate-wco``: ``main`` validating a ``wco`` scenario at dim 2000,
      whose run would assemble a 2000 x 2000 matrix.  ``validate`` computes
      nothing, so it costs what the dim-32 ``validate`` costs.

    With ``--fresh`` it prints :func:`fresh_costs` instead.
    """
    if args.fresh:
        return fresh_costs(args)
    build = cli._build_parser.__wrapped__
    parser = build()
    print(environment_line())
    with tempfile.TemporaryDirectory() as tmp:
        os.environ["FOCKSYM_OUTPUT_DIR"] = os.path.join(tmp, "out")
        scenario, wco = write_scenario(tmp, **SCENARIO), write_scenario(tmp, **WCO_SCENARIO)
        run_argv = ["run", scenario, "--seed", "3"]
        parts = {
            "build": build,
            "parse": lambda: parser.parse_args(run_argv),
            "validate": lambda: cli.main(["validate", scenario]),
            "run": lambda: cli.main(run_argv),
            "validate-wco": lambda: cli.main(["validate", wco]),
        }
        print(f"{'part':>12}  {'median ms':>9}  {'q1 ms':>7}  {'q3 ms':>7}  (of {args.calls})")
        for name, fn in parts.items():
            q1, median, q3 = (1e3 * q for q in statistics.quantiles(
                timings(fn, args.calls), n=4, method="inclusive"))
            print(f"{name:>12}  {median:>9.3f}  {q1:>7.3f}  {q3:>7.3f}")
    return 0


_STD_CONJ = {"a": 1.0, "b": 0.0, "c": 1.0}
# (kind, dim, format, params) of each --fresh row: a light scenario of every
# kind.  The semigroup and evolution rows write a float table through the
# CSV kernel, and the semigroup and full-verify rows integrate with the
# Gauss-Legendre rule
FRESH_SCENARIOS = (
    ("conjugation-check", 32, "json", {}),
    ("wco", 32, "csv", {"A": 0.5, "B": 0.3, "D": [0.3, -0.05]}),
    ("semigroup", 32, "csv", {"family": {"variant": "translation", "E": [0.6, 0.2],
                                         "F": 0.1, "conjugation": _STD_CONJ}}),
    ("generator", 32, "json", {"family": {"variant": "dilation", "ell": -1.0, "G": 1.0,
                                          "H": 0.1, "conjugation": _STD_CONJ}}),
    ("spectrum", 48, "csv", {"family": {"variant": "dilation", "ell": -0.6, "G": 0.4,
                                        "H": 0.1, "conjugation": _STD_CONJ}}),
    ("evolution", 2, "csv", {"B": "bagchi", "t": 1.0, "samples": 11}),
    ("full-verify", 8, "json", {}),
)

# the child of a --fresh row: three timed main calls, then the peak RSS of
# its own address space (VmHWM; ru_maxrss would keep the forking parent's)
_FRESH_CHILD = """
import contextlib, json, os, sys, time
from focksym import cli
ms = []
with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
    for _ in range(3):
        t0 = time.perf_counter()
        cli.main(sys.argv[1:])
        ms.append(1e3 * (time.perf_counter() - t0))
with open("/proc/self/status") as fh:
    hwm = next(line for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"first": ms[0], "third": ms[2], "rss": int(hwm.split()[1]) / 1024}))
"""


def fresh_costs(args) -> int:
    """Each kind's first ``main`` call in a fresh process against its third.

    For each scenario of ``FRESH_SCENARIOS``, ``--processes`` fresh Python
    processes each import ``focksym.cli`` from this tree, then call ``main``
    on ``run`` of the scenario three times.  Prints the environment, then
    per scenario the medians over the processes of the first and the third
    call in ms and of the process's peak RSS in MB (``VmHWM`` after the
    third call).  The first call pays what a process builds on first use;
    the third pays only the run.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    print(environment_line())
    print(f"{'scenario':<24}  {'first_ms':>8}  {'third_ms':>8}  {'maxrss_mb':>9}  "
          f"(median of {args.processes})")
    with tempfile.TemporaryDirectory() as tmp:
        env["FOCKSYM_OUTPUT_DIR"] = os.path.join(tmp, "out")
        for kind, dim, fmt, params in FRESH_SCENARIOS:
            label = f"{kind}-d{dim}-{fmt}"
            path = write_scenario(tmp, label, kind, params, {"format": fmt},
                                  truncation={"dim": dim})
            runs = []
            for _ in range(args.processes):
                proc = subprocess.run([sys.executable, "-c", _FRESH_CHILD, "run", path],
                                      env=env, capture_output=True, text=True, check=True)
                runs.append(json.loads(proc.stdout.splitlines()[-1]))
            first, third, rss = (statistics.median(run[k] for run in runs)
                                 for k in ("first", "third", "rss"))
            print(f"{label:<24}  {first:>8.2f}  {third:>8.2f}  {rss:>9.1f}", flush=True)
    return 0


# ----------------------------------------------------------------------------
# propagator

STEP_DIMS = (1, 2, 3, 16, 32, 64)

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

# (label, scenario params, samples) of the step-loop table: the two-level
# cosine model at dim 2, a six-knot table at dim 3, constant models at dims
# 16 and 32 and ``focksym evolve``'s default two-level model (kappa 0.3,
# lam 1), each a series over [0, 5] with the sample count that the
# benchmark's evolution-series workload gives it
PASS_MODELS = (
    ("bagchi-cosine-d2", MODELS["bagchi-cosine"], 35),
    ("table-d3", MODELS["table-d3"], 37),
    ("constant-d16", MODELS["constant-d16"], 85),
    ("constant-d32", MODELS["constant-d32"], 43),
    ("evolve", {"B": "bagchi", "kappa": 0.3, "lam": 1.0}, 35),
)


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


def series(params: dict, t: float, samples: int, rel_tol: float) -> Callable[[], tuple]:
    """The ``evolution`` run of the scenario model ``params`` over [0, t]:
    ``evolution_series`` of the parser's coefficient, breaks and matrix."""
    B, breaks, M = coefficient(params, t, rel_tol)
    return functools.partial(evolution_series, B, (0.0, t), samples, rel_tol, breaks, M)


def measure(params: dict, t: float, samples: int,
            rel_tol: float) -> tuple[Probe, float, float, int]:
    """The :class:`Probe` of one :func:`series` run, the wall seconds of one
    more, its max entry error vs DOP853, and the steps of one span U(t, 0)."""
    B, breaks, _ = coefficient(params, t, rel_tol)
    (times, chain, _), probe, _, wall = probed(series(params, t, samples, rel_tol), 1)
    err = float(np.max(np.abs(chain - dop853_series(B, times, breaks))))
    # one span U(t, 0), cut at the breaks inside it as a chain is
    cuts = [0.0, *sorted({float(b) for b in breaks if 0.0 < b < t}), t]
    _, span = evolution._integrate_spans(B, list(zip(cuts[:-1], cuts[1:])), rel_tol)
    return probe, wall, err, sum(st.steps for st in span)


def per(total: float, count: int) -> str:
    """total / count to one decimal, or ``-`` when there is no count."""
    return f"{total / count:.1f}" if count else "-"


def us_per_step(n: int, t: float, rel_tol: float) -> tuple[int, str]:
    """(attempted steps, fastest microseconds per attempted step as
    :func:`per` prints them) of U(t, 0)."""
    B, _, _ = coefficient(constant_params(n), t, rel_tol)
    stats = evolve(B, 0.0, t, rel_tol).stats
    attempted = stats.steps + stats.rejected
    return attempted, per(1e6 * min(timings(lambda: evolve(B, 0.0, t, rel_tol), REPEATS)),
                          attempted)


def print_loop_costs(t: float, rel_tol: float) -> None:
    """One table of the step loop, a row per ``evolution`` run over [0, t]
    of each of ``PASS_MODELS`` (:func:`series`) and a last row for
    ``verify-all``'s evolution group, whose figures do not depend on the
    dim.  A row holds the spans, the calls and evaluated times of B inside
    the loop, the passes and the rejected steps of one call
    (:class:`Probe`), then the fastest of ``REPEATS`` more calls' step-loop
    ms and wall microseconds per pass (:func:`probed`), ``-`` for a run of
    no pass."""
    print(f"step loop of one evolution run to t = {t:g}; times the fastest of {REPEATS}")
    print(f"{'model':>16}  {'samples':>7}  {'spans':>5}  {'B calls':>7}  {'B times':>7}  "
          f"{'passes':>6}  {'rejected':>8}  {'loop ms':>7}  {'us/pass':>8}")
    runs = [(label, samples, series(params, t, samples, rel_tol))
            for label, params, samples in PASS_MODELS]
    runs.append(("verify-all group", "-",
                 lambda: verification.evolution_checks(verification.VerifyConfig())))
    for label, samples, run in runs:
        _, probe, loop, wall = probed(run, REPEATS)
        print(f"{label:>16}  {samples:>7}  {probe.spans:>5}  {probe.calls:>7}  "
              f"{probe.times:>7}  {probe.passes:>6}  {probe.rejected:>8}  "
              f"{1e3 * loop:>7.2f}  {per(1e6 * wall, probe.passes):>8}")


# the cells of the write_csv figure: a seeded 49 x 2049 table of each kind,
# as wide as a dim-32 series
CSV_CELLS = {
    "17-digit": lambda rng: rng.standard_normal((49, 2049)),
    "short decimals": lambda rng: np.round(rng.uniform(-100.0, 100.0, (49, 2049)), 3),
    "integers": lambda rng: np.round(rng.uniform(-1000.0, 1000.0, (49, 2049))),
}

# (rows, columns) of the per-table write_csv figure: the largest series table
# of the benchmark's evolution-series rounds (constant-d32) and the smallest
# (the two-level cosine model), of seeded normal cells
CSV_TABLES = ((43, 2049), (35, 9))


def csv_write_s(table: np.ndarray, rounds: int) -> float:
    """Fastest seconds of ``rounds`` write_csv calls of the float ``table``."""
    header = [f"c{j}" for j in range(table.shape[1])]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        return min(timings(lambda: write_csv(path, header, table), rounds))


def print_table_costs() -> None:
    print(f"write_csv of a normal table, fastest of {REPEATS * 10}")
    for rows, columns in CSV_TABLES:
        table = np.random.default_rng(0).standard_normal((rows, columns))
        print(f"{f'{rows} x {columns}':>16}  {1e3 * csv_write_s(table, REPEATS * 10):>7.3f} ms")


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
        scenario = write_scenario(tmp, "peak", "evolution",
                                  {**constant_params(dim), "t": 5.0, "samples": samples},
                                  {"format": "csv", "path": os.path.join(tmp, "series.csv")},
                                  truncation={"dim": dim})
        with quiet():
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


def propagator_costs(args) -> int:
    """Cost and accuracy of a chained propagator time series as the sampling
    grows, and the step loop's and ``write_csv``'s figures.

    The series table runs ``evolution_series``, the routine of an
    ``evolution`` run, for U(t_k, 0), t_k = k t / (samples - 1), over each of
    ``MODELS``, built by the scenario parser from its params with the
    breaks and constant matrix it names.  It prints the Runge-Kutta steps of
    every span the run integrates, the passes of the step loop (each pass
    attempts one step of every unfinished span of a batch), the calls of B
    and its evaluated times per accepted step (five per attempted step,
    plus one per span), the steps of one span U(t, 0) cut at the breaks, the
    run's wall time, and the largest entry error of the series against
    scipy's DOP853 at rtol 1e-13, restarted at every sample time and break.
    A segment costs at least about four steps (its first trial step is
    span/50 and grows at most fivefold per step).

    Then: the microseconds per attempted step of one span U(t, 0) of the
    constant model at each of ``STEP_DIMS``; the step-loop table of
    :func:`print_loop_costs`; ``write_csv``'s ms per 10^5 cells of
    each of ``CSV_CELLS`` and per table of each of ``CSV_TABLES``; and two
    tracemalloc peaks, each after one untraced warm-up call: ``write_csv``
    of ``CSV_PEAK_ROWS`` rows beside the size of its file, and one
    ``focksym run`` of each of ``PEAK_RUNS``.  Every time is the fastest of
    ``REPEATS``, the per-table one of ten times as many.

    ``--passes-only`` prints the step-loop table and the per-table
    ``write_csv`` figure alone.
    """
    print(environment_line())
    if args.passes_only:
        print_loop_costs(args.t, args.rel_tol)
        print()
        print_table_costs()
        return 0

    print(f"evolution runs of the series U(t_k, 0) to t = {args.t:g} at rel_tol "
          f"{args.rel_tol:g}, error against DOP853 (rtol 1e-13)")
    print(f"{'model':>14}  {'samples':>7}  {'rk steps':>8}  {'passes':>6}  "
          f"{'per segment':>11}  {'B calls':>7}  {'B times/step':>12}  "
          f"{'one span':>8}  {'wall s':>8}  {'max error':>9}")
    rows = []
    for name in args.models:
        for samples in args.samples:
            probe, wall, err, span = measure(MODELS[name], args.t, samples, args.rel_tol)
            per = probe.steps / max(samples - 1, 1)
            times = probe.times / max(probe.steps, 1)
            print(f"{name:>14}  {samples:>7}  {probe.steps:>8}  {probe.passes:>6}  "
                  f"{per:>11.2f}  {probe.calls:>7}  {times:>12.2f}  {span:>8}  "
                  f"{wall:>8.3f}  {err:>9.2e}")
            rows.append((name, samples, probe.steps, probe.passes, probe.calls, times,
                         span, wall, err))

    print(f"\none span of the constant model to t = {args.t:g}, "
          f"fastest of {REPEATS}")
    print(f"{'dim':>5}  {'attempted':>9}  {'us/step':>8}")
    for n in STEP_DIMS:
        attempted, us = us_per_step(n, args.t, args.rel_tol)
        print(f"{n:>5}  {attempted:>9}  {us:>8}")
    print()
    print_loop_costs(args.t, args.rel_tol)
    print(f"\nwrite_csv, fastest of {REPEATS}")
    for kind, cells in CSV_CELLS.items():
        table = cells(np.random.default_rng(0))
        ms = 1e3 * csv_write_s(table, REPEATS) * 1e5 / table.size
        print(f"{kind:>16}  {ms:>6.2f} ms per 10^5 float cells")
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


# ----------------------------------------------------------------------------
# knots

KNOTS = (6, 21, 101, 1001)
EPS = (0.0, 1e-4, 1e-3, 3e-3, 1e-2, 1e-1, 1.0)
KNOT_REPEATS = 5


def table_params(kind: str, knots: int) -> dict:
    times = [5.0 * i / (knots - 1) for i in range(knots)]
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


def knots_costs(args) -> int:
    """Cost of evolution runs of piecewise-linear tables as their knots grow
    dense.

    Runs the ``evolution`` run (:func:`series`) of a dim-3 table with
    ``--knots`` equally spaced knots over [0, 5], 37 samples, at each
    ``--rel-tol``, and prints the spans the run hands to the step loop, its
    passes, its attempted and rejected steps (:class:`Probe`), the fastest of
    ``KNOT_REPEATS`` runs' milliseconds in the step loop (:func:`probed`),
    and its ``evolution.composition`` residual (``check_evolution_axioms``
    of the run's axioms) over rel_tol.  Two kinds of table:

    - ``random``: the fixed damped spectrum of :func:`constant_matrix` in a
      seeded basis at each knot, the benchmark's table shape, which bends by
      about max|B| at every knot;
    - ``eps<e>``: samples of -i/2 (B0 + e (cos(1.3 t) B1 + sin(0.7 t + 0.2) B2))
      for seeded complex symmetric B0, B1, B2, whose bends shrink with e and
      with the knot spacing (e = 0 holds one matrix at every knot).
    """
    kinds = ["random"] + [f"eps{e:g}" for e in EPS]
    print(environment_line())
    print(f"evolution runs of dim-3 tables over [0, 5], 37 samples; "
          f"step-loop ms the fastest of {KNOT_REPEATS}")
    print(f"{'rel_tol':>7}  {'knots':>5}  {'table':>9}  {'spans':>5}  {'passes':>6}  "
          f"{'attempts':>8}  {'rejected':>8}  {'loop ms':>8}  {'comp/tol':>8}")
    for rel_tol in args.rel_tol:
        for knots in args.knots:
            for kind in kinds:
                run = series(table_params(kind, knots), 5.0, 37, rel_tol)
                (_, _, axioms), probe, loop, _ = probed(run, KNOT_REPEATS)
                _, composition = check_evolution_axioms(axioms)
                print(f"{rel_tol:>7g}  {knots:>5}  {kind:>9}  {probe.spans:>5}  "
                      f"{probe.passes:>6}  {probe.steps + probe.rejected:>8}  "
                      f"{probe.rejected:>8}  {1e3 * loop:>8.2f}  "
                      f"{composition / rel_tol:>8.2g}", flush=True)
    return 0


# ----------------------------------------------------------------------------
# lines: code size

# tokens that hold no code, and those that end or open a statement's line
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(source: str) -> int:
    """Lines of Python source that hold code: every line a token other than
    a comment spans, except the lines of a docstring, a string that is a
    statement by itself.  A statement over several lines counts each."""
    lines: set[int] = set()
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    prev = tokenize.NEWLINE
    for tok, after in zip(tokens, tokens[1:] + tokens[-1:]):
        if tok.type in _LAYOUT:
            prev = tok.type if tok.type in _STATEMENT_START else prev
            continue
        docstring = (tok.type == tokenize.STRING and prev in _STATEMENT_START
                     and after.type in (tokenize.NEWLINE, tokenize.ENDMARKER))
        if not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
        prev = tok.type
    return len(lines)


def lines_costs(args) -> int:
    """Code lines per module of the package and per script, and their totals.

    Comments, docstrings and blank lines are not counted
    (:func:`code_lines`).  The first table reads the ``*.py`` files of the
    focksym package imported, that is of the tree on PYTHONPATH; the second,
    after a blank line, those of this script's directory.
    """
    for i, (label, directory) in enumerate([("module", Path(cli.__file__).parent),
                                            ("script", Path(__file__).parent)]):
        counts = {f.name: code_lines(f.read_text()) for f in sorted(directory.glob("*.py"))}
        width = max(map(len, [*counts, label]))
        if i:
            print()
        print(f"{label:<{width}}  {'lines':>5}")
        for name, n in counts.items():
            print(f"{name:<{width}}  {n:>5}")
        print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


# ----------------------------------------------------------------------------
# bridge: the exponential's action on the generator's leading columns

BRIDGE_DIMS = (16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768)
BRIDGE_TIMES = (0.1, 0.25, 0.5)
BRIDGE_COLUMNS = 6


@contextlib.contextmanager
def bridge_route(products_per_dim_squared: float):
    """Run the block with ``generator.ACTION_PRODUCTS_PER_DIM_SQUARED`` set:
    inf takes the Taylor route on every input, 0 the dense one."""
    kept = generator.ACTION_PRODUCTS_PER_DIM_SQUARED
    generator.ACTION_PRODUCTS_PER_DIM_SQUARED = products_per_dim_squared
    try:
        yield
    finally:
        generator.ACTION_PRODUCTS_PER_DIM_SQUARED = kept


def bridge_limit(dim: int) -> float:
    """The most products of a plan that the route rule takes the Taylor route on."""
    return generator.ACTION_PRODUCTS_PER_DIM_SQUARED * dim**2


def bridge_products(fam, dim: int) -> int:
    """The products m s of the Taylor route's plan, summed over the chain."""
    _, _, plans = generator._exponential_plan(fam, BRIDGE_TIMES, dim)
    return int(sum(degree * s for _, degree, s in plans))


def bridge_routes(fam, dim: int, repeats: int) -> dict[str, tuple[float, float]]:
    """(fastest ms of ``repeats`` calls, largest entry error relative to the
    largest entry against ``scipy.linalg.expm``) of each route."""
    Q = generator.generator_matrix(fam, dim)
    ref = np.stack([scipy.linalg.expm(t * Q)[:, :BRIDGE_COLUMNS] for t in BRIDGE_TIMES])
    out = {}
    for name, limit in (("taylor", math.inf), ("dense", 0.0)):
        with bridge_route(limit):
            def call():
                return generator.generator_exponential_columns(fam, BRIDGE_TIMES, dim,
                                                               BRIDGE_COLUMNS)
            err = float(np.max(np.abs(call() - ref)) / np.max(np.abs(ref)))
            out[name] = (1e3 * min(timings(call, repeats)), err)
    return out


def boundary_family(variant: str, dim: int):
    """The translation (E, 0) or dilation (-ell, 0.5, 0) of the standard
    conjugation with the largest size up to 10 whose plan is at most
    :func:`bridge_limit`, the dearest input of the Taylor route, and whether
    the search was capped: a size of 10 is the search's cap, since at dim 512
    the dense exponential of a translation of size 30 leaves the double
    range, and where size 10 is inside the rule (from dim 192 for the
    translation, 512 for the dilation) the family is the cap, not the edge."""
    make = {"translation": lambda x: TranslationFamily(E=x, F=0.0, conj=standard_conjugation()),
            "dilation": lambda x: DilationFamily(ell=-x, G=0.5, H=0.0,
                                                 conj=standard_conjugation())}[variant]
    lo, hi = 1e-6, 10.0
    if bridge_products(make(hi), dim) <= bridge_limit(dim):
        return make(hi), True
    for _ in range(50):  # bisection in log(size)
        mid = math.sqrt(lo * hi)
        if bridge_products(make(mid), dim) <= bridge_limit(dim):
            lo = mid
        else:
            hi = mid
    return make(lo), False


def bridge_costs(args) -> int:
    """Time and error of both routes of ``generator_exponential_columns``.

    For the suite's translation and dilation fixtures (the families of the
    ``generator-fd`` group) at each dim, with t in {0.1, 0.25, 0.5} on the
    leading 6 columns as ``generator.exponential-bridge`` takes them, it
    prints the route the rule takes, the plan's products (m s summed over
    the chain's steps), the fastest of ``--repeats`` calls of each route in
    ms, ``even``, the products per dim^2 at which the Taylor route, at its
    ms per product here, would cost what the dense one costs, and each
    route's largest entry error relative to the largest entry against
    ``scipy.linalg.expm``.  The rule takes the Taylor route while the
    products are at most ``ACTION_PRODUCTS_PER_DIM_SQUARED`` (printed first)
    times dim^2.

    A second table, after a blank line, times the rule's boundary: at each
    dim, the translation and the dilation of :func:`boundary_family`, with
    the ratio of the Taylor route's ms to the dense route's, and ``edge``
    where the family is the rule's edge or ``capped`` where the search's
    cap lies inside the rule.
    """
    print(environment_line())
    print(f"ACTION_PRODUCTS_PER_DIM_SQUARED {generator.ACTION_PRODUCTS_PER_DIM_SQUARED:g}")
    print(f"{'dim':>4}  {'family':<11}  {'route':<6}  {'products':>8}  {'taylor_ms':>9}  "
          f"{'dense_ms':>9}  {'even':>6}  {'taylor_err':>10}  {'dense_err':>9}")
    for dim in args.dims:
        for fam in verification._GEN_FAMILIES:
            products = bridge_products(fam, dim)
            route = "taylor" if products <= bridge_limit(dim) else "dense"
            row = bridge_routes(fam, dim, args.repeats)
            even = row["dense"][0] / (row["taylor"][0] / products) / dim**2
            print(f"{dim:>4}  {fam.variant:<11}  {route:<6}  {products:>8}  "
                  f"{row['taylor'][0]:>9.3f}  {row['dense'][0]:>9.3f}  {even:>6.3f}  "
                  f"{row['taylor'][1]:>10.2e}  {row['dense'][1]:>9.2e}", flush=True)
    print(f"\n{'boundary':>8}  {'family':<11}  {'size':>8}  {'products':>8}  {'taylor_ms':>9}  "
          f"{'dense_ms':>9}  {'ratio':>5}  at")
    for dim in args.dims:
        for variant in ("translation", "dilation"):
            fam, capped = boundary_family(variant, dim)
            row = bridge_routes(fam, dim, args.repeats)
            size = abs(fam.E if variant == "translation" else fam.ell)
            print(f"{dim:>8}  {variant:<11}  {size:>8.3g}  {bridge_products(fam, dim):>8}  "
                  f"{row['taylor'][0]:>9.3f}  {row['dense'][0]:>9.3f}  "
                  f"{row['taylor'][0] / row['dense'][0]:>5.2f}  "
                  f"{'capped' if capped else 'edge'}", flush=True)
    return 0


# ----------------------------------------------------------------------------

def at_least(low: float, kind: type) -> Callable[[str], float]:
    """An argparse type: ``kind`` of the argument, which must be ``>= low``."""
    def parse(text: str):
        value = kind(text)
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be >= {low:g}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in an unparsable argument's message
    return parse


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="layer", required=True)

    p = sub.add_parser("wco", help=wco_costs.__doc__.splitlines()[0])
    p.add_argument("--dims", type=int, nargs="+", default=[16, 32, 64, 128, 256])
    p.add_argument("--repeats", type=int, default=7)
    p.add_argument("--stack", action="store_true",
                   help="microseconds per matrix of stacked builds instead")
    p.set_defaults(fn=wco_costs)

    p = sub.add_parser("cli", help=cli_costs.__doc__.splitlines()[0])
    p.add_argument("--calls", type=int, default=200)
    p.add_argument("--fresh", action="store_true",
                   help="each kind's first call in a fresh process against its third")
    p.add_argument("--processes", type=int, default=9,
                   help="fresh processes per scenario of --fresh")
    p.set_defaults(fn=cli_costs)

    p = sub.add_parser("propagator", help=propagator_costs.__doc__.splitlines()[0])
    p.add_argument("--samples", type=int, nargs="+", default=[2, 21, 201, 1001])
    p.add_argument("--models", nargs="+", choices=list(MODELS), default=list(MODELS))
    p.add_argument("--t", type=at_least(0, float), default=5.0, help="horizon (s = 0)")
    p.add_argument("--rel-tol", type=float, default=1e-10)
    p.add_argument("--out", help="optional CSV output path")
    p.add_argument("--passes-only", action="store_true",
                   help="print only the step-loop table and the per-table write_csv figure")
    p.set_defaults(fn=propagator_costs)

    p = sub.add_parser("knots", help=knots_costs.__doc__.splitlines()[0])
    p.add_argument("--knots", type=at_least(2, int), nargs="+", default=list(KNOTS))
    p.add_argument("--rel-tol", type=float, nargs="+", default=[1e-10])
    p.set_defaults(fn=knots_costs)

    p = sub.add_parser("lines", help=lines_costs.__doc__.splitlines()[0])
    p.set_defaults(fn=lines_costs)

    p = sub.add_parser("bridge", help=bridge_costs.__doc__.splitlines()[0])
    p.add_argument("--dims", type=int, nargs="+", default=list(BRIDGE_DIMS))
    p.add_argument("--repeats", type=int, default=REPEATS)
    p.set_defaults(fn=bridge_costs)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
