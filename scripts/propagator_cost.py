#!/usr/bin/env python3
"""Cost and accuracy of a chained propagator time series as the sampling grows.

Builds the series U(t_k, 0), t_k = k t / (samples - 1), with
``evolution_series`` (one Dormand-Prince segment per sample interval, chained
through U(t_k, 0) = U(t_k, t_{k-1}) U(t_{k-1}, 0)) and prints its Runge-Kutta
steps, its wall time, the steps of one unbroken span U(t, 0), and the largest
entry error over all samples against scipy's DOP853 at rtol 1e-13.  A second,
untimed pass through a counting wrapper of the operator gives the evaluations
of B and the products B(t) @ Y per accepted step: five and six per attempted
step (stage 1 is the previous step's stage 7), plus one of each per segment.

Models: the two-level Bagchi model with cosine detuning and coupling, and
constant complex symmetric generators B = -i O diag(spectrum) O^T at d16 and
d32 (oscillation with damping up to 0.3).  A segment costs at least about
four steps (its first trial step is span/50 and grows at most fivefold per
step), so dense sampling settles near four steps per sample.

Usage:
    python scripts/propagator_cost.py --samples 2 21 201 1001 --t 5 --out cost.csv
"""

import argparse
import math
import sys
import time

import numpy as np
import scipy.integrate

from focksym.evolution import (
    BagchiParams,
    TimeDependentOperator,
    bagchi_hamiltonian,
    constant_operator,
    evolution_series,
    evolve,
)
from focksym.serialize import write_csv


def bagchi_cosine() -> TimeDependentOperator:
    return bagchi_hamiltonian(BagchiParams(
        nu=1.0,
        kappa=lambda t: 0.4 * math.cos(1.3 * t + 0.3),
        lam=lambda t: math.cos(0.7 * t + 1.1),
    ))


def constant_model(n: int, seed: int = 0) -> TimeDependentOperator:
    g = np.random.default_rng(seed).standard_normal((n, n))
    q, r = np.linalg.qr(g)
    O = q * np.sign(np.diag(r))
    spectrum = np.linspace(-1.0, 1.0, n) - 1j * np.linspace(0.0, 0.3, n)
    return constant_operator(-1j * (O * spectrum) @ O.T)


MODELS = {
    "bagchi-cosine": bagchi_cosine,
    "constant-d16": lambda: constant_model(16),
    "constant-d32": lambda: constant_model(32),
}


class _Values:
    """One value of B(t); counts the products taken of it."""

    def __init__(self, counts: "Counted", M: np.ndarray):
        self.counts, self.M = counts, M

    def __matmul__(self, Y: np.ndarray) -> np.ndarray:
        self.counts.products += 1
        return self.M @ Y


class Counted:
    """B with counters of its evaluations and of the products taken of them."""

    def __init__(self, B: TimeDependentOperator):
        self.B, self.dim = B, B.dim
        self.evals = self.products = 0

    def __call__(self, t: float) -> _Values:
        self.evals += 1
        return _Values(self, self.B(t))


def dop853_series(B: TimeDependentOperator, times: np.ndarray) -> np.ndarray:
    """U(t_k, t_0) at every sample time by DOP853 at rtol 1e-13, atol 1e-15."""
    n = B.dim

    def rhs(x, y):
        return (B(x) @ y.view(complex).reshape(n, n)).ravel().view(float)

    y0 = np.eye(n, dtype=complex).ravel().view(float)
    sol = scipy.integrate.solve_ivp(rhs, (times[0], times[-1]), y0, method="DOP853",
                                    t_eval=times, rtol=1e-13, atol=1e-15)
    return sol.y.T.copy().view(complex).reshape(len(times), n, n)


def measure(B: TimeDependentOperator, t: float, samples: int,
            rel_tol: float) -> tuple[int, float, float, int, float, float]:
    """(series steps, series wall s, max entry error vs DOP853, one-span steps,
    B evaluations and products per accepted step)."""
    times = np.linspace(0.0, t, samples)
    t0 = time.perf_counter()
    series, stats = evolution_series(B, times, rel_tol)
    wall = time.perf_counter() - t0
    err = float(np.max(np.abs(np.array(series) - dop853_series(B, times))))
    steps = sum(st.steps for st in stats)
    counted = Counted(B)
    evolution_series(counted, times, rel_tol)
    per = max(steps, 1)
    return (steps, wall, err, evolve(B, 0.0, t, rel_tol).stats.steps,
            counted.evals / per, counted.products / per)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, nargs="+", default=[2, 21, 201, 1001])
    ap.add_argument("--models", nargs="+", choices=list(MODELS), default=list(MODELS))
    ap.add_argument("--t", type=float, default=5.0, help="horizon (s = 0)")
    ap.add_argument("--rel-tol", type=float, default=1e-10)
    ap.add_argument("--out", help="optional CSV output path")
    args = ap.parse_args(argv)

    print(f"chained series U(t_k, 0) to t = {args.t:g} at rel_tol {args.rel_tol:g}, "
          "error against DOP853 (rtol 1e-13)")
    print(f"{'model':>14}  {'samples':>7}  {'rk steps':>8}  {'per segment':>11}  "
          f"{'B evals/step':>12}  {'products/step':>13}  "
          f"{'one span':>8}  {'wall s':>8}  {'max error':>9}")
    rows = []
    for name in args.models:
        B = MODELS[name]()
        for samples in args.samples:
            steps, wall, err, span, evals, products = measure(B, args.t, samples,
                                                              args.rel_tol)
            per = steps / max(samples - 1, 1)
            print(f"{name:>14}  {samples:>7}  {steps:>8}  {per:>11.2f}  "
                  f"{evals:>12.2f}  {products:>13.2f}  "
                  f"{span:>8}  {wall:>8.3f}  {err:>9.2e}")
            rows.append((name, samples, steps, evals, products, span, wall, err))

    if args.out:
        write_csv(args.out, ["model", "samples", "rk_steps", "evals_per_step",
                             "products_per_step", "span_steps", "wall_s", "max_error"],
                  rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
