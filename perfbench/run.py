#!/usr/bin/env python3
"""Benchmark of focksym: the verification suite, the scenario CLI, the propagator.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload verify-64 --seed 1 --seconds 20 --trace 0

One process runs one workload.  Set-up (imports, input generation and a
warm-up on inputs that share no operator with the timed ones) is followed by
the timed phase, a fixed amount of work made of in-process ``focksym.cli.main``
invocations, and then by the correctness checks, which are not timed.  With
``--trace 0`` a speed probe runs through set-up and the timed phase, and the
times are reported in reference seconds (see ``speed.py``); the line before
the last holds them uncorrected.  The last line of standard output is then
the end-to-end metrics;
with ``--trace 1`` the timed phase runs under the span tracer and the last
line is the per-layer metrics.  Reports and CSVs go to a scratch directory
inside the checkout, which is removed at the end; ``--trace 1`` leaves its
spans in ``.perfbench_out/``.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, fixed before numpy loads: default OpenBLAS threading on a
# 2-CPU machine doubles CPU time for no wall-time gain at these sizes, and
# its threads compete with whatever else runs there.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
INPUT_ERROR = re.compile(r"input error: params[.\[:]")


@dataclass
class Result:
    op: object
    exit_code: object  # int, or None when the call raised
    stderr: str
    error: str
    start: float
    end: float

    @property
    def as_expected(self) -> bool:
        if self.op.expect_exit < 0:  # warm-up: anything but a traceback
            return not self.error
        if self.error:
            return False
        if self.op.expect_exit == 1:
            return self.exit_code == 1 and bool(INPUT_ERROR.search(self.stderr))
        return self.exit_code == self.op.expect_exit


def execute(cli, op) -> Result:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
        error = ""
    except Exception as exc:  # a traceback is an outcome to count, not a crash
        code, error = None, f"{type(exc).__name__}: {exc}"
    return Result(op, code, err.getvalue(), error, t0, time.perf_counter())


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict form of the build config
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def load_program():
    """Import focksym from this checkout's sources, or explain why not."""
    if not (SRC / "focksym" / "cli.py").is_file():
        raise ImportError(f"no focksym sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import focksym
    import focksym.cli

    if Path(focksym.__file__).resolve().parent != (SRC / "focksym").resolve():
        raise ImportError(f"focksym imported from {focksym.__file__}, not from {SRC}")
    return focksym, focksym.cli


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    try:
        focksym, cli = load_program()
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    import_s = time.perf_counter() - T_START
    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run(args, workloads, focksym, cli, np, import_s, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()  # only when no other run is using it


def run(args, workloads, focksym, cli, np, import_s: float, scratch: Path) -> int:
    from speed import SpeedProbe

    # Untraced runs report reference seconds, corrected by a speed probe that
    # runs from here to the end of the timed phase; traced runs report raw
    # times, because a probe would land inside the spans.
    probe = SpeedProbe() if not args.trace else None
    if probe is not None:
        probe.start()
    try:
        return measure(args, workloads, focksym, cli, np, import_s, scratch, probe)
    finally:
        if probe is not None:
            probe.stop()


def measure(args, workloads, focksym, cli, np, import_s: float, scratch: Path,
            probe) -> int:
    # -- set-up, several times; the timed phase uses the last inputs -------
    setup_spans: list[tuple[float, float]] = []
    timed = []
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = scratch / f"inputs{rep}"
        inputs.mkdir(parents=True)
        timed = workloads.timed_ops(args.workload, args.seed, args.seconds, inputs,
                                    scratch / "timed")
        warm_out = scratch / f"warmup{rep}"
        os.environ["FOCKSYM_OUTPUT_DIR"] = str(warm_out)
        for op in workloads.warmup_ops(args.workload, args.seed, rep, inputs, warm_out):
            res = execute(cli, op)
            if res.error:
                print(f"warm-up {op.label} raised {res.error}", file=sys.stderr)
        setup_spans.append((t0, time.perf_counter()))

    # -- timed phase -------------------------------------------------------
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(focksym)
    os.environ["FOCKSYM_OUTPUT_DIR"] = str(scratch / "timed")
    results = []
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    probe_cpu0 = probe.cpu if probe is not None else 0.0
    for op in timed:
        results.append(execute(cli, op))
    wall1 = time.perf_counter()
    cpu_raw = cpu_seconds() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    if probe is not None:
        probe.stop()

    raw = {"wall_s": wall1 - wall0, "cpu_s": cpu_raw,
           "op_p50_s": statistics.median(r.end - r.start for r in results),
           "setup_s": import_s + statistics.median(b - a for a, b in setup_spans)}
    if probe is not None:
        from speed import PROBE_BYTES

        peak_rss_mb -= PROBE_BYTES / 2**20  # the probe's own buffers
        ops = [probe.corrected(r.start, r.end) for r in results]
        work = math.fsum(probe.work(r.start, r.end) for r in results)
        wall_s = math.fsum(ops)
        # CPU time of the program's work, at the same correction as its wall time
        cpu_s = (cpu_raw - (probe.cpu - probe_cpu0)) * wall_s / work
        # import ran before the probe started: corrected at the first set-up's speed
        setup_s = (import_s * probe.factor(*setup_spans[0])
                   + statistics.median(probe.corrected(a, b) for a, b in setup_spans))
        timing = {"wall_s": wall_s, "cpu_s": cpu_s, "op_p50_s": statistics.median(ops),
                  "setup_s": setup_s}
        speed = {"probes": len(probe.durations),
                 "probe_median_s": statistics.median(probe.durations),
                 "probe_overhead_s": probe.probe_time(wall0, wall1)}
    else:
        timing, speed = raw, {}

    # -- correctness, not timed ---------------------------------------------
    import oracles

    chk = oracles.Checker()
    failed = 0
    for res in results:
        if not res.as_expected:
            failed += 1
            why = res.error or f"exit {res.exit_code}"
            tag = f"known fault {res.op.known_fault}" if res.op.known_fault else "UNEXPECTED"
            print(f"failed: {res.op.label} ({tag}): {why}", file=sys.stderr)
            continue
        try:
            oracles.check(res.op, chk)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            chk.mismatches.append(f"{res.op.label}: unreadable output: {exc!r}")
    unexpected = [r.op.label for r in results if not r.as_expected and not r.op.known_fault]
    for line in chk.mismatches:
        print(f"mismatch: {line}", file=sys.stderr)
    correct = not chk.mismatches and not unexpected

    print(json.dumps({"environment": environment(np), "workload": args.workload,
                      "seed": args.seed, "operations": len(results),
                      "comparisons": len(chk.deviations), "import_s": import_s,
                      "raw_s": raw, "speed_probe": speed,
                      "setup_repeats_s": [b - a for a, b in setup_spans]}))
    if tracer is None:
        metrics = {
            "wall_s": (timing["wall_s"], "s"),
            "cpu_s": (timing["cpu_s"], "s"),
            "op_p50_s": (timing["op_p50_s"], "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (timing["setup_s"], "s"),
            "oracle_err": (max(chk.deviations, default=0.0), "1"),
        }
    else:
        metrics = tracer.metrics()
        metrics["trace.wall_s"] = (raw["wall_s"], "s")
        tracer.dump(ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.json")
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
