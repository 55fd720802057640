#!/usr/bin/env python3
"""Run one workload once per seed and report each metric's median and spread.

Usage (from the root of a checkout):
    python3 perfbench/spread.py --workload scenario-sweep --seeds 1 10 --tag A

Runs ``perfbench/run.py`` for seeds first..last, one process at a time, and
prints for every metric the median, the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
(Q3 - Q1) / median; untraced runs add the uncorrected times as ``raw.*``.  The runs and the summary are written to
``.perfbench_out/spread-<workload>-<tag>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs=2, default=(1, 10), metavar=("FIRST", "LAST"))
    ap.add_argument("--seconds", type=int,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tag", default="runs")
    args = ap.parse_args(argv)

    runs = []
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        # the uncorrected times, for comparison with the reported ones
        for name, value in json.loads(lines[-2]).get("raw_s", {}).items():
            if not args.trace:
                result["metrics"][f"raw.{name}"] = {"value": value, "unit": "s"}
        result["seed"], result["process_s"] = seed, time.perf_counter() - t0
        runs.append(result)
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} ({result['process_s']:.0f}s) {values}", flush=True)

    summary = {}
    for name in runs[0]["metrics"] if len(runs) > 1 else ():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0}
        print(f"{name:52s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {summary[name]['spread']:.3f}")
    out = ROOT / ".perfbench_out" / f"spread-{args.workload}-{args.tag}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                               "trace": args.trace, "runs": runs, "summary": summary},
                              indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
