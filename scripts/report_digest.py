#!/usr/bin/env python3
"""SHA-256 of every report in a fixed set of CLI runs, wall time left out.

The set covers `verify-all --seed 7` at dims 8, 16, 32 and 64, every scenario
kind at dims 16 and 32 (standard and offset conjugations alike), and one
`evolve` CSV.  Each printed line is the run's label, its exit code and the
digest of its report with the value of ``wall_time_s`` replaced by null; no
other byte is touched.  Two source trees produce identical reports exactly
when their outputs are identical, so a change meant to keep every report
byte-identical is checked by a diff:

    PYTHONPATH=src python scripts/report_digest.py > after.txt
    PYTHONPATH=<other checkout>/src python scripts/report_digest.py > before.txt
    diff before.txt after.txt
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

from focksym.cli import main as focksym_main

STD = {"a": [1.0, 0.0], "b": [0.0, 0.0], "c": [1.0, 0.0]}
ROTATED = {"a": [math.cos(0.7), math.sin(0.7)], "c": [0.0, 1.0]}
OFFSET = {"a": 1.0, "b": [0.0, 1.0], "c": math.exp(-0.5)}
TRANSLATION = {"variant": "translation", "E": [1.0, 0.0], "F": [0.1, 0.0],
               "conjugation": STD}
DILATION = {"variant": "dilation", "ell": [-1.0, 0.5], "G": [1.0, 0.0],
            "H": [0.1, 0.0], "conjugation": STD}
OFFSET_DILATION = {"variant": "dilation", "ell": 1.0, "G": 0.7, "H": [0.0, 0.2],
                   "conjugation": OFFSET}
OFFSET_TRANSLATION = {"variant": "translation", "E": [0.5, 0.5], "F": 0.2,
                      "conjugation": OFFSET}

# label -> (kind, params, output format); each runs at dims 16 and 32
SCENARIOS = {
    "conjugation-rotated": ("conjugation-check", ROTATED, "json"),
    "conjugation-offset": ("conjugation-check", OFFSET, "json"),
    "wco-offset": ("wco", {"A": [0.5, 0.1], "B": 0.3, "D": [0.3, -0.05],
                           "conjugation": OFFSET}, "json"),
    "semigroup-translation": ("semigroup", {"family": TRANSLATION, "omega": 0.5}, "csv"),
    "semigroup-offset": ("semigroup", {"family": OFFSET_DILATION}, "json"),
    "generator-dilation": ("generator", {"family": DILATION}, "json"),
    "generator-offset": ("generator", {"family": OFFSET_TRANSLATION}, "json"),
    "spectrum-lattice": ("spectrum", {"family": DILATION, "k_max": 4}, "json"),
    "spectrum-offset": ("spectrum", {"family": OFFSET_DILATION, "k_max": 3}, "csv"),
    "spectrum-empty": ("spectrum", {"family": TRANSLATION, "eta": 0.0}, "json"),
    "evolution": ("evolution", {"B": "bagchi", "lam": 0.9, "t": 1.0, "samples": 6,
                                "kappa": {"cosine": {"amplitude": 0.3, "frequency": 1.1}}},
                  "json"),
    "full-verify": ("full-verify", {"seed": 11}, "json"),
}

WALL_TIME = re.compile(rb'("wall_time_s": )[^,\n}]+')


def _runs(workdir: Path):
    """(label, argv, report path) of every run in the set."""
    for dim in (8, 16, 32, 64):
        out = workdir / f"verify-all-d{dim}.json"
        yield (f"verify-all-d{dim}",
               ["verify-all", "--dim", str(dim), "--seed", "7", "--out", str(out)], out)
    for label, (kind, params, fmt) in SCENARIOS.items():
        for dim in (16, 32):
            name = f"{label}-d{dim}"
            out = workdir / f"{name}.{fmt}"
            scenario = workdir / f"{name}-scenario.json"
            scenario.write_text(json.dumps({
                "name": name, "kind": kind, "params": params, "truncation": {"dim": dim},
                "output": {"format": fmt, "path": str(out)}}))
            yield name, ["run", str(scenario), "--seed", "5"], out
    out = workdir / "evolve.csv"
    yield ("evolve", ["evolve", "--kappa", "0.4", "--lam", "0.8", "--t", "2",
                      "--samples", "9", "--out", str(out)], out)


def digest(path: Path) -> str:
    """SHA-256 of the report with its wall time replaced by null."""
    if not path.exists():
        return "no-report"
    return hashlib.sha256(WALL_TIME.sub(rb"\1null", path.read_bytes())).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        os.environ["FOCKSYM_OUTPUT_DIR"] = str(workdir / "default-out")
        for label, argv, out in _runs(workdir):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = focksym_main(argv)
            print(f"{label:28s} exit {rc}  {digest(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
