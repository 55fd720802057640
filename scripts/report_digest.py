#!/usr/bin/env python3
"""SHA-256 of every report and of its run's stderr in a fixed set of CLI runs.

They are the repository's reference runs: ``tests/test_reports_golden.py``
holds some of them against stored goldens under the golden tolerance
(``mismatches``, below: the moves past it of the one walk over two reports,
``_merge``), and ``capture`` rewrites a golden's values only where they moved
past it.  The set covers `verify-all --seed 7` at dims 8, 16, 32,
48, 64 and 128 (at dim 128 one 10-node panel of the Laplace integrand holds
100 KiB of values, past the quadrature's 64 KiB bound on one integrand call;
at dim 48 the suite's exponential bridge takes the Taylor route, which dims
16 and 32 do not), every scenario kind at dims 16 and 32 (standard and offset
conjugations alike), a `generator` run at dim 64 of the dilation
(ell, G, H) = (-1, 1, 0.1), whose bridge takes the Taylor route from dim 63, a
rotated diagonal `conjugation-check` at dim 128, one `evolve` CSV, two
`spectrum` subcommand runs (a CSV and a JSON report), constant-model
`evolution` CSVs at dim 16, at dim 32 (43 samples over [0, 5], the
benchmark's shape: 88 107 cells, which the CSV writer streams in 22 chunks)
and at dim 4 (11 samples over [2, 4.7], whose segments have three
float lengths and one in sample spacings, so a change that moves where a
constant model's integrated span starts shows here), a dim-3 table-model CSV
whose span reaches below its first knot and past its last, JSON reports of the
decaying constant model [[-50, 0], [0, -1]] over [0, 5] (the step loop holds
its e^{-250} only to absolute accuracy, so its ``evolution.exponential-route``
fails and the run exits 2), of the two-level model with numbers for kappa and
lam, of a constant model with s = t, of the unit rotation over [0, 1e5] at
100001 samples (a product law's bound grows with |t - s| as the run's rounding
does), of the constant 1e308 in every entry over [0, 1e-320] (a span of
subnormal error budget and large norm, which takes I + (t - s) B(s) and no
step) and of a table whose knots are 1e-320 apart, and a records CSV of
`conjugation-check`, whose anchors hold commas: 46 runs, which between them
take every subcommand that writes a report, every coefficient model and both
paths of the CSV writer.  Then 19 malformed runs that exit 1 with an ``input
error:`` line and write no report: nine scenarios (one per kind, a too
stiff constant and a table whose knot spacing overflows) and ten flag
errors of `spectrum` and `evolve`.  Each printed line is the run's label, its
exit code, the digest of its report with the value of ``wall_time_s`` replaced
by null (no other byte is touched), and the digest of what the run wrote to
stderr, with the run's temporary directory read as ``<workdir>`` and each
warning printed even if an earlier run printed it.  Last, `validate` checks
each of the 46 scenario files run, good and malformed alike, and prints the
run's label, ``validate``, its exit code and its stderr digest, so a change in
what `validate` catches shows in the diff.  Two source trees produce identical
reports and error messages exactly when their outputs are identical, so a
change meant to keep every report and every message byte-identical is checked
by a diff:

    PYTHONPATH=src python scripts/report_digest.py > after.txt
    PYTHONPATH=<other checkout>/src python scripts/report_digest.py > before.txt
    diff before.txt after.txt

From dim 128 on a report's last bits depend on the number of BLAS threads,
so run both sides with the same ``OPENBLAS_NUM_THREADS``.

To see which records moved, keep each tree's reports in a directory and
compare the two directories:

    PYTHONPATH=<other checkout>/src python scripts/report_digest.py --keep before
    PYTHONPATH=src python scripts/report_digest.py --keep after
    PYTHONPATH=src python scripts/report_digest.py --compare before after

The comparison walks each pair of reports as the goldens do (``_merge``)
and prints one line per move: the report, the moved value's path, the old
value and the new value, and ``outside`` or ``within`` the golden tolerance.
A JSON report is walked as it is: dicts by key, its records paired by check
id and other lists item by item, so a path reads like
``records[semigroup.law].measured`` or
``provenance.parameters.spectrum.residuals[1]``.  A record or key that only
one side has reads ``removed`` (old value) or ``added`` (new value), so a
renamed id misaligns no other record; a record that changed its place reads
``order`` (old and new index) and a repeated check id ``repeated id`` (the
counts).  A records CSV is walked as its records, its cells judged as CSV
cells; a series CSV as its rows, each moved row printed once, at its largest
relative move, named by its first cell and that cell's column
(``t=0.25 (3 cells; largest U0_1_re)``).  The comparison exits 1 when any
value moved or a report is missing on one side, and 0 when the two
directories hold the same reports.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import shutil
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

from focksym.cli import main as focksym_main
from layer_cost import constant_matrix, constant_params, json_matrix

STD = {"a": [1.0, 0.0], "b": [0.0, 0.0], "c": [1.0, 0.0]}
ROTATED = {"a": [math.cos(0.7), math.sin(0.7)], "c": [0.0, 1.0]}
OFFSET = {"a": 1.0, "b": [0.0, 1.0], "c": math.exp(-0.5)}
TRANSLATION = {"variant": "translation", "E": [1.0, 0.0], "F": [0.1, 0.0],
               "conjugation": STD}
DILATION = {"variant": "dilation", "ell": [-1.0, 0.5], "G": [1.0, 0.0],
            "H": [0.1, 0.0], "conjugation": STD}
OFFSET_DILATION = {"variant": "dilation", "ell": 1.0, "G": 0.7, "H": [0.0, 0.2],
                   "conjugation": OFFSET}
# the generator kind's dilation fixture, whose bridge takes the Taylor route from dim 63
BRIDGE_DILATION = {"variant": "dilation", "ell": -1.0, "G": 1.0, "H": 0.1, "conjugation": STD}
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


# the knots and seeded matrices of a dim-3 table model; the series starts
# below the first knot and ends past the last, where the model is clamped
TABLE_D3 = {"B": "table", "times": [0.0, 0.7, 1.3, 2.2, 3.0],
            "matrices": [json_matrix(constant_matrix(3, seed)) for seed in range(5)],
            "s": -0.5, "t": 3.5, "samples": 9}

# label -> (kind, params, dim, output format), each run once
SINGLE_RUNS = {
    "evolution-constant-d16": ("evolution", {**constant_params(16), "t": 2.0, "samples": 9},
                               16, "csv"),
    "evolution-constant-d32": ("evolution", {**constant_params(32), "t": 5.0, "samples": 43},
                               32, "csv"),
    "evolution-constant-d4-offset": ("evolution", {**constant_params(4), "s": 2.0, "t": 4.7,
                                                   "samples": 11}, 4, "csv"),
    "evolution-table-d3": ("evolution", TABLE_D3, 3, "csv"),
    "evolution-decaying-d2": ("evolution", {"B": "constant", "matrix": [[-50.0, 0.0], [0.0, -1.0]],
                                            "t": 5.0, "samples": 3}, 2, "json"),
    "evolution-two-level-constant": ("evolution", {"B": "bagchi", "kappa": 0.4, "lam": 0.8,
                                                   "s": 0.5, "t": 3.0, "samples": 12}, 2, "json"),
    "evolution-constant-zero-span": ("evolution", {"B": "constant", "matrix": [[0, 1], [1, 0]],
                                                   "s": 1.0, "t": 1.0, "samples": 3}, 2, "json"),
    "evolution-rotation-long": ("evolution", {"B": "constant", "matrix": [[0, 1], [-1, 0]],
                                              "t": 1e5, "samples": 100001}, 2, "json"),
    "conjugation-records-d16": ("conjugation-check", OFFSET, 16, "csv"),
    "generator-bridge-d64": ("generator", {"family": BRIDGE_DILATION}, 64, "json"),
    "conjugation-rotated-d128": ("conjugation-check", ROTATED, 128, "json"),
    "evolution-subnormal-span-d2": ("evolution", {"B": "constant", "matrix": [[1e308] * 2] * 2,
                                                  "t": 1e-320, "samples": 2}, 2, "json"),
    "evolution-table-tiny-gap": ("evolution", {"B": "table", "times": [0.0, 1e-320],
                                               "matrices": [[[1.0]], [[2.0]]], "samples": 3},
                                 2, "json"),
}

# label -> (kind, params) of a scenario that is an input error at dim 16
MALFORMED = {
    "malformed-conjugation-check": ("conjugation-check", {"a": 1.0, "c": math.exp(-0.5)}),
    "malformed-wco": ("wco", {"A": 1e300}),
    "malformed-semigroup": ("semigroup", {"family": {"variant": "translation", "E": 1e200}}),
    "malformed-generator": ("generator", {"family": {"variant": "dilation", "ell": -1,
                                                     "G": 1e200}}),
    "malformed-spectrum": ("spectrum", {"family": DILATION, "k_max": 16}),
    "malformed-evolution": ("evolution", {"B": "table", "times": [0.0, 1.0],
                                          "matrices": [[[1.0]], [[1.0, 0.0], [0.0, 1.0]]]}),
    "malformed-full-verify": ("full-verify", {"seed": -1}),
    "malformed-evolution-stiff": ("evolution", {"B": "constant", "matrix": [[1e300]],
                                                "t": 1e10, "samples": 3}),
    "malformed-evolution-knot-gap": ("evolution", {"B": "table", "times": [-1e308, 1e308],
                                                   "matrices": [[[1.0]], [[2.0]]]}),
}

# label -> argv of a subcommand whose flags are an input error
FLAG_ERRORS = {
    "flag-spectrum-family": ["spectrum", "--G", "1e200", "--ell=-1", "--dim", "16"],
    "flag-spectrum-k-max": ["spectrum", "--k-max", "70", "--dim", "16"],
    "flag-spectrum-dim": ["spectrum", "--dim", "4"],
    "flag-spectrum-k-max-at-dim": ["spectrum", "--k-max", "5", "--dim", "4"],
    "flag-spectrum-a": ["spectrum", "--a", "2"],
    "flag-evolve-rel-tol": ["evolve", "--rel-tol", "0"],
    "flag-evolve-samples": ["evolve", "--samples", "0"],
    "flag-evolve-t": ["evolve", "--t", "-1"],
    "flag-evolve-stiff": ["evolve", "--nu", "1e300", "--t", "1", "--samples", "2"],
    "flag-evolve-t-overflow": ["evolve", "--t", "1e308", "--samples", "3"],
    "flag-verify-all-seed": ["verify-all", "--dim", "8", "--seed", "-1"],
}

WALL_TIME = re.compile(rb'("wall_time_s": )[^,\n}]+')

# the golden tolerance: strings and thresholds exactly, other numbers (those
# inside detail strings and CSV cells too) within a relative REL or an absolute ABS
REL, ABS = 1e-9, 1e-13
EXACT_KEYS = {"check_id", "anchor", "status", "direction", "threshold"}
_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|nan|inf")


def _close(got: float, want: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return got == want or abs(got - want) <= max(REL * abs(want), ABS)


def _text_close(got: str, want: str) -> bool:
    """Equal text between the numbers, close numbers."""
    return (_NUMBER.split(got) == _NUMBER.split(want)
            and all(_close(float(g), float(w))
                    for g, w in zip(_NUMBER.findall(got), _NUMBER.findall(want))))


def _cell_close(got: str, want: str) -> bool:
    try:
        return _close(float(got), float(want))
    except ValueError:
        return got == want


def _within(got, want, key: str) -> bool:
    """got is within the golden tolerance of want, a value compared whole
    under the dict key ``key``."""
    if type(got) is not type(want) and not (
            isinstance(got, (int, float)) and isinstance(want, (int, float))
            and not isinstance(got, bool) and not isinstance(want, bool)):
        return False
    if key == "threshold" and isinstance(want, float):
        return got == want or (math.isnan(got) and math.isnan(want))
    if key in EXACT_KEYS or isinstance(want, bool) or want is None:
        return got == want
    if isinstance(want, str):
        return _cell_close(got, want) if key == "csv" else (
            _text_close(got, want) if key == "detail" else got == want)
    return _close(float(got), float(want))


def _items(value: list) -> list:
    """(name, item) of each item of a list: a record by its check id, any
    other item by its index."""
    if value and all(isinstance(r, dict) and "check_id" in r for r in value):
        return [(r["check_id"], r) for r in value]
    return list(enumerate(value))


def _merge(got, want, path: str = "", key: str = ""):
    """got with each value within the golden tolerance of want replaced by
    want, and every move from want to got as (path, old, new, past the
    tolerance, note).

    Dicts are walked by key, lists of records are paired by check id and
    other lists item by item, so a path reads like
    ``report.records[growth.norm-one.3].measured`` or ``csv[4][2]``.  A key,
    record or item that only one side has is a move past the tolerance
    (``added`` or ``removed``), and so are a record that changed its place
    among the records both sides have (``order``) and a check id that either
    side repeats (``repeated id``).  Every value under ``csv`` is judged as a
    CSV cell.  ``wall_time_s`` is not compared.
    """
    listed = isinstance(got, list) and isinstance(want, list)
    if listed:
        g, w = _items(got), _items(want)
    elif isinstance(got, dict) and isinstance(want, dict):
        g, w = list(got.items()), list(want.items())
    elif repr(got) == repr(want):
        return want, []
    else:
        ok = _within(got, want, key)
        return (want if ok else got), [(path, want, got, not ok, "")]

    def name(k) -> str:
        return f"{path}[{k}]" if listed else f"{path}.{k}" if path else k

    wanted, gotten = dict(w), dict(g)
    merged, moves = [], []
    for k, item in g:
        if k in wanted:
            item, moved = _merge(item, wanted[k], name(k), key if key == "csv" or listed else k)
        else:
            moved = [(name(k), None, item, True, "added")]
        merged.append((k, item))
        moves += moved if k != "wall_time_s" else []
    moves += [(name(k), item, None, True, "removed") for k, item in w if k not in gotten]
    if not listed:
        return dict(merged), moves
    counts = Counter(k for k, _ in w), Counter(k for k, _ in g)
    repeated = [(name(k), counts[0][k], counts[1][k], True, "repeated id")
                for k, n in (counts[0] | counts[1]).items() if n > 1]
    was, now = [k for k, _ in w if k in gotten], [k for k, _ in g if k in wanted]
    moves += repeated or [(name(k), i, now.index(k), True, "order")
                          for i, k in enumerate(was) if now[i] != k]
    return [v for _, v in merged], moves


def mismatches(got, want) -> list[tuple]:
    """Every move from want to got past the golden tolerance, as in :func:`_merge`."""
    return [move for move in _merge(got, want)[1] if move[3]]


def _scenario_run(workdir: Path, name: str, kind: str, params: dict, dim: int, fmt: str):
    out = workdir / f"{name}.{fmt}"
    scenario = workdir / f"{name}-scenario.json"
    scenario.write_text(json.dumps({
        "name": name, "kind": kind, "params": params, "truncation": {"dim": dim},
        "output": {"format": fmt, "path": str(out)}}))
    return name, ["run", str(scenario), "--seed", "5"], out


def _runs(workdir: Path):
    """(label, argv, report path) of every run in the set."""
    for dim in (8, 16, 32, 48, 64, 128):
        out = workdir / f"verify-all-d{dim}.json"
        yield (f"verify-all-d{dim}",
               ["verify-all", "--dim", str(dim), "--seed", "7", "--out", str(out)], out)
    for label, (kind, params, fmt) in SCENARIOS.items():
        for dim in (16, 32):
            yield _scenario_run(workdir, f"{label}-d{dim}", kind, params, dim, fmt)
    out = workdir / "evolve.csv"
    yield ("evolve", ["evolve", "--kappa", "0.4", "--lam", "0.8", "--t", "2",
                      "--samples", "9", "--out", str(out)], out)
    for fmt, flags in (("csv", ["--ell=-1+0.5j", "--G", "0.5", "--H", "0.2", "--k-max", "4",
                                "--dim", "48"]),
                       ("json", ["--ell", "1", "--G", "0.7", "--H=0+0.2j", "--b=0+1j",
                                 f"--c={math.exp(-0.5)}", "--k-max", "3", "--dim", "32"])):
        out = workdir / f"spectrum-command.{fmt}"
        yield (f"spectrum-command-{fmt}", ["spectrum", *flags, "--format", fmt,
                                           "--out", str(out)], out)
    for label, (kind, params, dim, fmt) in SINGLE_RUNS.items():
        yield _scenario_run(workdir, label, kind, params, dim, fmt)
    for label, (kind, params) in MALFORMED.items():
        yield _scenario_run(workdir, label, kind, params, 16, "json")
    for label, argv in FLAG_ERRORS.items():
        out = workdir / f"{label}.json"
        yield label, [*argv, "--out", str(out)], out


def digest(path: Path) -> str:
    """SHA-256 of the report with its wall time replaced by null."""
    if not path.exists():
        return "no-report"
    return hashlib.sha256(WALL_TIME.sub(rb"\1null", path.read_bytes())).hexdigest()


# a cell of a CSV's rows: csv[row][column]
_CELL = re.compile(r"csv\[(\d+)\]\[(\d+)\]")


def _load(path: Path):
    """A kept report as :func:`_merge` reads it: a JSON report as it is, a
    CSV's rows under ``csv``, those of a records CSV as records keyed by the
    header's names."""
    if path.suffix == ".json":
        return json.loads(path.read_text())
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if rows and rows[0][:1] == ["check_id"]:
        rows = [dict(zip(rows[0], row)) for row in rows[1:]]
    return {"csv": rows}


def _row_moves(moves, rows):
    """The moves with the moved cells of each data row of a series CSV (rows,
    the new side's) as one move, at the cell of its largest relative move,
    named by the row's first cell and that cell's column."""
    cells = {}
    for move in moves:
        at = _CELL.fullmatch(move[0])
        if not at or at[1] == "0" or move[4]:  # not a data cell that both sides have
            yield move
            continue
        old, new = float(move[1]), float(move[2])
        relative = abs(new - old) / abs(old) if old else math.inf
        cells.setdefault(int(at[1]), []).append((relative, int(at[2]), move))
    for i, moved in cells.items():
        _, j, (_, old, new, _, _) = max(moved)
        yield (f"{rows[0][0]}={rows[i][0]} ({len(moved)} cells; largest {rows[0][j]})",
               old, new, any(move[3] for _, _, move in moved), "")


def compare(old_dir: Path, new_dir: Path) -> int:
    """Print every move between the reports kept in two directories; 1 if
    any moved or is missing on one side, else 0."""
    moved = 0
    for old_path in sorted(old_dir.iterdir()):
        new_path = new_dir / old_path.name
        report = old_path.stem
        if not new_path.exists():
            print(f"{report:28s} missing in {new_dir}")
            moved += 1
            continue
        if digest(old_path) == digest(new_path):
            continue
        got = _load(new_path)
        moves = list(_row_moves(_merge(got, _load(old_path))[1], got.get("csv")))
        for path, old, new, past, note in moves:
            flag = "outside" if past else "within"
            print(f"{report:28s} {path}  {old!r} -> {new!r}  {flag}  {note}".rstrip())
        if not moves:  # such as a key order or a CSV quoting that moved no value
            print(f"{report:28s} bytes differ, no record moved")
        moved += max(len(moves), 1)
    for new_path in sorted(new_dir.iterdir()):
        if not (old_dir / new_path.name).exists():
            print(f"{new_path.stem:28s} missing in {old_dir}")
            moved += 1
    print(f"{moved} moved")
    return 1 if moved else 0


def _call(argv, workdir: Path) -> tuple[int, str]:
    """The exit code of one CLI call and the digest of its stderr, stdout discarded."""
    err = io.StringIO()
    with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
          warnings.catch_warnings()):
        warnings.simplefilter("always")  # a warning an earlier run printed too
        rc = focksym_main(argv)
    text = err.getvalue().replace(str(workdir), "<workdir>")
    return rc, hashlib.sha256(text.encode()).hexdigest()


def result(label: str, workdir: Path) -> dict:
    """The exit code and the report, or the CSV rows, of the run ``label``
    made in workdir: the form of a golden file."""
    argv, out = next((argv, out) for name, argv, out in _runs(workdir) if name == label)
    code = _call(argv, workdir)[0]
    if out.suffix == ".csv":
        with out.open(newline="") as fh:
            return {"exit": code, "csv": list(csv.reader(fh))}
    return {"exit": code, "report": json.loads(out.read_text())}


def capture(path: Path, got: dict) -> bool:
    """Store got in the golden file path, keeping each stored value that is
    within the golden tolerance of got's, with ``wall_time_s`` null; write
    only if a byte changes, and say whether it did."""
    stored = path.read_bytes() if path.exists() else b""
    kept = _merge(got, json.loads(stored))[0] if stored else got
    text = WALL_TIME.sub(rb"\1null", (json.dumps(kept, indent=1, sort_keys=True) + "\n").encode())
    if text == stored:
        return False
    path.write_bytes(text)
    return True


def run_set(keep: Path | None) -> None:
    """Run the set and print one digest line per run; keep the reports in ``keep``."""
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        os.environ["FOCKSYM_OUTPUT_DIR"] = str(workdir / "default-out")
        if keep is not None:
            keep.mkdir(parents=True, exist_ok=True)
        scenarios = []
        for label, argv, out in _runs(workdir):
            rc, err = _call(argv, workdir)
            print(f"{label:28s} exit {rc}  {digest(out)}  stderr {err}")
            if keep is not None and out.exists():
                shutil.copyfile(out, keep / out.name)
            if argv[0] == "run":
                scenarios.append((label, argv[1]))
        for label, scenario in scenarios:
            rc, err = _call(["validate", scenario], workdir)
            print(f"{label:28s} validate exit {rc}  stderr {err}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--keep", type=Path, metavar="DIR",
                      help="also keep every report in DIR")
    mode.add_argument("--compare", type=Path, nargs=2, metavar=("OLD", "NEW"),
                      help="list the moved records of two kept directories")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    run_set(args.keep)
    return 0


if __name__ == "__main__":
    sys.exit(main())
