#!/usr/bin/env python3
"""SHA-256 of every report and of its run's stderr in a fixed set of CLI runs.

They are the repository's reference runs: ``tests/test_reports_golden.py``
holds some of them against stored goldens under the golden tolerance
(``mismatches``, below), and ``capture`` rewrites a golden's values only where
they moved past it.  The set covers `verify-all --seed 7` at dims 8, 16, 32,
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

The comparison prints one line per moved record: the report, the check id (for
a series CSV, the row's first cell and the column), the old value and the new
value, and ``outside`` where the two differ beyond the golden tolerance, with
the status if that moved too.  JSON records are paired by check id, so a
renamed id reads as one ``removed`` line (old id, old value) and one ``added``
line (new id, new value), and no other record is misaligned by it.  The rest
of a JSON report, such as its provenance, prints one line per moved key path
(``provenance.parameters.spectrum.residuals``), lists compared whole.  The
comparison exits 1 when any record moved or a report is missing on one side,
and 0 when the two directories hold the same reports.
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


def _merge(got, want, where: str = "", key: str = ""):
    """got with each value within the golden tolerance of want replaced by
    want, and every place where got is not within it.  Dicts of equal keys and
    lists of equal length are walked; ``wall_time_s`` is not compared."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return got, [f"{where}: keys {sorted(set(got) ^ set(want))} differ"]
        walked = {k: _merge(got[k], want[k], f"{where}.{k}", k) for k in sorted(want)}
        return ({k: v for k, (v, _) in walked.items()},
                [m for k, (_, ms) in walked.items() if k != "wall_time_s" for m in ms])
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return got, [f"{where}: length {len(got)} != {len(want)}"]
        walked = [_merge(g, w, f"{where}[{i}]", key) for i, (g, w) in enumerate(zip(got, want))]
        return [v for v, _ in walked], [m for _, ms in walked for m in ms]
    if type(got) is not type(want) and not (
            isinstance(got, (int, float)) and isinstance(want, (int, float))
            and not isinstance(got, bool) and not isinstance(want, bool)):
        ok = False
    elif key == "threshold" and isinstance(want, float):
        ok = got == want or (math.isnan(got) and math.isnan(want))
    elif key in EXACT_KEYS or isinstance(want, bool) or want is None:
        ok = got == want
    elif isinstance(want, str):
        ok = _cell_close(got, want) if key == "csv" else (
            _text_close(got, want) if key == "detail" else got == want)
    else:
        ok = _close(float(got), float(want))
    return (want, []) if ok else (got, [f"{where}: {got!r} != {want!r}"])


def mismatches(got, want, where: str = "", key: str = "") -> list[str]:
    """Every place where got differs from want beyond the golden tolerance."""
    return _merge(got, want, where, key)[1]


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


def _same(a, b) -> bool:
    """Equal to the byte as JSON, so that NaN equals NaN."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _relative_move(old: str, new: str) -> float:
    """|new - old| / |old| of two numeric cells; inf for any other pair."""
    try:
        o, n = float(old), float(new)
    except ValueError:
        return math.inf
    return abs(n - o) / abs(o) if o else math.inf


def _by_id(old: dict, new: dict, value, status, outside):
    """Moves of records paired by check id: changed, removed or added."""
    for check_id, o in old.items():
        n = new.get(check_id)
        if n is None:
            yield check_id, value(o), None, True, "removed"
        elif not _same(o, n):
            moved = "" if status(o) == status(n) else f"{status(o)} -> {status(n)}"
            yield check_id, value(o), value(n), outside(o, n), moved
    for check_id, n in new.items():
        if check_id not in old:
            yield check_id, None, value(n), True, "added"


def _moved_keys(old, new, path: str = ""):
    """Moves of a JSON payload, one per key path whose value moved.

    Dicts are walked key by key, so a path reads like
    ``provenance.parameters.spectrum.residuals``; any other value, a list
    included, is compared whole.  ``wall_time_s`` is skipped.
    """
    if not (isinstance(old, dict) and isinstance(new, dict)):
        if not _same(old, new):
            key = path.rsplit(".", 1)[-1]
            yield path, old, new, bool(mismatches(new, old, key=key)), ""
        return
    for k in sorted(set(old) | set(new)):
        if k == "wall_time_s":
            continue
        sub = f"{path}.{k}" if path else k
        if k not in new:
            yield sub, old[k], None, True, "removed"
        elif k not in old:
            yield sub, None, new[k], True, "added"
        else:
            yield from _moved_keys(old[k], new[k], sub)


def _moved_records(old_path: Path, new_path: Path):
    """(check id, old value, new value, outside tolerance, status move) per moved record."""
    if old_path.suffix == ".json":
        old, new = json.loads(old_path.read_text()), json.loads(new_path.read_text())
        yield from _moved_keys({k: v for k, v in old.items() if k != "records"},
                               {k: v for k, v in new.items() if k != "records"})
        yield from _by_id({r["check_id"]: r for r in old.get("records", [])},
                          {r["check_id"]: r for r in new.get("records", [])},
                          lambda r: r["measured"], lambda r: r["status"],
                          lambda o, n: bool(mismatches(n, o)))
        return
    with old_path.open(newline="") as fh:
        old = list(csv.reader(fh))
    with new_path.open(newline="") as fh:
        new = list(csv.reader(fh))
    header = new[0]
    if header[0] == "check_id":  # a records CSV
        m, st = header.index("measured"), header.index("status")
        yield from _by_id({r[0]: r for r in old[1:]}, {r[0]: r for r in new[1:]},
                          lambda r: r[m], lambda r: r[st],
                          lambda o, n: bool(mismatches(n, o, key="csv")))
        return
    if old[0] != header:
        renamed = [(o, n) for o, n in zip(old[0], header) if o != n]
        first = renamed[0] if renamed else (f"{len(old[0])} names", f"{len(header)} names")
        yield "header", *first, True, f"{len(renamed)} of {len(header)} names renamed"
    if len(old) != len(new) or len(old[0]) != len(header):
        yield "rows", f"{len(old)} rows", f"{len(new)} rows", True, ""
        return
    for o, n in zip(old[1:], new[1:]):
        if o == n:
            continue
        if len(o) != len(n):
            yield (f"{header[0]}={n[0]} (row length)", f"{len(o)} cells",
                   f"{len(n)} cells", True, "")
            continue
        # a series row: its largest relative move stands for the row
        moved = [(_relative_move(oc, nc), j) for j, (oc, nc) in enumerate(zip(o, n))
                 if oc != nc]
        _, j = max(moved)
        yield (f"{header[0]}={n[0]} ({len(moved)} cells; largest {header[j]})",
               o[j], n[j], bool(mismatches(n, o, key="csv")), "")


def compare(old_dir: Path, new_dir: Path) -> int:
    """Print every moved record of the reports kept in two directories; 1 if
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
        before = moved
        for check_id, old, new, outside, status in _moved_records(old_path, new_path):
            flag = "outside" if outside else "within"
            print(f"{report:28s} {check_id}  {old!r} -> {new!r}  {flag}  {status}".rstrip())
            moved += 1
        if moved == before:  # such as a key order or a CSV quoting that moved no value
            print(f"{report:28s} bytes differ, no record moved")
            moved += 1
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
