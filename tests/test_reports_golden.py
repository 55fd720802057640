"""Reports of reference runs against stored goldens.

The runs are those of ``scripts/report_digest.py``, named by its labels, and
so is the tolerance rule (its ``mismatches``).  Each file
``tests/golden/<label>.json`` holds the exit code and either the JSON report
or the CSV rows of one run.  Strings (ids, anchors, statuses, directions)
and thresholds must match exactly.  Every other number, including the
numbers inside ``detail`` strings and CSV cells, must match within a
relative 1e-9 or an absolute 1e-13.  ``wall_time_s`` is not compared.

Capture the goldens again with
``PYTHONPATH=src python tests/test_reports_golden.py --capture``.  A value
stays as stored while the new run is within the tolerance of it, so only
the values that moved past it are rewritten, and only files whose bytes
change are written.
"""

import csv
import json
import sys
from pathlib import Path

import pytest

from focksym.cli import _evolution_operator_from
from focksym.evolution import evolution_series
from focksym.serialize import _cell

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import report_digest as digest  # noqa: E402

GOLDEN = Path(__file__).parent / "golden"

# the digest runs that have a golden
LABELS = ["conjugation-rotated-d16", "conjugation-offset-d16", "wco-offset-d16",
          "semigroup-translation-d32", "semigroup-offset-d32", "generator-dilation-d16",
          "spectrum-lattice-d32", "spectrum-empty-d32", "evolution-d16", "full-verify-d16",
          "verify-all-d8", "evolve", "spectrum-command-csv"]


@pytest.mark.parametrize("label", LABELS)
def test_report_matches_golden(label, tmp_path):
    want = json.loads((GOLDEN / f"{label}.json").read_text())
    assert digest.mismatches(digest.result(label, tmp_path), want) == []


def _entrywise_rows(params: dict) -> list[list[str]]:
    """The run's series CSV rows built entry by entry from numpy scalars, each
    cell by _cell."""
    s, t = params.get("s", 0.0), params["t"]  # the kind's default s is 0
    rel_tol = params.get("rel_tol", 1e-10)
    B, breaks_at, _, _, M = _evolution_operator_from(params, (s, t))
    times, series, _ = evolution_series(B, (s, t), params["samples"], rel_tol,
                                        breaks_at(rel_tol), M)
    return [[_cell(v) for v in [float(tk), *(x for u in U.ravel() for x in (u.real, u.imag))]]
            for tk, U in zip(times, series)]


# label -> (params, dim) of the digest's evolution scenarios, each run as a CSV
SERIES = {"evolution": (digest.SCENARIOS["evolution"][1], 16),
          **{label: (params, dim) for label, (kind, params, dim, fmt)
             in digest.SINGLE_RUNS.items() if (kind, fmt) == ("evolution", "csv")}}


@pytest.mark.parametrize("label", SERIES)
def test_evolution_csv_cells_match_entrywise_rows(label, tmp_path):
    params, dim = SERIES[label]
    _, argv, out = digest._scenario_run(tmp_path, label, "evolution", params, dim, "csv")
    assert digest._call(argv, tmp_path)[0] == 0
    with out.open(newline="") as fh:
        assert list(csv.reader(fh))[1:] == _entrywise_rows(params)


def test_comparison_rules():
    mismatches = digest.mismatches
    rec = {"check_id": "x", "threshold": 1e-12, "measured": 0.5, "detail": "slope 1.0000"}
    assert mismatches(rec, dict(rec, measured=0.5 * (1 + 1e-12))) == []
    assert mismatches(rec, dict(rec, measured=0.6))
    assert mismatches(rec, dict(rec, threshold=1e-12 * (1 + 1e-12)))
    assert mismatches(rec, dict(rec, detail="slope 1.0001"))
    assert mismatches(rec, dict(rec, detail="slope  1.0000"))
    assert mismatches({"csv": [["t", "0.25"]]}, {"csv": [["t", "0.25000000000001"]]}) == []
    assert mismatches({"csv": [["t", "0.25"]]}, {"csv": [["s", "0.25"]]})


def test_capture_rewrites_only_values_moved_past_the_tolerance(tmp_path):
    stored = {"exit": 0, "report": {
        "provenance": {"wall_time_s": None},
        "records": [{"check_id": "a", "measured": 0.5}, {"check_id": "b", "measured": 0.25}]},
        "csv": [["t", "0.1"], ["1.0", "2.0"]]}
    path = tmp_path / "golden.json"
    assert digest.capture(path, stored)
    before = path.read_bytes()
    run = json.loads(json.dumps(stored))
    run["report"]["provenance"]["wall_time_s"] = 0.25
    run["report"]["records"][0]["measured"] = 0.5 * (1 + 1e-6)  # past the tolerance
    run["report"]["records"][1]["measured"] = 0.25 * (1 + 1e-12)  # within it
    run["csv"][1][1] = "2.000000000000001"  # within it
    assert digest.capture(path, run)
    kept = json.loads(path.read_text())
    assert kept["report"]["records"] == [{"check_id": "a", "measured": 0.5 * (1 + 1e-6)},
                                         {"check_id": "b", "measured": 0.25}]
    assert kept["csv"] == stored["csv"]
    assert kept["report"]["provenance"]["wall_time_s"] is None
    assert path.read_bytes() == before.replace(b" 0.5\n", f" {0.5 * (1 + 1e-6)!r}\n".encode())
    assert not digest.capture(path, run)  # the same run again writes nothing


def test_digest_comparison_names_each_moved_key():
    old = {"provenance": {"wall_time_s": 0.1, "seed": 5, "tolerances": {"norm_one": 1e-8},
                          "parameters": {"spectrum": {"dim": 32, "residuals": [0.25, 0.5]}}},
           "scenario": "s"}
    new = json.loads(json.dumps(old))
    new["provenance"]["wall_time_s"] = 0.2
    new["provenance"]["parameters"]["spectrum"]["residuals"][1] = 0.75
    new["provenance"]["parameters"]["spectrum"]["dim"] = 32 * (1 + 1e-12)
    new["provenance"]["truncation"] = {"dim": 32}
    del new["scenario"]
    assert list(digest._moved_keys(old, new)) == [
        ("provenance.parameters.spectrum.dim", 32, 32 * (1 + 1e-12), False, ""),
        ("provenance.parameters.spectrum.residuals", [0.25, 0.5], [0.25, 0.75], True, ""),
        ("provenance.truncation", None, {"dim": 32}, True, "added"),
        ("scenario", "s", None, True, "removed"),
    ]
    assert list(digest._moved_keys(old, json.loads(json.dumps(old)))) == []


def test_digest_comparison_exits_one_on_any_move(tmp_path, capsys):
    record = {"check_id": "x", "anchor": "law", "measured": 0.5, "threshold": 1.0,
              "direction": "<=", "status": "pass", "detail": ""}

    def keep(side: str, **reports) -> Path:
        directory = tmp_path / side
        directory.mkdir()
        for name, (measured, wall) in reports.items():
            (directory / f"{name}.json").write_text(json.dumps(
                {"records": [dict(record, measured=measured)],
                 "provenance": {"wall_time_s": wall}}))
        return directory

    def compare(old: Path, new: Path) -> int:
        rc = digest.main(["--compare", str(old), str(new)])
        capsys.readouterr()
        return rc

    before = keep("before", a=(0.5, 0.1), b=(0.25, 0.1))
    # the wall time is not compared
    assert compare(before, keep("same", a=(0.5, 0.2), b=(0.25, 0.3))) == 0
    assert compare(before, keep("moved", a=(0.5, 0.1), b=(0.75, 0.1))) == 1
    assert compare(before, keep("fewer", a=(0.5, 0.1))) == 1
    assert compare(before, keep("more", a=(0.5, 0.1), b=(0.25, 0.1), c=(1.0, 0.1))) == 1
    # bytes that differ with no value moved, as in another key order, count too
    reordered = tmp_path / "reordered"
    reordered.mkdir()
    for name in "ab":
        payload = json.loads((before / f"{name}.json").read_text())
        (reordered / f"{name}.json").write_text(json.dumps(payload, sort_keys=True))
    assert compare(before, reordered) == 1


if __name__ == "__main__" and "--capture" in sys.argv:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for label in LABELS:
            if digest.capture(GOLDEN / f"{label}.json", digest.result(label, Path(tmp))):
                print(f"rewrote {GOLDEN / label}.json")
