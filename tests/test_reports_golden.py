"""Reports of fixed CLI runs against stored goldens.

Each file in ``tests/golden/`` holds the exit code and either the JSON report
or the CSV rows of one run below.  Strings (ids, anchors, statuses,
directions) and thresholds must match exactly.  Every other number, including
the numbers inside ``detail`` strings and CSV cells, must match within a
relative 1e-9 or an absolute 1e-13.  ``wall_time_s`` is not compared.

Capture the goldens again with
``PYTHONPATH=src python tests/test_reports_golden.py --capture``.
"""

import csv
import importlib.util
import json
import math
import re
import sys
from pathlib import Path

import pytest

from focksym.cli import _evolution_operator_from, _series_and_records, main
from focksym.serialize import _cell
from focksym.verification import VerifyConfig

GOLDEN = Path(__file__).parent / "golden"
REL, ABS = 1e-9, 1e-13
EXACT_KEYS = {"check_id", "anchor", "status", "direction", "threshold"}

STD = {"a": [1.0, 0.0], "b": [0.0, 0.0], "c": [1.0, 0.0]}
OFFSET = {"a": 1.0, "b": [0.0, 1.0], "c": math.exp(-0.5)}
TRANSLATION = {"variant": "translation", "E": [1.0, 0.0], "F": [0.1, 0.0],
               "conjugation": STD}
DILATION = {"variant": "dilation", "ell": [-1.0, 0.5], "G": [1.0, 0.0],
            "H": [0.1, 0.0], "conjugation": STD}

# label -> (kind, params, dim, format) of a scenario run through `run --seed 5`
SCENARIOS = {
    "conjugation-diagonal": ("conjugation-check",
                             {"a": [math.cos(0.7), math.sin(0.7)], "c": [0.0, 1.0]}, 16, "json"),
    "conjugation-offset": ("conjugation-check", OFFSET, 16, "json"),
    "wco": ("wco", {"A": [0.5, 0.1], "B": 0.3, "D": [0.3, -0.05], "conjugation": STD},
            16, "json"),
    "semigroup": ("semigroup", {"family": TRANSLATION, "omega": 0.5}, 32, "json"),
    "semigroup-series": ("semigroup", {"family": TRANSLATION, "omega": 0.5}, 32, "csv"),
    "generator": ("generator", {"family": DILATION}, 16, "json"),
    "spectrum-lattice": ("spectrum", {"family": DILATION, "k_max": 4}, 32, "json"),
    "spectrum-empty": ("spectrum", {"family": TRANSLATION, "eta": 0.0}, 32, "json"),
    "evolution": ("evolution", {"B": "bagchi", "lam": 0.9, "t": 1.0, "samples": 6,
                                "kappa": {"cosine": {"amplitude": 0.3, "frequency": 1.1}}},
                  2, "json"),
    "full-verify": ("full-verify", {"seed": 11}, 8, "json"),
}

# label -> (argv without --out, format) of a subcommand run
COMMANDS = {
    "verify-all": (["verify-all", "--dim", "8", "--seed", "7"], "json"),
    "spectrum-series": (["spectrum", "--ell=-1+0.5j", "--G", "0.5", "--H", "0.2",
                         "--k-max", "4", "--dim", "32", "--format", "csv"], "csv"),
    "evolve-series": (["evolve", "--kappa", "0.4", "--lam", "0.8", "--t", "2",
                       "--samples", "9"], "csv"),
}


def run(label: str, workdir: Path) -> dict:
    """Run one labelled invocation in workdir; its exit code and output."""
    if label in SCENARIOS:
        kind, params, dim, fmt = SCENARIOS[label]
        out = workdir / f"{label}.{fmt}"
        scenario = workdir / f"{label}-scenario.json"
        scenario.write_text(json.dumps({
            "name": label, "kind": kind, "params": params, "truncation": {"dim": dim},
            "output": {"format": fmt, "path": str(out)}}))
        argv = ["run", str(scenario), "--seed", "5"]
    else:
        argv, fmt = COMMANDS[label]
        out = workdir / f"{label}.{fmt}"
        argv = argv + ["--out", str(out)]
    code = main(argv)
    if fmt == "csv":
        with out.open(newline="") as fh:
            return {"exit": code, "csv": list(csv.reader(fh))}
    return {"exit": code, "report": json.loads(out.read_text())}


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


def mismatches(got, want, where: str = "", key: str = "") -> list[str]:
    """Every place where got differs from want under the rules above."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{where}: keys {sorted(set(got) ^ set(want))} differ"]
        return [m for k in sorted(want) if k != "wall_time_s"
                for m in mismatches(got[k], want[k], f"{where}.{k}", k)]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{where}[{i}]", key)]
    if type(got) is not type(want) and not (
            isinstance(got, (int, float)) and isinstance(want, (int, float))
            and not isinstance(got, bool) and not isinstance(want, bool)):
        return [f"{where}: {got!r} != {want!r}"]
    if key == "threshold" and isinstance(want, float):
        ok = got == want or (math.isnan(got) and math.isnan(want))
    elif key in EXACT_KEYS or isinstance(want, bool) or want is None:
        ok = got == want
    elif isinstance(want, str):
        ok = _cell_close(got, want) if key == "csv" else (
            _text_close(got, want) if key == "detail" else got == want)
    else:
        ok = _close(float(got), float(want))
    return [] if ok else [f"{where}: {got!r} != {want!r}"]


@pytest.mark.parametrize("label", [*SCENARIOS, *COMMANDS])
def test_report_matches_golden(label, tmp_path):
    want = json.loads((GOLDEN / f"{label}.json").read_text())
    got = run(label, tmp_path)
    assert mismatches(got, want) == []


def _entrywise_rows(params: dict) -> list[list[str]]:
    """The run's series CSV rows built entry by entry from numpy scalars, each
    cell by _cell."""
    s, t = params.get("s", 0.0), params["t"]  # the kind's default s is 0
    rel_tol = params.get("rel_tol", 1e-10)
    B, breaks_at, _, _, M = _evolution_operator_from(params, (s, t))
    times, series, _ = _series_and_records(VerifyConfig(dim=2), B, breaks_at(rel_tol), (s, t),
                                           params["samples"], rel_tol, M)
    rows = []
    for tk, U in zip(times, series):
        row = [float(tk)]
        for i in range(len(U)):
            for j in range(len(U)):
                row += [U[i, j].real, U[i, j].imag]
        rows.append([_cell(v) for v in row])
    return rows


# the `evolve` flags of "evolve-series", as the subcommand passes them on
EVOLVE_SERIES = {"B": "bagchi", "nu": 1.0, "kappa": 0.4, "lam": 0.8, "s": 0.0, "t": 2.0,
                 "rel_tol": 1e-10, "samples": 9}


@pytest.mark.parametrize("label", ["evolve-series", "evolution"])
def test_evolution_csv_cells_match_entrywise_rows(label, tmp_path):
    if label in COMMANDS:
        params = EVOLVE_SERIES
        rows = run(label, tmp_path)["csv"]
    else:
        params = SCENARIOS[label][1]
        out = tmp_path / f"{label}.csv"
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"name": label, "kind": "evolution", "params": params,
                                        "output": {"format": "csv", "path": str(out)}}))
        assert main(["run", str(scenario), "--seed", "5"]) == 0
        with out.open(newline="") as fh:
            rows = list(csv.reader(fh))
    assert rows[1:] == _entrywise_rows(params)


def test_comparison_rules():
    rec = {"check_id": "x", "threshold": 1e-12, "measured": 0.5, "detail": "slope 1.0000"}
    assert mismatches(rec, dict(rec, measured=0.5 * (1 + 1e-12))) == []
    assert mismatches(rec, dict(rec, measured=0.6))
    assert mismatches(rec, dict(rec, threshold=1e-12 * (1 + 1e-12)))
    assert mismatches(rec, dict(rec, detail="slope 1.0001"))
    assert mismatches(rec, dict(rec, detail="slope  1.0000"))
    assert mismatches({"csv": [["t", "0.25"]]}, {"csv": [["t", "0.25000000000001"]]}) == []
    assert mismatches({"csv": [["t", "0.25"]]}, {"csv": [["s", "0.25"]]})


@pytest.fixture
def digest(monkeypatch):
    """scripts/report_digest.py as a module."""
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    monkeypatch.syspath_prepend(str(scripts))
    spec = importlib.util.spec_from_file_location("report_digest", scripts / "report_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_comparison_names_each_moved_key(digest):
    old = {"provenance": {"wall_time_s": 0.1, "seed": 5, "tolerances": {"norm_one": 1e-8},
                          "parameters": {"spectrum": {"dim": 32, "residuals": [0.25, 0.5]}}},
           "scenario": "s"}
    new = json.loads(json.dumps(old))
    new["provenance"]["wall_time_s"] = 0.2
    new["provenance"]["parameters"]["spectrum"]["residuals"][1] = 0.75
    new["provenance"]["parameters"]["spectrum"]["dim"] = 32 * (1 + 1e-12)
    new["provenance"]["truncation"] = {"dim": 32}
    del new["scenario"]
    assert list(digest._moved_keys(old, new, mismatches)) == [
        ("provenance.parameters.spectrum.dim", 32, 32 * (1 + 1e-12), False, ""),
        ("provenance.parameters.spectrum.residuals", [0.25, 0.5], [0.25, 0.75], True, ""),
        ("provenance.truncation", None, {"dim": 32}, True, "added"),
        ("scenario", "s", None, True, "removed"),
    ]
    assert list(digest._moved_keys(old, json.loads(json.dumps(old)), mismatches)) == []


def test_digest_comparison_exits_one_on_any_move(tmp_path, digest, capsys):
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

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for label in [*SCENARIOS, *COMMANDS]:
            result = run(label, Path(tmp))
            (GOLDEN / f"{label}.json").write_text(
                json.dumps(result, indent=1, sort_keys=True) + "\n")
