"""scripts/sweeps.py: the sweeps that no other test runs, each on its cheapest
arguments, exit 0 and print one row per requested case.  ``tests/test_wco.py``
runs ``kernels`` and holds the entry-sum oracle against the assembly."""

import csv
import importlib.util
import json
import os
from pathlib import Path

import pytest

from focksym import cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture(scope="module")
def sweeps():
    spec = importlib.util.spec_from_file_location("sweeps", SCRIPTS / "sweeps.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_involution_prints_each_dim_and_writes_the_csv(sweeps, capsys, tmp_path):
    out = tmp_path / "decay.csv"
    assert sweeps.main(["involution", "--dims", "8", "16", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("conjugation a=1, b=1j, c=0.606531,")
    assert lines[1].split() == ["dim", "residual", "decay", "vs", "prev"]
    # dim 8 does not exceed the probe degree 8; dim 16 has no previous row
    assert lines[2].split() == ["8", "(skipped:", "dim", "must", "exceed", "max", "degree)"]
    dim, residual, factor = lines[3].split()
    assert dim == "16" and 0 < float(residual) < 1 and factor == "nan"
    assert lines[4:] == [f"wrote {out}"]
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["dim", "residual", "decay_factor"]
    assert [row[0] for row in rows[1:]] == ["16"]
    assert float(rows[1][1]) == pytest.approx(float(residual), rel=1e-4)  # printed to 5 digits


def test_growth_prints_each_omega(sweeps, capsys):
    assert sweeps.main(["growth", "--dim", "16"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["translation family, dim 16",
                         "   omega           sup   argmax t  diverging"]
    rows = [line.split() for line in lines[2:]]
    assert [float(row[0]) for row in rows] == [0.0, 0.5, 1.0, 2.0, 5.0, 10.0]
    # E = 1 grows like e^{t^2}: the unweighted curve peaks at the grid's end
    assert rows[0][2:] == ["8.0000", "True"]
    assert all(row[3] in ("True", "False") for row in rows)


def test_dims_runs_verify_all_in_a_fresh_process(sweeps, capsys, monkeypatch):
    src = str(Path(cli.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert sweeps.main(["dims", "--dims", "8"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["command"] == "focksym verify-all --dim <dim> --seed 7"
    assert out["environment"]["blas_threads"] == "1"
    run = out["dims"]["8"]
    assert (run["exit"], run["traceback"]) == (0, False)
    # below dim 64 the truncation-sensitive records are downgraded to warn
    assert {s: run[s] for s in ("pass", "warn", "info", "fail")} == {
        "pass": 73, "warn": 18, "info": 7, "fail": 0}
    assert run["failed"] == [] and len(run["warned"]) == 18
