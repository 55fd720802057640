import json
import os

import numpy as np
import pytest

from focksym.serialize import (
    OUTPUT_DIR_ENV,
    atomic_write_text,
    complex_from_json,
    complex_to_json,
    default_output_dir,
    write_csv,
    write_json_report,
)


def test_complex_round_trip():
    for z in (0j, 1 + 2j, -0.5 - 0.25j, 3.0):
        assert complex_from_json(complex_to_json(z)) == complex(z)


def test_complex_from_bare_number():
    assert complex_from_json(2) == 2 + 0j
    assert complex_from_json(-1.5) == -1.5 + 0j


def test_complex_from_json_rejects_booleans():
    for obj in (True, False, [True, 0.0], [0.0, False]):
        with pytest.raises(TypeError):
            complex_from_json(obj)


def test_csv_float_cells_are_repr_for_python_and_numpy_floats(tmp_path):
    vals = [0.1, -0.0, 1e-300, 1e16, 123456789.123456789, float("nan"), float("-inf")]
    path = tmp_path / "vals.csv"
    write_csv(str(path), ["x"] * len(vals), [vals, [np.float64(v) for v in vals]])
    lines = path.read_text().splitlines()
    assert lines[1] == lines[2] == ",".join(repr(v) for v in vals)


def test_csv_cells_round_trip_through_float(tmp_path):
    path = tmp_path / "vals.csv"
    rows = [(0.1, 1 / 3), (1e-17, 123456789.123456789)]
    write_csv(str(path), ["a", "b"], rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "a,b"
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        for cell, val in zip(cells, row):
            assert float(cell) == val  # shortest repr reloads losslessly


def test_csv_handles_numpy_scalars(tmp_path):
    path = tmp_path / "np.csv"
    write_csv(str(path), ["x"], [(np.float64(0.25),)])
    assert path.read_text().splitlines()[1] == "0.25"


def test_atomic_write_replaces_and_leaves_no_temp(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old")
    atomic_write_text(str(target), "new")
    assert target.read_text() == "new"
    leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
    assert leftovers == []


def test_json_report_has_sorted_keys(tmp_path):
    path = tmp_path / "r.json"
    write_json_report(str(path), {"zeta": 1, "alpha": {"b": 2, "a": 3}})
    text = path.read_text()
    assert text.index('"alpha"') < text.index('"zeta"')
    assert json.loads(text) == {"zeta": 1, "alpha": {"b": 2, "a": 3}}


def test_output_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    assert default_output_dir() == str(tmp_path)
    monkeypatch.delenv(OUTPUT_DIR_ENV)
    assert default_output_dir() == "out"
