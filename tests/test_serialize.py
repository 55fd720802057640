import csv
import io
import json
import math
import os
import stat
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import focksym.serialize as serialize
from focksym.serialize import (
    OUTPUT_DIR_ENV,
    _cell,
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
    write_json_report(str(target), {"new": 1})
    assert target.read_text() == '{\n  "new": 1\n}\n'
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


def test_csv_rows_match_the_stdlib_writer_byte_for_byte(tmp_path):
    # rows given as a list take the csv writer cell by cell, whatever they hold
    floats = [-0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e16, 1 / 3]
    rows = [
        floats,
        [np.float64(v) for v in floats],
        [1, 2.5, np.float64(0.1), 1 + 2j, -0.5 - 0.0j],
        ["a,b", 'say "hi"', "two\nlines", "", 0.25],
        [""],
        [],
        np.random.default_rng(0).standard_normal(2049).tolist(),
    ]
    header = ["h,1", "h2"]
    path = tmp_path / "rows.csv"
    write_csv(str(path), header, rows)
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(v) for v in row] for row in rows)
    assert path.read_bytes() == want.getvalue().encode()


def _mode(path) -> int:
    return stat.S_IMODE(os.stat(path).st_mode)


def test_atomic_write_gives_a_new_file_the_mode_of_open(tmp_path):
    old = os.umask(0o022)
    try:
        write_json_report(str(tmp_path / "report.json"), {})
        with open(tmp_path / "plain.json", "w"):
            pass
    finally:
        os.umask(old)
    assert _mode(tmp_path / "report.json") == _mode(tmp_path / "plain.json") == 0o644


def test_atomic_write_keeps_an_existing_files_mode(tmp_path):
    target = tmp_path / "report.csv"
    target.write_text("old")
    target.chmod(0o640)
    write_csv(str(target), ["x"], np.array([[0.5]]))
    assert _mode(target) == 0o640
    assert target.read_text() == "x\n0.5\n"


def _temps(directory) -> list[str]:
    return [p for p in os.listdir(directory) if p.endswith(".tmp")]


@pytest.mark.parametrize("path", ["rows", "array"])
def test_a_write_that_fails_midway_leaves_the_old_file(tmp_path, monkeypatch, path):
    target = tmp_path / "report.csv"
    target.write_bytes(b"old,bytes\n1,2\n")
    seen = []  # the temp files beside the target when the writer fails
    chunks, repr_cells = [], serialize._repr_cells

    def rows():
        yield from ([0.5 * k, 0.25] for k in range(3))
        seen.append(_temps(tmp_path))
        raise RuntimeError("midway")

    def second_chunk_fails(x, last):
        if chunks:
            seen.append(_temps(tmp_path))
            raise RuntimeError("midway")
        chunks.append(x.size)
        return repr_cells(x, last)

    monkeypatch.setattr(serialize, "_repr_cells", second_chunk_fails)
    body = rows() if path == "rows" else np.full((3, 2049), 0.1)  # two kernel chunks
    with pytest.raises(RuntimeError, match="midway"):
        write_csv(str(target), ["a", "b"] if path == "rows" else ["c"] * 2049, body)
    assert len(seen) == 1 and len(seen[0]) == 1  # the writer was streaming into a temp
    assert target.read_bytes() == b"old,bytes\n1,2\n"
    assert _temps(tmp_path) == []


def test_csv_write_peak_does_not_grow_with_the_table(tmp_path):
    rng = np.random.default_rng(0)
    header = [f"c{j}" for j in range(2049)]
    path = tmp_path / "series.csv"
    write_csv(str(path), header, rng.standard_normal((43, 2049)))  # warms the layout cache
    peaks = []
    for rows in (43, 172):
        table = rng.standard_normal((rows, 2049))
        tracemalloc.start()
        try:
            write_csv(str(path), header, table)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]
    assert peaks[1] < path.stat().st_size / 2  # the file's text is never held


def _writer_bytes(header, table: np.ndarray) -> bytes:
    """What the csv writer gives the table with every cell as its repr."""
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([repr(v) for v in row] for row in table.tolist())
    return want.getvalue().encode()


def _edge_values() -> np.ndarray:
    """Powers of 2 and 10 with their neighbours, the notation edges, the
    extremes of the double range, integers and short decimals, both signs."""
    powers = np.array([2.0**e for e in range(-1074, 1024)]
                      + [float(f"1e{e}") for e in range(-323, 309)])
    special = [1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 5e-324, 2.0**-1022,
               sys.float_info.max, 2.0**53, 2.0**53 + 2, 0.0, math.inf, math.nan]
    cells = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, math.inf),
                            special, np.arange(-3000.0, 3001.0),
                            np.arange(-5000, 5001) / 1000, np.arange(1, 1001) / 8])
    return np.concatenate([cells, -cells])


def _table(cells: np.ndarray, width: int) -> np.ndarray:
    return np.concatenate([cells, np.zeros(-len(cells) % width)]).reshape(-1, width)


def test_array_cells_are_repr_on_bit_patterns_and_edges(tmp_path):
    bits = np.random.default_rng(20261019).integers(0, 2**64, 200_000, dtype=np.uint64)
    # rows of 7 cells, so that rows straddle the chunks of the kernel
    table = _table(np.concatenate([bits.view(np.float64), _edge_values()]), 7)
    header = [f"c{j}" for j in range(7)]
    path = tmp_path / "cells.csv"
    write_csv(str(path), header, table)
    assert path.read_bytes() == _writer_bytes(header, table)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=9),
                  elements=st.one_of(
                      st.floats(width=64),
                      st.integers(0, 2**64 - 1).map(
                          lambda b: float(np.array(b, np.uint64).view(np.float64))))))
def test_array_bytes_are_the_writers_for_any_floats(tmp_path, table):
    path = tmp_path / "any.csv"
    header = [f"c{j}" for j in range(table.shape[1])]
    write_csv(str(path), header, table)
    assert path.read_bytes() == _writer_bytes(header, table)


def test_random_normals_take_no_fallback_cell(tmp_path, monkeypatch):
    fallback = []

    def counted(values, last):
        fallback.extend(values)
        return repr_rows(values, last)

    repr_rows = serialize._repr_rows
    monkeypatch.setattr(serialize, "_repr_rows", counted)
    table = np.random.default_rng(0).standard_normal((49, 2049))
    write_csv(str(tmp_path / "normals.csv"), [f"c{j}" for j in range(2049)], table)
    assert fallback == []
    write_csv(str(tmp_path / "nan.csv"), ["a", "b"], np.array([[math.nan, 0.5]]))
    assert len(fallback) == 1  # the counter sees the cells that fall back
