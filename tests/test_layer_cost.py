"""scripts/layer_cost.py: each subcommand, on its cheapest arguments, exits 0
and prints one row per requested case."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def layer_cost(monkeypatch, tmp_path):
    """scripts/layer_cost.py as a module, one round per fastest-of figure and
    1 ms of calls per round of a wco figure."""
    monkeypatch.syspath_prepend(str(SCRIPTS))
    monkeypatch.setenv("FOCKSYM_OUTPUT_DIR", str(tmp_path))  # the cli subcommand sets it
    spec = importlib.util.spec_from_file_location("layer_cost", SCRIPTS / "layer_cost.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "REPEATS", 1)
    monkeypatch.setattr(module, "KNOT_REPEATS", 1)
    monkeypatch.setattr(module, "WCO_FILL", 1e-3)
    return module


def _rows(out: str, header: str) -> list[list[str]]:
    """The rows of the table whose header line starts with ``header``, up to
    the next blank line, split on whitespace."""
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.split()[:1] == [header]) + 1
    rows = []
    for line in lines[start:]:
        if not line.strip():
            break
        rows.append(line.split())
    return rows


def test_wco_prints_each_dim(layer_cost, capsys):
    assert layer_cost.main(["wco", "--dims", "2", "--repeats", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out["environment"]) == {"python", "numpy", "blas_threads", "longdouble_nmant"}
    assert list(out["dims"]) == ["2"]
    for row in out["dims"].values():
        assert list(row) == ["offset", "diagonal"]
        for cost in row.values():
            assert set(cost) == {"ms_full", "ms_ncols5", "rel_error"}
            assert cost["rel_error"] < 1e-14


def test_wco_stack_prints_each_symbol(layer_cost, capsys):
    assert layer_cost.main(["wco", "--stack", "--dims", "2", "--repeats", "1"]) == 0
    row = json.loads(capsys.readouterr().out)["dims"]["2"]
    assert list(row) == ["offset", "diagonal"]
    for cost in row.values():
        assert list(cost["us_per_matrix"]) == ["1", "5", "full"]


def test_cli_prints_each_part(layer_cost, capsys):
    assert layer_cost.main(["cli", "--calls", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("python ")
    assert [row[0] for row in _rows(out, "part")] == [
        "build", "parse", "validate", "run", "validate-wco"]


def test_cli_fresh_prints_each_scenario(layer_cost, capsys):
    assert layer_cost.main(["cli", "--fresh", "--processes", "1"]) == 0
    rows = _rows(capsys.readouterr().out, "scenario")
    assert [row[0] for row in rows] == [f"{kind}-d{dim}-{fmt}" for kind, dim, fmt, _
                                        in layer_cost.FRESH_SCENARIOS]
    for _, first, third, rss in rows:
        assert float(first) > 0 and float(third) > 0 and float(rss) > 0


def test_propagator_passes_only_prints_each_model(layer_cost, capsys):
    assert layer_cost.main(["propagator", "--passes-only", "--t", "0.5"]) == 0
    out = capsys.readouterr().out
    labels = [label for label, _, _ in layer_cost.PASS_MODELS]
    rows = _rows(out, "model")
    assert [row[0] for row in rows] == labels + ["verify-all"]
    assert all(int(row[5]) > 0 for row in rows[:-1])  # passes
    # the group's one step-loop call, seen through verification's own binding:
    # spans, B calls and B times inside the loop, and passes
    assert rows[-1][3:7] == ["9", "122", "1919", "121"]
    tables = out.split("write_csv of a normal table", 1)[1].strip().splitlines()[1:]
    assert len(tables) == len(layer_cost.CSV_TABLES)


def test_propagator_at_t_0_prints_a_dash_for_no_pass_or_step(layer_cost, capsys):
    assert layer_cost.main(["propagator", "--passes-only", "--t", "0"]) == 0
    rows = _rows(capsys.readouterr().out, "model")
    assert all(row[5] == "0" and row[-1] == "-" for row in rows[:-1])  # passes, us/pass
    assert layer_cost.us_per_step(2, 0.0, 1e-10) == (0, "-")


@pytest.mark.parametrize("argv", [["propagator", "--t", "-1"], ["knots", "--knots", "1"]])
def test_a_horizon_below_0_or_a_table_below_two_knots_is_a_usage_error(layer_cost, capsys,
                                                                       argv):
    with pytest.raises(SystemExit) as exit_:
        layer_cost.main(argv)
    assert exit_.value.code == 2
    assert f"error: argument {argv[1]}: must be >= " in capsys.readouterr().err


def test_knots_prints_each_table(layer_cost, capsys):
    assert layer_cost.main(["knots", "--knots", "6", "--rel-tol", "1e-8"]) == 0
    rows = _rows(capsys.readouterr().out, "rel_tol")
    assert [row[2] for row in rows] == ["random"] + [f"eps{e:g}" for e in layer_cost.EPS]
    assert all(row[:2] == ["1e-08", "6"] for row in rows)



def test_lines_counts_only_code(layer_cost):
    # a docstring, a comment, a blank line and a statement over two lines:
    # the statement's two lines and the def's two are code
    small = ('"""A module docstring\nover two lines."""\n'
             "\n"
             "# a comment\n"
             "total = (1 +\n"
             "         2)  # a trailing comment\n"
             "\n"
             "def f():\n"
             '    """A function docstring."""\n'
             '    return "not a docstring"\n')
    assert layer_cost.code_lines(small) == 4
    assert layer_cost.code_lines("") == 0


def test_lines_prints_each_module_and_the_total(layer_cost, capsys):
    assert layer_cost.main(["lines"]) == 0
    rows = _rows(capsys.readouterr().out, "module")
    assert rows[0] == ["__init__.py", "1"] and rows[-1][0] == "total"
    assert int(rows[-1][1]) == sum(int(n) for _, n in rows[:-1])


def test_lines_prints_each_script_and_the_total(layer_cost, capsys):
    assert layer_cost.main(["lines"]) == 0
    out = capsys.readouterr().out
    assert "\n\nscript " in out  # a blank line after the module table
    rows = _rows(out, "script")
    assert [name for name, _ in rows[:-1]] == sorted(f.name for f in SCRIPTS.glob("*.py"))
    assert rows[-1][0] == "total"
    assert int(rows[-1][1]) == sum(int(n) for _, n in rows[:-1])
    sweeps = (SCRIPTS / "sweeps.py").read_text()
    assert dict(rows)["sweeps.py"] == str(layer_cost.code_lines(sweeps))


def test_bridge_prints_each_family_at_each_dim(layer_cost, capsys):
    assert layer_cost.main(["bridge", "--dims", "16", "--repeats", "1"]) == 0
    out = capsys.readouterr().out
    assert "ACTION_PRODUCTS_PER_DIM_SQUARED 0.041" in out
    rows = _rows(out, "dim")
    assert [row[:3] for row in rows] == [["16", "translation", "dense"],
                                         ["16", "dilation", "dense"]]
    # the taylor and the dense route's errors against scipy
    assert all(float(row[-2]) < 1e-13 and float(row[-1]) < 1e-13 for row in rows)
    boundary = _rows(out, "boundary")
    assert [row[:2] for row in boundary] == [["16", "translation"], ["16", "dilation"]]
    limit = layer_cost.bridge_limit(16)
    assert all(limit - 5 < int(row[3]) <= limit for row in boundary)
    assert all(row[-1] == "edge" for row in boundary)


def test_bridge_marks_a_boundary_row_the_search_capped(layer_cost, capsys):
    # from dim 192 the translation of size 10, the search's cap, is inside the
    # rule: its row times an input inside the rule, not at its edge
    assert layer_cost.main(["bridge", "--dims", "192", "--repeats", "1"]) == 0
    translation, dilation = _rows(capsys.readouterr().out, "boundary")
    limit = layer_cost.bridge_limit(192)
    assert translation[1:3] == ["translation", "10"] and translation[-1] == "capped"
    assert int(translation[3]) < limit
    assert dilation[-1] == "edge" and int(dilation[3]) <= limit
