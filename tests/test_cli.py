"""End-to-end command line behaviour: exit codes, reports, determinism."""

import csv
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from focksym import cli, conjugation, evolution, generator, semigroup, verification, wco
from focksym.cli import main

STD_CONJ = {"a": [1.0, 0.0], "b": [0.0, 0.0], "c": [1.0, 0.0]}
TRANSLATION = {"variant": "translation", "E": [1.0, 0.0], "F": [0.0, 0.0],
               "conjugation": STD_CONJ}
DILATION = {"variant": "dilation", "ell": [1.0, 0.0], "G": [1.0, 0.0],
            "H": [0.0, 0.0], "conjugation": STD_CONJ}


def _scenario(tmp_path, body, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(body))
    return str(p)


@pytest.fixture(autouse=True)
def _outdir(tmp_path, monkeypatch):
    """Keep every CLI artifact inside the test's temp directory."""
    out = tmp_path / "out"
    monkeypatch.setenv("FOCKSYM_OUTPUT_DIR", str(out))
    return out


# --- input errors -> exit 1 ----------------------------------------------------

def test_missing_file_is_input_error(capsys):
    assert main(["validate", "/nonexistent/path.json"]) == 1
    assert "input error" in capsys.readouterr().err


def test_malformed_json_is_input_error(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["validate", str(p)]) == 1
    assert "malformed JSON" in capsys.readouterr().err


def test_unknown_kind_reports_field_path(tmp_path, capsys):
    path = _scenario(tmp_path, {"name": "x", "kind": "frobnicate"})
    assert main(["validate", path]) == 1
    err = capsys.readouterr().err
    assert "kind" in err and "frobnicate" in err


def test_constraint_violation_is_input_error(tmp_path, capsys):
    path = _scenario(tmp_path, {
        "name": "bad", "kind": "conjugation-check",
        "params": {"a": [2.0, 0.0], "b": [0.0, 0.0], "c": [1.0, 0.0]},
    })
    assert main(["validate", path]) == 1
    assert "input error" in capsys.readouterr().err


def test_unknown_tolerance_key_is_input_error(tmp_path, capsys):
    path = _scenario(tmp_path, {
        "name": "x", "kind": "conjugation-check",
        "params": {"a": [1.0, 0.0]},
        "truncation": {"dim": 16, "tolerances": {"no_such_tolerance": 1e-9}},
    })
    assert main(["validate", path]) == 1
    assert "no_such_tolerance" in capsys.readouterr().err


def test_usage_error_is_exit_one(capsys):
    assert main(["no-such-command"]) == 1
    assert "input error" in capsys.readouterr().err


def test_bad_flag_value_is_exit_one(capsys):
    assert main(["evolve", "--nu", "not-a-number"]) == 1
    assert "input error" in capsys.readouterr().err


TABLE_MISMATCH = {"B": "table", "times": [0.0, 1.0],
                  "matrices": [[[1.0]], [[1.0, 0.0], [0.0, 1.0]]]}


@pytest.mark.parametrize("kind, params, name, field", [
    ("evolution", {"B": "bagchi", "rel_tol": 0}, "x", "params.rel_tol"),
    ("semigroup", {"family": TRANSLATION, "omega": "x"}, "x", "params.omega"),
    ("semigroup", {"family": TRANSLATION, "omega": 1e3}, "x", "params.omega"),
    ("wco", {"A": 1e300}, "x", "params.A"),
    ("evolution", TABLE_MISMATCH, "x", "params.matrices[1]"),
    ("evolution", {"B": "constant", "matrix": [[1e13]], "samples": 3}, "x", "params.matrix"),
    ("evolution", {"B": "bagchi", "samples": 0}, "x", "params.samples"),
    ("conjugation-check", {}, "a/b", "name"),
    (None, None, None, "--dim"),
    # JSON integers too large for a float
    ("semigroup", {"family": TRANSLATION, "omega": 10**400}, "x", "params.omega"),
    ("wco", {"A": [10**400, 0]}, "x", "params.A"),
    ("evolution", {"B": "table", "times": [0, 10**400], "matrices": [[[1.0]], [[1.0]]]},
     "x", "params.times[1]"),
    ("evolution", {"B": "bagchi", "kappa": 10**400}, "x", "params.kappa"),
    ("evolution", {"B": "bagchi", "s": -1e308, "t": 1e308}, "x", "params.t"),
    ("conjugation-check", {"a": 1.0, "c": math.exp(-0.5)}, "x", "params.c"),
    ("spectrum", {"family": DILATION, "k_max": 16}, "x", "params.k_max"),
], ids=["rel_tol-zero", "omega-string", "omega-overflow", "A-overflow", "table-shapes", "stiff",
        "samples-zero", "name-separator", "verify-all-dim-one", "omega-huge-int", "A-huge-int",
        "times-huge-int", "kappa-huge-int", "span-overflow", "conjugation-constraint",
        "k_max-at-dim"])
def test_malformed_input_names_field_path(tmp_path, _outdir, capsys, kind, params, name, field):
    if kind is None:
        argv = ["verify-all", "--dim", "1"]
    else:
        argv = ["run", _scenario(tmp_path, {"name": name, "kind": kind, "params": params,
                                            "truncation": {"dim": 16}})]
    assert main(argv) == 1
    assert f"input error: {field}:" in capsys.readouterr().err
    assert not _outdir.exists()


_HUGE = 10**400


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("kind, params, dim, field", [
    ("wco", {"A": 0.5}, _HUGE, "truncation.dim"),
    ("wco", {"A": 0.5}, 2**32, "truncation.dim"),
    ("spectrum", {"family": DILATION, "k_max": _HUGE}, 16, "params.k_max"),
    ("evolution", {"B": "bagchi", "samples": _HUGE}, 16, "params.samples"),
], ids=["dim-huge", "dim-2^32", "k_max-huge", "samples-huge"])
def test_unindexable_size_names_field_path(tmp_path, _outdir, capsys, command,
                                           kind, params, dim, field):
    path = _scenario(tmp_path, {"name": "x", "kind": kind, "params": params,
                                "truncation": {"dim": dim}})
    assert main([command, path]) == 1
    assert f"input error: {field}: " in capsys.readouterr().err
    assert not _outdir.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("kind, params, dim, field", [
    ("evolution", {"B": "bagchi", "samples": True}, 16, "params.samples"),
    ("evolution", {"B": "bagchi", "t": True}, 16, "params.t"),
    ("spectrum", {"family": DILATION, "k_max": False}, 16, "params.k_max"),
    ("wco", {"A": 0.5}, True, "truncation.dim"),
    ("wco", {"A": True}, 16, "params.A"),
    ("wco", {"A": [0.5, False]}, 16, "params.A"),
    ("evolution", {"B": "constant", "matrix": [[True]]}, 16, "params.matrix"),
], ids=["samples-int", "t-float", "k_max-int", "dim-int", "A-complex", "A-pair",
        "matrix-entry"])
def test_json_boolean_is_not_a_number(tmp_path, _outdir, capsys, command,
                                      kind, params, dim, field):
    path = _scenario(tmp_path, {"name": "x", "kind": kind, "params": params,
                                "truncation": {"dim": dim}})
    assert main([command, path]) == 1
    assert f"input error: {field}: " in capsys.readouterr().err
    assert not _outdir.exists()


@pytest.mark.parametrize("argv, field", [
    (["verify-all", "--dim", str(_HUGE)], "--dim"),
    (["verify-all", "--dim", str(2**32)], "--dim"),
    (["spectrum", "--dim", str(2**32)], "--dim"),
    (["spectrum", "--k-max", str(_HUGE)], "params.k_max"),
    (["evolve", "--samples", str(_HUGE)], "params.samples"),
], ids=["verify-all-dim-huge", "verify-all-dim-2^32", "spectrum-dim-2^32",
        "spectrum-k-max-huge", "evolve-samples-huge"])
def test_unindexable_size_flag_names_field_path(_outdir, capsys, argv, field):
    assert main(argv) == 1
    assert f"input error: {field}: " in capsys.readouterr().err
    assert not _outdir.exists()


def test_huge_integer_tolerance_is_input_error(tmp_path, _outdir, capsys):
    path = _scenario(tmp_path, {
        "name": "x", "kind": "conjugation-check", "params": {},
        "truncation": {"dim": 16, "tolerances": {"constraint": 10**400}},
    })
    assert main(["run", path]) == 1
    assert "input error: truncation.tolerances.constraint:" in capsys.readouterr().err
    assert not _outdir.exists()


# --- validate / run on good scenarios -------------------------------------------

def test_validate_passes_good_scenario(tmp_path, capsys):
    path = _scenario(tmp_path, {
        "name": "standard involution", "kind": "conjugation-check",
        "params": {"a": [1.0, 0.0]},
        "truncation": {"dim": 16},
    })
    assert main(["validate", path]) == 0
    assert "scenario valid" in capsys.readouterr().out


def test_run_conjugation_writes_report(tmp_path, _outdir, capsys):
    path = _scenario(tmp_path, {
        "name": "std conj", "kind": "conjugation-check",
        "params": {"a": [1.0, 0.0]},
        "truncation": {"dim": 16},
    })
    assert main(["run", path]) == 0
    report_path = _outdir / "std-conj.json"
    assert report_path.exists()
    report = json.loads(report_path.read_text())
    assert report["scenario"] == "std conj"
    assert report["provenance"]["truncation"]["dim"] == 16
    statuses = {r["status"] for r in report["records"]}
    assert statuses <= {"pass", "info"}


def test_records_csv_quotes_comma_cells(tmp_path):
    target = tmp_path / "records.csv"
    path = _scenario(tmp_path, {
        "name": "std conj", "kind": "conjugation-check",
        "params": {"a": [1.0, 0.0]},
        "truncation": {"dim": 16},
        "output": {"format": "csv", "path": str(target)},
    })
    assert main(["run", path]) == 0
    with open(target, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [6] * 3
    assert rows[2][:2] == ["conjugation.isometry", "<Cf,Cg> = <g,f>"]


def test_offset_involution_at_rounding_floor_passes(tmp_path, _outdir):
    # the residual reaches the rounding floor by dim 48, so it cannot decay
    # from dim 48 to 96; the record passes on the floor instead
    path = _scenario(tmp_path, {
        "name": "offset", "kind": "conjugation-check",
        "params": {"a": 1.0, "b": [0.0, 1.0], "c": math.exp(-0.5)},
        "truncation": {"dim": 96},
    })
    assert main(["run", path]) == 0
    records = json.loads((_outdir / "offset.json").read_text())["records"]
    decay = records[1]
    assert decay["check_id"] == "conjugation.involution.decay"
    assert decay["status"] == "pass" and decay["threshold"] == 1e-12
    assert decay["detail"].startswith("rounding-floor branch")


def test_run_respects_explicit_output_path(tmp_path):
    target = tmp_path / "custom" / "report.json"
    target.parent.mkdir()
    path = _scenario(tmp_path, {
        "name": "custom out", "kind": "conjugation-check",
        "params": {"a": [1.0, 0.0]},
        "truncation": {"dim": 8},
        "output": {"path": str(target)},
    })
    assert main(["run", path]) == 0
    assert target.exists()


def test_crushed_tolerance_forces_exit_two(tmp_path, capsys):
    path = _scenario(tmp_path, {
        "name": "impossible", "kind": "semigroup",
        "params": {"family": TRANSLATION},
        "truncation": {"dim": 16, "tolerances": {"semigroup_law": 1e-30}},
    })
    assert main(["run", path]) == 2
    assert "FAILED" in capsys.readouterr().err


def test_run_semigroup_growth_csv(tmp_path):
    target = tmp_path / "growth.csv"
    path = _scenario(tmp_path, {
        "name": "growth", "kind": "semigroup",
        "params": {"family": TRANSLATION},
        "truncation": {"dim": 32},
        "output": {"format": "csv", "path": str(target)},
    })
    assert main(["run", path]) == 0
    with open(target, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "norm", "weighted_norm"]
    assert float(rows[1][0]) == 0.0
    # every cell must round-trip as a float
    for row in rows[1:]:
        for cell in row:
            float(cell)


def test_run_spectrum_scenario_lattice(tmp_path, _outdir):
    path = _scenario(tmp_path, {
        "name": "lattice", "kind": "spectrum",
        "params": {"family": DILATION, "k_max": 3},
        "truncation": {"dim": 32},
    })
    assert main(["run", path]) == 0
    report = json.loads((_outdir / "lattice.json").read_text())
    payload = report["provenance"]["parameters"]["spectrum"]
    assert payload["predicted"] == [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    assert "truncated_eigs" in payload


def test_run_divergence_scenario(tmp_path, _outdir):
    path = _scenario(tmp_path, {
        "name": "no eigenvalues", "kind": "spectrum",
        "params": {"family": TRANSLATION, "eta": [1.0, 1.0]},
        "truncation": {"dim": 64},
    })
    assert main(["run", path]) == 0
    report = json.loads((_outdir / "no-eigenvalues.json").read_text())
    cert = report["provenance"]["parameters"]["certificate"]
    assert cert["certified"] is True


def test_divergence_factor_tolerance_reaches_spectrum_run(tmp_path, capsys):
    path = _scenario(tmp_path, {
        "name": "strict divergence", "kind": "spectrum",
        "params": {"family": TRANSLATION, "eta": [1.0, 1.0]},
        "truncation": {"dim": 64, "tolerances": {"divergence_factor": 1e6}},
    })
    assert main(["run", path]) == 2
    assert "FAILED" in capsys.readouterr().err


def test_run_borderline_candidate_is_certified(tmp_path, _outdir):
    path = _scenario(tmp_path, {
        "name": "gaussian", "kind": "spectrum",
        "params": {"family": TRANSLATION, "eta": [0.0, 0.0]},
        "truncation": {"dim": 64},
    })
    assert main(["run", path]) == 0
    report = json.loads((_outdir / "gaussian.json").read_text())
    cert = report["provenance"]["parameters"]["certificate"]
    assert cert["certified"] is True and cert["branch"] == "gauss"
    assert report["records"][0]["threshold"] == 1.0


# --- verify-all -----------------------------------------------------------------

def _strip_wall_time(report: dict) -> dict:
    out = json.loads(json.dumps(report))
    out["provenance"].pop("wall_time_s")
    return out


def test_verify_all_small_dim_warns_but_exits_zero(tmp_path, _outdir, capsys):
    rc = main(["verify-all", "--dim", "8", "--seed", "7"])
    assert rc == 0
    report = json.loads((_outdir / "verify-all.json").read_text())
    statuses = [r["status"] for r in report["records"]]
    assert "warn" in statuses
    assert "fail" not in statuses


def test_verify_all_is_deterministic(tmp_path, _outdir):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["verify-all", "--dim", "8", "--seed", "7", "--out", str(out1)]) == 0
    assert main(["verify-all", "--dim", "8", "--seed", "7", "--out", str(out2)]) == 0
    rep1 = _strip_wall_time(json.loads(out1.read_text()))
    rep2 = _strip_wall_time(json.loads(out2.read_text()))
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


@pytest.mark.parametrize("dim", [2, 4, 5, 7, 8])
@pytest.mark.parametrize("route", ["verify-all", "full-verify"])
def test_suite_minimum_dim(tmp_path, capsys, route, dim):
    # below dim 8 the spectrum group's residual dims do not increase
    out = str(tmp_path / "report.json")
    if route == "verify-all":
        argv, field = ["verify-all", "--dim", str(dim), "--out", out], "--dim"
    else:
        argv = ["run", _scenario(tmp_path, {"name": "fv", "kind": "full-verify",
                                            "truncation": {"dim": dim},
                                            "output": {"path": out}})]
        field = "truncation.dim"
    rc = main(argv)
    if dim < 8:
        assert rc == 1
        assert f"input error: {field}:" in capsys.readouterr().err
    else:
        assert rc == 0


@pytest.fixture
def work(monkeypatch):
    """Calls of evolve and wco_matrix, counted at every module that binds them."""
    counts = {"evolve": 0, "wco_matrix": 0}
    modules = (wco, conjugation, evolution, generator, semigroup, verification, cli)
    for name, original in (("evolve", evolution.evolve), ("wco_matrix", wco.wco_matrix)):
        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for mod in modules:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counting)
    return counts


def test_verify_all_runs_past_dim_241(tmp_path):
    # from dim 242 the spectrum group's largest dim holds z^301, whose sqrt(301!)
    # overflows a double; no coefficient forms it
    out = tmp_path / "r.json"
    assert main(["verify-all", "--dim", "256", "--seed", "7", "--out", str(out)]) == 0
    statuses = [r["status"] for r in json.loads(out.read_text())["records"]]
    assert "fail" not in statuses


def test_verify_all_work_is_pinned(tmp_path, work):
    assert main(["verify-all", "--dim", "16", "--out", str(tmp_path / "r.json")]) == 0
    # evolution group: U(1, 0), U(1, 1), U(1, 0.5), U(0.5, 0) for the axioms,
    # U(1.5, 0) for the symmetry record, U(1, 0) and four U(1 + h, 1) for the
    # adjoint slope; the laplace group's five vectors share one 65-point growth pass;
    # the spectrum group builds each eigenfunction (m < 6, three dims) as one column
    assert work == {"evolve": 10, "wco_matrix": 1207}


# --- spectrum front end -----------------------------------------------------------

def test_spectrum_command_reproduces_integer_lattice(tmp_path):
    target = tmp_path / "spec.json"
    rc = main([
        "spectrum", "--ell", "1", "--G", "1", "--H", "0",
        "--k-max", "3", "--dim", "32", "--out", str(target),
    ])
    assert rc == 0
    report = json.loads(target.read_text())
    payload = report["provenance"]["parameters"]["spectrum"]
    assert payload["predicted"] == [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    assert max(payload["residuals"]) <= 1e-10


def test_spectrum_command_complex_rate(tmp_path):
    target = tmp_path / "spec.csv"
    rc = main([
        "spectrum", "--ell=-1+0.5j", "--G", "0.5", "--H", "0.2",
        "--k-max", "4", "--dim", "48", "--format", "csv", "--out", str(target),
    ])
    assert rc == 0
    with open(target, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["m", "predicted_re", "predicted_im", "residual"]
    assert len(rows) == 6  # header + k_max + 1 lattice points
    for row in rows[1:]:
        for cell in row:
            float(cell)


def test_spectrum_rejects_invalid_conjugation(capsys):
    rc = main(["spectrum", "--ell", "-1", "--a", "2"])
    assert rc == 1
    assert "input error" in capsys.readouterr().err


# --- evolve front end --------------------------------------------------------------

def test_evolve_writes_time_series(tmp_path):
    target = tmp_path / "evo.csv"
    rc = main([
        "evolve", "--nu", "1.0", "--kappa", "0.3", "--lam", "0.8",
        "--s", "0", "--t", "2", "--samples", "11", "--out", str(target),
    ])
    assert rc == 0
    with open(target, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "U00_re", "U00_im", "U01_re", "U01_im",
                       "U10_re", "U10_im", "U11_re", "U11_im"]
    assert len(rows) == 12
    assert float(rows[1][0]) == 0.0
    assert float(rows[1][1]) == 1.0  # U(s, s) = I
    assert float(rows[1][3]) == 0.0
    for row in rows[1:]:
        for cell in row:
            float(cell)


def test_evolve_default_output_lands_in_env_dir(_outdir):
    rc = main(["evolve", "--nu", "0.5", "--t", "1"])
    assert rc == 0
    assert (_outdir / "evolve.csv").exists()


@pytest.fixture
def evolve_spans(monkeypatch):
    """(s, t) of every evolve call, in call order."""
    spans = []
    original = evolution.evolve

    def counting(B, s, t, rel_tol=1e-10):
        spans.append((s, t))
        return original(B, s, t, rel_tol)

    for mod in (evolution, cli):
        if hasattr(mod, "evolve"):
            monkeypatch.setattr(mod, "evolve", counting)
    return spans


@pytest.mark.parametrize("samples", [1, 2, 21])
def test_evolve_integrates_each_segment_once(tmp_path, evolve_spans, samples):
    rc = main(["evolve", "--t", "2", "--samples", str(samples),
               "--out", str(tmp_path / "evo.csv")])
    assert rc == 0
    if samples == 1:
        # the series is [I] at s: U(t, s) on its own, shared by the
        # composition and symmetry records, then U(t, t), U(t, r), U(r, s)
        assert len(evolve_spans) == 4
        assert sum(t > s for s, t in evolve_spans) == 3
    else:
        # one call per segment, whose chain ends at U(t, s), then U(t, t),
        # U(t, r), U(r, s): the horizon [0, 2] is integrated twice
        assert len(evolve_spans) == 3 + (samples - 1)
        assert sum(t > s for s, t in evolve_spans) == 2 + (samples - 1)
        assert sum(t - s for s, t in evolve_spans if t > s) == 2 * 2.0


def _evolution_report(tmp_path, params, fmt):
    out = tmp_path / f"evo.{fmt}"
    path = _scenario(tmp_path, {"name": "evo", "kind": "evolution", "params": params,
                                "output": {"format": fmt, "path": str(out)}},
                     name=f"evo-{fmt}.json")
    assert main(["run", path]) == 0
    return out


def _records(report_path):
    return {r["check_id"]: r for r in json.loads(report_path.read_text())["records"]}


def test_evolution_single_sample_integrates_u_ts_directly(tmp_path):
    params = {"B": "bagchi", "kappa": 0.3, "lam": 0.8, "t": 2.0, "samples": 1}
    assert main(["evolve", "--kappa", "0.3", "--lam", "0.8", "--t", "2",
                 "--samples", "1", "--out", str(tmp_path / "evo.csv")]) == 0
    records = _records(_evolution_report(tmp_path, params, "json"))
    assert records["evolution.composition"]["status"] == "pass"
    B = cli._parse_evolution(params, verification.VerifyConfig(dim=2)).op
    U_ts = evolution.evolve(B, 0.0, 2.0).matrix
    assert records["evolution.transpose-symmetry"]["measured"] == \
        conjugation.check_matrix_c_symmetry(U_ts, np.eye(2))


def test_evolution_symmetry_judges_the_series_endpoint(tmp_path):
    params = {"B": "bagchi", "lam": 0.9, "t": 1.5, "samples": 7,
              "kappa": {"cosine": {"amplitude": 0.3, "frequency": 1.1}}}
    records = _records(_evolution_report(tmp_path, params, "json"))
    with open(_evolution_report(tmp_path, params, "csv"), newline="") as fh:
        last = [float(c) for c in list(csv.reader(fh))[-1]]
    assert last[0] == 1.5
    U_ts = np.array(last[1:]).view(complex).reshape(2, 2)
    assert records["evolution.transpose-symmetry"]["measured"] == \
        conjugation.check_matrix_c_symmetry(U_ts, np.eye(2))


def test_evolve_zero_span_series_is_identity(tmp_path, evolve_spans):
    target = tmp_path / "evo.csv"
    assert main(["evolve", "--s", "1", "--t", "1", "--samples", "3",
                 "--out", str(target)]) == 0
    with open(target, newline="") as fh:
        rows = [[float(c) for c in row] for row in list(csv.reader(fh))[1:]]
    assert rows == [[1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0]] * 3
    assert all(s == t for s, t in evolve_spans)


def test_stiffness_in_a_segment_names_the_model_field(tmp_path, _outdir, capsys,
                                                      monkeypatch):
    original = evolution.evolve

    def stiff_segments(B, s, t, rel_tol=1e-10):
        if (s, t) == (0.0, 0.5):  # the first of the series' segments
            raise evolution.StiffnessError("step size underflowed")
        return original(B, s, t, rel_tol)

    monkeypatch.setattr(evolution, "evolve", stiff_segments)
    path = _scenario(tmp_path, {"name": "x", "kind": "evolution",
                                "params": {"B": "constant", "matrix": [[-1.0]],
                                           "t": 2.0, "samples": 5}})
    assert main(["run", path]) == 1
    assert "input error: params.matrix: step size underflowed" in capsys.readouterr().err
    assert not _outdir.exists()


# --- scenario fuzzer ---------------------------------------------------------------

# one valid scenario of each kind (two for evolution: a formula and a table)
_VALID_SCENARIOS = {
    "conjugation-check": ("conjugation-check",
                          {"a": 1.0, "b": [0.0, 1.0], "c": math.exp(-0.5)}, 16),
    "wco": ("wco", {"A": [0.5, 0.1], "B": 0.3, "C": [1.0, 0.0], "D": [0.3, -0.05],
                    "conjugation": STD_CONJ}, 16),
    "semigroup": ("semigroup", {"family": TRANSLATION, "omega": 0.5}, 16),
    "generator": ("generator", {"family": DILATION}, 16),
    "spectrum": ("spectrum", {"family": TRANSLATION, "eta": [0.5, 0.5], "k_max": 3}, 16),
    "evolution": ("evolution", {"B": "bagchi", "nu": 1.0, "lam": 0.9, "s": 0.0, "t": 1.0,
                                "rel_tol": 1e-10, "samples": 3,
                                "kappa": {"cosine": {"amplitude": 0.3, "frequency": 1.1,
                                                     "phase": 0.2}}}, 2),
    "evolution-table": ("evolution", {"B": "table", "times": [0.0, 1.0],
                                      "matrices": [[[0.0, 1.0], [1.0, 0.0]],
                                                   [[[0.0, 1.0], 0.0], [0.0, 1.0]]],
                                      "samples": 2}, 2),
    "full-verify": ("full-verify", {"seed": 11}, 8),
}
_BAD_VALUES = ("text", None, {}, True, False, 10**19, -(10**19), 10**400, "NaN",
               [[1.0, 2.0], [3.0]], [[[]]])


def _scenario_body(label):
    kind, params, dim = _VALID_SCENARIOS[label]
    return json.loads(json.dumps({
        "name": label, "kind": kind, "params": params,
        "truncation": {"dim": dim, "tolerances": {"laplace_diagonal": 1e-8}},
        "output": {"format": "csv" if kind == "evolution" else "json", "path": "r.out"},
    }))


def _field_paths(node, prefix):
    """Paths of every field below ``node``, dict-valued fields included."""
    for key, val in node.items():
        yield prefix + (key,)
        if isinstance(val, dict):
            yield from _field_paths(val, prefix + (key,))


@pytest.mark.parametrize("label", sorted(_VALID_SCENARIOS))
def test_fuzzer_scenarios_are_valid(tmp_path, label, capsys):
    assert main(["validate", _scenario(tmp_path, _scenario_body(label))]) == 0


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_validate_survives_one_bad_field(tmp_path, capsys, data):
    body = _scenario_body(data.draw(st.sampled_from(sorted(_VALID_SCENARIOS))))
    paths = [p for section in ("params", "truncation", "output")
             for p in _field_paths(body[section], (section,))]
    path = data.draw(st.sampled_from(paths))
    parent = body
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(st.sampled_from(_BAD_VALUES))
    capsys.readouterr()
    rc = main(["validate", _scenario(tmp_path, body)])
    err = capsys.readouterr().err
    assert rc in (0, 1) and "Traceback" not in err
    if rc == 1:
        assert re.match(r"input error: (params|truncation|output)\.", err), err
