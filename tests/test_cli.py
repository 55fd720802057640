"""End-to-end command line behaviour: exit codes, reports, determinism."""

import bisect
import cmath
import csv
import dataclasses
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

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


def test_scenario_that_is_no_object_is_input_error(tmp_path, capsys):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]")
    assert main(["validate", str(p)]) == 1
    assert capsys.readouterr().err == f"input error: {p}: scenario must be a JSON object\n"


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


@pytest.mark.parametrize("command", ["spectrum", "evolve"])
def test_seed_is_no_flag_where_it_reaches_nothing(_outdir, capsys, command):
    # only run and verify-all draw the conjugation isometry vectors from the seed
    assert main([command, "--seed", "3"]) == 1
    err = capsys.readouterr().err
    assert "input error: arguments: unrecognized arguments: --seed 3" in err
    assert not _outdir.exists()


TABLE_MISMATCH = {"B": "table", "times": [0.0, 1.0],
                  "matrices": [[[1.0]], [[1.0, 0.0], [0.0, 1.0]]]}


@pytest.mark.parametrize("kind, params, name, field", [
    ("evolution", {"B": "bagchi", "rel_tol": 0}, "x", "params.rel_tol"),
    ("semigroup", {"family": TRANSLATION, "omega": "x"}, "x", "params.omega"),
    ("semigroup", {"family": TRANSLATION, "omega": 1e3}, "x", "params.omega"),
    ("wco", {"A": 1e300}, "x", "params.A"),
    ("evolution", TABLE_MISMATCH, "x", "params.matrices[1]"),
    # the model's fields are read before rel_tol, which the table's breaks take
    ("evolution", {**TABLE_MISMATCH, "rel_tol": 0}, "x", "params.matrices[1]"),
    ("evolution", {"B": "table", "times": [0.0, 1.0], "matrices": [[[1.0]], [[2.0]]],
                   "rel_tol": "x"}, "x", "params.rel_tol"),
    ("evolution", {"B": "constant", "matrix": [[1e13]], "samples": 3}, "x", "params.matrix"),
    # stages that overflow are rejected steps, not warnings
    pytest.param("evolution", {"B": "constant", "matrix": [[1e300]]}, "x", "params.matrix",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
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
    ("evolution", {"B": "bagchi", "s": 5, "t": 10, "kappa": {"cosine": {"frequency": 1e308}}},
     "x", "params.kappa.cosine.frequency"),
    # families whose symbols or laws cannot be evaluated in double precision: the
    # runner stops at the first overflow or invalid value, so no warning is printed
    *(pytest.param(kind, {"family": family}, "x", "params.family",
                   marks=pytest.mark.filterwarnings("error::RuntimeWarning"))
      for kind, family in (
          ("semigroup", {"variant": "translation", "E": 1e200}),
          ("generator", {"variant": "translation", "E": 1e200}),
          ("semigroup", {"variant": "dilation", "ell": 1e3, "G": 1}),
          ("semigroup", {"variant": "dilation", "ell": [0, 1e10], "G": 1}),
          ("semigroup", {"variant": "dilation", "ell": -1, "G": 1, "H": -1e3}),
          ("semigroup", {"variant": "translation", "E": 1, "F": -1e3}),
          ("generator", {"variant": "dilation", "ell": -1, "G": 1e200}),
          ("spectrum", {"variant": "dilation", "ell": -1, "G": 1e200}),
          # the quotient norms of the difference quotients underflow to 0: log(0)
          ("generator", {"variant": "dilation", "ell": 1e-300}))),
    # e^{800} leaves the double range in the chain of four finite segments, before
    # any record; at three samples the composition law's one piece, and at one
    # sample U(1, 0), span the horizon and overflow in the step loop
    *(pytest.param("evolution", {"B": "constant", "matrix": [[800]], "t": 1, "samples": n,
                                 "rel_tol": 1e-4}, "x", "params.matrix",
                   marks=pytest.mark.filterwarnings("error::RuntimeWarning"))
      for n in (5, 3, 1)),
    ("semigroup", {"family": TRANSLATION, "omega": math.nan}, "x", "params.omega"),
    ("evolution", {"B": "constant", "matrix": []}, "x", "params.matrix"),
    ("evolution", {"B": "constant", "matrix": [[1.0, 2.0]]}, "x", "params.matrix"),
    ("evolution", {"B": "constant", "matrix": [[math.nan]]}, "x", "params.matrix"),
    ("evolution", {"B": "table", "times": [1.0, 0.0], "matrices": [[[1.0]], [[2.0]]]},
     "x", "params.times"),
    ("semigroup", {"family": {"variant": "translation", "E": 0}}, "x", "params.family"),
    ("semigroup", {"family": {"variant": "dilation", "ell": 0, "G": 1}}, "x", "params.family"),
], ids=["rel_tol-zero", "omega-string", "omega-overflow", "A-overflow", "table-shapes",
        "table-shapes-before-rel_tol", "table-rel_tol-string", "stiff",
        "stiff-overflow",
        "samples-zero", "name-separator", "verify-all-dim-one", "omega-huge-int", "A-huge-int",
        "times-huge-int", "kappa-huge-int", "span-overflow", "conjugation-constraint",
        "k_max-at-dim", "cosine-overflow", "semigroup-E-overflow", "generator-E-overflow",
        "semigroup-ell-quadrature", "semigroup-imaginary-ell-quadrature",
        "semigroup-H-cocycle-vanishes", "semigroup-F-cocycle-vanishes",
        "generator-G-expm-overflow", "spectrum-G-residual-overflow",
        "generator-ell-log-of-zero", "chain-overflow", "piece-overflow",
        "one-sample-overflow", "omega-nan", "matrix-empty", "matrix-not-square",
        "matrix-nan", "times-decreasing", "translation-E-zero", "dilation-ell-zero"])
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
    (["spectrum", "--k-max", str(_HUGE)], "--k-max"),
    (["evolve", "--samples", str(_HUGE)], "--samples"),
], ids=["verify-all-dim-huge", "verify-all-dim-2^32", "spectrum-dim-2^32",
        "spectrum-k-max-huge", "evolve-samples-huge"])
def test_unindexable_size_flag_names_field_path(_outdir, capsys, argv, field):
    assert main(argv) == 1
    assert f"input error: {field}: " in capsys.readouterr().err
    assert not _outdir.exists()


# the child's address space: room for the interpreter and numpy, none for the
# 149 GiB matrix of dim 100000 or the 80 GB sample times of 10**10 samples
_ADDRESS_SPACE = 3 << 30
_LIMITED_MAIN = f"""
import resource, sys
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
soft = {_ADDRESS_SPACE} if hard == resource.RLIM_INFINITY else min({_ADDRESS_SPACE}, hard)
resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
from focksym.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("kind, params, argv, field", [
    ("conjugation-check", {}, ["run"], "truncation.dim"),
    ("wco", {"A": 0.5}, ["run"], "truncation.dim"),
    # validate allocates nothing of the size: the scenario is valid
    ("wco", {"A": 0.5}, ["validate"], None),
    ("evolution", {"B": "bagchi", "samples": 10**10}, ["run"], "params.samples"),
    (None, None, ["verify-all", "--dim", "100000"], "--dim"),
    (None, None, ["spectrum", "--dim", "100000"], "--dim"),
    (None, None, ["evolve", "--samples", str(10**10)], "--samples"),
], ids=["conjugation-check-dim", "wco-dim", "wco-dim-validate", "evolution-samples",
        "verify-all-dim", "spectrum-dim", "evolve-samples"])
def test_refused_allocation_names_the_size_field(tmp_path, kind, params, argv, field):
    out = tmp_path / "report.out"
    if kind is not None:
        argv = [*argv, _scenario(tmp_path, {"name": "x", "kind": kind, "params": params,
                                            "truncation": {"dim": 100000},
                                            "output": {"path": str(out)}})]
    else:
        argv = [*argv, "--out", str(out)]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _LIMITED_MAIN, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    if field is None:
        assert (proc.returncode, proc.stderr) == (0, "")
    else:
        assert proc.returncode == 1, proc.stderr
        assert f"input error: {field}: too large: its arrays do not fit" in proc.stderr
        assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, flag", [
    (["spectrum", "--G", "1e200", "--ell=-1", "--dim", "16"], "--ell/--G/--H"),
    (["spectrum", "--k-max", "70", "--dim", "16"], "--k-max"),
    # the default k_max 5 needs dim 6: the dim is the flag given
    (["spectrum", "--dim", "4"], "--dim"),
    (["spectrum", "--k-max", "5", "--dim", "4"], "--k-max"),
    (["spectrum", "--a", "2"], "--a"),
    (["evolve", "--rel-tol", "0"], "--rel-tol"),
    (["evolve", "--samples", "0"], "--samples"),
    (["evolve", "--t", "-1"], "--t"),
    (["evolve", "--nu", "1e300", "--t", "1", "--samples", "2"], "--nu/--kappa/--lam"),
    # e^{800} leaves the double range in the chain of four finite segments
    (["evolve", "--kappa", "800", "--lam", "0", "--t", "1", "--samples", "5",
      "--rel-tol", "1e-4"], "--nu/--kappa/--lam"),
], ids=["spectrum-family", "spectrum-k-max", "spectrum-k-max-default-at-dim",
        "spectrum-k-max-given-at-dim", "spectrum-a", "evolve-rel-tol",
        "evolve-samples", "evolve-t", "evolve-stiff", "evolve-overflow"])
def test_flag_input_error_names_the_flag(_outdir, capsys, argv, flag):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"input error: {flag}: " in err
    assert "params." not in err
    assert not _outdir.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spectrum_overflow_between_dim_and_judged_dim_names_the_family(tmp_path, _outdir,
                                                                      capsys):
    # G = 1e3: the eigenfunctions fit the double range at dim 48 but overflow
    # by dim 60 = 5/4 dim, where the law is judged
    family = dict(DILATION, G=1e3)
    fam = cli._family_from(family, "params.family")
    with np.errstate(over="raise", invalid="raise"):
        generator.eigen_residuals(fam, range(6), (48,))
    path = _scenario(tmp_path, {"name": "x", "kind": "spectrum", "params": {"family": family},
                                "truncation": {"dim": 48}})
    assert main(["run", path]) == 1
    assert "input error: params.family: " in capsys.readouterr().err
    assert not _outdir.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("params, field", [
    ({"family": DILATION}, "truncation.dim"),
    ({"family": DILATION, "k_max": 5}, "params.k_max"),
], ids=["k_max-default", "k_max-given"])
def test_k_max_at_dim_names_the_field_given(tmp_path, _outdir, capsys, command,
                                            params, field):
    path = _scenario(tmp_path, {"name": "x", "kind": "spectrum", "params": params,
                                "truncation": {"dim": 4}})
    assert main([command, path]) == 1
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


@pytest.mark.parametrize("value", [-1, 0])
def test_tolerance_that_is_not_positive_is_input_error(tmp_path, _outdir, capsys, value):
    # at divergence_factor -1 the translation's failing divergence record,
    # 5.39764 against >= 10, would pass as >= -1
    path = _scenario(tmp_path, {
        "name": "x", "kind": "spectrum", "params": {"family": TRANSLATION},
        "truncation": {"dim": 16, "tolerances": {"divergence_factor": value}},
    })
    assert main(["run", path]) == 1
    assert ("input error: truncation.tolerances.divergence_factor: must be positive"
            in capsys.readouterr().err)
    assert not _outdir.exists()


@pytest.mark.parametrize("command", ["run", "verify-all"])
def test_negative_seed_flag_is_input_error(tmp_path, _outdir, capsys, command):
    # one check with params.seed of a full-verify scenario
    if command == "run":
        argv = ["run", _scenario(tmp_path, {"name": "x", "kind": "full-verify",
                                            "truncation": {"dim": 8}}), "--seed", "-5"]
    else:
        argv = ["verify-all", "--dim", "8", "--seed", "-1"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "input error: --seed: seed must be >= 0\n"
    assert not _outdir.exists()


@pytest.mark.parametrize("entry", ["run", "verify-all", "spectrum", "evolve"])
def test_report_path_that_is_a_directory_is_input_error(tmp_path, _outdir, capsys, entry):
    target = tmp_path / "reports"
    target.mkdir()
    if entry == "run":
        argv = ["run", _scenario(tmp_path, {"name": "x", "kind": "conjugation-check",
                                            "params": {}, "truncation": {"dim": 8},
                                            "output": {"path": str(target)}})]
        field = "output.path"
    else:
        argv = [entry, "--out", str(target)] + (["--dim", "8"] if entry == "verify-all" else [])
        field = "--out"
    assert main(argv) == 1
    assert f"input error: {field}: " in capsys.readouterr().err
    assert not any(target.iterdir()) and not _outdir.exists()  # no report, no temp file


@pytest.mark.parametrize("below", ["r.json", "a/b/r.json"])
@pytest.mark.parametrize("entry", ["run", "verify-all", "spectrum", "evolve"])
def test_report_path_below_a_file_is_input_error(tmp_path, _outdir, capsys, monkeypatch,
                                                 entry, below):
    blocker = tmp_path / "scenario.json"
    blocker.write_text("{}")
    target = str(blocker / below)
    ran = []

    def runner(*args):
        ran.append(args)
        return [], {}, None

    if entry == "verify-all":
        monkeypatch.setattr(cli, "run_all", runner)
    else:
        kind = {"run": "conjugation-check", "spectrum": "spectrum", "evolve": "evolution"}
        monkeypatch.setitem(cli._KINDS, kind[entry], lambda params, cfg: runner)
    if entry == "run":
        argv = ["run", _scenario(tmp_path, {"name": "x", "kind": "conjugation-check",
                                            "params": {}, "truncation": {"dim": 8},
                                            "output": {"path": target}}, "s.json")]
        field = "output.path"
    else:
        argv = [entry, "--out", target] + (["--dim", "8"] if entry == "verify-all" else [])
        field = "--out"
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"input error: {field}: {str(blocker)!r} is a file" in err
    assert "Traceback" not in err and not ran
    assert blocker.read_text() == "{}" and not _outdir.exists()


# case -> (scenario name, report path below the reports directory or None)
UNHOLDABLE = {
    "nul-name": ("a\0b", None),
    "long-name": ("x" * 300, None),
    "empty-name": ("", None),
    "nul-path": ("x", "r\0.json"),
    "long-path": ("x", "x" * 300 + ".json"),
    "long-path-below-missing-dir": ("x", "new/" + "x" * 300 + ".json"),
}


@pytest.mark.parametrize("entry, case", [
    *((entry, case) for entry in ("validate", "run") for case in UNHOLDABLE),
    *((entry, case) for entry in ("verify-all", "spectrum", "evolve")
      for case in UNHOLDABLE if UNHOLDABLE[case][1] is not None),
])
def test_report_name_the_file_system_cannot_hold_is_input_error(tmp_path, _outdir, capsys,
                                                                entry, case):
    name, below = UNHOLDABLE[case]
    reports = tmp_path / "reports"
    reports.mkdir()
    path = None if below is None else str(reports / below)
    if entry in ("validate", "run"):
        output = {} if path is None else {"path": path}
        argv = [entry, _scenario(tmp_path, {"name": name, "kind": "conjugation-check",
                                            "params": {}, "truncation": {"dim": 8},
                                            "output": output})]
        field = "name" if path is None else "output.path"
    else:
        argv = [entry, "--out", path] + (["--dim", "8"] if entry == "verify-all" else [])
        field = "--out"
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"input error: {field}: " in err and "Traceback" not in err
    assert not any(reports.iterdir()) and not _outdir.exists()  # no report, no temp file


# scenario kind and params that validate; two spectrum runs, one per variant
GOOD_PARAMS = [
    ("conjugation-check", {}),
    ("wco", {"A": 0.5}),
    ("semigroup", {"family": TRANSLATION}),
    ("generator", {"family": TRANSLATION}),
    ("spectrum", {"family": DILATION}),
    ("spectrum", {"family": TRANSLATION}),
    ("evolution", {"B": "bagchi"}),
    ("full-verify", {}),
]


class _Ran(Exception):
    pass


@pytest.mark.parametrize("kind, params", GOOD_PARAMS,
                         ids=["conjugation-check", "wco", "semigroup", "generator",
                              "spectrum-dilation", "spectrum-translation", "evolution",
                              "full-verify"])
def test_validate_runs_nothing_but_parsing(tmp_path, monkeypatch, kind, params):
    def ran(*args, **kwargs):
        raise _Ran

    for fn in ("conjugation_matrix", "wco_matrix", "is_bounded", "is_c_selfadjoint_symbols",
               "flow_cocycle_records", "fd_slope_records", "spectrum_report",
               "divergence_certificate", "evolution_series", "run_all"):
        monkeypatch.setattr(cli, fn, ran)
    path = _scenario(tmp_path, {"name": "x", "kind": kind, "params": params,
                                "truncation": {"dim": 16}})
    assert main(["validate", path]) == 0
    with pytest.raises(_Ran):  # the run reaches a stubbed function
        main(["run", path])


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
    decay = {r["check_id"]: r for r in records}["conjugation.involution.decay"]
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
    # the kinds judge strictly below dim 64: no warn downgrade, as in verify-all
    for kind, params, tolerance, value in (
        ("semigroup", {"family": TRANSLATION}, "semigroup_law", 1e-30),
        ("generator", {"family": TRANSLATION}, "expm_vs_semigroup", 1e-30),
        ("spectrum", {"family": TRANSLATION}, "divergence_factor", 1e6),
    ):
        path = _scenario(tmp_path, {
            "name": "impossible", "kind": kind, "params": params,
            "truncation": {"dim": 16, "tolerances": {tolerance: value}},
        })
        assert main(["run", path]) == 2, kind
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fast_diverging_candidate_is_certified_without_warning(tmp_path, _outdir):
    # the candidate's partial norms leave the double range and read inf: a valid
    # input, which the spectrum runner's overflow guard must not reject
    path = _scenario(tmp_path, {
        "name": "steep", "kind": "spectrum",
        "params": {"family": TRANSLATION, "eta": [1e5, 0.0]},
        "truncation": {"dim": 64},
    })
    assert main(["run", path]) == 0
    cert = json.loads((_outdir / "steep.json").read_text())["provenance"]["parameters"][
        "certificate"]
    assert cert["certified"] is True and cert["branch"] == "doubling"


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


# --- kinds and the suite share one record maker per law -------------------------

V = verification
# the evolution group's model, U(t, s) integrated once.  Its kappa and lam
# are cosines of frequency 0, the same numbers at every time: as numbers they
# would make the model constant, whose run integrates one half of [s, t] for
# both, where the suite integrates each
_TWO_LEVEL = {"B": "bagchi", "nu": 1.0, "s": 0.0, "t": 1.0, "samples": 1,
              "kappa": {"cosine": {"amplitude": 0.3, "frequency": 0.0}},
              "lam": {"cosine": {"amplitude": 1.0, "frequency": 0.0}}}

# (group, suite suffix, kind, params, ids of the maker's kind records)
SHARED_MAKERS = {
    "conjugation-b0": ("conjugation", ".b0.1", "conjugation-check",
                       V._B0_CONJUGATIONS[1].to_json(),
                       ["conjugation.involution", "conjugation.isometry"]),
    "conjugation-offset": ("conjugation", ".offset", "conjugation-check",
                           V._OFFSET_CONJUGATION.to_json(), ["conjugation.involution.decay"]),
    "flow-cocycle": ("flow-cocycle", ".dilation.4", "semigroup",
                     {"family": V._FLOW_FAMILIES[4].to_json()},
                     ["family.semiflow", "family.semicocycle", "family.identity-at-zero"]),
    "semigroup-law": ("semigroup-law", ".dilation.3", "semigroup",
                      {"family": V._LAW_FAMILIES[3].to_json()}, ["semigroup.law"]),
    "scaling-solver": ("scaling-solver", ".translation.1", "semigroup",
                       {"family": V._SCALING_FAMILIES[1].to_json()}, ["scaling.solver"]),
    "generator-fd": ("generator-fd", ".translation", "generator",
                     {"family": V._GEN_FAMILIES[0].to_json()},
                     ["generator.fd-forward.k0", "generator.fd-central.k0",
                      "generator.exponential-bridge"]),
    "stone-symmetry": ("stone-symmetry", ".dilation.3", "generator",
                       {"family": V._STONE_FAMILIES[3].to_json()},
                       ["stone.generator-symmetry", "stone.adjoint-quotient"]),
    "empty-spectrum": ("empty-spectrum", "", "spectrum",
                       {"family": V._std_translation().to_json(), "eta": [1.0, 1.0]},
                       ["empty-spectrum.divergence.eta=(1+1j)"]),
    "evolution": ("evolution", "", "evolution", _TWO_LEVEL,
                  ["evolution.identity", "evolution.composition"]),
    # kappa and lam as numbers: a constant coefficient, whose U(1, 0) is the
    # suite's bit for bit
    "exponential-route": ("evolution", "", "evolution",
                          {**_TWO_LEVEL, "kappa": 0.3, "lam": 1.0},
                          ["evolution.exponential-route"]),
    "spectrum": ("spectrum", "", "spectrum",
                 {"family": V._EIGENFUNCTION_FAMILY.to_json(), "k_max": 5},
                 ["spectrum.eigenfunction-residuals"]),
}


@pytest.mark.parametrize("maker", SHARED_MAKERS)
def test_kind_and_suite_records_agree(maker):
    group, suffix, kind, params, ids = SHARED_MAKERS[maker]
    sc = cli.validate_scenario({"name": maker, "kind": kind, "params": params,
                                "truncation": {"dim": 64}}, seed=5)
    got = {r.check_id: r for r in sc.run()[0]}
    suite = {r.check_id.replace(suffix, "", 1): r
             for r in verification.run_group(group, sc.cfg)}
    for check_id in ids:
        want = dataclasses.replace(suite[check_id], check_id=check_id)
        assert dataclasses.asdict(got[check_id]) == dataclasses.asdict(want), check_id


# judged records a kind makes with no maker that verify-all runs, and why
UNPINNED = {
    # C-selfadjointness of a wco symbol: the suite has no wco symbol group yet
    "wco.symbol-selfadjointness",
}


def test_every_judged_kind_record_is_pinned():
    # full-verify is left out: its records are the suite's own
    cases = [(kind, params) for _, _, kind, params, _ in SHARED_MAKERS.values()]
    cases += [(kind, params) for kind, params in GOOD_PARAMS if kind != "full-verify"]
    cases.append(("wco", {"A": 0.5, "conjugation": STD_CONJ}))
    cases.append(("evolution", {"B": "constant", "matrix": [[[0.0, -1.0]]]}))
    judged = set()
    for kind, params in cases:
        sc = cli.validate_scenario({"name": kind, "kind": kind, "params": params,
                                    "truncation": {"dim": 16}})
        judged |= {r.check_id for r in sc.run()[0] if r.status != "info"}
    pinned = {check_id for *_, ids in SHARED_MAKERS.values() for check_id in ids}
    assert judged - pinned == UNPINNED


def test_spectrum_residuals_are_the_judged_values(tmp_path):
    # the payload and the CSV residual column hold the residuals the record
    # judges, taken at 5/4 dim as the suite takes them; the eigenvalues stay at dim
    argv = ["spectrum", "--k-max", "4", "--dim", "32", "--out"]
    assert main(argv + [str(tmp_path / "s.json")]) == 0
    assert main(argv + [str(tmp_path / "s.csv"), "--format", "csv"]) == 0
    report = json.loads((tmp_path / "s.json").read_text())
    spectrum = report["provenance"]["parameters"]["spectrum"]
    [record] = [r for r in report["records"]
                if r["check_id"] == "spectrum.eigenfunction-residuals"]
    fam = V._EIGENFUNCTION_FAMILY  # the flags' default family
    assert spectrum["residuals"] == list(generator.eigen_residuals(fam, range(5), (40,))[0])
    assert record["measured"] == max(spectrum["residuals"])
    assert record["detail"] == "max over m <= 4 at dim 40"
    assert (spectrum["residual_dim"], spectrum["dim"], len(spectrum["truncated_eigs"])) == (
        40, 32, 32)
    with open(tmp_path / "s.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [float(row[3]) for row in rows[1:]] == spectrum["residuals"]


def test_spectrum_eigenvalues_are_computed_only_for_json(tmp_path, monkeypatch):
    # the truncation's eigenvalues go only into a JSON report's payload, so
    # a CSV report computes none, and the JSON report's bytes stay the same
    calls = []
    original = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape) or original(a))
    argv = ["spectrum", "--k-max", "4", "--dim", "32", "--out"]
    assert main(argv + [str(tmp_path / "s.csv"), "--format", "csv"]) == 0
    assert calls == []
    assert main(argv + [str(tmp_path / "s.json")]) == 0
    assert calls == [(32, 32)]
    spectrum = json.loads((tmp_path / "s.json").read_text())["provenance"]["parameters"]
    fam = cli._params_family({"family": spectrum["family"]})
    want = np.sort_complex(original(generator.generator_matrix(fam, 32)))
    assert spectrum["spectrum"]["truncated_eigs"] == [[z.real, z.imag] for z in want.tolist()]


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
    """Spans handed to the propagator kernel; matrices assembled, one per
    member of a wco_matrices stack (a wco_matrix call is a stack of one), and
    the calls of wco_matrices; calls of the two-level coefficients with the
    times they were evaluated at; counted at every module that binds them."""
    counts = {"spans": 0, "matrices": 0, "assemblies": 0, "B_calls": 0, "B_times": 0}
    integrate_spans, bagchi = evolution._integrate_spans, evolution.bagchi_hamiltonian
    wco_matrices = wco.wco_matrices

    def counting_spans(B, spans, rel_tol):
        counts["spans"] += len(spans)
        return integrate_spans(B, spans, rel_tol)

    def counting_stack(symbols, *args, **kwargs):
        counts["matrices"] += np.broadcast(symbols.A, symbols.B, symbols.C, symbols.D).size
        counts["assemblies"] += 1
        return wco_matrices(symbols, *args, **kwargs)

    def counting_coefficient(*args, **kwargs):
        B = bagchi(*args, **kwargs)

        def counted(ts):
            counts["B_calls"] += 1
            counts["B_times"] += len(ts)
            return B(ts)

        return counted

    modules = (wco, conjugation, evolution, generator, semigroup, verification, cli)
    for name, original, counting in (("_integrate_spans", integrate_spans, counting_spans),
                                     ("wco_matrices", wco_matrices, counting_stack),
                                     ("bagchi_hamiltonian", bagchi, counting_coefficient)):
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
    # evolution group: U(1, 0) and its reversal U(0, 1), U(1, 1), U(1, 0.5),
    # U(0.5, 0) for the axioms, and four U(1 + h, 1) for the adjoint slope,
    # which, like the symmetry record, reads the group's U(1, 0); the
    # laplace group's five vectors share one 65-point growth pass;
    # the spectrum group builds its six eigenfunctions once, as the columns of one
    # matrix at the largest of its three dims
    # matrices by group: laplace 690 (two 65-point growth passes, 560 integrand
    # nodes), growth 85 (4 x 5 norm-one times, one 65-point curve for the three
    # divergence weights), semigroup-law 72, generator-fd 23 (W(h) and W(-h) per
    # family and step, 3 bridge times), stone-symmetry 12 (M at dim and W(h) at
    # dim/4, six families), boundedness 6, conjugation 4, spectrum 1
    # assembly calls: the sweeps over a family's times are stacks, one per growth
    # pass (7), per integrand call of the Laplace quadrature (15: its rules of
    # 8, 16 and 32 panels each take the first 10-node panel alone, then blocks
    # of five panels, whose 50 x 16 x 5 complex values fit in 64 KiB; one call
    # per panel made 56), per family for the semigroup law's full times and its
    # sums (12), per family for the finite differences' W(+-h) (2), for the
    # bridge's three times (1) and for the six boundedness symbols (1); the
    # other 17 matrices are built one by one
    # two-level coefficient calls: one for the group's one _integrate_spans
    # call, of all nine spans of B at 1e-10, and one per pass of its one step
    # loop (121), plus B(0) for the exponential route, the 9-point s grid of
    # the commutation record and B(1) for the adjoint target; the times are
    # each span's start and five per attempted step, plus 11, as for separate
    # loops
    assert work == {"spans": 9, "matrices": 893, "assemblies": 55,
                    "B_calls": 125, "B_times": 1930}
    # the evolution group does not depend on the dim
    coefficient_work = (work["B_calls"], work["B_times"])
    work["B_calls"] = work["B_times"] = 0
    assert main(["verify-all", "--dim", "8", "--out", str(tmp_path / "r8.json")]) == 0
    assert (work["B_calls"], work["B_times"]) == coefficient_work


def test_generator_kind_stays_within_its_truncation(tmp_path, monkeypatch):
    # at dim 3 the Stone records are taken at dim 3 too, not at a larger rung:
    # Q and M are built one row larger, whose leading 3 x 3 block the
    # C-symmetry law reads
    dims = []
    for name, original in (("generator_matrix", generator.generator_matrix),
                           ("conjugation_matrix", conjugation.conjugation_matrix)):
        def recording(*args, _original=original, **kwargs):
            out = _original(*args, **kwargs)
            dims.append(out.shape[0])
            return out

        for mod in (conjugation, generator, verification, cli):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, recording)
    path = _scenario(tmp_path, {"name": "x", "kind": "generator", "params": {"family": DILATION},
                                "truncation": {"dim": 3},
                                "output": {"path": str(tmp_path / "r.json")}})
    assert main(["run", path]) in (0, 2)
    assert dims and max(dims) == 4


def _offset_conjugation(rng: random.Random) -> dict:
    """An admissible conjugation with 0.5 <= |b| <= 1: |a| = 1,
    conj(a) b + conj(b) = 0 and |c|^2 exp(|b|^2) = 1."""
    theta, r = rng.uniform(0.0, 2 * math.pi), rng.uniform(0.5, 1.0)
    a, b = cmath.exp(1j * theta), r * cmath.exp(1j * (theta + math.pi) / 2)
    c = math.exp(-r * r / 2) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
    return {k: [z.real, z.imag] for k, z in (("a", a), ("b", b), ("c", c))}


def _disc(rng: random.Random, lo: float, hi: float) -> list[float]:
    z = rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
    return [z.real, z.imag]


@pytest.mark.parametrize("dim", [16, 32, 64])
@pytest.mark.parametrize("seed", range(3))
def test_generator_kind_passes_under_offset_conjugations(tmp_path, dim, seed):
    # seeded translation and dilation families with an offset conjugation
    # (b != 0): Q M = M Q^T holds, and its residual on the leading block is
    # rounding, where over the whole truncation it read about 1
    rng = random.Random(seed)
    families = (
        {"variant": "translation", "E": _disc(rng, 0.4, 0.8), "F": _disc(rng, 0.0, 0.3),
         "conjugation": _offset_conjugation(rng)},
        {"variant": "dilation", "ell": [-rng.uniform(0.3, 1.0), rng.uniform(-0.8, 0.8)],
         "G": _disc(rng, 0.2, 0.6), "H": _disc(rng, 0.0, 0.3),
         "conjugation": _offset_conjugation(rng)},
    )
    for i, family in enumerate(families):
        out = tmp_path / f"r{i}.json"
        path = _scenario(tmp_path, {"name": "x", "kind": "generator",
                                    "params": {"family": family}, "truncation": {"dim": dim},
                                    "output": {"path": str(out)}})
        assert main(["run", path]) == 0
        assert _records(out)["stone.generator-symmetry"]["measured"] <= 1e-12


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
    assert rows[0] == ["t", "U0_0_re", "U0_0_im", "U0_1_re", "U0_1_im",
                       "U1_0_re", "U1_0_im", "U1_1_re", "U1_1_im"]
    assert len(rows) == 12
    assert float(rows[1][0]) == 0.0
    assert float(rows[1][1]) == 1.0  # U(s, s) = I
    assert float(rows[1][3]) == 0.0
    for row in rows[1:]:
        for cell in row:
            float(cell)
    # from dim 11 on, column names need the separator to stay unique
    target = tmp_path / "d16.csv"
    path = _scenario(tmp_path, {
        "name": "d16", "kind": "evolution",
        "params": {"B": "constant", "matrix": (-0.1 * np.eye(16)).tolist(),
                   "t": 0.1, "samples": 2},
        "output": {"format": "csv", "path": str(target)}})
    assert main(["run", path]) == 0
    with open(target, newline="") as fh:
        header = next(csv.reader(fh))
    assert len(header) == 1 + 2 * 16 * 16 == len(set(header))


def test_evolve_default_output_lands_in_env_dir(_outdir):
    rc = main(["evolve", "--nu", "0.5", "--t", "1"])
    assert rc == 0
    assert (_outdir / "evolve.csv").exists()


@pytest.fixture
def evolve_calls(monkeypatch):
    """The list of (s, t) spans of every call of the propagator kernel, in call order."""
    calls = []
    original = evolution._integrate_spans

    def recording(B, spans, rel_tol):
        calls.append(list(spans))
        return original(B, spans, rel_tol)

    for mod in (evolution, verification, cli):
        if getattr(mod, "_integrate_spans", None) is original:
            monkeypatch.setattr(mod, "_integrate_spans", recording)
    return calls


@pytest.mark.parametrize("samples", [1, 2, 3, 4, 6, 21])
def test_evolve_integrates_each_segment_once(tmp_path, evolve_calls, capsys, samples):
    rc = main(["evolve", "--t", "2", "--samples", str(samples),
               "--out", str(tmp_path / "evo.csv")])
    assert rc == 0
    # evolve's kappa and lam are numbers, so its model is constant, and its
    # one call holds the first span of each length in sample spacings, in
    # the layout's order: the series' first segment, whose U every segment
    # takes, U(t, t), and the composition law's first piece of two segments
    # and last of three.  One sample or two make one segment, whose pieces
    # are its halves, the second taking the first's U
    times = np.linspace(0.0, 2.0, samples)
    segments = list(zip(times[:-1].tolist(), times[1:].tolist())) or [(0.0, 2.0)]
    pieces, _ = evolution.composition_pieces(segments)
    (call,) = evolve_calls
    three = len(segments) >= 5 and len(segments) % 2  # a last piece after the first
    assert call == [segments[0], (2.0, 2.0), pieces[0], *pieces[-1:] * three]
    assert not set(pieces) & set(segments)
    if len(segments) > 1:  # no piece is longer than three segments
        assert max(t - s for s, t in pieces) <= 3 * 2.0 / len(segments) * (1 + 1e-12)
    # the chain of the pieces is another path than the series: its spans
    # are other integrations, even at three samples, where r is s
    line = next(ln for ln in capsys.readouterr().out.splitlines()
                if "evolution.composition" in ln)
    assert float(line.split()[2]) > 0.0


def test_evolution_run_integrates_in_one_call_segments_first(tmp_path, evolve_calls,
                                                            monkeypatch):
    # complex symmetric dim-16 models in batches of five spans.  A table
    # between two of them, with its knots outside [s, t]: the eight segments
    # fill the first batch and three places of the second, whose last two go
    # to the first two of the four composition pieces (U(t, t) between them
    # is a zero span, which takes no place)
    def symmetric(seed):
        g = np.random.default_rng(seed).standard_normal((16, 16))
        return [[[0.0, -x] for x in row] for row in ((g + g.T) / 8).tolist()]

    span = {"s": 0.5, "t": 2.5, "samples": 9}
    table = {"B": "table", "times": [0.0, 3.0], "matrices": [symmetric(3), symmetric(4)],
             **span}
    constant = {"B": "constant", "matrix": symmetric(3), **span}
    monkeypatch.setattr(evolution, "_BATCH_BYTES", 5 * 7 * 16 * 16**2)
    split = [(_evolution_report(tmp_path, params, "csv").read_bytes(),
              _records(_evolution_report(tmp_path, params, "json")))
             for params in (table, constant)]
    times = np.linspace(0.5, 2.5, 9).tolist()
    pieces = [(times[k], times[k + 2]) for k in (0, 2, 4, 6)]
    layout = [*zip(times[:-1], times[1:]), (2.5, 2.5), *pieces]
    # the constant model's spans have three lengths, 0.25, 0 and 0.5, and
    # its call holds the first span of each, in the same order
    assert evolve_calls == [layout] * 2 + [[layout[0], layout[8], layout[9]]] * 2
    monkeypatch.undo()  # the reports of one batch are the same
    assert split == [(_evolution_report(tmp_path, params, "csv").read_bytes(),
                      _records(_evolution_report(tmp_path, params, "json")))
                     for params in (table, constant)]


def _evolution_report(tmp_path, params, fmt):
    out = tmp_path / f"evo.{fmt}"
    path = _scenario(tmp_path, {"name": "evo", "kind": "evolution", "params": params,
                                "output": {"format": fmt, "path": str(out)}},
                     name=f"evo-{fmt}.json")
    assert main(["run", path]) == 0
    return out


def _records(report_path):
    return {r["check_id"]: r for r in json.loads(report_path.read_text())["records"]}


def test_exponential_columns_judge_each_column_against_its_own_size():
    cfg = verification.VerifyConfig(dim=16)

    def judge(M, U, span):
        # the exponential route and the suite's closed form share one judge
        [route] = verification.exponential_column_records(cfg, M, U, span, 1e-10)
        closed = verification._column_record(cfg, "evolution.closed-form", route.anchor, U,
                                              generator.matrix_exponential(M, span), span,
                                              1e-10, 1)
        assert dataclasses.replace(closed, check_id=route.check_id) == route
        assert route.measured == np.max(
            evolution.column_residual(U, generator.matrix_exponential(M, span)))
        return route

    # e^{-8 t} and e^{t/2} over t = 2: the first column is 1e-7 the size of
    # the second
    M = np.diag([-8.0, 0.5]).astype(complex)
    E = generator.matrix_exponential(M, 2.0)
    exact = judge(M, E, 2.0)
    assert (exact.measured, exact.threshold, exact.status) == (0.0, 10 * 1e-10 * 2.0, "pass")
    # a fault of 1e-6 relative in the decaying column, 1e-13 in absolute terms
    U = E.copy()
    U[0, 0] *= 1 + 1e-6
    faulty = judge(M, U, 2.0)
    assert faulty.status == "fail" and faulty.detail == "worst column 0 of 2"
    assert faulty.measured == pytest.approx(1e-6)
    # e^{-800} underflows to 0: a column of 0 reads 0, any other column inf
    M = np.diag([-800.0, 0.0]).astype(complex)
    E = generator.matrix_exponential(M, 1.0)
    assert E[0, 0] == 0.0
    exact = judge(M, E, 1.0)
    assert exact.measured == 0.0 and exact.status == "pass"
    U = E.copy()
    U[0, 0] = 1e-300
    faulty = judge(M, U, 1.0)
    assert faulty.measured == math.inf and faulty.status == "fail"


def test_decaying_constant_run_fails_its_exponential_route(tmp_path, capsys):
    # e^{-250} and e^{-5}: the step loop judges a step's error against
    # max(max|U5|, max|U|, 1), so the decaying column is held only to absolute
    # accuracy and misses its exponential by 195 %.  The composition law,
    # judged entry by entry relative to |U(t, r)| |U(r, s)|, sees the same
    # defect.  The relative error scale planned in ROADMAP.md ("Propagators
    # of dissipative families to their tolerance") turns this run into exit 0.
    params = {"B": "constant", "matrix": [[-50.0, 0.0], [0.0, -1.0]], "t": 5.0, "samples": 3}
    out = tmp_path / "decay.json"
    path = _scenario(tmp_path, {"name": "decay", "kind": "evolution", "params": params,
                                "output": {"path": str(out)}})
    assert main(["run", path]) == 2
    assert capsys.readouterr().err == (
        "FAILED: evolution.composition, evolution.exponential-route\n")
    records = _records(out)
    assert records["evolution.composition"]["status"] == "fail"
    assert records["evolution.exponential-route"]["measured"] > 1.0


@pytest.mark.parametrize("matrix", [[[-50.0, 0.0], [0.0, -1.0]], [[-10.0]]])
def test_product_bound_grows_with_the_span_but_not_past_a_decay_defect(tmp_path, matrix):
    # the bound 10 rel_tol max(1, |t - s|) is 5e-9 over [0, 5], and the
    # decaying columns still read 1.0
    params = {"B": "constant", "matrix": matrix, "t": 5.0, "samples": 3}
    out = tmp_path / "decay.json"
    path = _scenario(tmp_path, {"name": "decay", "kind": "evolution", "params": params,
                                "output": {"path": str(out)}})
    assert main(["run", path]) == 2
    record = _records(out)["evolution.composition"]
    assert (record["measured"], record["threshold"], record["status"]) == (
        pytest.approx(1.0), 10 * 1e-10 * 5.0, "fail")


@pytest.mark.parametrize("params", [
    # far from t = 0, where fl(x + h) - x differs from h: 1.97 times the
    # composition bound while a step advanced x by fl(x + h) - x
    {"B": "constant", "matrix": [[0.0, 5.0], [-5.0, 0.0]], "s": 1e4, "t": 1e4 + 10,
     "samples": 201},
    # e^{3 t} grows to 5e12: 0.1 against 1e-9 while composition was max-abs
    {"B": "constant", "matrix": [[0.0, 3.0], [3.0, 0.0]], "t": 10.0, "samples": 11},
    # 1e5 units of time: composition read 3.98e-9 against 10 rel_tol, a
    # bound that did not grow with |t - s| as the rounding of the run does
    {"B": "constant", "matrix": [[0.0, 1.0], [-1.0, 0.0]], "t": 1e5, "samples": 100001},
], ids=["far-rotation", "growing", "long-rotation"])
def test_accurate_constant_runs_pass(tmp_path, params):
    records = _records(_evolution_report(tmp_path, params, "json"))
    assert {r["status"] for r in records.values()} <= {"pass", "info"}


@pytest.mark.parametrize("argv", [
    # composition read 1.98e-6 against 1e-9 while it was max-abs
    ["--kappa", "2", "--lam", "0.5", "--t", "10", "--samples", "11"],
    # segments of two ulps of 1e4: a step of h below half an ulp takes one
    ["--s", "10000", "--t", "10000.00000000001", "--samples", "3"],
], ids=["growing", "ulp-segments"])
def test_accurate_evolve_runs_pass(tmp_path, capsys, argv):
    assert main(["evolve", *argv, "--out", str(tmp_path / "evolve.csv")]) == 0
    assert capsys.readouterr().err == ""


def test_evolution_single_sample_integrates_u_ts_directly(tmp_path):
    params = {"B": "bagchi", "kappa": 0.3, "lam": 0.8, "t": 2.0, "samples": 1}
    assert main(["evolve", "--kappa", "0.3", "--lam", "0.8", "--t", "2",
                 "--samples", "1", "--out", str(tmp_path / "evo.csv")]) == 0
    records = _records(_evolution_report(tmp_path, params, "json"))
    assert records["evolution.composition"]["status"] == "pass"
    B, *_ = cli._evolution_operator_from(params, (0.0, 2.0))
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


def test_evolve_zero_span_series_is_identity(tmp_path, evolve_calls):
    target = tmp_path / "evo.csv"
    assert main(["evolve", "--s", "1", "--t", "1", "--samples", "3",
                 "--out", str(target)]) == 0
    with open(target, newline="") as fh:
        rows = [[float(c) for c in row] for row in list(csv.reader(fh))[1:]]
    assert rows == [[1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0]] * 3
    assert [all(s == t for s, t in call) for call in evolve_calls] == [True]


def test_table_coefficient_interpolates_between_searchsorted_knots():
    # one np.searchsorted finds the knots of all times; bisect_left gives the
    # same index, so every value is the same to the bit as one time alone
    rng = np.random.default_rng(5)
    knots = np.cumsum(rng.uniform(0.1, 1.0, 6))
    mats = rng.standard_normal((6, 2, 2))
    params = {"B": "table", "times": knots.tolist(), "matrices": mats.tolist()}
    B, *_ = cli._evolution_operator_from(params, (0.0, 1.0))
    times = [*knots, *rng.uniform(knots[0] - 1.0, knots[-1] + 1.0, 300)]
    for t, value in zip(times, B(times)):
        if t <= knots[0]:
            ref = mats[0]
        elif t >= knots[-1]:
            ref = mats[-1]
        else:
            j = bisect.bisect_left(knots.tolist(), t) - 1
            w = (t - knots[j]) / (knots[j + 1] - knots[j])
            ref = (1 - w) * mats[j] + w * mats[j + 1]
        assert np.array_equal(value, ref)


def _stiff_at(monkeypatch, span):
    """The run's propagator kernel, as if ``span`` were the first span of its
    call too stiff to integrate."""
    original = evolution._integrate_spans

    def stiff(B, spans, rel_tol):
        if span in spans:
            raise evolution.StiffnessError(f"step size underflowed in {spans.index(span)}")
        return original(B, spans, rel_tol)

    monkeypatch.setattr(evolution, "_integrate_spans", stiff)


def test_stiffness_in_a_segment_names_the_model_field(tmp_path, _outdir, capsys,
                                                      monkeypatch):
    _stiff_at(monkeypatch, (0.0, 0.5))  # the first of the series' segments
    path = _scenario(tmp_path, {"name": "x", "kind": "evolution",
                                "params": {"B": "constant", "matrix": [[-1.0]],
                                           "t": 2.0, "samples": 5}})
    assert main(["run", path]) == 1
    assert "input error: params.matrix: step size underflowed in 0" in capsys.readouterr().err
    assert not _outdir.exists()


@pytest.mark.parametrize("command", ["run", "evolve"])
def test_stiffness_in_a_composition_span_names_the_model_field(tmp_path, _outdir, capsys,
                                                               monkeypatch, command):
    # both models are constant: the call holds the first span of each length
    # in sample spacings, a segment, U(t, t) and the first piece
    segments = evolution.series_segments(np.linspace(0.0, 2.0, 5))
    pieces, _ = evolution.composition_pieces(segments)
    _stiff_at(monkeypatch, pieces[0])
    if command == "run":
        argv = ["run", _scenario(tmp_path, {"name": "x", "kind": "evolution",
                                            "params": {"B": "constant", "matrix": [[-1.0]],
                                                       "t": 2.0, "samples": 5}})]
        field, place = "params.matrix", 2
    else:
        argv, field, place = ["evolve", "--t", "2", "--samples", "5"], "--nu/--kappa/--lam", 2
    assert main(argv) == 1
    assert (f"input error: {field}: step size underflowed in {place}"
            in capsys.readouterr().err)
    assert not _outdir.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["run", "evolve"])
def test_overflow_of_a_piece_chain_names_the_model_field(tmp_path, _outdir, capsys,
                                                         monkeypatch, command):
    # every piece scaled by 1e200: the series stays finite, and U(r, s), the
    # chain of the first two of the four pieces, leaves the double range.
    # Both models are constant: the call holds only the first piece, whose U
    # the other pieces take
    pieces, _ = evolution.composition_pieces(
        evolution.series_segments(np.linspace(0.0, 2.0, 9)))
    original = evolution._integrate_spans

    def scaled(B, spans, rel_tol):
        mats, stats = original(B, spans, rel_tol)
        mats[[k for k, span in enumerate(spans) if span in pieces]] *= 1e200
        return mats, stats

    monkeypatch.setattr(evolution, "_integrate_spans", scaled)
    if command == "run":
        argv = ["run", _scenario(tmp_path, {"name": "x", "kind": "evolution",
                                            "params": {"B": "constant", "matrix": [[-1.0]],
                                                       "t": 2.0, "samples": 9}})]
        field = "params.matrix"
    else:
        argv, field = ["evolve", "--t", "2", "--samples", "9"], "--nu/--kappa/--lam"
    assert main(argv) == 1
    assert (f"input error: {field}: the propagator leaves the double range at t = 1\n"
            in capsys.readouterr().err)
    assert not _outdir.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("samples, message", [
    (5, "the propagator leaves the double range at t = 1"),
    (3, "the propagator leaves the double range after t = 0.878873"),
    (1, "the propagator leaves the double range after t = 0.878873"),
])
def test_overflowing_constant_model_reports_overflow(tmp_path, _outdir, capsys, samples,
                                                    message):
    # e^{800 t} is not stiff: a span over the horizon overflows in the step
    # loop, and the chain of shorter segments after it
    path = _scenario(tmp_path, {"name": "x", "kind": "evolution",
                                "params": {"B": "constant", "matrix": [[800]], "t": 1,
                                           "samples": samples, "rel_tol": 1e-4}})
    assert main(["run", path]) == 1
    assert capsys.readouterr().err.endswith(f"input error: params.matrix: {message}\n")
    assert not _outdir.exists()


def _constant_model(dim, seed):
    """A seeded complex symmetric -i/2 (G + G^T) - 0.1 I as scenario entries."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    M = -0.5j * (g + g.T) - 0.1 * np.eye(dim)
    return [[[z.real, z.imag] for z in row] for row in M.tolist()]


@pytest.mark.parametrize("s, t, samples", [(2.0, 4.7, 11), (0.0, 5.0, 43)])
def test_constant_run_integrates_the_first_span_of_each_length(tmp_path, monkeypatch,
                                                                s, t, samples):
    # U(b, a) = e^{(b - a) M}: the run integrates the first segment, U(t, t)
    # and the first piece, each the same to the bit as that span integrated
    # alone and at its own absolute times, and every span of the series'
    # chain takes the segment's U, every span of the pieces' chains the
    # piece's, although over [2, 4.7] the segments have several float lengths
    params = {"B": "constant", "matrix": _constant_model(4, 11), "s": s, "t": t,
              "samples": samples}
    integrated, chained = [], []
    original_spans, original_chain = evolution._integrate_spans, evolution.chain_series

    def recording_spans(B, spans, rel_tol):
        mats, stats = original_spans(B, spans, rel_tol)
        integrated.append((list(spans), mats.copy()))
        return mats, stats

    def recording_chain(segments, times):
        chained.append((segments.copy(), list(times)))
        return original_chain(segments, times)

    monkeypatch.setattr(evolution, "_integrate_spans", recording_spans)
    monkeypatch.setattr(evolution, "chain_series", recording_chain)
    _evolution_report(tmp_path, params, "json")
    [(spans, mats)] = integrated
    times = np.linspace(s, t, samples).tolist()
    assert len({b - a for a, b in zip(times[:-1], times[1:])}) > (s == 2.0)
    assert spans == [(times[0], times[1]), (t, t), (times[0], times[2])]
    B, *_ = cli._evolution_operator_from(params, (s, t))
    for span, U in zip(spans, mats):
        (alone,), _ = evolution._integrate_spans(B, [span], 1e-10)
        assert np.array_equal(U, alone)
    # the series' chain and the two chains of the pieces
    (series, grid), *piece_chains = chained
    assert grid == times and (series == mats[0]).all()
    assert sum(len(U) for U, _ in piece_chains) == (samples - 1) // 2
    assert all((U == mats[2]).all() for U, _ in piece_chains)


@pytest.mark.parametrize("s, t, samples", [(2.0, 4.7, 11), (0.0, 5.0, 43), (1e4, 1e4 + 1, 21)])
def test_shared_constant_series_matches_its_spans_integrated_alone(s, t, samples):
    # the series whose segments share one U lies within rel_tol |t - s| of
    # the series whose segments are each integrated, also far from 0, where
    # equal spacings differ most in floats
    params = {"B": "constant", "matrix": _constant_model(4, 11), "s": s, "t": t,
              "samples": samples}
    B, _, _, _, M = cli._evolution_operator_from(params, (s, t))
    _, shared, _ = evolution.evolution_series(B, (s, t), samples, 1e-10, M=M)
    _, alone, _ = evolution.evolution_series(B, (s, t), samples, 1e-10)
    assert np.max(np.abs(shared - alone)) <= 1e-10 * (t - s)


def test_a_stray_spacing_is_integrated_on_its_own(monkeypatch):
    # over [1e5, 1e5 + 1] the float lengths of equal spacings differ by about
    # 1e-11: a span shares its length's U only within 1 % of its error budget
    # (rel_tol times its length) over ||M||_1, so here some are integrated apart
    params = {"B": "constant", "matrix": [[0.0, 1.0], [-1.0, 0.0]], "s": 1e5,
              "t": 1e5 + 1, "samples": 201}
    B, _, _, _, M = cli._evolution_operator_from(params, (1e5, 1e5 + 1))
    calls = []
    original = evolution._integrate_spans
    monkeypatch.setattr(evolution, "_integrate_spans",
                        lambda B, spans, rel_tol: (calls.append(spans),
                                                   original(B, spans, rel_tol))[1])
    evolution.evolution_series(B, (1e5, 1e5 + 1), 201, 1e-10, M=M)
    [spans] = calls
    assert 3 < len(spans) < 2 * 200 + 1
    h = [b - a for a, b in spans]
    norm = float(np.abs(M).sum(axis=0).max())
    assert max(abs(x - h[0]) for x in h[3:] if x < 1.5 * h[0]) * norm > 0.01 * 1e-10 * h[0]


@pytest.mark.parametrize("t, samples, spans", [
    pytest.param(t, samples, spans, id=f"{t}-{samples}-{len(spans)}") for t, samples, spans in [
        (5.0, 43, [(0.0, 5 / 42), (5.0, 5.0), (0.0, 10 / 42)]),
        (5.0, 85, [(0.0, 5 / 84), (5.0, 5.0), (0.0, 10 / 84)]),
        (2.0, 11, [(0.0, 0.2), (2.0, 2.0), (0.0, 0.4)]),
        # odd segments: the last piece is three long
        (2.0, 10, [(0.0, 2 / 9), (2.0, 2.0), (0.0, 4 / 9), (2 * 6 / 9, 2.0)]),
        # one segment: the pieces are its halves
        (2.0, 2, [(0.0, 2.0), (2.0, 2.0), (0.0, 1.0)]),
        (2.0, 1, [(0.0, 2.0), (2.0, 2.0), (0.0, 1.0)]),
    ]])
def test_constant_run_work_is_pinned(tmp_path, evolve_calls, t, samples, spans):
    # the 2 (samples - 1) + 1 spans of the layout over [0, t] have this many
    # lengths in sample spacings: 1 of the segments, 0 of U(t, t), and 2 and
    # 3 of the pieces
    _evolution_report(tmp_path, {"B": "constant", "matrix": _constant_model(2, 5), "t": t,
                                 "samples": samples}, "csv")
    assert evolve_calls == [[pytest.approx(span, abs=1e-15) for span in spans]]


def test_numeric_two_level_runs_take_the_constant_path(tmp_path):
    # kappa and lam as numbers: the model is constant, its matrix B(s), and
    # the run judges U(t, s) against its exponential; a cosine kappa is not
    constant = {"B": "bagchi", "kappa": 0.4, "lam": 0.8, "t": 2.0, "samples": 9}
    B, _, _, _, M = cli._evolution_operator_from(constant, (0.5, 2.0))
    assert np.array_equal(M, B([0.5])[0]) and np.array_equal(M, B([1.7])[0])
    varying = {**constant, "kappa": {"cosine": {"amplitude": 0.4, "frequency": 1.0}}}
    assert cli._evolution_operator_from(varying, (0.5, 2.0))[-1] is None
    records = _records(_evolution_report(tmp_path, constant, "json"))
    assert records["evolution.exponential-route"]["status"] == "pass"
    assert "evolution.exponential-route" not in _records(
        _evolution_report(tmp_path, varying, "json"))


@pytest.mark.parametrize("params", [
    {"B": "constant", "matrix": [[0, 1], [1, 0]]},
    {"B": "bagchi", "kappa": 0.3, "lam": 1.0},
])
def test_zero_span_constant_run_passes(tmp_path, params):
    # s = t: U(t, s) = I, and its exponential e^{0 M} is I exactly, judged
    # against the rounding floor of its two segments
    out = _evolution_report(tmp_path, {**params, "s": 1, "t": 1, "samples": 3}, "json")
    record = _records(out)["evolution.exponential-route"]
    floor = 2 * verification._ROUNDING_PER_SEGMENT
    assert (record["measured"], record["threshold"], record["status"]) == (0.0, floor, "pass")


@pytest.mark.parametrize("s, span, samples", [(0.0, 1e-7, 21), (1.0, 1e-12, 21),
                                              (0.0, 2e-7, 201), (1.0, 3e-8, 1)])
def test_exact_short_spans_pass_exponential_columns(tmp_path, s, span, samples):
    # the step loop is exact to rounding on a short span, and the steps and
    # the chain's products round U by a few eps per segment: the record's
    # bound is that floor where 10 rel_tol |t - s| lies below it
    params = {"B": "constant", "matrix": _constant_model(16, 11), "s": s, "t": s + span,
              "samples": samples}
    record = _records(_evolution_report(tmp_path, params, "json"))[
        "evolution.exponential-route"]
    floor = max(1, samples - 1) * verification._ROUNDING_PER_SEGMENT
    assert record["threshold"] == floor > 10 * 1e-10 * span
    assert 0.0 < record["measured"] <= floor
    assert main(["evolve", "--t", "1e-7", "--out", str(tmp_path / "evolve.csv")]) == 0


@pytest.mark.parametrize("argv", [["--t", "5e-324", "--samples", "2"],
                                  ["--t", "1e-322", "--samples", "3"],
                                  ["--t", "2.5e-322", "--samples", "2"],
                                  ["--t", "2.5e-322"],
                                  ["--t", "1e-315", "--samples", "2"]],
                         ids=["5e-324", "1e-322", "2.5e-322", "2.5e-322-21", "1e-315"])
def test_evolve_over_a_subnormal_span_returns(tmp_path, argv):
    # span/50 and the step floor round to 0 below 50 subnormal units, and the
    # sample times of 21 samples over [0, 2.5e-322] overshoot t; over
    # [0, 1e-315] the error budget rel_tol t is 0, where the step loop
    # crawled for minutes before a span took I + t B(0)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", "import sys; from focksym.cli import main; "
                           "sys.exit(main(sys.argv[1:]))", "evolve", *argv,
                           "--out", str(tmp_path / "evolve.csv")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")


_STIFF = ("1e-13 of the span: the coefficient family is too stiff for the 5(4) pair, "
          "or the span needs more steps than the floor allows")
_KNOT_GAP = {"B": "table", "times": [-1e308, 1e308], "matrices": [[[1.0]], [[2.0]]]}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, params, code, err", [
    (["evolve", "--t", "1e308", "--samples", "3"], None, 1,
     "input error: --nu/--kappa/--lam: step size 1.311e+294 at t = 0 fell below its floor "
     f"5.000e+294, {_STIFF}\n"),
    (["run"], {"B": "constant", "matrix": [[1e300]], "t": 1e10, "samples": 3}, 1,
     "input error: params.matrix: step size 1.311e-04 at t = 0 fell below its floor "
     f"5.000e-04, {_STIFF}\n"),
    # a subnormal budget with a large norm takes I + (t - s) B(s)
    (["run"], {"B": "constant", "matrix": [[1e308] * 2] * 2, "t": 1e-320, "samples": 2}, 0, ""),
    (["run"], _KNOT_GAP, 1, "input error: params.times: the spacing of the knots overflows\n"),
    (["validate"], _KNOT_GAP, 1,
     "input error: params.times: the spacing of the knots overflows\n"),
    (["run"], {"B": "table", "times": [0.0, 1e-320], "matrices": [[[1.0]], [[2.0]]]}, 0, ""),
], ids=["evolve-t-1e308", "constant-1e300", "subnormal-span", "knot-gap-overflows",
        "knot-gap-overflows-validate", "subnormal-knot-gap"])
def test_overflowing_sizes_print_only_the_outcome(tmp_path, capsys, argv, params, code, err):
    # the first-order test's norm, a knot gap or a weight that overflows warns no more
    if params is None:
        argv = [*argv, "--out", str(tmp_path / "evolve.csv")]
    else:
        argv = [*argv, _scenario(tmp_path, {"name": "x", "kind": "evolution", "params": params})]
    assert main(argv) == code
    assert capsys.readouterr().err == err


def test_table_end_matrices_keep_negative_zero_cells():
    # at the end knots the weight is 0 or 1, and (1 - w) a + w b turns a -0.0
    # of the end matrix into 0.0: the end matrices are written over it
    params = {"B": "table", "times": [0.0, 1e-320, 1.0], "matrices": [[[-0.0]], [[2.0]], [[-0.0]]]}
    B, *_ = cli._evolution_operator_from(params, (0.0, 1.0))
    values = B([-1.0, 0.0, 1.0, 2.0])[:, 0, 0].real
    assert np.all(values == 0) and np.all(np.signbit(values))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("matrix, samples, rel_tol, message", [
    ([[800]], 5, 1e-4, "the propagator leaves the double range at t = 3"),
    ([[800]], 3, 1e-4, "the propagator leaves the double range after t = 2.87887"),
    ([[800]], 1, 1e-4, "the propagator leaves the double range after t = 2.87887"),
    ([[1e13]], 5, 1e-10, "step size 6.573e-15 at t = 2 fell below its floor 2.500e-14, "
                         f"{_STIFF}"),
])
def test_constant_model_failures_name_absolute_times(tmp_path, _outdir, capsys, matrix,
                                                     samples, rel_tol, message):
    # over [2, 3]: e^{800 t} overflows in the step loop on the piece (2, 3) at
    # three samples and on the span (2, 3) at one, and in the chain at five;
    # the stiff model fails on its first segment.  The spans integrated keep
    # their absolute times, so the messages name times in [2, 3]
    path = _scenario(tmp_path, {"name": "x", "kind": "evolution",
                                "params": {"B": "constant", "matrix": matrix, "s": 2, "t": 3,
                                           "samples": samples, "rel_tol": rel_tol}})
    assert main(["run", path]) == 1
    assert capsys.readouterr().err.endswith(f"input error: params.matrix: {message}\n")
    assert not _outdir.exists()


# --- one parser per process ---------------------------------------------------------

def _call_outcome(argv, report, capsys):
    """Exit code and report of one main call (wall time left out), or its output."""
    capsys.readouterr()
    try:
        rc = main(argv)
    except SystemExit as exc:  # --help exits through argparse
        rc = f"SystemExit({exc.code})"
    out, err = capsys.readouterr()
    if report is None:
        return rc, out, err
    text = report.read_text()
    report.unlink()
    if report.suffix == ".json":
        data = json.loads(text)
        data["provenance"]["wall_time_s"] = None
        text = json.dumps(data, sort_keys=True)
    return rc, text


def test_reused_parser_gives_the_fresh_parsers_outcomes(tmp_path, capsys):
    parser = cli._build_parser()
    assert cli._build_parser() is parser
    out = tmp_path / "reports"
    scenario = {"name": "x", "kind": "conjugation-check", "truncation": {"dim": 16},
                "params": {"a": 1.0, "b": [0.0, 1.0], "c": math.exp(-0.5)}}

    def run_call(fmt):
        report = out / f"r.{fmt}"
        body = dict(scenario, output={"format": fmt, "path": str(report)})
        return ["run", _scenario(tmp_path, body, f"{fmt}.json"), "--seed", "3"], report

    calls = [
        (["evolve", "--no-such-flag"], None),
        (["--help"], None),
        (["validate", _scenario(tmp_path, scenario)], None),
        run_call("json"),
        run_call("csv"),
        (["evolve", "--samples", "4", "--out", str(out / "e.csv")], out / "e.csv"),
        (["verify-all", "--dim", "8", "--out", str(out / "v.json")], out / "v.json"),
    ]
    reused = [_call_outcome(argv, report, capsys) for argv, report in calls]
    assert cli._build_parser() is parser
    assert [o[0] for o in reused] == [1, "SystemExit(0)", 0, 0, 0, 0, 0]
    for (argv, report), first in zip(calls, reused):
        cli._build_parser.cache_clear()
        assert _call_outcome(argv, report, capsys) == first, argv


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


def _one_bad_field(data):
    """A valid scenario body with one field deleted or set to a bad value."""
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
    return body


def _assert_outcome(rc, err, codes):
    assert rc in codes and "Traceback" not in err
    if rc == 1:
        assert re.match(r"input error: (params|truncation|output)\.", err), err


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_validate_survives_one_bad_field(tmp_path, capsys, data):
    body = _one_bad_field(data)
    capsys.readouterr()
    rc = main(["validate", _scenario(tmp_path, body)])
    _assert_outcome(rc, capsys.readouterr().err, (0, 1))


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_run_survives_one_bad_field(tmp_path, monkeypatch, capsys, data):
    monkeypatch.chdir(tmp_path)  # relative report paths land in the test's directory
    body = _one_bad_field(data)
    capsys.readouterr()
    rc = main(["run", _scenario(tmp_path, body)])
    _assert_outcome(rc, capsys.readouterr().err, (0, 1, 2))
