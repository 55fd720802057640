"""The span tracer of ``perfbench/tracing.py`` still runs against the program."""

import importlib.util
import json
from pathlib import Path

import numpy as np

import focksym
from focksym import cli, evolution

ROOT = Path(__file__).resolve().parent.parent


def _tracer_class():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_reports_every_per_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setenv("FOCKSYM_OUTPUT_DIR", str(tmp_path / "out"))
    tracer = _tracer_class()()
    tracer.install(focksym)  # fails if a traced name no longer resolves
    try:
        assert cli.main(["verify-all", "--dim", "8", "--out", str(tmp_path / "v.json")]) == 0
        assert cli.main(["evolve", "--samples", "3", "--out", str(tmp_path / "e.csv")]) == 0
        # the tracer reads the Runge-Kutta steps from evolve, which no CLI path calls
        B = evolution.bagchi_hamiltonian(1.0, lambda ts: np.full(len(ts), 0.3),
                                         lambda ts: np.full(len(ts), 1.0))
        evolution.evolve(B, 0.0, 1.0)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    # trace.wall_s is the benchmark's own clock, added outside the tracer
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = [m["name"] for m in per_layer
               if m["name"] != "trace.wall_s" and m["name"] not in metrics]
    assert missing == []
    assert metrics["evolution.rk_steps"][0] > 0
