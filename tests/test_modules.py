"""What a focksym process loads: numpy is the one runtime dependency, and
none of its optional subpackages nor the stdlib's exact-arithmetic modules
is needed by any entry point."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# modules that no entry point needs: exact arithmetic, numpy's optional
# subpackages, and the test oracles
ABSENT = ("fractions", "decimal", "numpy.polynomial", "numpy.ma", "numpy.random", "scipy",
          "mpmath", "sympy")

_STD = {"a": 1.0, "b": 0.0, "c": 1.0}
_TRANSLATION = {"variant": "translation", "E": 1.0, "F": 0.0, "conjugation": _STD}
_DILATION = {"variant": "dilation", "ell": -1.0, "G": 1.0, "H": 0.1, "conjugation": _STD}
KINDS = {
    "conjugation-check": {},
    "wco": {"A": 0.5},
    "semigroup": {"family": _TRANSLATION},
    "generator": {"family": _DILATION},
    "spectrum": {"family": _DILATION},
    "evolution": {"B": "bagchi", "samples": 5},
    "full-verify": {},
}

# every entry point in one process: the exit codes, then the loaded modules
_CHILD = """
import contextlib, io, json, sys
from focksym.cli import main
codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(main(argv))
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""


def test_no_entry_point_loads_an_optional_module(tmp_path):
    argvs = [["verify-all", "--dim", "8"]]
    for kind, params in KINDS.items():
        for fmt in ("json", "csv"):
            path = tmp_path / f"{kind}-{fmt}.json"
            path.write_text(json.dumps({"name": f"{kind}-{fmt}", "kind": kind, "params": params,
                                        "truncation": {"dim": 8}, "output": {"format": fmt}}))
            argvs += [["run", str(path)], ["validate", str(path)]]
    argvs += [["evolve", "--samples", "3"], ["spectrum", "--dim", "16"]]
    env = {**os.environ, "PYTHONPATH": str(SRC), "FOCKSYM_OUTPUT_DIR": str(tmp_path / "out")}
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    # every entry ran to its report: an exit of 1 would be an input error
    assert len(out["codes"]) == len(argvs) and set(out["codes"]) <= {0, 2}
    assert len(list((tmp_path / "out").iterdir())) >= len(KINDS) * 2
    loaded = [name for name in out["modules"]
              if any(name == m or name.startswith(m + ".") for m in ABSENT)]
    assert loaded == []
