"""JSON and CSV helpers shared by the data types and the CLI.

Complex scalars travel as two-element [re, im] arrays.  CSV cells use Python's
shortest round-trip float formatting (repr), so files reload losslessly; the
stdlib ``csv`` writer quotes a cell that holds a comma or a quote, so every
row has as many cells as the header.  A row of floats alone is joined
directly, with the bytes the writer would give it.
File writes are atomic: content goes to a temp file in the target directory
which is then renamed over the destination.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "complex_to_json",
    "complex_from_json",
    "atomic_write_text",
    "write_json_report",
    "write_csv",
    "default_output_dir",
]

OUTPUT_DIR_ENV = "FOCKSYM_OUTPUT_DIR"


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def complex_from_json(obj) -> complex:
    """A number or an [re, im] pair; a JSON boolean is neither (TypeError)."""
    if isinstance(obj, bool):
        raise TypeError("a boolean is not a number")
    if isinstance(obj, (int, float)):
        return complex(obj)
    re, im = obj
    if isinstance(re, bool) or isinstance(im, bool):
        raise TypeError("a boolean is not a number")
    return complex(re, im)


def default_output_dir() -> str:
    return os.environ.get(OUTPUT_DIR_ENV, "out")


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_report(path: str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, complex):
        return f"{repr(value.real)}{'+' if value.imag >= 0 else ''}{repr(value.imag)}j"
    return str(value)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        # float.__repr__ raises TypeError on the first cell that is not a float
        # and gives a float subclass (np.float64) the repr of _cell; a float's
        # repr holds no comma, quote or newline, so the writer would not quote it
        try:
            line = ",".join(map(float.__repr__, row))
        except TypeError:
            writer.writerow([_cell(v) for v in row])
        else:
            buf.write(line + "\n")
    atomic_write_text(path, buf.getvalue())
