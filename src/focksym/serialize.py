"""JSON and CSV helpers shared by the data types and the CLI.

Complex scalars travel as two-element [re, im] arrays.  CSV cells use Python's
shortest round-trip float formatting (repr), so files reload losslessly; a
complex cell is written as ``complex()`` parses it back, signed zeros and NaN
included.  The stdlib ``csv`` writer quotes a cell that holds a comma or a
quote, so every row has as many cells as the header.

A table given as a 2-D float64 array is written through a vectorized kernel,
``_repr_cells``, whose cells keep the bytes of ``float.__repr__``.  It takes
the table ``_CHUNK_CELLS`` cells at a time, so its work and scratch memory
per step are bounded whatever the table's size.  An integer below 2^53 is
its own digits.  Any other cell is scaled by a power of ten in double-double
arithmetic to a 17-digit integer and a fraction, and written as the multiple
of the largest power of ten within its rounding interval that lies nearest
it, the shortest digits that read back as the cell (Gay's dtoa mode 0; Adams,
Ryu, PLDI 2018).  A cell the kernel cannot decide with margin falls back to
``float.__repr__``: NaN and the infinities, nonzero magnitudes up to 1e-280 or
from 1e280 up, and a cell whose rounding interval ends, or whose rounding tie
falls, within 1e-9 of an integer once it is scaled.  Rows of any other form
go through the ``csv`` writer cell by cell.

File writes are atomic: ``_atomic_file`` hands a writer a temp file in the
target directory, with the mode ``open`` would give the file (an existing
target keeps its own), renamed over the destination or unlinked on failure.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import os
import stat
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

__all__ = [
    "complex_to_json",
    "complex_from_json",
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


def _create_temp(directory: str) -> tuple[int, str]:
    """A new file in directory, created as ``open`` creates one: mode 0o666 less the umask."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    while True:
        tmp = os.path.join(directory, f"tmp{os.urandom(6).hex()}.tmp")
        try:
            return os.open(tmp, flags, 0o666), tmp
        except FileExistsError:
            continue


@contextlib.contextmanager
def _atomic_file(path: str) -> Iterator[TextIO]:
    """A text handle on a new temp file beside path, renamed over path if the block ends."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = _create_temp(directory)
    try:
        with os.fdopen(fd, "w") as fh:
            try:  # an existing file keeps its mode, as it would under open(path, "w")
                os.fchmod(fh.fileno(), stat.S_IMODE(os.stat(path).st_mode))
            except FileNotFoundError:
                pass
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_report(path: str, payload: dict) -> None:
    with _atomic_file(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, complex):
        imag = repr(value.imag)  # its own sign, so that -0.0 and nan parse back
        return f"{repr(value.real)}{'' if imag[0] == '-' else '+'}{imag}j"
    return str(value)


# ----------------------------------------------------------------------------
# float64 cells as float.__repr__ writes them, vectorized
#
# The kernel pays for its lines end to end: with a plain
# "".join(",".join(map(repr, row)) ...) of the same bytes in its place, the
# benchmark's evolution-series read wall_s 32.9 % higher (6 of 6 pairs), past
# its 25 % bound; a 43 x 2049 table took 62 ms against 41 ms.  It is slower
# on small tables: 1.0 against 0.3 ms for 35 x 9 (BENCH_features.json).

_CHUNK_CELLS = 4096
_MARGIN = 1e-9  # how near a unit an interval end or a tie may come, scaled
_SCALES = range(-265, 298)  # 10^16 <= |x| 10^s < 10^17 for kept cells, one more each side
_POW10 = 10 ** np.arange(18, dtype=np.int64)
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16)
# the bytes a cell's repr takes besides its digits, and a NUL to pad with
_CONSTANTS = b"0123456789-.e+,\n\0"
_WIDTH = 25  # the longest repr of a double (24 bytes) and its separator


@functools.cache
def _powers_of_ten() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """10^s for s in _SCALES as correctly rounded hi + lo, and hi's Dekker halves."""
    from fractions import Fraction  # it loads decimal: imported when first needed

    hi = np.array([float(Fraction(10) ** s) for s in _SCALES])
    lo = np.array([float(Fraction(10) ** s - Fraction(h)) for s, h in zip(_SCALES, hi)])
    return hi, lo, *_split(hi)


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of v into two halves of 26 bits each."""
    t = v * 134217729.0  # 2^27 + 1
    h = t - (t - v)
    return h, v - h


def _scaled(a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """a 10^s as the double-double yh + yl, and 10^s rounded to a double."""
    hi, lo, hi_h, hi_l = (p[s - _SCALES.start] for p in _powers_of_ten())
    p = a * hi
    a_h, a_l = _split(a)
    e = ((a_h * hi_h - p) + a_h * hi_l + a_l * hi_h) + a_l * hi_l + a * lo
    yh = p + e
    return yh, e - (yh - p), hi


def _shortest_digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shortest digits that read back as each a > 0, as repr chooses them.

    Returns (q, e, decided): a reads back from q 10^e, where q has no
    trailing zero.  q 10^e is the multiple of the largest power of ten within
    the rounding interval of a that lies nearest a.  Where decided is false
    the cell is out of range or too near a unit to decide, and q and e are
    meaningless.
    """
    decided = (a > 1e-280) & (a < 1e280)
    a = np.where(decided, a, 1.0)
    frac, exp2 = np.frexp(a)
    s = 16 - np.floor(np.log10(a)).astype(np.int64)
    yh, yl, p = _scaled(a, s)
    off = (yh < 1e16).astype(np.int64) - (yh >= 1e17)  # log10 rounded across a decade
    if off.any():
        s += off
        yh, yl, p = _scaled(a, s)
        decided &= (yh >= 1e16) & (yh < 1e17)
    # y = a 10^s = n + f; yh >= 2^53 is an integer.  The neighbours of a lie
    # one ulp away, the lower only half an ulp at a power of two, and the
    # interval reaches halfway to each
    floor_yl = np.floor(yl)
    n = yh.astype(np.int64) + floor_yl.astype(np.int64)
    f = yl - floor_yl
    up = np.ldexp(p, exp2 - 54)
    lo = f - np.where(frac == 0.5, 0.5 * up, up)
    hi = f + up
    lo_int, hi_int = np.floor(lo), np.floor(hi)
    decided &= np.abs(lo - lo_int - 0.5) < 0.5 - _MARGIN
    decided &= np.abs(hi - hi_int - 0.5) < 0.5 - _MARGIN
    # the interval holds a multiple of 10^j when the integers (lo_i, hi_i]
    # differ in their digits from the j-th up; the largest such j, k, is
    # found a power of two at a time, keeping lo_i // 10^k and hi_i // 10^k
    lo_k, hi_k = n + lo_int.astype(np.int64), n + hi_int.astype(np.int64)
    k = np.zeros(len(a), np.int64)
    for step in (16, 8, 4, 2, 1):
        lo_j, hi_j = lo_k // 10**step, hi_k // 10**step
        differ = lo_j != hi_j
        if differ.any():
            lo_k, hi_k = np.where(differ, lo_j, lo_k), np.where(differ, hi_j, hi_k)
            k += step * differ
    scale = _POW10[k]
    m = n // scale
    tie = np.clip(2 * (n - m * scale) - scale, -4, 4) + 2 * f  # > 0: y rounds up
    decided &= np.abs(tie) > 2 * _MARGIN
    q = np.clip(m + (tie > 0), lo_k + 1, hi_k)
    return q, k - s, decided


@functools.cache
def _layout(decpt: int, nd: int, negative: bool, last: bool) -> np.ndarray:
    """Where each byte of such a cell's repr comes from in its source row.

    repr writes 0.q x 10^decpt with an exponent when decpt <= -4 or
    decpt > 16 (two exponent digits at least), else positionally, ending in
    .0 if it is an integer.
    """
    digits = list(range(18 - nd, 18))

    def const(text: str) -> list[int]:
        return [18 + _CONSTANTS.index(c) for c in text.encode()]

    out = const("-") if negative else []
    if decpt <= -4 or decpt > 16:
        out += digits[:1] + (const(".") + digits[1:] if nd > 1 else [])
        out += const(f"e{decpt - 1:+03d}")
    elif decpt <= 0:
        out += const("0." + "0" * -decpt) + digits
    elif decpt >= nd:
        out += digits + const("0" * (decpt - nd) + ".0")
    else:
        out += digits[:decpt] + const(".") + digits[decpt:]
    out += const("\n" if last else ",")
    return np.array(out, np.intp)


def _repr_cells(x: np.ndarray, last: np.ndarray) -> bytes:
    """The cells of x as float.__repr__ writes them, each followed by a newline
    where last is true and a comma elsewhere."""
    a = np.abs(x)
    # an integer below 2^53 is its own shortest digits, and the point follows
    # them; trailing zeros in q print the same in that layout
    small = a < 2.0**53
    q = np.where(small, a, 0.0).astype(np.int64)
    decided = small & (a == q)
    e = np.zeros(len(x), np.int64)
    rest = np.flatnonzero(~decided)
    if rest.size:
        q[rest], e[rest], decided[rest] = _shortest_digits(a[rest])
    nd = np.searchsorted(_POW10[1:], q, side="right") + 1
    decpt = nd + e  # q 10^e = 0.q x 10^decpt
    # a source row per cell: the digits of q right-aligned in 18 columns, two
    # at a time as far as the longest reaches, then _CONSTANTS
    source = np.empty((len(x), 18 + len(_CONSTANTS)), np.uint8)
    source[:, 18:] = np.frombuffer(_CONSTANTS, np.uint8)
    pairs = np.zeros((9, len(x)), np.intp)
    v = q
    for row in range(8, 8 - (int(nd.max()) + 1) // 2, -1):
        t = v // 100
        np.subtract(v, 100 * t, out=pairs[row])
        v = t
    _PAIRS.take(pairs.T, out=source[:, :18].view(np.uint16))
    undecided = np.flatnonzero(~decided)
    nd[undecided] = decpt[undecided] = 1  # any layout: these rows are replaced
    key = (decpt * 18 + nd) * 4 + np.signbit(x) * 2 + last
    low = key.min()
    present = np.bincount(key - low)
    keys = np.flatnonzero(present)
    rank = np.empty(len(present), np.intp)
    rank[keys] = np.arange(len(keys))
    layouts = [_layout(int(k) // 72, int(k) // 4 % 18, bool(k & 2), bool(k & 1))
               for k in keys + low]
    # each row as long as the longest, padded with the NUL column
    table = np.full((len(layouts), _WIDTH if undecided.size else max(map(len, layouts))),
                    18 + _CONSTANTS.index(0))
    for i, lay in enumerate(layouts):
        table[i, :len(lay)] = lay
    index = table[rank[key - low]]
    index += np.arange(0, source.size, source.shape[1])[:, None]
    out = source.ravel().take(index)
    if undecided.size:
        out[undecided] = _repr_rows(x[undecided].tolist(), last[undecided].tolist())
    return out[out != 0].tobytes()


def _repr_rows(values: list[float], last: list[bool]) -> np.ndarray:
    """float.__repr__ of each value and its separator, a row each, padded with NUL."""
    text = "".join((repr(v) + ("\n" if end else ",")).ljust(_WIDTH, "\0")
                   for v, end in zip(values, last))
    return np.frombuffer(text.encode(), np.uint8).reshape(-1, _WIDTH)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence] | np.ndarray) -> None:
    """The header, then rows, each chunk of _repr_cells for a 2-D float64
    array and each row of the csv writer for any other rows as it is made."""
    with _atomic_file(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if (isinstance(rows, np.ndarray) and rows.dtype == np.float64 and rows.ndim == 2
                and rows.size):
            cells = np.ascontiguousarray(rows).ravel()
            for start in range(0, cells.size, _CHUNK_CELLS):
                chunk = cells[start:start + _CHUNK_CELLS]
                last = np.arange(start + 1, start + 1 + chunk.size) % rows.shape[1] == 0
                fh.write(_repr_cells(chunk, last).decode("ascii"))
        else:
            writer.writerows([_cell(v) for v in row] for row in rows)
