"""JSON and CSV helpers shared by the data types and the CLI.

Complex scalars travel as two-element [re, im] arrays.  CSV cells use Python's
shortest round-trip float formatting (repr), so files reload losslessly.  The
stdlib ``csv`` writer quotes a cell that holds a comma or a quote, so every
row has as many cells as the header.

A table given as a 2-D float64 array is written through a vectorized kernel,
``_repr_cells``, whose cells keep the bytes of ``float.__repr__``.  It takes
the table ``_CHUNK_CELLS`` cells at a time, so its work and scratch memory
per step are bounded whatever the table's size, and the chunks of a table
fill one index buffer.  An integer below 2^53 is
its own digits.  Any other cell is scaled by a power of ten in double-double
arithmetic to a 17-digit integer and a fraction, and written as the multiple
of the largest power of ten within its rounding interval that lies nearest
it, the shortest digits that read back as the cell (Gay's dtoa mode 0; Adams,
Ryu, PLDI 2018).  Each cell's bytes are gathered from a source row of its
digits, written four at a time, its exponent's digits and the constant bytes,
by its layout: a row of one table, built once, of every form of a repr
(positional with its decimal point, or exponent with its sign and number of
digits), digit count, sign and separator.  A cell the kernel cannot decide
with margin falls back to ``float.__repr__``: NaN and the infinities, nonzero
magnitudes up to 1e-280 or from 1e280 up, and a cell whose rounding interval
ends, or whose rounding tie falls, within 1e-9 of an integer once it is
scaled.  Rows of any other form go through the ``csv`` writer cell by cell.

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
import threading
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
    return str(value)


# ----------------------------------------------------------------------------
# float64 cells as float.__repr__ writes them, vectorized
#
# The kernel pays for its lines end to end: with a plain
# "".join(",".join(map(repr, row)) ...) of the same bytes in its place, the
# benchmark's evolution-series read wall_s 32.9 % higher (6 of 6 pairs), past
# its 25 % bound (BENCH_features.json).  A 43 x 2049 table takes 27 ms
# against the join's 51 ms; a 35 x 9 one 0.38 against 0.31 ms, where the
# kernel is slower (the fastest of 60 and 2000 writes, one BLAS thread, a
# shared 2-CPU host; BENCH_samelength.json).

_CHUNK_CELLS = 4096
_MARGIN = 1e-9  # how near a unit an interval end or a tie may come, scaled
_SCALES = range(-265, 298)  # 10^16 <= |x| 10^s < 10^17 for kept cells, one more each side
_POW10 = 10 ** np.arange(18, dtype=np.int64)
# a cell's source row: the digits of q right-aligned in _DIGITS columns, four
# at a time, the four digits of its exponent's magnitude, then _CONSTANTS,
# the bytes a repr takes besides its digits, and a NUL to pad with
_DIGITS = 20
_EXPONENT = _DIGITS
_CONSTANTS = b"0123456789-.e+,\n\0"
_SOURCE = _EXPONENT + 4 + len(_CONSTANTS)
_NUL = _SOURCE - 1
_WIDTH = 25  # the longest repr of a double (24 bytes) and its separator
# forms of a cell: positional with decpt -3 to 16, then the exponent form
# with a sign and two or three digits
_POSITIONAL = range(-3, 17)
_FORMS = len(_POSITIONAL) + 4


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
    # differ in their digits from the j-th up, and then for every smaller j;
    # the largest such j is k.  Up to j = 4 that is when lo_i mod 10^j plus
    # their distance reaches 10^j, read from lo_i mod 10^4; the few cells
    # that reach 10^4 search on from lo_i // 10^4 a power of two at a time
    lo_i, hi_i = n + lo_int.astype(np.int64), n + hi_int.astype(np.int64)
    lo_4 = lo_i // 10**4
    rest, reach = lo_i - lo_4 * 10**4, hi_i - lo_i
    k = (rest + reach >= 10**4).astype(np.int64)
    for j in (1, 2, 3):
        k += rest - rest // 10**j * 10**j + reach >= 10**j
    far = np.flatnonzero(k == 4)
    if far.size:
        lo_k, hi_k, more = lo_4[far], hi_i[far] // 10**4, 0
        for step in (8, 4, 2, 1):
            lo_j, hi_j = lo_k // 10**step, hi_k // 10**step
            differ = lo_j != hi_j
            lo_k, hi_k = np.where(differ, lo_j, lo_k), np.where(differ, hi_j, hi_k)
            more = more + step * differ
        k[far] += more
    scale = _POW10[k]
    m = n // scale
    r = n - m * scale
    tie = np.clip(2 * r - scale, -4, 4) + 2 * f  # > 0: y rounds up
    decided &= np.abs(tie) > 2 * _MARGIN
    # m 10^k and (m + 1) 10^k are the multiples about n, at least one inside
    # (lo_i, hi_i]: the nearer one if it is inside, else the other
    below = r + lo_int.astype(np.int64) < 0
    above = scale - r <= hi_int.astype(np.int64)
    q = m + np.where(tie > 0, above, ~below)
    return q, k - s, decided


def _layout(form: int, nd: int) -> list[int]:
    """Where each byte of such a cell's repr, but for its sign and its
    separator, comes from in its source row.

    repr writes 0.q x 10^decpt positionally when -4 < decpt <= 16, ending in
    .0 if it is an integer; forms 0 to 19 are these decpt from -3 up.  Else
    it writes an exponent of at least two digits: forms 20 to 23 are its
    sign, + or -, and its two or three digits.
    """
    digits = list(range(_DIGITS - nd, _DIGITS))

    def const(text: str) -> list[int]:
        return [_EXPONENT + 4 + _CONSTANTS.index(c) for c in text.encode()]

    decpt = _POSITIONAL.start + form
    if form >= len(_POSITIONAL):
        below, three = divmod(form - len(_POSITIONAL), 2)
        return (digits[:1] + (const(".") + digits[1:] if nd > 1 else [])
                + const("e-" if below else "e+") + list(range(_EXPONENT + 2 - three, _EXPONENT + 4)))
    if decpt <= 0:
        return const("0." + "0" * -decpt) + digits
    if decpt >= nd:
        return digits + const("0" * (decpt - nd) + ".0")
    return digits[:decpt] + const(".") + digits[decpt:]


@functools.cache
def _layouts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The layout of every key ((form * 17 + nd - 1) * 2 + negative) * 2 + last
    as a row of source columns padded with the NUL column, its length, and
    the digits 0000 to 9999, four bytes each read as one uint32."""
    cores = [_layout(form, nd) for form in range(_FORMS) for nd in range(1, 18)]
    size = np.array([len(core) for core in cores])
    minus, comma, newline = (_EXPONENT + 4 + _CONSTANTS.index(c) for c in b"-,\n")
    table = np.full((len(cores), 2, 2, _WIDTH), _NUL, np.uint8)  # core, negative, last
    # every core byte at its row and column, one column on for a negative cell
    rows = np.arange(len(cores))
    at, flat = np.repeat(rows, size), np.concatenate(cores)
    column = np.arange(len(flat)) - np.repeat(np.cumsum(size) - size, size)
    table[at, 0, :, column] = table[at, 1, :, column + 1] = flat[:, None]
    table[:, 1, :, 0] = minus
    for negative in (0, 1):
        table[rows, negative, 0, size + negative] = comma
        table[rows, negative, 1, size + negative] = newline
    lengths = (size[:, None, None] + np.arange(2)[:, None] + 1).repeat(2, axis=2)
    i = np.arange(10000)
    number = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1)
    quads = (number + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    return table.reshape(-1, _WIDTH), lengths.ravel().astype(np.uint8), quads


# The index of a chunk's bytes, which write_csv allocates once per table for
# the thread that writes it and every chunk of the table fills.  A fresh one
# per chunk, 800 kB, was mapped and unmapped by the allocator chunk after
# chunk and its pages faulted in each time: 7537 page faults per 43 x 2049
# table in a fresh process, against 313 for the first table and none after.
# With the constant runs' spans shared, the benchmark's evolution-series
# wall_s fell by 1 to 4 % without it and by 18 to 20 % with it
# (BENCH_samelength.json).
_TABLE = threading.local()


def _repr_cells(x: np.ndarray, last: np.ndarray) -> bytes:
    """The cells of x as float.__repr__ writes them, each followed by a newline
    where last is true and a comma elsewhere; the index of their bytes goes
    into the buffer of the table the thread writes, if it is large enough."""
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
    undecided = np.flatnonzero(~decided)
    q[undecided] = e[undecided] = 0  # any layout: these rows are replaced
    nd = np.searchsorted(_POW10[1:], q, side="right") + 1
    decpt = nd + e  # q 10^e = 0.q x 10^decpt
    table, lengths, quad_digits = _layouts()
    source = np.empty((len(x), _SOURCE), np.uint8)
    source[:, _EXPONENT + 4:] = np.frombuffer(_CONSTANTS, np.uint8)
    quads = np.zeros((_DIGITS // 4, len(x)), np.intp)
    v = q
    for row in range(_DIGITS // 4 - 1, _DIGITS // 4 - 1 - (int(nd.max()) + 3) // 4, -1):
        t = v // 10000
        np.subtract(v, 10000 * t, out=quads[row])
        v = t
    quad_digits.take(quads.T, out=source[:, :_DIGITS].view(np.uint32))
    exponent = decpt - 1
    magnitude = np.abs(exponent)
    quad_digits.take(magnitude[:, None], out=source[:, _EXPONENT:_EXPONENT + 4].view(np.uint32))
    form = np.where((decpt < _POSITIONAL.start) | (decpt >= _POSITIONAL.stop),
                    len(_POSITIONAL) + 2 * (exponent < 0) + (magnitude >= 100),
                    decpt - _POSITIONAL.start)
    key = ((form * 17 + nd - 1) * 2 + np.signbit(x)) * 2 + last
    # each row as long as the chunk's longest, padded with the NUL column
    width = _WIDTH if undecided.size else int(lengths.take(key).max())
    buffer = getattr(_TABLE, "index", None)
    if buffer is None or buffer.size < len(x) * width:
        buffer = np.empty(len(x) * width, np.intp)
    index = buffer[:len(x) * width].reshape(len(x), width)
    np.add(table[key, :width], np.arange(0, source.size, _SOURCE)[:, None], out=index)
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
            _TABLE.index = np.empty(min(cells.size, _CHUNK_CELLS) * _WIDTH, np.intp)
            try:
                for start in range(0, cells.size, _CHUNK_CELLS):
                    chunk = cells[start:start + _CHUNK_CELLS]
                    last = np.arange(start + 1, start + 1 + chunk.size) % rows.shape[1] == 0
                    fh.write(_repr_cells(chunk, last).decode("ascii"))
            finally:
                del _TABLE.index
        else:
            writer.writerows([_cell(v) for v in row] for row in rows)
