"""Minute-level meter data: CSV parsing, null repair, and aggregation.

Input files hold one row per minute with a timestamp column followed by one
power column (kW) per meter. Empty cells are nulls and get repaired by linear
interpolation before aggregation.

The rows are held as columns (`Readings`): every stage works on whole arrays,
and validation looks at single rows only to describe a check that has already
failed.
"""
from __future__ import annotations

import codecs
import os
from contextlib import nullcontext
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import ConfigError, DataError


@dataclass(frozen=True)
class Granularity:
    """Bucket width in minutes; buckets must tile a day exactly."""

    minutes: int

    def __post_init__(self):
        if self.minutes < 1:
            raise ConfigError(f"granularity must be >= 1 minute, got {self.minutes}")
        if 1440 % self.minutes != 0:
            raise ConfigError(
                f"granularity {self.minutes} does not divide 1440 (a day)"
            )

    @property
    def buckets_per_day(self) -> int:
        return 1440 // self.minutes


@dataclass(frozen=True, eq=False)
class Readings:
    """Timestamped records as columns.

    `timestamps` is a strictly increasing datetime64 array with one entry per
    row; `values` is a float64 (rows, columns) matrix of kW, NaN = null. A
    parsed minute series has one column per meter and datetime64[us] stamps;
    `aggregate` gives bucket starts (datetime64[m]) and one column of mean
    building totals.
    """

    timestamps: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamps)


# ---------------------------------------------------------------------------
# parsing

# accepted timestamps: a prefix of this template ('0' = any digit, 'T' = 'T'
# or ' ') with one of the lengths below, i.e. YYYY-MM-DD, optionally followed
# by HH:MM, HH:MM:SS or HH:MM:SS.f to HH:MM:SS.ffffff; no UTC offset
_TS_TEMPLATE = np.frombuffer(b"0000-00-00T00:00:00.000000", dtype=np.uint8)
# _TS_LENGTH_OK[k]: k is one of the lengths; a longer field reads the last entry
_TS_LENGTH_OK = np.array([k in (10, 16, 19, 21, 22, 23, 24, 25, 26)
                          for k in range(len(_TS_TEMPLATE) + 2)])
# least and greatest month, day, hour, minute and second; a day past its
# month's end gives a date in the next month
_TS_LEAST = np.array([1, 1, 0, 0, 0], dtype=np.uint8)[:, None]
_TS_MOST = np.array([12, 99, 23, 59, 59], dtype=np.uint8)[:, None]
# longest reading cell read; a longer one is malformed. This bounds the
# (cells x width) byte matrix the cells are converted from.
_MAX_CELL = 64
_BLANKS = np.frombuffer(b" \t\v\f", dtype=np.uint8)
# 10**k for the 0 to 15 digits after the dot of a plain reading cell (see
# _parse_cells); each is an exact float
_POW10 = np.array([float(10**k) for k in range(16)])
# integer types of the numbers of 2, 4, 8 and 16 digits and more (see
# _parse_cells); past 16 bytes no cell is plain, and its number may wrap
_JOIN_TYPES = (np.uint8, np.uint16, np.uint32) + (np.uint64,) * 3
_MALFORMED, _NON_FINITE, _NEGATIVE = 1, 2, 3
_CELL_PROBLEMS = {
    _MALFORMED: "malformed", _NON_FINITE: "non-finite", _NEGATIVE: "negative"
}
# input bytes parsed at a time, cut back to the last whole line: bounds the
# per-line positions and per-cell byte matrices held next to the output
BLOCK_BYTES = 1 << 20
# a block's rows are parsed in runs of BLOCK_BYTES / _RUNS bytes: long enough
# that numpy's loops, run without the GIL, outweigh the Python between them,
# and short enough that a run's temporaries stay about two blocks' bytes
_RUNS = 4
# bytes past a block's end that `_gather` may read: a field of up to _MAX_CELL
# bytes read as whole 8-byte words
_PAD = _MAX_CELL + 8
# _LOW_BYTES[k] keeps the first k bytes of a little-endian uint64
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


def parse_readings(data: bytes | str) -> Readings:
    """Parse a readings CSV, given as its UTF-8 bytes, into columns.

    Rows are separated by newlines (a CRLF or a lone CR counts as one), cells
    by commas, without quoting. A UTF-8 byte-order mark before the header is
    skipped. Blank lines are skipped. A timestamp is YYYY-MM-DD, optionally
    followed by 'T' or a space and HH:MM, HH:MM:SS or HH:MM:SS.ffffff, in
    local time: a UTC offset is rejected. A cell that is empty or whitespace
    is a null. A negative cell is rejected. A file without data rows is
    rejected. Row numbers in error messages count the header as row 1 and
    include blank lines, and column numbers count the cells after the
    timestamp.

    A str is encoded once. Bytes that are not UTF-8 raise UnicodeDecodeError,
    positioned as decoding the whole input would position it. The data rows
    are cut into blocks of whole lines of about BLOCK_BYTES each, read in
    place as views of the input, and parsed by `parse_workers()` threads
    (numpy releases the GIL inside its loops). Each block's rows and lines
    are counted first, so the result arrays are allocated once at their exact
    size and every block parses into its own rows of them. Beside the input
    and the result, each thread holds one run of rows' temporaries. The
    first error in file order is the one raised.
    """
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    else:
        _check_utf8(data)
    head = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    if len(data) == head:
        raise DataError("empty input: missing header row")
    header_end = _line_end(data, head)
    header = data[head:header_end].decode("utf-8", "surrogatepass").split(",")
    if header[0].strip() != "timestamp":
        raise DataError("header must start with a 'timestamp' column")
    n_cols = len(header)
    if n_cols < 2:
        raise DataError("header declares no meter columns")

    blocks = _blocks(data, _next_line(data, header_end))
    workers = min(parse_workers(), len(blocks))
    if workers > 1:
        # imported here, so that commands which parse no large input do not
        # pay for concurrent.futures and the logging it imports
        from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        counts = _each(pool, workers, len(blocks), lambda i: _count_block(*blocks[i]))
        rows = np.cumsum([0] + [r for r, _ in counts])
        # index of each block's first line; the header is line 0
        lines = np.cumsum([1] + [k for _, k in counts])
        timestamps = np.empty(rows[-1], dtype="datetime64[us]")
        values = np.empty((rows[-1], n_cols - 1))

        def parse(i, last=np.datetime64("NaT")):
            _parse_block(*blocks[i], int(lines[i]), n_cols, last,
                         timestamps[rows[i] :], values[rows[i] :])

        def error(i):  # the block's first error, or None
            try:
                parse(i)
            except DataError as exc:
                return exc
            return None

        errors = _each(pool, workers, len(blocks), error)
    for i in range(len(blocks)):
        # the blocks were parsed apart, so each block's first stamp is
        # checked against the last one before it here
        last = timestamps[rows[i] - 1] if rows[i] else np.datetime64("NaT")
        if errors[i] is not None or (rows[i + 1] > rows[i] and timestamps[rows[i]] <= last):
            # parsed again after that stamp, the block raises the first error
            # in file order: its own, or a stamp not after the one before it
            parse(i, last)
    if not rows[-1]:
        raise DataError("no data rows after the header")
    return Readings(timestamps, values)


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, where the
    platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def parse_workers() -> int:
    """Threads that parse one input: at most the CPUs this process may run
    on, and at most two, since each holds a run of rows' temporaries and the
    parse must stay within the input, the result and 16 blocks."""
    return min(2, usable_cpus())


def _blocks(data: bytes, pos: int) -> list:
    """The data rows from `pos` cut into blocks of whole lines of about
    BLOCK_BYTES, each a (buf, size) pair: a uint8 array whose first `size`
    bytes are the block's lines without the last one's line break, followed
    by at least _PAD more bytes for `_gather` to read. `buf` is a view of
    `data`, or for a block within _PAD bytes of the input's end, a
    zero-padded copy."""
    blocks = []
    while pos < len(data):
        cut = len(data)
        if pos + BLOCK_BYTES < len(data):
            # the block ends at its last line break, the CR of a CRLF if so
            stop = pos + BLOCK_BYTES
            cut = max(data.rfind(b"\n", pos, stop), data.rfind(b"\r", pos, stop))
            if cut < 0:  # a line longer than a block is a block of its own
                cut = _line_end(data, stop)
            elif cut > pos and data[cut - 1 : cut + 1] == b"\r\n":
                cut -= 1
        size = cut - pos
        if cut + _PAD <= len(data):
            buf = np.frombuffer(data, np.uint8, size + _PAD, pos)
        else:
            buf = np.zeros(size + _PAD, dtype=np.uint8)
            buf[:size] = np.frombuffer(data, np.uint8, size, pos)
        blocks.append((buf, size))
        pos = _next_line(data, cut)
    return blocks


def _each(pool, workers, n, task) -> list:
    """[task(i) for i in range(n)], the indices dealt in turn to the
    `workers` threads of `pool`, or run here without one."""
    if pool is None:
        return [task(i) for i in range(n)]
    results = [None] * n
    shares = pool.map(lambda w: [task(i) for i in range(w, n, workers)], range(workers))
    for w, share in enumerate(shares):
        results[w::workers] = share
    return results


def _line_end(data: bytes, start: int) -> int:
    """Index of the first line break (CR or LF) at or after `start`, or the
    input's length."""
    ends = [i for i in (data.find(b"\n", start), data.find(b"\r", start)) if i >= 0]
    return min(ends, default=len(data))


def _next_line(data: bytes, end: int) -> int:
    """Start of the line after the one ending at `end`; a CRLF is one break."""
    return end + 1 + (data[end : end + 2] == b"\r\n")


def _check_utf8(data: bytes) -> None:
    """Raise UnicodeDecodeError unless `data` is UTF-8: ASCII at once,
    anything else decoded a block at a time, and on failure as a whole, so
    that the error's position counts from the start."""
    if data.isascii():
        return
    decoder = codecs.getincrementaldecoder("utf-8")()
    try:
        for start in range(0, len(data), BLOCK_BYTES):
            decoder.decode(data[start : start + BLOCK_BYTES])
        decoder.decode(b"", final=True)
    except UnicodeDecodeError:
        data.decode("utf-8")
        raise


def _lines(buf) -> tuple:
    """(start, end) of every line of `buf`, blank ones included. A line ends
    at an LF, a lone CR or the CR of a CRLF, whose LF then ends no line of
    its own; `buf` never ends between the two."""
    # the bytes <= CR: every CR and LF, and any tab or other control byte
    low = np.flatnonzero(buf <= ord("\r"))
    byte = buf[low]
    is_cr = byte == ord("\r")
    # an LF right after a CR is a CRLF's second byte, and ends no line
    second = np.append(False, is_cr[:-1] & (byte[1:] == ord("\n")) & (np.diff(low) == 1))
    is_end = (is_cr | (byte == ord("\n"))) & ~second
    ends = low[is_end]
    crlf = np.append(second[1:], False)[is_end]  # the end is a CRLF's CR
    return np.concatenate(([0], ends + 1 + crlf)), np.append(ends, buf.size)


def _count_block(buf, size) -> tuple:
    """(rows, lines) of a block: its lines that are not blank, and all."""
    start, end = _lines(buf[:size])
    return int(np.count_nonzero(end > start)), len(start)


def _parse_block(buf, size, first_line, n_cols, last, timestamps, values) -> None:
    """Parse a block of `_blocks` into the first rows of `timestamps` and
    `values`. `first_line` is the index of the block's first line in the
    file and `last` the timestamp of the row before the block (NaT for
    none). Raises the block's first error.

    The rows are parsed in runs of about BLOCK_BYTES / _RUNS bytes, and each
    run's cells at once, row by row as `values` holds them."""
    # the little-endian uint64 of the eight bytes from each offset
    words = np.ndarray((len(buf) - 7,), "<u8", buf, strides=(1,))
    line_start, line_end = _lines(buf[:size])
    lines = np.flatnonzero(line_end > line_start)  # row number: first_line + index + 1
    start, end = line_start[lines], line_end[lines]
    run = max(1, BLOCK_BYTES // _RUNS)
    edges = np.append(np.searchsorted(start, np.arange(0, size, run)), len(lines))
    for lo, hi in zip(edges[:-1], edges[1:]):
        if lo == hi:  # no row starts in this run's bytes
            continue
        _parse_rows(buf, words, start[lo:hi], end[lo:hi], first_line + lines[lo:hi] + 1,
                    n_cols, last, timestamps[lo:], values[lo:])
        last = timestamps[hi - 1]


def _parse_rows(buf, words, start, end, row, n_cols, last, timestamps, values) -> None:
    """Parse the lines [start, end) of `buf`, numbered `row` in the file,
    into the first rows of `timestamps` and `values`; raise their first
    error. `last` is the timestamp before them (NaT for none)."""
    commas = np.flatnonzero(buf[start[0] : end[-1]] == ord(",")) + start[0]
    # a row's cells are its commas plus one; between rows lie no commas, so
    # those before a row's end are its own and the earlier rows'
    before = np.searchsorted(commas, end)
    fields = np.diff(before, prepend=0) + 1
    ragged = np.flatnonzero(fields != n_cols)
    # rows before the first ragged one are a rectangle; check those first,
    # since an earlier row's error is the one to report
    n = int(ragged[0]) if ragged.size else len(start)
    bounds = commas[: n * (n_cols - 1)].reshape(n, n_cols - 1)

    stamps = timestamps[:n]
    stamps[:] = _parse_timestamps(words, start[:n], bounds[:, 0] - start[:n])
    length = np.empty_like(bounds)
    np.subtract(bounds[:, 1:], bounds[:, :-1], out=length[:, :-1])
    np.subtract(end[:n], bounds[:, -1], out=length[:, -1])
    length -= 1
    # the cells start a byte after their commas: read from the next offset
    cells, problem = _parse_cells(words[1:], bounds.ravel(), length.ravel())
    values[:n] = cells.reshape(n, n_cols - 1)
    problem = problem.reshape(n, n_cols - 1)

    bad_timestamp = np.isnat(stamps)
    non_monotonic = np.empty(n, dtype=bool)
    non_monotonic[:1] = stamps[:1] <= last
    non_monotonic[1:] = stamps[1:] <= stamps[:-1]
    bad = bad_timestamp | non_monotonic
    if problem.any():
        bad |= problem.any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        if bad_timestamp[i]:
            raise _timestamp_error(int(row[i]), buf[start[i] : bounds[i, 0]])
        if non_monotonic[i]:
            raise DataError(f"non-monotonic timestamp at row {row[i]}")
        col = int(np.argmax(problem[i] > 0))
        kind = _CELL_PROBLEMS[problem[i, col]]
        raise DataError(f"{kind} reading at row {row[i]}, column {col + 1}")
    if ragged.size:
        raise DataError(
            f"inconsistent column count at row {row[n]}: "
            f"expected {n_cols}, got {int(fields[n])}"
        )


def _gather(words, start, length, width):
    """Byte k of every field as row k of a (width, fields) matrix, zero past
    each field's end. `words[i]` is the little-endian uint64 of the eight
    bytes from offset i, for every offset a field's bytes are read from."""
    offsets = np.arange(0, width, 8)  # of each field's words
    packed = words[start[:, None] + offsets]
    packed &= _LOW_BYTES[np.clip(length[:, None] - offsets, 0, 8)]
    return np.ascontiguousarray(packed.view(np.uint8).T[:width])


def _parse_timestamps(words, start, length):
    """datetime64[us] of each field; NaT where the field is not a timestamp
    of the accepted form or names a date or time that does not exist."""
    width = min(len(_TS_TEMPLATE), int(length.max(initial=0)))
    chars = _gather(words, start, length, width)
    # a byte fits where it is the template's, a digit where that has a '0'
    # and 'T' or ' ' at index 10; past a field's end any byte fits
    fits = chars == _TS_TEMPLATE[:width, None]
    if width > 10:
        fits[10] |= chars[10] == ord(" ")
    # each field's digits at the template's places, zero elsewhere
    digits = np.zeros((len(_TS_TEMPLATE), len(start)), dtype=np.uint8)
    d = np.subtract(chars, np.uint8(ord("0")), out=digits[:width])  # a digit is < 10
    digit = d < 10
    np.copyto(fits, digit, where=_TS_TEMPLATE[:width, None] == ord("0"))
    fits |= np.arange(width)[:, None] >= length
    ok = fits.all(axis=0) & _TS_LENGTH_OK[np.minimum(length, len(_TS_LENGTH_OK) - 1)]
    d *= digit
    # the two-digit number at each place; a field's numbers start at
    # places 0, 5, 8, 11, 14, 17 and 20
    pairs = digits[:-1] * np.uint8(10) + digits[1:]
    month, day, hour, minute, second = parts = pairs[[5, 8, 11, 14, 17]]
    ok &= ((parts >= _TS_LEAST) & (parts <= _TS_MOST)).all(axis=0)
    year = pairs[0].astype(np.int64) * 100 + pairs[2]
    ok &= year >= 1
    months = (year - 1970) * 12 + month - 1
    dates = _first_days(months) + (day.astype(np.int64) - 1)
    ok &= dates < _first_days(months + 1)  # else the day is past its month's end
    microsecond = (pairs[20].astype(np.int64) * 100 + pairs[22]) * 100 + pairs[24]
    micros = ((hour.astype(np.int64) * 60 + minute) * 60 + second) * 1_000_000 + microsecond
    timestamps = dates.astype("datetime64[us]") + micros
    timestamps[~ok] = np.datetime64("NaT")
    return timestamps


def _first_days(months):
    """datetime64[D] of the first day of each month, counted from 1970-01."""
    return months.astype("datetime64[M]").astype("datetime64[D]")


def _parse_cells(words, start, length):
    """(values, problem) per cell: float64 with NaN for a blank cell, and the
    cell's _CELL_PROBLEMS code (0 = none).

    A plain cell, made of 1 to 15 ASCII digits and at most one '.', is read
    by digit arithmetic: its digits as one integer m < 10**15 < 2**53, then
    m / 10**f for its f digits after the dot. m and 10**f are exact floats,
    so the one correctly rounded division gives the nearest float64 to the
    decimal, the bits that float() and numpy's string cast give (Clinger's
    fast path). An empty cell is NaN, and every other cell takes
    `_convert_cells`.
    """
    # a power of two of bytes, at most _MAX_CELL, so that they pair up below
    width = 1 << (min(int(length.max(initial=0)), _MAX_CELL) - 1).bit_length()
    # the cells' bytes, turned in place into their digits' values below;
    # each byte matrix is dropped once used, which bounds the temporaries
    d = _gather(words, start, length, width)
    dot = d == ord(".")
    n_dots = dot.sum(axis=0, dtype=np.uint8)
    # f: the bytes after the dot, the one nonzero of (length - 1 - index) * dot
    after = (length - 1).astype(np.uint8) - np.arange(width, dtype=np.uint8)[:, None]
    after *= dot
    frac = after.max(axis=0)
    del dot, after
    d -= np.uint8(ord("0"))  # wraps, so a digit is < 10
    digit = d < 10
    n_digits = digit.sum(axis=0, dtype=np.uint8)
    # bytes past a cell's end are zeros, so its digits and dots fill it
    # exactly when they number its length
    plain = (n_digits + n_dots == length) & (n_dots <= 1)
    plain &= (n_digits >= 1) & (n_digits < len(_POW10))
    # the digits as one integer: a run of bytes holds its digits' number and
    # 10**(its digits), a dot or padding byte holding 0 and 1, and adjacent
    # runs join as (left * right's power + right, the product of the powers).
    # Runs of 2**k bytes hold numbers below 10**(2**k), so up to a plain
    # cell's 16 bytes each level's integer type holds them exactly.
    d *= digit
    power = np.where(digit, np.uint8(10), np.uint8(1))
    del digit
    number = d
    for dtype in _JOIN_TYPES[: width.bit_length() - 1]:
        number = np.multiply(number[0::2], power[1::2], dtype=dtype) + number[1::2]
        power = np.multiply(power[0::2], power[1::2], dtype=dtype)
    values = number[0] / _POW10.take(frac, mode="clip")
    problem = np.zeros(len(start), dtype=np.int8)
    rest = np.flatnonzero(~plain)
    empty = length[rest] == 0
    values[rest[empty]] = np.nan
    rest = rest[~empty]
    if rest.size:
        chars = _gather(words, start[rest], length[rest], width)
        values[rest], problem[rest] = _convert_cells(chars, length[rest])
    return values, problem


def _convert_cells(chars, length):
    """(values, problem) as `_parse_cells` gives them, of the cells whose
    bytes are the columns of `chars` (zero past each cell's end), by numpy's
    string cast; a cell with an underscore is malformed. Cells the cast
    rejects together are cast a cell at a time, and each rejected cell is
    malformed."""
    width = len(chars)
    padding = width - np.minimum(length, width)
    nul = (chars == 0).sum(axis=0) > padding
    # the cast reads Python's digit-group underscores: 1_0 would be 10.0
    underscore = (chars == ord("_")).any(axis=0)
    problem = np.zeros(len(length), dtype=np.int8)
    problem[(length > width) | nul | underscore] = _MALFORMED
    blank = (np.isin(chars, _BLANKS) | (chars == 0)).all(axis=0)
    filled = np.flatnonzero(~blank & (problem == 0))
    cells = np.ascontiguousarray(chars[:, filled].T).view(f"S{width}").ravel()
    values = np.full(len(length), np.nan)
    try:
        values[filled] = cells.astype(np.float64)
    except ValueError:
        for k, i in enumerate(filled.tolist()):
            try:
                values[i] = cells[k : k + 1].astype(np.float64)[0]
            except ValueError:
                problem[i] = _MALFORMED
        filled = filled[problem[filled] == 0]
    checked = values[filled]
    finite = np.isfinite(checked)
    problem[filled[~finite]] = _NON_FINITE
    problem[filled[finite & (checked < 0)]] = _NEGATIVE
    return values, problem


def _timestamp_error(row: int, field) -> DataError:
    text = field.tobytes().decode("utf-8", "surrogatepass")
    # Python 3.10 reads "+00:00" but not a "Z" suffix
    iso = text[:-1] + "+00:00" if text.endswith("Z") else text
    try:
        offset = datetime.fromisoformat(iso).tzinfo is not None
    except ValueError:
        offset = False
    if offset:
        return DataError(
            f"timestamp with a UTC offset at row {row}: {text!r}; "
            "timestamps must be local times without an offset"
        )
    return DataError(f"malformed timestamp at row {row}: {text!r}")


# ---------------------------------------------------------------------------
# repair and aggregation


def interpolate_nulls(readings: Readings) -> Readings:
    """Replace nulls per meter column, in a new Readings.

    Interior nulls are linearly interpolated against minute distance between
    the nearest non-null neighbours; leading/trailing nulls copy the nearest
    non-null value. Non-null inputs are returned unchanged.

    `np.interp` is evaluated at the null cells only, with each run of nulls'
    two known neighbours as its knots: between the same two points it gives
    the same bits as over the whole column, and known cells are not touched.
    """
    values = readings.values
    nulls = np.flatnonzero(np.isnan(values))
    if not nulls.size:
        return readings
    rows, cols = np.divmod(nulls, values.shape[1])
    empty = np.bincount(cols, minlength=values.shape[1]) == len(values)
    if empty.any():
        raise DataError(f"meter column {int(np.argmax(empty)) + 1} is entirely null")
    stamps = readings.timestamps

    def minutes(i):  # minutes since the first row, of the rows `i`
        return (stamps[i] - stamps[0]) / np.timedelta64(1, "us") / 1e6 / 60.0

    repaired = values.copy()
    for j in np.unique(cols):
        null = rows[cols == j]  # increasing
        # a run of nulls starts after a gap in `null` and ends before one;
        # its knots are the rows before and after it, in order, and a row
        # between two runs is a knot of both
        gap = np.flatnonzero(np.diff(null) > 1)
        knots = np.column_stack((null[np.append(0, gap + 1)] - 1,
                                 null[np.append(gap, -1)] + 1)).ravel()
        knots = knots[np.append(True, np.diff(knots) > 0)]
        knots = knots[(knots >= 0) & (knots < len(values))]
        repaired[null, j] = np.interp(minutes(null), minutes(knots), values[knots, j])
    return Readings(stamps, repaired)


@np.errstate(over="ignore")  # an overflowed sum is inf, reported as too large
def aggregate(readings: Readings, granularity: Granularity) -> Readings:
    """Sum meters into a building total per minute, then average totals per
    (date, bucket) group: one row per bucket, holding its start and mean.
    Buckets with no readings are simply absent. A model fit squares sums of
    up to all the means, so the first bucket whose mean m gives
    (buckets * m)**2 = inf raises DataError.

    A row's bucket is its microseconds since 1970 floor-divided by the bucket
    width: buckets tile each day, since the width divides 1440 minutes."""
    # left to right from 0.0, as a running sum over each row
    totals = np.zeros(len(readings))
    for column in readings.values.T:
        totals += column
    # a null makes its row's total NaN; so may inf - inf, which is no null
    nan = np.flatnonzero(np.isnan(totals))
    nulls = nan[np.isnan(readings.values[nan]).any(axis=1)]
    if nulls.size:
        ts = readings.timestamps[nulls[0]].item()
        raise DataError(
            f"null reading at {ts.isoformat()}; run interpolate_nulls first"
        )

    micros = readings.timestamps.astype("datetime64[us]", copy=False).view(np.int64)
    key = micros // (granularity.minutes * 60_000_000)
    # timestamps increase, so each bucket is one contiguous run of rows
    change = np.ones(len(key), dtype=bool)
    change[1:] = key[1:] != key[:-1]
    first = np.flatnonzero(change)
    starts = (key[first] * granularity.minutes).astype("datetime64[m]")
    sizes = np.diff(np.append(first, len(totals)))
    # each mean reduces its own contiguous run, so it equals np.mean of that
    # run's totals bit for bit; runs of equal size are averaged together
    means = np.empty(len(first))
    for size in np.unique(sizes):
        same = sizes == size
        means[same] = totals[first[same][:, None] + np.arange(size)].mean(axis=1)
    big = ~np.isfinite((len(means) * means) ** 2)
    if big.any():
        i = int(np.argmax(big))
        raise DataError(f"the bucket starting {starts[i]} averages {means[i]:.6g} kW, "
                        f"too large to fit a model on {len(means)} buckets")
    return Readings(starts, means[:, None])
