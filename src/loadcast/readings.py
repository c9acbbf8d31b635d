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


def bucket_index_of(timestamps, granularity: Granularity):
    """floor(minutes elapsed in the day / bucket width), elementwise over a
    datetime64 array (a single datetime gives a 0-d array)."""
    minutes = np.asarray(timestamps, dtype="datetime64[m]")
    minute_of_day = (minutes - minutes.astype("datetime64[D]")).astype(np.int64)
    return minute_of_day // granularity.minutes


# ---------------------------------------------------------------------------
# parsing

# accepted timestamps: a prefix of this template ('0' = any digit, 'T' = 'T'
# or ' ') with one of the lengths below, i.e. YYYY-MM-DD, optionally followed
# by HH:MM, HH:MM:SS or HH:MM:SS.f to HH:MM:SS.ffffff; no UTC offset
_TS_TEMPLATE = np.frombuffer(b"0000-00-00T00:00:00.000000", dtype=np.uint8)
_TS_LENGTHS = (10, 16, 19, 21, 22, 23, 24, 25, 26)
_MONTH_DAYS = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
# longest reading cell read; a longer one is malformed. This bounds the
# (cells x width) byte matrix the cells are converted from.
_MAX_CELL = 64
_BLANKS = np.frombuffer(b" \t\v\f", dtype=np.uint8)
# 10**k for the 0 to 15 digits after the dot of a plain reading cell (see
# _parse_cells); each is an exact float
_POW10 = np.array([float(10**k) for k in range(16)])
_MALFORMED, _NON_FINITE, _NEGATIVE = 1, 2, 3
_CELL_PROBLEMS = {
    _MALFORMED: "malformed", _NON_FINITE: "non-finite", _NEGATIVE: "negative"
}
# input bytes parsed at a time, cut back to the last whole line: bounds the
# per-line positions and per-cell byte matrices held next to the output
BLOCK_BYTES = 1 << 20


def parse_readings(data: bytes | str) -> Readings:
    """Parse a readings CSV, given as its UTF-8 bytes, into columns.

    Rows are separated by newlines (a CRLF or a lone CR counts as one), cells
    by commas, without quoting. Blank lines are skipped. A timestamp is
    YYYY-MM-DD, optionally followed by 'T' or a space and HH:MM, HH:MM:SS or
    HH:MM:SS.ffffff, in local time: a UTC offset is rejected. A cell that is
    empty or whitespace is a null. A file without data rows is rejected. Row
    numbers in error messages count the header as row 1 and include blank
    lines.

    A str is encoded once. Bytes that are not UTF-8 raise UnicodeDecodeError,
    positioned as decoding the whole input would position it. The data rows
    are parsed in blocks of whole lines of about BLOCK_BYTES each, into
    arrays sized once from the line count. Each block is read in place, as a
    view of the input, so beside the input and the result only one block's
    temporaries are held. The first error in file order is the one raised.
    """
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    else:
        _check_utf8(data)
    if not data:
        raise DataError("empty input: missing header row")
    header_end = _line_end(data, 0)
    header = data[:header_end].decode("utf-8", "surrogatepass").split(",")
    if header[0].strip() != "timestamp":
        raise DataError("header must start with a 'timestamp' column")
    n_cols = len(header)
    if n_cols < 2:
        raise DataError("header declares no meter columns")

    # one row at most per line after the header, the final empty one aside
    crs = data.count(b"\r")
    crlfs = data.count(b"\r\n") if crs else 0
    breaks = data.count(b"\n") + crs - crlfs
    most = breaks - data.endswith((b"\n", b"\r"))
    timestamps = np.empty(most, dtype="datetime64[us]")
    values = np.empty((most, n_cols - 1))
    n = 0
    line = 1  # index of the block's first line; the header is line 0
    pos = _next_line(data, header_end)
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
        block = np.frombuffer(data, np.uint8, cut - pos, pos)
        last = timestamps[n - 1] if n else np.datetime64("NaT")
        rows, lines = _parse_block(block, line, n_cols, last, timestamps[n:], values[n:])
        n += rows
        line += lines
        pos = _next_line(data, cut)
    if not n:
        raise DataError("no data rows after the header")
    return Readings(timestamps[:n], values[:n])


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


def _parse_block(buf, first_line, n_cols, last, timestamps, values) -> tuple:
    """Parse `buf`, whole lines without the last one's line break, into the
    first rows of `timestamps` and `values`; return the numbers of rows and
    of lines, blank ones included. A line ends at an LF, a lone CR or the CR
    of a CRLF, whose LF then ends no line of its own; `buf` never ends
    between the two. `first_line` is the index of the block's first line in
    the file and `last` the timestamp of the row before the block (NaT for
    none). Raises the block's first error."""
    # the bytes <= CR: every CR and LF, and any tab or other control byte
    low = np.flatnonzero(buf <= ord("\r"))
    byte = buf[low]
    is_cr = byte == ord("\r")
    # an LF right after a CR is a CRLF's second byte, and ends no line
    second = np.append(False, is_cr[:-1] & (byte[1:] == ord("\n")) & (np.diff(low) == 1))
    is_end = (is_cr | (byte == ord("\n"))) & ~second
    ends = low[is_end]
    crlf = np.append(second[1:], False)[is_end]  # the end is a CRLF's CR
    line_start = np.concatenate(([0], ends + 1 + crlf))
    line_end = np.concatenate((ends, [buf.size]))
    lines = np.flatnonzero(line_end > line_start)  # row number: first_line + index + 1
    start, end = line_start[lines], line_end[lines]

    commas = np.flatnonzero(buf == ord(","))
    fields = np.searchsorted(commas, end) - np.searchsorted(commas, start) + 1
    ragged = np.flatnonzero(fields != n_cols)
    # rows before the first ragged one are a rectangle; check those first,
    # since an earlier row's error is the one to report
    n = int(ragged[0]) if ragged.size else len(lines)
    bounds = commas[: n * (n_cols - 1)].reshape(n, n_cols - 1)
    start, end = start[:n], end[:n]

    stamps = timestamps[:n]
    stamps[:] = _parse_timestamps(buf, start, bounds[:, 0] - start)
    problem = np.empty((n, n_cols - 1), dtype=np.int8)
    for j in range(n_cols - 1):
        cell_start = bounds[:, j] + 1
        cell_end = bounds[:, j + 1] if j + 2 < n_cols else end
        values[:n, j], problem[:, j] = _parse_cells(
            buf, cell_start, cell_end - cell_start
        )

    bad_timestamp = np.isnat(stamps)
    non_monotonic = np.empty(n, dtype=bool)
    non_monotonic[:1] = stamps[:1] <= last
    non_monotonic[1:] = stamps[1:] <= stamps[:-1]
    bad = bad_timestamp | non_monotonic | problem.any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        row = first_line + int(lines[i]) + 1
        if bad_timestamp[i]:
            raise _timestamp_error(row, buf[start[i] : bounds[i, 0]])
        if non_monotonic[i]:
            raise DataError(f"non-monotonic timestamp at row {row}")
        col = int(np.argmax(problem[i] > 0))
        kind = _CELL_PROBLEMS[problem[i, col]]
        raise DataError(f"{kind} reading at row {row}, column {col + 1}")
    if ragged.size:
        raise DataError(
            f"inconsistent column count at row {first_line + int(lines[n]) + 1}: "
            f"expected {n_cols}, got {int(fields[n])}"
        )
    return n, len(line_start)


def _gather(buf, start, length, width):
    """Byte k of every field as row k of a (width, fields) matrix, zero past
    each field's end."""
    chars = np.empty((width, len(start)), dtype=np.uint8)
    for k in range(width):
        np.take(buf, start + k, mode="clip", out=chars[k])
        chars[k] *= length > k
    return chars


def _parse_timestamps(buf, start, length):
    """datetime64[us] of each field; NaT where the field is not a timestamp
    of the accepted form or names a date or time that does not exist."""
    width = min(len(_TS_TEMPLATE), int(length.max(initial=0)))
    template = _TS_TEMPLATE[:width, None]
    chars = _gather(buf, start, length, width)
    digit = (chars >= ord("0")) & (chars <= ord("9"))
    fits = np.where(template == ord("0"), digit, chars == template)
    if width > 10:
        fits[10] |= chars[10] == ord(" ")
    inside = np.arange(width)[:, None] < length
    ok = np.isin(length, _TS_LENGTHS) & (fits | ~inside).all(axis=0)
    digits = np.where(digit, chars - ord("0"), 0)

    def number(first, stop):
        value = np.zeros(len(start), dtype=np.int64)
        for k in range(first, stop):
            value = value * 10 + (digits[k] if k < width else 0)
        return value

    year, month, day = number(0, 4), number(5, 7), number(8, 10)
    hour, minute, second = number(11, 13), number(14, 16), number(17, 19)
    microsecond = number(20, 26)
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.clip(month, 1, 12) - 1] + (leap & (month == 2))
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
    ok &= (day <= month_days) & (hour < 24) & (minute < 60) & (second < 60)

    months = ((year - 1970) * 12 + month - 1).astype("datetime64[M]")
    dates = months.astype("datetime64[D]") + (day - 1)
    micros = ((hour * 60 + minute) * 60 + second) * 1_000_000 + microsecond
    timestamps = dates.astype("datetime64[us]") + micros
    timestamps[~ok] = np.datetime64("NaT")
    return timestamps


def _parse_cells(buf, start, length):
    """(values, problem) per cell of one column: float64 with NaN for a blank
    cell, and the cell's _CELL_PROBLEMS code (0 = none).

    A plain cell, made of 1 to 15 ASCII digits and at most one '.', is read
    by digit arithmetic: its digits as one integer m < 10**15 < 2**53, then
    m / 10**f for its f digits after the dot. m and 10**f are exact floats,
    so the one correctly rounded division gives the nearest float64 to the
    decimal, the bits that float() and numpy's string cast give (Clinger's
    fast path). Every other cell takes `_convert_cells`.
    """
    width = max(1, min(int(length.max(initial=0)), _MAX_CELL))
    chars = _gather(buf, start, length, width)
    d = chars - np.uint8(ord("0"))  # wraps, so a digit is d < 10
    digit = d < 10
    dot = chars == ord(".")
    n_digits = digit.sum(axis=0, dtype=np.uint8)
    n_dots = dot.sum(axis=0, dtype=np.uint8)
    # bytes past a cell's end are zeros, so its digits and dots fill it
    # exactly when they number its length
    plain = (n_digits + n_dots == length) & (n_dots <= 1)
    plain &= (n_digits >= 1) & (n_digits < len(_POW10))
    # Horner's rule over the bytes, where a dot or padding byte multiplies
    # by 1 and adds 0; the partial sums of a plain cell stay exact integers
    scale = digit.view(np.uint8) * np.uint8(9) + np.uint8(1)
    d *= digit
    mantissa = np.zeros(len(start))
    for k in range(width):
        mantissa *= scale[k]
        mantissa += d[k]
    # one past the dot's index, 0 without a dot; f = the bytes after it
    dot_end = (dot * np.arange(1, width + 1, dtype=np.uint8)[:, None]).max(axis=0)
    frac = np.where(dot_end > 0, length - dot_end, 0)
    values = mantissa / _POW10.take(frac, mode="clip")
    problem = np.zeros(len(start), dtype=np.int8)
    rest = np.flatnonzero(~plain)
    values[rest], problem[rest] = _convert_cells(chars[:, rest], length[rest])
    return values, problem


def _convert_cells(chars, length):
    """(values, problem) as `_parse_cells` gives them, of the cells whose
    bytes are the columns of `chars` (zero past each cell's end), by numpy's
    string cast; a cell with an underscore is malformed. Cells after the
    first one the cast rejects are left NaN and unchecked."""
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
        k = _first_unconvertible(cells)
        problem[filled[k]] = _MALFORMED
        filled = filled[:k]
        values[filled] = cells[:k].astype(np.float64)
    checked = values[filled]
    finite = np.isfinite(checked)
    problem[filled[~finite]] = _NON_FINITE
    problem[filled[finite & (checked < 0)]] = _NEGATIVE
    return values, problem


def _first_unconvertible(cells) -> int:
    """Index of the first cell the float conversion rejects, given that it
    rejects the whole array: a bisection over prefixes."""
    good, bad = 0, len(cells)  # cells[:good] convert, cells[:bad] do not
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            cells[:mid].astype(np.float64)
            good = mid
        except ValueError:
            bad = mid
    return good


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
    """Replace nulls per meter column.

    Interior nulls are linearly interpolated against minute distance between
    the nearest non-null neighbours; leading/trailing nulls copy the nearest
    non-null value. Non-null inputs are returned unchanged.
    """
    known = ~np.isnan(readings.values)
    if known.all():
        return readings
    empty = ~known.any(axis=0)
    if empty.any():
        raise DataError(f"meter column {int(np.argmax(empty)) + 1} is entirely null")
    elapsed = (readings.timestamps - readings.timestamps[0]) / np.timedelta64(1, "us")
    minutes = elapsed / 1e6 / 60.0
    values = readings.values.copy()
    for j in np.flatnonzero(~known.all(axis=0)):
        column, k = values[:, j], known[:, j]
        # only the null slots change, so existing values stay bit-identical
        column[~k] = np.interp(minutes[~k], minutes[k], column[k])
    return Readings(readings.timestamps, values)


@np.errstate(over="ignore")  # an overflowed sum is inf, reported as too large
def aggregate(readings: Readings, granularity: Granularity) -> Readings:
    """Sum meters into a building total per minute, then average totals per
    (date, bucket) group: one row per bucket, holding its start and mean.
    Buckets with no readings are simply absent. A model fit squares sums of
    up to all the means, so the first bucket whose mean m gives
    (buckets * m)**2 = inf raises DataError."""
    nulls = np.isnan(readings.values).any(axis=1)
    if nulls.any():
        ts = readings.timestamps[np.argmax(nulls)].item()
        raise DataError(
            f"null reading at {ts.isoformat()}; run interpolate_nulls first"
        )
    # left to right from 0.0, as a running sum over each row
    totals = np.zeros(len(readings))
    for column in readings.values.T:
        totals += column

    index = bucket_index_of(readings.timestamps, granularity)
    width = np.timedelta64(granularity.minutes, "m")
    starts = readings.timestamps.astype("datetime64[D]") + index * width
    # timestamps increase, so each bucket is one contiguous run of rows
    change = np.ones(len(starts), dtype=bool)
    change[1:] = starts[1:] != starts[:-1]
    first = np.flatnonzero(change)
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
        raise DataError(f"the bucket starting {starts[first[i]]} averages {means[i]:.6g} kW, "
                        f"too large to fit a model on {len(means)} buckets")
    return Readings(starts[first], means[:, None])
