"""Minute-level meter data: CSV parsing, null repair, and aggregation.

Input files hold one row per minute with a timestamp column followed by one
power column (kW) per meter. Empty cells are nulls and get repaired by linear
interpolation before aggregation.

The rows are held as columns (`Readings`): every stage works on whole arrays,
and validation looks at single rows only to describe a check that has already
failed.
"""
from __future__ import annotations

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
    """Minute-level records as columns.

    `timestamps` is a strictly increasing datetime64[us] array with one entry
    per row; `values` is a float64 (rows, meters) matrix of kW, NaN = null.
    """

    timestamps: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True)
class AggregatedRecord:
    """One bucket: start time, index within its day, and mean total power (kW)."""

    bucket_start: datetime
    bucket_index: int
    target: float


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
_MALFORMED, _NON_FINITE, _NEGATIVE = 1, 2, 3
_CELL_PROBLEMS = {
    _MALFORMED: "malformed", _NON_FINITE: "non-finite", _NEGATIVE: "negative"
}


def parse_readings(csv_text: str) -> Readings:
    """Parse a readings CSV into columns.

    Rows are separated by newlines (a CRLF or a lone CR counts as one), cells
    by commas, without quoting. Blank lines are skipped. A timestamp is
    YYYY-MM-DD, optionally followed by 'T' or a space and HH:MM, HH:MM:SS or
    HH:MM:SS.ffffff, in local time: a UTC offset is rejected. A cell that is
    empty or whitespace is a null. Row numbers in error messages count the
    header as row 1 and include blank lines.
    """
    if "\r" in csv_text:
        csv_text = csv_text.replace("\r\n", "\n").replace("\r", "\n")
    if not csv_text:
        raise DataError("empty input: missing header row")
    end = csv_text.find("\n")
    header = (csv_text if end < 0 else csv_text[:end]).split(",")
    if header[0].strip() != "timestamp":
        raise DataError("header must start with a 'timestamp' column")
    n_cols = len(header)
    if n_cols < 2:
        raise DataError("header declares no meter columns")

    buf = np.frombuffer(csv_text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    newlines = np.flatnonzero(buf == ord("\n"))
    line_start = np.concatenate(([0], newlines + 1))
    line_end = np.concatenate((newlines, [buf.size]))
    data_lines = np.flatnonzero(line_end > line_start)
    lines = data_lines[data_lines > 0]  # line index; its row number is index + 1
    start, end = line_start[lines], line_end[lines]

    commas = np.flatnonzero(buf == ord(","))
    commas = commas[np.searchsorted(commas, line_end[0]) :]
    fields = np.searchsorted(commas, end) - np.searchsorted(commas, start) + 1
    ragged = np.flatnonzero(fields != n_cols)
    # rows before the first ragged one are a rectangle; check those first,
    # since an earlier row's error is the one to report
    n = int(ragged[0]) if ragged.size else len(lines)
    bounds = commas[: n * (n_cols - 1)].reshape(n, n_cols - 1)
    start, end = start[:n], end[:n]

    timestamps = _parse_timestamps(buf, start, bounds[:, 0] - start)
    values = np.empty((n, n_cols - 1))
    problem = np.empty((n, n_cols - 1), dtype=np.int8)
    for j in range(n_cols - 1):
        cell_start = bounds[:, j] + 1
        cell_end = bounds[:, j + 1] if j + 2 < n_cols else end
        values[:, j], problem[:, j] = _parse_cells(
            buf, cell_start, cell_end - cell_start
        )

    bad_timestamp = np.isnat(timestamps)
    non_monotonic = np.zeros(n, dtype=bool)
    non_monotonic[1:] = timestamps[1:] <= timestamps[:-1]
    bad = bad_timestamp | non_monotonic | problem.any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        row = int(lines[i]) + 1
        if bad_timestamp[i]:
            raise _timestamp_error(row, buf[start[i] : bounds[i, 0]])
        if non_monotonic[i]:
            raise DataError(f"non-monotonic timestamp at row {row}")
        col = int(np.argmax(problem[i] > 0))
        kind = _CELL_PROBLEMS[problem[i, col]]
        raise DataError(f"{kind} reading at row {row}, column {col + 1}")
    if ragged.size:
        raise DataError(
            f"inconsistent column count at row {int(lines[n]) + 1}: "
            f"expected {n_cols}, got {int(fields[n])}"
        )
    return Readings(timestamps, values)


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
    cell, and the cell's _CELL_PROBLEMS code (0 = none). Cells after the
    first one the float conversion rejects are left NaN and unchecked."""
    width = max(1, min(int(length.max(initial=0)), _MAX_CELL))
    chars = _gather(buf, start, length, width)
    padding = width - np.minimum(length, width)
    nul = (chars == 0).sum(axis=0) > padding
    problem = np.zeros(len(start), dtype=np.int8)
    problem[(length > width) | nul] = _MALFORMED
    blank = (np.isin(chars, _BLANKS) | (chars == 0)).all(axis=0)
    filled = np.flatnonzero(~blank & (problem == 0))
    cells = np.ascontiguousarray(chars[:, filled].T).view(f"S{width}").ravel()
    values = np.full(len(start), np.nan)
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


def aggregate(readings: Readings, granularity: Granularity) -> list:
    """Sum meters into a building total per minute, then average totals per
    (date, bucket) group. Buckets with no readings are simply absent."""
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
    return [
        AggregatedRecord(start, bucket, target)
        for start, bucket, target in zip(
            starts[first].tolist(), index[first].tolist(), means.tolist()
        )
    ]
