"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written from first principles (plain Python
loops, hand-coded calendar arithmetic) rather than reusing library code, so
the checks are a genuinely separate route to the same answers.
"""
import csv
import io
import math
from datetime import datetime, timedelta

import numpy as np


# ---------------------------------------------------------------------------
# exhaustive split search


def brute_force_best_split(X, y):
    """Try every feature and every midpoint between consecutive distinct
    values; return (feature_id, threshold, gain) or None."""
    n = len(y)
    if n < 2:
        return None

    def sse(vals):
        s = 0.0
        s2 = 0.0
        for v in vals:
            s += v
            s2 += v * v
        return s2 - s * s / len(vals)

    parent = sse([y[i] for i in range(n)])
    if parent / n <= 0.0:
        return None

    best = None
    n_features = len(X[0])
    for f in range(n_features):
        distinct = sorted(set(float(X[i][f]) for i in range(n)))
        for a, b in zip(distinct, distinct[1:]):
            thr = (a + b) / 2
            left = [y[i] for i in range(n) if X[i][f] <= thr]
            right = [y[i] for i in range(n) if X[i][f] > thr]
            gain = (parent - sse(left) - sse(right)) / n
            if gain > 0.0 and (best is None or gain > best[2]):
                best = (f, thr, gain)
    return best


# ---------------------------------------------------------------------------
# spreadsheet-style error metrics


def spreadsheet_metrics(actual, predicted):
    """Returns (rmse, mae, mad, mape_or_None) via plain loops."""
    n = len(actual)
    errors = [predicted[i] - actual[i] for i in range(n)]
    rmse = math.sqrt(sum(e * e for e in errors) / n)
    mae = sum(abs(e) for e in errors) / n
    mean_error = sum(errors) / n
    mad = sum(abs(e - mean_error) for e in errors) / n
    ratios = [
        abs(errors[i]) / abs(actual[i]) for i in range(n) if actual[i] != 0.0
    ]
    mape = 100.0 * sum(ratios) / len(ratios) if ratios else None
    return rmse, mae, mad, mape


# ---------------------------------------------------------------------------
# calendar arithmetic from first principles


def is_leap_year(year):
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


_MONTH_DAYS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def days_in_month(year, month):
    if month == 2 and is_leap_year(year):
        return 29
    return _MONTH_DAYS[month - 1]


def day_of_year(year, month, day):
    total = day
    for m in range(1, month):
        total += days_in_month(year, m)
    return total


def days_from_civil(year, month, day):
    """Days since 1970-01-01 (Hinnant's civil-from-days inverse)."""
    y = year - (month <= 2)
    era = (y if y >= 0 else y - 399) // 400
    yoe = y - era * 400
    doy = (153 * (month + (-3 if month > 2 else 9)) + 2) // 5 + day - 1
    doe = yoe * 365 + yoe // 4 - yoe // 100 + doy
    return era * 146097 + doe - 719468


def weekday_monday0(year, month, day):
    # 1970-01-01 was a Thursday (Monday=0 index 3)
    return (days_from_civil(year, month, day) + 3) % 7


def _iso_weeks_in_year(year):
    def dec31_dow(y):
        return (y + y // 4 - y // 100 + y // 400) % 7

    return 53 if dec31_dow(year) == 4 or dec31_dow(year - 1) == 3 else 52


def iso_week(year, month, day):
    iso_dow = weekday_monday0(year, month, day) + 1  # 1 = Monday
    week = (day_of_year(year, month, day) - iso_dow + 10) // 7
    if week < 1:
        return _iso_weeks_in_year(year - 1)
    if week > _iso_weeks_in_year(year):
        return 1
    return week


# ---------------------------------------------------------------------------
# minute readings, one Python object per row


def parse_rows(text):
    """Parse a readings CSV row by row: a list of (datetime, values) with None
    for a null cell. Raises ValueError with the library's DataError message
    for the first offending row (the header is row 1; blank lines count)."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty input: missing header row")
    if not header or header[0].strip() != "timestamp":
        raise ValueError("header must start with a 'timestamp' column")
    n_cols = len(header)
    if n_cols < 2:
        raise ValueError("header declares no meter columns")

    rows = []
    prev_ts = None
    for row_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != n_cols:
            raise ValueError(
                f"inconsistent column count at row {row_no}: "
                f"expected {n_cols}, got {len(row)}"
            )
        try:
            ts = datetime.fromisoformat(row[0])
        except ValueError:
            raise ValueError(f"malformed timestamp at row {row_no}: {row[0]!r}")
        if prev_ts is not None and ts <= prev_ts:
            raise ValueError(f"non-monotonic timestamp at row {row_no}")
        prev_ts = ts
        values = []
        for col, cell in enumerate(row[1:], start=1):
            cell = cell.strip()
            if cell == "":
                values.append(None)
                continue
            try:
                v = float(cell)
            except ValueError:
                raise ValueError(f"malformed reading at row {row_no}, column {col}")
            if not math.isfinite(v):
                raise ValueError(f"non-finite reading at row {row_no}, column {col}")
            if v < 0:
                raise ValueError(f"negative reading at row {row_no}, column {col}")
            values.append(v)
        rows.append((ts, tuple(values)))
    return rows


def interpolate_rows(rows):
    """Fill nulls per column by np.interp over minutes since the first row,
    touching only the null slots."""
    if not rows:
        return []
    t0 = rows[0][0]
    t = np.array([(ts - t0).total_seconds() / 60.0 for ts, _ in rows], dtype=float)
    columns = []
    for j in range(len(rows[0][1])):
        col = np.array(
            [np.nan if values[j] is None else values[j] for _, values in rows],
            dtype=float,
        )
        known = ~np.isnan(col)
        if not known.all():
            col = np.where(known, col, np.interp(t, t[known], col[known]))
        columns.append(col)
    stacked = np.stack(columns, axis=1)
    return [(ts, tuple(stacked[i].tolist())) for i, (ts, _) in enumerate(rows)]


def bucket_means(rows, minutes):
    """(bucket start, bucket index, mean total) per (date, bucket) group,
    where a row's total sums its meters left to right from 0.0 and the mean
    is np.mean over the group's totals."""
    groups = {}
    for ts, values in rows:
        total = 0.0
        for v in values:
            total += v
        index = (ts.hour * 60 + ts.minute) // minutes
        groups.setdefault((ts.date(), index), []).append(total)
    return [
        (
            datetime(day.year, day.month, day.day) + timedelta(minutes=index * minutes),
            index,
            float(np.mean(totals)),
        )
        for (day, index), totals in sorted(groups.items())
    ]
