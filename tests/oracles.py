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


def per_node_best_split(X, y, feature_ids=None):
    """Per-node split search: argsort each feature of the node's own rows and
    scan the cut points in a Python loop. Returns (feature_id, threshold,
    gain, relative_gain) or None; `tree.best_split` must agree bit for bit."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n < 2:
        return None
    if feature_ids is None:
        feature_ids = range(X.shape[1])

    sy = float(y.sum())
    sy2 = float((y * y).sum())
    sse_parent = max(sy2 - sy * sy / n, 0.0)
    var_parent = sse_parent / n
    if var_parent <= 0.0:
        return None

    best = None
    for f in sorted(feature_ids):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        ys = y[order]
        cy = np.cumsum(ys)
        cy2 = np.cumsum(ys * ys)
        cut_positions = np.nonzero(xs[1:] > xs[:-1])[0] + 1
        for i in cut_positions:
            n_l = int(i)
            n_r = n - n_l
            sse_l = max(cy2[i - 1] - cy[i - 1] * cy[i - 1] / n_l, 0.0)
            sse_r = max(
                (cy2[-1] - cy2[i - 1])
                - (cy[-1] - cy[i - 1]) * (cy[-1] - cy[i - 1]) / n_r,
                0.0,
            )
            gain = (sse_parent - sse_l - sse_r) / n
            if gain <= 0.0:
                continue
            if best is None or gain > best[2]:
                threshold = (xs[i - 1] + xs[i]) / 2
                best = (int(f), float(threshold), float(gain), float(gain / var_parent))
    return best


def per_node_tree(X, y, max_depth, min_gain, min_samples_split,
                  feature_sampler=None):
    """The tree the per-node grower builds, as the nested dict of
    `tree_to_dict`: breadth-first from a queue, each child handed the masked
    copy of its parent's rows. A node's id is its place in the queue, so the
    i-th split node's children are 2i + 1 and 2i + 2; `feature_sampler(id)`,
    when given, returns the features that node may split on."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    root = {}
    queue = [(root, X, y, 0)]
    for node_id, (node, Xs, ys, depth) in enumerate(queue):
        n = len(ys)
        node.update(kind="leaf", value=float(np.mean(ys)), n_samples=n)
        if depth >= max_depth or n < min_samples_split:
            continue
        fids = feature_sampler(node_id) if feature_sampler is not None else None
        cand = per_node_best_split(Xs, ys, fids)
        if cand is None:
            continue
        feature_id, threshold, _, relative_gain = cand
        if relative_gain < min_gain:
            continue
        mask = Xs[:, feature_id] <= threshold
        left, right = {}, {}
        node.clear()
        node.update(kind="split", feature_id=feature_id, threshold=threshold,
                    left=left, right=right)
        queue.append((left, Xs[mask], ys[mask], depth + 1))
        queue.append((right, Xs[~mask], ys[~mask], depth + 1))

    return {"n_features": X.shape[1], "root": root}


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
    for the first offending row (the header is row 1; blank lines count), or
    when no data row follows the header."""
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
                if "_" in cell:  # float() reads digit-group underscores
                    raise ValueError(cell)
                v = float(cell)
            except ValueError:
                raise ValueError(f"malformed reading at row {row_no}, column {col}")
            if not math.isfinite(v):
                raise ValueError(f"non-finite reading at row {row_no}, column {col}")
            if v < 0:
                raise ValueError(f"negative reading at row {row_no}, column {col}")
            values.append(v)
        rows.append((ts, tuple(values)))
    if not rows:
        raise ValueError("no data rows after the header")
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
    """(bucket start, mean total) per (date, bucket index) group,
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
            float(np.mean(totals)),
        )
        for (day, index), totals in sorted(groups.items())
    ]


# ---------------------------------------------------------------------------
# train/test split, one sample at a time

_SEASON_OF_MONTH = {
    12: "winter", 1: "winter", 2: "winter",
    3: "spring", 4: "spring", 5: "spring",
    6: "summer", 7: "summer", 8: "summer",
    9: "autumn", 10: "autumn", 11: "autumn",
}


def season_of(ts):
    return _SEASON_OF_MONTH[ts.month]


def split_group(ts, strategy):
    """The split group of a datetime: (year, month) for "monthly", (year,
    season) for "seasonal", where December joins the next year's winter,
    and one group otherwise."""
    if strategy == "monthly":
        return (ts.year, ts.month)
    if strategy == "seasonal":
        year = ts.year + 1 if ts.month == 12 else ts.year
        return (year, season_of(ts))
    return 0


def split_rows(stamps, strategy, train_fraction, season=None):
    """(train, test) index lists over chronological datetimes: the selection
    (one season, or all) is grouped by `split_group`; each group's first
    ceil(fraction * size) samples train."""

    def key(ts):
        return split_group(ts, strategy)

    if strategy == "single_season":
        selected = [i for i, ts in enumerate(stamps) if season_of(ts) == season]
    else:
        selected = list(range(len(stamps)))
    counts = {}
    for i in selected:
        counts[key(stamps[i])] = counts.get(key(stamps[i]), 0) + 1
    take = {k: math.ceil(train_fraction * n) for k, n in counts.items()}

    train, test = [], []
    seen = {}
    for i in selected:
        k = key(stamps[i])
        rank = seen.get(k, 0)
        seen[k] = rank + 1
        (train if rank < take[k] else test).append(i)
    return train, test


def validation_rows(stamps, strategy, train_fraction, fraction, season=None):
    """(core, validation) index lists: of the n training rows of each group
    of `split_rows`, the last min(max(1, int(fraction * n)), n - 1) are for
    validation and the others for fitting."""
    train, _ = split_rows(stamps, strategy, train_fraction, season)
    groups = {}
    for i in train:
        groups.setdefault(split_group(stamps[i], strategy), []).append(i)
    core, validation = [], []
    for rows in groups.values():
        n_val = min(max(1, int(fraction * len(rows))), len(rows) - 1)
        core += rows[: len(rows) - n_val]
        validation += rows[len(rows) - n_val :]
    return sorted(core), sorted(validation)


# ---------------------------------------------------------------------------
# synthetic CSV, one csv.writer row at a time


def row_by_row_synthetic(spec, out_path):
    """The CSV the row-by-row writer wrote for `spec`: the same per-day
    draws (noise, then nulls when `null_rate > 0`), each cell formatted
    with `f"{v:.3f}"` and each minute written as one `csv.writer` row.
    `synthetic.generate_synthetic` must write the same bytes."""
    rng = np.random.default_rng(spec.seed)
    minutes = np.arange(1440)
    daily_wave = spec.daily_amplitude * np.sin(2 * np.pi * minutes / 1440.0)
    time_strings = [f"{m // 60:02d}:{m % 60:02d}" for m in minutes]

    with out_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp"] + [f"meter_{j + 1}" for j in range(spec.meters)])
        for d in range(spec.days):
            day = spec.start + timedelta(days=d)
            doy = day.timetuple().tm_yday
            seasonal = spec.seasonal_amplitude * np.sin(2 * np.pi * doy / 365.0)
            weekly = -spec.weekly_amplitude if day.weekday() >= 5 else spec.weekly_amplitude
            level = spec.base_kw + seasonal + weekly + daily_wave
            values = level[:, None] + rng.normal(0.0, spec.noise_std, (1440, spec.meters))
            np.clip(values, 0.0, None, out=values)
            nulls = (
                rng.random((1440, spec.meters)) < spec.null_rate
                if spec.null_rate > 0
                else None
            )
            day_str = day.isoformat()
            for m in range(1440):
                row = [f"{day_str}T{time_strings[m]}"]
                for j in range(spec.meters):
                    if nulls is not None and nulls[m, j]:
                        row.append("")
                    else:
                        row.append(f"{values[m, j]:.3f}")
                writer.writerow(row)
    return out_path
