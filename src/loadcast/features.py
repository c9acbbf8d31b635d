"""Calendar feature extraction from aggregated buckets.

Features: year, month, ISO week of year, day of year, day of month, day of
week (Monday=0), hour, half-hour slot, meteorological season, weekend flag,
plus optional lagged consumption values.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DataError
from .readings import Granularity, Readings

SEASONS = ("winter", "spring", "summer", "autumn")

BASE_FEATURES = (
    "year",
    "month",
    "week_of_year",
    "day_of_year",
    "day_of_month",
    "day_of_week",
    "hour",
    "half_hour",
    "season",
    "is_weekend",
)


def season_runs(months):
    """The season run of each month: runs are the three months from each
    December, so a December joins the next winter. `months` counts from a
    January (1970-01 in datetime64[M]); SEASONS[run % 4] is a run's season."""
    return (months + 1) // 3


@dataclass(frozen=True, eq=False)
class Samples:
    """Featurized buckets as columns.

    `timestamps` holds the bucket starts (increasing datetime64[m]), `X` the
    float64 feature matrix (one row per bucket: the BASE_FEATURES, then one
    `lag_<k>` column per lag offset k) and `y` the targets (mean kW of each
    bucket).
    """

    timestamps: np.ndarray
    X: np.ndarray
    y: np.ndarray

    def __len__(self) -> int:
        return len(self.y)


def default_lag_offsets(granularity: Granularity) -> tuple:
    """One day, two days and one week back: a day-ahead forecast."""
    bpd = granularity.buckets_per_day
    return (bpd, 2 * bpd, 7 * bpd)


def calendar_features(timestamps) -> np.ndarray:
    """The BASE_FEATURES of each timestamp as a float64 (n, 10) matrix;
    season is its index in SEASONS and is_weekend is 0 or 1."""
    minutes = np.asarray(timestamps, dtype="datetime64[m]")
    days = minutes.astype("datetime64[D]")
    months = days.astype("datetime64[M]")
    years = days.astype("datetime64[Y]")
    month = months.astype(np.int64) % 12 + 1
    day_of_week = (days.astype(np.int64) + 3) % 7  # 1970-01-01 was a Thursday
    minute_of_day = (minutes - days).astype(np.int64)
    # the ISO week is the week of the year that holds the same week's Thursday
    thursdays = days + (3 - day_of_week)
    iso_week = (thursdays - thursdays.astype("datetime64[Y]")).astype(np.int64) // 7 + 1
    columns = (
        years.astype(np.int64) + 1970,
        month,
        iso_week,
        (days - years).astype(np.int64) + 1,
        (days - months).astype(np.int64) + 1,
        day_of_week,
        minute_of_day // 60,
        minute_of_day // 30,
        season_runs(month - 1) % 4,
        day_of_week >= 5,
    )
    return np.column_stack(columns).astype(float)


def build_samples(
    buckets: Readings,
    lag_offsets: Optional[Sequence[int]] = None,
    granularity: Optional[Granularity] = None,
) -> Samples:
    """Featurize the one-column bucket series of `aggregate`.

    Lag k of bucket i is the target of bucket max(i - k, 0): offsets reaching
    before the first bucket fall back to its target, so the first bucket sees
    its own target as every lag, and an offset at or past the bucket count,
    however large, reads the first bucket in every row. So lags need every
    bucket of `granularity` from the first to the last: a missing one raises
    DataError.
    """
    timestamps = buckets.timestamps.astype("datetime64[m]")
    y = buckets.values[:, 0]
    X = calendar_features(timestamps)
    if lag_offsets:
        if granularity is None:
            raise TypeError("lagged samples need the bucket granularity")
        width = np.timedelta64(granularity.minutes, "m")
        gaps = np.flatnonzero(np.diff(timestamps) != width)
        if gaps.size:
            missing = timestamps[gaps[0]] + width
            raise DataError(
                f"no readings in the bucket starting {missing}: lagged features "
                "need every bucket from the first to the last"
            )
        rows = np.arange(len(y))
        # min: an offset past the buckets reads bucket 0 without an int64 overflow
        X = np.column_stack(
            [X] + [y[np.maximum(rows - min(k, len(y)), 0)] for k in lag_offsets]
        )
    return Samples(timestamps, X, y)
