import random
from datetime import datetime, timedelta
from types import SimpleNamespace

import numpy as np
import pytest

from loadcast.errors import DataError
from loadcast.features import (
    BASE_FEATURES,
    SEASONS,
    build_samples,
    calendar_features,
    default_lag_offsets,
    season_runs,
)
from loadcast.readings import Granularity, Readings

import oracles


def buckets(stamps, targets):
    return Readings(
        np.array(stamps, dtype="datetime64[m]"),
        np.array(targets, dtype=float)[:, None],
    )


def calendar_rows(stamps):
    """calendar_features of each timestamp as a namespace of named fields,
    with season as its name and is_weekend as a bool."""
    rows = calendar_features(np.array(stamps, dtype="datetime64[m]"))
    out = []
    for row in rows:
        fields = {name: int(v) for name, v in zip(BASE_FEATURES, row)}
        fields["season"] = SEASONS[fields["season"]]
        fields["is_weekend"] = bool(fields["is_weekend"])
        out.append(SimpleNamespace(**fields))
    return out


def features_of(ts):
    return calendar_rows([ts])[0]


def test_summer_sunday_afternoon():
    fv = features_of(datetime(2015, 6, 21, 14, 31))
    assert fv.year == 2015
    assert fv.month == 6
    assert fv.day_of_year == 172
    assert fv.day_of_week == 6  # 2015-06-21 was a Sunday
    assert fv.hour == 14
    assert fv.half_hour == 29
    assert fv.season == "summer"
    assert fv.is_weekend is True
    assert fv.week_of_year == 25


def test_new_year_boundary():
    fv = features_of(datetime(2015, 1, 1, 0, 0))
    assert fv.month == 1
    assert fv.day_of_month == 1
    assert fv.hour == 0
    assert fv.half_hour == 0
    assert fv.season == "winter"


def test_saturday_is_weekend():
    fv = features_of(datetime(2015, 3, 7, 9, 0))  # a Saturday
    assert fv.day_of_week == 5
    assert fv.is_weekend is True


def test_season_mapping():
    expected = {
        12: "winter", 1: "winter", 2: "winter",
        3: "spring", 4: "spring", 5: "spring",
        6: "summer", 7: "summer", 8: "summer",
        9: "autumn", 10: "autumn", 11: "autumn",
    }
    for month, season in expected.items():
        assert SEASONS[season_runs(month - 1) % 4] == season


def test_calendar_against_independent_oracle():
    rng = random.Random(42)
    stamps = []
    for _ in range(1200):
        year = rng.randint(2000, 2030)  # mixes leap and non-leap years
        month = rng.randint(1, 12)
        day = rng.randint(1, oracles.days_in_month(year, month))
        hour = rng.randint(0, 23)
        minute = rng.randint(0, 59)
        stamps.append(datetime(year, month, day, hour, minute))
    for ts, fv in zip(stamps, calendar_rows(stamps)):
        year, month, day = ts.year, ts.month, ts.day
        hour, minute = ts.hour, ts.minute
        assert fv.day_of_week == oracles.weekday_monday0(year, month, day)
        assert fv.day_of_year == oracles.day_of_year(year, month, day)
        assert fv.week_of_year == oracles.iso_week(year, month, day)
        assert fv.half_hour == (hour * 60 + minute) // 30
        assert fv.is_weekend == (fv.day_of_week in (5, 6))
        assert 1 <= fv.week_of_year <= 53
        assert 1 <= fv.day_of_year <= 366


def test_feature_names_and_matrix_shape():
    # the BASE_FEATURES columns, then one lag column per offset
    stamps = [datetime(2015, 1, 1) + timedelta(hours=i) for i in range(10)]
    samples = build_samples(
        buckets(stamps, range(10)), lag_offsets=(1, 2, 24), granularity=Granularity(60)
    )
    X = samples.X
    assert X.shape == (10, len(BASE_FEATURES) + 3)


def test_default_lag_offsets():
    assert default_lag_offsets(Granularity(60)) == (24, 48, 168)
    assert default_lag_offsets(Granularity(1440)) == (1, 2, 7)


def test_lags_from_history():
    stamps = [datetime(2015, 1, 1) + timedelta(hours=i) for i in range(6)]
    samples = build_samples(
        buckets(stamps, [10.0 + i for i in range(6)]), (1, 3), Granularity(60)
    )
    lags = [tuple(row[-2:].tolist()) for row in samples.X]
    # first sample has no history: falls back to its own (earliest) target
    assert lags[0] == (10.0, 10.0)
    # offset 3 before history start uses the earliest known target
    assert lags[2] == (11.0, 10.0)
    assert lags[5] == (14.0, 12.0)


def test_offsets_at_or_past_the_bucket_count_read_the_first_bucket():
    # an offset too large for int64 reads bucket 0 in every row, as one equal
    # to the bucket count does
    stamps = [datetime(2015, 1, 1) + timedelta(hours=i) for i in range(6)]
    series = buckets(stamps, [10.0 + i for i in range(6)])
    huge = build_samples(series, (2, 10**20), Granularity(60))
    assert huge.X[:, -1].tolist() == [10.0] * 6
    for k in (6, 7, 2**63 - 1, 2**63):
        exact = build_samples(series, (2, k), Granularity(60))
        assert huge.X.tobytes() == exact.X.tobytes()


def test_lags_need_every_bucket():
    # lag k reads the bucket k places back, so after a missing bucket it
    # would read one from further back than k buckets
    days = ["2015-01-01", "2015-01-02", "2015-01-04", "2015-01-05"]
    gapped = buckets(np.array(days, dtype="datetime64[D]"), [1.0, 2.0, 4.0, 5.0])
    with pytest.raises(DataError, match=(
        "^no readings in the bucket starting 2015-01-03T00:00: lagged features "
        "need every bucket from the first to the last$"
    )):
        build_samples(gapped, (1,), Granularity(1440))
    # hourly buckets of those days are not consecutive either
    with pytest.raises(DataError, match="bucket starting 2015-01-01T01:00"):
        build_samples(gapped, (1,), Granularity(60))
    assert build_samples(gapped).X.shape == (4, len(BASE_FEATURES))
    with pytest.raises(TypeError, match="granularity"):
        build_samples(gapped, (1,))


def test_season_encoding_round_trip():
    for s in SEASONS:
        assert SEASONS[SEASONS.index(s)] == s


def test_calendar_matches_datetime_on_every_day_1960_to_2040():
    # crosses 1970, so negative day numbers are covered
    first = datetime(1960, 1, 1)
    days = (datetime(2041, 1, 1) - first).days
    stamps = [first + timedelta(days=i, minutes=(37 * i) % 1440) for i in range(days)]
    for ts, fv in zip(stamps, calendar_rows(stamps)):
        assert fv.year == ts.year
        assert fv.month == ts.month
        assert fv.week_of_year == ts.isocalendar()[1]
        assert fv.day_of_year == ts.timetuple().tm_yday
        assert fv.day_of_month == ts.day
        assert fv.day_of_week == ts.weekday()
        assert fv.hour == ts.hour
        assert fv.half_hour == (ts.hour * 60 + ts.minute) // 30
        assert fv.season == SEASONS[season_runs(ts.month - 1) % 4]
        assert fv.is_weekend == (ts.weekday() >= 5)
        assert fv.day_of_week == oracles.weekday_monday0(ts.year, ts.month, ts.day)
        assert fv.week_of_year == oracles.iso_week(ts.year, ts.month, ts.day)


def test_samples_carry_bucket_starts_and_targets():
    stamps = [datetime(2015, 1, 1) + timedelta(hours=i) for i in range(4)]
    samples = build_samples(buckets(stamps, [5.0, 6.0, 7.0, 8.0]))
    assert len(samples) == 4
    assert samples.timestamps.dtype == np.dtype("datetime64[m]")
    assert samples.timestamps.tolist() == stamps
    assert samples.y.tolist() == [5.0, 6.0, 7.0, 8.0]
    assert samples.X.shape == (4, len(BASE_FEATURES))
