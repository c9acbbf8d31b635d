import dataclasses
import math
import random
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loadcast.errors import ConfigError, DataError
from loadcast.features import BASE_FEATURES, SEASONS, build_samples
from loadcast.readings import Readings
from loadcast.splitting import SplitSpec, split, validation_split

import oracles


def samples_at(stamps):
    return build_samples(
        Readings(
            np.array(stamps, dtype="datetime64[m]"),
            np.arange(len(stamps), dtype=float)[:, None],
        )
    )


def hourly_stamps(start, count, step_hours=1):
    return [start + timedelta(hours=i * step_hours) for i in range(count)]


def daily_stamps(start, count):
    return [start + timedelta(days=i) for i in range(count)]


def stamps_of(samples, indices):
    return samples.timestamps[indices].tolist()


def test_ordered_80_20():
    samples = samples_at(hourly_stamps(datetime(2015, 1, 1), 100))
    train, test = split(samples, SplitSpec("ordered", train_fraction=0.8))
    assert len(train) == 80 and len(test) == 20
    assert train.tolist() == list(range(80))
    assert test.tolist() == list(range(80, 100))


def test_ordered_boundary():
    samples = samples_at(hourly_stamps(datetime(2015, 1, 1), 100))
    train, test = split(samples, SplitSpec("ordered", train_fraction=0.8))
    assert max(stamps_of(samples, train)) < min(stamps_of(samples, test))


def test_monthly_per_group_tail():
    jan = daily_stamps(datetime(2015, 1, 1), 10)
    feb = daily_stamps(datetime(2015, 2, 1), 10)
    samples = samples_at(jan + feb)
    train, test = split(samples, SplitSpec("monthly", train_fraction=0.8))
    assert len(train) == 16 and len(test) == 4
    assert stamps_of(samples, test) == jan[8:] + feb[8:]


def test_single_season_filter():
    samples = samples_at(daily_stamps(datetime(2015, 1, 1), 365))
    train, test = split(
        samples, SplitSpec("single_season", season="spring", train_fraction=0.8)
    )
    for ts in stamps_of(samples, np.concatenate([train, test])):
        assert ts.month in (3, 4, 5)
    assert len(train) + len(test) == sum(
        1 for ts in samples.timestamps.tolist() if ts.month in (3, 4, 5)
    )


def test_single_season_empty_selection():
    samples = samples_at(daily_stamps(datetime(2015, 1, 5), 20))  # January only
    with pytest.raises(DataError, match="empty selection"):
        split(samples, SplitSpec("single_season", season="summer"))


def test_seasonal_december_rolls_into_next_winter():
    dec = daily_stamps(datetime(2015, 12, 1), 10)
    jan = daily_stamps(datetime(2016, 1, 1), 10)
    samples = samples_at(dec + jan)
    train, test = split(samples, SplitSpec("seasonal", train_fraction=0.8))
    # one winter group of 20: first 16 train, last 4 test
    assert len(train) == 16 and len(test) == 4
    assert stamps_of(samples, test) == jan[6:]


def test_bad_specs():
    with pytest.raises(ConfigError):
        SplitSpec("weekly")
    with pytest.raises(ConfigError):
        SplitSpec("single_season", season="monsoon")
    with pytest.raises(ConfigError):
        SplitSpec("ordered", train_fraction=1.0)
    with pytest.raises(ConfigError):
        SplitSpec("ordered", season="spring")


def test_partition_properties_randomized():
    rng = random.Random(5)
    base = datetime(2015, 1, 1)
    for _ in range(40):
        count = rng.randint(10, 500)
        stamps = hourly_stamps(base, count, step_hours=rng.choice([1, 6, 24]))
        samples = samples_at(stamps)
        frac = rng.choice([0.5, 0.7, 0.8, 0.9])
        strategy = rng.choice(["ordered", "monthly", "seasonal"])
        train, test = split(samples, SplitSpec(strategy, train_fraction=frac))
        assert len(train) + len(test) == len(samples)
        ids = set(train.tolist()) | set(test.tolist())
        assert len(ids) == len(samples)
        for part in (train, test):
            part_stamps = stamps_of(samples, part)
            assert part_stamps == sorted(part_stamps)
        if strategy == "monthly":
            by_month = {}
            for i, ts in enumerate(stamps):
                by_month.setdefault((ts.year, ts.month), []).append(i)
            train_ids = set(train.tolist())
            for key, members in by_month.items():
                got = sum(1 for i in members if i in train_ids)
                assert got == math.ceil(frac * len(members))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    start=st.datetimes(datetime(1995, 1, 1), datetime(2030, 12, 31)),
    count=st.integers(1, 400),
    step_minutes=st.sampled_from((1, 30, 60, 360, 1440, 1440 * 7)),
    strategy=st.sampled_from(("ordered", "seasonal", "monthly", "single_season")),
    season=st.sampled_from(SEASONS),
    fraction=st.floats(0.01, 0.99),
)
def test_index_split_equals_per_sample_oracle(
    start, count, step_minutes, strategy, season, fraction
):
    start = start.replace(second=0, microsecond=0)
    stamps = [start + timedelta(minutes=i * step_minutes) for i in range(count)]
    season = season if strategy == "single_season" else None
    spec = SplitSpec(strategy, season=season, train_fraction=fraction)
    train, test = oracles.split_rows(stamps, strategy, fraction, season)
    if not train + test:
        with pytest.raises(DataError, match="empty selection"):
            split(samples_at(stamps), spec)
        return
    got_train, got_test = split(samples_at(stamps), spec)
    assert got_train.tolist() == train
    assert got_test.tolist() == test


def test_index_split_crosses_december_and_year_ends():
    # daily samples over three winters: every seasonal group spans a year end
    stamps = daily_stamps(datetime(2014, 11, 20), 800)
    samples = samples_at(stamps)
    for strategy in ("ordered", "seasonal", "monthly"):
        for fraction in (0.1, 0.5, 0.8, 0.95):
            got = split(samples, SplitSpec(strategy, train_fraction=fraction))
            expected = oracles.split_rows(stamps, strategy, fraction)
            assert [g.tolist() for g in got] == list(expected)
    for season in SEASONS:
        got = split(samples, SplitSpec("single_season", season=season))
        expected = oracles.split_rows(stamps, "single_season", 0.8, season)
        assert [g.tolist() for g in got] == list(expected)


def test_splits_and_seasons_before_1970_and_across_year_ends():
    # month counts before 1970 are negative, and the winters of 1969, 1970
    # and 1971 each span a year end
    first = datetime(1968, 9, 1)
    stamps = daily_stamps(first, (datetime(1971, 6, 1) - first).days)
    samples = samples_at(stamps)
    seasons = samples.X[:, BASE_FEATURES.index("season")].astype(int)
    assert [SEASONS[s] for s in seasons] == [oracles.season_of(ts) for ts in stamps]
    specs = [SplitSpec(s) for s in ("ordered", "seasonal", "monthly")]
    specs += [SplitSpec("single_season", season=s) for s in SEASONS]
    for base in specs:
        for train_fraction in (0.5, 0.8):
            spec = dataclasses.replace(base, train_fraction=train_fraction)
            args = (stamps, spec.strategy, train_fraction)
            got = split(samples, spec)
            assert [g.tolist() for g in got] == list(oracles.split_rows(*args, spec.season))
            for fraction in (0.1, 0.3):
                got = validation_split(samples, spec, fraction)
                want = oracles.validation_rows(*args, fraction, spec.season)
                assert [g.tolist() for g in got] == list(want)


def _group_key(ts, strategy):
    if strategy == "monthly":
        return (ts.year, ts.month)
    return (ts.year + (ts.month == 12), ts.month % 12 // 3)  # December: next winter


@pytest.mark.parametrize("strategy", ["monthly", "seasonal"])
@pytest.mark.parametrize("fraction", [0.1, 0.3])
def test_validation_rows_close_each_groups_training_rows(strategy, fraction):
    # a year of days with a one-day February and a two-day March, so that
    # some groups have too few training rows for a validation row
    stamps = [ts for ts in daily_stamps(datetime(2015, 1, 1), 365)
              if (ts.month, ts.day) not in {(2, d) for d in range(2, 29)}
              and (ts.month, ts.day) not in {(3, d) for d in range(3, 32)}]
    samples = samples_at(stamps)
    core, validation = validation_split(
        samples, SplitSpec(strategy, train_fraction=0.8), fraction
    )
    train, want_test = oracles.split_rows(stamps, strategy, 0.8)
    groups = {}
    for i in train:
        groups.setdefault(_group_key(stamps[i], strategy), []).append(i)
    want_core, want_validation = [], []
    for key, rows in groups.items():
        n = len(rows)
        n_val = min(max(1, int(fraction * n)), n - 1)
        assert n - n_val >= 1  # every group keeps a row to fit on
        want_core += rows[:n - n_val]
        want_validation += rows[n - n_val:]
        group_test = [i for i in want_test if _group_key(stamps[i], strategy) == key]
        if n_val and group_test:
            # right before the group's test rows
            assert rows[-1] + 1 == group_test[0]
    assert core.tolist() == sorted(want_core)
    assert validation.tolist() == sorted(want_validation)
    assert {_group_key(stamps[i], strategy) for i in core} == set(groups)
    # only the one-day February, a group of one training row, validates nothing
    with_validation = {_group_key(stamps[i], strategy) for i in validation}
    assert len(with_validation) == len(groups) - (strategy == "monthly")


@pytest.mark.parametrize("spec", [
    SplitSpec("ordered"), SplitSpec("single_season", season="summer"),
])
def test_one_group_validates_on_the_training_tail(spec):
    # the rows the experiment took before validation rows came from groups
    samples = samples_at(daily_stamps(datetime(2015, 1, 1), 365))
    train, _ = split(samples, spec)
    core, validation = validation_split(samples, spec, 0.1)
    n_val = max(1, int(0.1 * len(train)))
    assert core.tolist() == train[:-n_val].tolist()
    assert validation.tolist() == train[-n_val:].tolist()


def test_too_few_training_rows_for_validation():
    # each group's one training row is kept for fitting
    samples = samples_at(daily_stamps(datetime(2015, 1, 30), 4))
    spec = SplitSpec("monthly", train_fraction=0.5)
    assert [len(rows) for rows in split(samples, spec)] == [2, 2]
    with pytest.raises(DataError, match="too small for validation rows"):
        validation_split(samples, spec, 0.1)
