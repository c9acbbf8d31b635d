"""Acceptance gate: one test per release criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
status lines.
"""
import math
import random
import time
from datetime import date, datetime, timedelta
from types import SimpleNamespace

import numpy as np
import pytest

from loadcast.blend import fit_weights, predict_blend_many
from loadcast.ensembles import ForestConfig, GbtConfig, fit_forest, fit_gbt
from loadcast.experiment import ExperimentConfig, run_experiment
from loadcast.features import (
    BASE_FEATURES,
    SEASONS,
    build_samples,
    calendar_features,
)
from loadcast.metrics import compute_metrics
from loadcast.readings import (
    Granularity,
    Readings,
    aggregate,
    interpolate_nulls,
)
from loadcast.splitting import SplitSpec, split
from loadcast.synthetic import SyntheticSpec, generate_synthetic
from loadcast.tree import TreeConfig, best_split, fit_tree

import oracles


def _announce(number, title):
    print(f"\nACCEPTANCE {number} ({title}): PASS")


def test_criterion_1_metric_oracle_suite():
    start = time.perf_counter()
    # worked examples
    r = compute_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 5.0])
    assert abs(r.rmse - math.sqrt(4 / 3)) <= 1e-9
    assert abs(r.mae - 2 / 3) <= 1e-9
    assert abs(r.mad - 8 / 9) <= 1e-9
    assert abs(r.mape - 100 * (2 / 3) / 3) <= 1e-9
    r = compute_metrics([100.0, 200.0], [110.0, 180.0])
    assert abs(r.mape - 10.0) <= 1e-9
    assert abs(r.mae - 15.0) <= 1e-9
    assert abs(r.rmse - math.sqrt(250.0)) <= 1e-9

    rng = np.random.default_rng(101)
    for _ in range(50):
        n = int(rng.integers(1, 21))
        actual = [float(v) for v in rng.normal(80, 40, n)]
        predicted = [float(v) for v in rng.normal(80, 40, n)]
        got = compute_metrics(actual, predicted)
        rmse, mae, mad, mape = oracles.spreadsheet_metrics(actual, predicted)
        assert abs(got.rmse - rmse) <= 1e-9
        assert abs(got.mae - mae) <= 1e-9
        assert abs(got.mad - mad) <= 1e-9
        if mape is None:
            assert got.mape is None
        else:
            assert abs(got.mape - mape) <= 1e-9

    for _ in range(1000):
        n = int(rng.integers(1, 25))
        got = compute_metrics(rng.normal(0, 10, n), rng.normal(0, 10, n))
        assert got.rmse >= got.mae - 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"metric suite took {elapsed:.2f}s"
    _announce(1, "metric oracle suite")


def test_criterion_2_split_search_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 31))
        p = int(rng.integers(1, 4))
        X = rng.uniform(-10, 10, (n, p))
        y = rng.integers(-30, 31, n).astype(float)
        got = best_split(X, y)
        expected = oracles.brute_force_best_split(X.tolist(), y.tolist())
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert got.feature_id == expected[0]
            assert got.threshold == expected[1]
            assert got.gain == expected[2]
            checked += 1
    assert checked > 100  # the suite must actually exercise real splits
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"split oracle suite took {elapsed:.2f}s"
    _announce(2, "split-search oracle")


def test_criterion_3_degenerate_forest_equivalence():
    rng = np.random.default_rng(303)
    for _ in range(20):
        n = int(rng.integers(5, 50))
        p = int(rng.integers(1, 4))
        X = rng.uniform(-5, 5, (n, p))
        y = rng.normal(0, 5, n)
        config = ForestConfig(n_trees=1, bootstrap=False, feature_fraction=1.0)
        forest = fit_forest(X, y, config)
        single = fit_tree(X, y, config.tree)
        np.testing.assert_array_equal(
            forest.predict_many(X), single.predict_many(X)
        )
    _announce(3, "degenerate-forest equivalence")


def test_criterion_4_gbt_monotonicity_and_interpolation():
    rng = np.random.default_rng(404)
    for _ in range(20):
        n = int(rng.integers(10, 40))
        p = int(rng.integers(1, 4))
        X = rng.uniform(-5, 5, (n, p))
        y = rng.normal(0, 5, n) + 2 * X[:, 0]
        config = GbtConfig(n_rounds=50, shrinkage=0.1, tree=TreeConfig(max_depth=4))
        model = fit_gbt(X, y, config)
        pred = np.full(n, model.base_score)
        last = float(np.sum((y - pred) ** 2))
        for tree in model.trees:
            pred = pred + config.shrinkage * tree.predict_many(X)
            sse = float(np.sum((y - pred) ** 2))
            assert sse <= last + 1e-9
            last = sse

    # full-shrinkage interpolation: distinct rows are fitted in one round
    for _ in range(5):
        n = int(rng.integers(5, 25))
        X = rng.permutation(n).astype(float).reshape(-1, 1)
        y = rng.integers(-50, 51, n).astype(float)
        config = GbtConfig(
            n_rounds=1, shrinkage=1.0, tree=TreeConfig(max_depth=64, min_gain=0.0)
        )
        model = fit_gbt(X, y, config)
        sse = float(np.sum((model.predict_many(X) - y) ** 2))
        assert sse <= 1e-15
    _announce(4, "GBT monotonicity")


def test_criterion_5_blend_convexity():
    rng = np.random.default_rng(505)
    for _ in range(100):
        n = int(rng.integers(2, 60))
        actual = rng.normal(50, 20, n)
        preds = {
            "a": actual + rng.normal(0, rng.uniform(0.5, 10), n),
            "b": actual + rng.normal(0, rng.uniform(0.5, 10), n),
        }
        weights = fit_weights(preds, actual)
        blended = predict_blend_many(weights, preds)

        def rmse(p):
            return math.sqrt(float(np.mean((p - actual) ** 2)))

        assert rmse(blended) <= max(rmse(preds["a"]), rmse(preds["b"])) + 1e-9
        lo = np.minimum(preds["a"], preds["b"])
        hi = np.maximum(preds["a"], preds["b"])
        assert np.all(blended >= lo - 1e-12)
        assert np.all(blended <= hi + 1e-12)
    _announce(5, "blend convexity")


def test_criterion_6_weight_arithmetic():
    actuals = [0.0, 0.0]
    weights = fit_weights(
        {"rf": [141.5, 141.5], "gbt": [131.13, 131.13]}, actuals
    )
    assert abs(weights.weights["rf"] - 0.48098) <= 1e-4
    assert abs(weights.weights["gbt"] - 0.51902) <= 1e-4
    _announce(6, "weight arithmetic")


def test_criterion_7_pipeline_correctness():
    rng = np.random.default_rng(707)
    base_ts = datetime(2015, 1, 1)

    # interpolation invariants on randomized columns
    for _ in range(30):
        n = int(rng.integers(3, 50))
        vals = [float(v) for v in rng.uniform(0, 100, n)]
        null_at = rng.choice(n, size=max(1, n // 3), replace=False)
        for i in null_at:
            vals[i] = None
        if all(v is None for v in vals):
            vals[0] = 1.0
        readings = Readings(
            np.array(base_ts, dtype="datetime64[us]") + np.arange(n) * 60_000_000,
            np.array([[np.nan if v is None else v] for v in vals]),
        )
        once = interpolate_nulls(readings)
        twice = interpolate_nulls(once)
        assert not np.isnan(once.values).any()
        assert np.array_equal(once.values, twice.values)
        for orig, fixed in zip(vals, once.values[:, 0]):
            if orig is not None:
                assert fixed == orig

    # bucket index identity: the reading at minute m of a day, valued m,
    # lands in the bucket that starts at midnight + (m // g) * g minutes
    day = Readings(
        np.datetime64(base_ts, "us") + np.arange(1440) * np.timedelta64(1, "m"),
        np.arange(1440, dtype=float)[:, None],
    )
    for g in (1, 10, 30, 60, 720, 1440):
        buckets = aggregate(day, Granularity(g))
        assert len(buckets) == Granularity(g).buckets_per_day
        groups = {}
        for m in range(1440):
            start = base_ts + timedelta(minutes=m // g * g)
            groups.setdefault(start, []).append(float(m))
        assert buckets.timestamps.tolist() == list(groups)
        assert buckets.values[:, 0].tolist() == [sum(v) / len(v) for v in groups.values()]

    # all four split strategies
    samples = build_samples(
        Readings(
            np.datetime64(base_ts, "m") + np.arange(365) * np.timedelta64(1, "D"),
            np.arange(365, dtype=float)[:, None],
        )
    )
    stamps = samples.timestamps.tolist()
    seasons = [SEASONS[int(v)] for v in samples.X[:, BASE_FEATURES.index("season")]]
    specs = [
        SplitSpec("ordered"),
        SplitSpec("monthly"),
        SplitSpec("seasonal"),
        SplitSpec("single_season", season="spring"),
    ]
    for spec in specs:
        train, test = split(samples, spec)
        train, test = train.tolist(), test.tolist()
        assert train and test
        ids = set(train) | set(test)
        assert len(ids) == len(train) + len(test)
        for part in (train, test):
            part_stamps = [stamps[i] for i in part]
            assert part_stamps == sorted(part_stamps)
        if spec.strategy == "ordered":
            assert max(stamps[i] for i in train) < min(stamps[i] for i in test)
        if spec.strategy == "single_season":
            assert all(seasons[i] == "spring" for i in train + test)
        if spec.strategy == "monthly":
            groups = {}
            for i, ts in enumerate(stamps):
                groups.setdefault((ts.year, ts.month), []).append(i)
            train_ids = set(train)
            for members in groups.values():
                got = sum(1 for i in members if i in train_ids)
                assert got == math.ceil(0.8 * len(members))

    # calendar features vs independent reference on 1000 random timestamps
    py_rng = random.Random(7070)
    dates, calendar_stamps = [], []
    for _ in range(1000):
        year = py_rng.randint(1996, 2032)  # spans several leap years
        month = py_rng.randint(1, 12)
        day = py_rng.randint(1, oracles.days_in_month(year, month))
        hour = py_rng.randint(0, 23)
        minute = py_rng.randint(0, 59)
        dates.append((year, month, day))
        calendar_stamps.append(datetime(year, month, day, hour, minute))
    rows = calendar_features(np.array(calendar_stamps, dtype="datetime64[m]"))
    for (year, month, day), row in zip(dates, rows):
        fv = SimpleNamespace(**dict(zip(BASE_FEATURES, row)))
        assert fv.day_of_week == oracles.weekday_monday0(year, month, day)
        assert fv.day_of_year == oracles.day_of_year(year, month, day)
        assert fv.week_of_year == oracles.iso_week(year, month, day)
        assert fv.is_weekend == (fv.day_of_week in (5, 6))
    _announce(7, "pipeline correctness")


def test_criterion_8_pinned_synthetic_benchmark(tmp_path):
    start = time.perf_counter()
    data = tmp_path / "benchmark.csv"
    generate_synthetic(
        SyntheticSpec(
            start=date(2015, 1, 1), days=365, meters=6,
            noise_std=3.0, null_rate=0.01, seed=2,
        ),
        data,
    )
    config = ExperimentConfig(
        input_path=data,
        out_dir=tmp_path / "run",
        granularity=1440,
        split=SplitSpec("monthly", train_fraction=0.8),
        forest=ForestConfig(
            n_trees=15, tree=TreeConfig(max_depth=10, min_gain=0.2), seed=3
        ),
        gbt=GbtConfig(
            n_rounds=100, shrinkage=0.1,
            tree=TreeConfig(max_depth=10, min_gain=0.2),
        ),
    )
    result = run_experiment(config)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"benchmark took {elapsed:.1f}s"

    rf = result.reports["random_forest"].rmse
    gbt = result.reports["gradient_boosting"].rmse
    blend = result.reports["weighted_ensemble"].rmse
    # hard guarantee: the blend never loses to the worse component
    assert blend <= max(rf, gbt) + 1e-9
    # pinned-seed regression expectation: with these exact seeds the run
    # reproduces the blend <= gbt <= rf ordering seen at calibration time
    assert blend <= gbt <= rf, (
        f"pinned ordering regressed: rf={rf:.3f} gbt={gbt:.3f} blend={blend:.3f}"
    )
    print(
        f"\n  benchmark in {elapsed:.1f}s: rf={rf:.3f} gbt={gbt:.3f} "
        f"blend={blend:.3f}"
    )
    _announce(8, "pinned synthetic benchmark")


def test_criterion_9_run_determinism(tmp_path):
    data = tmp_path / "data.csv"
    generate_synthetic(
        SyntheticSpec(days=30, meters=3, noise_std=2.0, null_rate=0.01, seed=6),
        data,
    )

    def run(out):
        config = ExperimentConfig(
            input_path=data,
            out_dir=tmp_path / out,
            granularity=60,
            split=SplitSpec("monthly"),
            forest=ForestConfig(n_trees=5, tree=TreeConfig(max_depth=5), seed=8),
            gbt=GbtConfig(n_rounds=15, tree=TreeConfig(max_depth=5)),
        )
        return run_experiment(config)

    r1 = run("a")
    r2 = run("b")
    for name in ("forest", "gbt", "weights", "predictions"):
        assert r1.files[name].read_bytes() == r2.files[name].read_bytes(), name
    _announce(9, "determinism")
