import dataclasses
import math

import numpy as np
import pytest

from loadcast.errors import ConfigError, DataError
from loadcast.metrics import MetricsReport, compare_models, compute_metrics

import oracles


def test_perfect_prediction():
    series = [3.0, 1.0, 4.0, 1.5]
    r = compute_metrics(series, series)
    assert r.rmse == 0.0
    assert r.mae == 0.0
    assert r.mad == 0.0
    assert r.mape == 0.0
    assert r.n_points == 4
    assert r.n_skipped_mape == 0


def test_hand_worked_small_series():
    r = compute_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 5.0])
    assert r.rmse == pytest.approx(math.sqrt(4 / 3), abs=1e-9)
    assert r.mae == pytest.approx(2 / 3, abs=1e-9)
    assert r.mad == pytest.approx(8 / 9, abs=1e-9)
    assert r.mape == pytest.approx(100 * (2 / 3) / 3, abs=1e-6)


def test_hand_worked_percentages():
    r = compute_metrics([100.0, 200.0], [110.0, 180.0])
    assert r.mape == pytest.approx(10.0, abs=1e-9)
    assert r.mae == pytest.approx(15.0, abs=1e-9)
    assert r.rmse == pytest.approx(math.sqrt(250.0), abs=1e-9)


def test_zero_actuals_skipped_from_mape():
    r = compute_metrics([0.0, 10.0], [1.0, 11.0])
    assert r.n_skipped_mape == 1
    assert r.mape == pytest.approx(10.0)


def test_all_zero_actuals_mape_absent():
    r = compute_metrics([0.0, 0.0], [1.0, 2.0])
    assert r.mape is None
    assert r.n_skipped_mape == 2


def test_errors():
    with pytest.raises(DataError):
        compute_metrics([], [])
    with pytest.raises(DataError):
        compute_metrics([1.0], [1.0, 2.0])
    with pytest.raises(DataError):
        compute_metrics([1.0], [float("nan")])
    with pytest.raises(ConfigError):
        compute_metrics([1.0], [1.0], mad_mode="mode")


def test_median_mad_variant():
    r = compute_metrics([0.0, 0.0, 0.0], [1.0, 2.0, 9.0], mad_mode="median")
    # residuals {1,2,9}, median 2, |dev| {1,0,7} -> median 1
    assert r.mad == 1.0


def test_against_spreadsheet_oracle():
    rng = np.random.default_rng(0)
    for _ in range(60):
        n = int(rng.integers(1, 21))
        actual = [float(v) for v in rng.normal(50, 30, n)]
        predicted = [float(v) for v in rng.normal(50, 30, n)]
        r = compute_metrics(actual, predicted)
        rmse, mae, mad, mape = oracles.spreadsheet_metrics(actual, predicted)
        assert abs(r.rmse - rmse) <= 1e-9
        assert abs(r.mae - mae) <= 1e-9
        assert abs(r.mad - mad) <= 1e-9
        if mape is None:
            assert r.mape is None
        else:
            assert abs(r.mape - mape) <= 1e-9


def test_rmse_dominates_mae():
    rng = np.random.default_rng(1)
    for _ in range(500):
        n = int(rng.integers(1, 30))
        actual = rng.normal(0, 10, n)
        predicted = rng.normal(0, 10, n)
        r = compute_metrics(actual, predicted)
        assert r.rmse >= r.mae - 1e-12


def test_permutation_invariance():
    rng = np.random.default_rng(2)
    actual = rng.normal(10, 5, 15)
    predicted = rng.normal(10, 5, 15)
    r1 = compute_metrics(actual, predicted)
    perm = rng.permutation(15)
    r2 = compute_metrics(actual[perm], predicted[perm])
    assert r1.rmse == pytest.approx(r2.rmse, abs=1e-12)
    assert r1.mae == pytest.approx(r2.mae, abs=1e-12)
    assert r1.mad == pytest.approx(r2.mad, abs=1e-12)
    assert r1.mape == pytest.approx(r2.mape, abs=1e-9)


def test_mad_ignores_constant_bias():
    rng = np.random.default_rng(3)
    actual = rng.normal(100, 10, 20)
    predicted = rng.normal(100, 10, 20)
    r1 = compute_metrics(actual, predicted)
    r2 = compute_metrics(actual, predicted + 7.5)
    assert r2.mad == pytest.approx(r1.mad, abs=1e-9)


def test_scaling_behaviour():
    rng = np.random.default_rng(4)
    actual = np.abs(rng.normal(100, 10, 20)) + 1
    predicted = np.abs(rng.normal(100, 10, 20)) + 1
    r1 = compute_metrics(actual, predicted)
    r2 = compute_metrics(3.0 * actual, 3.0 * predicted)
    assert r2.rmse == pytest.approx(3 * r1.rmse, rel=1e-12)
    assert r2.mae == pytest.approx(3 * r1.mae, rel=1e-12)
    assert r2.mad == pytest.approx(3 * r1.mad, rel=1e-12)
    assert r2.mape == pytest.approx(r1.mape, rel=1e-12)


def _report(rmse, mae, mad, mape):
    return MetricsReport(
        rmse=rmse, mae=mae, mad=mad, mape=mape, n_points=10, n_skipped_mape=0
    )


def test_published_three_model_table():
    reports = {
        "random_forest": _report(141.5, 98.24, 176.54, 17.06),
        "gradient_boosting": _report(131.13, 94.63, 174.27, 15.89),
        "weighted_ensemble": _report(107.72, 83.86, 169.07, 14.27),
    }
    table = compare_models(reports)
    assert [table.values["RMSE"][m] for m in table.models] == [141.5, 131.13, 107.72]
    for row in ("RMSE", "MAE", "MAD", "MAPE"):
        assert table.best[row] == {"weighted_ensemble"}
    text = table.to_text()
    assert "107.72 *" in text
    csv_text = table.to_csv()
    assert csv_text.splitlines()[0] == (
        "metric,random_forest,gradient_boosting,weighted_ensemble"
    )


def test_single_model_all_best():
    table = compare_models({"only": _report(1.0, 1.0, 1.0, 1.0)})
    for row in ("RMSE", "MAE", "MAD", "MAPE"):
        assert table.best[row] == {"only"}


def test_tied_models_both_best():
    r = _report(2.0, 1.0, 1.0, 5.0)
    table = compare_models({"a": r, "b": r})
    for row in ("RMSE", "MAE", "MAD", "MAPE"):
        assert table.best[row] == {"a", "b"}


def test_report_dict_roundtrip():
    r = _report(1.5, 1.0, 0.5, None)
    assert MetricsReport.from_dict(dataclasses.asdict(r)) == r
