"""End-to-end experiment harness.

Runs the full pipeline: parse -> repair nulls -> aggregate -> featurize ->
split -> train forest and boosted trees -> fit blend weights on the
chronological tail of the training set -> predict the test set -> evaluate.
Writes the comparison table, a per-test-point prediction CSV, and the fitted
model artifacts. Fully reproducible given the seed.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path
from typing import Optional

import numpy as np

from .blend import EnsembleWeights, fit_weights, predict_blend_many
from .ensembles import ForestConfig, GbtConfig, dump_model, fit_forest, fit_gbt
from .errors import ConfigError, DataError, InvariantError, LoadcastError
from .features import build_samples, default_lag_offsets, feature_names
from .metrics import ComparisonTable, compare_models, compute_metrics
from .readings import Granularity, aggregate, interpolate_nulls, parse_readings
from .scaling import fit_scaler
from .splitting import SplitSpec, split

MODEL_RF = "random_forest"
MODEL_GBT = "gradient_boosting"
MODEL_BLEND = "weighted_ensemble"

PREDICTION_COLUMNS = ("timestamp", "actual", "pred_rf", "pred_gbt", "pred_blend")


@dataclass
class ExperimentConfig:
    input_path: Path
    out_dir: Path
    granularity: int = 1440
    split: SplitSpec = field(default_factory=lambda: SplitSpec("monthly"))
    scaler: Optional[str] = "minmax"  # "minmax", "maxabs", or None
    lags: bool = False
    lag_offsets: Optional[tuple] = None
    forest: ForestConfig = field(default_factory=ForestConfig)
    gbt: GbtConfig = field(default_factory=GbtConfig)
    validation_fraction: float = 0.1
    mad_mode: str = "mean"

    def __post_init__(self):
        self.input_path = Path(self.input_path)
        self.out_dir = Path(self.out_dir)
        Granularity(self.granularity)  # reject bad granularity before any work
        if not 0.0 < self.validation_fraction < 0.5:
            raise ConfigError(
                "validation_fraction must be in (0, 0.5), "
                f"got {self.validation_fraction}"
            )
        if self.scaler is not None and self.scaler not in ("minmax", "maxabs"):
            raise ConfigError(f"unknown scaler {self.scaler!r}")
        if self.lag_offsets is not None and min(self.lag_offsets, default=1) < 1:
            # lag k reads the target k buckets back; k < 1 is not in the past
            raise ConfigError(
                f"lag offsets must be >= 1, got {list(self.lag_offsets)}"
            )

    def as_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["input_path"] = str(self.input_path)
        doc["out_dir"] = str(self.out_dir)
        doc["lag_offsets"] = self.lag_offsets or None  # () is written as null
        return doc


@dataclass
class ExperimentResult:
    reports: dict  # model name -> MetricsReport
    table: ComparisonTable
    weights: EnsembleWeights
    out_dir: Path
    files: dict  # logical name -> Path


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except LoadcastError as exc:
        raise type(exc)(f"[{name}] {exc}") from exc


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    granularity = Granularity(config.granularity)
    lag_offsets = None
    if config.lags:
        lag_offsets = tuple(config.lag_offsets or default_lag_offsets(granularity))
    names = feature_names(lag_offsets)

    def make_out_dir():
        try:
            config.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory: {exc}")

    def read_input():
        if not config.input_path.exists():
            raise DataError(f"input file not found: {config.input_path}")
        try:
            return config.input_path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read input {config.input_path}: {exc}")

    _stage("out-dir", make_out_dir)
    text = _stage("read-input", read_input)
    readings = _stage("parse", parse_readings, text)
    readings = _stage("interpolate", interpolate_nulls, readings)
    buckets = _stage("aggregate", aggregate, readings, granularity)
    samples = _stage("features", build_samples, buckets, lag_offsets)
    train, test = _stage("split", split, samples, config.split)
    if len(test) == 0:
        raise DataError("[split] empty test set")

    n_val = max(1, int(config.validation_fraction * len(train)))
    if n_val >= len(train):
        raise DataError("[split] training set too small for a validation tail")
    train_core, validation = train[:-n_val], train[-n_val:]

    X_core, y_core = samples.X[train_core], samples.y[train_core]
    X_val, y_val = samples.X[validation], samples.y[validation]
    X_test, y_test = samples.X[test], samples.y[test]

    scaler = None
    if config.scaler is not None:
        scaler = _stage("scale", fit_scaler, X_core, names, config.scaler)
        X_core = scaler.transform(X_core)
        X_val = scaler.transform(X_val)
        X_test = scaler.transform(X_test)

    forest = _stage("train-forest", fit_forest, X_core, y_core, config.forest)
    gbt = _stage("train-gbt", fit_gbt, X_core, y_core, config.gbt)

    if config.lags:
        holdout = np.concatenate([validation, test])
        predict = lambda model, subset: _predict_recursive(
            model, subset, samples, lag_offsets, scaler, holdout
        )
        val_rf = predict(forest, validation)
        val_gbt = predict(gbt, validation)
    else:
        val_rf = forest.predict_many(X_val)
        val_gbt = gbt.predict_many(X_val)
    weights = _stage(
        "blend", fit_weights, {MODEL_RF: val_rf, MODEL_GBT: val_gbt}, y_val
    )

    if config.lags:
        pred_rf = predict(forest, test)
        pred_gbt = predict(gbt, test)
    else:
        pred_rf = forest.predict_many(X_test)
        pred_gbt = gbt.predict_many(X_test)
    pred_blend = predict_blend_many(
        weights, {MODEL_RF: pred_rf, MODEL_GBT: pred_gbt}
    )

    reports = {
        MODEL_RF: compute_metrics(y_test, pred_rf, config.mad_mode),
        MODEL_GBT: compute_metrics(y_test, pred_gbt, config.mad_mode),
        MODEL_BLEND: compute_metrics(y_test, pred_blend, config.mad_mode),
    }
    table = compare_models(reports)

    # the blend is a convex combination of the two prediction arrays, so its
    # RMSE cannot exceed the worse component's
    bound = max(reports[MODEL_RF].rmse, reports[MODEL_GBT].rmse) + 1e-9
    if reports[MODEL_BLEND].rmse > bound:
        raise InvariantError(
            f"blend RMSE {reports[MODEL_BLEND].rmse} exceeds component "
            f"bound {bound}"
        )

    files = _stage(
        "write-output",
        _write_outputs,
        config,
        samples.timestamps[test],
        y_test,
        pred_rf,
        pred_gbt,
        pred_blend,
        forest,
        gbt,
        weights,
        scaler,
        reports,
        table,
    )
    return ExperimentResult(
        reports=reports,
        table=table,
        weights=weights,
        out_dir=config.out_dir,
        files=files,
    )


def _predict_recursive(model, subset, samples, lag_offsets, scaler, holdout):
    """Chronological one-step-ahead prediction of the samples at the
    increasing indices `subset`, where the model's own earlier predictions
    fill the lag slots of the held-out indices `holdout`."""
    values = samples.y.copy()
    values[holdout] = np.nan

    preds = np.empty(len(subset))
    n_base = samples.X.shape[1] - len(lag_offsets)
    for i, pos in enumerate(subset):
        row = samples.X[pos].copy()
        for li, k in enumerate(lag_offsets):
            v = values[max(pos - k, 0)]
            if math.isnan(v):
                # earlier held-out bucket not in this prediction pass
                v = _nearest_known(values, pos)
            row[n_base + li] = v
        if scaler is not None:
            row = scaler.transform(row[None, :])[0]
        p = model.predict(row)
        preds[i] = p
        values[pos] = p
    return preds


def _nearest_known(values, pos):
    for j in range(pos - 1, -1, -1):
        if not math.isnan(values[j]):
            return values[j]
    for j in range(pos + 1, len(values)):
        if not math.isnan(values[j]):
            return values[j]
    raise InvariantError("no known target available for lag fill")


def _format_float(v: float) -> str:
    return repr(float(v))


def _write_outputs(
    config,
    test_timestamps,
    y_test,
    pred_rf,
    pred_gbt,
    pred_blend,
    forest,
    gbt,
    weights,
    scaler,
    reports,
    table,
):
    out = config.out_dir
    files = {}

    pred_path = out / "predictions.csv"
    with pred_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PREDICTION_COLUMNS)
        stamps = np.datetime_as_string(test_timestamps, unit="m")
        for t, a, r, g, b in zip(stamps, y_test, pred_rf, pred_gbt, pred_blend):
            writer.writerow(
                [
                    t,
                    _format_float(a),
                    _format_float(r),
                    _format_float(g),
                    _format_float(b),
                ]
            )
    files["predictions"] = pred_path

    files["metrics_csv"] = out / "metrics.csv"
    files["metrics_csv"].write_text(table.to_csv())
    files["metrics_txt"] = out / "metrics.txt"
    files["metrics_txt"].write_text(table.to_text())
    files["reports"] = out / "reports.json"
    files["reports"].write_text(
        json.dumps({k: v.as_dict() for k, v in reports.items()}, sort_keys=True)
    )
    files["forest"] = out / "forest.json"
    files["forest"].write_text(dump_model(forest))
    files["gbt"] = out / "gbt.json"
    files["gbt"].write_text(dump_model(gbt))
    files["weights"] = out / "blend_weights.json"
    files["weights"].write_text(weights.to_text())
    if scaler is not None:
        files["scaler"] = out / "scaler.txt"
        files["scaler"].write_text(scaler.to_text())
    files["config"] = out / "run_config.json"
    files["config"].write_text(json.dumps(config.as_dict(), sort_keys=True))
    return files


def emit_week_series(predictions_csv, anchor: datetime, out_path) -> Path:
    """Slice [anchor, anchor + 7 days) out of a prediction CSV."""
    predictions_csv = Path(predictions_csv)
    out_path = Path(out_path)
    if not predictions_csv.exists():
        raise DataError(f"prediction file not found: {predictions_csv}")
    end = anchor + timedelta(days=7)

    with predictions_csv.open() as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != PREDICTION_COLUMNS:
            raise DataError(f"unexpected prediction CSV header: {header}")
        kept = []
        for row_no, row in enumerate(reader, start=2):
            try:
                ts = datetime.fromisoformat(row[0])
            except (IndexError, ValueError):
                raise DataError(
                    f"malformed timestamp at row {row_no} of {predictions_csv}"
                )
            if anchor <= ts < end:
                kept.append(row)
    if not kept:
        raise DataError(
            f"empty window: no test predictions in "
            f"[{anchor.isoformat()}, {end.isoformat()})"
        )
    with out_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PREDICTION_COLUMNS)
        writer.writerows(kept)
    return out_path
