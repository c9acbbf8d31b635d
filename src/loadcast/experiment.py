"""End-to-end experiment harness.

Runs the full pipeline: parse -> repair nulls -> aggregate -> featurize ->
split -> train forest and boosted trees -> fit blend weights on the
validation rows, each split group's last training rows -> predict the test
set -> evaluate.
Writes the comparison table, a per-test-point prediction CSV, and the fitted
model artifacts. Fully reproducible given the seed.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path
from typing import Optional

import numpy as np

from .blend import EnsembleWeights, fit_weights, predict_blend_many
from .ensembles import ForestConfig, GbtConfig, dump_model, fit_forest, fit_gbt
from .errors import ConfigError, DataError, InvariantError, LoadcastError
from .features import build_samples, default_lag_offsets
from .metrics import ComparisonTable, compare_models, compute_metrics
from .readings import Granularity, aggregate, interpolate_nulls, parse_readings
from .splitting import SplitSpec, split, validation_split

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
    lags: bool = False
    lag_offsets: Optional[tuple] = None  # None with lags: the day-ahead defaults
    forest: ForestConfig = field(default_factory=ForestConfig)
    gbt: GbtConfig = field(default_factory=GbtConfig)
    validation_fraction: float = 0.1

    def __post_init__(self):
        self.input_path = Path(self.input_path)
        self.out_dir = Path(self.out_dir)
        granularity = Granularity(self.granularity)  # rejects a bad one before any work
        if not 0.0 < self.validation_fraction < 0.5:
            raise ConfigError(
                "validation_fraction must be in (0, 0.5), "
                f"got {self.validation_fraction}"
            )
        if self.lag_offsets is not None and not self.lag_offsets:
            raise ConfigError("lag offsets must not be empty, got []")
        if self.lag_offsets and not self.lags:
            raise ConfigError(
                f"lag offsets {list(self.lag_offsets)} given, but lags are off"
            )
        # validation and test rows read observed lags, so a lagged run
        # forecasts min(lag_offsets) buckets ahead
        offsets = ()
        if self.lags:
            offsets = tuple(self.lag_offsets or default_lag_offsets(granularity))
        if min(offsets, default=1) < 1:
            # lag k reads the target k buckets back; k < 1 is not in the past
            raise ConfigError(f"lag offsets must be >= 1, got {list(offsets)}")
        if len(set(offsets)) < len(offsets):
            raise ConfigError(f"lag offsets must not repeat, got {list(offsets)}")
        self.lag_offsets = offsets or None


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

    def make_out_dir():
        try:
            config.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory: {exc}")

    def unreadable(exc):
        return DataError(f"cannot read input {config.input_path}: {exc}")

    def read_input():
        if not config.input_path.exists():
            raise DataError(f"input file not found: {config.input_path}")
        try:
            return config.input_path.read_bytes()
        except OSError as exc:
            raise unreadable(exc)

    _stage("out-dir", make_out_dir)
    try:
        # no name holds the input's bytes, so they are freed once parsed
        readings = _stage("parse", parse_readings, _stage("read-input", read_input))
    except UnicodeDecodeError as exc:  # parse_readings checks for UTF-8 first
        raise DataError(f"[read-input] {unreadable(exc)}")
    readings = _stage("interpolate", interpolate_nulls, readings)
    buckets = _stage("aggregate", aggregate, readings, granularity)
    samples = _stage(
        "features", build_samples, buckets, config.lag_offsets, granularity
    )
    # validation_split gives the rows to fit on; split is still called for
    # the test rows, and bench/tracer.py reads its return value for the
    # splitting.train_n and test_n counts
    _, test = _stage("split", split, samples, config.split)
    if len(test) == 0:
        raise DataError("[split] empty test set")
    train_core, validation = _stage(
        "split", validation_split, samples, config.split, config.validation_fraction
    )

    X = samples.X
    X_core, y_core = X[train_core], samples.y[train_core]
    X_val, y_val = X[validation], samples.y[validation]
    X_test, y_test = X[test], samples.y[test]

    forest = _stage("train-forest", fit_forest, X_core, y_core, config.forest)
    gbt = _stage("train-gbt", fit_gbt, X_core, y_core, config.gbt)

    val_rf = forest.predict_many(X_val)
    val_gbt = gbt.predict_many(X_val)
    weights = _stage(
        "blend", fit_weights, {MODEL_RF: val_rf, MODEL_GBT: val_gbt}, y_val
    )

    pred_rf = forest.predict_many(X_test)
    pred_gbt = gbt.predict_many(X_test)
    pred_blend = predict_blend_many(
        weights, {MODEL_RF: pred_rf, MODEL_GBT: pred_gbt}
    )

    reports = {
        MODEL_RF: compute_metrics(y_test, pred_rf),
        MODEL_GBT: compute_metrics(y_test, pred_gbt),
        MODEL_BLEND: compute_metrics(y_test, pred_blend),
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

    texts = {
        "predictions": ("predictions.csv", _predictions_csv(
            samples.timestamps[test], y_test, pred_rf, pred_gbt, pred_blend
        )),
        "metrics_csv": ("metrics.csv", table.to_csv()),
        "metrics_txt": ("metrics.txt", table.to_text()),
        "reports": ("reports.json", dump_json(reports)),
        "forest": ("forest.json", dump_model(forest)),
        "gbt": ("gbt.json", dump_model(gbt)),
        "weights": ("blend_weights.json", dump_json(weights)),
        "config": ("run_config.json", dump_json(config)),
    }
    files = _stage("write-output", _write_outputs, config.out_dir, texts)
    return ExperimentResult(
        reports=reports,
        table=table,
        weights=weights,
        out_dir=config.out_dir,
        files=files,
    )


def dump_json(obj) -> str:
    """A JSON artifact of a run: dataclasses as their fields
    (`dataclasses.asdict`), paths as strings, keys sorted. Each reloads
    through its class, `cls(**json.loads(text))`."""
    return json.dumps(
        obj,
        sort_keys=True,
        default=lambda o: str(o) if isinstance(o, Path) else dataclasses.asdict(o),
    )


def _predictions_csv(timestamps, *columns) -> str:
    """The prediction CSV: one row per test point, each value as `repr`."""
    rows = io.StringIO()
    writer = csv.writer(rows)
    writer.writerow(PREDICTION_COLUMNS)
    for stamp, *values in zip(np.datetime_as_string(timestamps, unit="m"), *columns):
        writer.writerow([stamp, *(repr(float(v)) for v in values)])
    return rows.getvalue()


def _write_outputs(out_dir: Path, texts: dict) -> dict:
    """Writes each {name: (filename, text)} entry to out_dir and returns
    {name: path}."""
    files = {}
    for name, (filename, text) in texts.items():
        path = files[name] = out_dir / filename
        try:
            # newline="": the text is written as built, CSV line ends included
            path.write_text(text, newline="")
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}")
    return files


def emit_week_series(predictions_csv, anchor: datetime, out_path) -> Path:
    """Slice [anchor, anchor + 7 days) out of a prediction CSV, read by
    `parse_readings` with signed cells under the exact PREDICTION_COLUMNS
    header, and write it as `run_experiment` writes predictions. A malformed
    row, a blank cell or a stamp that is not a whole minute is a DataError."""
    predictions_csv, out_path = Path(predictions_csv), Path(out_path)
    if anchor.tzinfo is not None:
        # prediction timestamps are naive local times, as in the input
        raise ConfigError(f"anchor {anchor.isoformat()} must not carry a UTC offset")
    try:
        end = anchor + timedelta(days=7)
    except OverflowError:
        raise ConfigError(
            f"anchor {anchor.isoformat()}: its 7-day window ends past year 9999"
        )
    try:
        # utf-8-sig: a byte-order mark before the header is skipped
        text = predictions_csv.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read prediction file {predictions_csv}: {exc}")
    header = text.partition("\n")[0].split(",") if text else None
    if header != list(PREDICTION_COLUMNS):
        raise DataError(f"unexpected prediction CSV header: {header}")
    try:
        rows = parse_readings(text, signed=True)  # an estimate may fall below 0
        stamps = rows.timestamps.astype("datetime64[m]")
        blank = np.isnan(rows.values).any(axis=1)
        bad = blank | (stamps != rows.timestamps)
        if bad.any():
            i = int(np.argmax(bad))
            what = "a blank cell" if blank[i] else "a stamp that is not a whole minute"
            # the header is row 1, and blank lines count, as in parser errors
            row, line = [(k, s) for k, s in enumerate(text.split("\n"), 1) if s][i + 1]
            raise DataError(f"{what} at row {row}: {line!r}")
    except DataError as exc:
        raise DataError(f"{predictions_csv}: {exc}") from exc
    first, stop = np.searchsorted(rows.timestamps, np.array([anchor, end], "M8[us]"))
    if first == stop:
        window = f"[{anchor.isoformat()}, {end.isoformat()})"
        raise DataError(f"empty window: no test predictions in {window}")
    week = _predictions_csv(stamps[first:stop], *rows.values[first:stop].T)
    return _write_outputs(out_path.parent, {"week": (out_path.name, week)})["week"]
