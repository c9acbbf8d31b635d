"""Forecast error metrics and model comparison tables.

Errors are predicted - actual. MAD is the mean absolute deviation of the
residuals about their mean (dispersion, insensitive to constant bias); a
median-based variant is available via mad_mode="median". MAPE is reported in
percent over points with nonzero actuals.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError

METRIC_ROWS = ("RMSE", "MAE", "MAD", "MAPE")
MAD_MODES = ("mean", "median")


@dataclass(frozen=True)
class MetricsReport:
    rmse: float
    mae: float
    mad: float
    mape: Optional[float]  # None when every actual is zero
    n_points: int
    n_skipped_mape: int

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsReport":
        try:
            report = cls(**d)
        except TypeError as exc:
            raise DataError(f"malformed metrics report {d!r}: {exc}")
        for name, value in d.items():
            if value is None and name == "mape":
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise DataError(
                    f"malformed metrics report {d!r}: {name} is not a number"
                )
        return report


def rmse(predicted: np.ndarray, actual: np.ndarray) -> float:
    e = predicted - actual
    return float(math.sqrt(np.mean(e * e)))


def check_mad_mode(mad_mode: str) -> None:
    if mad_mode not in MAD_MODES:
        raise ConfigError(f"unknown mad_mode {mad_mode!r}")


def compute_metrics(
    actual: Sequence[float],
    predicted: Sequence[float],
    mad_mode: str = "mean",
) -> MetricsReport:
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if len(actual) == 0:
        raise DataError("empty input series")
    if len(actual) != len(predicted):
        raise DataError(
            f"length mismatch: {len(actual)} actuals vs {len(predicted)} predictions"
        )
    if not (np.isfinite(actual).all() and np.isfinite(predicted).all()):
        raise DataError("series contain non-finite values")
    check_mad_mode(mad_mode)

    e = predicted - actual
    mae = float(np.mean(np.abs(e)))
    center = np.mean if mad_mode == "mean" else np.median
    mad = float(center(np.abs(e - center(e))))

    nonzero = actual != 0.0
    n_skipped = int((~nonzero).sum())
    if nonzero.any():
        mape = float(100.0 * np.mean(np.abs(e[nonzero]) / np.abs(actual[nonzero])))
    else:
        mape = None
    return MetricsReport(
        rmse=rmse(predicted, actual),
        mae=mae,
        mad=mad,
        mape=mape,
        n_points=len(actual),
        n_skipped_mape=n_skipped,
    )


@dataclass
class ComparisonTable:
    models: list  # column order
    values: dict  # metric row -> {model -> float | None}
    best: dict  # metric row -> set of models at the per-row minimum

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("metric," + ",".join(self.models) + "\n")
        for row in METRIC_ROWS:
            cells = []
            for m in self.models:
                v = self.values[row][m]
                cells.append("" if v is None else repr(v))
            out.write(row + "," + ",".join(cells) + "\n")
        return out.getvalue()

    def to_text(self) -> str:
        headers = ["Metric"] + list(self.models)
        rows = []
        for row in METRIC_ROWS:
            cells = [row]
            for m in self.models:
                v = self.values[row][m]
                text = "-" if v is None else f"{v:.2f}"
                if m in self.best[row]:
                    text += " *"
                cells.append(text)
            rows.append(cells)
        widths = [
            max(len(r[i]) for r in [headers] + rows) for i in range(len(headers))
        ]
        lines = []
        for r in [headers] + rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        return "\n".join(lines) + "\n(* = best per metric)\n"


def compare_models(reports: Mapping[str, MetricsReport]) -> ComparisonTable:
    """Metric-by-model table with the per-metric minimum marked; ties all
    count as best."""
    if not reports:
        raise DataError("need at least one report to compare")
    models = list(reports)
    values = {}
    best = {}
    for row in METRIC_ROWS:
        attr = row.lower()
        values[row] = {m: getattr(reports[m], attr) for m in models}
        present = {m: v for m, v in values[row].items() if v is not None}
        if present:
            lo = min(present.values())
            best[row] = {m for m, v in present.items() if v == lo}
        else:
            best[row] = set()
    return ComparisonTable(models=models, values=values, best=best)
