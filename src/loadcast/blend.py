"""Weighted-average blending of model predictions.

Weights are proportional to inverse validation RMSE, so the more accurate
model contributes more; a perfect model (RMSE 0) takes all the weight.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .metrics import rmse


@dataclass
class EnsembleWeights:
    """Saved and reloaded as its fields (`EnsembleWeights(**doc)`)."""

    weights: dict  # model name -> weight, summing to 1
    validation_rmse: dict  # model name -> RMSE the weight came from
    metric: str = "rmse"


def fit_weights(
    predictions: Mapping[str, Sequence[float]], actuals: Sequence[float]
) -> EnsembleWeights:
    """Inverse-RMSE weights from validation predictions vs. actuals."""
    if not predictions:
        raise ConfigError("need at least one model to weight")
    actuals = np.asarray(actuals, dtype=float)
    if len(actuals) == 0:
        raise DataError("empty validation set")
    rmses = {}
    for name, pred in predictions.items():
        pred = np.asarray(pred, dtype=float)
        if len(pred) != len(actuals):
            raise DataError(
                f"length mismatch for {name!r}: {len(pred)} predictions "
                f"vs {len(actuals)} actuals"
            )
        rmses[name] = rmse(pred, actuals)

    perfect = [n for n, r in rmses.items() if r == 0.0]
    if perfect:
        weights = {n: (1.0 / len(perfect) if n in perfect else 0.0) for n in rmses}
    else:
        if not any(math.isfinite(r) for r in rmses.values()):
            raise DataError("no model has a finite validation RMSE")
        inv = {n: 1.0 / r for n, r in rmses.items()}
        total = sum(inv.values())
        weights = {n: v / total for n, v in inv.items()}
    return EnsembleWeights(weights=weights, validation_rmse=rmses)


def predict_blend_many(
    weights: EnsembleWeights, predictions: Mapping[str, Sequence[float]]
) -> np.ndarray:
    """Convex combination of the weighted models' prediction arrays."""
    if set(predictions) != set(weights.weights):
        raise DataError(
            f"prediction keys {sorted(predictions)} do not match "
            f"weighted models {sorted(weights.weights)}"
        )
    arrays = {n: np.asarray(p, dtype=float) for n, p in predictions.items()}
    lengths = {len(a) for a in arrays.values()}
    if len(lengths) != 1:
        raise DataError("per-model prediction lengths differ")
    out = np.zeros(lengths.pop())
    for n, a in arrays.items():
        out = out + weights.weights[n] * a
    return out
