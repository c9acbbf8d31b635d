import json
import math

import numpy as np
import pytest

from loadcast.blend import EnsembleWeights, fit_weights, predict_blend_many
from loadcast.errors import DataError
from loadcast.experiment import dump_json


def blend_one(weights, predictions):
    """The blend of one prediction per model."""
    one_row = {name: [p] for name, p in predictions.items()}
    return predict_blend_many(weights, one_row)[0]


def weights_from_rmses(rmses):
    """Build weights by feeding fit_weights constant-offset predictions that
    realize the requested RMSEs exactly."""
    actuals = [0.0, 0.0]
    predictions = {name: [r, r] for name, r in rmses.items()}
    return fit_weights(predictions, actuals)


def test_published_rmse_pair():
    w = weights_from_rmses({"rf": 141.5, "gbt": 131.13})
    assert w.weights["rf"] == pytest.approx(0.48098, abs=1e-4)
    assert w.weights["gbt"] == pytest.approx(0.51902, abs=1e-4)
    assert w.validation_rmse["rf"] == pytest.approx(141.5)


def test_equal_rmses_split_evenly():
    w = weights_from_rmses({"a": 10.0, "b": 10.0})
    assert w.weights == {"a": 0.5, "b": 0.5}


def test_perfect_model_takes_all():
    w = fit_weights({"a": [1.0, 2.0], "b": [1.5, 2.5]}, [1.0, 2.0])
    assert w.weights == {"a": 1.0, "b": 0.0}


def test_two_perfect_models_tie():
    w = fit_weights({"a": [1.0], "b": [1.0]}, [1.0])
    assert w.weights == {"a": 0.5, "b": 0.5}


def test_length_mismatch():
    with pytest.raises(DataError, match="length mismatch"):
        fit_weights({"a": [1.0, 2.0]}, [1.0])


def test_empty_validation():
    with pytest.raises(DataError, match="empty validation"):
        fit_weights({"a": []}, [])


def test_blend_midpoint():
    w = EnsembleWeights(
        weights={"a": 0.5, "b": 0.5}, validation_rmse={"a": 1.0, "b": 1.0}
    )
    assert blend_one(w, {"a": 100.0, "b": 200.0}) == 150.0


def test_degenerate_weight_passthrough():
    w = EnsembleWeights(
        weights={"a": 1.0, "b": 0.0}, validation_rmse={"a": 0.0, "b": 9.0}
    )
    assert blend_one(w, {"a": 42.0, "b": -1e9}) == 42.0


def test_published_weight_combination():
    w = EnsembleWeights(
        weights={"a": 0.48098, "b": 0.51902},
        validation_rmse={"a": 141.5, "b": 131.13},
    )
    assert blend_one(w, {"a": 100.0, "b": 200.0}) == pytest.approx(
        151.902, abs=1e-3
    )


def test_arity_mismatch():
    w = EnsembleWeights(weights={"a": 1.0}, validation_rmse={"a": 1.0})
    with pytest.raises(DataError):
        blend_one(w, {"a": 1.0, "b": 2.0})


def test_normalization_and_nonnegativity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(2, 30))
        actual = rng.normal(0, 10, n)
        preds = {f"m{i}": actual + rng.normal(0, 5, n) for i in range(k)}
        w = fit_weights(preds, actual)
        assert abs(sum(w.weights.values()) - 1.0) <= 1e-12
        assert all(v >= 0 for v in w.weights.values())


def test_scale_equivariance_of_weights():
    rng = np.random.default_rng(1)
    actual = rng.normal(0, 10, 20)
    preds = {
        "a": actual + rng.normal(0, 2, 20),
        "b": actual + rng.normal(0, 5, 20),
    }
    w1 = fit_weights(preds, actual)
    # scaling both series by a constant scales every RMSE by it
    scaled = {k: 3.0 * np.asarray(v) for k, v in preds.items()}
    w2 = fit_weights(scaled, 3.0 * actual)
    for name in w1.weights:
        assert w2.weights[name] == pytest.approx(w1.weights[name], abs=1e-12)


def test_convexity_and_betweenness():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(2, 50))
        actual = rng.normal(0, 10, n)
        preds = {
            "a": actual + rng.normal(0, rng.uniform(0.5, 5), n),
            "b": actual + rng.normal(0, rng.uniform(0.5, 5), n),
        }
        w = fit_weights(preds, actual)
        blended = predict_blend_many(w, preds)

        def rmse(p):
            return math.sqrt(float(np.mean((np.asarray(p) - actual) ** 2)))

        def mae(p):
            return float(np.mean(np.abs(np.asarray(p) - actual)))

        worst_rmse = max(rmse(preds["a"]), rmse(preds["b"]))
        worst_mae = max(mae(preds["a"]), mae(preds["b"]))
        assert rmse(blended) <= worst_rmse + 1e-9
        assert mae(blended) <= worst_mae + 1e-9
        lo = np.minimum(preds["a"], preds["b"])
        hi = np.maximum(preds["a"], preds["b"])
        assert np.all(blended >= lo - 1e-12) and np.all(blended <= hi + 1e-12)


def test_serialization_roundtrip():
    w = weights_from_rmses({"rf": 2.0, "gbt": 3.0})
    restored = EnsembleWeights(**json.loads(dump_json(w)))
    assert restored.weights == w.weights
    assert restored.validation_rmse == w.validation_rmse
