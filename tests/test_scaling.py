import json

import numpy as np
import pytest

from loadcast.errors import ConfigError, SchemaError
from loadcast.experiment import dump_json
from loadcast.scaling import Scaler, fit_scaler


def col(values):
    return np.array(values, dtype=float).reshape(-1, 1)


def test_minmax_fit_stats():
    s = fit_scaler(col([0, 5, 10]), ["a"], "minmax")
    assert (s.lo, s.hi) == ([0.0], [10.0])


def test_maxabs_fit_stats():
    s = fit_scaler(col([-4, 2]), ["a"], "maxabs")
    assert (s.lo, s.hi) == ([0.0], [4.0])


def test_minmax_transform():
    s = fit_scaler(col([0, 5, 10]), ["a"], "minmax")
    out = s.transform(col([0, 5, 10]))
    assert out[:, 0].tolist() == [0.0, 0.5, 1.0]


def test_maxabs_transform():
    s = fit_scaler(col([-4, 2]), ["a"], "maxabs")
    out = s.transform(col([-4, 2]))
    assert out[:, 0].tolist() == [-1.0, 0.5]


def test_out_of_range_value_not_clipped():
    s = fit_scaler(col([0, 5, 10]), ["a"], "minmax")
    assert s.transform(col([12]))[0, 0] == pytest.approx(1.2)


def test_constant_feature_maps_to_zero():
    s = fit_scaler(col([7, 7]), ["a"], "minmax")
    assert (s.lo, s.hi) == ([7.0], [7.0])
    assert s.transform(col([7, 9]))[:, 0].tolist() == [0.0, 0.0]
    # inverse of a degenerate feature restores the constant
    assert s.inverse_transform(col([0.0]))[0, 0] == 7.0


def test_passthrough_features_untouched():
    X = np.array([[10.0, 2.0, 1.0], [20.0, 3.0, 0.0]])
    s = fit_scaler(X, ["hour", "season", "is_weekend"], "minmax")
    out = s.transform(X)
    assert out[:, 1].tolist() == [2.0, 3.0]
    assert out[:, 2].tolist() == [1.0, 0.0]
    assert out[:, 0].tolist() == [0.0, 1.0]
    assert (s.lo[1:], s.hi[1:]) == ([0.0, 0.0], [1.0, 1.0])


def test_affine_map_keeps_the_bits_of_each_kind():
    # minmax is (x - min) / (max - min), maxabs x / max|x| and a pass-through
    # column is returned as it is, bit for bit (-0.0 included)
    rng = np.random.default_rng(5)
    X = rng.uniform(-30, 30, (40, 3))
    X[0, 1] = -0.0
    names = ["a", "season", "b"]
    minmax = fit_scaler(X, names, "minmax").transform(X)
    maxabs = fit_scaler(X, names, "maxabs").transform(X)
    for j in (0, 2):
        col = X[:, j]
        expected = (col - col.min()) / (col.max() - col.min())
        assert minmax[:, j].tobytes() == expected.tobytes()
        assert maxabs[:, j].tobytes() == (col / np.abs(col).max()).tobytes()
    for out in (minmax, maxabs):
        assert out[:, 1].tobytes() == X[:, 1].tobytes()


def test_schema_mismatch():
    s = fit_scaler(col([0, 1]), ["a"], "minmax")
    with pytest.raises(SchemaError):
        s.transform(col([0]), names=["b"])


def test_unknown_kind():
    with pytest.raises(ConfigError):
        Scaler(kind="standard")


def test_roundtrip_and_range_properties():
    rng = np.random.default_rng(11)
    for kind in ("minmax", "maxabs"):
        for _ in range(30):
            n, p = rng.integers(2, 50), rng.integers(1, 6)
            X = rng.uniform(-100, 100, (n, p))
            names = [f"f{j}" for j in range(p)]
            s = fit_scaler(X, names, kind)
            T = s.transform(X)
            if kind == "minmax":
                assert T.min() >= -1e-12 and T.max() <= 1 + 1e-12
            else:
                assert np.abs(T).max() <= 1 + 1e-12
            back = s.inverse_transform(T)
            assert np.max(np.abs(back - X)) <= 1e-12 * max(1.0, np.abs(X).max())


def test_text_serialization_roundtrip():
    rng = np.random.default_rng(3)
    X = rng.uniform(-50, 50, (20, 3))
    for kind in ("minmax", "maxabs"):
        s = fit_scaler(X, ["a", "b", "c"], kind)
        restored = Scaler(**json.loads(dump_json(s)))
        assert restored == s
        np.testing.assert_array_equal(restored.transform(X), s.transform(X))
