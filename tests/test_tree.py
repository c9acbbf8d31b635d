import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loadcast.errors import ConfigError, DataError, SchemaError
from loadcast.tree import (
    RegressionTree,
    TreeConfig,
    best_split,
    dump_tree,
    fit_tree,
    grow_level_wise,
    load_tree,
    predict_trees,
    presort,
)

import oracles

FOUR_POINT_X = np.array([[0.0], [1.0], [2.0], [3.0]])
FOUR_POINT_Y = np.array([0.0, 0.0, 10.0, 10.0])


def predict_one(tree, x):
    return tree.predict_many([x])[0]


def walk(tree, row):
    """The ids of the nodes one row passes, root to leaf, taken one node at a
    time: the reference for the batch descent of `predict_many`."""
    path = [0]
    while tree.feature[path[-1]] >= 0:
        node = path[-1]
        go_left = row[tree.feature[node]] <= tree.threshold[node]
        path.append(tree.child[node] + (0 if go_left else 1))
    return path


class TestBestSplit:
    def test_clean_separation(self):
        cand = best_split(FOUR_POINT_X, FOUR_POINT_Y)
        assert cand.feature_id == 0
        assert cand.threshold == 1.5
        assert cand.gain == 25.0
        assert cand.relative_gain == 1.0

    def test_constant_targets(self):
        assert best_split(FOUR_POINT_X, np.zeros(4)) is None

    def test_two_samples(self):
        cand = best_split(np.array([[0.0], [1.0]]), np.array([0.0, 2.0]))
        assert cand.threshold == 0.5
        assert cand.gain == 1.0

    def test_single_sample(self):
        assert best_split(np.array([[1.0]]), np.array([5.0])) is None

    def test_no_usable_feature(self):
        # identical feature values: no midpoint exists
        X = np.array([[1.0], [1.0], [1.0]])
        assert best_split(X, np.array([0.0, 1.0, 2.0])) is None

    def test_no_feature_no_split(self):
        assert best_split(np.empty((4, 0)), FOUR_POINT_Y) is None

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(300):
            n = int(rng.integers(2, 31))
            p = int(rng.integers(1, 4))
            X = rng.uniform(-10, 10, (n, p))
            y = rng.integers(-20, 21, n).astype(float)
            cand = best_split(X, y)
            expected = oracles.brute_force_best_split(X.tolist(), y.tolist())
            if expected is None:
                assert cand is None
            else:
                assert cand is not None
                assert (cand.feature_id, cand.threshold, cand.gain) == expected

    def test_gain_positive_and_relative_bounded(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            X = rng.uniform(0, 1, (n, 2))
            y = rng.normal(0, 5, n)
            cand = best_split(X, y)
            if cand is not None:
                assert cand.gain > 0
                assert 0 < cand.relative_gain <= 1.0


class TestFitTree:
    def test_two_leaf_tree(self):
        tree = fit_tree(FOUR_POINT_X, FOUR_POINT_Y, TreeConfig())
        assert tree.depth() == 1
        assert predict_one(tree, [0.0]) == 0.0
        assert predict_one(tree, [3.0]) == 10.0
        pred = tree.predict_many(FOUR_POINT_X)
        np.testing.assert_array_equal(pred, FOUR_POINT_Y)

    def test_memorizes_with_distinct_features(self):
        rng = np.random.default_rng(2)
        X = rng.permutation(20).astype(float).reshape(-1, 1)
        y = rng.normal(0, 10, 20)
        tree = fit_tree(X, y, TreeConfig(max_depth=50, min_gain=0.0))
        np.testing.assert_allclose(tree.predict_many(X), y, atol=1e-12)

    def test_constant_targets_single_leaf(self):
        tree = fit_tree(FOUR_POINT_X, np.full(4, 7.0), TreeConfig())
        assert tree.feature.tolist() == [-1]
        assert tree.value[0] == 7.0

    def test_empty_input(self):
        with pytest.raises(DataError):
            fit_tree(np.empty((0, 1)), np.array([]), TreeConfig())

    def test_depth_bound(self):
        rng = np.random.default_rng(4)
        for depth in (1, 2, 5):
            X = rng.uniform(0, 1, (200, 3))
            y = rng.normal(0, 1, 200)
            tree = fit_tree(X, y, TreeConfig(max_depth=depth, min_gain=0.0))
            assert tree.depth() <= depth

    def test_leaf_values_are_routed_means(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(0, 1, (80, 2))
        y = rng.normal(0, 3, 80)
        tree = fit_tree(X, y, TreeConfig(max_depth=4, min_gain=0.0))

        groups = {}
        for row, target in zip(X, y):
            groups.setdefault(walk(tree, row)[-1], []).append(target)
        assert sorted(groups) == np.flatnonzero(tree.feature < 0).tolist()
        for leaf, targets in groups.items():
            assert tree.value[leaf] == pytest.approx(np.mean(targets), abs=1e-12)
            assert tree.n_samples[leaf] == len(targets)

    def test_min_gain_monotone_pruning(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 1, (150, 3))
        y = rng.normal(0, 2, 150)
        counts = []
        for gain in (0.0, 0.05, 0.1, 0.3, 0.6, 1.0):
            tree = fit_tree(X, y, TreeConfig(max_depth=8, min_gain=gain))
            counts.append(len(tree.feature))
        assert counts == sorted(counts, reverse=True)


class TestPredict:
    def test_single_leaf(self):
        tree = RegressionTree(*map(np.array, ([-1], [np.nan], [-1], [7.0], [1])), n_features=3)
        assert predict_one(tree, [0.0, 1.0, 2.0]) == 7.0

    def test_threshold_boundary_goes_left(self):
        tree = fit_tree(FOUR_POINT_X, FOUR_POINT_Y, TreeConfig())
        assert predict_one(tree, [1.5]) == 0.0

    def test_identical_routing_identical_prediction(self):
        rng = np.random.default_rng(10)
        X = rng.uniform(0, 1, (50, 2))
        y = rng.normal(0, 1, 50)
        tree = fit_tree(X, y, TreeConfig(max_depth=3, min_gain=0.0))
        a = predict_one(tree, [0.2, 0.2])
        b = predict_one(tree, [0.2, 0.2])
        assert a == b

    def test_schema_mismatch(self):
        tree = fit_tree(FOUR_POINT_X, FOUR_POINT_Y, TreeConfig())
        with pytest.raises(SchemaError):
            predict_one(tree, [1.0, 2.0])
        with pytest.raises(SchemaError):
            tree.predict_many([1.0])  # one row must still be a 2-D array

    def test_rows_walk_like_the_nodes(self):
        rng = np.random.default_rng(14)
        X = rng.uniform(0, 1, (120, 3))
        tree = fit_tree(X, rng.normal(0, 1, 120), TreeConfig(max_depth=6, min_gain=0.0))
        # rows exactly at each threshold, outside the training range, NaN
        # (goes right at every split) and signed zeros
        split = np.flatnonzero(tree.feature >= 0)
        at_threshold = X[:len(split)].copy()
        at_threshold[np.arange(len(split)), tree.feature[split]] = tree.threshold[split]
        some_nan = rng.uniform(0, 1, (30, 3))
        some_nan[rng.random((30, 3)) < 0.4] = np.nan
        probe = np.vstack([
            X[:40], rng.uniform(-0.5, 1.5, (40, 3)), at_threshold, some_nan,
            np.full((1, 3), np.nan), np.zeros((1, 3)), np.full((1, 3), -0.0),
            [[np.inf, -np.inf, 1e300]], [[-1e300, np.inf, -np.inf]],
        ])
        assert len(split) > 10
        for row, got in zip(probe, tree.predict_many(probe)):
            assert got == tree.value[walk(tree, row)[-1]]
        assert tree.predict_many(np.empty((0, 3))).shape == (0,)


    def test_stacked_trees_predict_as_each_alone(self):
        rng = np.random.default_rng(15)
        X = rng.uniform(0, 1, (90, 3))
        trees = [fit_tree(X, rng.normal(0, 1, 90), TreeConfig(max_depth=d, min_gain=0.0))
                 for d in (3, 1, 6)]
        trees.insert(1, fit_tree(X, np.full(90, 2.0)))  # a single leaf
        probe = np.vstack([X[:20], rng.uniform(-1, 2, (20, 3)), np.full((1, 3), np.nan)])
        stacked = predict_trees(trees, probe)
        assert stacked.shape == (4, 41)
        for tree, got in zip(trees, stacked):
            assert got.tobytes() == tree.predict_many(probe).tobytes()
        assert predict_trees([], probe).shape == (0, 41)
        with pytest.raises(SchemaError):
            predict_trees(trees, probe[:, :2])


class TestConfig:
    def test_invalid_values(self):
        with pytest.raises(ConfigError):
            TreeConfig(max_depth=0)
        with pytest.raises(ConfigError):
            TreeConfig(min_gain=-0.1)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="finite"):
                TreeConfig(min_gain=bad)
        with pytest.raises(ConfigError):
            TreeConfig(min_samples_split=1)


class TestSerialization:
    def test_roundtrip_bit_identical(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(0, 1, (60, 3))
        y = rng.normal(0, 4, 60)
        tree = fit_tree(X, y, TreeConfig(max_depth=6, min_gain=0.0))
        restored = load_tree(dump_tree(tree))
        assert restored.n_features == tree.n_features
        probe = rng.uniform(0, 1, (40, 3))
        np.testing.assert_array_equal(
            restored.predict_many(probe), tree.predict_many(probe)
        )
        assert dump_tree(restored) == dump_tree(tree)

    @pytest.mark.parametrize("arrays, root", [
        pytest.param(([-1], [math.nan], [-1], [2.5], [4]),
                     {"kind": "leaf", "value": 2.5, "n_samples": 4}, id="single-leaf"),
        pytest.param(([-1], [math.nan], [-1], [-0.0], [1]),
                     {"kind": "leaf", "value": -0.0, "n_samples": 1}, id="negative-zero-leaf"),
        pytest.param(([1, -1, -1], [math.inf, math.nan, math.nan], [1, -1, -1],
                      [math.nan, -0.0, 7.25], [5, 3, 2]),
                     {"kind": "split", "feature_id": 1, "threshold": math.inf,
                      "left": {"kind": "leaf", "value": -0.0, "n_samples": 3},
                      "right": {"kind": "leaf", "value": 7.25, "n_samples": 2}},
                     id="infinite-threshold"),
        # subtrees of unequal size on either side: the root's left child is a
        # leaf, its right child splits, and that split's left child splits
        pytest.param(([0, -1, 2, 1, -1, -1, -1], [0.5, math.nan, -1.25, 3.0] + [math.nan] * 3,
                      [1, -1, 3, 5, -1, -1, -1], [math.nan, 1.0, math.nan, math.nan, 2.0, 3.0, 4.0],
                      [9, 2, 7, 4, 3, 1, 3]),
                     {"kind": "split", "feature_id": 0, "threshold": 0.5,
                      "left": {"kind": "leaf", "value": 1.0, "n_samples": 2},
                      "right": {"kind": "split", "feature_id": 2, "threshold": -1.25,
                                "left": {"kind": "split", "feature_id": 1, "threshold": 3.0,
                                         "left": {"kind": "leaf", "value": 3.0, "n_samples": 1},
                                         "right": {"kind": "leaf", "value": 4.0, "n_samples": 3}},
                                "right": {"kind": "leaf", "value": 2.0, "n_samples": 3}}},
                     id="lopsided"),
    ])
    def test_hand_written_trees(self, arrays, root):
        feature, threshold, child, value, n_samples = (np.array(a) for a in arrays)
        tree = RegressionTree(feature, threshold, child, value, n_samples, n_features=3)
        expected = json.dumps({"n_features": 3, "root": root}, sort_keys=True)
        assert dump_tree(tree) == expected
        assert dump_tree(load_tree(expected)) == expected


@st.composite
def _tree_problems(draw):
    """(X, y, config, sampler seed or None, features per node): few distinct
    rows drawn with repeats, as a bootstrap sample has them; integer columns
    with many ties, or floats; integer or float targets."""
    p = draw(st.integers(1, 4))
    if draw(st.booleans()):
        value = st.integers(0, 3).map(float)
    else:
        value = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
    distinct = draw(st.lists(st.lists(value, min_size=p, max_size=p),
                             min_size=1, max_size=20))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=40))
    if draw(st.booleans()):
        target = st.integers(-20, 20).map(float)
    else:
        target = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    y = draw(st.lists(target, min_size=len(picks), max_size=len(picks)))
    config = TreeConfig(
        max_depth=draw(st.integers(1, 8)),
        min_gain=draw(st.sampled_from((0.0, 0.2))),
        min_samples_split=draw(st.integers(2, 6)),
    )
    seed = draw(st.none() | st.integers(0, 2**32 - 1))
    k = draw(st.integers(1, p))
    return np.array(distinct)[picks], np.array(y), config, seed, k


# constant columns to insert: (position, value), as a daily run's year, hour
# and half-hour columns are constant over its training rows
_CONSTANT_COLUMNS = st.lists(
    st.tuples(st.integers(0, 5), st.sampled_from((0.0, 1.0, 2015.0, None))),
    max_size=3,
)


def _keyed_draws(seed, p, k):
    """(mask, sampler): k of p features per node, drawn from the node's own
    stream keyed (seed, node id), as the grower's mask and as the oracle's
    per-node feature ids; both None without a seed."""
    if seed is None:
        return None, None

    def sampler(node):
        return np.random.default_rng((seed, node)).choice(p, size=k, replace=False)

    def mask(nodes):
        drawn = np.zeros((len(nodes), p), dtype=bool)
        for row, node in zip(drawn, nodes.tolist()):
            row[sampler(node)] = True
        return drawn

    return mask, sampler


def _with_constant_columns(X, constants):
    for at, value in constants:
        # None: a column of 0.0 and -0.0, equal values of two signs
        column = (np.where(np.arange(len(X)) % 2, 0.0, -0.0) if value is None
                  else np.full(len(X), value))
        X = np.insert(X, min(at, X.shape[1]), column, axis=1)
    return X


def _oracle_tree(X, y, config, sampler=None):
    return json.dumps(oracles.per_node_tree(
        X, y, config.max_depth, config.min_gain, config.min_samples_split, sampler,
    ), sort_keys=True)


class TestGrowerOracle:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_tree_problems())
    def test_same_tree_as_the_per_node_grower(self, problem):
        X, y, config, _, _ = problem
        assert dump_tree(fit_tree(X, y, config)) == _oracle_tree(X, y, config)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_tree_problems(), _CONSTANT_COLUMNS)
    def test_keyed_masks_grow_the_per_node_tree(self, problem, constants):
        # the same keyed draw per node id, breadth-first ids on both sides
        X, y, config, seed, k = problem
        X = _with_constant_columns(X, constants)
        mask, sampler = _keyed_draws(seed, X.shape[1], k)
        got = grow_level_wise(X, y, presort(X), config, mask)
        want = _oracle_tree(X, y, config, sampler)
        assert dump_tree(got) == want
        # the ids the masks were keyed by are those of the reloaded tree
        reloaded = load_tree(want)
        for name in ("feature", "threshold", "child", "value", "n_samples"):
            assert getattr(got, name).tobytes() == getattr(reloaded, name).tobytes(), name

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_tree_problems())
    def test_fitted_values_are_the_predictions(self, problem):
        # each training row is predicted the mean of the rows in its leaf,
        # with the bits of their ascending sum over their count
        X, y, config, seed, k = problem
        mask, _ = _keyed_draws(seed, X.shape[1], k)
        tree = grow_level_wise(X, y, presort(X), config, mask)
        leaf_of = np.array([walk(tree, row)[-1] for row in X])
        fitted = np.empty(len(y))
        for leaf in np.unique(leaf_of):
            rows = np.flatnonzero(leaf_of == leaf)
            fitted[rows] = y[rows].sum() / len(rows)
            assert tree.n_samples[leaf] == len(rows)
        assert fitted.tobytes() == tree.predict_many(X).tobytes()

    def test_level_wise_grower_on_larger_samples(self):
        # past numpy's 8-wide and 128-row pairwise-sum blocks, with levels of
        # unequal nodes and more padded cells than one scoring pass holds
        rng = np.random.default_rng(2024)
        for n, p in ((300, 3), (700, 6)):
            X = rng.integers(0, 12, (n, p)).astype(float)
            X[:, 0] = rng.normal(0, 1, n)
            y = rng.normal(50, 20, n) + 5 * X[:, 1]
            for config, seed in (
                (TreeConfig(), None),
                (TreeConfig(max_depth=10, min_gain=0.0), None),
                (TreeConfig(max_depth=10, min_gain=0.0), 7),
                (TreeConfig(max_depth=6, min_gain=0.01, min_samples_split=5), 8),
            ):
                mask, sampler = _keyed_draws(seed, p, 2)
                got = grow_level_wise(X, y, presort(X), config, mask)
                assert dump_tree(got) == _oracle_tree(X, y, config, sampler)

    def test_level_wise_grower_without_features(self):
        X = np.empty((4, 0))
        got = fit_tree(X, FOUR_POINT_Y, TreeConfig())
        assert dump_tree(got) == _oracle_tree(X, FOUR_POINT_Y, TreeConfig())
        assert got.feature.tolist() == [-1]
