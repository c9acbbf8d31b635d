import dataclasses
import json

import numpy as np
import pytest

from loadcast.ensembles import (
    ForestConfig,
    ForestModel,
    GbtConfig,
    GbtModel,
    dump_model,
    fit_forest,
    fit_gbt,
    load_model,
    _tree_rng,
)
from loadcast.errors import ConfigError
from loadcast.tree import RegressionTree, TreeConfig, fit_tree

FOUR_POINT_X = np.array([[0.0], [1.0], [2.0], [3.0]])
FOUR_POINT_Y = np.array([0.0, 0.0, 10.0, 10.0])


def random_dataset(rng, n=None, p=None):
    n = n or int(rng.integers(10, 60))
    p = p or int(rng.integers(1, 4))
    X = rng.uniform(-5, 5, (n, p))
    y = rng.normal(0, 3, n) + X[:, 0]
    return X, y


def leaf_tree(value):
    return RegressionTree(
        *map(np.array, ([-1], [np.nan], [-1], [float(value)], [1])), n_features=1
    )


def predict_one(model, x):
    return model.predict_many([x])[0]


class TestForest:
    def test_degenerate_config_equals_single_tree(self):
        rng = np.random.default_rng(0)
        X, y = random_dataset(rng)
        config = ForestConfig(n_trees=1, bootstrap=False, feature_fraction=1.0)
        forest = fit_forest(X, y, config)
        single = fit_tree(X, y, config.tree)
        np.testing.assert_array_equal(
            forest.predict_many(X), single.predict_many(X)
        )

    def test_constant_targets(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        forest = fit_forest(X, np.full(10, 4.5), ForestConfig(n_trees=5, seed=1))
        for tree in forest.trees:
            assert tree.feature.tolist() == [-1]
        assert predict_one(forest, [3.0]) == 4.5

    def test_seed_determinism(self):
        rng = np.random.default_rng(1)
        X, y = random_dataset(rng)
        a = fit_forest(X, y, ForestConfig(seed=99))
        b = fit_forest(X, y, ForestConfig(seed=99))
        assert dump_model(a) == dump_model(b)
        c = fit_forest(X, y, ForestConfig(seed=100))
        assert dump_model(a) != dump_model(c)

    def test_prediction_is_mean_of_members(self):
        model = ForestModel(
            trees=[leaf_tree(0.0), leaf_tree(10.0)],
            config=ForestConfig(n_trees=2),
        )
        assert predict_one(model, [1.0]) == 5.0

    def test_fifteen_identical_trees(self):
        model = ForestModel(
            trees=[leaf_tree(7.0)] * 15, config=ForestConfig(n_trees=15)
        )
        assert predict_one(model, [0.0]) == 7.0

    def test_forest_mean_identity(self):
        rng = np.random.default_rng(2)
        X, y = random_dataset(rng)
        forest = fit_forest(X, y, ForestConfig(n_trees=7, seed=5))
        probe = rng.uniform(-5, 5, (30, X.shape[1]))
        member_mean = np.mean([t.predict_many(probe) for t in forest.trees], axis=0)
        assert np.max(np.abs(forest.predict_many(probe) - member_mean)) <= 1e-12

    def test_bootstrap_sample_properties(self):
        n = 37
        for i in range(5):
            rng = _tree_rng(123, i)
            idx = rng.integers(0, n, n)
            assert len(idx) == n
            assert idx.min() >= 0 and idx.max() < n

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            ForestConfig(n_trees=0)
        with pytest.raises(ConfigError):
            ForestConfig(feature_fraction=0.0)
        with pytest.raises(ConfigError):
            ForestConfig(feature_fraction=1.1)

    def test_defaults_are_fifteen_by_ten(self):
        config = ForestConfig()
        assert config.n_trees == 15
        assert config.tree.max_depth == 10
        assert config.tree.min_gain == 0.2


class TestGbt:
    def test_single_round_full_shrinkage_fits_exactly(self):
        config = GbtConfig(
            n_rounds=1,
            shrinkage=1.0,
            tree=TreeConfig(max_depth=50, min_gain=0.0),
        )
        model = fit_gbt(FOUR_POINT_X, FOUR_POINT_Y, config)
        assert model.base_score == 5.0
        # residuals {-5,-5,5,5} recovered by the 1.5 split
        np.testing.assert_allclose(
            model.predict_many(FOUR_POINT_X), FOUR_POINT_Y, atol=1e-12
        )

    def test_constant_targets(self):
        X = np.arange(6, dtype=float).reshape(-1, 1)
        model = fit_gbt(X, np.full(6, 3.0), GbtConfig(n_rounds=4))
        assert model.base_score == 3.0
        for tree in model.trees:
            assert tree.feature.tolist() == [-1]
            assert tree.value[0] == 0.0
        assert predict_one(model, [2.0]) == 3.0

    def test_zero_rounds_rejected(self):
        with pytest.raises(ConfigError):
            GbtConfig(n_rounds=0)

    def test_shrinkage_formula(self):
        rng = np.random.default_rng(3)
        X, y = random_dataset(rng)
        config = GbtConfig(n_rounds=1, shrinkage=0.1)
        model = fit_gbt(X, y, config)
        x = X[0]
        expected = model.base_score + 0.1 * predict_one(model.trees[0], x)
        assert predict_one(model, x) == pytest.approx(expected, abs=1e-12)

    def test_model_length_is_exact_round_count(self):
        X = np.arange(8, dtype=float).reshape(-1, 1)
        model = fit_gbt(X, np.full(8, 2.0), GbtConfig(n_rounds=7))
        assert len(model.trees) == 7  # no-op stages still recorded

    def test_each_tree_reaches_on_tree_as_it_is_grown(self):
        X, y = random_dataset(np.random.default_rng(4))
        seen = []
        model = fit_gbt(X, y, GbtConfig(n_rounds=6), on_tree=seen.append)
        assert seen == model.trees  # the same objects (eq=False), in order
        assert dump_model(model) == dump_model(fit_gbt(X, y, GbtConfig(n_rounds=6)))

    def test_empty_stage_list_predicts_base(self):
        model = GbtModel(base_score=5.0, trees=[], config=GbtConfig())
        assert predict_one(model, [0.0]) == 5.0

    def test_manual_stage_arithmetic(self):
        config = GbtConfig(n_rounds=2, shrinkage=0.5)
        model = GbtModel(
            base_score=5.0, trees=[leaf_tree(-5.0), leaf_tree(2.0)], config=config
        )
        assert predict_one(model, [0.0]) == pytest.approx(5 + 0.5 * (-3.0))

    def test_training_sse_monotone(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            X, y = random_dataset(rng)
            base = float(np.mean(y))
            pred = np.full(len(y), base)
            config = GbtConfig(
                n_rounds=30, shrinkage=0.1, tree=TreeConfig(max_depth=3)
            )
            model = fit_gbt(X, y, config)
            last = float(np.sum((y - pred) ** 2))
            for tree in model.trees:
                pred = pred + config.shrinkage * tree.predict_many(X)
                sse = float(np.sum((y - pred) ** 2))
                assert sse <= last + 1e-9
                last = sse

    def test_seed_determinism(self):
        rng = np.random.default_rng(5)
        X, y = random_dataset(rng)
        a = fit_gbt(X, y, GbtConfig(n_rounds=10))
        b = fit_gbt(X, y, GbtConfig(n_rounds=10))
        assert dump_model(a) == dump_model(b)


def assert_one_tree(tree, n_rows):
    """The node arrays form one binary tree over the n_rows training rows."""
    n = len(tree.feature)
    assert all(a.dtype.kind == "i" for a in (tree.feature, tree.child, tree.n_samples))
    assert tree.threshold.dtype == tree.value.dtype == np.float64
    assert all(len(a) == n for a in (tree.threshold, tree.child, tree.value, tree.n_samples))
    split = np.flatnonzero(tree.feature >= 0)
    leaf = np.flatnonzero(tree.feature < 0)
    left = tree.child[split]
    # children come after their parent and inside the arrays, so following
    # them from the root reaches every node once
    assert (left > split).all() and (left + 1 < n).all()
    parents = np.bincount(np.concatenate([left, left + 1]), minlength=n)
    assert parents[0] == 0 and (parents[1:] == 1).all()
    assert (tree.feature[leaf] == -1).all() and (tree.child[leaf] == -1).all()
    assert (tree.feature[split] < tree.n_features).all()
    assert np.isfinite(tree.value[leaf]).all() and np.isnan(tree.value[split]).all()
    assert np.isnan(tree.threshold[leaf]).all() and np.isfinite(tree.threshold[split]).all()
    assert (tree.n_samples[left] + tree.n_samples[left + 1] == tree.n_samples[split]).all()
    assert tree.n_samples[0] == n_rows and (tree.n_samples[leaf] >= 1).all()


class TestNodeArrays:
    @pytest.mark.parametrize("seed", range(6))
    def test_fitted_and_reloaded_trees_are_trees(self, seed):
        rng = np.random.default_rng(seed)
        X, y = random_dataset(rng, n=int(rng.integers(2, 120)), p=int(rng.integers(1, 5)))
        if seed % 2:
            X = np.round(X)  # many ties
        tree = TreeConfig(max_depth=int(rng.integers(1, 9)),
                          min_gain=float(rng.choice([0.0, 0.05])))
        forest = fit_forest(X, y, ForestConfig(n_trees=5, tree=tree, seed=seed))
        gbt = fit_gbt(X, y, GbtConfig(n_rounds=5, tree=tree))
        for model in (forest, gbt):
            assert any(len(t.feature) > 1 for t in model.trees)
            for t in model.trees + load_model(dump_model(model)).trees:
                assert_one_tree(t, len(y))


class TestSerialization:
    def test_forest_roundtrip(self):
        rng = np.random.default_rng(6)
        X, y = random_dataset(rng)
        forest = fit_forest(X, y, ForestConfig(n_trees=4, seed=2))
        restored = load_model(dump_model(forest))
        assert isinstance(restored, ForestModel)
        probe = rng.uniform(-5, 5, (20, X.shape[1]))
        np.testing.assert_array_equal(
            restored.predict_many(probe), forest.predict_many(probe)
        )
        assert dump_model(restored) == dump_model(forest)

    def test_gbt_roundtrip(self):
        rng = np.random.default_rng(7)
        X, y = random_dataset(rng)
        model = fit_gbt(X, y, GbtConfig(n_rounds=5))
        restored = load_model(dump_model(model))
        assert isinstance(restored, GbtModel)
        probe = rng.uniform(-5, 5, (20, X.shape[1]))
        np.testing.assert_array_equal(
            restored.predict_many(probe), model.predict_many(probe)
        )
        assert dump_model(restored) == dump_model(model)

    def test_gbt_json_with_the_retired_seed_loads(self):
        # gbt.json files written while GbtConfig still had a (never read)
        # seed hold it in their config block; they load to the same model
        rng = np.random.default_rng(7)
        X, y = random_dataset(rng)
        model = fit_gbt(X, y, GbtConfig(n_rounds=3))
        doc = json.loads(dump_model(model))
        assert "seed" not in doc["config"]
        doc["config"]["seed"] = 4
        restored = load_model(json.dumps(doc))
        assert restored.config == model.config
        assert dump_model(restored) == dump_model(model)

    def test_model_json_with_the_retired_gain_mode_loads(self):
        # forest.json and gbt.json files written while TreeConfig still had
        # gain_mode hold it in their tree block; they load, and dump to the
        # same document without it
        rng = np.random.default_rng(7)
        X, y = random_dataset(rng)
        for model in (fit_forest(X, y, ForestConfig(n_trees=2, seed=1)),
                      fit_gbt(X, y, GbtConfig(n_rounds=3))):
            text = dump_model(model)
            old = text.replace('"tree": {', '"tree": {"gain_mode": "absolute", ')
            assert old != text
            assert dump_model(load_model(old)) == text

    def test_config_blocks_are_the_dataclass_fields(self):
        rng = np.random.default_rng(8)
        X, y = random_dataset(rng)
        tree = TreeConfig(max_depth=3, min_samples_split=4)
        forest = fit_forest(X, y, ForestConfig(n_trees=2, tree=tree, seed=9))
        gbt = fit_gbt(X, y, GbtConfig(n_rounds=2, tree=tree))
        for model in (forest, gbt):
            doc = json.loads(dump_model(model))
            assert doc["config"] == dataclasses.asdict(model.config)
            assert load_model(dump_model(model)).config == model.config


    def test_hand_written_models(self):
        # a forest of one tree, and two boosted trees: one a single leaf
        # holding -0.0, one a split at an infinite threshold
        split = RegressionTree(np.array([0, -1, -1]), np.array([np.inf, np.nan, np.nan]),
                               np.array([1, -1, -1]), np.array([np.nan, 1.5, -2.0]),
                               np.array([3, 2, 1]), n_features=2)
        leaf = RegressionTree(np.array([-1]), np.array([np.nan]), np.array([-1]),
                              np.array([-0.0]), np.array([3]), n_features=2)
        split_doc = {"n_features": 2, "root": {
            "kind": "split", "feature_id": 0, "threshold": np.inf,
            "left": {"kind": "leaf", "value": 1.5, "n_samples": 2},
            "right": {"kind": "leaf", "value": -2.0, "n_samples": 1}}}
        leaf_doc = {"n_features": 2, "root": {"kind": "leaf", "value": -0.0, "n_samples": 3}}
        forest = ForestModel(trees=[split], config=ForestConfig(n_trees=1))
        gbt = GbtModel(base_score=0.25, trees=[leaf, split], config=GbtConfig(n_rounds=2))
        bare = GbtModel(base_score=0.25, trees=[], config=GbtConfig(n_rounds=2))
        for model, doc in (
            (forest, {"model": "random_forest", "trees": [split_doc]}),
            (gbt, {"model": "gradient_boosting", "base_score": 0.25,
                   "trees": [leaf_doc, split_doc]}),
            (bare, {"model": "gradient_boosting", "base_score": 0.25, "trees": []}),
        ):
            doc["config"] = dataclasses.asdict(model.config)
            assert dump_model(model) == json.dumps(doc, sort_keys=True)

    def test_unknown_model_type_is_a_config_error(self):
        tree = fit_tree(FOUR_POINT_X, FOUR_POINT_Y)
        with pytest.raises(ConfigError, match="cannot serialize RegressionTree"):
            dump_model(tree)


class TestOneRowPredict:
    def test_equals_scalar_definitions_bit_for_bit(self):
        # the forest mean of one row adds its trees' values in order and then
        # divides by the tree count; the boosted sum adds shrunken tree values
        # to the base score in order. Either way one row gives the same bits
        # alone as in a batch.
        rng = np.random.default_rng(9)
        X, y = random_dataset(rng, n=80, p=3)
        forest = fit_forest(X, y, ForestConfig(n_trees=15, seed=3))
        gbt = fit_gbt(X, y, GbtConfig(n_rounds=20))
        rows = rng.uniform(-6, 6, (200, 3))
        forest_batch = forest.predict_many(rows)
        gbt_batch = gbt.predict_many(rows)
        for i, row in enumerate(rows):
            got = forest.predict(row)
            assert isinstance(got, float)
            expected = 0.0
            for t in forest.trees:
                expected += predict_one(t, row)
            assert got == expected / len(forest.trees)
            assert got == forest_batch[i]
            expected = gbt.base_score
            for t in gbt.trees:
                expected += gbt.config.shrinkage * predict_one(t, row)
            assert gbt.predict(row) == expected
            assert gbt.predict(row) == gbt_batch[i]
