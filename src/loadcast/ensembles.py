"""Random Forest and Gradient Boosted Trees built on the regression tree.

The forest averages trees grown on bootstrap resamples with per-node feature
subsampling; boosting fits each tree to the squared-error residuals of the
running prediction and adds it scaled by the shrinkage factor.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, SchemaError
from .tree import (
    RegressionTree,
    TreeConfig,
    fit_tree,
    tree_from_dict,
    tree_to_dict,
)


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 15
    tree: TreeConfig = field(default_factory=TreeConfig)
    bootstrap: bool = True
    feature_fraction: float = 1 / 3
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ConfigError(f"n_trees must be >= 1, got {self.n_trees}")
        if not 0.0 < self.feature_fraction <= 1.0:
            raise ConfigError(
                f"feature_fraction must be in (0,1], got {self.feature_fraction}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass
class ForestModel:
    trees: list
    config: ForestConfig

    def predict(self, x) -> float:
        return float(np.mean([t.predict(x) for t in self.trees]))

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        return np.mean([t.predict_many(X) for t in self.trees], axis=0)


@dataclass(frozen=True)
class GbtConfig:
    n_rounds: int = 100
    shrinkage: float = 0.1
    tree: TreeConfig = field(default_factory=TreeConfig)
    seed: int = 0

    def __post_init__(self):
        if self.n_rounds < 1:
            raise ConfigError(f"n_rounds must be >= 1, got {self.n_rounds}")
        if not 0.0 < self.shrinkage <= 1.0:
            raise ConfigError(
                f"shrinkage must be in (0,1], got {self.shrinkage}"
            )


@dataclass
class GbtModel:
    base_score: float
    trees: list
    config: GbtConfig

    def predict(self, x) -> float:
        out = self.base_score
        for t in self.trees:
            out += self.config.shrinkage * t.predict(x)
        return float(out)

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        out = np.full(len(X), self.base_score)
        for t in self.trees:
            out = out + self.config.shrinkage * t.predict_many(X)
        return out


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    # keyed stream: each tree's randomness is independent of fit order
    return np.random.default_rng((seed, tree_index))


def fit_forest(X: np.ndarray, y: np.ndarray, config: ForestConfig) -> ForestModel:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n == 0:
        raise DataError("cannot fit a forest on an empty sample set")
    p = X.shape[1]
    k = max(1, math.ceil(config.feature_fraction * p))

    trees = []
    for i in range(config.n_trees):
        rng = _tree_rng(config.seed, i)
        if config.bootstrap:
            idx = rng.integers(0, n, n)
            Xb, yb = X[idx], y[idx]
        else:
            Xb, yb = X, y
        if k < p:
            sampler = lambda: rng.choice(p, size=k, replace=False)
        else:
            sampler = None
        trees.append(fit_tree(Xb, yb, config.tree, feature_sampler=sampler))
    return ForestModel(trees=trees, config=config)


def predict_forest(model: ForestModel, x) -> float:
    return model.predict(np.asarray(x, dtype=float))


def fit_gbt(X: np.ndarray, y: np.ndarray, config: GbtConfig) -> GbtModel:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(y) == 0:
        raise DataError("cannot fit boosted trees on an empty sample set")
    base = float(np.mean(y))
    pred = np.full(len(y), base)
    trees = []
    for _ in range(config.n_rounds):
        residuals = y - pred
        tree = fit_tree(X, residuals, config.tree)
        pred = pred + config.shrinkage * tree.predict_many(X)
        trees.append(tree)
    return GbtModel(base_score=base, trees=trees, config=config)


def predict_gbt(model: GbtModel, x) -> float:
    return model.predict(np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# serialization


def forest_config_dict(c: ForestConfig) -> dict:
    return {
        "n_trees": c.n_trees,
        "bootstrap": c.bootstrap,
        "feature_fraction": c.feature_fraction,
        "seed": c.seed,
        "tree": _tree_config_dict(c.tree),
    }


def forest_to_dict(model: ForestModel) -> dict:
    return {
        "model": "random_forest",
        "config": forest_config_dict(model.config),
        "trees": [tree_to_dict(t) for t in model.trees],
    }


def forest_from_dict(doc: dict) -> ForestModel:
    c = doc["config"]
    config = ForestConfig(
        n_trees=c["n_trees"],
        bootstrap=c["bootstrap"],
        feature_fraction=c["feature_fraction"],
        seed=c["seed"],
        tree=_tree_config_from(c["tree"]),
    )
    return ForestModel(
        trees=[tree_from_dict(t) for t in doc["trees"]], config=config
    )


def gbt_config_dict(c: GbtConfig) -> dict:
    return {
        "n_rounds": c.n_rounds,
        "shrinkage": c.shrinkage,
        "seed": c.seed,
        "tree": _tree_config_dict(c.tree),
    }


def gbt_to_dict(model: GbtModel) -> dict:
    return {
        "model": "gradient_boosting",
        "base_score": model.base_score,
        "config": gbt_config_dict(model.config),
        "trees": [tree_to_dict(t) for t in model.trees],
    }


def gbt_from_dict(doc: dict) -> GbtModel:
    c = doc["config"]
    config = GbtConfig(
        n_rounds=c["n_rounds"],
        shrinkage=c["shrinkage"],
        seed=c.get("seed", 0),
        tree=_tree_config_from(c["tree"]),
    )
    return GbtModel(
        base_score=doc["base_score"],
        trees=[tree_from_dict(t) for t in doc["trees"]],
        config=config,
    )


def dump_model(model) -> str:
    if isinstance(model, ForestModel):
        return json.dumps(forest_to_dict(model), sort_keys=True)
    if isinstance(model, GbtModel):
        return json.dumps(gbt_to_dict(model), sort_keys=True)
    raise ConfigError(f"cannot serialize {type(model).__name__}")


def load_model(text: str):
    doc = json.loads(text)
    if doc.get("model") == "random_forest":
        return forest_from_dict(doc)
    if doc.get("model") == "gradient_boosting":
        return gbt_from_dict(doc)
    raise DataError(f"unknown model kind {doc.get('model')!r}")


def _tree_config_dict(c: TreeConfig) -> dict:
    return {
        "max_depth": c.max_depth,
        "min_gain": c.min_gain,
        "min_samples_split": c.min_samples_split,
        "gain_mode": c.gain_mode,
    }


def _tree_config_from(d: dict) -> TreeConfig:
    return TreeConfig(
        max_depth=d["max_depth"],
        min_gain=d["min_gain"],
        min_samples_split=d["min_samples_split"],
        gain_mode=d["gain_mode"],
    )
