"""Random Forest and Gradient Boosted Trees built on the regression tree.

The forest averages trees grown on bootstrap resamples with per-node feature
subsampling, each node's features drawn from its own keyed stream; boosting
fits each tree to the squared-error residuals of the running prediction and
adds it scaled by the shrinkage factor.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ConfigError, DataError
from .tree import (
    TreeConfig,
    dump_tree,
    grow_level_wise,
    predict_trees,
    presort,
    tree_from_dict,
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

    # kept: bench/tracer.py hooks it by name, and bench/test_bench.py reads its count
    def predict(self, x) -> float:
        """One row; equal, bit for bit, to its entry in a batch."""
        return float(self.predict_many([x])[0])

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        # trees added in order (cumsum), then divided: np.mean would sum the trees
        # of a single row pairwise and give other bits than the row in a batch
        return predict_trees(self.trees, X).cumsum(axis=0)[-1] / len(self.trees)


@dataclass(frozen=True)
class GbtConfig:
    n_rounds: int = 100
    shrinkage: float = 0.1
    tree: TreeConfig = field(default_factory=TreeConfig)

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

    predict = ForestModel.predict  # the same one-row body, hooked on this class too

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        # the base score, then each shrunken tree, added in order
        shrunk = self.config.shrinkage * predict_trees(self.trees, X)
        return np.vstack([np.full(len(X), self.base_score), shrunk]).cumsum(axis=0)[-1]


def _tree_rng(*key: int) -> np.random.Generator:
    # keyed stream: (seed, tree) draws a tree's bootstrap sample and
    # (seed, tree, node) a node's features, independent of fit and growth order
    return np.random.default_rng(key)


def _feature_draws(seed: int, tree_index: int, p: int, k: int):
    """The feature mask of `grow_level_wise`: node `i` may split on the k of
    p features drawn from `_tree_rng(seed, tree_index, i)`. Node ids are
    breadth-first, as `tree_from_dict` numbers a reloaded tree, so each
    node's draw can be derived again from the saved model."""

    def mask(nodes: np.ndarray) -> np.ndarray:
        drawn = np.zeros((len(nodes), p), dtype=bool)
        for row, node in zip(drawn, nodes.tolist()):
            row[_tree_rng(seed, tree_index, node).choice(p, size=k, replace=False)] = True
        return drawn

    return mask


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
        if config.bootstrap:
            idx = _tree_rng(config.seed, i).integers(0, n, n)
            Xb, yb = X[idx], y[idx]
        else:
            Xb, yb = X, y
        mask = _feature_draws(config.seed, i, p, k) if k < p else None
        trees.append(grow_level_wise(Xb, yb, presort(Xb), config.tree, mask))
    return ForestModel(trees=trees, config=config)


def fit_gbt(X: np.ndarray, y: np.ndarray, config: GbtConfig, on_tree=None) -> GbtModel:
    """Boosted trees; `on_tree`, if given, is called with each tree as soon
    as it is grown."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(y) == 0:
        raise DataError("cannot fit boosted trees on an empty sample set")
    base = float(np.mean(y))
    pred = np.full(len(y), base)
    order = presort(X)  # X is the same in every round
    trees = []
    for _ in range(config.n_rounds):
        residuals = y - pred
        tree = grow_level_wise(X, residuals, order, config.tree)
        pred = pred + config.shrinkage * tree.predict_many(X)
        trees.append(tree)
        if on_tree is not None:
            on_tree(tree)
    return GbtModel(base_score=base, trees=trees, config=config)


# ---------------------------------------------------------------------------
# serialization: a model's fields as JSON, each tree as its `dump_tree` text

MODELS = {
    "random_forest": (ForestModel, ForestConfig),
    "gradient_boosting": (GbtModel, GbtConfig),
}


def dump_model(model, tree_texts=None) -> str:
    """The model as JSON: its fields with sorted keys, its trees last under
    `"trees"`, the key that sorts last. `tree_texts`, if given, are the
    `dump_tree` texts of its trees, encoded elsewhere (by the model worker of
    `experiment`). json writes a list as its items joined by ", " and a
    nested dict as it writes one alone, so the bytes are those of dumping
    the whole nest at once."""
    kind = next((k for k, (cls, _) in MODELS.items() if type(model) is cls), None)
    if kind is None:
        raise ConfigError(f"cannot serialize {type(model).__name__}")
    if tree_texts is None:
        tree_texts = [dump_tree(t) for t in model.trees]
    doc = {**vars(model), "model": kind, "config": asdict(model.config)}
    del doc["trees"]
    assert max(doc) < "trees", sorted(doc)
    head = json.dumps(doc, sort_keys=True)
    return head[:-1] + ', "trees": [' + ", ".join(tree_texts) + "]}"


def load_model(text: str):
    doc = json.loads(text)
    kind = doc.pop("model", None)
    if kind not in MODELS:
        raise DataError(f"unknown model kind {kind!r}")
    model_cls, config_cls = MODELS[kind]
    # absent keys take the dataclass defaults; keys that are no field any
    # more are dropped, in the tree block too: a model file keeps the fields
    # its config classes had when it was written
    config = _known_fields(config_cls, doc["config"])
    config["tree"] = TreeConfig(**_known_fields(TreeConfig, config["tree"]))
    doc["config"] = config_cls(**config)
    doc["trees"] = [tree_from_dict(t) for t in doc["trees"]]
    return model_cls(**doc)


def _known_fields(cls, d: dict) -> dict:
    known = {f.name for f in fields(cls)}
    return {k: v for k, v in d.items() if k in known}
