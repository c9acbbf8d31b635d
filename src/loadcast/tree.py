"""CART-style regression tree with variance-reduction splitting.

Split quality is the variance reduction Var(parent) - weighted child
variances; a node is only split when the reduction clears the configured
minimum gain, interpreted by default as a fraction of the parent variance.
Routing: feature value <= threshold goes left.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, SchemaError

GAIN_MODES = ("relative", "absolute")


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int = 10
    min_gain: float = 0.2
    min_samples_split: int = 2
    gain_mode: str = "relative"

    def __post_init__(self):
        if self.max_depth < 1:
            raise ConfigError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.min_gain < 0:
            raise ConfigError(f"min_gain must be >= 0, got {self.min_gain}")
        if self.min_samples_split < 2:
            raise ConfigError(
                f"min_samples_split must be >= 2, got {self.min_samples_split}"
            )
        if self.gain_mode not in GAIN_MODES:
            raise ConfigError(f"gain_mode must be one of {GAIN_MODES}")


@dataclass(frozen=True)
class SplitCandidate:
    feature_id: int
    threshold: float
    gain: float
    relative_gain: float


@dataclass
class Leaf:
    value: float
    n_samples: int


@dataclass
class Internal:
    feature_id: int
    threshold: float
    left: object
    right: object


@dataclass
class RegressionTree:
    root: object
    n_features: int

    def predict_many(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise SchemaError(
                f"expected rows of {self.n_features} features, got shape {X.shape}"
            )
        out = np.empty(len(X))
        for i, x in enumerate(X.tolist()):
            node = self.root
            while isinstance(node, Internal):
                node = node.left if x[node.feature_id] <= node.threshold else node.right
            out[i] = node.value
        return out

    def depth(self) -> int:
        def d(node):
            if isinstance(node, Leaf):
                return 0
            return 1 + max(d(node.left), d(node.right))

        return d(self.root)

    def node_count(self) -> int:
        def c(node):
            if isinstance(node, Leaf):
                return 1
            return 1 + c(node.left) + c(node.right)

        return c(self.root)


def best_split(
    X: np.ndarray, y: np.ndarray, feature_ids: Optional[Sequence[int]] = None
) -> Optional[SplitCandidate]:
    """Best (feature, midpoint-threshold) by variance reduction.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values of each feature. Returns None when the parent variance is zero or
    no candidate has positive gain. Ties break to the lowest feature_id, then
    the lowest threshold (guaranteed by ascending scan + strict improvement).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n < 2:
        return None
    if feature_ids is None:
        feature_ids = range(X.shape[1])

    sy = float(y.sum())
    sy2 = float((y * y).sum())
    sse_parent = max(sy2 - sy * sy / n, 0.0)
    var_parent = sse_parent / n
    if var_parent <= 0.0:
        return None

    best = None
    for f in sorted(feature_ids):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        ys = y[order]
        cy = np.cumsum(ys)
        cy2 = np.cumsum(ys * ys)
        cut_positions = np.nonzero(xs[1:] > xs[:-1])[0] + 1
        for i in cut_positions:
            n_l = int(i)
            n_r = n - n_l
            sse_l = max(cy2[i - 1] - cy[i - 1] * cy[i - 1] / n_l, 0.0)
            sse_r = max(
                (cy2[-1] - cy2[i - 1])
                - (cy[-1] - cy[i - 1]) * (cy[-1] - cy[i - 1]) / n_r,
                0.0,
            )
            gain = (sse_parent - sse_l - sse_r) / n
            if gain <= 0.0:
                continue
            if best is None or gain > best.gain:
                threshold = (xs[i - 1] + xs[i]) / 2
                best = SplitCandidate(
                    feature_id=int(f),
                    threshold=float(threshold),
                    gain=float(gain),
                    relative_gain=float(gain / var_parent),
                )
    return best


def fit_tree(
    X: np.ndarray,
    y: np.ndarray,
    config: Optional[TreeConfig] = None,
    feature_sampler: Optional[Callable[[], Sequence[int]]] = None,
) -> RegressionTree:
    """Greedy recursive growth; leaves carry the mean target of their samples.

    `feature_sampler`, when given, supplies the candidate feature subset for
    each node (used by the forest for per-node feature subsampling).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(y) == 0:
        raise DataError("cannot fit a tree on an empty sample set")
    config = config or TreeConfig()

    def grow(Xs, ys, depth):
        n = len(ys)
        leaf = Leaf(value=float(np.mean(ys)), n_samples=n)
        if depth >= config.max_depth or n < config.min_samples_split:
            return leaf
        fids = feature_sampler() if feature_sampler is not None else None
        cand = best_split(Xs, ys, fids)
        if cand is None:
            return leaf
        measured = (
            cand.relative_gain if config.gain_mode == "relative" else cand.gain
        )
        if measured < config.min_gain:
            return leaf
        mask = Xs[:, cand.feature_id] <= cand.threshold
        return Internal(
            feature_id=cand.feature_id,
            threshold=cand.threshold,
            left=grow(Xs[mask], ys[mask], depth + 1),
            right=grow(Xs[~mask], ys[~mask], depth + 1),
        )

    return RegressionTree(root=grow(X, y, 0), n_features=X.shape[1])


def tree_to_dict(tree: RegressionTree) -> dict:
    def enc(node):
        if isinstance(node, Leaf):
            return {"kind": "leaf", "value": node.value, "n_samples": node.n_samples}
        return {
            "kind": "split",
            "feature_id": node.feature_id,
            "threshold": node.threshold,
            "left": enc(node.left),
            "right": enc(node.right),
        }

    return {"n_features": tree.n_features, "root": enc(tree.root)}


def tree_from_dict(doc: dict) -> RegressionTree:
    def dec(d):
        if d["kind"] == "leaf":
            return Leaf(value=d["value"], n_samples=d["n_samples"])
        return Internal(
            feature_id=d["feature_id"],
            threshold=d["threshold"],
            left=dec(d["left"]),
            right=dec(d["right"]),
        )

    return RegressionTree(root=dec(doc["root"]), n_features=doc["n_features"])


def dump_tree(tree: RegressionTree) -> str:
    return json.dumps(tree_to_dict(tree), sort_keys=True)


def load_tree(text: str) -> RegressionTree:
    return tree_from_dict(json.loads(text))
