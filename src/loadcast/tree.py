"""CART-style regression tree with variance-reduction splitting.

Split quality is the variance reduction Var(parent) - weighted child
variances; a node is only split when the reduction clears the configured
minimum gain, interpreted by default as a fraction of the parent variance.
Routing: feature value <= threshold goes left.

Each column is sorted once per fit (`presort`), not once per node. A node
holds its rows in ascending order and, for every column, the same rows in
that column's stable sort order; its children inherit both through one flag
per row, so the order is kept and nothing is sorted again. `best_split`
scores all drawn features of a node in one array pass over those presorted
rows. Ties break to the lowest feature, then the lowest threshold. The trees
are bit for bit those of a grower that argsorts every node's rows and scans
each cut in turn (`tests/oracles.py` keeps it as the reference).
"""
from __future__ import annotations

import json
import math
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
        if not (math.isfinite(self.min_gain) and self.min_gain >= 0):
            raise ConfigError(
                f"min_gain must be a finite number >= 0, got {self.min_gain}"
            )
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
    X: np.ndarray,
    y: np.ndarray,
    feature_ids: Optional[Sequence[int]] = None,
    rows: Optional[np.ndarray] = None,
    order: Optional[np.ndarray] = None,
) -> Optional[SplitCandidate]:
    """Best (feature, midpoint-threshold) by variance reduction over a node.

    The node is `rows`, its indices into X and y in ascending order, with
    `order = presort(X)` narrowed to the same rows: row f of the
    (features, rows) matrix lists them in the stable sort order of column f.
    Pass both or neither; without them the node is every row and the
    columns are sorted here.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values of each feature. The drawn features are scored in one pass: a
    running sum along each presorted row gives every cut's child sums, added
    in the same order as a per-feature scan would add them. Returns None when
    the parent variance is zero or no candidate has positive gain. Ties break
    to the lowest feature_id, then the lowest threshold: the first maximum
    over (sorted feature, cut position), as an ascending scan that keeps
    only strict improvements would find it.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if order is None:
        rows, order = np.arange(len(y)), presort(X)
    n = len(rows)
    if n < 2:
        return None

    node_y = y[rows]
    sy = float(node_y.sum())
    sy2 = float((node_y * node_y).sum())
    sse_parent = max(sy2 - sy * sy / n, 0.0)
    var_parent = sse_parent / n
    if var_parent <= 0.0:
        return None

    if feature_ids is None:
        fids = np.arange(X.shape[1])
    else:
        fids = np.sort(np.asarray(feature_ids, dtype=np.intp))
    idx = order[fids]
    xs = X[idx, fids[:, None]]
    ys = y[idx]
    cy = ys.cumsum(axis=1)
    cy2 = (ys * ys).cumsum(axis=1)
    # column j is the cut after sorted position j: n_l = j + 1 rows go left.
    # Sums of squares are never -0.0, so np.maximum(., 0.0) is max(., 0.0).
    n_l = np.arange(1, n)
    left, left2 = cy[:, :-1], cy2[:, :-1]
    sse_l = np.maximum(left2 - left * left / n_l, 0.0)
    right = cy[:, -1:] - left
    sse_r = np.maximum((cy2[:, -1:] - left2) - right * right / (n - n_l), 0.0)
    gain = (sse_parent - sse_l - sse_r) / n
    usable = (xs[:, 1:] > xs[:, :-1]) & (gain > 0.0)
    if not usable.any():
        return None
    gain[~usable] = -np.inf
    f, j = divmod(int(gain.argmax()), n - 1)
    best = gain[f, j]
    return SplitCandidate(
        feature_id=int(fids[f]),
        threshold=float((xs[f, j] + xs[f, j + 1]) / 2),
        gain=float(best),
        relative_gain=float(best / var_parent),
    )


def presort(X: np.ndarray) -> np.ndarray:
    """(features, rows) matrix: row f lists the row indices of X in the
    stable sort order of column f (ties keep row order)."""
    return np.argsort(np.asarray(X, dtype=float).T, axis=1, kind="stable")


def grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    order: np.ndarray,
    config: TreeConfig,
    feature_sampler: Optional[Callable[[], Sequence[int]]] = None,
) -> tuple[RegressionTree, np.ndarray]:
    """(tree, fitted): the tree grown on float arrays X and y, and the leaf
    value of each training row, equal to `tree.predict_many(X)`.

    `order` is `presort(X)`, so one sort can serve every tree fitted on the
    same X. Growth is depth-first, left child first. Each node keeps its rows
    in ascending order and `order` narrowed to them; one flag per row, true
    for the rows that go left, splits both between the children without
    changing their order, so nothing is sorted again.
    """
    fitted = np.empty(len(y))
    goes_left = np.zeros(len(y), dtype=bool)

    def grow(rows, order, depth):
        n = len(rows)
        # the bits of np.mean: the same pairwise sum over y[rows], over n
        leaf = Leaf(value=float(y[rows].sum() / n), n_samples=n)
        cand = None
        if depth < config.max_depth and n >= config.min_samples_split:
            fids = feature_sampler() if feature_sampler is not None else None
            cand = best_split(X, y, fids, rows=rows, order=order)
        if cand is None or (
            cand.relative_gain if config.gain_mode == "relative" else cand.gain
        ) < config.min_gain:
            fitted[rows] = leaf.value
            return leaf
        here = X[rows, cand.feature_id] <= cand.threshold
        goes_left[rows] = here
        sides = goes_left[order]
        p = len(order)
        left_order = order[sides].reshape(p, -1)
        right_order = order[~sides].reshape(p, -1)
        return Internal(
            feature_id=cand.feature_id,
            threshold=cand.threshold,
            left=grow(rows[here], left_order, depth + 1),
            right=grow(rows[~here], right_order, depth + 1),
        )

    root = grow(np.arange(len(y)), order, 0)
    return RegressionTree(root=root, n_features=X.shape[1]), fitted


def fit_tree(
    X: np.ndarray,
    y: np.ndarray,
    config: Optional[TreeConfig] = None,
    feature_sampler: Optional[Callable[[], Sequence[int]]] = None,
) -> RegressionTree:
    """Greedy recursive growth; leaves carry the mean target of their samples.

    `feature_sampler`, when given, supplies the candidate feature subset for
    each node (used by the forest for per-node feature subsampling). The
    columns of X are sorted once, for the whole tree.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(y) == 0:
        raise DataError("cannot fit a tree on an empty sample set")
    config = config or TreeConfig()
    return grow_tree(X, y, presort(X), config, feature_sampler)[0]


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
