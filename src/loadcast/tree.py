"""CART-style regression tree with variance-reduction splitting.

Split quality is the variance reduction Var(parent) - weighted child
variances; a node is only split when the reduction clears the configured
minimum gain, interpreted by default as a fraction of the parent variance.

A fitted tree is parallel node arrays, node 0 the root, as in scikit-learn's
`Tree`. A split node sends rows whose feature value is <= its threshold to
node `child` and the rest, NaN included, to `child + 1`; a leaf has feature -1.

Each column is sorted once per fit (`presort`), not once per node. One
grower, `grow_level_wise`, builds every tree breadth-first, all nodes of a
depth at once: one stable sort by node id regroups the presorted rows, and
`_best_cuts` scores every splittable node in a few padded passes. Nodes are
numbered depth by depth, so node ids are those `tree_from_dict` gives a
reloaded tree. A forest passes a per-node feature mask, keyed by node id, so
that no draw depends on the order in which nodes are grown.

`best_split` is the one-node case of `_best_cuts`. Ties break to the lowest
feature, then the lowest threshold. The trees are bit for bit those of a
grower that argsorts every node's rows and scans each cut in turn
(`tests/oracles.py` keeps it as the reference).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, SchemaError

GAIN_MODES = ("relative", "absolute")
# cells (nodes x features x largest node) of one padded scoring pass of the
# level-wise grower: bounds its transient arrays, about ten of this many
# floats, and the padding it scores in vain
LEVEL_CELLS = 1 << 12


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


@dataclass(eq=False)
class RegressionTree:
    """Node arrays, node 0 the root; node i splits when feature[i] >= 0."""

    feature: np.ndarray  # column tested, -1 at a leaf
    threshold: np.ndarray  # NaN at a leaf
    child: np.ndarray  # left child; the right one is child + 1; -1 at a leaf
    value: np.ndarray  # a leaf's mean target, NaN at a split
    n_samples: np.ndarray  # training rows that reached the node
    n_features: int

    def predict_many(self, X) -> np.ndarray:
        return predict_trees([self], X)[0]

    def depth(self) -> int:
        nodes, depth = np.zeros(1, dtype=np.intp), 0
        while (self.feature[nodes] >= 0).any():
            left = self.child[nodes[self.feature[nodes] >= 0]]
            nodes = np.concatenate([left, left + 1])
            depth += 1
        return depth


def predict_trees(trees: Sequence[RegressionTree], X) -> np.ndarray:
    """(trees, rows): each tree's prediction of each row of X. The trees'
    arrays are stacked, and every (tree, row) pair moves down at once, one
    depth per step, so a model costs as many steps as its deepest tree."""
    X = np.asarray(X, dtype=float)
    if not trees:
        return np.empty((0, len(X)))
    if X.ndim != 2 or any(tree.n_features != X.shape[1] for tree in trees):
        expected = trees[0].n_features
        raise SchemaError(f"expected rows of {expected} features, got shape {X.shape}")
    sizes = [len(tree.feature) for tree in trees]
    roots = np.cumsum(sizes) - sizes
    feature, threshold, child, value = (np.concatenate([getattr(tree, name) for tree in trees])
                                        for name in ("feature", "threshold", "child", "value"))
    child += np.repeat(roots, sizes)  # ids within the stack
    # pair p is row p % len(X) of tree p // len(X), and starts at that root
    at = np.repeat(roots, len(X))
    moving = np.flatnonzero(feature[at] >= 0)  # pairs still at a split
    while len(moving):
        node = at[moving]
        # ~(x <= t), not x > t: a NaN goes right
        right = ~(X[moving % len(X), feature[node]] <= threshold[node])
        at[moving] = child[node] + right
        moving = moving[feature[at[moving]] >= 0]
    return value[at].reshape(len(trees), len(X))


def best_split(X: np.ndarray, y: np.ndarray) -> Optional[SplitCandidate]:
    """Best (feature, midpoint-threshold) by variance reduction over all rows.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values of each feature. Every column of X is scored in one pass of
    `_best_cuts`, the one-node case of the level scorer. Returns None when X
    has no columns, the parent variance is zero or no candidate has positive
    gain. Ties break to the lowest feature_id, then the lowest threshold: the
    first maximum over (feature, cut position), as an ascending scan that
    keeps only strict improvements would find it.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n < 2 or X.shape[1] == 0:
        return None

    sy = float(y.sum())
    sy2 = float((y * y).sum())
    sse_parent = max(sy2 - sy * sy / n, 0.0)
    var_parent = sse_parent / n
    if var_parent <= 0.0:
        return None

    idx = presort(X)
    xs = X[idx, np.arange(X.shape[1])[:, None]]
    gain, f, j = _best_cuts(xs[None], y[idx][None], np.array([n]), np.array([sse_parent]))
    best = gain[0]
    if best == -np.inf:
        return None
    f, j = int(f[0]), int(j[0])
    return SplitCandidate(
        feature_id=f,
        threshold=float((xs[f, j] + xs[f, j + 1]) / 2),
        gain=float(best),
        relative_gain=float(best / var_parent),
    )


def _best_cuts(
    xs: np.ndarray,
    ys: np.ndarray,
    n: np.ndarray,
    sse_parent: np.ndarray,
    mask: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best cut of each of k nodes, scored in one array pass.

    `xs` and `ys` are (k, features, width): the feature values and targets
    of each node's rows in the sort order of each feature. A node of n < width
    rows fills positions n and on with its last row again. `n` and
    `sse_parent` hold each node's size and sum of squared deviations; `mask`,
    when given, is (k, features), true where a node may split on a feature.
    Returns (gain, f, j) per node: the best variance reduction (-inf when no
    cut has positive gain), its feature index f into the features axis and
    its cut j, between sorted positions j and j + 1.

    A running sum along each sorted row gives every cut's child sums, added
    in the order a per-feature scan adds them; `cumsum` adds sequentially, so
    the padding changes no bits of a node's prefixes, and its totals are read
    at its own n - 1. The padded cuts fall between equal values and are
    masked with the ties.
    """
    k, _, width = xs.shape
    nodes = np.arange(k)
    cy = ys.cumsum(axis=2)
    cy2 = (ys * ys).cumsum(axis=2)
    total = cy[nodes, :, n - 1][:, :, None]
    total2 = cy2[nodes, :, n - 1][:, :, None]
    nn = n[:, None, None]
    # column j is the cut after sorted position j: n_l = j + 1 rows go left.
    # Sums of squares are never -0.0, so np.maximum(., 0.0) is max(., 0.0).
    n_l = np.arange(1, width)
    left, left2 = cy[:, :, :-1], cy2[:, :, :-1]
    sse_l = np.maximum(left2 - left * left / n_l, 0.0)
    right = total - left
    # past a node's end n - n_l <= 0; 1 keeps those masked cuts finite
    n_r = np.maximum(nn - n_l, 1)
    sse_r = np.maximum((total2 - left2) - right * right / n_r, 0.0)
    gain = (sse_parent[:, None, None] - sse_l - sse_r) / nn
    usable = (xs[:, :, 1:] > xs[:, :, :-1]) & (gain > 0.0)
    if mask is not None:
        usable &= mask[:, :, None]
    flat = np.where(usable, gain, -np.inf).reshape(k, -1)
    best = flat.argmax(axis=1)
    f, j = np.divmod(best, width - 1)
    return flat[nodes, best], f, j


def presort(X: np.ndarray) -> np.ndarray:
    """(features, rows) matrix: row f lists the row indices of X in the
    stable sort order of column f (ties keep row order)."""
    return np.argsort(np.asarray(X, dtype=float).T, axis=1, kind="stable")


def grow_level_wise(
    X: np.ndarray,
    y: np.ndarray,
    order: np.ndarray,
    config: TreeConfig,
    feature_mask: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> RegressionTree:
    """The tree grown on float arrays X and y, breadth-first, from a few
    array passes per depth, its nodes numbered depth by depth: the i-th
    split node's children are 2i + 1 and 2i + 2.

    `order` is `presort(X)`, so one sort can serve every tree fitted on the
    same X. `feature_mask`, when given, maps an array of node ids to a
    (len(ids), n_features) bool mask of the features each node may split
    on; without it every feature may be used.

    Every row carries the id of its node at the current depth. Each depth
    stable-sorts the rows of `order`, and the rows themselves, by node id, so
    that each node is one column segment, its rows in each feature's sort
    order and in ascending order. Nodes of equal size sum their targets as
    one (nodes, n) matrix, which keeps the pairwise-sum bits of
    `y[rows].sum()`. The splittable nodes are scored by `_best_cuts` in
    padded passes of nodes of similar size, and one comparison per row sends
    the rows of split nodes to their children. Columns of a single value are
    neither scored nor regrouped.
    """
    n_rows, n_features = X.shape
    y2 = y * y
    # a column of one value has no usable cut, so scoring only the others
    # finds the same first best cut
    varying = np.flatnonzero((X != X[:1]).any(axis=0))
    p = len(varying)
    features = varying[:, None]
    # row p lists the rows in ascending order, segmented like the columns
    lists = np.vstack([order[varying], np.arange(n_rows)])
    node_of = np.zeros(n_rows, dtype=np.intp)  # -1 once the row is in a leaf
    sizes = np.array([n_rows])
    first = 0  # id of the depth's first node
    columns = []  # per depth: feature, threshold, child, value, n_samples
    for depth in range(config.max_depth + 1):
        k = len(sizes)
        starts = np.cumsum(sizes) - sizes
        rows = lists[p]
        by_size = np.argsort(sizes, kind="stable")
        edges = (np.flatnonzero(np.diff(sizes[by_size])) + 1).tolist()
        sy, sy2 = np.empty(k), np.empty(k)
        for a, b in zip([0, *edges], [*edges, k]):
            same = by_size[a:b]
            at = rows[starts[same, None] + np.arange(sizes[same[0]])]
            sy[same] = y[at].sum(axis=1)
            sy2[same] = y2[at].sum(axis=1)
        sse = np.maximum(sy2 - sy * sy / sizes, 0.0)
        var = sse / sizes

        metric = np.full(k, -np.inf)
        feature = np.zeros(k, dtype=np.intp)
        threshold = np.zeros(k)
        if depth < config.max_depth and p:
            todo = by_size[(sizes[by_size] >= config.min_samples_split) & (var[by_size] > 0.0)]
            drawn = None if feature_mask is None else feature_mask(first + todo)[:, varying]
            for batch in _passes(sizes[todo], p):
                ks = todo[batch]
                n = sizes[ks]
                # positions past a node's end repeat its last row
                at = starts[ks, None] + np.minimum(np.arange(n[-1]), n[:, None] - 1)
                idx = lists[:p, at].transpose(1, 0, 2)
                xs = X[idx, features]
                gain, f, j = _best_cuts(xs, y[idx], n, sse[ks],
                                        None if drawn is None else drawn[batch])
                metric[ks] = gain / var[ks] if config.gain_mode == "relative" else gain
                feature[ks] = varying[f]
                nodes = np.arange(len(ks))
                threshold[ks] = (xs[nodes, f, j] + xs[nodes, f, j + 1]) / 2
        split = metric >= config.min_gain

        # the i-th split node's children are first + k + 2i and the id after
        left_id = 2 * np.cumsum(split) - 2
        columns.append((np.where(split, feature, -1), np.where(split, threshold, np.nan),
                        np.where(split, first + k + left_id, -1),
                        np.where(split, np.nan, sy / sizes), sizes))
        if not split.any():
            break

        first += k
        row_node = np.repeat(np.arange(k), sizes)
        in_leaf = ~split[row_node]
        goes_left = X[rows, feature[row_node]] <= threshold[row_node]
        child = left_id[row_node] + ~goes_left
        sizes = np.bincount(child[~in_leaf])
        node_of[rows] = np.where(in_leaf, -1, child)
        by_node = np.argsort(node_of[lists], axis=1, kind="stable")
        lists = np.take_along_axis(lists, by_node, axis=1)[:, np.count_nonzero(in_leaf):]
    return RegressionTree(*map(np.concatenate, zip(*columns)), n_features)


def _passes(sizes: np.ndarray, p: int) -> list:
    """Index runs of `sizes` (ascending), each padded to its largest size
    within LEVEL_CELLS cells of p features; a node larger than that alone."""
    runs, first = [], 0
    for i, n in enumerate(sizes.tolist()):
        if i > first and (i - first + 1) * p * n > LEVEL_CELLS:
            runs.append(slice(first, i))
            first = i
    if len(sizes):
        runs.append(slice(first, len(sizes)))
    return runs


def fit_tree(
    X: np.ndarray, y: np.ndarray, config: Optional[TreeConfig] = None
) -> RegressionTree:
    """One greedy tree on every feature, grown by `grow_level_wise`; leaves
    carry the mean target of their samples."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(y) == 0:
        raise DataError("cannot fit a tree on an empty sample set")
    return grow_level_wise(X, y, presort(X), config or TreeConfig())


def tree_to_dict(tree: RegressionTree) -> dict:
    """The tree as nested {"kind": "leaf" | "split", ...} nodes."""
    feature, threshold, child, value, n_samples = (a.tolist() for a in (
        tree.feature, tree.threshold, tree.child, tree.value, tree.n_samples))

    def enc(i):
        if feature[i] < 0:
            return {"kind": "leaf", "value": value[i], "n_samples": n_samples[i]}
        return {
            "kind": "split",
            "feature_id": feature[i],
            "threshold": threshold[i],
            "left": enc(child[i]),
            "right": enc(child[i] + 1),
        }

    return {"n_features": tree.n_features, "root": enc(0)}


def tree_from_dict(doc: dict) -> RegressionTree:
    """The inverse of `tree_to_dict`, its nodes numbered breadth-first: the
    i-th split node's children are 2i + 1 and 2i + 2."""
    nodes = [doc["root"]]
    for d in nodes:  # each split appends its children when it is reached
        nodes += [d["left"], d["right"]] if d["kind"] == "split" else []
    feature = np.array([d.get("feature_id", -1) for d in nodes], dtype=np.intp)
    split = feature >= 0
    child = np.where(split, 2 * np.cumsum(split) - 1, -1)
    size = np.array([d.get("n_samples", 0) for d in nodes], dtype=np.intp)
    for i in np.flatnonzero(split)[::-1]:  # a split's rows are its children's
        size[i] = size[child[i]] + size[child[i] + 1]
    threshold = np.array([d.get("threshold", math.nan) for d in nodes], dtype=float)
    value = np.array([d.get("value", math.nan) for d in nodes], dtype=float)
    return RegressionTree(feature, threshold, child, value, size, doc["n_features"])


def dump_tree(tree: RegressionTree) -> str:
    return json.dumps(tree_to_dict(tree), sort_keys=True)


def load_tree(text: str) -> RegressionTree:
    return tree_from_dict(json.loads(text))
