"""Native binary classifiers: logistic regression and a random forest.

Both are deterministic given a seed and support per-class weighting for
imbalanced corpora (weights inversely proportional to class frequencies).
The forest bins each feature into quantile buckets once per fit and grows
its trees on the bin codes alone: each node takes one histogram over both
classes and all its sampled features together, scores every (feature, bin)
pair at once from prefix sums, and sends a row left when its code is at most
the bin. On a tied score the feature drawn first wins, then its lowest bin.
A node keeps the bin's edge as its threshold for scoring and export, which
compare raw feature values against it and so route every training row alike.

A tree is the list of its nodes, root first, each a `[feature, threshold,
left, right, prob]` list: an inner node sends rows whose feature value is
below the threshold to node `left` and the rest to node `right`; a leaf has
feature -1 and scores its rows with its weighted positive fraction `prob`.
The models are dataclasses whose fields `earlywarn.save_model` writes as
they are, so these lists are also the exported format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

MAX_BINS = 32


def balanced_class_weights(y: np.ndarray) -> Tuple[float, float]:
    """Weights inversely proportional to class frequencies, mean-normalised."""
    n = len(y)
    n1 = int(y.sum())
    n0 = n - n1
    if n0 == 0 or n1 == 0:
        return 1.0, 1.0
    return n / (2.0 * n0), n / (2.0 * n1)


# ---------------------------------------------------------------------------
# Logistic regression
# ---------------------------------------------------------------------------

class ScaleOverflow(ValueError):
    """A feature column whose mean or standard deviation is not finite, so
    the z-scoring of logistic regression cannot use it."""

    reason = "mean or standard deviation out of float range"

    def __init__(self, column: int):
        super().__init__(f"feature column {column}: {self.reason}")
        self.column = column


@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float
    mean: np.ndarray
    scale: np.ndarray
    learning_rate: float
    l2: float
    epochs: int

    def scores(self, X: np.ndarray) -> np.ndarray:
        Z = X - self.mean    # z-scored in place: one copy of X
        Z /= self.scale
        return _sigmoid(Z @ self.weights + self.bias)


def _sigmoid(logits: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(logits, -60, 60)))


def fit_logistic(X: np.ndarray, y: np.ndarray, class_weights: Tuple[float, float],
                 learning_rate: float, l2: float, epochs: int) -> LogisticModel:
    """Full-batch gradient descent on weighted cross-entropy with L2 penalty.

    Features are z-scored on the training data; constant columns get unit
    scale so they contribute nothing. A column whose mean or standard
    deviation leaves the float range raises ScaleOverflow.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=0)
        scale = X.std(axis=0)
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(scale)))
    if len(bad):
        raise ScaleOverflow(int(bad[0]))
    scale[scale == 0.0] = 1.0
    Z = X - mean    # z-scored in place: one copy of X
    Z /= scale

    n, f = Z.shape
    w = np.zeros(f)
    b = 0.0
    sample_w = np.where(y == 1.0, class_weights[1], class_weights[0])
    total_w = sample_w.sum()
    for _ in range(epochs):
        p = _sigmoid(Z @ w + b)
        err = sample_w * (p - y)
        grad_w = Z.T @ err / total_w + l2 * w
        grad_b = err.sum() / total_w
        w -= learning_rate * grad_w
        b -= learning_rate * grad_b
    return LogisticModel(w, b, mean, scale, learning_rate, l2, epochs)


# ---------------------------------------------------------------------------
# Random forest
# ---------------------------------------------------------------------------

def _best_split(codes: np.ndarray, idx: np.ndarray, y_node: np.ndarray,
                features: np.ndarray, bin_valid: np.ndarray, min_leaf: int,
                class_weights: Tuple[float, float]) -> Optional[Tuple[int, int]]:
    """The (feature, bin) of the lowest weighted Gini over rows `idx` and the
    sampled `features`, or None when no bin leaves min_leaf rows each side."""
    mtry = len(features)
    # One histogram over both classes and all sampled features: sampled
    # column k is shifted by k histogram widths, and a positive row by mtry
    # widths more, so entry (c, k, b) of the reshaped counts is the class-c
    # rows whose feature features[k] falls in bin b.
    width = MAX_BINS + 1
    shifted = np.arange(0, mtry * width, width) + (y_node * (mtry * width))[:, None]
    shifted += codes[idx[:, None], features]
    hist = np.bincount(shifted.ravel(), minlength=2 * mtry * width)
    below = np.cumsum(hist.reshape(2, mtry, width), axis=2)
    left = below[:, :, :-1]
    # Per class and feature, the rows left of each bin's split, then those
    # right of it: both sides go through one set of elementwise operations.
    sides = np.concatenate((left, below[:, :, -1:] - left), axis=2)
    counts = sides[0] + sides[1]
    valid = bin_valid[features] & (np.minimum(counts[:, :MAX_BINS], counts[:, MAX_BINS:])
                                   >= min_leaf)
    w0, w1 = class_weights
    weighted0, weighted1 = w0 * sides[0], w1 * sides[1]
    side_w = weighted0 + weighted1
    with np.errstate(divide="ignore", invalid="ignore"):
        gini = 1.0 - (weighted0 ** 2 + weighted1 ** 2) / np.maximum(side_w ** 2, 1e-300)
        part = side_w * gini
        score = ((part[:, :MAX_BINS] + part[:, MAX_BINS:])
                 / (side_w[:, :MAX_BINS] + side_w[:, MAX_BINS:]))
    score[~valid] = math.inf
    # The first minimum in row-major order: the earliest sampled feature
    # that reaches the best score, then its first bin.
    best = int(np.argmin(score))
    if not math.isfinite(score.flat[best]):
        return None
    k, best_bin = divmod(best, MAX_BINS)
    return int(features[k]), best_bin


def _grow_tree(codes: np.ndarray, y: np.ndarray, edges: List[np.ndarray],
               bin_valid: np.ndarray, rng: np.random.Generator, max_depth: int,
               min_leaf: int, mtry: int,
               class_weights: Tuple[float, float]) -> List[list]:
    """One CART tree on bin codes, Gini impurity, class weights: its
    [feature, threshold, left, right, prob] nodes, root first.

    A split on (feature, bin) sends a row left when its code is at most the
    bin. Codes count the sorted, distinct edges at or below a value, so that
    is exactly when the value is below the bin's edge, the node's threshold.
    """
    nodes: List[list] = []
    w0, w1 = class_weights
    # (rows, depth, parent node, the parent's slot for this node's id). The
    # right child is pushed first, so ids and feature draws run in preorder.
    stack: List[tuple] = [(np.arange(len(y)), 0, None, 0)]
    while stack:
        idx, depth, parent, slot = stack.pop()
        if parent is not None:
            parent[slot] = len(nodes)
        y_node = y[idx]
        n = len(idx)
        n1 = int(y_node.sum())
        split = None
        if depth < max_depth and n >= 2 * min_leaf and 0 < n1 < n:
            features = rng.choice(codes.shape[1], size=mtry, replace=False)
            split = _best_split(codes, idx, y_node, features, bin_valid, min_leaf,
                                class_weights)
        if split is None:
            weight0, weight1 = w0 * (n - n1), w1 * n1
            total = weight0 + weight1
            nodes.append([-1, 0.0, -1, -1, weight1 / total if total > 0 else 0.5])
            continue
        feature, bin_ = split
        node = [feature, float(edges[feature][bin_]), -1, -1, 0.0]
        nodes.append(node)
        left = codes[idx, feature] <= bin_
        stack.append((idx[~left], depth + 1, node, 3))
        stack.append((idx[left], depth + 1, node, 2))
    return nodes


@dataclass
class ForestModel:
    n_trees: int
    max_depth: int
    min_leaf: int
    mtry: int
    seed: int
    trees: List[List[list]]     # per tree, _grow_tree's node lists

    def scores(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        total = np.zeros(len(X), dtype=np.float64)
        for tree in self.trees:
            stack = [(0, np.arange(len(X)))]
            while stack:
                node_id, idx = stack.pop()
                feature, threshold, left, right, prob = tree[node_id]
                if feature < 0:
                    total[idx] += prob
                elif len(idx):
                    mask = X[idx, feature] < threshold
                    stack += [(left, idx[mask]), (right, idx[~mask])]
        return total / len(self.trees)


# The most bytes of feature columns that binning copies into contiguous
# rows at once: at the paper's 319,166 rows, six columns a block. On a
# 319,166 x 57 features CSV, `train --model RandomForest` peaks at 290 MiB
# with blocks, 451 MiB with one copy of every column, at the same wall time.
_BIN_BLOCK_BYTES = 16 * 2 ** 20


def _bin_columns(X: np.ndarray) -> Tuple[List[np.ndarray], np.ndarray]:
    """Per column, the distinct inner quantiles that split its values, and
    every value's bin code: the count of its column's edges at or below it.

    Columns are read from contiguous copies, a block of them at a time, so
    partitioning and searching touch adjacent values and binning holds
    about one block beside X and the codes. Each column's quantiles are the
    same whatever block it is in."""
    n, f = X.shape
    qs = np.linspace(0.0, 1.0, MAX_BINS + 1)[1:-1]
    step = max(1, _BIN_BLOCK_BYTES // (8 * max(n, 1)))
    edges = []
    codes = np.empty((n, f), dtype=np.int16)
    for first in range(0, f, step):
        columns = np.ascontiguousarray(X[:, first:first + step].T)
        quantiles = np.quantile(columns, qs, axis=1)
        for k, col in enumerate(columns):
            e = np.unique(quantiles[:, k])
            e = e[(e > col.min()) & (e <= col.max())]
            edges.append(e)
            codes[:, first + k] = np.searchsorted(e, col, side="right")
    return edges, codes


def fit_forest(X: np.ndarray, y: np.ndarray, class_weights: Tuple[float, float],
               n_trees: int, max_depth: int, min_leaf: int, seed: int) -> ForestModel:
    """Bootstrap-aggregated CART trees with sqrt(n_features) splits per node."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, f = X.shape
    mtry = max(1, int(round(math.sqrt(f))))
    edges, codes = _bin_columns(X)

    # Bin b of feature j is a candidate split only below its edge count.
    bin_valid = np.arange(MAX_BINS) < np.array([len(e) for e in edges])[:, None]

    rng = np.random.default_rng(seed)
    trees = []
    for _ in range(n_trees):
        sample = rng.integers(0, n, size=n)
        trees.append(_grow_tree(codes[sample], y[sample], edges, bin_valid, rng,
                                max_depth, min_leaf, mtry, class_weights))
    return ForestModel(n_trees, max_depth, min_leaf, mtry, seed, trees)
