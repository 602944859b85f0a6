"""Native binary classifiers: logistic regression and a random forest.

Both are deterministic given a seed and support per-class weighting for
imbalanced corpora (weights inversely proportional to class frequencies).
The forest bins each feature into quantile buckets once per fit, so node
splitting reduces to histogram prefix sums; trees compare raw feature values
against the bin-edge thresholds at prediction time, which keeps training
fast without changing the learned splits. Each node takes one histogram pass
over all its sampled features together and scores every (feature, bin) pair
at once. On a tied score the feature drawn first wins, then its lowest bin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

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
        Z = (X - self.mean) / self.scale
        logits = Z @ self.weights + self.bias
        return 1.0 / (1.0 + np.exp(-np.clip(logits, -60, 60)))

    def to_dict(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "bias": self.bias,
            "mean": self.mean.tolist(),
            "scale": self.scale.tolist(),
            "learning_rate": self.learning_rate,
            "l2": self.l2,
            "epochs": self.epochs,
        }


def fit_logistic(X: np.ndarray, y: np.ndarray, class_weights: Tuple[float, float],
                 learning_rate: float = 0.1, l2: float = 0.01,
                 epochs: int = 500) -> LogisticModel:
    """Full-batch gradient descent on weighted cross-entropy with L2 penalty.

    Features are z-scored on the training data; constant columns get unit
    scale so they contribute nothing.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0.0] = 1.0
    Z = (X - mean) / scale

    n, f = Z.shape
    w = np.zeros(f)
    b = 0.0
    sample_w = np.where(y == 1.0, class_weights[1], class_weights[0])
    total_w = sample_w.sum()
    for _ in range(epochs):
        logits = Z @ w + b
        p = 1.0 / (1.0 + np.exp(-np.clip(logits, -60, 60)))
        err = sample_w * (p - y)
        grad_w = Z.T @ err / total_w + l2 * w
        grad_b = err.sum() / total_w
        w -= learning_rate * grad_w
        b -= learning_rate * grad_b
    return LogisticModel(w, b, mean, scale, learning_rate, l2, epochs)


# ---------------------------------------------------------------------------
# Random forest
# ---------------------------------------------------------------------------

@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    prob: float = 0.0            # weighted positive fraction at leaves


class _Tree:
    """CART tree on pre-binned features, Gini impurity, class weights."""

    def __init__(self):
        self.nodes: List[_Node] = []

    def fit(self, X: np.ndarray, codes: np.ndarray, y: np.ndarray,
            edges: List[np.ndarray], bin_valid: np.ndarray, offsets: np.ndarray,
            rng: np.random.Generator, max_depth: int, min_leaf: int, mtry: int,
            class_weights: Tuple[float, float]) -> None:
        self._X = X
        self._codes = codes
        self._y = y
        self._edges = edges
        self._bin_valid = bin_valid
        self._offsets = offsets
        self._rng = rng
        self._max_depth = max_depth
        self._min_leaf = min_leaf
        self._mtry = mtry
        self._w0, self._w1 = class_weights
        self._grow(np.arange(len(y)), 0)
        del (self._X, self._codes, self._y, self._edges, self._bin_valid,
             self._offsets, self._rng, self._max_depth, self._min_leaf,
             self._mtry, self._w0, self._w1)

    def _leaf(self, idx: np.ndarray) -> int:
        n1 = int(self._y[idx].sum())
        n0 = len(idx) - n1
        w0, w1 = self._w0 * n0, self._w1 * n1
        self.nodes.append(_Node(prob=w1 / (w0 + w1) if w0 + w1 > 0 else 0.5))
        return len(self.nodes) - 1

    def _grow(self, idx: np.ndarray, depth: int) -> int:
        y_node = self._y[idx]
        n = len(idx)
        if depth >= self._max_depth or n < 2 * self._min_leaf:
            return self._leaf(idx)
        n1 = int(y_node.sum())
        if n1 == 0 or n1 == n:
            return self._leaf(idx)

        features = self._rng.choice(self._codes.shape[1], size=self._mtry, replace=False)
        # One histogram over all sampled features: row k of the reshaped
        # counts is feature features[k], column b its bin b.
        shifted = self._codes[idx[:, None], features] + self._offsets
        width = MAX_BINS + 1
        hist_all = np.bincount(shifted.ravel(), minlength=self._mtry * width)
        hist1 = np.bincount(shifted[y_node == 1].ravel(), minlength=self._mtry * width)
        left_n = np.cumsum(hist_all.reshape(self._mtry, width), axis=1)[:, :-1]
        left1 = np.cumsum(hist1.reshape(self._mtry, width), axis=1)[:, :-1]
        right_n = n - left_n
        valid = (self._bin_valid[features]
                 & (left_n >= self._min_leaf) & (right_n >= self._min_leaf))
        w0, w1 = self._w0, self._w1
        left0 = left_n - left1
        right1 = n1 - left1
        right0 = (n - n1) - left0
        L0, L1 = w0 * left0, w1 * left1
        R0, R1 = w0 * right0, w1 * right1
        lw = L0 + L1
        rw = R0 + R1
        with np.errstate(divide="ignore", invalid="ignore"):
            gini_l = 1.0 - (L0 ** 2 + L1 ** 2) / np.maximum(lw ** 2, 1e-300)
            gini_r = 1.0 - (R0 ** 2 + R1 ** 2) / np.maximum(rw ** 2, 1e-300)
            score = (lw * gini_l + rw * gini_r) / (lw + rw)
        score[~valid] = math.inf
        # The first minimum in row-major order: the earliest sampled feature
        # that reaches the best score, then its first bin.
        best = int(np.argmin(score))
        if not math.isfinite(score.flat[best]):
            return self._leaf(idx)
        k, best_bin = divmod(best, MAX_BINS)
        best_feature = int(features[k])

        threshold = float(self._edges[best_feature][best_bin])
        mask = self._X[idx, best_feature] < threshold
        left_idx = idx[mask]
        right_idx = idx[~mask]
        if len(left_idx) < self._min_leaf or len(right_idx) < self._min_leaf:
            return self._leaf(idx)
        node_id = len(self.nodes)
        self.nodes.append(_Node(feature=best_feature, threshold=threshold))
        self.nodes[node_id].left = self._grow(left_idx, depth + 1)
        self.nodes[node_id].right = self._grow(right_idx, depth + 1)
        return node_id

    def scores(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(len(X), dtype=np.float64)
        self._score_node(0, X, np.arange(len(X)), out)
        return out

    def _score_node(self, node_id: int, X: np.ndarray, idx: np.ndarray,
                    out: np.ndarray) -> None:
        node = self.nodes[node_id]
        if node.feature < 0:
            out[idx] = node.prob
            return
        mask = X[idx, node.feature] < node.threshold
        left_idx = idx[mask]
        right_idx = idx[~mask]
        if len(left_idx):
            self._score_node(node.left, X, left_idx, out)
        if len(right_idx):
            self._score_node(node.right, X, right_idx, out)

    def to_list(self) -> list:
        return [[n.feature, n.threshold, n.left, n.right, n.prob] for n in self.nodes]


@dataclass
class ForestModel:
    trees: List[_Tree]
    n_trees: int
    max_depth: int
    min_leaf: int
    mtry: int
    seed: int

    def scores(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        total = np.zeros(len(X), dtype=np.float64)
        for tree in self.trees:
            total += tree.scores(X)
        return total / len(self.trees)

    def to_dict(self) -> dict:
        return {
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "mtry": self.mtry,
            "seed": self.seed,
            "trees": [tree.to_list() for tree in self.trees],
        }


def _quantile_edges(X: np.ndarray) -> List[np.ndarray]:
    edges = []
    qs = np.linspace(0.0, 1.0, MAX_BINS + 1)[1:-1]
    for f in range(X.shape[1]):
        col = X[:, f]
        e = np.unique(np.quantile(col, qs))
        e = e[(e > col.min()) & (e <= col.max())]
        edges.append(e.astype(np.float64))
    return edges


def fit_forest(X: np.ndarray, y: np.ndarray, class_weights: Tuple[float, float],
               n_trees: int = 50, max_depth: int = 8, min_leaf: int = 1,
               seed: int = 0) -> ForestModel:
    """Bootstrap-aggregated CART trees with sqrt(n_features) splits per node."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, f = X.shape
    mtry = max(1, int(round(math.sqrt(f))))
    edges = _quantile_edges(X)
    codes = np.empty((n, f), dtype=np.int16)
    for j in range(f):
        codes[:, j] = np.searchsorted(edges[j], X[:, j], side="right")

    # Bin b of feature j is a candidate split only below its edge count;
    # sampled column k is shifted by k histogram widths.
    bin_valid = np.arange(MAX_BINS) < np.array([len(e) for e in edges])[:, None]
    offsets = np.arange(mtry) * (MAX_BINS + 1)

    rng = np.random.default_rng(seed)
    trees: List[_Tree] = []
    for _ in range(n_trees):
        sample = rng.integers(0, n, size=n)
        tree = _Tree()
        tree.fit(X[sample], codes[sample], y[sample], edges, bin_valid, offsets,
                 rng, max_depth, min_leaf, mtry, class_weights)
        trees.append(tree)
    return ForestModel(trees, n_trees, max_depth, min_leaf, mtry, seed)
