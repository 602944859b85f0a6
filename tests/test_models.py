"""The forest's split search: one histogram per node over the sampled features
grows the same trees as a search that scores one feature at a time."""

import math

import numpy as np
import pytest

from slidscan import models
from slidscan.models import balanced_class_weights, fit_forest


def _reference_grow(self, idx, depth):
    """Per-feature split search: each sampled feature in turn, keeping a
    later feature only when its best score is strictly lower."""
    y_node = self._y[idx]
    n = len(idx)
    if depth >= self._max_depth or n < 2 * self._min_leaf:
        return self._leaf(idx)
    n1 = int(y_node.sum())
    if n1 == 0 or n1 == n:
        return self._leaf(idx)

    features = self._rng.choice(self._codes.shape[1], size=self._mtry, replace=False)
    best_score = math.inf
    best_feature = -1
    best_bin = -1
    w0, w1 = self._w0, self._w1
    for f in features:
        edges = self._edges[f]
        if len(edges) == 0:
            continue
        c = self._codes[idx, f]
        nbins = len(edges) + 1
        hist1 = np.bincount(c[y_node == 1], minlength=nbins)
        hist_all = np.bincount(c, minlength=nbins)
        left_n = np.cumsum(hist_all)[:-1]
        right_n = n - left_n
        valid = (left_n >= self._min_leaf) & (right_n >= self._min_leaf)
        if not valid.any():
            continue
        left1 = np.cumsum(hist1)[:-1]
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
        b = int(np.argmin(score))
        if score[b] < best_score:
            best_score = score[b]
            best_feature = int(f)
            best_bin = b
    if best_feature < 0 or not math.isfinite(best_score):
        return self._leaf(idx)

    threshold = float(self._edges[best_feature][best_bin])
    mask = self._X[idx, best_feature] < threshold
    left_idx = idx[mask]
    right_idx = idx[~mask]
    if len(left_idx) < self._min_leaf or len(right_idx) < self._min_leaf:
        return self._leaf(idx)
    node_id = len(self.nodes)
    self.nodes.append(models._Node(feature=best_feature, threshold=threshold))
    self.nodes[node_id].left = self._grow(left_idx, depth + 1)
    self.nodes[node_id].right = self._grow(right_idx, depth + 1)
    return node_id


def _fit_both(monkeypatch, X, y, **kwargs):
    """(forest from fit_forest, forest from the per-feature reference)."""
    weights = balanced_class_weights(y)
    fast = fit_forest(X, y, weights, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(models._Tree, "_grow", _reference_grow)
        reference = fit_forest(X, y, weights, **kwargs)
    return fast, reference


def _binned_data(seed, n=200, f=20):
    """Continuous, small-integer and constant columns with a noisy label, so
    bins and features tie and some columns have no edges."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, f))
    X[:, 1::4] = rng.integers(0, 3, size=(n, len(range(1, f, 4))))
    X[:, 2] = 7.0
    X[:, 5] = X[:, 0]
    y = (X[:, 0] + X[:, 1] + rng.normal(scale=0.8, size=n) > 1.0).astype(np.int64)
    return X, y


@pytest.mark.parametrize("max_depth", [8, 16])
@pytest.mark.parametrize("min_leaf", [0, 1, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_same_trees_as_per_feature_search(monkeypatch, seed, min_leaf, max_depth):
    X, y = _binned_data(seed)
    fast, reference = _fit_both(monkeypatch, X, y, n_trees=10, seed=seed,
                                min_leaf=min_leaf, max_depth=max_depth)
    assert fast.to_dict() == reference.to_dict()
    assert any(len(tree.nodes) > 1 for tree in fast.trees)


def test_tied_features_pick_the_first_sampled():
    """With every column identical each sampled feature scores the same, so
    the root splits on the first one rng.choice drew, not the lowest index."""
    n = 200
    column = np.arange(n) % 10
    X = np.repeat(column[:, None], 4, axis=1).astype(np.float64)
    y = (column >= 5).astype(np.int64)
    first_drawn_higher = False
    for seed in range(10):
        forest = fit_forest(X, y, (1.0, 1.0), n_trees=1, max_depth=1, seed=seed)
        rng = np.random.default_rng(seed)
        rng.integers(0, n, size=n)
        drawn = rng.choice(4, size=forest.mtry, replace=False)
        assert forest.trees[0].nodes[0].feature == drawn[0]
        first_drawn_higher |= bool(drawn[0] > drawn[1])
    assert first_drawn_higher


def test_constant_column_is_never_split(monkeypatch):
    X, y = _binned_data(3)
    fast, reference = _fit_both(monkeypatch, X, y, n_trees=10, seed=3)
    assert fast.to_dict() == reference.to_dict()
    assert all(node.feature != 2 for tree in fast.trees for node in tree.nodes)


@pytest.mark.parametrize("min_leaf", [0, 1])
def test_all_constant_features_give_single_leaves(min_leaf):
    """No column has an edge, so no bin is a candidate split, even where an
    empty side would meet min_leaf."""
    X = np.full((50, 9), 2.5)
    y = np.arange(50) % 2
    forest = fit_forest(X, y, (1.0, 1.0), n_trees=5, min_leaf=min_leaf, seed=0)
    for tree in forest.trees:
        assert len(tree.nodes) == 1
        assert tree.nodes[0].feature == -1


def test_fit_leaves_only_the_nodes():
    X, y = _binned_data(4)
    forest = fit_forest(X, y, balanced_class_weights(y), n_trees=3, seed=4)
    for tree in forest.trees:
        assert list(vars(tree)) == ["nodes"]
