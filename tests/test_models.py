"""The forest's split search: one histogram per node over the sampled features
grows the same trees as a search that scores one feature at a time, and a
split on bin codes picks the rows that its threshold does."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slidscan import models
from slidscan.models import balanced_class_weights, fit_forest


def _reference_split(codes, idx, y_node, features, bin_valid, min_leaf, class_weights):
    """Per-feature split search: each sampled feature in turn, keeping a
    later feature only when its best score is strictly lower."""
    n = len(idx)
    n1 = int(y_node.sum())
    best_score = math.inf
    best = None
    w0, w1 = class_weights
    for f in features:
        n_edges = int(bin_valid[f].sum())
        if n_edges == 0:
            continue
        c = codes[idx, f]
        hist1 = np.bincount(c[y_node == 1], minlength=n_edges + 1)
        hist_all = np.bincount(c, minlength=n_edges + 1)
        left_n = np.cumsum(hist_all)[:-1]
        right_n = n - left_n
        valid = (left_n >= min_leaf) & (right_n >= min_leaf)
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
            best = (int(f), b)
    return best if math.isfinite(best_score) else None


def _fit_both(monkeypatch, X, y, **kwargs):
    """(forest from fit_forest, forest from the per-feature reference)."""
    weights = balanced_class_weights(y)
    fast = fit_forest(X, y, weights, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(models, "_best_split", _reference_split)
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
    assert fast == reference
    assert any(len(tree) > 1 for tree in fast.trees)
    # Nodes are numbered in preorder: an inner node's left child comes next.
    assert all(node[2] == i + 1 for tree in fast.trees
               for i, node in enumerate(tree) if node[0] >= 0)


def test_tied_features_pick_the_first_sampled():
    """With every column identical each sampled feature scores the same, so
    the root splits on the first one rng.choice drew, not the lowest index."""
    n = 200
    column = np.arange(n) % 10
    X = np.repeat(column[:, None], 4, axis=1).astype(np.float64)
    y = (column >= 5).astype(np.int64)
    first_drawn_higher = False
    for seed in range(10):
        forest = fit_forest(X, y, (1.0, 1.0), n_trees=1, max_depth=1, min_leaf=1,
                            seed=seed)
        rng = np.random.default_rng(seed)
        rng.integers(0, n, size=n)
        drawn = rng.choice(4, size=forest.mtry, replace=False)
        assert forest.trees[0][0][0] == drawn[0]
        first_drawn_higher |= bool(drawn[0] > drawn[1])
    assert first_drawn_higher


def test_constant_column_is_never_split(monkeypatch):
    X, y = _binned_data(3)
    fast, reference = _fit_both(monkeypatch, X, y, n_trees=10, max_depth=8, min_leaf=1,
                                seed=3)
    assert fast == reference
    assert all(node[0] != 2 for tree in fast.trees for node in tree)


@pytest.mark.parametrize("min_leaf", [0, 1])
def test_all_constant_features_give_single_leaves(min_leaf):
    """No column has an edge, so no bin is a candidate split, even where an
    empty side would meet min_leaf."""
    X = np.full((50, 9), 2.5)
    y = np.arange(50) % 2
    forest = fit_forest(X, y, (1.0, 1.0), n_trees=5, max_depth=8, min_leaf=min_leaf,
                        seed=0)
    for tree in forest.trees:
        assert len(tree) == 1
        assert tree[0][0] == -1


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_quantile_edges_equal_per_column_quantiles(monkeypatch, seed):
    """Binning from contiguous blocks of columns gives, bit for bit, the
    edges of one np.quantile call per column and the codes of one
    searchsorted per column, with ties, constant and wide-ranged columns,
    in one block and in blocks of four columns that leave a short one."""
    X, _ = _binned_data(seed, n=240, f=57)
    X[:, 7] *= 1e9
    X[:, 11] = np.round(X[:, 11] * 3.0)
    qs = np.linspace(0.0, 1.0, models.MAX_BINS + 1)[1:-1]
    wants = []
    for f in range(X.shape[1]):
        col = X[:, f]
        want = np.unique(np.quantile(col, qs))
        wants.append(want[(want > col.min()) & (want <= col.max())])
    want_codes = np.stack([np.searchsorted(wants[f], X[:, f], side="right")
                           for f in range(X.shape[1])], axis=1).astype(np.int16)
    assert len(wants[2]) == 0
    for block_bytes in (models._BIN_BLOCK_BYTES, 4 * 8 * len(X)):
        monkeypatch.setattr(models, "_BIN_BLOCK_BYTES", block_bytes)
        edges, codes = models._bin_columns(X)
        assert len(edges) == X.shape[1]
        for f, (got, want) in enumerate(zip(edges, wants)):
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes(), f
        assert codes.dtype == np.int16 and codes.flags.c_contiguous
        assert codes.tobytes() == want_codes.tobytes()


@st.composite
def _edges_and_probes(draw):
    """The quantile edges of a column whose values tie, and probe values:
    the column itself, the edges, their float neighbours and arbitrary
    finite floats."""
    values = draw(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=40))
    column = np.array(draw(st.lists(st.sampled_from(values), min_size=2, max_size=300)))
    edges = models._bin_columns(column[:, None])[0][0]
    probes = [*column, *edges, *np.nextafter(edges, -np.inf), *np.nextafter(edges, np.inf),
              *draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20))]
    return edges, np.array(probes, dtype=np.float64)


@given(_edges_and_probes())
@settings(max_examples=200, deadline=None)
def test_codes_split_like_thresholds(case):
    """A tree splits rows on `code <= bin` and scores them on `value <
    threshold`, the bin's edge; on sorted, distinct edges both pick the
    same rows."""
    edges, x = case
    assert np.all(np.diff(edges) > 0)
    codes = np.searchsorted(edges, x, side="right")
    for b, edge in enumerate(edges):
        assert np.array_equal(codes <= b, x < edge), (b, edge)


def test_logistic_z_scores_in_place_as_the_formula():
    """The fit and its scores z-score on one copy of X, in place: weights,
    bias and scores are bit-identical to `(X - mean) / scale` on a seeded
    matrix with a constant column, and X is left as it was."""
    rng = np.random.default_rng(5)
    X = rng.normal(3.0, 2.0, size=(300, 7))
    X[:, 4] = 2.5
    y = (X[:, 0] + rng.normal(size=300) > 3.0).astype(np.int64)
    before = X.copy()
    class_weights, lr, l2, epochs = balanced_class_weights(y), 0.1, 1e-3, 50
    model = models.fit_logistic(X, y, class_weights, lr, l2, epochs)

    mean, scale = X.mean(axis=0), X.std(axis=0)
    scale[scale == 0.0] = 1.0
    Z = (X - mean) / scale
    sample_w = np.where(y == 1, class_weights[1], class_weights[0])
    w, b = np.zeros(X.shape[1]), 0.0
    for _ in range(epochs):
        p = 1.0 / (1.0 + np.exp(-np.clip(Z @ w + b, -60, 60)))
        err = sample_w * (p - y)
        w -= lr * (Z.T @ err / sample_w.sum() + l2 * w)
        b -= lr * (err.sum() / sample_w.sum())
    scores = 1.0 / (1.0 + np.exp(-np.clip(Z @ w + b, -60, 60)))

    assert model.weights.tobytes() == w.tobytes()
    assert model.bias == b
    assert model.scale[4] == 1.0
    assert model.scores(X).tobytes() == scores.tobytes()
    assert X.tobytes() == before.tobytes()
