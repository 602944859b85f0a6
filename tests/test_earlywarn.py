"""Classifier training, evaluation metrics, the model export, and the sweep."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slidscan.analysis import enrich
from slidscan.earlywarn import (
    ClassifierKind,
    DEFAULT_HYPER_GRID,
    DimensionMismatch,
    SingleClassInput,
    confusion_counts,
    metrics_from_confusion,
    prepare_windows,
    save_model,
    stratified_split,
    sweep,
    train,
    window_speedup,
)
from slidscan.features import FEATURE_COUNT, extract_with_report
from slidscan.models import fit_logistic
from slidscan.synth import ScenarioKind, build_corpus

from conftest import make_dataset


def toy_separable(n=60, noise=0.0, seed=0):
    """Two clusters at feature0 = 0 and 1, trivially separable at noise 0."""
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 0.05 + noise, size=(n, 4))
    y = np.zeros(n, dtype=np.int64)
    y[n // 2:] = 1
    X[n // 2:, 0] += 1.0
    return X, y


def widen(X):
    """X zero-padded on the right to the full 57 feature columns."""
    X = np.asarray(X, dtype=np.float64)
    return np.pad(X, ((0, 0), (0, FEATURE_COUNT - X.shape[1])))


class TestTrain:
    @pytest.mark.parametrize("kind", list(ClassifierKind))
    def test_perfectly_separable_reaches_unit_f1(self, kind):
        X, y = toy_separable()
        model = train(X, y, kind, seed=1)
        pred = model.scores(X) >= model.threshold
        tp, fp, tn, fn = confusion_counts(y == 1, pred)
        assert metrics_from_confusion(tp, fp, tn, fn, 0, kind.value).f1 == 1.0

    def test_identical_rows_fall_back_to_majority(self):
        X = np.ones((10, 3))
        y = np.array([1, 1, 1, 1, 1, 1, 0, 0, 0, 0])
        with pytest.warns(UserWarning, match="SingleSignal"):
            model = train(X, y, ClassifierKind.LOGISTIC_REGRESSION)
        assert model.majority_label is True
        assert np.all(model.scores(X) == 1.0)

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        with pytest.raises(SingleClassInput):
            train(X, np.ones(10, dtype=np.int64), ClassifierKind.RANDOM_FOREST)

    def test_dimension_mismatch_on_predict(self):
        X, y = toy_separable()
        model = train(X, y, ClassifierKind.LOGISTIC_REGRESSION)
        with pytest.raises(DimensionMismatch):
            model.scores(np.zeros((2, 9)))

    def test_grid_search_selects_from_grid(self):
        X, y = toy_separable(n=80, noise=0.2, seed=3)
        grid = DEFAULT_HYPER_GRID[ClassifierKind.LOGISTIC_REGRESSION]
        model = train(X, y, ClassifierKind.LOGISTIC_REGRESSION, seed=0, grid=True)
        assert model.hyperparameters["learning_rate"] in grid["learning_rate"]
        assert model.hyperparameters["l2"] in grid["l2"]

    def test_class_weights_inverse_to_frequency(self):
        X, y = toy_separable(n=100)
        y = np.zeros(100, dtype=np.int64)
        y[:10] = 1
        X[:10, 0] += 1.0
        model = train(X, y, ClassifierKind.LOGISTIC_REGRESSION)
        w0, w1 = model.class_weights
        assert w1 / w0 == pytest.approx(90 / 10)


class TestPredict:
    def test_separable_regions_and_determinism(self):
        X, y = toy_separable()
        model = train(widen(X), y, ClassifierKind.RANDOM_FOREST, seed=2)
        probe = widen([[1.0, 0, 0, 0], [0.0, 0, 0, 0]])
        score_pos, score_neg = model.scores(probe)
        assert model.threshold == 0.5
        assert score_pos > 0.5
        assert score_neg < model.threshold
        assert np.array_equal(model.scores(probe), [score_pos, score_neg])


class TestMetricsIdentities:
    @given(st.integers(0, 500), st.integers(0, 500), st.integers(0, 500),
           st.integers(0, 500))
    @settings(max_examples=100, deadline=None)
    def test_confusion_identities(self, tp, fp, tn, fn):
        m = metrics_from_confusion(tp, fp, tn, fn, 57, "x")
        total = tp + fp + tn + fn
        if total:
            assert m.accuracy * total == pytest.approx(tp + tn)
        if m.precision + m.recall > 0:
            assert m.f1 == pytest.approx(
                2 * m.precision * m.recall / (m.precision + m.recall))
        else:
            assert m.f1 == 0.0
        assert m.confusion == (tp, fp, tn, fn)


def exported_scores(payload, X):
    """Scores recomputed from a model.json payload alone, the way a reader
    outside slidscan would: logistic on z-scored rows, or the mean over
    trees of the leaf reached by `value < threshold` going left."""
    inner = payload["model"]
    if payload["kind"] == "LogisticRegression":
        Z = (X - np.array(inner["mean"])) / np.array(inner["scale"])
        logits = np.clip(Z @ np.array(inner["weights"]) + inner["bias"], -60, 60)
        return 1.0 / (1.0 + np.exp(-logits))
    scores = np.zeros(len(X))
    for tree in inner["trees"]:
        for i, row in enumerate(X):
            feature, threshold, left, right, prob = tree[0]
            while feature >= 0:
                node = left if row[feature] < threshold else right
                feature, threshold, left, right, prob = tree[node]
            scores[i] += prob
    return scores / len(inner["trees"])


class TestSerialization:
    @pytest.mark.parametrize("kind", list(ClassifierKind))
    def test_round_trip_preserves_predictions(self, tmp_path, kind):
        """model.json is an export: it names its keys and carries enough to
        reproduce the model's scores without slidscan."""
        X, y = toy_separable(n=80, noise=0.3, seed=7)
        model = train(X, y, kind, seed=5)
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        assert list(payload) == [
            "format_version", "kind", "class_weights", "hyperparameters",
            "feature_names", "seed", "threshold", "majority_label", "model"]
        assert payload["kind"] == kind.value
        assert payload["threshold"] == 0.5
        assert payload["hyperparameters"] == model.hyperparameters
        probe = np.random.default_rng(0).normal(0.5, 0.5, size=(40, 4))
        assert np.allclose(exported_scores(payload, probe), model.scores(probe),
                           rtol=0.0, atol=1e-12)

    def test_non_finite_parameter_is_not_exported(self, tmp_path):
        """model.json is strict JSON: a NaN weight raises, no file is written."""
        X, y = toy_separable(n=80, noise=0.3, seed=7)
        model = train(X, y, ClassifierKind.LOGISTIC_REGRESSION, seed=5)
        model.model.weights[0] = np.nan
        path = tmp_path / "model.json"
        with pytest.raises(ValueError):
            save_model(model, path)
        assert not path.exists()


class TestClassWeightEffect:
    def test_weighted_recall_not_worse_on_imbalanced_data(self):
        """Minority recall with balanced weights >= uniform weights,
        averaged over 5 seeds on an overlapping imbalanced problem."""
        deltas = []
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            n_neg, n_pos = 300, 24
            X = np.vstack([rng.normal(0.0, 1.0, size=(n_neg, 3)),
                           rng.normal(1.2, 1.0, size=(n_pos, 3))])
            y = np.concatenate([np.zeros(n_neg, dtype=np.int64),
                                np.ones(n_pos, dtype=np.int64)])
            test_X = np.vstack([rng.normal(0.0, 1.0, size=(200, 3)),
                                rng.normal(1.2, 1.0, size=(40, 3))])
            test_y = np.concatenate([np.zeros(200, dtype=bool),
                                     np.ones(40, dtype=bool)])
            # train() weights classes; the same fit with uniform weights
            # is the baseline.
            weighted = train(X, y, ClassifierKind.LOGISTIC_REGRESSION, seed=seed)
            uniform = fit_logistic(X, y, (1.0, 1.0), learning_rate=0.1, l2=0.01,
                                   epochs=500)
            recalls = {}
            for weighting, model in ((True, weighted), (False, uniform)):
                pred = model.scores(test_X) >= 0.5
                tp, fp, tn, fn = confusion_counts(test_y, pred)
                recalls[weighting] = metrics_from_confusion(
                    tp, fp, tn, fn, 0, "lr").recall
            deltas.append(recalls[True] - recalls[False])
        assert np.mean(deltas) >= 0.0


@pytest.fixture(scope="module")
def small_dataset():
    counts = {
        ScenarioKind.LEGITIMATE: 24,
        ScenarioKind.SLID: 8,
        ScenarioKind.SLID_SLOW: 4,
    }
    overrides = {
        ScenarioKind.LEGITIMATE: {"lifetime_days": 80, "investor_arrival": 2.0},
        ScenarioKind.SLID: {"slid_drain_count": 60, "lifetime_days": 80,
                            "investor_arrival": 2.0},
        ScenarioKind.SLID_SLOW: {"slid_drain_count": 12, "lifetime_days": 280,
                                 "investor_arrival": 1.0},
    }
    dataset = make_dataset((s.pool, s.orders, s.profile)
                           for s in build_corpus(counts, seed=42, overrides=overrides))
    enrich(dataset)
    return dataset


class TestSweep:
    def test_labels_from_full_history_heuristic(self, small_dataset):
        assert sum(small_dataset.slid_labels().values()) == 12  # SLID + SlidSlow

    def test_sweep_shapes_and_reproducibility(self, small_dataset):
        d_list = (120, 57)
        windows = prepare_windows(small_dataset, d_list)
        first = sweep(windows, seed=3)
        second = sweep(windows, seed=3)
        assert first == second
        assert len(first) == len(d_list) * 3
        detectors = {m.detector for m in first}
        assert detectors == {"Heuristic", "RandomForest", "LogisticRegression"}

    def test_window_rows_follow_pool_addresses(self, small_dataset):
        """Row i of every window's matrix is the extraction of pool i."""
        d_list = (120, 57, 7)
        windows = prepare_windows(small_dataset, d_list)
        assert windows.pool_addresses == list(small_dataset.pools)
        for d in d_list:
            X = windows.X_by_d[d]
            assert X.shape == (len(small_dataset.pools), FEATURE_COUNT)
            assert X.dtype == np.float64
            for i, address in enumerate(windows.pool_addresses):
                pool = small_dataset.pools[address]
                [(values, _)] = extract_with_report(
                    pool, small_dataset.orders[address], (d,))
                assert np.array_equal(X[i], values), (d, address)

    def test_heuristic_recall_degrades_at_small_windows(self, small_dataset):
        windows = prepare_windows(small_dataset, (300, 57))
        # at the full window every SLID pool triggers; at 57 days the slow
        # drains have not happened yet
        full = windows.heuristic_by_d[300]
        early = windows.heuristic_by_d[57]
        assert full.sum() > early.sum()

    def test_window_speedup_definition(self):
        rows = [
            metrics_from_confusion(10, 0, 90, 0, 300, "Heuristic"),
            metrics_from_confusion(5, 0, 90, 5, 100, "Heuristic"),
            metrics_from_confusion(5, 0, 90, 5, 57, "Heuristic"),
            metrics_from_confusion(10, 0, 90, 0, 300, "RandomForest"),
            metrics_from_confusion(10, 0, 90, 0, 100, "RandomForest"),
            metrics_from_confusion(10, 0, 90, 0, 57, "RandomForest"),
        ]
        assert window_speedup(rows) == pytest.approx(300 / 57)


class TestSplit:
    def test_stratified_split_preserves_both_classes(self):
        y = np.array([0] * 90 + [1] * 10)
        train_idx, test_idx = stratified_split(y, 0.2, seed=0)
        assert len(np.intersect1d(train_idx, test_idx)) == 0
        assert len(train_idx) + len(test_idx) == 100
        assert y[test_idx].sum() == 2
        assert y[train_idx].sum() == 8
