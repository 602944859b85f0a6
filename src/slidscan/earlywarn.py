"""Early-warning training and the shrinking-window evaluation sweep.

Ground truth comes from the full-history rule-based verdicts; features come
from truncated observation windows, so a classifier learns to call the final
label from early behavior. The sweep retrains per window length and also
scores the rule-based detector on the same truncated windows, which is where
its recall degrades: drains it has not seen yet cannot trigger it. One replay
of each pool's orders, up to the largest window, yields the features and the
truncated profit report of every window.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import asdict, dataclass
from enum import Enum
from pathlib import Path
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .features import FEATURE_COUNT, FEATURE_NAMES, extract_with_report
from .dataio import Dataset
from .models import balanced_class_weights, fit_forest, fit_logistic
from .validators import DEFAULT_CONFIG, HeuristicConfig, Label, classify_pool

MODEL_FORMAT_VERSION = 1
DECISION_THRESHOLD = 0.5    # a score at or above it calls SLID


class SingleClassInput(Exception):
    """Training data carries only one class."""


class DimensionMismatch(Exception):
    """Feature vector length or order does not match the model."""


class ClassifierKind(str, Enum):
    LOGISTIC_REGRESSION = "LogisticRegression"
    RANDOM_FOREST = "RandomForest"


DEFAULT_HYPER_GRID = {
    ClassifierKind.LOGISTIC_REGRESSION: {
        "learning_rate": [0.01, 0.1],
        "l2": [0.0, 0.01, 0.1],
        "epochs": [500],
    },
    ClassifierKind.RANDOM_FOREST: {
        "n_trees": [50, 100],
        "max_depth": [8, 16],
        "min_leaf": [1, 5],
    },
}

_DEFAULT_PARAMS = {
    ClassifierKind.LOGISTIC_REGRESSION: {"learning_rate": 0.1, "l2": 0.01, "epochs": 500},
    ClassifierKind.RANDOM_FOREST: {"n_trees": 50, "max_depth": 8, "min_leaf": 1},
}


@dataclass
class ClassifierModel:
    kind: ClassifierKind
    class_weights: Tuple[float, float]
    hyperparameters: Dict[str, object]
    feature_names: List[str]
    model: Optional[object] = None          # LogisticModel | ForestModel
    majority_label: Optional[bool] = None   # set for degenerate training data
    seed: int = 0
    threshold: ClassVar[float] = DECISION_THRESHOLD

    def scores(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(self.feature_names):
            raise DimensionMismatch(
                f"expected {len(self.feature_names)} features, got {X.shape}")
        if self.majority_label is not None:
            return np.full(len(X), 1.0 if self.majority_label else 0.0)
        return self.model.scores(X)


@dataclass
class EvalMetrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    window_days: int
    detector: str
    confusion: Tuple[int, int, int, int]    # (tp, fp, tn, fn)


def metrics_from_confusion(tp: int, fp: int, tn: int, fn: int,
                           window_days: int, detector: str) -> EvalMetrics:
    total = tp + fp + tn + fn
    accuracy = (tp + tn) / total if total else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall > 0 else 0.0)
    return EvalMetrics(accuracy, precision, recall, f1, window_days, detector,
                       (tp, fp, tn, fn))


def confusion_counts(y_true: np.ndarray, y_pred: np.ndarray) -> Tuple[int, int, int, int]:
    y_true = np.asarray(y_true, dtype=bool)
    y_pred = np.asarray(y_pred, dtype=bool)
    tp = int((y_true & y_pred).sum())
    fp = int((~y_true & y_pred).sum())
    tn = int((~y_true & ~y_pred).sum())
    fn = int((y_true & ~y_pred).sum())
    return tp, fp, tn, fn


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _feature_names(width: int) -> List[str]:
    """FEATURE_NAMES for a full-width matrix, else f0, f1, ... (a narrow
    matrix carries no canonical names)."""
    if width == len(FEATURE_NAMES):
        return list(FEATURE_NAMES)
    return [f"f{i}" for i in range(width)]


def _fit(kind: ClassifierKind, X: np.ndarray, y: np.ndarray,
         class_weights: Tuple[float, float], params: Dict[str, object], seed: int):
    if kind == ClassifierKind.LOGISTIC_REGRESSION:
        return fit_logistic(X, y, class_weights, **params)
    return fit_forest(X, y, class_weights, seed=seed, **params)


def stratified_split(y: np.ndarray, test_fraction: float,
                     seed: int) -> Tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    train_idx: List[int] = []
    test_idx: List[int] = []
    for cls in (0, 1):
        members = np.flatnonzero(y == cls)
        rng.shuffle(members)
        cut = max(1, int(round(len(members) * test_fraction))) if len(members) else 0
        test_idx.extend(members[:cut])
        train_idx.extend(members[cut:])
    return np.sort(np.array(train_idx)), np.sort(np.array(test_idx))


def _stratified_folds(y: np.ndarray, k: int, seed: int) -> List[np.ndarray]:
    rng = np.random.default_rng(seed)
    folds: List[List[int]] = [[] for _ in range(k)]
    for cls in (0, 1):
        members = np.flatnonzero(y == cls)
        rng.shuffle(members)
        for i, idx in enumerate(members):
            folds[i % k].append(int(idx))
    return [np.sort(np.array(f)) for f in folds]


def _grid_candidates(grid: Dict[str, list]) -> List[Dict[str, object]]:
    keys = sorted(grid)
    return [dict(zip(keys, combo))
            for combo in itertools.product(*(grid[k] for k in keys))]


def train(X: np.ndarray, y: np.ndarray, kind: Union[str, ClassifierKind],
          seed: int = 0, grid: bool = False) -> ClassifierModel:
    """Fit a classifier on feature rows X and 0/1 labels y, with
    _DEFAULT_PARAMS or, with `grid`, the DEFAULT_HYPER_GRID candidate of the
    best stratified 5-fold F1.

    Class weights are inversely proportional to class frequencies.
    Degenerate inputs (identical rows, mixed labels) fall back to a
    majority-class model with a SingleSignal warning.
    """
    kind = ClassifierKind(kind)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    names = _feature_names(X.shape[1])
    if len(X) != len(y):
        raise DimensionMismatch(f"{len(X)} rows vs {len(y)} labels")
    classes = np.unique(y)
    if len(classes) < 2:
        raise SingleClassInput(f"training labels all equal {classes.tolist()}")

    weights = balanced_class_weights(y)
    if np.all(X == X[0]):
        warnings.warn("SingleSignal: identical feature rows with mixed labels; "
                      "falling back to majority class", stacklevel=2)
        majority = bool(np.round(y.mean()))
        return ClassifierModel(kind, weights, {}, names,
                               majority_label=majority, seed=seed)

    if grid:
        candidates = _grid_candidates(DEFAULT_HYPER_GRID[kind])
        folds = _stratified_folds(y, 5, seed)
        best_params = None
        best_f1 = -1.0
        for params in candidates:
            f1s = []
            for i, fold in enumerate(folds):
                mask = np.ones(len(y), dtype=bool)
                mask[fold] = False
                if len(np.unique(y[mask])) < 2 or len(fold) == 0:
                    continue
                sub = _fit(kind, X[mask], y[mask], balanced_class_weights(y[mask]),
                           params, seed + i)
                pred = sub.scores(X[fold]) >= DECISION_THRESHOLD
                tp, fp, tn, fn = confusion_counts(y[fold] == 1, pred)
                f1s.append(metrics_from_confusion(tp, fp, tn, fn, 0, "cv").f1)
            mean_f1 = float(np.mean(f1s)) if f1s else -1.0
            if mean_f1 > best_f1:
                best_f1 = mean_f1
                best_params = params
        params = best_params or _DEFAULT_PARAMS[kind]
    else:
        params = dict(_DEFAULT_PARAMS[kind])

    model = _fit(kind, X, y, weights, params, seed)
    return ClassifierModel(kind, weights, dict(params), names, model=model,
                           seed=seed)


# ---------------------------------------------------------------------------
# Export (single-file JSON; nothing in slidscan reads it back)
# ---------------------------------------------------------------------------

def save_model(model: ClassifierModel, path: Union[str, Path]) -> None:
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": model.kind.value,
        "class_weights": list(model.class_weights),
        "hyperparameters": model.hyperparameters,
        "feature_names": model.feature_names,
        "seed": model.seed,
        "threshold": model.threshold,
        "majority_label": model.majority_label,
        # The model's dataclass fields in declaration order; `default` writes
        # its numpy arrays as lists.
        "model": asdict(model.model) if model.model is not None else None,
    }
    Path(path).write_text(json.dumps(payload, allow_nan=False, default=np.ndarray.tolist))


# ---------------------------------------------------------------------------
# The d-window sweep
# ---------------------------------------------------------------------------

@dataclass
class WindowedCorpus:
    """Features and truncated-window heuristic calls for every window,
    from one replay per pool. Row i of X_by_d[d] (pools x 57) and entry i
    of heuristic_by_d[d] and labels belong to pool_addresses[i]."""

    X_by_d: Dict[int, np.ndarray]
    heuristic_by_d: Dict[int, np.ndarray]
    labels: np.ndarray
    pool_addresses: List[str]


def prepare_windows(dataset: Dataset, d_list: Sequence[int],
                    cfg: HeuristicConfig = DEFAULT_CONFIG) -> WindowedCorpus:
    """Extract features and heuristic calls for every pool at every window.

    Labels are the full-history SLID verdicts `analysis.enrich` put in
    `dataset.enriched`; pools keep `dataset.pools` order. Before any
    extraction, a corpus that cannot give a held-out split (fewer than two
    pools in either verdict class) raises SingleClassInput. Each pool is
    replayed once, up to its largest window; the heuristic classifies each
    window's truncated profit report from that replay.
    """
    slid = dataset.slid_labels()
    addresses = list(dataset.pools)
    labels = np.array([slid[a] for a in addresses], dtype=bool)
    positives = int(labels.sum())
    others = len(labels) - positives
    if min(positives, others) < 2:
        raise SingleClassInput(
            "a held-out split needs at least 2 pools in each verdict class, got "
            f"{positives} SLID and {others} other")
    X_by_d = {d: np.zeros((len(addresses), FEATURE_COUNT)) for d in d_list}
    heuristic_by_d = {d: np.zeros(len(addresses), dtype=bool) for d in d_list}
    for i, (address, pool) in enumerate(dataset.pools.items()):
        profile = dataset.profile_for(pool)
        windows = extract_with_report(pool, dataset.orders[address], d_list)
        for d, (values, report) in zip(d_list, windows):
            X_by_d[d][i] = values
            verdict = classify_pool(pool, profile, report, cfg)
            heuristic_by_d[d][i] = verdict.label == Label.SLID
    return WindowedCorpus(X_by_d, heuristic_by_d, labels, addresses)


HEURISTIC_DETECTOR = "Heuristic"
DETECTORS = (HEURISTIC_DETECTOR, ClassifierKind.RANDOM_FOREST.value,
             ClassifierKind.LOGISTIC_REGRESSION.value)
DEFAULT_D_LIST = (267, 150, 100, 60, 59, 58, 57, 56)
TEST_FRACTION = 0.2
PLATEAU_FRACTION = 0.95


def sweep(windows: WindowedCorpus, seed: int = 0) -> List[EvalMetrics]:
    """Evaluate every detector at every window of `windows.X_by_d`, in its
    order, on a held-out stratified split (TEST_FRACTION of each class) of
    the pools that `prepare_windows` extracted `windows` from.

    Classifiers retrain per window on the training pools; the rule-based
    detector's calls on the same truncated windows are read from `windows`.
    """
    labels = windows.labels
    train_idx, test_idx = stratified_split(labels.astype(np.int64),
                                           TEST_FRACTION, seed)
    results: List[EvalMetrics] = []
    for d, X in windows.X_by_d.items():
        for detector in DETECTORS:
            if detector == HEURISTIC_DETECTOR:
                pred = windows.heuristic_by_d[d][test_idx]
            else:
                model = train(X[train_idx], labels[train_idx], detector, seed=seed)
                pred = model.scores(X[test_idx]) >= model.threshold
            tp, fp, tn, fn = confusion_counts(labels[test_idx], pred)
            results.append(metrics_from_confusion(tp, fp, tn, fn, d, detector))
    return results


def window_speedup(results: Sequence[EvalMetrics]) -> float:
    """Ratio of the smallest windows at which the heuristic and the random
    forest each reach PLATEAU_FRACTION of their own plateau F1 (plateau =
    F1 at the largest d)."""

    def earliest(detector: str) -> int:
        rows = {r.window_days: r.f1 for r in results if r.detector == detector}
        if not rows:
            raise ValueError(f"no sweep rows for detector {detector!r}")
        plateau = rows[max(rows)]
        qualifying = [d for d, f1 in rows.items() if f1 >= PLATEAU_FRACTION * plateau]
        return min(qualifying) if qualifying else max(rows)

    return (earliest(HEURISTIC_DETECTOR)
            / earliest(ClassifierKind.RANDOM_FOREST.value))
