"""From-scratch classifiers and dummy baselines behind one train/predict contract.

``FAMILIES`` is the one table of model families. Every estimator implements
``fit``, ``predict`` and ``get_state``/``set_state``; the state dict is the
``"parameters"`` object of a saved model file. An estimator whose sweep nests
(one fitted model holds the models of smaller sweep values) also implements
``grid_cover``/``predict_grid``, and ``grid_predictions`` then fits it once
per grid.

All families are implemented directly (no learning framework) so every numeric
path is testable. Tie rules are global: any prediction tie resolves to FALSE,
the dominant class in the barrier datasets. Distance- and margin-based
families (kNN, SVM) standardize features with training-set statistics; trees
and Naive Bayes consume raw values.

Determinism contract: identical (family, hyperparameters, seed, data) yield
identical learned parameters and predictions.
"""

import inspect
import json
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from heapq import heappop, heappush
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, DegenerateTrainingSet, EmptyInput, LengthMismatch


class ModelFamily(Enum):
    UNIFORM = "uniform"
    STRATIFIED = "stratified"
    MOST_FREQUENT = "most_frequent"
    SVM = "svm"
    KNN = "knn"
    DECISION_TREE = "decision_tree"
    RANDOM_FOREST = "random_forest"
    NAIVE_BAYES = "naive_bayes"


MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ModelSpec:
    family: ModelFamily
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0


def family_from_name(name: str) -> ModelFamily:
    try:
        return ModelFamily(name.strip().lower().replace("-", "_").replace(" ", "_"))
    except ValueError:
        raise ValueError(f"unknown model family: {name!r}") from None


class Standardizer:
    """Per-feature (x - mean) / std; zero-variance features keep scale 1."""

    def __init__(self, mean=None, scale=None):
        self.mean = mean
        self.scale = scale

    def fit(self, X: np.ndarray) -> "Standardizer":
        self.mean = X.mean(axis=0)
        std = X.std(axis=0)
        self.scale = np.where(std > 0, std, 1.0)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) / self.scale


def _as_bool_labels(y) -> np.ndarray:
    return np.asarray(y, dtype=bool)


class UniformBaseline:
    """Coin-flip predictions from the model's own seeded generator."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def fit(self, X, y):
        return self

    def predict(self, X) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return rng.integers(0, 2, size=len(X)).astype(bool)

    def get_state(self) -> dict:
        return {}

    def set_state(self, state: dict) -> "UniformBaseline":
        return self


class StratifiedBaseline:
    """Random predictions matching the training class distribution."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.p_true: Optional[float] = None

    def fit(self, X, y):
        y = _as_bool_labels(y)
        if y.all() or not y.any():
            raise DegenerateTrainingSet("stratified baseline needs both classes in training data")
        self.p_true = float(y.mean())
        return self

    def predict(self, X) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return rng.random(len(X)) < self.p_true

    def get_state(self) -> dict:
        return {"p_true": self.p_true}

    def set_state(self, state: dict) -> "StratifiedBaseline":
        self.p_true = state["p_true"]
        return self


class MostFrequentBaseline:
    """Constant prediction of the training majority label; tie goes to FALSE."""

    def __init__(self):
        self.prediction: Optional[bool] = None

    def fit(self, X, y):
        y = _as_bool_labels(y)
        n_true = int(y.sum())
        self.prediction = n_true > len(y) - n_true
        return self

    def predict(self, X) -> np.ndarray:
        return np.full(len(X), self.prediction, dtype=bool)

    def get_state(self) -> dict:
        return {"prediction": self.prediction}

    def set_state(self, state: dict) -> "MostFrequentBaseline":
        self.prediction = state["prediction"]
        return self


class KNearestNeighbors:
    """Euclidean kNN on standardized features.

    Ties in the computed float64 distance go to the lower training index
    (stable sort). Distances equal in exact arithmetic can differ in the last
    bit, and then they do not tie. Vote ties go to FALSE. k is capped at the
    training-set size.
    """

    def __init__(self, k: int = 5):
        self.k = k
        self.scaler = Standardizer()
        self.X_: Optional[np.ndarray] = None
        self.y_: Optional[np.ndarray] = None

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        self.X_ = self.scaler.fit(X).transform(X)
        self.y_ = _as_bool_labels(y)
        return self

    def predict(self, X) -> np.ndarray:
        return self.predict_grid(X, [self.k])[0]

    @staticmethod
    def grid_cover(values: Sequence[int]) -> int:
        return max(values)

    def predict_grid(self, X, values: Sequence[int]) -> list:
        """Predictions for each k in ``values``: the fit does not depend on k,
        and the k nearest neighbours are a prefix of one stable sort."""
        Xs = self.scaler.transform(np.asarray(X, dtype=float))
        ks = np.minimum(np.asarray(values, dtype=int), len(self.X_))
        out = np.empty((len(ks), len(Xs)), dtype=bool)
        for i, q in enumerate(Xs):
            diff = self.X_ - q
            d2 = np.einsum("ij,ij->i", diff, diff)
            n_true = np.cumsum(self.y_[np.argsort(d2, kind="stable")])[ks - 1]
            out[:, i] = n_true > ks - n_true
        return list(out)

    def get_state(self) -> dict:
        return {"X": self.X_.tolist(), "y": self.y_.tolist()}

    def set_state(self, state: dict) -> "KNearestNeighbors":
        self.X_ = np.array(state["X"], dtype=float)
        self.y_ = np.array(state["y"], dtype=bool)
        if self.X_.ndim != 2 or len(self.X_) != len(self.y_):
            raise ValueError("kNN needs one label per training row")
        return self


class LinearSVM:
    """Linear SVM trained by stochastic subgradient descent on the hinge loss.

    Pegasos-style schedule: step 1/(lam * t) with per-epoch seeded shuffling.
    The intercept is learned as the weight of an internal constant feature.
    Decision threshold is 0; a score of exactly 0 predicts FALSE.
    """

    def __init__(self, lam: float = 1e-3, epochs: int = 50, seed: int = 0):
        self.lam = lam
        self.epochs = epochs
        self.seed = seed
        self.scaler = Standardizer()
        self.weights: Optional[np.ndarray] = None
        self.bias: float = 0.0

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y_pm = np.where(_as_bool_labels(y), 1.0, -1.0)
        Xs = self.scaler.fit(X).transform(X)
        Xa = np.hstack([Xs, np.ones((len(Xs), 1))])
        w = np.zeros(Xa.shape[1])
        rng = np.random.default_rng(self.seed)
        t = 0
        for _ in range(self.epochs):
            for i in rng.permutation(len(Xa)):
                t += 1
                eta = 1.0 / (self.lam * t)
                violated = y_pm[i] * float(Xa[i] @ w) < 1.0
                w *= 1.0 - eta * self.lam
                if violated:
                    w += eta * y_pm[i] * Xa[i]
        self.weights = w[:-1]
        self.bias = float(w[-1])
        return self

    def decision_values(self, X) -> np.ndarray:
        Xs = self.scaler.transform(np.asarray(X, dtype=float))
        return Xs @ self.weights + self.bias

    def predict(self, X) -> np.ndarray:
        return self.decision_values(X) > 0.0

    def get_state(self) -> dict:
        return {"weights": self.weights.tolist(), "bias": self.bias}

    def set_state(self, state: dict) -> "LinearSVM":
        self.weights = np.array(state["weights"], dtype=float)
        self.bias = float(state["bias"])
        return self


class _Tree:
    """Flat binary tree: feature < 0 marks a leaf."""

    FIELDS = ("feature", "threshold", "left", "right", "prediction")

    def __init__(self):
        self.feature: list = []
        self.threshold: list = []
        self.left: list = []
        self.right: list = []
        self.prediction: list = []

    def add_leaf(self, prediction: bool) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.prediction.append(bool(prediction))
        return len(self.feature) - 1

    def make_internal(self, node: int, feature: int, threshold: float, left: int, right: int) -> None:
        self.feature[node] = feature
        self.threshold[node] = threshold
        self.left[node] = left
        self.right[node] = right

    @property
    def n_leaves(self) -> int:
        return sum(1 for f in self.feature if f < 0)

    def predict(self, X: np.ndarray, splits: Optional[int] = None) -> np.ndarray:
        """Leaf predictions; with ``splits`` set, those of the tree as it stood
        after its first ``splits`` splits.

        Node ids are allocated in split order (split r creates nodes 2r+1 and
        2r+2), so an internal node whose left child is 2*splits+1 or later was
        split afterwards and still acts as the leaf it was.
        """
        limit = len(self.feature) if splits is None else 2 * splits + 1
        out = np.empty(len(X), dtype=bool)
        for i, x in enumerate(X):
            node = 0
            while self.feature[node] >= 0 and self.left[node] < limit:
                node = self.left[node] if x[self.feature[node]] <= self.threshold[node] else self.right[node]
            out[i] = self.prediction[node]
        return out

    def get_state(self) -> dict:
        return {name: list(getattr(self, name)) for name in self.FIELDS}

    def set_state(self, state: dict) -> "_Tree":
        for name in self.FIELDS:
            setattr(self, name, list(state[name]))
        n = len(self.feature)
        if n == 0 or any(len(getattr(self, name)) != n for name in self.FIELDS):
            raise ValueError("tree node lists must be non-empty and of one length")
        # children after their parent: predict walks down and cannot loop
        for node, feature in enumerate(self.feature):
            if feature >= 0 and not (node < self.left[node] < n and node < self.right[node] < n):
                raise ValueError(f"tree node {node} must have children after it")
        return self


def _best_split(X: np.ndarray, y: np.ndarray, idx: np.ndarray, features: np.ndarray, n_true: int):
    """Best (impurity decrease, feature, threshold) over candidate midpoints.

    One pass over the node's block of candidate columns: a stable sort per
    column, then the weighted child Gini at every cut not between equal values.
    Ties break toward the lower feature (``features`` is sorted), then the
    lower threshold. Returns None when no feature admits a valid split.
    """
    n = len(idx)
    pt, pf = n_true / n, (n - n_true) / n
    parent = n * (1.0 - pt * pt - pf * pf)
    columns = np.arange(len(features))
    block = X[idx[:, None], features]
    order = block.argsort(axis=0, kind="stable")
    sv = block[order, columns]
    t_left = y[idx[order]].cumsum(axis=0)[:-1]
    n_left = np.arange(1, n)[:, None]
    f_left = n_left - t_left
    n_right = n - n_left
    t_right = n_true - t_left
    f_right = n_right - t_right
    child = n_left * (1.0 - (t_left / n_left) ** 2 - (f_left / n_left) ** 2) + n_right * (
        1.0 - (t_right / n_right) ** 2 - (f_right / n_right) ** 2
    )
    child[~(sv[:-1] < sv[1:])] = np.inf
    j = child.argmin(axis=0)
    decrease = parent - child[j, columns]
    c = int(decrease.argmax())
    if decrease[c] == -np.inf:
        return None
    threshold = (float(sv[j[c], c]) + float(sv[j[c] + 1, c])) / 2.0
    return float(decrease[c]), int(features[c]), threshold


class DecisionTreeCART:
    """Binary CART with Gini impurity and best-first leaf growth.

    Growth stops when ``max_leaf_nodes`` is reached or no impure node admits a
    split; impure nodes split even at zero immediate Gini decrease as long as
    a valid threshold exists, so depth alone never blocks a separable fit.
    ``max_features``, when set, draws a random feature subset per node from
    ``rng`` (used by the forest).
    """

    def __init__(self, max_leaf_nodes: Optional[int] = None, max_features: Optional[int] = None, rng=None):
        self.max_leaf_nodes = max_leaf_nodes
        self.max_features = max_features
        self.rng = rng
        self.tree_: Optional[_Tree] = None

    def _node_features(self, d: int) -> np.ndarray:
        if self.max_features is None or self.max_features >= d:
            return np.arange(d)
        return np.sort(self.rng.choice(d, size=self.max_features, replace=False))

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = _as_bool_labels(y)
        tree = _Tree()
        heap: list = []
        counter = 0

        def open_node(idx: np.ndarray) -> int:
            nonlocal counter
            n_true = int(y[idx].sum())
            node = tree.add_leaf(n_true > len(idx) - n_true)
            if 0 < n_true < len(idx):
                split = _best_split(X, y, idx, self._node_features(X.shape[1]), n_true)
                if split is not None:
                    heappush(heap, (-split[0], counter, node, idx, split[1], split[2]))
                    counter += 1
            return node

        open_node(np.arange(len(X)))
        leaves = 1
        while heap and (self.max_leaf_nodes is None or leaves < self.max_leaf_nodes):
            _, _, node, idx, feature, threshold = heappop(heap)
            mask = X[idx, feature] <= threshold
            left = open_node(idx[mask])
            right = open_node(idx[~mask])
            tree.make_internal(node, feature, threshold, left, right)
            leaves += 1
        self.tree_ = tree
        return self

    def predict(self, X) -> np.ndarray:
        return self.tree_.predict(np.asarray(X, dtype=float))

    @staticmethod
    def grid_cover(values: Sequence[Optional[int]]) -> Optional[int]:
        return None if None in values else max(values)

    def predict_grid(self, X, values: Sequence[Optional[int]]) -> list:
        """Predictions for each ``max_leaf_nodes`` in ``values`` (at most the
        fitted one): best-first growth to m leaves is the first m - 1 splits."""
        X = np.asarray(X, dtype=float)
        return [self.tree_.predict(X, None if m is None else m - 1) for m in values]

    def get_state(self) -> dict:
        return {"tree": self.tree_.get_state()}

    def set_state(self, state: dict) -> "DecisionTreeCART":
        self.tree_ = _Tree().set_state(state["tree"])
        return self


class RandomForest:
    """Bagged CART trees voting by majority; vote ties go to FALSE.

    Each tree sees a bootstrap sample and draws ceil(sqrt(d)) candidate
    features per node unless ``max_features`` overrides that.
    """

    def __init__(self, n_estimators: int = 100, max_features: Optional[int] = None, seed: int = 0):
        self.n_estimators = n_estimators
        self.max_features = max_features
        self.seed = seed
        self.trees_: list = []
        self.bootstrap_indices_: list = []

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = _as_bool_labels(y)
        n, d = X.shape
        max_features = self.max_features if self.max_features is not None else math.isqrt(d - 1) + 1
        self.trees_ = []
        self.bootstrap_indices_ = []
        for child in np.random.SeedSequence(self.seed).spawn(self.n_estimators):
            rng = np.random.default_rng(child)
            boot = rng.integers(0, n, size=n)
            tree = DecisionTreeCART(max_features=max_features, rng=rng)
            tree.fit(X[boot], y[boot])
            self.trees_.append(tree)
            self.bootstrap_indices_.append(boot)
        return self

    def predict(self, X) -> np.ndarray:
        return self.predict_grid(X, [len(self.trees_)])[0]

    @staticmethod
    def grid_cover(values: Sequence[int]) -> int:
        return max(values)

    def predict_grid(self, X, values: Sequence[int]) -> list:
        """Predictions for each ``n_estimators`` in ``values`` (at most the
        fitted one): tree seeds come from ``SeedSequence(seed).spawn(n)``, whose
        first n children do not depend on n, so a smaller forest is a prefix."""
        X = np.asarray(X, dtype=float)
        votes = np.cumsum([tree.predict(X) for tree in self.trees_], axis=0)
        return [votes[n - 1] * 2 > n for n in values]

    def get_state(self) -> dict:
        return {"trees": [tree.tree_.get_state() for tree in self.trees_]}

    def set_state(self, state: dict) -> "RandomForest":
        if not state["trees"]:
            raise ValueError("a forest needs at least one tree")
        self.trees_ = [DecisionTreeCART().set_state({"tree": tree}) for tree in state["trees"]]
        return self


class GaussianNaiveBayes:
    """Gaussian NB with log-space scoring and relative variance smoothing."""

    VAR_SMOOTHING = 1e-9

    def __init__(self):
        self.log_prior: Optional[np.ndarray] = None  # [False, True]
        self.mean: Optional[np.ndarray] = None
        self.var: Optional[np.ndarray] = None

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = _as_bool_labels(y)
        if y.all() or not y.any():
            raise DegenerateTrainingSet("gaussian NB needs both classes in training data")
        max_var = float(X.var(axis=0).max())
        eps = self.VAR_SMOOTHING * max_var if max_var > 0 else self.VAR_SMOOTHING
        means, variances, priors = [], [], []
        for label in (False, True):
            block = X[y == label]
            means.append(block.mean(axis=0))
            variances.append(block.var(axis=0) + eps)
            priors.append(len(block) / len(X))
        self.mean = np.stack(means)
        self.var = np.stack(variances)
        self.log_prior = np.log(np.array(priors))
        return self

    def _joint_log_likelihood(self, X: np.ndarray) -> np.ndarray:
        jll = np.empty((len(X), 2))
        for c in range(2):
            log_det = np.sum(np.log(2.0 * np.pi * self.var[c]))
            sq = ((X - self.mean[c]) ** 2 / self.var[c]).sum(axis=1)
            jll[:, c] = self.log_prior[c] - 0.5 * (log_det + sq)
        return jll

    def predict(self, X) -> np.ndarray:
        jll = self._joint_log_likelihood(np.asarray(X, dtype=float))
        return jll[:, 1] > jll[:, 0]

    def get_state(self) -> dict:
        return {"log_prior": self.log_prior.tolist(), "mean": self.mean.tolist(), "var": self.var.tolist()}

    def set_state(self, state: dict) -> "GaussianNaiveBayes":
        self.log_prior, self.mean, self.var = (np.array(state[k], dtype=float) for k in ("log_prior", "mean", "var"))
        return self


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# name -> (allowed values, test) for every hyperparameter a family accepts
HYPERPARAMETER_RANGES = {
    "k": ("an integer >= 1", lambda v: _is_int(v) and v >= 1),
    "n_estimators": ("an integer >= 1", lambda v: _is_int(v) and v >= 1),
    "epochs": ("an integer >= 1", lambda v: _is_int(v) and v >= 1),
    "max_leaf_nodes": ("an integer >= 2 or none", lambda v: v is None or (_is_int(v) and v >= 2)),
    "lam": (
        "a finite number > 0",
        lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v) and v > 0,
    ),
}


@dataclass(frozen=True)
class Family:
    """One model family: report name, estimator class, hyperparameters, default sweep."""

    display_name: str
    estimator: type  # takes the hyperparameters as keywords, and ``seed`` when it has one
    sweep_param: Optional[str] = None
    sweep_values: tuple = ()
    extra_params: tuple = ()  # further hyperparameters ``train`` accepts

    @cached_property
    def seeded(self) -> bool:
        return "seed" in inspect.signature(self.estimator).parameters

    def check(self, hyperparameters: dict) -> None:
        """ConfigError for an unknown hyperparameter or a value outside its range."""
        unknown = sorted(set(hyperparameters) - {self.sweep_param, *self.extra_params})
        if unknown:
            raise ConfigError(f"{self.display_name}: unknown hyperparameter {unknown[0]!r}")
        for name, value in hyperparameters.items():
            allowed, test = HYPERPARAMETER_RANGES[name]
            if not test(value):
                raise ConfigError(f"{self.display_name}: {name} must be {allowed}, got {value!r}")

    def build(self, seed: int, **hyperparameters):
        """Unfitted estimator; hyperparameters left out keep the constructor's defaults."""
        self.check(hyperparameters)
        if self.seeded:
            hyperparameters["seed"] = seed
        return self.estimator(**hyperparameters)


FAMILIES = {
    ModelFamily.UNIFORM: Family("Uniform", UniformBaseline),
    ModelFamily.STRATIFIED: Family("Stratified", StratifiedBaseline),
    ModelFamily.MOST_FREQUENT: Family("Most Frequent", MostFrequentBaseline),
    ModelFamily.SVM: Family("SVM", LinearSVM, "lam", (1e-4, 1e-3, 1e-2), extra_params=("epochs",)),
    ModelFamily.KNN: Family("kNN", KNearestNeighbors, "k", (1, 3, 5, 7, 9, 11, 15)),
    ModelFamily.DECISION_TREE: Family("Decision Tree", DecisionTreeCART, "max_leaf_nodes", (4, 8, 16, 32, 64, None)),
    ModelFamily.RANDOM_FOREST: Family("Random Forest", RandomForest, "n_estimators", (10, 50, 100, 200)),
    ModelFamily.NAIVE_BAYES: Family("Naive Bayes", GaussianNaiveBayes),
}

DEFAULT_GRIDS = {
    family: [{f.sweep_param: v} for v in f.sweep_values] for family, f in FAMILIES.items() if f.sweep_values
}


@dataclass
class TrainedModel:
    """A fitted estimator plus everything needed to reuse it elsewhere."""

    family: ModelFamily
    hyperparameters: dict
    seed: int
    n_features: int
    estimator: object

    @property
    def standardization(self) -> Optional[dict]:
        scaler = getattr(self.estimator, "scaler", None)
        if scaler is None or scaler.mean is None:
            return None
        return {"mean": [float(v) for v in scaler.mean], "scale": [float(v) for v in scaler.scale]}

    def _checked(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise LengthMismatch(f"expected {self.n_features} features, got {X.shape[-1]}")
        return X

    def predict_batch(self, X) -> np.ndarray:
        return self.estimator.predict(self._checked(X))

    def predict_grid(self, X, values: Sequence) -> list:
        """Predictions for each sweep value of an estimator with ``predict_grid``."""
        return self.estimator.predict_grid(self._checked(X), values)

    def predict(self, features) -> bool:
        features = np.asarray(features, dtype=float)
        if features.ndim != 1 or len(features) != self.n_features:
            raise LengthMismatch(f"expected {self.n_features} features, got {len(features)}")
        return bool(self.estimator.predict(features[np.newaxis, :])[0])


def as_arrays(data):
    """Accept a list of LabeledInstance or an (X, y) pair."""
    if isinstance(data, tuple):
        X, y = data
        return np.asarray(X, dtype=float), _as_bool_labels(y)
    instances = list(data)
    if not instances:
        raise EmptyInput("no training instances")
    X = np.stack([i.features for i in instances])
    y = np.array([i.label for i in instances], dtype=bool)
    return X, y


def train(spec: ModelSpec, data) -> TrainedModel:
    X, y = as_arrays(data)
    if len(X) == 0:
        raise EmptyInput("no training instances")
    estimator = FAMILIES[spec.family].build(spec.seed, **spec.hyperparameters).fit(X, y)
    return TrainedModel(
        family=spec.family,
        hyperparameters=dict(spec.hyperparameters),
        seed=spec.seed,
        n_features=X.shape[1],
        estimator=estimator,
    )


def grid_predictions(family: ModelFamily, grid: Sequence[dict], train_data, X_eval, seed: int = 0) -> list:
    """Predictions on ``X_eval`` of a model refit on ``train_data`` at each grid point, in grid order.

    When the family's estimator has ``grid_cover``/``predict_grid`` and the
    points differ only in the sweep parameter, one model is trained, at the
    covering point, and every point is read from it. Otherwise each point is
    trained on its own.
    """
    f = FAMILIES[family]
    rest = [{k: v for k, v in point.items() if k != f.sweep_param} for point in grid]
    sweep_only = all(f.sweep_param in point for point in grid) and all(r == rest[0] for r in rest)
    if sweep_only and hasattr(f.estimator, "grid_cover"):
        for point in grid:
            f.check(point)
        values = [point[f.sweep_param] for point in grid]
        cover = ModelSpec(family, {**rest[0], f.sweep_param: f.estimator.grid_cover(values)}, seed)
        return train(cover, train_data).predict_grid(X_eval, values)
    return [train(ModelSpec(family, dict(point), seed), train_data).predict_batch(X_eval) for point in grid]


def sweep_full(family: ModelFamily, grid: Sequence[dict], train_data, eval_data, seed: int = 0):
    """Grid point with the best micro-F1 on eval_data (first point wins ties) and its predictions there."""
    from .evaluate import best_point

    if not grid:
        raise ValueError("hyperparameter grid must not be empty")
    X_eval, y_eval = as_arrays(eval_data)
    predictions = grid_predictions(family, grid, train_data, X_eval, seed)
    g = best_point(predictions, y_eval)
    return ModelSpec(family, dict(grid[g]), seed), predictions[g]


def save_model(model: TrainedModel, path) -> None:
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "family": model.family.value,
        "hyperparameters": dict(model.hyperparameters),
        "seed": model.seed,
        "n_features": model.n_features,
        "standardization": model.standardization,
        "parameters": model.estimator.get_state(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_model(path) -> TrainedModel:
    """Read a saved model: a missing file is a ConfigError, a malformed one a DataError."""
    try:
        data = Path(path).read_bytes()
    except OSError:
        raise ConfigError("model: not found") from None
    try:
        payload = json.loads(data)
        version = payload.get("format_version") if isinstance(payload, dict) else None
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format: {version!r}")
        spec = ModelSpec(ModelFamily(payload["family"]), payload["hyperparameters"], payload["seed"])
        est = FAMILIES[spec.family].build(spec.seed, **spec.hyperparameters).set_state(payload["parameters"])
        if payload["standardization"] is not None and hasattr(est, "scaler"):
            est.scaler.mean = np.array(payload["standardization"]["mean"], dtype=float)
            est.scaler.scale = np.array(payload["standardization"]["scale"], dtype=float)
            if not est.scaler.mean.shape == est.scaler.scale.shape == (payload["n_features"],):
                raise ValueError("standardization does not match n_features")
        return TrainedModel(spec.family, spec.hyperparameters, spec.seed, payload["n_features"], est)
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"model: malformed model file: {exc}") from None
