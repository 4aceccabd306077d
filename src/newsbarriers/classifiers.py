"""From-scratch classifiers and dummy baselines behind one train/predict contract.

``FAMILIES`` is the one table of model families. Every estimator implements
``fit`` and ``predict`` and declares its saved state as ``Field``s, from which
``Stateful`` derives ``get_state`` and ``set_state`` (the one load check). An
estimator whose sweep nests (one fitted model holds the models of smaller sweep
values) also implements ``predict_grid``, and ``grid_predictions`` then fits it
once per grid, at the covering value.

All families are implemented directly (no learning framework) so every numeric
path is testable. Tie rules are global: any prediction tie resolves to FALSE,
the dominant class in the barrier datasets. Distance- and margin-based
families (kNN, SVM) standardize features with training-set statistics; trees
and Naive Bayes consume raw values.

Determinism contract: identical (family, hyperparameters, seed, data) yield
identical learned parameters and predictions.
"""

import inspect
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from heapq import heappop, heappush
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, DegenerateTrainingSet, EmptyInput, LengthMismatch
from .tables import decode_json, read_file, write_json


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

    mean = scale = None

    def fit(self, X: np.ndarray) -> "Standardizer":
        self.mean = X.mean(axis=0)
        std = X.std(axis=0)
        self.scale = np.where(std > 0, std, 1.0)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) / self.scale


def _as_bool_labels(y) -> np.ndarray:
    return np.asarray(y, dtype=bool)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_seed(seed) -> None:
    """ConfigError unless ``seed`` is a numpy seed: an integer >= 0."""
    if not _is_int(seed) or seed < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")


_ELEMENTS = {
    float: ("numbers", lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)),
    int: ("integers", _is_int),
    bool: ("true or false", lambda v: isinstance(v, bool)),
}


@dataclass(frozen=True)
class Field:
    """One saved state field: JSON key, attribute (dotted for a sub-object), element type (float,
    int, bool, or a ``Stateful`` class: one JSON object each) and shape, whose entries are
    "n_features", a fixed size or a length the table's fields share; none is 0. Floats are finite;
    ``rule`` is (what the values must be, test(values, the object with the earlier fields set, n_features))."""

    key: str
    attr: str
    kind: type
    shape: tuple = ()
    rule: Optional[tuple] = None


class Stateful:
    """``get_state``/``set_state`` derived from the declared fields: ``STATE`` is the "parameters"
    object of a saved model file, ``STANDARDIZATION`` its "standardization" object (null if empty)."""

    STATE: tuple = ()
    STANDARDIZATION: tuple = ()

    def get_state(self, fields: Optional[tuple] = None) -> dict:
        """The JSON object of ``fields`` (default ``STATE``)."""
        state = {}
        for f in self.STATE if fields is None else fields:
            value = attrgetter(f.attr)(self)
            if f.kind in _ELEMENTS:
                state[f.key] = np.asarray(value, dtype=f.kind).tolist()
            else:
                state[f.key] = [v.get_state() for v in value] if f.shape else value.get_state()
        return state

    def set_state(self, fields: tuple, state, n_features: int, where: str):
        """Set ``fields`` from the saved JSON object ``state`` at ``where``: the one load check.
        ValueError names the first key missing or unexpected, of a wrong type or shape, or out of range."""
        keys = sorted(f.key for f in fields)
        if not isinstance(state, dict) or sorted(state) != keys:
            raise ValueError(f"{where} must be an object with the keys {keys}")
        sizes = {"n_features": n_features}
        for f in fields:
            at = f"{where}.{f.key}"
            a = np.array(state[f.key], dtype=object)  # ragged lists stay lists, so the shape is wrong
            expected = tuple(sizes.setdefault(d, n) if isinstance(d, str) else d for d, n in zip(f.shape, a.shape))
            if a.ndim != len(f.shape) or a.shape != expected or 0 in a.shape:
                raise ValueError(f"{at} has shape {a.shape}, expected {f.shape} with {sizes}")
            if f.kind in _ELEMENTS:
                what, test = _ELEMENTS[f.kind]
                if not all(map(test, a.flat)):
                    raise ValueError(f"{at} must hold {what}")
                value = a.astype(f.kind)
                if f.kind is float and not np.isfinite(value).all():
                    raise ValueError(f"{at} must be finite")
                if f.rule and not f.rule[1](value, self, n_features):
                    raise ValueError(f"{at} must be {f.rule[0]}")
            else:
                value = [f.kind().set_state(f.kind.STATE, t, n_features, f"{at}[{i}]" if f.shape else at)
                         for i, t in enumerate(a.flat)]
                value = value if f.shape else value[0]
            owner, _, name = f.attr.rpartition(".")
            setattr(attrgetter(owner)(self) if owner else self, name, value)
        return self


POSITIVE = ("> 0", lambda a, est, d: (a > 0).all())
STANDARDIZATION = (
    Field("mean", "scaler.mean", float, ("n_features",)),
    Field("scale", "scaler.scale", float, ("n_features",), POSITIVE),
)


class UniformBaseline(Stateful):
    """Coin-flip predictions from the model's own seeded generator."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def fit(self, X, y):
        return self

    def predict(self, X) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return rng.integers(0, 2, size=len(X)).astype(bool)


class StratifiedBaseline(Stateful):
    """Random predictions matching the training class distribution."""

    STATE = (Field("p_true", "p_true", float, (), ("in [0, 1]", lambda a, est, d: 0 <= a <= 1)),)
    p_true: Optional[float] = None

    def __init__(self, seed: int = 0):
        self.seed = seed

    def fit(self, X, y):
        y = _as_bool_labels(y)
        if y.all() or not y.any():
            raise DegenerateTrainingSet("stratified baseline needs both classes in training data")
        self.p_true = float(y.mean())
        return self

    def predict(self, X) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return rng.random(len(X)) < self.p_true


class MostFrequentBaseline(Stateful):
    """Constant prediction of the training majority label; tie goes to FALSE."""

    STATE = (Field("prediction", "prediction", bool),)
    prediction: Optional[bool] = None

    def fit(self, X, y):
        y = _as_bool_labels(y)
        n_true = int(y.sum())
        self.prediction = n_true > len(y) - n_true
        return self

    def predict(self, X) -> np.ndarray:
        return np.full(len(X), self.prediction, dtype=bool)


class KNearestNeighbors(Stateful):
    """Euclidean kNN on standardized features.

    Ties in the computed float64 distance go to the lower training index
    (stable sort). Distances equal in exact arithmetic can differ in the last
    bit, and then they do not tie. Vote ties go to FALSE. k is capped at the
    training-set size.
    """

    STATE = (Field("X", "X_", float, ("n", "n_features")), Field("y", "y_", bool, ("n",)))
    STANDARDIZATION = STANDARDIZATION
    X_ = y_ = None

    def __init__(self, k: int = 5):
        self.k = k
        self.scaler = Standardizer()

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        self.X_ = self.scaler.fit(X).transform(X)
        self.y_ = _as_bool_labels(y)
        return self

    def predict(self, X) -> np.ndarray:
        return self.predict_grid(X, [self.k])[0]

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


class LinearSVM(Stateful):
    """Linear SVM trained by stochastic subgradient descent on the hinge loss.

    Pegasos-style schedule: step 1/(lam * t) with per-epoch seeded shuffling.
    The intercept is learned as the weight of an internal constant feature.
    Decision threshold is 0; a score of exactly 0 predicts FALSE.
    """

    STATE = (Field("weights", "weights", float, ("n_features",)), Field("bias", "bias", float))
    STANDARDIZATION = STANDARDIZATION
    weights, bias = None, 0.0

    def __init__(self, lam: float = 1e-3, epochs: int = 50, seed: int = 0):
        self.lam = lam
        self.epochs = epochs
        self.seed = seed
        self.scaler = Standardizer()

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


class _Tree(Stateful):
    """Flat binary tree: parallel node lists, feature < 0 marks a leaf."""

    # children after their parent, so predict walks down and cannot loop
    AFTER_NODE = ("after its node where feature >= 0", lambda child, tree, d: (
        (tree.feature < 0) | ((np.arange(len(child)) < child) & (child < len(child)))).all())
    STATE = (
        Field("feature", "feature", int, ("nodes",),
              ("in [-1, n_features)", lambda a, tree, d: ((a >= -1) & (a < d)).all())),
        Field("threshold", "threshold", float, ("nodes",)),
        Field("left", "left", int, ("nodes",), AFTER_NODE),
        Field("right", "right", int, ("nodes",), AFTER_NODE),
        Field("prediction", "prediction", bool, ("nodes",)),
    )

    def __init__(self):
        for f in self.STATE:
            setattr(self, f.attr, [])

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


# the most cells (nodes x bucket size x candidate features) in one block of the batched split search
SPLIT_BLOCK_CELLS = 1 << 14


def _best_splits(Xp: np.ndarray, yp: np.ndarray, nodes: list) -> list:
    """Best (impurity decrease, feature, threshold) of each node, or None when no
    feature admits a valid split. ``nodes`` holds (rows, features, n_true) with
    row indices into ``Xp``/``yp``, whose last row is the pad: NaN, labelled FALSE.

    Nodes are grouped by the next power of two of their size and their number of
    candidate features, and each group is searched in chunks of at most
    ``SPLIT_BLOCK_CELLS`` cells. A chunk is one block, its nodes' rows padded with
    the pad row to the longest: a stable sort per column, then the weighted child
    Gini at every cut not between equal values. NaN sorts after every value and no
    value is below it, so each node's own rows sort first, as in a block of its
    own, and every cut next to a pad is invalid. Ties break toward the lower
    feature (features are sorted), then the lower threshold.
    """
    groups: dict = {}
    for k, (rows, features, _) in enumerate(nodes):
        groups.setdefault((1 << (len(rows) - 1).bit_length(), len(features)), []).append(k)
    out = [None] * len(nodes)
    for (size, m), members in groups.items():
        step = max(1, SPLIT_BLOCK_CELLS // (size * m))
        for start in range(0, len(members), step):
            ks = members[start:start + step]
            chunk = [nodes[k] for k in ks]
            n = np.array([len(rows) for rows, _, _ in chunk])
            n_true = np.array([t for _, _, t in chunk])
            width = int(n.max())
            rows = np.full((len(ks), width), len(Xp) - 1)
            rows[np.arange(width) < n[:, None]] = np.concatenate([r for r, _, _ in chunk])
            features = np.array([f for _, f, _ in chunk])
            block = Xp[rows[:, None, :], features[:, :, None]]  # node x feature x row
            order = block.argsort(axis=2, kind="stable")
            # gather by flat index: block row (k, c) starts at (k * m + c) * width
            sv = block.take(order + np.arange(0, block.size, width).reshape(len(ks), m, 1))
            t_left = yp[rows].take(order + np.arange(0, rows.size, width)[:, None, None]).cumsum(axis=2)[:, :, :-1]
            n_left = np.arange(1, width)
            f_left = n_left - t_left
            n_right = n[:, None, None] - n_left
            t_right = n_true[:, None, None] - t_left
            f_right = n_right - t_right
            with np.errstate(divide="ignore", invalid="ignore"):  # the cuts past a node's end
                child = n_left * (1.0 - (t_left / n_left) ** 2 - (f_left / n_left) ** 2) + n_right * (
                    1.0 - (t_right / n_right) ** 2 - (f_right / n_right) ** 2
                )
            child[~(sv[:, :, :-1] < sv[:, :, 1:])] = np.inf
            j = child.argmin(axis=2)
            pt, pf = n_true / n, (n - n_true) / n
            parent = n * (1.0 - pt * pt - pf * pf)
            decrease = parent[:, None] - np.take_along_axis(child, j[:, :, None], axis=2)[:, :, 0]
            r = np.arange(len(ks))
            c = decrease.argmax(axis=1)
            jc = j[r, c]
            below, above = sv[r, c, jc].tolist(), sv[r, c, jc + 1].tolist()
            for k, dec, feature, lo, hi in zip(ks, decrease[r, c].tolist(), features[r, c].tolist(), below, above):
                if dec != -math.inf:
                    # Python floats: where the midpoint rounds up to hi or overflows, the cut is at lo
                    mid = (lo + hi) / 2.0
                    out[k] = (dec, feature, mid if lo <= mid < hi else lo)
    return out


def _grow(X: np.ndarray, y: np.ndarray, samples: list, rngs: list, max_features: Optional[int],
          max_leaf_nodes: Optional[int]) -> list:
    """The ``_Tree`` grown on each sample (row indices into ``X``, ``y``), all in lockstep.

    An impure node's candidate features are all ``d`` when ``max_features`` is
    unset or at least ``d``, else a sorted draw of ``max_features`` from its
    tree's rng. At each step every tree with a node on its heap pops its best node
    and opens both children, left first; then one batched search scores every node
    opened in the step. Only the candidate-feature draws use a tree's rng, and each
    tree makes them in its own open order, so each tree equals the one grown alone.
    """
    d = X.shape[1]
    draw = max_features is not None and max_features < d
    Xp = np.vstack([X, np.full((1, d), np.nan)])
    yp = np.append(y, False)
    trees = [_Tree() for _ in samples]
    heaps: list = [[] for _ in samples]
    counter = 0
    owners, opened = list(range(len(samples))), list(samples)  # the tree of each opened node, its rows
    while opened:
        # TRUE labels per node in one pass
        sizes = [len(rows) for rows in opened]
        ends = np.cumsum(sizes)
        true_before = np.append(0, y[np.concatenate(opened)].cumsum())
        n_trues = (true_before[ends] - true_before[ends - sizes]).tolist()
        pending, nodes = [], []
        for t, rows, n, n_true in zip(owners, opened, sizes, n_trues):
            node = trees[t].add_leaf(n_true > n - n_true)
            if 0 < n_true < n:
                pending.append((t, node))
                features = np.sort(rngs[t].choice(d, size=max_features, replace=False)) if draw else np.arange(d)
                nodes.append((rows, features, n_true))
        for (t, node), (rows, _, _), split in zip(pending, nodes, _best_splits(Xp, yp, nodes)):
            if split is not None:
                heappush(heaps[t], (-split[0], counter, node, rows, split[1], split[2]))
                counter += 1
        owners, opened = [], []
        for t, (tree, heap) in enumerate(zip(trees, heaps)):
            # a tree of L leaves has 2L - 1 nodes
            if heap and (max_leaf_nodes is None or len(tree.feature) < 2 * max_leaf_nodes - 1):
                _, _, node, rows, feature, threshold = heappop(heap)
                mask = X[rows, feature] <= threshold
                tree.make_internal(node, feature, threshold, len(tree.feature), len(tree.feature) + 1)
                owners += [t, t]
                opened += [rows[mask], rows[~mask]]
    return trees


class DecisionTreeCART(Stateful):
    """Binary CART with Gini impurity and best-first leaf growth over every feature.

    Growth stops when ``max_leaf_nodes`` is reached or no impure node admits a
    split; impure nodes split even at zero immediate Gini decrease as long as
    a valid threshold exists, so depth alone never blocks a separable fit.
    """

    STATE = (Field("tree", "tree_", _Tree),)

    def __init__(self, max_leaf_nodes: Optional[int] = None):
        self.max_leaf_nodes = max_leaf_nodes
        self.tree_: Optional[_Tree] = None

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        (self.tree_,) = _grow(X, _as_bool_labels(y), [np.arange(len(X))], [None], None, self.max_leaf_nodes)
        return self

    def predict(self, X) -> np.ndarray:
        return self.tree_.predict(np.asarray(X, dtype=float))

    def predict_grid(self, X, values: Sequence[Optional[int]]) -> list:
        """Predictions for each ``max_leaf_nodes`` in ``values`` (at most the
        fitted one): best-first growth to m leaves is the first m - 1 splits."""
        X = np.asarray(X, dtype=float)
        return [self.tree_.predict(X, None if m is None else m - 1) for m in values]


class RandomForest(Stateful):
    """Bagged CART trees voting by majority; vote ties go to FALSE.

    Each tree sees a bootstrap sample and draws ``max_features`` candidate
    features per node, ceil(sqrt(d)) unless set, from its own rng. All trees
    grow together, in lockstep (``_grow``).
    """

    STATE = (Field("trees", "tree_tables", _Tree, ("trees",)),)

    def __init__(self, n_estimators: int = 100, max_features: Optional[int] = None, seed: int = 0):
        self.n_estimators = n_estimators
        self.max_features = max_features
        self.seed = seed
        self.trees_: list = []

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        n, d = X.shape
        max_features = self.max_features if self.max_features is not None else math.isqrt(d - 1) + 1
        rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(self.seed).spawn(self.n_estimators)]
        samples = [rng.integers(0, n, size=n) for rng in rngs]  # the bootstrap: each tree's first draw
        self.tree_tables = _grow(X, _as_bool_labels(y), samples, rngs, max_features, None)
        return self

    def predict(self, X) -> np.ndarray:
        return self.predict_grid(X, [len(self.trees_)])[0]

    def predict_grid(self, X, values: Sequence[int]) -> list:
        """Predictions for each ``n_estimators`` in ``values`` (at most the
        fitted one): tree seeds come from ``SeedSequence(seed).spawn(n)``, whose
        first n children do not depend on n, so a smaller forest is a prefix."""
        X = np.asarray(X, dtype=float)
        votes = np.cumsum([tree.predict(X) for tree in self.trees_], axis=0)
        return [votes[n - 1] * 2 > n for n in values]

    @property
    def tree_tables(self) -> list:
        """The node table of each tree, in vote order."""
        return [tree.tree_ for tree in self.trees_]

    @tree_tables.setter
    def tree_tables(self, tables: list) -> None:
        self.trees_ = [DecisionTreeCART() for _ in tables]
        for tree, table in zip(self.trees_, tables):
            tree.tree_ = table


class GaussianNaiveBayes(Stateful):
    """Gaussian NB with log-space scoring and relative variance smoothing."""

    VAR_SMOOTHING = 1e-9
    STATE = (
        Field("log_prior", "log_prior", float, (2,)),
        Field("mean", "mean", float, (2, "n_features")),
        Field("var", "var", float, (2, "n_features"), POSITIVE),
    )
    log_prior = mean = var = None  # rows [False, True]

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
        check_seed(seed)
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

@dataclass
class TrainedModel:
    """A fitted estimator plus everything needed to reuse it elsewhere."""

    family: ModelFamily
    hyperparameters: dict
    seed: int
    n_features: int
    estimator: object

    def _checked(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise LengthMismatch(f"expected rows of {self.n_features} features, got an array of shape {X.shape}")
        return X

    # A loaded model may hold values whose scores overflow: an infinite or NaN
    # score compares false, so it predicts FALSE, by the global tie rule.
    @np.errstate(all="ignore")
    def predict_batch(self, X) -> np.ndarray:
        return self.estimator.predict(self._checked(X))

    @np.errstate(all="ignore")
    def predict_grid(self, X, values: Sequence) -> list:
        """Predictions for each sweep value of an estimator with ``predict_grid``."""
        return self.estimator.predict_grid(self._checked(X), values)


def train(spec: ModelSpec, data) -> TrainedModel:
    """Fit ``spec`` on ``data``, a pair of a feature matrix and its labels."""
    X, y = data
    X = np.asarray(X, dtype=float)
    if len(X) == 0:
        raise EmptyInput("no training instances")
    estimator = FAMILIES[spec.family].build(spec.seed, **spec.hyperparameters).fit(X, y)
    return TrainedModel(spec.family, dict(spec.hyperparameters), spec.seed, X.shape[1], estimator)


def grid_predictions(family: ModelFamily, values: Sequence, train_data, X_eval, seed: int = 0) -> list:
    """Predictions on ``X_eval`` of a model fit on ``train_data`` at each sweep value, in order;
    one prediction, of the default model, for a family with no sweep parameter (``values`` empty).

    When the family's estimator has ``predict_grid``, one model is trained, at the
    covering value (``None`` if ``values`` holds it, else the largest), and every
    value is read from it. Otherwise each value is trained on its own.
    """
    f = FAMILIES[family]
    if (len(values) > 0) != (f.sweep_param is not None):
        raise ValueError(f"{f.display_name}: got {len(values)} values for sweep parameter {f.sweep_param!r}")
    points = [{f.sweep_param: v} for v in values] or [{}]
    if hasattr(f.estimator, "predict_grid"):
        for point in points:
            f.check(point)
        cover = ModelSpec(family, {f.sweep_param: None if None in values else max(values)}, seed)
        return train(cover, train_data).predict_grid(X_eval, values)
    return [train(ModelSpec(family, point, seed), train_data).predict_batch(X_eval) for point in points]


def best_point(predictions: Sequence[np.ndarray], gold) -> int:
    """Index of the predictions with the most correct labels, the best micro-F1 (which equals
    accuracy for single-label binary prediction); the first wins ties."""
    correct = (np.asarray(predictions, dtype=bool) == np.asarray(gold, dtype=bool)).sum(axis=1)
    return int(correct.argmax())


def sweep_full(family: ModelFamily, values: Sequence, train_data, eval_data, seed: int = 0):
    """Index of the sweep value with the best micro-F1 on eval_data (the first wins ties) and its predictions there."""
    predictions = grid_predictions(family, values, train_data, eval_data[0], seed)
    g = best_point(predictions, eval_data[1])
    return g, predictions[g]


def save_model(model: TrainedModel, path) -> None:
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "family": model.family.value,
        "hyperparameters": dict(model.hyperparameters),
        "seed": model.seed,
        "n_features": model.n_features,
        "standardization": model.estimator.get_state(model.estimator.STANDARDIZATION) or None,
        "parameters": model.estimator.get_state(),
    }
    write_json(path, payload)


def load_model(path) -> TrainedModel:
    """Read a saved model: a missing file is a ConfigError, a malformed one a DataError."""
    text = read_file(path)
    try:
        payload = decode_json(text)
        version = payload.get("format_version") if isinstance(payload, dict) else None
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format: {version!r}")
        spec = ModelSpec(ModelFamily(payload["family"]), payload["hyperparameters"], payload["seed"])
        n_features = payload["n_features"]
        if not _is_int(n_features) or n_features < 1:
            raise ValueError(f"n_features must be an integer >= 1, got {n_features!r}")
        est = FAMILIES[spec.family].build(spec.seed, **spec.hyperparameters)
        est.set_state(est.STATE, payload["parameters"], n_features, "parameters")
        std = payload["standardization"]
        est.set_state(est.STANDARDIZATION, {} if std is None else std, n_features, "standardization")
        return TrainedModel(spec.family, spec.hyperparameters, spec.seed, n_features, est)
    except (ConfigError, DataError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise DataError(f"malformed model file: {exc}") from None
