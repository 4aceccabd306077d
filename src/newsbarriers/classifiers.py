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
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError
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


VARIANCE_OVERFLOWS = "a feature's variance overflows float64"


class Standardizer:
    """Per-feature (x - mean) / std; zero-variance features keep scale 1."""

    mean = scale = None

    def fit(self, X: np.ndarray) -> "Standardizer":
        with np.errstate(over="ignore"):  # a variance that overflows is inf: checked below
            self.mean = X.mean(axis=0)
            std = X.std(axis=0)
        if np.isinf(std).any():
            raise DataError(VARIANCE_OVERFLOWS)
        self.scale = np.where(std > 0, std, 1.0)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) / self.scale


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
        if y.all() or not y.any():
            raise DataError("stratified baseline needs both classes in training data")
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
        self.X_ = self.scaler.fit(X).transform(X)
        self.y_ = y
        return self

    def predict(self, X) -> np.ndarray:
        return self.predict_grid(X, [self.k])[0]

    def predict_grid(self, X, values: Sequence[int]) -> list:
        """Predictions for each k in ``values``: the fit does not depend on k,
        and the k nearest neighbours are a prefix of one stable sort."""
        Xs = self.scaler.transform(X)
        ks = np.array([min(k, len(self.X_)) for k in values], dtype=int)  # capped before numpy: k may pass int64
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
        y_pm = np.where(y, 1.0, -1.0).tolist()
        Xs = self.scaler.fit(X).transform(X)
        Xa = np.hstack([Xs, np.ones((len(Xs), 1))])
        rows = list(Xa)
        w, step = np.zeros(Xa.shape[1]), np.empty(Xa.shape[1])
        rng = np.random.default_rng(self.seed)
        multiply, add = np.multiply, np.add
        lam, t = self.lam, 0
        with np.errstate(over="ignore", invalid="ignore"):  # a lam too small overflows: checked below
            for _ in range(self.epochs):
                # the epoch's steps as lists: row, label, 1 - eta * lam and eta * label, eta = 1 / (lam * t)
                order = rng.permutation(len(Xa)).tolist()
                eta = [1.0 / (lam * s) for s in range(t + 1, t + len(order) + 1)]
                labels = [y_pm[i] for i in order]
                t += len(order)
                for row, label, decay, scale in zip([rows[i] for i in order], labels, [1.0 - e * lam for e in eta],
                                                     [e * y_t for e, y_t in zip(eta, labels)]):
                    violated = label * row.dot(w) < 1.0  # the 1-D BLAS dot of np.dot and of Xa[i] @ w
                    multiply(w, decay, out=w)
                    if violated:
                        add(w, multiply(row, scale, out=step), out=w)
        if not np.isfinite(w).all():
            raise ConfigError(f"SVM: lam = {lam!r} is too small: the weights overflow")
        self.weights = w[:-1]
        self.bias = float(w[-1])
        return self

    def decision_values(self, X) -> np.ndarray:
        return self.scaler.transform(X) @ self.weights + self.bias

    def predict(self, X) -> np.ndarray:
        return self.decision_values(X) > 0.0


class _Tree(Stateful):
    """Flat binary tree: parallel node arrays, feature < 0 marks a leaf. A forest's trees lie end to
    end in one such table, each child indexed within its tree (``RandomForest``)."""

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
    feature = threshold = left = right = prediction = None

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.feature < 0))

    def predict(self, X: np.ndarray, splits: Optional[int] = None) -> np.ndarray:
        """Leaf predictions of the tree rooted at node 0; with ``splits`` set, those of the
        tree as it stood after its first ``splits`` splits (``_predict_trees``)."""
        return _predict_trees(self, np.zeros(1, dtype=np.intp), X, splits)[0]


def _predict_trees(table: _Tree, roots: np.ndarray, X: np.ndarray, splits: Optional[int] = None) -> np.ndarray:
    """(tree, row) leaf predictions on ``X`` of the trees of ``table``, which lie end to end from
    the first nodes ``roots``, each child indexed within its tree; with ``splits`` set, those of
    one tree as it stood after its first ``splits`` splits.

    Every (tree, row) pair walks down together, one level per pass. A pair's node id stays local
    to its tree, as the children are, and the pair's tree start is added at each gather. Node ids
    are allocated in split order (split r creates nodes 2r+1 and 2r+2), so an internal node whose
    left child is 2*splits+1 or later was split afterwards and still acts as the leaf it was.
    """
    feature, threshold, left, right = table.feature, table.threshold, table.left, table.right
    inner = (feature >= 0) if splits is None else (feature >= 0) & (left < 2 * splits + 1)
    start = np.repeat(roots, len(X))  # each pair's tree start
    node = np.zeros(len(start), dtype=np.intp)
    row = np.tile(np.arange(len(X)), len(roots))
    walking = np.arange(len(node))
    while len(walking):
        at = start[walking] + node[walking]
        walking, at = walking[inner[at]], at[inner[at]]
        node[walking] = np.where(X[row[walking], feature[at]] <= threshold[at], left[at], right[at])
    return table.prediction[start + node].reshape(len(roots), len(X))


MASK32 = 0xFFFFFFFF
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _spawn_states(seed: int, n: int) -> list:
    """The PCG64 ``(state, inc)`` of ``default_rng(child)`` for each child of
    ``SeedSequence(seed).spawn(n)``, n <= 2^32, computed for all children at once.

    A child's entropy is the seed's 32-bit words, zero-padded to 4, then its index i; the seed's
    words mix the same for every child, into ``SeedSequence(seed).pool``, so only i is mixed in
    here, after the hash constant has stepped past the seed's 16 + 4 max(words - 4, 0) hashmix
    calls. ``generate_state(4, np.uint64)`` then hashes the pool into (initstate, initseq), each
    a high then a low 64-bit word; the constants are numpy's. PCG64 then sets inc = 2 initseq + 1
    and steps twice from 0, adding initstate between the steps.
    """
    n_words = (max(int(seed).bit_length(), 1) + 31) // 32
    hash_const = 0x43B0D7E5 * pow(0x931E8875, 16 + 4 * max(n_words - 4, 0), 1 << 32) & MASK32
    spawn = np.arange(n, dtype=np.uint32)
    pool = []
    for word in np.random.SeedSequence(seed).pool.tolist():  # mix(word, hashmix(spawn))
        value = spawn ^ np.uint32(hash_const)
        hash_const = hash_const * 0x931E8875 & MASK32
        value = value * np.uint32(hash_const)
        value = np.uint32(word * 0xCA01F9DD & MASK32) - (value ^ value >> 16) * np.uint32(0x4973F715)
        pool.append(value ^ value >> 16)
    const, words = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(const)
        const = const * 0x58F38DED & MASK32
        value = value * np.uint32(const)
        words.append((value ^ value >> 16).astype(np.uint64))
    halves = [(words[2 * k] | words[2 * k + 1] << np.uint64(32)).tolist() for k in range(4)]
    states = []
    for high, low, seq_high, seq_low in zip(*halves):
        inc = ((seq_high << 64 | seq_low) << 1 | 1) & ((1 << 128) - 1)
        states.append(((((high << 64 | low) + inc) * PCG64_MULTIPLIER + inc) % (1 << 128), inc))
    return states


def _pcg64(state: tuple, bit_generator: Optional[np.random.PCG64] = None) -> np.random.PCG64:
    """``bit_generator`` (a new one by default) set to the PCG64 ``(state, inc)`` ``state``."""
    bit_generator = bit_generator or np.random.PCG64()
    bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state[0], "inc": state[1]},
                           "has_uint32": 0, "uinteger": 0}
    return bit_generator


def _stream_words(states: list, count: int) -> np.ndarray:
    """(stream, count) table of the first ``count`` 32-bit words of each PCG64 ``(state, inc)``'s
    stream, as ``Generator.integers`` reads them: each 64-bit output's low half, then its high half."""
    out = np.empty((len(states), count), dtype=np.uint32)
    bit_generator = np.random.PCG64()
    for t, state in enumerate(states):
        raw = _pcg64(state, bit_generator).random_raw((count + 1) // 2)
        out[t] = raw.astype("<u8", copy=False).view("<u4")[:count]
    return out


# numpy's Generator.choice(d, m, replace=False) is Floyd's algorithm up to this d; above, it may shuffle
FLOYD_MAX_POPULATION = 10000


def _tree_draws(states: list, n: int, d: int, m: int) -> tuple:
    """Each tree's draws from ``rng = Generator(PCG64 (state, inc) states[t])``, for all trees at
    once: the (tree, n) bootstrap, ``rng.integers(0, n, size=n)``, and the (tree, count, m) table
    of the next ``count`` calls of ``np.sort(rng.choice(d, m, replace=False))``, where count is
    ``max(_most_distinct(samples) - 1, 1)``; for m = d, each row of the table is every feature.

    A bounded draw is Lemire's method on one 32-bit word: the product's high half, unless its low
    half is below 2^32 mod bound (about bound in 2^32 words), which rejects the word and reads
    another. Up to ``FLOYD_MAX_POPULATION`` a ``choice`` call is Floyd's algorithm: for j = d - m,
    ..., d - 1 a bounded draw in [0, j], which is taken unless already taken, when j is. A shuffle
    of m - 1 bounded draws follows, in [0, i] for i = m - 1, ..., 1; after the sort only its word
    count matters. So, but for a rejection, the bootstrap reads the first n words (for n = 1
    none) and the k-th call the 2m - 1 after the bootstrap from k(2m - 1) on, and every tree's
    draws are replayed from them at once, one word column at a time. A tree whose words hold a
    rejection, and every tree above ``FLOYD_MAX_POPULATION``, is redrawn whole by its ``rng``.
    """
    n_trees = len(states)
    floyd = d <= FLOYD_MAX_POPULATION
    skip = n if n > 1 else 0
    per_call = 2 * m - 1 if m < d and floyd else 0
    words = _stream_words(states, skip + max(n - 1, 1) * per_call)  # a tree draws at most n - 1 times
    product = words[:, :skip].astype(np.uint64) * np.uint64(n)
    redraw = ((product & MASK32) < (1 << 32) % n).any(axis=1)
    samples = (product >> 32).astype(np.intp) if skip else np.zeros((n_trees, 1), dtype=np.intp)
    for t in np.flatnonzero(redraw).tolist():
        samples[t] = np.random.Generator(_pcg64(states[t])).integers(0, n, size=n)
    count = max(_most_distinct(samples) - 1, 1)
    if m == d:
        return samples, np.broadcast_to(np.arange(d), (n_trees, count, d))
    words = words[:, skip:skip + count * per_call].reshape(n_trees, count, per_call)
    table = np.empty((n_trees, count, m), dtype=np.int16 if floyd else np.intp)  # FLOYD_MAX_POPULATION < 2^15
    # j + 1 for each Floyd word, then i + 1 for each shuffle word
    for c, bound in enumerate([*range(d - m + 1, d + 1), *range(m, 1, -1)] if floyd else []):
        product = words[:, :, c] * np.uint64(bound)
        redraw |= ((product & MASK32) < (1 << 32) % bound).any(axis=1)
        if c < m:
            value = (product >> 32).astype(np.int16)
            table[:, :, c] = np.where((table[:, :, :c] == value[:, :, None]).any(axis=2), bound - 1, value)
    table.sort(axis=2)
    for t in np.flatnonzero(redraw | (not floyd)).tolist():
        rng = np.random.Generator(_pcg64(states[t]))
        rng.integers(0, n, size=n)
        table[t] = [np.sort(rng.choice(d, m, replace=False)) for _ in range(count)]
    return samples, table


# a chunk of the split search holds the nodes whose first (row, candidate) pair, or the sorted cells
# whose first row, falls in one stretch of this many
SPLIT_BLOCK_CELLS = 1 << 14


def _child_gini(n_left: np.ndarray, t_left: np.ndarray, n: np.ndarray, n_true: np.ndarray) -> np.ndarray:
    """Weighted child Gini of cutting a node of ``n`` rows, ``n_true`` TRUE, into a left child of
    ``n_left`` rows, ``t_left`` TRUE, and the rest; all four are integer arrays."""
    f_left = n_left - t_left
    n_right = n - n_left
    t_right = n_true - t_left
    f_right = n_right - t_right
    return n_left * (1.0 - (t_left / n_left) ** 2 - (f_left / n_left) ** 2) + n_right * (
        1.0 - (t_right / n_right) ** 2 - (f_right / n_right) ** 2
    )


def _runs(offset: np.ndarray) -> list:
    """The [a, z) bounds of the runs of items whose ``offset`` (non-decreasing) falls in one
    stretch of ``SPLIT_BLOCK_CELLS``."""
    chunk = offset // SPLIT_BLOCK_CELLS
    starts = (np.flatnonzero(chunk[1:] != chunk[:-1]) + 1).tolist()
    return list(zip([0, *starts], [*starts, len(offset)])) if len(offset) else []


def _best_splits(X: np.ndarray, y: np.ndarray, rows: np.ndarray, start: np.ndarray, size: np.ndarray,
                 n_true: np.ndarray, features: np.ndarray, binary: np.ndarray) -> tuple:
    """Best split of each node, as arrays (impurity decrease, feature, threshold); the
    decrease is -inf where no candidate feature admits a valid split. Node k holds the rows
    ``rows[start[k]:start[k] + size[k]]`` of ``X``/``y``, ``n_true[k]`` of them TRUE, and its
    candidates are ``features[k]``; ``binary[j]`` is whether column j holds only 0 and 1.

    A cell is one (node, candidate) pair. A 0/1 cell has one cut, at 0.5, and is counted: its
    rows at 0 and the TRUE ones among them, from one gather and one ``np.add.reduceat`` over
    the node segments of a chunk of nodes. The other cells are sorted: their rows are laid end
    to end, cell by cell, and a chunk of cells gets one stable sort by cell, then value, one
    cumulative sum of the labels, and the weighted child Gini at each cut inside a cell between
    a value and a greater one; NaN sorts last, so no cut next to it counts. A chunk is a run of
    nodes, or cells, whose first (row, candidate) pair, or row, is in one stretch of
    ``SPLIT_BLOCK_CELLS``. Both kinds score with ``_child_gini`` on the same integer counts;
    within a cell the first minimum, the lower threshold, wins, and across a node's cells one
    first argmax, the earlier candidate.
    """
    n_nodes, m = features.shape
    child = np.full((n_nodes, m), np.inf)  # each cell's least weighted child Gini
    cut = np.full((n_nodes, m), 0.5)  # and the threshold that gives it
    first = np.cumsum(size) - size  # where each node's segment starts in the flat arrays below
    seg_rows = rows.take(np.repeat(start - first, size) + np.arange(int(size.sum())))
    labels = y[seg_rows]
    counted = binary[features]
    for a, z in _runs(first * m) if counted.any() else ():
        begin, end = first[a], first[z - 1] + size[z - 1]
        segments = first[a:z] - begin
        candidates = np.repeat(features[a:z], size[a:z], axis=0)  # row x candidate
        at_zero = X.take(seg_rows[begin:end, None] * X.shape[1] + candidates) == 0
        n_left = np.add.reduceat(at_zero, segments, dtype=np.intp)
        t_left = np.add.reduceat(at_zero & labels[begin:end, None], segments, dtype=np.intp)
        k, c = np.nonzero(counted[a:z] & (0 < n_left) & (n_left < size[a:z, None]))
        child[a + k, c] = _child_gini(n_left[k, c], t_left[k, c], size[a + k], n_true[a + k])
    ks, cs = np.nonzero(~counted)  # the sorted cells, node by node
    length = size[ks]
    at = np.cumsum(length) - length  # where each sorted cell starts in the flat row layout
    for a, z in _runs(at):
        cell = np.repeat(np.arange(z - a), length[a:z])
        begin = at[a:z] - at[a]  # where each cell starts in the chunk
        flat = np.repeat(first[ks[a:z]] - begin, length[a:z]) + np.arange(len(cell))  # into seg_rows
        values = X.take(seg_rows[flat] * X.shape[1] + features[ks[a:z], cs[a:z]][cell])
        order = np.lexsort((values, cell))
        sv = values[order]
        t_before = np.append(0, labels[flat[order]].cumsum())  # the TRUE rows before each position
        # score only the cuts inside a cell between a value and a greater one; the rest stay +inf
        p = np.flatnonzero((sv[:-1] < sv[1:]) & (cell[:-1] == cell[1:]))
        c = cell[p]
        scores = np.full(len(sv), np.inf)
        scores[p] = _child_gini(p + 1 - begin[c], t_before[p + 1] - t_before[begin[c]], length[a + c], n_true[ks[a + c]])
        least = np.minimum.reduceat(scores, begin)
        q = np.flatnonzero((scores == least[cell]) & (scores < np.inf))
        q = q[np.diff(cell[q], prepend=-1) != 0]  # each cell's first cut at its least score, if it has a cut
        k, j = ks[a + cell[q]], cs[a + cell[q]]
        lo, hi = sv[q], sv[q + 1]
        with np.errstate(over="ignore", invalid="ignore"):  # invalid: a cut from -inf to inf
            mid = (lo + hi) / 2.0
        child[k, j] = scores[q]
        # where the midpoint rounds up to hi or overflows, the cut is at lo
        cut[k, j] = np.where((lo <= mid) & (mid < hi), mid, lo)
    pt, pf = n_true / size, (size - n_true) / size
    decrease = (size * (1.0 - pt * pt - pf * pf))[:, None] - child
    c = decrease.argmax(axis=1)
    r = np.arange(n_nodes)
    return decrease[r, c], features[r, c], cut[r, c]


def _partition(X: np.ndarray, y: np.ndarray, rows: np.ndarray, trees: np.ndarray, lo: np.ndarray,
               counts: np.ndarray, feature: np.ndarray, threshold: np.ndarray) -> tuple:
    """Partition each segment ``rows[trees[i], lo[i]:lo[i] + counts[i]]`` in place, with one
    compare for all of them: the rows whose ``feature[i]`` is at most ``threshold[i]`` first,
    each side in its order. Returns each segment's count of those rows and of their TRUE labels."""
    first = np.cumsum(counts) - counts  # where each segment starts in the flat arrays below
    seg = np.repeat(np.arange(len(trees)), counts)
    at = (trees * rows.shape[1] + lo - first)[seg]
    at += np.arange(len(seg))
    seg_rows = rows.take(at)
    goes_left = X[seg_rows, feature[seg]] <= threshold[seg]
    n_left = np.add.reduceat(goes_left, first, dtype=np.intp)
    t_left = np.add.reduceat(goes_left & y[seg_rows], first, dtype=np.intp)
    seg *= 2
    seg += ~goes_left  # the sort key: segment, then side
    rows.put(at, seg_rows[seg.argsort(kind="stable")])
    return n_left, t_left


def _most_distinct(samples: np.ndarray) -> int:
    """The most distinct rows in a row of ``samples``. The copies of a row go to one side of
    every split, so a tree of r distinct rows has at most r leaves, 2r - 1 nodes; and it draws
    at most r - 1 times, as an impure node holds two distinct rows."""
    return int((np.diff(np.sort(samples, axis=1), axis=1) != 0).sum(axis=1).max()) + 1


def _grow(X: np.ndarray, y: np.ndarray, samples: np.ndarray, table: np.ndarray, max_leaf_nodes: Optional[int]) -> tuple:
    """The trees grown on the rows of ``samples`` (row indices into ``X``, ``y``), all in lockstep:
    one ``_Tree`` table that lays them end to end, each child indexed within its tree, and the
    bounds: tree t holds nodes ``bounds[t]`` to ``bounds[t + 1]``.

    ``table`` is (tree, k, m), k at least ``_most_distinct(samples) - 1``: a tree's k-th impure
    node, in its open order, gets the candidate features ``table[tree, k]``. At each step
    every tree with a node on its heap pops its best node and opens both
    children, left first; then one batched search scores every node opened in
    the step. Each tree equals the one grown alone.

    The growth state is arrays, tree x node, sized once from ``table``: a tree has at most
    k + 1 distinct rows, so at most 2k + 1 nodes. A node's rows are a contiguous segment
    of its tree's row of ``rows``, and a pop partitions its segment, the rows at or below the
    threshold first. A tree's heap is its row of ``pending``: the decrease of
    each node pushed and not yet popped, else -inf. Nodes are pushed in id
    order, so the first maximum is the heap's (-decrease, push counter) minimum.
    """
    n_trees, n = samples.shape
    binary = ((X == 0) | (X == 1)).all(axis=0)
    start, size, n_true, left, feature, threshold, pending = (
        np.full((n_trees, 2 * table.shape[1] + 1), fill) for fill in (0, 0, 0, -1, 0, 0.0, -np.inf))
    rows = samples.copy()
    size[:, 0], n_true[:, 0] = n, y[samples].sum(axis=1)
    n_nodes, n_impure = np.ones(n_trees, dtype=np.intp), np.zeros(n_trees, dtype=np.intp)
    trees, nodes = np.arange(n_trees), np.zeros(n_trees, dtype=np.intp)  # the nodes opened in a step
    while len(trees):
        impure = (0 < n_true[trees, nodes]) & (n_true[trees, nodes] < size[trees, nodes])
        trees, nodes = trees[impure], nodes[impure]
        # a tree's k-th impure node gets row k of its table, a draw or every feature: a step
        # opens one or two nodes per tree, next to each other, the left one first
        k = n_impure[trees] + np.append(False, trees[1:] == trees[:-1])
        n_impure += np.bincount(trees, minlength=n_trees)
        decrease, best, cut = _best_splits(X, y, rows.ravel(), trees * n + start[trees, nodes], size[trees, nodes],
                                           n_true[trees, nodes], table[trees, k], binary)
        found = decrease > -np.inf
        trees, nodes = trees[found], nodes[found]
        pending[trees, nodes], feature[trees, nodes], threshold[trees, nodes] = decrease[found], best[found], cut[found]
        # pop the best node of each tree with a node on its heap and room for two more nodes
        popped = pending[:, :n_nodes.max()].argmax(axis=1)
        trees = np.flatnonzero(pending[np.arange(n_trees), popped] > -np.inf)
        if max_leaf_nodes is not None:
            trees = trees[n_nodes[trees] < 2 * max_leaf_nodes - 1]
        nodes = popped[trees]
        pending[trees, nodes] = -np.inf
        lo, counts = start[trees, nodes], size[trees, nodes]
        n_left, t_left = _partition(X, y, rows, trees, lo, counts, feature[trees, nodes], threshold[trees, nodes])
        children = n_nodes[trees]
        left[trees, nodes] = children
        start[trees, children], size[trees, children], n_true[trees, children] = lo, n_left, t_left
        start[trees, children + 1], size[trees, children + 1] = lo + n_left, counts - n_left
        n_true[trees, children + 1] = n_true[trees, nodes] - t_left
        n_nodes[trees] += 2
        trees, nodes = np.repeat(trees, 2), (children[:, None] + np.arange(2)).ravel()
    kept = np.arange(left.shape[1]) < n_nodes[:, None]  # one mask lays the trees end to end
    internal = left >= 0
    out = _Tree()
    out.feature = np.where(internal, feature, -1)[kept]
    out.threshold = np.where(internal, threshold, 0.0)[kept]
    out.left = left[kept]
    out.right = np.where(internal, left + 1, -1)[kept]
    out.prediction = (2 * n_true > size)[kept]
    return out, np.append(0, np.cumsum(n_nodes))


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
        n, d = X.shape
        every = np.broadcast_to(np.arange(d), (1, max(n - 1, 1), d))
        self.tree_, _ = _grow(X, y, np.arange(n)[None], every, self.max_leaf_nodes)
        return self

    def predict(self, X) -> np.ndarray:
        return self.tree_.predict(X)

    def predict_grid(self, X, values: Sequence[Optional[int]]) -> list:
        """Predictions for each ``max_leaf_nodes`` in ``values`` (at most the
        fitted one): best-first growth to m leaves is the first m - 1 splits."""
        return [self.tree_.predict(X, None if m is None else m - 1) for m in values]


class RandomForest(Stateful):
    """Bagged CART trees voting by majority; vote ties go to FALSE.

    Tree t draws from the generator ``default_rng(SeedSequence(seed).spawn(n_estimators)[t])``:
    first its bootstrap, ``integers(0, n, size=n)``, then ``max_features`` candidate features per
    impure node, ceil(sqrt(d)) unless set. The streams are computed in bulk (``_spawn_states``)
    and the draws replayed from their words (``_tree_draws``); a tree with a rejected word is
    redrawn by its generator. All trees grow together, in lockstep (``_grow``), into one node
    table, ``nodes_``, where tree t holds nodes ``bounds_[t]`` to ``bounds_[t + 1]``, each child
    indexed within its tree.
    """

    STATE = (Field("trees", "tree_tables", _Tree, ("trees",)),)

    def __init__(self, n_estimators: int = 100, max_features: Optional[int] = None, seed: int = 0):
        self.n_estimators = n_estimators
        self.max_features = max_features
        self.seed = seed
        self.nodes_, self.bounds_ = _Tree(), np.zeros(1, dtype=np.intp)  # no trees until a fit

    def fit(self, X, y):
        n, d = X.shape
        m = min(self.max_features if self.max_features is not None else math.isqrt(d - 1) + 1, d)
        samples, table = _tree_draws(_spawn_states(self.seed, self.n_estimators), n, d, m)
        self.nodes_, self.bounds_ = _grow(X, y, samples, table, None)
        return self

    def predict(self, X) -> np.ndarray:
        return self.predict_grid(X, [len(self.bounds_) - 1])[0]

    def predict_grid(self, X, values: Sequence[int]) -> list:
        """Predictions for each ``n_estimators`` in ``values`` (at most the
        fitted one): tree seeds come from ``SeedSequence(seed).spawn(n)``, whose
        first n children do not depend on n, so a smaller forest is a prefix."""
        votes = np.cumsum(_predict_trees(self.nodes_, self.bounds_[:-1], X), axis=0)
        return [votes[n - 1] * 2 > n for n in values]

    @property
    def trees_(self) -> list:
        """A ``DecisionTreeCART`` per tree, in vote order, holding its ``tree_tables`` entry."""
        trees = []
        for table in self.tree_tables:
            trees.append(DecisionTreeCART())
            trees[-1].tree_ = table
        return trees

    @property
    def tree_tables(self) -> list:
        """The node table of each tree, in vote order: a slice of ``nodes_``."""
        bounds = self.bounds_.tolist()
        tables = []
        for a, z in zip(bounds[:-1], bounds[1:]):
            tables.append(_Tree())
            for f in _Tree.STATE:
                setattr(tables[-1], f.attr, getattr(self.nodes_, f.attr)[a:z])
        return tables

    @tree_tables.setter
    def tree_tables(self, tables: list) -> None:
        self.bounds_ = np.append(0, np.cumsum([len(table.feature) for table in tables]))
        self.nodes_ = _Tree()
        for f in _Tree.STATE:
            setattr(self.nodes_, f.attr, np.concatenate([getattr(table, f.attr) for table in tables]))


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
        """Each class's prior, and per feature its mean and its variance plus eps, a share of
        the largest variance of the whole ``X``.

        A class block is gathered as a fresh copy and its variance taken in place, with the
        ufunc calls of ``np.mean`` and ``np.var``: the same bits as ``block.var(axis=0)``,
        without a second temporary the size of the block. A variance that overflows is a
        DataError."""
        if y.all() or not y.any():
            raise DataError("gaussian NB needs both classes in training data")
        means, variances, priors = [], [], []
        with np.errstate(over="ignore"):  # a variance that overflows is inf: checked below
            max_var = float(X.var(axis=0).max())
            eps = self.VAR_SMOOTHING * max_var if max_var > 0 else self.VAR_SMOOTHING
            for label in (False, True):
                block = X[y == label]
                mean = np.add.reduce(block, axis=0) / len(block)
                np.subtract(block, mean, out=block)
                np.multiply(block, block, out=block)
                means.append(mean)
                variances.append(np.add.reduce(block, axis=0) / len(block) + eps)
                priors.append(len(block) / len(X))
        if np.isinf(variances).any():
            raise DataError(VARIANCE_OVERFLOWS)
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
        jll = self._joint_log_likelihood(X)
        return jll[:, 1] > jll[:, 0]


# name -> (allowed values, test) for every hyperparameter a family accepts
HYPERPARAMETER_RANGES = {
    "k": ("an integer >= 1", lambda v: _is_int(v) and v >= 1),
    # each tree's seed is one 32-bit spawn word (_spawn_states)
    "n_estimators": ("an integer in [1, 2^32)", lambda v: _is_int(v) and 1 <= v < 1 << 32),
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
    """A fitted estimator plus everything needed to reuse it elsewhere. Its predict methods convert
    and check their input once (``_checked``): the estimator gets a float64 matrix of n_features columns."""

    family: ModelFamily
    hyperparameters: dict
    seed: int
    n_features: int
    estimator: object

    def _checked(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise DataError(f"expected rows of {self.n_features} features, got an array of shape {X.shape}")
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
    """Fit ``spec`` on ``data``, a pair of a feature matrix and its labels: the one place fit input
    is converted, to a float64 matrix and bool labels, and checked. A numpy scalar hyperparameter
    or seed is read as the Python value it holds, the value a model file records."""
    X, y = np.asarray(data[0], dtype=float), np.asarray(data[1], dtype=bool)
    if X.ndim != 2 or y.shape != X.shape[:1]:
        raise DataError(f"expected a matrix and one label per row, got shapes {X.shape} and {y.shape}")
    if len(X) == 0:
        raise DataError("no training instances")
    if X.shape[1] == 0:
        raise DataError("no feature columns")
    plain = {name: v.item() if isinstance(v, np.generic) else v for name, v in spec.hyperparameters.items()}
    seed = spec.seed.item() if isinstance(spec.seed, np.generic) else spec.seed
    estimator = FAMILIES[spec.family].build(seed, **plain).fit(X, y)
    return TrainedModel(spec.family, plain, seed, X.shape[1], estimator)


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
    """Index of the predictions with the most correct labels, the best accuracy; the first wins ties."""
    correct = (np.asarray(predictions, dtype=bool) == np.asarray(gold, dtype=bool)).sum(axis=1)
    return int(correct.argmax())


def sweep_full(family: ModelFamily, values: Sequence, train_data, eval_data, seed: int = 0):
    """Index of the sweep value with the best accuracy on eval_data (the first wins ties) and its predictions there."""
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
