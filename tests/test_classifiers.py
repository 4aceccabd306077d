import math
import tempfile
import tracemalloc
from heapq import heappop, heappush
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from newsbarriers import classifiers
from newsbarriers.classifiers import (
    FAMILIES,
    DecisionTreeCART,
    GaussianNaiveBayes,
    KNearestNeighbors,
    LinearSVM,
    ModelFamily,
    ModelSpec,
    MostFrequentBaseline,
    RandomForest,
    Standardizer,
    StratifiedBaseline,
    TrainedModel,
    UniformBaseline,
    best_point,
    family_from_name,
    grid_predictions,
    load_model,
    save_model,
    sweep_full,
    train,
)
from newsbarriers.errors import ConfigError, DataError

from conftest import class_summed_micro
from test_golden import concept_profile_matrix


def blobs(n_per_class=50, separation=4.0, scale=0.5, d=2, seed=0):
    rng = np.random.default_rng(seed)
    lo = rng.normal(-separation / 2, scale, size=(n_per_class, d))
    hi = rng.normal(separation / 2, scale, size=(n_per_class, d))
    X = np.vstack([lo, hi])
    y = np.array([False] * n_per_class + [True] * n_per_class)
    return X, y


def test_every_family_has_documented_defaults():
    assert set(FAMILIES) == set(ModelFamily)


def test_default_sweep_grids():
    assert FAMILIES[ModelFamily.KNN].sweep_values == (1, 3, 5, 7, 9, 11, 15)
    assert FAMILIES[ModelFamily.RANDOM_FOREST].sweep_values == (10, 50, 100, 200)
    assert FAMILIES[ModelFamily.SVM].sweep_values == (1e-4, 1e-3, 1e-2)
    assert FAMILIES[ModelFamily.DECISION_TREE].sweep_values[-1] is None
    # a family sweeps values exactly when it has a sweep parameter
    assert all(bool(f.sweep_values) == (f.sweep_param is not None) for f in FAMILIES.values())


def test_family_from_name_variants():
    assert family_from_name("Most Frequent") is ModelFamily.MOST_FREQUENT
    assert family_from_name("decision-tree") is ModelFamily.DECISION_TREE
    with pytest.raises(ValueError):
        family_from_name("perceptron")


def test_most_frequent_predicts_majority():
    X = np.zeros((100, 3))
    y = np.array([False] * 90 + [True] * 10)
    model = MostFrequentBaseline().fit(X, y)
    assert not model.predict(X).any()


def test_most_frequent_tie_goes_false():
    X = np.zeros((4, 2))
    y = np.array([True, True, False, False])
    assert not MostFrequentBaseline().fit(X, y).predict(X).any()


def test_uniform_fraction():
    model = UniformBaseline(seed=11).fit(np.zeros((2, 1)), np.array([True, False]))
    frac = model.predict(np.zeros((10000, 1))).mean()
    assert 0.49 <= frac <= 0.51


def test_stratified_fraction():
    X = np.zeros((100, 1))
    y = np.array([True] * 10 + [False] * 90)
    model = StratifiedBaseline(seed=5).fit(X, y)
    frac = model.predict(np.zeros((10000, 1))).mean()
    assert 0.08 <= frac <= 0.12


def test_stratified_single_class_degenerate():
    with pytest.raises(DataError, match=r"^stratified baseline needs both classes in training data$"):
        StratifiedBaseline().fit(np.zeros((5, 1)), np.array([True] * 5))


def test_naive_bayes_single_class_degenerate():
    with pytest.raises(DataError, match=r"^gaussian NB needs both classes in training data$"):
        GaussianNaiveBayes().fit(np.zeros((5, 2)), np.array([False] * 5))


def test_uniform_and_most_frequent_train_on_single_class():
    X = np.zeros((5, 1))
    y = np.array([True] * 5)
    assert UniformBaseline().fit(X, y)
    assert MostFrequentBaseline().fit(X, y).predict(X).all()


def test_knn_k1_reproduces_training_labels():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 5))
    y = rng.random(40) < 0.5
    preds = KNearestNeighbors(k=1).fit(X, y).predict(X)
    assert np.array_equal(preds, y)


def test_knn_distance_tie_prefers_lower_index():
    X = np.array([[0.0], [2.0], [2.0]])  # the two far points are equidistant duplicates
    y = np.array([False, True, False])
    model = KNearestNeighbors(k=2).fit(X, y)
    # neighbours of the query at 2.0: indices 1 then 2 (tie on distance 0)
    # votes: True, False -> tie -> FALSE
    assert model.predict(np.array([[2.0]]))[0] == np.False_
    # k=1 picks index 1 only
    assert KNearestNeighbors(k=1).fit(X, y).predict(np.array([[2.0]]))[0] == np.True_


def test_knn_vote_tie_goes_false():
    X = np.array([[0.0], [1.0]])
    y = np.array([True, False])
    assert not KNearestNeighbors(k=2).fit(X, y).predict(np.array([[0.5]]))[0]


def test_knn_k_above_int64_is_capped_at_the_training_size():
    rng = np.random.default_rng(8)
    X, y = rng.normal(size=(15, 3)), rng.random(15) < 0.4
    Xe = rng.normal(size=(10, 3))
    model = KNearestNeighbors(k=10**20).fit(X, y)
    expected = KNearestNeighbors(k=len(X)).fit(X, y).predict(Xe)
    assert model.predict(Xe).tolist() == expected.tolist()
    assert model.predict_grid(Xe, [1, 10**20])[1].tolist() == expected.tolist()


def test_svm_hand_built_decision_rule():
    est = LinearSVM()
    est.weights = np.array([1.0, -1.0])
    est.bias = 0.0
    est.scaler.mean = np.zeros(2)
    est.scaler.scale = np.ones(2)
    model = TrainedModel(family=ModelFamily.SVM, hyperparameters={}, seed=0, n_features=2, estimator=est)
    # the last row scores exactly 0 -> FALSE
    assert model.predict_batch([[2.0, 1.0], [0.0, 1.0], [1.0, 1.0]]).tolist() == [True, False, False]


def test_svm_separable_training_accuracy():
    rng = np.random.default_rng(7)
    n = 100
    X_pos = np.column_stack([rng.uniform(0.5, 2.0, n), rng.normal(0, 1, n)])
    X_neg = np.column_stack([rng.uniform(-2.0, -0.5, n), rng.normal(0, 1, n)])
    X = np.vstack([X_pos, X_neg])
    y = np.array([True] * n + [False] * n)
    model = LinearSVM(lam=1e-3, epochs=50, seed=1).fit(X, y)
    assert (model.predict(X) == y).mean() >= 0.99


def test_svm_deterministic():
    X, y = blobs(seed=3)
    a = LinearSVM(seed=9).fit(X, y)
    b = LinearSVM(seed=9).fit(X, y)
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias


def reference_svm(X, y, lam, epochs, seed, dot=lambda row, w: float(row @ w)):
    """(weights, bias) of the per-step loop that ``LinearSVM.fit`` replaced with per-epoch lists;
    ``dot`` computes the margin's dot product."""
    y_pm = np.where(y, 1.0, -1.0)
    Xs = Standardizer().fit(X).transform(X)
    Xa = np.hstack([Xs, np.ones((len(Xs), 1))])
    w = np.zeros(Xa.shape[1])
    rng = np.random.default_rng(seed)
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(len(Xa)):
            t += 1
            eta = 1.0 / (lam * t)
            violated = y_pm[i] * dot(Xa[i], w) < 1.0
            w *= 1.0 - eta * lam
            if violated:
                w += eta * y_pm[i] * Xa[i]
    return w[:-1], float(w[-1])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_svm_fit_equals_the_per_step_loop(data):
    n = data.draw(st.integers(1, 40), label="n")
    d = data.draw(st.integers(1, 12) | st.integers(13, 120), label="d")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="data seed"))
    # continuous, repeated small integers, or wide-ranged values
    X = data.draw(st.sampled_from([rng.normal(size=(n, d)), rng.integers(0, 3, size=(n, d)).astype(float),
                                   rng.normal(size=(n, d)) * 10.0 ** rng.integers(-8, 9, size=d)]), label="X")
    y = rng.random(n) < data.draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]), label="share TRUE")
    lam = data.draw(st.sampled_from([1e-4, 1e-3, 1e-2, 0.37, 1, 3]), label="lam")  # an int lam, as a model file may hold
    epochs = data.draw(st.integers(1, 20), label="epochs")
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    model = LinearSVM(lam=lam, epochs=epochs, seed=seed).fit(X, y)
    weights, bias = reference_svm(X, y, lam, epochs, seed)
    assert model.weights.tobytes() == weights.tobytes()
    assert float(model.bias).hex() == bias.hex()


def test_svm_margin_is_the_blas_dot_not_a_sum():
    """A margin within an ulp of 1.0 tells ``x @ w`` from ``(x * w).sum()``, whose summation
    order differs: search for a lam that puts the second step's margin there. At step 1 the
    margin is 0, and w becomes y_a x_a / lam; so at lam0 = y_a y_b (x_b . x_a) step 2's margin
    is 1. The search runs here, not once for a pinned constant, as BLAS's ddot may differ by host."""
    data = np.random.default_rng(0)
    a, b = np.random.default_rng(0).permutation(4)[:2]  # the first two rows of epoch 1
    for _ in range(20):
        X, y = data.normal(size=(4, 24)), data.random(4) < 0.5
        Xa = np.hstack([Standardizer().fit(X).transform(X), np.ones((4, 1))])
        y_a, y_b = np.where(y[[a, b]], 1.0, -1.0)
        lam0 = y_a * y_b * float(Xa[b] @ Xa[a])
        for lam in (lam0 + np.spacing(lam0) * np.arange(-64, 65)).tolist() if lam0 > 0 else []:  # a few ulps
            w = Xa[a] * (1.0 / lam * y_a)
            if (y_b * float(Xa[b] @ w) < 1.0) != (y_b * float((Xa[b] * w).sum()) < 1.0):
                model = LinearSVM(lam=lam, epochs=1, seed=0).fit(X, y)
                weights, bias = reference_svm(X, y, lam, 1, 0)
                assert model.weights.tobytes() == weights.tobytes() and float(model.bias).hex() == bias.hex()
                summed, _ = reference_svm(X, y, lam, 1, 0, dot=lambda row, w: float((row * w).sum()))
                assert summed.tobytes() != weights.tobytes()
                return
    pytest.skip("no lam puts the margin between the two dot products on this host")


def test_svm_fit_memory_does_not_grow_with_epochs():
    """The step lists hold one epoch: lists of all 5000 epochs' 200 000 steps would take megabytes."""
    X, y = blobs(n_per_class=20, seed=5)
    LinearSVM(epochs=1).fit(X, y)  # numpy's first-call allocations
    peaks = {}
    for epochs in (50, 5000):
        tracemalloc.start()
        try:
            LinearSVM(epochs=epochs).fit(X, y)
            peaks[epochs] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[5000] <= peaks[50] + 16 * 1024, peaks


def test_cart_training_accuracy_on_distinct_rows():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(60, 4))
    y = rng.random(60) < 0.4
    tree = DecisionTreeCART().fit(X, y)
    assert np.array_equal(tree.predict(X), y)


def test_cart_solves_xor():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([False, True, True, False])
    tree = DecisionTreeCART().fit(X, y)
    assert np.array_equal(tree.predict(X), y)


def test_cart_respects_max_leaf_nodes():
    X, y = blobs(seed=5)
    tree = DecisionTreeCART(max_leaf_nodes=2).fit(X, y)
    assert tree.tree_.n_leaves == 2


def test_cart_conflicting_duplicates_tie_to_false():
    X = np.array([[1.0], [1.0]])
    y = np.array([True, False])
    tree = DecisionTreeCART().fit(X, y)
    assert tree.tree_.n_leaves == 1
    assert not tree.predict(X).any()


def test_cart_tie_breaks_to_lower_feature():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])  # identical columns
    y = np.array([False, False, True, True])
    tree = DecisionTreeCART().fit(X, y)
    assert tree.tree_.feature[0] == 0
    assert tree.tree_.threshold[0] == 1.5


# two rows whose float midpoint is no threshold between them: it rounds up to the upper value or overflows
UNSPLITTABLE_MIDPOINTS = [
    [[1.0 + 2.0**-52], [1.0 + 2.0**-51]],
    [[1e308], [1.7e308]],
    [[-1.7e308], [-1e308]],
]


def check_one_finite_split(tmp_path, params, X):
    y = np.array([False, True])
    model = train(ModelSpec(ModelFamily.DECISION_TREE, params), (X, y))
    tree = model.estimator.tree_
    assert tree.n_leaves == 2
    assert tree.threshold[0] == X[0][0]  # the lower value: left holds it, right the upper one
    assert np.array_equal(model.predict_batch(X), y)
    save_model(model, tmp_path / "model.json")
    assert np.array_equal(load_model(tmp_path / "model.json").predict_batch(X), y)


@pytest.mark.parametrize("X", UNSPLITTABLE_MIDPOINTS)
def test_cart_splits_once_where_the_midpoint_rounds_or_overflows(tmp_path, X):
    check_one_finite_split(tmp_path, {"max_leaf_nodes": 6}, X)


# without a leaf cap these fits never returned while the threshold was the raw midpoint
@pytest.mark.parametrize("X", UNSPLITTABLE_MIDPOINTS)
def test_uncapped_cart_returns_where_the_midpoint_rounds_or_overflows(tmp_path, X):
    check_one_finite_split(tmp_path, {}, X)


@pytest.mark.parametrize("X", UNSPLITTABLE_MIDPOINTS)
def test_forest_returns_where_the_midpoint_rounds_or_overflows(tmp_path, X):
    y = np.array([False, True])
    model = train(ModelSpec(ModelFamily.RANDOM_FOREST, {"n_estimators": 5}, seed=3), (X, y))
    trees = [est.tree_ for est in model.estimator.trees_]
    assert sorted(tree.n_leaves for tree in trees) == [1, 1, 2, 2, 2]  # three bootstraps hold both rows
    assert all(math.isfinite(t) for tree in trees for t in tree.threshold)
    save_model(model, tmp_path / "model.json")
    assert np.array_equal(load_model(tmp_path / "model.json").predict_batch(X), model.predict_batch(X))


def test_forest_single_tree_matches_bootstrapped_cart():
    X, y = blobs(n_per_class=30, seed=6)
    forest = RandomForest(n_estimators=1, max_features=X.shape[1], seed=13).fit(X, y)
    # the bootstrap sample the forest's only tree drew: first draw of its SeedSequence child
    (child,) = np.random.SeedSequence(13).spawn(1)
    boot = np.random.default_rng(child).integers(0, len(y), size=len(y))
    plain = DecisionTreeCART().fit(X[boot], y[boot])
    # the split thresholds pin the sample: blobs this far apart predict alike from other draws too
    assert list(forest.trees_[0].tree_.threshold) == list(plain.tree_.threshold)
    assert np.array_equal(forest.predict(X), plain.predict(X))
    forest_acc = (forest.predict(X) == y).mean()
    plain_acc = (plain.predict(X) == y).mean()
    assert forest_acc >= plain_acc


def test_forest_deterministic():
    X, y = blobs(n_per_class=25, seed=8)
    a = RandomForest(n_estimators=12, seed=21).fit(X, y)
    b = RandomForest(n_estimators=12, seed=21).fit(X, y)
    assert a.get_state() == b.get_state()
    assert np.array_equal(a.predict(X), b.predict(X))


def test_naive_bayes_approaches_bayes_rate():
    # two gaussian classes, shared unit variance, equal priors
    rng = np.random.default_rng(12)
    mu = np.array([1.5, 1.0])
    n = 5000
    X_train = np.vstack([rng.normal(0, 1, (n // 2, 2)), mu + rng.normal(0, 1, (n // 2, 2))])
    y_train = np.array([False] * (n // 2) + [True] * (n // 2))
    X_test = np.vstack([rng.normal(0, 1, (n // 2, 2)), mu + rng.normal(0, 1, (n // 2, 2))])
    y_test = y_train.copy()
    model = GaussianNaiveBayes().fit(X_train, y_train)
    accuracy = (model.predict(X_test) == y_test).mean()
    delta = math.sqrt(float(mu @ mu))
    bayes_accuracy = 0.5 * (1.0 + math.erf((delta / 2.0) / math.sqrt(2.0)))
    assert abs(accuracy - bayes_accuracy) <= 0.03


@pytest.mark.parametrize("family", [ModelFamily.KNN, ModelFamily.SVM])
def test_standardized_families_scale_invariant(family):
    X, y = blobs(seed=14)
    X_test, _ = blobs(seed=15)
    spec = ModelSpec(family=family, seed=3)
    base = train(spec, (X, y)).predict_batch(X_test)
    X10, X10_test = X.copy(), X_test.copy()
    X10[:, 0] *= 10.0
    X10_test[:, 0] *= 10.0
    scaled = train(spec, (X10, y)).predict_batch(X10_test)
    assert np.array_equal(base, scaled)


@pytest.mark.parametrize("family", [ModelFamily.DECISION_TREE, ModelFamily.RANDOM_FOREST])
def test_tree_families_scale_invariant(family):
    X, y = blobs(seed=16)
    X_test, _ = blobs(seed=17)
    spec = ModelSpec(family=family, hyperparameters={"n_estimators": 10} if family is ModelFamily.RANDOM_FOREST else {}, seed=3)
    base = train(spec, (X, y)).predict_batch(X_test)
    X10, X10_test = X.copy(), X_test.copy()
    X10[:, 1] *= 10.0
    X10_test[:, 1] *= 10.0
    scaled = train(spec, (X10, y)).predict_batch(X10_test)
    assert np.array_equal(base, scaled)


def test_train_takes_arrays():
    X, y = blobs(n_per_class=10, seed=18)
    model = train(ModelSpec(ModelFamily.MOST_FREQUENT), (X, y))
    assert model.n_features == 2
    assert model.predict_batch(X[:1]).tolist() in ([True], [False])


def test_train_on_no_rows_is_a_data_error():
    with pytest.raises(DataError, match=r"^no training instances$"):
        train(ModelSpec(ModelFamily.KNN), (np.zeros((0, 2)), np.zeros(0, dtype=bool)))


# kNN and the baselines trained on rows without labels, or labels without rows; SVM, CART,
# the forest and Naive Bayes failed with an IndexError
@pytest.mark.parametrize("family", list(ModelFamily), ids=lambda f: f.value)
@pytest.mark.parametrize("n_labels", [19, 21])
def test_train_on_labels_not_one_per_row_is_a_data_error(family, n_labels):
    X, y = blobs(n_per_class=10, seed=20)
    y = np.resize(y, n_labels)
    shapes = rf"\(20, 2\) and \({n_labels},\)"
    with pytest.raises(DataError, match=rf"^expected a matrix and one label per row, got shapes {shapes}$"):
        train(ModelSpec(family), (X, y))


@pytest.mark.parametrize("family", list(ModelFamily), ids=lambda f: f.value)
def test_train_on_a_1d_matrix_is_a_data_error(family):
    X, y = blobs(n_per_class=10, seed=20)
    with pytest.raises(DataError, match=r"^expected a matrix and one label per row, got shapes \(20,\) and"):
        train(ModelSpec(family), (X[:, 0], y))


def test_predict_length_mismatch():
    X, y = blobs(n_per_class=10, seed=19)
    model = train(ModelSpec(ModelFamily.KNN, {"k": 1}), (X, y))
    with pytest.raises(DataError, match=r"^expected rows of 2 features, got an array of shape \(4, 5\)$"):
        model.predict_batch(np.zeros((4, 5)))
    with pytest.raises(DataError, match=r"^expected rows of 2 features, got an array of shape \(2,\)$"):
        model.predict_batch(np.zeros(2))


def test_sweep_returns_grid_point():
    X, y = blobs(n_per_class=20, seed=21)
    Xe, ye = blobs(n_per_class=10, seed=22)
    values = FAMILIES[ModelFamily.KNN].sweep_values
    g, preds = sweep_full(ModelFamily.KNN, values, (X, y), (Xe, ye), seed=0)
    assert 0 <= g < len(values)
    assert preds.tolist() == train(ModelSpec(ModelFamily.KNN, {"k": values[g]}), (X, y)).predict_batch(Xe).tolist()


def test_sweep_single_point():
    X, y = blobs(n_per_class=10, seed=23)
    assert sweep_full(ModelFamily.SVM, (0.5,), (X, y), (X, y), seed=0)[0] == 0


def test_sweep_perfect_separator_wins():
    # clustered training data; k=1 nails the eval points, k too large drowns
    # the minority class and misses its eval points
    X = np.array([[0.0], [0.1], [0.2], [5.0]])
    y = np.array([False, False, False, True])
    Xe = np.array([[0.05], [5.1]])
    ye = np.array([False, True])
    assert sweep_full(ModelFamily.KNN, (4, 1), (X, y), (Xe, ye), seed=0)[0] == 1


def test_sweep_tie_takes_first_grid_point():
    X, y = blobs(n_per_class=20, seed=24)
    assert sweep_full(ModelFamily.KNN, (3, 5), (X, y), (X, y), seed=0)[0] == 0


@given(st.data())
def test_best_point_is_the_first_best_micro_f1(data):
    # few short prediction vectors, so grid points often tie
    n = data.draw(st.integers(1, 12))
    vectors = st.lists(st.booleans(), min_size=n, max_size=n)
    predictions, gold = data.draw(st.lists(vectors, min_size=1, max_size=6)), data.draw(vectors)
    scores = [class_summed_micro(p, gold)[2] for p in predictions]  # the paper's Mic-F1
    assert best_point(predictions, gold) == scores.index(max(scores))


@pytest.mark.parametrize("family,params", [
    (ModelFamily.UNIFORM, {}),
    (ModelFamily.STRATIFIED, {}),
    (ModelFamily.MOST_FREQUENT, {}),
    (ModelFamily.SVM, {"lam": 1e-3}),
    (ModelFamily.KNN, {"k": 3}),
    (ModelFamily.DECISION_TREE, {"max_leaf_nodes": 8}),
    (ModelFamily.RANDOM_FOREST, {"n_estimators": 5}),
    (ModelFamily.NAIVE_BAYES, {}),
])
def test_save_load_round_trip(tmp_path, family, params):
    X, y = blobs(n_per_class=20, seed=25)
    model = train(ModelSpec(family=family, hyperparameters=params, seed=31), (X, y))
    path = tmp_path / "model.json"
    save_model(model, path)
    reloaded = load_model(path)
    assert reloaded.family is family
    assert reloaded.n_features == model.n_features
    assert np.array_equal(model.predict_batch(X), reloaded.predict_batch(X))


@pytest.mark.parametrize("family,numpy_params,numpy_seed,params,seed", [
    (ModelFamily.KNN, {"k": np.int64(3)}, np.int64(2), {"k": 3}, 2),
    (ModelFamily.RANDOM_FOREST, {"n_estimators": np.int32(5)}, np.uint8(7), {"n_estimators": 5}, 7),
])
def test_numpy_scalars_train_the_model_of_their_python_values(tmp_path, family, numpy_params, numpy_seed, params,
                                                              seed):
    X, y = blobs(n_per_class=20, seed=25)
    save_model(train(ModelSpec(family, numpy_params, numpy_seed), (X, y)), tmp_path / "numpy.json")
    save_model(train(ModelSpec(family, params, seed), (X, y)), tmp_path / "python.json")
    assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "python.json").read_bytes()


def test_a_float32_lam_saves_and_loads(tmp_path):
    X, y = blobs(n_per_class=20, seed=25)
    model = train(ModelSpec(ModelFamily.SVM, {"lam": np.float32(1e-3)}), (X, y))
    save_model(model, tmp_path / "model.json")
    reloaded = load_model(tmp_path / "model.json")
    assert reloaded.hyperparameters == {"lam": float(np.float32(1e-3))}
    assert np.array_equal(reloaded.predict_batch(X), model.predict_batch(X))


@pytest.mark.parametrize("family", [ModelFamily.SVM, ModelFamily.KNN, ModelFamily.NAIVE_BAYES])
def test_a_model_holding_nan_is_not_saved(tmp_path, family):
    # the dataset loader rejects a NaN cell, but the Python API trains on one, and these three
    # families keep a NaN in their state (a standardization mean, training rows, a class mean)
    X, y = blobs(n_per_class=10, seed=27)
    X[3, 1] = np.nan
    path = tmp_path / "model.json"
    with pytest.raises(DataError, match=r"^model\.json: a value is not finite, and JSON holds no NaN or infinity$"):
        save_model(train(ModelSpec(family), (X, y)), path)
    assert list(tmp_path.iterdir()) == []
    tree = train(ModelSpec(ModelFamily.DECISION_TREE), (X, y))
    save_model(tree, path)
    assert np.array_equal(load_model(path).predict_batch(X), tree.predict_batch(X))


def test_baseline_predictions_reproducible():
    X, y = blobs(n_per_class=10, seed=26)
    model = train(ModelSpec(ModelFamily.UNIFORM, seed=77), (X, y))
    assert np.array_equal(model.predict_batch(X), model.predict_batch(X))


def reference_knn(X, y, Xe, k):
    """kNN as a loop over queries that keeps the first k of each stable sort."""
    mean, std = X.mean(axis=0), X.std(axis=0)
    scale = np.where(std > 0, std, 1.0)
    Xs, Qs = (X - mean) / scale, (Xe - mean) / scale
    k = min(k, len(X))
    out = []
    for q in Qs:
        diff = Xs - q
        neighbours = np.argsort(np.einsum("ij,ij->i", diff, diff), kind="stable")[:k]
        n_true = int(y[neighbours].sum())
        out.append(n_true > k - n_true)
    return np.array(out, dtype=bool)


@st.composite
def sweep_cases(draw):
    """Tie-heavy small-integer data with duplicate rows, and a tuple of unsorted,
    possibly repeated sweep values, with or without ``None``."""
    n, d = draw(st.integers(2, 24)), draw(st.integers(1, 4))
    cells = st.lists(st.integers(0, 2), min_size=d, max_size=d)
    rows = draw(st.lists(cells, min_size=n, max_size=n))
    X = np.array(rows + rows[: draw(st.integers(0, n))], dtype=float)
    y = np.array(draw(st.lists(st.booleans(), min_size=len(X), max_size=len(X))))
    Xe = np.array(draw(st.lists(cells, min_size=1, max_size=8)), dtype=float)
    family = draw(st.sampled_from([ModelFamily.KNN, ModelFamily.DECISION_TREE, ModelFamily.RANDOM_FOREST]))
    values = {
        ModelFamily.KNN: st.integers(1, len(X) + 3),
        ModelFamily.DECISION_TREE: st.one_of(st.none(), st.integers(2, 12)),
        ModelFamily.RANDOM_FOREST: st.integers(1, 9),
    }[family]
    return family, tuple(draw(st.lists(values, min_size=1, max_size=5))), X, y, Xe, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(sweep_cases())
def test_grid_predictions_equal_a_refit_per_point(case):
    family, values, X, y, Xe, seed = case
    predictions = grid_predictions(family, values, (X, y), Xe, seed)
    assert len(predictions) == len(values)
    for value, preds in zip(values, predictions):
        model = train(ModelSpec(family, {FAMILIES[family].sweep_param: value}, seed), (X, y))
        expected = model.predict_batch(Xe)
        assert preds.tolist() == expected.tolist(), value
        if family is ModelFamily.KNN:
            assert expected.tolist() == reference_knn(X, y, Xe, value).tolist()
        if family is ModelFamily.RANDOM_FOREST:
            votes = sum(tree.predict(Xe).astype(int) for tree in model.estimator.trees_)
            assert expected.tolist() == (votes * 2 > len(model.estimator.trees_)).tolist()


@pytest.mark.parametrize("family,fits", [
    (ModelFamily.KNN, 1),
    (ModelFamily.DECISION_TREE, 1),
    (ModelFamily.RANDOM_FOREST, 1),
    (ModelFamily.SVM, 3),
    (ModelFamily.NAIVE_BAYES, 1),
], ids=["knn", "decision_tree", "random_forest", "svm", "naive_bayes"])
def test_grid_predictions_fit_count(monkeypatch, family, fits):
    calls = []
    monkeypatch.setattr(classifiers, "train", lambda spec, data: calls.append(spec) or train(spec, data))
    X, y = blobs(n_per_class=8, seed=27)
    predictions = grid_predictions(family, FAMILIES[family].sweep_values, (X, y), X, seed=5)
    assert len(calls) == fits
    assert len(predictions) == max(1, len(FAMILIES[family].sweep_values))


def test_grid_predictions_reject_values_that_do_not_fit_the_family():
    X, y = blobs(n_per_class=5, seed=29)
    with pytest.raises(ValueError, match="^kNN: got 0 values for sweep parameter 'k'"):
        grid_predictions(ModelFamily.KNN, (), (X, y), X)
    with pytest.raises(ValueError, match="^Naive Bayes: got 1 values for sweep parameter None"):
        grid_predictions(ModelFamily.NAIVE_BAYES, (3,), (X, y), X)


@pytest.mark.parametrize("family,params", [
    (ModelFamily.KNN, {"k": 0}),
    (ModelFamily.KNN, {"k": -1}),
    (ModelFamily.KNN, {"k": 1.5}),
    (ModelFamily.KNN, {"k": True}),
    (ModelFamily.KNN, {"k": None}),
    (ModelFamily.RANDOM_FOREST, {"n_estimators": 0}),
    (ModelFamily.DECISION_TREE, {"max_leaf_nodes": 1}),
    (ModelFamily.DECISION_TREE, {"max_leaf_nodes": 1.5}),
    (ModelFamily.SVM, {"lam": 0}),
    (ModelFamily.SVM, {"lam": float("inf")}),
    (ModelFamily.SVM, {"lam": "abc"}),
    (ModelFamily.SVM, {"epochs": 0}),
    (ModelFamily.RANDOM_FOREST, {"n_estimators": 2**32}),  # each tree's seed is one 32-bit spawn word
])
def test_hyperparameter_out_of_range(family, params):
    X, y = blobs(n_per_class=5, seed=28)
    (name,) = params
    with pytest.raises(ConfigError, match=f"^{FAMILIES[family].display_name}: {name} must be .*, got "):
        train(ModelSpec(family, params), (X, y))
    f = FAMILIES[family]
    if name == f.sweep_param:  # an out-of-range value fails even where a covering one would fit
        with pytest.raises(ConfigError, match=f"{name} must be "):
            grid_predictions(family, (params[name], f.sweep_values[0]), (X, y), X)


def reference_best_split(X, y, idx, features):
    """The per-feature loop that the column-block split search replaced."""
    y_node = y[idx]
    n = len(idx)
    n_true = int(y_node.sum())
    pt, pf = n_true / n, (n - n_true) / n
    parent = n * (1.0 - pt * pt - pf * pf)
    best = None
    for f in features:
        values = X[idx, f]
        order = np.argsort(values, kind="stable")
        sv = values[order]
        cut = np.nonzero(sv[:-1] < sv[1:])[0]
        if len(cut) == 0:
            continue
        cum_true = np.cumsum(y_node[order])
        n_left = cut + 1
        t_left = cum_true[cut]
        f_left = n_left - t_left
        n_right = n - n_left
        t_right = n_true - t_left
        f_right = n_right - t_right
        child = n_left * (1.0 - (t_left / n_left) ** 2 - (f_left / n_left) ** 2) + n_right * (
            1.0 - (t_right / n_right) ** 2 - (f_right / n_right) ** 2
        )
        j = int(np.argmin(child))
        decrease = parent - float(child[j])
        if best is None or decrease > best[0]:
            lo, hi = float(sv[cut[j]]), float(sv[cut[j] + 1])
            threshold = (lo + hi) / 2.0
            best = (decrease, f, threshold if lo <= threshold < hi else lo)
    return best


@st.composite
def split_batches(draw):
    """A batch of nodes over 0-3 integer data: duplicate rows, some 0/1 columns (whose
    cells are counted, not sorted), some constant columns, some columns with NaN for 3,
    rows drawn with repeats (as in a bootstrap), a sorted random feature subset per
    node, mixing 0/1 and other columns, and a block cell limit that puts a few nodes or
    cells, or one, in a chunk. The first node has 2 rows; the others have 2-40; now and
    then every candidate column of one node is constant on its rows."""
    n_rows, d = draw(st.integers(1, 12)), draw(st.integers(1, 8))
    cells = st.lists(st.integers(0, 3), min_size=d, max_size=d)
    rows = draw(st.lists(cells, min_size=n_rows, max_size=n_rows))
    X = np.array(rows + rows[: draw(st.integers(0, n_rows))], dtype=float)
    for column in draw(st.sets(st.integers(0, d - 1))):
        X[:, column] %= 2
    for column in draw(st.sets(st.integers(0, d - 1))):
        X[:, column] = draw(st.integers(0, 3))
    for column in draw(st.sets(st.integers(0, d - 1))):
        X[X[:, column] == 3, column] = np.nan
    y = np.array(draw(st.lists(st.booleans(), min_size=len(X), max_size=len(X))))
    sizes = [2] + draw(st.lists(st.integers(2, 40), min_size=1, max_size=6))
    nodes = []
    for size in sizes:
        idx = np.array(draw(st.lists(st.integers(0, len(X) - 1), min_size=size, max_size=size)))
        nodes.append((idx, sorted(draw(st.sets(st.integers(0, d - 1), min_size=1)))))
    if draw(st.integers(0, 3)) == 0:
        idx, features = nodes[draw(st.integers(0, len(nodes) - 1))]
        X[np.ix_(idx, features)] = X[idx[0], features]
    return X, y, nodes, draw(st.sampled_from([1, 64, classifiers.SPLIT_BLOCK_CELLS]))


def exact(split):
    return None if split is None else (split[0].hex(), split[1], split[2].hex())


NO_CUT_X = np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 3.0], [1.0, 2.0, 0.0]])
NO_CUT_Y = np.array([True, False, True])
# columns 0, 1 and 3 hold only 0 and 1, column 2 does not; on rows 0-2, column 0 is all 0,
# column 1 all 1 and column 2 all 2, so a node of those rows has its one cut in column 3
ONE_CUT_X = np.array([[0.0, 1.0, 2.0, 0.0], [0.0, 1.0, 2.0, 1.0], [0.0, 1.0, 2.0, 1.0], [1.0, 0.0, 3.0, 0.0]])
ONE_CUT_Y = np.array([True, False, False, True])
# columns 0 and 2 take the values 0, 2 and 3, column 1 only 0 and 1: the cut of column 1 and
# the lower cut of column 0 and of column 2 split rows 0-2 alike, so they tie exactly
TIED_X = np.array([[0.0, 0.0, 0.0], [2.0, 1.0, 2.0], [3.0, 1.0, 3.0], [3.0, 1.0, 0.0]])
TIED_Y = np.array([True, False, False, False])
# column 0 holds NaN, so it is sorted, not counted; its one cut between numbers is 0 | 1, and no
# cut next to a NaN counts, so on rows 1-3 (NaN, 0, NaN) it has none
NAN_X = np.array([[0.0, 1.0], [np.nan, 0.0], [0.0, 1.0], [np.nan, 1.0], [1.0, 0.0]])
NAN_Y = np.array([True, False, True, False, False])


@settings(max_examples=400, deadline=None)
@given(split_batches())
# no column has a cut, beside a node of 2 rows that has one
@example((NO_CUT_X, NO_CUT_Y, [(np.array([0, 2, 1, 1]), [0, 1]), (np.array([1, 0]), [2])], 1 << 14))
# only the last column has a cut
@example((NO_CUT_X, NO_CUT_Y, [(np.array([0, 2, 1, 1]), [0, 1, 2]), (np.array([1, 0]), [0, 2])], 1 << 14))
# a 0/1 column all 0 on the node, one all 1, then a constant other column: the only cut is last
@example((ONE_CUT_X, ONE_CUT_Y, [(np.array([0, 1, 2]), [0, 1, 2, 3]), (np.array([2, 0, 1, 0]), [0, 1, 2, 3])], 1))
# a 0/1 column all 0 or all 1 beside a column with a cut, in a node of 2 rows and one of 4
@example((ONE_CUT_X, ONE_CUT_Y, [(np.array([0, 1]), [0, 3]), (np.array([1, 2, 0, 2]), [1, 3])], 1 << 14))
# a tie between another column and a 0/1 column goes to the earlier one, either way round
@example((TIED_X, TIED_Y, [(np.array([0, 1, 2]), [0, 1]), (np.array([2, 1, 0]), [1, 2])], 1 << 14))
# NaN in a column that is not 0/1: a node with a cut in it, and one whose only number sits among NaNs
@example((NAN_X, NAN_Y, [(np.array([0, 1, 2, 3, 4]), [0, 1]), (np.array([1, 2, 3]), [0])], 1))
def test_block_split_search_equals_the_per_feature_loop(batch):
    X, y, nodes, cells = batch
    binary = ((X == 0) | (X == 1)).all(axis=0)
    got = [None] * len(nodes)
    # one search per number of candidate features; each node's rows are a segment of one
    # array, laid out in reverse node order, so the last segment is the first node's
    for m in {len(f) for _, f in nodes}:
        ks = [k for k, (_, f) in enumerate(nodes) if len(f) == m]
        size = np.array([len(nodes[k][0]) for k in ks])
        start = size[::-1].cumsum()[::-1] - size
        rows = np.concatenate([nodes[k][0] for k in reversed(ks)])
        n_true = np.array([int(y[nodes[k][0]].sum()) for k in ks])
        with mock.patch.object(classifiers, "SPLIT_BLOCK_CELLS", cells):
            decrease, feature, threshold = classifiers._best_splits(
                X, y, rows, start, size, n_true, np.array([nodes[k][1] for k in ks]), binary)
        assert len(decrease) == len(feature) == len(threshold) == len(ks)
        assert np.issubdtype(feature.dtype, np.integer)
        for k, dec, f, t in zip(ks, decrease.tolist(), feature.tolist(), threshold.tolist()):
            got[k] = None if dec == -math.inf else (dec, f, t)
    for (idx, features), split in zip(nodes, got):
        assert exact(split) == exact(reference_best_split(X, y, idx, features))


def reference_tree(X, y, max_leaf_nodes=None, max_features=None, rng=None):
    """The per-tree growth loop that the lockstep grower replaced, returning the
    grown tree's state: one heap, each node's split searched as soon as it is
    opened, and the node table kept as plain lists, appended to in open order."""
    tree: dict = {"feature": [], "threshold": [], "left": [], "right": [], "prediction": []}
    heap: list = []
    counter = 0

    def open_node(idx):
        nonlocal counter
        n_true = int(y[idx].sum())
        for column, value in zip(tree.values(), (-1, 0.0, -1, -1, n_true > len(idx) - n_true)):
            column.append(value)
        node = len(tree["feature"]) - 1
        if 0 < n_true < len(idx):
            d = X.shape[1]
            features = np.arange(d) if max_features is None or max_features >= d else np.sort(
                rng.choice(d, size=max_features, replace=False))
            split = reference_best_split(X, y, idx, features)
            if split is not None:
                heappush(heap, (-split[0], counter, node, idx, split[1], split[2]))
                counter += 1
        return node

    open_node(np.arange(len(X)))
    leaves = 1
    while heap and (max_leaf_nodes is None or leaves < max_leaf_nodes):
        _, _, node, idx, feature, threshold = heappop(heap)
        mask = X[idx, feature] <= threshold
        left = open_node(idx[mask])
        right = open_node(idx[~mask])
        for column, value in zip(tree.values(), (int(feature), threshold, left, right)):
            column[node] = value
        leaves += 1
    return tree


@st.composite
def growth_cases(draw):
    """Tie-heavy 0-3 data, some of its columns 0/1, now and then with a NaN column, and a
    forest (1-30 trees, max_features 1, below d or at least d) or a CART (max_leaf_nodes
    2, 4 or None). Small shapes are drawn often: siblings of equal decrease, whose pop
    order is their push order, are common there."""
    n = draw(st.one_of(st.integers(2, 12), st.integers(2, 60)))
    d = draw(st.one_of(st.integers(1, 3), st.integers(1, 30)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, 4, size=(n, d)).astype(float)
    X[:, rng.random(d) < draw(st.sampled_from([0.0, 0.5, 1.0]))] %= 2
    if draw(st.booleans()):
        X[rng.random(n) < 0.5, draw(st.integers(0, d - 1))] = np.nan
    y = rng.random(n) < draw(st.sampled_from([0.1, 0.5, 0.9]))
    if draw(st.booleans()):
        max_features = draw(st.sampled_from([1, max(1, d - 1), d, d + 2, draw(st.integers(1, d))]))
        return RandomForest(draw(st.integers(1, 30)), max_features, draw(st.integers(0, 2**32 - 1))), X, y
    return DecisionTreeCART(max_leaf_nodes=draw(st.sampled_from([2, 4, None]))), X, y


XOR_X = np.array([[0.0, 0.0], [2.0, 2.0], [0.0, 2.0], [2.0, 0.0]])
XOR_Y = np.array([True, True, False, False])
# 1000 distinct rows of random labels: a tree opens hundreds of impure nodes, each with its own draw
WIDE_X = np.random.default_rng(3).normal(size=(1000, 6))
WIDE_Y = np.random.default_rng(4).random(1000) < 0.5
# all 0/1, as a political barrier dataset is: sparse concept columns, a constant column, duplicate rows
ALL01_X = (np.random.default_rng(5).random((24, 16)) < 0.2).astype(float)
ALL01_X[:, 7] = 0.0
ALL01_X[16:] = ALL01_X[:8]
ALL01_Y = np.random.default_rng(6).random(24) < 0.5
CONCEPT_PROFILE_X, CONCEPT_PROFILE_Y = concept_profile_matrix()


@settings(max_examples=150, deadline=None)
@given(growth_cases())
@example((DecisionTreeCART(), XOR_X, XOR_Y))  # both children of the root have decrease 1: left pops first
@example((RandomForest(3, 2, seed=5), WIDE_X, WIDE_Y))  # deep trees read far into the draw table
@example((DecisionTreeCART(), ALL01_X, ALL01_Y))
@example((DecisionTreeCART(max_leaf_nodes=4), ALL01_X, ALL01_Y))
@example((RandomForest(30, 4, seed=7), ALL01_X, ALL01_Y))
@example((DecisionTreeCART(), CONCEPT_PROFILE_X, CONCEPT_PROFILE_Y))  # 0/1 columns, then other ones
@example((RandomForest(10, 10, seed=0), CONCEPT_PROFILE_X, CONCEPT_PROFILE_Y))
def test_lockstep_growth_equals_growing_each_tree_alone(case):
    estimator, X, y = case
    state = estimator.fit(X, y).get_state()
    if isinstance(estimator, DecisionTreeCART):
        assert state == {"tree": reference_tree(X, y, estimator.max_leaf_nodes)}
        return
    expected = []
    for child in np.random.SeedSequence(estimator.seed).spawn(estimator.n_estimators):
        rng = np.random.default_rng(child)
        boot = rng.integers(0, len(X), size=len(X))
        expected.append(reference_tree(X[boot], y[boot], max_features=estimator.max_features, rng=rng))
    assert state == {"trees": expected}


def test_a_fit_draws_its_feature_table_in_one_call():
    with mock.patch.object(classifiers, "_tree_draws", wraps=classifiers._tree_draws) as draws, \
            mock.patch.object(classifiers, "_grow", wraps=classifiers._grow) as grow:
        RandomForest(3, 2, seed=5).fit(WIDE_X, WIDE_Y)
        (call,) = draws.call_args_list
        states, n, d, m = call.args
        assert (n, d, m) == (len(WIDE_X), 6, 2)
        children = np.random.SeedSequence(5).spawn(3)
        assert states == [(s["state"]["state"], s["state"]["inc"]) for s in (np.random.PCG64(c).state for c in children)]
        # one draw per impure node, and a tree of r distinct rows has at most r - 1 of them
        boots = [np.random.default_rng(child).integers(0, len(WIDE_X), size=len(WIDE_X)) for child in children]
        _, _, samples, table, _ = grow.call_args.args
        assert samples.tolist() == [b.tolist() for b in boots]
        assert table.shape == (3, max(len(np.unique(b)) for b in boots) - 1, 2)
        DecisionTreeCART().fit(WIDE_X, WIDE_Y)  # every node's candidates are every feature
        assert draws.call_count == 1


def reference_walk(tree, X, splits=None):
    """The per-row walk that the level-by-level ``_Tree.predict`` replaced."""
    limit = len(tree.feature) if splits is None else 2 * splits + 1
    out = []
    for x in X:
        node = 0
        while tree.feature[node] >= 0 and tree.left[node] < limit:
            node = tree.left[node] if x[tree.feature[node]] <= tree.threshold[node] else tree.right[node]
        out.append(bool(tree.prediction[node]))
    return out


@settings(max_examples=100, deadline=None)
@given(growth_cases(), st.data())
def test_tree_predict_equals_a_per_row_walk(case, data):
    estimator, X, y = case
    estimator.fit(X, y)
    # the training rows, and rows of values between, beyond and equal to theirs, or NaN
    cells = st.one_of(st.sampled_from([-1.0, 0.5, 1.5, 3.0, 4.0, np.nan]), st.integers(0, 3).map(float))
    extra = data.draw(st.lists(st.lists(cells, min_size=X.shape[1], max_size=X.shape[1]), max_size=6))
    Xe = np.vstack([X, np.array(extra, dtype=float).reshape(len(extra), X.shape[1])])
    forest = isinstance(estimator, RandomForest)
    family = ModelFamily.RANDOM_FOREST if forest else ModelFamily.DECISION_TREE
    params = {"n_estimators": estimator.n_estimators} if forest else {"max_leaf_nodes": estimator.max_leaf_nodes}
    with tempfile.TemporaryDirectory() as tmp:
        save_model(TrainedModel(family, params, 0, X.shape[1], estimator), Path(tmp) / "model.json")
        loaded = load_model(Path(tmp) / "model.json").estimator
    for est in (estimator, loaded):
        trees = [t.tree_ for t in est.trees_] if forest else [est.tree_]
        for tree in trees:
            internal = int(np.count_nonzero(tree.feature >= 0))
            assert len(tree.feature) == 2 * internal + 1  # no spare capacity
            assert tree.n_leaves == internal + 1
            for splits in (None, *range(internal + 2)):
                assert tree.predict(Xe, splits).tolist() == reference_walk(tree, Xe, splits)
        if forest:
            votes = np.cumsum([reference_walk(tree, Xe) for tree in trees], axis=0)
            values = list(range(1, len(trees) + 1))
            expected = [(votes[v - 1] * 2 > v).tolist() for v in values]
            assert [p.tolist() for p in est.predict_grid(Xe, values)] == expected


def test_forest_fit_memory_stays_flat():
    """The grower gathers each chunk from X by row index: per-tree copies of the
    bootstrap rows (100 x 900 x 313 floats, 225 MB) would show up here. The grower
    sizes its state once per fit, for the largest tree the bootstraps allow (591
    distinct rows), whatever the labels, so the 5 % TRUE label's small trees
    leave most of it unused. On the 0/1 matrix the peak is the draw words,
    read for the 899 draws a tree of 900 rows could make, 35 words each
    (12.6 MB), and the table of the 590 it can make (2 MB). On
    continuous data it is the node arrays (6.3 MB) and the root chunks: every cell
    is sorted, and the root cells of all 100 trees (100 x 7 x 900 rows) in one
    chunk would take about 70 MB."""
    rng = np.random.default_rng(0)
    for X in ((rng.random((900, 313)) < 0.05).astype(float), rng.normal(size=(900, 40))):
        y = rng.random(900) < 0.05
        tracemalloc.start()
        try:
            RandomForest(100, seed=0).fit(X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, (X.shape, peak)
