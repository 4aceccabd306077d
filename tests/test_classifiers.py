import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from newsbarriers import classifiers
from newsbarriers.classifiers import (
    DEFAULT_GRIDS,
    FAMILIES,
    DecisionTreeCART,
    GaussianNaiveBayes,
    KNearestNeighbors,
    LinearSVM,
    ModelFamily,
    ModelSpec,
    MostFrequentBaseline,
    RandomForest,
    StratifiedBaseline,
    TrainedModel,
    UniformBaseline,
    family_from_name,
    grid_predictions,
    load_model,
    save_model,
    sweep_full,
    train,
)
from newsbarriers.errors import ConfigError, DegenerateTrainingSet, LengthMismatch


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
    assert DEFAULT_GRIDS[ModelFamily.KNN] == [{"k": k} for k in (1, 3, 5, 7, 9, 11, 15)]
    assert DEFAULT_GRIDS[ModelFamily.RANDOM_FOREST] == [{"n_estimators": n} for n in (10, 50, 100, 200)]
    assert DEFAULT_GRIDS[ModelFamily.SVM] == [{"lam": lam} for lam in (1e-4, 1e-3, 1e-2)]
    assert DEFAULT_GRIDS[ModelFamily.DECISION_TREE][-1] == {"max_leaf_nodes": None}


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
    with pytest.raises(DegenerateTrainingSet):
        StratifiedBaseline().fit(np.zeros((5, 1)), np.array([True] * 5))


def test_naive_bayes_single_class_degenerate():
    with pytest.raises(DegenerateTrainingSet):
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


def test_forest_single_tree_matches_bootstrapped_cart():
    X, y = blobs(n_per_class=30, seed=6)
    forest = RandomForest(n_estimators=1, max_features=X.shape[1], seed=13).fit(X, y)
    boot = forest.bootstrap_indices_[0]
    plain = DecisionTreeCART().fit(X[boot], y[boot])
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


def test_predict_length_mismatch():
    X, y = blobs(n_per_class=10, seed=19)
    model = train(ModelSpec(ModelFamily.KNN, {"k": 1}), (X, y))
    with pytest.raises(LengthMismatch):
        model.predict_batch(np.zeros((4, 5)))
    with pytest.raises(LengthMismatch):
        model.predict_batch(np.zeros(2))


def test_sweep_returns_grid_point():
    X, y = blobs(n_per_class=20, seed=21)
    Xe, ye = blobs(n_per_class=10, seed=22)
    best = sweep_full(ModelFamily.KNN, DEFAULT_GRIDS[ModelFamily.KNN], (X, y), (Xe, ye), seed=0)[0]
    assert best.hyperparameters in DEFAULT_GRIDS[ModelFamily.KNN]


def test_sweep_single_point():
    X, y = blobs(n_per_class=10, seed=23)
    best = sweep_full(ModelFamily.SVM, [{"lam": 0.5}], (X, y), (X, y), seed=0)[0]
    assert best.hyperparameters == {"lam": 0.5}


def test_sweep_perfect_separator_wins():
    # clustered training data; k=1 nails the eval points, k too large drowns
    # the minority class and misses its eval points
    X = np.array([[0.0], [0.1], [0.2], [5.0]])
    y = np.array([False, False, False, True])
    Xe = np.array([[0.05], [5.1]])
    ye = np.array([False, True])
    best = sweep_full(ModelFamily.KNN, [{"k": 4}, {"k": 1}], (X, y), (Xe, ye), seed=0)[0]
    assert best.hyperparameters == {"k": 1}


def test_sweep_tie_takes_first_grid_point():
    X, y = blobs(n_per_class=20, seed=24)
    best = sweep_full(ModelFamily.KNN, [{"k": 3}, {"k": 5}], (X, y), (X, y), seed=0)[0]
    assert best.hyperparameters == {"k": 3}


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
    """Tie-heavy small-integer data with duplicate rows, and a grid of unsorted,
    possibly repeated values, with or without ``None``. A point may leave the
    sweep parameter out (its default), which sends the grid down the path that
    fits every point."""
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
    param = FAMILIES[family].sweep_param
    grid = [{param: v} for v in draw(st.lists(values, min_size=1, max_size=5))]
    if draw(st.integers(0, 4)) == 0:
        grid.insert(draw(st.integers(0, len(grid))), {})
    return family, grid, X, y, Xe, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(sweep_cases())
def test_grid_predictions_equal_a_refit_per_point(case):
    family, grid, X, y, Xe, seed = case
    predictions = grid_predictions(family, grid, (X, y), Xe, seed)
    assert len(predictions) == len(grid)
    for point, preds in zip(grid, predictions):
        model = train(ModelSpec(family, dict(point), seed), (X, y))
        expected = model.predict_batch(Xe)
        assert preds.tolist() == expected.tolist(), point
        if family is ModelFamily.KNN:
            assert expected.tolist() == reference_knn(X, y, Xe, point.get("k", 5)).tolist()
        if family is ModelFamily.RANDOM_FOREST:
            votes = sum(tree.predict(Xe).astype(int) for tree in model.estimator.trees_)
            assert expected.tolist() == (votes * 2 > len(model.estimator.trees_)).tolist()


@pytest.mark.parametrize("family,grid,fits", [
    (ModelFamily.KNN, DEFAULT_GRIDS[ModelFamily.KNN], 1),
    (ModelFamily.DECISION_TREE, DEFAULT_GRIDS[ModelFamily.DECISION_TREE], 1),
    (ModelFamily.RANDOM_FOREST, DEFAULT_GRIDS[ModelFamily.RANDOM_FOREST], 1),
    (ModelFamily.RANDOM_FOREST, [{"n_estimators": 3}, {"n_estimators": 5}, {}], 3),
    (ModelFamily.SVM, DEFAULT_GRIDS[ModelFamily.SVM], 3),
], ids=["knn", "decision_tree", "random_forest", "random_forest-default-point", "svm"])
def test_grid_predictions_fit_count(monkeypatch, family, grid, fits):
    calls = []
    monkeypatch.setattr(classifiers, "train", lambda spec, data: calls.append(spec) or train(spec, data))
    X, y = blobs(n_per_class=8, seed=27)
    grid_predictions(family, grid, (X, y), X, seed=5)
    assert len(calls) == fits


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
])
def test_hyperparameter_out_of_range(family, params):
    X, y = blobs(n_per_class=5, seed=28)
    (name,) = params
    with pytest.raises(ConfigError, match=f"^{FAMILIES[family].display_name}: {name} must be .*, got "):
        train(ModelSpec(family, params), (X, y))
    sweep_param = FAMILIES[family].sweep_param
    grid = [params, {sweep_param: DEFAULT_GRIDS[family][0][sweep_param]}] if name == sweep_param else [params]
    with pytest.raises(ConfigError, match=f"{name} must be "):
        grid_predictions(family, grid, (X, y), X)


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
            threshold = (float(sv[cut[j]]) + float(sv[cut[j] + 1])) / 2.0
            best = (decrease, f, threshold)
    return best


@st.composite
def split_nodes(draw):
    """A node of 0-3 integer data: duplicate rows, some constant columns, rows
    drawn with repeats (as in a bootstrap), a sorted random feature subset, and
    now and then a node where every candidate column is constant."""
    n_rows, d = draw(st.integers(1, 12)), draw(st.integers(1, 8))
    cells = st.lists(st.integers(0, 3), min_size=d, max_size=d)
    rows = draw(st.lists(cells, min_size=n_rows, max_size=n_rows))
    X = np.array(rows + rows[: draw(st.integers(0, n_rows))], dtype=float)
    for column in draw(st.sets(st.integers(0, d - 1))):
        X[:, column] = draw(st.integers(0, 3))
    y = np.array(draw(st.lists(st.booleans(), min_size=len(X), max_size=len(X))))
    idx = np.array(draw(st.lists(st.integers(0, len(X) - 1), min_size=2, max_size=30)))
    features = sorted(draw(st.sets(st.integers(0, d - 1), min_size=1)))
    if draw(st.integers(0, 3)) == 0:
        X[:, features] = X[idx[0], features]
    return X, y, idx, features


def exact(split):
    return None if split is None else (split[0].hex(), split[1], split[2].hex())


NO_CUT_X = np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 3.0], [1.0, 2.0, 0.0]])
NO_CUT_Y = np.array([True, False, True])


@settings(max_examples=400, deadline=None)
@given(split_nodes())
@example((NO_CUT_X, NO_CUT_Y, np.array([0, 2, 1, 1]), [0, 1]))  # no column has a cut
@example((NO_CUT_X, NO_CUT_Y, np.array([0, 2, 1, 1]), [0, 1, 2]))  # only the last one has
def test_block_split_search_equals_the_per_feature_loop(node):
    X, y, idx, features = node
    expected = reference_best_split(X, y, idx, features)
    got = classifiers._best_split(X, y, idx, np.array(features), int(y[idx].sum()))
    assert exact(got) == exact(expected)
    assert got is None or type(got[1]) is int
