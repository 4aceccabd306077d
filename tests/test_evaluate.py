import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsbarriers import evaluate
from newsbarriers.annotate import BarrierDataset
from newsbarriers.classifiers import FAMILIES, ModelFamily, ModelSpec, train
from newsbarriers.errors import DataError
from newsbarriers.evaluate import (
    _child_seed,
    _select_nested,
    accuracy,
    dataset_footer,
    parse_report_csv,
    render_report,
    run_experiment,
    stratified_kfold,
)
from newsbarriers.features import LabeledInstance

from conftest import class_summed_micro


def make_dataset(X, y, barrier="economic"):
    """A dataset whose ``arrays()`` are ``X`` and ``y``: each row of X as the profile
    block, after an empty concept block."""
    no_concepts = np.zeros(0, dtype=np.uint8)
    instances = [
        LabeledInstance(concepts=no_concepts, profile=np.asarray(X[i], dtype=float), label=bool(y[i]),
                        article_id=f"a{i:04d}")
        for i in range(len(y))
    ]
    return BarrierDataset(barrier=barrier, instances=instances)


def test_stratified_divisible_counts():
    labels = np.array([False] * 90 + [True] * 10)
    fold_of = stratified_kfold(labels, k=10, seed=1)
    for fold in range(10):
        test = np.flatnonzero(fold_of == fold)
        assert (~labels[test]).sum() == 9
        assert labels[test].sum() == 1


def test_stratified_pigeonhole_counts():
    # 95 FALSE across 10 folds -> five folds of 10 and five of 9
    labels = np.array([False] * 95 + [True] * 10)
    fold_of = stratified_kfold(labels, k=10, seed=1)
    false_counts = sorted(int((~labels[fold_of == f]).sum()) for f in range(10))
    assert false_counts == [9] * 5 + [10] * 5
    assert all(int(labels[fold_of == f].sum()) == 1 for f in range(10))


def test_stratified_too_few_per_class():
    labels = np.array([False] * 50 + [True] * 9)
    with pytest.raises(DataError, match=r"^class True has 9 instances, fewer than k=10 folds$"):
        stratified_kfold(labels, k=10, seed=1)


def test_stratified_every_instance_once():
    labels = np.array([False] * 37 + [True] * 23)
    fold_of = stratified_kfold(labels, k=10, seed=4)
    seen = np.concatenate([np.flatnonzero(fold_of == f) for f in range(10)])
    assert sorted(seen.tolist()) == list(range(60))


def test_stratified_seed_determinism():
    labels = np.array([False] * 30 + [True] * 30)
    a = stratified_kfold(labels, k=5, seed=9)
    b = stratified_kfold(labels, k=5, seed=9)
    c = stratified_kfold(labels, k=5, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def reference_stratified_kfold(labels, k, seed, ids):
    """The per-element loops that ``stratified_kfold`` replaced with array calls."""
    labels = np.asarray(labels, dtype=bool)
    n = len(labels)
    ids = [""] * n if ids is None else ids
    fold_of = np.empty(n, dtype=int)
    rng = np.random.default_rng(seed)
    for label in (False, True):
        members = [i for i in range(n) if labels[i] == label]
        if len(members) < k:
            raise DataError(f"class {label} has {len(members)} instances, fewer than k={k} folds")
        members.sort(key=lambda i: (ids[i], i))
        order = rng.permutation(len(members))
        for position, j in enumerate(order):
            fold_of[members[j]] = position % k
    return fold_of


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_stratified_folds_equal_the_per_element_loops(data):
    n_false, n_true = data.draw(st.integers(0, 40), label="FALSE"), data.draw(st.integers(0, 40), label="TRUE")
    labels = data.draw(st.permutations([False] * n_false + [True] * n_true), label="labels")
    k = data.draw(st.integers(1, 10), label="k")
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    # repeated ids, so the position breaks ties in the order
    ids = data.draw(st.none() | st.lists(st.sampled_from(["", "a", "a1", "b", "a0000"]),
                                         min_size=len(labels), max_size=len(labels)), label="ids")
    try:
        expected = reference_stratified_kfold(labels, k, seed, ids)
    except DataError as exc:
        with pytest.raises(DataError, match=f"^{re.escape(str(exc))}$"):
            stratified_kfold(labels, k=k, seed=seed, ids=ids)
        return
    assert stratified_kfold(labels, k=k, seed=seed, ids=ids).tolist() == expected.tolist()


def test_micro_metrics_hand_enumerated():
    # confusion by hand: TP_sum=2 (one per class), FP_sum=FN_sum=2
    preds, gold = [True, True, False, False], [True, False, True, False]
    precision, recall, f1 = class_summed_micro(preds, gold)
    assert accuracy(preds, gold) == 0.5
    assert precision == 0.5
    assert recall == 0.5
    assert f1 == 0.5


def test_micro_metrics_perfect_and_worst():
    perfect = ([True, False], [True, False])
    assert class_summed_micro(*perfect)[2] == 1.0 and accuracy(*perfect) == 1.0
    worst = ([True, False], [False, True])
    assert class_summed_micro(*worst)[2] == 0.0 and accuracy(*worst) == 0.0


def test_micro_metrics_errors():
    with pytest.raises(DataError, match=r"^1 predictions vs 2 gold labels$"):
        accuracy([True], [True, False])
    with pytest.raises(DataError, match=r"^no predictions to score$"):
        accuracy([], [])


@given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=300))
def test_micro_metrics_identity(pairs):
    preds, gold = zip(*pairs)
    precision, recall, f1 = class_summed_micro(preds, gold)
    assert precision == recall == f1 == accuracy(list(preds), list(gold))


def test_run_experiment_most_frequent_pooled():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 4))
    y = np.array([False] * 140 + [True] * 60)
    dataset = make_dataset(X, y)
    rows = run_experiment(dataset, [ModelFamily.MOST_FREQUENT], k=10, seed=2)
    assert rows[0].accuracy == 0.7
    # the report shows that one accuracy as CA and as each micro metric
    assert render_report(rows, "csv").splitlines()[1].endswith(",0.7,0.7,0.7,0.7")


def test_run_experiment_deterministic():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(60, 3))
    y = np.array([False] * 40 + [True] * 20)
    dataset = make_dataset(X, y)
    families = [ModelFamily.STRATIFIED, ModelFamily.SVM]
    grids = {ModelFamily.SVM: (1e-3,)}
    first = run_experiment(dataset, families, k=5, seed=3, grids=grids)
    second = run_experiment(dataset, families, k=5, seed=3, grids=grids)
    assert first == second


def test_run_experiment_planted_concept_signal():
    # label equals feature 0; a one-split tree is perfect
    rng = np.random.default_rng(5)
    y = np.array([False] * 60 + [True] * 40)
    X = np.column_stack([y.astype(float), rng.normal(size=(100, 5))])
    dataset = make_dataset(X, y)
    rows = run_experiment(dataset, [ModelFamily.DECISION_TREE], k=10, seed=6)
    assert rows[0].accuracy >= 0.99


def test_run_experiment_total_predictions_cover_dataset():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(50, 2))
    y = np.array([False] * 30 + [True] * 20)
    dataset = make_dataset(X, y)
    rows = run_experiment(dataset, [ModelFamily.MOST_FREQUENT], k=5, seed=8)
    # pooled most-frequent accuracy equals the majority fraction only if
    # every instance was predicted exactly once
    assert rows[0].accuracy == 0.6


def test_run_experiment_fold_mean_and_nested_run():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(60, 3))
    y = np.array([False] * 40 + [True] * 20)
    X[y, 0] += 3.0
    dataset = make_dataset(X, y)
    grids = {ModelFamily.KNN: (1, 3)}
    mean_rows = run_experiment(dataset, [ModelFamily.KNN], k=5, seed=10, grids=grids, fold_mean=True)
    nested_rows = run_experiment(dataset, [ModelFamily.KNN], k=5, seed=10, grids=grids, nested=True)
    assert 0.0 <= mean_rows[0].accuracy <= 1.0
    assert 0.0 <= nested_rows[0].accuracy <= 1.0
    again = run_experiment(dataset, [ModelFamily.KNN], k=5, seed=10, grids=grids, nested=True)
    assert nested_rows == again


def test_cross_validation_memory_stays_flat():
    # the dataset's instances hold rows of a uint8 concept block and shared profile blocks; only
    # one fold is widened to float64 at a time, so the peak stays below 2.5 float64 matrices
    rng = np.random.default_rng(16)
    concepts = (rng.random((3000, 300)) < 0.02).astype(np.uint8)
    profiles = rng.normal(size=(20, 13))
    dataset = BarrierDataset(barrier="economic", instances=[
        LabeledInstance(concepts=row, profile=profiles[i % 20], label=bool(rng.random() < 0.3), article_id=f"a{i:04d}")
        for i, row in enumerate(concepts)
    ])
    families = [ModelFamily.UNIFORM, ModelFamily.STRATIFIED, ModelFamily.MOST_FREQUENT, ModelFamily.NAIVE_BAYES]
    run_experiment(make_dataset(np.eye(20), np.arange(20) % 2 == 0), families)  # numpy's first-call allocations
    tracemalloc.start()
    try:
        run_experiment(dataset, families, k=10, seed=17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    float64_matrix = 3000 * (300 + 13) * 8
    assert peak < 2.5 * float64_matrix, peak / float64_matrix


NESTED_GRIDS = {
    ModelFamily.KNN: st.integers(1, 15),
    ModelFamily.DECISION_TREE: st.one_of(st.integers(2, 16), st.none()),
    ModelFamily.RANDOM_FOREST: st.integers(1, 8),
    ModelFamily.SVM: st.sampled_from([1e-4, 1e-3, 1e-2, 1e-1, 1.0]),
}


@st.composite
def nested_cases(draw):
    """Tie-heavy 0-3 data with at least 4 of each class, 2 or 3 outer folds, and an
    unsorted grid of 2-4 values for each family whose sweep nests or is refit."""
    n_false, n_true = draw(st.integers(4, 14)), draw(st.integers(4, 14))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, 4, size=(n_false + n_true, d)).astype(float)
    y = rng.permutation(np.array([False] * n_false + [True] * n_true))
    grids = {family: tuple(draw(st.lists(values, min_size=2, max_size=4, unique=True)))
             for family, values in NESTED_GRIDS.items()}
    return X, y, grids, draw(st.integers(2, 3)), draw(st.integers(0, 2**16))


@settings(max_examples=30, deadline=None)
@given(nested_cases())
def test_nested_predictions_equal_a_refit_at_the_picked_value(case):
    """``--nested`` reads each fold's held-out predictions from a one-value sweep; they
    equal those of a model trained at the picked value."""
    X, y, grids, k, seed = case
    dataset = make_dataset(X, y)
    families = list(grids)
    held_out, sweep_full = [], evaluate.sweep_full

    def recording_sweep(*args, **kwargs):
        result = sweep_full(*args, **kwargs)
        held_out.append(result[1])
        return result

    with mock.patch.object(evaluate, "sweep_full", recording_sweep):
        rows = run_experiment(dataset, families, k=k, seed=seed, grids=grids, nested=True)
    assert len(held_out) == k * len(families)
    fold_of = stratified_kfold(y, k=k, seed=seed, ids=[i.article_id for i in dataset.instances])
    pooled = np.empty((len(families), len(y)), dtype=bool)
    calls = iter(held_out)
    for fold in range(k):
        tr, te = np.flatnonzero(fold_of != fold), np.flatnonzero(fold_of == fold)
        for m, family in enumerate(families):
            fold_seed = _child_seed(seed, m, fold)
            value = _select_nested(family, grids[family], (X[tr], y[tr]), fold_seed)
            spec = ModelSpec(family, {FAMILIES[family].sweep_param: value}, fold_seed)
            pooled[m, te] = train(spec, (X[tr], y[tr])).predict_batch(X[te])
            assert np.array_equal(next(calls), pooled[m, te])
    assert [row.accuracy for row in rows] == [accuracy(p, y) for p in pooled]


def demo_rows():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(40, 2))
    y = np.array([False] * 28 + [True] * 12)
    dataset = make_dataset(X, y)
    return run_experiment(dataset, [ModelFamily.MOST_FREQUENT, ModelFamily.UNIFORM], k=4, seed=12)


def test_render_markdown_order_and_rounding():
    rows = demo_rows()
    text = render_report(rows, "markdown")
    lines = text.splitlines()
    assert lines[0].startswith("| Barrier | Model | CA ")
    # Uniform must render before Most Frequent regardless of input order
    assert lines[2].split("|")[2].strip() == "Uniform"
    assert lines[3].split("|")[2].strip() == "Most Frequent"
    assert "0.70" in lines[3]


def test_render_csv_round_trips(tmp_path):
    rows = demo_rows()
    path = tmp_path / "report.csv"
    path.write_text(render_report(rows, "csv"), encoding="utf-8", newline="")
    assert parse_report_csv(path) == sorted(rows, key=lambda r: 0 if r.family is ModelFamily.UNIFORM else 1)


def test_render_single_row():
    rows = demo_rows()[:1]
    text = render_report(rows, "markdown")
    assert len(text.splitlines()) == 3


def test_render_empty_rows():
    with pytest.raises(DataError, match=r"^no report rows$"):
        render_report([], "markdown")


def test_render_unknown_format():
    with pytest.raises(ValueError):
        render_report(demo_rows(), "html")


def test_render_footer_and_dataset_footer():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(20, 2))
    y = np.array([False] * 12 + [True] * 8)
    dataset = make_dataset(X, y, barrier="cultural")
    dataset.dropped["unknown_alignment"] = 3
    footer = dataset_footer(dataset)
    assert footer[0] == "Cultural: 20 instances (TRUE 8 / FALSE 12), dropped 3"
    assert footer[1] == "  dropped (unknown_alignment): 3"
    text = render_report(demo_rows(), "markdown", footer=footer)
    assert text.rstrip().endswith("dropped (unknown_alignment): 3")


def test_full_grid_experiment_smoke():
    # all eight families with tiny grids on a small separable dataset
    rng = np.random.default_rng(14)
    y = np.array([False] * 30 + [True] * 20)
    X = rng.normal(size=(50, 3))
    X[y, 0] += 4.0
    dataset = make_dataset(X, y)
    grids = {
        ModelFamily.SVM: (1e-3,),
        ModelFamily.KNN: (1, 3),
        ModelFamily.DECISION_TREE: (4,),
        ModelFamily.RANDOM_FOREST: (5,),
    }
    rows = run_experiment(dataset, list(ModelFamily), k=5, seed=15, grids=grids)
    assert len(rows) == len(ModelFamily)
    by_family = {r.family: r.accuracy for r in rows}
    assert by_family[ModelFamily.DECISION_TREE] >= 0.9
