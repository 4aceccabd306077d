import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from newsbarriers.annotate import BarrierDataset
from newsbarriers.classifiers import ModelFamily
from newsbarriers.errors import EmptyInput, LengthMismatch, TooFewPerClass
from newsbarriers.evaluate import (
    dataset_footer,
    micro_metrics,
    parse_report_csv,
    render_report,
    run_experiment,
    stratified_kfold,
)
from newsbarriers.features import LabeledInstance
from newsbarriers.knowledge import BarrierKind


def make_dataset(X, y, barrier=BarrierKind.ECONOMIC):
    instances = [
        LabeledInstance(features=np.asarray(X[i], dtype=float), label=bool(y[i]), article_id=f"a{i:04d}")
        for i in range(len(y))
    ]
    return BarrierDataset(barrier=barrier, instances=instances)


def test_stratified_divisible_counts():
    labels = np.array([False] * 90 + [True] * 10)
    assignment = stratified_kfold(labels, k=10, seed=1)
    for fold in range(10):
        test = assignment.test_indices(fold)
        assert (~labels[test]).sum() == 9
        assert labels[test].sum() == 1


def test_stratified_pigeonhole_counts():
    # 95 FALSE across 10 folds -> five folds of 10 and five of 9
    labels = np.array([False] * 95 + [True] * 10)
    assignment = stratified_kfold(labels, k=10, seed=1)
    false_counts = sorted(int((~labels[assignment.test_indices(f)]).sum()) for f in range(10))
    assert false_counts == [9] * 5 + [10] * 5
    assert all(int(labels[assignment.test_indices(f)].sum()) == 1 for f in range(10))


def test_stratified_too_few_per_class():
    labels = np.array([False] * 50 + [True] * 9)
    with pytest.raises(TooFewPerClass):
        stratified_kfold(labels, k=10, seed=1)


def test_stratified_every_instance_once():
    labels = np.array([False] * 37 + [True] * 23)
    assignment = stratified_kfold(labels, k=10, seed=4)
    seen = np.concatenate([assignment.test_indices(f) for f in range(10)])
    assert sorted(seen.tolist()) == list(range(60))


def test_stratified_seed_determinism():
    labels = np.array([False] * 30 + [True] * 30)
    a = stratified_kfold(labels, k=5, seed=9)
    b = stratified_kfold(labels, k=5, seed=9)
    c = stratified_kfold(labels, k=5, seed=10)
    assert np.array_equal(a.fold_of, b.fold_of)
    assert not np.array_equal(a.fold_of, c.fold_of)


def test_micro_metrics_hand_enumerated():
    # confusion by hand: TP_sum=2 (one per class), FP_sum=FN_sum=2
    metrics = micro_metrics([True, True, False, False], [True, False, True, False])
    assert metrics.classification_accuracy == 0.5
    assert metrics.micro_precision == 0.5
    assert metrics.micro_recall == 0.5
    assert metrics.micro_f1 == 0.5


def test_micro_metrics_perfect_and_worst():
    perfect = micro_metrics([True, False], [True, False])
    assert perfect.micro_f1 == 1.0 and perfect.classification_accuracy == 1.0
    worst = micro_metrics([True, False], [False, True])
    assert worst.micro_f1 == 0.0 and worst.classification_accuracy == 0.0


def test_micro_metrics_errors():
    with pytest.raises(LengthMismatch):
        micro_metrics([True], [True, False])
    with pytest.raises(EmptyInput):
        micro_metrics([], [])


@given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=300))
def test_micro_metrics_identity(pairs):
    preds, gold = zip(*pairs)
    metrics = micro_metrics(list(preds), list(gold))
    assert metrics.micro_precision == metrics.micro_recall == metrics.micro_f1 == metrics.classification_accuracy


def test_run_experiment_most_frequent_pooled():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 4))
    y = np.array([False] * 140 + [True] * 60)
    dataset = make_dataset(X, y)
    rows = run_experiment(dataset, [ModelFamily.MOST_FREQUENT], k=10, seed=2)
    assert rows[0].metrics.classification_accuracy == 0.7
    assert rows[0].metrics.micro_f1 == 0.7


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
    assert rows[0].metrics.micro_f1 >= 0.99


def test_run_experiment_total_predictions_cover_dataset():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(50, 2))
    y = np.array([False] * 30 + [True] * 20)
    dataset = make_dataset(X, y)
    rows = run_experiment(dataset, [ModelFamily.MOST_FREQUENT], k=5, seed=8)
    # pooled most-frequent accuracy equals the majority fraction only if
    # every instance was predicted exactly once
    assert rows[0].metrics.classification_accuracy == 0.6


def test_run_experiment_fold_mean_and_nested_run():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(60, 3))
    y = np.array([False] * 40 + [True] * 20)
    X[y, 0] += 3.0
    dataset = make_dataset(X, y)
    grids = {ModelFamily.KNN: (1, 3)}
    mean_rows = run_experiment(dataset, [ModelFamily.KNN], k=5, seed=10, grids=grids, fold_mean=True)
    nested_rows = run_experiment(dataset, [ModelFamily.KNN], k=5, seed=10, grids=grids, nested=True)
    assert 0.0 <= mean_rows[0].metrics.micro_f1 <= 1.0
    assert 0.0 <= nested_rows[0].metrics.micro_f1 <= 1.0
    again = run_experiment(dataset, [ModelFamily.KNN], k=5, seed=10, grids=grids, nested=True)
    assert nested_rows == again


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
    with pytest.raises(EmptyInput):
        render_report([], "markdown")


def test_render_unknown_format():
    with pytest.raises(ValueError):
        render_report(demo_rows(), "html")


def test_render_footer_and_dataset_footer():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(20, 2))
    y = np.array([False] * 12 + [True] * 8)
    dataset = make_dataset(X, y, barrier=BarrierKind.CULTURAL)
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
    by_family = {r.family: r.metrics for r in rows}
    assert by_family[ModelFamily.DECISION_TREE].micro_f1 >= 0.9
