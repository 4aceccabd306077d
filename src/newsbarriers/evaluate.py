"""Stratified cross-validation, micro-averaged metrics, and report rendering.

For single-label binary prediction the micro-averaged precision, recall, and
F1 all collapse to classification accuracy (summing TP and FP over both
classes counts every prediction once; TP and FN count every gold label once).
``micro_metrics`` computes the class-summed formulas literally and asserts the
identity on every call.
"""

from dataclasses import astuple, dataclass
from typing import Optional, Sequence

import numpy as np

from .annotate import BarrierDataset
from .classifiers import FAMILIES, ModelFamily, ModelSpec, best_point, grid_predictions, sweep_full, train
from .errors import DataError, EmptyInput, LengthMismatch, MalformedRow, TooFewPerClass
from .knowledge import BARRIERS, BarrierKind
from .tables import csv_text, read_table

REPORT_COLUMNS = ("barrier", "model", "ca", "micro_precision", "micro_recall", "micro_f1")


@dataclass(frozen=True)
class FoldAssignment:
    fold_of: np.ndarray  # fold index per instance
    k: int
    seed: int

    def test_indices(self, fold: int) -> np.ndarray:
        return np.nonzero(self.fold_of == fold)[0]

    def train_indices(self, fold: int) -> np.ndarray:
        return np.nonzero(self.fold_of != fold)[0]


@dataclass(frozen=True)
class MetricSet:
    classification_accuracy: float
    micro_precision: float
    micro_recall: float
    micro_f1: float


@dataclass(frozen=True)
class ReportRow:
    barrier: BarrierKind
    family: ModelFamily
    metrics: MetricSet


def stratified_kfold(labels, k: int = 10, seed: int = 0, ids: Optional[Sequence[str]] = None) -> FoldAssignment:
    """Assign each instance to one of k folds, preserving class proportions.

    Fixed algorithm, stable across platforms: within each class, instances are
    ordered by (id, original position), shuffled once with a PCG64 generator
    seeded from ``seed``, and dealt round-robin into folds. Per-fold class
    counts land within one instance of perfect proportion.
    """
    labels = np.asarray(labels, dtype=bool)
    n = len(labels)
    if ids is None:
        ids = [""] * n
    fold_of = np.empty(n, dtype=int)
    rng = np.random.default_rng(seed)
    for label in (False, True):
        members = [i for i in range(n) if labels[i] == label]
        if len(members) < k:
            raise TooFewPerClass(label, len(members), k)
        members.sort(key=lambda i: (ids[i], i))
        order = rng.permutation(len(members))
        for position, j in enumerate(order):
            fold_of[members[j]] = position % k
    return FoldAssignment(fold_of=fold_of, k=k, seed=seed)


def micro_metrics(predictions, gold) -> MetricSet:
    """Class-summed micro precision/recall/F1 plus classification accuracy."""
    predictions = np.asarray(predictions, dtype=bool)
    gold = np.asarray(gold, dtype=bool)
    if predictions.shape != gold.shape:
        raise LengthMismatch(f"{len(predictions)} predictions vs {len(gold)} gold labels")
    if len(predictions) == 0:
        raise EmptyInput("no predictions to score")

    tp_sum = fp_sum = fn_sum = 0
    for label in (False, True):
        tp_sum += int(((predictions == label) & (gold == label)).sum())
        fp_sum += int(((predictions == label) & (gold != label)).sum())
        fn_sum += int(((predictions != label) & (gold == label)).sum())
    accuracy = int((predictions == gold).sum()) / len(gold)
    precision = tp_sum / (tp_sum + fp_sum)
    recall = tp_sum / (tp_sum + fn_sum)
    f1 = precision if precision == recall else 2.0 * precision * recall / (precision + recall)
    # Single-label binary identity; holds for every input by construction.
    assert precision == recall == f1 == accuracy
    return MetricSet(
        classification_accuracy=accuracy,
        micro_precision=precision,
        micro_recall=recall,
        micro_f1=f1,
    )


def _mean_metrics(per_fold: Sequence[MetricSet]) -> MetricSet:
    return MetricSet(
        classification_accuracy=float(np.mean([m.classification_accuracy for m in per_fold])),
        micro_precision=float(np.mean([m.micro_precision for m in per_fold])),
        micro_recall=float(np.mean([m.micro_recall for m in per_fold])),
        micro_f1=float(np.mean([m.micro_f1 for m in per_fold])),
    )


def _child_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1, np.uint64)[0])


INNER_K = 5  # inner folds of nested selection; fewer when a class of the training fold is smaller


def _select_nested(family, values, train_data, seed):
    """Pick a sweep value by inner cross-validation on the training fold only."""
    X, y = train_data
    k = max(2, min(INNER_K, int((~y).sum()), int(y.sum())))
    assignment = stratified_kfold(y, k=k, seed=seed)
    preds = np.empty((len(values), len(y)), dtype=bool)
    for fold in range(k):
        tr, te = assignment.train_indices(fold), assignment.test_indices(fold)
        preds[:, te] = grid_predictions(family, values, (X[tr], y[tr]), X[te], seed)
    return values[best_point(preds, y)]


def run_experiment(
    dataset: BarrierDataset,
    families: Sequence[ModelFamily],
    k: int = 10,
    seed: int = 0,
    grids: Optional[dict] = None,
    nested: bool = False,
    fold_mean: bool = False,
) -> list:
    """k-fold evaluation of each model family on one barrier dataset.

    Each family is swept inside every fold over its values in ``grids``
    (family -> sweep values), else over its default ``sweep_values``. By
    default the sweep scores its values on the fold's own test split (the
    reproduced protocol); ``nested=True`` picks the value by inner
    cross-validation on the training portion instead. Metrics pool the
    held-out predictions of all folds unless ``fold_mean`` asks for per-fold
    averaging.
    """
    X, y = dataset.arrays()
    assignment = stratified_kfold(y, k=k, seed=seed, ids=[i.article_id for i in dataset.instances])
    rows = []
    for m, family in enumerate(families):
        values = (grids or {}).get(family, FAMILIES[family].sweep_values)
        pooled = np.empty(len(y), dtype=bool)
        per_fold = []
        for fold in range(k):
            tr, te = assignment.train_indices(fold), assignment.test_indices(fold)
            fold_seed = _child_seed(seed, m, fold)
            train_data = (X[tr], y[tr])
            if nested and len(values) > 1:
                value = _select_nested(family, values, train_data, fold_seed)
                spec = ModelSpec(family, {FAMILIES[family].sweep_param: value}, fold_seed)
                preds = train(spec, train_data).predict_batch(X[te])
            else:
                _, preds = sweep_full(family, values, train_data, (X[te], y[te]), fold_seed)
            pooled[te] = preds
            if fold_mean:
                per_fold.append(micro_metrics(preds, y[te]))
        metrics = _mean_metrics(per_fold) if fold_mean else micro_metrics(pooled, y)
        rows.append(ReportRow(barrier=dataset.barrier, family=family, metrics=metrics))
    return rows


def _sorted_rows(rows: Sequence[ReportRow]) -> list:
    return sorted(rows, key=lambda r: (list(BarrierKind).index(r.barrier), list(FAMILIES).index(r.family)))


def render_report(rows: Sequence[ReportRow], fmt: str = "markdown", footer: Optional[Sequence[str]] = None) -> str:
    """Render report rows barrier by barrier, models in ``FAMILIES`` order.

    Markdown rounds to two decimals; csv keeps full precision and round-trips.
    """
    if not rows:
        raise EmptyInput("no report rows")
    ordered = _sorted_rows(rows)
    if fmt == "csv":
        cells = (
            (BARRIERS[r.barrier].title, FAMILIES[r.family].display_name, *map(repr, astuple(r.metrics)))
            for r in ordered
        )
        return csv_text(REPORT_COLUMNS, cells)
    if fmt != "markdown":
        raise ValueError(f"unknown report format: {fmt!r}")
    lines = ["| Barrier | Model | CA | Mic-Pre | Mic-Rec | Mic-F1 |", "| --- | --- | --- | --- | --- | --- |"]
    last_barrier = None
    for r in ordered:
        title = BARRIERS[r.barrier].title if r.barrier is not last_barrier else ""
        last_barrier = r.barrier
        m = r.metrics
        lines.append(
            f"| {title} | {FAMILIES[r.family].display_name} | {m.classification_accuracy:.2f} "
            f"| {m.micro_precision:.2f} | {m.micro_recall:.2f} | {m.micro_f1:.2f} |"
        )
    text = "\n".join(lines) + "\n"
    if footer:
        text += "\n" + "\n".join(footer) + "\n"
    return text


def parse_report_csv(path) -> list:
    """Read report rows back from a file of csv output; anything else is a DataError."""
    title_to_barrier = {b.title: kind for kind, b in BARRIERS.items()}
    name_to_family = {f.display_name: family for family, f in FAMILIES.items()}
    rows = []
    with read_table(path) as (header, records):
        if header != REPORT_COLUMNS:
            raise DataError("not a report csv")
        for rownum, record in records:
            if record[0] not in title_to_barrier:
                raise MalformedRow(rownum, f"unknown barrier {record[0]!r}")
            if record[1] not in name_to_family:
                raise MalformedRow(rownum, f"unknown model {record[1]!r}")
            try:
                metrics = MetricSet(*(float(v) for v in record[2:]))
            except ValueError:
                raise MalformedRow(rownum, "metric is not a number") from None
            rows.append(ReportRow(title_to_barrier[record[0]], name_to_family[record[1]], metrics))
    return rows


def dataset_footer(dataset: BarrierDataset) -> list:
    n_true, n_false = dataset.class_counts
    lines = [
        f"{BARRIERS[dataset.barrier].title}: {len(dataset.instances)} instances "
        f"(TRUE {n_true} / FALSE {n_false}), dropped {dataset.total_dropped}"
    ]
    for reason in sorted(dataset.dropped):
        lines.append(f"  dropped ({reason}): {dataset.dropped[reason]}")
    return lines
