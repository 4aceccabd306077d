"""Stratified cross-validation, accuracy, and report rendering.

The paper reports CA, Mic-Pre, Mic-Rec and Mic-F1. For single-label binary
prediction the micro-averaged precision, recall, and F1 all collapse to
classification accuracy (summing TP and FP over both classes counts every
prediction once; TP and FN count every gold label once), so a report row holds
one accuracy and the report shows it in all four columns.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .annotate import BarrierDataset
# ``train`` is not called here: the benchmark's own tests read ``evaluate.train`` to check
# that tracing swaps it in every module that holds it and restores it afterwards
from .classifiers import FAMILIES, ModelFamily, best_point, grid_predictions, sweep_full, train  # noqa: F401
from .errors import DataError, MalformedRow
from .knowledge import BARRIERS, BarrierKind
from .tables import csv_text, read_table

REPORT_COLUMNS = ("barrier", "model", "ca", "micro_precision", "micro_recall", "micro_f1")


@dataclass(frozen=True)
class ReportRow:
    barrier: BarrierKind
    family: ModelFamily
    accuracy: float


def stratified_kfold(labels, k: int = 10, seed: int = 0, ids: Optional[Sequence[str]] = None) -> np.ndarray:
    """The fold, one of k, of each instance, preserving class proportions.

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
        members = np.flatnonzero(labels == label).tolist()
        if len(members) < k:
            raise DataError(f"class {label} has {len(members)} instances, fewer than k={k} folds")
        members.sort(key=lambda i: (ids[i], i))
        # the member at shuffled position p goes to fold p mod k
        fold_of[np.array(members)[rng.permutation(len(members))]] = np.arange(len(members)) % k
    return fold_of


def accuracy(predictions, gold) -> float:
    """The share of predictions that equal their gold label."""
    predictions = np.asarray(predictions, dtype=bool)
    gold = np.asarray(gold, dtype=bool)
    if predictions.shape != gold.shape:
        raise DataError(f"{len(predictions)} predictions vs {len(gold)} gold labels")
    if len(predictions) == 0:
        raise DataError("no predictions to score")
    return int((predictions == gold).sum()) / len(gold)


def _child_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1, np.uint64)[0])


INNER_K = 5  # inner folds of nested selection; fewer when a class of the training fold is smaller


def _select_nested(family, values, train_data, seed):
    """Pick a sweep value by inner cross-validation on the training fold only."""
    X, y = train_data
    k = max(2, min(INNER_K, int((~y).sum()), int(y.sum())))
    fold_of = stratified_kfold(y, k=k, seed=seed)
    preds = np.empty((len(values), len(y)), dtype=bool)
    for fold in range(k):
        tr, te = np.flatnonzero(fold_of != fold), np.flatnonzero(fold_of == fold)
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
    cross-validation on the training portion instead, then sweeps that one
    value. The accuracy pools the held-out predictions of all folds unless
    ``fold_mean`` asks for the mean of the per-fold accuracies.
    """
    X, y = dataset.arrays()
    fold_of = stratified_kfold(y, k=k, seed=seed, ids=[i.article_id for i in dataset.instances])
    sweeps = [(grids or {}).get(family, FAMILIES[family].sweep_values) for family in families]
    pooled = np.empty((len(families), len(y)), dtype=bool)
    per_fold = [[] for _ in families]
    for fold in range(k):
        tr, te = np.flatnonzero(fold_of != fold), np.flatnonzero(fold_of == fold)
        train_data, X_te, y_te = (X[tr], y[tr]), X[te], y[te]  # sliced once per fold, shared by every family
        for m, (family, values) in enumerate(zip(families, sweeps)):
            fold_seed = _child_seed(seed, m, fold)
            if nested and len(values) > 1:
                values = (_select_nested(family, values, train_data, fold_seed),)
            _, preds = sweep_full(family, values, train_data, (X_te, y_te), fold_seed)
            pooled[m, te] = preds
            if fold_mean:
                per_fold[m].append(accuracy(preds, y_te))
    return [
        ReportRow(dataset.barrier, family, float(np.mean(per_fold[m])) if fold_mean else accuracy(pooled[m], y))
        for m, family in enumerate(families)
    ]


def _sorted_rows(rows: Sequence[ReportRow]) -> list:
    return sorted(rows, key=lambda r: (list(BarrierKind).index(r.barrier), list(FAMILIES).index(r.family)))


def render_report(rows: Sequence[ReportRow], fmt: str = "markdown", footer: Optional[Sequence[str]] = None) -> str:
    """Render report rows barrier by barrier, models in ``FAMILIES`` order.

    Each row's accuracy fills the paper's four metric columns. Markdown rounds
    to two decimals; csv keeps full precision and round-trips.
    """
    if not rows:
        raise DataError("no report rows")
    ordered = _sorted_rows(rows)
    if fmt == "csv":
        cells = ((BARRIERS[r.barrier].title, FAMILIES[r.family].display_name, *[repr(r.accuracy)] * 4) for r in ordered)
        return csv_text(REPORT_COLUMNS, cells)
    if fmt != "markdown":
        raise ValueError(f"unknown report format: {fmt!r}")
    lines = ["| Barrier | Model | CA | Mic-Pre | Mic-Rec | Mic-F1 |", "| --- | --- | --- | --- | --- | --- |"]
    last_barrier = None
    for r in ordered:
        title = BARRIERS[r.barrier].title if r.barrier is not last_barrier else ""
        last_barrier = r.barrier
        lines.append(f"| {title} | {FAMILIES[r.family].display_name} |" + f" {r.accuracy:.2f} |" * 4)
    text = "\n".join(lines) + "\n"
    if footer:
        text += "\n" + "\n".join(footer) + "\n"
    return text


def parse_report_csv(path) -> list:
    """Read report rows back from a file of csv output; anything else is a DataError.

    Each row's four metric values must be one accuracy: equal as floats and in [0, 1].
    """
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
                values = [float(v) for v in record[2:]]
            except ValueError:
                raise MalformedRow(rownum, "metric is not a number") from None
            if not all(0.0 <= v <= 1.0 for v in values):
                raise MalformedRow(rownum, "metric is not an accuracy in [0, 1]")
            if len(set(values)) != 1:
                raise MalformedRow(rownum, "the four metrics differ; each column holds the accuracy")
            rows.append(ReportRow(title_to_barrier[record[0]], name_to_family[record[1]], values[0]))
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
