"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 7 and 8 need the
real pair corpus and are skipped unless IPONEWS_DIR points at a directory
laid out as:

    $IPONEWS_DIR/countries.csv
    $IPONEWS_DIR/publishers.csv
    $IPONEWS_DIR/<event>/pairs.csv        event in: fifa, earthquake, global-warming
    $IPONEWS_DIR/<event>/concepts.jsonl
"""

import csv
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from newsbarriers.annotate import annotate_vector_barrier, cosine_similarity
from newsbarriers.classifiers import KNearestNeighbors, ModelFamily
from newsbarriers.cli import main
from newsbarriers.config import PipelineConfig
from newsbarriers.evaluate import accuracy, render_report, run_experiment, stratified_kfold
from newsbarriers.features import LabeledInstance
from newsbarriers.annotate import BarrierDataset
from newsbarriers.knowledge import BARRIERS
from newsbarriers.pipeline import annotate_corpus
from newsbarriers.synth import SyntheticSpec, generate_corpus

from conftest import class_summed_micro

ORACLE_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bruteforce_reannotate.py"

EVENTS = ("fifa", "earthquake", "global-warming")
TABLE3_COUNTS = {
    "fifa": {"timezone": 724, "cultural": 699, "political": 143, "geographical": 726, "economic": 634},
    "earthquake": {"timezone": 1102, "cultural": 1113, "political": 227, "geographical": 1113, "economic": 1010},
    "global-warming": {"timezone": 586, "cultural": 445, "political": 108, "geographical": 487, "economic": 463},
}

needs_real_data = pytest.mark.skipif(
    not os.environ.get("IPONEWS_DIR"), reason="IPONEWS_DIR not set; dataset-dependent criterion"
)


def report(criterion: int, message: str) -> None:
    print(f"[acceptance] criterion {criterion}: PASS - {message}")


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


def test_criterion_1_metric_identity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(1, 501))
        preds = rng.integers(0, 2, n).astype(bool)
        gold = rng.integers(0, 2, n).astype(bool)
        precision, recall, f1 = class_summed_micro(preds, gold)
        assert precision == recall == f1 == accuracy(preds, gold)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"metric identity suite took {elapsed:.2f}s"
    report(1, f"1000 random vectors, exact identity, {elapsed:.2f}s")


def test_criterion_2_annotation_oracle_equivalence(tmp_path):
    start = time.perf_counter()
    spec = SyntheticSpec(n_countries=7, n_publishers=16, n_articles=500, seed=202)
    paths = generate_corpus(spec, tmp_path / "corpus")
    config = PipelineConfig(
        pairs=str(paths["pairs"]), concepts=str(paths["concepts"]),
        countries=str(paths["countries"]), publishers=str(paths["publishers"]),
        out=str(tmp_path / "run"), event="synthetic", vocab_size=30,
    )
    config.validate()
    datasets, _, _ = annotate_corpus(config)

    oracle_out = tmp_path / "oracle.csv"
    proc = subprocess.run(
        [sys.executable, str(ORACLE_SCRIPT), str(tmp_path / "corpus"), "-o", str(oracle_out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    oracle: dict = {kind: [] for kind in BARRIERS}
    with open(oracle_out, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for _, article_id, barrier, label in reader:
            oracle[barrier].append((article_id, label))

    for kind, dataset in datasets.items():
        expected = [(a, l) for a, l in oracle[kind] if l != "DROPPED"]
        got = [(i.article_id, "TRUE" if i.label else "FALSE") for i in dataset.instances]
        assert len(got) == 500, f"{kind}: {len(got)} instances"
        assert got == expected, f"{kind}: pipeline and brute-force labels disagree"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle equivalence took {elapsed:.2f}s"
    report(2, f"500/500 agreement on all five barriers, {elapsed:.2f}s")


def test_criterion_3_threshold_semantics():
    # search the float neighbourhood for a vector whose cosine with [1, 0]
    # computes to exactly 0.9
    y = math.sqrt(1.0 - 0.9 * 0.9)
    exact = None
    for step in range(-80, 81):
        cand = y
        for _ in range(abs(step)):
            cand = math.nextafter(cand, math.inf if step > 0 else -math.inf)
        if cosine_similarity([1.0, 0.0], [0.9, cand]) == 0.9:
            exact = [0.9, cand]
            break
    assert exact is not None, "no exact-threshold vector found"
    assert cosine_similarity([1.0, 0.0], exact) == 0.9
    assert annotate_vector_barrier([1.0, 0.0], exact) is True

    c = 0.9 + 1e-9
    above = [c, math.sqrt(1.0 - c * c)]
    similarity = cosine_similarity([1.0, 0.0], above)
    assert 0.9 < similarity < 0.9 + 2e-9
    assert annotate_vector_barrier([1.0, 0.0], above) is False
    report(3, "cosine exactly 0.9 labels TRUE, 0.9 + 1e-9 labels FALSE")


def test_criterion_4_baseline_fidelity():
    # the 70/30 shape: folds divide evenly, the row reads 0.70 everywhere
    rng = np.random.default_rng(404)
    X = rng.normal(size=(200, 5))
    y = np.array([False] * 140 + [True] * 60)
    rows = run_experiment(make_dataset(X, y), [ModelFamily.MOST_FREQUENT], k=10, seed=4)
    assert rows[0].accuracy == 0.7
    assert render_report(rows, "csv").splitlines()[1].endswith(",0.7,0.7,0.7,0.7")
    line = render_report(rows, "markdown").splitlines()[2]
    assert line.endswith("| Most Frequent | 0.70 | 0.70 | 0.70 | 0.70 |")

    # random datasets with a clear majority: pooled metrics within 1/n
    k = 10
    for trial in range(25):
        n_true = int(rng.integers(k, 60))
        n_false = int(n_true + np.ceil((n_true * 2 + 100) / k) + rng.integers(2, 40))
        n = n_true + n_false
        X = rng.normal(size=(n, 3))
        y = np.array([False] * n_false + [True] * n_true)
        rows = run_experiment(make_dataset(X, y), [ModelFamily.MOST_FREQUENT], k=k, seed=trial)
        majority = n_false / n
        assert abs(rows[0].accuracy - majority) <= 1.0 / n
    report(4, "MostFrequent pooled metrics match the majority fraction; 70/30 row reads 0.70")


def test_criterion_5_classifier_sanity():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    n = 100
    # margin >= 0.5 around the separator x0 = 0
    X = np.vstack([
        np.column_stack([rng.uniform(0.5, 2.0, n), rng.normal(0, 1.0, n)]),
        np.column_stack([rng.uniform(-2.0, -0.5, n), rng.normal(0, 1.0, n)]),
    ])
    y = np.array([True] * n + [False] * n)
    dataset = make_dataset(X, y)
    rows = run_experiment(dataset, [ModelFamily.SVM, ModelFamily.DECISION_TREE], k=10, seed=5)
    for row in rows:
        assert row.accuracy >= 0.99, f"{row.family}: {row.accuracy}"

    knn = KNearestNeighbors(k=1).fit(X, y)
    assert (knn.predict(X) == y).mean() == 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"classifier sanity took {elapsed:.2f}s"
    report(5, f"SVM and CART pooled micro-F1 >= 0.99, kNN k=1 training accuracy 1.0, {elapsed:.2f}s")


def test_criterion_6_stratification_property():
    rng = np.random.default_rng(606)
    k = 10
    for _ in range(1000):
        n_true = int(rng.integers(k, 80))
        n_false = int(rng.integers(k, 120))
        labels = np.array([False] * n_false + [True] * n_true)
        rng.shuffle(labels)
        fold_of = stratified_kfold(labels, k=k, seed=int(rng.integers(0, 2**32)))
        counts = np.zeros(len(labels), dtype=int)
        for fold in range(k):
            test = np.flatnonzero(fold_of == fold)
            counts[test] += 1
            for label, n_class in ((True, n_true), (False, n_false)):
                in_fold = int((labels[test] == label).sum())
                assert abs(in_fold - n_class / k) <= 1.0
        assert (counts == 1).all()
    report(6, "1000 random datasets, per-class fold counts within 1 of proportion")


def _real_data_config(event: str, out: Path) -> PipelineConfig:
    root = Path(os.environ["IPONEWS_DIR"])
    return PipelineConfig(
        pairs=str(root / event / "pairs.csv"),
        concepts=str(root / event / "concepts.jsonl"),
        countries=str(root / "countries.csv"),
        publishers=str(root / "publishers.csv"),
        out=str(out),
        event=event,
    )


@needs_real_data
def test_criterion_7_table3_counts(tmp_path):
    mismatches = []
    for event in EVENTS:
        config = _real_data_config(event, tmp_path / event)
        config.validate()
        datasets, ingest_report, _ = annotate_corpus(config)
        for kind, dataset in datasets.items():
            expected = TABLE3_COUNTS[event][kind]
            actual = len(dataset.instances)
            if actual != expected:
                # every deviation must be accounted for by explicit drop tallies
                assert actual + dataset.total_dropped == ingest_report.examples
                assert ingest_report.examples + ingest_report.total_drops == ingest_report.propagated
                mismatches.append(f"{event}/{kind}: {actual} vs {expected} "
                                  f"(drops {dict(dataset.dropped)})")
        for kind in ("cultural", "political"):
            n_true, n_false = datasets[kind].class_counts
            assert n_false > n_true, f"{event}/{kind}: FALSE is not the majority class"
    message = "instance counts match the published statistics"
    if mismatches:
        message = "deviations fully accounted by drop reasons: " + "; ".join(mismatches)
    report(7, message)


@needs_real_data
def test_criterion_8_models_beat_baselines(tmp_path):
    grids = {
        ModelFamily.SVM: (1e-3,),
        ModelFamily.KNN: (1, 5, 15),
        ModelFamily.DECISION_TREE: (16, None),
        ModelFamily.RANDOM_FOREST: (50,),
    }
    learned = (ModelFamily.SVM, ModelFamily.KNN, ModelFamily.DECISION_TREE,
               ModelFamily.RANDOM_FOREST, ModelFamily.NAIVE_BAYES)
    families = (ModelFamily.STRATIFIED, ModelFamily.MOST_FREQUENT) + learned
    for event in EVENTS:
        config = _real_data_config(event, tmp_path / event)
        config.validate()
        datasets, _, _ = annotate_corpus(config)
        for kind, dataset in datasets.items():
            rows = run_experiment(dataset, families, k=10, seed=8, grids=grids)
            acc = {r.family: r.accuracy for r in rows}
            for family in learned:
                assert acc[family] >= acc[ModelFamily.STRATIFIED], f"{event}/{kind}: {family}"
            if kind in ("geographical", "timezone"):
                assert any(acc[family] > acc[ModelFamily.MOST_FREQUENT] for family in learned), \
                    f"{event}/{kind}: no learned model beats MostFrequent"
    report(8, "learned models dominate Stratified everywhere and beat MostFrequent on geo/tz")


def test_criterion_9_run_determinism(tmp_path):
    paths = generate_corpus(SyntheticSpec(n_articles=60, n_publishers=10, seed=909), tmp_path / "corpus")
    base = [
        "run",
        "--pairs", str(paths["pairs"]),
        "--concepts", str(paths["concepts"]),
        "--countries", str(paths["countries"]),
        "--publishers", str(paths["publishers"]),
        "--event", "synthetic",
        "--vocab-size", "20", "--k-folds", "5", "--seed", "99",
        "--grid", "knn.k=1,3",
        "--grid", "decision_tree.max_leaf_nodes=4,none",
        "--grid", "random_forest.n_estimators=5",
        "--grid", "svm.lam=0.001",
    ]
    assert main([*base, "--out", str(tmp_path / "a")]) == 0
    assert main([*base, "--out", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "report.csv").read_bytes()
    second = (tmp_path / "b" / "report.csv").read_bytes()
    assert first == second
    report(9, "two identical runs produced byte-identical report.csv")
