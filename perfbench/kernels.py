"""Microbenchmarks of the public classifier classes on one fixed dataset.

The arrays are built the way the workloads build theirs: a synth corpus of
900 articles annotated for the economic barrier gives 900 rows of 300 binary
concept columns plus the 13-column economic profile block. The seed is fixed,
so kernel numbers do not move with the workload seed.
"""

import statistics
import time

from newsbarriers.classifiers import DecisionTreeCART, KNearestNeighbors, LinearSVM, RandomForest
from newsbarriers.pipeline import annotate_corpus

from workloads import Workload, make_corpus, pipeline_config

KERNEL_SEED = 0
KERNEL_DATA = Workload(
    name="kernel-data",
    why="",
    n_countries=6,
    n_publishers=15,
    concept_pool=300,
    barriers=("economic",),
    models=(),
    n_articles=900,
)


def kernel_arrays(work_dir):
    paths = make_corpus(KERNEL_DATA, KERNEL_SEED, work_dir / "corpus")
    datasets, _, _ = annotate_corpus(pipeline_config(KERNEL_DATA, paths, work_dir / "run", KERNEL_SEED))
    (dataset,) = datasets.values()
    return dataset.arrays()


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_kernels(work_dir) -> dict:
    X, y = kernel_arrays(work_dir)
    tree = DecisionTreeCART()
    knn = KNearestNeighbors(k=5).fit(X[100:], y[100:])
    forest = RandomForest(n_estimators=100, seed=KERNEL_SEED)
    metrics = {
        "kernel.tree_fit_s": _median_time(lambda: tree.fit(X, y), 2),
        "kernel.forest100_fit_s": _median_time(lambda: forest.fit(X, y), 1),
        "kernel.tree_predict_s": _median_time(lambda: tree.predict(X), 5),
        "kernel.knn_predict_s": _median_time(lambda: knn.predict(X[:100]), 5),
        "kernel.svm_fit_s": _median_time(lambda: LinearSVM(epochs=50, seed=KERNEL_SEED).fit(X, y), 3),
    }
    if len(forest.trees_) != 100:
        raise RuntimeError(f"forest fitted {len(forest.trees_)} trees, expected 100")
    return metrics, X.shape
