"""Benchmark workloads: seeded synthetic corpora and the pipeline config for each.

Every corpus comes from ``newsbarriers.synth.generate_corpus``. Two workloads
then keep a fixed number of TRUE and FALSE pairs for their one barrier out of
a larger draw. Synth's label balance swings widely from seed to seed (for 50
pairs, anywhere from 4 to 45 economic TRUE), and CART/forest cost follows the
minority class, so without the fixed balance a seed would change how much
work a run does rather than which inputs it sees. The fixed balance also keeps
every class above the k = 10 folds stratification needs, so no seed makes a
call fail.
"""

import csv
import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from newsbarriers.config import ALL_BARRIERS, ALL_MODELS, PipelineConfig
from newsbarriers.synth import SyntheticSpec, generate_corpus, load_truth

CORPUS_FILES = ("pairs", "concepts", "countries", "publishers", "truth")
K_FOLDS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_countries: int
    n_publishers: int
    concept_pool: int
    barriers: tuple
    models: tuple
    n_articles: int  # articles synth draws
    balance: Optional[tuple] = None  # (TRUE, FALSE) pairs kept for barriers[0], or all pairs
    extra_unclassified: int = 0
    unknown_alignment_rate: float = 0.0
    nested: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="forest-sweep",
            why="all 8 families with default grids on the sweep-on-test-fold path; CART and forest fits dominate",
            n_countries=20,
            n_publishers=200,
            concept_pool=300,
            barriers=("political",),
            models=ALL_MODELS,
            n_articles=4000,
            balance=(15, 15),
        ),
        Workload(
            name="nested-svm-knn",
            why="inner-CV selection for SVM and kNN on a wider corpus; builds no trees",
            n_countries=20,
            n_publishers=200,
            concept_pool=300,
            barriers=("economic",),
            models=("most_frequent", "naive_bayes", "svm", "knn"),
            n_articles=2000,
            balance=(60, 60),
            nested=True,
        ),
        Workload(
            name="bulk-annotate",
            why="many articles, all five barriers, cheap models; ingest, annotation, dataset I/O and memory dominate",
            n_countries=20,
            n_publishers=200,
            concept_pool=2000,
            barriers=ALL_BARRIERS,
            models=("uniform", "stratified", "most_frequent", "naive_bayes"),
            n_articles=3000,
            extra_unclassified=300,
            unknown_alignment_rate=0.05,
        ),
    )
}


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _keep_balanced(paths: dict, barrier: str, n_true: int, n_false: int) -> None:
    """Rewrite pairs, concepts and truth to the first n_true TRUE and n_false
    FALSE pairs for one barrier, in synth's pair order; unclassified pairs stay."""
    want = {"TRUE": n_true, "FALSE": n_false, "DROPPED": 0}
    kept = set()
    for article_id, label in load_truth(paths["truth"])[barrier]:
        if want[label] > 0:
            want[label] -= 1
            kept.add(article_id)
    if any(want.values()):
        raise RuntimeError(f"synth draw too small for the balance {n_true}/{n_false}: short by {want}")
    pair_ids = set()
    lines = Path(paths["pairs"]).read_text(encoding="utf-8").splitlines(keepends=True)
    pair_lines = [lines[0]]
    for line in lines[1:]:
        from_id, to_id = line.split(",", 2)[:2]
        if from_id in kept or not from_id.startswith("a"):
            pair_lines.append(line)
            pair_ids.update((from_id, to_id))
    Path(paths["pairs"]).write_text("".join(pair_lines), encoding="utf-8")
    concept_lines = Path(paths["concepts"]).read_text(encoding="utf-8").splitlines(keepends=True)
    Path(paths["concepts"]).write_text(
        "".join(line for line in concept_lines if json.loads(line)["article"] in pair_ids), encoding="utf-8"
    )
    with open(paths["truth"], newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    with open(paths["truth"], "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([rows[0]] + [r for r in rows[1:] if r[1] in kept])


def make_corpus(workload: Workload, seed: int, out_dir) -> dict:
    """Write the workload's corpus for ``seed`` under out_dir; return file paths."""
    out = Path(out_dir)
    if out.exists():
        shutil.rmtree(out)
    spec = SyntheticSpec(
        n_countries=workload.n_countries,
        n_publishers=workload.n_publishers,
        n_articles=workload.n_articles,
        concept_pool_size=workload.concept_pool,
        seed=seed,
        unknown_alignment_rate=workload.unknown_alignment_rate,
        extra_unclassified_pairs=workload.extra_unclassified,
    )
    paths = generate_corpus(spec, out)
    if workload.balance is not None:
        _keep_balanced(paths, workload.barriers[0], *workload.balance)
    return paths


def corpus_digests(paths: dict) -> dict:
    return {name: sha256_file(paths[name]) for name in CORPUS_FILES}


def pipeline_config(workload: Workload, paths: dict, out_dir, seed: int) -> PipelineConfig:
    return PipelineConfig(
        pairs=str(paths["pairs"]),
        concepts=str(paths["concepts"]),
        countries=str(paths["countries"]),
        publishers=str(paths["publishers"]),
        out=str(out_dir),
        event="synthetic",
        barriers=workload.barriers,
        models=workload.models,
        k_folds=K_FOLDS,
        seed=seed,
        nested=workload.nested,
    )
