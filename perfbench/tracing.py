"""Spans around the public functions of each newsbarriers module, from outside.

``traced(recorder)`` swaps every traced function for a wrapper in each loaded
``newsbarriers`` module that holds it (``from .x import f`` copies the name, so
``pipeline.build_barrier_dataset`` and ``annotate.build_barrier_dataset`` are
both replaced) and restores the originals on exit. No code under ``src``
changes. Spans stay in memory until the run ends.
"""

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

LAYERS = ("knowledge", "ingest", "features", "annotate", "classifiers", "evaluate", "pipeline")

# Families grouped as the per-layer metrics name them.
FAMILY_GROUP = {
    "uniform": "dummy",
    "stratified": "dummy",
    "most_frequent": "dummy",
    "svm": "svm",
    "knn": "knn",
    "decision_tree": "decision_tree",
    "random_forest": "random_forest",
    "naive_bayes": "naive_bayes",
}
GROUPS = ("svm", "knn", "decision_tree", "random_forest", "naive_bayes", "dummy")


@dataclass
class Span:
    name: str
    layer: str
    parent: int  # index of the enclosing span, -1 for a root
    start: float = 0.0
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory spans, plus exact counts of the work a span returned."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._open = []

    def wrap(self, fn, layer, name, after=None):
        """Return fn wrapped in a span; ``name`` is a string or a function of
        the call's arguments; ``after(counts, args, result)`` runs once the
        span has closed, so counting is not timed as the layer's work."""
        spans, counts, open_stack = self.spans, self.counts, self._open

        def traced_call(*args, **kwargs):
            span = Span(name if isinstance(name, str) else name(args, kwargs), layer, open_stack[-1] if open_stack else -1)
            open_stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_stack.pop()
            if after is not None:
                after(counts, args, result)
            return result

        traced_call.__wrapped__ = fn
        return traced_call


def self_times(spans) -> list:
    """Each span's duration minus the part of it its direct children cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def _train_name(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return "classifiers.fit." + FAMILY_GROUP[spec.family.value]


def _predict_name(args, kwargs):
    return "classifiers.predict." + FAMILY_GROUP[args[0].family.value]


def _count_tree_nodes(counts, args, model):
    estimator = model.estimator
    trees = getattr(estimator, "trees_", None) or [estimator]
    for tree in trees:
        structure = getattr(tree, "tree_", None)
        if structure is not None:
            counts["classifiers.tree_nodes"] += len(structure.feature) - structure.n_leaves


def _count_examples(counts, args, result):
    counts["ingest.examples"] += len(result[0])


def _count_dataset(counts, args, dataset):
    counts["annotate.instances"] += len(dataset.instances)
    counts["annotate.dropped"] += dataset.total_dropped


# (module, attribute, layer, span name, counter); a dotted attribute is a method.
TARGETS = (
    ("knowledge", "load_country_profiles", "knowledge", "knowledge.load", None),
    ("knowledge", "load_publishers", "knowledge", "knowledge.load", None),
    ("ingest", "parse_pairs", "ingest", "ingest.parse", None),
    ("ingest", "load_concept_annotations", "ingest", "ingest.parse", None),
    ("ingest", "filter_propagated", "ingest", "ingest.examples", None),
    ("ingest", "to_spreading_examples", "ingest", "ingest.examples", _count_examples),
    ("features", "build_vocabulary", "features", "features.vocab", None),
    ("features", "build_vocabulary_from_index", "features", "features.vocab", None),
    ("features", "assemble_instance", "features", "features.assemble", None),
    ("annotate", "build_barrier_dataset", "annotate", "annotate.build", _count_dataset),
    ("annotate", "save_barrier_dataset", "annotate", "annotate.save", None),
    ("classifiers", "train", "classifiers", _train_name, _count_tree_nodes),
    ("classifiers", "TrainedModel.predict_batch", "classifiers", _predict_name, None),
    # sweep_full lives in classifiers but is the evaluation protocol's grid loop
    ("classifiers", "sweep_full", "evaluate", "evaluate.sweep", None),
    ("evaluate", "run_experiment", "evaluate", "evaluate.cv", None),
    ("evaluate", "stratified_kfold", "evaluate", "evaluate.kfold", None),
    ("evaluate", "render_report", "evaluate", "evaluate.report", None),
    ("pipeline", "run_pipeline", "pipeline", "pipeline.run", None),
)


@contextmanager
def traced(recorder: Recorder):
    """Install the wrappers for the duration of the block."""
    package = {
        name: module
        for name, module in sys.modules.items()
        if name == "newsbarriers" or name.startswith("newsbarriers.")
    }
    undo = []
    try:
        for module_name, attr, layer, name, after in TARGETS:
            owner = package["newsbarriers." + module_name]
            if "." in attr:
                class_name, method = attr.split(".")
                cls = getattr(owner, class_name)
                original = cls.__dict__[method]
                undo.append((cls, method, original))
                setattr(cls, method, recorder.wrap(original, layer, name, after))
                continue
            original = getattr(owner, attr)
            wrapper = recorder.wrap(original, layer, name, after)
            for module in package.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, wrapper)
        yield recorder
    finally:
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)


def layer_metrics(recorder: Recorder) -> dict:
    """Per-layer numbers from one traced pipeline call.

    Each layer's ``self_s`` is the sum of its spans' self times, so the seven
    ``<layer>.self_s`` add up to the root span, ``pipeline.run_s``.
    """
    spans = recorder.spans
    own = self_times(spans)
    total = defaultdict(float)
    own_by_name = defaultdict(float)
    by_layer = defaultdict(float)
    calls = Counter(span.name for span in spans)
    for span, self_s in zip(spans, own):
        total[span.name] += span.duration
        own_by_name[span.name] += self_s
        by_layer[span.layer] += self_s
    metrics = {
        "pipeline.run_s": total["pipeline.run"],
        "knowledge.load_s": total["knowledge.load"],
        "ingest.parse_s": total["ingest.parse"],
        "ingest.examples_s": total["ingest.examples"],
        "features.vocab_s": total["features.vocab"],
        "features.assemble_s": total["features.assemble"],
        "features.assemble_n": calls["features.assemble"],
        "annotate.build_self_s": own_by_name["annotate.build"],
        "annotate.save_s": total["annotate.save"],
        "evaluate.cv_s": total["evaluate.cv"],
        "evaluate.kfold_s": total["evaluate.kfold"],
        "evaluate.sweep_s": total["evaluate.sweep"],
        "evaluate.report_s": total["evaluate.report"],
        "evaluate.sweep_n": calls["evaluate.sweep"],
        "classifiers.fit_s": sum(total["classifiers.fit." + g] for g in GROUPS),
        "classifiers.predict_s": sum(total["classifiers.predict." + g] for g in GROUPS),
    }
    for layer in LAYERS:
        metrics[layer + ".self_s"] = by_layer[layer]
    for group in GROUPS:
        for kind in ("fit", "predict"):
            key = f"classifiers.{kind}.{group}"
            metrics[key + ".s"] = total[key]
            metrics[key + ".n"] = calls[key]
    for key in ("ingest.examples", "annotate.instances", "annotate.dropped", "classifiers.tree_nodes"):
        metrics[key] = recorder.counts[key]
    return metrics


def spans_jsonable(recorder: Recorder) -> list:
    return [
        {"id": i, "parent": s.parent, "name": s.name, "layer": s.layer, "start": s.start, "end": s.end}
        for i, s in enumerate(recorder.spans)
    ]
