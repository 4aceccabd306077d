"""Barrier detection for news spreading.

From event-centric article pairs and publisher metadata, this package derives
per-barrier labeled datasets (economic, cultural, geographical, time-zone,
political), builds concept-plus-profile feature vectors, and evaluates a suite
of from-scratch classifiers against dummy baselines with micro-averaged
metrics.
"""

from .annotate import (
    BarrierDataset,
    annotate_vector_barrier,
    barrier_present,
    build_barrier_dataset,
    cosine_similarity,
)
from .classifiers import ModelFamily, ModelSpec, TrainedModel, train
from .evaluate import micro_metrics, render_report, run_experiment, stratified_kfold
from .features import ConceptVocabulary, LabeledInstance, assemble_instance, build_vocabulary
from .ingest import (
    ArticlePair,
    PropagationClass,
    SpreadingExample,
    filter_propagated,
    load_concept_annotations,
    parse_pairs,
    to_spreading_examples,
)
from .knowledge import (
    BarrierKind,
    CountryProfile,
    PublisherRecord,
    barrier_profile,
    load_country_profiles,
    load_publishers,
)
from .synth import SyntheticSpec, generate_corpus

__all__ = [
    "ArticlePair",
    "BarrierDataset",
    "BarrierKind",
    "ConceptVocabulary",
    "CountryProfile",
    "LabeledInstance",
    "ModelFamily",
    "ModelSpec",
    "PropagationClass",
    "PublisherRecord",
    "SpreadingExample",
    "SyntheticSpec",
    "TrainedModel",
    "annotate_vector_barrier",
    "assemble_instance",
    "barrier_present",
    "barrier_profile",
    "build_barrier_dataset",
    "build_vocabulary",
    "cosine_similarity",
    "filter_propagated",
    "generate_corpus",
    "load_concept_annotations",
    "load_country_profiles",
    "load_publishers",
    "micro_metrics",
    "parse_pairs",
    "render_report",
    "run_experiment",
    "stratified_kfold",
    "to_spreading_examples",
    "train",
]
