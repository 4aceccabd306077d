"""Barrier labeling rules and per-barrier dataset assembly.

Label semantics: TRUE means the barrier is present, i.e. the two publishers'
metadata for that barrier differs. A pair is labeled from the two profile
blocks that ``knowledge.barrier_profile`` gives its publishers: economic and
cultural blocks by cosine similarity against a threshold, geographical,
time-zone and political blocks by whether any value differs.
"""

import csv
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    EmptyInput,
    IncompleteMetadata,
    LengthMismatch,
    MalformedRow,
    MissingColumn,
    UnknownAlignment,
    ZeroVector,
)
from .features import ConceptVocabulary, LabeledInstance, assemble_instance
from .ingest import SpreadingExample
from .knowledge import (
    BARRIERS,
    BarrierKind,
    ProfileStore,
    PublisherStore,
    barrier_profile,
    format_float,
    parse_float,
    profile_feature_names,
)

SIMILARITY_THRESHOLD = 0.9

# Country-level coordinates are either identical or clearly apart; epsilon only
# absorbs float round-trip noise.
COORDINATE_EPSILON = 1e-6


def cosine_similarity(u, v) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise LengthMismatch(f"vector lengths differ: {u.shape[0]} vs {v.shape[0]}")
    norm_u = float(np.sqrt(np.dot(u, u)))
    norm_v = float(np.sqrt(np.dot(v, v)))
    if norm_u == 0.0 or norm_v == 0.0:
        raise ZeroVector("cosine similarity undefined for a zero vector")
    return float(np.dot(u, v)) / (norm_u * norm_v)


def annotate_vector_barrier(profile_a, profile_b, threshold: float = SIMILARITY_THRESHOLD) -> bool:
    """FALSE when the profiles are close (similarity strictly above the
    threshold), TRUE otherwise; the boundary value itself labels TRUE."""
    return not cosine_similarity(profile_a, profile_b) > threshold


def barrier_present(kind: BarrierKind, profile_a, profile_b, threshold: float = SIMILARITY_THRESHOLD) -> bool:
    """Label of a pair from the two publishers' ``barrier_profile`` blocks.

    Economic and cultural blocks use the cosine rule; for the others a barrier
    is present when some value differs by more than COORDINATE_EPSILON (the
    same country gives the same coordinates, UTC offsets are whole minutes and
    one-hot alignment blocks differ exactly when the alignments do).
    """
    if BARRIERS[kind].cosine:
        return annotate_vector_barrier(profile_a, profile_b, threshold)
    return bool((np.abs(profile_a - profile_b) > COORDINATE_EPSILON).any())


@dataclass
class BarrierDataset:
    barrier: Optional[BarrierKind]  # None when read back from a CSV
    instances: list
    dropped: Counter = field(default_factory=Counter)
    feature_names: tuple = ()

    @property
    def class_counts(self):
        n_true = sum(1 for i in self.instances if i.label)
        return n_true, len(self.instances) - n_true

    @property
    def total_dropped(self) -> int:
        return sum(self.dropped.values())

    def arrays(self):
        if not self.instances:
            name = self.barrier.value if self.barrier else "the"
            raise EmptyInput(f"no instances in {name} dataset")
        X = np.stack([i.features for i in self.instances])
        y = np.array([i.label for i in self.instances], dtype=bool)
        return X, y


def build_barrier_dataset(
    examples: Sequence[SpreadingExample],
    kind: BarrierKind,
    profiles: ProfileStore,
    publishers: PublisherStore,
    vocab: ConceptVocabulary,
    threshold: float = SIMILARITY_THRESHOLD,
    profile_side: str = "source",
    economic_features: Sequence[str] = (),
) -> BarrierDataset:
    """Label every example for one barrier and assemble feature vectors.

    ``economic_features`` narrows the economic block to those indicators.
    Examples that cannot be labeled (missing country metadata, unknown
    political alignment) are dropped and tallied by reason; instance order
    follows input order.
    """
    columns = BARRIERS[kind].columns
    if kind is BarrierKind.ECONOMIC and economic_features:
        for name in economic_features:
            if name not in columns:
                raise MissingColumn(name)
        columns = tuple(economic_features)
    alignments = publishers.alignment_vocabulary
    dataset = BarrierDataset(
        barrier=kind,
        instances=[],
        feature_names=tuple(f"c{i}" for i in range(len(vocab))) + profile_feature_names(columns, alignments),
    )
    for example in examples:
        source = publishers.get(example.source_publisher_uri)
        target = publishers.get(example.target_publisher_uri)
        if source is None or target is None:
            dataset.dropped["missing_publisher"] += 1
            continue
        try:
            a = barrier_profile(source, profiles, columns, alignments)
            b = barrier_profile(target, profiles, columns, alignments)
            label = barrier_present(kind, a, b, threshold)
        except UnknownAlignment:
            dataset.dropped["unknown_alignment"] += 1
            continue
        except IncompleteMetadata:
            dataset.dropped["incomplete_metadata"] += 1
            continue
        except ZeroVector:
            dataset.dropped["zero_vector"] += 1
            continue
        profile = a if profile_side == "source" else b
        dataset.instances.append(assemble_instance(example, kind, vocab, profile, label))
    return dataset


def save_barrier_dataset(dataset: BarrierDataset, path) -> None:
    """Materialize one barrier dataset as CSV: article_id, label, features."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("article_id", "label") + dataset.feature_names)
        for instance in dataset.instances:
            writer.writerow(
                [instance.article_id, "TRUE" if instance.label else "FALSE"]
                + [format_float(v) for v in instance.features]
            )


def load_barrier_dataset(path) -> BarrierDataset:
    """Read a dataset CSV as ``save_barrier_dataset`` writes it; the file does not name its barrier.

    A missing file is a ConfigError; a bad header, a row of the wrong width, a
    label other than TRUE/FALSE or a feature cell that is not a finite number
    is a DataError naming the row.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError:
        raise ConfigError("not found") from None
    with fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:2] != ["article_id", "label"]:
            raise MalformedRow(1, "header must start with article_id,label")
        feature_names = tuple(header[2:])
        instances = []
        for rownum, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise MalformedRow(rownum, f"expected {len(header)} fields, got {len(row)}")
            if row[1] not in ("TRUE", "FALSE"):
                raise MalformedRow(rownum, f"label {row[1]!r} is not TRUE or FALSE")
            instances.append(
                LabeledInstance(
                    features=np.array([parse_float(v, rownum, name) for name, v in zip(feature_names, row[2:])]),
                    label=row[1] == "TRUE",
                    article_id=row[0],
                    barrier=None,
                )
            )
    return BarrierDataset(barrier=None, instances=instances, feature_names=feature_names)
