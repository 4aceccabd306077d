"""Barrier labeling rules and per-barrier dataset assembly.

Label semantics: TRUE means the barrier is present, i.e. the two publishers'
metadata for that barrier differs. Economic and cultural barriers compare
country vectors by cosine similarity against a threshold; geographical,
time-zone, and political barriers compare fields for equality.
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
    UnknownAlignment,
    ZeroVector,
)
from .features import ConceptVocabulary, LabeledInstance, assemble_instance
from .ingest import SpreadingExample
from .knowledge import (
    BarrierKind,
    CountryProfile,
    ProfileStore,
    PublisherRecord,
    PublisherStore,
    economic_values,
    parse_float,
    profile_feature_names,
)

SIMILARITY_THRESHOLD = 0.9

# Country-level coordinates are either identical or clearly apart; epsilon only
# absorbs float round-trip noise.
COORDINATE_EPSILON = 1e-6

EQUALITY_KINDS = (BarrierKind.GEOGRAPHICAL, BarrierKind.TIME_ZONE, BarrierKind.POLITICAL)


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


def annotate_equality_barrier(
    kind: BarrierKind,
    source: PublisherRecord,
    target: PublisherRecord,
    source_country: Optional[CountryProfile],
    target_country: Optional[CountryProfile],
) -> bool:
    """FALSE when the compared field is the same on both sides, TRUE otherwise."""
    if kind not in EQUALITY_KINDS:
        raise ValueError(f"{kind} is not an equality-labeled barrier")

    if kind is BarrierKind.POLITICAL:
        if source.political_alignment is None or target.political_alignment is None:
            raise UnknownAlignment("political alignment unknown for at least one publisher")
        return source.political_alignment != target.political_alignment

    if source_country is None or target_country is None:
        raise IncompleteMetadata("country profile missing for at least one publisher")

    if kind is BarrierKind.TIME_ZONE:
        return source_country.utc_offset != target_country.utc_offset

    if source_country.country_code == target_country.country_code:
        return False
    same_point = (
        abs(source_country.latitude - target_country.latitude) <= COORDINATE_EPSILON
        and abs(source_country.longitude - target_country.longitude) <= COORDINATE_EPSILON
    )
    return not same_point


@dataclass
class BarrierDataset:
    barrier: BarrierKind
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


def _label_example(
    kind: BarrierKind,
    source: PublisherRecord,
    target: PublisherRecord,
    profiles: ProfileStore,
    threshold: float,
    economic_features,
) -> bool:
    if kind in EQUALITY_KINDS:
        return annotate_equality_barrier(
            kind, source, target, profiles.get(source.country_code), profiles.get(target.country_code)
        )
    source_country = profiles.get(source.country_code)
    target_country = profiles.get(target.country_code)
    if source_country is None or target_country is None:
        raise IncompleteMetadata("country profile missing for at least one publisher")
    if kind is BarrierKind.ECONOMIC:
        a = economic_values(source_country, economic_features)
        b = economic_values(target_country, economic_features)
    else:
        a = np.array(source_country.cultural)
        b = np.array(target_country.cultural)
    return annotate_vector_barrier(a, b, threshold)


def build_barrier_dataset(
    examples: Sequence[SpreadingExample],
    kind: BarrierKind,
    profiles: ProfileStore,
    publishers: PublisherStore,
    vocab: ConceptVocabulary,
    threshold: float = SIMILARITY_THRESHOLD,
    profile_side: str = "source",
    economic_features: Optional[Sequence[str]] = None,
) -> BarrierDataset:
    """Label every example for one barrier and assemble feature vectors.

    Examples that cannot be labeled (missing country metadata, unknown
    political alignment) are dropped and tallied by reason; instance order
    follows input order.
    """
    dataset = BarrierDataset(
        barrier=kind,
        instances=[],
        feature_names=tuple(f"c{i}" for i in range(len(vocab)))
        + profile_feature_names(kind, publishers.alignment_vocabulary, economic_features),
    )
    for example in examples:
        source = publishers.get(example.source_publisher_uri)
        target = publishers.get(example.target_publisher_uri)
        if source is None or target is None:
            dataset.dropped["missing_publisher"] += 1
            continue
        try:
            label = _label_example(kind, source, target, profiles, threshold, economic_features)
            instance = assemble_instance(
                example, kind, vocab, profiles, publishers, label, profile_side, economic_features
            )
        except UnknownAlignment:
            dataset.dropped["unknown_alignment"] += 1
            continue
        except IncompleteMetadata:
            dataset.dropped["incomplete_metadata"] += 1
            continue
        except ZeroVector:
            dataset.dropped["zero_vector"] += 1
            continue
        dataset.instances.append(instance)
    return dataset


def _format_value(value: float) -> str:
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e16:
        return str(int(as_float))
    return repr(as_float)


def save_barrier_dataset(dataset: BarrierDataset, path) -> None:
    """Materialize one barrier dataset as CSV: article_id, label, features."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("article_id", "label") + dataset.feature_names)
        for instance in dataset.instances:
            writer.writerow(
                [instance.article_id, "TRUE" if instance.label else "FALSE"]
                + [_format_value(v) for v in instance.features]
            )


def load_barrier_dataset(path, kind: BarrierKind) -> BarrierDataset:
    """Read a dataset CSV as ``save_barrier_dataset`` writes it.

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
                    barrier=kind,
                )
            )
    return BarrierDataset(barrier=kind, instances=instances, feature_names=feature_names)
