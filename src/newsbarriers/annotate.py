"""Barrier labeling rules and per-barrier dataset assembly.

Label semantics: TRUE means the barrier is present, i.e. the two publishers'
metadata for that barrier differs. A pair is labeled from the two profile
blocks that ``knowledge.barrier_profile`` gives its publishers: economic and
cultural blocks by cosine similarity against a threshold, geographical,
time-zone and political blocks by whether any value differs. A barrier is
named by its key in ``knowledge.BARRIERS``, such as ``"political"``.
"""

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DataError, MalformedRow
from .features import assemble_instance
from .ingest import SpreadingExample
from .knowledge import BARRIERS, barrier_profile, profile_feature_names
from .tables import atomic_writer, csv_field, csv_text, format_float, parse_float, read_table

SIMILARITY_THRESHOLD = 0.9

# Country-level coordinates are either identical or clearly apart; epsilon only
# absorbs float round-trip noise.
COORDINATE_EPSILON = 1e-6


def cosine_similarity(u, v) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise DataError(f"vector lengths differ: {u.shape[0]} vs {v.shape[0]}")
    norm_u = float(np.sqrt(np.dot(u, u)))
    norm_v = float(np.sqrt(np.dot(v, v)))
    if norm_u == 0.0 or norm_v == 0.0:
        raise DataError("cosine similarity undefined for a zero vector")
    return float(np.dot(u, v)) / (norm_u * norm_v)


def annotate_vector_barrier(profile_a, profile_b, threshold: float = SIMILARITY_THRESHOLD) -> bool:
    """FALSE when the profiles are close (similarity strictly above the
    threshold), TRUE otherwise; the boundary value itself labels TRUE."""
    return not cosine_similarity(profile_a, profile_b) > threshold


def barrier_present(barrier: str, profile_a, profile_b, threshold: float = SIMILARITY_THRESHOLD) -> bool:
    """Label of a pair from the two publishers' ``barrier_profile`` blocks.

    Economic and cultural blocks use the cosine rule; for the others a barrier
    is present when some value differs by more than COORDINATE_EPSILON (the
    same country gives the same coordinates, UTC offsets are whole minutes and
    one-hot alignment blocks differ exactly when the alignments do).
    """
    if BARRIERS[barrier].cosine:
        return annotate_vector_barrier(profile_a, profile_b, threshold)
    return bool((np.abs(profile_a - profile_b) > COORDINATE_EPSILON).any())


@dataclass
class BarrierDataset:
    """One barrier's instances in input order, with the tally of what was dropped.

    Every instance holds a row of one uint8 concept block and its publisher's
    float profile block, by reference. ``blocks()`` stacks them narrow;
    ``arrays()`` is the float64 ``X`` and ``y``.
    """

    barrier: str
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

    def blocks(self):
        """``(concepts, profiles, y)``: the uint8 n x V concept rows, the float64 n x P profile
        rows and the bool labels. A 0/1 uint8 cell widens to float64 exactly, so a fold can
        ``np.hstack`` its rows of the two blocks without ever building the whole ``X``."""
        if not self.instances:
            raise DataError(f"no instances in {self.barrier} dataset")
        concepts = np.stack([i.concepts for i in self.instances])
        profiles = np.stack([i.profile for i in self.instances])
        return concepts, profiles, np.array([i.label for i in self.instances], dtype=bool)

    def arrays(self):
        concepts, profiles, y = self.blocks()
        return np.hstack([concepts, profiles]), y  # float64


def build_barrier_dataset(
    examples: Sequence[SpreadingExample],
    barrier: str,
    profiles: dict,
    alignments: Sequence[str],
    concepts: np.ndarray,
    threshold: float = SIMILARITY_THRESHOLD,
    profile_side: str = "source",
    economic_features: Sequence[str] = (),
) -> BarrierDataset:
    """Label every example for one barrier and assemble its instances.

    ``profiles`` is ``load_country_profiles``' dict, ``alignments`` the
    political block's vocabulary (``knowledge.alignment_vocabulary``) and
    ``concepts`` the examples' ``features.concept_block``: one uint8 row per
    example, in example order, one column ``c<j>`` per vocabulary entry.
    ``economic_features`` narrows the economic block to those indicators.
    Examples that cannot be labeled are dropped and tallied in ``dropped`` by
    reason: a publisher without a block is ``unknown_alignment`` for the
    political barrier and ``incomplete_metadata`` for the others, and else a
    cosine block of zero norm is ``zero_vector``. Instance order follows input
    order. A run builds the concept block once and passes it to every barrier,
    and each publisher's profile block is built once per call; instances hold
    references to rows of both.
    """
    columns = BARRIERS[barrier].columns
    if barrier == "economic" and economic_features:
        for name in economic_features:
            if name not in columns:
                raise DataError(f"missing column: {name}")
        columns = tuple(economic_features)
    dataset = BarrierDataset(
        barrier=barrier,
        instances=[],
        feature_names=tuple(f"c{j}" for j in range(concepts.shape[1])) + profile_feature_names(columns, alignments),
    )
    missing = "unknown_alignment" if barrier == "political" else "incomplete_metadata"
    publishers = {p.publisher_uri: p for example in examples for p in (example.source, example.target)}
    blocks = {uri: barrier_profile(p, profiles, columns, alignments) for uri, p in publishers.items()}
    cosine = BARRIERS[barrier].cosine
    zero_norm = {uri for uri, block in blocks.items() if cosine and block is not None and not np.dot(block, block)}
    for example, row in zip(examples, concepts, strict=True):
        source, target = example.source.publisher_uri, example.target.publisher_uri
        a, b = blocks[source], blocks[target]
        if a is None or b is None:
            dataset.dropped[missing] += 1
            continue
        if source in zero_norm or target in zero_norm:
            dataset.dropped["zero_vector"] += 1
            continue
        label = barrier_present(barrier, a, b, threshold)
        profile = a if profile_side == "source" else b
        dataset.instances.append(assemble_instance(example, row, profile, label))
    return dataset


def save_barrier_dataset(dataset: BarrierDataset, path) -> None:
    """Materialize one barrier dataset as CSV: article_id, label, features.

    The bytes are those ``write_table`` writes with ``format_float`` on every cell.
    The 0/1 concept block is rendered in one numpy pass, and each distinct profile
    block (one per publisher) is formatted once.
    """
    instances = dataset.instances
    concepts = np.stack([i.concepts for i in instances]) if instances else np.zeros((0, 0), dtype=np.uint8)
    cells = np.full((len(instances), 2 * concepts.shape[1]), ord(","), dtype=np.uint8)
    cells[:, 1::2] = concepts + ord("0")  # ",0,1,..." per row
    text, width = cells.tobytes().decode("ascii"), cells.shape[1]
    distinct = {id(i.profile): i.profile for i in instances}
    profile_text = {key: "".join("," + format_float(v) for v in block) for key, block in distinct.items()}
    with atomic_writer(path) as fh:
        fh.write(csv_text(("article_id", "label") + dataset.feature_names, ()))
        fh.writelines(
            f"{csv_field(i.article_id)},{'TRUE' if i.label else 'FALSE'}{text[r * width:(r + 1) * width]}"
            f"{profile_text[id(i.profile)]}\r\n"
            for r, i in enumerate(instances)
        )


def load_barrier_dataset(path):
    """Features ``X`` and labels ``y`` of a dataset CSV as ``save_barrier_dataset`` writes it.

    A missing file is a ConfigError; a header that does not start with
    article_id,label, a label other than TRUE/FALSE, a feature cell that is not
    a finite number or no rows at all is a DataError.
    """
    X, y = [], []
    with read_table(path) as (header, rows):
        if header[:2] != ("article_id", "label"):
            raise MalformedRow(1, "header must start with article_id,label")
        feature_names = header[2:]
        for rownum, cells in rows:
            if cells[1] not in ("TRUE", "FALSE"):
                raise MalformedRow(rownum, f"label {cells[1]!r} is not TRUE or FALSE")
            X.append([parse_float(v, rownum, name) for name, v in zip(feature_names, cells[2:])])
            y.append(cells[1] == "TRUE")
    if not y:
        raise DataError("no instances in the dataset")
    return np.array(X, dtype=float), np.array(y, dtype=bool)
