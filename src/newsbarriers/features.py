"""Concept vocabulary and feature-vector assembly.

An instance's features are a binary concept block (top-K concepts by document
frequency) followed by a per-barrier publisher profile block. A vocabulary is
the tuple of its ranked ``(concept, document frequency)`` pairs; position is
feature index.
"""

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError
from .ingest import SpreadingExample

DEFAULT_VOCABULARY_SIZE = 300


@dataclass(frozen=True)
class LabeledInstance:
    """One dataset row. Both blocks are held by reference, not copied."""

    concepts: np.ndarray  # uint8 0/1 row of the concept block
    profile: np.ndarray  # float profile block, shared by every instance of one publisher
    label: bool  # True = barrier present
    article_id: str


def _rank(concept_sets, k: int) -> tuple:
    """The k concepts held by the most sets, ties broken by concept identifier."""
    if k < 1:
        raise ValueError("k must be at least 1")
    frequency = Counter(c for concepts in concept_sets for c in concepts)
    if not frequency:
        raise DataError("no concepts found in the corpus")
    ordered = sorted(frequency.items(), key=lambda item: (-item[1], item[0]))
    return tuple(ordered[:k])


def build_vocabulary(examples: Sequence[SpreadingExample], k: int = DEFAULT_VOCABULARY_SIZE) -> tuple:
    """Top-k concepts by document frequency over the examples' articles.

    Each distinct article counts at most once per concept. Ties in frequency
    break lexicographically by concept identifier, so the ranking is
    independent of example order.
    """
    return _rank({e.article_id: e.concepts for e in examples}.values(), k)


def build_vocabulary_from_index(index: dict, k: int = DEFAULT_VOCABULARY_SIZE) -> tuple:
    """Top-k concepts over every article of an article_id -> concepts index.

    This is the corpus-global alternative to the per-event default: supply a
    concept file covering all events and the vocabulary spans them all.
    """
    return _rank(index.values(), k)


def concept_block(examples: Sequence[SpreadingExample], vocab: Sequence) -> np.ndarray:
    """Binary presence matrix: one uint8 row per example, one column per vocabulary
    entry in rank order. Concepts outside the vocabulary are ignored."""
    column = {concept: j for j, (concept, _) in enumerate(vocab)}
    block = np.zeros((len(examples), len(vocab)), dtype=np.uint8)
    block.flat[[i * len(vocab) + column[c] for i, e in enumerate(examples) for c in e.concepts if c in column]] = 1
    return block


def assemble_instance(
    example: SpreadingExample, concepts: np.ndarray, profile: np.ndarray, label: bool
) -> LabeledInstance:
    """The example's row of the concept block and the given profile block, label attached."""
    return LabeledInstance(concepts=concepts, profile=profile, label=label, article_id=example.article_id)
