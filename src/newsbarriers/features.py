"""Concept vocabulary and feature-vector assembly.

Instances are the concatenation of a binary concept block (top-K concepts by
document frequency) and a per-barrier publisher profile block.
"""

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyCorpus
from .ingest import SpreadingExample
from .tables import write_table

DEFAULT_VOCABULARY_SIZE = 300


@dataclass(frozen=True)
class ConceptVocabulary:
    """Ranked (concept, document frequency) pairs; position is feature index."""

    entries: tuple  # of (concept, frequency)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def concepts(self) -> tuple:
        return tuple(c for c, _ in self.entries)

    def save(self, path) -> None:
        write_table(path, ("concept", "frequency"), self.entries)


@dataclass(frozen=True)
class LabeledInstance:
    features: np.ndarray  # concept block then profile block
    label: bool  # True = barrier present
    article_id: str


def _rank(document_frequency: Counter, k: int) -> ConceptVocabulary:
    if not document_frequency:
        raise EmptyCorpus("no concepts found in the corpus")
    ordered = sorted(document_frequency.items(), key=lambda item: (-item[1], item[0]))
    return ConceptVocabulary(entries=tuple(ordered[:k]))


def build_vocabulary(examples: Sequence[SpreadingExample], k: int = DEFAULT_VOCABULARY_SIZE) -> ConceptVocabulary:
    """Top-k concepts by document frequency over the examples' articles.

    Each distinct article counts at most once per concept. Ties in frequency
    break lexicographically by concept identifier, so the ranking is
    independent of example order.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    by_article = {e.article_id: e.concepts for e in examples}
    frequency: Counter = Counter()
    for concepts in by_article.values():
        frequency.update(concepts)
    return _rank(frequency, k)


def build_vocabulary_from_index(index: dict, k: int = DEFAULT_VOCABULARY_SIZE) -> ConceptVocabulary:
    """Top-k concepts over every article of an article_id -> concepts index.

    This is the corpus-global alternative to the per-event default: supply a
    concept file covering all events and the vocabulary spans them all.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    frequency: Counter = Counter()
    for concepts in index.values():
        frequency.update(concepts)
    return _rank(frequency, k)


def vectorize_concepts(example: SpreadingExample, vocab: ConceptVocabulary) -> np.ndarray:
    """Binary presence vector over the vocabulary, in rank order."""
    return np.array([1.0 if concept in example.concepts else 0.0 for concept in vocab.concepts])


def assemble_instance(
    example: SpreadingExample, vocab: ConceptVocabulary, profile: np.ndarray, label: bool
) -> LabeledInstance:
    """Concept block of the example's article followed by the given profile block, label attached."""
    features = np.concatenate([vectorize_concepts(example, vocab), profile])
    return LabeledInstance(features=features, label=label, article_id=example.article_id)
