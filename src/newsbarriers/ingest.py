"""Pair-file parsing and restructuring into spreading examples.

A pair file carries scored article pairs between publishers. A pair's
propagation class is the plain string ``PROPAGATED``, ``UNSURE`` or
``NOT_PROPAGATED``. Only ``PROPAGATED`` pairs become examples; each is reduced
to its source article (the ``from`` side) joined with its concept annotations.
"""

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .errors import DataError, MalformedLine, MalformedRow
from .knowledge import PublisherRecord, normalize_uri
from .tables import format_float, read_json_lines, read_table, write_table

PAIR_COLUMNS = (
    "from",
    "to",
    "weight",
    "Class",
    "from-publisher",
    "to-publisher",
    "from-pub-uri",
    "to-pub-uri",
)

# Weight thresholds behind the propagation classes: >= 0.7 propagated,
# < 0.4 not propagated, Unsure between. Violations are reported, not fatal.
PROPAGATED_MIN_WEIGHT = 0.7
NOT_PROPAGATED_MAX_WEIGHT = 0.4


# The classes as a pair file spells them: a class cell is read in any case and written so.
PROPAGATED = "Information-Propagated"
UNSURE = "Unsure"
NOT_PROPAGATED = "Information-Not-Propagated"

_CLASS_BY_KEY = {c.lower(): c for c in (PROPAGATED, UNSURE, NOT_PROPAGATED)}


@dataclass(frozen=True)
class ArticlePair:
    from_id: str
    to_id: str
    weight: float
    propagation_class: str  # PROPAGATED, UNSURE or NOT_PROPAGATED
    from_publisher: str
    to_publisher: str
    from_publisher_uri: str
    to_publisher_uri: str

    def class_weight_consistent(self) -> bool:
        if self.propagation_class == PROPAGATED:
            return self.weight >= PROPAGATED_MIN_WEIGHT
        if self.propagation_class == NOT_PROPAGATED:
            return self.weight < NOT_PROPAGATED_MAX_WEIGHT
        return True


@dataclass(frozen=True)
class SpreadingExample:
    article_id: str
    source: PublisherRecord
    target: PublisherRecord
    concepts: frozenset


@dataclass
class IngestReport:
    """Accounting for one ingest run, rendered as a plain-text summary."""

    total_pairs: int = 0
    propagated: int = 0
    examples: int = 0
    drops: Counter = field(default_factory=Counter)
    class_weight_inconsistencies: int = 0
    unique_source_articles: int = 0

    @property
    def total_drops(self) -> int:
        return sum(self.drops.values())

    def render(self) -> str:
        lines = [
            f"pairs parsed:                 {self.total_pairs}",
            f"propagated pairs:             {self.propagated}",
            f"spreading examples:           {self.examples}",
            f"unique source articles:       {self.unique_source_articles}",
            f"class/weight inconsistencies: {self.class_weight_inconsistencies}",
            f"dropped examples:             {self.total_drops}",
        ]
        for reason in sorted(self.drops):
            lines.append(f"  dropped ({reason}): {self.drops[reason]}")
        return "\n".join(lines) + "\n"


def parse_pairs(path) -> list:
    """Parse a pair CSV into ArticlePair rows, preserving file order."""
    pairs = []
    with read_table(path) as (header, rows):
        if header != PAIR_COLUMNS:
            raise MalformedRow(1, f"header mismatch, expected {','.join(PAIR_COLUMNS)}")
        for rownum, cells in rows:
            try:
                weight = float(cells[2])
            except ValueError:
                raise MalformedRow(rownum, f"weight {cells[2]!r} is not a number") from None
            if not math.isfinite(weight) or not 0.0 <= weight <= 1.0:
                raise MalformedRow(rownum, f"weight {cells[2]!r} outside [0, 1]")
            klass = _CLASS_BY_KEY.get(cells[3].lower())
            if klass is None:
                raise DataError(f"unknown propagation class in row {rownum}: {cells[3]!r}")
            pairs.append(ArticlePair(cells[0], cells[1], weight, klass, *cells[4:]))
    return pairs


def serialize_pairs(pairs: Sequence[ArticlePair], path) -> None:
    rows = (
        (p.from_id, p.to_id, format_float(p.weight), p.propagation_class,
         p.from_publisher, p.to_publisher, p.from_publisher_uri, p.to_publisher_uri)
        for p in pairs
    )
    write_table(path, PAIR_COLUMNS, rows)


def filter_propagated(pairs: Sequence[ArticlePair]) -> list:
    """Keep exactly the pairs labeled as propagating, in original order."""
    return [p for p in pairs if p.propagation_class == PROPAGATED]


def count_class_weight_inconsistencies(pairs: Sequence[ArticlePair]) -> int:
    return sum(1 for p in pairs if not p.class_weight_consistent())


def load_concept_annotations(path) -> dict:
    """Load a line-delimited JSON file of {"article": id, "concepts": [...]} as
    article_id -> concept frozenset, merged by union over repeated lines."""
    mapping: dict = {}
    for lineno, record in read_json_lines(path):
        if not isinstance(record, dict) or "article" not in record or "concepts" not in record:
            raise MalformedLine(lineno, "expected fields 'article' and 'concepts'")
        article = record["article"]
        concepts = record["concepts"]
        if not isinstance(article, str) or not isinstance(concepts, list):
            raise MalformedLine(lineno, "'article' must be a string and 'concepts' a list")
        if not all(isinstance(c, str) for c in concepts):
            raise MalformedLine(lineno, "'concepts' must contain only strings")
        mapping.setdefault(article, set()).update(concepts)
    return {article: frozenset(concepts) for article, concepts in mapping.items()}


def to_spreading_examples(pairs, concepts: dict, publishers: dict):
    """Reduce propagated pairs to source-article spreading examples.

    Each pair's publisher uris are looked up, normalized, in ``publishers``
    (``load_publishers``' dict), and the example carries both records. Pairs
    whose source or target publisher is absent, or whose source article has no
    concept annotation, are dropped and tallied by reason. Duplicate source
    articles stay distinct examples.
    """
    examples = []
    report = IngestReport(propagated=len(pairs))
    for pair in pairs:
        source = publishers.get(normalize_uri(pair.from_publisher_uri))
        target = publishers.get(normalize_uri(pair.to_publisher_uri))
        if source is None or target is None:
            report.drops["missing_publisher"] += 1
            continue
        concept_set = concepts.get(pair.from_id)
        if not concept_set:
            report.drops["missing_concepts"] += 1
            continue
        examples.append(SpreadingExample(pair.from_id, source, target, concept_set))
    report.examples = len(examples)
    report.unique_source_articles = len({e.article_id for e in examples})
    return examples, report
