import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsbarriers.errors import DataError
from newsbarriers.features import (
    assemble_instance,
    build_vocabulary,
    build_vocabulary_from_index,
    concept_block,
)
from newsbarriers.ingest import SpreadingExample
from newsbarriers.knowledge import BARRIERS, BarrierKind, PublisherRecord, alignment_vocabulary, barrier_profile

SKY = PublisherRecord("news.sky.com", "Sky News", "GB", "right-wing")
STERN = PublisherRecord("stern.de", "Stern", "DE")


def example(article_id, concepts, source=SKY, target=STERN):
    return SpreadingExample(article_id, source, target, frozenset(concepts))


def test_build_vocabulary_counts_and_ties():
    # brute-force document frequency over {a: XY, b: X, c: XZ}: X=3, Y=1, Z=1
    corpus = [example("a", {"X", "Y"}), example("b", {"X"}), example("c", {"X", "Z"})]
    vocab = build_vocabulary(corpus, k=2)
    assert vocab == (("X", 3), ("Y", 1))


def test_build_vocabulary_saturates():
    corpus = [example("a", {"X", "Y"}), example("b", {"Z"})]
    assert len(build_vocabulary(corpus, k=10)) == 3


def test_build_vocabulary_top_300():
    corpus = [example(f"a{i}", {f"C{j:03d}" for j in range(i % 7, i % 7 + 5)}) for i in range(400)]
    corpus += [example(f"b{i}", {f"D{i:03d}"}) for i in range(350)]
    assert len({c for e in corpus for c in e.concepts}) > 300
    vocab = build_vocabulary(corpus, k=300)
    assert len(vocab) == 300


def test_duplicate_article_counts_once():
    corpus = [example("a", {"X"}), example("a", {"X"}), example("b", {"Y"})]
    vocab = build_vocabulary(corpus, k=5)
    assert dict(vocab)["X"] == 1


def test_empty_corpus():
    with pytest.raises(DataError, match=r"^no concepts found in the corpus$"):
        build_vocabulary([], k=5)


@settings(max_examples=50, deadline=None)
@given(st.permutations(list(range(6))), st.randoms(use_true_random=False))
def test_vocabulary_permutation_invariant(order, rnd):
    base = [
        example("a", {"X", "Y"}),
        example("b", {"X"}),
        example("c", {"Z", "W"}),
        example("d", {"X", "Z"}),
        example("e", {"Q"}),
        example("f", {"Y", "Q"}),
    ]
    shuffled = [base[i] for i in order]
    assert build_vocabulary(shuffled, k=4) == build_vocabulary(base, k=4)


def presence(example, vocab) -> list:
    """The per-entry presence test the concept block replaced, kept as a reference."""
    return [1 if concept in example.concepts else 0 for concept, _ in vocab]


def test_concept_block_hits_and_misses():
    vocab = (("X", 3), ("Y", 2), ("Z", 1))
    block = concept_block([example("a", {"X", "Y", "Z"}), example("b", {"Q"}), example("c", {"Z", "X"})], vocab)
    assert block.dtype == np.uint8
    assert block.tolist() == [[1, 1, 1], [0, 0, 0], [1, 0, 1]]
    assert concept_block([], vocab).shape == (0, 3)


@given(st.sets(st.sampled_from(["A", "B", "C", "D", "E"])), st.sets(st.text("abc", max_size=3)))
def test_concept_block_ignores_out_of_vocabulary(hits, noise):
    vocab = (("A", 5), ("B", 4), ("C", 3))
    block = concept_block([example("a", hits | {f"oov_{n}" for n in noise}), example("a", hits)], vocab)
    assert np.array_equal(block[0], block[1])


@given(st.lists(st.sets(st.text("ABCDEF", max_size=2)), max_size=12),
       st.lists(st.text("ABCDEF", max_size=2), min_size=1, max_size=8, unique=True))
def test_concept_block_rows_equal_the_presence_test(concept_sets, ranked):
    # vocabulary entries are a subset of the concepts the examples draw from, so rows
    # mix hits with out-of-vocabulary concepts
    vocab = tuple((c, 1) for c in ranked)
    examples = [example(f"a{i}", concepts) for i, concepts in enumerate(concept_sets)]
    block = concept_block(examples, vocab)
    assert block.shape == (len(examples), len(vocab))
    assert block.tolist() == [presence(e, vocab) for e in examples]


def block(publishers, profiles, uri, kind):
    return barrier_profile(publishers[uri], profiles, BARRIERS[kind].columns, alignment_vocabulary(publishers))


def test_assemble_timezone_instance(profiles, publishers):
    vocab = (("X", 3), ("Y", 2), ("Z", 1))
    profile = block(publishers, profiles, "news.sky.com", BarrierKind.TIME_ZONE)
    ex = example("a", {"X", "Z"})
    concepts = concept_block([ex], vocab)[0]
    inst = assemble_instance(ex, concepts, profile, True)
    assert inst.concepts.tolist() == [1, 0, 1] and inst.profile.tolist() == [0.0]
    # both blocks are referenced, not copied
    assert inst.concepts is concepts and inst.profile is profile
    assert inst.label is True
    assert inst.article_id == "a"


def test_assemble_economic_length(profiles, publishers):
    vocab = (("X", 3), ("Y", 2), ("Z", 1))
    profile = block(publishers, profiles, "news.sky.com", BarrierKind.ECONOMIC)
    ex = example("a", {"X"})
    inst = assemble_instance(ex, concept_block([ex], vocab)[0], profile, False)
    assert len(inst.concepts) + len(inst.profile) == 3 + 13
    assert inst.profile.tolist() == profile.tolist()


def test_assemble_political_unknown_alignment(profiles, publishers):
    # a publisher without an alignment has no political profile block to assemble
    assert block(publishers, profiles, "stern.de", BarrierKind.POLITICAL) is None


def test_assemble_deterministic(profiles, publishers):
    vocab = (("X", 3), ("Y", 2))
    ex = example("a", {"X"})
    profile = block(publishers, profiles, "news.sky.com", BarrierKind.CULTURAL)
    a = assemble_instance(ex, concept_block([ex], vocab)[0], profile, True)
    b = assemble_instance(ex, concept_block([ex], vocab)[0], profile, True)
    assert np.array_equal(a.concepts, b.concepts) and np.array_equal(a.profile, b.profile)


def test_build_vocabulary_from_index():
    index = {"a": frozenset({"X", "Y"}), "b": frozenset({"X"}), "c": frozenset({"X", "Z"}), "d": frozenset({"Z"})}
    vocab = build_vocabulary_from_index(index, k=2)
    assert vocab == (("X", 3), ("Z", 2))
