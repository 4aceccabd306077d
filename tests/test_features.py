import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsbarriers.errors import EmptyCorpus, IncompleteMetadata, UnknownAlignment
from newsbarriers.features import (
    ConceptVocabulary,
    assemble_instance,
    build_vocabulary,
    build_vocabulary_from_index,
    vectorize_concepts,
)
from newsbarriers.ingest import SpreadingExample
from newsbarriers.knowledge import BARRIERS, BarrierKind, barrier_profile


def example(article_id, concepts, source="news.sky.com", target="stern.de"):
    return SpreadingExample(
        article_id=article_id,
        source_publisher_uri=source,
        target_publisher_uri=target,
        event_label="demo",
        concepts=frozenset(concepts),
    )


def test_build_vocabulary_counts_and_ties():
    # brute-force document frequency over {a: XY, b: X, c: XZ}: X=3, Y=1, Z=1
    corpus = [example("a", {"X", "Y"}), example("b", {"X"}), example("c", {"X", "Z"})]
    vocab = build_vocabulary(corpus, k=2)
    assert vocab.entries == (("X", 3), ("Y", 1))


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
    assert dict(vocab.entries)["X"] == 1


def test_empty_corpus():
    with pytest.raises(EmptyCorpus):
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


def test_vectorize_all_hits_and_misses():
    vocab = ConceptVocabulary(entries=(("X", 3), ("Y", 2), ("Z", 1)))
    assert vectorize_concepts(example("a", {"X", "Y", "Z"}), vocab).tolist() == [1, 1, 1]
    assert vectorize_concepts(example("a", {"Q"}), vocab).tolist() == [0, 0, 0]
    assert vectorize_concepts(example("a", {"Z", "X"}), vocab).tolist() == [1, 0, 1]


@given(st.sets(st.sampled_from(["A", "B", "C", "D", "E"])), st.sets(st.text("abc", max_size=3)))
def test_vectorize_ignores_out_of_vocabulary(hits, noise):
    vocab = ConceptVocabulary(entries=(("A", 5), ("B", 4), ("C", 3)))
    with_noise = vectorize_concepts(example("a", hits | {f"oov_{n}" for n in noise}), vocab)
    without = vectorize_concepts(example("a", hits), vocab)
    assert np.array_equal(with_noise, without)


def block(publishers, profiles, uri, kind):
    return barrier_profile(publishers.get(uri), profiles, BARRIERS[kind].columns, publishers.alignment_vocabulary)


def test_assemble_timezone_instance(profiles, publishers):
    vocab = ConceptVocabulary(entries=(("X", 3), ("Y", 2), ("Z", 1)))
    profile = block(publishers, profiles, "news.sky.com", BarrierKind.TIME_ZONE)
    inst = assemble_instance(example("a", {"X", "Z"}), vocab, profile, True)
    assert inst.features.tolist() == [1.0, 0.0, 1.0, 0.0]
    assert inst.label is True
    assert inst.article_id == "a"


def test_assemble_economic_length(profiles, publishers):
    vocab = ConceptVocabulary(entries=(("X", 3), ("Y", 2), ("Z", 1)))
    profile = block(publishers, profiles, "news.sky.com", BarrierKind.ECONOMIC)
    inst = assemble_instance(example("a", {"X"}), vocab, profile, False)
    assert len(inst.features) == 3 + 13
    assert inst.features[3:].tolist() == profile.tolist()


def test_assemble_political_unknown_alignment(profiles, publishers):
    vocab = ConceptVocabulary(entries=(("X", 3),))
    ex = example("a", {"X"}, source="stern.de")
    # the profile block of a publisher without an alignment cannot be built
    for error in (IncompleteMetadata, UnknownAlignment):
        with pytest.raises(error):
            profile = block(publishers, profiles, ex.source_publisher_uri, BarrierKind.POLITICAL)
            assemble_instance(ex, vocab, profile, True)


def test_assemble_deterministic(profiles, publishers):
    vocab = ConceptVocabulary(entries=(("X", 3), ("Y", 2)))
    ex = example("a", {"X"})
    profile = block(publishers, profiles, "news.sky.com", BarrierKind.CULTURAL)
    a = assemble_instance(ex, vocab, profile, True)
    b = assemble_instance(ex, vocab, profile, True)
    assert np.array_equal(a.features, b.features)


def test_build_vocabulary_from_index():
    index = {"a": frozenset({"X", "Y"}), "b": frozenset({"X"}), "c": frozenset({"X", "Z"}), "d": frozenset({"Z"})}
    vocab = build_vocabulary_from_index(index, k=2)
    assert vocab.entries == (("X", 3), ("Z", 2))
