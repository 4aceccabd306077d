import csv
import io
import math
import warnings
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from newsbarriers.annotate import (
    BarrierDataset,
    annotate_vector_barrier,
    barrier_present,
    build_barrier_dataset,
    cosine_similarity,
    load_barrier_dataset,
    save_barrier_dataset,
)
from newsbarriers.errors import DataError
from newsbarriers.features import LabeledInstance, build_vocabulary, concept_block
from newsbarriers.ingest import (
    SpreadingExample,
    filter_propagated,
    load_concept_annotations,
    parse_pairs,
    to_spreading_examples,
)
from newsbarriers.knowledge import (
    BARRIERS,
    CULTURAL_FEATURES,
    ECONOMIC_FEATURES,
    PublisherRecord,
    alignment_vocabulary,
    barrier_profile,
    load_country_profiles,
    load_publishers,
    minmax_scaled,
)
from newsbarriers.synth import SyntheticSpec, generate_corpus
from newsbarriers.tables import format_float

from conftest import COUNTRY_HEADER, COUNTRY_ROWS

unit_vectors = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=2, max_size=8
).filter(lambda v: any(abs(x) > 1e-6 for x in v))


def exact_threshold_vector():
    """A 2-d vector whose cosine with [1, 0] computes to exactly 0.9."""
    y = math.sqrt(1.0 - 0.9 * 0.9)
    for step in range(-80, 81):
        cand = y
        for _ in range(abs(step)):
            cand = math.nextafter(cand, math.inf if step > 0 else -math.inf)
        if cosine_similarity([1.0, 0.0], [0.9, cand]) == 0.9:
            return [0.9, cand]
    raise AssertionError("no float neighbour gives an exact 0.9 cosine")


def test_cosine_hand_checked():
    # dot = 24, norms 5 and 5 -> 24/25
    assert cosine_similarity([3.0, 4.0], [4.0, 3.0]) == 0.96


def test_cosine_orthogonal():
    assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0


@given(unit_vectors)
def test_cosine_self_similarity(v):
    assert cosine_similarity(v, v) == pytest.approx(1.0)


@given(
    st.integers(min_value=2, max_value=8).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=n, max_size=n),
            st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=n, max_size=n),
        )
    ).filter(lambda uv: any(abs(x) > 1e-6 for x in uv[0]) and any(abs(x) > 1e-6 for x in uv[1]))
)
def test_cosine_symmetric(uv):
    u, v = uv
    assert cosine_similarity(u, v) == cosine_similarity(v, u)


@given(unit_vectors, st.sampled_from([0.25, 0.5, 2.0, 4.0, 8.0]))
def test_cosine_power_of_two_scale_invariance(v, scale):
    w = [x + 1.0 for x in v]
    assume(any(abs(x) > 1e-9 for x in w))
    assert cosine_similarity(v, w) == cosine_similarity([scale * x for x in v], w)


@given(unit_vectors, st.floats(min_value=0.1, max_value=10, allow_nan=False))
def test_cosine_general_scale_invariance(v, scale):
    w = [x + 1.0 for x in v]
    assume(any(abs(x) > 1e-9 for x in w))
    assert cosine_similarity([scale * x for x in v], w) == pytest.approx(cosine_similarity(v, w), abs=1e-12)


def test_cosine_zero_vector():
    with pytest.raises(DataError, match=r"^cosine similarity undefined for a zero vector$"):
        cosine_similarity([0.0, 0.0], [1.0, 2.0])


def test_cosine_length_mismatch():
    with pytest.raises(DataError, match=r"^vector lengths differ: 1 vs 2$"):
        cosine_similarity([1.0], [1.0, 2.0])


def test_vector_barrier_identical_profiles():
    assert annotate_vector_barrier([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) is False


def test_vector_barrier_orthogonal_profiles():
    assert annotate_vector_barrier([1.0, 0.0], [0.0, 1.0]) is True


def test_vector_barrier_exactly_at_threshold():
    v = exact_threshold_vector()
    assert cosine_similarity([1.0, 0.0], v) == 0.9
    assert annotate_vector_barrier([1.0, 0.0], v) is True


def test_vector_barrier_just_above_threshold():
    c = 0.9 + 1e-9
    v = [c, math.sqrt(1.0 - c * c)]
    similarity = cosine_similarity([1.0, 0.0], v)
    assert 0.9 < similarity < 0.9 + 2e-9
    assert annotate_vector_barrier([1.0, 0.0], v) is False


@given(unit_vectors, st.floats(min_value=-0.99, max_value=0.99))
def test_vector_barrier_symmetric(v, threshold):
    w = [x + 0.5 for x in v]
    assume(any(abs(x) > 1e-9 for x in w))
    assert annotate_vector_barrier(v, w, threshold) == annotate_vector_barrier(w, v, threshold)


def make_country(code, lat=0.0, lon=0.0, utc=0, economic=range(1, 14), cultural=range(1, 7)):
    values = {"latitude": lat, "longitude": lon, "utc_offset": float(utc)}
    values.update(zip(ECONOMIC_FEATURES, map(float, economic)))
    values.update(zip(CULTURAL_FEATURES, map(float, cultural)))
    return code, values


def make_publisher(uri, country, alignment=None):
    return PublisherRecord(publisher_uri=uri, publisher_name=uri, country_code=country,
                           political_alignment=alignment)


def present(kind, a, b, countries, threshold=0.9):
    """Label of publishers ``a`` and ``b`` from their profile blocks over a store of ``countries``;
    None where either has no block."""
    store = dict(countries)
    vocab = tuple(sorted({p.political_alignment for p in (a, b) if p.political_alignment}))
    block_a, block_b = (barrier_profile(p, store, BARRIERS[kind].columns, vocab) for p in (a, b))
    if block_a is None or block_b is None:
        return None
    return barrier_present(kind, block_a, block_b, threshold)


def test_geographical_same_country_is_false():
    de = make_country("DE", 51.0, 9.0, 60)
    a = make_publisher("a.de", "DE")
    b = make_publisher("b.de", "DE")
    assert present("geographical", a, b, [de]) is False


def test_geographical_same_coordinates_different_code_is_false():
    a = make_publisher("a.x", "AA")
    b = make_publisher("b.y", "BB")
    ca = make_country("AA", 10.0, 20.0)
    cb = make_country("BB", 10.0, 20.0)
    assert present("geographical", a, b, [ca, cb]) is False


def test_geographical_different_is_true():
    a = make_publisher("a.x", "AA")
    b = make_publisher("b.y", "BB")
    countries = [make_country("AA", 10.0, 20.0), make_country("BB", -5.0, 20.0)]
    assert present("geographical", a, b, countries) is True


def test_timezone_equality():
    a = make_publisher("a.x", "AA")
    b = make_publisher("b.y", "BB")
    assert present("timezone", a, b, [make_country("AA", utc=60), make_country("BB", utc=60)]) is False
    assert present("timezone", a, b, [make_country("AA", utc=0), make_country("BB", utc=330)]) is True


def test_political_different_alignments_is_true():
    a = make_publisher("derstandard.at", "AT", "social-liberalism")
    b = make_publisher("dailymail.co.uk", "GB", "right-wing")
    assert present("political", a, b, []) is True


def test_political_equal_alignments_is_false():
    a = make_publisher("a.x", "AA", "right-wing")
    b = make_publisher("b.y", "BB", "right-wing")
    assert present("political", a, b, []) is False


def test_political_unknown_alignment_is_incomplete():
    a = make_publisher("stern.de", "DE", None)
    b = make_publisher("dailymail.co.uk", "GB", "right-wing")
    assert present("political", a, b, []) is None
    assert present("political", b, a, []) is None


def test_missing_country_is_incomplete():
    a = make_publisher("a.x", "AA")
    b = make_publisher("b.y", "BB")
    for kind in ("economic", "cultural", "geographical", "timezone"):
        assert present(kind, a, b, [make_country("AA")]) is None
        assert present(kind, b, a, [make_country("AA")]) is None


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(list(BARRIERS)),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([0.5, 0.9, 0.99]),
)
def test_barrier_present_symmetric(kind, i, j, threshold):
    countries = [
        make_country("AA", 1.0, 2.0, 0),
        make_country("BB", 1.0, 2.0, 60),
        make_country("CC", 3.0, 4.0, 60),
        make_country("DD", 3.0, 4.0, 0, economic=range(13, 0, -1), cultural=(6, 1, 1, 1, 1, 2)),
    ]
    alignments = ["left-wing", "right-wing", "left-wing", "centrism"]
    a = make_publisher("a.x", countries[i][0], alignments[i])
    b = make_publisher("b.y", countries[j][0], alignments[j])
    assert present(kind, a, b, countries, threshold) == present(kind, b, a, countries, threshold)
    if i == j:
        assert present(kind, a, b, countries, threshold) is False


@pytest.fixture
def alignments(publishers):
    return alignment_vocabulary(publishers)


def example(publishers, article_id, source, target, concepts=("X",)):
    return SpreadingExample(article_id, publishers[source], publishers[target], frozenset(concepts))


@pytest.fixture
def demo_examples(publishers):
    return [
        example(publishers, "English881", "news.sky.com", "247wallst.com", {"Earthquake", "Richter_scale"}),
        example(publishers, "German237", "aargauerzeitung.ch", "aargauerzeitung.ch", {"FIFA_World_Cup"}),
        example(publishers, "Extra1", "derstandard.at", "dailymail.co.uk", {"Earthquake"}),
        example(publishers, "Extra2", "stern.de", "dailymail.co.uk", {"FIFA_World_Cup"}),
    ]


def test_build_dataset_accounting_and_order(demo_examples, profiles, alignments):
    concepts = concept_block(demo_examples, build_vocabulary(demo_examples, k=5))
    for kind in BARRIERS:
        dataset = build_barrier_dataset(demo_examples, kind, profiles, alignments, concepts)
        assert len(dataset.instances) + dataset.total_dropped == len(demo_examples)
        ids = [i.article_id for i in dataset.instances]
        assert ids == [e.article_id for e in demo_examples if e.article_id in ids]


def test_build_dataset_drop_reasons(demo_examples, profiles, alignments):
    concepts = concept_block(demo_examples, build_vocabulary(demo_examples, k=5))
    timezone = build_barrier_dataset(demo_examples, "timezone", profiles, alignments, concepts)
    # English881 targets a publisher with an unmapped country
    assert timezone.dropped["incomplete_metadata"] == 1
    assert [i.article_id for i in timezone.instances] == ["German237", "Extra1", "Extra2"]

    political = build_barrier_dataset(demo_examples, "political", profiles, alignments, concepts)
    # watson and stern have no alignment; 247wallst.com has none either
    assert political.dropped["unknown_alignment"] == 3
    assert [i.article_id for i in political.instances] == ["Extra1"]
    assert political.instances[0].label is True  # social-liberalism vs right-wing


# The cells of GB's economic block are not all zero, so its row loads; but their squared norm,
# as cosine_similarity takes it, underflows to 0: a zero block, whose pairs are dropped.
def test_a_block_whose_square_underflows_is_a_zero_vector(tmp_path, demo_examples, alignments):
    rows = [r.split(",") for r in COUNTRY_ROWS]
    rows[1][10:] = ["1e-200"] * 13
    countries = tmp_path / "tiny.csv"
    countries.write_text("\n".join([COUNTRY_HEADER, *map(",".join, rows)]) + "\n", encoding="utf-8")
    profiles = load_country_profiles(countries)
    concepts = concept_block(demo_examples, build_vocabulary(demo_examples, k=5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        economic = build_barrier_dataset(demo_examples, "economic", profiles, alignments, concepts)
        cultural = build_barrier_dataset(demo_examples, "cultural", profiles, alignments, concepts)
    # Extra1 and Extra2 target the Daily Mail, in GB; English881 targets a country with no profile
    assert economic.dropped == Counter(incomplete_metadata=1, zero_vector=2)
    assert [i.article_id for i in economic.instances] == ["German237"]
    assert [i.article_id for i in cultural.instances] == ["German237", "Extra1", "Extra2"]


def test_same_publisher_pair_labels_false_everywhere(demo_examples, profiles, publishers, alignments):
    same = [example(publishers, "German237", "aargauerzeitung.ch", "aargauerzeitung.ch")]
    concepts = concept_block(same, build_vocabulary(demo_examples, k=5))
    for kind in ("economic", "cultural", "geographical", "timezone"):
        dataset = build_barrier_dataset(same, kind, profiles, alignments, concepts)
        assert [i.label for i in dataset.instances] == [False]


def test_instances_share_one_feature_length(demo_examples, profiles, alignments):
    concepts = concept_block(demo_examples, build_vocabulary(demo_examples, k=5))
    for kind in BARRIERS:
        dataset = build_barrier_dataset(demo_examples, kind, profiles, alignments, concepts)
        lengths = {len(i.concepts) + len(i.profile) for i in dataset.instances}
        assert len(lengths) == 1
        assert lengths == {len(dataset.feature_names)}


def test_class_counts(demo_examples, profiles, alignments):
    concepts = concept_block(demo_examples, build_vocabulary(demo_examples, k=5))
    dataset = build_barrier_dataset(demo_examples, "timezone", profiles, alignments, concepts)
    n_true, n_false = dataset.class_counts
    assert n_true + n_false == len(dataset.instances)
    labels = [i.label for i in dataset.instances]
    assert n_true == sum(labels)


def test_feature_names_per_barrier(demo_examples, profiles, alignments):
    concepts = concept_block(demo_examples, build_vocabulary(demo_examples, k=3))
    economic = build_barrier_dataset(demo_examples, "economic", profiles, alignments, concepts)
    assert economic.feature_names[:3] == ("c0", "c1", "c2")
    assert economic.feature_names[3] == "Rank"
    assert len(economic.feature_names) == 3 + 13
    political = build_barrier_dataset(demo_examples, "political", profiles, alignments, concepts)
    assert political.feature_names[3:] == (
        "Political-Alignment=right-wing",
        "Political-Alignment=social-liberalism",
    )
    # countries.csv columns keep their dataset header names
    geographical = build_barrier_dataset(demo_examples, "geographical", profiles, alignments, concepts)
    assert geographical.feature_names[3:] == ("Latitude", "Longitude")
    timezone = build_barrier_dataset(demo_examples, "timezone", profiles, alignments, concepts)
    assert timezone.feature_names[3:] == ("UTC-offset",)


def test_economic_features_narrow_the_block(demo_examples, profiles, alignments):
    concepts = concept_block(demo_examples, build_vocabulary(demo_examples, k=1))
    narrowed = build_barrier_dataset(demo_examples, "economic", profiles, alignments, concepts,
                                     economic_features=("Health", "Rank"))
    assert narrowed.feature_names == ("c0", "Health", "Rank")
    # an empty subset means every indicator, as in PipelineConfig
    full = build_barrier_dataset(demo_examples, "economic", profiles, alignments, concepts, economic_features=())
    assert full.feature_names == ("c0",) + ECONOMIC_FEATURES
    # the subset narrows only the economic block
    cultural = build_barrier_dataset(demo_examples, "cultural", profiles, alignments, concepts,
                                     economic_features=("Rank",))
    assert cultural.feature_names == ("c0",) + CULTURAL_FEATURES
    with pytest.raises(DataError, match=r"^missing column: NotAColumn$"):
        build_barrier_dataset(demo_examples, "economic", profiles, alignments, concepts,
                              economic_features=("NotAColumn",))


def test_dataset_csv_round_trip(tmp_path, demo_examples, profiles, alignments):
    concepts = concept_block(demo_examples, build_vocabulary(demo_examples, k=4))
    dataset = build_barrier_dataset(demo_examples, "cultural", profiles, alignments, concepts)
    path = tmp_path / "dataset.csv"
    save_barrier_dataset(dataset, path)
    X, y = load_barrier_dataset(path)
    want_X, want_y = dataset.arrays()
    assert np.array_equal(X, want_X) and np.array_equal(y, want_y)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == ",".join(("article_id", "label") + dataset.feature_names)


def test_threshold_parameter_changes_labels(profiles, publishers, alignments):
    # GB vs DE cultural similarity sits between the default and a higher threshold
    ex = [example(publishers, "a", "news.sky.com", "stern.de")]
    concepts = concept_block(ex, build_vocabulary(ex, k=1))
    strict = build_barrier_dataset(ex, "cultural", profiles, alignments, concepts, threshold=0.999)
    loose = build_barrier_dataset(ex, "cultural", profiles, alignments, concepts, threshold=0.5)
    assert strict.instances[0].label is True
    assert loose.instances[0].label is False


def test_build_dataset_profile_side_target(profiles, publishers, alignments):
    ex = [example(publishers, "a", "news.sky.com", "stern.de", {"X"})]
    concepts = concept_block(ex, build_vocabulary(ex, k=1))
    src = build_barrier_dataset(ex, "timezone", profiles, alignments, concepts, profile_side="source")
    tgt = build_barrier_dataset(ex, "timezone", profiles, alignments, concepts, profile_side="target")
    assert src.arrays()[0].tolist() == [[1.0, 0.0]]  # GB offset 0
    assert tgt.arrays()[0].tolist() == [[1.0, 60.0]]  # DE offset 60
    assert src.instances[0].label is tgt.instances[0].label is True


class Dropped(Exception):
    """The reason the ladder drops a pair."""


def ladder_label(kind, source, target, profiles, threshold, economic_features):
    """The per-kind labeling ladder that ``barrier_present`` replaced, kept as a reference."""
    if kind == "political":
        if source.political_alignment is None or target.political_alignment is None:
            raise Dropped("unknown_alignment")
        return source.political_alignment != target.political_alignment
    sv, tv = profiles.get(source.country_code), profiles.get(target.country_code)
    if sv is None or tv is None:
        raise Dropped("incomplete_metadata")
    if kind == "timezone":
        return sv["utc_offset"] != tv["utc_offset"]
    if kind == "geographical":
        if source.country_code == target.country_code:
            return False
        return not (abs(sv["latitude"] - tv["latitude"]) <= 1e-6 and abs(sv["longitude"] - tv["longitude"]) <= 1e-6)
    names = (economic_features or ECONOMIC_FEATURES) if kind == "economic" else CULTURAL_FEATURES
    u, v = [sv[n] for n in names], [tv[n] for n in names]
    if not any(u) or not any(v):
        raise Dropped("zero_vector")
    return annotate_vector_barrier(u, v, threshold)


def ladder_block(kind, publisher, profiles, alignments, economic_features):
    """The profile block of one publisher, read column by column from its country's values."""
    if kind == "political":
        return [float(a == publisher.political_alignment) for a in alignments]
    values = profiles[publisher.country_code]
    names = {
        "economic": economic_features or ECONOMIC_FEATURES,
        "cultural": CULTURAL_FEATURES,
        "geographical": ("latitude", "longitude"),
        "timezone": ("utc_offset",),
    }[kind]
    return [values[n] for n in names]


def presence(example, vocab) -> list:
    """The per-entry concept presence test the concept block replaced, kept as a reference."""
    return [1.0 if concept in example.concepts else 0.0 for concept, _ in vocab]


def ladder_dataset(examples, kind, profiles, alignments, threshold, side, economic_features):
    """(article_id, label) pairs, drop counts and profile blocks the way the ladder built a dataset."""
    labels, dropped, blocks = [], Counter(), []
    for ex in examples:
        source, target = ex.source, ex.target
        try:
            label = ladder_label(kind, source, target, profiles, threshold, economic_features)
        except Dropped as reason:
            dropped[str(reason)] += 1
            continue
        labels.append((ex.article_id, label))
        publisher = source if side == "source" else target
        blocks.append(ladder_block(kind, publisher, profiles, alignments, economic_features))
    return labels, dropped, blocks


@pytest.fixture(scope="module")
def synth_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    paths = generate_corpus(SyntheticSpec(n_countries=8, n_publishers=25, n_articles=150, seed=4,
                                          unknown_alignment_rate=0.15), out)
    # continuous indicator vectors with some zero entries, so cosines spread over the thresholds
    rng = np.random.default_rng(4)
    profiles = {
        code: {**values,
               **dict(zip(ECONOMIC_FEATURES, rng.uniform(0, 10, 13) * (rng.random(13) < 0.6))),
               **dict(zip(CULTURAL_FEATURES, rng.uniform(1, 10, 6)))}
        for code, values in load_country_profiles(paths["countries"]).items()
    }
    publishers = load_publishers(paths["publishers"])
    pairs = filter_propagated(parse_pairs(paths["pairs"]))
    examples, _ = to_spreading_examples(pairs, load_concept_annotations(paths["concepts"]), publishers)
    # one country taken out of the profiles covers the incomplete_metadata drop reason
    missing = examples[0].source.country_code
    return profiles, missing, publishers, examples


@pytest.mark.parametrize("scale", [False, True])
@pytest.mark.parametrize("threshold", [0.5, 0.9, 0.99])
def test_labels_and_drops_match_the_ladder(synth_corpus, scale, threshold):
    full, missing, publishers, examples = synth_corpus
    profiles = minmax_scaled(full) if scale else full
    profiles = {code: p for code, p in profiles.items() if code != missing}
    alignments = alignment_vocabulary(publishers)
    vocab = build_vocabulary(examples, k=10)
    concepts = concept_block(examples, vocab)
    seen = Counter()
    for kind, economic_features, side in product(BARRIERS, (None, ("Rank", "Health")), ("source", "target")):
        dataset = build_barrier_dataset(examples, kind, profiles, alignments, concepts, threshold, side,
                                        economic_features)
        labels, dropped, blocks = ladder_dataset(examples, kind, profiles, alignments, threshold, side,
                                                 economic_features)
        assert [(i.article_id, i.label) for i in dataset.instances] == labels
        assert dataset.dropped == dropped
        by_id = {ex.article_id: ex for ex in examples}
        rows = [presence(by_id[i.article_id], vocab) + block for i, block in zip(dataset.instances, blocks)]
        assert [i.concepts.tolist() + i.profile.tolist() for i in dataset.instances] == rows
        if rows:
            # the float64 matrix the per-instance concatenations stacked to, bit for bit
            X, _ = dataset.arrays()
            assert X.tobytes() == np.stack([np.array(row, dtype=float) for row in rows]).tobytes()
        seen.update(dropped)
        seen.update(str(label) for _, label in labels)
    reasons = {"unknown_alignment", "incomplete_metadata", "zero_vector"}
    assert set(seen) == reasons | {"True", "False"}


def per_cell_csv(dataset) -> bytes:
    """The dataset writer the block writer replaced, kept as a reference: ``csv.writer``
    with ``format_float`` on every cell of each concatenated feature row."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(("article_id", "label") + dataset.feature_names)
    for i in dataset.instances:
        features = np.concatenate([i.concepts, i.profile])
        writer.writerow([i.article_id, "TRUE" if i.label else "FALSE"] + [format_float(v) for v in features])
    return buf.getvalue().encode("utf-8")


# NUL is left out: csv.writer of Python 3.10 refuses it, and its csv reader never yields it
ARTICLE_IDS = st.text(st.characters(exclude_characters="\x00", exclude_categories=("Cs",)), max_size=6) | (
    st.sampled_from(["", "a,b", 'say "hi"', "x\ry", "x\ny", "\r\n", '"', ",", " lead", "a1"])
)
PROFILE_VALUES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 1e16, -1e16, 1e16 - 2, 1e-300, -5.0, 2.5, -0.1, 1 / 3, 123456.789]
)


@st.composite
def datasets(draw):
    """A dataset whose instances share a few profile blocks by reference, as built ones do;
    the profile block may be empty (a political block over no alignments)."""
    n_concepts = draw(st.integers(0, 6))
    width = draw(st.integers(0, 4))
    pool = [np.array(draw(st.lists(PROFILE_VALUES, min_size=width, max_size=width)), dtype=float)
            for _ in range(draw(st.integers(1, 3)))]
    n = draw(st.integers(0, 8))
    concepts = np.array(draw(st.lists(st.lists(st.integers(0, 1), min_size=n_concepts, max_size=n_concepts),
                                      min_size=n, max_size=n)), dtype=np.uint8).reshape(n, n_concepts)
    ids = draw(st.lists(ARTICLE_IDS, min_size=1, max_size=n)) if n else []
    instances = [
        LabeledInstance(concepts=concepts[r], profile=pool[draw(st.integers(0, len(pool) - 1))],
                        label=draw(st.booleans()), article_id=ids[r % len(ids)])  # ids repeat
        for r in range(n)
    ]
    names = tuple(f"c{j}" for j in range(n_concepts)) + tuple(f"p,{j}" for j in range(width))
    return BarrierDataset(barrier="political", instances=instances, feature_names=names)


@settings(max_examples=300, deadline=None)
@given(datasets())
def test_dataset_writer_bytes_equal_the_per_cell_writer(tmp_path_factory, dataset):
    path = tmp_path_factory.mktemp("writer") / "dataset.csv"
    save_barrier_dataset(dataset, path)
    assert path.read_bytes() == per_cell_csv(dataset)
