import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsbarriers.errors import DataError, MalformedLine, MalformedRow
from newsbarriers.ingest import (
    NOT_PROPAGATED,
    PROPAGATED,
    UNSURE,
    ArticlePair,
    count_class_weight_inconsistencies,
    filter_propagated,
    load_concept_annotations,
    parse_pairs,
    serialize_pairs,
    to_spreading_examples,
)

from conftest import PAIR_HEADER, PAIR_ROWS


def write_pairs(tmp_path, rows):
    path = tmp_path / "pairs.csv"
    path.write_text("\n".join([PAIR_HEADER] + rows) + "\n", encoding="utf-8")
    return path


def test_parse_demo_rows(pairs_file):
    pairs = parse_pairs(pairs_file)
    assert len(pairs) == 5
    sky = pairs[1]
    assert sky.from_id == "English881"
    assert sky.weight == 1.0
    assert sky.propagation_class == PROPAGATED
    assert sky.from_publisher_uri == "news.sky.com"
    assert pairs[0].propagation_class == UNSURE
    assert pairs[0].weight == 0.627


def test_parse_header_only(tmp_path):
    assert parse_pairs(write_pairs(tmp_path, [])) == []


def test_parse_spaces_after_commas(tmp_path):
    row = "English881, English880, 1, Information-Propagated, Sky News, 247 Wall St., news.sky.com, 247wallst.com"
    pairs = parse_pairs(write_pairs(tmp_path, [row]))
    assert pairs[0].to_id == "English880"
    assert pairs[0].to_publisher == "247 Wall St."


def test_unknown_class_label(tmp_path):
    row = PAIR_ROWS[0].replace("Unsure", "Maybe")
    with pytest.raises(DataError, match=r"^unknown propagation class in row 2: 'Maybe'$"):
        parse_pairs(write_pairs(tmp_path, [row]))


def test_weight_out_of_range(tmp_path):
    row = PAIR_ROWS[0].replace("0.627", "1.5")
    with pytest.raises(MalformedRow):
        parse_pairs(write_pairs(tmp_path, [row]))


def test_weight_not_a_number(tmp_path):
    row = PAIR_ROWS[0].replace("0.627", "high")
    with pytest.raises(MalformedRow) as excinfo:
        parse_pairs(write_pairs(tmp_path, [row]))
    assert excinfo.value.row == 2


def test_wrong_field_count(tmp_path):
    with pytest.raises(MalformedRow):
        parse_pairs(write_pairs(tmp_path, ["a,b,0.5,Unsure,p,q,u"]))


def test_header_mismatch(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(MalformedRow) as excinfo:
        parse_pairs(path)
    assert excinfo.value.row == 1


def test_filter_propagated_demo(pairs_file):
    propagated = filter_propagated(parse_pairs(pairs_file))
    assert [p.from_id for p in propagated] == ["English881", "German237"]
    assert propagated[1].weight == 0.979  # high-weight propagated row retained


def test_filter_only_unsure(tmp_path):
    pairs = parse_pairs(write_pairs(tmp_path, [PAIR_ROWS[0]]))
    assert filter_propagated(pairs) == []


pair_strategy = st.builds(
    ArticlePair,
    from_id=st.text(alphabet="abc123", min_size=1, max_size=6),
    to_id=st.text(alphabet="abc123", min_size=1, max_size=6),
    weight=st.floats(min_value=0, max_value=1, allow_nan=False),
    propagation_class=st.sampled_from([PROPAGATED, UNSURE, NOT_PROPAGATED]),
    from_publisher=st.just("P"),
    to_publisher=st.just("Q"),
    from_publisher_uri=st.just("p.example"),
    to_publisher_uri=st.just("q.example"),
)


@given(st.lists(pair_strategy, max_size=30))
def test_filter_idempotent_and_order_preserving(pairs):
    once = filter_propagated(pairs)
    assert filter_propagated(once) == once
    assert once == [p for p in pairs if p.propagation_class == PROPAGATED]


def test_serialize_round_trip_values(pairs_file, tmp_path):
    pairs = parse_pairs(pairs_file)
    out = tmp_path / "again.csv"
    serialize_pairs(pairs, out)
    assert parse_pairs(out) == pairs


def test_serialize_reproduces_rows_modulo_whitespace(pairs_file, tmp_path):
    pairs = parse_pairs(pairs_file)
    out = tmp_path / "again.csv"
    serialize_pairs(pairs, out)
    original = [line.replace(", ", ",") for line in pairs_file.read_text().splitlines()]
    assert out.read_text().splitlines() == original


def test_class_cell_is_read_in_any_case_and_written_canonical(tmp_path):
    rows = [row.replace(",Information-Propagated,", ",information-PROPAGATED,").replace(",Unsure,", ",UNSURE,")
            for row in PAIR_ROWS[:2]]
    pairs = parse_pairs(write_pairs(tmp_path, rows))
    assert [p.propagation_class for p in pairs] == ["Unsure", "Information-Propagated"]
    assert filter_propagated(pairs) == [pairs[1]]
    out = tmp_path / "again.csv"
    serialize_pairs(pairs, out)
    assert out.read_text(encoding="utf-8").splitlines()[1:] == PAIR_ROWS[:2]


@settings(max_examples=50, deadline=None)
@given(st.lists(pair_strategy, max_size=10))
def test_serialize_parse_identity(tmp_path_factory, pairs):
    path = tmp_path_factory.mktemp("pairs") / "p.csv"
    serialize_pairs(pairs, path)
    assert parse_pairs(path) == pairs


def test_concept_index_lookup(concepts_file):
    index = load_concept_annotations(concepts_file)
    assert index.get("English881") == {"Earthquake", "Richter_scale"}


def test_concept_index_merges_by_union(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(
        '{"article": "a", "concepts": ["X", "Y"]}\n{"article": "a", "concepts": ["Y", "Z"]}\n',
        encoding="utf-8",
    )
    assert load_concept_annotations(path).get("a") == {"X", "Y", "Z"}


def test_concept_index_missing_article(concepts_file):
    assert load_concept_annotations(concepts_file).get("nope") is None


def test_malformed_concept_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"article": "a"}\n', encoding="utf-8")
    with pytest.raises(MalformedLine):
        load_concept_annotations(path)
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(MalformedLine):
        load_concept_annotations(path)


def test_to_spreading_examples_basic(pairs_file, concepts_file, publishers):
    propagated = filter_propagated(parse_pairs(pairs_file))
    index = load_concept_annotations(concepts_file)
    examples, report = to_spreading_examples(propagated, index, publishers)
    assert [e.article_id for e in examples] == ["English881", "German237"]
    assert examples[0].source is publishers["news.sky.com"]
    assert examples[0].target is publishers["247wallst.com"]
    assert examples[0].concepts == {"Earthquake", "Richter_scale"}
    assert report.examples == 2 and report.total_drops == 0
    assert report.unique_source_articles == 2


def test_pair_uris_resolve_case_and_space_insensitively(tmp_path, concepts_file, publishers):
    # publishers.csv keys are normalized on load; a pair's uris are normalized on lookup
    row = PAIR_ROWS[1].replace("news.sky.com", " News.Sky.Com ").replace("247wallst.com", "247WALLST.COM")
    propagated = filter_propagated(parse_pairs(write_pairs(tmp_path, [row])))
    examples, report = to_spreading_examples(propagated, load_concept_annotations(concepts_file), publishers)
    assert report.total_drops == 0
    assert [(e.source, e.target) for e in examples] == [(publishers["news.sky.com"], publishers["247wallst.com"])]


def test_missing_publisher_dropped(tmp_path, concepts_file, publishers):
    row = PAIR_ROWS[1].replace("news.sky.com", "unknown.example")
    propagated = filter_propagated(parse_pairs(write_pairs(tmp_path, [row])))
    index = load_concept_annotations(concepts_file)
    examples, report = to_spreading_examples(propagated, index, publishers)
    assert examples == []
    assert report.drops["missing_publisher"] == 1


def test_missing_concepts_dropped(tmp_path, concepts_file, publishers):
    row = PAIR_ROWS[1].replace("English881", "EnglishXXX")
    propagated = filter_propagated(parse_pairs(write_pairs(tmp_path, [row])))
    index = load_concept_annotations(concepts_file)
    examples, report = to_spreading_examples(propagated, index, publishers)
    assert examples == []
    assert report.drops["missing_concepts"] == 1


def test_zero_pairs(concepts_file, publishers):
    index = load_concept_annotations(concepts_file)
    examples, report = to_spreading_examples([], index, publishers)
    assert examples == [] and report.examples == 0 and report.total_drops == 0


def test_duplicate_from_ids_stay_distinct(tmp_path, concepts_file, publishers):
    propagated = filter_propagated(parse_pairs(write_pairs(tmp_path, [PAIR_ROWS[1], PAIR_ROWS[1]])))
    index = load_concept_annotations(concepts_file)
    examples, report = to_spreading_examples(propagated, index, publishers)
    assert len(examples) == 2
    assert report.unique_source_articles == 1


def test_examples_plus_drops_accounting(tmp_path, concepts_file, publishers):
    rows = [
        PAIR_ROWS[1],
        PAIR_ROWS[4],
        PAIR_ROWS[1].replace("news.sky.com", "unknown.example"),
        PAIR_ROWS[1].replace("English881", "EnglishXXX"),
    ]
    propagated = filter_propagated(parse_pairs(write_pairs(tmp_path, rows)))
    index = load_concept_annotations(concepts_file)
    examples, report = to_spreading_examples(propagated, index, publishers)
    assert len(examples) + report.total_drops == len(propagated)


def test_class_weight_inconsistency_count(tmp_path):
    rows = [
        PAIR_ROWS[1],  # consistent propagated
        "a1,a2,0.65,Information-Propagated,P,Q,p.example,q.example",  # weight below 0.7
        "b1,b2,0.45,Information-Not-Propagated,P,Q,p.example,q.example",  # weight above 0.4
        PAIR_ROWS[0],  # Unsure, never inconsistent
    ]
    pairs = parse_pairs(write_pairs(tmp_path, rows))
    assert count_class_weight_inconsistencies(pairs) == 2


def test_report_render_lists_reasons(tmp_path, concepts_file, publishers):
    row = PAIR_ROWS[1].replace("news.sky.com", "unknown.example")
    propagated = filter_propagated(parse_pairs(write_pairs(tmp_path, [row])))
    index = load_concept_annotations(concepts_file)
    _, report = to_spreading_examples(propagated, index, publishers)
    report.total_pairs = 1
    text = report.render()
    assert "dropped (missing_publisher): 1" in text
    assert "pairs parsed" in text
