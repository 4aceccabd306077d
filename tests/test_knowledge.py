import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsbarriers.annotate import build_barrier_dataset
from newsbarriers.errors import DataError, MalformedRow
from newsbarriers.ingest import SpreadingExample
from newsbarriers.knowledge import (
    BARRIERS,
    CULTURAL_FEATURES,
    ECONOMIC_FEATURES,
    BarrierKind,
    PublisherRecord,
    alignment_vocabulary,
    barrier_profile,
    load_country_profiles,
    load_publishers,
    minmax_scaled,
    normalize_alignment,
    normalize_uri,
    save_country_profiles,
)

from conftest import COUNTRY_HEADER, COUNTRY_ROWS, PUBLISHER_HEADER


def write_countries(tmp_path, rows, header=COUNTRY_HEADER):
    path = tmp_path / "c.csv"
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


def write_publishers(tmp_path, rows, header=PUBLISHER_HEADER):
    path = tmp_path / "p.csv"
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


def test_load_profiles_size_and_lookup(tmp_path):
    store = load_country_profiles(write_countries(tmp_path, COUNTRY_ROWS[:3]))
    assert len(store) == 3
    assert store["GB"]["utc_offset"] == 0


def test_latitude_out_of_range(tmp_path):
    bad = COUNTRY_ROWS[0].replace("SI,46.05", "SI,91")
    with pytest.raises(DataError, match=r"^value 91\.0 in row 2, column 'latitude' outside \[-90\.0, 90\.0\]$"):
        load_country_profiles(write_countries(tmp_path, [bad]))


def test_range_violation_is_a_nonfinite_value(tmp_path):
    bad = COUNTRY_ROWS[0].replace("SI,46.05", "SI,91")
    with pytest.raises(DataError, match=r"^value 91\.0 in row 2, column 'latitude' outside \[-90\.0, 90\.0\]$"):
        load_country_profiles(write_countries(tmp_path, [bad]))


def test_missing_governance_column(tmp_path):
    header = COUNTRY_HEADER.replace("Governance,", "")
    rows = [",".join(r.split(",")[:-1]) for r in COUNTRY_ROWS[:1]]
    with pytest.raises(DataError, match=r"^missing column: Governance$"):
        load_country_profiles(write_countries(tmp_path, rows, header=header))


def test_duplicate_country(tmp_path):
    with pytest.raises(DataError, match=r"^duplicate country_code: SI$"):
        load_country_profiles(write_countries(tmp_path, [COUNTRY_ROWS[0], COUNTRY_ROWS[0]]))


def test_non_numeric_cell_names_row_and_column(tmp_path):
    bad = COUNTRY_ROWS[1].replace(",0,", ",abc,", 1)
    with pytest.raises(DataError, match=r"^non-finite value in row 3, column 'utc_offset': 'abc'$"):
        load_country_profiles(write_countries(tmp_path, [COUNTRY_ROWS[0], bad]))


def test_nan_cell_rejected(tmp_path):
    bad = COUNTRY_ROWS[0].replace("83.2", "nan")
    with pytest.raises(DataError, match=r"^non-finite value in row 2, column 'Safety-Security': 'nan'$"):
        load_country_profiles(write_countries(tmp_path, [bad]))


def test_short_row_rejected(tmp_path):
    bad = ",".join(COUNTRY_ROWS[0].split(",")[:10])
    with pytest.raises(MalformedRow, match="^malformed row 2: expected 23 fields, got 10$"):
        load_country_profiles(write_countries(tmp_path, [bad]))


def test_long_row_rejected(tmp_path):
    with pytest.raises(MalformedRow, match="^malformed row 3: expected 23 fields, got 24$"):
        load_country_profiles(write_countries(tmp_path, [COUNTRY_ROWS[0], COUNTRY_ROWS[1] + ",7"]))
    with pytest.raises(MalformedRow, match="^malformed row 2: expected 4 fields, got 5$"):
        load_publishers(write_publishers(tmp_path, ["news.sky.com,Sky News,GB,right-wing,extra"]))
    with pytest.raises(MalformedRow, match="^malformed row 2: expected 4 fields, got 3$"):
        load_publishers(write_publishers(tmp_path, ["news.sky.com,Sky News,GB"]))


def test_utc_offset_out_of_range(tmp_path):
    bad = COUNTRY_ROWS[1].replace("GB,54.0,-2.0,0", "GB,54.0,-2.0,900")
    with pytest.raises(DataError, match=r"^value 900\.0 in row 2, column 'utc_offset' outside \[-720, 840\]$"):
        load_country_profiles(write_countries(tmp_path, [bad]))


def test_half_hour_zone_supported(tmp_path):
    row = COUNTRY_ROWS[1].replace("GB,54.0,-2.0,0", "IN,21.0,78.0,330")
    store = load_country_profiles(write_countries(tmp_path, [row]))
    assert store["IN"]["utc_offset"] == 330


def test_utc_offset_truncated_to_whole_minutes(tmp_path):
    rows = [COUNTRY_ROWS[1].replace("GB,54.0,-2.0,0", "IN,21.0,78.0,330.7"),
            COUNTRY_ROWS[2].replace("DE,51.0,9.0,60", "XX,51.0,9.0,-30.5")]
    store = load_country_profiles(write_countries(tmp_path, rows))
    assert [store[c]["utc_offset"] for c in ("IN", "XX")] == [330.0, -30.0]
    out = tmp_path / "again.csv"
    save_country_profiles(store, out)
    assert [line.split(",")[3] for line in out.read_text().splitlines()[1:]] == ["330", "-30"]


def test_all_zero_cultural_vector_rejected(tmp_path):
    cells = COUNTRY_ROWS[0].split(",")
    cells[4:10] = ["0"] * 6
    with pytest.raises(DataError, match=r"^row 2: cultural vector for SI is all zero$"):
        load_country_profiles(write_countries(tmp_path, [",".join(cells)]))


# cosine_similarity squares the block with np.dot: a Rank of 1e200 overflowed it to inf, with
# numpy warnings on stderr, and labelled the country's pairs from a NaN cosine
@pytest.mark.parametrize("cells,kind", [(slice(10, 11), "economic"), (slice(4, 10), "cultural")],
                         ids=["economic-rank", "cultural-block"])
def test_a_block_too_large_to_square_is_rejected(tmp_path, cells, kind):
    row = COUNTRY_ROWS[0].split(",")
    row[cells] = ["1e200"] * len(row[cells])
    with pytest.raises(DataError, match=rf"^row 3: {kind} vector for SI is too large to square$"):
        load_country_profiles(write_countries(tmp_path, [COUNTRY_ROWS[1], ",".join(row)]))


def test_publisher_alignment_present(publishers):
    record = publishers.get("derstandard.at")
    assert record.political_alignment == "social-liberalism"


def test_publisher_alignment_absent(publishers):
    assert publishers.get("stern.de").political_alignment is None


def test_alignment_normalization():
    assert normalize_alignment("  Social liberalism ") == "social-liberalism"
    assert normalize_alignment("") is None


def test_duplicate_publisher(tmp_path):
    row = "news.sky.com,Sky News,GB,right-wing"
    with pytest.raises(DataError, match=r"^duplicate publisher_uri: news\.sky\.com$"):
        load_publishers(write_publishers(tmp_path, [row, row.upper()]))


def test_publisher_with_unknown_country_is_kept(publishers, profiles):
    record = publishers.get("247wallst.com")
    assert record.country_code == "US" and "US" not in profiles
    assert barrier_profile(record, profiles, BARRIERS[BarrierKind.TIME_ZONE].columns) is None


def test_publisher_lookup_normalizes_uri(publishers):
    assert publishers[normalize_uri(" News.Sky.Com ")].publisher_name == "Sky News"


def test_missing_publisher_column(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("publisher_uri,publisher_name,country_code\na,b,GB\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"^missing column: political_alignment$"):
        load_publishers(path)


def test_alignment_vocabulary_sorted(publishers):
    assert alignment_vocabulary(publishers) == ("right-wing", "social-liberalism")


def test_timezone_profile_gb(publishers, profiles):
    block = barrier_profile(publishers.get("news.sky.com"), profiles, BARRIERS[BarrierKind.TIME_ZONE].columns)
    assert block.tolist() == [0.0]


def test_political_one_hot(publishers, profiles):
    vocab = alignment_vocabulary(publishers)
    block = barrier_profile(publishers.get("derstandard.at"), profiles, BARRIERS[BarrierKind.POLITICAL].columns, vocab)
    assert block.tolist() == [0.0, 1.0]
    block = barrier_profile(publishers.get("news.sky.com"), profiles, BARRIERS[BarrierKind.POLITICAL].columns, vocab)
    assert block.tolist() == [1.0, 0.0]


def test_economic_profile_is_13_wide(publishers, profiles):
    block = barrier_profile(publishers.get("news.sky.com"), profiles, BARRIERS[BarrierKind.ECONOMIC].columns)
    assert len(block) == 13
    assert block[0] == 13.0  # Rank column of the GB fixture row


def test_cultural_and_geographic_blocks(publishers, profiles):
    sky = publishers.get("news.sky.com")
    assert len(barrier_profile(sky, profiles, BARRIERS[BarrierKind.CULTURAL].columns)) == 6
    geo = barrier_profile(sky, profiles, BARRIERS[BarrierKind.GEOGRAPHICAL].columns)
    assert geo.tolist() == [54.0, -2.0]


def test_incomplete_metadata(publishers, profiles):
    assert barrier_profile(publishers.get("247wallst.com"), profiles, BARRIERS[BarrierKind.ECONOMIC].columns) is None


def test_unknown_alignment(publishers, profiles):
    assert barrier_profile(publishers.get("stern.de"), profiles, BARRIERS[BarrierKind.POLITICAL].columns,
                           alignment_vocabulary(publishers)) is None


def test_alignment_outside_the_vocabulary_is_unknown(publishers, profiles):
    vocab = alignment_vocabulary(publishers)
    outsider = PublisherRecord("outsider.example", "Outsider", "GB", "centrism")
    assert "centrism" not in vocab
    assert barrier_profile(outsider, profiles, BARRIERS[BarrierKind.POLITICAL].columns, vocab) is None
    examples = [SpreadingExample("a", outsider, publishers["news.sky.com"], frozenset({"X"})),
                SpreadingExample("b", publishers["news.sky.com"], publishers["derstandard.at"], frozenset({"X"}))]
    dataset = build_barrier_dataset(examples, BarrierKind.POLITICAL, profiles, vocab, (("X", 2),))
    assert dataset.dropped == {"unknown_alignment": 1}
    assert [(i.article_id, i.label) for i in dataset.instances] == [("b", True)]


def test_profile_deterministic_and_constant_width(publishers, profiles):
    vocab = alignment_vocabulary(publishers)
    for kind in BarrierKind:
        widths = set()
        for record in publishers.values():
            first = barrier_profile(record, profiles, BARRIERS[kind].columns, vocab)
            second = barrier_profile(record, profiles, BARRIERS[kind].columns, vocab)
            if first is None:
                assert second is None
                continue
            assert np.array_equal(first, second)
            widths.add(len(first))
        assert len(widths) == 1


def test_economic_subset(publishers, profiles):
    block = barrier_profile(publishers.get("news.sky.com"), profiles, ("Rank", "Health"))
    assert block.tolist() == [13.0, 90.6]


def test_round_trip_fixture(tmp_path, profiles):
    out = tmp_path / "again.csv"
    save_country_profiles(profiles, out)
    reloaded = load_country_profiles(out)
    assert len(reloaded) == len(profiles)
    for code, values in profiles.items():
        assert reloaded[code] == values


finite = st.floats(allow_nan=False, allow_infinity=False, width=64, min_value=-1e12, max_value=1e12)


@st.composite
def country_profiles(draw):
    code = draw(st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=2, max_size=2))
    economic = tuple(draw(st.lists(finite, min_size=13, max_size=13)))
    cultural = tuple(draw(st.lists(finite, min_size=6, max_size=6)))
    if not any(economic):
        economic = economic[:12] + (1.0,)
    if not any(cultural):
        cultural = cultural[:5] + (1.0,)
    values = {
        "latitude": draw(st.floats(min_value=-90, max_value=90, allow_nan=False)),
        "longitude": draw(st.floats(min_value=-180, max_value=180, allow_nan=False)),
        "utc_offset": float(draw(st.integers(min_value=-720, max_value=840))),
    }
    values.update(zip(ECONOMIC_FEATURES, economic))
    values.update(zip(CULTURAL_FEATURES, cultural))
    return code, values


@settings(max_examples=50, deadline=None)
@given(st.lists(country_profiles(), min_size=1, max_size=6, unique_by=lambda p: p[0]))
def test_round_trip_bit_exact(tmp_path_factory, profiles_list):
    path = tmp_path_factory.mktemp("roundtrip") / "c.csv"
    store = dict(profiles_list)
    save_country_profiles(store, path)
    reloaded = load_country_profiles(path)
    for code, values in profiles_list:
        assert reloaded[code] == values


def test_minmax_scaling(profiles):
    scaled = minmax_scaled(profiles)
    econ = np.array([[values[c] for c in ECONOMIC_FEATURES] for values in scaled.values()])
    assert econ.min() >= 0.0 and econ.max() <= 1.0
    # per-feature extremes hit 0 and 1 for non-constant columns
    assert np.allclose(econ.min(axis=0), 0.0)
    assert np.allclose(econ.max(axis=0), 1.0)
    # coordinates and offsets untouched
    assert scaled["GB"]["utc_offset"] == 0
    assert scaled["GB"]["latitude"] == 54.0


def test_minmax_constant_feature(tmp_path):
    rows = [
        "AA,1.0,1.0,0," + ",".join(["5"] * 6) + "," + ",".join(["7"] * 13),
        "AB,2.0,2.0,0," + ",".join(["5"] * 6) + "," + ",".join(["7"] * 13),
    ]
    store = minmax_scaled(load_country_profiles(write_countries(tmp_path, rows)))
    assert {store["AA"][c] for c in ECONOMIC_FEATURES} == {0.5}
    assert {store["AA"][c] for c in CULTURAL_FEATURES} == {0.5}

