import csv
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from newsbarriers import synth
from newsbarriers.cli import main
from newsbarriers.config import PipelineConfig
from newsbarriers.errors import ConfigError
from newsbarriers.ingest import filter_propagated, parse_pairs
from newsbarriers.knowledge import BarrierKind
from newsbarriers.pipeline import annotate_corpus
from newsbarriers.synth import SyntheticSpec, generate_corpus, load_truth

ORACLE_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bruteforce_reannotate.py"


def annotate(paths, tmp_path, **overrides):
    config = PipelineConfig(
        pairs=str(paths["pairs"]),
        concepts=str(paths["concepts"]),
        countries=str(paths["countries"]),
        publishers=str(paths["publishers"]),
        out=str(tmp_path / "run"),
        event="synthetic",
        vocab_size=20,
        **overrides,
    )
    config.validate()
    return annotate_corpus(config)


def labels_of(dataset):
    return [(i.article_id, "TRUE" if i.label else "FALSE") for i in dataset.instances]


def test_same_regimes_plant_all_false(tmp_path):
    spec = SyntheticSpec(
        n_articles=40,
        seed=1,
        regimes={name: "same" for name in ("economic", "cultural", "geographical", "timezone", "political")},
    )
    paths = generate_corpus(spec, tmp_path / "corpus")
    truth = load_truth(paths["truth"])
    for name, rows in truth.items():
        assert all(label == "FALSE" for _, label in rows), name
    datasets, _, _ = annotate(paths, tmp_path)
    for kind, dataset in datasets.items():
        assert dataset.class_counts[0] == 0  # no TRUE labels anywhere


def test_diff_regimes_plant_all_true(tmp_path):
    spec = SyntheticSpec(
        n_countries=6,
        n_publishers=8,
        n_articles=40,
        seed=2,
        regimes={name: "diff" for name in ("economic", "cultural", "geographical", "timezone", "political")},
    )
    paths = generate_corpus(spec, tmp_path / "corpus")
    truth = load_truth(paths["truth"])
    for name, rows in truth.items():
        assert all(label == "TRUE" for _, label in rows), name
    datasets, _, _ = annotate(paths, tmp_path)
    for kind, dataset in datasets.items():
        assert dataset.class_counts[1] == 0  # no FALSE labels anywhere


# With two publishers, half the draws pair a publisher with itself; a diff political regime
# alone resamples them, as no country-level regime is diff to reject them first.
def test_political_diff_alone_resamples_same_publisher_pairs(tmp_path):
    spec = SyntheticSpec(n_countries=2, n_publishers=2, n_articles=40, seed=3, regimes={"political": "diff"})
    paths = generate_corpus(spec, tmp_path / "corpus")
    propagated = filter_propagated(parse_pairs(paths["pairs"]))
    assert len(propagated) == 40
    assert all(p.from_publisher_uri != p.to_publisher_uri for p in propagated)
    assert {label for _, label in load_truth(paths["truth"])["political"]} == {"TRUE"}


def test_shared_utc_offset_means_timezone_false(tmp_path):
    spec = SyntheticSpec(n_countries=2, n_articles=30, seed=3, regimes={"timezone": "same"})
    paths = generate_corpus(spec, tmp_path / "corpus")
    assert all(label == "FALSE" for _, label in load_truth(paths["truth"])["timezone"])


def test_orthogonal_economic_profiles_mean_economic_true(tmp_path):
    spec = SyntheticSpec(n_countries=5, n_articles=30, seed=4, regimes={"economic": "diff"})
    paths = generate_corpus(spec, tmp_path / "corpus")
    assert all(label == "TRUE" for _, label in load_truth(paths["truth"])["economic"])


def test_mixed_labels_match_annotator_exactly(tmp_path):
    paths = generate_corpus(SyntheticSpec(n_articles=120, seed=5), tmp_path / "corpus")
    truth = load_truth(paths["truth"])
    datasets, report, _ = annotate(paths, tmp_path)
    assert report.total_drops == 0
    for kind, dataset in datasets.items():
        expected = [(a, l) for a, l in truth[kind.value] if l != "DROPPED"]
        assert labels_of(dataset) == expected


def test_unknown_alignments_drop_politically(tmp_path):
    spec = SyntheticSpec(n_articles=60, seed=6, unknown_alignment_rate=0.4)
    paths = generate_corpus(spec, tmp_path / "corpus")
    truth = load_truth(paths["truth"])
    expected_drops = sum(1 for _, label in truth["political"] if label == "DROPPED")
    assert expected_drops > 0
    datasets, _, _ = annotate(paths, tmp_path)
    political = datasets[BarrierKind.POLITICAL]
    assert political.dropped["unknown_alignment"] == expected_drops
    assert labels_of(political) == [(a, l) for a, l in truth["political"] if l != "DROPPED"]


def test_outputs_parse_cleanly(tmp_path):
    paths = generate_corpus(SyntheticSpec(n_articles=25, seed=7, extra_unclassified_pairs=8), tmp_path / "corpus")
    pairs = parse_pairs(paths["pairs"])
    assert len(pairs) == 33
    assert len(filter_propagated(pairs)) == 25
    datasets, report, _ = annotate(paths, tmp_path)
    assert report.class_weight_inconsistencies == 0
    assert report.examples == 25


def test_generation_deterministic(tmp_path):
    spec = SyntheticSpec(n_articles=30, seed=8)
    a = generate_corpus(spec, tmp_path / "a")
    b = generate_corpus(SyntheticSpec(n_articles=30, seed=8), tmp_path / "b")
    for key in ("pairs", "concepts", "countries", "publishers", "truth"):
        assert a[key].read_bytes() == b[key].read_bytes()


def test_bruteforce_oracle_agrees_including_drops(tmp_path):
    spec = SyntheticSpec(n_articles=80, seed=9, unknown_alignment_rate=0.3)
    paths = generate_corpus(spec, tmp_path / "corpus")
    proc = subprocess.run(
        [sys.executable, str(ORACLE_SCRIPT), str(tmp_path / "corpus")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    oracle = {name: [] for name in load_truth(paths["truth"])}
    for record in csv.reader(proc.stdout.strip().splitlines()[1:]):
        oracle[record[2]].append((record[1], record[3]))
    truth = load_truth(paths["truth"])
    assert oracle == truth


def test_spec_validation():
    with pytest.raises(ConfigError):
        SyntheticSpec(regimes={"economic": "diff"}, n_countries=14).validate()
    with pytest.raises(ConfigError):
        SyntheticSpec(regimes={"nonsense": "same"}).validate()
    with pytest.raises(ConfigError):
        SyntheticSpec(regimes={"cultural": "sometimes"}).validate()
    with pytest.raises(ConfigError):
        SyntheticSpec(n_articles=0).validate()
    # each country-level diff regime is capped by the distinct values it can plant
    with pytest.raises(ConfigError, match="^diff timezone regime supports at most 53 countries$"):
        SyntheticSpec(regimes={"timezone": "diff"}, n_countries=54).validate()
    with pytest.raises(ConfigError, match="^diff geographical regime supports at most 61 countries$"):
        SyntheticSpec(regimes={"geographical": "diff"}, n_countries=62).validate()
    with pytest.raises(ConfigError, match="^extra unclassified pairs must be >= 0, got -5$"):
        SyntheticSpec(extra_unclassified_pairs=-5).validate()
    for seed in (-1, 1.5, "7", True):
        with pytest.raises(ConfigError, match="^seed must be an integer >= 0, got "):
            SyntheticSpec(seed=seed).validate()
    for rate in (-0.1, 1.5, float("nan")):
        with pytest.raises(ConfigError, match="^unknown alignment rate must be in"):
            SyntheticSpec(unknown_alignment_rate=rate).validate()


# recorded from the generator that drew from a list of pool strings: a 1500-topic
# pool has 4-digit names, and Topic_1000 sorts before Topic_200 in every concept list
POOL_1500_SHA256 = {
    "pairs": "2cbce77634a4fbb7241a73075e46c016c14e0908b393b6e355ef36e9dce0ae31",
    "concepts": "7c0bb581a3faae08bd27b3f04dda2f457dcabe0ba5eeb721a29bcf3182ef9495",
    "countries": "f7b53374df92748a8a6b1bb57bd4e745602fc2ffacc1c19a4ed508c2a6c18d88",
    "publishers": "16ac044bd682a98be42c844fd4440ca7299a5dece4e40d0c93af41a76e516496",
    "truth": "513741e016d9cd24672a19d3bb75085034561eeaa40ba48fa3d091f2e5ceb960",
    "spec": "8230f8a62190f010766aaf2351c9e1ad61d141a96f681238c8609daa45517c0f",
}


def test_corpus_bytes_pinned_for_a_pool_of_four_digit_topics(tmp_path):
    spec = SyntheticSpec(
        n_articles=400, concept_pool_size=1500, unknown_alignment_rate=0.1, extra_unclassified_pairs=20, seed=5
    )
    paths = generate_corpus(spec, tmp_path / "corpus")
    assert {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()} == POOL_1500_SHA256


def test_concepts_are_drawn_without_building_the_pool(tmp_path):
    spec = SyntheticSpec(n_articles=3, concept_pool_size=10**9, extra_unclassified_pairs=1)
    paths = generate_corpus(spec, tmp_path / "corpus")
    lines = [json.loads(line) for line in paths["concepts"].read_text().splitlines()]
    assert len(lines) == 7
    for line in lines:
        for concept in line["concepts"]:
            prefix, _, index = concept.partition("_")
            assert prefix == "Topic" and index.isdigit() and int(index) < 10**9


def test_a_cosine_at_the_threshold_is_a_config_error(tmp_path, monkeypatch, capsys):
    # same economic vectors have cosine 1: a threshold of 1 leaves no margin to plant a label
    monkeypatch.setattr(synth, "SIMILARITY_THRESHOLD", 1.0)
    with pytest.raises(ConfigError, match=r"within 1e-06 of the similarity threshold 1\.0"):
        generate_corpus(SyntheticSpec(n_articles=5, regimes={"economic": "same"}), tmp_path / "corpus")
    assert main(["synth", "--out", str(tmp_path / "cli"), "--regime", "economic=same"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("synth: ") and "similarity threshold 1.0" in err and err.count("\n") == 1
