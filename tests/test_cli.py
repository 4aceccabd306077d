import csv
import io
import json
import os
from dataclasses import fields
from pathlib import Path

import pytest

from newsbarriers.cli import _build_config, build_parser, main
from newsbarriers.config import PipelineConfig, config_to_text
from newsbarriers.synth import SyntheticSpec, generate_corpus

FAST_GRIDS = [
    "--grid", "knn.k=1,3",
    "--grid", "decision_tree.max_leaf_nodes=4,none",
    "--grid", "random_forest.n_estimators=5",
    "--grid", "svm.lam=0.001",
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    return generate_corpus(SyntheticSpec(n_articles=60, n_publishers=10, seed=41), out)


def corpus_args(corpus):
    return [
        "--pairs", str(corpus["pairs"]),
        "--concepts", str(corpus["concepts"]),
        "--countries", str(corpus["countries"]),
        "--publishers", str(corpus["publishers"]),
        "--event", "synthetic",
    ]


def test_run_writes_all_artifacts(tmp_path, corpus):
    out = tmp_path / "run"
    code = main(["run", *corpus_args(corpus), "--out", str(out),
                 "--vocab-size", "20", "--k-folds", "5", "--seed", "3", *FAST_GRIDS])
    assert code == 0
    for name in ("report.md", "report.csv", "ingest_report.txt", "vocabulary.csv", "config.txt"):
        assert (out / name).is_file(), name
    for barrier in ("economic", "cultural", "geographical", "timezone", "political"):
        assert (out / f"dataset_{barrier}.csv").is_file()
    # five barriers times eight models, grouped in five barrier blocks
    report_lines = (out / "report.csv").read_text().strip().splitlines()
    assert len(report_lines) == 1 + 40
    markdown = (out / "report.md").read_text()
    for title in ("Economic", "Cultural", "Geographical", "Time Zone", "Political"):
        assert markdown.count(f"| {title} |") == 1
        assert f"{title}: " in markdown  # footer line with sizes and class counts
    assert "instances (TRUE" in markdown


def test_missing_pairs_is_config_error(tmp_path, corpus, capsys):
    args = corpus_args(corpus)
    args[1] = str(tmp_path / "nope.csv")
    code = main(["run", *args, "--out", str(tmp_path / "run")])
    assert code == 1
    assert capsys.readouterr().err.strip() == "pairs: not found"


def test_data_error_exit_code(tmp_path, corpus, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("zap\n1,2\n", encoding="utf-8")
    args = corpus_args(corpus)
    args[1] = str(bad)
    code = main(["run", *args, "--out", str(tmp_path / "run")])
    assert code == 2
    assert capsys.readouterr().err.startswith("pairs: malformed row 1")


def test_rerun_is_byte_identical_and_replayable(tmp_path, corpus):
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    base = ["run", *corpus_args(corpus), "--vocab-size", "15", "--k-folds", "5", "--seed", "9", *FAST_GRIDS]
    assert main([*base, "--out", str(out_a)]) == 0
    assert main([*base, "--out", str(out_b)]) == 0
    assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
    # replay from the recorded config file
    assert main(["run", "--config", str(out_a / "config.txt"), "--out", str(out_c)]) == 0
    assert (out_a / "report.csv").read_bytes() == (out_c / "report.csv").read_bytes()


def test_config_replays_from_inside_the_run_directory(tmp_path, corpus, monkeypatch):
    """Input paths given relative to the first run's directory are recorded absolute."""
    monkeypatch.chdir(tmp_path)
    inputs = [arg for key in ("pairs", "concepts", "countries", "publishers")
              for arg in (f"--{key}", os.path.relpath(corpus[key]))]
    assert main(["run", *inputs, "--vocab-size", "15", "--k-folds", "3", *FAST_GRIDS, "--out", "run"]) == 0
    recorded = (tmp_path / "run" / "config.txt").read_text(encoding="utf-8")
    assert f"pairs = {corpus['pairs']}\n" in recorded
    monkeypatch.chdir(tmp_path / "run")
    assert main(["run", "--config", "config.txt", "--out", "../run2"]) == 0
    assert (tmp_path / "run" / "report.csv").read_bytes() == (tmp_path / "run2" / "report.csv").read_bytes()


def test_annotate_writes_datasets_only(tmp_path, corpus):
    out = tmp_path / "annotated"
    code = main(["annotate", *corpus_args(corpus), "--out", str(out), "--vocab-size", "10"])
    assert code == 0
    assert (out / "dataset_political.csv").is_file()
    assert (out / "vocabulary.csv").is_file()
    assert not (out / "report.csv").exists()


def test_concept_freq_prints_table(tmp_path, corpus, capsys):
    code = main(["concept-freq", *corpus_args(corpus), "--out", str(tmp_path / "x"), "--vocab-size", "3"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "concept,frequency"
    assert len(lines) == 4
    frequencies = [int(line.rsplit(",", 1)[1]) for line in lines[1:]]
    assert frequencies == sorted(frequencies, reverse=True)


def test_concept_freq_saturates(tmp_path, corpus, capsys):
    code = main(["concept-freq", *corpus_args(corpus), "--out", str(tmp_path / "x"), "--vocab-size", "100000"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert 1 < len(lines) - 1 <= 40  # concept pool size bounds the table


def test_concept_freq_identical_runs(tmp_path, corpus, capsys):
    main(["concept-freq", *corpus_args(corpus), "--out", str(tmp_path / "x"), "--vocab-size", "10"])
    first = capsys.readouterr().out
    main(["concept-freq", *corpus_args(corpus), "--out", str(tmp_path / "x"), "--vocab-size", "10"])
    assert capsys.readouterr().out == first


def test_concept_freq_prints_the_vocabulary_file_as_csv(tmp_path, corpus, capsys):
    """A concept holding a comma or a quote is quoted, as in vocabulary.csv: it printed as a row of
    three fields before."""
    records = [json.loads(line) for line in Path(corpus["concepts"]).read_text(encoding="utf-8").splitlines()]
    first_two = list(dict.fromkeys(concept for record in records for concept in record["concepts"]))[:2]
    rename = dict(zip(first_two, ("Washington,_D.C.", 'Say "hi"')))
    for record in records:
        record["concepts"] = [rename.get(concept, concept) for concept in record["concepts"]]
    concepts = tmp_path / "concepts.jsonl"
    concepts.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")
    args = corpus_args(corpus)
    args[args.index("--concepts") + 1] = str(concepts)
    assert main(["annotate", *args, "--out", str(tmp_path / "run"), "--vocab-size", "100000"]) == 0
    with open(tmp_path / "run" / "vocabulary.csv", newline="", encoding="utf-8") as fh:
        expected = list(csv.reader(fh))
    capsys.readouterr()
    assert main(["concept-freq", *args, "--out", str(tmp_path / "x"), "--vocab-size", "100000"]) == 0
    assert list(csv.reader(io.StringIO(capsys.readouterr().out))) == expected
    assert {"Washington,_D.C.", 'Say "hi"'} <= {row[0] for row in expected}


def test_concept_freq_does_not_read_the_country_columns(tmp_path, corpus, capsys):
    """The vocabulary needs publishers, pairs and concepts only: a countries.csv with
    nothing but country codes prints the same table."""
    codes = tmp_path / "countries.csv"
    codes.write_text("".join(line.split(",")[0] + "\n" for line in Path(corpus["countries"]).read_text().splitlines()))
    args = ["concept-freq", *corpus_args(corpus), "--out", str(tmp_path / "x"), "--vocab-size", "10"]
    assert main(args) == 0
    full = capsys.readouterr().out
    args[args.index("--countries") + 1] = str(codes)
    assert main(args) == 0
    assert capsys.readouterr().out == full


def test_synth_command_writes_corpus(tmp_path, capsys):
    out = tmp_path / "synthcli"
    code = main(["synth", "--out", str(out), "--n-articles", "12", "--seed", "4",
                 "--regime", "timezone=same"])
    assert code == 0
    assert (out / "pairs.csv").is_file()
    assert (out / "truth.csv").is_file()
    spec = json.loads((out / "synth_spec.json").read_text())
    assert spec["regimes"] == {"timezone": "same"}


def test_train_and_evaluate_round_trip(tmp_path, corpus, capsys):
    out = tmp_path / "annotated"
    assert main(["annotate", *corpus_args(corpus), "--out", str(out), "--vocab-size", "10"]) == 0
    dataset = out / "dataset_timezone.csv"
    model_path = tmp_path / "model.json"
    code = main(["train", "--data", str(dataset), "--family", "decision_tree",
                 "--param", "max_leaf_nodes=none", "--out", str(model_path)])
    assert code == 0
    assert model_path.is_file()
    capsys.readouterr()
    code = main(["evaluate", "--model", str(model_path), "--data", str(dataset)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    values = dict(line.split("=") for line in lines)
    assert set(values) == {"ca", "micro_precision", "micro_recall", "micro_f1"}
    assert float(values["ca"]) == float(values["micro_f1"])
    # one accuracy, printed four times
    assert len(set(values.values())) == 1
    # an unrestricted tree fits training data at least as well as the majority class
    assert float(values["ca"]) >= 0.5


def test_report_command_renders_markdown(tmp_path, corpus, capsys):
    out = tmp_path / "run"
    assert main(["run", *corpus_args(corpus), "--out", str(out), "--vocab-size", "10",
                 "--k-folds", "5", "--seed", "1", "--models", "uniform,most_frequent",
                 "--barriers", "timezone,political"]) == 0
    capsys.readouterr()
    assert main(["report", "--rows", str(out / "report.csv")]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0].startswith("| Barrier | Model |")
    assert "Time Zone" in text and "Political" in text
    rendered = tmp_path / "again.md"
    assert main(["report", "--rows", str(out / "report.csv"), "--format", "csv",
                 "--out", str(rendered)]) == 0
    assert rendered.read_bytes() == (out / "report.csv").read_bytes()


def test_report_missing_rows_file(tmp_path, capsys):
    assert main(["report", "--rows", str(tmp_path / "none.csv")]) == 1
    assert capsys.readouterr().err.strip() == "rows: not found"


def test_barrier_subset_run(tmp_path, corpus):
    out = tmp_path / "subset"
    code = main(["run", *corpus_args(corpus), "--out", str(out), "--vocab-size", "10",
                 "--k-folds", "5", "--models", "most_frequent", "--barriers", "economic", *FAST_GRIDS])
    assert code == 0
    assert (out / "dataset_economic.csv").is_file()
    assert not (out / "dataset_cultural.csv").exists()
    report = (out / "report.csv").read_text().strip().splitlines()
    assert len(report) == 2  # header plus the single row


def test_economic_feature_subset_flag(tmp_path, corpus):
    out = tmp_path / "subset"
    code = main(["annotate", *corpus_args(corpus), "--out", str(out), "--vocab-size", "5",
                 "--barriers", "economic", "--economic-features", "Rank,Health"])
    assert code == 0
    header = (out / "dataset_economic.csv").read_text().splitlines()[0]
    assert header.endswith("c4,Rank,Health")


def test_unknown_model_is_config_error(tmp_path, corpus, capsys):
    code = main(["run", *corpus_args(corpus), "--out", str(tmp_path / "x"),
                 "--models", "perceptron"])
    assert code == 1
    assert "unknown model family" in capsys.readouterr().err


def test_env_var_sets_default_out(tmp_path, corpus, monkeypatch):
    out = tmp_path / "envout"
    monkeypatch.setenv("NEWSBARRIERS_OUT", str(out))
    code = main(["annotate", *corpus_args(corpus), "--vocab-size", "5"])
    assert code == 0
    assert (out / "vocabulary.csv").is_file()


def test_global_vocab_counts_all_articles(tmp_path, corpus):
    per_event = tmp_path / "per_event"
    global_out = tmp_path / "global"
    assert main(["annotate", *corpus_args(corpus), "--out", str(per_event), "--vocab-size", "40"]) == 0
    assert main(["annotate", *corpus_args(corpus), "--out", str(global_out), "--vocab-size", "40",
                 "--global-vocab"]) == 0
    per_event_vocab = (per_event / "vocabulary.csv").read_text()
    global_vocab = (global_out / "vocabulary.csv").read_text()
    # the global variant counts target and non-propagated articles too
    assert per_event_vocab != global_vocab
    total = lambda text: sum(int(line.rsplit(",", 1)[1]) for line in text.strip().splitlines()[1:])
    assert total(global_vocab) > total(per_event_vocab)


@pytest.mark.parametrize("argv", [
    ["run", "--vocab-size", "abc"],
    ["run", "--bogus"],
    ["run", "--grid", "knn.k="],
    ["frobnicate"],
    ["concept-freq", "--n", "3"],
    ["train", "--data", "d.csv", "--family", "knn", "--out", "m.json", "--barrier", "timezone"],
    ["evaluate", "--data", "d.csv", "--model", "m.json", "--barrier", "timezone"],
])
def test_bad_flags_are_config_errors(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("arguments: ") and err.count("\n") == 1


def test_help_still_exits_zero(capsys):
    helps = {}
    for command in ("run", "annotate", "concept-freq", "synth", "train", "evaluate", "report"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        helps[command] = capsys.readouterr().out
        assert helps[command].startswith(f"usage: newsbarriers {command}")
    assert "--vocab-size" in helps["run"]


# a value other than the default for every PipelineConfig field, as ``config.txt`` writes it
NON_DEFAULT = {
    "pairs": "p.csv", "concepts": "c.jsonl", "countries": "k.csv", "publishers": "u.csv", "out": "elsewhere",
    "event": "demo", "barriers": "political,economic", "vocab_size": "7", "threshold": "0.5", "k_folds": "3",
    "seed": "4", "models": "knn,svm", "grids": "knn.k=1,3", "global_vocab": "true", "nested": "true",
    "fold_mean": "true", "profile_side": "target", "scale_profiles": "true", "economic_features": "Rank,Health",
}


@pytest.mark.parametrize("name", [f.name for f in fields(PipelineConfig)])
def test_every_option_is_a_flag_and_a_config_key(tmp_path, monkeypatch, name):
    """``--vocab-size 7`` writes the config.txt that ``vocab_size = 7`` in a --config file writes."""
    monkeypatch.delenv("NEWSBARRIERS_OUT", raising=False)
    flag, value = "--" + name.replace("_", "-"), NON_DEFAULT[name]
    if name == "grids":
        key, _, values = value.partition("=")
        flag_args, line = ["--grid", value], f"grid.{key} = {values}"
    else:
        flag_args, line = [flag] if value == "true" else [flag, value], f"{name} = {value}"
    config_file = tmp_path / "config.txt"
    config_file.write_text(line + "\n", encoding="utf-8")
    from_flag = config_to_text(_build_config(build_parser().parse_args(["run", *flag_args])))
    from_key = config_to_text(_build_config(build_parser().parse_args(["run", "--config", str(config_file)])))
    assert from_flag == from_key != config_to_text(PipelineConfig())


@pytest.fixture(scope="module")
def dataset(tmp_path_factory, corpus):
    out = tmp_path_factory.mktemp("annotated")
    assert main(["annotate", *corpus_args(corpus), "--out", str(out), "--vocab-size", "10",
                 "--barriers", "timezone"]) == 0
    return out / "dataset_timezone.csv"


@pytest.mark.parametrize("family,param,message", [
    ("knn", "kk=3", "train: kNN: unknown hyperparameter 'kk'"),
    ("knn", "k=abc", "param: cannot parse value 'abc'"),
    ("perceptron", "k=3", "family: unknown model family: 'perceptron'"),
    ("knn", "k=1.5", "train: kNN: k must be an integer >= 1, got 1.5"),
    ("random_forest", "n_estimators=0", "train: Random Forest: n_estimators must be an integer in [1, 2^32), got 0"),
    ("svm", "lam=0", "train: SVM: lam must be a finite number > 0, got 0"),
], ids=["unknown-param", "bad-value", "unknown-family", "non-integer", "zero-trees", "zero-lam"])
def test_train_rejects_bad_family_or_param(tmp_path, dataset, capsys, family, param, message):
    model_path = tmp_path / "model.json"
    code = main(["train", "--data", str(dataset), "--family", family, "--param", param, "--out", str(model_path)])
    assert code == 1
    assert capsys.readouterr().err.strip() == message
    assert not model_path.exists()


def test_evaluate_missing_model_is_config_error(tmp_path, dataset, capsys):
    assert main(["evaluate", "--model", str(tmp_path / "none.json"), "--data", str(dataset)]) == 1
    assert capsys.readouterr().err.strip() == "model: not found"


@pytest.mark.parametrize("text", [
    "{not json",
    json.dumps({"format_version": 1, "family": "perceptron", "hyperparameters": {}, "seed": 0,
                "n_features": 3, "standardization": None, "parameters": {}}),
    json.dumps({"format_version": 1, "family": "knn", "hyperparameters": {"kk": 3}, "seed": 0,
                "n_features": 3, "standardization": None, "parameters": {"X": [], "y": []}}),
    json.dumps({"format_version": 1, "family": "svm"}),
    "[]",
    json.dumps({"format_version": 1, "family": "knn", "hyperparameters": {"k": "abc"}, "seed": 0,
                "n_features": 3, "standardization": None, "parameters": {"X": [], "y": []}}),
    json.dumps({"format_version": 1, "family": "random_forest", "hyperparameters": {}, "seed": 0,
                "n_features": 3, "standardization": None, "parameters": {"trees": []}}),
    json.dumps({"format_version": 1, "family": "knn", "hyperparameters": {}, "seed": 0,
                "n_features": 2, "standardization": None, "parameters": {"X": [[0, 0], [1, 1]], "y": [True]}}),
    json.dumps({"format_version": 1, "family": "knn", "hyperparameters": {}, "seed": 0, "n_features": 2,
                "standardization": {"mean": [0.0], "scale": [1.0, 1.0]}, "parameters": {"X": [[0, 0]], "y": [True]}}),
    json.dumps({"format_version": 1, "family": "decision_tree", "hyperparameters": {}, "seed": 0,
                "n_features": 1, "standardization": None,
                "parameters": {"tree": {"feature": [0, -1, -1], "threshold": [1.5, 0.0, 0.0], "left": [0, -1, -1],
                                        "right": [2, -1, -1], "prediction": [False, False, True]}}}),
], ids=["syntax", "unknown-family", "unknown-param", "missing-keys", "not-an-object", "bad-param-value", "no-trees",
        "knn-label-missing", "standardization-width", "tree-cycle"])
def test_evaluate_malformed_model_is_data_error(tmp_path, dataset, capsys, text):
    model_path = tmp_path / "model.json"
    model_path.write_text(text, encoding="utf-8")
    assert main(["evaluate", "--model", str(model_path), "--data", str(dataset)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("model: malformed model file: ") and err.count("\n") == 1


@pytest.mark.parametrize("flags,message", [
    (["--grid", "knn.k=0"], "grid.knn: kNN: k must be an integer >= 1, got 0"),
    (["--grid", "knn.k=3,-1"], "grid.knn: kNN: k must be an integer >= 1, got -1"),
    (["--grid", "random_forest.n_estimators=0"],
     "grid.random_forest: Random Forest: n_estimators must be an integer in [1, 2^32), got 0"),
    (["--grid", "decision_tree.max_leaf_nodes=1.5"],
     "grid.decision_tree: Decision Tree: max_leaf_nodes must be an integer >= 2 or none, got 1.5"),
    (["--grid", "svm.lam=0"], "grid.svm: SVM: lam must be a finite number > 0, got 0"),
    (["--threshold", "nan"], "threshold: must be a finite number in [-1, 1], got nan"),
    (["--threshold", "1.5"], "threshold: must be a finite number in [-1, 1], got 1.5"),
    (["--economic-features", "Rank,Health,Rank"], "economic_features: repeated indicator 'Rank'"),
    (["--barriers", "political,political", "--models", "most_frequent"], "barriers: repeated barrier 'political'"),
    (["--barriers", "political", "--models", "most_frequent,most_frequent"], "models: repeated model 'most_frequent'"),
    (["--barriers", "political", "--models", "knn,svm,KNN"], "models: repeated model 'knn'"),
])
def test_out_of_range_values_are_config_errors(tmp_path, corpus, capsys, flags, message):
    out = tmp_path / "run"
    assert main(["run", *corpus_args(corpus), "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


@pytest.mark.parametrize("edit,message", [
    (lambda rows: rows[:1] + [rows[1].replace(",FALSE,", ",MAYBE,").replace(",TRUE,", ",MAYBE,")] + rows[2:],
     "data: malformed row 2: label 'MAYBE' is not TRUE or FALSE"),
    (lambda rows: rows[:2] + [rows[2].rsplit(",", 1)[0] + ",abc"] + rows[3:],
     "data: non-finite value in row 3, column "),
    (lambda rows: rows[:2] + [rows[2].rsplit(",", 1)[0] + ",inf"] + rows[3:],
     "data: non-finite value in row 3, column "),
    (lambda rows: rows[:3] + [rows[3] + ",1"] + rows[4:], "data: malformed row 4: expected "),
    (lambda rows: ["id,label,c0"] + rows[1:], "data: malformed row 1: header must start with article_id,label"),
    (lambda rows: [], "data: malformed row 1: header must start with article_id,label"),
], ids=["label", "non-numeric", "non-finite", "width", "header", "empty"])
def test_malformed_dataset_is_data_error(tmp_path, dataset, capsys, edit, message):
    bad = tmp_path / "bad.csv"
    rows = dataset.read_text(encoding="utf-8").splitlines()
    bad.write_text("".join(row + "\n" for row in edit(rows)), encoding="utf-8")
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", str(bad), "--family", "most_frequent", "--out", str(model_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not model_path.exists()


def test_missing_dataset_is_config_error(tmp_path, capsys):
    code = main(["train", "--data", str(tmp_path / "none.csv"), "--family", "knn", "--out", str(tmp_path / "m.json")])
    assert code == 1
    assert capsys.readouterr().err == "data: not found\n"


REPORT_HEADER = "barrier,model,ca,micro_precision,micro_recall,micro_f1\n"
OUT_OF_RANGE = "rows: malformed row 2: metric is not an accuracy in [0, 1]"
DIFFER = "rows: malformed row 2: the four metrics differ; each column holds the accuracy"


@pytest.mark.parametrize("text,message", [
    ("barrier,model,ca,micro_precision,micro_recall,micro_f1\nBogus,kNN,0.5,0.5,0.5,0.5\n",
     "rows: malformed row 2: unknown barrier 'Bogus'"),
    ("barrier,model,ca,micro_precision,micro_recall,micro_f1\nPolitical,Perceptron,0.5,0.5,0.5,0.5\n",
     "rows: malformed row 2: unknown model 'Perceptron'"),
    ("barrier,model,ca,micro_precision,micro_recall,micro_f1\nPolitical,kNN,0.5\n",
     "rows: malformed row 2: expected 6 fields, got 3"),
    ("barrier,model,ca,micro_precision,micro_recall,micro_f1\nPolitical,kNN,x,0.5,0.5,0.5\n",
     "rows: malformed row 2: metric is not a number"),
    ("a,b\n", "rows: not a report csv"),
    ("", "rows: not a report csv"),
    ("barrier,model,ca,micro_precision,micro_recall,micro_f1\n", "rows: no report rows"),
    # each of these rendered before: no accuracy lies outside [0, 1], and the four columns hold one accuracy
    (REPORT_HEADER + "Political,kNN,nan,nan,nan,nan\n", OUT_OF_RANGE),
    (REPORT_HEADER + "Political,kNN,inf,inf,inf,inf\n", OUT_OF_RANGE),
    (REPORT_HEADER + "Political,kNN,-3,-3,-3,-3\n", OUT_OF_RANGE),
    (REPORT_HEADER + "Political,kNN,7,7,7,7\n", OUT_OF_RANGE),
    (REPORT_HEADER + "Political,kNN,1e308,1e308,1e308,1e308\n", OUT_OF_RANGE),
    (REPORT_HEADER + "Political,kNN,0.5,0.5,0.5,nan\n", OUT_OF_RANGE),
    (REPORT_HEADER + "Political,kNN,0.5,0.9,0.1,7\n", OUT_OF_RANGE),
    (REPORT_HEADER + "Political,kNN,0.5,0.9,0.1,0.7\n", DIFFER),
    (REPORT_HEADER + "Political,kNN,0.5,0.5,0.5,0.5000001\n", DIFFER),
], ids=["barrier", "model", "short-row", "non-numeric", "header", "empty", "no-rows", "nan", "inf", "negative",
        "above-one", "huge", "one-nan", "differ-out-of-range", "differ", "differ-slightly"])
def test_malformed_report_rows_are_data_errors(tmp_path, capsys, text, message):
    rows = tmp_path / "report.csv"
    rows.write_text(text, encoding="utf-8")
    assert main(["report", "--rows", str(rows)]) == 2
    assert capsys.readouterr().err == message + "\n"


def test_report_values_equal_as_floats_are_one_accuracy(tmp_path, capsys):
    rows = tmp_path / "report.csv"
    rows.write_text(REPORT_HEADER + "Political,kNN,0.5,0.50,5e-1,0.5\n", encoding="utf-8")
    assert main(["report", "--rows", str(rows), "--format", "csv"]) == 0
    assert capsys.readouterr().out == REPORT_HEADER.replace("\n", "\r\n") + "Political,kNN,0.5,0.5,0.5,0.5\r\n"
