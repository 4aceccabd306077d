import pytest

from newsbarriers.config import PipelineConfig, config_from_text, config_to_text, format_option, load_config
from newsbarriers.classifiers import ModelFamily
from newsbarriers.errors import ConfigError


def test_round_trip_preserves_everything():
    config = PipelineConfig(
        pairs="/data/pairs.csv",
        concepts="/data/concepts.jsonl",
        countries="/data/countries.csv",
        publishers="/data/publishers.csv",
        out="/runs/x",
        event="fifa",
        barriers=("economic", "timezone"),
        vocab_size=120,
        threshold=0.85,
        k_folds=5,
        seed=42,
        models=("most_frequent", "svm"),
        grids={"knn": [1, 3, 5], "decision_tree": [4, None], "svm": [0.0001, 0.01]},
        global_vocab=True,
        nested=True,
        fold_mean=False,
        profile_side="target",
        scale_profiles=True,
        economic_features=("Rank", "Health"),
    )
    text = config_to_text(config)
    parsed = config_from_text(text)
    assert parsed == config


def test_text_is_plain_key_value():
    text = config_to_text(PipelineConfig(event="demo", seed=7))
    assert "event = demo" in text
    assert "seed = 7" in text
    assert "grid.knn.k" not in text  # no grids configured


def test_grid_lines_round_trip():
    config = config_from_text("grid.random_forest.n_estimators = 10,50\ngrid.decision_tree.max_leaf_nodes = 8,none\n")
    assert config.grids == {"random_forest": [10, 50], "decision_tree": [8, None]}
    # families left out sweep their defaults in run_experiment
    assert config.model_grids() == {ModelFamily.RANDOM_FOREST: (10, 50), ModelFamily.DECISION_TREE: (8, None)}


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        config_from_text("mystery = 1\n")
    for text in ("grids = knn\n", "vocab_size = abc\n", "threshold = high\n", "nested = yes\n"):
        with pytest.raises(ConfigError, match="^config: line 1: "):
            config_from_text(text)


def test_bad_grid_key_rejected():
    with pytest.raises(ConfigError):
        config_from_text("grid.knn.neighbours = 1,2\n")
    with pytest.raises(ConfigError):
        config_from_text("grid.naive_bayes.k = 1\n")
    for text in ("grid.knn.k = \n", "grid.knn.k = 1,two\n", "grid.perceptron.k = 1\n", "grid.knn = 1\n"):
        with pytest.raises(ConfigError, match="^config: line 1: "):
            config_from_text(text)


def test_comments_and_blank_lines_ignored():
    config = config_from_text("# a comment\n\nevent = demo\n")
    assert config.event == "demo"


def test_validate_reports_missing_path(tmp_path):
    config = PipelineConfig(pairs=str(tmp_path / "missing.csv"), concepts="x", countries="y", publishers="z")
    with pytest.raises(ConfigError, match="pairs: not found"):
        config.validate()


def test_validate_rejects_bad_values(tmp_path):
    for name in ("pairs", "concepts", "countries", "publishers"):
        (tmp_path / f"{name}.csv").write_text("stub\n", encoding="utf-8")
    ok = dict(
        pairs=str(tmp_path / "pairs.csv"),
        concepts=str(tmp_path / "concepts.csv"),
        countries=str(tmp_path / "countries.csv"),
        publishers=str(tmp_path / "publishers.csv"),
    )
    with pytest.raises(ConfigError):
        PipelineConfig(**ok, barriers=("gravity",)).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(**ok, profile_side="both").validate()
    with pytest.raises(ConfigError):
        PipelineConfig(**ok, vocab_size=0).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(**ok, k_folds=1).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(**ok, economic_features=("Prosperity",)).validate()
    for threshold in (float("nan"), float("inf"), -1.5, 5.0):
        with pytest.raises(ConfigError, match="^threshold: "):
            PipelineConfig(**ok, threshold=threshold).validate()
    for family, values in (("knn", [0]), ("knn", [3, -1]), ("random_forest", [0]), ("svm", [0.0]),
                           ("svm", [float("nan")]), ("decision_tree", [1]), ("decision_tree", [1.5])):
        with pytest.raises(ConfigError, match=f"^grid.{family}: "):
            PipelineConfig(**ok, grids={family: values}).validate()
    # an empty grid is rejected, as in a config file, rather than swept with the defaults
    with pytest.raises(ConfigError, match="^grid.knn: no values$"):
        PipelineConfig(**ok, grids={"knn": []}).validate()
    for name, message in (("naive_bayes", "has no sweep parameter"), ("perceptron", "unknown model family")):
        with pytest.raises(ConfigError, match=f"^grids: .*{message}"):
            PipelineConfig(**ok, grids={name: [1]}).validate()
    # config.txt is read back with str.splitlines, which also breaks at \v, \x85 and \u2028
    for name, value in (("event", "fifa\ngrid.knn.k = 1"), ("out", "runs/a\rb"), ("event", "a\x0bb"),
                        ("event", "a\u2028b"), ("profile_side", "source\n"), ("pairs", ok["pairs"] + "\n")):
        with pytest.raises(ConfigError, match=f"^{name}: holds a line break$"):
            PipelineConfig(**{**ok, name: value}).validate()
    PipelineConfig(**ok, threshold=-1.0, grids={"decision_tree": [2, None], "svm": [1]}).validate()


def test_validate_rejects_a_repeated_indicator(tmp_path):
    for name in ("pairs", "concepts", "countries", "publishers"):
        (tmp_path / name).write_text("stub\n", encoding="utf-8")
    paths = {name: str(tmp_path / name) for name in ("pairs", "concepts", "countries", "publishers")}
    PipelineConfig(**paths, economic_features=("Rank", "Health")).validate()
    with pytest.raises(ConfigError, match="^economic_features: repeated indicator 'Rank'$"):
        PipelineConfig(**paths, economic_features=("Rank", "Rank")).validate()


def test_validate_rejects_a_repeated_barrier_or_model(tmp_path):
    for name in ("pairs", "concepts", "countries", "publishers"):
        (tmp_path / name).write_text("stub\n", encoding="utf-8")
    paths = {name: str(tmp_path / name) for name in ("pairs", "concepts", "countries", "publishers")}
    PipelineConfig(**paths, barriers=("political", "economic"), models=("knn", "svm")).validate()
    with pytest.raises(ConfigError, match="^barriers: repeated barrier 'political'$"):
        PipelineConfig(**paths, barriers=("political", "economic", "political")).validate()
    # models are compared as families, after the name is normalised
    for models in (("knn", "knn"), ("knn", "svm", "KNN"), ("kNN", " knn ")):
        with pytest.raises(ConfigError, match="^models: repeated model 'knn'$"):
            PipelineConfig(**paths, models=models).validate()


def test_format_option_writes_grid_values():
    values = (None, 3, 0.0001, 1e-05, 2.5, True)
    assert [format_option(v) for v in values] == ["none", "3", "0.0001", "1e-05", "2.5", "true"]
    assert all(format_option(v) == repr(v) for v in (0.1, 1e-300, 123456789.125, -0.0))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "none.txt")
