"""Pinned outputs: the golden report and the version-1 model files.

``tests/data/models/<family>.json`` were written by ``save_model`` (format
version 1) for one small model per family, trained on ``two_blobs()`` with the
family, hyperparameters and seed recorded in the file itself;
``predictions.json`` holds each model's predictions on the same data. The
golden digests are those of the files that ``run_pipeline`` wrote with default
grids on the corpus built by ``golden_config``: the reports, config, ingest
report, vocabulary and datasets of the default run, and the reports and config
of a run with ``nested=True``. The forest digests are those of the
JSON state of a 200-tree forest fitted on ``concept_profile_matrix()``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from newsbarriers.classifiers import ModelFamily, ModelSpec, RandomForest, load_model, save_model, train
from newsbarriers.config import PipelineConfig
from newsbarriers.pipeline import run_pipeline
from newsbarriers.synth import SyntheticSpec, generate_corpus

MODELS = Path(__file__).parent / "data" / "models"

GOLDEN_SHA256 = {
    "report.csv": "de38f8e3e1922f4045da62f656885d74756edf2928e5b032d538cfa0f2548f81",
    "report.md": "7bc0c5b3dbf2ca30b23bfbd15dadc1bc06c0f7721c7622a634a3290e532a83f0",
    # with the run's temporary directory replaced by "<tmp>"
    "config.txt": "b6a45fee4e54709c9a8e219d5e88677691b77257cd11c0656a6512647f90d636",
    "ingest_report.txt": "1e88089848647f846d4d10646753214211a89dd760a5db9a0761286bd4d182fa",
    "vocabulary.csv": "9448ddf9a3817c8cc05e572092a7dba741db6434269b1caf8cf1d51eb9f6fb16",
    "dataset_economic.csv": "7d396edbc9e2c0e9c2591a8aad9e236c808c18091093da95c0e8b827b60ed4e6",
    "dataset_cultural.csv": "a750a733ab6c5a6b9a60be122bbb7dc5af8944af7f1341f88adc93cda289cbeb",
    "dataset_geographical.csv": "2bf2168dcdc4de2b94464091a9bfffcc1135e7185ef69d34bb0b74250e837ce3",
    "dataset_timezone.csv": "7b81da52d72c6d3f07163e42b6001cbd3699071a024c3960a101474fdc4016e2",
    "dataset_political.csv": "7ffe23da4285966e6c04efceba76df74eb4af6232dabb3056df39d467af0ddc8",
}
NESTED_SHA256 = {
    "report.csv": "17c3fbe607cb1a4b69b28d5d4052db740aaaa166a4fe2cbbda5de80a83fc463c",
    "report.md": "53b038b1eb4dbf8286e0baff9b37703483f8656ca37a2dfcd43838ba995dc4a5",
    "config.txt": "1daa04280f7a8c61fcaba6721a51f73e10ba2a89a60a7f935305cb43cfb0e09a",
}

FOREST_SHA256 = {
    0: "cefc32367888acc5387b391f4ff11ca010b3002512eb9bd2f091f484dcfacd92",
    1: "a75432b6bf7403760b67255b70f27e85ada0f704386434fa25b50ff8231a91de",
}


def two_blobs():
    """40 rows, 3 features: 20 FALSE around -1 then 20 TRUE around +1."""
    rng = np.random.default_rng(40)
    X = np.vstack([rng.normal(-1.0, 1.0, size=(20, 3)), rng.normal(1.0, 1.0, size=(20, 3))])
    y = np.array([False] * 20 + [True] * 20)
    return X, y


def concept_profile_matrix():
    """30 rows shaped like a barrier dataset: 80 sparse binary concept columns,
    then a 10-column profile block shared by the rows of each of 6 countries."""
    rng = np.random.default_rng(90)
    concepts = (rng.random((30, 80)) < 0.12).astype(float)
    profiles = rng.integers(0, 50, size=(6, 10)) / 10.0
    country = rng.integers(0, 6, size=30)
    X = np.hstack([concepts, profiles[country]])
    y = concepts[:, :5].sum(axis=1) + (country < 3) + rng.random(30) > 1.5
    return X, y


def golden_config(tmp_path) -> PipelineConfig:
    paths = generate_corpus(SyntheticSpec(n_articles=30, seed=11), tmp_path / "corpus")
    return PipelineConfig(
        pairs=str(paths["pairs"]),
        concepts=str(paths["concepts"]),
        countries=str(paths["countries"]),
        publishers=str(paths["publishers"]),
        out=str(tmp_path / "run"),
        event="synthetic",
        vocab_size=20,
        k_folds=2,
        seed=3,
    )


def assert_report_digests(tmp_path, expected):
    for name, digest in expected.items():
        data = (tmp_path / "run" / name).read_bytes().replace(str(tmp_path).encode("utf-8"), b"<tmp>")
        assert hashlib.sha256(data).hexdigest() == digest, name


def test_golden_report(tmp_path):
    config = golden_config(tmp_path)
    assert config.grids == {}  # default sweep grids for every family
    run_pipeline(config)
    assert_report_digests(tmp_path, GOLDEN_SHA256)


def test_golden_nested_report(tmp_path):
    config = golden_config(tmp_path)
    config.nested = True
    run_pipeline(config)
    assert_report_digests(tmp_path, NESTED_SHA256)


@pytest.mark.parametrize("family", list(ModelFamily), ids=lambda f: f.value)
def test_model_format_v1_is_pinned(tmp_path, family):
    path = MODELS / f"{family.value}.json"
    X, y = two_blobs()
    expected = json.loads((MODELS / "predictions.json").read_text(encoding="utf-8"))[family.value]

    model = load_model(path)
    assert model.family is family
    assert model.predict_batch(X).tolist() == expected

    save_model(model, tmp_path / "resaved.json")
    assert (tmp_path / "resaved.json").read_bytes() == path.read_bytes()

    payload = json.loads(path.read_text(encoding="utf-8"))
    spec = ModelSpec(family=family, hyperparameters=payload["hyperparameters"], seed=payload["seed"])
    save_model(train(spec, (X, y)), tmp_path / "retrained.json")
    assert (tmp_path / "retrained.json").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("seed", sorted(FOREST_SHA256))
def test_forest_state_is_pinned(seed):
    X, y = concept_profile_matrix()
    state = RandomForest(200, seed=seed).fit(X, y).get_state()
    assert hashlib.sha256(json.dumps(state, sort_keys=True).encode("utf-8")).hexdigest() == FOREST_SHA256[seed]
