import dataclasses
import hashlib

import newsbarriers.evaluate
import newsbarriers.pipeline
from newsbarriers.pipeline import run_pipeline

from checks import check_call, dataset_labels, expected_labels
from tracing import LAYERS, Recorder, Span, layer_metrics, self_times, traced
from workloads import K_FOLDS, WORKLOADS, corpus_digests, make_corpus, pipeline_config


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", "pipeline", -1, 0.0, 10.0),
        Span("a", "annotate", 0, 1.0, 4.0),
        Span("a.inner", "features", 1, 2.0, 3.0),
        Span("b", "evaluate", 0, 5.0, 6.5),
    ]
    assert self_times(spans) == [10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5]
    assert sum(self_times(spans)) == spans[0].duration


def test_recorder_links_nested_calls_to_their_parent():
    recorder = Recorder()
    inner = recorder.wrap(lambda x: x + 1, "features", "inner")
    outer = recorder.wrap(lambda x: inner(x) * inner(x), "annotate", "outer")
    assert outer(1) == 4
    assert [(s.name, s.parent) for s in recorder.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert all(s.end >= s.start for s in recorder.spans)


SMALL = dataclasses.replace(
    WORKLOADS["forest-sweep"], n_articles=400, balance=(10, 10), models=("most_frequent", "naive_bayes", "knn")
)


def test_same_seed_same_corpus(tmp_path):
    first = corpus_digests(make_corpus(SMALL, 3, tmp_path / "a"))
    again = corpus_digests(make_corpus(SMALL, 3, tmp_path / "b"))
    other = corpus_digests(make_corpus(SMALL, 4, tmp_path / "c"))
    assert first == again
    assert first["pairs"] != other["pairs"]


def test_balanced_corpus_keeps_the_requested_labels(tmp_path):
    paths = make_corpus(SMALL, 5, tmp_path / "corpus")
    (labels,) = expected_labels(paths["truth"], SMALL.barriers).values()
    labels = [label for _, label in labels]
    assert sorted(labels) == ["FALSE"] * 10 + ["TRUE"] * 10


def test_traced_call_sums_to_its_run_time_and_restores_the_package(tmp_path):
    paths = make_corpus(SMALL, 1, tmp_path / "corpus")
    originals = (newsbarriers.pipeline.build_barrier_dataset, newsbarriers.evaluate.train)
    recorder = Recorder()
    with traced(recorder):
        assert newsbarriers.evaluate.train is not originals[1]
        newsbarriers.pipeline.run_pipeline(pipeline_config(SMALL, paths, tmp_path / "run", 1))
    assert (newsbarriers.pipeline.build_barrier_dataset, newsbarriers.evaluate.train) == originals
    metrics = layer_metrics(recorder)
    assert abs(sum(metrics[f"{layer}.self_s"] for layer in LAYERS) - metrics["pipeline.run_s"]) < 1e-9
    assert metrics["annotate.instances"] == 20
    assert metrics["classifiers.fit.knn.n"] == 10 * 7  # 10 folds x 7 grid points
    assert metrics["classifiers.fit.dummy.n"] == 10


def _run(tmp_path):
    paths = make_corpus(SMALL, 2, tmp_path / "corpus")
    out = tmp_path / "run"
    run_pipeline(pipeline_config(SMALL, paths, out, 2))
    return out, expected_labels(paths["truth"], SMALL.barriers)


def test_output_check_passes_a_correct_run(tmp_path):
    out, expected = _run(tmp_path)
    report = (out / "report.csv").read_bytes()
    assert check_call(out, expected, report, report, hashlib.sha256(report).hexdigest()) == []


def test_output_check_flags_a_corrupted_report(tmp_path):
    out, expected = _run(tmp_path)
    report = (out / "report.csv").read_bytes()
    corrupted = report.replace(b"0.", b"1.", 1)
    assert corrupted != report
    problems = check_call(out, expected, corrupted, report, hashlib.sha256(report).hexdigest())
    assert problems == [
        "report.csv differs from the recorded digest",
        "report.csv differs from the first call on the same corpus",
    ]


def test_output_check_flags_a_wrong_label(tmp_path):
    out, expected = _run(tmp_path)
    report = (out / "report.csv").read_bytes()
    path = out / f"dataset_{SMALL.barriers[0]}.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    label = dataset_labels(path)[0][1]
    lines[1] = lines[1].replace(label, "FALSE" if label == "TRUE" else "TRUE", 1)
    path.write_text("".join(lines), encoding="utf-8")
    assert check_call(out, expected, report, report) == [f"{path.name} labels differ from truth.csv"]


def test_report_matches_what_the_cli_writes(tmp_path):
    from newsbarriers.cli import main

    out, _ = _run(tmp_path)
    corpus = tmp_path / "corpus"
    code = main(
        [
            "run",
            "--pairs", str(corpus / "pairs.csv"),
            "--concepts", str(corpus / "concepts.jsonl"),
            "--countries", str(corpus / "countries.csv"),
            "--publishers", str(corpus / "publishers.csv"),
            "--event", "synthetic",
            "--barriers", ",".join(SMALL.barriers),
            "--models", ",".join(SMALL.models),
            "--k-folds", str(K_FOLDS),
            "--seed", "2",
            "--out", str(tmp_path / "cli"),
        ]
    )
    assert code == 0
    assert (tmp_path / "cli" / "report.csv").read_bytes() == (out / "report.csv").read_bytes()


def test_benchmark_json_lists_the_metrics_run_py_prints():
    import json
    from pathlib import Path

    import run

    spec = json.loads((Path(run.__file__).resolve().parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]}.items() <= {n: w.why for n, w in WORKLOADS.items()}.items()
