import pytest

from newsbarriers import pipeline
from newsbarriers.config import PipelineConfig
from newsbarriers.synth import SyntheticSpec, generate_corpus


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return generate_corpus(SyntheticSpec(n_articles=30, seed=5), tmp_path_factory.mktemp("corpus"))


def small_config(paths, out, models) -> PipelineConfig:
    return PipelineConfig(
        pairs=str(paths["pairs"]),
        concepts=str(paths["concepts"]),
        countries=str(paths["countries"]),
        publishers=str(paths["publishers"]),
        out=str(out),
        event="synthetic",
        barriers=("economic",),
        models=models,
        vocab_size=10,
        k_folds=2,
    )


def test_failed_render_leaves_the_old_reports(tmp_path, corpus, monkeypatch):
    run = tmp_path / "run"
    pipeline.run_pipeline(small_config(corpus, run, ("most_frequent",)))
    before = {name: (run / name).read_bytes() for name in ("report.csv", "report.md")}

    render = pipeline.render_report

    def render_csv_only(rows, fmt="markdown", footer=None):
        if fmt == "markdown":
            raise RuntimeError("render failed")
        return render(rows, fmt, footer=footer)

    monkeypatch.setattr(pipeline, "render_report", render_csv_only)
    with pytest.raises(RuntimeError, match="render failed"):
        pipeline.run_pipeline(small_config(corpus, run, ("most_frequent", "uniform")))
    assert {name: (run / name).read_bytes() for name in before} == before
    assert "uniform" in (run / "config.txt").read_text(encoding="utf-8")  # written first
    assert not list(run.glob(".*.tmp"))


def test_reports_replace_the_old_ones(tmp_path, corpus):
    run = tmp_path / "run"
    pipeline.run_pipeline(small_config(corpus, run, ("most_frequent",)))
    pipeline.run_pipeline(small_config(corpus, run, ("most_frequent", "uniform")))
    report = (run / "report.csv").read_text(encoding="utf-8")
    assert "Uniform" in report and "Most Frequent" in report
    assert not list(run.glob(".*.tmp"))
