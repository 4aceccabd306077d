from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from newsbarriers import pipeline
from newsbarriers.config import PipelineConfig
from newsbarriers.knowledge import BARRIERS
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


def test_reports_follow_the_barrier_table_not_the_flag(tmp_path, corpus):
    """Rows and footer both list barriers in ``BARRIERS`` order, whatever order ``--barriers`` gives."""
    reports = []
    for barriers in (("economic", "timezone"), ("timezone", "economic")):
        config = replace(small_config(corpus, tmp_path / "-".join(barriers), ("most_frequent",)), barriers=barriers)
        pipeline.run_pipeline(config)
        reports.append({name: (Path(config.out) / name).read_bytes() for name in ("report.csv", "report.md")})
    assert reports[0] == reports[1]
    footer = [line for line in reports[0]["report.md"].decode().splitlines() if " instances (" in line]
    assert [line.split(":")[0] for line in footer] == ["Economic", "Time Zone"]


def test_barriers_share_one_concept_block(tmp_path, corpus):
    """Every instance of every barrier holds a row of the run's one uint8 concept block."""
    config = replace(small_config(corpus, tmp_path / "run", ("most_frequent",)), barriers=tuple(BARRIERS))
    datasets, _, _ = pipeline.annotate_corpus(config)
    assert list(datasets) == list(BARRIERS) and all(d.instances for d in datasets.values())
    block = datasets["economic"].instances[0].concepts.base
    assert block.dtype == np.uint8 and block.ndim == 2
    assert all(i.concepts.base is block for d in datasets.values() for i in d.instances)
