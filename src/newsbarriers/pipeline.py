"""End-to-end pipeline stages: ingest, annotate, experiment, report.

Each stage materializes its output under the run directory so stages can be
re-run and diffed independently. Failures carry a ``stage: cause`` message.
"""

from contextlib import contextmanager
from pathlib import Path

from .annotate import build_barrier_dataset, save_barrier_dataset
from .classifiers import family_from_name
from .config import PipelineConfig, config_to_text
from .errors import ConfigError, DataError
from .evaluate import dataset_footer, render_report, run_experiment
from .features import build_vocabulary, build_vocabulary_from_index
from .ingest import (
    count_class_weight_inconsistencies,
    filter_propagated,
    load_concept_annotations,
    parse_pairs,
    to_spreading_examples,
)
from .knowledge import BarrierKind, load_country_profiles, load_publishers
from .tables import write_file


@contextmanager
def stage(name: str):
    """Prefix errors with the stage name. A path that cannot be read or written is a
    configuration error."""
    try:
        yield
    except (ConfigError, OSError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    except DataError as exc:
        raise DataError(f"{name}: {exc}") from exc


def make_out_dir(path) -> Path:
    out = Path(path)
    with stage("out"):
        out.mkdir(parents=True, exist_ok=True)
    return out


def ingest_corpus(config: PipelineConfig):
    """Load stores and restructure the pair file into spreading examples."""
    with stage("countries"):
        profiles = load_country_profiles(config.countries)
    if config.scale_profiles:
        profiles = profiles.minmax_scaled()
    with stage("publishers"):
        publishers = load_publishers(config.publishers)
    with stage("pairs"):
        pairs = parse_pairs(config.pairs)
    with stage("concepts"):
        index = load_concept_annotations(config.concepts)
    propagated = filter_propagated(pairs)
    examples, report = to_spreading_examples(propagated, index, publishers, config.event)
    report.total_pairs = len(pairs)
    report.class_weight_inconsistencies = count_class_weight_inconsistencies(pairs)
    return profiles, publishers, index, examples, report


def build_vocab(config: PipelineConfig, examples, index):
    with stage("vocabulary"):
        if config.global_vocab:
            return build_vocabulary_from_index(index, config.vocab_size)
        return build_vocabulary(examples, config.vocab_size)


def annotate_corpus(config: PipelineConfig):
    """Ingest, build the vocabulary, and materialize per-barrier datasets."""
    out = make_out_dir(config.out)
    profiles, publishers, index, examples, report = ingest_corpus(config)
    with stage("out"):
        write_file(out / "ingest_report.txt", report.render())
    vocab = build_vocab(config, examples, index)
    with stage("out"):
        vocab.save(out / "vocabulary.csv")
    datasets = {}
    for name in config.barriers:
        kind = BarrierKind(name)
        with stage(f"annotate[{name}]"):
            dataset = build_barrier_dataset(
                examples,
                kind,
                profiles,
                publishers,
                vocab,
                threshold=config.threshold,
                profile_side=config.profile_side,
                economic_features=config.economic_features,
            )
        with stage("out"):
            save_barrier_dataset(dataset, out / f"dataset_{name}.csv")
        datasets[kind] = dataset
    return datasets, report, vocab


def run_pipeline(config: PipelineConfig):
    """Full run: write the config, annotate, cross-validate every model, write the reports.

    Both reports are rendered before either is written: a failed run leaves the old ones as they were."""
    config.validate()
    out = make_out_dir(config.out)
    with stage("out"):
        write_file(out / "config.txt", config_to_text(config))
    datasets, report, vocab = annotate_corpus(config)
    families = [family_from_name(m) for m in config.models]
    grids = config.model_grids()
    rows, footer = [], []
    for name in config.barriers:
        dataset = datasets[BarrierKind(name)]
        with stage(f"experiment[{name}]"):
            rows.extend(
                run_experiment(
                    dataset,
                    families,
                    k=config.k_folds,
                    seed=config.seed,
                    grids=grids,
                    nested=config.nested,
                    fold_mean=config.fold_mean,
                )
            )
        footer.extend(dataset_footer(dataset))
    reports = {"report.csv": render_report(rows, "csv"), "report.md": render_report(rows, "markdown", footer=footer)}
    with stage("out"):
        for name, text in reports.items():
            write_file(out / name, text)
    return rows
