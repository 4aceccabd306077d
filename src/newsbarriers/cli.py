"""Command-line entry point.

Subcommands: run, synth, concept-freq, annotate, train, evaluate, report.
Exit codes: 0 success, 1 configuration error, 2 data error, 3 internal error.
"""

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path

from .annotate import load_barrier_dataset
from .classifiers import ModelSpec, load_model, save_model, train
from .config import ALL_BARRIERS, PipelineConfig, load_config, parse_family, parse_value, set_option
from .errors import ConfigError, DataError
from .evaluate import micro_metrics, parse_report_csv, render_report
from .knowledge import BarrierKind
from .pipeline import annotate_corpus, build_vocab, ingest_corpus, make_out_dir, run_pipeline, stage
from .synth import SyntheticSpec, generate_corpus


def _add_pipeline_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file; explicit flags override it")
    parser.add_argument("--pairs")
    parser.add_argument("--concepts")
    parser.add_argument("--countries")
    parser.add_argument("--publishers")
    parser.add_argument("--out")
    parser.add_argument("--event")
    parser.add_argument("--barriers", help="comma-separated subset of: " + ",".join(ALL_BARRIERS))
    parser.add_argument("--models", help="comma-separated model families")
    parser.add_argument("--vocab-size", dest="vocab_size")
    parser.add_argument("--threshold")
    parser.add_argument("--k-folds", dest="k_folds")
    parser.add_argument("--seed")
    parser.add_argument("--grid", action="append", default=None, metavar="FAMILY.PARAM=V1,V2",
                        help="override one family's sweep grid; repeatable")
    parser.add_argument("--economic-features", dest="economic_features",
                        help="comma-separated subset of the economic indicators")
    parser.add_argument("--profile-side", dest="profile_side", choices=("source", "target"))
    parser.add_argument("--global-vocab", dest="global_vocab", action=argparse.BooleanOptionalAction)
    parser.add_argument("--nested", action=argparse.BooleanOptionalAction)
    parser.add_argument("--fold-mean", dest="fold_mean", action=argparse.BooleanOptionalAction)
    parser.add_argument("--scale-profiles", dest="scale_profiles", action=argparse.BooleanOptionalAction)


def _build_config(args) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    if args.out is None and not args.config and "NEWSBARRIERS_OUT" in os.environ:
        config.out = os.environ["NEWSBARRIERS_OUT"]
    options = [(f.name, getattr(args, f.name, None)) for f in fields(PipelineConfig)]
    for item in args.grid or ():
        head, _, values = item.partition("=")
        options.append(("grid." + head.strip(), values))
    for key, value in options:
        if value is not None:
            try:
                set_option(config, key, str(value))
            except ConfigError as exc:
                raise ConfigError(f"arguments: {exc}") from None
    return config


def seed(text: str) -> int:
    """argparse type of ``--seed``: numpy seeds are non-negative integers."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def _parse_param(text: str):
    key, sep, raw = text.partition("=")
    if not sep:
        raise ConfigError(f"param: expected NAME=VALUE, got {text!r}")
    return key.strip(), parse_value(raw, "param")


def _load_dataset(args):
    with stage("data"):
        return load_barrier_dataset(args.data, BarrierKind(args.barrier) if args.barrier else None)


def cmd_run(args) -> int:
    run_pipeline(_build_config(args))
    return 0


def cmd_annotate(args) -> int:
    config = _build_config(args)
    config.validate()
    annotate_corpus(config)
    return 0


def cmd_concept_freq(args) -> int:
    config = _build_config(args)
    config.vocab_size = args.n
    config.validate()
    profiles, publishers, index, examples, _ = ingest_corpus(config)
    vocab = build_vocab(config, examples, index)
    print("concept,frequency")
    for concept, frequency in vocab.entries:
        print(f"{concept},{frequency}")
    return 0


def cmd_synth(args) -> int:
    regimes = {}
    for item in args.regime or ():
        barrier, _, regime = item.partition("=")
        if not _:
            raise ConfigError(f"regime: expected BARRIER=same|diff|mixed, got {item!r}")
        regimes[barrier.strip()] = regime.strip()
    spec = SyntheticSpec(
        n_countries=args.n_countries,
        n_publishers=args.n_publishers,
        n_articles=args.n_articles,
        concept_pool_size=args.concept_pool,
        seed=args.seed,
        regimes=regimes,
        unknown_alignment_rate=args.unknown_alignment_rate,
        extra_unclassified_pairs=args.extra_pairs,
        event_label=args.event,
    )
    make_out_dir(args.out)
    paths = generate_corpus(spec, args.out)
    for name in ("pairs", "concepts", "countries", "publishers", "truth"):
        print(f"{name}: {paths[name]}")
    return 0


def cmd_train(args) -> int:
    params = dict(_parse_param(p) for p in args.param or ())
    spec = ModelSpec(family=parse_family(args.family, "family"), hyperparameters=params, seed=args.seed)
    model = train(spec, _load_dataset(args).arrays())
    with stage("out"):
        save_model(model, args.out)
    print(f"model: {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    model = load_model(args.model)
    X, y = _load_dataset(args).arrays()
    metrics = micro_metrics(model.predict_batch(X), y)
    print(f"ca={metrics.classification_accuracy!r}")
    print(f"micro_precision={metrics.micro_precision!r}")
    print(f"micro_recall={metrics.micro_recall!r}")
    print(f"micro_f1={metrics.micro_f1!r}")
    return 0


def cmd_report(args) -> int:
    with stage("rows"):
        try:
            text = Path(args.rows).read_text(encoding="utf-8")
        except OSError:
            raise ConfigError("not found") from None
        rendered = render_report(parse_report_csv(text), args.format)
    if args.out:
        with stage("out"):
            Path(args.out).write_text(rendered, encoding="utf-8")
    else:
        print(rendered, end="")
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors become configuration errors (exit 1) instead of argparse's exit 2."""

    def error(self, message):
        raise ConfigError(f"arguments: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="newsbarriers", description="Barrier detection pipeline for news spreading data")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full pipeline: ingest, annotate, cross-validate, report")
    _add_pipeline_options(p_run)
    p_run.set_defaults(func=cmd_run)

    p_annotate = sub.add_parser("annotate", help="ingest and write per-barrier dataset CSVs")
    _add_pipeline_options(p_annotate)
    p_annotate.set_defaults(func=cmd_annotate)

    p_freq = sub.add_parser("concept-freq", help="print the top-N concept document frequencies")
    _add_pipeline_options(p_freq)
    p_freq.add_argument("--n", type=int, default=300)
    p_freq.set_defaults(func=cmd_concept_freq)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus with planted labels")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--n-countries", type=int, default=5, dest="n_countries")
    p_synth.add_argument("--n-publishers", type=int, default=12, dest="n_publishers")
    p_synth.add_argument("--n-articles", type=int, default=100, dest="n_articles")
    p_synth.add_argument("--concept-pool", type=int, default=40, dest="concept_pool")
    p_synth.add_argument("--seed", type=seed, default=0)
    p_synth.add_argument("--regime", action="append", metavar="BARRIER=same|diff|mixed")
    p_synth.add_argument("--unknown-alignment-rate", type=float, default=0.0, dest="unknown_alignment_rate")
    p_synth.add_argument("--extra-pairs", type=int, default=10, dest="extra_pairs")
    p_synth.add_argument("--event", default="synthetic")
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser("train", help="train one model on a barrier dataset CSV")
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--family", required=True)
    p_train.add_argument("--param", action="append", metavar="NAME=VALUE")
    p_train.add_argument("--seed", type=seed, default=0)
    p_train.add_argument("--barrier", choices=ALL_BARRIERS)
    p_train.add_argument("--out", required=True)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="score a saved model against a dataset CSV")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--barrier", choices=ALL_BARRIERS)
    p_eval.set_defaults(func=cmd_evaluate)

    p_report = sub.add_parser("report", help="render a report.csv as markdown or csv")
    p_report.add_argument("--rows", required=True)
    p_report.add_argument("--format", choices=("markdown", "csv"), default="markdown")
    p_report.add_argument("--out")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        code, message = 1, str(exc)
    except DataError as exc:
        code, message = 2, str(exc)
    except Exception as exc:  # noqa: BLE001 - anything else is an internal failure
        code, message = 3, f"internal: {exc}"
    # one line, even when the cause quotes user text with line breaks in it
    print(message.replace("\r", "\\r").replace("\n", "\\n"), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
