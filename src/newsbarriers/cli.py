"""Command-line entry point.

Subcommands: run, synth, concept-freq, annotate, train, evaluate, report.
Exit codes: 0 success, 1 configuration error, 2 data error, 3 internal error.
"""

import argparse
import os
import sys
from dataclasses import fields

from .annotate import load_barrier_dataset
from .classifiers import ModelSpec, load_model, save_model, train
from .config import PipelineConfig, format_option, load_config, parse_family, parse_value, set_option
from .errors import ConfigError, DataError
from .evaluate import REPORT_COLUMNS, accuracy, parse_report_csv, render_report
from .pipeline import annotate_corpus, build_vocab, ingest_corpus, make_out_dir, run_pipeline, stage
from .synth import SyntheticSpec, generate_corpus
from .tables import csv_field, write_file


def _add_pipeline_options(parser: argparse.ArgumentParser) -> None:
    """One flag per PipelineConfig field, ``--vocab-size`` for ``vocab_size``, parsed by ``set_option``."""
    parser.add_argument("--config", help="key=value config file; explicit flags override it")
    for f in fields(PipelineConfig):
        if f.type is dict:
            parser.add_argument("--grid", action="append", metavar="FAMILY.PARAM=V1,V2",
                                help="override one family's sweep grid; repeatable")
            continue
        default = format_option(f.default)
        parser.add_argument("--" + f.name.replace("_", "-"), help=f"default: {default}" if default else None,
                            action=argparse.BooleanOptionalAction if f.type is bool else "store")


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


def _parse_param(text: str):
    key, sep, raw = text.partition("=")
    if not sep:
        raise ConfigError(f"param: expected NAME=VALUE, got {text!r}")
    return key.strip(), parse_value(raw, "param")


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
    config.validate()
    _, index, examples, _ = ingest_corpus(config)
    vocab = build_vocab(config, examples, index)
    print("concept,frequency")
    for concept, frequency in vocab:
        print(f"{csv_field(concept)},{frequency}")
    return 0


def cmd_synth(args) -> int:
    options = {f.name: getattr(args, f.name) for f in fields(SyntheticSpec)}
    regimes = {}
    for item in options.pop("regimes") or ():
        barrier, sep, regime = item.partition("=")
        if not sep:
            raise ConfigError(f"regime: expected BARRIER=same|diff|mixed, got {item!r}")
        regimes[barrier.strip()] = regime.strip()
    spec = SyntheticSpec(regimes=regimes, **{name: value for name, value in options.items() if value is not None})
    make_out_dir(args.out)
    with stage("synth"):
        paths = generate_corpus(spec, args.out)
    for name in ("pairs", "concepts", "countries", "publishers", "truth"):
        print(f"{name}: {paths[name]}")
    return 0


def cmd_train(args) -> int:
    params = dict(_parse_param(p) for p in args.param or ())
    spec = ModelSpec(family=parse_family(args.family, "family"), hyperparameters=params, seed=args.seed)
    with stage("data"):
        data = load_barrier_dataset(args.data)
    with stage("train"):
        model = train(spec, data)
    with stage("out"):
        save_model(model, args.out)
    print(f"model: {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    with stage("model"):
        model = load_model(args.model)
    with stage("data"):
        X, y = load_barrier_dataset(args.data)
    with stage("evaluate"):
        value = accuracy(model.predict_batch(X), y)
    for name in REPORT_COLUMNS[2:]:  # the paper's four metrics, each the accuracy
        print(f"{name}={value!r}")
    return 0


def cmd_report(args) -> int:
    with stage("rows"):
        rendered = render_report(parse_report_csv(args.rows), args.format)
    if args.out:
        with stage("out"):
            write_file(args.out, rendered)
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

    p_freq = sub.add_parser("concept-freq", help="print the vocabulary: the top --vocab-size concept frequencies")
    _add_pipeline_options(p_freq)
    p_freq.set_defaults(func=cmd_concept_freq)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus with planted labels")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--n-countries", dest="n_countries", type=int)
    p_synth.add_argument("--n-publishers", dest="n_publishers", type=int)
    p_synth.add_argument("--n-articles", dest="n_articles", type=int)
    p_synth.add_argument("--concept-pool", dest="concept_pool_size", type=int)
    p_synth.add_argument("--seed", dest="seed", type=int)
    p_synth.add_argument("--regime", dest="regimes", action="append", metavar="BARRIER=same|diff|mixed")
    p_synth.add_argument("--unknown-alignment-rate", dest="unknown_alignment_rate", type=float)
    p_synth.add_argument("--extra-pairs", dest="extra_unclassified_pairs", type=int)
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser("train", help="train one model on a barrier dataset CSV")
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--family", required=True)
    p_train.add_argument("--param", action="append", metavar="NAME=VALUE")
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--out", required=True)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="score a saved model against a dataset CSV")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.set_defaults(func=cmd_evaluate)

    p_report = sub.add_parser("report", help="render a report.csv as markdown or csv")
    p_report.add_argument("--rows", required=True)
    p_report.add_argument("--format", choices=("markdown", "csv"), default="markdown")
    p_report.add_argument("--out")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        # options name paths, and a path cannot hold a NUL byte (nor can a POSIX command line)
        if any("\0" in arg for arg in argv or ()):
            raise ConfigError("arguments: an argument holds a NUL byte")
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
