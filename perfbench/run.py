#!/usr/bin/env python3
"""Benchmark of ``newsbarriers run`` on seeded synthetic corpora.

Run from the root of a newsbarriers checkout:

    python3 perfbench/run.py --workload forest-sweep --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all                  # every workload, one table

With ``--trace 0`` the run measures set-up and repeated ``run_pipeline`` calls
with tracing off and reports ``run_s``, ``setup_s`` and ``peak_rss_mb``. With
``--trace 1`` it runs the kernel microbenchmarks, then alternates untraced and
traced calls and reports the per-layer breakdown of the traced call whose
``pipeline.run_s`` is the median. Every call's outputs are checked. The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. Full results, provenance and spans go to ``.perfbench/results``.
See perfbench/README.md for what each number means.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

PINNED_THREADS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 5
DEFAULT_SEED = 0
WORKLOAD_NAMES = ("forest-sweep", "nested-svm-knn", "bulk-annotate")

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Per-layer numbers printed in the result line. Seconds are listed only for
# spans that every workload executes; the others are in the results file.
PER_LAYER = {
    "pipeline.run_s": "s",
    "pipeline.self_s": "s",
    "trace.overhead_s": "s",
    "knowledge.load_s": "s",
    "ingest.parse_s": "s",
    "ingest.examples_s": "s",
    "ingest.examples": "count",
    "features.vocab_s": "s",
    "features.assemble_s": "s",
    "features.assemble_n": "count",
    "annotate.build_self_s": "s",
    "annotate.save_s": "s",
    "annotate.instances": "count",
    "annotate.dropped": "count",
    "classifiers.fit_s": "s",
    "classifiers.predict_s": "s",
    "classifiers.fit.dummy.s": "s",
    "classifiers.fit.naive_bayes.s": "s",
    "classifiers.predict.dummy.s": "s",
    "classifiers.predict.naive_bayes.s": "s",
    **{f"classifiers.{kind}.{group}.n": "count"
       for group in ("svm", "knn", "decision_tree", "random_forest", "naive_bayes", "dummy")
       for kind in ("fit", "predict")},
    "classifiers.tree_nodes": "count",
    "evaluate.cv_s": "s",
    "evaluate.self_s": "s",
    "evaluate.kfold_s": "s",
    "evaluate.report_s": "s",
    "evaluate.sweep_n": "count",
    "kernel.tree_fit_s": "s",
    "kernel.forest100_fit_s": "s",
    "kernel.tree_predict_s": "s",
    "kernel.knn_predict_s": "s",
    "kernel.svm_fit_s": "s",
}


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_program():
    """Put the checkout's own sources first on sys.path; never an installed copy."""
    if not (ROOT / "src" / "newsbarriers" / "__init__.py").is_file():
        fail(f"no src/newsbarriers under {ROOT}; run from the root of a newsbarriers checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import newsbarriers

    if Path(newsbarriers.__file__).resolve().parent != (ROOT / "src" / "newsbarriers").resolve():
        fail(f"imported newsbarriers from {newsbarriers.__file__}, not from this checkout")


def setup_probe(workload: str, seed: int, out: str) -> None:
    """Child process: import everything, write the corpus, report when done."""
    import_program()
    from workloads import WORKLOADS, corpus_digests, make_corpus

    digests = corpus_digests(make_corpus(WORKLOADS[workload], seed, out))
    print(json.dumps({"ready": time.monotonic(), "digests": digests}))


def measure_setup(workload: str, seed: int, work: Path, digests: dict) -> list:
    """Wall time from spawning a fresh interpreter until its corpus is written.

    time.monotonic is CLOCK_MONOTONIC, one clock for parent and child.
    """
    times = []
    for i in range(SETUP_PROBES):
        out = work / f"probe{i}"
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(out), "--workload", workload, "--seed", str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["digests"] != digests:
            raise RuntimeError("the same seed generated a different corpus")
        times.append(result["ready"] - start)
        shutil.rmtree(out)
    return times


def provenance(seed: int, digests: dict) -> dict:
    import numpy

    commit = ""
    if (ROOT / ".git").exists():  # never report the commit of an enclosing repository
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=False
            ).stdout.strip()
        except OSError:
            pass
    return {
        "git_commit": commit or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": PINNED_THREADS,
        "seed": seed,
        "corpus_sha256": digests,
    }


class Calls:
    """Times run_pipeline calls on one corpus and checks each call's outputs."""

    def __init__(self, workload, seed, paths, work):
        from checks import expected_labels, load_golden

        self.workload, self.seed, self.paths, self.work = workload, seed, paths, work
        self.expected = expected_labels(paths["truth"], workload.barriers)
        golden = load_golden().get(workload.name, {})
        self.golden_sha = golden.get("report_sha256") if golden.get("seed") == seed else None
        self.first_report = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def call(self, recorder=None):
        """One checked call; returns its wall time, or None if it raised."""
        import newsbarriers.pipeline
        from checks import check_call
        from tracing import traced
        from workloads import pipeline_config

        out = self.work / "run"
        if out.exists():
            shutil.rmtree(out)
        config = pipeline_config(self.workload, self.paths, out, self.seed)
        self.attempted += 1
        try:
            if recorder is None:
                start = time.perf_counter()
                newsbarriers.pipeline.run_pipeline(config)
                elapsed = time.perf_counter() - start
            else:
                with traced(recorder):
                    start = time.perf_counter()
                    newsbarriers.pipeline.run_pipeline(config)
                    elapsed = time.perf_counter() - start
        except Exception as exc:  # a failing call is counted, not fatal
            self.failed += 1
            self.problems.append(f"call {self.attempted}: {type(exc).__name__}: {exc}")
            return None
        report = (out / "report.csv").read_bytes()
        if self.first_report is None:
            self.first_report = report
        problems = check_call(out, self.expected, report, self.first_report, self.golden_sha)
        if problems:
            self.failed += 1
            self.problems.extend(f"call {self.attempted}: {p}" for p in problems)
        return elapsed


def loop(seconds: float, step, min_steps: int) -> None:
    """Repeat step() while the next one is expected to end within ``seconds``."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(durations) >= min_steps and elapsed + statistics.median(durations) > seconds:
            return


def run_untraced(calls: Calls, seconds: float) -> dict:
    times = []
    # two calls at least, so every run compares two reports of one corpus
    loop(seconds, lambda: times.append(calls.call()), 2)
    done = [t for t in times if t is not None]
    return {"run_s": statistics.median(done) if done else None, "run_s_samples": done}


def run_traced(calls: Calls, seconds: float) -> dict:
    from tracing import LAYERS, Recorder, layer_metrics, spans_jsonable

    untraced, traced_runs = [], []

    def pair():
        untraced.append(calls.call())
        recorder = Recorder()
        if calls.call(recorder) is not None:
            traced_runs.append(recorder)

    loop(seconds, pair, 1)
    untraced = [t for t in untraced if t is not None]
    if not traced_runs or not untraced:
        return {}
    breakdowns = sorted(((layer_metrics(r), r) for r in traced_runs), key=lambda m: m[0]["pipeline.run_s"])
    for m, _ in breakdowns:
        layer_sum = sum(m[f"{layer}.self_s"] for layer in LAYERS)
        if abs(layer_sum - m["pipeline.run_s"]) > 1e-6 * max(1.0, m["pipeline.run_s"]):
            calls.problems.append(f"layer self times sum to {layer_sum}, traced run_s is {m['pipeline.run_s']}")
    metrics, recorder = breakdowns[(len(breakdowns) - 1) // 2]
    metrics["trace.overhead_s"] = statistics.median(m["pipeline.run_s"] for m, _ in breakdowns) - statistics.median(untraced)
    return {"metrics": metrics, "spans": spans_jsonable(recorder), "untraced_run_s": untraced}


def run_one(args) -> int:
    import_program()
    from workloads import WORKLOADS, corpus_digests, make_corpus

    workload = WORKLOADS[args.workload]
    work = OUT_DIR / "work" / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        paths = make_corpus(workload, args.seed, work / "corpus")
        digests = corpus_digests(paths)
        calls = Calls(workload, args.seed, paths, work)
        record = {"workload": workload.name, "why": workload.why, "provenance": provenance(args.seed, digests)}
        if args.trace:
            from kernels import run_kernels

            kernel_metrics, shape = run_kernels(work / "kernel")
            traced = run_traced(calls, args.seconds)
            if not traced:
                fail("no traced call completed: " + "; ".join(calls.problems[:3]), 1)
            breakdown = {**traced["metrics"], **kernel_metrics}
            record.update(breakdown=breakdown, kernel_shape=list(shape), untraced_run_s=traced["untraced_run_s"])
            (results / f"{workload.name}-seed{args.seed}-spans.json").write_text(json.dumps(traced["spans"]), encoding="utf-8")
            metrics = {name: (breakdown[name], unit) for name, unit in PER_LAYER.items()}
        else:
            setup = measure_setup(workload.name, args.seed, work, digests)
            untraced = run_untraced(calls, args.seconds)
            if untraced["run_s"] is None:
                fail("no pipeline call completed: " + "; ".join(calls.problems[:3]), 1)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            record.update(setup_s_samples=setup, run_s_samples=untraced["run_s_samples"])
            measured = {"run_s": untraced["run_s"], "setup_s": statistics.median(setup), "peak_rss_mb": peak_rss_mb}
            metrics = {name: (measured[name], unit) for name, unit in END_TO_END.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_ratio = calls.failed / calls.attempted
    correct = calls.failed == 0 and not calls.problems
    record.update(
        correct=correct,
        attempted=calls.attempted,
        failed=calls.failed,
        failed_ratio=failed_ratio,
        problems=calls.problems,
        metrics={name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    )
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8"
    )
    for problem in calls.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    if args.trace:
        for name, value in sorted(record["breakdown"].items()):
            if isinstance(value, int):
                print(f"  {name:40s} {value:14d} count")
            else:
                print(f"  {name:40s} {value:14.6f} s")
    else:
        for name, (value, unit) in metrics.items():
            print(f"  {name:40s} {value:14.6f} {unit}")
    print(f"  {'failed_ratio':40s} {failed_ratio:14.6f} ratio ({calls.failed}/{calls.attempted} calls)")
    print(json.dumps({"correct": correct, "attempted": calls.attempted, "failed": calls.failed, "metrics": record["metrics"]}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, one table of the end-to-end numbers."""
    rows = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            fail(f"{name} exited with {proc.returncode}", proc.returncode)
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    for name, result in rows:
        print(f"{name}  correct={result['correct']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:40s} {entry['value']:14.6f} {entry['unit']}")
        print(f"  {'failed_ratio':40s} {result['failed'] / result['attempted']:14.6f} ratio")
    return 0 if all(r["correct"] for _, r in rows) else 1


def main(argv=None) -> int:
    # BLAS and OpenMP read these once, when numpy loads; set-up probes inherit them.
    os.environ.update(PINNED_THREADS)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.setup_probe)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
