"""Output checks applied to every measured pipeline call.

A call passes when its report.csv matches the recorded digest (at the seed
the digests were recorded for), every dataset label equals synth's planted
truth, and its report.csv bytes equal those of the run's first call.
"""

import hashlib
import json
from pathlib import Path

from newsbarriers.synth import load_truth

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def load_golden() -> dict:
    """{workload: {"seed": n, "report_sha256": hex}} recorded at a known-good commit."""
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def expected_labels(truth_path, barriers) -> dict:
    truth = load_truth(truth_path)
    return {b: [(a, label) for a, label in truth[b] if label != "DROPPED"] for b in barriers}


def dataset_labels(path) -> list:
    """(article_id, label) per row of a dataset CSV, in file order."""
    with open(path, encoding="utf-8") as fh:
        next(fh)
        return [tuple(line.split(",", 2)[:2]) for line in fh]


def check_call(out_dir, expected: dict, report: bytes, first_report: bytes, golden_sha: str = None) -> list:
    """Problems found in one call's outputs; an empty list means it passed."""
    out = Path(out_dir)
    problems = []
    for name in ("report.csv", "report.md", "config.txt"):
        if not (out / name).is_file():
            problems.append(f"{name} missing")
    if golden_sha is not None and hashlib.sha256(report).hexdigest() != golden_sha:
        problems.append("report.csv differs from the recorded digest")
    if report != first_report:
        problems.append("report.csv differs from the first call on the same corpus")
    for barrier, want in expected.items():
        path = out / f"dataset_{barrier}.csv"
        if not path.is_file():
            problems.append(f"{path.name} missing")
        elif dataset_labels(path) != want:
            problems.append(f"{path.name} labels differ from truth.csv")
    return problems
