"""The CLI error contract: a bad input file or flag ends with exit 1 (configuration)
or exit 2 (data) and one ``stage: cause`` line on stderr. Exit 3 is left for bugs."""

import copy
import io
import json
import math
import re
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from newsbarriers.cli import main
from newsbarriers.synth import SyntheticSpec, generate_corpus

PIPELINE_FILES = ("countries", "publishers", "pairs", "concepts")
CHEAP_RUN = ["--models", "most_frequent,knn", "--k-folds", "2", "--vocab-size", "10", "--grid", "knn.k=1,3"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A small corpus, a run of it (dataset and report files) and a saved model."""
    root = tmp_path_factory.mktemp("contract")
    paths = generate_corpus(
        SyntheticSpec(n_articles=40, n_publishers=10, seed=7, unknown_alignment_rate=0.1), root / "corpus"
    )
    files = {name: paths[name].read_bytes() for name in PIPELINE_FILES}
    code, err = call(["run", *corpus_args(paths), *CHEAP_RUN, "--out", str(root / "run")])
    assert code == 0, err
    files["dataset"] = (root / "run" / "dataset_cultural.csv").read_bytes()
    files["report"] = (root / "run" / "report.csv").read_bytes()
    files["config"] = (root / "run" / "config.txt").read_bytes()
    code, err = call(["train", "--data", str(root / "run" / "dataset_cultural.csv"), "--family", "knn",
                      "--out", str(root / "model.json")])
    assert code == 0, err
    files["model"] = (root / "model.json").read_bytes()
    return root, paths, files


def corpus_args(paths) -> list:
    return [arg for name in PIPELINE_FILES for arg in (f"--{name}", str(paths[name]))]


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


# a lowercase stage token, such as ``data``, ``grid.knn`` or ``annotate[economic]``, then ": "
STAGE = re.compile(r"[a-z][a-z0-9_.\[\]-]*: ")


def assert_contract(code, err):
    event(f"exit {code}")
    assert code in (0, 1, 2), err
    if code:
        assert err.endswith("\n") and err.count("\n") == 1, err
        assert STAGE.match(err), err


def argv_for(target, root, paths, path):
    """The command that reads ``path`` as the ``target`` input."""
    out = str(root / "out")
    if target in PIPELINE_FILES:
        args = corpus_args(paths)
        args[args.index(f"--{target}") + 1] = str(path)
        return ["run", *args, *CHEAP_RUN, "--out", out]
    if target == "dataset":
        return ["train", "--data", str(path), "--family", "naive_bayes", "--out", str(root / "out.json")]
    if target == "report":
        return ["report", "--rows", str(path)]
    if target == "config":
        return ["run", "--config", str(path), "--out", out]
    return ["evaluate", "--model", str(path), "--data", str(root / "run" / "dataset_cultural.csv")]


# The holes this contract closed, each seen at exit 3 (or exit 2 without a stage) before.
@pytest.mark.parametrize(
    "target,expected_code,prefix",
    [(name, 2, f"{name}: 'utf-8' codec can't decode") for name in PIPELINE_FILES]
    + [("dataset", 2, "data: 'utf-8' codec"), ("report", 2, "rows: 'utf-8' codec"),
       ("config", 1, "config: 'utf-8' codec")],
)
def test_non_utf8_input(inputs, target, expected_code, prefix):
    root, paths, files = inputs
    bad = root / f"bad_{target}"
    bad.write_bytes(files[target] + b"\xff\xfe\n")
    code, err = call(argv_for(target, root, paths, bad))
    assert (code, err.count("\n")) == (expected_code, 1)
    assert err.startswith(prefix), err


@pytest.mark.parametrize("argv,message", [
    (["run", "--out", "/dev/null/x"], "out: "),
    (["annotate", "--out", "/dev/null/x"], "out: "),
    (["run", "--models", ""], "models: must name at least one"),
    (["run", "--barriers", ""], "barriers: must name at least one"),
])
def test_unusable_out_and_empty_lists_are_config_errors(inputs, argv, message):
    root, paths, _ = inputs
    argv = [argv[0], *corpus_args(paths), *CHEAP_RUN, "--out", str(root / "out"), *argv[1:]]
    code, err = call(argv)
    assert code == 1 and err.count("\n") == 1
    assert err.startswith(message), err


@pytest.mark.parametrize("argv", [
    ["synth", "--out", "/dev/null/x"],
    ["report", "--rows", "{report}", "--out", "/dev/null/x"],
    ["train", "--data", "{dataset}", "--family", "knn", "--out", "/dev/null/x"],
])
def test_unusable_output_file_is_config_error(inputs, argv):
    root, _, _ = inputs
    run = root / "run"
    argv = [a.format(report=run / "report.csv", dataset=run / "dataset_cultural.csv") for a in argv]
    code, err = call(argv)
    assert code == 1 and err.startswith("out: ") and err.count("\n") == 1, err


# each exited 3 before: the run wrote these files outside any stage
@pytest.mark.parametrize("name", ["ingest_report.txt", "vocabulary.csv", "dataset_cultural.csv", "config.txt",
                                  "report.csv"])
def test_output_file_that_is_a_directory_is_a_config_error(inputs, name):
    root, paths, _ = inputs
    out = root / f"blocked_{name}"
    (out / name).mkdir(parents=True)
    code, err = call(["run", *corpus_args(paths), *CHEAP_RUN, "--out", str(out)])
    assert code == 1 and err.startswith("out: ") and err.count("\n") == 1, err


NOISE = (b"\xff", b"\x80", b"\x00", b"\n", b",", b'"', b"{", b"nan", b"-", b"1e999")
CELLS = ("", "nan", "inf", "-1", "1e999", "abc", "TRUE", "0", " ", '"')


@st.composite
def mutations(draw, data: bytes):
    """``data`` truncated, with bytes inserted, a line dropped or repeated, or one cell replaced
    or its row made one field shorter or longer."""
    lines = data.split(b"\n")
    kind = draw(st.sampled_from(("truncate", "insert", "drop", "repeat", "cell", "width")))
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data)))]
    if kind == "insert":
        at = draw(st.integers(0, len(data)))
        return data[:at] + draw(st.sampled_from(NOISE)) + data[at:]
    i = draw(st.integers(0, len(lines) - 1))
    if kind in ("drop", "repeat"):
        lines[i:i + 1] = [] if kind == "drop" else [lines[i]] * 2
        return b"\n".join(lines)
    cells = lines[i].split(b",")
    j = draw(st.integers(0, len(cells) - 1))
    if kind == "cell":
        cells[j] = draw(st.sampled_from(CELLS)).encode()
    elif draw(st.booleans()):
        cells.insert(j, b"0")
    else:
        del cells[j]
    lines[i] = b",".join(cells)
    return b"\n".join(lines)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(target=st.sampled_from(PIPELINE_FILES + ("dataset", "report", "config", "model")), data=st.data())
def test_mutated_inputs_never_exit_3(inputs, target, data):
    root, paths, files = inputs
    path = root / f"mutated_{target}"
    path.write_bytes(data.draw(mutations(files[target])))
    assert_contract(*call(argv_for(target, root, paths, path)))


BAD_VALUES = ("", " ", "nan", "inf", "-1", "0", "1.5", "1e999", "abc", "none", ",", "knn", "political,x",
              "a\nb", "x=1", "knn.k=0", "economic=diff")
PIPELINE_FLAGS = ("--threshold", "--k-folds", "--vocab-size", "--seed", "--models", "--barriers", "--grid",
                  "--economic-features", "--profile-side", "--event", "--config")
COMMAND_FLAGS = {
    "run": PIPELINE_FLAGS,
    "annotate": PIPELINE_FLAGS,
    "concept-freq": PIPELINE_FLAGS,
    "synth": ("--n-countries", "--n-publishers", "--n-articles", "--concept-pool", "--seed", "--regime",
              "--unknown-alignment-rate", "--extra-pairs"),
    "train": ("--family", "--param", "--seed"),
    "evaluate": ("--model", "--data"),
    "report": ("--format",),
}


def flag_values(command):
    """Bad values, and for all but ``synth`` random text (which could ask synth for millions of articles)."""
    values = st.sampled_from(BAD_VALUES)
    return values if command == "synth" else values | st.text(max_size=6)


def base_argv(command, root, paths) -> list:
    """A valid call of ``command`` on the fixture's files."""
    run = root / "run"
    if command in ("run", "annotate", "concept-freq"):
        return [command, *corpus_args(paths), *CHEAP_RUN, "--out", str(root / "out")]
    if command == "synth":
        return [command, "--out", str(root / "synth"), "--n-articles", "30"]
    if command == "train":
        return [command, "--data", str(run / "dataset_cultural.csv"), "--family", "knn", "--out", str(root / "m.json")]
    if command == "evaluate":
        return [command, "--data", str(run / "dataset_cultural.csv"), "--model", str(root / "model.json")]
    return [command, "--rows", str(run / "report.csv")]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command_flags=st.sampled_from(sorted(COMMAND_FLAGS)).flatmap(
        lambda command: st.tuples(
            st.just(command),
            st.lists(
                st.tuples(st.sampled_from(COMMAND_FLAGS[command]), flag_values(command)),
                min_size=1,
                max_size=3,
            ),
        )
    ),
)
def test_bad_flag_values_never_exit_3(inputs, command_flags):
    root, paths, _ = inputs
    command, flags = command_flags
    argv = base_argv(command, root, paths)
    for flag, value in flags:
        argv += [flag, value]
    assert_contract(*call(argv))


@pytest.mark.parametrize("command,flags,message", [
    ("run", ["--seed", "-1"], "seed: must not be negative"),
    ("synth", ["--seed", "-1"], "synth: seed must be an integer >= 0, got -1"),
    ("train", ["--seed", "-1"], "train: seed must be an integer >= 0, got -1"),
    ("run", ["--grid", "a\nb"], "arguments: grid.a\\nb: grid keys look like grid.<family>.<param>"),
])
def test_negative_seed_and_line_breaks(inputs, command, flags, message):
    root, paths, _ = inputs
    code, err = call(base_argv(command, root, paths) + flags)
    assert (code, err) == (1, message + "\n")


# Each of these printed its cause with no stage before.
@pytest.mark.parametrize("command,flags,code,message", [
    ("train", ["--data", "{header_only}"], 2, "data: no instances in the dataset"),
    ("evaluate", ["--data", "{header_only}"], 2, "data: no instances in the dataset"),
    ("train", ["--data", "{one_class}", "--family", "naive_bayes"], 2,
     "train: gaussian NB needs both classes in training data"),
    ("train", ["--param", "k=0"], 1, "train: kNN: k must be an integer >= 1, got 0"),
    ("synth", ["--n-articles", "0"], 1, "synth: counts must be positive"),
], ids=["train-header-only", "evaluate-header-only", "train-one-class", "train-param-range", "synth-no-articles"])
def test_every_failure_names_its_stage(inputs, tmp_path, command, flags, code, message):
    root, paths, files = inputs
    datasets = {"header_only": tmp_path / "header_only.csv", "one_class": tmp_path / "one_class.csv"}
    datasets["header_only"].write_bytes(files["dataset"].split(b"\n", 1)[0] + b"\n")
    datasets["one_class"].write_text("article_id,label,f0\na0,TRUE,1.0\na1,TRUE,2.0\n", encoding="utf-8")
    argv = base_argv(command, root, paths) + [flag.format(**datasets) for flag in flags]
    assert call(argv) == (code, message + "\n")


# Scaling an empty profile store exited 3. Scaled or not, a header-only countries.csv
# leaves every pair without its country.
@pytest.mark.parametrize("flags", [[], ["--scale-profiles"]], ids=["raw", "scaled"])
def test_header_only_countries_file_is_a_data_error(inputs, tmp_path, flags):
    root, paths, files = inputs
    countries = tmp_path / "countries.csv"
    countries.write_bytes(files["countries"].split(b"\n", 1)[0] + b"\n")
    argv = argv_for("countries", root, paths, countries) + flags
    assert call(argv) == (2, "experiment[economic]: no instances in economic dataset\n")


# csv.DictReader dropped the extra cell of a long row, and the file loaded.
@pytest.mark.parametrize("target,width", [("countries", 23), ("publishers", 4)])
def test_metadata_row_of_the_wrong_width_is_a_data_error(inputs, tmp_path, target, width):
    root, paths, files = inputs
    lines = files[target].split(b"\r\n")  # csv.writer ends rows with CRLF
    lines[2] += b",extra"
    bad = tmp_path / f"{target}.csv"
    bad.write_bytes(b"\r\n".join(lines))
    code, err = call(argv_for(target, root, paths, bad))
    assert (code, err) == (2, f"{target}: malformed row 3: expected {width} fields, got {width + 1}\n")


def test_nul_byte_in_a_path_is_a_config_error(inputs, tmp_path):
    root, _, files = inputs
    config = tmp_path / "config.txt"
    config.write_bytes(re.sub(rb"(?m)^out = .*$", b"out = run\0", files["config"]))
    assert call(["run", "--config", str(config)]) == (1, "config: holds a NUL byte\n")
    assert call(["report", "--rows", str(root / "run" / "report\0.csv")]) == (1, "arguments: an argument holds a NUL byte\n")


# ``--event $'\xff'`` reaches Python as a lone surrogate, which config.txt cannot hold in UTF-8:
# the run exited 3 and left .config.txt.tmp in --out.
def test_argument_that_is_not_utf8_is_a_config_error_and_leaves_no_temp_file(inputs, tmp_path):
    _, paths, _ = inputs
    out = tmp_path / "out"
    code, err = call(["run", *corpus_args(paths), *CHEAP_RUN, "--event", "\udcff", "--out", str(out)])
    assert (code, err.count("\n")) == (1, 1), err
    assert err.startswith("out: 'utf-8' codec can't encode character '\\udcff'"), err
    assert list(out.iterdir()) == []


CSV_INPUTS = {"countries": "countries", "publishers": "publishers", "pairs": "pairs", "dataset": "data",
              "report": "rows"}  # input -> stage name
DIALECT_CASES = [(target, case) for target in CSV_INPUTS for case in ("bom", "blank", "duplicate", "short", "long")]
DIALECT_CASES += [("concepts", "bom"), ("config", "bom")]


def outputs(target, paths, data: bytes, work: Path):
    """Exit code, stderr, stdout and every file written, when the command of ``target`` reads
    ``data`` from ``work``/input and writes under ``work``."""
    shutil.rmtree(work)
    work.mkdir()
    path = work / "input"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv_for(target, work, paths, path))
    files = {str(p.relative_to(work)): p.read_bytes() for p in sorted(work.rglob("*")) if p.is_file() and p != path}
    return code, err.getvalue(), out.getvalue(), files


# Every input file is read in one dialect. A byte-order mark failed every input; a blank row
# failed the report; a column named twice in a metadata or dataset header loaded, the last
# copy winning.
@pytest.mark.parametrize("target,case", DIALECT_CASES, ids=[f"{t}-{c}" for t, c in DIALECT_CASES])
def test_one_input_dialect(inputs, tmp_path, target, case):
    _, paths, files = inputs
    data = files[target]
    if case in ("bom", "blank"):
        clean = outputs(target, paths, data, tmp_path)
        assert clean[0] == 0, clean[1]
        if case == "bom":
            variant = b"\xef\xbb\xbf" + data
        else:
            rows = data.split(b"\r\n")  # csv.writer ends rows with CRLF
            variant = b"\r\n".join(rows[:2] + [b""] + rows[2:])
        assert outputs(target, paths, variant, tmp_path) == clean
        return
    rows = data.split(b"\r\n")[:-1]
    width = rows[0].count(b",") + 1
    if case == "duplicate":
        rows = [row + b"," + row.rsplit(b",", 1)[-1] for row in rows]
        message = f"malformed row 1: column {rows[0].rsplit(b',', 1)[-1].decode()!r} named twice"
    else:
        rows[2] = rows[2].rsplit(b",", 1)[0] if case == "short" else rows[2] + b",0"
        message = f"malformed row 3: expected {width} fields, got {width + (1 if case == 'long' else -1)}"
    code, err, _, _ = outputs(target, paths, b"".join(row + b"\r\n" for row in rows), tmp_path)
    assert (code, err) == (2, f"{CSV_INPUTS[target]}: {message}\n")


MODELS = Path(__file__).parent / "data" / "models"
MODEL_NAMES = sorted(p.stem for p in MODELS.glob("*.json") if p.stem != "predictions")
MODEL_SECTIONS = ("parameters", "standardization", "n_features")
# wrong type, out of range (every saved model has 3 features), not finite, null, or finite
# but subnormal or huge, so that a score overflows
LEAF_VALUES = (None, "x", True, False, [], {}, 0, -1, -2, 3, 99, 2**70, 0.5, 1.5, -1.0, 0.0, math.inf, math.nan,
               5e-324, 1e308, -1e308)


def model_payload(name: str) -> dict:
    return json.loads((MODELS / f"{name}.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def model_dataset(tmp_path_factory):
    """A dataset CSV with the 3 feature columns every saved model in tests/data/models expects."""
    path = tmp_path_factory.mktemp("models") / "dataset.csv"
    rows = [f"a{i},{'TRUE' if i % 2 else 'FALSE'},{i - 2.5},{0.5 * i},{(-1) ** i}" for i in range(6)]
    path.write_text("\n".join(["article_id,label,f0,f1,f2", *rows]) + "\n", encoding="utf-8")
    return path


def node_paths(node, path=()):
    """The path of ``node`` and of every object, list and value under it."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from node_paths(child, path + (key,))


def node_at(payload, path: tuple):
    for key in path:
        payload = payload[key]
    return payload


def mutated(payload: dict, path: tuple, value) -> dict:
    payload = copy.deepcopy(payload)
    node_at(payload, path[:-1])[path[-1]] = value
    return payload


def evaluate_payload(payload, dataset, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return call(["evaluate", "--model", str(path), "--data", str(dataset)])


@st.composite
def model_mutations(draw):
    """One saved model with one node under parameters, standardization or n_features
    replaced by a wrong or out-of-range value, or a list made one entry shorter or longer."""
    name = draw(st.sampled_from(MODEL_NAMES))
    payload = model_payload(name)
    paths = [(section, *rest) for section in MODEL_SECTIONS for rest in node_paths(payload[section])]
    path = draw(st.sampled_from(paths))
    old = node_at(payload, path)
    if isinstance(old, list) and draw(st.booleans()):
        value = old[:-1] if draw(st.booleans()) else old + old[-1:]
    else:
        value = draw(st.sampled_from(LEAF_VALUES))
    return name, path, mutated(payload, path, value)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=model_mutations())
def test_structurally_mutated_model_files_never_exit_3(model_dataset, tmp_path, case):
    name, path, payload = case
    code, err = evaluate_payload(payload, model_dataset, tmp_path)
    event(f"{name} exit {code}")
    assert code in (0, 2), (path, err)
    if code:
        assert err.endswith("\n") and err.count("\n") == 1, err
    else:
        assert err == "", (path, err)


# Each of these loaded and then failed at exit 3, or predicted at exit 0 from a model
# that broadcast or took the log of a negative variance, before every field had a
# declared type, shape and range.
MODEL_HOLES = [
    ("decision_tree", ("parameters", "tree", "feature", 0), 99, "parameters.tree.feature"),
    ("random_forest", ("parameters", "trees", 1, "feature", 0), 99, "parameters.trees[1].feature"),
    ("decision_tree", ("parameters", "tree", "threshold", 0), "a", "parameters.tree.threshold"),
    ("svm", ("parameters", "weights"), [1.0], "parameters.weights"),
    ("svm", ("standardization",), None, "standardization"),
    ("knn", ("standardization",), None, "standardization"),
    ("knn", ("parameters", "X"), [[0.0]] * 40, "parameters.X"),
    ("naive_bayes", ("parameters", "log_prior"), [-0.5], "parameters.log_prior"),
    ("naive_bayes", ("parameters", "mean"), [[0.0], [1.0]], "parameters.mean"),
    ("naive_bayes", ("parameters", "var", 0, 0), -1.0, "parameters.var"),
    ("stratified", ("parameters", "p_true"), "x", "parameters.p_true"),
    ("most_frequent", ("parameters", "prediction"), [1, 2], "parameters.prediction"),
    ("uniform", ("n_features",), "3", "n_features"),
    ("uniform", ("n_features",), True, "n_features"),
    ("uniform", ("seed",), -1, "seed"),
    ("uniform", ("seed",), "7", "seed"),
]


@pytest.mark.parametrize("name,path,value,names", MODEL_HOLES,
                         ids=[f"{name}-{'.'.join(map(str, path))}" for name, path, _, _ in MODEL_HOLES])
def test_malformed_model_file_holes(model_dataset, tmp_path, name, path, value, names):
    code, err = evaluate_payload(mutated(model_payload(name), path, value), model_dataset, tmp_path)
    assert (code, err.count("\n")) == (2, 1), err
    assert err.startswith(f"model: malformed model file: {names}"), err


def test_model_and_dataset_feature_counts_differ(model_dataset, tmp_path):
    narrow = tmp_path / "narrow.csv"
    lines = model_dataset.read_text(encoding="utf-8").splitlines()
    narrow.write_text("\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n", encoding="utf-8")
    code, err = call(["train", "--data", str(narrow), "--family", "knn", "--out", str(tmp_path / "model.json")])
    assert code == 0, err
    code, err = call(["evaluate", "--model", str(tmp_path / "model.json"), "--data", str(model_dataset)])
    assert (code, err) == (2, "evaluate: expected rows of 2 features, got an array of shape (6, 3)\n")
