"""Property tests: no user input makes the CLI exit with 1 (internal error).

Malformed batch files, reports and flags must exit 2 with a message;
well-formed ones exit 0.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robust_batches.cli import main

N, M = 6, 4

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)
MISSING = object()
truths = st.sampled_from(["good", "adversarial", MISSING]) | json_values
labels = st.sampled_from([0, 1]) | json_values
values = st.floats(-2.0, 2.0) | json_values


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse refuses the command line
        return exc.code


def _write(path, header, rows) -> None:
    path.write_text("\n".join(json.dumps(r) for r in [header, *rows]) + "\n")


def _rows(samples_of, truth_of):
    rows = []
    for i in range(M):
        row = {"id": i, "samples": samples_of(i)}
        if truth_of(i) is not MISSING:
            row["truth"] = truth_of(i)
        rows.append(row)
    return rows


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def clean_run(workdir):
    batches, report = workdir / "b.jsonl", workdir / "r.json"
    assert main([
        "simulate", "--target", "uniform:0,1", "--attack", "spike:1.0@0.5",
        "--m", "20", "--n", "30", "--beta", "0.2", "--seed", "1", "--out", str(batches),
    ]) == 0
    assert main([
        "clean", "--input", str(batches), "--k", "2", "--beta", "0.2", "--seed", "1",
        "--trigger", "5", "--stop", "4", "--out", str(report),
    ]) == 0
    return batches, report


@settings(max_examples=80, deadline=None)
@given(st.text(max_size=12) | st.text(alphabet="0123456789,- ", max_size=12))
@example("1,a")
@example("1,,2")
@example("99999999999999999999999")
def test_eval_subset_never_exits_1(clean_run, subset):
    batches, report = clean_run
    argv = ["eval", "--input", str(batches), "--report", str(report), f"--subset={subset}"]
    assert _exit_code(argv) in (0, 2)


@settings(max_examples=80, deadline=None)
@given(st.lists(truths, min_size=M, max_size=M), st.lists(labels, min_size=M, max_size=M))
@example(["bogus", "good", "good", "good"], [1, 1, 1, 1])
def test_labeled_file_never_exits_1(workdir, truth, label):
    rng = np.random.default_rng(0)

    def samples_of(i):
        samples = [[float(x), int(x < 0.5)] for x in rng.random(N)]
        samples[0][1] = label[i]
        return samples

    path = workdir / "labeled.jsonl"
    _write(path, {"n": N, "m": M, "labeled": True}, _rows(samples_of, truth.__getitem__))
    argv = ["classify", "--input", str(path), "--k", "1", "--beta", "0.2",
            "--trigger", "5", "--stop", "4", "--out", str(workdir / "cls.json")]
    rc = _exit_code(argv)
    assert rc in (0, 2)
    if "bogus" in truth:
        assert rc == 2


@settings(max_examples=80, deadline=None)
@given(st.lists(truths, min_size=M, max_size=M), st.lists(values, min_size=M, max_size=M))
@example(["bogus", "good", "good", "good"], [0.5, 0.5, 0.5, 0.5])
def test_unlabeled_file_never_exits_1(workdir, truth, value):
    rng = np.random.default_rng(0)

    def samples_of(i):
        samples = [float(x) for x in rng.random(N)]
        samples[0] = value[i]
        return samples

    path = workdir / "unlabeled.jsonl"
    _write(path, {"n": N, "m": M}, _rows(samples_of, truth.__getitem__))
    argv = ["clean", "--input", str(path), "--k", "1", "--beta", "0.2",
            "--trigger", "5", "--stop", "4", "--out", str(workdir / "clean.json")]
    rc = _exit_code(argv)
    assert rc in (0, 2)
    if "bogus" in truth:
        assert rc == 2


@pytest.fixture(scope="module")
def classify_run(workdir):
    batches, report = workdir / "l.jsonl", workdir / "cls.json"
    assert main([
        "simulate", "--target", "labeled:0,0.5,1|0.5,0.5|0.8,0.2", "--attack",
        "label_flip:1.0@0,0.25", "--m", "20", "--n", "30", "--beta", "0.2", "--seed", "1",
        "--out", str(batches),
    ]) == 0
    assert main([
        "classify", "--input", str(batches), "--k", "2", "--beta", "0.2", "--seed", "1",
        "--trigger", "5", "--stop", "4", "--out", str(report),
    ]) == 0
    return batches, report


bad_fields = (
    st.text(max_size=4)
    | st.floats(-1e6, 1e6).map(lambda v: math.floor(v) + 0.5)
    | st.booleans()
    | st.none()
    | st.lists(json_values, max_size=3)
)


@settings(max_examples=120, deadline=None)
@given(st.booleans(), st.data())
def test_eval_fuzzed_report_never_exits_1(workdir, clean_run, classify_run, labeled, data):
    """The cleaning section, shared by clean and classify reports, fuzzed
    one field at a time (or the whole report replaced)."""
    batches, report = classify_run if labeled else clean_run
    target = "labeled:0,0.5,1|0.5,0.5|0.8,0.2" if labeled else "uniform:0,1"
    doc = json.loads(report.read_text())
    field = data.draw(st.sampled_from([None, *sorted(doc["cleaning"])]), label="field")
    if field is None:
        doc = data.draw(json_values, label="report")
    else:
        doc["cleaning"][field] = data.draw(bad_fields, label="value")
    path = workdir / "fuzzed.json"
    path.write_text(json.dumps(doc))
    rc = _exit_code(["eval", "--input", str(batches), "--report", str(path), "--target", target])
    assert rc in (0, 2)
    if field == "k":
        assert rc == 2


SIZES = [-1, 0, 1, 2, 9, 10**6, 10**12]
FACTORS = ["nan", "inf", "-1", "0", "0.5", "5"]
BETAS = ["nan", "-0.1", "0", "0.2", "0.4", "0.41"]


UNLABELED_TARGET, LABELED_TARGET = "uniform:0,1", "labeled:0,0.5,1|0.5,0.5|0.8,0.2"
# (command, whether its batch file is labeled); eval scores either run
RUNS = [("clean", False), ("estimate", False), ("classify", True), ("eval", False), ("eval", True)]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(RUNS),
    st.booleans(),
    st.sampled_from(SIZES),
    st.sampled_from(SIZES),
    st.sampled_from(FACTORS),
    st.sampled_from(FACTORS),
    st.sampled_from(BETAS),
)
@example(("clean", False), False, 10**12, 0, "5", "4", "0.2")
@example(("estimate", False), False, 10**6, 1, "5", "4", "0.2")
@example(("classify", True), True, 10**12, 0, "5", "4", "0.2")
@example(("clean", False), True, 2, 0, "5", "4", "0.2")
@example(("estimate", False), True, 1, 1, "5", "4", "0.2")
@example(("classify", True), False, 2, 0, "5", "4", "0.2")
@example(("eval", False), True, 2, 0, "5", "4", "0.2")
@example(("eval", True), False, 2, 0, "5", "4", "0.2")
def test_cleaning_flag_values_never_exit_1(
    workdir, clean_run, classify_run, run, labeled_target, size, degree, trigger, stop, beta
):
    """Any flag values exit 0 or 2, and a target of the other kind than the
    batch file (labeled: with unlabeled batches, or the reverse) exits 2."""
    command, labeled_file = run
    target = LABELED_TARGET if labeled_target else UNLABELED_TARGET
    batches, report = classify_run if labeled_file else clean_run
    if command == "eval":
        argv = ["eval", "--input", str(batches), "--report", str(report), "--target", target]
    else:
        shape = ["--t", str(size), "--d", str(degree)] if command == "estimate" else ["--k", str(size)]
        argv = [
            command, "--input", str(batches), *shape, f"--beta={beta}", f"--trigger={trigger}",
            f"--stop={stop}", "--target", target, "--out", str(workdir / "flags.json"),
        ]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = _exit_code(argv)
    assert code in (0, 2)
    if labeled_target != labeled_file:
        assert code == 2
        assert err.getvalue().startswith("error:")
    elif command == "eval":  # eval reads no cleaning flags
        assert code == 0


ATTACKS = ["mean_shift:{}@0.4,0.6", "spike:{}@0.5", "replay_skew:{}@0.4,0.6",
           "label_flip:{}@0,0.25", "fk_targeted"]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["uniform:0,1", "labeled:0,0.5,1|0.5,0.5|0.8,0.2"]),
    st.sampled_from(ATTACKS),
    st.sampled_from(["nan", "inf", "-1", "0", "0.5", "1", "2"]),
)
def test_simulate_attack_magnitudes_never_exit_1(workdir, target, attack, magnitude):
    argv = [
        "simulate", "--target", target, "--attack", attack.format(magnitude), "--m", "10",
        "--n", "5", "--beta", "0.2", "--seed", "1", "--out", str(workdir / "sim.jsonl"),
    ]
    assert _exit_code(argv) in (0, 2)


# the json module fails on these with UnicodeDecodeError, RecursionError and
# ValueError, not JSONDecodeError
UNDECODABLE = {
    "non-UTF-8 byte": b'{"id": 0, "note": "\xff"}',
    "200,000 nested arrays": b"[" * 200_000,
    "4,301-digit integer": b'{"id": ' + b"1" * 4301 + b"}",
}
READERS = [  # (argv before --input, whether the batch file is labeled)
    (["clean", "--k", "1", "--beta", "0.2"], False),
    (["estimate", "--t", "1", "--d", "1", "--beta", "0.2"], False),
    (["classify", "--k", "1", "--beta", "0.2"], True),
    (["eval"], False),
]


@pytest.mark.parametrize("reader, labeled", READERS, ids=[argv[0] for argv, _ in READERS])
@pytest.mark.parametrize("case", sorted(UNDECODABLE))
def test_undecodable_files_exit_2_with_their_line(
    workdir, clean_run, classify_run, capsys, reader, labeled, case
):
    """In place of the header, of a batch line, or of the whole report of
    eval --report: exit 2, and the message names the file, and for a batch
    file the line."""
    batches, report = classify_run if labeled else clean_run
    lines = batches.read_bytes().splitlines(keepends=True)
    for lineno in (1, 2):
        bad = workdir / "undecodable.jsonl"
        bad.write_bytes(b"".join(lines[: lineno - 1]) + UNDECODABLE[case] + b"\n"
                        + b"".join(lines[lineno:]))
        argv = [*reader, "--input", str(bad), "--out", str(workdir / "u.json")]
        if reader == ["eval"]:
            argv += ["--report", str(report)]
        capsys.readouterr()
        assert _exit_code(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}:{lineno}: invalid JSON: ")
    if reader == ["eval"]:
        bad = workdir / "undecodable.json"
        bad.write_bytes(UNDECODABLE[case])
        assert _exit_code(["eval", "--input", str(batches), "--report", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: invalid JSON: ")


@settings(max_examples=80, deadline=None)
@given(st.integers(0, M), st.binary(max_size=40))
@example(1, b"\xff")
@example(0, b"[" * 200_000)
def test_any_bytes_in_place_of_a_line_never_exit_1(workdir, lineno, data):
    rng = np.random.default_rng(0)
    path = workdir / "bytes.jsonl"
    _write(path, {"n": N, "m": M}, _rows(lambda i: rng.random(N).tolist(), lambda i: "good"))
    lines = path.read_bytes().splitlines(keepends=True)
    lines[lineno] = data + b"\n"
    path.write_bytes(b"".join(lines))
    argv = ["clean", "--input", str(path), "--k", "1", "--beta", "0.2",
            "--trigger", "5", "--stop", "4", "--out", str(workdir / "bytes.json")]
    assert _exit_code(argv) in (0, 2)
