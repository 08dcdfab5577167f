import gc
import json
import math
import re
import time
import warnings

import numpy as np
import pytest

import robust_batches as rb
from robust_batches import cli
from robust_batches.cli import main
from robust_batches.estimate import fk_family_k
from robust_batches.io import (
    FileFormatError, canonical_json, csv_text, read_batches, read_json, write_batches,
)
from robust_batches.simulate import SpikeAttack, parse_target

LABELED_TARGET = "labeled:0,0.5,1|0.5,0.5|0.8,0.2"


def test_batch_file_roundtrip(tmp_path):
    coll = rb.build_collection(parse_target("uniform:0,1"), SpikeAttack(1.0, 0.5), 6, 10, 0.3, 1)
    path = tmp_path / "batches.jsonl"
    write_batches(coll, path)
    loaded = read_batches(path)
    assert loaded.truth == coll.truth and loaded.ids == coll.ids
    np.testing.assert_array_equal(loaded.samples, coll.samples)


def test_labeled_file_roundtrip(tmp_path):
    target = rb.parse_target("labeled:0,0.5,1|0.5,0.5|0.8,0.2")
    coll = rb.build_collection(target, None, 4, 6, 0.0, 2)
    path = tmp_path / "labeled.jsonl"
    write_batches(coll, path)
    loaded = read_batches(path)
    np.testing.assert_array_equal(loaded.x, coll.x)
    np.testing.assert_array_equal(loaded.y, coll.y)
    assert loaded.y.dtype == np.uint8


def test_read_rejects_nan(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"n": 2, "m": 1}\n{"id": 0, "samples": [1.0, NaN]}\n')
    with pytest.raises(FileFormatError, match="NaN"):
        read_batches(path)


def test_read_rejects_wrong_counts(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"n": 3, "m": 1}\n{"id": 0, "samples": [1.0, 2.0]}\n')
    with pytest.raises(FileFormatError, match="expected n=3"):
        read_batches(path)
    path.write_text('{"n": 2, "m": 2}\n{"id": 0, "samples": [1.0, 2.0]}\n')
    with pytest.raises(FileFormatError, match="m=2"):
        read_batches(path)
    path.write_text('{"m": 2}\n')
    with pytest.raises(FileFormatError, match="missing 'n'"):
        read_batches(path)


@pytest.mark.parametrize(
    "rows, message",
    [
        (['{"id": 0, "samples": [1, 2]}'] * 4, "header says m=2 but found 4 batches"),
        (['{"id": 0, "samples": [1, 2]}', "", '{"id": 1, "samples": [1, 2]}', "[]", "  "],
         "header says m=2 but found 3 batches"),  # counted past the first extra line
        (['{"id": 0, "samples": [1, 2]}'], "header says m=2 but found 1 batches"),
        ([], "header says m=2 but found 0 batches"),
    ],
)
def test_read_counts_batches_against_the_header(tmp_path, capsys, rows, message):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(['{"n": 2, "m": 2}', *rows]) + "\n")
    with pytest.raises(FileFormatError, match=message):
        read_batches(path)
    rc = main(["clean", "--input", str(path), "--k", "1", "--beta", "0.2",
               "--out", str(tmp_path / "r.json")])
    assert rc == 2 and message in capsys.readouterr().err


def test_read_streams_rows_and_skips_blank_lines(tmp_path):
    path = tmp_path / "batches.jsonl"
    path.write_text(
        '{"n": 2, "m": 2, "labeled": true}\n\n{"id": 4, "samples": [[0.5, 1], [-1, 0]]}\n'
        '{"id": 7, "samples": [[2.5, 0], [3, 1]]}\n  \n\n'
    )
    coll = read_batches(path)
    assert coll.ids == (4, 7) and coll.truth is None
    assert coll.x.tolist() == [[0.5, -1.0], [2.5, 3.0]]
    assert coll.y.dtype == np.uint8 and coll.y.tolist() == [[1, 0], [0, 1]]
    # errors name the physical line, blank lines included
    path.write_text('{"n": 2, "m": 2}\n\n{"id": 0, "samples": [1, 2]}\n\n{"id": 1, "samples": 7}\n')
    with pytest.raises(FileFormatError, match=f"{re.escape(str(path))}:5: samples must be a list"):
        read_batches(path)


@pytest.mark.parametrize("m", [10**15, 2**62])
def test_read_refuses_a_header_m_no_memory_holds(tmp_path, capsys, m):
    path = tmp_path / "huge.jsonl"
    path.write_text(f'{{"n": 2, "m": {m}}}\n{{"id": 0, "samples": [1, 2]}}\n')
    with pytest.raises(FileFormatError, match=f":1: header says m={m}, too many batches"):
        read_batches(path)
    rc = main(["clean", "--input", str(path), "--k", "1", "--beta", "0.2",
               "--out", str(tmp_path / "r.json")])
    assert rc == 2 and "too many batches" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, line, message",
    [
        ('{"n": 2.9, "m": 2}\n{"id": 2.7, "samples": [1, 2]}\n{"id": true, "samples": [1, 2]}',
         1, "n and m"),
        ('{"n": 2, "m": 2.0}\n{"id": 0, "samples": [1, 2]}\n{"id": 1, "samples": [1, 2]}',
         1, "n and m"),
        ('{"n": true, "m": 1}\n{"id": 0, "samples": [1]}', 1, "n and m"),
        ('{"n": "2", "m": 1}\n{"id": 0, "samples": [1, 2]}', 1, "n and m"),
        ('{"n": 0, "m": 1}\n{"id": 0, "samples": []}', 1, "n and m"),
        ('{"n": 2, "m": 1, "labeled": "no"}\n{"id": 0, "samples": [1, 2]}', 1, "JSON boolean"),
        ('{"n": 2, "m": 2}\n{"id": 0, "samples": [1, 2]}\n{"id": 2.7, "samples": [1, 2]}',
         3, "id must be a JSON integer"),
        ('{"n": 2, "m": 1}\n{"id": true, "samples": [1, 2]}', 2, "id must be a JSON integer"),
        ('{"n": 2, "m": 1}\n{"id": "0", "samples": [1, 2]}', 2, "id must be a JSON integer"),
        ('{"n": 2, "m": 1}\n{"id": 0, "samples": [0.5, true]}', 2, "JSON numbers"),
        ('{"n": 2, "m": 1}\n{"id": 0, "samples": [0.5, "1"]}', 2, "JSON numbers"),
        ('{"n": 2, "m": 1}\n{"id": 0, "samples": 7}', 2, "must be a list"),
        ('{"n": 2, "m": 1}\n{"id": 0, "samples": [0.5, 1e999]}', 2, "NaN or infinity"),
        ('{"n": 2, "m": 1}\n{"id": 0, "samples": [0.5, 1%s]}' % ("0" * 400), 2, "malformed"),
        ('{"n": 2, "m": 1, "labeled": true}\n{"id": 0, "samples": [[0.1, true], [0.2, 0]]}',
         2, "labels must be 0 or 1"),
        ('{"n": 2, "m": 1, "labeled": true}\n{"id": 0, "samples": [[0.1, 1.0], [0.2, 0]]}',
         2, "labels must be 0 or 1"),
        ('{"n": 2, "m": 1, "labeled": true}\n{"id": 0, "samples": [[true, 1], [0.2, 0]]}',
         2, "JSON numbers"),
        ('{"n": 2, "m": 1, "labeled": true}\n{"id": 0, "samples": [[0.1, 1, 0], [0.2, 0, 1]]}',
         2, r"\[x, y\] pairs"),
        ('{"n": 2, "m": 1, "labeled": true}\n{"id": 0, "samples": [[0.1, 1], 0.2]}',
         2, "malformed"),
        ('{"n": 2, "m": 1, "labeled": true}\n{"id": 0, "samples": [[0.1, 1], [0.2]]}',
         2, "malformed"),
    ],
)
def test_read_refuses_non_integral_and_boolean_fields(tmp_path, capsys, text, line, message):
    path = tmp_path / "bad.jsonl"
    path.write_text(text + "\n")
    with pytest.raises(FileFormatError, match=message) as exc:
        read_batches(path)
    assert f"{path}:{line}:" in str(exc.value)
    rc = main(["clean", "--input", str(path), "--k", "1", "--beta", "0.2",
               "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert f"{path}:{line}:" in capsys.readouterr().err


BOM_MESSAGE = "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"


@pytest.mark.parametrize(
    "text, line",
    [
        ('\ufeff{"n": 2, "m": 1}\n{"id": 0, "samples": [1, 2]}\n', 1),
        ('{"n": 2, "m": 1}\n\ufeff{"id": 0, "samples": [1, 2]}\n', 2),
    ],
)
def test_cli_refuses_a_leading_bom_as_json_loads_does(tmp_path, capsys, text, line):
    # the shared decoder alone would skip no BOM check; the message is json.loads'
    path = tmp_path / "bom.jsonl"
    path.write_text(text, encoding="utf-8")
    rc = main(["clean", "--input", str(path), "--k", "1", "--beta", "0.2",
               "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {path}:{line}: {BOM_MESSAGE}\n"
    report = tmp_path / "report.json"
    report.write_text('\ufeff{"config": {}}', encoding="utf-8")
    with pytest.raises(FileFormatError) as exc:
        read_json(report)
    assert str(exc.value) == f"{report}: {BOM_MESSAGE}"


def test_cli_simulate_clean_eval_flow(tmp_path):
    batches = tmp_path / "batches.jsonl"
    report = tmp_path / "report.json"
    metrics_out = tmp_path / "metrics.json"
    retained = tmp_path / "retained.jsonl"
    assert main([
        "simulate", "--target", "uniform:0,1", "--attack", "mean_shift:1.0@0.45,0.55",
        "--m", "80", "--n", "100", "--beta", "0.2", "--seed", "5", "--out", str(batches),
    ]) == 0
    assert main([
        "clean", "--input", str(batches), "--k", "2", "--beta", "0.2", "--seed", "5",
        "--trigger", "5", "--stop", "4", "--target", "uniform:0,1",
        "--out", str(report), "--retained", str(retained),
    ]) == 0
    rep = read_json(report)
    assert rep["cleaning"]["fk_after"] <= rep["cleaning"]["fk_before"]
    assert rep["cleaning"]["retention_good"] == 1.0
    kept = read_batches(retained)
    assert kept.m == len(rep["cleaning"]["retained_ids"])
    assert main([
        "eval", "--input", str(batches), "--report", str(report),
        "--target", "uniform:0,1", "--out", str(metrics_out),
    ]) == 0
    mets = read_json(metrics_out)
    assert mets["metrics"]["retention_good"] == 1.0


def test_cli_estimate_and_classify(tmp_path):
    batches = tmp_path / "b.jsonl"
    main([
        "simulate", "--target", "hist:0,0.5,1|0.75,0.25", "--attack", "none",
        "--m", "60", "--n", "50", "--beta", "0", "--seed", "3", "--out", str(batches),
    ])
    fit_out = tmp_path / "fit.json"
    rc = main([
        "estimate", "--input", str(batches), "--t", "2", "--d", "0", "--beta", "0",
        "--seed", "3", "--target", "hist:0,0.5,1|0.75,0.25",
        "--out", str(tmp_path / "est.json"), "--fit-out", str(fit_out),
    ])
    assert rc == 0
    fit = rb.PiecewisePolynomial.from_dict(read_json(fit_out))
    assert fit.t <= 2
    est = read_json(tmp_path / "est.json")
    assert est["tv_to_target"] < 0.1

    labeled = tmp_path / "l.jsonl"
    main([
        "simulate", "--target", "labeled:0,0.5,1|0.5,0.5|0.9,0.1", "--attack", "none",
        "--m", "40", "--n", "60", "--beta", "0", "--seed", "4", "--out", str(labeled),
    ])
    rc = main([
        "classify", "--input", str(labeled), "--k", "1", "--beta", "0", "--seed", "4",
        "--target", "labeled:0,0.5,1|0.5,0.5|0.9,0.1", "--out", str(tmp_path / "cls.json"),
    ])
    assert rc == 0
    cls = read_json(tmp_path / "cls.json")
    assert cls["classification"]["excess_risk"] < 0.05
    assert cls["cleaning"]["rounds"] == 0 and len(cls["cleaning"]["retained_ids"]) == 40


def test_cli_estimate_when_cleaning_deletes_the_pooled_maximum(tmp_path):
    """At m=1000, n=100 and ell=600, (ell-1)*ceil(s/ell) >= s, so the last
    partition boundary is the pooled maximum.  This run deletes the batch
    that holds it, and the fit support, taken from the retained batches,
    ends inside the last cells; those cells are empty, so the fit runs."""
    gm = "gm:0.6N(0,1)+0.4N(3,0.5)"
    batches, out = tmp_path / "b.jsonl", tmp_path / "est.json"
    assert main([
        "simulate", "--target", gm, "--attack", "fk_targeted", "--m", "1000",
        "--n", "100", "--beta", "0.2", "--seed", "5", "--out", str(batches),
    ]) == 0
    assert main([
        "estimate", "--input", str(batches), "--t", "3", "--d", "1", "--beta", "0.2",
        "--seed", "5", "--trigger", "5", "--stop", "4", "--target", gm, "--out", str(out),
    ]) == 0
    report = read_json(out)
    coll = read_batches(batches)
    top = rb.build_partition(coll.pooled_samples(), report["cleaning"]["ell"]).boundaries[-1]
    kept = np.isin(coll.ids, report["cleaning"]["retained_ids"])
    assert top == coll.samples.max() > coll.samples[kept].max()
    assert report["tv_to_target"] < 0.3


@pytest.mark.parametrize(
    "t, d, message",
    [("1000000", "1", "2\\*t\\*d=2000000"), ("3", "9", "d must lie"), ("0", "1", "t must be")],
)
def test_cli_estimate_checks_the_fit_before_cleaning(tmp_path, monkeypatch, capsys, t, d, message):
    batches = tmp_path / "b.jsonl"
    assert main([
        "simulate", "--target", "uniform:0,1", "--attack", "none",
        "--m", "40", "--n", "30", "--beta", "0", "--seed", "0", "--out", str(batches),
    ]) == 0

    def fail(*args, **kwargs):
        raise AssertionError("estimate cleaned before checking --t and --d")

    monkeypatch.setattr(cli, "clean_pipeline", fail)
    rc = main([
        "estimate", "--input", str(batches), "--t", t, "--d", d, "--beta", "0.2",
        "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 2
    assert re.search(message, capsys.readouterr().err)


@pytest.mark.parametrize("t, d, k", [(2, 0, 1), (2, 1, 4), (2, 3, 12)])
def test_cli_estimate_cleans_at_the_fit_family_k(tmp_path, t, d, k):
    batches, out = _unlabeled_file(tmp_path, m=60), tmp_path / "e.json"
    assert main([
        "estimate", "--input", str(batches), "--t", str(t), "--d", str(d), "--beta", "0.2",
        "--seed", "1", "--trigger", "5", "--stop", "4", "--out", str(out),
    ]) == 0
    report = read_json(out)
    assert report["cleaning"]["k"] == report["fit"]["fk_family_k"] == fk_family_k(t, d) == k


def test_cli_beta_guard_exits_2(tmp_path, capsys):
    batches = tmp_path / "b.jsonl"
    main([
        "simulate", "--target", "uniform:0,1", "--attack", "none",
        "--m", "4", "--n", "5", "--beta", "0", "--seed", "0", "--out", str(batches),
    ])
    rc = main([
        "clean", "--input", str(batches), "--k", "1", "--beta", "0.5", "--seed", "0",
        "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 2
    assert "0.4" in capsys.readouterr().err


@pytest.mark.parametrize("beta", ["0", "0.2"])
@pytest.mark.parametrize("flag, value", [("--trigger", "inf"), ("--stop", "nan")])
@pytest.mark.parametrize("command", ["clean", "estimate"])
def test_cli_nonfinite_thresholds_exit_2_before_any_output(tmp_path, capsys, command, flag, value, beta):
    batches = tmp_path / "b.jsonl"
    assert main([
        "simulate", "--target", "gm:0.6N(0,1)+0.4N(3,0.5)", "--attack", "mean_shift:1.0@1.4,1.6",
        "--m", "40", "--n", "30", "--beta", "0.2", "--seed", "1", "--out", str(batches),
    ]) == 0
    outputs = {
        "clean": ["--k", "2", "--retained", str(tmp_path / "r.jsonl"),
                  "--partition-out", str(tmp_path / "p.json")],
        "estimate": ["--t", "2", "--d", "1", "--fit-out", str(tmp_path / "f.json")],
    }[command]
    rc = main([
        command, "--input", str(batches), *outputs, "--beta", beta, flag, value,
        "--out", str(tmp_path / "report.json"),
    ])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {flag} must be a finite number")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.jsonl"]


@pytest.mark.parametrize("beta", ["0", "0.2"])
@pytest.mark.parametrize("trigger, stop", [("1", "5"), ("-3", "-4"), ("5", "0")])
@pytest.mark.parametrize("command", ["clean", "estimate", "classify"])
def test_cli_inconsistent_thresholds_exit_2_at_every_beta(tmp_path, capsys, command, trigger, stop, beta):
    batches = tmp_path / "b.jsonl"
    target = "labeled:0,0.5,1|0.5,0.5|0.8,0.2" if command == "classify" else "uniform:0,1"
    assert main([
        "simulate", "--target", target, "--attack", "none", "--m", "40", "--n", "30",
        "--beta", "0", "--seed", "1", "--out", str(batches),
    ]) == 0
    outputs = {
        "clean": ["--k", "2", "--retained", str(tmp_path / "r.jsonl"),
                  "--partition-out", str(tmp_path / "p.json")],
        "estimate": ["--t", "2", "--d", "1", "--fit-out", str(tmp_path / "f.json")],
        "classify": ["--k", "2"],
    }[command]
    rc = main([
        command, "--input", str(batches), *outputs, "--beta", beta, "--trigger", trigger,
        "--stop", stop, "--out", str(tmp_path / "report.json"),
    ])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: need 0 < stop_factor <= trigger_factor")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.jsonl"]


def test_cli_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"n": 2, "m": 1}\n{"id": 0}\n')
    rc = main(["clean", "--input", str(bad), "--k", "1", "--beta", "0.2",
               "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert "samples" in capsys.readouterr().err


def test_cli_freezes_the_heap_only_as_the_process_entry(tmp_path, monkeypatch):
    """main(argv) from a caller's process leaves its collector alone; main()
    reading sys.argv, as ``python -m`` and the console script run it, moves
    everything built so far out of the collector's reach."""
    argv = ["simulate", "--target", "uniform:0,1", "--m", "4", "--n", "5", "--beta", "0",
            "--out", str(tmp_path / "s.jsonl")]
    frozen = gc.get_freeze_count()
    assert main(argv) == 0
    assert gc.get_freeze_count() == frozen
    monkeypatch.setattr("sys.argv", ["robust-batches", *argv])
    try:
        assert main() == 0
        assert gc.get_freeze_count() > frozen
    finally:
        gc.unfreeze()


def test_cli_simulate_out_directory_exits_2(tmp_path, capsys):
    rc = main([
        "simulate", "--target", "uniform:0,1", "--m", "4", "--n", "5",
        "--beta", "0", "--out", str(tmp_path),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "internal error" not in err


def test_cli_simulate_checks_out_before_generating(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("simulate generated a collection without --out")

    monkeypatch.setattr(cli, "build_collection", fail)
    rc = main([
        "simulate", "--target", "uniform:0,1", "--m", "4", "--n", "5", "--beta", "0",
    ])
    assert rc == 2
    assert "requires --out" in capsys.readouterr().err


def _refuses_attack_before_drawing(monkeypatch, capsys, out, target, attack, beta):
    """simulate exits 2 on ``attack`` without drawing a batch; returns its stderr."""
    def fail(*args, **kwargs):
        raise AssertionError("simulate drew a collection for a refused attack")

    monkeypatch.setattr(cli, "build_collection", fail)
    rc = main([
        "simulate", "--target", target, "--attack", attack,
        "--m", "10", "--n", "5", "--beta", beta, "--out", str(out),
    ])
    assert rc == 2
    assert not out.exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("attack", ["fk_targeted:0.5@2", "fk_targeted:0.5@0", "fk_targeted:"])
@pytest.mark.parametrize("beta", ["0", "0.2"])
def test_cli_simulate_refuses_fk_targeted_parameters_before_drawing(
    tmp_path, monkeypatch, capsys, beta, attack,
):
    err = _refuses_attack_before_drawing(
        monkeypatch, capsys, tmp_path / "b.jsonl", "uniform:0,1", attack, beta
    )
    assert "takes no parameters, spell it 'fk_targeted'" in err


@pytest.mark.parametrize(
    "target, attack",
    [
        ("uniform:0,1", "mean_shift:1@-1e308,1e308"),
        ("uniform:0,1", "replay_skew:1@-1e308,1e308"),
        ("labeled:0,0.5,1|0.5,0.5|0.8,0.2", "label_flip:1@-1e308,1e308"),
    ],
)
def test_cli_simulate_refuses_attack_regions_whose_width_overflows_before_drawing(
    tmp_path, monkeypatch, capsys, target, attack,
):
    # lo + (hi - lo) u would be inf in every relocated sample
    err = _refuses_attack_before_drawing(
        monkeypatch, capsys, tmp_path / "b.jsonl", target, attack, "0.2"
    )
    assert "cannot parse attack" in err and "wider than a float holds" in err


def test_cli_clean_input_directory_exits_2(tmp_path, capsys):
    rc = main(["clean", "--input", str(tmp_path), "--k", "1", "--beta", "0.2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "internal error" not in err


def test_cli_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["clean", "--frobnicate", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--target", "uniform:0,1", "--m", "4", "--n", "5", "--beta", "0"],
        ["clean", "--input", "b.jsonl", "--k", "1", "--beta", "0"],
        ["estimate", "--input", "b.jsonl", "--t", "1", "--d", "0", "--beta", "0"],
        ["classify", "--input", "b.jsonl", "--k", "1", "--beta", "0"],
        ["eval", "--input", "b.jsonl", "--report", "r.json"],
    ],
)
def test_cli_an_unexpected_exception_is_an_internal_error_with_exit_1(monkeypatch, capsys, argv):
    def broken(args):
        raise RuntimeError("a defect, not a usage error")

    assert set(cli._COMMANDS) == {"simulate", "clean", "estimate", "classify", "eval"}
    monkeypatch.setitem(cli._COMMANDS, argv[0], broken)
    assert main(argv) == 1
    assert capsys.readouterr().err == "internal error: RuntimeError: a defect, not a usage error\n"


@pytest.mark.parametrize("encode", [canonical_json, csv_text])
@pytest.mark.parametrize(
    "value",
    [math.nan, math.inf, -math.inf, np.float64(math.nan), [1.0, {"deep": (2.0, -math.inf)}]],
)
def test_reports_refuse_non_finite_numbers(encode, value):
    with pytest.raises(rb.UsageError, match="^reports must not contain non-finite numbers$"):
        encode({"a": 1.0, "z": value})


def test_reports_encode_numpy_floats_and_tuples_as_python_floats_and_lists():
    report = {"b": (1, np.float64(0.1)), "a": {"c": np.float64(-2.5e-300)}}
    plain = {"b": [1, 0.1], "a": {"c": -2.5e-300}}
    for encode in (canonical_json, csv_text):
        assert encode(report) == encode(plain)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_refuses_a_non_finite_report_with_exit_2(tmp_path, monkeypatch, capsys, fmt):
    batches, out = _unlabeled_file(tmp_path, m=60), tmp_path / "r.out"
    monkeypatch.setattr(cli, "evaluate_density", lambda fit, target: math.nan)
    assert main([
        "estimate", "--input", str(batches), "--t", "2", "--d", "1", "--beta", "0.2",
        "--seed", "1", "--target", "uniform:0,1", "--format", fmt, "--out", str(out),
    ]) == 2
    assert capsys.readouterr().err == "error: reports must not contain non-finite numbers\n"
    assert not out.exists()


def test_cli_reports_byte_identical_across_reruns(tmp_path):
    batches = tmp_path / "b.jsonl"
    main([
        "simulate", "--target", "uniform:0,1", "--attack", "mean_shift:1.0@0.4,0.6",
        "--m", "60", "--n", "100", "--beta", "0.2", "--seed", "9", "--out", str(batches),
    ])
    report = tmp_path / "report.json"
    outs = []
    for _ in range(2):
        rc = main([
            "clean", "--input", str(batches), "--k", "2", "--beta", "0.2", "--seed", "9",
            "--trigger", "5", "--stop", "4", "--out", str(report),
        ])
        assert rc == 0
        outs.append(report.read_bytes())
    assert outs[0] == outs[1]


def _write_labeled(path, truth="good", label=1):
    """A 4-batch labeled file; batch 0 carries the given truth flag and label."""
    rng = np.random.default_rng(0)
    rows = []
    for i in range(4):
        samples = [[float(x), int(x < 0.5)] for x in rng.random(6)]
        row = {"id": i, "samples": samples, "truth": "good"}
        if i == 0:
            row["truth"] = truth
            samples[0][1] = label
        rows.append(row)
    header = {"n": 6, "m": 4, "labeled": True}
    path.write_text("\n".join(json.dumps(r) for r in [header, *rows]) + "\n")


def test_cli_labeled_file_with_unknown_truth_exits_2(tmp_path, capsys):
    path = tmp_path / "l.jsonl"
    _write_labeled(path, truth="bogus")
    rc = main(["classify", "--input", str(path), "--k", "1", "--beta", "0.2",
               "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert "unknown truth flags" in capsys.readouterr().err


def test_cli_labeled_file_with_fractional_label_exits_2(tmp_path, capsys):
    path = tmp_path / "l.jsonl"
    _write_labeled(path, label=0.5)
    rc = main(["classify", "--input", str(path), "--k", "1", "--beta", "0.2",
               "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert "labels must be 0 or 1" in capsys.readouterr().err


def test_cli_eval_subset_corruption_report(tmp_path):
    batches = tmp_path / "b.jsonl"
    report = tmp_path / "r.json"
    main([
        "simulate", "--target", "uniform:0,1", "--attack", "spike:1.0@0.5",
        "--m", "50", "--n", "100", "--beta", "0.2", "--seed", "2", "--out", str(batches),
    ])
    main([
        "clean", "--input", str(batches), "--k", "2", "--beta", "0.2", "--seed", "2",
        "--trigger", "5", "--stop", "4", "--out", str(report),
    ])
    out = tmp_path / "eval.json"
    rc = main([
        "eval", "--input", str(batches), "--report", str(report),
        "--subset", "1,2,3", "--out", str(out),
    ])
    assert rc == 0
    data = read_json(out)
    assert data["corruption"]["subset"] == [1, 2, 3]
    assert data["corruption"]["total"] >= 0
    assert len(data["corruption"]["per_batch_scores"]) == 50


def test_cli_eval_sorts_the_pooled_samples_once(tmp_path, monkeypatch):
    """One discretize call serves the report match, --target metrics and --subset."""
    batches, report = tmp_path / "b.jsonl", tmp_path / "r.json"
    target = "uniform:0,1"
    assert main([
        "simulate", "--target", target, "--attack", "spike:1.0@0.5",
        "--m", "50", "--n", "100", "--beta", "0.2", "--seed", "2", "--out", str(batches),
    ]) == 0
    assert main([
        "clean", "--input", str(batches), "--k", "2", "--beta", "0.2", "--seed", "2",
        "--trigger", "5", "--stop", "4", "--out", str(report),
    ]) == 0
    calls, pooled = [], rb.BatchCollection.pooled_samples

    def counting(self):
        calls.append(self)
        return pooled(self)

    monkeypatch.setattr(rb.BatchCollection, "pooled_samples", counting)
    assert main([
        "eval", "--input", str(batches), "--report", str(report), "--target", target,
        "--subset", "1,5,9", "--out", str(tmp_path / "eval.json"),
    ]) == 0
    assert len(calls) == 1


def test_cli_eval_per_batch_scores_in_numeric_id_order(tmp_path):
    batches = tmp_path / "b.jsonl"
    report = tmp_path / "r.json"
    main([
        "simulate", "--target", "uniform:0,1", "--attack", "spike:1.0@0.5",
        "--m", "101", "--n", "20", "--beta", "0.2", "--seed", "3", "--out", str(batches),
    ])
    assert main([
        "clean", "--input", str(batches), "--k", "1", "--beta", "0.2", "--seed", "3",
        "--out", str(report),
    ]) == 0
    out = tmp_path / "eval.json"
    assert main([
        "eval", "--input", str(batches), "--report", str(report),
        "--subset", "1", "--out", str(out),
    ]) == 0
    scores = read_json(out)["corruption"]["per_batch_scores"]
    assert [pair[0] for pair in scores] == list(range(101))


@pytest.mark.parametrize("subset", ["1,a", "1,,2", ",", "0", "-3", "1.5", "99999999999999999999999"])
def test_cli_eval_bad_subset_exits_2(tmp_path, capsys, subset):
    batches = tmp_path / "b.jsonl"
    report = tmp_path / "r.json"
    main([
        "simulate", "--target", "uniform:0,1", "--attack", "none",
        "--m", "6", "--n", "20", "--beta", "0", "--seed", "0", "--out", str(batches),
    ])
    assert main([
        "clean", "--input", str(batches), "--k", "1", "--beta", "0", "--out", str(report),
    ]) == 0
    capsys.readouterr()
    rc = main(["eval", "--input", str(batches), "--report", str(report), f"--subset={subset}"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_eval_classify_report(tmp_path):
    labeled = tmp_path / "l.jsonl"
    report = tmp_path / "cls.json"
    target = "labeled:0,0.5,1|0.5,0.5|0.8,0.2"
    main([
        "simulate", "--target", target, "--attack", "label_flip:1.0@0,0.25",
        "--m", "40", "--n", "50", "--beta", "0.2", "--seed", "6", "--out", str(labeled),
    ])
    assert main([
        "classify", "--input", str(labeled), "--k", "2", "--beta", "0.2", "--seed", "6",
        "--trigger", "5", "--stop", "4", "--target", target, "--out", str(report),
    ]) == 0
    out = tmp_path / "eval.json"
    assert main([
        "eval", "--input", str(labeled), "--report", str(report),
        "--target", target, "--subset", "1,2", "--out", str(out),
    ]) == 0
    doc = read_json(report)
    cleaning, cls = doc["cleaning"], doc["classification"]
    # the same cleaning section as a clean report, and the risks beside it
    assert set(cleaning) == set(rb.CleaningReport.__dataclass_fields__)
    assert set(cls) == {"train_risk", "risk_vs_target", "excess_risk", "retention_good"}
    part = rb.discretize(read_batches(labeled), rb.choose_ell(2, 50, 0.2, 40))[0]
    assert cleaning["ell"] == part.ell == sum(sub.ell for sub in part.parts)  # both label slices
    data = read_json(out)
    assert data["metrics"]["retention_good"] == cleaning["retention_good"] == cls["retention_good"]
    assert data["metrics"]["retained"] == len(cleaning["retained_ids"])
    # --subset scores bins of the per-label product domain
    assert data["corruption"]["subset"] == [1, 2]
    assert len(data["corruption"]["per_batch_scores"]) == 40


def _labeled_files(tmp_path, *seeds, m=300):
    """The labeled batch files of the given simulation seeds."""
    files = []
    for seed in seeds:
        path = tmp_path / f"l{seed}.jsonl"
        assert main([
            "simulate", "--target", LABELED_TARGET, "--attack", "label_flip:1.0@0,0.25",
            "--m", str(m), "--n", "50", "--beta", "0.2", "--seed", str(seed), "--out", str(path),
        ]) == 0
        files.append(path)
    return files


def test_cli_eval_refuses_classify_report_of_another_batch_file(tmp_path, capsys):
    """A classify report of one labeled file, scored against another labeled
    file, is refused: its partition token covers both label slices."""
    files = _labeled_files(tmp_path, 1, 2)
    report = tmp_path / "cls.json"
    assert main([
        "classify", "--input", str(files[0]), "--k", "2", "--beta", "0.2", "--seed", "1",
        "--trigger", "5", "--stop", "4", "--out", str(report),
    ]) == 0
    evaluate = ["eval", "--report", str(report), "--target", LABELED_TARGET]
    assert main([*evaluate, "--input", str(files[0])]) == 0
    capsys.readouterr()
    assert main([*evaluate, "--input", str(files[1])]) == 2
    assert "the report's partition does not match the batch file" in capsys.readouterr().err


def test_cli_eval_refuses_a_report_of_the_other_kind_of_file(tmp_path, capsys):
    """A clean report against a labeled file, and a classify report against
    an unlabeled one, exit 2."""
    (labeled,) = _labeled_files(tmp_path, 1, m=60)
    unlabeled = tmp_path / "u.jsonl"
    assert main([
        "simulate", "--target", "uniform:0,1", "--attack", "spike:1.0@0.5",
        "--m", "60", "--n", "50", "--beta", "0.2", "--seed", "1", "--out", str(unlabeled),
    ]) == 0
    flags = ["--k", "2", "--beta", "0.2", "--trigger", "5", "--stop", "4"]
    clean, cls = tmp_path / "clean.json", tmp_path / "cls.json"
    assert main(["clean", "--input", str(unlabeled), *flags, "--out", str(clean)]) == 0
    assert main(["classify", "--input", str(labeled), *flags, "--out", str(cls)]) == 0
    for batches, report in ((labeled, clean), (unlabeled, cls)):
        capsys.readouterr()
        assert main(["eval", "--input", str(batches), "--report", str(report)]) == 2
        assert "does not match the batch file" in capsys.readouterr().err


def test_cli_eval_refuses_a_classify_report_without_a_cleaning_section(tmp_path, capsys):
    (labeled,) = _labeled_files(tmp_path, 1, m=60)
    report = tmp_path / "cls.json"
    assert main([
        "classify", "--input", str(labeled), "--k", "2", "--beta", "0.2", "--trigger", "5",
        "--stop", "4", "--out", str(report),
    ]) == 0
    doc = read_json(report)
    cleaning = doc.pop("cleaning")  # the layout classify wrote before the shared section
    doc["classification"].update(
        {key: cleaning[key] for key in ("retained_ids", "k", "beta", "rounds")},
        ell_label0=cleaning["ell"] // 2, ell_label1=cleaning["ell"] - cleaning["ell"] // 2,
    )
    report.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["eval", "--input", str(labeled), "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert "eval expects a report written by clean, estimate or classify" in err


def test_cli_eval_counts_nothing_to_match_a_report(tmp_path, monkeypatch):
    """Without --target or --subset, eval only cuts the partition and checks
    its token: no count table is made."""
    (labeled,) = _labeled_files(tmp_path, 1, m=60)
    unlabeled = tmp_path / "u.jsonl"
    assert main([
        "simulate", "--target", "uniform:0,1", "--attack", "spike:1.0@0.5",
        "--m", "60", "--n", "50", "--beta", "0.2", "--seed", "1", "--out", str(unlabeled),
    ]) == 0
    flags = ["--k", "2", "--beta", "0.2", "--trigger", "5", "--stop", "4"]
    clean, cls = tmp_path / "clean.json", tmp_path / "cls.json"
    assert main(["clean", "--input", str(unlabeled), *flags, "--out", str(clean)]) == 0
    assert main(["classify", "--input", str(labeled), *flags, "--out", str(cls)]) == 0

    def no_counting(*args, **kwargs):
        raise AssertionError("eval made a count table")

    monkeypatch.setattr(rb.IntervalPartition, "counts", no_counting)
    for batches, report in ((unlabeled, clean), (labeled, cls)):
        out = tmp_path / "eval.json"
        assert main(["eval", "--input", str(batches), "--report", str(report), "--out", str(out)]) == 0
        assert read_json(out)["metrics"]["retention_good"] is not None
    # a labeled --target scores no fk, so it needs no count table either
    assert main(["eval", "--input", str(labeled), "--report", str(cls), "--target", LABELED_TARGET]) == 0


def test_cli_eval_metrics_keys_follow_truth_and_target(tmp_path):
    """No truth flags: no metrics.  Truth alone: retention_good.  A target
    adds retained and m, and a density target fk_before and fk_after."""
    unlabeled = _unlabeled_file(tmp_path)
    (labeled,) = _labeled_files(tmp_path, 1)
    coll = read_batches(unlabeled)
    truthless = tmp_path / "truthless.jsonl"
    write_batches(rb.BatchCollection(coll.samples, coll.ids), truthless)
    reports = {}
    for batches, verb in ((unlabeled, "clean"), (truthless, "clean"), (labeled, "classify")):
        reports[batches] = tmp_path / f"{batches.stem}.report.json"
        assert main([
            verb, "--input", str(batches), "--k", "2", "--beta", "0.2", "--seed", "1",
            "--trigger", "5", "--stop", "4", "--out", str(reports[batches]),
        ]) == 0
    cases = [
        (truthless, ["--target", "uniform:0,1"], None),
        (unlabeled, [], {"retention_good"}),
        (labeled, ["--target", LABELED_TARGET], {"retention_good", "retained", "m"}),
        (unlabeled, ["--target", "uniform:0,1"],
         {"retention_good", "retained", "m", "fk_before", "fk_after"}),
    ]
    for batches, flags, keys in cases:
        out = tmp_path / "eval.json"
        assert main(["eval", "--input", str(batches), "--report", str(reports[batches]),
                     *flags, "--out", str(out)]) == 0
        data = read_json(out)
        if keys is None:
            assert "metrics" not in data
            continue
        assert set(data["metrics"]) == keys
        cleaning = read_json(reports[batches])["cleaning"]
        assert data["metrics"]["retention_good"] == cleaning["retention_good"] == 1.0
        if "m" in keys:
            assert data["metrics"]["retained"] == len(cleaning["retained_ids"])
            assert data["metrics"]["m"] == read_batches(batches).m
    assert data["metrics"]["fk_after"] <= data["metrics"]["fk_before"]


def test_cli_eval_estimate_report_uses_recorded_partition(tmp_path):
    batches = tmp_path / "b.jsonl"
    report = tmp_path / "est.json"
    target = "uniform:0,1"
    main([
        "simulate", "--target", target, "--attack", "mean_shift:1.0@0.45,0.55",
        "--m", "60", "--n", "100", "--beta", "0.2", "--seed", "8", "--out", str(batches),
    ])
    assert main([
        "estimate", "--input", str(batches), "--t", "2", "--d", "1", "--beta", "0.2",
        "--seed", "8", "--trigger", "5", "--stop", "4", "--target", target,
        "--out", str(report),
    ]) == 0
    cleaning = read_json(report)["cleaning"]
    assert cleaning["k"] == 4
    out = tmp_path / "eval.json"
    assert main([
        "eval", "--input", str(batches), "--report", str(report),
        "--target", target, "--subset", "1,2", "--out", str(out),
    ]) == 0
    data = read_json(out)
    # the same partition and k as the run itself, so the same fk values
    assert data["metrics"]["fk_before"] == cleaning["fk_before"]
    assert data["metrics"]["fk_after"] == cleaning["fk_after"]
    assert data["corruption"]["subset"] == [1, 2]


def test_cli_eval_refuses_report_of_another_batch_file(tmp_path, capsys):
    files = []
    for seed in (1, 2):
        path = tmp_path / f"b{seed}.jsonl"
        assert main([
            "simulate", "--target", "uniform:0,1", "--attack", "mean_shift:1.0@0.45,0.55",
            "--m", "300", "--n", "100", "--beta", "0.2", "--seed", str(seed), "--out", str(path),
        ]) == 0
        files.append(path)
    report = tmp_path / "clean.json"
    assert main([
        "clean", "--input", str(files[0]), "--k", "2", "--beta", "0.2", "--seed", "1",
        "--trigger", "5", "--stop", "4", "--out", str(report),
    ]) == 0
    assert main(["eval", "--input", str(files[0]), "--report", str(report)]) == 0
    capsys.readouterr()
    assert main(["eval", "--input", str(files[1]), "--report", str(report)]) == 2
    assert "does not match the batch file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "report",
    ['{"metrics": {"retention_good": 1.0}}', '[1, 2]', '{"cleaning": {"retained_ids": [0]}}'],
)
def test_cli_eval_rejects_unknown_report_shape(tmp_path, capsys, report):
    batches = tmp_path / "b.jsonl"
    main([
        "simulate", "--target", "uniform:0,1", "--attack", "none",
        "--m", "4", "--n", "10", "--beta", "0", "--seed", "0", "--out", str(batches),
    ])
    path = tmp_path / "r.json"
    path.write_text(report)
    rc = main(["eval", "--input", str(batches), "--report", str(path)])
    assert rc == 2
    assert "eval expects a report" in capsys.readouterr().err


def test_cli_csv_export(tmp_path):
    batches = tmp_path / "b.jsonl"
    main([
        "simulate", "--target", "uniform:0,1", "--attack", "none",
        "--m", "4", "--n", "10", "--beta", "0", "--seed", "0", "--out", str(batches),
    ])
    rc = main([
        "clean", "--input", str(batches), "--k", "1", "--beta", "0", "--seed", "0",
        "--format", "csv", "--out", str(tmp_path / "r.csv"),
    ])
    assert rc == 0
    text = (tmp_path / "r.csv").read_text()
    assert text.startswith("key,value")
    assert "cleaning.retained_ids" in text


@pytest.mark.parametrize("field", ["k", "retained_ids", "beta", "beta_bool"])
def test_cli_eval_refuses_fractional_report_integers(tmp_path, capsys, field):
    batches = tmp_path / "b.jsonl"
    report = tmp_path / "r.json"
    assert main([
        "simulate", "--target", "uniform:0,1", "--attack", "mean_shift:1.0@0.45,0.55",
        "--m", "300", "--n", "100", "--beta", "0.2", "--seed", "1", "--out", str(batches),
    ]) == 0
    assert main([
        "clean", "--input", str(batches), "--k", "2", "--beta", "0.2", "--seed", "1",
        "--trigger", "5", "--stop", "4", "--out", str(report),
    ]) == 0
    doc = read_json(report)
    if field == "k":
        doc["cleaning"]["k"] = 2.7
    elif field == "retained_ids":
        doc["cleaning"]["retained_ids"][0] += 0.5
    else:  # beta must be a JSON number, not a string or a boolean
        doc["cleaning"]["beta"] = "0.2" if field == "beta" else False
    report.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["eval", "--input", str(batches), "--report", str(report), "--target", "uniform:0,1"])
    assert rc == 2
    expected = "is not a number" if field.startswith("beta") else "is not an integer"
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec",
    [
        "uniform:1,0",  # reversed bounds
        "hist:0,0.5,1|1.0",  # a missing mass
        "hist:0,0.5,1|1.5,-0.5",  # a negative mass
        "hist:0,0.5,0.5|0.5,0.5",  # non-increasing edges
        "hist:0,0.5,1|0.5,0.4",  # masses summing to 0.9
        "uniform:0,inf",
        "hist:-inf,0,1|0.5,0.5",
        "labeled:0,0.5,0.5|0.5,0.5|0.8,0.2",
        "labeled:0,0.5,1|0.5,0.4|0.8,0.2",
        "labeled:0,0.5,1|1.5,-0.5|0.8,0.2",
        "labeled:-inf,0,1|0.5,0.5|0.8,0.2",
        "hist:0,1|nan",
        "pwpoly:0,1|nan",
        "pwpoly:0,1|",  # an empty piece
    ],
)
def test_cli_simulate_refuses_malformed_targets(tmp_path, capsys, spec):
    rc = main([
        "simulate", "--target", spec, "--attack", "none",
        "--m", "4", "--n", "5", "--beta", "0", "--out", str(tmp_path / "b.jsonl"),
    ])
    assert rc == 2
    assert "cannot parse target" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["uniform:0,1", "labeled:0,0.5,1|0.5,0.5|0.8,0.2"])
@pytest.mark.parametrize("m, n", [(10**14, 10), (2**62, 4)])
def test_cli_simulate_refuses_sizes_no_memory_holds(tmp_path, capsys, target, m, n):
    """Refused before the first draw: building m generators first took
    seconds and unbounded memory."""
    out = tmp_path / "b.jsonl"
    start = time.perf_counter()
    rc = main([
        "simulate", "--target", target, "--attack", "none",
        "--m", str(m), "--n", str(n), "--beta", "0", "--out", str(out),
    ])
    assert rc == 2 and time.perf_counter() - start < 1.0
    assert f"m={m} batches of n={n} samples are too many to hold" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("beta", ["5e-324", "1e-310", "1e-200"])
def test_cli_tiny_beta_is_refused_not_crashed(tmp_path, beta):
    batches = tmp_path / "b.jsonl"
    report = tmp_path / "clean.json"
    assert main([
        "simulate", "--target", "uniform:0,1", "--attack", "none",
        "--m", "30", "--n", "10", "--beta", "0", "--seed", "1", "--out", str(batches),
    ]) == 0
    assert main([
        "clean", "--input", str(batches), "--k", "2", "--beta", "0.2", "--seed", "1",
        "--out", str(report),
    ]) == 0
    doc = read_json(report)
    doc["cleaning"]["beta"] = float(beta)
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    runs = [
        ["clean", "--input", str(batches), "--k", "2", "--beta", beta],
        ["estimate", "--input", str(batches), "--t", "1", "--d", "1", "--beta", beta],
        ["eval", "--input", str(batches), "--report", str(edited)],
    ]
    for argv in runs:
        assert main([*argv, "--out", str(tmp_path / "out.json")]) in (0, 2), argv



def test_cli_huge_k_is_clamped_not_allocated(tmp_path):
    """No union of runs over s cells has more than (s + 1) // 2 runs, so a
    k far beyond that must neither allocate k table rows nor fail."""
    unlabeled, labeled = tmp_path / "u.jsonl", tmp_path / "l.jsonl"
    for target, attack, path in (
        ("uniform:0,1", "spike:1.0@0.5", unlabeled),
        (LABELED_TARGET, "label_flip:1.0@0,0.25", labeled),
    ):
        assert main([
            "simulate", "--target", target, "--attack", attack, "--m", "60", "--n", "30",
            "--beta", "0.2", "--seed", "1", "--out", str(path),
        ]) == 0
    huge = str(10**12)
    flags = ["--beta", "0.2", "--trigger", "5", "--stop", "4", "--out", str(tmp_path / "r.json")]
    assert main(["classify", "--input", str(labeled), "--k", huge, *flags]) == 0
    assert main([
        "clean", "--input", str(unlabeled), "--k", huge, "--target", "uniform:0,1", *flags,
    ]) == 0


def test_cli_k_too_large_for_a_float_exits_2_naming_k(tmp_path, capsys):
    """A k past the float range, or one that makes the batch-count guidance
    infinite, is refused with a message that names k."""
    unlabeled, labeled = tmp_path / "u.jsonl", tmp_path / "l.jsonl"
    for target, attack, path in (
        ("uniform:0,1", "spike:1.0@0.5", unlabeled),
        (LABELED_TARGET, "label_flip:1.0@0,0.25", labeled),
    ):
        assert main([
            "simulate", "--target", target, "--attack", attack, "--m", "60", "--n", "30",
            "--beta", "0.2", "--seed", "1", "--out", str(path),
        ]) == 0
    report = tmp_path / "clean.json"
    flags = ["--trigger", "5", "--stop", "4"]
    assert main([
        "clean", "--input", str(unlabeled), "--k", "2", "--beta", "0.2", *flags,
        "--out", str(report),
    ]) == 0
    doc = read_json(report)
    doc["cleaning"]["k"] = 10**400
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    huge, past_guidance = str(10**400), str(10**307)
    runs = [
        ["clean", "--input", str(unlabeled), "--k", huge, "--beta", "0.2", *flags],
        ["clean", "--input", str(unlabeled), "--k", past_guidance, "--beta", "0.2", *flags],
        ["classify", "--input", str(labeled), "--k", huge, "--beta", "0", *flags],
        ["classify", "--input", str(labeled), "--k", huge, "--beta", "0.2", *flags],
        ["eval", "--input", str(unlabeled), "--report", str(edited)],
    ]
    for argv in runs:
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / "out.json")]) == 2, argv[:4]
        assert capsys.readouterr().err.startswith("error: k"), argv[:4]


@pytest.mark.parametrize(
    "target, attack",
    [
        ("uniform:0,1", "label_flip:1.0@0,0.25"),
        (LABELED_TARGET, "mean_shift:1.0@0.4,0.6"),
        (LABELED_TARGET, "spike:1.0@0.5"),
        (LABELED_TARGET, "replay_skew:1.0@0.4,0.6"),
        ("uniform:0,1", "spike:nan@0.5"),
        ("uniform:0,1", "spike:inf@0.5"),
        ("uniform:0,1", "mean_shift:nan@0.4,0.6"),
        ("uniform:0,1", "fk_targeted:nan@2"),
    ],
)
def test_cli_simulate_refuses_mismatched_or_nonfinite_attacks(tmp_path, capsys, target, attack):
    rc = main([
        "simulate", "--target", target, "--attack", attack, "--m", "10", "--n", "5",
        "--beta", "0.2", "--seed", "1", "--out", str(tmp_path / "b.jsonl"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "internal error" not in err


@pytest.mark.parametrize("attack", ["replay_skew:0.5@0,1", "fk_targeted"])
def test_cli_simulate_refuses_attacks_on_no_good_batch(tmp_path, capsys, attack):
    # floor((1 - 0.4) * 1) = 0 good batches: nothing for the attack to read
    out = tmp_path / "s.jsonl"
    rc = main([
        "simulate", "--target", "uniform:0,1", "--attack", attack, "--m", "1", "--n", "5",
        "--beta", "0.4", "--out", str(out),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "good batches" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["selftest"],
        ["simulate", "--target", "uniform:0,1", "--m", "4", "--n", "5", "--beta", "0",
         "--out", "s.csv", "--format", "csv"],
        ["eval", "--input", "b.jsonl", "--report", "r.json", "--seed", "1"],
        ["clean", "--input", "b.jsonl", "--k", "2", "--beta", "0.2", "--detector", "brute"],
    ],
)
def test_cli_offers_flags_only_where_read(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--target", "uniform:0,1", "--m", "4", "--n", "5", "--beta", "0",
         "--out", "s.jsonl"],
        ["clean", "--input", "b.jsonl", "--k", "1", "--beta", "0"],
        ["estimate", "--input", "b.jsonl", "--t", "1", "--d", "0", "--beta", "0"],
        ["classify", "--input", "b.jsonl", "--k", "1", "--beta", "0"],
    ],
)
def test_cli_negative_seed_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed must be nonnegative, got -1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def _unlabeled_file(tmp_path, m=300):
    path = tmp_path / "b.jsonl"
    assert main([
        "simulate", "--target", "uniform:0,1", "--attack", "mean_shift:1.0@0.45,0.55",
        "--m", str(m), "--n", "100", "--beta", "0.2", "--seed", "1", "--out", str(path),
    ]) == 0
    return path


def test_cli_format_csv_holds_on_stdout(tmp_path, capsys):
    batches = _unlabeled_file(tmp_path)
    argv = ["clean", "--input", str(batches), "--k", "2", "--beta", "0.2", "--seed", "1",
            "--trigger", "5", "--stop", "4", "--format", "csv"]
    capsys.readouterr()
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert text.startswith("key,value")
    out = tmp_path / "r.csv"
    assert main([*argv, "--out", str(out)]) == 0
    # the same rows, but for the --out path the report records
    assert out.read_bytes().decode() == text.replace("config.out,null", f'config.out,"""{out}"""')


@pytest.mark.parametrize(
    "spec", ["uniform:-1e308,1e308", "pwpoly:-1e308,1e308|1e-308", "labeled:-1e308,1e308|1|0.5"]
)
def test_cli_simulate_refuses_targets_whose_piece_widths_overflow(tmp_path, capsys, spec):
    # b - a overflows to inf; the refusal must come before any numpy arithmetic warns
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main([
            "simulate", "--target", spec, "--attack", "none",
            "--m", "4", "--n", "5", "--beta", "0", "--out", str(tmp_path / "b.jsonl"),
        ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "cannot parse target" in err and "steps must be positive and finite" in err


@pytest.mark.parametrize(
    "spec",
    ["uniform:0,1e-320", "hist:0,1e-320,1|0.5,0.5", "labeled:0,1e-320,1|0.5,0.5|0.5,0.5",
     "pwpoly:0,1|1e320", "pwpoly:0,1|-1e308 1.7e308 1.7e308"],
)
@pytest.mark.parametrize("strict", [False, True])
def test_cli_simulate_refuses_targets_whose_coefficients_overflow(tmp_path, capsys, spec, strict):
    # a mass over a subnormal width, a spelled-out 1e320, or monomials whose
    # composition overflows, is an infinite height
    with warnings.catch_warnings():
        if strict:
            warnings.simplefilter("error", RuntimeWarning)
        rc = main([
            "simulate", "--target", spec, "--attack", "none",
            "--m", "4", "--n", "5", "--beta", "0", "--out", str(tmp_path / "b.jsonl"),
        ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "cannot parse target" in err and "coefficients must be finite" in err


@pytest.mark.parametrize("strict", [False, True])
def test_cli_estimate_on_pieces_wider_than_half_the_float_range(tmp_path, strict):
    """A fit or target piece whose width exceeds the float maximum / 2 is
    located, integrated and sampled without overflow: exit 0, finite TV."""
    desk = _unlabeled_file(tmp_path)
    runs = [(desk, "3", "1", spec)
            for spec in ("uniform:-5e307,5e307", "uniform:1e308,1.5e308", "gm:1N(1e308,1e306)")]
    for point, t, d in (("1e308", "1", "1"), ("-1e308", "2", "3")):
        spiked = tmp_path / f"spike{point}.jsonl"
        assert main([
            "simulate", "--target", "gm:1N(0,1)", "--attack", f"spike:0.5@{point}", "--m", "40",
            "--n", "30", "--beta", "0.2", "--seed", "1", "--out", str(spiked),
        ]) == 0
        runs.append((spiked, t, d, "gm:1N(0,1)"))
    for batches, t, d, target in runs:
        out = tmp_path / "e.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # below the batch-count guidance
            if strict:
                warnings.simplefilter("error", RuntimeWarning)
            assert main([
                "estimate", "--input", str(batches), "--t", t, "--d", d, "--beta", "0.2",
                "--seed", "1", "--trigger", "5", "--stop", "4", "--target", target,
                "--out", str(out),
            ]) == 0, (batches.name, target)
        assert math.isfinite(read_json(out)["tv_to_target"]), (batches.name, target)


@pytest.mark.parametrize(
    "spec", ["gm:0.5N(-1e308,1e307)+0.5N(1e308,1e307)", "gm:1N(0,1e308)", "gm:1N(1e308,1e308)"]
)
def test_cli_refuses_gaussian_components_whose_12_sd_range_overflows(tmp_path, capsys, spec):
    # mu ± 12 sd would be an infinite breakpoint, and inf - inf in the TV quadrature
    batches = _unlabeled_file(tmp_path)
    for argv in (
        ["simulate", "--attack", "none", "--m", "4", "--n", "5", "--beta", "0",
         "--out", str(tmp_path / "g.jsonl")],
        ["estimate", "--input", str(batches), "--t", "3", "--d", "1", "--beta", "0.2",
         "--trigger", "5", "--stop", "4", "--out", str(tmp_path / "e.json")],
    ):
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([*argv, "--target", spec]) == 2, argv[0]
        err = capsys.readouterr().err
        assert "cannot parse target" in err and "mean ± 12 sds must be finite" in err


def test_cli_eval_warns_about_nothing(tmp_path):
    """eval sizes the report's partition but cleans nothing, so the batch
    count below the guidance (m=300 here) is not warned about."""
    batches = _unlabeled_file(tmp_path)
    report = tmp_path / "r.json"
    assert main([
        "clean", "--input", str(batches), "--k", "2", "--beta", "0.2", "--seed", "1",
        "--trigger", "5", "--stop", "4", "--out", str(report),
    ]) == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([
            "eval", "--input", str(batches), "--report", str(report),
            "--target", "uniform:0,1", "--out", str(tmp_path / "e.json"),
        ]) == 0
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize(
    "command, labeled, message",
    [
        (["clean", "--k", "2"], True, "clean expects an unlabeled batch file"),
        (["estimate", "--t", "1", "--d", "1"], True, "estimate expects an unlabeled batch file"),
        (["classify", "--k", "1"], False, "classify expects a labeled batch file"),
    ],
)
def test_cli_cleaning_commands_refuse_the_other_kind_of_file(tmp_path, capsys, command, labeled, message):
    path = tmp_path / "b.jsonl"
    if labeled:
        _write_labeled(path)
    else:
        path.write_text('{"n": 2, "m": 2}\n{"id": 0, "samples": [1, 2]}\n{"id": 1, "samples": [3, 4]}\n')
    rc = main([*command, "--input", str(path), "--beta", "0.2", "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "r.json").exists()


def test_cli_clean_partition_out_is_the_runs_partition(tmp_path):
    batches = _unlabeled_file(tmp_path)
    report, part_out = tmp_path / "r.json", tmp_path / "p.json"
    assert main([
        "clean", "--input", str(batches), "--k", "2", "--beta", "0.2", "--seed", "1",
        "--trigger", "5", "--stop", "4", "--out", str(report), "--partition-out", str(part_out),
    ]) == 0
    written = rb.IntervalPartition.from_dict(read_json(part_out))
    run = rb.clean_pipeline(read_batches(batches), 2, 0.2, np.random.default_rng(1), 5, 4)
    assert written == run.partition
    cleaning = read_json(report)["cleaning"]
    assert (written.ell, written.source_token) == (cleaning["ell"], cleaning["source_token"])


@pytest.mark.parametrize(
    "target, attack, message",
    [
        ("uniform:0,1", "bogus:1.0@0,1", "unknown attack kind 'bogus'"),
        ("gm:0.5N(0,1)+x", "none", "cannot parse target 'gm:0.5N(0,1)+x': bad mixture component 'x'"),
    ],
)
def test_cli_simulate_names_an_unknown_attack_and_a_malformed_component(
    tmp_path, capsys, target, attack, message
):
    rc = main([
        "simulate", "--target", target, "--attack", attack, "--m", "4", "--n", "5",
        "--beta", "0.2", "--out", str(tmp_path / "b.jsonl"),
    ])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "b.jsonl").exists()


@pytest.mark.parametrize(
    "text, where, message",
    [
        ("", "", "empty file"),
        ('{"n": 2, "m": 1}\n[1, 2]\n', ":2", "expected a JSON object"),
    ],
)
def test_cli_refuses_an_empty_file_and_a_batch_line_that_is_no_object(
    tmp_path, capsys, text, where, message
):
    path = tmp_path / "bad.jsonl"
    path.write_text(text)
    rc = main(["clean", "--input", str(path), "--k", "1", "--beta", "0.2",
               "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {path}{where}: {message}\n"


def test_cli_estimate_refuses_samples_whose_range_overflows(tmp_path, capsys):
    """Samples at -1e308 and 1e308 give the fit a support whose width
    overflows to inf: exit 2, not an internal error."""
    path = tmp_path / "wide.jsonl"
    rows = [{"id": i, "samples": [0.1 * i, 0.1 * i + 0.05]} for i in range(10)]
    rows[0]["samples"] = [-1e308, 1e308]
    path.write_text("\n".join(json.dumps(r) for r in [{"n": 2, "m": 10}, *rows]) + "\n")
    rc = main(["estimate", "--input", str(path), "--t", "1", "--d", "0", "--beta", "0",
               "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert capsys.readouterr().err == "error: support must be a nonempty interval of finite width\n"


@pytest.mark.parametrize("strict", [False, True])
def test_cli_simulate_pwpoly_near_the_float_maximum(tmp_path, strict):
    # mid = 0.5 a + 0.5 b: a + b would overflow
    out = tmp_path / "b.jsonl"
    with warnings.catch_warnings():
        if strict:
            warnings.simplefilter("error", RuntimeWarning)
        assert main([
            "simulate", "--target", "pwpoly:1.7e308,1.75e308|2e-307", "--beta", "0",
            "--m", "4", "--n", "5", "--out", str(out),
        ]) == 0
    samples = read_batches(out).samples
    assert np.all((samples >= 1.7e308) & (samples <= 1.75e308))


@pytest.mark.parametrize("strict", [False, True])
def test_cli_estimate_refuses_a_support_of_subnormal_width(tmp_path, capsys, strict):
    """A piece whose density per unit x overflows is refused, naming the
    piece and its width, with no warning on the way."""
    flat = tmp_path / "flat.jsonl"
    flat.write_text(
        '{"n": 2, "m": 2}\n'
        '{"id": 0, "samples": [1e-320, 2e-320]}\n{"id": 1, "samples": [3e-320, 4e-320]}\n'
    )
    narrow = tmp_path / "narrow.jsonl"
    runs = [(flat, "0", []), (flat, "1", []), (narrow, "1", ["--target", "gm:1N(0,1e-320)"])]
    with warnings.catch_warnings():
        if strict:
            warnings.simplefilter("error", RuntimeWarning)
        assert main([
            "simulate", "--target", "gm:1N(0,1e-320)", "--beta", "0", "--m", "40", "--n", "50",
            "--out", str(narrow),
        ]) == 0
        for batches, d, extra in runs:
            capsys.readouterr()
            rc = main([
                "estimate", "--input", str(batches), "--t", "1", "--d", d, "--beta", "0", *extra,
            ])
            assert rc == 2, (batches.name, d)
            assert "piece 0 is " in capsys.readouterr().err, (batches.name, d)


@pytest.mark.parametrize(
    "outside, inside",
    [(1.0, 1.0000000000000002), (1.7e308, 1.75e308)],  # the midpoint rounds onto 1.0, or overflows
)
def test_cli_classify_cuts_at_the_inside_neighbour(tmp_path, outside, inside):
    batches = tmp_path / "pairs.jsonl"
    rows = f"[[{outside!r}, 0], [{inside!r}, 1]]"
    batches.write_text('{"n": 2, "m": 2, "labeled": true}\n' + "".join(
        f'{{"id": {i}, "samples": {rows}}}\n' for i in (0, 1)
    ))
    out = tmp_path / "c.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([
            "classify", "--input", str(batches), "--k", "1", "--beta", "0", "--out", str(out),
        ]) == 0
    report = read_json(out)
    assert report["classification"]["train_risk"] == 0.0
    assert report["decision_region"] == [{"lo": inside, "hi": "inf"}]
