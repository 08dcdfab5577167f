"""Smoke test of the benchmark at a tiny batch count.

    python3 -m pytest bench/test_smoke.py -q

It checks that workload generation follows the seed, that tiny timed and
traced runs report every metric BENCHMARK.json names, and that failed
commands, corrupted or changed reports and missing layers are counted
rather than crashing the run.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import repeat  # noqa: E402
import run  # noqa: E402
import trace_layers  # noqa: E402

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {name: replace(w, m=100, datasets=2) for name, w in run.WORKLOADS.items()}


def test_spec_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


def test_inputs_follow_the_seed(tmp_path):
    w = TINY["desk-estimate"]
    assert run.dataset_seeds(w, 1) == run.dataset_seeds(w, 1)
    assert run.dataset_seeds(w, 1) != run.dataset_seeds(w, 2)
    assert run.dataset_seeds(w, 1) != run.dataset_seeds(TINY["guidance-clean"], 1)
    blobs = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        ds = run.datasets(w, 1, tmp_path / sub)[0]
        assert run.run_cli(run.simulate_argv(w, ds), tmp_path / "log").exit_code == 0
        blobs.append(ds.batches.read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_timed_run_reports_every_metric(tmp_path, name):
    result = run.timed_run(TINY[name], 1, 0, tmp_path)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in result["metrics"].values())
    # two set-ups, two commands and one repeated set-up
    assert (result["attempted"], result["failed"]) == (5, 0)


def test_tiny_traced_run_reports_every_layer(tmp_path):
    result = run.traced_run(TINY["desk-classify"], 1, 0, tmp_path)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["classify.erm_k_intervals_s"] > 0
    assert metrics["classify.erm_positions"] > 0
    assert metrics["estimate.fit_piecewise_s"] == 0
    assert metrics["trace.missing_layers"] == 0


def test_failed_and_corrupted_commands_are_counted(tmp_path, monkeypatch):
    w = replace(TINY["desk-estimate"], datasets=3)
    real = run.run_cli

    def faulty(argv, log):
        sample = real(argv, log)
        if argv[0] == w.verb:
            report = Path(argv[argv.index("--out") + 1])
            if report.name == "report0.json":
                return replace(sample, exit_code=3)
            if report.name == "report1.json":
                report.write_text('{"cleaning": ')
        return sample

    monkeypatch.setattr(run, "run_cli", faulty)
    result = run.timed_run(w, 1, 0, tmp_path)
    assert (result["attempted"], result["failed"]) == (7, 2)
    problems = [c["problems"] for c in result["record"]["commands"]]
    assert problems[0] == ["exit code 3"]
    assert problems[1][0].startswith("unreadable report")
    assert problems[2] == []


def test_changed_repeated_setup_is_counted(tmp_path, monkeypatch):
    w = TINY["desk-estimate"]
    real = run.run_cli

    def drifting(argv, log):
        sample = real(argv, log)
        out = Path(argv[argv.index("--out") + 1])
        if out.name == "resimulated.jsonl":
            out.write_text(out.read_text() + "\n")
        return sample

    monkeypatch.setattr(run, "run_cli", drifting)
    result = run.timed_run(w, 1, 0, tmp_path)
    assert (result["attempted"], result["failed"]) == (5, 1)
    assert result["record"]["setups"][-1]["problems"] == [
        "repeated simulate wrote a different batch file"
    ]


def test_traced_report_must_match_the_timed_one():
    def runs(traced_digest):
        return [
            {"workload": "w", "seed": 1, "trace": 0, "digests": {"0": "a", "1": "b"}},
            {"workload": "w", "seed": 1, "trace": 1, "digests": {"0": traced_digest}},
        ]

    assert repeat.traced_mismatches(runs("a")) == []
    assert len(repeat.traced_mismatches(runs("c"))) == 1


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("clean")
    w = replace(TINY["guidance-clean"], datasets=1)
    assert run.timed_run(w, 1, 0, workdir)["failed"] == 0
    return w, run.datasets(w, 1, workdir)[0]


def rewrite(path: Path, edit) -> None:
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report))


def test_report_checks_flag_bad_values(clean_run):
    w, ds = clean_run
    original = ds.report.read_bytes()
    try:
        first = {}
        assert run.same_as_first(first, 0, run.check_report(w, ds, None)).problems == ()

        rewrite(ds.report, lambda r: r["cleaning"].update(fk_after=1.0))
        assert run.check_report(w, ds, None).problems[0].startswith("C6")
        assert run.same_as_first(first, 0, run.check_report(w, ds, None)).problems[-1] == (
            "report differs from the first run"
        )

        rewrite(ds.report, lambda r: r["cleaning"].pop("retention_good"))
        assert "malformed report" in run.check_report(w, ds, None).problems[-1]

        ds.report.write_bytes(original)
        rewrite(ds.report, lambda r: r["cleaning"]["retained_ids"].pop())
        assert run.check_report(w, ds, None).problems == (
            "retained file ids differ from the report's retained_ids",
        )
    finally:
        ds.report.write_bytes(original)


def test_tracer_records_spans_and_survives_missing_layers(monkeypatch):
    import robust_batches.partition as partition

    monkeypatch.setattr(
        trace_layers, "LAYERS", trace_layers.LAYERS + (("detect", "no_such_function", "detect.gone"),)
    )
    original = partition.build_partition
    tracer = trace_layers.Tracer(0)
    with tracer.installed():
        partition.build_partition(np.sort(np.random.default_rng(0).random(50)), 5)
    assert partition.build_partition is original
    assert tracer.missing == ["detect.no_such_function"]
    assert [s.name for s in tracer.spans] == ["partition.build_partition"]
    metrics = tracer.metrics()
    assert metrics["partition.ell"] == 5
    assert metrics["partition.build_partition_s"] > 0
