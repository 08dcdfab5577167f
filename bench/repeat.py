#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

Run from the repository root:

    python3 bench/repeat.py --label baseline --runs 10
    python3 bench/repeat.py --label rerun --runs 10 --compare bench/results/BENCH_baseline.json

For every workload in BENCHMARK.json this runs ``bench/run.py`` once per
seed (1 to ``--runs``) with tracing off, then once on seed 1 with tracing
on.  For each end-to-end metric it reports the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread, (q3 - q1) / median,
next to the metric's bound.  The summary, the environment, every run's
metrics and every report digest go to ``bench/results/BENCH_<label>.json``.

The traced run must produce the same report as the timed run of its seed;
a different digest is counted as a failure and makes the script exit 1.

``--compare`` checks this set against an earlier file: each median may be
worse than the earlier one by at most the metric's bound, and the report
digests of every (workload, seed, dataset, trace) run in both sets must be
equal.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    digests = {}
    env = None
    for line in lines[:-1]:
        if line.startswith("digest "):
            fields = dict(f.split("=", 1) for f in line.split()[2:])
            digests[fields["dataset"]] = fields["report_sha256"]
        elif line.startswith("samples "):
            print(f"  {workload} seed={seed} {line}", flush=True)
        elif line.startswith("env "):
            env = json.loads(line[4:])
    result = json.loads(lines[-1])
    return {"seed": seed, "trace": trace, "env": env, "digests": digests, **result}


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def summarise(bench: dict, runs: dict[str, list[dict]]) -> dict:
    out = {}
    for workload, results in runs.items():
        timed = [r for r in results if r["trace"] == 0]
        rows = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in timed]
            rows[metric["name"]] = {**spread(values), "bound": metric["bound"],
                                    "better": metric["better"], "values": values}
        out[workload] = {
            "attempted": sum(r["attempted"] for r in timed),
            "failed": sum(r["failed"] for r in timed),
            "end_to_end": rows,
            "per_layer": [r["metrics"] for r in results if r["trace"] == 1],
        }
    return out


def compare(current: dict, earlier: dict) -> list[str]:
    """Medians worse than the earlier set by more than the bound, and digest mismatches."""
    problems = []
    for workload, summary in current["summary"].items():
        before = earlier["summary"].get(workload)
        if before is None:
            continue
        for name, row in summary["end_to_end"].items():
            old = before["end_to_end"][name]["median"]
            sign = 1.0 if row["better"] == "lower" else -1.0
            worse = sign * (row["median"] - old) / old if old else 0.0
            if worse > row["bound"]:
                problems.append(f"{workload} {name}: median {row['median']:.6g} vs {old:.6g}")
    mine, theirs = digests(current["runs"]), digests(earlier["runs"])
    for key in sorted(mine.keys() & theirs.keys()):
        if mine[key] != theirs[key]:
            problems.append(f"report digest differs for workload/seed/dataset/trace {key}")
    return problems


def digests(runs: list[dict]) -> dict[tuple, str]:
    return {(r["workload"], r["seed"], d, r["trace"]): h
            for r in runs for d, h in r["digests"].items()}


def traced_mismatches(runs: list[dict]) -> list[str]:
    """Datasets whose traced report differs from the timed report of the same seed."""
    by_key = digests(runs)
    return [f"traced report differs from the timed one for workload/seed/dataset {key[:3]}"
            for key, h in sorted(by_key.items())
            if key[3] == 1 and by_key.get((*key[:3], 0)) != h]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workload", action="append", help="default: every workload")
    p.add_argument("--compare", type=Path, default=None)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = range(1, args.runs + 1)
    runs: dict[str, list[dict]] = {}
    for workload in workloads:
        results = runs.setdefault(workload, [])
        for seed, trace in [(s, 0) for s in seeds] + [(seeds[0], 1)]:
            result = run_once(workload, seed, bench["run_seconds"], trace)
            results.append({"workload": workload, **result})
            shown = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
            print(f"{workload} seed={seed} trace={trace} failed={result['failed']}/"
                  f"{result['attempted']} {shown}", flush=True)

    out = {
        "label": args.label,
        "run_seconds": bench["run_seconds"],
        "env": next(r["env"] for rs in runs.values() for r in rs),
        "summary": summarise(bench, runs),
        "runs": [r for rs in runs.values() for r in rs],
    }
    for workload, summary in out["summary"].items():
        print(f"{workload}: failed {summary['failed']}/{summary['attempted']}")
        for name, row in summary["end_to_end"].items():
            print(f"  {name:22s} median {row['median']:.6g}  spread {row['spread']:.4f}"
                  f"  bound {row['bound']}")
    mismatches = traced_mismatches(out["runs"])
    for problem in mismatches:
        print("trace: " + problem)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    if args.compare is not None:
        problems = compare(out, json.loads(args.compare.read_text()))
        for problem in problems:
            print("compare: " + problem)
        print(f"compare with {args.compare}: {'ok' if not problems else 'FAILED'}")
        return 1 if problems or mismatches else 0
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
