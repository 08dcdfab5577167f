#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the robust-batches command line.

Run from the repository root:

    python3 bench/run.py --workload desk-estimate --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the benchmark generates each of the workload's datasets
with the CLI ``simulate`` command (the set-up), then runs the workload's
main CLI command on them in turn, one subprocess at a time and with a
repeated set-up after every second command, until ``--seconds`` have
passed and every dataset has been used once.  It prints
the end-to-end metrics.  With ``--trace 1`` it runs the same path in this
process, timing the public functions of every package module (see
``trace_layers.py``), and prints the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
describe the run: the environment, per-command samples and a digest of
every report, so that two sets of runs can be compared byte for byte.  A
full record of each run is written under ``.bench_work/``.

The package is imported from ``src/`` of the checkout; nothing is
installed.  Without ``src/robust_batches`` the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Relative, and run from ROOT, so reports (which record their input and
# output paths) are byte-identical in every checkout.
WORK = Path(".bench_work")

GM = "gm:0.6N(0,1)+0.4N(3,0.5)"
SHIFT = "mean_shift:1.0@1.4,1.6"
LABELED = "labeled:0,0.5,1|0.5,0.5|0.8,0.2"
FLIP = "label_flip:1.0@0,0.25"
# The acceptance suite's desk-scale override of the 25/20 deletion thresholds:
# at n=100 the defaults can never engage the filter.
THRESHOLD_FLAGS = ("--trigger", "5", "--stop", "4")
# After every this many main commands the timed run repeats one dataset's
# simulate, so setup_s is a median over set-ups spread across the whole run.
COMMANDS_PER_SETUP = 2


@dataclass(frozen=True)
class Workload:
    """One seeded input family and the CLI command that consumes it."""

    name: str
    target: str
    attack: str
    m: int
    command: tuple[str, ...]
    n: int = 100
    beta: float = 0.2
    datasets: int = 3  # distinct inputs per run; the quality metrics are medians over them

    @property
    def verb(self) -> str:
        return self.command[0]


# Why each workload: desk-estimate is the acceptance-scale density path
# (spectral detection at ell=600, piecewise fit, TV quadrature; light I/O and
# deletion).  desk-classify is the only path through interval ERM and the
# per-label product domain.  guidance-clean runs at the paper's batch-count
# guidance, where JSON I/O, discretize and the deletion loop dominate; one of
# its runs takes about a minute, so it is run by hand (bench/repeat.py
# --workload guidance-clean) and BENCHMARK.json lists only the desk workloads.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-estimate", GM, SHIFT, 1000, ("estimate", "--t", "3", "--d", "1")),
        Workload("desk-classify", LABELED, FLIP, 1000, ("classify", "--k", "2")),
        Workload("guidance-clean", GM, SHIFT, 20000, ("clean", "--k", "2")),
    )
}


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def dataset_seeds(workload: Workload, seed: int) -> list[int]:
    """Batch seeds of the workload's datasets, derived from the run seed."""
    out = []
    for i in range(workload.datasets):
        digest = hashlib.sha256(f"{workload.name}:{seed}:{i}".encode()).digest()
        out.append(int.from_bytes(digest[:4], "little"))
    return out


@dataclass(frozen=True)
class Dataset:
    """Files of one dataset inside a run's work directory."""

    index: int
    seed: int
    batches: Path
    report: Path
    retained: Path


def datasets(workload: Workload, seed: int, workdir: Path) -> list[Dataset]:
    return [
        Dataset(
            i,
            s,
            workdir / f"batches{i}.jsonl",
            workdir / f"report{i}.json",
            workdir / f"retained{i}.jsonl",
        )
        for i, s in enumerate(dataset_seeds(workload, seed))
    ]


def simulate_argv(workload: Workload, ds: Dataset, out: Path | None = None) -> list[str]:
    return [
        "simulate", "--target", workload.target, "--attack", workload.attack,
        "--m", str(workload.m), "--n", str(workload.n), "--beta", str(workload.beta),
        "--seed", str(ds.seed), "--out", str(out or ds.batches),
    ]


def command_argv(workload: Workload, ds: Dataset) -> list[str]:
    argv = [
        *workload.command, "--input", str(ds.batches), "--beta", str(workload.beta),
        "--seed", str(ds.seed), *THRESHOLD_FLAGS, "--target", workload.target,
        "--out", str(ds.report),
    ]
    if workload.verb == "clean":
        argv += ["--retained", str(ds.retained)]
    return argv


# --- running the CLI -----------------------------------------------------

def child_env() -> dict:
    """The caller's environment with the checkout's src/ first on the path.

    ROBUST_BATCHES_THREADS is dropped so every command runs at the CLI's
    default thread count, as a user who never set it would.
    """
    env = dict(os.environ)
    env.pop("ROBUST_BATCHES_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass(frozen=True)
class Sample:
    wall_s: float
    peak_rss_mib: float
    exit_code: int


def run_cli(argv: list[str], log: Path) -> Sample:
    """Run one CLI command in a fresh interpreter; wall time and peak RSS."""
    with log.open("w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "robust_batches.cli", *argv],
            cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return Sample(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def time_import(count: int = 3) -> float:
    """Median wall time of ``import robust_batches.cli`` in a fresh interpreter."""
    walls = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import robust_batches.cli"],
            cwd=ROOT, env=child_env(), check=True,
        )
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


# --- correctness ---------------------------------------------------------

def c6_bound(workload: Workload) -> float:
    return 10.0 * workload.beta * math.sqrt(math.log(1.0 / workload.beta) / workload.n)


def naive_excess_risk(workload: Workload, batches: Path) -> float:
    """Excess risk of plain ERM on the pooled, uncleaned input (C10's baseline)."""
    from robust_batches.classify import erm_k_intervals
    from robust_batches.io import read_batches
    from robust_batches.simulate import parse_target

    target = parse_target(workload.target)
    x, y = read_batches(batches).pooled()
    k = int(workload.command[workload.command.index("--k") + 1])
    return target.risk_of(erm_k_intervals(x, y, k)) - target.optimal_risk()


def retained_ids(path: Path) -> list[int]:
    with path.open() as fh:
        next(fh)  # header
        return [json.loads(line)["id"] for line in fh if line.strip()]


@dataclass(frozen=True)
class Outcome:
    """What one main command produced, and every check it failed."""

    digest: str | None
    target_error: float | None
    retention_good: float | None
    problems: tuple[str, ...]


def check_report(workload: Workload, ds: Dataset, naive_excess: float | None) -> Outcome:
    """Parse a report and apply the workload's acceptance rules.

    estimate and clean: C6, fk_after <= 10*beta*sqrt(ln(1/beta)/n) and
    fk_after <= fk_before/2.  classify: C10, excess_risk <= half the plain
    ERM excess risk.  clean: the retained file holds exactly the report's
    retained_ids.  A report that cannot be read counts as a failure.
    """
    try:
        blob = ds.report.read_bytes()
        report = json.loads(blob)
    except (OSError, ValueError) as exc:
        return Outcome(None, None, None, (f"unreadable report: {exc}",))
    digest = hashlib.sha256(blob).hexdigest()
    problems = []
    try:
        if workload.verb == "classify":
            section = report["classification"]
            error = float(section["risk_vs_target"])
            excess = float(section["excess_risk"])
            if naive_excess is None or not excess <= 0.5 * naive_excess:
                problems.append(f"C10: excess_risk {excess} > half of plain ERM's {naive_excess}")
        else:
            section = report["cleaning"]
            fk_after, fk_before = float(section["fk_after"]), float(section["fk_before"])
            bound = c6_bound(workload)
            if not (fk_after <= bound and fk_after <= 0.5 * fk_before):
                problems.append(f"C6: fk_after {fk_after} vs bound {bound}, fk_before {fk_before}")
            error = float(report["tv_to_target"]) if workload.verb == "estimate" else fk_after
        retention = float(section["retention_good"])
        if workload.verb == "clean":
            try:
                if retained_ids(ds.retained) != list(section["retained_ids"]):
                    problems.append("retained file ids differ from the report's retained_ids")
            except (OSError, ValueError, KeyError, StopIteration) as exc:
                problems.append(f"unreadable retained file: {exc!r}")
    except (KeyError, TypeError, ValueError) as exc:
        return Outcome(digest, None, None, (*problems, f"malformed report: {exc!r}"))
    if not (math.isfinite(error) and error > 0.0):
        problems.append(f"target error {error} is not a positive number")
    return Outcome(digest, error, retention, tuple(problems))


# --- environment ---------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "robust_batches").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return (proc.stdout.strip() or None) if proc.returncode == 0 else None


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
    }


def same_as_first(first: dict[int, Outcome], index: int, outcome: Outcome) -> Outcome:
    """Record the first outcome per dataset; a later report must match it byte for byte."""
    if first.setdefault(index, outcome).digest == outcome.digest:
        return outcome
    return replace(outcome, problems=(*outcome.problems, "report differs from the first run"))


def command_outcome(
    exit_code: int, workload: Workload, ds: Dataset, naive_excess: float | None,
    first: dict[int, Outcome],
) -> Outcome:
    """Every check on one main command; any problem counts it as failed."""
    if exit_code != 0:
        return Outcome(None, None, None, (f"exit code {exit_code}",))
    return same_as_first(first, ds.index, check_report(workload, ds, naive_excess))


def resimulate(workload: Workload, ds: Dataset, workdir: Path) -> tuple[Sample, tuple[str, ...]]:
    """Repeat a dataset's set-up; the new batch file must equal the first byte for byte."""
    out = workdir / "resimulated.jsonl"
    sample = run_cli(simulate_argv(workload, ds, out), workdir / "resimulate.log")
    if sample.exit_code != 0:
        return sample, (f"simulate exit code {sample.exit_code}",)
    same = out.read_bytes() == ds.batches.read_bytes()
    out.unlink()
    return sample, () if same else ("repeated simulate wrote a different batch file",)


# --- the timed run -------------------------------------------------------

def highest_percentile(values: list[float], beyond: int = 10) -> tuple[float, float] | None:
    """Highest of p50/p90/p99/p99.9 with at least ``beyond`` samples above it."""
    ordered = sorted(values)
    best = None
    for p in (50.0, 90.0, 99.0, 99.9):
        rank = math.ceil(p / 100.0 * len(ordered))
        if rank >= 1 and len(ordered) - rank >= beyond:
            best = (p, ordered[rank - 1])
    return best


def timed_run(workload: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    """Set up every dataset with the CLI, then time the main command.

    Set-ups are repeated between commands (see COMMANDS_PER_SETUP), so both
    medians average over the same stretch of the machine's speed.
    """
    record: dict = {"setups": [], "commands": [], "datasets": {}}
    attempted = failed = 0
    ready: list[Dataset] = []
    for ds in datasets(workload, seed, workdir):
        sample = run_cli(simulate_argv(workload, ds), workdir / f"simulate{ds.index}.log")
        attempted += 1
        problems = [f"simulate exit code {sample.exit_code}"] if sample.exit_code else []
        record["setups"].append(vars(sample) | {"dataset": ds.index, "problems": problems})
        if problems:
            failed += 1
            continue
        naive = naive_excess_risk(workload, ds.batches) if workload.verb == "classify" else None
        record["datasets"][ds.index] = {"seed": ds.seed, "naive_excess_risk": naive}
        ready.append(ds)

    first: dict[int, Outcome] = {}
    deadline = time.perf_counter() + seconds
    i = 0
    while ready and (i < len(ready) or time.perf_counter() < deadline):
        ds = ready[i % len(ready)]
        i += 1
        sample = run_cli(command_argv(workload, ds), workdir / f"command{ds.index}.log")
        attempted += 1
        naive = record["datasets"][ds.index]["naive_excess_risk"]
        outcome = command_outcome(sample.exit_code, workload, ds, naive, first)
        failed += bool(outcome.problems)
        record["commands"].append(
            vars(sample) | {"dataset": ds.index, "digest": outcome.digest,
                            "problems": list(outcome.problems)}
        )
        if i % COMMANDS_PER_SETUP == 0:
            again = ready[(i // COMMANDS_PER_SETUP - 1) % len(ready)]
            sample, problems = resimulate(workload, again, workdir)
            attempted += 1
            failed += bool(problems)
            record["setups"].append(
                vars(sample) | {"dataset": again.index, "problems": list(problems)}
            )
    for index, outcome in first.items():
        record["datasets"][index].update(
            digest=outcome.digest, target_error=outcome.target_error,
            retention_good=outcome.retention_good,
        )

    setups = [s["wall_s"] for s in record["setups"]]
    commands = [c["wall_s"] for c in record["commands"]]
    errors = [o.target_error for o in first.values() if o.target_error is not None]
    retention = [o.retention_good for o in first.values() if o.retention_good is not None]
    if not (setups and commands and errors and retention):
        raise RuntimeError("nothing was measured; see the logs under " + str(workdir))
    record["setup_samples"] = len(setups)
    record["command_samples"] = len(commands)
    record["command_highest_percentile"] = highest_percentile(commands)
    metrics = {
        "setup_s": statistics.median(setups),
        "command_s": statistics.median(commands),
        "command_peak_rss_mb": statistics.median(c["peak_rss_mib"] for c in record["commands"]),
        "target_error": statistics.median(errors),
        "retention_good": statistics.median(retention),
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "record": record}


# --- the traced run ------------------------------------------------------

def traced_run(workload: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    """Per-layer spans of the workload's path, run in this process.

    One pass builds the first dataset with the library's ``build_collection``
    (its default, single-threaded), writes it, and runs the main command
    through ``cli.main`` with the same arguments as the timed run.  An
    untraced warm-up pass comes first; traced and untraced passes then
    alternate until ``seconds`` have passed.  The tracing overhead is the
    median traced pass minus the median untraced one.
    """
    import trace_layers
    from robust_batches import cli, io, simulate

    ds = datasets(workload, seed, workdir)[0]
    target = simulate.parse_target(workload.target)
    attack = simulate.parse_attack(workload.attack)
    argv = command_argv(workload, ds)

    def one_pass() -> tuple[float, int]:
        # module attributes are looked up per call, so installed wrappers run
        start = time.perf_counter()
        collection = simulate.build_collection(
            target, attack, workload.m, workload.n, workload.beta, ds.seed
        )
        io.write_batches(collection, ds.batches)
        del collection
        code = cli.main(argv)
        return time.perf_counter() - start, code

    record: dict = {"datasets": {}, "commands": [], "spans": []}
    import_s = time_import()
    first: dict[int, Outcome] = {}
    naive = None
    traced: list[tuple[float, dict]] = []
    untraced: list[float] = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while len(untraced) < 2 or not traced or time.perf_counter() < deadline:
        tracer = trace_layers.Tracer(len(record["commands"]))
        is_traced = bool(untraced) and len(traced) < len(untraced)
        if is_traced:
            with tracer.installed():
                wall, code = one_pass()
        else:
            wall, code = one_pass()
        if naive is None and workload.verb == "classify" and code == 0:
            naive = naive_excess_risk(workload, ds.batches)
        attempted += 1
        outcome = command_outcome(code, workload, ds, naive, first)
        failed += bool(outcome.problems)
        record["commands"].append(
            {"traced": is_traced, "dataset": ds.index, "wall_s": wall, "exit_code": code,
             "digest": outcome.digest, "problems": list(outcome.problems)}
        )
        if is_traced:
            traced.append((wall, tracer.metrics()))
            record["spans"].extend(tracer.to_records())
            record["missing_layers"] = tracer.missing
        else:
            untraced.append(wall)
    record["datasets"][ds.index] = {
        "seed": ds.seed, "digest": first[ds.index].digest if first else None
    }
    (workdir / f"spans-seed{seed}.json").write_text(json.dumps(record["spans"]))
    del record["spans"]
    for name in record["missing_layers"]:
        print(f"missing layer {name}: its metrics read zero")

    # times are medians over traced passes; counts repeat exactly, so take the last
    units = metric_units("per_layer")
    layers = {
        name: (statistics.median(m[name] for _, m in traced)
               if units[name] != "count" else traced[-1][1][name])
        for name in traced[0][1]
    }
    pipeline_s = statistics.median(untraced[1:])
    metrics = {
        "cli.import_s": import_s,
        **layers,
        "io.batch_file_mb": ds.batches.stat().st_size / 2**20,
        "trace.pipeline_s": pipeline_s,
        "trace.overhead_s": statistics.median(w for w, _ in traced) - pipeline_s,
        "trace.missing_layers": len(record["missing_layers"]),
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "record": record}


# --- entry point ---------------------------------------------------------

def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # turn SIGTERM into SystemExit so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "robust_batches" / "cli.py").is_file():
        print(f"error: {SRC / 'robust_batches'} not found; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import robust_batches

    if Path(robust_batches.__file__).resolve().parent != SRC / "robust_batches":
        print(f"error: imported {robust_batches.__file__}, not the checkout's", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    os.chdir(ROOT)
    workdir = WORK / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        result = traced_run(workload, args.seed, args.seconds, workdir)
    else:
        result = timed_run(workload, args.seed, args.seconds, workdir)
    record = result["record"]
    for index, info in sorted(record["datasets"].items()):
        print(f"digest {workload.name} seed={args.seed} dataset={index} "
              f"batch_seed={info['seed']} report_sha256={info.get('digest')}")
    if "command_samples" in record:
        walls = [round(c["wall_s"], 3) for c in record["commands"]]
        print(f"samples setup_s={record['setup_samples']} command_s={record['command_samples']} "
              f"highest_percentile={record['command_highest_percentile']} walls={walls}")
    for entry in record.get("setups", []) + record["commands"]:
        for problem in entry["problems"]:
            print(f"failure dataset={entry['dataset']}: {problem}")
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in metric_units("per_layer" if args.trace else "end_to_end").items()
        },
    }
    (workdir / f"result-seed{args.seed}.json").write_text(
        json.dumps({"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "env": env, **summary, "record": record},
                   indent=2, sort_keys=True, default=str)
    )
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
