"""Command-line surface: simulate, clean, estimate, classify, eval.

simulate, clean, estimate and classify draw randomness; they take --seed
and are deterministic given it.  Each command takes only the flags it
reads.  Reports embed the resolved configuration; the output format
(--format) is excluded, so reruns stay byte-identical.
Exit codes: 0 success, 2 usage, file-format or file-system error, 1 runtime
failure.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .classify import robust_classify
from .clean import clean_pipeline, guidance_batches, prepare_cleaning, reference_fk
from .core import BETA_MAX, BatchCollection, DomainError, LabeledCollection, UsageError
from .corruption import STOP_FACTOR, TRIGGER_FACTOR, corruption_collection
from .estimate import check_fit_shape, evaluate_density, fit_piecewise, fk_family_k
from .io import canonical_json, csv_text, read_batches, read_json, write_batches
from .partition import BinSubset, count_cells, cut_partition
from .simulate import ClassificationTarget, build_collection, parse_attack, parse_target


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:  # numpy's seeding refuses it
        raise argparse.ArgumentTypeError(f"--seed must be nonnegative, got {seed}")
    return seed


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_seed, default=0, help="rng seed (the command is deterministic given it)")


def _add_report_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=str, default=None, help="report path (default: stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _add_cleaning_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beta", type=float, required=True, help=f"adversarial batch fraction (<= {BETA_MAX})")
    p.add_argument("--trigger", type=float, default=TRIGGER_FACTOR, help="deletion trigger, multiples of kappa_g")
    p.add_argument("--stop", type=float, default=STOP_FACTOR, help="deletion stop, multiples of kappa_g")
    _add_seed(p)
    _add_report_out(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robust-batches",
        description="Robust distribution estimation and classification from adversarial sample batches",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a contaminated collection")
    p.add_argument("--target", required=True, help="e.g. uniform:0,1 | gm:0.5N(0,1)+0.5N(3,0.5)")
    p.add_argument("--attack", default="none", help="e.g. mean_shift:1.0@0.45,0.55")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--out", type=str, default=None, help="batch file path (jsonl)")
    _add_seed(p)

    p = sub.add_parser("clean", help="partition, discretize, detect-and-delete")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--target", default=None, help="simulation-mode reference for fk scoring")
    p.add_argument("--retained", default=None, help="write surviving batches here (jsonl)")
    p.add_argument("--partition-out", default=None, help="write the partition here (json)")
    _add_cleaning_flags(p)

    p = sub.add_parser("estimate", help="clean, then fit a piecewise-polynomial density")
    p.add_argument("--input", required=True)
    p.add_argument("--t", type=int, required=True, help="number of polynomial pieces")
    p.add_argument("--d", type=int, required=True, help="polynomial degree per piece")
    p.add_argument("--target", default=None)
    p.add_argument("--fit-out", default=None, help="write the fitted density here (json)")
    _add_cleaning_flags(p)

    p = sub.add_parser("classify", help="clean labeled batches, then interval ERM")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--target", default=None)
    _add_cleaning_flags(p)

    p = sub.add_parser("eval", help="score a cleaning report against truth flags")
    p.add_argument("--input", required=True)
    p.add_argument("--report", required=True, help="report written by clean, estimate or classify")
    p.add_argument("--target", default=None)
    p.add_argument("--subset", default=None, help="comma-separated 1-based bins for a corruption report")
    _add_report_out(p)

    return parser


def _emit(report: dict, args) -> None:
    text = (csv_text if args.format == "csv" else canonical_json)(report)
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, newline="")


def _cmd_simulate(args) -> int:
    if args.out is None:
        raise UsageError("simulate requires --out for the batch file")
    target = parse_target(args.target)
    attack = parse_attack(args.attack)
    collection = build_collection(target, attack, args.m, args.n, args.beta, args.seed)
    write_batches(collection, args.out)
    return 0


def _target(args, collection):
    """The parsed --target, or None.  A labeled: target goes only with a
    labeled batch file, and every other target only with an unlabeled one."""
    if not args.target:
        return None
    target = parse_target(args.target)
    if isinstance(target, ClassificationTarget) != isinstance(collection, LabeledCollection):
        raise UsageError(
            f"{args.command}: a labeled: target needs a labeled batch file, "
            "and every other target an unlabeled one"
        )
    return target


def _clean_config(args, *extra: str) -> dict:
    keys = ("seed", "beta", "trigger", "stop", "input", "out", *extra)
    return {**{key: getattr(args, key) for key in keys}, "command": args.command}


def _cleaning_run(args, kind) -> tuple:
    """The input of clean, estimate and classify: the batch file, which
    must hold a ``kind`` collection, the parsed --target and the seeded rng.
    Non-finite --trigger or --stop values are refused before any work."""
    for flag in ("trigger", "stop"):
        if not math.isfinite(getattr(args, flag)):
            raise UsageError(f"--{flag} must be a finite number, got {getattr(args, flag)}")
    collection = read_batches(args.input)
    if not isinstance(collection, kind):
        article = "a labeled" if kind is LabeledCollection else "an unlabeled"
        raise UsageError(f"{args.command} expects {article} batch file")
    target = _target(args, collection)
    return collection, target, np.random.Generator(np.random.PCG64(args.seed))


def _cmd_clean(args) -> int:
    collection, target, rng = _cleaning_run(args, BatchCollection)
    result = clean_pipeline(collection, args.k, args.beta, rng, args.trigger, args.stop, target)
    report = {
        "config": _clean_config(args, "k", "target", "retained"),
        "cleaning": result.report.to_dict(),
        "guidance_batches": (
            guidance_batches(args.k, collection.n, args.beta) if args.beta > 0 else None
        ),
    }
    if args.retained:
        write_batches(result.retained, args.retained)
    if args.partition_out:
        Path(args.partition_out).write_text(canonical_json(result.partition.to_dict()))
    _emit(report, args)
    return 0


def _cmd_estimate(args) -> int:
    collection, target, rng = _cleaning_run(args, BatchCollection)
    check_fit_shape(args.t, args.d, collection.n * collection.m)
    k_clean = fk_family_k(args.t, args.d)
    result = clean_pipeline(collection, k_clean, args.beta, rng, args.trigger, args.stop, target)
    samples = result.retained.samples
    support = (float(samples.min()), float(samples.max()))
    fit = fit_piecewise(result.cleaned.pooled(), result.partition, args.t, args.d, support)
    report = {
        "config": _clean_config(args, "t", "d", "target"),
        "cleaning": result.report.to_dict(),
        "fit": fit.to_dict(),
    }
    if target is not None:
        report["tv_to_target"] = float(evaluate_density(fit.density, target))
    if args.fit_out:
        Path(args.fit_out).write_text(canonical_json(fit.density.to_dict()))
    _emit(report, args)
    return 0


def _cmd_classify(args) -> int:
    collection, target, rng = _cleaning_run(args, LabeledCollection)
    hypothesis, report = robust_classify(
        collection, args.k, args.beta, rng, args.trigger, args.stop, target
    )
    out = {
        "config": _clean_config(args, "k", "target"),
        **report.to_dict(),
        # interval endpoints may be infinite; JSON needs them spelled out
        "decision_region": [
            {key: v if math.isfinite(v) else str(v) for key, v in (("lo", iv.lo), ("hi", iv.hi))}
            for iv in hypothesis.decision_region.intervals
        ],
    }
    _emit(out, args)
    return 0


def _eval_section(report) -> dict:
    """The cleaning section that clean, estimate and classify reports share."""
    section = report.get("cleaning") if isinstance(report, dict) else None
    keys = {"retained_ids", "beta", "k", "ell", "source_token"}
    if isinstance(section, dict) and keys <= section.keys():
        return section
    raise UsageError("eval expects a report written by clean, estimate or classify")


def _cmd_eval(args) -> int:
    collection = read_batches(args.input)
    section = _eval_section(read_json(args.report))
    try:
        retained_ids = list(section["retained_ids"])
        k, beta = section["k"], section["beta"]
        for v in (k, *retained_ids):  # refused, not truncated
            if type(v) is not int:
                raise UsageError(f"malformed report: {v!r} is not an integer")
        if type(beta) not in (int, float):  # refused, not parsed
            raise UsageError(f"malformed report: beta {beta!r} is not a number")
        members = frozenset(int(v) for v in args.subset.split(",")) if args.subset else None
    except (TypeError, ValueError) as exc:
        raise UsageError(f"malformed report or --subset: {exc}") from exc
    target = _target(args, collection)
    ell, params = prepare_cleaning(collection, k, beta)
    partition = cut_partition(collection, ell)
    if (partition.ell, partition.source_token) != (section["ell"], section["source_token"]):
        raise UsageError("the report's partition does not match the batch file")
    scored = target is not None and collection.truth is not None
    # the count table is read only by --subset and by a density target's fk scores
    fk = scored and not isinstance(collection, LabeledCollection)
    disc = count_cells(partition, collection) if fk or members is not None else None
    out: dict = {"config": {"command": "eval", "input": args.input, "report": args.report}}
    if collection.truth is not None:
        retained = set(retained_ids)
        scores = out["metrics"] = {"retention_good": collection.retention_good(retained)}
        if scored:
            scores.update(retained=len(retained), m=collection.m)
        if fk:
            kept = disc.subset(np.isin(disc.ids, retained_ids))
            scores["fk_before"], scores["fk_after"] = reference_fk(disc, kept, target, partition, k)
    if members is not None:
        if not all(1 <= j <= partition.ell for j in members):
            raise UsageError(f"--subset bins must lie in 1..{partition.ell}")
        out["corruption"] = corruption_collection(disc, BinSubset(members), params).to_dict()
    _emit(out, args)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "clean": _cmd_clean,
    "estimate": _cmd_estimate,
    "classify": _cmd_classify,
    "eval": _cmd_eval,
}


def main(argv=None) -> int:
    if argv is None:
        # the process's own entry: what the imports built lives until exit,
        # so no collection, the one at shutdown included, walks it again
        gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (UsageError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
