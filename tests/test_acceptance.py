"""Acceptance suite: one test per release criterion, at stated tolerances.

The engagement thresholds for the deletion loop are asymptotic constants.
At this suite's desk scale (n = 100, beta = 0.2) a batch's corruption
score is capped at 1 while the default trigger is 25*ln(6e/beta)/n = 1.10
per adversarial batch, so the default-configured filter can never engage
regardless of m.  The end-to-end criteria therefore run the pipeline with
the documented overrides trigger=5*kappa_g / stop=4*kappa_g, preserving
the defaults' 25:20 proportion; threshold-sensitive criteria (4, 7) keep
the stated constants.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

import robust_batches as rb
from robust_batches.clean import clean_pipeline
from robust_batches.cli import main as cli_main
from robust_batches.estimate import evaluate_density, fit_piecewise
from robust_batches.simulate import (
    ClassificationTarget,
    GaussianMixtureTarget,
    LabelFlipAttack,
    MeanShiftAttack,
    parse_target,
)
from oracles import check_properties, fk_distance_brute, iter_k_run_subsets

warnings.filterwarnings("ignore", message="m=.*guidance")

SEEDS = range(20)
TRIGGER, STOP = 5.0, 4.0  # desk-scale override of the 25/20 defaults


def report(name: str, ok: bool, detail: str, started: float) -> None:
    took = time.perf_counter() - started
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail}; {took:.1f}s)")


# --- criterion 1: F_k dynamic program equals the exhaustive oracle -----

def test_c01_fk_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    mismatches = 0
    for _ in range(500):
        ell = int(rng.integers(1, 13))
        k = int(rng.integers(1, 4))
        # dyadic masses keep float sums order-independent, so exact
        # equality between the DP and the enumeration is well-defined
        p = rng.multinomial(64, np.full(ell, 1.0 / ell)) / 64.0
        q = rng.multinomial(64, np.full(ell, 1.0 / ell)) / 64.0
        if rb.fk_distance(p, q, k) != fk_distance_brute(p, q, k):
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 10.0
    report("C1 fk-distance oracle equivalence", ok, f"{mismatches} mismatches", started)
    assert mismatches == 0
    assert elapsed < 10.0


# --- criterion 2: interval-ERM dynamic program equals exhaustive search -

def _erm_exhaustive_loss(x, y, k):
    from robust_batches.partition import Interval, IntervalUnion

    xs = np.unique(x)
    best = None
    for subset in iter_k_run_subsets(len(xs), k):
        intervals = []
        for a, b in subset.runs():
            lo = -np.inf if a == 1 else 0.5 * (xs[a - 2] + xs[a - 1])
            hi = np.inf if b == len(xs) else 0.5 * (xs[b - 1] + xs[b])
            intervals.append(Interval(lo, hi))
        h = rb.KIntervalHypothesis(IntervalUnion(tuple(intervals)))
        loss = rb.risk(h, x, y)
        if best is None or loss < best:
            best = loss
    return best


def test_c02_erm_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    mismatches = 0
    for _ in range(500):
        s = int(rng.integers(2, 13))
        k = int(rng.integers(1, 3))
        x = np.round(rng.random(s), 2)
        y = rng.integers(0, 2, s)
        dp = rb.risk(rb.erm_k_intervals(x, y, k), x, y)
        if dp != _erm_exhaustive_loss(x, y, k):
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 10.0
    report("C2 interval-ERM oracle equivalence", ok, f"{mismatches} mismatches", started)
    assert mismatches == 0
    assert elapsed < 10.0


# --- criterion 3: the partition's bin subsets are a 2k/ell cover --------

def test_c03_cover_lemma():
    started = time.perf_counter()
    n, m, ell = 100, 100, 100  # ell divides s = n*m, so the bound is exact
    target = parse_target("uniform:0,1")
    violations = 0
    checked = 0
    for seed in SEEDS:
        coll = rb.build_collection(target, None, m, n, 0.0, seed)
        xs = coll.pooled_samples()
        if np.unique(xs).size != xs.size:
            continue  # the guarantee is stated for duplicate-free samples
        part = rb.build_partition(xs, ell)
        cuts = np.array((-np.inf,) + part.boundaries + (np.inf,))
        rng = np.random.default_rng(3000 + seed)
        s = xs.size
        for _ in range(200):
            k = int(rng.integers(1, 4))
            pts = np.sort(rng.uniform(-0.1, 1.1, 2 * k))
            checked += 1
            in_s = in_star = 0
            for a, b in zip(pts[0::2], pts[1::2]):
                in_s += int(
                    np.searchsorted(xs, b, side="right") - np.searchsorted(xs, a, side="left")
                )
                # cells (c_{j-1}, c_j] fully inside [a, b]
                fully = np.nonzero((cuts[:-1] >= a) & (cuts[1:] <= b))[0]
                for j in fully:
                    in_star += int(
                        np.searchsorted(xs, cuts[j + 1], side="right")
                        - np.searchsorted(xs, cuts[j], side="right")
                    )
            # p(S \ S*) <= 2k/ell, compared in integers: ell | s
            if (in_s - in_star) * ell > 2 * k * s:
                violations += 1
    elapsed = time.perf_counter() - started
    ok = violations == 0 and elapsed < 30.0
    report("C3 2k/ell cover lemma", ok, f"{violations}/{checked} violations", started)
    assert violations == 0
    assert elapsed < 30.0


# --- criterion 4: the three concentration properties, constants as stated

def test_c04_concentration_properties():
    started = time.perf_counter()
    n, m, beta, k = 100, 500, 0.1, 2
    ell = rb.choose_ell(k, n, beta, m)
    results = {}
    for name, target in (
        ("uniform", parse_target("uniform:0,1")),
        ("gm2", GaussianMixtureTarget((0.5, 0.5), (0.0, 3.0), (1.0, 0.5))),
    ):
        passes = 0
        for seed in SEEDS:
            coll = rb.build_collection(target, None, m, n, 0.0, seed)
            part, disc = rb.discretize(coll, ell)
            params = rb.CorruptionParams(beta, n, m)
            rng = np.random.default_rng(4000 + seed)
            subsets = [
                rb.BinSubset(
                    frozenset(int(j) + 1 for j in np.nonzero(rng.random(part.ell) < 0.5)[0])
                )
                for _ in range(100)
            ]
            rep = check_properties(disc, target.bin_masses(part), subsets, params)
            passes += rep.all_ok
        results[name] = passes
    elapsed = time.perf_counter() - started
    ok = all(v >= 18 for v in results.values()) and elapsed < 120.0
    report("C4 concentration properties", ok, f"passes {results}", started)
    assert all(v >= 18 for v in results.values()), results
    assert elapsed < 120.0


# --- criteria 5 and 6 share 20 cleaning runs under the mean-shift attack

@pytest.fixture(scope="module")
def mean_shift_runs():
    target = parse_target("uniform:0,1")
    n = 100
    attack = MeanShiftAttack(10.0 / math.sqrt(n), (0.45, 0.55))
    reports = []
    for seed in SEEDS:
        coll = rb.build_collection(target, attack, 1000, n, 0.2, seed)
        rep = clean_pipeline(
            coll,
            2,
            0.2,
            np.random.default_rng(seed),
            trigger_factor=TRIGGER,
            stop_factor=STOP,
            reference=target,
        ).report
        reports.append(rep)
    return reports


def test_c05_retention(mean_shift_runs):
    started = time.perf_counter()
    beta = 0.2
    hits = sum(rep.retention_good >= 1.0 - beta / 6.0 for rep in mean_shift_runs)
    elapsed = time.perf_counter() - started
    ok = hits >= 18
    report("C5 good-batch retention", ok, f"{hits}/20 seeds", started)
    assert hits >= 18
    assert elapsed < 300.0


def test_c06_cleaning_quality(mean_shift_runs):
    started = time.perf_counter()
    beta, n = 0.2, 100
    bound = 10.0 * beta * math.sqrt(math.log(1.0 / beta) / n)
    hits = sum(
        rep.fk_after <= bound and rep.fk_after <= 0.5 * rep.fk_before
        for rep in mean_shift_runs
    )
    elapsed = time.perf_counter() - started
    ok = hits >= 18
    report("C6 cleaning quality", ok, f"{hits}/20 seeds, bound {bound:.3f}", started)
    assert hits >= 18
    assert elapsed < 300.0


# --- criterion 7: deletion precision on a crafted single-bin attack -----

def test_c07_deletion_precision():
    started = time.perf_counter()
    n, good, bad, ell = 10_000, 470, 30, 12
    m = good + bad
    beta = bad / m
    params = rb.CorruptionParams(beta, n, m)
    hot = 3
    precisions = []
    for seed in SEEDS:
        rng = np.random.default_rng(7000 + seed)
        counts = rng.multinomial(n, np.full(ell, 1.0 / ell), size=m)
        dev = int(round(2.0 * params.tau * n))
        for i in range(good, m):  # adversarial rows sit at deviation 2*tau
            need = dev
            for j in range(ell):
                if j == hot or need == 0:
                    continue
                moved = min(counts[i, j], need)
                counts[i, j] -= moved
                counts[i, hot] += moved
                need -= moved
        truth = ("good",) * good + ("adversarial",) * bad
        coll = rb.DiscretizedCollection(counts, tuple(range(m)), n, truth)
        subset = rb.BinSubset.of(hot + 1)
        med = rb.median_prob(coll, subset)
        out = rb.batch_deletion(coll, subset, med, params, np.random.default_rng(seed))
        deleted = set(coll.ids) - set(out.ids)
        assert deleted, "the crafted attack must engage the filter"
        precisions.append(sum(1 for i in deleted if i >= good) / len(deleted))
    elapsed = time.perf_counter() - started
    mean_precision = float(np.mean(precisions))
    ok = mean_precision >= 0.9 and elapsed < 120.0
    report("C7 deletion precision", ok, f"mean precision {mean_precision:.3f}", started)
    assert mean_precision >= 0.9
    assert elapsed < 120.0


# --- criterion 8: classification loss-transfer inequalities, brute force

def _fh_distance(p, q, k):
    ell = p.shape[0]
    best = 0.0
    for subset in iter_k_run_subsets(ell, k):
        mask = subset.as_mask(ell)
        for region in (mask, ~mask):
            for y in (0, 1):
                best = max(best, abs(p[region, y].sum() - q[region, y].sum()))
    return best


def _risk_table(p, k):
    ell = p.shape[0]
    rows = []
    for subset in iter_k_run_subsets(ell, k):
        mask = subset.as_mask(ell)
        rows.append((p[mask, 0].sum() + p[~mask, 1].sum(), mask))
    return rows


def test_c08_loss_transfer_inequalities():
    started = time.perf_counter()
    rng = np.random.default_rng(808)
    violations = 0
    for _ in range(500):
        ell = int(rng.integers(2, 11))
        k = int(rng.integers(1, 3))
        p = rng.dirichlet(np.ones(2 * ell)).reshape(ell, 2)
        q = rng.dirichlet(np.ones(2 * ell)).reshape(ell, 2)
        dist = _fh_distance(p, q, k)
        p_risks = _risk_table(p, k)
        q_risks = _risk_table(q, k)
        r_star_p = min(r for r, _ in p_risks)
        h_q = min(q_risks, key=lambda t: t[0])[1]
        r_p_of_hq = p[h_q, 0].sum() + p[~h_q, 1].sum()
        if r_p_of_hq - r_star_p > 4.0 * dist + 1e-12:
            violations += 1
        sup_gap = max(abs(rp - rq) for (rp, _), (rq, _) in zip(p_risks, q_risks))
        if sup_gap > 2.0 * dist + 1e-12:
            violations += 1
    elapsed = time.perf_counter() - started
    ok = violations == 0 and elapsed < 60.0
    report("C8 loss-transfer inequalities", ok, f"{violations} violations", started)
    assert violations == 0
    assert elapsed < 60.0


# --- criterion 9: end-to-end density estimation ------------------------

def _three_piece_target():
    return rb.PiecewisePolynomial.from_monomials(
        (0.0, 0.3, 0.7, 1.0),
        ((0.5, 1.0), (2.0, -1.5), (0.33666666666666667, 0.8)),
    )


def test_c09_end_to_end_density():
    started = time.perf_counter()
    target = _three_piece_target()
    t, d, n, m = 3, 1, 100, 1000
    k_clean = 2 * t * d
    attack = MeanShiftAttack(10.0 / math.sqrt(n), (0.45, 0.55))
    wins = 0
    for seed in SEEDS:
        coll = rb.build_collection(target, attack, m, n, 0.2, seed)
        res = clean_pipeline(
            coll, k_clean, 0.2, np.random.default_rng(seed),
            trigger_factor=TRIGGER, stop_factor=STOP,
        )
        pooled = coll.pooled_samples()
        fit_naive = fit_piecewise(
            res.discretized.pooled(), res.partition, t, d,
            (float(pooled[0]), float(pooled[-1])),
        )
        kept = res.retained.pooled_samples()
        fit_clean = fit_piecewise(
            res.cleaned.pooled(), res.partition, t, d,
            (float(kept[0]), float(kept[-1])),
        )
        tv_clean = evaluate_density(fit_clean.density, target)
        tv_naive = evaluate_density(fit_naive.density, target)
        wins += tv_clean <= tv_naive
    clean_tvs = []
    for seed in range(3):
        coll = rb.build_collection(target, None, m, n, 0.0, 900 + seed)
        res = clean_pipeline(coll, k_clean, 0.0, np.random.default_rng(seed))
        pooled = coll.pooled_samples()
        fit = fit_piecewise(
            res.cleaned.pooled(), res.partition, t, d,
            (float(pooled[0]), float(pooled[-1])),
        )
        clean_tvs.append(evaluate_density(fit.density, target))
    elapsed = time.perf_counter() - started
    ok = wins >= 18 and all(tv <= 0.05 for tv in clean_tvs) and elapsed < 600.0
    report(
        "C9 end-to-end density",
        ok,
        f"{wins}/20 attack seeds, beta=0 TVs {[round(v, 4) for v in clean_tvs]}",
        started,
    )
    assert wins >= 18
    assert all(tv <= 0.05 for tv in clean_tvs), clean_tvs
    assert elapsed < 600.0


# --- criterion 10: end-to-end classification ---------------------------

def test_c10_end_to_end_classification():
    started = time.perf_counter()
    target = ClassificationTarget((0.0, 0.5, 1.0), (0.5, 0.5), (0.8, 0.2))
    attack = LabelFlipAttack(1.0, (0.0, 0.25))
    wins = 0
    for seed in SEEDS:
        coll = rb.build_collection(target, attack, 1000, 100, 0.2, seed)
        x, y = coll.pooled()
        naive_excess = target.risk_of(rb.erm_k_intervals(x, y, 2)) - target.optimal_risk()
        _, rep = rb.robust_classify(
            coll, 2, 0.2, np.random.default_rng(seed),
            trigger_factor=TRIGGER, stop_factor=STOP, reference=target,
        )
        wins += rep.excess_risk <= 0.5 * naive_excess
    elapsed = time.perf_counter() - started
    ok = wins >= 18 and elapsed < 300.0
    report("C10 end-to-end classification", ok, f"{wins}/20 seeds", started)
    assert wins >= 18
    assert elapsed < 300.0


# --- criterion 11: byte-identical reruns --------------------------------

def test_c11_determinism(tmp_path):
    started = time.perf_counter()
    batches = tmp_path / "batches.jsonl"
    args = [
        "simulate", "--target", "uniform:0,1", "--attack", "mean_shift:1.0@0.45,0.55",
        "--m", "120", "--n", "100", "--beta", "0.2", "--seed", "11", "--out", str(batches),
    ]
    assert cli_main(args) == 0
    first = batches.read_bytes()
    assert cli_main(args) == 0
    assert batches.read_bytes() == first

    report_path = tmp_path / "report.json"
    retained = tmp_path / "retained.jsonl"
    blobs = []
    for _ in range(2):
        rc = cli_main([
            "clean", "--input", str(batches), "--k", "2", "--beta", "0.2", "--seed", "11",
            "--trigger", str(TRIGGER), "--stop", str(STOP),
            "--out", str(report_path), "--retained", str(retained),
        ])
        assert rc == 0
        blobs.append((report_path.read_bytes(), retained.read_bytes()))
    identical = blobs[0] == blobs[1]
    parsed = json.loads(blobs[0][0])
    elapsed = time.perf_counter() - started
    ok = identical and parsed["cleaning"]["retained_ids"]
    report("C11 determinism", bool(ok), "byte-identical across reruns", started)
    assert identical
    assert elapsed < 120.0
