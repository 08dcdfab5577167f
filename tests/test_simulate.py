import math
from fractions import Fraction

import numpy as np
import pytest

import robust_batches as rb
from robust_batches.clean import clean_pipeline
from robust_batches.cli import main
from robust_batches.simulate import (
    ClassificationTarget,
    FkTargetedAttack,
    GaussianMixtureTarget,
    LabelFlipAttack,
    MeanShiftAttack,
    ReplaySkewAttack,
    SimContext,
    SpikeAttack,
    _FK_MARGIN,
    _fk_attack_plan,
    _ndtri,
    batch_rng,
    parse_attack,
    parse_target,
)
from oracles import _k_run_unions, check_properties, lift_subset


def test_build_collection_counts():
    target = parse_target("uniform:0,1")
    all_good = rb.build_collection(target, None, 10, 5, 0.0, 0)
    assert all_good.truth == ("good",) * 10
    attacked = rb.build_collection(target, SpikeAttack(1.0, 0.5), 10, 5, 0.4, 0)
    assert attacked.truth.count("good") == 6
    assert attacked.truth.count("adversarial") == 4
    assert attacked.samples.shape == (10, 5)


def test_build_collection_deterministic():
    target = GaussianMixtureTarget((0.5, 0.5), (0.0, 3.0), (1.0, 0.5))
    a = rb.build_collection(target, SpikeAttack(0.5, 1.0), 8, 20, 0.25, 99)
    b = rb.build_collection(target, SpikeAttack(0.5, 1.0), 8, 20, 0.25, 99)
    np.testing.assert_array_equal(a.samples, b.samples)
    c = rb.build_collection(target, SpikeAttack(0.5, 1.0), 8, 20, 0.25, 100)
    assert not np.array_equal(a.samples, c.samples)


def test_build_collection_batch_draws_from_its_own_rng():
    target = parse_target("uniform:0,1")
    coll = rb.build_collection(target, SpikeAttack(0.5, 1.0), 12, 30, 0.25, 7)
    for i in range(9):
        np.testing.assert_array_equal(coll.samples[i], target.sample((batch_rng(7, coll.ids[i]),), 30)[0])


def test_beta_zero_needs_no_attack_but_positive_does():
    target = parse_target("uniform:0,1")
    rb.build_collection(target, None, 4, 3, 0.0, 0)
    with pytest.raises(rb.UsageError):
        rb.build_collection(target, None, 4, 3, 0.25, 0)


def test_mean_shift_moves_expected_mass():
    # pooled uncleaned empirical differs from the target by about beta*delta
    target = parse_target("uniform:0,1")
    delta, beta, m, n = 0.5, 0.2, 400, 250
    region = (2.0, 2.1)  # far outside the support: moved mass is unambiguous
    coll = rb.build_collection(target, MeanShiftAttack(delta, region), m, n, beta, 17)
    pooled = coll.samples.ravel()
    outside = float(np.mean(pooled >= 2.0))
    frac_adv = 1.0 - coll.truth.count("good") / m
    expect = frac_adv * delta
    sd = np.sqrt(expect * (1 - expect) / pooled.size)
    assert abs(outside - expect) <= 3 * sd + 1e-12


def test_spike_attack_exact_counts():
    target = parse_target("uniform:0,1")
    atk = SpikeAttack(0.3, 7.5)
    ctx_coll = rb.build_collection(target, atk, 10, 40, 0.3, 5)
    for row, t in zip(ctx_coll.samples, ctx_coll.truth):
        if t == "adversarial":
            assert int((row == 7.5).sum()) == 12


def test_replay_skew_reuses_good_samples():
    target = parse_target("uniform:0,1")
    atk = ReplaySkewAttack(0.0, (0.0, 1.0))
    coll = rb.build_collection(target, atk, 6, 50, 0.3, 21)
    good = np.array(coll.truth) == "good"
    assert np.isin(coll.samples[~good], coll.samples[good]).all()


def test_fk_targeted_attack_deviates_above_tau():
    _assert_fk_targeted_batches_deviate_above_tau(0.2, 60, 100, 12)


def test_fk_targeted_attack_deviates_above_the_tau_of_a_tiny_beta():
    """tau is taken at the collection's own beta, also below 1e-9, where it
    is larger than at 1e-9."""
    _assert_fk_targeted_batches_deviate_above_tau(1e-11, 200, 400, 1)


def _assert_fk_targeted_batches_deviate_above_tau(beta, m, n, n_adv):
    target = parse_target("uniform:0,1")
    coll = rb.build_collection(target, parse_attack("fk_targeted"), m, n, beta, 42)
    good = np.array(coll.truth) == "good"
    adversarial = coll.samples[~good]
    assert len(adversarial) == n_adv
    tau = rb.CorruptionParams(beta, n, int(good.sum())).tau
    ctx = SimContext(target=target, beta=beta, n=n, good_rows=coll.samples[good])
    lo, hi, med_good, _ = _fk_attack_plan(ctx)
    for xs in adversarial:
        assert xs.size == n
        dev = float(((xs > lo) & (xs <= hi)).mean()) - med_good
        assert dev > tau


def test_fk_targeted_attack_end_to_end():
    # the tau-brushing adversary hurts the naive estimate but is cleanable
    import warnings

    target = parse_target("uniform:0,1")
    mag, beta, n = 0.3, 0.2, 100
    coll = rb.build_collection(target, FkTargetedAttack(), 400, n, beta, 7)
    pooled_part, disc = rb.discretize(coll, rb.choose_ell(2, n, beta, 400))
    naive = rb.fk_distance(disc.pooled(), target.bin_masses(pooled_part), 2)
    assert naive >= 0.5 * beta * mag
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = clean_pipeline(
            coll, 2, beta, np.random.default_rng(7),
            trigger_factor=5, stop_factor=4, reference=target,
        )
    assert res.report.fk_after <= 10 * beta * np.sqrt(np.log(1 / beta) / n)
    assert res.report.fk_after <= 0.5 * res.report.fk_before


def test_fk_targeted_region_is_the_witness_for_every_mass_and_k():
    """The alternative scales the good pool's cell masses by 1 - mass and
    adds mass to cell c = floor(ell/3) + 1.  Every cell but the last holds a
    pooled point, so on exact masses each union of at most k runs with the
    largest sum is {c} plus empty cells (or, when c holds the whole pool,
    the alternative is the pool and the sum is 0): the plan's region."""
    rng = np.random.default_rng(30)
    target = parse_target("uniform:0,1")
    for i in range(80):
        rows = rng.integers(0, 1 + i % 5, size=(int(rng.integers(1, 4)), int(rng.integers(1, 5))))
        pool = np.sort(rows.ravel() / 4.0)  # few values: cuts land inside tie runs
        part = rb.build_partition(pool, min(64, pool.size))
        lo, hi, _, _ = _fk_attack_plan(SimContext(target, 0.2, rows.shape[1], rows / 4.0))
        c = part.ell // 3 + 1
        (cell,) = lift_subset(rb.BinSubset.of(c), part).intervals
        assert (lo, hi) == (cell.lo, cell.hi)
        counts = np.bincount(part.bin_of(pool), minlength=part.ell)
        assert (counts[:-1] > 0).all()
        good = [Fraction(int(v), pool.size) for v in counts]
        for mass in (Fraction(1, 10**6), Fraction(1, 20), Fraction(3, 10), Fraction(1)):
            d = [mass * ((j == c) - g) for j, g in enumerate(good, start=1)]
            for k in (1, 2, 3):
                sums = {
                    runs: sum((d[j - 1] for a, b in runs for j in range(a, b + 1)), Fraction(0))
                    for runs in _k_run_unions(part.ell, min(k, (part.ell + 1) // 2))
                }
                best = max(sums.values())
                assert best == (mass * (1 - good[c - 1]))
                for runs, v in sums.items():
                    if v == best and best > 0:
                        held = {j for a, b in runs for j in range(a, b + 1) if counts[j - 1]}
                        assert held == {c}


def test_good_batches_satisfy_properties_most_seeds():
    # desk-scale slice of the acceptance run: the bounds are ~5 sigma at
    # s = n*m = 50k, so good-only collections pass nearly always
    target = GaussianMixtureTarget((0.5, 0.5), (0.0, 3.0), (1.0, 0.5))
    n, m, beta = 100, 500, 0.1
    passes = 0
    for seed in range(5):
        coll = rb.build_collection(target, None, m, n, 0.0, seed)
        part, disc = rb.discretize(coll, 200)
        params = rb.CorruptionParams(beta, n, m)
        rng = np.random.default_rng(seed)
        subsets = [
            rb.BinSubset(frozenset(int(j) + 1 for j in np.nonzero(rng.random(part.ell) < 0.5)[0]))
            for _ in range(30)
        ]
        report = check_properties(disc, target.bin_masses(part), subsets, params)
        passes += report.all_ok
    assert passes >= 4


def test_gaussian_mixture_cdf_pdf_consistency():
    gm = GaussianMixtureTarget((0.3, 0.7), (-1.0, 2.0), (0.5, 1.5))
    xs = np.linspace(-4, 7, 200)
    pdf = gm.pdf(xs)
    cdf = gm.cdf(xs)
    assert np.all(np.diff(cdf) >= 0)
    mid = 0.5 * (xs[1:] + xs[:-1])
    np.testing.assert_allclose(np.diff(cdf) / np.diff(xs), gm.pdf(mid), atol=2e-3)


@pytest.mark.parametrize("spec", [
    "gm:0.6N(0,1)+0.4N(3,0.5)",
    "gm:0.3N(-2,1)+0.4N(0,0.5)+0.3N(3,1)",
    "uniform:-1,2",
    "hist:0,1,2,4|0.2,0.5,0.3",
    "pwpoly:0,0.5,1|0 0 3;0 0 3",
])
def test_density_target_bin_masses_are_cdf_differences(spec):
    """A density target's cell masses are the differences of its CDF at the
    cuts, with 0 and 1 at the ends; a one-cell partition holds all the mass."""
    target = parse_target(spec)
    part = rb.IntervalPartition((-1.5, -0.2, 0.1, 0.3, 0.6, 0.9, 1.7, 2.5, 3.5))
    masses = target.bin_masses(part)
    cuts = target.cdf(np.asarray(part.boundaries))
    np.testing.assert_array_equal(masses, np.diff(np.concatenate(([0.0], cuts, [1.0]))))
    assert masses.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(target.bin_masses(rb.IntervalPartition(())), [1.0])


def test_gaussian_mixture_cdf_matches_ndtr():
    """The erfc-based CDF against scipy's ndtr for z in [-40, 40]: within
    1e-13 relative wherever ndtr is a normal float, lower tail included,
    and monotone."""
    from scipy.special import ndtr

    z = np.linspace(-40.0, 40.0, 80_001)
    tiny = np.finfo(float).tiny
    cdf = GaussianMixtureTarget((1.0,), (0.0,), (1.0,)).cdf(z)
    np.testing.assert_allclose(cdf, ndtr(z), rtol=1e-13, atol=tiny)
    assert np.all(np.diff(cdf) >= 0)
    gm = GaussianMixtureTarget((0.3, 0.7), (-1.0, 2.0), (0.5, 1.5))
    xs = np.linspace(-21.0, 62.0, 8_001)
    reference = 0.3 * ndtr((xs + 1.0) / 0.5) + 0.7 * ndtr((xs - 2.0) / 1.5)
    np.testing.assert_allclose(gm.cdf(xs), reference, rtol=1e-13, atol=tiny)
    assert np.all(np.diff(gm.cdf(xs)) >= 0)


def test_ndtri_matches_scipy_bitwise():
    """The numpy Cephes quantile equals scipy's ndtri bit for bit: seeded
    uniforms, both branch switches (e^-2 and 1 - e^-2 with their float
    neighbours, e^-32 where x = 8), log-uniform tails to 1e-15 on both
    sides, the clip ends and an empty array."""
    from scipy.special import ndtri

    rng = np.random.default_rng(2024)
    e2, e32 = np.exp(-2.0), np.exp(-32.0)
    edges = np.array([1e-15, 1.0 - 1e-15, 0.5, e2, 1.0 - e2, e32])
    tails = 10.0 ** rng.uniform(-15.0, 0.0, 200_000)
    u = np.concatenate([
        rng.random(1_000_000), edges, np.nextafter(edges[3:], 0.0), np.nextafter(edges[3:], 1.0),
        tails, 1.0 - tails,
    ])
    u = np.clip(u, 1e-15, 1.0 - 1e-15)
    assert np.any(u < e32)
    np.testing.assert_array_equal(_ndtri(u), ndtri(u))
    assert _ndtri(np.empty(0)).shape == (0,)


def _gm_pdf_cdf_unscoped(target, x):
    """GaussianMixtureTarget.pdf and .cdf as written before their overflows
    were scoped, run with every floating-point warning off."""
    erfc = np.vectorize(math.erfc, otypes=[float])
    pdf, cdf = np.zeros_like(x), np.zeros_like(x)
    with np.errstate(all="ignore"):
        for w, mu, sd in zip(target.weights, target.means, target.sds):
            z = (x - mu) / sd
            pdf += w * np.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))
            cdf += w * 0.5 * erfc(-((x - mu) / sd) * math.sqrt(0.5))
    return pdf, cdf


@pytest.mark.parametrize("spec", [
    "gm:1N(0,1e-300)",
    "gm:1N(0,1e-320)",
    "gm:1N(1e308,1e306)",  # mu ± 12 sd stays finite; x - mu overflows
    "gm:0.5N(-1e308,1e-320)+0.5N(3,0.5)",
    "gm:0.6N(0,1)+0.4N(3,0.5)",
])
def test_gaussian_mixture_overflow_is_silent_and_bit_identical(spec):
    """z = (x - mu)/sd and z*z overflow to inf on these valid targets; under
    the suite's error::RuntimeWarning filter pdf and cdf must not warn, and
    their values equal the unscoped expressions' bit for bit."""
    target = parse_target(spec)
    x = np.array([
        -np.inf, -1e308, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1e-310, 1e-300, 0.5, 3.0, 1e308,
        np.inf, *target.breakpoints,
    ])
    for got, want in zip((target.pdf(x), target.cdf(x)), _gm_pdf_cdf_unscoped(target, x)):
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_gaussian_mixture_breakpoints_give_a_degenerate_mean_a_cell_on_each_side():
    below, above = math.nextafter(1.0, -math.inf), math.nextafter(1.0, math.inf)
    spiked = parse_target("gm:0.5N(0,1)+0.2N(1,1e-300)+0.3N(5,1)")
    assert spiked.breakpoints == (-12.0, 0.0, below, 1.0, above, 5.0, 17.0)
    assert parse_target("gm:1N(1,1e-300)").breakpoints == (below, 1.0, above)
    assert parse_target("gm:0.6N(0,1)+0.4N(3,0.5)").breakpoints == (-12.0, 0.0, 3.0, 12.0)


def test_estimate_against_a_near_point_mass_target_prints_no_warning(tmp_path, capsys):
    batches = tmp_path / "b.jsonl"
    assert main([
        "simulate", "--target", "gm:0.6N(0,1)+0.4N(3,0.5)", "--attack", "mean_shift:1.0@1.4,1.6",
        "--m", "60", "--n", "30", "--beta", "0.2", "--seed", "1", "--out", str(batches),
    ]) == 0
    capsys.readouterr()
    assert main([
        "estimate", "--input", str(batches), "--t", "2", "--d", "2", "--beta", "0.2",
        "--trigger", "5", "--stop", "4", "--target", "gm:1N(0,1e-300)",
        "--out", str(tmp_path / "e.json"),
    ]) == 0
    assert "overflow" not in capsys.readouterr().err


# an attack per target, so that each attack's generate is drawn batched
BATCHED_ATTACKS = {
    "gm:0.6N(0,1)+0.4N(3,0.5)": ["fk_targeted", "spike:0.3@0.5"],
    "hist:0,0.3,0.7,1|0.2,0.5,0.3": ["mean_shift:0.5@0.2,0.4"],
    "pwpoly:0,0.5,1|0 0 3;0 0 3": ["replay_skew:0.8@0.2,0.6"],
    "labeled:0,0.5,1|0.5,0.5|0.8,0.2": ["label_flip:0.5@0,0.25"],
}


@pytest.mark.parametrize("spec", list(BATCHED_ATTACKS))
def test_batched_sampling_equals_one_generator_at_a_time(spec):
    # row i of a batched draw, and of a batched generate, is what
    # generator i alone would have drawn
    target = parse_target(spec)
    labeled = isinstance(target, ClassificationTarget)
    draws = [(target.sample, lambda rngs: (rngs, 25))]
    good = target.sample([batch_rng(5, 100 + i) for i in range(40)], 25)
    ctx = SimContext(target, 0.2, 25, good[0] if labeled else good)
    for attack in map(parse_attack, BATCHED_ATTACKS[spec]):
        draws.append((attack.generate, lambda rngs: (rngs, ctx)))
    for draw, args in draws:
        batched = draw(*args([batch_rng(5, i) for i in range(40)]))
        for i in range(40):
            alone = draw(*args((batch_rng(5, i),)))
            if labeled:
                for rows, row in zip(batched, alone):
                    np.testing.assert_array_equal(rows[i], row[0])
            else:
                np.testing.assert_array_equal(batched[i], alone[0])


def _one_batch(spec: str, target, rng, good_rows: np.ndarray, n: int, beta: float):
    """One adversarial batch rebuilt from its own generator alone: the target
    draw, then the attack's per-batch draws in order."""
    attack = parse_attack(spec)
    if isinstance(attack, ReplaySkewAttack):
        pool = good_rows.ravel()
        lo, hi = attack.region
        in_region = pool[(pool >= lo) & (pool <= hi)]
        biased = rng.random(n) < attack.magnitude
        row = np.empty(n)
        row[biased] = in_region[rng.integers(0, in_region.size, int(biased.sum()))]
        row[~biased] = pool[rng.integers(0, pool.size, n - int(biased.sum()))]
        return row
    if isinstance(attack, FkTargetedAttack):
        row = target.sample((rng,), n)[0]
        lo, hi, med_good, tau = _fk_attack_plan(SimContext(target, beta, n, good_rows))
        inside = (row > lo) & (row <= hi)
        goal = min(1.0, med_good + _FK_MARGIN * tau)
        need = int(np.ceil(goal * n)) - int(inside.sum())
        idx = np.nonzero(~inside)[0][:need]
        row[idx] = np.maximum(lo + (hi - lo) * rng.random(idx.size), np.nextafter(lo, hi))
        return row
    if isinstance(attack, LabelFlipAttack):
        row, y = (rows[0] for rows in target.sample((rng,), n))
    else:
        row = target.sample((rng,), n)[0]
    idx = rng.choice(n, size=int(round(attack.magnitude * n)), replace=False)
    if isinstance(attack, SpikeAttack):
        row[idx] = attack.point
        return row
    lo, hi = attack.region
    row[idx] = lo + (hi - lo) * rng.random(idx.size)
    if isinstance(attack, MeanShiftAttack):
        return row
    flip = (row >= lo) & (row <= hi)
    y[flip] = target.eta_at(row[flip]) <= 0.5
    return row, y


@pytest.mark.parametrize(
    "target_spec, spec",
    [
        ("gm:0.6N(0,1)+0.4N(3,0.5)", "mean_shift:0.5@1,2"),
        ("uniform:-1,2", "spike:0.3@0.5"),
        ("labeled:0,0.5,1|0.5,0.5|0.8,0.2", "label_flip:0.5@0,0.25"),
        ("hist:0,0.3,0.7,1|0.2,0.5,0.3", "fk_targeted"),
        ("gm:0.6N(0,1)+0.4N(3,0.5)", "replay_skew:0.8@1,2"),
    ],
)
def test_adversarial_rows_equal_a_one_generator_reference(target_spec, spec):
    target = parse_target(target_spec)
    m, n, beta, seed = 50, 200, 0.2, 3  # at n=200 fk_targeted moves only part of a batch
    coll = rb.build_collection(target, parse_attack(spec), m, n, beta, seed)
    labeled = isinstance(target, ClassificationTarget)
    rows = (coll.x, coll.y) if labeled else (coll.samples,)
    good = np.array(coll.truth) == "good"
    assert good.sum() == 40
    for i in range(40, m):
        ref = _one_batch(spec, target, batch_rng(seed, i), rows[0][good], n, beta)
        for got, want in zip(rows, ref if labeled else (ref,)):
            np.testing.assert_array_equal(got[i], want)


def test_parse_target_and_attack():
    kinds = {
        "uniform:0,1": rb.PiecewisePolynomial,
        "gm:0.5N(0,1)+0.5N(3,0.5)": GaussianMixtureTarget,
        "hist:0,0.5,1|0.75,0.25": rb.PiecewisePolynomial,
        "labeled:0,0.5,1|0.5,0.5|0.8,0.2": ClassificationTarget,
    }
    for s, kind in kinds.items():
        assert type(parse_target(s)) is kind
    hist = parse_target("hist:0,0.5,1|0.75,0.25")
    assert hist.breakpoints == (0.0, 0.5, 1.0)
    assert hist.coefficients == ((1.5,), (0.5,))
    attacks = {
        "mean_shift:1.0@0.45,0.55": MeanShiftAttack(1.0, (0.45, 0.55)),
        "spike:0.3@1.5": SpikeAttack(0.3, 1.5),
        "label_flip:1.0@0,0.25": LabelFlipAttack(1.0, (0.0, 0.25)),
        "fk_targeted": FkTargetedAttack(),
    }
    for s, attack in attacks.items():
        assert parse_attack(s) == attack
    assert parse_attack("none") is None
    with pytest.raises(rb.UsageError):
        parse_target("weibull:1,2")
    for spec in (
        "pwpoly:0,1|", "pwpoly:0,1|1;", "pwpoly:0,1,2|1",
        "gm:1N(1e999,1)", "gm:1N(-1e999,1)", "gm:1N(0,1e999)",
    ):
        with pytest.raises(rb.UsageError):
            parse_target(spec)
    for mean, sd in ((math.nan, 1.0), (0.0, math.nan), (math.inf, 1.0)):
        with pytest.raises(rb.DomainError):
            GaussianMixtureTarget((1.0,), (mean,), (sd,))
    for spec in (
        "mean_shift:oops", "mean_shift:-1@0,1", "spike:1.5@0.5", "fk_targeted:nan@2",
        "mean_shift:1@1,0", "replay_skew:0.5@2,1", "label_flip:0.5@0.25,0.25",
        "spike:0.5@nan", "spike:0.5@inf", "mean_shift:0.5@0,inf", "replay_skew:0.5@-inf,0",
        "label_flip:0.5@nan,1", "fk_targeted:0.5@0", "fk_targeted:0.5@-1",
    ):
        with pytest.raises(rb.UsageError):
            parse_attack(spec)
    assert parse_attack("spike:0@0.5") == SpikeAttack(0.0, 0.5)
    assert parse_attack("replay_skew:1@0,1") == ReplaySkewAttack(1.0, (0.0, 1.0))


def test_histogram_and_pwpoly_sampling_match_cdf():
    hist = parse_target("hist:0,0.25,1|0.5,0.5")
    rng = np.random.default_rng(0)
    xs = hist.sample((rng,), 50_000)[0]
    assert abs(np.mean(xs <= 0.25) - 0.5) < 0.01
    dens = rb.PiecewisePolynomial.from_monomials((0.0, 1.0), ((0.5, 1.0),))
    ys = dens.sample((rng,), 50_000)[0]
    assert abs(np.mean(ys <= 0.5) - float(dens.cdf(np.array([0.5]))[0])) < 0.01


@pytest.mark.parametrize(
    "spec",
    [
        "pwpoly:0,2|0.5",
        "pwpoly:0,0.3,0.7,1|0.5 1;2 -1.5;0.33666666666666667 0.8",
        "pwpoly:0,0.5,1|0 0 3;0 0 3",
        "pwpoly:0,1,2|0 0 0 2;0.5",
        # slopes just above the flat threshold, where (-c0 + sqrt(..)) / c1 cancels
        "pwpoly:0,1|0.9999995 1e-06",
        "pwpoly:0,1|0.9999999995 1e-09",
        "pwpoly:0,1|0.9999999999995 1e-12",
        "uniform:-2,3",
        "hist:0,0.3,0.7,1|0.2,0.5,0.3",
    ],
)
def test_pwpoly_sample_inverts_cdf(spec):
    # sample() draws one uniform per point, so the same stream regenerated
    # must be the CDF of the points drawn
    tgt = parse_target(spec)
    xs = tgt.sample((np.random.default_rng(17),), 20_000)[0]
    u = np.random.default_rng(17).random(20_000)
    np.testing.assert_allclose(tgt.cdf(xs), u, rtol=0, atol=1e-12)


class _ZeroUniforms:
    """A generator stand-in whose every uniform is 0."""

    def random(self, out):
        out[...] = 0.0


def test_linear_piece_zero_at_its_left_end_samples_u_zero():
    # u = 0 on a piece whose density starts at 0 is 0/0 in the closed form
    xs = parse_target("pwpoly:0,0.5,1|0 4;4 -4").sample((_ZeroUniforms(),), 5)
    np.testing.assert_array_equal(xs, np.zeros((1, 5)))


def test_classification_target_risks():
    ct = ClassificationTarget((0.0, 0.5, 1.0), (0.5, 0.5), (0.8, 0.2))
    assert ct.optimal_risk() == pytest.approx(0.2)
    from robust_batches.partition import Interval, IntervalUnion

    # eta > 1/2 only on the first cell, [0, 0.5)
    bayes = rb.KIntervalHypothesis(IntervalUnion((Interval(0.0, 0.5, hi_closed=False),)))
    assert ct.risk_of(bayes) == pytest.approx(0.2)
    wrong = rb.KIntervalHypothesis(IntervalUnion((Interval(0.5, 1.0),)))
    assert ct.risk_of(wrong) == pytest.approx(0.8)
    x, y = (rows[0] for rows in ct.sample((np.random.default_rng(0),), 30))
    assert x.shape == y.shape == (30,)


_GM = GaussianMixtureTarget((1.0,), (0.0,), (1.0,))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: GaussianMixtureTarget((0.5, 0.6), (0.0, 1.0), (1.0, 1.0)),
         "mixture weights must be a probability vector"),
        (lambda: GaussianMixtureTarget((1.5, -0.5), (0.0, 1.0), (1.0, 1.0)),
         "mixture weights must be a probability vector"),
        (lambda: GaussianMixtureTarget((1.0,), (0.0, 1.0), (1.0,)),
         "weights, means, sds must have one length"),
        (lambda: ClassificationTarget((0.0, 0.5, 1.0), (0.5, 0.5), (0.8,)),
         "eta must give one probability per cell"),
        (lambda: ClassificationTarget((0.0, 0.5, 1.0), (0.5, 0.5), (0.8, 1.2)),
         "eta must give one probability per cell"),
        (lambda: rb.build_collection(_GM, None, 10, 5, 0.5, 1),
         r"beta must lie in \[0, 0.4\], got 0.5"),
        (lambda: rb.build_collection(_GM, None, 0, 5, 0.2, 1), "m and n must be positive"),
        (lambda: rb.build_collection(_GM, None, 10, 0, 0.2, 1), "m and n must be positive"),
    ],
)
def test_simulate_refusals_name_their_rule(call, message):
    with pytest.raises(rb.DomainError, match=f"^{message}$"):
        call()
