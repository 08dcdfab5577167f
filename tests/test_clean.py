import numpy as np
import pytest

import robust_batches as rb
from robust_batches import clean
from robust_batches.clean import clean_counts, clean_pipeline, guidance_batches, prepare_cleaning
from robust_batches.corruption import STOP_FACTOR, TRIGGER_FACTOR
from robust_batches.io import canonical_json
from robust_batches.simulate import MeanShiftAttack, parse_target


def small_collection(seed=0, beta=0.0, m=40, n=50, attack=None):
    return rb.build_collection(parse_target("uniform:0,1"), attack, m, n, beta, seed)


def test_beta_above_limit_refused():
    coll = small_collection()
    with pytest.raises(rb.DomainError, match="0.4"):
        clean_pipeline(coll, 2, 0.5, np.random.default_rng(0))


def test_needs_two_batches():
    coll = rb.BatchCollection(np.zeros((1, 3)) + 0.5, (0,))
    with pytest.raises(rb.UsageError):
        clean_pipeline(coll, 1, 0.2, np.random.default_rng(0))


def test_beta_zero_keeps_everything():
    coll = small_collection(seed=3)
    result = clean_pipeline(coll, 2, 0.0, np.random.default_rng(0))
    retained, report = result.retained, result.report
    assert retained.ids == coll.ids
    assert report.rounds == 0
    assert report.retention_good == 1.0


@pytest.mark.parametrize("beta", [0.0, 0.2])
@pytest.mark.parametrize("trigger, stop", [(1, 5), (-3, -4), (5, 0)])
def test_inconsistent_factors_refused_at_every_beta(trigger, stop, beta):
    coll = small_collection(seed=3)
    with pytest.raises(rb.UsageError, match="need 0 < stop_factor <= trigger_factor"):
        clean_pipeline(coll, 2, beta, np.random.default_rng(0), trigger, stop)


def test_clean_pipeline_sorts_the_pooled_samples_once(monkeypatch):
    calls, pooled = [], rb.BatchCollection.pooled_samples

    def counting(self):
        calls.append(self)
        return pooled(self)

    monkeypatch.setattr(rb.BatchCollection, "pooled_samples", counting)
    coll = small_collection(seed=3, beta=0.2, attack=MeanShiftAttack(1.0, (0.45, 0.55)))
    clean_pipeline(coll, 2, 0.2, np.random.default_rng(0), 5, 4, parse_target("uniform:0,1"))
    assert len(calls) == 1


def test_clean_counts_no_round_returns_its_inputs(monkeypatch):
    coll = small_collection(seed=3)
    ell, params = prepare_cleaning(coll, 2, 0.2)
    disc = rb.discretize(coll, ell)[1]
    calls = []

    def detect_once(sub, params, workspace):
        calls.append(sub)
        return rb.max_corruption_subset_heuristic(sub, params, workspace)

    monkeypatch.setattr(clean, "max_corruption_subset_heuristic", detect_once)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    cleaned, retained, rounds = clean_counts(
        coll, disc, 0.2, params, rng, TRIGGER_FACTOR, STOP_FACTOR
    )
    assert rounds == 0
    assert cleaned is disc and retained is coll
    # one detection ran, engaged nothing and drew nothing
    assert len(calls) == 1 and calls[0] is disc
    assert rng.bit_generator.state == state


def test_small_m_warns():
    coll = small_collection(seed=1, m=10)
    with pytest.warns(UserWarning, match="guidance"):
        clean_pipeline(coll, 2, 0.2, np.random.default_rng(0), trigger_factor=5, stop_factor=4)
    assert guidance_batches(2, 100, 0.2) > 10_000


def test_retained_is_a_subset():
    attack = MeanShiftAttack(1.0, (0.4, 0.6))
    coll = small_collection(seed=5, beta=0.2, m=60, n=100, attack=attack)
    with pytest.warns(UserWarning):
        result = clean_pipeline(
            coll, 2, 0.2, np.random.default_rng(2), trigger_factor=5, stop_factor=4
        )
    retained, report = result.retained, result.report
    assert set(retained.ids) <= set(coll.ids)
    assert len(set(report.retained_ids)) == len(report.retained_ids)
    assert report.retained_ids == retained.ids


def test_report_fk_fields_only_with_reference():
    coll = small_collection(seed=6)
    plain = clean_pipeline(coll, 2, 0.0, np.random.default_rng(0)).report
    assert plain.fk_before is None and plain.fk_after is None
    scored = clean_pipeline(
        coll, 2, 0.0, np.random.default_rng(0), reference=parse_target("uniform:0,1")
    ).report
    assert scored.fk_before is not None
    assert scored.fk_after == scored.fk_before  # nothing deleted


def test_pipeline_deterministic_given_seed():
    attack = MeanShiftAttack(1.0, (0.4, 0.6))
    coll = small_collection(seed=9, beta=0.2, m=80, n=100, attack=attack)
    reports = []
    for _ in range(2):
        with pytest.warns(UserWarning):
            report = clean_pipeline(
                coll,
                2,
                0.2,
                np.random.Generator(np.random.PCG64(123)),
                trigger_factor=5,
                stop_factor=4,
                reference=parse_target("uniform:0,1"),
            ).report
        reports.append(canonical_json(report.to_dict()))
    assert reports[0] == reports[1]


def test_vacuous_attack_does_not_hurt():
    # adversarial batches drawn from the target itself: cleaning may delete
    # a few batches but the fk error stays within twice the clean baseline
    class HonestAttack:
        def generate(self, rngs, ctx):
            return ctx.target.sample(rngs, ctx.n)

    target = parse_target("uniform:0,1")
    ratios = []
    for seed in range(5):
        coll = rb.build_collection(target, HonestAttack(), 200, 100, 0.2, seed)
        with pytest.warns(UserWarning):
            report = clean_pipeline(
                coll,
                2,
                0.2,
                np.random.default_rng(seed),
                trigger_factor=5,
                stop_factor=4,
                reference=target,
            ).report
        baseline = rb.build_collection(target, None, 200, 100, 0.0, seed + 1000)
        base_report = clean_pipeline(
            baseline, 2, 0.0, np.random.default_rng(seed), reference=target
        ).report
        ratios.append(report.fk_after / max(base_report.fk_after, 1e-12))
        # cleaning a vacuous attack must not hurt beyond noise
        assert report.fk_after <= report.fk_before + 0.02
    assert np.median(ratios) <= 2.0


def test_beta_zero_sizes_with_the_floor():
    from robust_batches.clean import ELL_BETA_FLOOR, prepare_cleaning
    from robust_batches.partition import choose_ell

    coll = small_collection(seed=2)
    ell, params = prepare_cleaning(coll, 2, 0.0)
    assert ell == choose_ell(2, coll.n, ELL_BETA_FLOOR, coll.m)
    assert params.beta == ELL_BETA_FLOOR
    with pytest.raises(rb.DomainError):
        prepare_cleaning(coll, 2, float("nan"))


def test_small_m_warning_names_the_caller_of_the_pipeline():
    coll = small_collection(seed=1, m=10)
    with pytest.warns(UserWarning, match="guidance") as caught:
        clean_pipeline(coll, 2, 0.2, np.random.default_rng(0), trigger_factor=5, stop_factor=4)
    assert [w.filename for w in caught] == [__file__]
