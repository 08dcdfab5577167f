import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robust_batches as rb
from robust_batches.distance import union_layers
from oracles import _k_run_unions, fk_distance_brute, iter_k_run_subsets, tv_distance


def stacked_tables(d, k):
    """The (out, ins) tables of every layer, row j for j runs, row 0 first."""
    size = np.asarray(d).size + 1
    outs, inss = [np.zeros(size)], [np.full(size, -np.inf)]
    for _, ins, out in union_layers(d, k):
        outs.append(out.copy())
        inss.append(ins.copy())
    return np.stack(outs), np.stack(inss)


def full_union_tables(d, k):
    """The whole-table form of the recurrence, each layer filled in place in
    its own row: what F_k and ERM read before the layers were streamed."""
    d = np.asarray(d, dtype=float)
    k = min(k, (d.size + 1) // 2)
    prefix = np.zeros(d.size + 1)
    np.cumsum(d, out=prefix[1:])
    out = np.full((k + 1, d.size + 1), -np.inf)
    ins = np.full((k + 1, d.size + 1), -np.inf)
    out[0] = 0.0
    for j in range(1, k + 1):
        row = ins[j, 1:]
        np.subtract(out[j - 1, :-1], prefix[:-1], out=row)
        np.maximum.accumulate(row, out=row)
        row += prefix[1:]
        np.maximum.accumulate(ins[j, :-1], out=out[j, 1:])
    return out, ins


def dyadic_pair(rng, ell, grain=64):
    p = rng.multinomial(grain, np.full(ell, 1.0 / ell)) / grain
    q = rng.multinomial(grain, np.full(ell, 1.0 / ell)) / grain
    return p, q


def test_fk_distance_examples():
    assert rb.fk_distance([0.5, 0.3, 0.2], [0.2, 0.3, 0.5], 1) == pytest.approx(0.3)
    assert rb.fk_distance([0.4, 0.6], [0.4, 0.6], 1) == 0.0
    assert rb.fk_distance([1.0, 0.0], [0.0, 1.0], 1) == 1.0


def test_fk_distance_rejects_unnormalized():
    with pytest.raises(rb.DomainError):
        rb.fk_distance([0.5, 0.2], [0.5, 0.5], 1)
    with pytest.raises(rb.DomainError):
        rb.fk_distance([0.5, 0.5], [0.5, 0.5], 0)


def test_fk_matches_brute_on_dyadic_grid():
    rng = np.random.default_rng(21)
    for _ in range(300):
        ell = int(rng.integers(1, 13))
        k = int(rng.integers(1, 4))
        p, q = dyadic_pair(rng, ell)
        assert rb.fk_distance(p, q, k) == fk_distance_brute(p, q, k)
        assert rb.fk_distance(p, q, k) == rb.fk_distance(q, p, k)
    # off the grid the kernel and the oracle add in different orders
    rng = np.random.default_rng(22)
    for _ in range(300):
        ell = int(rng.integers(1, 13))
        k = int(rng.integers(1, 4))
        p, q = rng.dirichlet(np.ones(ell)), rng.dirichlet(np.ones(ell))
        assert abs(rb.fk_distance(p, q, k) - fk_distance_brute(p, q, k)) <= 1e-12


def test_fk_monotone_in_k_and_caps_at_tv():
    rng = np.random.default_rng(13)
    for _ in range(50):
        ell = int(rng.integers(2, 12))
        p, q = dyadic_pair(rng, ell)
        tv = tv_distance(p, q)
        prev = 0.0
        for k in range(1, ell + 2):
            cur = rb.fk_distance(p, q, k)
            assert cur >= prev - 1e-15
            assert cur <= tv + 1e-12
            prev = cur
        assert rb.fk_distance(p, q, -(-ell // 2)) == pytest.approx(tv, abs=1e-12)


def test_fk_is_a_metric():
    rng = np.random.default_rng(17)
    for _ in range(50):
        ell = int(rng.integers(2, 10))
        k = int(rng.integers(1, 4))
        p, q = dyadic_pair(rng, ell)
        r, _ = dyadic_pair(rng, ell)
        assert rb.fk_distance(p, q, k) == rb.fk_distance(q, p, k)
        assert rb.fk_distance(p, p, k) == 0.0
        assert rb.fk_distance(p, r, k) <= (
            rb.fk_distance(p, q, k) + rb.fk_distance(q, r, k) + 1e-12
        )


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 10),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_fk_brute_equivalence_property(ell, k, seed):
    rng = np.random.default_rng(seed)
    p, q = dyadic_pair(rng, ell)
    assert rb.fk_distance(p, q, k) == fk_distance_brute(p, q, k)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 13), st.integers(0, 2**32 - 1))
def test_union_tables_clamp_huge_k(ell, seed):
    """No union over ell bins has more than (ell + 1) // 2 runs, so any
    larger k gives the same tables and distance."""
    rng = np.random.default_rng(seed)
    p, q = dyadic_pair(rng, ell)
    tight = (ell + 1) // 2
    for a, b in zip(stacked_tables(p - q, 10**12), stacked_tables(p - q, tight)):
        assert np.array_equal(a, b)
    assert rb.fk_distance(p, q, 10**12) == fk_distance_brute(p, q, tight)


def bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def layer_cases():
    """(d, k): normal and dyadic vectors; then differences of distributions,
    their negations, ERM's integer label-count differences with long zero
    runs and their negations, and signed zero vectors, some with k clamped."""
    rng = np.random.default_rng(12)
    for size, k in ((1, 1), (2, 1), (7, 3), (500, 2), (4000, 6)):
        for d in (rng.normal(size=size), rng.integers(-3, 4, size) / 8.0):
            yield d, k
    rng = np.random.default_rng(27)
    for size, k in ((1, 1), (2, 3), (9, 5), (64, 40), (3000, 2), (2500, 6)):
        p, q = dyadic_pair(rng, size)
        w = rng.integers(-2, 3, size).astype(float)
        w[rng.random(size) < 0.5] = 0.0
        for d in (p - q, q - p, w, -w, np.zeros(size), -np.zeros(size)):
            yield d, k


def test_union_tables_equal_the_out_of_place_reference_bitwise():
    """The layers, filled in place in reused rows and stacked, equal the
    out-of-place expression and the whole-table recurrence they replace bit
    for bit, sign of zero included, so F_k and ERM read the same values."""
    for d, k in layer_cases():
        size, kk = d.size, min(k, (d.size + 1) // 2)
        prefix = np.concatenate(([0.0], np.cumsum(d)))
        out = np.full((kk + 1, size + 1), -np.inf)
        ins = np.full((kk + 1, size + 1), -np.inf)
        out[0] = 0.0
        for j in range(1, kk + 1):
            ins[j, 1:] = prefix[1:] + np.maximum.accumulate(out[j - 1, :-1] - prefix[:-1])
            out[j, 1:] = np.maximum.accumulate(ins[j, :-1])
        got = stacked_tables(d, k)
        for want in ((out, ins), full_union_tables(d, k)):
            assert all(bitwise_equal(x, y) for x, y in zip(got, want))


def test_union_layers_refuse_k_below_one():
    with pytest.raises(rb.DomainError):
        next(union_layers(np.ones(3), 0))


def test_brute_refuses_large_domains():
    p = np.full(21, 1.0 / 21)
    with pytest.raises(rb.UsageError):
        fk_distance_brute(p, p, 2)


def test_brute_trivial_cases():
    assert fk_distance_brute([1.0], [1.0], 1) == 0.0
    p = np.array([0.25, 0.25, 0.25, 0.25])
    q = np.array([0.5, 0.0, 0.25, 0.25])
    assert fk_distance_brute(p, q, 2) == tv_distance(p, q)


def test_iter_k_run_subsets_counts():
    subsets = list(iter_k_run_subsets(4, 1))
    # empty + 10 single runs over 4 bins
    assert len(subsets) == 11
    assert all(len(s.runs()) <= 1 for s in subsets)


def test_tv_distance_examples():
    assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert tv_distance([0.3, 0.7], [0.3, 0.7]) == 0.0
    assert tv_distance([0.7, 0.3], [0.5, 0.5]) == pytest.approx(0.2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: rb.fk_distance([], [1.0], 1), "p must be a nonempty 1-d vector"),
        (lambda: rb.fk_distance([[0.5, 0.5]], [0.5, 0.5], 1), "p must be a nonempty 1-d vector"),
        (lambda: rb.fk_distance([1.0], np.float64(1.0), 1), "q must be a nonempty 1-d vector"),
        (lambda: rb.fk_distance([1.5, -0.5], [0.5, 0.5], 1), "p has negative entries"),
        (lambda: rb.fk_distance([0.5, 0.5], [-0.5, 1.5], 1), "q has negative entries"),
        (lambda: rb.fk_distance([1.0], [0.5, 0.5], 1), "p and q must have the same length"),
        (lambda: fk_distance_brute([0.5, 0.5], [0.5, 0.5], 0), "k must be at least 1"),
    ],
)
def test_distance_refusals_name_their_rule(call, message):
    with pytest.raises(rb.DomainError, match=f"^{message}$"):
        call()
