import time
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from numpy.polynomial import polynomial as npoly

import robust_batches as rb
from robust_batches import estimate
from robust_batches.core import uniforms
from robust_batches.distance import fk_distance
from robust_batches.estimate import (
    MAX_CUT_CANDIDATES,
    MAX_DEGREE,
    PiecewiseFitResult,
    PiecewisePolynomial,
    _cheb_nodes,
    _local_cell_integrals,
    _solve_piece,
    fit_piecewise,
)
from robust_batches.simulate import ClassificationTarget, parse_target


def test_piecewise_polynomial_invariants():
    pp = rb.PiecewisePolynomial((0.0, 1.0), ((1.0,),))
    assert pp.integral() == pytest.approx(1.0)
    assert pp.pdf(np.array([0.5]))[0] == 1.0
    assert pp.pdf(np.array([2.0]))[0] == 0.0
    with pytest.raises(rb.UsageError):
        rb.PiecewisePolynomial((0.0, 1.0), ((2.0,),))  # mass 2
    with pytest.raises(rb.UsageError):
        rb.PiecewisePolynomial((0.0, 0.5, 1.0), ((3.0,), (-1.0,)))  # negative piece
    with pytest.raises(rb.UsageError):
        rb.PiecewisePolynomial((1.0, 0.0), ((1.0,),))
    with pytest.raises(rb.UsageError):
        rb.PiecewisePolynomial((0.0, 1.0), ((),))  # a piece without coefficients


def test_piecewise_polynomial_serialization():
    pp = rb.PiecewisePolynomial((0.0, 0.5, 1.0), ((1.5,), (0.5,)))
    clone = rb.PiecewisePolynomial.from_dict(pp.to_dict())
    assert clone == pp


def test_fit_uniform_exact():
    part = rb.IntervalPartition((0.25, 0.5, 0.75))
    res = fit_piecewise(np.full(4, 0.25), part, 1, 0, (0.0, 1.0))
    assert res.density.breakpoints == (0.0, 1.0)
    assert res.density.coefficients == ((1.0,),)
    assert res.fk_to_input == 0.0
    assert not res.best_effort


def test_fit_two_bin_histogram_exact():
    part = rb.IntervalPartition((0.5,))
    res = fit_piecewise(np.array([0.75, 0.25]), part, 2, 0, (0.0, 1.0))
    assert res.density.coefficients == ((1.5,), (0.5,))
    assert res.fk_to_input == 0.0


def test_fit_d0_t_equals_ell_reproduces_histogram():
    rng = np.random.default_rng(3)
    ell = 9
    masses = rng.multinomial(256, np.full(ell, 1.0 / ell)) / 256.0
    part = rb.IntervalPartition(tuple(np.linspace(0.1, 0.9, ell - 1)))
    res = fit_piecewise(masses, part, ell, 0, (0.0, 1.0))
    assert res.fk_to_input <= 1e-12
    np.testing.assert_allclose(res.density.bin_masses(part), masses, atol=1e-12)


def test_fit_linear_pieces_recovers_linear_density():
    dens = rb.PiecewisePolynomial.from_monomials((0.0, 1.0), ((0.5, 1.0),))
    part = rb.IntervalPartition(tuple(np.linspace(0.05, 0.95, 19)))
    masses = dens.bin_masses(part)
    res = fit_piecewise(masses / masses.sum(), part, 1, 1, (0.0, 1.0))
    assert res.fk_to_input <= 1e-8
    xs = np.linspace(0.01, 0.99, 50)
    np.testing.assert_allclose(res.density.pdf(xs), dens.pdf(xs), atol=1e-6)


def test_fit_requires_enough_bins():
    part = rb.IntervalPartition((0.5,))
    with pytest.raises(rb.UsageError):
        fit_piecewise(np.array([0.5, 0.5]), part, 2, 2, (0.0, 1.0))
    with pytest.raises(rb.DomainError):
        fit_piecewise(np.array([0.5, 0.5]), part, 2, 9, (0.0, 1.0))


def test_fit_nonnegative_under_rough_input():
    rng = np.random.default_rng(8)
    ell = 40
    masses = rng.multinomial(400, np.full(ell, 1.0 / ell)) / 400.0
    part = rb.IntervalPartition(tuple(np.linspace(0.025, 0.975, ell - 1)))
    res = fit_piecewise(masses, part, 4, 3, (0.0, 1.0))
    for j in range(res.density.t):
        nodes = _cheb_nodes(res.density.breakpoints[j], res.density.breakpoints[j + 1])
        assert res.density.pdf(nodes).min() >= -1e-9
    # between check-points a bounded-degree piece cannot dip far
    xs = np.linspace(0, 1, 500)
    assert res.density.pdf(xs).min() >= -1e-4
    assert res.density.integral() == pytest.approx(1.0, abs=1e-6)


def test_fit_triangle_inequality_chain():
    # TV(fit, target) <= TV(empirical, target) + 2 * fk(fit, empirical)
    target = rb.PiecewisePolynomial.from_monomials(
        (0.0, 0.3, 0.7, 1.0), ((0.5, 1.0), (2.0, -1.5), (0.33666666666666667, 0.8))
    )
    rng = np.random.default_rng(0)
    xs = np.sort(target.sample((rng,), 100_000)[0])
    part = rb.build_partition(xs, 200)
    counts = np.bincount(part.bin_of(xs), minlength=part.ell)
    emp = counts / counts.sum()
    t, d = 3, 1
    res = fit_piecewise(emp, part, t, d, (float(xs[0]), float(xs[-1])))
    tv_fit_target = rb.evaluate_density(res.density, target)
    ref = target.bin_masses(part)
    tv_emp_target_binned = 0.5 * np.abs(emp - ref).sum()
    # within-bin placement costs at most the largest bin mass on each side
    slack = emp.max() + ref.max()
    assert tv_fit_target <= tv_emp_target_binned + 2 * res.fk_to_input + slack


def test_evaluate_density_examples():
    flat = rb.PiecewisePolynomial((0.0, 1.0), ((1.0,),))
    assert rb.evaluate_density(flat, parse_target("uniform:0,1")) == pytest.approx(0.0, abs=1e-9)
    assert rb.evaluate_density(flat, parse_target("uniform:0.5,1.5")) == pytest.approx(0.5, abs=1e-7)
    assert rb.evaluate_density(flat, parse_target("uniform:5,6")) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "spec", ["gm:1N(10,1e-300)", "gm:1N(-20,1e-200)", "gm:0.5N(0.25,1e-300)+0.5N(30,1e-300)"]
)
def test_evaluate_density_counts_both_halves_of_a_degenerate_component(spec):
    """Where mean ± 12 sd rounds to the mean, the quadrature still has a
    cell on each side of the mean, so neither half of its mass is lost
    (without them the three read 0.75, 0.75 and 0.375)."""
    flat = rb.PiecewisePolynomial((0.0, 1.0), ((1.0,),))
    assert rb.evaluate_density(flat, parse_target(spec)) == pytest.approx(1.0, abs=1e-12)


def _mass_below(bp, mono, x):
    """Reference CDF of the density with monomials ``mono`` in x on the
    pieces between breakpoints ``bp``: per-piece differences of ``polyint``
    antiderivatives."""
    total = 0.0
    for c, a, b in zip(mono, bp, bp[1:]):
        hi = min(x, b)
        if hi > a:
            anti = npoly.polyint(np.asarray(c))
            total += npoly.polyval(hi, anti) - npoly.polyval(a, anti)
    return total


def _random_density(rng):
    """A random density, and its pieces' ascending monomials in x."""
    t = int(rng.integers(1, 5))
    bp = np.cumsum(rng.uniform(0.05, 1.0, t + 1)) - 1.0
    pieces = []
    for a, b in zip(bp, bp[1:]):
        c = rng.normal(size=int(rng.integers(1, 6)))
        c[0] += 0.1 - npoly.polyval(_cheb_nodes(a, b), c).min()
        pieces.append(c)
    mass = sum(
        npoly.polyval(b, npoly.polyint(c)) - npoly.polyval(a, npoly.polyint(c))
        for c, a, b in zip(pieces, bp, bp[1:])
    )
    mono = tuple(tuple(c / mass) for c in pieces)
    return rb.PiecewisePolynomial.from_monomials(tuple(bp), mono), mono


def test_cdf_table_matches_polyint_reference():
    rng = np.random.default_rng(21)
    for _ in range(60):
        dens, mono = _random_density(rng)
        lo, hi = dens.support
        xs = np.sort(np.concatenate([rng.uniform(lo - 0.5, hi + 0.5, 200), dens.breakpoints]))
        cdf = dens.cdf(xs)
        ref = [_mass_below(dens.breakpoints, mono, x) for x in xs]
        np.testing.assert_allclose(cdf, ref, rtol=0, atol=1e-13)
        # the density itself: each piece's monomials in x, 0 off the support
        j = np.clip(np.searchsorted(dens.breakpoints, xs, side="right") - 1, 0, dens.t - 1)
        ref_pdf = [npoly.polyval(x, mono[i]) if lo <= x <= hi else 0.0 for x, i in zip(xs, j)]
        np.testing.assert_allclose(dens.pdf(xs), ref_pdf, rtol=1e-12, atol=1e-12)
        assert np.all(np.diff(cdf) >= 0)
        part = rb.IntervalPartition(tuple(np.sort(rng.uniform(lo, hi, 7))))
        masses = dens.bin_masses(part)
        assert masses.sum() == pytest.approx(dens.integral(), abs=1e-14)
        assert dens.integral() == pytest.approx(1.0, abs=1e-12)


def _tv_reference(fit, target):
    """TV by a dense sign scan of fit - target, crossings refined by
    brentq, then quad of the signed gap between crossings."""
    from scipy import integrate, optimize

    grid = sorted({*fit.breakpoints, *target.breakpoints})

    def gap(x):
        return float(fit.pdf(x)[0] - target.pdf(np.array([x]))[0])

    total = 0.0
    for a, b in zip(grid, grid[1:]):
        xs = np.linspace(a, b, 200_001)
        xs[0], xs[-1] = np.nextafter(a, b), np.nextafter(b, a)
        pos = fit.pdf(xs) - target.pdf(xs) > 0
        flips = np.nonzero(pos[1:] != pos[:-1])[0]
        cuts = [a, *(optimize.brentq(gap, xs[i], xs[i + 1], xtol=1e-15) for i in flips), b]
        for c, d in zip(cuts, cuts[1:]):
            total += abs(integrate.quad(gap, c, d, epsabs=1e-14, epsrel=1e-13, limit=500)[0])
    return 0.5 * total


# Two fits recorded from seeded runs, with their reference TVs; quadrature
# of |fit - target| at epsabs 1e-9 was off by 1.5e-7 and 2.3e-8 on them.
RECORDED_FITS = [
    (  # clean_pipeline k=6, trigger 5, stop 4, then t=3, d=1; seed 3 of
        # mean_shift:1.0@1.4,1.6 at m=1000, n=100, beta=0.2
        "gm:0.6N(0,1)+0.4N(3,0.5)",
        (-4.116916656230595, -1.0143997460514467, 2.4089159692570923, 4.979629324298699),
        (
            (0.07689471005803289, 0.018677742708650528),
            (0.20009672489984595, -0.048632575519183305),
            (0.5141902700328649, -0.1032587440843863),
        ),
        0.159922554517,
    ),
    (  # the naive pooled histogram of C9's target under
        # MeanShiftAttack(1.0, (0.45, 0.55)), seed 2, fitted at t=3, d=3;
        # it crosses the target 1.3e-4 from the support start
        "pwpoly:0,0.3,0.7,1|0.5 1;2 -1.5;0.33666666666666667 0.8",
        (2.355605944526218e-06, 0.4499260750498246, 0.5490922056247927, 0.9999891261123097),
        (
            (0.500375425808432, -1.9189319296920795, 14.835164727527955, -15.192918282048709),
            (-66.03697089121997, 397.4996624380965, -756.5608646644081, 475.6774453975179),
            (6.029946174213349, -17.4422193292235, 18.538443257023193, -6.189118770684061),
        ),
        0.173894296762,
    ),
]


@pytest.mark.parametrize("spec, breakpoints, coefficients, recorded", RECORDED_FITS)
def test_evaluate_density_matches_reference_on_recorded_fits(
    spec, breakpoints, coefficients, recorded
):
    fit = rb.PiecewisePolynomial.from_monomials(breakpoints, coefficients)
    target = parse_target(spec)
    reference = _tv_reference(fit, target)
    assert reference == pytest.approx(recorded, abs=1e-11)
    assert rb.evaluate_density(fit, target) == pytest.approx(reference, abs=1e-9)


def test_fit_piecewise_never_raises_on_valid_masses():
    """Seeded random fits at d = 1..8, a third of the cells empty: each one
    returns a density whose every piece is the solver's own fit, kept in
    the piece's coordinate s, so none falls back to the constant piece.
    Then, on the same stream, the degree-8 checks that once ran as a CI
    step of their own.  The breakpoint DP streams its segment costs a block
    of right ends at a time and integrates the cells a block at a time, so
    one t=3, d=8 fit on 4,800 cells may take 2.0 MiB of heap (1.72
    measured, plus a sixth; node powers over all cells took 2.72, the full
    matrix of 32,640 9x9 systems 48.0; a fresh stream's draw peaks at 1.88,
    so the draws must stay in this order).  Then 352 fits on supports that
    cut the partition may not fall back either, and the whole test finishes
    within 60 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    fits = 0
    for _ in range(400):
        ell = int(rng.integers(5, 120))
        d = int(rng.integers(1, 9))
        t = int(rng.integers(1, 4))
        bnd = np.sort(rng.uniform(0.0, 1.0, ell - 1))
        masses = rng.dirichlet(np.ones(ell))
        masses[rng.permutation(ell)[: ell // 3]] = 0.0
        masses /= masses.sum()
        if 2 * t * d > ell:
            continue
        part = rb.IntervalPartition(tuple(bnd))
        res = fit_piecewise(masses, part, t, d, (-0.01, 1.01))
        assert res.density.bin_masses(part).sum() == pytest.approx(1.0, abs=1e-6)
        assert not res.best_effort
        fits += 1
    assert fits == 348

    ell = 4800
    part = rb.IntervalPartition(tuple(np.sort(rng.uniform(0.0, 1.0, ell - 1))))
    masses = rng.dirichlet(np.ones(ell))
    tracemalloc.start()
    try:
        fit_piecewise(masses, part, 3, 8, (-0.01, 1.01))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * 2**20

    # supports that cut the partition: each end on a boundary or inside a
    # cell, every cell wholly outside empty, so the fitter groups the cells
    # that clip to zero width into the cells at the ends
    fits = 0
    for _ in range(400):
        ell = int(rng.integers(5, 120))
        d = int(rng.integers(1, 9))
        t = int(rng.integers(1, 4))
        bnd = np.sort(rng.uniform(0.0, 1.0, ell - 1))
        edges = np.array([-np.inf, *bnd, np.inf])
        a, b = np.sort(rng.choice(ell - 1, 2, replace=False))
        lo = bnd[a] - rng.choice([0.0, 0.5]) * (bnd[a] - edges[a].clip(-0.01))
        hi = bnd[b] + rng.choice([0.0, 0.5]) * (edges[b + 2].clip(None, 1.01) - bnd[b])
        masses = rng.dirichlet(np.ones(ell))
        masses[rng.permutation(ell)[: ell // 3]] = 0.0
        masses[(edges[1:] < lo) | (edges[:-1] >= hi)] = 0.0
        if 2 * t * d > ell or not masses.any():
            continue
        part = rb.IntervalPartition(tuple(bnd))
        res = fit_piecewise(masses / masses.sum(), part, t, d, (lo, hi))
        assert not res.best_effort
        fits += 1
    assert fits == 352
    assert time.perf_counter() - start < 60


def _segment_cost_matrix(cand, pg, pb, pww):
    """Every candidate pair's segment cost at once, from prefix sums at
    every cell: the fitter's cost step before costs were streamed."""
    nc = cand.size
    dim = pb.shape[1]
    cost = np.full((nc, nc), np.inf)
    ii, jj = np.triu_indices(nc, k=1)
    G = pg[cand[jj]] - pg[cand[ii]]
    b = pb[cand[jj]] - pb[cand[ii]]
    c = pww[cand[jj]] - pww[cand[ii]]
    lam = 1e-10 * np.maximum(G.reshape(G.shape[0], -1).max(axis=1), 1e-30)
    G = G + lam[:, None, None] * np.eye(dim)
    sol = np.linalg.solve(G, b[..., None])[..., 0]
    cost[ii, jj] = np.maximum(c - np.einsum("ij,ij->i", b, sol), 0.0)
    return cost


def _merge_cells(edges: list[float], masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop zero-width cells (support edge equal to a boundary), folding
    their mass into the nearest real cell: the fitter's cell grouping
    before it read the cells off the boundaries inside the support."""
    kept_edges = [edges[0]]
    kept_mass: list[float] = []
    pending = 0.0
    for j, w in enumerate(masses):
        pending += float(w)
        if edges[j + 1] > kept_edges[-1]:
            kept_edges.append(edges[j + 1])
            kept_mass.append(pending)
            pending = 0.0
    if pending:
        kept_mass[-1] += pending
    return np.asarray(kept_edges), np.asarray(kept_mass)


def _full_matrix_fit(masses, partition, t, d, support):
    """fit_piecewise with the full cost matrix and a full (t+1) x nc sweep
    per layer, the way it was fitted before costs were streamed."""
    lo, hi = float(support[0]), float(support[1])
    w = np.clip(np.asarray(masses, dtype=float), 0.0, None)
    w = w / w.sum()
    edges = np.array([-np.inf, *partition.boundaries, np.inf])
    edges_x, w_m = _merge_cells([lo, *np.clip(edges[1:-1], lo, hi).tolist(), hi], w)
    ncells = w_m.size
    dim = d + 1
    cell_phi = _local_cell_integrals(edges_x, dim)
    pg = np.zeros((ncells + 1, dim, dim))
    pg[1:] = np.cumsum(cell_phi[:, :, None] * cell_phi[:, None, :], axis=0)
    pb = np.zeros((ncells + 1, dim))
    pb[1:] = np.cumsum(cell_phi * w_m[:, None], axis=0)
    pww = np.zeros(ncells + 1)
    pww[1:] = np.cumsum(w_m * w_m)
    cand = np.unique(np.round(np.linspace(0, ncells, MAX_CUT_CANDIDATES)).astype(int))
    cost = _segment_cost_matrix(cand, pg, pb, pww)
    t_eff = min(t, ncells)
    nc = cand.size
    best = np.full((t_eff + 1, nc), np.inf)
    parent = np.zeros((t_eff + 1, nc), dtype=int)
    best[0, 0] = 0.0
    for r in range(1, t_eff + 1):
        options = best[r - 1, :, None] + cost
        parent[r] = np.argmin(options, axis=0)
        best[r] = options.min(axis=0)
    cuts = [nc - 1]
    for r in range(1 + int(np.argmin(best[1:, nc - 1])), 0, -1):
        cuts.append(int(parent[r, cuts[-1]]))
    cuts = [cand[i] for i in reversed(cuts)]
    pieces, best_effort = [], False
    for a_cell, b_cell in zip(cuts, cuts[1:]):
        phi = _local_cell_integrals(edges_x[a_cell : b_cell + 1], dim)
        coef_s, fell_back = _solve_piece(phi, w_m[a_cell:b_cell])
        pieces.append(coef_s * 2.0 / (edges_x[b_cell] - edges_x[a_cell]))
        best_effort = best_effort or fell_back
    density = PiecewisePolynomial(tuple(edges_x[cuts]), tuple(tuple(c) for c in pieces))
    k = max(1, 2 * t * d)
    fitted = np.clip(density.bin_masses(partition), 0.0, None)
    achieved = fk_distance(fitted / fitted.sum(), w, k)
    return PiecewiseFitResult(density, float(achieved), k, best_effort), ncells


def _fit_bits(res):
    """Everything a fit reports, with every float as its bytes (so -0.0
    and 0.0 differ)."""
    return (
        np.array(res.density.breakpoints).tobytes(),
        tuple(np.array(c).tobytes() for c in res.density.coefficients),
        np.float64(res.fk_to_input).tobytes(),
        res.fk_family_k,
        res.best_effort,
    )


@pytest.mark.parametrize("block", [None, 1])
@pytest.mark.parametrize(
    "ell, t, degrees, clip, runs",
    [
        (40, 2, range(MAX_DEGREE + 1), False, 6),  # ncells below the 256 candidates
        (700, 3, range(MAX_DEGREE + 1), False, 6),  # above them: thinned cuts
        (700, 20, (8,), False, 6),
        (30, 30, (0,), False, 0),  # t >= ncells: one piece per cell wins
        (30, 64, (0,), False, 6),
        (300, 400, (0,), False, 6),
        (300, 150, (1,), True, 6),  # clipping merges cells down to fewer than t
        (900, 3, (8,), True, 6),  # and leaves more than 256
    ],
)
def test_fit_equals_the_full_matrix_fit_bitwise(monkeypatch, block, ell, t, degrees, clip, runs):
    """Streamed segment costs give the full-matrix fit bit for bit: the same
    cuts, coefficients, distance and flag, at every degree, over runs of
    empty cells, with t up to and past the cell count.  block=1 solves one
    right end, and sums one cell, per block."""
    if block is not None:
        monkeypatch.setattr(estimate, "_COST_BLOCK", block)
    rng = np.random.default_rng(ell + t)
    bnd = np.sort(rng.uniform(0.0, 1.0, ell - 1))
    masses = rng.dirichlet(np.full(ell, 0.5))
    for start in rng.integers(0, ell, runs):  # runs of empty cells
        masses[start : start + int(rng.integers(1, ell // 8))] = 0.0
    support = (-0.01, 1.01)
    if clip:
        # the support starts inside cell a + 1 and ends on boundary b, so
        # every cell past b lies outside it, is empty and clips to zero width
        a, b = ell // 3, ell // 3 + min(ell // 3, 100)
        support = (bnd[a] + 0.3 * (bnd[a + 1] - bnd[a]), bnd[b])
        masses[: a + 1] = 0.0
        masses[b + 1 :] = 0.0
    masses /= masses.sum()
    part = rb.IntervalPartition(tuple(bnd))
    for d in degrees:
        reference, ncells = _full_matrix_fit(masses, part, t, d, support)
        assert _fit_bits(fit_piecewise(masses, part, t, d, support)) == _fit_bits(reference)
    if t >= ell // 2:
        assert t >= ncells


def test_fit_groups_clipped_cells_as_the_merge_loop_did():
    """Seeded supports that cut the partition, fitted at d = 0..8, give the
    full-matrix fit with its cell-merging loop bit for bit.  A support
    starts on a boundary whose cell, ending there, holds mass; ends on one
    whose next cell, starting there, is empty as every cell wholly outside
    must be; spans exactly one cell, the cell ending at its lower end
    holding mass; or lies past every boundary.  Boundaries of -0.0 and
    masses of -0.0 appear too."""
    rng = np.random.default_rng(32)
    kinds = set()
    for _ in range(160):
        bnd = np.sort(rng.uniform(-1.0, 1.0, int(rng.integers(3, 60))))
        if rng.random() < 0.3:
            bnd[np.argmin(np.abs(bnd))] = -0.0
        bnd = np.unique(bnd)
        edges = np.array([-np.inf, *bnd, np.inf])
        a, b = sorted(rng.choice(bnd.size, 2, replace=False))
        kind = int(rng.integers(0, 5))
        lo, hi = [
            (bnd[a], 0.5 * (bnd[b] + edges[b + 2]) if b + 1 < bnd.size else 2.0),
            (0.5 * (bnd[a] + edges[a]) if a else -2.0, bnd[b]),
            (bnd[a], bnd[a + 1]),
            (bnd[-1] + 0.1 * rng.random(), 2.0),
            (-2.0, bnd[0] - 0.1 * rng.random()),
        ][kind]
        masses = rng.dirichlet(np.full(bnd.size + 1, 0.7))
        masses[(edges[1:] < lo) | (edges[:-1] >= hi)] = -0.0
        masses /= masses.sum()
        d = int(rng.integers(0, MAX_DEGREE + 1))
        t = int(rng.integers(1, 5))
        while 2 * t * d > bnd.size + 1:
            d -= 1
        part = rb.IntervalPartition(tuple(bnd))
        reference, _ = _full_matrix_fit(masses, part, t, d, (lo, hi))
        assert _fit_bits(fit_piecewise(masses, part, t, d, (lo, hi))) == _fit_bits(reference)
        kinds.add(kind)
    assert kinds == set(range(5))


@pytest.mark.parametrize("block", [None, 1])
@pytest.mark.parametrize("counts, t", [((1, 3, 3, 1), 2), ((0, 1, 1, 0), 2), ((2, 3, 0, 1), 3)])
def test_fit_keeps_the_first_of_exactly_tied_cuts(monkeypatch, block, counts, t):
    """Mirrored masses on equal dyadic cells tie two last-piece starts
    exactly at d = 0; the streamed DP keeps the first, as argmin over the
    full matrix's column did."""
    if block is not None:
        monkeypatch.setattr(estimate, "_COST_BLOCK", block)
    masses = np.array(counts, dtype=float) / sum(counts)
    part = rb.IntervalPartition(tuple(np.arange(1, len(counts)) / len(counts)))
    for d in range(len(counts) // (2 * t) + 1):
        reference, _ = _full_matrix_fit(masses, part, t, d, (0.0, 1.0))
        assert _fit_bits(fit_piecewise(masses, part, t, d, (0.0, 1.0))) == _fit_bits(reference)


@pytest.mark.parametrize("block", [None, 1, 200])
def test_candidate_prefix_sums_equal_one_cumsum_bitwise(monkeypatch, block):
    """The prefix sums kept at the candidate cuts are the rows of one cumsum
    over all cells, bit for bit, however the cells are blocked."""
    if block is not None:
        monkeypatch.setattr(estimate, "_COST_BLOCK", block)
    rng = np.random.default_rng(3)
    ell = 700
    edges = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, ell - 1)), [1.0]))
    w = rng.dirichlet(np.ones(ell))
    w[100:160] = 0.0  # phi * 0 is -0.0 on the cells left of the middle
    phi = _local_cell_integrals(edges, MAX_DEGREE + 1)
    cand = np.unique(np.round(np.linspace(0, ell, MAX_CUT_CANDIDATES)).astype(int))
    full = (phi[:, :, None] * phi[:, None, :], phi * w[:, None], w * w)
    got = estimate._candidate_prefix_sums(edges, w, cand, MAX_DEGREE + 1)
    for table, terms in zip(got, full):
        prefix = np.concatenate((np.zeros((1, *terms.shape[1:])), np.cumsum(terms, axis=0)))
        assert table.tobytes() == prefix[cand].tobytes()


def test_fit_piecewise_on_a_narrow_support():
    """Seeded fits at d = 1..8 on a support 1e-6 wide, away from 0: the
    densities run near 1e6 per unit x, and the nonnegativity check scales
    its rounding allowance with each piece's height."""
    rng = np.random.default_rng(4)
    for _ in range(40):
        ell = int(rng.integers(48, 120))
        d = int(rng.integers(1, 9))
        t = int(rng.integers(1, 4))
        bnd = np.sort(5.0 + 1e-6 * rng.uniform(0.0, 1.0, ell - 1))
        masses = rng.dirichlet(np.ones(ell))
        masses[rng.permutation(ell)[: ell // 3]] = 0.0
        masses /= masses.sum()
        part = rb.IntervalPartition(tuple(bnd))
        res = fit_piecewise(masses, part, t, d, (5.0 - 1e-8, 5.0 + 1.01e-6))
        assert not res.best_effort
        assert res.density.bin_masses(part).sum() == pytest.approx(1.0, abs=1e-12)


def test_fit_piecewise_support_inside_the_outer_boundaries():
    """A support that ends inside the outer cells clips every cell to it;
    the cells lying wholly outside it must be empty."""
    part = rb.IntervalPartition((0.0, 1.0, 2.0, 3.0))
    res = fit_piecewise([0.0, 0.5, 0.5, 0.0, 0.0], part, 1, 0, (0.2, 1.8))
    assert res.density.breakpoints == (0.2, 1.8)
    assert res.density.bin_masses(part) == pytest.approx([0.0, 0.5, 0.5, 0.0, 0.0])
    for masses in ([0.1, 0.5, 0.4, 0.0, 0.0], [0.0, 0.5, 0.4, 0.1, 0.0], [0.0, 0.5, 0.4, 0.0, 0.1]):
        with pytest.raises(rb.UsageError, match="support must cover every partition cell"):
            fit_piecewise(masses, part, 1, 0, (0.2, 1.8))


def test_fit_piecewise_refuses_mass_in_the_cell_starting_at_hi():
    """Cells are (a, b]: the cell starting exactly at the support's upper
    end lies wholly outside it and must be empty, while the cell ending
    exactly at its lower end holds mass that joins the first fitted cell."""
    part = rb.IntervalPartition((0.0, 1.0, 2.0, 3.0))
    with pytest.raises(rb.UsageError, match="support must cover every partition cell"):
        fit_piecewise([0.0, 0.5, 0.4, 0.1, 0.0], part, 1, 0, (0.5, 2.0))
    res = fit_piecewise([0.0, 0.2, 0.4, 0.4, 0.0], part, 1, 0, (1.0, 2.5))
    assert res.density.breakpoints == (1.0, 2.5)
    assert res.density.bin_masses(part) == pytest.approx([0.0, 0.0, 2 / 3, 1 / 3, 0.0])


def test_fit_piecewise_refuses_a_support_of_infinite_width():
    """A support whose width hi - lo overflows is refused before any cell is
    integrated, as are an infinite end, a NaN end and an empty support."""
    part = rb.IntervalPartition((0.0, 1.0))
    for support in ((-1e308, 1e308), (-np.inf, 0.5), (0.5, np.nan), (0.5, 0.5)):
        with pytest.raises(rb.UsageError, match="support must be a nonempty interval of finite width"):
            fit_piecewise([0.0, 1.0, 0.0], part, 1, 1, support)


def test_degree_8_fit_of_a_clean_mixture():
    """800 clean gm: batches on a 600-cell partition, fitted with t=6, d=8:
    no piece falls back to a constant, and the TV to the target stays below
    the 0.0088 that constant fallbacks reached."""
    target = parse_target("gm:0.6N(0,1)+0.4N(3,0.5)")
    coll = rb.build_collection(target, None, 800, 100, 0.0, 1)
    pooled = coll.pooled_samples()
    part, disc = rb.discretize(coll, 600)
    masses = disc.pooled()
    res = fit_piecewise(masses, part, 6, 8, (float(pooled[0]), float(pooled[-1])))
    assert not res.best_effort
    assert rb.evaluate_density(res.density, target) <= 0.0089


def test_desk_shape_fit_heap_stays_under_one_mib():
    """The t=3, d=1 fit of a desk batch file (m=1000, n=100, mean_shift) on
    600 cells holds no cost matrix: its heap stays at or below 1 MiB (the
    full 256 x 256 matrix of segment systems took 4.2 MiB, and a fit that
    kept 2 MiB of cost blocks peaked no lower in RSS)."""
    target = parse_target("gm:0.6N(0,1)+0.4N(3,0.5)")
    attack = rb.parse_attack("mean_shift:1.0@1.4,1.6")
    coll = rb.build_collection(target, attack, 1000, 100, 0.2, 1)
    pooled = coll.pooled_samples()
    part, disc = rb.discretize(coll, 600)
    masses = disc.pooled()
    support = (float(pooled[0]), float(pooled[-1]))
    fit_piecewise(masses, part, 3, 1, support)  # first calls fill caches
    tracemalloc.start()
    try:
        fit_piecewise(masses, part, 3, 1, support)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def _slsqp_piece(edges, w, dim):
    """The SLSQP solve of one piece in monomials of u = x (edges inside
    [-1, 1]), with its checks; returns (coefficients, passed, residual)."""
    from scipy import optimize

    powers = np.arange(1, dim + 1)
    cell_phi = (edges[1:, None] ** powers - edges[:-1, None] ** powers) / powers
    G, b = cell_phi.T @ cell_phi, cell_phi.T @ w
    phi_tot, w_seg = cell_phi.sum(axis=0), float(w.sum())
    const = np.zeros(dim)
    const[0] = w_seg / (edges[-1] - edges[0])
    vand = np.vander(_cheb_nodes(edges[0], edges[-1]), dim, increasing=True)

    def objective(a):
        return float(a @ G @ a - 2.0 * b @ a)

    a = optimize.minimize(
        objective,
        const,
        jac=lambda a: 2.0 * (G @ a - b),
        method="SLSQP",
        constraints=[
            {"type": "eq", "fun": lambda a: phi_tot @ a - w_seg, "jac": lambda a: phi_tot},
            {"type": "ineq", "fun": lambda a: vand @ a, "jac": lambda a: vand},
        ],
        options={"maxiter": 500, "ftol": 1e-16},
    ).x
    passed = (
        abs(float(phi_tot @ a) - w_seg) <= 1e-9 * max(1.0, w_seg)
        and float((vand @ a).min()) >= -1e-10
        and objective(a) <= objective(const) + 1e-15
    )
    return a, passed, float(np.sum((cell_phi @ a - w) ** 2))


def test_solve_piece_exact_and_no_worse_than_slsqp():
    """Seeded pieces at d = 1..8 whose mass-constrained least-squares fit
    dips below zero, a third of them narrow (width 0.02-0.05): the active-set
    solution keeps the mass, stays nonnegative at the check-points and beats
    the constant piece; it is no worse than SLSQP wherever SLSQP passes its
    checks, and on linear pieces both give the same density."""
    rng = np.random.default_rng(5)
    s_nodes = _cheb_nodes(-1.0, 1.0)
    for d in range(1, MAX_DEGREE + 1):
        dim = d + 1
        k = np.arange(dim)
        mass_row = np.where(k % 2 == 0, 2.0 / (k + 1), 0.0)
        vand = np.vander(s_nodes, dim, increasing=True)
        solved = 0
        while solved < 12:
            width = rng.uniform(0.02, 0.05) if solved % 3 == 0 else rng.uniform(0.05, 1.5)
            xa = rng.uniform(-1.0, 1.0 - width)
            cells = int(rng.integers(2, 60))
            edges = xa + width * np.concatenate([[0.0], np.sort(rng.uniform(0, 1, cells - 1)), [1.0]])
            w = rng.dirichlet(np.ones(cells))
            w[rng.permutation(cells)[: cells // 3]] = 0.0
            w *= rng.uniform(0.05, 1.0)
            phi = _local_cell_integrals(edges, dim)
            kkt = np.zeros((dim + 1, dim + 1))
            kkt[:dim, :dim] = phi.T @ phi
            kkt[:dim, dim] = kkt[dim, :dim] = mass_row
            rhs = np.concatenate([phi.T @ w, [w.sum()]])
            if (vand @ np.linalg.lstsq(kkt, rhs, rcond=None)[0][:dim]).min() >= 0:
                continue  # the equality-constrained fit is already nonnegative
            solved += 1

            a, fell_back = _solve_piece(phi, w)
            const = np.zeros(dim)
            const[0] = 0.5 * w.sum()
            residual = float(np.sum((phi @ a - w) ** 2))
            assert not fell_back
            assert abs(mass_row @ a - w.sum()) <= 1e-9 * max(1.0, w.sum())
            assert (vand @ a).min() >= -1e-10 * w.sum()
            assert residual <= float(np.sum((phi @ const - w) ** 2)) + 1e-15

            ref, passed, ref_residual = _slsqp_piece(edges, w, dim)
            if passed:
                # plus a floor for exact fits, where both residuals are rounding
                assert residual <= ref_residual * (1 + 1e-9) + 1e-24 * float(w @ w)
            if d == 1:
                width = edges[-1] - edges[0]
                density = npoly.polyval(s_nodes, a) * 2.0 / width
                ref_density = npoly.polyval(_cheb_nodes(edges[0], edges[-1]), ref)
                assert np.abs(density - ref_density).max() <= 1e-12 * w.sum() / width


def _per_piece_local(bp, j, x):
    bp = np.asarray(bp)
    return 2.0 * (x - bp[j]) / (bp[j + 1] - bp[j]) - 1.0


def _per_piece_first_dip(coefs):
    """The first piece that the per-piece check-point test refuses."""
    for j, coef in enumerate(coefs):
        values = npoly.polyval(_cheb_nodes(-1.0, 1.0), np.asarray(coef))
        if values.min() < -1e-9 * max(1.0, values.max()):
            return j
    return None


def _per_piece_antiderivatives(bp, coefs):
    anti = np.zeros((len(coefs), max(len(c) for c in coefs) + 1))
    for j, c in enumerate(coefs):
        row = npoly.polyint(np.asarray(c, dtype=float), lbnd=-1.0, scl=0.5 * (bp[j + 1] - bp[j]))
        anti[j, : row.size] = row
    return anti, np.concatenate(([0.0], np.cumsum(anti.sum(axis=1))))


def _per_piece_pdf(dens, x):
    """pdf by one masked polyval per piece, on its unpadded coefficients."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi = dens.support
    inside = (x >= lo) & (x <= hi)
    idx = np.clip(np.searchsorted(dens.breakpoints, x, side="right") - 1, 0, dens.t - 1)
    s = _per_piece_local(dens.breakpoints, idx, np.clip(x, lo, hi))
    out = np.zeros_like(x)
    for j in range(dens.t):
        sel = inside & (idx == j)
        if sel.any():
            out[sel] = npoly.polyval(s[sel], np.asarray(dens.coefficients[j]))
    return out


def _per_piece_cdf(dens, x):
    anti, cum = _per_piece_antiderivatives(dens.breakpoints, dens.coefficients)
    x = np.clip(np.atleast_1d(np.asarray(x, dtype=float)), *dens.support)
    j = np.clip(np.searchsorted(dens.breakpoints, x, side="right") - 1, 0, dens.t - 1)
    return cum[j] + npoly.polyval(_per_piece_local(dens.breakpoints, j, x), anti[j].T, tensor=False)


def _per_piece_sample(dens, rngs, size):
    """Inverse-CDF sampling with piece kinds read from the coefficient
    tuples, bisecting through a piece-mass call that gathers each sample's
    antiderivative row and breakpoints again at every step."""
    anti, cum = _per_piece_antiderivatives(dens.breakpoints, dens.coefficients)
    u = uniforms(rngs, size).ravel()
    j = np.searchsorted(cum[1:-1], u, side="right")
    residual = u - cum[j]
    bp = np.asarray(dens.breakpoints)
    a, b = bp[j], bp[j + 1]
    c01 = np.array([(*c, 0.0)[:2] for c in dens.coefficients])
    piece_kinds = np.where(
        [any(c[2:]) for c in dens.coefficients], 2, np.where(np.abs(c01[:, 1]) < 1e-14, 0, 1)
    )
    kinds = sorted(set(piece_kinds.tolist()))
    out = np.empty(u.size)
    for k in kinds:
        sel = piece_kinds[j] == k if len(kinds) > 1 else slice(None)
        r, lo, hi = residual[sel], a[sel], b[sel]
        if k == 2:
            js = j[sel]

            def excess(y):
                return npoly.polyval(_per_piece_local(bp, js, y), anti[js].T, tensor=False) - r

            out[sel] = estimate._bisect(excess, lo, hi)
            continue
        c0, c1 = c01[j[sel]].T
        if k == 0:
            x = lo + np.where(c0 > 0, r / np.maximum(c0, 1e-300), 0.5 * (hi - lo))
        else:
            left, q = c0 - c1, 4.0 * r / (hi - lo)
            root = left + np.sqrt(np.clip(left * left + c1 * q, 0.0, None))
            x = lo + 0.5 * (hi - lo) * np.divide(q, root, out=np.zeros_like(q), where=q > 0)
        out[sel] = np.clip(x, lo, hi)
    return out.reshape(len(rngs), size)


def _random_mixed_pieces(rng, t, d):
    """Breakpoints and t pieces in local coordinates of degree at most d:
    zero, flat, linear (some with a slope near the flat threshold) and
    curved, each nonnegative at the check-points, of total mass 1."""
    widths = rng.uniform(0.01, 2.0, t) * 10.0 ** rng.integers(-3, 3, t)
    bp = np.concatenate(([0.0], np.cumsum(widths)))
    bp -= bp[rng.integers(0, t + 1)] if rng.random() < 0.5 else rng.uniform(0, bp[-1])
    pieces, tiny = [], []
    for _ in range(t):
        kind = int(rng.integers(0, 5 if d >= 2 else 4 if d == 1 else 2))
        if kind == 0:
            c = np.zeros(int(rng.integers(1, d + 2)))
        elif kind == 1:
            c = np.array([rng.uniform(0.1, 3.0)])
        elif kind == 2:  # its slope is set after scaling; in s a slope adds no mass
            c = np.array([rng.uniform(0.1, 3.0), 0.0])
            tiny.append(len(pieces))
        elif kind == 3:
            c0 = rng.uniform(0.1, 3.0)
            c = np.array([c0, rng.uniform(-c0, c0)])
        else:
            c = rng.normal(size=int(rng.integers(3, d + 2)))
            c[0] += rng.uniform(0.0, 0.5) - npoly.polyval(np.linspace(-1, 1, 513), c).min()
        pieces.append(c)
    if not any(p.any() for p in pieces):
        pieces[0] = np.array([1.0])
    mass = _per_piece_antiderivatives(tuple(bp), pieces)[1][-1]
    pieces = [p / mass for p in pieces]
    for j in tiny:  # on either side of the flat threshold 1e-14
        pieces[j][1] = rng.choice([5e-15, -8e-15, 2e-14])
    return tuple(bp), tuple(tuple(p) for p in pieces)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_table_evaluation_equals_the_per_piece_code_bitwise():
    """pdf, cdf, sample, the check-point refusal and eta_at read the
    coefficient and antiderivative tables; every value is bit for bit the
    per-piece code's, off the support, at ±inf, -0.0 and NaN too.  The
    tables and the module's Horner loop on them, at s = ±1 and beyond,
    are bit for bit numpy.polynomial's polyint and polyval, for the
    random pieces and for the same pieces with every zero coefficient
    negated (-0.0 pieces, the zero constant among them)."""
    rng = np.random.default_rng(31)
    curved = refused = signed_zero_pieces = 0
    s_beyond = np.array([-1e3, -1.5, -1.0, -0.5, -0.0, 0.0, 0.25, 1.0, 1.5, 1e3])
    for _ in range(160):
        t, d = int(rng.integers(1, 41)), int(rng.integers(0, 9))
        bp, coefs = _random_mixed_pieces(rng, t, d)
        dens = PiecewisePolynomial(bp, coefs)
        curved += any(len(c) > 2 and any(c[2:]) for c in coefs)
        lo, hi = dens.support
        span = hi - lo
        xs = np.concatenate([
            rng.uniform(lo - 0.2 * span, hi + 0.2 * span, 300),
            bp,
            np.nextafter(bp, -np.inf),
            np.nextafter(bp, np.inf),
            [-0.0, 0.0, np.inf, -np.inf, np.nan, lo - 1e300, hi + 1e300],
        ])
        signed = tuple(tuple(-c if c == 0 else c for c in p) for p in coefs)
        signed_zero_pieces += sum(not any(p) for p in coefs)
        for pieces, dens_p in ((coefs, dens), (signed, PiecewisePolynomial(bp, signed))):
            anti, cum = _per_piece_antiderivatives(bp, pieces)
            assert _same_bits(dens_p.antiderivatives, anti) and _same_bits(dens_p.cum_mass, cum)
            for rows in (dens_p.coefficient_table, dens_p.antiderivatives):
                got = estimate._horner(rows[:, None, :], s_beyond)
                assert _same_bits(got, npoly.polyval(s_beyond, rows.T))
            assert _same_bits(dens_p.pdf(xs), _per_piece_pdf(dens_p, xs))
            assert _same_bits(dens_p.cdf(xs), _per_piece_cdf(dens_p, xs))
        seeds = rng.integers(0, 2**32, 3)
        got = dens.sample([np.random.default_rng(s) for s in seeds], 64)
        want = _per_piece_sample(dens, [np.random.default_rng(s) for s in seeds], 64)
        assert _same_bits(got, want)
        # pieces lowered to touch zero, or dip by about the tolerance or by
        # far more: both refuse or pass alike, naming the same first piece
        bad = list(coefs)
        for j in rng.choice(t, size=min(t, int(rng.integers(1, 4))), replace=False):
            c = np.array(bad[j] + (0.0,) * int(rng.integers(0, 3)))
            low = npoly.polyval(_cheb_nodes(-1.0, 1.0), c).min()
            c[0] -= low + rng.choice([0.0, 5e-10, 2e-9, 1.0]) * max(1.0, np.abs(c).sum())
            bad[j] = tuple(c)
        first = _per_piece_first_dip(bad)
        if first is None:
            try:
                PiecewisePolynomial(bp, tuple(bad))
            except rb.UsageError as exc:
                assert "dips" not in str(exc)
        else:
            refused += 1
            with pytest.raises(rb.UsageError, match=f"^piece {first} dips below zero at a check-point$"):
                PiecewisePolynomial(bp, tuple(bad))
        # eta_at: the cell of each x, looked up by the marginal's piece_of
        masses = rng.dirichlet(np.ones(t))
        target = ClassificationTarget(bp, tuple(masses), tuple(rng.uniform(0, 1, t)))
        cell = np.clip(np.searchsorted(np.asarray(target.edges), xs, side="right") - 1, 0, t - 1)
        assert _same_bits(target.eta_at(xs), np.asarray(target.eta)[cell])
        grid = xs[:300].reshape(20, 15)
        cell = np.clip(np.searchsorted(np.asarray(target.edges), grid, side="right") - 1, 0, t - 1)
        assert _same_bits(target.eta_at(grid), np.asarray(target.eta)[cell])
    assert curved > 40 and 40 < refused < 150 and signed_zero_pieces > 100


def test_antiderivative_corners_and_gauss_rule_equal_numpy_polynomial_bitwise():
    """Constants that scale to zero (+0.0, -0.0, or one that underflows)
    come back unextended, as from polyint, and -0.0 coefficients take its
    order; the module's Gauss-Legendre rule is leggauss(5) to the bit."""
    for c in ([0.0], [-0.0], [5e-324], [-0.0, 0.0], [0.0, -0.0, -0.0], [1.0, -0.0, 3.0],
              [5e-324, -5e-324], [-2.0, 0.5, -0.0, 1e-300]):
        for scl in (0.25, 1.0, 3e5):
            want = npoly.polyint(np.array(c), lbnd=-1.0, scl=scl)
            assert _same_bits(estimate._antiderivative(np.array(c), scl), want), (c, scl)
    nodes, weights = np.polynomial.legendre.leggauss(MAX_DEGREE // 2 + 1)
    assert _same_bits(estimate._GL_NODES, nodes) and _same_bits(estimate._GL_WEIGHTS, weights)


def test_from_monomials_composes_as_numpy_polynomial_bitwise():
    """Each piece's coefficients in s are numpy.polynomial's composition of
    its monomials with x = mid + half * s, to the bit and the sign of zero,
    trailing zeros trimmed alike; the density checks are bypassed so that
    any coefficients can be composed."""
    compose = PiecewisePolynomial.from_monomials.__func__
    rng = np.random.default_rng(36)
    for _ in range(2000):
        deg = int(rng.integers(0, MAX_DEGREE + 1))
        c = rng.choice([-1.0, 1.0], deg + 1) * 10.0 ** rng.uniform(-5, 4, deg + 1)
        c[rng.random(deg + 1) < 0.2] = rng.choice([0.0, -0.0])
        a, b = sorted(rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), 2).tolist())
        (got,) = compose(lambda bp, pieces: pieces, (a, b), (tuple(c),))
        want = Polynomial(c)(Polynomial([0.5 * a + 0.5 * b, 0.5 * (b - a)])).coef
        assert _same_bits(np.array(got), want), (c, a, b)


def test_from_monomials_near_the_float_maximum_and_on_an_empty_piece():
    dens = PiecewisePolynomial.from_monomials((1.7e308, 1.75e308), ((2e-307,),))
    assert dens.coefficients == ((2e-307,),) and dens.integral() == pytest.approx(1.0)
    with pytest.raises(rb.UsageError, match="nonempty coefficient lists"):
        PiecewisePolynomial.from_monomials((0.0, 1.0), ((),))


@pytest.mark.parametrize(
    "masses, message",
    [
        ([1.0], "masses must match the partition size"),
        ([[0.5, 0.5]], "masses must match the partition size"),
        ([1.5, -0.5], "masses must be nonnegative"),
        ([0.5, 0.6], "masses must sum to 1"),
    ],
)
def test_fit_refuses_masses_that_are_not_a_distribution_over_the_cells(masses, message):
    with pytest.raises(rb.UsageError, match=f"^{message}$"):
        fit_piecewise(masses, rb.IntervalPartition((0.5,)), 1, 0, (0.0, 1.0))


def test_a_piece_the_solver_cannot_fit_falls_back_to_the_constant(monkeypatch):
    """No seeded fit reaches the fallback, so it is forced: a least-squares
    step of NaN leaves an iterate that fails the mass check."""
    part = rb.IntervalPartition(tuple(np.linspace(0.125, 0.875, 7)))
    masses = np.array([0.05, 0.1, 0.2, 0.15, 0.1, 0.2, 0.15, 0.05])
    assert not fit_piecewise(masses, part, 1, 2, (0.0, 1.0)).best_effort

    def nan_lstsq(a, b, rcond=None):
        return (np.full(a.shape[1], np.nan),)

    monkeypatch.setattr(np.linalg, "lstsq", nan_lstsq)
    phi = _local_cell_integrals(np.linspace(0.0, 1.0, 9), 3)
    coef, fell_back = _solve_piece(phi, masses)
    assert fell_back and coef.tolist() == [0.5, 0.0, 0.0]
    res = fit_piecewise(masses, part, 1, 2, (0.0, 1.0))
    assert isinstance(res, PiecewiseFitResult) and res.best_effort
    assert res.density.coefficients == ((1.0, 0.0, 0.0),)
    assert res.density.breakpoints == (0.0, 1.0)
