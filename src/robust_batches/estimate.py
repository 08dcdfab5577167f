"""Piecewise-polynomial density estimation from a cleaned histogram.

The fitter picks piece breakpoints among the partition boundaries by
dynamic programming (per-segment least-squares cost against the bin
masses) and then solves each piece's coefficients under a mass-preserving
equality constraint with nonnegativity enforced at Chebyshev check-points.
Minimizing the squared bin residuals is a surrogate for the interval-union
distance the selection theory wants; the achieved distance is computed
exactly afterwards and reported alongside the fit.  Every integral of a
piecewise polynomial (CDF, bin masses, total mass, inverse-CDF sampling)
reads one antiderivative table, and the total-variation distance to a
target is computed from CDFs at the sign changes (Scheffé's identity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial import polynomial as npoly

from .core import DomainError, UsageError
from .distance import fk_distance
from .partition import IntervalPartition

CHEB_POINTS = 64
MAX_DEGREE = 8
MAX_CUT_CANDIDATES = 256

_NONNEG_TOL = 1e-9
_MASS_TOL = 1e-6
# halvings that take a unit bracket far below one ulp
_BISECT_STEPS = 100


def _cheb_nodes(a: float, b: float, count: int = CHEB_POINTS) -> np.ndarray:
    # second-kind (Lobatto) nodes: the piece endpoints are check-points too
    i = np.arange(count)
    return 0.5 * (a + b) + 0.5 * (b - a) * np.cos(i * np.pi / (count - 1))


def _antiderivative_table(bp, coefs) -> tuple[np.ndarray, np.ndarray]:
    """Per piece, the antiderivative's ascending coefficients (zero-padded),
    shifted to vanish at the piece's left end; and the cumulative mass at
    every breakpoint."""
    anti = np.zeros((len(coefs), max(len(c) for c in coefs) + 1))
    for j, c in enumerate(coefs):
        row = npoly.polyint(np.asarray(c, dtype=float), lbnd=bp[j])
        anti[j, : row.size] = row
    masses = npoly.polyval(np.asarray(bp[1:], dtype=float), anti.T, tensor=False)
    return anti, np.concatenate(([0.0], np.cumsum(masses)))


def _bisect(f, lo, hi) -> np.ndarray:
    """Vectorized bisection: narrows each bracket [lo[i], hi[i]], across
    which ``f > 0`` flips, to the point where it flips."""
    lo_pos = f(lo) > 0
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if not np.any((mid != lo) & (mid != hi)):
            break
        same = (f(mid) > 0) == lo_pos
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class PiecewisePolynomial:
    """A density made of polynomial pieces on consecutive intervals.

    ``coefficients[j]`` are ascending monomial coefficients on
    ``[breakpoints[j], breakpoints[j+1]]``.  Construction checks
    nonnegativity at Chebyshev check-points of every piece and that the
    total mass is 1 within 1e-6, and builds the antiderivative table that
    ``cdf``, ``integral`` and ``bin_masses`` read.
    """

    breakpoints: tuple[float, ...]
    coefficients: tuple[tuple[float, ...], ...]
    antiderivatives: np.ndarray = field(init=False, repr=False, compare=False)
    cum_mass: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        bp = tuple(float(x) for x in self.breakpoints)
        coefs = tuple(tuple(float(c) for c in piece) for piece in self.coefficients)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "coefficients", coefs)
        if len(bp) != len(coefs) + 1 or len(coefs) < 1:
            raise UsageError("need t+1 breakpoints for t coefficient lists")
        if any(x >= y for x, y in zip(bp, bp[1:])):
            raise UsageError("breakpoints must be strictly increasing")
        if not all(math.isfinite(x) for x in bp):
            raise UsageError("breakpoints must be finite")
        for j, piece in enumerate(coefs):
            vals = npoly.polyval(_cheb_nodes(bp[j], bp[j + 1]), np.asarray(piece))
            if np.min(vals) < -_NONNEG_TOL:
                raise UsageError(f"piece {j} dips below zero at a check-point")
        anti, cum = _antiderivative_table(bp, coefs)
        object.__setattr__(self, "antiderivatives", anti)
        object.__setattr__(self, "cum_mass", cum)
        if not abs(self.integral() - 1.0) <= _MASS_TOL:  # NaN fails too
            raise UsageError(f"density integrates to {self.integral()!r}, not 1")

    @property
    def t(self) -> int:
        return len(self.coefficients)

    @property
    def support(self) -> tuple[float, float]:
        return self.breakpoints[0], self.breakpoints[-1]

    def pdf(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        bp = np.asarray(self.breakpoints)
        idx = np.clip(np.searchsorted(bp, x, side="right") - 1, 0, self.t - 1)
        out = np.zeros_like(x)
        inside = (x >= bp[0]) & (x <= bp[-1])
        for j in range(self.t):
            sel = inside & (idx == j)
            if sel.any():
                out[sel] = npoly.polyval(x[sel], np.asarray(self.coefficients[j]))
        return out

    def piece_mass(self, j, x) -> np.ndarray:
        """Mass of piece ``j`` between its left end and ``x`` (inside it);
        an array ``j`` pairs one piece with each ``x``."""
        return npoly.polyval(x, self.antiderivatives[j].T, tensor=False)

    def cdf(self, x) -> np.ndarray:
        """Mass of the density below ``x``."""
        x = np.clip(np.atleast_1d(np.asarray(x, dtype=float)), *self.support)
        j = np.clip(np.searchsorted(self.breakpoints, x, side="right") - 1, 0, self.t - 1)
        return self.cum_mass[j] + self.piece_mass(j, x)

    def integral(self) -> float:
        return float(self.cum_mass[-1])

    def bin_masses(self, partition: IntervalPartition) -> np.ndarray:
        """Mass assigned to each cell of an interval partition."""
        inner = self.cdf(partition.boundaries)
        return np.diff(inner, prepend=0.0, append=self.integral())

    def to_dict(self) -> dict:
        return {
            "breakpoints": list(self.breakpoints),
            "coefficients": [list(p) for p in self.coefficients],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PiecewisePolynomial":
        return cls(tuple(d["breakpoints"]), tuple(tuple(p) for p in d["coefficients"]))


@dataclass(frozen=True)
class PiecewiseFitResult:
    """A fitted density plus the exactly-measured distance to its input."""

    density: PiecewisePolynomial
    fk_to_input: float
    fk_family_k: int
    best_effort: bool

    def to_dict(self) -> dict:
        return {
            "density": self.density.to_dict(),
            "fk_to_input": self.fk_to_input,
            "fk_family_k": self.fk_family_k,
            "best_effort": self.best_effort,
        }


def _merge_cells(edges: list[float], masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop zero-width cells (support edge equal to a boundary), folding
    their mass into the nearest real cell."""
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


def _segment_cost_matrix(
    cand: np.ndarray, pg: np.ndarray, pb: np.ndarray, pww: np.ndarray
) -> np.ndarray:
    """Unconstrained least-squares cost of fitting one polynomial to every
    candidate cell range, via prefix Gram sums."""
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


def _solve_piece(
    G: np.ndarray,
    b: np.ndarray,
    phi_tot: np.ndarray,
    w_seg: float,
    ua: float,
    ub: float,
) -> tuple[np.ndarray, bool]:
    """Coefficients (in scaled coordinates) minimizing the squared bin
    residuals subject to exact segment mass and nonnegativity at the
    check-points.  Returns (coefficients, fell_back_to_constant)."""
    dim = b.size
    width = ub - ua
    const = np.zeros(dim)
    const[0] = w_seg / width
    if w_seg <= 0.0:
        return np.zeros(dim), False
    if dim == 1:
        return const, False
    nodes = _cheb_nodes(ua, ub)
    vand = np.vander(nodes, dim, increasing=True)
    # Equality-constrained solution first; the constraint set is feasible
    # (the constant piece satisfies it), so SLSQP only runs when the
    # unconstrained-shape solution dips negative.
    kkt = np.zeros((dim + 1, dim + 1))
    kkt[:dim, :dim] = 2.0 * G
    kkt[:dim, dim] = phi_tot
    kkt[dim, :dim] = phi_tot
    rhs = np.concatenate([2.0 * b, [w_seg]])
    try:
        a_eq = np.linalg.solve(kkt, rhs)[:dim]
    except np.linalg.LinAlgError:
        a_eq = None
    if a_eq is not None and float((vand @ a_eq).min()) >= -1e-12:
        return a_eq, False

    from scipy import optimize

    def objective(a: np.ndarray) -> float:
        return float(a @ G @ a - 2.0 * b @ a)

    def gradient(a: np.ndarray) -> np.ndarray:
        return 2.0 * (G @ a - b)

    res = optimize.minimize(
        objective,
        const,
        jac=gradient,
        method="SLSQP",
        constraints=[
            {"type": "eq", "fun": lambda a: phi_tot @ a - w_seg, "jac": lambda a: phi_tot},
            {"type": "ineq", "fun": lambda a: vand @ a, "jac": lambda a: vand},
        ],
        options={"maxiter": 500, "ftol": 1e-16},
    )
    a_sol = res.x
    mass_ok = abs(float(phi_tot @ a_sol) - w_seg) <= 1e-9 * max(1.0, w_seg)
    nonneg_ok = float((vand @ a_sol).min()) >= -1e-10
    if mass_ok and nonneg_ok and objective(a_sol) <= objective(const) + 1e-15:
        return a_sol, False
    return const, True


def check_fit_shape(t: int, d: int, cells: int) -> None:
    """Refuse a t-piece degree-d fit that ``cells`` partition cells cannot
    carry: t >= 1, 0 <= d <= MAX_DEGREE and 2*t*d <= cells.  A batch file
    of n*m samples bounds every partition of it to n*m cells, so callers
    can check before any partition is built."""
    if t < 1:
        raise DomainError("t must be at least 1")
    if not 0 <= d <= MAX_DEGREE:
        raise DomainError(f"d must lie in 0..{MAX_DEGREE}")
    if cells < 2 * t * d:
        raise UsageError(f"{cells} partition cells, need at least 2*t*d={2 * t * d}")


def fit_piecewise(
    masses,
    partition: IntervalPartition,
    t: int,
    d: int,
    support: tuple[float, float],
) -> PiecewiseFitResult:
    """Fit a t-piece degree-d density to per-bin masses of a partition.

    Piece breakpoints are restricted to the partition boundaries (thinned
    to at most MAX_CUT_CANDIDATES cut positions when the partition is very
    fine).  ``support`` bounds the density; the partition's two unbounded
    end cells are clipped to it.  Pathological pieces fall back to the
    always-feasible constant density and flag the result instead of
    failing.
    """
    check_fit_shape(t, d, partition.ell)
    lo, hi = float(support[0]), float(support[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise UsageError("support must be a finite nonempty interval")
    w = np.asarray(masses, dtype=float)
    if w.shape != (partition.ell,):
        raise UsageError("masses must match the partition size")
    if np.any(w < -1e-12):
        raise UsageError("masses must be nonnegative")
    if abs(float(w.sum()) - 1.0) > _MASS_TOL:
        raise UsageError("masses must sum to 1")
    w = np.clip(w, 0.0, None)
    w = w / w.sum()
    bnd = list(partition.boundaries)
    if bnd and (bnd[0] < lo or bnd[-1] > hi):
        raise UsageError("support must contain all partition boundaries")
    edges_x, w_m = _merge_cells([lo, *bnd, hi], w)
    scale = 2.0 / (hi - lo)
    shift = -(hi + lo) / (hi - lo)
    ue = scale * edges_x + shift  # affine map of the support onto [-1, 1]
    ncells = w_m.size
    dim = d + 1

    # Prefix sums of the per-cell Gram pieces, for O(1) segment costs.
    powers = np.arange(1, dim + 1)
    cell_phi = (ue[1:, None] ** powers - ue[:-1, None] ** powers) / powers
    pg = np.zeros((ncells + 1, dim, dim))
    pg[1:] = np.cumsum(cell_phi[:, :, None] * cell_phi[:, None, :], axis=0)
    pb = np.zeros((ncells + 1, dim))
    pb[1:] = np.cumsum(cell_phi * w_m[:, None], axis=0)
    pww = np.zeros(ncells + 1)
    pww[1:] = np.cumsum(w_m * w_m)

    if ncells + 1 > MAX_CUT_CANDIDATES:
        cand = np.unique(np.round(np.linspace(0, ncells, MAX_CUT_CANDIDATES)).astype(int))
    else:
        cand = np.arange(ncells + 1)
    cost = _segment_cost_matrix(cand, pg, pb, pww)

    t_eff = min(t, ncells)
    nc = cand.size
    best = np.full((t_eff + 1, nc), np.inf)
    parent = np.zeros((t_eff + 1, nc), dtype=int)
    best[0, 0] = 0.0
    for r in range(1, t_eff + 1):
        for j in range(1, nc):
            options = best[r - 1, :j] + cost[:j, j]
            i = int(np.argmin(options))
            best[r, j] = options[i]
            parent[r, j] = i
    r_best = 1 + int(np.argmin(best[1:, nc - 1]))
    cuts = [nc - 1]
    r = r_best
    while r > 0:
        cuts.append(int(parent[r, cuts[-1]]))
        r -= 1
    cuts = [cand[i] for i in reversed(cuts)]

    pieces_x: list[np.ndarray] = []
    bp_x: list[float] = [float(edges_x[cuts[0]])]
    best_effort = False
    for a_cell, b_cell in zip(cuts, cuts[1:]):
        G = pg[b_cell] - pg[a_cell]
        b_vec = pb[b_cell] - pb[a_cell]
        phi_tot = cell_phi[a_cell:b_cell].sum(axis=0)
        w_seg = float(w_m[a_cell:b_cell].sum())
        ua, ub = float(ue[a_cell]), float(ue[b_cell])
        coef_u, fell_back = _solve_piece(G, b_vec, phi_tot, w_seg, ua, ub)
        best_effort = best_effort or fell_back
        # back to x coordinates: density transforms with the Jacobian
        poly_x = Polynomial(coef_u)(Polynomial([shift, scale]))
        coef_x = np.zeros(dim)
        coef_x[: poly_x.coef.size] = poly_x.coef
        pieces_x.append(coef_x * scale)
        bp_x.append(float(edges_x[b_cell]))

    total = float(_antiderivative_table(bp_x, pieces_x)[1][-1])
    if total > 0 and abs(total - 1.0) > 1e-12:
        pieces_x = [c / total for c in pieces_x]
    density = PiecewisePolynomial(tuple(bp_x), tuple(tuple(c) for c in pieces_x))

    fk_family_k = max(1, 2 * t * d)
    fitted = np.clip(density.bin_masses(partition), 0.0, None)
    fitted = fitted / fitted.sum()
    achieved = fk_distance(fitted, w, fk_family_k)
    return PiecewiseFitResult(density, float(achieved), fk_family_k, best_effort)


def evaluate_density(fit: PiecewisePolynomial, target) -> float:
    """Total-variation distance between a fitted density and an analytic
    target, by Scheffé's identity: half the sum of |ΔF_fit − ΔF_target|
    over the intervals on which fit − target keeps one sign.

    Sign changes are found on Chebyshev nodes between consecutive
    breakpoints of either density and refined by bisection.  The end nodes
    sit one ulp inside, because either density may jump at a breakpoint.
    """
    grid = np.unique([*fit.breakpoints, *target.breakpoints()])
    a, b = grid[:-1, None], grid[1:, None]
    nodes = _cheb_nodes(a, b)
    nodes[:, 0] = np.nextafter(b[:, 0], a[:, 0])
    nodes[:, -1] = np.nextafter(a[:, 0], b[:, 0])

    def gap(x):
        return fit.pdf(x) - target.pdf(x)

    pos = gap(nodes.ravel()).reshape(nodes.shape) > 0
    row, col = np.nonzero(pos[:, 1:] != pos[:, :-1])
    crossings = _bisect(gap, nodes[row, col], nodes[row, col + 1])
    cuts = np.sort(np.concatenate([grid, crossings]))
    return 0.5 * float(np.abs(np.diff(fit.cdf(cuts)) - np.diff(target.cdf(cuts))).sum())
