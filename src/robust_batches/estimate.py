"""Piecewise-polynomial density estimation from a cleaned histogram.

The fitter picks piece breakpoints among the partition boundaries by
dynamic programming (per-segment least-squares cost against the bin
masses).  The segment costs stream through it: they are solved for a
block of right ends at a time, from prefix sums kept at the candidate
cuts only, and folded into every layer before the next block, so no cost
matrix is held (at t=3, d=1 on 600 cells the fit's heap peaks near
0.43 MiB).  It then solves each piece's coefficients under a
mass-preserving equality constraint with nonnegativity enforced at
Chebyshev check-points: a small convex QP, posed in a coordinate local to
the piece and solved exactly by an active-set method.  The density keeps
each piece in that local coordinate, so no piece is ever rewritten in
monomials of x.  Minimizing the squared bin residuals is a surrogate for
the interval-union distance the selection theory wants; the achieved
distance is computed exactly afterwards and reported alongside the fit.
A piecewise polynomial is evaluated from two tables built once, its
padded coefficients and their antiderivatives, with no loop over the
pieces, and the total-variation distance to a target is computed from
CDFs at the sign changes (Scheffé's identity).  Evaluation (Horner), the
antiderivatives, the composition that reads a ``pwpoly:`` target's
monomials and the 5-point Gauss-Legendre rule are this module's own, bit
for bit numpy.polynomial's polyval, polyint, composition and leggauss(5),
so no command loads numpy.polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import DomainError, UsageError, sorted_unique, uniforms
from .distance import fk_distance
from .partition import IntervalPartition

CHEB_POINTS = 64
MAX_DEGREE = 8
MAX_CUT_CANDIDATES = 256
_COST_BLOCK = 1 << 13  # float64 values of segment systems per block of the breakpoint DP

_NONNEG_TOL = 1e-9
_MASS_TOL = 1e-6
# A cap on the piece solver's steps (each holds or frees one check-point).
# Where a piece has fewer cells than coefficients the minimizers form a
# face, and the solver can slide along it for many steps.
_ACTIVE_SET_STEPS = 4 * CHEB_POINTS
# multipliers above -this * |gradient at zero| count as nonnegative
_MULTIPLIER_TOL = 1e-12
# halvings that take a unit bracket far below one ulp
_BISECT_STEPS = 100
# how PiecewisePolynomial.sample inverts a piece's CDF, by degree
_FLAT, _LINEAR, _CURVED = 0, 1, 2
# numpy.polynomial.legendre.leggauss(MAX_DEGREE // 2 + 1), bit for bit: exact
# up to degree 9 >= MAX_DEGREE
_GL_NODES = np.array(
    [-0.906179845938664, -0.5384693101056831, 0.0, 0.5384693101056831, 0.906179845938664]
)
_GL_WEIGHTS = np.array(
    [0.23692688505618928, 0.4786286704993663, 0.5688888888888887, 0.4786286704993663,
     0.23692688505618928]
)


def _cheb_nodes(a: float, b: float) -> np.ndarray:
    # second-kind (Lobatto) nodes: the piece endpoints are check-points too
    i = np.arange(CHEB_POINTS)
    return 0.5 * a + 0.5 * b + 0.5 * (b - a) * np.cos(i * np.pi / (CHEB_POINTS - 1))


def check_steps(bp) -> None:
    """Refuse unless every step b - a is positive and finite, in Python floats (no warning)."""
    if not all(0.0 < b - a < math.inf for a, b in zip(bp, bp[1:])):
        raise UsageError("breakpoint steps must be positive and finite")


def _tables(bp, coefs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per piece, its ascending coefficients zero-padded to one width; the
    ascending coefficients (zero-padded), in the piece's s, of the mass
    between its left end and s; and the cumulative mass at every
    breakpoint.  At s = 1 an antiderivative row sums to its piece's mass."""
    table = np.zeros((len(coefs), max(len(c) for c in coefs)))
    anti = np.zeros((len(coefs), table.shape[1] + 1))
    for j, c in enumerate(coefs):
        table[j, : len(c)] = c
        row = _antiderivative(table[j, : len(c)], 0.5 * (bp[j + 1] - bp[j]))
        anti[j, : row.size] = row
    return table, anti, np.concatenate(([0.0], np.cumsum(anti.sum(axis=1))))


def _horner(rows, s) -> np.ndarray:
    """Each ``s`` evaluated on its own row of ascending coefficients, in
    the operation order of numpy.polynomial's polyval; the zero padding of
    a shorter row adds nothing, bit for bit, at finite s."""
    value = rows[..., -1] + s * 0
    for k in range(rows.shape[-1] - 2, -1, -1):
        value = rows[..., k] + value * s
    return value


def _antiderivative(c: np.ndarray, scl: float) -> np.ndarray:
    """The ascending coefficients of the integral from -1 of ``scl`` times
    the polynomial ``c``, in the operation order of numpy.polynomial's
    polyint(c, lbnd=-1, scl=scl); like it, a constant that scales to zero
    comes back as one coefficient."""
    c = c * scl
    if c.size == 1 and c[0] == 0:
        return c + 0.0
    tmp = np.empty(c.size + 1)
    tmp[0] = c[0] * 0
    tmp[1:] = c / np.arange(1, c.size + 1)
    tmp[0] += 0.0 - _horner(tmp, -1.0)
    return tmp


def _bisect(f, lo, hi) -> np.ndarray:
    """Vectorized bisection: narrows each bracket [lo[i], hi[i]], across
    which ``f > 0`` flips, to the point where it flips."""
    lo_pos = f(lo) > 0
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * lo + 0.5 * hi  # lo + hi overflows on brackets near the float maximum
        if not np.any((mid != lo) & (mid != hi)):
            break
        same = (f(mid) > 0) == lo_pos
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return 0.5 * lo + 0.5 * hi


@dataclass(frozen=True)
class PiecewisePolynomial:
    """A density made of polynomial pieces on consecutive intervals.

    ``coefficients[j]`` are the ascending coefficients of the density per
    unit x on piece j = ``[breakpoints[j], breakpoints[j+1]]`` = [a, b],
    as a polynomial in the piece's own coordinate s = 2(x - a)/(b - a) - 1;
    a constant piece reads the same in s as in x.  ``from_monomials``
    builds one from monomials in x.  Construction builds two tables: the
    coefficients zero-padded to one width, which ``pdf`` and ``sample``
    read, and the antiderivatives, which ``cdf``, ``integral``,
    ``bin_masses`` and ``sample`` read.  It checks nonnegativity at
    Chebyshev check-points of every piece on the first, and that the total
    mass is 1 within 1e-6 on the second.  It is its own simulation target:
    uniform and histogram targets are its constant-piece case.
    """

    breakpoints: tuple[float, ...]
    coefficients: tuple[tuple[float, ...], ...]
    coefficient_table: np.ndarray = field(init=False, repr=False, compare=False)
    antiderivatives: np.ndarray = field(init=False, repr=False, compare=False)
    cum_mass: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        bp = tuple(float(x) for x in self.breakpoints)
        coefs = tuple(tuple(float(c) for c in piece) for piece in self.coefficients)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "coefficients", coefs)
        if len(bp) != len(coefs) + 1 or len(coefs) < 1 or not all(coefs):
            raise UsageError("need t+1 breakpoints for t nonempty coefficient lists")
        check_steps(bp)
        if not all(math.isfinite(c) for piece in coefs for c in piece):
            raise UsageError("coefficients must be finite")
        table, anti, cum = _tables(bp, coefs)
        # below zero by more than rounding at the piece's own height
        values = _horner(table[:, None, :], _cheb_nodes(-1.0, 1.0))
        dips = np.flatnonzero(values.min(1) < -_NONNEG_TOL * np.maximum(1.0, values.max(1)))
        if dips.size:
            raise UsageError(f"piece {dips[0]} dips below zero at a check-point")
        object.__setattr__(self, "coefficient_table", table)
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

    def piece_of(self, x) -> np.ndarray:
        """The piece that holds each ``x``; points outside the support get
        the nearer end piece."""
        return np.clip(np.searchsorted(self.breakpoints, x, side="right") - 1, 0, self.t - 1)

    def _locate(self, x) -> tuple[np.ndarray, np.ndarray]:
        """The piece j of each ``x`` and the coordinate s of ``x`` in it."""
        j = self.piece_of(x)
        bp = np.asarray(self.breakpoints)
        # divided before doubled: 2 (x - a) overflows on a piece wider than half the float range
        return j, (x - bp[j]) / (bp[j + 1] - bp[j]) * 2.0 - 1.0

    def pdf(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        lo, hi = self.support
        j, s = self._locate(np.clip(x, lo, hi))
        return np.where((x >= lo) & (x <= hi), _horner(self.coefficient_table[j], s), 0.0)

    def cdf(self, x) -> np.ndarray:
        """Mass of the density below ``x``."""
        j, s = self._locate(np.clip(np.atleast_1d(np.asarray(x, dtype=float)), *self.support))
        return self.cum_mass[j] + _horner(self.antiderivatives[j], s)

    def integral(self) -> float:
        return float(self.cum_mass[-1])

    def bin_masses(self, partition: IntervalPartition) -> np.ndarray:
        """Mass assigned to each cell of an interval partition."""
        inner = self.cdf(partition.boundaries)
        return np.diff(inner, prepend=0.0, append=self.integral())

    def sample(self, rngs, size: int) -> np.ndarray:
        """``size`` points per generator, one row each, by inverse CDF:
        each uniform picks a piece j, then solves for the x at which the
        mass of piece j below x is the residual, in closed form up to
        degree 1 and by bisection on its antiderivative row above."""
        u = uniforms(rngs, size).ravel()
        j = np.searchsorted(self.cum_mass[1:-1], u, side="right")
        residual = u - self.cum_mass[j]
        bp = np.asarray(self.breakpoints)
        a, b = bp[j], bp[j + 1]
        coef = np.pad(self.coefficient_table, ((0, 0), (0, 1)))  # a constant piece has slope 0
        piece_kinds = np.where(
            np.any(coef[:, 2:] != 0, axis=1),
            _CURVED,
            np.where(np.abs(coef[:, 1]) < 1e-14, _FLAT, _LINEAR),
        )
        kinds = sorted(set(piece_kinds.tolist()))
        out = np.empty(u.size)
        for k in kinds:
            sel = piece_kinds[j] == k if len(kinds) > 1 else slice(None)
            r, lo, hi = residual[sel], a[sel], b[sel]
            if k == _CURVED:
                rows = self.antiderivatives[j[sel]]  # each sample's row, gathered once
                out[sel] = _bisect(
                    lambda y: _horner(rows, (y - lo) / (hi - lo) * 2.0 - 1.0) - r, lo, hi
                )
                continue
            c0, c1 = coef[j[sel], :2].T
            if k == _FLAT:  # c0 (x - a) = r
                x = lo + np.where(c0 > 0, r / np.maximum(c0, 1e-300), 0.5 * (hi - lo))
            else:  # (b - a)/2 (left u + c1 u^2 / 2) = r in u = s + 1, solved without cancelling
                left, q = c0 - c1, 4.0 * r / (hi - lo)
                root = left + np.sqrt(np.clip(left * left + c1 * q, 0.0, None))
                x = lo + 0.5 * (hi - lo) * np.divide(q, root, out=np.zeros_like(q), where=q > 0)
            out[sel] = np.clip(x, lo, hi)
        return out.reshape(len(rngs), size)

    def to_dict(self) -> dict:
        return {
            "breakpoints": list(self.breakpoints),
            "coefficients": [list(p) for p in self.coefficients],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PiecewisePolynomial":
        return cls(tuple(d["breakpoints"]), tuple(tuple(p) for p in d["coefficients"]))

    @classmethod
    def from_monomials(cls, breakpoints, coefficients) -> "PiecewisePolynomial":
        """The density that is ``sum(c[k] * x**k)`` on piece j, for the
        ascending monomial coefficients ``c = coefficients[j]`` in x, composed
        with x = mid + half * s by Horner's rule as numpy.polynomial does."""
        bp = tuple(float(x) for x in breakpoints)
        if len(bp) != len(coefficients) + 1:
            raise UsageError("need t+1 breakpoints for t coefficient lists")
        check_steps(bp)
        pieces = []
        for a, b, c in zip(bp, bp[1:], coefficients):
            x = np.array([0.5 * a + 0.5 * b, 0.5 * (b - a)])
            value = np.array(c[-1:], dtype=float) + 0.0  # numpy.polynomial adds x * 0 = +0.0
            for ck in c[-2::-1]:
                value = np.convolve(value, x)
                value[0] = float(value[0]) + float(ck)  # Python floats: inf, no warning
                value = value[: max(np.flatnonzero(value), default=0) + 1]  # trailing zeros go
            pieces.append(tuple(value))
        return cls(bp, tuple(pieces))


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


def _candidate_prefix_sums(
    edges: np.ndarray, w: np.ndarray, cand: np.ndarray, dim: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prefix sums of the per-cell least-squares terms (phi phi^T, phi w
    and w^2) at the candidate cuts only: row q sums cells 0..cand[q]-1,
    phi being the cell integrals over ``edges`` of
    :func:`_local_cell_integrals`.  The cells are integrated and summed a
    block at a time, each block's first row taking the running total, so
    every sum adds in cell order as one cumsum over all cells would."""
    tables = (np.zeros((cand.size, dim, dim)), np.zeros((cand.size, dim)), np.zeros(cand.size))
    step = max(1, _COST_BLOCK // (dim * dim))
    carries = (None, None, None)
    for c0 in range(0, w.size, step):
        phi = _local_cell_integrals(edges, dim, slice(c0, c0 + step))
        wc = w[c0 : c0 + step]
        sums = (phi[:, :, None] * phi[:, None, :], phi * wc[:, None], wc * wc)
        at = np.flatnonzero((cand > c0) & (cand <= c0 + wc.size))
        for x, table, carry in zip(sums, tables, carries):
            if carry is not None:
                x[0] += carry
            np.cumsum(x, axis=0, out=x)
            table[at] = x[cand[at] - 1 - c0]
        carries = tuple(x[-1].copy() for x in sums)
    return tables


def _segment_costs(
    pg: np.ndarray, pb: np.ndarray, pww: np.ndarray, j0: int, j1: int
) -> np.ndarray:
    """Unconstrained least-squares cost of fitting one polynomial to each
    candidate range (i, j) with j0 <= j < j1, from the prefix sums at the
    candidates: a (j1, j1 - j0) array, inf where i >= j."""
    ii, col = np.nonzero(np.arange(j1)[:, None] < np.arange(j0, j1))
    jj = col + j0
    G = pg[jj] - pg[ii]
    b = pb[jj] - pb[ii]
    c = pww[jj] - pww[ii]
    lam = 1e-10 * np.maximum(G.reshape(G.shape[0], -1).max(axis=1), 1e-30)
    G += lam[:, None, None] * np.eye(pb.shape[1])
    sol = np.linalg.solve(G, b[..., None])[..., 0]
    cost = np.full((j1, j1 - j0), np.inf)
    cost[ii, col] = np.maximum(c - np.einsum("ij,ij->i", b, sol), 0.0)
    return cost


def _breakpoint_dp(pg: np.ndarray, pb: np.ndarray, pww: np.ndarray, t: int) -> list[int]:
    """The candidate cuts, first to last, of the at most t pieces with the
    least total segment cost.  ``best[r, j]`` is the least cost of r pieces
    ending at candidate j and ``parent[r, j]`` the start of the last one.
    The costs are computed for a block of right ends j at a time and
    folded into every layer before the next block: within a block,
    ``best[r - 1, :j1]`` is already final.  argmin keeps the first
    minimum, so a column with no finite option gets parent 0."""
    nc, dim = pb.shape
    best = np.full((t + 1, nc), np.inf)
    parent = np.zeros((t + 1, nc), dtype=int)
    best[0, 0] = 0.0
    # a right end has fewer than nc starts, so a block holds at most
    # _COST_BLOCK // (dim * dim) systems
    step = max(1, _COST_BLOCK // (dim * dim * nc))
    for j0 in range(1, nc, step):  # no piece ends at candidate 0: its column stays (inf, 0)
        j1 = min(j0 + step, nc)
        cost = _segment_costs(pg, pb, pww, j0, j1)
        # r pieces cannot end before candidate r: those columns stay (inf, 0)
        for r in range(1, min(t, j1 - 1) + 1):
            options = best[r - 1, :j1, None] + cost
            parent[r, j0:j1] = np.argmin(options, axis=0)
            best[r, j0:j1] = options.min(axis=0)
    cuts = [nc - 1]
    for r in range(1 + int(np.argmin(best[1:, nc - 1])), 0, -1):
        cuts.append(int(parent[r, cuts[-1]]))
    return cuts[::-1]


def _local_cell_integrals(edges: np.ndarray, dim: int, cells: slice = slice(None)) -> np.ndarray:
    """Integrals of s**0 .. s**(dim-1) over each cell of a piece, or over
    the slice ``cells`` of them, where s = 2(x - x_a)/(x_b - x_a) - 1 maps
    the piece onto [-1, 1].  Gauss-Legendre on each cell is exact at these
    degrees and, unlike differences of powers, does not cancel on narrow
    cells.  Each cell's row is the same whatever slice it is taken in."""
    s = (edges - edges[0]) / (edges[-1] - edges[0]) * 2.0 - 1.0
    lo, hi = s[:-1][cells], s[1:][cells]
    half = 0.5 * (hi - lo)[:, None]
    q = 0.5 * (hi + lo)[:, None] + half * _GL_NODES
    return np.einsum("cq,cqk->ck", half * _GL_WEIGHTS, q[..., None] ** np.arange(dim))


def _solve_piece(phi: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, bool]:
    """Coefficients of one piece's density in its local coordinate s on
    [-1, 1] (a density per unit s) minimizing the squared cell residuals
    ``|phi @ a - w|**2`` subject to the piece's mass ``sum(w)`` and
    nonnegativity at the check-points; ``phi`` is from
    ``_local_cell_integrals``.  Returns (coefficients,
    fell_back_to_constant).

    A primal active-set method (Nocedal & Wright, Numerical Optimization,
    section 16.5) solves this small convex QP exactly: from the feasible
    constant piece it steps to the least-squares minimizer on the current
    working set of check-points held at zero, stops at the first
    check-point that step would push below zero, and frees the
    check-point with the most negative multiplier once none blocks.  The
    first step is the equality-constrained solution, so a fit that stays
    nonnegative costs one solve.
    """
    dim = phi.shape[1]
    w_seg = float(w.sum())
    const = np.zeros(dim)
    const[0] = 0.5 * w_seg
    if w_seg <= 0.0:
        return np.zeros(dim), False
    if dim == 1:
        return const, False
    k = np.arange(dim)
    mass = np.where(k % 2 == 0, 2.0 / (k + 1), 0.0)  # integrals of s**k over [-1, 1]
    vand = np.vander(_cheb_nodes(-1.0, 1.0), dim, increasing=True)
    lam_tol = _MULTIPLIER_TOL * float(np.abs(phi.T @ w).max())
    a = const
    active: list[int] = []
    for _ in range(_ACTIVE_SET_STEPS):
        rows = np.vstack([mass, vand[active]])
        free = np.linalg.qr(rows.T, mode="complete")[0][:, rows.shape[0] :]
        step = free @ np.linalg.lstsq(phi @ free, w - phi @ a, rcond=None)[0]
        v_step = vand @ step
        blocking = v_step < 0.0
        blocking[active] = False
        ratio = np.full(vand.shape[0], np.inf)
        ratio[blocking] = np.maximum(-(vand[blocking] @ a) / v_step[blocking], 0.0)
        i = int(np.argmin(ratio))
        if ratio[i] < 1.0:
            a = a + ratio[i] * step
            active.append(i)
            continue
        a = a + step  # the minimizer with the working set held at zero
        lam = np.linalg.lstsq(rows.T, phi.T @ (phi @ a - w), rcond=None)[0][1:]
        if lam.size == 0 or lam.min() >= -lam_tol:
            break
        del active[int(np.argmin(lam))]
    # Every step keeps the iterate feasible and lowers the residual, so the
    # iterate after the last step serves too; the checks below catch what
    # rounding may have cost.

    def residual(c: np.ndarray) -> float:
        return float(np.sum((phi @ c - w) ** 2))

    mass_ok = abs(float(mass @ a) - w_seg) <= 1e-9 * max(1.0, w_seg)
    nonneg_ok = float((vand @ a).min()) >= -1e-10 * w_seg
    if mass_ok and nonneg_ok and residual(a) <= residual(const) + 1e-15:
        return a, False
    return const, True


def fk_family_k(t: int, d: int) -> int:
    """The k of a t-piece degree-d fit: ``estimate`` cleans at it, the fit's
    ``fk_to_input`` is measured in F_k at it, and the fit needs that many cells."""
    return max(1, 2 * t * d)


def check_fit_shape(t: int, d: int, cells: int) -> None:
    """Refuse a t-piece degree-d fit that ``cells`` partition cells cannot
    carry: t >= 1, 0 <= d <= MAX_DEGREE and ``fk_family_k(t, d)`` <= cells.
    A batch file of n*m samples bounds every partition of it to n*m cells,
    so callers can check before any partition is built."""
    if t < 1:
        raise DomainError("t must be at least 1")
    if not 0 <= d <= MAX_DEGREE:
        raise DomainError(f"d must lie in 0..{MAX_DEGREE}")
    if cells < (k := fk_family_k(t, d)):
        raise UsageError(f"{cells} partition cells, need at least 2*t*d={k}")


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
    fine).  ``support`` (lo, hi) bounds the density: the cells fitted are
    cut at the boundaries strictly inside it.  Cells are (a, b], so a cell
    ending below lo or starting at or above hi lies wholly outside the
    support and must carry no mass; the cell ending exactly at lo may, and
    its mass joins the first fitted cell.  Each piece is
    solved and stored in its own coordinate s on [-1, 1].  A piece the
    solver cannot fit within its checks falls back to the always-feasible
    constant density and flags the result instead of failing.
    """
    check_fit_shape(t, d, partition.ell)
    lo, hi = float(support[0]), float(support[1])
    if not 0.0 < hi - lo < math.inf:  # NaN, an infinite end and an overflowing width fail
        raise UsageError("support must be a nonempty interval of finite width")
    w = np.asarray(masses, dtype=float)
    if w.shape != (partition.ell,):
        raise UsageError("masses must match the partition size")
    if np.any(w < -1e-12):
        raise UsageError("masses must be nonnegative")
    if abs(float(w.sum()) - 1.0) > _MASS_TOL:
        raise UsageError("masses must sum to 1")
    w = np.clip(w, 0.0, None)
    w = w / w.sum()
    edges = np.array([-math.inf, *partition.boundaries, math.inf])
    # cells are (a, b]: those ending below lo or starting at or above hi lie
    # wholly outside [lo, hi] and must be empty.  Boundaries p+1..q lie strictly
    # inside (lo, hi); cells 0..p-1 clip to zero width and join cell p, and
    # only the one of them ending at lo may hold mass
    if w[(edges[1:] < lo) | (edges[:-1] >= hi)].any():
        raise UsageError("support must cover every partition cell that carries mass")
    p, q = np.searchsorted(edges[1:-1], lo, "right"), np.searchsorted(edges[1:-1], hi, "left")
    edges_x = np.concatenate(([lo], edges[p + 1 : q + 1], [hi]))
    w_m = np.add.reduceat(w[: q + 1], np.r_[0, p + 1 : q + 1])
    ncells = w_m.size
    dim = d + 1

    cand = sorted_unique(np.round(np.linspace(0, ncells, MAX_CUT_CANDIDATES)).astype(int))
    pg, pb, pww = _candidate_prefix_sums(edges_x, w_m, cand, dim)
    # a piece spans at least one candidate gap, so no fit has more than nc - 1
    nc = cand.size
    cuts = [cand[i] for i in _breakpoint_dp(pg, pb, pww, min(t, nc - 1))]

    pieces: list[tuple[float, ...]] = []
    best_effort = False
    for j, (a_cell, b_cell) in enumerate(zip(cuts, cuts[1:])):
        phi = _local_cell_integrals(edges_x[a_cell : b_cell + 1], dim)
        coef_s, fell_back = _solve_piece(phi, w_m[a_cell:b_cell])
        # a density per unit s becomes one per unit x, in Python floats: inf, no warning
        width = float(edges_x[b_cell] - edges_x[a_cell])
        pieces.append(tuple(c * 2.0 / width for c in coef_s.tolist()))
        if not all(map(math.isfinite, pieces[-1])):
            raise UsageError(f"piece {j} is {width!r} wide: its density per unit x overflows")
        best_effort = best_effort or fell_back
    density = PiecewisePolynomial(tuple(edges_x[cuts]), tuple(pieces))

    k = fk_family_k(t, d)
    fitted = np.clip(density.bin_masses(partition), 0.0, None)
    fitted = fitted / fitted.sum()
    achieved = fk_distance(fitted, w, k)
    return PiecewiseFitResult(density, float(achieved), k, best_effort)


def evaluate_density(fit: PiecewisePolynomial, target) -> float:
    """Total-variation distance between a fitted density and an analytic
    target, by Scheffé's identity: half the sum of |ΔF_fit − ΔF_target|
    over the intervals on which fit − target keeps one sign.

    Sign changes are found on Chebyshev nodes between consecutive
    breakpoints of either density and refined by bisection.  The end nodes
    sit one ulp inside, because either density may jump at a breakpoint.
    """
    grid = sorted_unique([*fit.breakpoints, *target.breakpoints])
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
