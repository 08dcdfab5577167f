"""Ground-truth simulation: structured targets, batch generators, attacks.

Collections are reproducible: batch i draws from a generator seeded with
(seed, i), so generation order cannot change the output.
Adversarial batches are generated after the good ones and may read the
realized good samples, matching an adaptive adversary.  A target's
``sample(rngs, size)`` and an attack's ``generate(rngs, ctx)`` each draw
one batch per generator in one call: rows, or an (x, y) pair of rows when
labeled.

A density target, a ``PiecewisePolynomial`` (``uniform:``, ``hist:`` and
``pwpoly:``) or a ``GaussianMixtureTarget`` (``gm:``), offers ``pdf``,
``cdf``, ``bin_masses(partition)``, ``sample`` and a ``breakpoints``
tuple.  A ``ClassificationTarget`` (``labeled:``) is the joint law of a
labeled batch file instead.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ADVERSARIAL, BETA_MAX, GOOD, BatchCollection, CorruptionParams, DomainError, LabeledCollection,
    UsageError, median, uniforms,
)
from .estimate import PiecewisePolynomial, check_steps
from .partition import IntervalPartition, build_partition

_FLOOR_SLACK = 1e-9
_SQRT_HALF = math.sqrt(0.5)
_FK_MARGIN = 1.05  # how many tau an fk_targeted batch puts above the good median mass
_erfc = np.vectorize(math.erfc, otypes=[float])
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242
# Cephes ndtri's rational approximations P/Q, highest power first; np.polyval
# is its polevl Horner loop, and each Q's leading 1 makes it p1evl
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)


def batch_rng(seed: int, batch_id: int) -> np.random.Generator:
    """Generator for one batch, derived from (seed, batch id)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(batch_id,))))


def _log(v: np.ndarray) -> np.ndarray:
    """libm's log of each entry of a 1-d array."""
    return np.fromiter(map(math.log, v.tolist()), float, v.size)


def _ndtri(u: np.ndarray) -> np.ndarray:
    """The standard normal quantile on (0, 1): Cephes ndtri (Moshier,
    *Methods and Programs for Mathematical Functions*, 1989) in the C
    operation order, with libm's log (np.log is a few ulps off), so it
    equals scipy.special.ndtri bit for bit."""
    upper = u > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - u, u)
    out = np.empty_like(y)
    mid = y > _EXP_M2
    t = y[mid] - 0.5
    t2 = t * t
    out[mid] = (t + t * (t2 * np.polyval(_NDTRI_P0, t2) / np.polyval(_NDTRI_Q0, t2))) * _S2PI
    x = np.sqrt(-2.0 * _log(y[~mid]))
    z = 1.0 / x
    near = z * np.polyval(_NDTRI_P1, z) / np.polyval(_NDTRI_Q1, z)
    far = z * np.polyval(_NDTRI_P2, z) / np.polyval(_NDTRI_Q2, z)
    out[~mid] = np.where(upper[~mid], 1.0, -1.0) * (x - _log(x) / x - np.where(x < 8.0, near, far))
    return out


def _histogram_density(edges, masses) -> PiecewisePolynomial:
    """The density of a cell histogram: one constant piece of height
    mass/width per cell, after the checks on the spelled-out cells."""
    edges = tuple(float(e) for e in edges)
    masses = tuple(float(w) for w in masses)
    if len(edges) != len(masses) + 1 or len(masses) < 1:
        raise DomainError("need one more edge than mass")
    check_steps(edges)
    if any(w < 0 for w in masses) or not abs(sum(masses) - 1.0) <= 1e-9:
        raise DomainError("masses must be a probability vector")
    heights = tuple((w / (b - a),) for w, a, b in zip(masses, edges, edges[1:]))
    return PiecewisePolynomial(edges, heights)


@dataclass(frozen=True)
class GaussianMixtureTarget:
    weights: tuple[float, ...]
    means: tuple[float, ...]
    sds: tuple[float, ...]

    def __post_init__(self) -> None:
        w = tuple(float(v) for v in self.weights)
        if abs(sum(w) - 1.0) > 1e-9 or any(v < 0 for v in w):
            raise DomainError("mixture weights must be a probability vector")
        if len(w) != len(self.means) or len(w) != len(self.sds):
            raise DomainError("weights, means, sds must have one length")
        if not all(0 < s < math.inf for s in self.sds):  # NaN fails too
            raise DomainError("component sds must be positive and finite")
        # a finite mean ± 12 sds also keeps breakpoints and samples finite
        if not all(math.isfinite(m - 12.0 * s) and math.isfinite(m + 12.0 * s)
                   for m, s in zip(self.means, self.sds)):
            raise DomainError("component means and mean ± 12 sds must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", tuple(float(v) for v in self.means))
        object.__setattr__(self, "sds", tuple(float(v) for v in self.sds))

    def pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x, dtype=float)
        for w, mu, sd in zip(self.weights, self.means, self.sds):
            with np.errstate(over="ignore"):  # a tiny sd or huge mean: inf z gives exp(-inf) = 0
                z = (x - mu) / sd
                out += w * np.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))
        return out

    def cdf(self, x) -> np.ndarray:
        # Phi(z) = erfc(-z/sqrt(2))/2, one math.erfc per point: callers pass
        # at most ell + 1 points
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x, dtype=float)
        for w, mu, sd in zip(self.weights, self.means, self.sds):
            with np.errstate(over="ignore"):  # an inf z is exact: erfc gives 0 or 2
                z = (x - mu) / sd
            out += w * 0.5 * _erfc(-z * _SQRT_HALF)
        return out

    def sample(self, rngs, size: int) -> np.ndarray:
        """``size`` points per generator, one row each: each generator
        draws its component uniforms, then its quantile uniforms."""
        u_comp, u_val = np.moveaxis(uniforms(rngs, 2, size), 1, 0)
        cum = np.concatenate(([0.0], np.cumsum(self.weights)))
        cum[-1] = 1.0
        idx = np.clip(np.searchsorted(cum, u_comp, side="right") - 1, 0, len(self.weights) - 1)
        mu = np.asarray(self.means)[idx]
        sd = np.asarray(self.sds)[idx]
        return mu + sd * _ndtri(np.clip(u_val, 1e-15, 1.0 - 1e-15))

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """The means and 12 sds beyond the outermost components.  A mean
        that ± 12 sds rounds back to also gets the next float on each side,
        so the TV quadrature has a cell on each side of it."""
        lo = [m - 12.0 * s for m, s in zip(self.means, self.sds)]
        hi = [m + 12.0 * s for m, s in zip(self.means, self.sds)]
        tight = [m for m, a, b in zip(self.means, lo, hi) if m in (a, b)]
        near = [math.nextafter(m, side) for m in tight for side in (-math.inf, math.inf)]
        return tuple(sorted({min(lo), max(hi), *self.means, *near}))

    def bin_masses(self, partition: IntervalPartition) -> np.ndarray:
        return np.diff(self.cdf(partition.boundaries), prepend=0.0, append=1.0)


@dataclass(frozen=True)
class ClassificationTarget:
    """Joint (X, Y) law: X from a cell histogram, Y Bernoulli(eta) per cell."""

    edges: tuple[float, ...]
    masses: tuple[float, ...]
    eta: tuple[float, ...]
    marginal: PiecewisePolynomial = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        density = _histogram_density(self.edges, self.masses)
        object.__setattr__(self, "edges", density.breakpoints)
        object.__setattr__(self, "masses", tuple(float(w) for w in self.masses))
        object.__setattr__(self, "marginal", density)
        eta = tuple(float(v) for v in self.eta)
        if len(eta) != len(self.masses) or any(not 0 <= v <= 1 for v in eta):
            raise DomainError("eta must give one probability per cell")
        object.__setattr__(self, "eta", eta)

    def sample(self, rngs, size: int) -> tuple[np.ndarray, np.ndarray]:
        """(x, y) with one row per generator; each draws its x, then its y."""
        x = self.marginal.sample(rngs, size)
        y = (uniforms(rngs, size) < self.eta_at(x)).astype(np.int64)
        return x, y

    def eta_at(self, x) -> np.ndarray:
        return np.asarray(self.eta)[self.marginal.piece_of(np.asarray(x, dtype=float))]

    def optimal_risk(self) -> float:
        return float(sum(m * min(e, 1.0 - e) for m, e in zip(self.masses, self.eta)))

    def risk_of(self, h) -> float:
        """Exact risk of a k-interval hypothesis ``h`` (a
        ``classify.KIntervalHypothesis``) under this law."""
        total = 0.0
        for j, (m, e) in enumerate(zip(self.masses, self.eta)):
            a, b = self.edges[j], self.edges[j + 1]
            inside = 0.0
            for iv in h.decision_region.intervals:
                inside += max(0.0, min(b, iv.hi) - max(a, iv.lo))
            frac = inside / (b - a)
            total += m * (frac * (1.0 - e) + (1.0 - frac) * e)
        return float(total)


@dataclass(frozen=True)
class SimContext:
    """What an adaptive adversary gets to see before writing its batches:
    the good batches' (unlabeled) samples as the rows of ``good_rows``."""

    target: object
    beta: float
    n: int
    good_rows: np.ndarray

    @property
    def good_x(self) -> np.ndarray:
        """All good samples, pooled in batch order; refused if there are none."""
        if not self.good_rows.size:
            raise UsageError("this attack needs the realized good batches, and there are none")
        return self.good_rows.ravel()


def _relocate(rngs, rows: np.ndarray, magnitude: float, fill) -> np.ndarray:
    """Overwrite a ``magnitude`` fraction of each row in place: per generator,
    in order, ``choice`` picks the positions, then ``fill(rng, count)`` their values."""
    n = rows.shape[1]
    moved = int(round(magnitude * n))
    if moved > 0:
        for rng, row in zip(rngs, rows):
            idx = rng.choice(n, size=moved, replace=False)
            row[idx] = fill(rng, moved)
    return rows


@dataclass(frozen=True)
class MeanShiftAttack:
    """Target draw with a `magnitude` fraction of the mass relocated into a region."""

    magnitude: float
    region: tuple[float, float]

    def generate(self, rngs, ctx: SimContext) -> np.ndarray:
        lo, hi = self.region
        fill = lambda rng, c: lo + (hi - lo) * rng.random(c)
        return _relocate(rngs, ctx.target.sample(rngs, ctx.n), self.magnitude, fill)


@dataclass(frozen=True)
class SpikeAttack:
    """Target draw with a `magnitude` fraction of samples set to one point."""

    magnitude: float
    point: float

    def generate(self, rngs, ctx: SimContext) -> np.ndarray:
        fill = lambda rng, c: self.point
        return _relocate(rngs, ctx.target.sample(rngs, ctx.n), self.magnitude, fill)


@dataclass(frozen=True)
class ReplaySkewAttack:
    """Resamples the realized good samples, biased toward a region."""

    magnitude: float
    region: tuple[float, float]

    def generate(self, rngs, ctx: SimContext) -> np.ndarray:
        pool = ctx.good_x
        lo, hi = self.region
        in_region = pool[(pool >= lo) & (pool <= hi)]
        source = in_region if in_region.size else pool
        out = np.empty((len(rngs), ctx.n))
        for rng, row in zip(rngs, out):
            biased = rng.random(ctx.n) < self.magnitude
            n_biased = int(biased.sum())
            row[biased] = source[rng.integers(0, source.size, n_biased)]
            row[~biased] = pool[rng.integers(0, pool.size, ctx.n - n_biased)]
        return out


@dataclass(frozen=True)
class LabelFlipAttack:
    """Concentrates a `magnitude` fraction of each batch in a region and
    labels everything in the region with the wrong (anti-Bayes) class."""

    magnitude: float
    region: tuple[float, float]
    labeled = True

    def generate(self, rngs, ctx: SimContext):
        x, y = ctx.target.sample(rngs, ctx.n)
        lo, hi = self.region
        _relocate(rngs, x, self.magnitude, lambda rng, c: lo + (hi - lo) * rng.random(c))
        in_region = (x >= lo) & (x <= hi)
        wrong = (ctx.target.eta_at(x) <= 0.5).astype(np.int64)
        y[in_region] = wrong[in_region]
        return x, y


@dataclass(frozen=True)
class FkTargetedAttack:
    """Pushes the pooled empirical toward an alternative that inflates one
    fixed cell, each batch deviating just above tau inside that cell."""

    def generate(self, rngs, ctx: SimContext) -> np.ndarray:
        lo, hi, med_good, tau = _fk_attack_plan(ctx)
        rows = ctx.target.sample(rngs, ctx.n)
        goal = min(1.0, med_good + _FK_MARGIN * tau)
        inside = (rows > lo) & (rows <= hi)
        needs = int(math.ceil(goal * ctx.n)) - inside.sum(axis=1)
        lo = lo if math.isfinite(lo) else float(ctx.good_x.min()) - 1.0
        hi = hi if math.isfinite(hi) else float(ctx.good_x.max()) + 1.0
        for rng, row, outside, need in zip(rngs, rows, ~inside, needs):
            if need > 0:
                idx = np.nonzero(outside)[0][:need]
                draws = lo + (hi - lo) * rng.random(idx.size)
                # cells are open on the left; nudge exact-boundary draws inward
                draws[draws <= lo] = np.nextafter(lo, hi)
                row[idx] = draws
        return rows


def _fk_attack_plan(ctx: SimContext) -> tuple[float, float, float, float]:
    """The cell (lo, hi] the alternative inflates, the good batches' median
    mass in it, and tau.  The cell is number floor(ell/3) + 1 of the good
    pool's min(64, s)-cell partition, read off its boundaries (an end is
    infinite where that cell is the first or the last); every other cell
    but the last holds a pooled point, so it is the alternative's F_k
    witness for every mass and k."""
    pool = np.sort(ctx.good_x)
    part = build_partition(pool, min(64, pool.size))
    bnd = (-math.inf, *part.boundaries, math.inf)
    lo, hi = bnd[part.ell // 3], bnd[part.ell // 3 + 1]
    med = median(((ctx.good_rows > lo) & (ctx.good_rows <= hi)).mean(axis=1))
    return lo, hi, med, CorruptionParams(ctx.beta, ctx.n, 1).tau


def build_collection(target, attack, m: int, n: int, beta: float, seed: int):
    """floor((1-beta)m) good batches from the target, the rest from the attack.

    Good batches come first (ids 0..), adversarial ones after; the attack
    sees the realized good samples.  Batch i draws from ``batch_rng(seed,
    i)``, so identical seeds give identical collections byte for byte.
    """
    if not 0.0 <= beta <= BETA_MAX:
        raise DomainError(f"beta must lie in [0, {BETA_MAX}], got {beta}")
    if m < 1 or n < 1:
        raise DomainError("m and n must be positive")
    try:  # the samples' table, refused before the first draw when no memory holds it
        np.empty((m, n))
    except (MemoryError, ValueError) as exc:
        raise UsageError(f"m={m} batches of n={n} samples are too many to hold") from exc
    n_good = int(math.floor((1.0 - beta) * m + _FLOOR_SLACK))
    n_adv = m - n_good
    if n_adv > 0 and attack is None:
        raise UsageError("beta > 0 requires an attack")
    labeled = isinstance(target, ClassificationTarget)
    if attack is not None and getattr(attack, "labeled", False) != labeled:
        raise UsageError("label_flip needs a labeled: target, every other attack an unlabeled one")
    rows = target.sample([batch_rng(seed, i) for i in range(n_good)], n)
    if n_adv > 0:
        ctx = SimContext(target, beta, n, rows[0] if labeled else rows)
        adv = attack.generate([batch_rng(seed, i) for i in range(n_good, m)], ctx)
        rows = tuple(map(np.vstack, zip(rows, adv))) if labeled else np.vstack([rows, adv])
    truth = [GOOD] * n_good + [ADVERSARIAL] * n_adv
    if labeled:
        return LabeledCollection(*rows, range(m), truth)
    return BatchCollection(rows, range(m), truth)


_GM_RE = re.compile(r"^([\d.eE+-]+)N\(([\d.eE+-]+),([\d.eE+-]+)\)$")


def parse_target(spec: str):
    """Build a target from its CLI spelling (listed in README).

    ``uniform:`` and ``hist:`` become constant-piece ``pwpoly:`` densities."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "uniform":
            lo, hi = rest.split(",")
            return _histogram_density((lo, hi), (1.0,))
        if kind == "gm":
            weights, means, sds = [], [], []
            for part in rest.split("+"):
                m = _GM_RE.match(part.strip())
                if not m:
                    raise ValueError(f"bad mixture component {part!r}")
                weights.append(float(m.group(1)))
                means.append(float(m.group(2)))
                sds.append(float(m.group(3)))
            return GaussianMixtureTarget(tuple(weights), tuple(means), tuple(sds))
        if kind == "hist":
            edges_s, masses_s = rest.split("|")
            return _histogram_density(edges_s.split(","), masses_s.split(","))
        if kind == "pwpoly":
            bks_s, pieces_s = rest.split("|")
            bks = tuple(float(v) for v in bks_s.split(","))
            coefs = tuple(
                tuple(float(c) for c in piece.split()) for piece in pieces_s.split(";")
            )
            return PiecewisePolynomial.from_monomials(bks, coefs)
        if kind == "labeled":
            edges_s, masses_s, eta_s = rest.split("|")
            return ClassificationTarget(
                tuple(float(v) for v in edges_s.split(",")),
                tuple(float(v) for v in masses_s.split(",")),
                tuple(float(v) for v in eta_s.split(",")),
            )
    except ValueError as exc:
        raise UsageError(f"cannot parse target {spec!r}: {exc}") from exc
    raise UsageError(f"unknown target kind {kind!r}")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _region(param: str) -> tuple[float, float]:
    lo, hi = (_finite(v) for v in param.split(","))
    if not lo < hi:
        raise ValueError(f"the region needs lo < hi, got {lo}, {hi}")
    if not math.isfinite(hi - lo):  # a draw lo + (hi - lo) u would be inf
        raise ValueError(f"the region {lo}, {hi} is wider than a float holds")
    return lo, hi


def parse_attack(spec: str):
    """Build an attack from its CLI spelling 'kind:magnitude@params', or
    bare 'fk_targeted'."""
    if spec in ("none", ""):
        return None
    if spec == "fk_targeted":
        return FkTargetedAttack()
    kind, _, rest = spec.partition(":")
    if kind == "fk_targeted":
        raise UsageError(f"cannot parse attack {spec!r}: it takes no parameters, spell it 'fk_targeted'")
    mag_s, _, param = rest.partition("@")
    try:
        mag = float(mag_s)
        if not 0.0 <= mag <= 1.0:
            raise ValueError("the magnitude must lie in [0, 1]")
        if kind == "mean_shift":
            return MeanShiftAttack(mag, _region(param))
        if kind == "spike":
            return SpikeAttack(mag, _finite(param))
        if kind == "replay_skew":
            return ReplaySkewAttack(mag, _region(param))
        if kind == "label_flip":
            return LabelFlipAttack(mag, _region(param))
    except ValueError as exc:
        raise UsageError(f"cannot parse attack {spec!r}: {exc}") from exc
    raise UsageError(f"unknown attack kind {kind!r}")
