"""Finding bin subsets with high corruption score.

The spectral detector, run by the detect-and-delete loop of
:func:`clean.clean_counts`, is polynomial in m and ell.  It takes the
leading eigenvector v of the per-batch probability matrix, centered on
its column medians and deflated by its row means, by power iteration run
to convergence, and scores two candidate families, each streamed in
tables of at most _CHUNK candidates, one row of per-batch subset counts
per candidate, read from the count table in place:

- all singletons, so single-bin attacks are always found, scored in the
  pass that yields the column medians v is centred on;
- threshold sets {i: v_i >= t} at every distinct value t: a running
  cumulative sum over the columns in order of v, read where the value changes.
  Each set of -v is the complement of one of these and scores what it
  scores, so each set stands for both, named by the one without the last bin.

The Gram matrix v comes from is built in a :class:`GramWorkspace`, which
the loop allocates once per cleaning run: q*q float64 values for q =
min(m, ell) of the run's first table, one block of _GRAM_BLOCK values of
rows and one product of _GRAM_TILE rows, reused by every round; blocks
and products are float32 when n allows enough exact rows per block.

A row's median and total score follow from its histogram over the table's
occupied value range, each value scored once by
:func:`corruption.corruption_scores`; every term is a multiple of 1/4, so
totals are exact.  The histogram is counted from int64 keys written into
the workspace's block storage, which both families use while the Gram
build does not: a slab of as many batches as the storage holds for the
chunk's rows at a time (1,024 batches of 64 rows in the 65,536 slots of
n <= 181), so no key table grows with m.  A table whose range is wider
than the batch count is scored batch by batch against its partition
median.  Tie rule: among the candidates with the largest score, if it is
positive, the one with the smallest :meth:`BinSubset.bitmask` wins; only
the final ties become subsets.
"""

from __future__ import annotations

import numpy as np

from .core import CorruptionParams, DiscretizedCollection, sorted_unique
from .corruption import corruption_scores
from .partition import EMPTY_SUBSET, BinSubset

_POWER_ITERATIONS = 200  # a cap only; the iteration stops once v moves by <= _POWER_TOL
_POWER_TOL = 1e-12
_CANDIDATE_CAP = 4096  # picks among the threshold sets of v and -v; keeps huge partitions tractable
_CHUNK = 64  # candidates scored at once; small key tables lower peak RSS
_GRAM_BLOCK = 1 << 17  # values per block of rows of E, in the block dtype
_GRAM_TILE = 96  # rows of the Gram matrix per tile product
_FLOAT32_EXACT = 1 << 24  # every integer up to this is a float32
_FLOAT32_MIN_ROWS = 128  # float32 blocks of fewer rows build the Gram matrix slower than float64


def _middle_order_stats(table: np.ndarray, keys: np.ndarray | None = None):
    """(lo, hi, base, hist) for an integer table, one column per batch:
    each row's two middle order statistics lo <= hi as int64, and hist[c, j],
    the number of batches where row c holds base + j.  When the occupied range
    is wider than the batch count, rows are partitioned and hist is None.

    hist counts int64 keys j + width*c, for row c holding base + j, written
    into ``keys``, flat int64 storage (a fresh array of the table's size if
    None), one slab of floor(keys.size / rows) batches at a time, in the
    table's memory order; each slab's bincount is added into hist, so any
    slab size gives the same counts.
    """
    nc, m = table.shape
    base = int(table.min())
    width = int(table.max()) - base + 1
    if width > m:
        part = np.partition(table, ((m - 1) // 2, m // 2), axis=1)
        lo, hi = (part[:, k].astype(np.int64) for k in ((m - 1) // 2, m // 2))
        return lo, hi, base, None
    if keys is None:
        keys = np.empty(table.size, dtype=np.int64)
    step = keys.size // nc
    # keys follow the table's memory order: F for a view of the count table's columns
    order = "F" if table.strides[0] < table.strides[1] else "C"
    shift = (width * np.arange(nc) - base)[:, None]
    hist = np.zeros(nc * width, dtype=np.int64)
    for i in range(0, m, step):
        slab = table[:, i : i + step]
        out = np.add(slab, shift, out=keys[: slab.size].reshape(slab.shape, order=order))
        hist += np.bincount(out.ravel(order="K"), minlength=nc * width)
    hist = hist.reshape(nc, width)
    cum = hist.cumsum(axis=1)
    return base + (cum <= (m - 1) // 2).sum(axis=1), base + (cum <= m // 2).sum(axis=1), base, hist


def _candidate_scores(
    table: np.ndarray, n: int, tau: float, keys: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Twice the median (lo + hi, int64) and the total corruption score of
    each candidate, given one row of per-batch subset counts per candidate;
    ``keys`` is the median pass's key storage (see :func:`_middle_order_stats`).

    Scored in count units, where deviations from the median are exact
    half-integers and their squares sum exactly, and divided by n^2 last, so
    every tie is exact: a subset ties with its complement and with itself in
    any table.
    """
    lo, hi, base, hist = _middle_order_stats(table, keys)
    twice = lo + hi
    med = (twice / 2)[:, None]
    if hist is None:
        return twice, corruption_scores(table, tau * n, med).sum(axis=1) / (n * n)
    grid = base + np.arange(hist.shape[1])
    return twice, (hist * corruption_scores(grid, tau * n, med)).sum(axis=1) / (n * n)


class GramWorkspace:
    """The buffers spectral detection writes into, for every table of one
    cleaning run of batch size n: a flat Gram matrix of q*q float64 values,
    where q = min(m, ell) of the run's first (m, ell) table, one block of
    rows of E under the _GRAM_BLOCK budget and one tile product of
    _GRAM_TILE rows.  Later tables of a run only lose batches, so neither q
    nor max(m, ell) grows, and each call takes contiguous views of the first
    elements.

    Blocks and tiles are float32 where their products are exact: E holds
    integers with |E| <= 2n, so in a block of at most ``cap`` =
    floor(2**24 / (2n)**2) rows every partial sum of a product is an integer
    within 2**24, in any summation order.  Where that cap is below
    _FLOAT32_MIN_ROWS (n > 181), they are float64.  The block storage is
    float64 and holds at least one row of q float64 values, for the m x m
    side's back-map.  Outside the Gram build it holds the median pass's
    int64 keys (:meth:`keys`), at least one batch for each of a chunk's
    rows, so at m = 2*10^4, ell = 200 one detection call peaks at 3.7 MiB
    of heap, not at the 12.4 MiB that a 64 x m key table per chunk took.
    """

    def __init__(self, m: int, ell: int, n: int) -> None:
        q, p = min(m, ell), max(m, ell)
        self.cap = _FLOAT32_EXACT // max(2 * n, 1) ** 2
        self.dtype = np.dtype(np.float32 if self.cap >= _FLOAT32_MIN_ROWS else np.float64)
        values = min(max(_GRAM_BLOCK, q), p * q)
        self._gram = np.empty(q * q)
        self._block = np.empty(max(-(-values * self.dtype.itemsize // 8), q, min(ell, _CHUNK)))
        self._tile = np.empty(min(_GRAM_TILE, q) * q, self.dtype)

    def gram(self, q: int) -> np.ndarray:
        return self._gram[: q * q].reshape(q, q)

    def block_rows(self, q: int, dtype: np.dtype) -> int:
        """Rows of q values of ``dtype`` per block: float32 ones under the
        _GRAM_BLOCK budget and within the cap, float64 ones as many as the
        storage holds; at least one."""
        if dtype == np.float32:
            return max(1, min(_GRAM_BLOCK // q, self.cap))
        return self._block.size // q

    def block(self, rows: int, q: int, dtype: np.dtype) -> np.ndarray:
        return self._block.view(dtype)[: rows * q].reshape(rows, q)

    def keys(self) -> np.ndarray:
        """The block storage as flat int64 slots, for the median pass's key slabs."""
        return self._block.view(np.int64)

    def tile(self, rows: int, cols: int) -> np.ndarray:
        return self._tile[: rows * cols].reshape(rows, cols)


def _exact_gram(blocks, q: int, workspace: GramWorkspace) -> np.ndarray:
    """E.T @ E for an integer matrix E with q columns, given as blocks of
    its rows in the workspace dtype, written into ``workspace``.

    Each block adds its product to the q x q float64 result one tile of
    _GRAM_TILE rows at a time, on and above the diagonal only; the lower
    tiles are mirrored at the end.  Every tile is multiplied into the
    workspace's tile buffer and added in place, so no array of the result's
    size is allocated, and every partial sum is an integer: float32 tiles
    are exact by the workspace's row cap, and while the sum of the absolute
    products in every entry stays below 2**53, the result is exact in any
    block shape, tile width and summation order.
    """
    gram = workspace.gram(q)
    gram.fill(0.0)
    step = _GRAM_TILE
    for block in blocks:
        for t in range(0, q, step):
            tile = block[:, t : t + step]
            gram[t : t + step, t:] += np.matmul(
                tile.T, block[:, t:], out=workspace.tile(tile.shape[1], q - t)
            )
    for t in range(step, q, step):
        gram[t:, t - step : t] = gram[t - step : t, t:].T
    return gram


def _leading_eigvec(
    counts: np.ndarray, n: int, a: np.ndarray, workspace: GramWorkspace | None = None
) -> np.ndarray:
    """Leading eigenvector of centered.T @ centered, where ``centered`` is
    counts/n minus its column medians, then minus its row means.

    Each row of counts/n sums to 1, so without the row deflation the
    all-ones direction leads whenever the column medians sum to well below
    1, and v would carry the attack only in its last digits.  For the same
    reason every row has the same mean.

    ``a`` holds twice the column medians, in counts: integers a_j, so
    2n * centered = D - b, where D = 2*counts - a is an integer table with
    |D| <= 2n and b = r/ell, r being the common row sum of D.  Power
    iteration runs on the smaller Gram side: that of E = D, or of E = D.T
    when there are more bins than batches.  :func:`_exact_gram` builds
    E.T @ E in ``workspace`` (a fresh one sized for ``counts`` and n if
    None) from blocks of E in the workspace dtype, and rank-one terms from
    the column sums of E correct it to 4n^2 times the Gram matrix of
    ``centered`` (or of its transpose).  E.T @ E is exact while
    m*(2n)^2 < 2**53 (ell*(2n)^2 when E = D.T); past that its partial sums
    round, as any float product's do, and the input is not refused.

    The iteration starts from the Gram column with the largest diagonal
    entry and stops once the unit vector moves by at most _POWER_TOL; on
    the m x m side the result is mapped back a block of bins at a time, in
    float64 blocks in the same storage.  A zero Gram matrix gives v = 0.
    """
    m, ell = counts.shape
    if workspace is None:
        workspace = GramWorkspace(m, ell, n)
    r = 2 * n - int(a.sum())
    b = r / ell
    wide = ell > m
    offset = np.broadcast_to(a, counts.shape)
    table, offset = (counts.T, offset.T) if wide else (counts, offset)  # E = 2*table - offset
    p, q = table.shape

    def blocks_of_e(dtype: np.dtype):
        step = workspace.block_rows(q, dtype)
        for i in range(0, p, step):
            rows = table[i : i + step]
            block = np.multiply(rows, 2, out=workspace.block(rows.shape[0], q, dtype), dtype=dtype)
            yield i, np.subtract(block, offset[i : i + step], out=block, dtype=dtype)

    gram = _exact_gram((block for _, block in blocks_of_e(workspace.dtype)), q, workspace)
    # E.T @ E - b*(s 1' + 1 s') + p*b^2 1 1', s the column sums of E
    sums = 2 * table.sum(axis=0, dtype=np.int64) - (int(a.sum()) if wide else m * a)
    bs = b * sums
    gram -= bs[:, None]
    gram -= bs
    gram += p * b * b
    v = gram[:, np.argmax(np.diag(gram))]
    norm = np.linalg.norm(v)
    if norm == 0.0:
        return np.zeros(ell)
    v = v / norm
    for _ in range(_POWER_ITERATIONS):
        w = gram @ v
        w /= np.linalg.norm(w)
        moved = np.linalg.norm(w - v)
        v = w
        if moved <= _POWER_TOL:
            break
    if wide:
        # E @ v - b*sum(v), each row summed in order by cumsum, so that v
        # does not depend on the block size
        out = np.empty(ell)
        for i, block in blocks_of_e(np.dtype(np.float64)):
            block *= v
            out[i : i + block.shape[0]] = np.cumsum(block, axis=1, out=block)[:, -1]
        out -= b * v.sum()
        v = out / np.linalg.norm(out)
    return v


def _threshold_depths(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, depths): the threshold set {i: v_i >= t} at each picked
    distinct value t is ``order[:depth]``.  Of the r sets of v and then the
    r sets of -v, at most _CANDIDATE_CAP evenly spaced ones are picked (all,
    if there are fewer).  Set i of -v, at r+i, is the complement of set
    r-2-i of v and is scored as that one; the full set of -v scores 0."""
    order = np.argsort(-v, kind="stable")
    cuts = np.append(np.flatnonzero(np.diff(v[order])) + 1, v.size)
    r = cuts.size
    picks = np.linspace(0, 2 * r - 1, _CANDIDATE_CAP).round().astype(int)
    sets = np.where(picks < r, picks, 2 * r - 2 - picks)
    return order, cuts[sorted_unique(sets[sets >= 0])]


def _candidate_tables(counts: np.ndarray, n: int, tau: float, workspace: GramWorkspace | None):
    """Yield each candidate family's scores in chunks of at most _CHUNK
    candidates, as (totals, bins_of), bins_of(c) being the 1-based bins of
    candidate c, or of its complement for a threshold set that holds the
    last bin.  Singletons come first; their twice-medians centre v.
    Subset counts are summed in the dtype of ``counts``, which holds n.
    Both families write their median keys into the block storage of
    ``workspace`` (a fresh one if None), which the Gram build uses only
    between them."""
    m, ell = counts.shape
    if workspace is None:
        workspace = GramWorkspace(m, ell, n)
    keys = workspace.keys()
    bins = counts.T  # one row per bin: a view, the table is never copied
    a = np.empty(ell, dtype=np.int64)
    for j in range(0, ell, _CHUNK):
        a[j : j + _CHUNK], totals = _candidate_scores(bins[j : j + _CHUNK], n, tau, keys)
        yield totals, lambda c, j=j: (j + c + 1,)
    order, depth = _threshold_depths(_leading_eigvec(counts, n, a, workspace))
    last = int(np.flatnonzero(order == ell - 1)[0])  # order[:d] holds the last bin iff d > last
    running = np.zeros(m, dtype=counts.dtype)  # counts summed over order[:start]
    for start in range(0, ell, _CHUNK):
        block = np.cumsum(bins[order[start : start + _CHUNK]], axis=0, dtype=counts.dtype)
        block += running
        running = block[-1]
        cut = depth[(depth > start) & (depth <= start + _CHUNK)]
        if cut.size:
            totals = _candidate_scores(block[cut - start - 1], n, tau, keys)[1]
            yield totals, lambda c, d=cut: (order[: d[c]] if d[c] <= last else order[d[c] :]) + 1


def max_corruption_subset_heuristic(
    sub: DiscretizedCollection, params: CorruptionParams, workspace: GramWorkspace | None = None
) -> tuple[BinSubset, float]:
    """Spectral stand-in for exhaustive detection, polynomial in m and ell.

    Candidates are all singletons and eigenvector threshold sets, each
    standing for its complement, at most _CANDIDATE_CAP picks of them over
    both signs (see the module docstring).  The Gram matrix and the median
    pass's keys are built in ``workspace``, which a cleaning run allocates
    once for all its rounds; without one, the call allocates its own.
    """
    best_score, tied = 0.0, []
    for totals, bins_of in _candidate_tables(sub.counts, sub.n, params.tau, workspace):
        top = float(totals.max(initial=0.0))
        if top > best_score:
            best_score, tied = top, []
        if top == best_score > 0.0:
            tied += [bins_of(c) for c in np.flatnonzero(totals == top)]
    subsets = (BinSubset.of(*bins) for bins in tied)
    return min(subsets, key=BinSubset.bitmask, default=EMPTY_SUBSET), best_score
