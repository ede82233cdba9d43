"""Lloyd k-means with k-means++ seeding over the embedding corpus.

Deterministic given (corpus, k, seed). Empty clusters are repaired by
re-seeding the emptied centroid at the instance currently farthest from its
assigned centroid, which keeps k fixed (the bandit needs k arms).
"""

from __future__ import annotations

import contextlib
import struct
from dataclasses import dataclass

import numpy as np

from . import forking
from .corpus import EmbeddingCorpus
from .errors import DataError

CLUSTER_MAGIC = b"KMC1"
# Rows per block of the assign step and of the seeding's exact distances.
# One assign step at 64000 x 64, k=256, 1 BLAS thread:
# 122 ms in blocks of 256 or 512 rows, 128 ms in 1024, 138 ms in 2048, 185 ms
# unblocked; at 10000 x 16, k=64, 512 rows were within 5% of the fastest.
ASSIGN_BLOCK_ROWS = 512
# kmeans gives a forked child part of the rows of its seeding and Lloyd
# passes when the pool has at least this many entries (count x dim). Two
# processes against one, run to convergence on a 64-blob pool, 1 BLAS
# thread, medians of 12: at k=64, +19% at 16000 x 32, -1% at 32000 x 32,
# +3% at 20000 x 64, -8% at 32000 x 64; at 20000 x 64, k=256, -27%. Below
# about 1M entries the seeds' round trips cost what the split work saves.
SPLIT_MIN_ENTRIES = 1 << 20


@dataclass
class ClusterModel:
    k: int
    centroids: np.ndarray  # (k, dim) float64
    assignment: np.ndarray  # (count,) uint32
    n_iters: int = 0
    converged: bool = False

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]

    @property
    def count(self) -> int:
        return self.assignment.shape[0]

    def members(self, cluster: int) -> np.ndarray:
        """Instance ids assigned to ``cluster``, ascending."""
        cache = getattr(self, "_members_cache", None)
        if cache is None:
            order, bounds = _member_slices(self.assignment, self.k)
            cache = [order[bounds[j] : bounds[j + 1]] for j in range(self.k)]
            object.__setattr__(self, "_members_cache", cache)
        return cache[cluster]


def _member_slices(assignment: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable argsort and bounds: cluster j is order[bounds[j]:bounds[j + 1]], ascending."""
    order = np.argsort(assignment, kind="stable")
    return order, np.searchsorted(assignment[order], np.arange(k + 1))


def _pairwise_sq_dists(
    x: np.ndarray, centroids: np.ndarray, x_sq: np.ndarray | None = None, out=None
) -> np.ndarray:
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2; clamp tiny negatives from cancellation.
    # Built in place in one (n, k) buffer (``out`` if given), in the same
    # operation order as the plain expression, so the result is bitwise the
    # same. ``x_sq`` is np.sum(x * x, axis=1), which kmeans computes once per call.
    if x_sq is None:
        x_sq = np.sum(x * x, axis=1)
    d2 = np.matmul(2.0 * x, centroids.T, out=out)
    np.subtract(x_sq[:, None], d2, out=d2)
    d2 += np.sum(centroids * centroids, axis=1)[None, :]
    return np.maximum(d2, 0.0, out=d2)


def _kmeans_pp_init(
    x: np.ndarray, x_sq: np.ndarray, k: int, rng: np.random.Generator, other=None
) -> np.ndarray:
    """k-means++ seeding (D^2 sampling); ``x_sq`` is np.sum(x * x, axis=1).

    closest[r] is the least direct form sum((x[r] - c)^2) over the seeds c so
    far. A new seed c = x[idx] is screened by one float32 gemv over x32, the
    float32 copy of x stored dimension-major as (dim, n), so that the gemv
    streams contiguous rows: g = x32[:, idx] @ x32, S = x_sq[r] - 2 g[r] + x_sq[idx].
    Row r skips the direct form iff S - kappa (x_sq[r] + x_sq[idx]) - tau >=
    (1 + kappa) closest[r], where u = 2^-24, eta = 2^-150 (half the least
    float32 subnormal), kappa = (2 dim + 8) u and tau = 8 dim eta.

    Bound: with X = ||x[r]||^2, C = ||c||^2, D = ||x[r] - c||^2 exactly, and
    IEEE arithmetic with gradual underflow, |S - D| <= (1.35 dim + 4.01) u
    (X + C) + 3 dim eta for dim <= 2^22 (beyond, kappa = inf: nothing skips).
    - Rounding: x32 = x + e, |e| <= u |x| + eta per entry (eta if subnormal),
      likewise c, so 2 |x32.c32 - x.c| <= (2u + u^2)(X + C) + 2 dim eta^2
      + 2 (1 + u) eta sum(|x| + |c|).
    - The gemv, in any order, with or without FMA: |g - x32.c32| <= gamma
      sum|x32 c32| + 1.34 dim eta (eta per product that underflows), with
      gamma = dim u / (1 - dim u) <= 4 dim u / 3 and sum|x32 c32| <=
      (1 + u)^2 (X + C) / 2 + (1 + u) eta sum(|x| + |c|) + dim eta^2.
    - x_sq is within dim 2^-52 X of X (likewise C); by AM-GM the terms in
      eta sum(|x| + |c|) are at most 2u (X + C) + 2 dim eta^2 / u.
    - Overflow, of a point past the float32 range or of a product or partial
      sum, leaves g[r] at +-inf or NaN, and such rows never skip.
    The float64 rounding of the test, within 2^-49 (X + C + closest[r]), fits
    in kappa's and tau's margins. So a skipped row has D >= (1 + kappa -
    2^-49) closest[r] + 5 dim eta, and its float64 direct form, at least
    (1 - (dim + 3) 2^-53) D - dim 2^-1074, is >= closest[r]: the seed cannot
    lower it. closest, and so every draw, is bitwise the direct form's.

    With ``other``, a forking.Served _Upper, a forked child screens the rows
    from _split_row(n) on while this process screens the rows before, and
    sends back the rows whose closest fell, with their new values. The
    screen only chooses which rows get the direct form, and a row's direct
    form depends on that row alone, so closest and every draw are the same
    whichever process screens a row. The draw stays here.
    """
    n, dim = x.shape
    closest = np.full(n, np.inf)
    mid = n if other is None else _split_row(n)
    mine = _Screen(x[:mid], x_sq[:mid], closest[:mid])
    centroids = np.empty((k, dim), dtype=np.float64)
    idx = int(rng.integers(n))
    for i in range(k):
        if i:
            total = closest.sum()
            if total <= 0.0:
                # all remaining points coincide with chosen centroids
                idx = int(rng.integers(n))
            else:
                idx = _d2_draw(closest, total, rng)
        centroids[i] = x[idx]
        if other is not None:
            other.submit("screen", idx)
        mine.screen(x[idx], x_sq[idx])
        if other is not None:
            rows, values = other.collect()
            closest[mid + rows] = values
    return centroids


class _Screen:
    """The k-means++ screen of the rows x (see _kmeans_pp_init): their
    float32 copy, built at the first seed, their per-row terms and closest."""

    def __init__(self, x, x_sq, closest=None):
        dim = x.shape[1]
        self.kappa = (2 * dim + 8) * 2.0**-24 if dim <= 2**22 else np.inf
        self.tau = 8 * dim * 2.0**-150
        # The test, with per-row terms that change only with closest[r]: skip iff
        # -inf < g[r] - half[r] <= (low_c - tau) / 2, low = (1 - kappa) x_sq (low_c
        # the seed's) and half = (low - (1 + kappa) closest) / 2. closest starts
        # at inf: no skips.
        self.x, self.low = x, x_sq * (1.0 - self.kappa)
        self.half = np.full(x.shape[0], -np.inf)
        self.closest = np.full(x.shape[0], np.inf) if closest is None else closest
        self.x32 = None

    def screen(self, c, c_sq) -> np.ndarray:
        """Lower closest by the seed c, with c_sq = np.sum(c * c); the rows
        whose closest fell."""
        x, half, closest, kappa = self.x, self.half, self.closest, self.kappa
        with np.errstate(over="ignore", invalid="ignore"):  # the test handles overflow
            if self.x32 is None:  # in blocks: one whole transpose is slower
                self.x32 = np.empty((x.shape[1], x.shape[0]), dtype=np.float32)
                for lo in range(0, x.shape[0], ASSIGN_BLOCK_ROWS):
                    self.x32[:, lo : lo + ASSIGN_BLOCK_ROWS] = x[lo : lo + ASSIGN_BLOCK_ROWS].T
                self.g, self.t = np.empty(x.shape[0], dtype=np.float32), np.empty(x.shape[0])
            np.matmul(c.astype(np.float32), self.x32, out=self.g)
            t = np.subtract(self.g, half, out=self.t)
            low_c = c_sq * (1.0 - kappa)
            rows = np.flatnonzero(~((t <= (low_c - self.tau) / 2) & (t > -np.inf)))
            before = closest[rows]
            _lower_closest(x, c, rows, closest)
            half[rows] = (self.low[rows] - (1.0 + kappa) * closest[rows]) / 2
        return rows[closest[rows] < before]


def _split_row(n: int) -> int:
    """The first of the rows kmeans' forked child screens: the last block
    boundary at or below 0.55 n. The process, which also draws, takes more:
    on pool-large's inputs seeding took 0.40 s at 0.55 n, 0.41 s at 0.6 n
    and 0.44 s at n / 2 (in-process, medians of 6)."""
    return ASSIGN_BLOCK_ROWS * int(0.55 * n / ASSIGN_BLOCK_ROWS)


class _Upper:
    """What kmeans' forked child serves, over its copy of x: the screen of the
    rows from _split_row(n) on, and the assign blocks it is sent."""

    def __init__(self, x, x_sq):
        self.x, self.x_sq, mid = x, x_sq, _split_row(x.shape[0])
        self.seeds = _Screen(x[mid:], x_sq[mid:])

    def __call__(self, task, *args):
        if task == "assign":
            return _assign_blocks(self.x, self.x_sq, *args)
        idx = args[0]
        rows = self.seeds.screen(self.x[idx], self.x_sq[idx])
        return rows, self.seeds.closest[rows]


def _d2_draw(closest: np.ndarray, total: float, rng: np.random.Generator) -> int:
    """rng.choice(closest.size, p=closest / total), by the operations numpy's
    Generator.choice runs, without its checks of p (a Kahan sum, a NaN check
    and a negativity check): closest is finite and >= 0 by construction, as
    kmeans rejects points whose squared distances could overflow."""
    cdf = np.cumsum(closest / total)
    cdf /= cdf[-1]
    return int(np.searchsorted(cdf, rng.random(), side="right"))


def _lower_closest(x, c, rows, closest) -> None:
    """closest[rows] = min(closest[rows], sum((x[rows] - c)^2)), in row blocks.

    The direct form of a row depends on that row alone, and is exactly 0 for
    a row equal to c."""
    for lo in range(0, rows.size, ASSIGN_BLOCK_ROWS):
        r = rows[lo : lo + ASSIGN_BLOCK_ROWS]
        closest[r] = np.minimum(closest[r], np.sum((x[r] - c) ** 2, axis=1))


def kmeans(corpus: EmbeddingCorpus, k: int, seed: int = 0, max_iters: int = 100) -> ClusterModel:
    """Cluster the corpus vectors, as given, into k groups, in float64.

    Iterates assign/update until the assignment reaches a fixpoint, no
    centroid moves, or ``max_iters`` is hit. The result is that of
    full-matrix Lloyd passes, bit for bit, but after the first pass
    distances are computed only for rows whose bounds cannot prove their
    nearest centroid unchanged (_assign_pruned), and means only for clusters
    whose members changed. n_iters counts the assign passes run; converged
    is set when the last one moved no row.
    """
    if k == 0:
        raise DataError("k must be positive")
    if k > corpus.count:
        raise DataError(f"k={k} exceeds corpus count {corpus.count}")
    x = corpus.vectors.astype(np.float64, copy=False)
    with np.errstate(over="ignore"):
        x_sq = np.sum(x * x, axis=1)
        # seeding sums n squared distances, each at most 4 max(x_sq), with margin
        if not np.isfinite(8.0 * corpus.count * x_sq.max()):
            raise DataError("embedding values too large: squared distances overflow float64")
    split = x.size >= SPLIT_MIN_ENTRIES and forking.may_fork()
    with forking.Served(_Upper(x, x_sq)) if split else contextlib.nullcontext() as other:
        centroids = _kmeans_pp_init(x, x_sq, k, np.random.default_rng(seed), other)
        return _lloyd(x, x_sq, centroids, max_iters, other)


def _lloyd(x, x_sq, centroids, max_iters, other) -> ClusterModel:
    """kmeans' assign/update passes from the seeds ``centroids``."""
    k = centroids.shape[0]
    assignment = np.full(x.shape[0], -1, dtype=np.int64)
    # Hamerly bounds; upper = inf sends a row to the distance pass (see _assign_pruned)
    upper, lower = np.full(x.shape[0], np.inf), np.zeros(x.shape[0])
    buf = np.empty_like(x)  # serves the means gather and the repair
    converged = False
    it = 0
    while it < max_iters:
        it += 1
        new_assignment = _assign_pruned(x, x_sq, centroids, assignment, upper, lower, other)
        moved = np.flatnonzero(new_assignment != assignment)
        if moved.size == 0:
            converged = True
            break
        touched = np.zeros(k, dtype=bool)  # clusters that gained or lost a member
        touched[new_assignment[moved]] = True
        if it > 1:
            touched[assignment[moved]] = True
        assignment = new_assignment
        new_centroids = _cluster_means(x, assignment, centroids.copy(), touched, buf)
        if not np.bincount(assignment, minlength=k).all():
            assignment, new_centroids = _repair_empty(x, assignment, new_centroids, buf)
            upper[:] = np.inf  # donors changed cluster: every row gets a distance pass
        shifts = np.linalg.norm(new_centroids - centroids, axis=1)
        _shift_bounds(shifts, x.shape[1], assignment, upper, lower)
        centroids = new_centroids
        if float(np.max(shifts)) <= 0.0:
            break

    # each exit leaves every centroid at its members' mean (none is empty)
    return ClusterModel(
        k=k,
        centroids=centroids,
        assignment=assignment.astype(np.uint32),
        n_iters=it,
        converged=converged,
    )


def _assign_pruned(x, x_sq, centroids, assignment, upper, lower, other=None) -> np.ndarray:
    """Nearest centroid of every row, as argmin over the full _pairwise_sq_dists
    matrix gives it, with distances computed only for rows that may move.

    upper[r] >= |x[r] - c[assignment[r]]| and lower[r] <= |x[r] - c[j]| for
    every j != assignment[r], exactly, for the stored floats (Hamerly 2010).
    Rows the test below cannot keep, padded with other rows to at least
    min(n, ASSIGN_BLOCK_ROWS), go through _assign_rows and get fresh bounds;
    upper and lower are updated in place.

    Error: write E for an entry of the matrix, D = |x - c|^2 exactly, X =
    |x|^2, C = |c|^2, u = 2^-53, eta = 2^-1075 and gamma = dim u / (1 - dim u),
    with IEEE arithmetic and gradual underflow (a subnormal sum is exact).
    - x_sq, c_sq and the gemm (any order, with or without FMA; 2|x_i c_i| <=
      x_i^2 + c_i^2) are within gamma X, gamma C and gamma (X + C) of X, C and
      2 x.c, plus eta per underflowed product: 3.03 dim eta in all.
    - The subtraction and the addition round by at most u (1 + gamma)(2X + C)
      and u (1 + u)(1 + gamma)(2X + 2C); the clamp at 0 only moves E toward D.
    So |E - D| <= (2 gamma + 4.01 u (1 + gamma))(X + C) + 3.03 dim eta, and
    eps = kappa (x_sq + Cmax) + tau, with Cmax the largest c_sq, kappa = (2 dim
    + 32) u / (1 - dim u) and tau = 32 dim eta, exceeds it by over 27 u (X + C)
    (of which X, C against x_sq, Cmax and the rounding of eps take under 2 u).

    Test: sep[j] <= min over i != j of |c[j] - c[i]|, so by the triangle
    inequality every other centroid is at least L = max(lower, sep[a] -
    upper, 0) from the row (Hamerly's max(l, s(a)) test, with s = sep / 2).
    A row keeps a = assignment[r] when L^2 - upper^2 > 2 eps. L is at most a
    true distance, under sqrt(X) + sqrt(C), so the float64 test errs by under
    9 u (X + Cmax), inside the slack of 2 eps. Then for every j != a, D_j >=
    L^2 > upper^2 + 2 eps >= D_a + 2 eps, so E_j >= D_j - eps > D_a + eps >=
    E_a, the clamped E_a included: a is the row's strict argmin, and so the
    full matrix's lowest-index argmin too. The margin is 2 eps: one eps for
    each of the two entries the test compares.

    Bounds: a row with best entry E_a and second-best E_2 has D_a <= E_a + eps
    and D_j >= E_2 - eps for j != a. upper and lower are the square roots of
    those, each float operation rounded outward (np.nextafter), and sep comes
    the same way from the centroids' own matrix, whose error is at most
    kappa 2 Cmax + tau. On the first pass (assignment -1) and after a repair,
    upper is inf, so no row is kept.
    """
    n, dim = x.shape
    kappa = (2 * dim + 32) * 2.0**-53 / (1.0 - dim * 2.0**-53)
    tau = dim * 2.0**-1070
    c_sq = np.sum(centroids * centroids, axis=1)
    c_max = float(c_sq.max())
    eps = kappa * (x_sq + c_max) + tau
    cc = _pairwise_sq_dists(centroids, centroids, c_sq)
    np.fill_diagonal(cc, np.inf)
    sep = _down(np.sqrt(np.maximum(_down(cc.min(axis=1) - (kappa * 2 * c_max + tau)), 0.0)))
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN: the row is not kept
        reach = np.maximum(np.maximum(lower, _down(sep[assignment] - upper)), 0.0)
        stale = ~(reach * reach - upper * upper > 2 * eps)
    short = min(n, ASSIGN_BLOCK_ROWS) - np.count_nonzero(stale)
    if short > 0:  # small gemms take another kernel: fill the pass with kept rows
        stale[np.flatnonzero(~stale)[:short]] = True
    rows = np.flatnonzero(stale)
    best, first, second = _assign_rows(x, x_sq, centroids, rows, other)
    upper[rows] = _up(np.sqrt(_up(first + eps[rows])))
    lower[rows] = _down(np.sqrt(np.maximum(_down(second - eps[rows]), 0.0)))
    new_assignment = assignment.copy()
    new_assignment[rows] = best
    return new_assignment


def _shift_bounds(shifts, dim, assignment, upper, lower) -> None:
    """Loosen the bounds by the centroid shifts, in place.

    shifts is np.linalg.norm(new - old, axis=1): a row of rounded differences,
    squares and sums, then a square root, which is within (dim / 2 + 4) u of
    the exact shift relatively, plus sqrt(dim eta) for underflowed squares.
    delta exceeds the exact shift after its own two roundings, and the moved
    bounds are rounded outward: |x - c'[a]| <= upper + delta[a] and, for j !=
    a, |x - c'[j]| >= lower - max(delta)."""
    delta = shifts * (1.0 + (dim + 8) * 2.0**-53) + dim * 2.0**-536
    upper += delta[assignment]
    _up(upper)
    lower -= delta.max()
    _down(lower)


def _up(v):
    """v moved in place to the next float up, which is at least the exact
    value of the operation that rounded to v."""
    return np.nextafter(v, np.inf, out=v)


def _down(v):
    """v moved in place to the next float down: at most that exact value."""
    return np.nextafter(v, -np.inf, out=v)


def _assign_rows(x, x_sq, centroids, rows, other=None):
    """Best index, best entry and second-best entry of _pairwise_sq_dists for
    x[rows], by row blocks; ``other``, a forking.Served _Upper, takes the
    second half of the blocks if there are 2 or more.

    Blocks split ``rows`` evenly and are never below ASSIGN_BLOCK_ROWS unless
    ``rows`` is: gemms of 1-4 rows take another OpenBLAS kernel that differs
    from the full product in the last bit, while blocks of 5+ rows match it."""
    m = rows.size
    n_blocks = max(1, m // ASSIGN_BLOCK_ROWS)
    bounds = np.arange(n_blocks + 1) * m // n_blocks
    if other is None or n_blocks < 2:
        return _assign_blocks(x, x_sq, centroids, rows, bounds)
    h = bounds[n_blocks // 2]
    other.submit("assign", centroids, rows[h:], bounds[n_blocks // 2 :] - h)
    here = _assign_blocks(x, x_sq, centroids, rows[:h], bounds[: n_blocks // 2 + 1])
    return tuple(np.concatenate(pair) for pair in zip(here, other.collect()))


def _assign_blocks(x, x_sq, centroids, rows, bounds):
    """_assign_rows over the blocks rows[bounds[i]:bounds[i + 1]]."""
    m, k = rows.size, centroids.shape[0]
    buf = np.empty((int(np.diff(bounds).max()), k), dtype=np.float64)
    best, first, second = np.empty(m, dtype=np.int64), np.empty(m), np.empty(m)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        r = rows[lo:hi]
        d2 = _pairwise_sq_dists(x[r], centroids, x_sq[r], out=buf[: hi - lo])
        b = np.argmin(d2, axis=1, out=best[lo:hi])
        at = np.arange(hi - lo)
        first[lo:hi] = d2[at, b]
        d2[at, b] = np.inf
        np.min(d2, axis=1, out=second[lo:hi])
    return best, first, second


def _squared_errors(x, centroids, assignment, out) -> np.ndarray:
    """(x - centroids[assignment])^2 entrywise, built in ``out``, an (n, dim) buffer."""
    np.take(centroids, assignment, axis=0, out=out, mode="clip")  # "raise" would buffer
    np.subtract(x, out, out=out)
    return np.square(out, out=out)


def _cluster_means(x, assignment, centroids, touched, buf):
    """Set each non-empty ``touched`` cluster's centroid to its members' mean, in place.

    The touched clusters' rows, stably sorted by cluster, are gathered into
    ``buf``: each cluster is a contiguous slice holding the rows of
    x[assignment == j] in the same order, so each mean is bitwise the same."""
    rows = np.flatnonzero(touched[assignment])
    order, bounds = _member_slices(assignment[rows], centroids.shape[0])
    xs = np.take(x, rows[order], axis=0, out=buf[: rows.size], mode="clip")
    for j in np.flatnonzero(bounds[1:] > bounds[:-1]):
        centroids[j] = xs[bounds[j] : bounds[j + 1]].mean(axis=0)
    return centroids


def _repair_empty(x, assignment, centroids, buf):
    """Move the globally farthest-from-centroid point into each empty cluster."""
    k = centroids.shape[0]
    empties = np.flatnonzero(np.bincount(assignment, minlength=k) == 0)
    assignment = assignment.copy()
    for j in empties:
        dists = np.sum(_squared_errors(x, centroids, assignment, buf), axis=1)
        # never steal the last member of another cluster
        sizes = np.bincount(assignment, minlength=k)
        dists[sizes[assignment] <= 1] = -np.inf
        donor = int(np.argmax(dists))
        assignment[donor] = j
        centroids[j] = x[donor]
    return assignment, _cluster_means(x, assignment, centroids, np.ones(k, dtype=bool), buf)


def objective(model: ClusterModel, corpus: EmbeddingCorpus) -> float:
    """Within-cluster sum of squared Euclidean distances, in float64."""
    if model.dim != corpus.dim:
        raise DataError(f"dimension mismatch: model {model.dim}, corpus {corpus.dim}")
    if model.count != corpus.count:
        raise DataError(f"count mismatch: model {model.count}, corpus {corpus.count}")
    x = corpus.vectors.astype(np.float64, copy=False)
    return float(np.sum(_squared_errors(x, model.centroids, model.assignment, np.empty_like(x))))


def encode_cluster_model(model: ClusterModel) -> bytes:
    """Binary layout: (k, dim, count) uint64 LE, float64 centroids, uint32 assignment."""
    return b"".join([CLUSTER_MAGIC, struct.pack("<QQQ", model.k, model.dim, model.count),
                     model.centroids.astype("<f8").tobytes(),
                     model.assignment.astype("<u4").tobytes()])


def load_cluster_model(path) -> ClusterModel:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != CLUSTER_MAGIC:
        raise DataError(f"{path}: not a cluster model file (bad magic)")
    if len(data) < 4 + 24:
        raise DataError(f"{path}: truncated cluster header")
    k, dim, count = struct.unpack_from("<QQQ", data, 4)
    off = 4 + 24
    want = k * dim * 8 + count * 4
    if len(data) - off != want:
        raise DataError(f"{path}: truncated cluster payload")
    centroids = np.frombuffer(data, dtype="<f8", count=k * dim, offset=off).reshape(k, dim).copy()
    off += k * dim * 8
    assignment = np.frombuffer(data, dtype="<u4", count=count, offset=off).copy()
    if assignment.size and assignment.max() >= k:
        raise DataError(f"{path}: assignment index out of range")
    return ClusterModel(k=int(k), centroids=centroids, assignment=assignment)
