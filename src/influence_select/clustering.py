"""Lloyd k-means with k-means++ seeding over the embedding corpus.

Deterministic given (corpus, k, seed). Empty clusters are repaired by
re-seeding the emptied centroid at the instance currently farthest from its
assigned centroid, which keeps k fixed (the bandit needs k arms).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .corpus import EmbeddingCorpus
from .errors import DataError

CLUSTER_MAGIC = b"KMC1"
# Rows per assign block. One assign step at 64000 x 64, k=256, 1 BLAS thread:
# 122 ms in blocks of 256 or 512 rows, 128 ms in 1024, 138 ms in 2048, 185 ms
# unblocked; at 10000 x 16, k=64, 512 rows were within 5% of the fastest.
ASSIGN_BLOCK_ROWS = 512


@dataclass
class ClusterModel:
    k: int
    centroids: np.ndarray  # (k, dim) float64
    assignment: np.ndarray  # (count,) uint32
    sizes: np.ndarray  # (k,) int64
    objective_history: list[float] = field(default_factory=list)
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


def _seed_sq_dists(x: np.ndarray, x_sq: np.ndarray, idx: int, out: np.ndarray) -> np.ndarray:
    """||x - c||^2 for every row, c = x[idx], into ``out``.

    One matrix-vector product: ||x||^2 - 2 x.c + ||c||^2, clamped at 0. That
    form is off by rounding, so a row equal to c need not read exactly 0;
    every entry within rounding of 0 is recomputed as sum((x - c)^2), so rows
    that coincide with c read exactly 0.
    """
    c = x[idx]
    np.matmul(x, -2.0 * c, out=out)
    out += x_sq
    out += x_sq[idx]
    np.maximum(out, 0.0, out=out)
    near_rel = 4.0 * x.shape[1] * np.finfo(np.float64).eps
    near = np.flatnonzero(out <= near_rel * (x_sq + x_sq[idx]))
    out[near] = np.sum((x[near] - c) ** 2, axis=1)
    return out


def _kmeans_pp_init(
    x: np.ndarray, x_sq: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding (D^2 sampling); ``x_sq`` is np.sum(x * x, axis=1)."""
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = x[first]
    closest = _seed_sq_dists(x, x_sq, first, np.empty(n, dtype=np.float64))
    dist = np.empty(n, dtype=np.float64)
    for i in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # all remaining points coincide with chosen centroids
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        centroids[i] = x[idx]
        np.minimum(closest, _seed_sq_dists(x, x_sq, idx, dist), out=closest)
    return centroids


def kmeans(
    corpus: EmbeddingCorpus,
    k: int,
    seed: int = 0,
    max_iters: int = 100,
    tol: float = 0.0,
    normalize: bool = False,
) -> ClusterModel:
    """Cluster the corpus into k groups.

    Iterates assign/update until the assignment reaches a fixpoint, the max
    centroid shift drops below ``tol``, or ``max_iters`` is hit. With
    ``normalize`` rows are L2-normalized before clustering.
    """
    if k == 0:
        raise DataError("k must be positive")
    if k > corpus.count:
        raise DataError(f"k={k} exceeds corpus count {corpus.count}")
    x = _points(corpus, normalize)
    x_sq = np.sum(x * x, axis=1)
    centroids = _kmeans_pp_init(x, x_sq, k, np.random.default_rng(seed))
    assignment = np.full(corpus.count, -1, dtype=np.int64)
    history: list[float] = []
    converged = False
    it = 0
    while it < max_iters:
        it += 1
        new_assignment, row_min = _assign(x, x_sq, centroids)
        history.append(float(row_min.sum()))
        if np.array_equal(new_assignment, assignment):
            converged = True
            break
        assignment = new_assignment
        new_centroids = _cluster_means(x, assignment, centroids.copy())
        assignment, new_centroids = _repair_empty(x, assignment, new_centroids)
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if shift <= tol:
            break

    # each exit leaves every centroid at its members' mean (none is empty)
    return ClusterModel(
        k=k,
        centroids=centroids,
        assignment=assignment.astype(np.uint32),
        sizes=np.bincount(assignment, minlength=k).astype(np.int64),
        objective_history=history,
        n_iters=it,
        converged=converged,
    )


def _points(corpus: EmbeddingCorpus, normalize: bool) -> np.ndarray:
    x = corpus.vectors
    if normalize:
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        x = x / np.where(norms == 0.0, 1.0, norms)
    return x


def _assign(x, x_sq, centroids) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid of every row and its squared distance, by row blocks.

    Blocks split the pool evenly and are never below ASSIGN_BLOCK_ROWS unless
    the pool is: gemms of 1-4 rows take another OpenBLAS kernel that differs
    from the full product in the last bit, while blocks of 5+ rows match it."""
    n = x.shape[0]
    n_blocks = max(1, n // ASSIGN_BLOCK_ROWS)
    bounds = np.arange(n_blocks + 1) * n // n_blocks
    buf = np.empty((-(-n // n_blocks), centroids.shape[0]), dtype=np.float64)
    assignment, row_min = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.float64)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        d2 = _pairwise_sq_dists(x[lo:hi], centroids, x_sq[lo:hi], out=buf[: hi - lo])
        best = np.argmin(d2, axis=1, out=assignment[lo:hi])
        row_min[lo:hi] = d2[np.arange(hi - lo), best]
    return assignment, row_min


def _cluster_means(x, assignment, centroids):
    """Set each non-empty cluster's centroid to its members' mean, in place.

    Members are a slice of the pool stably sorted by cluster: the rows of
    x[assignment == j] in the same order, so each mean is bitwise the same."""
    order, bounds = _member_slices(assignment, centroids.shape[0])
    xs = x[order]
    for j in np.flatnonzero(bounds[1:] > bounds[:-1]):
        centroids[j] = xs[bounds[j] : bounds[j + 1]].mean(axis=0)
    return centroids


def _repair_empty(x, assignment, centroids):
    """Move the globally farthest-from-centroid point into each empty cluster."""
    k = centroids.shape[0]
    empties = np.flatnonzero(np.bincount(assignment, minlength=k) == 0)
    if empties.size == 0:
        return assignment, centroids
    assignment = assignment.copy()
    for j in empties:
        dists = np.sum((x - centroids[assignment]) ** 2, axis=1)
        # never steal the last member of another cluster
        sizes = np.bincount(assignment, minlength=k)
        dists[sizes[assignment] <= 1] = -np.inf
        donor = int(np.argmax(dists))
        assignment[donor] = j
        centroids[j] = x[donor]
    return assignment, _cluster_means(x, assignment, centroids)


def objective(model: ClusterModel, corpus: EmbeddingCorpus, normalize: bool = False) -> float:
    """Within-cluster sum of squared Euclidean distances."""
    if model.dim != corpus.dim:
        raise DataError(f"dimension mismatch: model {model.dim}, corpus {corpus.dim}")
    if model.count != corpus.count:
        raise DataError(f"count mismatch: model {model.count}, corpus {corpus.count}")
    x = _points(corpus, normalize)
    # one (count, dim) buffer, in the operation order of sum((x - c)^2)
    diffs = model.centroids[model.assignment]
    np.subtract(x, diffs, out=diffs)
    return float(np.sum(np.square(diffs, out=diffs)))


def save_cluster_model(path, model: ClusterModel) -> None:
    """Binary layout: (k, dim, count) uint64 LE, float64 centroids, uint32 assignment."""
    with open(path, "wb") as fh:
        fh.write(CLUSTER_MAGIC)
        fh.write(struct.pack("<QQQ", model.k, model.dim, model.count))
        fh.write(model.centroids.astype("<f8").tobytes())
        fh.write(model.assignment.astype("<u4").tobytes())


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
    sizes = np.bincount(assignment, minlength=k).astype(np.int64)
    return ClusterModel(k=int(k), centroids=centroids, assignment=assignment, sizes=sizes)
