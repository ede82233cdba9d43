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
CENTROID_MEAN_RTOL = 1e-9


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
            order = np.argsort(self.assignment, kind="stable")
            bounds = np.searchsorted(self.assignment[order], np.arange(self.k + 1))
            cache = [order[bounds[j] : bounds[j + 1]] for j in range(self.k)]
            object.__setattr__(self, "_members_cache", cache)
        return cache[cluster]


def _pairwise_sq_dists(
    x: np.ndarray, centroids: np.ndarray, x_sq: np.ndarray | None = None
) -> np.ndarray:
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2; clamp tiny negatives from cancellation.
    # Built in place in one (n, k) buffer, in the same operation order as the
    # plain expression, so the result is bitwise the same. ``x_sq`` is
    # np.sum(x * x, axis=1), which kmeans computes once per call.
    if x_sq is None:
        x_sq = np.sum(x * x, axis=1)
    d2 = (2.0 * x) @ centroids.T
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
    x = corpus.vectors
    if normalize:
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        x = x / np.where(norms == 0.0, 1.0, norms)

    x_sq = np.sum(x * x, axis=1)
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(x, x_sq, k, rng)
    assignment = np.full(corpus.count, -1, dtype=np.int64)
    history: list[float] = []
    converged = False
    it = 0
    while it < max_iters:
        it += 1
        d2 = _pairwise_sq_dists(x, centroids, x_sq)
        new_assignment = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(x.shape[0]), new_assignment].sum()))
        if np.array_equal(new_assignment, assignment):
            converged = True
            break
        assignment = new_assignment
        new_centroids = centroids.copy()
        for j in range(k):
            mask = assignment == j
            if mask.any():
                new_centroids[j] = x[mask].mean(axis=0)
        assignment, new_centroids = _repair_empty(x, assignment, new_centroids)
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if shift <= tol:
            break

    # final exact-mean pass so each centroid equals its members' mean
    for j in range(k):
        mask = assignment == j
        if mask.any():
            centroids[j] = x[mask].mean(axis=0)
    sizes = np.bincount(assignment, minlength=k).astype(np.int64)
    return ClusterModel(
        k=k,
        centroids=centroids,
        assignment=assignment.astype(np.uint32),
        sizes=sizes,
        objective_history=history,
        n_iters=it,
        converged=converged,
    )


def _repair_empty(x, assignment, centroids):
    """Move the globally farthest-from-centroid point into each empty cluster."""
    k = centroids.shape[0]
    sizes = np.bincount(assignment, minlength=k)
    empties = np.flatnonzero(sizes == 0)
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
    for j in range(k):
        mask = assignment == j
        if mask.any():
            centroids[j] = x[mask].mean(axis=0)
    return assignment, centroids


def objective(model: ClusterModel, corpus: EmbeddingCorpus, normalize: bool = False) -> float:
    """Within-cluster sum of squared Euclidean distances."""
    if model.dim != corpus.dim:
        raise DataError(f"dimension mismatch: model {model.dim}, corpus {corpus.dim}")
    if model.count != corpus.count:
        raise DataError(f"count mismatch: model {model.count}, corpus {corpus.count}")
    x = corpus.vectors
    if normalize:
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        x = x / np.where(norms == 0.0, 1.0, norms)
    diffs = x - model.centroids[model.assignment]
    return float(np.sum(diffs * diffs))


def sample_from_cluster(
    model: ClusterModel,
    cluster: int,
    n: int,
    seed: int = 0,
    without_replacement: bool = True,
) -> list[int]:
    """Uniform sample of instance ids from one cluster, deterministic by seed."""
    if cluster >= model.k or cluster < 0:
        raise DataError(f"cluster {cluster} out of range for k={model.k}")
    members = model.members(cluster)
    if members.size == 0:
        raise DataError(f"cluster {cluster} is empty")
    if without_replacement and n > members.size:
        raise DataError(
            f"cannot draw {n} without replacement from cluster of size {members.size}"
        )
    rng = np.random.default_rng(seed)
    picks = rng.choice(members, size=n, replace=not without_replacement)
    return [int(p) for p in picks]


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
