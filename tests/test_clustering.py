import itertools
import os
import signal
import tracemalloc

import numpy as np
import pytest

from influence_select import clustering, forking
from influence_select.clustering import (
    ASSIGN_BLOCK_ROWS,
    _kmeans_pp_init,
    _pairwise_sq_dists,
    kmeans,
    load_cluster_model,
    objective,
    encode_cluster_model,
)
from influence_select.corpus import EmbeddingCorpus
from influence_select.errors import ChildDiedError, DataError


def test_two_points_two_clusters():
    corpus = EmbeddingCorpus(vectors=np.array([[0.0, 0.0], [10.0, 0.0]]))
    model = kmeans(corpus, k=2, seed=0)
    assert objective(model, corpus) == 0.0
    assert sorted(map(tuple, model.centroids.tolist())) == [(0.0, 0.0), (10.0, 0.0)]


def test_k_one_is_column_mean():
    rng = np.random.default_rng(0)
    corpus = EmbeddingCorpus(vectors=rng.normal(size=(50, 6)))
    model = kmeans(corpus, k=1, seed=0)
    np.testing.assert_allclose(model.centroids[0], corpus.vectors.mean(axis=0), rtol=1e-12)


def _label_agreement(assignment, labels, k):
    best = 0
    for perm in itertools.permutations(range(k)):
        mapped = np.array([perm[a] for a in assignment])
        best = max(best, float(np.mean(mapped == labels)))
    return best


def test_three_blob_recovery():
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
    rng = np.random.default_rng(3)
    corpus = EmbeddingCorpus(vectors=np.concatenate(
        [c + rng.normal(0.0, 0.05, size=(60, 2)) for c in centers]))
    labels = np.repeat(np.arange(3), 60)
    model = kmeans(corpus, k=3, seed=1)
    assert _label_agreement(model.assignment, labels, 3) == 1.0


def test_objective_trivial_cases():
    corpus = EmbeddingCorpus(vectors=np.array([[1.0, 2.0], [3.0, -1.0]]))
    model = kmeans(corpus, k=2, seed=0)
    assert objective(model, corpus) == 0.0

    single = EmbeddingCorpus(vectors=np.array([[0.0, 3.0], [0.0, 5.0]]))
    m1 = kmeans(single, k=1, seed=0)
    # both points at distance 1 from the midpoint centroid -> objective 1 + 1
    assert objective(m1, single) == pytest.approx(2.0, rel=1e-12)


def test_objective_matches_bruteforce():
    rng = np.random.default_rng(7)
    corpus = EmbeddingCorpus(vectors=rng.normal(size=(100, 8)))
    model = kmeans(corpus, k=5, seed=2)
    # independent summation oracle
    total = 0.0
    for i in range(corpus.count):
        diff = corpus.vectors[i] - model.centroids[model.assignment[i]]
        total += float(diff @ diff)
    assert objective(model, corpus) == pytest.approx(total, rel=1e-12)
    diffs = corpus.vectors - model.centroids[model.assignment]
    assert objective(model, corpus) == float(np.sum(diffs * diffs))


def test_objective_non_increasing_over_lloyd_iterations():
    rng = np.random.default_rng(11)
    corpus = EmbeddingCorpus(vectors=rng.normal(size=(100, 4)))
    model = kmeans(corpus, k=7, seed=5)
    hist = [objective(kmeans(corpus, k=7, seed=5, max_iters=i), corpus)
            for i in range(1, model.n_iters + 1)]
    assert len(hist) >= 1
    assert all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1))


def test_reassignment_fixpoint_at_convergence():
    rng = np.random.default_rng(13)
    corpus = EmbeddingCorpus(vectors=rng.normal(size=(200, 5)))
    model = kmeans(corpus, k=6, seed=4, max_iters=500)
    assert model.converged
    d2 = (
        np.sum(corpus.vectors**2, axis=1)[:, None]
        - 2.0 * corpus.vectors @ model.centroids.T
        + np.sum(model.centroids**2, axis=1)[None, :]
    )
    np.testing.assert_array_equal(np.argmin(d2, axis=1), model.assignment)


def test_centroid_equals_member_mean():
    rng = np.random.default_rng(17)
    corpus = EmbeddingCorpus(vectors=rng.normal(size=(150, 3)))
    model = kmeans(corpus, k=4, seed=0)
    sizes = np.bincount(model.assignment, minlength=model.k)
    for j in range(model.k):
        members = model.members(j)
        np.testing.assert_allclose(
            model.centroids[j], corpus.vectors[members].mean(axis=0), rtol=1e-9
        )
        assert sizes[j] == members.size
    assert sizes.sum() == corpus.count


def test_determinism():
    rng = np.random.default_rng(23)
    corpus = EmbeddingCorpus(vectors=rng.normal(size=(80, 4)))
    a = kmeans(corpus, k=5, seed=42)
    b = kmeans(corpus, k=5, seed=42)
    np.testing.assert_array_equal(a.centroids, b.centroids)
    np.testing.assert_array_equal(a.assignment, b.assignment)


def test_k_errors():
    corpus = EmbeddingCorpus(vectors=np.zeros((3, 2)))
    with pytest.raises(DataError, match="k=4 exceeds"):
        kmeans(corpus, k=4)
    with pytest.raises(DataError, match="positive"):
        kmeans(corpus, k=0)


def test_objective_dimension_mismatch():
    corpus = EmbeddingCorpus(vectors=np.zeros((4, 2)))
    model = kmeans(corpus, k=2, seed=0)
    other = EmbeddingCorpus(vectors=np.zeros((4, 3)))
    with pytest.raises(DataError, match="dimension mismatch"):
        objective(model, other)


def test_members_are_ascending_ids_of_each_cluster():
    corpus = EmbeddingCorpus(vectors=np.array([[0.0], [100.0], [101.0]]))
    model = kmeans(corpus, k=2, seed=0)
    singleton = 0 if np.bincount(model.assignment, minlength=model.k)[0] == 1 else 1
    assert model.members(singleton).tolist() == [0]
    assert model.members(1 - singleton).tolist() == [1, 2]

    corpus = EmbeddingCorpus(vectors=np.concatenate([np.zeros((6, 2)), np.ones((4, 2)) * 9]))
    model = kmeans(corpus, k=2, seed=1)
    cluster = int(model.assignment[0])
    assert model.members(cluster).tolist() == list(range(6))
    assert model.members(1 - cluster).tolist() == list(range(6, 10))

    vecs = np.array([[0.0, 0], [0, 0.1], [0.1, 0], [0.1, 0.1], [50, 50]])
    model = kmeans(EmbeddingCorpus(vectors=vecs), k=2, seed=0)
    cluster = int(model.assignment[0])
    assert np.bincount(model.assignment, minlength=model.k)[cluster] == 4
    assert model.members(cluster).tolist() == [0, 1, 2, 3]

    rng = np.random.default_rng(3)
    model = kmeans(EmbeddingCorpus(vectors=rng.normal(size=(90, 3))), k=7, seed=2)
    for j in range(model.k):
        np.testing.assert_array_equal(model.members(j), np.flatnonzero(model.assignment == j))


def test_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    corpus = EmbeddingCorpus(vectors=rng.normal(size=(64, 6)))
    model = kmeans(corpus, k=8, seed=1)
    path = tmp_path / "clusters.bin"
    path.write_bytes(encode_cluster_model(model))
    again = load_cluster_model(path)
    assert again.k == model.k
    np.testing.assert_array_equal(again.centroids, model.centroids)
    np.testing.assert_array_equal(again.assignment, model.assignment)


def test_float32_held_corpus_clusters_as_its_float64_copy():
    """kmeans and objective run in float64 whatever the corpus holds: a
    float32 corpus gives the bytes and objective of its float64 copy."""
    rng = np.random.default_rng(41)
    x32 = (rng.normal(size=(600, 8)) + 4 * rng.integers(0, 5, size=(600, 1))).astype(np.float32)
    held, copy = EmbeddingCorpus(vectors=x32), EmbeddingCorpus(vectors=x32.astype(np.float64))
    assert (held.vectors.dtype, copy.vectors.dtype) == (np.float32, np.float64)
    got, want = kmeans(held, k=12, seed=3), kmeans(copy, k=12, seed=3)
    assert encode_cluster_model(got) == encode_cluster_model(want)
    assert (got.n_iters, got.converged) == (want.n_iters, want.converged)
    assert objective(got, held) == objective(want, copy)


def test_serialization_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"nope")
    with pytest.raises(DataError, match="bad magic"):
        load_cluster_model(path)


def test_assignment_indices_in_range():
    rng = np.random.default_rng(37)
    corpus = EmbeddingCorpus(vectors=rng.normal(size=(40, 3)))
    model = kmeans(corpus, k=6, seed=0)
    assert model.assignment.max() < model.k
    assert np.bincount(model.assignment, minlength=model.k).sum() == 40


def test_pairwise_sq_dists_bitwise_equal_to_plain_expression():
    from influence_select.clustering import _pairwise_sq_dists

    rng = np.random.default_rng(11)
    x = rng.normal(size=(300, 17)) * rng.uniform(0.1, 10.0, size=17)
    centroids = np.concatenate([x[:5], rng.normal(size=(20, 17))])  # exact hits give zeros
    plain = np.maximum(
        np.sum(x * x, axis=1)[:, None]
        - 2.0 * x @ centroids.T
        + np.sum(centroids * centroids, axis=1)[None, :],
        0.0,
    )
    got = _pairwise_sq_dists(x, centroids)
    assert got.shape == (300, 25)
    np.testing.assert_array_equal(got, plain)


def _direct_kmeans_pp_init(x, k, rng):
    """k-means++ seeding with D^2 distances in the direct form sum((x - c)^2)."""
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = x[first]
    closest = np.sum((x - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        centroids[i] = x[idx]
        closest = np.minimum(closest, np.sum((x - centroids[i]) ** 2, axis=1))
    return centroids


# 3 distinct points, each repeated 4 times. With k=5 the last seeds come from
# the all-coincident branch; the expansion form alone leaves rounding residue
# at coincident rows here, so it would take the D^2 branch instead.
_COINCIDENT_POINTS = np.array([
    [1.8, 1.8, 0.1, -1.3, -2.7, -0.7],
    [-0.5, -2.7, -2.7, 3.0, 0.9, -1.6],
    [-0.4, 2.8, 2.4, 2.1, -0.6, 0.0],
])


def _seeding_corpora():
    rng = np.random.default_rng(41)
    blobs = rng.normal(0.0, 4.0, size=(24, 64))[rng.integers(0, 24, size=1500)]
    blobs = (blobs + rng.normal(0.0, 0.25, size=blobs.shape)).astype(np.float32).astype(np.float64)
    return {
        "blobs-1500x64": (blobs, 40),
        "scaled-500x17": (rng.normal(size=(500, 17)) * rng.uniform(0.1, 10.0, size=17), 20),
        "plane-300x2": (rng.normal(size=(300, 2)) * 1e3, 7),
        "repeats-30x3x16": (np.repeat(rng.normal(size=(30, 16)), 3, axis=0), 36),
        "coincident-3x4x6": (np.repeat(_COINCIDENT_POINTS, 4, axis=0), 5),
        # float32 products overflow, so every row goes to the direct form
        "huge-300x8": (rng.normal(size=(300, 8)) * 1e30, 12),
        # float32 products underflow to 0, and the underflow term tau keeps
        # every row a candidate
        "tiny-300x8": (rng.normal(size=(300, 8)) * 1e-30, 12),
        # float64 values off the float32 grid, with distances near the screen's bound
        "off-grid-800x24": (1.0 + rng.normal(size=(800, 24)) * 3e-3, 30),
        "odd-n-1003x7": (rng.normal(size=(1003, 7)), 25),
        "blobs-20000x64": (_blob_pool(rng, 20_000, 64, 64), 48),
    }


def _blob_pool(rng, n, dim, centers):
    """A Gaussian mixture with well separated centers, stored as float32."""
    centers = rng.normal(0.0, 4.0, size=(centers, dim))[rng.integers(0, centers, size=n)]
    return (centers + rng.normal(0.0, 0.25, size=(n, dim))).astype(np.float32).astype(np.float64)


_SEEDING_CORPORA = _seeding_corpora()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("name", sorted(_SEEDING_CORPORA))
def test_seeding_equals_direct_form(name, seed):
    x, k = _SEEDING_CORPORA[name]
    want = _direct_kmeans_pp_init(x, k, np.random.default_rng(seed))
    got = _kmeans_pp_init(x, np.sum(x * x, axis=1), k, np.random.default_rng(seed))
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("name", sorted(_SEEDING_CORPORA))
def test_screen_skips_only_rows_the_seed_cannot_bring_closer(name, monkeypatch):
    monkeypatch.setattr(forking, "may_fork", lambda: False)  # a child's spy calls are not seen here
    x, k = _SEEDING_CORPORA[name]
    sizes = []
    lower_closest = clustering._lower_closest

    def spy(x, c, rows, closest):
        skipped = np.setdiff1d(np.arange(x.shape[0]), rows)
        assert np.all(np.sum((x[skipped] - c) ** 2, axis=1) >= closest[skipped])
        sizes.append(rows.size)
        lower_closest(x, c, rows, closest)

    monkeypatch.setattr(clustering, "_lower_closest", spy)
    _kmeans_pp_init(x, np.sum(x * x, axis=1), k, np.random.default_rng(0))
    assert len(sizes) == k and sizes[0] == x.shape[0]
    if name.startswith(("huge", "tiny")):  # nothing can be ruled out
        assert sizes == [x.shape[0]] * k


def test_screen_leaves_few_rows_to_the_direct_form(monkeypatch):
    monkeypatch.setattr(forking, "may_fork", lambda: False)  # a child's spy calls are not seen here
    x, k = _SEEDING_CORPORA["blobs-20000x64"]
    sizes = []
    lower_closest = clustering._lower_closest
    monkeypatch.setattr(clustering, "_lower_closest", lambda x, c, rows, closest: (
        sizes.append(rows.size), lower_closest(x, c, rows, closest)))
    _kmeans_pp_init(x, np.sum(x * x, axis=1), k, np.random.default_rng(0))
    # the first seed has nothing to screen against
    assert np.mean(sizes[1:]) < 0.1 * x.shape[0]


def test_d2_draw_matches_generator_choice():
    rng = np.random.default_rng(61)
    for trial in range(300):
        n = int(rng.integers(1, 200))
        closest = rng.exponential(size=n) * 10.0 ** float(rng.integers(-40, 40))
        closest[rng.random(n) < 0.4] = 0.0
        if not closest.any():
            closest[-1] = 1.0
        total = closest.sum()
        ours, numpys = np.random.default_rng(trial), np.random.default_rng(trial)
        assert clustering._d2_draw(closest, total, ours) == numpys.choice(n, p=closest / total)
        assert ours.random() == numpys.random()


def test_normalized_kmeans_equals_reference_with_direct_form_seeds():
    """Rows scaled to unit norm, as a caller normalises them before writing
    the embeddings, lie off the float32 grid the screen rounds to."""
    rng = np.random.default_rng(67)
    x = _blob_pool(rng, 4000, 32, 40) + 1.0
    xn = _unit_rows(x)
    want_c, want_a, want_it, want_conv = _reference_kmeans(xn, 40, seed=3, max_iters=8)
    got = kmeans(EmbeddingCorpus(vectors=xn), 40, seed=3, max_iters=8)
    np.testing.assert_array_equal(got.centroids, want_c)
    np.testing.assert_array_equal(got.assignment, want_a)
    assert (got.n_iters, got.converged) == (want_it, want_conv)
    np.testing.assert_array_equal(
        _kmeans_pp_init(xn, np.sum(xn * xn, axis=1), 40, np.random.default_rng(3)),
        _direct_kmeans_pp_init(xn, 40, np.random.default_rng(3)),
    )


def test_kmeans_rejects_points_whose_squared_distances_overflow():
    with pytest.raises(DataError, match="overflow"):
        kmeans(EmbeddingCorpus(vectors=np.array([[1e160, 0.0], [-1e160, 1.0]])), 2)


def test_kmeans_on_coincident_points_is_pinned():
    corpus = EmbeddingCorpus(vectors=np.repeat(_COINCIDENT_POINTS, 4, axis=0))
    model = kmeans(corpus, k=5, seed=0)
    np.testing.assert_array_equal(model.centroids, _COINCIDENT_POINTS[[2, 0, 1, 0, 0]])
    np.testing.assert_array_equal(np.bincount(model.assignment, minlength=5), [4, 2, 4, 1, 1])
    np.testing.assert_array_equal(model.assignment, [3, 4, 1, 1, 2, 2, 2, 2, 0, 0, 0, 0])


def _reference_kmeans(x, k, seed=0, max_iters=100):
    """Lloyd k-means with one full (n, k) distance matrix per step and centroid
    means over k boolean masks: the reference for the blocked, sorted form."""
    x_sq = np.sum(x * x, axis=1)
    centroids = _kmeans_pp_init(x, x_sq, k, np.random.default_rng(seed))

    def mask_means(assignment, centroids):
        for j in range(k):
            mask = assignment == j
            if mask.any():
                centroids[j] = x[mask].mean(axis=0)

    def repair_empty(assignment, centroids):
        sizes = np.bincount(assignment, minlength=k)
        empties = np.flatnonzero(sizes == 0)
        if empties.size == 0:
            return assignment, centroids
        assignment = assignment.copy()
        for j in empties:
            dists = np.sum((x - centroids[assignment]) ** 2, axis=1)
            sizes = np.bincount(assignment, minlength=k)
            dists[sizes[assignment] <= 1] = -np.inf
            donor = int(np.argmax(dists))
            assignment[donor] = j
            centroids[j] = x[donor]
        mask_means(assignment, centroids)
        return assignment, centroids

    assignment = np.full(x.shape[0], -1, dtype=np.int64)
    converged = False
    it = 0
    while it < max_iters:
        it += 1
        d2 = _pairwise_sq_dists(x, centroids, x_sq)
        new_assignment = np.argmin(d2, axis=1)
        if np.array_equal(new_assignment, assignment):
            converged = True
            break
        assignment = new_assignment
        new_centroids = centroids.copy()
        mask_means(assignment, new_centroids)
        assignment, new_centroids = repair_empty(assignment, new_centroids)
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if shift <= 0.0:
            break
    mask_means(assignment, centroids)
    return centroids, assignment, it, converged


def _unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _reference_corpora():
    b = ASSIGN_BLOCK_ROWS
    rng = np.random.default_rng(53)
    few_points = np.repeat(rng.normal(size=(12, 4)), -(-(2 * b + 3) // 12), axis=0)
    return {
        "2b+3": (rng.normal(size=(2 * b + 3, 6)), 9, {}),
        "b+1": (rng.normal(size=(b + 1, 5)) * rng.uniform(0.1, 10.0, size=5), 8, {}),
        "b-1": (rng.normal(size=(b - 1, 4)), 7, {}),
        "one-column": (rng.normal(size=(3 * b + 5, 1)), 6, {}),
        "12-rows-k5": (rng.normal(size=(12, 3)), 5, {}),
        "rounded-ties": (np.round(rng.normal(size=(2 * b + 3, 3)) * 2.0), 11, {}),
        # 12 distinct points and k=16: _repair_empty must fill 4 clusters
        "repair-empty": (few_points[: 2 * b + 3], 16, {}),
        "coincident-3x4x6": (np.repeat(_COINCIDENT_POINTS, 4, axis=0), 5, {}),
        # rows scaled to unit norm before clustering: off the float32 grid
        "normalize": (_unit_rows(rng.normal(size=(2 * b + 3, 5)) + 1.0), 9, {}),
    }


_REFERENCE_CORPORA = _reference_corpora()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(_REFERENCE_CORPORA))
def test_kmeans_equals_full_matrix_mask_reference(name, seed):
    x, k, kwargs = _REFERENCE_CORPORA[name]
    want_c, want_a, want_it, want_conv = _reference_kmeans(x, k, seed=seed, **kwargs)
    got = kmeans(EmbeddingCorpus(vectors=x), k, seed=seed, **kwargs)
    np.testing.assert_array_equal(got.centroids, want_c)
    np.testing.assert_array_equal(got.assignment, want_a)
    assert (got.n_iters, got.converged) == (want_it, want_conv)
    if name == "repair-empty":  # k non-empty clusters from fewer distinct points
        assert len(np.unique(x, axis=0)) < np.count_nonzero(np.bincount(got.assignment, minlength=k)) == k


_PRUNING_CORPORA = {
    **{name: (x, k, {"seed": 0, **kw}) for name, (x, k, kw) in _REFERENCE_CORPORA.items()},
    "blobs-20000x64": (_SEEDING_CORPORA["blobs-20000x64"][0], 64, {"seed": 1}),
    # rounding in the expansion form is about as large as the gaps between
    # nearest and second-nearest centroids: only the error margins keep it exact
    "offset-1e7": (1e7 + np.random.default_rng(5).normal(size=(2000, 4)), 12,
                   {"seed": 0, "max_iters": 30}),
}


@pytest.mark.parametrize("name", sorted(_PRUNING_CORPORA))
def test_pruned_pass_keeps_only_rows_whose_argmin_cannot_change(name, monkeypatch):
    monkeypatch.setattr(forking, "may_fork", lambda: False)  # a child's spy calls are not seen here
    x, k, kwargs = _PRUNING_CORPORA[name]
    n = x.shape[0]
    assign_pruned, assign_rows = clustering._assign_pruned, clustering._assign_rows
    pairwise = clustering._pairwise_sq_dists
    recomputed, gemm_rows = [], []

    def rows_spy(x, x_sq, centroids, rows, other=None):
        recomputed.append(rows)
        return assign_rows(x, x_sq, centroids, rows, other)

    def pruned_spy(x, x_sq, centroids, assignment, upper, lower, other=None):
        new = assign_pruned(x, x_sq, centroids, assignment, upper, lower, other)
        kept = np.setdiff1d(np.arange(n), recomputed[-1])
        full = np.argmin(pairwise(x, centroids, x_sq), axis=1)
        np.testing.assert_array_equal(new[kept], assignment[kept])
        np.testing.assert_array_equal(full[kept], assignment[kept])
        return new

    def pairwise_spy(a, centroids, a_sq=None, out=None):
        if a is not centroids:  # the centroids' own matrix is bounded in any kernel
            gemm_rows.append(a.shape[0])
        return pairwise(a, centroids, a_sq, out)

    monkeypatch.setattr(clustering, "_assign_rows", rows_spy)
    monkeypatch.setattr(clustering, "_assign_pruned", pruned_spy)
    monkeypatch.setattr(clustering, "_pairwise_sq_dists", pairwise_spy)
    model = kmeans(EmbeddingCorpus(vectors=x), k, **kwargs)
    monkeypatch.undo()

    sizes = [rows.size for rows in recomputed]
    assert len(sizes) == model.n_iters and sizes[0] == n
    assert min(gemm_rows) >= min(n, ASSIGN_BLOCK_ROWS)
    if name.startswith("blobs"):
        assert model.converged and model.n_iters > 10
        assert np.mean(sizes[1:]) < 0.1 * n


def test_kmeans_never_holds_an_n_by_k_matrix(monkeypatch):
    monkeypatch.setattr(forking, "may_fork", lambda: False)  # a child's allocations are not seen here
    n, k = 20_000, 128
    corpus = EmbeddingCorpus(vectors=np.random.default_rng(59).normal(size=(n, 8)))
    tracemalloc.start()
    try:
        kmeans(corpus, k, seed=0, max_iters=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * k * 8


# ------------------------------------------------------- k-means on two processes

@pytest.fixture
def split(monkeypatch):
    """kmeans splits every pool with a forked child, whatever its size and
    the CPU count; the pids forked, and afterwards no child is left."""
    monkeypatch.setattr(forking, "may_fork", lambda: True)
    monkeypatch.setattr(clustering, "SPLIT_MIN_ENTRIES", 0)
    pids, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(_REFERENCE_CORPORA))
def test_two_process_kmeans_equals_the_serial_run(name, seed, split, monkeypatch):
    x, k, kwargs = _REFERENCE_CORPORA[name]
    with monkeypatch.context() as m:
        m.setattr(forking, "may_fork", lambda: False)
        want = kmeans(EmbeddingCorpus(vectors=x), k, seed=seed, **kwargs)
    assert split == []
    got = kmeans(EmbeddingCorpus(vectors=x), k, seed=seed, **kwargs)
    assert len(split) == 1
    np.testing.assert_array_equal(got.centroids, want.centroids)
    np.testing.assert_array_equal(got.assignment, want.assignment)
    assert (got.n_iters, got.converged) == (want.n_iters, want.converged)


@pytest.mark.parametrize("name", sorted(_SEEDING_CORPORA))
def test_two_process_seeding_equals_direct_form(name, split):
    x, k = _SEEDING_CORPORA[name]
    x_sq = np.sum(x * x, axis=1)
    for seed in (0, 1):
        with forking.Served(clustering._Upper(x, x_sq)) as other:
            got = _kmeans_pp_init(x, x_sq, k, np.random.default_rng(seed), other)
        np.testing.assert_array_equal(got, _direct_kmeans_pp_init(x, k, np.random.default_rng(seed)))
    assert len(split) == 2


def test_only_a_pool_of_split_min_entries_forks(split, monkeypatch):
    x = _SEEDING_CORPORA["blobs-1500x64"][0]
    monkeypatch.setattr(clustering, "SPLIT_MIN_ENTRIES", x.size + 1)
    kmeans(EmbeddingCorpus(vectors=x), 40, seed=0)
    assert split == []
    monkeypatch.setattr(clustering, "SPLIT_MIN_ENTRIES", x.size)
    kmeans(EmbeddingCorpus(vectors=x), 40, seed=0)
    assert len(split) == 1


def test_a_child_killed_while_seeding_is_an_error(split, monkeypatch):
    """The child dies at its third seed: kmeans raises ChildDiedError naming
    it and its signal, and reaps it (the fixture checks)."""
    parent, screen, calls = os.getpid(), clustering._Screen.screen, []

    def killed_in_the_child(self, c, c_sq):
        calls.append(c)
        if os.getpid() != parent and len(calls) == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return screen(self, c, c_sq)

    monkeypatch.setattr(clustering._Screen, "screen", killed_in_the_child)
    x, k = _SEEDING_CORPORA["blobs-1500x64"]
    with pytest.raises(ChildDiedError, match=r"^forked child (\d+) was killed by signal 9 ") as err:
        kmeans(EmbeddingCorpus(vectors=x), k, seed=0)
    assert str(err.value).split()[2] == str(split[0])
