import itertools

import numpy as np
import pytest

from influence_select.clustering import (
    _kmeans_pp_init,
    kmeans,
    load_cluster_model,
    objective,
    sample_from_cluster,
    save_cluster_model,
)
from influence_select.corpus import EmbeddingCorpus
from influence_select.errors import DataError
from influence_select.synthetic import gaussian_blobs


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
    corpus, labels = gaussian_blobs(60, centers, sigma=0.05, seed=3)
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


def test_objective_non_increasing_over_lloyd_iterations():
    rng = np.random.default_rng(11)
    corpus = EmbeddingCorpus(vectors=rng.normal(size=(100, 4)))
    model = kmeans(corpus, k=7, seed=5)
    hist = model.objective_history
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
    for j in range(model.k):
        members = model.members(j)
        np.testing.assert_allclose(
            model.centroids[j], corpus.vectors[members].mean(axis=0), rtol=1e-9
        )
        assert model.sizes[j] == members.size
    assert model.sizes.sum() == corpus.count


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


def test_sample_single_member():
    corpus = EmbeddingCorpus(vectors=np.array([[0.0], [100.0], [101.0]]))
    model = kmeans(corpus, k=2, seed=0)
    singleton = 0 if model.sizes[0] == 1 else 1
    assert sample_from_cluster(model, singleton, 1, seed=0) == list(model.members(singleton))


def test_sample_full_cluster_without_replacement():
    corpus = EmbeddingCorpus(vectors=np.concatenate([np.zeros((6, 2)), np.ones((4, 2)) * 9]))
    model = kmeans(corpus, k=2, seed=1)
    cluster = int(model.assignment[0])
    members = model.members(cluster)
    picks = sample_from_cluster(model, cluster, len(members), seed=3)
    assert sorted(picks) == sorted(members.tolist())
    with pytest.raises(DataError, match="without replacement"):
        sample_from_cluster(model, cluster, len(members) + 1, seed=3)


def test_sample_uniformity_chi_square():
    vecs = np.array([[0.0, 0], [0, 0.1], [0.1, 0], [0.1, 0.1], [50, 50]])
    corpus = EmbeddingCorpus(vectors=vecs)
    model = kmeans(corpus, k=2, seed=0)
    cluster = int(model.assignment[0])
    assert model.sizes[cluster] == 4
    n = 100000
    picks = sample_from_cluster(model, cluster, n, seed=9, without_replacement=False)
    counts = np.bincount(picks, minlength=5)[model.members(cluster)]
    sigma = np.sqrt(n * 0.25 * 0.75)
    assert np.all(np.abs(counts - n / 4) <= 3 * sigma)


def test_sample_determinism():
    corpus = EmbeddingCorpus(vectors=np.random.default_rng(0).normal(size=(30, 2)))
    model = kmeans(corpus, k=3, seed=0)
    a = sample_from_cluster(model, 0, 5, seed=7, without_replacement=False)
    b = sample_from_cluster(model, 0, 5, seed=7, without_replacement=False)
    assert a == b


def test_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    corpus = EmbeddingCorpus(vectors=rng.normal(size=(64, 6)))
    model = kmeans(corpus, k=8, seed=1)
    path = tmp_path / "clusters.bin"
    save_cluster_model(path, model)
    again = load_cluster_model(path)
    assert again.k == model.k
    np.testing.assert_array_equal(again.centroids, model.centroids)
    np.testing.assert_array_equal(again.assignment, model.assignment)
    np.testing.assert_array_equal(again.sizes, model.sizes)


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
    assert model.sizes.sum() == 40


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
    }


_SEEDING_CORPORA = _seeding_corpora()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("name", sorted(_SEEDING_CORPORA))
def test_seeding_equals_direct_form(name, seed):
    x, k = _SEEDING_CORPORA[name]
    want = _direct_kmeans_pp_init(x, k, np.random.default_rng(seed))
    got = _kmeans_pp_init(x, np.sum(x * x, axis=1), k, np.random.default_rng(seed))
    np.testing.assert_array_equal(got, want)


def test_kmeans_on_coincident_points_is_pinned():
    corpus = EmbeddingCorpus(vectors=np.repeat(_COINCIDENT_POINTS, 4, axis=0))
    model = kmeans(corpus, k=5, seed=0)
    np.testing.assert_array_equal(model.centroids, _COINCIDENT_POINTS[[2, 0, 1, 0, 0]])
    np.testing.assert_array_equal(model.sizes, [4, 2, 4, 1, 1])
    np.testing.assert_array_equal(model.assignment, [3, 4, 1, 1, 2, 2, 2, 2, 0, 0, 0, 0])
