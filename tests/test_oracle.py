import numpy as np
import pytest

from influence_select import curvature as C
from influence_select import model as M
from influence_select import oracle as O
from influence_select import synthetic as S
from influence_select.cli import encode_csv
from influence_select.corpus import TokenTable
from influence_select.errors import DataError, NumericError

CFG = M.ModelConfig(vocab_size=13, hidden_dim=8, n_layers=1, n_heads=2,
                    max_context=16, mlp_ratio=1.0)


def test_single_sample_rank_one():
    params = M.init_params(CFG, seed=0)
    seq = [1, 2, 3, 4, 5]
    H = O.dense_curvature(params, TokenTable.from_sequences([seq]))
    g = M.concat_layer_vectors(M.grad_of_sequence(params, seq), CFG)
    np.testing.assert_allclose(H, np.outer(g, g), rtol=1e-12)
    assert np.linalg.matrix_rank(H, tol=1e-10) == 1


def test_duplicated_dataset_same_curvature():
    params = M.init_params(CFG, seed=1)
    seqs = [[1, 2, 3], [4, 5, 6, 7]]
    H1 = O.dense_curvature(params, TokenTable.from_sequences(seqs))
    H2 = O.dense_curvature(params, TokenTable.from_sequences(seqs + seqs))
    np.testing.assert_allclose(H1, H2, rtol=1e-12)


def test_layer_block_matches_tap_outer_products():
    params = M.init_params(CFG, seed=2)
    registry = M.tracked_layers(CFG)
    rng = np.random.default_rng(0)
    seqs = [rng.integers(0, 13, size=6).tolist() for _ in range(4)]
    H = O.dense_curvature(params, TokenTable.from_sequences(seqs))
    tl = registry[0]  # qkv-joint, first in the flattening
    sl = slice(0, tl.flat_dim)
    # independent per-layer oracle: E[(delta (x) x)(delta (x) x)^T] from taps
    want = np.zeros((tl.flat_dim, tl.flat_dim))
    for seq in seqs:
        _, cache = M.forward(params, seq, seq_len=len(seq))
        _, taps = M.backward(cache)
        tap = [t for t in taps if (t.layer, t.kind) == (tl.layer, tl.kind)][0]
        g = np.einsum("ti,tj->ij", tap.delta, tap.x).ravel()
        want += np.outer(g, g)
    want /= len(seqs)
    np.testing.assert_allclose(H[sl, sl], want, rtol=1e-10, atol=1e-14)


def test_param_cap_enforced():
    params = M.init_params(CFG, seed=0)
    with pytest.raises(DataError, match="exceeds dense cap"):
        O.dense_curvature(params, TokenTable.from_sequences([[1, 2, 3]]), param_cap=10)


def test_exact_influence_pure_alignment():
    # zero curvature at damping 1: the exact iHVP is the gradient itself
    rng = np.random.default_rng(3)
    g, ref = rng.normal(size=20), rng.normal(size=20)
    H = np.zeros((20, 20))
    assert float(g @ O.dense_ihvp(H, ref, damping=1.0)) == pytest.approx(float(g @ ref), rel=1e-12)


def test_exact_influence_zero_gradient():
    rng = np.random.default_rng(4)
    ref = rng.normal(size=10)
    H = np.eye(10)
    assert float(np.zeros(10) @ O.dense_ihvp(H, ref, damping=0.5)) == 0.0
    np.testing.assert_array_equal(O.dense_ihvp(H, np.zeros(10), damping=0.5), np.zeros(10))


def test_dense_solve_residual_validated():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(12, 12))
    H = m @ m.T
    v = rng.normal(size=12)
    x = O.dense_ihvp(H, v, 1e-3)
    resid = np.linalg.norm((H + 1e-3 * np.eye(12)) @ x - v)
    assert resid <= 1e-9 * np.linalg.norm(v)


def test_factored_equals_dense_when_truth_is_kronecker():
    rng = np.random.default_rng(6)
    for _ in range(5):
        d_out, d_in = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        a = rng.normal(size=(d_out, d_out))
        b = rng.normal(size=(d_in, d_in))
        delta = a @ a.T + 0.05 * np.eye(d_out)
        x = b @ b.T + 0.05 * np.eye(d_in)
        Hd = np.kron(delta, x)
        v = rng.normal(size=d_out * d_in)
        for lam in (0.0, 1e-3, 1e-1):
            fast = C.kron_ihvp(C.factor_inverse(delta, x, lam), v)
            if lam == 0.0:
                dense = np.linalg.solve(Hd, v)
            else:
                dense = O.dense_ihvp(Hd, v, lam)
            rel = np.linalg.norm(fast - dense) / np.linalg.norm(dense)
            assert rel <= 1e-10


def test_method_correlation_self_is_one():
    rng = np.random.default_rng(8)
    exact = rng.normal(size=50)
    reports = O.method_correlations(exact, {"self": exact.copy()})
    assert reports[0].pearson == pytest.approx(1.0, abs=1e-12)
    assert reports[0].spearman == pytest.approx(1.0, abs=1e-12)


def test_linear_scores_correlate_to_one():
    exact = np.array([0.3, -1.2, 5.0, 2.2, 0.7, 9.1, -4.0, 0.0])
    (report,) = O.method_correlations(exact, {"linear": 2 * exact + 1})
    assert report.pearson == pytest.approx(1.0, abs=1e-15)
    assert report.spearman == pytest.approx(1.0, abs=1e-15)
    assert report.n == 8


def test_average_ranks_share_ties():
    assert O._average_ranks(np.array([3.0, 1.0, 3.0, 2.0])).tolist() == [3.5, 1.0, 3.5, 2.0]


def _correlation_case(name):
    rng = np.random.default_rng(21)
    exact = rng.normal(size=60)
    if name == "random":
        return exact, 0.4 * exact + rng.normal(size=60)
    if name == "tied":
        return np.round(exact), np.round(exact + rng.normal(size=60), 1)
    if name == "n=3":
        return np.array([0.5, -2.0, 1.5]), np.array([1.0, 0.0, 3.0])
    return exact, -exact + 0.1 * rng.normal(size=60)  # anti-correlated


@pytest.mark.parametrize("name", ["random", "tied", "n=3", "anti-correlated"])
def test_method_correlations_match_scipy(name):
    stats = pytest.importorskip("scipy.stats")
    exact, scores = _correlation_case(name)
    (report,) = O.method_correlations(exact, {name: scores})
    assert report.pearson == pytest.approx(stats.pearsonr(scores, exact)[0], abs=1e-12)
    assert report.spearman == pytest.approx(stats.spearmanr(scores, exact)[0], abs=1e-12)


def test_zero_variance_scores_rejected():
    with pytest.raises(NumericError, match="zero variance"):
        O.method_correlations(np.ones(10), {})
    with pytest.raises(NumericError, match="flat score vector has zero variance"):
        O.method_correlations(np.arange(10.0), {"flat": np.full(10, 2.5)})


def test_decorrelated_construction_zeroes_cross_moments():
    data = O.make_qkv_study(n_curvature=300, n_candidates=10, d_proj=4, d_in=5,
                            coupling=0.9, seed=0, decorrelate=True)
    fac = O.qkv_factor_from_samples(data.curv_x, data.curv_delta)
    d = data.d_proj
    delta = fac.Delta
    scale = np.abs(delta).max()
    for a in range(3):
        for b in range(3):
            block = delta[a * d : (a + 1) * d, b * d : (b + 1) * d]
            if a != b:
                assert np.max(np.abs(block)) <= 1e-12 * scale


def test_joint_equals_independent_without_cross_correlation():
    data = O.make_qkv_study(n_curvature=400, n_candidates=60, d_proj=4, d_in=5,
                            coupling=0.0, seed=7, decorrelate=True)
    _, detail = O.run_qkv_study(data, damping=1e-3)
    joint, indep = detail["joint-qkv"], detail["independent-qkv"]
    rel = np.abs(joint - indep) / np.maximum(np.abs(joint), 1e-12)
    assert float(rel.max()) <= 1e-6


def test_correlated_construction_orders_methods():
    data = O.make_qkv_study(n_curvature=3000, n_candidates=200, d_proj=6, d_in=8,
                            coupling=0.85, seed=1)
    reports, _ = O.run_qkv_study(data, damping=1e-3)
    r = {x.method: x.pearson for x in reports}
    assert r["joint-qkv"] > r["independent-qkv"] > r["no-hessian"]


def test_compare_methods_on_model_reports_all_methods():
    params = M.init_params(CFG, seed=9)
    rng = np.random.default_rng(10)
    ref = [rng.integers(0, 13, size=6).tolist() for _ in range(6)]
    cands = [rng.integers(0, 13, size=6).tolist() for _ in range(12)]
    reports = O.compare_methods(TokenTable.from_sequences(cands), params,
                                TokenTable.from_sequences(ref), damping=1e-3)
    assert sorted(r.method for r in reports) == sorted(O.METHODS)
    for r in reports:
        assert -1.0 <= r.pearson <= 1.0
        assert r.n == 12


def test_compare_methods_splits_exact_ihvp_in_registry_order(monkeypatch):
    """What compare_methods hands to method_correlations, per candidate: the
    exact score is the flat gradient against the dense solve, and no-hessian
    the flat dot product, though both were scored layer by layer."""
    cfg = M.ModelConfig(vocab_size=13, hidden_dim=8, n_layers=2, n_heads=2,
                        max_context=16, mlp_ratio=1.0)
    params = M.init_params(cfg, seed=12)
    rng = np.random.default_rng(13)
    ref = [rng.integers(0, 13, size=6).tolist() for _ in range(5)]
    cands = [rng.integers(0, 13, size=int(n)).tolist() for n in rng.integers(4, 9, size=8)]
    seen = {}

    def capture(exact, approx):
        seen.update(exact=exact, approx=approx)
        return []

    monkeypatch.setattr(O, "method_correlations", capture)
    O.compare_methods(TokenTable.from_sequences(cands), params, TokenTable.from_sequences(ref),
                      damping=1e-3)

    def flat(seq):
        return M.concat_layer_vectors(M.grad_of_sequence(params, seq), cfg)

    ref_flat = np.mean([flat(seq) for seq in ref], axis=0)
    exact_ihvp = O.dense_ihvp(O.dense_curvature(params, TokenTable.from_sequences(ref)),
                             ref_flat, 1e-3)
    assert list(seen["approx"]) == list(O.METHODS)
    for i, seq in enumerate(cands):
        g = flat(seq)
        assert seen["exact"][i] == pytest.approx(float(g @ exact_ihvp), rel=1e-10)
        assert seen["approx"]["no-hessian"][i] == pytest.approx(float(g @ ref_flat), rel=1e-10)


def test_factored_ranking_tracks_exact_oracle():
    # graded-quality candidates on a patterned corpus: the realistic regime
    spec = S.SyntheticSpec(n_instances=1200, n_components=16, n_aligned=4, vocab_size=32,
                           seq_len=12, n_reference=48, pattern_tokens=6, seed=3)
    data = S.generate(spec)
    cfg = M.ModelConfig(vocab_size=32, hidden_dim=12, n_layers=1, n_heads=2,
                        max_context=16, mlp_ratio=1.0)
    params = M.init_params(cfg, seed=2)
    rng = np.random.default_rng(11)
    base = [data.instances[i] for i in range(1200) if data.component[i] < 4]
    cands = []
    for i, frac in enumerate(np.linspace(0.0, 1.0, 20)):
        seq = list(base[i % len(base)])
        pos = rng.choice(len(seq), size=int(round(frac * len(seq))), replace=False)
        for t in pos:
            seq[t] = int(rng.integers(0, 32))
        cands.append(seq)
    curv = [data.instances[i] for i in range(200, 1200)]
    reports = O.compare_methods(TokenTable.from_sequences(cands), params, data.reference,
                                damping=1e-2, curvature_set=TokenTable.from_sequences(curv))
    by = {r.method: r for r in reports}
    assert by["joint-qkv"].spearman >= 0.9


def test_method_report_csv():
    reports = [O.MethodReport("joint-qkv", 0.5, 0.25, 200)]
    text = encode_csv("fp", "method,pearson,spearman,n",
                      [(r.method, r.pearson, r.spearman, r.n) for r in reports])
    assert "method,pearson,spearman,n" in text
    assert "joint-qkv,0.5,0.25,200" in text
