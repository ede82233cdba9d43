import numpy as np
import pytest

from influence_select import curvature as C
from influence_select import influence as I
from influence_select import model as M
from influence_select.cli import encode_csv
from influence_select.config import InfluenceConfig
from influence_select.corpus import TokenTable
from influence_select.errors import DataError, NumericError

CFG = M.ModelConfig(vocab_size=13, hidden_dim=8, n_layers=1, n_heads=2,
                    max_context=16, mlp_ratio=1.0)


def _identity_inverses(registry, damping=0.0):
    return {
        tl.name: C.factor_inverse(np.eye(tl.d_out), np.eye(tl.d_in), damping,
                                  layer=tl.name, kind=tl.kind)
        for tl in registry
    }


def _real_inverses(params, seqs, damping):
    factors = C.collect_factors(params, TokenTable.from_sequences(seqs))[0]
    return {n: C.inverse_of_factor(f, damping) for n, f in factors.items()}


def test_identity_factors_ihvp_is_ref_grad():
    params = M.init_params(CFG, seed=0)
    registry = M.tracked_layers(CFG)
    ref_grad = C.collect_factors(params, TokenTable.from_sequences([[1, 2, 3, 4], [5, 6, 7]]))[1]
    ihvp = I.reference_ihvp(ref_grad, _identity_inverses(registry))
    for name in ref_grad:
        np.testing.assert_array_equal(ihvp.vectors[name], ref_grad[name])


def test_large_damping_limit():
    params = M.init_params(CFG, seed=1)
    seqs = [[1, 2, 3, 4, 5], [6, 7, 8]]
    ref_grad = C.collect_factors(params, TokenTable.from_sequences(seqs))[1]
    lam = 1e6
    ihvp = I.reference_ihvp(ref_grad, _real_inverses(params, seqs, lam))
    for name in ref_grad:
        np.testing.assert_allclose(ihvp.vectors[name], ref_grad[name] / lam, rtol=1e-4)


def test_missing_factor_errors():
    params = M.init_params(CFG, seed=0)
    registry = M.tracked_layers(CFG)
    ref_grad = C.collect_factors(params, TokenTable.from_sequences([[1, 2, 3]]))[1]
    inverses = _identity_inverses(registry)
    inverses.pop(registry[0].name)
    with pytest.raises(DataError, match="missing curvature factor"):
        I.reference_ihvp(ref_grad, inverses)


def test_orthogonal_gradient_scores_zero():
    params = M.init_params(CFG, seed=2)
    grads = M.grad_of_sequence(params, [1, 2, 3, 4])
    # constructed iHVP orthogonal to the instance gradient, layer by layer
    rng = np.random.default_rng(0)
    vectors = {}
    for name, g in grads.items():
        v = rng.normal(size=g.shape)
        gg = float(g @ g)
        v = v - g * (float(v @ g) / gg if gg > 0 else 0.0)
        vectors[name] = v
    ihvp = I.IhvpVector(vectors=vectors)
    score = I.score_batch(TokenTable.from_sequences([[1, 2, 3, 4]]), ihvp, params)[0]
    scale = sum(abs(float(g @ vectors[n])) for n, g in grads.items()) + 1.0
    assert abs(score) < 1e-9 * scale


def test_self_alignment_positive_norm_squared():
    params = M.init_params(CFG, seed=3)
    registry = M.tracked_layers(CFG)
    seq = [1, 2, 3, 4, 5, 6]
    ref_grad = C.collect_factors(params, TokenTable.from_sequences([seq]))[1]
    ihvp = I.reference_ihvp(ref_grad, _identity_inverses(registry))
    score = I.score_batch(TokenTable.from_sequences([seq]), ihvp, params)[0]
    want = sum(float(v @ v) for v in ref_grad.values())
    assert score == pytest.approx(want, rel=1e-12)
    assert score > 0.0


def test_additivity_over_layers():
    params = M.init_params(CFG, seed=4)
    registry = M.tracked_layers(CFG)
    seqs = [[1, 2, 3, 4], [5, 6, 7, 8]]
    ref_grad = C.collect_factors(params, TokenTable.from_sequences(seqs))[1]
    ihvp = I.reference_ihvp(ref_grad, _real_inverses(params, seqs, 1e-3))
    inst = [2, 4, 6, 8]
    total = I.score_batch(TokenTable.from_sequences([inst]), ihvp, params)[0]
    grads = M.grad_of_sequence(params, inst)
    per_layer = [float(grads[tl.name] @ ihvp.vectors[tl.name]) for tl in registry]
    assert total == sum(per_layer)  # exact float equality: same reduction order


def test_self_influence_non_increasing_in_damping():
    params = M.init_params(CFG, seed=5)
    seqs = [[1, 2, 3, 4, 5], [6, 7, 8, 9]]
    ref_grad = C.collect_factors(params, TokenTable.from_sequences(seqs))[1]
    scores = []
    for lam in (1e-4, 1e-3, 1e-2, 1e-1, 1.0):
        ihvp = I.reference_ihvp(ref_grad, _real_inverses(params, seqs, lam))
        scores.append(sum(float(ref_grad[n] @ ihvp.vectors[n]) for n in ref_grad))
    assert all(b <= a + 1e-12 for a, b in zip(scores, scores[1:]))
    assert all(s > 0 for s in scores)


def test_score_batch_matches_sequential_and_preserves_order():
    params = M.init_params(CFG, seed=6)
    seqs = [[1, 2, 3], [4, 5, 6]]
    ref_grad = C.collect_factors(params, TokenTable.from_sequences(seqs))[1]
    ihvp = I.reference_ihvp(ref_grad, _real_inverses(params, seqs, 1e-3))
    rng = np.random.default_rng(7)
    instances = TokenTable.from_sequences([rng.integers(0, 13, size=6) for _ in range(100)])
    scores = I.score_batch(instances, ihvp, params)
    assert len(scores) == 100
    for r, score in enumerate(scores):
        assert score == I.score_batch(instances.take([r]), ihvp, params)[0]


def test_score_batch_empty_and_singleton():
    params = M.init_params(CFG, seed=6)
    registry = M.tracked_layers(CFG)
    ref_grad = C.collect_factors(params, TokenTable.from_sequences([[1, 2, 3]]))[1]
    ihvp = I.reference_ihvp(ref_grad, _identity_inverses(registry))
    empty = TokenTable.from_sequences([])
    assert I.score_batch(empty, ihvp, params) == []
    one = TokenTable.from_sequences([[2, 3, 4]], ids=[9])
    scores = I.score_batch(one, ihvp, params)
    assert len(scores) == 1
    pair = TokenTable.from_sequences([[5, 6, 7], [2, 3, 4]], ids=[4, 9])  # same chunk
    assert scores[0] == I.score_batch(pair, ihvp, params)[1]


def test_score_batch_non_finite_score_names_the_instance():
    params = M.init_params(CFG, seed=6)
    registry = M.tracked_layers(CFG)
    ref_grad = C.collect_factors(params, TokenTable.from_sequences([[1, 2, 3]]))[1]
    ihvp = I.reference_ihvp(ref_grad, _identity_inverses(registry))
    ihvp.vectors[registry[0].name] = ihvp.vectors[registry[0].name] * np.nan
    pair = TokenTable.from_sequences([[5, 6, 7], [2, 3, 4]], ids=[4, 9])
    with pytest.raises(NumericError, match="non-finite influence score for instance 4"):
        I.score_batch(pair, ihvp, params)


def test_float32_scoring_tracks_float64_scores():
    """scoring_setup scores with float32 parameters against a float64 iHVP;
    on a fixed model at damping 1e-3 every score stays within 1e-5 of the
    largest |score| of the float64 engine's."""
    cfg = M.ModelConfig(vocab_size=64, hidden_dim=32, n_layers=1, n_heads=2,
                        max_context=32, mlp_ratio=2.0)
    params = M.init_params(cfg, seed=11)
    rng = np.random.default_rng(12)
    ref = TokenTable.from_sequences([rng.integers(0, 64, size=24) for _ in range(16)])
    candidates = TokenTable.from_sequences([rng.integers(0, 64, size=24) for _ in range(64)])
    scoring_params, ihvp, factors = I.scoring_setup(params, ref, InfluenceConfig(damping=1e-3))
    assert {a.dtype for _, a in scoring_params.iter_named()} == {np.dtype(np.float32)}
    assert {v.dtype for v in ihvp.vectors.values()} == {np.dtype(np.float64)}
    for (_, a32), (_, a64) in zip(scoring_params.iter_named(), params.iter_named()):
        np.testing.assert_array_equal(a32, a64.astype(np.float32))
    want_ihvp = I.reference_ihvp(C.collect_factors(params, ref)[1], {
        n: C.inverse_of_factor(f, 1e-3) for n, f in factors.items()})
    for name, vec in want_ihvp.vectors.items():
        np.testing.assert_array_equal(ihvp.vectors[name], vec)
    s32 = np.array(I.score_batch(candidates, ihvp, scoring_params))
    s64 = np.array(I.score_batch(candidates, ihvp, params))
    assert np.max(np.abs(s32 - s64)) <= 1e-5 * np.max(np.abs(s64))


# ------------------------------------------------------------- sketching


def test_sketch_determinism_bitwise():
    rng = np.random.default_rng(9)
    v = rng.normal(size=5000)
    proj = I.SketchProjector(target_dim=64, seed=123)
    a = I.sketch_vector(proj, "layer0.qkv-joint", v)
    b = I.sketch_vector(proj, "layer0.qkv-joint", v)
    np.testing.assert_array_equal(a, b)
    other = I.sketch_vector(I.SketchProjector(target_dim=64, seed=124), "layer0.qkv-joint", v)
    assert not np.array_equal(a, other)


def test_sketch_unbiasedness_smoke():
    rng = np.random.default_rng(10)
    g, h = rng.normal(size=800), rng.normal(size=800)
    exact = float(g @ h)
    vals = []
    for seed in range(200):
        proj = I.SketchProjector(target_dim=128, seed=seed)
        vals.append(float(I.sketch_vector(proj, "x", g) @ I.sketch_vector(proj, "x", h)))
    vals = np.asarray(vals)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - exact) <= 3 * se


def test_sketched_batch_method_label_and_determinism():
    params = M.init_params(CFG, seed=8)
    registry = M.tracked_layers(CFG)
    ref_grad = C.collect_factors(params, TokenTable.from_sequences([[1, 2, 3, 4]]))[1]
    ihvp = I.reference_ihvp(ref_grad, _identity_inverses(registry))
    proj = I.SketchProjector(target_dim=64, seed=3)
    insts = TokenTable.from_sequences([[1, 2, 3, i % 11] for i in range(5)])
    folded = I.pullback_ihvp(proj, ihvp)
    assert (ihvp.method, folded.method) == ("factored", "factored+sketch")
    t1 = I.score_batch(insts, folded, params)
    t2 = I.score_batch(insts, I.pullback_ihvp(proj, ihvp), params)
    assert t1 == t2


def _jl_scores(proj, params, registry, ihvp, seqs):
    """The sketched score as defined: sum over layers of <S g_l, S v_l>."""
    out = []
    for seq in seqs:
        grads = M.grad_of_sequence(params, seq)
        out.append(sum(float(I.sketch_vector(proj, tl.name, grads[tl.name])
                             @ I.sketch_vector(proj, tl.name, ihvp.vectors[tl.name]))
                       for tl in registry))
    return np.asarray(out)


def test_folded_sketch_matches_jl_sketched_score_on_ragged_batch():
    params = M.init_params(CFG, seed=11)
    registry = M.tracked_layers(CFG)
    rng = np.random.default_rng(12)
    ref = [rng.integers(0, 13, size=n).tolist() for n in (5, 9, 3)]
    ihvp = I.reference_ihvp(C.collect_factors(params, TokenTable.from_sequences(ref))[1],
                            _real_inverses(params, ref, 1e-3))
    seqs = [rng.integers(0, 13, size=n).tolist() for n in (2, 7, 16, 3, 11, 7, 5, 14)]
    proj = I.SketchProjector(target_dim=48, seed=21)
    insts = TokenTable.from_sequences(seqs)
    got = np.asarray(I.score_batch(insts, I.pullback_ihvp(proj, ihvp), params))
    want = _jl_scores(proj, params, registry, ihvp, seqs)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
    # the sketch changes the scores: this is not the unsketched path
    plain = np.asarray(I.score_batch(insts, ihvp, params))
    assert np.max(np.abs(got - plain)) > 1e-6 * np.max(np.abs(plain))


def test_pullback_covers_the_multi_block_stream():
    rng = np.random.default_rng(13)
    n = 2 * I.SKETCH_BLOCK + 123
    v = rng.normal(size=n)
    proj = I.SketchProjector(target_dim=16, seed=4)
    folded = I.pullback_ihvp(proj, I.IhvpVector(vectors={"layer0.mlp-1": v}))
    assert folded.method == "factored+sketch"
    sv = I.sketch_vector(proj, "layer0.mlp-1", v)
    for _ in range(3):
        g = rng.normal(size=n)
        want = float(I.sketch_vector(proj, "layer0.mlp-1", g) @ sv)
        got = float(g @ folded.vectors["layer0.mlp-1"])
        assert got == pytest.approx(want, rel=1e-10)


def test_influence_csv_round_trip():
    rows = [(0, 1.2345678901234567e-3, "factored"), (7, -2.5, "factored+sketch")]
    lines = encode_csv("abc123", "instance_id,score,method", rows).splitlines()
    assert lines[:2] == ["# config_fingerprint=abc123", "instance_id,score,method"]
    again = [line.split(",") for line in lines[2:]]
    assert [(int(i), float(s), m) for i, s, m in again] == rows
