import dataclasses
import math

import numpy as np
import pytest

from influence_select import curvature as C
from influence_select import model as M
from influence_select import oracle as O
from influence_select.corpus import TokenTable
from influence_select.errors import DataError, UsageError

TINY = M.ModelConfig(vocab_size=11, hidden_dim=8, n_layers=2, n_heads=2,
                     max_context=16, mlp_ratio=2.0)


def _forward(params, seq):
    """One sequence through the engine, as a chunk of one."""
    return M.forward(params, seq, seq_len=len(seq))


def _seqs_covering_vocab(cfg, rng, n_extra=2, length=9):
    seqs = [list(range(cfg.vocab_size))[: cfg.max_context]]
    for _ in range(n_extra):
        seqs.append(rng.integers(0, cfg.vocab_size, size=length).tolist())
    return seqs


def test_uniform_head_gives_log_vocab_loss():
    params = M.init_params(TINY, seed=0)
    params.head[...] = 0.0
    loss, _ = _forward(params, [1, 2, 3, 4, 5])
    assert loss.shape == (1,)
    assert loss[0] == pytest.approx(math.log(TINY.vocab_size), rel=1e-12)


def test_zero_wq_gives_uniform_attention_over_prefix():
    params = M.init_params(TINY, seed=0)
    for blk in params.layers:
        blk.w_qkv[: TINY.hidden_dim] = 0.0  # the Q rows
    _, cache = _forward(params, [3, 1, 4, 1, 5, 9])
    attn = cache.layer_saves[0]["attn"][0]  # (H, T, T) of the chunk's one sequence
    T = attn.shape[1]
    for t in range(T):
        np.testing.assert_allclose(attn[:, t, : t + 1], 1.0 / (t + 1), rtol=1e-12)
        np.testing.assert_allclose(attn[:, t, t + 1 :], 0.0)


# ------------------------------------------------------------ hand oracle


def _hand_forward_single_layer(params, tokens):
    """Independent scalar-loop recomputation for a 1-layer 1-head model."""
    cfg = params.config
    assert cfg.n_layers == 1 and cfg.n_heads == 1
    d = cfg.hidden_dim
    eps = 1e-6
    blk = params.layers[0]
    T = len(tokens)

    def rms(vec):
        return [v / math.sqrt(sum(w * w for w in vec) / len(vec) + eps) for v in vec]

    def matvec(mat, vec):
        return [sum(mat[r][c] * vec[c] for c in range(len(vec))) for r in range(mat.shape[0])]

    def rope(vec, pos):
        half = d // 2
        out = [0.0] * d
        for j in range(half):
            ang = pos * M.ROPE_BASE ** (-2.0 * j / d)
            c, s = math.cos(ang), math.sin(ang)
            out[2 * j] = vec[2 * j] * c - vec[2 * j + 1] * s
            out[2 * j + 1] = vec[2 * j] * s + vec[2 * j + 1] * c
        return out

    h = [list(params.embed[t]) for t in tokens]
    x = [rms(row) for row in h]
    w_q, w_k, w_v = blk.w_qkv[:d], blk.w_qkv[d : 2 * d], blk.w_qkv[2 * d :]
    q = [rope(matvec(w_q, xi), i) for i, xi in enumerate(x)]
    k = [rope(matvec(w_k, xi), i) for i, xi in enumerate(x)]
    v = [matvec(w_v, xi) for xi in x]
    ctx = []
    for i in range(T):
        scores = [sum(q[i][a] * k[j][a] for a in range(d)) / math.sqrt(d) for j in range(i + 1)]
        mx = max(scores)
        ex = [math.exp(s - mx) for s in scores]
        tot = sum(ex)
        weights = [e / tot for e in ex]
        ctx.append([sum(weights[j] * v[j][a] for j in range(i + 1)) for a in range(d)])
    h = [[h[i][a] + matvec(blk.w_o, ctx[i])[a] for a in range(d)] for i in range(T)]
    xm = [rms(row) for row in h]
    f = cfg.mlp_hidden
    for i in range(T):
        u = matvec(blk.w_up, xm[i])
        act = [ui / (1.0 + math.exp(-ui)) for ui in u]
        down = matvec(blk.w_down, act)
        h[i] = [h[i][a] + down[a] for a in range(d)]
    hn = [rms(row) for row in h]
    loss = 0.0
    for i in range(T - 1):
        logits = matvec(params.head, hn[i])
        mx = max(logits)
        lse = mx + math.log(sum(math.exp(l - mx) for l in logits))
        loss += lse - logits[tokens[i + 1]]
    return loss / (T - 1)


def test_forward_matches_hand_rolled_oracle():
    cfg = M.ModelConfig(vocab_size=7, hidden_dim=4, n_layers=1, n_heads=1,
                        max_context=8, mlp_ratio=2.0)
    params = M.init_params(cfg, seed=5)
    tokens = [2, 6, 1, 0, 4]
    loss, _ = _forward(params, tokens)
    want = _hand_forward_single_layer(params, tokens)
    assert loss[0] == pytest.approx(want, rel=1e-12)


def test_gradients_match_finite_differences():
    params = M.init_params(TINY, seed=1)
    rng = np.random.default_rng(0)
    seqs = _seqs_covering_vocab(TINY, rng)
    picks = [(name, np.unravel_index(j, arr.shape))
             for name, arr in params.iter_named()
             for j in rng.choice(arr.size, size=min(30, arr.size), replace=False)]
    assert O.finite_difference_check(params, seqs, picks) < 1e-6


def test_tap_reconstruction_equals_gradient():
    params = M.init_params(TINY, seed=3)
    seq = np.random.default_rng(5).integers(0, TINY.vocab_size, size=10).tolist()
    _, cache = _forward(params, seq)
    grads, taps = M.backward(cache)
    by_key = {(t.layer, t.kind): t for t in M.tracked_layers(TINY)}
    assert len(taps) == len(by_key)
    for tap in taps:
        tl = by_key[(tap.layer, tap.kind)]
        rec = tap.delta.T @ tap.x
        np.testing.assert_allclose(rec, M.layer_grad_matrix(grads, tl), atol=1e-12)


def test_each_tracked_layer_is_one_stored_weight():
    params = M.init_params(TINY, seed=3)
    assert [f.name for f in dataclasses.fields(M.BlockParams)] == list(M.WEIGHT_OF_KIND.values())
    _, cache = _forward(params, [1, 2, 3, 4, 5])
    grads, _ = M.backward(cache)
    for tl in M.tracked_layers(TINY):
        name = M.WEIGHT_OF_KIND[tl.kind]
        assert getattr(params.layers[tl.layer], name).shape == (tl.d_out, tl.d_in)
        stored = getattr(grads.layers[tl.layer], name)
        assert np.shares_memory(M.layer_grad_matrix(grads, tl), stored)


def test_qkv_joint_tap_dimensions():
    params = M.init_params(TINY, seed=3)
    _, cache = _forward(params, [1, 2, 3, 4])
    _, taps = M.backward(cache)
    joint = [t for t in taps if t.kind == "qkv-joint"][0]
    assert joint.delta.shape[1] == 3 * TINY.hidden_dim
    assert joint.x.shape[1] == TINY.hidden_dim
    assert joint.x.shape[0] == joint.delta.shape[0] == 4


def test_head_gradient_rows_sum_to_zero_with_uniform_logits():
    params = M.init_params(TINY, seed=0)
    params.head[...] = 0.0
    _, cache = _forward(params, [0, 1, 2, 3])
    grads, _ = M.backward(cache)
    np.testing.assert_allclose(grads.head.sum(axis=0), 0.0, atol=1e-12)


def _grad_of_set(params, seqs):
    return C.collect_factors(params, TokenTable.from_sequences(seqs))[1]


def test_grad_of_set_duplicate_equals_single():
    params = M.init_params(TINY, seed=2)
    s = [1, 5, 2, 8]
    single = _grad_of_set(params, [s])
    double = _grad_of_set(params, [s, s])
    for name in single:
        np.testing.assert_allclose(double[name], single[name], rtol=1e-15)


def test_grad_of_set_linearity():
    params = M.init_params(TINY, seed=2)
    s1, s2 = [1, 5, 2, 8], [3, 3, 9, 0, 4]
    g1 = _grad_of_set(params, [s1])
    g2 = _grad_of_set(params, [s2])
    both = _grad_of_set(params, [s1, s2])
    for name in g1:
        np.testing.assert_allclose(both[name], (g1[name] + g2[name]) / 2.0, rtol=1e-12, atol=1e-15)


def test_grad_of_set_matches_accumulation_oracle():
    params = M.init_params(TINY, seed=4)
    rng = np.random.default_rng(9)
    seqs = [rng.integers(0, TINY.vocab_size, size=rng.integers(3, 9)).tolist() for _ in range(16)]
    got = _grad_of_set(params, seqs)
    registry = M.tracked_layers(TINY)
    acc = {tl.name: np.zeros(tl.flat_dim) for tl in registry}
    for s in seqs:
        one = _grad_of_set(params, [s])
        for name in acc:
            acc[name] += one[name]
    for name in acc:
        np.testing.assert_allclose(got[name], acc[name] / 16.0, rtol=1e-12, atol=1e-16)


def test_causality():
    params = M.init_params(TINY, seed=6)
    seq = [1, 2, 3, 4, 5, 6, 7]
    _, c1 = _forward(params, seq)
    for t in range(1, len(seq)):
        other = list(seq)
        other[t] = (other[t] + 3) % TINY.vocab_size
        _, c2 = _forward(params, other)
        np.testing.assert_array_equal((c1.hn @ params.head.T)[0, :t],
                                      (c2.hn @ params.head.T)[0, :t])


def test_rope_scores_depend_on_relative_offset_only():
    params = M.init_params(TINY, seed=7)
    _, cache = _forward(params, [4] * 9)
    save = cache.layer_saves[0]
    scores = save["qr"][0] @ save["kr"][0].swapaxes(-1, -2)  # (H, T, T) before the mask
    for h in range(TINY.n_heads):
        for i in range(2, 8):
            for j in range(1, i):
                assert scores[h, i, j] == pytest.approx(scores[h, i + 1, j + 1], abs=1e-12)


def test_forward_input_validation():
    params = M.init_params(TINY, seed=0)
    with pytest.raises(DataError, match="length >= 2"):
        _forward(params, [1])
    with pytest.raises(DataError, match="whole sequences"):
        M.forward(params, [1, 2, 3, 4, 5], seq_len=2)
    with pytest.raises(DataError, match="max_context"):
        _forward(params, list(range(5)) * 5)
    with pytest.raises(DataError, match="outside vocab"):
        _forward(params, [0, TINY.vocab_size])


def test_config_validation():
    with pytest.raises(UsageError, match=r"model\.n_heads must divide model\.hidden_dim"):
        M.ModelConfig(hidden_dim=10, n_heads=4)
    with pytest.raises(UsageError, match="even"):
        M.ModelConfig(hidden_dim=12, n_heads=4)  # head_dim 3
    with pytest.raises(UsageError, match=r"^model\.n_layers must be >= 1"):
        M.ModelConfig(n_layers=0)
