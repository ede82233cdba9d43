"""Chunked (B, T) engine calls against one-sequence chunks of the same engine."""

import math

import numpy as np
import pytest

from influence_select import bandit as B
from influence_select import curvature as C
from influence_select import influence as I
from influence_select import model as M
from influence_select.clustering import ClusterModel
from influence_select.corpus import TokenTable

CFG = M.ModelConfig(vocab_size=11, hidden_dim=8, n_layers=2, n_heads=2,
                    max_context=16, mlp_ratio=2.0)


@pytest.fixture(params=[None, 48], ids=["default-chunk", "48-token-chunk"])
def chunk_tokens(request, monkeypatch):
    """Run at the module's chunk size and at one small enough that several
    buckets split into full and partial chunks."""
    if request.param is not None:
        monkeypatch.setattr(M, "CHUNK_TOKENS", request.param)
    return M.CHUNK_TOKENS


def _ragged_sequences(n=37, seed=0):
    """Lengths spread over 2..max_context, with length 7 crowded; tokens drawn
    from a few ids so the embedding scatter-add sees repeats."""
    rng = np.random.default_rng(seed)
    lengths = [7] * 12 + [2 + i % (CFG.max_context - 1) for i in range(n - 12)]
    order = rng.permutation(len(lengths))
    return [rng.integers(0, 4, size=lengths[i]).tolist() for i in order]


def _rel(got, want):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(got - want))) / scale


def test_chunks_cover_every_sequence_once_in_bucket_order(chunk_tokens):
    seqs = _ragged_sequences()
    seen = []
    full = partial = 0
    for pos, tokens in M.chunks(TokenTable.from_sequences(seqs)):
        per_call = max(1, chunk_tokens // tokens.shape[1])
        assert tokens.shape[0] == pos.size <= per_call
        full += pos.size == per_call
        partial += pos.size < per_call
        assert list(pos) == sorted(pos)  # input order inside a bucket
        for p, row in zip(pos, tokens):
            assert row.tolist() == seqs[p]
        seen.extend(int(p) for p in pos)
    assert sorted(seen) == list(range(len(seqs)))
    assert partial > 0
    if chunk_tokens == 48:
        assert full > 0  # the 14 length-7 sequences split 6 + 6 + 2
    assert list(M.chunks(TokenTable.from_sequences([]))) == []


def _check_chunked_engine_against_single_sequence_calls(dtype, grad_sum_rel):
    """Losses and taps bitwise equal; summed parameter gradients within
    ``grad_sum_rel``, since chunk and one-sequence sums add in other orders."""
    params = M.init_params(CFG, seed=3).astype(dtype)
    seqs = _ragged_sequences()
    worst = 0.0
    for pos, tokens in M.chunks(TokenTable.from_sequences(seqs)):
        n_seq, T = tokens.shape
        losses, cache = M.forward(params, tokens.ravel(), seq_len=T)
        grads, taps = M.backward(cache)
        assert losses.shape == (n_seq,)
        want = M.zeros_like_params(params)
        for b, p in enumerate(pos):
            loss, one = M.forward(params, seqs[p], seq_len=T)
            g, one_taps = M.backward(one)
            assert losses[b] == loss[0]
            for tap, one_tap in zip(taps, one_taps):
                assert (tap.layer, tap.kind) == (one_tap.layer, one_tap.kind)
                np.testing.assert_array_equal(tap.x.reshape(n_seq, T, -1)[b], one_tap.x)
                np.testing.assert_array_equal(tap.delta.reshape(n_seq, T, -1)[b], one_tap.delta)
            for (_, acc), (_, arr) in zip(want.iter_named(), g.iter_named()):
                acc += arr
        for (name, got), (_, ref) in zip(grads.iter_named(), want.iter_named()):
            worst = max(worst, _rel(got, ref))
    assert worst <= grad_sum_rel, worst


def test_chunked_engine_matches_single_sequence_calls(chunk_tokens):
    _check_chunked_engine_against_single_sequence_calls(np.float64, 1e-12)


def test_chunked_float32_engine_matches_single_sequence_calls(chunk_tokens):
    _check_chunked_engine_against_single_sequence_calls(np.float32, 1e-5)


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
def test_engine_arrays_take_the_parameters_dtype(dtype):
    params = M.init_params(CFG, seed=2).astype(dtype)
    for pos, tokens in M.chunks(TokenTable.from_sequences(_ragged_sequences(seed=5))):
        losses, cache = M.forward(params, tokens.ravel(), seq_len=tokens.shape[1])
        grads, taps = M.backward(cache)
        arrays = [losses, cache.h_final, cache.ms_final, cache.hn, cache.probs,
                  *(a for save in cache.layer_saves for a in save.values()),
                  *(a for _, a in grads.iter_named()),
                  *(a for t in taps for a in (t.x, t.delta, M.sequence_grads(t, pos.size)))]
        assert {a.dtype for a in arrays} == {np.dtype(dtype)}
        assert cache.tokens.dtype == np.int64


def test_sequence_grads_equal_parameter_gradients(chunk_tokens):
    params = M.init_params(CFG, seed=4)
    seqs = _ragged_sequences(seed=1)
    for pos, taps in M.chunk_taps(params, TokenTable.from_sequences(seqs)):
        for tl, tap in zip(M.tracked_layers(CFG), taps):
            per_seq = M.sequence_grads(tap, pos.size)
            for b, p in enumerate(pos):
                want = M.grad_of_sequence(params, seqs[p])[tl.name]
                np.testing.assert_array_equal(per_seq[b].ravel(), want)


def test_taps_equal_with_and_without_parameter_gradients():
    params = M.init_params(CFG, seed=6)
    for _, tokens in M.chunks(TokenTable.from_sequences(_ragged_sequences(seed=2))):
        _, cache = M.forward(params, tokens.ravel(), seq_len=tokens.shape[1])
        grads, want = M.backward(cache, param_grads=True)
        none, got = M.backward(cache, param_grads=False)
        assert grads is not None and none is None
        assert [(t.layer, t.kind) for t in got] == [(t.layer, t.kind) for t in want]
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.x, w.x)
            np.testing.assert_array_equal(g.delta, w.delta)


def test_backward_emits_taps_in_tracked_layer_order():
    """chunk_taps, collect_factors and score_batch zip backward's taps with
    tracked_layers: layer-major, then TAP_KINDS."""
    params = M.init_params(CFG, seed=9)
    want = [(tl.layer, tl.kind) for tl in M.tracked_layers(CFG)]
    assert CFG.n_layers == 2
    for _, tokens in M.chunks(TokenTable.from_sequences(_ragged_sequences(seed=4))):
        _, cache = M.forward(params, tokens.ravel(), seq_len=tokens.shape[1])
        for param_grads in (True, False):
            _, taps = M.backward(cache, param_grads=param_grads)
            assert [(t.layer, t.kind) for t in taps] == want


def _plain_softmax(s, mask):
    m = np.where(mask, s, -np.inf)
    e = np.exp(m - m.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("masked", [False, True], ids=["rows", "causal"])
def test_softmax_helper_is_bitwise_the_plain_expression(masked):
    rng = np.random.default_rng(7)
    T = 37  # odd, so rows straddle SIMD widths
    s = rng.normal(size=(3, 2, T, T)) * np.exp(rng.uniform(-8, 8, size=(3, 2, T, 1)))
    mask = M._causal_mask(T) if masked else np.ones((T, T), dtype=bool)
    want = _plain_softmax(s, mask)
    got = M._softmax(s.copy(), mask if masked else None)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_masked_attention_entries_are_exactly_zero():
    params = M.init_params(CFG, seed=8)
    T = CFG.max_context
    tokens = np.random.default_rng(8).integers(0, CFG.vocab_size, size=3 * T)
    _, cache = M.forward(params, tokens, seq_len=T)
    above = ~M._causal_mask(T)
    for save in cache.layer_saves:
        attn = save["attn"]
        assert (attn[..., above] == 0.0).all() and not np.signbit(attn[..., above]).any()
        assert (attn[..., ~above] > 0.0).all()


def test_score_batch_rows_keep_input_order(chunk_tokens):
    params = M.init_params(CFG, seed=5)
    seqs = _ragged_sequences(seed=2)
    factors, ref_grad = C.collect_factors(params, TokenTable.from_sequences(seqs[:6]))
    inverses = {n: C.inverse_of_factor(f, 1e-3) for n, f in factors.items()}
    ihvp = I.reference_ihvp(ref_grad, inverses)
    ids = list(range(100, 100 + len(seqs)))[::-1]
    instances = TokenTable.from_sequences(seqs, ids=ids)
    scores = I.score_batch(instances, ihvp, params)
    assert len(scores) == len(ids)
    for r, score in enumerate(scores):
        assert score == I.score_batch(instances.take([r]), ihvp, params)[0]


def test_collect_factors_reference_gradient_in_the_same_pass():
    params = M.init_params(CFG, seed=6)
    registry = M.tracked_layers(CFG)
    seqs = _ragged_sequences(seed=3)
    factors, grad = C.collect_factors(params, TokenTable.from_sequences(seqs))
    for tl in registry:
        assert factors[tl.name].sample_count == sum(len(s) for s in seqs)
        # per-sequence parameter-gradient oracle for the reference gradient
        want = sum(M.grad_of_sequence(params, s)[tl.name] for s in seqs) / len(seqs)
        assert _rel(grad[tl.name], want) <= 1e-12
    # per-sequence accumulation oracle for the factors themselves
    for tl in registry:
        acc = np.zeros((tl.d_out, tl.d_out))
        for s in seqs:
            _, cache = M.forward(params, s, seq_len=len(s))
            _, taps = M.backward(cache)
            tap = [t for t in taps if (t.layer, t.kind) == (tl.layer, tl.kind)][0]
            acc += tap.delta.T @ tap.delta
        assert _rel(factors[tl.name].delta_sum, acc) <= 1e-12


# ------------------------------------------------------------------ bandit


def _per_pull_arms(state, model, scorer, arms, m, seed, selected, iteration=0,
                   reward_mode="sum"):
    """Reference iteration that scores each pulled cluster with its own call."""
    rng = np.random.default_rng(seed)
    rec = B.IterationRecord(iteration=iteration)
    selected = set(np.flatnonzero(selected).tolist())
    for ci in arms:
        if state.retired[ci]:
            rec.skipped_pulls += 1
            continue
        members = model.members(ci)
        avail = members[np.array([i not in selected for i in members], dtype=bool)]
        if avail.size == 0:
            state.retired[ci] = True
            rec.newly_retired.append(ci)
            rec.skipped_pulls += 1
            continue
        ids = [int(x) for x in rng.choice(avail, size=min(m, avail.size), replace=False)]
        batch_sum = float(math.fsum(scorer(ids)))
        state.reward[ci] += batch_sum if reward_mode == "sum" else batch_sum / len(ids)
        state.pulls[ci] += 1
        rec.pulls.append(B.PullRecord(cluster=ci, sampled_ids=ids, batch_sum=batch_sum))
    return rec


def test_bandit_scores_once_per_iteration_with_an_unchanged_ledger(monkeypatch):
    sizes = [30, 12, 25, 8, 40, 17]
    assignment = np.concatenate([np.full(n, i, dtype=np.uint32) for i, n in enumerate(sizes)])
    model = ClusterModel(k=len(sizes), centroids=np.zeros((len(sizes), 1)),
                         assignment=np.random.default_rng(0).permutation(assignment))
    values = np.random.default_rng(1).normal(size=assignment.size)
    cfg = B.BanditConfig(alpha=0.5, tau=0.1, gamma=0.2, top_k=3, batch_size=5,
                         reward_mode="mean")
    calls = []

    def scorer(ids):
        calls.append(list(ids))
        return [float(values[i]) for i in ids]

    batched = B.run(cfg, model, scorer, budget=60, seed=11)
    seen: set[int] = set()
    want_calls = []
    for rec in batched.iterations:
        fresh = [i for p in rec.pulls for i in p.sampled_ids if i not in seen]
        seen.update(fresh)
        if fresh:
            want_calls.append(fresh)
    assert calls == want_calls  # one call per iteration, pulls in arm order
    assert len(batched.iterations) > 3

    monkeypatch.setattr(B, "pull_arms", _per_pull_arms)
    per_pull = B.run(cfg, model, scorer, budget=60, seed=11)
    assert B.encode_ledger(batched, fingerprint="fp") == B.encode_ledger(per_pull, fingerprint="fp")
