import math

import numpy as np
import pytest

from influence_select import model as M
from influence_select import trainer as T
from influence_select.corpus import TokenTable
from influence_select.errors import TrainingDivergedError

CFG = M.ModelConfig(vocab_size=12, hidden_dim=8, n_layers=1, n_heads=2,
                    max_context=16, mlp_ratio=2.0)


def test_zero_learning_rate_leaves_params_unchanged():
    params = M.init_params(CFG, seed=0)
    cfg = T.TrainConfig(learning_rate=0.0, batch_size=2, steps=5, seed=0)
    out = T.train(params, TokenTable.from_sequences([[1, 2, 3], [4, 5, 6]]), cfg)
    for (_, a), (_, b) in zip(params.iter_named(), out.iter_named()):
        np.testing.assert_array_equal(a, b)


def test_same_seed_bitwise_identical():
    params = M.init_params(CFG, seed=1)
    data = [[1, 2, 3, 4], [5, 6, 7], [8, 9, 10, 11]]
    cfg = T.TrainConfig(learning_rate=1e-3, batch_size=2, steps=20, seed=7)
    a = T.train(params, TokenTable.from_sequences(data), cfg)
    b = T.train(params, TokenTable.from_sequences(data), cfg)
    for (_, x), (_, y) in zip(a.iter_named(), b.iter_named()):
        np.testing.assert_array_equal(x, y)


def test_overfits_memorizable_set():
    rng = np.random.default_rng(3)
    params = M.init_params(CFG, seed=2)
    pool = [rng.integers(0, 12, size=8).tolist() for _ in range(6)]
    data = [pool[i % len(pool)] for i in range(50)]
    cfg = T.TrainConfig(learning_rate=2e-3, batch_size=16, steps=200, seed=0)
    initial = T.eval_loss(params, TokenTable.from_sequences(data))
    out = T.train(params, TokenTable.from_sequences(data), cfg)
    final = T.eval_loss(out, TokenTable.from_sequences(data))
    assert final < 0.5 * initial


def test_adam_step_matches_hand_computation():
    # scalar quadratic f(x) = x^2 at x=3: grad 6; hand recurrence in float64
    b1, b2, lr, eps = 0.9, 0.95, 0.1, 1e-8
    cfg = T.TrainConfig(learning_rate=lr, batch_size=1, steps=1, seed=0)
    x = np.array(3.0)
    m = np.array(0.0)
    v = np.array(0.0)
    got = T.adam_step(x, np.array(6.0), m, v, t=1, cfg=cfg)
    hm = b1 * 0.0 + (1.0 - b1) * 6.0
    hv = b2 * 0.0 + (1.0 - b2) * 36.0
    want = 3.0 - lr * (hm / (1.0 - b1)) / (math.sqrt(hv / (1.0 - b2)) + eps)
    assert float(got) == pytest.approx(want, abs=1e-12)
    assert float(m) == pytest.approx(hm, abs=1e-15)
    assert float(v) == pytest.approx(hv, abs=1e-15)
    # second step continues the moments
    got2 = T.adam_step(got, np.array(2.0), m, v, t=2, cfg=cfg)
    hm2 = b1 * hm + (1.0 - b1) * 2.0
    hv2 = b2 * hv + (1.0 - b2) * 4.0
    want2 = float(got) - lr * (hm2 / (1.0 - b1**2)) / (math.sqrt(hv2 / (1.0 - b2**2)) + eps)
    assert float(got2) == pytest.approx(want2, abs=1e-12)


def test_eval_loss_uniform_model():
    params = M.init_params(CFG, seed=0)
    params.head[...] = 0.0
    ref = TokenTable.from_sequences([[1, 2, 3], [4, 5]])
    assert T.eval_loss(params, ref) == pytest.approx(math.log(12), rel=1e-12)


def test_eval_loss_duplicated_set():
    params = M.init_params(CFG, seed=4)
    seqs = [[1, 2, 3], [4, 5, 6]]
    once, twice = TokenTable.from_sequences(seqs), TokenTable.from_sequences(seqs + seqs)
    assert T.eval_loss(params, once) == pytest.approx(T.eval_loss(params, twice), rel=1e-14)


def test_eval_loss_matches_accumulation_oracle():
    params = M.init_params(CFG, seed=5)
    rng = np.random.default_rng(1)
    seqs = [rng.integers(0, 12, size=rng.integers(2, 9)).tolist() for _ in range(9)]
    per = [M.forward(params, s, seq_len=len(s))[0][0] for s in seqs]
    got = T.eval_loss(params, TokenTable.from_sequences(seqs))
    assert got == pytest.approx(sum(per) / len(per), rel=1e-12)


def test_eval_loss_permutation_invariant():
    params = M.init_params(CFG, seed=6)
    rng = np.random.default_rng(2)
    seqs = [rng.integers(0, 12, size=6).tolist() for _ in range(12)]
    base = T.eval_loss(params, TokenTable.from_sequences(seqs))
    for _ in range(3):
        perm = [seqs[i] for i in rng.permutation(len(seqs))]
        # exact: fsum is order-invariant
        assert T.eval_loss(params, TokenTable.from_sequences(perm)) == base


def test_divergence_guard():
    params = M.init_params(CFG, seed=7)
    cfg = T.TrainConfig(learning_rate=50.0, batch_size=4, steps=200, seed=0)
    rng = np.random.default_rng(3)
    data = [rng.integers(0, 12, size=6).tolist() for _ in range(16)]
    with pytest.raises(TrainingDivergedError):
        T.train(params, TokenTable.from_sequences(data), cfg)


def test_non_finite_training_loss_names_the_step():
    params = M.init_params(CFG, seed=7)
    cfg = T.TrainConfig(learning_rate=1e300, batch_size=4, steps=20, seed=0)
    rng = np.random.default_rng(3)
    data = [rng.integers(0, 12, size=6).tolist() for _ in range(16)]
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError,
                                                  match=r"non-finite loss .* at step \d+"):
        T.train(params, TokenTable.from_sequences(data), cfg)


def test_non_finite_eval_loss_names_the_evaluation_set():
    params = M.init_params(CFG, seed=0)
    params.head[0, 0] = np.nan
    with pytest.raises(TrainingDivergedError,
                       match="non-finite loss nan on the evaluation set of 2 sequences"):
        T.eval_loss(params, TokenTable.from_sequences([[1, 2, 3], [4, 5]]))
