"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines. Tolerances are pinned here and nowhere else.
"""

import json
import math
import time

import numpy as np
import pytest

from influence_select import bandit as B
from influence_select import cli
from influence_select import influence as I
from influence_select import model as M
from influence_select import oracle as O
from influence_select import trainer as T
from influence_select.clustering import kmeans, objective
from influence_select.config import InfluenceConfig
from influence_select.corpus import EmbeddingCorpus, write_embeddings, write_tokens
from influence_select.synthetic import SyntheticSpec, generate


def _report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


# 1 ----------------------------------------------------------------------


def test_acceptance_1_kronecker_ihvp_correctness():
    start = time.time()
    n_pairs = 120
    rows = O.kronecker_identity_suite(np.random.default_rng(2024), cases=n_pairs)
    worst = max(row[4] for row in rows)
    elapsed = time.time() - start
    assert worst <= 1e-10
    assert elapsed < 10.0
    _report(1, f"{n_pairs} SPD pairs x 3 dampings, worst rel err {worst:.2e} "
               f"<= 1e-10 in {elapsed:.1f}s")


# 2 ----------------------------------------------------------------------


def test_acceptance_2_gradient_exactness():
    start = time.time()
    cfg = M.ModelConfig(vocab_size=13, hidden_dim=12, n_layers=2, n_heads=3,
                        max_context=16, mlp_ratio=8.0 / 3.0)
    params = M.init_params(cfg, seed=11)
    every_entry = [(name, idx) for name, arr in params.iter_named() for idx in np.ndindex(arr.shape)]
    n_params = len(every_entry)
    assert n_params <= 10000
    rng = np.random.default_rng(7)
    seqs = [list(range(13))[:10],
            rng.integers(0, 13, size=8).tolist(),
            rng.integers(0, 13, size=9).tolist()]
    worst = O.finite_difference_check(params, seqs, every_entry)
    assert worst <= 1e-6

    # tap reconstruction: vec_rowmajor(sum_t delta_t x_t^T) == layer gradient
    registry = {(tl.layer, tl.kind): tl for tl in M.tracked_layers(cfg)}
    tap_worst = 0.0
    for s in seqs:
        _, cache = M.forward(params, s, seq_len=len(s))
        g, taps = M.backward(cache)
        for tap in taps:
            tl = registry[(tap.layer, tap.kind)]
            rec = tap.delta.T @ tap.x
            tap_worst = max(tap_worst, float(np.max(np.abs(rec - M.layer_grad_matrix(g, tl)))))
    assert tap_worst <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(2, f"central differences over all {n_params} parameters, worst rel err "
               f"{worst:.2e} <= 1e-6; tap reconstruction max abs {tap_worst:.1e} <= 1e-12 "
               f"in {elapsed:.1f}s")


# 3 ----------------------------------------------------------------------


def test_acceptance_3_joint_qkv_structure():
    start = time.time()
    # (a) zero cross-correlation: joint == independent scores
    data = O.make_qkv_study(n_curvature=500, n_candidates=200, d_proj=6, d_in=8,
                            coupling=0.0, seed=5, decorrelate=True)
    _, detail = O.run_qkv_study(data, damping=1e-3)
    rel = np.abs(detail["joint-qkv"] - detail["independent-qkv"]) / np.maximum(
        np.abs(detail["joint-qkv"]), 1e-12
    )
    max_rel = float(rel.max())
    assert max_rel <= 1e-6

    # (b) strong cross-correlation: r(joint) > r(independent) > r(no-hessian)
    data = O.make_qkv_study(n_curvature=4000, n_candidates=200, d_proj=6, d_in=8,
                            coupling=0.85, seed=5)
    reports, _ = O.run_qkv_study(data, damping=1e-3)
    r = {x.method: x.pearson for x in reports}
    assert r["joint-qkv"] > r["independent-qkv"] > r["no-hessian"]
    elapsed = time.time() - start
    assert elapsed < 300.0
    _report(3, f"decorrelated joint==independent (max rel {max_rel:.1e} <= 1e-6); "
               f"correlated ordering r(joint)={r['joint-qkv']:.3f} > "
               f"r(indep)={r['independent-qkv']:.3f} > r(none)={r['no-hessian']:.3f} "
               f"over 200 candidates in {elapsed:.1f}s")


# 4 ----------------------------------------------------------------------


def test_acceptance_4_ucb_behavior():
    start = time.time()
    trials = 100
    results = B.simulate_policies(n_arms=20, steps=1000, trials=trials,
                                  policies=("ucb",), seed=42)
    best_hits = 0
    regret_ok = 0
    for res in results:
        if int(np.argmax(res.pull_counts)) == res.best_arm:
            best_hits += 1
        if res.regret[-100:].mean() < res.regret[:100].mean():
            regret_ok += 1
    elapsed = time.time() - start
    assert best_hits >= 95
    assert regret_ok == trials
    assert elapsed < 30.0
    _report(4, f"20-arm sigma=1 simulation: best arm most pulled in {best_hits}/100 trials "
               f"(>=95); final-100 regret below first-100 in {regret_ok}/100 (all) "
               f"in {elapsed:.1f}s")


# 5 ----------------------------------------------------------------------


def test_acceptance_5_cluster_score_formula():
    alpha = 0.002  # default exploration weight
    state = B.BanditState(n_clusters=2, alpha=alpha)
    state.pulls[:] = [4, 96]
    state.reward[:] = [0.003 * 4, 0.0]
    got = B.cluster_scores(state)[0]
    # independent scalar evaluation of mean + alpha * sqrt(2 ln(total) / T_i)
    want = 0.003 + alpha * math.sqrt(2.0 * math.log(100.0) / 4.0)
    assert abs(got - want) <= 1e-12
    assert got == pytest.approx(0.0060350, abs=5e-7)
    # a second spot check with different numbers
    state2 = B.BanditState(n_clusters=3, alpha=alpha)
    state2.pulls[:] = [7, 11, 2]
    state2.reward[:] = [0.7, -0.22, 0.004]
    total = 20.0
    for i in range(3):
        want_i = state2.reward[i] / state2.pulls[i] + alpha * math.sqrt(
            2.0 * math.log(total) / state2.pulls[i]
        )
        assert abs(B.cluster_scores(state2)[i] - want_i) <= 1e-12
    _report(5, f"UCB formula reproduces independent evaluation to 1e-12 (frozen case "
               f"-> {got:.7f} ~= 0.0060350, alpha=0.002)")


# 6 ----------------------------------------------------------------------


def test_acceptance_6_kmeans():
    rng = np.random.default_rng(100)
    corpus = EmbeddingCorpus(vectors=rng.normal(size=(100, 6)))
    model = kmeans(corpus, k=7, seed=3)
    hist = [objective(kmeans(corpus, k=7, seed=3, max_iters=i), corpus)
            for i in range(1, model.n_iters + 1)]
    assert all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1))
    assert model.converged

    centers = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0], [0.0, 5.0, 0.0]])
    blob_rng = np.random.default_rng(4)
    blob_corpus = EmbeddingCorpus(vectors=np.concatenate(
        [c + blob_rng.normal(0.0, 0.05, size=(70, 3)) for c in centers]))
    labels = np.repeat(np.arange(3), 70)
    bm = kmeans(blob_corpus, k=3, seed=5)
    import itertools

    agree = max(
        float(np.mean(np.array([perm[a] for a in bm.assignment]) == labels))
        for perm in itertools.permutations(range(3))
    )
    assert agree == 1.0
    _report(6, f"objective non-increasing over {len(hist)} Lloyd iterations on 100 random "
               f"instances; 3-blob recovery at {agree:.0%} label agreement")


# 7 ----------------------------------------------------------------------


def test_acceptance_7_jl_sketching():
    start = time.time()
    target_dim = 256
    # eps solves 4 exp(-d (eps^2/4 - eps^3/6)) = 0.01: the norm-preservation tail
    # applied to the polarization identity bounds a unit pair's dot product
    # error by eps except with probability 0.01
    tail = np.log(4.0 / 0.01) / target_dim
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mid * mid / 4.0 - mid ** 3 / 6.0 < tail else (lo, mid)
    eps = hi
    assert eps * eps / 4.0 - eps ** 3 / 6.0 == pytest.approx(tail, rel=1e-6)
    rng = np.random.default_rng(77)
    dim = 2000
    within = 0
    n_pairs = 200
    for pair in range(n_pairs):
        g = rng.normal(size=dim)
        hv = rng.normal(size=dim)
        proj = I.SketchProjector(target_dim=target_dim, seed=pair)
        err = abs(float(I.sketch_vector(proj, "g", g) @ I.sketch_vector(proj, "g", hv))
                  - float(g @ hv))
        if err <= eps * np.linalg.norm(g) * np.linalg.norm(hv):
            within += 1
    assert within >= 0.95 * n_pairs

    g = rng.normal(size=dim)
    hv = rng.normal(size=dim)
    exact = float(g @ hv)
    vals = np.array([
        float(I.sketch_vector(I.SketchProjector(target_dim, seed), "g", g)
              @ I.sketch_vector(I.SketchProjector(target_dim, seed), "g", hv))
        for seed in range(1000)
    ])
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    dev = abs(vals.mean() - exact)
    assert dev <= 3 * se
    elapsed = time.time() - start
    _report(7, f"{within}/{n_pairs} pairs within JL bound eps={eps:.3f} at d=256 (>=95%); "
               f"1000-seed mean deviates {dev:.3g} <= 3*SE={3*se:.3g} in {elapsed:.1f}s")


# 8 ----------------------------------------------------------------------


def _end_to_end_once(master_seed: int):
    seq = np.random.SeedSequence(master_seed)
    s_corpus, s_model, s_cluster, s_select, s_train, s_base = [
        int(x) for x in seq.generate_state(6)
    ]
    data = generate(SyntheticSpec(
        n_instances=10000, embed_dim=16, n_components=64, n_aligned=8,
        vocab_size=64, seq_len=24, n_reference=64, seed=s_corpus,
    ))
    cmodel = kmeans(data.embeddings, k=64, seed=s_cluster, max_iters=50)
    mcfg = M.ModelConfig(vocab_size=64, hidden_dim=32, n_layers=1, n_heads=2,
                         max_context=32, mlp_ratio=2.0)
    params = M.init_params(mcfg, seed=s_model)
    # select's setup: float32 reference pass and scoring parameters, float64 iHVP
    scoring_params, ihvp, _ = I.scoring_setup(params, data.reference,
                                              InfluenceConfig(damping=1e-3))
    tokens = data.instances  # record i is instance i

    def scorer(ids):
        return I.score_batch(tokens.take(ids), ihvp, scoring_params)

    bcfg = B.BanditConfig(alpha=20.0, tau=150.0, gamma=0.05, top_k=8, batch_size=8,
                          reward_mode="mean", max_rounds=300)
    ledger = B.run(bcfg, cmodel, scorer, budget=600, seed=s_select)
    n = len(ledger.selected)

    tcfg = T.TrainConfig(learning_rate=1e-3, batch_size=16, steps=200, seed=s_train)
    quad_loss = T.eval_loss(T.train(params, tokens.take(ledger.selected), tcfg),
                            data.reference)
    rng = np.random.default_rng(s_base)
    rand_ids = [int(i) for i in rng.choice(10000, size=n, replace=False)]
    rand_loss = T.eval_loss(T.train(params, tokens.take(rand_ids), tcfg),
                            data.reference)
    state = ledger.final_state
    means = np.where(state.pulls > 0, state.reward / np.maximum(state.pulls, 1), -np.inf)
    order = np.argsort(-means, kind="stable")
    pool = []
    for ci in order:
        pool.extend(int(i) for i in cmodel.members(int(ci)))
        if len(pool) >= n:
            break
    top_ids = [int(i) for i in rng.choice(np.asarray(pool), size=n, replace=False)]
    top_loss = T.eval_loss(T.train(params, tokens.take(top_ids), tcfg),
                           data.reference)
    return quad_loss, rand_loss, top_loss


def test_acceptance_8_end_to_end_selection_benefit():
    start = time.time()
    beats_random = 0
    beats_topk = 0
    rows = []
    for seed in range(5):
        quad, rand_, top = _end_to_end_once(seed)
        rows.append((seed, quad, rand_, top))
        beats_random += int(quad < rand_)
        beats_topk += int(quad < top)
    elapsed = time.time() - start
    detail = "; ".join(f"seed {s}: quad {q:.3f} rand {r:.3f} topk {t:.3f}"
                       for s, q, r, t in rows)
    assert beats_random >= 4, detail
    assert beats_topk >= 3, detail
    assert elapsed < 900.0
    _report(8, f"selection beats random in {beats_random}/5 seeds (>=4) and top-clusters "
               f"in {beats_topk}/5 (>=3) in {elapsed:.0f}s [{detail}]")


# 9 ----------------------------------------------------------------------


def test_acceptance_9_pipeline_determinism(tmp_path):
    data = generate(SyntheticSpec(
        n_instances=400, embed_dim=8, n_components=8, n_aligned=2, vocab_size=24,
        seq_len=10, n_reference=16, pattern_tokens=6, seed=21,
    ))
    write_embeddings(tmp_path / "embeddings.bin", data.embeddings)
    write_tokens(tmp_path / "tokens.tsv", data.instances)
    write_tokens(tmp_path / "reference.tsv", data.reference)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"paths.embeddings = {tmp_path}/embeddings.bin\n"
        f"paths.tokens = {tmp_path}/tokens.tsv\n"
        f"paths.reference = {tmp_path}/reference.tsv\n"
        f"paths.output_dir = {tmp_path}/out\n"
        "clustering.k = 8\n"
        "model.vocab_size = 24\nmodel.hidden_dim = 16\nmodel.n_layers = 1\n"
        "model.n_heads = 2\nmodel.max_context = 16\nmodel.mlp_ratio = 2.0\n"
        "bandit.alpha = 10.0\nbandit.tau = 20.0\nbandit.gamma = 0.1\n"
        "bandit.top_k = 3\nbandit.batch_size = 6\nbandit.reward_mode = mean\n"
        "selection.budget = 40\ntrainer.steps = 5\ntrainer.batch_size = 8\n"
        "sim.trials = 2\nsim.steps = 60\n"
    )

    def run_all():
        for cmd in ("cluster", "select", "report", "simulate-bandit", "oracle-check"):
            assert cli.main([cmd, "--config", str(cfg)]) == 0
        assert cli.main(["score", "--config", str(cfg), "--ids", "0,3,9"]) == 0
        out = tmp_path / "out"
        return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}

    first = run_all()
    second = run_all()
    assert set(first) == set(second)
    diffs = [name for name in first if first[name] != second[name]]
    assert diffs == []
    assert {"oracle_kronecker.csv", "oracle_gradcheck.csv", "oracle_methods.csv"} <= set(first)
    _report(9, f"re-running cluster/select/report/simulate-bandit/oracle-check/score reproduced "
               f"{len(first)} output files byte-identically")
