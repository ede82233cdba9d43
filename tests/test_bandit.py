import dataclasses
import json
import math

import numpy as np
import pytest

from influence_select import bandit as B
from influence_select.clustering import ClusterModel
from influence_select.errors import DataError


def _cluster_model(sizes):
    assignment = np.concatenate(
        [np.full(n, i, dtype=np.uint32) for i, n in enumerate(sizes)]
    )
    k = len(sizes)
    return ClusterModel(k=k, centroids=np.zeros((k, 1)), assignment=assignment)


def _state(rewards, pulls, alpha=0.002):
    st = B.BanditState(n_clusters=len(rewards), alpha=alpha)
    st.reward[:] = rewards
    st.pulls[:] = pulls
    return st


def test_cluster_score_alpha_zero_is_mean():
    st = _state([0.9, 0.4], [3, 2], alpha=0.0)
    assert B.cluster_scores(st)[0] == pytest.approx(0.3, rel=1e-12)
    assert B.cluster_scores(st)[1] == pytest.approx(0.2, rel=1e-12)


def test_cluster_score_frozen_scalar():
    # independent evaluation of the UCB formula at the default alpha
    st = _state([0.003 * 4, 0.0], [4, 96], alpha=0.002)
    want = 0.003 + 0.002 * math.sqrt(2.0 * math.log(100.0) / 4.0)
    assert want == pytest.approx(0.0060350, abs=5e-7)
    assert B.cluster_scores(st)[0] == pytest.approx(want, rel=1e-12)


def test_cluster_score_prefers_less_visited_on_equal_means():
    st = _state([0.5 * 2, 0.5 * 6], [2, 6], alpha=0.1)
    assert B.cluster_scores(st)[0] > B.cluster_scores(st)[1]


def test_cluster_score_unpulled_is_infinite():
    st = _state([0.0, 1.0], [0, 1])
    assert B.cluster_scores(st)[0] == math.inf
    st.retired[0] = True
    assert B.cluster_scores(st)[0] == -math.inf


def test_pull_constant_scorer_updates_reward_and_count():
    model = _cluster_model([10])
    st = B.BanditState(n_clusters=1, alpha=0.0)
    rec = B.pull_arms(st, model, lambda ids: [0.25] * len(ids), arms=[0], m=3,
                      seed=0, selected=np.zeros(model.count, bool))
    assert st.pulls[0] == 1
    assert st.reward[0] == pytest.approx(0.75, rel=1e-12)
    assert len(rec.pulls) == 1
    assert len(rec.pulls[0].sampled_ids) == 3


def test_fresh_tie_resolves_to_lower_index():
    model = _cluster_model([5, 5])
    cfg = B.BanditConfig(alpha=1.0, tau=-1.0, gamma=0.5, top_k=1, batch_size=1)
    ledger = B.run(cfg, model, lambda ids: [0.0] * len(ids), budget=1, seed=0)
    assert ledger.iterations[0].pulls[0].cluster == 0


def test_pull_batch_excludes_selected_and_retires_exhausted():
    model = _cluster_model([3, 6])
    st = B.BanditState(n_clusters=2, alpha=0.0)
    selected = np.zeros(model.count, bool)
    selected[[0, 1, 2]] = True  # whole cluster 0 already selected
    rec = B.pull_arms(st, model, lambda ids: [1.0] * len(ids), arms=[0, 1], m=4,
                      seed=1, selected=selected)
    assert 0 in rec.newly_retired
    assert st.retired[0]
    assert st.pulls[0] == 0
    pulled = {p.cluster for p in rec.pulls}
    assert pulled == {1}
    assert rec.skipped_pulls == 1
    for p in rec.pulls:
        assert all(i >= 3 for i in p.sampled_ids)


def test_reward_mode_mean():
    model = _cluster_model([10])
    st = B.BanditState(n_clusters=1, alpha=0.0)
    B.pull_arms(st, model, lambda ids: [0.3] * len(ids), arms=[0], m=4, seed=0,
                selected=np.zeros(model.count, bool), reward_mode="mean")
    assert st.reward[0] == pytest.approx(0.3, rel=1e-12)


def test_select_step_nothing_above_tau():
    model = _cluster_model([4, 4])
    st = _state([0.1 * 1, 0.2 * 1], [1, 1])
    ledger = B.SelectionLedger()
    out = B.select_step(st, model, ledger, np.zeros(model.count, bool),
                        gamma=0.5, tau=0.5, seed=0)
    assert out == []
    assert ledger.selected == []


def test_select_step_exact_gamma_fraction():
    model = _cluster_model([100])
    st = _state([1.0], [1])
    ledger = B.SelectionLedger()
    out = B.select_step(st, model, ledger, np.zeros(model.count, bool),
                        gamma=0.05, tau=0.0025, seed=0)
    assert len(out) == 1
    assert len(out[0].ids) == 5
    assert len(ledger.selected) == 5


def test_select_step_threshold_is_strict():
    model = _cluster_model([10, 10])
    tau = 0.0025
    st = _state([tau * 1, (tau + 1e-9) * 1], [1, 1])
    ledger = B.SelectionLedger()
    out = B.select_step(st, model, ledger, np.zeros(model.count, bool),
                        gamma=0.5, tau=tau, seed=0)
    assert [sel.cluster for sel in out] == [1]  # exactly-tau cluster is NOT selected


def test_select_step_minimum_one_when_nonempty():
    model = _cluster_model([3])
    st = _state([1.0], [1])
    ledger = B.SelectionLedger()
    out = B.select_step(st, model, ledger, np.zeros(model.count, bool),
                        gamma=0.01, tau=0.0, seed=0)
    assert len(out[0].ids) == 1


def test_run_budget_zero():
    model = _cluster_model([5, 5])
    cfg = B.BanditConfig(alpha=0.1, tau=0.0, gamma=0.5, top_k=1, batch_size=2)
    ledger = B.run(cfg, model, lambda ids: [1.0] * len(ids), budget=0, seed=0)
    assert ledger.iterations == []
    assert ledger.selected == []
    assert not ledger.truncated


def test_run_single_cluster_fill_schedule():
    n = 64
    model = _cluster_model([n])
    cfg = B.BanditConfig(alpha=0.0, tau=0.5, gamma=0.25, top_k=1, batch_size=4)
    ledger = B.run(cfg, model, lambda ids: [1.0] * len(ids), budget=n, seed=0)
    # closed form: remaining_{t+1} = remaining_t - max(1, floor(0.25 * remaining_t))
    remaining = n
    sizes = []
    while remaining > 0:
        take = min(remaining, max(1, int(0.25 * remaining)))
        sizes.append(take)
        remaining -= take
    got = [sum(len(sel.ids) for sel in rec.selections) for rec in ledger.iterations]
    assert got == sizes
    assert sorted(ledger.selected) == list(range(n))


def test_run_accounting_and_consistency():
    rng = np.random.default_rng(0)
    model = _cluster_model([30] * 6)
    cfg = B.BanditConfig(alpha=0.5, tau=0.2, gamma=0.2, top_k=2, batch_size=5)
    values = rng.normal(0.5, 0.2, size=180)
    ledger = B.run(cfg, model, lambda ids: [float(values[i]) for i in ids], budget=100, seed=1)
    state = ledger.final_state
    total_pulls = sum(len(rec.pulls) for rec in ledger.iterations)
    assert state.pulls.sum() == total_pulls
    expected = sum(cfg.top_k - rec.skipped_pulls for rec in ledger.iterations)
    assert total_pulls == expected
    # R equals the exact sum of ledger batch sums per cluster
    by_cluster = {i: [] for i in range(6)}
    for rec in ledger.iterations:
        for p in rec.pulls:
            by_cluster[p.cluster].append(p.batch_sum)
    for i in range(6):
        assert state.reward[i] == math.fsum(by_cluster[i]) or state.reward[i] == pytest.approx(
            math.fsum(by_cluster[i]), rel=1e-12
        )
    # no duplicate selections, every id in its recorded cluster
    assert len(set(ledger.selected)) == len(ledger.selected)
    for rec in ledger.iterations:
        for sel in rec.selections:
            assert (model.assignment[sel.ids] == sel.cluster).all()


def test_run_determinism():
    model = _cluster_model([20] * 4)
    cfg = B.BanditConfig(alpha=0.3, tau=0.1, gamma=0.3, top_k=2, batch_size=3)
    scorer = lambda ids: [float((i * 2654435761) % 1000) / 1000.0 for i in ids]
    a = B.run(cfg, model, scorer, budget=40, seed=9)
    b = B.run(cfg, model, scorer, budget=40, seed=9)
    assert a.selected == b.selected
    assert json.dumps([r.selected_total for r in a.iterations]) == json.dumps(
        [r.selected_total for r in b.iterations]
    )


def test_run_truncates_when_all_arms_retire():
    model = _cluster_model([4, 4])
    cfg = B.BanditConfig(alpha=0.0, tau=-1.0, gamma=1.0, top_k=2, batch_size=2)
    ledger = B.run(cfg, model, lambda ids: [0.0] * len(ids), budget=8, seed=0)
    assert sorted(ledger.selected) == list(range(8))
    cfg2 = B.BanditConfig(alpha=0.0, tau=1.0, gamma=1.0, top_k=2, batch_size=2,
                          max_rounds=50)
    ledger2 = B.run(cfg2, model, lambda ids: [0.0] * len(ids), budget=8, seed=0)
    assert ledger2.truncated
    assert ledger2.selected == []


def test_run_budget_exceeds_corpus():
    model = _cluster_model([4])
    cfg = B.BanditConfig(top_k=1)
    with pytest.raises(DataError, match="exceeds corpus count"):
        B.run(cfg, model, lambda ids: [0.0] * len(ids), budget=10, seed=0)


def test_run_top_k_exceeds_cluster_count():
    model = _cluster_model([4, 4])
    cfg = B.BanditConfig(top_k=3)
    with pytest.raises(DataError, match="top_k=3 exceeds cluster count 2"):
        B.run(cfg, model, lambda ids: [0.0] * len(ids), budget=0, seed=0)


def test_argmax_invariance_under_constant_shift():
    st = _state([0.3 * 4, 0.9 * 4, 0.1 * 4], [4, 4, 4], alpha=0.05)
    base = B.cluster_scores(st)
    shifted = _state([(0.3 + 7.0) * 4, (0.9 + 7.0) * 4, (0.1 + 7.0) * 4], [4, 4, 4], alpha=0.05)
    np.testing.assert_allclose(B.cluster_scores(shifted), base + 7.0, rtol=1e-12)
    assert np.argmax(B.cluster_scores(shifted)) == np.argmax(base)


def test_planted_influence_composition():
    # one large high-influence blob over clusters 0-2; two mild clusters above
    # tau; three poor clusters below tau that must never be selected
    rng = np.random.default_rng(5)
    sizes = [200, 200, 200, 40, 40, 40, 40, 40]
    bounds = np.cumsum([0] + sizes)
    model = _cluster_model(sizes)
    means = {0: 5.0, 1: 5.0, 2: 5.0, 3: 0.5, 4: 0.5, 5: -0.5, 6: -0.5, 7: -0.5}

    def scorer(ids):
        out = []
        for i in ids:
            c = int(np.searchsorted(bounds, i, side="right") - 1)
            out.append(means[c] + rng.normal(0.0, 0.1))
        return out

    cfg = B.BanditConfig(alpha=0.5, tau=0.2, gamma=0.2, top_k=2, batch_size=8,
                         reward_mode="mean")
    ledger = B.run(cfg, model, scorer, budget=300, seed=3)
    clusters = model.assignment[ledger.selected]
    frac_blob = float(np.mean(clusters <= 2))
    assert frac_blob >= 0.7
    assert len(set(int(c) for c in clusters if c > 2)) >= 2
    assert not any(c >= 5 for c in clusters)


def test_cached_scorer_scores_once():
    calls = []

    def scorer(ids):
        calls.append(list(ids))
        return [float(i) for i in ids]

    cached = B.CachedScorer(scorer)
    assert cached([1, 2, 3]) == [1.0, 2.0, 3.0]
    assert cached([2, 3, 4]) == [2.0, 3.0, 4.0]
    assert [i for chunk in calls for i in chunk] == [1, 2, 3, 4]


def test_ledger_jsonl_round_trip(tmp_path):
    model = _cluster_model([10, 10])
    cfg = B.BanditConfig(alpha=0.1, tau=0.0, gamma=0.5, top_k=1, batch_size=2)
    ledger = B.run(cfg, model, lambda ids: [1.0] * len(ids), budget=10, seed=0)
    lines = [json.loads(l) for l in B.encode_ledger(ledger, fingerprint="fp").splitlines()]
    assert lines[0] == {"config_fingerprint": "fp", "reward_mode": "sum"}
    assert lines[-1]["selected_total"] == len(ledger.selected)
    running = [l["selected_total"] for l in lines[1:-1]]
    assert running == [rec.selected_total for rec in ledger.iterations]
    sel_path = tmp_path / "sel.txt"
    sel_path.write_text(B.encode_selection(ledger, fingerprint="fp"))
    assert B.read_selection(sel_path) == ledger.selected


def test_ledger_lines_are_the_records():
    rng = np.random.default_rng(6)
    model = _cluster_model([12, 9, 15, 6])
    values = rng.normal(0.3, 0.4, size=model.count)
    cfg = B.BanditConfig(alpha=0.5, tau=0.2, gamma=0.3, top_k=2, batch_size=4)
    ledger = B.run(cfg, model, lambda ids: [float(values[i]) for i in ids], budget=30, seed=5)
    assert any(rec.selections for rec in ledger.iterations)
    lines = [json.loads(l) for l in B.encode_ledger(ledger, fingerprint="fp").splitlines()]
    assert len(lines) == len(ledger.iterations) + 2
    for line, rec in zip(lines[1:-1], ledger.iterations):
        assert line == dataclasses.asdict(rec)


def test_ledger_encoding_is_the_asdict_encoding():
    rng = np.random.default_rng(6)
    model = _cluster_model([4, 9, 6, 3])
    values = rng.normal(0.3, 0.4, size=model.count)
    cfg = B.BanditConfig(alpha=0.5, tau=-1.0, gamma=0.5, top_k=2, batch_size=4)
    ledger = B.run(cfg, model, lambda ids: [float(values[i]) for i in ids], budget=22, seed=5)
    for part in ("pulls", "selections", "newly_retired"):
        assert any(getattr(rec, part) for rec in ledger.iterations), part
    lines = B.encode_ledger(ledger, fingerprint="fp").splitlines()
    assert lines[1:-1] == [json.dumps(dataclasses.asdict(rec), sort_keys=True)
                           for rec in ledger.iterations]


@pytest.mark.parametrize("reward_mode", B.REWARD_MODES)
def test_replay_ledger_reproduces_final_state_bitwise(tmp_path, reward_mode):
    rng = np.random.default_rng(4)
    model = _cluster_model([30, 12, 25, 8, 40, 17])
    values = rng.normal(0.3, 0.4, size=model.count)
    cfg = B.BanditConfig(alpha=0.5, tau=0.3, gamma=0.2, top_k=3, batch_size=5,
                         reward_mode=reward_mode)
    ledger = B.run(cfg, model, lambda ids: [float(values[i]) for i in ids], budget=80, seed=2)
    path, sel_path = tmp_path / "ledger.jsonl", tmp_path / "selection.txt"
    path.write_text(B.encode_ledger(ledger, fingerprint="fp"))
    sel_path.write_text(B.encode_selection(ledger, fingerprint="fp"))
    selected, state, trajectory = B.replay_ledger(path, model, sel_path)
    assert selected == ledger.selected
    np.testing.assert_array_equal(state.reward, ledger.final_state.reward)
    np.testing.assert_array_equal(state.pulls, ledger.final_state.pulls)
    pulls = [(rec.iteration, p.cluster) for rec in ledger.iterations for p in rec.pulls]
    assert [(it, ci) for it, ci, _ in trajectory] == pulls
    last = {ci: mean for _, ci, mean in trajectory}
    for ci, mean in last.items():
        assert mean == state.reward[ci] / state.pulls[ci]


def test_simulation_smoke():
    results = B.simulate_policies(n_arms=5, steps=100, trials=3,
                                  policies=("ucb", "topk-greedy", "random"), seed=1)
    assert len(results) == 9
    for res in results:
        assert res.pull_counts.sum() == 100
        assert res.regret.shape == (100,)
        assert np.all(res.regret >= 0.0)


def test_simulation_regret_ordering_smoke():
    results = B.simulate_policies(n_arms=10, steps=400, trials=4,
                                  policies=("ucb", "random"), seed=7)
    ucb = np.mean([r.regret.sum() for r in results if r.policy == "ucb"])
    rnd = np.mean([r.regret.sum() for r in results if r.policy == "random"])
    assert ucb < rnd
