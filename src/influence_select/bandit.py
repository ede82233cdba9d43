"""Quality-diversity selection loop: UCB over clusters.

Each cluster is an arm. A pull samples a small batch from the cluster,
scores it with the influence callback, and adds the batch reward to the
arm's cumulative total. Selection sweeps all estimated clusters and takes a
gamma-fraction of the remaining members of every cluster whose mean reward
clears the threshold tau (strict inequality).

Unpulled arms score +inf so every arm is tried before exploitation; an arm
whose members are all selected is retired (-inf). Each instance is scored
at most once per run: the driver caches scores by instance id.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from .clustering import ClusterModel
from .errors import DataError, UsageError

REWARD_MODES = ("sum", "mean")


@dataclass
class BanditConfig:
    alpha: float = 0.002
    tau: float = 0.0025
    gamma: float = 0.05
    top_k: int = 4
    batch_size: int = 32  # m: instances sampled per pulled cluster
    reward_mode: str = "sum"
    max_rounds: int = 100000

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise UsageError(f"bandit.gamma must be in (0, 1], got {self.gamma!r}")
        if self.reward_mode not in REWARD_MODES:
            raise UsageError(f"bandit.reward_mode must be one of {REWARD_MODES}, "
                             f"got {self.reward_mode!r}")
        for key in ("top_k", "batch_size", "max_rounds"):
            if getattr(self, key) < 1:
                raise UsageError(f"bandit.{key} must be >= 1, got {getattr(self, key)}")


@dataclass
class BanditState:
    n_clusters: int
    alpha: float
    reward: np.ndarray = field(init=False)  # R: cumulative batch reward per cluster
    pulls: np.ndarray = field(init=False)  # T: pull count per cluster
    retired: np.ndarray = field(init=False)

    def __post_init__(self):
        self.reward = np.zeros(self.n_clusters)
        self.pulls = np.zeros(self.n_clusters, dtype=np.int64)
        self.retired = np.zeros(self.n_clusters, dtype=bool)


def cluster_scores(state: BanditState) -> np.ndarray:
    """Mean reward plus the UCB exploration bonus, for every arm.

    Unpulled arms score +inf (forced exploration); retired arms -inf.
    """
    scores = np.full(state.n_clusters, np.inf)
    total = float(state.pulls.sum())
    pulled = state.pulls > 0
    if pulled.any():
        t = state.pulls[pulled].astype(np.float64)
        scores[pulled] = state.reward[pulled] / t + state.alpha * np.sqrt(
            2.0 * np.log(total) / t
        )
    scores[state.retired] = -np.inf
    return scores


@dataclass
class PullRecord:
    cluster: int
    sampled_ids: list[int]
    batch_sum: float


@dataclass
class IterationRecord:
    iteration: int
    pulls: list[PullRecord] = field(default_factory=list)
    selections: list[tuple[int, list[int]]] = field(default_factory=list)  # (cluster, ids)
    newly_retired: list[int] = field(default_factory=list)
    skipped_pulls: int = 0
    selected_total: int = 0


@dataclass
class SelectionLedger:
    iterations: list[IterationRecord] = field(default_factory=list)
    selected: list[int] = field(default_factory=list)  # selection order
    truncated: bool = False
    final_state: BanditState | None = None
    reward_mode: str = "sum"  # how the pulls' batch rewards were credited


class CachedScorer:
    """Score each instance at most once; repeated requests reuse the cache."""

    def __init__(self, scorer):
        self._scorer = scorer
        self.cache: dict[int, float] = {}

    def __call__(self, ids: list[int]) -> list[float]:
        fresh = [i for i in ids if i not in self.cache]
        if fresh:
            for i, s in zip(fresh, self._scorer(fresh)):
                self.cache[i] = float(s)
        return [self.cache[i] for i in ids]


def _top_k_by_score(scores: np.ndarray, k: int) -> list[int]:
    # ties (including +inf vs +inf) break toward the lower cluster index
    order = np.argsort(-scores, kind="stable")
    return [int(i) for i in order[:k]]


def _unselected(members: np.ndarray, selected: np.ndarray) -> np.ndarray:
    return members[~selected[members]]


def _credit(state: BanditState, ci: int, batch_sum: float, n: int, reward_mode: str) -> None:
    """R += reward, T += 1; the reward is the batch sum, or in mean mode the
    batch mean."""
    state.reward[ci] += batch_sum / n if reward_mode == "mean" and n else batch_sum
    state.pulls[ci] += 1


def pull_arms(
    state: BanditState,
    model: ClusterModel,
    scorer,
    arms: list[int],
    m: int,
    seed: int,
    selected: np.ndarray,
    iteration: int = 0,
    reward_mode: str = "sum",
) -> IterationRecord:
    """Pull each arm in ``arms``, in order.

    Samples up to m members from each arm that the boolean mask ``selected``
    (over the pool's ids) leaves unmarked, without replacement within the
    batch; scores every batch in one scorer call, and credits the rewards in
    pull order. Exhausted arms are retired and logged as skipped pulls.
    """
    rng = np.random.default_rng(seed)
    rec = IterationRecord(iteration=iteration)
    batches: list[tuple[int, list[int]]] = []
    for ci in arms:
        if state.retired[ci]:
            rec.skipped_pulls += 1
            continue
        avail = _unselected(model.members(ci), selected)
        if avail.size == 0:
            state.retired[ci] = True
            rec.newly_retired.append(ci)
            rec.skipped_pulls += 1
            continue
        take = min(m, avail.size)
        batches.append((ci, [int(x) for x in rng.choice(avail, size=take, replace=False)]))
    scores = scorer([i for _, ids in batches for i in ids]) if batches else []
    start = 0
    for ci, ids in batches:
        batch_sum = float(math.fsum(scores[start : start + len(ids)]))
        start += len(ids)
        _credit(state, ci, batch_sum, len(ids), reward_mode)
        rec.pulls.append(PullRecord(cluster=ci, sampled_ids=ids, batch_sum=batch_sum))
    return rec


def select_step(
    state: BanditState,
    model: ClusterModel,
    ledger: SelectionLedger,
    selected: np.ndarray,
    gamma: float,
    tau: float,
    seed: int,
) -> list[tuple[int, list[int]]]:
    """Add a gamma-fraction of remaining members from every pulled cluster
    whose mean reward strictly exceeds tau to ``ledger.selected``, marking
    them in the mask ``selected``."""
    rng = np.random.default_rng(seed)
    out: list[tuple[int, list[int]]] = []
    for ci in range(state.n_clusters):
        if state.pulls[ci] == 0 or not state.reward[ci] / state.pulls[ci] > tau:
            continue
        avail = _unselected(model.members(ci), selected)
        if avail.size == 0:
            continue
        take = min(avail.size, max(1, int(math.floor(gamma * avail.size))))
        ids = [int(x) for x in rng.choice(avail, size=take, replace=False)]
        ledger.selected.extend(ids)
        selected[ids] = True
        out.append((ci, ids))
    return out


def check_run(cfg: BanditConfig, model: ClusterModel, budget: int) -> None:
    """What ``run`` needs of its inputs: a budget the pool can cover and no
    more arms per iteration than clusters. ``select`` calls it before
    curvature setup, so bad inputs fail fast."""
    if budget < 0:
        raise UsageError("budget must be non-negative")
    if budget > model.count:
        raise DataError(f"budget {budget} exceeds corpus count {model.count}")
    if cfg.top_k > model.k:
        raise DataError(f"top_k={cfg.top_k} exceeds cluster count {model.k}")


def run(
    cfg: BanditConfig,
    model: ClusterModel,
    scorer,
    budget: int,
    seed: int = 0,
) -> SelectionLedger:
    """Alternate UCB pulls of the top_k arms and select_step until the budget
    is met.

    Returns a ledger flagged truncated when every arm retires (or the round
    cap trips) before the budget is reached.
    """
    check_run(cfg, model, budget)
    state = BanditState(n_clusters=model.k, alpha=cfg.alpha)
    ledger = SelectionLedger(reward_mode=cfg.reward_mode)
    selected = np.zeros(model.count, dtype=bool)
    cached = scorer if isinstance(scorer, CachedScorer) else CachedScorer(scorer)
    iteration = 0
    while len(ledger.selected) < budget:
        if state.retired.all() or iteration >= cfg.max_rounds:
            ledger.truncated = True
            break
        pull_seed = _derive_seed(seed, iteration, 0)
        select_seed = _derive_seed(seed, iteration, 1)
        arms = _top_k_by_score(cluster_scores(state), cfg.top_k)
        rec = pull_arms(
            state, model, cached, arms, cfg.batch_size, pull_seed,
            selected, iteration=iteration, reward_mode=cfg.reward_mode,
        )
        rec.selections = select_step(state, model, ledger, selected, cfg.gamma, cfg.tau,
                                     select_seed)
        rec.selected_total = len(ledger.selected)
        ledger.iterations.append(rec)
        iteration += 1
    ledger.final_state = state
    return ledger


def _derive_seed(seed: int, iteration: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed & 0xFFFFFFFF, iteration, stream]).generate_state(1)[0])


def write_ledger_jsonl(path, ledger: SelectionLedger, fingerprint: str) -> None:
    """A header record (fingerprint and reward mode), one JSON record per
    iteration, then a summary record."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps({"config_fingerprint": fingerprint,
                             "reward_mode": ledger.reward_mode}, sort_keys=True) + "\n")
        for rec in ledger.iterations:
            fh.write(
                json.dumps(
                    {
                        "iteration": rec.iteration,
                        "pulls": [
                            {"cluster": p.cluster, "sampled_ids": p.sampled_ids,
                             "batch_sum": p.batch_sum}
                            for p in rec.pulls
                        ],
                        "selections": [
                            {"cluster": c, "ids": ids} for c, ids in rec.selections
                        ],
                        "newly_retired": rec.newly_retired,
                        "skipped_pulls": rec.skipped_pulls,
                        "selected_total": rec.selected_total,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
        fh.write(
            json.dumps(
                {"truncated": ledger.truncated, "selected_total": len(ledger.selected)},
                sort_keys=True,
            )
            + "\n"
        )


def write_selection(path, ledger: SelectionLedger, fingerprint: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config_fingerprint={fingerprint}\n")
        for i in ledger.selected:
            fh.write(f"{i}\n")


def read_selection(path, count: int | None = None) -> list[int]:
    """Selected ids in file order. Each must appear once and, with ``count``,
    be a row of a ``count``-row corpus; errors name the file and line."""
    out: list[int] = []
    seen: set[int] = set()
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                i = int(line)
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad instance id {line!r}") from None
            if count is not None and not 0 <= i < count:
                raise DataError(f"{path}:{lineno}: instance id {i} has no embedding row "
                                f"(corpus count {count})")
            if i in seen:
                raise DataError(f"{path}:{lineno}: duplicate instance id {i}")
            seen.add(i)
            out.append(i)
    return out


def replay_ledger(path, model: ClusterModel):
    """Replay the pulls of a ledger written by ``write_ledger_jsonl``, crediting
    them under the reward mode its header record names.

    Returns ``(state, trajectory)``: the arms' reward and pull counts as
    ``run`` left them (alpha and retirements are not recorded, so alpha is 0
    and no arm is retired), and one ``(iteration, cluster, mean reward)`` row
    per pull, in file order. Every record between the header and the last
    (summary) one has an iteration; iterations are non-decreasing
    non-negative ints; a pull names a cluster of ``model``, a non-empty list
    of its members as ``sampled_ids`` and a finite ``batch_sum``. Errors name
    the file and line.
    """
    state = BanditState(n_clusters=model.k, alpha=0.0)
    trajectory = []
    last = 0
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        try:
            head = json.loads(fh.readline())
        except ValueError:
            head = None
        reward_mode = head.get("reward_mode") if isinstance(head, dict) else None
        if reward_mode not in REWARD_MODES:
            raise DataError(f"{path}:1: header record has reward_mode {reward_mode!r}, "
                            f"expected one of {REWARD_MODES}")
        body = fh.readlines()
        for lineno, line in enumerate(body, start=2):
            where = f"{path}:{lineno}"
            try:
                rec = json.loads(line)
            except ValueError:
                raise DataError(f"{where}: not a JSON record") from None
            if not isinstance(rec, dict):
                raise DataError(f"{where}: not a JSON object")
            if "iteration" not in rec:
                if lineno == len(body) + 1:
                    continue
                raise DataError(f"{where}: record has no iteration "
                                "(only the last, summary record may lack one)")
            it = rec["iteration"]
            if type(it) is not int or it < last:
                raise DataError(f"{where}: iteration {it!r}: expected an int >= {last} "
                                "(iterations start at 0 and never decrease)")
            last = it
            try:
                pulls = [(p["cluster"], p["sampled_ids"], p["batch_sum"])
                         for p in rec.get("pulls", [])]
            except (KeyError, TypeError):
                raise DataError(f"{where}: malformed pull record") from None
            for ci, ids, batch_sum in pulls:
                if type(ci) is not int or not 0 <= ci < model.k:
                    raise DataError(f"{where}: pull of cluster {ci!r}, "
                                    f"outside [0, k={model.k})")
                if type(batch_sum) not in (int, float) or not math.isfinite(batch_sum):
                    raise DataError(f"{where}: batch_sum {batch_sum!r} of cluster {ci} "
                                    "is not a finite number")
                if not isinstance(ids, list) or not ids:
                    raise DataError(f"{where}: sampled_ids of cluster {ci} is not a non-empty list")
                for i in ids:
                    if type(i) is not int or not 0 <= i < model.count or model.assignment[i] != ci:
                        raise DataError(f"{where}: sampled id {i!r} is not a member of cluster {ci}")
                _credit(state, ci, float(batch_sum), len(ids), reward_mode)
                trajectory.append((it, ci, state.reward[ci] / state.pulls[ci]))
    return state, trajectory


# ------------------------------------------------------------- simulation


POLICIES = ("ucb", "topk-greedy", "random")


@dataclass
class SimResult:
    policy: str
    trial: int
    pull_counts: np.ndarray
    regret: np.ndarray  # per-step expected regret
    best_arm: int


def simulate_policies(
    n_arms: int,
    steps: int,
    trials: int,
    policies=POLICIES,
    alpha: float = 1.0,
    sigma: float = 1.0,
    members_per_arm: int = 400,
    seed: int = 0,
    best_mean: float = 2.5,
    spread: float = 1.8,
) -> list[SimResult]:
    """Arm-identification benchmark on planted Gaussian rewards.

    Every arm is a synthetic cluster of ``members_per_arm`` instances whose
    influence values are fixed draws from N(mean_i, sigma^2); one trial runs
    ``steps`` single-cluster pulls with batch size 1 through the same
    ``pull_arms`` the real pipeline uses. Arm means are a shuffled
    ladder: one arm at ``best_mean``, the rest evenly spaced on [0, spread].
    """
    results: list[SimResult] = []
    for trial in range(trials):
        trial_rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, trial]))
        means = np.concatenate([[best_mean], np.linspace(0.0, spread, n_arms - 1)])
        means = trial_rng.permutation(means)
        best_arm = int(np.argmax(means))
        values = means[:, None] + sigma * trial_rng.normal(size=(n_arms, members_per_arm))
        assignment = np.repeat(np.arange(n_arms, dtype=np.uint32), members_per_arm)
        model = ClusterModel(k=n_arms, centroids=np.zeros((n_arms, 1)), assignment=assignment)
        # no id is ever selected here, so no arm runs dry
        none_selected = np.zeros(model.count, dtype=bool)

        def scorer(ids):
            return [float(values[i // members_per_arm, i % members_per_arm]) for i in ids]

        for policy in policies:
            state = BanditState(n_clusters=n_arms, alpha=alpha)
            cached = CachedScorer(scorer)
            policy_rng = np.random.default_rng(
                np.random.SeedSequence(
                    [seed & 0xFFFFFFFF, trial, zlib.crc32(policy.encode("utf-8"))]
                )
            )
            regret = np.zeros(steps)
            for step in range(steps):
                if policy == "ucb":
                    arm = _top_k_by_score(cluster_scores(state), 1)[0]
                elif policy == "topk-greedy":
                    unpulled = np.flatnonzero(state.pulls == 0)
                    if unpulled.size:
                        arm = int(unpulled[0])
                    else:
                        means_hat = state.reward / state.pulls
                        arm = int(np.argmax(means_hat))
                else:
                    arm = int(policy_rng.integers(n_arms))
                pull_arms(
                    state, model, cached, [arm], 1,
                    _derive_seed(seed, trial * steps + step, 2), none_selected, iteration=step,
                )
                regret[step] = means[best_arm] - means[arm]
            results.append(
                SimResult(
                    policy=policy, trial=trial,
                    pull_counts=state.pulls.copy(), regret=regret, best_arm=best_arm,
                )
            )
    return results
