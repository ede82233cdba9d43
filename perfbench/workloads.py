"""The benchmark's workloads: inputs, configs and the commands each one times.

Configs are the benchmark's own copies; nothing is read from the repository's
scripts, so a change there cannot change what is measured.
"""

from __future__ import annotations

from dataclasses import dataclass

from inputs import CorpusSpec

SMALL_CORPUS = CorpusSpec(
    instances=10_000, embed_dim=16, components=64, aligned=8, vocab=64, seq_len=24
)
LARGE_CORPUS = CorpusSpec(
    instances=64_000, embed_dim=64, components=256, aligned=8, vocab=256, seq_len=64
)
SCORE_IDS = 32  # evenly spaced ids scored on the large pool; scoring stays a minority of it

# The end-to-end shape: d=32, 1 layer, 2 heads, k=64, budget 600, top_k 8,
# batch 8. `report` trains 3 x 50 Adam steps of 16 sequences; 50 rather than
# 200 steps keeps several report rounds inside one run.
SMALL_CONFIG = {
    "clustering.k": 64,
    "clustering.seed": 0,
    "model.vocab_size": 64,
    "model.hidden_dim": 32,
    "model.n_layers": 1,
    "model.n_heads": 2,
    "model.max_context": 32,
    "model.mlp_ratio": 2.0,
    "model.init_seed": 0,
    "influence.damping": 1e-3,
    "bandit.alpha": 20.0,
    "bandit.tau": 150.0,
    "bandit.gamma": 0.05,
    "bandit.top_k": 8,
    "bandit.batch_size": 8,
    "bandit.reward_mode": "mean",
    "selection.budget": 600,
    "selection.seed": 0,
    "trainer.learning_rate": 1e-3,
    "trainer.batch_size": 16,
    "trainer.steps": 50,
    "trainer.seed": 0,
}

# sketch_dim 64 rather than the default 256 keeps several rounds in a run;
# the sketch is still most of `select`.
SKETCH_CONFIG = {**SMALL_CONFIG, "influence.use_sketch": "true", "influence.sketch_dim": 64}

# The model stays at the program defaults (d=64, 2 layers, 4 heads,
# max_context 64). The Lloyd cap keeps the clustering work from varying with
# the seed (convergence took 7 to 13 iterations), so this workload cannot show
# a change that makes k-means converge in fewer iterations; select-small
# clusters to convergence and shows it in clustering.iters.
LARGE_CONFIG = {
    "clustering.k": 256,
    "clustering.seed": 0,
    "clustering.max_iters": 6,
    "model.vocab_size": 256,
}


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: CorpusSpec
    config: dict
    timed: tuple  # commands timed in each round, in order
    prep: tuple = ()  # commands run once, untimed, before the first round

    @property
    def main(self) -> str:
        """The command whose time is reported as ``main_cmd_s``."""
        return self.timed[-1]


# Why each workload exists is recorded in BENCHMARK.json and the README.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("select-small", SMALL_CORPUS, SMALL_CONFIG, ("cluster", "select")),
        Workload("select-sketch", SMALL_CORPUS, SKETCH_CONFIG, ("cluster", "select")),
        Workload("report-train", SMALL_CORPUS, SMALL_CONFIG, ("report",),
                 prep=("cluster", "select")),
        Workload("pool-large", LARGE_CORPUS, LARGE_CONFIG, ("cluster", "score")),
    )
}
