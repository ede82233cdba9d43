"""Quality-diversity data selection for pretraining corpora.

Clusters an embedded candidate pool, treats clusters as bandit arms, scores
sampled instances with Kronecker-factored influence functions on a
desk-scale transformer, and selects a budgeted subset that balances
influence (quality) against cluster coverage (diversity). A brute-force
oracle layer validates every approximation at tiny scale.
"""

from .bandit import BanditConfig, BanditState, cluster_score, run, select_step
from .clustering import ClusterModel, kmeans, objective
from .corpus import (
    EmbeddingCorpus,
    TokenTable,
    load_embeddings,
    load_tokens,
    write_embeddings,
    write_tokens,
)
from .curvature import KroneckerFactor, accumulate, kron_ihvp
from .influence import (
    IhvpVector,
    InfluenceTable,
    SketchProjector,
    reference_ihvp,
    score_batch,
)
from .model import ModelConfig, ParamSet, backward, forward, init_params
from .oracle import compare_methods, dense_curvature, exact_influence
from .trainer import TrainConfig, eval_loss, train

__all__ = [
    "BanditConfig",
    "BanditState",
    "ClusterModel",
    "EmbeddingCorpus",
    "IhvpVector",
    "InfluenceTable",
    "KroneckerFactor",
    "ModelConfig",
    "ParamSet",
    "SketchProjector",
    "TokenTable",
    "TrainConfig",
    "accumulate",
    "backward",
    "cluster_score",
    "compare_methods",
    "dense_curvature",
    "eval_loss",
    "exact_influence",
    "forward",
    "init_params",
    "kmeans",
    "kron_ihvp",
    "load_embeddings",
    "load_tokens",
    "objective",
    "reference_ihvp",
    "run",
    "score_batch",
    "select_step",
    "train",
    "write_embeddings",
    "write_tokens",
]
