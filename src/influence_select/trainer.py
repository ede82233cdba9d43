"""Minimal Adam loop for fine-tuning the toy model on a selected subset.

Deterministic under the config seed (fixed shuffling, fixed reduction
order). A divergence guard aborts if a batch loss is not finite or exceeds
10x the first batch's loss, and ``eval_loss`` aborts on a non-finite loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import TokenTable
from .errors import DataError, TrainingDivergedError, UsageError
from .model import ParamSet, backward, chunks, forward

DIVERGENCE_FACTOR = 10.0
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.95, 1e-8


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 16
    steps: int = 500
    seed: int = 0

    def __post_init__(self):
        if not self.learning_rate >= 0.0:
            raise UsageError(f"trainer.learning_rate must be >= 0, got {self.learning_rate!r}")
        if self.batch_size < 1:
            raise UsageError(f"trainer.batch_size must be >= 1, got {self.batch_size}")
        if self.steps < 0:
            raise UsageError(f"trainer.steps must be >= 0, got {self.steps}")


def adam_step(value, grad, m, v, t, cfg: TrainConfig):
    """One Adam update; mutates m and v, returns the new value."""
    m[...] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
    v[...] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    return value - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def train(params: ParamSet, data: TokenTable, cfg: TrainConfig) -> ParamSet:
    """Adam for cfg.steps over shuffled batches of ``data``'s records;
    returns new parameters."""
    if not len(data):
        raise DataError("training data is empty")
    params = params.copy()
    named = dict(params.iter_named())
    m_state = {k: np.zeros_like(a) for k, a in named.items()}
    v_state = {k: np.zeros_like(a) for k, a in named.items()}
    rng = np.random.default_rng(cfg.seed)
    order: list[int] = []
    initial_loss = None
    for step in range(1, cfg.steps + 1):
        rows = []
        for _ in range(cfg.batch_size):
            if not order:
                order = [int(i) for i in rng.permutation(len(data))]
            rows.append(order.pop())
        losses, grads = _batch_gradient(params, data.take(rows))
        gnamed = dict(grads.iter_named())
        batch_loss = math.fsum(losses) / cfg.batch_size
        if initial_loss is None:
            initial_loss = batch_loss
        if not math.isfinite(batch_loss):
            raise TrainingDivergedError(f"non-finite loss {batch_loss!r} at step {step}")
        if batch_loss > DIVERGENCE_FACTOR * max(initial_loss, 1e-12):
            raise TrainingDivergedError(
                f"loss {batch_loss:.4g} exceeded {DIVERGENCE_FACTOR}x initial "
                f"{initial_loss:.4g} at step {step}"
            )
        for name, arr in named.items():
            arr[...] = adam_step(arr, gnamed[name] / cfg.batch_size,
                                 m_state[name], v_state[name], step, cfg)
    return params


def _batch_gradient(params: ParamSet, batch: TokenTable):
    """Per-sequence losses and the full ParamSet gradient summed over the batch."""
    losses = np.empty(len(batch))
    total = None
    for pos, tokens in chunks(batch):
        losses[pos], cache = forward(params, tokens.ravel(), seq_len=tokens.shape[1])
        grads, _ = backward(params, cache)
        if total is None:
            total = grads
        else:
            for (_, acc), (_, arr) in zip(total.iter_named(), grads.iter_named()):
                acc += arr
    return losses, total


def eval_loss(params: ParamSet, table: TokenTable) -> float:
    """Mean per-sequence next-token loss over ``table``'s records; exact
    (order-invariant) summation. A non-finite mean raises
    TrainingDivergedError."""
    if not len(table):
        raise DataError("evaluation set is empty")
    losses = np.empty(len(table))
    for pos, tokens in chunks(table):
        losses[pos], _ = forward(params, tokens.ravel(), seq_len=tokens.shape[1])
    loss = math.fsum(losses) / len(losses)
    if not math.isfinite(loss):
        raise TrainingDivergedError(f"non-finite loss {loss!r} on the evaluation set "
                                    f"of {len(losses)} sequences")
    return loss
