"""Synthetic desk-scale corpus with planted influence structure.

Embeddings come from a Gaussian mixture; token sequences are tied to the
mixture component so that loss structure correlates with the embedding
geometry. A handful of "aligned" components emit sequences from the same
deterministic bigram patterns the reference set uses (training on them
reduces reference loss quickly); the rest emit uniform-random tokens, which
at best do nothing for the reference loss and usually hurt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import EmbeddingCorpus, TokenTable
from .errors import DataError


@dataclass
class SyntheticSpec:
    n_instances: int = 10000
    embed_dim: int = 16
    n_components: int = 64
    n_aligned: int = 8
    vocab_size: int = 64
    seq_len: int = 24
    n_reference: int = 64
    center_scale: float = 4.0
    noise_sigma: float = 0.25
    pattern_tokens: int = 8  # vocabulary slice owned by each aligned pattern
    seed: int = 0

    def __post_init__(self):
        if self.n_aligned > self.n_components:
            raise DataError("n_aligned cannot exceed n_components")
        if self.n_aligned * self.pattern_tokens > self.vocab_size:
            raise DataError("aligned patterns do not fit in the vocabulary")
        if self.seq_len < 2:
            raise DataError("seq_len must be >= 2")


@dataclass
class SyntheticCorpus:
    embeddings: EmbeddingCorpus
    instances: TokenTable  # record i is instance id i, embedding row i
    reference: TokenTable  # ids 0..n_reference-1
    component: np.ndarray  # (n_instances,) mixture component per instance
    aligned_components: np.ndarray


def _pattern_cycle(rng: np.random.Generator, width: int) -> np.ndarray:
    """A random successor cycle over ``width`` tokens: next[t] is drawn from a
    cyclic permutation, so the bigram structure is deterministic and learnable.
    Token offsets are applied by the caller."""
    perm = rng.permutation(width)
    nxt = np.empty(width, dtype=np.int64)
    nxt[perm] = np.roll(perm, -1)
    return nxt


def _pattern_sequence(rng, nxt: np.ndarray, lo: int, length: int) -> list[int]:
    width = nxt.shape[0]
    t = int(rng.integers(width))
    seq = [lo + t]
    for _ in range(length - 1):
        t = int(nxt[t])
        seq.append(lo + t)
    return seq


def generate(spec: SyntheticSpec) -> SyntheticCorpus:
    rng = np.random.default_rng(spec.seed)
    centers = rng.normal(0.0, spec.center_scale, size=(spec.n_components, spec.embed_dim))
    component = rng.integers(0, spec.n_components, size=spec.n_instances)
    vectors = centers[component] + rng.normal(
        0.0, spec.noise_sigma, size=(spec.n_instances, spec.embed_dim)
    )
    aligned = np.arange(spec.n_aligned)
    cycles = [_pattern_cycle(rng, spec.pattern_tokens) for s in range(spec.n_aligned)]
    seqs = []
    for c in component.tolist():
        if c < spec.n_aligned:
            seqs.append(_pattern_sequence(rng, cycles[c], c * spec.pattern_tokens, spec.seq_len))
        else:
            seqs.append(rng.integers(0, spec.vocab_size, size=spec.seq_len))
    ref_seqs = []
    for j in range(spec.n_reference):
        s = j % spec.n_aligned
        ref_seqs.append(_pattern_sequence(rng, cycles[s], s * spec.pattern_tokens, spec.seq_len))
    return SyntheticCorpus(
        embeddings=EmbeddingCorpus(vectors=vectors),
        instances=TokenTable.from_sequences(seqs),
        reference=TokenTable.from_sequences(ref_seqs),
        component=component,
        aligned_components=aligned,
    )
