"""Seeded planted-influence corpus, written in the program's input formats.

The benchmark makes its own inputs so that a change to the program cannot
change the workload it is measured on. The corpus follows the same recipe as
the program's synthetic data (a Gaussian mixture whose first components emit
deterministic bigram cycles shared with the reference set, the rest uniform
noise), but is generated here, vectorized, from the benchmark's seed.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass

import numpy as np

CENTER_SCALE = 4.0
NOISE_SIGMA = 0.25
PATTERN_TOKENS = 8  # vocabulary slice owned by each aligned component


@dataclass(frozen=True)
class CorpusSpec:
    instances: int
    embed_dim: int
    components: int
    aligned: int
    vocab: int
    seq_len: int
    reference: int = 64


@dataclass
class Corpus:
    component: np.ndarray  # (instances,) mixture component; [0, aligned) are aligned
    hashes: dict  # file name -> sha256 of the bytes written


def _cycle_sequences(rng, cycles, comps, seq_len):
    """Walk each component's successor cycle from a random start."""
    order = cycles[comps]  # (n, PATTERN_TOKENS) cycle order per row
    start = rng.integers(0, PATTERN_TOKENS, size=comps.size)
    steps = (start[:, None] + np.arange(seq_len)[None, :]) % PATTERN_TOKENS
    return comps[:, None] * PATTERN_TOKENS + np.take_along_axis(order, steps, axis=1)


def _write_tokens(path, tokens: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(
            f"{i}\t{' '.join(map(str, row))}\n" for i, row in enumerate(tokens.tolist())
        )


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def generate(spec: CorpusSpec, seed: int, out_dir: str) -> Corpus:
    """Write embeddings.bin, tokens.tsv and reference.tsv into ``out_dir``."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, CENTER_SCALE, size=(spec.components, spec.embed_dim))
    component = rng.integers(0, spec.components, size=spec.instances)
    vectors = centers[component] + rng.normal(
        0.0, NOISE_SIGMA, size=(spec.instances, spec.embed_dim)
    )
    cycles = np.stack([rng.permutation(PATTERN_TOKENS) for _ in range(spec.aligned)])

    tokens = rng.integers(0, spec.vocab, size=(spec.instances, spec.seq_len))
    rows = np.flatnonzero(component < spec.aligned)
    tokens[rows] = _cycle_sequences(rng, cycles, component[rows], spec.seq_len)
    ref_comps = np.arange(spec.reference) % spec.aligned
    reference = _cycle_sequences(rng, cycles, ref_comps, spec.seq_len)

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "embeddings.bin"), "wb") as fh:
        fh.write(struct.pack("<QQ", spec.instances, spec.embed_dim))
        fh.write(vectors.astype("<f4").tobytes())
    _write_tokens(os.path.join(out_dir, "tokens.tsv"), tokens)
    _write_tokens(os.path.join(out_dir, "reference.tsv"), reference)
    names = ("embeddings.bin", "tokens.tsv", "reference.tsv")
    return Corpus(
        component=component,
        hashes={n: _sha256(os.path.join(out_dir, n)) for n in names},
    )
