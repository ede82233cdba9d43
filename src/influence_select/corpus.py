"""Candidate pool and reference set: data model plus on-disk formats.

Embeddings are always ingested from files, never computed here. The binary
embedding format is:

    header   uint64 count, uint64 dim      (little-endian)
    payload  count * dim float32, row-major, little-endian

Token files are newline-delimited text records::

    <id> TAB <space-separated token ids>

Instance ids index 1:1 into the embedding matrix (id == row).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError

HEADER = struct.Struct("<QQ")


@dataclass
class EmbeddingCorpus:
    """Dense embedding vectors for the candidate pool, one row per instance."""

    vectors: np.ndarray  # (count, dim) float64; row i is instance id i

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise DataError(f"embedding matrix must be 2-D, got shape {self.vectors.shape}")
        validate_corpus(self)

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def validate_corpus(corpus: EmbeddingCorpus) -> None:
    bad = ~np.isfinite(corpus.vectors)
    if bad.any():
        row = int(np.argwhere(bad.any(axis=1))[0, 0])
        raise DataError(f"non-finite embedding value at row {row}")


@dataclass
class ReferenceSet:
    """Held-out token sequences whose loss selection aims to reduce."""

    sequences: list[list[int]]
    vocab_size: int

    def __post_init__(self):
        if not self.sequences:
            raise DataError("reference set is empty")
        for i, seq in enumerate(self.sequences):
            if len(seq) < 2:
                raise DataError(f"reference sequence {i} has length {len(seq)} < 2")
            if max(seq) >= self.vocab_size or min(seq) < 0:
                raise DataError(f"reference sequence {i} has token id outside vocab")


@dataclass
class CandidateInstance:
    """One candidate: stable id, its token sequence, and its embedding row."""

    id: int
    tokens: list[int]
    embedding_row: int


def load_embeddings(path, format: str = "binary") -> EmbeddingCorpus:
    """Load an embedding corpus from ``path`` in ``binary`` or ``csv`` format."""
    if format == "binary":
        return _load_embeddings_binary(path)
    if format == "csv":
        return _load_embeddings_csv(path)
    raise DataError(f"unknown embedding format {format!r}")


def _load_embeddings_binary(path) -> EmbeddingCorpus:
    with open(path, "rb") as fh:
        head = fh.read(HEADER.size)
        if len(head) < HEADER.size:
            raise DataError(f"{path}: malformed header (got {len(head)} bytes, need {HEADER.size})")
        count, dim = HEADER.unpack(head)
        if dim == 0:
            raise DataError(f"{path}: malformed header (dim must be positive)")
        payload = fh.read()
    want = count * dim * 4
    if len(payload) != want:
        raise DataError(
            f"{path}: truncated payload ({len(payload)} bytes, expected {want} for {count}x{dim})"
        )
    raw = np.frombuffer(payload, dtype="<f4").reshape(count, dim)
    bad = ~np.isfinite(raw)
    if bad.any():
        row = int(np.argwhere(bad.any(axis=1))[0, 0])
        raise DataError(f"{path}: non-finite embedding value at row {row}")
    return EmbeddingCorpus(vectors=raw.astype(np.float64))


def _load_embeddings_csv(path) -> EmbeddingCorpus:
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: unparseable value") from exc
            if len(rows) > 1 and len(rows[-1]) != len(rows[0]):
                raise DataError(f"{path}:{lineno}: inconsistent dimension")
    if not rows:
        raise DataError(f"{path}: empty csv corpus (binary format supports count=0)")
    mat = np.asarray(rows, dtype=np.float64)
    bad = ~np.isfinite(mat)
    if bad.any():
        row = int(np.argwhere(bad.any(axis=1))[0, 0])
        raise DataError(f"{path}: non-finite embedding value at row {row}")
    return EmbeddingCorpus(vectors=mat)


def write_embeddings(path, corpus: EmbeddingCorpus, format: str = "binary") -> None:
    """Companion writer; binary round-trips bitwise through float32."""
    if format == "binary":
        with open(path, "wb") as fh:
            fh.write(HEADER.pack(corpus.count, corpus.dim))
            fh.write(corpus.vectors.astype("<f4").tobytes())
    elif format == "csv":
        with open(path, "w", encoding="utf-8") as fh:
            for row in corpus.vectors:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    else:
        raise DataError(f"unknown embedding format {format!r}")


def load_tokens(path) -> list[CandidateInstance]:
    """Load candidate instances from a token file, preserving file order."""
    instances: list[CandidateInstance] = []
    seen: set[int] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected 'id<TAB>tokens'")
            try:
                inst_id = int(parts[0])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad instance id {parts[0]!r}") from exc
            if inst_id in seen:
                raise DataError(f"{path}:{lineno}: duplicate instance id {inst_id}")
            seen.add(inst_id)
            toks = parts[1].split()
            if not toks:
                raise DataError(f"{path}:{lineno}: empty token list for id {inst_id}")
            try:
                tokens = [int(t) for t in toks]
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad token in record {inst_id}") from exc
            if any(t < 0 for t in tokens):
                raise DataError(f"{path}:{lineno}: negative token id in record {inst_id}")
            instances.append(CandidateInstance(id=inst_id, tokens=tokens, embedding_row=inst_id))
    return instances


def write_tokens(path, instances: list[CandidateInstance]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            fh.write(f"{inst.id}\t{' '.join(str(t) for t in inst.tokens)}\n")


def load_reference(path, vocab_size: int, max_len: int | None = None) -> ReferenceSet:
    """Reference sequences share the token-file format; ids only name rows in errors.

    With ``max_len`` every sequence must have a length in [2, max_len].
    """
    instances = load_tokens(path)
    if max_len is not None:
        for inst in instances:
            if not 2 <= len(inst.tokens) <= max_len:
                raise DataError(f"{path}: reference id {inst.id} has length {len(inst.tokens)}, "
                                f"outside [2, model.max_context={max_len}]")
    return ReferenceSet(sequences=[inst.tokens for inst in instances], vocab_size=vocab_size)
