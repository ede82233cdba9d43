"""Per-instance influence scores.

Stage 1 applies the damped factored inverse to the reference gradient
(one iHVP per tracked layer); stage 2 forms each candidate's per-layer
gradient delta^T x straight from the model's taps, dots it against that
vector, and sums the layer contributions.

Sign convention: the reported score is the alignment form
``<grad(z), (H + lambda I)^-1 grad(ref)>`` so a candidate whose gradient
points the same way as the reference gradient scores POSITIVE, i.e. a
positive score means upweighting the candidate is expected to reduce
reference loss. Selection thresholds are stated in this orientation.

Optionally the score is the JL-sketched one, ``<S g, S v>`` with a seeded
Rademacher projection S (entries +-1/sqrt(target_dim)) drawn per layer from
the seed and never stored. Since ``<S g, S v> = <g, S^T S v>``, the sketch is
folded into the iHVP once (``pullback_ihvp``) and candidates are scored
through the plain path, so sketched scoring costs the same as unsketched.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .corpus import TokenTable
from .curvature import DampedFactorInverse, kron_ihvp
from .errors import DataError
from .model import ParamSet, chunk_taps, sequence_grads, tracked_layers

SKETCH_BLOCK = 1 << 14  # input dims consumed per RNG draw; part of the stream layout


@dataclass
class IhvpVector:
    """Reference gradient after the per-layer damped factored inverse."""

    vectors: dict[str, np.ndarray]
    damping: float
    method: str = "factored"  # score label; "factored+sketch" after pullback_ihvp


@dataclass(frozen=True)
class SketchProjector:
    """Seeded Rademacher projection spec; identity=True is a test hook that
    bypasses projection entirely (target_dim must equal the input length)."""

    target_dim: int
    seed: int
    identity: bool = False


@dataclass
class InfluenceTable:
    """(instance id, score, method) rows, in scoring order."""

    rows: list[tuple[int, float, str]] = field(default_factory=list)

    def scores(self) -> list[float]:
        return [r[1] for r in self.rows]


def reference_ihvp(
    ref_grad: dict[str, np.ndarray],
    inverses: dict[str, DampedFactorInverse],
) -> IhvpVector:
    """Apply each layer's damped inverse to the reference gradient."""
    missing = sorted(set(ref_grad) - set(inverses))
    if missing:
        raise DataError(f"missing curvature factor for tracked layer(s): {missing}")
    vectors = {}
    damping = None
    for name, vec in ref_grad.items():
        inv = inverses[name]
        if damping is None:
            damping = inv.damping
        vectors[name] = kron_ihvp(inv, vec)
    return IhvpVector(vectors=vectors, damping=float(damping))


def _layer_rng(projector: SketchProjector, layer_name: str) -> np.random.Generator:
    key = zlib.crc32(layer_name.encode("utf-8"))
    return np.random.default_rng(
        np.random.SeedSequence([projector.seed & 0xFFFFFFFF, projector.target_dim, key])
    )


def _sign_blocks(projector: SketchProjector, layer_name: str, n: int):
    """The layer's +-1 projection over n input dims, one column block at a time."""
    rng = _layer_rng(projector, layer_name)
    for start in range(0, n, SKETCH_BLOCK):
        width = min(SKETCH_BLOCK, n - start)
        signs = rng.integers(0, 2, size=(projector.target_dim, width), dtype=np.int8)
        yield slice(start, start + width), 2.0 * signs - 1.0


def sketch_vector(projector: SketchProjector, layer_name: str, v: np.ndarray) -> np.ndarray:
    """Project one flat layer vector down to target_dim."""
    if projector.identity:
        if projector.target_dim != v.shape[0]:
            raise DataError("identity sketch requires target_dim == vector length")
        return v.copy()
    out = np.zeros(projector.target_dim)
    for cols, signs in _sign_blocks(projector, layer_name, v.shape[0]):
        out += signs @ v[cols]
    return out / np.sqrt(projector.target_dim)


def pullback_ihvp(projector: SketchProjector, ihvp: IhvpVector) -> IhvpVector:
    """Replace each layer's v by S^T S v, with S the projection ``sketch_vector``
    draws for that layer, so ``<g, S^T S v>`` is the sketched score ``<S g, S v>``.

    Two passes over the layer's sign stream (S v, then S^T of it) keep one
    block in memory at a time. The identity hook leaves v as it is.
    """
    vectors = {}
    for name, vec in ihvp.vectors.items():
        sv = sketch_vector(projector, name, vec)
        if projector.identity:
            vectors[name] = sv
            continue
        out = np.empty(vec.shape[0])
        for cols, signs in _sign_blocks(projector, name, vec.shape[0]):
            out[cols] = sv @ signs
        vectors[name] = out / np.sqrt(projector.target_dim)
    return IhvpVector(vectors=vectors, damping=ihvp.damping, method="factored+sketch")


def score_batch(table: TokenTable, ihvp: IhvpVector, params: ParamSet,
                registry=None) -> InfluenceTable:
    """Score every record of ``table`` in engine chunks; rows come in table
    order, each under its record's id.

    Each tracked layer's per-sequence gradient delta^T x, straight from the
    engine's taps, is dotted with that layer's iHVP vector, and the layer
    terms are summed in registry order. Rows carry ``ihvp.method``; every
    score is checked to be finite.
    """
    registry = registry if registry is not None else tracked_layers(params.config)
    scores = [0.0] * len(table)
    for pos, taps in chunk_taps(params, table, registry):
        for tl, tap in zip(registry, taps):
            vec = ihvp.vectors[tl.name]
            for p, g in zip(pos, sequence_grads(tap, pos.size).reshape(pos.size, -1)):
                scores[p] += float(np.dot(g, vec))
    out = InfluenceTable()
    for inst_id, s in zip(table.ids.tolist(), scores):
        if not np.isfinite(s):
            raise DataError(f"non-finite influence score for instance {inst_id}")
        out.rows.append((inst_id, s, ihvp.method))
    return out
