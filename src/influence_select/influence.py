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

The reference pass and the candidates run through a float32 copy of the
parameters (``scoring_setup``); factor sums, the reference gradient, the iHVP
and each score's sum are float64.

Optionally the score is the JL-sketched one, ``<S g, S v>`` with a seeded
Rademacher projection S (entries +-1/sqrt(target_dim)) drawn per layer from
the seed and never stored. Since ``<S g, S v> = <g, S^T S v>``, the sketch is
folded into the iHVP once (``pullback_ihvp``) and candidates are scored
through the plain path, so sketched scoring costs the same as unsketched.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import curvature
from .config import InfluenceConfig
from .corpus import TokenTable
from .errors import DataError, NumericError
from .model import ParamSet, chunk_taps, sequence_grads, tracked_layers

SKETCH_BLOCK = 1 << 14  # input dims consumed per RNG draw; part of the stream layout


@dataclass
class IhvpVector:
    """Reference gradient after the per-layer damped factored inverse."""

    vectors: dict[str, np.ndarray]
    method: str = "factored"  # score label; "factored+sketch" after pullback_ihvp


@dataclass(frozen=True)
class SketchProjector:
    """Seeded Rademacher projection spec."""

    target_dim: int
    seed: int


def reference_ihvp(
    ref_grad: dict[str, np.ndarray],
    inverses: dict[str, curvature.DampedFactorInverse],
) -> IhvpVector:
    """Apply each layer's damped inverse to the reference gradient."""
    missing = sorted(set(ref_grad) - set(inverses))
    if missing:
        raise DataError(f"missing curvature factor for tracked layer(s): {missing}")
    return IhvpVector(vectors={name: curvature.kron_ihvp(inverses[name], vec)
                               for name, vec in ref_grad.items()})


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
    out = np.zeros(projector.target_dim)
    for cols, signs in _sign_blocks(projector, layer_name, v.shape[0]):
        out += signs @ v[cols]
    return out / np.sqrt(projector.target_dim)


def pullback_ihvp(projector: SketchProjector, ihvp: IhvpVector) -> IhvpVector:
    """Replace each layer's v by S^T S v, with S the projection ``sketch_vector``
    draws for that layer, so ``<g, S^T S v>`` is the sketched score ``<S g, S v>``.

    Two passes over the layer's sign stream (S v, then S^T of it) keep one
    block in memory at a time.
    """
    vectors = {}
    for name, vec in ihvp.vectors.items():
        sv = sketch_vector(projector, name, vec)
        out = np.empty(vec.shape[0])
        for cols, signs in _sign_blocks(projector, name, vec.shape[0]):
            out[cols] = sv @ signs
        vectors[name] = out / np.sqrt(projector.target_dim)
    return IhvpVector(vectors=vectors, method="factored+sketch")


def scoring_setup(params: ParamSet, ref: TokenTable, cfg: InfluenceConfig):
    """What scoring needs, from float64 ``params`` and the reference set:
    ``(scoring params, ihvp, factors)``. The scoring params are a float32 copy
    of ``params``, and the reference pass runs on them too; the factor sums,
    the reference gradient and its iHVP (with the JL sketch folded in when
    ``cfg.use_sketch`` is set) are float64."""
    params32 = params.astype(np.float32)
    factors, ref_grad = curvature.collect_factors(params32, ref)
    ihvp = reference_ihvp(ref_grad, {name: curvature.inverse_of_factor(fac, cfg.damping)
                                     for name, fac in factors.items()})
    if cfg.use_sketch:
        ihvp = pullback_ihvp(SketchProjector(cfg.sketch_dim, cfg.sketch_seed), ihvp)
    return params32, ihvp, factors


def score_batch(table: TokenTable, ihvp: IhvpVector, params: ParamSet) -> list[float]:
    """The influence score of every record of ``table``, in table order,
    computed in engine chunks.

    Each tracked layer's per-sequence gradient delta^T x, straight from the
    engine's taps, is dotted with that layer's iHVP vector, and the layer
    terms are summed in ``tracked_layers`` order, in float64 whatever the
    dtype of ``params``. Every score is checked to be finite; the
    ``NumericError`` names the record's instance id.
    """
    layers = tracked_layers(params.config)
    scores = [0.0] * len(table)
    for pos, taps in chunk_taps(params, table):
        for tl, tap in zip(layers, taps):
            vec = ihvp.vectors[tl.name]
            for p, g in zip(pos, sequence_grads(tap, pos.size).reshape(pos.size, -1)):
                scores[p] += float(np.dot(g, vec))
    for inst_id, s in zip(table.ids.tolist(), scores):
        if not np.isfinite(s):
            raise NumericError(f"non-finite influence score for instance {inst_id}")
    return scores
