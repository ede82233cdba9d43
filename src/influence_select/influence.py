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

Optionally both sides are compressed with a seeded Rademacher random
projection (entries +-1/sqrt(target_dim)); projections are regenerated
from the seed per layer and never stored.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .corpus import CandidateInstance
from .curvature import DampedFactorInverse, kron_ihvp
from .errors import DataError
from .model import ParamSet, chunk_taps, sequence_grads, tracked_layers

SKETCH_BLOCK = 1 << 14  # input dims consumed per RNG draw; part of the stream layout


@dataclass
class IhvpVector:
    """Reference gradient after the per-layer damped factored inverse."""

    vectors: dict[str, np.ndarray]
    damping: float
    factor_id: str = ""


@dataclass(frozen=True)
class SketchProjector:
    """Seeded Rademacher projection spec; identity=True is a test hook that
    bypasses projection entirely (target_dim must equal the input length)."""

    target_dim: int
    seed: int
    identity: bool = False


@dataclass
class SketchedIhvp:
    vectors: dict[str, np.ndarray]
    target_dim: int
    seed: int
    identity: bool
    damping: float


@dataclass
class InfluenceTable:
    """(instance id, score, method) rows, in scoring order."""

    rows: list[tuple[int, float, str]] = field(default_factory=list)

    def scores(self) -> list[float]:
        return [r[1] for r in self.rows]


def reference_ihvp(
    ref_grad: dict[str, np.ndarray],
    inverses: dict[str, DampedFactorInverse],
    factor_id: str = "",
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
    return IhvpVector(vectors=vectors, damping=float(damping), factor_id=factor_id)


def _layer_rng(projector: SketchProjector, layer_name: str) -> np.random.Generator:
    key = zlib.crc32(layer_name.encode("utf-8"))
    return np.random.default_rng(
        np.random.SeedSequence([projector.seed & 0xFFFFFFFF, projector.target_dim, key])
    )


def sketch_vector(projector: SketchProjector, layer_name: str, v: np.ndarray) -> np.ndarray:
    """Project one flat layer vector down to target_dim."""
    if projector.identity:
        if projector.target_dim != v.shape[0]:
            raise DataError("identity sketch requires target_dim == vector length")
        return v.copy()
    rng = _layer_rng(projector, layer_name)
    out = np.zeros(projector.target_dim)
    for start in range(0, v.shape[0], SKETCH_BLOCK):
        block = v[start : start + SKETCH_BLOCK]
        signs = rng.integers(0, 2, size=(projector.target_dim, block.shape[0]), dtype=np.int8)
        out += (2.0 * signs - 1.0) @ block
    return out / np.sqrt(projector.target_dim)


def sketch_ihvp(projector: SketchProjector, ihvp: IhvpVector) -> SketchedIhvp:
    return SketchedIhvp(
        vectors={name: sketch_vector(projector, name, vec) for name, vec in ihvp.vectors.items()},
        target_dim=projector.target_dim,
        seed=projector.seed,
        identity=projector.identity,
        damping=ihvp.damping,
    )


def score_from_grads(grads: dict[str, np.ndarray], ihvp: IhvpVector) -> float:
    """Sum of per-layer dot products; layer contributions add exactly."""
    total = 0.0
    for name, vec in grads.items():
        total += float(np.dot(vec, ihvp.vectors[name]))
    return total


def _tokens(instance):
    return instance.tokens if isinstance(instance, CandidateInstance) else instance


def _tap_scores(sequences, params: ParamSet, registry, vectors, projector=None) -> list[float]:
    """Per-sequence scores straight from engine taps.

    Each tracked layer's per-sequence gradient delta^T x is dotted with that
    layer's vector (sketched first when a projector is given) and the layer
    terms are summed in registry order, exactly as ``score_from_grads`` does.
    """
    scores = [0.0] * len(sequences)
    for pos, taps in chunk_taps(params, sequences, registry):
        for tl, tap in zip(registry, taps):
            vec = vectors[tl.name]
            for p, g in zip(pos, sequence_grads(tap, pos.size).reshape(pos.size, -1)):
                if projector is not None:
                    g = sketch_vector(projector, tl.name, g)
                scores[p] += float(np.dot(g, vec))
    return scores


def _check_projector(projector: SketchProjector, sketched_ihvp: SketchedIhvp) -> None:
    if (projector.seed, projector.target_dim, projector.identity) != (
        sketched_ihvp.seed,
        sketched_ihvp.target_dim,
        sketched_ihvp.identity,
    ):
        raise DataError("projector does not match the one used to sketch the iHVP")


def score_instance(instance, ihvp: IhvpVector, params: ParamSet, registry=None) -> float:
    registry = registry if registry is not None else tracked_layers(params.config)
    return _tap_scores([_tokens(instance)], params, registry, ihvp.vectors)[0]


def score_instance_sketched(
    instance,
    sketched_ihvp: SketchedIhvp,
    projector: SketchProjector,
    params: ParamSet,
    registry=None,
) -> float:
    _check_projector(projector, sketched_ihvp)
    registry = registry if registry is not None else tracked_layers(params.config)
    return _tap_scores([_tokens(instance)], params, registry, sketched_ihvp.vectors, projector)[0]


def score_batch(
    instances,
    ihvp: IhvpVector | SketchedIhvp,
    params: ParamSet,
    projector: SketchProjector | None = None,
    registry=None,
) -> InfluenceTable:
    """Score many instances in engine chunks; row order always matches input order.

    With a projector, ``ihvp`` is sketched here unless it already is a
    ``SketchedIhvp``. Every score is checked to be finite.
    """
    registry = registry if registry is not None else tracked_layers(params.config)
    instances = list(instances)
    sequences = [_tokens(inst) for inst in instances]
    if projector is None:
        method = "factored"
        scores = _tap_scores(sequences, params, registry, ihvp.vectors)
    else:
        method = "factored+sketch"
        sk = ihvp if isinstance(ihvp, SketchedIhvp) else sketch_ihvp(projector, ihvp)
        _check_projector(projector, sk)
        scores = _tap_scores(sequences, params, registry, sk.vectors, projector)
    table = InfluenceTable()
    for inst, s in zip(instances, scores):
        inst_id = inst.id if isinstance(inst, CandidateInstance) else -1
        if not np.isfinite(s):
            raise DataError(f"non-finite influence score for instance {inst_id}")
        table.rows.append((inst_id, s, method))
    return table


def write_influence_csv(path, table: InfluenceTable, fingerprint: str = "") -> None:
    """CSV with 17 significant digits: instance_id,score,method."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if fingerprint:
            fh.write(f"# config_fingerprint={fingerprint}\n")
        fh.write("instance_id,score,method\n")
        for inst_id, score, method in table.rows:
            fh.write(f"{inst_id},{score:.17g},{method}\n")


def read_influence_csv(path) -> InfluenceTable:
    table = InfluenceTable()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("instance_id"):
                continue
            inst_id, score, method = line.split(",")
            table.rows.append((int(inst_id), float(score), method))
    return table


def jl_epsilon(target_dim: int, failure_prob: float = 0.01) -> float:
    """Distortion bound for dot products at the given sketch width.

    Solves 4 exp(-d (eps^2/4 - eps^3/6)) = failure_prob for eps, the standard
    norm-preservation tail applied to the polarization identity, so a pair of
    unit vectors has its dot product preserved within eps except with the
    stated probability.
    """
    target = np.log(4.0 / failure_prob) / target_dim
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid * mid / 4.0 - mid ** 3 / 6.0 < target:
            lo = mid
        else:
            hi = mid
    return hi
