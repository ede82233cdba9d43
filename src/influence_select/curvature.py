"""Kronecker-factored curvature: per-layer (Delta, X) second moments and
damped inverse-Hessian-vector products.

Each tracked layer's curvature block is approximated as
E[delta delta^T] (x) E[x x^T], with the Q/K/V projections of one attention
layer treated as a single block so their gradient cross-correlations enter
Delta. Inverses go through eigendecompositions; damping is applied exactly
in the joint eigenbasis as 1 / (S_Delta_i * S_X_j + lambda).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensorio
from .corpus import TokenTable
from .errors import DataError, SingularFactorError
from .model import LayerTap, ParamSet, TrackedLayer, chunk_taps, sequence_grads, tracked_layers

EIG_FLOOR_REL = 1e-12


@dataclass
class KroneckerFactor:
    """Running second moments for one layer; means are exposed as properties.

    Raw sums are stored so that accumulation order cannot perturb the mean:
    accumulating the same tap twice yields bitwise-identical Delta and X.
    """

    layer: str
    kind: str
    d_out: int
    d_in: int
    delta_sum: np.ndarray  # (d_out, d_out) running sum of delta delta^T
    x_sum: np.ndarray  # (d_in, d_in) running sum of x x^T
    sample_count: int = 0

    @property
    def Delta(self) -> np.ndarray:
        if self.sample_count == 0:
            raise DataError(f"factor {self.layer} has no accumulated samples")
        return self.delta_sum / self.sample_count

    @property
    def X(self) -> np.ndarray:
        if self.sample_count == 0:
            raise DataError(f"factor {self.layer} has no accumulated samples")
        return self.x_sum / self.sample_count


def zero_factor(tl: TrackedLayer) -> KroneckerFactor:
    return KroneckerFactor(
        layer=tl.name,
        kind=tl.kind,
        d_out=tl.d_out,
        d_in=tl.d_in,
        delta_sum=np.zeros((tl.d_out, tl.d_out)),
        x_sum=np.zeros((tl.d_in, tl.d_in)),
    )


def accumulate(factor: KroneckerFactor, tap: LayerTap) -> KroneckerFactor:
    """Fold one tap into the factor; every token is one (x, delta) sample."""
    if tap.kind != factor.kind:
        raise DataError(f"tap kind {tap.kind!r} does not match factor {factor.kind!r}")
    if tap.delta.shape[1] != factor.d_out or tap.x.shape[1] != factor.d_in:
        raise DataError(
            f"tap dims ({tap.delta.shape[1]}, {tap.x.shape[1]}) do not match "
            f"factor ({factor.d_out}, {factor.d_in})"
        )
    return KroneckerFactor(
        layer=factor.layer,
        kind=factor.kind,
        d_out=factor.d_out,
        d_in=factor.d_in,
        delta_sum=factor.delta_sum + tap.delta.T @ tap.delta,
        x_sum=factor.x_sum + tap.x.T @ tap.x,
        sample_count=factor.sample_count + tap.x.shape[0],
    )


def collect_factors(params: ParamSet, table: TokenTable):
    """Estimate factors over a TokenTable's records from the model engine's taps.

    Returns ``(factors, grad)``: the same pass also gives ``grad``, the mean
    per-sequence tracked-layer gradient, flattened row-major per layer. The
    products of each chunk run in the dtype of ``params``; the sums they
    enter are float64.
    """
    if not len(table):
        raise DataError("collect_factors needs a non-empty sequence set")
    layers = tracked_layers(params.config)
    factors = {tl.name: zero_factor(tl) for tl in layers}
    grad = {tl.name: np.zeros((tl.d_out, tl.d_in)) for tl in layers}
    for pos, taps in chunk_taps(params, table):
        for tl, tap in zip(layers, taps):
            factors[tl.name] = accumulate(factors[tl.name], tap)
            grad[tl.name] += sequence_grads(tap, pos.size).sum(axis=0)
    n = float(len(table))
    return factors, {name: (mat / n).ravel() for name, mat in grad.items()}


@dataclass
class DampedFactorInverse:
    """Eigendecompositions of (Delta, X) with a damping constant."""

    layer: str
    kind: str
    evecs_delta: np.ndarray
    evals_delta: np.ndarray
    evecs_x: np.ndarray
    evals_x: np.ndarray
    damping: float

    @property
    def d_out(self) -> int:
        return self.evals_delta.shape[0]

    @property
    def d_in(self) -> int:
        return self.evals_x.shape[0]


def _floored_eigh(mat: np.ndarray):
    sym = 0.5 * (mat + mat.T)
    evals, evecs = np.linalg.eigh(sym)
    top = evals.max() if evals.size else 0.0
    if top > 0.0:
        evals = np.maximum(evals, EIG_FLOOR_REL * top)
    else:
        evals = np.maximum(evals, 0.0)
    return evals, evecs


def factor_inverse(
    delta: np.ndarray,
    x: np.ndarray,
    damping: float,
    layer: str = "",
    kind: str = "",
) -> DampedFactorInverse:
    """Eigendecompose raw (Delta, X); eigenvalues below 1e-12 of the top one
    are clamped up before damping so rank deficiency stays deterministic."""
    sd, qd = _floored_eigh(delta)
    sx, qx = _floored_eigh(x)
    return DampedFactorInverse(
        layer=layer, kind=kind,
        evecs_delta=qd, evals_delta=sd, evecs_x=qx, evals_x=sx,
        damping=float(damping),
    )


def inverse_of_factor(factor: KroneckerFactor, damping: float) -> DampedFactorInverse:
    return factor_inverse(factor.Delta, factor.X, damping, layer=factor.layer, kind=factor.kind)


def kron_ihvp(inv: DampedFactorInverse, v: np.ndarray) -> np.ndarray:
    """(Delta (x) X + lambda I)^-1 v via the matrix-shaped eigen identity.

    v is the row-major flattening of a (d_out, d_in) matrix V; the result is
    the row-major flattening of Q_D [ (Q_D^T V Q_X) / (S_D_i S_X_j + lambda) ] Q_X^T.
    At lambda=0 this is exactly vec(Delta^-1 V X^-1).
    """
    if v.shape != (inv.d_out * inv.d_in,):
        raise DataError(
            f"ihvp vector has length {v.shape}, expected {inv.d_out * inv.d_in}"
        )
    denom = inv.evals_delta[:, None] * inv.evals_x[None, :] + inv.damping
    if denom.min() <= 0.0:
        i, j = np.unravel_index(int(np.argmin(denom)), denom.shape)
        raise SingularFactorError(
            f"factor {inv.layer or '<anon>'}: eigenvalue product underflows at "
            f"(S_Delta[{i}]={inv.evals_delta[i]:.3e}) * (S_X[{j}]={inv.evals_x[j]:.3e}) "
            f"with damping {inv.damping}"
        )
    V = v.reshape(inv.d_out, inv.d_in)
    core = inv.evecs_delta.T @ V @ inv.evecs_x
    core = core / denom
    out = inv.evecs_delta @ core @ inv.evecs_x.T
    return out.ravel()


def qkv_independent_ihvp(factor: KroneckerFactor, damping: float, v: np.ndarray) -> np.ndarray:
    """The iHVP of the stacked qkv vector ``v`` with each projection's own
    diagonal block of Delta, ignoring the Q/K/V cross-blocks."""
    if factor.kind != "qkv-joint":
        raise DataError("independent qkv inverses only apply to qkv-joint factors")
    d = factor.d_out // 3
    per = d * factor.d_in
    if v.shape != (3 * per,):
        raise DataError("stacked qkv vector has the wrong length")
    parts = []
    for idx, nm in enumerate("qkv"):
        block = factor.Delta[idx * d : (idx + 1) * d, idx * d : (idx + 1) * d]
        inv = factor_inverse(block, factor.X, damping, layer=f"{factor.layer}[{nm}]",
                             kind="qkv-block")
        parts.append(kron_ihvp(inv, v[idx * per : (idx + 1) * per]))
    return np.concatenate(parts)


def encode_factors(factors: dict[str, KroneckerFactor]) -> bytes:
    """Factor checkpoint in the named-tensor container format.

    Per layer: `<name>/kind` (uint8 UTF-8), `<name>/meta` = [d_out, d_in,
    sample_count] (int64), `<name>/Delta` and `<name>/X` (float64 means).
    """
    tensors: dict[str, np.ndarray] = {}
    for name, fac in sorted(factors.items()):
        tensors[f"{name}/kind"] = np.frombuffer(fac.kind.encode("utf-8"), dtype=np.uint8)
        tensors[f"{name}/meta"] = np.array([fac.d_out, fac.d_in, fac.sample_count], dtype=np.int64)
        tensors[f"{name}/Delta"] = fac.Delta
        tensors[f"{name}/X"] = fac.X
    return tensorio.encode_tensors(tensors)


def load_factors(path) -> dict[str, KroneckerFactor]:
    tensors = tensorio.read_tensors(path)
    names = sorted({key.rsplit("/", 1)[0] for key in tensors})
    out: dict[str, KroneckerFactor] = {}
    for name in names:
        try:
            kind = tensors[f"{name}/kind"].tobytes().decode("utf-8")
            d_out, d_in, count = (int(v) for v in tensors[f"{name}/meta"])
            delta, x = tensors[f"{name}/Delta"], tensors[f"{name}/X"]
        except KeyError as exc:
            raise DataError(f"{path}: incomplete factor record for {name!r}") from exc
        if delta.shape != (d_out, d_out) or x.shape != (d_in, d_in):
            raise DataError(f"{path}: factor {name!r} has inconsistent shapes")
        out[name] = KroneckerFactor(
            layer=name, kind=kind, d_out=d_out, d_in=d_in,
            delta_sum=delta * count, x_sum=x * count, sample_count=count,
        )
    return out
