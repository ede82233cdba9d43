"""Desk-scale decoder-only transformer with exact gradients in its parameters' dtype.

Forward/backward are hand-written over numpy so every layer exposes a tap:
the per-token input activations x and pre-activation output gradients delta.
The row-major flattening of sum_t delta_t x_t^T is exactly the layer's weight
gradient, which is the convention all curvature code relies on.

Architecture notes (fixed once, documented here):
  - pre-norm residual blocks with parameter-free RMSNorm (no learnable gain,
    so the parameter set is exactly the projection matrices plus embeddings);
  - RoPE on Q and K (head_dim must be even);
  - SiLU activation in the two-matrix MLP;
  - no biases anywhere;
  - loss is the mean next-token cross-entropy over the L-1 predicting
    positions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import TokenTable
from .errors import DataError, UsageError

RMS_EPS = 1e-6
ROPE_BASE = 10000.0

TAP_KINDS = ("qkv-joint", "attn-out", "mlp-1", "mlp-2")
WEIGHT_OF_KIND = {"qkv-joint": "w_qkv", "attn-out": "w_o", "mlp-1": "w_up", "mlp-2": "w_down"}


@dataclass(frozen=True)
class ModelConfig:
    """The model's shape, checked on construction; errors name the config key
    ``model.<field>``."""

    vocab_size: int = 256
    hidden_dim: int = 64
    n_layers: int = 2
    n_heads: int = 4
    max_context: int = 64
    mlp_ratio: float = 8.0 / 3.0

    def __post_init__(self):
        for key in ("vocab_size", "hidden_dim", "n_layers", "n_heads"):
            if getattr(self, key) < 1:
                raise UsageError(f"model.{key} must be >= 1, got {getattr(self, key)}")
        if self.hidden_dim % self.n_heads != 0:
            raise UsageError("model.n_heads must divide model.hidden_dim, got "
                             f"{self.n_heads} and {self.hidden_dim}")
        if self.head_dim % 2 != 0:
            raise UsageError("model.hidden_dim / model.n_heads must be even for rotary "
                             f"embeddings, got {self.hidden_dim} / {self.n_heads}")
        if self.max_context < 2:
            raise UsageError(f"model.max_context must be >= 2, got {self.max_context}")
        width = self.mlp_ratio * self.hidden_dim
        if not (math.isfinite(width) and round(width) >= 1):
            raise UsageError("model.mlp_ratio must give an MLP width >= 1, "
                             f"got {self.mlp_ratio!r}")

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.n_heads

    @property
    def mlp_hidden(self) -> int:
        return int(round(self.mlp_ratio * self.hidden_dim))


@dataclass
class BlockParams:
    w_qkv: np.ndarray  # (3d, d): Q, K and V stacked; its output rows are the joint tap
    w_o: np.ndarray  # (d, d)
    w_up: np.ndarray  # (f, d)
    w_down: np.ndarray  # (d, f)


@dataclass
class ParamSet:
    config: ModelConfig
    embed: np.ndarray  # (V, d)
    head: np.ndarray  # (V, d)
    layers: list[BlockParams]

    def iter_named(self):
        yield "embed", self.embed
        yield "head", self.head
        for i, blk in enumerate(self.layers):
            for nm, w in vars(blk).items():
                yield f"layer{i}.{nm}", w

    def astype(self, dtype) -> "ParamSet":
        """A copy with every array cast to ``dtype``."""
        layers = [BlockParams(**{nm: w.astype(dtype) for nm, w in vars(b).items()})
                  for b in self.layers]
        return ParamSet(self.config, self.embed.astype(dtype), self.head.astype(dtype), layers)

    def copy(self) -> "ParamSet":
        return self.astype(self.embed.dtype)


@dataclass
class LayerTap:
    """Per-token (x, delta) pairs for one tracked weight matrix."""

    layer: int
    kind: str
    x: np.ndarray  # (T, d_in)
    delta: np.ndarray  # (T, d_out)

    def __post_init__(self):
        if self.x.shape[0] != self.delta.shape[0]:
            raise DataError("tap x and delta disagree on token count")


@dataclass(frozen=True)
class TrackedLayer:
    name: str
    layer: int
    kind: str
    d_out: int
    d_in: int

    @property
    def flat_dim(self) -> int:
        return self.d_out * self.d_in


def tracked_layers(cfg: ModelConfig) -> list[TrackedLayer]:
    """Registry of influence-tracked layers, in a fixed flattening order.

    Embedding and output head are deliberately excluded from influence.
    """
    d, f = cfg.hidden_dim, cfg.mlp_hidden
    dims = {"qkv-joint": (3 * d, d), "attn-out": (d, d), "mlp-1": (f, d), "mlp-2": (d, f)}
    return [TrackedLayer(f"layer{layer}.{kind}", layer, kind, *dims[kind])
            for layer in range(cfg.n_layers) for kind in TAP_KINDS]


def init_params(cfg: ModelConfig, seed: int = 0) -> ParamSet:
    """Gaussian init scaled to keep activations O(1) under RMSNorm."""
    rng = np.random.default_rng(seed)
    d, f, v = cfg.hidden_dim, cfg.mlp_hidden, cfg.vocab_size

    def mat(rows, cols):
        return rng.normal(0.0, 1.0 / np.sqrt(cols), size=(rows, cols))

    layers = [
        BlockParams(
            w_qkv=mat(3 * d, d), w_o=mat(d, d), w_up=mat(f, d), w_down=mat(d, f),
        )
        for _ in range(cfg.n_layers)
    ]
    return ParamSet(
        config=cfg,
        embed=rng.normal(0.0, 1.0, size=(v, d)),
        head=mat(v, d),
        layers=layers,
    )


def zeros_like_params(params: ParamSet) -> ParamSet:
    out = params.copy()
    for _, arr in out.iter_named():
        arr[...] = 0.0
    return out


# ---------------------------------------------------------------- primitives


def _rmsnorm(x):
    """``x`` scaled to unit root mean square, and its mean square plus
    RMS_EPS, which backward reuses."""
    ms = np.mean(x * x, axis=-1, keepdims=True) + RMS_EPS
    return x * (1.0 / np.sqrt(ms)), ms


def _rmsnorm_backward(x, ms, dy):
    d = x.shape[-1]
    r = ms ** -0.5
    dot = np.sum(dy * x, axis=-1, keepdims=True)
    return r * dy - x * (r ** 3) * dot / d


def _silu(u):
    """SiLU of ``u``, and the sigmoid that backward reuses."""
    s = 1.0 / (1.0 + np.exp(-u))
    return u * s, s


def _silu_grad(u, s):
    return s * (1.0 + u * (1.0 - s))


def _softmax(s, mask=None):
    """Softmax over the last axis of ``s``, computed in place and returned.

    Entries where the boolean ``mask`` (broadcast against ``s``) is false are
    never exponentiated and come out exactly 0.0. The result is bitwise
    ``e / e.sum(-1)`` with ``e = exp(m - m.max(-1))`` and
    ``m = np.where(mask, s, -inf)``: the same elementwise ops in the same order.
    """
    keep = True if mask is None else mask
    s -= s.max(axis=-1, keepdims=True, where=keep, initial=-np.inf)
    np.exp(s, out=s, where=keep)
    if mask is not None:
        np.copyto(s, 0.0, where=~mask)
    s /= s.sum(axis=-1, keepdims=True)
    return s


@functools.lru_cache(maxsize=None)
def rope_tables(cfg: ModelConfig, n_positions: int, dtype):
    """cos/sin tables of shape (n_positions, head_dim/2) in ``dtype``, built once per length."""
    half = cfg.head_dim // 2
    inv_freq = ROPE_BASE ** (-2.0 * np.arange(half) / cfg.head_dim)
    ang = np.arange(n_positions)[:, None] * inv_freq[None, :]
    cos, sin = np.cos(ang).astype(dtype, copy=False), np.sin(ang).astype(dtype, copy=False)
    cos.flags.writeable = sin.flags.writeable = False
    return cos, sin


@functools.lru_cache(maxsize=None)
def _causal_mask(n_positions: int) -> np.ndarray:
    mask = np.tril(np.ones((n_positions, n_positions), dtype=bool))
    mask.flags.writeable = False
    return mask


def rope_apply(x, cos, sin):
    """Rotate even/odd pairs of the last axis; x is (..., T, head_dim)."""
    x1, x2 = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = x1 * cos - x2 * sin
    out[..., 1::2] = x1 * sin + x2 * cos
    return out


def _rope_backward(dout, cos, sin, out):
    """Gradient through ``rope_apply``, written into ``out``."""
    d1, d2 = dout[..., 0::2], dout[..., 1::2]
    out[..., 0::2] = d1 * cos + d2 * sin
    out[..., 1::2] = -d1 * sin + d2 * cos


def _split_heads(x, n_heads):
    """(..., T, d) -> (..., H, T, head_dim)."""
    return x.reshape(*x.shape[:-1], n_heads, -1).swapaxes(-2, -3)


def _merge_heads(x):
    """(..., H, T, head_dim) -> (..., T, d)."""
    x = x.swapaxes(-2, -3)
    return x.reshape(*x.shape[:-2], -1)


def _token_sum(delta, x):
    """sum over every token of delta_t x_t^T: the weight gradient of a batch."""
    return delta.reshape(-1, delta.shape[-1]).T @ x.reshape(-1, x.shape[-1])


# ------------------------------------------------------------------- engine
#
# One engine serves every caller. A call takes a chunk of B equal-length
# sequences (one sequence is a chunk of one); every cached array carries a
# leading B axis, and every operation is elementwise, a reduction over the
# last axis, or a stacked matmul, so each sequence's numbers are bitwise the
# same whichever chunk (and chunk position) it is computed in. Arrays take the
# parameters' dtype; constants are Python floats, which never widen float32.

CHUNK_TOKENS = 384  # tokens per engine call; measured in README "Model engine"


def chunks(table: TokenTable):
    """Bucket a TokenTable's records by length and split each bucket into
    engine calls.

    Yields ``(positions, tokens)``: ``tokens`` is an int64 (B, T) array of
    records of one length T, sliced from the table, with B at most
    ``CHUNK_TOKENS // T`` (and at least 1), and ``positions`` their rows in
    ``table``. Buckets come in increasing length, each in table order;
    callers scatter results back through ``positions``.
    """
    lengths = table.lengths
    order = np.argsort(lengths, kind="stable")
    bounds = np.flatnonzero(np.diff(lengths[order])) + 1
    for bucket in np.split(order, bounds) if order.size else ():
        T = int(lengths[bucket[0]])
        per_call = max(1, CHUNK_TOKENS // T)
        for start in range(0, bucket.size, per_call):
            pos = bucket[start : start + per_call]
            yield pos, table.tokens[table.offsets[pos][:, None] + np.arange(T)]


@dataclass
class ForwardCache:
    params: ParamSet
    tokens: np.ndarray  # (B, T)
    layer_saves: list[dict] = field(default_factory=list)
    h_final: np.ndarray = None
    ms_final: np.ndarray = None  # mean square of h_final, from _rmsnorm
    hn: np.ndarray = None
    probs: np.ndarray = None


def forward(params: ParamSet, tokens, seq_len: int):
    """Mean next-token cross-entropy per sequence; returns (loss, cache).

    ``tokens`` is a chunk of B sequences of length ``seq_len`` laid end to end
    (``len(tokens)`` is the token count, B * seq_len). The loss is a (B,)
    array, and every cached array has a leading B axis.
    """
    cfg = params.config
    tokens = np.asarray(tokens, dtype=np.int64)
    T = seq_len
    if tokens.ndim != 1 or T < 2 or tokens.size < T or tokens.size % T:
        raise DataError("chunk must be 1-D, whole sequences of length >= 2")
    if T > cfg.max_context:
        raise DataError(f"sequence length {T} exceeds max_context {cfg.max_context}")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
        raise DataError("token id outside vocabulary")
    tokens = tokens.reshape(-1, T)

    H, dh = cfg.n_heads, cfg.head_dim
    cos, sin = rope_tables(cfg, T, params.embed.dtype)
    mask = _causal_mask(T)

    cache = ForwardCache(params=params, tokens=tokens)
    h = params.embed[tokens]
    for blk in params.layers:
        x_attn, ms_in = _rmsnorm(h)
        save: dict = {"h_in": h, "ms_in": ms_in}
        qkv = _split_heads(x_attn @ blk.w_qkv.T, 3 * H)
        qk = rope_apply(qkv[:, : 2 * H], cos, sin)  # Q and K rotated together
        qr, kr, v = qk[:, :H], qk[:, H:], qkv[:, 2 * H :]
        scores = qr @ kr.swapaxes(-1, -2)
        scores /= math.sqrt(dh)
        attn = _softmax(scores, mask)
        attn_in = _merge_heads(attn @ v)
        h = h + attn_in @ blk.w_o.T
        save.update(x_attn=x_attn, qr=qr, kr=kr, vh=v, attn=attn,
                    attn_in=attn_in, h_mid=h)
        x_mlp, ms_mid = _rmsnorm(h)
        u = x_mlp @ blk.w_up.T
        act, sig = _silu(u)
        h = h + act @ blk.w_down.T
        save.update(ms_mid=ms_mid, x_mlp=x_mlp, u=u, sig=sig, act=act)
        cache.layer_saves.append(save)

    cache.h_final = h
    cache.hn, cache.ms_final = _rmsnorm(h)
    cache.probs = _softmax(cache.hn @ params.head.T)
    n_pred = T - 1
    p_target = np.take_along_axis(cache.probs[..., :n_pred, :], tokens[..., 1:, None], axis=-1)
    return -np.log(p_target[..., 0]).sum(axis=-1) / n_pred, cache


def ce_dlogits(cache: ForwardCache) -> np.ndarray:
    """Gradient of each sequence's mean next-token loss with respect to its logits."""
    n_pred = cache.tokens.shape[-1] - 1
    dlogits = cache.probs / n_pred
    rows = dlogits[..., :n_pred, :]
    targets = cache.tokens[..., 1:, None]
    np.put_along_axis(rows, targets,
                      np.take_along_axis(rows, targets, axis=-1) - 1.0 / n_pred, axis=-1)
    dlogits[..., n_pred:, :] = 0.0
    return dlogits


def backward(cache: ForwardCache, param_grads: bool = True):
    """Exact gradients of the cached loss plus per-layer taps, backpropagated
    from the cross-entropy logit gradient ``ce_dlogits(cache)``, at the
    parameters ``cache.params`` that ``forward`` ran with.

    Returns (grads, taps): grads is ParamSet-shaped and summed over a chunk's
    sequences (None when ``param_grads`` is false); taps hold the per-token
    (x, delta) rows of every tracked layer, sequence-major for a chunk, in
    ``tracked_layers`` order.
    """
    params = cache.params
    cfg = params.config
    B, T = cache.tokens.shape
    H, hd = cfg.n_heads, cfg.head_dim
    cos, sin = rope_tables(cfg, T, params.embed.dtype)

    grads = zeros_like_params(params) if param_grads else None
    taps: list[LayerTap] = []

    def tap(li, kind, x, delta):
        taps.append(LayerTap(li, kind, x=x.reshape(-1, x.shape[-1]),
                             delta=delta.reshape(-1, delta.shape[-1])))

    dlogits = ce_dlogits(cache)
    dhn = dlogits @ params.head
    dh = _rmsnorm_backward(cache.h_final, cache.ms_final, dhn)

    for li in range(cfg.n_layers - 1, -1, -1):
        blk = params.layers[li]
        save = cache.layer_saves[li]

        # MLP block
        delta_m2 = dh  # grad wrt w_down output
        delta_m1 = (delta_m2 @ blk.w_down) * _silu_grad(save["u"], save["sig"])
        dh = dh + _rmsnorm_backward(save["h_mid"], save["ms_mid"], delta_m1 @ blk.w_up)
        tap(li, "mlp-2", save["act"], delta_m2)
        tap(li, "mlp-1", save["x_mlp"], delta_m1)

        # attention block
        delta_o = dh  # grad wrt w_o output
        dctx = _split_heads(delta_o @ blk.w_o, H)
        attn, vh, qr, kr = save["attn"], save["vh"], save["qr"], save["kr"]
        dheads = np.empty((B, 3 * H, T, hd), dctx.dtype)  # q, k, v head gradients
        np.matmul(attn.swapaxes(-1, -2), dctx, out=dheads[:, 2 * H :])
        dscores = dctx @ vh.swapaxes(-1, -2)  # d attn, made d scores in place
        rowdot = np.sum(dscores * attn, axis=-1, keepdims=True)
        dscores -= rowdot
        dscores *= attn  # masked-out entries have attn == 0 so contribute nothing
        dscores /= math.sqrt(hd)
        drot = np.empty((B, 2 * H, T, hd), dctx.dtype)  # rotated q, k gradients
        np.matmul(dscores, kr, out=drot[:, :H])
        np.matmul(dscores.swapaxes(-1, -2), qr, out=drot[:, H:])
        _rope_backward(drot, cos, sin, out=dheads[:, : 2 * H])
        delta_qkv = _merge_heads(dheads)
        if li or param_grads:  # below layer 0, dh feeds only the embedding gradient
            dh = dh + _rmsnorm_backward(save["h_in"], save["ms_in"], delta_qkv @ blk.w_qkv)
        tap(li, "attn-out", save["attn_in"], delta_o)
        tap(li, "qkv-joint", save["x_attn"], delta_qkv)

        if param_grads:
            gblk = grads.layers[li]
            gblk.w_down += _token_sum(delta_m2, save["act"])
            gblk.w_up += _token_sum(delta_m1, save["x_mlp"])
            gblk.w_o += _token_sum(delta_o, save["attn_in"])
            gblk.w_qkv += _token_sum(delta_qkv, save["x_attn"])

    if param_grads:
        grads.head += _token_sum(dlogits, cache.hn)
        np.add.at(grads.embed, cache.tokens.ravel(), dh.reshape(-1, cfg.hidden_dim))
    taps.reverse()
    return grads, taps


def sequence_grads(tap: LayerTap, n_seq: int) -> np.ndarray:
    """Per-sequence weight gradients (n_seq, d_out, d_in) from a chunk's tap."""
    delta = tap.delta.reshape(n_seq, -1, tap.delta.shape[1])
    return delta.swapaxes(1, 2) @ tap.x.reshape(n_seq, -1, tap.x.shape[1])


def chunk_taps(params: ParamSet, table: TokenTable):
    """Forward and backward over ``table`` in engine chunks, keeping taps.

    Yields ``(positions, taps)`` per chunk (see ``chunks``), with ``backward``'s
    taps, one per entry of ``tracked_layers(params.config)`` and in its order.
    No parameter gradient is formed.
    """
    for pos, tokens in chunks(table):
        _, cache = forward(params, tokens.ravel(), seq_len=tokens.shape[1])
        yield pos, backward(cache, param_grads=False)[1]


# ----------------------------------------------------------- gradient views


def layer_grad_matrix(grads: ParamSet, tl: TrackedLayer) -> np.ndarray:
    """The stored (d_out, d_in) weight-gradient matrix of one tracked layer."""
    return getattr(grads.layers[tl.layer], WEIGHT_OF_KIND[tl.kind])


def grad_of_sequence(params: ParamSet, tokens) -> dict[str, np.ndarray]:
    """One sequence's row-major flattened tracked-layer gradients, from the
    parameter gradient of a one-sequence chunk (the per-sequence oracle)."""
    _, cache = forward(params, tokens, seq_len=len(tokens))
    grads, _ = backward(cache)
    return {tl.name: layer_grad_matrix(grads, tl).ravel()
            for tl in tracked_layers(params.config)}


def concat_layer_vectors(vectors: dict[str, np.ndarray], cfg: ModelConfig) -> np.ndarray:
    """The per-layer vectors laid end to end in ``tracked_layers(cfg)`` order."""
    return np.concatenate([vectors[tl.name] for tl in tracked_layers(cfg)])
