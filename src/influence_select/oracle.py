"""Brute-force ground truth at tiny scale.

Everything here materializes what the fast path only approximates: dense
curvature over the full tracked-parameter vector and dense damped solves.
``method_ihvps`` defines the no-Hessian / independent-QKV / joint-QKV
approximations once. The comparison harness scores the same candidates with
each of them and with the exact iHVP (on a model, through
``influence.score_batch``) and reports the approximations' correlation
against the exact scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import TokenTable
from .curvature import (
    KroneckerFactor,
    accumulate,
    collect_factors,
    factor_inverse,
    inverse_of_factor,
    kron_ihvp,
    qkv_independent_ihvp,
    zero_factor,
)
from .errors import DataError, NumericError
from .influence import IhvpVector, reference_ihvp, score_batch
from .model import (
    LayerTap,
    ModelConfig,
    ParamSet,
    TrackedLayer,
    backward,
    concat_layer_vectors,
    forward,
    grad_of_sequence,
    init_params,
    tracked_layers,
)

PARAM_CAP = 3000
SOLVE_RESIDUAL_RTOL = 1e-9

METHODS = ("no-hessian", "independent-qkv", "joint-qkv")

# the gradient check's model and sequence length; no config key sets them
GRADCHECK_MODEL = ModelConfig(vocab_size=13, hidden_dim=12, n_layers=1, n_heads=2,
                              max_context=32, mlp_ratio=8.0 / 3.0)
GRADCHECK_SEQ_LEN = 8


def dense_curvature(params: ParamSet, table: TokenTable, param_cap: int = PARAM_CAP) -> np.ndarray:
    """Exact (P, P) curvature over the flattened tracked parameters: the mean
    of per-sequence flattened gradient outer products, the quantity the
    Kronecker factorization targets. Each record of ``table`` goes through
    the engine as a chunk of one.
    """
    P = sum(tl.flat_dim for tl in tracked_layers(params.config))
    if P > param_cap:
        raise DataError(f"tracked parameter count {P} exceeds dense cap {param_cap}")
    H = np.zeros((P, P))
    for seq in table:
        g = concat_layer_vectors(grad_of_sequence(params, seq), params.config)
        H += np.outer(g, g)
    H /= len(table)
    return H


def dense_ihvp(H: np.ndarray, v: np.ndarray, damping: float) -> np.ndarray:
    """Solve (H + lambda I) x = v and validate the residual."""
    A = H + damping * np.eye(H.shape[0])
    x = np.linalg.solve(A, v)
    resid = np.linalg.norm(A @ x - v)
    vnorm = np.linalg.norm(v)
    if vnorm > 0 and resid > SOLVE_RESIDUAL_RTOL * vnorm:
        raise NumericError(
            f"dense solve residual {resid:.3e} exceeds {SOLVE_RESIDUAL_RTOL:.0e} * ||v||"
        )
    return x


def kronecker_identity_suite(rng: np.random.Generator, cases: int = 40) -> list[tuple]:
    """Factored iHVP against a dense solve on random SPD factors of sizes 2..8,
    at dampings 0, 1e-3 and 1e-1; rows ``(case, d_out, d_in, damping, rel_err)``."""
    rows = []
    for case in range(cases):
        d_out = int(rng.integers(2, 9))
        d_in = int(rng.integers(2, 9))
        a = rng.normal(size=(d_out, d_out))
        b = rng.normal(size=(d_in, d_in))
        delta = a @ a.T + 0.05 * np.eye(d_out)
        x = b @ b.T + 0.05 * np.eye(d_in)
        for lam in (0.0, 1e-3, 1e-1):
            v = rng.normal(size=d_out * d_in)
            got = kron_ihvp(factor_inverse(delta, x, lam), v)
            dense = np.kron(delta, x) + lam * np.eye(d_out * d_in)  # row-major vec
            want = np.linalg.solve(dense, v)
            rows.append((case, d_out, d_in, lam,
                         float(np.linalg.norm(got - want) / np.linalg.norm(want))))
    return rows


def finite_difference_check(params: ParamSet, seqs, picks) -> float:
    """Worst |fd - grad| / max(|fd|, |grad|, 1e-3) of the engine's gradient of
    the mean loss of ``seqs`` against central differences, at each
    ``(parameter name, index)`` of ``picks``."""
    grad = {name: np.zeros_like(arr) for name, arr in params.iter_named()}
    for seq in seqs:
        _, cache = forward(params, seq, seq_len=len(seq))
        g, _ = backward(params, cache)
        for name, arr in g.iter_named():
            grad[name] += arr / len(seqs)

    def mean_loss():
        return math.fsum(forward(params, s, seq_len=len(s))[0][0] for s in seqs) / len(seqs)

    arrays = dict(params.iter_named())
    h = 1e-5
    worst = 0.0
    for name, idx in picks:
        arr = arrays[name]
        old = arr[idx]
        arr[idx] = old + h
        lp = mean_loss()
        arr[idx] = old - h
        lm = mean_loss()
        arr[idx] = old
        fd = (lp - lm) / (2 * h)
        an = grad[name][idx]
        worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-3))
    return worst


@dataclass
class MethodReport:
    method: str
    pearson: float
    spearman: float
    n: int


def method_correlations(exact_scores, approx_by_method: dict[str, np.ndarray]) -> list[MethodReport]:
    # scipy.stats takes about a second to import; only oracle-check reaches here
    from scipy import stats

    exact_scores = np.asarray(exact_scores, dtype=np.float64)
    if np.std(exact_scores) == 0.0:
        raise NumericError("exact score vector has zero variance")
    out = []
    for method, scores in approx_by_method.items():
        scores = np.asarray(scores, dtype=np.float64)
        if np.std(scores) == 0.0:
            raise NumericError(f"{method} score vector has zero variance")
        out.append(
            MethodReport(
                method=method,
                pearson=float(stats.pearsonr(scores, exact_scores)[0]),
                spearman=float(stats.spearmanr(scores, exact_scores)[0]),
                n=exact_scores.shape[0],
            )
        )
    return out


def method_ihvps(factors: dict[str, KroneckerFactor], ref_grad: dict[str, np.ndarray],
                 damping: float) -> dict[str, IhvpVector]:
    """Each approximation's per-layer iHVP of ``ref_grad``, keyed by METHODS.

    no-hessian keeps the gradient; joint-qkv is the fast path's
    ``reference_ihvp``; independent-qkv differs from joint-qkv only on
    qkv-joint layers, where each projection gets its own block of Delta.
    """
    inverses = {name: inverse_of_factor(fac, damping) for name, fac in factors.items()}
    joint = reference_ihvp(ref_grad, inverses)
    indep = {name: qkv_independent_ihvp(factors[name], damping, ref_grad[name])
             if factors[name].kind == "qkv-joint" else vec
             for name, vec in joint.vectors.items()}
    return dict(zip(METHODS, (IhvpVector(dict(ref_grad)), IhvpVector(indep), joint)))


def compare_methods(
    candidates: TokenTable,
    params: ParamSet,
    ref_set: TokenTable,
    damping: float,
    curvature_set: TokenTable | None = None,
) -> list[MethodReport]:
    """Correlate the three approximations against exact dense influence.

    The dense curvature and the Kronecker factors are both estimated from
    ``curvature_set`` (default: the reference set) so the comparison
    isolates the structural approximation. The exact iHVP is the dense solve
    split back into layers in ``tracked_layers`` order; every method scores
    the candidates through ``score_batch``.
    """
    if len(candidates) < 2:
        raise DataError("need at least two candidates for a correlation")
    factors, ref_grad = collect_factors(params, ref_set)
    if curvature_set is None:
        curvature_set = ref_set
    else:
        factors = collect_factors(params, curvature_set)[0]
    ihvps = method_ihvps(factors, ref_grad, damping)

    H = dense_curvature(params, curvature_set)
    exact = dense_ihvp(H, concat_layer_vectors(ref_grad, params.config), damping)
    layers = tracked_layers(params.config)
    bounds = np.cumsum([tl.flat_dim for tl in layers])[:-1]
    ihvps["exact"] = IhvpVector(dict(zip([tl.name for tl in layers], np.split(exact, bounds))))

    scores = {m: np.array(score_batch(candidates, ihvp, params)) for m, ihvp in ihvps.items()}
    return method_correlations(scores.pop("exact"), scores)


# ----------------------------------------------- constructed qkv study data


@dataclass
class QkvStudyData:
    """A single synthetic joint-QKV block: curvature samples, a reference
    gradient, and candidate gradients, all as raw (x, delta) pairs."""

    d_proj: int
    d_in: int
    curv_x: np.ndarray  # (n, d_in)
    curv_delta: np.ndarray  # (n, 3*d_proj)
    cand_x: np.ndarray
    cand_delta: np.ndarray
    ref_grad: np.ndarray  # (3*d_proj*d_in,)


def make_qkv_study(
    n_curvature: int,
    n_candidates: int,
    d_proj: int,
    d_in: int,
    coupling: float,
    seed: int,
    decorrelate: bool = False,
) -> QkvStudyData:
    """Draw (x, delta) samples for a fake joint-QKV layer.

    ``coupling`` in [0, 1) mixes a shared latent into the q/k/v deltas so
    their cross-correlation can be dialed up. With ``decorrelate`` every
    sample is expanded into four block-sign copies whose cross moments cancel
    exactly, leaving the diagonal blocks untouched.
    """
    rng = np.random.default_rng(seed)
    # one anisotropic distribution shared by curvature, candidate and ref draws
    scales_x = np.exp(rng.uniform(-1.5, 1.5, size=d_in))
    basis_x = np.linalg.qr(rng.normal(size=(d_in, d_in)))[0]
    scales_delta = np.exp(rng.uniform(-1.0, 1.0, size=3 * d_proj))

    def draw(n):
        x = (rng.normal(size=(n, d_in)) * scales_x) @ basis_x.T
        shared = rng.normal(size=(n, d_proj))
        own = rng.normal(size=(n, 3 * d_proj))
        delta = np.empty((n, 3 * d_proj))
        for b in range(3):
            sl = slice(b * d_proj, (b + 1) * d_proj)
            delta[:, sl] = coupling * shared + (1.0 - coupling) * own[:, sl]
        delta = delta * scales_delta
        return x, delta

    curv_x, curv_delta = draw(n_curvature)
    cand_x, cand_delta = draw(n_candidates)
    if decorrelate:
        curv_x, curv_delta = decorrelate_qkv(curv_x, curv_delta, d_proj)
    ref_x, ref_delta = draw(64)
    ref_grad = np.einsum("ni,nj->ij", ref_delta, ref_x).ravel() / ref_x.shape[0]
    return QkvStudyData(
        d_proj=d_proj, d_in=d_in,
        curv_x=curv_x, curv_delta=curv_delta,
        cand_x=cand_x, cand_delta=cand_delta,
        ref_grad=ref_grad,
    )


def decorrelate_qkv(x: np.ndarray, delta: np.ndarray, d_proj: int):
    """Expand samples 4x with block-sign patterns whose q/k/v cross moments
    cancel exactly while every diagonal block is preserved."""
    patterns = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    xs, ds = [], []
    for sq, sk, sv in patterns:
        d = delta.copy()
        d[:, 0 * d_proj : 1 * d_proj] *= sq
        d[:, 1 * d_proj : 2 * d_proj] *= sk
        d[:, 2 * d_proj : 3 * d_proj] *= sv
        xs.append(x.copy())
        ds.append(d)
    return np.concatenate(xs), np.concatenate(ds)


def qkv_factor_from_samples(x: np.ndarray, delta: np.ndarray) -> KroneckerFactor:
    tl = TrackedLayer("study.qkv-joint", 0, "qkv-joint", delta.shape[1], x.shape[1])
    return accumulate(zero_factor(tl), LayerTap(0, "qkv-joint", x=x, delta=delta))


def run_qkv_study(data: QkvStudyData, damping: float) -> tuple[list[MethodReport], dict]:
    """Score candidates with all three approximations against the dense oracle."""
    grads = np.einsum("ni,nj->nij", data.cand_delta, data.cand_x).reshape(
        data.cand_x.shape[0], -1
    )
    curv_grads = np.einsum("ni,nj->nij", data.curv_delta, data.curv_x).reshape(
        data.curv_x.shape[0], -1
    )
    H = curv_grads.T @ curv_grads / curv_grads.shape[0]
    if H.shape[0] > PARAM_CAP:
        raise DataError(f"study dimension {H.shape[0]} exceeds dense cap {PARAM_CAP}")
    exact_vec = dense_ihvp(H, data.ref_grad, damping)
    exact = grads @ exact_vec

    fac = qkv_factor_from_samples(data.curv_x, data.curv_delta)
    ihvps = method_ihvps({fac.layer: fac}, {fac.layer: data.ref_grad}, damping)
    approx = {m: grads @ ihvp.vectors[fac.layer] for m, ihvp in ihvps.items()}
    reports = method_correlations(exact, approx)
    return reports, {"exact": exact, **approx}


# ------------------------------------------------------------ oracle-check


def run_oracle_check(oc, write) -> str:
    """The ``oracle-check`` command for config section ``oc``: the Kronecker
    identity suite, central differences at 200 random entries of the fixed
    ``GRADCHECK_MODEL`` over three random sequences, and the method ordering
    on the joint-QKV study, whose shape, coupling and damping (1e-3) are
    fixed. Each table goes to ``write(file name, header,
    rows)`` before its tolerance is applied; a breach raises NumericError.
    Returns a one-line summary."""
    rng = np.random.default_rng(oc.seed)
    rows = kronecker_identity_suite(rng)
    write("oracle_kronecker.csv", "case,d_out,d_in,damping,rel_err", rows)
    kron_worst = max(row[4] for row in rows)
    if kron_worst > 1e-10:
        raise NumericError(f"kronecker identity breach: rel err {kron_worst:.3e} > 1e-10")

    params = init_params(GRADCHECK_MODEL, seed=oc.seed)
    seqs = [rng.integers(0, GRADCHECK_MODEL.vocab_size, size=GRADCHECK_SEQ_LEN).tolist()
            for _ in range(3)]
    arrays = dict(params.iter_named())
    names = list(arrays)
    picks = []
    for _ in range(200):
        name = names[int(rng.integers(len(names)))]
        picks.append((name, tuple(int(rng.integers(s)) for s in arrays[name].shape)))
    grad_worst = finite_difference_check(params, seqs, picks)
    write("oracle_gradcheck.csv", "check,worst_rel_err", [("finite-difference-sample", grad_worst)])
    if grad_worst > 1e-6:
        raise NumericError(f"gradient check breach: rel err {grad_worst:.3e} > 1e-6")

    data = make_qkv_study(n_curvature=4000, n_candidates=oc.candidates,
                          d_proj=6, d_in=8, coupling=0.85, seed=oc.seed)
    reports, _ = run_qkv_study(data, damping=1e-3)
    write("oracle_methods.csv", "method,pearson,spearman,n",
          [(r.method, r.pearson, r.spearman, r.n) for r in reports])
    by = {r.method: r.pearson for r in reports}
    if not (by["joint-qkv"] > by["independent-qkv"] > by["no-hessian"]):
        raise NumericError(f"method ordering violated: {by}")
    return (f"kron rel_err {kron_worst:.2e}, grad rel_err {grad_worst:.2e}, "
            f"pearson joint={by['joint-qkv']:.3f} indep={by['independent-qkv']:.3f} "
            f"none={by['no-hessian']:.3f}")
