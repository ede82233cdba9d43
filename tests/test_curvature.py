import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from influence_select import curvature as C
from influence_select.errors import DataError, SingularFactorError
from influence_select.model import LayerTap, TrackedLayer


def _spd(rng, n, jitter=0.1):
    m = rng.normal(size=(n, n))
    return m @ m.T + jitter * np.eye(n)


def _tl(d_out=4, d_in=3, kind="attn-out"):
    return TrackedLayer("layer0." + kind, 0, kind, d_out, d_in)


def test_accumulate_single_pair():
    tl = _tl()
    x = np.array([[1.0, 2.0, -1.0]])
    delta = np.array([[0.5, 0.0, 2.0, 1.0]])
    fac = C.accumulate(C.zero_factor(tl), LayerTap(0, "attn-out", x=x, delta=delta))
    np.testing.assert_array_equal(fac.Delta, delta.T @ delta)
    np.testing.assert_array_equal(fac.X, x.T @ x)
    assert fac.sample_count == 1


def test_accumulate_same_tap_twice_identical_mean():
    rng = np.random.default_rng(0)
    tl = _tl()
    tap = LayerTap(0, "attn-out", x=rng.normal(size=(5, 3)), delta=rng.normal(size=(5, 4)))
    once = C.accumulate(C.zero_factor(tl), tap)
    twice = C.accumulate(once, tap)
    np.testing.assert_array_equal(once.Delta, twice.Delta)
    np.testing.assert_array_equal(once.X, twice.X)
    assert twice.sample_count == 10


def test_accumulate_matches_batch_mean_oracle():
    rng = np.random.default_rng(1)
    tl = _tl()
    taps = [
        LayerTap(0, "attn-out", x=rng.normal(size=(n, 3)), delta=rng.normal(size=(n, 4)))
        for n in rng.integers(1, 7, size=50)
    ]
    fac = C.zero_factor(tl)
    for tap in taps:
        fac = C.accumulate(fac, tap)
    # independent one-shot summation over every token pair
    all_x = np.concatenate([t.x for t in taps])
    all_d = np.concatenate([t.delta for t in taps])
    n = all_x.shape[0]
    np.testing.assert_allclose(fac.Delta, sum(np.outer(d, d) for d in all_d) / n, rtol=1e-12)
    np.testing.assert_allclose(fac.X, sum(np.outer(x, x) for x in all_x) / n, rtol=1e-12)
    assert fac.sample_count == n


def test_accumulate_dimension_mismatch():
    tl = _tl()
    tap = LayerTap(0, "attn-out", x=np.zeros((2, 5)), delta=np.zeros((2, 4)))
    with pytest.raises(DataError, match="do not match"):
        C.accumulate(C.zero_factor(tl), tap)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       n_taps=st.integers(min_value=1, max_value=6))
def test_factors_stay_symmetric(seed, n_taps):
    rng = np.random.default_rng(seed)
    tl = _tl()
    fac = C.zero_factor(tl)
    for _ in range(n_taps):
        fac = C.accumulate(
            fac,
            LayerTap(0, "attn-out", x=rng.normal(size=(3, 3)), delta=rng.normal(size=(3, 4))),
        )
    assert np.max(np.abs(fac.Delta - fac.Delta.T)) <= 1e-12
    assert np.max(np.abs(fac.X - fac.X.T)) <= 1e-12
    assert np.linalg.eigvalsh(fac.Delta).min() >= -1e-10
    assert np.linalg.eigvalsh(fac.X).min() >= -1e-10


def _joint_tap(x, dq, dk, dv):
    """The joint q/k/v tap: per-projection deltas side by side over one input."""
    return LayerTap(0, "qkv-joint", x=x, delta=np.concatenate([dq, dk, dv], axis=1))


def test_joint_pack_identical_blocks():
    u = np.array([[1.0, -2.0]])
    x = np.array([[3.0, 0.0, 1.0]])
    tap = _joint_tap(x, u, u, u)
    fac = C.accumulate(C.zero_factor(_tl(6, 3, "qkv-joint")), tap)
    np.testing.assert_array_equal(fac.Delta, np.kron(np.ones((3, 3)), np.outer(u, u)))


def test_joint_pack_zero_kv_blocks():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 3))
    dq = rng.normal(size=(4, 2))
    zeros = np.zeros((4, 2))
    tap = _joint_tap(x, dq, zeros, zeros)
    fac = C.accumulate(C.zero_factor(_tl(6, 3, "qkv-joint")), tap)
    np.testing.assert_array_equal(fac.Delta[2:, :], 0.0)
    np.testing.assert_array_equal(fac.Delta[:, 2:], 0.0)
    assert np.any(fac.Delta[:2, :2] != 0.0)


def test_joint_pack_cross_block_oracle():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 3))
    dq, dk, dv = (rng.normal(size=(40, 2)) for _ in range(3))
    tap = _joint_tap(x, dq, dk, dv)
    fac = C.accumulate(C.zero_factor(_tl(6, 3, "qkv-joint")), tap)
    want_qk = sum(np.outer(a, b) for a, b in zip(dq, dk)) / 40.0
    np.testing.assert_allclose(fac.Delta[0:2, 2:4], want_qk, rtol=1e-12)


def test_kron_ihvp_identity_factors():
    rng = np.random.default_rng(5)
    v = rng.normal(size=12)
    inv = C.factor_inverse(np.eye(3), np.eye(4), 0.0)
    np.testing.assert_array_equal(C.kron_ihvp(inv, v), v)


def test_kron_ihvp_homogeneity():
    rng = np.random.default_rng(6)
    delta, x = _spd(rng, 3), _spd(rng, 4)
    v = rng.normal(size=12)
    base = C.kron_ihvp(C.factor_inverse(delta, x, 0.0), v)
    scaled = C.kron_ihvp(C.factor_inverse(5.0 * delta, x, 0.0), v)
    np.testing.assert_allclose(scaled, base / 5.0, rtol=1e-12)


@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_kron_ihvp_matches_dense_solve(lam):
    rng = np.random.default_rng(7)
    delta, x = _spd(rng, 3), _spd(rng, 4)
    v = rng.normal(size=12)
    got = C.kron_ihvp(C.factor_inverse(delta, x, lam), v)
    dense = np.kron(delta, x) + lam * np.eye(12)
    want = np.linalg.solve(dense, v)
    assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-10


def test_kron_convention_row_major():
    # (Delta (x) X) vec_row(V) == vec_row(Delta V X^T) under row-major flattening
    rng = np.random.default_rng(8)
    delta, x = rng.normal(size=(3, 3)), rng.normal(size=(4, 4))
    V = rng.normal(size=(3, 4))
    np.testing.assert_allclose(
        np.kron(delta, x) @ V.ravel(), (delta @ V @ x.T).ravel(), rtol=1e-12
    )


def test_damping_monotonicity():
    rng = np.random.default_rng(9)
    delta, x = _spd(rng, 4), _spd(rng, 5)
    v = rng.normal(size=20)
    norms = [
        np.linalg.norm(C.kron_ihvp(C.factor_inverse(delta, x, lam), v))
        for lam in (0.0, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_block_diagonal_joint_equals_independent():
    rng = np.random.default_rng(10)
    d = 3
    blocks = [_spd(rng, d) for _ in range(3)]
    delta = np.zeros((3 * d, 3 * d))
    for i, b in enumerate(blocks):
        delta[i * d : (i + 1) * d, i * d : (i + 1) * d] = b
    x = _spd(rng, 4)
    tl = TrackedLayer("layer0.qkv-joint", 0, "qkv-joint", 3 * d, 4)
    fac = C.KroneckerFactor("layer0.qkv-joint", "qkv-joint", 3 * d, 4,
                            delta_sum=delta, x_sum=x, sample_count=1)
    v = rng.normal(size=3 * d * 4)
    for lam in (0.0, 1e-2):
        joint = C.kron_ihvp(C.inverse_of_factor(fac, lam), v)
        indep = C.qkv_independent_ihvp(fac, lam, v)
        np.testing.assert_allclose(joint, indep, rtol=1e-9, atol=1e-12)


def test_singular_factor_reports_eigenvalue():
    inv = C.factor_inverse(np.zeros((2, 2)), np.eye(3), 0.0)
    with pytest.raises(SingularFactorError, match="underflows"):
        C.kron_ihvp(inv, np.zeros(6))


def test_eq10_three_way_agreement():
    # kron_ihvp at lambda=0 == vec(Delta^-1 V X^-1) == dense inverse applied to v
    rng = np.random.default_rng(12)
    for _ in range(10):
        d_out, d_in = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        delta, x = _spd(rng, d_out), _spd(rng, d_in)
        v = rng.normal(size=d_out * d_in)
        fast = C.kron_ihvp(C.factor_inverse(delta, x, 0.0), v)
        V = v.reshape(d_out, d_in)
        matrix_form = (np.linalg.inv(delta) @ V @ np.linalg.inv(x)).ravel()
        dense = np.linalg.solve(np.kron(delta, x), v)
        scale = np.linalg.norm(dense)
        assert np.linalg.norm(fast - matrix_form) / scale <= 1e-10
        assert np.linalg.norm(fast - dense) / scale <= 1e-10


def test_factor_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    tl_a = _tl(4, 3, "attn-out")
    tl_b = TrackedLayer("layer0.qkv-joint", 0, "qkv-joint", 6, 3)
    factors = {}
    for tl in (tl_a, tl_b):
        fac = C.zero_factor(tl)
        for _ in range(3):
            fac = C.accumulate(fac, LayerTap(0, tl.kind, x=rng.normal(size=(5, tl.d_in)),
                                             delta=rng.normal(size=(5, tl.d_out))))
        factors[tl.name] = fac
    path = tmp_path / "factors.ntc"
    path.write_bytes(C.encode_factors(factors))
    again = C.load_factors(path)
    assert set(again) == set(factors)
    for name in factors:
        assert again[name].kind == factors[name].kind
        assert again[name].sample_count == factors[name].sample_count
        np.testing.assert_allclose(again[name].Delta, factors[name].Delta, rtol=1e-15)
        np.testing.assert_allclose(again[name].X, factors[name].X, rtol=1e-15)
