"""Codebook checks: assignment against brute force, straight-through
pass-through, EMA law, commitment loss, diagnostics, checkpointing."""

import dataclasses
import re

import numpy as np
import pytest

import longvq.tensor as T
from longvq.attention import AttentionConfig
from longvq.model import Model, ModelConfig, load_checkpoint, save_checkpoint
from longvq.rng import Rng
from longvq.vq import (
    EMA_EPSILON, EMA_ETA, Codebook, assign_batch, codebook_perplexity,
    commit_loss, ema_update, quantize_st, seed_codebook,
)
from longvq.tensor import Tensor, grad, precision


@pytest.fixture(autouse=True)
def _float64():
    with precision("float64"):
        yield


def make_cb(S, D, rng):
    C = rng.normal((S, D))
    return Codebook(C=C, ema_count=np.ones(S), ema_sum=C.copy())


def brute_force_assign(x, C):
    d = ((C - x[None, :]) ** 2).sum(-1)
    best = 0
    for s in range(1, C.shape[0]):
        if d[s] < d[best]:
            best = s
    return best


# ---------------------------------------------------------------------------
# assignment

def test_assign_hand_case():
    cb = Codebook(C=np.array([[0.0, 0.0], [1.0, 1.0]]),
                  ema_count=np.ones(2), ema_sum=np.zeros((2, 2)))
    assert assign_batch(np.array([[0.9, 0.8]]), cb)[0] == 1


def test_assign_exact_codeword():
    rng = Rng(0)
    cb = make_cb(6, 3, rng)
    assert assign_batch(cb.C[3:4].copy(), cb)[0] == 3


def test_assign_tie_prefers_lowest_index():
    cb = Codebook(C=np.array([[0.0, 0.0], [2.0, 0.0]]),
                  ema_count=np.ones(2), ema_sum=np.zeros((2, 2)))
    assert assign_batch(np.array([[1.0, 0.0]]), cb)[0] == 0


def test_assign_empty_codebook():
    cb = Codebook(C=np.zeros((0, 2)), ema_count=np.zeros(0),
                  ema_sum=np.zeros((0, 2)))
    with pytest.raises(ValueError):
        assign_batch(np.zeros((1, 2)), cb)


def test_assign_matches_brute_force():
    rng = Rng(1)
    for _ in range(20):
        S = int(rng.integers(1, 12))
        D = int(rng.integers(1, 7))
        cb = make_cb(S, D, rng)
        X = rng.normal((15, D))
        got = assign_batch(X, cb)
        for i in range(15):
            assert got[i] == brute_force_assign(X[i], cb.C)


def test_assign_float32_matches_float64_brute_force():
    # float32 keys and codewords against a float64 argmin of the true
    # squared distance, wherever the float64 gap between the best and the
    # second-best code is wider than what float32 can resolve
    rng = Rng(2)
    for S, D in ((64, 16), (256, 16), (7, 3)):
        C = rng.normal((S, D)).astype(np.float32)
        cb = Codebook(C=C, ema_count=np.ones(S, np.float32),
                      ema_sum=C.copy())
        X = rng.normal((4, 512, D)).astype(np.float32)
        got = assign_batch(X, cb).reshape(-1)
        x64, c64 = X.reshape(-1, D).astype(np.float64), C.astype(np.float64)
        d64 = ((x64[:, None, :] - c64[None]) ** 2).sum(-1)
        want = d64.argmin(-1)
        two = np.sort(d64, axis=-1)[:, :2]
        scale = (x64 * x64).sum(-1) + (c64 * c64).sum(-1).max()
        clear = two[:, 1] - two[:, 0] > 64 * np.finfo(np.float32).eps * scale
        assert clear.mean() > 0.9
        np.testing.assert_array_equal(got[clear], want[clear])


# ---------------------------------------------------------------------------
# straight-through

def test_quantize_rows_are_codewords():
    rng = Rng(2)
    cb = make_cb(4, 5, rng)
    K = Tensor(rng.normal((9, 5)))
    K_hat, z = quantize_st(K, cb)
    for i in range(9):
        assert any(np.array_equal(K_hat.data[i], row) for row in cb.C)
        np.testing.assert_array_equal(K_hat.data[i], cb.C[z[i]])


def test_quantize_fixed_point_bitwise():
    rng = Rng(3)
    cb = make_cb(5, 4, rng)
    K = Tensor(cb.C[np.array([2, 0, 4, 4])].copy())
    K_hat, z = quantize_st(K, cb)
    assert np.array_equal(K_hat.data, K.data)
    np.testing.assert_array_equal(z, [2, 0, 4, 4])


def test_quantize_passthrough_grad_ones():
    rng = Rng(4)
    cb = make_cb(4, 3, rng)
    K = Tensor(rng.normal((7, 3)), requires_grad=True, name="K")
    K_hat, _ = quantize_st(K, cb)
    (g,) = grad(T.tsum(K_hat), [K])
    np.testing.assert_array_equal(g, np.ones_like(K.data))


def test_quantize_passthrough_arbitrary_downstream():
    # dL/dK must equal dL/dK_hat elementwise for a nonlinear downstream loss
    rng = Rng(5)
    cb = make_cb(6, 4, rng)
    K = Tensor(rng.normal((8, 4)), requires_grad=True, name="K")
    W, b = Tensor(rng.normal((4, 4))), Tensor(np.zeros(4))

    K_hat, _ = quantize_st(K, cb)
    y = T.linear(K_hat, W, b)
    loss = T.tsum(T.silu(y) * T.silu(y))
    (gK,) = grad(loss, [K])

    K_fixed = Tensor(K_hat.data.copy(), requires_grad=True, name="Kh")
    y2 = T.linear(K_fixed, W, b)
    loss2 = T.tsum(T.silu(y2) * T.silu(y2))
    (gKh,) = grad(loss2, [K_fixed])
    np.testing.assert_array_equal(gK, gKh)


def test_quantize_codebook_untouched_by_backward():
    rng = Rng(6)
    cb = make_cb(4, 3, rng)
    before = cb.C.copy()
    K = Tensor(rng.normal((5, 3)), requires_grad=True, name="K")
    K_hat, z = quantize_st(K, cb)
    loss = T.tsum(K_hat * K_hat) + commit_loss(K, cb, z)
    grad(loss, [K])
    np.testing.assert_array_equal(cb.C, before)


# ---------------------------------------------------------------------------
# EMA law

def test_ema_zero_history_balanced_batch_means():
    # from zero accumulators both take (1 - eta) of the batch, so the
    # codewords are the batch means, whatever eta is
    rng = Rng(7)
    S, D = 3, 2
    cb = make_cb(S, D, rng)
    cb.ema_count, cb.ema_sum = np.zeros(S), np.zeros((S, D))
    K = rng.normal((12, D))
    z = np.repeat(np.arange(S), 4)  # balanced: smoothing cancels exactly
    ema_update(cb, K, z)
    for s in range(S):
        np.testing.assert_allclose(cb.C[s], K[z == s].mean(0), atol=1e-12)


def test_ema_names_out_of_range_shortcode():
    # the check runs before the codebook is touched
    rng = Rng(17)
    cb = make_cb(4, 2, rng)
    before = (cb.C.copy(), cb.ema_count.copy(), cb.ema_sum.copy())
    K = rng.normal((2, 4, 2))
    for z, want in ((np.array([[0, 1, 7, 2], [0, 0, 0, 0]]),
                     r"shortcode 7 at position \(0, 2\) is outside \[0, 4\)"),
                    (np.array([[0, 1, 2, 3], [3, -1, 0, 0]]),
                     r"shortcode -1 at position \(1, 1\) ")):
        with pytest.raises(ValueError, match=want):
            ema_update(cb, K, z)
    for a, b in zip(before, (cb.C, cb.ema_count, cb.ema_sum)):
        np.testing.assert_array_equal(a, b)


def test_ema_eta099_geometric_contraction():
    rng = Rng(8)
    S, D = 4, 3
    cb = make_cb(S, D, rng)
    targets = rng.normal((S, D))
    prev = np.linalg.norm(cb.C - targets, axis=1)
    for _ in range(20):
        ema_update(cb, targets, np.arange(S))  # one vector per code
        cur = np.linalg.norm(cb.C - targets, axis=1)
        np.testing.assert_allclose(cur / prev, EMA_ETA, atol=1e-9)
        prev = cur


def test_ema_unhit_code_decays_and_drifts_only_via_smoothing():
    rng = Rng(9)
    cb = make_cb(3, 2, rng)
    c2_init = cb.C[2].copy()
    K = rng.normal((8, 2))
    z = np.array([0, 0, 0, 0, 1, 1, 1, 1])  # code 2 never hit
    n2, m2 = cb.ema_count[2], cb.ema_sum[2].copy()
    m_all = cb.ema_sum.copy()
    ema_update(cb, K, z)
    # the per-code sums equal np.add.at's: repeated codes, one never hit
    ref = np.zeros_like(m_all)
    np.add.at(ref, z, K)
    np.testing.assert_allclose(cb.ema_sum,
                               EMA_ETA * m_all + (1 - EMA_ETA) * ref,
                               atol=1e-12)
    np.testing.assert_allclose(cb.ema_count[2], EMA_ETA * n2, atol=1e-12)
    np.testing.assert_allclose(cb.ema_sum[2], EMA_ETA * m2, atol=1e-12)
    # position change is bounded by the smoothing scale
    assert np.linalg.norm(cb.C[2] - c2_init) < 1e-3


def test_ema_invariant_c_equals_smoothed_ratio():
    rng = Rng(10)
    cb = make_cb(5, 3, rng)
    for step in range(4):
        K = rng.normal((20, 3))
        ema_update(cb, K, assign_batch(K, cb))
        assert np.all(cb.ema_count >= 0)
        total = cb.ema_count.sum()
        smoothed = (cb.ema_count + EMA_EPSILON) / (total + 5 * EMA_EPSILON) \
            * total
        np.testing.assert_allclose(cb.C, cb.ema_sum / smoothed[:, None],
                                   atol=1e-12)


# ---------------------------------------------------------------------------
# commitment loss

def test_commit_loss_zero_at_fixed_point():
    rng = Rng(11)
    cb = make_cb(4, 3, rng)
    K = Tensor(cb.C[np.array([1, 3])].copy())
    z = np.array([1, 3])
    assert float(commit_loss(K, cb, z).data) == 0.0


def test_commit_loss_hand_value():
    cb = Codebook(C=np.array([[0.0, 0.0]]), ema_count=np.ones(1),
                  ema_sum=np.zeros((1, 2)))
    K = Tensor(np.array([[1.0, 0.0]]))
    assert abs(float(commit_loss(K, cb, np.array([0])).data) - 0.5) < 1e-12


def test_commit_loss_grad_to_keys_only():
    rng = Rng(12)
    cb = make_cb(4, 3, rng)
    K = Tensor(rng.normal((6, 3)), requires_grad=True, name="K")
    z = assign_batch(K.data, cb)
    C_before = cb.C.copy()
    (g,) = grad(commit_loss(K, cb, z), [K])
    want = 2.0 * (K.data - cb.C[z]) / K.data.size
    np.testing.assert_allclose(g, want, atol=1e-12)
    np.testing.assert_array_equal(cb.C, C_before)


@pytest.mark.parametrize("call,want", [
    (lambda cb, k: ema_update(cb, k(10, 5), np.zeros(10, int)),
     "K_batch of shape (10, 5) does not match the codebook of shape "
     "(S, D) = (8, 4)"),
    (lambda cb, k: ema_update(cb, k(10, 4), np.zeros(9, int)),
     "z of shape (9,) does not give one code per row of K_batch, of shape "
     "(10, 4)"),
    (lambda cb, k: assign_batch(k(3, 5), cb),
     "x of shape (3, 5) does not match the codebook of shape (S, D) = "
     "(8, 4)"),
    (lambda cb, k: quantize_st(Tensor(k(2, 3, 5)), cb),
     "K of shape (2, 3, 5) does not match the codebook of shape (S, D) = "
     "(8, 4)"),
    (lambda cb, k: commit_loss(Tensor(k(2, 10, 4)), cb,
                               np.zeros((2, 9), int)),
     "z of shape (2, 9) does not give one code per row of K, of shape "
     "(2, 10, 4)"),
    (lambda cb, k: commit_loss(Tensor(k(2, 10, 3)), cb,
                               np.zeros((2, 10), int)),
     "K of shape (2, 10, 3) does not match the codebook of shape (S, D) = "
     "(8, 4)"),
    (lambda cb, k: commit_loss(Tensor(k(2, 4, 4)), cb,
                               np.array([[0, 1, 2, 3], [4, 5, 9, 7]])),
     "z: shortcode 9 at position (1, 2) is outside [0, 8)"),
], ids=["ema-width", "ema-count", "assign-width", "quantize-width",
        "commit-z-shape", "commit-width", "commit-code"])
def test_mismatched_inputs_name_the_argument(call, want):
    # each public function checks its inputs against the codebook (S=8,
    # D=4) before numpy can fail on them with a message of its own
    rng = Rng(21)
    cb = make_cb(8, 4, rng)
    with pytest.raises(ValueError, match=re.escape(want)):
        call(cb, lambda *shape: rng.normal(shape))


# ---------------------------------------------------------------------------
# diagnostics, equivariance, checkpoint

def test_perplexity_extremes_and_hand_case():
    assert abs(codebook_perplexity(np.zeros(10, dtype=int), 4) - 1.0) < 1e-12
    z = np.arange(8) % 8
    assert abs(codebook_perplexity(z, 8) - 8.0) < 1e-12
    assert abs(codebook_perplexity(np.array([0, 0, 1, 1]), 4) - 2.0) < 1e-12


def test_permutation_equivariance():
    rng = Rng(13)
    S, D = 6, 4
    cb = make_cb(S, D, rng)
    K = Tensor(rng.normal((10, D)))
    K_hat, z = quantize_st(K, cb)
    loss = float(commit_loss(K, cb, z).data)

    perm = Rng(14).permutation(S)
    cb2 = Codebook(C=cb.C[perm].copy(), ema_count=cb.ema_count[perm].copy(),
                   ema_sum=cb.ema_sum[perm].copy())
    K_hat2, z2 = quantize_st(K, cb2)
    np.testing.assert_array_equal(K_hat.data, K_hat2.data)
    np.testing.assert_array_equal(perm[z2], z)
    assert abs(float(commit_loss(K, cb2, z2).data) - loss) < 1e-12


def test_seed_codebook_rows_come_from_keys():
    rng = Rng(15)
    K = rng.normal((50, 4))
    cb = seed_codebook(K, 8, Rng(16))
    rows = {tuple(np.round(r, 9)) for r in K}
    for s in range(8):
        assert tuple(np.round(cb.C[s], 9)) in rows
    np.testing.assert_array_equal(cb.ema_count, np.ones(8))
    np.testing.assert_array_equal(cb.ema_sum, cb.C)


def test_seed_codebook_deterministic():
    rng = Rng(17)
    K = rng.normal((40, 3))
    a = seed_codebook(K, 6, Rng(18))
    b = seed_codebook(K, 6, Rng(18))
    np.testing.assert_array_equal(a.C, b.C)



def test_codebook_checkpoint_roundtrip(tmp_path):
    # codebook state travels in the model checkpoint, the one format;
    # every field of a Codebook is in it
    cfg = ModelConfig(attn=AttentionConfig("softmax", 2, True, z_dim=3,
                                           v_dim=4),
                      head="mean_pool_classify", n_out=2, depth=1,
                      d_model=4, S=5, in_dim=2, n_state=2)
    rng = Rng(19)
    with precision("float32"):
        model = Model(cfg, Rng(20))
        model(rng.normal((2, 6, 2), dtype=np.float32))   # seeds the codebook
        cb = model.layers()[0].codebook
        ema_update(cb, rng.normal((10, 3), dtype=np.float32),
                   assign_batch(rng.normal((10, 3)), cb))
        # the float64 per-key sums are cast back: no field changes dtype
        for f in dataclasses.fields(cb):
            assert getattr(cb, f.name).dtype == np.float32, f.name
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, model)
        cb2 = load_checkpoint(path, Model(cfg, Rng(21))).layers()[0].codebook
        for f in dataclasses.fields(cb):
            np.testing.assert_array_equal(getattr(cb, f.name),
                                          getattr(cb2, f.name))
