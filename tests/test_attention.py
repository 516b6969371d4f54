"""Attention checks: dense oracle hand cases, code statistics, exact
factored/dense agreement (values and gradients), and layer behavior."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit

import longvq.bench as bench
import longvq.factored as factored
import longvq.tensor as T
from longvq.attention import AttentionConfig, LongVQLayer, attn_dense_oracle
from longvq.factored import (
    CodeStats, attn_factored, attn_row_entropy, build_code_stats, stats_chunk,
)
from longvq.rng import Rng
from longvq.tensor import Tensor, grad, precision
from longvq.vq import Codebook


@pytest.fixture(autouse=True)
def _float64():
    with precision("float64"):
        yield


def rel_diff(a, b):
    # elementwise |a-b| / (1 + |b|): relative with a unit floor, since
    # attention outputs are weight-bounded mixtures of unit-scale values
    # and a bias can legitimately annihilate a row to ~0
    return np.max(np.abs(a - b) / (1.0 + np.abs(b)))


def random_instance(rng, L=None, S=None, zd=None, vd=None):
    """One sequence, with the op's batch axis: z (1, L), Q and V (1, L, .)."""
    L = L or int(rng.integers(1, 49))
    S = S or int(rng.integers(1, 17))
    zd = zd or int(rng.integers(1, 7))
    vd = vd or int(rng.integers(1, 9))
    C = rng.normal((S, zd))
    z = rng.integers(0, S, (1, L))
    Q = rng.normal((1, L, zd))
    V = rng.normal((1, L, vd))
    cb = Codebook(C=C, ema_count=np.ones(S), ema_sum=C.copy())
    return L, S, cb, z, Q, V


# ---------------------------------------------------------------------------
# dense oracle

def test_dense_zero_queries_softmax_uniform():
    rng = Rng(0)
    L, vd = 6, 3
    V = rng.normal((L, vd))
    cfg = AttentionConfig("softmax", 0, False, z_dim=2, v_dim=vd)
    out = attn_dense_oracle(Tensor(np.zeros((L, 2))),
                            Tensor(rng.normal((L, 2))), Tensor(V),
                            Tensor(np.zeros(1)), cfg)
    np.testing.assert_allclose(out.data, np.broadcast_to(V.mean(0), (L, vd)),
                               atol=1e-12)


def test_dense_relu2_all_negative_logits():
    cfg = AttentionConfig("relu2", 0, False, z_dim=1, v_dim=2)
    Q = Tensor(np.full((4, 1), 5.0))
    K = Tensor(np.full((4, 1), -5.0))
    V = Tensor(np.ones((4, 2)))
    out = attn_dense_oracle(Q, K, V, Tensor(np.zeros(1)), cfg)
    np.testing.assert_array_equal(out.data, np.zeros((4, 2)))


def test_dense_causal_softmax_hand_case():
    cfg = AttentionConfig("softmax", 0, True, z_dim=1, v_dim=1)
    Q = Tensor(np.array([[1.0], [0.0], [-1.0]]))
    K = Tensor(np.ones((3, 1)))
    V = Tensor(np.array([[1.0], [2.0], [3.0]]))
    out = attn_dense_oracle(Q, K, V, Tensor(np.zeros(1)), cfg)
    np.testing.assert_allclose(out.data[:, 0], [1.0, 1.5, 2.0], atol=1e-12)


def test_dense_softmax_rows_sum_one_over_allowed():
    rng = Rng(1)
    L = 7
    cfg = AttentionConfig("softmax", 2, True, z_dim=3, v_dim=L)
    Q, K = Tensor(rng.normal((L, 3))), Tensor(rng.normal((L, 3)))
    V = Tensor(np.eye(L))      # output row i = attention weights of row i
    out = attn_dense_oracle(Q, K, V, Tensor(rng.normal((5,))), cfg)
    np.testing.assert_allclose(out.data.sum(1), np.ones(L), atol=1e-12)
    assert np.all(out.data[np.triu_indices(L, k=1)] == 0.0)


@pytest.mark.parametrize("causal", [False, True])
@pytest.mark.parametrize("attn_fn", ["softmax", "relu2", "laplace"])
def test_dense_bias_lands_on_band_and_causal_weights_are_zero(attn_fn,
                                                              causal):
    # zero queries make every logit the bias of its offset (0 off the
    # band), and V = I makes the output the weights; the reference adds
    # bias[i - j + w] on |i - j| <= w only, and only at j <= i when causal
    L, w = 7, 2
    cfg = AttentionConfig(attn_fn, w, causal, z_dim=2, v_dim=L)
    bias = np.array([0.9, -0.4, 1.3, 0.2, -1.1])
    X = np.zeros((L, L))
    for i in range(L):
        for j in range(L):
            if abs(i - j) <= w:
                X[i, j] = bias[i - j + w]
    seen = np.tril(np.ones((L, L), dtype=bool)) if causal \
        else np.ones((L, L), dtype=bool)
    if attn_fn == "softmax":
        want = np.where(seen, np.exp(X), 0.0)
        want /= want.sum(axis=1, keepdims=True)
    else:
        want = np.where(seen, factored.phi_table(attn_fn)[0](X), 0.0)
    W = attn_dense_oracle(Tensor(np.zeros((L, 2))), Tensor(Rng(3).normal(
        (L, 2))), Tensor(np.eye(L)), Tensor(bias), cfg).data
    np.testing.assert_allclose(W, want, rtol=1e-13, atol=1e-15)
    if causal:
        assert np.all(W[np.triu_indices(L, k=1)] == 0.0)


def test_dense_names_the_bias_shape_it_got():
    cfg = AttentionConfig("softmax", 2, False, z_dim=2, v_dim=2)
    x = Tensor(np.zeros((4, 2)))
    with pytest.raises(ValueError, match=r"shape \(5,\), got \(3,\)"):
        attn_dense_oracle(x, x, x, Tensor(np.zeros(3)), cfg)
    # V must share (..., L): the node's V gradient has V's own shape
    for v in (np.zeros((3, 2)), np.zeros((2, 4, 2))):
        with pytest.raises(ValueError, match=re.escape(
                f"Q of shape (4, 2) and V of shape {v.shape} differ")):
            attn_dense_oracle(x, x, Tensor(v), Tensor(np.zeros(5)), cfg)


# ---------------------------------------------------------------------------
# code stats

def test_stats_hand_case():
    z = np.array([[0, 1, 0]])
    V = np.array([[[1.0], [2.0], [3.0]]])
    st = build_code_stats(z, V, 4, causal=False)
    np.testing.assert_array_equal(st.n, [[2, 1, 0, 0]])
    n, U = factored._code_stats(z, V, 4, None)
    np.testing.assert_array_equal(n, st.n)
    np.testing.assert_array_equal(U, [[[4.0], [2.0], [0.0], [0.0]]])


def test_stats_out_of_range():
    with pytest.raises(ValueError, match=r"shortcode 3 at batch 1, position 2 "
                                         r"is outside \[0, 3\)"):
        build_code_stats(np.array([[0, 1, 2], [2, 0, 3]]),
                         np.zeros((2, 3, 1)), 3, False)
    with pytest.raises(ValueError, match=r"shortcode -1 at batch 0, "
                                         r"position 0 "):
        build_code_stats(np.array([[-1, 0]]), np.zeros((1, 2, 1)), 3, True, 2)
    # the view runs the same checks when built directly or replaced
    with pytest.raises(ValueError, match=r"shortcode 4 at batch 0, position "
                                         r"1 is outside \[0, 4\)"):
        CodeStats(z=np.array([[0, 4]]), v=np.zeros((1, 2, 1)), S=4)
    st = build_code_stats(np.array([[0, 2]]), np.zeros((1, 2, 1)), 3, False)
    with pytest.raises(ValueError, match=r"shortcode 2 .* outside \[0, 2\)"):
        dataclasses.replace(st, S=2)


def test_stats_causal_prefix_matches_brute_force():
    rng = Rng(2)
    L, S, cs = 23, 5, 4
    z = rng.integers(0, S, (L,))
    V = rng.normal((L, 3))
    st = build_code_stats(z[None], V[None], S, causal=True, chunk=cs)
    n, U = factored._code_stats(z[None], V[None], S, cs)
    np.testing.assert_array_equal(n, st.n)
    Tn = n.shape[1]
    for t in range(Tn):
        hi = t * cs
        n_ref = np.bincount(z[:hi], minlength=S).astype(float)
        U_ref = np.zeros((S, 3))
        np.add.at(U_ref, z[:hi], V[:hi])
        np.testing.assert_allclose(n[0, t], n_ref, atol=1e-12)
        np.testing.assert_allclose(U[0, t], U_ref, atol=1e-12)


# ---------------------------------------------------------------------------
# factored == dense, forward

def run_both(cfg, cb, z, Q, V, bias, want_grads=False, probe_rng=None,
             chunk=None):
    S = cb.S
    Qf = Tensor(Q.copy(), requires_grad=True, name="Q")
    Kf = Tensor(cb.C[z].copy(), requires_grad=True, name="Kh")
    Vf = Tensor(V.copy(), requires_grad=True, name="V")
    bf = Tensor(bias.copy(), requires_grad=True, name="b")
    stats = build_code_stats(z, Vf.data, S, cfg.causal,
                             chunk or stats_chunk(cfg.window, cfg.causal))
    out_f = attn_factored(Qf, cb, stats, Kf, Vf, bf, cfg)

    Qd = Tensor(Q.copy(), requires_grad=True, name="Qd")
    Kd = Tensor(cb.C[z].copy(), requires_grad=True, name="Khd")
    Vd = Tensor(V.copy(), requires_grad=True, name="Vd")
    bd = Tensor(bias.copy(), requires_grad=True, name="bd")
    out_d = attn_dense_oracle(Qd, Kd, Vd, bd, cfg)
    if not want_grads:
        return out_f.data, out_d.data
    probe = probe_rng.normal(out_f.data.shape)
    gf = grad(T.tsum(out_f * Tensor(probe)), [Qf, Kf, Vf, bf])
    gd = grad(T.tsum(out_d * Tensor(probe)), [Qd, Kd, Vd, bd])
    return out_f.data, out_d.data, gf, gd


def combo_seed(*parts):
    import zlib
    return zlib.crc32(repr(parts).encode())


@pytest.mark.parametrize("attn_fn", ["softmax", "relu2", "laplace"])
@pytest.mark.parametrize("causal", [False, True])
@pytest.mark.parametrize("w", [0, 2, 8])
def test_factored_equals_dense_forward(attn_fn, causal, w):
    rng = Rng(combo_seed(attn_fn, causal, w))
    for _ in range(8):
        L, S, cb, z, Q, V = random_instance(rng)
        cfg = AttentionConfig(attn_fn, w, causal, z_dim=Q.shape[2],
                              v_dim=V.shape[2])
        bias = rng.normal((2 * w + 1,))
        f, d = run_both(cfg, cb, z, Q, V, bias)
        assert rel_diff(f, d) < 1e-10, (L, S)


@pytest.mark.parametrize("attn_fn", ["softmax", "relu2", "laplace"])
@pytest.mark.parametrize("causal", [False, True])
@pytest.mark.parametrize("w", [0, 2, 8])
def test_factored_equals_dense_gradients(attn_fn, causal, w):
    rng = Rng(combo_seed("g", attn_fn, causal, w))
    probe = Rng(99)
    for _ in range(4):
        L, S, cb, z, Q, V = random_instance(rng)
        cfg = AttentionConfig(attn_fn, w, causal, z_dim=Q.shape[2],
                              v_dim=V.shape[2])
        bias = rng.normal((2 * w + 1,))
        f, d, gf, gd = run_both(cfg, cb, z, Q, V, bias, want_grads=True,
                                probe_rng=probe)
        assert rel_diff(f, d) < 1e-10
        for name, a, b in zip(("dQ", "dK", "dV", "db"), gf, gd):
            assert rel_diff(a, b) < 1e-9, (name, L, S)


def test_factored_w0_relu2_hand_sized():
    rng = Rng(3)
    cb = Codebook(C=rng.normal((2, 2)), ema_count=np.ones(2),
                  ema_sum=np.zeros((2, 2)))
    z = np.array([[0, 1, 0]])
    Q = rng.normal((1, 3, 2))
    V = rng.normal((1, 3, 2))
    cfg = AttentionConfig("relu2", 0, False, z_dim=2, v_dim=2)
    f, d = run_both(cfg, cb, z, Q, V, np.zeros(1))
    assert rel_diff(f, d) < 1e-12


def test_factored_single_code_softmax_is_mean():
    rng = Rng(4)
    L = 11
    cb = Codebook(C=rng.normal((1, 3)), ema_count=np.ones(1),
                  ema_sum=np.zeros((1, 3)))
    z = np.zeros((1, L), dtype=int)
    Q = rng.normal((1, L, 3))
    V = rng.normal((1, L, 4))
    cfg = AttentionConfig("softmax", 0, False, z_dim=3, v_dim=4)
    stats = build_code_stats(z, V, 1, False)
    out = attn_factored(Tensor(Q), cb, stats, Tensor(cb.C[z]), Tensor(V),
                        Tensor(np.zeros(1)), cfg)
    np.testing.assert_allclose(out.data,
                               np.broadcast_to(V.mean(1), (1, L, 4)),
                               atol=1e-10)


def test_factored_batched_matches_elementwise():
    rng = Rng(5)
    B, L, S, zd, vd = 3, 17, 6, 3, 4
    cb = Codebook(C=rng.normal((S, zd)), ema_count=np.ones(S),
                  ema_sum=np.zeros((S, zd)))
    z = rng.integers(0, S, (B, L))
    Q = rng.normal((B, L, zd))
    V = rng.normal((B, L, vd))
    bias = rng.normal((5,))
    cfg = AttentionConfig("softmax", 2, True, z_dim=zd, v_dim=vd)
    stats = build_code_stats(z, V, S, True, chunk=2)
    out = attn_factored(Tensor(Q), cb, stats, Tensor(cb.C[z]), Tensor(V),
                        Tensor(bias), cfg).data
    for b in range(B):
        one = slice(b, b + 1)
        st = build_code_stats(z[one], V[one], S, True, chunk=2)
        ref = attn_factored(Tensor(Q[one]), cb, st, Tensor(cb.C[z[one]]),
                            Tensor(V[one]), Tensor(bias), cfg).data
        np.testing.assert_allclose(out[one], ref, atol=1e-12)


def test_factored_rejects_inconsistent_inputs():
    rng = Rng(6)
    L, S, cb, z, Q, V = random_instance(rng, L=10, S=4, zd=2, vd=2)
    cfg = AttentionConfig("relu2", 2, False, z_dim=2, v_dim=2)
    stats = build_code_stats(z, V, S, False)
    # stats of another V, built or swapped into the view, are named
    for bad in (build_code_stats(z, V + 1.0, S, False),
                dataclasses.replace(stats, v=V[:, ::-1])):
        with pytest.raises(ValueError, match="stats/V mismatch"):
            attn_factored(Tensor(Q), cb, bad, Tensor(cb.C[z]), Tensor(V),
                          Tensor(np.zeros(5)), cfg)
    with pytest.raises(ValueError, match="stats/z mismatch"):
        attn_factored(Tensor(Q), cb, stats, Tensor(cb.C[z] + 0.1), Tensor(V),
                      Tensor(np.zeros(5)), cfg)


def test_codebook_permutation_invariance():
    rng = Rng(7)
    L, S, cb, z, Q, V = random_instance(rng, L=20, S=8, zd=3, vd=3)
    cfg = AttentionConfig("softmax", 2, True, z_dim=3, v_dim=3)
    bias = rng.normal((5,))
    stats = build_code_stats(z, V, S, True, chunk=2)
    out = attn_factored(Tensor(Q), cb, stats, Tensor(cb.C[z]), Tensor(V),
                        Tensor(bias), cfg).data
    perm = Rng(8).permutation(S)
    inv = np.argsort(perm)
    cb2 = Codebook(C=cb.C[perm], ema_count=cb.ema_count[perm],
                   ema_sum=cb.ema_sum[perm])
    z2 = inv[z]
    stats2 = build_code_stats(z2, V, S, True, chunk=2)
    out2 = attn_factored(Tensor(Q), cb2, stats2, Tensor(cb2.C[z2]), Tensor(V),
                         Tensor(bias), cfg).data
    np.testing.assert_allclose(out, out2, atol=1e-10)


@pytest.mark.parametrize("causal", [False, True])
def test_code_with_only_local_keys_has_no_far_weight(causal):
    # both keys of code 2 are local to row 2's chunk, so the code has no
    # far key there and its far sum is an exact zero: a far weight on it
    # (relu2 of a 1e5 logit) would change no value, but the take-backs
    # would leave ~1e10 * eps of it in dK_hat and dV. The band bias cancels
    # the local terms, so every true weight of row 2 is zero
    w, z = 2, np.array([[2, 2, 0, 1, 3, 1, 0, 3]])
    C = np.eye(4)                               # code logits q . e_c / 2
    cb = Codebook(C=C, ema_count=np.ones(4), ema_sum=C.copy())
    rng = Rng(combo_seed("local-only", causal))
    Q, V = rng.normal((1, 8, 4)), rng.normal((1, 8, 3))
    Q[0, 2] = 2e5 * C[2]
    cfg = AttentionConfig("relu2", w, causal, z_dim=4, v_dim=3)
    f, d, gf, gd = run_both(cfg, cb, z, Q, V, np.full(2 * w + 1, -1e6),
                            want_grads=True, probe_rng=rng,
                            chunk=w if causal else None)
    assert rel_diff(f, d) < 1e-10
    for name, a, b in zip(("dQ", "dK", "dV", "db"), gf, gd):
        assert rel_diff(a, b) < 1e-9, name


@pytest.mark.parametrize("attn_fn", ["softmax", "relu2", "laplace"])
@pytest.mark.parametrize("causal", [False, True])
def test_unused_codewords_change_nothing(attn_fn, causal):
    # the op runs on the codes the batch uses: against the codebook cut by
    # hand to the live codes (z renumbered), dead codes between and after
    # them leave the output, every gradient and the row entropy bitwise
    # unchanged, since each per-code sum adds the same rows in the same
    # order; L spans three 64-row chunks
    rng = Rng(combo_seed("unused", attn_fn, causal))
    B, L, S, zd, vd, w = 2, 150, 9, 3, 4, 2
    live = np.array([0, 2, 3, 6])
    C = rng.normal((S, zd))
    zl = rng.integers(0, live.size, (B, L))
    Q, V = rng.normal((B, L, zd)), rng.normal((B, L, vd))
    bias, g = rng.normal((2 * w + 1,)), rng.normal((B, L, vd))
    cfg = AttentionConfig(attn_fn, w, causal, z_dim=zd, v_dim=vd)

    def run(C, z):
        cb = Codebook(C=C, ema_count=np.ones(len(C)), ema_sum=C.copy())
        ins = [Tensor(a.copy(), requires_grad=True)
               for a in (Q, C[z], V, bias)]
        stats = build_code_stats(z, V, len(C), causal, stats_chunk(w, causal))
        out = attn_factored(ins[0], cb, stats, ins[1], ins[2], ins[3], cfg)
        grads = grad(T.tsum(out * Tensor(g)), ins)
        return [out.data, *grads, attn_row_entropy(Q, z, bias, C, cfg)]

    for name, a, b in zip(("out", "dQ", "dK", "dV", "db", "entropy"),
                          run(C, live[zl]), run(C[live], zl)):
        np.testing.assert_array_equal(a, b, err_msg=name)


# ---------------------------------------------------------------------------
# the bench's row-blocked dense path, and entropy

def test_blocked_matches_oracle():
    # the bench's dense path, 512 query rows at a time, on the oracle's
    # weights rule; L spans two full row blocks and a partial third, and
    # the band crosses each block edge. The bench times bidirectional
    # softmax; the rule's causal and phi forms are checked blocked too
    L = 2 * 512 + 33
    inst = bench.bench_instance(L, 16, 3, 4, Rng(9))
    for fn in ("softmax", "relu2", "laplace"):
        for causal in (False, True):
            inst["cfg"] = AttentionConfig(fn, 3, causal, z_dim=4, v_dim=4)
            ref = attn_dense_oracle(Tensor(inst["q"]), Tensor(inst["kh"]),
                                    Tensor(inst["v"]), Tensor(inst["bias"]),
                                    inst["cfg"]).data
            got = bench._dense_rows(inst)
            np.testing.assert_allclose(got, ref, atol=1e-10,
                                       err_msg=f"{fn} causal={causal}")


def test_entropy_uniform_rows():
    # normalized by log(visible keys), so a uniform row reads 1
    L = 16
    cfg = AttentionConfig("softmax", 0, False, z_dim=2, v_dim=2)
    ent = attn_row_entropy(np.zeros((1, L, 2)), np.zeros((1, L), dtype=int),
                           np.zeros(1), np.zeros((1, 2)), cfg)
    assert abs(ent.mean() - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# full layer

def make_layer(rng, d=8, S=6, attn_fn="softmax", causal=True, w=2,
               impl="factored", ssm=True, zd=4, vd=12):
    cfg = AttentionConfig(attn_fn, w, causal, z_dim=zd, v_dim=vd)
    return LongVQLayer(d, cfg, S, rng, n_state=4, impl=impl, ssm_enabled=ssm)


def test_layer_shapes_contract():
    rng = Rng(10)
    layer = make_layer(rng.child("l"))
    X = Tensor(rng.normal((1, 16, 8)))
    Z, G_a, Q, K, V = layer.project_inputs(X)
    assert Z.data.shape == (1, 16, 8)
    assert Q.data.shape == (1, 16, 4) and K.data.shape == (1, 16, 4)
    assert G_a.data.shape == (1, 16, 12) and V.data.shape == (1, 16, 12)
    O, aux = layer(X)
    assert O.data.shape == (1, 16, 8)
    assert aux["z"].shape == (1, 16)


def test_layer_zero_input_zero_projections():
    rng = Rng(11)
    layer = make_layer(rng.child("l"))
    X = Tensor(np.zeros((1, 12, 8)))
    Z, G_a, Q, K, V = layer.project_inputs(X)
    for t in (G_a, Q, K, V):
        np.testing.assert_allclose(t.data, 0.0, atol=1e-12)
    assert abs(float(T.silu(Tensor(np.array(1.0))).data) - 0.7310586) < 1e-6


def test_layer_l1_sequence():
    rng = Rng(12)
    layer = make_layer(rng.child("l"))
    O, aux = layer(Tensor(rng.normal((1, 1, 8))))
    assert O.data.shape == (1, 1, 8)


def test_unbatched_inputs_rejected_with_their_shape():
    # the op, its stats and the layer take (B, L, .) only; a single
    # sequence is B = 1, and anything else names the shape it got
    rng = Rng(25)
    L, S, cb, z, Q, V = random_instance(rng, L=6, S=3, zd=2, vd=2)
    cfg = AttentionConfig("softmax", 1, True, z_dim=2, v_dim=2)
    stats = build_code_stats(z, V, S, True, 2)
    # unbatched, and z and V that disagree on L or on B
    for zz, vv in ((z[0], V[0]), (z, V[:, :5]), (z[:, :5], V),
                   (z, np.concatenate([V, V]))):
        with pytest.raises(ValueError, match=re.escape(
                f"z {zz.shape} and V {vv.shape}")):
            build_code_stats(zz, vv, S, True, 2)
    K = cb.C[z]
    for name, q, kh, v in (("Q", Q[0], K, V), ("K_hat", Q, K[0], V),
                           ("V", Q, K, V[0])):
        with pytest.raises(ValueError, match=f"{name} of shape "
                           + re.escape(str((L, 2)))):
            attn_factored(Tensor(q), cb, stats, Tensor(kh), Tensor(v),
                          Tensor(np.zeros(3)), cfg)
    # batched inputs that disagree on (B, L), or a query or key whose
    # width is not the codewords'; a short causal Q would otherwise run
    z2 = np.concatenate([z, z])
    K2, V2, Q2 = cb.C[z2], np.concatenate([V, V]), np.concatenate([Q, Q])
    stats2 = build_code_stats(z2, V2, S, True, 2)
    wide = np.concatenate([Q2, Q2[..., :1]], axis=2)
    for q, kh, v, want in (
            (Q2[:, :4], K2, V2, f"K_hat of shape {K2.shape} and Q of "
                                f"shape (2, 4, 2) differ in (B, L)"),
            (Q, K2, V2, f"K_hat of shape {K2.shape} and Q of shape "
                        f"{Q.shape} differ in (B, L)"),
            (Q2, K2, V2[:, :5], f"V of shape (2, 5, 2) and Q of shape "
                                f"{Q2.shape} differ in (B, L)"),
            (wide, K2, V2, "Q of shape (2, 6, 3) has width 3, the "
                           "codewords 2"),
            (Q2, np.concatenate([K2, K2[..., :1]], axis=2), V2,
             "K_hat of shape (2, 6, 3) has width 3, the codewords 2")):
        with pytest.raises(ValueError, match=re.escape(want)):
            attn_factored(Tensor(q), cb, stats2, Tensor(kh), Tensor(v),
                          Tensor(np.zeros(3)), cfg)
    with pytest.raises(ValueError, match=re.escape(
            "q of shape (2, 6, 3) has width 3, the codewords 2")):
        attn_row_entropy(wide, z2, np.zeros(3), cb.C, cfg)
    # an empty sequence axis, in either direction
    z0, Q0, V0, K0 = z[:, :0], Q[:, :0], V[:, :0], K[:, :0]
    empty = re.escape(f"at least one position, got shape {Q0.shape}")
    for causal in (False, True):
        cfg0 = dataclasses.replace(cfg, causal=causal)
        with pytest.raises(ValueError, match=re.escape(
                f"at least one position, got z {z0.shape} and V {V0.shape}")):
            build_code_stats(z0, V0, S, causal, 2)
        with pytest.raises(ValueError, match="Q must hold " + empty):
            attn_factored(Tensor(Q0), cb, stats, Tensor(K0), Tensor(V0),
                          Tensor(np.zeros(3)), cfg0)
        with pytest.raises(ValueError, match="q must hold " + empty):
            attn_row_entropy(Q0, z0, np.zeros(3), cb.C, cfg0)
        with pytest.raises(ValueError, match="Q must hold " + empty):
            attn_dense_oracle(Tensor(Q0), Tensor(K0), Tensor(V0),
                              Tensor(np.zeros(3)), cfg0)
    # the row entropy names q, z or bias and the shape or code it got
    high, low = z.copy(), z.copy()
    high[0, 4], low[0, 1] = S, -1
    for q, zz, b, want in (
            (Q[0], z, np.zeros(3), f"q of shape {(L, 2)}"),
            (Q, z, np.zeros(1), "bias must have shape (3,), got (1,)"),
            (Q, high, np.zeros(3), f"shortcode {S} at batch 0, position 4 "
                                   f"is outside [0, {S})"),
            (Q, low, np.zeros(3), "shortcode -1 at batch 0, position 1 "),
            (Q, z[:, :5], np.zeros(3), f"got z (1, 5) and V {(1, L, 0)}")):
        with pytest.raises(ValueError, match=re.escape(want)):
            attn_row_entropy(q, zz, b, cb.C, cfg)
    layer = make_layer(rng.child("l"))
    for shape in ((6, 8), (2, 1, 6, 8)):
        with pytest.raises(ValueError, match=re.escape(
                f"X (B, L, d), got shape {shape}")):
            layer(Tensor(rng.normal(shape)))


@pytest.mark.parametrize("w", [0, 8])
def test_layer_causal_stats_use_64_row_chunks(w, monkeypatch):
    # the chunk count fixes the per-call loop length: 256/64 = 4 at
    # w=0 and w=8, where a chunk of max(1, w) gives 256 and 32
    import longvq.attention as A
    real, built = A.build_code_stats, []

    def spy(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(A, "build_code_stats", spy)
    rng = Rng(15)
    layer = make_layer(rng.child("l"), w=w)
    layer(Tensor(rng.normal((2, 256, 8))))
    assert [st.n.shape[-2] for st in built] == [4]


@pytest.mark.parametrize("causal", [False, True])
def test_layer_counts_code_stats_once(causal, monkeypatch):
    # the layer hands the op a view of (z, V), and only the op counts,
    # over the codes z uses; the row entropy also counts once
    calls = []
    real = factored._code_stats
    monkeypatch.setattr(factored, "_code_stats",
                        lambda *a: calls.append(a) or real(*a))
    rng = Rng(16)
    layer = make_layer(rng.child("l"), causal=causal)
    X = Tensor(rng.normal((2, 70, 8)))
    layer(X)                            # seeds the codebook
    layer.codebook.C[::2] = 1e3         # far from every key: dead codes
    calls.clear()
    _, aux = layer(X)
    used = np.unique(aux["z"]).size
    assert used < layer.S
    assert [a[2] for a in calls] == [used]
    attn_row_entropy(aux["Q"], aux["z"], layer.local_bias.data,
                     layer.codebook.C, layer.cfg)
    assert [a[2] for a in calls] == [used, used]


def test_layer_impl_swap_small_diff():
    rng = Rng(13)
    for attn_fn in ("softmax", "relu2"):
        for causal in (False, True):
            layer = make_layer(Rng(14).child("l"), attn_fn=attn_fn,
                               causal=causal)
            X = Tensor(rng.normal((2, 20, 8)))
            out_f, _ = layer(X)
            layer.impl = "dense"
            out_d, _ = layer(X)
            assert rel_diff(out_f.data, out_d.data) < 1e-10


def test_layer_gradients_factored_equals_dense():
    rng = Rng(15)
    for attn_fn in ("softmax", "relu2", "laplace"):
        layer = make_layer(Rng(16).child("l"), attn_fn=attn_fn)
        X = Tensor(rng.normal((1, 12, 8)))
        probe = Rng(17).normal((1, 12, 8))
        params = layer.params()

        out_f, _ = layer(X)
        gf = grad(T.tsum(out_f * Tensor(probe)), params)
        layer.impl = "dense"
        out_d, _ = layer(X)
        gd = grad(T.tsum(out_d * Tensor(probe)), params)
        layer.impl = "factored"
        for p, a, b in zip(params, gf, gd):
            assert rel_diff(a, b) < 1e-8, (attn_fn, p.name)


def test_layer_gate_limits():
    rng = Rng(18)
    layer = make_layer(rng.child("l"))
    X = Tensor(rng.normal((1, 10, 8)))
    b_go = layer.proj["go"][1]
    b_go.data[:] = 20.0               # open gate: output ~ projection
    O_open, _ = layer(X)
    Z, G_a, Q, K, V = layer.project_inputs(X)
    b_go.data[:] = -20.0              # closed gate: output ~ input
    O_closed, _ = layer(X)
    np.testing.assert_allclose(O_closed.data, X.data, atol=1e-7)
    assert not np.allclose(O_open.data, X.data, atol=1e-3)


def test_layer_ga_zero_passthrough():
    rng = Rng(19)
    layer = make_layer(rng.child("l"))
    for p in layer.proj["ga"]:
        p.data[:] = 0.0                # G_a = silu(0) = 0
    X = Tensor(rng.normal((1, 9, 8)))
    O, _ = layer(X)
    G_o = expit(T.linear(X, *layer.proj["go"]).data)
    want = G_o * layer.proj["out"][1].data + (1.0 - G_o) * X.data
    np.testing.assert_allclose(O.data, want, atol=1e-10)


def test_layer_deterministic():
    X = Rng(20).normal((1, 15, 8))
    outs = []
    for _ in range(2):
        layer = make_layer(Rng(21).child("l"))
        O, _ = layer(Tensor(X.copy()))
        outs.append(O.data.copy())
    np.testing.assert_array_equal(outs[0], outs[1])


def test_layer_causal_no_future_influence():
    rng = Rng(22)
    layer = make_layer(rng.child("l"), causal=True)
    X = rng.normal((1, 18, 8))
    O1, _ = layer(Tensor(X.copy()))
    X2 = X.copy()
    X2[0, 12:, :] += rng.normal((6, 8))   # perturb the future
    O2, _ = layer(Tensor(X2))
    assert np.max(np.abs(O1.data[0, :12] - O2.data[0, :12])) < 1e-12


def test_layer_ssm_ablation_changes_z_only():
    rng = Rng(23)
    layer = make_layer(Rng(24).child("l"), ssm=False)
    assert layer.bank is None
    X = Tensor(rng.normal((1, 10, 8)))
    Z, *_ = layer.project_inputs(X)
    np.testing.assert_allclose(Z.data, T.silu(X).data, atol=1e-12)


def test_batched_causal_softmax_kernel_matches_per_element():
    # the batched op, forward and backward (including the streamed
    # far-field pass), against the dense oracle run per batch element; the
    # row log-normalizers are checked through the gradients, whose
    # attention weights are exp(logit - lse)
    rng = Rng(31)
    B, L, S, zd, vd, w = 4, 37, 9, 5, 6, 3
    cfg = AttentionConfig("softmax", w, True, z_dim=zd, v_dim=vd)
    C = rng.normal((S, zd))
    cb = Codebook(C=C, ema_count=np.ones(S), ema_sum=C.copy())
    z = rng.integers(0, S, (B, L))
    q = rng.normal((B, L, zd))
    v = rng.normal((B, L, vd))
    bias = rng.normal((2 * w + 1,))
    g = rng.normal((B, L, vd))
    ins = [Tensor(a.copy(), requires_grad=True) for a in (q, C[z], v, bias)]
    stats = build_code_stats(z, v, S, True, chunk=w)
    out = attn_factored(ins[0], cb, stats, ins[1], ins[2], ins[3], cfg)
    dQ, dK, dV, db = grad(T.tsum(out * Tensor(g)), ins)
    db_ref = np.zeros_like(bias)
    for bi in range(B):
        ref_ins = [Tensor(a.copy(), requires_grad=True)
                   for a in (q[bi], C[z[bi]], v[bi], bias)]
        ref = attn_dense_oracle(*ref_ins, cfg)
        a, bk, c, d = grad(T.tsum(ref * Tensor(g[bi])), ref_ins)
        np.testing.assert_allclose(out.data[bi], ref.data, atol=1e-12)
        np.testing.assert_allclose(dQ[bi], a, atol=1e-11)
        np.testing.assert_allclose(dK[bi], bk, atol=1e-11)
        np.testing.assert_allclose(dV[bi], c, atol=1e-11)
        db_ref += d
    np.testing.assert_allclose(db, db_ref, atol=1e-11)


def causal_op_inputs(rng, B, L, S, zd, vd, dtype=np.float64):
    C = rng.normal((S, zd), dtype=dtype)
    cb = Codebook(C=C, ema_count=np.ones(S), ema_sum=C.copy())
    z = rng.integers(0, S, (B, L))
    q = rng.normal((B, L, zd), dtype=dtype)
    v = rng.normal((B, L, vd), dtype=dtype)
    return cb, z, q, v


def test_stats_guard_exact_at_long_float32_shapes():
    # the op's smallest causal chunk, max(1, w) = 16, over B=2, L=4096,
    # S=64, v=96 in float32 (256 chunks): the op counts its own stats and
    # every output is finite
    with precision("float32"):
        rng = Rng(33)
        B, L, S, zd, vd, w = 2, 4096, 64, 16, 96, 16
        cb, z, q, v = causal_op_inputs(rng, B, L, S, zd, vd, np.float32)
        cfg = AttentionConfig("softmax", w, True, z_dim=zd, v_dim=vd)
        stats = build_code_stats(z, v, S, True, max(1, w))
        out = attn_factored(Tensor(q), cb, stats, Tensor(cb.C[z]), Tensor(v),
                            Tensor(np.zeros(2 * w + 1)), cfg)
        assert np.all(np.isfinite(out.data))


def test_factored_rejects_bad_chunk_and_shapes():
    rng = Rng(34)
    cb, z, q, v = causal_op_inputs(rng, 2, 10, 4, 2, 3)
    cfg = AttentionConfig("relu2", 3, True, z_dim=2, v_dim=3)

    def run(st):
        return attn_factored(Tensor(q), cb, st, Tensor(cb.C[z]), Tensor(v),
                             Tensor(np.zeros(7)), cfg)

    with pytest.raises(ValueError, match=r"chunk 2 .* max\(1, window\) = 3"):
        run(build_code_stats(z, v, 4, True, chunk=2))
    stats = build_code_stats(z, v, 4, True, chunk=3)
    with pytest.raises(ValueError, match=r"stats/codebook mismatch: stats are "
                                         r"over S = 5 codes, the codebook "
                                         r"has 4"):
        run(build_code_stats(z, v, 5, True, chunk=3))
    with pytest.raises(ValueError, match=r"shape \(7,\), got \(2, 7\)"):
        attn_factored(Tensor(q), cb, stats, Tensor(cb.C[z]), Tensor(v),
                      Tensor(np.zeros((2, 7))), cfg)


# ---------------------------------------------------------------------------
# batched fuzz against the oracle

def fuzz_cases(rng, w, causal, B):
    """(L, S, z, bias, chunk) with z (B, L), covering L=1, L below the
    chunk, w >= L, S=1, unused codes and biases of +-50, at each causal
    chunk choice, the layer's own included (L=70: a full 64-row chunk and a
    tail). Most cases give every element a permutation of one draw; three
    use codes unevenly: elements on different code subsets (the last one
    disjoint from the rest), one code serving the whole batch while S > 1,
    and a code whose keys all sit in the last chunk, so its prefix stats
    are zero in every earlier chunk."""
    # a bias of -50 on every offset annihilates all in-band keys; with
    # w >= L that is every key a row sees
    base = [(1, 3, None), (3, 5, None), (max(1, w), 4, None), (17, 1, None),
            (9, 12, None), (24, 6, 50.0), (24, 6, -50.0),
            (max(1, w), 4, -50.0), (70, 7, None)]

    def chunks(L):
        return (sorted(c for c in {max(1, w), w + 2, L, stats_chunk(w, True)}
                       if c >= max(1, w)) if causal else [None])

    out = []
    for L, S, big in base:
        hi = S - 2 if S > 8 else S       # S=12: the top codes stay unused
        z0 = rng.integers(0, hi, (L,))
        z = np.stack([z0] + [rng.permutation(z0) for _ in range(B - 1)])
        bias = rng.normal((2 * w + 1,))
        if big is not None:
            bias = np.full(2 * w + 1, big)
        out += [(L, S, z, bias, c) for c in chunks(L)]
    # element 0 on codes 0-3, element 1 on 3-6, element 2 on 12-15 (disjoint
    # from the rest); codes 7-11 stay unused
    L, S = 20, 16
    lows = [0, 3, 12]
    z = np.stack([lows[b] + rng.integers(0, 4, (L,)) for b in range(B)])
    out += [(L, S, z, rng.normal((2 * w + 1,)), c) for c in chunks(L)]
    L = 13
    out += [(L, 5, np.full((B, L), 3), rng.normal((2 * w + 1,)), c)
            for c in chunks(L)]
    # code S - 2 stays unused; code S - 1 only in the last chunk (the last
    # row block when bidirectional)
    L, S = 70, 8
    for c in chunks(L):
        z = rng.integers(0, S - 2, (B, L))
        cs = c or stats_chunk(w, True)
        last = (L - 1) // cs * cs
        z[:, L - 1] = S - 1
        z[:, rng.integers(last, L, (2,))] = S - 1
        out.append((L, S, z, rng.normal((2 * w + 1,)), c))
    return out


@pytest.mark.parametrize("attn_fn", ["softmax", "relu2", "laplace"])
@pytest.mark.parametrize("causal", [False, True])
@pytest.mark.parametrize("w", [0, 1, 2, 8])
def test_factored_batched_fuzz_matches_oracle(attn_fn, causal, w,
                                              monkeypatch):
    # every case through the per-code accumulator and the pairwise key
    # gradient in turn: each meets the oracle bounds, and their dK_hat
    # agree far below them
    rng = Rng(combo_seed("fuzz", attn_fn, causal, w))
    for B in (1, 3):
        for L, S, z, bias, chunk in fuzz_cases(rng, w, causal, B):
            zd, vd = 3, 4
            C = rng.normal((S, zd))
            cb = Codebook(C=C, ema_count=np.ones(S), ema_sum=C.copy())
            Q = rng.normal((B, L, zd))
            V = rng.normal((B, L, vd))
            cfg = AttentionConfig(attn_fn, w, causal, z_dim=zd, v_dim=vd)
            both_contractions_match_oracle(cfg, cb, z, Q, V, bias, chunk,
                                           monkeypatch)


def both_contractions_match_oracle(cfg, cb, z, Q, V, bias, chunk,
                                   monkeypatch):
    case = (*z.shape, cb.S, chunk, bias[0])
    dK = {}
    for pairwise in (False, True):
        monkeypatch.setattr(factored, "_pairwise_is_cheaper",
                            lambda *_, p=pairwise: p)
        f, d, gf, gd = run_both(cfg, cb, z, Q, V, bias, want_grads=True,
                                chunk=chunk, probe_rng=Rng(combo_seed(case)))
        assert rel_diff(f, d) < 1e-10, (pairwise,) + case
        for name, a, b in zip(("dQ", "dK", "dV", "db"), gf, gd):
            assert rel_diff(a, b) < 1e-9, (pairwise, name) + case
        dK[pairwise] = gf[1]
    assert rel_diff(dK[True], dK[False]) < 1e-12, case


@pytest.mark.parametrize("attn_fn", ["softmax", "relu2", "laplace"])
@pytest.mark.parametrize("causal", [False, True])
def test_factored_window_wider_than_a_row_block(attn_fn, causal,
                                                monkeypatch):
    # w = 80 against 64-row blocks (80-row causal chunks): each chunk's
    # local keys reach past its neighbours' rows, so a key is shared by
    # several chunks and must be taken out of each one's far sums once
    rng = Rng(combo_seed("wide", attn_fn, causal))
    B, L, S, w, zd, vd = 2, 300, 12, 80, 3, 4
    C = rng.normal((S, zd))
    cb = Codebook(C=C, ema_count=np.ones(S), ema_sum=C.copy())
    z = rng.integers(0, S - 2, (B, L))           # two codes stay unused
    Q = rng.normal((B, L, zd))
    bias = rng.normal((2 * w + 1,))
    cfg = AttentionConfig(attn_fn, w, causal, z_dim=zd, v_dim=vd)
    both_contractions_match_oracle(cfg, cb, z, Q, rng.normal((B, L, vd)),
                                   bias, stats_chunk(w, causal), monkeypatch)
    P = attn_dense_oracle(Tensor(Q), Tensor(C[z]),
                          Tensor(np.broadcast_to(np.eye(L), (B, L, L))),
                          Tensor(bias), dataclasses.replace(cfg, v_dim=L)).data
    assert rel_diff(attn_row_entropy(Q, z, bias, C, cfg),
                    dense_row_entropy(P, causal)) < 1e-10


def test_fixed_tables_built_once_per_call(monkeypatch):
    # forward and backward share one plan: the op sums keys once for its
    # code stats and once for every chunk's take-out, where a per-chunk
    # build would sum 2 * 16 more times at L = 1024
    calls = []
    real = factored._key_sums
    monkeypatch.setattr(factored, "_key_sums",
                        lambda *a: calls.append(a) or real(*a))
    rng = Rng(44)
    cb, z, q, v = causal_op_inputs(rng, 1, 1024, 32, 4, 4)
    cfg = AttentionConfig("softmax", 16, False, z_dim=4, v_dim=4)
    stats = build_code_stats(z, v, 32, False)
    ins = [Tensor(a, requires_grad=True)
           for a in (q, cb.C[z], v, rng.normal((33,)))]
    calls.clear()
    grad(T.tsum(attn_factored(ins[0], cb, stats, *ins[1:], cfg)), ins)
    assert len(calls) == 2


def test_op_node_holds_little_between_passes():
    # at the cls layer-0 shape, what the backward closure keeps beyond out
    # and lse (the plan and the in-use stats) stays within 2 MB, against
    # a 5% peak-RSS bound of about 7.6 MB for that recipe
    rng = Rng(45)
    B, L, S, w, zd, vd = 8, 1024, 256, 16, 16, 32
    with precision("float32"):
        cb, z, q, v = causal_op_inputs(rng, B, L, S, zd, vd, np.float32)
        cfg = AttentionConfig("softmax", w, False, z_dim=zd, v_dim=vd)
        ins = [Tensor(a, requires_grad=True) for a in
               (q, cb.C[z], v, rng.normal((2 * w + 1,), dtype=np.float32))]
        stats = build_code_stats(z, v, S, False)
        assert np.unique(z).size == S
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = attn_factored(ins[0], cb, stats, *ins[1:], cfg)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
    held -= out.data.nbytes + B * L * 4          # out and lse
    assert held <= 2 * 2 ** 20, held


@pytest.mark.parametrize("name, B, L, S, used, w, causal, pairwise", [
    ("lm layer", 32, 256, 64, 64, 8, True, True),
    ("cls layer 0, 256 codes", 8, 1024, 256, 256, 16, False, True),
    ("cls layer 1, 48 codes", 8, 1024, 256, 48, 16, False, False),
    ("L=4096 causal", 1, 4096, 64, 64, 8, True, False),
])
def test_key_gradient_contraction_choice(name, B, L, S, used, w, causal,
                                         pairwise, monkeypatch):
    # the op chooses from the codes the batch uses, not the codebook size
    choices = []
    real = factored._pairwise_is_cheaper

    def spy(*args):
        choices.append(real(*args))
        return choices[-1]

    monkeypatch.setattr(factored, "_pairwise_is_cheaper", spy)
    rng = Rng(combo_seed("choice", name))
    zd, vd = 16, 32
    C = rng.normal((S, zd))
    cb = Codebook(C=C, ema_count=np.ones(S), ema_sum=C.copy())
    z = rng.integers(0, used, (B, L))
    z[0, :used] = np.arange(used)                # every used code appears
    v = rng.normal((B, L, vd))
    cfg = AttentionConfig("softmax", w, causal, z_dim=zd, v_dim=vd)
    ins = [Tensor(a, requires_grad=True)
           for a in (rng.normal((B, L, zd)), C[z], v, np.zeros(2 * w + 1))]
    stats = build_code_stats(z, v, S, causal, stats_chunk(w, causal))
    out = attn_factored(ins[0], cb, stats, ins[1], ins[2], ins[3], cfg)
    grad(T.tsum(out), ins)
    assert choices == [pairwise]


@pytest.mark.parametrize("attn_fn", ["softmax", "relu2", "laplace"])
@pytest.mark.parametrize("B, L, S, w, causal", [
    (4, 256, 64, 8, True), (2, 1024, 256, 16, False),
    (1, 2048, 64, 8, True)])
def test_float32_factored_matches_float64_oracle(attn_fn, B, L, S, w,
                                                 causal):
    # the float32 op at the layer's own chunk against the float64 oracle on
    # the same (float32) inputs, each array scored by its peak; L=2048 has
    # the longest causal prefix, so the far field cancels most there
    rng = Rng(combo_seed("f32", attn_fn, B, L))
    zd, vd = 16, 32
    C = rng.normal((S, zd)).astype(np.float32)
    cb = Codebook(C=C, ema_count=np.ones(S, np.float32), ema_sum=C.copy())
    z = rng.integers(0, S, (B, L))
    v = rng.normal((B, L, vd)).astype(np.float32)
    bias = rng.normal((2 * w + 1,)).astype(np.float32)
    g = rng.normal((B, L, vd))
    cfg = AttentionConfig(attn_fn, w, causal, z_dim=zd, v_dim=vd)
    q1 = rng.normal((B, L, zd)).astype(np.float32)
    for mult in (1, 8):
        q = q1 * np.float32(mult)
        with precision("float32"):
            ins = [Tensor(a.copy(), requires_grad=True)
                   for a in (q, C[z], v, bias)]
            stats = build_code_stats(z, v, S, causal, stats_chunk(w, causal))
            out = attn_factored(ins[0], cb, stats, ins[1], ins[2], ins[3],
                                cfg)
            lo = [out.data, *grad(T.tsum(out * Tensor(g.astype(np.float32))),
                                  ins)]
        ref_ins = [Tensor(a.astype(np.float64), requires_grad=True)
                   for a in (q, C[z], v, bias)]
        ref = attn_dense_oracle(*ref_ins, cfg)
        hi = [ref.data, *grad(T.tsum(ref * Tensor(g)), ref_ins)]
        for name, a, b in zip(("out", "dQ", "dK", "dV", "dbias"), lo, hi):
            assert a.dtype == np.float32, name
            err = np.abs(a - b).max() / np.abs(b).max()
            assert err < 1e-5, (name, mult, f"{err:.2e}")


def dense_row_entropy(P, causal):
    """Normalized entropy of weight rows P (B, L, L), the definition
    attn_row_entropy computes: rows normalized, all-zero rows read 0,
    divided by log(visible keys), rows that see one key read 1."""
    L = P.shape[-1]
    tot = P.sum(axis=2, keepdims=True)
    p = P / np.where(tot > 0, tot, 1.0)
    H = -(p * np.log(np.where(p > 0, p, 1.0))).sum(axis=2)
    keys = np.arange(1, L + 1) if causal else np.full(L, L)
    return np.where(keys > 1, H / np.log(np.maximum(keys, 2)), 1.0)


@pytest.mark.parametrize("attn_fn", ["softmax", "relu2", "laplace"])
@pytest.mark.parametrize("causal", [False, True])
@pytest.mark.parametrize("w", [0, 1, 2, 8])
def test_row_entropy_matches_dense_oracle_weights(attn_fn, causal, w):
    # the oracle's output with V = I is its weight matrix
    rng = Rng(combo_seed("entropy", attn_fn, causal, w))
    for B in (1, 3):
        for L, S, z, bias, _ in fuzz_cases(rng, w, causal, B):
            zd = 3
            C = rng.normal((S, zd))
            Q = rng.normal((B, L, zd))
            cfg = AttentionConfig(attn_fn, w, causal, z_dim=zd, v_dim=L)
            eye = np.broadcast_to(np.eye(L), (B, L, L))
            P = attn_dense_oracle(Tensor(Q), Tensor(C[z]), Tensor(eye),
                                  Tensor(bias), cfg).data
            got = attn_row_entropy(Q, z, bias, C, cfg)
            assert got.shape == (B, L)
            assert rel_diff(got, dense_row_entropy(P, causal)) < 1e-10, \
                (B, L, S, bias[0])
