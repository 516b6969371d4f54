"""Checks for the autodiff substrate: op values against direct references,
op gradients against central differences, tape mechanics, and stream
determinism."""

import os
import platform
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.special import expit

import longvq
import longvq.tensor as T
from longvq.attention import AttentionConfig, attn_dense_oracle
from longvq.factored import LAPLACE_MU, phi_table
from longvq.rng import Rng
from longvq.ssm import conv_causal_channels
from longvq.tensor import (
    NumericsError, Tensor, cross_entropy, finite_diff, grad, no_grad,
    precision,
)
from longvq.vq import Codebook, commit_loss


@pytest.fixture(autouse=True)
def _float64():
    with precision("float64"):
        yield


def rel_err(a, b):
    na = np.linalg.norm(np.asarray(a).ravel() - np.asarray(b).ravel())
    nb = np.linalg.norm(np.asarray(b).ravel())
    return na / max(nb, 1e-12)


def sigmoid(a):
    """sigmoid(x) as a tape node of its own, on the kernel that gate_mix and
    silu use: the reference they are tested against."""
    s = T._sigmoid_np(a.data)

    def vjp(g):
        ds = np.subtract(1.0, s, out=np.empty_like(s))
        ds *= s
        ds *= g
        return (ds,)

    return T.make_op(s, (a,), vjp, "sigmoid")


def sub(a, b):
    """a - b as a tape node of its own, for chains the fused ops are
    tested against; the package itself never subtracts tensors."""
    return T.make_op(a.data - b.data, (a, b), lambda g: (g, -g), "sub")


def check_op_grads(build_loss, params, tol=1e-6, eps=1e-6):
    """Compare reverse-mode grads with central differences for one op."""
    gs = grad(build_loss(), params)
    fd = finite_diff(build_loss, params, eps=eps)
    for g, f, p in zip(gs, fd, params):
        assert rel_err(g, f) < tol, \
            f"grad mismatch for {p.name}: {rel_err(g, f)}"


# ---------------------------------------------------------------------------
# tape mechanics

def test_backward_accumulates_over_shared_node():
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True, name="x")
    y = x * x + x * x  # x used twice on each branch
    loss = T.tsum(y)
    (g,) = grad(loss, [x])
    np.testing.assert_allclose(g, 4.0 * x.data)


def test_swept_tape_is_single_use():
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True, name="x")
    h = T.silu(x * x)
    loss = T.tsum(h)
    (g,) = grad(loss, [x])
    assert x.grad is g
    with pytest.raises(RuntimeError, match="op 'sum'"):
        loss.backward()
    # an op built on a swept node is refused before any gradient moves
    with pytest.raises(RuntimeError, match="op 'silu'"):
        T.tsum(h * x).backward()
    assert x.grad is g


def test_no_grad_suppresses_tape():
    x = Tensor(np.ones(3), requires_grad=True, name="x")
    with no_grad():
        y = x * x
    assert y._vjp is None and y._parents == ()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap setting is glibc's mallopt")
def test_freed_buffers_stay_mapped():
    # a train step frees its tape, tens of MB of 0.1-30 MB arrays, before
    # the next step allocates the same again: once longvq.tensor is
    # imported, a round of forty fresh 1 MB arrays reuses the last round's
    # pages instead of faulting in new ones (about 10k faults a round
    # under glibc's default thresholds)
    code = ("import resource; import numpy as np; import longvq.tensor\n"
            "per = []\n"
            "for _ in range(5):\n"
            "    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    arrs = [np.ones(1 << 18, np.float32) for _ in range(40)]\n"
            "    del arrs\n"
            "    per.append(resource.getrusage(resource.RUSAGE_SELF)"
            ".ru_minflt - f0)\n"
            "print(*per)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(longvq.__file__)))
    res = subprocess.run([sys.executable, "-c", code],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    per = [int(f) for f in res.stdout.split()]
    assert per[0] > 5000, per          # the first round maps its pages
    assert max(per[1:]) < 100, per


def test_disconnected_param_gets_zero():
    x = Tensor(np.ones(3), requires_grad=True, name="x")
    z = Tensor(np.ones(3), requires_grad=True, name="z")
    loss = T.tsum(x * x)
    gs = grad(loss, [x, z])
    assert np.all(gs[1] == 0.0)


def test_nonfinite_raises_naming_op():
    a = Tensor(np.array([1.0, 1e300]))
    with np.errstate(over="ignore"), \
            pytest.raises(NumericsError, match="op 'mul'"):
        T.mul(a, a)


# ---------------------------------------------------------------------------
# op values against independent references

def test_cross_entropy_matches_log_softmax():
    rng = Rng(4)
    x = rng.normal((5, 8))
    t = rng.integers(0, 8, (5,))
    loss = float(cross_entropy(Tensor(x), t).data)
    m = x.max(1, keepdims=True)
    logp = x - np.log(np.exp(x - m).sum(1, keepdims=True)) - m
    ref = -logp[np.arange(5), t].mean()
    assert abs(loss - ref) < 1e-12


@pytest.mark.parametrize("bad", [-1, 8])
def test_cross_entropy_rejects_out_of_range_target(bad):
    # numpy would read -1 as the last class and score it silently
    t = np.array([0, 7, bad, 3, bad])
    with pytest.raises(ValueError, match=rf"target {bad} at position 2 is "
                                         r"outside \[0, 8\)"):
        cross_entropy(Tensor(np.zeros((5, 8))), t)
    # (B, L) targets are named by their (b, t) position
    with pytest.raises(ValueError, match=rf"target {bad} at position "
                                         r"\(0, 1\) is outside"):
        cross_entropy(Tensor(np.zeros((2, 2, 8))), t[1:].reshape(2, 2))


@pytest.mark.parametrize("call, match", [
    (lambda: T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3))),
     r"add takes two operands of one shape; got \(2, 3\) and \(3,\)"),
    (lambda: Tensor(np.zeros((2, 3))) * 2.0,
     r"mul takes two operands of one shape; got \(2, 3\) and \(\)"),
    (lambda: T.gather_rows(Tensor(np.zeros((2, 3, 4))), np.zeros(2, int)),
     r"2-D table; got shape \(2, 3, 4\)"),
    (lambda: T.layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(4)),
                          Tensor(np.zeros(3))),
     r"shape \(4,\); got \(4,\) and \(3,\)"),
    (lambda: cross_entropy(Tensor(np.zeros((2, 3, 8))), np.zeros(6, int)),
     r"got \(2, 3, 8\) and \(6,\)"),
], ids=["add", "mul", "gather_rows", "layer_norm", "cross_entropy"])
def test_shape_errors_name_what_the_op_got(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("bad", [-1, 6])
def test_gather_rows_rejects_out_of_range_index(bad):
    # numpy would read -1 as the last row and embed it silently
    tab = Tensor(np.zeros((6, 3)))
    idx = np.array([[0, 5, 2], [1, bad, bad]])
    with pytest.raises(ValueError, match=rf"index {bad} at position \(1, 1\) "
                                         r"is outside \[0, 6\)"):
        T.gather_rows(tab, idx)


def test_conv_causal_matches_direct_summation():
    # reference: out[b, t, c] = sum_{j<=t} k[c, j] x[b, t-j, c], O(L^2) loop
    rng = Rng(5)
    B, d = 3, 4
    for L in (1, 2, 7, 64):
        k = rng.normal((d, L))
        x = rng.normal((B, L, d))
        out = conv_causal_channels(k, x, np.zeros(d))
        ref = np.zeros((B, L, d))
        for t in range(L):
            for j in range(t + 1):
                ref[:, t, :] += k[:, j] * x[:, t - j, :]
        np.testing.assert_allclose(out, ref, atol=1e-12)


def test_conv_causal_channels_matches_per_channel():
    # each channel of the bank equals the op run on that channel alone
    rng = Rng(6)
    B, L, d = 2, 33, 5
    ker = rng.normal((d, L))
    x = rng.normal((B, L, d))
    skip = rng.normal((d,))
    out = conv_causal_channels(ker, x, skip)
    for c in range(d):
        ref = conv_causal_channels(ker[c:c + 1], x[:, :, c:c + 1],
                                   skip[c:c + 1])
        np.testing.assert_allclose(out[:, :, c:c + 1], ref, atol=1e-11)


def test_conv_causal_channels_rejects_bad_shapes():
    with pytest.raises(ValueError, match="kernel bank shape"):
        conv_causal_channels(np.zeros((3, 4)), np.zeros((1, 4, 2)),
                             np.zeros(2))
    with pytest.raises(ValueError, match=r"\(B, L, d\)"):
        conv_causal_channels(np.zeros((1, 4)), np.zeros(4), np.zeros(1))
    with pytest.raises(ValueError, match=r"skip shape \(4,\) != \(3,\)"):
        conv_causal_channels(np.zeros((3, 4)), np.zeros((1, 4, 3)),
                             np.zeros(4))


def test_laplace_phi_range_and_midpoint():
    f, _ = phi_table("laplace")
    x = np.linspace(-4, 4, 201)
    y = f(x)
    assert np.all((y >= 0) & (y <= 1))
    assert np.all(np.diff(y) >= 0)
    # strictly increasing where erf is not saturated
    core = (x > -0.5) & (x < 2.0)
    assert np.all(np.diff(y[core]) > 0)
    mid = f(np.array([LAPLACE_MU]))
    np.testing.assert_allclose(mid, 0.5, atol=1e-12)


@pytest.mark.parametrize("name", ["relu2", "laplace"])
def test_phi_pair_keeps_float32(name):
    x = np.linspace(-2, 2, 9, dtype=np.float32)
    assert [fn(x).dtype for fn in phi_table(name)] == [np.float32] * 2


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", ["relu2", "laplace"])
def test_phi_pair_maps_minus_inf_to_zero(name, dtype):
    # the factored op masks what a row cannot see with -inf in its logit
    # buffer and applies f and f' to the whole buffer
    x = np.array([[-np.inf, 0.5], [2.0, -np.inf]], dtype=dtype)
    with np.errstate(all="raise"):
        for fn in phi_table(name):
            y = fn(x)
            assert y.dtype == dtype
            assert y[0, 0] == 0.0 and y[1, 1] == 0.0 and y[0, 1] > 0.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_silu_match_reference_over_wide_range(dtype):
    # against scipy's expit in float64: a few ulps wherever the reference
    # is a normal number of the dtype, within the smallest normal below
    # that, exact limits at +-1000, and no overflow warning from exp(-x)
    x = np.linspace(-1000.0, 1000.0, 200001).astype(dtype)
    ref = expit(x.astype(np.float64))
    with precision(dtype), warnings.catch_warnings():
        warnings.simplefilter("error")
        s = sigmoid(Tensor(x)).data
        u = T.silu(Tensor(x)).data
    assert s.dtype == dtype and u.dtype == dtype
    tiny, eps = np.finfo(dtype).tiny, np.finfo(dtype).eps
    normal = ref >= tiny
    assert np.all(np.abs(s[normal] - ref[normal]) <= 4 * eps * ref[normal])
    assert np.all(np.abs(s[~normal] - ref[~normal]) <= tiny)
    assert s[0] == 0.0 and s[-1] == 1.0
    assert u[0] == 0.0 and u[-1] == 1000.0
    np.testing.assert_allclose(u, x * s, rtol=2 * eps)


# ---------------------------------------------------------------------------
# op gradients against central differences

def test_grad_elementwise_ops():
    rng = Rng(7)
    x = Tensor(rng.normal((3, 4)), requires_grad=True, name="x")
    for op in (sigmoid, T.silu):
        check_op_grads(lambda: T.tsum(op(x) * op(x)), [x])


@pytest.mark.parametrize("attn_fn", ["relu2", "laplace"])
def test_grad_dense_oracle_weight_op(attn_fn):
    # with K = 2I at z_dim 4 (scale 1/2), a zero bias and V = I, the
    # oracle's output is its weight op, phi_table's f, applied to Q
    x = Tensor(Rng(7).normal((4, 4)), requires_grad=True, name="x")
    cfg = AttentionConfig(attn_fn, 0, False, z_dim=4, v_dim=4)

    def weights():
        return attn_dense_oracle(x, Tensor(2.0 * np.eye(4)),
                                 Tensor(np.eye(4)), Tensor(np.zeros(1)), cfg)

    np.testing.assert_allclose(weights().data, phi_table(attn_fn)[0](x.data),
                               atol=1e-12)
    check_op_grads(lambda: T.tsum(weights() * weights()), [x])


@pytest.mark.parametrize("causal", [False, True])
@pytest.mark.parametrize("attn_fn", ["softmax", "relu2", "laplace"])
def test_grad_dense_oracle(attn_fn, causal):
    # the oracle's one node (its weights applied to V) against central
    # differences in Q, K_hat, V and a nonzero band bias, on one (L, d)
    # sequence and on a (B, L, d) batch; w = 2 puts keys on both sides
    # of the band and outside it
    cfg = AttentionConfig(attn_fn, 2, causal, z_dim=3, v_dim=2)
    rng = Rng(19)
    for lead in ((), (2,)):
        Q, K = (Tensor(rng.normal(lead + (6, 3)), requires_grad=True,
                       name=n) for n in ("Q", "K_hat"))
        V = Tensor(rng.normal(lead + (6, 2)), requires_grad=True, name="V")
        b = Tensor(rng.normal((5,)), requires_grad=True, name="bias")
        probe = Tensor(rng.normal(lead + (6, 2)))
        check_op_grads(lambda: T.tsum(attn_dense_oracle(Q, K, V, b, cfg)
                                      * probe), [Q, K, V, b])


def test_grad_gather_rows():
    rng = Rng(9)
    tab = Tensor(rng.normal((6, 3)), requires_grad=True, name="tab")
    idx = np.array([[0, 2, 2], [5, 0, 1]])
    check_op_grads(lambda: T.tsum(T.gather_rows(tab, idx)
                                  * T.gather_rows(tab, idx)), [tab])
    # the scatter against np.add.at: 60 indices into rows 0-3, so rows
    # repeat and rows 4 and 5 are never hit; then an empty index
    many = rng.integers(0, 4, (5, 12))
    g = rng.normal((5, 12, 3))
    ref = np.zeros((6, 3))
    np.add.at(ref, many.reshape(-1), g.reshape(-1, 3))
    got = grad(T.tsum(T.gather_rows(tab, many) * Tensor(g)), [tab])[0]
    np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13)
    assert not got[4:].any()
    empty = np.zeros((0,), dtype=int)
    got = grad(T.tsum(T.gather_rows(tab, empty)), [tab])[0]
    np.testing.assert_array_equal(got, np.zeros((6, 3)))


def test_key_sums_match_add_at():
    # the one per-key row sum behind the embedding gradient, the EMA sums
    # and the code stats, against np.add.at in float64: keys 0-3 of 7, so
    # keys 4-6 have no rows; float32 rows are summed in float64. Then no
    # rows at all, and rows of width 0
    rng = Rng(17)
    keys = rng.integers(0, 4, (200,))
    for dtype in (np.float64, np.float32):
        rows = rng.normal((200, 5)).astype(dtype)
        ref = np.zeros((7, 5))
        np.add.at(ref, keys, rows.astype(np.float64))
        got = T._key_sums(keys, rows, 7)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13)
        assert not got[4:].any()
    np.testing.assert_array_equal(
        T._key_sums(np.zeros(0, dtype=int), np.zeros((0, 5)), 7),
        np.zeros((7, 5)))
    assert T._key_sums(keys, np.zeros((200, 0)), 7).shape == (7, 0)


def test_grad_softmax_and_ce():
    rng = Rng(10)
    x = Tensor(rng.normal((4, 6)), requires_grad=True, name="x")
    t = rng.integers(0, 6, (4,))
    check_op_grads(lambda: cross_entropy(x, t), [x])


def test_cross_entropy_nd_equals_flattened_call():
    # (B, L, C) logits against the same logits flattened to (B * L, C):
    # bitwise the same loss and, shaped back, the same gradient
    rng = Rng(63)
    x = rng.normal((3, 5, 7))
    t = rng.integers(0, 7, (3, 5))
    nd = Tensor(x, requires_grad=True, name="nd")
    flat = Tensor(x.reshape(15, 7), requires_grad=True, name="flat")
    a, b = cross_entropy(nd, t), cross_entropy(flat, t.reshape(-1))
    assert float(a.data) == float(b.data)
    (ga,), (gb,) = grad(a, [nd]), grad(b, [flat])
    assert ga.shape == x.shape
    np.testing.assert_array_equal(ga, gb.reshape(x.shape))
    check_op_grads(lambda: cross_entropy(nd, t), [nd])


def test_grad_norms():
    rng = Rng(17)
    x = Tensor(rng.normal((2, 5, 6)), requires_grad=True, name="x")
    gain = Tensor(np.abs(rng.normal((6,))) + 0.5, requires_grad=True,
                  name="gain")
    bias = Tensor(rng.normal((6,)), requires_grad=True, name="bias")
    probe = Rng(18).normal((2, 5, 6))
    check_op_grads(
        lambda: T.tsum(T.layer_norm(x, gain, bias) * Tensor(probe)),
        [x, gain, bias], tol=1e-5)


def test_grad_linear():
    # the fused projection against central differences on 1-D, 2-D and
    # 3-D inputs; with a constant x the node returns no dx at all
    rng = Rng(20)
    w = Tensor(rng.normal((4, 3)), requires_grad=True, name="w")
    b = Tensor(rng.normal((3,)), requires_grad=True, name="b")
    for shape in ((4,), (5, 4), (2, 5, 4)):
        x = Tensor(rng.normal(shape), requires_grad=True, name="x")
        probe = Rng(21).normal(shape[:-1] + (3,))
        check_op_grads(lambda: T.tsum(T.linear(x, w, b) * Tensor(probe)),
                       [x, w, b])
    x = Tensor(rng.normal((2, 5, 4)))
    probe = Rng(22).normal((2, 5, 3))
    check_op_grads(lambda: T.tsum(T.linear(x, w, b) * Tensor(probe)),
                   [w, b])
    assert T.linear(x, w, b)._vjp(probe)[0] is None


def test_linear_equals_matmul_plus_bias():
    rng = Rng(23)
    x = Tensor(rng.normal((3, 7, 5)), requires_grad=True, name="x")
    w = Tensor(rng.normal((5, 4)), requires_grad=True, name="w")
    b = Tensor(rng.normal((4,)), requires_grad=True, name="b")
    probe = Rng(24).normal((3, 7, 4))
    fused = T.linear(x, w, b)
    got = grad(T.tsum(fused * Tensor(probe)), [x, w, b])
    # numpy's product plus bias, and its gradients under the probe
    x2, p2 = x.data.reshape(-1, 5), probe.reshape(-1, 4)
    want = (probe @ w.data.T, x2.T @ p2, p2.sum(axis=0))
    assert rel_err(fused.data, x.data @ w.data + b.data) < 1e-12
    for name, g, h in zip(("x", "w", "b"), got, want):
        assert g.shape == h.shape and rel_err(g, h) < 1e-12, name
    with pytest.raises(ValueError, match="linear expects"):
        T.linear(x, Tensor(np.zeros((4, 4))), b)


def test_grad_gate_mix():
    # the gate arrives as its pre-activation and the sigmoid runs inside
    rng = Rng(25)
    pre = Tensor(3.0 * rng.normal((2, 3, 4)), requires_grad=True, name="pre")
    a = Tensor(rng.normal((2, 3, 4)), requires_grad=True, name="a")
    x = Tensor(rng.normal((2, 3, 4)), requires_grad=True, name="x")
    probe = Rng(26).normal((2, 3, 4))
    check_op_grads(
        lambda: T.tsum(T.gate_mix(pre, a, x) * Tensor(probe)),
        [pre, a, x])
    gate = expit(pre.data)
    want = gate * a.data + (1.0 - gate) * x.data
    assert rel_err(T.gate_mix(pre, a, x).data, want) < 1e-14


def test_gate_mix_equals_node_chain():
    # against x + sigmoid(pre) * (a - x) built from separate nodes
    rng = Rng(61)
    params = [Tensor(rng.normal((3, 5, 4)), requires_grad=True, name=n)
              for n in ("pre", "a", "x")]
    pre, a, x = params
    probe = Tensor(rng.normal((3, 5, 4)))
    fused = T.gate_mix(pre, a, x)
    chain = x + sigmoid(pre) * sub(a, x)
    assert rel_err(fused.data, chain.data) < 1e-12
    want = grad(T.tsum(chain * probe), params)
    got = grad(T.tsum(fused * probe), params)
    for p, g, h in zip(params, got, want):
        assert rel_err(g, h) < 1e-12, p.name
    with pytest.raises(ValueError, match="gate_mix expects one shape"):
        T.gate_mix(pre, a, Tensor(np.zeros((3, 5, 3))))


def test_layer_norm_residual_equals_node_chain():
    # layer_norm(x, residual=r) against layer_norm(x + r), and the
    # residual's gradient against central differences
    rng = Rng(62)
    x = Tensor(rng.normal((2, 5, 6)), requires_grad=True, name="x")
    r = Tensor(rng.normal((2, 5, 6)), requires_grad=True, name="residual")
    gain = Tensor(np.abs(rng.normal((6,))) + 0.5, requires_grad=True,
                  name="gain")
    bias = Tensor(rng.normal((6,)), requires_grad=True, name="bias")
    probe = Tensor(rng.normal((2, 5, 6)))
    params = [x, gain, bias, r]
    fused = T.layer_norm(x, gain, bias, residual=r)
    chain = T.layer_norm(x + r, gain, bias)
    assert rel_err(fused.data, chain.data) < 1e-12
    want = grad(T.tsum(chain * probe), params)
    got = grad(T.tsum(fused * probe), params)
    for p, g, h in zip(params, got, want):
        assert rel_err(g, h) < 1e-12, p.name
    check_op_grads(
        lambda: T.tsum(T.layer_norm(x, gain, bias, residual=r) * probe),
        params, tol=1e-5)
    with pytest.raises(ValueError, match="residual shape"):
        T.layer_norm(x, gain, bias, residual=Tensor(np.zeros((2, 6))))


def _layer_norm_two_pass(x, gain, bias, g, eps=1e-5):
    """Reference: output and (dx, dgain, dbias) for upstream g, with the
    row statistics as mean(axis=-1)."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    xn = xc * inv
    gxn = g * gain
    dx = inv * (gxn - gxn.mean(axis=-1, keepdims=True)
                - xn * (gxn * xn).mean(axis=-1, keepdims=True))
    d = x.shape[-1]
    return (xn * gain + bias, dx, (g * xn).reshape(-1, d).sum(axis=0),
            g.reshape(-1, d).sum(axis=0))


def _layer_norm_op(x, gain, bias, g):
    xt, gt, bt = (Tensor(a, requires_grad=True, name=n)
                  for a, n in ((x, "x"), (gain, "gain"), (bias, "bias")))
    out = T.layer_norm(xt, gt, bt)
    return (out.data, *grad(T.tsum(out * Tensor(g)), [xt, gt, bt]))


def test_layer_norm_matches_two_pass_reference():
    rng = Rng(27)
    shape = (3, 9, 6)
    x, g = 2.0 + rng.normal(shape), rng.normal(shape)
    gain, bias = 0.5 + np.abs(rng.normal((6,))), rng.normal((6,))
    for name, a, b in zip(("out", "dx", "dgain", "dbias"),
                          _layer_norm_op(x, gain, bias, g),
                          _layer_norm_two_pass(x, gain, bias, g)):
        assert a.shape == b.shape and rel_err(a, b) < 1e-12, name


def test_layer_norm_float32_matches_float64():
    # the float32 training shape: within 1e-5 of float64 relative to each
    # array's peak, for the output and all three gradients
    rng = Rng(28)
    x, g = (rng.normal((32, 256, 64)).astype(np.float32) for _ in range(2))
    gain = (0.5 + np.abs(rng.normal((64,)))).astype(np.float32)
    bias = rng.normal((64,)).astype(np.float32)
    with precision("float32"):
        lo = _layer_norm_op(x, gain, bias, g)
    hi = _layer_norm_op(x, gain, bias, g)
    for name, a, b in zip(("out", "dx", "dgain", "dbias"), lo, hi):
        assert a.dtype == np.float32 and b.dtype == np.float64, name
        err = np.abs(a - b).max() / np.abs(b).max()
        assert err < 1e-5, f"{name}: {err:.2e}"


def test_rebuilt_intermediates_give_the_stored_gradients():
    # silu, layer_norm and the commitment loss keep no activation for the
    # backward and rebuild it from their parents with the forward's
    # operations; at the lm recipe's shapes in float32 their gradients
    # equal, bitwise, the formulas on stored intermediates written out
    # here (and, for the commitment loss, its sub-square-mean chain)
    rng = Rng(64)
    with precision("float32"):
        def f32(shape, scale=1.0):
            return (scale * rng.normal(shape)).astype(np.float32)

        x, g = f32((32, 256, 64), 3.0), f32((32, 256, 64))
        s = T._sigmoid_np(x)
        want = (((1.0 - s) * x + 1.0) * s) * g
        xt = Tensor(x, requires_grad=True)
        y = T.silu(xt)
        np.testing.assert_array_equal(y.data, x * s)
        y.backward(g)
        np.testing.assert_array_equal(xt.grad, want)

        gain, bias, r = f32((64,)) + 1.0, f32((64,)), f32((32, 256, 64))
        col = np.full((64, 1), 1.0 / 64, dtype=np.float32)
        for res in (None, r):
            x2 = (x if res is None else x + res).reshape(-1, 64)
            xc = x2 - x2 @ col
            inv = 1.0 / np.sqrt(np.square(xc) @ col + 1e-5)
            xn = xc * inv
            g2 = g.reshape(-1, 64)
            gxn = g2 * gain
            ones = np.ones(g2.shape[0], dtype=np.float32)
            dx = ((gxn - gxn @ col) - xn * ((gxn * xn) @ col)) * inv
            parts = [Tensor(a, requires_grad=True) for a in (x, gain, bias)]
            if res is not None:
                parts.append(Tensor(res, requires_grad=True))
            out = T.layer_norm(*parts)
            np.testing.assert_array_equal(out.data.reshape(-1, 64),
                                          xn * gain + bias)
            out.backward(g)
            np.testing.assert_array_equal(parts[0].grad.reshape(-1, 64), dx)
            np.testing.assert_array_equal(parts[1].grad, ones @ (g2 * xn))
            np.testing.assert_array_equal(parts[2].grad, ones @ g2)
            if res is not None:
                np.testing.assert_array_equal(parts[3].grad, parts[0].grad)

        C = f32((64, 16))
        cb = Codebook(C=C, ema_count=np.ones(64, np.float32), ema_sum=C)
        z = rng.integers(0, 64, (32, 256))
        K, seed = f32((32, 256, 16)), np.float32(0.37)
        diff = K - C[z]
        n = np.float32(1.0 / diff.size)
        t = diff * (seed * n)
        Kt = Tensor(K, requires_grad=True)
        loss = commit_loss(Kt, cb, z)
        assert loss.data == np.square(diff).sum() * n
        loss.backward(seed)
        np.testing.assert_array_equal(Kt.grad, t + t)
        Kc = Tensor(K, requires_grad=True)
        d = sub(Kc, Tensor(C[z]))
        chain = T.tmean(d * d)
        assert chain.data == loss.data
        chain.backward(seed)
        np.testing.assert_array_equal(Kc.grad, Kt.grad)


def test_sigmoid_silu_zero_d_input():
    x = Tensor(np.array(0.3), requires_grad=True, name="x")
    for op, want, dwant in (
            (sigmoid, expit(0.3), expit(0.3) * (1 - expit(0.3))),
            (T.silu, 0.3 * expit(0.3),
             expit(0.3) * (1 + 0.3 * (1 - expit(0.3))))):
        y = op(x)
        assert y.data.shape == () and y.data == pytest.approx(want, rel=1e-15)
        (dx,) = grad(y, [x])
        assert dx.shape == () and dx == pytest.approx(dwant, rel=1e-15)


def test_grad_sum_mean_axes():
    rng = Rng(19)
    x = Tensor(rng.normal((3, 4, 5)), requires_grad=True, name="x")
    for op, axis in ((T.tmean, 1), (T.tsum, 2)):
        check_op_grads(lambda: T.tsum(op(x, axis=axis) * op(x, axis=axis)),
                       [x])


# ---------------------------------------------------------------------------
# rng streams

def test_rng_deterministic_and_platform_stable():
    a = Rng(1234).normal((4,))
    b = Rng(1234).normal((4,))
    np.testing.assert_array_equal(a, b)
    # frozen first draws of the Philox stream for seed=1234 (counter-based,
    # independent of OS/BLAS); guards against silent generator changes
    frozen = np.array([1.11539033, 1.11188251, -0.38094508, 0.85918978])
    np.testing.assert_allclose(a, frozen, atol=1e-6)


def test_rng_children_independent_and_stable():
    root = Rng(7)
    c1 = root.child("weights").normal((3,))
    c2 = root.child("data").normal((3,))
    assert not np.allclose(c1, c2)
    again = Rng(7).child("weights").normal((3,))
    np.testing.assert_array_equal(c1, again)


def test_rng_child_insensitive_to_sibling_order():
    r1 = Rng(9)
    _ = r1.child("a").normal((10,))
    b1 = r1.child("b").normal((10,))
    b2 = Rng(9).child("b").normal((10,))
    np.testing.assert_array_equal(b1, b2)
